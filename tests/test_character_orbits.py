"""The row side of the Galois action: ``CharacterTable.character_orbits`` and
the per-orbit work in ``verify``.

``verify`` certifies the symmetric-power table once per character orbit and
runs ``one_dim_forms`` and the rational forms, and compares the forms, once
per orbit of linear characters; every other character is compared through
the orbit table at every class and every degree.  Each mutant below moves
one thing that only one of these comparisons can see, and ``verify`` must
report FAIL.

``decompose`` certifies a rational class function over the orbit sums
rho_O = sum_(j in O) chi_j, with one candidate per orbit; the property tests
at the end check it against the reference inner products.
"""

import contextlib
import functools
import io
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import reference_dual_route_check, reference_inner_product, with_syms
from symext import catalog, checks, groupdata
from symext.catalog import get_group
from symext.exactnum import Cyclotomic
from symext.closedforms import OneDimForms, one_dim_forms
from symext.cli import EXIT_OK, EXIT_VERIFY, main
from symext.genfun import MultiplicityTable, RationalFunction
from symext.groupdata import (
    CharacterTable,
    ClassData,
    ClassFunction,
    NonRationalMultiplicityError,
    decompose,
)
from symext.lambdaops import LambdaSequence

BUILTINS = [("S3", None), ("A4", None), ("G21", None), ("S4", None), ("A5", None),
            ("D2n", 5), ("D2n", 8), ("D2n", 12), ("Q4n", 3), ("Q4n", 6), ("Hp", 3), ("Hp", 5)]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _row(out, name):
    return next(ln.split() for ln in out.splitlines() if ln.startswith(name + " "))


def _non_rep(table, linear):
    """(j, r, u) for the first chi_j off its orbit's representative, linear or not."""
    orbit, _ = table.character_orbits()
    return next((j, r, u) for j, (r, u) in enumerate(orbit)
                if r != j and (table.irreducibles[j].values[0] == 1) == linear)


@pytest.mark.parametrize("family, param", BUILTINS)
def test_the_orbit_table_maps_rows_to_rows(family, param):
    table = get_group(family, param)
    cd, chis = table.classes, table.irreducibles
    orbit, perms = table.character_orbits()
    for j, (r, u) in enumerate(orbit):
        assert orbit[r] == (r, 1) and r <= j
        assert all(chis[j].values[c] == chis[r].values[cd.power_map(u)[c]]
                   for c in range(cd.class_count))
    for u, perm in perms.items():
        assert sorted(perm) == list(range(cd.class_count))
        for i, chi in enumerate(chis):
            assert all(chis[perm[i]].values[c] == chi.values[cd.power_map(u)[c]]
                       for c in range(cd.class_count))
    # Brauer's permutation lemma: as many character orbits as rational classes
    assert len({r for r, _ in orbit}) == len(cd.rational_classes()[1])


def _with_class_data(table, **changes):
    cd = table.classes
    fields = dict(group_order=cd.group_order, exponent=cd.exponent, names=cd.names,
                  sizes=cd.sizes, rep_orders=cd.rep_orders, inverse_class=cd.inverse_class,
                  prime_power_maps=cd.prime_power_maps)
    cd2 = ClassData(**{**fields, **changes})
    return CharacterTable(cd2, [ClassFunction(cd2, chi.values) for chi in table.irreducibles],
                          table.labels, table.name)


def _count_certify(monkeypatch):
    calls = []
    real = MultiplicityTable.certify.__func__
    monkeypatch.setattr(MultiplicityTable, "certify",
                        classmethod(lambda cls, seq, *a: calls.append(seq.base) or real(cls, seq, *a)))
    return calls


def test_verify_certifies_once_per_character_orbit(monkeypatch):
    # D2n:50: 28 irreducibles in 8 orbits, one per rational class
    calls = _count_certify(monkeypatch)
    code, _ = run_cli(["verify", "--group", "D2n:50"])
    assert code == EXIT_OK
    table = get_group("D2n", 50)
    reps = sorted({r for r, _ in table.character_orbits()[0]})
    assert len(calls) == 8 and [table.irreducibles.index(f) for f in calls] == reps


def test_a_table_whose_unit_image_is_no_row_certifies_every_character(monkeypatch):
    # D2n:5 with a 3-map sending both rotation classes to C1: the image of
    # tau1 is no row; degree 2 reads only the 2-map, so every chi certifies
    table = get_group("D2n", 5)
    maps = {**table.classes.prime_power_maps, 3: (0, 1, 1, 3)}
    wrong = _with_class_data(table, prime_power_maps=maps)
    assert wrong.character_orbits() == (tuple((j, 1) for j in range(4)), {1: (0, 1, 2, 3)})
    calls = _count_certify(monkeypatch)
    assert checks.dual_route_check(wrong, 2) == (True, "")
    assert len(calls) == 4
    calls.clear()
    assert checks.dual_route_check(table, 2) == (True, "") and len(calls) == 3


@pytest.mark.parametrize("family, param", [("D2n", 10), ("Hp", 3)])
@pytest.mark.parametrize("wrong", ["rep", "unit"])
def test_verify_catches_a_wrong_orbit_entry(monkeypatch, family, param, wrong):
    table = get_group(family, param)
    (orbit, perms), chis = table.character_orbits(), table.irreducibles
    j, r, u = _non_rep(table, linear=False)
    if wrong == "rep":  # another representative, of chi_j's degree if there is one
        reps = [s for s, (s2, _) in enumerate(orbit) if s == s2 != r]
        entry = (max(reps, key=lambda s: chis[s].values[0] == chis[j].values[0]), u)
    else:
        entry = (r, next(v for v, perm in perms.items() if perm[r] != j))
    mutated = (tuple(entry if i == j else e for i, e in enumerate(orbit)), perms)
    # verify runs on tables of its own, so what it derives from the patched
    # grouping (the orbit sums, say) never reaches the process-wide cache
    monkeypatch.setattr(catalog, "get_group", functools.cache(catalog.get_group.__wrapped__))
    monkeypatch.setattr(CharacterTable, "character_orbits", lambda self: mutated)
    code, out = run_cli(["verify", "--group", f"{family}:{param}"])
    assert code == EXIT_VERIFY
    row = _row(out, "dual-route-coefficients")
    assert row[1:3] == ["FAIL", f"{table.labels[j]}:"]


@pytest.mark.parametrize("group, linear", [("D2n:10", False), ("Hp:3", False), ("A4", True)])
def test_verify_catches_a_moved_sym_value_off_the_representative(monkeypatch, group, linear):
    # power_sum_check is off, so only the orbit comparison can see the move
    table = get_group(*catalog.parse_group_selector(group))
    j, _, _ = _non_rep(table, linear)
    target, real = table.irreducibles[j], LambdaSequence.compute.__func__

    def moved(cls, chi, M, *args, **kwargs):
        seq = real(cls, chi, M, *args, **kwargs)
        if chi is not target:
            return seq
        syms = list(seq.syms)
        syms[2] = ClassFunction(chi.data, [v + (c == 1) for c, v in enumerate(syms[2].values)])
        return with_syms(seq, syms)

    monkeypatch.setattr(LambdaSequence, "compute", classmethod(moved))
    monkeypatch.setattr(checks, "power_sum_check", lambda seq: None)
    code, out = run_cli(["verify", "--group", group])
    assert code == EXIT_VERIFY
    row = _row(out, "dual-route-coefficients")
    assert row[1:3] == ["FAIL", f"{table.labels[j]}:"] and "S^2" in row
    assert _row(out, "one-dimensional-forms")[1] == ("FAIL" if linear else "ok")


@pytest.mark.parametrize("group", ["A4", "Hp:3"])
def test_verify_catches_a_moved_form_of_a_linear_representative(monkeypatch, group):
    # the forms are compared once per orbit, at the representative: here the
    # representative of a non-representative linear character
    table = get_group(*catalog.parse_group_selector(group))
    _, r, _ = _non_rep(table, linear=True)
    target, real = table.irreducibles[r], OneDimForms.genfun

    def moved(self, jj):
        rf = real(self, jj)
        if self.order < 2 or self.powers[1] is not target or not rf.num:
            return rf
        return RationalFunction((Fraction(0),) + rf.num, rf.den)

    monkeypatch.setattr(OneDimForms, "genfun", moved)
    code, out = run_cli(["verify", "--group", group])
    assert code == EXIT_VERIFY
    assert _row(out, "one-dimensional-forms")[1] == "FAIL"
    assert _row(out, "dual-route-coefficients")[1] == "ok"


def test_verify_runs_the_one_dimensional_forms_once_per_orbit(monkeypatch):
    # Hp:3: 9 linear characters in 5 orbits (the trivial one and 4 pairs)
    table = get_group("Hp", 3)
    forms, rationals = [], []
    real_forms, real_rationals = checks.one_dim_forms, checks.genfun_rationals
    monkeypatch.setattr(checks, "one_dim_forms", lambda chi, t: forms.append(chi) or real_forms(chi, t))
    monkeypatch.setattr(checks, "genfun_rationals",
                        lambda chi, *a: rationals.append(chi) or real_rationals(chi, *a))
    code, out = run_cli(["verify", "--group", "Hp:3"])
    assert code == EXIT_OK and _row(out, "one-dimensional-forms")[1] == "ok"
    orbit = table.character_orbits()[0]
    reps = [table.irreducibles[r] for r in sorted({r for r, _ in orbit})
            if table.irreducibles[r].values[0] == 1]
    assert len(reps) == 5 and forms == rationals == reps


@pytest.mark.parametrize("family, param", BUILTINS)
def test_one_dim_forms_read_the_exponent_the_power_comparison_finds(family, param):
    table = get_group(family, param)
    for chi in table.irreducibles:
        if chi.values[0] != 1:
            continue
        forms = one_dim_forms(chi, table)
        for j, target in enumerate(table.irreducibles):
            i = next((i for i, f in enumerate(forms.powers) if f == target), None)
            assert forms.exponents[j] == i


# ---------------------------------------------------------------------------
# the per-orbit check against the row-wise reference


def _scaled(table, rows, factor):
    return CharacterTable(table.classes, [chi * factor if j in rows else chi
                                          for j, chi in enumerate(table.irreducibles)],
                          table.labels, table.name)


@st.composite
def altered_table(draw):
    """A builtin table, as it is or altered so that it is no character table,
    or is one with its rows in another order."""
    table = get_group(*draw(st.sampled_from(BUILTINS[:-1])))
    cd, k, chis = table.classes, table.classes.class_count, table.irreducibles
    orbit = table.character_orbits()[0]
    kind = draw(st.sampled_from(["none", "shuffle", "twist", "scale-orbit", "scale-row",
                                 "move-value", "copy-image"]))
    j = draw(st.integers(0, k - 1))
    units = sorted(table.character_orbits()[1])
    u = draw(st.sampled_from(units))
    if kind == "shuffle":
        order = draw(st.permutations(range(k)))
        return CharacterTable(cd, [chis[i] for i in order], [table.labels[i] for i in order])
    if kind == "twist":  # every row chi_i o u: a permutation of the rows
        pm = cd.power_map(u)
        return CharacterTable(cd, [ClassFunction(cd, [chi.values[c] for c in pm]) for chi in chis],
                              table.labels)
    if kind == "scale-orbit":
        return _scaled(table, {i for i, (r, _) in enumerate(orbit) if r == orbit[j][0]}, 2)
    if kind == "scale-row":
        return _scaled(table, {j}, 2)
    if kind == "move-value":
        c = draw(st.integers(1, k - 1))
        moved = ClassFunction(cd, [v + (i == c) for i, v in enumerate(chis[j].values)])
        return CharacterTable(cd, [moved if i == j else chi for i, chi in enumerate(chis)],
                              table.labels)
    if kind == "copy-image":  # chi_j replaced by the image of another row
        pm, i = cd.power_map(u), draw(st.integers(0, k - 1))
        image = ClassFunction(cd, [chis[i].values[c] for c in pm])
        return CharacterTable(cd, [image if n == j else chi for n, chi in enumerate(chis)],
                              table.labels)
    return table


@settings(max_examples=40, deadline=None)
@given(altered_table(), st.integers(1, 6))
def test_the_per_orbit_check_agrees_with_the_row_wise_reference(table, degree):
    ok, _ = checks.dual_route_check(table, degree)
    assert ok == reference_dual_route_check(table, degree)[0]


# builtins whose character orbits are not all single rows; fresh builds, so
# no orbit table patched by another test has reached their orbit sums
ORBIT_TABLES = [("A4", None), ("G21", None), ("A5", None), ("D2n", 5), ("D2n", 8), ("Q4n", 3),
                ("Q4n", 6), ("Hp", 3), ("Hp", 5)]
_fresh = {}


@st.composite
def orbit_combination(draw):
    """(table, f, qs): f = sum_O q_O rho_O with rational values, qs = q_O(j) per row."""
    selector = draw(st.sampled_from(ORBIT_TABLES))
    table = _fresh.get(selector) or _fresh.setdefault(
        selector, catalog.get_group.__wrapped__(*selector))
    orbit, _ = table.character_orbits()
    q = {r: draw(st.fractions(-3, 3, max_denominator=4)) for r in sorted({r for r, _ in orbit})}
    qs = tuple(q[r] for r, _ in orbit)
    values = [sum((q * chi.values[c] for q, chi in zip(qs, table.irreducibles)), Fraction(0))
              for c in range(table.classes.class_count)]
    return table, ClassFunction(table.classes, [v.to_rational() for v in values]), qs


def _certified_layouts(f, table):
    """The outcome of decompose(f, table), and the number of candidates each
    ``_certified`` call took."""
    with mock.patch.object(groupdata, "_certified", wraps=groupdata._certified) as spy:
        try:
            got = decompose(f, table)
        except NonRationalMultiplicityError as exc:
            got = str(exc)
    return got, [len(call.args[2]) for call in spy.call_args_list]


@settings(max_examples=60, deadline=None)
@given(orbit_combination())
def test_a_rational_combination_of_orbit_sums_certifies_once_per_orbit(tfq):
    # one certificate, over as many candidates as orbits, certifies f
    table, f, qs = tfq
    got, layouts = _certified_layouts(f, table)
    assert got == qs
    assert layouts == ([len({r for r, _ in table.character_orbits()[0]})] if any(qs) else [])


@settings(max_examples=60, deadline=None)
@given(orbit_combination(), st.data())
def test_a_value_moved_inside_a_rational_class_or_off_the_rationals_is_no_combination(tfq, data):
    # moved by a rational inside a rational class of two or more classes,
    # f is rational but not Galois fixed; moved by zeta_e anywhere, it has an
    # irrational value, so it never reaches the orbit sums
    table, f, _ = tfq
    cd = table.classes
    orbit, _ = cd.rational_classes()
    if data.draw(st.booleans()):
        c = data.draw(st.sampled_from([c for c, (r, _) in enumerate(orbit) if r != c]))
        by = Cyclotomic.from_rational(data.draw(st.sampled_from([-2, -1, 1, 2])))
    else:
        c = data.draw(st.integers(0, cd.class_count - 1))
        by = Cyclotomic.root_of_unity(cd.exponent)
    moved = ClassFunction(cd, [v + by if i == c else v for i, v in enumerate(f.values)])
    got, layouts = _certified_layouts(moved, table)
    label, v = next((label, v) for label, chi in zip(table.labels, table.irreducibles)
                    if not (v := reference_inner_product(chi, moved)).is_rational())
    assert got == f"inner product with {label} is not rational: {v!r}"
    assert by.is_rational() or all(n == cd.class_count for n in layouts)
