"""The stop rule of the lambda route, S on first read, and zero rows.

``_scalar_lambdas`` ends Newton's recurrence once p zero values in a row,
p the least period of the psi-sequence, show lambda_t(c) to be a polynomial,
and pads with zeros.  Every value it gives is compared here with
``oracle_utils.reference_lambda_values``, which runs every step, by ``repr``
and ``.order``: on builtin characters, on random virtual ones, on psi-sequences
made from random eigenvalues, and on sequences with a wrong or a copied value
past the first period.  The degree-bound check must name the same first n as
the reference, also through a share that holds another character's entries.  ``LambdaSequence.syms`` must equal ``_scalar_syms`` of the
reference lambda values at each class, by ``repr`` and ``.order``, on
builtin and virtual characters.  The operation counts are
deterministic: an exterior table runs no S recurrence and at most
chi(1) + e lambda steps per representative, and the first read of ``syms``
runs the S route once per distinct lambda column at the representatives,
the second none.
A zero row decomposes to zeros without the certificate; any other row is
certified.
"""

import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import random_virtual, reference_inner_product, reference_lambda_values
from symext import catalog, groupdata, lambdaops
from symext.catalog import get_group
from symext.closedforms import central_forms
from symext.exactnum import Cyclotomic, as_cyclotomic
from symext.genfun import EXT, SYM, genfun_rationals, genfun_series, multiplicity_table
from symext.groupdata import (
    ClassData,
    ClassFunction,
    NonIntegralMultiplicityError,
    NonRationalMultiplicityError,
    integral_decompose,
)
from symext.lambdaops import (
    InvalidCharacterError,
    LambdaSequence,
    SeriesShare,
    _scalar_lambdas,
    _scalar_syms,
    exterior_powers,
)

BUILTINS = [
    ("S3", None), ("A4", None), ("G21", None), ("S4", None), ("A5", None),
    ("D2n", 4), ("D2n", 5), ("D2n", 6), ("D2n", 7), ("D2n", 8),
    ("Q4n", 2), ("Q4n", 3), ("Q4n", 4), ("Hp", 3), ("Hp", 5), ("Hp", 7),
]


def key(values):
    return [(repr(v), v.order) for v in values]


def psi_at(f, c, M):
    return [None] + [f.values[f.data.power_map(n)[c]] for n in range(1, M + 1)]


def reference(psi, M):
    return list(islice(reference_lambda_values(psi[: M + 1]), M + 1))


def assert_matches_reference(f, M):
    seq = LambdaSequence.compute(f, M)
    seq.syms  # the share's entries now hold S series too
    again = LambdaSequence.compute(f, M, share=seq.share)
    wants = {}  # the reference once per psi-sequence
    for c in range(f.data.class_count):
        psi = psi_at(f, c, M)
        ids = tuple(map(id, psi))
        want = wants[ids] = wants.get(ids) or key(reference(psi, M))
        assert key(f2.values[c] for f2 in seq.lambdas) == want, c
        assert key(f2.values[c] for f2 in again.lambdas) == want, c


@pytest.mark.parametrize("family, param", BUILTINS)
def test_stopped_lambdas_match_the_full_recurrence(family, param):
    table = get_group(family, param)
    rng = random.Random(f"{family}{param}")
    M = 3 * table.classes.exponent
    for f in list(table.irreducibles) + [random_virtual(table, rng) for _ in range(2)]:
        assert_matches_reference(f, M)


def hp7_central():
    ctx = catalog._builtin_context("Hp", 7)
    return central_forms(ctx.classes, ctx.central["zeta_1"])


@pytest.mark.parametrize("scale", [1, Fraction(1, 7), Fraction(8, 7)])
def test_hp7_central_character_runs_through_its_zero_runs(scale):
    # off the centre lambda_t = (1 + zeta t^7)^(7 scale / 7): runs of 6 zeros
    # between nonzero terms, one short of the exponent 7
    forms = hp7_central()
    f = forms.character() * scale
    assert f.data.exponent == 7
    assert_matches_reference(f, 21)
    seq = LambdaSequence.compute(f, 21)
    off = [c for c, h in enumerate(forms.coset_orders) if h == 7]
    assert off and all(seq.lambdas[7].values[c] for c in off)
    assert all(seq.lambdas[14].values[c] for c in off) == (scale != 1)


@st.composite
def eigen_psi(draw):
    """(psi, M): psi^m = sum of eps^m over one multiset of roots of unity of
    order N, minus the sum over another (empty for a character), each
    distinct value one object; perhaps with one value past the first period
    replaced by a wrong one or by an equal copy."""
    N = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12]))
    plus = draw(st.lists(st.integers(0, N - 1), max_size=4))
    minus = draw(st.lists(st.integers(0, N - 1), max_size=2))
    M = draw(st.integers(0, 3 * N + 3))
    zero = as_cyclotomic(0)
    base = []
    for m in range(1, N + 1):
        v = sum((Cyclotomic.root_of_unity(N, a * m) for a in plus), zero)
        base.append(v - sum((Cyclotomic.root_of_unity(N, a * m) for a in minus), zero))
    psi = [None] + [base[(m - 1) % N] for m in range(1, M + 1)]
    if M > 2 * N and draw(st.booleans()):
        j = draw(st.integers(2 * N + 1, M))
        wrong = draw(st.booleans())
        psi[j] = psi[j] + 1 if wrong else Cyclotomic._raw(psi[j].order, psi[j].num, psi[j].den)
    return psi, M


@settings(deadline=None, max_examples=200)
@given(eigen_psi())
def test_stopped_lambdas_match_the_full_recurrence_on_any_sequence(case):
    psi, M = case
    assert key(_scalar_lambdas(psi, M)) == key(reference(psi, M))


def test_a_wrong_psi_value_past_the_first_period_is_seen():
    # A5 chi4 at 5A stops by step 3 + 5; a wrong psi^200 makes lambda_t no
    # polynomial from lambda^200 on
    table = get_group("A5")
    chi = table.character("chi4")
    c = 3  # 5A
    psi = psi_at(chi, c, 300)
    right = _scalar_lambdas(psi, 300)
    assert not any(right[4:])
    psi[200] = psi[200] + 1
    got = _scalar_lambdas(psi, 300)
    assert key(got) == key(reference(psi, 300))
    assert got[200] and not any(got[4:200])


def first_violation(f, M, power_map):
    """The first n > f(e) with some reference lambda^n nonzero, or None."""
    d = int(f.values[0].to_rational())
    cols = [reference_lambda_values([None] + [f.values[power_map(n)[c]] for n in range(1, M + 1)])
            for c in range(f.data.class_count)]
    for n, row in enumerate(zip(*cols)):
        if n > d and any(row):
            return n
    return None


def moved(family, c):
    """The last irreducible of the group with 1 added at class c."""
    chi = get_group(family).irreducibles[-1]
    return ClassFunction(chi.data, [v + (i == c) for i, v in enumerate(chi.values)])


DEGREE_BOUND_CASES = {
    "A5-moved": lambda: moved("A5", 2),
    "S4-moved": lambda: moved("S4", 3),
    "Hp7-central-1/7": lambda: hp7_central().character() * Fraction(1, 7),
    "Hp7-central-8/7": lambda: hp7_central().character() * Fraction(8, 7),
}


@pytest.mark.parametrize("name", DEGREE_BOUND_CASES)
def test_the_degree_bound_names_the_reference_n(name):
    f = DEGREE_BOUND_CASES[name]()
    n = first_violation(f, 300, f.data.power_map)
    assert n is not None
    with pytest.raises(InvalidCharacterError, match=rf"^lambda\^{n} is nonzero"):
        LambdaSequence.compute(f, 300, expect_character=True)
    if name == "Hp7-central-8/7":
        assert n == 14 > f.data.exponent


def test_a_wrong_power_map_past_the_first_period_fails_the_degree_bound(monkeypatch):
    # psi^200 of A5 chi4 read through the 2-power map instead of the
    # 200 = 20 (mod 30) one: past every period, so only the unstopped steps see it
    table = get_group("A5")
    chi, cd = table.character("chi4"), table.classes
    real = ClassData.power_map
    monkeypatch.setattr(ClassData, "power_map",
                        lambda self, n: real(self, 2 if self is cd and n == 200 else n))
    n = first_violation(chi, 300, cd.power_map)
    assert n is not None and n >= 200
    with pytest.raises(InvalidCharacterError, match=rf"^lambda\^{n} is nonzero"):
        LambdaSequence.compute(chi, 300, expect_character=True)


def count_calls(monkeypatch, module, name):
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_exterior_requests_run_no_sym_recurrence(monkeypatch):
    table = get_group("A5")
    chi = table.character("chi4")

    def no_syms(lam, M):
        raise AssertionError("an S recurrence ran")

    monkeypatch.setattr(lambdaops, "_scalar_syms", no_syms)
    multiplicity_table(chi, table, EXT, 300)
    genfun_series(chi, table, 0, EXT, 40)
    genfun_rationals(chi, table, range(5), EXT)
    exterior_powers(chi, 30, expect_character=True)
    with pytest.raises(AssertionError, match="an S recurrence ran"):
        multiplicity_table(chi, table, SYM, 3)


def test_lambda_steps_per_representative_are_at_most_degree_plus_exponent(monkeypatch):
    table = get_group("A5")
    e = table.classes.exponent
    routes = count_calls(monkeypatch, lambdaops, "_recurrence")
    steps = count_calls(monkeypatch, lambdaops, "_stored")  # one call per step, at every order
    for chi in table.irreducibles:
        d = int(chi.values[0].to_rational())
        routes.clear(), steps.clear()
        mt = multiplicity_table(chi, table, EXT, 300)
        assert len(mt.rows) == 301
        assert 1 <= len(routes) <= len(set(r for r, _ in table.classes.rational_classes()[0]))
        assert len(steps) <= len(routes) * (d + e)
    # chi4 at 1A, 2A, 3A and 5A: lambda_t has degree 3 and psi the period 1, 2, 3, 5
    routes.clear(), steps.clear()
    multiplicity_table(table.character("chi4"), table, EXT, 300)
    assert len(routes) == 4 and len(steps) == (3 + 1) + (3 + 2) + (3 + 3) + (3 + 5)
    # the S recurrence of a symmetric table still runs every step
    steps.clear()
    multiplicity_table(table.character("chi4"), table, SYM, 300)
    assert len(steps) == 4 * 300 + 23


@pytest.mark.parametrize("family, param", [("D2n", 5), ("Q4n", 3), ("Hp", 3)])
def test_syms_run_the_s_route_once_per_lambda_column_on_first_read(family, param, monkeypatch):
    table = get_group(family, param)
    routes = count_calls(monkeypatch, lambdaops, "_scalar_syms")
    carried = False
    for chi in table.irreducibles:
        seq = LambdaSequence.compute(chi, 6)
        # the route runs at a representative whose lambda column no earlier
        # class had; any other class with a new column takes a Galois image
        cols = [tuple(key(f.values[c] for f in seq.lambdas)) for c in range(len(seq.orbits))]
        runs = sum(r == c and cols[c] not in cols[:c] for c, (r, _) in enumerate(seq.orbits))
        routes.clear()
        first = seq.syms
        assert len(first) == 7 and len(routes) == runs
        assert seq.syms is first and len(routes) == runs
        carried |= runs < len(set(cols))
    assert carried


def reference_syms_at(f, c, M):
    return key(_scalar_syms(reference(psi_at(f, c, M), M), M))


def test_a_lambda_column_is_never_served_as_s_from_one_share():
    # at M = 2 the constant 3 has psi^1..2 = lambda^1..2 = 3, 3 at every class,
    # and (1, 2, 0) on S3 has at C2 the psi-sequence 2, 1 that is lambda^1..2
    # of the constant 2: a share keying S by lambda, beside psi, would confuse them
    cd = get_group("S3").classes
    jobs = [(ClassFunction.constant(cd, 3), 2), (ClassFunction.constant(cd, 2), 2),
            (ClassFunction(cd, [1, 2, 0]), 2)]
    jobs += [(chi, 8) for chi in get_group("D2n", 5).irreducibles]
    share = SeriesShare()
    for f, M in jobs:
        seq = LambdaSequence.compute(f, M, share=share)
        for c in range(f.data.class_count):
            assert key(g.values[c] for g in seq.lambdas) == key(reference(psi_at(f, c, M), M))
            assert key(g.values[c] for g in seq.syms) == reference_syms_at(f, c, M)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(BUILTINS), st.integers(0, 2**16), st.data())
def test_syms_match_the_s_route_of_the_reference_lambdas(builtin, seed, data):
    table = get_group(*builtin)
    virtual = random_virtual(table, random.Random(seed))
    f = data.draw(st.sampled_from(list(table.irreducibles) + [virtual]))
    M = data.draw(st.integers(0, 3 * table.classes.exponent))
    seq = LambdaSequence.compute(f, M)
    for c in range(f.data.class_count):
        assert key(g.values[c] for g in seq.syms) == reference_syms_at(f, c, M), c


@pytest.mark.parametrize("family, param", BUILTINS)
def test_the_zero_function_decomposes_to_zeros(family, param, monkeypatch):
    table = get_group(family, param)
    certified = count_calls(monkeypatch, groupdata, "_certified")
    zero = ClassFunction.constant(table.classes, 0)
    assert integral_decompose(zero, table) == (0,) * table.classes.class_count
    assert certified == []


@pytest.mark.parametrize("family, param", [("S3", None), ("A5", None), ("D2n", 5), ("Hp", 3)])
def test_a_row_zero_but_at_one_class_is_certified(family, param, monkeypatch):
    table = get_group(family, param)
    cd = table.classes
    certified = count_calls(monkeypatch, groupdata, "_certified")
    for c in range(cd.class_count):
        f = ClassFunction(cd, [cd.group_order if i == c else 0 for i in range(cd.class_count)])
        want = [reference_inner_product(chi, f) for chi in table.irreducibles]
        before = len(certified)
        if not all(q.is_rational() for q in want):
            with pytest.raises(NonRationalMultiplicityError):
                integral_decompose(f, table)
        elif all(q.to_rational().denominator == 1 and q.to_rational() >= 0 for q in want):
            assert list(integral_decompose(f, table)) == want
        else:
            with pytest.raises(NonIntegralMultiplicityError):
                integral_decompose(f, table)
        assert len(certified) > before


def test_the_degree_bound_through_one_share_names_the_fresh_n():
    # D2n:50 at M = 10: tau1 + tau2 (degree 4) first, then the row with 2 at
    # the identity.  At the 20 rotations of order 25 and 50 the row reads
    # the first character's entries, whose last nonzero lambda^n (4) is
    # already found; at C5, of order 10, it runs to lambda^10.  Through the
    # share it names the first n past 2 that a fresh share and the reference
    # name
    table, M = get_group("D2n", 50), 10
    high = table.irreducibles[4] + table.irreducibles[5]
    row = ClassFunction(high.data, [2] + list(high.values[1:]))
    share = SeriesShare()
    seq = LambdaSequence.compute(high, M, expect_character=True, share=share)
    tops = dict(share.tops)
    messages = []
    for s in (share, None):
        with pytest.raises(InvalidCharacterError) as info:
            LambdaSequence.compute(row, M, expect_character=True, share=s)
        messages.append(str(info.value))
    n = first_violation(row, M, row.data.power_map)
    assert messages == [f"lambda^{n} is nonzero beyond the degree 2"] * 2 and n == 3
    again = LambdaSequence.compute(row, M, share=share)
    shared = [c for c, r in enumerate(high.data.rep_orders) if r in (25, 50)]
    assert len(shared) == 20
    assert all(again.entries[c] is seq.entries[c] and tops[id(seq.entries[c][0])] == 4
               for c in shared)
    assert share.top(again.entries[5][0]) == M
