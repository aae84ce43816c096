"""Property tests of the Galois-orbit path: per-class work done once per
rational class.

``LambdaSequence.compute`` runs the recurrences at one class per rational
class and fills the others with Galois images when the class function is
compatible (f(r^u) = sigma_u(f(r)) at the same order), and class by class
otherwise.  ``decompose`` takes a candidate from orbit traces (every class
its own orbit when some row is not compatible) and certifies it by the
exact reconstruction; inner products only word a failure.  Each is
compared here with the class-by-class reference: value, ``repr`` and
``.order`` of every lambda^n and S^n, and the result or error message of
``decompose``.  The orders agree because a recurrence stores each value at
order 1 if it is rational, else at the lcm of the orders of the irrational
psi values at its class, and compatibility asks f(r^u) to have the order of
f(r).  ``genfun_rationals`` reads the eigenvalue multiplicities at one class
per rational class; it must reject exactly the class functions whose
lambda_t is not a polynomial of degree f(e) at every class.  Those
multiplicities come from one trace per divisor of the class order; for a
compatible f that candidate is exact, and otherwise it must rebuild f on
the cyclic subgroup of each class.  Either way they equal the reference
sum, error or result.
"""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_utils import (
    a4_with_an_identity_5_power_map,
    cyclic_spec,
    reference_eigenvalue_multiplicities,
    with_syms,
)
from symext import groupdata, lambdaops
from symext.catalog import FIXED_FAMILIES, get_group, load_group_spec
from symext.exactnum import Cyclotomic, as_cyclotomic, divisors, totient, unit_lift
from symext.genfun import EXT, SYM, genfun_rationals, genfun_series
from symext.groupdata import (
    ClassFunction,
    NonRationalMultiplicityError,
    decompose,
    inner_product,
    regular_character,
)
from symext.lambdaops import (
    CrossCheckError,
    InvalidCharacterError,
    LambdaSequence,
    SeriesShare,
    _scalar_lambdas,
    _scalar_syms,
    char_poly,
    power_sum_check,
)

TABLES = [("S3", None), ("D2n", 5), ("D2n", 6), ("D2n", 8), ("Q4n", 3), ("Q4n", 5), ("Hp", 3)]


def same(xs, ys):
    return len(xs) == len(ys) and all(
        a == b and repr(a) == repr(b) and a.order == b.order for a, b in zip(xs, ys)
    )


def reference_columns(f, M):
    """lambda and S at every class, each computed from its own psi values."""
    lams, syms = [], []
    for c in range(f.data.class_count):
        psi = [None] + [f.values[f.data.power_map(n)[c]] for n in range(1, M + 1)]
        lams.append(_scalar_lambdas(psi, M))
        syms.append(_scalar_syms(lams[-1], M))
    return lams, syms


def reference_char_polys(f):
    """The degree check at one class per maximal cyclic subgroup, then
    ``char_poly`` at every class."""
    cd, d = f.data, int(f.values[0].to_rational())
    covered = set()
    for c in sorted(range(cd.class_count), key=lambda c: -cd.rep_orders[c]):
        if c in covered:
            continue
        covered.update(cd.power_map(n)[c] for n in range(1, cd.rep_orders[c] + 1))
        top = d + cd.rep_orders[c]
        psi = [None] + [f.values[cd.power_map(n)[c]] for n in range(1, top + 1)]
        if any(not v.is_zero() for v in _scalar_lambdas(psi, top)[d + 1:]):
            raise InvalidCharacterError(
                f"lambda_t is not a polynomial of degree {d} at class {cd.names[c]}"
            )
    return [char_poly(f, c) for c in range(cd.class_count)]


def reference_decompose(f, table):
    """Inner products in Cyclotomic arithmetic, then the reconstruction."""
    qs = []
    for label, chi in zip(table.labels, table.irreducibles):
        v = inner_product(chi, f)
        if not v.is_rational():
            raise NonRationalMultiplicityError(f"inner product with {label} is not rational: {v!r}")
        qs.append(v.to_rational())
    recon = ClassFunction.constant(f.data, 0)
    for q, chi in zip(qs, table.irreducibles):
        recon = recon + chi * q
    if recon != f:
        raise NonRationalMultiplicityError("class function is outside the span of the irreducibles")
    return tuple(qs)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (InvalidCharacterError, NonRationalMultiplicityError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def class_function(draw):
    """(kind, table, f); "character", "virtual", "rational-combination" and
    "high-order-rationals" are Galois compatible, the other kinds in general
    not."""
    table = get_group(*draw(st.sampled_from(TABLES)))
    cd, k = table.classes, table.classes.class_count
    kind = draw(st.sampled_from(
        ["character", "virtual", "rational-combination", "high-order-rationals", "perturbed",
         "identity-moved", "arbitrary"]
    ))
    if kind == "arbitrary":
        values = []
        for _ in range(k):
            n = draw(st.sampled_from(divisors(cd.exponent)))
            coords = draw(st.lists(st.integers(-2, 2), min_size=totient(n), max_size=totient(n)))
            values.append(Cyclotomic(n, coords))
        return kind, table, ClassFunction(cd, values)
    lo = 0 if kind == "character" else -2
    coeffs = draw(st.lists(st.integers(lo, 2), min_size=k, max_size=k))
    if kind == "rational-combination":
        coeffs = [Fraction(q, draw(st.sampled_from([1, 2, 3]))) for q in coeffs]
    f = ClassFunction.constant(cd, 0)
    for q, chi in zip(coeffs, table.irreducibles):
        f = f + chi * q
    if kind == "high-order-rationals":
        # rational values stored at twice the exponent, so that images of
        # irrational results at that order need a lift of the unit
        n = 2 * cd.exponent
        f = ClassFunction(cd, [
            Cyclotomic(n, [v.to_rational()] + [0] * (totient(n) - 1)) if v.is_rational() else v
            for v in f.values
        ])
    if kind in ("perturbed", "identity-moved"):
        # identity-moved: f(e) leaves the fixed field of its stabilizer, all
        # units, while every image check outside it still holds
        values = list(f.values)
        zeta = Cyclotomic.root_of_unity(cd.exponent)
        if kind == "perturbed":
            c = draw(st.integers(0, k - 1))
            values[c] = values[c] + draw(st.sampled_from([as_cyclotomic(1), zeta]))
        else:
            values[0] = values[0] + zeta
        f = ClassFunction(cd, values)
    return kind, table, f


@settings(deadline=None, max_examples=100)
@given(class_function(), st.integers(0, 8))
def test_compute_matches_the_class_by_class_loops(kf, M):
    _, _, f = kf
    seq = LambdaSequence.compute(f, M)
    lams, syms = reference_columns(f, M)
    for c in range(f.data.class_count):
        assert same([seq.lambdas[n].values[c] for n in range(M + 1)], lams[c])
        assert same([seq.syms[n].values[c] for n in range(M + 1)], syms[c])
    power_sum_check(seq)


S3, D10 = get_group("S3", None), get_group("D2n", 5)


def route_verdict(seq):
    try:
        power_sum_check(seq)
    except CrossCheckError as exc:
        return str(exc)
    return "ok"


@settings(deadline=None, max_examples=60)
@given(class_function(), class_function(), st.lists(st.integers(0, 8), min_size=2, max_size=4),
       st.data())
@example(("character", S3, S3.irreducibles[0]), ("character", S3, S3.irreducibles[1]), [1, 2],
         None)
def test_a_shared_map_gives_the_values_of_a_fresh_one(kf, kg, Ms, data):
    # one share across two class functions, perhaps of two tables, and mixed
    # degrees: the trivial character at M = 1 and 2 has psi-sequences of one
    # value id repeated, which a key that does not fix M would confuse
    share = SeriesShare()
    jobs = [(f, M) for (_, _, f) in (kf, kg) for M in Ms]
    for f, M in jobs:
        alone = LambdaSequence.compute(f, M)
        shared = LambdaSequence.compute(f, M, share=share)
        assert shared.orbits == alone.orbits and shared.share is share
        for xs, ys in ((alone.lambdas, shared.lambdas), (alone.syms, shared.syms)):
            assert all(same(x.values, y.values) for x, y in zip(xs, ys)) and len(xs) == len(ys)
        assert route_verdict(alone) == "ok" == route_verdict(shared)
        if M and data is not None:
            # one S^n moved at one class: the same verdict with the share
            n = data.draw(st.integers(1, M))
            c = data.draw(st.integers(0, f.data.class_count - 1))
            values = list(alone.syms[n].values)
            values[c] = values[c] + 1
            syms = alone.syms[:n] + (ClassFunction(f.data, values),) + alone.syms[n + 1:]
            assert route_verdict(with_syms(alone, syms)) == route_verdict(
                with_syms(shared, syms)) != "ok"


@settings(deadline=None, max_examples=60)
@given(class_function())
@example(("character", S3, ClassFunction.constant(S3.classes, 0)))
@example(("rational-combination", S3, (S3.irreducibles[0] + S3.irreducibles[1]) * Fraction(1, 2)))
@example(("arbitrary", D10, ClassFunction(D10.classes, [2, 2, 2, Cyclotomic.root_of_unity(5)])))
def test_genfun_rationals_reject_what_the_lambda_vanishing_oracle_rejects(kf):
    # every form that is not rejected expands to the series of its column
    _, table, f = kf
    if f.values[0].is_rational() and f.values[0].to_rational() in range(0, 9):
        js = range(len(table.labels))
        rejected = outcome(reference_char_polys, f)[0] == "InvalidCharacterError"
        for op in (SYM, EXT):
            if rejected:
                with pytest.raises(InvalidCharacterError):
                    genfun_rationals(f, table, js, op)
            else:
                forms = genfun_rationals(f, table, js, op)
                assert [rf.series(15) for rf in forms] == [
                    genfun_series(f, table, j, op, 15) for j in js
                ]


@settings(deadline=None, max_examples=80)
@given(class_function())
def test_decompose_matches_the_class_sums(kf):
    _, table, f = kf
    assert outcome(decompose, f, table) == outcome(reference_decompose, f, table)


def test_identity_value_outside_its_stabilizers_fixed_field():
    # f = (zeta_3, 0, ..., 0) on Hp:3 passes the image check on the orbit of
    # C(2), but psi^3 at C(2) reads f(e), which sigma_2 moves: so the whole
    # function must go class by class, not only the orbit of the identity
    table = get_group("Hp", 3)
    cd = table.classes
    f = ClassFunction(cd, [Cyclotomic.root_of_unity(3)] + [0] * (cd.class_count - 1))
    assert cd.galois_orbits(f.values) is not cd.rational_classes()[0]
    seq = LambdaSequence.compute(f, 6)
    lams, syms = reference_columns(f, 6)
    for c in range(cd.class_count):
        assert same([seq.lambdas[n].values[c] for n in range(7)], lams[c])
        assert same([seq.syms[n].values[c] for n in range(7)], syms[c])
    power_sum_check(seq)
    assert outcome(decompose, f, table) == outcome(reference_decompose, f, table)


def test_rows_that_are_not_galois_compatible_decompose_as_the_reference():
    # A4 with an identity 5-power map: sigma_5 swaps w and w^2, so chi2 and
    # chi3 are incompatible, and the trace weights run over every class
    table = a4_with_an_identity_5_power_map()
    cd = table.classes
    assert cd.galois_orbits(table.irreducibles[1].values) is not cd.rational_classes()[0]
    chi4, w = table.irreducibles[3], Cyclotomic.root_of_unity(3)
    for chi in table.irreducibles:
        for f in (chi * 2 + chi4, chi * w):
            assert outcome(decompose, f, table) == outcome(reference_decompose, f, table)
    assert decompose(table.irreducibles[1] * 2 + chi4, table) == (0, 2, 0, 1)


def test_incompatible_rows_decompose_a_rational_combination_without_inner_products(monkeypatch):
    # the A4 table above: the per-class trace candidate is <chi_j, f> itself
    # when that is rational, so the certificate passes at once
    table = a4_with_an_identity_5_power_map()
    cd = table.classes
    monkeypatch.setattr(groupdata, "inner_product", None)  # any call raises TypeError
    chi1, chi2, chi3, chi4 = table.irreducibles
    f = chi1 * Fraction(1, 2) + chi2 * 3 + chi3 * 3 - chi4
    assert decompose(f, table) == (Fraction(1, 2), 3, 3, -1)
    assert table._packed.trace_weights(table)[1] == list(range(cd.class_count))
    with pytest.raises(TypeError):  # a failed certificate words its error by inner products
        decompose(chi2 * Cyclotomic.root_of_unity(3), table)


@pytest.mark.parametrize(
    "family, param, classes, orbits",
    [("D2n", 50, 28, 8), ("Q4n", 25, 28, 7), ("Hp", 5, 29, 8), ("Hp", 7, 55, 10),
     ("A5", None, 5, 4), ("S4", None, 5, 5)],
)
def test_rational_classes_of_the_builtins(family, param, classes, orbits):
    table = get_group(family, param)
    cd = table.classes
    orbit, stabs = cd.rational_classes()
    assert cd.class_count == classes and sorted(stabs) == [c for c, (r, _) in enumerate(orbit) if r == c]
    assert len(stabs) == orbits
    for c, (r, u) in enumerate(orbit):
        assert r <= c and gcd(u, cd.exponent) == 1 and cd.power_map(u)[r] == c
    # the generators span every unit that fixes the representative
    for r, gens in stabs.items():
        span = {1 % cd.exponent}
        for _ in range(cd.exponent):
            span |= {x * s % cd.exponent for x in span for s in gens}
        fixing = {u % cd.exponent for u in range(1, cd.exponent + 1)
                  if gcd(u, cd.exponent) == 1 and cd.power_map(u)[r] == r}
        assert span == fixing
    assert all(cd.galois_orbits(chi.values) is orbit for chi in table.irreducibles)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 60), st.integers(1, 420), st.integers(1, 200))
def test_unit_lift_is_a_unit_in_the_same_class(m, n, u):
    if gcd(u, gcd(m, n)) == 1:
        v = unit_lift(u, m, n)
        assert v % m == u % m and gcd(v, n) == 1


def test_a_class_function_finds_its_orbit_table_once(monkeypatch):
    # compute reads the table kept on the class function, so each function
    # finds it once however often it is computed; the lambda and S functions
    # of a sequence find their own on their first read
    table = get_group("D2n", 12)
    cd, calls = table.classes, []
    real = groupdata.ClassData.galois_orbits
    monkeypatch.setattr(groupdata.ClassData, "galois_orbits",
                        lambda self, values: calls.append(values) or real(self, values))
    fs = [ClassFunction(cd, chi.values) for chi in table.irreducibles]
    fs.append(ClassFunction(cd, [2, Cyclotomic.root_of_unity(3)] + [0] * (cd.class_count - 2)))
    share = SeriesShare()
    for f in fs:
        for M in (3, 6, 6):
            assert LambdaSequence.compute(f, M, share=share).orbits is f.galois_orbits
    assert calls == [f.values for f in fs]
    seq = LambdaSequence.compute(fs[-1], 4)
    for g in seq.lambdas + seq.syms:
        assert g.galois_orbits == real(cd, g.values)


def eigenvalue_multiplicities(f):
    return f.eigenvalue_multiplicities


def assert_the_eigenvalues_give_the_values(f, ms):
    # sum_a m_a = f(e), and sum_a m_a zeta_o^(as) = f(c^s) at every s
    cd = f.data
    for c, m in ms.items():
        o = cd.rep_orders[c]
        assert len(m) == o and sum(m) == f.values[0]
        for s in range(o):
            value = Cyclotomic.from_terms(o, [(a * s, x) for a, x in enumerate(m) if x])
            assert value == f.values[cd.power_map(s)[c]]


@settings(deadline=None, max_examples=150)
@given(class_function())
@example(("perturbed", S3, ClassFunction(S3.classes, [2, 1, -1])))
@example(("virtual", D10, D10.irreducibles[2] - D10.irreducibles[3]))
def test_eigenvalue_multiplicities_match_the_per_class_sums(kf):
    _, _, f = kf
    got = outcome(eigenvalue_multiplicities, f)
    assert got == outcome(reference_eigenvalue_multiplicities, f)
    if got[0] == "ok":
        assert_the_eigenvalues_give_the_values(f, got[1])


EIGEN_TABLES = [(family, None) for family in FIXED_FAMILIES] + [
    ("D2n", 5), ("D2n", 8), ("D2n", 50), ("Q4n", 3), ("Q4n", 25), ("Hp", 3), ("Hp", 7), ("Hp", 11)]


@pytest.mark.parametrize("family, param", EIGEN_TABLES)
def test_builtin_characters_take_the_trace_route_to_the_reference_values(
        family, param, monkeypatch):
    # each irreducible also with its irrational values lifted to the exponent,
    # which stays compatible and puts f(c^g) at an order N above o/g; the
    # trace candidate is exact for a compatible f, so nothing rebuilds f
    table = get_group(family, param)
    cd = table.classes
    monkeypatch.setattr(groupdata, "_rebuilds", None)  # a call raises TypeError
    lifted = [[v if v.is_rational() else v.lift(cd.exponent) for v in chi.values]
              for chi in table.irreducibles]
    for values in (*(chi.values for chi in table.irreducibles), *lifted,
                   regular_character(cd).values):
        f = ClassFunction(cd, values)  # nothing kept from an earlier read
        ms = f.eigenvalue_multiplicities
        assert ms == reference_eigenvalue_multiplicities(f)
        assert_the_eigenvalues_give_the_values(f, ms)


def test_incompatible_characters_rebuild_f_once_per_rational_class(tmp_path, monkeypatch):
    # the A4 plant and the cyclic group stored at twice its exponent: their
    # irrational rows are not Galois compatible, so each trace candidate must
    # rebuild f on the cyclic subgroup of every rational class
    path = tmp_path / "c40r80.json"
    path.write_text(json.dumps(cyclic_spec(40, 80)))
    c40r80 = load_group_spec(str(path)).table
    a4 = a4_with_an_identity_5_power_map()
    calls, real = [], groupdata._rebuilds
    monkeypatch.setattr(groupdata, "_rebuilds",
                        lambda f, c, ms: calls.append((f, c)) or real(f, c, ms))
    irrational = [f for f in c40r80.irreducibles if not all(v.is_rational() for v in f.values)]
    assert len(irrational) == 38
    fs = [*irrational, a4.irreducibles[1], a4.irreducibles[2]]
    for f in fs:
        assert f.galois_orbits is not f.data.rational_classes()[0]
        calls.clear()
        assert f.eigenvalue_multiplicities == reference_eigenvalue_multiplicities(f)
        assert calls == [(f, c) for c in f.data.rational_classes()[1]]
    # c40r80's chi2 is the faithful linear character: zeta_40 once at g1
    assert c40r80.irreducibles[1].eigenvalue_multiplicities[1] == (0, 1) + (0,) * 38


def test_an_integral_trace_candidate_that_does_not_rebuild_f_is_rejected():
    # on A4, f = (1, 1, w, w) is no character of <C3>: its trace candidate
    # there, one eigenvalue w, is integral but gives f(C3^2) = w^2, not w
    a4 = get_group("A4")
    w = Cyclotomic.root_of_unity(3)
    f = ClassFunction(a4.classes, [1, 1, w, w])
    assert groupdata._multiplicities_by_traces(f, 2) == (0, 1, 0)
    message = "chi is no character of the cyclic subgroup of class C3"
    with pytest.raises(InvalidCharacterError) as exc:
        f.eigenvalue_multiplicities
    assert str(exc.value) == message
    assert outcome(reference_eigenvalue_multiplicities, f) == ("InvalidCharacterError", message)


def test_eigenvalue_multiplicities_are_read_once_per_class_function(monkeypatch):
    table, calls = get_group("D2n", 8), []
    real = groupdata._multiplicities_by_traces
    monkeypatch.setattr(groupdata, "_multiplicities_by_traces",
                        lambda f, c: calls.append(c) or real(f, c))
    chi = ClassFunction(table.classes, table.irreducibles[4].values)
    first = chi.eigenvalue_multiplicities
    assert chi.eigenvalue_multiplicities is first
    assert calls == list(table.classes.rational_classes()[1])
    assert lambdaops.InvalidCharacterError is groupdata.InvalidCharacterError
