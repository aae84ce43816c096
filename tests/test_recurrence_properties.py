"""Property tests of the per-class recurrences in lambdaops.

``_scalar_lambdas`` (psi -> lambda), ``_scalar_syms`` (lambda -> S) and
``_scalar_power_sums`` (psi -> S, the route of ``power_sum_check``) run in
one integer engine.  They are compared here with the plain
Cyclotomic-arithmetic loops kept below as the reference: the value and
``repr`` of every lambda^n and S^n, the order it is stored at (order 1 if it
is rational, else the working order of the given values), and the verdict of
the power-sum check with the degree and class it names.  The inputs are
characters, virtual characters, psi-sequences of eigenvalues at the working
orders 1, 3, 4, 5, 6, 7, 20 and 50, rational values with denominators (psi =
(q, 0, 0, ...), the Hp:7 central character times 1/7 and 8/7), rational
values stored at high orders, values of mixed orders, and coordinates at the
edge of the packed slot width.  The power-sum check runs its route at most
once per rational class and once per distinct psi-sequence; the
deterministic tests at the end move S^n at every other class, and at
classes whose share entry was already compared, and count the routes it
runs.  ``compute`` keys each class once, by its psi-sequence with
each rational by value, and ``syms`` and ``power_sum_check`` key none.
"""

import dataclasses
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import with_syms
from symext import catalog, lambdaops
from symext.catalog import get_group
from symext.closedforms import central_forms
from symext.exactnum import Cyclotomic, as_cyclotomic, divisors, totient
from symext.groupdata import ClassData, ClassFunction, adams
from symext.lambdaops import (
    CrossCheckError,
    LambdaSequence,
    SeriesShare,
    _scalar_lambdas,
    _scalar_power_sums,
    _scalar_syms,
    power_sum_check,
)


def reference_lambdas(psi, M):
    """n*lambda^n = sum (-1)^(n+1+i) lambda^i psi^(n-i) over the nonzero lambda^i."""
    lam = [as_cyclotomic(1)]
    support = [0]
    for n in range(1, M + 1):
        acc = as_cyclotomic(0)
        for i in support:
            term = lam[i] * psi[n - i]
            acc = acc + term if i % 2 == 0 else acc - term
        sign = 1 if (n + 1) % 2 == 0 else -1
        lam.append(acc * Fraction(sign, n) if sign < 0 else acc / n)
        if not lam[n].is_zero():
            support.append(n)
    return lam


def reference_syms(lam, M):
    """S^n = sum (-1)^(j+1) lambda^j S^(n-j) over the nonzero lambda^j, j >= 1."""
    syms = [as_cyclotomic(1)]
    for n in range(1, M + 1):
        acc = as_cyclotomic(0)
        for j in range(1, n + 1):
            if j < len(lam) and not lam[j].is_zero():
                term = lam[j] * syms[n - j]
                acc = acc + term if j % 2 == 1 else acc - term
        syms.append(acc)
    return syms


def reference_power_sums(psi, M):
    """h^0..h^M by n*h^n = sum psi^i h^(n-i)."""
    h = [as_cyclotomic(1)]
    for n in range(1, M + 1):
        acc = as_cyclotomic(0)
        for i in range(1, n + 1):
            acc = acc + psi[i] * h[n - i]
        h.append(acc / n)
    return h


def reference_routes(seq):
    """h^0..h^M per class by n*h^n = sum psi^i h^(n-i), from psi alone."""
    M = seq.degree_bound
    return [reference_power_sums([None] + [adams(seq.base, n).values[c] for n in range(1, M + 1)], M)
            for c in range(seq.base.data.class_count)]


def reference_power_sum_check(seq, routes=None):
    """The power-sum route at every class, compared with the lambda route;
    ``routes`` is ``reference_routes`` of ``seq`` or of a sequence with its psi."""
    cd = seq.base.data
    for c, h in enumerate(routes or reference_routes(seq)):
        for n in range(1, seq.degree_bound + 1):
            if h[n] != seq.syms[n].values[c]:
                raise CrossCheckError(
                    f"S^{n} at class {cd.names[c]}: the power-sum route gives "
                    f"{h[n]!r}, the lambda route {seq.syms[n].values[c]!r}"
                )


def verdict(check, seq):
    """"ok", or the degree and class a failed check names ("S^n at class c")."""
    try:
        check(seq)
        return "ok"
    except CrossCheckError as exc:
        return str(exc).split(":")[0]


def same(got, want, given):
    """Equal values, each stored at order 1 if it is rational, else at the
    working order of ``given``: the lcm of the orders of its irrational
    values past given[0]."""
    n = lcm(1, *(v.order for v in given[1:] if not v.is_rational()))
    return len(got) == len(want) and all(
        a == b and a.order == (1 if a.is_rational() else n) for a, b in zip(got, want)
    )


def psi_at(f, c, M):
    return [None] + [f.values[f.data.power_map(n)[c]] for n in range(1, M + 1)]


TABLES = [("S3", None), ("D2n", 5), ("D2n", 6), ("D2n", 8), ("Q4n", 3), ("Q4n", 5), ("Hp", 3)]


def rational_at(q, n):
    """The rational q stored at order n, as Cyclotomic arithmetic may leave it."""
    return Cyclotomic(n, [q] + [0] * (totient(n) - 1))


@st.composite
def mixed_value(draw, exponent):
    n = draw(st.sampled_from(divisors(exponent) + [2 * exponent]))
    coords = draw(st.lists(st.integers(-3, 3), min_size=totient(n), max_size=totient(n)))
    den = draw(st.sampled_from([1, 1, 2, 3]))
    return Cyclotomic(n, [Fraction(x, den) for x in coords])


@st.composite
def class_function(draw):
    """(kind, table, f) for a class function of one of six kinds."""
    table = get_group(*draw(st.sampled_from(TABLES)))
    cd, k = table.classes, table.classes.class_count
    kind = draw(st.sampled_from(
        ["character", "virtual", "rational", "rational-high-order", "mixed", "mixed-small"]
    ))
    if kind in ("character", "virtual"):
        lo = 0 if kind == "character" else -2
        coeffs = draw(st.lists(st.integers(lo, 2), min_size=k, max_size=k))
        f = ClassFunction.constant(cd, 0)
        for q, chi in zip(coeffs, table.irreducibles):
            f = f + chi * q
    elif kind == "rational":
        f = ClassFunction(cd, draw(st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=5), min_size=k, max_size=k
        )))
    elif kind == "rational-high-order":
        n = draw(st.sampled_from([cd.exponent, 2 * cd.exponent, 4 * cd.exponent]))
        qs = draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=k, max_size=k))
        f = ClassFunction(cd, [rational_at(q, n) if i % 2 else q for i, q in enumerate(qs)])
    else:
        # values of different orders; "mixed-small" keeps most of them rational
        values = [draw(mixed_value(cd.exponent)) for _ in range(k)]
        if kind == "mixed-small":
            values = [v if draw(st.booleans()) else as_cyclotomic(draw(st.integers(-2, 2)))
                      for v in values]
        f = ClassFunction(cd, values)
    return kind, table, f


@settings(deadline=None, max_examples=120)
@given(class_function(), st.integers(0, 9))
def test_lambdas_and_syms_match_the_cyclotomic_loops(kf, M):
    _, _, f = kf
    for c in range(f.data.class_count):
        psi = psi_at(f, c, M)
        lam = _scalar_lambdas(psi, M)
        assert same(lam, reference_lambdas(psi, M), psi)
        assert same(_scalar_syms(lam, M), reference_syms(lam, M), lam)
        # a lambda list longer or shorter than M, as char_poly gives it
        short = lam[: max(1, M // 2)]
        assert same(_scalar_syms(short, M), reference_syms(short, M), short)


def hp7_central_psi(scale, c, M):
    """psi at class c of scale times the Hp:7 central character (zeta_1
    extended by zero, times 7)."""
    ctx = catalog._builtin_context("Hp", 7)
    return psi_at(central_forms(ctx.classes, ctx.central["zeta_1"]).character() * scale, c, M)


@st.composite
def engine_psi(draw):
    """(psi, M): the psi-sequence of a (virtual) character with eigenvalues
    roots of unity of order N, its values at the working order N (1 for N <=
    2, or for a rational multiset at N = 3, 4 or 6, whose values are rationals
    stored at order N) and each distinct value one object; perhaps scaled by a
    non-integral rational.  Or psi = (q, 0, 0, ...), with lambda^n = q^n/n!,
    or psi at a class of the Hp:7 central character times 1/7 or 8/7."""
    kind = draw(st.sampled_from(["eigen", "eigen", "eigen", "delta", "hp7"]))
    if kind == "delta":
        M = draw(st.integers(0, 30))
        q = as_cyclotomic(draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 5)])))
        return [None, q] + [as_cyclotomic(0)] * (M - 1), M
    if kind == "hp7":
        M = draw(st.integers(0, 30))
        scale = draw(st.sampled_from([Fraction(1, 7), Fraction(8, 7)]))
        return hp7_central_psi(scale, draw(st.integers(0, 54)), M), M
    N = draw(st.sampled_from([1, 2, 3, 4, 6, 5, 5, 7, 7, 20, 20, 50, 50]))
    plus = draw(st.lists(st.integers(0, N - 1), max_size=5))
    minus = draw(st.lists(st.integers(0, N - 1), max_size=2))
    if N in (3, 4, 6):
        plus, minus = plus + [-a % N for a in plus], minus + [-a % N for a in minus]
    scale = draw(st.sampled_from([1, 1, 1, -1, Fraction(1, 2), Fraction(8, 7)]))
    M = draw(st.integers(0, min(3 * N + 3, 40)))
    zero, base = as_cyclotomic(0), []
    for m in range(1, N + 1):
        v = sum((Cyclotomic.root_of_unity(N, a * m) for a in plus), zero)
        base.append((v - sum((Cyclotomic.root_of_unity(N, a * m) for a in minus), zero)) * scale)
    return [None] + [base[(m - 1) % N] for m in range(1, M + 1)], M


def matches(got, want, given):
    """``same``, and equal ``repr`` value by value."""
    return same(got, want, given) and list(map(repr, got)) == list(map(repr, want))


@settings(deadline=None, max_examples=200)
@given(engine_psi())
def test_each_route_matches_its_cyclotomic_loop_by_repr_and_order(case):
    psi, M = case
    lam = _scalar_lambdas(psi, M)
    assert matches(lam, reference_lambdas(psi, M), psi)
    assert matches(_scalar_syms(lam, M), reference_syms(reference_lambdas(psi, M), M), lam)
    assert matches(_scalar_power_sums(psi, M), reference_power_sums(psi, M), psi)


def test_the_denominator_of_a_route_grows_at_order_1_and_above():
    # psi = (1, 0, 0, ...) has lambda^n = 1/n!
    psi = [None, as_cyclotomic(1)] + [as_cyclotomic(0)] * 9
    lam = _scalar_lambdas(psi, 10)
    assert lam[2] == Fraction(1, 2) and lam[10] == Fraction(1, 3628800)
    assert matches(lam, reference_lambdas(psi, 10), psi)
    # off the centre, the 1/7 central character has lambda_t = (1 + t^7)^(1/7)
    psi = hp7_central_psi(Fraction(1, 7), 7, 14)
    lam = _scalar_lambdas(psi, 14)
    assert (lam[7], lam[14]) == (Fraction(1, 7), Fraction(-3, 49))
    assert matches(lam, reference_lambdas(psi, 14), psi)
    # psi^m = z^m / 2 at order 5: lambda^2 = -z^2 / 8
    z = Cyclotomic.root_of_unity(5)
    psi = [None] + [z**m / 2 for m in range(1, 7)]
    lam = _scalar_lambdas(psi, 6)
    assert lam[2] == -(z**2) / 8 and lam[2].order == 5
    assert matches(lam, reference_lambdas(psi, 6), psi)
    assert matches(_scalar_power_sums(psi, 6), reference_power_sums(psi, 6), psi)


@settings(deadline=None, max_examples=60)
@given(class_function(), st.integers(1, 8), st.data())
def test_power_sum_check_gives_the_verdict_of_the_cyclotomic_loop(kf, M, data):
    _, _, f = kf
    seq = LambdaSequence.compute(f, M)
    assert verdict(power_sum_check, seq) == "ok" == verdict(reference_power_sum_check, seq)
    # one S^n moved at one class, by a rational or by a root of unity
    n = data.draw(st.integers(1, M))
    c = data.draw(st.integers(0, f.data.class_count - 1))
    delta = data.draw(st.sampled_from(
        [as_cyclotomic(1), Cyclotomic.root_of_unity(f.data.exponent), rational_at(2, 12)]
    ))
    values = list(seq.syms[n].values)
    values[c] = values[c] + delta
    syms = list(seq.syms)
    syms[n] = ClassFunction(f.data, values)
    bad = with_syms(seq, syms)
    got = verdict(power_sum_check, bad)
    assert got != "ok" and got == verdict(reference_power_sum_check, bad)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12, 20]), st.integers(1, 4), st.data())
def test_lift_moves_a_value_up_to_a_multiple_order(m, k, data):
    n = data.draw(st.sampled_from(divisors(m)))
    coords = data.draw(st.lists(st.integers(-5, 5), min_size=totient(n), max_size=totient(n)))
    v = Cyclotomic(n, coords)
    up = v.lift(m * k)
    assert up == v and up.order == m * k
    for d in divisors(m * k):
        if d % n == 0:
            mid = v.lift(d)
            assert mid.order == d and (mid.lift(m * k).num, mid.lift(m * k).den) == (up.num, up.den)
        if d < m * k:
            with pytest.raises(ValueError):
                up.lift(d)


def cyclic3():
    """Class data of the cyclic group of order 3."""
    return ClassData(3, 3, ["1", "a", "a2"], [1, 1, 1], [1, 3, 3], [0, 2, 1],
                     {2: [0, 2, 1], 3: [0, 0, 0]})


def test_slot_width_boundary():
    # psi = u, -u, u with u = (q-1)/q: the third psi -> lambda step is
    # 1*psi^3 + lambda^1*psi^2 + lambda^2*psi^1 (signs folded in), three
    # terms of one sign, over the denominators q^2 (lambda) and q (psi); at
    # order 1 it is one sum of plain ints, about 3*q^3 > 2^127
    q = 2**42 - 1
    u = Fraction(q - 1, q)
    psi = [None] + [as_cyclotomic(x) for x in (u, -u, u)]
    assert same(_scalar_lambdas(psi, 3), reference_lambdas(psi, 3), psi)
    # psi = v, v, v with v = +-u(1 + z) in Q(zeta_3), now q = 2^63 - 1: over
    # their denominators the coordinates have 63 bits (psi) and 126 (lambda^2
    # and the power sum h^2), so the bound of the third step is 63 + 126 +
    # bits(3 * phi(3)) + 1 = 193 bits, a 256-bit slot, and the top slot of the
    # sum has 192 bits (of h^3 at +, of lambda^3 at -): a bound one bit lower
    # gives 192-bit slots, which overflow
    q = 2**63 - 1
    for sign in (1, -1):
        v = Cyclotomic(3, [Fraction(sign * (q - 1), q)] * 2)
        psi = [None, v, v, v]
        assert same(_scalar_lambdas(psi, 3), reference_lambdas(psi, 3), psi)
        assert same(_scalar_power_sums(psi, 3), reference_power_sums(psi, 3), psi)
    # on Q(zeta_3), 31-bit coordinates move every recurrence past 64-bit slots
    x, y = 2**31 - 1, 2**30 + 1
    f = ClassFunction(cyclic3(), [2, Cyclotomic(3, [x, x]), Cyclotomic(3, [y, -x])])
    for c in range(3):
        psi = psi_at(f, c, 6)
        lam = _scalar_lambdas(psi, 6)
        assert same(lam, reference_lambdas(psi, 6), psi)
        assert same(_scalar_syms(lam, 6), reference_syms(lam, 6), lam)
    seq = LambdaSequence.compute(f, 6)
    assert verdict(power_sum_check, seq) == "ok" == verdict(reference_power_sum_check, seq)


def moved(seq, n, c, delta):
    """``seq`` with S^n at class c moved by delta."""
    values = list(seq.syms[n].values)
    values[c] = values[c] + delta
    syms = list(seq.syms)
    syms[n] = ClassFunction(seq.base.data, values)
    return with_syms(seq, syms)


@pytest.mark.parametrize("family, param", [("D2n", 12), ("Q4n", 7), ("Hp", 5)])
def test_power_sum_check_compares_every_non_representative_class(family, param):
    # the route runs at the orbit representatives only; every other class is
    # compared with a Galois image, so a move there is still caught there
    table = get_group(family, param)
    cd, M = table.classes, 4
    deltas = [as_cyclotomic(1), Cyclotomic.root_of_unity(cd.exponent)]
    for chi in table.irreducibles:
        seq = LambdaSequence.compute(chi, M)
        routes = reference_routes(seq)
        reference = lambda s: reference_power_sum_check(s, routes)
        for c, (r, _) in enumerate(cd.galois_orbits(chi.values)):
            if r == c:
                continue
            for n in range(1, M + 1):
                for delta in deltas:
                    bad = moved(seq, n, c, delta)
                    got = verdict(power_sum_check, bad)
                    assert got == f"S^{n} at class {cd.names[c]}"
                    assert got == verdict(reference, bad)


def test_power_sum_check_of_an_incompatible_function_runs_at_every_class():
    # on D2n:5, C2 is C1^3, and f(C2) is not sigma_3(f(C1))
    cd = get_group("D2n", 5).classes
    z = Cyclotomic.root_of_unity(5)
    f = ClassFunction(cd, [2, z + z**4, z + z**4, 0])
    assert cd.galois_orbits(f.values) == tuple((c, 1) for c in range(4))
    seq = LambdaSequence.compute(f, 5)
    assert verdict(power_sum_check, seq) == "ok" == verdict(reference_power_sum_check, seq)
    for n in range(1, 6):
        bad = moved(seq, n, 2, as_cyclotomic(1))
        assert verdict(power_sum_check, bad) == f"S^{n} at class C2"
        assert verdict(reference_power_sum_check, bad) == f"S^{n} at class C2"


def psi_sequence(seq, c):
    psi = (adams(seq.base, n).values[c] for n in range(1, seq.degree_bound + 1))
    return tuple((v.order, v.num, v.den) for v in psi)


def test_power_sum_check_runs_its_route_once_per_rational_class(monkeypatch):
    # D2n:50: 28 classes in 8 rational classes, every irreducible compatible;
    # the route runs at a representative whose psi-sequence no earlier class
    # had, in this character alone or, with one share, in any earlier one
    table = get_group("D2n", 50)
    real, calls = lambdaops._recurrence, []
    monkeypatch.setattr(lambdaops, "_recurrence", lambda *a, **k: calls.append(1) or real(*a, **k))
    share, seen_shared, shared_runs = SeriesShare(), set(), 0
    for chi in table.irreducibles:
        seq, shared = LambdaSequence.compute(chi, 6), LambdaSequence.compute(chi, 6, share=share)
        seq.syms, shared.syms  # the S routes run here, not in the counts below
        runs, seen = 0, set()
        for c, (r, _) in enumerate(seq.orbits):
            key = psi_sequence(seq, c)
            runs += r == c and key not in seen
            shared_runs += r == c and key not in seen_shared
            seen.add(key)
            seen_shared.add(key)
        calls.clear()
        power_sum_check(seq)
        assert len(calls) == runs <= 8
        calls.clear()
        power_sum_check(shared)
        shared_runs -= len(calls)
    assert shared_runs == 0
    # the trivial character has one psi-sequence at all 28 classes
    seq = LambdaSequence.compute(table.irreducibles[0], 6)
    seq.syms
    calls.clear()
    power_sum_check(seq)
    assert len(calls) == 1


def test_each_compute_keys_its_classes_once_and_the_reads_key_none(monkeypatch):
    # syms and power_sum_check read the sequence's entries: they run with no
    # share at all, and every key pass is one compute's
    real, passes = SeriesShare.entries_of, []
    monkeypatch.setattr(SeriesShare, "entries_of", lambda *a: passes.append(1) or real(*a))
    share = SeriesShare()
    for chi in list(get_group("D2n", 5).irreducibles) + list(get_group("Hp", 3).irreducibles):
        for s in (None, share):
            passes.clear()
            seq = LambdaSequence.compute(chi, 6, share=s)
            assert len(passes) == 1
            bare = dataclasses.replace(seq, share=None)
            assert bare.syms == seq.syms and verdict(power_sum_check, bare) == "ok"
            assert len(passes) == 1


def test_a_rational_keys_one_entry_at_any_stored_order():
    # the constant 2 at order 1, at order 6, and at orders 6, 1 and 3 by
    # class: one psi-sequence by value, so one entry whose lambda, S and
    # power-sum series are the references' by repr, at order 1
    cd, M = get_group("S3").classes, 5
    fs = [ClassFunction(cd, vs) for vs in (
        [2] * 3, [Cyclotomic.from_terms(6, [(0, 2)])] * 3, [rational_at(2, 6), 2, rational_at(2, 3)])]
    share = SeriesShare()
    seqs = [LambdaSequence.compute(f, M, share=share) for f in fs]
    assert len(share.entries) == 1
    for seq in seqs:
        power_sum_check(seq)
        for c, (lam, sym, psum) in enumerate(seq.entries):
            psi = psi_at(seq.base, c, M)
            want = reference_lambdas(psi, M)
            assert [g.values[c] for g in seq.lambdas] == lam and matches(lam, want, [None])
            assert [g.values[c] for g in seq.syms] == sym
            assert matches(sym, reference_syms(want, M), [None])
            assert matches(psum, reference_power_sums(psi, M), [None])


def test_a_move_at_a_class_whose_entry_was_compared_is_caught():
    # D2n:50 at M = 6: the trivial character reads one entry at all 28
    # classes, and chi2 reads it again at the rotations.  An entry is compared
    # in full once; a moved S^n is no longer the entry's object, so it is
    # compared in full at its class, in one call, in a later one through the
    # share, and without a share
    table, M, one = get_group("D2n", 50), 6, as_cyclotomic(1)
    names, share = table.classes.names, SeriesShare()
    trivial = LambdaSequence.compute(table.irreducibles[0], M, share=share)
    bad = moved(trivial, 1, 1, one)  # class 0 compares the entry in this call
    assert verdict(power_sum_check, bad) == f"S^1 at class {names[1]}"
    assert verdict(reference_power_sum_check, bad) == f"S^1 at class {names[1]}"
    assert share.compared == {id(trivial.entries[0][1])}
    assert verdict(power_sum_check, trivial) == "ok" and len(share.compared) == 1
    for c, n in ((0, 1), (1, 1), (27, M)):  # the entry is compared before the call
        assert verdict(power_sum_check, moved(trivial, n, c, one)) == f"S^{n} at class {names[c]}"
    chi2 = LambdaSequence.compute(table.irreducibles[1], M, share=share)
    compared = [c for c, e in enumerate(chi2.entries) if id(e[1]) in share.compared]
    assert compared == list(range(26))  # the rotations
    for c in (0, 25):
        for n in (1, M):
            bad = moved(chi2, n, c, Cyclotomic.root_of_unity(50))
            assert verdict(power_sum_check, bad) == f"S^{n} at class {names[c]}"
            assert verdict(reference_power_sum_check, bad) == f"S^{n} at class {names[c]}"
    assert verdict(power_sum_check, chi2) == "ok" and len(share.compared) == 2
    for seq in (trivial, chi2):
        bare = dataclasses.replace(seq, share=None)
        assert verdict(power_sum_check, bare) == "ok"
        for c in (0, 13, 27):
            bad = moved(bare, M, c, one)
            assert bad.share is None
            assert verdict(power_sum_check, bad) == f"S^{M} at class {names[c]}"
