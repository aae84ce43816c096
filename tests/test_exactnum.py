import random
import threading
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from symext.exactnum import (
    Cyclotomic,
    NotRationalError,
    _power_rows,
    binom,
    cyclotomic_polynomial,
    divisors,
    fold,
    moebius,
    prime_factors,
    primes_below,
    totient,
)


def zeta(n, e=1):
    return Cyclotomic.root_of_unity(n, e)


def test_helpers():
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert totient(1) == 1 and totient(12) == 4 and totient(30) == 8
    assert moebius(1) == 1 and moebius(6) == 1 and moebius(30) == -1
    assert moebius(4) == 0
    assert primes_below(12) == [2, 3, 5, 7, 11]
    assert binom(6, 2) == 15
    assert binom(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom(3, 5) == 0


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_the_cyclotomic_polynomials_of_the_divisors_multiply_to_x_n_minus_1():
    for n in range(1, 201):
        acc = [1]
        for d in divisors(n):
            acc = _poly_mul(acc, cyclotomic_polynomial(d))
        assert acc == [-1] + [0] * (n - 1) + [1], n


def test_power_rows_are_the_remainders_of_the_powers_mod_phi_n():
    for n in range(1, 61):
        phi, deg = cyclotomic_polynomial(n), totient(n)
        for m in range(n):
            # z^m as a polynomial, reduced by long division by the monic Phi_n
            rem = [0] * m + [1]
            for top in range(m, deg - 1, -1):
                c = rem[top]
                for j, p in enumerate(phi):
                    rem[top - deg + j] -= c * p
            coords = (rem + [0] * deg)[:deg]
            assert _power_rows(n)[m] == tuple((j, x) for j, x in enumerate(coords) if x), (n, m)


def _field_tables(orders):
    out = []
    for n in orders:
        z = Cyclotomic.root_of_unity(n)
        prod = (z + Fraction(1, 3)) * (z**2 - 2)
        out.append((cyclotomic_polynomial(n), tuple(_power_rows(n)), prod.order, prod.num, prod.den))
    return out


def test_the_field_tables_built_cold_in_four_threads_equal_a_single_threaded_build():
    caches = (cyclotomic_polynomial, _power_rows, totient)
    for f in caches:
        f.cache_clear()
    orders = range(1, 121)
    want = _field_tables(orders)
    for f in caches:
        f.cache_clear()
    start, got = threading.Barrier(4), [None] * 4

    def build(i):
        start.wait()
        got[i] = _field_tables(orders)

    threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got == [want] * 4


def test_from_terms_examples():
    # 1 + z3 + z3^2 vanishes
    assert Cyclotomic.from_terms(3, [(1, 1), (2, 1)]) == -1
    # the order-7 period sums: a + b = -1 and a*b = 2
    a = Cyclotomic.from_terms(7, [(1, 1), (2, 1), (4, 1)])
    b = Cyclotomic.from_terms(7, [(3, 1), (5, 1), (6, 1)])
    assert a + b == -1
    assert a * b == 2
    # degree-0 embedding
    assert Cyclotomic.from_terms(4, [(0, 5)]) == 5
    assert Cyclotomic.from_terms(4, [(0, 5)]).to_rational() == 5


def test_bad_order():
    with pytest.raises(ValueError):
        Cyclotomic.from_terms(0, [(0, 1)])
    with pytest.raises(ValueError):
        Cyclotomic.root_of_unity(-3)


def test_order5_period_sums():
    a = Cyclotomic.from_terms(5, [(1, 1), (4, 1)])
    b = Cyclotomic.from_terms(5, [(2, 1), (3, 1)])
    assert a + b == -1
    assert a * b == -1


def test_inverse():
    assert zeta(4).inverse() == -zeta(4)
    assert zeta(4).inverse() == zeta(4, 3)
    x = 3 + 2 * zeta(5) - zeta(5, 3)
    assert x * x.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        (zeta(3) - zeta(3)).inverse()


def test_conjugation():
    assert zeta(4).conjugate() == -zeta(4)
    a = Cyclotomic.from_terms(7, [(1, 1), (2, 1), (4, 1)])
    b = Cyclotomic.from_terms(7, [(3, 1), (5, 1), (6, 1)])
    assert a.conjugate() == b and b.conjugate() == a
    q = Cyclotomic.from_rational(Fraction(-7, 3))
    assert q.conjugate() == q
    rng = random.Random(11)
    for _ in range(25):
        n = rng.choice([3, 4, 5, 8, 12])
        x = Cyclotomic.from_terms(n, [(rng.randrange(n), rng.randint(-3, 3)) for _ in range(3)])
        y = Cyclotomic.from_terms(n, [(rng.randrange(n), rng.randint(-3, 3)) for _ in range(3)])
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()


def test_to_rational():
    assert (1 + zeta(3) + zeta(3, 2)).to_rational() == 0
    with pytest.raises(NotRationalError):
        zeta(5).to_rational()


def test_field_axioms_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.choice([3, 4, 5, 6, 7, 8, 9, 12])
        mk = lambda: Cyclotomic.from_terms(
            n, [(rng.randrange(n), Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(3)]
        )
        x, y, z = mk(), mk(), mk()
        assert (x * y) * z == x * (y * z)
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        if not x.is_zero():
            assert x * x.inverse() == 1


def test_lift_round_trip():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.choice([2, 3, 4, 5, 6])
        k = rng.choice([2, 3, 5])
        x = Cyclotomic.from_terms(n, [(rng.randrange(n), rng.randint(-3, 3)) for _ in range(3)])
        assert x.lift(n * k) == x
        assert x.lift(n * k) + 0 == x
    # mixed-order arithmetic agrees with same-order arithmetic
    assert zeta(2) + zeta(3) == zeta(6, 3) + zeta(6, 2)


def test_primitive_root_sums_are_moebius():
    for n in range(1, 31):
        total = Cyclotomic.from_rational(0)
        for e in range(n):
            if gcd(e, n) == 1:
                total = total + zeta(n, e)
        assert total == moebius(n), n


def test_galois_action():
    x = zeta(5) + 3
    assert x.galois(2) == zeta(5, 2) + 3
    with pytest.raises(ValueError):
        zeta(6).galois(3)


def structure(v):
    return v.order, v.num, v.den


@given(st.integers(1, 120), st.data())
def test_galois_is_the_folded_power_map_at_every_unit(n, data):
    # the cached coordinate table gives the normalized fold of x_i z^(i u) at
    # u, at u above the order and at a negative u of the same class, and
    # sigma_u after sigma_w is sigma_(u w)
    phi = totient(n)
    draw = data.draw
    v = Cyclotomic._raw(n, draw(st.lists(st.integers(-60, 60), min_size=phi, max_size=phi)),
                        draw(st.integers(1, 36)))
    k = draw(st.integers(1, 5))
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    w = draw(st.sampled_from(units))
    for u in units:
        want = Cyclotomic._raw(n, fold(((i * u, x) for i, x in enumerate(v.num)), n), v.den)
        for image in (v.galois(u), v.galois(u + k * n), v.galois(u - (k + 1) * n)):
            assert structure(image) == structure(want)
        assert structure(v.galois(u).galois(w)) == structure(v.galois(u * w))


def test_power_and_division():
    assert zeta(5) ** 5 == 1
    assert zeta(5) ** -1 == zeta(5, 4)
    assert (2 * zeta(3)) / 2 == zeta(3)
    assert 1 / zeta(8) == zeta(8, 7)


def test_repr_readable():
    assert repr(Cyclotomic.from_rational(Fraction(3, 2))) == "3/2"
    assert "z4" in repr(zeta(4))


@given(st.integers())
@example(0)
@example(1)
@example(-1)
@example(2**100)
@example(-(2**100))
def test_from_rational_of_an_int_matches_the_fraction_path(q):
    a, b = Cyclotomic.from_rational(q), Cyclotomic.from_rational(Fraction(q))
    assert (a.order, a.num, a.den) == (b.order, b.num, b.den)


def test_from_rational_of_a_bool_stores_an_int():
    v = Cyclotomic.from_rational(True)
    assert (v.order, v.num, v.den) == (1, (1,), 1)
    assert type(v.num[0]) is int


@pytest.mark.parametrize("other", [1.5, "x"])
def test_reflected_operators_name_an_operand_that_is_not_rational(other):
    # the reflected operator gives way, so Python names the operator and both types
    z = zeta(5) + 2
    for op, apply in [("-", lambda a, b: a - b), ("/", lambda a, b: a / b)]:
        message = f"unsupported operand type(s) for {op}: '{type(other).__name__}' and 'Cyclotomic'"
        with pytest.raises(TypeError) as info:
            apply(other, z)
        assert str(info.value) == message


@given(st.integers(0, 12), st.sampled_from([1, 2, 4, 50]),
       st.fractions(-5, 5, max_denominator=7))
@example(0, 50, Fraction(0))
@example(3, 50, Fraction(0))
@example(0, 4, Fraction(-2, 3))
def test_a_power_of_a_rational_is_repeated_multiplication(n, order, q):
    v = Cyclotomic(order, [q] + [0] * (totient(order) - 1))
    want = Cyclotomic.from_rational(1)
    for _ in range(n):
        want = want * v
    got = v ** n
    assert (got.order, got.num, got.den) == (want.order, want.num, want.den)
    if q:
        inv = v ** -n
        assert inv * got == 1 and inv.order == got.order


def test_equality_reads_the_denominator_at_one_order_and_lifts_across_orders():
    # same order and the same coordinates over another denominator: unequal
    for a, b in [(Cyclotomic.from_rational(1), Cyclotomic.from_rational(Fraction(1, 2))),
                 (zeta(5), zeta(5) / 2)]:
        assert a.order == b.order and a.num == b.num and a.den != b.den
        assert a != b and b != a
    # one value at two orders: equal both ways, and a denominator still tells
    q = Cyclotomic.from_rational(Fraction(-3, 7))
    for a, b in [(q, q.lift(50)), (zeta(5), zeta(5).lift(10)), (zeta(5), zeta(10, 2))]:
        assert a.order != b.order
        assert a == b and b == a
    assert zeta(5) != (zeta(5) / 2).lift(10) and (zeta(5) / 2).lift(10) != zeta(5)
