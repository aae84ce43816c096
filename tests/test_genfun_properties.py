"""Property tests of the fraction-free rational-function helpers in genfun.

Each helper is compared with a plain reference kept here: Euclid over
Fraction for ``poly_gcd``, and trial division by 1 - t^a with the generic
``poly_divmod`` for ``factored_denominator``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from symext.genfun import RationalFunction, poly_divmod, poly_gcd, poly_mul


def strip(p):
    p = [Fraction(c) for c in p]
    while p and not p[-1]:
        p.pop()
    return p


def euclid_gcd(a, b):
    """Monic gcd over Q by Euclid's algorithm on Fraction coefficients."""
    a, b = strip(a), strip(b)
    while b:
        while len(a) >= len(b):  # a <- a mod b, one leading term at a time
            c, k = a[-1] / b[-1], len(a) - len(b)
            a = strip([x - c * b[i - k] if i >= k else x for i, x in enumerate(a)])
        a, b = b, a
    return [c / a[-1] for c in a]


def divide_out_one_minus_t_powers(den):
    """(1 - t^a) factors of den by generic trial division, largest a first."""
    rem = list(den)
    factors = []
    a = len(rem) - 1
    while a >= 1 and len(rem) > 1:
        base = [Fraction(1)] + [Fraction(0)] * (a - 1) + [Fraction(-1)]
        if len(base) > len(rem):
            a -= 1
            continue
        q, r = poly_divmod(rem, base)
        if r:
            a -= 1
            continue
        if factors and factors[-1][0] == a:
            factors[-1] = (a, factors[-1][1] + 1)
        else:
            factors.append((a, 1))
        rem = q
    return factors, strip(rem)


coeff = st.fractions(min_value=-6, max_value=6, max_denominator=5)
poly = st.lists(coeff, max_size=7)


@settings(deadline=None)
@given(poly, poly, poly)
def test_poly_gcd_matches_fraction_euclid(common, a, b):
    # a planted common factor; zero, constant and non-monic inputs all occur
    x, y = poly_mul(common, a), poly_mul(common, b)
    want = euclid_gcd(x, y)
    assert poly_gcd(x, y) == want
    assert poly_gcd(y, x) == want
    assert poly_gcd(a + [0], b) == euclid_gcd(a, b)  # untrimmed input


@settings(deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=7), max_size=6),
    st.lists(coeff, max_size=3),
)
def test_factored_denominator_matches_generic_division(powers, extra):
    den = [Fraction(1)]
    for a in powers:
        den = poly_mul(den, [1] + [0] * (a - 1) + [-1])
    den = poly_mul(den, [Fraction(1)] + extra)
    rf = RationalFunction.make([1], den)
    factors, leftover = rf.factored_denominator()
    assert (factors, leftover) == divide_out_one_minus_t_powers(rf.den)
    rebuilt = leftover
    for a, e in factors:
        for _ in range(e):
            rebuilt = poly_mul(rebuilt, [1] + [0] * (a - 1) + [-1])
    assert rebuilt == list(rf.den)
