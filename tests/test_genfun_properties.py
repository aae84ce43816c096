"""Property tests of the canonical rational forms in genfun.

``genfun_rationals`` must return every form in lowest terms with den(0) = 1,
checked with Euclid over Fraction (``oracle_utils.euclid_gcd``).  The display
factoring ``factored_denominator`` is compared with trial division by 1 - t^a
using generic long division over Fraction, and ``_over_molien`` with the
loop that tries every copy of every cyclotomic factor.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symext.catalog import get_group
from symext.exactnum import cyclotomic_polynomial
from symext.genfun import EXT, SYM, RationalFunction, _over_molien, genfun_rationals, poly_mul
from symext.groupdata import regular_character

from oracle_utils import euclid_gcd, long_divmod, reference_over_molien, strip


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
        q, r = long_divmod(rem, base)
        if r:
            a -= 1
            continue
        if factors and factors[-1][0] == a:
            factors[-1] = (a, factors[-1][1] + 1)
        else:
            factors.append((a, 1))
        rem = q
    return factors, strip(rem)


@pytest.mark.parametrize("fam, param", [("S3", None), ("S4", None), ("D2n", 6), ("Hp", 3)])
def test_genfun_rationals_are_in_lowest_terms(fam, param):
    tab = get_group(fam, param)
    js = range(tab.classes.class_count)
    for chi in (regular_character(tab.classes), *tab.irreducibles):
        for op in (SYM, EXT):
            for rf in genfun_rationals(chi, tab, js, op):
                assert rf.den[0] == 1
                assert euclid_gcd(rf.num, rf.den) == [1]


coeff = st.fractions(min_value=-6, max_value=6, max_denominator=12)


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
    rf = RationalFunction((Fraction(1),), tuple(den))
    factors, leftover = rf.factored_denominator()
    assert (factors, leftover) == divide_out_one_minus_t_powers(rf.den)
    rebuilt = leftover
    for a, e in factors:
        for _ in range(e):
            rebuilt = poly_mul(rebuilt, [1] + [0] * (a - 1) + [-1])
    assert rebuilt == list(rf.den)


orders = st.lists(st.integers(min_value=1, max_value=12), max_size=6)


@settings(deadline=None)
@given(orders, orders, orders, st.lists(st.integers(-9, 9), max_size=5), st.integers(1, 12))
def test_over_molien_matches_the_every_copy_loop(shared, planted, extra, cofactor, scale):
    # num carries the shared factors, which the denominator also lists, the
    # planted ones, which it lists only where extra draws them, and a random
    # integer cofactor
    num = cofactor
    for k in shared + planted:
        num = poly_mul(num, cyclotomic_polynomial(k))
    factors = shared + extra
    assert _over_molien(num, factors, scale) == reference_over_molien(num, factors, scale)
