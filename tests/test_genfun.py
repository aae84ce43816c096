import random
from fractions import Fraction

import pytest

from symext import genfun
from symext.catalog import get_group
from symext.exactnum import binom
from symext.genfun import (
    EXT,
    SYM,
    CrossCheckError,
    MultiplicityTable,
    format_poly,
    genfun_rational,
    genfun_rationals,
    genfun_series,
    multiplicity_table,
    poly_mul,
    series_of_rational,
)
from symext.groupdata import (
    NonIntegralMultiplicityError,
    decompose,
    regular_character,
)
from symext.lambdaops import InvalidCharacterError, LambdaSequence

from oracle_utils import random_virtual, ratfun


def onemt(a):
    return [1] + [0] * (a - 1) + [-1]


def RF(num, dens):
    return ratfun(num, [onemt(a) for a in dens])


def test_series_of_rational_examples():
    assert series_of_rational(RF([1], [2, 3]), 10) == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2]
    assert series_of_rational(RF([1], [1]), 4) == [1, 1, 1, 1, 1]
    sixth = ratfun(poly_mul(poly_mul([1, 1], [1, 1]), poly_mul(poly_mul([1, 1], [1, 1]), poly_mul([1, 1], [1, 1]))))
    assert series_of_rational(sixth, 6) == [1, 6, 15, 20, 15, 6, 1]


def test_multiplicity_table_s3():
    s3 = get_group("S3")
    chi3 = s3.character("chi3")
    mt = multiplicity_table(chi3, s3, SYM, 10)
    assert mt.column(0) == (1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2)
    assert mt.column(1) == (0, 0, 0, 1, 0, 1, 1, 1, 1, 2, 1)
    assert mt.column(2) == (0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4)
    ext = multiplicity_table(chi3, s3, EXT, 4)
    assert ext.rows == ((1, 0, 0), (0, 0, 1), (0, 1, 0), (0, 0, 0), (0, 0, 0))


def test_multiplicity_table_regular():
    s3 = get_group("S3")
    pi = regular_character(s3.classes)
    ext = multiplicity_table(pi, s3, EXT, 10)
    assert ext.column(2) == (0, 2, 5, 6, 5, 2, 0, 0, 0, 0, 0)
    sym = multiplicity_table(pi, s3, SYM, 10)
    assert sym.column(2) == (0, 2, 7, 18, 42, 84, 153, 264, 429, 666, 1001)


def test_multiplicity_table_rejects_virtual():
    # certification rejects non-characters, either at the degree bound or at
    # the integrality check
    s3 = get_group("S3")
    virt = s3.character("chi3") - s3.character("chi1")
    with pytest.raises((NonIntegralMultiplicityError, InvalidCharacterError)):
        multiplicity_table(virt, s3, SYM, 3)
    # negative multiplicities with a zero-degree base trip the integrality side
    zero_virt = s3.character("chi2") - s3.character("chi1")
    with pytest.raises((NonIntegralMultiplicityError, InvalidCharacterError)):
        multiplicity_table(zero_virt, s3, SYM, 1)


def test_genfun_series_examples():
    s3 = get_group("S3")
    chi3 = s3.character("chi3")
    got = genfun_series(chi3, s3, 0, SYM, 10, cross_check=True)
    assert got == series_of_rational(RF([1], [2, 3]), 10)
    # S^0 is the trivial character, so the constant term vanishes off chi1
    for j in (1, 2):
        assert genfun_series(chi3, s3, j, SYM, 0)[0] == 0
    assert genfun_series(chi3, s3, 2, EXT, 4) == [0, 1, 0, 0, 0]


def test_genfun_series_matches_table_columns():
    for family, param, label in [("A4", None, "chi4"), ("A5", None, "chi4"),
                                 ("G21", None, "chi5"), ("D2n", 5, "tau1"),
                                 ("Q4n", 3, "tau1"), ("Hp", 3, "tau_1")]:
        table = get_group(family, param)
        chi = table.character(label)
        for op in (SYM, EXT):
            mt = multiplicity_table(chi, table, op, 12)
            for j in range(table.classes.class_count):
                col = list(mt.column(j))
                assert genfun_series(chi, table, j, op, 12) == col
                assert genfun_series(chi, table, j, op, 12, cross_check=True) == col


def test_genfun_series_of_virtual_character():
    # lambda_t of a virtual character does not stop at chi(identity): the
    # series must follow the lambda-ring, not a per-class polynomial of degree 1
    s3 = get_group("S3")
    virt = s3.character("chi3") - s3.character("chi2")
    got = genfun_series(virt, s3, 0, SYM, 5)
    assert got == [1, 0, 1, 1, 0, 1]
    seq = LambdaSequence.compute(virt, 5)
    assert got == [decompose(f, s3)[0] for f in seq.syms]


def test_genfun_rational_examples():
    s3 = get_group("S3")
    chi3 = s3.character("chi3")
    assert genfun_rational(chi3, s3, 2, SYM) == RF([0, 1], [1, 3])
    assert genfun_rational(chi3, s3, 1, SYM) == RF([0, 0, 0, 1], [2, 3])
    chi2 = s3.character("chi2")
    assert genfun_rational(chi2, s3, 0, SYM) == RF([1], [2])
    assert genfun_rational(chi2, s3, 1, SYM) == RF([0, 1], [2])


def test_genfun_rational_rejects_virtual_characters():
    # a virtual character that is no character of some cyclic subgroup has
    # a negative eigenvalue multiplicity there, and no form over the Molien
    # denominator, so genfun_rational must refuse it (genfun_series does not)
    s3 = get_group("S3")
    chi1, chi2, chi3 = (s3.character(f"chi{i}") for i in (1, 2, 3))
    for virt, series in (
        (chi3 - chi2, [1, 0, 1, 1, 0, 1, 1]),
        (chi2 - chi1, [1, -1, 1, -1, 1, -1, 1]),
    ):
        assert genfun_series(virt, s3, 0, SYM, 6) == series
        for op in (SYM, EXT):
            with pytest.raises(InvalidCharacterError):
                genfun_rational(virt, s3, 0, op)
    # degree 4, and lambda^5 vanishes at every class; lambda^6 does not
    d12 = get_group("D2n", 6)
    chi = [d12.character(lbl) for lbl in d12.labels]
    virt = (chi[1] + chi[2] + chi[3]) * 2 - chi[5]
    with pytest.raises(InvalidCharacterError):
        genfun_rational(virt, d12, 0, SYM)


def test_genfun_rational_of_a_character_of_every_cyclic_subgroup():
    # chi1 - chi2 + chi3 = (2, 2, -1) is no character of S3, but it is one
    # of every cyclic subgroup, so its forms exist
    s3 = get_group("S3")
    chi1, chi2, chi3 = (s3.character(f"chi{i}") for i in (1, 2, 3))
    virt = chi1 - chi2 + chi3
    assert genfun_rationals(virt, s3, range(3), SYM) == [
        RF([1, 0, 1], [3, 1]), RF([0, -1], [3, 1]), RF([0, 1], [3, 1])
    ]
    assert str(genfun_rational(virt, s3, 1, SYM)) == "-t / (1-t^3)(1-t)"
    assert genfun_rationals(virt, s3, range(3), EXT) == [
        RF([1, 1, 1], []), RF([0, -1], []), RF([0, 1], [])
    ]


def test_a_denominator_short_of_one_factor_fails_the_certificate(monkeypatch):
    # S3 chi2 has eigenvalue -1 at a transposition; without Phi_2 the column
    # 1, 0, 1, 0, ... is not N/(1 - t), and the coefficient of t^deg D shows it
    s3 = get_group("S3")
    molien_factors = genfun._molien_factors
    monkeypatch.setattr(
        genfun, "_molien_factors", lambda chi: [k for k in molien_factors(chi) if k != 2]
    )
    with pytest.raises(CrossCheckError):
        genfun_rational(s3.character("chi2"), s3, 0, SYM)


def test_a_zero_column_is_the_zero_form_without_a_division(monkeypatch):
    # S^n of a linear character of D2n:50 is its n-th power, so only the
    # columns of the powers are nonzero; the others skip the Phi_k divisions
    table = get_group("D2n", 50)
    chi = table.irreducibles[1]
    calls = []
    over_molien = genfun._over_molien
    monkeypatch.setattr(genfun, "_over_molien", lambda *a: calls.append(a) or over_molien(*a))
    js = range(len(table.labels))
    forms = genfun_rationals(chi, table, js, SYM)
    zero = [j for j in js if not any(genfun_series(chi, table, j, SYM, 4))]
    assert len(calls) == len(js) - len(zero) == 2
    assert all(forms[j] == genfun.RationalFunction((), (Fraction(1),)) for j in zero)
    assert [rf.series(8) for rf in forms] == [genfun_series(chi, table, j, SYM, 8) for j in js]


def test_genfun_rational_of_large_degree_regular_character():
    # the S4 regular character: a Molien denominator of degree 64, and
    # columns of 64 terms
    s4 = get_group("S4")
    pi = regular_character(s4.classes)
    table = multiplicity_table(pi, s4, SYM, 30)
    for j in range(s4.classes.class_count):
        assert genfun_rational(pi, s4, j, SYM).series(30) == list(table.column(j))


def test_genfun_rational_ext_is_polynomial():
    s4 = get_group("S4")
    chi3 = s4.character("chi3")
    for j in range(5):
        rf = genfun_rational(chi3, s4, j, EXT)
        assert rf.is_polynomial()
    assert genfun_rational(chi3, s4, 1, EXT) == ratfun([0, 0, 0, 1])
    # a column with no exterior multiplicity at all: the zero polynomial
    assert genfun_rational(chi3, s4, 4, EXT) == ratfun([0])


def test_round_trip_rational_vs_series():
    for fam, lbl in [("S3", "chi3"), ("A4", "chi4"), ("S4", "chi4")]:
        tab = get_group(fam)
        chi = tab.character(lbl)
        for j in range(tab.classes.class_count):
            rf = genfun_rational(chi, tab, j, SYM)
            assert rf.series(25) == genfun_series(chi, tab, j, SYM, 25)


def test_rational_forms_of_several_irreducibles_in_one_call():
    # the j-independent work is shared; each form must still match its series
    for fam, param, lbl in [("S4", None, "chi4"), ("D2n", 6, "tau1"), ("Hp", 3, "tau_1")]:
        tab = get_group(fam, param)
        chi = tab.character(lbl)
        js = [*range(tab.classes.class_count)][::-1]
        for op in (SYM, EXT):
            series = [rf.series(20) for rf in genfun_rationals(chi, tab, js, op)]
            assert series == [genfun_series(chi, tab, j, op, 20) for j in js]
    assert genfun_rationals(chi, tab, [], SYM) == []


def test_dimension_sum_rule():
    tab = get_group("A5")
    chi = tab.character("chi4")
    d = 3
    degs = tab.degrees()
    sym_cols = [genfun_series(chi, tab, j, SYM, 10) for j in range(5)]
    ext_cols = [genfun_series(chi, tab, j, EXT, 10) for j in range(5)]
    sym_table = multiplicity_table(chi, tab, SYM, 10)
    ext_table = multiplicity_table(chi, tab, EXT, 10)
    for j in range(5):
        assert sym_cols[j] == list(sym_table.column(j))
        assert ext_cols[j] == list(ext_table.column(j))
    for i in range(11):
        assert sum(degs[j] * sym_cols[j][i] for j in range(5)) == binom(d + i - 1, i)
        assert sum(degs[j] * ext_cols[j][i] for j in range(5)) == binom(d, i)


def test_reducible_character_factorization():
    # per class, S_t of a sum is the product of the factors' S_t series
    rng = random.Random(12)
    tab = get_group("S3")
    for _ in range(6):
        mults = [rng.randint(0, 2) for _ in tab.irreducibles]
        if not any(mults):
            continue
        chi = None
        for m, irr in zip(mults, tab.irreducibles):
            for _ in range(m):
                chi = irr if chi is None else chi + irr
        M = 8
        syms = LambdaSequence.compute(chi, M).syms
        factors = [LambdaSequence.compute(irr, M).syms for irr in tab.irreducibles]
        for c in range(tab.classes.class_count):
            total = [f.values[c] for f in syms]
            prod = [Fraction(1)] + [Fraction(0)] * M
            for m, irr_syms in zip(mults, factors):
                factor = [f.values[c] for f in irr_syms]
                for _ in range(m):
                    new = [sum((prod[i] * factor[n - i] for i in range(n + 1)),
                               start=prod[0] * 0) for n in range(M + 1)]
                    prod = new
            assert all(total[n] == prod[n] for n in range(M + 1))


def test_cross_check_detects_mismatch():
    # feeding a non-character through the certified table route must raise
    s3 = get_group("S3")
    virt = s3.character("chi3") - s3.character("chi2")
    with pytest.raises(
        (NonIntegralMultiplicityError, CrossCheckError, InvalidCharacterError)
    ):
        genfun_series(virt, s3, 0, SYM, 4, cross_check=True)


def test_factored_denominator_display():
    rf = RF([1], [2, 3])
    factors, leftover = rf.factored_denominator()
    assert factors == [(3, 1), (2, 1)]
    assert leftover == [1]
    assert str(rf) == "1 / (1-t^3)(1-t^2)"
    poly = ratfun([1, 2, 1])
    assert str(poly) == "1 + 2*t + t^2"
    assert format_poly([0, Fraction(1, 2)]) == "1/2*t"
    # repeated factors collapse into the exponent
    rf2 = ratfun([1], [onemt(2), onemt(2), onemt(3)])
    factors, leftover = rf2.factored_denominator()
    assert factors == [(3, 1), (2, 2)]
    assert leftover == [1]


def test_machine_grade_equality_and_columns():
    mt = MultiplicityTable(op=SYM, labels=("a", "b"), rows=((1, 0), (0, 2)))
    assert mt.column(1) == (0, 2)
