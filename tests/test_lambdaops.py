import dataclasses
import random
from fractions import Fraction

import pytest

from symext.catalog import get_group, tau_prime
from symext.exactnum import Cyclotomic
from symext.groupdata import ClassFunction, adams, decompose, regular_character
from symext.lambdaops import (
    CrossCheckError,
    InvalidCharacterError,
    LambdaSequence,
    NonIntegralDegreeError,
    NotPeriodicError,
    char_poly,
    exterior_powers,
    is_periodic,
    power_sum_check,
    product_form,
    symmetric_powers,
)

from oracle_utils import (
    S3_STANDARD_REPS,
    S4_NATURAL_REPS,
    complete_from_e,
    h_from_power_sums,
    mat_pow,
    power_sum_from_e,
    principal_minor_sum,
    random_virtual,
    trace,
)


def test_adams_examples():
    s3 = get_group("S3")
    chi3 = s3.character("chi3")
    assert adams(chi3, 1) == chi3
    assert [v.to_rational() for v in adams(chi3, 2).values] == [2, 2, -1]
    assert [v.to_rational() for v in adams(chi3, 3).values] == [2, 0, 2]


def test_adams_is_additive_and_multiplicative():
    rng = random.Random(2)
    for fam in ["S3", "A4", "G21"]:
        tab = get_group(fam)
        for _ in range(8):
            f, g = random_virtual(tab, rng), random_virtual(tab, rng)
            for n in (2, 3, 5):
                assert adams(f + g, n) == adams(f, n) + adams(g, n)
                assert adams(f * g, n) == adams(f, n) * adams(g, n)


def test_adams_periodicity_mod_exponent():
    cd = get_group("A5").classes
    chi = get_group("A5").character("chi4")
    for m1 in range(1, 12):
        assert adams(chi, m1) == adams(chi, m1 + cd.exponent)


def test_lambda_examples():
    s3 = get_group("S3")
    chi3 = s3.character("chi3")
    lam = exterior_powers(chi3, 4, expect_character=True)
    assert lam[2] == s3.character("chi2")
    assert lam[3].is_zero() and lam[4].is_zero()
    a4 = get_group("A4")
    lam4 = exterior_powers(a4.character("chi4"), 3)
    want = ["chi1", "chi4", "chi4", "chi1"]
    for i, lbl in enumerate(want):
        assert lam4[i] == a4.character(lbl)


def test_lambda_and_sym_at_identity_are_binomials():
    from symext.exactnum import binom

    for fam, lbl in [("S4", "chi3"), ("A5", "chi3"), ("G21", "chi4")]:
        tab = get_group(fam)
        chi = tab.character(lbl)
        d = int(chi.values[0].to_rational())
        seq = LambdaSequence.compute(chi, 8, expect_character=True)
        for n in range(9):
            assert seq.lambdas[n].values[0] == binom(d, n)
            assert seq.syms[n].values[0] == binom(d + n - 1, n)


def test_sym_examples():
    s3 = get_group("S3")
    chi3 = s3.character("chi3")
    syms = symmetric_powers(chi3, 6)
    assert decompose(syms[6], s3) == (2, 1, 2)
    assert syms[1] == chi3
    # dihedral family: the second symmetric power picks up the trivial character
    d10 = get_group("D2n", 5)
    t1 = tau_prime("D2n", 5, 1)
    s2 = symmetric_powers(t1, 2)[2]
    assert s2 == tau_prime("D2n", 5, 2) + d10.character("chi1")


def test_newton_and_sym_identities_hold_at_every_index():
    rng = random.Random(4)
    tab = get_group("A4")
    for _ in range(5):
        f = random_virtual(tab, rng)
        M = 7
        seq = LambdaSequence.compute(f, M)
        one = ClassFunction.constant(tab.classes, 1)
        lam = [one] + list(seq.lambdas[1:])
        for n in range(1, M + 1):
            # Newton: sum (-1)^i lambda^i psi^(n-i) = (-1)^(n+1) n lambda^n
            acc = ClassFunction.constant(tab.classes, 0)
            for i in range(n):
                term = seq.lambdas[i] * seq.adams[n - i - 1]
                acc = acc + term if i % 2 == 0 else acc - term
            want = seq.lambdas[n] * (n if (n + 1) % 2 == 0 else -n)
            assert acc == want
            # S/lambda: sum_{j=0..n} (-1)^j lambda^j S^(n-j) = 0
            acc = ClassFunction.constant(tab.classes, 0)
            for j in range(n + 1):
                term = seq.lambdas[j] * seq.syms[n - j]
                acc = acc + term if j % 2 == 0 else acc - term
            assert acc.is_zero()


def test_degree_bound_assertion():
    s3 = get_group("S3")
    # (2, 1, 1) has integral degree 2 but is not a character
    fake = ClassFunction(s3.classes, [2, 1, 1])
    with pytest.raises(InvalidCharacterError):
        LambdaSequence.compute(fake, 4, expect_character=True)
    # without the flag the virtual-character computation goes through
    seq = LambdaSequence.compute(fake, 4)
    assert not seq.lambdas[3].is_zero()


def test_char_poly_examples():
    s3 = get_group("S3")
    chi3 = s3.character("chi3")
    assert char_poly(chi3, 0) == [1, 2, 1]  # (1+t)^2
    assert char_poly(chi3, 2) == [1, -1, 1]
    from symext.exactnum import binom

    for fam, lbl in [("A5", "chi2"), ("S4", "chi4")]:
        tab = get_group(fam)
        chi = tab.character(lbl)
        d = int(chi.values[0].to_rational())
        assert char_poly(chi, 0) == [binom(d, i) for i in range(d + 1)]
    with pytest.raises(NonIntegralDegreeError):
        char_poly(ClassFunction(s3.classes, [Fraction(1, 2), 0, 0]), 0)


def test_sym_series_at_class_examples():
    s3 = get_group("S3")
    chi3 = s3.character("chi3")
    M = 8
    syms = LambdaSequence.compute(chi3, M).syms
    assert [f.values[0] for f in syms[:4]] == [1, 2, 3, 4]
    assert [f.values[2] for f in syms[:7]] == [1, -1, 0, 1, -1, 0, 1]
    # multiplying back by lambda_{-t} gives 1 through the truncation order
    for c in range(3):
        b = [f.values[c] for f in syms]
        lam = char_poly(chi3, c)
        a = [lam[i] if i % 2 == 0 else -lam[i] for i in range(len(lam))]
        for n in range(M + 1):
            acc = Cyclotomic.from_rational(0)
            for i in range(min(n, len(a) - 1) + 1):
                acc = acc + a[i] * b[n - i]
            assert acc == (1 if n == 0 else 0)


def test_symmetric_polynomial_helpers():
    assert power_sum_from_e([0, -1], 2) == 2
    assert complete_from_e([5], 1) == 5
    # power sums of the roots of (x-1)(x^2+1), i.e. of 1, i, -i
    i = Cyclotomic.root_of_unity(4)
    roots = [Cyclotomic.from_rational(1), i, -i]
    e1 = sum(roots, Cyclotomic.from_rational(0))
    e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
    e3 = roots[0] * roots[1] * roots[2]
    assert (e1, e2, e3) == (1, 1, 1)
    for k in (1, 2, 3, 4):
        brute = sum((r**k for r in roots), Cyclotomic.from_rational(0))
        assert power_sum_from_e([1, 1, 1], k) == brute
    # h_n against the brute-force monomial sum on two roots
    x, y = Cyclotomic.root_of_unity(3), Cyclotomic.from_rational(2)
    for n in (1, 2, 3):
        brute = Cyclotomic.from_rational(0)
        for a in range(n + 1):
            brute = brute + x**a * y ** (n - a)
        assert complete_from_e([x + y, x * y], n) == brute


def test_additivity_of_lambda_and_sym():
    rng = random.Random(6)
    for fam, param in [("S3", None), ("A4", None), ("Q4n", 2)]:
        tab = get_group(fam, param)
        for _ in range(6):
            f, g = random_virtual(tab, rng), random_virtual(tab, rng)
            M = 6
            sf = LambdaSequence.compute(f, M)
            sg = LambdaSequence.compute(g, M)
            sfg = LambdaSequence.compute(f + g, M)
            for n in range(M + 1):
                lam_acc = ClassFunction.constant(tab.classes, 0)
                sym_acc = ClassFunction.constant(tab.classes, 0)
                for i in range(n + 1):
                    lam_acc = lam_acc + sf.lambdas[i] * sg.lambdas[n - i]
                    sym_acc = sym_acc + sf.syms[i] * sg.syms[n - i]
                assert sfg.lambdas[n] == lam_acc
                assert sfg.syms[n] == sym_acc


def test_consistency_triangle():
    # per class, psi^n = Q_n(lambda values) and S^n = h_n(lambda values)
    for fam, lbl in [("S3", "chi3"), ("A5", "chi4"), ("G21", "chi4")]:
        tab = get_group(fam)
        chi = tab.character(lbl)
        M = 6
        seq = LambdaSequence.compute(chi, M, expect_character=True)
        power_sum_check(seq)
        for c in range(tab.classes.class_count):
            lam_c = [seq.lambdas[i].values[c] for i in range(1, M + 1)]
            for n in range(1, M + 1):
                assert seq.adams[n - 1].values[c] == power_sum_from_e(lam_c, n)
                assert seq.syms[n].values[c] == complete_from_e(lam_c, n)


def test_power_sum_check_detects_one_altered_value():
    tab = get_group("A4")
    seq = LambdaSequence.compute(tab.character("chi4"), 6, expect_character=True)
    power_sum_check(seq)
    syms = list(seq.syms)
    vals = list(syms[4].values)
    vals[2] = vals[2] + 1
    syms[4] = ClassFunction(tab.classes, vals)
    with pytest.raises(CrossCheckError, match="S\\^4"):
        power_sum_check(dataclasses.replace(seq, syms=tuple(syms)))


def test_matrix_trace_oracle():
    # exterior powers: sums of principal minors; symmetric powers: complete
    # homogeneous values of the power traces of explicit matrices
    cases = [("S3", "chi3", S3_STANDARD_REPS), ("S4", "natural", S4_NATURAL_REPS)]
    for fam, which, reps in cases:
        tab = get_group(fam)
        if which == "natural":
            from symext.groupdata import ClassFunction as CF

            chi = CF(tab.classes, [trace(m) for m in reps])
        else:
            chi = tab.character(which)
        seq = LambdaSequence.compute(chi, 4, expect_character=True)
        for c, m in enumerate(reps):
            assert chi.values[c] == trace(m)
            p = [None] + [trace(mat_pow(m, k)) for k in range(1, 5)]
            for n in range(1, 5):
                assert seq.lambdas[n].values[c] == principal_minor_sum(m, n)
                assert seq.syms[n].values[c] == h_from_power_sums(p, n)


def test_is_periodic():
    s3 = get_group("S3")
    assert is_periodic(regular_character(s3.classes))
    assert is_periodic(s3.character("chi2"))
    s4 = get_group("S4")
    nat = s4.character("chi1") + s4.character("chi3")  # the natural character
    assert is_periodic(nat)
    # an order-3 linear character of A4 moves under the unit 5, so it is not
    a4 = get_group("A4")
    assert not is_periodic(a4.character("chi2"))


def test_product_form_regular_s3():
    s3 = get_group("S3")
    pi = regular_character(s3.classes)
    pf = product_form(pi)
    assert pf.divisors == (1, 2, 3, 6)
    assert pf.exponent_at(0) == [(1, Cyclotomic.from_rational(6))]
    assert pf.exponent_at(1) == [(2, Cyclotomic.from_rational(6))]
    assert pf.exponent_at(2) == [(3, Cyclotomic.from_rational(6))]
    # defining relation: psi^(a_l) = sum of b over divisors of a_l
    for l, a in enumerate(pf.divisors):
        acc = ClassFunction.constant(s3.classes, 0)
        for l2, a2 in enumerate(pf.divisors):
            if a % a2 == 0:
                acc = acc + pf.exponents[l2]
        assert adams(pi, a) == acc


def test_periodic_set_is_empirically_closed():
    # products and power operations of permutation-type characters stay
    # periodic on the builtins (checked, never relied upon by the engine)
    for fam in ["S3", "S4", "A4"]:
        tab = get_group(fam)
        reg = regular_character(tab.classes)
        nat = tab.character("chi1") + tab.character("chi3" if fam != "A4" else "chi4")
        assert is_periodic(reg) and is_periodic(nat)
        assert is_periodic(reg * nat)
        assert is_periodic(nat * nat)
        seq = LambdaSequence.compute(nat, 3, expect_character=True)
        assert is_periodic(seq.lambdas[2])
        assert is_periodic(seq.syms[2])


def test_product_form_trivial_and_errors():
    s3 = get_group("S3")
    triv = s3.character("chi1")
    pf = product_form(triv)
    assert pf.exponent_at(0) == [(1, Cyclotomic.from_rational(1))]
    a4 = get_group("A4")
    with pytest.raises(NotPeriodicError):
        product_form(a4.character("chi2"))
