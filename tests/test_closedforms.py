import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from symext.catalog import (
    FIXED_FAMILIES,
    central_characters,
    get_group,
    load_group_spec,
    quotient_transfers,
)
from symext.closedforms import (
    InvalidCentralCharError,
    InvalidSubgroupError,
    MapInconsistentError,
    NonIntegerExponentError,
    NotOneDimensionalError,
    binomial_series,
    burnside_regular_forms,
    central_char_spec,
    central_forms,
    coset_order,
    expand_product_form,
    one_dim_forms,
    quotient_pullback,
    subgroup_spec,
)
from symext.exactnum import Cyclotomic, as_cyclotomic, binom
from symext.genfun import poly_mul
from symext.groupdata import ClassFunction, adams, decompose, inner_product
from symext.lambdaops import LambdaSequence, char_poly, product_form

from oracle_utils import cyclic_spec, ratfun, reference_one_dim_exponents


def onemt(a):
    return [1] + [0] * (a - 1) + [-1]


# ---------------------------------------------------------------------------
# binomial series


def test_binomial_series_basics():
    assert binomial_series(-2, -1, 1, 3) == [1, 2, 3, 4]  # (1-t)^(-2)
    assert binomial_series(3, 1, 1, 4) == [1, 3, 3, 1, 0]
    # (1-t^2)^2
    assert binomial_series(2, -1, 2, 4) == [1, 0, -2, 0, 1]
    with pytest.raises(ValueError):
        binomial_series(1, 1, 0, 2)


# x = 1 and roots of unity of orders 3, 4 and 5
BINOMIAL_BASES = [1] + [Cyclotomic.root_of_unity(o, e) for o, e in ((3, 1), (4, 3), (5, 2))]


def test_binomial_series_inverse_pairs():
    rng = random.Random(13)
    for _ in range(10):
        r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        for x in BINOMIAL_BASES:
            for a in (1, 2, 3):
                up = binomial_series(r, x, a, 8)
                down = binomial_series(-r, x, a, 8)
                for n in range(9):
                    conv = sum(up[i] * down[n - i] for i in range(n + 1))
                    assert conv == (1 if n == 0 else 0)


def test_binomial_series_integer_exponent_matches_poly_multiplication():
    for x in [-1] + BINOMIAL_BASES[1:]:
        for a in (1, 2, 3):
            for e in range(0, 6):
                # one degree past the polynomial: its coefficients are zero
                series = binomial_series(e, x, a, a * e + a)
                poly = [1]
                for _ in range(e):
                    poly = poly_mul(poly, [1] + [0] * (a - 1) + [x])
                assert series == poly + [0] * a


def reference_binomial_series(r, x, a, degree):
    # the loop with every coefficient and power a Cyclotomic
    r, x = Fraction(r), as_cyclotomic(x)
    out = [as_cyclotomic(0)] * (degree + 1)
    coeff, power = as_cyclotomic(1), as_cyclotomic(1)
    for i in range(degree // a + 1):
        out[i * a] = power * coeff
        coeff = coeff * (r - i) / (i + 1)
        power = power * x
    return out


SMALL_FRACTIONS = st.fractions(-4, 4, max_denominator=6)


@given(
    st.one_of(st.integers(-6, 6), SMALL_FRACTIONS),
    st.one_of(
        st.integers(-3, 3),
        SMALL_FRACTIONS,
        # a rational stored at order > 1, and roots of unity (irrational at e = 1)
        st.builds(lambda q, n: Cyclotomic.from_rational(q).lift(n), SMALL_FRACTIONS,
                  st.integers(2, 12)),
        st.builds(Cyclotomic.root_of_unity, st.sampled_from([3, 4, 5, 8, 12]), st.integers(1, 11)),
    ),
    st.integers(1, 4),
    st.integers(0, 12),
)
@example(Fraction(5, 2), Fraction(-2, 3), 2, 12)
@example(-3, Cyclotomic.from_rational(Fraction(3, 2)).lift(10), 1, 8)
@example(Fraction(-1, 3), Cyclotomic.root_of_unity(5), 3, 12)
def test_binomial_series_matches_the_all_cyclotomic_loop(r, x, a, degree):
    got = binomial_series(r, x, a, degree)
    assert all(type(v) is Cyclotomic for v in got)
    assert got == reference_binomial_series(r, x, a, degree)


def test_inverse_binomial_coefficient_identity():
    # (1-t)^(-r) has coefficients binom(r+n-1, n)
    r = 5
    series = binomial_series(-r, -1, 1, 7)
    assert series == [binom(r + n - 1, n) for n in range(8)]


# ---------------------------------------------------------------------------
# normal subgroups, permutation characters and the product forms


def test_subgroup_spec_validation():
    s3 = get_group("S3")
    cd = s3.classes
    spec = subgroup_spec(cd, (0, 2))
    assert spec.quotient_order == 2
    with pytest.raises(InvalidSubgroupError):
        subgroup_spec(cd, (2,))  # missing identity
    with pytest.raises(InvalidSubgroupError):
        subgroup_spec(cd, (0, 1))  # transpositions are not power-closed here
    s4 = get_group("S4")
    with pytest.raises(InvalidSubgroupError):
        subgroup_spec(s4.classes, (0, 1))  # sizes 1+6 do not divide 24


def test_coset_order():
    s3 = get_group("S3")
    spec = subgroup_spec(s3.classes, (0, 2))
    assert [coset_order(s3.classes, spec, c) for c in range(3)] == [1, 2, 1]
    triv = subgroup_spec(s3.classes, (0,))
    assert [coset_order(s3.classes, triv, c) for c in range(3)] == [1, 2, 3]


def test_perm_quotient_character_examples():
    s3 = get_group("S3")
    regular = burnside_regular_forms(s3.classes, subgroup_spec(s3.classes, (0,))).character()
    assert regular.values[0] == 6
    pi_a3 = burnside_regular_forms(s3.classes, subgroup_spec(s3.classes, (0, 2))).character()
    assert [v.to_rational() for v in pi_a3.values] == [2, 0, 2]
    s4 = get_group("S4")
    pi_v = burnside_regular_forms(s4.classes, subgroup_spec(s4.classes, (0, 4))).character()
    assert [v.to_rational() for v in pi_v.values] == [6, 0, 0, 0, 6]


def test_burnside_forms_s3_regular():
    s3 = get_group("S3")
    spec = subgroup_spec(s3.classes, (0,))
    bf = burnside_regular_forms(s3.classes, spec, 1)
    assert bf.lambda_poly(0) == [binom(6, i) for i in range(7)]  # (1+t)^6
    assert bf.lambda_poly(1) == [1, 0, -3, 0, 3, 0, -1]  # (1-t^2)^3
    assert bf.lambda_poly(2) == [1, 0, 0, 2, 0, 0, 1]  # (1+t^3)^2
    assert bf.sym_series(0, 4) == [binom(5 + i, i) for i in range(5)]
    # m = trivial subgroup = whole group: Pi is the trivial character
    whole = subgroup_spec(s3.classes, (0, 1, 2))
    bfw = burnside_regular_forms(s3.classes, whole, 1)
    assert bfw.character() == s3.character("chi1")
    assert all(bfw.lambda_poly(c) == [1, 1] for c in range(3))


def test_burnside_shortcuts_match_engine():
    s3 = get_group("S3")
    for indices, m in [((0,), 1), ((0, 2), 1), ((0,), 2)]:
        spec = subgroup_spec(s3.classes, indices)
        bf = burnside_regular_forms(s3.classes, spec, m)
        chi = bf.character()
        seq = LambdaSequence.compute(chi, 11, expect_character=True)
        for n in range(1, 12):
            if gcd(n, spec.quotient_order) != 1:
                continue
            assert bf.shortcut(n, "sym") == seq.syms[n]
            assert bf.shortcut(n, "ext") == seq.lambdas[n]
    # a degree sharing a factor with |G/N| is rejected
    spec6 = subgroup_spec(s3.classes, (0,))
    with pytest.raises(ValueError):
        burnside_regular_forms(s3.classes, spec6, 1).shortcut(2, "sym")


def test_product_form_expansion_matches_char_poly():
    # permutation characters of every kind: regular, natural, coset actions
    from symext.groupdata import regular_character

    cases = []
    for fam in ["S3", "S4", "A4"]:
        tab = get_group(fam)
        cases.append(regular_character(tab.classes))
        for idx in [(0,)] if fam != "S4" else [(0,), (0, 4)]:
            cases.append(
                burnside_regular_forms(tab.classes, subgroup_spec(tab.classes, idx)).character()
            )
    for chi in cases:
        pf = product_form(chi)
        for c in range(chi.data.class_count):
            poly = char_poly(chi, c)
            recon = expand_product_form(pf, c, len(poly) - 1)
            assert all(poly[i] == recon[i] for i in range(len(poly)))


# ---------------------------------------------------------------------------
# one-dimensional characters


def test_one_dim_forms_s3():
    s3 = get_group("S3")
    forms = one_dim_forms(s3.character("chi2"), s3)
    assert forms.order == 2
    assert forms.genfun(0) == ratfun([1], [onemt(2)])
    assert forms.genfun(1) == ratfun([0, 1], [onemt(2)])
    assert forms.genfun(2) == ratfun([0])
    triv = one_dim_forms(s3.character("chi1"), s3)
    assert triv.order == 1
    assert triv.genfun(0) == ratfun([1], [onemt(1)])
    for i in range(6):
        assert forms.sym_power(i) == (
            s3.character("chi1") if i % 2 == 0 else s3.character("chi2")
        )


def test_one_dim_forms_a4_order3():
    a4 = get_group("A4")
    forms = one_dim_forms(a4.character("chi2"), a4)
    assert forms.order == 3
    # chi2 squared is chi3, so the generating function toward chi3 is t^2/(1-t^3)
    assert forms.genfun(2) == ratfun([0, 0, 1], [onemt(3)])


ONE_DIM_GROUPS = ([(f, None) for f in FIXED_FAMILIES] + [("D2n", n) for n in (3, 4, 5, 8, 50, 100)]
                  + [("Q4n", n) for n in (2, 3, 6, 25, 50)] + [("Hp", p) for p in (3, 5, 7)])


def _cyclic_table(tmp_path, n, root):
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(cyclic_spec(n, root)))
    return load_group_spec(str(path)).table


@pytest.mark.parametrize("group", [*ONE_DIM_GROUPS, "C8-at-16"], ids=str)
def test_one_dim_exponents_are_the_k_plus_q_row_interners(tmp_path, group):
    # the powers are looked up in the table's value ids; the reference
    # interns them with the rows in a fresh interner.  C8 stores its values
    # over zeta_16, above its exponent
    table = _cyclic_table(tmp_path, 8, 16) if group == "C8-at-16" else get_group(*group)
    linear = [chi for chi in table.irreducibles if chi.values[0] == 1]
    assert linear
    for chi in linear:
        assert one_dim_forms(chi, table).exponents == reference_one_dim_exponents(chi, table)


def test_one_dim_agrees_with_engine():
    for fam, labels in [("S3", ["chi1", "chi2"]), ("A4", ["chi1", "chi2", "chi3"])]:
        tab = get_group(fam)
        for lbl in labels:
            chi = tab.character(lbl)
            forms = one_dim_forms(chi, tab)
            seq = LambdaSequence.compute(chi, 12, expect_character=True)
            for i in range(13):
                assert seq.syms[i] == forms.sym_power(i)
            assert seq.lambdas[1] == chi
            assert all(seq.lambdas[i].is_zero() for i in range(2, 13))


def test_one_dim_rejects_higher_dimension():
    s3 = get_group("S3")
    with pytest.raises(NotOneDimensionalError):
        one_dim_forms(s3.character("chi3"), s3)
    # degree one but not irreducible
    fake = s3.character("chi2") * Fraction(1, 1) + s3.character("chi1") - s3.character("chi1")
    bad = ClassFunction(s3.classes, [1, 0, 1])
    with pytest.raises(NotOneDimensionalError):
        one_dim_forms(bad, s3)


# ---------------------------------------------------------------------------
# central characters


def test_central_char_spec_validation():
    hp = get_group("Hp", 3)
    cd = hp.classes
    spec = subgroup_spec(cd, (0, 1, 2))
    eta = Cyclotomic.root_of_unity(3)
    good = central_char_spec(cd, spec, {0: 1, 1: eta, 2: eta**2}, 3)
    assert good.multiplier == 3
    with pytest.raises(InvalidCentralCharError):
        central_char_spec(cd, spec, {0: eta, 1: eta, 2: eta}, 3)  # zeta(e) != 1
    with pytest.raises(InvalidCentralCharError):
        central_char_spec(cd, spec, {0: 1, 1: eta, 2: eta}, 3)  # not multiplicative
    with pytest.raises(InvalidCentralCharError):
        central_char_spec(cd, spec, {0: 1, 1: eta}, 3)  # wrong support


@pytest.mark.parametrize("z1, z2", [(0, "eta2"), (0, 0), ("eta", "eta")])
def test_central_char_spec_rejects_a_zero_or_non_reciprocal_value(z1, z2):
    # a zero value once reached Cyclotomic.inverse() and raised ZeroDivisionError
    cd = get_group("Hp", 3).classes
    spec = subgroup_spec(cd, (0, 1, 2))
    eta = Cyclotomic.root_of_unity(3)
    named = {0: 0, "eta": eta, "eta2": eta**2}
    with pytest.raises(InvalidCentralCharError, match="is not the reciprocal"):
        central_char_spec(cd, spec, {0: 1, 1: named[z1], 2: named[z2]}, 3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_central_characters_are_the_powers_of_one_root(p):
    eta = Cyclotomic.root_of_unity(p)
    specs = central_characters("Hp", p)
    assert list(specs) == [f"zeta_{s}" for s in range(1, p)]
    for s in range(1, p):
        got = specs[f"zeta_{s}"].zeta
        want = {h: eta ** (s * h) for h in range(p)}
        assert list(got) == list(want)
        assert [(v.order, v.num, v.den) for v in got.values()] == [
            (v.order, v.num, v.den) for v in want.values()
        ]


def test_central_forms_heisenberg():
    hp = get_group("Hp", 3)
    cd = hp.classes
    spec = central_characters("Hp", 3)["zeta_1"]
    forms = central_forms(cd, spec)
    tau1 = forms.character()
    assert tau1 == hp.character("tau_1")
    eta = Cyclotomic.root_of_unity(3)
    # central classes: (1 + eta^h t)^3; outside: 1 + t^3
    assert forms.lambda_poly(0) == [1, 3, 3, 1]
    assert forms.lambda_poly(1) == [1, 3 * eta, 3 * eta**2, 1]
    assert forms.lambda_poly(3) == [1, 0, 0, 1]
    # sym series at a central class has binomial magnitudes at multiples of p
    s = forms.sym_series(3, 9)
    assert [s[i] for i in (0, 3, 6, 9)] == [1, 1, 1, 1]
    s0 = forms.sym_series(0, 6)
    assert s0 == [binom(2 + i, i) for i in range(7)]
    # coefficient of t^(ip) in (1 - eta t)^(-p) has magnitude binom(p+ip-1, ip)
    s1 = forms.sym_series(1, 6)
    for i in (1, 2):
        coeff = s1[3 * i]
        assert coeff == binom(3 + 3 * i - 1, 3 * i) * eta ** (3 * i)


def test_central_shortcuts_match_engine():
    for p in (3, 5):
        hp = get_group("Hp", p)
        cd = hp.classes
        for name, spec in central_characters("Hp", p).items():
            forms = central_forms(cd, spec)
            chi = forms.character()
            seq = LambdaSequence.compute(chi, p + 2, expect_character=True)
            for n in range(1, p + 3):
                if gcd(n, spec.subgroup.quotient_order) != 1:
                    continue
                assert forms.shortcut(n, "sym") == seq.syms[n]
                assert forms.shortcut(n, "ext") == seq.lambdas[n]


def test_central_forms_non_integer_exponent():
    hp = get_group("Hp", 3)
    cd = hp.classes
    spec0 = subgroup_spec(cd, (0, 1, 2))
    eta = Cyclotomic.root_of_unity(3)
    spec = central_char_spec(cd, spec0, {0: 1, 1: eta, 2: eta**2}, 1)
    forms = central_forms(cd, spec)
    assert forms.lambda_poly(0) == [1, 1]  # inside the subgroup all fine
    with pytest.raises(NonIntegerExponentError):
        forms.lambda_poly(5)  # outside: O_N = 3 does not divide m = 1
    # the coprime shortcut still applies
    assert forms.shortcut(1, "sym") == forms.character()


def test_sqrt_quotient_inner_product_remark():
    # with m = sqrt(|G/N|) = p the extension has norm one
    for p in (3, 5):
        hp = get_group("Hp", p)
        spec = central_characters("Hp", p)[f"zeta_1"]
        forms = central_forms(hp.classes, spec)
        chi = forms.character()
        assert inner_product(chi, chi) == 1


# ---------------------------------------------------------------------------
# quotient transfer


def test_quotient_pullback_s4_to_s3():
    s4, s3 = get_group("S4"), get_group("S3")
    (qtable, qmap) = quotient_transfers("S4")["V"]
    qt = quotient_pullback(s4, qtable, qmap)
    pulled = qt.pulled_irreducibles()
    assert pulled[0] == s4.character("chi1")
    assert pulled[1] == s4.character("chi2")
    assert pulled[2] == s4.character("chi5")
    # lambda_t of the pulled two-dimensional character
    from symext.lambdaops import exterior_powers

    lams = exterior_powers(pulled[2], 2)
    assert lams[0] == s4.character("chi1")
    assert lams[1] == s4.character("chi5")
    assert lams[2] == s4.character("chi2")


def test_quotient_pullback_preserves_inner_products():
    s4, s3 = get_group("S4"), get_group("S3")
    (qtable, qmap) = quotient_transfers("S4")["V"]
    qt = quotient_pullback(s4, qtable, qmap)
    rng = random.Random(8)
    from oracle_utils import random_virtual

    for _ in range(10):
        f = random_virtual(qtable, rng)
        g = random_virtual(qtable, rng)
        assert inner_product(f, g) == inner_product(qt.pull(f), qt.pull(g))


def test_quotient_pullback_commutes_with_operations():
    s4 = get_group("S4")
    (qtable, qmap) = quotient_transfers("S4")["V"]
    qt = quotient_pullback(s4, qtable, qmap)
    for lbl in qtable.labels:
        chi = qtable.character(lbl)
        seq_q = LambdaSequence.compute(chi, 8, expect_character=True)
        seq_g = LambdaSequence.compute(qt.pull(chi), 8, expect_character=True)
        for n in range(1, 9):
            assert qt.pull(adams(seq_q.base, n)) == adams(seq_g.base, n)
            assert qt.pull(seq_q.lambdas[n]) == seq_g.lambdas[n]
            assert qt.pull(seq_q.syms[n]) == seq_g.syms[n]


def test_quotient_pullback_rejects_bad_maps():
    s4, s3 = get_group("S4"), get_group("S3")
    with pytest.raises(MapInconsistentError):
        quotient_pullback(s4, s3, (0, 1, 2, 1, 1))  # wrong fiber sizes
    with pytest.raises(MapInconsistentError):
        quotient_pullback(s4, s3, (1, 0, 2, 0, 1))  # identity mismatch
    with pytest.raises(MapInconsistentError) as err:
        quotient_pullback(s4, s3, (0, 1, 1, 1, 0))  # not surjective + power maps
    assert err.value.failures
