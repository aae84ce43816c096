import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symext.catalog import get_group, get_perm_model
from symext.exactnum import Cyclotomic
from symext.groupdata import (
    ClassFunction,
    NonIntegralMultiplicityError,
    NonRationalMultiplicityError,
    TableMismatchError,
    _Columns,
    adams,
    complete_power_maps,
    decompose,
    inner_product,
    integral_multiplicities,
    regular_character,
    validate_table,
)
from symext.lambdaops import exterior_powers, symmetric_powers

from oracle_utils import random_virtual


def test_power_map_examples():
    cd = get_group("S3").classes
    assert cd.power_map(2) == (0, 0, 2)
    assert cd.power_map(cd.exponent) == (0, 0, 0)
    assert cd.power_map(7) == (0, 1, 2)
    with pytest.raises(ValueError):
        cd.power_map(-1)


def test_power_map_composition():
    for sel, param in [("S3", None), ("A4", None), ("G21", None), ("Hp", 3)]:
        cd = get_group(sel, param).classes
        for n in range(1, cd.exponent + 1):
            for m in range(1, cd.exponent + 1):
                via_n = cd.power_map(n)
                composed = tuple(cd.power_map(m)[via_n[c]] for c in range(cd.class_count))
                assert cd.power_map(n * m) == composed


def test_inner_product_examples():
    s3 = get_group("S3")
    chi3 = s3.character("chi3")
    assert inner_product(chi3, chi3) == 1
    s6 = symmetric_powers(chi3, 6)[6]
    assert inner_product(chi3, s6) == 2
    assert inner_product(s3.character("chi1"), regular_character(s3.classes)) == 1


def test_inner_product_errors_and_symmetry():
    s3 = get_group("S3")
    a4 = get_group("A4")
    with pytest.raises(TableMismatchError):
        inner_product(s3.character("chi1"), a4.character("chi1"))
    rng = random.Random(3)
    for tab in (s3, a4, get_group("G21")):
        for _ in range(10):
            f = random_virtual(tab, rng)
            g = random_virtual(tab, rng)
            assert inner_product(f, g) == inner_product(g, f).conjugate()


def test_decompose_examples():
    s3 = get_group("S3")
    chi3 = s3.character("chi3")
    lam2 = exterior_powers(chi3, 2)[2]
    assert decompose(lam2, s3) == (0, 1, 0)
    zero = ClassFunction.constant(s3.classes, 0)
    assert decompose(zero, s3) == (0, 0, 0)
    assert decompose(regular_character(s3.classes), s3) == (1, 1, 2)


def test_decompose_round_trip_on_random_virtuals():
    rng = random.Random(21)
    for sel, param in [("S3", None), ("A4", None), ("A5", None)]:
        tab = get_group(sel, param)
        for _ in range(15):
            f = random_virtual(tab, rng, span=3)
            coeffs = decompose(f, tab)
            recon = ClassFunction.constant(tab.classes, 0)
            for q, chi in zip(coeffs, tab.irreducibles):
                recon = recon + chi * q
            assert recon == f


def test_decompose_non_rational():
    s3 = get_group("S3")
    f = ClassFunction(s3.classes, [Cyclotomic.root_of_unity(5), 0, 0])
    with pytest.raises(NonRationalMultiplicityError):
        decompose(f, s3)


def test_integral_certification():
    assert integral_multiplicities((Fraction(2), Fraction(0))) == (2, 0)
    with pytest.raises(NonIntegralMultiplicityError):
        integral_multiplicities((Fraction(1, 2),))
    with pytest.raises(NonIntegralMultiplicityError):
        integral_multiplicities((Fraction(-1),))


def test_validate_builtin_tables():
    for sel, param in [("S3", None), ("A4", None), ("A5", None), ("Hp", 3)]:
        assert validate_table(get_group(sel, param)) == []


def test_validate_catches_perturbation():
    s3 = get_group("S3")
    cd = s3.classes
    rows = [list(chi.values) for chi in s3.irreducibles]
    rows[2][1] = rows[2][1] + 1
    from symext.groupdata import CharacterTable

    bad = CharacterTable(cd, [ClassFunction(cd, r) for r in rows], s3.labels)
    problems = validate_table(bad)
    assert any("<" in p for p in problems)  # some orthogonality identity fails


def test_adams_requires_positive_power():
    s3 = get_group("S3")
    with pytest.raises(ValueError):
        adams(s3.character("chi1"), 0)


def test_complete_power_maps_derives_unit_primes():
    # the squaring map of G21 is not generated by the 3- and 7-power maps;
    # the Galois derivation must agree with the permutation model
    g21 = get_group("G21")
    model = get_perm_model("G21")
    derived = model.data.prime_power_maps[2]
    builtin = g21.classes.prime_power_maps[2]
    match = model.matching
    assert all(match[builtin[c]] == derived[match[c]] for c in range(5))
    # dropping a required (dividing) prime is an error
    with pytest.raises(KeyError):
        complete_power_maps(21, {3: g21.classes.prime_power_maps[3]}, g21._columns)


def test_class_function_algebra():
    s3 = get_group("S3")
    chi2, chi3 = s3.character("chi2"), s3.character("chi3")
    assert chi2 * chi2 == s3.character("chi1")
    assert (chi3 * chi2) == chi3  # sign twist fixes the standard character
    assert (chi3 - chi3).is_zero()
    assert (chi3 + chi3) == 2 * chi3
    assert chi3**2 == chi3 * chi3


@st.composite
def value_grid(draw):
    """A few values, each written at several orders: rationals at order 1
    and lifted to a higher order, sums of roots of unity at their order and
    lifted; some sums are rational, some are equal across base orders."""
    small = st.integers(-2, 2)
    bases = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            bases.append(Cyclotomic.from_rational(Fraction(draw(small), draw(st.integers(1, 3)))))
        else:
            m = draw(st.sampled_from([3, 4, 5, 6, 8]))
            terms = draw(st.lists(st.tuples(st.integers(0, m - 1), small), max_size=4))
            bases.append(Cyclotomic.from_terms(m, terms))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = [draw(st.tuples(st.sampled_from(bases), st.sampled_from([1, 2, 3, 5])))
             for _ in range(rows * cols)]
    values = [v.lift(v.order * k) for v, k in cells]
    return [values[r * cols:(r + 1) * cols] for r in range(rows)]


@settings(max_examples=200, deadline=None)
@given(value_grid())
def test_column_ids_are_equal_exactly_when_the_values_are(grid):
    cols = _Columns(grid)
    assert cols.cols == list(zip(*cols.rows))
    flat = [v for row in grid for v in row]
    ids = [i for row in cols.rows for i in row]
    for v, a in zip(flat, ids):
        for w, b in zip(flat, ids):
            assert (a == b) == (v == w)
    # a lookup gives the id of an equal value, None if the grid holds none
    probes = flat + [v.conjugate() for v in flat]
    for v, a in zip(probes, cols.lookup(probes)):
        assert a == next((b for w, b in zip(flat, ids) if w == v), None)
