import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracle_utils import reference_class_data, reference_sorted_classes
from symext import catalog
from symext.catalog import FIXED_FAMILIES, get_group, get_perm_model
from symext.groupdata import decompose, integral_multiplicities
from symext.permgroup import (
    CapExceededError,
    Permutation,
    class_data,
    enumerate_group,
    standard_characters,
)


def P(text, degree=None):
    return Permutation.from_cycles(text, degree)


def perms(n):
    return st.permutations(range(n)).map(Permutation)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(perms(n), perms(n))))
def test_products_are_the_composition(ab):
    a, b = ab
    product = a * b
    assert product.images == tuple(a.images[b.images[x]] for x in range(a.degree))
    assert product == Permutation(product.images)  # a checked permutation


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 12).flatmap(perms), st.integers(-20, 60), st.integers(-20, 60))
def test_powers_are_the_repeated_product(p, a, b):
    step, inverse = Permutation.identity(p.degree), Permutation.identity(p.degree)
    for n in range(61):
        assert p ** n == step and p ** -n == inverse
        step, inverse = step * p, inverse * p.inverse()
    assert p ** a * p ** b == p ** (a + b)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(1, 12), min_size=2, max_size=2, unique=True).flatmap(
    lambda ns: st.tuples(perms(ns[0]), perms(ns[1]))))
def test_products_of_mixed_degrees_raise(ab):
    a, b = ab
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        b * a


def test_products_of_degree_one_and_zero():
    # itemgetter with one index returns the image, not a tuple of it
    for n in (1, 0):
        assert (Permutation.identity(n) * Permutation.identity(n)).images == tuple(range(n))


@pytest.mark.parametrize("text, degree, point", [("(0 5)", 3, 5), ("(0 1)", 0, 1)])
def test_a_point_outside_the_given_degree_is_a_value_error(text, degree, point):
    with pytest.raises(ValueError) as raised:
        P(text, degree)
    message = f"point {point} is not in 0..{degree - 1}, the points of degree {degree}"
    assert str(raised.value) == message


def test_permutation_basics():
    p = P("(0 1)(2 3)")
    assert p.images == (1, 0, 3, 2)
    assert p.order() == 2
    assert p * p == Permutation.identity(4)
    q = P("(0 1 2)", 4)
    assert (q**3) == Permutation.identity(4)
    assert q.inverse() == q**2
    assert P("(1 3)", 5).fixed_points() == 3
    assert repr(P("(0 2 4)")) == "(0 2 4)"
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        P("(0 1")  # unbalanced
    with pytest.raises(ValueError):
        P("(0 1)(1 2)")  # repeated point


def test_enumerate_s3():
    g = enumerate_group([P("(0 1)", 3), P("(0 1 2)", 3)])
    assert len(g) == 6
    assert g.elements[0] == Permutation.identity(3)


def test_enumerate_a5():
    g = enumerate_group([P("(0 1 2 3 4)", 5), P("(0 1 2)", 5)])
    assert len(g) == 60


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        enumerate_group([P("(0 1 2 3 4 5 6)")], cap=5)


def test_enumeration_is_deterministic():
    gens = [P("(0 1)", 4), P("(0 1 2 3)", 4)]
    g1 = enumerate_group(gens)
    g2 = enumerate_group(gens)
    assert [p.images for p in g1.elements] == [p.images for p in g2.elements]


def test_class_data_s3():
    g = enumerate_group([P("(0 1)", 3), P("(0 1 2)", 3)])
    cd = class_data(g)
    assert cd.sizes == (1, 3, 2)
    assert cd.rep_orders == (1, 2, 3)
    assert cd.structural_problems() == []


def test_class_data_s4_and_a5_sizes():
    g = enumerate_group([P("(0 1)", 4), P("(0 1 2 3)", 4)])
    assert sorted(class_data(g).sizes) == [1, 3, 6, 6, 8]
    g = enumerate_group([P("(0 1 2 3 4)", 5), P("(0 1 2)", 5)])
    assert sorted(class_data(g).sizes) == [1, 12, 12, 15, 20]


def test_standard_characters_s3():
    g = enumerate_group([P("(0 1)", 3), P("(0 1 2)", 3)])
    cd = class_data(g)
    reg, nat = standard_characters(g, cd)
    assert [v.to_rational() for v in reg.values] == [6, 0, 0]
    # classes are ordered identity, transpositions, 3-cycles for S3
    assert [v.to_rational() for v in nat.values] == [3, 1, 0]


def test_standard_characters_s4_natural():
    model = get_perm_model("S4")
    _, nat = standard_characters(model.group, model.data)
    # transport onto the builtin class order: e, (01), (012), (0123), (01)(23)
    vals = [nat.values[model.matching[c]].to_rational() for c in range(5)]
    assert vals == [4, 2, 1, 0, 0]


def test_natural_is_trivial_plus_standard():
    # the fixed-point character of S_n is the trivial plus an irreducible
    for fam, std_label in [("S3", "chi3"), ("S4", "chi3")]:
        tab = get_group(fam)
        model = get_perm_model(fam)
        _, nat = standard_characters(model.group, model.data)
        from symext.groupdata import ClassFunction

        nat_b = ClassFunction(
            tab.classes,
            [nat.values[model.matching[c]] for c in range(tab.classes.class_count)],
        )
        mults = dict(zip(tab.labels, integral_multiplicities(decompose(nat_b, tab))))
        assert mults["chi1"] == 1
        assert mults[std_label] == 1
        assert sum(mults.values()) == 2


def test_regular_decomposes_as_degrees():
    for fam in ["S3", "A4", "S4", "A5"]:
        tab = get_group(fam)
        from symext.groupdata import regular_character

        mults = integral_multiplicities(decompose(regular_character(tab.classes), tab))
        assert mults == tab.degrees()


def _assert_base_skeleton(group):
    # B is a base: only the identity fixes every point of it
    fixers = [g for g in group if all(g.images[b] == b for b in group.base)]
    assert fixers == [Permutation.identity(group.degree)]
    assert group.conjugacy_classes() == reference_sorted_classes(group)
    assert class_data(group) == reference_class_data(group)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 9).flatmap(lambda n: st.lists(perms(n), min_size=1, max_size=3)))
@example([Permutation.identity(1)])
@example([Permutation.identity(6)])
@example([Permutation.identity(4), P("(0 1 2 3)")])
def test_the_base_skeleton_equals_the_whole_permutation_reference(gens):
    try:
        group = enumerate_group(gens, cap=720)
    except CapExceededError:
        assume(False)
    _assert_base_skeleton(group)


BASE_SIZES = {"D2n": 2, "Q4n": 1, "Hp": 1}  # Q4n and Hp act regularly


@pytest.mark.parametrize(
    "family, param",
    [(f, None) for f in FIXED_FAMILIES]
    + [("D2n", n) for n in (3, 4, 49, 100)]
    + [("Q4n", n) for n in (2, 3, 50)]
    + [("Hp", p) for p in (3, 7, 11)],
)
def test_every_builtin_model_has_the_reference_skeleton(family, param):
    group = get_perm_model(family, param).group
    if family in BASE_SIZES:
        assert len(group.base) == BASE_SIZES[family]
    _assert_base_skeleton(group)


def test_the_generated_s4_has_the_reference_skeleton():
    group = catalog._enumerate_generators(["(0 1)", "(0 1 2 3)"])
    assert group.base == (0, 1, 2)
    _assert_base_skeleton(group)
