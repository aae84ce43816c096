"""Property tests of the packed class sums in groupdata.

``inner_product`` and ``decompose`` pack every cyclotomic value into one
integer and take each class sum as an integer dot product.  They are compared
here with the plain Cyclotomic-arithmetic loop kept below as the reference,
on values of mixed orders (1, proper divisors of the table's order N, N, and
multiples of N as a spec file's ``root_order`` may give), negative and
non-unit-denominator coordinates, and coordinates far beyond one 64-bit slot.
``decompose`` sums only over nonzero terms, so the inputs are also sparse:
values zero at random classes or at every orbit representative, all-rational
values, and virtual characters with few or one nonzero multiplicity.
"""

import hashlib
import io
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import lcm
from unittest import mock

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle_utils import (
    a4_with_an_identity_5_power_map,
    reference_inner_product,
    reference_validate_table,
)
from symext import catalog, cli, groupdata
from symext.catalog import get_group
from symext.exactnum import Cyclotomic, _coords, as_cyclotomic, divisors, slot_width, totient
from symext.groupdata import (
    CharacterTable,
    ClassData,
    ClassFunction,
    NonIntegralMultiplicityError,
    NonRationalMultiplicityError,
    decompose,
    inner_product,
    integral_decompose,
    integral_multiplicities,
    validate_table,
)


def reference_decompose(f, table):
    coeffs = []
    for j, chi in enumerate(table.irreducibles):
        v = reference_inner_product(chi, f)
        if not v.is_rational():
            raise NonRationalMultiplicityError(
                f"inner product with {table.labels[j]} is not rational: {v!r}"
            )
        coeffs.append(v.to_rational())
    for c, value in enumerate(f.values):
        recon = sum((chi.values[c] * q for q, chi in zip(coeffs, table.irreducibles)),
                    as_cyclotomic(0))
        if recon != value:
            raise NonRationalMultiplicityError(
                "class function is outside the span of the irreducibles"
            )
    return tuple(coeffs)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (NonRationalMultiplicityError, NonIntegralMultiplicityError) as exc:
        return ("error", str(exc))


TABLES = [("S3", None), ("D2n", 5), ("D2n", 6), ("D2n", 8), ("Q4n", 3), ("Q4n", 5), ("Hp", 3)]
# a multiple of the exponent, as a spec file's root_order may be
ABOVE = 2


def value_orders(table):
    n = table.classes.exponent
    return divisors(n) + [ABOVE * n]


coordinate = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63 - 1, -(2**63), 2**64 + 1, -(2**127)]),
)


@st.composite
def cyclotomic(draw, orders, rational=False):
    n = draw(st.sampled_from(orders))
    num = draw(st.lists(coordinate, min_size=totient(n), max_size=totient(n)))
    if rational or draw(st.booleans()):
        num = num[:1] + [0] * (len(num) - 1)  # a rational value stored at order n
    den = draw(st.sampled_from([1, 1, 2, 3, 12, 2**65]))
    return Cyclotomic(n, [Fraction(x, den) for x in num])


def zero_at(v):
    return Cyclotomic(v.order, [0] * len(v.num))


def representatives_and_inverses(cd):
    """The classes r and r^-1 for the representatives r of the rational classes."""
    return {c for r in cd.rational_classes()[1] for c in (r, cd.inverse_class[r])}


@st.composite
def table_and_function(draw):
    """A table and a class function with values at any order: dense, zero at
    random classes, zero at every rational-class representative r and at
    r^-1, or rational at every class."""
    table = get_group(*draw(st.sampled_from(TABLES)))
    cd, orders = table.classes, value_orders(table)
    shape = draw(st.sampled_from(["dense", "sparse", "off representatives", "rational"]))
    values = [draw(cyclotomic(orders, rational=shape == "rational"))
              for _ in range(cd.class_count)]
    if shape == "sparse":
        values = [v if draw(st.booleans()) else zero_at(v) for v in values]
    elif shape == "off representatives":
        values = [zero_at(v) if c in representatives_and_inverses(cd) else v
                  for c, v in enumerate(values)]
    return table, ClassFunction(cd, values)


@st.composite
def table_and_virtual(draw):
    """A table and a rational combination of its irreducibles, with the
    coefficients: all drawn, a random subset kept, or one kept and nonzero."""
    table = get_group(*draw(st.sampled_from(TABLES)))
    k = table.classes.class_count
    coeffs = draw(st.lists(
        st.fractions(max_denominator=6) | st.integers(-(2**70), 2**70).map(Fraction),
        min_size=k, max_size=k,
    ))
    support = draw(st.sampled_from(["all", "some", "one"]))
    if support == "some":
        coeffs = [q if draw(st.booleans()) else Fraction(0) for q in coeffs]
    elif support == "one":
        j = draw(st.integers(0, k - 1))
        coeffs = [(q or Fraction(1)) if i == j else Fraction(0) for i, q in enumerate(coeffs)]
    f = ClassFunction.constant(table.classes, 0)
    for q, chi in zip(coeffs, table.irreducibles):
        f = f + chi * q
    return table, f, tuple(coeffs)


def same(a, b):
    return a == b and repr(a) == repr(b) and a.order == b.order


@settings(deadline=None, max_examples=80)
@given(table_and_function(), st.data())
def test_inner_product_matches_the_cyclotomic_loop(tf, data):
    table, f = tf
    orders = value_orders(table)
    f2 = ClassFunction(table.classes, [data.draw(cyclotomic(orders)) for _ in f.values])
    assert same(inner_product(f, f2), reference_inner_product(f, f2))
    chi = table.irreducibles[data.draw(st.integers(0, len(table.irreducibles) - 1))]
    assert same(inner_product(chi, f), reference_inner_product(chi, f))


@settings(deadline=None, max_examples=60)
@given(table_and_virtual())
def test_decompose_matches_the_cyclotomic_loop_on_virtual_characters(tfc):
    table, f, coeffs = tfc
    got = decompose(f, table)
    assert got == coeffs == reference_decompose(f, table)
    assert all(type(q) is Fraction for q in got)


@settings(deadline=None, max_examples=60)
@given(table_and_virtual())
def test_integral_decompose_reads_the_integers_decompose_gives(tfc):
    # fractional or negative: the same error text as integral_multiplicities
    table, f, coeffs = tfc
    assert outcome(integral_decompose, f, table) == outcome(
        lambda *a: integral_multiplicities(decompose(*a)), f, table)
    counts = [abs(q.numerator) for q in coeffs]
    g = ClassFunction.constant(table.classes, 0)
    for m, chi in zip(counts, table.irreducibles):
        g = g + chi * m
    got = integral_decompose(g, table)
    assert got == tuple(counts) and all(type(m) is int for m in got)


@settings(deadline=None, max_examples=60)
@given(table_and_function())
def test_decompose_of_any_class_function_matches_the_cyclotomic_loop(tf):
    # mostly not rational combinations: the same exception with the same text
    table, f = tf
    got = outcome(decompose, f, table)
    assert got == outcome(reference_decompose, f, table)
    # a rational combination of the rows is Galois compatible, so one that is
    # zero at every representative and its inverse is zero everywhere
    if any(f.values) and not any(f.values[c] for c in representatives_and_inverses(f.data)):
        assert got[0] == "error"


@settings(deadline=None, max_examples=40)
@given(table_and_virtual(), st.data())
def test_a_candidate_moved_by_one_is_not_certified(tfc, data):
    table, f, coeffs = tfc
    assume(any(coeffs))
    nums, den = groupdata._decompose(f, table)
    pr = table._packed
    fden = lcm(*(v.den for v in f.values))
    coords = [[x * (fden // v.den) for x in _coords(v, pr.order)] for v in f.values]
    args = (table, pr, nums, den // fden, fden, coords)
    assert groupdata._certified(*args) == den
    nonzero = [j for j, x in enumerate(nums) if x]
    for j in [data.draw(st.sampled_from(nonzero)), data.draw(st.integers(0, len(nums) - 1))]:
        moved = list(nums)
        moved[j] += data.draw(st.sampled_from([1, -1]))
        assert groupdata._certified(*args[:2], moved, *args[3:]) is None


@settings(deadline=None, max_examples=40)
@given(table_and_virtual(), st.data())
def test_unvalidated_non_basis_table_fails_the_reconstruction(tfc, data):
    table, f, coeffs = tfc
    k = table.classes.class_count
    lost = data.draw(st.integers(1, k - 1))
    # chi_lost replaced by a copy of the trivial character: not a basis any more
    rows = list(table.irreducibles)
    rows[lost] = rows[0]
    fake = CharacterTable(table.classes, rows, table.labels)
    got = outcome(decompose, f, fake)
    assert got == outcome(reference_decompose, f, fake)
    if coeffs[lost]:
        assert got == ("error", "class function is outside the span of the irreducibles")


def cyclic3():
    """Class data of the cyclic group of order 3."""
    return ClassData(3, 3, ["1", "a", "a2"], [1, 1, 1], [1, 3, 3], [0, 2, 1],
                     {2: [0, 2, 1], 3: [0, 0, 0]})


def test_slot_width_bound_is_tight():
    # 3 classes, phi(3) = 2 and coordinates of 30 and 31 bits: the middle slot
    # of the packed sum is 6 (2^30 - 1)(2^31 - 1) > 2^63, one bit beyond a
    # 64-bit slot, so the sum needs the 128-bit width the bound gives
    cd = cyclic3()
    x, y = 2**30 - 1, 2**31 - 1
    f = ClassFunction(cd, [Cyclotomic(3, [x, x])] * 3)
    f2 = ClassFunction(cd, [Cyclotomic(3, [y, y])] * 3)
    assert same(inner_product(f, f2), reference_inner_product(f, f2))
    assert inner_product(f, f2) == Cyclotomic(3, [0, x * y])


def test_validate_table_reports_are_unchanged():
    # D2n:5 with one value moved by a 10th root of unity and a rational value
    # stored at order 20; the report was recorded with the Cyclotomic loops,
    # so each value prints at the order Cyclotomic arithmetic gives it
    table = get_group("D2n", 5)
    rows = [list(chi.values) for chi in table.irreducibles]
    rows[2][1] = rows[2][1] + Cyclotomic.root_of_unity(10)
    rows[1][2] = (rows[1][2] + 1).lift(20)
    bad = CharacterTable(table.classes, [ClassFunction(table.classes, r) for r in rows],
                         table.labels)
    assert validate_table(bad) == [
        "<chi1,chi2> = 1/5, expected 0",
        "<chi1,tau1> = 1/5*z10, expected 0",
        "<chi2,chi2> = 8/5, expected 1",
        "<chi2,tau1> = -1/5+1/5*z10-1/5*z10^2+1/5*z10^3, expected 0",
        "<chi2,tau2> = -1/5-1/5*z5^2-1/5*z5^3, expected 0",
        "<tau1,tau1> = 7/5-2/5*z10+3/5*z10^2, expected 1",
        "<tau1,tau2> = -1/5-1/5*z10^2, expected 0",
        "column product C0,C1 = 2-2*z10+2*z10^2-2*z10^3, expected 0",
        "column product C0,C2 = 1, expected 0",
        "column product C1,C1 = 7, expected 5",
        "column product C1,C2 = -z20^4, expected 0",
        "column product C2,C2 = 8, expected 5",
        "column product C2,Cr = -1, expected 0",
        "tau1 at inverse of C1 is not the conjugate",
    ]


# every builtin table small enough for the reference's Cyclotomic loops
BUILTINS = TABLES + [("A4", None), ("G21", None), ("S4", None), ("A5", None)]


SQRT_M1 = Cyclotomic.root_of_unity(4)
# A A^T = I and A (1,1,1) = (1,1,1), but A is not real: A = J - 2I + iK for
# the all-ones J and the cross product K with (1,1,1)
MIX = [[-1, 1 - SQRT_M1, 1 + SQRT_M1], [1 + SQRT_M1, -1, 1 - SQRT_M1],
       [1 - SQRT_M1, 1 + SQRT_M1, -1]]


def rational_class_members(cd):
    """The classes of each rational class, keyed by its representative."""
    members = {}
    for c, (r, _) in enumerate(cd.rational_classes()[0]):
        members.setdefault(r, []).append(c)
    return members


def with_sizes(cd, sizes):
    return ClassData(cd.group_order, cd.exponent, cd.names, sizes, cd.rep_orders,
                     cd.inverse_class, cd.prime_power_maps)


@st.composite
def altered_table(draw):
    """A builtin table with one value moved by +-1 or a root of unity, two
    value columns swapped, one row scaled, or three rows of one degree mixed
    by MIX; or with the two columns of a rational class of two classes
    swapped, or the sizes of two classes of two rational classes exchanged.
    Mixed rows keep the degrees and the row identities, but not chi(c^-1) =
    conj chi(c) nor the column identities.  Columns swapped inside a
    rational class {c, c^u} keep every row Galois compatible, so the row
    identities run over the rational classes; exchanged sizes break the
    constant size of a rational class of more classes than c and c^-1, and
    keep the structural checks (equal sum, size of c^-1 that of c)."""
    table = get_group(*draw(st.sampled_from(BUILTINS)))
    cd, k = table.classes, table.classes.class_count
    rows = [list(chi.values) for chi in table.irreducibles]
    # roots of unity of order dividing 2N, stored at order 2N
    unit = st.sampled_from([1, -1]).map(as_cyclotomic) | st.integers(
        0, 2 * cd.exponent - 1).map(lambda e: Cyclotomic.root_of_unity(2 * cd.exponent, e))
    index = st.integers(0, k - 1)
    degrees = table.degrees()
    triples = [t for t in combinations(range(k), 3) if len({degrees[j] for j in t}) == 1]
    members, inv = rational_class_members(cd), cd.inverse_class
    rep = [r for r, _ in cd.rational_classes()[0]]
    galois_pairs = [cs for cs in members.values() if len(cs) == 2]
    size_pairs = [(c, c2) for c, c2 in combinations(range(1, k), 2)
                  if rep[c] != rep[c2] and cd.sizes[c] != cd.sizes[c2]
                  and (inv[c] == c) == (inv[c2] == c2) and not set(members[rep[c]]) <= {c, inv[c]}]
    kind = draw(st.sampled_from(["move", "swap", "scale"] + ["mix"] * bool(triples)
                                + ["galois swap"] * bool(galois_pairs)
                                + ["sizes"] * bool(size_pairs)))
    if kind == "mix":
        t = draw(st.sampled_from(triples))
        mixed = [[sum((a * rows[j][c] for a, j in zip(m, t)), as_cyclotomic(0))
                  for c in range(k)] for m in MIX]
        for j, row in zip(t, mixed):
            rows[j] = row
    elif kind == "move":
        j, c = draw(index), draw(index)
        rows[j][c] = rows[j][c] + draw(unit)
    elif kind in ("swap", "galois swap"):
        if kind == "swap":
            c, c2 = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        else:
            c, c2 = draw(st.sampled_from(galois_pairs))
        for row in rows:
            row[c], row[c2] = row[c2], row[c]
    elif kind == "sizes":
        sizes = list(cd.sizes)
        c, c2 = draw(st.sampled_from(size_pairs))
        for a, b in {(c, c2), (inv[c], inv[c2])}:
            sizes[a], sizes[b] = sizes[b], sizes[a]
        cd = with_sizes(cd, sizes)
    else:
        j, s = draw(index), draw(st.sampled_from([2, 3]).map(as_cyclotomic) | unit)
        rows[j] = [v * s for v in rows[j]]
    return CharacterTable(cd, [ClassFunction(cd, r) for r in rows], table.labels)


@settings(deadline=None, max_examples=150)
@given(altered_table())
def test_validate_table_reports_what_the_column_loop_reference_reports(table):
    assert validate_table(table) == reference_validate_table(table)


def test_an_inverse_map_off_the_power_maps_reports_what_the_reference_reports():
    # Hp:5 with the inverse map conjugated by the transposition of the central
    # classes C(1) and C(2): still a size- and order-preserving involution, so
    # the structural checks pass, but no power map, so chi(c^-1) = conj chi(c)
    # fails, and the row identities are no sums over the rational classes
    table = get_group("Hp", 5)
    cd, swap = table.classes, list(range(table.classes.class_count))
    swap[1], swap[2] = 2, 1
    inverse = [swap[cd.inverse_class[swap[c]]] for c in range(cd.class_count)]
    cd = ClassData(cd.group_order, cd.exponent, cd.names, cd.sizes, cd.rep_orders, inverse,
                   cd.prime_power_maps)
    bad = CharacterTable(cd, [ClassFunction(cd, chi.values) for chi in table.irreducibles],
                         table.labels)
    assert cd.structural_problems() == []
    report = validate_table(bad)
    assert report == reference_validate_table(bad)
    assert any("is not the conjugate" in line for line in report)
    assert any(line.startswith("<") for line in report)


def test_a_value_moved_off_a_representative_reports_what_the_reference_reports():
    # D2n:5 with chi_j(c) + 1 for c = r^2, in the rational class of r: a real
    # value, so chi(c^-1) = conj chi(c) still holds, but only the row of chi_j
    # stops being Galois compatible, and the row identities run over every class
    table = get_group("D2n", 5)
    cd = table.classes
    c = next(c for c, (r, _) in enumerate(cd.rational_classes()[0]) if r != c)
    for j in range(1, cd.class_count):
        rows = [list(chi.values) for chi in table.irreducibles]
        rows[j][c] = rows[j][c] + 1
        bad = CharacterTable(cd, [ClassFunction(cd, r) for r in rows], table.labels)
        report = validate_table(bad)
        assert report == reference_validate_table(bad)
        assert any(line.startswith(f"<{table.labels[j]},") for line in report), j


def test_sizes_exchanged_across_rational_classes_report_what_the_reference_reports():
    # A5 with the sizes 15 of C2 and 12 of C5 exchanged: the sum and the
    # structural checks hold, but C4 and C5, one rational class, differ in
    # size, and the row identities run over every class
    table = get_group("A5")
    cd = with_sizes(table.classes, [1, 12, 20, 12, 15])
    bad = CharacterTable(cd, [ClassFunction(cd, chi.values) for chi in table.irreducibles],
                         table.labels)
    assert cd.structural_problems() == []
    report = validate_table(bad)
    assert report == reference_validate_table(bad)
    assert any(line.startswith("<") for line in report)


def test_builtins_at_their_family_caps_validate_without_a_class_sum(monkeypatch):
    real, calls = groupdata.packed_dot, []
    monkeypatch.setattr(groupdata, "packed_dot", lambda *a: calls.append(a) or real(*a))
    for selector in [(f, None) for f in catalog.FIXED_FAMILIES] + list(catalog.PARAM_CAPS.items()):
        catalog.get_group.__wrapped__(*selector)  # a fresh build; raises if invalid
        assert calls == [], selector


def test_a_cold_build_scans_no_coordinate_bound_until_the_first_decompose(monkeypatch):
    # validation packs no class sum here, so the table's packed rows take only
    # the common denominator; the coordinates' bit bound is scanned once, when
    # the first decompose certifies its candidate
    for selector in [("D2n", 50), ("Hp", 7)]:
        real, calls = groupdata.pack_bounds, []
        monkeypatch.setattr(groupdata, "pack_bounds", lambda *a: calls.append(a) or real(*a))
        table = catalog.get_group.__wrapped__(*selector)
        assert calls == [], selector
        chis = table.irreducibles
        f = chis[1] * chis[-1] + chis[-2] * chis[-2]
        assert decompose(f, table) == tuple(
            reference_inner_product(f, chi).to_rational() for chi in chis), selector
        assert len(calls) == 1, selector
        monkeypatch.undo()


def test_valid_builtin_tables_report_nothing():
    for selector in BUILTINS:
        table = get_group(*selector)
        assert validate_table(table) == reference_validate_table(table) == [], selector


def _a5_at_root_order_60():
    # irrational values of order 60, which does not divide the exponent 30
    a5 = get_group("A5")
    cd = a5.classes
    return CharacterTable(cd, [ClassFunction(cd, [v.lift(60) for v in chi.values])
                               for chi in a5.irreducibles], a5.labels)


def _packed_dot_calls(monkeypatch, table):
    real, calls = groupdata.packed_dot, []
    monkeypatch.setattr(groupdata, "packed_dot", lambda *a: calls.append(a) or real(*a))
    assert validate_table(table) == []
    monkeypatch.undo()
    return len(calls)


def test_a_valid_table_runs_only_the_row_class_sums(monkeypatch):
    # the column identities follow from the row identities and the conjugation
    # check, so a valid table runs no column class sum.  Compatible rows check
    # each row identity as a trace dot product over the rational classes, with
    # no packed class sum; rows that are not compatible run the k(k+1)/2 row
    # class sums, not k(k+1)
    assert _packed_dot_calls(monkeypatch, get_group("D2n", 50)) == 0
    for table in (_a5_at_root_order_60(), a4_with_an_identity_5_power_map()):
        k = table.classes.class_count
        assert _packed_dot_calls(monkeypatch, table) == k * (k + 1) // 2


def test_the_conjugation_check_conjugates_each_distinct_value_once(monkeypatch):
    # a freshly assembled table: the cached one holds the conjugates already
    table = catalog._hp(7)
    irrational = {(v.order, v.num, v.den) for chi in table.irreducibles for v in chi.values
                  if not v.is_rational()}
    real, calls = Cyclotomic.galois, []
    monkeypatch.setattr(Cyclotomic, "galois", lambda v, u: calls.append(v) or real(v, u))
    assert validate_table(table) == []
    # Hp:7 has exponent 7 and unit primes 2, 3 and 5: reading compatibility
    # takes sigma_2, sigma_3 and sigma_5 of each distinct irrational value
    # once, and the conjugation sigma_6 = sigma_2 sigma_3 composes their id
    # lists (_hp gives every prime map, so assembly takes none)
    assert len(irrational) == 12 and len(calls) == 3 * 12


# ---------------------------------------------------------------------------
# decompose on 64-bit words: a row whose slot bounds stay below 2^63 takes
# its candidate off one packed dot product and its certificate as one
# comparison over every class; a wider row keeps the row-by-row candidate
# and the class-by-class certificate


@contextmanager
def wide_slots():
    """Every slot bound in groupdata widened past one word, so every row
    takes the row-by-row candidate and the class-by-class certificate."""
    real = groupdata.slot_width
    with mock.patch.object(groupdata, "slot_width", lambda *a: max(real(*a), 128)):
        yield


@contextmanager
def slot_paths():
    """Records "word candidate", "word certificate" and ("wide certificate",
    width) for each decomposition step that takes that path."""
    calls, P = [], groupdata._PackedRows
    slots, rows, columns = groupdata.word_slots, P.word_rows, P.columns

    def wide(pr, table, w):
        calls.append(("wide certificate", w))
        return columns(pr, table, w)

    with mock.patch.object(groupdata, "word_slots",
                           lambda *a: calls.append("word candidate") or slots(*a)), \
         mock.patch.object(P, "word_rows",
                           lambda pr, t: calls.append("word certificate") or rows(pr, t)), \
         mock.patch.object(P, "columns", wide):
        yield calls


@st.composite
def combination_off_the_span(draw):
    """A builtin table and f = sum_j q_j chi_j with numerators of up to 3,
    20, 40, 56 or 70 bits: rational (q constant on the character orbits),
    irrational, or virtual (q of either sign, so slots go negative); then
    moved off the span at one class by a rational or a root of unity, or
    not."""
    table = get_group(*draw(st.sampled_from(BUILTINS + [("D2n", 50), ("Hp", 7)])))
    cd, k = table.classes, table.classes.class_count
    bits = draw(st.sampled_from([3, 20, 40, 56, 70]))
    kind = draw(st.sampled_from(["rational", "irrational", "virtual"]))
    low = -(2**bits) if kind == "virtual" else 0
    qs = [Fraction(draw(st.integers(low, 2**bits)), draw(st.sampled_from([1, 1, 2, 3])))
          for _ in range(k)]
    if kind == "rational":
        qs = [qs[r] for r, _ in table.character_orbits()[0]]
    f = ClassFunction.constant(cd, 0)
    for q, chi in zip(qs, table.irreducibles):
        f = f + chi * q
    move = draw(st.sampled_from([None, "rational", "root"]))
    if move:
        c = draw(st.integers(0, k - 1))
        by = (Cyclotomic.root_of_unity(cd.exponent) if move == "root"
              else Cyclotomic.from_rational(draw(st.sampled_from([-1, 1, Fraction(1, 2)]))))
        f = ClassFunction(cd, [v + by if i == c else v for i, v in enumerate(f.values)])
    return table, f, bits


@settings(deadline=None, max_examples=80)
@given(combination_off_the_span())
def test_the_word_path_and_the_per_class_path_give_the_same_decomposition(tfb):
    table, f, bits = tfb
    with slot_paths() as calls:
        got = outcome(groupdata._decompose, f, table)
    with wide_slots(), slot_paths() as wide:
        assert outcome(groupdata._decompose, f, table) == got
    assert "word candidate" not in wide and "word certificate" not in wide
    # narrow rows of an irrational f take words on both sides
    if bits <= 20 and not all(v.is_rational() for v in f.values):
        assert "word candidate" in calls and "word certificate" in calls
        assert not any(isinstance(c, tuple) and c[1] > 64 for c in calls)


def test_the_hp7_tau1_column_crosses_from_word_slots_to_wide_slots():
    # S^n(tau_1) on Hp:7 is certified on words to n = 590 and on 128-bit
    # slots from n = 591; the stdout digest was recorded before decompose
    # read any row off words
    argv = ["decompose", "--group", "Hp:7", "--char", "tau_1", "--op", "sym", "--degree", "600"]
    out = io.StringIO()
    with slot_paths() as calls, redirect_stdout(out):
        assert cli.main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "7757b80e6fb78fff408bf94dcbd146e98eb31e63330a97dd3eacae9c2a4cb16a")
    assert "word candidate" in calls and "word certificate" in calls
    assert ("wide certificate", 128) in calls


def _narrow_general_inputs(table, f):
    """(pr, nums, d, fden, coords, idx, xs): the inputs of ``_certified`` and
    of ``candidate`` for f's general-path decomposition."""
    nums, den = groupdata._decompose(f, table)
    pr, cd = table._packed, table.classes
    fden = lcm(*(v.den for v in f.values))
    coords = [[x * (fden // v.den) for x in _coords(v, pr.order)] for v in f.values]
    _, classes = pr.trace_weights(table)
    idx, xs = groupdata._trace_terms(coords, classes, cd.inverse_class, totient(pr.order))
    return pr, nums, den // fden, fden, coords, idx, xs


@pytest.mark.parametrize("extra, wide", [(0, False), (1, True)])
def test_a_slot_bound_one_bit_past_a_word_takes_the_wide_path(monkeypatch, extra, wide):
    # the bounds are raised by hand to their last value inside one word, then
    # one bit past it: the same numbers, certified on either path
    table = get_group("D2n", 5)
    tau1, tau2 = table.character("tau1"), table.character("tau2")
    f = tau1 * tau2 + tau1
    pr, nums, d, fden, coords, idx, xs = _narrow_general_inputs(table, f)
    k = table.classes.class_count
    # the certificate: sum_j nums_j C_j has slots below k 2^(numbits + bits)
    numbits = max(map(abs, nums)).bit_length()
    monkeypatch.setattr(pr, "bits", 63 - numbits - k.bit_length() + extra)
    assert slot_width(numbits, pr.bits, k, 1) == (128 if wide else 64)
    with slot_paths() as calls:
        assert groupdata._certified(table, pr, nums, d, fden, coords) == d * fden
    assert calls == ([("wide certificate", 128)] if wide else ["word certificate"])
    # the candidate: its slots are below len(idx) 2^(wbits + xbits)
    xbits = max(map(abs, xs)).bit_length()
    monkeypatch.setattr(pr, "wbits", 63 - xbits - len(idx).bit_length() + extra)
    with slot_paths() as calls:
        assert pr.candidate(table, idx, xs) == nums
    assert calls == ([] if wide else ["word candidate"])
