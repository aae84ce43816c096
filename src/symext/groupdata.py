"""Conjugacy-class data, character tables and class functions.

A finite group enters the engine only through its class-level skeleton: class
sizes, representative orders, the inverse-class pairing and the power maps
class(g) -> class(g^p).  Character values are exact cyclotomic numbers, so the
inner product and every decomposition below is exact.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .exactnum import (
    Cyclotomic,
    NotRationalError,
    Scalar,
    _coords,
    as_cyclotomic,
    divisors,
    moebius,
    pack,
    pack_bounds,
    packed_dot,
    prime_factors,
    primes_below,
    product_order,
    slot_width,
    totient,
    unit_lift,
)


class TableMismatchError(ValueError):
    """Class functions over different class data were combined."""


class NonRationalMultiplicityError(ValueError):
    """A decomposition produced a non-rational inner product."""


class NonIntegralMultiplicityError(ValueError):
    """A certified-integral decomposition came out fractional or negative."""


class ClassData:
    """The conjugacy-class skeleton of a finite group.

    ``prime_power_maps`` holds, for each stored prime p, the map sending the
    class of g to the class of g^p.  Maps for every prime below the exponent
    are kept so that the power map for an arbitrary n can be assembled by
    factoring n mod exponent; constructors in this package always provide
    them (spec files may omit unit primes, which are then derived from the
    character table by Galois matching, see ``assemble_table``).
    """

    __slots__ = (
        "group_order",
        "exponent",
        "names",
        "sizes",
        "rep_orders",
        "inverse_class",
        "prime_power_maps",
        "_power_cache",
        "_orbits",
    )

    def __init__(
        self,
        group_order: int,
        exponent: int,
        names: Sequence[str],
        sizes: Sequence[int],
        rep_orders: Sequence[int],
        inverse_class: Sequence[int],
        prime_power_maps: Mapping[int, Sequence[int]],
    ):
        self.group_order = group_order
        self.exponent = exponent
        self.names = tuple(names)
        self.sizes = tuple(sizes)
        self.rep_orders = tuple(rep_orders)
        self.inverse_class = tuple(inverse_class)
        self.prime_power_maps = {p: tuple(m) for p, m in prime_power_maps.items()}
        self._power_cache: dict[int, tuple[int, ...]] = {}
        self._orbits: tuple | None = None

    @property
    def class_count(self) -> int:
        return len(self.names)

    def power_map(self, n: int) -> tuple[int, ...]:
        """The map class(g) -> class(g^n); n is reduced modulo the exponent."""
        if n < 0:
            raise ValueError("power must be nonnegative")
        n %= self.exponent
        cached = self._power_cache.get(n)
        if cached is not None:
            return cached
        k = self.class_count
        if n == 0:
            out = (0,) * k
        elif n == 1:
            out = tuple(range(k))
        else:
            current = list(range(k))
            for p, e in prime_factors(n).items():
                step = self.prime_power_maps.get(p)
                if step is None:
                    raise KeyError(f"no stored power map for prime {p}")
                for _ in range(e):
                    current = [step[c] for c in current]
            out = tuple(current)
        self._power_cache[n] = out
        return out

    def rational_classes(self) -> tuple[tuple[tuple[int, int], ...], dict[int, list[int]]]:
        """(orbit, stabilizers): orbit[c] = (r, u) with class(r^u) = c, for r
        the first class of c's rational class (its Galois orbit) and u a unit
        mod the exponent; stabilizers[r], keyed by the representatives in
        order, generates the units u with r^u in r."""
        if self._orbits is None:
            e, k = self.exponent, self.class_count
            orbit, stabs = [None] * k, {}
            units = [u for u in range(1, e + 1) if gcd(u, e) == 1]
            maps = [self.power_map(u) for u in units]
            for r in range(k):
                if orbit[r] is None:
                    gens, span = stabs.setdefault(r, []), {1 % e}
                    for u, pm in zip(units, maps):
                        c = pm[r]
                        orbit[c] = orbit[c] or (r, u)
                        if c == r and u % e not in span:
                            gens.append(u)
                            cosets, x = [1], u % e  # u^i below the order of u mod span
                            while x not in span:
                                cosets.append(x)
                                x = x * u % e
                            span = {s * x % e for s in span for x in cosets}
            self._orbits = (tuple(orbit), stabs)
        return self._orbits

    def galois_image(self, v: Cyclotomic, u: int) -> Cyclotomic:
        """sigma_u(v) for a unit u mod the exponent and v at an order dividing it."""
        return v if v.is_rational() else v.galois(u)

    def galois_orbits(self, values: Sequence[Cyclotomic]) -> tuple[tuple[int, int], ...]:
        """The orbit table of ``rational_classes`` if f(r^u) = sigma_u(f(r)) at
        the same order for all r, u (one image per class off the representatives,
        and f(r) fixed by each stabilizer generator; irrational values at orders
        dividing the exponent), else (c, 1) for every class c."""
        orbit, stabs = self.rational_classes()

        def maps(r: int, u: int, c: int) -> bool:
            v, w = self.galois_image(values[r], u), values[c]
            return (v.order, v.num, v.den) == (w.order, w.num, w.den)

        ok = (all(v.is_rational() or self.exponent % v.order == 0 for v in values)
              and all(maps(r, u, c) for c, (r, u) in enumerate(orbit) if r != c)
              and all(maps(r, s, r) for r, gens in stabs.items() for s in gens))
        return orbit if ok else tuple((c, 1) for c in range(self.class_count))

    def structural_problems(self) -> list[str]:
        """Violations of the class-data invariants (empty list means valid)."""
        probs: list[str] = []
        k = self.class_count
        if sum(self.sizes) != self.group_order:
            probs.append("class sizes do not sum to the group order")
        if self.sizes[0] != 1 or self.rep_orders[0] != 1:
            probs.append("class 0 is not a size-1 identity class of order 1")
        inv = self.inverse_class
        if sorted(inv) != list(range(k)):
            probs.append("inverse_class is not a permutation")
        else:
            for c in range(k):
                if inv[inv[c]] != c:
                    probs.append(f"inverse_class is not an involution at {self.names[c]}")
                if self.sizes[c] != self.sizes[inv[c]]:
                    probs.append(f"inverse class of {self.names[c]} has a different size")
                if self.rep_orders[c] != self.rep_orders[inv[c]]:
                    probs.append(f"inverse class of {self.names[c]} has a different order")
        if self.exponent != lcm(*self.rep_orders):
            probs.append("exponent is not the lcm of element orders")
        if self.group_order % self.exponent:
            probs.append("exponent does not divide the group order")
        for p, m in self.prime_power_maps.items():
            if m[0] != 0:
                probs.append(f"{p}-power map does not fix the identity class")
            for c in range(k):
                r = self.rep_orders[c]
                if self.rep_orders[m[c]] != r // gcd(p, r):
                    probs.append(
                        f"{p}-power map sends {self.names[c]} to a class of wrong order"
                    )
        try:
            for c in range(k):
                if self.power_map(self.rep_orders[c])[c] != 0:
                    probs.append(f"rep_order power of {self.names[c]} misses the identity")
        except KeyError as exc:
            probs.append(str(exc))
        return probs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassData):
            return NotImplemented
        return (
            self.group_order == other.group_order
            and self.exponent == other.exponent
            and self.names == other.names
            and self.sizes == other.sizes
            and self.rep_orders == other.rep_orders
            and self.inverse_class == other.inverse_class
            and self.prime_power_maps == other.prime_power_maps
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ClassData(order={self.group_order}, classes={self.class_count})"


class ClassFunction:
    """A function on conjugacy classes with exact cyclotomic values."""

    __slots__ = ("data", "values", "_orbits")

    def __init__(self, data: ClassData, values: Iterable[Scalar]):
        self.data, self._orbits = data, None
        self.values = tuple(v if type(v) is Cyclotomic else as_cyclotomic(v) for v in values)
        if len(self.values) != data.class_count:
            raise ValueError("one value per conjugacy class required")

    @classmethod
    def _trusted(cls, data: ClassData, values: tuple[Cyclotomic, ...]) -> "ClassFunction":
        """A class function of ``values``, already one Cyclotomic per class."""
        f = object.__new__(cls)
        f.data, f.values, f._orbits = data, values, None
        return f

    @property
    def galois_orbits(self) -> tuple[tuple[int, int], ...]:
        """``data.galois_orbits(values)``, found on the first read and kept."""
        self._orbits = self._orbits or self.data.galois_orbits(self.values)
        return self._orbits

    @staticmethod
    def constant(data: ClassData, value: Scalar) -> "ClassFunction":
        return ClassFunction(data, [value] * data.class_count)

    def __call__(self, c: int) -> Cyclotomic:
        return self.values[c]

    def _check(self, other: "ClassFunction") -> None:
        if self.data is not other.data and self.data != other.data:
            raise TableMismatchError("class functions live over different class data")

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(self.data, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(self.data, [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self) -> "ClassFunction":
        return ClassFunction(self.data, [-a for a in self.values])

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._check(other)
            return ClassFunction(self.data, [a * b for a, b in zip(self.values, other.values)])
        other = as_cyclotomic(other)
        return ClassFunction(self.data, [a * other for a in self.values])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ClassFunction":
        return ClassFunction(self.data, [v**n for v in self.values])

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.data == other.data and all(a == b for a, b in zip(self.values, other.values))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "ClassFunction(" + ", ".join(repr(v) for v in self.values) + ")"


class CharacterTable:
    """Class data together with the irreducible characters over it."""

    __slots__ = ("classes", "irreducibles", "labels", "name", "_columns", "_packed", "_orbits",
                 "_route")

    def __init__(
        self,
        classes: ClassData,
        irreducibles: Sequence[ClassFunction],
        labels: Sequence[str],
        name: str = "",
        columns: _Columns | None = None,
    ):
        if len(irreducibles) != classes.class_count:
            raise ValueError("need as many irreducibles as conjugacy classes")
        if len(labels) != len(irreducibles):
            raise ValueError("need one label per irreducible")
        self.classes = classes
        self.irreducibles = tuple(irreducibles)
        self.labels = tuple(labels)
        self.name = name
        # the ids of every value, unless ``assemble_table`` built them first
        self._columns = columns or _Columns([chi.values for chi in self.irreducibles])
        self._packed: _PackedRows | None = None  # built by validate_table or decompose
        self._orbits: tuple | None = None  # built by character_orbits
        self._route: tuple | None = None  # built by _rational_orbit

    def degrees(self) -> tuple[int, ...]:
        return tuple(int(chi.values[0].to_rational()) for chi in self.irreducibles)

    def character_orbits(self) -> tuple[tuple[tuple[int, int], ...], dict]:
        """(orbit, perms): orbit[j] = (r, u) with chi_j(c) = chi_r(c^u) at
        every class c, for r the first row of chi_j's orbit and u a unit mod
        the exponent; perms[u][i] is the index of the row c -> chi_i(c^u).
        If for some unit u and row i that function is no row, or u does not
        permute the rows, the table is the identity: every chi_j is its own
        orbit (j, 1) and perms = {1: identity}.  Rows are compared as tuples
        of value ids (``_columns``).  On a valid table c -> chi_i(c^u) is the
        Galois image sigma_u(chi_i), and the orbits are as many as the
        rational classes (Brauer's permutation lemma, Isaacs, Character
        Theory of Finite Groups, Thm 6.32)."""
        if self._orbits is None:
            cd, k = self.classes, self.classes.class_count
            rows = self._columns.rows
            index = {row: j for j, row in enumerate(rows)}
            perms = {}
            for u in (u for u in range(1, cd.exponent + 1) if gcd(u, cd.exponent) == 1):
                pm = cd.power_map(u)
                perms[u] = tuple(index.get(tuple(map(row.__getitem__, pm))) for row in rows)
                if None in perms[u] or len(set(perms[u])) < k:
                    perms = {1: tuple(range(k))}
                    break
            orbit = [None] * k
            for r in range(k):
                if orbit[r] is None:
                    for u, perm in perms.items():
                        orbit[perm[r]] = orbit[perm[r]] or (r, u)
            self._orbits = (tuple(orbit), perms)
        return self._orbits

    def character(self, label: str) -> ClassFunction:
        try:
            return self.irreducibles[self.labels.index(label)]
        except ValueError:
            raise KeyError(f"no irreducible labelled {label!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CharacterTable):
            return NotImplemented
        return (
            self.classes == other.classes
            and self.labels == other.labels
            and all(a == b for a, b in zip(self.irreducibles, other.irreducibles))
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        tag = self.name or f"order {self.classes.group_order}"
        return f"CharacterTable({tag}, {self.classes.class_count} classes)"


def regular_character(data: ClassData) -> ClassFunction:
    """|G| at the identity class, 0 elsewhere."""
    vals = [0] * data.class_count
    vals[0] = data.group_order
    return ClassFunction(data, vals)


def adams(f: ClassFunction, n: int) -> ClassFunction:
    """The n-th power operation on class functions: result(g) = f(g^n)."""
    if n < 1:
        raise ValueError("power must be >= 1")
    pm = f.data.power_map(n)
    return ClassFunction(f.data, [f.values[pm[c]] for c in range(f.data.class_count)])


def _pair_sums(
    xrows: Sequence[Sequence[Cyclotomic]],
    yrows: Sequence[Sequence[Cyclotomic]],
    scales: Sequence[int] | None = None,
    n: int = 0,
) -> Iterator[tuple[int, int, list[int], int]]:
    """(i, j, coordinates, denominator) of the packed class sum of
    scale*xrows[i]*yrows[j] for every i <= j, at order n (default: the lcm
    order of all values)."""
    n = n or lcm(*(v.order for row in (*xrows, *yrows) for v in row))
    xden, xbits = pack_bounds([v for r in xrows for v in r], n, scales and scales * len(xrows))
    yden, ybits = pack_bounds([v for r in yrows for v in r], n)
    w = slot_width(xbits, ybits, max(map(len, xrows), default=0), n)
    ys = [pack(r, n, yden, w) for r in yrows]
    for i, row in enumerate(xrows):
        x = pack(row, n, xden, w, scales)
        for j in range(i, len(ys)):
            yield i, j, packed_dot(x, ys[j], w, n), xden * yden


def _dot(
    xs: Sequence[Cyclotomic], ys: Sequence[Cyclotomic], scales: Sequence[int] | None = None
) -> Cyclotomic:
    """sum_c scale_c*x_c*y_c at the order Cyclotomic arithmetic gives it."""
    n = lcm(*map(product_order, xs, ys))
    _, _, coords, den = next(_pair_sums([xs], [ys], scales, n))
    return Cyclotomic._raw(n, coords, den)


def inner_product(f: ClassFunction, f2: ClassFunction) -> Cyclotomic:
    """(1/|G|) sum over classes of size * f(c) * f2(inverse class of c)."""
    f._check(f2)
    cd = f.data
    return _dot(f.values, [f2.values[i] for i in cd.inverse_class], cd.sizes) / cd.group_order


class _PackedRows:
    """A table's irreducible values at one order over one denominator, packed
    for ``decompose`` and held as per-class columns; repacked only when wider
    slots are needed.  ``bits``, the bit length of the largest coordinate,
    is scanned by the first ``columns`` call."""

    __slots__ = ("order", "den", "bits", "packed", "weights", "sums")

    def __init__(self, table: CharacterTable, order: int):
        self.order, self.packed, self.bits = order, (0, []), None
        self.weights = self.sums = None  # built by trace_weights and orbit_sums
        self.den = lcm(*(v.den for chi in table.irreducibles for v in chi.values))

    def columns(self, table: CharacterTable, xbits: int, least: int = 0) -> tuple[int, list]:
        """(w, cols): cols[c][j] is den * chi_j(c) packed at a width w, at
        least ``least``, whose slots hold a sum of k products of a value
        below 2^xbits by a coordinate."""
        if self.bits is None:
            self.bits = pack_bounds([v for chi in table.irreducibles for v in chi.values],
                                    self.order)[1]
        w = max(slot_width(xbits, self.bits, table.classes.class_count, 1), least)
        if self.packed[0] < w:
            rows = [pack(chi.values, self.order, self.den, w) for chi in table.irreducibles]
            self.packed = (w, list(zip(*rows)))
        return self.packed

    def orbit_sums(self, table: CharacterTable) -> tuple:
        """(reps, owner, cols) over the orbits O of ``character_orbits``:
        reps[o] is the first row of orbit o, owner[j] the orbit of chi_j and
        cols[c][o] = den * rho_O(c), rho_O = sum_(j in O) chi_j, summed from
        the packed columns; () if no orbit has two rows or a sum is not
        rational, that is, not within one slot (a sum of at most k rows keeps
        each slot below half the width)."""
        if self.sums is None:
            first: dict[int, int] = {}
            owner = [first.setdefault(r, len(first)) for r, _ in table.character_orbits()[0]]
            self.sums = ()
            if len(first) < len(owner):
                groups = [[j for j, o in enumerate(owner) if o == i] for i in range(len(first))]
                w, packed = self.columns(table, 0)
                cols = [[sum(map(col.__getitem__, js)) for js in groups] for col in packed]
                if all(abs(x) < 1 << (w - 1) for col in cols for x in col):
                    self.sums = (list(first), owner, cols)
        return self.sums

    def trace_weights(self, table: CharacterTable) -> tuple[list[list[int]], list[int]]:
        """(weights, classes): per row j, the integers |r| |O_r| sum_a x_a
        T_(a+b) for every r in classes and b < phi(N), where x are the
        coordinates of den * chi_j(r) and T_m = Tr(zeta_N^m) is the Ramanujan
        sum c_N(m); one trace vector per distinct value.  The classes are the
        representatives r of the rational classes O_r when ``_rational_orbit``
        finds them, else every class c, as its own orbit O_c = {c}."""
        if self.weights is None:
            cd, n, weights, vectors = table.classes, self.order, [], {}
            orbit = _rational_orbit(table) or tuple((c, 1) for c in range(cd.class_count))
            counts = Counter(r for r, _ in orbit)  # |O_r| by representative r
            trace, phi = _ramanujan_sums(n), totient(n)
            for chi, ids in zip(table.irreducibles, table._columns.rows):
                w = []
                for r, size in counts.items():
                    if ids[r] not in vectors:
                        v = chi.values[r].lift(n)
                        s, xs = self.den // v.den, [(a, x) for a, x in enumerate(v.num) if x]
                        vectors[ids[r]] = [s * sum(x * trace[a + b] for a, x in xs)
                                           for b in range(phi)]
                    s = cd.sizes[r] * size
                    w += [s * t for t in vectors[ids[r]]]
                weights.append(w)
            self.weights = weights, list(counts)
        return self.weights


def _packed_rows(table: CharacterTable) -> _PackedRows:
    """The table's packed rows, at the lcm order of its values unless a
    decomposition needed a larger one."""
    if table._packed is None:
        table._packed = _PackedRows(
            table, lcm(*(v.order for chi in table.irreducibles for v in chi.values)))
    return table._packed


@cache
def _ramanujan_sums(n: int) -> tuple[int, ...]:
    """T_m = Tr(zeta_n^m) = sum_(d | gcd(m, n)) mu(n/d) d for m < 2 phi(n) - 1."""
    return tuple(sum(moebius(n // d) * d for d in divisors(gcd(m, n)))
                 for m in range(2 * totient(n) - 1))


def _trace_terms(coords, classes: Sequence[int], inverse: Sequence[int], phi: int):
    """(idx, xs): the nonzero coordinates xs of coords[r^-1] for each r of
    the ``trace_weights`` classes, and their positions idx in its rows."""
    idx, xs = [], []
    for p, r in enumerate(classes):
        for a, x in enumerate(coords[inverse[r]]):
            if x:
                idx.append(p * phi + a)
                xs.append(x)
    return idx, xs


def _rational_orbit(table: CharacterTable, clean: bool | None = None) -> tuple | None:
    """The orbit table of ``ClassData.rational_classes`` if the table's
    inner products are sums over its rational classes, else None; read once
    per table.  They are when ``clean`` (default: the class data has no
    structural problem and chi(c^-1) = conj chi(c) holds throughout), the
    irrational values have orders dividing the exponent e, each unit prime
    p < e has a power map that is sigma_p on the value ids of every column,
    and the class sizes are constant on each rational class: then every
    row is Galois compatible, chi(c^u) = sigma_u(chi(c)), and with the
    conjugation identity so is each term |c| chi_i(c) chi_j(c^-1) of
    |G| <chi_i, chi_j>, which is therefore rational."""
    if table._route is None:
        cd, cols, e = table.classes, table._columns, table.classes.exponent
        if clean is None:
            clean = not cd.structural_problems() and not _conjugation_report(table)
        units = [p for p in primes_below(e + 1) if e % p]
        maps = cd.prime_power_maps
        # a check depends only on p mod n and the map of p
        ok = (clean and e % cols.n == 0 and all(p in maps for p in units)
              and all(cols.image(c, u) == cols.cols[m[c]]
                      for u, m in {(p % cols.n, maps[p]) for p in units}
                      for c in range(cd.class_count)))
        orbit = cd.rational_classes()[0] if ok else ()
        if not all(cd.sizes[c] == cd.sizes[r] for c, (r, _) in enumerate(orbit)):
            orbit = ()
        table._route = orbit
    return table._route or None


def _certified(table: CharacterTable, pr: _PackedRows, nums, d, fden: int, coords):
    """d * fden if q_j = nums_j / (d * fden) has sum_j q_j chi_j(c) = f(c) at
    every class, else None, for coords[c] the coordinates of fden * f(c) as
    ``_coords`` gives them; checked as sum_j nums_j R_j[c] = d * pr.den * F[c]
    on packed integers at a width that holds both sides, each class's sum
    running over the j with nums_j != 0 only.  With fewer nums than rows,
    nums_o is the numerator of every row of the o-th character orbit O and
    R_o[c] = den * rho_O(c) is the plain integer of ``orbit_sums``, f being
    rational: then sum_O q_O rho_O = f is the same identity."""
    k, scale = table.classes.class_count, d * pr.den
    if len(nums) < k:
        w, cols = 0, pr.sums[2]
    else:
        fbits = max(abs(x) for xs in coords for x in xs).bit_length()
        w, cols = pr.columns(table, max(map(abs, nums), default=0).bit_length(),
                             slot_width(scale.bit_length(), fbits, 1, 1))
    js = [j for j, x in enumerate(nums) if x]
    qs = [nums[j] for j in js]
    for col, xs in zip(cols, coords):
        packed = 0
        for x in reversed(xs):
            packed = (packed << w) + x
        if sum(map(mul, qs, map(col.__getitem__, js))) != packed * scale:
            return None
    return d * fden


def decompose(f: ClassFunction, table: CharacterTable) -> tuple[Fraction, ...]:
    """Multiplicities of f against the irreducible basis, as exact rationals."""
    nums, den = _decompose(f, table)
    return tuple(Fraction(x, den) for x in nums)


def integral_decompose(f: ClassFunction, table: CharacterTable) -> tuple[int, ...]:
    """The multiplicities of f certified as nonnegative integers, read off by
    divmod; NonIntegralMultiplicityError as ``integral_multiplicities`` words it
    if one is fractional or negative."""
    nums, den = _decompose(f, table)
    qr = [divmod(x, den) for x in nums]
    if any(r or q < 0 for q, r in qr):
        integral_multiplicities([Fraction(x, den) for x in nums])  # raises
    return tuple(q for q, _ in qr)


def _decompose(f: ClassFunction, table: CharacterTable) -> tuple[list[int], int]:
    """(nums, D): the multiplicities of f are nums_j / D.

    The candidate is one integer dot product per row, over the nonzero
    coordinates of the values f(r^-1) at order N only (a rational value has
    at most coordinate 0): each orbit O_r of ``trace_weights`` adds
    |r| |O_r| Tr(chi_j(r) f(r^-1)) / phi(N) to |G| q_j.  Over every class
    that is Tr(<chi_j, f>) / phi(N), so <chi_j, f> when that is rational;
    over the rational classes of compatible rows it is the same for
    compatible f (as is every rational combination of the rows).  The exact
    reconstruction sum_j q_j chi_j = f, summed over the nonzero q_j,
    certifies it.  A rational f (one coordinate per class) tries first the
    character orbits O of ``orbit_sums``: each sigma_u fixes f, so it
    permutes the constituents and a rational q_j is constant on O; one
    candidate per orbit and sum_O q_O rho_O = f on plain integers certify
    it, and failing that f takes the path above.  If that fails, the inner
    products only word the NonRationalMultiplicityError: the first label
    whose one is not rational, else f outside the span.  The zero function is
    the zero vector over 1: sum_j 0 * chi_j = 0 holds identically.
    """
    f._check(table.irreducibles[0])
    cd = table.classes
    if not any(f.values):
        return [0] * cd.class_count, 1
    pr = _packed_rows(table)
    n = lcm(pr.order, *(v.order for v in f.values))
    if n != pr.order:
        pr = table._packed = _PackedRows(table, n)
    fden = lcm(*(v.den for v in f.values))
    coords = [_coords(v, n) if v.den == fden else [x * (fden // v.den) for x in _coords(v, n)]
              for v in f.values]
    weights, classes = pr.trace_weights(table)
    phi = totient(n)
    idx, gz = _trace_terms(coords, classes, cd.inverse_class, phi)
    d = cd.group_order * phi * pr.den
    sums = all(len(xs) == 1 for xs in coords) and pr.orbit_sums(table)
    if sums:
        nums = [sum(map(mul, map(weights[r].__getitem__, idx), gz)) for r in sums[0]]
        den = _certified(table, pr, nums, d, fden, coords)
        if den is not None:
            return [nums[o] for o in sums[1]], den
    nums = [sum(map(mul, map(row.__getitem__, idx), gz)) for row in weights]
    den = _certified(table, pr, nums, d, fden, coords)
    if den is not None:
        return nums, den
    for label, chi in zip(table.labels, table.irreducibles):
        v = inner_product(chi, f)
        if not v.is_rational():
            raise NonRationalMultiplicityError(f"inner product with {label} is not rational: {v!r}")
    raise NonRationalMultiplicityError("class function is outside the span of the irreducibles")


def integral_multiplicities(coeffs: Sequence[Fraction]) -> tuple[int, ...]:
    """Certify a multiplicity vector as nonnegative integers."""
    out = []
    for q in coeffs:
        if q.denominator != 1 or q < 0:
            raise NonIntegralMultiplicityError(
                f"multiplicity {q} is not a nonnegative integer"
            )
        out.append(int(q))
    return tuple(out)


class _Columns:
    """A table's values as small ids, equal ids for equal values
    (``Cyclotomic.__eq__``): a rational is keyed by (numerator, denominator)
    and not lifted, any other value by its coordinates at the lcm order n of
    the irrational values.  ``rows`` and ``cols`` hold the table's rows and
    columns as tuples of ids, ``classes`` the classes of each column."""

    def __init__(self, value_rows: Sequence[Sequence[Cyclotomic]]):
        self.n = lcm(1, *(v.order for row in value_rows for v in row if not v.is_rational()))
        self.ids, self.images, self.classes = {}, {}, {}
        self.rows = [tuple(self.ids.setdefault(self._key(v), len(self.ids)) for v in row)
                     for row in value_rows]
        self.cols = list(zip(*self.rows))
        for c, col in enumerate(self.cols):
            self.classes.setdefault(col, []).append(c)

    def _key(self, v: Cyclotomic) -> tuple:
        if v.is_rational():
            return v.num[0], v.den
        w = v.lift(self.n)
        return w.num, w.den

    def lookup(self, values: Iterable[Cyclotomic]) -> tuple:
        """The ids of values, None for a value in no column; an irrational
        value must be written at an order dividing n."""
        return tuple(self.ids.get(self._key(v)) for v in values)

    def image(self, c: int, u: int) -> tuple:
        """The ids of sigma_u of column c, u a unit mod n; None for a value
        in no column."""
        u %= self.n
        if u == 1 % self.n:
            return self.cols[c]
        return tuple(map(self._images(u).__getitem__, self.cols[c]))

    def _images(self, u: int) -> list:
        """The id of sigma_u of every value, for 1 < u < n a unit mod n: one
        ``galois`` per irrational value and prime u; for a composite u = p v
        the list of p read at the list of v, where sigma_v stays in the table."""
        if u not in self.images:
            p = min(prime_factors(u))
            if p == u:
                out = [i if isinstance(num, int) else self._galois_id(num, den, u)
                       for i, (num, den) in enumerate(self.ids)]
            else:
                first, rest, keys = self._images(p), self._images(u // p), list(self.ids)
                out = [self._galois_id(*keys[i], u) if j is None else first[j]
                       for i, j in enumerate(rest)]
            self.images[u] = out
        return self.images[u]

    def _galois_id(self, num: tuple, den: int, u: int) -> int | None:
        w = Cyclotomic._raw(self.n, num, den).galois(u)
        return self.ids.get((w.num, w.den))


def complete_power_maps(
    exponent: int, prime_maps: Mapping[int, Sequence[int]], cols: _Columns
) -> dict[int, tuple[int, ...]]:
    """Fill in class power maps for every prime below the exponent.

    Maps for primes dividing the exponent must already be present (they are
    not determined by character values).  For a prime p coprime to the
    exponent the map is the column permutation induced by the Galois
    substitution zeta -> zeta^p on the table values, read off the ids of
    ``cols``; the match is unique because distinct classes have distinct
    character columns, and primes alike mod ``cols.n`` share it.
    """
    out = {p: tuple(m) for p, m in prime_maps.items()}
    by_unit: dict[int, tuple[int, ...]] = {}
    for p in primes_below(exponent + 1):
        if p in out:
            continue
        if exponent % p == 0:
            raise KeyError(f"power map for prime {p} (divides exponent) must be given")
        u = unit_lift(p, exponent, cols.n) % cols.n
        if u not in by_unit:
            mapped = []
            for c in range(len(cols.cols)):
                hits = cols.classes.get(cols.image(c, u), ())
                if len(hits) != 1:
                    raise ValueError(
                        f"{p}-power image of class {c} is not determined by the table"
                    )
                mapped.append(hits[0])
            by_unit[u] = tuple(mapped)
        out[p] = by_unit[u]
    return out


def assemble_table(name: str, order: int, names: Sequence[str], sizes: Sequence[int],
                   rep_orders: Sequence[int], inverse: Sequence[int],
                   prime_maps: Mapping[int, Sequence[int]], labels: Sequence[str],
                   rows: Sequence[Sequence[Scalar]]) -> CharacterTable:
    """The table of these classes and value rows: the rows' ids, then the
    power maps of the unit primes from them (``complete_power_maps``), then
    the class data, and a table that keeps the same ids.  KeyError or
    ValueError if a power map is missing or not determined."""
    exponent = lcm(*rep_orders)
    value_rows = [[as_cyclotomic(v) for v in row] for row in rows]
    cols = _Columns(value_rows)
    maps = complete_power_maps(exponent, prime_maps, cols)
    cd = ClassData(order, exponent, names, sizes, rep_orders, inverse, maps)
    return CharacterTable(cd, [ClassFunction(cd, row) for row in value_rows], labels, name, cols)


def power_map_mismatch(table: CharacterTable, maps: Mapping[int, Sequence[int]]) -> str | None:
    """A one-line message naming the first prime p and class g of order o
    prime to p where chi(maps[p][g]) = sigma(chi(g)) fails for sigma: zeta_o
    -> zeta_o^p (Isaacs, Character Theory of Finite Groups, ch. 6), else None."""
    cd, cols = table.classes, table._columns
    for p, m in maps.items():
        for c, o in enumerate(cd.rep_orders):
            if gcd(p, o) == 1 and cols.image(c, unit_lift(p, o, cols.n)) != cols.cols[m[c]]:
                return f"{p}-power map at {cd.names[c]} disagrees with the character table"
    return None


def _row_identities(table: CharacterTable) -> Iterator[tuple[int, int, bool]]:
    """(i, j, whether <chi_i, chi_j> = delta_ij) for every i <= j in order.
    Where ``_rational_orbit`` finds the rational classes each is one integer
    dot product: the ``trace_weights`` row of chi_j against the coordinates
    of den * chi_i at the representatives' inverses is den^2 phi(N) |G|
    <chi_j, chi_i>, that inner product being rational.  Elsewhere each is a
    packed class sum over every class."""
    cd, chis = table.classes, table.irreducibles
    if _rational_orbit(table):
        pr = _packed_rows(table)
        weights, reps = pr.trace_weights(table)
        n, phi = pr.order, totient(pr.order)
        unit = cd.group_order * phi * pr.den * pr.den
        inverses = {cd.inverse_class[r] for r in reps}
        for i, chi in enumerate(chis):
            coords = {c: [x * (pr.den // chi.values[c].den) for x in _coords(chi.values[c], n)]
                      for c in inverses}
            idx, xs = _trace_terms(coords, reps, cd.inverse_class, phi)
            for j in range(i, len(chis)):
                yield i, j, sum(map(mul, map(weights[j].__getitem__, idx), xs)) == unit * (i == j)
    else:
        inv_rows = [[chi.values[c] for c in cd.inverse_class] for chi in chis]
        for i, j, coords, den in _pair_sums([chi.values for chi in chis], inv_rows, cd.sizes):
            want = int(i == j)
            yield i, j, not any(coords[1:]) and Fraction(coords[0], den * cd.group_order) == want


def _conjugation_report(table: CharacterTable) -> list[str]:
    """For each irreducible, the first class c where chi(c^-1) is not conj
    chi(c): the inverse map must implement complex conjugation, sigma_-1,
    on characters, checked on the ids of each conjugated column."""
    cd, ids = table.classes, table._columns
    conj_ids = [ids.image(c, ids.n - 1) for c in range(cd.class_count)]
    report = []
    for j, label in enumerate(table.labels):
        for c, col in enumerate(conj_ids):
            if col[j] != ids.cols[cd.inverse_class[c]][j]:
                report.append(f"{label} at inverse of {cd.names[c]} is not the conjugate")
                break
    return report


def validate_table(table: CharacterTable) -> list[str]:
    """Check every table identity; returns the list of violations (empty = pass).

    The report lists, in this order: the structural problems of the class
    data, the degree checks, the row identities <chi_i, chi_j> = delta_ij,
    the column identities sum_j chi_j(c) conj chi_j(c2) = delta |G|/|c|, and
    for each irreducible the first class where chi(c^-1) is not conj chi(c).

    The row identities run over the rational classes where
    ``_rational_orbit`` finds them, else over every class.

    The column loop runs only when an earlier check, or the conjugation
    check, has failed: otherwise it could report nothing (Isaacs, Character
    Theory of Finite Groups, Thm 2.18).  With the conjugation check passing,
    the row identities say X D conj(X)^T = |G| I for the value matrix X and
    D = diag(|c|).  X is square (the CharacterTable constructor enforces it),
    and inverse_class is a size-preserving involution (the structural
    checks), so X is invertible and D conj(X)^T / |G| is its two-sided
    inverse: conj(X)^T X = |G| D^-1, which is exactly the set of column
    identities.
    """
    report = table.classes.structural_problems()
    cd = table.classes
    k = cd.class_count
    chis = table.irreducibles
    conj_report = _conjugation_report(table)
    _rational_orbit(table, not report and not conj_report)
    # degrees and the sum-of-squares identity
    degs = []
    for j, chi in enumerate(chis):
        v = chi.values[0]
        try:
            d = v.to_rational()
        except NotRationalError:
            report.append(f"degree of {table.labels[j]} is not rational")
            continue
        if d.denominator != 1 or d <= 0:
            report.append(f"degree of {table.labels[j]} is not a positive integer")
        else:
            degs.append(int(d))
    if len(degs) == k and sum(d * d for d in degs) != cd.group_order:
        report.append("sum of squared degrees differs from the group order")
    for i, j, ok in _row_identities(table):
        if not ok:
            v, want = inner_product(chis[i], chis[j]), int(i == j)
            report.append(f"<{table.labels[i]},{table.labels[j]}> = {v!r}, expected {want}")
    # column orthogonality, needed only when the checks above do not imply it
    if report or conj_report:
        cols = [[chi.values[c] for chi in chis] for c in range(k)]
        conj = [[v.conjugate() for v in col] for col in cols]
        for c, c2, coords, den in _pair_sums(cols, conj):
            want = Fraction(cd.group_order, cd.sizes[c]) if c == c2 else Fraction(0)
            if any(coords[1:]) or Fraction(coords[0], den) != want:
                s = _dot(cols[c], conj[c2])
                report.append(
                    f"column product {cd.names[c]},{cd.names[c2]} = {s!r}, expected {want}"
                )
    return report + conj_report
