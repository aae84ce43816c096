"""Exterior/symmetric power operations on class functions.

The power operations are evaluated pointwise on conjugacy classes:

* psi^n(f)(g) = f(g^n) via the class power maps,
* lambda^n from the psi values through the Newton recurrence
  n*lambda^n = sum_{i<n} (-1)^(n+1+i) lambda^i psi^(n-i),
* S^n from the lambda values through S^n = sum_{j>=1} (-1)^(j+1) lambda^j S^(n-j).

The lambda recurrence stops once lambda_t(c) is shown to be a polynomial
(``_scalar_lambdas``), and ``LambdaSequence.syms`` runs the S recurrence
only when it is first read.

``power_sum_check`` recomputes S^n from psi alone as an independent route
and checks every class against it.  The lambda, S and power-sum series
at a class are functions of its psi-sequence (chi(c), chi(c^2), ...,
chi(c^M)) alone; ``compute`` keys each class once by it in a
``SeriesShare``, and each series of an entry runs once (a Galois image of
the series at the representative off the representatives).  The degree
bound and the power-sum comparison run once per entry too, each later class
of an entry shown by ``is`` to hold the values already compared.
The three recurrences run in one engine (``_recurrence``) on integer
coordinates: the given is read once at its working order over its common
denominator, a step is one integer dot product (of packed coordinates, or
of plain integers when every value is rational) and one exact division by
an integer, and its value is built once.  Periodic class
functions (psi^n = psi^gcd(n,|G|) for all n) additionally carry the finite
product form lambda_t = prod (1 - (-t)^a_i)^(b_i/a_i) over the divisors of
the group order, recovered here by divisor recursion on the psi values.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm
from operator import is_
from typing import Sequence

from .exactnum import (
    Cyclotomic,
    NotRationalError,
    as_cyclotomic,
    divisors,
    pack,
    packed_dot,
    slot_width,
)
from .groupdata import ClassFunction


class InvalidCharacterError(ValueError):
    """A value claimed to be a genuine character violates a degree bound."""


class NotPeriodicError(ValueError):
    """The product form was requested for a non-periodic class function."""


class NonIntegralDegreeError(ValueError):
    """A per-class polynomial needs chi(identity) to be a nonnegative integer."""


class CrossCheckError(AssertionError):
    """Two independent routes to the same values disagreed."""


_ZERO = as_cyclotomic(0)


class _Series:
    """One side of a per-class recurrence at the working order n: its values,
    and each value * scale as integer coordinates over the common denominator
    ``den``, packed at ``width`` for ``packed_dot``; at n = 1 the packed int
    is that one coordinate.  ``top`` bounds the |coordinates|.  The packed
    ints are scaled when ``den`` grows and repacked when the width grows.
    ``scales`` is None for all ones, and ``terms`` lists the indices of the
    values that are terms of a step."""

    def __init__(self, n: int, vals: list, scales: list | None, terms: list, den: int, top: int):
        self.n, self.vals, self.scales, self.terms = n, vals, scales, terms
        self.den, self.top, self.width = den, top, 0
        self.ints = pack(vals, 1, den, 0, scales) if n == 1 else []

    def repack(self, width: int) -> None:
        self.width, self.ints = width, pack(self.vals, self.n, self.den, width, self.scales)

    def rescale(self, k: int) -> None:
        self.den, self.top, self.ints = self.den * k, self.top * k, [p * k for p in self.ints]

    def push(self, coords: list[int]) -> None:
        """Append the value coords / den, packed at the current width."""
        if any(coords):
            self.terms.append(len(self.vals))
        self.vals.append(_stored(self.n, coords, self.den))
        if self.n == 1:
            self.ints.append(coords[0])
            return
        self.top, p = max(self.top, *map(abs, coords)), 0
        for x in reversed(coords):
            p = (p << self.width) + x
        self.ints.append(p)


def _stored(n: int, coords: list[int], den: int) -> Cyclotomic:
    """The value of one step, coords / den at order n, or at order 1 when it
    is rational; built once per step."""
    if n > 1 and any(coords[1:]):
        return Cyclotomic._raw(n, coords, den)
    return Cyclotomic._raw(1, coords[:1], den)


def _given(values: Sequence[Cyclotomic], signed: bool, zeros_count: bool) -> _Series:
    """values[1:] (values[0] is no term) lifted to their working order, the
    lcm of the orders of the irrational values, each distinct value once;
    with ``signed`` term i carries the sign (-1)^(i+1), and a zero value is a
    term only with ``zeros_count``."""
    n = lcm(1, *(v.order for v in values[1:] if not v.is_rational()))
    lifted = {}
    for v in values[1:]:
        if id(v) not in lifted:
            lifted[id(v)] = v if v.is_rational() else v.lift(n)
    den = lcm(1, *(v.den for v in lifted.values()))
    top = max((max(map(abs, v.num)) * (den // v.den) for v in lifted.values()), default=0)
    vals = [_ZERO] + [lifted[id(v)] for v in values[1:]]
    scales = [1] + [(-1) ** (i + 1) if signed else 1 for i in range(1, len(values))]
    terms = [i for i, v in enumerate(values[1:], 1) if zeros_count or v]
    return _Series(n, vals, scales, terms, den, top)


def _recurrence(
    given: _Series, M: int, divide: bool, out_first: bool, period: int = 0
) -> list[Cyclotomic]:
    """out_0 = 1 and out_n = sum x_i*y_(n-i) over the terms x_i, i <= n,
    divided by n if ``divide``, with (x, y) = (out, given) if ``out_first``
    else (given, out); with ``out_first`` the terms are the nonzero out_i.
    Each step is one dot product of packed integers, or of plain integers at
    working order 1, divided exactly by given.den * n into coordinates over
    out.den; out.den grows by the part of that divisor the coordinates do
    not share.  With ``period`` the steps are those of ``_lambda_steps``, and
    out is padded with zeros to out_M."""
    N = given.n
    out = _Series(N, [as_cyclotomic(1)], None, [0], 1, 1)
    x, y = (out, given) if out_first else (given, out)
    k, w, step = 0, 0, []
    for n in _lambda_steps(out, given, M, period) if period else range(1, M + 1):
        if k < len(x.terms) and x.terms[k] <= n:
            k = bisect_right(x.terms, n)
            step = x.terms[:k]
        xs, ys = x.ints, y.ints
        if N == 1:
            coords = [sum([xs[i] * ys[n - i] for i in step])]
        else:
            w = max(w, slot_width(x.top.bit_length(), y.top.bit_length(), k, N))
            if w != x.width or w != y.width:
                x.repack(w)
                y.repack(w)
                xs, ys = x.ints, y.ints
            coords = packed_dot([xs[i] for i in step], [ys[n - i] for i in step], w, N)
        d = given.den * n if divide else given.den
        if d > 1:
            g = gcd(d, *coords)
            if g < d:
                out.rescale(d // g)
            if g > 1:
                coords = [c // g for c in coords]
        out.push(coords)
    return out.vals + [_ZERO] * (M + 1 - len(out.vals))


def _lambda_steps(out: _Series, given: _Series, M: int, period: int):
    """The steps 1..M of the lambda route, up to the first n whose ``period``
    values out_(n-period) .. out_(n-1) are all zero, read off the term flags.
    The given holds one period of the signed psi and is repeated to n."""
    stored = len(given.vals) - 1
    for n in range(1, M + 1):
        if n - out.terms[-1] > period:
            return
        if n > stored:
            for xs in (given.vals, given.scales, given.ints):
                if len(xs) == n:  # ints not packed yet are packed at the first width
                    xs.append(xs[n - stored])
        yield n


def _scalar_lambdas(psi: list[Cyclotomic], M: int) -> list[Cyclotomic]:
    """psi[n] for n = 1..M (psi[0] unused) -> lambda^0..lambda^M by
    n*lambda^n = sum (-1)^(n-i+1) lambda^i psi^(n-i) over the lambda^i != 0.

    The stop rule.  Let p be the least period of psi[1..M] (psi[m + p] is
    psi[m]; at a class of a group of exponent e, p divides e, as the power
    maps are read mod e).  Suppose lambda^(j+1) = ... = lambda^(j+p) = 0.
    With R(n) = sum_(i <= j) (-1)^i lambda^i psi^(n-i),
    n*lambda^n = (-1)^(n+1) R(n) + sum_(j < i < n) (-1)^(n-i+1) lambda^i psi^(n-i),
    so R(n) = 0 for j < n <= j + p.  For n > j + p every psi^(n-i) with
    i <= j equals psi^(n-p-i), so R(n) = R(n - p), and R vanishes at every
    n > j.  By induction on n every lambda^n with n > j is then 0.  So the
    route stops after p zeros in a row and pads with zeros: it holds for
    every psi-sequence, virtual ones too, and a character of degree d stops
    by step d + p.  The signed psi has period lcm(p, 2), and the given is
    built for that many values and repeated as far as the steps run.
    """
    p = next(p for p in range(1, M + 2) if all(map(is_, psi[1 + p : M + 1], psi[1 : M + 1 - p])))
    given = _given(psi[: min(M, lcm(p, 2)) + 1], signed=True, zeros_count=True)
    return _recurrence(given, M, divide=True, out_first=True, period=p)


def _scalar_syms(lam: Sequence[Cyclotomic], M: int) -> list[Cyclotomic]:
    # S^n = sum (-1)^(j+1) lambda^j S^(n-j) over 1 <= j <= n with lambda^j != 0;
    # the zero lambda^j are no terms, so the given ends at the last nonzero one
    top = min(M, len(lam) - 1)
    while top and not lam[top]:
        top -= 1
    given = _given(lam[: top + 1], signed=True, zeros_count=False)
    return _recurrence(given, M, divide=False, out_first=False)


def _scalar_power_sums(psi: list[Cyclotomic], M: int) -> list[Cyclotomic]:
    # n*S^n = sum psi^i S^(n-i) over 1 <= i <= n, every psi^i a term
    given = _given(psi, signed=False, zeros_count=True)
    return _recurrence(given, M, divide=True, out_first=False)


class SeriesShare:
    """The per-class series of one request, keyed by psi^1..psi^M at c.

    Every class with one key, of one character or of several, reads one
    entry of ``entries``: its [lambda, S, power-sum] series, each None until
    first read.  Each value is interned to a small id in ``ids``, a rational
    by its value (num, den) at any stored order, since no route lifts one,
    any other by (order, num, den).  A key is the tuple of the ids of chi at
    c^1..c^M, so it fixes M.  By id, ``tops`` holds each lambda series' top,
    ``compared`` the S series ``power_sum_check`` has compared in full.  Make
    one per request (``verify`` passes one to its rows) and drop it after:
    it grows with every new key and is never pruned.
    """

    __slots__ = ("ids", "entries", "tops", "compared")

    def __init__(self):
        self.ids: dict[tuple, int] = {}
        self.entries: dict[tuple, list] = {}
        self.tops: dict[int, int] = {}
        self.compared: set[int] = set()

    def top(self, lam: list) -> int:
        """The last n with lam[n] != 0 in an entry's lambda series, scanned once."""
        if id(lam) not in self.tops:
            self.tops[id(lam)] = max((n for n, v in enumerate(lam) if v), default=0)
        return self.tops[id(lam)]

    def entries_of(self, values, idx) -> tuple[list, ...]:
        """The entry of each class c, keyed by the ids of ``values`` at the
        classes idx[c] (those of c^1..c^M); each value is interned once."""
        ids, entries = self.ids, self.entries
        vid = [ids.setdefault((v.num[0], v.den) if v.is_rational() else (v.order, v.num, v.den),
                              len(ids)) for v in values]
        keys = [tuple(map(vid.__getitem__, i)) for i in idx]
        return tuple(entries.get(k) or entries.setdefault(k, [None] * 3) for k in keys)


def _fill(cd, orbits, entries, slot: int, route) -> list[list[Cyclotomic]]:
    """Slot ``slot`` of each class's entry, filled where None: route(c) at
    the representative r of c's orbit (``orbits``), else sigma_u of r's
    series at c = r^u, as the psi column at r^u is sigma_u of r's."""
    for c, ((r, u), e) in enumerate(zip(orbits, entries)):
        if e[slot] is None:
            e[slot] = route(c) if r == c else [cd.galois_image(v, u) for v in entries[r][slot]]
    return [e[slot] for e in entries]


@dataclass(frozen=True)
class LambdaSequence:
    """chi together with its lambda values up to a degree bound, and its S
    values when first read (psi^n of chi is ``adams(base, n)``).

    S is a function of lambda; ``share`` and ``entries``, each class's entry
    in it, hold the series the sequence reads and adds, so none is shown or
    compared.
    """

    base: ClassFunction
    degree_bound: int
    lambdas: tuple[ClassFunction, ...]  # lambda^0 .. lambda^M
    orbits: tuple[tuple[int, int], ...]  # base.galois_orbits
    share: SeriesShare = field(repr=False, compare=False)
    entries: tuple[list, ...] = field(repr=False, compare=False)

    @classmethod
    def compute(cls, chi: ClassFunction, M: int, expect_character: bool = False,
                share: SeriesShare | None = None) -> "LambdaSequence":
        """Fill psi and lambda values pointwise per class up to degree M.

        With ``expect_character`` the degree bound lambda^n = 0 for
        n > chi(identity) is asserted (the classes are scanned for the first
        such n only if some entry's ``top`` is above it), which catches
        corrupted tables; leave it off for virtual characters, where the
        bound does not apply.  Each class is keyed once in ``share`` (a fresh
        one if None), before any route runs: keys made amid route
        temporaries cost 0.3 MB RSS.
        """
        if M < 0:
            raise ValueError("degree bound must be nonnegative")
        cd, vals = chi.data, chi.values
        share = SeriesShare() if share is None else share
        orbits = chi.galois_orbits
        # idx[c]: the classes of c^1..c^M; with M = 0 one empty key per class
        idx = list(zip(*(cd.power_map(n) for n in range(1, M + 1)))) or [()] * cd.class_count
        entries = share.entries_of(vals, idx)
        cols = _fill(cd, orbits, entries, 0,
                     lambda c: _scalar_lambdas([None, *map(vals.__getitem__, idx[c])], M))
        if expect_character:
            try:
                d = integral_degree(chi)
            except NonIntegralDegreeError:
                d = M
            if max(map(share.top, cols)) > d:
                n = next(n for n in range(d + 1, M + 1)
                         if any(col[n] is not _ZERO and col[n] for col in cols))
                raise InvalidCharacterError(f"lambda^{n} is nonzero beyond the degree {d}")
        lambdas = tuple(ClassFunction._trusted(cd, f) for f in zip(*cols))
        return cls(chi, M, lambdas, orbits, share, entries)

    @cached_property
    def syms(self) -> tuple[ClassFunction, ...]:
        """S^0 .. S^M, run at the first read from each entry's lambda series."""
        cd, M, entries = self.base.data, self.degree_bound, self.entries
        cols = _fill(cd, self.orbits, entries, 1, lambda c: _scalar_syms(entries[c][0], M))
        return tuple(ClassFunction._trusted(cd, f) for f in zip(*cols))


def exterior_powers(chi: ClassFunction, M: int, expect_character: bool = False):
    """lambda^0(chi) .. lambda^M(chi) as class functions."""
    return list(LambdaSequence.compute(chi, M, expect_character).lambdas)


def symmetric_powers(chi: ClassFunction, M: int, expect_character: bool = False):
    """S^0(chi) .. S^M(chi) as class functions."""
    return list(LambdaSequence.compute(chi, M, expect_character).syms)


def integral_degree(chi: ClassFunction) -> int:
    try:
        d = chi.values[0].to_rational()
    except NotRationalError:
        raise NonIntegralDegreeError("chi(identity) is not rational") from None
    if d.denominator != 1 or d < 0:
        raise NonIntegralDegreeError(f"chi(identity) = {d} is not a nonnegative integer")
    return int(d)


def char_poly(chi: ClassFunction, c: int) -> list[Cyclotomic]:
    """Coefficients of lambda_t(chi) at class c, a polynomial of degree chi(e).

    The recurrence is truncated at chi(e), which is exact for characters,
    and runs at the one class c.
    """
    d = integral_degree(chi)
    psi = [None] + [chi.values[chi.data.power_map(n)[c]] for n in range(1, d + 1)]
    return _scalar_lambdas(psi, d)


def power_sum_check(seq: LambdaSequence) -> None:
    """Recompute every S^n of ``seq`` from its psi values and compare exactly.

    The second route is Newton's power-sum identity
    n*S^n = sum_{i=1..n} psi^i S^(n-i); it shares no recurrence with
    psi -> lambda -> S.  The lambda <-> S inversion is unitriangular, so
    agreement on S certifies the lambda values as well.

    The route is a function of the psi-sequence at a class, read off
    ``seq.base`` into the entry of the class, so it runs at most once per
    distinct sequence and once per rational class (``seq.orbits``; an
    incompatible chi makes every class its own orbit).  At a class c = r^u
    with a new sequence the route is sigma_u of the route at r.  Every step
    of the route is ring operations and a division by an integer, so it
    commutes with sigma_u, and psi at r^u is sigma_u(psi at r): the image is
    the route at c.  A wrong image map shared with ``compute`` is not seen
    here; ``MultiplicityTable.certify`` catches it, since its reconstruction
    sum_j q_j chi_j is compatible and is compared with S^n at every class.
    Every class is checked, once per entry: an entry's S series is compared
    in full once, noted in ``share.compared``, and a later class whose
    S^1..S^M are each the entry's object (``is``) holds the values compared.
    Any other class, and every class without a share, is compared in full.
    """
    cd, M, share = seq.base.data, seq.degree_bound, seq.share
    pms = [cd.power_map(n) for n in range(1, M + 1)]
    _fill(cd, seq.orbits, seq.entries, 2,
          lambda c: _scalar_power_sums([None] + [seq.base.values[pm[c]] for pm in pms], M))
    vals = [f.values for f in seq.syms]
    for c, (_, sym, route) in enumerate(seq.entries):
        own = share is not None and all(vals[n][c] is sym[n] for n in range(1, M + 1))
        if own and id(sym) in share.compared:
            continue
        for n in range(1, M + 1):
            if route[n] != vals[n][c]:
                raise CrossCheckError(
                    f"S^{n} at class {cd.names[c]}: the power-sum route gives "
                    f"{route[n]!r}, the lambda route {vals[n][c]!r}"
                )
        if own:
            share.compared.add(id(sym))


def is_periodic(f: ClassFunction) -> bool:
    """Whether psi^n(f) = psi^gcd(n, |G|)(f) for every n.  g^n and
    g^gcd(n, |G|) generate one cyclic group, as the order of g divides |G|,
    so they are rationally conjugate; and each unit u mod the exponent is
    some n <= |G| with gcd(n, |G|) = 1, so f(g^u) = f(g) is needed too.  So f
    is periodic iff it is constant on every rational class."""
    return all(f.values[c] == f.values[r] for c, (r, _) in enumerate(f.data.rational_classes()[0]))


@dataclass(frozen=True)
class ProductForm:
    """lambda_t(chi) = prod over divisors a of |G| of (1-(-t)^a)^(b_a(g)/a)."""

    divisors: tuple[int, ...]
    exponents: tuple[ClassFunction, ...]  # b_1, ..., b_r as class functions

    def exponent_at(self, c: int) -> list[tuple[int, Cyclotomic]]:
        """(a_i, b_i(c)) pairs with nonzero b_i at class c."""
        return [
            (a, b.values[c])
            for a, b in zip(self.divisors, self.exponents)
            if not b.values[c].is_zero()
        ]


def product_form(chi: ClassFunction) -> ProductForm:
    """Recover the divisor product form of a periodic class function.

    The exponents are fixed by psi^(a_l)(chi) = sum of b over divisors of a_l,
    solved by recursion along the ascending divisor list.
    """
    if not is_periodic(chi):
        raise NotPeriodicError("class function is not periodic")
    cd = chi.data
    divs = divisors(cd.group_order)
    # on value lists, a rational value a plain number: Python's - serves both kinds
    vals = [v if not v.is_rational() else v.num[0] if v.den == 1 else v.to_rational()
            for v in chi.values]
    bs: list[list] = []
    for l, a in enumerate(divs):
        b = [vals[i] for i in cd.power_map(a)]
        for l2 in range(l):
            if a % divs[l2] == 0:
                b = [x - y for x, y in zip(b, bs[l2])]
        bs.append(b)
    return ProductForm(tuple(divs), tuple(ClassFunction(cd, b) for b in bs))
