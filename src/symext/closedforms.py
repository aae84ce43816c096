"""Shortcut evaluations that bypass the general recurrences.

Covered here: one-dimensional characters (S^i = chi^i), one family for a
linear character zeta of a normal subgroup N, times m, extended by zero
(per-class product forms plus the coprime-degree rule; the permutation
character of the coset action on G/N is the case zeta = 1, m = |G/N|), and
transfer of the whole computation through a quotient group.  Every per-class
closed form is a product of binomial series (1 + x*t^a)^r, rational r, all
expanded by ``binomial_series``.  Each form is checked against the general
engine in the test suite; here they are just computed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .exactnum import Cyclotomic, as_cyclotomic, binom, divisors
from .genfun import RationalFunction
from .groupdata import CharacterTable, ClassData, ClassFunction, decompose


class InvalidSubgroupError(ValueError):
    """A class-index set fails the normal-subgroup closure conditions."""


class InvalidCentralCharError(ValueError):
    """A root-of-unity assignment is inconsistent with the class structure."""


class NotOneDimensionalError(ValueError):
    """One-dimensional shortcut requested for a higher-dimensional character."""


class NonIntegerExponentError(ValueError):
    """The per-class closed form of m*zeta_0 needs O_N(g) to divide m."""


class MapInconsistentError(ValueError):
    """A quotient class map fails to commute with the class structure."""

    def __init__(self, failures: list[str]):
        super().__init__("; ".join(failures))
        self.failures = failures


# ---------------------------------------------------------------------------
# binomial series


def binomial_series(r, x, a: int, degree: int) -> list[Cyclotomic]:
    """Coefficients 0..degree of (1 + x*t^a)^r: binom(r, i)*x^i at t^(ia) and
    zero elsewhere, for rational r and x an int, Fraction or Cyclotomic.
    Every closed form in this module expands through here."""
    if a < 1:
        raise ValueError("a must be a positive integer")
    r, x, div = Fraction(r), as_cyclotomic(x), operator.truediv
    if r.denominator == 1:  # exact integer steps, far cheaper than Fraction ones
        r, div = r.numerator, operator.floordiv
    out = [as_cyclotomic(0)] * (degree + 1)
    coeff, power = 1, as_cyclotomic(1)  # binom(r, i) and x^i
    for i in range(degree // a + 1):
        out[i * a] = power * coeff
        coeff = div(coeff * (r - i), i + 1)
        power = power * x
    return out


def expand_product_form(pf, c: int, degree: int) -> list[Cyclotomic]:
    """Series expansion to ``degree`` of prod (1-(-t)^a)^(b_a(c)/a).

    The exponents b_a(c)/a may be arbitrary rationals; each factor
    (1 - (-t)^a)^(b/a) = (1 - (-1)^a t^a)^(b/a) is a binomial series.
    """
    result = [as_cyclotomic(1)] + [as_cyclotomic(0)] * degree
    for a, b in pf.exponent_at(c):
        factor = binomial_series(b.to_rational() / a, -((-1) ** a), a, degree)
        new = [as_cyclotomic(0)] * (degree + 1)
        for i in range(degree + 1):
            if result[i].is_zero():
                continue
            for k in range(0, degree + 1 - i, a):
                if factor[k]:
                    new[i + k] = new[i + k] + result[i] * factor[k]
        result = new
    return result


# ---------------------------------------------------------------------------
# normal subgroups given as unions of conjugacy classes


@dataclass(frozen=True)
class NormalSubgroupSpec:
    """A normal subgroup named by the set of conjugacy classes it contains."""

    class_indices: frozenset[int]
    quotient_order: int


def subgroup_spec(cd: ClassData, class_indices) -> NormalSubgroupSpec:
    """Validate closure of a class-index set and derive |G/N|."""
    idx = frozenset(class_indices)
    if not idx or 0 not in idx:
        raise InvalidSubgroupError("subgroup must contain the identity class")
    if not idx <= set(range(cd.class_count)):
        raise InvalidSubgroupError("class index out of range")
    for c in idx:
        if cd.inverse_class[c] not in idx:
            raise InvalidSubgroupError(f"not closed under inverse at {cd.names[c]}")
        for p, m in cd.prime_power_maps.items():
            if m[c] not in idx:
                raise InvalidSubgroupError(
                    f"not closed under the {p}-power map at {cd.names[c]}"
                )
    size = sum(cd.sizes[c] for c in idx)
    if cd.group_order % size:
        raise InvalidSubgroupError("class sizes do not sum to a divisor of |G|")
    return NormalSubgroupSpec(idx, cd.group_order // size)


def coset_order(cd: ClassData, spec: NormalSubgroupSpec, c: int) -> int:
    """Order of the image of class c in G/N: least n with class(g^n) inside N."""
    for n in divisors(cd.exponent):
        if cd.power_map(n)[c] in spec.class_indices:
            return n
    raise InvalidSubgroupError("no power of the class lands in the subgroup")


# ---------------------------------------------------------------------------
# one-dimensional characters


@dataclass(frozen=True)
class OneDimForms:
    """Everything about powers of a one-dimensional character chi.

    ``powers`` holds chi^0 .. chi^(q-1), q the multiplicative order of chi;
    S^i(chi) = chi^i and the generating function toward chi_j is t^i/(1-t^q)
    for the unique exponent i < q with chi^i = chi_j (zero if chi_j is not a
    power of chi).
    """

    chi: ClassFunction
    table: CharacterTable
    powers: tuple[ClassFunction, ...]

    @property
    def order(self) -> int:
        return len(self.powers)

    def sym_power(self, i: int) -> ClassFunction:
        return self.powers[i % self.order]

    def genfun(self, j: int) -> RationalFunction:
        target = self.table.irreducibles[j]
        one, zero = Fraction(1), Fraction(0)
        den = (one,) + (zero,) * (self.order - 1) + (-one,)
        for i, power in enumerate(self.powers):
            if power == target:  # t^i/(1-t^q), already in lowest terms
                return RationalFunction((zero,) * i + (one,), den)
        return RationalFunction((), (one,))


def one_dim_forms(chi: ClassFunction, table: CharacterTable) -> OneDimForms:
    if chi.values[0] != 1:
        raise NotOneDimensionalError("chi(identity) must equal 1")
    mults = decompose(chi, table)
    if sorted(mults) != [0] * (len(mults) - 1) + [1]:
        raise NotOneDimensionalError("chi is not an irreducible character")
    trivial = ClassFunction.constant(chi.data, 1)
    powers = [trivial]
    power = chi
    while power != trivial:
        powers.append(power)
        power = power * chi
        if len(powers) > chi.data.group_order:
            raise NotOneDimensionalError("chi has no finite multiplicative order")
    return OneDimForms(chi, table, tuple(powers))


# ---------------------------------------------------------------------------
# a linear character of a normal subgroup, times m, extended by zero


@dataclass(frozen=True)
class CentralCharSpec:
    """A root-of-unity assignment zeta on the classes of a normal subgroup N.

    ``zeta`` maps each class index inside N to its value, and is
    multiplicative along the power maps; the extension by zero m*zeta_0 is
    the class function the forms below describe.  N need not be central.
    """

    subgroup: NormalSubgroupSpec
    zeta: Mapping[int, Cyclotomic]
    multiplier: int


def central_char_spec(
    cd: ClassData, spec: NormalSubgroupSpec, zeta: Mapping[int, Cyclotomic], m: int
) -> CentralCharSpec:
    """Validate a zeta assignment: fixes 1 at the identity, respects powers."""
    if m < 1:
        raise ValueError("multiplier must be >= 1")
    zeta = {c: as_cyclotomic(v) for c, v in zeta.items()}
    if set(zeta) != set(spec.class_indices):
        raise InvalidCentralCharError("zeta must assign exactly the subgroup classes")
    if zeta[0] != 1:
        raise InvalidCentralCharError("zeta must be 1 on the identity class")
    for c in spec.class_indices:
        if zeta[cd.inverse_class[c]] != zeta[c].inverse():
            raise InvalidCentralCharError(
                f"zeta at the inverse of {cd.names[c]} is not the reciprocal"
            )
        for p, pm in cd.prime_power_maps.items():
            if zeta[pm[c]] != zeta[c] ** p:
                raise InvalidCentralCharError(
                    f"zeta is not multiplicative along the {p}-power map at {cd.names[c]}"
                )
    return CentralCharSpec(spec, zeta, m)


@dataclass(frozen=True)
class CentralForms:
    """Per-class forms for m*zeta_0: zeta linear on a normal N, extended by zero.

    With h = O_N(g), the order of gN in G/N, psi^(hk)(m zeta_0)(g) =
    m zeta(g^h)^k and psi^n vanishes at g for h not dividing n, so
    lambda_t(g) = (1 - zeta(g^h)(-t)^h)^(m/h), a polynomial when h divides m.
    """

    cd: ClassData
    spec: CentralCharSpec
    coset_orders: tuple[int, ...]

    def character(self) -> ClassFunction:
        return self.zeta0_power(1) * self.spec.multiplier

    def zeta0_power(self, n: int) -> ClassFunction:
        z = self.spec.zeta
        return ClassFunction(
            self.cd,
            [
                z[c] ** n if c in self.spec.subgroup.class_indices else 0
                for c in range(self.cd.class_count)
            ],
        )

    def _root_at(self, c: int) -> tuple[int, int, Cyclotomic]:
        # h = O_N(g), the exponent m/h and zeta(g^h)
        h = self.coset_orders[c]
        m = self.spec.multiplier
        if m % h:
            raise NonIntegerExponentError(
                f"O_N = {h} does not divide the multiplier {m} at {self.cd.names[c]}"
            )
        return h, m // h, self.spec.zeta[self.cd.power_map(h)[c]]

    def lambda_poly(self, c: int) -> list[Cyclotomic]:
        """lambda_t at class c: (1 - zeta(g^h)(-t)^h)^(m/h) with h = O_N(g)."""
        h, e, root = self._root_at(c)
        return binomial_series(e, root * -((-1) ** h), h, h * e)

    def sym_series(self, c: int, M: int) -> list[Cyclotomic]:
        """S_t at class c to degree M: the series of (1 - zeta(g^h)t^h)^(-m/h)."""
        h, e, root = self._root_at(c)
        return binomial_series(-e, -root, h, M)

    def shortcut(self, n: int, op: str) -> ClassFunction:
        """S^n(m zeta_0) = binom(m+n-1, n) zeta_0^n (ext: binom(m, n) zeta_0^n).

        Valid whenever gcd(n, |G/N|) = 1.
        """
        qo = self.spec.subgroup.quotient_order
        if gcd(n, qo) != 1:
            raise ValueError(f"shortcut needs gcd(n, {qo}) = 1")
        m = self.spec.multiplier
        factor = binom(m + n - 1, n) if op == "sym" else binom(m, n)
        return self.zeta0_power(n) * factor


def central_forms(cd: ClassData, spec: CentralCharSpec) -> CentralForms:
    orders = tuple(coset_order(cd, spec.subgroup, c) for c in range(cd.class_count))
    return CentralForms(cd, spec, orders)


def burnside_regular_forms(
    cd: ClassData, spec: NormalSubgroupSpec, m: int = 1
) -> CentralForms:
    """The forms of m copies of the G/N coset-action character Pi.

    m*Pi is m|G/N| on N and 0 outside: the trivial character of N, times
    m|G/N|, extended by zero.  Its lambda_t is (1-(-t)^h)^(m|G/N|/h), and the
    coprime-degree rule gives S^n(m Pi) as binom(m|G/N|+n-1, n)/|G/N| times Pi.
    """
    trivial = dict.fromkeys(spec.class_indices, as_cyclotomic(1))
    return central_forms(cd, central_char_spec(cd, spec, trivial, m * spec.quotient_order))


# ---------------------------------------------------------------------------
# transfer through a quotient group


@dataclass(frozen=True)
class QuotientTransfer:
    """A surjection of conjugacy classes realizing G ->> Q = G/N.

    ``class_map[c]`` is the Q-class holding the image of the G-class c.
    ``pull`` transports class functions of Q to G; powers, inner products and
    hence all multiplicities transfer along it.
    """

    table_g: CharacterTable
    table_q: CharacterTable
    class_map: tuple[int, ...]

    def pull(self, f: ClassFunction) -> ClassFunction:
        if f.data is not self.table_q.classes and f.data != self.table_q.classes:
            raise MapInconsistentError(["class function is not over the quotient"])
        return ClassFunction(
            self.table_g.classes, [f.values[q] for q in self.class_map]
        )

    def pulled_irreducibles(self) -> list[ClassFunction]:
        return [self.pull(chi) for chi in self.table_q.irreducibles]


def quotient_pullback(
    table_g: CharacterTable, table_q: CharacterTable, class_map: Sequence[int]
) -> QuotientTransfer:
    """Validate the class map and return the transfer context."""
    g, q = table_g.classes, table_q.classes
    class_map = tuple(class_map)
    failures: list[str] = []
    if len(class_map) != g.class_count:
        raise MapInconsistentError(["class map must cover every class of G"])
    if g.group_order % q.group_order:
        failures.append("quotient order does not divide the group order")
    if class_map[0] != 0:
        failures.append("identity class must map to the identity class")
    if set(class_map) != set(range(q.class_count)):
        failures.append("class map is not surjective")
    ratio = g.group_order // q.group_order if q.group_order else 0
    for qi in range(q.class_count):
        fiber = sum(g.sizes[c] for c in range(g.class_count) if class_map[c] == qi)
        if fiber != ratio * q.sizes[qi]:
            failures.append(
                f"fiber over {q.names[qi]} has total size {fiber}, expected {ratio * q.sizes[qi]}"
            )
    for c in range(g.class_count):
        if class_map[g.inverse_class[c]] != q.inverse_class[class_map[c]]:
            failures.append(f"inverse map does not commute at {g.names[c]}")
    for n in range(2, g.exponent + 1):
        pm_g = g.power_map(n)
        pm_q = q.power_map(n)
        for c in range(g.class_count):
            if class_map[pm_g[c]] != pm_q[class_map[c]]:
                failures.append(f"{n}-power map does not commute at {g.names[c]}")
                break
    if failures:
        raise MapInconsistentError(failures)
    return QuotientTransfer(table_g, table_q, class_map)
