"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

Every character value handled by this package lives in some Q(zeta_N).
Elements are stored on the power basis 1, z, ..., z^(phi(N)-1) where z is a
primitive N-th root of unity, with coordinates reduced modulo the N-th
cyclotomic polynomial Phi_N.  Internally a value is an integer coordinate
vector over a single positive denominator, so the hot operations (add,
multiply) run on machine integers; coordinates surface as
``fractions.Fraction``.  All arithmetic is exact - there is no floating
point anywhere in this module.

Values of different orders interoperate by lifting to the lcm order, so a
plain rational can be kept cheaply at order 1 and combined with roots of
unity of any order.
"""

from __future__ import annotations

import struct
import sys
from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence, Union

Rational = Fraction

RationalLike = Union[int, Fraction]
Scalar = Union[int, Fraction, "Cyclotomic"]


class NotRationalError(ValueError):
    """A cyclotomic value was required to be rational but is not."""


# ---------------------------------------------------------------------------
# small number theory helpers


def prime_factors(n: int) -> dict[int, int]:
    """Factor n >= 1 into {prime: multiplicity} by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@cache
def totient(n: int) -> int:
    phi = n
    for p in prime_factors(n):
        phi -= phi // p
    return phi


def moebius(n: int) -> int:
    mu = 1
    for _, e in prime_factors(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def unit_lift(u: int, m: int, n: int) -> int:
    """A u' = u (mod m) prime to n (CRT), for u prime to gcd(m, n): u itself
    if it is, else u + m * (the primes of n that divide neither u nor m)."""
    if gcd(u, n) == 1:
        return u
    return u + m * prod(p for p in prime_factors(n) if u % p and m % p)


def primes_below(n: int) -> list[int]:
    """The primes p < n, by a sieve."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p, prime in enumerate(sieve) if prime]


def binom(r: RationalLike, n: int) -> Fraction:
    """Generalized binomial coefficient r(r-1)...(r-n+1)/n! for rational r."""
    if n < 0:
        return Fraction(0)
    return prod((Fraction(r) - i for i in range(n)), start=Fraction(1)) / factorial(n)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and power-basis reduction tables


def poly_div_exact(num: list[int], den: Sequence[int]) -> list[int]:
    # den is monic; division of integer polynomials stays integral
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    if n == 1:
        return (-1, 1)
    # (x^n - 1) / prod of Phi_d over proper divisors d of n
    acc = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        acc = poly_div_exact(acc, cyclotomic_polynomial(d))
    return tuple(acc)


@cache
def _power_rows(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Rows m < n -> the nonzero (j, coordinate) pairs of z^m mod Phi_n."""
    deg, phi = totient(n), cyclotomic_polynomial(n)
    row, rows = [1] + [0] * (deg - 1), []
    for _ in range(n):
        rows.append(tuple((j, r) for j, r in enumerate(row) if r))
        top, row = row[-1], [0] + row[:-1]
        if top:
            # z^deg = -(phi_0 + phi_1 z + ... + phi_{deg-1} z^{deg-1})
            for j in range(deg):
                row[j] -= top * phi[j]
    return rows


@cache
def _galois_rows(n: int, u: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Rows i < phi(n) -> the row of z^(i*u) mod Phi_n, for u mod n: sigma_u."""
    rows = _power_rows(n)
    return tuple(rows[i * u % n] for i in range(totient(n)))


def fold(terms: Iterable[tuple[int, int]], n: int) -> list[int]:
    """Integer coordinates of sum x*z^e over (e, x) pairs, reduced mod Phi_n."""
    out = [0] * totient(n)
    rows = _power_rows(n)
    for e, x in terms:
        if x:
            for j, r in rows[e % n]:
                out[j] += x * r
    return out


# ---------------------------------------------------------------------------
# packed coordinates: a value v of Q(zeta_n) over a denominator D is the int
# sum_i x_i 2^(width*i), where x_i are the coordinates of D*v.  A sum of
# products of packed values is a packed polynomial product; it unpacks exactly
# while every slot lies strictly inside (-2^(width-1), 2^(width-1)).


def _coords(v: "Cyclotomic", n: int) -> tuple[int, ...]:
    # coordinates at order n over v.den; a rational value embeds at any order
    return v.num if v.order == n or not any(v.num[1:]) else v.lift(n).num


def pack_bounds(
    values: Sequence["Cyclotomic"], n: int, scales: Sequence[int] | None = None
) -> tuple[int, int]:
    """(D, b): the common denominator D of the values, and the bit length b of
    the largest |coordinate| of D * value * scale at order n."""
    den = lcm(*(v.den for v in values))
    top = max(
        (max(map(abs, _coords(v, n))) * (den // v.den) * s
         for v, s in zip(values, scales or [1] * len(values))),
        default=0,
    )
    return den, top.bit_length()


def slot_width(xbits: int, ybits: int, terms: int, n: int) -> int:
    """Slot width for a sum of ``terms`` products of packed values at order n
    with coordinates below 2^xbits and 2^ybits: every slot of the sum is below
    terms * phi(n) * 2^(xbits + ybits) in magnitude."""
    return -(-(xbits + ybits + (terms * totient(n)).bit_length() + 1) // 64) * 64


def pack(
    values: Sequence["Cyclotomic"], n: int, den: int, width: int,
    scales: Sequence[int] | None = None,
) -> list[int]:
    """Each value * scale at order n over the denominator den, packed at ``width``."""
    out = []
    for v, s in zip(values, scales or [1] * len(values)):
        s, p = s * (den // v.den), 0
        for x in reversed(_coords(v, n)):
            p = (p << width) + x * s
        out.append(p)
    return out


def packed_dot(xs: Sequence[int], ys: Sequence[int], width: int, n: int) -> list[int]:
    """Coordinates mod Phi_n of sum_c x_c*y_c for values packed at ``width``:
    one integer dot product, unpacked into 2*phi(n) - 1 slots; the first
    phi(n) are coordinates already, and the others are folded onto them."""
    total, half, mask = sum(map(mul, xs, ys)), 1 << (width - 1), (1 << width) - 1
    phi, rows, out = totient(n), _power_rows(n), []
    for _ in range(phi):
        s = ((total + half) & mask) - half
        out.append(s)
        total = (total - s) >> width
    for e in range(phi, 2 * phi - 1):
        s = ((total + half) & mask) - half
        total = (total - s) >> width
        for j, r in rows[e % n] if s else ():
            out[j] += s * r
    return out


# words: signed integers s_i, each |s_i| < 2^63, packed as sum_i s_i 2^(64 i)
# through the bytes of their 64-bit words in the machine's byte order, both
# ways.  Adding O = sum_i 2^63 2^(64 i) makes every slot nonnegative, and xor
# with O turns an offset slot into its two's complement word and back.
# (struct, which the CLI's imports load anyway, packs the words.)


@cache
def _word_offset(size: int) -> int:
    return ((1 << 64 * size) - 1) // ((1 << 64) - 1) << 63


def word_bytes(values: Sequence[int]) -> bytes:
    """The 64-bit words of the values; struct.error if one does not fit."""
    return struct.pack(f"{len(values)}q", *values)


def words(buf: bytes) -> int:
    """sum_i s_i 2^(64 i) over the words s_i of ``word_bytes``."""
    o = _word_offset(len(buf) >> 3)
    return (int.from_bytes(buf, sys.byteorder) ^ o) - o


def word_slots(total: int, size: int) -> memoryview:
    """The ``size`` words s_i of total = sum_i s_i 2^(64 i), as ``words``
    packs them, for slots known to lie strictly inside (-2^63, 2^63)."""
    o = _word_offset(size)
    return memoryview(((total + o) ^ o).to_bytes(8 * size, sys.byteorder)).cast("q")


def product_order(a: "Cyclotomic", b: "Cyclotomic") -> int:
    """The order Cyclotomic.__mul__ gives a*b: a rational factor takes the other's."""
    if b.is_rational() and a.order >= b.order:
        return a.order
    return b.order if a.is_rational() else lcm(a.order, b.order)


# ---------------------------------------------------------------------------


class Cyclotomic:
    """An exact element of Q(zeta_order) on the power basis mod Phi_order.

    Instances are immutable; all operations return new values.  Mixed
    arithmetic with int/Fraction embeds the rational at order 1.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs: Sequence[RationalLike]):
        deg = totient(order)
        if len(coeffs) != deg:
            raise ValueError(f"need {deg} coefficients for order {order}")
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        _set_order(self, order)
        _set_num(self, tuple(int(c * den) for c in coeffs))
        _set_den(self, den)

    @staticmethod
    def _raw(order: int, num: Sequence[int], den: int) -> "Cyclotomic":
        # normalize: positive denominator, gcd(all coordinates, den) = 1
        if den != 1:
            if den < 0:
                den = -den
                num = [-x for x in num]
            g = den
            for x in num:
                if x:
                    g = gcd(g, x)
                    if g == 1:
                        break
            if g > 1:
                den //= g
                num = [x // g for x in num]
        self = object.__new__(Cyclotomic)
        _set_order(self, order)
        _set_num(self, tuple(num))
        _set_den(self, den)
        return self

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("Cyclotomic values are immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coordinates on the power basis, as exact Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(q: RationalLike) -> "Cyclotomic":
        if type(q) is int:
            return Cyclotomic._raw(1, (q,), 1)
        q = Fraction(q)
        return Cyclotomic._raw(1, (q.numerator,), q.denominator)

    @staticmethod
    def from_terms(order: int, terms: Iterable[tuple[int, RationalLike]]) -> "Cyclotomic":
        """Sum of q * zeta_order^e over (e, q) pairs, in canonical form."""
        if order < 1:
            raise ValueError("order must be a positive integer")
        pending = [(e, Fraction(q)) for e, q in terms]
        den = lcm(*(q.denominator for _, q in pending))
        acc = fold(((e, int(q * den)) for e, q in pending), order)
        return Cyclotomic._raw(order, acc, den)

    @staticmethod
    def root_of_unity(order: int, exponent: int = 1) -> "Cyclotomic":
        return Cyclotomic._raw(order, fold([(exponent, 1)], order), 1)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_rational(self) -> Fraction:
        """The value as a Fraction; NotRationalError if it has irrational part."""
        if not self.is_rational():
            raise NotRationalError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- order management --------------------------------------------------

    def lift(self, new_order: int) -> "Cyclotomic":
        """The same value expressed in Q(zeta_new_order); order must divide it."""
        if new_order == self.order:
            return self
        if new_order % self.order:
            raise ValueError("can only lift to a multiple of the current order")
        k = new_order // self.order
        acc = fold(((i * k, x) for i, x in enumerate(self.num)), new_order)
        return Cyclotomic._raw(new_order, acc, self.den)

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic"]:
        if a.order == b.order:
            return a, b
        n = lcm(a.order, b.order)
        return a.lift(n), b.lift(n)

    @staticmethod
    def _coerce(x: Scalar) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.from_rational(x)
        return NotImplemented  # type: ignore[return-value]

    # -- ring/field operations ----------------------------------------------

    def __add__(self, other: Scalar) -> "Cyclotomic":
        o = Cyclotomic._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = Cyclotomic._common(self, o)
        if a.den == b.den:
            return Cyclotomic._raw(
                a.order, [x + y for x, y in zip(a.num, b.num)], a.den
            )
        den = a.den * b.den // gcd(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        return Cyclotomic._raw(
            a.order, [x * sa + y * sb for x, y in zip(a.num, b.num)], den
        )

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._raw(self.order, [-x for x in self.num], self.den)

    def __sub__(self, other: Scalar) -> "Cyclotomic":
        o = Cyclotomic._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Scalar) -> "Cyclotomic":
        o = Cyclotomic._coerce(other)
        return NotImplemented if o is NotImplemented else o - self

    def __mul__(self, other: Scalar) -> "Cyclotomic":
        o = Cyclotomic._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # rational factors just scale coordinates
        if o.is_rational() and self.order >= o.order:
            return Cyclotomic._raw(
                self.order, [x * o.num[0] for x in self.num], self.den * o.den
            )
        if self.is_rational():
            return Cyclotomic._raw(
                o.order, [y * self.num[0] for y in o.num], self.den * o.den
            )
        a, b = Cyclotomic._common(self, o)
        deg = len(a.num)
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    if y:
                        conv[i + j] += x * y
        return Cyclotomic._raw(a.order, fold(enumerate(conv), a.order), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse: the product of the other Galois conjugates
        over the norm, which is a nonzero rational."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero cyclotomic value")
        if self.is_rational():
            num = [self.den] + [0] * (len(self.num) - 1)
            return Cyclotomic._raw(self.order, num, self.num[0])
        adj = Cyclotomic.from_rational(1)
        for u in range(2, self.order):
            if gcd(u, self.order) == 1:
                adj = adj * self.galois(u)
        return adj / (self * adj).to_rational()

    def __truediv__(self, other: Scalar) -> "Cyclotomic":
        o = Cyclotomic._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_rational():
            if o.num[0] == 0:
                raise ZeroDivisionError("division by zero")
            return Cyclotomic._raw(
                self.order, [x * o.den for x in self.num], self.den * o.num[0]
            )
        return self * o.inverse()

    def __rtruediv__(self, other: Scalar) -> "Cyclotomic":
        o = Cyclotomic._coerce(other)
        return NotImplemented if o is NotImplemented else o * self.inverse()

    def __pow__(self, n: int) -> "Cyclotomic":
        if n < 0:
            return self.inverse() ** (-n)
        if n and self.is_rational():  # one integer power, at the order the loop gives
            return Cyclotomic._raw(self.order, (self.num[0] ** n,) + self.num[1:], self.den ** n)
        result = Cyclotomic.from_rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- Galois action -------------------------------------------------------

    def galois(self, u: int) -> "Cyclotomic":
        """Apply the automorphism zeta -> zeta^u; u must be a unit mod order.
        sigma_u maps Z[zeta], with its integral power basis, onto itself, so its
        coordinate map is in GL(phi, Z) and a normalized value stays normalized."""
        n = self.order
        if gcd(u, n) != 1:
            raise ValueError("exponent must be coprime to the order")
        acc = [0] * len(self.num)
        for x, row in zip(self.num, _galois_rows(n, u % n)):
            for j, r in row if x else ():
                acc[j] += x * r
        out = object.__new__(Cyclotomic)
        _set_order(out, n)
        _set_num(out, tuple(acc))
        _set_den(out, self.den)
        return out

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, i.e. the automorphism zeta -> zeta^(-1)."""
        if self.order == 1 or self.is_rational():
            return self
        return self.galois(self.order - 1)

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Cyclotomic):
            a, b = (self, other) if self.order == other.order else Cyclotomic._common(self, other)
            return a.den == b.den and a.num == b.num
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and Fraction(self.num[0], self.den) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # cross-order equality is not hash-friendly

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if self.is_rational():
            return str(Fraction(self.num[0], self.den))
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                z = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{c}*{z}")
        out = parts[0]
        for p in parts[1:]:
            out += f"+{p}" if not p.startswith("-") else p
        return out


# the slot setters, which skip the immutability guard of __setattr__
_set_order, _set_num, _set_den = (getattr(Cyclotomic, a).__set__ for a in Cyclotomic.__slots__)


def as_cyclotomic(x: Scalar) -> Cyclotomic:
    v = Cyclotomic._coerce(x)
    if v is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a cyclotomic value")
    return v
