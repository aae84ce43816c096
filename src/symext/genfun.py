"""Multiplicity tables and exact generating functions in t.

For a character chi the multiplicity of the j-th irreducible in S^i(chi)
(resp. the i-th exterior power) is the inner product of chi_j with the
per-class values of LambdaSequence.  It is organized as rows of a certified
truncated table, as one column of series coefficients, and as the exact
rational function whose series lists that column.  The rational form is
assembled from the per-class polynomials lambda_{-t}(chi): summing
size*chi_j(c)/|G| over full conjugacy classes is Galois-stable, so the
numerator and denominator provably have rational coefficients; that fact is
certified at runtime rather than assumed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .exactnum import Cyclotomic, NotRationalError, as_cyclotomic
from .groupdata import (
    CharacterTable,
    ClassFunction,
    decompose,
    inner_product,
    integral_multiplicities,
)
# CrossCheckError is re-exported: genfun_series(cross_check=True) raises it
from .lambdaops import CrossCheckError, LambdaSequence, char_polys, power_sum_check

SYM = "sym"
EXT = "ext"


class NotRationalCoefficientsError(ArithmeticError):
    """A class-summed generating function produced irrational coefficients.

    The class sums are Galois-stable, so this firing signals an internal
    error or corrupted input, never a legitimate outcome.
    """


def _trim(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# generic dense polynomials (used over Fraction and over Cyclotomic)


def poly_add(a: Sequence, b: Sequence) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x + y)
    return _trim(out)


def poly_mul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return _trim(out)


def poly_scale(a: Sequence, s) -> list:
    return _trim([x * s for x in a])


def poly_divmod(num: Sequence, den: Sequence) -> tuple[list, list]:
    den = _trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    inv_lead = 1 / den[-1] if isinstance(den[-1], Fraction) else den[-1].inverse()
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i] * inv_lead
        if c:
            q[i - (len(den) - 1)] = c
            for j, dj in enumerate(den):
                if dj:
                    num[i - (len(den) - 1) + j] = num[i - (len(den) - 1) + j] - c * dj
    return _trim(q), _trim(num)


def _primitive(p: Sequence) -> list[int]:
    p = _trim([Fraction(c) for c in p])
    den = lcm(*(c.denominator for c in p))
    p = [c.numerator * (den // c.denominator) for c in p]
    g = gcd(*p) or 1
    return [x // g for x in p]


def poly_gcd(a: Sequence, b: Sequence) -> list:
    """Monic gcd over Q: the primitive pseudo-remainder sequence in Z[t]
    (Collins 1967; Brown 1971), made monic once at the end."""
    a, b = sorted((_primitive(a), _primitive(b)), key=len, reverse=True)
    while b:
        while len(a) >= len(b):  # a <- (lead(b)*a - lead(a)*t^k*b) / g
            g, k = gcd(a[-1], b[-1]), len(a) - len(b)
            sa, sb = b[-1] // g, a[-1] // g
            a = _trim([sa * x - (sb * b[i - k] if i >= k else 0) for i, x in enumerate(a)])
        a, b = b, _primitive(a)
    return [Fraction(x, a[-1]) for x in a]



# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalFunction:
    """num/den over Q in canonical form: gcd(num,den)=1 and den(0)=1."""

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]

    @staticmethod
    def make(num: Sequence, den: Sequence = (1,)) -> "RationalFunction":
        num = _trim([Fraction(c) for c in num])
        den = _trim([Fraction(c) for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return RationalFunction((), (Fraction(1),))
        g = poly_gcd(num, den)
        if len(g) > 1:
            num, _ = poly_divmod(num, g)
            den, _ = poly_divmod(den, g)
        if den[0] == 0:
            raise ZeroDivisionError("denominator vanishes at t=0")
        s = 1 / den[0]
        return RationalFunction(tuple(poly_scale(num, s)), tuple(poly_scale(den, s)))

    @staticmethod
    def from_products(
        num_factors: Sequence[Sequence], den_factors: Sequence[Sequence]
    ) -> "RationalFunction":
        num: list = [Fraction(1)]
        for f in num_factors:
            num = poly_mul(num, [Fraction(c) for c in f])
        den: list = [Fraction(1)]
        for f in den_factors:
            den = poly_mul(den, [Fraction(c) for c in f])
        return RationalFunction.make(num, den)

    def is_polynomial(self) -> bool:
        return self.den == (Fraction(1),)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(
            poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den),
        )

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(
            poly_mul(self.num, other.num), poly_mul(self.den, other.den)
        )

    def series(self, M: int) -> list[Fraction]:
        return series_of_rational(self, M)

    def factored_denominator(self) -> tuple[list[tuple[int, int]], list[Fraction]]:
        """Best-effort display factorization of den as prod (1-t^a)^e times a
        leftover, dividing from large a down (small factors divide the large
        composite ones, so ascending order would shred the product)."""
        rem = list(self.den)
        factors = []
        for a in range(len(rem) - 1, 0, -1):
            while len(rem) > a:
                q = list(rem)
                for i in range(a, len(q)):
                    q[i] += q[i - a]  # rem = (1-t^a)*q gives q_i = rem_i + q_(i-a)
                if any(q[len(q) - a :]):  # exact iff the top a coefficients cancel
                    break
                rem = q[: len(q) - a]
                factors.append(a)
        return list(Counter(factors).items()), _trim(rem)

    def __str__(self) -> str:
        num = format_poly(self.num)
        if self.is_polynomial():
            return num
        factors, leftover = self.factored_denominator()
        if factors:
            den = "".join(
                f"(1-t^{a})" + (f"^{e}" if e > 1 else "") for a, e in factors
            ).replace("t^1)", "t)")
            if len(leftover) > 1:
                den += f"({format_poly(leftover)})"
            elif leftover and leftover[0] != 1:
                den = f"{leftover[0]}*{den}"
        else:
            den = f"({format_poly(self.den)})"
        if sum(1 for c in self.num if c) > 1:
            num = f"({num})"
        return f"{num} / {den}"


def format_poly(coeffs: Sequence) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            t = "t" if i == 1 else f"t^{i}"
            if c == 1:
                term = t
            elif c == -1:
                term = f"-{t}"
            else:
                term = f"{c}*{t}"
            parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" + {p}" if not p.startswith("-") else f" - {p[1:]}"
    return out


def series_of_rational(rf: RationalFunction, M: int) -> list[Fraction]:
    """Coefficients 0..M of the power series of num/den (den(0)=1)."""
    if rf.den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    out: list[Fraction] = []
    for n in range(M + 1):
        acc = rf.num[n] if n < len(rf.num) else Fraction(0)
        for i in range(1, min(n, len(rf.den) - 1) + 1):
            acc -= rf.den[i] * out[n - i]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicityTable:
    """Rows i = 0..M of certified multiplicities against the irreducibles."""

    op: str
    labels: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def certify(
        cls, seq: LambdaSequence, table: CharacterTable, op: str
    ) -> "MultiplicityTable":
        """Decompose every S^i (or lambda^i) of ``seq`` into nonnegative integers."""
        source = seq.syms if op == SYM else seq.lambdas
        rows = [integral_multiplicities(decompose(f, table)) for f in source]
        return cls(op=op, labels=table.labels, rows=tuple(rows))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)


def _op_check(op: str) -> None:
    if op not in (SYM, EXT):
        raise ValueError(f"op must be {SYM!r} or {EXT!r}")


def multiplicity_table(
    chi: ClassFunction, table: CharacterTable, op: str, M: int
) -> MultiplicityTable:
    """Decompose S^i(chi) (or the i-th exterior power) for i = 0..M."""
    _op_check(op)
    if M < 0:
        raise ValueError("degree must be nonnegative")
    seq = LambdaSequence.compute(chi, M, expect_character=True)
    return MultiplicityTable.certify(seq, table, op)


def genfun_series(
    chi: ClassFunction,
    table: CharacterTable,
    j: int,
    op: str,
    M: int,
    cross_check: bool = False,
) -> list[Fraction]:
    """Coefficients 0..M of the multiplicity generating function for chi_j.

    Each coefficient is the inner product of chi_j with S^n(chi) (or
    lambda^n), so chi may be a virtual character.  With ``cross_check`` chi
    must be a character: the column comes from the certified multiplicity
    table, and the per-class S values are recomputed by ``power_sum_check``.
    """
    _op_check(op)
    if cross_check:
        seq = LambdaSequence.compute(chi, M, expect_character=True)
        power_sum_check(seq)
        column = MultiplicityTable.certify(seq, table, op).column(j)
        return [Fraction(m) for m in column]
    seq = LambdaSequence.compute(chi, M)
    out = []
    for n, f in enumerate(seq.syms if op == SYM else seq.lambdas):
        v = inner_product(table.irreducibles[j], f)
        try:
            out.append(v.to_rational())
        except NotRationalError:
            raise NotRationalCoefficientsError(
                f"coefficient of t^{n} is not rational: {v!r}"
            ) from None
    return out


def genfun_rational(
    chi: ClassFunction, table: CharacterTable, j: int, op: str
) -> RationalFunction:
    """``genfun_rationals`` for the one irreducible chi_j."""
    return genfun_rationals(chi, table, (j,), op)[0]


def genfun_rationals(
    chi: ClassFunction, table: CharacterTable, js: Sequence[int], op: str
) -> list[RationalFunction]:
    """The multiplicity generating functions for chi_j, j in ``js``, in closed
    rational form.

    For the symmetric side, 1/|G| sum over classes of
    size*chi_j(c)/lambda_{-t}(chi)(c^-1) is brought over the product of the
    distinct per-class denominators; both resulting polynomials have rational
    coefficients because the class sum is Galois-stable, and every
    coefficient is certified before the exact gcd reduction over Q.  Only the
    class weights and their sum depend on j; the denominators and their
    quotients of the common one are built once.  The exterior side is the
    finite polynomial of exterior multiplicities.  A virtual chi whose
    lambda_t does not stop at chi(e) raises InvalidCharacterError (see
    ``char_polys``); ``genfun_series`` handles it.
    """
    _op_check(op)
    cd = table.classes
    polys = char_polys(chi)
    if op == EXT:
        lambdas = [ClassFunction(cd, [p[i] for p in polys]) for i in range(len(polys[0]))]
        rows = [decompose(f, table) for f in lambdas]
        return [RationalFunction.make([row[j] for row in rows], [1]) for j in js]
    # group classes by their denominator polynomial lambda_{-t}(chi)(c^-1)
    dpolys: list[list[Cyclotomic]] = []
    group_of = []
    for c in range(cd.class_count):
        lam = polys[cd.inverse_class[c]]
        dpoly = [v if i % 2 == 0 else -v for i, v in enumerate(lam)]
        if dpoly not in dpolys:
            dpolys.append(dpoly)
        group_of.append(dpolys.index(dpoly))
    den: list = [as_cyclotomic(1)]
    for dpoly in dpolys:
        den = poly_mul(den, dpoly)
    partials: dict[int, list] = {}  # g -> den / dpolys[g], the other denominators

    def certify(poly: Sequence[Cyclotomic]) -> list[Fraction]:
        out = []
        for n, v in enumerate(poly):
            try:
                out.append(as_cyclotomic(v).to_rational())
            except NotRationalError:
                raise NotRationalCoefficientsError(
                    f"class-summed coefficient of t^{n} is not rational: {v!r}"
                ) from None
        return out

    rational_den = certify(den)
    out = []
    for j in js:
        weights = [0] * len(dpolys)
        for c, g in enumerate(group_of):
            weights[g] = weights[g] + table.irreducibles[j].values[c] * cd.sizes[c]
        num: list = []
        for g, weight in enumerate(weights):
            if weight:
                if g not in partials:
                    partials[g] = poly_divmod(den, dpolys[g])[0]
                num = poly_add(num, poly_scale(partials[g], weight))
        num = poly_scale(num, Fraction(1, cd.group_order))
        out.append(RationalFunction.make(certify(num), rational_den))
    return out
