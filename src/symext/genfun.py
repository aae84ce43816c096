"""Multiplicity tables and exact generating functions in t.

For a character chi the multiplicity of the j-th irreducible in S^i(chi)
(resp. the i-th exterior power) is the inner product of chi_j with the
per-class values of LambdaSequence.  It is organized as rows of a certified
truncated table, as one column of series coefficients, and as the exact
rational function whose series lists that column.  The rational form is the
column times one integer denominator read off the eigenvalues of each class
(Molien's formula), reduced by the cyclotomic factors it shares.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .exactnum import NotRationalError, cyclotomic_polynomial, fold, poly_div_exact
from .groupdata import (
    CharacterTable,
    ClassFunction,
    decompose,
    inner_product,
    integral_multiplicities,
)
from .lambdaops import (
    CrossCheckError,
    InvalidCharacterError,
    LambdaSequence,
    integral_degree,
    power_sum_check,
)

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
# dense polynomials over Z and Q


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


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalFunction:
    """num/den over Q in canonical form: gcd(num,den)=1 and den(0)=1.

    A value with no arithmetic: ``genfun_rationals`` (``_over_molien`` on the
    symmetric side, a polynomial on the exterior side) and
    ``OneDimForms.genfun`` build it in lowest terms, and nothing reduces it.
    """

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]

    def is_polynomial(self) -> bool:
        return self.den == (Fraction(1),)

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

    By Molien's formula the symmetric side is (1/|G|) sum over classes of
    size*chi_j(c)/det(1 - t c^-1), and every det(1 - t c) divides
    D = prod Phi_k over ``_molien_factors``.  So N = D*F, F the multiplicity
    column, has degree at most deg D - chi(e); it is read off the terms of F
    to degree deg D, and the terms of degree deg D - chi(e) + 1 .. deg D must
    vanish (CrossCheckError).  The exterior side is the polynomial of
    exterior multiplicities.  A chi that is no character of some cyclic
    subgroup raises InvalidCharacterError; ``genfun_series`` handles it.
    """
    _op_check(op)
    d = integral_degree(chi)
    factors = _molien_factors(chi)
    if op == EXT:
        rows = [decompose(f, table) for f in LambdaSequence.compute(chi, d).lambdas]
        return [RationalFunction(tuple(_trim([r[j] for r in rows])), (Fraction(1),)) for j in js]
    den = [1]
    for k in factors:
        den = poly_mul(den, cyclotomic_polynomial(k))
    top = len(den) - 1
    rows = [decompose(f, table) for f in LambdaSequence.compute(chi, top).syms]
    scale = lcm(*(q.denominator for row in rows for q in row))
    out = []
    for j in js:
        num = poly_mul(den, [int(row[j] * scale) for row in rows])[: len(rows)]
        if any(num[top - d + 1 :]):
            raise CrossCheckError(
                f"{table.labels[j]}: the numerator over the Molien denominator "
                f"has degree above {top - d}"
            )
        out.append(_over_molien(num, factors, scale))
    return out


def _molien_factors(chi: ClassFunction) -> list[int]:
    """k once for each factor of D = prod_k Phi_k^e_k, where e_k is the largest
    multiplicity of one primitive k-th root of unity among the eigenvalues of
    a class.

    At a class c of order o the multiplicity of zeta_o^a is
    (1/o) sum_s chi(c^s) zeta_o^(-as), summed in Z[z]/(z^n - 1) and folded
    once.  Each must be a nonnegative integer, which holds iff chi restricted
    to <c> is a character; else InvalidCharacterError.  A class c^u, u a
    unit, generates the same subgroup and only permutes the multiplicities
    among roots of one order, so one class per rational class is read.
    """
    cd = chi.data
    exps: dict[int, int] = {}
    for c in cd.rational_classes()[1]:
        o = cd.rep_orders[c]
        vals = [chi.values[cd.power_map(s)[c]] for s in range(o)]
        n, den = lcm(o, *(v.order for v in vals)), lcm(*(v.den for v in vals))
        terms = [[(i * (n // v.order), x * (den // v.den)) for i, x in enumerate(v.num) if x]
                 for v in vals]
        for a in range(o):
            acc = [0] * n
            for s, ts in enumerate(terms):
                for e, x in ts:
                    acc[(e - a * s * (n // o)) % n] += x
            coords = fold(enumerate(acc), n)
            m, rem = divmod(coords[0], o * den)
            if rem or m < 0 or any(coords[1:]):
                raise InvalidCharacterError(
                    f"chi is no character of the cyclic subgroup of class {cd.names[c]}"
                )
            exps[o // gcd(a, o)] = max(exps.get(o // gcd(a, o), 0), m)
    return [k for k, e in exps.items() for _ in range(e)]


def _over_molien(num: list[int], factors: list[int], scale: int) -> RationalFunction:
    """num / (scale * prod Phi_k over ``factors``) in lowest terms: the Phi_k
    are irreducible, so dividing out each one that divides num leaves none in
    common; den(0) = +-1 is then made 1."""
    num, den = _trim(list(num)), [1]
    for k in factors:
        try:
            num = poly_div_exact(num, cyclotomic_polynomial(k))
        except ArithmeticError:
            den = poly_mul(den, cyclotomic_polynomial(k))
    s = den[0]
    return RationalFunction(
        tuple(Fraction(x, s * scale) for x in num), tuple(Fraction(x, s) for x in den)
    )
