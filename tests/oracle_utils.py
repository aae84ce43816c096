"""Shared independent oracles: exact matrix models and brute-force helpers.

Nothing here reuses the package's lambda/sym recurrences: exterior-power
values come from sums of principal minors and symmetric-power values from
power traces of explicit matrices, so the tests that compare against these
really are dual-route.  The symmetric-function identities (power sums and
complete homogeneous values from elementary ones) are plain ``Cyclotomic``
loops.  Expected rational forms are reduced by Euclid's
algorithm over Fraction, which the package does not use.
"""

from fractions import Fraction
from itertools import combinations, permutations
import random

from symext.exactnum import as_cyclotomic
from symext.genfun import RationalFunction, poly_mul
from symext.groupdata import ClassFunction


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def mat_pow(a, e):
    n = len(a)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    base = [[Fraction(x) for x in row] for row in a]
    while e:
        if e & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        e >>= 1
    return out


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def det(a):
    # Leibniz expansion; fine for the n <= 4 oracle matrices
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def principal_minor_sum(a, k):
    """Sum of all k-by-k principal minors: the trace of the k-th exterior power."""
    n = len(a)
    if k == 0:
        return Fraction(1)
    if k > n:
        return Fraction(0)
    total = Fraction(0)
    for rows in combinations(range(n), k):
        sub = [[Fraction(a[i][j]) for j in rows] for i in rows]
        total += det(sub)
    return total


def h_from_power_sums(p, n):
    """Complete homogeneous value h_n from power sums p[1..n]; h_0 = 1."""
    h = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, m + 1):
            acc += Fraction(p[i]) * h[m - i]
        h.append(acc / m)
    return h[n]


def _elementary(e, n):
    # e_0 = 1, e_1..e_len(e) from e, zero past the list, through e_n
    zero = as_cyclotomic(0)
    return [as_cyclotomic(1)] + [as_cyclotomic(x) for x in e] + [zero] * n


def power_sum_from_e(e, n):
    """p_n from elementary symmetric values e[0] = e_1, e[1] = e_2, ... by
    Newton's identity p_m = sum_{i<m} (-1)^(i+1) e_i p_(m-i) + (-1)^(m+1) m e_m."""
    ee = _elementary(e, n)
    p = [None]
    for m in range(1, n + 1):
        acc = ee[m] * ((-1) ** (m + 1) * m)
        for i in range(1, m):
            acc = acc + ee[i] * p[m - i] * (-1) ** (i + 1)
        p.append(acc)
    return p[n]


def complete_from_e(e, n):
    """h_n from elementary symmetric values e[0] = e_1, ... by
    h_m = sum_{i=1..m} (-1)^(i+1) e_i h_(m-i), h_0 = 1."""
    ee = _elementary(e, n)
    h = [ee[0]]
    for m in range(1, n + 1):
        acc = as_cyclotomic(0)
        for i in range(1, m + 1):
            acc = acc + ee[i] * h[m - i] * (-1) ** (i + 1)
        h.append(acc)
    return h[n]


def perm_matrix(images):
    n = len(images)
    return [[Fraction(int(images[j] == i)) for j in range(n)] for i in range(n)]


# exact 2x2 model of the two-dimensional irreducible of S3, on the basis
# e1-e2, e2-e3 of the sum-zero plane; rows are class representatives
S3_STANDARD_REPS = [
    [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],  # identity
    [[Fraction(-1), Fraction(1)], [Fraction(0), Fraction(1)]],  # a transposition
    [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(-1)]],  # a 3-cycle
]

# 4x4 permutation matrices for S4 class representatives, in the class order
# identity, transposition, 3-cycle, 4-cycle, double transposition
S4_NATURAL_REPS = [
    perm_matrix((0, 1, 2, 3)),
    perm_matrix((1, 0, 2, 3)),
    perm_matrix((1, 2, 0, 3)),
    perm_matrix((1, 2, 3, 0)),
    perm_matrix((1, 0, 3, 2)),
]


def random_virtual(table, rng: random.Random, span: int = 2) -> ClassFunction:
    """A random integer combination of the irreducibles (a virtual character)."""
    out = ClassFunction.constant(table.classes, 0)
    for chi in table.irreducibles:
        q = rng.randint(-span, span)
        if q:
            out = out + chi * q
    return out


def strip(p):
    p = [Fraction(c) for c in p]
    while p and not p[-1]:
        p.pop()
    return p


def euclid_gcd(a, b):
    """Monic gcd over Q by Euclid's algorithm on Fraction coefficients."""
    a, b = strip(a), strip(b)
    while b:
        while len(a) >= len(b):  # a <- a mod b, one leading term at a time
            c, k = a[-1] / b[-1], len(a) - len(b)
            a = strip([x - c * b[i - k] if i >= k else x for i, x in enumerate(a)])
        a, b = b, a
    return [c / a[-1] for c in a]


def long_divmod(num, den):
    """Quotient and remainder of num by den, by long division over Fraction."""
    num, den = strip(num), strip(den)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        q[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    return strip(q), strip(num)


def ratfun(num, den_factors=()):
    """num / prod(den_factors) as the package's canonical RationalFunction:
    reduced by ``euclid_gcd``, with den(0) = 1."""
    num, den = strip(num), [Fraction(1)]
    for f in den_factors:
        den = poly_mul(den, strip(f))
    if not num:
        return RationalFunction((), (Fraction(1),))
    g = euclid_gcd(num, den)
    num, den = long_divmod(num, g)[0], long_divmod(den, g)[0]
    return RationalFunction(tuple(c / den[0] for c in num), tuple(c / den[0] for c in den))
