"""Shared independent oracles: exact matrix models and brute-force helpers.

Nothing here reuses the package's lambda/sym recurrences: exterior-power
values come from sums of principal minors and symmetric-power values from
power traces of explicit matrices, so the tests that compare against these
really are dual-route.  The symmetric-function identities (power sums and
complete homogeneous values from elementary ones) are plain ``Cyclotomic``
loops.  Expected rational forms are reduced by Euclid's
algorithm over Fraction, which the package does not use.
``reference_dual_route_check`` is the exception: it is verify's dual-route
row without the character orbits, so it runs the package's recurrences and
certifies every irreducible.  ``reference_one_dim_exponents`` interns the powers of chi
together with the table's rows in a fresh ``_Columns``, where
``one_dim_forms`` looks them up in the table's own.  ``reference_lambda_values`` is Newton's
lambda recurrence run at every step with no stop rule, in plain
``Cyclotomic`` arithmetic.  ``with_syms`` plants S values in a sequence, the
mutant that the checks reading S must reject.  ``reference_sorted_classes``
and ``reference_class_data`` are the class skeleton of a permutation group
built from whole permutations: every conjugate, power and inverse is a
degree-length product, looked up in a dict of all elements.
"""

import dataclasses
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import gcd, lcm
import random

from symext.exactnum import as_cyclotomic, cyclotomic_polynomial, poly_div_exact, primes_below
from symext.genfun import SYM, MultiplicityTable, RationalFunction, poly_mul
from symext.catalog import get_group
from symext.groupdata import CharacterTable, ClassData, ClassFunction, _Columns
from symext.lambdaops import LambdaSequence, power_sum_check


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


def reference_inner_product(f, f2):
    """The class sum in Cyclotomic arithmetic, one term at a time."""
    cd = f.data
    total = as_cyclotomic(0)
    for c in range(cd.class_count):
        total = total + f.values[c] * f2.values[cd.inverse_class[c]] * cd.sizes[c]
    return total / cd.group_order


def reference_lambda_values(psi):
    """lambda^0, lambda^1, ... at one class from psi[1], psi[2], ... (psi[0]
    unused), one per step of n*lambda^n = sum_(i<n) (-1)^(n-i+1) lambda^i
    psi^(n-i), with no stop rule.  The psi values are first put at order 1
    (the rational ones) or at the working order, the lcm of the orders of
    the irrational ones, and each lambda^n is given as the packed route
    stores it: at order 1 when rational, else at the working order."""
    n0 = lcm(1, *(v.order for v in psi[1:] if not v.is_rational()))
    psi = [None] + [as_cyclotomic(v.to_rational()) if v.is_rational() else v.lift(n0)
                    for v in psi[1:]]
    lam = [as_cyclotomic(1)]
    yield lam[0]
    for n in range(1, len(psi)):
        acc = as_cyclotomic(0)
        for i in range(n):
            if lam[i]:
                term = lam[i] * psi[n - i]
                acc = acc + term if (n - i) % 2 else acc - term
        v = acc / n
        lam.append(v)
        yield as_cyclotomic(v.to_rational()) if v.is_rational() else v.lift(n0)


def reference_validate_table(table):
    """The report of ``groupdata.validate_table``, in Cyclotomic loops, with
    the column identities checked on every table, valid or not."""
    cd, chis, labels = table.classes, table.irreducibles, table.labels
    k, inv = cd.class_count, cd.inverse_class
    report = cd.structural_problems()
    degs = []
    for label, chi in zip(labels, chis):
        d = chi.values[0]
        if not d.is_rational():
            report.append(f"degree of {label} is not rational")
        elif d.to_rational().denominator != 1 or d.to_rational() <= 0:
            report.append(f"degree of {label} is not a positive integer")
        else:
            degs.append(d.to_rational())
    if len(degs) == k and sum(d * d for d in degs) != cd.group_order:
        report.append("sum of squared degrees differs from the group order")
    for i, j in combinations_with_replacement(range(k), 2):
        v, want = reference_inner_product(chis[i], chis[j]), int(i == j)
        if v != want:
            report.append(f"<{labels[i]},{labels[j]}> = {v!r}, expected {want}")
    for c, c2 in combinations_with_replacement(range(k), 2):
        s = as_cyclotomic(0)
        for chi in chis:
            s = s + chi.values[c] * chi.values[c2].conjugate()
        want = Fraction(cd.group_order, cd.sizes[c]) if c == c2 else Fraction(0)
        if s != want:
            report.append(f"column product {cd.names[c]},{cd.names[c2]} = {s!r}, expected {want}")
    for label, chi in zip(labels, chis):
        for c in range(k):
            if chi.values[inv[c]] != chi.values[c].conjugate():
                report.append(f"{label} at inverse of {cd.names[c]} is not the conjugate")
                break
    return report


def reference_dual_route_check(table, degree):
    """(ok, detail) of verify's dual-route row, one irreducible at a time:
    each runs its own recurrences and power-sum route and is certified."""
    for label, chi in zip(table.labels, table.irreducibles):
        try:
            seq = LambdaSequence.compute(chi, degree, expect_character=True)
            power_sum_check(seq)
            MultiplicityTable.certify(seq, table, SYM)
        except Exception as exc:
            return False, f"{label}: {exc}"
    return True, ""


def with_syms(seq, syms):
    """A copy of ``seq`` (its share too) that reads ``syms`` as its S values."""
    out = dataclasses.replace(seq)
    out.__dict__["syms"] = tuple(syms)
    return out


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


def reference_over_molien(num, factors, scale):
    """num / (scale * prod Phi_k over factors) in lowest terms, trying every
    copy of every Phi_k in turn."""
    num, den = [int(x) for x in strip(num)], [1]
    for k in factors:
        try:
            num = poly_div_exact(num, cyclotomic_polynomial(k))
        except ArithmeticError:
            den = poly_mul(den, cyclotomic_polynomial(k))
    s = den[0]
    return RationalFunction(
        tuple(Fraction(x, s * scale) for x in num), tuple(Fraction(x, s) for x in den)
    )


def reference_one_dim_exponents(chi, table):
    """``one_dim_forms(chi, table).exponents`` from one interner over the k
    rows and the powers chi^0 .. chi^(q-1) of chi itself: for each row, the
    first i with chi^i = chi_j, None if chi_j is no power of chi."""
    trivial = ClassFunction.constant(chi.data, 1)
    powers, power = [trivial], chi
    while power != trivial:
        powers.append(power)
        power = power * chi
    k = len(table.irreducibles)
    rows = _Columns([f.values for f in (*table.irreducibles, *powers)]).rows
    first = {}
    for i, row in enumerate(rows[k:]):
        first.setdefault(row, i)
    return tuple(first.get(row) for row in rows[:k])


def cyclic_spec(n, root):
    """The group-spec document of the cyclic group of order n, with every
    value written over zeta_root (root a multiple of n)."""
    classes = [{"name": f"g{i}", "size": 1, "rep_order": n // gcd(i, n), "inverse": -i % n,
                "prime_powers": {str(p): p * i % n for p in range(2, n + 1)
                                 if n % p == 0 and all(p % q for q in range(2, p))}}
               for i in range(n)]
    irreducibles = [{"values": [[[root // n * (i * j % n), 1, 1]] for i in range(n)]}
                    for j in range(n)]
    return {"format_version": 1, "name": f"C{n}", "order": n, "root_order": root,
            "classes": classes, "irreducibles": irreducibles}


def reference_sorted_classes(group):
    """``permgroup._sorted_classes`` on whole permutations: the orbits of
    conjugation by the generators, sorted by (representative order, size,
    least member)."""
    index = {g: i for i, g in enumerate(group.elements)}
    inv_gens = [(g, g.inverse()) for g in group.generators]
    unassigned = set(range(len(group)))
    classes = []
    while unassigned:
        start = min(unassigned)
        orbit = {start}
        frontier = [group.elements[start]]
        while frontier:
            nxt = []
            for h in frontier:
                for g, gi in inv_gens:
                    cand = g * h * gi
                    ci = index[cand]
                    if ci not in orbit:
                        orbit.add(ci)
                        nxt.append(cand)
            frontier = nxt
        unassigned -= orbit
        classes.append(sorted(orbit))

    def sort_key(cls):
        rep = min(group.elements[i].images for i in cls)
        return (group.elements[cls[0]].order(), len(cls), rep)

    classes.sort(key=sort_key)
    return classes


def reference_class_data(group):
    """``permgroup.class_data`` on whole permutations: r.order(),
    r.inverse() and r**p of each representative r."""
    index = {g: i for i, g in enumerate(group.elements)}
    classes = reference_sorted_classes(group)
    class_of = {}
    for ci, cls in enumerate(classes):
        for i in cls:
            class_of[i] = ci
    reps = [group.elements[cls[0]] for cls in classes]
    rep_orders = [r.order() for r in reps]
    exponent = lcm(*rep_orders)
    return ClassData(
        group_order=len(group),
        exponent=exponent,
        names=[f"C{i+1}" for i in range(len(classes))],
        sizes=[len(cls) for cls in classes],
        rep_orders=rep_orders,
        inverse_class=[class_of[index[r.inverse()]] for r in reps],
        prime_power_maps={
            p: tuple(class_of[index[r**p]] for r in reps) for p in primes_below(exponent + 1)
        },
    )


def a4_with_an_identity_5_power_map():
    """A4 with the identity as its 5-power map: sigma_5 swaps w and w^2, so
    chi2 and chi3 are not Galois compatible."""
    a4 = get_group("A4")
    cd0 = a4.classes
    cd = ClassData(cd0.group_order, cd0.exponent, cd0.names, cd0.sizes, cd0.rep_orders,
                   cd0.inverse_class, {**cd0.prime_power_maps, 5: range(cd0.class_count)})
    return CharacterTable(cd, [ClassFunction(cd, chi.values) for chi in a4.irreducibles],
                          a4.labels)
