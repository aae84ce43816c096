"""Builtin groups: S3, A4, G21, S4, A5 and the D2n / Q4n / Hp families; and
``resolve_group``, which turns a builtin, a JSON group-spec file
(``load_group_spec`` / ``dump_group_spec``) or permutation generators into a
``GroupContext``, or raises a one-line ``InputError``.

Each constructor returns a validated character table whose classes follow
the conventional listing (identity first).  The five fixed tables are
encoded by hand with power maps for the primes dividing the exponent; maps
for the remaining unit primes are derived from the Galois action on table
columns.  The parametric families compute everything analytically, and
``get_perm_model`` supplies an independent permutation realization whose
derived class data is matched back to the builtin one for cross-validation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm

from .closedforms import (
    CentralCharSpec,
    InvalidCentralCharError,
    InvalidSubgroupError,
    NormalSubgroupSpec,
    central_char_spec,
    subgroup_spec,
)
from .exactnum import Cyclotomic, binom, primes_below
from .groupdata import (
    CharacterTable,
    ClassData,
    ClassFunction,
    NonRationalMultiplicityError,
    adams,
    assemble_table,
    decompose,
    power_map_mismatch,
    regular_character,
    validate_table,
)
from .permgroup import (
    CapExceededError,
    GeneratedGroup,
    Permutation,
    class_data,
    enumerate_group,
    parse_digits,
    standard_characters,
)

FIXED_FAMILIES = ("S3", "A4", "G21", "S4", "A5")
PARAM_FAMILIES = ("D2n", "Q4n", "Hp")

# power-basis arithmetic in Q(zeta_N) slows down as phi(N) grows; these caps
# keep table construction interactive and are documented in the README
PARAM_CAPS = {"D2n": 100, "Q4n": 50, "Hp": 11}

# Largest --degree (decompose, closedform, verify) and genfun --series: the
# recurrences grow about as degree^2 per class, the class sums with the size
# of the integers; at 1000 the largest builtin regular character takes minutes.
MAX_DEGREE = 1000
# Largest spec-file root_order N and class count k (builtins: 100 and 131):
# reduction rows cost O(N phi(N)), the table check O(k^3) packed products.
MAX_ROOT_ORDER = 1000
MAX_CLASSES = 131


class InputError(ValueError):
    """Bad selector, file or flag; reported with exit code 2."""


class NoModelError(ValueError):
    """No permutation model is available for these parameters."""


def _two_cos(order: int, e: int) -> Cyclotomic:
    # zeta_order^e + zeta_order^-e in canonical form
    return Cyclotomic.from_terms(order, [(e, 1), (-e, 1)])


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def parse_group_selector(selector: str) -> tuple[str, int | None]:
    """Parse 'S3', 'D2n:8', 'Hp:5' into (family, parameter)."""
    if ":" in selector:
        fam, _, raw = selector.partition(":")
        param = parse_digits(raw, f"group parameter in {selector!r}")
        if param is None:
            raise ValueError(f"bad group parameter in {selector!r}")
        return fam, param
    return selector, None


def _check_params(family: str, param: int | None) -> None:
    if family in FIXED_FAMILIES:
        if param is not None:
            raise ValueError(f"{family} does not take a parameter")
        return
    if family not in PARAM_FAMILIES:
        raise ValueError(f"unknown group family {family!r}")
    if param is None:
        raise ValueError(f"{family} needs a parameter, e.g. {family}:3")
    if family == "D2n" and not 3 <= param <= PARAM_CAPS["D2n"]:
        raise ValueError(f"D2n parameter must be in 3..{PARAM_CAPS['D2n']}")
    if family == "Q4n" and not 2 <= param <= PARAM_CAPS["Q4n"]:
        raise ValueError(f"Q4n parameter must be in 2..{PARAM_CAPS['Q4n']}")
    if family == "Hp" and (param == 2 or not _is_prime(param) or param > PARAM_CAPS["Hp"]):
        raise ValueError(f"Hp parameter must be an odd prime <= {PARAM_CAPS['Hp']}")


# ---------------------------------------------------------------------------
# the five fixed groups


def _s3() -> CharacterTable:
    return assemble_table(
        "S3",
        order=6,
        names=["C1", "C2", "C3"],
        sizes=[1, 3, 2],
        rep_orders=[1, 2, 3],
        inverse=[0, 1, 2],
        prime_maps={2: [0, 0, 2], 3: [0, 1, 0]},
        labels=["chi1", "chi2", "chi3"],
        rows=[[1, 1, 1], [1, -1, 1], [2, 0, -1]],
    )


def _a4() -> CharacterTable:
    w = Cyclotomic.root_of_unity(3)
    return assemble_table(
        "A4",
        order=12,
        names=["C1", "C2", "C3", "C4"],
        sizes=[1, 3, 4, 4],
        rep_orders=[1, 2, 3, 3],
        inverse=[0, 1, 3, 2],
        prime_maps={2: [0, 0, 3, 2], 3: [0, 1, 0, 0]},
        labels=["chi1", "chi2", "chi3", "chi4"],
        rows=[
            [1, 1, 1, 1],
            [1, 1, w, w**2],
            [1, 1, w**2, w],
            [3, -1, 0, 0],
        ],
    )


def _g21() -> CharacterTable:
    w = Cyclotomic.root_of_unity(3)
    a = Cyclotomic.from_terms(7, [(1, 1), (2, 1), (4, 1)])
    b = Cyclotomic.from_terms(7, [(3, 1), (5, 1), (6, 1)])
    return assemble_table(
        "G21",
        order=21,
        names=["C1", "C2", "C3", "C4", "C5"],
        sizes=[1, 3, 3, 7, 7],
        rep_orders=[1, 7, 7, 3, 3],
        inverse=[0, 2, 1, 4, 3],
        prime_maps={3: [0, 2, 1, 0, 0], 7: [0, 0, 0, 3, 4]},
        labels=["chi1", "chi2", "chi3", "chi4", "chi5"],
        rows=[
            [1, 1, 1, 1, 1],
            [1, 1, 1, w, w**2],
            [1, 1, 1, w**2, w],
            [3, a, b, 0, 0],
            [3, b, a, 0, 0],
        ],
    )


def _s4() -> CharacterTable:
    return assemble_table(
        "S4",
        order=24,
        names=["C1", "C2", "C3", "C4", "C5"],
        sizes=[1, 6, 8, 6, 3],
        rep_orders=[1, 2, 3, 4, 2],
        inverse=[0, 1, 2, 3, 4],
        prime_maps={2: [0, 0, 2, 4, 0], 3: [0, 1, 0, 3, 4]},
        labels=["chi1", "chi2", "chi3", "chi4", "chi5"],
        rows=[
            [1, 1, 1, 1, 1],
            [1, -1, 1, -1, 1],
            [3, 1, 0, -1, -1],
            [3, -1, 0, 1, -1],
            [2, 0, -1, 0, 2],
        ],
    )


def _a5() -> CharacterTable:
    a = Cyclotomic.from_terms(5, [(1, 1), (4, 1)])
    b = Cyclotomic.from_terms(5, [(2, 1), (3, 1)])
    return assemble_table(
        "A5",
        order=60,
        names=["C1", "C2", "C3", "C4", "C5"],
        sizes=[1, 15, 20, 12, 12],
        rep_orders=[1, 2, 3, 5, 5],
        inverse=[0, 1, 2, 3, 4],
        prime_maps={
            2: [0, 0, 2, 4, 3],
            3: [0, 1, 0, 4, 3],
            5: [0, 1, 2, 0, 0],
        },
        labels=["chi1", "chi2", "chi3", "chi4", "chi5"],
        rows=[
            [1, 1, 1, 1, 1],
            [4, 0, 1, -1, -1],
            [5, 1, -1, 0, 0],
            [3, -1, 0, -b, -a],
            [3, -1, 0, -a, -b],
        ],
    )


# ---------------------------------------------------------------------------
# dihedral groups D2n (order 2n)


def _d2n_rot_class(n: int, i: int) -> int:
    i %= n
    return min(i, n - i)


def _d2n(n: int) -> CharacterTable:
    even = n % 2 == 0
    half = n // 2 if even else (n - 1) // 2
    rot_names = [f"C{i}" for i in range(half + 1)]
    names = rot_names + (["Cr1", "Cr2"] if even else ["Cr"])
    sizes = [1] + [2] * (half - 1 if even else half)
    sizes += [1, n // 2, n // 2] if even else [n]
    rep_orders = [n // gcd(i, n) if i else 1 for i in range(half + 1)]
    rep_orders += [2, 2] if even else [2]
    k = len(names)
    inverse = list(range(k))
    exponent = lcm(n, 2)
    prime_maps = {}
    for p in primes_below(exponent + 1):
        pm = [_d2n_rot_class(n, p * i) for i in range(half + 1)]
        if p == 2:
            pm += [0, 0] if even else [0]
        else:
            pm += [half + 1, half + 2] if even else [half + 1]
        prime_maps[p] = pm
    rows: list[list] = [[1] * k]
    rows.append([1] * (half + 1) + ([-1, -1] if even else [-1]))
    labels = ["chi1", "chi2"]
    if even:
        rows.append([(-1) ** i for i in range(half + 1)] + [1, -1])
        rows.append([(-1) ** i for i in range(half + 1)] + [-1, 1])
        labels += ["chi3", "chi4"]
    n_tau = half - 1 if even else half
    cos2 = [_two_cos(n, e) for e in range(n)]
    for j in range(1, n_tau + 1):
        rows.append([cos2[i * j % n] for i in range(half + 1)] + ([0, 0] if even else [0]))
        labels.append(f"tau{j}")
    return assemble_table(f"D2n:{n}", 2 * n, names, sizes, rep_orders, inverse, prime_maps,
                          labels, rows)


# ---------------------------------------------------------------------------
# generalized quaternion groups Q4n (order 4n)


def _q4n_rot_class(n: int, i: int) -> int:
    i %= 2 * n
    return min(i, 2 * n - i)


def _q4n(n: int) -> CharacterTable:
    even = n % 2 == 0
    names = [f"C{i}" for i in range(n + 1)] + ["Cr1", "Cr2"]
    sizes = [1] + [2] * (n - 1) + [1, n, n]
    rep_orders = [2 * n // gcd(i, 2 * n) if i else 1 for i in range(n + 1)] + [4, 4]
    k = n + 3
    inverse = list(range(k))
    if not even:
        inverse[n + 1], inverse[n + 2] = n + 2, n + 1
    exponent = lcm(2 * n, 4)
    prime_maps = {}
    for p in primes_below(exponent + 1):
        pm = [_q4n_rot_class(n, p * i) for i in range(n + 1)]
        if p == 2:
            pm += [n, n]
        else:
            # (b a^i)^p = b a^(i - n(p-1)/2); for odd n the parity of the
            # rotation part flips exactly when p = 3 mod 4
            flip = (not even) and ((p - 1) // 2) % 2 == 1
            pm += [n + 2, n + 1] if flip else [n + 1, n + 2]
        prime_maps[p] = pm
    ii = Cyclotomic.root_of_unity(4)
    rows: list[list] = [[1] * k]
    rows.append([1] * (n + 1) + [-1, -1])
    if even:
        rows.append([(-1) ** i for i in range(n + 1)] + [1, -1])
        rows.append([(-1) ** i for i in range(n + 1)] + [-1, 1])
    else:
        rows.append([(-1) ** i for i in range(n + 1)] + [ii, -ii])
        rows.append([(-1) ** i for i in range(n + 1)] + [-ii, ii])
    labels = ["chi1", "chi2", "chi3", "chi4"]
    cos2 = [_two_cos(2 * n, e) for e in range(2 * n)]
    for j in range(1, n):
        rows.append([cos2[i * j % (2 * n)] for i in range(n + 1)] + [0, 0])
        labels.append(f"tau{j}")
    return assemble_table(f"Q4n:{n}", 4 * n, names, sizes, rep_orders, inverse, prime_maps,
                          labels, rows)


# ---------------------------------------------------------------------------
# Heisenberg groups mod p (order p^3)


def _hp_pair_index(p: int, e: int, f: int) -> int:
    # classes: C(0..p-1) first, then C(e,f) for (e,f) != (0,0) in lex order
    return p + e * p + f - 1


def _hp(p: int) -> CharacterTable:
    k = p + p * p - 1
    names = [f"C({h})" for h in range(p)]
    pairs = [(e, f) for e in range(p) for f in range(p) if (e, f) != (0, 0)]
    names += [f"C({e},{f})" for e, f in pairs]
    sizes = [1] * p + [p] * (p * p - 1)
    rep_orders = [1] + [p] * (k - 1)
    inverse = [0] + [p - h for h in range(1, p)]
    inverse += [_hp_pair_index(p, (-e) % p, (-f) % p) for e, f in pairs]
    prime_maps = {}
    for q in primes_below(p + 1):
        if q == p:
            prime_maps[q] = [0] * k
            continue
        pm = [(q * h) % p for h in range(p)]
        pm += [_hp_pair_index(p, (q * e) % p, (q * f) % p) for e, f in pairs]
        prime_maps[q] = pm
    rows: list[list] = []
    labels: list[str] = []
    zeta = [Cyclotomic.root_of_unity(p, e) for e in range(p)]
    for i in range(p):
        for j in range(p):
            rows.append([1] * p + [zeta[(e * i + f * j) % p] for e, f in pairs])
            labels.append(f"chi_{i}_{j}")
    p_zeta = [z * p for z in zeta]
    for s in range(1, p):
        rows.append([p_zeta[s * h % p] for h in range(p)] + [0] * (p * p - 1))
        labels.append(f"tau_{s}")
    return assemble_table(f"Hp:{p}", p**3, names, sizes, rep_orders, inverse, prime_maps,
                          labels, rows)


# ---------------------------------------------------------------------------


@cache
def get_group(family: str, param: int | None = None) -> CharacterTable:
    """The builtin character table for a family selector; always validated."""
    _check_params(family, param)
    builders = {"S3": _s3, "A4": _a4, "G21": _g21, "S4": _s4, "A5": _a5}
    if family in builders:
        table = builders[family]()
    elif family == "D2n":
        table = _d2n(param)
    elif family == "Q4n":
        table = _q4n(param)
    else:
        table = _hp(param)
    problems = validate_table(table)
    if problems:
        raise AssertionError(f"builtin table {family} failed validation: {problems}")
    return table


def get_group_by_selector(selector: str) -> CharacterTable:
    return get_group(*parse_group_selector(selector))


# ---------------------------------------------------------------------------
# tau' class functions and the family closed forms


def tau_prime(family: str, param: int, k: int) -> ClassFunction:
    """The two-dimensional family class function tau'_k, for any integer k.

    Values are eta^(ik) + eta^(-ik) on the rotation class of a^i and 0 on the
    reflection classes (eta of order n for D2n, 2n for Q4n).
    """
    if family not in ("D2n", "Q4n"):
        raise ValueError("tau' exists only for the D2n and Q4n families")
    table = get_group(family, param)
    cd = table.classes
    period = param if family == "D2n" else 2 * param
    n_rot = cd.class_count - (2 if family == "Q4n" or param % 2 == 0 else 1)
    values: list = []
    for c in range(cd.class_count):
        values.append(_two_cos(period, c * k) if c < n_rot else 0)
    return ClassFunction(cd, values)


def _tau_normalize(family: str, param: int, k: int) -> dict[str, Fraction]:
    """Resolve tau'_k to irreducible labels using the family relations."""
    n = param
    period = n if family == "D2n" else 2 * n
    boundary = None if (family == "D2n" and n % 2 == 1) else period // 2
    k %= period
    if k > period - k:
        k = period - k
    if k == 0:
        return {"chi1": Fraction(1), "chi2": Fraction(1)}
    if boundary is not None and k == boundary:
        return {"chi3": Fraction(1), "chi4": Fraction(1)}
    return {f"tau{k}": Fraction(1)}


def _add_terms(acc: dict[str, Fraction], terms: dict[str, Fraction], scale=1) -> None:
    for label, c in terms.items():
        acc[label] = acc.get(label, Fraction(0)) + c * scale
        if acc[label] == 0:
            del acc[label]


def family_closed_form(
    family: str, param: int, k_or_s: int, op: str, n: int
) -> dict[str, Fraction]:
    """The stated closed form for S^n / exterior power n of tau'_k (or tau_s).

    The result is a mapping from irreducible labels to multiplicities,
    fully normalized through the tau' relations (D2n, Q4n) or reduced mod p
    (Hp).  Entries for Hp may be scalar multiples fixed by binomials.
    """
    if op not in ("sym", "ext"):
        raise ValueError("op must be 'sym' or 'ext'")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    acc: dict[str, Fraction] = {}
    if family in ("D2n", "Q4n"):
        k = k_or_s
        if op == "ext":
            if n == 0:
                return {"chi1": Fraction(1)}
            if n == 1:
                return _tau_normalize(family, param, k)
            if n == 2:
                if family == "D2n":
                    return {"chi2": Fraction(1)}
                return {"chi2" if k % 2 == 0 else "chi1": Fraction(1)}
            return {}
        if n == 0:
            return {"chi1": Fraction(1)}
        if n % 2 == 1:
            for i in range(1, (n + 1) // 2 + 1):
                _add_terms(acc, _tau_normalize(family, param, (2 * i - 1) * k))
            return acc
        m = n // 2
        for i in range(1, m + 1):
            _add_terms(acc, _tau_normalize(family, param, 2 * i * k))
        if family == "D2n":
            _add_terms(acc, {"chi1": Fraction(1)})
        else:
            _add_terms(acc, {"chi2" if (m * k) % 2 == 1 else "chi1": Fraction(1)})
        return acc
    if family != "Hp":
        raise ValueError(f"no closed forms for family {family!r}")
    p, s = param, k_or_s
    if not 1 <= s <= p - 1:
        raise ValueError("tau index must be in 1..p-1")
    if op == "ext":
        if n == 0 or n == p:
            return {"chi_0_0": Fraction(1)}
        if n > p:
            return {}
        return {f"tau_{(n * s) % p}": binom(p, n) / p}
    if n == 0:
        return {"chi_0_0": Fraction(1)}
    if n % p:
        return {f"tau_{(n * s) % p}": binom(p + n - 1, n) / p}
    c = binom(p + n - 1, n)
    out = {"chi_0_0": (c + p * p - 1) / (p * p)}
    for i in range(p):
        for j in range(p):
            if (i, j) != (0, 0):
                out[f"chi_{i}_{j}"] = (c - 1) / (p * p)
    return out


# ---------------------------------------------------------------------------
# permutation models and the class-data matching


@dataclass(frozen=True)
class PermModel:
    """A permutation realization whose classes are matched to the builtin ones.

    ``matching[i]`` is the index, in the class data derived from the
    permutation group, of the builtin class i.
    """

    group: GeneratedGroup
    data: ClassData
    matching: tuple[int, ...]

    @classmethod
    def matched(cls, classes: ClassData, group: GeneratedGroup) -> PermModel | None:
        """``group`` as a model of ``classes``: its class data derived and
        matched to them, or None if no matching exists."""
        derived = class_data(group)
        matching = match_class_data(classes, derived)
        return None if matching is None else cls(group, derived, matching)


def match_class_data(a: ClassData, b: ClassData) -> tuple[int, ...] | None:
    """A bijection of classes preserving sizes, orders, inverses and power maps."""
    if (
        a.group_order != b.group_order
        or a.exponent != b.exponent
        or a.class_count != b.class_count
        or sorted(a.sizes) != sorted(b.sizes)
        or sorted(a.rep_orders) != sorted(b.rep_orders)
    ):
        return None
    k = a.class_count
    primes = sorted(set(a.prime_power_maps) & set(b.prime_power_maps))
    maps = [(a.inverse_class, b.inverse_class)]
    maps += [(a.prime_power_maps[p], b.prime_power_maps[p]) for p in primes]
    cands = [
        [
            j
            for j in range(k)
            if b.sizes[j] == a.sizes[i] and b.rep_orders[j] == a.rep_orders[i]
        ]
        for i in range(k)
    ]
    order = sorted(range(k), key=lambda i: (len(cands[i]), i))
    mapping: dict[int, int] = {}
    if not _extend_matching(maps, [(i, cands[i]) for i in order], mapping):
        return None
    return tuple(mapping[i] for i in range(k))


def _extend_matching(maps, todo, mapping: dict[int, int]) -> bool:
    """Extend the partial class matching ``mapping`` depth-first over
    ``todo``, the (class, candidates) pairs still to place, in order; True,
    with ``mapping`` complete, once it commutes with every (a-map, b-map)
    pair in ``maps``.  A module-level function: a recursive closure would
    hold itself in a reference cycle."""
    if not todo:
        return all(mapping[x[i]] == y[mapping[i]] for x, y in maps for i in mapping)
    (i, cands), used = todo[0], set(mapping.values())
    for j in cands:
        if j not in used and all(mapping.get(s, t) == t and (s != i or t == j)
                                 for s, t in ((x[i], y[j]) for x, y in maps)):
            mapping[i] = j
            if _extend_matching(maps, todo[1:], mapping):
                return True
            del mapping[i]
    return False


def _regular_action_q4n(n: int) -> list[Permutation]:
    # points: a^i -> i (i < 2n), b a^i -> 2n + i; left multiplication
    deg = 4 * n
    la = [0] * deg
    lb = [0] * deg
    for i in range(2 * n):
        la[i] = (i + 1) % (2 * n)
        la[2 * n + i] = 2 * n + (i - 1) % (2 * n)
        lb[i] = 2 * n + i
        lb[2 * n + i] = (n + i) % (2 * n)
    return [Permutation(la), Permutation(lb)]


def _regular_action_hp(p: int) -> list[Permutation]:
    # elements (a,b,c) = upper unitriangular matrices, index a*p^2 + b*p + c;
    # (a,b,c)*(x,y,z) = (a+x, b+y+a*z, c+z)
    def idx(a, b, c):
        return (a % p) * p * p + (b % p) * p + (c % p)

    def left(g):
        ga, gb, gc = g
        images = [0] * p**3
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    images[idx(a, b, c)] = idx(ga + a, gb + b + ga * c, gc + c)
        return Permutation(images)

    return [left((1, 0, 0)), left((0, 0, 1))]


@cache
def get_perm_model(family: str, param: int | None = None) -> PermModel:
    """Generators realizing the builtin group, with the class matching."""
    _check_params(family, param)
    if family == "S3":
        gens = [Permutation.from_cycles("(0 1)", 3), Permutation.from_cycles("(0 1 2)", 3)]
    elif family == "A4":
        gens = [
            Permutation.from_cycles("(0 1 2)", 4),
            Permutation.from_cycles("(0 1)(2 3)", 4),
        ]
    elif family == "S4":
        gens = [Permutation.from_cycles("(0 1)", 4), Permutation.from_cycles("(0 1 2 3)", 4)]
    elif family == "A5":
        gens = [
            Permutation.from_cycles("(0 1 2 3 4)", 5),
            Permutation.from_cycles("(0 1 2)", 5),
        ]
    elif family == "G21":
        # x: 7-cycle; y: multiplication by 4 mod 7, so y^-1 x y = x^2
        x = Permutation([(i + 1) % 7 for i in range(7)])
        y = Permutation([(4 * i) % 7 for i in range(7)])
        gens = [x, y]
    elif family == "D2n":
        n = param
        rot = Permutation([(i + 1) % n for i in range(n)])
        flip = Permutation([(n - i) % n for i in range(n)])
        gens = [rot, flip]
    elif family == "Q4n":
        gens = _regular_action_q4n(param)
    else:
        gens = _regular_action_hp(param)
    model = PermModel.matched(get_group(family, param).classes, enumerate_group(gens))
    if model is None:
        raise NoModelError(f"no class matching found for {family}")
    return model


# ---------------------------------------------------------------------------
# attached structure used by verification and the closed-form commands


def named_subgroups(family: str, param: int | None = None) -> dict[str, tuple[int, ...]]:
    """Class-index sets of some normal subgroups of the builtin group."""
    _check_params(family, param)
    out: dict[str, tuple[int, ...]] = {"trivial": (0,)}
    if family == "S3":
        out["A3"] = (0, 2)
    elif family == "S4":
        out["V"] = (0, 4)
        out["A4"] = (0, 2, 4)
    elif family == "A4":
        out["V"] = (0, 1)
    elif family == "G21":
        out["C7"] = (0, 1, 2)
    elif family == "D2n":
        half = param // 2 if param % 2 == 0 else (param - 1) // 2
        out["rotations"] = tuple(range(half + 1))
    elif family == "Q4n":
        out["rotations"] = tuple(range(param + 1))
        out["center"] = (0, param)
    elif family == "Hp":
        out["center"] = tuple(range(param))
    return out


def central_characters(
    family: str, param: int | None = None, names: tuple[str, ...] | None = None
) -> dict[str, CentralCharSpec]:
    """Central one-dimensional character specs attached to the builtin group,
    only those in ``names`` when it is given (an unknown name is left out)."""
    _check_params(family, param)
    if family != "Hp":
        return {}
    p = param
    table = get_group(family, param)
    cd = table.classes
    spec = subgroup_spec(cd, named_subgroups(family, param)["center"])
    out = {}
    for s in range(1, p):
        if names is not None and f"zeta_{s}" not in names:
            continue
        # zeta(0) is the rational 1 at order 1, every other value has order p
        zeta = {h: Cyclotomic.root_of_unity(p if h else 1, s * h % p) for h in range(p)}
        out[f"zeta_{s}"] = central_char_spec(cd, spec, zeta, p)
    return out


def quotient_transfers(
    family: str, param: int | None = None
) -> dict[str, tuple[CharacterTable, tuple[int, ...]]]:
    """Known quotient tables with their class maps (G-class -> quotient class)."""
    _check_params(family, param)
    if family == "S4":
        # S4 / V is S3: transpositions and 4-cycles land on the transposition
        # class, V on the identity, 3-cycles on the 3-cycles
        return {"V": (get_group("S3"), (0, 1, 2, 1, 0))}
    return {}


# ---------------------------------------------------------------------------
# resolved groups: builtins, group-spec files and generated permutation groups


@dataclass
class GroupContext:
    """A resolved group.  A builtin (family, param) builds its permutation model,
    natural character and central characters on first read (``central_spec``
    only the one it names); a spec file or generators set the model and
    central characters at load, validated."""

    name: str
    table: CharacterTable | None = None
    builtin: tuple[str, int | None] | None = None
    subgroups: dict[str, NormalSubgroupSpec] = field(default_factory=dict)
    transfers: dict = field(default_factory=dict)

    @cached_property
    def model(self) -> PermModel | None:
        try:
            return get_perm_model(*self.builtin) if self.builtin else None
        except NoModelError:
            return None

    @cached_property
    def natural(self) -> ClassFunction | None:
        # the fixed-point character, transported onto the table's class order
        if self.model is None:
            return None
        _, natural = standard_characters(self.model.group, self.model.data)
        return ClassFunction(self.classes, [natural.values[i] for i in self.model.matching])

    @cached_property
    def central(self) -> dict[str, CentralCharSpec]:
        return central_characters(*self.builtin) if self.builtin else {}

    def central_spec(self, name: str) -> CentralCharSpec | None:
        """The central character ``name``; a builtin builds only that one
        unless ``central`` is built already."""
        if self.builtin and "central" not in self.__dict__:
            return central_characters(*self.builtin, (name,)).get(name)
        return self.central.get(name)

    @property
    def classes(self) -> ClassData:
        return self.model.data if self.table is None else self.table.classes

    def character(self, selector: str) -> ClassFunction:
        if selector == "regular":
            return regular_character(self.classes)
        if selector == "natural":
            if self.natural is None:
                raise InputError("no permutation model, so no natural character")
            return self.natural
        try:
            return self.table.character(selector)
        except KeyError:
            raise InputError(f"unknown character {selector!r}; available: "
                             + ", ".join(self.table.labels)) from None


def _builtin_context(family: str, param: int | None) -> GroupContext:
    table = get_group(family, param)
    subgroups = {name: subgroup_spec(table.classes, idx)
                 for name, idx in named_subgroups(family, param).items()}
    return GroupContext(table.name or family, table, (family, param), subgroups,
                        quotient_transfers(family, param))


def _integer(value, where: str) -> int:
    # a JSON integer; bool is an int subclass in Python but not in JSON
    if type(value) is not int:
        raise InputError(f"{where} must be an integer, not {json.dumps(value)}")
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{where} must be a JSON object")
    return value


def _indices(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise InputError(f"{where} must be a list of class indices")
    return tuple(_integer(i, where) for i in value)


def _parse_cyclo(value, root_order: int, where: str) -> Cyclotomic:
    if not (isinstance(value, list) and all(isinstance(t, list) and len(t) == 3 for t in value)):
        raise InputError(f"{where}: a value is a list of [exponent, num, den] triples")
    terms = [[_integer(x, where) for x in t] for t in value]
    if any(d == 0 for _, _, d in terms):
        raise InputError(f"{where}: a term has denominator 0")
    return Cyclotomic.from_terms(root_order, [(e, Fraction(n, d)) for e, n, d in terms])


def check_multiplier(m: int, where: str) -> int:
    """m, the multiplier of a closed form, if it is in 1..MAX_DEGREE: lambda_t
    of m*zeta_0 has degree m at the identity."""
    if not 1 <= m <= MAX_DEGREE:
        raise InputError(f"{where}: the multiplier {m} is not in 1..{MAX_DEGREE}")
    return m


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.load would keep the last of two equal keys, so the meaning of a
    # file would depend on its key order
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"key {key!r} repeats in one JSON object")
        obj[key] = value
    return obj


def load_group_spec(path: str) -> GroupContext:
    """Load and fully validate a JSON group-spec file; failures are fatal."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read group spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    except ValueError as exc:  # an integer past Python's digit limit, bad UTF-8
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: the top level must be a JSON object")
    if raw.get("format_version") != 1:
        raise InputError(f"{path}: format_version must be 1")
    try:
        name = str(raw["name"])
        order = _integer(raw["order"], f"{path}: order")
        root_order = _integer(raw["root_order"], f"{path}: root_order")
        classes = raw["classes"]
        irreducibles = raw["irreducibles"]
    except KeyError as exc:
        raise InputError(f"{path}: missing required field {exc}") from exc
    for key, value in (("classes", classes), ("irreducibles", irreducibles)):
        if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
            raise InputError(f"{path}: {key} must be a list of JSON objects")
    if not classes:
        raise InputError(f"{path}: classes must not be empty")
    if len(classes) > MAX_CLASSES:
        raise InputError(f"{path}: at most {MAX_CLASSES} classes are supported")
    if not 1 <= root_order <= MAX_ROOT_ORDER:
        raise InputError(f"{path}: root_order must be in 1..{MAX_ROOT_ORDER}")
    if order < 1:
        raise InputError(f"{path}: order must be positive")

    def class_index(value, where: str) -> int:
        if not 0 <= _integer(value, where) < len(classes):
            raise InputError(f"{where}: class index {value} is not in 0..{len(classes) - 1}")
        return value

    names, sizes, rep_orders, inverse = [], [], [], []
    prime_maps: dict[int, list[int]] = {}
    for i, cls in enumerate(classes):
        where = f"{path}: classes[{i}]"
        try:
            names.append(str(cls["name"]))
            sizes.append(_integer(cls["size"], f"{where}.size"))
            rep_orders.append(_integer(cls["rep_order"], f"{where}.rep_order"))
            inverse.append(class_index(cls["inverse"], f"{where}.inverse"))
        except KeyError as exc:
            raise InputError(f"{where}: missing field {exc}") from exc
        if sizes[-1] < 1 or rep_orders[-1] < 1:
            raise InputError(f"{where}: size and rep_order must be positive")
        seen = set()
        for p_raw, image in _object(cls.get("prime_powers", {}), f"{where}.prime_powers").items():
            p = parse_digits(p_raw, f"{where}.prime_powers key")
            if p is None or not _is_prime(p):
                kind = "an integer" if p is None else "a prime"
                raise InputError(f"{where}.prime_powers: key {p_raw!r} is not {kind}")
            if p in seen:
                raise InputError(f"{where}.prime_powers: key {p_raw!r} repeats the prime {p}")
            seen.add(p)
            image = class_index(image, f"{where}.prime_powers[{p_raw!r}]")
            prime_maps.setdefault(p, [0] * len(classes))[i] = image
    exponent = lcm(*rep_orders)
    if root_order % exponent:
        raise InputError(f"{path}: root_order {root_order} is not a multiple of the exponent "
                         f"{exponent}")
    value_rows, labels = [], []
    for j, irr in enumerate(irreducibles):
        where = f"{path}: irreducibles[{j}]"
        label = str(irr.get("name", f"chi{j+1}"))
        if ":" in label or label in ("regular", "natural"):
            raise InputError(f"{where}: name {label!r} must not contain ':' or be regular "
                             "or natural")
        if label in labels:
            raise InputError(f"{where}: name {label!r} repeats irreducibles[{labels.index(label)}]")
        labels.append(label)
        vals = irr.get("values")
        if not isinstance(vals, list) or len(vals) != len(classes):
            raise InputError(f"{where}: need one value per class")
        value_rows.append([_parse_cyclo(v, root_order, f"{where}.values[{c}]")
                           for c, v in enumerate(vals)])
    try:
        table = assemble_table(name, order, names, sizes, rep_orders, inverse, prime_maps,
                               labels, value_rows)
    except (KeyError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    cd = table.classes
    problems = validate_table(table)
    if problems:
        raise InputError(f"{path}: table validation failed: " + "; ".join(problems))
    mismatch = power_map_mismatch(table, prime_maps)
    if mismatch:
        raise InputError(f"{path}: {mismatch}")
    # Adams operations map characters to virtual characters (Atiyah and Tall,
    # Topology 8 (1969)): a map of a prime dividing |G| that breaks one is wrong
    for p in sorted(q for q in prime_maps if order % q == 0):
        for label, chi in zip(table.labels, table.irreducibles):
            try:
                integral = all(q.denominator == 1 for q in decompose(adams(chi, p), table))
            except NonRationalMultiplicityError:
                integral = False
            if not integral:
                raise InputError(f"{path}: psi^{p} of {label} is no virtual character, so "
                                 f"the {p}-power map (prime_powers \"{p}\") is wrong")
    ctx = GroupContext(name=name, table=table)
    gens = raw.get("generators")
    if gens:
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            raise InputError(f"{path}: generators must be a list of cycle strings")
        group = _enumerate_generators(gens, path)
        _attach_model(ctx, group, f"{path}: generators do not match the declared classes")
    subgroups = _object(raw.get("normal_subgroups", {}), f"{path}: normal_subgroups")
    for sub_name, idx in subgroups.items():
        where = f"{path}: normal_subgroups[{sub_name!r}]"
        try:
            ctx.subgroups[sub_name] = subgroup_spec(cd, _indices(idx, where))
        except InvalidSubgroupError as exc:
            raise InputError(f"{where}: {exc}") from exc
    for cname, cc in _object(raw.get("central_chars", {}), f"{path}: central_chars").items():
        where = f"{path}: central_chars[{cname!r}]"
        sub = _object(cc, where).get("subgroup")
        if isinstance(sub, str) and sub not in ctx.subgroups:
            raise InputError(f"{where}: unknown subgroup {sub!r}")
        try:
            spec = (ctx.subgroups[sub] if isinstance(sub, str)
                    else subgroup_spec(cd, _indices(sub, f"{where}.subgroup")))
            zeta = {}
            for c_raw, e in _object(cc.get("zeta", {}), f"{where}.zeta").items():
                c = parse_digits(c_raw, f"{where}.zeta key")
                if c is None:
                    raise InputError(f"{where}.zeta: key {c_raw!r} is not a class index")
                if c in zeta:
                    raise InputError(f"{where}.zeta: key {c_raw!r} repeats the class {c}")
                zeta[c] = Cyclotomic.root_of_unity(root_order, _integer(e, f"{where}.zeta"))
            multiplier = check_multiplier(
                _integer(cc.get("multiplier", 1), f"{where}.multiplier"), f"{where}.multiplier"
            )
            ctx.central[cname] = central_char_spec(cd, spec, zeta, multiplier)
        except (InvalidSubgroupError, InvalidCentralCharError) as exc:
            raise InputError(f"{where}: {exc}") from exc
    return ctx


def cyclo_terms(value: Cyclotomic, root_order: int) -> list[list[int]]:
    """Serialize a value as [exponent, numerator, denominator] triples."""
    if value.is_rational():  # at any order, as a rational
        return [[0, value.num[0], value.den]] if value.num[0] else []
    lifted = value.lift(root_order)
    return [[i, c.numerator, c.denominator] for i, c in enumerate(lifted.coeffs) if c != 0]


def dump_group_spec(table: CharacterTable, generators: list[str] | None = None) -> dict:
    """The JSON document for a character table, in group-spec format."""
    cd = table.classes
    root = lcm(cd.exponent, table._columns.n)  # the order of every irrational value divides n
    maps = [(str(p), m) for p, m in sorted(cd.prime_power_maps.items()) if cd.exponent % p == 0]
    classes = [
        {"name": cd.names[c], "size": cd.sizes[c], "rep_order": cd.rep_orders[c],
         "inverse": cd.inverse_class[c], "prime_powers": {p: m[c] for p, m in maps}}
        for c in range(cd.class_count)
    ]
    irreducibles = [
        {"name": lbl, "values": [cyclo_terms(v, root) for v in chi.values]}
        for lbl, chi in zip(table.labels, table.irreducibles)
    ]
    doc = {"format_version": 1, "name": table.name or "group", "order": cd.group_order,
           "root_order": root, "classes": classes, "irreducibles": irreducibles}
    if generators:
        doc["generators"] = generators
    return doc


def _enumerate_generators(cycles: list[str], path: str = "") -> GeneratedGroup:
    """The group the cycle strings generate.  Every error of a spec file's
    generators names ``<path>: generators``; the --generators flag's errors
    keep their own wording."""
    where = f"{path}: generators" if path else "generators"
    try:
        perms = [Permutation.from_cycles(g) for g in cycles if g.strip()]
    except ValueError as exc:
        raise InputError(f"{where}: {exc}" if path else str(exc)) from exc
    if not perms:
        raise InputError(f"{where} are all blank" if path else "no generators given")
    degree = max(p.degree for p in perms)
    perms = [Permutation(list(p.images) + list(range(p.degree, degree))) for p in perms]
    try:
        return enumerate_group(perms)
    except CapExceededError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _attach_model(ctx: GroupContext, group: GeneratedGroup, mismatch: str) -> None:
    """Attach the permutation group ``group`` as the model of ctx's table."""
    ctx.model = PermModel.matched(ctx.table.classes, group)
    if ctx.model is None:
        raise InputError(mismatch)


def resolve_group(selector: str | None, generators: str | None = None) -> GroupContext:
    """The group of a builtin selector or a spec-file path, with the model its
    ``;``-separated permutation generators give, or the group that they
    generate when there is no selector."""
    ctx = None
    if selector and (os.path.exists(selector) or selector.endswith(".json")):
        ctx = load_group_spec(selector)
    elif selector:
        try:
            ctx = _builtin_context(*parse_group_selector(selector))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    elif not generators:
        raise InputError("a group is required (--group or --generators)")
    if generators:
        group = _enumerate_generators(generators.split(";"))
        if ctx is not None:  # a table plus explicit generators
            _attach_model(ctx, group, "generators do not realize the selected group")
        else:
            data = class_data(group)
            ctx = GroupContext(name=f"<generated order {len(group)}>")
            ctx.model = PermModel(group, data, tuple(range(data.class_count)))
    return ctx
