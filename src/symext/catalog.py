"""Builtin groups: S3, A4, G21, S4, A5 and the D2n / Q4n / Hp families.

Each constructor returns a validated character table whose classes follow
the conventional listing (identity first).  The five fixed tables are
encoded by hand with power maps for the primes dividing the exponent; maps
for the remaining unit primes are derived from the Galois action on table
columns.  The parametric families compute everything analytically, and
``get_perm_model`` supplies an independent permutation realization whose
derived class data is matched back to the builtin one for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .closedforms import CentralCharSpec, central_char_spec, subgroup_spec
from .exactnum import Cyclotomic, binom, primes_below
from .groupdata import (
    CharacterTable,
    ClassData,
    ClassFunction,
    assemble_table,
    validate_table,
)
from .permgroup import GeneratedGroup, Permutation, class_data, enumerate_group, parse_digits

FIXED_FAMILIES = ("S3", "A4", "G21", "S4", "A5")
PARAM_FAMILIES = ("D2n", "Q4n", "Hp")

# power-basis arithmetic in Q(zeta_N) slows down as phi(N) grows; these caps
# keep table construction interactive and are documented in the README
PARAM_CAPS = {"D2n": 100, "Q4n": 50, "Hp": 11}


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
    group = enumerate_group(gens)
    table = get_group(family, param)
    if len(group) != table.classes.group_order:
        raise NoModelError(
            f"model for {family} has order {len(group)}, expected {table.classes.group_order}"
        )
    derived = class_data(group)
    matching = match_class_data(table.classes, derived)
    if matching is None:
        raise NoModelError(f"no class matching found for {family}")
    return PermModel(group, derived, matching)


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
