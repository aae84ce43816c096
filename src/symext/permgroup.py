"""Exhaustive enumeration of small permutation groups.

Groups are given by generators on points 0..n-1 and closed by breadth-first
search, which keeps the element order deterministic.  From the enumerated
group we read off the full conjugacy-class skeleton (sizes, orders, inverse
pairing, power maps) and the standard permutation characters.  The one
structure kept beside the element list is a base B in Sims's sense: points
that only the identity fixes all of, the first level of a stabilizer chain.
If g and h agree on B then g⁻¹h fixes B pointwise, so g = h: an element is
determined by its images of B.  Conjugates and powers are therefore named by
|B| images each, not built as whole permutations.  The groups of interest
are desk-scale and a hard cap guards misuse.
"""

from __future__ import annotations

import re
from math import lcm
from operator import itemgetter

from .groupdata import ClassData, ClassFunction
from .exactnum import primes_below

DEFAULT_CAP = 20000
# Points of a cycle string lie in 0..MAX_POINTS-1: a permutation stores one
# image per point.  The builtin models are built in code, and Hp:11's acts on
# 1,331 points, more than a cycle string can name.
MAX_POINTS = 1000
MAX_DIGITS = 18  # of an input integer: far above every bound checked after the read


class CapExceededError(RuntimeError):
    """The generated group is larger than the enumeration cap."""


def parse_digits(text: str, where: str) -> int | None:
    """int(text) if text is ASCII digits and None if not; a one-line ValueError
    naming ``where``, before int() runs, if it has more than MAX_DIGITS digits."""
    if not (text.isascii() and text.isdigit()):
        return None
    if len(text) > MAX_DIGITS:
        raise ValueError(f"{where} has more than {MAX_DIGITS} digits")
    return int(text)


class Permutation:
    """A bijection of {0..n-1}, stored as the tuple of images."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images)-1}: {images}")
        self.images, self._hash = images, None

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(range(degree))

    @staticmethod
    def from_cycles(text: str, degree: int | None = None) -> "Permutation":
        """Parse cycle notation like "(0 1)(2 3)"; points may use spaces or commas."""
        cycles = []
        seen: set[int] = set()
        for body in re.findall(r"\(([^()]*)\)", text):
            pts = [parse_digits(t, "a cycle point") for t in re.split(r"[,\s]+", body) if t]
            if not all(p is not None and p < MAX_POINTS for p in pts):
                raise ValueError(f"points must be in 0..{MAX_POINTS - 1}: {body!r}")
            if len(set(pts)) != len(pts):
                raise ValueError(f"repeated point in cycle {body!r}")
            if seen & set(pts):
                raise ValueError(f"point appears in two cycles: {text!r}")
            seen |= set(pts)
            if len(pts) > 1:
                cycles.append(pts)
        if re.sub(r"\([^()]*\)|\s", "", text):
            raise ValueError(f"unparsed cycle text: {text!r}")
        n = degree if degree is not None else (max(seen) + 1 if seen else 1)
        if seen and max(seen) >= n:
            raise ValueError(f"point {max(seen)} is not in 0..{n - 1}, the points of degree {n}")
        images = list(range(n))
        for pts in cycles:
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
        return Permutation(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (a*b)(x) = a(b(x))
        if len(self.images) != len(other.images):
            raise ValueError(f"degrees differ: {self.degree} and {other.degree}")
        # a product of permutations is one: skip the check in __init__; with
        # one index itemgetter returns the image itself, and the only
        # permutation of degree 1 or 0 is the identity
        images = other.images
        product = object.__new__(Permutation)
        product.images = itemgetter(*images)(self.images) if len(images) > 1 else self.images
        product._hash = None
        return product

    def inverse(self) -> "Permutation":
        out = [0] * self.degree
        for i, im in enumerate(self.images):
            out[im] = i
        return Permutation(out)

    def __pow__(self, n: int) -> "Permutation":
        # each point of a cycle of length L moves n % L steps along it
        images = list(range(self.degree))
        for cyc in self._cycles():
            s = n % len(cyc)
            for a, b in zip(cyc, cyc[s:] + cyc[:s]):
                images[a] = b
        power = object.__new__(Permutation)
        power.images, power._hash = tuple(images), None
        return power

    def order(self) -> int:
        return lcm(*map(len, self._cycles()))

    def _cycles(self) -> list[list[int]]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            p = self.images[start]
            while p != start:
                cyc.append(p)
                seen[p] = True
                p = self.images[p]
            if len(cyc) > 1:
                out.append(cyc)
        return out

    def fixed_points(self) -> int:
        return sum(1 for i, im in enumerate(self.images) if i == im)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        # hashed once: a set lookup would hash the whole image tuple each time
        if self._hash is None:
            self._hash = hash(self.images)
        return self._hash

    def __repr__(self) -> str:
        cycs = self._cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


class GeneratedGroup:
    """The closure of a generating set, with a base and the position of each
    element keyed by its images of the base."""

    __slots__ = ("degree", "generators", "elements", "base", "base_index", "_classes")

    def __init__(self, degree, generators, elements):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = list(elements)
        self.base = _find_base(self.elements)
        self.base_index = {
            tuple(map(g.images.__getitem__, self.base)): i for i, g in enumerate(self.elements)
        }
        self._classes = None

    def conjugacy_classes(self) -> list[list[int]]:
        """Conjugacy classes in the order of :func:`_sorted_classes`, found once."""
        if self._classes is None:
            self._classes = _sorted_classes(self)
        return self._classes

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"GeneratedGroup(degree={self.degree}, order={len(self)})"


def enumerate_group(generators, cap: int = DEFAULT_CAP) -> GeneratedGroup:
    """BFS closure under left multiplication by the generators.

    Element order is deterministic: identity first, then layer by layer with a
    lexicographic tie-break on images inside each layer.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator required")
    if cap < 1:
        raise ValueError("cap must be positive")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators act on different point sets")
    identity = Permutation.identity(degree)
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        layer = set()
        for h in frontier:
            for g in gens:
                cand = g * h
                if cand not in seen:
                    layer.add(cand)
        frontier = sorted(layer, key=lambda p: p.images)
        for p in frontier:
            seen.add(p)
            elements.append(p)
            if len(elements) > cap:
                raise CapExceededError(f"group order exceeds cap {cap}")
    return GeneratedGroup(degree, gens, elements)


def _find_base(elements: list[Permutation]) -> tuple[int, ...]:
    """A base, found greedily: the first point moved by some element that
    fixes the points so far, until only the identity (elements[0]) does."""
    base = []
    movers = elements[1:]
    while movers:
        point = min(next(x for x, im in enumerate(g.images) if x != im) for g in movers)
        base.append(point)
        movers = [g for g in movers if g.images[point] == point]
    return tuple(base)


def _base_cycles(images: tuple[int, ...], base: tuple[int, ...]) -> list[list[int]]:
    """The cycle through each base point, starting at it.  The element's
    k-th power sends b to cycle_b[k % len(cycle_b)], and its order is the lcm
    of these lengths: a power that fixes the base is the identity."""
    cycles = []
    for b in base:
        cycle = [b]
        x = images[b]
        while x != b:
            cycle.append(x)
            x = images[x]
        cycles.append(cycle)
    return cycles


def _sorted_classes(group: GeneratedGroup) -> list[list[int]]:
    """Conjugacy classes as sorted index lists, in a deterministic order.

    Each class is the orbit of conjugation by the generators (BFS), with
    g·h·g⁻¹ named by its images g[h[g⁻¹[b]]] of the base; classes are sorted
    by (representative order, size, lexicographically least member), which
    puts the identity first.
    """
    index, elements = group.base_index, group.elements
    conjugators = [
        (g.images.__getitem__, [g.inverse().images[b] for b in group.base])
        for g in group.generators
    ]
    unassigned = set(range(len(group)))
    classes: list[list[int]] = []
    while unassigned:
        start = min(unassigned)
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for h in frontier:
                h_at = elements[h].images.__getitem__
                for g_at, pulled_base in conjugators:
                    ci = index[tuple(map(g_at, map(h_at, pulled_base)))]
                    if ci not in orbit:
                        orbit.add(ci)
                        nxt.append(ci)
            frontier = nxt
        unassigned -= orbit
        classes.append(sorted(orbit))

    def sort_key(cls: list[int]):
        rep = min(elements[i].images for i in cls)
        order = lcm(*map(len, _base_cycles(elements[cls[0]].images, group.base)))
        return (order, len(cls), rep)

    classes.sort(key=sort_key)
    return classes


def class_data(group: GeneratedGroup) -> ClassData:
    """Partition the group into conjugacy classes and package the skeleton.

    Each representative's powers are read off its cycles through the base."""
    index = group.base_index
    classes = group.conjugacy_classes()
    assert group.elements[classes[0][0]] == Permutation.identity(group.degree)

    k = len(classes)
    class_of = [0] * len(group)
    for ci, cls in enumerate(classes):
        for i in cls:
            class_of[i] = ci
    cycles = [_base_cycles(group.elements[cls[0]].images, group.base) for cls in classes]
    sizes = [len(cls) for cls in classes]
    rep_orders = [lcm(*map(len, cycs)) for cycs in cycles]
    exponent = lcm(*rep_orders)

    def power_class(cycs: list[list[int]], n: int) -> int:
        return class_of[index[tuple(cycle[n % len(cycle)] for cycle in cycs)]]

    inverse_class = [power_class(cycs, o - 1) for cycs, o in zip(cycles, rep_orders)]
    prime_maps = {}
    for p in primes_below(exponent + 1):
        prime_maps[p] = tuple(power_class(cycs, p) for cycs in cycles)
    names = [f"C{i+1}" for i in range(k)]
    return ClassData(
        group_order=len(group),
        exponent=exponent,
        names=names,
        sizes=sizes,
        rep_orders=rep_orders,
        inverse_class=inverse_class,
        prime_power_maps=prime_maps,
    )


def class_representatives(group: GeneratedGroup, data: ClassData) -> list[Permutation]:
    """One representative per class of ``data``, in class order.

    ``data`` must have come from :func:`class_data` on the same group.
    """
    classes = group.conjugacy_classes()
    if [len(c) for c in classes] != list(data.sizes):
        raise ValueError("class data does not match this group")
    return [group.elements[cls[0]] for cls in classes]


def standard_characters(
    group: GeneratedGroup, data: ClassData
) -> tuple[ClassFunction, ClassFunction]:
    """(regular, natural): |G|-at-identity and the fixed-point-count character."""
    reps = class_representatives(group, data)
    regular = [0] * data.class_count
    regular[0] = len(group)
    natural = [r.fixed_points() for r in reps]
    return ClassFunction(data, regular), ClassFunction(data, natural)
