"""Finite G-sets and equivariant maps: orbits, fixed points, inflation,
coproducts, and the counit squares of the inflation/fixed-points
adjunction.

The N-fixed points of a G-set X, for N the kernel of a quotient map q,
are computed once per (X, q) and kept (`fixed_point_data`): X^N with its
residual action and the index of each fixed point.  `fixed_points`,
`counit_map`, `unit_map`, `fixed_points_map` and the counit-square
functions read that record.  No square of G-sets is built: the counit
square of f: X -> X' is a pullback iff f sends no orbit outside X^N into
X'^N, so it is decided per orbit factor of hom(X, X')
(`counit_square_counts`).  A unit square needs no test: its parallel
sides are units, isomorphisms, so it is always a pullback.

hom(X, Y) is the product, over the orbits of X, of the sets Y^Stab(orbit)
(`hom_factors`): a map is free to send each orbit's base point to any
point fixed by its stabilizer, and the size of that factor is the mark of
the stabilizer on Y.  Properties of hom-sets are decided per factor;
`hom_gset` multiplies the factors out only where the maps themselves are
needed: one counit-square witness, and the tests.
Orbits and point stabilizers are computed once per G-set.

What is computed once is kept for the rest of the process, in lru_caches
on their arguments: the coset G-sets (`coset_gset`), the fixed-point
records (`fixed_point_data`) and the inflations (`inflate`, per (X, q)).
So inflating the same G-set along an equal quotient map, for a map, a
span functor, a Mackey fixed-point functor or a verify check, returns
the same G-set, with the orbits and stabilizers it has already found.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import GroupMismatch
from .groups import (
    FiniteGroup,
    QuotientMap,
    left_cosets,
    memoise_hash,
    subgroup_lattice,
)


@memoise_hash
@dataclass(frozen=True)
class GSet:
    """Finite left G-set; action[x][g] = g.x."""

    group: FiniteGroup
    action: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.action)

    def points(self) -> range:
        return range(self.size)

    def orbit(self, x: int) -> tuple[int, ...]:
        return tuple(sorted(set(self.action[x])))

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        return self._orbits

    @cached_property
    def _orbits(self) -> tuple[tuple[int, ...], ...]:
        seen: set[int] = set()
        out = []
        for x in self.points():
            if x not in seen:
                orb = self.orbit(x)
                seen.update(orb)
                out.append(orb)
        return tuple(out)

    @cached_property
    def point_stabilizers(self) -> tuple[frozenset[int], ...]:
        """The stabilizer of every point, as a set; built on first use."""
        return tuple(
            frozenset(g for g, y in enumerate(row) if y == x)
            for x, row in enumerate(self.action)
        )

    def __repr__(self):
        return f"GSet(|G|={self.group.order}, size={self.size})"


def make_gset(group: FiniteGroup, action) -> GSet:
    """Validate an action table and return the G-set."""
    action = tuple(tuple(row) for row in action)
    n = len(action)
    order = group.order
    for x, row in enumerate(action):
        if len(row) != order:
            raise ValueError(f"row {x} has length {len(row)}, expected {order}")
        if row[0] != x:
            raise ValueError(f"identity moves point {x}")
        for y in row:
            if not 0 <= y < n:
                raise ValueError(f"action value {y} out of range")
    for g in range(order):
        if len({action[x][g] for x in range(n)}) != n:
            raise ValueError(f"element {g} does not act by a permutation")
        for h in range(order):
            gh = group.mul(g, h)
            for x in range(n):
                if action[action[x][h]][g] != action[x][gh]:
                    raise ValueError(
                        f"action is not compatible with multiplication at "
                        f"(x={x}, g={g}, h={h})"
                    )
    return GSet(group, action)


@dataclass(frozen=True)
class EqMap:
    src: GSet
    dst: GSet
    values: tuple[int, ...]

    def is_injective(self) -> bool:
        return len(set(self.values)) == self.src.size

    def is_iso(self) -> bool:
        return self.src.size == self.dst.size and self.is_injective()


@lru_cache(maxsize=None)
def coset_gset(G: FiniteGroup, subgroup_elements: tuple[int, ...]) -> GSet:
    """Canonical transitive G-set on left cosets of a subgroup, numbered
    as groups.left_cosets numbers them, so the identity coset is point 0."""
    coset_of, reps = left_cosets(G, subgroup_elements)
    return GSet(G, tuple(tuple(coset_of[row[r]] for row in G.mult) for r in reps))


def orbit_gset(G: FiniteGroup, c: int) -> GSet:
    """The canonical orbit of subgroup class c: the coset G-set of the
    class representative."""
    return coset_gset(G, subgroup_lattice(G).class_rep(c).elements)


def orbit_class_multiset(X: GSet) -> tuple[int, ...]:
    """Sorted stabilizer-class indices of the orbits, with repetition."""
    lat = subgroup_lattice(X.group)
    return tuple(
        sorted(lat.class_of(X.point_stabilizers[orb[0]]) for orb in X.orbits())
    )


def find_iso(X: GSet, Y: GSet) -> EqMap | None:
    """An explicit equivariant bijection X -> Y, or None."""
    if X.group != Y.group or X.size != Y.size:
        return None
    values = [-1] * X.size
    targets_used: set[int] = set()
    y_stabs = Y.point_stabilizers
    for orb in X.orbits():
        x = orb[0]
        S = X.point_stabilizers[x]
        match = None
        for yorb in Y.orbits():
            if yorb[0] in targets_used or len(yorb) != len(orb):
                continue
            # need a point with exactly the same stabilizer
            match = next((y for y in yorb if y_stabs[y] == S), None)
            if match is not None:
                targets_used.add(yorb[0])
                break
        if match is None:
            return None
        for gx, gy in zip(X.action[x], Y.action[match]):
            values[gx] = gy
    return EqMap(X, Y, tuple(values))


def canonical_iso(X: GSet) -> EqMap:
    """An equivariant bijection from X onto its canonical isomorph."""
    return find_iso(X, canonical_gset(X.group, orbit_class_multiset(X)))


class FixedPointData(NamedTuple):
    """The N-fixed points of one G-set X, for N = ker q: X^N with the
    residual G/N action, and the index in X^N of each N-fixed point of X,
    in point order."""

    fixed: GSet
    index: dict[int, int]


@lru_cache(maxsize=None)
def fixed_point_data(X: GSet, q: QuotientMap) -> FixedPointData:
    """The fixed-point record of X, computed once per (X, q)."""
    if X.group != q.source:
        raise GroupMismatch("G-set is not over the quotient source")
    N = q.kernel.elements
    pts = [x for x in X.points() if all(X.action[x][n] == x for n in N)]
    index = {x: i for i, x in enumerate(pts)}
    sections = [q.section(c) for c in q.target.elements()]
    action = tuple(tuple(index[X.action[x][s]] for s in sections) for x in pts)
    return FixedPointData(GSet(q.target, action), index)


def fixed_points(X: GSet, q: QuotientMap) -> GSet:
    """N-fixed points of X with the residual G/N action."""
    return fixed_point_data(X, q).fixed


def counit_map(X: GSet, q: QuotientMap) -> EqMap:
    """inf(X^N) -> X; the inclusion of the fixed points."""
    fixed, index = fixed_point_data(X, q)
    return EqMap(inflate(fixed, q), X, tuple(index))


def unit_map(X: GSet, q: QuotientMap) -> EqMap:
    """X -> (inf X)^N for X over G/N."""
    fixed, index = fixed_point_data(inflate(X, q), q)
    return EqMap(X, fixed, tuple(index[x] for x in X.points()))


@lru_cache(maxsize=None)
def inflate(X: GSet, q: QuotientMap) -> GSet:
    """Pull the action back along the projection; every point is N-fixed.
    Computed once per (X, q), so the orbits and stabilizers the inflated
    G-set keeps are computed once too."""
    if X.group != q.target:
        raise GroupMismatch("G-set is not over the quotient target")
    action = tuple(
        tuple(X.action[x][q.projection[g]] for g in q.source.elements())
        for x in X.points()
    )
    return GSet(q.source, action)


def inflate_map(f: EqMap, q: QuotientMap) -> EqMap:
    return EqMap(inflate(f.src, q), inflate(f.dst, q), f.values)


class HomFactor(NamedTuple):
    """The factor of hom(X, Y) at one orbit of X: an equivariant map is
    free to send the base point to any point of Y fixed by its stabilizer."""

    base: int  # the least point of the orbit
    stabilizer: tuple[int, ...]  # Stab(base), sorted
    points: tuple[int, ...]  # Y^stabilizer, in point order


def fixed_by(Y: GSet, S) -> tuple[int, ...]:
    """The points of Y fixed by every element of S, in point order."""
    return tuple(y for y, st in enumerate(Y.point_stabilizers) if st.issuperset(S))


def hom_factors(X: GSet, Y: GSet) -> list[HomFactor]:
    """hom(X, Y) as the product, over the orbits of X in point order, of
    the sets Y^Stab(orbit); |factor| is the mark of Stab(orbit) on Y."""
    if X.group != Y.group:
        raise GroupMismatch("hom requires a common group")
    stabs = X.point_stabilizers
    out = []
    for orb in X.orbits():
        S = tuple(sorted(stabs[orb[0]]))
        out.append(HomFactor(orb[0], S, fixed_by(Y, S)))
    return out


def hom_gset(X: GSet, Y: GSet) -> list[EqMap]:
    """All equivariant maps X -> Y, in the product order of hom_factors.

    A factor choice y writes the orbit's row g.x -> g.y, tabulated once
    per (orbit, y) over the first g reaching each orbit point."""
    factors = hom_factors(X, Y)
    rows = []
    order: list[int] = []  # the orbit points in row order
    for base, _, points in factors:
        first: dict = {}
        for g, z in enumerate(X.action[base]):
            first.setdefault(z, g)
        orbit = sorted(first)
        order += orbit
        reach = [first[z] for z in orbit]
        rows.append([tuple(map(Y.action[y].__getitem__, reach)) for y in points])
    slot = [0] * X.size
    for k, z in enumerate(order):
        slot[z] = k
    maps = []
    for combo in itertools.product(*rows):
        flat = tuple(itertools.chain.from_iterable(combo))
        maps.append(EqMap(X, Y, tuple(map(flat.__getitem__, slot))))
    return maps


def empty_gset(G: FiniteGroup) -> GSet:
    return GSet(G, ())


def coproduct(X: GSet, Y: GSet) -> tuple[GSet, EqMap, EqMap]:
    if X.group != Y.group:
        raise GroupMismatch("coproduct requires a common group")
    n = X.size
    action = X.action + tuple(
        tuple(v + n for v in row) for row in Y.action
    )
    Z = GSet(X.group, action)
    inc1 = EqMap(X, Z, tuple(range(n)))
    inc2 = EqMap(Y, Z, tuple(range(n, n + Y.size)))
    return Z, inc1, inc2


def counit_square_counts(q: QuotientMap, X: GSet, Y: GSet) -> tuple[int, int]:
    """The number of maps f: X -> Y, and of those whose counit square
    (over f and inf f^N) is a pullback, for N = ker q.

    The counit includes the N-fixed points, so the square of f is a
    pullback iff f sends no point outside X^N into Y^N.  G-sets are
    extensive, so this is decided orbit by orbit: N is normal, so an orbit
    O lies in X^N iff N is in Stab(O), and otherwise f(O) lies in Y^N iff
    its base point's image does.  Of the choices Y^Stab(O) of O's hom
    factor, all pass when N is in Stab(O), else those outside Y^N.
    """
    N = set(q.kernel.elements)
    fixed = fixed_point_data(Y, q).index
    maps = pullbacks = 1
    for factor in hom_factors(X, Y):
        maps *= len(factor.points)
        if N.issubset(factor.stabilizer):
            pullbacks *= len(factor.points)
        else:
            pullbacks *= sum(y not in fixed for y in factor.points)
    return maps, pullbacks


def counit_square_witness(q: QuotientMap, X: GSet, Y: GSet) -> EqMap | None:
    """The first map of hom_gset(X, Y) whose counit square is not a
    pullback, the first that sends a point outside X^N into Y^N, or None."""
    fixed_x = fixed_point_data(X, q).index
    fixed_y = fixed_point_data(Y, q).index
    moved = [x for x in X.points() if x not in fixed_x]
    return next(
        (f for f in hom_gset(X, Y) if any(f.values[x] in fixed_y for x in moved)),
        None,
    )


def fixed_points_map(f: EqMap, q: QuotientMap) -> EqMap:
    """f restricted to N-fixed points, over G/N."""
    src, dst = fixed_point_data(f.src, q), fixed_point_data(f.dst, q)
    return EqMap(
        src.fixed, dst.fixed, tuple(dst.index[f.values[x]] for x in src.index)
    )


def canonical_gset(G: FiniteGroup, class_multiset) -> GSet:
    """Disjoint union of canonical coset G-sets for the given orbit classes."""
    X = empty_gset(G)
    for c in class_multiset:
        X = coproduct(X, orbit_gset(G, c))[0]
    return X


def gset_isoclasses(G: FiniteGroup, size_cap: int) -> list[tuple[int, ...]]:
    """Orbit-class multisets of all G-set isomorphism classes of size <= cap."""
    lat = subgroup_lattice(G)
    sizes = [G.order // lat.class_rep(c).order for c in range(lat.num_classes)]
    out: list[tuple[int, ...]] = []

    def extend(prefix, start, budget):
        out.append(tuple(prefix))
        for c in range(start, lat.num_classes):
            if sizes[c] <= budget:
                extend(prefix + [c], c, budget - sizes[c])

    extend([], 0, size_cap)
    return sorted(out)
