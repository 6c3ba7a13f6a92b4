"""Finite G-sets: orbits, fixed points, inflation, canonical G-sets,
hom factors, and the counit squares of the inflation/fixed-points
adjunction.

A point of X is N-fixed, for N the kernel of a quotient map q, iff N is
in its stabilizer, which each G-set computes once for all its points
(`point_stabilizers`).  No square of G-sets is built: the counit square
of f: X -> X' is a pullback iff f sends no orbit outside X^N into X'^N,
so it is decided per orbit factor of hom(X, X') (`counit_square_counts`).
A unit square needs no test: its parallel sides are units, isomorphisms,
so it is always a pullback.

hom(X, Y) is the product, over the orbits of X, of the sets Y^Stab(orbit)
(`hom_factors`): a map is free to send each orbit's base point to any
point fixed by its stabilizer, and the size of that factor is the mark of
the stabilizer on Y.  Properties of hom-sets are decided per factor, and
the one map the package needs, a counit-square witness, is written as
its values from one choice per factor (`counit_square_witness`): no
hom-set is enumerated and no map is built in the package.  A canonical
G-set is the rows of its canonical orbits (`orbit_gset`), shifted past
the points before them (`canonical_gset`).  Orbits and point
stabilizers are computed once per G-set.

What is computed once is kept for the rest of the process, in lru_caches
on their arguments: the coset G-sets (`coset_gset`) and the inflations
(`inflate`, per (X, q)).  So inflating the same G-set along an equal
quotient map returns the same G-set, with the orbits and stabilizers it
has already found.
"""

from __future__ import annotations

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
    fixed = [N <= st for st in Y.point_stabilizers]
    maps = pullbacks = 1
    for factor in hom_factors(X, Y):
        maps *= len(factor.points)
        if N.issubset(factor.stabilizer):
            pullbacks *= len(factor.points)
        else:
            pullbacks *= sum(not fixed[y] for y in factor.points)
    return maps, pullbacks


def counit_square_witness(q: QuotientMap, X: GSet, Y: GSet) -> tuple | None:
    """The values of the first map f: X -> Y whose counit square is not a
    pullback, the first that sends an orbit outside X^N into Y^N, or None;
    maps come in the product order of hom_factors, the last factor's
    choice varying fastest.

    The first map of all chooses every factor's first point, and is the
    witness if it fails.  Otherwise no moved orbit (N not in its
    stabilizer) has its first choice in Y^N, and a map failing at a moved
    orbit moves that orbit's choice off its first point.  Of the least
    such maps, one per moved orbit with a choice in Y^N, the one at the
    last orbit comes first: it keeps every earlier factor at its first
    point.  The map writes g·base -> g·y for each factor's choice y."""
    N = set(q.kernel.elements)
    fixed = [N <= st for st in Y.point_stabilizers]
    factors = hom_factors(X, Y)
    if not all(f.points for f in factors):
        return None
    choice = [f.points[0] for f in factors]
    moved = [i for i, f in enumerate(factors) if not N.issubset(f.stabilizer)]
    if not any(fixed[choice[i]] for i in moved):
        reach = [i for i in moved if any(fixed[y] for y in factors[i].points)]
        if not reach:
            return None
        choice[reach[-1]] = next(y for y in factors[reach[-1]].points if fixed[y])
    values = [0] * X.size
    for f, y in zip(factors, choice):
        for x, y_at in zip(X.action[f.base], Y.action[y]):
            values[x] = y_at
    return tuple(values)


def canonical_gset(G: FiniteGroup, class_multiset) -> GSet:
    """Disjoint union of the canonical orbits of the given classes, in
    that order: the rows of each orbit_gset, shifted past the points of
    the orbits before it."""
    action: list[tuple[int, ...]] = []
    for c in class_multiset:
        n = len(action)
        action += (tuple(v + n for v in row) for row in orbit_gset(G, c).action)
    return GSet(G, tuple(action))


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
