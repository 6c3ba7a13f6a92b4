"""Finite G-sets: orbits, fixed points, inflation, canonical G-sets,
hom factors, and the counit squares of the inflation/fixed-points
adjunction.

A point of X is N-fixed, for N the kernel of a quotient map q, iff N is
in its stabilizer, which each G-set computes once for all its points
(`point_stabilizers`).  No square of G-sets is built: the counit square
of f: X -> X' is a pullback iff f sends no orbit outside X^N into X'^N,
so the squares of a pair of G-sets are counted from the marks of their
orbit classes (`counit_square_counts`).  A unit square needs no test:
its parallel sides are units, isomorphisms, so it is always a pullback.

hom(X, Y) is the product, over the orbits of X, of the sets Y^Stab(orbit)
(`hom_factors`): a map is free to send each orbit's base point to any
point fixed by its stabilizer, and the size of that factor is the mark of
the stabilizer on Y.  Properties of hom-sets are decided per factor, and
the one map the package needs, a counit-square witness, is written as
its values from one choice per factor (`counit_square_witness`): no
hom-set is enumerated and no map is built in the package.  A canonical
G-set is the rows of its canonical orbits (GroupTables.orbit), shifted
past the points before them (`canonical_gset`).  Orbits and point
stabilizers are computed once per G-set, which is a frozen value on
groups.Value.

What is computed once is kept for the rest of the process.  Each group
has one table store (GroupTables), kept by one cache on the group value
(tables), so equal groups share it; a caller looks it up once and hands
it to every reader of its tables, which index its lists by class or
class pair.  It holds the coset table of each subgroup class
(GroupTables.classes, each class's cosets numbered once, by
groups.left_cosets), the canonical orbits built from them
(GroupTables.orbit, per class, only when read), and the tables spans
fills in it.  Each G-set keeps its W-orbit tables (`least_points`), as it
keeps its orbits and point stabilizers.  The inflations are kept per
(X, q) (`inflate`), so inflating the same G-set along an equal quotient
map returns the same G-set, with the orbits and stabilizers it has
already found.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import GroupMismatch
from .groups import (
    FiniteGroup,
    QuotientMap,
    Value,
    generating_set,
    left_cosets,
    subgroup_lattice,
)


class LeastPoints(NamedTuple):
    """The W-orbits on X^R of one G-set X and one subgroup class, R the
    class representative and W = N(R)/R as OrbitClass lists it.

    A span with apex G/R is a pair of R-fixed points, and n in W relabels
    the apex, moving the pair (x, y) to (n·x, n·y); its key tabulates the
    least pair.  That pair has x* = min{n·x}, and the y part is least over
    the carriers of x, the n with n·x = x*: |Stab_W(x)| of them, not |W|.
    The tables are indexed by the points of X; a point outside X^R has
    least -1, no carriers and no legs.  Every key made from X shares the
    one leg tuple of each point.
    """

    fixed: tuple[int, ...]  # X^R, in point order
    least: tuple[int, ...]  # x*, the least point of the W-orbit of x
    carriers: tuple[tuple[int, ...], ...]  # the n in W with n·x = x*
    legs: tuple  # x's leg table, tuple(X.action[x][m] for m in mins)


class GSet(Value):
    """Finite left G-set; action[x][g] = g.x."""

    _fields = ("group", "action")

    @property
    def size(self) -> int:
        return len(self.action)

    def points(self) -> range:
        return range(self.size)

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        seen: set[int] = set()
        out = []
        for x, row in enumerate(self.action):
            if x not in seen:
                orb = tuple(sorted(set(row)))
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

    @cached_property
    def least_points(self) -> tuple[LeastPoints, ...]:
        """The W-orbit table of every subgroup class, read from the coset
        tables of the group's store (tables); built on first use.  The
        classes that fix no point share one table, with no fixed points."""
        t = tables(self.group)
        size, empty, out = self.size, None, []
        for c, cls in enumerate(t.classes):
            fixed = fixed_by(self, t.lattice.class_rep(c).elements)
            if not fixed:
                if empty is None:
                    empty = LeastPoints(
                        (), (-1,) * size, ((),) * size, (None,) * size
                    )
                out.append(empty)
                continue
            least, carriers, legs = [-1] * size, [()] * size, [None] * size
            for x in fixed:
                row = self.action[x]
                images = [row[n] for n in cls.normaliser]
                least[x] = star = min(images)
                carriers[x] = tuple(
                    n for n, v in zip(cls.normaliser, images) if v == star
                )
                legs[x] = tuple(map(row.__getitem__, cls.mins))
            out.append(LeastPoints(fixed, tuple(least), tuple(carriers), tuple(legs)))
        return tuple(out)

    def __repr__(self):
        return f"GSet(|G|={self.group.order}, size={self.size})"


def _action_fault(group: FiniteGroup, action, elements) -> str | None:
    """The first fault of the action table, scanning g, then h in
    elements, then x: g does not permute the points, or
    g·(h·x) ≠ (gh)·x; None if there is none."""
    n = len(action)
    for g in range(group.order):
        if len({row[g] for row in action}) != n:
            return f"element {g} does not act by a permutation"
        for h in elements:
            gh = group.mult[g][h]
            for x, row in enumerate(action):
                if action[row[h]][g] != row[gh]:
                    return (
                        f"action is not compatible with multiplication at "
                        f"(x={x}, g={g}, h={h})"
                    )
    return None


def make_gset(group: FiniteGroup, action) -> GSet:
    """Validate an action table and return the G-set.

    Compatibility g·(h·x) = (gh)·x is tested for h in a generating set
    (groups.generating_set) only: the h for which it holds for all g and
    x are closed under products, since (hs)·x = h·(s·x) gives
    g·((hs)·x) = (gh)·(s·x) = (ghs)·x, and contain the identity, which
    fixes every point.  On a fault the table is scanned again over every
    h, so the error names the first (g, h, x) of the full scan."""
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
    if _action_fault(group, action, generating_set(group.mult)) is not None:
        raise ValueError(_action_fault(group, action, group.elements()))
    return GSet(group, action)


class OrbitClass(NamedTuple):
    """The left cosets of the representative R of one subgroup class, the
    points of its canonical orbit G/R, numbered by groups.left_cosets."""

    coset: tuple[int, ...]  # the point gR for each g: row 0 of G/R
    mins: tuple[int, ...]  # the least element of each coset, in point order
    normaliser: tuple[int, ...]  # the m in mins normalising R: N_G(R)/R


class GroupTables:
    """The tables of one group G kept for the process, filled on first
    read and indexed by subgroup class c (lists of n, n the number of
    classes) or by class pair (c1, c2) (n lists of n, at [c1][c2]).

    gsets fills classes, the coset table of every class, when the store
    is made, and orbits, the canonical orbit of each class, when read
    (orbit).  spans fills the rest, each list through one reader that
    takes the store: gens, the generator conjugations of each class
    (conjugation_generators); and, per class pair, bases, the basis
    between the two orbits (orbit_basis), indexes, the position of each
    basis key by its class and least pair (_index), ends, the endpoint
    positions (endpoint_positions), cosets, the double cosets of the two
    class representatives (_double_cosets), and laws, the law table with
    those end classes (law_table).
    """

    __slots__ = (
        "group", "lattice", "classes", "orbits", "gens",
        "bases", "indexes", "ends", "cosets", "laws",
    )

    def __init__(self, G: FiniteGroup):
        lat = subgroup_lattice(G)
        n = lat.num_classes
        classes = []
        for c in range(n):
            R = lat.class_rep(c)
            coset, mins = left_cosets(G, R.elements)
            normaliser = tuple(m for m in mins if R.conjugate(m) == R)
            classes.append(OrbitClass(coset, mins, normaliser))
        self.group, self.lattice, self.classes = G, lat, tuple(classes)
        self.orbits, self.gens = [None] * n, [None] * n
        self.bases, self.indexes, self.ends, self.cosets, self.laws = (
            [[None] * n for _ in range(n)] for _ in range(5)
        )

    def orbit(self, c: int) -> GSet:
        """The canonical orbit G/R of class c, on the cosets of its coset
        table, so the coset R is point 0; built on first read."""
        X = self.orbits[c]
        if X is None:
            coset, mins, _ = self.classes[c]
            rows = self.group.mult
            X = self.orbits[c] = GSet(
                self.group, tuple(tuple(coset[row[r]] for row in rows) for r in mins)
            )
        return X


@lru_cache(maxsize=None)
def tables(G: FiniteGroup) -> GroupTables:
    """The table store of G, made on first use; equal groups share it."""
    return GroupTables(G)


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
    for orb in X.orbits:
        S = tuple(sorted(stabs[orb[0]]))
        out.append(HomFactor(orb[0], S, fixed_by(Y, S)))
    return out


def counit_square_counts(q: QuotientMap, marks, xs, ys) -> tuple[int, int]:
    """The number of maps f: X -> Y, and of those whose counit square
    (over f and inf f^N) is a pullback, for N = ker q and X, Y the G-sets
    of the orbit-class multisets xs and ys; marks[b][a] = |(G/R_b)^{R_a}|
    is the table of marks of q.source (spans.burnside_tables).

    The factor of hom(X, Y) at an orbit G/R_a of X is Y^{R_a}, of size
    Σ marks[b][a] over the orbits G/R_b of Y.  The square of f is a
    pullback iff f sends no orbit outside X^N into Y^N, and N is normal,
    so G/R_b lies in Y^N iff N ⊆ R_b, iff marks[b][c] = marks[b][0] for c
    the class of N (class 0 is the trivial subgroup).  So a moved orbit
    of X keeps only its choices in the moved orbits of Y.
    """
    c = subgroup_lattice(q.source).class_of(q.kernel.elements)
    fixed = [row[c] == row[0] for row in marks]
    maps = pullbacks = 1
    for a in xs:
        total = kept = 0
        for b in ys:
            total += marks[b][a]
            if not fixed[b]:
                kept += marks[b][a]
        maps *= total
        pullbacks *= total if fixed[a] else kept
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
    that order: the rows of each canonical orbit (GroupTables.orbit),
    shifted past the points of the orbits before it."""
    t = tables(G)
    action: list[tuple[int, ...]] = []
    for c in class_multiset:
        n = len(action)
        action += (tuple(v + n for v in row) for row in t.orbit(c).action)
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
