"""Span categories of finite G-sets with exact morphism arithmetic.

A morphism X -> Y is a finitely supported multiset of isomorphism classes
of spans X <- S -> Y with transitive apex S; hom-sets are free commutative
monoids on these basis classes.  Two basis spans with apexes G/K1 and G/K2
compose by the double-coset formula: the orbits of their pullback are the
K1-orbits on one fibre of G/K2, with stabilizers K1 ∩ hK2h⁻¹.  The
K1-orbits on G/K2, with the class of each stabilizer and the two points
at which a composite reads the legs, are one table per pair of apex
classes (_double_cosets), which every pair of keys with those apexes
reads.  Composition is exact (integer multiplicities, no tolerance), and
builds no pullback G-set and no table of length |G|.

A basis span is its key alone: the class c of its apex stabilizer and
its two legs tabulated on the canonical coset apex G/R_c.  A span with
apex G/R is a pair (x, y) of R-fixed points of its two ends, and its key
tabulates the least pair (n·x, n·y) over W = N(R)/R.  One table per
G-set X and class c (gs.GSet.least_points) gives, for every x in X^R,
the least point x* of its W-orbit, the carriers n with n·x = x*, and
the leg table of x, built once and shared by every key that reads it.
_least_pair finds the least pair for pair_key, which makes a key from
it: an
identity span (identity_key) or a reversed basis span, read from a
point of each end (mackey, verify), and for the image of a basis span
under inflation or fixed points (span_images), which needs only its
position in a basis between canonical orbits.  composites reads the
least pair of each fibre orbit inline from the same (least, carriers)
tables, and reads no carrier when the end orbit is the point, whose one
point is least.  Both look the position up from an integer made of the
class and the least pair (_index), kept beside orbit_basis, so that
no key is built or hashed.  span_basis keeps a pair of fixed
points iff x = x* and no carrier of x lowers y.  So a key costs
|Stab_W(x)| actions, not |W|.

Each choice behind a key is made in one place.  The cosets of each
class representative are numbered once, in the coset tables of the
group's store (gs.GroupTables) that the canonical orbits are built
from.  The class representatives, and the element conjugating a
subgroup onto its representative, are the ones subgroup_lattice
records; pair_key gives the same key for any other conjugator.

orbit_basis is the basis between two canonical orbits,
endpoint_positions the positions of its generators, and orbit_keys
lists every basis key between orbits.  The endpoint keys from an orbit
G/R to itself are the conjugations by W = N(R)/R, and
conjugation_generators picks those of a generating set of W.
No span morphism, equivariant map or image G-set is built: span
morphisms, their composition, the legs of a key as maps and the slow
routes to keys, composites and Span(F) are oracles in tests/oracles.py.

Every composite of the package is between canonical orbits, and one
routine makes them all (composites): a grid of k2 ∘ k1 for keys k1 into
a middle orbit and k2 out of it, by the positions of its terms in the
basis of its ends.  It buckets the double cosets of each pair of apex
classes by a second key's left leg once per group being composed, and
keeps the buckets only until another group is composed, so the grids
of burnside_mackey and the law tables of one group share them.  The law
checks read one table per group and pair of end classes (law_table):
for each middle class, the positions of the pairs the law is tested on
and the grid of their composites, composed when the entry is first
read.  They walk it in one way (law_grids): each class triple that has
law pairs, in lexicographic order.  The law on those pairs decides it
on all pairs: on the endpoint keys (Thévenaz–Webb 1995, §2;
endpoint_positions), on an orbit's conjugations to itself only at the
generators of its Weyl group, by induction on a word, and, through
three distinct classes, on one first key per orbit of the middle
class's Weyl group (law_table).  On C128 that is 4,686 of the 127,103
pairs of endpoint keys.

Span(F), for F inflation or fixed points along a quotient map, is one
table per functor and link (span_images), which both span checks of
verify and mackey.categorical_fixed_points read.  Both functors send a
canonical orbit to one orbit on the same points, or to nothing, so the
table is one record per subgroup class (_orbit_image) and one pair_key
per basis key, held as the position of the image in its basis.  The
span checks read both sides of the Span(F) law by position from law
tables: the left from the source group's, and the right from the image
group's wherever its layout lists the images.

The module's tables are kept for the process, none per key or pair of
keys.  Those of a group are lists in its table store (gs.tables), one
cache on the group value, so equal groups share them: per class, the
generator conjugations (conjugation_generators), and per class pair,
at c1·n + c2, the orbit basis (_basis), the position of each basis key
(_index), the endpoint positions (_ends), the double cosets
(_double_cosets) and the law table (_law), each filled on first read.
A reader looks the store up once per call and indexes the lists in its
loops, so no table read hashes a group or a G-set.  The W-orbit tables
are kept on each G-set, the canonical orbits of the store included.
The Span(F) table is kept per functor and link (span_images) and the
Burnside tables per group (burnside_tables).  The fibre buckets of
composites, kept per second key, and its table of distinct composites
are kept only for the group last composed.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .errors import GroupMismatch
from .groups import FiniteGroup, QuotientMap
from . import gsets as gs
from .gsets import GSet


# A basis key is (apex stabilizer class index, legL values, legR values)
# with the legs tabulated on the canonical coset apex and minimized
# lexicographically over all apex relabelings (pair_key).
Key = tuple[int, tuple[int, ...], tuple[int, ...]]


def _least_pair(lx: gs.LeastPoints, x0: int, Y: GSet, y0: int) -> tuple[int, int]:
    """The least pair (n·x0, n·y0) over W, for lx the W-orbit table of X:
    x0* and the least n·y0 over the carriers n of x0."""
    row = Y.action[y0]
    return lx.least[x0], min(map(row.__getitem__, lx.carriers[x0]))


def pair_key(c: int, X: GSet, x0: int, Y: GSet, y0: int) -> Key:
    """The key of the span with apex G/R, R the class-c representative,
    and legs gR -> g·x0 into X and gR -> g·y0 into Y.

    The points of the apex with stabilizer exactly R are the n·R for n in
    W = N(R)/R, one per relabelling of the apex as G/R.  The legs are
    equivariant, so each relabelling's leg tables are fixed by their
    values at point 0, which they list first, and two relabellings with
    equal values there have equal tables (the value at mR is m times the
    value at R).  So the lexicographic minimum is the relabelling with the
    least pair (n·x0, n·y0): n·x0 = x0* for the carriers n of x0, and
    among those the least n·y0.  Given (m·x0, m·y0) for some m in W, the
    carriers are those of x0 times m⁻¹, which reach the same pair; so the
    key does not depend on which point with stabilizer R is given."""
    lx = X.least_points[c]
    x, y = _least_pair(lx, x0, Y, y0)
    return (c, lx.legs[x], Y.least_points[c].legs[y])


def identity_key(G: FiniteGroup, c: int) -> Key:
    """The key of the identity span of the canonical orbit G/R_c, read
    from point 0, whose stabilizer is the class representative."""
    X = gs.orbit_gset(G, c)
    return pair_key(c, X, 0, X, 0)


def span_basis(X: GSet, Y: GSet) -> list[Key]:
    """The keys of all classes of spans X <- S -> Y with transitive S.

    A span with apex G/K, for K the representative of class c, is a pair
    (x, y) of K-fixed points, with legs gK -> g·x and gK -> g·y.  Two
    pairs give isomorphic spans iff an element n of N(K)/K carries one to
    the other, and the key of a pair (as in pair_key) tabulates the
    least pair (n·x, n·y) of its orbit.  So the basis is one key per pair
    that is least in its orbit: x is the least point x* of its W-orbit,
    and y ≤ n·y for every carrier n of x (gs.GSet.least_points).  The
    tables start with x and y, so the keys come out sorted.
    """
    if X.group != Y.group:
        raise GroupMismatch("span endpoints require a common group")
    keys: list[Key] = []
    for c, (lx, ly) in enumerate(zip(X.least_points, Y.least_points)):
        if not ly.fixed:
            continue
        for x in lx.fixed:
            if lx.least[x] != x:
                continue
            carriers, left = lx.carriers[x], lx.legs[x]
            for y in ly.fixed:
                row = Y.action[y]
                if all(row[n] >= y for n in carriers):
                    keys.append((c, left, ly.legs[y]))
    return keys


def _basis(t: gs.GroupTables, c1: int, c2: int) -> tuple[Key, ...]:
    """The basis keys between the canonical orbits of classes c1 and c2,
    from the store t; built on first read."""
    i = c1 * len(t.classes) + c2
    basis = t.bases[i]
    if basis is None:
        basis = t.bases[i] = tuple(span_basis(t.orbit(c1), t.orbit(c2)))
    return basis


def orbit_basis(G: FiniteGroup, c1: int, c2: int) -> tuple[Key, ...]:
    """The basis keys between the canonical orbits of classes c1 and c2."""
    return _basis(gs.tables(G), c1, c2)


def orbit_bases(G: FiniteGroup) -> list[list[tuple[Key, ...]]]:
    """orbit_basis(G, c1, c2) at [c1][c2], for every pair of classes."""
    t = gs.tables(G)
    n = len(t.classes)
    if None in t.bases:
        for c1, c2 in itertools.product(range(n), repeat=2):
            _basis(t, c1, c2)
    return [t.bases[c1 * n : (c1 + 1) * n] for c1 in range(n)]


def _index(t: gs.GroupTables, c1: int, c2: int) -> dict[int, int]:
    """The position in orbit_basis(G, c1, c2) of each key, by the integer
    (c·|X| + x)·|Y| + y of its class c and least pair (x, y) on the
    canonical orbits X and Y of c1 and c2 (_least_pair), from the store
    t; built on first read.  The legs of a key list their values at
    point 0 first, so (x, y) = (legL[0], legR[0]), and a key is found
    from a pair of points with no key built or hashed."""
    i = c1 * len(t.classes) + c2
    index = t.indexes[i]
    if index is None:
        nx, ny = len(t.classes[c1].mins), len(t.classes[c2].mins)
        index = t.indexes[i] = {
            (c * nx + legL[0]) * ny + legR[0]: p
            for p, (c, legL, legR) in enumerate(_basis(t, c1, c2))
        }
    return index


def orbit_keys(G: FiniteGroup) -> list[tuple[int, int, Key]]:
    """Every (c1, c2, key) with key in orbit_basis(G, c1, c2), in order of
    c1, then c2, then orbit_basis: the basis spans between orbits, which
    a Mackey functor's gen_action is keyed by."""
    return [
        (c1, c2, key)
        for c1, row in enumerate(orbit_bases(G))
        for c2, basis in enumerate(row)
        for key in basis
    ]


def endpoint_positions(G: FiniteGroup, c1: int, c2: int) -> tuple[int, ...]:
    """The positions in orbit_basis(G, c1, c2) of its endpoint keys, whose
    apex is in class c1 (transfers, conjugations) or c2 (restrictions,
    conjugations).

    Every basis span b with apex G/K is t_b ∘ r_b through G/K, with r_b
    and t_b endpoint keys, and two transfers (or two restrictions) compose
    to one endpoint key.  So for Φ additive on the spans between orbits,
    the law Φ(k2 ∘ k1) = Φ(k2)·Φ(k1) on pairs of endpoint keys gives it on
    all pairs: with r2 ∘ t1 = Σ_x t_x ∘ r_x,

        Φ(b2 ∘ b1) = Σ_x Φ(t2 ∘ t_x)·Φ(r_x ∘ r1)
                   = Φ(t2)·Φ(r2 ∘ t1)·Φ(r1) = Φ(b2)·Φ(b1),

    each step the law on endpoint keys (Thévenaz–Webb 1995, §2; Dress
    1973).  The endpoint keys from the orbit of a class c to itself are
    the conjugations c_w, w in N(R_c)/R_c, and the law on them follows
    from the law at the generators of that Weyl group (law_table), which
    is all the law checks test of them.  Through three distinct classes
    c1, c2, c3 the checks test as firsts only the least key of each
    orbit of these positions under c_w ∘ -, w in W(c2), against every
    endpoint key out of c2, and the law_table proof gives the rest."""
    return _ends(gs.tables(G), c1, c2)


def _ends(t: gs.GroupTables, c1: int, c2: int) -> tuple[int, ...]:
    """endpoint_positions from the store t; built on first read."""
    i = c1 * len(t.classes) + c2
    ends = t.ends[i]
    if ends is None:
        basis = _basis(t, c1, c2)
        ends = t.ends[i] = tuple(p for p, k in enumerate(basis) if k[0] in (c1, c2))
    return ends


def _double_cosets(G: FiniteGroup, c1: int, c2: int) -> tuple:
    """The double cosets of the representatives K1, K2 of classes c1, c2,
    as the K1-orbits on G/K2.

    Each K1-orbit on G/K2 gives one (y, c, p1, p2): y the least point of
    the orbit, c the class of the stabilizer K1 ∩ hK2h⁻¹ of (K1, hK2),
    for h = mins[y] the least element of the coset y = hK2, and p1 = t0·K1
    and p2 = t0·h·K2 the points of the canonical orbits of c1 and c2 at
    which composites reads the legs, for t0 the conjugator of that
    stabilizer onto R_c read from the lattice's `where`: the point
    t0·(K1, hK2) of the orbit has stabilizer R_c.  The table depends only
    on the two classes, so every pair of keys with these apexes composes
    through it.  It is kept in the store of G, built on first read."""
    t = gs.tables(G)
    i = c1 * len(t.classes) + c2
    if t.cosets[i] is not None:
        return t.cosets[i]
    lat, mult = t.lattice, t.group.mult
    K1 = lat.class_rep(c1).elements
    coset1, cls2 = t.classes[c1].coset, t.classes[c2]
    coset2, mins2 = cls2.coset, cls2.mins
    orbits = []
    seen: set = set()
    for y, h in enumerate(mins2):
        if y in seen:
            continue
        stab = []
        for a in K1:
            z = coset2[mult[a][h]]
            seen.add(z)
            if z == y:
                stab.append(a)
        c, t0 = lat.where[tuple(stab)]
        orbits.append((y, c, coset1[t0], coset2[mult[t0][h]]))
    t.cosets[i] = table = tuple(orbits)
    return table


# The fibre buckets and the distinct composites of the group last composed
# (composites), as [group, buckets, composites], the group being the one
# its table store holds, so that equal groups share them: one group's at
# a time, so they are shared by every grid of that group and dropped as
# soon as another group is composed.
_fibres: list = [None, {}, {}]


def composites(G: FiniteGroup, c1: int, c3: int, firsts, seconds) -> tuple:
    """seconds[j] ∘ firsts[i], for basis keys firsts[i] from the orbit of
    class c1 to a middle orbit Y and seconds[j] from Y to the orbit of c3,
    at entry i·len(seconds) + j as the sorted (position in
    orbit_basis(G, c1, c3), mult) pairs.  Equal entries of the grids
    of one group, composed before another group is, are one tuple.  Y
    is not needed: the right legs of firsts and left legs of seconds are
    tabulated on it.

    By the double-coset formula the orbits of the pullback of
    G/K1 -> Y <- G/K2 are the K1-orbits on the fibre of G/K2 over the image
    of the coset K1, and the orbit through (K1, hK2) has stabilizer
    K1 ∩ hK2h⁻¹.  No pullback G-set is built.  The fibre is K1-stable, so
    the one point y = hK2 that _double_cosets lists per K1-orbit decides
    whether the whole orbit lies in it, and the orbits are bucketed by the
    second key's left leg at that point.  The buckets depend only on the
    group, the apex classes of the two keys and that left leg, not on c1
    or c3, so each is built once per group being composed and shared by
    every grid of it (burnside_mackey's and the law tables'); they are
    kept only until another group is composed.

    The legs at g·(K1, hK2) are left1 at gK1 and right2 at ghK2.  The
    point t0·(K1, hK2) of the orbit, for its class c and conjugator t0,
    has stabilizer R_c, and _double_cosets keeps its two leg points
    p1 = t0·K1 and p2 = t0·h·K2, so the legs there are x0 = left1[p1] and
    z0 = right2[p2], with no coset looked up and no product taken per
    orbit.  The orbit's position is read from the least pair of (x0, z0),
    the one pair_key keys it by, in _index: x0* and the least n·z0
    over the carriers n of x0, read inline from the (least, carriers)
    tables of X and c (gs.GSet.least_points).  When the orbit of c3 is
    the point, z0* = 0 and no carrier is read.  No key is built and
    nothing is tabulated.  A composite has at most |G| terms, counted
    with multiplicity: they are orbits on a fibre of at most |G| points.
    """
    t = gs.tables(G)
    if _fibres[0] is not t.group:
        _fibres[:] = t.group, {}, {}
    _, store, shared = _fibres
    least = t.orbit(c1).least_points  # class -> its W-orbit table of X
    nx, nz = len(t.classes[c1].mins), len(t.classes[c3].mins)
    act = t.orbit(c3).action
    index = _index(t, c1, c3)
    width = len(seconds)
    grid: list = [()] * (len(firsts) * width)
    for j, (c2, left2, right2) in enumerate(seconds):
        fibres = store.get((c2, left2))  # apex class of k1 -> its buckets
        if fibres is None:
            fibres = store[c2, left2] = {}
        for i, (a, left1, right1) in enumerate(firsts):
            buckets = fibres.get(a)  # point of Y -> the orbits over it
            if buckets is None:
                buckets = fibres[a] = {}
                for orbit in _double_cosets(G, a, c2):
                    buckets.setdefault(left2[orbit[0]], []).append(orbit)
            positions = []
            for _, c, p1, p2 in buckets.get(right1[0], ()):
                lx = least[c]
                x0 = left1[p1]
                pair = c * nx + lx.least[x0]
                if nz > 1:  # else Z is the point, and z0* = 0
                    row = act[right2[p2]]
                    pair = pair * nz + min(map(row.__getitem__, lx.carriers[x0]))
                positions.append(index[pair])
            if len(positions) == 1:
                terms: tuple = ((positions[0], 1),)
            else:
                counts: dict = {}
                for p in positions:
                    counts[p] = counts.get(p, 0) + 1
                terms = tuple(sorted(counts.items()))
            grid[i * width + j] = shared.setdefault(terms, terms)
    return tuple(grid)


def conjugation_generators(G: FiniteGroup, c: int) -> tuple[int, ...]:
    """The positions in orbit_basis(G, c, c) of the conjugations c_s, for s
    in a generating set of W = N(R)/R, R the class-c representative: the
    set groups.generating_set picks on W's table over the normaliser of
    the class's coset table, whose first element is the identity.  No
    table is built: the walk from the identity multiplies by the
    generators picked so far on demand, each product read as the coset
    of a product of two normaliser elements.  Kept in the store of G,
    picked on first read.

    The basis spans from G/R to itself are the pairs of R-fixed points,
    the cosets nR for n in N(R), modulo W; W acts freely on them, so each
    is one conjugation c_n = [G/R <-id- G/R -> G/R], gR -> gnR, and they
    are exactly the endpoint keys of orbit_basis(G, c, c).  The least
    pair of c_n is (0, nR): point 0 is the least of all, and its one
    carrier is the identity, so its position is read from _index."""
    t = gs.tables(G)
    gens = t.gens[c]
    if gens is None:
        cls = t.classes[c]
        norm, coset, mult = cls.normaliser, cls.coset, t.group.mult
        point = [coset[n] for n in norm]  # the point nR of each w
        element = {x: w for w, x in enumerate(point)}
        reached, picks = {0}, []
        while len(reached) < len(norm):
            picks.append(next(w for w in range(len(norm)) if w not in reached))
            frontier = list(reached)
            while frontier:
                row = mult[norm[frontier.pop()]]
                for s in picks:
                    w = element[coset[row[norm[s]]]]
                    if w not in reached:
                        reached.add(w)
                        frontier.append(w)
        index, nx = _index(t, c, c), len(cls.mins)
        gens = t.gens[c] = tuple(index[c * nx * nx + point[s]] for s in picks)
    return gens


_UNREAD = object()  # a LawTable entry not yet composed


class LawTable:
    """The law pairs of each class triple (c1, c2, c3) with c1 and c3
    fixed, the table both law checks read (law_table): entry c2 is
    (firsts, seconds, grid), with firsts positions in orbit_basis(G, c1,
    c2), seconds positions in orbit_basis(G, c2, c3) and grid the
    composites of the keys at them, firsts against seconds (composites),
    or None for a triple with no firsts or no seconds (incomparable
    classes, or a trivial Weyl group), for which nothing is composed.
    An entry is composed when it is first read, so an entry no reader
    asks for is never composed, and equal grid entries composed in one
    build of the group are one tuple (composites).  For c1 ≠ c3 the
    table also keeps the least position of each orbit of E(c1, c3) under
    W(c3) (leasts), which each entry through c3 and a third class, of
    every table from c1, reads as its firsts."""

    __slots__ = ("tables", "c1", "c3", "entries", "_leasts")

    def __init__(self, t: gs.GroupTables, c1: int, c3: int):
        self.tables, self.c1, self.c3 = t, c1, c3
        self.entries: list = [_UNREAD] * len(t.classes)
        self._leasts = None

    def __getitem__(self, c2: int):
        entry = self.entries[c2]
        if entry is _UNREAD:
            entry = self.entries[c2] = self._compose(c2)
        return entry

    def leasts(self) -> tuple[int, ...]:
        """For c1 ≠ c3, the least position of each orbit of E(c1, c3), the
        endpoint positions, under k ↦ c_s ∘ k for the generator
        conjugations c_s of c3, read from the entry c3: the grid of E(c1,
        c3) against those conjugations.  A conjugation composed with an
        endpoint key is one endpoint key, so each entry of that grid is
        one position, and the orbits partition E(c1, c3).  E(c1, c3) is
        sorted, so the first position of an orbit that the walk reaches
        is its least.  When W(c3) is trivial the entry is None, and every
        orbit is one position."""
        if self._leasts is not None:
            return self._leasts
        weyl = self[self.c3]
        if weyl is None:
            self._leasts = _ends(self.tables, self.c1, self.c3)
            return self._leasts
        ends, gens, grid = weyl
        width = len(gens)
        row = {p: i * width for i, p in enumerate(ends)}
        seen: set = set()
        leasts = []
        for p in ends:
            if p in seen:
                continue
            leasts.append(p)
            seen.add(p)
            orbit = [p]
            for q in orbit:
                i = row[q]
                for ((r, _),) in grid[i : i + width]:
                    if r not in seen:
                        seen.add(r)
                        orbit.append(r)
        self._leasts = tuple(leasts)
        return self._leasts

    def _compose(self, c2: int):
        t, c1, c3 = self.tables, self.c1, self.c3
        if c1 == c2:
            firsts, seconds = conjugation_generators(t.group, c2), _ends(t, c2, c3)
        elif c2 == c3:
            firsts, seconds = _ends(t, c1, c2), conjugation_generators(t.group, c2)
        else:
            firsts, seconds = _ends(t, c1, c2), _ends(t, c2, c3)
            if firsts and seconds:
                firsts = _law(t, c1, c2).leasts()
        if not firsts or not seconds:
            return None
        b12, b23 = _basis(t, c1, c2), _basis(t, c2, c3)
        grid = composites(
            t.group, c1, c3, [b12[p] for p in firsts], [b23[p] for p in seconds]
        )
        return firsts, seconds, grid


def _law(t: gs.GroupTables, c1: int, c3: int) -> LawTable:
    """law_table from the store t; made on first read."""
    i = c1 * len(t.classes) + c3
    table = t.laws[i]
    if table is None:
        table = t.laws[i] = LawTable(t, c1, c3)
    return table


def law_table(G: FiniteGroup, c1: int, c3: int) -> LawTable:
    """The law pairs of each class triple (c1, c2, c3), as a LawTable
    whose entry c2 is composed on first read.  Readers walk the table
    through law_grids.

    The pairs are the generator conjugations of c2
    (conjugation_generators) against E(c2, c3) when c1 = c2, E(c1, c2)
    against them when c2 = c3 and c1 ≠ c2, and otherwise the least
    position of each orbit of E(c1, c2) under k ↦ c_s ∘ k, for the
    generators s of W(c2) = N(R_c2)/R_c2, against E(c2, c3), E the
    endpoint positions.  Those orbits are read from the grid of E(c1, c2)
    against the generator conjugations, the entry c2 of law_table(G, c1,
    c2), which keeps them (LawTable.leasts).

    Let Φ be additive on the spans between orbits with Φ(identity) the
    identity, and let the law Φ(k2 ∘ k1) = Φ(k2)·Φ(k1) hold on these
    pairs.  Then it holds on every pair of endpoint keys, and so on all
    pairs (endpoint_positions).  The endpoint keys from the orbit of c to
    itself are the conjugations c_w, w in W (conjugation_generators), and
    a conjugation composed with an endpoint key, on either side, is one
    endpoint key.  For k2 = e any endpoint key out of G/R_c, induct on a
    word for w: c_w = c_u ∘ c_s, s a generator, so

        Φ(e ∘ c_w) = Φ((e ∘ c_u) ∘ c_s) = Φ(e ∘ c_u)·Φ(c_s)
                   = Φ(e)·Φ(c_u)·Φ(c_s) = Φ(e)·Φ(c_u ∘ c_s),

    the second and last steps the tested pairs (c_s, e ∘ c_u) and
    (c_s, c_u), the third the induction.  For k1 = e any endpoint key into
    G/R_c, with c_w = c_s ∘ c_u, Φ(c_w ∘ e) = Φ(c_s)·Φ(c_u ∘ e) =
    Φ(c_s)·Φ(c_u)·Φ(e), and Φ(c_s)·Φ(c_u) = Φ(c_s ∘ c_u) by the first
    half.  So the law holds on every pair with a conjugation of an orbit
    to itself on either side.  For c1 ≠ c2 ≠ c3, every k in E(c1, c2) is
    c_w ∘ k1 for k1 the least key of its orbit and some w in W(c2), and
    for k2 in E(c2, c3),

        Φ(k2)·Φ(c_w ∘ k1) = Φ(k2)·Φ(c_w)·Φ(k1) = Φ(k2 ∘ c_w)·Φ(k1)
                          = Φ(k2 ∘ c_w ∘ k1),

    the first two steps the law on (k1, c_w) and (c_w, k2), just shown,
    and the last the tested pair (k1, k2 ∘ c_w), since k2 ∘ c_w is one
    key of E(c2, c3), all of which are seconds.  The steps hold up to
    congruence, as in endpoint_positions (the conjugation relations of
    the Mackey algebra, Thévenaz–Webb 1995).  The table is kept in the
    store of G."""
    return _law(gs.tables(G), c1, c3)


def law_grids(G: FiniteGroup):
    """Each (c1, c2, c3, firsts, seconds, grid) for a class triple that
    has law pairs, in lexicographic order, with (firsts, seconds, grid)
    the entry c2 of law_table(G, c1, c3), each table looked up once per
    c1.  A triple with no firsts or no seconds has no pair to test and is
    not yielded.  It is the one walk over the law pairs that both law
    checks make."""
    t = gs.tables(G)
    n = len(t.classes)
    for c1 in range(n):
        tables = [_law(t, c1, c3) for c3 in range(n)]
        for c2 in range(n):
            for c3, table in enumerate(tables):
                entry = table[c2]
                if entry is not None:
                    yield (c1, c2, c3, *entry)


class BurnsideTables(NamedTuple):
    class_orders: tuple[int, ...]
    marks: tuple[tuple[int, ...], ...]
    ring: tuple[tuple[tuple[int, ...], ...], ...]  # ring[i][j][k] coefficients


@lru_cache(maxsize=None)
def burnside_tables(G: FiniteGroup) -> BurnsideTables:
    """Table of marks and the Burnside ring structure constants.

    marks[i][j] = number of H_j-fixed points of G/K_i, over subgroup
    conjugacy classes ordered by subgroup size.  The ring constants expand
    products of basis endo-spans of the point in the span basis, whose
    i-th key has apex class i: the composite of two such spans has the
    product of their apexes as its apex.
    """
    t = gs.tables(G)
    n = len(t.classes)
    reps = [t.lattice.class_rep(c) for c in range(n)]
    marks = tuple(
        tuple(len(gs.fixed_by(t.orbit(c), R.elements)) for R in reps) for c in range(n)
    )
    pt = n - 1  # the class of G (SubgroupLattice.classes)
    basis = _basis(t, pt, pt)
    assert len(basis) == n
    grid = composites(G, pt, pt, basis, basis)
    dense: dict = {}  # one coefficient tuple per distinct product
    for terms in grid:
        coeffs = [0] * n
        for k, m in terms:
            coeffs[k] = m
        dense.setdefault(terms, tuple(coeffs))
    ring = tuple(tuple(map(dense.get, grid[i * n : (i + 1) * n])) for i in range(n))
    return BurnsideTables(tuple(R.order for R in reps), marks, ring)


class OrbitImage(NamedTuple):
    """F of one canonical orbit X = G/R_c, a transitive K-set or nothing.
    F keeps the points of X, so its image is the canonical orbit K/R of
    class cls, renamed by sigma; base is a point of X whose K-stabilizer
    is R itself."""

    cls: int
    sigma: tuple[int, ...]  # the point of K/R of each point of X
    base: int


def _orbit_image(G: FiniteGroup, K: FiniteGroup, rho, N, c: int) -> OrbitImage | None:
    """F(G/R_c) for the functor F given by (G, K, ρ, N): k in K acts on a
    point of G/R_c as ρ(k) does, and the orbit has no image when an
    element of the normal subgroup N moves its point 0 (then N fixes no
    point of it).

    S, the k with ρ(k)·0 = 0, is the K-stabilizer of point 0, and the
    orbit is K/S by k·0 ↦ kS.  sigma sends k·0 to k·y in the canonical
    orbit of the class of S, y the least point with stabilizer S: the
    renaming that the isomorphism search of tests/oracles.py makes.  base
    is t0·0, for t0 the conjugator of S onto its class representative, so
    its stabilizer is that representative."""
    row = gs.orbit_gset(G, c).action[0]
    if any(row[n] for n in N):
        return None
    at = [row[r] for r in rho]  # the point k·0, for each k in K
    S = tuple(k for k, x in enumerate(at) if x == 0)
    cls, t0 = gs.tables(K).lattice.where[S]
    orbit = gs.orbit_gset(K, cls)
    y = orbit.point_stabilizers.index(frozenset(S))
    sigma = [0] * orbit.size
    for x, z in zip(at, orbit.action[y]):
        sigma[x] = z
    return OrbitImage(cls, tuple(sigma), at[t0])


class SpanImages(NamedTuple):
    """Span(F) between the canonical orbits of F's source group."""

    source: FiniteGroup  # G, F's source group
    target: FiniteGroup  # K, the group of the images
    images: tuple[int | None, ...]  # the class of F(orbit c), None if empty
    # terms[c1][c2][i]: the position in orbit_basis(K, images[c1],
    # images[c2]) of the image of orbit_basis(G, c1, c2)[i], None for zero
    terms: tuple


@lru_cache(maxsize=None)
def span_images(q: QuotientMap, which: str) -> SpanImages:
    """Span(F) on the keys of orbit_keys, in order, for F "inflation"
    along q, from q.target-sets to q.source-sets, or "fixed points" by
    N = ker q, from q.source-sets to q.target-sets.

    Each is given by (G, K, ρ): inflation by (q.target, q.source, q) and
    fixed points by (q.source, q.target, a section of q).  Both send a
    transitive G-set to a transitive K-set on the same points, or, fixed
    points when N moves a point, to nothing (_orbit_image), and a map to
    the same values.  So the image of a key (a, legL, legR) between the
    orbits of c1 and c2 is zero or one span, read at the base point p of
    F(G/R_a): its legs there are legL[p] and legR[p], renamed onto the
    canonical orbits of the image classes, and the key is held as its
    position in the basis of their hom, read from the least pair of
    those two points (_index)."""
    if len(set(q.projection)) != q.target.order:
        raise ValueError("projection is not onto the previous stage")
    if which == "inflation":
        G, K, rho, N = q.target, q.source, q.projection, ()
    else:
        G, K, N = q.source, q.target, q.kernel.elements
        rho = tuple(map(q.section, K.elements()))
    tg, tk = gs.tables(G), gs.tables(K)
    n = len(tg.classes)
    images = [_orbit_image(G, K, rho, N, c) for c in range(n)]
    targets = [i and tk.orbit(i.cls) for i in images]
    terms = [[()] * n for _ in range(n)]
    for c1, c2 in itertools.product(range(n), repeat=2):
        i1, i2 = images[c1], images[c2]
        # an end with no image has N move its points, and so every apex
        # over it: then every image of the row is None
        if i1 and i2:
            index = _index(tk, i1.cls, i2.cls)
            X, Y = targets[c1], targets[c2]
        row = []
        for a, legL, legR in _basis(tg, c1, c2):
            apex = images[a]
            if apex is None:
                row.append(None)
                continue
            x0, y0 = i1.sigma[legL[apex.base]], i2.sigma[legR[apex.base]]
            x, y = _least_pair(X.least_points[apex.cls], x0, Y, y0)
            row.append(index[(apex.cls * X.size + x) * Y.size + y])
        terms[c1][c2] = tuple(row)
    return SpanImages(
        G, K, tuple(i and i.cls for i in images), tuple(map(tuple, terms))
    )
