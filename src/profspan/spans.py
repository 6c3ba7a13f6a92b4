"""Span categories of finite G-sets with exact morphism arithmetic.

A morphism X -> Y is a finitely supported multiset of isomorphism classes
of spans X <- S -> Y with transitive apex S; hom-sets are free commutative
monoids on these basis classes.  Two basis spans with apexes G/K1 and G/K2
compose by the double-coset formula: the orbits of their pullback are the
K1-orbits on one fibre of G/K2, with stabilizers K1 ∩ hK2h⁻¹.  The
K1-orbits on G/K2, with the class and conjugator of each stabilizer, are
one table per pair of apex classes (_double_cosets), which every pair of
keys with those apexes reads.  Composition is exact (integer
multiplicities, no tolerance), and builds no pullback G-set and no table
of length |G|.

A basis span is its key alone: the class c of its apex stabilizer and
its two legs tabulated on the canonical coset apex G/R_c.  A span with
apex G/R is a pair (x, y) of R-fixed points of its two ends, and its key
tabulates the least pair (n·x, n·y) over W = N(R)/R.  One table per
G-set X and class c (_least_points) gives, for every x in X^R, the least
point x* of its W-orbit, the carriers n with n·x = x*, and the leg table
of x, built once and shared by every key that reads it.  Every key is
made from that table, in one place (pair_key): a fibre orbit of a
composite (composites), an identity or reversed basis span, read from
a point of each end (mackey, verify), the image of a basis span under
inflation or fixed points (span_images) and a pair of fixed points of
the basis (span_basis), which keeps a pair iff x = x* and no carrier of
x lowers y.  So a key costs |Stab_W(x)| actions, not |W|.

Each choice behind a key is made in one place.  The cosets of each
class representative are numbered once, in the table of
gs.orbit_classes that the canonical orbits are built from.  The class
representatives, and the element conjugating a subgroup onto its
representative, are the ones subgroup_lattice records; pair_key gives
the same key for any other conjugator.

orbit_basis is the basis between two canonical orbits,
endpoint_positions the positions of its generators, and orbit_keys
lists every basis key between orbits.
No span morphism, equivariant map or image G-set is built: span
morphisms, their composition, the legs of a key as maps and the slow
routes to keys, composites and Span(F) are oracles in tests/oracles.py.

Every composite of the package is between canonical orbits, and one
routine that keeps nothing makes them all (composites): a grid of k2 ∘ k1
for keys k1 into a middle orbit and k2 out of it, by the positions of
its terms in the basis of its ends.  The law checks read one table of
such grids per group and pair of end classes (endpoint_composites).

Span(F), for F inflation or fixed points along a quotient map, is one
table per functor and link (span_images), which both span checks of
verify and mackey.categorical_fixed_points read.  Both functors send a
canonical orbit to one orbit on the same points, or to nothing, so the
table is one record per subgroup class (_orbit_image) and one pair_key
per basis key, held as the position of the image in its basis.  The
module's tables are kept for the process, one per group, G-set or link
and class or class pair, none per key or pair of keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import GroupMismatch
from .groups import FiniteGroup, QuotientMap, subgroup_lattice
from . import gsets as gs
from .gsets import GSet


# A basis key is (apex stabilizer class index, legL values, legR values)
# with the legs tabulated on the canonical coset apex and minimized
# lexicographically over all apex relabelings (pair_key).
Key = tuple[int, tuple[int, ...], tuple[int, ...]]


class LeastPoints(NamedTuple):
    """The W-orbits on X^R of one G-set X and one subgroup class, R the
    class representative and W = N(R)/R as gs.orbit_classes lists it.

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


@lru_cache(maxsize=None)
def _least_points(X: GSet, c: int) -> LeastPoints:
    """The W-orbit table of X and class c, built on first use."""
    cls = gs.orbit_classes(X.group)[c]
    fixed = gs.fixed_by(X, subgroup_lattice(X.group).class_rep(c).elements)
    least, carriers, legs = [-1] * X.size, [()] * X.size, [None] * X.size
    for x in fixed:
        row = X.action[x]
        images = [row[n] for n in cls.normaliser]
        least[x] = star = min(images)
        carriers[x] = tuple(n for n, v in zip(cls.normaliser, images) if v == star)
        legs[x] = tuple(map(row.__getitem__, cls.mins))
    return LeastPoints(fixed, tuple(least), tuple(carriers), tuple(legs))


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
    lx = _least_points(X, c)
    row = Y.action[y0]
    y = min(map(row.__getitem__, lx.carriers[x0]))
    return (c, lx.legs[lx.least[x0]], _least_points(Y, c).legs[y])


def span_basis(X: GSet, Y: GSet) -> list[Key]:
    """The keys of all classes of spans X <- S -> Y with transitive S.

    A span with apex G/K, for K the representative of class c, is a pair
    (x, y) of K-fixed points, with legs gK -> g·x and gK -> g·y.  Two
    pairs give isomorphic spans iff an element n of N(K)/K carries one to
    the other, and the key of a pair (as in pair_key) tabulates the
    least pair (n·x, n·y) of its orbit.  So the basis is one key per pair
    that is least in its orbit: x is the least point x* of its W-orbit,
    and y ≤ n·y for every carrier n of x (_least_points).  The tables
    start with x and y, so the keys come out sorted.
    """
    if X.group != Y.group:
        raise GroupMismatch("span endpoints require a common group")
    keys: list[Key] = []
    for c in range(subgroup_lattice(X.group).num_classes):
        ly = _least_points(Y, c)
        if not ly.fixed:
            continue
        lx = _least_points(X, c)
        for x in lx.fixed:
            if lx.least[x] != x:
                continue
            carriers, left = lx.carriers[x], lx.legs[x]
            for y in ly.fixed:
                row = Y.action[y]
                if all(row[n] >= y for n in carriers):
                    keys.append((c, left, ly.legs[y]))
    return keys


@lru_cache(maxsize=None)
def orbit_basis(G: FiniteGroup, c1: int, c2: int) -> tuple[Key, ...]:
    """The basis keys between the canonical orbits of classes c1 and c2."""
    return tuple(span_basis(gs.orbit_gset(G, c1), gs.orbit_gset(G, c2)))


def orbit_keys(G: FiniteGroup) -> list[tuple[int, int, Key]]:
    """Every (c1, c2, key) with key in orbit_basis(G, c1, c2), in order of
    c1, then c2, then orbit_basis: the basis spans between orbits, which
    a Mackey functor's gen_action is keyed by."""
    n = subgroup_lattice(G).num_classes
    return [
        (c1, c2, key)
        for c1 in range(n)
        for c2 in range(n)
        for key in orbit_basis(G, c1, c2)
    ]


@lru_cache(maxsize=None)
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
    1973)."""
    basis = orbit_basis(G, c1, c2)
    return tuple(i for i, k in enumerate(basis) if k[0] in (c1, c2))


@lru_cache(maxsize=None)
def _double_cosets(G: FiniteGroup, c1: int, c2: int) -> tuple:
    """The double cosets of the representatives K1, K2 of classes c1, c2,
    as the K1-orbits on G/K2.

    Each K1-orbit on G/K2 gives one (y, c, t0, h): y the least point of
    the orbit, h = mins[y] the least element of the coset y = hK2, and
    (c, t0) the class of the stabilizer K1 ∩ hK2h⁻¹ and its conjugator,
    read from the lattice's `where`.  The table depends only on the two
    classes, so every pair of keys with these apexes composes through it."""
    lat = subgroup_lattice(G)
    mult = G.mult
    K1 = lat.class_rep(c1).elements
    cls2 = gs.orbit_classes(G)[c2]
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
        orbits.append((y, *lat.where[tuple(stab)], h))
    return tuple(orbits)


def composites(G: FiniteGroup, c1: int, c3: int, firsts, seconds) -> tuple:
    """seconds[j] ∘ firsts[i], for basis keys firsts[i] from the orbit of
    class c1 to a middle orbit Y and seconds[j] from Y to the orbit of c3,
    at entry i·len(seconds) + j as the sorted (position in
    orbit_basis(G, c1, c3), mult) pairs; equal entries are one tuple.  Y
    is not needed: the right legs of firsts and left legs of seconds are
    tabulated on it.

    By the double-coset formula the orbits of the pullback of
    G/K1 -> Y <- G/K2 are the K1-orbits on the fibre of G/K2 over the image
    of the coset K1, and the orbit through (K1, hK2) has stabilizer
    K1 ∩ hK2h⁻¹.  No pullback G-set is built.  The fibre is K1-stable, so
    the one point y = hK2 that _double_cosets lists per K1-orbit decides
    whether the whole orbit lies in it, and the orbits are bucketed by
    that point, once per second key and apex class of the firsts.

    The legs at g·(K1, hK2) are left1 at gK1 and right2 at ghK2.  The
    point t0·(K1, hK2) of the orbit, for its class c and conjugator t0,
    has stabilizer R_c, and the legs there are x0 = left1 at t0·K1 and
    z0 = right2 at t0·h·K2: pair_key keys the orbit from those two
    points, reading the W-orbit tables of the two end orbits and
    tabulating nothing.
    """
    classes = gs.orbit_classes(G)
    mult = G.mult
    X, Z = gs.orbit_gset(G, c1), gs.orbit_gset(G, c3)
    position = {k: i for i, k in enumerate(orbit_basis(G, c1, c3))}
    width = len(seconds)
    grid: list = [()] * (len(firsts) * width)
    shared: dict = {}
    for j, (c2, left2, right2) in enumerate(seconds):
        coset2 = classes[c2].coset
        fibres: dict = {}  # apex class of k1 -> its orbits by point of Y
        for i, (a, left1, right1) in enumerate(firsts):
            if a not in fibres:
                fibres[a] = {}
                for orbit in _double_cosets(G, a, c2):
                    fibres[a].setdefault(left2[orbit[0]], []).append(orbit)
            coset1 = classes[a].coset
            positions = [
                position[
                    pair_key(c, X, left1[coset1[t0]], Z, right2[coset2[mult[t0][h]]])
                ]
                for _, c, t0, h in fibres[a].get(right1[0], ())
            ]
            if len(positions) == 1:
                terms: tuple = ((positions[0], 1),)
            else:
                counts: dict = {}
                for p in positions:
                    counts[p] = counts.get(p, 0) + 1
                terms = tuple(sorted(counts.items()))
            grid[i * width + j] = shared.setdefault(terms, terms)
    return tuple(grid)


@lru_cache(maxsize=None)
def endpoint_composites(G: FiniteGroup, c1: int, c3: int) -> tuple:
    """The table both law checks read: entry c2 is the grid of the
    endpoint keys from the orbit of c1 to that of c2 against those from
    c2 to c3 (composites), and equal entries of the table are one tuple."""

    def ends(a: int, b: int) -> list[Key]:
        basis = orbit_basis(G, a, b)
        return [basis[i] for i in endpoint_positions(G, a, b)]

    shared: dict = {}
    grids = (
        composites(G, c1, c3, ends(c1, c2), ends(c2, c3))
        for c2 in range(subgroup_lattice(G).num_classes)
    )
    return tuple(tuple(shared.setdefault(t, t) for t in grid) for grid in grids)


@dataclass(frozen=True)
class BurnsideTables:
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
    lat = subgroup_lattice(G)
    n = lat.num_classes
    reps = [lat.class_rep(c) for c in range(n)]
    orbits = [gs.orbit_gset(G, c) for c in range(n)]
    marks = tuple(tuple(len(gs.fixed_by(X, R.elements)) for R in reps) for X in orbits)
    pt = n - 1  # the class of G (SubgroupLattice.classes)
    basis = orbit_basis(G, pt, pt)
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
    cls, t0 = subgroup_lattice(K).where[S]
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
    orbits of c1 and c2 is zero or one span, read by pair_key at the base
    point p of F(G/R_a): its legs there are legL[p] and legR[p], renamed
    onto the canonical orbits of the image classes, and the key is held as
    its position in the basis of their hom."""
    if len(set(q.projection)) != q.target.order:
        raise ValueError("projection is not onto the previous stage")
    if which == "inflation":
        G, K, rho, N = q.target, q.source, q.projection, ()
    else:
        G, K, N = q.source, q.target, q.kernel.elements
        rho = tuple(map(q.section, K.elements()))
    n = subgroup_lattice(G).num_classes
    images = [_orbit_image(G, K, rho, N, c) for c in range(n)]
    targets = [i and gs.orbit_gset(K, i.cls) for i in images]
    terms = [[()] * n for _ in range(n)]
    for c1, c2 in itertools.product(range(n), repeat=2):
        i1, i2 = images[c1], images[c2]
        basis = orbit_basis(K, i1.cls, i2.cls) if i1 and i2 else ()
        position = {k: j for j, k in enumerate(basis)}
        row = []
        for a, legL, legR in orbit_basis(G, c1, c2):
            apex = images[a]
            if apex is None:
                row.append(None)
                continue
            x, y = i1.sigma[legL[apex.base]], i2.sigma[legR[apex.base]]
            row.append(position[pair_key(apex.cls, targets[c1], x, targets[c2], y)])
        terms[c1][c2] = tuple(row)
    return SpanImages(
        G, K, tuple(i and i.cls for i in images), tuple(map(tuple, terms))
    )
