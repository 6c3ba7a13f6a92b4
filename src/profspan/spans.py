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
G-set X and class c (_least_points) gives, for every x in X^R, the least
point x* of its W-orbit, the carriers n with n·x = x*, and the leg table
of x, built once and shared by every key that reads it.  The least pair
is found in one place (_least_pair), for pair_key, which makes a key
from it: an identity or reversed basis span, read from a point of each
end (mackey, verify), and for the lookups that need only a key's
position in a basis between canonical orbits: a fibre orbit of a
composite (composites) and the image of a basis span under inflation or
fixed points (span_images) read it from an integer made of the class
and the least pair (basis_index), kept beside orbit_basis, so that no
key is built or hashed.  span_basis keeps a pair of fixed points iff
x = x* and no carrier of x lowers y.  So a key costs |Stab_W(x)|
actions, not |W|.

Each choice behind a key is made in one place.  The cosets of each
class representative are numbered once, in the table of
gs.orbit_classes that the canonical orbits are built from.  The class
representatives, and the element conjugating a subgroup onto its
representative, are the ones subgroup_lattice records; pair_key gives
the same key for any other conjugator.

orbit_basis is the basis between two canonical orbits,
endpoint_positions the positions of its generators, and orbit_keys
lists every basis key between orbits.  The endpoint keys from an orbit
G/R to itself are the conjugations by W = N(R)/R, and
conjugation_generators picks those of a generating set of W.
No span morphism, equivariant map or image G-set is built: span
morphisms, their composition, the legs of a key as maps and the slow
routes to keys, composites and Span(F) are oracles in tests/oracles.py.

Every composite of the package is between canonical orbits, and one
routine that keeps nothing makes them all (composites): a grid of k2 ∘ k1
for keys k1 into a middle orbit and k2 out of it, by the positions of
its terms in the basis of its ends.  The law checks read one table of
such grids per group and pair of end classes (endpoint_composites),
one grid per middle class, laid out by law_pairs, and walk them in one
way (law_grids): each class triple that has law pairs, with its pairs
and its grid.  The law on those pairs decides it on all pairs: on the
endpoint keys (Thévenaz–Webb 1995, §2; endpoint_positions), and on an
orbit's conjugations to itself only at the generators of its Weyl
group, since the law on (c_s, e) and (e, c_s) for every generator s
and endpoint key e, with the identity acting as the identity, gives it
on (c_w, e) and (e, c_w) for every w by induction on a word for w
(law_pairs).  On C128 that is 48,748 of the 127,103 pairs of endpoint
keys.

Span(F), for F inflation or fixed points along a quotient map, is one
table per functor and link (span_images), which both span checks of
verify and mackey.categorical_fixed_points read.  Both functors send a
canonical orbit to one orbit on the same points, or to nothing, so the
table is one record per subgroup class (_orbit_image) and one pair_key
per basis key, held as the position of the image in its basis.  The
right sides of the Span(F) law on the pairs of law_grids are held once
per table, and so per link (image_composites): read by position from
the image group's tables where their layout lists the images, and
composed where it does not, for the images of generator conjugations.
The module's tables are kept for the process, one per group, G-set or
link and class or class pair, none per key or pair of keys.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .errors import GroupMismatch
from .groups import FiniteGroup, QuotientMap, generating_set, subgroup_lattice
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


def _least_pair(lx: LeastPoints, x0: int, Y: GSet, y0: int) -> tuple[int, int]:
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
    lx = _least_points(X, c)
    x, y = _least_pair(lx, x0, Y, y0)
    return (c, lx.legs[x], _least_points(Y, c).legs[y])


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


@lru_cache(maxsize=None)
def basis_index(G: FiniteGroup, c1: int, c2: int) -> dict[int, int]:
    """The position in orbit_basis(G, c1, c2) of each key, by the integer
    (c·|X| + x)·|Y| + y of its class c and least pair (x, y) on the
    canonical orbits X and Y of c1 and c2 (_least_pair).  The legs of a
    key list their values at point 0 first, so (x, y) = (legL[0],
    legR[0]), and a key is found from a pair of points with no key built
    or hashed."""
    nx, ny = (len(gs.orbit_classes(G)[c].mins) for c in (c1, c2))
    return {
        (c * nx + legL[0]) * ny + legR[0]: i
        for i, (c, legL, legR) in enumerate(orbit_basis(G, c1, c2))
    }


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
    1973).  The endpoint keys from the orbit of a class c to itself are
    the conjugations c_w, w in N(R_c)/R_c, and the law on them follows
    from the law at the generators of that Weyl group (law_pairs), which
    is all the law checks test of them."""
    basis = orbit_basis(G, c1, c2)
    return tuple(i for i, k in enumerate(basis) if k[0] in (c1, c2))


@lru_cache(maxsize=None)
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
    through it."""
    lat = subgroup_lattice(G)
    mult = G.mult
    K1 = lat.class_rep(c1).elements
    classes = gs.orbit_classes(G)
    coset1, cls2 = classes[c1].coset, classes[c2]
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
    has stabilizer R_c, and _double_cosets keeps its two leg points
    p1 = t0·K1 and p2 = t0·h·K2, so the legs there are x0 = left1[p1] and
    z0 = right2[p2], with no coset looked up and no product taken per
    orbit.  The orbit's position is read from the least pair of (x0, z0),
    the one pair_key keys it by, in basis_index: no key is built and
    nothing is tabulated.  A composite has at most |G| terms, counted
    with multiplicity: they are orbits on a fibre of at most |G| points.
    """
    X, Z = gs.orbit_gset(G, c1), gs.orbit_gset(G, c3)
    nx, nz = X.size, Z.size
    index = basis_index(G, c1, c3)
    least: dict = {}  # class -> its W-orbit table of X
    width = len(seconds)
    grid: list = [()] * (len(firsts) * width)
    shared: dict = {}
    for j, (c2, left2, right2) in enumerate(seconds):
        fibres: dict = {}  # apex class of k1 -> its orbits by point of Y
        for i, (a, left1, right1) in enumerate(firsts):
            if a not in fibres:
                fibres[a] = {}
                for orbit in _double_cosets(G, a, c2):
                    fibres[a].setdefault(left2[orbit[0]], []).append(orbit)
            positions = []
            for _, c, p1, p2 in fibres[a].get(right1[0], ()):
                lx = least.get(c)
                if lx is None:
                    lx = least[c] = _least_points(X, c)
                x, z = _least_pair(lx, left1[p1], Z, right2[p2])
                positions.append(index[(c * nx + x) * nz + z])
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
def conjugation_generators(G: FiniteGroup, c: int) -> tuple[int, ...]:
    """The positions in orbit_basis(G, c, c) of the conjugations c_s, for s
    in a generating set of W = N(R)/R, R the class-c representative
    (groups.generating_set on W's table over gs.orbit_classes'
    normaliser, whose first element is the identity).

    The basis spans from G/R to itself are the pairs of R-fixed points,
    the cosets nR for n in N(R), modulo W; W acts freely on them, so each
    is one conjugation c_n = [G/R <-id- G/R -> G/R], gR -> gnR, and they
    are exactly the endpoint keys of orbit_basis(G, c, c)."""
    cls = gs.orbit_classes(G)[c]
    X = gs.orbit_gset(G, c)
    norm = cls.normaliser
    element = {cls.coset[n]: w for w, n in enumerate(norm)}  # point -> w
    table = [[element[cls.coset[G.mult[a][b]]] for b in norm] for a in norm]
    basis = orbit_basis(G, c, c)
    return tuple(
        basis.index(pair_key(c, X, 0, X, cls.coset[norm[s]]))
        for s in generating_set(table)
    )


def law_pairs(G: FiniteGroup, c1: int, c2: int, c3: int) -> tuple:
    """The positions (firsts in orbit_basis(G, c1, c2), seconds in
    orbit_basis(G, c2, c3)) of the pairs on which both law checks test
    the composition law for the class triple (c1, c2, c3): the generator
    conjugations of c2 (conjugation_generators) against E(c2, c3) when
    c1 = c2, E(c1, c2) against them when c2 = c3 and c1 ≠ c2, and
    E(c1, c2) against E(c2, c3) otherwise, E the endpoint positions.

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
    half.  The steps hold up to congruence, as in endpoint_positions
    (the conjugation relations of the Mackey algebra, Thévenaz–Webb
    1995)."""
    if c1 == c2:
        return conjugation_generators(G, c2), endpoint_positions(G, c2, c3)
    if c2 == c3:
        return endpoint_positions(G, c1, c2), conjugation_generators(G, c2)
    return endpoint_positions(G, c1, c2), endpoint_positions(G, c2, c3)


@lru_cache(maxsize=None)
def endpoint_composites(G: FiniteGroup, c1: int, c3: int) -> tuple:
    """The table both law checks read: entry c2 is the grid of the keys at
    the positions law_pairs(G, c1, c2, c3) gives, firsts against seconds
    (composites), and equal entries of the table are one tuple.  A triple
    with no firsts or no seconds (incomparable classes, or a trivial Weyl
    group) has no pairs: its entry is () and nothing is composed for
    it.  Readers walk the table through law_grids."""
    shared: dict = {}
    table = []
    for c2 in range(subgroup_lattice(G).num_classes):
        firsts, seconds = law_pairs(G, c1, c2, c3)
        if not firsts or not seconds:
            table.append(())
            continue
        b12, b23 = orbit_basis(G, c1, c2), orbit_basis(G, c2, c3)
        grid = composites(
            G, c1, c3, [b12[p] for p in firsts], [b23[p] for p in seconds]
        )
        table.append(tuple(shared.setdefault(t, t) for t in grid))
    return tuple(table)


def law_grids(G: FiniteGroup):
    """Each (c1, c2, c3, firsts, seconds, grid) for a class triple that
    has law pairs, in lexicographic order: firsts and seconds the
    positions law_pairs(G, c1, c2, c3) gives, and grid the composites of
    the keys at them, firsts against seconds in the layout of composites
    (endpoint_composites(G, c1, c3)[c2]).  A triple with no firsts or no
    seconds has no pair to test and is not yielded.  It is the one walk
    over the law pairs that both law checks and image_composites make."""
    n = subgroup_lattice(G).num_classes
    for c1, c2, c3 in itertools.product(range(n), repeat=3):
        firsts, seconds = law_pairs(G, c1, c2, c3)
        if firsts and seconds:
            yield c1, c2, c3, firsts, seconds, endpoint_composites(G, c1, c3)[c2]


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
    orbits of c1 and c2 is zero or one span, read at the base point p of
    F(G/R_a): its legs there are legL[p] and legR[p], renamed onto the
    canonical orbits of the image classes, and the key is held as its
    position in the basis of their hom, read from the least pair of
    those two points (basis_index)."""
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
        # an end with no image has N move its points, and so every apex
        # over it: then every image of the row is None
        if i1 and i2:
            index = basis_index(K, i1.cls, i2.cls)
            X, Y = targets[c1], targets[c2]
        row = []
        for a, legL, legR in orbit_basis(G, c1, c2):
            apex = images[a]
            if apex is None:
                row.append(None)
                continue
            x0, y0 = i1.sigma[legL[apex.base]], i2.sigma[legR[apex.base]]
            x, y = _least_pair(_least_points(X, apex.cls), x0, Y, y0)
            row.append(index[(apex.cls * X.size + x) * Y.size + y])
        terms[c1][c2] = tuple(row)
    return SpanImages(
        G, K, tuple(i and i.cls for i in images), tuple(map(tuple, terms))
    )


@lru_cache(maxsize=None)
def image_composites(table: SpanImages) -> dict:
    """The right sides Span(F)(k2) ∘ Span(F)(k1) of the Span(F) law on the
    pairs of law_grids(G), one grid per class triple whose image classes
    m1, m2, m3 all exist, in the layout of its grid of law_grids; a key
    that F sends to zero gives () in its row or column.  Where
    m1 ≠ m2 ≠ m3 and every image is an endpoint key, the grid is read by
    position from endpoint_composites(K, m1, m3)[m2], whose layout lists
    them, and is that grid itself when the images come in its order (as
    on every link of the cyclic towers the CLI builds); the others are
    composed, once per table and so once per link (span_images): they
    hold the triples with c1 = c2 or c2 = c3, since the image of a
    generator conjugation is a conjugation that K's layout need not
    list."""
    G, K, images, terms = table
    rights = {}
    for c1, c2, c3, firsts, seconds, _ in law_grids(G):
        m1, m2, m3 = images[c1], images[c2], images[c3]
        if None in (m1, m2, m3):
            continue
        j1 = [terms[c1][c2][p] for p in firsts]
        j2 = [terms[c2][c3][p] for p in seconds]
        e1 = {j: e for e, j in enumerate(endpoint_positions(K, m1, m2))}
        e2 = {j: e for e, j in enumerate(endpoint_positions(K, m2, m3))}
        if m1 != m2 != m3 and e1.keys() >= set(j1) and e2.keys() >= set(j2):
            grid, width = endpoint_composites(K, m1, m3)[m2], len(e2)
            # images in the order of K's layout read K's grid as it is
            if [j1, j2] != [list(e1), list(e2)]:
                grid = tuple(grid[e1[a] * width + e2[b]] for a in j1 for b in j2)
            rights[c1, c2, c3] = grid
            continue
        b12, b23 = orbit_basis(K, m1, m2), orbit_basis(K, m2, m3)
        kept1 = [b12[j] for j in j1 if j is not None]
        kept2 = [b23[j] for j in j2 if j is not None]
        grid = iter(composites(K, m1, m3, kept1, kept2))
        rights[c1, c2, c3] = tuple(
            () if a is None or b is None else next(grid) for a in j1 for b in j2
        )
    return rights
