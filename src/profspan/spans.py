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
made from that table, in one place (_pair_key): a fibre orbit of a
composite (_compose_keys), an orbit of an arbitrary apex (canonical_key)
and a pair of fixed points of the basis (span_basis), which keeps a pair
iff x = x* and no carrier of x lowers y.  So a key costs |Stab_W(x)|
actions, not |W|, and a composite holds the tables' own tuples.

Each choice behind a key is made in one place.  Left cosets are numbered
by groups.left_cosets, for the canonical orbits (gs.coset_gset) and the
coset tables alike.  The element conjugating a subgroup onto its class
representative is the one subgroup_lattice records; _pair_key gives the
same key for any other.

basis_legs turns a key back into its two legs, and canonical_key legs
into keys, one call per orbit of the apex.  orbit_basis is the basis
between two canonical orbits, endpoint_keys its generators, and
orbit_keys lists every basis key between orbits.  No span morphism is
built: span morphisms, their composition and the slow routes to keys
and composites are oracles in tests/oracles.py.

Span(F), for F inflation or fixed points along a quotient map, is one
table per functor and link (span_images), which both span checks of
verify and mackey.categorical_fixed_points read.  The tables, the
composites of basis keys (_compose_keys), the W-orbit tables, the
double-coset tables and the coset tables are kept for the process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import GroupMismatch
from .groups import FiniteGroup, QuotientMap, left_cosets, subgroup_lattice
from . import gsets as gs
from .gsets import EqMap, GSet


# A basis key is (apex stabilizer class index, legL values, legR values)
# with the legs tabulated on the canonical coset apex and minimized
# lexicographically over all apex relabelings (_pair_key).
Key = tuple[int, tuple[int, ...], tuple[int, ...]]


class OrbitClass(NamedTuple):
    """The canonical transitive G-set G/R of one subgroup class."""

    rep: tuple[int, ...]  # R, the class representative
    coset: tuple[int, ...]  # the point gR for each g (left_cosets)
    mins: tuple[int, ...]  # the least element of each coset, in point order
    normaliser: tuple[int, ...]  # the m in mins normalising R: N_G(R)/R


class CosetTables(NamedTuple):
    """Per-group tables behind canonical keys and span composition.

    The cosets of each class representative are numbered by
    groups.left_cosets, the numbering of gs.orbit_gset.  conjugator is the
    lattice's `where`: it maps the sorted elements of every subgroup L to
    (c, t0) with c the class of L and t0 L t0⁻¹ the representative of
    class c, t0 being the conjugator subgroup_lattice records for L.
    """

    classes: tuple[OrbitClass, ...]
    conjugator: dict


@lru_cache(maxsize=None)
def coset_tables(G: FiniteGroup) -> CosetTables:
    """The coset tables of G, built on first use."""
    lat = subgroup_lattice(G)
    classes = []
    for c in range(lat.num_classes):
        R = lat.class_rep(c)
        coset, mins = left_cosets(G, R.elements)
        normaliser = tuple(m for m in mins if R.conjugate(m) == R)
        classes.append(OrbitClass(R.elements, coset, mins, normaliser))
    return CosetTables(tuple(classes), lat.where)


class LeastPoints(NamedTuple):
    """The W-orbits on X^R of one G-set X and one subgroup class, R the
    class representative and W = N(R)/R as OrbitClass.normaliser lists it.

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
    cls = coset_tables(X.group).classes[c]
    fixed = gs.fixed_by(X, cls.rep)
    least, carriers, legs = [-1] * X.size, [()] * X.size, [None] * X.size
    for x in fixed:
        row = X.action[x]
        images = [row[n] for n in cls.normaliser]
        least[x] = star = min(images)
        carriers[x] = tuple(n for n, v in zip(cls.normaliser, images) if v == star)
        legs[x] = tuple(map(row.__getitem__, cls.mins))
    return LeastPoints(fixed, tuple(least), tuple(carriers), tuple(legs))


def _pair_key(c: int, X: GSet, x0: int, Y: GSet, y0: int) -> Key:
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


def canonical_key(apex: GSet, base: int, legL, legR, X: GSet, Y: GSet) -> Key:
    """Canonical key of the span X <- apex -> Y restricted to the orbit of
    base; the legs are given as full value tables on apex, into X and Y,
    and must be equivariant (every caller passes EqMap values or key
    tables).

    The apex is read only through its position table row[g] = g·base.
    The orbit is G/S by g·base ↦ gS, for S = {g : row[g] = base}, and the
    point t0·base, for the conjugator t0 of S onto the class
    representative R, has stabilizer R; the legs there are what _pair_key
    reads.  _pair_key minimizes over every relabelling of the orbit as
    G/R, so the key depends only on the class of the span, and any t with
    t S t⁻¹ = R, which is m·t0 for some m in N(R), gives the same key.
    So legs renamed along isomorphisms X ≅ X', Y ≅ Y' before the call
    give the key of the renamed span in one call: the key that keying the
    span, renaming the legs of its key and keying again gives."""
    G = apex.group
    row = apex.action[base]
    c, t0 = coset_tables(G).conjugator[tuple(g for g in G.elements() if row[g] == base)]
    point = row[t0]
    return _pair_key(c, X, legL[point], Y, legR[point])


def span_basis(X: GSet, Y: GSet) -> list[Key]:
    """The keys of all classes of spans X <- S -> Y with transitive S.

    A span with apex G/K, for K the representative of class c, is a pair
    (x, y) of K-fixed points, with legs gK -> g·x and gK -> g·y.  Two
    pairs give isomorphic spans iff an element n of N(K)/K carries one to
    the other, and the key of a pair (as in _pair_key) tabulates the
    least pair (n·x, n·y) of its orbit.  So the basis is one key per pair
    that is least in its orbit: x is the least point x* of its W-orbit,
    and y ≤ n·y for every carrier n of x (_least_points).  The tables
    start with x and y, so the keys come out sorted.
    """
    if X.group != Y.group:
        raise GroupMismatch("span endpoints require a common group")
    keys: list[Key] = []
    for c in range(len(coset_tables(X.group).classes)):
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


def basis_legs(X: GSet, Y: GSet, key: Key) -> tuple[EqMap, EqMap]:
    """The legs X <- G/R -> Y of the basis span key, on the canonical
    coset apex of its stabilizer class."""
    apex = gs.orbit_gset(X.group, key[0])
    return EqMap(apex, X, key[1]), EqMap(apex, Y, key[2])


@lru_cache(maxsize=None)
def orbit_basis(G: FiniteGroup, c1: int, c2: int) -> tuple[Key, ...]:
    """The basis keys between the canonical orbits of classes c1 and c2."""
    return tuple(span_basis(gs.orbit_gset(G, c1), gs.orbit_gset(G, c2)))


def orbit_keys(G: FiniteGroup) -> list[tuple[int, int, Key]]:
    """Every (c1, c2, key) with key in orbit_basis(G, c1, c2), in order of
    c1, then c2, then orbit_basis: the basis spans between orbits, which
    a Mackey functor's gen_action is keyed by."""
    n = len(coset_tables(G).classes)
    return [
        (c1, c2, key)
        for c1 in range(n)
        for c2 in range(n)
        for key in orbit_basis(G, c1, c2)
    ]


def endpoint_keys(G: FiniteGroup, c1: int, c2: int) -> tuple[Key, ...]:
    """The endpoint keys of orbit_basis(G, c1, c2), whose apex is in class
    c1 (transfers, conjugations) or c2 (restrictions, conjugations).

    Every basis span b with apex G/K is t_b ∘ r_b through G/K, with r_b
    and t_b endpoint keys, and two transfers (or two restrictions) compose
    to one endpoint key.  So for Φ additive on the spans between orbits,
    the law Φ(k2 ∘ k1) = Φ(k2)·Φ(k1) on pairs of endpoint keys gives it on
    all pairs: with r2 ∘ t1 = Σ_x t_x ∘ r_x,

        Φ(b2 ∘ b1) = Σ_x Φ(t2 ∘ t_x)·Φ(r_x ∘ r1)
                   = Φ(t2)·Φ(r2 ∘ t1)·Φ(r1) = Φ(b2)·Φ(b1),

    each step the law on endpoint keys (Thévenaz–Webb 1995, §2; Dress
    1973)."""
    return tuple(k for k in orbit_basis(G, c1, c2) if k[0] in (c1, c2))


def _normalize(counts: dict) -> tuple:
    return tuple(sorted((k, m) for k, m in counts.items() if m))


@lru_cache(maxsize=None)
def _double_cosets(G: FiniteGroup, c1: int, c2: int) -> tuple:
    """The double cosets of the representatives K1, K2 of classes c1, c2,
    as the K1-orbits on G/K2.

    Each K1-orbit on G/K2 gives one (y, c, t0, h): y the least point of
    the orbit, h = mins[y] the least element of the coset y = hK2, and
    (c, t0) the class of the stabilizer K1 ∩ hK2h⁻¹ and its conjugator,
    read from CosetTables.conjugator.  The table depends only on the two
    classes, so every pair of keys with these apexes composes through it."""
    T = coset_tables(G)
    mult = G.mult
    K1 = T.classes[c1].rep
    coset2, mins2 = T.classes[c2].coset, T.classes[c2].mins
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
        orbits.append((y, *T.conjugator[tuple(stab)], h))
    return tuple(orbits)


@lru_cache(maxsize=None)
def _compose_keys(X: GSet, Z: GSet, k2: Key, k1: Key) -> tuple:
    """Composite of basis keys k1: X -> Y and k2: Y -> Z as a tuple of
    (key, mult).  The middle object Y is not needed: k2's left leg and
    k1's right leg are tabulated on it.

    By the double-coset formula the orbits of the pullback of
    G/K1 -> Y <- G/K2 are the K1-orbits on the fibre of G/K2 over the image
    of the coset K1, and the orbit through (K1, hK2) has stabilizer
    K1 ∩ hK2h⁻¹.  No pullback G-set is built.  The fibre is K1-stable, so
    the one point y = hK2 that _double_cosets lists per K1-orbit decides
    whether the whole orbit lies in it.

    The legs at g·(K1, hK2) are left1 at gK1 and right2 at ghK2.  The
    point t0·(K1, hK2) of the orbit, for its class c and conjugator t0,
    has stabilizer R_c, and the legs there are x0 = left1 at t0·K1 and
    z0 = right2 at t0·h·K2: _pair_key keys the orbit from those two
    points, reading the W-orbit tables of X and Z and tabulating nothing.
    """
    T = coset_tables(X.group)
    mult = X.group.mult
    (c1, left1, right1), (c2, left2, right2) = k1, k2
    coset1, coset2 = T.classes[c1].coset, T.classes[c2].coset
    fibre = right1[0]
    counts: dict = {}
    for y, c, t0, h in _double_cosets(X.group, c1, c2):
        if left2[y] != fibre:
            continue
        key = _pair_key(c, X, left1[coset1[t0]], Z, right2[coset2[mult[t0][h]]])
        counts[key] = counts.get(key, 0) + 1
    return _normalize(counts)


@dataclass(frozen=True)
class BurnsideTables:
    class_orders: tuple[int, ...]
    marks: tuple[tuple[int, ...], ...]
    ring: tuple[tuple[tuple[int, ...], ...], ...]  # ring[i][j][k] coefficients


def burnside_tables(G: FiniteGroup) -> BurnsideTables:
    """Table of marks and the Burnside ring structure constants.

    marks[i][j] = number of H_j-fixed points of G/K_i, over subgroup
    conjugacy classes ordered by subgroup size.  The ring constants expand
    products of basis endo-spans of the point in the span basis.
    """
    T = coset_tables(G)
    n = len(T.classes)
    orbits = [gs.orbit_gset(G, c) for c in range(n)]
    marks = tuple(
        tuple(len(gs.fixed_by(X, cls.rep)) for cls in T.classes) for X in orbits
    )
    pt = orbits[-1]  # the class of G is the last, the only one of its order
    basis = span_basis(pt, pt)
    assert len(basis) == n
    index = {k: i for i, k in enumerate(basis)}
    ring = []
    for b_i in basis:
        row = []
        for b_j in basis:
            coeffs = [0] * n
            for k, m in _compose_keys(pt, pt, b_i, b_j):
                coeffs[index[k]] = m
            row.append(tuple(coeffs))
        ring.append(tuple(row))
    return BurnsideTables(tuple(len(cls.rep) for cls in T.classes), marks, tuple(ring))


class GSetFunctor:
    """A functor between G-set universes, given on objects and maps by
    the obj(X) and map(f) of each subclass, from G-sets over src_group."""

    src_group: FiniteGroup


class InflationGSetFunctor(GSetFunctor):
    """Inflation along a quotient map, from G/N-sets to G-sets."""

    def __init__(self, q: QuotientMap):
        self.q = q
        self.src_group = q.target

    def obj(self, X):
        return gs.inflate(X, self.q)

    def map(self, f):
        return gs.inflate_map(f, self.q)


class FixedPointsGSetFunctor(GSetFunctor):
    """N-fixed points with residual action, from G-sets to G/N-sets."""

    def __init__(self, q: QuotientMap):
        self.q = q
        self.src_group = q.source

    def obj(self, X):
        return gs.fixed_points(X, self.q)

    def map(self, f):
        return gs.fixed_points_map(f, self.q)


class SpanImages(NamedTuple):
    """Span(F) between the canonical orbits of F's source group."""

    orbits: tuple[GSet, ...]  # the orbit of each subgroup class c
    classes: tuple[tuple[int, ...], ...]  # the orbit classes of F(orbit c)
    targets: tuple[GSet, ...]  # F(orbit c) renamed onto canonical G-sets
    terms: dict  # (c1, c2, key) -> sorted (key, mult) between the targets


@lru_cache(maxsize=None)
def span_images(functor: type[GSetFunctor], q: QuotientMap) -> SpanImages:
    """Span(F) for F = functor(q) on the keys of orbit_keys, in order: F
    of the key's apex and legs, the legs renamed by canonical_iso of each
    F(orbit) onto the targets (one orbit: gs.orbit_gset, which the next
    link and the Mackey code key too), each orbit of F(apex) keyed as the
    basis object of its hom.  F need not be onto or left exact."""
    F = functor(q)
    G = F.src_group
    orbits = tuple(gs.orbit_gset(G, c) for c in range(len(coset_tables(G).classes)))
    sigma = [gs.canonical_iso(F.obj(X)) for X in orbits]
    classes = tuple(gs.orbit_class_multiset(F.obj(X)) for X in orbits)
    H = sigma[0].dst.group
    targets = tuple(
        gs.orbit_gset(H, m[0]) if len(m) == 1 else s.dst for m, s in zip(classes, sigma)
    )
    terms: dict = {}
    for c1, c2 in itertools.product(range(len(orbits)), repeat=2):
        m1, m2, T1, T2 = classes[c1], classes[c2], targets[c1], targets[c2]
        single = len(m1) == len(m2) == 1
        basis = orbit_basis(H, m1[0], m2[0]) if single else span_basis(T1, T2)
        own = dict(zip(basis, basis))
        s1, s2 = sigma[c1].values, sigma[c2].values
        for key in orbit_basis(G, c1, c2):
            f, h = map(F.map, basis_legs(orbits[c1], orbits[c2], key))
            left, right = [s1[x] for x in f.values], [s2[y] for y in h.values]
            counts: dict = {}
            for o in f.src.orbits():
                k = own[canonical_key(f.src, o[0], left, right, T1, T2)]
                counts[k] = counts.get(k, 0) + 1
            terms[c1, c2, key] = _normalize(counts)
    return SpanImages(orbits, classes, targets, terms)
