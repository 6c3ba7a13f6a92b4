"""Span categories of finite G-sets with exact morphism arithmetic.

A morphism X -> Y is a finitely supported multiset of isomorphism classes
of spans X <- S -> Y with transitive apex S; hom-sets are free commutative
monoids on these basis classes.  Two basis spans with apexes G/K1 and G/K2
compose by the double-coset formula: the orbits of their pullback are the
K1-orbits on one fibre of G/K2, with stabilizers K1 ∩ hK2h⁻¹.  The
K1-orbits on G/K2, with the class and conjugator of each stabilizer, are
one table per pair of apex classes (_double_cosets), which every pair of
keys with those apexes reads; each orbit in the fibre is canonicalised
from that table and the action rows of the two canonical orbits, without
building the pullback G-set or any table of length |G|.  Composition is
exact (integer multiplicities, no tolerance).

Each choice behind a key is made in one place.  Left cosets are numbered
by groups.left_cosets, for the canonical orbits (gs.coset_gset) and the
coset tables alike.  The element conjugating a subgroup onto its class
representative is the one subgroup_lattice records; _least_key gives the
same key for any other.  A key is canonicalised by _least_key, through
canonical_key, and composed by _compose_keys.

A basis span is its key alone: the class c of its apex stabilizer and
its two legs tabulated on the canonical coset apex G/R_c.  The basis of
hom(X, Y) is read off pairs of fixed points: a span with apex G/K is a
point of X^K and a point of Y^K.  span_basis keys one pair (x, y) of
K-fixed points per orbit of the normaliser of K, for one K per subgroup
class, without enumerating hom-sets.  basis_legs turns a key back into
its two legs.  orbit_basis is the basis between two canonical orbits,
endpoint_keys its generators, and orbit_keys lists every basis key
between orbits.

The way from legs back to keys is one loop, span_from_maps: it
canonicalises every orbit of the apex and adds up the keys.  The Mackey
and Burnside code works on keys alone and calls canonical_key directly:
the reversed span of a key is its apex orbit's key with the legs
swapped, the identity of an orbit X is the key of X with both legs the
identity, and mackey.categorical_fixed_points keys legs renamed before
keying.  The pullback composite, the hom-enumerating basis and Span(F)
applied term by term stay as oracles in the test suite, as do span sums,
transport and the semiadditivity check.

The span checks of verify tabulate Span(F), for a GSetFunctor F, on the
basis spans between orbits: each image is span_from_maps of F on the
key's legs.  The composites of basis keys (_compose_keys), the
double-coset tables and the coset tables are kept for the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import GroupMismatch, ObjectMismatch
from .groups import FiniteGroup, QuotientMap, left_cosets, subgroup_lattice
from . import gsets as gs
from .gsets import EqMap, GSet


# A basis key is (apex stabilizer class index, legL values, legR values)
# with the legs tabulated on the canonical coset apex and minimized
# lexicographically over all apex relabelings.
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


def _least_key(G: FiniteGroup, T: CosetTables, c: int, t0: int, lg, rg) -> Key:
    """The key of one orbit of a span's apex.

    The orbit's base point has a stabilizer S with t0 S t0⁻¹ the class-c
    representative R, and lg[g], rg[g] are the leg values at g·base.  The
    points with stabilizer exactly R are n·t0·base for n in N(R)/R, one per
    relabelling of the apex as G/R.  The legs are equivariant, so each
    relabelling's leg tables are fixed by their values at point 0 (the
    coset R), which they list first; the lexicographic minimum is therefore
    the relabelling with the least pair of values there.

    The key does not depend on which conjugator t0 is given.  Every t with
    t S t⁻¹ = R is m·t0 for some m in N(R), and n·m runs over N(R)/R as n
    does, so every choice reaches the same points n·t0·base.  The minimum
    over those points may be reached at several; but two equivariant legs
    with equal values at point 0 have equal tables, because the value at
    coset mR is m times the value at R.  So every choice gives the same
    tables.
    """
    mult = G.mult
    cls = T.classes[c]
    g = min((mult[n][t0] for n in cls.normaliser), key=lambda x: (lg[x], rg[x]))
    imgs = [mult[m][g] for m in cls.mins]
    return (c, tuple(map(lg.__getitem__, imgs)), tuple(map(rg.__getitem__, imgs)))


def canonical_key(apex: GSet, base: int, legL, legR) -> Key:
    """Canonical key of the span X <- apex -> Y restricted to the orbit of
    base; the legs are given as full value tables on apex and must be
    equivariant (every caller passes EqMap values or key tables).

    The apex is read only through its position table row[g] = g·base.
    The orbit is G/S by g·base ↦ gS, for S = {g : row[g] = base}, and the
    legs at gS are legL[row[g]] and legR[row[g]]; these are what
    _least_key reads.  _least_key minimizes over every relabelling of the
    orbit as G/R, so the key depends only on the class of the span.  So
    legs renamed along isomorphisms X ≅ X', Y ≅ Y' before the call give
    the key of the renamed span in one call: the key that keying the span,
    renaming the legs of its key and keying again gives."""
    G = apex.group
    T = coset_tables(G)
    row = apex.action[base]
    c, t0 = T.conjugator[tuple(g for g in G.elements() if row[g] == base)]
    return _least_key(G, T, c, t0, [legL[x] for x in row], [legR[x] for x in row])


def _fixed_by_class(X: GSet, T: CosetTables) -> list[tuple[int, ...]]:
    """X^R for the representative R of each subgroup class, in point order,
    read from the point stabilizers X keeps.  Keeping those of the coset
    G-sets that coset_gset holds for the process costs little memory: the
    `corpus_mackey` benchmark's peak_rss_mb is 59.52 MB, against 59.06 MB
    with the stabilizers computed per call (medians of ten runs, Python
    3.11.7, 2 cores)."""
    return [gs.fixed_by(X, cls.rep) for cls in T.classes]


def span_basis(X: GSet, Y: GSet) -> list[Key]:
    """The keys of all classes of spans X <- S -> Y with transitive S.

    A span with apex G/K, for K the representative of class c, is a pair
    (x, y) of K-fixed points, with legs gK -> g·x and gK -> g·y.  Two
    pairs give isomorphic spans iff an element n of the normaliser N(K)
    carries one to the other, and the key of a pair (as in _least_key)
    tabulates the least pair (n·x, n·y) of its N(K)-orbit over the coset
    minima.  So the basis is one key per pair that is least in its
    orbit; the tables start with x and y, so the keys come out sorted.
    """
    if X.group != Y.group:
        raise GroupMismatch("span endpoints require a common group")
    T = coset_tables(X.group)
    fixed_x, fixed_y = _fixed_by_class(X, T), _fixed_by_class(Y, T)
    keys: list[Key] = []
    for c, cls in enumerate(T.classes):
        ys = fixed_y[c]
        if not ys:
            continue
        right = [tuple(map(Y.action[y].__getitem__, cls.mins)) for y in ys]
        for x in fixed_x[c]:
            gx = X.action[x]
            left = tuple(map(gx.__getitem__, cls.mins))
            for y, table in zip(ys, right):
                gy = Y.action[y]
                if all((gx[n], gy[n]) >= (x, y) for n in cls.normaliser):
                    keys.append((c, left, table))
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


@dataclass(frozen=True)
class SpanMor:
    left: GSet
    right: GSet
    terms: tuple[tuple[Key, int], ...]  # sorted, multiplicities >= 1


def _normalize(counts: dict) -> tuple:
    return tuple(sorted((k, m) for k, m in counts.items() if m))


def span_from_maps(f: EqMap, g: EqMap) -> SpanMor:
    """The span class of X <-f- S -g-> Y for an arbitrary finite apex S,
    keyed orbit by orbit of S."""
    if f.src != g.src:
        raise ObjectMismatch("legs must share an apex")
    counts: dict = {}
    for orb in f.src.orbits():
        k = canonical_key(f.src, orb[0], f.values, g.values)
        counts[k] = counts.get(k, 0) + 1
    return SpanMor(f.dst, g.dst, _normalize(counts))


def identity_span(X: GSet) -> SpanMor:
    return span_from_maps(gs.identity_map(X), gs.identity_map(X))


class DoubleCosets(NamedTuple):
    """The (K1, K2) double cosets of two class representatives, as the
    K1-orbits on G/K2, with the two canonical orbits' action rows."""

    act1: tuple[tuple[int, ...], ...]  # gs.orbit_gset(G, c1).action
    act2: tuple[tuple[int, ...], ...]  # gs.orbit_gset(G, c2).action
    orbits: tuple[tuple[int, int, int, int], ...]  # (y, c, t0, h) per orbit


@lru_cache(maxsize=None)
def _double_cosets(G: FiniteGroup, c1: int, c2: int) -> DoubleCosets:
    """The double cosets of the representatives K1, K2 of classes c1, c2.

    Each K1-orbit on G/K2 gives one (y, c, t0, h): y the least point of
    the orbit, h = mins[y] the least element of the coset y = hK2, and
    (c, t0) the class of the stabilizer K1 ∩ hK2h⁻¹ and its conjugator,
    read from CosetTables.conjugator.  The table depends only on the two
    classes, so every pair of keys with these apexes composes through it.
    The action rows are those gs.coset_gset keeps for the process."""
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
    act1, act2 = (gs.orbit_gset(G, c).action for c in (c1, c2))
    return DoubleCosets(act1, act2, tuple(orbits))


@lru_cache(maxsize=None)
def _compose_keys(G: FiniteGroup, k2: Key, k1: Key) -> tuple:
    """Composite of two basis keys as a tuple of (key, mult); the result
    depends only on the group and the keys, not on the middle object.

    By the double-coset formula the orbits of the pullback of
    G/K1 -> Y <- G/K2 are the K1-orbits on the fibre of G/K2 over the image
    of the coset K1, and the orbit through (K1, hK2) has stabilizer
    K1 ∩ hK2h⁻¹.  No pullback G-set is built.  The fibre is K1-stable, so
    the one point y = hK2 that _double_cosets lists per K1-orbit decides
    whether the whole orbit lies in it.

    The legs at g·(K1, hK2) are left1 at gK1 and right2 at ghK2.  Each
    orbit in the fibre is keyed as _least_key would key it from its class
    c and conjugator t0, with no table of length |G|: the relabellings are
    the n·t0 for n in N(R)/R, and the least pair (left1 at n·t0·K1,
    right2 at n·t0·h·K2), read off the action rows at the points t0·K1
    and t0·h·K2, picks one.  Only that relabelling is tabulated, from the
    action rows at its two points.  Where several n reach the least pair
    they give the same tables, by the argument in _least_key's docstring.
    """
    T = coset_tables(G)
    mult = G.mult
    (c1, left1, right1), (c2, left2, right2) = k1, k2
    coset1, coset2 = T.classes[c1].coset, T.classes[c2].coset
    act1, act2, orbits = _double_cosets(G, c1, c2)
    fibre = right1[0]
    counts: dict = {}
    for y, c, t0, h in orbits:
        if left2[y] != fibre:
            continue
        cls = T.classes[c]
        u1, u2 = act1[coset1[t0]], act2[coset2[mult[t0][h]]]
        _, _, n = min((left1[u1[a]], right2[u2[a]], a) for a in cls.normaliser)
        row1, row2 = act1[u1[n]], act2[u2[n]]
        key = (
            c,
            tuple([left1[row1[m]] for m in cls.mins]),
            tuple([right2[row2[m]] for m in cls.mins]),
        )
        counts[key] = counts.get(key, 0) + 1
    return _normalize(counts)


def compose_spans(m2: SpanMor, m1: SpanMor) -> SpanMor:
    """m2 after m1, composing basis terms by the double-coset formula and
    extending bilinearly."""
    if m1.right != m2.left:
        raise ObjectMismatch("span morphisms do not compose")
    G = m1.left.group
    counts: dict = {}
    for k1, c1 in m1.terms:
        for k2, c2 in m2.terms:
            for k, c in _compose_keys(G, k2, k1):
                counts[k] = counts.get(k, 0) + c1 * c2 * c
    return SpanMor(m1.left, m2.right, _normalize(counts))


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
    orbits = (gs.orbit_gset(G, c) for c in range(n))
    marks = tuple(tuple(map(len, _fixed_by_class(X, T))) for X in orbits)
    pt = gs.point_gset(G)
    basis = span_basis(pt, pt)
    assert len(basis) == n
    index = {k: i for i, k in enumerate(basis)}
    ring = []
    for b_i in basis:
        row = []
        for b_j in basis:
            coeffs = [0] * n
            for k, m in _compose_keys(G, b_i, b_j):
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
