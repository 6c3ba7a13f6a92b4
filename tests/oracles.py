"""Independent oracles, used only by the tests.

Each recomputes by enumeration what the package computes from per-group
tables or hom factors: the hom-enumerating span basis, the pullback
composite of two basis keys and the composite walked element by element
with leg tables of length |G|, each orbit keyed by a min over N(R)/R
(least_key) in place of the W-orbit tables, the least-key
canonicalisation of a span orbit over every point of it, the rank of a
basis hom by orbit counting, the colim-gset equivalence with every
hom-set enumerated, Span(F) applied term by term with nothing kept
between calls (the Span(F) the tests apply), the routes that
spans.span_images replaced (the generic table of any G-set functor,
span_images_generic, which applies F to every key's apex and legs;
span_from_maps per key renamed by canonical_iso; and the inflated keys
of categorical fixed points), the
adjunction's unit and counit squares built and decided for one map at a
time, the Mackey composition law tested on every pair of basis spans
between orbits, categorical fixed points through inflated G-sets,
associativity of a multiplication table tested on every triple, the
greedy generating set of a group found by closures, the generator
conjugations of a class picked from the Weyl group's whole table
(conjugation_generators_oracle), left exactness over
every cospan of the given G-sets with every pullback built, and the
span checks of verify as they were before they were decided on orbit
generators: on the stage objects up to a size cap, with functoriality
sampled or tested on the first four objects.  OrbitQuotientFunctor is a
functor that is not left exact, for the negative controls.

The exhaustive subgroup search, which closes each subgroup found with
every element outside it, and the conjugacy pass that conjugates each
class representative by every element are the oracles of
subgroup_lattice.  The Mackey file reader as it was before its key table,
which parses every key token and checks the structure after the last
block, is the oracle of parse_mackey, and the writer as it was before
its kept format, which joins one row at a time, that of
serialize_mackey.  The rest is what only the tests use: the corpus groups
of bounded order, element orders and an isomorphism search, the coset
G-set of any subgroup (coset_gset), the endpoint keys of a basis picked
by apex class (endpoint_keys), composite quotient maps, the subgroup a
set generates, inverse maps, span morphisms (SpanMor) with
span_from_maps, identity spans and bilinear composition between any
G-sets, by the element walk (the package composes only between canonical
orbits), their sums and multiples, the transport of a span along maps of
its endpoints, and the semiadditivity check built on them; the one-point
G-set built afresh, one-term span morphisms, identity and composite
maps, fibre products and pullbacks of G-sets, and the test of a square
for being a pullback by counting.

The package enumerates no hom-set and builds no map or G-set only to
test it, so what did lives here as the reference the tests compare
against: equivariant maps (EqMap), the G-set functors of inflation and
fixed points (GSetFunctor) with fixed points as G-sets and their maps,
the legs of a basis key as maps (basis_legs), the key of any span orbit
(canonical_key), the isomorphism search onto canonical G-sets
(find_iso, canonical_iso) and the orbit classes of a G-set, every map
of a hom-set multiplied out of its factors (hom_gset), the unit and
counit maps of the adjunction, coproducts with
their inclusions, the empty G-set, canonical G-sets as a chain of
coproducts, and injectivity and invertibility of a map.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from profspan import formats as fm
from profspan import groups as g
from profspan import gsets as gs
from profspan import mackey as mk
from profspan import spans as sp
from profspan.corpus import corpus_groups
from profspan.errors import GroupMismatch, Verdict
from profspan.groups import FiniteGroup, QuotientMap, subgroup_lattice
from profspan.gsets import GSet


def _normalize(counts: dict) -> tuple:
    """A multiset of keys as its sorted (key, mult) pairs, zeros left out."""
    return tuple(sorted((k, m) for k, m in counts.items() if m))


@dataclass(frozen=True)
class EqMap:
    """An equivariant map src -> dst, by the image of each point."""

    src: GSet
    dst: GSet
    values: tuple[int, ...]


def orbit_class_multiset(X: GSet) -> tuple[int, ...]:
    """Sorted stabilizer-class indices of the orbits, with repetition."""
    lat = subgroup_lattice(X.group)
    return tuple(
        sorted(lat.class_of(X.point_stabilizers[orb[0]]) for orb in X.orbits)
    )


def coset_gset(G: FiniteGroup, subgroup_elements) -> GSet:
    """The transitive G-set on the left cosets of any subgroup, numbered as
    groups.left_cosets numbers them, so the coset of the subgroup is point
    0; for a class representative it is the canonical orbit."""
    coset_of, reps = g.left_cosets(G, tuple(subgroup_elements))
    return GSet(G, tuple(tuple(coset_of[row[r]] for row in G.mult) for r in reps))


def endpoint_keys(G: FiniteGroup, c1: int, c2: int) -> list[sp.Key]:
    """The keys of orbit_basis(G, c1, c2) with apex class c1 or c2, in
    basis order: the generators whose positions spans.endpoint_positions
    lists."""
    return [k for k in sp.orbit_basis(G, c1, c2) if k[0] in (c1, c2)]


def find_iso(X: GSet, Y: GSet) -> EqMap | None:
    """An explicit equivariant bijection X -> Y, or None: each orbit of X
    goes to the first unused orbit of Y with a point of the same
    stabilizer as its least point, the least such point."""
    if X.group != Y.group or X.size != Y.size:
        return None
    values = [-1] * X.size
    targets_used: set[int] = set()
    y_stabs = Y.point_stabilizers
    for orb in X.orbits:
        x = orb[0]
        S = X.point_stabilizers[x]
        match = None
        for yorb in Y.orbits:
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
    return find_iso(X, gs.canonical_gset(X.group, orbit_class_multiset(X)))


class FixedPointData(NamedTuple):
    """The N-fixed points of one G-set X, for N = ker q: X^N with the
    residual G/N action, and the index in X^N of each N-fixed point of X,
    in point order."""

    fixed: GSet
    index: dict[int, int]


@lru_cache(maxsize=None)
def fixed_point_data(X: GSet, q: QuotientMap) -> FixedPointData:
    """The fixed-point record of X, a G-set over q.source, computed once
    per (X, q)."""
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


def fixed_points_map(f: EqMap, q: QuotientMap) -> EqMap:
    """f restricted to N-fixed points, over G/N."""
    src, dst = fixed_point_data(f.src, q), fixed_point_data(f.dst, q)
    return EqMap(
        src.fixed, dst.fixed, tuple(dst.index[f.values[x]] for x in src.index)
    )


def inflate_map(f: EqMap, q: QuotientMap) -> EqMap:
    return EqMap(gs.inflate(f.src, q), gs.inflate(f.dst, q), f.values)


class GSetFunctor:
    """A functor between G-set universes, given on objects and maps by
    the obj(X) and map(f) of each subclass, from G-sets over src_group."""

    src_group: FiniteGroup


class InflationGSetFunctor(GSetFunctor):
    """Inflation along a quotient map, from G/N-sets to G-sets; `name` is
    its name in spans.span_images."""

    name = "inflation"

    def __init__(self, q: QuotientMap):
        self.q = q
        self.src_group = q.target

    def obj(self, X):
        return gs.inflate(X, self.q)

    def map(self, f):
        return inflate_map(f, self.q)


class FixedPointsGSetFunctor(GSetFunctor):
    """N-fixed points with residual action, from G-sets to G/N-sets;
    `name` is its name in spans.span_images."""

    name = "fixed points"

    def __init__(self, q: QuotientMap):
        self.q = q
        self.src_group = q.source

    def obj(self, X):
        return fixed_points(X, self.q)

    def map(self, f):
        return fixed_points_map(f, self.q)


def basis_legs(X: GSet, Y: GSet, key: sp.Key) -> tuple[EqMap, EqMap]:
    """The legs X <- G/R -> Y of the basis span key, on the canonical
    coset apex of its stabilizer class."""
    apex = gs.orbit_gset(X.group, key[0])
    return EqMap(apex, X, key[1]), EqMap(apex, Y, key[2])


def canonical_key(apex: GSet, base: int, legL, legR, X: GSet, Y: GSet) -> sp.Key:
    """Canonical key of the span X <- apex -> Y restricted to the orbit of
    base, for any apex; the legs are given as full value tables on apex,
    into X and Y, and must be equivariant.

    The apex is read only through its position table row[g] = g·base.
    The orbit is G/S by g·base ↦ gS, for S = {g : row[g] = base}, and the
    point t0·base, for the conjugator t0 of S onto the class
    representative R, has stabilizer R; pair_key reads the legs there and
    minimizes over every relabelling of the orbit as G/R, so the key
    depends only on the class of the span."""
    G = apex.group
    row = apex.action[base]
    stab = tuple(g_ for g_ in G.elements() if row[g_] == base)
    c, t0 = subgroup_lattice(G).where[stab]
    point = row[t0]
    return sp.pair_key(c, X, legL[point], Y, legR[point])


class GenericSpanImages(NamedTuple):
    """Span(F) between the canonical orbits of F's source group, for any
    G-set functor F: the orbit classes of each F(orbit), possibly several
    or none, and the canonical G-set they make."""

    orbits: tuple[GSet, ...]  # the orbit of each subgroup class c
    classes: tuple[tuple[int, ...], ...]  # the orbit classes of F(orbit c)
    targets: tuple[GSet, ...]  # F(orbit c) renamed onto canonical G-sets
    terms: dict  # (c1, c2, key) -> sorted (key, mult) between the targets


def span_images_generic(
    functor: type[GSetFunctor], q: QuotientMap
) -> GenericSpanImages:
    """spans.span_images for any G-set functor, as the package built it
    before it read one orbit image per class: F of every key's apex and
    legs, the legs renamed by canonical_iso of each F(orbit) onto the
    targets (one orbit: gs.orbit_gset), each orbit of F(apex) keyed by
    canonical_key as the basis object of its hom.  F need not be onto or
    left exact."""
    F = functor(q)
    G = F.src_group
    orbits = tuple(gs.orbit_gset(G, c) for c in range(subgroup_lattice(G).num_classes))
    sigma = [canonical_iso(F.obj(X)) for X in orbits]
    classes = tuple(orbit_class_multiset(F.obj(X)) for X in orbits)
    H = sigma[0].dst.group
    targets = tuple(
        gs.orbit_gset(H, m[0]) if len(m) == 1 else s.dst for m, s in zip(classes, sigma)
    )
    terms: dict = {}
    for c1, c2 in itertools.product(range(len(orbits)), repeat=2):
        m1, m2, T1, T2 = classes[c1], classes[c2], targets[c1], targets[c2]
        single = len(m1) == len(m2) == 1
        basis = sp.orbit_basis(H, m1[0], m2[0]) if single else sp.span_basis(T1, T2)
        own = dict(zip(basis, basis))
        s1, s2 = sigma[c1].values, sigma[c2].values
        for key in sp.orbit_basis(G, c1, c2):
            f, h = map(F.map, basis_legs(orbits[c1], orbits[c2], key))
            left, right = [s1[x] for x in f.values], [s2[y] for y in h.values]
            counts: dict = {}
            for o in f.src.orbits:
                k = own[canonical_key(f.src, o[0], left, right, T1, T2)]
                counts[k] = counts.get(k, 0) + 1
            terms[c1, c2, key] = _normalize(counts)
    return GenericSpanImages(orbits, classes, targets, terms)


def as_span_images(table: GenericSpanImages) -> sp.SpanImages:
    """A generic table in the package's form, for a functor that sends
    every orbit to one orbit or to none and every basis span to one basis
    span or to zero: each image held as its position in the basis of the
    image hom."""
    assert all(len(m) <= 1 for m in table.classes)
    images = tuple(m[0] if m else None for m in table.classes)
    G, H, n = table.orbits[0].group, table.targets[0].group, len(table.orbits)
    terms = [[()] * n for _ in range(n)]
    for c1, c2 in itertools.product(range(n), repeat=2):
        row = []
        for key in sp.orbit_basis(G, c1, c2):
            image = table.terms[c1, c2, key]
            if not image:
                row.append(None)
                continue
            (k, mult), = image
            assert mult == 1
            row.append(sp.orbit_basis(H, images[c1], images[c2]).index(k))
        terms[c1][c2] = tuple(row)
    return sp.SpanImages(G, H, images, tuple(map(tuple, terms)))


@lru_cache(maxsize=16)
def image_terms(table: sp.SpanImages) -> dict:
    """The images of a package table as GenericSpanImages holds them:
    (c1, c2, key) -> ((image key, 1),), or () for zero, in the order of
    orbit_keys; kept for the last tables, which law_holds_oracle reads
    once per pair."""
    G, H, n = table.source, table.target, len(table.images)
    terms = {}
    for c1, c2 in itertools.product(range(n), repeat=2):
        m1, m2 = table.images[c1], table.images[c2]
        image_basis = () if None in (m1, m2) else sp.orbit_basis(H, m1, m2)
        for key, j in zip(sp.orbit_basis(G, c1, c2), table.terms[c1][c2]):
            terms[c1, c2, key] = () if j is None else ((image_basis[j], 1),)
    return terms


def law_holds_oracle(table: sp.SpanImages, c1, c2, c3, k1, k2) -> bool:
    """Span(F)(k2 ∘ k1) = Span(F)(k2) ∘ Span(F)(k1) for keys k1: c1 -> c2
    and k2: c2 -> c3 between the orbits, as the span checks decided it
    before they read composites by position: both sides composed one
    pair at a time (compose_keys_per_element_oracle), on the orbits of the
    source group and on those of the image group, with the images looked
    up by key."""
    terms = image_terms(table)
    left: Counter = Counter()
    for k, m in compose_keys_per_element_oracle(table.source, k2, k1):
        for key, c in terms[c1, c3, k]:
            left[key] += m * c
    right: Counter = Counter()
    for i1, m1 in terms[c1, c2, k1]:
        for i2, m2 in terms[c2, c3, k2]:
            for key, c in compose_keys_per_element_oracle(table.target, i2, i1):
                right[key] += m1 * m2 * c
    return left == right


def is_injective(f: EqMap) -> bool:
    return len(set(f.values)) == f.src.size


def is_iso(f: EqMap) -> bool:
    return f.src.size == f.dst.size and is_injective(f)


def hom_gset(X: GSet, Y: GSet) -> list[EqMap]:
    """All equivariant maps X -> Y, in the product order of gs.hom_factors.

    A factor choice y writes the orbit's row g.x -> g.y, tabulated once
    per (orbit, y) over the first g reaching each orbit point."""
    factors = gs.hom_factors(X, Y)
    rows = []
    order: list[int] = []  # the orbit points in row order
    for base, _, points in factors:
        first: dict = {}
        for g_, z in enumerate(X.action[base]):
            first.setdefault(z, g_)
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
    """X ⊔ Y, the points of Y numbered after those of X, with the two
    inclusions."""
    if X.group != Y.group:
        raise GroupMismatch("coproduct requires a common group")
    n = X.size
    action = X.action + tuple(tuple(v + n for v in row) for row in Y.action)
    Z = GSet(X.group, action)
    inc1 = EqMap(X, Z, tuple(range(n)))
    inc2 = EqMap(Y, Z, tuple(range(n, n + Y.size)))
    return Z, inc1, inc2


def canonical_gset_oracle(G: FiniteGroup, class_multiset) -> GSet:
    """gs.canonical_gset as a chain of coproducts of canonical orbits,
    from the empty G-set."""
    X = empty_gset(G)
    for c in class_multiset:
        X = coproduct(X, gs.orbit_gset(G, c))[0]
    return X


def counit_map(X: GSet, q: QuotientMap) -> EqMap:
    """inf(X^N) -> X; the inclusion of the fixed points."""
    fixed, index = fixed_point_data(X, q)
    return EqMap(gs.inflate(fixed, q), X, tuple(index))


def unit_map(X: GSet, q: QuotientMap) -> EqMap:
    """X -> (inf X)^N for X over G/N."""
    fixed, index = fixed_point_data(gs.inflate(X, q), q)
    return EqMap(X, fixed, tuple(index[x] for x in X.points()))


def span_basis_oracle(X: GSet, Y: GSet) -> list[sp.Key]:
    """span_basis by enumeration: canonicalise every pair of equivariant
    maps G/K -> X, G/K -> Y, over one K per subgroup class."""
    G = X.group
    lat = subgroup_lattice(G)
    keys: set = set()
    for c in range(lat.num_classes):
        apex = coset_gset(G, lat.class_rep(c).elements)
        for f in hom_gset(apex, X):
            for g in hom_gset(apex, Y):
                keys.add(canonical_key(apex, 0, f.values, g.values, X, Y))
    return sorted(keys)


def double_coset_count(G: FiniteGroup, H, K) -> int:
    """The number of (H, K) double cosets in G."""
    seen: set = set()
    out = 0
    for g in G.elements():
        if g in seen:
            continue
        out += 1
        seen.update(G.mul(G.mul(h, g), k) for h in H for k in K)
    return out


def span_basis_count_oracle(G: FiniteGroup, H, K) -> int:
    """The rank of hom(G/H, G/K) in the span category, counted
    independently as orbits of H x K acting on pairs (g, L) with L a
    subgroup of H ∩ gKg⁻¹, by (h, k)·(g, L) = (hgk⁻¹, hLh⁻¹).

    Refines the double-coset count: when every intersection is trivial
    (in particular when H or K is trivial) it equals the number of
    (H, K) double cosets.
    """
    lat = subgroup_lattice(G)
    items: set = set()
    for a in G.elements():
        conj_k = {G.conj(a, k) for k in K}
        M = set(H) & conj_k
        for L in lat.subgroups:
            if set(L.elements) <= M:
                items.add((a, L.elements))
    seen: set = set()
    out = 0
    for item in items:
        if item in seen:
            continue
        out += 1
        frontier = [item]
        seen.add(item)
        while frontier:
            a, L = frontier.pop()
            for h in H:
                for k in K:
                    nxt = (
                        G.mul(G.mul(h, a), G.inv(k)),
                        tuple(sorted(G.conj(h, x) for x in L)),
                    )
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
    return out


def canonical_key_oracle(apex: GSet, base: int, legL, legR) -> sp.Key:
    """Oracle for canonical_key: the least leg-table pair over every point
    of the orbit whose stabilizer is the class representative, with the
    coset minima recomputed and the stabilizers read from the apex, not
    from the coset tables."""
    G = apex.group
    lat = subgroup_lattice(G)
    c = lat.class_of(apex.point_stabilizers[base])
    rep = lat.class_rep(c).elements
    rep_set = set(rep)
    mins = [min(G.mul(g, h) for h in rep) for g in G.elements()]
    # minimal element of each coset point, in point order
    reps_of_points = []
    seen = set()
    for g in G.elements():
        m = mins[g]
        if m not in seen:
            seen.add(m)
            reps_of_points.append(m)
    best = None
    orbit = sorted(set(apex.action[base]))  # the orbit of base
    for s in orbit:
        if apex.point_stabilizers[s] != rep_set:
            continue
        # psi: coset point p (coset m_p H) -> m_p . s
        imgs = [apex.action[s][m] for m in reps_of_points]
        cand = (tuple(legL[i] for i in imgs), tuple(legR[i] for i in imgs))
        if best is None or cand < best:
            best = cand
    assert best is not None
    return (c, best[0], best[1])


def compose_keys_oracle(G: FiniteGroup, k2: sp.Key, k1: sp.Key) -> tuple:
    """Oracle for spans.composites: build the pullback G-set of the two apexes
    and canonicalise each of its orbits with canonical_key_oracle."""
    lat = subgroup_lattice(G)
    apex1 = coset_gset(G, lat.class_rep(k1[0]).elements)
    apex2 = coset_gset(G, lat.class_rep(k2[0]).elements)
    P, pairs = fibre_product(apex1, k1[2], apex2, k2[1])
    legL = [k1[1][x] for x, _ in pairs]
    legR = [k2[2][y] for _, y in pairs]
    counts: dict = {}
    for orb in P.orbits:
        k = canonical_key_oracle(P, orb[0], legL, legR)
        counts[k] = counts.get(k, 0) + 1
    return _normalize(counts)


def least_key(G: FiniteGroup, c: int, t0: int, lg, rg) -> sp.Key:
    """Oracle for _pair_key: the key of one orbit of a span's apex, from
    leg tables of length |G| and a min over N(R)/R.

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
    cls = gs.tables(G).classes[c]
    g = min((mult[n][t0] for n in cls.normaliser), key=lambda x: (lg[x], rg[x]))
    imgs = [mult[m][g] for m in cls.mins]
    return (c, tuple(map(lg.__getitem__, imgs)), tuple(map(rg.__getitem__, imgs)))


def compose_keys_per_element_oracle(G: FiniteGroup, k2: sp.Key, k1: sp.Key) -> tuple:
    """Oracle for spans.composites: the K1-orbits on the fibre of G/K2
    found by walking every point of G/K2 and every element of K1, and each
    keyed by least_key from leg tables of length |G|.  It needs no end
    G-set: it keys the composite of spans between any G-sets, which
    compose_spans reads."""
    lat, classes = subgroup_lattice(G), gs.tables(G).classes
    mult = G.mult
    (c1, left1, right1), (c2, left2, right2) = k1, k2
    K1 = lat.class_rep(c1).elements
    coset2, mins2 = classes[c2].coset, classes[c2].mins
    # the legs at g·(K1, hK2) are left1 at gK1 and right2 at ghK2
    lg = [left1[p] for p in classes[c1].coset]
    r2 = [right2[p] for p in coset2]
    counts: dict = {}
    seen: set = set()
    for y, v in enumerate(left2):
        if v != right1[0] or y in seen:
            continue
        h = mins2[y]
        stab = []
        for a in K1:
            z = coset2[mult[a][h]]
            seen.add(z)
            if z == y:
                stab.append(a)
        c, t0 = lat.where[tuple(stab)]
        key = least_key(G, c, t0, lg, [r2[row[h]] for row in mult])
        counts[key] = counts.get(key, 0) + 1
    return _normalize(counts)


def compose_quotients(q_outer: QuotientMap, q_inner: QuotientMap) -> QuotientMap:
    """Composite projection: q_inner then q_outer."""
    if q_inner.target != q_outer.source:
        raise ValueError("quotient maps do not compose")
    projection = (q_outer.projection[c] for c in q_inner.projection)
    return g.quotient_map(q_inner.source, q_outer.target, projection)


def colim_gset_equivalence_oracle(tower: g.GroupTower, cap: int) -> tuple[bool, int]:
    """The colim-gset statement with every hom-set enumerated: the verdict
    and the number of colimit classes.

    The comparison is an equivalence when inflation along every link q
    keeps each hom-set of capped objects over q.target, map for map and
    without repeats.  Classes are the capped stage objects inflated link
    by link to the top stage, up to an explicit equivariant bijection; no
    composite projection is built, so a tower with a link that is not onto
    (which make_tower refuses) can be compared too.
    """
    reps: list[GSet] = []
    for i, G in enumerate(tower.stages):
        for m in gs.gset_isoclasses(G, cap):
            lifted = gs.canonical_gset(G, m)
            for q in tower.links[i:]:
                lifted = gs.inflate(lifted, q)
            if all(find_iso(lifted, R) is None for R in reps):
                reps.append(lifted)
    for q in tower.links:
        G = q.target
        objs = [gs.canonical_gset(G, m) for m in gs.gset_isoclasses(G, cap)]
        for X in objs:
            for Y in objs:
                below = [f.values for f in hom_gset(X, Y)]
                above = [
                    f.values for f in hom_gset(gs.inflate(X, q), gs.inflate(Y, q))
                ]
                if len(set(above)) != len(above) or set(above) != set(below):
                    return False, len(reps)
    return True, len(reps)


def span_of_functor_oracle(F: GSetFunctor):
    """Span(F) term by term, with nothing kept: F applied to the endpoints
    and to both legs of every basis term, and the image apexes keyed by
    sum_of_spans."""

    def apply(m: SpanMor) -> SpanMor:
        parts = []
        for key, mult in m.terms:
            f, g = basis_legs(m.left, m.right, key)
            parts.append((F.map(f), F.map(g), mult))
        return sum_of_spans(F.obj(m.left), F.obj(m.right), parts)

    return apply


def span_images_oracle(F: GSetFunctor) -> dict:
    """spans.span_images(type(F), F.q).terms as the span checks computed
    it before the one table: for each basis key between the canonical
    orbits of F's source group, span_from_maps of F on both legs, over the
    G-sets F(orbit), then renamed by σ, the canonical_iso of each F(orbit),
    with transport_span, which keys the renamed legs again."""
    G = F.src_group
    orbits = [gs.orbit_gset(G, c) for c in range(subgroup_lattice(G).num_classes)]
    sigma = [canonical_iso(F.obj(X)) for X in orbits]
    image = {}
    for c1, c2, key in sp.orbit_keys(G):
        legs = basis_legs(orbits[c1], orbits[c2], key)
        m = span_from_maps(*map(F.map, legs))
        image[c1, c2, key] = transport_span(m, sigma[c1], sigma[c2]).terms
    return image


def inflated_keys_oracle(q: QuotientMap) -> tuple[tuple[int, ...], tuple]:
    """The inflated keys as categorical_fixed_points read them before the
    one table: the preimage class of each class of Q = q.target, and each
    Q-key of orbit_keys(Q) with the G-key of its inflated span.  The
    G-key is one canonical_key of the inflated apex orbit, with the legs
    renamed by σ_c, the canonical_iso of the inflated orbit of class c,
    onto G's canonical orbits of the preimage classes."""
    G, Q = q.source, q.target
    nq = subgroup_lattice(Q).num_classes
    inflated = [gs.inflate(gs.orbit_gset(Q, c), q) for c in range(nq)]
    sigma = [canonical_iso(X) for X in inflated]
    pre = tuple(c for _, c in g.class_preimages(q))
    targets = [gs.orbit_gset(G, c) for c in pre]
    pairs = []
    for c1, c2, key in sp.orbit_keys(Q):
        a, legL, legR = key
        s1, s2 = sigma[c1].values, sigma[c2].values
        gkey = canonical_key(
            inflated[a],
            0,
            [s1[x] for x in legL],
            [s2[y] for y in legR],
            targets[c1],
            targets[c2],
        )
        pairs.append(((c1, c2, key), (pre[c1], pre[c2], gkey)))
    return pre, tuple(pairs)


@dataclass(frozen=True)
class AdjunctionReport:
    """Diagnostics for the inflation/fixed-points adjunction at (G, N)."""

    unit_is_iso: bool
    counit_is_injective: bool
    unit_square_is_pullback: bool
    counit_square_is_pullback: bool
    counit_witness: tuple | None


def adjunction_report(q: QuotientMap, X: GSet, f: EqMap) -> AdjunctionReport:
    """Check the unit/counit behaviour for X --f--> X' over G and N = ker q.

    The unit square is tested for the induced map on fixed points; the
    counit square is tested for f itself.  The unit square is always a
    pullback; the counit square can fail, in which case a witness square
    is recorded.
    """
    if X.group != q.source or f.src != X:
        raise GroupMismatch("report requires X over the quotient source")
    unit = unit_map(fixed_points(X, q), q)
    unit_p = unit_map(fixed_points(f.dst, q), q)
    counit, counit_p = counit_map(X, q), counit_map(f.dst, q)

    unit_is_iso = is_iso(unit)
    counit_injective = is_injective(counit) and is_injective(counit_p)

    # unit naturality square over G/N for f^N: X^N -> X'^N; every point of
    # an inflated G-set is N-fixed, so (inf f^N)^N has the values of f^N
    f_fixed = fixed_points_map(f, q)
    values = f_fixed.values
    unit_sq = square_is_pullback(
        unit, f_fixed, EqMap(unit.dst, unit_p.dst, values), unit_p
    )

    # counit naturality square over G
    counit_sq = square_is_pullback(
        counit, EqMap(counit.src, counit_p.src, values), f, counit_p
    )
    witness = None if counit_sq else (X.action, f.values)
    return AdjunctionReport(unit_is_iso, counit_injective, unit_sq, counit_sq, witness)


def mackey_composition_oracle(M: mk.MackeyFunctor) -> Verdict:
    """check_mackey with the composition law tested exhaustively: after
    the structure, torsion and identity checks, M(b2 ∘ b1) = M(b2)·M(b1)
    for every pair of basis spans b1: G/H1 -> G/H2, b2: G/H2 -> G/H3 over
    class representatives, in (c1, c2, c3, b1, b2) order."""
    verdict = mk.check_structure(M)
    if not verdict:
        return verdict
    G = M.group
    n = subgroup_lattice(G).num_classes
    for c1 in range(n):
        src = M.levels[c1]
        for c2 in range(n):
            tgt = M.levels[c2]
            for key in sp.orbit_basis(G, c1, c2):
                A = M.gen_action[(c1, c2, key)]
                for j, o in enumerate(src.orders()):
                    if o == 0:
                        continue
                    for i, to in enumerate(tgt.orders()):
                        v = o * A[i][j]
                        if (to == 0 and v != 0) or (to != 0 and v % to != 0):
                            return Verdict(
                                False, "matrix not well defined on torsion",
                                (c1, c2, key),
                            )
    for c in range(n):
        X = gs.orbit_gset(G, c)
        (ikey, m), = identity_span(X).terms
        A = M.gen_action[(c, c, ikey)]
        identity = mk._identity(M.levels[c].dims)
        if m != 1 or not mk._congruent(A, identity, M.levels[c].orders()):
            return Verdict(False, "identity span does not act as identity", c)
    for c1 in range(n):
        X = gs.orbit_gset(G, c1)
        for c2 in range(n):
            Y = gs.orbit_gset(G, c2)
            for c3 in range(n):
                Z = gs.orbit_gset(G, c3)
                tgt_orders = M.levels[c3].orders()
                rows, cols = M.levels[c3].dims, M.levels[c1].dims
                for k1 in sp.orbit_basis(G, c1, c2):
                    m1 = SpanMor(X, Y, ((k1, 1),))
                    A1 = M.gen_action[(c1, c2, k1)]
                    for k2 in sp.orbit_basis(G, c2, c3):
                        composite = compose_spans(SpanMor(Y, Z, ((k2, 1),)), m1)
                        expanded = [[0] * cols for _ in range(rows)]
                        for k, m in composite.terms:
                            term = M.gen_action[(c1, c3, k)]
                            for row, term_row in zip(expanded, term):
                                for j, a in enumerate(term_row):
                                    row[j] += m * a
                        A2 = M.gen_action[(c2, c3, k2)]
                        direct = [
                            [sum(a * A1[k][j] for k, a in enumerate(row))
                             for j in range(cols)]
                            for row in A2
                        ]
                        if not mk._congruent(direct, expanded, tgt_orders):
                            return Verdict(
                                False, "composition law fails", (c1, c2, c3, k1, k2)
                            )
    return Verdict(True)


def burnside_with_reduction(G: FiniteGroup, n: int) -> mk.MackeyFunctor:
    """The direct sum of the Burnside functor of G and its reduction mod n
    (mk.reduce_mod): each level Z^r ⊕ (Z/n)^r, free generators first,
    and each matrix block diagonal.  A functor whose torsion generators
    map into levels with free generators, by zero."""
    B = mk.burnside_mackey(G)
    levels = tuple(mk.AbPresentation(lv.rank, (n,) * lv.rank) for lv in B.levels)
    gen_action = {}
    for key, A in B.gen_action.items():
        zeros = (0,) * B.levels[key[0]].rank
        gen_action[key] = tuple(row + zeros for row in A) + tuple(zeros + row for row in A)
    return mk.MackeyFunctor(G, levels, gen_action)


def categorical_fixed_points_oracle(
    M: mk.MackeyFunctor, q: QuotientMap
) -> mk.MackeyFunctor:
    """categorical_fixed_points through G-sets: each basis span of G/N is
    inflated by Span(inflation), keyed on the inflated G-sets, and moved
    onto the canonical orbits along canonical_iso by transport_span, which
    keys it again."""
    G = M.group
    if q.source != G:
        raise GroupMismatch("quotient map is not from the functor's group")
    Q = q.target
    nq = subgroup_lattice(Q).num_classes
    sigma = [canonical_iso(gs.inflate(gs.orbit_gset(Q, c), q)) for c in range(nq)]
    pre = [orbit_class_multiset(s.dst)[0] for s in sigma]
    levels = tuple(M.levels[c] for c in pre)
    SpInf = span_of_functor_oracle(InflationGSetFunctor(q))
    gen_action: dict = {}
    for c1 in range(nq):
        X = gs.orbit_gset(Q, c1)
        for c2 in range(nq):
            Y = gs.orbit_gset(Q, c2)
            for key in sp.orbit_basis(Q, c1, c2):
                m = basis_span_mor(X, Y, key)
                image = transport_span(SpInf(m), sigma[c1], sigma[c2])
                (gkey, mult), = image.terms
                assert mult == 1
                gen_action[(c1, c2, key)] = M.gen_action[(pre[c1], pre[c2], gkey)]
    return mk.MackeyFunctor(Q, levels, gen_action)


def associativity_oracle(rows) -> tuple[int, int, int] | None:
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc) in
    the multiplication table rows, or None: every triple is tested."""
    n = len(rows)
    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            for c in range(n):
                if rows[ab][c] != rows[a][rows[b][c]]:
                    return (a, b, c)
    return None


def closure(G: FiniteGroup, gens) -> tuple[int, ...]:
    """Subgroup elements generated by `gens` (identity always included)."""
    seen = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for s in gens:
            for y in (G.mul(x, s), G.mul(s, x)):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return tuple(sorted(seen))


def generating_set_oracle(G: FiniteGroup) -> tuple[int, ...]:
    """generating_set by closures: each new generator is the least element
    outside the subgroup that the generators before it generate."""
    gens: tuple[int, ...] = ()
    have = closure(G, gens)
    while len(have) < G.order:
        x = next(x for x in G.elements() if x not in have)
        gens = gens + (x,)
        have = closure(G, gens)
    return gens


def conjugation_generators_oracle(G: FiniteGroup, c: int) -> tuple[int, ...]:
    """spans.conjugation_generators as it was picked from a table: W's
    |W|×|W| multiplication table over the normaliser of the class's
    coset table, the greedy groups.generating_set on it, and each
    generator's conjugation keyed by pair_key and found in the basis."""
    cls = gs.tables(G).classes[c]
    X = gs.orbit_gset(G, c)
    norm = cls.normaliser
    element = {cls.coset[n]: w for w, n in enumerate(norm)}  # point -> w
    table = [[element[cls.coset[G.mult[a][b]]] for b in norm] for a in norm]
    basis = sp.orbit_basis(G, c, c)
    return tuple(
        basis.index(sp.pair_key(c, X, 0, X, cls.coset[norm[s]]))
        for s in g.generating_set(table)
    )


def left_exact_oracle(F: GSetFunctor, objects) -> Verdict:
    """Whether F keeps the pullback of every cospan X -f-> Z <-g- Y of the
    given G-sets, each pullback built and F.map applied to every leg of
    its square; the witness of a failure is (X, Y, Z actions, f and g
    values)."""
    for X, Y, Z in itertools.product(objects, repeat=3):
        for f in hom_gset(X, Z):
            for g_ in hom_gset(Y, Z):
                P, p1, p2 = pullback(f, g_)
                if not square_is_pullback(F.map(p1), F.map(p2), F.map(f), F.map(g_)):
                    square = (X.action, Y.action, Z.action, f.values, g_.values)
                    return Verdict(False, "pullback not preserved", square)
    return Verdict(True)


def _capped_objects(G: FiniteGroup, cap: int) -> list[GSet]:
    return [gs.canonical_gset(G, m) for m in gs.gset_isoclasses(G, cap)]


def colim_span_oracle(tower: g.GroupTower, cap: int, seed: int = 0) -> Verdict:
    """verify colim-span on capped objects: left exactness on the objects
    of size at most min(cap, 2), every basis span of every pair of capped
    objects inflated to one basis span, injectively, and functoriality on
    40 seeded random triples per link."""
    rng = random.Random(seed)
    for i, q in enumerate(tower.links):

        def fail(reason, witness=None):
            return Verdict(False, f"{reason} at stage {i}", witness)

        objs = _capped_objects(q.target, cap)
        Inf = InflationGSetFunctor(q)
        exact = left_exact_oracle(Inf, _capped_objects(q.target, min(cap, 2)))
        if not exact:
            return fail("inflation not left exact", exact.witness)
        SpInf = span_of_functor_oracle(Inf)
        bases = {}
        for X in objs:
            for Y in objs:
                basis = bases[X, Y] = sp.span_basis(X, Y)
                target_keys = set(sp.span_basis(gs.inflate(X, q), gs.inflate(Y, q)))
                images = set()
                for b in basis:
                    m = SpInf(basis_span_mor(X, Y, b))
                    if len(m.terms) != 1 or m.terms[0][1] != 1:
                        return fail("inflation of a basis span is not basic")
                    images.add(m.terms[0][0])
                if len(images) != len(basis) or not images <= target_keys:
                    return fail("inflation not injective on basis")
        for _ in range(40):
            X, Y, Z = (rng.choice(objs) for _ in range(3))
            b1, b2 = bases[X, Y], bases[Y, Z]
            if not (b1 and b2):
                continue
            m1 = basis_span_mor(X, Y, rng.choice(b1))
            m2 = basis_span_mor(Y, Z, rng.choice(b2))
            if SpInf(compose_spans(m2, m1)) != compose_spans(
                SpInf(m2), SpInf(m1)
            ):
                return fail("Span(inflation) not functorial")
    return Verdict(True)


def limit_span_oracle(tower: g.GroupTower, cap: int) -> Verdict:
    """verify limit-span on capped objects: left exactness on the objects
    of size at most min(cap, 2), every basis span of every pair of capped
    objects sent to a basis span or to zero by the N ⊆ H rule, identity
    spans kept, and functoriality on the triples of the first four
    objects."""
    for i, q in enumerate(tower.links):

        def fail(reason, witness=None):
            return Verdict(False, f"fixed points {reason} at stage {i}", witness)

        G = q.source
        lat = subgroup_lattice(G)
        N = set(q.kernel.elements)
        Fix = FixedPointsGSetFunctor(q)
        exact = left_exact_oracle(Fix, _capped_objects(G, min(cap, 2)))
        if not exact:
            return fail("not left exact", exact.witness)
        SpFix = span_of_functor_oracle(Fix)
        objs = _capped_objects(G, cap)
        images = {}
        for X in objs:
            for Y in objs:
                images[X, Y] = []
                for b in sp.span_basis(X, Y):
                    m = basis_span_mor(X, Y, b)
                    image = SpFix(m)
                    images[X, Y].append((m, image))
                    if N <= set(lat.class_rep(b[0]).elements):
                        if len(image.terms) != 1 or image.terms[0][1] != 1:
                            return fail("of a basis span is not basic")
                    elif image.terms:
                        return fail("of a kernel-moved apex is not zero")
            if SpFix(identity_span(X)) != identity_span(fixed_points(X, q)):
                return fail("does not preserve an identity span")
        for X, Y, Z in itertools.product(objs[:4], repeat=3):
            for m1, f1 in images[X, Y]:
                for m2, f2 in images[Y, Z]:
                    if SpFix(compose_spans(m2, m1)) != compose_spans(f2, f1):
                        return Verdict(
                            False, f"Span(fixed points) not functorial at stage {i}"
                        )
    return Verdict(True)


class OrbitQuotientFunctor(GSetFunctor):
    """Collapse each N-orbit to a point, from G-sets to G/N-sets; a left
    adjoint, not left exact."""

    def __init__(self, q):
        self.q = q
        self.src_group = q.source

    def _orbit_index(self, X):
        N = self.q.kernel.elements
        rep = {}
        for x in X.points():
            orb = min(X.action[x][n] for n in N)
            rep[x] = orb
        order = sorted(set(rep.values()))
        idx = {r: i for i, r in enumerate(order)}
        return {x: idx[r] for x, r in rep.items()}

    def obj(self, X):
        idx = self._orbit_index(X)
        pts = sorted(set(idx.values()))
        inv = {}
        for x, i in idx.items():
            inv.setdefault(i, x)
        Q = self.q.target
        action = tuple(
            tuple(idx[X.action[inv[i]][self.q.section(c)]] for c in Q.elements())
            for i in pts
        )
        return GSet(Q, action)

    def map(self, f):
        src_idx = self._orbit_index(f.src)
        dst_idx = self._orbit_index(f.dst)
        values = [0] * (max(src_idx.values()) + 1 if src_idx else 0)
        for x, i in src_idx.items():
            values[i] = dst_idx[f.values[x]]
        return EqMap(self.obj(f.src), self.obj(f.dst), tuple(values))


def point_gset(G: FiniteGroup) -> GSet:
    """The one-point G-set, built afresh; the package reads the canonical
    orbit of the class of G instead, which gs.orbit_gset keeps."""
    return GSet(G, (tuple(0 for _ in G.elements()),))


def groups_of_order_at_most(n: int):
    return tuple((name, G) for name, G in corpus_groups() if G.order <= n)


def element_order(G: FiniteGroup, a: int) -> int:
    n, x = 1, a
    while x != 0:
        x = G.mult[x][a]
        n += 1
    return n


def find_isomorphism(G: FiniteGroup, H: FiniteGroup):
    """An isomorphism G -> H as an index tuple, or None.

    Backtracking on generator images, pruned by element orders.
    """
    if G.order != H.order:
        return None
    orders_G = [element_order(G, a) for a in G.elements()]
    orders_H = [element_order(H, a) for a in H.elements()]
    if sorted(orders_G) != sorted(orders_H):
        return None
    gens = g.generating_set(G.mult)

    def extend(images):
        # grow the partial map from the generator images; None on conflict
        mapping = {0: 0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for s, h in zip(gens, images):
                y = G.mul(x, s)
                fy = H.mul(mapping[x], h)
                if y in mapping:
                    if mapping[y] != fy:
                        return None
                else:
                    mapping[y] = fy
                    frontier.append(y)
        if len(mapping) != G.order or len(set(mapping.values())) != G.order:
            return None
        for a in G.elements():
            for b in G.elements():
                if mapping[G.mul(a, b)] != H.mul(mapping[a], mapping[b]):
                    return None
        return tuple(mapping[a] for a in G.elements())

    def search(i, images):
        if i == len(gens):
            return extend(images)
        for h in H.elements():
            if orders_H[h] != orders_G[gens[i]]:
                continue
            result = search(i + 1, images + (h,))
            if result is not None:
                return result
        return None

    return search(0, ())


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    return find_isomorphism(G, H) is not None


def subgroups_oracle(G: FiniteGroup) -> set[tuple[int, ...]]:
    """The sorted elements of every subgroup of G, found by closing each
    subgroup found with every element outside it, from the trivial one."""
    found = {closure(G, ())}
    queue = list(found)
    while queue:
        H = queue.pop()
        inside = set(H)
        for x in G.elements():
            if x in inside:
                continue
            K = closure(G, H + (x,))
            if K not in found:
                found.add(K)
                queue.append(K)
    return found


def conjugacy_classes_oracle(G: FiniteGroup):
    """The classes, normal flags and conjugators of subgroup_lattice(G),
    found by conjugating each class representative by every element: the
    conjugator of a subgroup H is the inverse of the first g with
    g·R·g⁻¹ = H, for R its class representative."""
    subs = subgroup_lattice(G).subgroups
    index = {H.elements: i for i, H in enumerate(subs)}
    conjugators: dict[int, int] = {}
    classes = []
    normal = [False] * len(subs)
    for i, R in enumerate(subs):
        if i in conjugators:
            continue
        first: dict[int, int] = {}
        for x in G.elements():
            first.setdefault(index[R.conjugate(x).elements], x)
        conjugators.update((j, G.inv(x)) for j, x in first.items())
        normal[i] = len(first) == 1
        classes.append(tuple(sorted(first)))
    classes.sort(key=lambda c: (subs[c[0]].order, subs[c[0]].elements))
    conj = tuple(conjugators[i] for i in range(len(subs)))
    return tuple(classes), tuple(normal), conj


def inverse_map(f: EqMap) -> EqMap:
    if not is_iso(f):
        raise ValueError("map is not invertible")
    inv = [0] * f.dst.size
    for x, y in enumerate(f.values):
        inv[y] = x
    return EqMap(f.dst, f.src, tuple(inv))


class ObjectMismatch(ValueError):
    """Span morphisms whose endpoints do not match."""


@dataclass(frozen=True)
class SpanMor:
    """A span morphism X -> Y: an exact multiset of basis keys."""

    left: GSet
    right: GSet
    terms: tuple[tuple[sp.Key, int], ...]  # sorted, multiplicities >= 1


def span_from_maps(f: EqMap, g: EqMap) -> SpanMor:
    """The span class of X <-f- S -g-> Y for an arbitrary finite apex S,
    keyed orbit by orbit of S."""
    if f.src != g.src:
        raise ObjectMismatch("legs must share an apex")
    counts: dict = {}
    for orb in f.src.orbits:
        k = canonical_key(f.src, orb[0], f.values, g.values, f.dst, g.dst)
        counts[k] = counts.get(k, 0) + 1
    return SpanMor(f.dst, g.dst, _normalize(counts))


def identity_span(X: GSet) -> SpanMor:
    return span_from_maps(identity_map(X), identity_map(X))


def compose_spans(m2: SpanMor, m1: SpanMor) -> SpanMor:
    """m2 after m1, composing basis terms by the double-coset formula
    (compose_keys_per_element_oracle, for spans between any G-sets) and
    extending bilinearly."""
    if m1.right != m2.left:
        raise ObjectMismatch("span morphisms do not compose")
    X, Z = m1.left, m2.right
    counts: dict = {}
    for k1, c1 in m1.terms:
        for k2, c2 in m2.terms:
            for k, c in compose_keys_per_element_oracle(X.group, k2, k1):
                counts[k] = counts.get(k, 0) + c1 * c2 * c
    return SpanMor(X, Z, _normalize(counts))


def zero_span(left: GSet, right: GSet) -> SpanMor:
    return SpanMor(left, right, ())


def add_spans(a: SpanMor, b: SpanMor) -> SpanMor:
    if a.left != b.left or a.right != b.right:
        raise ObjectMismatch("span morphisms must share endpoints")
    counts = dict(a.terms)
    for k, m in b.terms:
        counts[k] = counts.get(k, 0) + m
    return SpanMor(a.left, a.right, _normalize(counts))


def scale_span(m: SpanMor, n: int) -> SpanMor:
    if n == 0:
        return zero_span(m.left, m.right)
    return SpanMor(m.left, m.right, tuple((k, n * c) for k, c in m.terms))


def sum_of_spans(left: GSet, right: GSet, parts) -> SpanMor:
    """The sum of mult · [left <-f- S -g-> right] over (f, g, mult) in
    parts, each span keyed by span_from_maps."""
    total = zero_span(left, right)
    for f, g_, mult in parts:
        total = add_spans(total, scale_span(span_from_maps(f, g_), mult))
    return total


def transport_span(m: SpanMor, isoL: EqMap, isoR: EqMap) -> SpanMor:
    """Push the endpoints along maps left -> left', right -> right' (in
    practice isomorphisms or coproduct inclusions), keying the moved legs
    again."""
    if isoL.src != m.left or isoR.src != m.right:
        raise ObjectMismatch("transport isomorphisms do not match endpoints")
    parts = []
    for key, mult in m.terms:
        f, g_ = basis_legs(m.left, m.right, key)
        parts.append((then_map(f, isoL), then_map(g_, isoR), mult))
    return sum_of_spans(isoL.dst, isoR.dst, parts)


def _whole_basis(X: GSet, Y: GSet) -> SpanMor:
    """The sum of every basis span of hom(X, Y), each once."""
    return SpanMor(X, Y, tuple((k, 1) for k in sp.span_basis(X, Y)))


def semiadditivity_check(X: GSet, Xp: GSet, Y: GSet) -> Verdict:
    """Basis-level bijection hom(X ⊔ X', Y) ≅ hom(X, Y) × hom(X', Y), and
    the dual hom(X, Y ⊔ Y') ≅ hom(X, Y) × hom(X, Y') with Y' = X': the
    whole basis of the coproduct's hom is the sum of the two whole bases
    pushed along the coproduct inclusions."""
    if X.group != Xp.group or X.group != Y.group:
        raise GroupMismatch("semiadditivity requires a common group")
    XX, i1, i2 = coproduct(X, Xp)
    YY, j1, j2 = coproduct(Y, Xp)
    idX, idY = identity_map(X), identity_map(Y)
    for reason, A, B, parts in (
        ("coproduct variable", XX, Y, [(X, Y, i1, idY), (Xp, Y, i2, idY)]),
        ("second variable", X, YY, [(X, Y, idX, j1), (X, Xp, idX, j2)]),
    ):
        whole = _whole_basis(A, B)
        moved = zero_span(A, B)
        for L, R, f, g_ in parts:
            moved = add_spans(moved, transport_span(_whole_basis(L, R), f, g_))
        if whole != moved:
            return Verdict(False, reason, set(whole.terms) ^ set(moved.terms))
    return Verdict(True)


def basis_span_mor(X: GSet, Y: GSet, key: sp.Key) -> SpanMor:
    """The basis span of key as a one-term span morphism X -> Y."""
    return SpanMor(X, Y, ((key, 1),))


def identity_map(X: GSet) -> EqMap:
    return EqMap(X, X, tuple(X.points()))


def then_map(f: EqMap, g: EqMap) -> EqMap:
    """g after f."""
    if f.dst != g.src:
        raise ValueError("maps do not compose")
    return EqMap(f.src, g.dst, tuple(g.values[v] for v in f.values))


def fibre_product(A: GSet, a, B: GSet, b) -> tuple[GSet, list[tuple[int, int]]]:
    """The G-set of pairs (x, y) with a[x] == b[y], and the pairs in point
    order; a and b are the leg values on A and B."""
    over: dict = {}
    for y in B.points():
        over.setdefault(b[y], []).append(y)
    pairs = [(x, y) for x in A.points() for y in over.get(a[x], ())]
    index = {p: i for i, p in enumerate(pairs)}
    action = tuple(
        tuple(map(index.__getitem__, zip(A.action[x], B.action[y])))
        for (x, y) in pairs
    )
    return GSet(A.group, action), pairs


def pullback(f: EqMap, g: EqMap) -> tuple[GSet, EqMap, EqMap]:
    """The fibre product of f and g over their common target."""
    if f.dst != g.dst:
        raise ValueError("pullback legs must share a target")
    if f.src.group != g.src.group:
        raise GroupMismatch("pullback requires a common group")
    P, pairs = fibre_product(f.src, f.values, g.src, g.values)
    proj1 = EqMap(P, f.src, tuple(x for x, _ in pairs))
    proj2 = EqMap(P, g.src, tuple(y for _, y in pairs))
    return P, proj1, proj2


def square_is_pullback(top: EqMap, left: EqMap, right: EqMap, bottom: EqMap) -> bool:
    """Whether a commuting square is a pullback.

    Corners: top: A -> B, left: A -> C, right: B -> D, bottom: C -> D.
    The square is a pullback iff a -> (top a, left a) is a bijection onto
    the fibre product of right and bottom, that is, iff it is injective
    and |A| is the size sum over d of |right^-1(d)| * |bottom^-1(d)|.
    """
    for a in top.src.points():
        if right.values[top.values[a]] != bottom.values[left.values[a]]:
            raise ValueError("square does not commute")
    over = Counter(right.values)
    size = sum(over[d] for d in bottom.values)
    return len(set(zip(top.values, left.values))) == top.src.size == size


def parse_mackey_oracle(
    text: str, group: FiniteGroup, source: str = "<mackey>"
) -> mk.MackeyFunctor:
    """parse_mackey as it read before its key table: every `gen` block read
    by the row reader, its key parsed from its token, and the whole
    functor checked by check_structure after the last block."""
    rows = fm._Rows(text, source)
    if len(rows.next("mackey")) != 2:
        raise rows.error("mackey header needs a group file")
    levels: dict[int, mk.AbPresentation] = {}
    while rows.more("level"):
        parts = rows.next()
        if len(parts) < 5 or parts[2] != "rank" or parts[4] != "torsion":
            raise rows.error("malformed level line")
        try:
            c, rank = int(parts[1]), int(parts[3])
            torsion = tuple(int(v) for v in parts[5:])
        except ValueError:
            raise rows.error("malformed level line")
        if c in levels:
            raise rows.error(f"repeated level {c}")
        try:
            levels[c] = mk.AbPresentation(rank, torsion)
        except ValueError as exc:
            raise rows.error(f"invalid presentation: {exc}")
    if sorted(levels) != list(range(len(levels))):
        raise rows.error("level indices must cover 0..n-1")
    gen_action: dict = {}
    while rows.more():
        parts = rows.next("gen")
        if len(parts) != 6 or parts[2] != "rows" or parts[4] != "cols":
            raise rows.error("malformed gen line")
        c1, c2, key = fm._parse_key_token(rows, parts[1])
        if (c1, c2, key) in gen_action:
            raise rows.error(f"repeated gen key {parts[1]}")
        try:
            height, width = int(parts[3]), int(parts[5])
        except ValueError:
            raise rows.error("malformed gen line")
        if height < 0 or width < 0:
            raise rows.error("gen rows and cols must be non-negative")
        gen_action[c1, c2, key] = rows.table(height, width)
    M = mk.MackeyFunctor(group, tuple(levels[c] for c in sorted(levels)), gen_action)
    verdict = mk.check_structure(M)
    if not verdict:
        raise rows.error(f"{verdict.reason}, witness={verdict.witness!r}")
    return M


def serialize_mackey_oracle(M: mk.MackeyFunctor, group_file: str) -> str:
    """serialize_mackey as it wrote before its kept format: each `gen`
    block in _key_table order, its header with the column count of the
    first row, then its rows joined one at a time."""
    out = [f"mackey {group_file}"]
    for c, lv in enumerate(M.levels):
        torsion = " ".join(str(d) for d in lv.invariant_factors)
        out.append(f"level {c} rank {lv.rank} torsion {torsion}".rstrip())
    for token, k in fm._key_table(M.group).items():
        mat = M.gen_action[k]
        cols = len(mat[0]) if mat else 0
        out.append(f"gen {token} rows {len(mat)} cols {cols}")
        if cols:
            out += [" ".join(map(str, row)) for row in mat]
    return "\n".join(out) + "\n"
