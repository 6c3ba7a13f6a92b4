"""Independent oracles, used only by the tests.

Each recomputes by enumeration what the package computes from per-group
tables or hom factors: the hom-enumerating span basis, the pullback
composite of two basis keys, the least-key canonicalisation of a span
orbit, the rank of a basis hom by orbit counting, the colim-gset
equivalence with every hom-set enumerated, Span(F) applied term by term
with nothing kept between calls, and the adjunction's unit and counit
squares built and decided for one map at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from profspan import groups as g
from profspan import gsets as gs
from profspan import spans as sp
from profspan.errors import GroupMismatch
from profspan.groups import FiniteGroup, QuotientMap, subgroup_lattice
from profspan.gsets import EqMap, GSet


def span_basis_oracle(X: GSet, Y: GSet) -> list[sp.Key]:
    """span_basis by enumeration: canonicalise every pair of equivariant
    maps G/K -> X, G/K -> Y, over one K per subgroup class."""
    G = X.group
    lat = subgroup_lattice(G)
    keys: set = set()
    for c in range(lat.num_classes):
        apex = gs.coset_gset(G, lat.class_rep(c).elements)
        for f in gs.hom_gset(apex, X):
            for g in gs.hom_gset(apex, Y):
                keys.add(sp.canonical_key(apex, 0, f.values, g.values))
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
    coset minima and stabilizers recomputed from the apex."""
    G = apex.group
    lat = subgroup_lattice(G)
    c = lat.class_of(apex.stabilizer(base).elements)
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
    orbit = apex.orbit(base)
    for s in orbit:
        if set(apex.stabilizer(s).elements) != rep_set:
            continue
        # psi: coset point p (coset m_p H) -> m_p . s
        imgs = [apex.action[s][m] for m in reps_of_points]
        cand = (tuple(legL[i] for i in imgs), tuple(legR[i] for i in imgs))
        if best is None or cand < best:
            best = cand
    assert best is not None
    return (c, best[0], best[1])


def compose_keys_oracle(G: FiniteGroup, k2: sp.Key, k1: sp.Key) -> tuple:
    """Oracle for _compose_keys: build the pullback G-set of the two apexes
    and canonicalise each of its orbits with canonical_key_oracle."""
    lat = subgroup_lattice(G)
    apex1 = gs.coset_gset(G, lat.class_rep(k1[0]).elements)
    apex2 = gs.coset_gset(G, lat.class_rep(k2[0]).elements)
    P, pairs = gs.fibre_product(apex1, k1[2], apex2, k2[1])
    legL = [k1[1][x] for x, _ in pairs]
    legR = [k2[2][y] for _, y in pairs]
    counts: dict = {}
    for orb in P.orbits():
        k = canonical_key_oracle(P, orb[0], legL, legR)
        counts[k] = counts.get(k, 0) + 1
    return sp._normalize(counts)


def colim_gset_equivalence_oracle(p: int, depth: int, cap: int) -> tuple[bool, int]:
    """The colim-gset statement with every hom-set enumerated: the verdict
    and the number of colimit classes.

    The comparison is an equivalence when inflation along every link q
    keeps each hom-set of capped objects over q.target, map for map and
    without repeats.  Classes are the top-stage lifts of the capped stage
    objects up to an explicit equivariant bijection.
    """
    tower = g.cyclic_tower(p, depth)
    top = tower.depth - 1
    reps: list[GSet] = []
    for i, G in enumerate(tower.stages):
        for m in gs.gset_isoclasses(G, cap):
            lifted = gs.inflate(gs.canonical_gset(G, m), tower.projection(top, i))
            if all(gs.find_iso(lifted, R) is None for R in reps):
                reps.append(lifted)
    for q in tower.links:
        G = q.target
        objs = [gs.canonical_gset(G, m) for m in gs.gset_isoclasses(G, cap)]
        for X in objs:
            for Y in objs:
                below = [f.values for f in gs.hom_gset(X, Y)]
                above = [
                    f.values for f in gs.hom_gset(gs.inflate(X, q), gs.inflate(Y, q))
                ]
                if len(set(above)) != len(above) or set(above) != set(below):
                    return False, len(reps)
    return True, len(reps)


def span_of_functor_oracle(F: sp.GSetFunctor):
    """Span(F) with nothing kept: F applied to the endpoints and to both
    legs of every basis term, and the image apexes keyed by one
    _sum_spans call."""

    def apply(m: sp.SpanMor) -> sp.SpanMor:
        parts = []
        for key, mult in m.terms:
            f, g = sp.basis_legs(m.left, m.right, key)
            parts.append((F.map(f), F.map(g), mult))
        return sp._sum_spans(F.obj(m.left), F.obj(m.right), parts)

    return apply


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
    src, dst = gs.fixed_point_data(X, q), gs.fixed_point_data(f.dst, q)

    unit_is_iso = src.unit.is_iso()
    counit_injective = src.counit.is_injective() and dst.counit.is_injective()

    # unit naturality square over G/N for f^N: X^N -> X'^N; every point of
    # an inflated G-set is N-fixed, so (inf f^N)^N has the values of f^N
    f_fixed = gs.fixed_points_map(f, q)
    values = f_fixed.values
    unit_sq = gs.square_is_pullback(
        src.unit, f_fixed, EqMap(src.unit.dst, dst.unit.dst, values), dst.unit
    )

    # counit naturality square over G
    counit_sq = gs.square_is_pullback(
        src.counit, EqMap(src.counit.src, dst.counit.src, values), f, dst.counit
    )
    witness = None if counit_sq else (X.action, f.values)
    return AdjunctionReport(unit_is_iso, counit_injective, unit_sq, counit_sq, witness)
