"""Independent oracles, used only by the tests.

Each recomputes by enumeration what the package computes from per-group
tables or hom factors: the hom-enumerating span basis, the pullback
composite of two basis keys, the least-key canonicalisation of a span
orbit, the rank of a basis hom by orbit counting, the colim-gset
equivalence with every hom-set enumerated, Span(F) applied term by term
with nothing kept between calls, and the adjunction's unit and counit
squares built and decided for one map at a time, the Mackey
composition law tested on every pair of basis spans between orbits,
categorical fixed points through inflated G-sets, associativity of a
multiplication table tested on every triple, the greedy generating set
of a group found by closures, left
exactness over every cospan of the given G-sets, and the span checks of
verify as they were before they were decided on orbit generators: on
the stage objects up to a size cap, with functoriality sampled or tested
on the first four objects.  OrbitQuotientFunctor is a functor that is not
left exact, for the negative controls.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from profspan import groups as g
from profspan import gsets as gs
from profspan import mackey as mk
from profspan import spans as sp
from profspan.errors import GroupMismatch, Verdict
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
    orbit = apex.orbit(base)
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
    unit = gs.unit_map(gs.fixed_points(X, q), q)
    unit_p = gs.unit_map(gs.fixed_points(f.dst, q), q)
    counit, counit_p = gs.counit_map(X, q), gs.counit_map(f.dst, q)

    unit_is_iso = unit.is_iso()
    counit_injective = counit.is_injective() and counit_p.is_injective()

    # unit naturality square over G/N for f^N: X^N -> X'^N; every point of
    # an inflated G-set is N-fixed, so (inf f^N)^N has the values of f^N
    f_fixed = gs.fixed_points_map(f, q)
    values = f_fixed.values
    unit_sq = gs.square_is_pullback(
        unit, f_fixed, EqMap(unit.dst, unit_p.dst, values), unit_p
    )

    # counit naturality square over G
    counit_sq = gs.square_is_pullback(
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
        (ikey, m), = sp.identity_span(X).terms
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
                    m1 = sp.SpanMor(X, Y, ((k1, 1),))
                    A1 = M.gen_action[(c1, c2, k1)]
                    for k2 in sp.orbit_basis(G, c2, c3):
                        composite = sp.compose_spans(sp.SpanMor(Y, Z, ((k2, 1),)), m1)
                        expanded = [[0] * cols for _ in range(rows)]
                        for k, m in composite.terms:
                            term = M.gen_action[(c1, c3, k)]
                            for row, term_row in zip(expanded, term):
                                for j, a in enumerate(term_row):
                                    row[j] += m * a
                        direct = mk._matmul(M.gen_action[(c2, c3, k2)], A1, cols)
                        if not mk._congruent(direct, expanded, tgt_orders):
                            return Verdict(
                                False, "composition law fails", (c1, c2, c3, k1, k2)
                            )
    return Verdict(True)


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
    sigma = [gs.canonical_iso(gs.inflate(gs.orbit_gset(Q, c), q)) for c in range(nq)]
    pre = [gs.orbit_class_multiset(s.dst)[0] for s in sigma]
    levels = tuple(M.levels[c] for c in pre)
    SpInf = sp.span_of_functor(sp.InflationGSetFunctor(q))
    gen_action: dict = {}
    for c1 in range(nq):
        X = gs.orbit_gset(Q, c1)
        for c2 in range(nq):
            Y = gs.orbit_gset(Q, c2)
            for key in sp.orbit_basis(Q, c1, c2):
                m = sp.basis_span_mor(X, Y, key)
                image = sp.transport_span(SpInf(m), sigma[c1], sigma[c2])
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


def generating_set_oracle(G: FiniteGroup) -> tuple[int, ...]:
    """generating_set by closures: each new generator is the least element
    outside the subgroup that the generators before it generate."""
    gens: tuple[int, ...] = ()
    have = g.closure(G, gens)
    while len(have) < G.order:
        x = next(x for x in G.elements() if x not in have)
        gens = gens + (x,)
        have = g.closure(G, gens)
    return gens


def left_exact_oracle(F: sp.GSetFunctor, objects) -> Verdict:
    """check_left_exact without the reduction by automorphisms: every
    cospan X -f-> Z <-g- Y of the given G-sets, with F.map applied to every
    leg of every square."""
    for X, Y, Z in itertools.product(objects, repeat=3):
        for f in gs.hom_gset(X, Z):
            for g_ in gs.hom_gset(Y, Z):
                P, p1, p2 = gs.pullback(f, g_)
                if not gs.square_is_pullback(F.map(p1), F.map(p2), F.map(f), F.map(g_)):
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
        Inf = sp.InflationGSetFunctor(q)
        exact = left_exact_oracle(Inf, _capped_objects(q.target, min(cap, 2)))
        if not exact:
            return fail("inflation not left exact", exact.witness)
        SpInf = sp.span_of_functor(Inf)
        bases = {}
        for X in objs:
            for Y in objs:
                basis = bases[X, Y] = sp.span_basis(X, Y)
                target_keys = set(sp.span_basis(gs.inflate(X, q), gs.inflate(Y, q)))
                images = set()
                for b in basis:
                    m = SpInf(sp.basis_span_mor(X, Y, b))
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
            m1 = sp.basis_span_mor(X, Y, rng.choice(b1))
            m2 = sp.basis_span_mor(Y, Z, rng.choice(b2))
            if SpInf(sp.compose_spans(m2, m1)) != sp.compose_spans(
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
        Fix = sp.FixedPointsGSetFunctor(q)
        exact = left_exact_oracle(Fix, _capped_objects(G, min(cap, 2)))
        if not exact:
            return fail("not left exact", exact.witness)
        SpFix = sp.span_of_functor(Fix)
        objs = _capped_objects(G, cap)
        images = {}
        for X in objs:
            for Y in objs:
                images[X, Y] = []
                for b in sp.span_basis(X, Y):
                    m = sp.basis_span_mor(X, Y, b)
                    image = SpFix(m)
                    images[X, Y].append((m, image))
                    if N <= set(lat.class_rep(b[0]).elements):
                        if len(image.terms) != 1 or image.terms[0][1] != 1:
                            return fail("of a basis span is not basic")
                    elif not image.is_zero():
                        return fail("of a kernel-moved apex is not zero")
            if SpFix(sp.identity_span(X)) != sp.identity_span(gs.fixed_points(X, q)):
                return fail("does not preserve an identity span")
        for X, Y, Z in itertools.product(objs[:4], repeat=3):
            for m1, f1 in images[X, Y]:
                for m2, f2 in images[Y, Z]:
                    if SpFix(sp.compose_spans(m2, m1)) != sp.compose_spans(f2, f1):
                        return Verdict(
                            False, f"Span(fixed points) not functorial at stage {i}"
                        )
    return Verdict(True)


class OrbitQuotientFunctor(sp.GSetFunctor):
    """Collapse each N-orbit to a point, from G-sets to G/N-sets; a left
    adjoint, not left exact."""

    def __init__(self, q):
        self.q = q
        self.src_group = q.source
        self.dst_group = q.target

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
        return gs.GSet(Q, action)

    def map(self, f):
        src_idx = self._orbit_index(f.src)
        dst_idx = self._orbit_index(f.dst)
        values = [0] * (max(src_idx.values()) + 1 if src_idx else 0)
        for x, i in src_idx.items():
            values[i] = dst_idx[f.values[x]]
        return gs.EqMap(self.obj(f.src), self.obj(f.dst), tuple(values))
