import itertools
import random

import pytest

from profspan import groups as g
from profspan import gsets as gs
from profspan import spans as sp
from profspan.corpus import corpus_group, corpus_groups, groups_of_order_at_most
from profspan.errors import ObjectMismatch

from oracles import (
    canonical_key_oracle,
    compose_keys_oracle,
    double_coset_count,
    span_basis_count_oracle,
    span_basis_oracle,
    span_of_functor_oracle,
)


C2 = g.cyclic(2)
C4 = g.cyclic(4)
S3 = g.symmetric3()


def test_span_basis_point_endomorphisms_c2():
    pt = gs.point_gset(C2)
    basis = sp.span_basis(pt, pt)
    assert len(basis) == 2
    assert sorted(sp.basis_legs(pt, pt, b)[0].src.size for b in basis) == [1, 2]


def test_span_basis_empty_endpoint():
    assert sp.span_basis(gs.empty_gset(C2), gs.point_gset(C2)) == []
    assert sp.span_basis(gs.point_gset(C2), gs.empty_gset(C2)) == []


def test_span_basis_counts_match_oracle():
    for name, G in groups_of_order_at_most(8):
        lat = g.subgroup_lattice(G)
        for H in lat.subgroups:
            for K in lat.subgroups:
                X = gs.coset_gset(G, H.elements)
                Y = gs.coset_gset(G, K.elements)
                assert len(sp.span_basis(X, Y)) == span_basis_count_oracle(
                    G, H.elements, K.elements
                ), (name, H.elements, K.elements)


def test_span_basis_counts_are_double_cosets_for_free_source():
    # with a trivial subgroup on one side the oracle is the plain
    # double-coset count
    for name, G in groups_of_order_at_most(8):
        lat = g.subgroup_lattice(G)
        free = gs.coset_gset(G, (0,))
        for K in lat.subgroups:
            Y = gs.coset_gset(G, K.elements)
            n = double_coset_count(G, (0,), K.elements)
            assert span_basis_count_oracle(G, (0,), K.elements) == n
            assert len(sp.span_basis(free, Y)) == n, (name, K.elements)


def test_identity_span_shapes():
    assert sp.identity_span(gs.empty_gset(C2)).is_zero()
    assert len(sp.identity_span(gs.point_gset(C2)).terms) == 1
    A = gs.canonical_gset(C4, (1,))
    B = gs.canonical_gset(C4, (0, 2))
    AB = gs.coproduct(A, B)[0]
    ia, ib, iab = sp.identity_span(A), sp.identity_span(B), sp.identity_span(AB)
    assert len(iab.terms) == len(ia.terms) + len(ib.terms)


def test_identity_law():
    for G in (C2, S3):
        for mx in gs.gset_isoclasses(G, 3):
            for my in gs.gset_isoclasses(G, 3):
                X = gs.canonical_gset(G, mx)
                Y = gs.canonical_gset(G, my)
                for b in sp.span_basis(X, Y):
                    m = sp.basis_span_mor(X, Y, b)
                    assert sp.compose_spans(sp.identity_span(Y), m) == m
                    assert sp.compose_spans(m, sp.identity_span(X)) == m


def test_burnside_relation_c2():
    pt = gs.point_gset(C2)
    t = next(
        sp.basis_span_mor(pt, pt, b)
        for b in sp.span_basis(pt, pt)
        if sp.basis_legs(pt, pt, b)[0].src.size == 2
    )
    assert sp.compose_spans(t, t) == t + t


def test_compose_with_zero():
    pt = gs.point_gset(C2)
    t = sp.basis_span_mor(pt, pt, sp.span_basis(pt, pt)[0])
    assert sp.compose_spans(sp.zero_span(pt, pt), t).is_zero()
    assert sp.compose_spans(t, sp.zero_span(pt, pt)).is_zero()


def test_compose_rejects_mismatched_middle():
    pt = gs.point_gset(C2)
    free = gs.canonical_gset(C2, (0,))
    m1 = sp.identity_span(pt)
    m2 = sp.identity_span(free)
    with pytest.raises(ObjectMismatch):
        sp.compose_spans(m2, m1)


def _relabelled(G, seed):
    """G with its non-identity elements renumbered by a seeded permutation."""
    rest = list(G.elements())[1:]
    random.Random(seed).shuffle(rest)
    new = [0] + rest  # element a of G is element new[a] of the copy
    old = [0] * G.order
    for a, v in enumerate(new):
        old[v] = a
    return g.FiniteGroup(
        tuple(
            tuple(new[G.mul(old[a], old[b])] for b in G.elements())
            for a in G.elements()
        )
    )


def _composable_basis_pairs(G):
    """Every (k2, k1) that check_mackey composes: basis keys of spans
    G/H1 -> G/H2 and G/H2 -> G/H3 over subgroup class representatives."""
    lat = g.subgroup_lattice(G)
    orbits = [
        gs.coset_gset(G, lat.class_rep(c).elements) for c in range(lat.num_classes)
    ]
    basis = {
        (X, Y): sp.span_basis(X, Y) for X in orbits for Y in orbits
    }
    return [
        (k2, k1)
        for X, Y, Z in itertools.product(orbits, repeat=3)
        for k1 in basis[(X, Y)]
        for k2 in basis[(Y, Z)]
    ]


# Every composable pair is checked for groups of order <= 8, except where a
# group has more than ALL_PAIRS_UP_TO (C2xC2xC2 has 33,480, about 5 s through
# the oracle); there, and for the larger groups, a seeded sample is.
ALL_PAIRS_UP_TO = 6000
SAMPLE_SMALL, SAMPLE_LARGE = 1500, 200


@pytest.mark.parametrize("relabel_seed", [None, 11], ids=["given", "relabelled"])
@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_compose_keys_match_pullback_oracle(name, relabel_seed):
    G = corpus_group(name)
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    pairs = _composable_basis_pairs(G)
    if G.order > 8:
        pairs = random.Random(name).sample(pairs, min(len(pairs), SAMPLE_LARGE))
    elif len(pairs) > ALL_PAIRS_UP_TO:
        pairs = random.Random(name).sample(pairs, SAMPLE_SMALL)
    for k2, k1 in pairs:
        assert sp._compose_keys(G, k2, k1) == compose_keys_oracle(G, k2, k1), (
            k2,
            k1,
        )


@pytest.mark.parametrize("relabel_seed", [None, 5], ids=["given", "relabelled"])
def test_canonical_key_matches_brute_force_on_two_orbit_apexes(relabel_seed):
    rng = random.Random(3)
    for name, G in groups_of_order_at_most(8):
        if relabel_seed is not None:
            G = _relabelled(G, relabel_seed)
        lat = g.subgroup_lattice(G)
        shapes = gs.gset_isoclasses(G, 6)
        for _ in range(20):
            c, d = (rng.randrange(lat.num_classes) for _ in range(2))
            apex = gs.coproduct(
                gs.coset_gset(G, lat.class_rep(c).elements),
                gs.coset_gset(G, lat.class_rep(d).elements),
            )[0]
            legs = []
            while len(legs) < 2:
                homs = gs.hom_gset(apex, gs.canonical_gset(G, rng.choice(shapes)))
                if homs:
                    legs.append(rng.choice(homs).values)
            for base in apex.points():
                assert sp.canonical_key(apex, base, *legs) == canonical_key_oracle(
                    apex, base, *legs
                ), (name, c, d, base)


def test_associativity_sampled():
    rng = random.Random(7)
    for G in (C4, S3):
        classes = gs.gset_isoclasses(G, 3)
        for _ in range(25):
            X, Y, Z, W = (
                gs.canonical_gset(G, rng.choice(classes)) for _ in range(4)
            )
            b1 = sp.span_basis(X, Y)
            b2 = sp.span_basis(Y, Z)
            b3 = sp.span_basis(Z, W)
            if not (b1 and b2 and b3):
                continue
            m1 = sp.basis_span_mor(X, Y, rng.choice(b1))
            m2 = sp.basis_span_mor(Y, Z, rng.choice(b2))
            m3 = sp.basis_span_mor(Z, W, rng.choice(b3))
            lhs = sp.compose_spans(sp.compose_spans(m3, m2), m1)
            rhs = sp.compose_spans(m3, sp.compose_spans(m2, m1))
            assert lhs == rhs


def test_bilinearity():
    pt = gs.point_gset(C4)
    X = gs.canonical_gset(C4, (0, 1))
    basis_xp = sp.span_basis(X, pt)
    basis_pp = sp.span_basis(pt, pt)
    a = sp.basis_span_mor(X, pt, basis_xp[0])
    b = sp.basis_span_mor(X, pt, basis_xp[-1])
    c = sp.basis_span_mor(pt, pt, basis_pp[0]) + sp.basis_span_mor(
        pt, pt, basis_pp[1]
    ).scale(2)
    assert sp.compose_spans(c, a + b) == sp.compose_spans(c, a) + sp.compose_spans(c, b)


def test_burnside_tables_trivial_group():
    t = sp.burnside_tables(g.cyclic(1))
    assert t.marks == ((1,),)
    assert t.ring == (((1,),),)


def test_burnside_tables_c2():
    t = sp.burnside_tables(C2)
    assert t.class_orders == (1, 2)
    assert t.marks == ((2, 0), (1, 1))
    # t^2 = 2t for the free-apex generator
    assert t.ring[0][0] == (2, 0)
    # the trivial-apex generator is the identity of the ring
    assert t.ring[1][0] == (1, 0) and t.ring[1][1] == (0, 1)


def test_burnside_tables_s3():
    t = sp.burnside_tables(S3)
    n = len(t.marks)
    assert n == 4
    assert t.marks[0][0] == 6
    for i in range(n):
        assert t.marks[i][i] > 0
        for j in range(i + 1, n):
            assert t.marks[i][j] == 0
    # cross-check against equivariant map counts: |(G/K)^H| = |hom(G/H, G/K)|
    lat = g.subgroup_lattice(S3)
    for i in range(n):
        for j in range(n):
            K = gs.coset_gset(S3, lat.class_rep(i).elements)
            H = gs.coset_gset(S3, lat.class_rep(j).elements)
            assert t.marks[i][j] == len(gs.hom_gset(H, K))


def test_semiadditivity_unit_law():
    X = gs.canonical_gset(C2, (0,))
    Y = gs.point_gset(C2)
    assert sp.semiadditivity_check(X, gs.empty_gset(C2), Y)


def test_semiadditivity_point_counts():
    pt = gs.point_gset(C2)
    assert sp.semiadditivity_check(pt, pt, pt)
    XX = gs.coproduct(pt, pt)[0]
    assert len(sp.span_basis(XX, pt)) == 4


def test_semiadditivity_exhaustive_small_c4():
    classes = gs.gset_isoclasses(C4, 3)
    for mx, mxp, my in itertools.product(classes, repeat=3):
        X = gs.canonical_gset(C4, mx)
        Xp = gs.canonical_gset(C4, mxp)
        Y = gs.canonical_gset(C4, my)
        assert sp.semiadditivity_check(X, Xp, Y)


def test_transport_span_roundtrip():
    X = gs.canonical_gset(C4, (1, 2))
    Y = gs.canonical_gset(C4, (0, 2))
    # relabel through a nontrivial automorphism and back
    auto = next(f for f in gs.hom_gset(X, X) if f.is_iso())
    for b in sp.span_basis(X, Y):
        m = sp.basis_span_mor(X, Y, b)
        moved = sp.transport_span(m, auto, gs.identity_map(Y))
        back = sp.transport_span(moved, auto.inverse(), gs.identity_map(Y))
        assert back == m


def test_span_of_inflation_sends_free_apex_to_subgroup_apex():
    q = g.quotient(C4, g.make_subgroup(C4, (0, 2)))
    F = sp.span_of_functor(sp.InflationGSetFunctor(q))
    pt = gs.point_gset(C2)
    t = next(
        sp.basis_span_mor(pt, pt, b)
        for b in sp.span_basis(pt, pt)
        if sp.basis_legs(pt, pt, b)[0].src.size == 2
    )
    image = F(t)
    assert len(image.terms) == 1
    key, mult = image.terms[0]
    assert mult == 1
    lat = g.subgroup_lattice(C4)
    assert lat.class_rep(key[0]).elements == (0, 2)


def test_span_functors_are_left_exact():
    q = g.quotient(C4, g.make_subgroup(C4, (0, 2)))
    small_c2 = [gs.canonical_gset(C2, m) for m in gs.gset_isoclasses(C2, 2)]
    small_c4 = [gs.canonical_gset(C4, m) for m in gs.gset_isoclasses(C4, 2)]
    assert sp.check_left_exact(sp.InflationGSetFunctor(q), small_c2)
    assert sp.check_left_exact(sp.FixedPointsGSetFunctor(q), small_c4)


class _OrbitQuotientFunctor(sp.GSetFunctor):
    """Collapse each N-orbit to a point; a left adjoint, not left exact."""

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


def test_check_left_exact_rejects_orbit_quotient():
    q = g.quotient(C2, g.make_subgroup(C2, (0, 1)))
    bad = _OrbitQuotientFunctor(q)
    probes = [gs.canonical_gset(C2, m) for m in gs.gset_isoclasses(C2, 2)]
    verdict = sp.check_left_exact(bad, probes)
    assert not verdict
    assert verdict.reason == "pullback not preserved"


def test_span_functoriality_on_composable_pairs():
    q = g.quotient(C4, g.make_subgroup(C4, (0, 2)))
    for F in (sp.InflationGSetFunctor(q), sp.FixedPointsGSetFunctor(q)):
        G0 = F.src_group
        SpF = sp.span_of_functor(F)
        classes = gs.gset_isoclasses(G0, 2)
        for mx, my, mz in itertools.product(classes, repeat=3):
            X = gs.canonical_gset(G0, mx)
            Y = gs.canonical_gset(G0, my)
            Z = gs.canonical_gset(G0, mz)
            for b1 in sp.span_basis(X, Y):
                for b2 in sp.span_basis(Y, Z):
                    m1 = sp.basis_span_mor(X, Y, b1)
                    m2 = sp.basis_span_mor(Y, Z, b2)
                    assert SpF(sp.compose_spans(m2, m1)) == sp.compose_spans(
                        SpF(m2), SpF(m1)
                    )


def test_span_of_composed_functors():
    t = g.cyclic_tower(2, 3)
    q1 = t.links[1]  # C8 -> C4
    q0 = t.links[0]  # C4 -> C2
    F = sp.InflationGSetFunctor(g.compose_quotients(q0, q1))
    direct = sp.span_of_functor(F)
    step = sp.span_of_functor(sp.InflationGSetFunctor(q1))
    first = sp.span_of_functor(sp.InflationGSetFunctor(q0))
    pt = gs.point_gset(C2)
    X = gs.canonical_gset(C2, (0, 1))
    for b in sp.span_basis(X, pt):
        m = sp.basis_span_mor(X, pt, b)
        assert direct(m) == step(first(m))


@pytest.mark.parametrize("relabel_seed", [None, 13], ids=["given", "relabelled"])
@pytest.mark.parametrize("name", [name for name, _ in groups_of_order_at_most(8)])
def test_span_basis_matches_hom_enumerating_oracle(name, relabel_seed):
    G = corpus_group(name)
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    objs = [gs.canonical_gset(G, m) for m in gs.gset_isoclasses(G, 4)]
    for X in objs:
        for Y in objs:
            assert sp.span_basis(X, Y) == span_basis_oracle(X, Y), (name, X, Y)


LINK_TOWERS = pytest.mark.parametrize(
    "tower", [(2, 2), (3, 2), (2, 3)], ids=["2,2", "3,2", "2,3"]
)


def _link_functors(p, depth):
    """Inflation and fixed points along every link of the p-tower."""
    for q in g.cyclic_tower(p, depth).links:
        yield sp.InflationGSetFunctor(q)
        yield sp.FixedPointsGSetFunctor(q)


def _whole_basis_times(X, Y, first):
    """Every basis span of hom(X, Y), with multiplicities first, first + 1,
    first + 2, first, ... in key order."""
    basis = sp.span_basis(X, Y)
    return sp.SpanMor(X, Y, tuple((k, first + i % 3) for i, k in enumerate(basis)))


@LINK_TOWERS
def test_span_of_functor_matches_term_by_term_oracle(tower):
    for F in _link_functors(*tower):
        SpF, oracle = sp.span_of_functor(F), span_of_functor_oracle(F)
        G = F.src_group
        objs = [gs.canonical_gset(G, m) for m in gs.gset_isoclasses(G, 3)]
        multi = {
            (X, Y): _whole_basis_times(X, Y, 2)
            for X, Y in itertools.product(objs, repeat=2)
        }
        for m in multi.values():
            assert SpF(m) == oracle(m)
        for X, Y, Z in itertools.product(objs, repeat=3):
            composite = sp.compose_spans(multi[Y, Z], multi[X, Y])
            assert SpF(composite) == oracle(composite)


def test_span_of_functor_keeps_images_apart_per_endpoints():
    """Over C8 -> C4 the keys into point 8 of C8/1 + pt and of
    C8/C2 + C8/C2 + pt coincide, but that point is the first N-fixed point
    of the one and the ninth of the other."""
    q = g.cyclic_tower(2, 3).links[1]
    F = sp.FixedPointsGSetFunctor(q)
    SpF, oracle = sp.span_of_functor(F), span_of_functor_oracle(F)
    G = q.source
    pt = gs.point_gset(G)
    Xa, Xb = gs.canonical_gset(G, (0, 3)), gs.canonical_gset(G, (1, 1, 3))
    shared = sorted(set(sp.span_basis(Xa, pt)) & set(sp.span_basis(Xb, pt)))
    assert (3, (8,), (0,)) in shared
    for X in (Xa, Xb):
        for key in shared:
            m = sp.basis_span_mor(X, pt, key).scale(2)
            assert SpF(m) == oracle(m)


class _CountingFunctor(sp.GSetFunctor):
    """A functor that counts its calls of map."""

    def __init__(self, F):
        self.F = F
        self.src_group = F.src_group
        self.dst_group = F.dst_group
        self.maps = 0

    def obj(self, X):
        return self.F.obj(X)

    def map(self, f):
        self.maps += 1
        return self.F.map(f)


@LINK_TOWERS
def test_span_of_functor_maps_each_basis_leg_once(tower):
    for F in _link_functors(*tower):
        counting = _CountingFunctor(F)
        SpF = sp.span_of_functor(counting)
        G = F.src_group
        objs = [gs.canonical_gset(G, m) for m in gs.gset_isoclasses(G, 3)]
        morphisms = [
            _whole_basis_times(X, Y, 2) for X, Y in itertools.product(objs, repeat=2)
        ]
        morphisms += [
            sp.compose_spans(morphisms[j], morphisms[i])
            for i, j in itertools.product(range(len(morphisms)), repeat=2)
            if morphisms[i].right == morphisms[j].left
        ]
        keys = {(m.left, m.right, k) for m in morphisms for k, _ in m.terms}
        images = [SpF(m) for m in morphisms]
        assert 0 < counting.maps <= 2 * len(keys)
        before = counting.maps
        assert [SpF(m) for m in morphisms] == images
        assert counting.maps == before
