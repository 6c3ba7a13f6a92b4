import itertools
import random
from collections import Counter

import pytest

from profspan import groups as g
from profspan import gsets as gs
from profspan import spans as sp
from profspan import verify as vf
from profspan.corpus import corpus_group, corpus_groups
from profspan.errors import Verdict

from oracles import (
    EqMap,
    FixedPointsGSetFunctor,
    InflationGSetFunctor,
    ObjectMismatch,
    OrbitQuotientFunctor,
    SpanMor,
    add_spans,
    as_span_images,
    basis_legs,
    basis_span_mor,
    canonical_iso,
    canonical_key,
    canonical_key_oracle,
    compose_keys_oracle,
    compose_keys_per_element_oracle,
    compose_quotients,
    compose_spans,
    coproduct,
    double_coset_count,
    empty_gset,
    groups_of_order_at_most,
    hom_gset,
    identity_map,
    identity_span,
    inflated_keys_oracle,
    inverse_map,
    is_iso,
    least_key,
    left_exact_oracle,
    point_gset,
    pullback,
    scale_span,
    semiadditivity_check,
    span_basis_count_oracle,
    span_basis_oracle,
    span_images_generic,
    span_images_oracle,
    span_of_functor_oracle,
    square_is_pullback,
    transport_span,
    zero_span,
)
from test_verify import TOWER_GRID, _trivial_first_link


C2 = g.cyclic(2)
C4 = g.cyclic(4)
S3 = g.dihedral(3)


def test_span_basis_point_endomorphisms_c2():
    pt = point_gset(C2)
    basis = sp.span_basis(pt, pt)
    assert len(basis) == 2
    assert sorted(basis_legs(pt, pt, b)[0].src.size for b in basis) == [1, 2]


def test_span_basis_empty_endpoint():
    assert sp.span_basis(empty_gset(C2), point_gset(C2)) == []
    assert sp.span_basis(point_gset(C2), empty_gset(C2)) == []


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
    assert not identity_span(empty_gset(C2)).terms
    assert len(identity_span(point_gset(C2)).terms) == 1
    A = gs.canonical_gset(C4, (1,))
    B = gs.canonical_gset(C4, (0, 2))
    AB = coproduct(A, B)[0]
    ia, ib, iab = identity_span(A), identity_span(B), identity_span(AB)
    assert len(iab.terms) == len(ia.terms) + len(ib.terms)


def test_identity_law():
    for G in (C2, S3):
        for mx in gs.gset_isoclasses(G, 3):
            for my in gs.gset_isoclasses(G, 3):
                X = gs.canonical_gset(G, mx)
                Y = gs.canonical_gset(G, my)
                for b in sp.span_basis(X, Y):
                    m = basis_span_mor(X, Y, b)
                    assert compose_spans(identity_span(Y), m) == m
                    assert compose_spans(m, identity_span(X)) == m


def test_burnside_relation_c2():
    pt = point_gset(C2)
    t = next(
        basis_span_mor(pt, pt, b)
        for b in sp.span_basis(pt, pt)
        if basis_legs(pt, pt, b)[0].src.size == 2
    )
    assert compose_spans(t, t) == add_spans(t, t)


def test_compose_with_zero():
    pt = point_gset(C2)
    t = basis_span_mor(pt, pt, sp.span_basis(pt, pt)[0])
    assert not compose_spans(zero_span(pt, pt), t).terms
    assert not compose_spans(t, zero_span(pt, pt)).terms


def test_compose_rejects_mismatched_middle():
    pt = point_gset(C2)
    free = gs.canonical_gset(C2, (0,))
    m1 = identity_span(pt)
    m2 = identity_span(free)
    with pytest.raises(ObjectMismatch):
        compose_spans(m2, m1)


def _renumbering(G, seed):
    """A seeded permutation of the non-identity elements of G: element a
    of G is element new[a] of the copy that _relabelled makes."""
    rest = list(G.elements())[1:]
    random.Random(seed).shuffle(rest)
    return [0] + rest


def _relabelled(G, seed):
    """G with its non-identity elements renumbered by a seeded permutation."""
    new = _renumbering(G, seed)
    old = [0] * G.order
    for a, v in enumerate(new):
        old[v] = a
    return g.FiniteGroup(
        tuple(
            tuple(new[G.mul(old[a], old[b])] for b in G.elements())
            for a in G.elements()
        )
    )


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_identity_and_reversed_keys_from_points_match_canonical_key(name, relabel):
    """The identity key of every canonical orbit and the reversed key of
    every orbit key, read by pair_key from point 0 of the apex, whose
    stabilizer is the class representative, are the keys canonical_key
    finds from the whole apex, in each corpus group as given and with its
    elements renumbered."""
    G = corpus_group(name)
    if relabel:
        G = _relabelled(G, 7)
    n = g.subgroup_lattice(G).num_classes
    orbits = [gs.orbit_gset(G, c) for c in range(n)]
    for c, X in enumerate(orbits):
        pts = X.points()
        assert sp.pair_key(c, X, 0, X, 0) == canonical_key(X, 0, pts, pts, X, X)
    for c1, c2, (a, legL, legR) in sp.orbit_keys(G):
        X, Y = orbits[c1], orbits[c2]
        reversed_key = canonical_key(orbits[a], 0, legR, legL, Y, X)
        assert sp.pair_key(a, Y, legR[0], X, legL[0]) == reversed_key


def _composable_basis_pairs(G):
    """Every (X, Z, k2, k1) with k1, k2 basis keys of spans X -> Y and
    Y -> Z, for X = G/H1, Y = G/H2 and Z = G/H3 over subgroup class
    representatives: the pairs the exhaustive Mackey oracle composes, of
    which check_mackey composes those with both apexes at an end."""
    lat = g.subgroup_lattice(G)
    orbits = [
        gs.coset_gset(G, lat.class_rep(c).elements) for c in range(lat.num_classes)
    ]
    basis = {
        (X, Y): sp.span_basis(X, Y) for X in orbits for Y in orbits
    }
    return [
        (X, Z, k2, k1)
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
    for X, Z, k2, k1 in pairs:
        assert sp._compose_keys(X, Z, k2, k1) == compose_keys_oracle(G, k2, k1), (
            k2,
            k1,
        )


@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_compose_keys_match_the_per_element_oracle(name):
    """Every composable pair of the given group, and a seeded sample of
    them in a relabelled copy: the W-orbit tables key each fibre orbit
    as least_key does from leg tables of length |G|."""
    G = corpus_group(name)
    for X, Z, k2, k1 in _composable_basis_pairs(G):
        assert sp._compose_keys(X, Z, k2, k1) == compose_keys_per_element_oracle(
            G, k2, k1
        ), (k2, k1)
    H = _relabelled(G, 17)
    pairs = _composable_basis_pairs(H)
    for X, Z, k2, k1 in random.Random(name).sample(pairs, min(len(pairs), 100)):
        assert sp._compose_keys(X, Z, k2, k1) == compose_keys_per_element_oracle(
            H, k2, k1
        ), (k2, k1)


@pytest.mark.parametrize("order", [64, 81, 128])
def test_compose_keys_match_the_per_element_oracle_on_cyclic_endpoint_keys(order):
    """A seeded sample of the endpoint-key pairs that the span and Mackey
    checks of deep cyclic towers compose, where the pullback oracle is
    slow."""
    G = g.cyclic(order)
    orbits = _orbits(G)
    pairs = [
        (c1, c3, k2, k1)
        for c1, c2, c3 in itertools.product(range(len(orbits)), repeat=3)
        for k1 in sp.endpoint_keys(G, c1, c2)
        for k2 in sp.endpoint_keys(G, c2, c3)
    ]
    for c1, c3, k2, k1 in random.Random(order).sample(pairs, 200):
        composite = sp._compose_keys(orbits[c1], orbits[c3], k2, k1)
        assert composite == compose_keys_per_element_oracle(G, k2, k1), (k2, k1)


@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_double_coset_table_matches_an_independent_count(name):
    """For every pair of class representatives K1, K2 the table lists the
    (K1, K2) double cosets, each as a K1-orbit on G/K2 given by its least
    point, with the class and conjugator of its stabilizer; the orbits
    are recomputed here from the multiplication table alone."""
    G = corpus_group(name)
    T = sp.coset_tables(G)
    for (c1, A), (c2, B) in itertools.product(enumerate(T.classes), repeat=2):
        K1, K2 = A.rep, B.rep
        table = sp._double_cosets(G, c1, c2)
        assert len(table) == double_coset_count(G, K1, K2)
        cosets = {frozenset(G.mul(x, k) for k in K2) for x in G.elements()}
        covered: set = set()
        sizes = []
        for y, c, t0, h in table:
            hK2 = frozenset(G.mul(h, k) for k in K2)
            orbit = {frozenset(G.mul(a, x) for x in hK2) for a in K1}
            assert h == min(hK2) == min(map(min, orbit)) and B.coset[h] == y
            stab = [a for a in K1 if frozenset(G.mul(a, x) for x in hK2) == hK2]
            assert len(orbit) * len(stab) == len(K1)
            assert sorted(G.conj(t0, a) for a in stab) == list(T.classes[c].rep)
            covered |= orbit
            sizes.append(len(orbit))
        assert sum(sizes) == G.order // len(K2) == len(cosets)
        assert covered == cosets


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
            apex = coproduct(
                gs.coset_gset(G, lat.class_rep(c).elements),
                gs.coset_gset(G, lat.class_rep(d).elements),
            )[0]
            legs = []
            while len(legs) < 2:
                homs = hom_gset(apex, gs.canonical_gset(G, rng.choice(shapes)))
                if homs:
                    legs.append(rng.choice(homs))
            f, h = legs
            for base in apex.points():
                key = canonical_key(apex, base, f.values, h.values, f.dst, h.dst)
                assert key == canonical_key_oracle(apex, base, f.values, h.values), (
                    name, c, d, base,
                )


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
            m1 = basis_span_mor(X, Y, rng.choice(b1))
            m2 = basis_span_mor(Y, Z, rng.choice(b2))
            m3 = basis_span_mor(Z, W, rng.choice(b3))
            lhs = compose_spans(compose_spans(m3, m2), m1)
            rhs = compose_spans(m3, compose_spans(m2, m1))
            assert lhs == rhs


def test_bilinearity():
    pt = point_gset(C4)
    X = gs.canonical_gset(C4, (0, 1))
    basis_xp = sp.span_basis(X, pt)
    basis_pp = sp.span_basis(pt, pt)
    a = basis_span_mor(X, pt, basis_xp[0])
    b = basis_span_mor(X, pt, basis_xp[-1])
    c = add_spans(
        basis_span_mor(pt, pt, basis_pp[0]),
        scale_span(basis_span_mor(pt, pt, basis_pp[1]), 2),
    )
    assert compose_spans(c, add_spans(a, b)) == add_spans(
        compose_spans(c, a), compose_spans(c, b)
    )


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
            assert t.marks[i][j] == len(hom_gset(H, K))


def test_semiadditivity_unit_law():
    X = gs.canonical_gset(C2, (0,))
    Y = point_gset(C2)
    assert semiadditivity_check(X, empty_gset(C2), Y)


def test_semiadditivity_point_counts():
    pt = point_gset(C2)
    assert semiadditivity_check(pt, pt, pt)
    XX = coproduct(pt, pt)[0]
    assert len(sp.span_basis(XX, pt)) == 4


def test_semiadditivity_exhaustive_small_c4():
    classes = gs.gset_isoclasses(C4, 3)
    for mx, mxp, my in itertools.product(classes, repeat=3):
        X = gs.canonical_gset(C4, mx)
        Xp = gs.canonical_gset(C4, mxp)
        Y = gs.canonical_gset(C4, my)
        assert semiadditivity_check(X, Xp, Y)


def test_transport_span_roundtrip():
    X = gs.canonical_gset(C4, (1, 2))
    Y = gs.canonical_gset(C4, (0, 2))
    # relabel through a nontrivial automorphism and back
    auto = next(f for f in hom_gset(X, X) if is_iso(f))
    for b in sp.span_basis(X, Y):
        m = basis_span_mor(X, Y, b)
        moved = transport_span(m, auto, identity_map(Y))
        back = transport_span(moved, inverse_map(auto), identity_map(Y))
        assert back == m


def test_span_of_inflation_sends_free_apex_to_subgroup_apex():
    q = g.quotient(C4, g.make_subgroup(C4, (0, 2)))
    F = span_of_functor_oracle(InflationGSetFunctor(q))
    pt = point_gset(C2)
    t = next(
        basis_span_mor(pt, pt, b)
        for b in sp.span_basis(pt, pt)
        if basis_legs(pt, pt, b)[0].src.size == 2
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
    assert left_exact_oracle(InflationGSetFunctor(q), small_c2)
    assert left_exact_oracle(FixedPointsGSetFunctor(q), small_c4)


def _orbits(G):
    return [gs.orbit_gset(G, c) for c in range(g.subgroup_lattice(G).num_classes)]


def _quotients(G):
    """The quotient map of G by each of its normal subgroups."""
    lat = g.subgroup_lattice(G)
    return [g.quotient(G, N) for N, normal in zip(lat.subgroups, lat.normal) if normal]


def _transfer_restriction_pairs(G, orbits):
    """Every transfer k1 = [X <- X -f-> Z] and restriction k2 = [Z <-h- Y -> Y]
    between the orbits, as (c1, c2, c3, k1, k2, f, h) for X, Z, Y the orbits
    c1, c2, c3: one pair per transitive cospan X -f-> Z <-h- Y up to
    isomorphism."""
    for c1, c2, c3 in itertools.product(range(len(orbits)), repeat=3):
        transfers = [k for k in sp.endpoint_keys(G, c1, c2) if k[0] == c1]
        restrictions = [k for k in sp.endpoint_keys(G, c2, c3) if k[0] == c3]
        for k1, k2 in itertools.product(transfers, restrictions):
            f = basis_legs(orbits[c1], orbits[c2], k1)[1]
            h = basis_legs(orbits[c2], orbits[c3], k2)[0]
            yield c1, c2, c3, k1, k2, f, h


def _table(functor, q):
    """The Span(F) table the span checks read: the package's for
    inflation and fixed points, the generic builder's for the N-orbit
    quotient."""
    if functor is OrbitQuotientFunctor:
        return as_span_images(span_images_generic(functor, q))
    return sp.span_images(q, functor.name)


def check_left_exact(F) -> Verdict:
    """Left exactness of F as the span checks decide it: the law of
    Span(F) on every transfer-restriction pair between the orbits of F's
    source group (verify._span_functor_check gives the proof).  The
    witness of a failure is the cospan X -f-> Z <-h- Y as (X, Y, Z
    actions, f and h values)."""
    G = F.src_group
    orbits = _orbits(G)
    table = _table(type(F), F.q)
    for c1, c2, c3, k1, k2, f, h in _transfer_restriction_pairs(G, orbits):
        if not vf._law_holds(table, c1, c2, c3, k1, k2):
            X, Z, Y = orbits[c1], orbits[c2], orbits[c3]
            square = (X.action, Y.action, Z.action, f.values, h.values)
            return Verdict(False, "pullback not preserved", square)
    return Verdict(True)


@pytest.mark.parametrize("functor", [
    InflationGSetFunctor, FixedPointsGSetFunctor, OrbitQuotientFunctor
])
@pytest.mark.parametrize("p,depth", [(2, 2), (2, 3), (3, 2)])
def test_check_left_exact_agrees_with_every_cospan(functor, p, depth):
    """The law's verdict on the orbits of each link's source group is the
    verdict of building the pullback of every cospan of orbits.  Inflation
    and fixed points keep coproducts, so the orbits decide every G-set:
    they keep the pullbacks of the G-sets of size at most 3 too.  The
    N-orbit quotient fails on the orbits (on G/1 -> G/G <- G/1), not on
    the small G-sets."""
    for q in g.cyclic_tower(p, depth).links:
        F = functor(q)
        G = F.src_group
        exact = check_left_exact(F).ok
        assert exact == left_exact_oracle(F, _orbits(G)).ok
        assert exact == (functor is not OrbitQuotientFunctor)
        small = [gs.canonical_gset(G, m) for m in gs.gset_isoclasses(G, 3)]
        assert left_exact_oracle(F, small)


def test_check_left_exact_rejects_orbit_quotient():
    q = g.quotient(C2, g.make_subgroup(C2, (0, 1)))
    bad = OrbitQuotientFunctor(q)
    verdict = check_left_exact(bad)
    assert not verdict
    assert verdict.reason == "pullback not preserved"
    # the witness names the cospan X -f-> Z <-h- Y of a square F breaks
    X, Y, Z = (gs.GSet(C2, action) for action in verdict.witness[:3])
    f = EqMap(X, Z, verdict.witness[3])
    h = EqMap(Y, Z, verdict.witness[4])
    P, p1, p2 = pullback(f, h)
    square = [bad.map(m) for m in (p1, p2, f, h)]
    assert not square_is_pullback(*square)
    assert not left_exact_oracle(bad, [X, Y, Z])


# The corpus groups of order at most 6, with D4 and Q8, each with every
# normal subgroup N: (transitive cospans, cospans whose pullback F does not
# keep) over the orbits of G, or of G/N for inflation.
LAW_GROUPS = [name for name, G in corpus_groups() if G.order <= 6] + ["D4", "Q8"]
EXPECTED_COSPANS = {
    FixedPointsGSetFunctor: (5537, 0),
    InflationGSetFunctor: (1365, 0),
    OrbitQuotientFunctor: (5537, 954),
}


@pytest.mark.parametrize("functor", [
    FixedPointsGSetFunctor, InflationGSetFunctor, OrbitQuotientFunctor
])
def test_law_on_transfer_restriction_pairs_decides_left_exactness(functor):
    """For a transfer k1 = [X <- X -f-> Z] and a restriction
    k2 = [Z <-h- Y -> Y] between orbits, the law of the span checks holds
    on (k1, k2) exactly when F keeps the pullback of f and h, decided on
    the built square.  Fixed points and inflation keep every one; the
    N-orbit quotient does not."""
    cospans = failing = 0
    for name in LAW_GROUPS:
        for q in _quotients(corpus_group(name)):
            F = functor(q)
            G = F.src_group
            orbits = _orbits(G)
            table = _table(functor, q)
            for c1, c2, c3, k1, k2, f, h in _transfer_restriction_pairs(G, orbits):
                P, p1, p2 = pullback(f, h)
                kept = square_is_pullback(*map(F.map, (p1, p2, f, h)))
                law = vf._law_holds(table, c1, c2, c3, k1, k2)
                assert law == kept, (name, q.kernel.elements, c1, c2, c3, k1, k2)
                cospans += 1
                failing += not kept
    assert (cospans, failing) == EXPECTED_COSPANS[functor]


def test_span_functoriality_on_composable_pairs():
    q = g.quotient(C4, g.make_subgroup(C4, (0, 2)))
    for F in (InflationGSetFunctor(q), FixedPointsGSetFunctor(q)):
        G0 = F.src_group
        SpF = span_of_functor_oracle(F)
        classes = gs.gset_isoclasses(G0, 2)
        for mx, my, mz in itertools.product(classes, repeat=3):
            X = gs.canonical_gset(G0, mx)
            Y = gs.canonical_gset(G0, my)
            Z = gs.canonical_gset(G0, mz)
            for b1 in sp.span_basis(X, Y):
                for b2 in sp.span_basis(Y, Z):
                    m1 = basis_span_mor(X, Y, b1)
                    m2 = basis_span_mor(Y, Z, b2)
                    assert SpF(compose_spans(m2, m1)) == compose_spans(
                        SpF(m2), SpF(m1)
                    )


def test_span_of_composed_functors():
    t = g.cyclic_tower(2, 3)
    q1 = t.links[1]  # C8 -> C4
    q0 = t.links[0]  # C4 -> C2
    F = InflationGSetFunctor(compose_quotients(q0, q1))
    direct = span_of_functor_oracle(F)
    step = span_of_functor_oracle(InflationGSetFunctor(q1))
    first = span_of_functor_oracle(InflationGSetFunctor(q0))
    pt = point_gset(C2)
    X = gs.canonical_gset(C2, (0, 1))
    for b in sp.span_basis(X, pt):
        m = basis_span_mor(X, pt, b)
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


@pytest.mark.parametrize("relabel_seed", [None, 13], ids=["given", "relabelled"])
@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_orbit_keys_join_the_orbit_bases_in_order(name, relabel_seed):
    G = corpus_group(name)
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    n = g.subgroup_lattice(G).num_classes
    joined = [
        (c1, c2, key)
        for c1, c2 in itertools.product(range(n), repeat=2)
        for key in sp.orbit_basis(G, c1, c2)
    ]
    assert sp.orbit_keys(G) == joined == sorted(joined)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4"])
def test_least_key_does_not_depend_on_the_conjugator(name):
    # every m·t0 with m in N(R) conjugates the base point's stabilizer
    # onto R; each must give the key that the recorded t0 gives, to the
    # oracle's least_key and to canonical_key, which at the base point
    # m·t0·0, whose stabilizer is R itself, keys from the legs there
    G = corpus_group(name)
    lat, T = g.subgroup_lattice(G), sp.coset_tables(G)
    orbits = _orbits(G)
    for i, L in enumerate(lat.subgroups):
        c = lat.class_of(L.elements)
        R = lat.class_rep(c)
        t0 = lat.conjugators[i]
        normaliser = [m for m in G.elements() if R.conjugate(m) == R]
        apex = gs.coset_gset(G, L.elements)
        row = apex.action[0]
        maps = [f for X in orbits for f in hom_gset(apex, X)]
        for f, h in itertools.product(maps, repeat=2):
            lg, rg = [f.values[x] for x in row], [h.values[x] for x in row]
            key = least_key(G, T, c, t0, lg, rg)
            legs = (f.values, h.values, f.dst, h.dst)
            assert canonical_key(apex, 0, *legs) == key
            for m in normaliser:
                t = G.mul(m, t0)
                assert least_key(G, T, c, t, lg, rg) == key, (name, L.elements, m)
                assert canonical_key(apex, row[t], *legs) == key, (
                    name, L.elements, m,
                )


def _assert_least_points_recomputed(X):
    """Every W-orbit table of X against a recomputation from X.action,
    with W = N(R)/R found by conjugating R by every element."""
    G = X.group
    lat, T = g.subgroup_lattice(G), sp.coset_tables(G)
    for c in range(lat.num_classes):
        R = lat.class_rep(c)
        normaliser = [n for n in G.elements() if R.conjugate(n) == R]
        W = sorted({min(G.mul(n, r) for r in R.elements) for n in normaliser})
        table = sp._least_points(X, c)
        fixed = [x for x in X.points() if all(X.action[x][r] == x for r in R.elements)]
        assert list(table.fixed) == fixed
        for x in X.points():
            if x not in fixed:
                assert table.least[x] == -1 and not table.carriers[x]
                assert table.legs[x] is None
                continue
            images = [X.action[x][n] for n in W]
            star = min(images)
            assert table.least[x] == star
            assert set(table.carriers[x]) == {n for n, y in zip(W, images) if y == star}
            assert len(set(images)) * len(table.carriers[x]) == len(W)
            coset = T.classes[c].coset
            assert all(
                table.legs[x][coset[a]] == X.action[x][a] for a in G.elements()
            )
            assert table.legs[x] == tuple(X.action[x][m] for m in T.classes[c].mins)


@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_least_points_match_a_recomputation_on_the_corpus_orbits(name):
    for X in _orbits(corpus_group(name)):
        _assert_least_points_recomputed(X)


@pytest.mark.parametrize(
    "tower", [(2, 6), (3, 4), (5, 3)], ids=["2,6", "3,4", "5,3"]
)
def test_least_points_match_a_recomputation_on_the_link_images(tower):
    """The fixed-point and inflation images of the orbits, at towers
    where |W| reaches 64, 81 and 125."""
    for F in _link_functors(*tower):
        for X in _orbits(F.src_group):
            _assert_least_points_recomputed(F.obj(X))


LINK_TOWERS = pytest.mark.parametrize(
    "tower", [(2, 2), (3, 2), (2, 3)], ids=["2,2", "3,2", "2,3"]
)


def _link_functors(p, depth):
    """Inflation and fixed points along every link of the p-tower."""
    for q in g.cyclic_tower(p, depth).links:
        yield InflationGSetFunctor(q)
        yield FixedPointsGSetFunctor(q)


def _whole_basis_times(X, Y, first):
    """Every basis span of hom(X, Y), with multiplicities first, first + 1,
    first + 2, first, ... in key order."""
    basis = sp.span_basis(X, Y)
    return SpanMor(X, Y, tuple((k, first + i % 3) for i, k in enumerate(basis)))


def test_span_of_functor_keeps_images_apart_per_endpoints():
    """Over C8 -> C4 the keys into point 8 of C8/1 + pt and of
    C8/C2 + C8/C2 + pt coincide, but that point is the first N-fixed point
    of the one and the ninth of the other, so Span(fixed points) sends the
    key to two different spans: an image is known from its key only with
    its endpoints, which index the span checks' table too."""
    q = g.cyclic_tower(2, 3).links[1]
    SpF = span_of_functor_oracle(FixedPointsGSetFunctor(q))
    G = q.source
    pt = point_gset(G)
    Xa, Xb = gs.canonical_gset(G, (0, 3)), gs.canonical_gset(G, (1, 1, 3))
    key = (3, (8,), (0,))
    assert key in sp.span_basis(Xa, pt) and key in sp.span_basis(Xb, pt)
    image_a, image_b = (SpF(basis_span_mor(X, pt, key)) for X in (Xa, Xb))
    assert image_a.terms != image_b.terms


@LINK_TOWERS
def test_span_of_functor_matches_term_by_term_oracle(tower):
    """The Span(F) table of the span checks, added up over the terms of a
    morphism between orbits, is Span(F) applied term by term and renamed
    onto the table's targets: on every basis between two orbits with
    multiplicities, and on their composites."""
    for F in _link_functors(*tower):
        oracle = span_of_functor_oracle(F)
        orbits = _orbits(F.src_group)
        table = sp.span_images(F.q, F.name)
        sigma = [canonical_iso(F.obj(X)) for X in orbits]

        def tabulated(c1, c2, m):
            counts: Counter = Counter()
            for key, mult in m.terms:
                for k, c in table.terms[c1, c2, key]:
                    counts[k] += mult * c
            return tuple(sorted(counts.items()))

        def renamed(c1, c2, m):
            return transport_span(oracle(m), sigma[c1], sigma[c2]).terms

        pairs = list(itertools.product(range(len(orbits)), repeat=2))
        multi = {
            (c1, c2): _whole_basis_times(orbits[c1], orbits[c2], 2)
            for c1, c2 in pairs
        }
        for (c1, c2), m in multi.items():
            assert tabulated(c1, c2, m) == renamed(c1, c2, m)
        for c1, c2, c3 in itertools.product(range(len(orbits)), repeat=3):
            composite = compose_spans(multi[c2, c3], multi[c1, c2])
            assert tabulated(c1, c3, composite) == renamed(c1, c3, composite)


def _relabelled_target(q, seed):
    """q followed by the renumbering of its target that _relabelled makes:
    the inflated and fixed-point orbits are then numbered apart from the
    canonical orbits, so canonical_iso renames them."""
    new = _renumbering(q.target, seed)
    projection = [new[x] for x in q.projection]
    return g.quotient_map(q.source, _relabelled(q.target, seed), projection)


def _relabelled_source(q, seed):
    """q from the renumbering of its source that _relabelled makes."""
    new = _renumbering(q.source, seed)
    projection = [0] * q.source.order
    for a, x in enumerate(q.projection):
        projection[new[a]] = x
    return g.quotient_map(_relabelled(q.source, seed), q.target, projection)


def _tower_links(towers):
    return [
        (f"tower-{p}-{depth}-link-{i}", q)
        for p, depth in towers
        for i, q in enumerate(g.cyclic_tower(p, depth).links)
    ]


def _span_image_links():
    """Every link of the verify tower grid, and the quotient map of every
    corpus group by each of its normal subgroups, each also followed by a
    renumbering of its target; the corpus quotients also from a
    renumbering of their source; and the links of the deeper towers 2,7,
    3,5 and 7,3."""
    corpus = [
        (f"{name}/{len(q.kernel.elements)}", q)
        for name, G in corpus_groups()
        for q in _quotients(G)
    ]
    for label, q in _tower_links(TOWER_GRID) + corpus:
        yield pytest.param(q, id=label)
        yield pytest.param(_relabelled_target(q, 5), id=f"{label}-renumbered")
    for label, q in corpus:
        yield pytest.param(_relabelled_source(q, 9), id=f"{label}-source-renumbered")
    for label, q in _tower_links([(2, 7), (3, 5), (7, 3)]):
        yield pytest.param(q, id=label)


@pytest.mark.parametrize("q", list(_span_image_links()))
def test_span_images_match_both_routes_they_replace(q):
    """The Span(F) table of inflation and of fixed points along q, read
    from one orbit image per class, is the generic table of the G-set
    functor (images, targets and terms), and key for key span_from_maps
    of F on the legs renamed by canonical_iso; for inflation each image
    is the one key that categorical fixed points read through
    canonical_iso, as the basis object of orbit_basis itself."""
    for functor in (InflationGSetFunctor, FixedPointsGSetFunctor):
        table = sp.span_images(q, functor.name)
        assert table == as_span_images(span_images_generic(functor, q))
        assert table.terms == span_images_oracle(functor(q))
        assert list(table.terms) == sp.orbit_keys(functor(q).src_group)
    table = sp.span_images(q, "inflation")
    pre, pairs = inflated_keys_oracle(q)
    assert table.images == pre
    assert list(table.terms.items()) == [
        (qkey, ((gkey[2], 1),)) for qkey, gkey in pairs
    ]
    for (c1, c2, _), ((gkey, _),) in table.terms.items():
        assert any(gkey is k for k in sp.orbit_basis(q.source, pre[c1], pre[c2]))


def test_span_images_of_a_link_that_is_not_onto():
    """Along the trivial map C4 -> C2, which is not onto, inflation sends
    the free orbit of C2 to two fixed points and fixed points have no
    residual action: span_images raises for both, as make_tower does.
    The generic table of inflation has targets of several orbits and
    images of several terms, and is the renamed span_from_maps route."""
    q = _trivial_first_link(3).links[0]
    for which in ("inflation", "fixed points"):
        with pytest.raises(ValueError, match="projection is not onto the previous"):
            sp.span_images(q, which)
    table = span_images_generic(InflationGSetFunctor, q)
    assert table.terms == span_images_oracle(InflationGSetFunctor(q))
    assert max(map(len, table.classes)) == 2
    assert max(len(terms) for terms in table.terms.values()) > 1
