import itertools
import random

import pytest

from profspan import groups as g
from profspan import gsets as gs
from profspan.corpus import corpus_group, corpus_groups
from profspan.errors import NotAGroup, NotNormal, NotPrime

from oracles import (
    are_isomorphic,
    associativity_oracle,
    closure,
    compose_quotients,
    conjugacy_classes_oracle,
    coset_gset,
    element_order,
    generating_set_oracle,
    groups_of_order_at_most,
    orbit_class_multiset,
    subgroups_oracle,
)
from test_census import _clear_package_caches
from test_spans import _relabelled


def test_make_group_trivial():
    G = g.make_group([[0]])
    assert G.order == 1


def test_make_group_c2():
    G = g.make_group([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.inv(1) == 1


def test_make_group_relabels_identity():
    # C2 with the identity at index 1
    G = g.make_group([[1, 0], [0, 1]])
    assert G.mul(0, 1) == 1
    assert G.mul(1, 1) == 0


def test_make_group_nonassociative_witness():
    # C6 table with an intercalate swapped: still a latin square with
    # identity, no longer associative
    table = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    table[1][1], table[1][4] = table[1][4], table[1][1]
    table[4][1], table[4][4] = table[4][4], table[4][1]
    with pytest.raises(NotAGroup) as err:
        g.make_group(table)
    assert err.value.axiom == "associativity"
    a, b, c = err.value.witness
    assert table[table[a][b]][c] != table[a][table[b][c]]


def _intercalate_loops(G, seed, count):
    """Up to `count` Latin squares made from the table of G by swapping one
    intercalate (rows a, b and columns c, d with ac = bd and ad = bc) off
    row and column 0, so that 0 stays the identity; picked by seed."""
    n = G.order
    mult = G.mult
    found = [
        (a, b, c, d)
        for a, b in itertools.combinations(range(1, n), 2)
        for c, d in itertools.combinations(range(1, n), 2)
        if mult[a][c] == mult[b][d] and mult[a][d] == mult[b][c]
    ]
    loops = []
    for a, b, c, d in random.Random(seed).sample(found, min(count, len(found))):
        table = [list(row) for row in mult]
        table[a][c], table[a][d] = table[a][d], table[a][c]
        table[b][c], table[b][d] = table[b][d], table[b][c]
        loops.append(table)
    return loops


@pytest.mark.parametrize(
    "name", [n for n, G in corpus_groups() if G.order % 2 == 0 and G.order > 2]
)
def test_make_group_on_intercalate_loops_agrees_with_the_cubic_scan(name):
    loops = _intercalate_loops(corpus_group(name), seed=len(name), count=12)
    assert loops
    for table in loops:
        witness = associativity_oracle(table)
        if witness is None:
            assert g.make_group(table).mult == tuple(map(tuple, table))
            continue
        with pytest.raises(NotAGroup) as err:
            g.make_group(table)
        assert (err.value.axiom, err.value.witness) == ("associativity", witness)


def test_make_group_bad_row():
    with pytest.raises(NotAGroup):
        g.make_group([[0, 1], [1, 1]])


def test_subgroup_lattice_c4():
    G = g.cyclic(4)
    lat = g.subgroup_lattice(G)
    assert len(lat.subgroups) == 3
    assert all(lat.normal)
    assert [H.order for H in lat.subgroups] == [1, 2, 4]


def test_subgroup_lattice_s3():
    G = g.dihedral(3)
    lat = g.subgroup_lattice(G)
    assert len(lat.subgroups) == 6
    assert len(lat.classes) == 4
    sizes = sorted(len(c) for c in lat.classes)
    assert sizes == [1, 1, 1, 3]  # {e}, <3-cycle>, S3, three <transposition>


def test_subgroup_lattice_trivial():
    lat = g.subgroup_lattice(g.cyclic(1))
    assert len(lat.subgroups) == 1


def test_lattice_closed_under_conjugation_and_intersection():
    for name, G in groups_of_order_at_most(12):
        lat = g.subgroup_lattice(G)
        elems = {H.elements for H in lat.subgroups}
        for H in lat.subgroups:
            for x in G.elements():
                assert H.conjugate(x).elements in elems, name
        for H, K in itertools.combinations(lat.subgroups, 2):
            meet = tuple(sorted(set(H.elements) & set(K.elements)))
            assert meet in elems, name


@pytest.mark.parametrize("relabel_seed", [None, 17], ids=["given", "relabelled"])
@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_left_cosets_and_conjugators_of_every_subgroup(name, relabel_seed):
    G = corpus_group(name)
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    lat = g.subgroup_lattice(G)
    for i, H in enumerate(lat.subgroups):
        cosets = {frozenset(G.mul(x, h) for h in H.elements) for x in G.elements()}
        cosets = sorted(cosets, key=min)
        coset_of, reps = g.left_cosets(G, H.elements)
        assert reps == tuple(min(C) for C in cosets)
        assert coset_of == tuple(
            next(n for n, C in enumerate(cosets) if x in C) for x in G.elements()
        )
        c = lat.class_of(H.elements)
        assert H.conjugate(lat.conjugators[i]) == lat.class_rep(c), (name, H.elements)
        assert lat.where[H.elements] == (c, lat.conjugators[i])
    for c, cls in enumerate(gs.orbit_classes(G)):
        assert (cls.coset, cls.mins) == g.left_cosets(G, lat.class_rep(c).elements)


@pytest.mark.parametrize("relabel_seed", [None, 17], ids=["given", "relabelled"])
@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_generating_set_matches_the_closure_oracle(name, relabel_seed):
    G = corpus_group(name)
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    assert g.generating_set(G.mult) == generating_set_oracle(G)


@pytest.mark.parametrize("p, depth", [(2, 6), (3, 3), (5, 2), (7, 2)])
def test_generating_set_of_cyclic_tower_stages(p, depth):
    for G in g.cyclic_tower(p, depth).stages:
        assert g.generating_set(G.mult) == generating_set_oracle(G)


def _by_order(subgroups):
    return sorted(subgroups, key=lambda e: (len(e), e))


@pytest.mark.parametrize("relabel_seed", [None, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_subgroup_lattice_matches_the_exhaustive_oracle(name, relabel_seed):
    G = corpus_group(name)
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    subs = [H.elements for H in g.subgroup_lattice(G).subgroups]
    assert subs == _by_order(subgroups_oracle(G))


@pytest.mark.parametrize("n", [2**k for k in range(1, 9)] + [3**k for k in range(1, 6)])
def test_subgroup_lattice_of_a_cyclic_group_matches_the_oracle(n):
    G = g.cyclic(n)
    subs = [H.elements for H in g.subgroup_lattice(G).subgroups]
    assert subs == _by_order(subgroups_oracle(G))


def _conjugacy_cases():
    for name, G in corpus_groups():
        yield name, G
        yield f"{name}-relabelled", _relabelled(G, 23)
    for p, top in [(2, 10), (3, 6)]:
        for k in range(1, top + 1):
            yield f"C{p}^{k}", g.cyclic(p**k)


@pytest.mark.parametrize("label, G", list(_conjugacy_cases()))
def test_conjugacy_classes_match_conjugation_by_every_element(label, G):
    """Closing each class under conjugation by the generators gives the
    classes and normal flags that conjugating by every element gives; the
    conjugators may differ, and each still carries its subgroup onto the
    class representative."""
    lat = g.subgroup_lattice(G)
    classes, normal, _ = conjugacy_classes_oracle(G)
    assert (lat.classes, lat.normal) == (classes, normal)
    for c, members in enumerate(lat.classes):
        for i in members:
            H = lat.subgroups[i]
            assert H.conjugate(lat.conjugators[i]) == lat.class_rep(c), (label, i)


@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_cyclic_generators_are_the_least_generator_of_each_cyclic_subgroup(name):
    G = corpus_group(name)
    cyclic: dict = {}
    for x in range(1, G.order):
        cyclic.setdefault(closure(G, (x,)), x)
    assert g._cyclic_generators(G) == sorted(cyclic.values())


@pytest.mark.parametrize("name", ["S3", "C2xC2", "C6"])
def test_make_subgroup_accepts_exactly_the_closed_subsets(name):
    G = corpus_group(name)
    for r in range(G.order + 1):
        for elems in itertools.combinations(G.elements(), r):
            if closure(G, elems) == elems:
                assert g.make_subgroup(G, elems).elements == elems
            else:
                with pytest.raises(ValueError, match="not closed"):
                    g.make_subgroup(G, elems)


def test_subgroup_lattice_of_the_largest_tower_stage():
    """C1024, the top stage of --tower 2,10: one subgroup per divisor,
    each normal and its own class."""
    lat = g.subgroup_lattice(g.cyclic(1024))
    assert [H.elements for H in lat.subgroups] == [
        tuple(range(0, 1024, 1024 // 2**k)) for k in range(11)
    ]
    assert all(lat.normal) and lat.classes == tuple((i,) for i in range(11))


def test_quotient_whole_group():
    G = g.cyclic(4)
    lat = g.subgroup_lattice(G)
    q = g.quotient(G, lat.subgroups[-1])
    assert q.target.order == 1


def test_quotient_c4_by_c2():
    G = g.cyclic(4)
    N = g.make_subgroup(G, (0, 2))
    q = g.quotient(G, N)
    assert q.target.order == 2
    assert q.projection == (0, 1, 0, 1)


def test_quotient_not_normal():
    G = g.dihedral(3)
    lat = g.subgroup_lattice(G)
    H = next(H for H in lat.subgroups if H.order == 2)
    with pytest.raises(NotNormal) as err:
        g.quotient(G, H)
    x, h = err.value.witness
    assert G.conj(x, h) not in set(H.elements)


@pytest.mark.parametrize("name", ["C4", "S3", "D4", "Q8", "C2xC2xC2"])
def test_a_kept_quotient_is_the_same_object_on_a_repeat(name):
    """quotient keeps its map per (G, N): a repeat by any normal subgroup,
    the trivial one included, made again, gets back the same map and
    target group."""
    G = corpus_group(name)
    lat = g.subgroup_lattice(G)
    for N, normal in zip(lat.subgroups, lat.normal):
        if normal:
            q = g.quotient(G, g.make_subgroup(G, N.elements))
            again = g.quotient(G, g.make_subgroup(G, N.elements))
            assert again is q and again.target is q.target


def test_a_quotient_by_a_subgroup_that_is_not_normal_is_never_kept():
    """NotNormal raises afresh on each call, with the same witness, and
    leaves nothing kept."""
    G = g.dihedral(3)
    H = next(H for H in g.subgroup_lattice(G).subgroups if H.order == 2)
    kept = g.quotient.cache_info().currsize
    errors = []
    for _ in range(2):
        with pytest.raises(NotNormal) as err:
            g.quotient(G, H)
        errors.append(err.value)
    assert errors[0] is not errors[1]
    assert errors[0].witness == errors[1].witness
    x, h = errors[0].witness
    assert G.conj(x, h) not in set(H.elements)
    assert g.quotient.cache_info().currsize == kept


def test_kept_quotients_are_built_cold_after_the_census_clears_the_caches():
    G = corpus_group("Q8")
    N = g.make_subgroup(G, (0, 1))
    q = g.quotient(G, N)
    assert g.quotient(G, N) is q
    _clear_package_caches()
    assert g.quotient.cache_info().currsize == 0
    cold = g.quotient(G, N)
    assert cold is not q and cold.target is not q.target and cold == q
    assert g.quotient.cache_info().misses == 1


def test_quotient_coherence_c8():
    # C8/C2 then /C2 again is isomorphic to C8/C4
    G = g.cyclic(8)
    q1 = g.quotient(G, g.make_subgroup(G, (0, 4)))
    G2 = q1.target
    q2 = g.quotient(G2, g.make_subgroup(G2, (0, 2)))
    q_direct = g.quotient(G, g.make_subgroup(G, (0, 2, 4, 6)))
    assert are_isomorphic(q2.target, q_direct.target)


def test_cyclic_tower_2_3():
    t = g.cyclic_tower(2, 3)
    assert [G.order for G in t.stages] == [2, 4, 8]
    for i, link in enumerate(t.links):
        assert link.source == t.stages[i + 1]
        assert link.target == t.stages[i]
        # surjective homomorphism
        assert set(link.projection) == set(range(link.target.order))
        for a in link.source.elements():
            for b in link.source.elements():
                assert link.projection[link.source.mul(a, b)] == link.target.mul(
                    link.projection[a], link.projection[b]
                )


@pytest.mark.parametrize(
    "p,depth", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]
)
def test_cyclic_tower_links_are_the_canonical_quotients(p, depth):
    for q in g.cyclic_tower(p, depth).links:
        assert q == g.quotient(q.source, q.kernel)


def test_quotient_map_derives_the_kernel():
    C4, C2 = g.cyclic(4), g.cyclic(2)
    q = g.quotient_map(C4, C2, [0, 1, 0, 1])
    assert q.kernel == g.make_subgroup(C4, (0, 2))
    assert q.projection == (0, 1, 0, 1)


@pytest.mark.parametrize(
    "projection,message",
    [
        ((0, 0, 0, 0), "projection is not onto the previous stage"),
        ((0, 1, 0), "projection is not onto the previous stage"),
        ((1, 0, 0, 1), "projection is not a homomorphism"),
    ],
    ids=["not-onto", "short", "not-homomorphism"],
)
def test_quotient_map_and_make_tower_reject_a_bad_link(projection, message):
    C2, C4, C8 = g.cyclic(2), g.cyclic(4), g.cyclic(8)
    with pytest.raises(ValueError, match=f"^{message}$"):
        g.quotient_map(C4, C2, projection)
    top = g.cyclic_tower(2, 3).links[1]
    bad = g.QuotientMap(C4, g.make_subgroup(C4, (0,)), C2, projection)
    with pytest.raises(ValueError, match=f"^link 0: {message}$"):
        g.make_tower([C2, C4, C8], [bad, top])


def test_make_tower_rejects_a_wrong_kernel_or_source():
    t = g.cyclic_tower(2, 3)
    q = t.links[1]
    trivial = g.make_subgroup(q.source, (0,))
    wrong = g.QuotientMap(q.source, trivial, q.target, q.projection)
    message = "differs from the quotient map of the stages$"
    with pytest.raises(ValueError, match=f"^link 1 {message}"):
        g.make_tower(t.stages, [t.links[0], wrong])
    V4 = g.direct_product(g.cyclic(2), g.cyclic(2))
    elsewhere = g.quotient_map(V4, t.stages[0], t.links[0].projection)
    with pytest.raises(ValueError, match=f"^link 0 {message}"):
        g.make_tower(t.stages, [elsewhere, t.links[1]])
    assert g.make_tower(t.stages, t.links) == t


def test_cyclic_tower_depth_1():
    t = g.cyclic_tower(3, 1)
    assert t.depth == 1
    assert t.links == ()


def test_cyclic_tower_link_generator():
    t = g.cyclic_tower(2, 2)
    assert t.links[0].projection[1] == 1  # generator of C4 maps to generator of C2


def test_cyclic_tower_not_prime():
    with pytest.raises(NotPrime):
        g.cyclic_tower(4, 2)


def test_tower_kernel_sizes_multiply():
    t = g.cyclic_tower(2, 3)
    ks = [link.kernel.order for link in t.links]
    assert ks[0] * ks[1] == t.stages[-1].order // t.stages[0].order


def test_tower_composite_projection():
    t = g.cyclic_tower(2, 3)
    q = compose_quotients(t.links[0], t.links[1])
    assert q.projection == tuple(x % 2 for x in range(8))
    assert q.kernel.elements == (0, 2, 4, 6)
    assert g.cyclic_tower(2, 3) is t  # the tower is built once


def test_class_preimages_are_the_inflated_orbit_classes():
    """Inflating the orbit of class c along a link gives one orbit, of
    the class the preimage table gives for c, stabilized at point 0 by
    the preimage of the class representative."""
    for name, kernel in [("C8", (0, 4)), ("D4", (0, 5)), ("S3", (0, 3, 4))]:
        G = corpus_group(name)
        q = g.quotient(G, g.make_subgroup(G, kernel))
        table = g.class_preimages(q)
        assert len(table) == g.subgroup_lattice(q.target).num_classes
        for c, (pre, cls) in enumerate(table):
            X = gs.inflate(gs.orbit_gset(q.target, c), q)
            assert len(X.orbits()) == 1
            assert tuple(sorted(X.point_stabilizers[0])) == pre
            assert orbit_class_multiset(X) == (cls,)


def test_corpus_is_complete_and_distinct():
    gs = corpus_groups()
    assert len(gs) == 24
    for (n1, G1), (n2, G2) in itertools.combinations(gs, 2):
        if G1.order == G2.order:
            assert not are_isomorphic(G1, G2), (n1, n2)


def test_quaternion_and_dicyclic_structure():
    Q8 = corpus_group("Q8")
    assert sorted(element_order(Q8, a) for a in Q8.elements()) == [1, 2] + [4] * 6
    D = corpus_group("Dic3")
    assert D.order == 12
    # unique element of order 2 in a dicyclic group
    assert sum(1 for a in D.elements() if element_order(D, a) == 2) == 1


def test_find_isomorphism_detects():
    assert are_isomorphic(g.cyclic(4), g.cyclic(4))
    assert not are_isomorphic(g.cyclic(4), g.direct_product(g.cyclic(2), g.cyclic(2)))
    assert not are_isomorphic(corpus_group("D6"), corpus_group("A4"))


def test_memoised_hashes_agree_on_equal_values():
    G1, G2 = g.cyclic(6), g.cyclic(6)
    hash(G1)  # G1 memoises first; G2 still computes its own
    assert G1 == G2 and hash(G2) == hash(G1) == hash((G1.mult,))
    X1 = coset_gset(G1, (0, 3))
    X2 = gs.GSet(G2, tuple(tuple(row) for row in X1.action))
    hash(X2)
    assert X1 is not X2 and X1 == X2 and hash(X1) == hash(X2)
    assert len({X1, X2}) == 1
    T1, T2 = g.cyclic_tower(2, 3), g.cyclic_tower(2, 3)
    hash(T1)
    assert T1 == T2 and hash(T2) == hash(T1)
    q1 = g.quotient(G1, g.make_subgroup(G1, (0, 3)))
    # quotient keeps its maps, so the second is built apart from it
    q2 = g.quotient_map(G2, g.cyclic(3), q1.projection)
    hash(q1)
    assert q1 is not q2 and q1 == q2 and hash(q2) == hash(q1)
