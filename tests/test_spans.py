import gc
import inspect
import itertools
import random
from collections import Counter
from functools import lru_cache

import pytest

from profspan import groups as g
from profspan import gsets as gs
from profspan import mackey as mk
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
    conjugation_generators_oracle,
    coproduct,
    coset_gset,
    double_coset_count,
    empty_gset,
    endpoint_keys,
    groups_of_order_at_most,
    hom_gset,
    identity_map,
    identity_span,
    image_terms,
    inflated_keys_oracle,
    inverse_map,
    is_iso,
    law_holds_oracle,
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

# Groups beyond the corpus with orbits of _double_cosets on which the
# second leg point t0·h·K2 differs from h·t0·K2, which no corpus group
# has: 5 orbits of S4 and 1 of D8.  On 4 of those of S4, h·t0 would give
# a pair off the orbit or with the wrong stabilizer, so the order of that
# product is tested; on the others it gives another valid pair.
BEYOND_CORPUS = {
    "S4": lambda: g.from_permutations([(1, 2, 3, 0), (1, 0, 2, 3)]),
    "D8": lambda: g.dihedral(8),
}
WITH_BEYOND_CORPUS = [name for name, _ in corpus_groups()] + list(BEYOND_CORPUS)


def _group(name):
    """The corpus group or the group of BEYOND_CORPUS of that name."""
    return BEYOND_CORPUS[name]() if name in BEYOND_CORPUS else corpus_group(name)


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
                X = coset_gset(G, H.elements)
                Y = coset_gset(G, K.elements)
                assert len(sp.span_basis(X, Y)) == span_basis_count_oracle(
                    G, H.elements, K.elements
                ), (name, H.elements, K.elements)


def test_span_basis_counts_are_double_cosets_for_free_source():
    # with a trivial subgroup on one side the oracle is the plain
    # double-coset count
    for name, G in groups_of_order_at_most(8):
        lat = g.subgroup_lattice(G)
        free = coset_gset(G, (0,))
        for K in lat.subgroups:
            Y = coset_gset(G, K.elements)
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
    """The identity key of every canonical orbit (identity_key) and the
    reversed key of every orbit key, read by pair_key from point 0 of the
    apex, whose stabilizer is the class representative, are the keys
    canonical_key finds from the whole apex, in each corpus group as given
    and with its elements renumbered."""
    G = corpus_group(name)
    if relabel:
        G = _relabelled(G, 7)
    n = g.subgroup_lattice(G).num_classes
    orbits = [gs.orbit_gset(G, c) for c in range(n)]
    for c, X in enumerate(orbits):
        pts = X.points()
        assert sp.identity_key(G, c) == canonical_key(X, 0, pts, pts, X, X)
    for c1, c2, (a, legL, legR) in sp.orbit_keys(G):
        X, Y = orbits[c1], orbits[c2]
        reversed_key = canonical_key(orbits[a], 0, legR, legL, Y, X)
        assert sp.pair_key(a, Y, legR[0], X, legL[0]) == reversed_key


def _composite_entries(G):
    """Every (k1, k2, composite) with k1, k2 basis keys of spans X -> Y and
    Y -> Z, for X, Y and Z the canonical orbits: the pairs the exhaustive
    Mackey oracle composes, of which check_mackey composes those with both
    apexes at an end.  Each composite is an entry of spans.composites of
    orbit_basis(G, c1, c2) against orbit_basis(G, c2, c3), whose firsts
    mix apex classes, mapped back to (key, mult) pairs through
    orbit_basis(G, c1, c3)."""
    n = g.subgroup_lattice(G).num_classes
    out = []
    for c1, c2, c3 in itertools.product(range(n), repeat=3):
        firsts, seconds = sp.orbit_basis(G, c1, c2), sp.orbit_basis(G, c2, c3)
        basis = sp.orbit_basis(G, c1, c3)
        grid = sp.composites(G, c1, c3, firsts, seconds)
        assert len(grid) == len(firsts) * len(seconds)
        for (k1, k2), entry in zip(itertools.product(firsts, seconds), grid):
            out.append((k1, k2, tuple((basis[p], m) for p, m in entry)))
    return out


# Every composable pair is checked for groups of order <= 8, except where a
# group has more than ALL_PAIRS_UP_TO (C2xC2xC2 has 33,480, about 5 s through
# the oracle); there, and for the larger groups, a seeded sample is.
ALL_PAIRS_UP_TO = 6000
SAMPLE_SMALL, SAMPLE_LARGE = 1500, 200


@pytest.mark.parametrize("relabel_seed", [None, 11], ids=["given", "relabelled"])
@pytest.mark.parametrize("name", WITH_BEYOND_CORPUS)
def test_compose_keys_match_pullback_oracle(name, relabel_seed):
    """Entries of spans.composites against the composite of the pullback
    G-set, every one or a seeded sample."""
    G = _group(name)
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    entries = _composite_entries(G)
    if G.order > 8:
        entries = random.Random(name).sample(entries, min(len(entries), SAMPLE_LARGE))
    elif len(entries) > ALL_PAIRS_UP_TO:
        entries = random.Random(name).sample(entries, SAMPLE_SMALL)
    for k1, k2, composite in entries:
        assert composite == compose_keys_oracle(G, k2, k1), (k2, k1)


@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_compose_keys_match_the_per_element_oracle(name):
    """Every entry of spans.composites between the orbits of the given
    group, and a seeded sample of them in a relabelled copy: the W-orbit
    tables key each fibre orbit as least_key does from leg tables of
    length |G|."""
    G = corpus_group(name)
    for k1, k2, composite in _composite_entries(G):
        assert composite == compose_keys_per_element_oracle(G, k2, k1), (k2, k1)
    H = _relabelled(G, 17)
    entries = _composite_entries(H)
    entries = random.Random(name).sample(entries, min(len(entries), 100))
    for k1, k2, composite in entries:
        assert composite == compose_keys_per_element_oracle(H, k2, k1), (k2, k1)


@pytest.mark.parametrize("order", [64, 81, 128])
def test_compose_keys_match_the_per_element_oracle_on_cyclic_endpoint_keys(order):
    """A seeded sample of the endpoint-key pairs that the span and Mackey
    checks of deep cyclic towers compose, where the pullback oracle is
    slow, each as a grid of one entry."""
    G = g.cyclic(order)
    n = g.subgroup_lattice(G).num_classes
    pairs = [
        (c1, c3, k2, k1)
        for c1, c2, c3 in itertools.product(range(n), repeat=3)
        for k1 in endpoint_keys(G, c1, c2)
        for k2 in endpoint_keys(G, c2, c3)
    ]
    for c1, c3, k2, k1 in random.Random(order).sample(pairs, 200):
        (entry,) = sp.composites(G, c1, c3, (k1,), (k2,))
        basis = sp.orbit_basis(G, c1, c3)
        composite = tuple((basis[p], m) for p, m in entry)
        assert composite == compose_keys_per_element_oracle(G, k2, k1), (k2, k1)


@pytest.mark.parametrize("relabel_seed", [None, 19], ids=["given", "relabelled"])
@pytest.mark.parametrize("name", ["C4", "S3", "C2xC2", "D4", "Q8", "A4"])
def test_composites_of_shuffled_mixed_and_empty_grids(name, relabel_seed):
    """A grid is the composites of its pairs whatever the order, repeats
    and apex classes of its keys: firsts that mix apex classes in a
    seeded shuffled order, with a repeat, give per entry the per-element
    oracle's composite, and equal entries are one tuple.  A grid with no
    firsts or no seconds is empty."""
    G = corpus_group(name)
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    n = g.subgroup_lattice(G).num_classes
    rng = random.Random(name)
    for c1, c2, c3 in itertools.product(range(n), repeat=3):
        firsts, seconds = sp.orbit_basis(G, c1, c2), sp.orbit_basis(G, c2, c3)
        assert sp.composites(G, c1, c3, (), seconds) == ()
        assert sp.composites(G, c1, c3, firsts, ()) == ()
        firsts = rng.sample(firsts, len(firsts)) + [firsts[0]]
        seconds = rng.sample(seconds, len(seconds))
        grid = sp.composites(G, c1, c3, firsts, seconds)
        basis = sp.orbit_basis(G, c1, c3)
        for (k1, k2), entry in zip(itertools.product(firsts, seconds), grid):
            composite = tuple((basis[p], m) for p, m in entry)
            assert composite == compose_keys_per_element_oracle(G, k2, k1), (k2, k1)
        assert len({id(entry) for entry in grid}) == len(set(grid))


@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_composites_share_fibre_buckets_across_start_orbits(monkeypatch, name):
    """The grids of burnside_mackey, in its order, on a relabelled copy of
    each corpus group: one set of seconds, the level spans of the orbit of
    c1 into the point, against the reversed keys from every start orbit c2.
    Every end is the point, whose least pair is read with no carrier.  Each
    entry is the per-element oracle's composite, and each fibre bucket is
    built once for the group: one double-coset table read per distinct
    (apex class of k1, apex class of k2, left leg of k2), though the
    buckets of a second key are read from grids of several start orbits."""
    G = _relabelled(corpus_group(name), 23)
    n = g.subgroup_lattice(G).num_classes
    pt = n - 1
    orbits = [gs.orbit_gset(G, c) for c in range(n)]
    reads = []
    double_cosets = sp._double_cosets

    def counted(H, a, c2):
        reads.append((a, c2))
        return double_cosets(H, a, c2)

    monkeypatch.setattr(sp, "_double_cosets", counted)
    entries, buckets = [], set()
    for c1 in range(n):
        seconds = sp.orbit_basis(G, c1, pt)
        for c2 in range(n):
            firsts = [
                sp.pair_key(a, orbits[c2], legR[0], orbits[c1], legL[0])
                for a, legL, legR in sp.orbit_basis(G, c1, c2)
            ]
            grid = sp.composites(G, c2, pt, firsts, seconds)
            assert len(grid) == len(firsts) * len(seconds)
            basis = sp.orbit_basis(G, c2, pt)
            for (k1, k2), entry in zip(itertools.product(firsts, seconds), grid):
                entries.append((k1, k2, tuple((basis[p], m) for p, m in entry)))
                buckets.add((k1[0], k2[0], k2[1]))
    assert len(reads) == len(buckets)
    for k1, k2, composite in entries:
        assert composite == compose_keys_per_element_oracle(G, k2, k1), (k2, k1)


def _endpoint_pairs(G, c1, c2, c3):
    """Every (k1, k2) of endpoint keys from the orbit of c1 to that of c2
    and from there to that of c3, in order."""
    return list(
        itertools.product(endpoint_keys(G, c1, c2), endpoint_keys(G, c2, c3))
    )


def _conjugations(G, c):
    """The conjugation keys [G/R <-id- G/R -> G/R], gR -> gnR, of class c,
    one per n in N(R)/R, keyed by the min-over-N(R)/R oracle from leg
    tables of length |G|."""
    cls = gs.tables(G).classes[c]
    return [
        least_key(G, c, 0, cls.coset, [cls.coset[row[n]] for row in G.mult])
        for n in cls.normaliser
    ]


@lru_cache(maxsize=None)
def _weyl_orbits(G, c1, c2):
    """The orbits of the endpoint keys from the orbit of c1 to that of c2
    under k ↦ c_w ∘ k, for every w in W(c2), each as (its first key in
    basis order, the set of its keys), in basis order: every c_w from
    _conjugations and every composite from the per-element oracle, each
    one key of multiplicity 1."""
    conjugations = _conjugations(G, c2)
    orbits, seen = [], set()
    for k in endpoint_keys(G, c1, c2):
        if k in seen:
            continue
        orbit = set()
        for w in conjugations:
            ((key, mult),) = compose_keys_per_element_oracle(G, w, k)
            assert mult == 1
            orbit.add(key)
        orbits.append((k, orbit))
        seen |= orbit
    return tuple(orbits)


def _law_first_keys(G, c1, c2, c3):
    """The first keys of law_table(G, c1, c3)[c2], in basis order: the
    generator conjugations of c2 when c1 = c2, every endpoint key into it
    when c2 = c3, and otherwise the least key of each orbit of those
    endpoint keys under W(c2) (_weyl_orbits)."""
    if c1 == c2:
        basis = sp.orbit_basis(G, c2, c2)
        return [basis[p] for p in sp.conjugation_generators(G, c2)]
    if c2 == c3:
        return endpoint_keys(G, c1, c2)
    return [k for k, _ in _weyl_orbits(G, c1, c2)]


def _law_positions(G, c1, c2, c3):
    """The (firsts, seconds) of law_table(G, c1, c3)[c2] by its selection
    rule: the positions of the generator conjugations of c2 against those
    of the endpoint keys out of it when c1 = c2, of the endpoint keys into
    it against the generator conjugations when c2 = c3 and c1 ≠ c2, and
    otherwise of the least endpoint key into it of each orbit of W(c2)
    (_law_first_keys) against those of the endpoint keys out of it."""
    basis = sp.orbit_basis(G, c1, c2)
    firsts = tuple(map(basis.index, _law_first_keys(G, c1, c2, c3)))
    if c2 == c3 != c1:
        return firsts, sp.conjugation_generators(G, c2)
    return firsts, sp.endpoint_positions(G, c2, c3)


def _law_key_pairs(G, c1, c2, c3):
    """The (k1, k2) of law_table(G, c1, c3)[c2], in its order: the
    generator conjugations of c2 against the endpoint keys out of it
    when c1 = c2, the endpoint keys into it against them when c2 = c3 and
    c1 ≠ c2, and otherwise the first keys of _law_first_keys against the
    endpoint keys out of it."""
    firsts = _law_first_keys(G, c1, c2, c3)
    if c2 == c3 != c1:
        basis = sp.orbit_basis(G, c2, c2)
        gens = [basis[p] for p in sp.conjugation_generators(G, c2)]
        return list(itertools.product(firsts, gens))
    return list(itertools.product(firsts, endpoint_keys(G, c2, c3)))


@pytest.mark.parametrize("relabel_seed", [None, 13], ids=["given", "relabelled"])
@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_endpoint_composites_match_compose_keys(name, relabel_seed):
    """Every grid entry of the law table of every class pair is the
    composite of its one pair alone, the pairs laid out by the selection
    rule of law_table (_law_positions, whose firsts between three distinct
    classes the per-element oracle finds), a triple without pairs is
    None, and equal entries of one table, all composed in one build of
    the group, are one tuple (spans.composites)."""
    G = corpus_group(name)
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    n = g.subgroup_lattice(G).num_classes
    for c1, c3 in itertools.product(range(n), repeat=2):
        table = list(sp.law_table(G, c1, c3))
        assert len(table) == n
        for c2, entry in enumerate(table):
            firsts, seconds = _law_positions(G, c1, c2, c3)
            if not firsts or not seconds:
                assert entry is None
                continue
            assert entry[:2] == (firsts, seconds)
            pairs = _law_key_pairs(G, c1, c2, c3)
            assert len(entry[2]) == len(pairs) == len(firsts) * len(seconds)
            for (k1, k2), terms in zip(pairs, entry[2]):
                assert (terms,) == sp.composites(G, c1, c3, (k1,), (k2,)), (k1, k2)
        entries = [terms for entry in table if entry for terms in entry[2]]
        assert len({id(entry) for entry in entries}) == len(set(entries))


@pytest.mark.parametrize("relabel_seed", [None, 13], ids=["given", "relabelled"])
@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_law_grids_walk_every_triple_with_law_pairs(name, relabel_seed):
    """law_grids yields exactly the class triples whose law pairs have
    firsts and seconds, in lexicographic order, each with those pairs and
    the composites of the keys at them, firsts against seconds."""
    G = corpus_group(name)
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    n = g.subgroup_lattice(G).num_classes
    walked = list(sp.law_grids(G))
    triples = itertools.product(range(n), repeat=3)
    assert [w[:3] for w in walked] == [t for t in triples if all(_law_positions(G, *t))]
    for c1, c2, c3, firsts, seconds, grid in walked:
        assert (firsts, seconds) == _law_positions(G, c1, c2, c3)
        b12, b23 = sp.orbit_basis(G, c1, c2), sp.orbit_basis(G, c2, c3)
        expected = sp.composites(
            G, c1, c3, [b12[p] for p in firsts], [b23[p] for p in seconds]
        )
        assert grid == expected, (c1, c2, c3)


@pytest.mark.parametrize("order", [64, 81, 128])
def test_endpoint_composites_match_the_per_element_oracle_on_cyclic_groups(order):
    """A seeded sample of the law-table grid entries that the span and
    Mackey checks of deep cyclic towers read, mapped back to keys, against
    the per-element oracle."""
    G = g.cyclic(order)
    n = g.subgroup_lattice(G).num_classes
    entries = [
        (c1, c2, c3, i, pair)
        for c1, c2, c3 in itertools.product(range(n), repeat=3)
        for i, pair in enumerate(_law_key_pairs(G, c1, c2, c3))
    ]
    for c1, c2, c3, i, (k1, k2) in random.Random(order).sample(entries, 200):
        entry = sp.law_table(G, c1, c3)[c2][2][i]
        basis = sp.orbit_basis(G, c1, c3)
        composite = tuple((basis[j], m) for j, m in entry)
        assert composite == compose_keys_per_element_oracle(G, k2, k1), (k2, k1)


@pytest.mark.parametrize("relabel_seed", [None, 17], ids=["given", "relabelled"])
@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_generator_conjugations_close_to_every_endpoint_key_of_an_orbit(
    name, relabel_seed
):
    """For every class c, the endpoint keys from the orbit of c to itself
    are its |N(R)/R| conjugations, and the generator conjugations, composed
    from the identity by spans.composites, reach every one of them, each
    composite one key of multiplicity 1."""
    G = corpus_group(name)
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    for c in range(g.subgroup_lattice(G).num_classes):
        basis = sp.orbit_basis(G, c, c)
        ends = {basis[p] for p in sp.endpoint_positions(G, c, c)}
        assert ends == set(_conjugations(G, c))
        assert len(ends) == len(gs.tables(G).classes[c].normaliser)
        gens = [basis[p] for p in sp.conjugation_generators(G, c)]
        assert set(gens) <= ends
        X = gs.orbit_gset(G, c)
        reached = [sp.pair_key(c, X, 0, X, 0)]
        for k in reached:
            for (p, m), in sp.composites(G, c, c, (k,), gens):
                assert m == 1
                if basis[p] not in reached:
                    reached.append(basis[p])
        assert set(reached) == ends, (name, c)


@pytest.mark.parametrize("G", [
    *(
        _relabelled(G, seed) if seed is not None else G
        for _, G in corpus_groups()
        for seed in (None, 17)
    ),
    *(g.cyclic(2**k) for k in range(6, 11)),
], ids=[
    *(f"{name}-{kind}" for name, _ in corpus_groups() for kind in ("given", "relabelled")),
    *(f"C{2**k}" for k in range(6, 11)),
])
def test_generator_conjugations_match_the_table_pick(G):
    """spans.conjugation_generators, which walks W = N(R)/R multiplying on
    demand, picks the generators that groups.generating_set picks on W's
    whole table (conjugation_generators_oracle), for every class."""
    for c in range(g.subgroup_lattice(G).num_classes):
        assert sp.conjugation_generators(G, c) == conjugation_generators_oracle(G, c)


@pytest.mark.parametrize("G", [
    *(
        _relabelled(G, seed) if seed is not None else G
        for _, G in corpus_groups()
        for seed in (None, 19)
    ),
    g.cyclic(64),
    g.cyclic(128),
], ids=[
    *(f"{name}-{kind}" for name, _ in corpus_groups() for kind in ("given", "relabelled")),
    "C64",
    "C128",
])
def test_weyl_orbits_of_the_kept_firsts_cover_every_endpoint_key(G):
    """For classes c1 ≠ c2, the firsts of every triple (c1, c2, c3) with
    c3 ≠ c2, moved by every element w of W(c2) as c_w ∘ k (the conjugations
    of _conjugations, each composite by the per-element oracle), reach
    every endpoint key from the orbit of c1 to that of c2: the law on
    those firsts gives it on every endpoint key (spans.law_table)."""
    n = g.subgroup_lattice(G).num_classes
    kept = 0
    for c1, c2 in itertools.product(range(n), repeat=2):
        if c1 == c2:
            continue
        basis = sp.orbit_basis(G, c1, c2)
        conjugations = _conjugations(G, c2)
        ends = set(endpoint_keys(G, c1, c2))
        for c3 in range(n):
            entry = sp.law_table(G, c1, c3)[c2]
            if c3 == c2 or entry is None:
                continue
            reached = set()
            for p in entry[0]:
                for w in conjugations:
                    ((key, mult),) = compose_keys_per_element_oracle(G, w, basis[p])
                    assert mult == 1
                    reached.add(key)
            assert reached == ends, (c1, c2, c3)
            kept += len(entry[0])
    assert kept or n == 1


def test_compose_keys_keeps_nothing():
    """spans.composites has no cache, and its fibre buckets and its table
    of distinct composites are kept only for the group last composed:
    once another group is composed, nothing refers to any part of the
    first group's buckets or to that table but those parts and the test
    itself (the composites in it are the law tables' entries)."""
    assert not hasattr(sp.composites, "cache_info")
    A = _relabelled(corpus_group("Q8"), 31)
    B = _relabelled(corpus_group("S3"), 31)
    mk.check_mackey(mk.burnside_mackey(A))
    group, store, distinct = sp._fibres
    assert group is gs.tables(A).group and store and distinct
    parts = [store, distinct]
    for fibres in store.values():
        parts.append(fibres)
        for buckets in fibres.values():
            parts += [buckets, *buckets.values()]
    mk.burnside_mackey(B)
    assert sp._fibres[0] is gs.tables(B).group
    assert sp._fibres[1] is not store and sp._fibres[2] is not distinct
    inside = {id(part) for part in parts} | {id(parts)}
    for referrer in gc.get_referrers(*parts):
        assert id(referrer) in inside or inspect.isframe(referrer), type(referrer)


def test_a_warm_rerun_of_the_law_checks_composes_nothing(monkeypatch):
    """A second check_mackey on the same group, and a second limit-span
    and colim-span on the same tower, read every composite from the
    tables the first run built: spans.composites is not called."""
    calls = []
    compose = sp.composites

    def counted(*args):
        calls.append(args)
        return compose(*args)

    monkeypatch.setattr(sp, "composites", counted)
    M = mk.burnside_mackey(_relabelled(corpus_group("D4"), 29))
    tower = g.cyclic_tower(2, 4)
    assert mk.check_mackey(M)
    assert vf.verify_limit_span(tower) and vf.verify_colim_span(tower)
    assert calls
    calls.clear()
    assert mk.check_mackey(M)
    assert vf.verify_limit_span(tower) and vf.verify_colim_span(tower)
    assert calls == []


@pytest.mark.parametrize("name", WITH_BEYOND_CORPUS)
def test_double_coset_table_matches_an_independent_count(name):
    """For every pair of class representatives K1, K2 the table lists the
    (K1, K2) double cosets, each as a K1-orbit on G/K2 given by its least
    point y, with the class c of its stabilizer and a pair of points
    (p1, p2) of G/K1 × G/K2 that lies in the G-orbit of (K1, y) and whose
    stabilizer is exactly the class-c representative; the orbits, the
    cosets and the stabilizers are recomputed here from the
    multiplication table alone."""
    G = _group(name)
    lat, classes = g.subgroup_lattice(G), gs.tables(G).classes

    def cosets(c):
        # the coset of each point of the canonical orbit of class c, from
        # the least element of the point, checked against its elements
        K = lat.class_rep(c).elements
        out = [frozenset(G.mul(h, k) for k in K) for h in classes[c].mins]
        for p, coset in enumerate(out):
            assert all(classes[c].coset[x] == p for x in coset)
        return out

    for c1, c2 in itertools.product(range(lat.num_classes), repeat=2):
        K1, K2 = lat.class_rep(c1).elements, lat.class_rep(c2).elements
        points1, points2 = cosets(c1), cosets(c2)
        table = sp._double_cosets(G, c1, c2)
        assert len(table) == double_coset_count(G, K1, K2)
        everything = {frozenset(G.mul(x, k) for k in K2) for x in G.elements()}
        covered: set = set()
        sizes = []
        for y, c, p1, p2 in table:
            hK2 = points2[y]
            orbit = {frozenset(G.mul(a, x) for x in hK2) for a in K1}
            assert y == min(map(points2.index, orbit))
            assert min(hK2) == min(map(min, orbit))
            stab = [a for a in K1 if frozenset(G.mul(a, x) for x in hK2) == hK2]
            assert len(orbit) * len(stab) == len(K1)
            P1, P2 = points1[p1], points2[p2]
            assert any(
                frozenset(G.mul(t, k) for k in K1) == P1
                and frozenset(G.mul(t, x) for x in hK2) == P2
                for t in G.elements()
            )
            fixing = tuple(
                t
                for t in G.elements()
                if frozenset(G.mul(t, x) for x in P1) == P1
                and frozenset(G.mul(t, x) for x in P2) == P2
            )
            assert fixing == lat.class_rep(c).elements
            covered |= orbit
            sizes.append(len(orbit))
        assert sum(sizes) == G.order // len(K2) == len(everything)
        assert covered == everything


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
                coset_gset(G, lat.class_rep(c).elements),
                coset_gset(G, lat.class_rep(d).elements),
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
            K = coset_gset(S3, lat.class_rep(i).elements)
            H = coset_gset(S3, lat.class_rep(j).elements)
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
        transfers = [k for k in endpoint_keys(G, c1, c2) if k[0] == c1]
        restrictions = [k for k in endpoint_keys(G, c2, c3) if k[0] == c3]
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
    source group that the law scan tests (verify._span_functor_check
    gives the proof).  A pair through an orbit's conjugation to itself,
    which the scan tests only at generators, has an isomorphism for f or
    h, and every functor keeps its pullback.  A transfer c_w ∘ k1 into Z
    that the scan does not test as a first, k1 one that it does, has
    with k2 the cospan of (k1, k2 ∘ c_w) up to the automorphism w of Z,
    and k2 ∘ c_w is a restriction.  The witness of a failure is
    the cospan X -f-> Z <-h- Y as (X, Y, Z actions, f and h values)."""
    G = F.src_group
    orbits = _orbits(G)
    failing = set(vf._law_failures(_table(type(F), F.q)))
    for c1, c2, c3, k1, k2, f, h in _transfer_restriction_pairs(G, orbits):
        if (c1, c2, c3, k1, k2) in failing:
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
    k2 = [Z <-h- Y -> Y] between orbits, the law of Span(F) holds on
    (k1, k2) (law_holds_oracle) exactly when F keeps the pullback of f
    and h, decided on the built square, and the law scan of the span
    checks (verify._law_failures), which tests only some of these pairs,
    yields a pair iff the law fails on one of them.  Fixed points and
    inflation keep every pullback; the N-orbit quotient does not."""
    cospans = failing = 0
    for name in LAW_GROUPS:
        for q in _quotients(corpus_group(name)):
            F = functor(q)
            G = F.src_group
            orbits = _orbits(G)
            table = _table(functor, q)
            broken = False
            for c1, c2, c3, k1, k2, f, h in _transfer_restriction_pairs(G, orbits):
                P, p1, p2 = pullback(f, h)
                kept = square_is_pullback(*map(F.map, (p1, p2, f, h)))
                law = law_holds_oracle(table, c1, c2, c3, k1, k2)
                assert law == kept, (name, q.kernel.elements, c1, c2, c3, k1, k2)
                cospans += 1
                failing += not kept
                broken |= not kept
            scanned = next(vf._law_failures(table), None) is not None
            assert scanned == broken, (name, q.kernel.elements)
    assert (cospans, failing) == EXPECTED_COSPANS[functor]


def _replaced_images(table):
    """Copies of table with one image of an endpoint key replaced by
    another basis span of its image hom, one copy per such replacement."""
    G, n = table.source, len(table.images)
    for c1, c2 in itertools.product(range(n), repeat=2):
        m1, m2 = table.images[c1], table.images[c2]
        if None in (m1, m2):
            continue
        width = len(sp.orbit_basis(table.target, m1, m2))
        for p in sp.endpoint_positions(G, c1, c2):
            for j in range(width):
                if j == table.terms[c1][c2][p]:
                    continue
                terms = [list(row) for row in table.terms]
                row = list(terms[c1][c2])
                row[p] = j
                terms[c1][c2] = tuple(row)
                yield table._replace(terms=tuple(map(tuple, terms)))


def _law_failures_oracle(table):
    """The endpoint-key pairs (c1, c2, c3, k1, k2) on which the law
    composed key by key fails, in lexicographic order."""
    G, n = table.source, len(table.images)
    return (
        (c1, c2, c3, k1, k2)
        for c1, c2, c3 in itertools.product(range(n), repeat=3)
        for k1, k2 in _endpoint_pairs(G, c1, c2, c3)
        if not law_holds_oracle(table, c1, c2, c3, k1, k2)
    )


def _law_scan_fails(table) -> bool:
    """Whether the law scan of the span checks (verify._law_failures)
    yields a pair, checked against the law composed key by key: every
    pair it yields fails that law, and on a table that keeps identities,
    as the span checks test before the law, it yields one iff some pair
    of endpoint keys fails."""
    found = list(vf._law_failures(table))
    for failure in found:
        assert not law_holds_oracle(table, *failure), failure
    if _keeps_identities(table):
        assert bool(found) == (next(_law_failures_oracle(table), None) is not None)
    return bool(found)


@pytest.mark.parametrize("functor", [
    FixedPointsGSetFunctor, InflationGSetFunctor, OrbitQuotientFunctor
])
def test_law_failures_match_the_per_key_law(functor):
    """The law read by position from the law grids fails only on pairs on
    which the law composed key by key fails, and on a table that keeps
    identities it fails iff that law fails on some pair of endpoint keys
    (_law_scan_fails): on the tables of the links of tower 2,3 and of the
    corpus groups of order at most 6 with each normal subgroup, and on
    each copy of the tower's tables with the image of an endpoint key
    replaced, which may send it to a key that is not an endpoint key."""
    quotients = list(g.cyclic_tower(2, 3).links) + [
        q for name in LAW_GROUPS[:-2] for q in _quotients(corpus_group(name))
    ]
    failures = sum(_law_scan_fails(_table(functor, q)) for q in quotients)
    assert bool(failures) == (functor is OrbitQuotientFunctor)
    replaced = 0
    for q in g.cyclic_tower(2, 3).links:
        for table in _replaced_images(_table(functor, q)):
            _law_scan_fails(table)
            replaced += 1
    assert replaced


def _identity_position(G, c):
    return sp.orbit_basis(G, c, c).index(sp.identity_key(G, c))


def _keeps_identities(table):
    """Whether every identity span goes to the identity span of its image
    orbit, or to zero with the orbit, as the span checks test before the
    law."""
    G, K = table.source, table.target
    return all(
        table.terms[c][c][_identity_position(G, c)]
        == (None if m is None else _identity_position(K, m))
        for c, m in enumerate(table.images)
    )


def _replaced_conjugations(table):
    """Copies of table with the image of one conjugation of an orbit, not
    the identity, replaced by another basis span of its image hom."""
    G = table.source
    for c, m in enumerate(table.images):
        if m is None:
            continue
        width = len(sp.orbit_basis(table.target, m, m))
        for p in sp.endpoint_positions(G, c, c):
            if p == _identity_position(G, c):
                continue
            for j in range(width):
                if j != table.terms[c][c][p]:
                    terms = [list(row) for row in table.terms]
                    terms[c][c] = tuple(j if i == p else t for i, t in enumerate(terms[c][c]))
                    yield table._replace(terms=tuple(map(tuple, terms)))


@pytest.mark.parametrize("functor", [
    FixedPointsGSetFunctor, InflationGSetFunctor, OrbitQuotientFunctor
])
def test_the_law_on_law_pairs_decides_as_every_endpoint_pair(functor):
    """The law read on the pairs of spans.law_table fails iff the law
    composed key by key fails on some pair of endpoint keys, and only on
    pairs where it does (_law_scan_fails): on the tables of
    test_law_failures_match_the_per_key_law, on their copies with the
    image of an endpoint key replaced that keep identities, and on copies
    of the tables of every normal quotient of C2xC2, S3 and D4 with the
    image of one conjugation replaced, whose right sides the law scan
    reads from the image group's law table where it lists the new image
    and composes where it does not (verify._right_sides)."""
    tables = [_table(functor, q) for q in g.cyclic_tower(2, 3).links]
    tables += [
        _table(functor, q) for name in LAW_GROUPS[:-2] for q in _quotients(corpus_group(name))
    ]
    for q in g.cyclic_tower(2, 3).links:
        tables += filter(_keeps_identities, _replaced_images(_table(functor, q)))
    conjugated = [
        table
        for name in ("C2xC2", "S3", "D4")
        for q in _quotients(corpus_group(name))
        for table in _replaced_conjugations(_table(functor, q))
    ]
    assert all(map(_keeps_identities, conjugated))
    outcomes = Counter(map(_law_scan_fails, tables + conjugated))
    assert outcomes[True] and outcomes[False]
    assert conjugated


def _image_composites_oracle(table, c1, c2, c3, firsts, seconds):
    """The right sides of the Span(F) law on one triple of law_grids(G),
    composed pair by pair (compose_keys_per_element_oracle) from the
    images of the keys, each as {position in orbit_basis(K, m1, m3):
    mult}, and {} where either image is zero."""
    K, images, terms = table.target, table.images, table.terms
    m1, m2, m3 = images[c1], images[c2], images[c3]
    b12, b23 = sp.orbit_basis(K, m1, m2), sp.orbit_basis(K, m2, m3)
    b13 = sp.orbit_basis(K, m1, m3)
    grid = []
    for p1, p2 in itertools.product(firsts, seconds):
        j1, j2 = terms[c1][c2][p1], terms[c2][c3][p2]
        if j1 is None or j2 is None:
            grid.append({})
            continue
        composite = compose_keys_per_element_oracle(K, b23[j2], b12[j1])
        grid.append({b13.index(k): m for k, m in composite})
    return grid


def _zero_one_image(table, c1, c2, p):
    """table with the image of key p of orbit_basis(G, c1, c2) zero."""
    terms = [list(row) for row in table.terms]
    terms[c1][c2] = tuple(None if i == p else j for i, j in enumerate(terms[c1][c2]))
    return table._replace(terms=tuple(map(tuple, terms)))


@pytest.mark.parametrize("which", ["inflation", "fixed points"])
def test_image_composites_with_one_zero_side_match_the_oracle(which):
    """On copies of the tables of the links of tower 2,3 with the image of
    one first, or one second, of a triple sent to zero, every right side
    of the law scan (verify._right_sides) is the composite of the images
    key by key, and () on a pair with exactly one zero side.  No functor
    of the package sends an endpoint key between two orbits with images
    to zero, so only such copies have those pairs; no law table lists a
    zero image, so the law scan composes their right sides."""
    one_zero = 0
    for q in g.cyclic_tower(2, 3).links:
        table = sp.span_images(q, which)
        G = table.source
        for c1, c2, c3, firsts, seconds, _ in sp.law_grids(G):
            if None in (table.images[c1], table.images[c2], table.images[c3]):
                continue
            for zeroed in (
                _zero_one_image(table, c1, c2, firsts[0]),
                _zero_one_image(table, c2, c3, seconds[-1]),
            ):
                for t1, t2, t3, f, s, _ in sp.law_grids(G):
                    if None in (table.images[t] for t in (t1, t2, t3)):
                        continue
                    rights = vf._right_sides(zeroed, t1, t2, t3, f, s)
                    expected = _image_composites_oracle(zeroed, t1, t2, t3, f, s)
                    assert list(map(dict, rights)) == expected
                row, column = zeroed.terms[c1][c2], zeroed.terms[c2][c3]
                one_zero += sum(
                    (row[p1] is None) != (column[p2] is None)
                    for p1 in firsts for p2 in seconds
                )
    assert one_zero


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
    lat = g.subgroup_lattice(G)
    orbits = _orbits(G)
    for i, L in enumerate(lat.subgroups):
        c = lat.class_of(L.elements)
        R = lat.class_rep(c)
        t0 = lat.conjugators[i]
        normaliser = [m for m in G.elements() if R.conjugate(m) == R]
        apex = coset_gset(G, L.elements)
        row = apex.action[0]
        maps = [f for X in orbits for f in hom_gset(apex, X)]
        for f, h in itertools.product(maps, repeat=2):
            lg, rg = [f.values[x] for x in row], [h.values[x] for x in row]
            key = least_key(G, c, t0, lg, rg)
            legs = (f.values, h.values, f.dst, h.dst)
            assert canonical_key(apex, 0, *legs) == key
            for m in normaliser:
                t = G.mul(m, t0)
                assert least_key(G, c, t, lg, rg) == key, (name, L.elements, m)
                assert canonical_key(apex, row[t], *legs) == key, (
                    name, L.elements, m,
                )


def _assert_least_points_recomputed(X):
    """Every W-orbit table of X against a recomputation from X.action,
    with W = N(R)/R found by conjugating R by every element."""
    G = X.group
    lat, classes = g.subgroup_lattice(G), gs.tables(G).classes
    for c in range(lat.num_classes):
        R = lat.class_rep(c)
        normaliser = [n for n in G.elements() if R.conjugate(n) == R]
        W = sorted({min(G.mul(n, r) for r in R.elements) for n in normaliser})
        table = X.least_points[c]
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
            coset = classes[c].coset
            assert all(
                table.legs[x][coset[a]] == X.action[x][a] for a in G.elements()
            )
            assert table.legs[x] == tuple(X.action[x][m] for m in classes[c].mins)


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
        table = image_terms(sp.span_images(F.q, F.name))
        sigma = [canonical_iso(F.obj(X)) for X in orbits]

        def tabulated(c1, c2, m):
            counts: Counter = Counter()
            for key, mult in m.terms:
                for k, c in table[c1, c2, key]:
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
    functor (groups, images and terms), and key for key span_from_maps
    of F on the legs renamed by canonical_iso; for inflation each image
    is the one key that categorical fixed points read through
    canonical_iso, as the basis object of orbit_basis itself."""
    for functor in (InflationGSetFunctor, FixedPointsGSetFunctor):
        table = sp.span_images(q, functor.name)
        assert table == as_span_images(span_images_generic(functor, q))
        assert image_terms(table) == span_images_oracle(functor(q))
        assert list(image_terms(table)) == sp.orbit_keys(functor(q).src_group)
    table = sp.span_images(q, "inflation")
    pre, pairs = inflated_keys_oracle(q)
    assert table.images == pre
    assert list(image_terms(table).items()) == [
        (qkey, ((gkey[2], 1),)) for qkey, gkey in pairs
    ]


def test_span_images_carry_their_source_and_image_groups():
    """The Span(F) table of q holds F's source group and the group of its
    images: (q.target, q.source) for inflation and (q.source, q.target)
    for fixed points, on every link of towers 2,3 and 3,2 and every
    normal quotient of the corpus groups of order at most 8."""
    links = [q for p, depth in [(2, 3), (3, 2)] for q in g.cyclic_tower(p, depth).links]
    quotients = [q for _, G in groups_of_order_at_most(8) for q in _quotients(G)]
    for q in links + quotients:
        table = sp.span_images(q, "inflation")
        assert (table.source, table.target) == (q.target, q.source)
        table = sp.span_images(q, "fixed points")
        assert (table.source, table.target) == (q.source, q.target)


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
