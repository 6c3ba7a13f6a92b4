import itertools
import math
import random
import re

import pytest

from profspan import groups as g
from profspan import gsets as gs
from profspan import spans as sp
from profspan.corpus import corpus_group, corpus_groups
from profspan.errors import GroupMismatch

from oracles import (
    adjunction_report,
    canonical_gset_oracle,
    canonical_iso,
    coproduct,
    coset_gset,
    counit_map,
    empty_gset,
    find_iso,
    fixed_points,
    groups_of_order_at_most,
    hom_gset,
    identity_map,
    inflate_map,
    is_injective,
    is_iso,
    orbit_class_multiset,
    point_gset,
    pullback,
    square_is_pullback,
    then_map,
    unit_map,
)
from test_spans import _relabelled


C2 = g.cyclic(2)
C4 = g.cyclic(4)
S3 = g.dihedral(3)


def regular(G):
    """G acting on itself by left multiplication."""
    return gs.make_gset(
        G, [[G.mul(gg, x) for gg in G.elements()] for x in G.elements()]
    )


def brute_force_homs(X, Y):
    """Oracle: filter all set maps for equivariance."""
    out = []
    for values in itertools.product(range(Y.size), repeat=X.size):
        if all(
            values[X.action[x][h]] == Y.action[values[x]][h]
            for x in X.points()
            for h in X.group.elements()
        ):
            out.append(values)
    return sorted(out)


def test_make_gset_rejects_bad_action():
    with pytest.raises(ValueError):
        gs.make_gset(C2, [[1, 0]])  # identity must fix every point
    with pytest.raises(ValueError):
        gs.make_gset(C4, [[0, 1], [1, 2]])


def _first_fault(group, action):
    """The error make_gset raised when it tested g·(h·x) = (gh)·x for
    every h: the first fault scanning g, then h, then x."""
    n = len(action)
    for gg in group.elements():
        if len({action[x][gg] for x in range(n)}) != n:
            return f"element {gg} does not act by a permutation"
        for h in group.elements():
            gh = group.mul(gg, h)
            for x in range(n):
                if action[action[x][h]][gg] != action[x][gh]:
                    return (
                        "action is not compatible with multiplication at "
                        f"(x={x}, g={gg}, h={h})"
                    )
    return None


@pytest.mark.parametrize(
    "name", [name for name, G in groups_of_order_at_most(8) if G.order > 1]
)
def test_make_gset_names_the_fault_of_the_scan_over_every_element(name):
    """make_gset tests compatibility on a generating set, and on a fault
    names the one a scan over every h names: on seeded corruptions of the
    sum of the canonical orbits (one value rewritten, or two points
    swapped under one element), and on a table compatible at one
    generator only; the sum itself is accepted."""
    G = corpus_group(name)
    X = gs.canonical_gset(G, range(g.subgroup_lattice(G).num_classes))
    assert gs.make_gset(G, X.action) == X
    rng = random.Random(name)
    faults = 0
    for _ in range(60):
        action = [list(row) for row in X.action]
        x, y, gg = rng.randrange(X.size), rng.randrange(X.size), rng.randrange(1, G.order)
        if rng.random() < 0.5:
            action[x][gg] = rng.randrange(X.size)
        else:
            action[x][gg], action[y][gg] = action[y][gg], action[x][gg]
        fault = _first_fault(G, action)
        if fault is None:
            assert gs.make_gset(G, action).action == tuple(map(tuple, action))
            continue
        faults += 1
        with pytest.raises(ValueError, match=re.escape(fault) + "$"):
            gs.make_gset(G, action)
    assert faults
    twisted = _compatible_at_one_generator(G)
    fault = _first_fault(G, twisted)
    assert (fault is None) == (len(g.generating_set(G.mult)) == 1)
    if fault is not None:
        with pytest.raises(ValueError, match=re.escape(fault) + "$"):
            gs.make_gset(G, twisted)


def _compatible_at_one_generator(G):
    """A table of permutations ρ(g) of 3 points, ρ(g) the identity on the
    subgroup ⟨s⟩ of the first generator s of groups.generating_set and a
    3-cycle c off it: ρ(g·s) = ρ(g), so g·(s·x) = (gs)·x for all g and x,
    and the table is an action only when ⟨s⟩ = G (else a, a⁻¹ off ⟨s⟩
    give c·c ≠ ρ(0))."""
    s = g.generating_set(G.mult)[0]
    inside = [0]
    while G.mul(inside[-1], s) != 0:
        inside.append(G.mul(inside[-1], s))
    return [[x if a in inside else (x + 1) % 3 for a in G.elements()] for x in range(3)]


def test_orbit_decompose_empty():
    assert orbit_class_multiset(empty_gset(C2)) == ()


def test_orbit_decompose_regular_c2():
    # one free orbit: class 0 is the trivial subgroup
    assert orbit_class_multiset(regular(C2)) == (0,)


def test_orbit_decompose_s3_points():
    # S3 = dihedral(3) acts on 3 points; stabilizers are the reflections
    X = coset_gset(S3, g.subgroup_lattice(S3).subgroups[1].elements)
    perm_action = gs.make_gset(
        S3,
        [[X.action[x][gg] for gg in S3.elements()] for x in range(3)],
    )
    lat = g.subgroup_lattice(S3)
    dec = orbit_class_multiset(perm_action)
    assert len(dec) == 1
    assert lat.class_rep(dec[0]).order == 2
    assert sum(S3.order // lat.class_rep(c).order for c in dec) == 3


def test_fixed_points_free_action_empty():
    q = g.quotient(C2, g.make_subgroup(C2, (0, 1)))
    fp = fixed_points(regular(C2), q)
    assert fp.size == 0 and fp.group.order == 1


def test_fixed_points_trivial_action_identity():
    X = gs.canonical_gset(C4, (2, 2))  # two fixed points
    q = g.quotient(C4, g.make_subgroup(C4, (0, 2)))
    fp = fixed_points(X, q)
    assert fp.size == X.size


def test_fixed_points_c4_mod_c2():
    # X = C4/C2: two points swapped by the generator; N = {0,2} acts trivially
    N = g.make_subgroup(C4, (0, 2))
    q = g.quotient(C4, N)
    X = coset_gset(C4, N.elements)
    fp = fixed_points(X, q)
    assert fp.size == 2
    assert fp.action[0][1] == 1  # residual C2 swaps them


def test_inflate_shapes_and_fixedness():
    q = g.quotient(C4, g.make_subgroup(C4, (0, 2)))
    X = regular(C2)
    infl = gs.inflate(X, q)
    assert infl.size == 2 and infl.group == C4
    # kernel acts trivially
    for x in infl.points():
        for n in q.kernel.elements:
            assert infl.action[x][n] == x
    assert gs.inflate(empty_gset(C2), q).size == 0


def test_inflate_group_mismatch():
    q = g.quotient(C4, g.make_subgroup(C4, (0, 2)))
    with pytest.raises(GroupMismatch):
        gs.inflate(regular(C4), q)


@pytest.mark.parametrize("relabel_seed", [None, 23], ids=["given", "relabelled"])
@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_orbit_classes_number_each_class_once(monkeypatch, name, relabel_seed):
    """On an emptied table store (gs.tables), the coset tables and every
    canonical orbit of G call groups.left_cosets once per subgroup class:
    the orbits are built from the tables.  Row 0 of each orbit is its
    class's coset table, and the orbit is the coset G-set of the class
    representative."""
    G = corpus_group(name)
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    lat = g.subgroup_lattice(G)
    calls = []
    left_cosets = gs.left_cosets

    def counted(*args):
        calls.append(args)
        return left_cosets(*args)

    monkeypatch.setattr(gs, "left_cosets", counted)
    gs.tables.cache_clear()
    classes = gs.tables(G).classes
    orbits = [gs.tables(G).orbit(c) for c in range(lat.num_classes)]
    assert len(calls) == len(classes) == lat.num_classes
    for c, (cls, X) in enumerate(zip(classes, orbits)):
        assert cls.coset == X.action[0]
        assert X == coset_gset(G, lat.class_rep(c).elements)


def test_inflation_is_built_once():
    t = g.cyclic_tower(2, 3)
    q = t.links[1]  # C8 -> C4
    X = gs.canonical_gset(t.stages[1], (0, 1))
    assert gs.inflate(X, q) is gs.inflate(X, q)
    assert gs.inflate(X, g.cyclic_tower(2, 3).links[1]) is gs.inflate(X, q)
    f = identity_map(X)
    assert inflate_map(f, q).src is gs.inflate(X, q)


def test_hom_gset_matches_brute_force():
    cases = [
        (regular(C2), regular(C2)),
        (gs.canonical_gset(C4, (0, 2)), gs.canonical_gset(C4, (1, 2))),
        (gs.canonical_gset(S3, (1,)), gs.canonical_gset(S3, (1, 3))),
    ]
    for X, Y in cases:
        ours = sorted(f.values for f in hom_gset(X, Y))
        assert ours == brute_force_homs(X, Y)


def test_hom_gset_counts():
    assert len(hom_gset(regular(C2), regular(C2))) == 2
    X = gs.canonical_gset(C4, (0, 1, 2))
    assert len(hom_gset(X, point_gset(C4))) == 1
    assert len(hom_gset(point_gset(C2), regular(C2))) == 0


def test_hom_factor_sizes_are_marks():
    """|hom(X, Y)| is the product over the orbits of X of the factor sizes,
    and the factor at an orbit G/H is the mark of H on Y."""
    for name, G in groups_of_order_at_most(8):
        marks = sp.burnside_tables(G).marks  # marks[i][j] = |(G/K_i)^(H_j)|
        classes = gs.gset_isoclasses(G, 4)
        for mx in classes:
            X = gs.canonical_gset(G, mx)
            for my in classes:
                Y = gs.canonical_gset(G, my)
                factors = gs.hom_factors(X, Y)
                assert len(factors) == len(mx)
                product = math.prod(len(f.points) for f in factors)
                by_marks = math.prod(sum(marks[i][j] for i in my) for j in mx)
                assert product == len(hom_gset(X, Y)) == by_marks, (name, mx, my)


def test_hom_gset_keeps_product_order_on_interleaved_orbits():
    """With the points of two orbits interleaved, the maps still come in
    the product order of the factors and match the brute force."""
    X = gs.make_gset(C4, [[0, 2, 0, 2], [1, 3, 1, 3], [2, 0, 2, 0], [3, 1, 3, 1]])
    Y = gs.canonical_gset(C4, (1, 2))
    maps = [f.values for f in hom_gset(X, Y)]
    assert sorted(maps) == brute_force_homs(X, Y)
    factors = gs.hom_factors(X, Y)
    assert [f.base for f in factors] == [0, 1]
    assert [(v[0], v[1]) for v in maps] == list(
        itertools.product(*(f.points for f in factors))
    )


def test_unit_is_iso_and_counit_injective_corpus():
    for name in ("C4", "S3", "C6"):
        G = corpus_group(name)
        lat = g.subgroup_lattice(G)
        for i, N in enumerate(lat.subgroups):
            if not lat.normal[i]:
                continue
            q = g.quotient(G, N)
            for multiset in gs.gset_isoclasses(q.target, 4):
                Xq = gs.canonical_gset(q.target, multiset)
                assert is_iso(unit_map(Xq, q))
            for multiset in gs.gset_isoclasses(G, 4):
                X = gs.canonical_gset(G, multiset)
                assert is_injective(counit_map(X, q))


def test_inflation_fully_faithful():
    q = g.quotient(C4, g.make_subgroup(C4, (0, 2)))
    for mx in gs.gset_isoclasses(C2, 3):
        for my in gs.gset_isoclasses(C2, 3):
            X, Y = gs.canonical_gset(C2, mx), gs.canonical_gset(C2, my)
            below = {f.values for f in hom_gset(X, Y)}
            above = {
                f.values for f in hom_gset(gs.inflate(X, q), gs.inflate(Y, q))
            }
            assert below == above


def test_pullback_diagonal():
    X = regular(C2)
    P, p1, p2 = pullback(identity_map(X), identity_map(X))
    assert orbit_class_multiset(P) == orbit_class_multiset(X)


def test_pullback_over_point_is_product():
    X = regular(C2)
    Y = gs.canonical_gset(C2, (1,))
    t = point_gset(C2)
    fx = hom_gset(X, t)[0]
    fy = hom_gset(Y, t)[0]
    P, _, _ = pullback(fx, fy)
    assert P.size == X.size * Y.size


def test_pullback_swap_free_orbit():
    X = regular(C2)
    swap = next(f for f in hom_gset(X, X) if f.values != (0, 1))
    P, _, _ = pullback(identity_map(X), swap)
    assert P.size == 2
    assert orbit_class_multiset(P) == (0,)  # one free orbit


def test_pullback_universal_property_exhaustive():
    # every cone with apex size <= 4 factors through exactly one map
    X = gs.canonical_gset(C4, (1, 2))
    Z = gs.canonical_gset(C4, (2,))
    for f in hom_gset(X, Z):
        for h in hom_gset(X, Z):
            P, p1, p2 = pullback(f, h)
            for mw in gs.gset_isoclasses(C4, 4):
                W = gs.canonical_gset(C4, mw)
                into_p = hom_gset(W, P)
                for a in hom_gset(W, X):
                    for b in hom_gset(W, X):
                        if then_map(a, f).values != then_map(b, h).values:
                            continue
                        factors = [
                            m
                            for m in into_p
                            if then_map(m, p1).values == a.values
                            and then_map(m, p2).values == b.values
                        ]
                        assert len(factors) == 1


def commuting_squares(objects):
    """Every commuting square top: A -> B, left: A -> C, right: B -> D,
    bottom: C -> D among the given G-sets."""
    for A, B, C, D in itertools.product(objects, repeat=4):
        for right in hom_gset(B, D):
            for bottom in hom_gset(C, D):
                for top in hom_gset(A, B):
                    for left in hom_gset(A, C):
                        if (
                            then_map(top, right).values
                            == then_map(left, bottom).values
                        ):
                            yield top, left, right, bottom


def test_square_is_pullback_matches_fibre_product_oracle():
    # oracle: a -> (top a, left a) is a bijection onto the built pullback
    objects = [gs.canonical_gset(C4, m) for m in gs.gset_isoclasses(C4, 2)]
    verdicts = []
    for top, left, right, bottom in commuting_squares(objects):
        P, p1, p2 = pullback(right, bottom)
        cone = sorted(zip(top.values, left.values))
        expected = cone == sorted(zip(p1.values, p2.values))
        assert square_is_pullback(top, left, right, bottom) == expected
        verdicts.append(expected)
    assert (len(verdicts), sum(verdicts)) == (428, 131)


def test_square_is_pullback_rejects_a_square_that_does_not_commute():
    X = regular(C2)
    swap = next(f for f in hom_gset(X, X) if f.values != (0, 1))
    ident = identity_map(X)
    with pytest.raises(ValueError):
        square_is_pullback(ident, ident, swap, ident)


def test_counit_square_fails_exactly_off_the_fixed_points():
    # the counit square of f: X -> X' is a pullback iff every point that f
    # sends to an N-fixed point is itself N-fixed
    q = g.quotient(C4, g.make_subgroup(C4, (0, 2)))
    objects = [gs.canonical_gset(C4, m) for m in gs.gset_isoclasses(C4, 4)]
    failures = 0
    for X in objects:
        fixed = set(counit_map(X, q).values)
        for Xp in objects:
            fixed_p = set(counit_map(Xp, q).values)
            for f in hom_gset(X, Xp):
                preimage = {x for x in X.points() if f.values[x] in fixed_p}
                rep = adjunction_report(q, X, f)
                assert rep.counit_square_is_pullback == (preimage <= fixed)
                failures += not rep.counit_square_is_pullback
    assert failures == 23


def test_coproduct():
    X = regular(C2)
    E = empty_gset(C2)
    assert orbit_class_multiset(coproduct(X, E)[0]) == orbit_class_multiset(X)
    pt = point_gset(C2)
    assert coproduct(X, pt)[0].size == 3
    Y = gs.canonical_gset(C2, (0, 1))
    merged = orbit_class_multiset(coproduct(X, Y)[0])
    assert merged == tuple(
        sorted(orbit_class_multiset(X) + orbit_class_multiset(Y))
    )


def test_coproduct_disjoint_and_universal():
    X = regular(C2)
    Y = gs.canonical_gset(C2, (1,))
    Z = gs.canonical_gset(C2, (0, 1))
    XY, i1, i2 = coproduct(X, Y)
    homs = hom_gset(XY, Z)
    pairs = {(then_map(f, identity_map(Z)).values, None) for f in homs}
    assert len(homs) == len(hom_gset(X, Z)) * len(hom_gset(Y, Z))
    restricted = {(then_map(i1, f).values, then_map(i2, f).values) for f in homs}
    assert len(restricted) == len(homs)


def test_adjunction_report_counit_failure():
    # G = C2, N = C2, X = C2 regular, f: X -> point
    q = g.quotient(C2, g.make_subgroup(C2, (0, 1)))
    X = regular(C2)
    f = hom_gset(X, point_gset(C2))[0]
    rep = adjunction_report(q, X, f)
    assert rep.unit_is_iso
    assert rep.counit_is_injective
    assert rep.unit_square_is_pullback
    assert not rep.counit_square_is_pullback
    assert rep.counit_witness is not None


def test_adjunction_report_trivial_n_action():
    # X with trivial N-action: counit is an isomorphism, square is a pullback
    q = g.quotient(C4, g.make_subgroup(C4, (0, 2)))
    X = gs.canonical_gset(C4, (1, 2))  # N acts trivially on both orbits
    f = identity_map(X)
    rep = adjunction_report(q, X, f)
    assert rep.counit_square_is_pullback


def _normal_subgroup(G, order):
    """The first normal subgroup of G of the given order."""
    lat = g.subgroup_lattice(G)
    return next(
        H for H, normal in zip(lat.subgroups, lat.normal) if normal and H.order == order
    )


# (G, |N|, size cap, counit squares that are not pullbacks).  In C8 and Q8
# every non-trivial subgroup contains the order-2 subgroup N, and the free
# orbit has 8 points, so at cap 4 every orbit is N-fixed and C8/C2 and
# Q8/Z fail no square.
COUNIT_CASES = {
    "C4/C2": (C4, 2, 5, 126),
    "C4/C2-relabelled": (_relabelled(C4, 11), 2, 5, 126),
    "C8/C2": (g.cyclic(8), 2, 4, 0),
    "C8/C4": (g.cyclic(8), 4, 4, 23),
    "C2xC2/C2": (corpus_group("C2xC2"), 2, 5, 6384),
    "D4/Z": (corpus_group("D4"), 2, 4, 66),
    "Q8/Z": (corpus_group("Q8"), 2, 4, 0),
    "S3/C3": (S3, 3, 5, 462),
    "S3/1": (S3, 1, 5, 0),
    "C4/C4": (C4, 4, 5, 1960),
}


@pytest.mark.parametrize("case", sorted(COUNIT_CASES))
def test_counit_square_counts_match_the_per_map_oracle(case):
    """Per pair (X, X'), the counts from the marks and the orbit classes
    and the first failing map are those of the oracle run on every map of
    hom(X, X')."""
    G, kernel_order, cap, expected_failures = COUNIT_CASES[case]
    q = g.quotient(G, _normal_subgroup(G, kernel_order))
    marks = sp.burnside_tables(G).marks
    objects = [(m, gs.canonical_gset(G, m)) for m in gs.gset_isoclasses(G, cap)]
    failures = 0
    for xs, X in objects:
        for ys, Xp in objects:
            maps = hom_gset(X, Xp)
            bad = [
                f
                for f in maps
                if not adjunction_report(q, X, f).counit_square_is_pullback
            ]
            counts = gs.counit_square_counts(q, marks, xs, ys)
            assert counts == (len(maps), len(maps) - len(bad))
            witness = gs.counit_square_witness(q, X, Xp)
            assert witness == (bad[0].values if bad else None)
            failures += len(bad)
    assert failures == expected_failures


def test_find_iso():
    X = gs.canonical_gset(C4, (0, 1))
    Y = coproduct(gs.canonical_gset(C4, (1,)), gs.canonical_gset(C4, (0,)))[0]
    iso = find_iso(X, Y)
    assert iso is not None and is_iso(iso)
    assert find_iso(X, gs.canonical_gset(C4, (0, 2))) is None


def test_canonical_iso_renames_onto_the_canonical_isomorph():
    q = g.quotient(C4, g.make_subgroup(C4, (0, 2)))
    for m in gs.gset_isoclasses(C2, 3):
        infl = gs.inflate(gs.canonical_gset(C2, m), q)
        iso = canonical_iso(infl)
        assert iso.src == infl and is_iso(iso)
        assert iso.dst == gs.canonical_gset(C4, orbit_class_multiset(infl))


@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_canonical_gset_is_the_chain_of_coproducts(name):
    """canonical_gset, the shifted rows of its canonical orbits, is the
    G-set that a chain of coproducts of those orbits builds, table for
    table, on every class multiset up to cap 6."""
    G = corpus_group(name)
    for m in gs.gset_isoclasses(G, 6):
        assert gs.canonical_gset(G, m) == canonical_gset_oracle(G, m), m


def test_gset_isoclasses_counts():
    assert len(gs.gset_isoclasses(C2, 4)) == 9
    assert gs.gset_isoclasses(C2, 0) == [()]
