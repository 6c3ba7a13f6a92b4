"""verify colim-gset, decided on orbit classes and hom factors, against
an oracle that enumerates every hom-set, with negative controls and work
guards; the span checks, decided on orbit generators: their FAIL lines on
corrupted images and on a functor that is not left exact, their verdicts
against the capped checks they replaced, their counts at the requested
tower against orbit-counting formulas, their independence of --cap and
--seed, and that they enumerate no hom-set; invariance of the tower
checks under relabelling of the tower's groups; and verify funcat: its
divisor lattices, a PASS on every seed from 0 to 999, and one FAIL line
per reason when a poset function is wrong."""

import contextlib
import io
import itertools
import math
import random
from functools import lru_cache

import pytest

from profspan import groups as g
from profspan import gsets as gs
from profspan import spans as sp
from profspan import verify as vf
from profspan.cli import main
from profspan.errors import Verdict

from oracles import (
    OrbitQuotientFunctor,
    as_span_images,
    basis_legs,
    colim_gset_equivalence_oracle,
    colim_span_oracle,
    endpoint_keys,
    limit_span_oracle,
    pullback,
    span_basis_count_oracle,
    span_images_generic,
    square_is_pullback,
)

TOWER_GRID = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]


def _trivial_first_link(depth):
    """The 2-tower of this depth with link 0 the trivial map C4 -> C2,
    built by hand: make_tower rejects it, as the link is not onto."""
    tower = g.cyclic_tower(2, depth)
    q = tower.links[0]
    trivial = g.QuotientMap(
        q.source,
        g.make_subgroup(q.source, q.source.elements()),
        q.target,
        (0,) * q.source.order,
    )
    return g.GroupTower(tower.stages, (trivial,) + tower.links[1:])


def _matches_check_equivalence(tower, cap):
    report = vf.verify_colim_gset(tower, cap)
    ok, classes = colim_gset_equivalence_oracle(tower, cap)
    assert report.ok == ok
    assert report.lines[1] == f"colimit object classes: {classes}"
    return report


@pytest.mark.parametrize("cap", range(7))
@pytest.mark.parametrize("p,depth", TOWER_GRID)
def test_colim_gset_verdict_matches_check_equivalence(p, depth, cap):
    _matches_check_equivalence(g.cyclic_tower(p, depth), cap)


@pytest.mark.parametrize("cap", range(7))
def test_colim_gset_verdict_matches_check_equivalence_past_a_trivial_link(cap):
    """Inflation along the trivial link sends an orbit of n points to n
    fixed points, not to one orbit, and the verdict still matches: FAIL
    from cap 2, where the free C2-orbit is an object."""
    assert _matches_check_equivalence(_trivial_first_link(3), cap).ok == (cap < 2)


def test_colim_gset_builds_no_stage_gset_and_inflates_only_orbits(monkeypatch):
    """colim-gset is decided on orbit classes: it builds no stage G-set,
    enumerates no hom-set, and inflates only canonical orbits."""

    def refuse(*args):
        raise AssertionError("built a G-set or a hom-set")

    inflated = []
    inflate = gs.inflate

    def recorded(X, q):
        inflated.append((X, q.target))
        return inflate(X, q)

    monkeypatch.setattr(gs, "canonical_gset", refuse)
    monkeypatch.setattr(gs, "inflate", recorded)
    # hom-sets are multiplied out only by the oracles
    assert not hasattr(gs, "hom_gset")
    tower = g.cyclic_tower(2, 3)
    report = vf.verify_colim_gset(tower, 4)
    assert report.ok
    objects = sum(len(gs.gset_isoclasses(G, 4)) for G in tower.stages)
    assert objects == 29
    assert report.lines[2] == f"discrete-model objects: {objects}"
    assert inflated
    for X, Q in inflated:
        classes = range(g.subgroup_lattice(Q).num_classes)
        assert X.size <= 4 and any(X == gs.orbit_gset(Q, c) for c in classes)


def test_colim_gset_fails_on_a_link_that_is_not_onto():
    """Inflation along the trivial map C4 -> C2 identifies every point's
    stabilizer with C4, so it is not full on any hom with a free orbit."""
    tower = _trivial_first_link(3)
    report = vf.verify_colim_gset(tower, 4)
    assert not report.ok
    assert report.lines[-1] == "equivalence failure: inflation not fully faithful"
    assert report.witness[0] == 0
    assert report.render().startswith(
        "FAIL inflation not fully faithful (witness (0, "
    )
    assert colim_gset_equivalence_oracle(tower, 4)[0] is False


def test_colim_gset_and_span_basis_enumerate_no_hom_set():
    assert not hasattr(gs, "hom_gset")
    assert vf.verify_colim_gset(g.cyclic_tower(2, 3), 6).ok
    G = g.dihedral(4)
    nonempty = [gs.canonical_gset(G, m) for m in gs.gset_isoclasses(G, 3)][1:]
    assert all(sp.span_basis(X, Y) for X in nonempty for Y in nonempty)


def test_adjunction_enumerates_no_hom_set_and_builds_no_square():
    # hom-sets, maps, the unit and counit maps, pullbacks and the square
    # test are oracles, so the adjunction enumerates no hom-set, builds no
    # map (its witness is the values of one) and no square
    names = ("hom_gset", "EqMap", "unit_map", "counit_map", "pullback")
    for name in (*names, "square_is_pullback"):
        assert not hasattr(gs, name), name
    assert vf.verify_adjunction(6).ok


def test_adjunction_squares_are_products_of_marks():
    """At cap 8 the squares counted are Σ over (X, X') of the product, over
    the orbits G/H of X, of the mark of H on X'."""
    G = g.cyclic(4)
    marks = sp.burnside_tables(G).marks  # marks[i][j] = |(G/K_i)^(H_j)|
    classes = gs.gset_isoclasses(G, 8)
    expected = sum(
        math.prod(sum(marks[i][j] for i in my) for j in mx)
        for mx in classes
        for my in classes
    )
    report = vf.verify_adjunction(8)
    assert report.ok
    assert report.lines[1] == f"naturality squares checked: {expected}"


NOT_ONTO = "projection is not onto the previous stage"


def test_colim_span_fails_on_a_trivial_link():
    """Inflation along the trivial map sends the free C2-orbit to two
    C4-fixed points, not to one orbit.  Span(F) is read from one orbit
    image per class, which a link that is not onto does not have, so both
    span checks raise on it, as make_tower does, instead of printing a
    FAIL line."""
    tower = _trivial_first_link(2)
    for run in (vf.verify_colim_span, vf.verify_limit_span):
        with pytest.raises(ValueError, match=NOT_ONTO):
            run(tower)


def test_make_tower_rejects_a_trivial_link_that_limit_span_cannot_run_on():
    """The trivial map does not reach the generator of C2, so fixed points
    along it have no residual action: the link is refused when the tower
    is made, and limit-span on the raw tower raises instead of printing a
    FAIL line."""
    raw = _trivial_first_link(2)
    with pytest.raises(ValueError, match=f"link 0: {NOT_ONTO}"):
        g.make_tower(raw.stages, raw.links)
    with pytest.raises(ValueError, match=NOT_ONTO):
        vf.verify_limit_span(raw)


@pytest.mark.parametrize("tower", ["2,3", "3,2"])
@pytest.mark.parametrize("check", ["colim-span", "limit-span"])
def test_span_checks_enumerate_no_hom_set(check, tower):
    """Left exactness is decided by the law on endpoint keys, so the span
    checks build no pullback square and enumerate no hom-set: the package
    has no function that would."""
    assert not hasattr(gs, "hom_gset") and not hasattr(gs, "pullback")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--tower", tower, "verify", check]) == 0


def _relabelled_tower(tower, rng):
    """The tower with the non-identity elements of every stage renumbered
    by a seeded permutation and each link carried along, made again by
    make_tower."""
    stages, new = [], []  # element a of stage i is element new[i][a] of its copy
    for G in tower.stages:
        rest = list(G.elements())[1:]
        rng.shuffle(rest)
        perm = [0] + rest
        old = [0] * G.order
        for a, v in enumerate(perm):
            old[v] = a
        table = tuple(
            tuple(perm[G.mul(old[a], old[b])] for b in G.elements())
            for a in G.elements()
        )
        stages.append(g.FiniteGroup(table))
        new.append(perm)
    links = []
    for i, q in enumerate(tower.links):
        projection = [0] * q.source.order
        for a, c in enumerate(q.projection):
            projection[new[i + 1][a]] = new[i][c]
        links.append(g.quotient_map(stages[i + 1], stages[i], projection))
    return g.make_tower(stages, links)


TOWER_CHECKS = {
    "colim-gset": lambda tower: vf.verify_colim_gset(tower, 4),
    "colim-span": vf.verify_colim_span,
    "limit-span": vf.verify_limit_span,
    "mackey-limit": vf.verify_mackey_limit,
}


@pytest.mark.parametrize("check", list(TOWER_CHECKS))
@pytest.mark.parametrize("p,depth", TOWER_GRID)
def test_tower_checks_do_not_depend_on_element_labels(p, depth, check):
    tower = g.cyclic_tower(p, depth)
    relabelled = _relabelled_tower(tower, random.Random(100 * p + depth))
    assert relabelled.stages != tower.stages
    run = TOWER_CHECKS[check]
    assert run(relabelled).render() == run(tower).render()


@lru_cache(maxsize=None)
def _span_rank(n, s, t):
    """The rank of the span hom from the C_n-orbit of size s to the one of
    size t; the stabilizer of an orbit of size s is the multiples of s."""
    return span_basis_count_oracle(
        g.cyclic(n), tuple(range(0, n, s)), tuple(range(0, n, t))
    )


def _endpoint_count(s, t):
    """The endpoint keys from the C_n-orbit of size s to the one of size t.

    With H and K the stabilizers, a key with apex G/H is a point of
    (G/K)^H up to W(H) = G/H acting freely on G/H: t of them if H ⊆ K,
    that is if t divides s, else none.  Those with apex G/K are s if s
    divides t, and the same keys when s = t."""
    return (t if s % t == 0 else 0) + (s if t % s == 0 and s != t else 0)


@pytest.mark.parametrize("p,depth", [(2, 3), (3, 2), (2, 4), (3, 3)])
def test_span_check_counts_at_the_requested_tower(p, depth):
    """Through the CLI the span checks run on every link of the tower, on
    the orbits of each link's source group: the target C_{p^i} for
    colim-span, the source C_{p^(i+1)} for limit-span.  They map every
    basis span between two orbits and check the law on every composable
    pair of endpoint keys."""
    header = f"tower: cyclic p={p} depth={depth}"
    for check, orders in [
        ("colim-span", [p**i for i in range(1, depth)]),
        ("limit-span", [p**i for i in range(2, depth + 1)]),
    ]:
        mapped = composed = 0
        for n in orders:
            sizes = [d for d in range(1, n + 1) if n % d == 0]
            mapped += sum(_span_rank(n, s, t) for s in sizes for t in sizes)
            composed += sum(
                _endpoint_count(a, b) * _endpoint_count(b, c)
                for a, b, c in itertools.product(sizes, repeat=3)
            )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--tower", f"{p},{depth}", "verify", check])
        assert code == 0
        assert out.getvalue().splitlines()[1:5] == [
            "PASS",
            header,
            f"orbit basis spans mapped: {mapped}",
            f"endpoint-key compositions checked: {composed}",
        ]


@pytest.mark.parametrize("check", ["colim-span", "limit-span"])
def test_span_reports_do_not_depend_on_cap_or_seed(check):
    reports = set()
    for cap, seed in itertools.product((0, 3, 6), (0, 7)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            argv = ["--tower", "2,3", "--cap", str(cap), "--seed", str(seed)]
            assert main([*argv, "verify", check]) == 0
        reports.add(out.getvalue())
    assert len(reports) == 1


# Each span check, its capped oracle, and the name of its functor in
# spans.span_images and in its FAIL lines.
SPAN_CHECKS = {
    "colim-span": (vf.verify_colim_span, colim_span_oracle, "inflation"),
    "limit-span": (vf.verify_limit_span, limit_span_oracle, "fixed points"),
}


@pytest.mark.parametrize("cap", [3, 4])
@pytest.mark.parametrize("p,depth", TOWER_GRID)
@pytest.mark.parametrize("check", list(SPAN_CHECKS))
def test_span_checks_agree_with_the_capped_checks(check, p, depth, cap):
    run, oracle, _ = SPAN_CHECKS[check]
    tower = g.cyclic_tower(p, depth)
    assert run(tower).ok and oracle(tower, cap).ok


def test_colim_span_agrees_with_the_capped_check_on_a_trivial_link():
    """The capped check applies inflation to G-sets and finds the image
    of two orbits; both span checks refuse the link that is not onto."""
    tower = _trivial_first_link(3)
    slow = colim_span_oracle(tower, 3)
    assert slow.reason == "inflation of a basis span is not basic at stage 0"
    for run in (vf.verify_colim_span, vf.verify_limit_span):
        with pytest.raises(ValueError, match=NOT_ONTO):
            run(tower)


def _image_mutants(which, tower):
    """Per link i and hom between two orbits of the link's source group,
    (kind, i, c1, c2, images), images mapping positions in the hom's basis
    to the positions of their new images: for each key of the hom, the
    key "replaced" by the first basis span of the image hom other than
    its true image, or, for a true image of zero, by the first basis
    span; each basic image "dropped", sent to zero; and for each two
    consecutive keys that are not endpoint keys and have basic images,
    the two images "swapped".  (A swap of endpoint keys can give another
    functor: in C3 the two rotations of the free orbit.)"""
    for i, q in enumerate(tower.links):
        table = sp.span_images(q, which)
        G, K, n = table.source, table.target, len(table.images)
        for c1, c2 in itertools.product(range(n), repeat=2):
            m1, m2 = table.images[c1], table.images[c2]
            image_basis = () if None in (m1, m2) else sp.orbit_basis(K, m1, m2)
            true = table.terms[c1][c2]
            for p, image in enumerate(true):
                other = [j for j in range(len(image_basis)) if j != image]
                if other:
                    yield "replaced", i, c1, c2, {p: other[0]}
                if image is not None:
                    yield "dropped", i, c1, c2, {p: None}
            ends = sp.endpoint_positions(G, c1, c2)
            basic = [
                p for p, image in enumerate(true) if image is not None and p not in ends
            ]
            for p1, p2 in zip(basic, basic[1:]):
                yield "swapped", i, c1, c2, {p1: true[p2], p2: true[p1]}


def _corrupt(monkeypatch, which, link, c1, c2, images):
    """Make the Span(F) table of the functor `which` along link send the
    basis span at each position of `images` between the orbits of classes
    c1 and c2 to the image at the position it maps to, in a copy: the kept
    table is left as it is."""
    span_images = sp.span_images

    def corrupted(q, kind):
        table = span_images(q, kind)
        if kind != which or q != link:
            return table
        terms = [list(row) for row in table.terms]
        row = list(terms[c1][c2])
        for p, image in images.items():
            row[p] = image
        terms[c1][c2] = tuple(row)
        return table._replace(terms=tuple(map(tuple, terms)))

    monkeypatch.setattr(sp, "span_images", corrupted)


@pytest.mark.parametrize("p,depth", [(2, 3), (3, 3)])
@pytest.mark.parametrize("check", list(SPAN_CHECKS))
def test_span_checks_fail_on_corrupted_basis_images(check, p, depth, monkeypatch):
    """A Span(F) with one basis image between orbits replaced or dropped,
    or two swapped, fails the check at that link.  A dropped image is not
    basic.  A swap keeps every image basic and distinct, so it is the law
    on the endpoint keys r_b, t_b of a swapped b = t_b ∘ r_b that must
    catch it; the FAIL line names the pair of keys."""
    run, _, name = SPAN_CHECKS[check]
    tower = g.cyclic_tower(p, depth)
    kinds = set()
    for kind, i, c1, c2, images in list(_image_mutants(name, tower)):
        with monkeypatch.context() as patch:
            _corrupt(patch, name, tower.links[i], c1, c2, images)
            report = run(tower)
        assert not report.ok, (kind, i, c1, c2, images)
        assert report.reason.endswith(f" at stage {i}"), report.reason
        law = report.reason == f"Span({name}) not functorial at stage {i}"
        assert law or kind != "swapped", report.reason
        if kind == "dropped":
            assert report.reason == f"{name} of a basis span is not basic at stage {i}"
        if law:
            G = sp.span_images(tower.links[i], name).source
            a, b, c, k1, k2 = report.witness
            assert k1 in endpoint_keys(G, a, b) and k2 in endpoint_keys(G, b, c)
            assert report.render() == f"FAIL {report.reason} (witness {report.witness})"
        kinds.add((kind, law))
    assert {("replaced", False), ("dropped", False), ("swapped", True)} <= kinds


def test_limit_span_fails_on_a_functor_that_is_not_left_exact(monkeypatch):
    """With fixed points replaced by the N-orbit quotient, a left adjoint
    that is not left exact, limit-span prints a FAIL line: the quotient
    keeps a basis span whose apex does not contain the kernel.  With that
    basis test passed over, the law fails on a transfer and a restriction
    whose cospan's pullback the functor does not keep."""
    span_images = sp.span_images

    def quotient_images(q, which):
        # the N-orbit quotient's table, built by the generic builder in
        # place of that of fixed points; no kept table is read or written
        if which == "fixed points":
            return as_span_images(span_images_generic(OrbitQuotientFunctor, q))
        return span_images(q, which)

    monkeypatch.setattr(sp, "span_images", quotient_images)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--tower", "2,2", "verify", "limit-span"]) == 1
    report = vf.verify_limit_span(g.cyclic_tower(2, 2))
    assert report.reason == "fixed points of a kernel-moved apex is not zero at stage 0"
    assert out.getvalue().splitlines()[1] == report.render()
    monkeypatch.setattr(vf, "_basis_failure", lambda *args: None)
    for p, depth in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        tower = g.cyclic_tower(p, depth)
        report = vf.verify_limit_span(tower)
        assert report.reason == "Span(fixed points) not functorial at stage 0"
        c1, c2, c3, k1, k2 = report.witness
        assert (c1, c2, c3) == (0, 1, 0)
        assert (k1[0], k2[0]) == (c1, c3)  # a transfer, then a restriction
        X, Z, Y = (gs.orbit_gset(tower.stages[1], c) for c in (c1, c2, c3))
        f = basis_legs(X, Z, k1)[1]
        h = basis_legs(Z, Y, k2)[0]
        P, p1, p2 = pullback(f, h)
        bad = OrbitQuotientFunctor(tower.links[0])
        assert not square_is_pullback(*(bad.map(m) for m in (p1, p2, f, h)))


@pytest.mark.parametrize("n", [6, 8, 12])
def test_funcat_divisor_lattice_is_the_divisibility_order(n):
    cat = vf._gcd_cat(n)
    assert cat.objects == tuple(d for d in range(1, n + 1) if n % d == 0)
    for a, b, c in itertools.product(cat.objects, repeat=3):
        assert cat.le(a, b) == (b % a == 0)
        assert cat.le(a, a)
        assert not (cat.le(a, b) and cat.le(b, a)) or a == b
        assert not (cat.le(a, b) and cat.le(b, c)) or cat.le(a, c)


def test_funcat_passes_on_every_seed():
    claims = [
        "seeded corpora checked: 6",
        "round trips close up to natural isomorphism",
        "product preservation matches componentwise preservation, both directions",
    ]
    for seed in range(1000):
        expected = "\n".join(["PASS", f"seed {seed}", *claims])
        assert vf.verify_funcat(seed).render() == expected


def _round_trip_corrupted(real):
    """functor_from_family whose every second call, the round trip of
    each corpus, returns the functor with one value moved."""
    calls = itertools.count()

    def patched(links, components):
        F = real(links, components)
        if next(calls) % 2 == 0:
            return F
        first = next(iter(F))
        return {**F, first: F[first] + 1}

    return patched


@pytest.mark.parametrize(
    "name, patch, line",
    [
        (
            "naturally_isomorphic",
            lambda real: lambda F, G: False,
            "FAIL restriction differs from component 0",
        ),
        (
            "functor_from_family",
            _round_trip_corrupted,
            "FAIL functor round trip not isomorphic",
        ),
        (
            "preserves_binary_products",
            lambda real: lambda F, src, dst: Verdict(False, "stub"),
            "FAIL product-preserving family gave a non-preserving functor",
        ),
        (
            "_is_meet",
            lambda real: lambda cat, a, b, p: False,
            "FAIL non-preserving family gave a preserving functor",
        ),
    ],
)
def test_funcat_fails_when_a_poset_function_is_wrong(
    monkeypatch, capsys, name, patch, line
):
    monkeypatch.setattr(vf.fc, name, patch(getattr(vf.fc, name)))
    assert vf.verify_funcat(0).render() == line
    assert main(["verify", "funcat"]) == 1
    assert capsys.readouterr().out.splitlines()[1] == line


