"""verify colim-gset, decided on orbit classes and hom factors, against
an oracle that enumerates every hom-set, with negative controls and work
guards; the span checks' FAIL lines, and their counts at the requested
tower and cap against orbit-counting oracles; and invariance of the
tower checks under relabelling of the tower's groups."""

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

from oracles import colim_gset_equivalence_oracle, span_basis_count_oracle

TOWER_GRID = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]


@pytest.mark.parametrize("cap", [3, 4])
@pytest.mark.parametrize("p,depth", TOWER_GRID)
def test_colim_gset_verdict_matches_check_equivalence(p, depth, cap):
    tower = g.cyclic_tower(p, depth)
    report = vf.verify_colim_gset(tower, cap)
    ok, classes = colim_gset_equivalence_oracle(tower, cap)
    assert report.ok == ok
    assert report.lines[1] == f"colimit object classes: {classes}"


def test_colim_gset_fails_with_a_class_dropped(monkeypatch):
    colimit_classes = vf._colimit_classes
    monkeypatch.setattr(
        vf, "_colimit_classes", lambda tower, cap: colimit_classes(tower, cap)[:-1]
    )
    tower = g.cyclic_tower(2, 3)
    report = vf.verify_colim_gset(tower, 4)
    assert not report.ok
    assert report.lines[-1] == "equivalence failure: not essentially surjective"
    # the witness is the first stage object of the dropped class
    level, action = report.witness
    lifted = gs.inflate(gs.GSet(tower.stages[level], action), tower.projection(2, level))
    assert gs.orbit_class_multiset(lifted) == colimit_classes(tower, 4)[-1]


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


def test_colim_gset_fails_on_a_link_that_is_not_onto(monkeypatch):
    """Inflation along the trivial map C4 -> C2 identifies every point's
    stabilizer with C4, so it is not full on any hom with a free orbit.
    The composite projections of this tower are refused, so the essential
    surjectivity test, which lifts along them, is passed over."""
    monkeypatch.setattr(vf, "_surjective_verdict", lambda *args: Verdict(True))
    tower = _trivial_first_link(3)
    with pytest.raises(ValueError, match="not onto"):
        tower.projection(2, 0)
    report = vf.verify_colim_gset(tower, 4)
    assert not report.ok
    assert report.lines[-1] == "equivalence failure: inflation not fully faithful"
    assert report.witness[0] == 0
    assert report.render().startswith(
        "FAIL inflation not fully faithful (witness (0, "
    )
    assert colim_gset_equivalence_oracle(tower, 4)[0] is False


def test_colim_gset_and_span_basis_enumerate_no_hom_set(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated a hom-set")

    monkeypatch.setattr(gs, "hom_gset", refuse)
    assert vf.verify_colim_gset(g.cyclic_tower(2, 3), 6).ok
    G = g.dihedral(4)
    nonempty = [gs.canonical_gset(G, m) for m in gs.gset_isoclasses(G, 3)][1:]
    assert all(sp.span_basis(X, Y) for X in nonempty for Y in nonempty)


def test_adjunction_enumerates_one_hom_set_and_builds_no_square(monkeypatch):
    hom_gset = gs.hom_gset
    calls = []

    def counted(X, Y):
        calls.append((X, Y))
        return hom_gset(X, Y)

    def refuse(*args):
        raise AssertionError("built a naturality square")

    monkeypatch.setattr(gs, "hom_gset", counted)
    monkeypatch.setattr(gs, "square_is_pullback", refuse)
    assert vf.verify_adjunction(6).ok
    assert len(calls) <= 1


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


def test_colim_span_fails_on_a_trivial_link():
    """Inflation along the trivial map passes the left-exactness probes,
    but it sends the free C2-orbit to two C4-fixed points, so a basis
    span with that apex inflates to a span with two orbits."""
    report = vf.verify_colim_span(_trivial_first_link(2), 3)
    assert not report.ok
    assert report.reason == "inflation of a basis span is not basic at stage 0"
    assert report.render() == "FAIL inflation of a basis span is not basic at stage 0"


def test_make_tower_rejects_a_trivial_link_that_limit_span_cannot_run_on():
    """The trivial map does not reach the generator of C2, so fixed points
    along it have no residual action: the link is refused when the tower
    is made, and limit-span on the raw tower raises instead of printing a
    FAIL line."""
    raw = _trivial_first_link(2)
    with pytest.raises(ValueError, match="link 0: projection is not onto"):
        g.make_tower(raw.stages, raw.links)
    with pytest.raises(ValueError):
        vf.verify_limit_span(raw, 3)


def _forced_not_left_exact(F, objects):
    """A check_left_exact verdict that fails on the identity cospan of the
    last probe object, as (X, Y, Z actions, f and g values)."""
    X = objects[-1]
    identity = tuple(X.points())
    return Verdict(False, "forced", (X.action, X.action, X.action, identity, identity))


def _forced_fail_line(check, probe_group, monkeypatch):
    """The FAIL line of `verify <check>` on the 2,2 tower at cap 3 with
    check_left_exact forced to fail, and the witness it should name."""
    monkeypatch.setattr(sp, "check_left_exact", _forced_not_left_exact)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--tower", "2,2", "--cap", "3", "verify", check])
    assert code == 1
    probes = vf._stage_objects(probe_group, 2)
    square = _forced_not_left_exact(None, probes).witness
    return out.getvalue().splitlines()[1], f"(witness {square})"


def test_colim_span_reports_inflation_not_left_exact(monkeypatch):
    """A functor that fails check_left_exact is a FAIL line with exit 1,
    not an exception, and the line names the square."""
    line, witness = _forced_fail_line("colim-span", g.cyclic(2), monkeypatch)
    assert line == f"FAIL inflation not left exact at stage 0 {witness}"


def test_limit_span_reports_fixed_points_not_left_exact(monkeypatch):
    line, witness = _forced_fail_line("limit-span", g.cyclic(4), monkeypatch)
    assert line == f"FAIL fixed points not left exact at stage 0 {witness}"


@pytest.mark.parametrize("check,maps", [("colim-span", 35), ("limit-span", 46)])
def test_span_checks_map_each_distinct_map_once(check, maps, monkeypatch):
    """The left-exactness probes and Span(F) share F.mapped, so F.map runs
    once per distinct map over the whole check."""
    calls = []
    for functor in (sp.InflationGSetFunctor, sp.FixedPointsGSetFunctor):
        monkeypatch.setattr(
            functor,
            "map",
            lambda self, f, unwrapped=functor.map: calls.append(f)
            or unwrapped(self, f),
        )
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--tower", "2,2", "--cap", "3", "verify", check]) == 0
    assert len(calls) == len(set(calls)) == maps


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
    "colim-span": lambda tower: vf.verify_colim_span(tower, 3, 5),
    "limit-span": lambda tower: vf.verify_limit_span(tower, 3),
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


def _orbit_size_multisets(n, cap):
    """The objects of C_n of size at most cap, up to isomorphism, as
    multisets of orbit sizes: an orbit of C_n has a divisor of n points."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return [
        sizes
        for length in range(cap + 1)
        for sizes in itertools.combinations_with_replacement(divisors, length)
        if sum(sizes) <= cap
    ]


@lru_cache(maxsize=None)
def _span_rank(n, s, t):
    """The rank of the span hom from the C_n-orbit of size s to the one of
    size t; the stabilizer of an orbit of size s is the multiples of s."""
    return span_basis_count_oracle(
        g.cyclic(n), tuple(range(0, n, s)), tuple(range(0, n, t))
    )


@pytest.mark.parametrize(
    "cap,hom_bases,basis_spans", [(4, 181, 2233), (6, 656, 19183)]
)
def test_span_check_counts_at_the_requested_tower_and_cap(
    cap, hom_bases, basis_spans
):
    """Through the CLI the span checks run on every link of the 2,3 tower
    at the requested cap: colim-span checks one hom basis per pair of
    capped objects of each link's target, and limit-span maps every basis
    span between capped objects of each link's source."""
    p, depth = 2, 3
    targets = [p**i for i in range(1, depth)]
    sources = [p * n for n in targets]
    assert hom_bases == sum(len(_orbit_size_multisets(n, cap)) ** 2 for n in targets)
    assert basis_spans == sum(
        _span_rank(n, s, t)
        for n in sources
        for X, Y in itertools.product(_orbit_size_multisets(n, cap), repeat=2)
        for s in X
        for t in Y
    )
    header = f"tower: cyclic p={p} depth={depth}, size cap {cap}"
    for check, lines in [
        ("colim-span", [f"{header}, seed 0", f"hom bases checked: {hom_bases}"]),
        ("limit-span", [header, f"basis spans transported: {basis_spans}"]),
    ]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--tower", f"{p},{depth}", "--cap", str(cap), "verify", check])
        assert code == 0
        assert out.getvalue().splitlines()[1:4] == ["PASS", *lines]
