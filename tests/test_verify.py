"""verify colim-gset, decided on orbit classes and hom factors, against
an oracle that enumerates every hom-set, with negative controls and work
guards."""

import ast
import contextlib
import io
import math

import pytest

from profspan import groups as g
from profspan import gsets as gs
from profspan import spans as sp
from profspan import verify as vf
from profspan.cli import main
from profspan.errors import Verdict

from oracles import colim_gset_equivalence_oracle

TOWER_GRID = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]


@pytest.mark.parametrize("cap", [3, 4])
@pytest.mark.parametrize("p,depth", TOWER_GRID)
def test_colim_gset_verdict_matches_check_equivalence(p, depth, cap):
    report = vf.verify_colim_gset(p, depth, cap)
    ok, classes = colim_gset_equivalence_oracle(p, depth, cap)
    assert report.ok == ok
    assert report.lines[1] == f"colimit object classes: {classes}"


def test_colim_gset_fails_with_a_class_dropped(monkeypatch):
    colimit_classes = vf._colimit_classes
    monkeypatch.setattr(
        vf, "_colimit_classes", lambda tower, cap: colimit_classes(tower, cap)[:-1]
    )
    report = vf.verify_colim_gset(2, 3, 4)
    assert not report.ok
    assert report.lines[-1] == "equivalence failure: not essentially surjective"
    # the witness is the first stage object of the dropped class
    level, action = ast.literal_eval(report.witness)
    tower = g.cyclic_tower(2, 3)
    lifted = gs.inflate(gs.GSet(tower.stages[level], action), tower.projection(2, level))
    assert gs.orbit_class_multiset(lifted) == colimit_classes(tower, 4)[-1]


def _trivial_first_link(monkeypatch):
    """Make every cyclic tower's link 0 the trivial map C4 -> C2 (for p = 2)."""
    cyclic_tower = g.cyclic_tower

    def corrupted(p, depth):
        tower = cyclic_tower(p, depth)
        q = tower.links[0]
        trivial = g.QuotientMap(
            q.source,
            g.make_subgroup(q.source, q.source.elements()),
            q.target,
            (0,) * q.source.order,
        )
        return g.GroupTower(tower.stages, (trivial,) + tower.links[1:])

    monkeypatch.setattr(g, "cyclic_tower", corrupted)


def test_colim_gset_fails_on_a_link_that_is_not_onto(monkeypatch):
    """Inflation along the trivial map C4 -> C2 identifies every point's
    stabilizer with C4, so it is not full on any hom with a free orbit."""
    _trivial_first_link(monkeypatch)
    report = vf.verify_colim_gset(2, 3, 4)
    assert not report.ok
    assert report.lines[-1] == "equivalence failure: inflation not fully faithful"
    assert report.witness.startswith("(0, ")
    assert colim_gset_equivalence_oracle(2, 3, 4)[0] is False


def test_colim_gset_and_span_basis_enumerate_no_hom_set(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated a hom-set")

    monkeypatch.setattr(gs, "hom_gset", refuse)
    assert vf.verify_colim_gset(2, 3, 6).ok
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


def test_colim_span_fails_on_a_trivial_link(monkeypatch):
    """Inflation along the trivial map passes the left-exactness probes,
    but it sends the free C2-orbit to two C4-fixed points, so a basis
    span with that apex inflates to a span with two orbits."""
    _trivial_first_link(monkeypatch)
    report = vf.verify_colim_span(2, 2, 3)
    assert not report.ok
    assert report.witness == "inflation of a basis span is not basic at stage 0"


def test_limit_span_fails_on_a_trivial_link(monkeypatch):
    """The trivial map does not reach the generator of C2, so fixed points
    along it have no residual action; check_left_exact counts the error
    on the first square as a failure."""
    _trivial_first_link(monkeypatch)
    report = vf.verify_limit_span(2, 2, 3)
    assert not report.ok
    assert report.witness == "fixed points not left exact at stage 0"


def test_colim_span_reports_inflation_not_left_exact(monkeypatch):
    """A functor that fails check_left_exact is a FAIL line with exit 1,
    not an exception."""
    monkeypatch.setattr(
        sp, "check_left_exact", lambda F, objects: Verdict(False, "forced")
    )
    report = vf.verify_colim_span(2, 2, 3)
    assert not report.ok
    assert report.witness == "inflation not left exact at stage 0"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--tower", "2,2", "--cap", "3", "verify", "colim-span"])
    assert code == 1
    assert "FAIL inflation not left exact at stage 0" in out.getvalue()
