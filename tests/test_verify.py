"""verify colim-gset, decided on hom factors, against the exhaustive
comparison-functor check, with negative controls and work guards."""

import dataclasses

import pytest

from profspan import fincat as fc
from profspan import groups as g
from profspan import gsets as gs
from profspan import spans as sp
from profspan import verify as vf

from oracles import colim_gset_equivalence_oracle

TOWER_GRID = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]


@pytest.mark.parametrize("cap", [3, 4])
@pytest.mark.parametrize("p,depth", TOWER_GRID)
def test_colim_gset_verdict_matches_check_equivalence(p, depth, cap):
    report = vf.verify_colim_gset(p, depth, cap)
    assert report.ok == bool(colim_gset_equivalence_oracle(p, depth, cap))


def test_colim_gset_fails_with_a_class_dropped(monkeypatch):
    colimit_chain = fc.colimit_chain

    def drop_last_class(D):
        colim = colimit_chain(D)
        return dataclasses.replace(colim, reps=colim.reps[:-1])

    monkeypatch.setattr(fc, "colimit_chain", drop_last_class)
    report = vf.verify_colim_gset(2, 3, 4)
    assert not report.ok
    assert report.lines[-1] == "equivalence failure: not essentially surjective"


def test_colim_gset_fails_on_a_link_that_is_not_onto(monkeypatch):
    """Inflation along the trivial map C4 -> C2 identifies every point's
    stabilizer with C4, so it is not full on any hom with a free orbit."""
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
    report = vf.verify_colim_gset(2, 3, 4)
    assert not report.ok
    assert report.lines[-1] == "equivalence failure: inflation not fully faithful"
    assert report.witness.startswith("(0, ")


def test_colim_gset_and_span_basis_enumerate_no_hom_set(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated a hom-set")

    monkeypatch.setattr(gs, "hom_gset", refuse)
    monkeypatch.setattr(fc, "check_equivalence", refuse)
    assert vf.verify_colim_gset(2, 3, 6).ok
    G = g.dihedral(4)
    nonempty = [gs.canonical_gset(G, m) for m in gs.gset_isoclasses(G, 3)][1:]
    assert all(sp.span_basis(X, Y) for X in nonempty for Y in nonempty)
