"""Acceptance suite: ten exact checks, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as the
criteria complete; total runtime is well under five minutes.
"""

import itertools
import random

import pytest

from profspan import groups as g
from profspan import gsets as gs
from profspan import mackey as mk
from profspan import spans as sp
from profspan import verify as vf
from profspan.corpus import corpus_group, corpus_groups
from profspan.errors import IncoherentFamily

from oracles import (
    add_spans,
    basis_span_mor,
    compose_spans,
    coset_gset,
    double_coset_count,
    groups_of_order_at_most,
    scale_span,
    semiadditivity_check,
    span_basis_count_oracle,
)


def _criterion(n: int, desc: str):
    def deco(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n}: FAIL - {desc}")
                raise
            print(f"criterion {n}: PASS - {desc}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


def _marks_oracle(G):
    """Table of marks by direct fixed-point counting on coset actions."""
    lat = g.subgroup_lattice(G)
    out = []
    for i in range(lat.num_classes):
        X = coset_gset(G, lat.class_rep(i).elements)
        out.append(
            tuple(
                sum(
                    1
                    for x in X.points()
                    if all(X.action[x][h] == x for h in lat.class_rep(j).elements)
                )
                for j in range(lat.num_classes)
            )
        )
    return tuple(out)


@_criterion(1, "span arithmetic matches brute-force orbit-counting oracles")
def test_criterion_1_span_arithmetic():
    # Burnside relation over C2: t^2 = 2t for the free orbit t
    C2 = corpus_group("C2")
    tables = sp.burnside_tables(C2)
    free = next(
        i for i, o in enumerate(tables.class_orders) if o == 1
    )  # apex class of the free point-span
    assert tables.ring[free][free][free] == 2
    assert sum(tables.ring[free][free]) == 2

    # tables of marks against the fixed-point oracle
    for name in ("C2", "S3"):
        G = corpus_group(name)
        assert sp.burnside_tables(G).marks == _marks_oracle(G), name

    # span-basis ranks against the double-coset-with-subgroup-data oracle,
    # exhaustively over subgroup class pairs of every corpus group
    for name, G in corpus_groups():
        lat = g.subgroup_lattice(G)
        for c1 in range(lat.num_classes):
            for c2 in range(lat.num_classes):
                H = lat.class_rep(c1).elements
                K = lat.class_rep(c2).elements
                X = coset_gset(G, H)
                Y = coset_gset(G, K)
                count = len(sp.span_basis(X, Y))
                assert count == span_basis_count_oracle(G, H, K), (name, c1, c2)
                if len(H) == 1 or len(K) == 1:
                    # with a free endpoint the rank is the double-coset count
                    assert count == double_coset_count(G, H, K), (name, c1, c2)


@_criterion(2, "span composition is associative and bilinear on 500+ seeded triples")
def test_criterion_2_category_laws():
    rng = random.Random(0)
    pool = []
    for name, G in groups_of_order_at_most(8):
        objs = [gs.canonical_gset(G, m) for m in gs.gset_isoclasses(G, 3)]
        pool.append((name, objs))
    checked = 0
    while checked < 500:
        name, objs = pool[rng.randrange(len(pool))]
        X, Y, Z = (rng.choice(objs) for _ in range(3))
        b1 = sp.span_basis(X, Y)
        b2 = sp.span_basis(Y, Z)
        b3 = sp.span_basis(Z, Z)
        if not (b1 and b2 and b3):
            continue
        f = basis_span_mor(X, Y, rng.choice(b1))
        h = basis_span_mor(Y, Z, rng.choice(b2))
        k = basis_span_mor(Z, Z, rng.choice(b3))
        lhs = compose_spans(k, compose_spans(h, f))
        rhs = compose_spans(compose_spans(k, h), f)
        assert lhs == rhs, name
        # bilinearity against a second term and a scalar
        h2 = basis_span_mor(Y, Z, rng.choice(b2))
        assert compose_spans(add_spans(h, h2), f) == add_spans(
            compose_spans(h, f), compose_spans(h2, f)
        ), name
        assert compose_spans(scale_span(h, 3), f) == scale_span(
            compose_spans(h, f), 3
        ), name
        checked += 1
    assert checked >= 500


@_criterion(3, "hom-monoids are semiadditive: hom(X+X', Y) = hom(X, Y) x hom(X', Y)")
def test_criterion_3_semiadditivity():
    for name in ("C4", "S3"):
        G = corpus_group(name)
        objs = [gs.canonical_gset(G, m) for m in gs.gset_isoclasses(G, 3)]
        for X, Xp, Y in itertools.product(objs, repeat=3):
            assert semiadditivity_check(X, Xp, Y), (name, X, Xp, Y)


@_criterion(4, "capped G-set categories glue along inflation into the tower model")
def test_criterion_4_colim_gset():
    report = vf.verify_colim_gset(g.cyclic_tower(2, 3), 4)
    assert report.ok, report.render()


@_criterion(5, "stage span categories glue along Span(inflation) into the tower model")
def test_criterion_5_colim_span():
    for depth in (2, 3):
        report = vf.verify_colim_span(g.cyclic_tower(2, depth))
        assert report.ok, report.render()


@_criterion(6, "the deepest span stage is the limit along Span(fixed points)")
def test_criterion_6_limit_span():
    report = vf.verify_limit_span(g.cyclic_tower(2, 2))
    assert report.ok, report.render()


@_criterion(7, "unit squares are pullbacks; a counit square fails as expected")
def test_criterion_7_adjunction():
    report = vf.verify_adjunction(4)
    assert report.ok, report.render()
    assert any("EXPECTED" in line for line in report.lines)


@_criterion(8, "Burnside Mackey functors satisfy the axioms on the whole corpus")
def test_criterion_8_mackey_axioms():
    for name, G in corpus_groups():
        assert mk.check_mackey(mk.burnside_mackey(G)), name
    # the C6 instance has the 4-level restriction/transfer shape: generator
    # spans with an endpoint apex exist exactly between divisor-comparable
    # levels of the lattice {1, 2, 3, 6}
    C6 = corpus_group("C6")
    lat = g.subgroup_lattice(C6)
    orders = [lat.class_rep(c).order for c in range(lat.num_classes)]
    assert orders == [1, 2, 3, 6]
    M = mk.burnside_mackey(C6)
    assert [lv.rank for lv in M.levels] == [1, 2, 2, 4]
    for c1 in range(4):
        for c2 in range(4):
            keys = [k for (a, b, k) in M.gen_action if (a, b) == (c1, c2)]
            endpoint_apex = any(k[0] in (c1, c2) for k in keys)
            comparable = (
                orders[c1] % orders[c2] == 0 or orders[c2] % orders[c1] == 0
            )
            assert endpoint_apex == comparable, (c1, c2)


@_criterion(9, "Mackey functors assemble from tower stages; corrupted families rejected")
def test_criterion_9_mackey_limit():
    t = g.cyclic_tower(2, 2)
    report = vf.verify_mackey_limit(t)
    assert report.ok, report.render()
    # the negative control inside the verifier is also exercised directly
    family = mk.tower_family(t, mk.burnside_mackey(t.stages[-1]))
    family[0] = mk.zero_mackey(t.stages[0])
    with pytest.raises(IncoherentFamily):
        mk.assemble_from_tower(t, family)


@_criterion(10, "functors on the colimit correspond to coherent families")
def test_criterion_10_funcat():
    report = vf.verify_funcat(0)
    assert report.ok, report.render()
