import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from profspan import groups as g
from profspan import gsets as gs
from profspan import mackey as mk
from profspan import spans as sp
from profspan.corpus import corpus_group, corpus_groups
from profspan.errors import IncoherentFamily

from oracles import (
    burnside_with_reduction,
    categorical_fixed_points_oracle,
    compose_keys_oracle,
    compose_quotients,
    endpoint_keys,
    groups_of_order_at_most,
    hom_gset,
    is_iso,
    mackey_composition_oracle,
)
from test_spans import _law_positions, _relabelled


C2 = g.cyclic(2)
C4 = g.cyclic(4)
C6 = g.cyclic(6)


def test_normalize_factors():
    assert mk.normalize_factors(()) == ()
    assert mk.normalize_factors((4, 6)) == (2, 12)
    assert mk.normalize_factors((6, 4)) == (2, 12)
    assert mk.normalize_factors((12, 18)) == (6, 36)
    assert mk.normalize_factors((2, 2)) == (2, 2)


@given(st.lists(st.integers(min_value=2, max_value=200), max_size=6))
def test_normalize_factors_properties(factors):
    out = mk.normalize_factors(factors)
    assert math.prod(out) == math.prod(factors)
    for a, b in zip(out, out[1:]):
        assert b % a == 0


def test_ab_presentation_validation():
    with pytest.raises(ValueError):
        mk.AbPresentation(-1)
    with pytest.raises(ValueError):
        mk.AbPresentation(0, (3, 2))
    with pytest.raises(ValueError):
        mk.AbPresentation(0, (1,))
    p = mk.AbPresentation(1, mk.normalize_factors((6, 4)))
    assert p.rank == 1 and p.invariant_factors == (2, 12)
    assert p.dims == 3 and p.orders() == (0, 2, 12)


def test_burnside_mackey_trivial_group():
    M = mk.burnside_mackey(g.cyclic(1))
    assert M.levels == (mk.AbPresentation(1),)
    assert mk.check_mackey(M)


def test_burnside_mackey_c2_ranks():
    M = mk.burnside_mackey(C2)
    assert tuple(lv.rank for lv in M.levels) == (1, 2)
    assert mk.check_mackey(M)


def test_burnside_mackey_rank_oracle():
    # rank at class H = number of conjugacy classes of subgroups of H
    for name, G in groups_of_order_at_most(8):
        M = mk.burnside_mackey(G)
        lat = g.subgroup_lattice(G)
        for c in range(lat.num_classes):
            H = lat.class_rep(c)
            sub = g.make_group(
                [
                    [H.elements.index(G.mul(a, b)) for b in H.elements]
                    for a in H.elements
                ]
            )
            assert M.levels[c].rank == g.subgroup_lattice(sub).num_classes, (name, c)


@pytest.mark.parametrize("relabel_seed", [None, 23], ids=["given", "relabelled"])
@pytest.mark.parametrize(
    "name", [name for name, G in corpus_groups() if G.order <= 8]
)
def test_burnside_mackey_matches_the_pullback_route(name, relabel_seed):
    """Column j of the matrix of a key (a, legL, legR) from the orbit of c1
    to that of c2 is the j-th span of level c1 composed with the reversed
    span (a, legR, legL) by building their pullback G-set, in the basis of
    level c2."""
    G = corpus_group(name)
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    M = mk.burnside_mackey(G)
    pt = g.subgroup_lattice(G).class_of(tuple(G.elements()))
    for c1, c2, key in sp.orbit_keys(gs.tables(G)):
        a, legL, legR = key
        level = sp.orbit_basis(gs.tables(G), c2, pt)
        cols = []
        for span in sp.orbit_basis(gs.tables(G), c1, pt):
            col = [0] * len(level)
            for k, m in compose_keys_oracle(G, span, (a, legR, legL)):
                col[level.index(k)] = m
            cols.append(col)
        assert M.gen_action[c1, c2, key] == tuple(zip(*cols)), (c1, c2, key)


def test_burnside_mackey_c6_divisor_lattice_shape():
    M = mk.burnside_mackey(C6)
    lat = g.subgroup_lattice(C6)
    assert lat.num_classes == 4
    orders = [lat.class_rep(c).order for c in range(4)]
    assert orders == [1, 2, 3, 6]
    assert [lv.rank for lv in M.levels] == [1, 2, 2, 4]
    assert mk.check_mackey(M)
    # res/tr spans exist exactly between divisor-comparable levels
    for c1 in range(4):
        for c2 in range(4):
            keys = sp.orbit_basis(gs.tables(C6), c1, c2)
            endpoint_apex = any(k[0] in (c1, c2) for k in keys)
            comparable = (
                orders[c1] % orders[c2] == 0 or orders[c2] % orders[c1] == 0
            )
            assert endpoint_apex == comparable, (c1, c2)


def test_check_mackey_corpus_small():
    for name, G in groups_of_order_at_most(8):
        assert mk.check_mackey(mk.burnside_mackey(G)), name


def _zero_middle_level():
    # Z at C2/C2 and 0 at C2/1: the identity span acts by 1, every span
    # through the free orbit by 0
    gen_action = {}
    for c1 in range(2):
        for c2 in range(2):
            for key in sp.orbit_basis(gs.tables(C2), c1, c2):
                value = int((c1, c2, key[0]) == (1, 1, 1))
                gen_action[(c1, c2, key)] = ((value,) * c1,) * c2
    return mk.MackeyFunctor(C2, (mk.ZERO_AB, mk.AbPresentation(1)), gen_action)


def test_check_mackey_accepts_a_zero_middle_level():
    # the composites through the zero level must compare as zero matrices
    # of the outer shape
    assert mk.check_mackey(_zero_middle_level())


# Functors whose one-entry mutants check_mackey and the exhaustive oracle
# must judge alike: the Burnside functors of the corpus groups of order
# <= 8, Burnside mod 2 over C4 (torsion levels) and the zero middle level.
MUTATED = {
    name: (lambda G=G: mk.burnside_mackey(G))
    for name, G in groups_of_order_at_most(8)
}
MUTATED["C4-mod-2"] = lambda: mk.reduce_mod(mk.burnside_mackey(C4), 2)
MUTATED["C2-zero-middle"] = _zero_middle_level

# Every generator key of a functor gets one mutant, except where a functor
# has more than ALL_KEYS_UP_TO keys; there a seeded sample of SAMPLE_KEYS
# keys does.  A mutant costs both checks a scan up to its first failing
# pair: all 208 of D4 take about 14 s, 120 of C2xC2xC2's 726 about 40 s.
ALL_KEYS_UP_TO, SAMPLE_KEYS = 60, 20


def _one_entry_mutants(M, rng, moves=(1, -1)):
    """Per generator key with a nonempty matrix, M with one seeded entry of
    that matrix moved by a seeded one of moves."""
    for key in sorted(M.gen_action):
        mat = M.gen_action[key]
        if not mat or not mat[0]:
            continue
        i, j = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
        d = rng.choice(moves)
        action = dict(M.gen_action)
        action[key] = tuple(
            tuple(v + d * ((r, c) == (i, j)) for c, v in enumerate(row))
            for r, row in enumerate(mat)
        )
        yield key, mk.MackeyFunctor(M.group, M.levels, action)


@pytest.mark.parametrize("name", sorted(MUTATED))
def test_check_mackey_agrees_with_the_exhaustive_oracle_on_mutants(name):
    rng = random.Random(name)
    M = MUTATED[name]()
    assert mk.check_mackey(M) and mackey_composition_oracle(M)
    mutants = list(_one_entry_mutants(M, rng))
    if len(M.gen_action) > ALL_KEYS_UP_TO:
        mutants = rng.sample(mutants, SAMPLE_KEYS)
    for key, bad in mutants:
        fast, slow = mk.check_mackey(bad), mackey_composition_oracle(bad)
        assert (fast.ok, fast.reason, fast.witness) == (
            slow.ok, slow.reason, slow.witness
        ), key


def _moved(M, key):
    """M with entry (0, 0) of the matrix of key moved by one."""
    action = dict(M.gen_action)
    (first, *row), *rest = action[key]
    action[key] = ((first + 1, *row), *rest)
    return mk.MackeyFunctor(M.group, M.levels, action)


@pytest.mark.parametrize("name", ["C4xC2", "Q8"])
def test_check_mackey_names_the_oracle_witness_of_a_corrupted_second(name):
    """One entry of the Burnside functor moved, first on a key that is no
    endpoint key, then on an endpoint key between two orbits that the
    witness reads as its second and not as its first: check_mackey FAILs
    with the exhaustive oracle's reason and witness.  The law pass packs
    the columns of the seconds it reads, the endpoint keys', and the
    failure scan packs the others as it reaches them; the first key is
    the scan's second at its witness, and the second is the law pass's."""
    M = mk.burnside_mackey(corpus_group(name))
    keys = sp.orbit_keys(gs.tables(M.group))
    non_endpoint = next(
        (c1, c2, k)
        for c1, c2, k in keys
        if k[0] not in (c1, c2) and M.gen_action[c1, c2, k]
    )
    bad = _moved(M, non_endpoint)
    slow = mackey_composition_oracle(bad)
    assert not slow.ok and slow.witness[4] == non_endpoint[2]
    fast = mk.check_mackey(bad)
    assert (fast.ok, fast.reason, fast.witness) == (slow.ok, slow.reason, slow.witness)
    for c1, c2, k in keys:
        if c1 == c2 or k[0] not in (c1, c2) or not M.gen_action[c1, c2, k]:
            continue
        bad = _moved(M, (c1, c2, k))
        slow = mackey_composition_oracle(bad)
        if not slow.ok and slow.witness[4] == k != slow.witness[3]:
            break
    else:
        pytest.fail("no endpoint key is a witness's second")
    fast = mk.check_mackey(bad)
    assert (fast.ok, fast.reason, fast.witness) == (slow.ok, slow.reason, slow.witness)


def _agree_with_the_oracle(mutants):
    """Each mutant's verdict, reason and witness under check_mackey and the
    exhaustive oracle, which must agree; the verdicts are returned."""
    verdicts = []
    for key, bad in mutants:
        fast, slow = mk.check_mackey(bad), mackey_composition_oracle(bad)
        assert (fast.ok, fast.reason, fast.witness) == (
            slow.ok, slow.reason, slow.witness
        ), key
        verdicts.append(fast.ok)
    return verdicts


def _times(A, B):
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B)) for row in A
    )


def _unimodular(n, rng):
    """A seeded n×n integer matrix P and its integer inverse: P = U·L for
    U = I + Σ a_j E_0j and L = I + Σ b_i E_i0 (i, j ≥ 1), with a and b near
    10^6, so P⁻¹ = (I − Σ b_i E_i0)·(I − Σ a_j E_0j)."""
    big = [rng.choice((1, -1)) * rng.randrange(10**6 - 999, 10**6) for _ in range(2 * n)]
    I = [[int(i == j) for j in range(n)] for i in range(n)]
    U, L, Ui, Li = ([row[:] for row in I] for _ in range(4))
    for k in range(1, n):
        U[0][k], Ui[0][k] = big[k], -big[k]
        L[k][0], Li[k][0] = big[n + k], -big[n + k]
    return _times(U, L), _times(Li, Ui)


def _largest_law_entry(M):
    """The largest absolute entry of M(k2)·M(k1) and of M(k2 ∘ k1), the
    composite expanded by its terms, over every pair of endpoint keys."""
    G = M.group
    n = len(M.levels)
    top = 0
    for c1, c2, c3 in itertools.product(range(n), repeat=3):
        firsts = endpoint_keys(G, c1, c2)
        seconds = endpoint_keys(G, c2, c3)
        grid = sp.composites(gs.tables(G), c1, c3, firsts, seconds)
        basis = sp.orbit_basis(gs.tables(G), c1, c3)
        for (k1, k2), terms in zip(itertools.product(firsts, seconds), grid):
            product = _times(M.gen_action[c2, c3, k2], M.gen_action[c1, c2, k1])
            expanded = [
                sum(m * M.gen_action[c1, c3, basis[p]][r][j] for p, m in terms)
                for r in range(M.levels[c3].dims)
                for j in range(M.levels[c1].dims)
            ]
            top = max(top, *map(abs, expanded), *(abs(a) for row in product for a in row))
    return top


@pytest.mark.parametrize("name", ["D4", "C4xC2"])
def test_check_mackey_after_a_change_of_basis_with_large_entries(name):
    """The Burnside functor with each level's basis changed by a unimodular
    P_c with entries near 10^6, M'(k) = P_c2·M(k)·P_c1⁻¹ for k from c1 to
    c2, is a Mackey functor with entries far above 10^6, the base that
    check_mackey packs the law's rows in is above twice every entry of
    both sides, and its one-entry mutants get the exhaustive oracle's
    verdict and witness."""
    rng = random.Random(name)
    M = mk.burnside_mackey(corpus_group(name))
    changes = [_unimodular(level.dims, rng) for level in M.levels]
    action = {
        (c1, c2, key): _times(_times(changes[c2][0], A), changes[c1][1])
        for (c1, c2, key), A in M.gen_action.items()
    }
    changed = mk.MackeyFunctor(M.group, M.levels, action)
    assert max(abs(a) for A in action.values() for row in A for a in row) > 10**12
    assert mk.check_mackey(changed)
    assert 2 ** mk._shift(changed) > 2 * _largest_law_entry(changed)
    mutants = rng.sample(list(_one_entry_mutants(changed, rng)), SAMPLE_KEYS)
    assert not any(_agree_with_the_oracle(mutants))


def test_check_mackey_decides_torsion_mutants_by_congruence():
    """Moving an entry of Burnside mod 2 over C4 by ±2 changes no map into
    a level, so check_mackey passes with the oracle though the packed rows
    of the law differ (its entrywise fallback); by ±1 it fails, with the
    oracle's witness."""
    M = mk.reduce_mod(mk.burnside_mackey(C4), 2)
    rng = random.Random("C4-mod-2")
    assert all(_agree_with_the_oracle(_one_entry_mutants(M, rng, (2, -2))))
    assert not any(_agree_with_the_oracle(_one_entry_mutants(M, rng, (1, -1))))


def _pack_rows(A, base):
    return [sum(a * base**j for j, a in enumerate(row)) for row in A]


def test_check_mackey_packs_a_product_that_carries_into_the_adjacent_column():
    """A non-functor over C3, Z² at the free orbit and 0 at the point,
    with M(x) = diag(8, 1) for the first conjugation x ≠ 1 of the free
    orbit and M(x²) = rows (0, 1), (0, 1).  M(x)·M(x) has the row (64, 0),
    above |G|·max = 24, so in base 2^6 it packs as the row (0, 1) of
    M(x ∘ x): only the dims·max² = 128 term of _shift keeps the pair
    (x, x), the exhaustive oracle's first failure, from passing."""
    C3 = g.cyclic(3)
    free, point = range(2)
    assert g.subgroup_lattice(C3).class_rep(free).order == 1
    identity = sp.identity_key(gs.tables(C3), free)
    x, x2 = (k for k in sp.orbit_basis(gs.tables(C3), free, free) if k != identity)
    levels = (mk.AbPresentation(2), mk.ZERO_AB)
    gen_action = {
        (c1, c2, k): ((),) * levels[c2].dims if c1 == point else ()
        for c1, c2, k in sp.orbit_keys(gs.tables(C3))
    }
    A = ((8, 0), (0, 1))
    gen_action[free, free, identity] = ((1, 0), (0, 1))
    gen_action[free, free, x] = A
    gen_action[free, free, x2] = ((0, 1), (0, 1))
    M = mk.MackeyFunctor(C3, levels, gen_action)

    fast, slow = mk.check_mackey(M), mackey_composition_oracle(M)
    assert (fast.ok, fast.reason, fast.witness) == (slow.ok, slow.reason, slow.witness)
    assert slow.witness == (free, free, free, x, x)
    product = _times(A, A)
    assert product == ((64, 0), (0, 1))
    assert (C3.order * 8).bit_length() + 1 == 6
    assert _pack_rows(product, 2**6) == _pack_rows(gen_action[free, free, x2], 2**6)
    assert 2 ** mk._shift(M) > 2 * 64


def _inflated_burnside():
    """The Burnside functor of C4/C2 inflated to C4, M(G/H) = A(H/N) for
    N = C2 ≤ H and 0 at the free orbit: the composite of the Burnside
    functor with Span(fixed points), read from its table."""
    q = g.quotient(C4, g.make_subgroup(C4, (0, 2)))
    table = sp.span_images(q, "fixed points")
    B = mk.burnside_mackey(q.target)
    levels = tuple(mk.ZERO_AB if m is None else B.levels[m] for m in table.images)
    action = {}
    tg, tk = gs.tables(C4), gs.tables(q.target)
    for c1, c2 in itertools.product(range(len(levels)), repeat=2):
        m1, m2 = table.images[c1], table.images[c2]
        for key, j in zip(sp.orbit_basis(tg, c1, c2), table.terms[c1][c2]):
            zero = ((0,) * levels[c1].dims,) * levels[c2].dims
            image = None if j is None else sp.orbit_basis(tk, m1, m2)[j]
            action[c1, c2, key] = zero if j is None else B.gen_action[m1, m2, image]
    return mk.MackeyFunctor(C4, levels, action)


MUTATED["C4-inflated-from-C2"] = _inflated_burnside


def _pack_at_stride(A, base, stride):
    return sum(
        a * base ** (i * stride + j) for i, row in enumerate(A) for j, a in enumerate(row)
    )


@pytest.mark.parametrize("make, middle", [
    (lambda: mk.burnside_mackey(C2), 0),
    (_inflated_burnside, 1),
], ids=["C2-burnside", "C4-inflated-from-C2"])
def test_check_mackey_packs_rows_at_a_stride_of_the_largest_dims(make, middle):
    """A Mackey functor with the largest dims D at the point, whose one
    law pair (r, t) through the middle orbit composes to a key N that no
    law pair reads, with one unit of M(N) moved from entry (0, D−1) to
    entry (1, 0).  M(t)·M(r) and M(N) then differ by that move alone,
    which a stride of D−1 would pack as equal integers: check_mackey
    must fail with the exhaustive oracle's witness.  The inflated
    functor has a zero level beside its non-zero ones."""
    M = make()
    G, pt = M.group, len(M.levels) - 1
    D = max(lv.dims for lv in M.levels)
    assert M.levels[pt].dims == D >= 2 and mk.check_mackey(M)
    (p1,), (p2,), (((n, mult),),) = sp.law_table(gs.tables(G), pt, pt)[middle]
    assert mult == 1
    r = sp.orbit_basis(gs.tables(G), pt, middle)[p1]
    t = sp.orbit_basis(gs.tables(G), middle, pt)[p2]
    N = sp.orbit_basis(gs.tables(G), pt, pt)[n]
    action = dict(M.gen_action)
    moved = [list(row) for row in action[pt, pt, N]]
    moved[0][D - 1] -= 1
    moved[1][0] += 1
    action[pt, pt, N] = tuple(map(tuple, moved))
    bad = mk.MackeyFunctor(G, M.levels, action)

    product = _times(action[middle, pt, t], action[pt, middle, r])
    difference = [
        [a - b for a, b in zip(row, other)] for row, other in zip(product, moved)
    ]
    unit = [[0] * D for _ in range(D)]
    unit[0][D - 1], unit[1][0] = 1, -1
    assert difference == unit
    base = 2 ** mk._shift(bad)
    assert _pack_at_stride(product, base, D - 1) == _pack_at_stride(moved, base, D - 1)
    assert _pack_at_stride(product, base, D) != _pack_at_stride(moved, base, D)

    fast, slow = mk.check_mackey(bad), mackey_composition_oracle(bad)
    assert (fast.ok, fast.reason, fast.witness) == (slow.ok, slow.reason, slow.witness)
    assert not fast.ok and fast.reason == "composition law fails"


@pytest.mark.parametrize(
    "name, G", groups_of_order_at_most(8), ids=[n for n, _ in groups_of_order_at_most(8)]
)
def test_check_mackey_packs_the_zero_functor(name, G):
    """Every matrix of the zero functor is empty: each packs to 0, with no
    rows and no columns, and check_mackey passes with the oracle."""
    M = mk.zero_mackey(G)
    assert mk.check_mackey(M) and mackey_composition_oracle(M)
    assert mk._shift(M) == 1 and all(A == () for A in M.gen_action.values())


@pytest.mark.parametrize(
    "relabel_seed, law_pairs", [(None, 596), (31, 578)], ids=["given", "relabelled"]
)
def test_no_law_scan_composes_a_triple_without_pairs(monkeypatch, relabel_seed, law_pairs):
    """law_table and check_mackey on C4xC2 compose exactly the 249 class
    triples whose law pairs have firsts and seconds, each once and with
    the pairs of _law_positions: 596, or 578 relabelled, whose Weyl
    generating sets differ (1,002 and 984 before the firsts through three
    distinct classes were cut to one per Weyl orbit).  The other 263 of
    the 512 get the entry None and no spans.composites call, and the law
    scan over spans.law_grids visits exactly the 249.  An entry through
    three distinct classes reads the Weyl entry of its first two,
    composed then if it is unread, so reading the entries in reverse
    order composes the same 249."""
    G = corpus_group("C4xC2")
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    M = mk.burnside_mackey(G)
    n = g.subgroup_lattice(G).num_classes
    triples = list(itertools.product(range(n), repeat=3))
    positions = {t: _law_positions(G, *t) for t in triples}
    with_pairs = [t for t in triples if all(positions[t])]
    assert (len(triples), len(with_pairs)) == (512, 249)
    pairs = sum(len(firsts) * len(seconds) for firsts, seconds in positions.values())
    calls = []
    composites = sp.composites

    def spy(t, c1, c3, firsts, seconds):
        assert firsts and seconds
        calls.append((t, len(firsts) * len(seconds)))
        return composites(t, c1, c3, firsts, seconds)

    monkeypatch.setattr(sp, "composites", spy)
    gs.tables.cache_clear()
    assert mk.check_mackey(M)
    assert len(calls) == 249 and {K for K, _ in calls} == {gs.tables(G)}
    assert sum(m for _, m in calls) == pairs == law_pairs
    for order in (triples, triples[::-1]):
        calls.clear()
        gs.tables.cache_clear()
        for c1, c2, c3 in order:
            entry = sp.law_table(gs.tables(G), c1, c3)[c2]
            assert (entry is not None) == ((c1, c2, c3) in with_pairs)
        assert len(calls) == 249

    visited = []

    def walk():
        for entry in sp.law_grids(gs.tables(G)):
            visited.append(entry[:3])
            yield entry

    assert mk._composition_failure(M, walk()) is None
    assert visited == with_pairs and len(calls) == 249


def test_an_equal_group_reads_the_kept_tables(monkeypatch):
    """A group made again from the same table (make_group) is a new
    object equal to the first, and shares its table store (gs.tables):
    its Burnside build and check_mackey build no basis (span_basis) and
    read no double-coset table (spans._double_cosets), while a cold build
    of the same table, on an emptied store, does both."""
    table = _relabelled(corpus_group("C4xC2"), 37).mult
    calls = []

    def spy(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)

        return counted

    for name in ("span_basis", "_double_cosets"):
        monkeypatch.setattr(sp, name, spy(name, getattr(sp, name)))
    gs.tables.cache_clear()
    first = g.make_group(table)
    assert mk.check_mackey(mk.burnside_mackey(first))
    assert {"span_basis", "_double_cosets"} <= set(calls)
    calls.clear()
    second = g.make_group(table)
    assert second is not first and second == first
    assert mk.check_mackey(mk.burnside_mackey(second))
    assert calls == []


def test_a_cold_check_makes_few_value_hashes(monkeypatch):
    """With the table store emptied, a Burnside build and check_mackey on
    C4xC2 call groups.Value.__hash__ at most 50 times (13; 5,610 when each
    table was an lru_cache keyed by (G, c1, c2) or (X, c), and 585 when
    the readers took the group and looked its store up on every call):
    the store is looked up once per call of burnside_mackey and of
    check_mackey, handed to every reader, and its tables are read by
    class index."""
    G = corpus_group("C4xC2")
    gs.tables.cache_clear()
    calls = 0
    value_hash = g.Value.__hash__

    def counted(self):
        nonlocal calls
        calls += 1
        return value_hash(self)

    monkeypatch.setattr(g.Value, "__hash__", counted)
    assert mk.check_mackey(mk.burnside_mackey(G))
    monkeypatch.undo()
    assert 0 < calls <= 50


def test_check_mackey_detects_corruption():
    M = mk.burnside_mackey(C2)
    bad_action = dict(M.gen_action)
    key = next(k for k in bad_action if k[0] != k[1])
    mat = bad_action[key]
    bad_action[key] = tuple(
        tuple(v + (1 if (i, j) == (0, 0) else 0) for j, v in enumerate(row))
        for i, row in enumerate(mat)
    )
    bad = mk.MackeyFunctor(C2, M.levels, bad_action)
    verdict = mk.check_mackey(bad)
    assert not verdict and verdict.reason == "composition law fails"


def test_check_mackey_zero_functor():
    assert mk.check_mackey(mk.zero_mackey(C4))


def test_check_mackey_mod_2_coefficients():
    M = mk.reduce_mod(mk.burnside_mackey(C2), 2)
    assert all(lv.rank == 0 for lv in M.levels)
    assert M.levels[1].invariant_factors == (2, 2)
    assert mk.check_mackey(M)


def test_check_mackey_torsion_well_definedness():
    # Z/2 at the free orbit, Z at the point orbit: a nonzero map
    # Z/2 -> Z cannot be well defined
    M = mk.burnside_mackey(C2)
    levels = (mk.AbPresentation(0, (2,)), mk.AbPresentation(1))
    gen_action = {}
    for (c1, c2, key) in M.gen_action:
        rows = levels[c2].dims
        cols = levels[c1].dims
        if c1 == c2 and rows == cols:
            gen_action[(c1, c2, key)] = mk._identity(rows)
        else:
            gen_action[(c1, c2, key)] = ((0,) * cols,) * rows
    ok_shape = mk.MackeyFunctor(C2, levels, gen_action)
    bad_key = next(k for k in gen_action if k[0] == 0 and k[1] == 1)
    bad_action = dict(gen_action)
    bad_action[bad_key] = ((1,),)
    verdict = mk.check_mackey(mk.MackeyFunctor(C2, levels, bad_action))
    assert not verdict and verdict.reason == "matrix not well defined on torsion"


@pytest.mark.parametrize("name, n", [("C2", 2), ("C4", 3), ("S3", 6), ("C2xC2", 4)])
def test_check_mackey_passes_torsion_levels_that_map_into_free_ones(name, n):
    """The Burnside functor plus its reduction mod n is a functor whose
    torsion generators map into levels with free generators, by zero:
    check_mackey passes it, as the exhaustive oracle does, and a one
    on a torsion generator's free coordinate is not well defined."""
    G = corpus_group(name)
    M = burnside_with_reduction(G, n)
    assert mk.check_mackey(M) and mackey_composition_oracle(M)
    key = next(k for k in sorted(M.gen_action) if k[0] != k[1])
    rank = M.levels[key[0]].rank
    A = [list(row) for row in M.gen_action[key]]
    A[0][rank] = 1  # the first torsion generator to the first free one
    bad = dict(M.gen_action)
    bad[key] = tuple(map(tuple, A))
    verdict = mk.check_mackey(mk.MackeyFunctor(G, M.levels, bad))
    assert (verdict.reason, verdict.witness) == ("matrix not well defined on torsion", key)


def test_congruent_compares_shapes_then_entries_up_to_torsion():
    assert mk._congruent(((1, 2), (3, 5)), ((1, 2), (3, 1)), (0, 4))
    assert not mk._congruent(((1, 2), (3, 5)), ((1, 2), (3, 2)), (0, 4))
    assert not mk._congruent(((1, 2), (3, 5)), ((1, 3), (3, 5)), (0, 4))
    assert not mk._congruent(((1, 2),), ((1, 2), (3, 5)), (0,))  # row count
    assert not mk._congruent(((1, 2), (3,)), ((1, 2), (3, 5)), (0, 4))  # row length


def test_same_mackey_names_each_mismatch():
    M = mk.burnside_mackey(C4)
    key = next(k for k in sorted(M.gen_action) if k[0] != k[1])
    assert mk._same_mackey(M, mk.MackeyFunctor(C4, M.levels, dict(M.gen_action))) is None
    assert mk._same_mackey(M, mk.burnside_mackey(C2)) == "group mismatch"
    Z = mk.zero_mackey(C4)
    assert mk._same_mackey(M, Z) == ("levels", M.levels, Z.levels)
    fewer = {k: A for k, A in M.gen_action.items() if k != key}
    assert mk._same_mackey(M, mk.MackeyFunctor(C4, M.levels, fewer)) == ("missing", key)
    changed = dict(M.gen_action)
    changed[key] = tuple(tuple(a + 1 for a in row) for row in M.gen_action[key])
    assert mk._same_mackey(M, mk.MackeyFunctor(C4, M.levels, changed)) == ("matrix", key)


def test_fixed_points_trivial_kernel():
    M = mk.burnside_mackey(C4)
    same = mk.categorical_fixed_points(M, g.quotient(C4, g.make_subgroup(C4, (0,))))
    assert mk._same_mackey(M, same) is None


def test_fixed_points_whole_group():
    M = mk.burnside_mackey(C4)
    top = mk.categorical_fixed_points(
        M, g.quotient(C4, g.make_subgroup(C4, (0, 1, 2, 3)))
    )
    assert len(top.levels) == 1
    assert top.levels[0] == M.levels[-1]
    assert mk.check_mackey(top)


def test_fixed_points_c4_levels():
    M = mk.burnside_mackey(C4)
    fp = mk.categorical_fixed_points(M, g.quotient(C4, g.make_subgroup(C4, (0, 2))))
    assert fp.group == C2
    # levels are the C4 levels at the preimage classes: C2 and C4
    assert [lv.rank for lv in fp.levels] == [2, 3]
    assert mk.check_mackey(fp)


def test_fixed_points_two_steps_equal_composite():
    t = g.cyclic_tower(2, 3)
    M = mk.burnside_mackey(t.stages[2])
    one = mk.categorical_fixed_points(M, t.links[1])
    two = mk.categorical_fixed_points(one, t.links[0])
    q = compose_quotients(t.links[0], t.links[1])
    direct = mk.categorical_fixed_points(M, q)
    assert mk._same_mackey(two, direct) is None


def _key_labelled(G):
    """A functor-shaped record over G whose "matrix" at each basis key is
    the key itself, and whose level at class c has rank c: its categorical
    fixed points show the inflated key and preimage class of every key."""
    n = g.subgroup_lattice(G).num_classes
    return mk.MackeyFunctor(
        G,
        tuple(mk.AbPresentation(c) for c in range(n)),
        {
            (c1, c2, k): (c1, c2, k)
            for c1 in range(n)
            for c2 in range(n)
            for k in sp.orbit_basis(gs.tables(G), c1, c2)
        },
    )


def _normal_quotients(G):
    lat = g.subgroup_lattice(G)
    return [g.quotient(G, S) for S, normal in zip(lat.subgroups, lat.normal) if normal]


def _fixed_point_cases():
    for name, G in corpus_groups():
        for q in _normal_quotients(G):
            yield f"{name}/{len(q.kernel.elements)}", q
    for p, depth in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]:
        for i, q in enumerate(g.cyclic_tower(p, depth).links):
            yield f"tower-{p}-{depth}-link-{i}", q


def test_fixed_points_key_every_basis_span_as_the_inflated_g_set_route():
    cases = 0
    for label, q in _fixed_point_cases():
        M = _key_labelled(q.source)
        fast = mk.categorical_fixed_points(M, q)
        slow = categorical_fixed_points_oracle(M, q)
        assert fast.levels == slow.levels, label
        assert list(fast.gen_action.items()) == list(slow.gen_action.items()), label
        cases += 1
    assert cases == 127


@pytest.mark.parametrize(
    "name, kernel",
    [("C8", (0, 4)), ("D4", (0, 5)), ("C12", (0, 6)), ("S3", (0,)), ("Q8", (0, 1))],
)
def test_fixed_points_change_under_a_wrong_renaming(monkeypatch, name, kernel):
    # rename the inflated regular orbit of G/N onto its canonical G-orbit
    # by the right renaming followed by a non-identity automorphism
    G = corpus_group(name)
    q = g.quotient(G, g.make_subgroup(G, kernel))
    M = _key_labelled(G)
    right = mk.categorical_fixed_points(M, q)
    orbit_image = sp._orbit_image

    def wrong_image(tg, tk, *rest):
        image = orbit_image(tg, tk, *rest)
        if len(image.sigma) != q.target.order:
            return image
        T = tk.orbit(image.cls)
        auto = next(
            a for a in hom_gset(T, T) if is_iso(a) and a.values != tuple(T.points())
        )
        return image._replace(sigma=tuple(auto.values[x] for x in image.sigma))

    # the Span table of q is kept per functor and link, so it is built
    # afresh under the wrong renaming by the uncached function, and the
    # kept table is neither read nor written
    monkeypatch.setattr(sp, "_orbit_image", wrong_image)
    monkeypatch.setattr(sp, "span_images", sp.span_images.__wrapped__)
    wrong = mk.categorical_fixed_points(M, q)
    assert wrong.levels == right.levels
    assert wrong.gen_action != right.gen_action


def test_assemble_from_tower_roundtrip():
    t = g.cyclic_tower(2, 2)
    family = mk.tower_family(t, mk.burnside_mackey(t.stages[-1]))
    assert mk.assemble_from_tower(t, family) is family[-1]


def test_assemble_from_tower_relabelled_stage():
    # C8 -> C4 with the C4 stage numbered 0, 2, 1, 3 (1 and 2 swapped), so
    # its table is not in coset-minimum order; the family built down the
    # tower's own link is accepted
    C8 = g.cyclic(8)
    swap = (0, 2, 1, 3)
    C4r = g.make_group(
        [[swap[(swap[a] + swap[b]) % 4] for b in range(4)] for a in range(4)]
    )
    link = g.QuotientMap(
        C8, g.make_subgroup(C8, (0, 4)), C4r, tuple(swap[x % 4] for x in range(8))
    )
    t = g.make_tower([C4r, C8], [link])
    M = mk.burnside_mackey(C8)
    family = mk.tower_family(t, M)
    assert family[0].group == C4r and mk.check_mackey(family[0])
    assert mk.assemble_from_tower(t, family) is M


def test_assemble_from_tower_depth_1():
    t = g.cyclic_tower(3, 1)
    M = mk.burnside_mackey(t.stages[0])
    assert mk.assemble_from_tower(t, [M]) is M


def test_assemble_from_tower_rejects_zero_stage():
    t = g.cyclic_tower(2, 2)
    family = mk.tower_family(t, mk.burnside_mackey(t.stages[-1]))
    family[0] = mk.zero_mackey(t.stages[0])
    with pytest.raises(IncoherentFamily) as err:
        mk.assemble_from_tower(t, family)
    assert err.value.stage == 0


def _rejected(tower, family) -> IncoherentFamily:
    with pytest.raises(IncoherentFamily) as err:
        mk.assemble_from_tower(tower, family)
    return err.value


def test_assemble_from_tower_names_each_incoherence():
    """Each way a family fails, with the message it prints: the levels
    witness prints the levels' AbPresentation reprs."""
    t = g.cyclic_tower(2, 2)
    family = mk.tower_family(t, mk.burnside_mackey(t.stages[-1]))
    assert str(_rejected(t, family[:1])) == (
        "incoherent family at stage -1: 'family length does not match the tower'"
    )
    assert str(_rejected(t, [mk.burnside_mackey(C4), family[1]])) == (
        "incoherent family at stage 0: 'stage group mismatch'"
    )
    assert str(_rejected(t, [mk.zero_mackey(C2), family[1]])) == (
        "incoherent family at stage 0: ('levels', "
        "(AbPresentation(rank=0, invariant_factors=()), "
        "AbPresentation(rank=0, invariant_factors=())), "
        "(AbPresentation(rank=2, invariant_factors=()), "
        "AbPresentation(rank=3, invariant_factors=())))"
    )
    levels, key = family[0].levels, (1, 1, (1, (0,), (0,)))
    extra = dict(family[0].gen_action)
    extra[0, 1, (9, (), ())] = ()  # off the basis: the fixed points have no matrix there
    stage = mk.MackeyFunctor(C2, levels, extra)
    assert str(_rejected(t, [stage, family[1]])) == (
        "incoherent family at stage 0: ('missing', (0, 1, (9, (), ())))"
    )
    changed = dict(family[0].gen_action)
    changed[key] = tuple(tuple(a + 1 for a in row) for row in changed[key])
    stage = mk.MackeyFunctor(C2, levels, changed)
    assert str(_rejected(t, [stage, family[1]])) == (
        "incoherent family at stage 0: ('matrix', (1, 1, (1, (0,), (0,))))"
    )
