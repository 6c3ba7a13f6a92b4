"""Mackey functors over the integral span category.

A Mackey functor assigns a finitely presented abelian group to each orbit
(subgroup conjugacy class) and an integer matrix to each basis span
between orbits; values on arbitrary G-sets and span morphisms follow by
additivity.  Functoriality on span composition encodes the classical
double-coset formula, and all arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import GroupMismatch, IncoherentFamily, Verdict
from .groups import FiniteGroup, GroupTower, QuotientMap, subgroup_lattice
from . import gsets as gs
from . import spans as sp


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def normalize_factors(factors) -> tuple[int, ...]:
    """Rewrite a list of cyclic orders in invariant-factor form."""
    powers: dict[int, list[int]] = {}
    for f in factors:
        if f < 2:
            raise ValueError("torsion factors must be at least 2")
        for p, e in _prime_factors(f).items():
            powers.setdefault(p, []).append(e)
    if not powers:
        return ()
    length = max(len(v) for v in powers.values())
    out = []
    for i in range(length):
        factor = 1
        for p, es in powers.items():
            es_sorted = sorted(es, reverse=True)
            if i < len(es_sorted):
                factor *= p ** es_sorted[i]
        out.append(factor)
    return tuple(reversed(out))


@dataclass(frozen=True)
class AbPresentation:
    """Finitely generated abelian group: free rank plus invariant factors."""

    rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        fs = self.invariant_factors
        if any(f < 2 for f in fs):
            raise ValueError("torsion factors must be at least 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError("factors must divide in sequence")

    @property
    def dims(self) -> int:
        return self.rank + len(self.invariant_factors)

    def orders(self) -> tuple[int, ...]:
        """Generator orders, 0 meaning infinite, in generator order."""
        return (0,) * self.rank + self.invariant_factors


ZERO_AB = AbPresentation(0, ())


def _congruent(A, B, tgt_orders) -> bool:
    """Matrix equality as maps into the presented target group."""
    if len(A) != len(B):
        return False
    for i, o in enumerate(tgt_orders):
        if len(A[i]) != len(B[i]):
            return False
        for a, b in zip(A[i], B[i]):
            if o == 0:
                if a != b:
                    return False
            elif (a - b) % o != 0:
                return False
    return True


def _matmul(A, B, cols: int):
    """A·B for B with cols columns; B may have no rows."""
    if not B:
        return _zeros(len(A), cols)
    Bt = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) for col in Bt) for row in A)


def _zeros(rows, cols):
    return tuple((0,) * cols for _ in range(rows))


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class MackeyFunctor:
    """Levels per subgroup conjugacy class; a matrix per basis span.

    gen_action is keyed by (source class, target class, basis span key)
    where the span runs between the canonical coset G-sets of the two
    classes; the matrix has level(target).dims rows and level(source).dims
    columns and sends source generators to target elements.
    """

    group: FiniteGroup
    levels: tuple[AbPresentation, ...]
    gen_action: dict


@lru_cache(maxsize=None)
def _orbit_basis(G: FiniteGroup, c1: int, c2: int) -> tuple:
    lat = subgroup_lattice(G)
    X = gs.coset_gset(G, lat.class_rep(c1).elements)
    Y = gs.coset_gset(G, lat.class_rep(c2).elements)
    return tuple(sp.span_basis(X, Y))


def _orbit_gset(G: FiniteGroup, c: int) -> gs.GSet:
    lat = subgroup_lattice(G)
    return gs.coset_gset(G, lat.class_rep(c).elements)


def _flip_key(G: FiniteGroup, c1: int, c2: int, key) -> tuple:
    """The key of the reversed span, re-canonicalized for the swapped
    endpoint order."""
    f, g = sp.basis_legs(_orbit_gset(G, c1), _orbit_gset(G, c2), key)
    (k, m), = sp.span_from_maps(g, f).terms
    assert m == 1
    return k


def burnside_mackey(G: FiniteGroup) -> MackeyFunctor:
    """The Burnside Mackey functor: at each orbit G/H, the free abelian
    group on spans G/H <- S -> pt (equivalently, on H-sets), with spans
    acting by composition against the reversed span."""
    lat = subgroup_lattice(G)
    n = lat.num_classes
    pt = gs.point_gset(G)
    pt_class = lat.class_of(tuple(G.elements()))
    level_basis = []
    for c in range(n):
        level_basis.append(list(_orbit_basis(G, c, pt_class)))
    levels = tuple(AbPresentation(len(bs)) for bs in level_basis)
    gen_action: dict = {}
    for c1 in range(n):
        X = _orbit_gset(G, c1)
        for c2 in range(n):
            Y = _orbit_gset(G, c2)
            tgt_index = {k: i for i, k in enumerate(level_basis[c2])}
            for key in _orbit_basis(G, c1, c2):
                flipped = sp.basis_span_mor(Y, X, _flip_key(G, c1, c2, key))
                cols = []
                for src_key in level_basis[c1]:
                    e = sp.basis_span_mor(X, pt, src_key)
                    composite = sp.compose_spans(e, flipped)
                    col = [0] * len(level_basis[c2])
                    for k, m in composite.terms:
                        col[tgt_index[k]] = m
                    cols.append(col)
                matrix = tuple(
                    tuple(cols[j][i] for j in range(len(cols)))
                    for i in range(len(level_basis[c2]))
                )
                gen_action[(c1, c2, key)] = matrix
    return MackeyFunctor(G, levels, gen_action)


def check_structure(M: MackeyFunctor) -> Verdict:
    """One level per subgroup class of M.group, and a matrix of the right
    shape for exactly the basis spans between orbits."""
    G = M.group
    n = subgroup_lattice(G).num_classes
    if len(M.levels) != n:
        return Verdict(False, "level count mismatch", len(M.levels))
    basis = [
        (c1, c2, key)
        for c1 in range(n)
        for c2 in range(n)
        for key in _orbit_basis(G, c1, c2)
    ]
    for c1, c2, key in basis:
        A = M.gen_action.get((c1, c2, key))
        if A is None:
            return Verdict(False, "missing generator action", (c1, c2, key))
        if len(A) != M.levels[c2].dims or any(len(r) != M.levels[c1].dims for r in A):
            return Verdict(False, "matrix shape mismatch", (c1, c2, key))
    extra = set(M.gen_action).difference(basis)
    if extra:
        return Verdict(False, "generator action off the span basis", min(extra))
    return Verdict(True)


def check_mackey(M: MackeyFunctor) -> Verdict:
    """Exhaustive functoriality check over basis spans between orbits.

    Verifies structural completeness of gen_action, torsion
    well-definedness, identity spans acting as identities, and the
    composition law M(b2 ∘ b1) = M(b2)·M(b1) with the composite expanded
    by span composition — the double-coset formula in matrix form.
    """
    verdict = check_structure(M)
    if not verdict:
        return verdict
    G = M.group
    n = subgroup_lattice(G).num_classes
    for c1 in range(n):
        src = M.levels[c1]
        for c2 in range(n):
            tgt = M.levels[c2]
            for key in _orbit_basis(G, c1, c2):
                A = M.gen_action[(c1, c2, key)]
                for j, o in enumerate(src.orders()):
                    if o == 0:
                        continue
                    for i, to in enumerate(tgt.orders()):
                        v = o * A[i][j]
                        if (to == 0 and v != 0) or (to != 0 and v % to != 0):
                            return Verdict(
                                False, "matrix not well defined on torsion",
                                (c1, c2, key),
                            )
    for c in range(n):
        X = _orbit_gset(G, c)
        (ikey, m), = sp.identity_span(X).terms
        A = M.gen_action[(c, c, ikey)]
        if m != 1 or not _congruent(A, _identity(M.levels[c].dims), M.levels[c].orders()):
            return Verdict(False, "identity span does not act as identity", c)
    for c1 in range(n):
        X = _orbit_gset(G, c1)
        for c2 in range(n):
            Y = _orbit_gset(G, c2)
            for c3 in range(n):
                Z = _orbit_gset(G, c3)
                tgt_orders = M.levels[c3].orders()
                rows, cols = M.levels[c3].dims, M.levels[c1].dims
                for k1 in _orbit_basis(G, c1, c2):
                    m1 = sp.SpanMor(X, Y, ((k1, 1),))
                    A1 = M.gen_action[(c1, c2, k1)]
                    for k2 in _orbit_basis(G, c2, c3):
                        composite = sp.compose_spans(sp.SpanMor(Y, Z, ((k2, 1),)), m1)
                        expanded = [[0] * cols for _ in range(rows)]
                        for k, m in composite.terms:
                            term = M.gen_action[(c1, c3, k)]
                            for row, term_row in zip(expanded, term):
                                for j, a in enumerate(term_row):
                                    row[j] += m * a
                        direct = _matmul(M.gen_action[(c2, c3, k2)], A1, cols)
                        if not _congruent(direct, expanded, tgt_orders):
                            return Verdict(
                                False, "composition law fails", (c1, c2, c3, k1, k2)
                            )
    return Verdict(True)


def zero_mackey(G: FiniteGroup) -> MackeyFunctor:
    lat = subgroup_lattice(G)
    n = lat.num_classes
    gen_action = {
        (c1, c2, key): ()
        for c1 in range(n)
        for c2 in range(n)
        for key in _orbit_basis(G, c1, c2)
    }
    return MackeyFunctor(G, (ZERO_AB,) * n, gen_action)


def reduce_mod(M: MackeyFunctor, n: int) -> MackeyFunctor:
    """Coefficient reduction: replace each level A by A ⊗ Z/n."""
    levels = tuple(
        AbPresentation(
            0,
            normalize_factors(
                (n,) * lv.rank
                + tuple(
                    d
                    for d in (math.gcd(f, n) for f in lv.invariant_factors)
                    if d > 1
                )
            ),
        )
        for lv in M.levels
    )
    return MackeyFunctor(M.group, levels, dict(M.gen_action))


def categorical_fixed_points(M: MackeyFunctor, q: QuotientMap) -> MackeyFunctor:
    """Restriction along the inflated spans: the Mackey functor over
    q.target = G/N whose level at H/N is M's level at the preimage of H/N."""
    G = M.group
    if q.source != G:
        raise GroupMismatch("quotient map is not from the functor's group")
    Q = q.target
    nq = subgroup_lattice(Q).num_classes
    # rename each inflated coset G-set to the canonical one, the coset
    # G-set of the preimage class
    sigma = [gs.canonical_iso(gs.inflate(_orbit_gset(Q, c), q)) for c in range(nq)]
    pre = [gs.orbit_class_multiset(s.dst)[0] for s in sigma]
    levels = tuple(M.levels[c] for c in pre)
    SpInf = sp.span_of_functor(sp.InflationGSetFunctor(q))
    gen_action: dict = {}
    for c1 in range(nq):
        X = _orbit_gset(Q, c1)
        for c2 in range(nq):
            Y = _orbit_gset(Q, c2)
            for key in _orbit_basis(Q, c1, c2):
                m = sp.basis_span_mor(X, Y, key)
                image = sp.transport_span(SpInf(m), sigma[c1], sigma[c2])
                (gkey, mult), = image.terms
                assert mult == 1
                gen_action[(c1, c2, key)] = M.gen_action[(pre[c1], pre[c2], gkey)]
    return MackeyFunctor(Q, levels, gen_action)


def _same_mackey(A: MackeyFunctor, B: MackeyFunctor):
    """Strict comparison: equal levels and congruent generator matrices."""
    if A.group != B.group:
        return "group mismatch"
    if A.levels != B.levels:
        return ("levels", A.levels, B.levels)
    for key, mat in A.gen_action.items():
        other = B.gen_action.get(key)
        if other is None:
            return ("missing", key)
        if not _congruent(mat, other, A.levels[key[1]].orders()):
            return ("matrix", key)
    return None


def assemble_from_tower(tower: GroupTower, family) -> MackeyFunctor:
    """Verify a per-stage family against categorical fixed points down the
    tower and return the deepest-stage functor.

    family[i] is a Mackey functor over tower.stages[i]; coherence demands
    family[i] equal categorical_fixed_points(family[i+1], tower.links[i]).
    """
    family = list(family)
    if len(family) != tower.depth:
        raise IncoherentFamily(-1, "family length does not match the tower")
    for i, M in enumerate(family):
        if M.group != tower.stages[i]:
            raise IncoherentFamily(i, "stage group mismatch")
    for i in range(tower.depth - 1):
        fixed = categorical_fixed_points(family[i + 1], tower.links[i])
        diff = _same_mackey(family[i], fixed)
        if diff is not None:
            raise IncoherentFamily(i, diff)
    return family[-1]


def tower_family(tower: GroupTower, deepest: MackeyFunctor):
    """The family generated by taking fixed points down from the deepest
    stage; assemble_from_tower accepts it by construction."""
    if deepest.group != tower.stages[-1]:
        raise GroupMismatch("functor is not over the deepest stage")
    family = [deepest]
    for i in range(tower.depth - 2, -1, -1):
        family.append(categorical_fixed_points(family[-1], tower.links[i]))
    return list(reversed(family))
