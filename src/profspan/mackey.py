"""Mackey functors over the integral span category.

A Mackey functor assigns a finitely presented abelian group to each orbit
(subgroup conjugacy class) and an integer matrix to each basis span
between orbits; values on arbitrary G-sets and span morphisms follow by
additivity.  Functoriality on span composition encodes the classical
double-coset formula, and all arithmetic is exact.

The module works on basis keys only, and builds no span morphism.  The
basis spans between orbits, which gen_action is keyed by, are
spans.orbit_keys; a reversed or identity span is keyed from a point of
each end with spans.pair_key, and keys are composed with
spans._compose_keys, given the canonical orbits at their two ends.
Both number cosets and choose conjugators as spans.coset_tables does,
and key every orbit from the W-orbit table of each end and class
(spans._least_points), so every key of one functor shares the leg
tuples of those tables.
categorical_fixed_points reads Span(inflation) from the table of its
link (spans.span_images), as the colim-span check does: the image class
of each orbit of G/N is the level it takes, and the one image key of
each basis key of G/N is the matrix it takes.

check_mackey decides the composition law on the pairs of endpoint keys
(spans.endpoint_keys): the transfers, restrictions and conjugations,
which give it on all pairs.  On the corpus this tests 22,995 of the
88,414 pairs of basis spans; the test suite keeps the exhaustive check
as its oracle.  Each pair costs one composition and one matrix product,
with the columns of the first factor taken once per key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def burnside_mackey(G: FiniteGroup) -> MackeyFunctor:
    """The Burnside Mackey functor: at each orbit G/H, the free abelian
    group on spans G/H <- S -> pt (equivalently, on H-sets), with spans
    acting by composition against the reversed span."""
    lat = subgroup_lattice(G)
    n = lat.num_classes
    pt_class = lat.class_of(tuple(G.elements()))
    orbits = [gs.orbit_gset(G, c) for c in range(n)]
    pt = orbits[pt_class]
    level_basis = [sp.orbit_basis(G, c, pt_class) for c in range(n)]
    levels = tuple(AbPresentation(len(bs)) for bs in level_basis)
    tgt_index = [{k: i for i, k in enumerate(bs)} for bs in level_basis]
    gen_action: dict = {}
    for c1, c2, key in sp.orbit_keys(G):
        # point 0 of the apex G/R_a has stabilizer R_a, so the reversed
        # span is keyed from its legs there
        a, legL, legR = key
        flipped = sp.pair_key(a, orbits[c2], legR[0], orbits[c1], legL[0])
        cols = []
        for src_key in level_basis[c1]:
            col = [0] * len(level_basis[c2])
            for k, m in sp._compose_keys(orbits[c2], pt, src_key, flipped):
                col[tgt_index[c2][k]] = m
            cols.append(col)
        # every level has the span of the orbit itself, so cols is not empty
        gen_action[c1, c2, key] = tuple(zip(*cols))
    return MackeyFunctor(G, levels, gen_action)


def check_structure(M: MackeyFunctor) -> Verdict:
    """One level per subgroup class of M.group, and a matrix of the right
    shape for exactly the basis spans between orbits."""
    G = M.group
    n = subgroup_lattice(G).num_classes
    if len(M.levels) != n:
        return Verdict(False, "level count mismatch", len(M.levels))
    dims = [lv.dims for lv in M.levels]
    basis = sp.orbit_keys(G)
    for c1, c2, key in basis:
        A = M.gen_action.get((c1, c2, key))
        if A is None:
            return Verdict(False, "missing generator action", (c1, c2, key))
        if len(A) != dims[c2] or any(map(dims[c1].__ne__, map(len, A))):
            return Verdict(False, "matrix shape mismatch", (c1, c2, key))
    extra = set(M.gen_action).difference(basis)
    if extra:
        return Verdict(False, "generator action off the span basis", min(extra))
    return Verdict(True)


def _value(M: MackeyFunctor, c1: int, c2: int, terms, rows: int, cols: int):
    """The matrix of M on Σ m·k over the (k, m) of terms, keys of spans
    between the orbits of classes c1 and c2."""
    if len(terms) == 1 and terms[0][1] == 1:
        return M.gen_action[(c1, c2, terms[0][0])]
    out = [[0] * cols for _ in range(rows)]
    for k, m in terms:
        for row, term_row in zip(out, M.gen_action[(c1, c2, k)]):
            for j, a in enumerate(term_row):
                row[j] += m * a
    return tuple(map(tuple, out))


def _composition_failure(M: MackeyFunctor, bases) -> tuple | None:
    """The first (c1, c2, c3, k1, k2) with k1 in bases[c1][c2] and k2 in
    bases[c2][c3] for which M(k2 ∘ k1) and M(k2)·M(k1) differ as maps into
    level c3, in that lexicographic order; None if there is none."""
    n = len(bases)
    orbits = [gs.orbit_gset(M.group, c) for c in range(n)]
    for c1 in range(n):
        cols = M.levels[c1].dims
        for c2 in range(n):
            # the columns of each M(k1), taken once; an M(k1) with no rows
            # has cols empty columns
            columns = [
                tuple(zip(*M.gen_action[(c1, c2, k1)])) or ((),) * cols
                for k1 in bases[c1][c2]
            ]
            for c3 in range(n):
                tgt_orders = M.levels[c3].orders()
                rows = M.levels[c3].dims
                for k1, A1t in zip(bases[c1][c2], columns):
                    for k2 in bases[c2][c3]:
                        direct = tuple(
                            tuple(sum(map(mul, row, col)) for col in A1t)
                            for row in M.gen_action[(c2, c3, k2)]
                        )
                        composite = sp._compose_keys(orbits[c1], orbits[c3], k2, k1)
                        expanded = _value(M, c1, c3, composite, rows, cols)
                        if direct != expanded and not _congruent(
                            direct, expanded, tgt_orders
                        ):
                            return (c1, c2, c3, k1, k2)
    return None


def check_mackey(M: MackeyFunctor) -> Verdict:
    """Functoriality of M on the span category, decided on generators.

    Verifies structural completeness of gen_action, torsion
    well-definedness, identity spans acting as identities, and the
    composition law M(b2 ∘ b1) = M(b2)·M(b1) with the composite expanded
    by span composition — the double-coset formula in matrix form.

    The law is tested only on the pairs of endpoint keys
    (spans.endpoint_keys), which gives it on all pairs of basis spans.
    The steps of that argument hold up to congruence in the target level
    because torsion well-definedness is checked first.  On a failure the
    pairs of all basis keys are scanned in order, so the witness is the
    first failing pair among all of them.
    """
    verdict = check_structure(M)
    if not verdict:
        return verdict
    G = M.group
    n = subgroup_lattice(G).num_classes
    for c1, c2, key in sp.orbit_keys(G):
        A = M.gen_action[(c1, c2, key)]
        for j, o in enumerate(M.levels[c1].orders()):
            if o == 0:
                continue
            for i, to in enumerate(M.levels[c2].orders()):
                v = o * A[i][j]
                if (to == 0 and v != 0) or (to != 0 and v % to != 0):
                    return Verdict(
                        False, "matrix not well defined on torsion", (c1, c2, key)
                    )
    for c in range(n):
        X = gs.orbit_gset(G, c)
        A = M.gen_action[(c, c, sp.pair_key(c, X, 0, X, 0))]
        if not _congruent(A, _identity(M.levels[c].dims), M.levels[c].orders()):
            return Verdict(False, "identity span does not act as identity", c)
    generators = [[sp.endpoint_keys(G, c1, c2) for c2 in range(n)] for c1 in range(n)]
    if _composition_failure(M, generators) is None:
        return Verdict(True)
    bases = [[sp.orbit_basis(G, c1, c2) for c2 in range(n)] for c1 in range(n)]
    return Verdict(False, "composition law fails", _composition_failure(M, bases))


def zero_mackey(G: FiniteGroup) -> MackeyFunctor:
    n = subgroup_lattice(G).num_classes
    return MackeyFunctor(G, (ZERO_AB,) * n, dict.fromkeys(sp.orbit_keys(G), ()))


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
    q.target = G/N whose level at H/N is M's level at the preimage of H/N,
    and whose matrix on a basis key of G/N is M's on the inflated key, the
    one term of its image in the Span(inflation) table."""
    if q.source != M.group:
        raise GroupMismatch("quotient map is not from the functor's group")
    table = sp.span_images(q, "inflation")
    pre = table.images
    gen_action = {
        qkey: M.gen_action[pre[qkey[0]], pre[qkey[1]], gkey]
        for qkey, ((gkey, _),) in table.terms.items()
    }
    return MackeyFunctor(q.target, tuple(M.levels[c] for c in pre), gen_action)


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
