"""Mackey functors over the integral span category.

A Mackey functor assigns a finitely presented abelian group to each orbit
(subgroup conjugacy class) and an integer matrix to each basis span
between orbits; values on arbitrary G-sets and span morphisms follow by
additivity.  Functoriality on span composition encodes the classical
double-coset formula, and all arithmetic is exact.

The module works on basis keys only, and builds no span morphism.  The
basis spans between orbits, which gen_action is keyed by, are
spans.orbit_keys; a reversed or identity span is keyed from a point of
each end with spans.pair_key, and every composite is read from
spans.composites, as positions in the basis of its two ends.
burnside_mackey takes one grid of composites per pair of classes: the
reversed keys between the two orbits against the spans of one level,
in the order that lets each level's spans share their fibre buckets
across the grids of every start orbit (spans.composites).
categorical_fixed_points reads Span(inflation) from the table of its
link (spans.span_images), as the colim-span check does: the image class
of each orbit of G/N is the level it takes, and the one image key of
each basis key of G/N is the matrix it takes.

check_mackey decides the composition law on the pairs of
spans.law_table: the pairs of endpoint keys (transfers, restrictions and
conjugations, spans.endpoint_positions), with a conjugation of an orbit
to itself only at a generator of its Weyl group, and, through three
distinct classes, with one first key per orbit of the middle class's
Weyl group.  Those give it on all pairs: with the identity acting as the
identity, the law at the generator conjugations gives it at every
conjugation, by induction on a word, and the law at the conjugations
moves it from each kept first to its whole orbit (spans.law_table).  On
the corpus this tests 8,271 of the 88,414 pairs of basis spans (22,995
pairs of endpoint keys); the test suite keeps the exhaustive check as
its oracle.  The law pairs and their composites are walked through
spans.law_grids, which skips a class triple with no pairs and reads the
group's law tables by position.
M is read as one list of matrices per pair of classes, each matrix
packed once into one integer in base B = 2^k, its rows at a stride of
D digits, D the largest level dims, and each of its rows packed too; B
is above twice the largest absolute entry either side of the law can
reach (dims·max² for a product, |G|·max for a sum of at most |G|
terms).  The columns of a matrix are packed when the scan first reads
its key as a second: the law pairs read only the endpoint keys between
two orbits and the generator conjugations, so no other column is
packed unless the check fails.  So each pair costs one sum of
products, the columns of M(k2) against the rows of M(k1), compared
with one integer, and no key lookup; matrices whose packed integers
differ are compared entrywise, up to the torsion of the target.  Only
a failing check composes: it scans the pairs of all basis keys in the
same way, one row of firsts at a time, packing the columns of the
other keys as it reaches them, up to the first failing pair, its
witness.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import NamedTuple

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


class _AbFields(NamedTuple):
    """The fields of AbPresentation, which checks them when it is built."""

    rank: int
    invariant_factors: tuple[int, ...] = ()


class AbPresentation(_AbFields):
    """Finitely generated abelian group: free rank plus invariant factors."""

    __slots__ = ()

    def __new__(cls, rank: int, invariant_factors: tuple[int, ...] = ()):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        if any(f < 2 for f in invariant_factors):
            raise ValueError("torsion factors must be at least 2")
        for a, b in zip(invariant_factors, invariant_factors[1:]):
            if b % a != 0:
                raise ValueError("factors must divide in sequence")
        return super().__new__(cls, rank, invariant_factors)

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


class MackeyFunctor(NamedTuple):
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
    bases = sp.orbit_bases(G)
    n = len(bases)
    pt = n - 1  # the class of G (SubgroupLattice.classes)
    orbits = [gs.orbit_gset(G, c) for c in range(n)]
    level_basis = [row[pt] for row in bases]
    levels = tuple(AbPresentation(len(bs)) for bs in level_basis)
    gen_action: dict = {}
    for c1, c2 in itertools.product(range(n), repeat=2):
        keys = bases[c1][c2]
        # point 0 of the apex G/R_a has stabilizer R_a, so the reversed
        # span is keyed from its legs there
        flipped = [
            sp.pair_key(a, orbits[c2], legR[0], orbits[c1], legL[0])
            for a, legL, legR in keys
        ]
        grid = iter(sp.composites(G, c2, pt, flipped, level_basis[c1]))
        for key in keys:
            # every level has the orbit's own span, so cols is not empty
            cols = [[0] * levels[c2].rank for _ in level_basis[c1]]
            for col, terms in zip(cols, grid):
                for p, m in terms:
                    col[p] = m
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


def _value(mats, terms, rows: int, cols: int):
    """The matrix Σ m·mats[i] over the (i, m) of terms."""
    if len(terms) == 1 and terms[0][1] == 1:
        return mats[terms[0][0]]
    out = [[0] * cols for _ in range(rows)]
    for i, m in terms:
        for row, term_row in zip(out, mats[i]):
            for j, a in enumerate(term_row):
                row[j] += m * a
    return tuple(map(tuple, out))


def _shift(M: MackeyFunctor) -> int:
    """The k of the base B = 2^k that _composition_failure packs matrices
    in: B is above twice the largest absolute entry either side of the
    law can reach, dims·max² for a product M(k2)·M(k1) and |G|·max for a
    sum Σ m·M(k), whose multiplicities add up to at most |G|
    (spans.composites), max the largest absolute entry of M.

    An integer has at most one expansion Σ d_p·B^p with every digit
    |d_p| < B/2: two would differ by a nonzero Σ e_p·B^p with every
    |e_p| < B, whose lowest nonzero e_p is not a multiple of B.  That
    holds whatever the positions p are, so the bound on each entry is
    all the packing needs, wherever it puts the entries of a matrix."""
    top = max(
        (max(map(abs, row)) for A in M.gen_action.values() for row in A if row),
        default=0,
    )
    dims = max(lv.dims for lv in M.levels)
    return max(dims * top * top, M.group.order * top).bit_length() + 1


def _pack(digits, shift: int) -> int:
    """Σ digits[j]·2^(shift·j)."""
    packed = 0
    for a in reversed(digits):
        packed = (packed << shift) + a
    return packed


def _composition_failure(M: MackeyFunctor, grids) -> tuple | None:
    """The first (c1, c2, c3, k1, k2), in the order of grids, for which
    M(k2 ∘ k1) and M(k2)·M(k1) differ as maps into level c3; None if
    there is none.  grids yields (c1, c2, c3, firsts, seconds, grid) as
    spans.law_grids does: k1 and k2 are the keys at the positions firsts
    of orbit_basis(G, c1, c2) and seconds of orbit_basis(G, c2, c3), and
    grid iterates the k2 ∘ k1, firsts against seconds, each as (position
    in orbit_basis(G, c1, c3), mult) pairs.  Both are read only up to
    the first failing pair.

    Each matrix A is packed once as one integer Σ A[i][j]·B^(i·D + j),
    in base B = 2^k (_shift) with each row at a stride of D digits, D
    the largest level dims; each row of A is packed as Σ_j A[i][j]·B^j,
    and, once grids first yields its key as a second, each column as
    Σ_i A[i][j]·B^(i·D), one integer in base B^D.
    For A2 = M(k2) and A1 = M(k1), Σ_j column_j(A2)·row_j(A1) is
    Σ (A2·A1)[i][l]·B^(i·D + l), the packed product.  The stride is D
    because l, a column of A1, is below the dims of level c1, at most
    D: so no two entries of a matrix share a power of B, whatever the
    levels of the triple.  A pair is then one sum of products, compared
    with one integer, the packed M(k) or the sum Σ m·M(k) of the packed
    terms.  Every entry of both sides is below B/2 in absolute value, so
    equal integers are equal matrices (_shift); a pair whose integers
    differ is tested entrywise, as maps into the presented target
    (_congruent), so torsion levels stay exact."""
    keys = sp.orbit_bases(M.group)
    n = len(M.levels)
    mats = [
        [[M.gen_action[c1, c2, k] for k in keys[c1][c2]] for c2 in range(n)]
        for c1 in range(n)
    ]
    shift = _shift(M)
    stride = shift * max(lv.dims for lv in M.levels)
    rows = [
        [[tuple(_pack(row, shift) for row in A) for A in by_key] for by_key in mats_c1]
        for mats_c1 in mats
    ]
    wholes = [
        [[_pack(A, stride) for A in by_key] for by_key in rows_c1] for rows_c1 in rows
    ]
    # a key's columns are packed when it is first read as a second
    columns = [[[None] * len(by_key) for by_key in keys_c1] for keys_c1 in keys]
    for c1, c2, c3, firsts, seconds, grid in grids:
        sums, rows12, columns23 = wholes[c1][c3], rows[c1][c2], columns[c2][c3]
        for p2 in seconds:
            if columns23[p2] is None:
                A = mats[c2][c3][p2]
                columns23[p2] = tuple(_pack(c, stride) for c in zip(*A))
        terms = iter(grid)
        for p1 in firsts:
            A1 = rows12[p1]
            for p2 in seconds:
                composite = next(terms)
                # a level with no dims leaves no columns or no rows: 0
                direct = sum(map(mul, columns23[p2], A1))
                if len(composite) == 1 and composite[0][1] == 1:
                    expanded = sums[composite[0][0]]
                else:
                    expanded = sum(m * sums[i] for i, m in composite)
                if direct == expanded:
                    continue
                rows3, cols = M.levels[c3].dims, M.levels[c1].dims
                # an M(k1) with no rows has cols empty columns
                A2 = mats[c2][c3][p2]
                factor = tuple(zip(*mats[c1][c2][p1])) or ((),) * cols
                product = tuple(
                    tuple(sum(map(mul, row, col)) for col in factor) for row in A2
                )
                value = _value(mats[c1][c3], composite, rows3, cols)
                if not _congruent(product, value, M.levels[c3].orders()):
                    return (c1, c2, c3, keys[c1][c2][p1], keys[c2][c3][p2])
    return None


def check_mackey(M: MackeyFunctor) -> Verdict:
    """Functoriality of M on the span category, decided on generators.

    Verifies structural completeness of gen_action, torsion
    well-definedness, identity spans acting as identities, and the
    composition law M(b2 ∘ b1) = M(b2)·M(b1) with the composite expanded
    by span composition — the double-coset formula in matrix form.

    The law is tested only on the pairs of spans.law_table: the pairs of
    endpoint keys, with a conjugation of an orbit to itself only at a
    generator of its Weyl group, and through three distinct classes one
    first key per orbit of the middle class's Weyl group.  Those give it
    on every pair of endpoint keys, and so on all pairs of basis spans
    (spans.endpoint_positions).  The steps of that argument hold up to
    congruence in the target level because torsion well-definedness and
    the identities are checked first.  On a failure the pairs of all
    basis keys are scanned in order, each class triple composed one row
    of firsts at a time up to the first failing pair, which is the
    witness.
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
        A = M.gen_action[(c, c, sp.identity_key(G, c))]
        if not _congruent(A, _identity(M.levels[c].dims), M.levels[c].orders()):
            return Verdict(False, "identity span does not act as identity", c)
    if _composition_failure(M, sp.law_grids(G)) is None:
        return Verdict(True)
    keys = sp.orbit_bases(G)

    def every_pair():
        # a grid is read up to its first failing pair before the next
        # triple is drawn, and composes one row of firsts at a time
        for c1, c2, c3 in itertools.product(range(n), repeat=3):
            firsts, seconds = keys[c1][c2], keys[c2][c3]
            grid = (t for k in firsts for t in sp.composites(G, c1, c3, (k,), seconds))
            yield c1, c2, c3, range(len(firsts)), range(len(seconds)), grid

    witness = _composition_failure(M, every_pair())
    return Verdict(False, "composition law fails", witness)


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
    gbases, qbases = sp.orbit_bases(q.source), sp.orbit_bases(q.target)
    gen_action = {}
    for c1, c2 in itertools.product(range(len(pre)), repeat=2):
        gkeys = gbases[pre[c1]][pre[c2]]
        for qkey, j in zip(qbases[c1][c2], table.terms[c1][c2]):
            gen_action[c1, c2, qkey] = M.gen_action[pre[c1], pre[c2], gkeys[j]]
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
