"""Theorem-level verification routines shared by the CLI and the
acceptance suite.  Every routine returns a Verdict whose report lines
follow its rendered `PASS` or `FAIL <reason> (witness <w>)` line.  The
tower checks take a GroupTower, built and validated once by the caller
(the CLI builds the cyclic tower of --tower).

colim-gset is decided on orbit classes: inflation and hom-sets commute
with coproducts, so one preimage table per link (groups.class_preimages)
gives the colimit classes, and hom factors of pairs of orbits give full
faithfulness; no stage G-set is built and no hom-set is enumerated.

The span-category statements are verified at the level of hom-monoid
bases: span hom-sets are free commutative monoids on transitive-apex
classes, so an additive comparison map is an isomorphism exactly when it
restricts to a bijection of bases.  Both span checks decide Span(F) on
its generators (_span_functor_check), read from one table per link
(spans.span_images: one orbit image per subgroup class and the position
of one image per basis key), so their reports depend on neither the
size cap nor the seed; only funcat reads the seed.  The law is tested
on the pairs of spans.law_table, which give it on every pair of
endpoint keys: an orbit's conjugations to itself are tested only at the
generators of its Weyl group, and through three distinct classes only
one first key per orbit of the middle class's Weyl group.  One scan
walks those pairs (spans.law_grids), reading both sides by position
from law tables: the left sides from the source group's, and the right
sides from the image group's wherever its layout lists the images,
composing them only where it does not; its first failing pair is the
witness.  A link that is not onto has no such table, and the checks
raise ValueError on it, as make_tower does.  The composition law on
those generators also decides whether F keeps pullbacks, so no pullback
G-set is built.

A check that would test nothing at the requested tower or cap raises
ParseError, an input error, naming its minimum: the link checks need a
tower of depth 2 or more, and no counit square fails below cap 4.  The
CLI tests the minima of every selected check (Check.require) before it
runs any of them.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache
from typing import Callable, NamedTuple

from . import fincat as fc
from . import groups as g
from . import gsets as gs
from . import mackey as mk
from . import spans as sp
from .errors import IncoherentFamily, ParseError, Verdict


def _require_link(check: str, tower: g.GroupTower) -> None:
    if tower.depth < 2:
        message = f"verify {check} needs --tower depth >= 2 (depth 1 has no link)"
        raise ParseError("<args>", 0, message)


def _require_cap(cap: int) -> None:
    if cap < 4:
        message = "verify adjunction needs --cap >= 4 (no counit square fails below it)"
        raise ParseError("<args>", 0, message)


def _tower_line(tower: g.GroupTower, *rest: str) -> str:
    """The report's tower header; p is the first stage's order."""
    head = f"tower: cyclic p={tower.stages[0].order} depth={tower.depth}"
    return ", ".join([head, *rest])


def verify_colim_gset(tower: g.GroupTower, cap: int) -> Verdict:
    """The colimit of the capped stage categories along inflation is the
    capped discrete model of the tower.

    Along fully faithful links a chain's colimit has the stage objects,
    identified when their top-stage images are isomorphic, and the common
    hom-sets.  Inflation and hom-sets commute with coproducts (G-sets are
    extensive), so everything is decided on orbit classes, from the
    preimage table of each link (groups.class_preimages), and no stage
    G-set is built.  Inflating G/R along an onto link q gives the one
    orbit q⁻¹R, so a colimit class is an object's orbit-class multiset
    pushed through the class maps of the later links.  Essential
    surjectivity needs no test: every colimit class is by construction
    the class of a stage object, and every top-stage object is a stage
    object.  Inflation is fully faithful on objects iff it is on every
    pair of orbits of size <= cap (_links_verdict).
    """
    tables = [g.class_preimages(q) for q in tower.links]
    classes = set()
    objects = 0
    for i, G in enumerate(tower.stages):
        for m in gs.gset_isoclasses(G, cap):
            for table in tables[i:]:
                m = [table[c][1] for c in m]
            classes.add(tuple(sorted(m)))
            objects += 1
    verdict = _links_verdict(tower, tables, cap)
    lines = [
        _tower_line(tower, f"size cap {cap}"),
        f"colimit object classes: {len(classes)}",
        f"discrete-model objects: {objects}",
        "comparison functor is an equivalence"
        if verdict
        else f"equivalence failure: {verdict.reason}",
    ]
    return Verdict(verdict.ok, verdict.reason, verdict.witness, lines)


def _links_verdict(tower, tables, cap) -> Verdict:
    """Whether inflation along every link q is fully faithful on the
    canonical orbits of size <= cap of q.target: hom(G/R, Y) has the one
    factor (0, R, Y^R), and that of hom(inf G/R, inf Y) must be
    (0, q⁻¹R, Y^R), with q⁻¹R read from the link's preimage table."""
    for i, (q, table) in enumerate(zip(tower.links, tables)):
        G = q.target
        lat = g.subgroup_lattice(G)
        orbits = [
            (gs.orbit_gset(G, c), pre)
            for c, (pre, _) in enumerate(table)
            if G.order <= cap * lat.class_rep(c).order
        ]
        for X, pre in orbits:
            for Y, _ in orbits:
                expect = [(f.base, pre, f.points) for f in gs.hom_factors(X, Y)]
                if gs.hom_factors(gs.inflate(X, q), gs.inflate(Y, q)) != expect:
                    return Verdict(
                        False, "inflation not fully faithful", (i, X.action, Y.action)
                    )
    return Verdict(True)


def _basis_failure(table: sp.SpanImages, kept) -> str | None:
    """How the Span(F) table fails, or None: a key goes to one basis span
    if kept(its apex class), else to zero; the kept keys of one hom go to
    distinct basis spans of the image hom; an identity span goes to the
    identity span (spans.identity_key)."""
    G, K, n = table.source, table.target, len(table.images)
    for c1, c2 in itertools.product(range(n), repeat=2):
        images = table.terms[c1][c2]
        for key, image in zip(sp.orbit_basis(G, c1, c2), images):
            if not kept(key[0]) and image is not None:
                return "of a kernel-moved apex is not zero"
            if kept(key[0]) and image is None:
                return "of a basis span is not basic"
        hit = [image for image in images if image is not None]
        if len(set(hit)) != len(hit):
            return "not injective on basis"
    for c, m in enumerate(table.images):
        own = sp.orbit_basis(G, c, c).index(sp.identity_key(G, c))
        ids = None if m is None else sp.orbit_basis(K, m, m).index(sp.identity_key(K, m))
        if table.terms[c][c][own] != ids:
            return "does not preserve an identity span"
    return None


def _right_sides(table: sp.SpanImages, c1, c2, c3, firsts, seconds):
    """Span(F)(k2) ∘ Span(F)(k1) for the keys k1 at the positions firsts
    of orbit_basis(G, c1, c2) and k2 at seconds of orbit_basis(G, c2, c3),
    firsts against seconds, each as (position, mult) pairs in the basis
    of the images of the ends, and () where an end or a key has no image.

    With m1, m2, m3 the image classes, the grid is read by position from
    spans.law_table(K, m1, m3)[m2] whenever every image lies in that
    entry's firsts and seconds, as on the links of the CLI's cyclic
    towers and the groups.quotient maps of the corpus groups.  Images
    outside that layout (towers whose stages are numbered apart,
    corrupted tables) are composed."""
    K, images, terms = table.target, table.images, table.terms
    m1, m2, m3 = images[c1], images[c2], images[c3]
    if None in (m1, m2, m3):
        return itertools.repeat(())
    j1 = [terms[c1][c2][p] for p in firsts]
    j2 = [terms[c2][c3][p] for p in seconds]
    entry = sp.law_table(K, m1, m3)[m2]
    if entry is not None:
        at1, at2 = ({j: e for e, j in enumerate(ps)} for ps in entry[:2])
        if at1.keys() >= set(j1) and at2.keys() >= set(j2):
            grid, width = entry[2], len(at2)
            return [grid[at1[a] * width + at2[b]] for a in j1 for b in j2]
    b12, b23 = sp.orbit_basis(K, m1, m2), sp.orbit_basis(K, m2, m3)
    kept1 = [b12[j] for j in j1 if j is not None]
    kept2 = [b23[j] for j in j2 if j is not None]
    grid = iter(sp.composites(K, m1, m3, kept1, kept2))
    return [() if a is None or b is None else next(grid) for a in j1 for b in j2]


def _law_failures(table: sp.SpanImages):
    """Each (c1, c2, c3, k1, k2) with (k1, k2) a pair of spans.law_grids
    for which Span(F)(k2 ∘ k1) and Span(F)(k2) ∘ Span(F)(k1) differ, in
    that lexicographic order.  The left side is the grid of law_grids(G)
    pushed through the images, once per distinct entry of a grid (equal
    entries of a grid are one tuple, spans.composites), and the right
    side is read or composed by _right_sides.  The law on these pairs
    decides it on every pair of endpoint keys (spans.law_table), so a
    failure names a pair of endpoint keys on which the law fails."""
    G, terms = table.source, table.terms
    for c1, c2, c3, firsts, seconds, lefts in sp.law_grids(G):
        rights = _right_sides(table, c1, c2, c3, firsts, seconds)
        images = terms[c1][c3]
        pushed: dict = {}  # each distinct left side of the grid, pushed once
        pairs = itertools.product(firsts, seconds)
        for (p1, p2), left, right in zip(pairs, lefts, rights):
            image = pushed.get(left)
            if image is None:
                counts: dict = {}
                for i, m in left:
                    j = images[i]
                    if j is not None:
                        counts[j] = counts.get(j, 0) + m
                image = pushed[left] = tuple(sorted(counts.items()))
            if image != right:
                k1 = sp.orbit_basis(G, c1, c2)[p1]
                yield c1, c2, c3, k1, sp.orbit_basis(G, c2, c3)[p2]


def _span_functor_check(tower, name: str, kept, conclusion: str) -> Verdict:
    """Span(F) for F the functor `name` along every link q of the tower,
    decided on the orbits of F's source group, one per subgroup class:
    its images of the basis spans between them (spans.span_images) pass
    _basis_failure with kept(q, apex class), and the law holds on every
    pair of endpoint keys (_law_failures; witness the first failing
    tested pair (c1, c2, c3, k1, k2)).
    The table renames each F(orbit) onto its canonical orbit, and
    renaming endpoints along isomorphisms changes neither side of the law.

    Inflation and fixed points preserve coproducts and X ⊔ Y is a
    biproduct of spans, so Span(F) is fixed by its values between orbits,
    and the endpoint-key pairs give the law on all basis spans
    (spans.endpoint_positions): the check is exhaustive and needs no size
    cap.  The law is decided on the pairs of spans.law_table, which give
    it on every endpoint-key pair, since _basis_failure has tested that
    identities go to identities; the count line reports every
    endpoint-key pair.

    The law also decides that F keeps pullbacks, as Span(F) needs.  For
    orbits X -f-> Z <-g- Y with pullback X <-p1- P -p2-> Y, the transfer
    k1 = [X <-id- X -f-> Z] and the restriction k2 = [Z <-g- Y -id-> Y] are
    endpoint keys, and k2 ∘ k1 = [X <-p1- P -p2-> Y].  F keeps coproducts
    and isomorphisms, so the left side, summed over the orbits of P, is
    [FX <-Fp1- FP -Fp2-> FY]; the right side is [FX <-r1- Q -r2-> FY] for
    the fibre product Q = FX ×_FZ FY.  A G-set over FX × FY is the sum of
    its orbits in one way only, so the two are equal iff an isomorphism
    φ: FP -> Q has r1 φ = Fp1 and r2 φ = Fp2, which makes φ the comparison
    map (Fp1, Fp2).  So the law on (k1, k2) holds iff F keeps this
    pullback.  The law on the pairs of law_table gives it on every such
    pair, though through three distinct classes it tests only one
    transfer k1 per orbit of W = Aut(Z) under c_w ∘ -: the proof in
    law_table moves the law from (k1, k2 ∘ c_w), a tested pair of a
    transfer and a restriction, to (c_w ∘ k1, k2), through the law on the
    conjugation pairs, which the generator pairs give.  So no
    transfer–restriction pair escapes the check, and with it no
    pullback.  The keys give every transitive cospan up to isomorphism, and
    G-sets are extensive (Carboni–Lack–Walters, JPAA 84, 1993): every
    pullback is the sum of those of transitive cospans.
    """
    mapped = composed = 0
    for i, q in enumerate(tower.links):
        table = sp.span_images(q, name)
        G, n = table.source, len(table.images)
        mapped += sum(len(images) for row in table.terms for images in row)
        failure = _basis_failure(table, lambda c: kept(q, c))
        if failure:
            return Verdict(False, f"{name} {failure} at stage {i}")
        witness = next(_law_failures(table), None)
        if witness is not None:
            return Verdict(False, f"Span({name}) not functorial at stage {i}", witness)
        ends = [[sp.endpoint_positions(G, a, b) for b in range(n)] for a in range(n)]
        for a, b, c in itertools.product(range(n), repeat=3):
            composed += len(ends[a][b]) * len(ends[b][c])
    counts = [f"orbit basis spans mapped: {mapped}"]
    counts.append(f"endpoint-key compositions checked: {composed}")
    return Verdict(True, lines=[_tower_line(tower), *counts, conclusion])


def verify_colim_span(tower: g.GroupTower) -> Verdict:
    """Span of the discrete model as the colimit of stage span categories:
    inflation along every link maps basis spans to basis spans, injectively
    and functorially, so at the final stage the comparison to the discrete
    model is a basis bijection on every hom."""
    _require_link("colim-span", tower)
    last = "basis-level comparison is bijective on every hom; objects jointly hit"
    return _span_functor_check(tower, "inflation", lambda q, c: True, last)


def verify_limit_span(tower: g.GroupTower) -> Verdict:
    """Span of the deepest stage as the limit of stage span categories
    along Span(fixed points).

    A compatible family of span morphisms is determined by its deepest
    component, so the comparison is an equivalence once Span(fixed points)
    is well defined on bases (basis to basis-or-zero, exactly following
    the N ⊆ H rule), left exact, functorial, and identity-preserving.
    """
    _require_link("limit-span", tower)

    def kernel_fixed(q: g.QuotientMap, c: int) -> bool:
        rep = g.subgroup_lattice(q.source).class_rep(c)
        return set(q.kernel.elements) <= set(rep.elements)

    last = "families along the chain are determined by their deepest component"
    return _span_functor_check(tower, "fixed points", kernel_fixed, last)


def verify_adjunction(cap: int) -> Verdict:
    """Unit/counit naturality squares for inflation/fixed points over C4
    with the order-2 kernel: every unit square is a pullback; at least one
    counit square is not, and its witness is reported as expected.

    The unit and counit laws hold by construction and are not tested:
    every point of an inflated G-set is N-fixed, so the unit is the
    identity numbering, an isomorphism, and the counit lists distinct
    fixed points, so it is injective.  A unit square's parallel sides are
    units, so every unit square is a pullback.  Counit squares are counted
    per orbit from the table of marks (gs.counit_square_counts): a square
    fails iff its map sends an orbit outside X^N into X'^N.  Only the
    first pair (X, X') with a failing square is built, for its witness
    (gs.counit_square_witness).
    """
    _require_cap(cap)
    G = g.cyclic(4)
    q = g.quotient(G, g.make_subgroup(G, (0, 2)))
    marks = sp.burnside_tables(G).marks
    classes = gs.gset_isoclasses(G, cap)
    squares = failures = 0
    first = None
    for xs in classes:
        for ys in classes:
            maps, pullbacks = gs.counit_square_counts(q, marks, xs, ys)
            squares += maps
            failures += maps - pullbacks
            if first is None and pullbacks < maps:
                first = xs, ys
    lines = [
        f"group C4, kernel of order 2, size cap {cap}",
        f"naturality squares checked: {squares}",
        "every unit square is a pullback; unit iso and counit injective throughout",
    ]
    if not failures:
        return Verdict(False, "no counit square failed the pullback test")
    X, Xp = (gs.canonical_gset(G, m) for m in first)
    witness = gs.counit_square_witness(q, X, Xp)
    lines += [
        f"counit squares that are not pullbacks: {failures} (EXPECTED)",
        f"first witness: X with action {X.action}, map {witness} (EXPECTED)",
    ]
    return Verdict(True, lines=lines)


@lru_cache(maxsize=None)
def _burnside_family(tower: g.GroupTower) -> tuple[mk.MackeyFunctor, ...]:
    """The family of the Burnside functor of the deepest stage, taken down
    the tower by categorical fixed points; kept per tower, which the CLI
    builds once per p,depth."""
    deepest = mk.burnside_mackey(tower.stages[-1])
    return tuple(mk.tower_family(tower, deepest))


def verify_mackey_limit(tower: g.GroupTower) -> Verdict:
    """Tower-limit round trip for Mackey functors, with a corrupted-family
    negative control."""
    _require_link("mackey-limit", tower)
    family = list(_burnside_family(tower))
    try:
        mk.assemble_from_tower(tower, family)
    except IncoherentFamily as exc:
        return Verdict(False, f"coherent family rejected: {exc}")
    for i, M in enumerate(family):
        verdict = mk.check_mackey(M)
        if not verdict:
            return Verdict(False, f"stage {i} fails axioms")
    corrupted = list(family)
    corrupted[0] = mk.zero_mackey(tower.stages[0])
    try:
        mk.assemble_from_tower(tower, corrupted)
        return Verdict(False, "corrupted family accepted")
    except IncoherentFamily:
        pass
    lines = [
        _tower_line(tower),
        f"stages verified coherent under categorical fixed points: {tower.depth}",
        "corrupted family rejected with IncoherentFamily (negative control)",
    ]
    return Verdict(True, lines=lines)


def _gcd_cat(n: int) -> fc.FinCat:
    """The divisors of n ordered by divisibility: a ≤ b iff a | b."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return fc.FinCat(divisors, lambda a, b: b % a == 0)


def _monotone(src: fc.FinCat, f) -> dict:
    """The object map of f on the objects of src."""
    return {x: f(x) for x in src.objects}


def verify_funcat(seed: int = 0) -> Verdict:
    """Functor-category comparison on divisor-lattice corpora.

    Checks, on seeded chains of at most 3 stages: the family-to-functor
    and functor-to-family round trips close up to natural isomorphism,
    product-preserving families induce product-preserving functors, and a
    family with one non-preserving component induces a non-preserving
    functor (the converse direction, by contraposition).  The lattices
    are posets (fincat), so every claim is decided on the order: a
    natural isomorphism is an equality of object maps and a product is a
    meet.
    """
    rng = random.Random(seed)
    lines = [f"seed {seed}"]
    corpora = 0
    for _ in range(6):
        n = rng.choice([6, 8, 12])
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        d1 = rng.choice(divisors)
        d2 = rng.choice([d for d in divisors if d1 % d == 0])
        stages = rng.choice([2, 3])
        mods = [n, d1, d2][:stages]
        cats = [_gcd_cat(m) for m in mods]
        links = [
            _monotone(cats[i], lambda x, m=mods[i + 1]: math.gcd(x, m))
            for i in range(stages - 1)
        ]
        colim, injections = fc.colimit_chain(cats, links)
        m_last = rng.choice(
            [d for d in divisors if mods[-1] % d == 0]
        )
        E = cats[0]
        comps = [_monotone(cat, lambda x, m=m_last: math.gcd(x, m)) for cat in cats]
        F = fc.functor_from_family(links, comps)
        restrictions = [{x: F[y] for x, y in inj.items()} for inj in injections]
        for i in range(stages):
            if not fc.naturally_isomorphic(restrictions[i], comps[i]):
                reason = f"restriction differs from component {i}"
                return Verdict(False, reason)
        # functor -> family -> functor round trip
        F2 = fc.functor_from_family(links, restrictions)
        if not fc.naturally_isomorphic(F, F2):
            return Verdict(False, "functor round trip not isomorphic")
        if not fc.preserves_binary_products(F, colim, E):
            return Verdict(
                False, "product-preserving family gave a non-preserving functor"
            )
        corpora += 1
    # constructed counterexample: collapse everything above 1 to the top
    cat = _gcd_cat(12)
    bad = _monotone(cat, lambda d: 1 if d == 1 else 12)
    same = _monotone(cat, lambda d: d)
    colim, _ = fc.colimit_chain([cat, cat], [same])
    Fbad = fc.functor_from_family([same], [bad, bad])
    if fc.preserves_binary_products(Fbad, colim, cat):
        return Verdict(False, "non-preserving family gave a preserving functor")
    lines += [
        f"seeded corpora checked: {corpora}",
        "round trips close up to natural isomorphism",
        "product preservation matches componentwise preservation, both directions",
    ]
    return Verdict(True, lines=lines)


class Check(NamedTuple):
    """One verify check: `run(cap, seed, tower)` returns its verdict, and
    `require(cap, tower)` raises ParseError when the run would test
    nothing, before any check runs."""

    run: Callable[[int, int, g.GroupTower], Verdict]
    require: Callable[[int, g.GroupTower], None] = lambda cap, tower: None


def _needs_link(check: str) -> Callable[[int, g.GroupTower], None]:
    return lambda cap, tower: _require_link(check, tower)


# The verify checks in `verify all` order.  Each takes the CLI's size cap,
# seed and validated tower.
CHECKS = {
    "colim-gset": Check(lambda cap, seed, tower: verify_colim_gset(tower, cap)),
    "colim-span": Check(
        lambda cap, seed, tower: verify_colim_span(tower), _needs_link("colim-span")
    ),
    "limit-span": Check(
        lambda cap, seed, tower: verify_limit_span(tower), _needs_link("limit-span")
    ),
    "adjunction": Check(
        lambda cap, seed, tower: verify_adjunction(cap),
        lambda cap, tower: _require_cap(cap),
    ),
    "mackey-limit": Check(
        lambda cap, seed, tower: verify_mackey_limit(tower),
        _needs_link("mackey-limit"),
    ),
    "funcat": Check(lambda cap, seed, tower: verify_funcat(seed)),
}
