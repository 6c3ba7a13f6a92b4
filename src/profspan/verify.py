"""Theorem-level verification routines shared by the CLI and the
acceptance suite.  Every routine returns a Report whose rendered first
line is `PASS` or `FAIL <witness>`.

The span-category statements are verified at the level of hom-monoid
bases: span hom-sets are free commutative monoids on transitive-apex
classes, so an additive comparison map is an isomorphism exactly when it
restricts to a bijection of bases.

A check that would test nothing at the requested tower or cap raises
ParseError, an input error, naming its minimum: the link checks need a
tower of depth 2 or more, and no counit square fails below cap 4.  The
CLI tests the minima of every selected check (Check.require) before it
runs any of them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import fincat as fc
from . import groups as g
from . import gsets as gs
from . import mackey as mk
from . import spans as sp
from .errors import IncoherentFamily, ParseError, Verdict


@dataclass
class Report:
    ok: bool
    witness: str = ""
    lines: list[str] = field(default_factory=list)

    def render(self) -> str:
        first = "PASS" if self.ok else f"FAIL {self.witness}"
        return "\n".join([first] + self.lines)


def _require_link(check: str, depth: int) -> None:
    if depth < 2:
        message = f"verify {check} needs --tower depth >= 2 (depth 1 has no link)"
        raise ParseError("<args>", 0, message)


def _require_cap(cap: int) -> None:
    if cap < 4:
        message = "verify adjunction needs --cap >= 4 (no counit square fails below it)"
        raise ParseError("<args>", 0, message)


def _stage_objects(G, cap):
    return [gs.canonical_gset(G, m) for m in gs.gset_isoclasses(G, cap)]


def _colimit_classes(tower, cap) -> list[tuple[int, ...]]:
    """The colimit's object classes: the orbit-class multisets of the capped
    stage objects pushed along the later links, in first-seen order."""
    classes: dict = {}
    for i, G in enumerate(tower.stages):
        for X in _stage_objects(G, cap):
            for q in tower.links[i:]:
                X = gs.inflate(X, q)
            classes.setdefault(gs.orbit_class_multiset(X), None)
    return list(classes)


def verify_colim_gset(p: int, depth: int, cap: int) -> Report:
    """The colimit of the capped stage categories along inflation is the
    capped discrete model of the tower.

    Along fully faithful links a chain's colimit has the stage objects,
    identified when their top-stage images are isomorphic, and the common
    hom-sets.  So the check enumerates no hom-set: every stage object
    lifted to the top stage has the orbit-class multiset of a colimit
    class, and inflation along every link is a bijection on every hom
    factor (_links_verdict).
    """
    tower = g.cyclic_tower(p, depth)
    classes = _colimit_classes(tower, cap)
    verdict = _surjective_verdict(tower, cap, set(classes))
    if verdict:
        verdict = _links_verdict(tower, cap)
    objects = sum(len(gs.gset_isoclasses(G, cap)) for G in tower.stages)
    lines = [
        f"tower: cyclic p={p} depth={depth}, size cap {cap}",
        f"colimit object classes: {len(classes)}",
        f"discrete-model objects: {objects}",
        "comparison functor is an equivalence"
        if verdict
        else f"equivalence failure: {verdict.reason}",
    ]
    return Report(bool(verdict), "" if verdict else str(verdict.witness), lines)


def _surjective_verdict(tower, cap, classes) -> Verdict:
    """Whether every capped stage object, inflated along the projection
    to the top stage, has the orbit-class multiset of one of `classes`;
    the witness of a miss is (level, action)."""
    top = tower.depth - 1
    for i, G in enumerate(tower.stages):
        lift = tower.projection(top, i)
        for X in _stage_objects(G, cap):
            if gs.orbit_class_multiset(gs.inflate(X, lift)) not in classes:
                return Verdict(False, "not essentially surjective", (i, X.action))
    return Verdict(True)


def _links_verdict(tower, cap) -> Verdict:
    """Whether inflation along every link q is fully faithful on the
    capped stage objects: for each orbit factor (x, K, Y^K) of hom(X, Y),
    the factor of hom(inf X, inf Y) at x is (x, q⁻¹K, Y^K)."""
    for i, q in enumerate(tower.links):
        objs = _stage_objects(q.target, cap)
        preimage: dict = {}
        for K in g.subgroup_lattice(q.target).subgroups:
            inside = set(K.elements)
            preimage[K.elements] = tuple(
                a for a, c in enumerate(q.projection) if c in inside
            )
        for X in objs:
            for Y in objs:
                expect = [
                    (f.base, preimage[f.stabilizer], f.points)
                    for f in gs.hom_factors(X, Y)
                ]
                if gs.hom_factors(gs.inflate(X, q), gs.inflate(Y, q)) != expect:
                    return Verdict(
                        False, "inflation not fully faithful", (i, X.action, Y.action)
                    )
    return Verdict(True)


def verify_colim_span(p: int, depth: int, cap: int, seed: int = 0) -> Report:
    """Span of the discrete model as the colimit of stage span categories.

    Verified on hom-monoid bases: each inflation step is left exact on
    small probes and maps basis spans to basis spans injectively and
    functorially, and at the final stage the comparison to the discrete
    model is a basis bijection on every hom.
    """
    _require_link("colim-span", depth)
    tower = g.cyclic_tower(p, depth)
    rng = random.Random(seed)
    lines = [f"tower: cyclic p={p} depth={depth}, size cap {cap}, seed {seed}"]
    checked_pairs = 0
    checked_compositions = 0
    for i in range(depth - 1):
        q = tower.links[i]
        objs = _stage_objects(q.target, cap)
        Inf = sp.InflationGSetFunctor(q)
        if not sp.check_left_exact(Inf, _stage_objects(q.target, min(cap, 2))):
            return Report(False, f"inflation not left exact at stage {i}")
        SpInf = sp.span_of_functor(Inf)
        sigma = {X: gs.canonical_iso(gs.inflate(X, q)) for X in objs}
        bases = {}
        for X in objs:
            for Y in objs:
                basis = bases[X, Y] = sp.span_basis(X, Y)
                target_keys = set(sp.span_basis(sigma[X].dst, sigma[Y].dst))
                images = set()
                for b in basis:
                    m = sp.transport_span(
                        SpInf(sp.basis_span_mor(X, Y, b)), sigma[X], sigma[Y]
                    )
                    if len(m.terms) != 1 or m.terms[0][1] != 1:
                        return Report(
                            False,
                            f"inflation of a basis span is not basic at stage {i}",
                        )
                    images.add(m.terms[0][0])
                if len(images) != len(basis) or not images <= target_keys:
                    return Report(
                        False, f"inflation not injective on basis at stage {i}"
                    )
                checked_pairs += 1
        # sampled functoriality of Span(inflation)
        for _ in range(40):
            X, Y, Z = (rng.choice(objs) for _ in range(3))
            b1 = bases[X, Y]
            b2 = bases[Y, Z]
            if not (b1 and b2):
                continue
            m1 = sp.basis_span_mor(X, Y, rng.choice(b1))
            m2 = sp.basis_span_mor(Y, Z, rng.choice(b2))
            if SpInf(sp.compose_spans(m2, m1)) != sp.compose_spans(
                SpInf(m2), SpInf(m1)
            ):
                return Report(False, f"Span(inflation) not functorial at stage {i}")
            checked_compositions += 1
    # objects jointly hit: inflation keeps sizes, so capped objects lift capped
    lines += [
        f"hom bases checked: {checked_pairs}",
        f"sampled functoriality compositions: {checked_compositions}",
        "basis-level comparison is bijective on every hom; objects jointly hit",
    ]
    return Report(True, "", lines)


def verify_limit_span(p: int, depth: int, cap: int) -> Report:
    """Span of the deepest stage as the limit of stage span categories
    along Span(fixed points).

    A compatible family of span morphisms is determined by its deepest
    component, so the comparison is an equivalence once Span(fixed points)
    is well defined on bases (basis to basis-or-zero, exactly following
    the N ⊆ H rule), left exact, functorial, and identity-preserving.
    """
    _require_link("limit-span", depth)
    tower = g.cyclic_tower(p, depth)
    lines = [f"tower: cyclic p={p} depth={depth}, size cap {cap}"]
    basis_images = 0
    compositions = 0
    for i in range(depth - 1):
        q = tower.links[i]  # stages[i+1] -> stages[i]
        G = q.source
        lat = g.subgroup_lattice(G)
        N = set(q.kernel.elements)
        Fix = sp.FixedPointsGSetFunctor(q)
        if not sp.check_left_exact(Fix, _stage_objects(G, min(cap, 2))):
            return Report(False, f"fixed points not left exact at stage {i}")
        SpFix = sp.span_of_functor(Fix)
        objs = _stage_objects(G, cap)
        images = {}  # (X, Y) -> [(basis span, its SpFix image)]
        for X in objs:
            for Y in objs:
                images[X, Y] = []
                for b in sp.span_basis(X, Y):
                    m = sp.basis_span_mor(X, Y, b)
                    image = SpFix(m)
                    images[X, Y].append((m, image))
                    expect_nonzero = N <= set(lat.class_rep(b[0]).elements)
                    if expect_nonzero and (
                        len(image.terms) != 1 or image.terms[0][1] != 1
                    ):
                        return Report(
                            False, "fixed points of a kernel-fixed apex is not basic"
                        )
                    if not expect_nonzero and not image.is_zero():
                        return Report(
                            False, "fixed points of a kernel-moved apex is not zero"
                        )
                    basis_images += 1
            iX = sp.identity_span(X)
            if SpFix(iX) != sp.identity_span(gs.fixed_points(X, q)):
                return Report(False, "identity span not preserved")
        for X in objs[:4]:
            for Y in objs[:4]:
                for Z in objs[:4]:
                    for m1, f1 in images[X, Y]:
                        for m2, f2 in images[Y, Z]:
                            if SpFix(sp.compose_spans(m2, m1)) != sp.compose_spans(
                                f2, f1
                            ):
                                return Report(
                                    False,
                                    f"Span(fixed points) not functorial at stage {i}",
                                )
                            compositions += 1
    lines += [
        f"basis spans transported: {basis_images}",
        f"functoriality compositions verified: {compositions}",
        "families along the chain are determined by their deepest component",
    ]
    return Report(True, "", lines)


def verify_adjunction(cap: int = 4) -> Report:
    """Unit/counit naturality squares for inflation/fixed points over C4
    with the order-2 kernel: every unit square is a pullback; at least one
    counit square is not, and its witness is reported as expected.

    The laws are checked once per object.  A unit square's parallel sides
    are units, so with the unit an isomorphism on every object, every unit
    square is a pullback.  Counit squares are counted per orbit factor: a
    square fails iff its map sends an orbit outside X^N into X'^N.  Only
    the first pair (X, X') with a failing square has its maps enumerated.
    """
    _require_cap(cap)
    G = g.cyclic(4)
    q = g.quotient(G, g.make_subgroup(G, (0, 2)))
    objs = _stage_objects(G, cap)
    for X in objs:
        data = gs.fixed_point_data(X, q)
        if not (data.unit.is_iso() and data.counit.is_injective()):
            return Report(
                False, f"unit/counit law violated for X with action {X.action}"
            )
    squares = failures = 0
    first = None
    for X in objs:
        for Xp in objs:
            maps, pullbacks = gs.counit_square_counts(q, X, Xp)
            squares += maps
            failures += maps - pullbacks
            if first is None and pullbacks < maps:
                first = X, Xp
    lines = [
        f"group C4, kernel of order 2, size cap {cap}",
        f"naturality squares checked: {squares}",
        "every unit square is a pullback; unit iso and counit injective throughout",
    ]
    if not failures:
        return Report(False, "no counit square failed the pullback test")
    X, Xp = first
    f = gs.counit_square_witness(q, X, Xp)
    lines += [
        f"counit squares that are not pullbacks: {failures} (EXPECTED)",
        f"first witness: X with action {X.action}, map {f.values} (EXPECTED)",
    ]
    return Report(True, "", lines)


def verify_mackey_limit(p: int = 2, depth: int = 2) -> Report:
    """Tower-limit round trip for Mackey functors, with a corrupted-family
    negative control."""
    _require_link("mackey-limit", depth)
    tower = g.cyclic_tower(p, depth)
    deepest = mk.burnside_mackey(tower.stages[-1])
    family = mk.tower_family(tower, deepest)
    try:
        assembled = mk.assemble_from_tower(tower, family)
    except IncoherentFamily as exc:
        return Report(False, f"coherent family rejected: {exc}")
    if assembled is not deepest:
        return Report(False, "assembly did not return the deepest stage")
    for i, M in enumerate(family):
        verdict = mk.check_mackey(M)
        if not verdict:
            return Report(False, f"stage {i} fails axioms")
    corrupted = list(family)
    corrupted[0] = mk.zero_mackey(tower.stages[0])
    try:
        mk.assemble_from_tower(tower, corrupted)
        return Report(False, "corrupted family accepted")
    except IncoherentFamily:
        pass
    lines = [
        f"tower: cyclic p={p} depth={depth}",
        f"stages verified coherent under categorical fixed points: {depth}",
        "corrupted family rejected with IncoherentFamily (negative control)",
    ]
    return Report(True, "", lines)


def _gcd_cat(n: int) -> fc.FinCat:
    elems = [d for d in range(1, n + 1) if n % d == 0]
    hom = {
        (a, b): [(a, b, "le")] if b % a == 0 else []
        for a in elems
        for b in elems
    }
    compose = {
        ((b, c, "le"), (a, b, "le")): (a, c, "le")
        for a in elems
        for b in elems
        for c in elems
        if b % a == 0 and c % b == 0
    }
    return fc.FinCat.from_tables(elems, hom, compose)


def _monotone(src, dst, f):
    return fc.CatFunctor(src, dst, f, lambda m: (f(m[0]), f(m[1]), "le"))


def verify_funcat(seed: int = 0) -> Report:
    """Functor-category comparison on divisor-lattice corpora.

    Checks, on seeded chains of at most 3 stages: the family-to-functor
    and functor-to-family round trips close up to natural isomorphism,
    product-preserving families induce product-preserving functors, and a
    family with one non-preserving component induces a non-preserving
    functor (the converse direction, by contraposition).
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
            _monotone(cats[i], cats[i + 1], lambda x, m=mods[i + 1]: math.gcd(x, m))
            for i in range(stages - 1)
        ]
        D = fc.ChainDiagram(cats, links)
        colim = fc.colimit_chain(D)
        m_last = rng.choice(
            [d for d in divisors if mods[-1] % d == 0]
        )
        E = cats[0]
        comps = [
            _monotone(cats[i], E, lambda x, m=m_last: math.gcd(x, m))
            for i in range(stages)
        ]
        coh = [
            {x: (math.gcd(x, m_last), math.gcd(x, m_last), "le") for x in cats[i].objects}
            for i in range(stages - 1)
        ]
        fam = fc.FunctorFamily(comps, coh)
        F = fc.functor_from_family(colim, fam)
        for i in range(stages):
            if not fc.naturally_isomorphic(colim.injections[i].then(F), comps[i]):
                return Report(False, f"restriction differs from component {i}")
        # functor -> family -> functor round trip
        fam_back = fc.FunctorFamily(
            [colim.injections[i].then(F) for i in range(stages)],
            [
                {
                    x: E.identity(F.obj(colim.injections[i].obj(x)))
                    for x in cats[i].objects
                }
                for i in range(stages - 1)
            ],
        )
        F2 = fc.functor_from_family(colim, fam_back)
        if not fc.naturally_isomorphic(F, F2):
            return Report(False, "functor round trip not isomorphic")
        if not fc.preserves_binary_products(F):
            return Report(
                False, "product-preserving family gave a non-preserving functor"
            )
        corpora += 1
    # constructed counterexample: collapse everything above 1 to the top
    cat = _gcd_cat(12)
    bad = _monotone(cat, cat, lambda d: 1 if d == 1 else 12)
    D = fc.ChainDiagram([cat, cat], [fc.identity_functor(cat)])
    colim = fc.colimit_chain(D)
    coh = {x: (bad.obj(x), bad.obj(x), "le") for x in cat.objects}
    Fbad = fc.functor_from_family(colim, fc.FunctorFamily([bad, bad], [coh]))
    if fc.preserves_binary_products(Fbad):
        return Report(False, "non-preserving family gave a preserving functor")
    lines += [
        f"seeded corpora checked: {corpora}",
        "round trips close up to natural isomorphism",
        "product preservation matches componentwise preservation, both directions",
    ]
    return Report(True, "", lines)


def _clamped(check, p: int, depth: int, cap: int, *rest) -> Report:
    """A span check run at depth <= 2 and cap <= 3; a clamp is named after
    the report's tower header."""
    report = check(p, min(depth, 2), min(cap, 3), *rest)
    if depth > 2 or cap > 3:
        note = f"(clamped from depth {depth}, cap {cap})"
        if report.lines:
            report.lines[0] += f" {note}"
        else:
            report.lines.append(note)
    return report


class Check(NamedTuple):
    """One verify check: `run(cap, seed, tower)` returns its report, and
    `require(cap, tower)` raises ParseError when the run would test
    nothing, before any check runs."""

    run: Callable[[int, int, tuple[int, int]], Report]
    require: Callable[[int, tuple[int, int]], None] = lambda cap, tower: None


def _needs_link(check: str) -> Callable[[int, tuple[int, int]], None]:
    return lambda cap, tower: _require_link(check, tower[1])


# The verify checks in `verify all` order.  Each takes the CLI's size cap,
# seed and (p, depth) tower.
CHECKS = {
    "colim-gset": Check(lambda cap, seed, tower: verify_colim_gset(*tower, cap)),
    "colim-span": Check(
        lambda cap, seed, tower: _clamped(verify_colim_span, *tower, cap, seed),
        _needs_link("colim-span"),
    ),
    "limit-span": Check(
        lambda cap, seed, tower: _clamped(verify_limit_span, *tower, cap),
        _needs_link("limit-span"),
    ),
    "adjunction": Check(
        lambda cap, seed, tower: verify_adjunction(cap),
        lambda cap, tower: _require_cap(cap),
    ),
    "mackey-limit": Check(
        lambda cap, seed, tower: verify_mackey_limit(*tower),
        _needs_link("mackey-limit"),
    ),
    "funcat": Check(lambda cap, seed, tower: verify_funcat(seed)),
}
