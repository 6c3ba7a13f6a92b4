import pytest

from profspan import fincat as fc
from profspan import groups as g
from profspan import gsets as gs
from profspan.corpus import corpus_group
from profspan.errors import IncoherentFamily


def poset_cat(elems, le, name=""):
    """Thin category of a finite poset; at most one morphism per pair."""
    hom = {}
    compose = {}
    for a in elems:
        for b in elems:
            hom[(a, b)] = [(a, b, "le")] if le(a, b) else []
    for a in elems:
        for b in elems:
            for c in elems:
                if le(a, b) and le(b, c):
                    compose[((b, c, "le"), (a, b, "le"))] = (a, c, "le")
    return fc.FinCat.from_tables(elems, hom, compose, name=name)


def divides(a, b):
    return b % a == 0


def gcd_cat(n, name=""):
    """Divisors of n ordered by divisibility; gcd is the binary product."""
    elems = [d for d in range(1, n + 1) if n % d == 0]
    return poset_cat(elems, divides, name=name)


def monotone_functor(src, dst, f):
    return fc.CatFunctor(
        src, dst, f, lambda m: (f(m[0]), f(m[1]), "le"), name="monotone"
    )


def inflation_chain(tower, cap):
    cats = [gs.gset_category(G, cap) for G in tower.stages]
    links = [
        gs.inflation_functor(tower.links[i], cats[i], cats[i + 1])
        for i in range(tower.depth - 1)
    ]
    return fc.ChainDiagram(cats, links)


def final_comparison(colim):
    final = colim.diagram.cats[-1]
    return fc.CatFunctor(
        colim.cat, final, lambda c: colim.reps[c], lambda m: m[2], name="cmp"
    )


def test_from_tables_validates():
    cat = gcd_cat(6)
    assert len(cat.objects) == 4
    assert len(cat.hom(1, 6)) == 1 and cat.hom(6, 1) == ()
    cat.validate()


def test_from_tables_rejects_missing_identity():
    hom = {("a", "a"): []}
    with pytest.raises(ValueError):
        fc.FinCat.from_tables(["a"], hom, {})


def test_validate_catches_broken_composition():
    # unital magma on {e, a, b} with (a*b)*b != a*(b*b)
    table = {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
        ("a", "e"): "a", ("b", "e"): "b",
        ("a", "a"): "b", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "a",
    }
    mor = lambda s: ("x", "x", s)
    hom = {("x", "x"): [mor(s) for s in "eab"]}
    compose = {(mor(s), mor(t)): mor(table[(s, t)]) for s in "eab" for t in "eab"}
    with pytest.raises((AssertionError, ValueError)):
        fc.FinCat.from_tables(["x"], hom, compose)


def test_isos_in_gset_category():
    cat = gs.gset_category(g.cyclic(2), 2)
    free = next(X for X in cat.objects if gs.orbit_class_multiset(X) == (0,))
    assert cat.is_isomorphic(free, free)
    others = [X for X in cat.objects if X != free]
    assert not any(cat.is_isomorphic(free, X) for X in others)
    f = cat.find_iso(free, free)
    assert cat.inverse(f) is not None


def assert_iso_hook_matches_search(cat):
    """The category's find_iso hook agrees with the exhaustive search."""
    assert cat._find_iso is not None
    for a in cat.objects:
        for b in cat.objects:
            f = cat.find_iso(a, b)
            assert (f is None) == (next(cat.isos(a, b), None) is None)
            assert cat.is_isomorphic(a, b) == (f is not None)
            if f is not None:
                assert f in cat.hom(a, b)
                inv = cat.inverse(f)
                assert cat.compose(inv, f) == cat.identity(a)


@pytest.mark.parametrize("name", ["C4", "S3", "C2xC2"])
def test_gset_category_iso_hook_oracle(name):
    assert_iso_hook_matches_search(gs.gset_category(corpus_group(name), 4))


def test_discrete_gset_category_iso_hook_oracle():
    disc = gs.discrete_gset_category(g.cyclic_tower(2, 3), 3)
    assert_iso_hook_matches_search(disc)
    assert any(
        disc.is_isomorphic(A, B) for A in disc.objects for B in disc.objects
        if A.level != B.level
    )


def test_memoised_hashes_agree_on_equal_values():
    G1, G2 = g.cyclic(6), g.cyclic(6)
    hash(G1)  # G1 memoises first; G2 still computes its own
    assert G1 == G2 and hash(G2) == hash(G1) == hash((G1.mult,))
    X1 = gs.coset_gset(G1, (0, 3))
    X2 = gs.GSet(G2, tuple(tuple(row) for row in X1.action))
    hash(X2)
    assert X1 is not X2 and X1 == X2 and hash(X1) == hash(X2)
    assert len({X1, X2}) == 1
    T1, T2 = g.cyclic_tower(2, 3), g.cyclic_tower(2, 3)
    hash(T1)
    assert T1 == T2 and hash(T2) == hash(T1)
    q1, q2 = (g.quotient(G, g.make_subgroup(G, (0, 3))) for G in (G1, G2))
    hash(q1)
    assert q1 is not q2 and q1 == q2 and hash(q2) == hash(q1)


def test_check_equivalence_identity_and_skeleton():
    cat = gcd_cat(4)
    assert fc.check_equivalence(fc.identity_functor(cat))
    # a skeleton inclusion into an "inflated" copy with duplicate objects
    elems = [1, 2, 4, "2bis"]

    def le(a, b):
        val = lambda x: 2 if x == "2bis" else x
        return divides(val(a), val(b))

    fat = poset_cat(elems, le)
    incl = monotone_functor(cat, fat, lambda d: d)
    assert fc.check_equivalence(incl)


def test_check_equivalence_failures():
    two = fc.FinCat.from_tables(
        ["x", "y"],
        {("x", "x"): [("x", "x", "id")], ("y", "y"): [("y", "y", "id")]},
        {
            (("x", "x", "id"), ("x", "x", "id")): ("x", "x", "id"),
            (("y", "y", "id"), ("y", "y", "id")): ("y", "y", "id"),
        },
    )
    one = fc.FinCat.from_tables(
        ["*"],
        {("*", "*"): [("*", "*", "id")]},
        {(("*", "*", "id"), ("*", "*", "id")): ("*", "*", "id")},
    )
    const = fc.CatFunctor(two, one, lambda a: "*", lambda m: ("*", "*", "id"))
    verdict = fc.check_equivalence(const)
    assert not verdict and verdict.reason == "not full"
    # and the other way: inclusion of one object is not essentially surjective
    incl = fc.CatFunctor(one, two, lambda a: "x", lambda m: ("x", "x", "id"))
    verdict = fc.check_equivalence(incl)
    assert not verdict and verdict.reason == "not essentially surjective"
    assert verdict.witness == "y"


def test_colimit_single_stage():
    cat = gs.gset_category(g.cyclic(2), 2)
    colim = fc.colimit_chain(fc.ChainDiagram([cat], []))
    assert fc.check_equivalence(final_comparison(colim))
    colim.injections[0].validate()


def test_colimit_identity_link():
    cat = gcd_cat(6)
    D = fc.ChainDiagram([cat, cat], [fc.identity_functor(cat)])
    colim = fc.colimit_chain(D)
    assert len(colim.cat.objects) == len(cat.objects)
    assert fc.check_equivalence(final_comparison(colim))
    for inj in colim.injections:
        inj.validate()


def test_colimit_inflation_chain_c2_c4():
    D = inflation_chain(g.cyclic_tower(2, 2), 3)
    colim = fc.colimit_chain(D)
    # classes at the final stage are exactly the C4-set iso classes
    assert len(colim.cat.objects) == len(gs.gset_isoclasses(g.cyclic(4), 3))
    cmp = final_comparison(colim)
    cmp.validate()
    assert fc.check_equivalence(cmp)
    for inj in colim.injections:
        inj.validate()


def test_colimit_inverts_links():
    # localization contract: inj_i(x) and inj_{i+1}(link x) become isomorphic
    D = inflation_chain(g.cyclic_tower(2, 2), 3)
    colim = fc.colimit_chain(D)
    for x in D.cats[0].objects:
        a = colim.injections[0].obj(x)
        b = colim.injections[1].obj(D.links[0].obj(x))
        assert colim.cat.is_isomorphic(a, b)


def two_stage_family(D, E, F0, F1, eta):
    return fc.FunctorFamily([F0, F1], [eta])


def test_functor_from_family_roundtrip():
    # chain c12 -> c6 by gcd, functors into c6 by gcd with 6
    import math

    c12, c6 = gcd_cat(12), gcd_cat(6)
    L = monotone_functor(c12, c6, lambda d: math.gcd(d, 6))
    D = fc.ChainDiagram([c12, c6], [L])
    F0 = monotone_functor(c12, c6, lambda d: math.gcd(d, 6))
    F1 = fc.identity_functor(c6)
    eta = {x: (F0.obj(x), F0.obj(x), "le") for x in c12.objects}
    fam = fc.FunctorFamily([F0, F1], [eta])
    colim = fc.colimit_chain(D)
    F = fc.functor_from_family(colim, fam)
    F.validate()
    for i in range(2):
        assert fc.naturally_isomorphic(colim.injections[i].then(F), fam.components[i])


def test_functor_from_family_incoherent():
    c6 = gcd_cat(6)
    D = fc.ChainDiagram([c6, c6], [fc.identity_functor(c6)])
    F0 = fc.identity_functor(c6)
    F1 = monotone_functor(c6, c6, lambda d: 6)  # constant at the top
    eta = {x: (6, x, "le") for x in c6.objects}  # not invertible for x != 6
    with pytest.raises(IncoherentFamily) as err:
        fc.functor_from_family(fc.colimit_chain(D), fc.FunctorFamily([F0, F1], [eta]))
    assert err.value.stage == 0


def test_functor_from_family_constant():
    c6 = gcd_cat(6)
    D = fc.ChainDiagram([c6, c6], [fc.identity_functor(c6)])
    const = monotone_functor(c6, c6, lambda d: 1)
    eta = {x: (1, 1, "le") for x in c6.objects}
    F = fc.functor_from_family(
        fc.colimit_chain(D), fc.FunctorFamily([const, const], [eta])
    )
    assert all(F.obj(c) == 1 for c in F.src.objects)


def test_naturally_isomorphic():
    cat = gs.gset_category(g.cyclic(2), 2)
    ident = fc.identity_functor(cat)
    assert fc.naturally_isomorphic(ident, ident)
    # twist by the nontrivial automorphism of the free orbit
    free = next(X for X in cat.objects if gs.orbit_class_multiset(X) == (0,))
    swap = next(m for m in cat.hom(free, free) if m[2] != (0, 1))

    def twist(m):
        out = m
        if m[0] == free:
            out = cat.compose(out, swap)
        if m[1] == free:
            out = cat.compose(swap, out)
        return out

    twisted = fc.CatFunctor(cat, cat, lambda a: a, twist)
    twisted.validate()
    assert fc.naturally_isomorphic(ident, twisted)


def test_binary_products_gcd():
    cat = gcd_cat(12)
    prods = fc.binary_products(cat)
    import math

    for (a, b), (p, _, _) in prods.items():
        assert p == math.gcd(a, b)
    assert len(prods) == len(cat.objects) ** 2


def test_preserves_binary_products():
    import math

    c12, c6 = gcd_cat(12), gcd_cat(6)
    good = monotone_functor(c12, c6, lambda d: math.gcd(d, 6))
    assert fc.preserves_binary_products(good)
    # collapsing everything above 1 to 6 destroys gcd(4, 3) = 1
    bad = monotone_functor(c12, c6, lambda d: 1 if d == 1 else 6)
    bad.validate()
    verdict = fc.preserves_binary_products(bad)
    assert not verdict and verdict.witness is not None


def test_discrete_gset_category_depth_1():
    t = g.cyclic_tower(3, 1)
    disc = gs.discrete_gset_category(t, 3)
    stage = gs.gset_category(t.stages[0], 3)
    F = fc.CatFunctor(
        stage,
        disc,
        lambda X: gs.TowerObject(t, 0, X),
        lambda m: (gs.TowerObject(t, 0, m[0]), gs.TowerObject(t, 0, m[1]), m[2]),
    )
    F.validate()
    assert fc.check_equivalence(F)


def test_discrete_gset_category_cross_level_iso():
    t = g.cyclic_tower(2, 2)
    disc = gs.discrete_gset_category(t, 2)
    trivial1 = next(
        A for A in disc.objects if A.level == 0 and A.carrier.size == 1
    )
    trivial2 = next(
        A for A in disc.objects if A.level == 1 and A.carrier.size == 1
    )
    assert disc.is_isomorphic(trivial1, trivial2)
    # the level-0 free C2-orbit inflates to C4/C2, the level-1 carrier
    # with stabilizer class 1; they become isomorphic across levels
    free1 = next(
        A
        for A in disc.objects
        if A.level == 0 and gs.orbit_class_multiset(A.carrier) == (0,)
    )
    halffree2 = next(
        A
        for A in disc.objects
        if A.level == 1 and gs.orbit_class_multiset(A.carrier) == (1,)
    )
    assert disc.is_isomorphic(free1, halffree2)
    assert not disc.is_isomorphic(free1, trivial2)


def test_discrete_gset_category_cap_0():
    t = g.cyclic_tower(2, 2)
    disc = gs.discrete_gset_category(t, 0)
    assert all(A.carrier.size == 0 for A in disc.objects)
    for A in disc.objects:
        for B in disc.objects:
            assert disc.is_isomorphic(A, B)


def test_colimit_comparison_to_discrete_model():
    t = g.cyclic_tower(2, 2)
    cap = 2
    disc = gs.discrete_gset_category(t, cap)
    colim = fc.colimit_chain(inflation_chain(t, cap))
    top = t.depth - 1

    def on_obj(c):
        return gs.TowerObject(t, top, colim.reps[c])

    def on_mor(m):
        R1, R2, values = m[2]
        return (gs.TowerObject(t, top, R1), gs.TowerObject(t, top, R2), values)

    F = fc.CatFunctor(colim.cat, disc, on_obj, on_mor, name="cmp")
    F.validate()
    assert fc.check_equivalence(F)
