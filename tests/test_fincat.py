import math

import pytest

from profspan import fincat as fc
from profspan import groups as g
from profspan import gsets as gs
from profspan.corpus import corpus_group
from profspan.errors import IncoherentFamily


def poset_cat(elems, le):
    """Thin category of a finite poset; at most one morphism per pair."""
    cat = fc.FinCat(
        elems,
        lambda a, b: [(a, b, "le")] if le(a, b) else [],
        lambda g, f: (f[0], g[1], "le"),
        lambda a: (a, a, "le"),
    )
    cat.validate()
    return cat


def divides(a, b):
    return b % a == 0


def gcd_cat(n):
    """Divisors of n ordered by divisibility; gcd is the binary product."""
    elems = [d for d in range(1, n + 1) if n % d == 0]
    return poset_cat(elems, divides)


def monotone_functor(src, dst, f):
    return fc.CatFunctor(src, dst, f, lambda m: (f(m[0]), f(m[1]), "le"))


def group_cat(G):
    """The one-object category of a finite group: morphisms are its
    elements, composed by the group law, with the identity element 0."""
    mor = lambda x: ("*", "*", x)
    cat = fc.FinCat(
        ["*"],
        lambda a, b: [mor(x) for x in G.elements()],
        lambda g, f: mor(G.mul(g[2], f[2])),
        lambda a: mor(0),
    )
    cat.validate()
    return cat


def gcd_chain():
    """The chain c12 -> c6, sending a divisor d of 12 to gcd(d, 6)."""
    c12, c6 = gcd_cat(12), gcd_cat(6)
    L = monotone_functor(c12, c6, lambda d: math.gcd(d, 6))
    return fc.ChainDiagram([c12, c6], [L])


def test_gcd_cat_validates():
    cat = gcd_cat(6)
    assert len(cat.objects) == 4
    assert len(cat.hom(1, 6)) == 1 and cat.hom(6, 1) == ()
    cat.validate()


def test_validate_catches_broken_composition():
    # unital magma on {e, a, b} with (a*b)*b != a*(b*b)
    table = {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
        ("a", "e"): "a", ("b", "e"): "b",
        ("a", "a"): "b", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "a",
    }
    mor = lambda s: ("x", "x", s)
    cat = fc.FinCat(
        ["x"],
        lambda a, b: [mor(s) for s in "eab"],
        lambda g, f: mor(table[(g[2], f[2])]),
        lambda a: mor("e"),
    )
    with pytest.raises((AssertionError, ValueError)):
        cat.validate()


def test_isos_and_inverse():
    G = corpus_group("S3")
    cat = group_cat(G)
    assert list(cat.isos("*", "*")) == list(cat.hom("*", "*"))
    for x in G.elements():
        assert cat.inverse(("*", "*", x)) == ("*", "*", G.inv(x))
    assert cat.find_iso("*", "*") == cat.identity("*")
    # a poset has no isomorphism between distinct objects
    c6 = gcd_cat(6)
    assert c6.find_iso(2, 2) is not None
    assert c6.find_iso(2, 6) is None and list(c6.isos(2, 6)) == []
    with pytest.raises(ValueError):
        c6.inverse((2, 6, "le"))


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


def assert_homs_of_reps(colim):
    """Every hom-set of the colimit is the final-stage hom-set between
    the class representatives."""
    final = colim.diagram.cats[-1]
    for c1 in colim.cat.objects:
        for c2 in colim.cat.objects:
            homs = [m[2] for m in colim.cat.hom(c1, c2)]
            assert homs == list(final.hom(colim.reps[c1], colim.reps[c2]))


def test_colimit_single_stage():
    cat = gcd_cat(6)
    colim = fc.colimit_chain(fc.ChainDiagram([cat], []))
    assert colim.reps == list(cat.objects)
    assert_homs_of_reps(colim)
    colim.injections[0].validate()


def test_colimit_identity_link():
    cat = gcd_cat(6)
    D = fc.ChainDiagram([cat, cat], [fc.identity_functor(cat)])
    colim = fc.colimit_chain(D)
    assert colim.reps == list(cat.objects)
    assert_homs_of_reps(colim)
    for inj in colim.injections:
        inj.validate()


def test_colimit_gcd_link_c12_c6():
    colim = fc.colimit_chain(gcd_chain())
    # the divisors of 12 land on gcd(d, 6), first seen in the order 1, 2, 3, 6
    assert colim.reps == [1, 2, 3, 6]
    assert colim.class_members[1] == [(0, 2), (0, 4), (1, 2)]
    assert_homs_of_reps(colim)
    for inj in colim.injections:
        inj.validate()


def test_colimit_inverts_links():
    # localization contract: inj_i(x) and inj_{i+1}(link x) become isomorphic
    D = gcd_chain()
    colim = fc.colimit_chain(D)
    for x in D.cats[0].objects:
        a = colim.injections[0].obj(x)
        b = colim.injections[1].obj(D.links[0].obj(x))
        assert colim.cat.find_iso(a, b) is not None


def two_stage_family(D, E, F0, F1, eta):
    return fc.FunctorFamily([F0, F1], [eta])


def test_functor_from_family_roundtrip():
    # chain c12 -> c6 by gcd, functors into c6 by gcd with 6
    D = gcd_chain()
    c12, c6 = D.cats
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
    G = corpus_group("S3")
    cat = group_cat(G)
    ident = fc.identity_functor(cat)
    assert fc.naturally_isomorphic(ident, ident)
    # conjugation by an element that is not central twists the morphisms
    s = next(
        x for x in G.elements()
        if any(G.mul(x, y) != G.mul(y, x) for y in G.elements())
    )
    twist = lambda m: ("*", "*", G.conj(s, m[2]))
    twisted = fc.CatFunctor(cat, cat, lambda a: a, twist)
    twisted.validate()
    assert any(twist(m) != m for m in cat.hom("*", "*"))
    assert fc.naturally_isomorphic(ident, twisted)
    # the constant functor at the identity is not isomorphic to it
    const = fc.CatFunctor(cat, cat, lambda a: a, lambda m: cat.identity("*"))
    const.validate()
    assert not fc.naturally_isomorphic(ident, const)


def test_binary_products_gcd():
    cat = gcd_cat(12)
    prods = fc.binary_products(cat)
    for (a, b), (p, _, _) in prods.items():
        assert p == math.gcd(a, b)
    assert len(prods) == len(cat.objects) ** 2


def test_preserves_binary_products():
    c12, c6 = gcd_cat(12), gcd_cat(6)
    good = monotone_functor(c12, c6, lambda d: math.gcd(d, 6))
    assert fc.preserves_binary_products(good)
    # collapsing everything above 1 to 6 destroys gcd(4, 3) = 1
    bad = monotone_functor(c12, c6, lambda d: 1 if d == 1 else 6)
    bad.validate()
    verdict = fc.preserves_binary_products(bad)
    assert not verdict and verdict.witness is not None
