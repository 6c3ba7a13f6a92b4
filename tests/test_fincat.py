import itertools
import math

import pytest

from profspan import fincat as fc
from profspan.errors import IncoherentFamily


def divides(a, b):
    return b % a == 0


def gcd_cat(n):
    """Divisors of n ordered by divisibility; gcd is the meet."""
    return fc.FinCat([d for d in range(1, n + 1) if n % d == 0], divides)


def monotone(src, f):
    return {x: f(x) for x in src.objects}


def identity(cat):
    return monotone(cat, lambda x: x)


def gcd_chain():
    """The chain c12 -> c6, sending a divisor d of 12 to gcd(d, 6)."""
    c12, c6 = gcd_cat(12), gcd_cat(6)
    return [c12, c6], [monotone(c12, lambda d: math.gcd(d, 6))]


def test_gcd_cat_validates():
    cat = gcd_cat(6)
    assert cat.objects == (1, 2, 3, 6)
    assert cat.le(1, 6) and not cat.le(6, 1)
    for a, b, c in itertools.product(cat.objects, repeat=3):
        assert cat.le(a, a)
        assert not (cat.le(a, b) and cat.le(b, a)) or a == b
        assert not (cat.le(a, b) and cat.le(b, c)) or cat.le(a, c)


def test_colimit_single_stage():
    cat = gcd_cat(6)
    colim, injections = fc.colimit_chain([cat], [])
    assert colim is cat
    assert injections == [identity(cat)]


def test_colimit_identity_link():
    cat = gcd_cat(6)
    colim, injections = fc.colimit_chain([cat, cat], [identity(cat)])
    assert colim.objects == cat.objects
    assert injections == [identity(cat), identity(cat)]


def test_colimit_gcd_link_c12_c6():
    cats, links = gcd_chain()
    colim, injections = fc.colimit_chain(cats, links)
    # the divisors of 12 land on gcd(d, 6), the objects of the last stage
    assert colim.objects == (1, 2, 3, 6)
    assert injections[0] == {1: 1, 2: 2, 3: 3, 4: 2, 6: 6, 12: 6}
    assert [x for x, y in injections[0].items() if y == 2] == [2, 4]
    assert injections[1] == identity(cats[1])
    with pytest.raises(ValueError):
        fc.colimit_chain(cats, [])


def test_colimit_inverts_links():
    # localization contract: inj_i(x) and inj_{i+1}(link x) become equal,
    # the only isomorphisms of a poset being identities
    cats, links = gcd_chain()
    _, injections = fc.colimit_chain(cats, links)
    for x in cats[0].objects:
        assert injections[0][x] == injections[1][links[0][x]]


def test_functor_from_family_roundtrip():
    # chain c12 -> c6 by gcd, functors into c6 by gcd with 6
    cats, links = gcd_chain()
    c12, c6 = cats
    comps = [monotone(c12, lambda d: math.gcd(d, 6)), identity(c6)]
    _, injections = fc.colimit_chain(cats, links)
    F = fc.functor_from_family(links, comps)
    restrictions = [{x: F[y] for x, y in inj.items()} for inj in injections]
    for i in range(2):
        assert fc.naturally_isomorphic(restrictions[i], comps[i])
    assert fc.naturally_isomorphic(fc.functor_from_family(links, restrictions), F)


def test_functor_from_family_incoherent():
    c6 = gcd_cat(6)
    const = monotone(c6, lambda d: 6)  # F1(link x) = 6 differs from F0(x) below 6
    with pytest.raises(IncoherentFamily) as err:
        fc.functor_from_family([identity(c6)], [identity(c6), const])
    assert err.value.stage == 0
    with pytest.raises(IncoherentFamily) as err:
        fc.functor_from_family([identity(c6)], [const])
    assert err.value.stage == -1


def test_functor_from_family_constant():
    c6 = gcd_cat(6)
    const = monotone(c6, lambda d: 1)
    F = fc.functor_from_family([identity(c6)], [const, const])
    assert all(F[c] == 1 for c in c6.objects)


def test_naturally_isomorphic():
    c12, c6 = gcd_cat(12), gcd_cat(6)
    by_gcd = monotone(c12, lambda d: math.gcd(d, 6))
    by_table = {1: 1, 2: 2, 3: 3, 4: 2, 6: 6, 12: 6}
    assert fc.naturally_isomorphic(by_gcd, by_table)
    # gcd with 3 is monotone too, but sends 2 to 1, not to 2
    assert not fc.naturally_isomorphic(by_gcd, monotone(c12, lambda d: math.gcd(d, 3)))
    # maps on different sources are not parallel, so never isomorphic
    assert not fc.naturally_isomorphic(by_gcd, identity(c6))


def test_binary_products_gcd():
    cat = gcd_cat(12)
    prods = fc.binary_products(cat)
    for (a, b), p in prods.items():
        assert p == math.gcd(a, b)
    assert len(prods) == len(cat.objects) ** 2


def test_binary_products_of_an_antichain_are_the_diagonal():
    cat = fc.FinCat([2, 3], lambda a, b: a == b)
    assert fc.binary_products(cat) == {(2, 2): 2, (3, 3): 3}


def test_preserves_binary_products():
    c12, c6 = gcd_cat(12), gcd_cat(6)
    good = monotone(c12, lambda d: math.gcd(d, 6))
    assert fc.preserves_binary_products(good, c12, c6)
    # collapsing everything above 1 to 6 destroys gcd(4, 3) = 1
    bad = monotone(c12, lambda d: 1 if d == 1 else 6)
    verdict = fc.preserves_binary_products(bad, c12, c6)
    assert not verdict and verdict.witness == (2, 3)
    assert verdict.render() == "FAIL product not preserved (witness (2, 3))"
