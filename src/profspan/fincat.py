"""Finite posets and monotone maps, with chain colimits and the
functor-from-family comparison.

Every category that `verify funcat` builds is a divisor lattice, a
poset, so the categories here are thin: a category is its objects and
its order `le`, and a functor is its object map, a dict on the source's
objects.  Between two objects there is at most one morphism, so every
diagram commutes, every isomorphism is an identity, a natural
isomorphism is an equality of object maps and a binary product is a
meet.  The module and `FinCat` keep their names because the benchmark's
tracer imports them.
"""

from __future__ import annotations

import itertools

from .errors import IncoherentFamily, Verdict


class FinCat:
    """A finite poset: its objects, in order, and `le(a, b)`, a ≤ b."""

    def __init__(self, objects, le):
        self.objects = tuple(objects)
        self.le = le


def colimit_chain(cats, links):
    """The colimit of cats[0] -> ... -> cats[-1], links[i] mapping the
    objects of stage i to stage i + 1, and its injections.

    A chain has a last stage, so its colimit is the last stage (Mac Lane,
    IX.3): the final-stage images of the stage objects, ordered as there.
    The injection of stage i is the transport map to the last stage.
    """
    if len(links) != len(cats) - 1:
        raise ValueError("chain of n categories needs n-1 links")
    injections = [{x: x for x in cats[-1].objects}]
    for L in reversed(links):
        onward = injections[0]
        injections.insert(0, {x: onward[y] for x, y in L.items()})
    return cats[-1], injections


def functor_from_family(links, components):
    """The functor on the chain's colimit that restricts to the family
    components[i] on stage i: the last component.

    Raises IncoherentFamily when F_{i+1}(links[i](x)) is not F_i(x): in a
    poset the coherence cell exists, and is invertible, exactly then.
    """
    if len(components) != len(links) + 1:
        raise IncoherentFamily(-1, "component count does not match the chain")
    for i, L in enumerate(links):
        for x, y in L.items():
            if components[i + 1][y] != components[i][x]:
                raise IncoherentFamily(i, (x, "restriction differs from component"))
    return components[-1]


def naturally_isomorphic(F, G) -> bool:
    """Two parallel monotone maps are naturally isomorphic iff equal."""
    return F == G


def _is_meet(cat: FinCat, a, b, p) -> bool:
    return all(cat.le(w, p) == (cat.le(w, a) and cat.le(w, b)) for w in cat.objects)


def binary_products(cat: FinCat) -> dict:
    """All pairs (a, b) -> their meet, for the pairs that have one."""
    out = {}
    for a, b in itertools.product(cat.objects, repeat=2):
        p = next((p for p in cat.objects if _is_meet(cat, a, b, p)), None)
        if p is not None:
            out[(a, b)] = p
    return out


def preserves_binary_products(F, src: FinCat, dst: FinCat) -> Verdict:
    """Whether the monotone map F : src -> dst sends meets to meets."""
    for (a, b), p in binary_products(src).items():
        if not _is_meet(dst, F[a], F[b], F[p]):
            return Verdict(False, "product not preserved", (a, b))
    return Verdict(True)
