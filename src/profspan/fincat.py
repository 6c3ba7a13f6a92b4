"""Explicit finite categories and functors, with chain colimits and the
functor-from-family comparison.

Morphisms are uniformly labelled (src, dst, data) triples.  Hom-sets and
composition may be backed by tables or by functions; table-backed
categories are validated eagerly, function-backed ones are generated by
constructions whose composition is function composition and are validated
by the test suite instead.  `find_iso` and `is_isomorphic` search
exhaustively (`isos`), trying every pair in hom(a, b) x hom(b, a).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import IncoherentFamily, Verdict


class FinCat:
    def __init__(self, objects, hom, compose, identity, name=""):
        self.objects = tuple(objects)
        self._hom = hom
        self._compose = compose
        self._identity = identity
        self.name = name
        self._hom_cache: dict = {}

    def hom(self, a, b) -> tuple:
        key = (a, b)
        if key not in self._hom_cache:
            self._hom_cache[key] = tuple(self._hom(a, b))
        return self._hom_cache[key]

    def compose(self, g, f):
        """g after f."""
        if f[1] != g[0]:
            raise ValueError("morphisms do not compose")
        return self._compose(g, f)

    def identity(self, a):
        return self._identity(a)

    def isos(self, a, b):
        for f in self.hom(a, b):
            for gback in self.hom(b, a):
                if (
                    self.compose(gback, f) == self.identity(a)
                    and self.compose(f, gback) == self.identity(b)
                ):
                    yield f
                    break

    def find_iso(self, a, b):
        return next(self.isos(a, b), None)

    def is_isomorphic(self, a, b) -> bool:
        return self.find_iso(a, b) is not None

    def inverse(self, f):
        a, b = f[0], f[1]
        for g in self.hom(b, a):
            if self.compose(g, f) == self.identity(a) and self.compose(f, g) == self.identity(b):
                return g
        raise ValueError("morphism is not invertible")

    def validate(self):
        """Exhaustive unit and associativity check; quadratic in hom sizes."""
        for a in self.objects:
            ida = self.identity(a)
            assert ida[0] == a and ida[1] == a
            for b in self.objects:
                for f in self.hom(a, b):
                    assert f[0] == a and f[1] == b
                    assert self.compose(f, ida) == f
                    assert self.compose(self.identity(b), f) == f
        for a, b, c, d in itertools.product(self.objects, repeat=4):
            for f in self.hom(a, b):
                for g in self.hom(b, c):
                    gf = self.compose(g, f)
                    assert gf in self.hom(a, c)
                    for h in self.hom(c, d):
                        assert self.compose(h, gf) == self.compose(
                            self.compose(h, g), f
                        )

    @classmethod
    def from_tables(cls, objects, hom, compose, name="", check=True):
        """Build from explicit dictionaries; validated eagerly."""
        objects = tuple(objects)
        hom_d = {k: tuple(v) for k, v in hom.items()}
        ids = {}
        for a in objects:
            candidates = [
                f
                for f in hom_d.get((a, a), ())
                if all(
                    compose[(g, f)] == g
                    for b in objects
                    for g in hom_d.get((a, b), ())
                )
                and all(
                    compose[(f, g)] == g
                    for b in objects
                    for g in hom_d.get((b, a), ())
                )
            ]
            if len(candidates) != 1:
                raise ValueError(f"object {a!r} has no unique identity")
            ids[a] = candidates[0]
        cat = cls(
            objects,
            lambda a, b: hom_d.get((a, b), ()),
            lambda g, f: compose[(g, f)],
            lambda a: ids[a],
            name=name,
        )
        if check:
            cat.validate()
        return cat


class CatFunctor:
    def __init__(self, src: FinCat, dst: FinCat, on_obj, on_mor, name=""):
        self.src = src
        self.dst = dst
        self._on_obj = on_obj
        self._on_mor = on_mor
        self.name = name

    def obj(self, a):
        return self._on_obj(a)

    def mor(self, f):
        return self._on_mor(f)

    def then(self, other: "CatFunctor") -> "CatFunctor":
        if self.dst is not other.src:
            raise ValueError("functors do not compose")
        return CatFunctor(
            self.src,
            other.dst,
            lambda a: other.obj(self.obj(a)),
            lambda f: other.mor(self.mor(f)),
            name=f"{other.name}∘{self.name}",
        )

    def validate(self):
        for a in self.src.objects:
            assert self.mor(self.src.identity(a)) == self.dst.identity(self.obj(a))
        for a, b, c in itertools.product(self.src.objects, repeat=3):
            for f in self.src.hom(a, b):
                ff = self.mor(f)
                assert ff[0] == self.obj(a) and ff[1] == self.obj(b)
                assert ff in self.dst.hom(self.obj(a), self.obj(b))
                for g in self.src.hom(b, c):
                    assert self.mor(self.src.compose(g, f)) == self.dst.compose(
                        self.mor(g), ff
                    )


def identity_functor(cat: FinCat) -> CatFunctor:
    return CatFunctor(cat, cat, lambda a: a, lambda f: f, name="id")


@dataclass
class ChainDiagram:
    """A linear diagram cats[0] -> cats[1] -> ... -> cats[n-1]."""

    cats: list[FinCat]
    links: list[CatFunctor]

    def __post_init__(self):
        if len(self.links) != len(self.cats) - 1:
            raise ValueError("chain of n categories needs n-1 links")
        for i, L in enumerate(self.links):
            if L.src is not self.cats[i] or L.dst is not self.cats[i + 1]:
                raise ValueError(f"link {i} endpoints do not match")

    @property
    def stages(self) -> int:
        return len(self.cats)

    def transport_obj(self, i: int, x, j: int):
        """Push an object of stage i forward to stage j >= i."""
        for k in range(i, j):
            x = self.links[k].obj(x)
        return x

    def transport_mor(self, i: int, f, j: int):
        for k in range(i, j):
            f = self.links[k].mor(f)
        return f


@dataclass
class ColimitChain:
    """Filtered colimit of a chain: zigzag object classes, homs at the
    final stage between chosen class representatives."""

    diagram: ChainDiagram
    cat: FinCat
    injections: list[CatFunctor]
    class_members: list[list[tuple[int, object]]]
    reps: list[object]  # final-stage representative per class


def colimit_chain(D: ChainDiagram) -> ColimitChain:
    """Objects: stage objects identified when their final-stage images are
    isomorphic.  Hom-sets: computed at the final stage (cofinal in a chain).
    """
    n = D.stages
    final = D.cats[-1]
    entries = [(i, x) for i in range(n) for x in D.cats[i].objects]
    classes: list[list[tuple[int, object]]] = []
    reps: list[object] = []
    membership: dict[tuple[int, object], int] = {}
    for i, x in entries:
        tx = D.transport_obj(i, x, n - 1)
        for c, rep in enumerate(reps):
            if final.is_isomorphic(tx, rep):
                classes[c].append((i, x))
                membership[(i, x)] = c
                break
        else:
            membership[(i, x)] = len(classes)
            classes.append([(i, x)])
            reps.append(tx)

    iso_to_rep = {
        (i, x): final.find_iso(D.transport_obj(i, x, n - 1), reps[membership[(i, x)]])
        for i, x in entries
    }

    def hom(c1, c2):
        return tuple((c1, c2, m) for m in final.hom(reps[c1], reps[c2]))

    def compose(gm, fm):
        return (fm[0], gm[1], final.compose(gm[2], fm[2]))

    def identity(c):
        return (c, c, final.identity(reps[c]))

    cat = FinCat(range(len(classes)), hom, compose, identity, name="colim")

    injections = []
    for i in range(n):
        def on_obj(x, i=i):
            return membership[(i, x)]

        def on_mor(f, i=i):
            a, b = f[0], f[1]
            fm = D.transport_mor(i, f, n - 1)
            pa, pb = iso_to_rep[(i, a)], iso_to_rep[(i, b)]
            inner = final.compose(pb, final.compose(fm, final.inverse(pa)))
            return (membership[(i, a)], membership[(i, b)], inner)

        injections.append(CatFunctor(D.cats[i], cat, on_obj, on_mor, name=f"inj{i}"))
    return ColimitChain(D, cat, injections, classes, reps)


@dataclass
class FunctorFamily:
    """Functors F_i : cats[i] -> E with isos F_{i+1} o link_i => F_i.

    coherences[i] maps each object X of cats[i] to an invertible morphism
    F_{i+1}(link_i(X)) -> F_i(X) in E.
    """

    components: list[CatFunctor]
    coherences: list[dict]

    @property
    def target(self) -> FinCat:
        return self.components[0].dst


def functor_from_family(colim: ColimitChain, fam: FunctorFamily) -> CatFunctor:
    """The induced functor colim -> E restricting to the family.

    Raises IncoherentFamily when a coherence cell is missing, not
    invertible, or not natural.
    """
    D = colim.diagram
    n = D.stages
    E = fam.target
    if len(fam.components) != n or len(fam.coherences) != n - 1:
        raise IncoherentFamily(-1, "component count does not match the chain")
    for i, eta in enumerate(fam.coherences):
        Fi, Fj, L = fam.components[i], fam.components[i + 1], D.links[i]
        for x in D.cats[i].objects:
            cell = eta.get(x)
            if cell is None or cell[0] != Fj.obj(L.obj(x)) or cell[1] != Fi.obj(x):
                raise IncoherentFamily(i, (x, "missing or misplaced coherence"))
            if cell not in E.hom(cell[0], cell[1]):
                raise IncoherentFamily(i, (x, "coherence cell is not a morphism"))
            try:
                E.inverse(cell)
            except ValueError:
                raise IncoherentFamily(i, (x, "coherence cell is not invertible"))
        for a in D.cats[i].objects:
            for b in D.cats[i].objects:
                for f in D.cats[i].hom(a, b):
                    lhs = E.compose(Fi.mor(f), eta[a])
                    rhs = E.compose(eta[b], Fj.mor(L.mor(f)))
                    if lhs != rhs:
                        raise IncoherentFamily(i, (f, "coherence is not natural"))

    F_last = fam.components[-1]

    def on_obj(c):
        return F_last.obj(colim.reps[c])

    def on_mor(m):
        return F_last.mor(m[2])

    return CatFunctor(colim.cat, E, on_obj, on_mor, name="from_family")


def naturally_isomorphic(F: CatFunctor, G: CatFunctor) -> bool:
    """Search for a natural isomorphism between two parallel functors."""
    if F.src is not G.src:
        raise ValueError("functors must share a source")
    cat, E = F.src, F.dst
    objs = list(cat.objects)

    def consistent(assign, x, cell):
        for y, other in assign.items():
            for f in cat.hom(y, x):
                if E.compose(cell, F.mor(f)) != E.compose(G.mor(f), other):
                    return False
            for f in cat.hom(x, y):
                if E.compose(other, F.mor(f)) != E.compose(G.mor(f), cell):
                    return False
        for f in cat.hom(x, x):
            if E.compose(cell, F.mor(f)) != E.compose(G.mor(f), cell):
                return False
        return True

    def search(k, assign):
        if k == len(objs):
            return True
        x = objs[k]
        for cell in E.isos(F.obj(x), G.obj(x)):
            if consistent(assign, x, cell):
                assign[x] = cell
                if search(k + 1, assign):
                    return True
                del assign[x]
        return False

    return search(0, {})


def binary_products(cat: FinCat) -> dict:
    """All pairs (a, b) -> (p, proj_a, proj_b) admitting a product."""
    out = {}
    for a, b in itertools.product(cat.objects, repeat=2):
        for p in cat.objects:
            for pa in cat.hom(p, a):
                for pb in cat.hom(p, b):
                    if _is_product(cat, a, b, p, pa, pb):
                        out[(a, b)] = (p, pa, pb)
                        break
                if (a, b) in out:
                    break
            if (a, b) in out:
                break
    return out


def _is_product(cat, a, b, p, pa, pb):
    for w in cat.objects:
        seen = set()
        for f in cat.hom(w, p):
            pair = (cat.compose(pa, f), cat.compose(pb, f))
            if pair in seen:
                return False
            seen.add(pair)
        if len(seen) != len(cat.hom(w, a)) * len(cat.hom(w, b)):
            return False
    return True


def preserves_binary_products(F: CatFunctor) -> Verdict:
    prods = binary_products(F.src)
    for (a, b), (p, pa, pb) in prods.items():
        if not _is_product(
            F.dst, F.obj(a), F.obj(b), F.obj(p), F.mor(pa), F.mor(pb)
        ):
            return Verdict(False, "product not preserved", (a, b))
    return Verdict(True)
