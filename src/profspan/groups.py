"""Finite groups as multiplication tables, subgroup lattices, quotients
and chain-shaped quotient towers.

Elements are indices 0..order-1 with 0 the identity; input tables with the
identity elsewhere are relabelled on ingestion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import NotAGroup, NotNormal, NotPrime


def memoise_hash(cls):
    """Class decorator for a frozen dataclass: compute the field-wise hash
    on first use and keep it on the instance.

    Groups, G-sets, towers and quotient maps key hom-set, lattice and
    fixed-point caches, and their generated hash re-walks every table on
    every call.
    """
    field_hash = cls.__hash__

    def __hash__(self):
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = field_hash(self)
            return h

    cls.__hash__ = __hash__
    return cls


@memoise_hash
@dataclass(frozen=True)
class FiniteGroup:
    mult: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.mult)

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inv(self, a: int) -> int:
        return self.mult[a].index(0)

    def conj(self, g: int, a: int) -> int:
        return self.mult[self.mult[g][a]][self.inv(g)]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != 0:
            x = self.mult[x][a]
            n += 1
        return n

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def make_group(table) -> FiniteGroup:
    """Validate a multiplication table and return the group it presents.

    Raises NotAGroup naming the violated axiom with a witness.
    """
    n = len(table)
    if n == 0:
        raise NotAGroup("nonempty", None)
    rows = [tuple(row) for row in table]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NotAGroup("square", i)
        for x in row:
            if not (isinstance(x, int) and 0 <= x < n):
                raise NotAGroup("entry-range", (i, x))

    identity = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("identity", None)
    if identity != 0:
        # relabel so the identity sits at index 0
        perm = list(range(n))
        perm[0], perm[identity] = identity, 0
        rows = [
            tuple(perm[rows[perm[a]][perm[b]]] for b in range(n)) for a in range(n)
        ]

    full = set(range(n))
    for a in range(n):
        if set(rows[a]) != full:
            raise NotAGroup("row-permutation", a)
        if {rows[x][a] for x in range(n)} != full:
            raise NotAGroup("column-permutation", a)
    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            for c in range(n):
                if rows[ab][c] != rows[a][rows[b][c]]:
                    raise NotAGroup("associativity", (a, b, c))
    for a in range(n):
        r = rows[a].index(0)
        if rows[r][a] != 0:
            raise NotAGroup("inverse", a)
    return FiniteGroup(tuple(rows))


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def conjugate(self, g: int) -> "Subgroup":
        G = self.parent
        return Subgroup(G, tuple(sorted(G.conj(g, h) for h in self.elements)))

    def normality_witness(self):
        """A (g, h) pair with g h g^-1 outside the subgroup, or None."""
        G = self.parent
        mine = set(self.elements)
        for g in G.elements():
            for h in self.elements:
                if G.conj(g, h) not in mine:
                    return (g, h)
        return None


def closure(G: FiniteGroup, gens) -> tuple[int, ...]:
    """Subgroup elements generated by `gens` (identity always included)."""
    seen = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (G.mul(x, g), G.mul(g, x)):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return tuple(sorted(seen))


def make_subgroup(G: FiniteGroup, elements) -> Subgroup:
    elems = tuple(sorted(set(elements)))
    if closure(G, elems) != elems or 0 not in elems:
        raise ValueError(f"{elems} is not closed under the group operations")
    return Subgroup(G, elems)


@dataclass(frozen=True)
class SubgroupLattice:
    group: FiniteGroup
    subgroups: tuple[Subgroup, ...]
    normal: tuple[bool, ...]
    classes: tuple[tuple[int, ...], ...]

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {H.elements: i for i, H in enumerate(self.subgroups)}

    @cached_property
    def _class(self) -> dict[int, int]:
        return {i: c for c, members in enumerate(self.classes) for i in members}

    def index_of(self, elements) -> int:
        return self._index[tuple(sorted(elements))]

    def class_of(self, elements) -> int:
        return self._class[self.index_of(elements)]

    def class_rep(self, c: int) -> Subgroup:
        return self.subgroups[self.classes[c][0]]

    @property
    def num_classes(self) -> int:
        return len(self.classes)


@lru_cache(maxsize=None)
def subgroup_lattice(G: FiniteGroup) -> SubgroupLattice:
    """All subgroups of G, normality flags, and conjugacy classes.

    Exhaustive closure generation; fine for the desk-scale corpus
    (group order capped at 24).
    """
    found = {closure(G, ())}
    queue = list(found)
    while queue:
        H = queue.pop()
        inside = set(H)
        for g in G.elements():
            if g in inside:
                continue
            K = closure(G, H + (g,))
            if K not in found:
                found.add(K)
                queue.append(K)
    subs = tuple(
        Subgroup(G, elems) for elems in sorted(found, key=lambda e: (len(e), e))
    )
    index = {H.elements: i for i, H in enumerate(subs)}
    seen: set[int] = set()
    classes = []
    normal = [False] * len(subs)
    for i, H in enumerate(subs):
        if i in seen:
            continue
        orbit = {index[H.conjugate(g).elements] for g in G.elements()}
        normal[i] = orbit == {i}
        for j in orbit:
            normal[j] = normal[i]
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (subs[c[0]].order, subs[c[0]].elements))
    return SubgroupLattice(G, subs, tuple(normal), tuple(classes))


@memoise_hash
@dataclass(frozen=True)
class QuotientMap:
    source: FiniteGroup
    kernel: Subgroup
    target: FiniteGroup
    projection: tuple[int, ...]

    def section(self, c: int) -> int:
        """Smallest source element projecting to c."""
        return self.projection.index(c)


def quotient(G: FiniteGroup, N: Subgroup) -> QuotientMap:
    """Canonical projection G -> G/N.  Raises NotNormal with a witness."""
    if N.parent is not G and N.parent != G:
        raise ValueError("subgroup belongs to a different group")
    witness = N.normality_witness()
    if witness is not None:
        raise NotNormal(witness)
    coset_of = {}
    cosets = []
    for g in G.elements():
        if g in coset_of:
            continue
        coset = tuple(sorted(G.mul(g, h) for h in N.elements))
        for x in coset:
            coset_of[x] = len(cosets)
        cosets.append(coset)
    # cosets are discovered in order of their minimal element, so the
    # identity coset is index 0
    reps = [c[0] for c in cosets]
    table = tuple(
        tuple(coset_of[G.mul(a, b)] for b in reps) for a in reps
    )
    projection = tuple(coset_of[g] for g in G.elements())
    return QuotientMap(G, N, FiniteGroup(table), projection)


def compose_quotients(q_outer: QuotientMap, q_inner: QuotientMap) -> QuotientMap:
    """Composite projection: q_inner then q_outer."""
    if q_inner.target != q_outer.source:
        raise ValueError("quotient maps do not compose")
    projection = tuple(q_outer.projection[c] for c in q_inner.projection)
    kernel = make_subgroup(
        q_inner.source,
        tuple(g for g in q_inner.source.elements() if projection[g] == 0),
    )
    return QuotientMap(q_inner.source, kernel, q_outer.target, projection)


@memoise_hash
@dataclass(frozen=True)
class GroupTower:
    """Chain of finite quotients; stages[0] is the coarsest.

    links[i] projects stages[i+1] onto stages[i].
    """

    stages: tuple[FiniteGroup, ...]
    links: tuple[QuotientMap, ...]

    @property
    def depth(self) -> int:
        return len(self.stages)

    def projection(self, src_level: int, dst_level: int) -> QuotientMap:
        """Composite projection from stage src_level down to dst_level,
        built once per (tower, src_level, dst_level)."""
        if not 0 <= dst_level <= src_level < self.depth:
            raise ValueError(f"bad levels {src_level} -> {dst_level}")
        return _tower_projection(self, src_level, dst_level)


@lru_cache(maxsize=None)
def _tower_projection(tower: GroupTower, src_level: int, dst_level: int) -> QuotientMap:
    G = tower.stages[src_level]
    q = QuotientMap(G, make_subgroup(G, (0,)), G, tuple(G.elements()))
    for i in range(src_level - 1, dst_level - 1, -1):
        q = compose_quotients(tower.links[i], q)
    return q


def make_tower(stages, links) -> GroupTower:
    stages = tuple(stages)
    links = tuple(links)
    if len(links) != len(stages) - 1:
        raise ValueError("a tower of depth d needs d-1 links")
    for i, q in enumerate(links):
        if q.source != stages[i + 1] or q.target != stages[i]:
            raise ValueError(f"link {i} endpoints do not match the stages")
    for i in range(1, len(stages)):
        if stages[i].order < stages[i - 1].order:
            raise ValueError("stage orders must be non-decreasing")
    return GroupTower(stages, links)


def cyclic(n: int) -> FiniteGroup:
    return FiniteGroup(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def cyclic_tower(p: int, depth: int) -> GroupTower:
    """Tower C_p <- C_p^2 <- ... of reduction maps, truncated at `depth`."""
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise NotPrime(p)
    if depth < 1:
        raise ValueError("depth must be positive")
    stages = [cyclic(p**i) for i in range(1, depth + 1)]
    links = []
    for i in range(depth - 1):
        big, small = stages[i + 1], stages[i]
        m = small.order
        kernel = make_subgroup(big, tuple(x for x in big.elements() if x % m == 0))
        projection = tuple(x % m for x in big.elements())
        links.append(QuotientMap(big, kernel, small, projection))
    return make_tower(stages, links)


def from_permutations(gens) -> FiniteGroup:
    """Group generated by permutations (tuples); composition (p*q)(i)=p[q[i]]."""
    if not gens:
        raise ValueError("need at least one permutation")
    n = len(gens[0])
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in gens]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(p[g[i]] for i in range(n))
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    ordered = [ident] + sorted(elems - {ident})
    index = {p: i for i, p in enumerate(ordered)}
    table = tuple(
        tuple(index[tuple(a[b[i]] for i in range(n))] for b in ordered)
        for a in ordered
    )
    return FiniteGroup(table)


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    nb = B.order
    order = A.order * nb
    table = tuple(
        tuple(
            A.mul(x // nb, y // nb) * nb + B.mul(x % nb, y % nb)
            for y in range(order)
        )
        for x in range(order)
    )
    return FiniteGroup(table)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n acting on n points (n >= 3)."""
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple((n - i) % n for i in range(n))
    return from_permutations([rot, refl])


def symmetric3() -> FiniteGroup:
    return dihedral(3)


def quaternion8() -> FiniteGroup:
    # regular representation of <i, j>
    # elements 1,-1,i,-i,j,-j,k,-k as indices 0..7
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    sign = lambda s: s.startswith("-")
    base = lambda s: s.lstrip("-")
    basemul = {
        ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
        ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }
    def mul(a, b):
        prod = basemul[(base(a), base(b))]
        neg = sign(a) ^ sign(b) ^ sign(prod)
        return ("-" if neg else "") + base(prod)
    idx = {s: i for i, s in enumerate(names)}
    table = tuple(tuple(idx[mul(a, b)] for b in names) for a in names)
    return make_group(table)


def dicyclic3() -> FiniteGroup:
    # <a, b | a^6 = 1, b^2 = a^3, b a b^-1 = a^-1>, elements a^i b^j
    def norm(i, j):
        return (i % 6) * 2 + (j % 2)
    def mul(x, y):
        i1, j1 = divmod(x, 2)
        i2, j2 = divmod(y, 2)
        # (a^i1 b^j1)(a^i2 b^j2): move b past a^i2 using b a = a^-1 b
        i = i1 + (-i2 if j1 else i2)
        j = j1 + j2
        if j1 and j2:
            i += 3  # b^2 = a^3
        return norm(i, j % 2)
    table = tuple(tuple(mul(x, y) for y in range(12)) for x in range(12))
    return make_group(table)


def alternating4() -> FiniteGroup:
    return from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)])


def generating_set(G: FiniteGroup) -> tuple[int, ...]:
    gens: tuple[int, ...] = ()
    have = closure(G, gens)
    while len(have) < G.order:
        g = next(x for x in G.elements() if x not in have)
        gens = gens + (g,)
        have = closure(G, gens)
    return gens


def find_isomorphism(G: FiniteGroup, H: FiniteGroup):
    """An isomorphism G -> H as an index tuple, or None.

    Backtracking on generator images, pruned by element orders.
    """
    if G.order != H.order:
        return None
    orders_G = [G.element_order(a) for a in G.elements()]
    orders_H = [H.element_order(a) for a in H.elements()]
    if sorted(orders_G) != sorted(orders_H):
        return None
    gens = generating_set(G)

    def extend(images):
        # grow the partial map from the generator images; None on conflict
        mapping = {0: 0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g, h in zip(gens, images):
                y = G.mul(x, g)
                fy = H.mul(mapping[x], h)
                if y in mapping:
                    if mapping[y] != fy:
                        return None
                else:
                    mapping[y] = fy
                    frontier.append(y)
        if len(mapping) != G.order or len(set(mapping.values())) != G.order:
            return None
        for a in G.elements():
            for b in G.elements():
                if mapping[G.mul(a, b)] != H.mul(mapping[a], mapping[b]):
                    return None
        return tuple(mapping[a] for a in G.elements())

    def search(i, images):
        if i == len(gens):
            return extend(images)
        for h in H.elements():
            if orders_H[h] != orders_G[gens[i]]:
                continue
            result = search(i + 1, images + (h,))
            if result is not None:
                return result
        return None

    return search(0, ())


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    return find_isomorphism(G, H) is not None
