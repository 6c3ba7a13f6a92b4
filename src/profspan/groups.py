"""Finite groups as multiplication tables, subgroup lattices, quotients
and chain-shaped quotient towers.

Elements are indices 0..order-1 with 0 the identity; input tables with the
identity elsewhere are relabelled on ingestion.  quotient_map builds every
quotient map, checking it, and make_tower checks every link of a tower.
A tower is read link by link: class_preimages gives, per link, the
preimage of each subgroup class, which is all that inflating an orbit
along it needs, so no composite projection is built.
subgroup_lattice finds the subgroups by cyclic extension; the exhaustive
search it replaced is a test oracle.  Groups, lattices, quotient maps and
towers, like gsets.GSet, are frozen values on one base, Value.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import NotAGroup, NotNormal, NotPrime


class Value:
    """Frozen value base of the groups, lattices, quotient maps, towers
    and G-sets that key the package's caches.  A subclass names its
    fields in _fields; __init__ takes them by position or keyword,
    writes them to __dict__ once and keeps their tuple, which equality
    compares and whose hash is computed on first use and kept."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:  # a missing field raises KeyError naming it
            args += tuple(kwargs.pop(f) for f in names[len(args):])
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        self.__dict__.update(zip(names, args), _key=args)

    def __eq__(self, other):
        return self is other or (
            other.__class__ is self.__class__ and self._key == other._key
        )

    def __hash__(self):
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash(self._key)
            return h

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__


class FiniteGroup(Value):
    _fields = ("mult",)

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

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def generating_set(rows) -> tuple[int, ...]:
    """Generators of a table with identity 0, picked greedily: each new
    one is the least element not yet reached from the identity by right
    multiplication by those before it.  Every element is reached, and in a
    group the elements reached are the subgroup generated."""
    n = len(rows)
    reached = {0}
    gens: list[int] = []
    while len(reached) < n:
        gens.append(next(x for x in range(n) if x not in reached))
        frontier = list(reached)
        while frontier:
            row = rows[frontier.pop()]
            for s in gens:
                if row[s] not in reached:
                    reached.add(row[s])
                    frontier.append(row[s])
    return tuple(gens)


def _associative(rows) -> bool:
    """Light's test on a table with identity 0: whether (ab)c = a(bc) for
    all a, b, c, tested for every a and b but only for c in a set S.

    The c that pass are closed under products: if c and d pass, then
    (ab)(cd) = ((ab)c)d = (a(bc))d = a((bc)d) = a(b(cd)).  The identity
    passes.  S is generating_set(rows), so every element is a product
    of passing elements and passes.  The cost is n²·|S| lookups instead
    of n³."""
    for c in generating_set(rows):
        col = [row[c] for row in rows]  # x·c for each x
        for row in rows:
            # (ab)c and a(bc), for a the row's element and every b
            if list(map(col.__getitem__, row)) != list(map(row.__getitem__, col)):
                return False
    return True


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
    if not _associative(rows):
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


class Subgroup(NamedTuple):
    parent: FiniteGroup
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def conjugate(self, g: int) -> "Subgroup":
        mult, g_inv = self.parent.mult, self.parent.inv(g)
        row = mult[g]
        conj = (mult[row[h]][g_inv] for h in self.elements)
        return Subgroup(self.parent, tuple(sorted(conj)))

    def normality_witness(self):
        """A (g, h) pair with g h g^-1 outside the subgroup, or None."""
        G = self.parent
        mine = set(self.elements)
        for g in G.elements():
            for h in self.elements:
                if G.conj(g, h) not in mine:
                    return (g, h)
        return None


def make_subgroup(G: FiniteGroup, elements) -> Subgroup:
    elems = tuple(sorted(set(elements)))
    if elems and not (0 <= elems[0] and elems[-1] < G.order):
        raise ValueError(f"{elems} has an element outside 0..{G.order - 1}")
    # a finite set with the identity, closed under products, is a subgroup
    inside = set(elems)
    if 0 not in inside or any(G.mult[a][b] not in inside for a in elems for b in elems):
        raise ValueError(f"{elems} is not closed under the group operations")
    return Subgroup(G, elems)


def left_cosets(G: FiniteGroup, H) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The left cosets gH of the subgroup with elements H, numbered by
    their least elements: (coset_of, reps) with coset_of[g] the number of
    gH and reps[i] the least element of coset i, so reps is increasing and
    reps[0] = 0.  Every coset numbering of the package is this one."""
    coset_of = [-1] * G.order
    reps: list[int] = []
    for g, row in enumerate(G.mult):
        if coset_of[g] < 0:
            for h in H:
                coset_of[row[h]] = len(reps)
            reps.append(g)
    return tuple(coset_of), tuple(reps)


class SubgroupLattice(Value):
    """The subgroups of a group with their normality flags; classes lists
    the subgroups of each conjugacy class, classes sorted by the order of
    their representatives (class 0 is the trivial subgroup, the last is
    G), and conjugators[i] is a t with t·H·t⁻¹ the class rep of H =
    subgroups[i]; built by subgroup_lattice."""

    _fields = ("group", "subgroups", "normal", "classes", "conjugators")

    @cached_property
    def where(self) -> dict[tuple[int, ...], tuple[int, int]]:
        """(class, conjugator) of every subgroup, by its sorted elements."""
        return {
            self.subgroups[i].elements: (c, self.conjugators[i])
            for c, members in enumerate(self.classes)
            for i in members
        }

    def class_of(self, elements) -> int:
        return self.where[tuple(sorted(elements))][0]

    def class_rep(self, c: int) -> Subgroup:
        return self.subgroups[self.classes[c][0]]

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def _cyclic_generators(G: FiniteGroup) -> list[int]:
    """The least generator of each nontrivial cyclic subgroup of G."""
    mult = G.mult
    covered = [False] * G.order  # x generates a cyclic subgroup listed
    gens = []
    for g in range(1, G.order):
        if not covered[g]:
            gens.append(g)
            powers = [g]  # g^1, g^2, ..., g^n = 0
            while powers[-1]:
                powers.append(mult[powers[-1]][g])
            for k, x in enumerate(powers, 1):
                if math.gcd(k, len(powers)) == 1:
                    covered[x] = True
    return gens


def _join(G: FiniteGroup, H: tuple[int, ...], gens) -> tuple[int, ...]:
    """The subgroup generated by gens, some of which generate the subgroup
    with elements H: the union of the right cosets H·r reached from H by
    multiplying a coset representative on the right by a generator."""
    mult = G.mult
    elems = set(H)
    reps = [0]
    for r in reps:
        row = mult[r]
        for s in gens:
            y = row[s]
            if y not in elems:
                elems.update(mult[h][y] for h in H)
                reps.append(y)
    return tuple(sorted(elems))


@lru_cache(maxsize=None)
def subgroup_lattice(G: FiniteGroup) -> SubgroupLattice:
    """All subgroups of G, normality flags, conjugacy classes, and for
    each subgroup H a t with t·H·t⁻¹ = R, for R its class representative.

    The subgroups are found by cyclic extension (Neubüser 1960).  Every
    subgroup is generated by the cyclic subgroups it contains, so
    extending each subgroup found, kept with its generators, by one
    generator of each cyclic subgroup outside it reaches every
    subgroup.  Each class is closed under conjugation by the generators,
    breadth first from R: H = g·R·g⁻¹ gives s·H·s⁻¹ = (sg)·R·(sg)⁻¹.  C1024
    takes 11 ms (Python 3.11.7), 0.64 s when R was conjugated by every g.
    """
    found = {(0,): ()}  # the elements of each subgroup -> its generators
    queue = [(0,)]
    cyclic = _cyclic_generators(G)
    while queue:
        H = queue.pop()
        inside = set(H)
        for z in cyclic:
            if z in inside:
                continue
            gens = found[H] + (z,)
            K = _join(G, H, gens)
            if K not in found:
                found[K] = gens
                queue.append(K)
    subs = tuple(
        Subgroup(G, elems) for elems in sorted(found, key=lambda e: (len(e), e))
    )
    index = {H.elements: i for i, H in enumerate(subs)}
    gens = generating_set(G.mult)
    conjugators: dict[int, int] = {}
    classes = []
    normal = [False] * len(subs)
    for i, R in enumerate(subs):
        if i in conjugators:
            continue
        reached = {i: 0}  # j -> a g with g·R·g⁻¹ = subs[j], breadth first
        queue = [(R, 0)]
        for H, t in queue:
            for s in gens:
                j = index[H.conjugate(s).elements]
                if j not in reached:
                    reached[j] = G.mult[s][t]
                    queue.append((subs[j], reached[j]))
        conjugators.update((j, G.inv(t)) for j, t in reached.items())
        normal[i] = len(reached) == 1
        classes.append(tuple(sorted(reached)))
    classes.sort(key=lambda c: (subs[c[0]].order, subs[c[0]].elements))
    conj = tuple(conjugators[i] for i in range(len(subs)))
    return SubgroupLattice(G, subs, tuple(normal), tuple(classes), conj)


class QuotientMap(Value):
    """A surjective homomorphism and its kernel; built by quotient_map."""

    _fields = ("source", "kernel", "target", "projection")

    def section(self, c: int) -> int:
        """Smallest source element projecting to c."""
        return self.projection.index(c)


def quotient_map(source: FiniteGroup, target: FiniteGroup, projection) -> QuotientMap:
    """The quotient map sending a to projection[a], with the preimage of 0
    as kernel.  Raises ValueError unless it is onto the target (in a tower,
    the previous stage) and a homomorphism, that is p(as) = p(a)p(s) for
    all a and all s of a generating set (by induction on word length)."""
    projection = tuple(projection)
    if len(projection) != source.order or set(projection) != set(target.elements()):
        raise ValueError("projection is not onto the previous stage")
    mult, tmult = source.mult, target.mult
    for s in generating_set(source.mult):
        ps = projection[s]
        for a, pa in enumerate(projection):
            if projection[mult[a][s]] != tmult[pa][ps]:
                raise ValueError("projection is not a homomorphism")
    kernel = Subgroup(source, tuple(g for g in source.elements() if projection[g] == 0))
    return QuotientMap(source, kernel, target, projection)


@lru_cache(maxsize=None)
def quotient(G: FiniteGroup, N: Subgroup) -> QuotientMap:
    """Canonical projection G -> G/N.  Raises NotNormal with a witness.

    Kept per (G, N), so a repeat gets back the same map and target group,
    which the caches keyed by them find by identity.  An error raises
    from inside the kept call, so it is never kept and a repeat raises
    it again."""
    if N.parent is not G and N.parent != G:
        raise ValueError("subgroup belongs to a different group")
    witness = N.normality_witness()
    if witness is not None:
        raise NotNormal(witness)
    # the identity coset N has the least element, 0, so it is element 0
    coset_of, reps = left_cosets(G, N.elements)
    table = tuple(tuple(coset_of[G.mul(a, b)] for b in reps) for a in reps)
    return quotient_map(G, FiniteGroup(table), coset_of)


def class_preimages(q: QuotientMap) -> list[tuple[tuple[int, ...], int]]:
    """The preimage table of q: for each subgroup class c of q.target, the
    sorted elements of q⁻¹(R_c), R_c the class representative, and the
    class of that subgroup of q.source.  Inflating the orbit q.target/R_c
    along q gives the one orbit q.source/q⁻¹(R_c) when q is onto."""
    below = subgroup_lattice(q.target)
    where = subgroup_lattice(q.source).where
    table = []
    for c in range(below.num_classes):
        inside = set(below.class_rep(c).elements)
        pre = tuple(a for a, x in enumerate(q.projection) if x in inside)
        table.append((pre, where[pre][0]))
    return table


class GroupTower(Value):
    """Chain of finite quotients; stages[0] is the coarsest.  links[i]
    projects stages[i+1] onto stages[i]; make_tower checks every link."""

    _fields = ("stages", "links")

    @property
    def depth(self) -> int:
        return len(self.stages)


def make_tower(stages, links) -> GroupTower:
    """The tower with these stages and links.  Raises ValueError, naming
    the link, unless links[i] is the quotient map stages[i+1] -> stages[i]
    that quotient_map derives from its projection."""
    stages = tuple(stages)
    links = tuple(links)
    if len(links) != len(stages) - 1:
        raise ValueError("a tower of depth d needs d-1 links")
    for i, q in enumerate(links):
        try:
            derived = quotient_map(stages[i + 1], stages[i], q.projection)
        except ValueError as exc:
            raise ValueError(f"link {i}: {exc}")
        if derived != q:
            raise ValueError(f"link {i} differs from the quotient map of the stages")
    return GroupTower(stages, links)


@lru_cache(maxsize=None)
def cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order n, built once per n, so that the stages
    of every cyclic_tower and the caches keyed by them meet by identity."""
    return FiniteGroup(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


@lru_cache(maxsize=None)
def cyclic_tower(p: int, depth: int) -> GroupTower:
    """Tower C_p <- C_p^2 <- ... of reduction maps, truncated at `depth`;
    built once per (p, depth), so the caches keyed by its links hit on it."""
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise NotPrime(p)
    if depth < 1:
        raise ValueError("depth must be positive")
    stages = [cyclic(p**i) for i in range(1, depth + 1)]
    links = [
        quotient_map(big, small, [x % small.order for x in big.elements()])
        for small, big in zip(stages, stages[1:])
    ]
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

