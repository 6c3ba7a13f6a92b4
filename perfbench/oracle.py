"""Independent answers for the benchmark's correctness checks.

Everything here works from raw multiplication tables with its own subgroup
enumeration and counting formulas; none of it calls the functions whose
output it checks.  Class ordering for the table of marks and the Burnside
levels is taken from the library's subgroup lattice, as the acceptance
suite does, because the reports do not name their subgroups.
"""

from __future__ import annotations

from functools import lru_cache


def inverse_table(mult) -> tuple[int, ...]:
    return tuple(row.index(0) for row in mult)


def closure(mult, gens) -> frozenset:
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mult[x][g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


@lru_cache(maxsize=None)
def subgroups(mult) -> tuple[frozenset, ...]:
    """Every subgroup, grown from cyclic ones by joining one element at a time."""
    n = len(mult)
    found = {closure(mult, (a,)) for a in range(n)}
    frontier = list(found)
    while frontier:
        H = frontier.pop()
        for a in range(n):
            if a not in H:
                K = closure(mult, tuple(H) + (a,))
                if K not in found:
                    found.add(K)
                    frontier.append(K)
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def conjugate(mult, inv, g, H) -> frozenset:
    return frozenset(mult[mult[g][h]][inv[g]] for h in H)


@lru_cache(maxsize=None)
def conjugacy_classes(mult) -> tuple[tuple[frozenset, ...], ...]:
    inv = inverse_table(mult)
    seen: set = set()
    out = []
    for H in subgroups(mult):
        if H in seen:
            continue
        cls = {conjugate(mult, inv, g, H) for g in range(len(mult))}
        seen |= cls
        out.append(tuple(sorted(cls, key=sorted)))
    return tuple(out)


def is_abelian(mult) -> bool:
    n = len(mult)
    return all(mult[a][b] == mult[b][a] for a in range(n) for b in range(n))


def mark(mult, H, K) -> int:
    """Fixed points of H on G/K: |{g : g^-1 H g <= K}| / |K|."""
    inv = inverse_table(mult)
    K = frozenset(K)
    hits = sum(
        1
        for g in range(len(mult))
        if all(mult[mult[inv[g]][h]][g] in K for h in H)
    )
    return hits // len(K)


@lru_cache(maxsize=None)
def span_rank(mult, H, K) -> int:
    """Rank of the span hom-monoid between G/H and G/K: orbits of H x K on
    pairs (a, L) with L a subgroup of H and of aKa^-1, acting by
    (h, k).(a, L) = (h a k^-1, hLh^-1)."""
    inv = inverse_table(mult)
    Hs = frozenset(H)
    items = set()
    for a in range(len(mult)):
        meet = Hs & conjugate(mult, inv, a, K)
        for L in subgroups(mult):
            if L <= meet:
                items.add((a, L))
    count = 0
    while items:
        count += 1
        frontier = [items.pop()]
        while frontier:
            a, L = frontier.pop()
            for h in H:
                hL = conjugate(mult, inv, h, L)
                for k in K:
                    nxt = (mult[mult[h][a]][inv[k]], hL)
                    if nxt in items:
                        items.remove(nxt)
                        frontier.append(nxt)
    return count


def class_reps_in_library_order(G) -> list[tuple[int, ...]]:
    """Class representatives in the order the library's reports use."""
    from profspan import groups

    lat = groups.subgroup_lattice(G)
    return [lat.class_rep(c).elements for c in range(lat.num_classes)]


# ---------------------------------------------------------------- checkers
# Each checker returns None when the output is right and a short reason
# otherwise.


def check_group_show(out: str, mult) -> str | None:
    lines = out.splitlines()
    inv = inverse_table(mult)
    want = [
        f"group of order {len(mult)}",
        f"abelian: {is_abelian(mult)}",
        f"subgroup conjugacy classes: {len(conjugacy_classes(mult))}",
        "inverses: " + " ".join(str(v) for v in inv),
    ]
    return None if lines == want else "group-show report differs from oracle"


def check_subgroups(out: str, mult) -> str | None:
    lines = out.splitlines()
    classes = conjugacy_classes(mult)
    if lines[:1] != [f"subgroups of a group of order {len(mult)}"]:
        return "subgroups header"
    if len(lines) - 1 != len(classes):
        return "subgroup class count"
    class_of = {H: i for i, cls in enumerate(classes) for H in cls}
    hit = set()
    for line in lines[1:]:
        try:
            head, rep = line.split("representative {")
            fields = dict(
                part.strip().split(" ", 1) for part in head.split(":")[1].split(",")
                if part.strip()
            )
            elems = frozenset(int(v) for v in rep.rstrip("}").split())
        except ValueError:
            return "unparsable subgroups line"
        c = class_of.get(elems)
        if c is None or c in hit:
            return "representative is not a new subgroup class"
        hit.add(c)
        normal = len(classes[c]) == 1
        if fields != {
            "order": str(len(elems)),
            "size": str(len(classes[c])),
            "normal": str(normal),
        }:
            return "subgroup class data differs from oracle"
    return None


def marks_oracle(mult, reps) -> list[list[int]]:
    return [[mark(mult, H, K) for H in reps] for K in reps]


def check_marks(class_orders, marks, mult, reps) -> str | None:
    if list(class_orders) != [len(r) for r in reps]:
        return "class orders differ from the lattice"
    if [list(r) for r in marks] != marks_oracle(mult, reps):
        return "table of marks differs from fixed-point count"
    return None


def check_ring(ring, marks) -> str | None:
    """Marks are ring homomorphisms: mark_l(b_i b_j) = mark_l(b_i) mark_l(b_j)."""
    n = len(marks)
    for i in range(n):
        for j in range(n):
            for col in range(n):
                lhs = sum(ring[i][j][k] * marks[k][col] for k in range(n))
                if lhs != marks[i][col] * marks[j][col]:
                    return "Burnside ring constants are not multiplicative on marks"
    return None


def check_tom(out: str, mult, reps) -> str | None:
    lines = out.splitlines()
    if len(lines) != len(reps) + 2 or not lines[1].startswith("class orders: "):
        return "tom report shape"
    orders = [int(v) for v in lines[1].split(":")[1].split()]
    marks = [[int(v) for v in line.split()] for line in lines[2:]]
    return check_marks(orders, marks, mult, reps)


def check_burnside(out: str, mult, reps) -> str | None:
    n = len(reps)
    lines = out.splitlines()
    if len(lines) != n * n + 1:
        return "burnside report shape"
    ring = [[None] * n for _ in range(n)]
    for line in lines[1:]:
        lhs, rhs = line.split(" = ")
        i, j = (int(t.strip()[1:]) for t in lhs.split("*"))
        ring[i][j] = [int(v) for v in rhs.split()]
    return check_ring(ring, marks_oracle(mult, reps))


def span_hom_rank(mult, x_stabs, y_stabs) -> int:
    """Semiadditivity: the rank is the sum over pairs of orbits."""
    return sum(span_rank(mult, H, K) for H in x_stabs for K in y_stabs)


def check_span_hom(out: str, expected: int) -> str | None:
    lines = out.splitlines()
    if lines[:1] != [f"span hom basis: {expected} classes"]:
        return "span hom basis size differs from oracle"
    if len(lines) != expected + 1 or len(set(lines[1:])) != expected:
        return "span hom basis lines"
    return None


def mackey_shape(mult, reps) -> tuple[list[int], int]:
    """Level ranks of the Burnside Mackey functor and its generator count."""
    G = tuple(range(len(mult)))
    ranks = [span_rank(mult, H, G) for H in reps]
    gens = sum(span_rank(mult, H, K) for H in reps for K in reps)
    return ranks, gens


def check_mackey_check(out: str, n_levels: int, n_gens: int) -> str | None:
    want = ["PASS", f"levels: {n_levels}, generators: {n_gens}"]
    return None if out.splitlines() == want else "mackey-check verdict"


def check_mackey_fixed(out: str, ranks: list[int], n_gens: int) -> str | None:
    lines = out.splitlines()
    levels = [line.split() for line in lines if line.startswith("level ")]
    gens = [line for line in lines if line.startswith("gen ")]
    if not lines or lines[0].split()[0] != "mackey":
        return "mackey-fixed header"
    if sorted(int(parts[3]) for parts in levels) != sorted(ranks):
        return "fixed-point level ranks differ from oracle"
    if len(gens) != n_gens:
        return "fixed-point generator count differs from oracle"
    return None


def quotient_table(mult, N) -> tuple[tuple[int, ...], ...]:
    """Multiplication table of G/N on cosets ordered by minimal element."""
    coset_of: dict[int, int] = {}
    reps = []
    for g in range(len(mult)):
        if g in coset_of:
            continue
        for n in N:
            coset_of[mult[g][n]] = len(reps)
        reps.append(g)
    return tuple(tuple(coset_of[mult[a][b]] for b in reps) for a in reps)


def fixed_point_shape(mult, N) -> tuple[list[int], int]:
    """Level ranks and generator count of the categorical fixed points of
    the Burnside functor of G at N: one level per class of subgroups
    containing N, with the Burnside rank of G at that subgroup, and one
    generator per basis span between orbits of G/N."""
    G = tuple(range(len(mult)))
    N = frozenset(N)
    ranks = [
        span_rank(mult, tuple(sorted(cls[0])), G)
        for cls in conjugacy_classes(mult)
        if N <= cls[0]
    ]
    Q = quotient_table(mult, N)
    qreps = [tuple(sorted(cls[0])) for cls in conjugacy_classes(Q)]
    gens = sum(span_rank(Q, H, K) for H in qreps for K in qreps)
    return ranks, gens


def cyclic_gset_classes(p: int, depth: int, cap: int) -> int:
    """Iso classes of C_{p^depth}-sets of size <= cap: multisets of orbit
    sizes p^i (0 <= i <= depth) with total at most cap."""
    sizes = [p**i for i in range(depth + 1)]

    def count(k, budget):
        if k == len(sizes):
            return 1
        return sum(count(k + 1, budget - m * sizes[k]) for m in range(budget // sizes[k] + 1))

    return count(0, cap)


def check_verify(out: str, argv) -> str | None:
    check = argv[-1]
    lines = out.splitlines()
    if lines[:2] != [f"[{check}]", "PASS"]:
        return f"verify {check} did not PASS"
    if check == "colim-gset":
        p, depth = (int(v) for v in argv[argv.index("--tower") + 1].split(","))
        cap = int(argv[argv.index("--cap") + 1])
        want = f"colimit object classes: {cyclic_gset_classes(p, depth, cap)}"
        disc = sum(cyclic_gset_classes(p, d, cap) for d in range(1, depth + 1))
        if want not in lines or f"discrete-model objects: {disc}" not in lines:
            return "colim-gset object counts differ from oracle"
    if check == "adjunction" and not any(line.endswith("(EXPECTED)") for line in lines):
        return "adjunction report lacks the expected counit witness"
    return None
