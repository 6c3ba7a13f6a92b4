"""Seeded input generation, run in the benchmark's parent process before the
measured child starts, so that nothing here warms the child's caches.

A workload is a list of passes; a pass is a list of ops with the same
composition on every seed.  The seed sets op order, relabellings, G-set
shapes and sampled-check seeds.  Each op is a JSON object for the child
plus, kept in the parent, the independent answer it is checked against.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle

# Seconds one pass of each workload took when the benchmark was added, on
# a shared 2-vCPU Xeon virtual machine.  A run makes round(seconds /
# PASS_S) passes, so the work in a run is set by --seconds alone and is
# the same on every commit.
PASS_S = {"towers": 4.3, "corpus_mackey": 2.9, "file_requests": 2.5}

TOWER_GRID = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]

# corpus_mackey leaves out the groups whose cold op takes 1.1 to 9 s
# (C2xC2xC2, C6xC2, D6, C12, Dic3, D4, A4) so that a pass stays near 3 s;
# C4xC2 (1.1 s) stays as the one op of that cost.
CORPUS_MACKEY_GROUPS = (
    "C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3", "C7", "C8",
    "C4xC2", "Q8", "C9", "C3xC3", "C10", "D5", "C11",
)

GSETS_PER_GROUP = 4
SPAN_HOMS_PER_GROUP = 3
GSET_MAX_SIZE = 10


def relabel(mult, rng: random.Random):
    """The same group with its non-identity elements permuted."""
    n = len(mult)
    rest = list(range(1, n))
    rng.shuffle(rest)
    new = [0] + rest
    old = [0] * n
    for o, v in enumerate(new):
        old[v] = o
    return tuple(tuple(new[mult[old[a]][old[b]]] for b in range(n)) for a in range(n))


def fresh_relabel(mult, rng: random.Random, used: set, tries: int = 64):
    """A relabelling whose table is not in `used`, so that the op misses the
    group-keyed caches.  Small groups have few distinct relabelled tables
    (C2xC2 has one); once they are used up the op repeats one of them, in
    the same passes on every seed."""
    for _ in range(tries):
        table = relabel(mult, rng)
        if table not in used:
            break
    used.add(table)
    return table


def _tower_pass(rng: random.Random) -> list[dict]:
    """One pass over the grid.  The sampled checks get a fresh --seed each
    pass."""
    argvs = [["--tower", f"{p},{d}", "--cap", str(cap), "verify", "colim-gset"]
             for p, d in TOWER_GRID for cap in (3, 4)]
    argvs.append(["--cap", "4", "verify", "adjunction"])
    for p in (2, 3):
        argvs.append(["--tower", f"{p},2", "--cap", "3", "verify", "limit-span"])
        argvs.append(["--tower", f"{p},2", "--cap", "3", "--seed", str(rng.randrange(1000)),
                      "verify", "colim-span"])
    for p, d in ((2, 2), (2, 3), (3, 2)):
        argvs.append(["--tower", f"{p},{d}", "verify", "mackey-limit"])
    argvs.append(["--seed", str(rng.randrange(1000)), "verify", "funcat"])
    rng.shuffle(argvs)
    return [{"kind": "cli", "argv": argv} for argv in argvs]


def towers(seed: int, passes: int, workdir: Path):
    rng = random.Random(seed)
    plan = [_tower_pass(rng) for _ in range(passes)]
    checks = {}
    for ops in plan:
        for op in ops:
            argv = op["argv"]
            checks[_key(op)] = lambda out, rc, argv=argv: (
                "exit code" if rc != 0 else oracle.check_verify(out, argv)
            )
    return plan, checks


def corpus_mackey(seed: int, passes: int, workdir: Path):
    from profspan.corpus import corpus_group

    rng = random.Random(seed)
    base = {name: corpus_group(name).mult for name in CORPUS_MACKEY_GROUPS}
    invariant = {}
    for name, mult in base.items():
        reps = oracle.class_reps_in_library_order(corpus_group(name))
        ranks, _ = oracle.mackey_shape(mult, reps)
        invariant[name] = sorted(zip((len(r) for r in reps), ranks))
    plan, checks, used = [], {}, set()
    for p in range(passes):
        names = list(CORPUS_MACKEY_GROUPS)
        rng.shuffle(names)
        ops = []
        for name in names:
            table = fresh_relabel(base[name], rng, used)
            op = {"kind": "mackey", "name": f"{name}#{p}", "table": table}
            ops.append(op)
            checks[_key(op)] = _corpus_check(op["table"], invariant[name])
        plan.append(ops)
    return plan, checks


def _corpus_check(mult, invariant):
    def check(result, rc):
        from profspan import groups

        if not result["ok"]:
            return "check_mackey did not PASS"
        reps = oracle.class_reps_in_library_order(groups.FiniteGroup(mult))
        ranks, gens = oracle.mackey_shape(mult, reps)
        if result["ranks"] != ranks or result["torsion"]:
            return "Burnside level ranks differ from oracle"
        if result["gens"] != gens:
            return "generator count differs from oracle"
        if sorted(zip(result["class_orders"], result["ranks"])) != invariant:
            return "(class order, rank) multiset changed under relabelling"
        return oracle.check_marks(
            result["class_orders"], result["marks"], mult, reps
        ) or oracle.check_ring(result["ring"], result["marks"])

    return check


def _random_gset(G, rng: random.Random):
    """A G-set of size <= GSET_MAX_SIZE with seeded orbit types and point
    numbering; returns the action table and the orbit stabilizers."""
    from profspan import groups, gsets

    lat = groups.subgroup_lattice(G)
    sizes = [G.order // lat.class_rep(c).order for c in range(lat.num_classes)]
    budget = rng.randint(1, GSET_MAX_SIZE)
    classes = []
    while True:
        fits = [c for c in range(lat.num_classes) if sizes[c] <= budget]
        if not fits or (classes and rng.random() < 0.3):
            break
        c = rng.choice(fits)
        classes.append(c)
        budget -= sizes[c]
    X = gsets.canonical_gset(G, sorted(classes))
    perm = list(range(X.size))
    rng.shuffle(perm)
    action = [None] * X.size
    for x in range(X.size):
        action[perm[x]] = [perm[y] for y in X.action[x]]
    stabs = [lat.class_rep(c).elements for c in sorted(classes)]
    return action, stabs


def file_requests(seed: int, passes: int, workdir: Path):
    from profspan import formats, groups, mackey
    from profspan.corpus import corpus_groups

    rng = random.Random(seed)
    pool, checks = [], {}

    def add(argv, check):
        op = {"kind": "cli", "argv": argv}
        pool.append(op)
        checks[_key(op)] = lambda out, rc: "exit code" if rc != 0 else check(out)

    for idx, (name, base) in enumerate(corpus_groups()):
        mult = relabel(base.mult, rng)
        G = groups.FiniteGroup(mult)
        gfile = f"g{idx:02d}.grp"
        (workdir / gfile).write_text(formats.serialize_group(G))
        reps = oracle.class_reps_in_library_order(G)
        add(["group-show", gfile], lambda out, m=mult: oracle.check_group_show(out, m))
        add(["subgroups", gfile], lambda out, m=mult: oracle.check_subgroups(out, m))
        add(["tom", gfile], lambda out, m=mult, r=reps: oracle.check_tom(out, m, r))
        add(["burnside", gfile], lambda out, m=mult, r=reps: oracle.check_burnside(out, m, r))

        gsets = []
        for k in range(GSETS_PER_GROUP):
            action, stabs = _random_gset(G, rng)
            xfile = f"g{idx:02d}_{k}.gset"
            lines = [f"gset {gfile} {len(action)}"] + [" ".join(map(str, row)) for row in action]
            (workdir / xfile).write_text("\n".join(lines) + "\n")
            gsets.append((xfile, stabs))
        for _ in range(SPAN_HOMS_PER_GROUP):
            (xf, xs), (yf, ys) = rng.choice(gsets), rng.choice(gsets)
            want = oracle.span_hom_rank(mult, xs, ys)
            add(["span-hom", xf, yf], lambda out, w=want: oracle.check_span_hom(out, w))

        if G.order <= 8:
            mfile = f"g{idx:02d}.mackey"
            M = mackey.burnside_mackey(G)
            (workdir / mfile).write_text(formats.serialize_mackey(M, gfile))
            if G.order <= 6:
                ranks, gens = oracle.mackey_shape(mult, reps)
                add(["mackey-check", mfile],
                    lambda out, n=len(ranks), k=gens: oracle.check_mackey_check(out, n, k))
            for cls in oracle.conjugacy_classes(mult):
                if len(cls) != 1:
                    continue
                N = sorted(cls[0])
                ranks, gens = oracle.fixed_point_shape(mult, N)
                add(["mackey-fixed", mfile, ",".join(map(str, N))],
                    lambda out, r=ranks, k=gens: oracle.check_mackey_fixed(out, r, k))

    plan = []
    for _ in range(passes):
        ops = list(pool)
        rng.shuffle(ops)
        plan.append(ops)
    return plan, checks


WORKLOADS = {"towers": towers, "corpus_mackey": corpus_mackey, "file_requests": file_requests}


def _key(op: dict) -> str:
    return json.dumps(op["argv"]) if op["kind"] == "cli" else op["name"]


def passes_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / PASS_S[workload]))


def generate(workload: str, seed: int, passes: int, workdir: Path):
    """Write the op plan (and any input files) into workdir; return the
    per-op checks, keyed by op key, for the parent to apply afterwards."""
    plan, checks = WORKLOADS[workload](seed, passes, workdir)
    for ops in plan:
        for op in ops:
            op["key"] = _key(op)
    (workdir / "ops.json").write_text(json.dumps({"workload": workload, "plan": plan}))
    return plan, checks
