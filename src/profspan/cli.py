"""Command-line surface.

Exit codes: 0 computed/verified, 1 a check found a counterexample (the
report contains a FAIL line with a witness), 2 input error.  Reports are
deterministic: the same inputs and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from . import formats as fm
from . import groups as g
from . import mackey as mk
from . import spans as sp
from . import verify as vf
from .errors import GroupMismatch, NotAGroup, NotNormal, NotPrime, ParseError

# Errors that mean the input was bad.  A check that fails (a functor
# that is not left exact, an incoherent family) reports a FAIL line
# instead of raising, so nothing else is caught here.
_INPUT_ERRORS = (ParseError, NotPrime, NotNormal, NotAGroup, GroupMismatch)


# The largest top-stage order p**depth that --tower accepts.  Each stage
# is a full multiplication table, so the top stage alone holds order**2
# entries, and each level of a 2-tower costs four times the one below.
MAX_TOWER_ORDER = 1024

# The largest --cap accepted.  The capped G-sets of a stage are every
# orbit-class multiset of total size at most the cap, a count that grows
# faster than any power of it: C4 has 165 at cap 16 and 286 at cap 20.
# adjunction counts the counit squares of every pair from their marks in
# 0.15 s at cap 16 and 0.5-0.6 s at cap 20 (in process, Python 3.11.7).
MAX_SIZE_CAP = 16


def _parse_tower_flag(value: str) -> g.GroupTower:
    """The cyclic tower of `p,depth`; NotPrime when p is not prime.  A top
    stage of order above MAX_TOWER_ORDER is refused before any table is
    built or p is tested, without computing p**depth in full."""
    try:
        p_str, depth_str = value.split(",")
        p, depth = int(p_str), int(depth_str)
    except ValueError:
        raise ParseError("<args>", 0, "--tower expects `p,depth`")
    if p < 2 or depth < 1:
        raise ParseError("<args>", 0, "--tower needs p >= 2 and depth >= 1")
    order = 1
    for _ in range(depth):
        order *= p
        if order > MAX_TOWER_ORDER:
            top = f"{p}**{depth}" if depth > 1 else f"{p}"
            message = (
                f"--tower {p},{depth} has a top stage of order {top}, "
                f"above the bound {MAX_TOWER_ORDER}"
            )
            raise ParseError("<args>", 0, message)
    return g.cyclic_tower(p, depth)


def _size_cap(value: str) -> int:
    try:
        cap = int(value)
    except ValueError:
        cap = -1
    if cap < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value!r}")
    if cap > MAX_SIZE_CAP:
        raise argparse.ArgumentTypeError(
            f"expected an integer <= {MAX_SIZE_CAP}, got {value!r}"
        )
    return cap


def _matrix_lines(rows) -> list[str]:
    return [" ".join(map(str, row)) for row in rows]


def cmd_group_show(args) -> tuple[str, int]:
    G = fm.load_group(args.file)
    lat = g.subgroup_lattice(G)
    lines = [
        f"group of order {G.order}",
        "abelian: "
        + str(
            all(
                G.mul(a, b) == G.mul(b, a)
                for a in G.elements()
                for b in G.elements()
            )
        ),
        f"subgroup conjugacy classes: {lat.num_classes}",
        "inverses: " + " ".join(str(G.inv(x)) for x in G.elements()),
    ]
    return "\n".join(lines), 0


def cmd_subgroups(args) -> tuple[str, int]:
    G = fm.load_group(args.file)
    lat = g.subgroup_lattice(G)
    lines = [f"subgroups of a group of order {G.order}"]
    for c in range(lat.num_classes):
        rep = lat.class_rep(c)
        normal = lat.normal[lat.classes[c][0]]
        lines.append(
            f"class {c}: order {rep.order}, size {len(lat.classes[c])}, "
            f"normal {normal}, representative {{{' '.join(map(str, rep.elements))}}}"
        )
    return "\n".join(lines), 0


def cmd_tom(args) -> tuple[str, int]:
    G = fm.load_group(args.file)
    t = sp.burnside_tables(G)
    lines = [
        "table of marks (rows: orbits G/K, columns: fixed points of H)",
        "class orders: " + " ".join(map(str, t.class_orders)),
    ] + _matrix_lines(t.marks)
    return "\n".join(lines), 0


def cmd_burnside(args) -> tuple[str, int]:
    G = fm.load_group(args.file)
    t = sp.burnside_tables(G)
    n = len(t.class_orders)
    lines = ["Burnside ring structure constants (basis: endo-spans of the point)"]
    for i in range(n):
        for j in range(n):
            coeffs = " ".join(map(str, t.ring[i][j]))
            lines.append(f"b{i} * b{j} = {coeffs}")
    return "\n".join(lines), 0


def cmd_span_hom(args) -> tuple[str, int]:
    X = fm.load_gset(args.left)
    Y = fm.load_gset(args.right)
    if X.group != Y.group:
        raise ParseError(args.right, 1, "G-sets are over different groups")
    basis = sp.span_basis(X, Y)
    lines = [f"span hom basis: {len(basis)} classes"]
    for apex, legL, legR in basis:
        lines.append(
            f"apex class {apex}, left {' '.join(map(str, legL))}, "
            f"right {' '.join(map(str, legR))}"
        )
    return "\n".join(lines), 0


def cmd_mackey_check(args) -> tuple[str, int]:
    M = fm.load_mackey(args.file)
    verdict = mk.check_mackey(M)
    if verdict:
        verdict.lines.append(
            f"levels: {len(M.levels)}, generators: {len(M.gen_action)}"
        )
    return verdict.render(), 0 if verdict else 1


def cmd_mackey_fixed(args) -> tuple[str, int]:
    if args.group_file.split() != [args.group_file]:  # a header field
        name = repr(args.group_file)
        raise ParseError("<args>", 0, f"--group-file needs a name, got {name}")
    M = fm.load_mackey(args.file)
    try:
        elems = tuple(sorted(int(v) for v in args.kernel.split(",")))
        N = g.make_subgroup(M.group, elems)
    except ValueError as exc:
        raise ParseError("<args>", 0, f"invalid kernel: {exc}")
    fixed = mk.categorical_fixed_points(M, g.quotient(M.group, N))
    return fm.serialize_mackey(fixed, args.group_file).rstrip("\n"), 0


def cmd_verify(args) -> tuple[str, int]:
    tower = _parse_tower_flag(args.tower)
    names = list(vf.CHECKS) if args.check == "all" else [args.check]
    checks = [vf.CHECKS[name] for name in names]
    for check in checks:
        check.require(args.cap, tower)
    reports = [check.run(args.cap, args.seed, tower) for check in checks]
    blocks = [f"[{name}]\n{r.render()}" for name, r in zip(names, reports)]
    code = 0 if all(r.ok for r in reports) else 1
    return "\n\n".join(blocks), code


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main call and reused for
    the rest of the process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="profspan",
        description="exact span-category and Mackey-functor computations",
    )
    parser.add_argument("--cap", type=_size_cap, default=6, help="G-set size cap")
    parser.add_argument(
        "--seed", type=int, default=0, help="seed of the funcat corpora"
    )
    parser.add_argument(
        "--tower", default="2,3", help="cyclic tower parameters `p,depth`"
    )
    subs = parser.add_subparsers(dest="verb")

    subs.add_parser("group-show").add_argument("file")
    subs.add_parser("subgroups").add_argument("file")
    subs.add_parser("tom").add_argument("file")
    subs.add_parser("burnside").add_argument("file")
    span_hom = subs.add_parser("span-hom")
    span_hom.add_argument("left")
    span_hom.add_argument("right")
    subs.add_parser("mackey-check").add_argument("file")
    fixed = subs.add_parser("mackey-fixed")
    fixed.add_argument("file")
    fixed.add_argument("kernel", help="kernel elements, comma separated")
    fixed.add_argument(
        "--group-file", default="quotient.grp", help="group file name to embed"
    )
    subs.add_parser("verify").add_argument(
        "check", nargs="?", default="all", choices=[*vf.CHECKS, "all"]
    )
    return parser


_COMMANDS = {
    "group-show": cmd_group_show,
    "subgroups": cmd_subgroups,
    "tom": cmd_tom,
    "burnside": cmd_burnside,
    "span-hom": cmd_span_hom,
    "mackey-check": cmd_mackey_check,
    "mackey-fixed": cmd_mackey_fixed,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    if args.verb is None:
        parser.print_usage()
        return 2
    try:
        report, code = _COMMANDS[args.verb](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(report, flush=True)
    except BrokenPipeError:
        # the reader closed stdout early; send what is still buffered to
        # devnull so that the flush at interpreter exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
