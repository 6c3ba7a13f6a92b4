"""Pinned stdout and exit codes of `profspan` reports.

Each case runs the CLI in-process and compares against
`tests/golden/<name>.txt`, whose first line is `exit <code>` and whose
remaining lines are the exact stdout, followed by a `stderr:` line and
the exact stderr when the run wrote any (the input errors).  A change that must not alter any
report (a speed-up, a refactor) leaves every file matching byte for byte.

The file verbs read group, G-set and Burnside Mackey files of corpus
groups, written to a temporary directory first.  No report embeds the
path of that directory; an error line that names an input file names it
as `{dir}/<file>`.

Regenerate the files, only when a report is meant to change, with

    PYTHONPATH=src python tests/test_cli_golden.py [NAME...]

which rewrites the named goldens, or every golden when no name is given.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from profspan import formats as fm
from profspan import gsets as gs
from profspan import mackey as mk
from profspan.cli import main
from profspan.corpus import corpus_group

GOLDEN = Path(__file__).parent / "golden"

TOWER_GRID = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]

CASES = {
    f"colim-gset-{p}-{d}-cap{cap}": [
        "--tower", f"{p},{d}", "--cap", str(cap), "verify", "colim-gset"
    ]
    for p, d in TOWER_GRID
    for cap in (3, 4)
}
CASES.update({
    "colim-gset-3-2-cap5": ["--tower", "3,2", "--cap", "5", "verify", "colim-gset"],
    "colim-gset-2-3-cap5": ["--tower", "2,3", "--cap", "5", "verify", "colim-gset"],
    "colim-gset-2-3-cap6": ["--tower", "2,3", "--cap", "6", "verify", "colim-gset"],
    "colim-gset-2-3-cap7": ["--tower", "2,3", "--cap", "7", "verify", "colim-gset"],
    "colim-gset-2-10-cap16": [
        "--tower", "2,10", "--cap", "16", "verify", "colim-gset"
    ],
    "adjunction-cap4": ["--cap", "4", "verify", "adjunction"],
    "adjunction-cap5": ["--cap", "5", "verify", "adjunction"],
    "adjunction-cap6": ["--cap", "6", "verify", "adjunction"],
    "adjunction-cap7": ["--cap", "7", "verify", "adjunction"],
    "adjunction-cap16": ["--cap", "16", "verify", "adjunction"],
    "funcat-seed0": ["--seed", "0", "verify", "funcat"],
    "funcat-seed3": ["--seed", "3", "verify", "funcat"],
    "mackey-limit-2-2": ["--tower", "2,2", "verify", "mackey-limit"],
    "mackey-limit-2-3": ["--tower", "2,3", "verify", "mackey-limit"],
    "mackey-limit-3-2": ["--tower", "3,2", "verify", "mackey-limit"],
    "mackey-limit-2-4": ["--tower", "2,4", "verify", "mackey-limit"],
    "mackey-limit-5-2": ["--tower", "5,2", "verify", "mackey-limit"],
    "colim-span-2-2-cap3": ["--tower", "2,2", "--cap", "3", "verify", "colim-span"],
    "colim-span-3-2-cap3": ["--tower", "3,2", "--cap", "3", "verify", "colim-span"],
    "colim-span-5-2-cap3": ["--tower", "5,2", "--cap", "3", "verify", "colim-span"],
    "colim-span-2-2-cap3-seed7": [
        "--tower", "2,2", "--cap", "3", "--seed", "7", "verify", "colim-span"
    ],
    "limit-span-2-2-cap3": ["--tower", "2,2", "--cap", "3", "verify", "limit-span"],
    "limit-span-3-2-cap3": ["--tower", "3,2", "--cap", "3", "verify", "limit-span"],
    "limit-span-5-2-cap3": ["--tower", "5,2", "--cap", "3", "verify", "limit-span"],
    "limit-span-2-5": ["--tower", "2,5", "verify", "limit-span"],
    "limit-span-3-3": ["--tower", "3,3", "verify", "limit-span"],
    "colim-span-2-5": ["--tower", "2,5", "verify", "colim-span"],
    "mackey-limit-3-3": ["--tower", "3,3", "verify", "mackey-limit"],
    "mackey-limit-2-5": ["--tower", "2,5", "verify", "mackey-limit"],
    "mackey-limit-3-4": ["--tower", "3,4", "verify", "mackey-limit"],
    "limit-span-3-4": ["--tower", "3,4", "verify", "limit-span"],
    "colim-span-5-3": ["--tower", "5,3", "verify", "colim-span"],
    "mackey-limit-5-3": ["--tower", "5,3", "verify", "mackey-limit"],
    # the span and Mackey reports at depth 8, C128 at the top (about 1 s
    # for the three in process)
    "colim-span-2-8": ["--tower", "2,8", "verify", "colim-span"],
    "limit-span-2-8": ["--tower", "2,8", "verify", "limit-span"],
    "mackey-limit-2-8": ["--tower", "2,8", "verify", "mackey-limit"],
    "verify-all-cap4": ["--cap", "4", "verify", "all"],
    "verify-all-default": ["verify", "all"],
    "mackey-fixed-D4": ["mackey-fixed", "{dir}/D4.mackey", "0,5"],
    "mackey-fixed-C2xC2xC2": ["mackey-fixed", "{dir}/C2xC2xC2.mackey", "0,1"],
    "mackey-fixed-S3": ["mackey-fixed", "{dir}/S3.mackey", "0,3,4"],
    "mackey-fixed-C4": ["mackey-fixed", "{dir}/C4.mackey", "0,2"],
    "mackey-fixed-D6": ["mackey-fixed", "{dir}/D6.mackey", "0,7"],
    "mackey-fixed-Dic3": ["mackey-fixed", "{dir}/Dic3.mackey", "0,6"],
    "mackey-fixed-A4": ["mackey-fixed", "{dir}/A4.mackey", "0,3,8,11"],
    "mackey-check-C4": ["mackey-check", "{dir}/C4.mackey"],
    "mackey-check-D4": ["mackey-check", "{dir}/D4.mackey"],
    "mackey-check-C2xC2xC2": ["mackey-check", "{dir}/C2xC2xC2.mackey"],
    "mackey-check-C4-signed-key": ["mackey-check", "{dir}/C4-signed-key.mackey"],
    "mackey-check-S3-bad": ["mackey-check", "{dir}/S3-bad.mackey"],
    "mackey-check-D4-bad": ["mackey-check", "{dir}/D4-bad.mackey"],
    "span-hom-S3": ["span-hom", "{dir}/S3-x.gset", "{dir}/S3-y.gset"],
    "span-hom-D4": ["span-hom", "{dir}/D4-x.gset", "{dir}/D4-y.gset"],
})
# Input errors: exit 2, nothing on stdout, one `error:` line on stderr.
CASES.update({
    "error-verify-all-depth-1": ["--tower", "2,1", "verify", "all"],
    "error-verify-all-cap3": ["--cap", "3", "verify", "all"],
    "error-colim-gset-tower-4-2": ["--tower", "4,2", "verify", "colim-gset"],
    "error-mackey-limit-tower-x-y": ["--tower", "x,y", "verify", "mackey-limit"],
    "error-adjunction-tower-4-2": ["--tower", "4,2", "verify", "adjunction"],
    "error-group-show-not-a-group": ["group-show", "{dir}/not-a-group.grp"],
    "error-mackey-fixed-S3-not-normal": ["mackey-fixed", "{dir}/S3.mackey", "0,1"],
    "error-mackey-fixed-group-file-empty": [
        "mackey-fixed", "{dir}/C4.mackey", "0,2", "--group-file", ""
    ],
    "error-span-hom-short-row": [
        "span-hom", "{dir}/S3-x-short-row.gset", "{dir}/S3-y.gset"
    ],
    "error-span-hom-different-groups": [
        "span-hom", "{dir}/S3-x.gset", "{dir}/D4-x.gset"
    ],
})
CASES.update({
    f"{verb}-{name}": [verb, f"{{dir}}/{name}.grp"]
    for verb in ("group-show", "subgroups", "tom", "burnside")
    for name in ("S3", "D4")
})
CASES["tom-C2xC2xC2"] = ["tom", "{dir}/C2xC2xC2.grp"]

MACKEY_FILES = ("D4", "C2xC2xC2", "C4", "S3", "D6", "Dic3", "A4")

# Burnside files with entry (0, 0) of one generator matrix raised by 1.
# Each key is the span G/H <- G/1 -> G/H, H the reflection class 1, with
# both legs the projection: its apex is at neither end, so the composition
# law first fails on a pair with the key as the second factor, in the
# exhaustive order, but on a pair whose composite is the key, among pairs
# of keys with an apex at an end.
BAD_MACKEY = {
    "S3-bad": ("S3", (1, 1, (0, (0, 0, 1, 1, 2, 2), (0, 0, 1, 1, 2, 2)))),
    "D4-bad": (
        "D4", (1, 1, (0, (0, 0, 1, 1, 2, 2, 3, 3), (0, 0, 1, 1, 2, 2, 3, 3)))
    ),
}

# G-sets by group and orbit classes.  S3 (class orders 1, 2, 3, 6):
# S3/C2 + S3/S3 and S3/C3 + S3/C2.  D4 (see subgroups-D4): the orbits of
# the non-normal reflection class 1 and of the Klein four-group class 4,
# and those of the other reflection class 2 and of the centre, class 3.
GSETS = {
    "S3-x": ("S3", (1, 3)),
    "S3-y": ("S3", (1, 2)),
    "D4-x": ("D4", (1, 4)),
    "D4-y": ("D4", (2, 3)),
}

# A Latin square with identity 0 in which every element is its own
# inverse: a loop of order 5 that is not a group, since the group of
# order 5 is cyclic.
NOT_A_GROUP = "group 5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n"


def write_input_files(directory: Path) -> None:
    """`<name>.grp` and the Burnside functor `<name>.mackey` per group of
    MACKEY_FILES, the corrupted Burnside files of BAD_MACKEY, the G-sets
    of GSETS, `not-a-group.grp` (NOT_A_GROUP), `S3-x-short-row.gset`,
    S3-x with the last entry of its first action row dropped, and
    `C4-signed-key.mackey`, the C4 file with its first key token written
    with a leading `+`, which is no key table token."""
    for name in MACKEY_FILES:
        G = corpus_group(name)
        (directory / f"{name}.grp").write_text(fm.serialize_group(G))
        (directory / f"{name}.mackey").write_text(
            fm.serialize_mackey(mk.burnside_mackey(G), f"{name}.grp")
        )
    for name, (group, key) in BAD_MACKEY.items():
        M = mk.burnside_mackey(corpus_group(group))
        action = dict(M.gen_action)
        (first, *rest), *rows = action[key]
        action[key] = ((first + 1, *rest), *rows)
        bad = mk.MackeyFunctor(M.group, M.levels, action)
        (directory / f"{name}.mackey").write_text(
            fm.serialize_mackey(bad, f"{group}.grp")
        )
    for name, (group, classes) in GSETS.items():
        X = gs.canonical_gset(corpus_group(group), classes)
        (directory / f"{name}.gset").write_text(
            fm.serialize_gset(X, f"{group}.grp")
        )
    (directory / "not-a-group.grp").write_text(NOT_A_GROUP)
    header, row, *rows = (directory / "S3-x.gset").read_text().splitlines()
    short = [header, row.rsplit(" ", 1)[0], *rows]
    (directory / "S3-x-short-row.gset").write_text("\n".join(short) + "\n")
    signed = (directory / "C4.mackey").read_text().replace("\ngen ", "\ngen +", 1)
    (directory / "C4-signed-key.mackey").write_text(signed)


def run(argv, directory: Path) -> str:
    """`exit <code>` followed by the stdout of `profspan <argv>`, and by
    `stderr:` and the stderr when there is any, with `{dir}` in argv
    standing for the directory of the input files, and in stderr for
    that directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(dir=directory) for a in argv])
    text = f"exit {code}\n{out.getvalue()}"
    if err.getvalue():
        text += f"stderr:\n{err.getvalue().replace(str(directory), '{dir}')}"
    return text


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    write_input_files(directory)
    return directory


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, input_dir):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run(CASES[name], input_dir) == expected


def _flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


@pytest.mark.parametrize(
    "name", sorted(name for name, argv in CASES.items() if "verify" in argv)
)
def test_verify_tower_headers_name_the_requested_tower_and_cap(name):
    """Every `tower:` line of a verify golden names the p, depth, size cap
    and seed of its argv, so no check can run at another tower or cap
    than the flags ask for without its golden saying so."""
    argv = CASES[name]
    p, depth = _flag(argv, "--tower", "2,3").split(",")
    head = f"tower: cyclic p={p} depth={depth}"
    capped = f"{head}, size cap {_flag(argv, '--cap', '6')}"
    allowed = {head, capped, f"{capped}, seed {_flag(argv, '--seed', '0')}"}
    lines = (GOLDEN / f"{name}.txt").read_text().splitlines()
    headers = [line for line in lines if line.startswith("tower:")]
    assert set(headers) <= allowed


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.txt")} <= set(CASES)


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"no golden case named {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_input_files(Path(tmp))
        for name in names:
            (GOLDEN / f"{name}.txt").write_text(run(CASES[name], Path(tmp)))
            print(f"wrote {name}", file=sys.stderr)
