"""Pinned stdout and exit codes of `profspan` reports.

Each case runs the CLI in-process and compares against
`tests/golden/<name>.txt`, whose first line is `exit <code>` and whose
remaining lines are the exact stdout.  A change that must not alter any
report (a speed-up, a refactor) leaves every file matching byte for byte.

The file verbs read group, G-set and Burnside Mackey files of corpus
groups, written to a temporary directory first; no report embeds the
path of that directory.

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
    "adjunction-cap4": ["--cap", "4", "verify", "adjunction"],
    "adjunction-cap5": ["--cap", "5", "verify", "adjunction"],
    "adjunction-cap6": ["--cap", "6", "verify", "adjunction"],
    "adjunction-cap7": ["--cap", "7", "verify", "adjunction"],
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
    "verify-all-cap4": ["--cap", "4", "verify", "all"],
    "verify-all-default": ["verify", "all"],
    "mackey-fixed-D4": ["mackey-fixed", "{dir}/D4.mackey", "0,5"],
    "mackey-fixed-C2xC2xC2": ["mackey-fixed", "{dir}/C2xC2xC2.mackey", "0,1"],
    "mackey-fixed-S3": ["mackey-fixed", "{dir}/S3.mackey", "0,3,4"],
    "mackey-fixed-C4": ["mackey-fixed", "{dir}/C4.mackey", "0,2"],
    "mackey-check-C4": ["mackey-check", "{dir}/C4.mackey"],
    "span-hom-S3": ["span-hom", "{dir}/S3-x.gset", "{dir}/S3-y.gset"],
    "span-hom-D4": ["span-hom", "{dir}/D4-x.gset", "{dir}/D4-y.gset"],
})
CASES.update({
    f"{verb}-{name}": [verb, f"{{dir}}/{name}.grp"]
    for verb in ("group-show", "subgroups", "tom", "burnside")
    for name in ("S3", "D4")
})
CASES["tom-C2xC2xC2"] = ["tom", "{dir}/C2xC2xC2.grp"]

MACKEY_FILES = ("D4", "C2xC2xC2", "C4", "S3")

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


def write_input_files(directory: Path) -> None:
    """`<name>.grp` and the Burnside functor `<name>.mackey` per group of
    MACKEY_FILES, plus the G-sets of GSETS."""
    for name in MACKEY_FILES:
        G = corpus_group(name)
        (directory / f"{name}.grp").write_text(fm.serialize_group(G))
        (directory / f"{name}.mackey").write_text(
            fm.serialize_mackey(mk.burnside_mackey(G), f"{name}.grp")
        )
    for name, (group, classes) in GSETS.items():
        X = gs.canonical_gset(corpus_group(group), classes)
        (directory / f"{name}.gset").write_text(
            fm.serialize_gset(X, f"{group}.grp")
        )


def run(argv, directory: Path) -> str:
    """`exit <code>` followed by the stdout of `profspan <argv>`, with
    `{dir}` in argv standing for the directory of the input files."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.format(dir=directory) for a in argv])
    return f"exit {code}\n{out.getvalue()}"


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    write_input_files(directory)
    return directory


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, input_dir):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run(CASES[name], input_dir) == expected


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
