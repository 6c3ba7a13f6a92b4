"""Pinned stdout and exit codes of `profspan verify` reports.

Each case runs the CLI in-process and compares against
`tests/golden/<name>.txt`, whose first line is `exit <code>` and whose
remaining lines are the exact stdout.  A change that must not alter any
report (a speed-up, a refactor) leaves every file matching byte for byte.

Regenerate the files, only when a report is meant to change, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from profspan.cli import main

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
    "adjunction-cap4": ["--cap", "4", "verify", "adjunction"],
    "funcat-seed3": ["--seed", "3", "verify", "funcat"],
    "mackey-limit-2-2": ["--tower", "2,2", "verify", "mackey-limit"],
})


def run(argv) -> str:
    """`exit <code>` followed by the stdout of `profspan <argv>`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.txt").write_text(run(argv))
        print(f"wrote {name}", file=sys.stderr)
