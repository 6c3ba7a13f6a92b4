"""Pinned outcomes of the file loaders on near-valid inputs.

Each corpus object below is serialized, and each line of its file is
mutated in one way at a time: deleted, duplicated, preceded by a blank
line, cut to its first half, its first or its last token replaced by `x`,
`-1` or `1.5`, or ` 0` appended.  Each mutant is written to a temporary
directory that also holds the unmutated group files `C2.grp` and `S3.grp`,
and is loaded with the loader of its kind.  Its outcome is `ok` and the
first 12 hex digits of the sha256 of the loaded value's serialization, or
the `ParseError` text with the directory stripped from it.  Any other
exception fails the test.

`tests/format_mutations.txt` holds one line per mutant,
`<file> <line> <mutation>: <outcome>`.

The group, tower and G-set files are also mutated at several lines at
once: MULTI_PER_FILE mutants each, seeded by the file's name, of two to
four distinct lines, each changed by one of the mutations above.
`tests/format_multi_mutations.txt` holds one line per mutant,
`<file> <mutant> <line>:<mutation>,...: <outcome>`, so an error's text
and the line it names are pinned.  Regenerate both files, only when an
outcome is meant to change, with

    PYTHONPATH=src python tests/test_format_mutations.py
"""

from __future__ import annotations

import hashlib
import random
import sys
import tempfile
from pathlib import Path

import pytest

from profspan import formats as fm
from profspan import groups as g
from profspan import gsets as gs
from profspan import mackey as mk
from profspan.corpus import corpus_group
from profspan.errors import ParseError

GOLDEN = Path(__file__).parent / "format_mutations.txt"
MULTI_GOLDEN = Path(__file__).parent / "format_multi_mutations.txt"
MULTI_PER_FILE = 40

# Loader and serializer by file extension; a loaded G-set or Mackey
# functor is serialized over the group file name `g`.
KINDS = {
    ".grp": (fm.load_group, fm.serialize_group),
    ".tower": (fm.load_tower, fm.serialize_tower),
    ".gset": (fm.load_gset, lambda X: fm.serialize_gset(X, "g")),
    ".mackey": (fm.load_mackey, lambda M: fm.serialize_mackey(M, "g")),
}

GROUPS = ("C2", "S3")


def objects() -> dict[str, str]:
    """The text of each object to mutate, by the name of its file."""
    C2, S3 = corpus_group("C2"), corpus_group("S3")
    burnside_c2 = mk.burnside_mackey(C2)
    return {
        "group-C2.grp": fm.serialize_group(C2),
        "group-S3.grp": fm.serialize_group(S3),
        "tower-2-3.tower": fm.serialize_tower(g.cyclic_tower(2, 3)),
        "gset-S3.gset": fm.serialize_gset(gs.canonical_gset(S3, (1, 3)), "S3.grp"),
        "burnside-C2.mackey": fm.serialize_mackey(burnside_c2, "C2.grp"),
        "burnside-S3.mackey": fm.serialize_mackey(mk.burnside_mackey(S3), "S3.grp"),
        "burnside-C2-mod4.mackey": fm.serialize_mackey(
            mk.reduce_mod(burnside_c2, 4), "C2.grp"
        ),
    }


# The files mutated at several lines at once; Mackey files are compared
# with parse_mackey_oracle on such mutants in test_mackey_reader.
MULTI_NAMES = sorted(name for name in objects() if not name.endswith(".mackey"))


def line_mutations(line: str) -> dict[str, list[str]]:
    """The lines that each one-line mutation puts in place of `line`."""
    tokens = line.split()
    changed = {
        "delete": [],
        "duplicate": [line, line],
        "blank-before": ["", line],
        "truncate": [line[: len(line) // 2]],
        "append-0": [line + " 0"],
    }
    for end, at in (("first", 0), ("last", len(tokens) - 1)):
        if end == "last" and at == 0:
            continue
        for token in ("x", "-1", "1.5"):
            changed[f"{end}={token}"] = [
                " ".join(tokens[:at] + [token] + tokens[at + 1:])
            ]
    return changed


def mutants(text: str):
    """(line number, mutation, mutated text) for every one-line mutation."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        before, after = lines[:i], lines[i + 1:]
        for mutation, middle in line_mutations(line).items():
            yield i + 1, mutation, "\n".join(before + middle + after) + "\n"


def multi_mutants(name: str, text: str):
    """(label, mutated text) of MULTI_PER_FILE mutants of `text`, each
    changing two to four distinct lines (at most all of them), seeded by
    `name`.  The label is `<line>:<mutation>` of each changed line, in
    line order."""
    rng = random.Random(name)
    lines = text.splitlines()
    for _ in range(MULTI_PER_FILE):
        out, labels, last = [], [], 0
        count = rng.randint(2, min(4, len(lines)))
        for i in sorted(rng.sample(range(len(lines)), count)):
            mutation, middle = rng.choice(sorted(line_mutations(lines[i]).items()))
            out += lines[last:i] + middle
            labels.append(f"{i + 1}:{mutation}")
            last = i + 1
        yield ",".join(labels), "\n".join(out + lines[last:]) + "\n"


def outcome(path: Path) -> str:
    """`ok <digest>` of the loaded value, or the ParseError text with the
    file's directory stripped from it."""
    load, serialize = KINDS[path.suffix]
    try:
        value = load(str(path))
    except ParseError as exc:
        return str(exc).replace(f"{path.parent}/", "")
    return "ok " + hashlib.sha256(serialize(value).encode()).hexdigest()[:12]


def outcomes(name: str, text: str, directory: Path) -> list[str]:
    path = directory / name
    out = []
    for line, mutation, mutated in mutants(text):
        path.write_text(mutated)
        out.append(f"{name} {line} {mutation}: {outcome(path)}")
    return out


def multi_outcomes(name: str, text: str, directory: Path) -> list[str]:
    path = directory / name
    out = []
    for n, (label, mutated) in enumerate(multi_mutants(name, text)):
        path.write_text(mutated)
        out.append(f"{name} {n} {label}: {outcome(path)}")
    return out


def write_group_files(directory: Path) -> None:
    for name in GROUPS:
        (directory / f"{name}.grp").write_text(fm.serialize_group(corpus_group(name)))


def golden_lines(name: str, golden: Path = GOLDEN) -> list[str]:
    return [
        line for line in golden.read_text().splitlines()
        if line.startswith(f"{name} ")
    ]


@pytest.mark.parametrize("name", sorted(objects()))
def test_mutant_outcomes_match_the_golden(name, tmp_path):
    write_group_files(tmp_path)
    assert outcomes(name, objects()[name], tmp_path) == golden_lines(name)


@pytest.mark.parametrize("name", MULTI_NAMES)
def test_multi_line_mutant_outcomes_match_the_golden(name, tmp_path):
    write_group_files(tmp_path)
    found = multi_outcomes(name, objects()[name], tmp_path)
    assert found == golden_lines(name, MULTI_GOLDEN)


def test_every_unmutated_object_loads(tmp_path):
    write_group_files(tmp_path)
    for name, text in objects().items():
        path = tmp_path / name
        path.write_text(text)
        assert outcome(path).startswith("ok ")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_group_files(Path(tmp))
        pinned = {
            GOLDEN: [
                line
                for name, text in sorted(objects().items())
                for line in outcomes(name, text, Path(tmp))
            ],
            MULTI_GOLDEN: [
                line
                for name in MULTI_NAMES
                for line in multi_outcomes(name, objects()[name], Path(tmp))
            ],
        }
    for golden, lines in pinned.items():
        golden.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} outcomes to {golden}", file=sys.stderr)
