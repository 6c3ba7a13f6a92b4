"""The Mackey file reader and writer against the key table of each group.

parse_mackey resolves each `gen` token through formats._key_table;
parse_mackey_oracle is the reader as it was before, which parses every
token.  Both check the whole functor after the last block, and both must
give the same functor, or the same ParseError text, on every file: the
corpus Burnside files of order at most 8, their categorical fixed points
at every normal subgroup, a C2 functor with a zero level, and seeded
mutants of all of them with several lines changed at once.  The writer and the key table rest on orbit_keys
being sorted, which is tested on every corpus group under relabellings.
"""

from __future__ import annotations

import itertools
import random

import pytest

from profspan import formats as fm
from profspan import groups as g
from profspan import mackey as mk
from profspan import spans as sp
from profspan.corpus import corpus_group, corpus_groups
from profspan.errors import ParseError

from oracles import canonical_key, parse_mackey_oracle, point_gset
from test_spans import _relabelled

MUTANTS_PER_FILE = 30


def _zero_level_c2() -> mk.MackeyFunctor:
    """Z at the point and 0 at the free orbit of C2, identity on the
    identity span of the point and 0 elsewhere: its matrices from the
    free orbit to the point are 1 x 0, written with no lines."""
    G = corpus_group("C2")
    dims = (0, 1)
    pt = point_gset(G)
    ident = canonical_key(pt, 0, (0,), (0,), pt, pt)
    gen_action = {}
    for c1, c2, key in sp.orbit_keys(G):
        row = (int(key == ident),) * dims[c1]
        gen_action[c1, c2, key] = (row,) * dims[c2]
    return mk.MackeyFunctor(G, (mk.AbPresentation(0), mk.AbPresentation(1)), gen_action)


def _files() -> list[tuple[str, g.FiniteGroup, str]]:
    """(name, group, text) of each corpus Burnside file of order at most
    8 and of its categorical fixed points at each normal subgroup, and of
    the C2 functor with a zero level."""
    zero = _zero_level_c2()
    out = [("C2-zero-level", zero.group, fm.serialize_mackey(zero, "g"))]
    for name, G in corpus_groups():
        if G.order > 8:
            continue
        M = mk.burnside_mackey(G)
        out.append((name, G, fm.serialize_mackey(M, "g")))
        lat = g.subgroup_lattice(G)
        for N, normal in zip(lat.subgroups, lat.normal):
            if normal:
                fixed = mk.categorical_fixed_points(M, g.quotient(G, N))
                label = f"{name}/{','.join(map(str, N.elements))}"
                out.append((label, fixed.group, fm.serialize_mackey(fixed, "q")))
    return out


def _outcome(parse, text: str, G: g.FiniteGroup):
    """The functor with its matrices in file order, or the ParseError text."""
    try:
        M = parse(text, G, "m")
    except ParseError as exc:
        return str(exc)
    return M.levels, list(M.gen_action.items())


def _retoken(token: str, rng: random.Random) -> str:
    """An integer field spelled another way, or made malformed."""
    return rng.choice(["0" + token, "+" + token, token + "_0", token + ".0", "x"])


def _mutate_line(line: str, rng: random.Random, kind: str | None = None) -> str:
    fields = line.split()
    if not fields:
        return line
    kind = kind or rng.choice(["token", "key", "tabs", "count"])
    if kind == "tabs":
        return "\t".join(fields) + rng.choice(["", "\t", " "])
    if kind == "count" and fields[0] == "gen" and len(fields) == 6:
        at = rng.choice([3, 5])
        fields[at] = str(int(fields[at]) + rng.choice([-1, 1]))
        return " ".join(fields)
    if kind == "key" and fields[0] == "gen" and len(fields) > 1:
        parts = fields[1].split(":")
        at = rng.randrange(len(parts))
        values = parts[at].split(",")
        i = rng.randrange(len(values))
        values[i] = _retoken(values[i], rng)
        parts[at] = ",".join(values)
        fields[1] = ":".join(parts)
        return " ".join(fields)
    numeric = [i for i, f in enumerate(fields) if f.lstrip("-").isdigit()]
    if numeric:
        i = rng.choice(numeric)
        fields[i] = _retoken(fields[i], rng)
    return " ".join(fields)


def mutant(text: str, rng: random.Random) -> str:
    """text with one to three changes: two lines swapped, a line dropped or
    duplicated, a blank line put between two lines, a field respelled, a
    line's spaces turned into tabs, a `rows` or `cols` count moved by one,
    a `gen` block appended again with its key respelled or made a column
    wider, and CRLF line ends."""
    lines = text.splitlines()
    crlf = False
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        kind = rng.choice(
            ["swap", "drop", "duplicate", "blank", "line", "copy", "widen", "crlf"]
        )
        if kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "blank":
            lines.insert(i + 1, rng.choice(["", "  ", "\t"]))
        elif kind == "line":
            lines[i] = _mutate_line(lines[i], rng)
        elif kind in ("copy", "widen"):
            starts = [k for k, line in enumerate(lines) if line.startswith("gen ")]
            if not starts:
                continue
            k = rng.choice(starts)
            end = next((e for e in starts if e > k), len(lines))
            if kind == "copy":
                lines += [_mutate_line(lines[k], rng, "key"), *lines[k + 1:end]]
                continue
            fields = lines[k].split()
            if len(fields) == 6 and fields[5].isdigit():
                fields[5] = str(int(fields[5]) + 1)
                lines[k] = " ".join(fields)
                lines[k + 1:end] = [line + " 0" for line in lines[k + 1:end]]
        else:
            crlf = True
    end = "\r\n" if crlf else "\n"
    return end.join(lines) + end


FILES = _files()


@pytest.mark.parametrize("name, G, text", FILES, ids=[f[0] for f in FILES])
def test_the_reader_agrees_with_the_old_reader(name, G, text):
    want = _outcome(parse_mackey_oracle, text, G)
    assert not isinstance(want, str), want
    assert _outcome(fm.parse_mackey, text, G) == want
    rng = random.Random(name)
    for k in range(MUTANTS_PER_FILE):
        mutated = mutant(text, rng)
        want = _outcome(parse_mackey_oracle, mutated, G)
        assert _outcome(fm.parse_mackey, mutated, G) == want, (name, k, mutated)


def test_the_differential_covers_the_corpus_and_its_fixed_points():
    names = {name for name, _, _ in FILES}
    assert "C2xC2xC2" in names and "C2xC2xC2/0,1" in names
    assert len(FILES) * (MUTANTS_PER_FILE + 1) >= 2000


def test_some_mutants_read_and_some_fail_in_every_way():
    """The mutants reach both outcomes, and errors from every part of the
    grammar and from the structure check."""
    outcomes = []
    for name, G, text in FILES:
        rng = random.Random(name)
        outcomes += [
            _outcome(fm.parse_mackey, mutant(text, rng), G)
            for _ in range(MUTANTS_PER_FILE)
        ]
    errors = [o for o in outcomes if isinstance(o, str)]
    assert len(outcomes) - len(errors) > 100
    for message in [
        "expected `gen` line",
        "malformed gen line",
        "malformed basis-span key",
        "repeated gen key",
        "expected integers",
        "unexpected end of file",
        "matrix shape mismatch",
        "missing generator action",
        "generator action off the span basis",
    ]:
        assert any(message in e for e in errors), message


@pytest.mark.parametrize("height", [0, 2, 3])
def test_a_zero_width_block_of_the_wrong_height_is_a_shape_error(height):
    """The reader keeps at most one empty row more than the text has
    lines, which still tells a wrong height from the right one."""
    zero = _zero_level_c2()
    text = fm.serialize_mackey(zero, "g")
    assert "rows 1 cols 0\n" in text
    text = text.replace("rows 1 cols 0\n", f"rows {height} cols 0\n", 1)
    want = _outcome(parse_mackey_oracle, text, zero.group)
    assert "matrix shape mismatch" in want
    assert _outcome(fm.parse_mackey, text, zero.group) == want


@pytest.mark.parametrize("relabel_seed", [None, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_orbit_keys_are_sorted_and_every_token_reads_back(name, relabel_seed):
    """The writer needs no sort because orbit_keys is sorted; each key
    table token parses to its own key; and every functor the package
    builds keys gen_action by exactly orbit_keys, in its order."""
    G = corpus_group(name)
    if relabel_seed is not None:
        G = _relabelled(G, relabel_seed)
    keys = sp.orbit_keys(G)
    assert keys == sorted(keys)
    table = fm._key_table(G)
    assert list(table.values()) == keys
    rows = fm._Rows("", "t")
    for token, k in table.items():
        assert fm._parse_key_token(rows, token) == k
        assert table[fm._key_token(*k)] is k
    assert list(mk.burnside_mackey(G).gen_action) == keys
    assert list(mk.zero_mackey(G).gen_action) == keys
    M = mk.zero_mackey(G)
    lat = g.subgroup_lattice(G)
    for N, normal in zip(lat.subgroups, lat.normal):
        if normal:
            fixed = mk.categorical_fixed_points(M, g.quotient(G, N))
            assert list(fixed.gen_action) == sp.orbit_keys(fixed.group)


def test_fixed_points_keep_references_to_the_basis_keys_of_the_group():
    """The inflation table holds no key of its own: each image is a
    position in the group's own orbit_basis, which categorical fixed
    points read the key from."""
    G = corpus_group("D4")
    lat = g.subgroup_lattice(G)
    N = next(N for N, normal in zip(lat.subgroups[1:], lat.normal[1:]) if normal)
    q = g.quotient(G, N)
    table = sp.span_images(q, "inflation")
    pre = table.images
    n = len(pre)
    for c1, c2 in itertools.product(range(n), repeat=2):
        basis = sp.orbit_basis(G, pre[c1], pre[c2])
        images = table.terms[c1][c2]
        assert images and all(type(j) is int and 0 <= j < len(basis) for j in images)
    M = mk.burnside_mackey(G)
    fixed = mk.categorical_fixed_points(M, q)
    held = {id(A) for A in M.gen_action.values()}
    assert all(id(A) in held for A in fixed.gen_action.values())
