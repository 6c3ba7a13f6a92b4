"""Line-based text formats for groups, towers, G-sets, and Mackey
functors.  All serializers round-trip bit-exactly through their parsers.

Blank lines are skipped; any other line is split on whitespace.  A loaded
G-set or Mackey file has its header on line 1, and the group file it names
is resolved relative to the file's directory.  A group, tower or G-set
file ends with the rows its header announces.  A Mackey file may not
repeat a `level` index or a `gen` key, and a `gen` line's row and column
counts are non-negative; a matrix with no columns has no lines.  A `gen`
key is looked up in the group's _key_table, or parsed if spelled another
way.  A block's rows are read one at a time, each as exactly its width of
integers, and check_structure checks the whole functor once, after the
last block.  Every error is a ParseError that names `source:line`.

The loaders of the verbs, load_group, load_gset and load_mackey, keep each
parsed object for the process (_parsed), keyed by the full text of the
file and, for a G-set or Mackey file, the group its header resolves to.
Nothing is keyed by path: a file is read on every load, so one rewritten
between two loads, or whose group file was, is parsed again, and the same
bytes over the same group give the same object.  A failed parse raises and
is never kept, so a bad file gives the same error on every load.  A kept
object is shared by every load of its text, so nothing may change it.

serialize_mackey writes every `gen` block with one %-format over all the
entries of the functor, in _key_table order.  The format is kept per
group and matrix shapes (_gen_format), as _key_table is kept per group,
so writing a functor of a shape already written joins no row.  The
`mackey` header and the `level` lines are written outside that format,
so a group-file name is put in as given and a `%` in it is never read
as a format.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import chain, islice
from operator import itemgetter

from .errors import ParseError
from .groups import (
    FiniteGroup,
    GroupTower,
    make_group,
    make_tower,
    quotient_map,
)
from .gsets import GSet, make_gset
from . import spans as sp
from .mackey import AbPresentation, MackeyFunctor, check_structure


class _Rows:
    """The non-blank lines of a text as (index, fields), each split when
    it is reached, with one row of lookahead.  A 0-based index is the
    number of the line before the row.  Errors name `line`: the row
    `next` took, or after `more` the line before the row ahead.  `count`
    is the number of lines."""

    def __init__(self, text: str, source: str):
        lines = text.splitlines()
        self.source = source
        self.count = len(lines)
        self._rows = filter(itemgetter(1), enumerate(map(str.split, lines)))
        self._end = (len(lines), [])
        self._ahead = next(self._rows, self._end)

    def more(self, keyword: str | None = None) -> bool:
        """Whether a row is left, and starts with `keyword` if one is given."""
        self.line, fields = self._ahead
        return bool(fields) and (keyword is None or fields[0] == keyword)

    def next(self, keyword: str | None = None) -> list[str]:
        """The next row, which must start with `keyword` if one is given."""
        self.line, fields = self._ahead
        if not fields:
            raise self.error("unexpected end of file")
        self.line += 1
        self._ahead = next(self._rows, self._end)
        if keyword is not None and fields[0] != keyword:
            raise self.error(f"expected `{keyword}` line")
        return fields

    def ints(self, count: int) -> tuple[int, ...]:
        """The next row as exactly `count` integers."""
        fields = self.next()
        try:
            vals = tuple(map(int, fields))
        except ValueError:
            raise self.error("expected integers")
        if len(vals) != count:
            raise self.error(f"expected {count} integers, found {len(vals)}")
        return vals

    def table(self, height: int, width: int) -> tuple[tuple[int, ...], ...]:
        """The next `height` rows, each read by `ints(width)`.

        A row of no integers is a blank line, which is never read, so a
        table of width 0 is `height` empty rows and takes no line."""
        if not width:
            return ((),) * height
        return tuple([self.ints(width) for _ in range(height)])

    def end(self) -> None:
        """Raise unless no row is left; the error names the first row left."""
        if self.more():
            self.next()
            raise self.error("expected end of file")

    def error(self, message: str) -> ParseError:
        return ParseError(self.source, self.line, message)


def _read(path: str) -> str:
    """The text of a file; unreadable or undecodable files are input
    errors (ValueError covers decoding and a NUL byte in the path)."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}")


@lru_cache(maxsize=None)
def _parsed(parse, text: str, *over):
    """`parse(text, *over)`, kept by the reader, the text and the group
    that a G-set or Mackey file is read over.  A ParseError raises, so it
    is never kept, and names no source: _load puts in the path."""
    return parse(text, *over, "")


def _load(path: str, parse, text: str, *over):
    """_parsed(parse, text, *over), whose errors name `path`."""
    try:
        return _parsed(parse, text, *over)
    except ParseError as exc:
        raise ParseError(path, exc.line, exc.message) from None


def _load_over_group(path: str, parse, keyword: str, width: int, needs: str):
    """_load of the file at `path` over the group file named by its
    header: line 1, `width` fields, `keyword` first.  The group file is
    resolved relative to the directory of `path`."""
    text = _read(path)
    # line 1 as splitlines cuts it, without splitting the rest of the text
    head = text.partition("\n")[0].splitlines()
    fields = head[0].split() if head else []
    if len(fields) != width or fields[0] != keyword:
        raise ParseError(path, 1, f"{keyword} header needs {needs}")
    group = load_group(os.path.join(os.path.dirname(path) or ".", fields[1]))
    return _load(path, parse, text, group)


def serialize_group(G: FiniteGroup) -> str:
    rows = [" ".join(map(str, row)) for row in G.mult]
    return "\n".join([f"group {G.order}"] + rows) + "\n"


def _parse_group_block(rows: _Rows) -> FiniteGroup:
    header = rows.next("group")
    if len(header) != 2:
        raise rows.error("group header needs exactly one order")
    try:
        order = int(header[1])
    except ValueError:
        raise rows.error("group order must be an integer")
    if order < 1:
        raise rows.error("group order must be positive")
    table = rows.table(order, order)
    try:
        return make_group(table)
    except ValueError as exc:
        raise rows.error(f"invalid multiplication table: {exc}")


def parse_group(text: str, source: str = "<group>") -> FiniteGroup:
    rows = _Rows(text, source)
    G = _parse_group_block(rows)
    rows.end()
    return G


def serialize_tower(t: GroupTower) -> str:
    out = [f"tower {t.depth}"]
    out.append(serialize_group(t.stages[0]).rstrip("\n"))
    for i, link in enumerate(t.links):
        out.append(serialize_group(t.stages[i + 1]).rstrip("\n"))
        out.append(f"link {i}")
        out.append(" ".join(map(str, link.projection)))
    return "\n".join(out) + "\n"


def parse_tower(text: str, source: str = "<tower>") -> GroupTower:
    rows = _Rows(text, source)
    header = rows.next("tower")
    try:
        depth = int(header[1])
    except (IndexError, ValueError):
        raise rows.error("tower header needs a depth")
    if len(header) != 2:
        raise rows.error("tower header needs exactly one depth")
    if depth < 1:
        raise rows.error("tower depth must be positive")
    stages = [_parse_group_block(rows)]
    links = []
    for i in range(depth - 1):
        stage = _parse_group_block(rows)
        if rows.next("link") != ["link", str(i)]:
            raise rows.error(f"expected `link {i}`")
        proj = rows.ints(stage.order)
        try:
            links.append(quotient_map(stage, stages[-1], proj))
        except ValueError as exc:
            raise rows.error(str(exc))
        stages.append(stage)
    rows.end()
    return make_tower(stages, links)


def serialize_gset(X: GSet, group_file: str) -> str:
    out = [f"gset {group_file} {X.size}"]
    out += [" ".join(map(str, row)) for row in X.action]
    return "\n".join(out) + "\n"


def parse_gset(text: str, group: FiniteGroup, source: str = "<gset>") -> GSet:
    rows = _Rows(text, source)
    header = rows.next("gset")
    if len(header) != 3:
        raise rows.error("gset header needs a group file and a size")
    try:
        size = int(header[2])
    except ValueError:
        raise rows.error("gset size must be an integer")
    if size < 0:
        raise rows.error("gset size must be non-negative")
    action = rows.table(size, group.order)
    try:
        X = make_gset(group, action)
    except ValueError as exc:
        raise rows.error(f"invalid action table: {exc}")
    rows.end()
    return X


def load_gset(path: str) -> GSet:
    return _load_over_group(path, parse_gset, "gset", 3, "a group file and a size")


def _key_token(c1: int, c2: int, key) -> str:
    apex, legL, legR = key
    legs = [",".join(str(v) for v in leg) for leg in (legL, legR)]
    return ":".join([str(c1), str(c2), str(apex), *legs])


def _parse_key_token(rows: _Rows, token: str):
    parts = token.split(":")
    if len(parts) != 5:
        raise rows.error("basis-span key needs 5 colon-separated fields")
    try:
        c1, c2, apex = int(parts[0]), int(parts[1]), int(parts[2])
        legL = tuple(map(int, parts[3].split(",")))
        legR = tuple(map(int, parts[4].split(",")))
    except ValueError:
        raise rows.error("malformed basis-span key")
    return c1, c2, (apex, legL, legR)


@lru_cache(maxsize=None)
def _key_table(G: FiniteGroup) -> dict[str, tuple]:
    """The _key_token of each triple of orbit_keys(G), in order -> it."""
    return {_key_token(*k): k for k in sp.orbit_keys(G)}


@lru_cache(maxsize=None)
def _gen_format(G: FiniteGroup, heights: tuple, widths: tuple) -> str:
    """The `gen` blocks of a Mackey file over G as one %-format, a `%s`
    for each entry, each line after a newline.  The matrices, taken in
    _key_table order, have `heights` rows, and their rows, one after
    another, `widths` entries.  Every matrix is rectangular: a ragged one
    raises ValueError naming its key, and nothing is kept for it."""
    lines = []
    widths = iter(widths)
    for token, height in zip(_key_table(G), heights):
        shape = list(islice(widths, height))
        cols = shape[0] if shape else 0
        if shape.count(cols) != height:
            raise ValueError(f"gen {token} is ragged: rows of {shape} entries")
        lines.append(f"\ngen {token} rows {height} cols {cols}")
        if cols:
            lines += ["\n" + " ".join(["%s"] * cols)] * height
    return "".join(lines) + "\n"


def serialize_mackey(M: MackeyFunctor, group_file: str) -> str:
    """M as a Mackey file whose header names `group_file`.  Each matrix of
    M.gen_action is a rectangular tuple of integer rows."""
    out = [f"mackey {group_file}"]
    for c, lv in enumerate(M.levels):
        torsion = " ".join(map(str, lv.invariant_factors))
        out.append(f"level {c} rank {lv.rank} torsion {torsion}".rstrip())
    mats = list(map(M.gen_action.__getitem__, _key_table(M.group).values()))
    rows = list(chain.from_iterable(mats))
    gens = _gen_format(M.group, tuple(map(len, mats)), tuple(map(len, rows)))
    return "\n".join(out) + gens % tuple(chain.from_iterable(rows))


def parse_mackey(
    text: str, group: FiniteGroup, source: str = "<mackey>"
) -> MackeyFunctor:
    rows = _Rows(text, source)
    if len(rows.next("mackey")) != 2:
        raise rows.error("mackey header needs a group file")
    levels: dict[int, AbPresentation] = {}
    while rows.more("level"):
        parts = rows.next()
        if len(parts) < 5 or parts[2] != "rank" or parts[4] != "torsion":
            raise rows.error("malformed level line")
        try:
            c, rank = int(parts[1]), int(parts[3])
            torsion = tuple(int(v) for v in parts[5:])
        except ValueError:
            raise rows.error("malformed level line")
        if c in levels:
            raise rows.error(f"repeated level {c}")
        try:
            levels[c] = AbPresentation(rank, torsion)
        except ValueError as exc:
            raise rows.error(f"invalid presentation: {exc}")
    if sorted(levels) != list(range(len(levels))):
        raise rows.error("level indices must cover 0..n-1")
    table = _key_table(group)
    gen_action: dict = {}
    while rows.more():
        parts = rows.next("gen")
        if len(parts) != 6 or parts[2] != "rows" or parts[4] != "cols":
            raise rows.error("malformed gen line")
        k = table.get(parts[1]) or _parse_key_token(rows, parts[1])
        if k in gen_action:
            raise rows.error(f"repeated gen key {parts[1]}")
        try:
            height, width = int(parts[3]), int(parts[5])
        except ValueError:
            raise rows.error("malformed gen line")
        if height < 0 or width < 0:
            raise rows.error("gen rows and cols must be non-negative")
        # a block with no columns takes no lines, and a level of d > 0 dims
        # needs a d-line identity block, so a height past the line count is
        # wrong anyway: keep at most one row more than the text has lines
        if not width:
            height = min(height, rows.count + 1)
        gen_action[k] = rows.table(height, width)
    M = MackeyFunctor(group, tuple(levels[c] for c in sorted(levels)), gen_action)
    verdict = check_structure(M)
    if not verdict:
        raise rows.error(f"{verdict.reason}, witness={verdict.witness!r}")
    return M


def load_mackey(path: str) -> MackeyFunctor:
    return _load_over_group(path, parse_mackey, "mackey", 2, "a group file")


def load_group(path: str) -> FiniteGroup:
    return _load(path, parse_group, _read(path))


def load_tower(path: str) -> GroupTower:
    return parse_tower(_read(path), path)
