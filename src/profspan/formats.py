"""Line-based text formats for groups, towers, G-sets, and Mackey
functors.  All serializers round-trip bit-exactly through their parsers.
"""

from __future__ import annotations

import os

from .errors import ParseError
from .groups import (
    FiniteGroup,
    GroupTower,
    QuotientMap,
    make_group,
    make_subgroup,
    make_tower,
)
from .gsets import GSet, make_gset
from .mackey import AbPresentation, MackeyFunctor, check_structure


class _Lines:
    def __init__(self, text: str, source: str):
        self.raw = text.splitlines()
        self.source = source
        self.pos = 0

    def peek(self) -> str | None:
        while self.pos < len(self.raw) and not self.raw[self.pos].strip():
            self.pos += 1
        return self.raw[self.pos] if self.pos < len(self.raw) else None

    def next(self, expect: str | None = None) -> str:
        line = self.peek()
        if line is None:
            raise ParseError(self.source, len(self.raw), "unexpected end of file")
        self.pos += 1
        if expect is not None and not line.split()[0] == expect:
            raise ParseError(self.source, self.pos, f"expected `{expect}` line")
        return line

    def error(self, message: str) -> ParseError:
        return ParseError(self.source, self.pos, message)


def _read(path: str) -> str:
    """The text of a file; unreadable or undecodable files are input
    errors (ValueError covers decoding and a NUL byte in the path)."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}")


def _ints(lines: _Lines, line: str, count: int | None = None) -> list[int]:
    try:
        vals = [int(tok) for tok in line.split()]
    except ValueError:
        raise lines.error("expected integers")
    if count is not None and len(vals) != count:
        raise lines.error(f"expected {count} integers, found {len(vals)}")
    return vals


def serialize_group(G: FiniteGroup) -> str:
    rows = [" ".join(str(v) for v in row) for row in G.mult]
    return "\n".join([f"group {G.order}"] + rows) + "\n"


def _parse_group_block(lines: _Lines) -> FiniteGroup:
    header = lines.next("group")
    parts = header.split()
    if len(parts) != 2:
        raise lines.error("group header needs exactly one order")
    try:
        order = int(parts[1])
    except ValueError:
        raise lines.error("group order must be an integer")
    if order < 1:
        raise lines.error("group order must be positive")
    table = [_ints(lines, lines.next(), order) for _ in range(order)]
    try:
        return make_group(table)
    except Exception as exc:
        raise lines.error(f"invalid multiplication table: {exc}")


def parse_group(text: str, source: str = "<group>") -> FiniteGroup:
    return _parse_group_block(_Lines(text, source))


def serialize_tower(t: GroupTower) -> str:
    out = [f"tower {t.depth}"]
    out.append(serialize_group(t.stages[0]).rstrip("\n"))
    for i, link in enumerate(t.links):
        out.append(serialize_group(t.stages[i + 1]).rstrip("\n"))
        out.append(f"link {i}")
        out.append(" ".join(str(v) for v in link.projection))
    return "\n".join(out) + "\n"


def parse_tower(text: str, source: str = "<tower>") -> GroupTower:
    lines = _Lines(text, source)
    header = lines.next("tower")
    parts = header.split()
    try:
        depth = int(parts[1])
    except (IndexError, ValueError):
        raise lines.error("tower header needs a depth")
    if depth < 1:
        raise lines.error("tower depth must be positive")
    stages = [_parse_group_block(lines)]
    links = []
    for i in range(depth - 1):
        stage = _parse_group_block(lines)
        link_line = lines.next("link")
        if link_line.split() != ["link", str(i)]:
            raise lines.error(f"expected `link {i}`")
        proj = _ints(lines, lines.next(), stage.order)
        target = stages[-1]
        if set(proj) != set(range(target.order)):
            raise lines.error("projection is not onto the previous stage")
        for a in stage.elements():
            for b in stage.elements():
                if proj[stage.mul(a, b)] != target.mul(proj[a], proj[b]):
                    raise lines.error("projection is not a homomorphism")
        kernel = tuple(sorted(g for g in stage.elements() if proj[g] == 0))
        links.append(
            QuotientMap(stage, make_subgroup(stage, kernel), target, tuple(proj))
        )
        stages.append(stage)
    try:
        return make_tower(stages, links)
    except Exception as exc:
        raise lines.error(f"invalid tower: {exc}")


def serialize_gset(X: GSet, group_file: str) -> str:
    out = [f"gset {group_file} {X.size}"]
    out += [" ".join(str(v) for v in row) for row in X.action]
    return "\n".join(out) + "\n"


def parse_gset(text: str, group: FiniteGroup, source: str = "<gset>") -> GSet:
    lines = _Lines(text, source)
    header = lines.next("gset")
    parts = header.split()
    if len(parts) != 3:
        raise lines.error("gset header needs a group file and a size")
    try:
        size = int(parts[2])
    except ValueError:
        raise lines.error("gset size must be an integer")
    if size < 0:
        raise lines.error("gset size must be non-negative")
    action = [_ints(lines, lines.next(), group.order) for _ in range(size)]
    try:
        return make_gset(group, action)
    except Exception as exc:
        raise lines.error(f"invalid action table: {exc}")


def load_gset(path: str) -> GSet:
    text = _read(path)
    first = text.splitlines()[0] if text.splitlines() else ""
    parts = first.split()
    if len(parts) != 3 or parts[0] != "gset":
        raise ParseError(path, 1, "gset header needs a group file and a size")
    group_path = os.path.join(os.path.dirname(path) or ".", parts[1])
    group = parse_group(_read(group_path), group_path)
    return parse_gset(text, group, path)


def _key_token(c1: int, c2: int, key) -> str:
    apex, legL, legR = key
    return ":".join(
        [
            str(c1),
            str(c2),
            str(apex),
            ",".join(str(v) for v in legL),
            ",".join(str(v) for v in legR),
        ]
    )


def _parse_key_token(lines: _Lines, token: str):
    parts = token.split(":")
    if len(parts) != 5:
        raise lines.error("basis-span key needs 5 colon-separated fields")
    try:
        c1, c2, apex = int(parts[0]), int(parts[1]), int(parts[2])
        legL = tuple(int(v) for v in parts[3].split(","))
        legR = tuple(int(v) for v in parts[4].split(","))
    except ValueError:
        raise lines.error("malformed basis-span key")
    return c1, c2, (apex, legL, legR)


def serialize_mackey(M: MackeyFunctor, group_file: str) -> str:
    out = [f"mackey {group_file}"]
    for c, lv in enumerate(M.levels):
        torsion = " ".join(str(d) for d in lv.invariant_factors)
        out.append(f"level {c} rank {lv.rank} torsion {torsion}".rstrip())
    for (c1, c2, key) in sorted(M.gen_action):
        mat = M.gen_action[(c1, c2, key)]
        rows = len(mat)
        cols = len(mat[0]) if mat else 0
        out.append(f"gen {_key_token(c1, c2, key)} rows {rows} cols {cols}")
        out += [" ".join(str(v) for v in row) for row in mat]
    return "\n".join(out) + "\n"


def parse_mackey(
    text: str, group: FiniteGroup, source: str = "<mackey>"
) -> MackeyFunctor:
    lines = _Lines(text, source)
    header = lines.next("mackey")
    if len(header.split()) != 2:
        raise lines.error("mackey header needs a group file")
    levels: dict[int, AbPresentation] = {}
    while True:
        nxt = lines.peek()
        if nxt is None or not nxt.split()[0] == "level":
            break
        parts = lines.next("level").split()
        if len(parts) < 5 or parts[2] != "rank" or parts[4] != "torsion":
            raise lines.error("malformed level line")
        try:
            c = int(parts[1])
            rank = int(parts[3])
            torsion = tuple(int(v) for v in parts[5:])
        except ValueError:
            raise lines.error("malformed level line")
        try:
            levels[c] = AbPresentation(rank, torsion)
        except ValueError as exc:
            raise lines.error(f"invalid presentation: {exc}")
    if sorted(levels) != list(range(len(levels))):
        raise lines.error("level indices must cover 0..n-1")
    gen_action: dict = {}
    while lines.peek() is not None:
        parts = lines.next("gen").split()
        if len(parts) != 6 or parts[2] != "rows" or parts[4] != "cols":
            raise lines.error("malformed gen line")
        c1, c2, key = _parse_key_token(lines, parts[1])
        try:
            rows, cols = int(parts[3]), int(parts[5])
        except ValueError:
            raise lines.error("malformed gen line")
        mat = tuple(
            tuple(_ints(lines, lines.next(), cols)) for _ in range(rows)
        )
        gen_action[(c1, c2, key)] = mat
    M = MackeyFunctor(group, tuple(levels[c] for c in sorted(levels)), gen_action)
    verdict = check_structure(M)
    if not verdict:
        raise lines.error(f"{verdict.reason}, witness={verdict.witness!r}")
    return M


def load_mackey(path: str) -> MackeyFunctor:
    text = _read(path)
    first = text.splitlines()[0] if text.splitlines() else ""
    parts = first.split()
    if len(parts) != 2 or parts[0] != "mackey":
        raise ParseError(path, 1, "mackey header needs a group file")
    group_path = os.path.join(os.path.dirname(path) or ".", parts[1])
    group = parse_group(_read(group_path), group_path)
    return parse_mackey(text, group, path)


def load_group(path: str) -> FiniteGroup:
    return parse_group(_read(path), path)


def load_tower(path: str) -> GroupTower:
    return parse_tower(_read(path), path)
