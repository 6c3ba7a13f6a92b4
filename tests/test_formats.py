import random

import pytest
from hypothesis import example, given, strategies as st

from profspan import formats as fm
from profspan import groups as g
from profspan import gsets as gs
from profspan import mackey as mk
from profspan import spans as sp
from profspan.cli import main
from profspan.corpus import corpus_group, corpus_groups
from profspan.errors import ParseError

from oracles import (
    canonical_key,
    groups_of_order_at_most,
    point_gset,
    serialize_mackey_oracle,
)
from test_mackey import _times, _unimodular
from test_spans import _relabelled


def test_group_roundtrip():
    for name in ("C2", "S3", "Q8"):
        G = corpus_group(name)
        text = fm.serialize_group(G)
        assert fm.parse_group(text) == G
        assert fm.serialize_group(fm.parse_group(text)) == text


def test_group_parse_errors():
    with pytest.raises(ParseError):
        fm.parse_group("group x\n0\n")
    with pytest.raises(ParseError):
        fm.parse_group("group 2\n0 1\n1 2\n")
    with pytest.raises(ParseError):
        fm.parse_group("group 2\n0 1\n")
    err = None
    try:
        fm.parse_group("group 2\n0 1\n1 1\n", source="bad.grp")
    except ParseError as exc:
        err = exc
    assert err is not None and err.source == "bad.grp"


def test_tower_roundtrip():
    t = g.cyclic_tower(2, 3)
    text = fm.serialize_tower(t)
    parsed = fm.parse_tower(text)
    assert parsed.stages == t.stages
    assert [q.projection for q in parsed.links] == [q.projection for q in t.links]
    assert fm.serialize_tower(parsed) == text


def test_tower_rejects_non_homomorphism():
    t = g.cyclic_tower(2, 2)
    text = fm.serialize_tower(t)
    lines = text.splitlines()
    lines[-1] = "1 0 0 1"  # not a homomorphism C4 -> C2
    with pytest.raises(ParseError):
        fm.parse_tower("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "projection,message",
    [
        ("0 0 0 0", "projection is not onto the previous stage"),
        ("1 0 0 1", "projection is not a homomorphism"),
    ],
    ids=["not-onto", "not-homomorphism"],
)
def test_tower_link_error_names_the_projection_line(projection, message):
    lines = fm.serialize_tower(g.cyclic_tower(2, 2)).splitlines()
    assert lines[10] == "0 1 0 1"  # link 0, on line 11
    lines[10] = projection
    with pytest.raises(ParseError) as err:
        fm.parse_tower("\n".join(lines) + "\n", source="t.tower")
    assert str(err.value) == f"t.tower:11: {message}"
    assert err.value.line == 11


def test_gset_roundtrip(tmp_path):
    G = corpus_group("S3")
    X = gs.canonical_gset(G, (1, 3))
    (tmp_path / "s3.grp").write_text(fm.serialize_group(G))
    text = fm.serialize_gset(X, "s3.grp")
    (tmp_path / "x.gset").write_text(text)
    loaded = fm.load_gset(str(tmp_path / "x.gset"))
    assert loaded == X
    assert fm.serialize_gset(loaded, "s3.grp") == text


def test_gset_parse_error_line_numbers():
    G = corpus_group("C2")
    with pytest.raises(ParseError) as err:
        fm.parse_gset("gset g.grp 2\n0 1\n0 1\n", G, source="x.gset")
    assert err.value.source == "x.gset"
    assert err.value.line == 3
    assert str(err.value) == "x.gset:3: invalid action table: identity moves point 1"


def test_mackey_roundtrip(tmp_path):
    G = corpus_group("C4")
    M = mk.burnside_mackey(G)
    (tmp_path / "c4.grp").write_text(fm.serialize_group(G))
    text = fm.serialize_mackey(M, "c4.grp")
    (tmp_path / "m.mackey").write_text(text)
    loaded = fm.load_mackey(str(tmp_path / "m.mackey"))
    assert loaded.levels == M.levels
    assert loaded.gen_action == M.gen_action
    assert fm.serialize_mackey(loaded, "c4.grp") == text
    assert mk.check_mackey(loaded)


def test_mackey_roundtrip_with_torsion():
    G = corpus_group("C2")
    M = mk.reduce_mod(mk.burnside_mackey(G), 2)
    text = fm.serialize_mackey(M, "c2.grp")
    loaded = fm.parse_mackey(text, G)
    assert loaded.levels == M.levels and loaded.gen_action == M.gen_action


def test_mackey_roundtrip_with_a_zero_level():
    # Z at the point, 0 at the free orbit: its matrices from the free orbit
    # to the point are 1x0, written with no rows
    G = corpus_group("C2")
    dims = (0, 1)
    pt = point_gset(G)
    ident = canonical_key(pt, 0, (0,), (0,), pt, pt)
    gen_action = {}
    for c1, c2, key in sp.orbit_keys(G):
        row = (int(key == ident),) * dims[c1]
        gen_action[c1, c2, key] = (row,) * dims[c2]
    M = mk.MackeyFunctor(G, (mk.AbPresentation(0), mk.AbPresentation(1)), gen_action)
    assert mk.check_mackey(M)
    text = fm.serialize_mackey(M, "c2.grp")
    assert "rows 1 cols 0\ngen" in text
    assert fm.parse_mackey(text, G) == M


def _written_as_the_oracle(M, group_file="g.grp") -> str:
    text = fm.serialize_mackey(M, group_file)
    assert text == serialize_mackey_oracle(M, group_file)
    return text


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name", [name for name, _ in corpus_groups()])
def test_the_writer_matches_the_oracle_on_burnside_zero_and_mod_4(name, relabel):
    """serialize_mackey writes what the row-by-row oracle writes for the
    Burnside functor of every corpus group, as given and with its elements
    renumbered, for the zero functor, every block `rows 0 cols 0`, and
    for Burnside mod 4, whose levels are torsion only.  They are written
    in turn over one group, so a format kept for one shape serves no
    other."""
    G = _relabelled(corpus_group(name), 31) if relabel else corpus_group(name)
    M = mk.burnside_mackey(G)
    zero, mod_4 = mk.zero_mackey(G), mk.reduce_mod(M, 4)
    assert not any(level.rank for level in mod_4.levels)
    for F in (M, zero, mod_4, M):
        _written_as_the_oracle(F)
    lines = fm.serialize_mackey(zero, "g.grp").splitlines()
    gens = [line for line in lines if line.startswith("gen")]
    assert len(gens) == len(M.gen_action)
    assert all(line.endswith(" rows 0 cols 0") for line in gens)


@pytest.mark.parametrize("name", [name for name, _ in groups_of_order_at_most(8)])
def test_the_writer_matches_the_oracle_on_every_fixed_point_quotient(name):
    G = corpus_group(name)
    M = mk.burnside_mackey(G)
    lat = g.subgroup_lattice(G)
    for N, normal in zip(lat.subgroups, lat.normal):
        if normal:
            _written_as_the_oracle(mk.categorical_fixed_points(M, g.quotient(G, N)))


def test_the_writer_matches_the_oracle_after_a_change_of_basis():
    """The Burnside functor of D4 with each level's basis changed by a
    unimodular matrix with entries near 10^6 has negative entries of seven
    digits and more, written as the oracle writes them and read back."""
    rng = random.Random("writer")
    M = mk.burnside_mackey(corpus_group("D4"))
    changes = [_unimodular(level.dims, rng) for level in M.levels]
    action = {
        (c1, c2, key): _times(_times(changes[c2][0], A), changes[c1][1])
        for (c1, c2, key), A in M.gen_action.items()
    }
    changed = mk.MackeyFunctor(M.group, M.levels, action)
    assert min(a for A in action.values() for row in A for a in row) <= -(10**6)
    text = _written_as_the_oracle(changed)
    assert fm.parse_mackey(text, M.group) == changed


def test_the_writer_matches_the_oracle_on_shapes_off_the_level_dims():
    """A hand-made functor over S3 whose matrices have a column more than
    their source level, or no column at all and a row more than their
    target level, written between the Burnside and zero functors of S3:
    each block's header gives the matrix's own shape, and a block of no
    columns has its header and no line."""
    G = corpus_group("S3")
    M = mk.burnside_mackey(G)
    action = {
        k: tuple(row + (i,) for row in A) if i % 2 else ((),) * (len(A) + 1)
        for i, (k, A) in enumerate(M.gen_action.items())
    }
    hand = mk.MackeyFunctor(G, M.levels, action)
    for F in (M, hand, mk.zero_mackey(G)):
        _written_as_the_oracle(F)
    lines = fm.serialize_mackey(hand, "g.grp").splitlines()
    pairs = zip(lines, lines[1:])
    assert any(a.endswith(" cols 0") and b.startswith("gen") for a, b in pairs)


def test_the_writer_refuses_a_ragged_matrix():
    """A matrix whose rows differ in length raises ValueError naming its
    key, also where its entry count is that of a rectangle, on every call,
    and no format is kept for it."""
    G = corpus_group("C2")
    M = mk.burnside_mackey(G)
    token, k = next(
        (token, k)
        for token, k in fm._key_table(G).items()
        if len(M.gen_action[k]) == 2
    )
    first, second = M.gen_action[k]
    for ragged in ((first, second + (0,)), (first + (0,), second[1:])):
        F = mk.MackeyFunctor(G, M.levels, {**M.gen_action, k: ragged})
        kept = fm._gen_format.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^gen {token} is ragged"):
                fm.serialize_mackey(F, "g.grp")
        assert fm._gen_format.cache_info().currsize == kept


@pytest.mark.parametrize("name", ["q%d.grp", "a%%b", "{0}"])
def test_the_writer_prints_a_group_file_name_literally(tmp_path, capsys, name):
    """mackey-fixed --group-file puts the name in the header as given: a
    % or a brace in it is never read as a format."""
    G = corpus_group("C4")
    M = mk.burnside_mackey(G)
    (tmp_path / "c4.grp").write_text(fm.serialize_group(G))
    (tmp_path / "m.mackey").write_text(fm.serialize_mackey(M, "c4.grp"))
    argv = ["mackey-fixed", str(tmp_path / "m.mackey"), "0,2", "--group-file", name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == f"mackey {name}"
    fixed = mk.categorical_fixed_points(M, g.quotient(G, g.make_subgroup(G, (0, 2))))
    assert out == serialize_mackey_oracle(fixed, name)


def test_mackey_parse_errors():
    G = corpus_group("C2")
    with pytest.raises(ParseError):
        fm.parse_mackey("mackey\n", G)
    with pytest.raises(ParseError):
        fm.parse_mackey("mackey g\nlevel 1 rank 1 torsion\n", G)
    with pytest.raises(ParseError):
        fm.parse_mackey(
            "mackey g\nlevel 0 rank 1 torsion\ngen 0:0:0:0:0 rows 1 cols 1\nx\n", G
        )


@pytest.mark.parametrize(
    "text,error",
    [
        (
            "mackey g\nlevel 1 rank 1 torsion\n\n\ngen 0:0:0:0,1:0,1 rows 1 cols 1\n1\n",
            "m:4: level indices must cover 0..n-1",
        ),
        ("mackey g\nlevel 1 rank 1 torsion\n\n", "m:3: level indices must cover 0..n-1"),
        (
            "mackey g\nlevel 0 rank 1 torsion\ngen 0:0:0:0,1:0,1 rows 1 cols 1\n1\n\n \n",
            "m:6: level count mismatch, witness=1",
        ),
    ],
    ids=["levels-before-a-gen-row", "levels-at-the-end", "structure-at-the-end"],
)
def test_mackey_errors_after_the_last_row_of_a_section(text, error):
    """An error found when the next row is not of the section just read
    names the line before that row, or the text's last line, blank or not,
    when no row is left."""
    with pytest.raises(ParseError) as err:
        fm.parse_mackey(text, corpus_group("C2"), source="m")
    assert str(err.value) == error


def test_mackey_rejects_a_repeated_gen_key():
    """The first `gen` block of the C2 Burnside file, appended again with
    each entry raised by 5, is an error at its header."""
    G = corpus_group("C2")
    lines = fm.serialize_mackey(mk.burnside_mackey(G), "c2.grp").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("gen "))
    height = int(lines[start].split()[3])
    shifted = [
        " ".join(str(int(v) + 5) for v in line.split())
        for line in lines[start + 1:start + 1 + height]
    ]
    text = "\n".join(lines + [lines[start]] + shifted) + "\n"
    with pytest.raises(ParseError) as err:
        fm.parse_mackey(text, G, source="m")
    assert str(err.value) == f"m:{len(lines) + 1}: repeated gen key 0:0:0:0,1:0,1"


def test_mackey_rejects_a_repeated_level_index():
    G = corpus_group("C2")
    lines = fm.serialize_mackey(mk.burnside_mackey(G), "c2.grp").splitlines()
    assert lines[1] == "level 0 rank 1 torsion"
    lines.insert(3, "level 0 rank 2 torsion")
    with pytest.raises(ParseError) as err:
        fm.parse_mackey("\n".join(lines) + "\n", G, source="m")
    assert str(err.value) == "m:4: repeated level 0"


@pytest.mark.parametrize("kind", ["group", "gset", "tower"])
def test_a_row_after_the_announced_rows_is_an_error(kind):
    """A group, G-set or tower file ends with the rows its header
    announces; a further row, even after blank lines, is an error at it."""
    S3 = corpus_group("S3")
    text, parse = {
        "group": (fm.serialize_group(S3), lambda t: fm.parse_group(t, "f")),
        "gset": (
            fm.serialize_gset(gs.canonical_gset(S3, (1, 3)), "s3.grp"),
            lambda t: fm.parse_gset(t, S3, "f"),
        ),
        "tower": (
            fm.serialize_tower(g.cyclic_tower(2, 3)),
            lambda t: fm.parse_tower(t, "f"),
        ),
    }[kind]
    lines = text.splitlines()
    parse(text + "\n\n")
    with pytest.raises(ParseError) as err:
        parse(text + "\n" + lines[-1] + "\n")
    assert str(err.value) == f"f:{len(lines) + 2}: expected end of file"


def test_a_tower_header_with_an_extra_field_is_an_error():
    text = fm.serialize_tower(g.cyclic_tower(2, 2)).replace("tower 2", "tower 2 0")
    with pytest.raises(ParseError) as err:
        fm.parse_tower(text, "t")
    assert str(err.value) == "t:1: tower header needs exactly one depth"


@pytest.mark.parametrize("field", ["rows", "cols"])
def test_a_negative_gen_count_is_an_error_on_the_gen_line(field):
    G = corpus_group("C2")
    lines = fm.serialize_mackey(mk.burnside_mackey(G), "c2.grp").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("gen "))
    tokens = lines[start].split()
    tokens[tokens.index(field) + 1] = "-1"
    lines[start] = " ".join(tokens)
    with pytest.raises(ParseError) as err:
        fm.parse_mackey("\n".join(lines) + "\n", G, source="m")
    assert str(err.value) == f"m:{start + 1}: gen rows and cols must be non-negative"


def test_load_group_missing_file():
    with pytest.raises(ParseError):
        fm.load_group("/nonexistent/file.grp")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding the group file `g.grp` (C2) that fuzzed G-set
    and Mackey headers can name."""
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "g.grp").write_text(fm.serialize_group(corpus_group("C2")))
    return directory


HEADERS = (b"group 2\n", b"tower 2\n", b"gset g.grp 2\n", b"mackey g.grp\n")


@given(
    st.one_of(
        st.binary(),
        st.builds(bytes.__add__, st.sampled_from(HEADERS), st.binary()),
    )
)
@example(b"\xff\xfe")
@example(b"gset \x00 1\n0 0\n")
def test_loaders_return_or_raise_parse_error_on_any_bytes(fuzz_dir, data):
    path = fuzz_dir / "input"
    path.write_bytes(data)
    for load in (fm.load_group, fm.load_tower, fm.load_gset, fm.load_mackey):
        try:
            load(str(path))
        except ParseError:
            pass


def _rows_outcome(text, read):
    """What `read(rows)` returns on the rows of text, with the line it
    leaves, or the message of the ParseError it raises."""
    rows = fm._Rows(text, "t")
    try:
        return "ok", tuple(map(tuple, read(rows))), rows.line
    except ParseError as exc:
        return "error", str(exc)


def _table_outcomes(text, height, width):
    """The outcomes of rows.table(height, width) and of height calls of
    rows.ints(width) written out here, after one header row: the table
    must read its rows as `ints` does, with a width of 0 reading none."""

    def as_table(rows):
        rows.next()
        return rows.table(height, width)

    def row_by_row(rows):
        rows.next()
        # a row of no integers is a blank line, which is never read
        return [rows.ints(width) for _ in range(height)] if width else [()] * height

    return _rows_outcome(text, as_table), _rows_outcome(text, row_by_row)


@pytest.mark.parametrize(
    "text, height, width, message",
    [
        ("h\n0 1\n", 2, 2, "t:2: unexpected end of file"),
        ("h\n0 1\n\n\n", 3, 2, "t:4: unexpected end of file"),
        ("h\n", 1, 2, "t:1: unexpected end of file"),
        ("h\n0 1\n\n1\n", 2, 2, "t:4: expected 2 integers, found 1"),
        ("h\n0 1 2\n", 1, 2, "t:2: expected 2 integers, found 3"),
        ("h\n0 1\n1 x\n", 2, 2, "t:3: expected integers"),
        ("h\n0 x\n1\n", 3, 2, "t:2: expected integers"),
        ("h\n0 1\n1\n", 3, 2, "t:3: expected 2 integers, found 1"),
    ],
)
def test_table_raises_what_ints_raises_row_by_row(text, height, width, message):
    as_table, row_by_row = _table_outcomes(text, height, width)
    assert as_table == row_by_row == ("error", message)


@pytest.mark.parametrize(
    "text, height, width, line",
    [
        ("h\n0 1\n\n1 0\nrest\n", 2, 2, 4),
        ("h\n0 1\n", 0, 2, 1),
        ("h\n", 0, 0, 1),
        ("h\n-1 +2\n", 1, 2, 2),
    ],
)
def test_table_reads_rows_and_leaves_the_line_where_ints_does(text, height, width, line):
    as_table, row_by_row = _table_outcomes(text, height, width)
    assert as_table == row_by_row
    assert as_table[0] == "ok" and as_table[2] == line


def test_table_leaves_the_row_after_it_ahead():
    rows = fm._Rows("h\n0 1\n1 0\n\ngen x\n", "t")
    rows.next()
    assert rows.table(2, 2) == ((0, 1), (1, 0))
    assert rows.more("gen") and rows.line == 4
    assert rows.next() == ["gen", "x"] and rows.line == 5


@given(
    st.lists(
        st.lists(st.sampled_from(["0", "1", "-2", "x", ""]), max_size=3), max_size=5
    ),
    st.integers(min_value=-1, max_value=5),
    st.integers(min_value=0, max_value=3),
)
def test_table_matches_ints_on_any_rows(lines, height, width):
    text = "\n".join(["h"] + [" ".join(fields) for fields in lines])
    as_table, row_by_row = _table_outcomes(text, height, width)
    assert as_table == row_by_row
