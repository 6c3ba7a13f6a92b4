import pytest
from hypothesis import example, given, strategies as st

from profspan import formats as fm
from profspan import groups as g
from profspan import gsets as gs
from profspan import mackey as mk
from profspan import spans as sp
from profspan.corpus import corpus_group
from profspan.errors import ParseError

from oracles import canonical_key, point_gset


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
    rows.ints(width), after one header row."""

    def one_pass(rows):
        rows.next()
        return rows.table(height, width)

    def row_by_row(rows):
        rows.next()
        # a row of no integers is a blank line, which is never read
        return [rows.ints(width) for _ in range(height)] if width else [()] * height

    return _rows_outcome(text, one_pass), _rows_outcome(text, row_by_row)


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
    one_pass, row_by_row = _table_outcomes(text, height, width)
    assert one_pass == row_by_row == ("error", message)


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
    one_pass, row_by_row = _table_outcomes(text, height, width)
    assert one_pass == row_by_row
    assert one_pass[0] == "ok" and one_pass[2] == line


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
    one_pass, row_by_row = _table_outcomes(text, height, width)
    assert one_pass == row_by_row
