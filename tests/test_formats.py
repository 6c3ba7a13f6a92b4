import pytest
from hypothesis import example, given, strategies as st

from profspan import formats as fm
from profspan import groups as g
from profspan import gsets as gs
from profspan import mackey as mk
from profspan.corpus import corpus_group
from profspan.errors import ParseError


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
