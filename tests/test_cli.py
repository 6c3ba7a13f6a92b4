import pytest

from profspan import formats as fm
from profspan import mackey as mk
from profspan import verify as vf
from profspan.cli import main
from profspan.corpus import corpus_group


@pytest.fixture
def files(tmp_path):
    G = corpus_group("C2")
    (tmp_path / "c2.grp").write_text(fm.serialize_group(G))
    C4 = corpus_group("C4")
    (tmp_path / "c4.grp").write_text(fm.serialize_group(C4))
    (tmp_path / "m.mackey").write_text(
        fm.serialize_mackey(mk.burnside_mackey(C4), "c4.grp")
    )
    return tmp_path


def test_group_show(files, capsys):
    assert main(["group-show", str(files / "c2.grp")]) == 0
    out = capsys.readouterr().out
    assert "group of order 2" in out
    assert "abelian: True" in out


def test_subgroups(files, capsys):
    assert main(["subgroups", str(files / "c4.grp")]) == 0
    out = capsys.readouterr().out
    assert out.count("class ") == 3


def test_tom_c2(files, capsys):
    assert main(["tom", str(files / "c2.grp")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["2 0", "1 1"]


def test_burnside_c2(files, capsys):
    assert main(["burnside", str(files / "c2.grp")]) == 0
    out = capsys.readouterr().out
    assert "b0 * b0 = 2 0" in out  # t^2 = 2t


def test_span_hom(files, capsys):
    G = corpus_group("C2")
    import profspan.gsets as gs

    (files / "x.gset").write_text(
        fm.serialize_gset(gs.canonical_gset(G, (0,)), "c2.grp")
    )
    assert main(["span-hom", str(files / "x.gset"), str(files / "x.gset")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "span hom basis: 2 classes"


def test_mackey_check_pass(files, capsys):
    assert main(["mackey-check", str(files / "m.mackey")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "PASS"


def test_mackey_check_fail(files, capsys):
    text = (files / "m.mackey").read_text()
    lines = text.splitlines()
    # corrupt the first matrix entry after a cross-level gen line
    idx = next(i for i, l in enumerate(lines) if l.startswith("gen 0:1")) + 1
    row = lines[idx].split()
    row[0] = str(int(row[0]) + 1)
    lines[idx] = " ".join(row)
    (files / "bad.mackey").write_text("\n".join(lines) + "\n")
    assert main(["mackey-check", str(files / "bad.mackey")]) == 1
    assert capsys.readouterr().out.startswith("FAIL")


def test_mackey_fixed(files, capsys):
    assert main(["mackey-fixed", str(files / "m.mackey"), "0,2"]) == 0
    out = capsys.readouterr().out
    parsed = fm.parse_mackey(out, corpus_group("C2"))
    assert mk.check_mackey(parsed)


def test_missing_file_exits_2(files, capsys):
    assert main(["tom", str(files / "nope.grp")]) == 2


def test_bad_tower_flag_exits_2(files, capsys):
    assert main(["--tower", "x,y", "verify", "mackey-limit"]) == 2


def test_unknown_verify_check_exits_2(capsys):
    assert main(["verify", "bogus"]) == 2


def test_no_verb_exits_2(capsys):
    assert main([]) == 2


def test_verify_adjunction(capsys):
    assert main(["--cap", "4", "verify", "adjunction"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "[adjunction]"
    assert "EXPECTED" in out


def test_verify_funcat_deterministic(capsys):
    assert main(["--seed", "3", "verify", "funcat"]) == 0
    first = capsys.readouterr().out
    assert main(["--seed", "3", "verify", "funcat"]) == 0
    assert capsys.readouterr().out == first


def test_verify_mackey_limit(capsys):
    assert main(["--tower", "2,2", "verify", "mackey-limit"]) == 0
    out = capsys.readouterr().out
    assert "negative control" in out


def test_report_objects_render_pass():
    r = vf.verify_colim_gset(2, 2, 2)
    assert r.ok and r.render().splitlines()[0] == "PASS"
    r = vf.verify_colim_span(2, 2, 2)
    assert r.ok
    r = vf.verify_limit_span(2, 2, 2)
    assert r.ok


def test_report_fail_render():
    r = vf.Report("x", False, "some witness")
    assert r.render().splitlines()[0] == "FAIL some witness"


def test_non_prime_tower_exits_2(capsys):
    assert main(["--tower", "4,2", "verify", "colim-gset"]) == 2
    assert capsys.readouterr().err.startswith("error: 4 is not prime")


def test_non_normal_kernel_exits_2(tmp_path, capsys):
    G = corpus_group("S3")
    (tmp_path / "s3.grp").write_text(fm.serialize_group(G))
    (tmp_path / "m.mackey").write_text(
        fm.serialize_mackey(mk.burnside_mackey(G), "s3.grp")
    )
    t = next(x for x in G.elements() if G.element_order(x) == 2)
    assert main(["mackey-fixed", str(tmp_path / "m.mackey"), f"0,{t}"]) == 2
    assert capsys.readouterr().err.startswith("error: subgroup is not normal")


def test_negative_cap_exits_2(capsys):
    assert main(["--cap", "-1", "verify", "adjunction"]) == 2
    assert "--cap" in capsys.readouterr().err
