import os
import subprocess
import sys
from pathlib import Path

import pytest

from profspan import cli
from profspan import formats as fm
from profspan import groups as g
from profspan import gsets as gs
from profspan import mackey as mk
from profspan import verify as vf
from profspan.cli import main
from profspan.corpus import corpus_group
from profspan.errors import Verdict

from oracles import element_order
from test_cli_golden import CASES, GOLDEN, run


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


def _without_last(files, prefix):
    """The Burnside file of C4 cut off at its last line starting with prefix."""
    lines = (files / "m.mackey").read_text().splitlines()
    cut = max(i for i, line in enumerate(lines) if line.startswith(prefix))
    path = files / "cut.mackey"
    path.write_text("\n".join(lines[:cut]) + "\n")
    return str(path)


def test_mackey_check_missing_gen_exits_2(files, capsys):
    assert main(["mackey-check", _without_last(files, "gen ")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing generator action" in err


def test_mackey_fixed_missing_gen_exits_2(files, capsys):
    assert main(["mackey-fixed", _without_last(files, "gen "), "0,2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing generator action" in err


def test_mackey_check_extra_gen_exits_2(files, capsys):
    # legs 9 do not exist on the 4-point orbits of C4
    text = (files / "m.mackey").read_text()
    extra = "gen 0:0:0:9,9,9,9:9,9,9,9 rows 2 cols 2\n1 0\n0 1\n"
    (files / "extra.mackey").write_text(text + extra)
    assert main(["mackey-check", str(files / "extra.mackey")]) == 2
    assert "off the span basis" in capsys.readouterr().err


def test_mackey_too_few_levels_exits_2(files, capsys):
    text = (files / "m.mackey").read_text()
    last_level = [l for l in text.splitlines() if l.startswith("level ")][-1]
    (files / "short.mackey").write_text(text.replace(last_level + "\n", ""))
    assert main(["mackey-fixed", str(files / "short.mackey"), "0,2"]) == 2
    assert "level count mismatch" in capsys.readouterr().err


def test_missing_file_exits_2(files, capsys):
    assert main(["tom", str(files / "nope.grp")]) == 2


def test_undecodable_file_exits_2(files, capsys):
    (files / "bad.grp").write_bytes(b"\xff\xfegroup 2\n")
    assert main(["group-show", str(files / "bad.grp")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_negative_gset_size_exits_2(files, capsys):
    (files / "neg.gset").write_text("gset c2.grp -1\n")
    path = str(files / "neg.gset")
    assert main(["span-hom", path, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "gset size must be non-negative" in err


def test_adjunction_below_cap_4_exits_2(capsys):
    assert main(["--cap", "3", "verify", "adjunction"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--cap >= 4" in err


@pytest.mark.parametrize("check", ["mackey-limit", "colim-span", "limit-span"])
def test_depth_1_tower_exits_2(check, capsys):
    assert main(["--tower", "2,1", "verify", check]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "depth >= 2" in captured.err


@pytest.mark.parametrize(
    "flags", [["--tower", "2,1"], ["--cap", "3"]], ids=["depth-1", "cap-3"]
)
def test_verify_all_checks_every_minimum_first(flags, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("colim-gset ran before the minima were checked")

    monkeypatch.setattr(vf, "verify_colim_gset", refuse)
    assert main([*flags, "verify", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_bad_tower_flag_exits_2(files, capsys):
    assert main(["--tower", "x,y", "verify", "mackey-limit"]) == 2


class _TowerBuilt(Exception):
    pass


def _refuse_to_build(monkeypatch):
    def refuse(p, depth):
        raise _TowerBuilt(p, depth)

    monkeypatch.setattr(g, "cyclic_tower", refuse)


@pytest.mark.parametrize(
    "tower,order",
    [("2,11", "2**11"), ("1031,1", "1031"), ("3,100000000", "3**100000000")],
)
def test_tower_above_the_order_bound_exits_2_before_it_is_built(
    tower, order, monkeypatch, capsys
):
    """The bound is tested before the tower is built or p is tested for
    primality (1031 is prime), and without computing p**depth in full."""
    _refuse_to_build(monkeypatch)
    assert main(["--tower", tower, "verify", "funcat"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: <args>:0: --tower {tower} has a top stage of order {order}, "
        f"above the bound {cli.MAX_TOWER_ORDER}\n"
    )


@pytest.mark.parametrize("cap", ["17", "2500"])
def test_cap_above_the_bound_exits_2_before_any_object_is_built(
    cap, monkeypatch, capsys
):
    def refuse(G, size_cap):
        raise AssertionError("enumerated the capped G-sets")

    monkeypatch.setattr(gs, "gset_isoclasses", refuse)
    assert main(["--tower", "2,1", "--cap", cap, "verify", "colim-gset"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [
        f"profspan: error: argument --cap: expected an integer "
        f"<= {cli.MAX_SIZE_CAP}, got '{cap}'"
    ]


def test_cap_at_the_bound_is_accepted():
    assert cli.MAX_SIZE_CAP == 16
    assert cli._build_parser().parse_args(["--cap", "16", "verify"]).cap == 16


@pytest.mark.parametrize("tower", ["2,10", "1021,1", "4,5"])
def test_tower_at_or_below_the_order_bound_is_built(tower, monkeypatch):
    assert cli.MAX_TOWER_ORDER == 1024
    _refuse_to_build(monkeypatch)
    p, depth = (int(v) for v in tower.split(","))
    with pytest.raises(_TowerBuilt) as built:
        main(["--tower", tower, "verify", "funcat"])
    assert built.value.args == (p, depth)


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
    tower = g.cyclic_tower(2, 2)
    r = vf.verify_colim_gset(tower, 2)
    assert r.ok and r.render().splitlines()[0] == "PASS"
    r = vf.verify_colim_span(tower)
    assert r.ok
    r = vf.verify_limit_span(tower)
    assert r.ok


def test_report_fail_render():
    r = Verdict(False, "some reason")
    assert r.render().splitlines()[0] == "FAIL some reason"
    r = Verdict(False, "some reason", (0, 1), ["a line"])
    assert r.render() == "FAIL some reason (witness (0, 1))\na line"
    assert Verdict(True, "", (0, 1), ["a line"]).render() == "PASS\na line"


def test_non_prime_tower_exits_2(capsys):
    assert main(["--tower", "4,2", "verify", "colim-gset"]) == 2
    assert capsys.readouterr().err.startswith("error: 4 is not prime")


def test_non_normal_kernel_exits_2(tmp_path, capsys):
    G = corpus_group("S3")
    (tmp_path / "s3.grp").write_text(fm.serialize_group(G))
    (tmp_path / "m.mackey").write_text(
        fm.serialize_mackey(mk.burnside_mackey(G), "s3.grp")
    )
    t = next(x for x in G.elements() if element_order(G, x) == 2)
    assert main(["mackey-fixed", str(tmp_path / "m.mackey"), f"0,{t}"]) == 2
    assert capsys.readouterr().err.startswith("error: subgroup is not normal")


@pytest.mark.parametrize("kernel", ["0,99", "0,-1"])
def test_kernel_element_out_of_range_exits_2(tmp_path, capsys, kernel):
    G = corpus_group("C4")
    (tmp_path / "c4.grp").write_text(fm.serialize_group(G))
    (tmp_path / "m.mackey").write_text(
        fm.serialize_mackey(mk.burnside_mackey(G), "c4.grp")
    )
    assert main(["mackey-fixed", str(tmp_path / "m.mackey"), kernel]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: <args>:0: invalid kernel: ")
    assert len(err.splitlines()) == 1, err


def test_negative_cap_exits_2(capsys):
    assert main(["--cap", "-1", "verify", "adjunction"]) == 2
    assert "--cap" in capsys.readouterr().err


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_seed_does_not_leak_into_the_next_call(capsys):
    assert main(["--seed", "3", "verify", "funcat"]) == 0
    assert "seed 3" in capsys.readouterr().out.splitlines()
    assert main(["verify", "funcat"]) == 0
    assert "seed 0" in capsys.readouterr().out.splitlines()


def test_rejected_cap_does_not_leak_into_the_next_call(tmp_path, capsys):
    assert main(["--cap", "-1", "verify", "funcat"]) == 2
    capsys.readouterr()
    expected = (GOLDEN / "funcat-seed0.txt").read_text()
    assert run(CASES["funcat-seed0"], tmp_path) == expected


def test_group_file_does_not_leak_into_the_next_call(files, capsys):
    mackey = str(files / "m.mackey")
    assert main(["mackey-fixed", mackey, "0,2", "--group-file", "x.grp"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "mackey x.grp"
    assert main(["mackey-fixed", mackey, "0,2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "mackey quotient.grp"


@pytest.mark.parametrize("name", ["", " ", "a b", "x.grp\n", "\tx.grp"])
def test_group_file_that_is_empty_or_has_whitespace_exits_2(files, capsys, name):
    """The name is the second field of the output's header, so a name that
    splits into more or fewer fields would print a file that does not
    parse."""
    mackey = str(files / "m.mackey")
    assert main(["mackey-fixed", mackey, "0,2", "--group-file", name]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: <args>:0: --group-file needs a name, got {name!r}\n"


def test_closed_stdout_ends_quietly():
    # the parent closes its only read end of the pipe, so every write of
    # the child fails as if `| head` had exited
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "profspan.cli", "--cap", "4", "verify", "colim-span"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_python_m_profspan_prints_the_golden_report():
    """`python -m profspan` runs the CLI: the `--cap 4 verify all` report
    and exit code match the in-process golden."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "profspan", "--cap", "4", "verify", "all"],
        capture_output=True,
        text=True,
        env=env,
    )
    expected = (GOLDEN / "verify-all-cap4.txt").read_text()
    assert f"exit {proc.returncode}\n{proc.stdout}" == expected
    assert proc.stderr == ""
