import copy
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from profspan import cli
from profspan import formats as fm
from profspan import groups as g
from profspan import gsets as gs
from profspan import mackey as mk
from profspan import spans as sp
from profspan import verify as vf
from profspan.cli import main
from profspan.corpus import corpus_group
from profspan.errors import ParseError, Verdict

from oracles import element_order
from test_census import _clear_package_caches
from test_cli_golden import CASES, GOLDEN, run, write_input_files


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


def _mackey_check_in_1536_mb(path):
    """`profspan mackey-check path`, run in a child limited to 1.5 GB of
    address space."""
    limit = (
        "import resource, runpy, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20)); "
        "sys.argv = ['profspan'] + sys.argv[1:]; "
        "runpy.run_module('profspan', run_name='__main__')"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-c", limit, "mackey-check", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )


@pytest.mark.parametrize("height", [2, 10**9])
def test_a_tall_zero_width_gen_block_is_a_shape_error(tmp_path, height):
    """A matrix with no columns takes no lines, so its height costs the
    file nothing; the reader keeps no more rows of it than the shape check
    needs.  The CLI runs in a child limited to 1.5 GB of address space, in
    which a billion empty rows do not fit."""
    G = g.cyclic(1)
    (tmp_path / "c1.grp").write_text(fm.serialize_group(G))
    lines = fm.serialize_mackey(mk.burnside_mackey(G), "c1.grp").splitlines()
    assert lines[2:] == ["gen 0:0:0:0:0 rows 1 cols 1", "1"]
    lines[2:] = [f"gen 0:0:0:0:0 rows {height} cols 0"]
    path = tmp_path / "m.mackey"
    path.write_text("\n".join(lines) + "\n")
    proc = _mackey_check_in_1536_mb(path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: {path}:3: matrix shape mismatch, witness=(0, 0, (0, (0,), (0,)))\n"
    )


def test_a_tall_zero_width_block_of_a_tall_level_is_an_error(tmp_path):
    """A level's rank costs the file one token, so the dims of the levels
    do not bound a zero-width block: a billion empty rows from the free
    C2-orbit to a level of rank 10⁹ have the right shape.  The reader
    keeps no more rows than the file has lines, and the file, which has no
    identity block of that level, is an input error."""
    G = g.cyclic(2)
    (tmp_path / "c2.grp").write_text(fm.serialize_group(G))
    text = (
        "mackey c2.grp\n"
        "level 0 rank 0 torsion\n"
        "level 1 rank 1000000000 torsion\n"
        "gen 0:1:0:0,1:0,0 rows 1000000000 cols 0\n"
    )
    path = tmp_path / "m.mackey"
    path.write_text(text)
    assert "0:1:0:0,1:0,0" in fm._key_table(G)
    proc = _mackey_check_in_1536_mb(path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: {path}:4: missing generator action, "
        "witness=(0, 0, (0, (0, 1), (0, 1)))\n"
    )


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


# The loaders of the verbs keep each parsed file for the process, keyed by
# its text and the group its header resolves to (formats._parsed).


def _main(argv, capsys):
    """The exit code, stdout and stderr of `profspan argv`, run in process."""
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_a_rewritten_file_is_not_kept_by_its_path(tmp_path, capsys):
    """C4 and C2xC2 have tables of the same size, so only the text tells
    the two files apart."""
    path = tmp_path / "g.grp"
    reports = []
    for name in ("C4", "C2xC2", "C4"):
        path.write_text(fm.serialize_group(corpus_group(name)))
        reports.append(_main(["subgroups", path], capsys))
    assert [out.count("\nclass ") for _, out, _ in reports] == [3, 5, 3]
    assert reports[0] == reports[2]


@pytest.mark.parametrize("kind", ["gset", "mackey"])
def test_a_file_is_kept_over_the_text_of_its_group_file(tmp_path, capsys, kind):
    """The G-set or Mackey file stays as it is while the group file it
    names is rewritten from C4 to C2xC2: the trivial G-set of one point is
    read over the new group, and the Burnside file of C4 no longer has a
    level per subgroup class."""
    group = tmp_path / "g.grp"
    group.write_text(fm.serialize_group(corpus_group("C4")))
    path = tmp_path / f"x.{kind}"
    if kind == "gset":
        path.write_text("gset g.grp 1\n0 0 0 0\n")
        argv = ["span-hom", path, path]
    else:
        M = mk.burnside_mackey(corpus_group("C4"))
        path.write_text(fm.serialize_mackey(M, "g.grp"))
        argv = ["mackey-check", path]
    before = _main(argv, capsys)
    group.write_text(fm.serialize_group(corpus_group("C2xC2")))
    after = _main(argv, capsys)
    if kind == "gset":
        assert before[0] == after[0] == 0
        assert before[1].startswith("span hom basis: 3 classes\n")
        assert after[1].startswith("span hom basis: 5 classes\n")
    else:
        assert before == (0, "PASS\nlevels: 3, generators: 21\n", "")
        code, out, err = after
        assert (code, out) == (2, "") and err.startswith(f"error: {path}:")
        assert err.endswith(": level count mismatch, witness=3\n")


def test_a_malformed_file_is_never_kept(tmp_path, capsys):
    """A good read at a path, then two of malformed bytes there and one of
    the same bytes at another path: each failed read gives its own path's
    error line and exit 2, and the good bytes read again as before."""
    good = fm.serialize_group(corpus_group("S3"))
    bad = good.rsplit(" ", 1)[0] + "\n"  # the last row one entry short
    path, other = tmp_path / "g.grp", tmp_path / "h.grp"
    path.write_text(good)
    first = _main(["group-show", path], capsys)
    assert first[0] == 0
    path.write_text(bad)
    other.write_text(bad)
    error = "expected 6 integers, found 5"
    for target in (path, path, other, path):
        assert _main(["group-show", target], capsys) == (
            2, "", f"error: {target}:7: {error}\n"
        )
    path.write_text(good)
    assert _main(["group-show", path], capsys) == first


def test_the_same_bytes_are_kept_as_one_object(files, capsys):
    """A second load of unchanged bytes, at the same path or another,
    returns the object of the first, and a G-set is read over the group
    object of its group file."""
    mackey = files / "m.mackey"
    (files / "copy.mackey").write_text(mackey.read_text())
    M = fm.load_mackey(str(mackey))
    first = _main(["mackey-check", mackey], capsys)
    assert _main(["mackey-check", mackey], capsys) == first
    assert fm.load_mackey(str(mackey)) is M
    assert fm.load_mackey(str(files / "copy.mackey")) is M
    assert fm.load_group(str(files / "c4.grp")) is M.group
    (files / "x.gset").write_text("gset c2.grp 1\n0 0\n")
    X = fm.load_gset(str(files / "x.gset"))
    assert fm.load_gset(str(files / "x.gset")) is X
    assert X.group is fm.load_group(str(files / "c2.grp"))


def test_kept_files_are_read_cold_after_the_census_clears_the_caches(files, capsys):
    mackey = files / "m.mackey"
    M = fm.load_mackey(str(mackey))
    first = _main(["mackey-fixed", mackey, "0,2"], capsys)
    _clear_package_caches()
    assert fm._parsed.cache_info().currsize == 0
    again = fm.load_mackey(str(mackey))
    assert again is not M and again == M
    assert fm._parsed.cache_info().misses == 2  # the Mackey file and its group
    assert _main(["mackey-fixed", mackey, "0,2"], capsys) == first


def _file_verb_argvs(directory):
    """Every file-verb case of the goldens, and each verb on each input
    file of write_input_files that it reads: the group verbs on every
    group file, span-hom on every pair of G-set files, mackey-check and
    mackey-fixed by the trivial subgroup on every Mackey file."""
    argvs = [
        [a.format(dir=directory) for a in argv]
        for argv in CASES.values()
        if any("{dir}" in a for a in argv)
    ]
    for path in sorted(map(str, directory.iterdir())):
        if path.endswith(".grp"):
            verbs = ("group-show", "subgroups", "tom", "burnside")
            argvs += [[verb, path] for verb in verbs]
        elif path.endswith(".mackey"):
            argvs += [["mackey-check", path], ["mackey-fixed", path, "0"]]
    gsets = sorted(str(p) for p in directory.glob("*.gset"))
    argvs += [["span-hom", x, y] for x in gsets for y in gsets]
    return argvs


def test_verbs_leave_the_kept_files_unchanged(tmp_path, capsys):
    """Each file verb, run twice in process on each input file of the
    goldens, prints the same bytes both times, and leaves the kept
    MackeyFunctor's gen_action equal to a deep copy taken before."""
    write_input_files(tmp_path)
    for argv in _file_verb_argvs(tmp_path):
        kept = None
        if argv[0].startswith("mackey-"):
            try:
                kept = fm.load_mackey(argv[1])
            except ParseError:
                pass
            else:
                before = copy.deepcopy(kept.gen_action)
        first = _main(argv, capsys)
        assert _main(argv, capsys) == first, argv
        if kept is not None:
            assert fm.load_mackey(argv[1]) is kept
            assert kept.gen_action == before, argv


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


def test_importing_the_cli_loads_no_dataclasses_machinery():
    """`import profspan.cli` in a fresh interpreter loads neither
    dataclasses nor inspect, which it pulls in with ast, dis and tokenize:
    the package's value classes are written out by hand."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = "import sys, profspan.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


VALUE_CLASSES = [
    g.FiniteGroup, g.Subgroup, g.SubgroupLattice, g.QuotientMap, g.GroupTower,
    gs.GSet, mk.AbPresentation, mk.MackeyFunctor, sp.BurnsideTables, Verdict,
]


def _value_cases():
    """Per value class: its field names, the fields of one instance, and
    the fields of another instance of it."""
    C2, C4 = corpus_group("C2"), corpus_group("C4")
    q = g.quotient(C4, g.make_subgroup(C4, (0, 2)))
    t2, t3 = g.cyclic_tower(2, 2), g.cyclic_tower(2, 3)
    X, Y = gs.tables(C4).orbit(1), gs.tables(C4).orbit(0)
    M = mk.burnside_mackey(C2)

    def fields(value, names):
        return tuple(getattr(value, f) for f in names)

    lattice = ("group", "subgroups", "normal", "classes", "conjugators")
    quotient = ("source", "kernel", "target", "projection")
    tables = ("class_orders", "marks", "ring")
    return {
        g.FiniteGroup: (("mult",), (C4.mult,), (C2.mult,)),
        g.Subgroup: (("parent", "elements"), (C4, (0, 2)), (C4, (0,))),
        g.SubgroupLattice: (
            lattice,
            fields(g.subgroup_lattice(C4), lattice),
            fields(g.subgroup_lattice(C2), lattice),
        ),
        g.QuotientMap: (quotient, fields(q, quotient), fields(t3.links[1], quotient)),
        g.GroupTower: (("stages", "links"), (t2.stages, t2.links), (t3.stages, t3.links)),
        gs.GSet: (("group", "action"), (X.group, X.action), (Y.group, Y.action)),
        mk.AbPresentation: (("rank", "invariant_factors"), (1, (2, 4)), (1, (2,))),
        mk.MackeyFunctor: (
            ("group", "levels", "gen_action"),
            (M.group, M.levels, M.gen_action),
            (M.group, M.levels, dict.fromkeys(M.gen_action, ())),
        ),
        sp.BurnsideTables: (
            tables, fields(sp.burnside_tables(C4), tables),
            fields(sp.burnside_tables(C2), tables),
        ),
        Verdict: (
            ("ok", "reason", "witness", "lines"),
            (False, "reason", (0, 1), ["a line"]),
            (False, "reason", (0, 1), []),
        ),
    }


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_value_semantics_of_the_value_classes(cls, files, capsys):
    """Each value class, built positionally or by keyword, equals another
    built from copies of the same fields and hashes as the tuple of its
    fields (or, holding a list or dict, is unhashable as that tuple is);
    another field value, or another class with the same attributes, is
    unequal; and a frozen one refuses to assign or delete a field."""
    cases = _value_cases()
    names, fields, other = cases[cls]
    a = cls(*fields)
    b = cls(**dict(zip(names, copy.deepcopy(fields))))
    assert a == b and not a != b and a is not b
    assert tuple(getattr(b, f) for f in names) == fields
    if cls in (Verdict, mk.MackeyFunctor):
        for value in (a, fields):
            with pytest.raises(TypeError):
                hash(value)
    else:
        assert hash(a) == hash(b) == hash(fields)
        assert hash(a) == hash(a) and a == b  # a kept hash changes neither
    assert a != cls(*other) and cls(*other) != a
    assert a != SimpleNamespace(**dict(zip(names, fields)))
    assert all(a != cls2(*f) for cls2, (_, f, _) in cases.items() if cls2 is not cls)
    if cls is Verdict:
        b.reason = "another"
        assert a != b
        # a new list of report lines each time: with a shared one, each
        # in-process mackey-check run on one file would print one more
        # `levels:` line
        assert Verdict(True).lines is not Verdict(True).lines
        assert Verdict(True) == Verdict(True, "", None, [])
        argv = ["mackey-check", files / "m.mackey"]
        first = _main(argv, capsys)
        assert first == (0, "PASS\nlevels: 3, generators: 21\n", "")
        assert _main(argv, capsys) == first
        return
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(getattr(a, f) for f in names) == fields
    if cls is mk.AbPresentation:
        assert cls(3) == cls(3, ())
        for args in ((-1,), (1, (4, 2)), (0, (1,))):
            with pytest.raises(ValueError):
                cls(*args)
