import gc
import json

import pytest

from cobeq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


def test_check_all_equal(tmp_path, capsys):
    path = write(tmp_path, "ok.cob", """
# biproduct resolution of the identity
mode smcb
obj a = p (+) q
arrow res : a -> a = inj1[p,q] . proj1[p,q] + inj2[p,q] . proj2[p,q]
check res = id[a]
""")
    code, out, err = run(capsys, "check", path)
    assert code == 0 and err == ""
    assert "check res = id[a]: equal" in out


def test_check_not_equal_exit_code(tmp_path, capsys):
    path = write(tmp_path, "ne.cob", "check id[p] = zero[p,p]\n")
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert "not-equal" in out


def test_check_inconclusive_exit_code(tmp_path, capsys):
    path = write(tmp_path, "inc.cob", """
obj h = p -o I
check id[h] = lambda[h] . lambda'[h]
""")
    code, out, _ = run(capsys, "check", path)
    assert code == 2
    assert "inconclusive: " in out


def test_check_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.cob", "check id[p] = id[\n")
    code, out, err = run(capsys, "check", path)
    assert code == 3
    assert "bad.cob:1" in err


def test_full_collections_skipped_during_a_call_only(tmp_path, capsys, monkeypatch):
    seen = []
    monkeypatch.setattr("cobeq.cli.cmd_check",
                        lambda args: seen.append(gc.get_threshold()) or 0)
    before = gc.get_threshold()
    path = write(tmp_path, "q.cob", "check id[p] = id[p]\n")
    assert run(capsys, "check", path) == (0, "", "")
    assert seen == [(*before[:2], 1 << 30)]
    assert gc.get_threshold() == before


def test_check_non_utf8_file_exits_3(tmp_path, capsys):
    path = tmp_path / "latin1.cob"
    path.write_bytes(b"check id[p] = id[p]\n# caf\xe9 \xff\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 3 and out == ""
    assert err == f"error: {path}:2: not valid UTF-8 (byte 0xe9)\n"


def test_text_check_builds_no_json(tmp_path, capsys, monkeypatch):
    from cobeq.decide import Verdict

    def boom(self):
        raise AssertionError("to_json called in text mode")

    monkeypatch.setattr(Verdict, "to_json", boom)
    path = write(tmp_path, "ne.cob", "check id[p (x) p] = sigma[p,p]\n")
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert out == "check id[p (x) p] = sigma[p,p]: not-equal\n"


@pytest.mark.parametrize("flag,value,low", [
    ("--depth", "-1", 0), ("--instances", "-3", 1), ("--instances", "0", 1),
])
def test_selftest_rejects_out_of_range_counts(capsys, flag, value, low):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: cobeq selftest")
    assert f"argument {flag}: must be at least {low}, got {value}" in err


def test_check_reports_file_line_col(tmp_path, capsys):
    path = write(tmp_path, "bad2.cob", "obj a = p (x)\ncheck id[p] = id[p]\n")
    code, _, err = run(capsys, "check", path)
    assert code == 3
    assert "bad2.cob:1:" in err


def test_mode_must_come_first(tmp_path, capsys):
    path = write(tmp_path, "late.cob", "obj a = p\nmode ccb\n")
    code, _, err = run(capsys, "check", path)
    assert code == 3
    assert "mode must be the first statement" in err


def test_arrow_annotation_checked(tmp_path, capsys):
    path = write(tmp_path, "ann.cob", "arrow f : p -> q = id[p]\n")
    code, _, err = run(capsys, "check", path)
    assert code == 3
    assert "declared" in err


def test_file_mode_applies_to_directives(tmp_path, capsys):
    path = write(tmp_path, "cc.cob", """
mode ccb
arrow loop : I -> I = eps[p] . sigma[p*, p] . eta[p]
check loop = loop
interpret loop
""")
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert "circles=1" in out


def test_normalize_inline(capsys):
    code, out, _ = run(capsys, "normalize", "inj1[p,q]")
    assert code == 0
    assert "entry 0 0: id[p]" in out
    assert "entry 1 0: 0" in out


def test_normalize_json(capsys):
    code, out, _ = run(capsys, "normalize", "inj1[p,q]", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["entries"] == [[["id[p]"]], [[]]]


def test_interpret_inline_and_verbose(capsys):
    code, out, _ = run(capsys, "interpret", "sigma[p,q]")
    assert code == 0
    assert "cobmatrix 1x1" in out
    code, out, _ = run(capsys, "interpret", "id[p (+) q]", "--verbose")
    assert code == 0
    assert "source object: p (+) q" in out or "components: 2" in out


def test_interpret_ccb_flag(capsys):
    code, out, _ = run(capsys, "interpret", "eps[p] . sigma[p*,p] . eta[p]",
                       "--mode", "ccb")
    assert code == 0
    assert "circles=1" in out


def test_decompose_inline(capsys):
    code, out, _ = run(capsys, "decompose", "(p (+) q) (x) r")
    assert code == 0
    assert "components: 2" in out
    assert "inj: (inj1[p,q] . id[p]) (x) id[r]" in out


def test_render_dot(tmp_path, capsys):
    out_path = tmp_path / "m.dot"
    code, _, _ = run(capsys, "render", "sigma[p,q]", "--out", str(out_path))
    assert code == 0
    dot = out_path.read_text()
    assert dot.startswith("digraph entry_0_0 {")
    assert 'rank=source' in dot and 'rank=sink' in dot
    assert "dir=none" in dot
    assert 'label="circles: 0"' in dot


def test_render_stdout(capsys):
    code, out, _ = run(capsys, "render", "eta[p]", "--mode", "ccb")
    assert code == 0
    assert out.count("digraph") == 1


def test_selftest_exit_and_determinism(capsys):
    args = ("selftest", "--mode", "dccb", "--depth", "2",
            "--instances", "3", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "0 failures" in out1


def test_selftest_json(capsys):
    code, out, _ = run(capsys, "selftest", "--depth", "1", "--instances", "2",
                       "--seed", "1", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["total_failures"] == 0


def test_check_json_round_trip(tmp_path, capsys):
    path = write(tmp_path, "j.cob", "check id[p] = zero[p,p]\n")
    code, out, _ = run(capsys, "check", path, "--format", "json")
    assert code == 1
    blob = json.loads(out)
    (res,) = blob["results"]
    assert res["verdict"] == "not-equal"
    assert res["certificate"]["lhs_image"]["shape"] == [1, 1]


def test_unknown_name_reported(capsys):
    code, _, err = run(capsys, "interpret", "nosuch . id[p]")
    assert code == 3
    assert "unknown arrow" in err


def test_normalize_rejects_non_smcb(capsys):
    code, _, err = run(capsys, "normalize", "eta[p]", "--mode", "ccb")
    assert code == 3
    assert err.startswith("error: ")


def test_console_script_deterministic_across_processes(tmp_path):
    import subprocess
    import sys

    path = write(tmp_path, "d.cob", """
mode smcb
obj a = p (+) (q -o r)
check inj1[p, q -o r] . proj1[p, q -o r] + inj2[p, q -o r] . proj2[p, q -o r] = id[a]
interpret eta[p, q (+) r]
""")
    cmd = [sys.executable, "-m", "cobeq.cli", "check", path, "--format", "json"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    json.loads(r1.stdout)


def test_too_deep_term_exits_3_without_traceback(tmp_path):
    import subprocess
    import sys

    chain = " . ".join(["id[p]"] * 40000)
    path = write(tmp_path, "deep.cob", f"check {chain} = id[p]\n")
    # its own interpreter: should the C stack run out before the recursion
    # limit, this test fails and the rest of the suite still runs
    r = subprocess.run([sys.executable, "-m", "cobeq.cli", "check", path],
                       capture_output=True, text=True)
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr == f"error: {path}:1: term nests too deeply\n"  # no traceback


@pytest.mark.parametrize("command,inline", [
    ("interpret", False), ("normalize", False), ("decompose", False),
    ("interpret", True), ("render", True), ("decompose", True),
])
def test_too_deep_input_exits_3_in_every_command(tmp_path, command, inline):
    import subprocess
    import sys

    expr = ("(" * 15000 + "p" + ")" * 15000 if command == "decompose"
            else " . ".join(["id[p]"] * 15000))
    if inline:
        arg, where = expr, ""
    else:
        arg = write(tmp_path, "deep.cob", f"{command} {expr}\n")
        where = f"{arg}:1: "
    r = subprocess.run([sys.executable, "-m", "cobeq.cli", command, arg],
                       capture_output=True, text=True)
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr == f"error: {where}term nests too deeply\n"


def test_decompose_of_a_long_tensor_product():
    """A 15 000-factor product is parsed with every node hashed as it is
    built, so hashing it in `decompose`'s cache needs no deep recursion."""
    import subprocess
    import sys

    expr = " (x) ".join(["p"] * 15000)
    r = subprocess.run([sys.executable, "-m", "cobeq.cli", "decompose", expr],
                       capture_output=True, text=True)
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout == (f"object: {expr}\ncomponents: 1\n[0] {expr}\n"
                        f"    inj: id[{expr}]\n    proj: id[{expr}]\n")
