import gc
import hashlib
import json
import sys

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
    limit = sys.getrecursionlimit()
    path = write(tmp_path, "q.cob", "check id[p] = id[p]\n")
    assert run(capsys, "check", path) == (0, "", "")
    assert seen == [(*before[:2], 1 << 30)]
    assert gc.get_threshold() == before
    assert sys.getrecursionlimit() == limit


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
    assert err == f"error: {path}:1:14: expected an object, found 'end of input'\n"


@pytest.mark.parametrize("line,col,message", [
    ("check id[p] = id[p] . sigma[p,q", 32, "expected ']', found 'end of input'"),
    ("arrow f : p -> q (x = id[p]", 18, "unexpected trailing input '('"),
    ("arrow g :p->\tq* ( = id[p]", 17, "unexpected trailing input '('"),
    ("arrow h : ( -> p = id[p]", 12, "expected an object, found 'end of input'"),
    ("  obj  bb   =  (p", 18, "expected ')', found 'end of input'"),
    ("decompose  p q", 14, "unexpected trailing input 'q'"),
    ("interpret\tid[p] x", 17, "unexpected trailing input 'x'"),
])
def test_parse_error_column_counts_from_line_start(tmp_path, capsys, line, col, message):
    path = write(tmp_path, "col.cob", f"mode ccb\n{line}  # comment\n")
    code, out, err = run(capsys, "check", path)
    assert (code, out) == (3, "")
    assert err == f"error: {path}:2:{col}: {message}\n"


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_type_mismatch_names_file_line(tmp_path, capsys, fmt):
    path = write(tmp_path, "cmp.cob", "mode smcb\ncheck id[p] = id[q]\n")
    code, out, err = run(capsys, "check", "--format", fmt, path)
    assert (code, out) == (3, "")
    assert err == f"error: {path}:2: cannot compare p -> p with q -> q\n"


@pytest.mark.parametrize("command", ["check", "normalize"])
def test_directive_error_names_file_line(tmp_path, capsys, command):
    # the error a directive raises after parsing names its line; the same
    # error for an inline expression has no place to name
    path = write(tmp_path, "eta.cob", "mode ccb\nnormalize eta[p]\n")
    code, out, err = run(capsys, command, path)
    assert (code, out) == (3, "")
    assert err == f"error: {path}:2: unary eta/eps not allowed in smcb mode\n"
    code, out, err = run(capsys, "normalize", "eta[p]", "--mode", "ccb")
    assert (code, out) == (3, "")
    assert err == "error: unary eta/eps not allowed in smcb mode\n"


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
    ("interpret", False), ("decompose", False),
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


def test_deep_chain_normalizes_from_a_file(tmp_path):
    import subprocess
    import sys

    # the normalizer walks the term on an explicit stack
    chain = " . ".join(["id[p]"] * 15000)
    arg = write(tmp_path, "deep.cob", f"normalize {chain}\n")
    r = subprocess.run([sys.executable, "-m", "cobeq.cli", "normalize", arg],
                       capture_output=True, text=True)
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.startswith("termmatrix 1x1\n")


@pytest.mark.parametrize("target,argv,body", [
    ("decide_equal", ["check"], "check id[p] = id[p]"),
    ("parse_arrow", ["check"], "check id[p] = id[p]"),
    ("interpret_arrow", ["interpret"], "interpret id[p]"),
    ("interpret_arrow", ["interpret", "id[p]"], None),
    ("interpret_arrow", ["render", "id[p]"], None),
    ("axiom_suite", ["selftest"], None),
])
def test_out_of_memory_exits_3_in_every_command(tmp_path, capsys, monkeypatch,
                                                target, argv, body):
    """A query file names the line that ran out; an inline one cannot."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"cobeq.cli.{target}", exhausted)
    where = ""
    if body is not None:
        path = write(tmp_path, "q.cob", f"mode smcb\n{body}\n")
        argv, where = argv + [path], f"{path}:2: "
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"error: {where}out of memory\n"  # no traceback


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


#: query files of the CLI output corpus: one directive of each kind, two of
#: each kind that prints a matrix or components, and checks only
SHOW_FILES = {
    "all.cob": """# one directive of each kind
mode smcb
obj a = p (+) q
arrow res : a -> a = inj1[p,q] . proj1[p,q] + inj2[p,q] . proj2[p,q]
check res = id[a]
normalize inj1[p,q] . proj1[p,q]
interpret hom(sigma[p,q], inj1[q,r])
decompose a (x) (r -o a)
""",
    "two.cob": """mode ccb
obj b = p* (+) I
normalize id[p]
interpret eps[p] . sigma[p*,p] . eta[p]
normalize sigma[p,q]
interpret id[b] (+) zero[q,p]
decompose b (x) b
decompose (p (+) q)*
""",
    "checks.cob": "check id[p] = zero[p,p]\ncheck sigma[q,p] . sigma[p,q] = id[p (x) q]\n",
}

#: argv of each call of the CLI output corpus
SHOW_CALLS = [
    *[[cmd, arg, *fmt]
      for cmd, inline in [("normalize", "inj1[p,q]"),
                          ("interpret", "sigma[p,q]"),
                          ("decompose", "(p (+) q) (x) r")]
      for arg in [inline, "all.cob", "two.cob"]
      for fmt in [[], ["--format", "json"]]],
    *[["interpret", arg, "-v", *fmt]
      for arg in ["hom(sigma[p,q],inj1[q,r])", "all.cob", "two.cob"]
      for fmt in [[], ["--format", "json"]]],
    ["interpret", "eps[p] . sigma[p*,p] . eta[p]", "--mode", "ccb"],
    ["decompose", "p* (x) (q (+) 0)", "--mode", "dccb", "--format", "json"],
    ["render", "sigma[p,q]"],
    ["render", "proj1[p,q] (+) eta[p, q (+) I]"],
    ["render", "dg(eta[p])", "--mode", "dccb"],
    *[["check", path, *fmt] for path in ["all.cob", "two.cob", "checks.cob"]
      for fmt in [[], ["--format", "json"]]],
    *[[cmd, "--help"] for cmd in
      ["check", "normalize", "interpret", "decompose", "render", "selftest"]],
    ["--help"],
    ["interpret"],
    ["decompose", "p", "--format", "xml"],
    ["normalize", "checks.cob"],
    ["interpret", "checks.cob", "--format", "json"],
    ["decompose", "checks.cob"],
    ["interpret", "nosuch . id[p]"],
    ["normalize", "nosuch", "--format", "json"],
    ["interpret", "eta[p]"],
    ["decompose", "p -o q", "--mode", "ccb"],
    ["normalize", "eta[p]", "--mode", "ccb"],
    ["render", "dg(id[p])"],
]

SHOW_DIGEST = "f771dcaecd5ad92eca2ae6c0965bf8c6e514691026ee0e868d7e14e945ec9a3c"


def show_corpus_digest(call) -> str:
    """sha256 over the argv, exit code, stdout and stderr of every call of
    the corpus; `call(argv)` returns `(code, out, err)`."""
    digest = hashlib.sha256()
    for argv in SHOW_CALLS:
        digest.update(json.dumps([argv, *call(argv)]).encode())
    return digest.hexdigest()


def test_show_output_bytes(tmp_path, capsys, monkeypatch):
    """Every show command in text and JSON, inline and from files, `-v`,
    `render`, `check`, `--help` and usage errors, and the errors for a file
    without matching directives, an unknown arrow and a mode violation,
    pinned by one sha256."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    for name, body in SHOW_FILES.items():
        write(tmp_path, name, body)

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        return code, out.out, out.err

    assert show_corpus_digest(call) == SHOW_DIGEST
