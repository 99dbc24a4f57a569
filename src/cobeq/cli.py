"""Command-line front end.

Query files hold a mode declaration, named object and arrow definitions, and
directives (`check f = g`, `normalize f`, `interpret f`, `decompose a`); `#`
starts a line comment.  The `check` command runs a whole file; `normalize`,
`interpret` and `decompose` accept either a file (running their matching
directives) or an inline expression; `render` writes the interpreted matrix
of an inline expression as DOT; `selftest` runs the axiom battery.

Exit codes for `check`: 0 all equal, 1 some not-equal, 2 some inconclusive,
3 on any error.  `selftest` exits 0 exactly when no family fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from .biproduct import decompose
from .cob import CobMatrix, matrix_to_json, matrix_to_text
from .decide import axiom_suite, decide_equal
from .interp import (
    interpret_arrow, normalize_syntactic, term_matrix_to_json,
    term_matrix_to_text,
)
from .syntax import (
    Arrow, LangError, Mode, Obj, ParseError, TypeMismatch, infer_type,
    is_reserved_word, parse_arrow, parse_object, render_arrow, render_object,
)


class CliError(LangError):
    pass


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*$")

#: the message for a term nested past the recursion limit
_TOO_DEEP = "term nests too deeply"


@contextmanager
def _depth_guard(where: str | None):
    """Report a term nested past the recursion limit as a `CliError` that
    names `where` (`FILE:LINE`, or None for an inline expression)."""
    try:
        yield
    except RecursionError:
        raise CliError(f"{where}: {_TOO_DEEP}" if where else _TOO_DEEP) from None


@dataclass
class Directive:
    kind: str  # check | normalize | interpret | decompose
    line: int
    text: str
    lhs: Arrow | None = None
    rhs: Arrow | None = None
    term: Arrow | None = None
    obj: Obj | None = None


@dataclass
class QueryFile:
    path: str
    mode: Mode
    defs: dict
    directives: list[Directive]


def _check_name(name: str, defs: dict) -> None:
    if not _NAME_RE.match(name):
        raise ParseError(f"bad name {name!r}")
    if is_reserved_word(name):
        raise ParseError(f"{name!r} is a reserved word")
    if name in defs:
        raise ParseError(f"{name!r} is already defined")


def load_query_file(path: str, default_mode: Mode) -> QueryFile:
    mode = default_mode
    saw_statement = False
    defs: dict = {}
    directives: list[Directive] = []
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        # the bad byte starts or continues the last line of the valid prefix
        ln = len((data[:e.start].decode("utf-8") + "x").splitlines())
        raise CliError(f"{path}:{ln}: not valid UTF-8 "
                       f"(byte 0x{data[e.start]:02x})") from None
    for ln, raw in enumerate(lines, start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        parts = stmt.split(None, 1)
        head, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        try:
            if head == "mode":
                if saw_statement:
                    raise ParseError("mode must be the first statement")
                try:
                    mode = Mode(rest.strip())
                except ValueError:
                    raise ParseError(f"unknown mode {rest.strip()!r}") from None
            elif head == "obj":
                name, eq, expr = rest.partition("=")
                if not eq:
                    raise ParseError("expected '=' in obj definition")
                name = name.strip()
                _check_name(name, defs)
                defs[name] = parse_object(expr.strip(), mode, defs)
            elif head == "arrow":
                decl, eq, expr = rest.partition("=")
                if not eq:
                    raise ParseError("expected '=' in arrow definition")
                namepart, colon, ann = decl.partition(":")
                if not colon:
                    raise ParseError("expected ':' in arrow declaration")
                name = namepart.strip()
                _check_name(name, defs)
                s_text, sep, t_text = ann.partition("->")
                if not sep:
                    raise ParseError("expected '->' in arrow type annotation")
                src = parse_object(s_text.strip(), mode, defs)
                tgt = parse_object(t_text.strip(), mode, defs)
                term = parse_arrow(expr.strip(), mode, defs)
                got = infer_type(term)
                if got != (src, tgt):
                    raise TypeMismatch(
                        f"arrow {name!r} declared "
                        f"{render_object(src)} -> {render_object(tgt)} but has type "
                        f"{render_object(got[0])} -> {render_object(got[1])}")
                defs[name] = term
            elif head == "check":
                l_text, eq, r_text = rest.partition("=")
                if not eq:
                    raise ParseError("check needs the form 'check f = g'")
                directives.append(Directive(
                    "check", ln, rest.strip(),
                    lhs=parse_arrow(l_text.strip(), mode, defs),
                    rhs=parse_arrow(r_text.strip(), mode, defs)))
            elif head in ("normalize", "interpret"):
                directives.append(Directive(
                    head, ln, rest.strip(),
                    term=parse_arrow(rest.strip(), mode, defs)))
            elif head == "decompose":
                directives.append(Directive(
                    "decompose", ln, rest.strip(),
                    obj=parse_object(rest.strip(), mode, defs)))
            else:
                raise ParseError(f"unknown statement {head!r}")
        except CliError:
            raise
        except ParseError as e:
            col = f":{e.pos + 1}" if e.pos is not None else ""
            raise CliError(f"{path}:{ln}{col}: {e.message}") from None
        except LangError as e:
            raise CliError(f"{path}:{ln}: {e}") from None
        except RecursionError:
            raise CliError(f"{path}:{ln}: {_TOO_DEEP}") from None
        saw_statement = True
    return QueryFile(path, mode, defs, directives)


# ---------------------------------------------------------------------------
# Output helpers


def _indent(text: str) -> str:
    return "\n".join("  " + line for line in text.splitlines())


def decomposition_to_text(a: Obj) -> str:
    d = decompose(a)
    lines = [f"object: {render_object(a)}", f"components: {len(d)}"]
    for i, (c, inj, proj) in enumerate(zip(d.components, d.injections,
                                           d.projections)):
        lines.append(f"[{i}] {render_object(c)}")
        lines.append(f"    inj: {render_arrow(inj)}")
        lines.append(f"    proj: {render_arrow(proj)}")
    return "\n".join(lines)


def decomposition_to_json(a: Obj) -> dict:
    d = decompose(a)
    return {
        "object": render_object(a),
        "components": [
            {"component": render_object(c), "inj": render_arrow(inj),
             "proj": render_arrow(proj)}
            for c, inj, proj in zip(d.components, d.injections, d.projections)
        ],
    }


def matrix_to_dot(m: CobMatrix) -> str:
    """One digraph per matrix entry: source points on the top rank, target
    points on the bottom, matching pairs as undirected edges, orientation as
    node labels and the circle count as a plaintext node."""
    graphs = []
    for i, row in enumerate(m.entries):
        for j, e in enumerate(row):
            lines = [f"digraph entry_{i}_{j} {{", "  rankdir=TB;",
                     f'  graph [label="entry ({i},{j}): [{m.col_types[j]}] -> '
                     f'[{m.row_types[i]}]"];']
            if not e.elements:
                lines.append('  zero [shape=plaintext, label="zero"];')
            for k, c in enumerate(e.elements):
                ns = len(c.source)

                def node(x, k=k, ns=ns):
                    return f"c{k}s{x}" if x < ns else f"c{k}t{x - ns}"

                srcs = "; ".join(f'c{k}s{x} [label="{c.source[x]}"]'
                                 for x in range(ns))
                tgts = "; ".join(f'c{k}t{x} [label="{c.target[x]}"]'
                                 for x in range(len(c.target)))
                if srcs:
                    lines.append("  { rank=source; " + srcs + "; }")
                if tgts:
                    lines.append("  { rank=sink; " + tgts + "; }")
                for x, y in c.pairs:
                    lines.append(f"  {node(x)} -> {node(y)} [dir=none];")
                lines.append(f'  c{k}meta [shape=plaintext, label="circles: {c.circles}"];')
            lines.append("}")
            graphs.append("\n".join(lines))
    return "\n\n".join(graphs) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _run_directives(qf: QueryFile, fmt: str) -> tuple[str, int]:
    as_json = fmt == "json"
    results: list = []  # text blocks, or JSON objects when `as_json`
    saw_ne = saw_inc = False
    for d in qf.directives:
        head = {"directive": d.kind, "line": d.line, "text": d.text}
        with _depth_guard(f"{qf.path}:{d.line}"):
            if d.kind == "check":
                v = decide_equal(d.lhs, d.rhs, certificate=as_json)
                saw_ne = saw_ne or v.kind == "not-equal"
                saw_inc = saw_inc or v.kind == "inconclusive"
                if as_json:
                    results.append({**head, **v.to_json()})
                else:
                    results.append(f"check {d.text}: {v.summary()}")
            elif d.kind == "normalize":
                tm = normalize_syntactic(d.term)
                if as_json:
                    results.append({**head, "matrix": term_matrix_to_json(tm)})
                else:
                    results.append(f"normalize {d.text}:\n"
                                   + _indent(term_matrix_to_text(tm)))
            elif d.kind == "interpret":
                m = interpret_arrow(d.term, qf.mode)
                if as_json:
                    results.append({**head, "matrix": matrix_to_json(m)})
                else:
                    results.append(f"interpret {d.text}:\n"
                                   + _indent(matrix_to_text(m)))
            elif as_json:
                results.append({**head, **decomposition_to_json(d.obj)})
            else:
                results.append(f"decompose {d.text}:\n"
                               + _indent(decomposition_to_text(d.obj)))
    code = 1 if saw_ne else 2 if saw_inc else 0
    if as_json:
        out = json.dumps({"file": qf.path, "mode": str(qf.mode),
                          "results": results, "exit": code}, indent=2)
    else:
        out = "\n".join(results)
    return out, code


def cmd_check(args) -> int:
    qf = load_query_file(args.path, Mode(args.mode))
    out, code = _run_directives(qf, args.format)
    print(out)
    return code


def _gather(arg: str, mode: Mode, kind: str):
    """Directives of one kind from a file, or a single inline expression,
    each with the `FILE:LINE` it came from (None when inline)."""
    if os.path.isfile(arg):
        qf = load_query_file(arg, mode)
        items = [(f"{arg}:{d.line}", d) for d in qf.directives if d.kind == kind]
        if not items:
            raise CliError(f"no {kind} directives in {arg}")
        return qf.mode, items
    with _depth_guard(None):
        if kind == "decompose":
            d = Directive(kind, 0, arg, obj=parse_object(arg, mode))
        else:
            d = Directive(kind, 0, arg, term=parse_arrow(arg, mode))
    return mode, [(None, d)]


def cmd_normalize(args) -> int:
    _, items = _gather(args.input, Mode(args.mode), "normalize")
    outs = []
    for where, d in items:
        with _depth_guard(where):
            tm = normalize_syntactic(d.term)
            outs.append(term_matrix_to_json(tm) if args.format == "json"
                        else term_matrix_to_text(tm))
    print(json.dumps(outs if len(outs) > 1 else outs[0], indent=2)
          if args.format == "json" else "\n\n".join(outs))
    return 0


def cmd_interpret(args) -> int:
    mode, items = _gather(args.input, Mode(args.mode), "interpret")
    outs = []
    for where, d in items:
        with _depth_guard(where):
            m = interpret_arrow(d.term, mode)
            if args.format == "json":
                blob = {"matrix": matrix_to_json(m)}
                if args.verbose:
                    src, tgt = infer_type(d.term)
                    blob["source"] = decomposition_to_json(src)
                    blob["target"] = decomposition_to_json(tgt)
                outs.append(blob)
            else:
                chunks = [matrix_to_text(m)]
                if args.verbose:
                    src, tgt = infer_type(d.term)
                    chunks.append("source " + decomposition_to_text(src))
                    chunks.append("target " + decomposition_to_text(tgt))
                outs.append("\n".join(chunks))
    print(json.dumps(outs if len(outs) > 1 else outs[0], indent=2)
          if args.format == "json" else "\n\n".join(outs))
    return 0


def cmd_decompose(args) -> int:
    _, items = _gather(args.input, Mode(args.mode), "decompose")
    outs = []
    for where, d in items:
        with _depth_guard(where):
            outs.append(decomposition_to_json(d.obj) if args.format == "json"
                        else decomposition_to_text(d.obj))
    print(json.dumps(outs if len(outs) > 1 else outs[0], indent=2)
          if args.format == "json" else "\n\n".join(outs))
    return 0


def cmd_render(args) -> int:
    mode = Mode(args.mode)
    with _depth_guard(None):
        dot = matrix_to_dot(interpret_arrow(parse_arrow(args.expr, mode), mode))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        print(dot, end="")
    return 0


def cmd_selftest(args) -> int:
    report = axiom_suite(Mode(args.mode), object_depth=args.depth,
                         instance_count=args.instances, seed=args.seed)
    print(json.dumps(report.to_json(), indent=2) if args.format == "json"
          else report.to_text())
    return 0 if report.total_failures == 0 else 1


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    parse.__name__ = "int"  # argparse's "invalid int value" names the type
    return parse


def _build_parser() -> argparse.ArgumentParser:
    from . import __version__

    ap = argparse.ArgumentParser(
        prog="cobeq",
        description="Decide equality of diagram terms by evaluating them "
                    "into matrices of 1-dimensional cobordisms.")
    ap.add_argument("--version", action="version",
                    version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt=True):
        p.add_argument("--mode", choices=[m.value for m in Mode],
                       default="smcb", help="language dialect")
        if fmt:
            p.add_argument("--format", choices=["text", "json"],
                           default="text", help="output format")

    p = sub.add_parser("check", help="run the directives of a query file")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("normalize",
                       help="print the term matrix of an arrow (smcb)")
    p.add_argument("input", help="file with normalize directives, or an arrow")
    common(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("interpret", help="print the cobordism matrix of an arrow")
    p.add_argument("input", help="file with interpret directives, or an arrow")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print the endpoint decompositions")
    common(p)
    p.set_defaults(func=cmd_interpret)

    p = sub.add_parser("decompose", help="print the components of an object")
    p.add_argument("input", help="file with decompose directives, or an object")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("render", help="write the matrix of an arrow as DOT")
    p.add_argument("expr", help="an arrow expression")
    p.add_argument("--out", help="output path (stdout when omitted)")
    common(p, fmt=False)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("selftest", help="run the axiom battery")
    p.add_argument("--depth", type=_int_at_least(0), default=2,
                   help="object depth bound")
    p.add_argument("--instances", type=_int_at_least(1), default=25,
                   help="instances per axiom family")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # iterated expansion and evaluation recurse over term trees
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 30000))
    # the evaluation caches only grow during a call, so a full collection
    # walks every cached matrix and frees nothing: skip it, keep the young ones
    thresholds = gc.get_threshold()
    gc.set_threshold(*thresholds[:2], 1 << 30)
    try:
        return args.func(args)
    except (LangError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
