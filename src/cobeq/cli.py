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

#: the message for each resource a query can run out of: the recursion
#: limit, which a term nested too deeply reaches, and memory
_EXHAUSTED = {RecursionError: "term nests too deeply", MemoryError: "out of memory"}

#: the errors of a query that `_located` reports
_QUERY_ERRORS = (LangError, *_EXHAUSTED)


def _located(e: LangError | RecursionError | MemoryError,
             where: str | None) -> LangError:
    """The error to report for `e`, one of `_QUERY_ERRORS`, raised by the
    query at `where` (`FILE:LINE`, or None for an inline expression): a
    `CliError` that names `where`, and a parse error's column after it.  An
    error that cannot name a `where`, or is a `CliError` already, stays as it
    is, except that running out of a resource always becomes a `CliError`."""
    exhausted = _EXHAUSTED.get(type(e))
    if exhausted is not None:
        return CliError(f"{where}: {exhausted}" if where else exhausted)
    if where is None or isinstance(e, CliError):
        return e
    if isinstance(e, ParseError) and e.pos is not None:
        return CliError(f"{where}:{e.pos + 1}: {e.message}")
    return CliError(f"{where}: {e}")


@contextmanager
def _guard(where: str | None):
    """Raise an error of the query at `where` as `_located` reports it."""
    try:
        yield
    except _QUERY_ERRORS as e:
        raise _located(e, where) from None


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

    def parse(parser, text: str, at: int):
        """`parser` of `text`, stripped, where `text` starts at index `at` of
        its line; a parse error's position then counts from the line start."""
        try:
            return parser(text.strip(), mode, defs)
        except ParseError as e:
            if e.pos is None:
                raise
            raise ParseError(e.message, e.pos + at + len(text) - len(text.lstrip())) from None

    for ln, raw in enumerate(lines, start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        parts = stmt.split(None, 1)
        head, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        # index of `rest` in the line; each expression parsed below is a
        # prefix or a suffix of `rest`, or a suffix of its prefix `decl`
        at = len(raw) - len(raw.lstrip()) + len(stmt) - len(rest)
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
                defs[name] = parse(parse_object, expr, at + len(rest) - len(expr))
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
                src = parse(parse_object, s_text, at + len(decl) - len(ann))
                tgt = parse(parse_object, t_text, at + len(decl) - len(t_text))
                term = parse(parse_arrow, expr, at + len(rest) - len(expr))
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
                    "check", ln, rest,
                    lhs=parse(parse_arrow, l_text, at),
                    rhs=parse(parse_arrow, r_text, at + len(rest) - len(r_text))))
            elif head in ("normalize", "interpret"):
                directives.append(Directive(head, ln, rest,
                                            term=parse(parse_arrow, rest, at)))
            elif head == "decompose":
                directives.append(Directive(head, ln, rest,
                                            obj=parse(parse_object, rest, at)))
            else:
                raise ParseError(f"unknown statement {head!r}")
        except _QUERY_ERRORS as e:
            raise _located(e, f"{path}:{ln}") from None
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


def _show(d: Directive, as_json: bool, verbose: bool = False):
    """The output of a normalize, interpret or decompose directive: a text
    block, or a JSON value when `as_json`; `verbose` adds the endpoint
    decompositions of an interpreted arrow."""
    if d.kind == "decompose":
        return (decomposition_to_json if as_json else decomposition_to_text)(d.obj)
    if d.kind == "normalize":
        tm = normalize_syntactic(d.term)
        return (term_matrix_to_json if as_json else term_matrix_to_text)(tm)
    m = interpret_arrow(d.term)  # the parser has checked the mode
    ends = zip(("source", "target"), infer_type(d.term)) if verbose else ()
    if as_json:
        return {"matrix": matrix_to_json(m),
                **{side: decomposition_to_json(a) for side, a in ends}}
    return "\n".join([matrix_to_text(m),
                      *[f"{side} {decomposition_to_text(a)}" for side, a in ends]])


def _run_directives(qf: QueryFile, fmt: str) -> tuple[str, int]:
    as_json = fmt == "json"
    results: list = []  # text blocks, or JSON objects when `as_json`
    saw_ne = saw_inc = False
    for d in qf.directives:
        with _guard(f"{qf.path}:{d.line}"):
            if d.kind == "check":
                v = decide_equal(d.lhs, d.rhs, certificate=as_json)
                saw_ne = saw_ne or v.kind == "not-equal"
                saw_inc = saw_inc or v.kind == "inconclusive"
                out = v.to_json() if as_json else v.summary()
            else:
                out = _show(d, as_json)
        if as_json:
            head = {"directive": d.kind, "line": d.line, "text": d.text}
            results.append({**head, **({"matrix": out} if d.kind == "normalize" else out)})
        elif d.kind == "check":
            results.append(f"check {d.text}: {out}")
        else:
            results.append(f"{d.kind} {d.text}:\n" + _indent(out))
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


def cmd_show(args) -> int:
    """`normalize`, `interpret` or `decompose`: the matching directives of a
    query file, or one inline expression."""
    kind, arg, mode = args.command, args.input, Mode(args.mode)
    if os.path.isfile(arg):
        qf = load_query_file(arg, mode)
        items = [(f"{arg}:{d.line}", d) for d in qf.directives if d.kind == kind]
        if not items:
            raise CliError(f"no {kind} directives in {arg}")
    else:
        with _guard(None):
            if kind == "decompose":
                d = Directive(kind, 0, arg, obj=parse_object(arg, mode))
            else:
                d = Directive(kind, 0, arg, term=parse_arrow(arg, mode))
        items = [(None, d)]
    as_json = args.format == "json"
    outs = []
    for where, d in items:
        with _guard(where):
            outs.append(_show(d, as_json, args.verbose))
    print(json.dumps(outs if len(outs) > 1 else outs[0], indent=2)
          if as_json else "\n\n".join(outs))
    return 0


def cmd_render(args) -> int:
    mode = Mode(args.mode)
    with _guard(None):
        dot = matrix_to_dot(interpret_arrow(parse_arrow(args.expr, mode)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        print(dot, end="")
    return 0


def cmd_selftest(args) -> int:
    with _guard(None):
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

    for kind, what, help in [
        ("normalize", "an arrow", "print the term matrix of an arrow (smcb)"),
        ("interpret", "an arrow", "print the cobordism matrix of an arrow"),
        ("decompose", "an object", "print the components of an object"),
    ]:
        p = sub.add_parser(kind, help=help)
        p.add_argument("input", help=f"file with {kind} directives, or {what}")
        if kind == "interpret":
            p.add_argument("-v", "--verbose", action="store_true",
                           help="also print the endpoint decompositions")
        common(p)
        p.set_defaults(func=cmd_show, verbose=False)

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


#: the recursion limit during a call, since the parser's nested groups,
#: evaluation and the object folds recurse over term trees.
#: Before 3.11 each Python call also takes C stack: under an 8 MiB stack (Python 3.10.13), parsing nested
#: parentheses crashes the interpreter at a limit of 17500, while
#: `decompose` of a 15,000-factor product needs a little over 15000.
_RECURSION_LIMIT = 30000 if sys.version_info >= (3, 11) else 16000


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, _RECURSION_LIMIT))
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
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    sys.exit(main())
