"""Spans around the calls into cobeq's public functions, and the per-layer
metrics derived from them.

A span is recorded by rebinding a name in the module that makes the call
(for example `cobeq.interp.mat_hom`), so nothing under `src/` changes.  A
function that calls itself through its module global (`card_matrix`,
`expand_derived`) gets one span for the outermost call; the inner calls only
add to its `calls` count.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

# (module, attribute, span name)
BINDINGS = (
    ("cobeq.cli", "load_query_file", "cli.load"),
    ("cobeq.cli", "parse_arrow", "syntax.parse"),
    ("cobeq.cli", "parse_object", "syntax.parse"),
    ("cobeq.cli", "infer_type", "syntax.infer_type"),
    ("cobeq.decide", "infer_type", "syntax.infer_type"),
    ("cobeq.interp", "infer_type", "syntax.infer_type"),
    ("cobeq.generate", "infer_type", "syntax.infer_type"),
    ("cobeq.syntax", "infer_type", "syntax.infer_type"),
    ("cobeq.decide", "expand_derived", "syntax.expand_derived"),
    ("cobeq.syntax", "expand_derived", "syntax.expand_derived"),
    ("cobeq.cli", "decide_equal", "decide.decide_equal"),
    ("cobeq.cli", "axiom_suite", "decide.axiom_suite"),
    ("cobeq.decide", "card_matrix", "decide.card_matrix"),
    ("cobeq.decide", "Verdict.to_json", "decide.certificate_json"),
    ("cobeq.decide", "improper_subformula", "biproduct.properness"),
    ("cobeq.cli", "interpret_arrow", "interp.interpret_arrow"),
    ("cobeq.decide", "interpret_arrow", "interp.interpret_arrow"),
    ("cobeq.interp", "mat_compose", "cob.compose"),
    ("cobeq.interp", "mat_add", "cob.add"),
    ("cobeq.interp", "mat_tensor", "cob.tensor"),
    ("cobeq.interp", "mat_dsum", "cob.dsum"),
    ("cobeq.interp", "mat_hom", "cob.hom"),
    ("cobeq.interp", "mat_dagger", "cob.dagger"),
    ("cobeq.cli", "matrix_to_json", "cob.serialize"),
    ("cobeq.cli", "matrix_to_text", "cob.serialize"),
    ("cobeq.decide", "matrix_to_json", "cob.serialize"),
    ("cobeq.decide", "matrix_to_text", "cob.serialize"),
    ("cobeq.decide", "random_arrow", "generate.build"),
    ("cobeq.decide", "random_arrow_with_source", "generate.build"),
    ("cobeq.decide", "random_object", "generate.build"),
    ("cobeq.decide", "same_type_variant", "generate.build"),
)

COB_OPS = ("compose", "add", "tensor", "dsum", "hom", "dagger")

#: time spent by the tracer's own counting, kept out of its parent's self time
HOOK = "trace.count"

# functools caches read at exit: (module, attribute, metric base name)
CACHES = (
    ("cobeq.interp", "_eval", "interp.eval_cache"),
    ("cobeq.interp", "_object_value", "interp.object_cache"),
    ("cobeq.biproduct", "decompose", "biproduct.decompose_cache"),
)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Keeps spans in memory: [name, start_ns, end_ns, parent, item, counts].

    `item` numbers the calls of the item function (one `check`, or one
    evaluation of the battery); spans outside an item carry -1.
    """

    def __init__(self, item_binding: tuple[str, str]):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1
        self.items = 0
        self.cards: list = []
        for module, attr, span in BINDINGS:
            owner, name = _resolve(module, attr)
            fn = getattr(owner, name)
            setattr(owner, name, self._wrap(fn, span, (module, attr) == item_binding))

    def _name(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
        return self.names.index(span)

    def _hook(self, t0: int, parent: int) -> None:
        self.spans.append([self._name(HOOK), t0, perf_counter_ns(), parent,
                           self.item, None])

    def _wrap(self, fn, span: str, is_item: bool):
        n = self._name(span)
        spans, stack = self.spans, self.stack
        pre, post = _hooks(self, span)

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == n:
                top = spans[stack[-1]]
                top[5] = top[5] or {}
                top[5]["calls"] = top[5].get("calls", 1) + 1
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            outer_item = self.item
            if is_item and outer_item < 0:
                self.item = self.items
                self.items += 1
            counts = None
            if pre is not None:
                h = perf_counter_ns()
                counts = pre(parent, args)
                self._hook(h, parent)
            sid = len(spans)
            rec = [n, perf_counter_ns(), 0, parent, self.item, counts]
            spans.append(rec)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
                self.item = outer_item
            if post is not None:
                h = perf_counter_ns()
                extra = post(parent, out)
                if extra:
                    rec[5] = {**(rec[5] or {}), **extra}
                self._hook(h, parent)
            return out

        return traced

    def report(self) -> dict:
        caches = {}
        for module, attr, base in CACHES:
            owner, name = _resolve(module, attr)
            info = getattr(owner, name).cache_info()
            caches[base] = [info.hits, info.misses, info.currsize]
        return {"names": self.names, "spans": self.spans, "caches": caches}


def _hooks(tr: Tracer, span: str):
    """Counting hooks for a span name: pre(parent, args) -> counts and
    post(parent, result) -> counts, either may be None."""
    from cobeq.syntax import subarrows

    def parent_is(parent: int, prefix: str) -> bool:
        return parent >= 0 and tr.names[tr.spans[parent][0]].startswith(prefix)

    if span.startswith("cob.") and span != "cob.serialize":
        def matrix_counts(parent, m):
            nnz = mass = 0
            for row in m.entries:
                for e in row:
                    if e.elements:
                        nnz += 1
                        mass += len(e.elements)
            return {"cells": len(m.row_types) * len(m.col_types),
                    "nnz": nnz, "mass": mass}
        return None, matrix_counts
    if span == "syntax.expand_derived":
        def term_nodes(parent, args):
            if parent_is(parent, "decide."):
                return {"nodes": sum(1 for _ in subarrows(args[0]))}
            return None
        return term_nodes, None
    if span == "decide.decide_equal":
        def start(parent, args):
            tr.cards = []
            return None

        def reject(parent, verdict):
            # the pre-check ran when both card matrices were built
            if len(tr.cards) != 2:
                return {"reached": 0, "rejected": 0}
            a, b = tr.cards
            return {"reached": 1,
                    "rejected": int(a.shape != b.shape or bool((a != b).any()))}
        return start, reject
    if span == "decide.card_matrix":
        def keep(parent, card):
            if parent_is(parent, "decide.decide_equal"):
                tr.cards.append(card)
            return None
        return None, keep
    return None, None


# ---------------------------------------------------------------------------
# Deriving the per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(reports: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics, per CLI call, from the span reports of the traced
    calls.  Returns (metrics, bases): `bases` gives each ratio's numerator
    and denominator, and each cache's hits, misses and current size."""
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    peak_cells = 0
    caches = {base: [0, 0, 0] for _, _, base in CACHES}
    for rep in reports:
        names, spans = rep["names"], rep["spans"]
        covered = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        for s, cov in zip(spans, covered):
            name = names[s[0]]
            self_ns[name] = self_ns.get(name, 0) + (s[2] - s[1]) - cov
            extra = s[5] or {}
            calls[name] = calls.get(name, 0) + extra.get("calls", 1)
            for key, v in extra.items():
                if key != "calls":
                    counts[key] = counts.get(key, 0) + v
            if "cells" in extra:
                peak_cells = max(peak_cells, extra["cells"])
        for base, (hits, misses, size) in rep["caches"].items():
            acc = caches[base]
            acc[0] += hits
            acc[1] += misses
            acc[2] = max(acc[2], size)

    n = max(1, len(reports))

    def sec(name):
        return self_ns.get(name, 0) / 1e9 / n

    def per_call(name):
        return calls.get(name, 0) / n

    m = {
        "cli.load_s": sec("cli.load"),
        "syntax.parse_s": sec("syntax.parse"),
        "syntax.infer_type_s": sec("syntax.infer_type"),
        "syntax.infer_type_calls": per_call("syntax.infer_type"),
        "syntax.expand_derived_s": sec("syntax.expand_derived"),
        "syntax.term_nodes": counts.get("nodes", 0) / n,
        "decide.decide_equal_self_s": sec("decide.decide_equal"),
        "decide.card_matrix_s": sec("decide.card_matrix"),
        "decide.card_matrix_calls": per_call("decide.card_matrix"),
        "decide.card_reject_ratio": _ratio(counts.get("rejected", 0),
                                           counts.get("reached", 0)),
        "decide.certificate_json_s": sec("decide.certificate_json"),
        "biproduct.properness_s": sec("biproduct.properness"),
        "interp.interpret_arrow_self_s": sec("interp.interpret_arrow"),
        "interp.interpret_arrow_calls": per_call("interp.interpret_arrow"),
    }
    bases = {"decide.card_reject_ratio": [counts.get("rejected", 0),
                                          counts.get("reached", 0)]}
    for base, (hits, misses, size) in caches.items():
        m[f"{base}_hit_ratio"] = _ratio(hits, hits + misses)
        bases[f"{base}_hit_ratio"] = {"hits": hits, "misses": misses,
                                      "currsize": size}
    for op in COB_OPS:
        m[f"cob.{op}_s"] = sec(f"cob.{op}")
        m[f"cob.{op}_calls"] = per_call(f"cob.{op}")
    cells, nnz = counts.get("cells", 0), counts.get("nnz", 0)
    m.update({
        "cob.cells_out": cells / n,
        "cob.nnz_out": nnz / n,
        "cob.fill_ratio": _ratio(nnz, cells),
        "cob.mass_out": counts.get("mass", 0) / n,
        "cob.peak_cells": peak_cells,
        "cob.serialize_s": sec("cob.serialize"),
        "generate.build_s": sec("generate.build"),
        "trace.count_s": sec(HOOK),
    })
    bases["cob.fill_ratio"] = [nnz, cells]
    return m, bases
