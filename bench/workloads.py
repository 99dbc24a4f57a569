"""Seeded inputs for the benchmark's workloads, each with its answer fixed
when the input is built.

Equal and inconclusive pairs come from the rewrite engine of
`cobeq.generate`; improper endpoints are built by hand; not-equal pairs start
from the hand-checked unequal base pairs below.  No expected verdict comes
from running the decision procedure.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from cobeq.generate import random_equal_pair, rewrite_once
from cobeq.syntax import (
    Arrow, Compose, Dual, Eps, Eta, Gen, Hom, Id, Inj1, Inj2, Mode, Obj,
    Oplus, OplusMap, Plus, Proj1, Proj2, Sigma, Tensor, TensorMap, Unit,
    Whisker, Zero, ZeroMap, expand_derived, infer_type, render_arrow,
    render_object, subarrows,
)

GENS = ("p", "q", "r")

#: random pairs with a bigger matrix (rows x columns) at any node of their
#: expanded terms are drawn again: about one pair in a few thousand expands
#: `hom(f,g)` into a whisker of tens of millions of cells and runs for
#: minutes, past the benchmark's per-call limit
CELL_CAP = 1 << 16


def width(a: Obj) -> int:
    """Number of components of the interpreted object: the rows or columns
    of a matrix with that end."""
    match a:
        case Gen() | Unit():
            return 1
        case Zero():
            return 0
        case Tensor(l, r) | Hom(l, r):
            return width(l) * width(r)
        case Oplus(l, r):
            return width(l) + width(r)
        case Dual(x):
            return width(x)
    raise ValueError(f"unknown object {a!r}")


def max_cells(t: Arrow, mode: Mode) -> int:
    """Largest matrix over the nodes of `t` once derived forms are expanded,
    as the decision procedure evaluates it."""
    out = 0
    for sub in subarrows(expand_derived(t, mode)):
        src, tgt = infer_type(sub)
        out = max(out, width(src) * width(tgt))
    return out


@dataclass
class Job:
    """One CLI call: its arguments, the files it reads and its known answer.

    `expected_stdout` is None when the answer is a recorded digest (the
    battery) rather than text built with the input.
    """

    argv: list[str]
    items: int
    expected_exit: int
    expected_stdout: str | None = None
    files: dict[str, str] = field(default_factory=dict)


class Sampler:
    """A seeded random source that also times the calls into `cobeq.generate`."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}/{seed}")
        self.generate_s = 0.0

    def equal_pair(self, mode: Mode, steps: int) -> tuple[Arrow, Arrow]:
        """A rewrite pair at the size of the acceptance tests (term depth 2,
        object depth 2) under CELL_CAP."""
        while True:
            t0 = time.perf_counter()
            pair = random_equal_pair(self.rng, steps, mode, depth=2, obj_depth=2)
            self.generate_s += time.perf_counter() - t0
            if max(max_cells(t, mode) for t in pair) <= CELL_CAP:
                return pair

    def rewrite(self, t: Arrow, steps: int, mode: Mode = Mode.SMCB) -> Arrow:
        t0 = time.perf_counter()
        for _ in range(steps):
            t = rewrite_once(self.rng, t, mode) or t
        self.generate_s += time.perf_counter() - t0
        return t


def _check_job(name: str, mode: Mode, checks: list[tuple[str, str, str]]) -> Job:
    """A query file of `check lhs = rhs` lines with their expected verdicts."""
    body = [f"# {name}: {len(checks)} checks", f"mode {mode}"]
    out = []
    for lhs, rhs, verdict in checks:
        body.append(f"check {lhs} = {rhs}")
        out.append(f"check {lhs} = {rhs}: {verdict}")
    kinds = {v.split(":")[0] for _, _, v in checks}
    code = 1 if "not-equal" in kinds else 2 if "inconclusive" in kinds else 0
    return Job(["check", name], len(checks), code, "\n".join(out) + "\n",
               {name: "\n".join(body) + "\n"})


# ---------------------------------------------------------------------------
# check_equal: rewrite pairs in all three dialects, a tenth of the smcb
# pairs behind an improper `g -o I` factor


EQUAL_FILES = 6
EQUAL_PAIRS = 400
MODES = (Mode.SMCB, Mode.CCB, Mode.DCCB)


def check_equal(seed: int) -> tuple[list[Job], Sampler]:
    b = Sampler("check_equal", seed)
    jobs = []
    for k in range(EQUAL_FILES):
        mode = MODES[k % len(MODES)]
        checks = []
        for i in range(EQUAL_PAIRS):
            steps = b.rng.randint(1, 5)
            if mode is Mode.SMCB and i % 10 == 9:
                checks.append(_improper_pair(b, steps))
                continue
            lhs, rhs = b.equal_pair(mode, steps)
            checks.append((render_arrow(lhs), render_arrow(rhs), "equal"))
        checks.insert(b.rng.randrange(len(checks) + 1), _tail_pair(b))
        jobs.append(_check_job(f"equal-{k}-{mode}.cob", mode, checks))
    return jobs, b


def _tail_pair(b: Sampler) -> tuple[str, str, str]:
    # One Kronecker-bound pair of fixed size per file (144x144 tensors of
    # swaps, legal in every dialect), related by the functoriality rewrite,
    # so the slowest item of a call has a known size, well above a full
    # garbage collection, and not a random one.
    x = Oplus(*(Oplus(*(Gen(g) for g in b.rng.sample(GENS, 2)))
                for _ in range(2)))
    y = Oplus(Oplus(*(Gen(g) for g in b.rng.sample(GENS, 2))),
              Gen(b.rng.choice(GENS)))
    lhs = Compose(TensorMap(Sigma(y, x), Sigma(x, y)),
                  TensorMap(Sigma(x, y), Sigma(y, x)))
    rhs = TensorMap(Compose(Sigma(y, x), Sigma(x, y)),
                    Compose(Sigma(x, y), Sigma(y, x)))
    return render_arrow(lhs), render_arrow(rhs), "equal"


def _improper_pair(b: Sampler, steps: int) -> tuple[str, str, str]:
    # A proper pair tensored with id on `g -o I`: the images stay equal and
    # `g -o I` is the only improper subformula of either endpoint.  The pair
    # must differ syntactically, or the answer is `equal` before any check.
    lhs, rhs = b.equal_pair(Mode.SMCB, steps)
    while lhs == rhs:
        lhs, rhs = b.equal_pair(Mode.SMCB, steps)
    h = Hom(Gen(b.rng.choice(GENS)), Unit())
    if b.rng.random() < 0.5:
        lhs, rhs = TensorMap(Id(h), lhs), TensorMap(Id(h), rhs)
    else:
        lhs, rhs = TensorMap(lhs, Id(h)), TensorMap(rhs, Id(h))
    return (render_arrow(lhs), render_arrow(rhs),
            f"inconclusive: endpoint subformula {render_object(h)} is not proper")


# ---------------------------------------------------------------------------
# check_refute: unequal base pairs under a 0-free identity context


REFUTE_FILES = 3
REFUTE_PAIRS = 400


def _times(f: Arrow, k: int) -> Arrow:
    out = f
    for _ in range(k - 1):
        out = Plus(out, f)
    return out


def unequal_bases(P: Obj, Q: Obj) -> list[tuple[Arrow, Arrow]]:
    """Pairs over distinct generators P, Q whose images differ, each checked
    by hand: a multiplicity, a matching, a selected component or a
    zero entry tells the two sides apart."""
    pairs = []
    for k in range(1, 7):
        pairs.append((_times(Id(P), k), _times(Id(P), k + 1)))
    for x in (P, Q, Tensor(P, Q), Oplus(P, Q), Tensor(P, P), Oplus(P, P)):
        pairs.append((Id(Tensor(x, x)), Sigma(x, x)))
    for k in range(1, 5):
        pairs.append((_times(Sigma(P, P), k), _times(Id(Tensor(P, P)), k)))
    pairs += [
        (Compose(Inj1(P, Q), Proj1(P, Q)), Id(Oplus(P, Q))),
        (Compose(Inj2(P, Q), Proj2(P, Q)), Id(Oplus(P, Q))),
        (Compose(Inj1(P, P), Proj1(P, P)), Compose(Inj2(P, P), Proj2(P, P))),
        (ZeroMap(P, P), Id(P)),
        (ZeroMap(Q, Hom(P, Tensor(P, Q))), Eta(P, Q)),
        (ZeroMap(Tensor(P, Hom(P, Q)), Q), Eps(P, Q)),
        (Compose(Whisker(P, Sigma(P, P)), Eta(P, P)), Eta(P, P)),
        (_times(Eta(P, Q), 2), Eta(P, Q)),
        (Id(Oplus(P, P)), Plus(Compose(Inj1(P, P), Proj2(P, P)),
                               Compose(Inj2(P, P), Proj1(P, P)))),
        (Whisker(P, ZeroMap(Q, Q)), Whisker(P, Id(Q))),
        (Proj1(P, P), Proj2(P, P)),
        (Inj1(P, P), Inj2(P, P)),
        (Compose(Sigma(Q, P), Sigma(P, Q)), ZeroMap(Tensor(P, Q), Tensor(P, Q))),
        (_times(Compose(Sigma(Q, P), Sigma(P, Q)), 2), Id(Tensor(P, Q))),
    ]
    return pairs


def zero_free_object(rng: random.Random, depth: int) -> Obj:
    """A random object without `0`: its identity has a nonzero image, so
    tensoring with it keeps unequal images unequal."""
    if depth <= 0 or rng.random() < 0.4:
        leaf = rng.choice(GENS + ("I",))
        return Unit() if leaf == "I" else Gen(leaf)
    l, r = zero_free_object(rng, depth - 1), zero_free_object(rng, depth - 1)
    return rng.choice((Tensor, Oplus, Hom))(l, r)


def check_refute(seed: int) -> tuple[list[Job], Sampler]:
    b = Sampler("check_refute", seed)
    jobs = []
    for k in range(REFUTE_FILES):
        checks = []
        for _ in range(REFUTE_PAIRS):
            p, q = b.rng.sample(GENS, 2)
            f, g = b.rng.choice(unequal_bases(Gen(p), Gen(q)))
            x = Id(zero_free_object(b.rng, 2))
            if b.rng.random() < 0.5:
                f, g = TensorMap(f, x), TensorMap(g, x)
            else:
                f, g = TensorMap(x, f), TensorMap(x, g)
            f = b.rewrite(f, b.rng.randint(1, 3))
            g = b.rewrite(g, b.rng.randint(1, 3))
            checks.append((render_arrow(f), render_arrow(g), "not-equal"))
        jobs.append(_check_job(f"refute-{k}.cob", Mode.SMCB, checks))
    return jobs, b


# ---------------------------------------------------------------------------
# selftest_tail: one fixed battery whose tail instance is a heavy hom/whisker
# term; the workload seed does not change it


BATTERY_ARGV = ["selftest", "--mode", "smcb", "--depth", "3",
                "--instances", "10", "--seed", "20250809"]
#: interpret_arrow calls the battery makes (two per checked equation)
BATTERY_ITEMS = 1020


def selftest_tail(seed: int) -> tuple[list[Job], Sampler]:
    return [Job(list(BATTERY_ARGV), BATTERY_ITEMS, 0)], Sampler("selftest_tail", seed)


# ---------------------------------------------------------------------------
# deep_terms: long `.`-chains over the 2-component object (P -o Q) (+) (P (x) Q)


DEEP_FILES = 2
#: links per chain in each file; cost grows about 4x per doubling
DEEP_LADDER = (60, 120, 180, 240)


def _links(P: Obj, Q: Obj) -> list[Arrow]:
    """Endomorphisms of (P -o Q) (+) (P (x) Q).  Every chain uses each of
    them, so every matrix operation but the dagger runs on 1x1 or 2x2
    matrices."""
    H, T = Hom(P, Q), Tensor(P, Q)
    return [
        Id(Oplus(H, T)),
        OplusMap(Whisker(P, Id(Q)), TensorMap(Id(P), Id(Q))),
        OplusMap(Id(H), Compose(Sigma(Q, P), Sigma(P, Q))),
        Plus(Compose(Inj1(H, T), Proj1(H, T)), Compose(Inj2(H, T), Proj2(H, T))),
    ]


def _chain_text(links: list[Arrow]) -> str:
    # `.` is left associative and binds tighter than `+`: parenthesize
    # composite and sum links so each stays one chain element
    return " . ".join(f"({render_arrow(t)})" if isinstance(t, (Compose, Plus))
                      else render_arrow(t) for t in links)


def deep_terms(seed: int) -> tuple[list[Job], Sampler]:
    b = Sampler("deep_terms", seed)
    jobs = []
    for k in range(DEEP_FILES):
        p, q = b.rng.sample(GENS, 2)
        kinds = _links(Gen(p), Gen(q))
        checks = []
        for n in DEEP_LADDER:
            lhs = [kinds[i % len(kinds)] for i in range(n)]
            b.rng.shuffle(lhs)
            rhs = [b.rewrite(t, 1) for t in lhs]
            checks.append((_chain_text(lhs), _chain_text(rhs), "equal"))
        jobs.append(_check_job(f"deep-{k}.cob", Mode.SMCB, checks))
    return jobs, b


WORKLOADS = {
    "check_equal": check_equal,
    "check_refute": check_refute,
    "selftest_tail": selftest_tail,
    "deep_terms": deep_terms,
}
