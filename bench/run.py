"""Decision benchmark for cobeq.

    python3 bench/run.py --workload check_equal --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1            # all four workloads, one row each

Builds seeded inputs with known answers (workloads.py), then runs the CLI
closed-loop, one fresh interpreter at a time, cycling through the inputs
until the time is up and at least once through all of them.  Every call's
stdout and exit code are checked against the answer fixed when the input
was built.  With `--trace 0` only the item timer runs and the end-to-end
metrics are reported; with `--trace 1` calls alternate untraced and traced
and the per-layer metrics are derived from the traced calls' spans.  The
last line of stdout is one JSON object with the metrics that
BENCHMARK.json names.  See NOTES.md for why the workloads are what they are.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: a CLI call running longer is killed and all its items count as failed
CHILD_LIMIT_S = 60.0
#: no call runs past this many seconds after the run starts; inputs not yet
#: run by then count as failed, so a run ends well within three minutes
RUN_LIMIT_S = 150.0
#: import-only interpreters started per run, besides the measured calls
SETUP_SAMPLES = 5

ITEM_BINDING = {"check": ("cobeq.cli", "decide_equal"),
                "selftest": ("cobeq.decide", "interpret_arrow")}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms",
                    "item_p95_ms": "ms", "item_max_ms": "ms",
                    "peak_rss_mb": "MiB", "failed_frac": "ratio"}


@dataclass
class Call:
    job: int
    mode: str
    started: float
    wall: float
    killed: bool
    code: int
    stdout: bytes
    stderr: bytes
    report: dict | None
    failed: int = 0


def run_child(rundir: Path, job: int, argv: list[str], mode: str, binding,
              tag: str, limit: float = CHILD_LIMIT_S) -> Call:
    report = rundir / f"report-{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(report), mode,
           *binding, *argv]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=rundir, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    killed = False
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    wall = time.monotonic() - t0
    rep = None
    if not killed and report.exists():
        rep = json.loads(report.read_text(encoding="utf-8"))
    return Call(job, mode, t0, wall, killed, proc.returncode, out, err, rep)


def judge(job, call: Call, stdout_digest: str | None) -> int:
    """Number of the job's items this call got wrong."""
    rep = call.report
    if (call.killed or rep is None or "exception" in rep or call.stderr
            or call.code != job.expected_exit):
        return job.items
    if job.expected_stdout is None:
        if stdout_digest and sha256(call.stdout) != stdout_digest:
            return job.items
        return 0
    want = job.expected_stdout.splitlines()
    got = call.stdout.decode("utf-8", "replace").splitlines()
    if len(want) != len(got):
        return job.items
    return sum(a != b for a, b in zip(want, got))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def input_digest(jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(json.dumps(job.argv).encode())
        for name, text in sorted(job.files.items()):
            h.update(name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


def pct(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def fingerprints() -> dict:
    path = HERE / "fingerprints.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def recorded(fp: dict, workload: str, seed: int) -> dict:
    table = fp.get(workload, {})
    return table.get(str(seed)) or table.get("*") or {}


def build(workload: str, seed: int, rundir: Path):
    from workloads import WORKLOADS

    jobs, sampler = WORKLOADS[workload](seed)
    for job in jobs:
        for name, text in job.files.items():
            (rundir / name).write_text(text, encoding="utf-8")
    return jobs, sampler


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rundir = ROOT / ".bench_out" / f"{workload}-seed{seed}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    spans = []  # the run's own spans: name, start, end, parent, item

    t0 = time.monotonic()
    jobs, sampler = build(workload, seed, rundir)
    spans.append(["run.build", t0, time.monotonic(), -1, -1])
    digest = input_digest(jobs)
    rec = recorded(fingerprints(), workload, seed)
    problems = []
    if rec.get("inputs") and rec["inputs"] != digest:
        problems.append(f"inputs {digest[:12]} differ from the recorded "
                        f"{rec['inputs'][:12]} for seed {seed}")

    setup = []
    for k in range(SETUP_SAMPLES):
        c = run_child(rundir, -1, [], "import", ("", ""), f"import-{k}")
        if c.report:
            setup.append(c.report["imported"] - c.started)

    calls: list[Call] = []
    modes = ("time", "trace") if trace else ("time",)
    deadline = time.monotonic() + seconds
    i = 0
    while ((i < len(jobs) or time.monotonic() < deadline)
           and time.monotonic() < t0 + RUN_LIMIT_S - 1):
        j = i % len(jobs)
        job = jobs[j]
        for mode in modes:
            limit = min(CHILD_LIMIT_S, t0 + RUN_LIMIT_S - time.monotonic())
            c = run_child(rundir, j, job.argv, mode, ITEM_BINDING[job.argv[0]],
                          f"{i}-{mode}", max(limit, 1.0))
            c.failed = judge(job, c, rec.get("stdout") if job.expected_stdout
                             is None else None)
            calls.append(c)
            if not c.failed:
                spans.append([f"run.call.{mode}", c.started,
                              c.started + c.wall, -1, j])
            if c.report and "imported" in c.report:
                setup.append(c.report["imported"] - c.started)
        i += 1

    first = {}
    for c in calls:
        first.setdefault(c.job, c)
    unrun = [j for j in range(len(jobs)) if j not in first]
    out_digest = sha256(b"".join(first[j].stdout for j in range(len(jobs))
                                 if j in first))
    if rec.get("stdout") and rec["stdout"] != out_digest:
        problems.append(f"stdout {out_digest[:12]} differs from the recorded "
                        f"{rec['stdout'][:12]} for seed {seed}")

    timed = [c for c in calls if c.mode == "time" and c.report and not c.failed]
    attempted = sum(jobs[c.job].items for c in calls)
    failed = sum(c.failed for c in calls)
    for j in unrun:
        attempted += jobs[j].items
        failed += jobs[j].items
    e2e = {"setup_s": statistics.median(setup) if setup else 0.0,
           **timings(timed),
           "failed_frac": failed / attempted}
    result = {
        "workload": workload, "seed": seed, "inputs": digest,
        "stdout": out_digest, "problems": problems,
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not problems,
        "samples": {"items": e2e.pop("items"), "calls": len(timed),
                    "setup": len(setup)},
        "end_to_end": e2e,
    }
    if trace:
        result.update(per_layer(calls, sampler, jobs, spans, rundir))
    return result


def timings(timed: list[Call]) -> dict:
    """End-to-end timings from the untraced calls: medians over calls, and
    percentiles over all the items those calls ran."""
    items = [t for c in timed for t in c.report["items"]]
    if not items:
        return {"wall_s": 0.0, "item_p50_ms": 0.0, "item_p95_ms": 0.0,
                "item_max_ms": 0.0, "peak_rss_mb": 0.0, "items": 0}
    return {
        "wall_s": statistics.median(c.wall for c in timed),
        "item_p50_ms": pct(items, 0.50) * 1e3,
        "item_p95_ms": pct(items, 0.95) * 1e3,
        "item_max_ms": statistics.median(max(c.report["items"]) for c in timed
                                         if c.report["items"]) * 1e3,
        "peak_rss_mb": statistics.median(c.report["maxrss_kb"] / 1024
                                         for c in timed),
        "items": len(items),
    }


def per_layer(calls, sampler, jobs, spans, rundir: Path) -> dict:
    from layers import derive

    traced = [c for c in calls if c.mode == "trace" and c.report
              and "spans" in c.report and not c.failed]
    m, bases = derive([c.report for c in traced])
    # the inputs of the check workloads are built here, not in the child
    m["generate.build_s"] += sampler.generate_s / len(jobs)
    walls: dict[tuple[str, int], list[float]] = {}
    for name, start, end, _, job in spans:
        walls.setdefault((name, job), []).append(end - start)
    ratios = [statistics.median(walls[("run.call.trace", j)])
              / statistics.median(walls[("run.call.time", j)])
              for j in range(len(jobs))
              if ("run.call.trace", j) in walls and ("run.call.time", j) in walls]
    m["trace.overhead_frac"] = statistics.median(ratios) - 1 if ratios else 0.0
    bases["trace.overhead_frac"] = {"files": len(ratios)}
    (rundir / "trace.json").write_text(json.dumps({
        "run_spans": spans,
        "call_reports": sorted(p.name for p in rundir.glob("report-*-trace.json")),
        "per_layer": m, "bases": bases}, indent=1), encoding="utf-8")
    return {"per_layer": m, "bases": bases, "traced_calls": len(traced)}


# ---------------------------------------------------------------------------
# Output


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def row(res: dict) -> str:
    s = res["samples"]
    cells = [f"{k}={v:.6g} {unit_of(k)}" for k, v in res["end_to_end"].items()]
    return (f"{res['workload']:<14} " + "  ".join(cells)
            + f"  (items={s['items']} calls={s['calls']} setup={s['setup']}"
            f" failed={res['failed']}/{res['attempted']}"
            f" inputs={res['inputs'][:12]} stdout={res['stdout'][:12]})")


def layer_lines(res: dict) -> list[str]:
    out = [f"{res['workload']} per layer, per CLI call "
           f"({res.get('traced_calls', 0)} traced calls):"]
    for k, v in res.get("per_layer", {}).items():
        base = res["bases"].get(k)
        out.append(f"  {k} = {v:.6g} {unit_of(k)}"
                   + (f"  base={json.dumps(base)}" if base is not None else ""))
    return out


def selected(res: dict, units: dict) -> dict:
    pool = {**res["end_to_end"], **res.get("per_layer", {})}
    return {n: {"value": pool[n], "unit": u} for n, u in units.items()}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for w in workloads:
        res = run_workload(w, args.seed, args.seconds, bool(args.trace))
        results.append(res)
        print(row(res), flush=True)
        if args.trace:
            print("\n".join(layer_lines(res)), flush=True)
        for p in res["problems"]:
            print(f"{w}: {p}", file=sys.stderr)
    if len(results) == 1:
        metrics = selected(results[0], units)
    else:
        metrics = {f"{r['workload']}.{n}": v for r in results
                   for n, v in selected(r, units).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


def use_checkout_sources() -> None:
    """Import cobeq from this checkout's src/, or exit without a result."""
    if not (SRC / "cobeq" / "__init__.py").is_file():
        sys.exit(f"error: no cobeq sources under {SRC}; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import cobeq

    if Path(cobeq.__file__).resolve().parent != SRC / "cobeq":
        sys.exit(f"error: cobeq imported from {cobeq.__file__}, not {SRC}")


if __name__ == "__main__":
    use_checkout_sources()
    sys.exit(main())
