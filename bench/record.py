"""Record the digests that bench/run.py compares each run against.

    python3 bench/record.py [--seeds N]

Writes bench/fingerprints.json.  For the check workloads it holds, per seed
0..N-1, the digest of the inputs built for that seed and of the stdout
their answers fix.  For the battery, whose input does not depend on the
seed, it holds the digest of one run's stdout, which must exit 0 (no family
failed).  Re-record only in a change that means to alter a workload.
"""

import argparse
import json
import shutil
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=32)
    args = ap.parse_args()
    from workloads import WORKLOADS

    rundir = run.ROOT / ".bench_out" / "record"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    out = {}
    for name, make in WORKLOADS.items():
        jobs, _ = make(0)
        if any(job.expected_stdout is None for job in jobs):
            (job,) = jobs
            call = run.run_child(rundir, 0, job.argv, "time",
                                 run.ITEM_BINDING[job.argv[0]], name)
            if call.code != job.expected_exit or call.stderr:
                sys.exit(f"error: {name} exited {call.code}: "
                         f"{call.stderr.decode()[-500:]}")
            out[name] = {"*": {"inputs": run.input_digest(jobs),
                               "stdout": run.sha256(call.stdout)}}
            continue
        table = out[name] = {}
        for seed in range(args.seeds):
            jobs, _ = make(seed)
            table[str(seed)] = {
                "inputs": run.input_digest(jobs),
                "stdout": run.sha256("".join(j.expected_stdout for j in jobs).encode()),
            }
        print(f"{name}: {args.seeds} seeds", flush=True)
    path = run.HERE / "fingerprints.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    run.use_checkout_sources()
    sys.exit(main())
