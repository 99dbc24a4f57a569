"""One cobeq CLI call in a fresh interpreter, as the benchmark runs it.

    python3 child.py REPORT MODE ITEM_MODULE ITEM_NAME [CLI ARGS...]

MODE is `import` (stop once `import cobeq` returns), `time` (time each call
of ITEM_MODULE.ITEM_NAME, the only wrapper installed) or `trace` (record
spans, see layers.py).  The CLI's output goes to stdout unchanged; the
timings go to the JSON file REPORT, written once at exit.
"""

import sys
import time

import cobeq  # noqa: F401  (the set-up the benchmark times)

IMPORTED = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def peak_rss_kb() -> int:
    # VmHWM belongs to this program's own address space.  ru_maxrss would
    # also count the parent's pages this process carried until exec.
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    report_path, mode, item_module, item_name, *argv = sys.argv[1:]
    report = {"imported": IMPORTED}
    code = 0
    try:
        if mode != "import":
            import cobeq.cli

            if mode == "trace":
                from layers import Tracer

                tracer = Tracer((item_module, item_name))
            else:
                tracer = None
                items = report["items"] = []
                owner = importlib.import_module(item_module)
                fn = getattr(owner, item_name)

                def timed(*args, **kwargs):
                    t0 = time.perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        items.append(time.perf_counter() - t0)

                setattr(owner, item_name, timed)
            code = cobeq.cli.main(argv)
            if tracer is not None:
                report.update(tracer.report())
    except BaseException:
        report["exception"] = traceback.format_exc()
        raise
    finally:
        sys.stdout.flush()
        report["maxrss_kb"] = peak_rss_kb()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
