"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py PLAN RESULT SPAWNED_AT TRACE

Imports pathrisk.cli first, so that SPAWNED_AT (the parent's
time.monotonic() just before it started this process) gives the set-up
time from a fresh interpreter to the CLI being importable. Then runs every
operation of PLAN through pathrisk.cli.main with the argv a user would type,
and writes timings, exit codes and peak RSS to RESULT. With TRACE=1 the
layers in layers.py are wrapped for this repetition and their metrics and
spans are added to RESULT.
"""

import sys
import time

import pathrisk.cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_op(argv):
    """Exit code of one CLI call; an uncaught exception is reported as a
    string, so the caller counts it as an unexpected exit."""
    try:
        return pathrisk.cli.main(argv)
    except SystemExit as exc:       # argparse usage errors
        return exc.code
    except Exception:
        return traceback.format_exc(limit=3)


def main(argv):
    plan_path, result_path, spawned_at, trace = argv
    with open(plan_path, "r", encoding="utf-8") as handle:
        plan = json.load(handle)
    tracer = None
    if trace == "1":
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)
    ops = []
    start = time.perf_counter()
    try:
        for op in plan["ops"]:
            t0 = time.perf_counter()
            rc = run_op(op["argv"])
            ops.append({"name": op["name"], "group": op["group"], "rc": rc,
                        "seconds": time.perf_counter() - t0})
    finally:
        if tracer is not None:
            tracer.restore()
    pipeline_s = time.perf_counter() - start
    result = {"setup_s": IMPORTED_AT - float(spawned_at),
              "pipeline_s": pipeline_s,
              # ru_maxrss is in KiB on Linux
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "ops": ops}
    if tracer is not None:
        result["layers"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit)
                            in layers.layer_metrics(tracer).items()}
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
