"""Benchmark of the pathrisk CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; pathrisk is imported from ./src. The
workload's inputs are generated for the seed in a separate process. Then
repetitions run one after another (a closed loop with one client), each a
fresh interpreter that calls pathrisk.cli.main with the argv a user would
type, until S seconds have been measured. Every repetition's outputs are
checked, and its canonical files must be byte-identical to the first
repetition's. The metrics are printed by name with unit and sample count,
and the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, as
medians over the repetitions. --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics named there, as medians over
the traced ones, plus the traced/untraced pipeline_s ratio.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from generate import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench_work")
REP_TIMEOUT_S = 150
MIN_REPS = 3
# holonorm_report.json records each check's wall time in runtime_s, so two
# runs with the same seed differ there; the determinism check names this
# exception and compares the file with those fields removed.
KNOWN_NONDETERMINISTIC = {"holonorm_report.json": "runtime_s"}


class BenchmarkError(RuntimeError):
    pass


def _op(name, group, argv, expected=(0,)):
    return {"name": name, "group": group, "argv": argv,
            "expected": list(expected)}


def build_plan(workload, seed, inputs, out):
    """The subcommand sequence of one repetition, as a user would type it."""
    params = WORKLOADS[workload]
    seed_arg = ["--seed", str(seed)]
    if params["kind"] == "verify":
        # holonorm-verify draws its own samples; a fixed seed keeps its
        # verdict the same on every workload seed
        ops = [_op(f"holonorm_d{dim}", "holonorm_verify",
                   ["holonorm-verify", "--dim", str(dim),
                    "--seed", str(params["holonorm_seed"]),
                    "--out", f"{out}/holonorm_d{dim}", "--force"])
               for dim in params["holonorm_dims"]]
        ops.append(_op("game", "game",
                       ["game", "--scenario", f"{inputs}/scenario.json",
                        "--out", f"{out}/game", "--force"]))
        ops.append(_op("pareto", "pareto",
                       ["pareto", "--candidates",
                        str(params["pareto_candidates"]),
                        "--records", str(params["pareto_records"]),
                        *seed_arg, "--out", f"{out}/pareto", "--force"]))
        return ops
    audit = ["audit", "--corpus", f"{inputs}/corpus.jsonl"]
    if params["kind"] == "trace":
        audit += ["--kb", f"{inputs}/kb.json",
                  "--fixtures", f"{inputs}/fixtures.json"]
    else:
        audit += ["--schema", "classification"]
    return [
        _op("audit", "audit",
            audit + [*seed_arg, "--out", f"{out}/audit", "--force"]),
        # exit 3 is the gate rejecting the deployment, an expected verdict
        _op("risk", "gate",
            ["risk", "--outcomes", f"{out}/audit/outcomes.json",
             "--eps", f"{inputs}/eps.json", "--gate",
             "--out", f"{out}/risk", "--force"], expected=(0, 3)),
        _op("report", "gate",
            ["report", "--risk", f"{out}/risk/risk_report.json",
             "--outcomes", f"{out}/audit/outcomes.json",
             "--out", f"{out}/report", "--force"]),
    ]


# --- output checks ------------------------------------------------------------

def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _check_audit(op, out, expected, params):
    result = _load(out / "audit" / "outcomes.json")
    counts = {}
    for outcome in result["outcomes"]:
        counts[outcome["pathology"]] = counts.get(outcome["pathology"], 0) + 1
    problems = []
    if counts != expected["outcomes"]:
        diff = {k: (counts.get(k, 0), expected["outcomes"].get(k, 0))
                for k in set(counts) | set(expected["outcomes"])
                if counts.get(k, 0) != expected["outcomes"].get(k, 0)}
        problems.append(f"outcome counts (got, expected) differ: {diff}")
    if result["skipped"]:
        problems.append(f"detectors skipped: {sorted(result['skipped'])}")
    return problems


def _check_risk(op, out, expected, params):
    report = _load(out / "risk" / "risk_report.json")
    problems = []
    n = {e["pathology"]: e["n"] for e in report["entries"]}
    if n != expected["outcomes"]:
        problems.append("risk entries do not carry one loss per outcome")
    if report["feasible"] != (op["rc"] == 0):
        problems.append(f"exit {op['rc']} disagrees with "
                        f"feasible={report['feasible']}")
    return problems


def _check_report(op, out, expected, params):
    summary = _load(out / "report" / "summary.json")
    risk = _load(out / "risk" / "risk_report.json")
    if summary["feasible"] != risk["feasible"]:
        return ["summary verdict differs from the risk report"]
    return []


def _check_holonorm(op, out, expected, params):
    path = out / op["name"] / "holonorm_report.json"
    if not path.exists():
        # no report is an error exit, which the exit code already counts
        return [] if op["rc"] != 0 else ["exit 0 without a report"]
    report = _load(path)
    if report["passed"] != (op["rc"] == 0):
        return [f"exit {op['rc']} disagrees with passed={report['passed']}"]
    return []


def _check_game(op, out, expected, params):
    result = _load(out / "game" / "equilibrium.json")
    problems = []
    if len(result["equilibrium"]["agents"]) != params["agents"]:
        problems.append("wrong number of agents in the equilibrium")
    if len(result["stackelberg"]["steps"]) != params["eps_steps"]:
        problems.append("wrong number of Stackelberg steps")
    return problems


def _check_pareto(op, out, expected, params):
    result = _load(out / "pareto" / "pareto.json")
    if len(result["candidates"]) != params["pareto_candidates"]:
        return ["wrong number of Pareto candidates"]
    return []


_CHECKS = {"audit": _check_audit, "risk": _check_risk,
           "report": _check_report, "game": _check_game,
           "pareto": _check_pareto}


def check_outputs(ops, out, expected, params):
    """{op name: [problem, ...]} for the outputs of one repetition."""
    problems = {}
    for op in ops:
        check = (_check_holonorm if op["name"].startswith("holonorm_d")
                 else _CHECKS[op["name"]])
        try:
            found = check(op, out, expected, params)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if found:
            problems[op["name"]] = found
    return problems


def canonical_digests(out):
    """{relative path: (sha256 compared, sha256 of the raw bytes)} of every
    file the repetition wrote; the compared digest leaves out the field
    KNOWN_NONDETERMINISTIC names for that file."""
    digests = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        raw = path.read_bytes()
        data = raw
        field = KNOWN_NONDETERMINISTIC.get(path.name)
        if field is not None:
            data = json.dumps(_strip(json.loads(raw), field),
                              sort_keys=True).encode()
        digests[path.relative_to(out).as_posix()] = (
            hashlib.sha256(data).hexdigest(), hashlib.sha256(raw).hexdigest())
    return digests


def _strip(obj, field):
    if isinstance(obj, dict):
        return {k: _strip(v, field) for k, v in obj.items() if k != field}
    if isinstance(obj, list):
        return [_strip(v, field) for v in obj]
    return obj


# --- repetitions -----------------------------------------------------------------

def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    # one BLAS thread: the load model is one client on one core
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    return env


def run_rep(root, work, plan, traced):
    plan_path, result_path = work / "plan.json", work / "rep.json"
    plan_path.write_text(json.dumps({"ops": plan}), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), str(plan_path),
         str(result_path), repr(spawned_at), "1" if traced else "0"],
        cwd=root, env=_child_env(root), capture_output=True, text=True,
        timeout=REP_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise BenchmarkError(f"repetition process exited {proc.returncode}:"
                             f"\n{proc.stderr[-2000:]}")
    rep = _load(result_path)
    for op, spec in zip(rep["ops"], plan):
        op["expected"] = spec["expected"]
    rep["traced"] = traced
    return rep


def rep_metrics(rep, expected):
    """End-to-end metrics of one repetition, by name: (value, unit)."""
    seconds = {}
    for op in rep["ops"]:
        seconds[op["group"]] = seconds.get(op["group"], 0.0) + op["seconds"]
    out = {"setup_s": (rep["setup_s"], "s"),
           "pipeline_s": (rep["pipeline_s"], "s"),
           "peak_rss_mb": (rep["peak_rss_mb"], "MB")}
    if "audit" in seconds:
        out["audit_records_per_s"] = (expected["records"] / seconds["audit"],
                                      "records/s")
        out["gate_s"] = (seconds["gate"], "s")
    for group in ("holonorm_verify", "game", "pareto"):
        if group in seconds:
            out[f"{group}_s"] = (seconds[group], "s")
    return out


def _spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary_line(name, values, unit):
    q1, q3 = _spread(values)
    return (f"  {name:<24} {statistics.median(values):>12.6g} {unit:<10}"
            f" median of n={len(values)}  (q1 {q1:.6g}, q3 {q3:.6g})")


def run_workload(root, spec, workload, seed, seconds, trace):
    work = root / WORK_DIR / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    inputs, out = work / "inputs", work / "out"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "generate.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--out", str(inputs)],
                   cwd=root, check=True, timeout=REP_TIMEOUT_S)
    gen_s = time.perf_counter() - t0
    expected = _load(inputs / "expected.json")
    params = WORKLOADS[workload]
    plan = build_plan(workload, seed, inputs.relative_to(root).as_posix(),
                      out.relative_to(root).as_posix())

    reps, failed_checks, failed_ops = [], {}, 0
    first_digests, mismatched, excepted = None, set(), set()
    deadline = time.perf_counter() + seconds
    min_reps = 2 * MIN_REPS if trace else MIN_REPS
    while len(reps) < min_reps or time.perf_counter() < deadline:
        shutil.rmtree(out, ignore_errors=True)
        rep = run_rep(root, work, plan, traced=trace and len(reps) % 2 == 1)
        problems = check_outputs(rep["ops"], out, expected, params)
        digests = canonical_digests(out)
        if first_digests is None:
            first_digests = digests
        else:
            for path in set(digests) | set(first_digests):
                now, first = digests.get(path), first_digests.get(path)
                if now is None or first is None or now[0] != first[0]:
                    mismatched.add(path)
                    problems.setdefault(path.split("/")[0], []).append(
                        f"{path} differs from the first repetition")
                elif now[1] != first[1]:
                    excepted.add(path)
        for name, found in problems.items():
            failed_checks.setdefault(name, []).extend(found)
        failed_ops += sum(1 for op in rep["ops"]
                          if op["rc"] not in op["expected"]
                          or op["name"] in problems)
        reps.append(rep)

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(len(r["ops"]) for r in reps)
    per_rep = [rep_metrics(r, expected) for r in untraced]

    print(f"workload {workload}  seed {seed}  gen_s {gen_s:.3f}  "
          f"repetitions {len(untraced)} untraced, {len(traced)} traced")
    print("end-to-end (untraced repetitions):")
    for name in per_rep[0]:
        print(_summary_line(name, [m[name][0] for m in per_rep],
                            per_rep[0][name][1]))
    # success_rate is error_rate's complement; BENCHMARK.json gates it
    # because a gated metric must never read 0
    run_level = {"error_rate": failed_ops / attempted,
                 "success_rate": (attempted - failed_ops) / attempted}
    for name, value in run_level.items():
        print(f"  {name:<24} {value:>12.6g} ratio      {failed_ops} of "
              f"{attempted} operations failed")
    bad_exits = sorted({f"{op['name']} exit {op['rc']!s:.60}"
                        for r in reps for op in r["ops"]
                        if op["rc"] not in op["expected"]})
    for line in bad_exits:
        print(f"  unexpected exit: {line}")
    for name, found in sorted(failed_checks.items()):
        print(f"  check failed: {name}: {found[0]} "
              f"({len(found)} time(s))")
    print(f"  determinism: {len(first_digests) - len(mismatched)} of "
          f"{len(first_digests)} output files byte-identical across "
          f"{len(reps)} repetitions")
    for path in sorted(excepted):
        field = KNOWN_NONDETERMINISTIC[path.rsplit("/", 1)[-1]]
        print(f"  known exception: {path} differs only in '{field}' "
              f"between repetitions (compared without it, not fixed here)")

    if trace:
        metrics = _layer_summary(traced, untraced, spec)
        _write_trace(root, workload, seed, traced[-1])
    else:
        metrics = {}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            if name in run_level:
                value = run_level[name]
            elif name in per_rep[0]:
                value = statistics.median(m[name][0] for m in per_rep)
            else:
                raise BenchmarkError(f"workload gives no metric {name}")
            metrics[name] = {"value": value, "unit": entry["unit"]}
    shutil.rmtree(work, ignore_errors=True)
    return {"correct": not failed_checks, "attempted": attempted,
            "failed": failed_ops, "metrics": metrics}


def _layer_summary(traced, untraced, spec):
    print("per-layer (traced repetitions):")
    ratio = (statistics.median(r["pipeline_s"] for r in traced)
             / statistics.median(r["pipeline_s"] for r in untraced))
    metrics = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name == "trace.overhead_ratio":
            values = [ratio]
        elif name in traced[0]["layers"]:
            values = [r["layers"][name]["value"] for r in traced]
        else:
            raise BenchmarkError(f"traced run gives no metric {name}")
        print(_summary_line(name, values, entry["unit"]))
        metrics[name] = {"value": statistics.median(values),
                         "unit": entry["unit"]}
    return metrics


def _write_trace(root, workload, seed, rep):
    """Keep the spans of the last traced repetition for inspection."""
    path = root / WORK_DIR / "traces" / f"{workload}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"spans": rep["spans"],
                                "layers": rep["layers"]}), encoding="utf-8")
    print(f"  spans of the last traced repetition: {path.relative_to(root)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pathrisk" / "cli.py").is_file():
        print("error: run from the root of a pathrisk checkout "
              "(src/pathrisk/cli.py not found)", file=sys.stderr)
        return 2
    spec = _load(root / "BENCHMARK.json")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, spec, name, args.seed,
                                         args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        for name, result in results.items():
            print(f"{name}: correct={result['correct']} "
                  f"failed {result['failed']} of {result['attempted']}")
        return 0
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
