"""Command-line entry point.

Subcommands: audit, risk, holonorm-verify, game, pareto, report. Every run
writes canonical JSON reports plus CSV summaries and a manifest (version,
seed, input digests, config hash) into --out. Exit codes: 0 success,
2 validation/usage error, 3 infeasible deployment gate (risk --gate).

`audit` also writes validation.json, which says which records each of the
35 detectors could score and why it skipped the others. Per detector it
holds {"available": [ids], "available_count": n, "missing": {"f1,f2":
{"count": m, "ids": [ids]}}}, the skipped records grouped by the fields
they lack. A detector that reads the other record kind, of which the
corpus holds none, has {"not_applicable": "<requires a trace record>",
"count": N} instead.

`audit --config` reads a JSON object with three optional sections,
"generative", "mi" and "discriminative", such as {"generative": {"delta":
0.95}, "discriminative": {"ece_hi": 0.2}}. Their keys are the fields of
GenerativeConfig (but `mi`), MIEstimatorConfig and DiscriminativeConfig;
each value applies to every detector that reads it. The mi seed defaults
to --seed. An unknown section or key, or a value of the wrong type (an
int is accepted for a float), exits 2 with an error naming the key; so
does a value that its config class rejects as out of range.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import discriminative, fixtures, game, generative, holonorm, jsonio, \
    risk as risk_mod
from .metrics import MIEstimatorConfig
from .records import (CorpusError, decode_number, load_causal_fixtures,
                      load_knowledge_base, load_trace_corpus)
from .registry import OUTCOME_JSON_KEYS, DetectorOutcome
# the audits build the validation report; the name stays bound here for
# perfbench/layers.py, which rebinds it on this module too
from .registry import validate_corpus  # noqa: F401


class CliError(ValueError):
    pass


# --config section -> its config class; the MI estimator is configured in
# its own section, not as the `mi` field of GenerativeConfig
_CONFIG_CLASSES = {"generative": generative.GenerativeConfig,
                   "mi": MIEstimatorConfig,
                   "discriminative": discriminative.DiscriminativeConfig}
# section -> {key: type}
_CONFIG_KEYS = {
    name: {f.name: f.type for f in dataclasses.fields(cls) if f.name != "mi"}
    for name, cls in _CONFIG_CLASSES.items()}


def _has_type(value, kind):
    # JSON true/false are Python bools, which are ints; an int is a float
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    if not isinstance(obj, dict):
        raise CliError(f"config {path}: expected a JSON object of sections")
    for section, body in obj.items():
        if section not in _CONFIG_KEYS:
            raise CliError(f"config {path}: unknown section {section!r}; "
                           f"the sections are {', '.join(_CONFIG_KEYS)}")
        if not isinstance(body, dict):
            raise CliError(f"config {path}: section {section!r} is not a "
                           f"JSON object")
        unknown = sorted(body.keys() - _CONFIG_KEYS[section].keys())
        if unknown:
            raise CliError(f"config {path}: unknown key {unknown[0]!r} in "
                           f"section {section!r}")
        for key, value in body.items():
            kind = _CONFIG_KEYS[section][key]
            if not _has_type(value, kind):
                raise CliError(f"config {path}: key {key!r} in section "
                               f"{section!r} must be {kind.__name__}, not "
                               f"{json.dumps(value)}")
        # the class checks the ranges, whichever schema the audit reads
        try:
            _CONFIG_CLASSES[section](**body)
        except ValueError as exc:
            raise CliError(f"config {path}: section {section!r}: "
                           f"{exc}") from None
    return obj


def _generative_config(cfg_obj, seed):
    mi_obj = dict(cfg_obj.get("mi", {}))
    mi_obj.setdefault("seed", seed)
    return generative.GenerativeConfig(**cfg_obj.get("generative", {}),
                                       mi=MIEstimatorConfig(**mi_obj))


def _discriminative_config(cfg_obj):
    return discriminative.DiscriminativeConfig(
        **cfg_obj.get("discriminative", {}))


def _parse_eps_file(path):
    """The --eps file: an object keyed by pathology (with an optional
    "default") or an array in registry order, whose values are numbers or
    "inf". A bool, NaN or any other string exits 2 naming its key."""
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    if type(obj) is not dict and type(obj) is not list:
        raise CliError(f"eps {path}: expected an object or an array")

    def conv(key, value):
        if value == "inf":
            return math.inf
        try:
            return decode_number(value)
        except (ValueError, OverflowError):
            raise CliError(f"eps {path}: key {key!r} must be a number or "
                           f'"inf", not {json.dumps(value)}') from None

    if type(obj) is dict:
        return {k: conv(k, v) for k, v in obj.items()}
    return [conv(i, v) for i, v in enumerate(obj)]


def _cmd_audit(args):
    records = load_trace_corpus(args.corpus, schema=args.schema)
    kb = load_knowledge_base(args.kb) if args.kb else None
    causal = load_causal_fixtures(args.fixtures) if args.fixtures else ()
    cfg_obj = _load_config(args.config)
    if args.schema == "trace":
        result = generative.audit_generative(
            records, kb=kb, fixtures=causal,
            cfg=_generative_config(cfg_obj, args.seed))
    else:
        result = discriminative.audit_discriminative(
            records, cfg=_discriminative_config(cfg_obj))
    out = Path(args.out)
    jsonio.write_json(out / "outcomes.json", result.to_json_dict(),
                      force=args.force)
    jsonio.write_json(out / "validation.json",
                      result.validation.to_json_dict(), force=args.force)
    grouped = result.by_pathology()
    rows = [(name, len(group),
             float(np.mean([o.fired for o in group])),
             float(np.mean([o.severity for o in group])))
            for name, group in sorted(grouped.items())]
    jsonio.write_csv(out / "audit_summary.csv",
                     ("pathology", "n", "fired_rate", "mean_severity"),
                     rows, force=args.force)
    manifest = jsonio.build_manifest(
        "audit", args.seed,
        {"corpus": args.corpus, "kb": args.kb, "fixtures": args.fixtures,
         "config": args.config},
        {"schema": args.schema, "seed": args.seed, "config": cfg_obj})
    jsonio.write_json(out / "manifest.json", manifest, force=args.force)
    print(f"audit: {len(result.outcomes)} outcomes, "
          f"{len(result.skipped)} detectors skipped -> {out}")
    return 0


# one shared read-only mapping stands for the evidence that is not kept
_NO_EVIDENCE = MappingProxyType({})


def _outcome_hook(obj):
    if obj.keys() != OUTCOME_JSON_KEYS:
        return obj
    return DetectorOutcome(pathology=obj["pathology"],
                           record_ids=tuple(obj["record_ids"]),
                           severity=float(obj["severity"]),
                           threshold=float(obj["threshold"]),
                           evidence=_NO_EVIDENCE)


def _load_outcome_files(paths):
    """The outcomes of each outcomes.json in `paths`, in file order.

    Each outcome is built as its JSON object is parsed, so no dict tree of
    the file is held. Evidence is not kept: risk and report never read it,
    so every loaded outcome has empty evidence. An object in the
    "outcomes" list must have exactly the keys the audit writes.
    """
    outcomes = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle, object_hook=_outcome_hook)
        for i, item in enumerate(obj["outcomes"]):
            if not isinstance(item, DetectorOutcome):
                raise CliError(f"{path}: outcomes[{i}] is not an object "
                               f"with exactly the keys "
                               f"{', '.join(sorted(OUTCOME_JSON_KEYS))}")
        outcomes.extend(obj["outcomes"])
    return outcomes


def _cmd_risk(args):
    outcomes = _load_outcome_files(args.outcomes)
    eps = _parse_eps_file(args.eps)
    cfg = risk_mod.ExpectileConfig(tau=args.tau)
    report = risk_mod.risk_report(outcomes, eps=eps, cfg=cfg)
    out = Path(args.out)
    jsonio.write_json(out / "risk_report.json", report.to_json_dict(),
                      force=args.force)
    header, rows = report.csv_rows()
    jsonio.write_csv(out / "risk_summary.csv", header, rows,
                     force=args.force)
    manifest = jsonio.build_manifest(
        "risk", args.seed,
        {f"outcomes{i}": p for i, p in enumerate(args.outcomes)}
        | {"eps": args.eps},
        {"tau": args.tau, "gate": args.gate})
    jsonio.write_json(out / "manifest.json", manifest, force=args.force)
    print(f"risk: {len(report.entries)} pathologies at tau={args.tau}, "
          f"feasible={report.feasible} -> {out}")
    if args.gate and not report.feasible:
        violators = [e.pathology for e in report.entries if not e.ok]
        print(f"gate: infeasible ({', '.join(violators)})", file=sys.stderr)
        return 3
    return 0


def _cmd_holonorm_verify(args):
    out = Path(args.out)
    checks = []
    rng = np.random.default_rng(args.seed)

    density = holonorm.density_transform_check(holonorm.DensityCheckConfig(
        dimension=args.dim, samples=args.samples, seed=args.seed,
        tolerance=args.tol))
    checks.append(("density_transform", density["passes"],
                   density["mean_abs_rel_error"]))

    worst_rt = 0.0
    for _ in range(200):
        y = rng.uniform(-1.0, 1.0, size=args.dim)
        norm = np.linalg.norm(y)
        if norm >= 0.95:
            y = y * (0.9 / norm)
        worst_rt = max(worst_rt, float(np.abs(
            holonorm.hn(holonorm.inverse_hn(y)) - y).max()))
    checks.append(("inverse_round_trip", worst_rt <= 1e-12, worst_rt))

    worst_det = 0.0
    for _ in range(200):
        y = rng.uniform(-1.0, 1.0, size=args.dim)
        norm = np.linalg.norm(y)
        if norm >= 0.9:
            y = y * (0.85 / norm)
        closed = holonorm.det_jacobian_inverse_hn(y)
        fd = holonorm.finite_difference_jacobian_det(holonorm.inverse_hn, y)
        worst_det = max(worst_det, abs(fd - closed) / abs(closed))
    checks.append(("jacobian_determinant_vs_finite_difference",
                   worst_det <= 1e-5, worst_det))

    worst_lemma = 0.0
    for _ in range(100):
        alpha = rng.uniform(0.5, 2.0)
        beta = rng.uniform(0.0, 2.0)
        u = rng.standard_normal(int(rng.integers(2, 51)))
        lhs, rhs, _ = holonorm.matrix_determinant_lemma_check(alpha, beta, u)
        worst_lemma = max(worst_lemma, abs(lhs - rhs) / abs(rhs))
    checks.append(("matrix_determinant_lemma", worst_lemma <= 1e-8,
                   worst_lemma))

    dim = max(args.dim, 4)
    model = holonorm.HolonormModel.build(
        num_layers=1, model_dim=dim, num_heads=2 if dim % 2 == 0 else 1,
        ff_dim=2 * dim, seed=args.seed)
    probes = [rng.standard_normal((5, dim)) for _ in range(10)]
    degeneracy = holonorm.constant_param_degeneracy_check(model, probes)
    deg_ok = (degeneracy["degenerate_mha_constant"]
              and degeneracy["live_mha_distinct"]
              and degeneracy["feedforward_pointwise_consistent"])
    checks.append(("constant_parameter_degeneracy", deg_ok,
                   degeneracy["max_degenerate_mha_diff"]))

    report = {"dim": args.dim, "samples": args.samples, "seed": args.seed,
              "tolerance": args.tol,
              "passed": all(ok for _, ok, _ in checks),
              "density": density,
              "degeneracy": degeneracy,
              "checks": [{"name": n, "passed": ok, "statistic": stat}
                         for n, ok, stat in checks]}
    jsonio.write_json(out / "holonorm_report.json", report, force=args.force)
    jsonio.write_csv(out / "holonorm_checks.csv",
                     ("check", "passed", "statistic"), checks,
                     force=args.force)
    manifest = jsonio.build_manifest(
        "holonorm-verify", args.seed, {},
        {"dim": args.dim, "samples": args.samples, "tol": args.tol})
    jsonio.write_json(out / "manifest.json", manifest, force=args.force)
    print(f"holonorm-verify: {'PASS' if report['passed'] else 'FAIL'} "
          f"-> {out}")
    return 0 if report["passed"] else 2


def _cmd_game(args):
    scenario = game.load_scenario(args.scenario)
    specs = scenario["specs"]
    state = game.solve_nash(specs, scenario["mean_fields"],
                            scenario["constraints"])
    result = {"equilibrium": state.to_json_dict(specs),
              "seed": scenario["seed"]}
    if scenario["schedule"]:
        loop = game.stackelberg_loop(scenario["schedule"], specs, state,
                                     risks_override=scenario["risks"])
        result["stackelberg"] = {
            "steps": [{"eps": step["eps"],
                       "accepted": step["gate"].accepted,
                       "gate": step["gate"].to_json_dict()}
                      for step in loop["trace"]],
            "least_restrictive_accepted": loop["least_restrictive_accepted"],
        }
    out = Path(args.out)
    jsonio.write_json(out / "equilibrium.json", result, force=args.force)
    manifest = jsonio.build_manifest("game", scenario["seed"],
                                     {"scenario": args.scenario}, {})
    jsonio.write_json(out / "manifest.json", manifest, force=args.force)
    print(f"game: price {state.price:.6g} on the compute cap -> {out}")
    return 0


def _cmd_pareto(args):
    labels, values = fixtures.pareto_sweep(
        num_candidates=args.candidates,
        records_per_candidate=args.records, seed=args.seed, tau=args.tau)
    scan = risk_mod.pareto_scan(labels, values)
    report = {"tau": args.tau, "candidates": labels,
              "objectives": ["disfluency_risk", "grounding_risk"],
              "values": [list(v) for v in values],
              "pareto_indices": scan["pareto_indices"],
              "pareto_candidates": scan["pareto_candidates"],
              "non_aligned": scan["non_aligned"]}
    out = Path(args.out)
    jsonio.write_json(out / "pareto.json", report, force=args.force)
    jsonio.write_csv(out / "pareto.csv",
                     ("candidate", "disfluency_risk", "grounding_risk",
                      "pareto"),
                     [(lab, v[0], v[1], i in scan["pareto_indices"])
                      for i, (lab, v) in enumerate(zip(labels, values))],
                     force=args.force)
    manifest = jsonio.build_manifest(
        "pareto", args.seed, {},
        {"candidates": args.candidates, "records": args.records,
         "tau": args.tau})
    jsonio.write_json(out / "manifest.json", manifest, force=args.force)
    print(f"pareto: set size {len(scan['pareto_indices'])} of "
          f"{args.candidates}, non_aligned={scan['non_aligned']} -> {out}")
    return 0


def _cmd_report(args):
    with open(args.risk, "r", encoding="utf-8") as handle:
        risk_obj = json.load(handle)
    summary = {"feasible": risk_obj["feasible"], "tau": risk_obj["tau"],
               "total_ids": risk_obj["total_ids"],
               "distinct_pathologies": risk_obj["distinct_pathologies"],
               "pathologies": risk_obj["entries"]}
    rows = [(e["pathology"], e["n"], e["expectile"], e["eps"], e["ok"])
            for e in risk_obj["entries"]]
    if args.outcomes:
        outcomes = _load_outcome_files([args.outcomes])
        fired = sorted({o.pathology for o in outcomes if o.fired})
        summary["fired_pathologies"] = fired
    out = Path(args.out)
    jsonio.write_json(out / "summary.json", summary, force=args.force)
    jsonio.write_csv(out / "summary.csv",
                     ("pathology", "n", "R", "eps", "ok"), rows,
                     force=args.force)
    manifest = jsonio.build_manifest(
        "report", args.seed,
        {"risk": args.risk, "outcomes": args.outcomes}, {})
    jsonio.write_json(out / "manifest.json", manifest, force=args.force)
    print(f"report: feasible={summary['feasible']} -> {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pathrisk",
        description="Pathology detectors, expectile risk reports, holonorm "
                    "verification, and the risk-gated delegation game.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("audit", help="run detectors over a JSONL corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", choices=("trace", "classification"),
                   default="trace")
    p.add_argument("--kb")
    p.add_argument("--fixtures")
    p.add_argument("--config",
                   help="JSON object with optional sections generative, "
                        "mi and discriminative, keyed by the fields of "
                        "GenerativeConfig, MIEstimatorConfig and "
                        "DiscriminativeConfig")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=jsonio.default_out_dir())
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("risk", help="expectile risk report over outcomes")
    p.add_argument("--outcomes", action="append", required=True)
    p.add_argument("--tau", type=float, default=0.9)
    p.add_argument("--eps")
    p.add_argument("--gate", action="store_true",
                   help="exit 3 when the deployment gate rejects")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=jsonio.default_out_dir())
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_risk)

    p = sub.add_parser("holonorm-verify",
                       help="numerical verification of the holonorm "
                            "identities")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=0.1)
    p.add_argument("--out", default=jsonio.default_out_dir())
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_holonorm_verify)

    p = sub.add_parser("game", help="solve a delegation-game scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=jsonio.default_out_dir())
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("pareto",
                       help="fluency-versus-grounding non-alignment sweep")
    p.add_argument("--candidates", type=int, default=9)
    p.add_argument("--records", type=int, default=40)
    p.add_argument("--tau", type=float, default=0.9)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=jsonio.default_out_dir())
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("report", help="merge risk and audit outputs")
    p.add_argument("--risk", required=True)
    p.add_argument("--outcomes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=jsonio.default_out_dir())
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, CliError, jsonio.OutputExistsError, ValueError,
            FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
