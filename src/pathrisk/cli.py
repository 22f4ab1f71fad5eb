"""Command-line entry point.

Subcommands: audit, risk, holonorm-verify, game, pareto, report. Every run
writes canonical JSON reports plus CSV summaries and a manifest (version,
seed, BLAKE2b input digests that `b2sum` checks, config hash) into --out.
The seed is --seed where a subcommand draws random numbers: the samples of
holonorm-verify and pareto (`draws.Generator`) and the MI projections of
audit, all from the standard library's `random`. game takes it from its
scenario; risk and report draw none, so they take no --seed and write
"seed": null. Exit codes: 0 success; 1 a failed identity
(holonorm-verify); 2 a rejected input (such as a path it cannot read or
write, or a file that is not UTF-8) or a usage error; 3 an infeasible
deployment gate (risk --gate); 4 an internal error, a bug, whose
traceback the console script prints.

Every input file is decoded field by field by the `records` kinds: a value
of the wrong JSON type is rejected, never coerced ("0.5", true and NaN are
no numbers), and so is a key that the format does not declare and its
reader does not skip. The message names the file, the entry (such as line
3, agents[1], epsilon_schedule[0], outcomes[2] or entries[0]) and the
field. A classification corpus is decoded line by line into columns, and
the checks across fields and lines (probabilities, labels, argmax,
repeated ids) run over all lines at once, still naming the first line that
fails. Each format is read by the module that owns it: the corpora, the
knowledge base and the causal fixtures by `records`, --config here,
--eps by `risk.resolve_eps`, --scenario by `game.load_scenario`,
--outcomes by `registry.load_outcome_files` and --risk by
`risk.read_risk_report`. The last two files are ones this package writes,
and their readers sit beside their writers, so this module names no key
of either.

`audit` writes outcomes.json (`registry.AuditResult`), one layout for both
schemas. At 0.7.0 it holds one firing threshold per detector with
outcomes, under "firing_thresholds", and outcomes that hold only their
pathology, severity and unit. The unit is one string: a record's id, a
pair's two ids sorted and joined by ",", a conversation's id ("" without
one), "x->y" for a causal fixture, and "" for a corpus detector and every
discriminative one; `dropped` keys the units it drops by the same string.
`risk` folds each outcome's severity as a loss sample, and an outcome
fired where severity >= its detector's threshold. A 0.6.0 file, whose
outcomes carry `record_ids` and `threshold`, exits 2 naming the field.
The evidence goes to evidence.json, each detector's list in the order of
its outcomes, which no subcommand reads.
`audit` also writes validation.json (`registry.ValidationReport`): each
record once, under the fields it lacks, and the fields each detector
reads, which tell what records it could score and why it skipped the
others. Only trace detectors read --kb and --fixtures, so classification
rejects both. `risk` writes risk_report.json (`risk.RiskReport`), and
`report` writes summary.json, its decoded fields with the entries as
"pathologies", and summary.csv.

`audit --config` reads a JSON object with the optional sections
"generative" and "discriminative", one per detector family, such as
{"generative": {"delta": 0.95}}. Their keys are the fields of
GenerativeConfig and DiscriminativeConfig, each decoded by the kind of its
type; each value applies to every detector that reads it. GenerativeConfig's
`seed`, the MI projection seed, is --seed, not a config key. A value its
config class rejects exits 2 as well.
`audit` checks --seed before it reads any file, for either schema, as
`risk` checks --tau. It then reads its inputs in this order: the config,
the knowledge base, the causal fixtures, then the corpus. So when two
inputs are bad, the error of the one read first is reported. A trace
corpus comes last because its record-level detectors score each record as
its line is read, against the knowledge base. A line's parse tree is freed
before its record is scored, and the full record before the next line is
read; only the fields the other detectors read are kept, and the knowledge
base is freed when the corpus has been read, before the other detectors
run.

Importing this module loads `records`, `registry` and `jsonio` of the
package and no numpy; each subcommand imports the rest when it runs.
`audit` adds `generative` and `metrics` for a trace corpus or
`discriminative` and `classification` for a classification one (the
first three with --config); `risk` and `report` add `risk`;
`holonorm-verify` adds `holonorm` and `draws`; `game` adds `game` and
`risk`; `pareto` adds `draws`, `fixtures`, `metrics` and `risk`. Numpy
loads with the first array computed: never for `report`, --help or an
input rejected before its arrays are built. No subcommand loads
`numpy.random` or OpenSSL's libcrypto (through `hashlib` or `secrets`),
which only add resident memory. Tests pin all three.
"""

import argparse
import dataclasses
import sys
from operator import attrgetter
from pathlib import Path

from . import jsonio
from .records import (CorpusError, declare, decode_object,
                      load_causal_fixtures, load_knowledge_base,
                      load_trace_corpus, read_json)
from .registry import group_by, load_outcome_files, pathology_ids
# the audits build the validation report; the name stays bound here for
# perfbench/layers.py, which rebinds it on this module too
from .registry import validate_corpus  # noqa: F401


# the records kind of a config field's type
_TYPE_KINDS = {float: "number", int: "integer", bool: "boolean", str: "string"}


def _load_config(path):
    """The --config file as {section: {key: decoded value}}."""
    if path is None:
        return {}
    from .discriminative import DiscriminativeConfig
    from .generative import GenerativeConfig
    # section -> its config class; GenerativeConfig's seed is --seed
    config_classes = {"generative": GenerativeConfig,
                      "discriminative": DiscriminativeConfig}
    where = f"config {path}"
    config = decode_object(
        declare(*((name, "object") for name in config_classes)),
        read_json(path), where)
    for section, body in config.items():
        cls, here = config_classes[section], f"{where}: section {section!r}"
        fields = declare(*((f.name, _TYPE_KINDS[f.type])
                           for f in dataclasses.fields(cls)
                           if f.name != "seed"))
        config[section] = decode_object(fields, body, here)
        # the class checks the ranges, whichever schema the audit reads
        try:
            cls(**config[section])
        except ValueError as exc:
            raise CorpusError(f"{here}: {exc}") from None
    return config


def _write(args, files, manifest):
    """Write `files`, {name: JSON document, or (header, rows) for a .csv},
    and manifest.json from build_manifest(*manifest) under --out; return
    that directory."""
    out = Path(args.out)
    for name, content in files.items():
        if name.endswith(".csv"):
            jsonio.write_csv(out / name, *content, force=args.force)
        else:
            jsonio.write_json(out / name, content, force=args.force)
    jsonio.write_json(out / "manifest.json",
                      jsonio.build_manifest(*manifest), force=args.force)
    return out


def _cmd_audit(args):
    # a bad --seed is rejected before any file is read, for both schemas
    if args.seed < 0:
        raise ValueError(f"seed {args.seed} must be a nonnegative integer")
    for flag in ("kb", "fixtures"):
        if args.schema == "classification" and getattr(args, flag):
            raise ValueError(f"--{flag} applies to trace corpora only")
    # the config (which imports every detector module) and the detectors
    # come before the corpus: the memory that compiling them takes is then
    # freed before the corpus takes its own, so the two do not add up.
    # numpy is imported here, not at the summary rows that use it, for heap
    # layout alone: there it read 0.17-0.25 MB more classify_gate peak RSS
    # without a bytecode cache and 0.09 MB less with one (BENCH_38.json,
    # `import_position`)
    import numpy as np
    cfg_obj = _load_config(args.config)
    if args.schema == "trace":
        from . import generative
        # the record-level detectors score each record as its line is read,
        # so the knowledge base they match against is read first. The step
        # holds the only reference to it, which the audit drops once the
        # load ends
        step = generative.RecordStep(
            load_knowledge_base(args.kb) if args.kb else None,
            generative.GenerativeConfig(**cfg_obj.get("generative", {}),
                                        seed=args.seed))
        causal = load_causal_fixtures(args.fixtures) if args.fixtures else ()
        result = generative.audit_generative(
            load_trace_corpus(args.corpus, record=step), fixtures=causal,
            step=step)
    else:
        from . import discriminative
        result = discriminative.audit_discriminative(
            load_trace_corpus(args.corpus, schema=args.schema),
            cfg=discriminative.DiscriminativeConfig(
                **cfg_obj.get("discriminative", {})))
    rows = [(group[0].pathology, len(group),
             float(np.mean([o.fired for o in group])),
             float(np.mean([o.severity for o in group])))
            for group in group_by(result.outcomes, attrgetter("pathology"))]
    out = _write(args, {
        "outcomes.json": result.to_json_dict(),
        "evidence.json": result.evidence_json_dict(),
        "validation.json": result.validation.to_json_dict(),
        "audit_summary.csv": (("pathology", "n", "fired_rate",
                               "mean_severity"), rows)},
        ("audit", args.seed,
         {"corpus": args.corpus, "kb": args.kb, "fixtures": args.fixtures,
          "config": args.config},
         {"schema": args.schema, "seed": args.seed, "config": cfg_obj}))
    print(f"audit: {len(result.outcomes)} outcomes, "
          f"{len(result.skipped)} detectors skipped -> {out}")
    return 0


def _cmd_risk(args):
    from . import risk
    # a bad --tau is rejected before any file is read
    cfg = risk.ExpectileConfig(tau=args.tau)
    outcomes = load_outcome_files(args.outcomes)
    eps = None if args.eps is None else risk.resolve_eps(
        read_json(args.eps), pathology_ids(), f"eps {args.eps}")
    report = risk.risk_report(outcomes, eps=eps, cfg=cfg)
    out = _write(args, {"risk_report.json": report.to_json_dict(),
                        "risk_summary.csv": report.csv_rows()},
                 ("risk", None,
                  {f"outcomes{i}": p for i, p in enumerate(args.outcomes)}
                  | {"eps": args.eps},
                  {"tau": args.tau, "gate": args.gate}))
    print(f"risk: {len(report.entries)} pathologies at tau={args.tau}, "
          f"feasible={report.feasible} -> {out}")
    if args.gate and not report.feasible:
        violators = [e.pathology for e in report.entries if not e.ok]
        print(f"gate: infeasible ({', '.join(violators)})", file=sys.stderr)
        return 3
    return 0


def _cmd_holonorm_verify(args):
    import numpy as np
    from . import draws, holonorm
    checks = []
    rng = draws.Generator(args.seed)

    density = holonorm.density_transform_check(holonorm.DensityCheckConfig(
        dimension=args.dim, samples=args.samples, seed=args.seed,
        tolerance=args.tol))
    checks.append(("density_transform", density["passes"],
                   density["mean_abs_rel_error"]))

    worst_rt = 0.0
    for _ in range(200):
        y = rng.uniforms(-1.0, 1.0, args.dim)
        norm = np.linalg.norm(y)
        if norm >= 0.95:
            y = y * (0.9 / norm)
        worst_rt = max(worst_rt, float(np.abs(
            holonorm.hn(holonorm.inverse_hn(y)) - y).max()))
    checks.append(("inverse_round_trip", worst_rt <= 1e-12, worst_rt))

    worst_det = 0.0
    for _ in range(200):
        y = rng.uniforms(-1.0, 1.0, args.dim)
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
        alpha = float(rng.uniforms(0.5, 2.0))
        beta = float(rng.uniforms(0.0, 2.0))
        u = rng.normals(rng.randrange(2, 51))
        lhs, rhs, _ = holonorm.matrix_determinant_lemma_check(alpha, beta, u)
        worst_lemma = max(worst_lemma, abs(lhs - rhs) / abs(rhs))
    checks.append(("matrix_determinant_lemma", worst_lemma <= 1e-8,
                   worst_lemma))

    dim = max(args.dim, 4)
    model = holonorm.HolonormModel.build(
        num_layers=1, model_dim=dim, num_heads=2 if dim % 2 == 0 else 1,
        ff_dim=2 * dim, seed=args.seed)
    probes = [rng.normals((5, dim)) for _ in range(10)]
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
    out = _write(args, {"holonorm_report.json": report,
                        "holonorm_checks.csv": (("check", "passed",
                                                 "statistic"), checks)},
                 ("holonorm-verify", args.seed, {},
                  {"dim": args.dim, "samples": args.samples,
                   "tol": args.tol}))
    print(f"holonorm-verify: {'PASS' if report['passed'] else 'FAIL'} "
          f"-> {out}")
    return 0 if report["passed"] else 1


def _cmd_game(args):
    from . import game
    scenario = game.load_scenario(args.scenario)
    specs = scenario["specs"]
    state = game.solve_nash(specs, scenario["constraints"])
    result = {"equilibrium": state.to_json_dict(specs),
              "seed": scenario["seed"]}
    if scenario["schedule"]:
        risks = scenario["risks"]
        if risks is None:
            risks = {s.pathology: s.risk(t)
                     for s, t in zip(specs, state.thetas)}
        loop = game.stackelberg_loop(scenario["schedule"], risks)
        result["stackelberg"] = {
            "steps": [{"eps": step["eps"],
                       "accepted": step["gate"].accepted,
                       "gate": step["gate"].to_json_dict()}
                      for step in loop["trace"]],
            "least_restrictive_accepted": loop["least_restrictive_accepted"],
        }
    out = _write(args, {"equilibrium.json": result},
                 ("game", scenario["seed"], {"scenario": args.scenario}, {}))
    print(f"game: price {state.price:.6g} on the compute cap -> {out}")
    return 0


def _cmd_pareto(args):
    from . import fixtures, risk
    labels, values = fixtures.pareto_sweep(
        num_candidates=args.candidates,
        records_per_candidate=args.records, seed=args.seed, tau=args.tau)
    scan = risk.pareto_scan(labels, values)
    report = {"tau": args.tau, "candidates": labels,
              "objectives": ["disfluency_risk", "grounding_risk"],
              "values": [list(v) for v in values],
              "pareto_indices": scan["pareto_indices"],
              "pareto_candidates": scan["pareto_candidates"],
              "non_aligned": scan["non_aligned"]}
    rows = [(lab, v[0], v[1], i in scan["pareto_indices"])
            for i, (lab, v) in enumerate(zip(labels, values))]
    out = _write(args, {"pareto.json": report, "pareto.csv": (
        ("candidate", "disfluency_risk", "grounding_risk", "pareto"), rows)},
        ("pareto", args.seed, {}, {"candidates": args.candidates,
                                   "records": args.records, "tau": args.tau}))
    print(f"pareto: set size {len(scan['pareto_indices'])} of "
          f"{args.candidates}, non_aligned={scan['non_aligned']} -> {out}")
    return 0


def _cmd_report(args):
    from .risk import read_risk_report
    fields, entries, rows = read_risk_report(args.risk)
    # the entries as they are; the CSV rows from their decoded fields
    summary = fields | {"pathologies": entries}
    if args.outcomes:
        outcomes = load_outcome_files([args.outcomes])
        fired = sorted({o.pathology for o in outcomes if o.fired})
        summary["fired_pathologies"] = fired
    out = _write(args, {"summary.json": summary, "summary.csv": (
        ("pathology", "n", "R", "eps", "ok"), rows)},
        ("report", None, {"risk": args.risk, "outcomes": args.outcomes},
         {}))
    print(f"report: feasible={summary['feasible']} -> {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pathrisk",
        description="Pathology detectors, expectile risk reports, holonorm "
                    "verification, and the risk-gated delegation game.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out", default="out")
        p.add_argument("--force", action="store_true")
        return p

    p = command("audit", _cmd_audit, "run detectors over a JSONL corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", choices=("trace", "classification"),
                   default="trace")
    p.add_argument("--kb", help="trace corpora only")
    p.add_argument("--fixtures", help="trace corpora only")
    p.add_argument("--config",
                   help="JSON object with optional sections generative "
                        "and discriminative, keyed by the fields of "
                        "GenerativeConfig (but seed, which is --seed) and "
                        "DiscriminativeConfig")
    p.add_argument("--seed", type=int, default=0)

    p = command("risk", _cmd_risk, "expectile risk report over outcomes")
    p.add_argument("--outcomes", action="append", required=True)
    p.add_argument("--tau", type=float, default=0.9)
    p.add_argument("--eps")
    p.add_argument("--gate", action="store_true",
                   help="exit 3 when the deployment gate rejects")

    p = command("holonorm-verify", _cmd_holonorm_verify,
                "numerical verification of the holonorm identities")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=0.1)

    p = command("game", _cmd_game, "solve a delegation-game scenario")
    p.add_argument("--scenario", required=True)

    p = command("pareto", _cmd_pareto,
                "fluency-versus-grounding non-alignment sweep")
    p.add_argument("--candidates", type=int, default=9)
    p.add_argument("--records", type=int, default=40)
    p.add_argument("--tau", type=float, default=0.9)
    p.add_argument("--seed", type=int, required=True)

    p = command("report", _cmd_report, "merge risk and audit outputs")
    p.add_argument("--risk", required=True)
    p.add_argument("--outcomes")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # every input error is a ValueError, such as CorpusError or GameError,
    # and an OSError names the path that could not be read or written
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    """The console script. An exception that `main` does not map to a
    verdict is a bug: its traceback is printed and the exit code is 4."""
    try:
        code = main()
    except Exception:
        import traceback
        traceback.print_exc()
        code = 4
    sys.exit(code)


if __name__ == "__main__":
    entry()
