"""The layers the traced run measures: which pathrisk functions it wraps
and the per-layer metrics it derives from the recorded spans.

Most callers look these functions up as module attributes at call time,
so rebinding the attribute is enough. Where a caller imported a function
by name (`sim` and `coherence` in generative, `load_trace_corpus`,
`load_knowledge_base` and `validate_corpus` in cli), the name is rebound
there too. `*_s` metrics are inclusive seconds of the named calls, except
`cli.*.self_s`, which exclude their child spans; `cli.<subcommand>_s` is the
whole subcommand.
"""

import json
import os
from pathlib import Path

from pathrisk import (cli, discriminative, fixtures, game, generative,
                      holonorm, jsonio, metrics, records, registry, risk)

from tracer import self_times

GENERATIVE_IDS = tuple(sorted(registry.GENERATIVE_DETECTORS))
DISCRIMINATIVE_IDS = tuple(sorted(registry.DISCRIMINATIVE_DETECTORS))
CLI_COMMANDS = (("audit", "_cmd_audit"), ("risk", "_cmd_risk"),
                ("report", "_cmd_report"),
                ("holonorm_verify", "_cmd_holonorm_verify"),
                ("game", "_cmd_game"), ("pareto", "_cmd_pareto"))


def install(tracer):
    """Rebind every traced function; undo with tracer.restore()."""
    t, count = tracer, tracer.counters

    def add_size(key):
        def after(args, kwargs, result, exc):
            if exc is None:
                count[key] += os.path.getsize(args[0])
        return after

    def after_score(args, kwargs, result, exc):
        count["generative.score_calls"] += 1
        if isinstance(exc, (generative.DetectorError, metrics.MetricError)):
            count["generative.dropped_units"] += 1

    def after_density(args, kwargs, result, exc):
        cfg = args[0]
        count["holonorm.density_cells"] += cfg.default_bins() ** cfg.dimension

    def after_holonorm_verify(args, kwargs, result, exc):
        report = Path(args[0].out) / "holonorm_report.json"
        if exc is not None or not report.exists():
            count["holonorm.checks_failed"] += 1
            return
        checks = json.loads(report.read_text(encoding="utf-8"))["checks"]
        count["holonorm.checks_failed"] += sum(not c["passed"]
                                               for c in checks)

    def after_risk(args, kwargs, result, exc):
        count["risk.losses"] += len(args[0])

    t.patch(t.timed(records.load_trace_corpus, "records.load",
                    add_size("records.bytes_read")),
            (records, "load_trace_corpus"), (cli, "load_trace_corpus"))
    t.patch(t.timed(records.load_knowledge_base, "records.load_kb",
                    add_size("records.bytes_read")),
            (records, "load_knowledge_base"), (cli, "load_knowledge_base"))
    t.patch(t.timed(records.load_causal_fixtures, "records.load_fixtures",
                    add_size("records.bytes_read")),
            (records, "load_causal_fixtures"), (cli, "load_causal_fixtures"))
    t.patch(t.timed(registry.validate_corpus, "registry.validate_corpus"),
            (registry, "validate_corpus"), (cli, "validate_corpus"))
    t.patch(t.timed(generative.audit_generative, "generative.audit"),
            (generative, "audit_generative"))
    t.patch(t.timed(generative.score,
                    lambda pathology, *a, **k: f"generative.{pathology}",
                    after_score),
            (generative, "score"))
    t.patch(t.counted(metrics.sim, "metrics.sim_calls"),
            (metrics, "sim"), (generative, "sim"))
    t.patch(t.timed(metrics.coherence, "metrics.coherence"),
            (metrics, "coherence"), (generative, "coherence"))
    for name in ("semantic_entropy", "avg_pairwise_similarity",
                 "mutual_information"):
        t.patch(t.timed(getattr(metrics, name), f"metrics.{name}"),
                (metrics, name))
    t.patch(t.timed(discriminative.audit_discriminative,
                    "discriminative.audit"),
            (discriminative, "audit_discriminative"))
    t.patch(t.timed(discriminative.score_discriminative,
                    lambda pathology, *a, **k: f"discriminative.{pathology}"),
            (discriminative, "score_discriminative"))
    t.patch(t.timed(risk.risk_report, "risk.risk_report", after_risk),
            (risk, "risk_report"))
    t.patch(t.timed(risk.pareto_scan, "risk.pareto_scan"),
            (risk, "pareto_scan"))
    t.patch(t.timed(jsonio.write_json, "jsonio.write",
                    add_size("jsonio.bytes_written")),
            (jsonio, "write_json"))
    t.patch(t.timed(jsonio.write_csv, "jsonio.write",
                    add_size("jsonio.bytes_written")),
            (jsonio, "write_csv"))
    t.patch(t.timed(jsonio.build_manifest, "jsonio.manifest"),
            (jsonio, "build_manifest"))
    for name, attr in CLI_COMMANDS:
        after = after_holonorm_verify if name == "holonorm_verify" else None
        t.patch(t.timed(getattr(cli, attr), f"cli.{name}", after),
                (cli, attr))
    t.patch(t.timed(holonorm.density_transform_check,
                    "holonorm.density_check", after_density),
            (holonorm, "density_transform_check"))
    t.patch(t.timed(game.solve_nash, "game.solve_nash"),
            (game, "solve_nash"))
    t.patch(t.timed(game.stackelberg_loop, "game.stackelberg"),
            (game, "stackelberg_loop"))
    t.patch(t.counted(game.best_response, "game.best_response_calls"),
            (game, "best_response"))
    t.patch(t.timed(fixtures.pareto_sweep, "fixtures.pareto_sweep"),
            (fixtures, "pareto_sweep"))


# (metric, span name): inclusive seconds of every span with that name
_SPANS = (
    [("records.load_s", "records.load"),
     ("records.load_kb_s", "records.load_kb"),
     ("registry.validate_corpus_s", "registry.validate_corpus"),
     ("generative.audit_s", "generative.audit")]
    + [(f"generative.{d}_s", f"generative.{d}") for d in GENERATIVE_IDS]
    + [(f"metrics.{m}_s", f"metrics.{m}")
       for m in ("coherence", "semantic_entropy", "avg_pairwise_similarity",
                 "mutual_information")]
    + [("discriminative.audit_s", "discriminative.audit")]
    + [(f"discriminative.{d}_s", f"discriminative.{d}")
       for d in DISCRIMINATIVE_IDS]
    + [("risk.risk_report_s", "risk.risk_report"),
       ("jsonio.write_s", "jsonio.write"),
       ("jsonio.manifest_s", "jsonio.manifest"),
       ("holonorm.density_check_s", "holonorm.density_check"),
       ("game.solve_nash_s", "game.solve_nash"),
       ("game.stackelberg_s", "game.stackelberg"),
       ("fixtures.pareto_sweep_s", "fixtures.pareto_sweep"),
       ("risk.pareto_scan_s", "risk.pareto_scan")])
# (counter, unit)
_COUNTERS = (("records.bytes_read", "B"), ("generative.score_calls", "count"),
             ("generative.dropped_units", "count"),
             ("metrics.sim_calls", "count"), ("risk.losses", "count"),
             ("jsonio.bytes_written", "B"),
             ("holonorm.density_cells", "count"),
             ("holonorm.checks_failed", "count"),
             ("game.best_response_calls", "count"))


def layer_metrics(tracer):
    """{metric: (value, unit)} for one traced repetition."""
    totals = tracer.totals()
    own = self_times(tracer.spans)
    out = {name: (totals.get(span, 0.0), "s") for name, span in _SPANS}
    for name, _ in CLI_COMMANDS:
        out[f"cli.{name}_s"] = (totals.get(f"cli.{name}", 0.0), "s")
        out[f"cli.{name}.self_s"] = (own.get(f"cli.{name}", 0.0), "s")
    for name, unit in _COUNTERS:
        out[name] = (float(tracer.counters.get(name, 0.0)), unit)
    detector_self = sum(v for k, v in own.items()
                        if k.startswith(("generative.", "discriminative."))
                        and k.split(".", 1)[1] in registry.REGISTRY)
    audit = totals.get("cli.audit", 0.0)
    out["audit.detector_self_share"] = (
        detector_self / audit if audit > 0.0 else 0.0, "ratio")
    return out
