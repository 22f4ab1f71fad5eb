import dataclasses
import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corpora
from pathrisk import cli, discriminative, generative, holonorm, jsonio
from pathrisk import registry
from pathrisk import risk as risk_mod
from pathrisk.records import (load_causal_fixtures, load_knowledge_base,
                              load_trace_corpus)
from pathrisk.registry import (DISCRIMINATIVE_DETECTORS, GENERATIVE_DETECTORS,
                               DetectorOutcome, pathology_ids)
from conftest import fresh_json, labelled, run_fresh
from oracles import (canonical_json, loop_mutual_information, outcome_row,
                     regrouped_evidence)


def _outputs(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _trace_audit(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpora.write_input(corpus, corpora.demo_trace_corpus())
    kb = tmp_path / "kb.json"
    corpora.write_input(kb, corpora.standard_kb())
    causal = tmp_path / "fixtures.json"
    corpora.write_input(causal, corpora.demo_causal_fixture())
    return ["audit", "--corpus", str(corpus), "--kb", str(kb),
            "--fixtures", str(causal)]


def _audited(tmp_path):
    """outcomes.json of a trace audit run once in tmp_path."""
    out = tmp_path / "audited"
    assert cli.main(_trace_audit(tmp_path) + ["--out", str(out)]) == 0
    return str(out / "outcomes.json")


def _risked(tmp_path):
    """(risk_report.json, outcomes.json) of a gated risk run once."""
    outcomes = _audited(tmp_path)
    out = tmp_path / "risked"
    assert cli.main(["risk", "--outcomes", outcomes, "--gate",
                     "--out", str(out)]) in (0, 3)
    return str(out / "risk_report.json"), outcomes


def _argv(tmp_path, subcommand):
    if subcommand == "game":
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(corpora.coupled_game_scenario()))
        return ["game", "--scenario", str(scenario)]
    if subcommand == "holonorm-verify":
        return ["holonorm-verify", "--dim", "2", "--seed", "0"]
    if subcommand == "audit-trace":
        return _trace_audit(tmp_path)
    if subcommand == "audit-classification":
        corpus = tmp_path / "corpus.jsonl"
        corpora.write_input(corpus, corpora.demo_classification_rows())
        return ["audit", "--corpus", str(corpus),
                "--schema", "classification"]
    if subcommand == "risk-gate":
        eps = tmp_path / "eps.json"
        eps.write_text(json.dumps({"default": 0.5}))
        return ["risk", "--outcomes", _audited(tmp_path), "--eps", str(eps),
                "--gate"]
    if subcommand == "report":
        risk_report, outcomes = _risked(tmp_path)
        return ["report", "--risk", risk_report, "--outcomes", outcomes]
    return ["pareto", "--seed", "0"]


@pytest.mark.parametrize("subcommand", [
    "game", "holonorm-verify", "audit-trace", "audit-classification",
    "risk-gate", "report", "pareto"])
def test_reruns_are_byte_identical(tmp_path, subcommand):
    argv = _argv(tmp_path, subcommand)
    runs, codes = [], []
    for name in ("first", "second"):
        out = tmp_path / name
        codes.append(cli.main(argv + ["--out", str(out)]))
        runs.append(_outputs(out))
    first, second = runs
    # at eps 0.5 the gate rejects the demo corpus: exit 3, outputs written
    assert codes == ([3, 3] if subcommand == "risk-gate" else [0, 0])
    assert first == second
    assert "manifest.json" in first
    assert len(first) == {"game": 2, "audit-trace": 5,
                          "audit-classification": 5}.get(subcommand, 3)


@pytest.mark.parametrize("subcommand", ["audit-trace", "audit-classification"])
def test_validation_covers_every_detector(tmp_path, subcommand):
    out = tmp_path / "out"
    assert cli.main(_argv(tmp_path, subcommand) + ["--out", str(out)]) == 0
    validation = json.loads((out / "validation.json").read_text())
    records = [json.loads(line) for line in
               (tmp_path / "corpus.jsonl").read_text().splitlines()]
    assert validation["record_count"] == len(records)
    assert set(validation["detectors"]) == set(pathology_ids())
    ids = sorted(r["id"] for r in records)
    # the other family's detectors: no record is of their kind
    other = (DISCRIMINATIVE_DETECTORS if subcommand == "audit-trace"
             else GENERATIVE_DETECTORS)
    for name, entry in validation["detectors"].items():
        if name in other:
            assert entry["count"] == len(records)
            assert entry["not_applicable"].startswith("<requires a ")
            continue
        assert entry["reads"] == list(registry.REGISTRY[name].fields)
        assert 0 <= entry["available_count"] <= len(records)
    # every record is listed once, under the fields it lacks
    listed = []
    for group in validation["lacking"].values():
        assert group["count"] == len(group["ids"]) > 0
        listed += group["ids"]
    assert sorted(listed) == ids


def test_audit_rejects_an_empty_claim_list(tmp_path, capsys):
    argv = _trace_audit(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"id": "no-claims",
                                 "input_embedding": [1.0, 0.0, 0.0, 0.0],
                                 "output_embedding": [0.0, 1.0, 0.0, 0.0],
                                 "claim_embeddings": []}) + "\n")
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "'no-claims', field 'claim_embeddings'" in capsys.readouterr().err


def test_audit_drops_a_conversation_with_mixed_style_lengths(tmp_path):
    argv = _trace_audit(tmp_path)
    with open(tmp_path / "corpus.jsonl", "a", encoding="utf-8") as handle:
        for i, dim in enumerate([4, 4, 5, 5]):
            handle.write(json.dumps({
                "id": f"mixed-{i}", "input_embedding": [1.0, 0.0, 0.0, 0.0],
                "output_embedding": [0.0, 1.0, 0.0, 0.0],
                "style_embedding": [1.0] + [0.5 * i] * (dim - 1),
                "output_token_logprobs": [-0.1],
                "annotations": {"conversation_id": "mixed"}}) + "\n")
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    outcomes = json.loads((out / "outcomes.json").read_text())
    reason = "semantic_warming: style embeddings have mixed lengths [4, 5]"
    assert outcomes["dropped"]["semantic_warming"] == {"mixed": reason}


def test_game_reports_one_exact_round(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(corpora.coupled_game_scenario()))
    out = tmp_path / "out"
    assert cli.main(["game", "--scenario", str(scenario),
                     "--out", str(out)]) == 0
    result = json.loads((out / "equilibrium.json").read_text())
    equilibrium = result["equilibrium"]
    assert sorted(equilibrium) == ["agents", "price"]
    # canonical JSON rounds to 12 decimals; the exact price is sqrt(2) - 1
    assert equilibrium["price"] == pytest.approx(math.sqrt(2.0) - 1.0,
                                                 abs=1e-12)
    assert not (out / "iterations.csv").exists()
    steps = result["stackelberg"]["steps"]
    assert [sorted(s) for s in steps] == [["accepted", "eps", "gate"]] * 2


@pytest.mark.parametrize("flags,code,stream,shown", [
    # --tol 0: no sample estimate of the density matches it exactly
    labelled("flags0", ["--dim", "2", "--tol", "0", "--samples", "10000"],
             1, "out", "holonorm-verify: FAIL"),
    labelled("flags1", ["--dim", "0"], 2, "err",
             "error: dimension must be >= 1"),
    labelled("flags2", ["--dim", "2", "--tol", "-1"], 2, "err",
             "error: tolerance -1.0 must be >= 0"),
    labelled("flags3", ["--dim", "2", "--tol", "nan"], 2, "err",
             "error: tolerance nan must be >= 0"),
    labelled("flags4", ["--dim", "2", "--seed", "-1"], 2, "err",
             "error: seed -1 must be a nonnegative integer")])
def test_holonorm_verify_tells_a_failed_identity_from_a_bad_input(
        tmp_path, capsys, flags, code, stream, shown):
    argv = ["holonorm-verify", "--seed", "0", "--out", str(tmp_path / "out")]
    assert cli.main(argv + flags) == code
    assert shown in getattr(capsys.readouterr(), stream)


def test_holonorm_verify_writes_a_failed_density_check_without_a_full_bin(
        tmp_path, capsys, monkeypatch):
    # no bin can hold more samples than were drawn
    real = holonorm.density_transform_check
    monkeypatch.setattr(holonorm, "density_transform_check", lambda cfg: real(
        dataclasses.replace(cfg, min_bin_count=cfg.samples + 1)))
    out = tmp_path / "out"
    assert cli.main(["holonorm-verify", "--dim", "3", "--seed", "0",
                     "--samples", "10000", "--out", str(out)]) == 1
    assert "holonorm-verify: FAIL" in capsys.readouterr().out
    report = json.loads((out / "holonorm_report.json").read_text())
    assert report["checks"][0] == {"name": "density_transform",
                                   "passed": False, "statistic": "inf"}
    assert report["density"]["bins_used"] == 0
    assert [c["passed"] for c in report["checks"][1:]] == [True] * 4


# the package modules a fresh interpreter loads to import pathrisk.cli (and
# no numpy), and those each subcommand adds when it runs
_CLI_IMPORTS = {"pathrisk", "pathrisk.cli", "pathrisk.jsonio",
                "pathrisk.records", "pathrisk.registry"}
_SUBCOMMAND_IMPORTS = {
    "risk-gate": {"risk"}, "report": {"risk"},
    "audit-classification": {"classification", "discriminative"},
    "audit-trace": {"generative", "metrics"},
    "holonorm-verify": {"draws", "holonorm"}, "game": {"game", "risk"},
    "pareto": {"draws", "fixtures", "metrics", "risk"}}
_IMPORT_PROBE = """\
import json, sys
import pathrisk.cli
loaded = {m for m in sys.modules if m.split(".")[0] in ("pathrisk", "numpy")}
code = pathrisk.cli.main(sys.argv[1:])
added = {m for m in sys.modules if m.split(".")[0] == "pathrisk"} - loaded
print(json.dumps([sorted(loaded), sorted(added), code,
                  "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("subcommand", sorted(_SUBCOMMAND_IMPORTS))
def test_each_subcommand_imports_only_its_own_modules(tmp_path, subcommand):
    argv = _argv(tmp_path, subcommand) + ["--out", str(tmp_path / "probe")]
    loaded, added, code, numpy = fresh_json(_IMPORT_PROBE, *argv,
                                            cwd=tmp_path)
    assert set(loaded) == _CLI_IMPORTS
    assert set(added) == {f"pathrisk.{m}"
                          for m in _SUBCOMMAND_IMPORTS[subcommand]}
    assert code == (3 if subcommand == "risk-gate" else 0)
    # numpy loads with the first array a subcommand computes; report
    # computes none
    assert numpy == (subcommand != "report")


# each argument is one argv, as JSON, run in turn in one interpreter; after
# each run, whether numpy has loaded
_NUMPY_PROBE = """\
import json, sys
import pathrisk.cli
codes, numpy = [], []
for argv in sys.argv[1:]:
    try:
        codes.append(pathrisk.cli.main(json.loads(argv)))
    except SystemExit as exc:   # --help
        codes.append(exc.code)
    numpy.append("numpy" in sys.modules)
print(json.dumps([codes, numpy]))
"""


def test_no_numpy_loads_without_an_array_to_compute(tmp_path):
    risk_report, outcomes = _risked(tmp_path)
    runs = [["report", "--risk", risk_report],
            ["report", "--risk", risk_report, "--outcomes", outcomes]]
    runs = [argv + ["--out", str(tmp_path / f"report{i}")]
            for i, argv in enumerate(runs)]
    runs += [[sub, "--help"] for sub in ("audit", "risk", "holonorm-verify",
                                         "game", "pareto", "report")]
    # inputs rejected before any array is built
    runs += [["risk", "--outcomes", outcomes, "--tau", "0.3"],
             _trace_audit(tmp_path) + ["--seed", "-1"],
             ["risk", "--outcomes", str(tmp_path / "absent.json")]]
    codes, numpy = fresh_json(_NUMPY_PROBE, *map(json.dumps, runs),
                              cwd=tmp_path)
    assert codes == [0, 0] + [0] * 6 + [2, 2, 2]
    assert numpy == [False] * len(runs)


# each argument is one argv, as JSON, run in turn in one interpreter
_HEAVY_IMPORT_PROBE = """\
import json, sys
import pathrisk.cli
codes = [pathrisk.cli.main(json.loads(argv)) for argv in sys.argv[1:]]
heavy = [m for m in ("_hashlib", "numpy.random") if m in sys.modules]
print(json.dumps([codes, heavy]))
"""


def test_no_subcommand_loads_openssl_or_numpy_random(tmp_path):
    # OpenSSL's libcrypto (through hashlib or secrets) and numpy.random's
    # libraries would add about 5 MB of resident memory to every run
    argv = _trace_audit(tmp_path)
    # 80 records: enough for bluffing to draw its MI projections
    corpus = tmp_path / "bluffing.jsonl"
    corpora.write_input(
        corpus, corpora.generative_fixture("bluffing", True)["records"])
    argv[argv.index("--corpus") + 1] = str(corpus)
    audited, risked = tmp_path / "audited", tmp_path / "risked"
    trace = [argv + ["--out", str(audited)],
             ["risk", "--outcomes", str(audited / "outcomes.json"), "--gate",
              "--out", str(risked)],
             ["report", "--risk", str(risked / "risk_report.json"),
              "--outcomes", str(audited / "outcomes.json"),
              "--out", str(tmp_path / "reported")]]
    classification = _argv(tmp_path, "audit-classification") + [
        "--out", str(tmp_path / "classified")]
    # holonorm-verify passes at D = 2 and seed 0
    drawn = [_argv(tmp_path, sub) + ["--out", str(tmp_path / sub)]
             for sub in ("holonorm-verify", "game", "pareto")]
    for runs in (trace, [classification], drawn):
        assert fresh_json(_HEAVY_IMPORT_PROBE, *map(json.dumps, runs),
                          cwd=tmp_path) == [[0] * len(runs), []]
    bluffing, = json.loads(
        (audited / "evidence.json").read_text())["bluffing"]
    assert "mutual_information" in bluffing


@pytest.mark.skipif(shutil.which("b2sum") is None,
                    reason="coreutils b2sum is not on PATH")
def test_manifests_hold_the_b2sum_digest_of_each_input(tmp_path):
    eps = tmp_path / "eps.json"
    eps.write_text(json.dumps({"default": 0.5}))
    config = {"generative": {"delta": 0.95}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    audited, risked, reported = (tmp_path / name for name in
                                 ("audited", "risked", "reported"))
    outcomes = str(audited / "outcomes.json")
    # out directory -> (argv, the input names, the config that is hashed)
    runs = {
        audited: (_trace_audit(tmp_path) + ["--config", str(config_path),
                                            "--seed", "3"],
                  {"corpus", "kb", "fixtures", "config"},
                  {"schema": "trace", "seed": 3, "config": config}),
        risked: (["risk", "--outcomes", outcomes, "--eps", str(eps),
                  "--tau", "0.7"], {"outcomes0", "eps"},
                 {"tau": 0.7, "gate": False}),
        reported: (["report", "--risk", str(risked / "risk_report.json"),
                    "--outcomes", outcomes], {"risk", "outcomes"}, {})}
    for out, (argv, names, hashed) in runs.items():
        assert cli.main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["inputs"]) == names
        for entry in manifest["inputs"].values():
            printed = subprocess.run(["b2sum", entry["path"]], check=True,
                                     capture_output=True, text=True).stdout
            assert entry["blake2b"] == printed.split()[0]
        assert manifest["config_hash"] == hashlib.blake2b(
            jsonio.canonical_dumps(hashed).encode()).hexdigest()


def _fired(outcome):
    """Whether an outcome object of outcomes.json, with its detector's
    firing threshold added as "threshold", fired."""
    return outcome["severity"] >= outcome["threshold"]


def _fixture_audit(tmp_path, pathology, config):
    """The outcomes.json entries of `pathology` after an audit of its
    positive fixture, with its knowledge base and causal fixtures if it has
    any, and `config` (a dict, or None) as --config, each with the
    detector's firing threshold added as "threshold". The audit writes to
    tmp_path / "out"."""
    corpus = tmp_path / "corpus.jsonl"
    argv = ["audit", "--corpus", str(corpus)]
    if pathology in GENERATIVE_DETECTORS:
        bundle = corpora.generative_fixture(pathology, True)
        corpora.write_input(corpus, bundle["records"])
        for flag, value in (("--kb", bundle["kb"]),
                            ("--fixtures", bundle["causal_fixtures"])):
            if value:
                path = tmp_path / f"{flag[2:]}.json"
                corpora.write_input(path, value if flag == "--kb"
                                    else value[0])
                argv += [flag, str(path)]
    else:
        corpora.write_input(corpus,
                            corpora.discriminative_rows(pathology, True))
        argv += ["--schema", "classification"]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out), "--force"]) == 0
    doc = json.loads((out / "outcomes.json").read_text())
    threshold = doc["firing_thresholds"][pathology]
    return [o | {"threshold": threshold} for o in doc["outcomes"]
            if o["pathology"] == pathology]


# every config field that some firing threshold reads, each set to a value
# that no other field has, and so that no two fields give the same
# threshold: a threshold that reads the wrong field gives a value that the
# maps below do not hold. A field read as 1 - value is a multiple of 2**-5,
# so the difference is exact
_DISTINCT_FIELDS = {
    "generative": {"s_hi": 0.91, "s_lo": 0.25, "rho": 0.125,
                   "tv_tol": 0.03125, "tau_c": 0.4375, "f_hi": 0.47,
                   "s_indep": 0.625, "gamma": 0.83, "delta": 0.79},
    "discriminative": {"gap_hi": 0.21, "amp_hi": 0.23, "flip_hi": 0.11,
                       "ece_hi": 0.13, "frac_hi": 0.33}}
# the firing threshold under _DISTINCT_FIELDS of each detector whose
# threshold reads a config field, from the formulas of the detectors
_CONFIGURED_THRESHOLDS = {
    "illusion": 0.91, "confabulation": 0.5625, "misattribution": 0.91,
    "semantic_drift": 0.75, "semantic_compression": 0.875,
    "causal_inference_failure": 0.96875, "uncanny_valley": 0.91,
    "bluffing": 0.47, "cognitive_stereotypy": 0.91,
    "pragmatic_misunderstanding": 0.375, "hypersignification": 0.83,
    "semantic_warming": 0.47, "simulated_authority": 0.5625,
    "abductive_leap": 0.79, "overfitting": 0.21, "bias_amplification": 0.23,
    "spurious_correlation": 0.21, "adversarial_vulnerability": 0.11,
    "calibration_failure": 0.13, "concept_drift_sensitivity": 0.21,
    "misclassification_under_uncertainty": 0.33,
    "prosodic_misclassification": 0.33, "accent_bias": 0.23,
    "semantic_boundary_confusion": 0.21, "noise_overfitting": 0.11,
    "latency_induced_decision_drift": 0.11, "ambiguity_collapse": 0.33}
# the thresholds that read no config field
_CONSTANT_THRESHOLDS = {
    "delusion": 0.5, "hallucination": 0.5, "exaggeration": 0.5,
    "semantic_reheating": 0.5, "contextual_drift": 0.5,
    "referential_hallucination": 1e-9, "semiotic_frankenstein": 1e-9,
    "turn_boundary_failure": 0.5}
# (section, field, default, raised value) of two thresholds raised above
# the severity of their fixture, which then stops firing: abductive_leap's
# output probability is 0.95, and calibration_failure's ECE is 0.5
_RAISED = {"abductive_leap": ("generative", "delta", 0.9, 0.99),
           "calibration_failure": ("discriminative", "ece_hi", 0.1, 0.9)}


def test_every_threshold_is_either_configured_or_constant():
    assert (_CONFIGURED_THRESHOLDS.keys() | _CONSTANT_THRESHOLDS.keys()
            == set(pathology_ids()))
    assert not _CONFIGURED_THRESHOLDS.keys() & _CONSTANT_THRESHOLDS.keys()


@pytest.mark.parametrize("pathology", [
    # a raised threshold's id also names its section, field and values
    pytest.param(name, id="-".join(map(str, (name, *_RAISED.get(name, ())))))
    for name in sorted(_CONFIGURED_THRESHOLDS)])
def test_config_sets_a_threshold(tmp_path, pathology):
    if pathology in _RAISED:
        section, key, default, raised = _RAISED[pathology]
        before = _fixture_audit(tmp_path, pathology, None)
        after = _fixture_audit(tmp_path, pathology, {section: {key: raised}})
        assert [(o["threshold"], _fired(o))
                for o in before] == [(default, True)]
        assert [(o["threshold"], _fired(o))
                for o in after] == [(raised, False)]
        assert after[0]["severity"] == before[0]["severity"]
    # each threshold of the audit reads its own field
    assert _fixture_audit(tmp_path, pathology, _DISTINCT_FIELDS)
    thresholds = json.loads((tmp_path / "out" / "outcomes.json").read_text(
        encoding="utf-8"))["firing_thresholds"]
    assert pathology in thresholds
    expected = _CONFIGURED_THRESHOLDS | _CONSTANT_THRESHOLDS
    assert thresholds == {name: expected[name] for name in thresholds}


@pytest.mark.parametrize("config,named", [
    labelled("config0", {"detectors": {}}, "'detectors'"),
    labelled("config1", {"generative": {"s_high": 0.8}}, "'s_high'"),
    labelled("config2", {"discriminative": {"ece": 0.2}}, "'ece'"),
    labelled("config3", {"generative": {"bins": 3}}, "'bins'"),
    labelled("config4", {"generative_overrides": {
        "delusion": {"margin": 5.0}}}, "'generative_overrides'"),
    labelled("config5", {"discriminative_overrides": {
        "overfitting": {"gap_hi": 0.5}}}, "'discriminative_overrides'"),
    labelled("config6", {"discriminative": {
        "drift_window": [[0, 10], [20, 30]]}}, "'drift_window'"),
    labelled("config7", {"generative": {"mi": {"seed": 3}}}, "'mi'"),
    # known keys with a value of the wrong type or out of range
    labelled("config8", {"generative": {"delta": "0.99"}}, "'delta'"),
    labelled("config9", {"generative": {"window": 5.5}}, "'window'"),
    labelled("config10", {"generative": {"expert_style_id": 3}},
             "'expert_style_id'"),
    labelled("config11", {"discriminative": {"ece_hi": True}}, "'ece_hi'"),
    labelled("config12", {"discriminative": {"n_min": None}}, "'n_min'"),
    labelled("config13", {"generative": {"seed": 1.0}}, "'seed'"),
    labelled("config14", {"discriminative": {"ece_bins": 0}}, "ece_bins"),
    labelled("config15", {"discriminative": {"gap_hi": 1.5}}, "gap_hi"),
    labelled("config16", {"discriminative": {"tol_t": -1}}, "tol_t"),
    labelled("config17", {"generative": {"mi_bins": 1}}, "mi_bins"),
    labelled("config18", {"generative": {"s_hi": 2.0}}, "s_hi"),
    labelled("config19", {"generative": {"s_indep": -0.1}}, "s_indep"),
    labelled("config20", {"generative": {"gamma": 1.5}}, "gamma"),
    labelled("config21", {"generative": {"delta": -1}}, "delta"),
    labelled("config22", {"generative": {"f_hi": 1.01}}, "f_hi"),
    labelled("config23", {"generative": {"d_hi": -0.5}}, "d_hi"),
    labelled("config24", {"generative": {"tv_tol": 2}}, "tv_tol"),
    labelled("config25", {"generative": {"rho": 1.1}}, "rho"),
    labelled("config26", {"generative": {"s_lo": -0.2}}, "s_lo"),
    labelled("config27", {"generative": {"mi_lo": -0.01}}, "mi_lo"),
    labelled("config28", {"generative": {"window": 1}}, "window"),
    labelled("config29", {"generative": {"drift_k": -1}}, "drift_k"),
    labelled("config30", {"generative": {"drift_k": 0}}, "drift_k"),
    labelled("config31", {"generative": {"entropy_ridge": -1e-6}},
             "entropy_ridge"),
    # a key of a removed field
    labelled("config32", {"generative": {"projection_dims": 1}},
             "'projection_dims'"),
    # turn_boundary_failure divides by tol_t
    labelled("config33", {"discriminative": {"tol_t": 0}}, "tol_t"),
    # the MI seed is --seed, and its bin count a generative field
    labelled("config34", {"generative": {"seed": 1}}, "'seed'"),
    labelled("config35", {"mi": {"num_bins_per_axis": 4}}, "'mi'")])
def test_config_rejects_unknown_keys(tmp_path, capsys, config, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = _argv(tmp_path, "audit-trace") + ["--config", str(path),
                                             "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out" / "outcomes.json").exists()


def test_config_sets_the_mi_bins_and_seed_the_projections(tmp_path):
    # bluffing's records with dependent embeddings, so that its estimate
    # differs between bin counts and between seeds
    local = np.random.default_rng(3)
    inputs = local.standard_normal((80, 4))
    outputs = np.tanh(inputs @ local.standard_normal((4, 4))) \
        + 0.3 * local.standard_normal((80, 4))
    records = corpora.generative_fixture("bluffing", True)["records"]
    corpus = tmp_path / "corpus.jsonl"
    corpora.write_input(corpus, [
        dataclasses.replace(r, input_embedding=x, output_embedding=y)
        for r, x, y in zip(records, inputs, outputs)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"generative": {"mi_bins": 2}}))
    out = tmp_path / "out"
    assert cli.main(["audit", "--corpus", str(corpus), "--config",
                     str(config), "--seed", "7", "--out", str(out)]) == 0
    bluffing, = json.loads((out / "evidence.json").read_text())["bluffing"]
    estimate = float(bluffing["mutual_information"])
    assert estimate == pytest.approx(
        loop_mutual_information(inputs, outputs, 2, 7), abs=1e-10)
    for bins, seed in ((4, 7), (2, 0)):
        assert estimate != pytest.approx(
            loop_mutual_information(inputs, outputs, bins, seed), abs=1e-3)


def test_a_negative_seed_is_reported_before_the_corpus(tmp_path, capsys):
    argv = _trace_audit(tmp_path)
    (tmp_path / "corpus.jsonl").write_text(
        '{"id": "r1", "truth_embeding": [1.0, 0.0, 0.0, 0.0]}\n')
    out = tmp_path / "out"
    assert cli.main(argv + ["--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: seed -1 must be a nonnegative integer\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["corpus-is-a-directory", "out-is-a-file",
                                  "line-nested-too-deep", "corpus-not-utf-8",
                                  "kb-not-utf-8", "outcomes-not-utf-8"])
def test_an_input_it_cannot_take_exits_2_without_a_traceback(tmp_path, case):
    # the console script as a user runs it: an uncaught error would print a
    # traceback and exit 4, the code of a bug
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    corpora.write_input(corpus, corpora.demo_trace_corpus())
    argv = ["audit", "--corpus", str(corpus)]
    # a string holding the byte 0xff, which no UTF-8 text holds
    not_utf8 = b'{"id": "r\xff1"}\n'
    if case == "corpus-is-a-directory":
        argv[2] = named = tmp_path / "corpora"
        named.mkdir()
    elif case == "out-is-a-file":
        named = out
        out.write_text("")
    elif case == "line-nested-too-deep":
        named = f"{corpus}: line 1: JSON nested too deep to decode"
        corpus.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    elif case == "corpus-not-utf-8":
        named = f"{corpus}: line 2: not UTF-8"
        corpus.write_bytes(b"\n" + not_utf8)
    else:
        path = tmp_path / "input.json"
        path.write_bytes(not_utf8)
        named = f"{path}: line 1: not UTF-8"
        argv = (argv + ["--kb", str(path)] if case == "kb-not-utf-8"
                else ["risk", "--outcomes", str(path)])
    proc = run_fresh("-m", "pathrisk", *argv, "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert str(named) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_an_internal_error_prints_its_traceback_and_exits_4(tmp_path):
    # a bug is no verdict: exit 1 is a failed identity, 2 a rejected input
    script = ("import pathrisk.cli as cli\n"
              "def broken(args):\n"
              "    raise RuntimeError('a bug')\n"
              "cli._cmd_pareto = broken\n"
              "cli.entry()\n")
    out = tmp_path / "out"
    proc = run_fresh("-c", script, "pareto", "--seed", "0",
                     "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 4
    assert proc.stderr.startswith("Traceback (most recent call last):")
    assert proc.stderr.endswith("RuntimeError: a bug\n")
    assert not out.exists()


@pytest.mark.parametrize("written", [True, False], ids=["valid", "absent"])
@pytest.mark.parametrize("schema", ["trace", "classification"])
def test_a_negative_seed_exits_2_before_any_file_is_read(tmp_path, capsys,
                                                         schema, written):
    # with every input absent, a file read ahead of the seed check would
    # be the error reported; a classification audit, which draws nothing,
    # rejects the seed as a trace audit does
    corpus, config = tmp_path / "corpus.jsonl", tmp_path / "config.json"
    argv = ["audit", "--corpus", str(corpus), "--schema", schema,
            "--config", str(config)]
    inputs = {config: {}}
    if schema == "trace":
        kb, causal = tmp_path / "kb.json", tmp_path / "fixtures.json"
        argv += ["--kb", str(kb), "--fixtures", str(causal)]
        inputs |= {corpus: corpora.demo_trace_corpus(),
                   kb: corpora.standard_kb(),
                   causal: corpora.demo_causal_fixture()}
    else:
        inputs[corpus] = corpora.demo_classification_rows()
    if written:
        for path, value in inputs.items():
            corpora.write_input(path, value)
    out = tmp_path / "out"
    assert cli.main(argv + ["--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: seed -1 must be a nonnegative integer\n"
    assert not out.exists()


@pytest.mark.parametrize("bad_corpus", [False, True],
                         ids=["valid-corpus", "bad-corpus"])
def test_bad_config_is_reported_before_the_corpus(tmp_path, capsys,
                                                  bad_corpus):
    # the config is read first, so its error is reported either way
    argv = _trace_audit(tmp_path)
    if bad_corpus:
        (tmp_path / "corpus.jsonl").write_text(
            '{"id": "r1", "truth_embeding": [1.0, 0.0, 0.0, 0.0]}\n')
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"generative": {"drift_k": 0}}))
    out = tmp_path / "out"
    assert cli.main(argv + ["--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {config}: section 'generative'")
    assert "drift_k" in err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["kb", "fixtures"])
def test_bad_kb_or_fixtures_are_reported_before_the_corpus(tmp_path, capsys,
                                                          bad):
    # the record-level detectors score each line as it is read, so the
    # knowledge base and the fixtures are read before the corpus
    argv = _trace_audit(tmp_path)
    with open(tmp_path / "corpus.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"id": "r9", "truth_embeding": [1.0, 0.0, 0.0, 0.0]}\n')
    if bad == "kb":
        (tmp_path / "kb.json").write_text(json.dumps(
            {"entries": [{"entity_id": "e1", "embedding": [1.0, "x"]}]}))
        named = "entry 0, record 'e1', field 'embedding'"
    else:
        (tmp_path / "fixtures.json").write_text(json.dumps({"x_name": 3}))
        named = "fixture 0, field 'x_name'"
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}")
    assert "line" not in err
    assert not out.exists()


def test_a_last_line_of_another_dimension_leaves_no_output(tmp_path, capsys,
                                                          monkeypatch):
    # the earlier records are scored as they are read; the mixed dimension
    # shows only after the last line, and still nothing is written
    argv = _trace_audit(tmp_path)
    with open(tmp_path / "corpus.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"id": "three-d",
                                 "input_embedding": [1.0, 0.0, 0.0],
                                 "output_embedding": [0.0, 1.0, 0.0],
                                 "in_real_manifold": False}) + "\n")
    scored = []
    real = generative.score
    monkeypatch.setattr(generative, "score", lambda pathology, unit, *a, **k:
                        scored.append(pathology) or real(pathology, unit,
                                                         *a, **k))
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: mixed embedding dimensions in corpus: [3, 4]\n"
    assert "hallucination" in scored
    assert list(out.iterdir()) == []


def _exit_code(argv):
    """cli.main's exit code, also when argparse exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("removed", ["risk --seed", "report --seed",
                                     "classification --kb",
                                     "classification --fixtures",
                                     "config mi seed"])
def test_removed_settings_exit_2_naming_them(tmp_path, capsys, removed):
    # none of them could change a result
    trace = _trace_audit(tmp_path)
    if removed == "risk --seed":
        argv, named = ["risk", "--outcomes", _audited(tmp_path),
                       "--seed", "1"], "unrecognized arguments: --seed 1"
    elif removed == "report --seed":
        argv, named = ["report", "--risk", _risked(tmp_path)[0],
                       "--seed", "1"], "unrecognized arguments: --seed 1"
    elif removed == "config mi seed":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"generative": {"seed": 1}}))
        argv = trace + ["--config", str(config)]
        named = "section 'generative', field 'seed': unknown field"
    else:
        # a valid knowledge base and fixture file, which a trace audit reads
        flag = removed.split()[1]
        argv = _argv(tmp_path, "audit-classification") + [
            flag, trace[trace.index(flag) + 1]]
        named = f"error: {flag} applies to trace corpora only\n"
    capsys.readouterr()
    assert _exit_code(argv + ["--out", str(tmp_path / "bad")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_risk_and_report_manifests_hold_no_seed(tmp_path):
    risk_report, outcomes = _risked(tmp_path)
    out = tmp_path / "reported"
    assert cli.main(["report", "--risk", risk_report, "--outcomes", outcomes,
                     "--out", str(out)]) == 0
    for run in (Path(risk_report).parent, out):
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["seed"] is None


def test_config_accepts_an_int_for_a_float(tmp_path):
    # abductive_leap's fixture has output probability 0.95 < 1
    after = _fixture_audit(tmp_path, "abductive_leap",
                           {"generative": {"delta": 1, "margin": 5}})
    assert [(o["threshold"], _fired(o)) for o in after] == [(1.0, False)]


def _in_memory_audit(tmp_path, subcommand):
    """The audit result that `audit` computes on the inputs _argv wrote."""
    corpus = tmp_path / "corpus.jsonl"
    if subcommand == "audit-classification":
        return discriminative.audit_discriminative(
            load_trace_corpus(corpus, schema="classification"))
    return generative.audit_generative(
        load_trace_corpus(corpus), kb=load_knowledge_base(tmp_path / "kb.json"),
        fixtures=load_causal_fixtures(tmp_path / "fixtures.json"))


@pytest.mark.parametrize("subcommand", ["audit-trace", "audit-classification"])
def test_loaded_outcomes_give_the_in_memory_risk_report(tmp_path,
                                                        subcommand):
    out = tmp_path / "out"
    assert cli.main(_argv(tmp_path, subcommand) + ["--out", str(out)]) == 0
    loaded = registry.load_outcome_files([out / "outcomes.json"])
    result = _in_memory_audit(tmp_path, subcommand)
    assert len(loaded) == len(result.outcomes) > 0
    for got, want in zip(loaded, result.outcomes):
        # slotted: no per-instance __dict__
        assert isinstance(got, DetectorOutcome)
        assert not hasattr(got, "__dict__")
        assert (got.pathology, got.unit, got.threshold, got.fired) == \
            (want.pathology, want.unit, want.threshold, want.fired)
        # the file holds severities rounded to 12 decimals
        assert got.severity == pytest.approx(want.severity, abs=5e-13)
        assert got.evidence == {}
    from_file = risk_mod.risk_report(loaded)
    in_memory = risk_mod.risk_report(result.outcomes)
    assert (from_file.feasible, from_file.unavailable) == \
        (in_memory.feasible, in_memory.unavailable)
    assert len(from_file.entries) == len(in_memory.entries) > 0
    for got, want in zip(from_file.entries, in_memory.entries):
        assert (got.pathology, got.n, got.fired_rate, got.eps, got.ok) == \
            (want.pathology, want.n, want.fired_rate, want.eps, want.ok)
        assert got.expectile == pytest.approx(want.expectile, abs=1e-12)
        assert got.mean == pytest.approx(want.mean, abs=1e-12)


_OUTCOME_KEYS = {"pathology", "severity", "unit"}


@pytest.mark.parametrize("subcommand,family", [
    pytest.param("audit-trace", GENERATIVE_DETECTORS,
                 id="audit-trace-family0"),
    pytest.param("audit-classification", DISCRIMINATIVE_DETECTORS,
                 id="audit-classification-family1")])
def test_outcomes_hold_only_the_values_that_determine_them(
        tmp_path, capsys, subcommand, family):
    audited = tmp_path / "audited"
    argv = _argv(tmp_path, subcommand) + ["--out", str(audited)]
    assert cli.main(argv) == 0
    path = audited / "outcomes.json"
    doc = json.loads(path.read_text())
    # one layout for both schemas
    assert doc.keys() == {"firing_thresholds", "outcomes", "skipped",
                          "dropped"}
    outcomes = doc["outcomes"]
    assert outcomes and all(o.keys() == _OUTCOME_KEYS for o in outcomes)
    # one threshold for each detector that has outcomes
    thresholds = doc["firing_thresholds"]
    assert thresholds.keys() == {o["pathology"] for o in outcomes}
    # the family is the registry table that holds the id
    assert all(o["pathology"] in family for o in outcomes)
    risked = tmp_path / "risked"
    assert cli.main(["risk", "--outcomes", str(path),
                     "--out", str(risked)]) == 0
    report = json.loads((risked / "risk_report.json").read_text())
    assert report["entries"]
    for entry in report["entries"]:
        mine = [o | {"threshold": thresholds[o["pathology"]]}
                for o in outcomes if o["pathology"] == entry["pathology"]]
        assert entry["fired_rate"] == sum(map(_fired, mine)) / len(mine)
    # the evidence is in evidence.json, one list entry per outcome
    evidence = json.loads((audited / "evidence.json").read_text())
    assert {name: len(column) for name, column in evidence.items()} == \
        {name: sum(o["pathology"] == name for o in outcomes)
         for name in {o["pathology"] for o in outcomes}}
    # the 0.3.0 layout also wrote each outcome's family, fired and loss,
    # the 0.5.0 layout its evidence, and the 0.6.0 layout its record ids
    # and its threshold, with no firing_thresholds
    columns = {name: iter(column) for name, column in evidence.items()}
    for label, extra, key in [
            ("0.3.0", lambda o: {
                "family": "generative" if family is GENERATIVE_DETECTORS
                else "discriminative",
                "fired": o["severity"] >= thresholds[o["pathology"]],
                "loss": o["severity"]}, "family"),
            ("0.5.0", lambda o: {"evidence": next(columns[o["pathology"]])},
             "evidence")]:
        old = tmp_path / f"{label}.json"
        old.write_text(json.dumps(doc | {"outcomes": [
            o | extra(o) for o in outcomes]}))
        _assert_rejected(tmp_path, capsys, old, risked, key)
    old = tmp_path / "0.6.0.json"
    old.write_text(json.dumps(
        {"dropped": doc["dropped"], "outcomes": [
            {"pathology": o["pathology"],
             "record_ids": o["unit"].split(",") if o["unit"] else [],
             "severity": o["severity"],
             "threshold": thresholds[o["pathology"]]} for o in outcomes],
         "skipped": doc["skipped"]}))
    _assert_rejected(tmp_path, capsys, old, risked, "record_ids")


def _assert_rejected(tmp_path, capsys, old, risked, key):
    """risk and report each exit 2 on the outcomes file `old`, naming the
    unknown field `key` of its first outcome, and write nothing."""
    capsys.readouterr()
    for argv in (["risk", "--outcomes", str(old)],
                 ["report", "--risk", str(risked / "risk_report.json"),
                  "--outcomes", str(old)]):
        assert cli.main(argv + ["--out", str(tmp_path / "old_out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {old}: outcomes[0], field {key!r}: unknown field\n")
        assert not (tmp_path / "old_out").exists()


@pytest.mark.parametrize("subcommand", ["audit-trace", "audit-classification"])
def test_evidence_json_regroups_the_evidence_each_outcome_held(tmp_path,
                                                               subcommand):
    out = tmp_path / "out"
    assert cli.main(_argv(tmp_path, subcommand) + ["--out", str(out)]) == 0
    result = _in_memory_audit(tmp_path, subcommand)
    # the outcomes, each with its threshold and evidence
    rows = [outcome_row(o) for o in result.outcomes]
    assert rows and all(row["evidence"] for row in rows)
    assert (out / "evidence.json").read_text() == \
        canonical_json(regrouped_evidence(rows)) + "\n"
    # outcomes.json holds the rows without their evidence, and each
    # detector's threshold once
    thresholds = {row["pathology"]: row.pop("threshold") for row in rows}
    for row in rows:
        del row["evidence"]
    assert json.loads((out / "outcomes.json").read_text()) == \
        json.loads(canonical_json(
            {"firing_thresholds": thresholds, "outcomes": rows,
             "skipped": result.skipped, "dropped": result.dropped}))


def test_risk_and_report_never_read_evidence_json(tmp_path):
    audited = Path(_audited(tmp_path)).parent
    risked, reported = tmp_path / "risked", tmp_path / "reported"

    def downstream():
        assert cli.main(["risk", "--outcomes", str(audited / "outcomes.json"),
                         "--out", str(risked), "--force"]) == 0
        assert cli.main(["report", "--risk", str(risked / "risk_report.json"),
                         "--outcomes", str(audited / "outcomes.json"),
                         "--out", str(reported), "--force"]) == 0
        return _outputs(risked), _outputs(reported)

    first = downstream()
    (audited / "evidence.json").unlink()
    assert downstream() == first


def _levels(tmp_path):
    """{level: (the file, its path, the objects of that level in it, the
    fields its reader decodes, the keys it skips)} of a real audit and
    risk run, for each level of outcomes.json and risk_report.json."""
    risk_report, outcomes = _risked(tmp_path)
    audit = json.loads(Path(outcomes).read_text())
    report = json.loads(Path(risk_report).read_text())
    return {
        "outcomes-file": (audit, outcomes, [audit], registry._OUTCOMES_FILE,
                          registry._OUTCOMES_SKIPPED),
        "outcome": (audit, outcomes, audit["outcomes"],
                    registry._OUTCOME_FIELDS, ()),
        "risk-file": (report, risk_report, [report], risk_mod._REPORT_FIELDS,
                      risk_mod._REPORT_SKIPPED),
        "entry": (report, risk_report, report["entries"],
                  risk_mod._ENTRY_FIELDS, risk_mod._ENTRY_SKIPPED)}


def test_each_reader_decodes_or_skips_every_key_its_writer_writes(
        tmp_path):
    for _, _, objects, fields, skipped in _levels(tmp_path).values():
        decoded = {name for name, _, _ in fields}
        assert not decoded & set(skipped)
        assert objects
        assert all(obj.keys() == decoded | set(skipped) for obj in objects)


@pytest.mark.parametrize("level,named", [
    ("outcomes-file", "{path}, field 'extra': unknown field"),
    ("outcome", "{path}: outcomes[0], field 'extra': unknown field"),
    ("risk-file", "risk report {path}, field 'extra': unknown field"),
    ("entry", "risk report {path}: entries[0], field 'extra': unknown field")])
def test_a_key_its_writer_does_not_write_exits_2(tmp_path, capsys, level,
                                                 named):
    doc, path, objects, _, _ = _levels(tmp_path)[level]
    objects[0]["extra"] = 1
    Path(path).write_text(json.dumps(doc))
    argv = (["risk", "--outcomes", path] if level.startswith("outcome")
            else ["report", "--risk", path])
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(tmp_path / "bad")]) == 2
    assert capsys.readouterr().err == \
        f"error: {named.replace('{path}', path)}\n"
    assert not (tmp_path / "bad").exists()


def test_an_empty_knowledge_base_drops_each_claim_matcher_alike(tmp_path):
    # confabulation and semiotic_frankenstein both match the claims
    # against the knowledge base, which has no entry
    corpus, kb = tmp_path / "corpus.jsonl", tmp_path / "kb.json"
    corpora.write_input(corpus, [{
        "id": "r1", "input_embedding": [1.0, 0.0],
        "output_embedding": [0.0, 1.0], "prob_output_given_input": 0.9,
        "claim_embeddings": [[1.0, 0.0]]}])
    corpora.write_input(kb, {"entries": []})
    out = tmp_path / "out"
    assert cli.main(["audit", "--corpus", str(corpus), "--kb", str(kb),
                     "--out", str(out)]) == 0
    doc = json.loads((out / "outcomes.json").read_text())
    reason = "coherence against an empty knowledge base"
    assert doc["dropped"] == {"confabulation": {"r1": reason},
                              "semiotic_frankenstein": {"r1": reason}}
    assert doc["skipped"]["confabulation"] == \
        doc["skipped"]["semiotic_frankenstein"] == reason


def _binomial_bounds(n, p, alpha=1e-6):
    """The central two-sided interval [lo, hi] of Binomial(n, p) with at
    most alpha / 2 of the mass on each side outside it."""
    pmf = [math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)
           for k in range(n + 1)]
    lo = next(k for k in range(n + 1) if sum(pmf[:k + 1]) > alpha / 2)
    hi = next(k for k in range(n, -1, -1) if sum(pmf[k:]) > alpha / 2)
    return lo, hi


@pytest.mark.parametrize("p,seed", [(0.0, 1), (0.02, 2), (0.2, 3)])
def test_planted_zero_one_pathologies_have_their_known_risks(tmp_path, p,
                                                             seed):
    n = 400
    records, planted = corpora.planted_trace_corpus(n, p, seed)
    lo, hi = _binomial_bounds(n, p)
    assert all(lo <= count <= hi for count in planted.values())
    corpus = tmp_path / "corpus.jsonl"
    corpora.write_input(corpus, records)
    audited = tmp_path / "audited"
    assert cli.main(["audit", "--corpus", str(corpus),
                     "--out", str(audited)]) == 0
    for tau in (0.5, 0.9):
        risked = tmp_path / f"risked-{tau}"
        assert cli.main(["risk", "--outcomes", str(audited / "outcomes.json"),
                         "--tau", str(tau), "--out", str(risked)]) == 0
        report = json.loads((risked / "risk_report.json").read_text())
        entries = {e["pathology"]: e for e in report["entries"]}
        for pathology, count in planted.items():
            entry, share = entries[pathology], count / n
            assert (entry["n"], entry["mean"], entry["fired_rate"]) == \
                (n, share, share)
            assert entry["expectile"] == pytest.approx(
                risk_mod.bernoulli_expectile(share, tau), rel=0, abs=1e-12)


def test_the_expectile_ranks_a_rare_failure_above_a_frequent_small_one(
        tmp_path, capsys):
    # the paper's claim for expectile risks: hallucination, a 0/1 failure
    # on 16 of 1,000 records, has the lower mean, and the higher risk at
    # tau = 0.9, than semantic_compression, 0.02 on every record
    records, planted = corpora.expectile_flip_corpus()
    share = planted / len(records)
    assert 0.0 < share < 0.02
    corpus, eps = tmp_path / "corpus.jsonl", tmp_path / "eps.json"
    corpora.write_input(corpus, records)
    eps.write_text(json.dumps({"hallucination": 0.05,
                               "semantic_compression": 0.05}))
    audited = tmp_path / "audited"
    assert cli.main(["audit", "--corpus", str(corpus),
                     "--out", str(audited)]) == 0
    risks = {}
    for tau, verdict, violators in ((0.5, 0, ""),
                                    (0.9, 3, "gate: infeasible "
                                     "(hallucination)\n")):
        risked = tmp_path / f"risked-{tau}"
        capsys.readouterr()
        assert cli.main(["risk", "--outcomes", str(audited / "outcomes.json"),
                         "--tau", str(tau), "--eps", str(eps), "--gate",
                         "--out", str(risked)]) == verdict
        assert capsys.readouterr().err == violators
        report = json.loads((risked / "risk_report.json").read_text())
        risks[tau] = {e["pathology"]: e["expectile"]
                      for e in report["entries"]}
        assert risks[tau]["hallucination"] == pytest.approx(
            risk_mod.bernoulli_expectile(share, tau), rel=0, abs=1e-12)
        assert risks[tau]["semantic_compression"] == pytest.approx(
            1.0 - 98 / 100, rel=0, abs=1e-12)
    assert risks[0.5]["hallucination"] < risks[0.5]["semantic_compression"]
    assert risks[0.9]["hallucination"] > risks[0.9]["semantic_compression"]


_GOOD_OUTCOME = {"pathology": "delusion", "severity": 0.7, "unit": "r1"}
_THRESHOLDS = {"delusion": 0.5}


def _change(label, change, message):
    # the test id holds `label` and the message, not the row's position
    return pytest.param(change, message, id=f"{label}-{message}")


@pytest.mark.parametrize("change,message", [
    _change("change0", {"pathology": "nonsense"},
            "error: unknown pathology 'nonsense'\n"),
    _change("change1", {"severity": 1.5},
            "error: severity 1.5 outside [0,1]\n"),
    _change("change2", {"severity": "nan"},
            "outcomes[1], field 'severity': expected a number, got \"nan\""),
    _change("change3", {"unit": None},
            "outcomes[1], field 'unit': missing mandatory field"),
    _change("change4", {"extra": 1},
            "outcomes[1], field 'extra': unknown field"),
    # the 0.5.0 layout held each outcome's evidence
    _change("change5", {"evidence": {"ratio": "3"}},
            "outcomes[1], field 'evidence': unknown field"),
    # the 0.6.0 layout held each outcome's record ids and threshold
    _change("change6", {"record_ids": ["r1"], "unit": None},
            "outcomes[1], field 'record_ids': unknown field"),
    _change("change7", {"threshold": 0.5},
            "outcomes[1], field 'threshold': unknown field"),
    _change("change8", {"pathology": "illusion"},
            "outcomes[1], field 'pathology': 'illusion' has no entry in "
            "firing_thresholds")])
@pytest.mark.parametrize("subcommand", ["risk", "report"])
def test_bad_outcomes_exit_2(tmp_path, capsys, subcommand, change, message):
    item = {k: v for k, v in (_GOOD_OUTCOME | change).items()
            if v is not None}
    path = tmp_path / "outcomes.json"
    path.write_text(json.dumps({"firing_thresholds": _THRESHOLDS,
                                "outcomes": [_GOOD_OUTCOME, item],
                                "skipped": {}}))
    if subcommand == "risk":
        argv = ["risk", "--outcomes", str(path)]
    else:
        risk_report, _ = _risked(tmp_path)
        argv = ["report", "--risk", risk_report, "--outcomes", str(path)]
    assert cli.main(argv + ["--out", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "bad").exists()


def test_pareto_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "negative"
    assert cli.main(["pareto", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: seed -1 must be a nonnegative integer\n"
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["risk", "pareto"])
@pytest.mark.parametrize("tau", ["0.1", "0.4999"])
def test_tau_below_half_exits_2(tmp_path, capsys, subcommand, tau):
    # the expectile is a coherent risk only for tau >= 1/2; risk rejects
    # it before reading the outcomes, which do not exist here
    argv = (["risk", "--outcomes", str(tmp_path / "missing.json")]
            if subcommand == "risk" else ["pareto", "--seed", "0"])
    out = tmp_path / "low"
    assert cli.main(argv + ["--tau", tau, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: tau {float(tau)} outside [0.5,1)\n"
    assert not out.exists()


# one malformed value per field kind, in each input the loaders read:
# (input, the bad value, the message it must give). A dict value is merged
# into a valid object (a None deletes its key); any other value replaces
# it. {where} is the line, entry or fixture index of the bad object.
_TRACE_RECORD = {"id": "bad", "input_embedding": [1.0, 0.0, 0.0, 0.0],
                 "output_embedding": [0.0, 1.0, 0.0, 0.0]}
_CLASSIFICATION_RECORD = {"id": "bad", "features": [0.0, 1.0],
                          "predicted_label": 0, "true_label": 0,
                          "class_probabilities": [0.6, 0.4]}
_KB_ENTRY = {"entity_id": "bad", "embedding": [1.0, 0.0, 0.0, 0.0]}
_AGENT = {"pathology": "a0", "lo": -1.0, "hi": 1.0, "target": [0.5, 0.5]}
_SCENARIO = {"kappa": 1.0, "cloud_cap": 4.0,
             "agents": [_AGENT, {"pathology": "a1", "target": [-0.5, 0.2]}]}
_RISK_ENTRY = {"pathology": "delusion", "n": 1, "expectile": 0.1,
               "eps": "inf", "ok": True}
_BAD = "{where}, record 'bad', field "


def _row(label, target, bad, message):
    """A row of _MALFORMED, its test id made of the input, `label` and the
    message, so that adding or deleting a row renames no other test."""
    return pytest.param(target, bad, message,
                        id=f"{target}-{label}-{message}")


_MALFORMED = [
    _row("bad0", "trace", [1, 2],
         "{where}: expected a JSON object, got [1, 2]"),
    _row("bad1", "trace", {"id": ""},
         "{where}, field 'id': expected a nonempty string, got \"\""),
    _row("bad2", "trace", {"output_embedding": None},
         _BAD + "'output_embedding': missing mandatory field"),
    _row("bad3", "trace", {"input_embedding": [1.0, "x", 0.0, 0.0]},
         _BAD + "'input_embedding': expected a nonempty vector of numbers"),
    _row("bad4", "trace", {"context_vectors": [[1.0, 0.0, 0.0, 0.0], "x"]},
         _BAD + "'context_vectors': expected a nonempty vector of numbers, "
                "got \"x\""),
    _row("bad5", "trace", {"claim_embeddings": 5},
         _BAD + "'claim_embeddings': expected an array of vectors, got 5"),
    _row("bad6", "trace", {"output_token_logprobs": ["x"]},
         _BAD + "'output_token_logprobs': expected an array of numbers"),
    _row("bad7", "trace", {"output_token_logprobs": [-0.5, 0.1]},
         _BAD + "'output_token_logprobs': log-probability 0.1 must be "
                "finite and <= 0"),
    _row("bad8", "trace", {"prob_output_given_input": "0.5"},
         _BAD + "'prob_output_given_input': expected a number, got \"0.5\""),
    _row("bad9", "trace", {"discomfort_score": True},
         _BAD + "'discomfort_score': expected a number, got true"),
    _row("bad10", "trace", {"prob_truth_given_input": 1.5},
         _BAD + "'prob_truth_given_input': probability 1.5 outside [0,1]"),
    _row("bad11", "trace", {"output_magnitude": -1},
         _BAD + "'output_magnitude': -1.0 must be finite and >= 0"),
    _row("bad12", "trace", {"in_real_manifold": "false"},
         _BAD + "'in_real_manifold': expected true or false, got \"false\""),
    _row("bad13", "trace", {"referenced_entities": [7, None]},
         _BAD + "'referenced_entities': expected an array of strings"),
    _row("bad14", "trace", {"latent_dim": 2.5},
         _BAD + "'latent_dim': expected an integer, got 2.5"),
    _row("bad15", "trace", {"input_dim": 0},
         _BAD + "'input_dim': 0 must be a positive integer"),
    _row("bad16", "trace", {"annotations": ["x"]},
         _BAD + "'annotations': expected an object of strings"),
    _row("bad17", "trace", {"annotations": {"conversation_id": 3}},
         _BAD + "'annotations': expected an object of strings"),
    _row("bad18", "classification", {"predicted_label": 0.7},
         _BAD + "'predicted_label': expected an integer, got 0.7"),
    _row("bad19", "classification", {"true_label": None},
         _BAD + "'true_label': missing mandatory field"),
    _row("bad20", "classification", {"is_ood": "no"},
         _BAD + "'is_ood': expected true or false, got \"no\""),
    _row("bad21", "classification", {"group": 3},
         _BAD + "'group': expected a string, got 3"),
    _row("bad22", "classification", {"noise_pair_id": 7},
         _BAD + "'noise_pair_id': expected a string, got 7"),
    _row("bad23", "classification", {"segment_bounds": [1.5, 2]},
         _BAD + "'segment_bounds': expected an array of integers"),
    _row("bad24", "classification", {"ref_segment_bounds": [5, 1]},
         _BAD + "'ref_segment_bounds': bounds [5, 1] must be an ordered pair"),
    _row("bad25", "classification", {"plausible_labels": [True, 1]},
         _BAD + "'plausible_labels': expected an array of integers"),
    _row("bad26", "classification", {"class_probabilities": [0.6, None]},
         _BAD + "'class_probabilities': expected a nonempty vector of "
                "numbers"),
    _row("x", "kb", "x", "{where}: expected a JSON object, got \"x\""),
    _row("bad28", "kb", {"entity_id": 7},
         "{where}, field 'entity_id': expected a string, got 7"),
    _row("bad29", "kb", {"embedding": [0.0, "x", 0.0, 0.0]},
         _BAD + "'embedding': expected a nonempty vector of numbers"),
    _row("bad30", "kb-file", {"source_tag": 5},
         "knowledge base, field 'source_tag': expected a string, got 5"),
    _row("bad31", "kb-file", {"entries": {}},
         "knowledge base, field 'entries': expected an array, got {}"),
    _row("5", "fixtures", 5, "{where}: expected a JSON object, got 5"),
    _row("bad33", "fixtures", {"y_name": None},
         "{where}, field 'y_name': missing mandatory field"),
    _row("bad34", "fixtures", {"x_name": 3},
         "{where}, field 'x_name': expected a string"),
    _row("bad35", "fixtures", {"edge_x_to_y": "false"},
         "{where}, field 'edge_x_to_y': expected true or false, "
         "got \"false\""),
    _row("bad36", "fixtures", {"interventional_table": [[0.5, "0.5"]]},
         "{where}, field 'interventional_table': expected a nonempty vector "
         "of numbers"),
    _row("bad37", "fixtures",
         {"observational_conditional": [[1.0], [0.5, 0.5]]},
         "{where}, field 'observational_conditional': expected a nonempty "
         "array of rows of one length"),
    _row("bad38", "eps", {"default": "nan"},
         "key 'default' must be a number or \"inf\", not \"nan\""),
    _row("bad39", "eps", {"default": math.nan},
         "key 'default' must be a number or \"inf\", not NaN"),
    _row("bad40", "eps", {"default": True},
         "key 'default' must be a number or \"inf\", not true"),
    _row("bad41", "eps", {"delusion": "0.5"},
         "key 'delusion' must be a number or \"inf\", not \"0.5\""),
    _row("bad42", "eps", [True] * 35,
         "key 0 must be a number or \"inf\", not true"),
    # the risk report would write it as "-inf", which report cannot read
    _row("bad43", "eps", {"default": -math.inf},
         "key 'default' must be a number or \"inf\", not -Infinity"),
    # a label indexes class_probabilities, which has two entries here
    _row("bad44", "classification", {"true_label": 5},
         _BAD + "'true_label': label 5 outside [0, 2)"),
    _row("bad45", "classification", {"true_label": -1},
         _BAD + "'true_label': label -1 outside [0, 2)"),
    _row("bad46", "classification", {"plausible_labels": [0, 2]},
         _BAD + "'plausible_labels': label 2 outside [0, 2)"),
    # {where} is the file; the message names the entry
    _row("bad47", "scenario", {"lamda": 5},
         "scenario {where}: field 'lamda': unknown field"),
    _row("bad48", "scenario", {"share_weights": [1.0, 2.0]},
         "scenario {where}: field 'share_weights': unknown field"),
    _row("bad49", "scenario", {"cloud_cap": "1e9"},
         "scenario {where}: field 'cloud_cap': expected a number, "
         "got \"1e9\""),
    _row("bad50", "scenario", {"seed": 1.5},
         "scenario {where}: field 'seed': expected an integer, got 1.5"),
    _row("bad51", "scenario", {"agents": {}},
         "scenario {where}: field 'agents': expected an array, got {}"),
    _row("bad52", "scenario",
         {"agents": [_AGENT, {"pathology": 7, "target": [0.5]}]},
         "scenario {where}: agents[1], field 'pathology': expected a nonempty "
         "string, got 7"),
    _row("bad53", "scenario", {"agents": [_AGENT | {"target": ["x"]}]},
         "scenario {where}: agents[0], field 'target': expected a nonempty "
         "vector of numbers"),
    _row("bad54", "scenario", {"agents": [_AGENT | {"hi": "1"}]},
         "scenario {where}: agents[0], field 'hi': expected a number, "
         "got \"1\""),
    _row("bad55", "scenario", {"lambda": True},
         "scenario {where}: field 'lambda': expected a number, got true"),
    _row("bad56", "scenario", {"agents": [_AGENT | {"tol": 1e-6}]},
         "scenario {where}: agents[0], field 'tol': unknown field"),
    _row("bad57", "scenario", {"mean_field": {"a0": {"quality": 1.5}}},
         "scenario {where}: mean_field[\"a0\"], field 'quality': probability "
         "1.5 outside [0,1]"),
    _row("bad58", "scenario", {"mean_field": {"a9": {"quality": 0.5}}},
         "scenario {where}: mean_field, field 'a9': unknown field"),
    _row("bad59", "scenario",
         {"mean_field": {"a0": {"quality": 0.5, "weight": 1}}},
         "scenario {where}: mean_field[\"a0\"], field 'weight': unknown "
         "field"),
    _row("bad60", "scenario", {"epsilon_schedule": [{"default": "nan"}]},
         "scenario {where}: epsilon_schedule[0]: key 'default' must be a "
         "number or \"inf\", not \"nan\""),
    _row("bad61", "scenario",
         {"epsilon_schedule": [{"default": 1.0}, {"default": True}]},
         "scenario {where}: epsilon_schedule[1]: key 'default' must be a "
         "number or \"inf\", not true"),
    _row("bad62", "scenario", {"epsilon_schedule": [[0.5]]},
         "scenario {where}: epsilon_schedule[0]: vector length 1 does not "
         "match the 2 names"),
    _row("bad63", "scenario", {"risks": {"a0": "0.1"}},
         "scenario {where}: risks, field 'a0': expected a number, "
         "got \"0.1\""),
    _row("bad64", "scenario", {"risks": {"a9": 0.1}},
         "scenario {where}: risks, field 'a9': unknown field"),
    # the threshold and record ids that each 0.6.0 outcome held
    _row("bad65", "outcomes", {"threshold": 0.5},
         "{where}: outcomes[1], field 'threshold': unknown field"),
    _row("bad66", "outcomes", {"unit": ["r1"]},
         "{where}: outcomes[1], field 'unit': expected a string, got "
         "[\"r1\"]"),
    _row("bad67", "outcomes", {"pathology": ""},
         "{where}: outcomes[1], field 'pathology': expected a nonempty "
         "string"),
    # each key that the 0.3.0 layout wrote as well, which the pathology,
    # severity and threshold determine
    _row("bad68", "outcomes", {"family": "generative"},
         "{where}: outcomes[1], field 'family': unknown field"),
    _row("bad69", "outcomes", {"fired": True},
         "{where}: outcomes[1], field 'fired': unknown field"),
    _row("bad70", "outcomes", {"loss": 0.7},
         "{where}: outcomes[1], field 'loss': unknown field"),
    # the evidence that the 0.5.0 layout wrote in each outcome
    _row("bad71", "outcomes", {"evidence": {"ratio": "3"}},
         "{where}: outcomes[1], field 'evidence': unknown field"),
    _row("bad72", "outcomes-file", {"outcomes": None},
         "{where}, field 'outcomes': missing mandatory field"),
    _row("bad73", "outcomes-file", {"outcomes": {}},
         "{where}, field 'outcomes': expected an array, got {}"),
    _row("bad74", "config", {"generative": {"s_hi": math.nan}},
         "config {where}: section 'generative', field 's_hi': expected a "
         "number, got NaN"),
    _row("bad75", "config", {"generative": {"window": "5"}},
         "config {where}: section 'generative', field 'window': expected an "
         "integer, got \"5\""),
    _row("bad76", "config", {"generative": {"expert_style_id": None}},
         "config {where}: section 'generative', field 'expert_style_id': "
         "expected a string, got null"),
    _row("bad77", "config", {"discriminative": []},
         "config {where}, field 'discriminative': expected an object, got "
         "[]"),
    _row("bad78", "risk-report", {"feasible": None},
         "risk report {where}, field 'feasible': missing mandatory field"),
    _row("bad79", "risk-report", {"tau": "0.9"},
         "risk report {where}, field 'tau': expected a number, got \"0.9\""),
    _row("bad80", "risk-report", {"total_ids": 35.0},
         "risk report {where}, field 'total_ids': expected an integer"),
    _row("bad81", "risk-report", {"entries": [_RISK_ENTRY | {"eps": "big"}]},
         "risk report {where}: entries[0], field 'eps': must be a number or "
         "\"inf\", not \"big\""),
    _row("bad82", "risk-report", {"entries": [_RISK_ENTRY | {"ok": 1}]},
         "risk report {where}: entries[0], field 'ok': expected true or "
         "false"),
    # the entry lacks its pathology
    _row("bad83", "risk-report",
         {"entries": [{k: v for k, v in _RISK_ENTRY.items()
                       if k != "pathology"}]},
         "risk report {where}: entries[0], field 'pathology': missing "
         "mandatory field"),
    # a key that no field declares, where a misspelt field would drop out
    _row("bad84", "trace", {"truth_embeding": [1.0, 0.0, 0.0, 0.0]},
         _BAD + "'truth_embeding': unknown field"),
    _row("bad85", "classification", {"timestamp": 3},
         _BAD + "'timestamp': unknown field"),
    _row("bad86", "kb", {"embeding": [1.0, 0.0, 0.0, 0.0]},
         _BAD + "'embeding': unknown field"),
    _row("bad87", "kb-file", {"source": "x"},
         "knowledge base, field 'source': unknown field"),
    _row("bad88", "fixtures", {"edge_x_to_z": True},
         "{where}, field 'edge_x_to_z': unknown field"),
    # a negative lambda makes the cost non-convex
    _row("bad89", "scenario", {"lambda": -2.0},
         "scenario {where}: lambda must be non-negative"),
    # one threshold for each pathology with outcomes, and no other
    _row("bad90", "outcomes-file", {"firing_thresholds": None},
         "{where}, field 'firing_thresholds': missing mandatory field"),
    _row("bad91", "outcomes-file", {"firing_thresholds": []},
         "{where}: firing_thresholds: expected a JSON object, got []"),
    _row("bad92", "outcomes-file",
         {"firing_thresholds": {"delusion": "0.5"}},
         "{where}: firing_thresholds, field 'delusion': expected a number, "
         "got \"0.5\""),
    _row("bad93", "outcomes-file",
         {"firing_thresholds": {"delusion": 0.5, "illusion": 0.9}},
         "{where}: firing_thresholds, field 'illusion': no outcome has this "
         "pathology"),
    _row("bad94", "outcomes-file",
         {"firing_thresholds": {"delusion": 0.5, "nonsense": 0.9}},
         "{where}: firing_thresholds, field 'nonsense': unknown field"),
    _row("bad95", "outcomes", {"pathology": "illusion"},
         "{where}: outcomes[1], field 'pathology': 'illusion' has no entry "
         "in firing_thresholds"),
    _row("bad96", "outcomes", {"record_ids": ["r1"], "unit": None},
         "{where}: outcomes[1], field 'record_ids': unknown field"),
    # a misspelt mandatory key is named as the unknown key it is, not as
    # the field it leaves out
    _row("bad97", "trace",
         {"input_embedding": None, "input_embeding": [1.0, 0.0, 0.0, 0.0]},
         _BAD + "'input_embeding': unknown field"),
    _row("bad98", "kb", {"embedding": None, "embeding": [1.0, 0.0, 0.0, 0.0]},
         _BAD + "'embeding': unknown field"),
    _row("bad99", "outcomes", {"severity": None, "severty": 0.5},
         "{where}: outcomes[1], field 'severty': unknown field"),
    # its squared norm overflows
    _row("bad100", "trace", {"input_embedding": [1e308, 0.0, 0.0, 0.0]},
         _BAD + "'input_embedding': an entry exceeds 1e+100 in magnitude"),
    _row("bad101", "config", {"discriminative": {"ece_bins": 10 ** 400}},
         "{where}: section 'discriminative': ece_bins must be at most "
         "10000")]


def _merged(base, bad):
    if not isinstance(bad, dict):
        return bad
    return {k: v for k, v in (base | bad).items() if v is not None}


def _with_malformed(tmp_path, target, bad):
    """(argv of a run that reads `bad` in its `target` input, where the
    bad object sits)."""
    if target in ("trace", "classification"):
        argv = _argv(tmp_path, f"audit-{target}")
        corpus = tmp_path / "corpus.jsonl"
        lines = corpus.read_text().splitlines()
        base = _TRACE_RECORD if target == "trace" else _CLASSIFICATION_RECORD
        lines.append(json.dumps(_merged(base, bad)))
        corpus.write_text("\n".join(lines) + "\n")
        return argv, f"line {len(lines)}"
    if target == "eps":
        eps = tmp_path / "eps.json"
        eps.write_text(json.dumps(bad))
        return ["risk", "--outcomes", _audited(tmp_path), "--eps",
                str(eps)], None
    # the whole file is the bad input; {where} stands for its path
    path = tmp_path / f"{target}.json"
    if target == "scenario":
        path.write_text(json.dumps(_merged(_SCENARIO, bad)))
        return ["game", "--scenario", str(path)], path
    if target == "outcomes":
        path.write_text(json.dumps({"firing_thresholds": _THRESHOLDS,
                                    "outcomes": [_GOOD_OUTCOME,
                                                 _merged(_GOOD_OUTCOME, bad)],
                                    "skipped": {}}))
        return ["risk", "--outcomes", str(path)], path
    if target == "outcomes-file":
        path.write_text(json.dumps(_merged(
            {"firing_thresholds": _THRESHOLDS, "outcomes": [_GOOD_OUTCOME]},
            bad)))
        return ["risk", "--outcomes", str(path)], path
    if target == "config":
        path.write_text(json.dumps(bad))
        return _trace_audit(tmp_path) + ["--config", str(path)], path
    if target == "risk-report":
        risk_report, _ = _risked(tmp_path)
        good = json.loads(Path(risk_report).read_text())
        path.write_text(json.dumps(_merged(good, bad)))
        return ["report", "--risk", str(path)], path
    argv = _trace_audit(tmp_path)
    if target == "fixtures":
        path = tmp_path / "fixtures.json"
        good = json.loads(path.read_text())
        path.write_text(json.dumps([good, _merged(good, bad)]))
        return argv, "fixture 1"
    path = tmp_path / "kb.json"
    kb = json.loads(path.read_text())
    if target == "kb-file":
        path.write_text(json.dumps(kb | bad))
        return argv, None
    kb["entries"].append(_merged(_KB_ENTRY, bad))
    path.write_text(json.dumps(kb))
    return argv, f"entry {len(kb['entries']) - 1}"


@pytest.mark.parametrize("target,bad,message", _MALFORMED)
def test_malformed_inputs_exit_2_naming_the_field(tmp_path, capsys, target,
                                                 bad, message):
    argv, where = _with_malformed(tmp_path, target, bad)
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message.replace("{where}", str(where)) in err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("target,bad,message", [
    row for row in _MALFORMED if row.values[0].startswith("outcomes")])
def test_outcomes_ahead_of_their_thresholds_fail_alike(tmp_path, capsys,
                                                       target, bad, message):
    # the same file with its members in another order: outcomes parsed
    # before the thresholds are checked once the file is read
    argv, where = _with_malformed(tmp_path, target, bad)
    doc = json.loads(where.read_text())
    where.write_text(json.dumps(
        {k: doc[k] for k in sorted(doc, key=lambda k: k != "outcomes")}))
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(tmp_path / "bad")]) == 2
    assert message.replace("{where}", str(where)) in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
