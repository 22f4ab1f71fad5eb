import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corpora
from pathrisk import cli, discriminative, generative, holonorm
from pathrisk import risk as risk_mod
from pathrisk.records import (load_causal_fixtures, load_knowledge_base,
                              load_trace_corpus, save_trace_corpus)
from pathrisk.registry import (DISCRIMINATIVE_DETECTORS, GENERATIVE_DETECTORS,
                               DetectorOutcome, pathology_ids)


def _outputs(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _trace_audit(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    save_trace_corpus(corpus, corpora.demo_trace_corpus())
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps(corpora.standard_kb().to_json_dict()))
    causal = tmp_path / "fixtures.json"
    causal.write_text(json.dumps(
        corpora.demo_causal_fixture().to_json_dict()))
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
        save_trace_corpus(corpus, corpora.demo_classification_corpus())
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
    assert len(first) == {"game": 2, "audit-trace": 4,
                          "audit-classification": 4}.get(subcommand, 3)


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
        assert "not_applicable" not in entry
        assert entry["available_count"] == len(entry["available"])
        listed = list(entry["available"])
        for group in entry["missing"].values():
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
    (["--dim", "2", "--tol", "0", "--samples", "10000"], 1, "out",
     "holonorm-verify: FAIL"),
    (["--dim", "0"], 2, "err", "error: dimension must be >= 1"),
    (["--dim", "2", "--tol", "-1"], 2, "err",
     "error: tolerance -1.0 must be >= 0"),
    (["--dim", "2", "--tol", "nan"], 2, "err",
     "error: tolerance nan must be >= 0")])
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


# the package modules a fresh interpreter loads to import pathrisk.cli, and
# those each subcommand adds when it runs
_CLI_IMPORTS = {"pathrisk", "pathrisk.cli", "pathrisk.jsonio",
                "pathrisk.records", "pathrisk.registry"}
_SUBCOMMAND_IMPORTS = {
    "risk-gate": {"risk"}, "report": {"risk"},
    "audit-classification": {"discriminative"},
    "audit-trace": {"generative", "metrics"},
    "holonorm-verify": {"holonorm"}, "game": {"game", "risk"},
    "pareto": {"fixtures", "metrics", "risk"}}
_IMPORT_PROBE = """\
import json, sys
import pathrisk.cli
loaded = {m for m in sys.modules if m.split(".")[0] == "pathrisk"}
code = pathrisk.cli.main(sys.argv[1:])
added = {m for m in sys.modules if m.split(".")[0] == "pathrisk"} - loaded
print(json.dumps([sorted(loaded), sorted(added), code]))
"""


@pytest.mark.parametrize("subcommand", sorted(_SUBCOMMAND_IMPORTS))
def test_each_subcommand_imports_only_its_own_modules(tmp_path, subcommand):
    # a fresh interpreter: this process has imported every module already
    argv = _argv(tmp_path, subcommand) + ["--out", str(tmp_path / "probe")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, check=True)
    loaded, added, code = json.loads(proc.stdout.splitlines()[-1])
    assert set(loaded) == _CLI_IMPORTS
    assert set(added) == {f"pathrisk.{m}"
                          for m in _SUBCOMMAND_IMPORTS[subcommand]}
    assert code == (3 if subcommand == "risk-gate" else 0)


def _fixture_audit(tmp_path, pathology, config):
    """The outcomes.json entries of `pathology` after an audit of its
    positive fixture, with `config` (a dict, or None) as --config."""
    corpus = tmp_path / "corpus.jsonl"
    argv = ["audit", "--corpus", str(corpus)]
    if pathology in GENERATIVE_DETECTORS:
        records = corpora.generative_fixture(pathology, True)["records"]
    else:
        records = corpora.discriminative_fixture(pathology, True)
        argv += ["--schema", "classification"]
    save_trace_corpus(corpus, records)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out), "--force"]) == 0
    outcomes = json.loads((out / "outcomes.json").read_text())["outcomes"]
    return [o for o in outcomes if o["pathology"] == pathology]


@pytest.mark.parametrize("pathology,section,key,default,raised", [
    # the fixture's output probability is 0.95
    ("abductive_leap", "generative", "delta", 0.9, 0.99),
    # the fixture's ECE is 0.5
    ("calibration_failure", "discriminative", "ece_hi", 0.1, 0.9)])
def test_config_sets_a_threshold(tmp_path, pathology, section, key, default,
                                 raised):
    before = _fixture_audit(tmp_path, pathology, None)
    after = _fixture_audit(tmp_path, pathology, {section: {key: raised}})
    assert [(o["threshold"], o["fired"]) for o in before] == [(default, True)]
    assert [(o["threshold"], o["fired"]) for o in after] == [(raised, False)]
    assert after[0]["severity"] == before[0]["severity"]


@pytest.mark.parametrize("config,named", [
    ({"detectors": {}}, "'detectors'"),
    ({"generative": {"s_high": 0.8}}, "'s_high'"),
    ({"discriminative": {"ece": 0.2}}, "'ece'"),
    ({"mi": {"bins": 3}}, "'bins'"),
    ({"generative_overrides": {"delusion": {"margin": 5.0}}},
     "'generative_overrides'"),
    ({"discriminative_overrides": {"overfitting": {"gap_hi": 0.5}}},
     "'discriminative_overrides'"),
    ({"discriminative": {"drift_window": [[0, 10], [20, 30]]}},
     "'drift_window'"),
    ({"generative": {"mi": {"seed": 3}}, "mi": {"seed": 4}}, "'mi'"),
    # known keys with a value of the wrong type or out of range
    ({"generative": {"delta": "0.99"}}, "'delta'"),
    ({"generative": {"window": 5.5}}, "'window'"),
    ({"generative": {"expert_style_id": 3}}, "'expert_style_id'"),
    ({"discriminative": {"ece_hi": True}}, "'ece_hi'"),
    ({"discriminative": {"n_min": None}}, "'n_min'"),
    ({"mi": {"seed": 1.0}}, "'seed'"),
    ({"discriminative": {"ece_bins": 0}}, "ece_bins"),
    ({"discriminative": {"gap_hi": 1.5}}, "gap_hi"),
    ({"discriminative": {"tol_t": -1}}, "tol_t"),
    ({"mi": {"num_bins_per_axis": 1}}, "num_bins_per_axis"),
    ({"generative": {"s_hi": 2.0}}, "s_hi"),
    ({"generative": {"s_indep": -0.1}}, "s_indep"),
    ({"generative": {"gamma": 1.5}}, "gamma"),
    ({"generative": {"delta": -1}}, "delta"),
    ({"generative": {"f_hi": 1.01}}, "f_hi"),
    ({"generative": {"d_hi": -0.5}}, "d_hi"),
    ({"generative": {"tv_tol": 2}}, "tv_tol"),
    ({"generative": {"rho": 1.1}}, "rho"),
    ({"generative": {"s_lo": -0.2}}, "s_lo"),
    ({"generative": {"mi_lo": -0.01}}, "mi_lo"),
    ({"generative": {"window": 1}}, "window"),
    ({"generative": {"drift_k": -1}}, "drift_k"),
    ({"generative": {"drift_k": 0}}, "drift_k"),
    ({"generative": {"entropy_ridge": -1e-6}}, "entropy_ridge"),
    # a key of a removed field
    ({"mi": {"projection_dims": 1}}, "'projection_dims'"),
    # turn_boundary_failure divides by tol_t
    ({"discriminative": {"tol_t": 0}}, "tol_t")])
def test_config_rejects_unknown_keys(tmp_path, capsys, config, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = _argv(tmp_path, "audit-trace") + ["--config", str(path),
                                             "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out" / "outcomes.json").exists()


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
        config.write_text(json.dumps({"mi": {"seed": 1}}))
        argv = trace + ["--config", str(config)]
        named = "section 'mi', field 'seed': unknown field"
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
    assert [(o["threshold"], o["fired"]) for o in after] == [(1.0, False)]


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
    loaded = cli._load_outcome_files([out / "outcomes.json"])
    result = _in_memory_audit(tmp_path, subcommand)
    assert len(loaded) == len(result.outcomes) > 0
    for got, want in zip(loaded, result.outcomes):
        # slotted: no per-instance __dict__
        assert isinstance(got, DetectorOutcome)
        assert not hasattr(got, "__dict__")
        assert (got.pathology, got.record_ids, got.threshold, got.fired) == \
            (want.pathology, want.record_ids, want.threshold, want.fired)
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


_GOOD_OUTCOME = {"pathology": "delusion", "family": "generative",
                 "record_ids": ["r1"], "fired": True, "severity": 0.7,
                 "loss": 0.7, "threshold": 0.5, "evidence": {"ratio": "3"}}


@pytest.mark.parametrize("change,message", [
    ({"pathology": "nonsense"}, "error: unknown pathology 'nonsense'\n"),
    ({"severity": 1.5}, "error: severity 1.5 outside [0,1]\n"),
    ({"severity": "nan"},
     "outcomes[1], field 'severity': expected a number, got \"nan\""),
    ({"loss": None}, "outcomes[1] is not an object with exactly the keys"),
    ({"extra": 1}, "outcomes[1] is not an object with exactly the keys")])
@pytest.mark.parametrize("subcommand", ["risk", "report"])
def test_bad_outcomes_exit_2(tmp_path, capsys, subcommand, change, message):
    item = {k: v for k, v in (_GOOD_OUTCOME | change).items()
            if v is not None}
    path = tmp_path / "outcomes.json"
    path.write_text(json.dumps({"outcomes": [_GOOD_OUTCOME, item],
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
_MALFORMED = [
    ("trace", [1, 2], "{where}: expected a JSON object, got [1, 2]"),
    ("trace", {"id": ""},
     "{where}, field 'id': expected a nonempty string, got \"\""),
    ("trace", {"output_embedding": None},
     _BAD + "'output_embedding': missing mandatory field"),
    ("trace", {"input_embedding": [1.0, "x", 0.0, 0.0]},
     _BAD + "'input_embedding': expected a nonempty vector of numbers"),
    ("trace", {"context_vectors": [[1.0, 0.0, 0.0, 0.0], "x"]},
     _BAD + "'context_vectors': expected a nonempty vector of numbers, "
            "got \"x\""),
    ("trace", {"claim_embeddings": 5},
     _BAD + "'claim_embeddings': expected an array of vectors, got 5"),
    ("trace", {"output_token_logprobs": ["x"]},
     _BAD + "'output_token_logprobs': expected an array of numbers"),
    ("trace", {"output_token_logprobs": [-0.5, 0.1]},
     _BAD + "'output_token_logprobs': log-probability 0.1 must be finite "
            "and <= 0"),
    ("trace", {"prob_output_given_input": "0.5"},
     _BAD + "'prob_output_given_input': expected a number, got \"0.5\""),
    ("trace", {"discomfort_score": True},
     _BAD + "'discomfort_score': expected a number, got true"),
    ("trace", {"prob_truth_given_input": 1.5},
     _BAD + "'prob_truth_given_input': probability 1.5 outside [0,1]"),
    ("trace", {"output_magnitude": -1},
     _BAD + "'output_magnitude': -1.0 must be finite and >= 0"),
    ("trace", {"in_real_manifold": "false"},
     _BAD + "'in_real_manifold': expected true or false, got \"false\""),
    ("trace", {"referenced_entities": [7, None]},
     _BAD + "'referenced_entities': expected an array of strings"),
    ("trace", {"latent_dim": 2.5},
     _BAD + "'latent_dim': expected an integer, got 2.5"),
    ("trace", {"input_dim": 0},
     _BAD + "'input_dim': 0 must be a positive integer"),
    ("trace", {"annotations": ["x"]},
     _BAD + "'annotations': expected an object of strings"),
    ("trace", {"annotations": {"conversation_id": 3}},
     _BAD + "'annotations': expected an object of strings"),
    ("classification", {"predicted_label": 0.7},
     _BAD + "'predicted_label': expected an integer, got 0.7"),
    ("classification", {"true_label": None},
     _BAD + "'true_label': missing mandatory field"),
    ("classification", {"is_ood": "no"},
     _BAD + "'is_ood': expected true or false, got \"no\""),
    ("classification", {"group": 3},
     _BAD + "'group': expected a string, got 3"),
    ("classification", {"noise_pair_id": 7},
     _BAD + "'noise_pair_id': expected a string, got 7"),
    ("classification", {"segment_bounds": [1.5, 2]},
     _BAD + "'segment_bounds': expected an array of integers"),
    ("classification", {"ref_segment_bounds": [5, 1]},
     _BAD + "'ref_segment_bounds': bounds [5, 1] must be an ordered pair"),
    ("classification", {"plausible_labels": [True, 1]},
     _BAD + "'plausible_labels': expected an array of integers"),
    ("classification", {"class_probabilities": [0.6, None]},
     _BAD + "'class_probabilities': expected a nonempty vector of numbers"),
    ("kb", "x", "{where}: expected a JSON object, got \"x\""),
    ("kb", {"entity_id": 7},
     "{where}, field 'entity_id': expected a string, got 7"),
    ("kb", {"embedding": [0.0, "x", 0.0, 0.0]},
     _BAD + "'embedding': expected a nonempty vector of numbers"),
    ("kb-file", {"source_tag": 5},
     "knowledge base, field 'source_tag': expected a string, got 5"),
    ("kb-file", {"entries": {}},
     "knowledge base, field 'entries': expected an array, got {}"),
    ("fixtures", 5, "{where}: expected a JSON object, got 5"),
    ("fixtures", {"y_name": None},
     "{where}, field 'y_name': missing mandatory field"),
    ("fixtures", {"x_name": 3}, "{where}, field 'x_name': expected a string"),
    ("fixtures", {"edge_x_to_y": "false"},
     "{where}, field 'edge_x_to_y': expected true or false, got \"false\""),
    ("fixtures", {"interventional_table": [[0.5, "0.5"]]},
     "{where}, field 'interventional_table': expected a nonempty vector "
     "of numbers"),
    ("fixtures", {"observational_conditional": [[1.0], [0.5, 0.5]]},
     "{where}, field 'observational_conditional': expected a nonempty "
     "array of rows of one length"),
    ("eps", {"default": "nan"},
     "key 'default' must be a number or \"inf\", not \"nan\""),
    ("eps", {"default": math.nan},
     "key 'default' must be a number or \"inf\", not NaN"),
    ("eps", {"default": True},
     "key 'default' must be a number or \"inf\", not true"),
    ("eps", {"delusion": "0.5"},
     "key 'delusion' must be a number or \"inf\", not \"0.5\""),
    ("eps", [True] * 35, "key 0 must be a number or \"inf\", not true"),
    # the risk report would write it as "-inf", which report cannot read
    ("eps", {"default": -math.inf},
     "key 'default' must be a number or \"inf\", not -Infinity"),
    # a label indexes class_probabilities, which has two entries here
    ("classification", {"true_label": 5},
     _BAD + "'true_label': label 5 outside [0, 2)"),
    ("classification", {"true_label": -1},
     _BAD + "'true_label': label -1 outside [0, 2)"),
    ("classification", {"plausible_labels": [0, 2]},
     _BAD + "'plausible_labels': label 2 outside [0, 2)"),
    # {where} is the file; the message names the entry
    ("scenario", {"lamda": 5}, "scenario {where}: field 'lamda': unknown "
                               "field"),
    ("scenario", {"share_weights": [1.0, 2.0]},
     "scenario {where}: field 'share_weights': unknown field"),
    ("scenario", {"cloud_cap": "1e9"},
     "scenario {where}: field 'cloud_cap': expected a number, got \"1e9\""),
    ("scenario", {"seed": 1.5},
     "scenario {where}: field 'seed': expected an integer, got 1.5"),
    ("scenario", {"agents": {}},
     "scenario {where}: field 'agents': expected an array, got {}"),
    ("scenario", {"agents": [_AGENT, {"pathology": 7, "target": [0.5]}]},
     "scenario {where}: agents[1], field 'pathology': expected a nonempty "
     "string, got 7"),
    ("scenario", {"agents": [_AGENT | {"target": ["x"]}]},
     "scenario {where}: agents[0], field 'target': expected a nonempty "
     "vector of numbers"),
    ("scenario", {"agents": [_AGENT | {"hi": "1"}]},
     "scenario {where}: agents[0], field 'hi': expected a number, "
     "got \"1\""),
    ("scenario", {"lambda": True},
     "scenario {where}: field 'lambda': expected a number, got true"),
    ("scenario", {"agents": [_AGENT | {"tol": 1e-6}]},
     "scenario {where}: agents[0], field 'tol': unknown field"),
    ("scenario", {"mean_field": {"a0": {"quality": 1.5}}},
     "scenario {where}: mean_field[\"a0\"], field 'quality': probability "
     "1.5 outside [0,1]"),
    ("scenario", {"mean_field": {"a9": {"quality": 0.5}}},
     "scenario {where}: mean_field, field 'a9': unknown field"),
    ("scenario", {"mean_field": {"a0": {"quality": 0.5, "weight": 1}}},
     "scenario {where}: mean_field[\"a0\"], field 'weight': unknown field"),
    ("scenario", {"epsilon_schedule": [{"default": "nan"}]},
     "scenario {where}: epsilon_schedule[0]: key 'default' must be a number "
     "or \"inf\", not \"nan\""),
    ("scenario", {"epsilon_schedule": [{"default": 1.0}, {"default": True}]},
     "scenario {where}: epsilon_schedule[1]: key 'default' must be a number "
     "or \"inf\", not true"),
    ("scenario", {"epsilon_schedule": [[0.5]]},
     "scenario {where}: epsilon_schedule[0]: vector length 1 does not match "
     "the 2 names"),
    ("scenario", {"risks": {"a0": "0.1"}},
     "scenario {where}: risks, field 'a0': expected a number, got \"0.1\""),
    ("scenario", {"risks": {"a9": 0.1}},
     "scenario {where}: risks, field 'a9': unknown field"),
    ("outcomes", {"threshold": True},
     "{where}: outcomes[1], field 'threshold': expected a number, got true"),
    ("outcomes", {"record_ids": "r1"},
     "{where}: outcomes[1], field 'record_ids': expected an array of "
     "strings, got \"r1\""),
    ("outcomes", {"pathology": ""},
     "{where}: outcomes[1], field 'pathology': expected a nonempty string"),
    ("outcomes", {"fired": "true"},
     "{where}: outcomes[1], field 'fired': expected true or false"),
    ("outcomes", {"family": "discriminative"},
     "{where}: outcomes[1], field 'family': \"discriminative\" disagrees "
     "with \"generative\""),
    ("outcomes", {"fired": False},
     "{where}: outcomes[1], field 'fired': false disagrees with true"),
    ("outcomes", {"loss": 0.5},
     "{where}: outcomes[1], field 'loss': 0.5 disagrees with 0.7"),
    ("outcomes-file", {"outcomes": None},
     "{where}, field 'outcomes': missing mandatory field"),
    ("outcomes-file", {"outcomes": {}},
     "{where}, field 'outcomes': expected an array, got {}"),
    ("config", {"generative": {"s_hi": math.nan}},
     "config {where}: section 'generative', field 's_hi': expected a "
     "number, got NaN"),
    ("config", {"generative": {"window": "5"}},
     "config {where}: section 'generative', field 'window': expected an "
     "integer, got \"5\""),
    ("config", {"generative": {"expert_style_id": None}},
     "config {where}: section 'generative', field 'expert_style_id': "
     "expected a string, got null"),
    ("config", {"mi": []},
     "config {where}, field 'mi': expected an object, got []"),
    ("risk-report", {"feasible": None},
     "risk report {where}, field 'feasible': missing mandatory field"),
    ("risk-report", {"tau": "0.9"},
     "risk report {where}, field 'tau': expected a number, got \"0.9\""),
    ("risk-report", {"total_ids": 35.0},
     "risk report {where}, field 'total_ids': expected an integer"),
    ("risk-report", {"entries": [_RISK_ENTRY | {"eps": "big"}]},
     "risk report {where}: entries[0], field 'eps': must be a number or "
     "\"inf\", not \"big\""),
    ("risk-report", {"entries": [_RISK_ENTRY | {"ok": 1}]},
     "risk report {where}: entries[0], field 'ok': expected true or false"),
    ("risk-report", {"entries": [_RISK_ENTRY | {"pathology": None}]},
     "risk report {where}: entries[0], field 'pathology': missing "
     "mandatory field"),
    # a key that no field declares, where a misspelt field would drop out
    ("trace", {"truth_embeding": [1.0, 0.0, 0.0, 0.0]},
     _BAD + "'truth_embeding': unknown field"),
    ("classification", {"timestamp": 3}, _BAD + "'timestamp': unknown field"),
    ("kb", {"embeding": [1.0, 0.0, 0.0, 0.0]},
     _BAD + "'embeding': unknown field"),
    ("kb-file", {"source": "x"}, "knowledge base, field 'source': unknown "
                                 "field"),
    ("fixtures", {"edge_x_to_z": True},
     "{where}, field 'edge_x_to_z': unknown field"),
    # a negative lambda makes the cost non-convex
    ("scenario", {"lambda": -2.0},
     "scenario {where}: lambda must be non-negative")]


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
        path.write_text(json.dumps({"outcomes": [
            _GOOD_OUTCOME, _merged(_GOOD_OUTCOME, bad)], "skipped": {}}))
        return ["risk", "--outcomes", str(path)], path
    if target == "outcomes-file":
        path.write_text(json.dumps(_merged({"outcomes": [_GOOD_OUTCOME]},
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
