import json
import math

import pytest

from pathrisk import cli, fixtures
from pathrisk.records import save_trace_corpus
from pathrisk.registry import (DISCRIMINATIVE_DETECTORS, GENERATIVE_DETECTORS,
                               pathology_ids)


def _outputs(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _trace_audit(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    save_trace_corpus(corpus, fixtures.demo_trace_corpus())
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps(fixtures.standard_kb().to_json_dict()))
    causal = tmp_path / "fixtures.json"
    causal.write_text(json.dumps(
        fixtures.demo_causal_fixture().to_json_dict()))
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
        scenario.write_text(json.dumps(fixtures.coupled_game_scenario()))
        return ["game", "--scenario", str(scenario)]
    if subcommand == "holonorm-verify":
        return ["holonorm-verify", "--dim", "2", "--seed", "0"]
    if subcommand == "audit-trace":
        return _trace_audit(tmp_path)
    if subcommand == "audit-classification":
        corpus = tmp_path / "corpus.jsonl"
        save_trace_corpus(corpus, fixtures.demo_classification_corpus())
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
    scenario.write_text(json.dumps(fixtures.coupled_game_scenario()))
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


def _fixture_audit(tmp_path, pathology, config):
    """The outcomes.json entries of `pathology` after an audit of its
    positive fixture, with `config` (a dict, or None) as --config."""
    corpus = tmp_path / "corpus.jsonl"
    argv = ["audit", "--corpus", str(corpus)]
    if pathology in GENERATIVE_DETECTORS:
        records = fixtures.generative_fixture(pathology, True)["records"]
    else:
        records = fixtures.discriminative_fixture(pathology, True)
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
    ({"generative": {"mi": {"seed": 3}}, "mi": {"seed": 4}}, "'mi'")])
def test_config_rejects_unknown_keys(tmp_path, capsys, config, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = _argv(tmp_path, "audit-trace") + ["--config", str(path),
                                             "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out" / "outcomes.json").exists()
