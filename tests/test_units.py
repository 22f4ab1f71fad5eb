"""Each outcome's unit, and each dropped unit's key, is the string that
0.6.0 formed by joining the outcome's record ids with ",".

`oracles.record_ids_060` gives the record ids of a unit as 0.6.0 held
them. These tests check the unit of every arity against that join, the
keys of the units an audit drops, and the order of the outcomes on the
benchmark's workload corpora and the demo corpus, which 0.6.0 sorted by
(pathology, joined record ids).
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import corpora
import oracles
from pathrisk import cli, discriminative, generative
from pathrisk.generative import Arity
from pathrisk.records import (CausalFixture, TraceRecord,
                              load_causal_fixtures, load_knowledge_base,
                              load_trace_corpus)

_E = np.eye(4)


def _record(rid, **fields):
    return TraceRecord(id=rid, input_embedding=fields.pop("x", _E[0]),
                       output_embedding=fields.pop("y", _E[1]), **fields)


def _conversation(cid, n):
    annotations = {"conversation_id": cid} if cid else {}
    return [_record(f"{cid or 't'}-{i}", annotations=dict(annotations))
            for i in range(n)]


def _fixture(x, y, **fields):
    table = np.array([[0.5, 0.5], [0.5, 0.5]])
    return CausalFixture(x_name=x, y_name=y, observational_conditional=table,
                         interventional_table=table, **fields)


@pytest.mark.parametrize("arity,data,unit", [
    pytest.param(Arity.RECORD, _record("r1"), "r1", id="record"),
    # the pair's ids in sorted order, whatever order the pair is in
    pytest.param(Arity.PAIR, (_record("b"), _record("a")), "a,b", id="pair"),
    pytest.param(Arity.SEQUENCE, _conversation("c7", 3), "c7",
                 id="sequence-conversation"),
    pytest.param(Arity.SEQUENCE, _conversation("", 3), "",
                 id="sequence-no-conversation"),
    pytest.param(Arity.FIXTURE, _fixture("smoking", "cancer"),
                 "smoking->cancer", id="fixture"),
    pytest.param(Arity.CORPUS, [_record("a"), _record("b")], "",
                 id="corpus")])
def test_unit_is_the_060_record_ids_joined(arity, data, unit):
    assert generative._unit(arity, data) == unit
    assert unit == ",".join(oracles.record_ids_060(arity, data))


def test_dropped_units_are_keyed_as_outcome_units():
    # one unit of each arity that its scorer cannot score, beside units
    # that it can
    records = (
        # contextual_drift needs drift_k + 1 = 4 context vectors
        [_record("short", context_vectors=tuple(_E[:2])),
         _record("long", context_vectors=tuple(_E))]
        # misattribution's similarity is undefined for a zero output
        + [_record(rid, y=y, annotations={"content_id": "k",
                                          "source_id": rid})
           for rid, y in (("p2", np.zeros(4)), ("p1", _E[1]))]
        # semantic_drift needs 3 turns
        + [_record(f"c0-{i}", intent_embedding=_E[2],
                   annotations={"conversation_id": "c0"}) for i in range(2)]
        + [_record(f"c1-{i}", intent_embedding=_E[2],
                   annotations={"conversation_id": "c1"}) for i in range(3)])
    # a fixture with no edge and no secondary intervention has no severity
    fixtures = [_fixture("x", "y", edge_x_to_y=False), _fixture("u", "v")]
    result = generative.audit_generative(records, fixtures=fixtures)
    dropped = {name: set(units) for name, units in result.dropped.items()}
    assert {name: dropped[name] for name in (
        "contextual_drift", "misattribution", "semantic_drift",
        "causal_inference_failure", "cognitive_stereotypy")} == {
        "contextual_drift": {"short"},
        "misattribution": {"p1,p2"},
        "semantic_drift": {"c0"},
        "causal_inference_failure": {"x->y"},
        # every input is e_0, so no pair of distinct inputs exists
        "cognitive_stereotypy": {""}}
    units = {(o.pathology, o.unit) for o in result.outcomes}
    assert {("contextual_drift", "long"), ("semantic_drift", "c1"),
            ("causal_inference_failure", "u->v")} <= units
    # the whole-corpus oracle keys the same units by the 0.6.0 join
    _, _, want = oracles.whole_corpus_audit(records, fixtures=fixtures)
    assert result.dropped == want


def test_discriminative_outcomes_have_the_empty_unit():
    corpus = corpora.classification_corpus(
        corpora.demo_classification_rows())
    result = discriminative.audit_discriminative(corpus)
    assert result.outcomes
    assert {o.unit for o in result.outcomes} == {""}


def _generate(workload, out):
    """The benchmark's inputs of a workload at seed 0, written to out."""
    path = Path(__file__).parents[1] / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.generate(workload, 0, out)


def _expected_trace(inputs):
    """(pathology, unit) of each outcome, in 0.6.0's order, and the
    dropped units, of the whole-corpus oracle over a trace corpus."""
    records = load_trace_corpus(inputs / "corpus.jsonl")
    kb = load_knowledge_base(inputs / "kb.json")
    fixtures = load_causal_fixtures(inputs / "fixtures.json")
    rows, _, dropped = oracles.whole_corpus_audit(records, kb, fixtures)
    return [(row["pathology"], row["unit"]) for row in rows], dropped


@pytest.mark.parametrize("workload", ["trace_pairwise", "trace_wide_kb",
                                      "classify_gate", "demo"])
def test_outcomes_keep_the_060_order(tmp_path, workload):
    inputs = tmp_path / "inputs"
    argv = ["audit", "--corpus", str(inputs / "corpus.jsonl")]
    if workload == "demo":
        inputs.mkdir()
        corpora.write_input(inputs / "corpus.jsonl",
                            corpora.demo_trace_corpus())
        corpora.write_input(inputs / "kb.json", corpora.standard_kb())
        corpora.write_input(inputs / "fixtures.json",
                            corpora.demo_causal_fixture())
    else:
        _generate(workload, inputs)
    if workload == "classify_gate":
        argv += ["--schema", "classification"]
        rows, _ = oracles.audit_classification_records(
            oracles.load_classification_records(inputs / "corpus.jsonl"),
            discriminative.DiscriminativeConfig())
        want = [(row["pathology"], row["unit"]) for row in rows], {}
    else:
        argv += ["--kb", str(inputs / "kb.json"),
                 "--fixtures", str(inputs / "fixtures.json")]
        want = _expected_trace(inputs)
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    doc = json.loads((out / "outcomes.json").read_text())
    got = [(o["pathology"], o["unit"]) for o in doc["outcomes"]]
    assert got
    assert (got, doc["dropped"]) == want
