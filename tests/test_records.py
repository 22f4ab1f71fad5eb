import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import ClassificationRecord, loop_validation, outcome_row
from pathrisk.discriminative import DiscriminativeConfig, audit_discriminative
from pathrisk.classification import _CLASSIFICATION, STRING_COLUMNS
from pathrisk.records import (_KB_ENTRY, _KINDS, CausalFixture, CorpusError,
                              KnowledgeBase, RecordValidationError,
                              TraceRecord, declare, decode_object,
                              load_causal_fixtures, load_knowledge_base,
                              load_trace_corpus, read_json, read_json_chunked)
from pathrisk import registry
from pathrisk.registry import (DISCRIMINATIVE_DETECTORS, GENERATIVE_DETECTORS,
                               REGISTRY, validate_corpus)
import corpora
from conftest import labelled


def _write_jsonl(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n")


def _cls_obj(rid="r1", probs=(0.6, 0.4), predicted=0, true=0, **extra):
    obj = {"id": rid, "features": [0.0, 1.0], "predicted_label": predicted,
           "true_label": true, "class_probabilities": list(probs)}
    obj.update(extra)
    return obj


def test_empty_file_gives_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_trace_corpus(path, "trace") == []
    assert len(load_trace_corpus(path, "classification")) == 0


def test_classification_record_accepted(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_cls_obj()])
    corpus = load_trace_corpus(path, "classification")
    assert corpus.ids == ("r1",)
    assert corpus.predicted_label.tolist() == [0]
    assert corpus.confidence.tolist() == [0.6]


def test_simplex_violation_reports_sum(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_cls_obj(probs=(0.6, 0.5))])
    with pytest.raises(RecordValidationError, match="sum 1.1"):
        load_trace_corpus(path, "classification")


def test_argmax_consistency_enforced(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_cls_obj(probs=(0.4, 0.6), predicted=0)])
    with pytest.raises(RecordValidationError, match="argmax"):
        load_trace_corpus(path, "classification")


def test_argmax_tie_broken_by_lowest_class():
    # predicted 0 is the tie-broken argmax
    tie = _cls_obj("t", probs=(0.5, 0.5), predicted=0, true=1)
    assert corpora.classification_corpus([tie]).ids == ("t",)
    with pytest.raises(RecordValidationError, match="is not the argmax"):
        corpora.classification_corpus([tie | {"predicted_label": 1}])


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "input_embedding": [1], '
                    '"output_embedding": [1]}\n{oops\n')
    with pytest.raises(CorpusError, match="line 2"):
        load_trace_corpus(path, "trace")


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    obj = {"id": "a", "input_embedding": [1.0], "output_embedding": [1.0]}
    _write_jsonl(path, [obj, obj])
    with pytest.raises(RecordValidationError, match="duplicate id"):
        load_trace_corpus(path, "trace")


def test_mixed_embedding_dim_is_corpus_error(tmp_path):
    path = tmp_path / "mixed.jsonl"
    _write_jsonl(path, [
        {"id": "a", "input_embedding": [1.0], "output_embedding": [1.0]},
        {"id": "b", "input_embedding": [1.0, 0.0],
         "output_embedding": [1.0, 0.0]},
    ])
    with pytest.raises(CorpusError, match="mixed embedding dimensions"):
        load_trace_corpus(path, "trace")


def test_each_record_goes_to_the_function_as_it_is_read(tmp_path):
    # the duplicate id on line 3 ends the read there, after the function
    # has seen the two records before it; what it returns is what is kept
    path = tmp_path / "seen.jsonl"
    rows = [{"id": rid, "input_embedding": [1.0], "output_embedding": [1.0]}
            for rid in ("a", "b", "a")]
    seen = []

    def record(i, rec):
        seen.append((i, rec.id))
        return rec.id

    _write_jsonl(path, rows[:2])
    assert load_trace_corpus(path, record=record) == ["a", "b"]
    assert seen == [(0, "a"), (1, "b")]
    del seen[:]
    _write_jsonl(path, rows)
    with pytest.raises(RecordValidationError, match="line 3.*duplicate id"):
        load_trace_corpus(path, record=record)
    assert seen == [(0, "a"), (1, "b")]


def test_positive_logprob_rejected(tmp_path):
    path = tmp_path / "lp.jsonl"
    _write_jsonl(path, [{"id": "a", "input_embedding": [1.0],
                         "output_embedding": [1.0],
                         "output_token_logprobs": [0.1]}])
    with pytest.raises(RecordValidationError, match="output_token_logprobs"):
        load_trace_corpus(path, "trace")


def test_empty_claim_list_rejected(tmp_path):
    path = tmp_path / "claims.jsonl"
    _write_jsonl(path, [{"id": "a", "input_embedding": [1.0, 0.0],
                         "output_embedding": [0.0, 1.0],
                         "claim_embeddings": []}])
    with pytest.raises(RecordValidationError,
                       match="record 'a', field 'claim_embeddings'"):
        load_trace_corpus(path, "trace")


def test_probability_range_enforced(tmp_path):
    path = tmp_path / "p.jsonl"
    _write_jsonl(path, [{"id": "a", "input_embedding": [1.0],
                         "output_embedding": [1.0],
                         "prob_output_given_input": 1.5}])
    with pytest.raises(RecordValidationError, match="prob_output_given_input"):
        load_trace_corpus(path, "trace")


def test_declare_reads_the_mandatory_flag():
    # ("x", kind, False) declares an optional field, as ("x", kind) does
    for declared in (("x", "number"), ("x", "number", False)):
        assert decode_object(declare(declared), {}, "obj") == {}
    with pytest.raises(RecordValidationError,
                       match="obj, field 'x': missing mandatory field"):
        decode_object(declare(("x", "number", True)), {}, "obj")


@pytest.mark.parametrize("kind, value", [
    ("vector", [1.0, -1.0000001e100]), ("vectors", [[1e101, 0.0]]),
    ("table", [[0.5, 0.5], [0.0, 1e300]]), ("bound", [1e308])],
    ids=["vector", "vectors", "table", "bound"])
def test_a_vector_entry_beyond_1e100_is_rejected(kind, value):
    # its square, or its vector's squared norm, could overflow
    [(_, decode, _)] = declare(("x", kind))
    with pytest.raises(ValueError,
                       match=r"^an entry exceeds 1e\+100 in magnitude$"):
        decode(value)
    assert decode(np.clip(value, -1e100, 1e100).tolist()) is not None


@pytest.mark.parametrize("obj, ignored, message", [
    # a misspelt mandatory key is named as the unknown key it is
    ({"xx": 1}, (), "obj, field 'xx': unknown field"),
    ({"y": 1, "xx": 1}, (), "obj, field 'xx': unknown field"),
    # a key the reader skips is not unknown, so the field is missing
    ({"skip": 1}, ("skip",), "obj, field 'x': missing mandatory field"),
    ({"y": 1}, (), "obj, field 'x': missing mandatory field")],
    ids=["misspelt", "misspelt-after-a-declared-key", "ignored", "absent"])
def test_an_absent_mandatory_key_is_named_after_any_unknown_key(
        obj, ignored, message):
    decoders = declare(("x", "number", True), ("y", "number"))
    with pytest.raises(RecordValidationError, match=f"^{message}$"):
        decode_object(decoders, obj, "obj", ignored=ignored)


@pytest.mark.parametrize("schema, line, message", [
    ("trace", {"id": "a", "input_embedding": [1.0],
               "output_embedding": [1.0], "prob_output_given_input": 1.5,
               "in_real_manifold": "yes"},
     "line 1, record 'a', field 'prob_output_given_input': "
     "probability 1.5 outside [0,1]"),
    ("classification", _cls_obj("a", segment_bounds=[3, 1],
                                latency_pair_id=7),
     "line 1, record 'a', field 'segment_bounds': "
     "bounds [3, 1] must be an ordered pair")])
def test_a_range_fault_is_named_before_a_later_type_fault(tmp_path, schema,
                                                          line, message):
    # each value is range-checked as it is decoded, so the first faulty
    # field in declaration order is named, whatever its fault
    path = tmp_path / "two_faults.jsonl"
    _write_jsonl(path, [line])
    with pytest.raises(RecordValidationError) as info:
        load_trace_corpus(path, schema)
    assert str(info.value) == message


def _load_trace_line(tmp_path, obj):
    _write_jsonl(tmp_path / "t.jsonl", [obj])
    load_trace_corpus(tmp_path / "t.jsonl", "trace")


def _load_classification_line(tmp_path, obj):
    _write_jsonl(tmp_path / "c.jsonl", [obj])
    load_trace_corpus(tmp_path / "c.jsonl", "classification")


def _load_fixture(tmp_path, obj):
    (tmp_path / "f.json").write_text(json.dumps([obj]))
    load_causal_fixtures(tmp_path / "f.json")


def _load_kb_entry(tmp_path, obj):
    (tmp_path / "kb.json").write_text(json.dumps({"entries": [obj]}))
    load_knowledge_base(tmp_path / "kb.json")


# each table of fields: (its decoders, a valid object, how it is loaded,
# what an error names before the field)
_TABLES = {
    "trace line": (TraceRecord._decoders,
                   {"id": "a", "input_embedding": [1.0, 0.0],
                    "output_embedding": [0.0, 1.0]},
                   _load_trace_line, "line 1, record 'a'"),
    "causal fixture": (CausalFixture._decoders,
                       corpora.json_value(corpora.demo_causal_fixture()),
                       _load_fixture, "fixture 0"),
    "classification line": (_CLASSIFICATION, _cls_obj("a"),
                            _load_classification_line, "line 1, record 'a'"),
    "knowledge-base entry": (_KB_ENTRY,
                             {"entity_id": "a", "embedding": [1.0, 0.0]},
                             _load_kb_entry, "entry 0, record 'a'"),
}
# each kind with a range check: a value of its JSON type out of that range,
# and the message
_OUT_OF_RANGE = {
    "dimension": (0, "0 must be a positive integer"),
    "probability": (1.5, "probability 1.5 outside [0,1]"),
    "magnitude": (-1.0, "-1.0 must be finite and >= 0"),
    "log-probs": ([-0.5, 0.5], "log-probability 0.5 must be finite and <= 0"),
    "bounds": ([3, 1], "bounds [3, 1] must be an ordered pair"),
    "vector": ([1.0, math.inf], "non-finite entries"),
    "vectors": ([[1.0, math.inf]], "non-finite entries"),
    "table": ([[0.5, 0.5], [math.inf, 0.0]], "non-finite entries"),
}


@pytest.mark.parametrize("kind", sorted(_OUT_OF_RANGE))
def test_each_range_checked_kind_rejects_through_every_table(tmp_path, kind):
    value, message = _OUT_OF_RANGE[kind]
    checked = []
    for table, (decoders, valid, load, where) in _TABLES.items():
        for name, decode, _ in decoders:
            if decode is not _KINDS[kind]:
                continue
            load(tmp_path, valid)
            with pytest.raises(RecordValidationError) as info:
                load(tmp_path, valid | {name: value})
            assert str(info.value) == f"{where}, field {name!r}: {message}"
            checked.append(table)
    assert checked, f"no table declares a {kind} field"


def test_round_trip_preserves_semantic_content(tmp_path):
    records = (corpora.demo_trace_corpus()
               + corpora.generative_fixture("semantic_drift", True)["records"])
    path = tmp_path / "rt.jsonl"
    corpora.write_input(path, records)
    reloaded = load_trace_corpus(path, "trace")
    assert len(reloaded) == len(records)
    for old, new in zip(records, reloaded):
        assert corpora.json_value(old) == corpora.json_value(new)


def test_validation_matrix_missing_field():
    rec = TraceRecord(id="a", input_embedding=np.array([1.0]),
                      output_embedding=np.array([1.0]),
                      prob_output_given_input=0.9)
    report = validate_corpus([rec])
    assert report.eligible("delusion").size == 0
    assert report.lacks(0, "delusion") == ("prob_truth_given_input",)


def test_validation_matrix_full_record():
    bundle = corpora.generative_fixture("delusion", True)
    report = validate_corpus(bundle["records"])
    assert 0 in report.eligible("delusion")
    assert 0 not in report.eligible("hallucination")  # no flag
    assert report.lacks(0, "hallucination") == ("in_real_manifold",)


def test_validation_matrix_wrong_record_kind():
    rows = corpora.discriminative_rows("calibration_failure", True)
    recs = corpora.classification_corpus(rows)
    report = validate_corpus(recs)
    for detector in ("delusion", "hallucination", "bluffing"):
        assert report.eligible(detector).size == 0
        assert report.not_applicable[detector] == \
            "<requires a trace record>"
    assert set(report.not_applicable) == set(GENERATIVE_DETECTORS)
    assert report.eligible("calibration_failure").size == len(recs)
    # one lacking group per distinct profile of what the records lack for
    # the 14 detectors
    expected = loop_validation(_oracle_records(rows))
    profiles = {tuple(lacks[rid] for lacks in expected.values())
                for rid in recs.ids}
    assert len(report.to_json_dict()["lacking"]) == len(profiles)


def test_validation_rejects_duplicate_ids():
    # a report names records by id, so an id must name one record
    full = corpora.generative_fixture("delusion", True)["records"][0]
    bare = TraceRecord(id=full.id, input_embedding=full.input_embedding,
                       output_embedding=full.output_embedding)
    with pytest.raises(ValueError, match="duplicate record id"):
        validate_corpus([full, bare])


def test_validation_order_independent(rng):
    records = corpora.demo_trace_corpus()
    report_a = validate_corpus(records)
    shuffled = list(records)
    rng.shuffle(shuffled)
    report_b = validate_corpus(shuffled)
    assert report_a.not_applicable == report_b.not_applicable
    for detector in REGISTRY:
        assert {report_a.ids[i] for i in report_a.eligible(detector)} == \
            {report_b.ids[i] for i in report_b.eligible(detector)}
    doc_a, doc_b = report_a.to_json_dict(), report_b.to_json_dict()
    assert doc_a["detectors"] == doc_b["detectors"]
    assert {k: set(v["ids"]) for k, v in doc_a["lacking"].items()} == \
        {k: set(v["ids"]) for k, v in doc_b["lacking"].items()}


_PAIR_LAYOUTS = ("perturbation", "noise", "latency", "spurious", "span",
                 "content")


def _gate_shaped_rows(n, seed=0):
    """JSON rows shaped like the classify_gate benchmark corpus: 16
    features, 4 classes, 4 subgroups, and consecutive records 2j, 2j+1
    paired by a layout that rotates through every pair detector's fields."""
    rng = np.random.default_rng(seed)
    features = np.round(rng.standard_normal((n, 16)), 6)
    logits = rng.standard_normal((n, 4))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    rows = []
    for i in range(n):
        pred = int(np.argmax(probs[i]))
        j, second = divmod(i, 2)
        row = {"id": f"x{i:06d}", "features": features[i].tolist(),
               "predicted_label": pred,
               "true_label": pred if i % 5 else (pred + 1) % 4,
               "class_probabilities": probs[i].tolist(),
               "group": f"g{i % 4}", "timestamp_index": i,
               "is_ood": i % 10 == 3}
        ann = {"in_train_set": "false" if second else "true"}
        layout = _PAIR_LAYOUTS[j % len(_PAIR_LAYOUTS)]
        if layout in ("perturbation", "noise", "latency"):
            row[f"{layout}_pair_id"] = f"{layout[0]}{j}"
        if layout == "noise":
            ann["noise_role"] = "noisy" if second else "clean"
        elif layout == "spurious":
            ann["spurious_pair_id"] = f"s{j}"
            ann["spurious_role"] = "resampled" if second else "clean"
        elif layout == "span":
            ann["span_pair_id"] = f"w{j}"
            ann["span_role"] = "narrow" if second else "wide"
            row["segment_bounds"] = [40, 60] if second else [0, 100]
        elif layout == "content":
            ann["content_id"] = f"c{j}"
            ann["prosody"] = "flat" if second else "rising"
        if layout != "span" and i % 5 == 0:
            row["segment_bounds"] = [i % 50, i % 50 + 10]
            row["ref_segment_bounds"] = [i % 50 + 1, i % 50 + 10]
        if i % 5 == 1:
            row["plausible_labels"] = sorted({pred, (pred + 1) % 4})
        row["annotations"] = ann
        rows.append(row)
    return rows


def _gate_shaped_corpus(n):
    return corpora.classification_corpus(_gate_shaped_rows(n))


def _oracle_records(rows):
    return [ClassificationRecord.from_json_dict(row) for row in rows]


# the keys of a record's JSON object that must be given
_MANDATORY = {"id", "input_embedding", "output_embedding", "features",
              "predicted_label", "true_label", "class_probabilities"}


def _partly_missing(rows, seed):
    """The JSON objects, each optional field (annotations included) left
    out with probability 0.3."""
    rng = np.random.default_rng(seed)
    return [{k: v for k, v in row.items()
             if k in _MANDATORY or rng.random() >= 0.3} for row in rows]


def _trace_rows(records):
    return [corpora.json_value(rec) for rec in records]


def _implied(doc, ids):
    """{detector: {record id: fields it lacks for the detector}} as a
    validation.json document says it, checking on the way that its
    `lacking` groups hold every record exactly once, in corpus order, and
    that each available count is that of the records lacking none of the
    detector's reads."""
    lacked = {}
    for key, group in doc["lacking"].items():
        members = set(group["ids"])
        assert group["count"] == len(group["ids"]) == len(members) > 0
        assert group["ids"] == [rid for rid in ids if rid in members]
        lacked.update(dict.fromkeys(group["ids"],
                                    set(key.split(",")) if key else set()))
    assert doc["record_count"] == len(ids) == len(lacked)
    assert set(lacked) == set(ids)
    out = {}
    for name, entry in doc["detectors"].items():
        if "not_applicable" in entry:
            assert entry == {"not_applicable": entry["not_applicable"],
                             "count": len(ids)}
            out[name] = {rid: (entry["not_applicable"],) for rid in ids}
            continue
        assert set(entry) == {"reads", "available_count"}
        out[name] = {rid: tuple(f for f in entry["reads"] if f in lacked[rid])
                     for rid in ids}
        assert entry["available_count"] == sum(
            fields == () for fields in out[name].values())
    return out


def _assert_report_is(report, expected, ids):
    """The report, and the validation.json it writes, say what the per-pair
    loop's `expected` says of the records `ids`: which records each
    detector can score, and what each record lacks for it."""
    assert list(report.ids) == ids
    for name in REGISTRY:
        assert [ids[i] for i in report.eligible(name)] == \
            [rid for rid in ids if expected[name][rid] == ()]
        if name in report.not_applicable:
            kind = "trace" if name in GENERATIVE_DETECTORS \
                else "classification"
            assert report.not_applicable[name] == f"<requires a {kind} record>"
            assert {expected[name][rid] for rid in ids} == \
                {(report.not_applicable[name],)}
        else:
            assert [report.lacks(i, name) for i in range(len(ids))] == \
                [expected[name][rid] for rid in ids]
    assert _implied(json.loads(json.dumps(report.to_json_dict())), ids) == \
        expected


def _trace_fixture_records():
    # every generative fixture: records that carry different field sets
    return corpora.demo_trace_corpus() + [
        rec for name in sorted(GENERATIVE_DETECTORS)
        for positive in (True, False)
        for rec in corpora.generative_fixture(name, positive)["records"]]


@pytest.mark.parametrize("corpus", [
    "trace", "classification", "partly-missing-trace",
    "partly-missing-classification", "empty"])
def test_grouped_report_equals_the_per_pair_loop(corpus):
    # a corpus is of one kind; the oracle reads the records it was built of
    trace = _trace_fixture_records()
    rows = _gate_shaped_rows(120)
    if corpus.endswith("trace"):
        if corpus.startswith("partly"):
            trace = [TraceRecord.from_json_dict(row) for row in
                     _partly_missing(_trace_rows(trace), 0)]
        records = oracle = trace
    elif corpus.endswith("classification"):
        if corpus.startswith("partly"):
            rows = _partly_missing(rows, 1)
        records = corpora.classification_corpus(rows)
        oracle = _oracle_records(rows)
    else:
        records = oracle = []
    report = validate_corpus(records)
    assert report.record_count == len(oracle)
    _assert_report_is(report, loop_validation(oracle),
                      [rec.id for rec in oracle])
    # not applicable exactly when the corpus is of the other kind
    assert set(report.not_applicable) == (
        set() if not oracle
        else set(GENERATIVE_DETECTORS) if corpus.endswith("classification")
        else set(DISCRIMINATIVE_DETECTORS))
    assert json.loads(json.dumps(report.to_json_dict())) == \
        oracles.loop_validation_json(oracle)


def test_validation_takes_each_record_once(monkeypatch):
    # one presence code per trace record, where the per-pair loop checked
    # the fields once per (detector, record) pair; a classification corpus
    # supplies its presence masks, so no record is visited
    calls = []
    real = registry.presence

    def counted(record):
        calls.append(record.id)
        return real(record)

    monkeypatch.setattr(registry, "presence", counted)
    records = [TraceRecord.from_json_dict(row) for row in _partly_missing(
        _trace_rows(_trace_fixture_records()), 3)]
    report = validate_corpus(records)
    assert calls == [r.id for r in records]
    del calls[:]
    validate_corpus(_gate_shaped_corpus(60))
    assert calls == []
    monkeypatch.undo()
    _assert_report_is(report, loop_validation(records),
                      [r.id for r in records])


def test_report_json_lists_counts_and_ids():
    rows = _partly_missing(_gate_shaped_rows(60), 2)
    report = validate_corpus(corpora.classification_corpus(rows))
    doc = report.to_json_dict()
    assert set(doc) == {"record_count", "lacking", "detectors"}
    assert doc["record_count"] == 60
    assert list(doc["detectors"]) == list(REGISTRY)
    for name, entry in doc["detectors"].items():
        if name in GENERATIVE_DETECTORS:
            assert entry == {"not_applicable": "<requires a trace record>",
                             "count": 60}
            continue
        assert entry == {"reads": list(REGISTRY[name].fields),
                         "available_count": report.eligible(name).size}
    # each group is keyed by what its records lack for the detectors that
    # read those fields, named in the order the detectors first read them
    fields = list(dict.fromkeys(f for name in DISCRIMINATIVE_DETECTORS
                                for f in REGISTRY[name].fields))
    grouped = {}
    for i, rid in enumerate(report.ids):
        lacked = {f for name in DISCRIMINATIVE_DETECTORS
                  for f in report.lacks(i, name)}
        grouped.setdefault(",".join(f for f in fields if f in lacked),
                           []).append(rid)
    assert doc["lacking"] == {key: {"count": len(ids), "ids": ids}
                              for key, ids in grouped.items()}
    assert len(grouped) > 1


def _retained(build):
    """(result of build(), bytes it still holds once built)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def gate_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("gate") / "corpus.jsonl"
    path.write_text("".join(json.dumps(row) + "\n"
                            for row in _gate_shaped_rows(5000)))
    return path


def test_validation_report_memory(gate_corpus):
    records = load_trace_corpus(gate_corpus, "classification")
    report, held = _retained(lambda: validate_corpus(records))
    # the corpus's ids, held once, and one int64 presence code per record:
    # 42 KB on Python 3.11
    assert held < 250_000
    assert len(report.not_applicable) == 21


# what the load of the corpus at sys.argv[1] allocates and still holds:
# `_retained` in a fresh interpreter
_LOAD_HELD = """
import gc, sys, tracemalloc
from pathrisk.records import load_trace_corpus
gc.collect()
tracemalloc.start()
corpus = load_trace_corpus(sys.argv[1], "classification")
gc.collect()
print(len(corpus), tracemalloc.get_traced_memory()[0])
"""


def test_loaded_corpus_memory(gate_corpus):
    # the 5,000 records held one object each, with their arrays, strings,
    # sets and annotation dicts, took 4.86 MB; as columns they take less
    # than half of that (2.17 MB measured on Python 3.11). It is measured
    # in a fresh interpreter: the load interns its strings, and in a
    # process that has run other tests the interpreter may rebuild its
    # table of interned strings (1.9 MB) during the load, depending on how
    # many strings those tests interned and freed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(registry.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    printed = subprocess.run(
        [sys.executable, "-c", _LOAD_HELD, str(gate_corpus)], env=env,
        check=True, capture_output=True, text=True).stdout
    records, held = map(int, printed.split())
    assert records == 5000
    assert held < 4_860_000 / 2


def test_the_load_peaks_little_above_what_it_keeps(gate_corpus):
    # each line's values go straight into typed buffers, so the load's
    # peak exceeds what it keeps only by the checks' temporaries: 0.25 MB
    # on Python 3.11, against 1.11 MB while the columns were lists of
    # Python ints, bound tuples and sorted label lists until the last line
    # was read
    gc.collect()
    tracemalloc.start()
    try:
        corpus = load_trace_corpus(gate_corpus, "classification")
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus) == 5000
    assert peak - held < 500_000


def test_audit_memory(gate_corpus):
    # the tracemalloc peak of the audit over the column corpus, its
    # validation report included: 1.58 MB measured on Python 3.11
    corpus = load_trace_corpus(gate_corpus, "classification")
    gc.collect()
    tracemalloc.start()
    try:
        audit_discriminative(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_loaded_records_share_repeated_strings(tmp_path):
    path = tmp_path / "gate.jsonl"
    path.write_text("".join(json.dumps(row) + "\n"
                            for row in _gate_shaped_rows(24)))
    corpus = load_trace_corpus(path, "classification")
    # equal group and annotation values are one string object
    for name in STRING_COLUMNS:
        values, codes = corpus.strings[name]
        column = [values[k] for k in codes.tolist() if k >= 0]
        assert len({id(v) for v in column}) == len(set(column))
    values, codes = corpus.strings["group"]
    assert values[codes[0]] == values[codes[12]] == "g0"
    assert values[codes[0]] is values[codes[12]]
    trace = tmp_path / "trace.jsonl"
    corpora.write_input(trace, corpora.demo_trace_corpus()
                        + corpora.generative_fixture("semantic_drift",
                                                     True)["records"])
    shared = {}
    for rec in load_trace_corpus(trace, "trace"):
        for key, value in rec.annotations.items():
            assert shared.setdefault(key, key) is key
            assert shared.setdefault(("value", value), value) is value


# --- the column loader against the per-record one ----------------------------

def _differential_rows():
    """120 gate-shaped rows whose perturbation pairs lie within eps_adv, so
    every detector scores."""
    rows = _gate_shaped_rows(120)
    for first, second in zip(rows[::2], rows[1::2]):
        if "perturbation_pair_id" in first:
            second["features"] = [x + 0.001 for x in first["features"]]
    return rows


# ten probabilities whose sum, 1 + 1.0000000827e-9, fails the 1e-9 check,
# while the same entries with trailing zeros sum to 1 + 9.99999e-10: numpy
# groups more than eight terms differently, so a check summing rows padded
# to a wider row would pass them
_TEN_CLASSES = [
    0.11092820507079987, 0.02490514761967315, 0.13401823086148776,
    0.16694692414699155, 0.13176418247410843, 0.19717182917207696,
    0.008510432189345581, 0.11361950583039618, 0.09873359080684814,
    0.013401952828272338]


def _three_classes(row):
    probs = [0.5, 0.3, 0.2]
    return row | {"class_probabilities": probs, "predicted_label": 0,
                  "true_label": row["true_label"] % 3,
                  "plausible_labels": [0, 2]}


# mutations of one row: name -> row -> the row (or a JSON line) in its place
_ROW_MUTATIONS = {
    "wrong-type-label": lambda r: r | {"predicted_label": 0.5},
    "wrong-type-features": lambda r: r | {"features": "x"},
    "wrong-type-group": lambda r: r | {"group": 3},
    "nan-probability": lambda r: r | {"class_probabilities": [
        math.nan] + r["class_probabilities"][1:]},
    "nan-feature": lambda r: r | {"features": [math.nan] + r["features"][1:]},
    "probability-outside": lambda r: r | {
        "class_probabilities": [1.25, -0.25, 0.0, 0.0], "predicted_label": 0,
        "true_label": 0},
    "sum-off-1e-6": lambda r: r | {"class_probabilities": [
        r["class_probabilities"][0] + 1e-6] + r["class_probabilities"][1:]},
    "sum-off-1e-10": lambda r: r | {"class_probabilities": [
        r["class_probabilities"][0] + 1e-10] + r["class_probabilities"][1:]},
    "argmax-mismatch": lambda r: r | {
        "predicted_label": (r["predicted_label"] + 1) % 4},
    "label-at-count": lambda r: r | {"true_label": 4},
    "label-negative": lambda r: r | {"true_label": -1},
    "label-huge": lambda r: r | {"true_label": 2 ** 70},
    "plausible-at-count": lambda r: r | {"plausible_labels": [1, 4]},
    "unordered-bounds": lambda r: r | {"segment_bounds": [5, 1]},
    "mixed-feature-widths": lambda r: r | {"features": r["features"][:15]},
    "mixed-class-counts": _three_classes,
    "ten-classes-sum-off": lambda r: r | {
        "class_probabilities": _TEN_CLASSES, "predicted_label": 5,
        "true_label": 5, "plausible_labels": [5]},
    "seventeen-classes": lambda r: r | {
        "class_probabilities": [0.2] + [0.05] * 16, "predicted_label": 0,
        "true_label": 0, "plausible_labels": [0, 16]},
    "median-timestamp": lambda r: r | {"timestamp_index": 60},
    "unknown-key": lambda r: r | {"timestamp": 3},
    "null-field": lambda r: r | {"group": None, "annotations": None},
    "null-mandatory": lambda r: r | {"true_label": None},
    # an int too large for int64: a timestamp or bound is held as a Python
    # int, and a label is rejected
    "huge-timestamp": lambda r: r | {"timestamp_index": 2 ** 64},
    "huge-segment-bounds": lambda r: r | {"segment_bounds": [0, 2 ** 64]},
    "huge-ref-segment-bounds": lambda r: r | {
        "ref_segment_bounds": [0, 2 ** 64]},
    "huge-true-label": lambda r: r | {"true_label": 2 ** 64},
    "huge-predicted-label": lambda r: r | {"predicted_label": 2 ** 64},
    "huge-plausible-label": lambda r: r | {"plausible_labels": [1, 2 ** 64]},
    "relabel": lambda r: r | {"true_label": (r["true_label"] + 1) % 4},
    "no-pair-ids": lambda r: {k: v for k, v in r.items()
                              if not k.endswith("_pair_id")},
    # rows that share a pair, span or content id form groups of three or
    # more, whose members and roles the pair detectors must pick as before
    "shared-ids": lambda r: r | {
        k: "shared" for k in r if k.endswith("_pair_id")} | {
        "annotations": {k: "shared" if k.endswith("_id") else v
                        for k, v in (r.get("annotations") or {}).items()}},
    "new-group": lambda r: r | {"group": "g9"},
    "malformed-json": lambda r: "{oops",
    "blank-line": lambda r: "   ",
}
# the mutations that leave a corpus valid
_ACCEPTED = ("sum-off-1e-10", "mixed-class-counts", "seventeen-classes",
             "null-field", "huge-timestamp", "huge-segment-bounds",
             "huge-ref-segment-bounds", "median-timestamp", "relabel",
             "no-pair-ids", "shared-ids", "new-group", "blank-line")


def _lines(rows, mutations):
    """JSON lines of the rows with (row index, mutation name) applied in
    order, but to a line already blank or malformed; a duplicate-id
    mutation (index, "duplicate-of", j) takes row j's id."""
    lines = [json.dumps(row) for row in rows]
    for index, name, *other in mutations:
        if not lines[index].startswith('{"'):
            continue   # a blank or malformed line stays as it is
        if name == "duplicate-of":
            line = json.loads(lines[index]) | {"id": rows[other[0]]["id"]}
        else:
            line = _ROW_MUTATIONS[name](json.loads(lines[index]))
        lines[index] = line if type(line) is str else json.dumps(line)
    return lines


def _loaded(load):
    try:
        return load()
    except CorpusError as exc:
        return exc


def _assert_loaders_agree(path, lines):
    """The column loader and the per-record oracle give the same error, or
    the same rows, the same 14 outcomes and skip reasons and the same
    validation.json."""
    path.write_text("\n".join(lines) + "\n")
    got = _loaded(lambda: load_trace_corpus(path, "classification"))
    want = _loaded(lambda: oracles.load_classification_records(path))
    if isinstance(got, Exception) or isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return got
    classes = got.class_probabilities.shape[1]
    assert [_row(got, i) for i in range(len(got))] == \
        [_held(rec, classes) for rec in want]
    cfg = DiscriminativeConfig()
    result = audit_discriminative(got, cfg)
    assert ([outcome_row(o) for o in result.outcomes], result.skipped) \
        == oracles.audit_classification_records(want, cfg)
    assert json.loads(json.dumps(result.validation.to_json_dict())) == \
        oracles.loop_validation_json(want)
    _assert_report_is(result.validation, loop_validation(want),
                      [rec.id for rec in want])
    return got


# (mutations, the error they cause or None), each row with its own id
_LOADER_CASES = [
    labelled("mutations0", [], None),
    labelled("mutations1", [(7, "wrong-type-label")], None),
    labelled("mutations2", [(7, "wrong-type-features")], None),
    labelled("mutations3", [(7, "wrong-type-group")], None),
    labelled("mutations4", [(7, "nan-probability")], None),
    labelled("mutations5", [(7, "nan-feature")], None),
    labelled("mutations6", [(7, "probability-outside")], None),
    labelled("mutations7", [(7, "sum-off-1e-6")], None),
    labelled("mutations8", [(7, "sum-off-1e-10")], None),
    labelled("mutations9", [(7, "argmax-mismatch")], None),
    labelled("mutations10", [(7, "label-at-count")], None),
    labelled("mutations11", [(7, "label-negative")], None),
    labelled("mutations12", [(7, "label-huge")], None),
    labelled("mutations13", [(7, "plausible-at-count")], None),
    labelled("mutations14", [(7, "unordered-bounds")], None),
    labelled("mutations15", [(7, "mixed-feature-widths")], None),
    labelled("mutations16", [(7, "mixed-class-counts")], None),
    labelled("mutations17", [(7, "ten-classes-sum-off")], None),
    labelled("mutations18", [(7, "seventeen-classes")], None),
    labelled("mutations19", [(7, "median-timestamp")], None),
    labelled("mutations20", [(7, "unknown-key")], None),
    labelled("mutations21", [(7, "null-field")], None),
    labelled("mutations22", [(7, "null-mandatory")], None),
    labelled("mutations23", [(7, "huge-timestamp")], None),
    labelled("mutations24", [(7, "relabel")], None),
    labelled("mutations25", [(7, "no-pair-ids")], None),
    labelled("mutations26", [(7, "shared-ids")], None),
    labelled("mutations27", [(7, "new-group")], None),
    labelled("mutations28", [(7, "malformed-json")], None),
    labelled("mutations29", [(7, "blank-line")], None),
    labelled("mutations30", [(9, "duplicate-of", 3)],
             "line 10, record 'x000003', field 'id': duplicate id"),
    # the first line that fails any check is named, whichever check it is
    labelled("mutations31", [(5, "argmax-mismatch"), (9, "malformed-json")],
             "line 6, "),
    labelled("mutations32", [(5, "wrong-type-label"), (9, "argmax-mismatch")],
             "line 6, "),
    labelled("mutations33", [(9, "argmax-mismatch"), (9, "duplicate-of", 3)],
             "line 10, "),
    labelled("mutations34",
             [(3, "mixed-feature-widths"), (50, "argmax-mismatch")],
             "line 51, "),
    labelled("mutations35",
             [(5, "unordered-bounds"), (5, "argmax-mismatch")],
             "field 'segment_bounds'"),
    labelled("mutations36", [(5, "argmax-mismatch"), (5, "label-at-count"),
                             (5, "sum-off-1e-6")],
             "field 'class_probabilities': probabilities sum 1\\b"),
    labelled("mutations37", [(1, "blank-line"), (5, "argmax-mismatch")],
             "line 6, "),
    labelled("mutations38", [(1, "blank-line"), (5, "mixed-class-counts"),
                             (40, "mixed-class-counts")], None),
    # six rows to each pair, span and content id: groups of more than two,
    # with each role held by several rows
    labelled("mutations39", [(i, "shared-ids") for i in range(36)], None),
    labelled("mutations40",
             [(7, "ten-classes-sum-off"), (9, "seventeen-classes")],
             "^line 8, record 'x000007', field 'class_probabilities': "
             "probabilities sum 1$"),
    # row 8 is the wide row of a span pair, and row 5 has both bounds
    labelled("mutations41", [(8, "huge-segment-bounds")], None),
    labelled("mutations42", [(5, "huge-ref-segment-bounds")], None),
    labelled("mutations43", [(7, "huge-true-label")],
             "^line 8, record 'x000007', field 'true_label': label "
             "18446744073709551616 outside \\[0, 4\\)$"),
    labelled("mutations44", [(7, "huge-predicted-label")],
             "^line 8, record 'x000007', field 'predicted_label': "
             "predicted_label 18446744073709551616 is not the argmax of "
             "class_probabilities$"),
    labelled("mutations45", [(7, "huge-plausible-label")],
             "^line 8, record 'x000007', field 'plausible_labels': label "
             "18446744073709551616 outside \\[0, 4\\)$")]


def test_each_row_mutation_has_a_case_of_its_own():
    alone = {case.values[0][0][1] for case in _LOADER_CASES
             if len(case.values[0]) == 1}
    assert alone >= set(_ROW_MUTATIONS)


@pytest.mark.parametrize("mutations,error", _LOADER_CASES)
def test_column_loader_agrees_with_the_per_record_loader(tmp_path, mutations,
                                                        error):
    got = _assert_loaders_agree(tmp_path / "corpus.jsonl",
                                _lines(_differential_rows(), mutations))
    if error is not None:
        assert isinstance(got, CorpusError)
        assert re.search(error, str(got))


@pytest.mark.parametrize("seed", range(30))
def test_column_loader_agrees_on_random_mutations(tmp_path, seed):
    # at odd seeds 5 to 30 mutations that leave the corpus valid, so the
    # outcomes move; at even seeds one to three of any kind
    rng = np.random.default_rng(seed)
    rows = _differential_rows()
    names = (_ACCEPTED if seed % 2
             else sorted(_ROW_MUTATIONS) + ["duplicate-of"])
    mutations = []
    for _ in range(int(rng.integers(5, 31) if seed % 2
                       else rng.integers(1, 4))):
        index, name = int(rng.integers(len(rows))), str(rng.choice(names))
        mutations.append((index, name, int(rng.integers(len(rows))))
                         if name == "duplicate-of" else (index, name))
    _assert_loaders_agree(tmp_path / "corpus.jsonl", _lines(rows, mutations))


def test_knowledge_base_invariants():
    with pytest.raises(CorpusError, match="unique"):
        KnowledgeBase(entries=(("a", np.array([1.0])),
                               ("a", np.array([2.0]))))
    with pytest.raises(CorpusError, match="mixed"):
        KnowledgeBase(entries=(("a", np.array([1.0])),
                               ("b", np.array([1.0, 2.0]))))


def _kb_file(tmp_path, last):
    path = tmp_path / "kb.json"
    path.write_text(json.dumps({"entries": [
        {"entity_id": "a", "embedding": [1.0, 0.0]}, last]}))
    return path


@pytest.mark.parametrize("last,error,message", [
    labelled("last0", {"entity_id": "b"}, RecordValidationError,
             "entry 1, record 'b', field 'embedding': missing mandatory "
             "field"),
    labelled("last1", {"embedding": [0.0, 1.0]}, RecordValidationError,
             "entry 1, field 'entity_id': missing mandatory field"),
    labelled("last2", {"entity_id": "b", "embedding": []},
             RecordValidationError,
             "record 'b', field 'embedding': expected a nonempty vector"),
    labelled("last3", {"entity_id": "b", "embedding": [[0.0, 1.0]]},
             RecordValidationError,
             "record 'b', field 'embedding': expected a nonempty vector"),
    labelled("last4", {"entity_id": "b", "embedding": [0.0, math.nan]},
             RecordValidationError,
             "record 'b', field 'embedding': non-finite entries"),
    labelled("last5", {"entity_id": "b", "embedding": [0.0, "x"]},
             RecordValidationError,
             "record 'b', field 'embedding': expected a nonempty vector of "
             "numbers"),
    labelled("last6", {"entity_id": "b", "embedding": [0.0, 1.0, 2.0]},
             CorpusError,
             r"knowledge base embeddings have mixed lengths \[2, 3\]")])
def test_knowledge_base_file_errors(tmp_path, last, error, message):
    with pytest.raises(error, match=message) as info:
        load_knowledge_base(_kb_file(tmp_path, last))
    assert type(info.value) is error


def test_knowledge_base_file_round_trip(tmp_path):
    kb = corpora.standard_kb()
    path = tmp_path / "kb.json"
    # a source tag is accepted, and not kept
    path.write_text(json.dumps(corpora.json_value(kb)
                               | {"source_tag": "fixture"}))
    loaded = load_knowledge_base(path)
    assert [e for e, _ in loaded.entries] == [e for e, _ in kb.entries]
    assert np.array_equal(loaded.embedding_matrix(), kb.embedding_matrix())


def test_knowledge_base_is_read_in_chunks(tmp_path, monkeypatch):
    # a well-formed file never reaches the whole-file reader
    kb = corpora.standard_kb()
    path = tmp_path / "kb.json"
    corpora.write_input(path, kb)
    monkeypatch.setattr("pathrisk.records.read_json", None)
    for chars in (3, 1 << 16):
        monkeypatch.setattr("pathrisk.records._CHUNK_CHARS", chars)
        loaded = load_knowledge_base(path)
        assert [e for e, _ in loaded.entries] == [e for e, _ in kb.entries]
        assert np.array_equal(loaded.embedding_matrix(),
                              kb.embedding_matrix())


def test_knowledge_base_load_holds_no_list_of_floats(tmp_path):
    # 128 x 768 two-decimal floats: as Python floats in lists they take
    # about 32 B each, about 4x the 8 B of the array the KB keeps
    rng = np.random.default_rng(0)
    path = tmp_path / "kb.json"
    path.write_text(json.dumps({"entries": [
        {"entity_id": f"e{i}",
         "embedding": np.round(rng.standard_normal(768), 2).tolist()}
        for i in range(128)]}))
    tracemalloc.start()
    try:
        kb = load_knowledge_base(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * kb.embedding_matrix().nbytes


def test_knowledge_base_lookup_and_ids():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    kb = KnowledgeBase(entries=(("b", b), ("a", a)))
    # entries and lookup hold rows of the one stored matrix, equal to a, b
    assert kb.lookup("a") is kb.entries[1][1]
    assert kb.lookup("b") is kb.entries[0][1]
    assert np.array_equal(kb.lookup("a"), a)
    assert np.array_equal(kb.lookup("b"), b)
    assert kb.lookup("c") is None
    assert kb.entity_ids == frozenset({"a", "b"})
    assert [e for e, _ in kb.entries] == ["b", "a"]
    matrix = kb.embedding_matrix()
    assert np.array_equal(matrix, [b, a])
    assert kb.embedding_matrix() is matrix and not matrix.flags.writeable
    assert not kb.lookup("a").flags.writeable


def test_causal_fixture_row_sums():
    with pytest.raises(CorpusError, match="sums to"):
        CausalFixture(x_name="X", y_name="Y",
                      observational_conditional=np.array([[0.7, 0.4]]),
                      interventional_table=np.array([[0.5, 0.5]]))


def test_causal_fixture_width_mismatch():
    with pytest.raises(CorpusError, match="support"):
        CausalFixture(x_name="X", y_name="Y",
                      observational_conditional=np.array([[1.0]]),
                      interventional_table=np.array([[0.5, 0.5]]))


def test_a_null_field_reads_as_unset(tmp_path):
    # while a key that no field declares is an error (see test_cli)
    line = {"id": "r", "input_embedding": [1.0, 0.0],
            "output_embedding": [0.0, 1.0]}
    corpus = tmp_path / "corpus.jsonl"
    _write_jsonl(corpus, [line | {"truth_embedding": None,
                                  "in_train_set": None, "annotations": None}])
    [rec] = load_trace_corpus(corpus)
    assert corpora.json_value(rec) == line and rec.annotations == {}
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps({"source_tag": None, "entries": [
        {"entity_id": "e", "embedding": [1.0, 0.0]}]}))
    assert load_knowledge_base(kb).entity_ids == {"e"}
    table = [[0.5, 0.5]]
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps({
        "x_name": "X", "y_name": "Y", "observational_conditional": table,
        "interventional_table": table, "z_name": None,
        "edge_x_to_y": None}))
    [fixture] = load_causal_fixtures(path)
    assert fixture.edge_x_to_y is True and fixture.z_name is None


def test_unknown_schema_rejected(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text("")
    with pytest.raises(CorpusError, match="schema"):
        load_trace_corpus(path, "audio")


# a vector entry: a number of magnitude at most 1e100
_NUMBER = st.floats(-1e100, 1e100) | st.integers(-10**6, 10**6)
_PROBABILITY = st.floats(0.0, 1.0) | st.integers(0, 1)
_MAGNITUDE = st.floats(0.0, allow_infinity=False) | st.integers(0, 10**6)
_LOG_PROBS = st.lists(st.floats(max_value=0.0, allow_infinity=False)
                      | st.integers(-100, 0), min_size=1, max_size=4)
_ANNOTATIONS = st.dictionaries(st.text(max_size=4), st.text(max_size=4),
                               max_size=3)


def _vectors(d, min_size=0):
    return st.lists(st.lists(_NUMBER, min_size=d, max_size=d),
                    min_size=min_size, max_size=3)


@st.composite
def _trace_objects(draw):
    d = draw(st.integers(1, 4))
    vector = st.lists(_NUMBER, min_size=d, max_size=d)
    optional = {
        "truth_embedding": vector, "intent_embedding": vector,
        "style_embedding": st.lists(_NUMBER, min_size=1, max_size=4),
        "context_vectors": _vectors(d),
        "claim_embeddings": _vectors(draw(st.integers(1, 4)), min_size=1),
        "output_token_logprobs": _LOG_PROBS,
        "prob_output_given_input": _PROBABILITY,
        "prob_truth_given_input": _PROBABILITY,
        "discomfort_score": _PROBABILITY,
        "in_real_manifold": st.booleans(), "in_train_set": st.booleans(),
        "has_inference_path": st.booleans(),
        "referenced_entities": st.lists(st.text(max_size=4), max_size=3),
        "output_magnitude": _MAGNITUDE, "truth_magnitude": _MAGNITUDE,
        "latent_dim": st.integers(1, 10**6), "input_dim": st.integers(1, 10**6),
        "annotations": _ANNOTATIONS}
    return draw(st.fixed_dictionaries(
        {"id": st.text(min_size=1, max_size=4), "input_embedding": vector,
         "output_embedding": vector}, optional=optional))


@st.composite
def _classification_objects(draw):
    weights = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4)
                   .filter(any))
    probs = [w / sum(weights) for w in weights]
    bounds = st.lists(st.integers(-50, 50), min_size=2, max_size=2).map(sorted)
    label = st.integers(0, len(probs) - 1)
    optional = {
        "group": st.text(max_size=4), "timestamp_index": st.integers(),
        "is_ood": st.booleans(), "perturbation_pair_id": st.text(max_size=4),
        "noise_pair_id": st.text(max_size=4),
        "latency_pair_id": st.text(max_size=4),
        "segment_bounds": bounds, "ref_segment_bounds": bounds,
        "plausible_labels": st.lists(label, max_size=3),
        "annotations": _ANNOTATIONS}
    return draw(st.fixed_dictionaries(
        {"id": st.text(min_size=1, max_size=4),
         "features": st.lists(_NUMBER, min_size=1, max_size=4),
         "predicted_label": st.just(int(np.argmax(probs))),
         "true_label": label, "class_probabilities": st.just(probs)},
        optional=optional))


def _row(corpus, i):
    """What the corpus holds of its row i, as JSON values, None where a
    field is unset."""
    row = {"id": corpus.ids[i], "features": corpus.features[i].tolist(),
           "class_probabilities": corpus.class_probabilities[i].tolist(),
           "predicted_label": int(corpus.predicted_label[i]),
           "true_label": int(corpus.true_label[i])}
    for name in ("timestamp_index", "is_ood", "segment_bounds",
                 "ref_segment_bounds", "plausible_labels"):
        value = getattr(corpus, name)[i]
        if name == "plausible_labels":
            value = np.flatnonzero(value)
        row[name] = (np.asarray(value).tolist() if corpus.present[name][i]
                     else None)
    for name, (values, codes) in corpus.strings.items():
        row[name] = values[codes[i]] if codes[i] >= 0 else None
    return row


def _held(rec, classes):
    """_row's dict of a per-record oracle record, its probabilities
    zero-padded to `classes` entries."""
    probs = rec.class_probabilities.tolist()
    row = {"id": rec.id, "features": rec.features.tolist(),
           "class_probabilities": probs + [0.0] * (classes - len(probs)),
           "predicted_label": rec.predicted_label,
           "true_label": rec.true_label,
           "timestamp_index": rec.timestamp_index, "is_ood": rec.is_ood}
    for name in ("segment_bounds", "ref_segment_bounds", "plausible_labels"):
        value = getattr(rec, name)
        row[name] = None if value is None else sorted(value)
    for name in STRING_COLUMNS:
        row[name] = (rec.annotations.get(name.split(".")[1])
                     if name.startswith("annotations.")
                     else getattr(rec, name))
    return row


@settings(max_examples=200, deadline=None)
@given(st.one_of(_trace_objects().map(lambda o: ("trace", o)),
                 _classification_objects().map(
                     lambda o: ("classification", o))))
def test_records_round_trip_through_json(case):
    kind, obj = case
    if kind == "classification":
        # a classification corpus keeps columns, not records: they hold
        # what the per-record decoder makes of the object
        corpus = corpora.classification_corpus([obj])
        assert _row(corpus, 0) == _held(
            ClassificationRecord.from_json_dict(obj),
            len(obj["class_probabilities"]))
        return
    rec = TraceRecord.from_json_dict(obj)
    written = corpora.json_value(rec)
    again = TraceRecord.from_json_dict(json.loads(json.dumps(written)))
    assert corpora.json_value(again) == written
    # every field that was given, but an empty annotation map, is written
    assert set(written) == {k for k, v in obj.items() if v != {}}


# --- read_json_chunked: read_json's result, a few characters at a time -------

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet="ab é€😀\"\\\n\t/\x01", max_size=6))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(alphabet="ab\"é", max_size=3), inner,
                      max_size=4),
    max_leaves=12)
_MEMBERS = st.dictionaries(st.sampled_from(("skipped", "dropped", "x", "")),
                           _JSON_VALUES, max_size=3)


def _indexed(i, element):
    return (i, element)


def _expected(path):
    """read_json's value, each element of a top-level "outcomes" array
    paired with its index, as read_json_chunked with _indexed gives it."""
    doc = read_json(path)
    if type(doc) is dict and type(doc.get("outcomes")) is list:
        doc["outcomes"] = list(enumerate(doc["outcomes"]))
    return doc


def _chunked(path, chars, monkeypatch, item=_indexed):
    """read_json_chunked at `chars` characters a read; a valid file must
    not fall back to the whole-file reader."""
    monkeypatch.setattr("pathrisk.records._CHUNK_CHARS", chars)
    monkeypatch.setattr("pathrisk.records.read_json", None)
    try:
        return read_json_chunked(path, "outcomes", item)
    finally:
        monkeypatch.undo()


@settings(max_examples=150, deadline=None)
@given(_MEMBERS, st.lists(_JSON_VALUES, max_size=6), _MEMBERS,
       st.sampled_from((None, 0, 1, 2)), st.booleans(),
       st.integers(1, 7))
def test_chunked_reader_equals_the_whole_file_reader(
        tmp_path_factory, before, items, after, indent, ascii_only, chars):
    doc = {**before, "outcomes": items, **after}
    path = tmp_path_factory.getbasetemp() / "chunked.json"
    separators = (",", ":") if indent is None else (",", ": ")
    path.write_text(json.dumps(doc, indent=indent, separators=separators,
                               ensure_ascii=ascii_only), encoding="utf-8")
    expected = _expected(path)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert _chunked(path, chars, monkeypatch) == expected


@pytest.mark.parametrize("text", [
    '{}', ' {"outcomes": []} ', '{"outcomes":[1.5e-07,-0.25,12,true]}',
    '{"outcomes": [1, 2], "outcomes": [3]}',   # the last value wins
    '{"outcomes": {}}', '{"a": [1, 2], "outcomes": "text"}',
    '{"skipped": {"x": "\\u00e9\\"\\\\"}, '
    '"outcomes": [{"e": "\\ud83d\\ude00"}]}',
    '{\r\n"outcomes" :\t[ 1 ,\n2 ]\r\n}\n\n'])
def test_chunked_reader_edges(tmp_path, monkeypatch, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    expected = _expected(path)
    for chars in range(1, 8):
        assert _chunked(path, chars, monkeypatch) == expected


def test_chunked_reader_splits_numbers_at_every_offset(tmp_path,
                                                       monkeypatch):
    # every character of every number falls at a chunk boundary once
    numbers = [-1.25e-07, 1e+300, 0.1, -0.0, 123456789012345678901, 5e-324]
    text = json.dumps({"outcomes": numbers, "skipped": numbers[::-1]},
                      separators=(",", ":"))
    path = tmp_path / "numbers.json"
    path.write_text(text)
    for chars in range(1, 12):
        loaded = _chunked(path, chars, monkeypatch,
                          item=lambda i, element: element)
        assert loaded == {"outcomes": numbers, "skipped": numbers[::-1]}
        assert [math.copysign(1.0, x) for x in loaded["outcomes"]] == \
            [math.copysign(1.0, x) for x in numbers]


@pytest.mark.parametrize("text,message", [
    ('{"outcomes": [{"a": 1}, {"a": 2', "Expecting"),   # truncated
    ('{"outcomes": [1, 2]} {}', "Extra data"),
    ('{"outcomes": [1, 2]}]', "Extra data"),
    ('{"outcomes": [1, 2,]}', "Expecting value"),
    ('{"outcomes": [1 2]}', "Expecting ',' delimiter"),
    ('{"a" 1}', "Expecting ':' delimiter"),
    ('{"a": 1,}', "Expecting property name"),
    ('{"outcomes": [1.5e]}', "Expecting ',' delimiter"),
    ('', "Expecting value"),
    ('\ufeff{"outcomes": []}', "Unexpected UTF-8 BOM")])
def test_chunked_reader_reports_malformed_json_as_read_json_does(
        tmp_path, monkeypatch, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError) as whole:
        read_json(path)
    assert str(whole.value).startswith(f"{path}: malformed JSON (")
    assert message in str(whole.value)
    monkeypatch.setattr("pathrisk.records._CHUNK_CHARS", 3)
    with pytest.raises(CorpusError) as chunked:
        read_json_chunked(path, "outcomes", _indexed)
    assert str(chunked.value) == str(whole.value)


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text", ['{"outcomes": ' + _DEEP + '}',
                                  '{"outcomes": [1, ' + _DEEP + ']}'],
                         ids=["member", "element"])
def test_json_nested_too_deep_is_a_corpus_error(tmp_path, monkeypatch,
                                                 text):
    # json's decoder raises RecursionError past the interpreter's limit
    path = tmp_path / "deep.json"
    path.write_text(text)
    monkeypatch.setattr("pathrisk.records._CHUNK_CHARS", 1000)
    for read in (read_json, lambda p: read_json_chunked(p, "outcomes",
                                                        _indexed)):
        with pytest.raises(CorpusError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: JSON nested too deep to decode"


@pytest.mark.parametrize("schema", ["trace", "classification"])
def test_a_line_nested_too_deep_is_a_corpus_error(tmp_path, schema):
    path = tmp_path / "deep.jsonl"
    first = (corpora.demo_trace_corpus()[0] if schema == "trace"
             else corpora.demo_classification_rows()[0])
    path.write_text(json.dumps(corpora.json_value(first)) + "\n\n" + _DEEP)
    with pytest.raises(CorpusError) as exc:
        load_trace_corpus(path, schema)
    assert str(exc.value) == \
        f"{path}: line 3: JSON nested too deep to decode"


def test_chunked_reader_counts_lines_from_the_start_of_the_file(
        tmp_path, monkeypatch):
    # the bad element sits on line 42, long after the first chunk
    lines = ['{"outcomes": ['] + [f' {{"a": {i}}},' for i in range(40)]
    lines += [' {"a": 40 "b"}', ']}']
    path = tmp_path / "bad.json"
    path.write_text("\n".join(lines))
    monkeypatch.setattr("pathrisk.records._CHUNK_CHARS", 5)
    with pytest.raises(CorpusError) as exc:
        read_json_chunked(path, "outcomes", _indexed)
    assert str(exc.value) == (f"{path}: malformed JSON (Expecting ',' "
                              f"delimiter, line 42)")


def test_chunked_reader_reports_bad_utf8_as_read_json_does(tmp_path,
                                                          monkeypatch):
    # the byte's position counts from the start of the file, not the chunk
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"outcomes": [' + b'1, ' * 5000 + b'"\xff"]}')
    with pytest.raises(CorpusError) as whole:
        read_json(path)
    monkeypatch.setattr("pathrisk.records._CHUNK_CHARS", 5)
    with pytest.raises(CorpusError) as chunked:
        read_json_chunked(path, "outcomes", _indexed)
    assert str(chunked.value) == str(whole.value) == (
        f"{path}: line 1: not UTF-8 ('utf-8' codec can't decode byte 0xff "
        f"in position 15015: invalid start byte)")


@pytest.mark.parametrize("bad,reason", [
    (b"\xff", "byte 0xff in position {}: invalid start byte"),
    # a surrogate code point, which UTF-8 does not encode
    (b"\xed\xa0\x80", "byte 0xed in position {}: invalid continuation byte")],
    ids=["0xff", "surrogate"])
@pytest.mark.parametrize("schema", ["trace", "classification", "json"])
def test_bytes_that_are_not_utf8_name_the_file_and_the_line(tmp_path,
                                                           schema, bad,
                                                           reason):
    # the first line is valid UTF-8 but not ASCII, the third holds the bad
    # bytes in a string; a corpus line's position counts from the start of
    # the line
    first = corpora.json_value({
        "trace": corpora.demo_trace_corpus()[0],
        "classification": corpora.demo_classification_rows()[0],
        "json": {"entries": []}}[schema])
    first["id"] = "é"
    head = json.dumps(first, ensure_ascii=False).encode() + b"\n\n"
    path = tmp_path / "bad.jsonl"
    path.write_bytes(head + b'{"id": "r' + bad + b'1"}\n')
    with pytest.raises(CorpusError) as exc:
        if schema == "json":
            read_json(path)
        else:
            load_trace_corpus(path, schema)
    # read_json decodes the whole file at once
    position = (len(head) if schema == "json" else 0) + 9
    assert str(exc.value) == (f"{path}: line 3: not UTF-8 ('utf-8' codec "
                              f"can't decode {reason.format(position)})")


@pytest.mark.parametrize("schema", ["trace", "classification"])
def test_a_carriage_return_ends_a_corpus_line(tmp_path, schema):
    # "\r\n" and a lone "\r" end a line, as "\n" does
    rows = [corpora.json_value(row) for row in (
        corpora.demo_trace_corpus() if schema == "trace"
        else corpora.demo_classification_rows())[:3]]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\r\n".join(json.dumps(r).encode() for r in rows)
                     + b"\r" + json.dumps(rows[0]).encode() + b"\r")
    with pytest.raises(CorpusError) as exc:
        load_trace_corpus(path, schema)
    assert str(exc.value).startswith(
        f"line 4, record {rows[0]['id']!r}, field 'id': duplicate id")


def test_chunked_reader_gives_a_top_level_array_as_is(tmp_path, monkeypatch):
    # read_json's value, no element handed to item; the caller's
    # decode_object then rejects it
    path = tmp_path / "array.json"
    path.write_text('[{"outcomes": []}, 1]')
    monkeypatch.setattr("pathrisk.records._CHUNK_CHARS", 4)
    assert read_json_chunked(path, "outcomes", _indexed) == \
        [{"outcomes": []}, 1]


def test_chunked_reader_stops_at_the_first_element_item_rejects(
        tmp_path, monkeypatch):
    # each element reaches item as it is parsed: the file's later fault
    # is never read
    path = tmp_path / "doc.json"
    path.write_text('{"outcomes": [0, 1, 2, 3], "x": [oops]}')
    seen = []

    def item(i, element):
        seen.append((i, element))
        if element == 2:
            raise CorpusError(f"outcomes[{i}] rejected")
        return element

    monkeypatch.setattr("pathrisk.records._CHUNK_CHARS", 3)
    with pytest.raises(CorpusError, match=r"^outcomes\[2\] rejected$"):
        read_json_chunked(path, "outcomes", item)
    assert seen == [(0, 0), (1, 1), (2, 2)]
