import dataclasses
import gc
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_validation
from pathrisk.records import (CausalFixture, ClassificationRecord,
                              CorpusError, KnowledgeBase,
                              RecordValidationError, TraceRecord,
                              load_causal_fixtures, load_knowledge_base,
                              load_trace_corpus, read_json,
                              read_json_chunked, save_trace_corpus)
from pathrisk import registry
from pathrisk.registry import (DISCRIMINATIVE_DETECTORS, GENERATIVE_DETECTORS,
                               REGISTRY, validate_corpus)
import corpora


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
    assert load_trace_corpus(path, "classification") == []


def test_classification_record_accepted(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_cls_obj()])
    [rec] = load_trace_corpus(path, "classification")
    assert rec.predicted_label == 0
    assert rec.confidence == 0.6


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
    rec = ClassificationRecord(
        id="t", features=np.zeros(1), predicted_label=0, true_label=1,
        class_probabilities=np.array([0.5, 0.5]))
    rec.validate()   # predicted 0 is the tie-broken argmax
    bad = ClassificationRecord(
        id="t2", features=np.zeros(1), predicted_label=1, true_label=1,
        class_probabilities=np.array([0.5, 0.5]))
    with pytest.raises(RecordValidationError):
        bad.validate()


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


def test_round_trip_preserves_semantic_content(tmp_path):
    records = (corpora.demo_trace_corpus()
               + corpora.generative_fixture("semantic_drift", True)["records"])
    path = tmp_path / "rt.jsonl"
    save_trace_corpus(path, records)
    reloaded = load_trace_corpus(path, "trace")
    assert len(reloaded) == len(records)
    for old, new in zip(records, reloaded):
        assert old.to_json_dict() == new.to_json_dict()


def test_validation_matrix_missing_field():
    rec = TraceRecord(id="a", input_embedding=np.array([1.0]),
                      output_embedding=np.array([1.0]),
                      prob_output_given_input=0.9)
    report = validate_corpus([rec])
    assert "a" not in report.available["delusion"]
    assert report.missing["delusion"] == {("prob_truth_given_input",): ("a",)}


def test_validation_matrix_full_record():
    bundle = corpora.generative_fixture("delusion", True)
    report = validate_corpus(bundle["records"])
    rid = bundle["records"][0].id
    assert rid in report.available["delusion"]
    assert rid not in report.available["hallucination"]  # no flag


def test_validation_matrix_wrong_record_kind():
    recs = corpora.discriminative_fixture("calibration_failure", True)
    report = validate_corpus(recs)
    for detector in ("delusion", "hallucination", "bluffing"):
        assert report.available[detector] == ()
        assert report.missing[detector] == {}
        assert report.not_applicable[detector] == \
            "<requires a trace record>"
    assert set(report.not_applicable) == set(GENERATIVE_DETECTORS)
    assert len(report.available["calibration_failure"]) == len(recs)
    # one group per distinct set of missing fields
    expected = loop_validation(recs)
    for name in DISCRIMINATIVE_DETECTORS:
        distinct = set(expected[name].values()) - {()}
        assert set(report.missing[name]) == distinct


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
    for detector in report_a.available:
        assert set(report_a.available[detector]) == \
            set(report_b.available[detector])
        assert {k: set(v) for k, v in report_a.missing[detector].items()} \
            == {k: set(v) for k, v in report_b.missing[detector].items()}


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


def _gate_shaped_records(n):
    return [ClassificationRecord.from_json_dict(row)
            for row in _gate_shaped_rows(n)]


def _partly_missing(records, seed):
    """The records with a random subset of their optional fields unset."""
    rng = np.random.default_rng(seed)
    optional = [f.name for f in dataclasses.fields(records[0])
                if f.default is None]
    out = []
    for rec in records:
        unset = {name: None for name in optional if rng.random() < 0.3}
        if rng.random() < 0.3:
            unset["annotations"] = {}
        out.append(dataclasses.replace(rec, **unset))
    return out


def _regrouped(report, records):
    """The report as {detector: {record id: lacking fields}}, checking on
    the way that it accounts for every record exactly once."""
    ids = [r.id for r in records]
    out = {}
    for name, info in REGISTRY.items():
        if name in report.not_applicable:
            kind = "trace" if name in GENERATIVE_DETECTORS \
                else "classification"
            assert report.not_applicable[name] == f"<requires a {kind} record>"
            assert report.available[name] == () and not report.missing[name]
            out[name] = {rid: (report.not_applicable[name],) for rid in ids}
            continue
        table = dict.fromkeys(report.available[name], ())
        # ids keep corpus order within each list
        for group in (report.available[name], *report.missing[name].values()):
            members = set(group)
            assert list(group) == [rid for rid in ids if rid in members]
        for fields, group in report.missing[name].items():
            assert fields and group
            table.update(dict.fromkeys(group, fields))
        assert len(report.available[name]) + sum(
            map(len, report.missing[name].values())) == len(ids)
        assert set(table) == set(ids)
        out[name] = table
    return out


@pytest.mark.parametrize("corpus", [
    "trace", "classification", "mixed", "partly-missing-trace",
    "partly-missing-classification", "empty"])
def test_grouped_report_equals_the_per_pair_loop(corpus):
    # every generative fixture: records that carry different field sets
    trace = corpora.demo_trace_corpus() + [
        rec for name in sorted(GENERATIVE_DETECTORS)
        for positive in (True, False)
        for rec in corpora.generative_fixture(name, positive)["records"]]
    classification = _gate_shaped_records(120)
    records = {"trace": trace, "classification": classification,
               "mixed": trace + classification,
               "partly-missing-trace": _partly_missing(trace, 0),
               "partly-missing-classification":
                   _partly_missing(classification, 1),
               "empty": []}[corpus]
    report = validate_corpus(records)
    expected = loop_validation(records)
    assert report.record_count == len(records)
    assert _regrouped(report, records) == expected
    for name in REGISTRY:
        for rid, fields in expected[name].items():
            assert (rid in report.available.get(name, ())) == (fields == ())
    # not applicable exactly when no record is of the detector's kind
    kinds = {type(r) for r in records}
    assert set(report.not_applicable) == (
        set() if not records
        else set(GENERATIVE_DETECTORS) if TraceRecord not in kinds
        else set(DISCRIMINATIVE_DETECTORS) if ClassificationRecord not in kinds
        else set())


def test_validation_takes_each_record_once(monkeypatch):
    # one presence pattern per record, shared by every record that has the
    # same fields, where the per-pair loop checked the fields once per
    # (detector, record) pair
    calls = []
    real = registry._presence

    def counted(record):
        calls.append(record.id)
        return real(record)

    monkeypatch.setattr(registry, "_presence", counted)
    records = (_partly_missing(_gate_shaped_records(60), 3)
               + corpora.demo_trace_corpus())
    report = validate_corpus(records)
    assert calls == [r.id for r in records]
    monkeypatch.undo()
    assert _regrouped(report, records) == loop_validation(records)


def test_report_json_lists_counts_and_ids():
    records = _partly_missing(_gate_shaped_records(60), 2)
    report = validate_corpus(records)
    doc = report.to_json_dict()
    assert doc["record_count"] == 60
    assert list(doc["detectors"]) == list(REGISTRY)
    for name, entry in doc["detectors"].items():
        if name in GENERATIVE_DETECTORS:
            assert entry == {"not_applicable": "<requires a trace record>",
                             "count": 60}
            continue
        assert entry["available"] == report.available[name]
        assert entry["available_count"] == len(entry["available"])
        assert entry["missing"] == {
            ",".join(fields): {"count": len(ids), "ids": ids}
            for fields, ids in report.missing[name].items()}


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
    # no per-record entries for the 21 generative detectors, and one id
    # list per group for the 14 discriminative ones
    assert held < 1_500_000
    assert len(report.not_applicable) == 21


def test_loaded_corpus_memory(gate_corpus, monkeypatch):
    def load():
        return load_trace_corpus(gate_corpus, "classification")

    records, held = _retained(load)
    assert len(records) == 5000
    del records
    # the same load with every string kept as the decoder made it
    with monkeypatch.context() as patch:
        patch.setattr(sys, "intern", lambda s: s)
        _, held_unshared = _retained(load)
    # about 1.3 MB of repeated annotation and group strings
    assert held < held_unshared - 1_000_000


def test_loaded_records_share_repeated_strings(tmp_path):
    path = tmp_path / "gate.jsonl"
    path.write_text("".join(json.dumps(row) + "\n"
                            for row in _gate_shaped_rows(24)))
    records = load_trace_corpus(path, "classification")
    a, b = records[0], records[12]    # same group, layout and train flag
    assert a.group == b.group and a.group is b.group
    for key, value in a.annotations.items():
        [other_key] = [k for k in b.annotations if k == key]
        assert other_key is key
        if b.annotations[key] == value:
            assert b.annotations[key] is value
    trace = tmp_path / "trace.jsonl"
    save_trace_corpus(trace, corpora.demo_trace_corpus()
                      + corpora.generative_fixture("semantic_drift",
                                                   True)["records"])
    shared = {}
    for rec in load_trace_corpus(trace, "trace"):
        for key, value in rec.annotations.items():
            assert shared.setdefault(key, key) is key
            assert shared.setdefault(("value", value), value) is value


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
    ({"entity_id": "b"}, RecordValidationError,
     "entry 1, record 'b', field 'embedding': missing mandatory field"),
    ({"embedding": [0.0, 1.0]}, RecordValidationError,
     "entry 1, field 'entity_id': missing mandatory field"),
    ({"entity_id": "b", "embedding": []}, RecordValidationError,
     "record 'b', field 'embedding': expected a nonempty vector"),
    ({"entity_id": "b", "embedding": [[0.0, 1.0]]}, RecordValidationError,
     "record 'b', field 'embedding': expected a nonempty vector"),
    ({"entity_id": "b", "embedding": [0.0, math.nan]}, RecordValidationError,
     "record 'b', field 'embedding': non-finite entries"),
    ({"entity_id": "b", "embedding": [0.0, "x"]}, RecordValidationError,
     "record 'b', field 'embedding': expected a nonempty vector of numbers"),
    ({"entity_id": "b", "embedding": [0.0, 1.0, 2.0]}, CorpusError,
     r"knowledge base embeddings have mixed lengths \[2, 3\]")])
def test_knowledge_base_file_errors(tmp_path, last, error, message):
    with pytest.raises(error, match=message) as info:
        load_knowledge_base(_kb_file(tmp_path, last))
    assert type(info.value) is error


def test_knowledge_base_file_round_trip(tmp_path):
    kb = corpora.standard_kb()
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(kb.to_json_dict()))
    loaded = load_knowledge_base(path)
    assert loaded.source_tag == kb.source_tag
    assert [e for e, _ in loaded.entries] == [e for e, _ in kb.entries]
    assert np.array_equal(loaded.embedding_matrix(), kb.embedding_matrix())


def test_knowledge_base_is_read_in_chunks(tmp_path, monkeypatch):
    # a well-formed file never reaches the whole-file reader
    kb = corpora.standard_kb()
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(kb.to_json_dict()))
    monkeypatch.setattr("pathrisk.records.read_json", None)
    for chars in (3, 1 << 16):
        monkeypatch.setattr("pathrisk.records._CHUNK_CHARS", chars)
        loaded = load_knowledge_base(path)
        assert loaded.source_tag == kb.source_tag
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
    assert rec.to_json_dict() == line and rec.annotations == {}
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps({"source_tag": None, "entries": [
        {"entity_id": "e", "embedding": [1.0, 0.0]}]}))
    assert load_knowledge_base(kb).source_tag == ""
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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMBER = _FINITE | st.integers(-10**6, 10**6)
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


@settings(max_examples=200, deadline=None)
@given(st.one_of(_trace_objects().map(lambda o: (TraceRecord, o)),
                 _classification_objects().map(
                     lambda o: (ClassificationRecord, o))))
def test_records_round_trip_through_json(case):
    cls, obj = case
    rec = cls.from_json_dict(obj)
    again = cls.from_json_dict(json.loads(json.dumps(rec.to_json_dict())))
    assert again.to_json_dict() == rec.to_json_dict()
    # every field that was given, but an empty annotation map, is written
    assert set(rec.to_json_dict()) == {k for k, v in obj.items()
                                       if v != {}}


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
    with pytest.raises(UnicodeDecodeError) as whole:
        read_json(path)
    monkeypatch.setattr("pathrisk.records._CHUNK_CHARS", 5)
    with pytest.raises(UnicodeDecodeError) as chunked:
        read_json_chunked(path, "outcomes", _indexed)
    assert str(chunked.value) == str(whole.value)
    assert "position 15015" in str(whole.value)


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
