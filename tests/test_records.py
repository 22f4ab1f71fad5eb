import json
import math

import numpy as np
import pytest

from pathrisk.records import (CausalFixture, ClassificationRecord,
                              CorpusError, KnowledgeBase,
                              RecordValidationError, TraceRecord,
                              load_trace_corpus, save_trace_corpus)
from pathrisk.registry import validate_corpus
from pathrisk import fixtures


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
    records = (fixtures.demo_trace_corpus()
               + fixtures.generative_fixture("semantic_drift", True)["records"])
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
    assert not report.is_available("delusion", "a")
    assert "prob_truth_given_input" in report.missing["delusion"]["a"]


def test_validation_matrix_full_record():
    bundle = fixtures.generative_fixture("delusion", True)
    report = validate_corpus(bundle["records"])
    rid = bundle["records"][0].id
    assert report.is_available("delusion", rid)
    assert report.is_available("hallucination", rid) is False  # no flag


def test_validation_matrix_wrong_record_kind():
    recs = fixtures.discriminative_fixture("calibration_failure", True)
    report = validate_corpus(recs)
    for detector in ("delusion", "hallucination", "bluffing"):
        assert report.available[detector] == ()
    assert len(report.available["calibration_failure"]) == len(recs)
    # one shared tuple per distinct set of missing fields
    lacking = [fields for detector in report.missing.values()
               for fields in detector.values()]
    assert len(lacking) >= 21 * len(recs)
    assert len({id(fields) for fields in lacking}) == len(set(lacking))


def test_validation_order_independent(rng):
    records = fixtures.demo_trace_corpus()
    report_a = validate_corpus(records)
    shuffled = list(records)
    rng.shuffle(shuffled)
    report_b = validate_corpus(shuffled)
    for detector in report_a.available:
        assert set(report_a.available[detector]) == \
            set(report_b.available[detector])
        assert report_a.missing[detector] == report_b.missing[detector]


def test_knowledge_base_invariants():
    with pytest.raises(CorpusError, match="unique"):
        KnowledgeBase(entries=(("a", np.array([1.0])),
                               ("a", np.array([2.0]))))
    with pytest.raises(CorpusError, match="mixed"):
        KnowledgeBase(entries=(("a", np.array([1.0])),
                               ("b", np.array([1.0, 2.0]))))


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


def test_unknown_schema_rejected(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text("")
    with pytest.raises(CorpusError, match="schema"):
        load_trace_corpus(path, "audio")
