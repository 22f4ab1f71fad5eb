import gc
import hashlib
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import canonical_json
from pathrisk import jsonio
from pathrisk.records import read_json
from pathrisk.registry import (AuditResult, DetectorOutcome,
                               load_outcome_files, pathology_ids)

NEAR_12TH_DECIMAL = st.builds(
    lambda k, nudge: (k + 0.5) * 1e-12 + nudge,
    st.integers(-10 ** 9, 10 ** 9), st.sampled_from((-1e-16, 0.0, 1e-16)))

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from((-0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324)),
    NEAR_12TH_DECIMAL,
    st.text(), st.text(alphabet="aé€😀\"\\\n\x00 ", max_size=6),
    st.sampled_from(("generative", "discriminative")),
    st.builds(np.float64, st.floats()), st.builds(np.float32, st.floats(
        width=32)),
    st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
    st.builds(np.int32, st.integers(-2 ** 31, 2 ** 31 - 1)),
    st.builds(np.bool_, st.booleans()),
    hnp.arrays(st.sampled_from((np.float64, np.int64, np.bool_)),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                max_side=3)))

KEYS = st.one_of(st.integers(-3, 12), st.text(alphabet="01ab é", max_size=3))


class _Reported:
    """An item that writes as the dict its to_json_dict() returns, as a
    DetectorOutcome does."""

    def __init__(self, body):
        self.body = body

    def to_json_dict(self):
        return self.body


DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
        st.dictionaries(KEYS, children, max_size=5).map(_Reported)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS)
@example({1: "int key", "1": "str key"})
@example({"1": "str key", 1: "int key"})
@example({"b": [], "a": {}, "c": ()})
@example([-0.0, 0.1 + 5e-13, 1.0000000000005, np.array(-0.0)])
@example(_Reported({"b": (_Reported({}), _Reported({1: 2.0})), "a": 1}))
def test_streamed_output_equals_two_pass_oracle(doc):
    expected = canonical_json(doc)
    assert jsonio.canonical_dumps(doc) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        jsonio.write_json(path, doc)
        assert path.read_bytes() == (expected + "\n").encode("ascii")


def test_unknown_type_raises_and_leaves_no_file(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError):
        jsonio.write_json(path, {"a": [1.0, {"b": {1, 2}}]})
    assert list(tmp_path.iterdir()) == []
    path.write_text("old\n")
    with pytest.raises(TypeError):
        jsonio.write_json(path, {"a": object()}, force=True)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "old\n"
    with pytest.raises(TypeError):
        jsonio.canonical_dumps(1j)


def test_existing_output_needs_force(tmp_path):
    path = tmp_path / "doc.json"
    jsonio.write_json(path, {"a": 1})
    with pytest.raises(jsonio.OutputExistsError):
        jsonio.write_json(path, {"a": 2})
    jsonio.write_json(path, {"a": 2}, force=True)
    assert path.read_text() == '{\n "a": 2\n}\n'


def test_write_holds_no_copy_of_the_document(tmp_path):
    # a large document of long id lists and a shared tuple per key, as
    # validation.json was when it listed every (record, detector) pair
    ids = tuple(f"rec-{i:06d}" for i in range(55_000))
    lacking = ("<requires a trace record>",)
    doc = {"record_count": len(ids),
           "detectors": {"a": {"available": ids,
                               "missing": {rid: lacking for rid in ids}}}}
    path = tmp_path / "validation.json"
    tracemalloc.start()
    try:
        jsonio.write_json(path, doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = path.stat().st_size
    assert written >= 4_000_000
    assert peak < written / 4


def _audit_result(n):
    outcomes = tuple(
        DetectorOutcome(pathology=pathology_ids()[i % 21],
                        unit=f"conv-{i // 8:05d},rec-{i:06d}",
                        severity=(i % 997) / 997, threshold=0.5,
                        evidence={"ratio": f"{i / 7:.12g}",
                                  "note": "similarity above s_hi"})
        for i in range(n))
    return AuditResult(outcomes=outcomes, skipped={}, dropped={})


def test_audit_outcomes_are_converted_as_they_are_written(tmp_path):
    # the audit hands its outcomes to the writer as they are, and their
    # evidence dicts by reference: only the outcome being written exists
    # as a dict, and no evidence is copied
    result = _audit_result(46_000)
    evidence = result.evidence_json_dict()
    columns = {name: iter(column) for name, column in evidence.items()}
    assert all(next(columns[o.pathology]) is o.evidence
               for o in result.outcomes)
    assert all(next(column, None) is None for column in columns.values())
    for name, doc, least in (("outcomes.json", result.to_json_dict(),
                              5_000_000),
                             ("evidence.json", evidence, 2_000_000)):
        path = tmp_path / name
        tracemalloc.start()
        try:
            jsonio.write_json(path, doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        written = path.stat().st_size
        assert written >= least
        assert peak < written / 20
        assert path.read_text() == canonical_json(doc) + "\n"


def test_loading_outcomes_holds_no_dict_tree(tmp_path):
    # each outcome is built as it is parsed, and the file (2.2 MB) is read
    # in 64 KiB chunks: the peak is the outcomes (about 1.6x the file's
    # size) plus a few chunks, where the whole text alone takes 1x and
    # json.load of the file 4.3x. The outcomes share one pathology string
    # and one threshold per detector, so each holds only its unit and
    # severity
    path = tmp_path / "outcomes.json"
    jsonio.write_json(path, _audit_result(20_000).to_json_dict())
    gc.collect()
    tracemalloc.start()
    try:
        loaded = load_outcome_files([path])
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == 20_000
    assert peak < 3 * path.stat().st_size
    assert peak - retained < 1 << 20
    assert len({id(o.pathology) for o in loaded}) == 21
    assert len({id(o.threshold) for o in loaded}) == 21


def _escaped_outcomes(n):
    """The outcomes of _audit_result(n), each unit led by escapes and
    non-ASCII text, which the reader must parse alike."""
    return tuple(
        DetectorOutcome(o.pathology, f"é \"{i}\"\\ 😀\n{o.unit}",
                        o.severity, o.threshold)
        for i, o in enumerate(_audit_result(n).outcomes))


def _loaded_in_chunks(path, monkeypatch, want):
    # a well-formed file is never read whole
    monkeypatch.setattr("pathrisk.records.read_json", None)
    for chars in range(1, 8):
        monkeypatch.setattr("pathrisk.records._CHUNK_CHARS", chars)
        assert load_outcome_files([path]) == want


@pytest.mark.parametrize("compact", [False, True])
def test_outcomes_load_alike_in_chunks_of_any_size(tmp_path, monkeypatch,
                                                   compact):
    outcomes = _escaped_outcomes(60)
    doc = AuditResult(outcomes=outcomes, skipped={"x": "ü"},
                      dropped={}).to_json_dict()
    path = tmp_path / "outcomes.json"
    if compact:
        path.write_text(json.dumps(
            {**doc, "outcomes": [o.to_json_dict() for o in outcomes]},
            separators=(",", ":"), ensure_ascii=False), encoding="utf-8")
    else:
        jsonio.write_json(path, doc)
    whole = read_json(path)
    thresholds = whole["firing_thresholds"]
    want = [DetectorOutcome.from_json_dict(obj, f"outcomes[{i}]", thresholds)
            for i, obj in enumerate(whole["outcomes"])]
    assert len(want) == 60
    _loaded_in_chunks(path, monkeypatch, want)


def test_outcomes_load_alike_in_either_member_order(tmp_path, monkeypatch):
    # the thresholds after the outcomes: each outcome is completed once
    # the file is read, and the loaded outcomes still share one pathology
    # string and one threshold per detector
    outcomes = _escaped_outcomes(60)
    doc = AuditResult(outcomes=outcomes, skipped={}, dropped={}).to_json_dict()
    path = tmp_path / "outcomes.json"
    path.write_text(json.dumps(
        {"outcomes": [o.to_json_dict() for o in outcomes],
         "firing_thresholds": doc["firing_thresholds"], "skipped": {},
         "dropped": {}}), encoding="utf-8")
    loaded = load_outcome_files([path])
    assert loaded == list(outcomes)
    assert len({id(o.pathology) for o in loaded}) == 21
    assert len({id(o.threshold) for o in loaded}) == 21
    _loaded_in_chunks(path, monkeypatch, loaded)


def test_csv_cells_name_non_finite_floats(tmp_path):
    path = tmp_path / "cells.csv"
    jsonio.write_csv(path, ("x",), [(math.nan,), (np.float64("nan"),),
                                    (math.inf,), (-math.inf,), (-0.0,),
                                    (0.1 + 4e-13,), (np.bool_(True),)])
    assert path.read_text().splitlines() == [
        "x", "nan", "nan", "inf", "-inf", "0", "0.1", "true"]


def test_file_digest_is_blake2b_512(tmp_path):
    path = tmp_path / "abc"
    path.write_bytes(b"abc")
    # RFC 7693, Appendix A: BLAKE2b-512("abc")
    assert jsonio.file_digest(path) == (
        "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1"
        "7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923")
    # a file read in more than one chunk
    data = bytes(range(256)) * 700
    path.write_bytes(data)
    assert jsonio.file_digest(path) == hashlib.blake2b(data).hexdigest()
