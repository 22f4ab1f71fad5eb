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
from pathrisk.registry import Family

NEAR_12TH_DECIMAL = st.builds(
    lambda k, nudge: (k + 0.5) * 1e-12 + nudge,
    st.integers(-10 ** 9, 10 ** 9), st.sampled_from((-1e-16, 0.0, 1e-16)))

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from((-0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324)),
    NEAR_12TH_DECIMAL,
    st.text(), st.text(alphabet="aé€😀\"\\\n\x00 ", max_size=6),
    st.sampled_from(tuple(Family)),
    st.builds(np.float64, st.floats()), st.builds(np.float32, st.floats(
        width=32)),
    st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
    st.builds(np.int32, st.integers(-2 ** 31, 2 ** 31 - 1)),
    st.builds(np.bool_, st.booleans()),
    hnp.arrays(st.sampled_from((np.float64, np.int64, np.bool_)),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                max_side=3)))

KEYS = st.one_of(st.integers(-3, 12), st.text(alphabet="01ab é", max_size=3))

DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=5)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS)
@example({1: "int key", "1": "str key"})
@example({"1": "str key", 1: "int key"})
@example({"b": [], "a": {}, "c": ()})
@example([-0.0, 0.1 + 5e-13, 1.0000000000005, np.array(-0.0)])
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
    # shaped like the audit's validation.json: one shared missing-field
    # tuple per record and detector
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


def test_csv_cells_name_non_finite_floats(tmp_path):
    path = tmp_path / "cells.csv"
    jsonio.write_csv(path, ("x",), [(math.nan,), (np.float64("nan"),),
                                    (math.inf,), (-math.inf,), (-0.0,),
                                    (0.1 + 4e-13,), (np.bool_(True),)])
    assert path.read_text().splitlines() == [
        "x", "nan", "nan", "inf", "-inf", "0", "0.1", "true"]
