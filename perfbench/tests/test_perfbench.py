"""Tests of the benchmark's generator and tracer.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import types
from collections import Counter
from pathlib import Path

import pytest

from generate import WORKLOADS, generate
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_files(workload, tmp_path):
    generate(workload, 5, tmp_path / "a")
    generate(workload, 5, tmp_path / "b")
    generate(workload, 6, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    other = _files(tmp_path / "c")
    assert first.keys() == other.keys()
    assert any(first[name] != other[name] for name in first
               if name != "expected.json")


@pytest.mark.parametrize("workload", ["trace_pairwise", "trace_wide_kb"])
def test_trace_workloads_score_every_generative_detector(workload, tmp_path):
    from pathrisk.generative import audit_generative
    from pathrisk.records import (load_causal_fixtures, load_knowledge_base,
                                  load_trace_corpus)
    from pathrisk.registry import GENERATIVE_DETECTORS
    expected = generate(workload, 3, tmp_path)
    result = audit_generative(
        load_trace_corpus(tmp_path / "corpus.jsonl"),
        kb=load_knowledge_base(tmp_path / "kb.json"),
        fixtures=load_causal_fixtures(tmp_path / "fixtures.json"))
    assert result.skipped == {}
    counts = Counter(o.pathology for o in result.outcomes)
    assert set(counts) == set(GENERATIVE_DETECTORS)
    assert counts == expected["outcomes"]


def test_classify_gate_scores_all_discriminative_detectors(tmp_path):
    from pathrisk.discriminative import audit_discriminative
    from pathrisk.records import load_trace_corpus
    from pathrisk.registry import DISCRIMINATIVE_DETECTORS
    expected = generate("classify_gate", 3, tmp_path)
    result = audit_discriminative(
        load_trace_corpus(tmp_path / "corpus.jsonl", schema="classification"))
    assert result.skipped == {}
    assert Counter(o.pathology for o in result.outcomes) == \
        expected["outcomes"]
    assert len(result.outcomes) == len(DISCRIMINATIVE_DETECTORS)
    adversarial = next(o for o in result.outcomes
                       if o.pathology == "adversarial_vulnerability")
    # every sixth pair is a perturbation pair, all within eps_adv
    assert int(adversarial.evidence["eligible_pairs"]) == \
        len(range(0, expected["params"]["records"] // 2, 6))


def _span(sid, name, parent, start, end):
    return {"id": sid, "name": name, "parent": parent, "start": start,
            "end": end}


def test_self_times_subtract_the_union_of_children():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 0, 3.0, 6.0),      # overlaps a: union counts once
        _span(3, "leaf", 1, 2.0, 3.0),
        _span(4, "c", 0, 8.0, 12.0),     # clipped to the parent's end
        _span(5, "a", None, 20.0, 21.5),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own["a"] == pytest.approx((3.0 - 1.0) + 1.5)
    assert own["b"] == pytest.approx(3.0)
    assert own["leaf"] == pytest.approx(1.0)
    assert own["c"] == pytest.approx(4.0)


def test_tracer_records_parents_and_restores_functions():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    module.leaf = lambda: None
    original = module.inner
    seen = []
    tracer.patch(tracer.timed(module.outer, "outer"), (module, "outer"))
    tracer.patch(tracer.timed(module.inner, lambda x: f"inner{x}",
                              lambda a, k, r, e: seen.append((a, r, e))),
                 (module, "inner"))
    tracer.patch(tracer.counted(module.leaf, "leaf_calls"), (module, "leaf"))
    assert module.outer(3) == 8
    module.leaf()
    tracer.restore()
    assert module.inner is original
    assert [(s["name"], s["parent"]) for s in tracer.spans] == \
        [("outer", None), ("inner3", 0)]
    assert seen == [((3,), 4, None)]
    assert tracer.counters["leaf_calls"] == 1
    assert self_times(tracer.spans)["outer"] == pytest.approx(2.0)


def test_benchmark_json_lists_the_traced_metrics():
    import layers
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {name: unit for name, (_, unit)
                in layers.layer_metrics(Tracer()).items()}
    produced["trace.overhead_ratio"] = "ratio"
    assert declared == produced
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
