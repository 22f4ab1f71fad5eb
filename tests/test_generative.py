import dataclasses
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

import corpora
from pathrisk import cli, generative, metrics, registry
from pathrisk.generative import (Arity, DetectorError, GenerativeConfig,
                                 audit_generative, score)
from pathrisk.records import (KnowledgeBase, TraceRecord, _json_lines,
                              load_trace_corpus)
from pathrisk.registry import (ALIAS_GROUPS, GENERATIVE_DETECTORS,
                               DISCRIMINATIVE_DETECTORS,
                               distinct_pathology_count, pathology_ids,
                               validate_corpus)
import oracles
from conftest import random_orthogonal
from oracles import (every_prefix_semantic_warming, loop_cognitive_stereotypy,
                     loop_hypersignification, outcome_row)

GEN_IDS = sorted(GENERATIVE_DETECTORS)


def run_fixture(pathology, positive, cfg=GenerativeConfig()):
    bundle = corpora.generative_fixture(pathology, positive)
    result = audit_generative(bundle["records"], kb=bundle["kb"],
                              fixtures=bundle["causal_fixtures"], cfg=cfg)
    return [o for o in result.outcomes if o.pathology == pathology]


class TestRegistry:
    def test_counts(self):
        assert len(GENERATIVE_DETECTORS) == 21
        assert len(DISCRIMINATIVE_DETECTORS) == 14
        assert len(pathology_ids()) == 35
        assert distinct_pathology_count() == 34

    def test_alias_group(self):
        assert ALIAS_GROUPS == (("semantic_reheating", "semantic_warming"),)
        # the one group counts as one pathology; delusion is in no group
        assert distinct_pathology_count() == len(pathology_ids()) - 1
        assert not any("delusion" in group for group in ALIAS_GROUPS)


class TestFixturePolarity:
    @pytest.mark.parametrize("pathology", GEN_IDS)
    def test_positive_fires(self, pathology):
        outcomes = run_fixture(pathology, True)
        assert outcomes, f"{pathology} produced no outcome"
        assert any(o.fired for o in outcomes)

    @pytest.mark.parametrize("pathology", GEN_IDS)
    def test_negative_silent(self, pathology):
        outcomes = run_fixture(pathology, False)
        assert outcomes, f"{pathology} produced no outcome"
        assert not any(o.fired for o in outcomes)

    @pytest.mark.parametrize("pathology", GEN_IDS)
    def test_threshold_semantics(self, pathology):
        for positive in (True, False):
            for o in run_fixture(pathology, positive):
                assert o.fired == (o.severity >= o.threshold)
                assert 0.0 <= o.severity <= 1.0


class TestKnownSeverities:
    def test_delusion_log_ratio(self):
        [outcome] = run_fixture("delusion", True)
        # ln(0.9/0.01) / ln(100)
        assert outcome.severity == pytest.approx(
            math.log(90.0) / math.log(100.0), abs=1e-12)

    def test_delusion_requires_distinct_output(self):
        rec = TraceRecord(id="same", input_embedding=np.eye(4)[0],
                          output_embedding=np.eye(4)[0],
                          truth_embedding=np.eye(4)[0],
                          prob_output_given_input=0.9,
                          prob_truth_given_input=0.01)
        assert score("delusion", rec).severity == 0.0

    def test_exaggeration_equal_magnitudes_silent(self):
        [outcome] = run_fixture("exaggeration", False)
        assert outcome.severity == 0.0
        assert not outcome.fired

    def test_contextual_drift_distance_evidence(self):
        [outcome] = run_fixture("contextual_drift", True)
        assert outcome.severity == 1.0
        assert outcome.evidence["distance"] == "5"

    def test_causal_exact_match_severity_one(self):
        [outcome] = run_fixture("causal_inference_failure", True)
        assert outcome.severity == 1.0
        assert outcome.fired

    def test_hallucination_grounded_silent(self):
        [outcome] = run_fixture("hallucination", False)
        assert outcome.severity == 0.0

    @pytest.mark.parametrize("pathology,severity", [
        ("illusion", (1 + 3 / 5) / 2),
        ("uncanny_valley", (1 - 3 / 5) / 2),
        ("referential_hallucination", 1 / 4),
        ("semiotic_frankenstein", 2 * 1 / 5),
        # log(ratio) / (2 log bound) and distance / (2 epsilon), each at
        # its default bound
        ("delusion", math.log(0.625 / 0.0625) / (2 * math.log(10.0))),
        ("exaggeration", math.log(3.0 / 1.5) / (2 * math.log(2.0))),
        ("contextual_drift", 1.0 / (2 * 1.0))])
    def test_graded_fixture_scores_its_closed_form(self, pathology, severity):
        bundle = corpora.graded_fixtures()[pathology]
        result = audit_generative(bundle["records"], kb=bundle["kb"])
        assert [o.severity for o in result.outcomes
                if o.pathology == pathology] == [severity]
        assert 0.0 < severity < 1.0

    @pytest.mark.parametrize("pathology", ["delusion", "exaggeration",
                                           "contextual_drift"])
    def test_ratio_or_distance_at_its_bound_fires_at_one_half(self, pathology):
        # the module docstring's firing point: a log-ratio at its bound, and
        # contextual drift at distance epsilon, score exactly 0.5, their
        # firing threshold
        bundle = corpora.graded_fixtures()[pathology]
        [outcome] = [o for o in audit_generative(
            bundle["records"], kb=bundle["kb"]).outcomes
            if o.pathology == pathology]
        assert (outcome.severity, outcome.threshold, outcome.fired) == (
            0.5, 0.5, True)


class TestAudit:
    def test_empty_corpus_all_skipped(self):
        result = audit_generative([])
        assert result.outcomes == ()
        assert set(result.skipped) == set(GENERATIVE_DETECTORS)
        assert result.to_json_dict()["dropped"] == {}

    def test_determinism(self):
        bundle = corpora.generative_fixture("bluffing", True)
        kwargs = dict(kb=bundle["kb"], fixtures=bundle["causal_fixtures"])
        a = audit_generative(bundle["records"], **kwargs)
        b = audit_generative(bundle["records"], **kwargs)
        assert [outcome_row(o) for o in a.outcomes] == \
            [outcome_row(o) for o in b.outcomes]

    def test_result_carries_the_validation_report(self):
        records = corpora.demo_trace_corpus()
        result = audit_generative(records, kb=corpora.standard_kb(),
                                  fixtures=[corpora.demo_causal_fixture()])
        assert result.validation.to_json_dict() == \
            validate_corpus(records).to_json_dict()
        assert "validation" not in result.to_json_dict()

    def test_duplicate_ids_are_rejected(self):
        # the report names records by id, so an id must name one record
        records = corpora.demo_trace_corpus()
        bare = TraceRecord(id=records[0].id,
                           input_embedding=records[0].input_embedding,
                           output_embedding=records[0].output_embedding)
        with pytest.raises(ValueError, match="duplicate record id"):
            audit_generative(records + [bare])

    def test_outcomes_sorted(self):
        records = corpora.demo_trace_corpus()
        result = audit_generative(records, kb=corpora.standard_kb(),
                                  fixtures=[corpora.demo_causal_fixture()])
        keys = [o.sort_key() for o in result.outcomes]
        assert keys == sorted(keys)

    def test_skip_reasons_reported(self):
        bundle = corpora.generative_fixture("hallucination", True)
        result = audit_generative(bundle["records"])
        assert "no knowledge base supplied" in result.skipped["confabulation"]
        assert "no causal fixtures supplied" in \
            result.skipped["causal_inference_failure"]


    def test_failing_unit_does_not_stop_later_units(self):
        # r1 has 2 context vectors, contextual_drift needs drift_k + 1 = 4
        ctx = tuple(np.eye(4))
        records = [TraceRecord(id=f"r{i}", input_embedding=np.eye(4)[0],
                               output_embedding=np.eye(4)[1],
                               context_vectors=ctx[:2] if i == 1 else ctx)
                   for i in range(4)]
        result = audit_generative(records)
        scored = [o.unit for o in result.outcomes
                  if o.pathology == "contextual_drift"]
        assert scored == ["r0", "r2", "r3"]
        assert "contextual_drift" not in result.skipped
        assert list(result.dropped["contextual_drift"]) == ["r1"]
        assert "needs >= k+1 = 4" in result.dropped["contextual_drift"]["r1"]

    def test_dropped_corpus_unit_is_listed_and_skipped(self):
        # every demo record shares one input, so no pair qualifies
        records = corpora.demo_trace_corpus()
        result = audit_generative(records, kb=corpora.standard_kb(),
                                  fixtures=[corpora.demo_causal_fixture()])
        dropped = result.to_json_dict()["dropped"]
        assert sorted(dropped) == ["cognitive_stereotypy",
                                   "hypersignification"]
        for pathology, units in dropped.items():
            assert units == {"": result.skipped[pathology]}

    def test_detector_that_scores_nothing_is_skipped_and_dropped(self):
        # one conversation of 3 records: semantic_warming needs 4
        records = [TraceRecord(id=f"r{i}", input_embedding=np.eye(4)[0],
                               output_embedding=np.eye(4)[1],
                               style_embedding=np.eye(4)[i],
                               output_token_logprobs=(-0.1,),
                               annotations={"conversation_id": "c0"})
                   for i in range(3)]
        result = audit_generative(records)
        reason = result.dropped["semantic_warming"]["c0"]
        assert "needs >= 4 records" in reason
        assert result.skipped["semantic_warming"] == reason

    def test_mixed_style_lengths_drop_only_that_conversation(self):
        def record(i, conversation, dim):
            return TraceRecord(id=f"{conversation}r{i}",
                               input_embedding=np.eye(4)[0],
                               output_embedding=np.eye(4)[1],
                               style_embedding=np.eye(dim)[i % dim] + 0.1,
                               output_token_logprobs=(-0.1,),
                               annotations={"conversation_id": conversation})
        records = ([record(i, "c0", 4 if i < 2 else 5) for i in range(4)]
                   + [record(i, "c1", 4) for i in range(4)])
        result = audit_generative(records)
        reason = "semantic_warming: style embeddings have mixed lengths [4, 5]"
        assert result.dropped["semantic_warming"] == {"c0": reason}
        scored = [o.unit for o in result.outcomes
                  if o.pathology == "semantic_warming"]
        assert scored == ["c1"]


def _bundles():
    """(name, records, kb, fixtures) of every detector's two fixture
    bundles and the demo bundle, with and without its knowledge base."""
    for pathology in GEN_IDS:
        for positive in (True, False):
            b = corpora.generative_fixture(pathology, positive)
            yield (f"{pathology}-{positive}", b["records"], b["kb"],
                   b["causal_fixtures"])
    demo = corpora.demo_trace_corpus()
    yield "demo", demo, corpora.standard_kb(), [corpora.demo_causal_fixture()]
    yield "demo-no-kb", demo, None, [corpora.demo_causal_fixture()]


def _all_fixture_records():
    """The records of every bundle, once each, ids made distinct."""
    out = {}
    for name, records, _, _ in _bundles():
        for rec in records:
            out.setdefault(f"{name}:{rec.id}", corpora.json_value(rec))
    return [TraceRecord.from_json_dict(dict(row, id=rid))
            for rid, row in out.items()]


def _mutated(seed):
    """The records of every bundle, with seeded faults that the step must
    report as the whole-corpus audit does: optional fields and annotation
    keys left out, contextual_drift units with too few context vectors and
    referential_hallucination units that reference no entity, both
    dropped."""
    rng = np.random.default_rng(seed)
    rows = []
    for rec in _all_fixture_records():
        row = corpora.json_value(rec)
        for name in list(row):
            if name not in ("id", "input_embedding", "output_embedding") \
                    and rng.random() < 0.3:
                del row[name]
        for key in list(row.get("annotations", {})):
            if rng.random() < 0.3:
                del row["annotations"][key]
        if rng.random() < 0.3:
            row["context_vectors"] = [[1.0, 0.0, 0.0, 0.0]] * 2
        if rng.random() < 0.3:
            row["referenced_entities"] = []
        rows.append(TraceRecord.from_json_dict(row))
    return rows


def _audit_documents(result):
    """The audit's outcomes, skipped, dropped and validation.json, as JSON
    reads them back."""
    return json.loads(json.dumps(
        [[outcome_row(o) for o in result.outcomes], result.skipped,
         result.dropped, result.validation.to_json_dict()]))


# every field the pair, sequence and corpus detectors read, with the id and
# the annotations that name and group their units
_PASSED_ON = {"id", "annotations", "input_embedding", "output_embedding",
              "intent_embedding", "style_embedding", "output_token_logprobs"}


def _interleaved_conversations():
    """Turns of conversations "a", "b" and "c" interleaved in corpus order,
    with turns that carry no conversation_id, or an empty one, between
    them. Each turn has its own intent, or none: the first turn of "a"
    has none, and the one turn of "c" has none."""
    rng = np.random.default_rng(7)
    turns = [("a0", "a", False), ("b0", "b", True), ("n0", None, True),
             ("a1", "a", True), ("b1", "b", True), ("a2", "a", True),
             ("c0", "c", False), ("n1", "", True), ("b2", "b", True),
             ("a3", "a", True), ("n2", None, True), ("b3", "b", True)]
    return [TraceRecord(
        id=rid, input_embedding=rng.standard_normal(4),
        output_embedding=rng.standard_normal(4),
        intent_embedding=rng.standard_normal(4) if intent else None,
        annotations={} if conversation is None
        else {"conversation_id": conversation})
        for rid, conversation, intent in turns]


def _differential_cases():
    for name, records, kb, fixtures in _bundles():
        yield name, records, kb, fixtures
    yield "interleaved-conversations", _interleaved_conversations(), None, ()
    for seed in range(6):
        records = _mutated(seed)
        yield f"mutated-{seed}", records, corpora.standard_kb(), \
            [corpora.demo_causal_fixture()]
        yield f"mutated-{seed}-no-kb", records, None, ()


class TestRecordStep:
    """The audit scores the record-level detectors on each record as it
    is read and keeps only what the other detectors read; it must give
    what the whole-corpus audit gives."""

    @pytest.mark.parametrize("case", list(_differential_cases()),
                             ids=lambda case: case[0])
    def test_equals_the_whole_corpus_audit(self, case, tmp_path,
                                           monkeypatch):
        _, records, kb, fixtures = case
        path = tmp_path / "corpus.jsonl"
        corpora.write_input(path, records)
        whole = load_trace_corpus(path)
        outcomes, skipped, dropped = oracles.whole_corpus_audit(
            whole, kb, fixtures)
        expected = json.loads(json.dumps(
            [outcomes, skipped, dropped, oracles.loop_validation_json(whole)]))
        assert _audit_documents(audit_generative(
            whole, kb=kb, fixtures=fixtures)) == expected

        # the CLI's path: scored as each line is read; the records handed
        # on to the other detectors hold none of the record-only fields
        handed = []
        real = generative.score

        def watched(pathology, unit, *args, **kwargs):
            if registry.REGISTRY[pathology].arity in (
                    Arity.PAIR, Arity.SEQUENCE, Arity.CORPUS):
                handed.extend(unit)
            return real(pathology, unit, *args, **kwargs)

        monkeypatch.setattr(generative, "score", watched)
        step = generative.RecordStep(kb)
        read = load_trace_corpus(path, record=step)
        assert _audit_documents(audit_generative(
            read, fixtures=fixtures, step=step)) == expected
        for rec in handed + read:
            assert {f.name for f in dataclasses.fields(rec)
                    if getattr(rec, f.name) is not None} <= _PASSED_ON

    def test_keeps_one_intent_per_conversation(self, tmp_path):
        # semantic_drift reads the intent of a conversation's first turn
        # that carries its fields, and no other
        records = _interleaved_conversations()
        path = tmp_path / "corpus.jsonl"
        corpora.write_input(path, records)
        step = generative.RecordStep()
        read = load_trace_corpus(path, record=step)
        first = {}
        for rec in records:
            if rec.intent_embedding is not None:
                first.setdefault(rec.annotations.get("conversation_id", ""),
                                 rec)
        assert sorted(first) == ["", "a", "b"]
        # first is in corpus order, as read is
        held = [rec for rec in read if rec.intent_embedding is not None]
        assert [rec.id for rec in held] == [rec.id for rec in first.values()]
        for kept, rec in zip(held, first.values()):
            assert np.array_equal(kept.intent_embedding, rec.intent_embedding)
        # the audit drops the conversations seen once the load ends
        result = audit_generative(read, step=step)
        assert step.intents is None
        assert sorted(o.unit for o in result.outcomes
                      if o.pathology == "semantic_drift") == ["", "a", "b"]

    @pytest.mark.parametrize("through", ["audit_generative", "cli"])
    def test_the_knowledge_base_is_freed_when_the_load_ends(
            self, through, tmp_path, monkeypatch):
        # only record-level detectors read the knowledge base, and they
        # finish during the load: no pair, sequence or corpus unit may be
        # scored while it is still alive
        corpus, kb_path = tmp_path / "corpus.jsonl", tmp_path / "kb.json"
        corpora.write_input(corpus, corpora.demo_trace_corpus())
        corpora.write_input(kb_path, corpora.standard_kb())
        refs, alive = [], []
        real_load, real_score = cli.load_knowledge_base, generative.score

        def loading(path):
            kb = real_load(path)
            refs.append(weakref.ref(kb))
            return kb

        def watched(pathology, unit, *args, **kwargs):
            if registry.REGISTRY[pathology].arity in (
                    Arity.PAIR, Arity.SEQUENCE, Arity.CORPUS):
                alive.append(refs[0]() is not None)
            return real_score(pathology, unit, *args, **kwargs)

        monkeypatch.setattr(generative, "score", watched)
        if through == "cli":
            monkeypatch.setattr(cli, "load_knowledge_base", loading)
            out = tmp_path / "out"
            assert cli.main(["audit", "--corpus", str(corpus), "--kb",
                             str(kb_path), "--out", str(out)]) == 0
            outcomes = json.loads(
                (out / "outcomes.json").read_text())["outcomes"]
            scored = {o["pathology"] for o in outcomes}
        else:
            step = generative.RecordStep(loading(kb_path))
            scored = {o.pathology for o in audit_generative(
                load_trace_corpus(corpus, record=step), step=step).outcomes}
        assert alive and not any(alive)
        # the knowledge base was read: some detector matched against it
        assert scored & {name for name in GENERATIVE_DETECTORS
                         if registry.REGISTRY[name].needs_kb}

    def test_mutations_reach_every_kind_of_fault(self):
        # guards the test above: the mutated corpora must leave out fields,
        # and drop contextual_drift and referential_hallucination units
        missing = set()
        dropped = set()
        for seed in range(6):
            result = audit_generative(_mutated(seed),
                                      kb=corpora.standard_kb())
            dropped |= set(result.dropped)
            report = result.validation
            missing |= {report.lacks(i, name)
                        for i in range(report.record_count)
                        for name in GENERATIVE_DETECTORS} - {()}
        assert {"contextual_drift", "referential_hallucination"} <= dropped
        assert len(missing) >= 15

    @staticmethod
    def _wide_corpus(path, n=72, d=768, claims=8, context=4):
        """Write n records at dimension d that carry every vector field,
        in conversations of 8 turns; return a 16-entry knowledge base."""
        rng = np.random.default_rng(0)

        def vec():
            return [round(float(v), 6) for v in rng.standard_normal(d)]

        kb = KnowledgeBase(entries=tuple(
            (f"kb{i}", rng.standard_normal(d)) for i in range(16)))
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(n):
                handle.write(json.dumps({
                    "id": f"r{i}", "input_embedding": vec(),
                    "output_embedding": vec(), "truth_embedding": vec(),
                    "intent_embedding": vec(), "style_embedding": vec(),
                    "context_vectors": [vec() for _ in range(context)],
                    "claim_embeddings": [vec() for _ in range(claims)],
                    "referenced_entities": ["kb0", "ghost"],
                    "output_token_logprobs": [-0.5, -0.1],
                    "prob_output_given_input": 0.5,
                    "annotations": {"conversation_id": f"c{i // 8}"}}) + "\n")
        return kb

    def test_peak_stays_below_the_record_only_vectors(self, tmp_path):
        # 72 records at d = 768 with 8 claims and 4 context vectors each:
        # those vectors alone decode to 5.3 MB. The audit keeps only the
        # input, output and style vectors and one intent per conversation
        # (1.4 MB) and peaks at 2.2 MB on Python 3.11 (2.3 MB while each
        # line's text lived until the next line was read, 2.7 MB while its
        # parse tree did, 3.1 MB while it kept every turn's intent);
        # holding every record whole until the last detector ran, it
        # peaked at 9.2 MB
        n, d, claims, context = 72, 768, 8, 4
        path = tmp_path / "wide.jsonl"
        kb = self._wide_corpus(path, n, d, claims, context)
        record_only = n * (claims + context) * d * 8
        tracemalloc.start()
        try:
            step = generative.RecordStep(kb)
            result = audit_generative(load_trace_corpus(path, record=step),
                                      step=step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.outcomes) > 3 * n
        assert peak < record_only

    def test_the_load_holds_one_line_beyond_what_it_keeps(self, tmp_path):
        # the load peaks above what it returns and what the step holds by
        # about one line: its text, its parse tree or full record, and the
        # step's scoring. On Python 3.11, parsing and decoding one line
        # alone peaks at 0.55 MB and the load's excess is 1.0 times that;
        # it was 1.2 times while each line's text lived until the next line
        # was read, and 2.0 times while its parse tree and full record did
        path = tmp_path / "wide.jsonl"
        kb = self._wide_corpus(path)
        with open(path, encoding="utf-8") as handle:
            line = handle.readline()
        tracemalloc.start()
        try:
            TraceRecord.from_json_dict(json.loads(line))
            _, one_line = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            step = generative.RecordStep(kb)
            records = load_trace_corpus(path, record=step)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 72
        assert peak - held < 1.5 * one_line

    def test_a_record_is_freed_before_the_next_line_is_parsed(
            self, tmp_path, monkeypatch):
        # the step keeps no truth embedding, so each record's is freed with
        # the record; the parse-tree bound above is too coarse to see the
        # full record outlive its line
        path = tmp_path / "wide.jsonl"
        kb = self._wide_corpus(path, n=4, d=8)
        truths = []
        parse = json.loads

        def loads(line):
            assert all(truth() is None for truth in truths)
            return parse(line)

        step = generative.RecordStep(kb)

        def record(i, rec):
            truths.append(weakref.ref(rec.truth_embedding))
            return step(i, rec)

        monkeypatch.setattr(json, "loads", loads)
        assert len(load_trace_corpus(path, record=record)) == 4
        assert len(truths) == 4

    def test_no_line_is_held_across_the_yield(self, tmp_path):
        # with each parsed line dropped as soon as it is handed over, the
        # reader holds only its file buffers at each yield: at most 15 kB
        # on Python 3.11, and 150 kB while each line's text (136 kB) lived
        # until the next line was read
        path = tmp_path / "wide.jsonl"
        self._wide_corpus(path)
        text = len(path.read_text().splitlines()[0])
        held = []
        with open(path, encoding="utf-8",
                  errors="surrogateescape") as handle:
            lines = _json_lines(handle)
            tracemalloc.start()
            try:
                for _, obj in lines:
                    del obj
                    held.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
        assert len(held) == 72
        assert max(held) < text / 2


def _pair_corpus(seed, kind):
    """Records whose input/output pairs the pair detectors scan. "basis"
    draws every embedding from +-e_k, so many similarities tie exactly;
    "planted" copies some inputs (pairs the mask must exclude) and some
    outputs (exact ties on the output side)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 14))
    d = int(rng.integers(2, 6))
    if kind == "basis":
        signed = np.vstack([np.eye(d), -np.eye(d)])
        inputs = signed[rng.integers(0, 2 * d, size=n)]
        outputs = signed[rng.integers(0, 2 * d, size=n)]
    else:
        inputs = rng.standard_normal((n, d))
        outputs = rng.standard_normal((n, d))
        if kind == "planted":
            inputs[rng.integers(0, n, size=n // 2)] = inputs[0]
            outputs[rng.integers(0, n, size=n // 2)] = outputs[-1]
    return [TraceRecord(id=f"r{i:02d}", input_embedding=x,
                        output_embedding=y)
            for i, (x, y) in enumerate(zip(inputs, outputs))]


class TestPairDetectorsAgainstLoops:
    @pytest.mark.parametrize("kind", ["random", "planted", "basis"])
    @pytest.mark.parametrize("seed", range(40))
    def test_kernel_equals_double_loop(self, seed, kind, monkeypatch):
        records = _pair_corpus(seed, kind)
        # s_lo above 1 lets every pair qualify, itself included, so only
        # the strict upper triangle keeps a record from pairing with itself
        cases = [("cognitive_stereotypy", GenerativeConfig(),
                  loop_cognitive_stereotypy(records))]
        cases += [("hypersignification", GenerativeConfig(s_lo=s_lo),
                   loop_hypersignification(records, s_lo))
                  for s_lo in (GenerativeConfig().s_lo, 1.01)]
        # one block, then blocks of 1, 2 and 3 rows: a tie across a block
        # boundary, and a block whose every pair is excluded (the last
        # row's at least)
        for rows in (None, 1, 2, 3):
            if rows is not None:
                monkeypatch.setattr(generative, "_TILE_ELEMENTS",
                                    rows * len(records))
            for pathology, cfg, expected in cases:
                if expected is None:
                    with pytest.raises(DetectorError, match=pathology):
                        score(pathology, records, cfg)
                    continue
                outcome = score(pathology, records, cfg)
                assert outcome.severity == pytest.approx(expected[0],
                                                         abs=1e-12)
                assert outcome.evidence["witness_pair"] == expected[1]

    def test_basis_corpora_exercise_ties_and_the_mask(self):
        # guards the test above: some basis corpora must hold a tied
        # extreme, one tied across rows (so across 1-row blocks) and an
        # excluded pair, or the tie rule goes unchecked
        ties = ties_across_rows = excluded = 0
        for seed in range(40):
            records = _pair_corpus(seed, "basis")
            ins = np.array([r.input_embedding for r in records])
            outs = np.array([r.output_embedding for r in records])
            rows, cols = np.triu_indices(len(records), 1)
            in_sim = (ins @ ins.T)[rows, cols]
            out_sim = (outs @ outs.T)[rows, cols][in_sim < 1.0]
            excluded += int(np.any(in_sim == 1.0))
            if out_sim.size > 1:
                tied = rows[in_sim < 1.0][out_sim == out_sim.min()]
                ties += int(tied.size > 1)
                ties_across_rows += int(np.unique(tied).size > 1)
        assert ties >= 10 and ties_across_rows >= 10 and excluded >= 10

    def test_memory_is_one_block_not_the_gram_matrix(self):
        # the whole n x n output Gram matrix alone would take 128 MB
        rng = np.random.default_rng(0)
        n, d = 4000, 8
        records = [TraceRecord(id=f"r{i}", input_embedding=x,
                               output_embedding=y)
                   for i, (x, y) in enumerate(zip(
                       rng.standard_normal((n, d)),
                       rng.standard_normal((n, d))))]
        tracemalloc.start()
        try:
            outcome = score("cognitive_stereotypy", records,
                            GenerativeConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 <= outcome.severity < 0.5
        assert peak < 16_000_000

    @staticmethod
    def _one_block_peak(n, d):
        rng = np.random.default_rng(0)
        records = [TraceRecord(id=f"r{i}",
                               input_embedding=rng.standard_normal(d),
                               output_embedding=rng.standard_normal(d))
                   for i in range(n)]
        tracemalloc.start()
        try:
            score("cognitive_stereotypy", records, GenerativeConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_one_block_frees_the_inputs_before_the_outputs_are_stacked(self):
        # 72 records at d = 768 fit one block. The stacked input matrix is
        # freed before the output matrix is stacked, so at most two
        # matrices coexist; holding the inputs through the output block
        # made it three
        n, d = 72, 768
        assert self._one_block_peak(n, d) < 3 * n * d * 8

    def test_one_block_holds_one_stacked_matrix(self):
        # the block that covers every row is formed from two row slices,
        # each a gemm, where a copy of the whole stacked matrix kept a @ a.T
        # from running syrk: the peak fell from 980 kB (2.2 n d 8 bytes) to
        # 538 kB (1.2 n d 8), one stacked matrix and the n x n blocks
        n, d = 72, 768
        assert self._one_block_peak(n, d) < 1.5 * n * d * 8


def _warming_conversation(seed, length, dim, converging):
    """One conversation of random styles; when converging, the styles
    close in on one direction, so their redundancy rises."""
    rng = np.random.default_rng(seed)
    styles = rng.standard_normal((length, dim))
    if converging:
        styles = 3.0 * styles[0] + styles * np.geomspace(
            1.0, 0.05, length)[:, None]
    logprobs = rng.uniform(-1.0, 0.0, size=(length, 3))
    return [TraceRecord(id=f"w{t:02d}", input_embedding=np.eye(4)[0],
                        output_embedding=np.eye(4)[1], style_embedding=s,
                        output_token_logprobs=tuple(lp),
                        annotations={"conversation_id": "w"})
            for t, (s, lp) in enumerate(zip(styles, logprobs))]


def _counting(monkeypatch, names):
    """Count the calls of the `metrics` functions `names`, which the
    detectors look up on their module."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _real=getattr(metrics, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(metrics, name, counted)
    return calls


class TestSemanticWarmingWindow:
    @pytest.mark.parametrize("converging", [False, True])
    @pytest.mark.parametrize("ridge", [1e-6, 1.0])
    @pytest.mark.parametrize("window", [2, 5, 10])
    @pytest.mark.parametrize("length", [4, 5, 8, 40])
    def test_equals_every_prefix_oracle(self, monkeypatch, length, window,
                                        ridge, converging):
        records = _warming_conversation(length + window, length, 6,
                                        converging)
        cfg = GenerativeConfig(window=window, entropy_ridge=ridge)
        severity, evidence, undefined = every_prefix_semantic_warming(
            records, cfg)
        assert undefined == []
        calls = _counting(monkeypatch, ["avg_pairwise_similarity",
                                        "semantic_entropy"])
        outcome = score("semantic_warming", records, cfg)
        assert outcome.severity == severity
        assert dict(outcome.evidence) == evidence
        # one call per prefix in the window, of the T - 1 prefixes
        assert calls == dict.fromkeys(calls, min(window, length - 1))

    def test_both_polarities_are_covered(self):
        # guards the test above: it must see the detector fire and not
        fired = {score("semantic_warming",
                       _warming_conversation(length + window, length, 6,
                                             converging),
                       GenerativeConfig(window=window)).fired
                 for length in (4, 5, 8, 40) for window in (2, 5, 10)
                 for converging in (False, True)}
        assert fired == {False, True}

    def test_a_singular_prefix_before_the_window_is_not_formed(self):
        # d = 3 at ridge 0: the prefixes of 2 and 3 styles have a singular
        # covariance, and a window of 5 of the 7 prefixes starts at 4
        records = _warming_conversation(3, 8, 3, False)
        cfg = GenerativeConfig(window=5, entropy_ridge=0.0)
        severity, evidence, undefined = every_prefix_semantic_warming(
            records, cfg)
        assert undefined == [2, 3]
        result = audit_generative(records, cfg=cfg)
        assert "semantic_warming" not in result.dropped
        [outcome] = [o for o in result.outcomes
                     if o.pathology == "semantic_warming"]
        assert (outcome.severity, dict(outcome.evidence)) == \
            (severity, evidence)

    def test_a_singular_prefix_in_the_window_drops_the_conversation(self):
        records = _warming_conversation(3, 8, 3, False)
        cfg = GenerativeConfig(window=6, entropy_ridge=0.0)
        with pytest.raises(metrics.InsufficientDataError) as expected:
            every_prefix_semantic_warming(records, cfg)
        result = audit_generative(records, cfg=cfg)
        # the first prefix formed, of 3 styles, names its own size
        assert result.dropped["semantic_warming"] == {
            "w": str(expected.value)}
        assert "(got 3)" in str(expected.value)


class TestErrors:
    # the audit alone decides what a detector scores
    def test_missing_field_names_field(self):
        rec = TraceRecord(id="bare", input_embedding=np.eye(4)[0],
                          output_embedding=np.eye(4)[1])
        result = audit_generative([rec])
        assert result.skipped["delusion"] == \
            "no record carries the required fields"
        assert result.validation.lacks(0, "delusion") == (
            "prob_output_given_input", "prob_truth_given_input")

    def test_kb_detector_without_kb(self):
        bundle = corpora.generative_fixture("confabulation", True)
        result = audit_generative(bundle["records"])
        kb_detectors = {"confabulation", "simulated_authority",
                        "referential_hallucination", "semiotic_frankenstein"}
        assert {p for p, reason in result.skipped.items()
                if reason == "no knowledge base supplied"} == kb_detectors
        assert not kb_detectors & {o.pathology for o in result.outcomes}

    def test_validation_takes_each_record_once(self, monkeypatch):
        # the audit takes each record's fields once, in its per-record
        # step, not once per (detector, record) pair, and neither
        # validate_corpus nor any scorer checks again
        calls = []
        real = registry.presence

        def counted(record):
            calls.append(record.id)
            return real(record)

        monkeypatch.setattr(registry, "presence", counted)
        records = corpora.demo_trace_corpus()
        audit_generative(records, kb=corpora.standard_kb(),
                         fixtures=[corpora.demo_causal_fixture()])
        assert calls == [r.id for r in records]


class TestConfig:
    def test_override_changes_threshold(self):
        cfg = GenerativeConfig(delta=0.99)
        assert [o.threshold for o in run_fixture("delusion", True, cfg)] \
            == [0.5]
        outcomes = run_fixture("abductive_leap", True, cfg)
        assert [o.threshold for o in outcomes] == [0.99]
        assert not any(o.fired for o in outcomes)   # 0.95 < 0.99 now

    def test_margin_must_exceed_one(self):
        with pytest.raises(ValueError):
            GenerativeConfig(margin=1.0)

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            GenerativeConfig(alpha=0.5)

    @pytest.mark.parametrize("name,message", [
        ("margin", "margin must exceed 1"), ("alpha", "alpha must exceed 1"),
        ("epsilon", "epsilon must be positive")])
    def test_nan_is_rejected(self, name, message):
        # NaN fails every comparison, so each check asks what must hold
        with pytest.raises(ValueError, match=message):
            GenerativeConfig(**{name: math.nan})

    @pytest.mark.parametrize("name,value", [
        ("mi_bins", 1), ("mi_bins", 2.0), ("mi_bins", True), ("seed", -1)])
    def test_mi_settings_are_integers_in_range(self, name, value):
        # bluffing's MI estimate needs two bins per axis, and
        # random.Random would take -1 for the seed 1
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GenerativeConfig(**{name: value})


class TestSemanticDrift:
    def _outcomes(self, records):
        result = audit_generative(records)
        return ([outcome_row(o) for o in result.outcomes
                 if o.pathology == "semantic_drift"],
                result.dropped.get("semantic_drift", {}))

    def test_only_the_window_is_formed(self, monkeypatch):
        records = corpora.generative_fixture("semantic_drift", True)["records"]
        calls = []
        real = generative.sim

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(generative, "sim", counted)
        generative.score("semantic_drift", records)
        assert len(records) == 6 and len(calls) == GenerativeConfig().window

    def test_a_zero_output_before_the_window_is_scored(self):
        # the conversation was dropped when its first turn, which the
        # slope never reads, had a zero output embedding
        records = corpora.generative_fixture("semantic_drift", True)["records"]
        zero = np.zeros_like(records[0].output_embedding)
        before = [dataclasses.replace(records[0], output_embedding=zero)]
        assert self._outcomes(before + records[1:]) == \
            (self._outcomes(records)[0], {})
        inside = [dataclasses.replace(records[-1], output_embedding=zero)]
        outcomes, dropped = self._outcomes(records[:-1] + inside)
        assert outcomes == [] and list(dropped) == ["drift-pos"]


def _rotate_record(rec, q):
    def rot(v):
        return None if v is None else q @ v

    return TraceRecord(
        id=rec.id, input_embedding=rot(rec.input_embedding),
        output_embedding=rot(rec.output_embedding),
        truth_embedding=rot(rec.truth_embedding),
        intent_embedding=rot(rec.intent_embedding),
        context_vectors=None if rec.context_vectors is None
        else tuple(rot(c) for c in rec.context_vectors),
        output_token_logprobs=rec.output_token_logprobs,
        prob_output_given_input=rec.prob_output_given_input,
        prob_truth_given_input=rec.prob_truth_given_input,
        in_real_manifold=rec.in_real_manifold,
        in_train_set=rec.in_train_set,
        referenced_entities=rec.referenced_entities,
        claim_embeddings=None if rec.claim_embeddings is None
        else tuple(rot(c) for c in rec.claim_embeddings),
        style_embedding=rot(rec.style_embedding),
        discomfort_score=rec.discomfort_score,
        output_magnitude=rec.output_magnitude,
        truth_magnitude=rec.truth_magnitude,
        latent_dim=rec.latent_dim, input_dim=rec.input_dim,
        has_inference_path=rec.has_inference_path,
        annotations=dict(rec.annotations))


def _rotate_kb(kb, q):
    if kb is None:
        return None
    return KnowledgeBase(entries=tuple((e, q @ v) for e, v in kb.entries))


class TestRotationInvariance:
    # bluffing is excluded: its gate is the random-projection MI estimate,
    # not a cosine, so it is not rotation invariant by construction
    COSINE_IDS = [p for p in GEN_IDS if p != "bluffing"]

    @pytest.mark.parametrize("pathology", COSINE_IDS)
    def test_severity_invariant_under_rotation(self, pathology, rng):
        q = random_orthogonal(corpora.D_E, rng)
        for positive in (True, False):
            bundle = corpora.generative_fixture(pathology, positive)
            base = audit_generative(bundle["records"], kb=bundle["kb"],
                                    fixtures=bundle["causal_fixtures"])
            rotated_records = [_rotate_record(r, q) for r in
                               bundle["records"]]
            rotated = audit_generative(rotated_records,
                                       kb=_rotate_kb(bundle["kb"], q),
                                       fixtures=bundle["causal_fixtures"])
            base_sev = {o.sort_key(): o.severity for o in base.outcomes
                        if o.pathology == pathology}
            rot_sev = {o.sort_key(): o.severity for o in rotated.outcomes
                       if o.pathology == pathology}
            assert base_sev.keys() == rot_sev.keys()
            for key, sev in base_sev.items():
                assert rot_sev[key] == pytest.approx(sev, abs=1e-9)


class TestSeverityMonotonicity:
    @given(st.floats(min_value=0.02, max_value=1.0),
           st.floats(min_value=0.0, max_value=0.98))
    def test_delusion_monotone_in_output_probability(self, p_hi, bump):
        p_lo = max(1e-6, p_hi - bump * p_hi)

        def severity(p_out):
            rec = TraceRecord(id="m", input_embedding=np.eye(4)[0],
                              output_embedding=np.eye(4)[0],
                              truth_embedding=np.eye(4)[1],
                              prob_output_given_input=p_out,
                              prob_truth_given_input=0.01)
            return score("delusion", rec).severity

        assert severity(p_hi) >= severity(p_lo) - 1e-12

    @given(st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=0.0, max_value=50.0))
    def test_exaggeration_monotone_in_magnitude(self, a, b):
        lo, hi = sorted((a, b))

        def severity(mag):
            rec = TraceRecord(id="m", input_embedding=np.eye(4)[0],
                              output_embedding=np.eye(4)[1],
                              output_magnitude=mag, truth_magnitude=1.0)
            return score("exaggeration", rec).severity

        assert severity(hi) >= severity(lo) - 1e-12

    @given(st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=20.0))
    def test_contextual_drift_monotone_in_distance(self, a, b):
        lo, hi = sorted((a, b))

        def severity(dist):
            ctx = (np.array([dist, 0.0, 0.0, 0.0]), np.eye(4)[0],
                   np.eye(4)[0], np.zeros(4))
            rec = TraceRecord(id="m", input_embedding=np.eye(4)[0],
                              output_embedding=np.eye(4)[1],
                              context_vectors=ctx)
            return score("contextual_drift", rec).severity

        assert severity(hi) >= severity(lo) - 1e-12
