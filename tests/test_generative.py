import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

import corpora
from pathrisk import generative, metrics, registry
from pathrisk.generative import (DetectorError, GenerativeConfig,
                                 audit_generative, score)
from pathrisk.records import KnowledgeBase, TraceRecord
from pathrisk.registry import (ALIAS_GROUPS, GENERATIVE_DETECTORS,
                               DISCRIMINATIVE_DETECTORS,
                               distinct_pathology_count, pathology_ids,
                               validate_corpus)
from conftest import random_orthogonal
from oracles import (every_prefix_semantic_warming, loop_cognitive_stereotypy,
                     loop_hypersignification)

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
                assert o.loss == o.severity
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
        assert [o.to_json_dict() for o in a.outcomes] == \
            [o.to_json_dict() for o in b.outcomes]

    def test_result_carries_the_validation_report(self):
        records = corpora.demo_trace_corpus()
        result = audit_generative(records, kb=corpora.standard_kb(),
                                  fixtures=[corpora.demo_causal_fixture()])
        assert result.validation == validate_corpus(records)
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
        scored = [o.record_ids for o in result.outcomes
                  if o.pathology == "contextual_drift"]
        assert scored == [("r0",), ("r2",), ("r3",)]
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
        scored = [o.record_ids for o in result.outcomes
                  if o.pathology == "semantic_warming"]
        assert scored == [("c1",)]


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
        assert result.validation.missing["delusion"] == {
            ("prob_output_given_input", "prob_truth_given_input"): ("bare",)}

    def test_kb_detector_without_kb(self):
        bundle = corpora.generative_fixture("confabulation", True)
        result = audit_generative(bundle["records"])
        kb_detectors = {"confabulation", "simulated_authority",
                        "referential_hallucination", "semiotic_frankenstein"}
        assert {p for p, reason in result.skipped.items()
                if reason == "no knowledge base supplied"} == kb_detectors
        assert not kb_detectors & {o.pathology for o in result.outcomes}

    def test_validation_takes_each_record_once(self, monkeypatch):
        # the audit takes each record's fields once, in validate_corpus,
        # not once per (detector, record) pair, and no scorer checks again
        calls = []
        real = registry._presence

        def counted(record):
            calls.append(record.id)
            return real(record)

        monkeypatch.setattr(registry, "_presence", counted)
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
    return KnowledgeBase(entries=tuple((e, q @ v) for e, v in kb.entries),
                         source_tag=kb.source_tag)


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
