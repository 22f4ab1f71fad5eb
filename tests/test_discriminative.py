import numpy as np
import pytest

import corpora
from pathrisk.discriminative import (DiscriminativeConfig,
                                     audit_discriminative,
                                     expected_calibration_error,
                                     score_discriminative)
from pathrisk.records import ClassificationRecord, TraceRecord
from pathrisk.registry import DISCRIMINATIVE_DETECTORS, validate_corpus
from oracles import loop_validation

DIS_IDS = sorted(DISCRIMINATIVE_DETECTORS)


def _cls(rid, predicted, true, confidence=0.9, **kwargs):
    kwargs.setdefault("features", np.zeros(2))
    probs = np.full(2, 1.0 - confidence)
    probs[predicted] = confidence
    return ClassificationRecord(id=rid, predicted_label=predicted,
                                true_label=true,
                                class_probabilities=probs, **kwargs)


class TestFixturePolarity:
    @pytest.mark.parametrize("pathology", DIS_IDS)
    def test_positive_fires(self, pathology):
        recs = corpora.discriminative_fixture(pathology, True)
        outcome = score_discriminative(pathology, recs)
        assert outcome.fired, outcome.evidence

    @pytest.mark.parametrize("pathology", DIS_IDS)
    def test_negative_silent(self, pathology):
        recs = corpora.discriminative_fixture(pathology, False)
        outcome = score_discriminative(pathology, recs)
        assert not outcome.fired, outcome.evidence

    @pytest.mark.parametrize("pathology", DIS_IDS)
    def test_threshold_semantics(self, pathology):
        for positive in (True, False):
            recs = corpora.discriminative_fixture(pathology, positive)
            o = score_discriminative(pathology, recs)
            assert o.fired == (o.severity >= o.threshold)
            assert 0.0 <= o.severity <= 1.0
            assert o.loss == o.severity


# what a record with only the mandatory fields and features lacks, by
# detector
_BARE_LACKS = {name: lacks["bare"] for name, lacks in
               loop_validation([_cls("bare", 1, 0)]).items()}


class TestEligibility:
    # every detector except calibration_failure, whose one field a bare
    # record carries
    @pytest.mark.parametrize("pathology", [p for p in DIS_IDS
                                           if _BARE_LACKS[p]])
    def test_records_lacking_fields_leave_the_outcome_unchanged(
            self, pathology):
        # the audit decides eligibility, so the outcome is the audit's
        def outcome(records):
            return [o.to_json_dict()
                    for o in audit_discriminative(records).outcomes
                    if o.pathology == pathology]

        recs = corpora.discriminative_fixture(pathology, True)
        bare = [_cls(f"bare-{i:02d}", 1, 0) for i in range(len(recs))]
        assert outcome(recs + bare) == outcome(recs) != []


class TestCalibration:
    def test_perfectly_calibrated(self):
        recs = corpora.discriminative_fixture("calibration_failure", False)
        outcome = score_discriminative("calibration_failure", recs)
        assert outcome.severity == pytest.approx(0.0, abs=1e-12)

    def test_single_bin_oracle(self):
        # confidence 1.0 on all, accuracy 0.5: ECE = |1.0 - 0.5|
        recs = corpora.discriminative_fixture("calibration_failure", True)
        outcome = score_discriminative("calibration_failure", recs)
        assert outcome.severity == pytest.approx(0.5)

    def test_ece_zero_when_every_bin_matches(self):
        recs = []
        # bin (0.7, 0.8]: confidence 0.75, accuracy 0.75 over 20 records
        for i in range(20):
            recs.append(_cls(f"b1-{i}", 0, 0 if i < 15 else 1,
                             confidence=0.75))
        # bin (0.5, 0.6]: confidence 0.55, accuracy 0.55 over 20 records
        for i in range(20):
            recs.append(_cls(f"b2-{i}", 0, 0 if i < 11 else 1,
                             confidence=0.55))
        assert expected_calibration_error(recs, bins=10) == \
            pytest.approx(0.0, abs=1e-12)


class TestRateExactness:
    def test_adversarial_three_of_ten(self):
        recs = []
        for i in range(10):
            base = np.array([float(i), 0.0])
            recs.append(_cls(f"a{i}", 0, 0, features=base,
                             perturbation_pair_id=f"p{i}"))
            flipped = i < 3
            recs.append(_cls(f"b{i}", 1 if flipped else 0, 0,
                             features=base + np.array([0.01, 0.0]),
                             perturbation_pair_id=f"p{i}"))
        outcome = score_discriminative("adversarial_vulnerability", recs)
        assert outcome.severity == pytest.approx(0.3)
        assert outcome.evidence["flips"] == "3"
        assert outcome.evidence["eligible_pairs"] == "10"

    @pytest.mark.parametrize("pathology", [
        "adversarial_vulnerability", "noise_overfitting",
        "latency_induced_decision_drift", "prosodic_misclassification",
        "misclassification_under_uncertainty", "ambiguity_collapse"])
    def test_rate_is_events_over_eligible(self, pathology):
        recs = corpora.discriminative_fixture(pathology, True)
        outcome = score_discriminative(pathology, recs)
        evidence = outcome.evidence
        count_key = [k for k in ("flips", "events", "disagreements",
                                 "confident_wrong", "collapses")
                     if k in evidence][0]
        total_key = [k for k in ("eligible_pairs", "ood_records",
                                 "eligible_records") if k in evidence][0]
        assert outcome.severity == pytest.approx(
            int(evidence[count_key]) / int(evidence[total_key]))


class TestGroupSymmetry:
    def test_accent_parity_silent(self):
        recs = corpora.discriminative_fixture("accent_bias", False)
        outcome = score_discriminative("accent_bias", recs)
        assert outcome.severity == pytest.approx(0.0)

    @pytest.mark.parametrize("pathology", ["accent_bias",
                                           "bias_amplification"])
    def test_swapping_group_labels_preserves_severity(self, pathology):
        recs = corpora.discriminative_fixture(pathology, True)
        base = score_discriminative(pathology, recs).severity
        swap = {"g1": "g2", "g2": "g1", "a1": "a2", "a2": "a1"}
        swapped = []
        for r in recs:
            d = r.to_json_dict()
            d["group"] = swap.get(r.group, r.group)
            swapped.append(ClassificationRecord.from_json_dict(d))
        assert score_discriminative(pathology, swapped).severity == \
            pytest.approx(base, abs=1e-12)


class TestPermutationInvariance:
    @pytest.mark.parametrize("pathology", DIS_IDS)
    def test_order_does_not_matter(self, pathology, rng):
        recs = corpora.discriminative_fixture(pathology, True)
        base = score_discriminative(pathology, recs).severity
        shuffled = list(recs)
        rng.shuffle(shuffled)
        assert score_discriminative(pathology, shuffled).severity == \
            pytest.approx(base, abs=1e-12)


class TestDrift:
    def test_accuracy_drop_without_shift_is_silent(self):
        # degraded accuracy but identical feature distribution: TV gate off
        recs = []
        for t in range(40):
            wrong = t >= 20
            recs.append(_cls(f"r{t}", 0, 1 if wrong else 0,
                             features=np.array([0.01 * (t % 20), 0.0]),
                             timestamp_index=t))
        outcome = score_discriminative("concept_drift_sensitivity", recs)
        assert outcome.severity == 0.0


class TestErrors:
    def test_n_min_floor(self):
        recs = corpora.discriminative_fixture("calibration_failure",
                                              True)[:5]
        result = audit_discriminative(recs)
        assert result.outcomes == ()
        assert result.skipped["calibration_failure"] == \
            "calibration_failure: needs >= n_min = 20 records, got 5"

    def test_missing_pairing_fields(self):
        # no record is eligible: the reason names the first one
        recs = [_cls(f"r{i:02d}", 0, 0) for i in range(20)]
        assert audit_discriminative(recs).skipped[
            "adversarial_vulnerability"] == (
            "adversarial_vulnerability: record 'r00' lacks "
            "perturbation_pair_id")


class TestAudit:
    def test_audit_collects_everything(self):
        recs = corpora.discriminative_fixture("calibration_failure", True)
        result = audit_discriminative(recs)
        scored = {o.pathology for o in result.outcomes}
        assert "calibration_failure" in scored
        assert set(result.skipped) | scored == set(DISCRIMINATIVE_DETECTORS)

    def test_result_carries_the_validation_report(self):
        recs = corpora.discriminative_fixture("calibration_failure", True)
        result = audit_discriminative(recs)
        assert result.validation == validate_corpus(recs)
        assert "validation" not in result.to_json_dict()

    def test_records_lacking_fields_leave_the_audit_unchanged(self):
        recs = corpora.discriminative_fixture("bias_amplification", True)
        recs += corpora.discriminative_fixture("adversarial_vulnerability",
                                               True)
        bare = [_cls(f"bare-{i:02d}", 1, 0) for i in range(len(recs))]
        full = audit_discriminative(recs + bare)
        assert {"bias_amplification", "adversarial_vulnerability"} <= \
            {o.pathology for o in full.outcomes}

        # detectors that read a field bare records carry score them too
        def lacking(outcomes):
            return [o.to_json_dict() for o in outcomes
                    if _BARE_LACKS[o.pathology]]

        assert lacking(full.outcomes) == \
            lacking(audit_discriminative(recs).outcomes)

    def test_a_trace_corpus_skips_every_detector_for_its_kind(self):
        cfg = DiscriminativeConfig()
        recs = [TraceRecord(id=f"t{i:02d}", input_embedding=np.ones(2),
                            output_embedding=np.ones(2))
                for i in range(cfg.n_min)]
        result = audit_discriminative(recs, cfg)
        assert result.outcomes == ()
        assert result.skipped == {
            name: f"{name}: record 't00' lacks "
                  "<requires a classification record>"
            for name in DISCRIMINATIVE_DETECTORS}

    @pytest.mark.parametrize("first_has,first_lacks", [
        ("group", "annotations.content_id"),
        ("annotations.content_id", "group")])
    def test_the_skip_reason_names_what_the_first_record_lacks(
            self, first_has, first_lacks):
        # accent_bias reads both fields; the first record carries one of
        # them and every later record only the other, so none is eligible
        def carrying(rid, field):
            if field == "group":
                return _cls(rid, 1, 0, group="g0")
            return _cls(rid, 1, 0, annotations={"content_id": "c0"})

        recs = [carrying("r00", first_has)] + [
            carrying(f"r{i:02d}", first_lacks) for i in range(1, 20)]
        result = audit_discriminative(recs)
        assert result.skipped["accent_bias"] == \
            f"accent_bias: record 'r00' lacks {first_lacks}"

    def test_duplicate_ids_are_rejected(self):
        recs = corpora.discriminative_fixture("calibration_failure", True)
        with pytest.raises(ValueError, match="duplicate record id"):
            audit_discriminative(recs + recs[:1])

    def test_config_override_threshold(self):
        cfg = DiscriminativeConfig(ece_hi=0.9)
        recs = corpora.discriminative_fixture("calibration_failure", True)
        outcome = score_discriminative("calibration_failure", recs, cfg)
        assert outcome.threshold == 0.9
        assert not outcome.fired   # ECE 0.5 < 0.9


class TestConfigRanges:
    @pytest.mark.parametrize("name", ["ece_bins", "tv_bins", "n_min"])
    @pytest.mark.parametrize("value", [0, -3, 2.0, True])
    def test_counts_are_positive_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a positive"):
            DiscriminativeConfig(**{name: value})
        assert getattr(DiscriminativeConfig(**{name: 1}), name) == 1

    @pytest.mark.parametrize("name", ["gap_hi", "amp_hi", "ece_hi", "tv_hi",
                                      "c_hi", "frac_hi", "flip_hi",
                                      "margin_hi"])
    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_levels_lie_in_the_unit_interval(self, name, value):
        with pytest.raises(ValueError, match=rf"{name} must lie in \[0,1\]"):
            DiscriminativeConfig(**{name: value})
        for edge in (0.0, 1.0):
            assert getattr(DiscriminativeConfig(**{name: edge}), name) == edge

    @pytest.mark.parametrize("name", ["eps_adv", "tol_t"])
    @pytest.mark.parametrize("value", [-1e-9, float("nan")])
    def test_tolerances_are_non_negative(self, name, value):
        floor = {"eps_adv": "non-negative", "tol_t": "positive"}[name]
        with pytest.raises(ValueError, match=f"{name} must be {floor}"):
            DiscriminativeConfig(**{name: value})

    def test_only_the_boundary_tolerance_excludes_zero(self):
        # turn_boundary_failure scores the offset in units of tol_t
        with pytest.raises(ValueError, match="tol_t must be positive"):
            DiscriminativeConfig(tol_t=0.0)
        assert DiscriminativeConfig(tol_t=1e-9).tol_t == 1e-9
        assert DiscriminativeConfig(eps_adv=0.0).eps_adv == 0.0
