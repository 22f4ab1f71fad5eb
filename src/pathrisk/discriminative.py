"""The 14 discriminative pathology detectors over classification corpora.

Every detector here folds a whole corpus into one outcome. Rate severities
are exactly (#events)/(#eligible), each folded by `_event_rate`;
accuracy-gap severities are the clamped gap, and group metrics are
symmetric under relabeling. All detectors are invariant to permutations of
the corpus (drift orders records explicitly by timestamp_index and
compares the earlier half with the later one).

`audit_discriminative` alone decides what a detector scores (the n_min
floor, the records carrying its fields); `score_discriminative` scores the
records it is handed.
"""

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import registry
from .registry import (DISCRIMINATIVE_DETECTORS, AuditResult, DetectorError,
                       DetectorOutcome, clamp01, content_pairs, fmt,
                       group_by)


@dataclass(frozen=True)
class DiscriminativeConfig:
    """Firing levels and estimator settings, one value for every detector
    that reads it; `_DETECTORS` reads the thresholds from them. `audit
    --config` sets the fields from its "discriminative" section."""

    gap_hi: float = 0.2      # accuracy-gap firing level
    amp_hi: float = 0.2      # group rate / accuracy disparity
    eps_adv: float = 0.1     # max feature distance of a perturbation pair
    ece_hi: float = 0.1      # calibration firing level
    ece_bins: int = 10
    tv_hi: float = 0.1       # feature-shift level for concept drift
    tv_bins: int = 8
    c_hi: float = 0.9        # "high confidence"
    frac_hi: float = 0.3     # event-rate firing level
    flip_hi: float = 0.1     # pairwise flip-rate firing level
    tol_t: float = 2.0       # boundary offset tolerance
    margin_hi: float = 0.3   # ambiguity-collapse margin
    n_min: int = 20          # rate-estimate sample floor

    def __post_init__(self):
        for name in ("ece_bins", "tv_bins", "n_min"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer)) or value < 1):
                raise ValueError(f"{name} must be a positive integer")
        for name in ("gap_hi", "amp_hi", "ece_hi", "tv_hi", "c_hi",
                     "frac_hi", "flip_hi", "margin_hi"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in [0,1]")
        if not (self.eps_adv >= 0.0):
            raise ValueError("eps_adv must be non-negative")
        if not (self.tol_t > 0.0):
            raise ValueError("tol_t must be positive")


def _accuracy(records):
    if not records:
        raise DetectorError("accuracy of an empty record set")
    return sum(1 for r in records if r.correct) / len(records)


def _pairs_by_id(records, key):
    """The records sharing each value of the field `key`, where exactly
    two do, ordered by id."""
    return [tuple(sorted(group, key=lambda r: r.id))
            for group in group_by(records, attrgetter(key))
            if len(group) == 2]


def _event_rate(units, is_event, none_message):
    """(events / units, the event count, the unit count), both counts as
    evidence strings; a DetectorError with none_message if no unit."""
    if not units:
        raise DetectorError(none_message)
    events = sum(1 for unit in units if is_event(unit))
    return events / len(units), str(events), str(len(units))


def _disagree(pair):
    return pair[0].predicted_label != pair[1].predicted_label


# --- detectors ---------------------------------------------------------------

def _accuracy_drop(records, role, roles, keys, none_message):
    """The clamped drop from the accuracy of the records whose role(r) is
    roles[0] to that of those whose role is roles[1], and evidence that
    names the two accuracies and the drop by `keys`; a DetectorError with
    none_message if either side is empty."""
    sides = [[r for r in records if role(r) == value] for value in roles]
    if not all(sides):
        raise DetectorError(none_message)
    first, second = map(_accuracy, sides)
    drop = first - second
    return clamp01(drop), dict(zip(keys, map(fmt, (first, second, drop))))


def _score_overfitting(records, cfg):
    return _accuracy_drop(
        records, lambda r: r.annotations.get("in_train_set", "").lower(),
        ("true", "false"), ("train_accuracy", "holdout_accuracy", "gap"),
        "overfitting: needs both train-flagged and held-out records")


def _prediction_rates(records, classes):
    preds = np.asarray([r.predicted_label for r in records])
    return np.asarray([np.mean(preds == c) for c in classes])


def _score_bias_amplification(records, cfg):
    groups = sorted({r.group for r in records})
    classes = sorted({r.predicted_label for r in records}
                     | {r.true_label for r in records})
    baseline = _prediction_rates(records, classes)
    worst = 0.0
    worst_group = ""
    for g in groups:
        members = [r for r in records if r.group == g]
        dev = float(np.max(np.abs(_prediction_rates(members, classes)
                                  - baseline)))
        if dev > worst:
            worst, worst_group = dev, g
    return clamp01(worst), {"max_rate_deviation": fmt(worst),
                            "worst_group": worst_group,
                            "groups": str(len(groups))}


def _score_spurious_correlation(records, cfg):
    return _accuracy_drop(
        records, lambda r: r.annotations["spurious_role"],
        ("clean", "resampled"),
        ("clean_accuracy", "resampled_accuracy", "drop"),
        "spurious_correlation: needs clean and resampled roles")


def _score_adversarial(records, cfg):
    pairs = [(a, b) for a, b in _pairs_by_id(records, "perturbation_pair_id")
             if float(np.linalg.norm(a.features - b.features)) <= cfg.eps_adv]
    rate, flips, n = _event_rate(
        pairs, _disagree,
        "adversarial_vulnerability: no perturbation pair within eps_adv")
    return rate, {"flips": flips, "eligible_pairs": n}


def expected_calibration_error(records, bins=10):
    """ECE with equal-width confidence bins over [0, 1]."""
    conf = np.asarray([r.confidence for r in records])
    correct = np.asarray([r.correct for r in records], dtype=float)
    idx = np.minimum((conf * bins).astype(int), bins - 1)
    n = len(records)
    ece = 0.0
    for b in range(bins):
        mask = idx == b
        if not mask.any():
            continue
        ece += (mask.sum() / n) * abs(correct[mask].mean()
                                      - conf[mask].mean())
    return float(ece)


def _score_calibration(records, cfg):
    ece = expected_calibration_error(records, cfg.ece_bins)
    return clamp01(ece), {"ece": fmt(ece), "bins": str(cfg.ece_bins)}


def _feature_tv(ref, cur, bins):
    ref_f = np.asarray([r.features for r in ref])
    cur_f = np.asarray([r.features for r in cur])
    tvs = []
    for j in range(ref_f.shape[1]):
        lo = min(ref_f[:, j].min(), cur_f[:, j].min())
        hi = max(ref_f[:, j].max(), cur_f[:, j].max())
        if hi <= lo:
            tvs.append(0.0)
            continue
        edges = np.linspace(lo, hi, bins + 1)
        p = np.histogram(ref_f[:, j], bins=edges)[0] / len(ref)
        q = np.histogram(cur_f[:, j], bins=edges)[0] / len(cur)
        tvs.append(0.5 * float(np.abs(p - q).sum()))
    return float(np.mean(tvs))


def _score_concept_drift(records, cfg):
    if len(records) < 4:
        raise DetectorError("concept_drift_sensitivity: needs >= 4 "
                            "timestamped records")
    ordered = sorted(records, key=lambda r: (r.timestamp_index, r.id))
    half = len(ordered) // 2
    ref, cur = ordered[:half], ordered[half:]
    tv = _feature_tv(ref, cur, cfg.tv_bins)
    ref_accuracy, cur_accuracy = _accuracy(ref), _accuracy(cur)
    severity = clamp01(ref_accuracy - cur_accuracy) if tv >= cfg.tv_hi else 0.0
    return severity, {"reference_accuracy": fmt(ref_accuracy),
                      "current_accuracy": fmt(cur_accuracy),
                      "feature_tv": fmt(tv)}


def _score_misclassification_uncertainty(records, cfg):
    rate, events, n = _event_rate(
        [r for r in records if r.is_ood],
        lambda r: r.confidence >= cfg.c_hi and not r.correct,
        "misclassification_under_uncertainty: no OOD records")
    return rate, {"confident_wrong": events, "ood_records": n}


def _score_prosodic(records, cfg):
    rate, events, n = _event_rate(
        content_pairs(records, "prosody"),
        lambda p: _disagree(p) and not (p[0].correct and p[1].correct),
        "prosodic_misclassification: no content-matched pair with differing "
        "prosody")
    return rate, {"events": events, "eligible_pairs": n}


def _score_accent_bias(records, cfg):
    paired_contents = {}
    for rec in records:
        paired_contents.setdefault(rec.annotations["content_id"],
                                   set()).add(rec.group)
    multi = {cid for cid, groups in paired_contents.items()
             if len(groups) >= 2}
    eligible = [r for r in records if r.annotations["content_id"] in multi]
    groups = sorted({r.group for r in eligible})
    if len(groups) < 2:
        raise DetectorError("accent_bias: needs content matched across >= 2 "
                            "groups")
    acc = {g: _accuracy([r for r in eligible if r.group == g])
           for g in groups}
    worst = 0.0
    witness = ("", "")
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            gap = abs(acc[groups[i]] - acc[groups[j]])
            if gap > worst:
                worst, witness = gap, (groups[i], groups[j])
    return clamp01(worst), {"max_accuracy_gap": fmt(worst),
                            "witness_groups": ",".join(witness)}


def _score_turn_boundary(records, cfg):
    offsets = []
    for r in records:
        (a0, a1), (b0, b1) = r.segment_bounds, r.ref_segment_bounds
        offsets.append(max(abs(a0 - b0), abs(a1 - b1)))
    # offset == tol_t lands at severity 0.5, the firing point
    severity = float(np.mean([clamp01(o / (2.0 * cfg.tol_t))
                              for o in offsets]))
    return severity, {"mean_offset": fmt(float(np.mean(offsets))),
                      "records": str(len(records))}


def _score_semantic_boundary(records, cfg):
    diffs = []
    for group in group_by(records, lambda r: r.annotations["span_pair_id"]):
        roles = {r.annotations["span_role"]: r for r in group}
        wide, narrow = roles.get("wide"), roles.get("narrow")
        if wide is None or narrow is None:
            continue
        (w0, w1), (n0, n1) = wide.segment_bounds, narrow.segment_bounds
        if not (w0 <= n0 and n1 <= w1):
            continue  # wide span must contain the narrow one
        score_wide = float(wide.class_probabilities[wide.true_label])
        score_narrow = float(narrow.class_probabilities[narrow.true_label])
        diffs.append(score_narrow - score_wide)
    if not diffs:
        raise DetectorError("semantic_boundary_confusion: no nested "
                            "wide/narrow span pair")
    severity = clamp01(float(np.mean(diffs)))
    return severity, {"mean_score_difference": fmt(float(np.mean(diffs))),
                      "pairs": str(len(diffs))}


def _score_noise_overfitting(records, cfg):
    roles = [{r.annotations["noise_role"]: r for r in group}
             for group in group_by(records, attrgetter("noise_pair_id"))]
    rate, events, n = _event_rate(
        [(g["clean"], g["noisy"]) for g in roles
         if "clean" in g and "noisy" in g],
        lambda p: p[0].correct and not p[1].correct,
        "noise_overfitting: no clean/noisy pair")
    return rate, {"events": events, "eligible_pairs": n}


def _score_latency_drift(records, cfg):
    rate, events, n = _event_rate(
        _pairs_by_id(records, "latency_pair_id"), _disagree,
        "latency_induced_decision_drift: no latency pair")
    return rate, {"disagreements": events, "eligible_pairs": n}


def _collapsed(r, cfg):
    """A confident wrong answer that beats every other plausible label by
    at least margin_hi."""
    if r.confidence < cfg.c_hi or r.correct:
        return False
    # plausible labels index class_probabilities: records validate it
    alternatives = [r.class_probabilities[y] for y in r.plausible_labels
                    if y != r.predicted_label]
    return (bool(alternatives)
            and r.confidence - float(max(alternatives)) >= cfg.margin_hi)


def _score_ambiguity_collapse(records, cfg):
    rate, events, n = _event_rate(
        [r for r in records if len(r.plausible_labels) >= 2],
        lambda r: _collapsed(r, cfg),
        "ambiguity_collapse: no record with >= 2 plausible labels")
    return rate, {"collapses": events, "eligible_records": n}


# detector -> (scorer, its firing threshold under a config)
_DETECTORS = {
    "overfitting": (_score_overfitting, lambda c: c.gap_hi),
    "bias_amplification": (_score_bias_amplification, lambda c: c.amp_hi),
    "spurious_correlation": (_score_spurious_correlation,
                             lambda c: c.gap_hi),
    "adversarial_vulnerability": (_score_adversarial, lambda c: c.flip_hi),
    "calibration_failure": (_score_calibration, lambda c: c.ece_hi),
    "concept_drift_sensitivity": (_score_concept_drift, lambda c: c.gap_hi),
    "misclassification_under_uncertainty": (
        _score_misclassification_uncertainty, lambda c: c.frac_hi),
    "prosodic_misclassification": (_score_prosodic, lambda c: c.frac_hi),
    "accent_bias": (_score_accent_bias, lambda c: c.amp_hi),
    "turn_boundary_failure": (_score_turn_boundary, lambda c: 0.5),
    "semantic_boundary_confusion": (_score_semantic_boundary,
                                    lambda c: c.gap_hi),
    "noise_overfitting": (_score_noise_overfitting, lambda c: c.flip_hi),
    "latency_induced_decision_drift": (_score_latency_drift,
                                       lambda c: c.flip_hi),
    "ambiguity_collapse": (_score_ambiguity_collapse, lambda c: c.frac_hi),
}
assert set(_DETECTORS) == set(DISCRIMINATIVE_DETECTORS)


def score_discriminative(pathology, records, cfg=DiscriminativeConfig()):
    """Fold the records `audit_discriminative` hands over, those carrying
    the detector's fields, into one outcome for `pathology`."""
    scorer, threshold = _DETECTORS[pathology]
    severity, evidence = scorer(records, cfg)
    return DetectorOutcome(pathology=pathology, record_ids=(),
                           severity=severity, threshold=threshold(cfg),
                           evidence=evidence)


def audit_discriminative(corpus, cfg=DiscriminativeConfig()):
    """Run all 14 detectors, collecting outcomes and skip reasons. The
    corpus's `validate_corpus` report is built once, and each detector
    scores the records it lists as available. A detector is skipped when
    the corpus holds fewer than n_min records, when no record carries its
    fields, or when its scorer raises. The no-record reason names the
    first record and what the report says it lacks: as no record is
    eligible, the report's first group of lacking fields is the first
    record's, and with no classification record at all the report's
    not-applicable reason stands for it. The result carries the report as
    `validation`."""
    # looked up on its module, where the traced benchmark run rebinds it
    validation = registry.validate_corpus(corpus)
    outcomes = []
    skipped = {}
    for pathology in DISCRIMINATIVE_DETECTORS:
        if len(corpus) < cfg.n_min:
            skipped[pathology] = (f"{pathology}: needs >= n_min = "
                                  f"{cfg.n_min} records, got {len(corpus)}")
        elif not validation.available[pathology]:
            if pathology in validation.not_applicable:
                lacks = (validation.not_applicable[pathology],)
            else:
                lacks = next(iter(validation.missing[pathology]))
            skipped[pathology] = (f"{pathology}: record {corpus[0].id!r} "
                                  f"lacks {', '.join(lacks)}")
        else:
            try:
                outcomes.append(score_discriminative(
                    pathology, validation.eligible(pathology, corpus), cfg))
            except DetectorError as exc:
                skipped[pathology] = str(exc)
    outcomes.sort(key=lambda o: o.sort_key())
    return AuditResult(outcomes=tuple(outcomes), skipped=skipped,
                       validation=validation)
