"""The 14 discriminative pathology detectors over classification corpora.

Each is a row of `registry.REGISTRY`; its scorer is `_score_<id>` here,
which `_SCORERS` finds by name. Every detector folds a whole corpus into
one outcome. Each scorer is a column kernel over a
`classification.ClassificationCorpus`: it reads the columns at the
eligible row indices it is handed, in corpus order, and groups rows by the
codes of a string column. Rate severities are exactly
(#events)/(#eligible), each folded by `_event_rate`; accuracy-gap
severities are the clamped gap, and group metrics are symmetric under
relabeling. All detectors are invariant to permutations of the corpus
(drift orders records by timestamp_index and id and compares the earlier
half with the later one).

`audit_discriminative` alone decides what a detector scores (the n_min
floor, the rows carrying its fields); `score_discriminative` scores the
rows it is handed.
"""

from dataclasses import dataclass

import numpy as np

from . import registry
from .registry import (DISCRIMINATIVE_DETECTORS, REGISTRY, AuditResult,
                       DetectorError, DetectorOutcome, clamp01, fmt)


# the most bins of ECE and of the concept-drift histograms: each estimate
# takes time or memory in proportion to its bins, and beyond this count
# most bins of a corpus of any size hold too few records to estimate from
_MOST_BINS = 10_000


@dataclass(frozen=True)
class DiscriminativeConfig:
    """Firing levels and estimator settings, one value for every detector
    that reads it; each detector's `registry.REGISTRY` row reads its
    threshold from them. `audit --config` sets the fields from its
    "discriminative" section."""

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
        for name in ("ece_bins", "tv_bins"):
            if getattr(self, name) > _MOST_BINS:
                raise ValueError(f"{name} must be at most {_MOST_BINS}")
        for name in ("gap_hi", "amp_hi", "ece_hi", "tv_hi", "c_hi",
                     "frac_hi", "flip_hi", "margin_hi"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in [0,1]")
        if not (self.eps_adv >= 0.0):
            raise ValueError("eps_adv must be non-negative")
        if not (self.tol_t > 0.0):
            raise ValueError("tol_t must be positive")


def _codes(c, name, rows):
    """Each row's index into the sorted values of the string field."""
    return c.strings[name][1][rows]


def _dense(codes):
    """(the distinct codes in sorted order, each row's index into them)."""
    distinct = np.flatnonzero(np.bincount(codes))
    return distinct, np.searchsorted(distinct, codes)


def _is(c, name, rows, value):
    """Whether each row's string field `name` equals `value`."""
    values, codes = c.strings[name]
    return np.array([v == value for v in values], dtype=bool)[codes[rows]]


def _pairs(groups, size=None):
    """(i, j): the positions of every pair of rows with the same group
    code, each pair once; with `size`, only in groups of that many rows."""
    if size is not None:
        keep = np.flatnonzero(np.bincount(groups)[groups] == size)
        return tuple(keep[k] for k in _pairs(groups[keep]))
    order = np.argsort(groups, kind="stable")
    ordered = groups[order]
    pairs = [np.zeros((2, 0), dtype=np.intp)]
    # a group's rows are adjacent in `order`: its pairs `gap` apart run
    # out when no group has two rows that far apart
    for gap in range(1, len(order)):
        same = np.flatnonzero(ordered[:-gap] == ordered[gap:])
        if not same.size:
            break
        pairs.append(np.stack([order[same], order[same + gap]]))
    return tuple(np.concatenate(pairs, axis=1))


def _role_pairs(c, rows, group_field, role_field, roles):
    """(a, b) rows: of each group of `group_field` in sorted order that has
    both, its last row whose `role_field` is roles[0] and its last whose
    role is roles[1]."""
    groups = _codes(c, group_field, rows)
    last = np.full((2, int(groups.max(initial=-1)) + 1), -1)
    for k, role in enumerate(roles):
        mask = _is(c, role_field, rows, role)
        np.maximum.at(last[k], groups[mask], np.flatnonzero(mask))
    a, b = last[:, (last >= 0).all(axis=0)]
    return rows[a], rows[b]


def _event_rate(events, none_message):
    """(events / units, the event count, the unit count) of a boolean array
    over the units, both counts as evidence strings; a DetectorError with
    none_message if no unit."""
    if not events.size:
        raise DetectorError(none_message)
    count = int(np.count_nonzero(events))
    return count / events.size, str(count), str(events.size)


def _disagree(c, a, b):
    return c.predicted_label[a] != c.predicted_label[b]


# --- detectors ---------------------------------------------------------------

def _accuracy_drop(c, rows, sides, keys, none_message):
    """The clamped drop from the accuracy of the rows sides[0] selects to
    that of the rows sides[1] selects, and evidence that names the two
    accuracies and the drop by `keys`; a DetectorError with none_message
    if either side is empty."""
    if not all(side.any() for side in sides):
        raise DetectorError(none_message)
    first, second = (float(c.correct[rows[side]].mean()) for side in sides)
    drop = first - second
    return clamp01(drop), dict(zip(keys, map(fmt, (first, second, drop))))


def _score_overfitting(c, rows, cfg):
    flag = "annotations.in_train_set"
    values, codes = c.strings[flag]
    lowered = np.array([v.lower() for v in values], dtype=object)
    flags = lowered[codes[rows]]
    return _accuracy_drop(
        c, rows, (flags == "true", flags == "false"),
        ("train_accuracy", "holdout_accuracy", "gap"),
        "overfitting: needs both train-flagged and held-out records")


def _score_bias_amplification(c, rows, cfg):
    predicted = c.predicted_label[rows]
    groups, group = _dense(_codes(c, "group", rows))
    classes = np.flatnonzero(np.bincount(np.concatenate(
        [predicted, c.true_label[rows]])))
    k = len(classes)
    counts = np.bincount(group * k + np.searchsorted(classes, predicted),
                         minlength=len(groups) * k).reshape(len(groups), k)
    # each group's rate of each class against the whole corpus's
    deviation = np.abs(counts / counts.sum(axis=1, keepdims=True)
                       - counts.sum(axis=0) / len(rows)).max(axis=1)
    worst = float(deviation.max())
    # the first group in sorted order with the largest deviation above 0
    worst_group = (c.strings["group"][0][groups[deviation.argmax()]]
                   if worst > 0.0 else "")
    return clamp01(worst), {"max_rate_deviation": fmt(worst),
                            "worst_group": worst_group,
                            "groups": str(len(groups))}


def _score_spurious_correlation(c, rows, cfg):
    return _accuracy_drop(
        c, rows, [_is(c, "annotations.spurious_role", rows, role)
                  for role in ("clean", "resampled")],
        ("clean_accuracy", "resampled_accuracy", "drop"),
        "spurious_correlation: needs clean and resampled roles")


def _score_adversarial_vulnerability(c, rows, cfg):
    a, b = (rows[k] for k in _pairs(_codes(c, "perturbation_pair_id", rows),
                                    size=2))
    near = np.linalg.norm(c.features[a] - c.features[b], axis=1) \
        <= cfg.eps_adv
    rate, flips, n = _event_rate(
        _disagree(c, a[near], b[near]),
        "adversarial_vulnerability: no perturbation pair within eps_adv")
    return rate, {"flips": flips, "eligible_pairs": n}


def expected_calibration_error(confidence, correct, bins=10):
    """ECE of confidences against their outcomes, with equal-width
    confidence bins over [0, 1]."""
    correct = np.asarray(correct, dtype=float)
    idx = np.minimum((confidence * bins).astype(int), bins - 1)
    n = len(confidence)
    ece = 0.0
    for b in range(bins):
        mask = idx == b
        if not mask.any():
            continue
        ece += (mask.sum() / n) * abs(correct[mask].mean()
                                      - confidence[mask].mean())
    return float(ece)


def _score_calibration_failure(c, rows, cfg):
    ece = expected_calibration_error(c.confidence[rows], c.correct[rows],
                                     cfg.ece_bins)
    return clamp01(ece), {"ece": fmt(ece), "bins": str(cfg.ece_bins)}


def _feature_tv(features, ref, cur, bins):
    """Mean over the feature columns of the total variation between the
    histograms of the rows ref and cur, one column gathered at a time."""
    tvs = []
    for column in features.T:
        ref_f, cur_f = column[ref], column[cur]
        lo = min(ref_f.min(), cur_f.min())
        hi = max(ref_f.max(), cur_f.max())
        if hi <= lo:
            tvs.append(0.0)
            continue
        edges = np.linspace(lo, hi, bins + 1)
        p = np.histogram(ref_f, bins=edges)[0] / len(ref_f)
        q = np.histogram(cur_f, bins=edges)[0] / len(cur_f)
        tvs.append(0.5 * float(np.abs(p - q).sum()))
    return float(np.mean(tvs))


def _score_concept_drift_sensitivity(c, rows, cfg):
    if len(rows) < 4:
        raise DetectorError("concept_drift_sensitivity: needs >= 4 "
                            "timestamped records")
    # by (timestamp_index, id): ids are unique, so the rows in id order
    # sorted stably by timestamp
    rows = rows[np.argsort(np.array([c.ids[i] for i in rows.tolist()],
                                    dtype=object), kind="stable")]
    rows = rows[np.argsort(c.timestamp_index[rows], kind="stable")]
    ref, cur = np.split(rows, [len(rows) // 2])
    tv = _feature_tv(c.features, ref, cur, cfg.tv_bins)
    ref_accuracy, cur_accuracy = (float(c.correct[half].mean())
                                  for half in (ref, cur))
    severity = clamp01(ref_accuracy - cur_accuracy) if tv >= cfg.tv_hi else 0.0
    return severity, {"reference_accuracy": fmt(ref_accuracy),
                      "current_accuracy": fmt(cur_accuracy),
                      "feature_tv": fmt(tv)}


def _score_misclassification_under_uncertainty(c, rows, cfg):
    ood = rows[c.is_ood[rows]]
    rate, events, n = _event_rate(
        (c.confidence[ood] >= cfg.c_hi) & ~c.correct[ood],
        "misclassification_under_uncertainty: no OOD records")
    return rate, {"confident_wrong": events, "ood_records": n}


def _score_prosodic_misclassification(c, rows, cfg):
    # the pairs of one content id whose prosody differs
    a, b = _pairs(_codes(c, "annotations.content_id", rows))
    prosody = _codes(c, "annotations.prosody", rows)
    a, b = (rows[k[prosody[a] != prosody[b]]] for k in (a, b))
    rate, events, n = _event_rate(
        _disagree(c, a, b) & ~(c.correct[a] & c.correct[b]),
        "prosodic_misclassification: no content-matched pair with differing "
        "prosody")
    return rate, {"events": events, "eligible_pairs": n}


def _score_accent_bias(c, rows, cfg):
    content = _codes(c, "annotations.content_id", rows)
    group = _codes(c, "group", rows)
    # the rows whose content id is read in >= 2 groups
    width = len(c.strings["group"][0])
    pairs = np.flatnonzero(np.bincount(content * width + group))
    multi = np.bincount(pairs // width)[content] >= 2
    groups, index = _dense(group[multi])
    if len(groups) < 2:
        raise DetectorError("accent_bias: needs content matched across >= 2 "
                            "groups")
    acc = (np.bincount(index, weights=c.correct[rows[multi]])
           / np.bincount(index))
    # the first pair i < j in row-major order with the largest gap above 0
    gap = np.triu(np.abs(acc[:, None] - acc[None, :]), 1)
    worst = float(gap.max())
    witness = ("", "")
    if worst > 0.0:
        witness = (c.strings["group"][0][groups[k]]
                   for k in divmod(int(gap.argmax()), len(groups)))
    return clamp01(worst), {"max_accuracy_gap": fmt(worst),
                            "witness_groups": ",".join(witness)}


def _score_turn_boundary_failure(c, rows, cfg):
    offsets = np.abs(c.segment_bounds[rows]
                     - c.ref_segment_bounds[rows]).max(axis=1)
    # offset == tol_t lands at severity 0.5, the firing point
    severity = float(np.mean(np.clip(offsets / (2.0 * cfg.tol_t), 0.0, 1.0)))
    return severity, {"mean_offset": fmt(float(np.mean(offsets))),
                      "records": str(len(rows))}


def _score_semantic_boundary_confusion(c, rows, cfg):
    wide, narrow = _role_pairs(c, rows, "annotations.span_pair_id",
                               "annotations.span_role", ("wide", "narrow"))
    (w0, w1), (n0, n1) = c.segment_bounds[wide].T, c.segment_bounds[narrow].T
    # the wide span must contain the narrow one
    wide, narrow = (k[(w0 <= n0) & (n1 <= w1)] for k in (wide, narrow))
    diffs = (c.class_probabilities[narrow, c.true_label[narrow]]
             - c.class_probabilities[wide, c.true_label[wide]])
    if not diffs.size:
        raise DetectorError("semantic_boundary_confusion: no nested "
                            "wide/narrow span pair")
    mean = float(np.mean(diffs))
    return clamp01(mean), {"mean_score_difference": fmt(mean),
                           "pairs": str(diffs.size)}


def _score_noise_overfitting(c, rows, cfg):
    clean, noisy = _role_pairs(c, rows, "noise_pair_id",
                               "annotations.noise_role", ("clean", "noisy"))
    rate, events, n = _event_rate(c.correct[clean] & ~c.correct[noisy],
                                  "noise_overfitting: no clean/noisy pair")
    return rate, {"events": events, "eligible_pairs": n}


def _score_latency_induced_decision_drift(c, rows, cfg):
    a, b = _pairs(_codes(c, "latency_pair_id", rows), size=2)
    rate, events, n = _event_rate(
        _disagree(c, rows[a], rows[b]),
        "latency_induced_decision_drift: no latency pair")
    return rate, {"disagreements": events, "eligible_pairs": n}


def _score_ambiguity_collapse(c, rows, cfg):
    units = rows[c.plausible_labels[rows].sum(axis=1) >= 2]
    confidence = c.confidence[units]
    # a confident wrong answer that beats every other plausible label by
    # at least margin_hi
    others = c.plausible_labels[units]
    others[np.arange(len(units)), c.predicted_label[units]] = False
    runner_up = np.where(others, c.class_probabilities[units], -np.inf)
    rate, events, n = _event_rate(
        (confidence >= cfg.c_hi) & ~c.correct[units] & others.any(axis=1)
        & (confidence - runner_up.max(axis=1) >= cfg.margin_hi),
        "ambiguity_collapse: no record with >= 2 plausible labels")
    return rate, {"collapses": events, "eligible_records": n}


# each detector -> its scorer: (corpus, rows, cfg)
_SCORERS = {name: globals()[f"_score_{name}"]
            for name in DISCRIMINATIVE_DETECTORS}


def score_discriminative(pathology, corpus, cfg=DiscriminativeConfig(),
                         rows=None):
    """Fold the rows `audit_discriminative` hands over, those carrying the
    detector's fields, into one outcome for `pathology`; all rows of the
    ClassificationCorpus when `rows` is None."""
    rows = np.arange(len(corpus)) if rows is None else rows
    severity, evidence = _SCORERS[pathology](corpus, rows, cfg)
    return DetectorOutcome(pathology=pathology, unit="",
                           severity=severity,
                           threshold=REGISTRY[pathology].threshold(cfg),
                           evidence=evidence)


def audit_discriminative(corpus, cfg=DiscriminativeConfig()):
    """Run all 14 detectors, collecting outcomes and skip reasons. The
    corpus's `validate_corpus` report is built once, and each detector
    scores the rows it lists as eligible. A detector is skipped when the
    corpus holds fewer than n_min records, when no record carries its
    fields, or when its scorer raises. The no-record reason names the
    first record and the detector's fields that the report says it lacks,
    or that a corpus of traces is not applicable as a whole. The result
    carries the report as `validation`."""
    # looked up on its module, where the traced benchmark run rebinds it
    validation = registry.validate_corpus(corpus)
    outcomes = []
    skipped = {}
    for pathology in DISCRIMINATIVE_DETECTORS:
        rows = validation.eligible(pathology)
        if len(corpus) < cfg.n_min:
            skipped[pathology] = (f"{pathology}: needs >= n_min = "
                                  f"{cfg.n_min} records, got {len(corpus)}")
        elif not rows.size:
            lacks = ((validation.not_applicable[pathology],)
                     if pathology in validation.not_applicable
                     else validation.lacks(0, pathology))
            skipped[pathology] = (f"{pathology}: record {validation.ids[0]!r} "
                                  f"lacks {', '.join(lacks)}")
        else:
            try:
                outcomes.append(score_discriminative(pathology, corpus, cfg,
                                                     rows))
            except DetectorError as exc:
                skipped[pathology] = str(exc)
    outcomes.sort(key=lambda o: o.sort_key())
    return AuditResult(outcomes=tuple(outcomes), skipped=skipped,
                       validation=validation)
