"""Independent oracles used by the test suite.

These deliberately avoid the package's solution paths: the expectile
oracle evaluates the asymmetric quadratic objective on a dense grid, the
pareto oracle is a naive double loop, and the game oracle grid-walks the
joint feasible set of two agents. The canonical JSON oracle is the
two-pass encoder the package used before it streamed: a canonicalised deep
copy handed to the standard library's json.dumps. The pair-detector
oracles are the double loops over the scalar `sim` that cognitive
stereotypy and hypersignification ran before the similarity kernel. The
semantic-warming oracle forms the redundancy and entropy of every style
prefix, as the detector did before it formed only those in its window. The
entropy oracle is the d x d covariance formula semantic_entropy used
before it moved to the smaller Gram matrix. The chi CDF is the
incomplete-gamma power series, so the holonorm density is checked without
scipy. The density-check oracle is the whole-sample check the package ran
before it drew its Monte-Carlo sample in row blocks. The validation oracle
is a loop over every (record, detector) pair that checks each required
field with its own `getattr` or annotation lookup, where validate_corpus
takes one presence code per record and masks it per detector. The classification oracle is the
per-record path the package ran before it held a classification corpus
as field columns: `ClassificationRecord` with its `validate`, the loader
with its duplicate-id and mixed-width checks, and the 14 discriminative
scorers over record lists, audited as `audit_discriminative` did. The
whole-corpus generative audit is the one the package ran before its
record-level detectors scored each record as its line was read: every
record held whole until the last detector, and each detector, record-level
ones included, scoring the units of the records loop_validation finds
eligible.
The mutual-information oracle bins the projections of the same
standard-library normal draws in a plain Python loop and sums the plug-in
terms over a dict of cell counts.
The outcome oracle gives an outcome's values with its threshold and
evidence, and regroups such rows into evidence.json by one filter per
pathology. The unit oracle gives the record ids of a unit as 0.6.0 held
them, a tuple that outcomes.json wrote as a list and `dropped` joined by
","; the layout oracle rewrites a 0.6.0 outcomes.json into 0.7.0's, each
unit that join and each detector's threshold written once.
"""

import json
import math
import random
from itertools import combinations
from operator import attrgetter
from typing import Optional

import numpy as np

from pathrisk import generative, registry
from pathrisk.metrics import MetricError
from pathrisk.records import (CorpusError, RecordValidationError, TraceRecord,
                              _decode_record, _field, _schema)
from pathrisk.registry import (DISCRIMINATIVE_DETECTORS, GENERATIVE_DETECTORS,
                               DetectorError, DetectorOutcome, clamp01, fmt,
                               group_by)


def asymmetric_objective(losses, r, tau):
    """E[w_tau(L - r) (L - r)^2] on the empirical distribution."""
    z = np.asarray(losses, dtype=float) - r
    w = np.where(z > 0, tau, 1.0 - tau)
    return float(np.mean(w * z * z))


def grid_expectile(losses, tau, step=1e-4):
    """Argmin of the asymmetric quadratic over a dense grid [min, max].

    The objective is evaluated exactly on every grid point via prefix
    sums, so this stays affordable at n = 1e5 while remaining a direct
    minimization, independent of the fixed-point iteration.
    """
    L = np.sort(np.asarray(losses, dtype=float).ravel())
    n = L.size
    lo, hi = float(L[0]), float(L[-1])
    if hi == lo:
        return lo
    grid = np.arange(lo, hi + step, step)
    c1 = np.concatenate([[0.0], np.cumsum(L)])
    c2 = np.concatenate([[0.0], np.cumsum(L * L)])
    k = np.searchsorted(L, grid, side="right")   # |{L <= r}|, w_tau(0)=1-tau
    s1_below, s2_below = c1[k], c2[k]
    s1_above, s2_above = c1[n] - c1[k], c2[n] - c2[k]
    below = (1.0 - tau) * (s2_below - 2.0 * grid * s1_below
                           + grid * grid * k)
    above = tau * (s2_above - 2.0 * grid * s1_above
                   + grid * grid * (n - k))
    objective = (below + above) / n
    return float(grid[np.argmin(objective)])


def naive_pareto(values):
    """Indices of non-dominated points under componentwise <=."""
    survivors = []
    for i, vi in enumerate(values):
        dominated = False
        for j, vj in enumerate(values):
            if j == i:
                continue
            if all(a <= b for a, b in zip(vj, vi)) and tuple(vj) != tuple(vi):
                dominated = True
                break
        if not dominated:
            survivors.append(i)
    return survivors


def grid_variational_equilibrium(agents, kappa, cap, steps=41):
    """Brute-force minimizer of sum_i ||theta_i - t_i||^2 + lam_i kappa
    ||theta_i||^2 over two agents' 2-d boxes and the shared cap
    sum_i kappa ||theta_i||^2 <= cap, on a grid of `steps` points per box
    axis (steps^4 joint points). agents is two (target, lo, hi, lam)
    tuples. Returns (thetas, objective) of the best feasible grid point."""
    points, costs, computes = [], [], []
    for target, lo, hi, lam in agents:
        xs, ys = np.meshgrid(np.linspace(lo[0], hi[0], steps),
                             np.linspace(lo[1], hi[1], steps), indexing="ij")
        grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
        norm2 = np.sum(grid * grid, axis=1)
        points.append(grid)
        costs.append(np.sum((grid - target) ** 2, axis=1)
                     + lam * kappa * norm2)
        computes.append(kappa * norm2)
    best, best_value = None, np.inf
    for i in range(len(points[0])):
        value = np.where(computes[0][i] + computes[1] <= cap,
                         costs[0][i] + costs[1], np.inf)
        j = int(np.argmin(value))
        if value[j] < best_value:
            best, best_value = (i, j), float(value[j])
    return [points[0][best[0]], points[1][best[1]]], best_value


def chi_cdf(dim, r):
    """P(R <= r) for R ~ chi with `dim` degrees of freedom: the regularized
    lower incomplete gamma P(dim/2, r^2/2), from its power series
    x^a e^-x / Gamma(a + 1) * sum_n x^n / ((a + 1) ... (a + n))."""
    a, x = 0.5 * dim, 0.5 * r * r
    if x == 0.0:
        return 0.0
    term = total = 1.0
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= x / (a + n)
        total += term
    return math.exp(a * math.log(x) - x - math.lgamma(a + 1.0)) * total


def _canon(obj):
    if hasattr(obj, "to_json_dict"):
        return _canon(obj.to_json_dict())
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not math.isfinite(f):
            return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
        r = round(f, 12)
        return r + 0.0   # normalize -0.0
    if isinstance(obj, np.ndarray):
        return _canon(obj.tolist())
    return obj


def canonical_json(obj):
    """Canonical JSON text of obj via a deep copy and json.dumps; an
    object with to_json_dict() is copied as that dict."""
    return json.dumps(_canon(obj), sort_keys=True, indent=1,
                      separators=(",", ": "))


def outcome_row(outcome):
    """An outcome's values: its object in outcomes.json, its firing
    threshold and its evidence."""
    return outcome.to_json_dict() | {"threshold": outcome.threshold,
                                     "evidence": dict(outcome.evidence)}


def record_ids_060(arity, data):
    """The record ids of the outcome scored on one generative unit of that
    arity, as 0.6.0 held them: a tuple of one record's id, of a pair's ids
    in sorted order, of a conversation's id if it has one, or of a causal
    fixture's "x->y"; empty for a corpus unit."""
    if arity is generative.Arity.RECORD:
        return (data.id,)
    if arity is generative.Arity.PAIR:
        return tuple(sorted([data[0].id, data[1].id]))
    if arity is generative.Arity.SEQUENCE:
        conversation = data[0].annotations.get("conversation_id", "")
        return (conversation,) if conversation else ()
    if arity is generative.Arity.FIXTURE:
        return (data.x_name + "->" + data.y_name,)
    return ()


def rewrite_060(document):
    """A 0.6.0 outcomes.json document, as json.load gives it, in the 0.7.0
    layout: each outcome's record_ids joined by "," as its unit, and each
    detector's threshold moved to firing_thresholds. Every outcome of a
    detector must carry the same threshold. Other keys, of the document
    and of each outcome, are kept as they are."""
    thresholds, outcomes = {}, []
    for old in document["outcomes"]:
        new = dict(old)
        threshold = new.pop("threshold")
        assert thresholds.setdefault(new["pathology"], threshold) == threshold
        new["unit"] = ",".join(new.pop("record_ids"))
        outcomes.append(new)
    return document | {"firing_thresholds": thresholds, "outcomes": outcomes}


def regrouped_evidence(rows):
    """evidence.json of the `outcome_row` objects of an audit: for each
    pathology that has a row, the evidence of its rows in row order."""
    return {name: [row["evidence"] for row in rows
                   if row["pathology"] == name]
            for name in {row["pathology"] for row in rows}}


def _loop_output_pair(records, input_bound, better):
    from pathrisk.metrics import sim
    found = None
    for i in range(len(records)):
        for j in range(i + 1, len(records)):
            if sim(records[i].input_embedding,
                   records[j].input_embedding) >= input_bound:
                continue
            s = sim(records[i].output_embedding, records[j].output_embedding)
            if found is None or better(s, found[0]):
                found = (s, f"{records[i].id},{records[j].id}")
    return found


def loop_cognitive_stereotypy(records):
    """(min clamped output similarity over pairs with distinct inputs,
    witness ids) or None; the first pair in (i, j) order wins a tie."""
    return _loop_output_pair(records, 1.0 - 1e-9, lambda s, b: s < b)


def loop_hypersignification(records, s_lo):
    """(max clamped output similarity over pairs whose clamped input
    similarity is below s_lo, witness ids) or None; first pair wins."""
    return _loop_output_pair(records, s_lo, lambda s, b: s > b)


def cov_semantic_entropy(embeddings, ridge):
    """0.5 log((2 pi e)^d det(Sigma + ridge I_d)) from the full d x d
    sample covariance (ddof 1; the zero matrix for a single sample)."""
    E = np.atleast_2d(np.asarray(embeddings, dtype=float))
    n, d = E.shape
    if n < 2:
        cov = np.zeros((d, d))
    else:
        cov = np.atleast_2d(np.cov(E, rowvar=False, ddof=1))
    sign, logdet = np.linalg.slogdet(cov + ridge * np.eye(d))
    assert sign > 0
    return 0.5 * (d * math.log(2.0 * math.pi * math.e) + logdet)


def every_prefix_semantic_warming(records, cfg):
    """(severity, evidence) of semantic_warming from the redundancy and
    entropy of every style prefix, lengths 2..T, each slope the
    least-squares fit to the last cfg.window values; and the prefix
    lengths whose entropy raised a MetricError. Such a prefix inside the
    window raises its error."""
    from pathrisk import metrics
    from pathrisk.registry import fmt
    styles = np.asarray([r.style_embedding for r in records], dtype=float)
    lengths = range(2, len(styles) + 1)
    redundancy, entropy = [], []
    for t in lengths:
        redundancy.append(metrics.avg_pairwise_similarity(styles[:t]))
        try:
            entropy.append(metrics.semantic_entropy(
                styles[:t], ridge=cfg.entropy_ridge))
        except metrics.MetricError as exc:
            entropy.append(exc)

    def slope(series):
        window = series[-cfg.window:]
        for value in window:
            if isinstance(value, Exception):
                raise value
        y = np.asarray(window, dtype=float)
        x = np.arange(len(y), dtype=float)
        xc = x - x.mean()
        return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))

    rising, falling = slope(redundancy), slope(entropy)
    fluency = float(np.mean([metrics.fluency(r.output_token_logprobs)
                             for r in records]))
    severity = fluency if rising > 0.0 or falling < 0.0 else 0.0
    undefined = [t for t, h in zip(lengths, entropy)
                 if isinstance(h, Exception)]
    return severity, {"redundancy_slope": fmt(rising),
                      "entropy_slope": fmt(falling),
                      "mean_fluency": fmt(fluency)}, undefined


def _carries(record, field):
    # "annotations.k" names the key k of the record's annotations
    if field.startswith("annotations."):
        return field.split(".", 1)[1] in record.annotations
    return getattr(record, field) is not None


def loop_validation(records):
    """{detector: {record id: fields the record lacks for it}}, with ()
    for a record the detector can score and the wrong-kind reason for a
    record of the kind the detector does not read, checked field by field
    for every (record, detector) pair."""
    out = {}
    for table, reads, kind in (
            (GENERATIVE_DETECTORS, TraceRecord, "trace"),
            (DISCRIMINATIVE_DETECTORS, ClassificationRecord,
             "classification")):
        for name, required in table.items():
            out[name] = {
                rec.id: (tuple(f for f in required if not _carries(rec, f))
                         if isinstance(rec, reads)
                         else (f"<requires a {kind} record>",))
                for rec in records}
    return out


def loop_mutual_information(xs, ys, bins, seed):
    """metrics.mutual_information by loops: the x projection is the first
    len(xs[0]) draws of random.Random(seed).gauss(0, 1), the y projection
    the next len(ys[0]); each projected value goes to its equal-width bin
    of `bins` over [min, max] (the last bin closed), and the plug-in MI is
    summed over the occupied cells."""
    rng = random.Random(seed)

    def binned(rows):
        p = [rng.gauss(0.0, 1.0) for _ in range(len(rows[0]))]
        values = [sum(a * b for a, b in zip(row, p)) for row in rows]
        lo, hi = min(values), max(values)
        if hi <= lo:
            return [0] * len(values)
        return [min(int(bins * (v - lo) / (hi - lo)), bins - 1)
                for v in values]

    u = binned([list(map(float, row)) for row in xs])
    v = binned([list(map(float, row)) for row in ys])
    n = len(u)
    cells, pu, pv = {}, [0] * bins, [0] * bins
    for a, b in zip(u, v):
        cells[a, b] = cells.get((a, b), 0) + 1
        pu[a] += 1
        pv[b] += 1
    return max(0.0, sum(c / n * math.log(c * n / (pu[a] * pv[b]))
                        for (a, b), c in cells.items()))


def whole_sample_density_check(cfg):
    """density_transform_check's report from the whole sample at once: one
    n x D draw from draws.Generator(cfg.seed), its image under hn, one
    histogramdd per grid, and the widening loop over that one histogrammed
    sample. The transformed density itself is the package's
    holonorm_density, which test_density_integrates_to_the_radial_cdf
    checks against chi_cdf."""
    from pathrisk.draws import Generator
    from pathrisk.holonorm import holonorm_density
    d = cfg.dimension
    x = Generator(cfg.seed).normals((cfg.samples, d))
    y = x / (1.0 + np.linalg.norm(x, axis=1, keepdims=True))
    inside = float(np.mean(np.linalg.norm(y, axis=1) < 1.0))

    bins = cfg.default_bins()
    widened = False
    notes = []
    while True:
        edges = [np.linspace(-1.0, 1.0, bins + 1)] * d
        counts, _ = np.histogramdd(y, bins=edges)
        width = 2.0 / bins
        volume = width ** d
        centers_1d = np.linspace(-1.0 + width / 2.0, 1.0 - width / 2.0, bins)
        grids = np.meshgrid(*([centers_1d] * d), indexing="ij")
        centers = np.stack([g.ravel() for g in grids], axis=1)
        flat_counts = counts.ravel()
        mask = flat_counts >= cfg.min_bin_count
        if mask.any() or bins <= 4:
            break
        bins //= 2
        widened = True
        notes.append(f"no bin reached {cfg.min_bin_count} samples; "
                     f"widened to {bins} bins per axis")
    rel_errors = []
    for count, center in zip(flat_counts[mask], centers[mask]):
        theory = holonorm_density(center)
        if theory <= 0.0:
            continue
        empirical = count / (cfg.samples * volume)
        rel_errors.append(abs(empirical - theory) / theory)
    if mask.any():
        mean_rel_error = float(np.mean(rel_errors))
    else:
        mean_rel_error = math.inf
        notes.append(f"no bin holds {cfg.min_bin_count} samples at {bins} "
                     f"bins per axis; no density was compared")
    return {"dimension": d,
            "samples": cfg.samples,
            "bins_per_axis": bins,
            "bins_used": int(mask.sum()),
            "mean_abs_rel_error": mean_rel_error,
            "passes": mean_rel_error <= cfg.tolerance,
            "tolerance": cfg.tolerance,
            "mass_inside_unit_ball": inside,
            "widened": widened,
            "notes": notes}


def loop_validation_json(records):
    """validation.json of the records from loop_validation. Each record is
    listed once, under the fields it lacks for some detector of its kind,
    in the order in which the kind's table first names them. Each detector
    lists the fields its table entry names and the count of records that
    lack none of them, or is not applicable when none of the records is of
    its kind, unless there are no records."""
    lacks = loop_validation(records)
    lacking = {}
    for rec in records:
        table = (GENERATIVE_DETECTORS if isinstance(rec, TraceRecord)
                 else DISCRIMINATIVE_DETECTORS)
        fields = dict.fromkeys(f for name, required in table.items()
                               for f in required if f in lacks[name][rec.id])
        group = lacking.setdefault(",".join(fields), {"count": 0, "ids": []})
        group["count"] += 1
        group["ids"].append(rec.id)
    detectors = {}
    for name, by_record in lacks.items():
        kind, table = (("trace", GENERATIVE_DETECTORS)
                       if name in GENERATIVE_DETECTORS
                       else ("classification", DISCRIMINATIVE_DETECTORS))
        reason = (f"<requires a {kind} record>",)
        if records and set(by_record.values()) == {reason}:
            detectors[name] = {"not_applicable": reason[0],
                               "count": len(records)}
        else:
            detectors[name] = {"reads": list(table[name]),
                               "available_count": sum(
                                   fields == () for fields in
                                   by_record.values())}
    return {"record_count": len(records), "lacking": lacking,
            "detectors": detectors}


@_schema
class ClassificationRecord:
    """One classifier decision with its full probability vector."""

    id: str = _field("id", mandatory=True)
    features: np.ndarray = _field("vector", mandatory=True)
    predicted_label: int = _field("integer", mandatory=True)
    true_label: int = _field("integer", mandatory=True)
    class_probabilities: np.ndarray = _field("vector", mandatory=True)
    group: Optional[str] = _field("string")
    timestamp_index: Optional[int] = _field("integer")
    is_ood: Optional[bool] = _field("boolean")
    perturbation_pair_id: Optional[str] = _field("string")
    noise_pair_id: Optional[str] = _field("string")
    segment_bounds: Optional[tuple] = _field("bounds")
    ref_segment_bounds: Optional[tuple] = _field("bounds")
    latency_pair_id: Optional[str] = _field("string")
    plausible_labels: Optional[frozenset] = _field("labels")
    annotations: dict = _field("annotations", default_factory=dict)

    @classmethod
    def from_json_dict(cls, obj, where=None):
        """The record of a JSON object, validated; errors name `where`."""
        rec = cls(**_decode_record(cls._decoders, obj, where))
        rec.validate(where)
        return rec

    @property
    def confidence(self):
        return float(np.max(self.class_probabilities))

    @property
    def correct(self):
        return self.predicted_label == self.true_label

    def validate(self, where=None):
        rid = self.id
        p = self.class_probabilities
        if p.min() < 0.0 or p.max() > 1.0:
            raise RecordValidationError("entries outside [0,1]", rid,
                                        "class_probabilities", where)
        total = float(p.sum())
        if abs(total - 1.0) > 1e-9:
            raise RecordValidationError(f"probabilities sum {total:.6g}", rid,
                                        "class_probabilities", where)
        labels = [("true_label", self.true_label)]
        labels += [("plausible_labels", label)
                   for label in sorted(self.plausible_labels or ())]
        for name, label in labels:
            if not 0 <= label < p.size:
                raise RecordValidationError(
                    f"label {label} outside [0, {p.size})", rid, name, where)
        if self.predicted_label != int(p.argmax()):
            raise RecordValidationError(
                f"predicted_label {self.predicted_label} is not the argmax "
                f"of class_probabilities", rid, "predicted_label", where)


def load_classification_records(path):
    """The validated ClassificationRecords of a JSONL file, each line
    parsed and checked whole before the next is read, then checked for a
    duplicated id; the feature widths are compared at the end."""
    records = []
    seen = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {line_no}: malformed JSON "
                                  f"({exc.msg})") from None
            where = f"line {line_no}"
            rec = ClassificationRecord.from_json_dict(obj, where)
            if rec.id in seen:
                raise RecordValidationError("duplicate id", rec.id, "id",
                                            where)
            seen.add(rec.id)
            records.append(rec)
    dims = {r.features.size for r in records}
    if len(dims) > 1:
        raise CorpusError(f"mixed feature dimensions in corpus: "
                          f"{sorted(dims)}")
    return records


def content_pairs(records, key):
    """The pairs of records with the same annotations["content_id"] whose
    annotations[key] differ, each pair ordered by id."""
    return [(a, b)
            for group in group_by(records,
                                  lambda r: r.annotations["content_id"])
            for a, b in combinations(sorted(group, key=attrgetter("id")), 2)
            if a.annotations.get(key) != b.annotations.get(key)]


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




def audit_classification_records(records, cfg):
    """(`outcome_row` objects sorted as the audit sorts them, skip
    reasons) of the 14 detectors over records, each scoring the records
    loop_validation finds eligible, with the n_min floor and skip reasons of
    audit_discriminative."""
    lacks = loop_validation(records)
    outcomes, skipped = [], {}
    for name in DISCRIMINATIVE_DETECTORS:
        eligible = [r for r in records if not lacks[name][r.id]]
        if len(records) < cfg.n_min:
            skipped[name] = (f"{name}: needs >= n_min = {cfg.n_min} "
                             f"records, got {len(records)}")
        elif not eligible:
            skipped[name] = (f"{name}: record {records[0].id!r} lacks "
                             f"{', '.join(lacks[name][records[0].id])}")
        else:
            scorer, threshold = _DETECTORS[name]
            try:
                severity, evidence = scorer(eligible, cfg)
            except DetectorError as exc:
                skipped[name] = str(exc)
                continue
            outcomes.append(DetectorOutcome(
                pathology=name, unit="", severity=severity,
                threshold=threshold(cfg), evidence=evidence))
    outcomes.sort(key=lambda o: o.sort_key())
    return [outcome_row(o) for o in outcomes], skipped


def whole_corpus_audit(records, kb=None, fixtures=(),
                       cfg=generative.GenerativeConfig()):
    """(`outcome_row` objects sorted as 0.6.0 sorted them, skip reasons,
    dropped units) of the 21 generative detectors over whole records. Each
    row's unit and each dropped key is the unit's `record_ids_060` joined
    by ",", and the rows are sorted by pathology, then that join."""
    lacks = loop_validation(records)
    rows, skipped, dropped = [], {}, {}
    for name in GENERATIVE_DETECTORS:
        detector = registry.REGISTRY[name]
        if detector.needs_kb and kb is None:
            skipped[name] = "no knowledge base supplied"
            continue
        eligible = [r for r in records if not lacks[name][r.id]]
        if detector.arity is generative.Arity.RECORD:
            units, reason = eligible, "no record carries the required fields"
        else:
            units, reason = generative._units(detector.arity, eligible,
                                              fixtures)
        lost = {}
        for unit in units:
            joined = ",".join(record_ids_060(detector.arity, unit))
            try:
                outcome = generative.score(name, unit, cfg, kb=kb)
            except (DetectorError, MetricError) as exc:
                lost[joined] = str(exc)
                continue
            rows.append(outcome_row(outcome) | {"unit": joined})
        if lost:
            dropped[name] = lost
        if not any(row["pathology"] == name for row in rows):
            skipped[name] = next(iter(lost.values()), reason)
    rows.sort(key=lambda row: (row["pathology"], row["unit"]))
    return rows, skipped, dropped
