"""The 21 generative pathology detectors over trace records.

`_DETECTORS` defines each one in a row: its arity (what one scored unit
is), its scorer, its firing threshold under the config, and whether it
reads the knowledge base; the registry holds only its required fields.

`audit_generative` alone decides what a detector scores: it builds the
units of its arity from the records its validation report lists, and it
skips a knowledge-base detector without a knowledge base. `score` scores
the unit it is handed; a unit its scorer cannot score is dropped.

Each detector turns its predicate into a severity in [0, 1] that is a
monotone transform of the predicate's slack, with a firing threshold such
that `fired == severity >= threshold` holds exactly. Conjunctions with a
boolean gate score 0 when the gate is off. Ratio predicates use a
log-ratio normalized so the firing point sits at severity 0.5.

Similarity thresholds (s_hi, s_lo, s_indep, gamma) live on the clamped
cosine scale (1+cos)/2.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from . import metrics
from .metrics import (MIEstimatorConfig, coherence, fluency, sim,
                      sim_matrix, sim_row_blocks)
from . import registry
from .registry import (AuditResult, DetectorError, DetectorOutcome,
                       GENERATIVE_DETECTORS, clamp01, content_pairs, fmt,
                       group_by)

# Severity floor for existential predicates ("some entity unknown", "both a
# true and a false claim present"): any positive fraction fires.
EXISTENTIAL_EPS = 1e-9


class Arity(str, Enum):
    RECORD = "record"        # one TraceRecord
    PAIR = "pair"            # two linked records
    SEQUENCE = "sequence"    # an ordered conversation of records
    CORPUS = "corpus"        # an unordered record set
    FIXTURE = "fixture"      # a CausalFixture


@dataclass(frozen=True)
class GenerativeConfig:
    """Crisp defaults for every asymptotic symbol in the detector formulas,
    one value for every detector that reads it; `_DETECTORS` reads the
    thresholds from them. `audit --config` sets the fields from its
    "generative" section, and `mi` from its "mi" section and --seed."""

    s_hi: float = 0.9            # "approximately 1" similarity
    s_lo: float = 0.3            # "weakly related" similarity
    s_indep: float = 0.55        # independence proxy (orthogonal ~ 0.5)
    mi_lo: float = 0.05          # "approximately zero" MI, nats
    f_hi: float = 0.5            # "clearly fluent"
    d_hi: float = 0.5            # high discomfort
    tv_tol: float = 0.02         # "distributions indistinguishable"
    margin: float = 10.0         # delusion probability ratio, > 1
    alpha: float = 2.0           # exaggeration magnitude ratio, > 1
    gamma: float = 0.9           # hypersignification output similarity
    delta: float = 0.9           # abductive-leap output probability
    epsilon: float = 1.0         # contextual drift distance (per corpus)
    rho: float = 0.1             # compression ratio bound
    tau_c: float = 0.5           # minimum coherence
    window: int = 5              # sliding-window width for slopes
    drift_k: int = 3             # contextual drift lag
    entropy_ridge: float = 1e-6  # covariance ridge for entropy series
    expert_style_id: str = "expert_style_centroid"
    mi: MIEstimatorConfig = field(default_factory=MIEstimatorConfig)

    def __post_init__(self):
        if self.margin <= 1.0:
            raise ValueError("margin must exceed 1")
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1")
        if not (0.0 < self.tau_c < 1.0):
            raise ValueError("tau_c must lie in (0,1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        for name in ("s_hi", "s_indep", "gamma", "delta", "f_hi", "d_hi",
                     "tv_tol", "rho"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in [0,1]")
        # s_lo above 1 admits every pair to hypersignification
        for name in ("s_lo", "mi_lo", "entropy_ridge"):
            if not (getattr(self, name) >= 0.0):
                raise ValueError(f"{name} must be non-negative")
        for name, least in (("window", 2), ("drift_k", 1)):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))
                    or value < least):
                raise ValueError(f"{name} must be an integer >= {least}")


def _outputs_distinct(record):
    # output != truth; when either embedding is absent the two candidates
    # are assumed distinct (they were scored separately)
    if record.truth_embedding is None:
        return True
    return sim(record.output_embedding, record.truth_embedding) < 1.0 - 1e-9


# --- record-level detectors -------------------------------------------------

def _log_ratio(numerator, denominator, bound):
    """(severity, ratio) of numerator/denominator against bound > 1:
    log(ratio) / (2 log(bound)), clamped, so ratio == bound lands at 0.5;
    severity 0 at a zero numerator, else 1 at a zero denominator."""
    if numerator == 0.0:
        return 0.0, 0.0
    if denominator == 0.0:
        return 1.0, math.inf
    ratio = numerator / denominator
    return clamp01(math.log(ratio) / (2.0 * math.log(bound))), ratio


def _mean_fluency(records):
    return float(np.mean([fluency(r.output_token_logprobs)
                          for r in records]))


def _score_delusion(record, cfg):
    if not _outputs_distinct(record):
        return 0.0, {"note": "output equals truth"}
    severity, ratio = _log_ratio(record.prob_output_given_input,
                                 record.prob_truth_given_input, cfg.margin)
    return severity, {"probability_ratio": fmt(ratio)}


def _score_illusion(record, cfg):
    if record.in_real_manifold:
        return 0.0, {"note": "output lies on the real manifold"}
    s = sim(record.output_embedding, record.truth_embedding)
    return s, {"truth_similarity": fmt(s)}


def _score_hallucination(record, cfg):
    severity = 0.0 if record.in_real_manifold else 1.0
    return severity, {"in_real_manifold": str(record.in_real_manifold).lower()}


def _score_confabulation(record, cfg, kb):
    c = coherence(record.claim_embeddings, kb)
    return 1.0 - c, {"coherence": fmt(c),
                     "argmax_probability": fmt(record.prob_output_given_input)}


def _score_semantic_compression(record, cfg):
    ratio = record.latent_dim / record.input_dim
    return clamp01(1.0 - ratio), {"compression_ratio": fmt(ratio)}


def _score_exaggeration(record, cfg):
    severity, ratio = _log_ratio(record.output_magnitude,
                                 record.truth_magnitude, cfg.alpha)
    return severity, {"magnitude_ratio": fmt(ratio)}


def _score_uncanny_valley(record, cfg):
    if record.discomfort_score < cfg.d_hi:
        return 0.0, {"note": "discomfort below d_hi"}
    s = sim(record.output_embedding, record.truth_embedding)
    return s, {"human_similarity": fmt(s),
               "discomfort": fmt(record.discomfort_score)}


def _score_pragmatic_misunderstanding(record, cfg):
    s = sim(record.output_embedding, record.intent_embedding)
    return 1.0 - s, {"intent_similarity": fmt(s)}


def _score_semantic_reheating(record, cfg):
    # generated outputs are presented as novel unless annotated otherwise
    presented_novel = record.annotations.get(
        "presented_as_novel", "true").lower() != "false"
    severity = 1.0 if (record.in_train_set and presented_novel) else 0.0
    return severity, {"in_train_set": str(bool(record.in_train_set)).lower(),
                      "presented_as_novel": str(presented_novel).lower()}


def _score_simulated_authority(record, cfg, kb):
    centroid = kb.lookup(cfg.expert_style_id)
    if centroid is None:
        raise DetectorError(
            f"simulated_authority: knowledge base has no entry "
            f"{cfg.expert_style_id!r}")
    style_sim = sim(record.style_embedding, centroid)
    if style_sim < cfg.s_hi:
        return 0.0, {"style_similarity": fmt(style_sim),
                     "note": "style not expert-like"}
    c = coherence(record.claim_embeddings, kb)
    return 1.0 - c, {"style_similarity": fmt(style_sim),
                     "quality_proxy_coherence": fmt(c)}


def _score_abductive_leap(record, cfg):
    if record.has_inference_path:
        return 0.0, {"note": "inference path exists"}
    p = record.prob_output_given_input
    return p, {"output_probability": fmt(p)}


def _score_contextual_drift(record, cfg):
    ctx = record.context_vectors
    k = cfg.drift_k
    if len(ctx) < k + 1:
        raise DetectorError(
            f"contextual_drift: record {record.id!r} has {len(ctx)} context "
            f"vectors, needs >= k+1 = {k + 1}")
    dist = metrics.contextual_distance(ctx[-1], ctx[-1 - k])
    return clamp01(dist / (2.0 * cfg.epsilon)), {"distance": fmt(dist),
                                                 "lag": str(k)}


def _score_referential_hallucination(record, cfg, kb):
    known = kb.entity_ids
    train = {e.strip() for e in
             record.annotations.get("train_entities", "").split(",")
             if e.strip()}
    entities = record.referenced_entities
    if len(entities) == 0:
        raise DetectorError(
            f"referential_hallucination: record {record.id!r} references "
            f"no entities")
    unknown = [e for e in entities if e not in known and e not in train]
    severity = len(unknown) / len(entities)
    return severity, {"unknown_entities": ",".join(sorted(unknown)),
                      "referenced": str(len(entities))}


def _score_semiotic_frankenstein(record, cfg, kb):
    best = sim_matrix(record.claim_embeddings,
                      kb.embedding_matrix()).max(axis=1)
    n = len(best)
    matched = int(np.count_nonzero(best >= cfg.s_hi))
    unmatched = int(np.count_nonzero(best <= cfg.s_lo))
    severity = clamp01(2.0 * min(matched, unmatched) / n)
    return severity, {"matched_claims": str(matched),
                      "unmatched_claims": str(unmatched),
                      "claims": str(n)}


# --- pair / sequence / corpus detectors -------------------------------------

def _score_misattribution(pair, cfg):
    a, b = pair   # same content_id, distinct source_id
    s = sim(a.output_embedding, b.output_embedding)
    return s, {"output_similarity": fmt(s),
               "content_id": a.annotations["content_id"]}


def _score_semantic_drift(records, cfg):
    if len(records) < 3:
        raise DetectorError("semantic_drift: needs >= 3 records in sequence")
    # every turn carries the conversation's intent; the first one's is used
    intent = records[0].intent_embedding
    series = [sim(r.output_embedding, intent) for r in records]
    slope = metrics.windowed_slope(series, cfg.window)
    endpoint = series[-1]
    severity = (1.0 - endpoint) if slope < 0.0 else 0.0
    return severity, {"slope": fmt(slope),
                      "endpoint_similarity": fmt(endpoint)}


def _score_bluffing(records, cfg):
    xs = [r.input_embedding for r in records]
    ys = [r.output_embedding for r in records]
    mi = metrics.mutual_information(xs, ys, cfg.mi)
    mean_fluency = _mean_fluency(records)
    severity = mean_fluency if mi <= cfg.mi_lo else 0.0
    return severity, {"mutual_information": fmt(mi),
                      "mean_fluency": fmt(mean_fluency)}


# the most entries of one row block of the pair detectors' similarity
# matrices; a block holds at least one row
_TILE_ELEMENTS = 1 << 16


def _extreme_output_pair(records, input_bound, none_message, lowest):
    """Lowest (or highest) output similarity over pairs i < j with input
    similarity below input_bound, and its witness ids.

    The input and output similarity matrices are formed in row blocks of
    at most _TILE_ELEMENTS entries, and never less than one row, so the
    memory is O(_TILE_ELEMENTS + n d), not O(n^2). A block's extreme
    replaces the best so far only when strictly better, so a tie goes to
    the first pair in row-major (i, j) order, as over the whole matrix."""
    n = len(records)
    rows = max(1, _TILE_ELEMENTS // max(n, 1))
    inputs = np.asarray([r.input_embedding for r in records], dtype=float)
    outputs = np.asarray([r.output_embedding for r in records], dtype=float)
    fill = np.inf if lowest else -np.inf
    best = (fill, -1, -1)   # (similarity, i, j); i < 0 until a pair counts
    input_blocks = sim_row_blocks(inputs, inputs, rows)
    output_blocks = sim_row_blocks(outputs, outputs, rows)
    for start in range(0, n, rows):
        # the input block lives only until its mask is formed
        excluded = next(input_blocks) >= input_bound
        excluded |= np.tri(len(excluded), n, start, dtype=bool)   # j <= i
        s = next(output_blocks)
        s[excluded] = fill
        i, j = divmod(int(s.argmin() if lowest else s.argmax()), n)
        value = float(s[i, j])
        if value < best[0] if lowest else value > best[0]:
            best = (value, start + i, j)
    value, i, j = best
    if i < 0:
        raise DetectorError(none_message)
    return value, f"{records[i].id},{records[j].id}"


def _score_cognitive_stereotypy(records, cfg):
    worst, pair = _extreme_output_pair(
        records, 1.0 - 1e-9,
        "cognitive_stereotypy: no pair of records with distinct inputs",
        lowest=True)
    return worst, {"min_output_similarity": fmt(worst),
                   "witness_pair": pair}


def _score_hypersignification(records, cfg):
    best, pair = _extreme_output_pair(
        records, cfg.s_lo,
        "hypersignification: no weakly related input pair in corpus",
        lowest=False)
    return best, {"max_output_similarity": fmt(best),
                  "witness_pair": pair}


def _score_semantic_warming(records, cfg):
    """Slopes over the last cfg.window style prefixes, the only ones formed."""
    if len(records) < 4:
        raise DetectorError("semantic_warming: needs >= 4 records in sequence")
    lengths = sorted({r.style_embedding.size for r in records})
    if len(lengths) > 1:
        raise DetectorError(f"semantic_warming: style embeddings have "
                            f"mixed lengths {lengths}")
    styles = np.asarray([r.style_embedding for r in records], dtype=float)
    prefixes = [styles[:t] for t in range(
        max(2, len(styles) - cfg.window + 1), len(styles) + 1)]
    davg_series = [metrics.avg_pairwise_similarity(p) for p in prefixes]
    entropy_series = [metrics.semantic_entropy(p, ridge=cfg.entropy_ridge)
                      for p in prefixes]
    slope_redundancy = metrics.windowed_slope(davg_series, cfg.window)
    slope_entropy = metrics.windowed_slope(entropy_series, cfg.window)
    mean_fluency = _mean_fluency(records)
    warming = slope_redundancy > 0.0 or slope_entropy < 0.0
    severity = mean_fluency if warming else 0.0
    return severity, {"redundancy_slope": fmt(slope_redundancy),
                      "entropy_slope": fmt(slope_entropy),
                      "mean_fluency": fmt(mean_fluency)}


def _tv(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def _score_causal_failure(fixture, cfg):
    stats = {}
    candidates = []
    if fixture.edge_x_to_y:
        marginal = fixture.observational_marginal()
        tv_do = max(_tv(row, marginal) for row in fixture.interventional_table)
        stats["max_tv_do_vs_marginal"] = fmt(tv_do)
        candidates.append(tv_do)
    if fixture.secondary_interventional is not None:
        tv_zx = _tv(fixture.interventional_table.mean(axis=0),
                    fixture.secondary_interventional.mean(axis=0))
        stats["tv_do_x_vs_do_z"] = fmt(tv_zx)
        candidates.append(tv_zx)
    if not candidates:
        raise DetectorError("causal_inference_failure: fixture declares no "
                            "edge and has no secondary intervention")
    severity = clamp01(1.0 - min(candidates))
    return severity, stats


class _Detector(NamedTuple):
    arity: Arity          # what one scored unit is
    scorer: Callable      # (unit, cfg), then the knowledge base if needs_kb
    threshold: Callable   # cfg -> the firing threshold
    needs_kb: bool = False


_DETECTORS = {
    "delusion": _Detector(Arity.RECORD, _score_delusion, lambda c: 0.5),
    "illusion": _Detector(Arity.RECORD, _score_illusion, lambda c: c.s_hi),
    "hallucination": _Detector(Arity.RECORD, _score_hallucination,
                               lambda c: 0.5),
    "confabulation": _Detector(Arity.RECORD, _score_confabulation,
                               lambda c: 1.0 - c.tau_c, needs_kb=True),
    "misattribution": _Detector(Arity.PAIR, _score_misattribution,
                                lambda c: c.s_hi),
    "semantic_drift": _Detector(Arity.SEQUENCE, _score_semantic_drift,
                                lambda c: 1.0 - c.s_lo),
    "semantic_compression": _Detector(Arity.RECORD,
                                      _score_semantic_compression,
                                      lambda c: 1.0 - c.rho),
    "exaggeration": _Detector(Arity.RECORD, _score_exaggeration,
                              lambda c: 0.5),
    "causal_inference_failure": _Detector(Arity.FIXTURE,
                                          _score_causal_failure,
                                          lambda c: 1.0 - c.tv_tol),
    "uncanny_valley": _Detector(Arity.RECORD, _score_uncanny_valley,
                                lambda c: c.s_hi),
    "bluffing": _Detector(Arity.CORPUS, _score_bluffing, lambda c: c.f_hi),
    "cognitive_stereotypy": _Detector(Arity.CORPUS,
                                      _score_cognitive_stereotypy,
                                      lambda c: c.s_hi),
    "pragmatic_misunderstanding": _Detector(
        Arity.RECORD, _score_pragmatic_misunderstanding,
        lambda c: 1.0 - c.s_indep),
    "hypersignification": _Detector(Arity.CORPUS, _score_hypersignification,
                                    lambda c: c.gamma),
    "semantic_reheating": _Detector(Arity.RECORD, _score_semantic_reheating,
                                    lambda c: 0.5),
    "semantic_warming": _Detector(Arity.SEQUENCE, _score_semantic_warming,
                                  lambda c: c.f_hi),
    "simulated_authority": _Detector(Arity.RECORD, _score_simulated_authority,
                                     lambda c: 1.0 - c.tau_c, needs_kb=True),
    "abductive_leap": _Detector(Arity.RECORD, _score_abductive_leap,
                                lambda c: c.delta),
    "contextual_drift": _Detector(Arity.RECORD, _score_contextual_drift,
                                  lambda c: 0.5),
    "referential_hallucination": _Detector(
        Arity.RECORD, _score_referential_hallucination,
        lambda c: EXISTENTIAL_EPS, needs_kb=True),
    "semiotic_frankenstein": _Detector(
        Arity.RECORD, _score_semiotic_frankenstein,
        lambda c: EXISTENTIAL_EPS, needs_kb=True),
}
assert list(_DETECTORS) == list(GENERATIVE_DETECTORS)


def _unit_ids(arity, data):
    """The record ids of the outcome scored on one unit of that arity."""
    if arity is Arity.FIXTURE:
        return (f"{data.x_name}->{data.y_name}",)
    if arity is Arity.RECORD:
        return (data.id,)
    if arity is Arity.PAIR:
        return tuple(sorted(r.id for r in data))
    if arity is Arity.SEQUENCE:
        cid = data[0].annotations.get("conversation_id", "")
        return (cid,) if cid else ()
    return ()


def score(pathology, data, cfg=GenerativeConfig(), kb=None):
    """Score one generative detector on a unit `audit_generative` built:
    a TraceRecord for record-level detectors, a pair of records for
    misattribution, a record list for the corpus/sequence detectors, and a
    CausalFixture for causal_inference_failure. No field, shape or count
    is checked here."""
    detector = _DETECTORS[pathology]
    severity, evidence = detector.scorer(
        data, cfg, *((kb,) if detector.needs_kb else ()))
    return DetectorOutcome(pathology=pathology,
                           record_ids=_unit_ids(detector.arity, data),
                           severity=severity,
                           threshold=detector.threshold(cfg),
                           evidence=evidence)


def _units(arity, eligible, fixtures):
    """The units a detector of that arity scores; the reason if none."""
    if arity is Arity.RECORD:
        return eligible, "no record carries the required fields"
    if arity is Arity.PAIR:
        return (content_pairs(eligible, "source_id"),
                "no content-matched pair with distinct sources")
    if arity is Arity.FIXTURE:
        return list(fixtures), "no causal fixtures supplied"
    if arity is Arity.SEQUENCE:
        return (group_by(eligible,
                         lambda r: r.annotations.get("conversation_id", "")),
                "no conversation long enough")
    return ([eligible] if len(eligible) >= 2 else [],
            "fewer than 2 eligible records")


def audit_generative(corpus, kb=None, fixtures=(), cfg=GenerativeConfig()):
    """Run every generative detector that has the data it needs.

    The corpus's `validate_corpus` report is built once, and each detector
    takes the records it lists as available; the result carries the report
    as `validation`. Record-level detectors score each record carrying their
    fields; the sequence detectors score each conversation (annotation
    `conversation_id`, whole corpus when absent); misattribution scores
    every content-matched source-mismatched pair; the causal detector
    scores each fixture. Each unit is scored on its own: one that fails is
    listed in `dropped` with its reason, and the detector's other units are
    still scored. A detector that scores nothing is reported as skipped.
    Outcomes are sorted by (pathology, record ids).
    """
    # looked up on its module, where the traced benchmark run rebinds it
    validation = registry.validate_corpus(corpus)
    outcomes = []
    skipped = {}
    dropped = {}
    for pathology, detector in _DETECTORS.items():
        if detector.needs_kb and kb is None:
            skipped[pathology] = "no knowledge base supplied"
            continue
        eligible = validation.eligible(pathology, corpus)
        units, reason = _units(detector.arity, eligible, fixtures)
        scored = 0
        lost = {}
        for unit in units:
            try:
                outcomes.append(score(pathology, unit, cfg, kb=kb))
                scored += 1
            except (DetectorError, metrics.MetricError) as exc:
                lost[",".join(_unit_ids(detector.arity, unit))] = str(exc)
        if lost:
            dropped[pathology] = lost
        if not scored:
            skipped[pathology] = next(iter(lost.values()), reason)
    outcomes.sort(key=lambda o: o.sort_key())
    return AuditResult(outcomes=tuple(outcomes), skipped=skipped,
                       dropped=dropped, validation=validation)
