"""The 21 generative pathology detectors over trace records.

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

import numpy as np

from . import metrics
from .metrics import (MIEstimatorConfig, clamp01, coherence, fluency, sim,
                      sim_matrix)
from .records import CausalFixture, TraceRecord
from . import registry
# AuditResult, DetectorError and FieldUnavailableError are shared by both
# audits and stay importable from here
from .registry import (EXISTENTIAL_EPS, Arity, AuditResult, DetectorError,
                       DetectorOutcome, FieldUnavailableError,
                       GENERATIVE_DETECTORS, missing_fields)


@dataclass(frozen=True)
class GenerativeConfig:
    """Crisp defaults for every asymptotic symbol in the detector formulas,
    one value for every detector that reads it; `_DETECTORS` reads the
    thresholds from them. `audit --config` sets the fields from its
    "generative" section, and `mi` from its "mi" section."""

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


def _fmt(x):
    return f"{x:.12g}"


def _outputs_distinct(record):
    # output != truth; when either embedding is absent the two candidates
    # are assumed distinct (they were scored separately)
    if record.truth_embedding is None:
        return True
    return sim(record.output_embedding, record.truth_embedding) < 1.0 - 1e-9


# --- record-level detectors -------------------------------------------------

def _score_delusion(record, cfg):
    p_out = record.prob_output_given_input
    p_truth = record.prob_truth_given_input
    if not _outputs_distinct(record):
        return 0.0, {"note": "output equals truth"}
    cap = 2.0 * math.log(cfg.margin)  # ratio == margin lands at 0.5
    if p_out == 0.0:
        severity = 0.0
        ratio = 0.0
    elif p_truth == 0.0:
        severity = 1.0
        ratio = math.inf
    else:
        ratio = p_out / p_truth
        severity = clamp01(math.log(ratio) / cap)
    return severity, {"probability_ratio": _fmt(ratio)}


def _score_illusion(record, cfg):
    if record.in_real_manifold:
        return 0.0, {"note": "output lies on the real manifold"}
    s = sim(record.output_embedding, record.truth_embedding)
    return s, {"truth_similarity": _fmt(s)}


def _score_hallucination(record, cfg):
    severity = 0.0 if record.in_real_manifold else 1.0
    return severity, {"in_real_manifold": str(record.in_real_manifold).lower()}


def _score_confabulation(record, cfg, kb):
    c = coherence(record.claim_embeddings, kb)
    return 1.0 - c, {"coherence": _fmt(c),
                     "argmax_probability": _fmt(record.prob_output_given_input)}


def _score_semantic_compression(record, cfg):
    ratio = record.latent_dim / record.input_dim
    return clamp01(1.0 - ratio), {"compression_ratio": _fmt(ratio)}


def _score_exaggeration(record, cfg):
    out_m, truth_m = record.output_magnitude, record.truth_magnitude
    cap = 2.0 * math.log(cfg.alpha)
    if out_m == 0.0:
        severity, ratio = 0.0, 0.0
    elif truth_m == 0.0:
        severity, ratio = 1.0, math.inf
    else:
        ratio = out_m / truth_m
        severity = clamp01(math.log(ratio) / cap)
    return severity, {"magnitude_ratio": _fmt(ratio)}


def _score_uncanny_valley(record, cfg):
    if record.discomfort_score < cfg.d_hi:
        return 0.0, {"note": "discomfort below d_hi"}
    s = sim(record.output_embedding, record.truth_embedding)
    return s, {"human_similarity": _fmt(s),
               "discomfort": _fmt(record.discomfort_score)}


def _score_pragmatic_misunderstanding(record, cfg):
    s = sim(record.output_embedding, record.intent_embedding)
    return 1.0 - s, {"intent_similarity": _fmt(s)}


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
        return 0.0, {"style_similarity": _fmt(style_sim),
                     "note": "style not expert-like"}
    c = coherence(record.claim_embeddings, kb)
    return 1.0 - c, {"style_similarity": _fmt(style_sim),
                     "quality_proxy_coherence": _fmt(c)}


def _score_abductive_leap(record, cfg):
    if record.has_inference_path:
        return 0.0, {"note": "inference path exists"}
    p = record.prob_output_given_input
    return p, {"output_probability": _fmt(p)}


def _score_contextual_drift(record, cfg):
    ctx = record.context_vectors
    k = cfg.drift_k
    if len(ctx) < k + 1:
        raise DetectorError(
            f"contextual_drift: record {record.id!r} has {len(ctx)} context "
            f"vectors, needs >= k+1 = {k + 1}")
    dist = metrics.contextual_distance(ctx[-1], ctx[-1 - k])
    return clamp01(dist / (2.0 * cfg.epsilon)), {"distance": _fmt(dist),
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
    a, b = pair
    if a.annotations.get("content_id") != b.annotations.get("content_id"):
        raise DetectorError("misattribution: pair does not share content_id")
    if a.annotations.get("source_id") == b.annotations.get("source_id"):
        raise DetectorError("misattribution: pair shares source_id")
    s = sim(a.output_embedding, b.output_embedding)
    return s, {"output_similarity": _fmt(s),
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
    return severity, {"slope": _fmt(slope),
                      "endpoint_similarity": _fmt(endpoint)}


def _score_bluffing(records, cfg):
    xs = [r.input_embedding for r in records]
    ys = [r.output_embedding for r in records]
    mi = metrics.mutual_information(xs, ys, cfg.mi)
    mean_fluency = float(np.mean([fluency(r.output_token_logprobs)
                                  for r in records]))
    severity = mean_fluency if mi <= cfg.mi_lo else 0.0
    return severity, {"mutual_information": _fmt(mi),
                      "mean_fluency": _fmt(mean_fluency)}


def _extreme_output_pair(records, input_bound, none_message, lowest):
    """Lowest (or highest) output similarity over pairs i < j with input
    similarity below input_bound, and its witness ids; ties go to the
    first pair in row-major (i, j) order."""
    inputs = np.asarray([r.input_embedding for r in records], dtype=float)
    excluded = sim_matrix(inputs, inputs) >= input_bound
    excluded |= np.tri(len(records), dtype=bool)
    if excluded.all():
        raise DetectorError(none_message)
    outputs = np.asarray([r.output_embedding for r in records], dtype=float)
    s = sim_matrix(outputs, outputs)
    s[excluded] = np.inf if lowest else -np.inf
    i, j = divmod(int(s.argmin() if lowest else s.argmax()), len(records))
    return float(s[i, j]), f"{records[i].id},{records[j].id}"


def _score_cognitive_stereotypy(records, cfg):
    worst, pair = _extreme_output_pair(
        records, 1.0 - 1e-9,
        "cognitive_stereotypy: no pair of records with distinct inputs",
        lowest=True)
    return worst, {"min_output_similarity": _fmt(worst),
                   "witness_pair": pair}


def _score_hypersignification(records, cfg):
    best, pair = _extreme_output_pair(
        records, cfg.s_lo,
        "hypersignification: no weakly related input pair in corpus",
        lowest=False)
    return best, {"max_output_similarity": _fmt(best),
                  "witness_pair": pair}


def _score_semantic_warming(records, cfg):
    if len(records) < 4:
        raise DetectorError("semantic_warming: needs >= 4 records in sequence")
    lengths = sorted({r.style_embedding.size for r in records})
    if len(lengths) > 1:
        raise DetectorError(f"semantic_warming: style embeddings have "
                            f"mixed lengths {lengths}")
    styles = np.asarray([r.style_embedding for r in records], dtype=float)
    davg_series = [metrics.avg_pairwise_similarity(styles[:t])
                   for t in range(2, len(styles) + 1)]
    entropy_series = [metrics.semantic_entropy(styles[:t],
                                               ridge=cfg.entropy_ridge)
                      for t in range(2, len(styles) + 1)]
    slope_redundancy = metrics.windowed_slope(davg_series, cfg.window)
    slope_entropy = metrics.windowed_slope(entropy_series, cfg.window)
    mean_fluency = float(np.mean([fluency(r.output_token_logprobs)
                                  for r in records]))
    warming = slope_redundancy > 0.0 or slope_entropy < 0.0
    severity = mean_fluency if warming else 0.0
    return severity, {"redundancy_slope": _fmt(slope_redundancy),
                      "entropy_slope": _fmt(slope_entropy),
                      "mean_fluency": _fmt(mean_fluency)}


def _tv(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def _score_causal_failure(fixture, cfg):
    stats = {}
    candidates = []
    if fixture.edge_x_to_y:
        marginal = fixture.observational_marginal()
        tv_do = max(_tv(row, marginal) for row in fixture.interventional_table)
        stats["max_tv_do_vs_marginal"] = _fmt(tv_do)
        candidates.append(tv_do)
    if fixture.secondary_interventional is not None:
        tv_zx = _tv(fixture.interventional_table.mean(axis=0),
                    fixture.secondary_interventional.mean(axis=0))
        stats["tv_do_x_vs_do_z"] = _fmt(tv_zx)
        candidates.append(tv_zx)
    if not candidates:
        raise DetectorError("causal_inference_failure: fixture declares no "
                            "edge and has no secondary intervention")
    severity = clamp01(1.0 - min(candidates))
    return severity, stats


# detector -> (scorer, its firing threshold under a config). A scorer takes
# (unit, cfg), plus the knowledge base where the registry says `needs_kb`.
_DETECTORS = {
    "delusion": (_score_delusion, lambda c: 0.5),
    "illusion": (_score_illusion, lambda c: c.s_hi),
    "hallucination": (_score_hallucination, lambda c: 0.5),
    "confabulation": (_score_confabulation, lambda c: 1.0 - c.tau_c),
    "misattribution": (_score_misattribution, lambda c: c.s_hi),
    "semantic_drift": (_score_semantic_drift, lambda c: 1.0 - c.s_lo),
    "semantic_compression": (_score_semantic_compression,
                             lambda c: 1.0 - c.rho),
    "exaggeration": (_score_exaggeration, lambda c: 0.5),
    "causal_inference_failure": (_score_causal_failure,
                                 lambda c: 1.0 - c.tv_tol),
    "uncanny_valley": (_score_uncanny_valley, lambda c: c.s_hi),
    "bluffing": (_score_bluffing, lambda c: c.f_hi),
    "cognitive_stereotypy": (_score_cognitive_stereotypy, lambda c: c.s_hi),
    "pragmatic_misunderstanding": (_score_pragmatic_misunderstanding,
                                   lambda c: 1.0 - c.s_indep),
    "hypersignification": (_score_hypersignification, lambda c: c.gamma),
    "semantic_reheating": (_score_semantic_reheating, lambda c: 0.5),
    "semantic_warming": (_score_semantic_warming, lambda c: c.f_hi),
    "simulated_authority": (_score_simulated_authority,
                            lambda c: 1.0 - c.tau_c),
    "abductive_leap": (_score_abductive_leap, lambda c: c.delta),
    "contextual_drift": (_score_contextual_drift, lambda c: 0.5),
    "referential_hallucination": (_score_referential_hallucination,
                                  lambda c: EXISTENTIAL_EPS),
    "semiotic_frankenstein": (_score_semiotic_frankenstein,
                              lambda c: EXISTENTIAL_EPS),
}
assert set(_DETECTORS) == set(GENERATIVE_DETECTORS)


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
    """Score one generative detector on data matching its arity.

    data is a TraceRecord for record-level detectors, a pair of records for
    misattribution, a record sequence for the corpus/sequence detectors,
    and a CausalFixture for causal_inference_failure.
    """
    info = GENERATIVE_DETECTORS.get(pathology)
    if info is None:
        raise DetectorError(f"unknown generative pathology {pathology!r}")
    if info.needs_kb and kb is None:
        raise DetectorError(f"{pathology}: needs a knowledge base")
    scorer, threshold = _DETECTORS[pathology]
    if info.arity is Arity.FIXTURE:
        if not isinstance(data, CausalFixture):
            raise DetectorError(f"{pathology}: expected a CausalFixture")
        records = ()
    elif info.arity is Arity.RECORD:
        if not isinstance(data, TraceRecord):
            raise DetectorError(f"{pathology}: expected a single TraceRecord")
        records = (data,)
    elif info.arity is Arity.PAIR:
        data = records = tuple(data)
        if len(data) != 2 or not all(isinstance(r, TraceRecord)
                                     for r in data):
            raise DetectorError(f"{pathology}: expected a pair of records")
    else:
        if isinstance(data, TraceRecord):
            raise DetectorError(f"{pathology}: corpus detector needs a "
                                f"record sequence, got a single record")
        data = records = list(data)
        if len(data) < 2:
            raise DetectorError(f"{pathology}: needs >= 2 records")
    for rec in records:
        lacking = missing_fields(rec, info)
        if lacking:
            raise FieldUnavailableError(pathology, rec.id, lacking)
    severity, evidence = scorer(data, cfg, *((kb,) if info.needs_kb else ()))
    return DetectorOutcome(pathology=pathology,
                           record_ids=_unit_ids(info.arity, data),
                           severity=severity, threshold=threshold(cfg),
                           evidence=evidence)


def _conversations(records):
    groups = {}
    for rec in records:
        groups.setdefault(rec.annotations.get("conversation_id", ""),
                          []).append(rec)
    return [groups[k] for k in sorted(groups)]


def _misattribution_pairs(records):
    by_content = {}
    for rec in records:
        by_content.setdefault(rec.annotations["content_id"], []).append(rec)
    pairs = []
    for content_id in sorted(by_content):
        group = sorted(by_content[content_id], key=lambda r: r.id)
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if (group[i].annotations["source_id"]
                        != group[j].annotations["source_id"]):
                    pairs.append((group[i], group[j]))
    return pairs


def _units(arity, eligible, fixtures):
    """The units a detector of that arity scores; the reason if none."""
    if arity is Arity.RECORD:
        return eligible, "no record carries the required fields"
    if arity is Arity.PAIR:
        return (_misattribution_pairs(eligible),
                "no content-matched pair with distinct sources")
    if arity is Arity.FIXTURE:
        return list(fixtures), "no causal fixtures supplied"
    if arity is Arity.SEQUENCE:
        return _conversations(eligible), "no conversation long enough"
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
    for pathology, info in GENERATIVE_DETECTORS.items():
        if info.needs_kb and kb is None:
            skipped[pathology] = "no knowledge base supplied"
            continue
        eligible = validation.eligible(pathology, corpus)
        units, reason = _units(info.arity, eligible, fixtures)
        scored = 0
        lost = {}
        for unit in units:
            try:
                outcomes.append(score(pathology, unit, cfg, kb=kb))
                scored += 1
            except (DetectorError, metrics.MetricError) as exc:
                lost[",".join(_unit_ids(info.arity, unit))] = str(exc)
        if lost:
            dropped[pathology] = lost
        if not scored:
            skipped[pathology] = next(iter(lost.values()), reason)
    outcomes.sort(key=lambda o: o.sort_key())
    return AuditResult(outcomes=tuple(outcomes), skipped=skipped,
                       dropped=dropped, validation=validation)
