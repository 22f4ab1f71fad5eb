"""The 21 generative pathology detectors over trace records.

Each is a row of `registry.REGISTRY`, with its arity, loss kind, fields,
threshold under a `GenerativeConfig` and whether it reads the knowledge
base; its scorer is `_score_<id>` here, which `_SCORERS` finds by name.

`audit_generative` and its per-record step `RecordStep` alone decide what
a detector scores. The step scores the record-level detectors on each
record as it is read, where the registry finds the record carries their
fields, and keeps of it only the fields the other detectors read; the
audit then builds the units of those detectors' arities from the records
its validation report lists. Both skip a knowledge-base detector without
a knowledge base. `score` scores the unit it is handed; a unit its scorer
cannot score is dropped.

Each detector turns its predicate into a severity in [0, 1] that is a
monotone transform of the predicate's slack, with a firing threshold such
that `fired == severity >= threshold` holds exactly. Conjunctions with a
boolean gate score 0 when the gate is off. Ratio predicates use a
log-ratio normalized so the firing point sits at severity 0.5.

Similarity thresholds (s_hi, s_lo, s_indep, gamma) live on the clamped
cosine scale (1+cos)/2.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter

import numpy as np

from . import metrics
from .metrics import coherence, fluency, sim, sim_row_blocks
from . import registry
from .records import TraceRecord
from .registry import (REGISTRY, Arity, AuditResult, DetectorError,
                       DetectorOutcome, GENERATIVE_DETECTORS, clamp01, fmt,
                       group_by)


@dataclass(frozen=True)
class GenerativeConfig:
    """Crisp defaults for every asymptotic symbol in the detector formulas,
    one value for every detector that reads it; each detector's
    `registry.REGISTRY` row reads its threshold from them. `audit
    --config` sets the fields from its "generative" section, all but
    `seed`, which `audit` takes from --seed only, so its manifest holds the
    seed used. `mi_bins` and `seed` are the bins per axis and the
    projection seed of bluffing's `metrics.mutual_information`."""

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
    mi_bins: int = 4             # MI bins per axis
    seed: int = 0                # MI projection seed

    def __post_init__(self):
        if not (self.margin > 1.0):
            raise ValueError("margin must exceed 1")
        if not (self.alpha > 1.0):
            raise ValueError("alpha must exceed 1")
        if not (0.0 < self.tau_c < 1.0):
            raise ValueError("tau_c must lie in (0,1)")
        if not (self.epsilon > 0.0):
            raise ValueError("epsilon must be positive")
        for name in ("s_hi", "s_indep", "gamma", "delta", "f_hi", "d_hi",
                     "tv_tol", "rho"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in [0,1]")
        # s_lo above 1 admits every pair to hypersignification
        for name in ("s_lo", "mi_lo", "entropy_ridge"):
            if not (getattr(self, name) >= 0.0):
                raise ValueError(f"{name} must be non-negative")
        for name, least in (("window", 2), ("drift_k", 1), ("mi_bins", 2),
                            ("seed", 0)):
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
    best = metrics.kb_match(record.claim_embeddings, kb)
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
    # the conversation's intent is its first turn's: RecordStep keeps it on
    # that turn only. The slope reads only the last window similarities, so
    # only they are formed
    intent = records[0].intent_embedding
    series = [sim(r.output_embedding, intent)
              for r in records[-cfg.window:]]
    slope = metrics.windowed_slope(series, cfg.window)
    endpoint = series[-1]
    severity = (1.0 - endpoint) if slope < 0.0 else 0.0
    return severity, {"slope": fmt(slope),
                      "endpoint_similarity": fmt(endpoint)}


def _score_bluffing(records, cfg):
    xs = [r.input_embedding for r in records]
    ys = [r.output_embedding for r in records]
    mi = metrics.mutual_information(xs, ys, cfg.mi_bins, cfg.seed)
    mean_fluency = _mean_fluency(records)
    severity = mean_fluency if mi <= cfg.mi_lo else 0.0
    return severity, {"mutual_information": fmt(mi),
                      "mean_fluency": fmt(mean_fluency)}


# the most entries of one row block of the pair detectors' similarity
# matrices; a block holds at least one row
_TILE_ELEMENTS = 1 << 16


def _self_similarity_blocks(vectors, rows):
    """`sim_row_blocks` of the vectors, stacked into one matrix, against
    themselves. The matrix is stacked when the first block is asked for
    and freed once the last block is formed."""
    matrix = np.asarray(vectors, dtype=float)
    blocks = sim_row_blocks(matrix, matrix, rows)
    del matrix   # sim_row_blocks holds the only reference
    yield from blocks


def _extreme_output_pair(records, input_bound, none_message, lowest):
    """Lowest (or highest) output similarity over pairs i < j with input
    similarity below input_bound, and its witness ids.

    The input and output similarity matrices are formed in row blocks of
    at most _TILE_ELEMENTS entries, and never less than one row, so the
    memory is O(_TILE_ELEMENTS + n d), not O(n^2). A block's extreme
    replaces the best so far only when strictly better, so a tie goes to
    the first pair in row-major (i, j) order, as over the whole matrix.

    The stacked n x d input matrix lives from the first input block to
    the last; the output matrix is stacked only after the first input
    block's mask is formed. So when one block covers every row, the input
    matrix is freed before the output matrix exists, and at most one
    stacked matrix is alive at once, as no block copies its rows; with
    more blocks, both matrices are alive from the first output block to
    the last input block."""
    n = len(records)
    rows = max(1, _TILE_ELEMENTS // max(n, 1))
    fill = np.inf if lowest else -np.inf
    best = (fill, -1, -1)   # (similarity, i, j); i < 0 until a pair counts
    input_blocks = _self_similarity_blocks(
        [r.input_embedding for r in records], rows)
    output_blocks = _self_similarity_blocks(
        [r.output_embedding for r in records], rows)
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


def _score_causal_inference_failure(fixture, cfg):
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


# each detector -> its scorer: (unit, cfg), then the knowledge base if the
# detector's row says it needs one
_SCORERS = {name: globals()[f"_score_{name}"]
            for name in GENERATIVE_DETECTORS}


def _unit(arity, data):
    """The unit id of the outcome scored on one unit of that arity, the
    key its `dropped` entry has if it is dropped: a record's id; the ids
    of a pair, sorted and joined by ","; a conversation's id, or "" where
    its records have none; "x->y" for a causal fixture; "" for the
    corpus."""
    if arity is Arity.FIXTURE:
        return f"{data.x_name}->{data.y_name}"
    if arity is Arity.RECORD:
        return data.id
    if arity is Arity.PAIR:
        return ",".join(sorted(r.id for r in data))
    if arity is Arity.SEQUENCE:
        return _conversation(data[0])
    return ""


def score(pathology, data, cfg=GenerativeConfig(), kb=None):
    """Score one generative detector on a unit that `audit_generative` or
    its `RecordStep` built: a TraceRecord for record-level detectors (as
    read, every field), a pair of records for
    misattribution, a record list for the corpus/sequence detectors, and a
    CausalFixture for causal_inference_failure. No field, shape or count
    is checked here."""
    detector = REGISTRY[pathology]
    severity, evidence = _SCORERS[pathology](
        data, cfg, *((kb,) if detector.needs_kb else ()))
    return DetectorOutcome(pathology=pathology,
                           unit=_unit(detector.arity, data),
                           severity=severity,
                           threshold=detector.threshold(cfg),
                           evidence=evidence)


def _source_pairs(records):
    """The pairs of records with the same annotations["content_id"] whose
    annotations["source_id"] differ, each pair ordered by id: per content
    id in sorted order, the pairs in the order of `combinations` over the
    id-sorted records."""
    return [(a, b)
            for group in group_by(records,
                                  lambda r: r.annotations["content_id"])
            for a, b in combinations(sorted(group, key=attrgetter("id")), 2)
            if (a.annotations.get("source_id")
                != b.annotations.get("source_id"))]


def _conversation(record):
    """The conversation a record is a turn of: its annotation
    `conversation_id`, or "" where it has none."""
    return record.annotations.get("conversation_id", "")


def _units(arity, eligible, fixtures):
    """The units a pair, fixture, sequence or corpus detector scores; the
    reason if none."""
    if arity is Arity.PAIR:
        return (_source_pairs(eligible),
                "no content-matched pair with distinct sources")
    if arity is Arity.FIXTURE:
        return list(fixtures), "no causal fixtures supplied"
    if arity is Arity.SEQUENCE:
        return group_by(eligible, _conversation), "no conversation long enough"
    return ([eligible] if len(eligible) >= 2 else [],
            "fewer than 2 eligible records")


def _score_units(pathology, units, cfg, kb=None):
    """(the detector's outcomes on the units it scores, {unit: reason} of
    those it drops)."""
    arity = REGISTRY[pathology].arity
    outcomes, lost = [], {}
    for unit in units:
        try:
            outcomes.append(score(pathology, unit, cfg, kb=kb))
        except (DetectorError, metrics.MetricError) as exc:
            lost[_unit(arity, unit)] = str(exc)
    return outcomes, lost


# the fields that the pair, sequence and corpus detectors require, with the
# id and the annotations, which name and group their units: all that
# RecordStep keeps of a record. Of these, only semantic_drift reads the
# intent, and only its conversation's first turn's, so the step keeps the
# intent on that turn alone
_KEPT = tuple(dict.fromkeys(
    ["id", "annotations"]
    + [f.split(".")[0] for name in GENERATIVE_DETECTORS
       if REGISTRY[name].arity in (Arity.PAIR, Arity.SEQUENCE, Arity.CORPUS)
       for f in REGISTRY[name].fields]))


class RecordStep:
    """The per-record step of a generative audit, called on each record
    with its index as it is read: `load_trace_corpus(path, record=step)`.

    It takes the record's `registry.presence` code, scores each
    record-level detector whose fields the record carries (a
    knowledge-base one only with a knowledge base), and returns the record
    trimmed to the fields the pair, sequence and corpus detectors read
    (`_KEPT`). `load_trace_corpus` frees a line's parse tree before the
    step scores its record, and the full record, with every vector the
    step does not keep, before it reads the next line; so the load holds
    what the steps returned plus one line. A conversation's intent is kept
    once: on its first record in corpus order that carries
    semantic_drift's fields, the one record whose intent that detector
    reads; every other record is returned with no intent.
    `audit_generative` takes the codes, the outcomes and the dropped units
    from it.

    Only record-level detectors read the knowledge base, so the step
    holds it in `kb` only until the load ends: `audit_generative` sets
    `kb` to None before it builds the other detectors' units, and a
    caller that keeps no reference of its own has the knowledge base
    freed then. It drops `intents`, the conversations whose intent is
    kept, at the same point. A knowledge-base detector absent from
    `found` had none."""

    def __init__(self, kb=None, cfg=GenerativeConfig()):
        self.kb, self.cfg = kb, cfg
        self.rows = []       # one presence code per record, in corpus order
        self.intents = set()   # the conversations whose intent is kept
        # each record-level detector it runs -> its outcomes, and
        # {record id: reason} of the records it dropped
        self.found = {name: [] for name in GENERATIVE_DETECTORS
                      if REGISTRY[name].arity is Arity.RECORD
                      and (kb is not None or not REGISTRY[name].needs_kb)}
        self.lost = {name: {} for name in self.found}

    def __call__(self, i, record):
        code = registry.presence(record)
        self.rows.append(code)
        for pathology, found in self.found.items():
            if registry.carries(code, pathology):
                outcomes, lost = _score_units(pathology, (record,), self.cfg,
                                              self.kb)
                found += outcomes
                self.lost[pathology].update(lost)
        kept = {name: getattr(record, name) for name in _KEPT}
        conversation = _conversation(record)
        if (registry.carries(code, "semantic_drift")
                and conversation not in self.intents):
            self.intents.add(conversation)
        else:
            kept["intent_embedding"] = None
        return TraceRecord(**kept)


def audit_generative(corpus, kb=None, fixtures=(), cfg=GenerativeConfig(),
                     step=None):
    """Run every generative detector that has the data it needs.

    Each record goes through a `RecordStep` first: the record-level
    detectors score each record that carries their fields, and only the
    fields the other detectors read are kept. `step` is the RecordStep
    the records of `corpus` already came from, as `load_trace_corpus(path,
    record=step)` returns them, which scored them as each line was read;
    the audit then takes its knowledge base and config from `step`, not
    from `kb` and `cfg`. Without it, each record of `corpus` goes through
    a new RecordStep(kb, cfg) here, so the two give the same result.
    Either way the step's knowledge base is released once the records
    have been through it, before the pair, sequence, corpus and fixture
    detectors run, none of which reads it.

    The `validate_corpus` report is built once from the step's presence
    codes, and each other detector takes the records it lists as
    available; the result carries the report as `validation`. The
    sequence detectors score each conversation (annotation
    `conversation_id`, whole corpus when absent); misattribution scores
    every content-matched source-mismatched pair; the causal detector
    scores each fixture. Each unit is scored on its own: one that fails is
    listed in `dropped` with its reason, and the detector's other units
    are still scored. A detector that scores nothing is reported as
    skipped. Outcomes are sorted by (pathology, unit).
    """
    if step is None:
        step = RecordStep(kb, cfg)
        corpus = [step(i, rec) for i, rec in enumerate(corpus)]
    # the record-level detectors are done with the knowledge base, and
    # every conversation's intent is kept
    step.kb = step.intents = None
    # looked up on its module, where the traced benchmark run rebinds it
    validation = registry.validate_corpus(corpus, step.rows)
    outcomes = []
    skipped = {}
    dropped = {}
    for pathology in GENERATIVE_DETECTORS:
        detector = REGISTRY[pathology]
        if detector.needs_kb and pathology not in step.found:
            skipped[pathology] = "no knowledge base supplied"
            continue
        if detector.arity is Arity.RECORD:
            found, lost = step.found[pathology], step.lost[pathology]
            reason = "no record carries the required fields"
        else:
            eligible = [corpus[i]
                        for i in validation.eligible(pathology).tolist()]
            units, reason = _units(detector.arity, eligible, fixtures)
            found, lost = _score_units(pathology, units, step.cfg)
        outcomes += found
        if lost:
            dropped[pathology] = lost
        if not found:
            skipped[pathology] = next(iter(lost.values()), reason)
    outcomes.sort(key=lambda o: o.sort_key())
    return AuditResult(outcomes=tuple(outcomes), skipped=skipped,
                       dropped=dropped, validation=validation)
