"""Deterministic synthetic test corpora: per-pathology positive/negative
corpora built by inverting each detector predicate, a small demo bundle
for the CLI, seeded corpora with 0/1 pathologies planted at a known rate,
and a game scenario builder. `write_input` writes each as the input file
the loaders read; the package itself writes no input format.

Embeddings live in d_e = 4; `_E[i]` are the basis vectors. A positive
fixture satisfies its predicate with slack, the matched negative violates
it with slack, so threshold jitter cannot flip the golden verdicts.
"""

import dataclasses
import json
import math
import random

import numpy as np

from pathrisk.fixtures import D_E, _E
from pathrisk import classification
from pathrisk.records import CausalFixture, KnowledgeBase, TraceRecord
from pathrisk.registry import DISCRIMINATIVE_DETECTORS, \
    GENERATIVE_DETECTORS, pathology_ids

# anti-similar to every standard KB entry (clamped sim ~ 0.21)
_ANTI_KB = -(_E[0] + _E[1] + _E[2]) / math.sqrt(3.0)


def json_value(value):
    """What a test input file holds for `value`: a TraceRecord or
    CausalFixture as the object of its fields that are set (an empty
    annotation map counting as unset), a KnowledgeBase as {"entries":
    [...]}, arrays and tuples as lists; anything else as it is."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [json_value(v) for v in value]
    if isinstance(value, KnowledgeBase):
        return {"entries": [{"entity_id": e, "embedding": v.tolist()}
                            for e, v in value.entries]}
    if isinstance(value, (TraceRecord, CausalFixture)):
        fields = ((f.name, getattr(value, f.name))
                  for f in dataclasses.fields(value))
        return {name: json_value(v) for name, v in fields
                if v is not None and not (type(v) is dict and not v)}
    return value


def write_input(path, value):
    """Write the input file that holds `value` at path: a list as JSON
    lines, one line per item, and anything else as one JSON document, each
    value as `json_value` gives it."""
    with open(path, "w", encoding="utf-8") as handle:
        if isinstance(value, list):
            for item in value:
                handle.write(json.dumps(json_value(item), sort_keys=True)
                             + "\n")
        else:
            json.dump(json_value(value), handle)


def classification_corpus(rows):
    """The classification corpus of JSON objects, the i-th read as line i
    of a file."""
    return classification.from_lines(enumerate(rows, start=1))


def standard_kb():
    return KnowledgeBase(entries=(("fact_a", _E[0]), ("fact_b", _E[1]),
                                  ("expert_style_centroid", _E[2])))


def _trace(rid, **kwargs):
    kwargs.setdefault("input_embedding", _E[0])
    kwargs.setdefault("output_embedding", _E[1])
    # through the decoders, which range-check each field, then validate
    return TraceRecord.from_json_dict(
        json_value(TraceRecord(id=rid, **kwargs)))


def _direction(raw_sim, anchor=0, ortho=1):
    """Unit vector with the given raw cosine against basis `anchor`."""
    c = max(-1.0, min(1.0, raw_sim))
    return c * _E[anchor] + math.sqrt(1.0 - c * c) * _E[ortho]


def _bundle(records, kb=None, causal=()):
    return {"records": list(records), "kb": kb, "causal_fixtures":
            list(causal)}


# --- generative fixtures ------------------------------------------------------

def _fx_delusion(positive):
    if positive:
        rec = _trace("delusion-pos", output_embedding=_E[0],
                     truth_embedding=_E[1], prob_output_given_input=0.9,
                     prob_truth_given_input=0.01)
    else:
        rec = _trace("delusion-neg", output_embedding=_E[0],
                     truth_embedding=_E[1], prob_output_given_input=0.5,
                     prob_truth_given_input=0.4)
    return _bundle([rec])


def _fx_illusion(positive):
    rec = _trace("illusion-" + ("pos" if positive else "neg"),
                 output_embedding=_E[0], truth_embedding=_E[0],
                 in_real_manifold=not positive)
    return _bundle([rec])


def _fx_hallucination(positive):
    rec = _trace("hallucination-" + ("pos" if positive else "neg"),
                 in_real_manifold=not positive)
    return _bundle([rec])


def _fx_confabulation(positive):
    claims = (_ANTI_KB,) if positive else (_E[0],)
    rec = _trace("confabulation-" + ("pos" if positive else "neg"),
                 prob_output_given_input=0.8, claim_embeddings=claims)
    return _bundle([rec], kb=standard_kb())


def _fx_misattribution(positive):
    out_b = _E[0] if positive else _E[1]
    tag = "pos" if positive else "neg"
    recs = [_trace(f"misattr-{tag}-a", output_embedding=_E[0],
                   annotations={"content_id": "c1", "source_id": "s1"}),
            _trace(f"misattr-{tag}-b", output_embedding=out_b,
                   annotations={"content_id": "c1", "source_id": "s2"})]
    return _bundle(recs)


def _fx_semantic_drift(positive):
    tag = "pos" if positive else "neg"
    if positive:
        raw_sims = [1.0, 0.8, 0.4, 0.0, -0.4, -0.9]
    else:
        raw_sims = [1.0] * 6
    recs = [_trace(f"drift-{tag}-{t}",
                   output_embedding=_direction(c),
                   intent_embedding=_E[0],
                   annotations={"conversation_id": f"drift-{tag}"})
            for t, c in enumerate(raw_sims)]
    return _bundle(recs)


def _fx_semantic_compression(positive):
    rec = _trace("compression-" + ("pos" if positive else "neg"),
                 latent_dim=2 if positive else 50, input_dim=100)
    return _bundle([rec])


def _fx_exaggeration(positive):
    rec = _trace("exaggeration-" + ("pos" if positive else "neg"),
                 output_magnitude=8.0 if positive else 1.0,
                 truth_magnitude=1.0)
    return _bundle([rec])


def _fx_causal(positive):
    observational = np.array([[0.9, 0.1], [0.1, 0.9]])
    if positive:
        # every intervention looks exactly like the observational marginal
        interventional = np.array([[0.5, 0.5], [0.5, 0.5]])
    else:
        interventional = observational.copy()
    fixture = CausalFixture(x_name="X", y_name="Y",
                            observational_conditional=observational,
                            interventional_table=interventional,
                            edge_x_to_y=True)
    return _bundle([], causal=[fixture])


def _fx_uncanny(positive):
    rec = _trace("uncanny-" + ("pos" if positive else "neg"),
                 output_embedding=_E[0], truth_embedding=_E[0],
                 discomfort_score=0.8 if positive else 0.1)
    return _bundle([rec])


def _fx_bluffing(positive):
    tag = "pos" if positive else "neg"
    recs = []
    for i in range(80):
        inp = _E[0] if i % 2 == 0 else -_E[0]
        out = _E[1] if positive else inp
        recs.append(_trace(f"bluff-{tag}-{i:02d}", input_embedding=inp,
                           output_embedding=out,
                           output_token_logprobs=(math.log(0.9),) * 4))
    return _bundle(recs)


def _fx_stereotypy(positive):
    tag = "pos" if positive else "neg"
    inputs = [_E[0], _E[1], _E[2]]
    recs = []
    for i, inp in enumerate(inputs):
        out = _E[3] if positive else inp
        recs.append(_trace(f"stereo-{tag}-{i}", input_embedding=inp,
                           output_embedding=out))
    return _bundle(recs)


def _fx_pragmatic(positive):
    out = _direction(-0.2) if positive else _E[0]
    rec = _trace("pragmatic-" + ("pos" if positive else "neg"),
                 output_embedding=out, intent_embedding=_E[0])
    return _bundle([rec])


def _fx_hypersignification(positive):
    tag = "pos" if positive else "neg"
    outs = (_E[2], _E[2]) if positive else (_E[2], _E[3])
    recs = [_trace(f"hyper-{tag}-a", input_embedding=_E[0],
                   output_embedding=outs[0]),
            _trace(f"hyper-{tag}-b", input_embedding=-_E[0],
                   output_embedding=outs[1])]
    return _bundle(recs)


def _fx_reheating(positive):
    rec = _trace("reheat-" + ("pos" if positive else "neg"),
                 in_train_set=positive)
    return _bundle([rec])


def _fx_warming(positive):
    tag = "pos" if positive else "neg"
    if positive:
        styles = [_E[0], _E[1], _E[0], _E[0], _E[0], _E[0]]
    else:
        styles = [_E[0], _E[0], _E[0], _E[0], _E[1], _E[2]]
    recs = [_trace(f"warming-{tag}-{t}", style_embedding=s,
                   output_token_logprobs=(math.log(0.8),) * 4,
                   annotations={"conversation_id": f"warming-{tag}"})
            for t, s in enumerate(styles)]
    return _bundle(recs)


def _fx_simulated_authority(positive):
    claims = (_ANTI_KB,) if positive else (_E[0],)
    rec = _trace("authority-" + ("pos" if positive else "neg"),
                 style_embedding=_E[2], claim_embeddings=claims)
    return _bundle([rec], kb=standard_kb())


def _fx_abductive(positive):
    rec = _trace("abductive-" + ("pos" if positive else "neg"),
                 prob_output_given_input=0.95,
                 has_inference_path=not positive)
    return _bundle([rec])


def _fx_contextual_drift(positive):
    if positive:
        ctx = (np.array([3.0, 4.0, 0.0, 0.0]), _E[0], _E[0],
               np.zeros(D_E))
    else:
        ctx = (_E[0], _E[0], _E[0], _E[0])
    rec = _trace("ctxdrift-" + ("pos" if positive else "neg"),
                 context_vectors=ctx)
    return _bundle([rec])


def _fx_referential(positive):
    entities = ("ghost_source",) if positive else ("fact_a",)
    rec = _trace("referential-" + ("pos" if positive else "neg"),
                 referenced_entities=entities)
    return _bundle([rec], kb=standard_kb())


def _fx_frankenstein(positive):
    claims = (_E[0], _ANTI_KB) if positive else (_E[0], _E[1])
    rec = _trace("franken-" + ("pos" if positive else "neg"),
                 claim_embeddings=claims)
    return _bundle([rec], kb=standard_kb())


_GENERATIVE_FIXTURES = {
    "delusion": _fx_delusion,
    "illusion": _fx_illusion,
    "hallucination": _fx_hallucination,
    "confabulation": _fx_confabulation,
    "misattribution": _fx_misattribution,
    "semantic_drift": _fx_semantic_drift,
    "semantic_compression": _fx_semantic_compression,
    "exaggeration": _fx_exaggeration,
    "causal_inference_failure": _fx_causal,
    "uncanny_valley": _fx_uncanny,
    "bluffing": _fx_bluffing,
    "cognitive_stereotypy": _fx_stereotypy,
    "pragmatic_misunderstanding": _fx_pragmatic,
    "hypersignification": _fx_hypersignification,
    "semantic_reheating": _fx_reheating,
    "semantic_warming": _fx_warming,
    "simulated_authority": _fx_simulated_authority,
    "abductive_leap": _fx_abductive,
    "contextual_drift": _fx_contextual_drift,
    "referential_hallucination": _fx_referential,
    "semiotic_frankenstein": _fx_frankenstein,
}


def generative_fixture(pathology, positive):
    """Bundle {records, kb, causal_fixtures} for one detector polarity."""
    return _GENERATIVE_FIXTURES[pathology](positive)


def graded_fixtures():
    """{pathology: bundle} of one record each with a known severity strictly
    inside (0, 1), for the graded detectors whose two fixtures score only
    0 or 1, and for delusion. Delusion, exaggeration and contextual_drift
    sit at their firing point, severity 0.5, at the default config."""
    def one(rid, kb=None, **fields):
        return _bundle([_trace(f"graded-{rid}", **fields)], kb=kb)

    return {
        # raw cosine 3/5 between output and truth: (1 + 3/5) / 2
        "illusion": one("illusion", output_embedding=_E[0],
                        truth_embedding=np.array([3.0, 4.0, 0.0, 0.0]),
                        in_real_manifold=False),
        # probability ratio 0.625 / 0.0625 = margin
        "delusion": one("delusion", output_embedding=_E[0],
                        truth_embedding=_E[1], prob_output_given_input=0.625,
                        prob_truth_given_input=0.0625),
        # magnitude ratio 3 / 1.5 = alpha
        "exaggeration": one("exaggeration", output_magnitude=3.0,
                            truth_magnitude=1.5),
        # discomfort above d_hi, raw cosine -3/5: (1 - 3/5) / 2
        "uncanny_valley": one("uncanny", output_embedding=_E[0],
                              truth_embedding=np.array([-3.0, 4.0, 0.0, 0.0]),
                              discomfort_score=0.8),
        # distance drift_k = 3 turns back |0 - e_0| = 1 = epsilon
        "contextual_drift": one("ctxdrift", context_vectors=(
            _E[0], _E[1], _E[2], np.zeros(D_E))),
        # one of four entities in neither the KB nor the train entities
        "referential_hallucination": one(
            "referential", kb=standard_kb(),
            referenced_entities=("fact_a", "fact_b", "ghost_source",
                                 "seen_in_training"),
            annotations={"train_entities": "seen_in_training"}),
        # of five claims, one matches the KB (e_0), one is unmatched (anti)
        # and three lie between (e_3, similarity 0.5): 2 * 1 / 5
        "semiotic_frankenstein": one(
            "franken", kb=standard_kb(),
            claim_embeddings=(_E[0], _ANTI_KB, _E[3], _E[3], _E[3])),
    }


# --- discriminative fixtures ---------------------------------------------------

def _probs_for(label, confidence, n_classes=2):
    p = np.full(n_classes, (1.0 - confidence) / (n_classes - 1))
    p[label] = confidence
    return p.tolist()


def _cls(rid, predicted, true, confidence=0.9, **fields):
    """The JSON object of one decision between two classes, with features
    [0, 0] unless given and `fields` as they are."""
    return {"id": rid, "features": [0.0, 0.0], "predicted_label": predicted,
            "true_label": true,
            "class_probabilities": _probs_for(predicted, confidence),
            **fields}


def _fx_overfitting(positive):
    tag = "pos" if positive else "neg"
    recs = []
    for i in range(20):
        true = 0 if (positive or i >= 2) else 1   # train acc 1.0 / 0.9
        recs.append(_cls(f"ovf-{tag}-tr-{i:02d}", 0, true,
                         annotations={"in_train_set": "true"}))
    for i in range(20):
        if positive:
            true = 1 if i < 10 else 0             # holdout acc 0.5
        else:
            true = 1 if i < 2 else 0              # holdout acc 0.9
        recs.append(_cls(f"ovf-{tag}-ho-{i:02d}", 0, true,
                         annotations={"in_train_set": "false"}))
    return recs


def _fx_bias_amplification(positive):
    tag = "pos" if positive else "neg"
    recs = []
    for i in range(10):
        pred = 1 if positive else (1 if i % 2 == 0 else 0)
        recs.append(_cls(f"bias-{tag}-g1-{i:02d}", pred, pred, group="g1"))
    for i in range(10):
        pred = 0 if positive else (1 if i % 2 == 0 else 0)
        recs.append(_cls(f"bias-{tag}-g2-{i:02d}", pred, pred, group="g2"))
    return recs


def _fx_spurious(positive):
    tag = "pos" if positive else "neg"
    recs = []
    for i in range(10):
        recs.append(_cls(f"spur-{tag}-c-{i:02d}", 0, 0,
                         annotations={"spurious_pair_id": f"p{i}",
                                      "spurious_role": "clean"}))
        pred = 1 if positive else 0
        recs.append(_cls(f"spur-{tag}-r-{i:02d}", pred, 0,
                         annotations={"spurious_pair_id": f"p{i}",
                                      "spurious_role": "resampled"}))
    return recs


def _fx_adversarial(positive):
    tag = "pos" if positive else "neg"
    recs = []
    for i in range(10):
        base = np.array([float(i), 0.0])
        recs.append(_cls(f"adv-{tag}-a-{i:02d}", 0, 0, features=base.tolist(),
                         perturbation_pair_id=f"p{i}"))
        pred = 1 if positive else 0
        recs.append(_cls(f"adv-{tag}-b-{i:02d}", pred, 0,
                         features=(base + [0.01, 0.0]).tolist(),
                         perturbation_pair_id=f"p{i}"))
    return recs


def _fx_calibration(positive):
    tag = "pos" if positive else "neg"
    recs = []
    if positive:
        # certain everywhere, right half the time
        for i in range(40):
            recs.append(_cls(f"cal-{tag}-{i:02d}", 0, 0 if i % 2 == 0 else 1,
                             confidence=1.0))
    else:
        # confidence 0.9 and accuracy 0.9: perfectly calibrated
        for i in range(40):
            recs.append(_cls(f"cal-{tag}-{i:02d}", 0, 1 if i % 10 == 9
                             else 0, confidence=0.9))
    return recs


def _fx_concept_drift(positive):
    tag = "pos" if positive else "neg"
    recs = []
    for t in range(20):
        recs.append(_cls(f"cdrift-{tag}-r-{t:02d}", 0, 0,
                         features=[0.01 * t, 0.0],
                         timestamp_index=t))
    for t in range(20):
        shift = 5.0 if positive else 0.0
        wrong = positive and t % 5 != 0   # current accuracy 0.2 when positive
        recs.append(_cls(f"cdrift-{tag}-c-{t:02d}", 0, 1 if wrong else 0,
                         features=[shift + 0.01 * t, 0.0],
                         timestamp_index=20 + t))
    return recs


def _fx_misclassification_uncertainty(positive):
    tag = "pos" if positive else "neg"
    recs = []
    for i in range(20):
        conf = 0.95 if positive else 0.6
        recs.append(_cls(f"mou-{tag}-{i:02d}", 0, 1, confidence=conf,
                         is_ood=True))
    return recs


def _fx_prosodic(positive):
    tag = "pos" if positive else "neg"
    recs = []
    for i in range(10):
        recs.append(_cls(f"pros-{tag}-a-{i:02d}", 0, 0,
                         annotations={"content_id": f"c{i}",
                                      "prosody": "rising"}))
        pred = 1 if positive else 0
        recs.append(_cls(f"pros-{tag}-b-{i:02d}", pred, 0,
                         annotations={"content_id": f"c{i}",
                                      "prosody": "flat"}))
    return recs


def _fx_accent_bias(positive):
    tag = "pos" if positive else "neg"
    recs = []
    for i in range(10):
        recs.append(_cls(f"acc-{tag}-a-{i:02d}", 0, 0, group="a1",
                         annotations={"content_id": f"c{i}"}))
        pred = 1 if positive else 0
        recs.append(_cls(f"acc-{tag}-b-{i:02d}", pred, 0, group="a2",
                         annotations={"content_id": f"c{i}"}))
    return recs


def _fx_turn_boundary(positive):
    tag = "pos" if positive else "neg"
    bounds = [10, 20] if positive else [0, 10]
    return [_cls(f"turn-{tag}-{i:02d}", 0, 0, segment_bounds=bounds,
                 ref_segment_bounds=[0, 10]) for i in range(20)]


def _fx_semantic_boundary(positive):
    tag = "pos" if positive else "neg"
    recs = []
    for i in range(10):
        wide_pred = 1 if positive else 0
        recs.append(_cls(f"span-{tag}-w-{i:02d}", wide_pred, 0,
                         confidence=0.9, segment_bounds=[0, 100],
                         annotations={"span_pair_id": f"s{i}",
                                      "span_role": "wide"}))
        recs.append(_cls(f"span-{tag}-n-{i:02d}", 0, 0, confidence=0.9,
                         segment_bounds=[40, 60],
                         annotations={"span_pair_id": f"s{i}",
                                      "span_role": "narrow"}))
    return recs


def _fx_noise_overfitting(positive):
    tag = "pos" if positive else "neg"
    recs = []
    for i in range(10):
        recs.append(_cls(f"noise-{tag}-c-{i:02d}", 0, 0,
                         noise_pair_id=f"n{i}",
                         annotations={"noise_role": "clean"}))
        pred = 1 if positive else 0
        recs.append(_cls(f"noise-{tag}-n-{i:02d}", pred, 0,
                         noise_pair_id=f"n{i}",
                         annotations={"noise_role": "noisy"}))
    return recs


def _fx_latency_drift(positive):
    tag = "pos" if positive else "neg"
    recs = []
    for i in range(10):
        recs.append(_cls(f"lat-{tag}-a-{i:02d}", 0, 0,
                         latency_pair_id=f"l{i}"))
        pred = 1 if positive else 0
        recs.append(_cls(f"lat-{tag}-b-{i:02d}", pred, pred,
                         latency_pair_id=f"l{i}"))
    return recs


def _fx_ambiguity(positive):
    tag = "pos" if positive else "neg"
    recs = []
    for i in range(20):
        conf = 0.97 if positive else 0.6
        recs.append(_cls(f"amb-{tag}-{i:02d}", 0, 1, confidence=conf,
                         plausible_labels=[0, 1]))
    return recs


_DISCRIMINATIVE_FIXTURES = {
    "overfitting": _fx_overfitting,
    "bias_amplification": _fx_bias_amplification,
    "spurious_correlation": _fx_spurious,
    "adversarial_vulnerability": _fx_adversarial,
    "calibration_failure": _fx_calibration,
    "concept_drift_sensitivity": _fx_concept_drift,
    "misclassification_under_uncertainty": _fx_misclassification_uncertainty,
    "prosodic_misclassification": _fx_prosodic,
    "accent_bias": _fx_accent_bias,
    "turn_boundary_failure": _fx_turn_boundary,
    "semantic_boundary_confusion": _fx_semantic_boundary,
    "noise_overfitting": _fx_noise_overfitting,
    "latency_induced_decision_drift": _fx_latency_drift,
    "ambiguity_collapse": _fx_ambiguity,
}


def discriminative_rows(pathology, positive):
    """JSON objects of the classification corpus for one detector polarity
    (>= 20 records)."""
    return _DISCRIMINATIVE_FIXTURES[pathology](positive)


def discriminative_fixture(pathology, positive):
    """Classification corpus for one detector polarity (>= 20 records)."""
    return classification_corpus(discriminative_rows(pathology, positive))


assert set(_GENERATIVE_FIXTURES) == set(GENERATIVE_DETECTORS)
assert set(_DISCRIMINATIVE_FIXTURES) == set(DISCRIMINATIVE_DETECTORS)


# --- demo bundle and scenarios ---------------------------------------------------

def demo_trace_corpus():
    """Small mixed trace corpus for the CLI demo and golden tests."""
    records = [
        _trace("demo-delusion", output_embedding=_E[0],
               truth_embedding=_E[1], prob_output_given_input=0.9,
               prob_truth_given_input=0.01),
        _trace("demo-grounded", in_real_manifold=True,
               output_magnitude=1.0, truth_magnitude=1.0),
        _trace("demo-unreal", in_real_manifold=False),
        _trace("demo-exaggerated", output_magnitude=8.0,
               truth_magnitude=1.0),
        _trace("demo-drifted",
               context_vectors=(np.array([3.0, 4.0, 0.0, 0.0]), _E[0],
                                _E[0], np.zeros(D_E))),
        _trace("demo-invented", referenced_entities=("ghost_source",),
               claim_embeddings=(_E[0], _ANTI_KB)),
    ]
    return records


def demo_classification_rows():
    return _fx_calibration(True)


def demo_causal_fixture():
    return _fx_causal(True)["causal_fixtures"][0]


def planted_trace_corpus(n, p, seed):
    """(n trace records, {pathology: number of records planted with it}).

    Each record is planted with hallucination (`in_real_manifold` false)
    and, independently, with semantic reheating (`in_train_set` true) with
    probability p each, drawn from `random.Random(seed)`; the others carry
    the opposite value, so both detectors score every record."""
    rng = random.Random(seed)
    records, planted = [], {"hallucination": 0, "semantic_reheating": 0}
    for i in range(n):
        unreal, reheated = rng.random() < p, rng.random() < p
        planted["hallucination"] += unreal
        planted["semantic_reheating"] += reheated
        records.append(_trace(f"planted-{i:04d}", in_real_manifold=not unreal,
                              in_train_set=reheated))
    return records, planted


def expectile_flip_corpus(n=1000, p=0.02, seed=3):
    """(n trace records, the number planted with hallucination): a rare
    0/1 failure beside a constant low-grade degradation. Each record is
    planted with hallucination (`in_real_manifold` false) with probability
    p, drawn from `random.Random(seed)`, and every record has
    semantic_compression 1 - 98/100 = 0.02 (`latent_dim` 98 of
    `input_dim` 100)."""
    rng = random.Random(seed)
    records, planted = [], 0
    for i in range(n):
        unreal = rng.random() < p
        planted += unreal
        records.append(_trace(f"flip-{i:04d}", in_real_manifold=not unreal,
                              latent_dim=98, input_dim=100))
    return records, planted


def coupled_game_scenario(num_agents=34, dim=3, seed=11, cloud_cap=None):
    """Scenario dict (JSON-ready) with seeded quadratic agents sharing a
    binding compute budget."""
    rng = np.random.default_rng(seed)
    names = list(pathology_ids())[:num_agents]
    agents = []
    for name in names:
        target = rng.uniform(-1.0, 1.0, size=dim)
        agents.append({"pathology": name, "lo": -1.0, "hi": 1.0,
                       "target": [float(t) for t in target]})
    total_target_norm = sum(sum(t * t for t in a["target"]) for a in agents)
    cap = cloud_cap if cloud_cap is not None else 0.5 * total_target_norm
    return {"seed": seed, "kappa": 1.0, "cloud_cap": cap, "tau_data": 0.5,
            "lambda": 0.0,
            "agents": agents,
            "mean_field": {a["pathology"]: {"quality": 0.9}
                           for a in agents},
            "epsilon_schedule": [{"default": 4.0}, {"default": 1.0}]}
