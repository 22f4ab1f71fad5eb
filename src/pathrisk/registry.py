"""Pathology registry: ids, arities, required fields, outcome type.

The registry holds 21 generative + 14 discriminative detector ids (35
total). The pair {semantic_reheating, semantic_warming} is one alias group,
so reports count 34 distinct pathologies.
"""

from dataclasses import dataclass, field
from enum import Enum

from .records import ClassificationRecord, TraceRecord

# Severity floor for existential predicates ("some entity unknown", "both a
# true and a false claim present"): any positive fraction fires.
EXISTENTIAL_EPS = 1e-9


class Family(str, Enum):
    GENERATIVE = "generative"
    DISCRIMINATIVE = "discriminative"


class Arity(str, Enum):
    RECORD = "record"        # one TraceRecord
    PAIR = "pair"            # two linked records
    SEQUENCE = "sequence"    # an ordered conversation of records
    CORPUS = "corpus"        # an unordered record set
    FIXTURE = "fixture"      # a CausalFixture


class PathologyId(str, Enum):
    DELUSION = "delusion"
    ILLUSION = "illusion"
    HALLUCINATION = "hallucination"
    CONFABULATION = "confabulation"
    MISATTRIBUTION = "misattribution"
    SEMANTIC_DRIFT = "semantic_drift"
    SEMANTIC_COMPRESSION = "semantic_compression"
    EXAGGERATION = "exaggeration"
    CAUSAL_INFERENCE_FAILURE = "causal_inference_failure"
    UNCANNY_VALLEY = "uncanny_valley"
    BLUFFING = "bluffing"
    COGNITIVE_STEREOTYPY = "cognitive_stereotypy"
    PRAGMATIC_MISUNDERSTANDING = "pragmatic_misunderstanding"
    HYPERSIGNIFICATION = "hypersignification"
    SEMANTIC_REHEATING = "semantic_reheating"
    SEMANTIC_WARMING = "semantic_warming"
    SIMULATED_AUTHORITY = "simulated_authority"
    ABDUCTIVE_LEAP = "abductive_leap"
    CONTEXTUAL_DRIFT = "contextual_drift"
    REFERENTIAL_HALLUCINATION = "referential_hallucination"
    SEMIOTIC_FRANKENSTEIN = "semiotic_frankenstein"
    OVERFITTING = "overfitting"
    BIAS_AMPLIFICATION = "bias_amplification"
    SPURIOUS_CORRELATION = "spurious_correlation"
    ADVERSARIAL_VULNERABILITY = "adversarial_vulnerability"
    CALIBRATION_FAILURE = "calibration_failure"
    CONCEPT_DRIFT_SENSITIVITY = "concept_drift_sensitivity"
    MISCLASSIFICATION_UNDER_UNCERTAINTY = "misclassification_under_uncertainty"
    PROSODIC_MISCLASSIFICATION = "prosodic_misclassification"
    ACCENT_BIAS = "accent_bias"
    TURN_BOUNDARY_FAILURE = "turn_boundary_failure"
    SEMANTIC_BOUNDARY_CONFUSION = "semantic_boundary_confusion"
    NOISE_OVERFITTING = "noise_overfitting"
    LATENCY_INDUCED_DECISION_DRIFT = "latency_induced_decision_drift"
    AMBIGUITY_COLLAPSE = "ambiguity_collapse"


@dataclass(frozen=True)
class DetectorInfo:
    name: str
    family: Family
    arity: Arity
    required_fields: tuple
    needs_kb: bool = False


def _gen(name, arity, fields, needs_kb=False):
    return DetectorInfo(name, Family.GENERATIVE, arity, tuple(fields),
                        needs_kb)


def _dis(name, fields):
    return DetectorInfo(name, Family.DISCRIMINATIVE, Arity.CORPUS,
                        tuple(fields))


GENERATIVE_DETECTORS = {
    "delusion": _gen("delusion", Arity.RECORD,
                     ("prob_output_given_input", "prob_truth_given_input")),
    "illusion": _gen("illusion", Arity.RECORD,
                     ("output_embedding", "truth_embedding",
                      "in_real_manifold")),
    "hallucination": _gen("hallucination", Arity.RECORD,
                          ("in_real_manifold",)),
    "confabulation": _gen("confabulation", Arity.RECORD,
                          ("prob_output_given_input", "claim_embeddings"),
                          needs_kb=True),
    "misattribution": _gen("misattribution", Arity.PAIR,
                           ("output_embedding", "annotations.content_id",
                            "annotations.source_id")),
    "semantic_drift": _gen("semantic_drift", Arity.SEQUENCE,
                           ("output_embedding", "intent_embedding")),
    "semantic_compression": _gen("semantic_compression", Arity.RECORD,
                                 ("latent_dim", "input_dim")),
    "exaggeration": _gen("exaggeration", Arity.RECORD,
                         ("output_magnitude", "truth_magnitude")),
    "causal_inference_failure": _gen("causal_inference_failure",
                                     Arity.FIXTURE, ()),
    "uncanny_valley": _gen("uncanny_valley", Arity.RECORD,
                           ("output_embedding", "truth_embedding",
                            "discomfort_score")),
    "bluffing": _gen("bluffing", Arity.CORPUS,
                     ("input_embedding", "output_embedding",
                      "output_token_logprobs")),
    "cognitive_stereotypy": _gen("cognitive_stereotypy", Arity.CORPUS,
                                 ("input_embedding", "output_embedding")),
    "pragmatic_misunderstanding": _gen("pragmatic_misunderstanding",
                                       Arity.RECORD,
                                       ("output_embedding",
                                        "intent_embedding")),
    "hypersignification": _gen("hypersignification", Arity.CORPUS,
                               ("input_embedding", "output_embedding")),
    "semantic_reheating": _gen("semantic_reheating", Arity.RECORD,
                               ("in_train_set",)),
    "semantic_warming": _gen("semantic_warming", Arity.SEQUENCE,
                             ("style_embedding", "output_token_logprobs")),
    "simulated_authority": _gen("simulated_authority", Arity.RECORD,
                                ("style_embedding", "claim_embeddings"),
                                needs_kb=True),
    "abductive_leap": _gen("abductive_leap", Arity.RECORD,
                           ("prob_output_given_input", "has_inference_path")),
    "contextual_drift": _gen("contextual_drift", Arity.RECORD,
                             ("context_vectors",)),
    "referential_hallucination": _gen("referential_hallucination",
                                      Arity.RECORD, ("referenced_entities",),
                                      needs_kb=True),
    "semiotic_frankenstein": _gen("semiotic_frankenstein", Arity.RECORD,
                                  ("claim_embeddings",), needs_kb=True),
}

DISCRIMINATIVE_DETECTORS = {
    "overfitting": _dis("overfitting", ("annotations.in_train_set",)),
    "bias_amplification": _dis("bias_amplification", ("group",)),
    "spurious_correlation": _dis("spurious_correlation",
                                 ("annotations.spurious_pair_id",
                                  "annotations.spurious_role")),
    "adversarial_vulnerability": _dis("adversarial_vulnerability",
                                      ("perturbation_pair_id", "features")),
    "calibration_failure": _dis("calibration_failure",
                                ("class_probabilities",)),
    "concept_drift_sensitivity": _dis("concept_drift_sensitivity",
                                      ("timestamp_index", "features")),
    "misclassification_under_uncertainty": _dis(
        "misclassification_under_uncertainty", ("is_ood",)),
    "prosodic_misclassification": _dis("prosodic_misclassification",
                                       ("annotations.content_id",
                                        "annotations.prosody")),
    "accent_bias": _dis("accent_bias", ("group", "annotations.content_id")),
    "turn_boundary_failure": _dis("turn_boundary_failure",
                                  ("segment_bounds", "ref_segment_bounds")),
    "semantic_boundary_confusion": _dis("semantic_boundary_confusion",
                                        ("annotations.span_pair_id",
                                         "annotations.span_role",
                                         "segment_bounds")),
    "noise_overfitting": _dis("noise_overfitting",
                              ("noise_pair_id", "annotations.noise_role")),
    "latency_induced_decision_drift": _dis("latency_induced_decision_drift",
                                           ("latency_pair_id",)),
    "ambiguity_collapse": _dis("ambiguity_collapse", ("plausible_labels",)),
}

REGISTRY = {**GENERATIVE_DETECTORS, **DISCRIMINATIVE_DETECTORS}

# semantic reheating and warming are two detectors for one pathology
ALIAS_GROUPS = (("semantic_reheating", "semantic_warming"),)

assert len(GENERATIVE_DETECTORS) == 21
assert len(DISCRIMINATIVE_DETECTORS) == 14


def pathology_ids():
    """All 35 detector ids in registry order."""
    return tuple(REGISTRY)


def distinct_pathology_count():
    """Detector count with alias groups collapsed (34)."""
    collapsed = len(REGISTRY)
    for group in ALIAS_GROUPS:
        collapsed -= len(group) - 1
    return collapsed


def alias_label(name):
    """Collapsed reporting label for a detector id."""
    for group in ALIAS_GROUPS:
        if name in group:
            return "/".join(group)
    return name


@dataclass(frozen=True)
class DetectorOutcome:
    """Verdict of one detector evaluation.

    fired is derived from severity >= threshold, never stored
    independently; loss is the L_i sample handed to the risk engine and
    equals severity for every detector in this package.
    """

    pathology: str
    record_ids: tuple
    severity: float
    threshold: float
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.pathology not in REGISTRY:
            raise ValueError(f"unknown pathology {self.pathology!r}")
        if not (0.0 <= self.severity <= 1.0):
            raise ValueError(f"severity {self.severity} outside [0,1]")

    @property
    def family(self):
        return REGISTRY[self.pathology].family

    @property
    def fired(self):
        return self.severity >= self.threshold

    @property
    def loss(self):
        return self.severity

    def sort_key(self):
        return (self.pathology, ",".join(self.record_ids))

    def to_json_dict(self):
        return {"pathology": self.pathology,
                "family": self.family.value,
                "record_ids": list(self.record_ids),
                "fired": self.fired,
                "severity": self.severity,
                "loss": self.loss,
                "threshold": self.threshold,
                "evidence": dict(self.evidence)}


def record_kind(record):
    if isinstance(record, TraceRecord):
        return "trace"
    if isinstance(record, ClassificationRecord):
        return "classification"
    raise TypeError(f"not a record: {type(record).__name__}")


def record_has_field(record, field_name):
    if field_name.startswith("annotations."):
        return field_name.split(".", 1)[1] in record.annotations
    return getattr(record, field_name, None) is not None


def missing_fields(record, info):
    expected = "trace" if info.family is Family.GENERATIVE else "classification"
    if record_kind(record) != expected:
        return (f"<requires a {expected} record>",)
    return tuple(f for f in info.required_fields
                 if not record_has_field(record, f))


@dataclass(frozen=True)
class ValidationReport:
    """Field-availability matrix: which records each detector can score."""

    available: dict     # detector -> tuple of record ids
    missing: dict       # detector -> {record id: tuple of missing fields}
    record_count: int

    def is_available(self, detector, record_id):
        return record_id in self.available.get(detector, ())

    def to_json_dict(self):
        return {
            "record_count": self.record_count,
            "detectors": {
                name: {"available": self.available[name],
                       "missing": self.missing[name]}
                for name in REGISTRY
            },
        }


def validate_corpus(records):
    """Pure report of per-detector field availability; deterministic and
    order-independent per record."""
    available = {name: [] for name in REGISTRY}
    missing = {name: {} for name in REGISTRY}
    # one tuple per distinct set of missing fields, shared by every
    # (record, detector) pair that lacks it
    shared = {}
    for rec in records:
        for name, info in REGISTRY.items():
            lacking = missing_fields(rec, info)
            if lacking:
                missing[name][rec.id] = shared.setdefault(lacking, lacking)
            else:
                available[name].append(rec.id)
    return ValidationReport(
        available={k: tuple(v) for k, v in available.items()},
        missing=missing,
        record_count=len(records))
