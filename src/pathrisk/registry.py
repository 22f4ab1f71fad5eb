"""Pathology registry: what both detector families share.

It names the 21 generative + 14 discriminative detector ids (35 total),
each with its family and the record fields it requires, and holds the
types every audit shares (outcome, result, errors, validation report) and
the helpers both families call: `fmt` writes an evidence number and
`group_by` groups records by a key. How a generative detector is scored
(its arity, whether it reads the knowledge base, its scorer and
threshold) lives beside its scorer in `generative._DETECTORS`; a
discriminative one folds the whole corpus, with its scorer and threshold
in `discriminative._DETECTORS`.

The pair {semantic_reheating, semantic_warming} is one alias group, so
reports count 34 distinct pathologies.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .records import ClassificationRecord, TraceRecord, declare


class Family(str, Enum):
    GENERATIVE = "generative"
    DISCRIMINATIVE = "discriminative"


@dataclass(frozen=True)
class DetectorInfo:
    family: Family
    required_fields: tuple


GENERATIVE_DETECTORS = {name: DetectorInfo(Family.GENERATIVE, fields)
                        for name, fields in {
    "delusion": ("prob_output_given_input", "prob_truth_given_input"),
    "illusion": ("output_embedding", "truth_embedding", "in_real_manifold"),
    "hallucination": ("in_real_manifold",),
    "confabulation": ("prob_output_given_input", "claim_embeddings"),
    "misattribution": ("output_embedding", "annotations.content_id",
                       "annotations.source_id"),
    "semantic_drift": ("output_embedding", "intent_embedding"),
    "semantic_compression": ("latent_dim", "input_dim"),
    "exaggeration": ("output_magnitude", "truth_magnitude"),
    "causal_inference_failure": (),
    "uncanny_valley": ("output_embedding", "truth_embedding",
                       "discomfort_score"),
    "bluffing": ("input_embedding", "output_embedding",
                 "output_token_logprobs"),
    "cognitive_stereotypy": ("input_embedding", "output_embedding"),
    "pragmatic_misunderstanding": ("output_embedding", "intent_embedding"),
    "hypersignification": ("input_embedding", "output_embedding"),
    "semantic_reheating": ("in_train_set",),
    "semantic_warming": ("style_embedding", "output_token_logprobs"),
    "simulated_authority": ("style_embedding", "claim_embeddings"),
    "abductive_leap": ("prob_output_given_input", "has_inference_path"),
    "contextual_drift": ("context_vectors",),
    "referential_hallucination": ("referenced_entities",),
    "semiotic_frankenstein": ("claim_embeddings",),
}.items()}

DISCRIMINATIVE_DETECTORS = {name: DetectorInfo(Family.DISCRIMINATIVE, fields)
                            for name, fields in {
    "overfitting": ("annotations.in_train_set",),
    "bias_amplification": ("group",),
    "spurious_correlation": ("annotations.spurious_pair_id",
                             "annotations.spurious_role"),
    "adversarial_vulnerability": ("perturbation_pair_id", "features"),
    "calibration_failure": ("class_probabilities",),
    "concept_drift_sensitivity": ("timestamp_index", "features"),
    "misclassification_under_uncertainty": ("is_ood",),
    "prosodic_misclassification": ("annotations.content_id",
                                   "annotations.prosody"),
    "accent_bias": ("group", "annotations.content_id"),
    "turn_boundary_failure": ("segment_bounds", "ref_segment_bounds"),
    "semantic_boundary_confusion": ("annotations.span_pair_id",
                                    "annotations.span_role",
                                    "segment_bounds"),
    "noise_overfitting": ("noise_pair_id", "annotations.noise_role"),
    "latency_induced_decision_drift": ("latency_pair_id",),
    "ambiguity_collapse": ("plausible_labels",),
}.items()}

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


class DetectorError(ValueError):
    """Detector cannot run: wrong arity, missing fields, no eligible data."""


class FieldUnavailableError(DetectorError):
    def __init__(self, pathology, record_id, fields):
        super().__init__(f"{pathology}: record {record_id!r} lacks "
                         f"{', '.join(fields)}")
        self.fields = tuple(fields)


def fmt(x):
    """A number as an evidence string: 12 significant digits."""
    return f"{x:.12g}"


def group_by(records, key):
    """The records grouped by key(record), in corpus order within each
    group, one group per key in sorted key order."""
    groups = {}
    for rec in records:
        groups.setdefault(key(rec), []).append(rec)
    return [groups[k] for k in sorted(groups)]


@dataclass(frozen=True, slots=True)
class DetectorOutcome:
    """Verdict of one detector evaluation.

    fired is derived from severity >= threshold, never stored
    independently; loss is the L_i sample handed to the risk engine and
    equals severity for every detector in this package. Slotted: an audit
    holds one per (detector, unit), so no instance carries a __dict__.
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


# the keys of DetectorOutcome.to_json_dict but evidence, with their kinds;
# a loader knows an outcome in a parsed file by exactly OUTCOME_JSON_KEYS
OUTCOME_FIELDS = declare(
    ("pathology", "id", True), ("family", "string", True),
    ("record_ids", "strings", True), ("fired", "boolean", True),
    ("severity", "number", True), ("loss", "number", True),
    ("threshold", "number", True))
OUTCOME_JSON_KEYS = frozenset(
    [name for name, _, _ in OUTCOME_FIELDS] + ["evidence"])


@dataclass(frozen=True)
class AuditResult:
    outcomes: tuple
    skipped: dict   # detector -> reason
    # detector -> {unit ids: reason}; None where each detector has one unit
    dropped: Optional[dict] = None
    # which records each detector could score; written as validation.json
    validation: Optional["ValidationReport"] = None

    def by_pathology(self):
        grouped = {}
        for outcome in self.outcomes:
            grouped.setdefault(outcome.pathology, []).append(outcome)
        return grouped

    def to_json_dict(self):
        # the outcomes as they are: the writer converts each one as it
        # writes it, so their dicts never all exist at once
        out = {"outcomes": self.outcomes,
               "skipped": dict(sorted(self.skipped.items()))}
        if self.dropped is not None:
            out["dropped"] = self.dropped
        return out


def record_kind(record):
    if isinstance(record, TraceRecord):
        return "trace"
    if isinstance(record, ClassificationRecord):
        return "classification"
    raise TypeError(f"not a record: {type(record).__name__}")


# the record kind each family's detectors read
_KIND = {Family.GENERATIVE: "trace", Family.DISCRIMINATIVE: "classification"}


def _wrong_kind(kind):
    return f"<requires a {kind} record>"


def record_has_field(record, field_name):
    if field_name.startswith("annotations."):
        return field_name.split(".", 1)[1] in record.annotations
    return getattr(record, field_name, None) is not None


def missing_fields(record, info):
    expected = _KIND[info.family]
    if record_kind(record) != expected:
        return (_wrong_kind(expected),)
    return tuple(f for f in info.required_fields
                 if not record_has_field(record, f))


@dataclass(frozen=True)
class ValidationReport:
    """Which records each detector can score, and why it cannot score the
    others.

    `available[d]` holds the ids of the records detector d can score, in
    corpus order. `missing[d]` maps each distinct tuple of fields that
    records lack for d to the ids of the records lacking exactly those
    fields, in corpus order; a record of the other kind lacks
    ("<requires a trace record>",) or ("<requires a classification
    record>",). Every record is in exactly one of the two. A detector that
    reads a record kind the corpus does not hold at all is in
    `not_applicable` instead, with that reason, and has no per-record list.

    `to_json_dict` is the content of validation.json:
    {"record_count": N, "detectors": {d: entry}} for all 35 detectors,
    where entry is either
    {"available": [ids], "available_count": n,
     "missing": {"field,field": {"count": m, "ids": [ids]}}}
    with the missing fields joined by commas, or
    {"not_applicable": "<requires a trace record>", "count": N}.
    """

    available: dict       # detector -> tuple of record ids
    missing: dict         # detector -> {missing-field tuple: tuple of ids}
    not_applicable: dict  # detector -> reason; no record is of its kind
    record_count: int

    def eligible(self, detector, records):
        """The records the detector can score, in their order; `records`
        is the corpus the report was built from."""
        ids = frozenset(self.available[detector])
        return [r for r in records if r.id in ids]

    def to_json_dict(self):
        detectors = {}
        for name in REGISTRY:
            if name in self.not_applicable:
                detectors[name] = {"not_applicable": self.not_applicable[name],
                                   "count": self.record_count}
                continue
            detectors[name] = {
                "available": self.available[name],
                "available_count": len(self.available[name]),
                "missing": {",".join(fields): {"count": len(ids), "ids": ids}
                            for fields, ids in self.missing[name].items()}}
        return {"record_count": self.record_count, "detectors": detectors}


def validate_corpus(records):
    """Field availability of every detector on a corpus, grouped by the
    missing fields; deterministic, with ids in corpus order. A detector
    that reads a record kind the corpus does not hold at all is not
    applicable, and its fields are not checked record by record. Record
    ids must be unique, as the report names each record by its id."""
    seen = set()
    for rec in records:
        if rec.id in seen:
            raise ValueError(f"duplicate record id {rec.id!r}")
        seen.add(rec.id)
    kinds = {record_kind(rec) for rec in records}
    available, missing, not_applicable = {}, {}, {}
    for name, info in REGISTRY.items():
        kind = _KIND[info.family]
        ok, groups = [], {}
        if records and kind not in kinds:
            not_applicable[name] = _wrong_kind(kind)
        else:
            for rec in records:
                lacking = missing_fields(rec, info)
                if lacking:
                    groups.setdefault(lacking, []).append(rec.id)
                else:
                    ok.append(rec.id)
        available[name] = tuple(ok)
        missing[name] = {fields: tuple(ids) for fields, ids in groups.items()}
    return ValidationReport(available=available, missing=missing,
                            not_applicable=not_applicable,
                            record_count=len(records))
