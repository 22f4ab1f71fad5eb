"""Pathology registry: what both detector families share.

It names the 21 generative + 14 discriminative detector ids (35 total) in
two tables, `GENERATIVE_DETECTORS` and `DISCRIMINATIVE_DETECTORS`, each
mapping an id to the record fields its evidence requires; an id's family
is the table that holds it. It also holds the types every audit shares
(outcome, result, errors, validation report), `validate_corpus`, the one
place that works out which fields a record lacks for a detector, and the
helpers both families call: `fmt` writes an evidence number, `clamp01`
clips a severity to [0, 1] and `group_by` groups records by a key. How a
generative detector is scored
(its arity, whether it reads the knowledge base, its scorer and
threshold) lives beside its scorer in `generative._DETECTORS`; a
discriminative one folds the whole corpus, with its scorer and threshold
in `discriminative._DETECTORS`.

The pair {semantic_reheating, semantic_warming} is one alias group, so
reports count 34 distinct pathologies.
"""

from dataclasses import dataclass, field
from typing import Optional

from .records import ClassificationRecord, TraceRecord, declare

# detector id -> the record fields it requires; "annotations.k" is the key
# k of the record's annotations
GENERATIVE_DETECTORS = {
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
}

DISCRIMINATIVE_DETECTORS = {
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
    return len(REGISTRY) - sum(len(group) - 1 for group in ALIAS_GROUPS)


class DetectorError(ValueError):
    """Detector cannot score what it is handed: no eligible unit, or data
    its statistic is undefined on."""


def fmt(x):
    """A number as an evidence string: 12 significant digits."""
    return f"{x:.12g}"


def clamp01(x):
    """x clipped to [0, 1] as a float: a detector's severity."""
    return float(min(1.0, max(0.0, x)))


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
        """The detector's family, named by the table that holds its id:
        "generative" or "discriminative"."""
        return ("generative" if self.pathology in GENERATIVE_DETECTORS
                else "discriminative")

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
                "family": self.family,
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

    def to_json_dict(self):
        # the outcomes as they are: the writer converts each one as it
        # writes it, so their dicts never all exist at once
        out = {"outcomes": self.outcomes,
               "skipped": dict(sorted(self.skipped.items()))}
        if self.dropped is not None:
            out["dropped"] = self.dropped
        return out


# each record type -> its kind and the table of the detectors that read it
_KINDS = {TraceRecord: ("trace", GENERATIVE_DETECTORS),
          ClassificationRecord: ("classification", DISCRIMINATIVE_DETECTORS)}
# each detector -> the kind of record it reads
_READS = {name: kind for kind, table in _KINDS.values() for name in table}


def _columns(table):
    """The record attributes and the annotation keys that some detector of
    the table requires, each once, and each required field's position in
    a `_presence` pattern: the attributes, then the keys."""
    prefix = "annotations."
    fields = dict.fromkeys(f for required in table.values() for f in required)
    attrs = [f for f in fields if not f.startswith(prefix)]
    keys = [f for f in fields if f.startswith(prefix)]
    return (tuple(attrs), tuple(k[len(prefix):] for k in keys),
            {f: i for i, f in enumerate(attrs + keys)})


# each kind -> (attributes, annotation keys, {field: pattern position})
_COLUMNS = {kind: _columns(table) for kind, table in _KINDS.values()}


def _wrong_kind(kind):
    return f"<requires a {kind} record>"


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
    The audits take from the report which records each detector scores,
    and the discriminative audit the reason it skips a detector that no
    record can feed.

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


def _presence(record):
    """(the record's kind, whether it has each attribute and then each
    annotation key that _COLUMNS lists for the kind): the pattern
    validate_corpus groups records by."""
    kind = _KINDS[type(record)][0]
    attrs, keys, _ = _COLUMNS[kind]
    annotations = record.annotations
    return kind, tuple([getattr(record, a) is not None for a in attrs]
                       + [k in annotations for k in keys])


def _lacking(name, kind, present):
    """The fields that a record whose pattern is (kind, present) lacks for
    detector `name`, in the order the registry lists them: () when it has
    them all, and the wrong-kind reason when it is of the other kind."""
    expected = _READS[name]
    if kind != expected:
        return (_wrong_kind(expected),)
    position = _COLUMNS[kind][2]
    return tuple(f for f in REGISTRY[name] if not present[position[f]])


def validate_corpus(records):
    """Field availability of every detector on a corpus, grouped by the
    missing fields; deterministic, with ids in corpus order. It is the one
    place that works out which fields a record lacks for a detector:
    those of the detector's table entry that the record does not carry,
    or the wrong-kind reason for a record of the other kind. A detector
    that reads a record kind the corpus does not hold at all is not
    applicable, and its fields are not checked record by record. Record
    ids must be unique, as the report names each record by its id.

    Each record's kind, and the presence of each field that a detector of
    its kind requires, are taken once. Records of one kind with the same
    fields present share one pattern, and each detector's lacking fields
    are worked out once per pattern."""
    ids = [rec.id for rec in records]
    seen = set()
    for rid in ids:
        if rid in seen:
            raise ValueError(f"duplicate record id {rid!r}")
        seen.add(rid)
    patterns = {}   # each distinct pattern -> its index, in corpus order
    pattern_of = [patterns.setdefault(_presence(rec), len(patterns))
                  for rec in records]
    kinds = {kind for kind, _ in patterns}
    available, missing, not_applicable = {}, {}, {}
    for name, kind in _READS.items():
        ok, groups = [], {}
        if records and kind not in kinds:
            not_applicable[name] = _wrong_kind(kind)
        else:
            lacking = [_lacking(name, *key) for key in patterns]
            for rid, p in zip(ids, pattern_of):
                if lacking[p]:
                    groups.setdefault(lacking[p], []).append(rid)
                else:
                    ok.append(rid)
        available[name] = tuple(ok)
        missing[name] = {fields: tuple(members)
                         for fields, members in groups.items()}
    return ValidationReport(available=available, missing=missing,
                            not_applicable=not_applicable,
                            record_count=len(records))
