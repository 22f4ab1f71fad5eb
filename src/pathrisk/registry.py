"""Pathology registry: what both detector families share.

It names the 21 generative + 14 discriminative detector ids (35 total) in
two tables, `GENERATIVE_DETECTORS` and `DISCRIMINATIVE_DETECTORS`, each
mapping an id to the record fields its evidence requires; an id's family
is the table that holds it. It also holds the types every audit shares
(outcome, result, errors, validation report), `validate_corpus`, the one
place that works out which fields a record lacks for a detector (with
`presence` and `carries`, its row-at-a-time form for a trace record as it
is read), and the helpers both families call: `fmt` writes an evidence
number, `clamp01` clips a severity to [0, 1] and `group_by` groups records
by a key. How a generative detector is scored (its arity, whether it reads
the knowledge base, its scorer and threshold) lives beside its scorer in
`generative._DETECTORS`; a discriminative one folds the whole corpus,
with its scorer and threshold in `discriminative._DETECTORS`.

The outcome format is written and read here alone. outcomes.json is
`AuditResult.to_json_dict`, the object {"outcomes": [...], "skipped":
{detector: reason}, "dropped": {detector: {unit: reason}}} for either
family, and `load_outcome_files` reads it back for risk and report: it
decodes the outcomes and skips the other two keys. Each outcome's object
is `DetectorOutcome.to_json_dict`, with exactly the keys pathology,
record_ids, severity, threshold and evidence, and
`DetectorOutcome.from_json_dict` decodes one. Any other key, at either
level, is an error. Nothing derived is written: an outcome fired where
severity >= threshold, its family is the table that holds its pathology,
and its severity is the loss sample the risk engine folds. Evidence is
written for readers; risk and report do not read it.

The pair {semantic_reheating, semantic_warming} is one alias group, so
reports count 34 distinct pathologies.
"""

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional

import numpy as np

from .records import declare, decode_object, read_json_chunked

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
    """Verdict of one detector evaluation. Its severity is the loss sample
    handed to the risk engine, and it fired where severity >= threshold.
    Slotted: an audit holds one per (detector, unit), so no instance
    carries a __dict__."""

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
    def fired(self):
        return self.severity >= self.threshold

    def sort_key(self):
        return (self.pathology, ",".join(self.record_ids))

    def to_json_dict(self):
        return {"pathology": self.pathology,
                "record_ids": list(self.record_ids),
                "severity": self.severity,
                "threshold": self.threshold,
                "evidence": dict(self.evidence)}

    @classmethod
    def from_json_dict(cls, obj, where):
        """The outcome of a JSON object that `to_json_dict` wrote; an error
        names `where` and the field. Every key that it writes is mandatory
        and decoded by its kind, and any other key is an error. Evidence
        must be an object but is not kept, since risk and report never
        read it: the outcome gets an empty read-only one."""
        fields = decode_object(_OUTCOME_FIELDS, obj, where)
        fields["evidence"] = _NO_EVIDENCE
        return cls(**fields)


# the keys of DetectorOutcome.to_json_dict, with their kinds
_OUTCOME_FIELDS = declare(
    ("pathology", "id", True), ("record_ids", "strings", True),
    ("severity", "number", True), ("threshold", "number", True),
    ("evidence", "object", True))
# one shared read-only mapping stands for the evidence that is not kept
_NO_EVIDENCE = MappingProxyType({})


@dataclass(frozen=True)
class AuditResult:
    outcomes: tuple
    skipped: dict   # detector -> reason
    # detector -> {unit ids: reason}; empty where no unit was dropped, as
    # where each detector has one unit
    dropped: dict = field(default_factory=dict)
    # which records each detector could score; written as validation.json
    validation: Optional["ValidationReport"] = None

    def to_json_dict(self):
        # the outcomes as they are: the writer converts each one as it
        # writes it, so their dicts never all exist at once
        return {"outcomes": self.outcomes,
                "skipped": dict(sorted(self.skipped.items())),
                "dropped": self.dropped}


# the keys of AuditResult.to_json_dict that `load_outcome_files` decodes,
# and those it skips: risk and report read only the outcomes
_OUTCOMES_FILE = declare(("outcomes", "array", True))
_OUTCOMES_SKIPPED = ("skipped", "dropped")


def load_outcome_files(paths):
    """The outcomes of each outcomes.json in `paths`, in file order.

    Each file is read in chunks by `records.read_json_chunked`, and each
    element of its "outcomes" array is decoded by
    `DetectorOutcome.from_json_dict` as soon as it is parsed, so neither a
    string of the whole file nor a dict tree of it is held, and every
    loaded outcome has empty evidence. A key that `AuditResult` does not
    write is an error naming the file, the outcome and the key.
    """
    outcomes = []
    for path in paths:
        def outcome(i, obj):
            return DetectorOutcome.from_json_dict(obj,
                                                  f"{path}: outcomes[{i}]")
        outcomes.extend(decode_object(
            _OUTCOMES_FILE, read_json_chunked(path, "outcomes", outcome),
            str(path), ignored=_OUTCOMES_SKIPPED)["outcomes"])
    return outcomes


# each kind of corpus -> the table of the detectors that read it
_TABLES = {"trace": GENERATIVE_DETECTORS,
           "classification": DISCRIMINATIVE_DETECTORS}
# each detector -> the kind of corpus it reads
_READS = {name: kind for kind, table in _TABLES.items() for name in table}
# each kind -> every field that some detector of its table requires, once:
# the columns of its presence matrix
_FIELDS = {kind: tuple(dict.fromkeys(f for required in table.values()
                                     for f in required))
           for kind, table in _TABLES.items()}
_ANNOTATION = "annotations."


def _wrong_kind(kind):
    return f"<requires a {kind} record>"


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Which records each detector can score, and why it cannot score the
    others.

    `ids` are the corpus's record ids in corpus order, and `patterns[d]`
    is detector d's missing-field bit pattern over them, one uint8 per
    record: bit b is set where the record lacks the b-th field of d's
    table entry. From these, `eligible(d)` gives the row indices of the
    records d can score (pattern 0), `available(d)` their ids, and
    `missing(d)` maps each distinct tuple of fields that records lack for
    d to the ids of the records lacking exactly those fields, in the order
    each tuple first occurs; all ids are in corpus order, and every record
    is in exactly one of the two. A detector that reads the other kind of
    corpus has an empty pattern, and is in `not_applicable` (unless the
    corpus is empty) with the reason "<requires a trace record>" or
    "<requires a classification record>". The audits take from the report
    which records each detector scores, and why a detector scores none.

    `to_json_dict` is the content of validation.json:
    {"record_count": N, "detectors": {d: entry}} for all 35 detectors,
    where entry is either
    {"available": [ids], "available_count": n,
     "missing": {"field,field": {"count": m, "ids": [ids]}}}
    with the missing fields joined by commas, or
    {"not_applicable": "<requires a trace record>", "count": N}.
    """

    ids: tuple
    patterns: dict        # detector -> uint8 array, one entry per record
    not_applicable: dict  # detector -> reason; it reads the other kind

    @property
    def record_count(self):
        return len(self.ids)

    def _ids(self, rows):
        return tuple(self.ids[i] for i in rows.tolist())

    def eligible(self, detector):
        """The row indices of the records the detector can score."""
        return np.flatnonzero(self.patterns[detector] == 0)

    def available(self, detector):
        """The ids of the records the detector can score."""
        return self._ids(self.eligible(detector))

    def missing(self, detector):
        """{missing-field tuple: ids of the records lacking exactly it}."""
        pattern = self.patterns[detector]
        return {tuple(f for bit, f in enumerate(REGISTRY[detector])
                      if code >> bit & 1):
                    self._ids(np.flatnonzero(pattern == code))
                for code in dict.fromkeys(pattern.tolist()) if code}

    def to_json_dict(self):
        detectors = {}
        for name in REGISTRY:
            if name in self.not_applicable:
                detectors[name] = {"not_applicable": self.not_applicable[name],
                                   "count": self.record_count}
                continue
            available = self.available(name)
            detectors[name] = {
                "available": available, "available_count": len(available),
                "missing": {",".join(fields): {"count": len(ids), "ids": ids}
                            for fields, ids in self.missing(name).items()}}
        return {"record_count": self.record_count, "detectors": detectors}


def presence(record):
    """A trace record's presence row: whether it carries each field of
    _FIELDS["trace"], the columns of `validate_corpus`'s presence matrix."""
    annotations = record.annotations
    return [f[len(_ANNOTATION):] in annotations if f.startswith(_ANNOTATION)
            else getattr(record, f) is not None for f in _FIELDS["trace"]]


# each detector -> the columns of its required fields in the presence
# matrix of the corpus kind it reads
_COLUMNS = {name: [_FIELDS[kind].index(f) for f in REGISTRY[name]]
            for name, kind in _READS.items()}


def carries(row, detector):
    """Whether a trace record whose `presence` row is `row` carries every
    field the trace detector requires, so its missing-field pattern in
    `validate_corpus` is 0."""
    return all(row[i] for i in _COLUMNS[detector])


def _presence_matrix(corpus, rows):
    """(the corpus's kind, its record ids, and whether each record carries
    each field of _FIELDS[kind]). A ClassificationCorpus supplies its
    columns' presence masks; a list of TraceRecords, its `rows`, or else
    `presence` of each record."""
    if hasattr(corpus, "present"):   # a ClassificationCorpus
        columns = [corpus.present[f] for f in _FIELDS["classification"]]
        return "classification", corpus.ids, np.stack(columns, axis=1)
    if rows is None:
        rows = [presence(rec) for rec in corpus]
    matrix = np.array(rows, dtype=bool)
    return ("trace", tuple(rec.id for rec in corpus),
            matrix.reshape(len(corpus), len(_FIELDS["trace"])))


def validate_corpus(corpus, rows=None):
    """Field availability of every detector on a corpus, a list of
    TraceRecords or a ClassificationCorpus, grouped by the missing fields;
    deterministic, with ids in corpus order. It is the one place that works
    out which fields a record lacks for a detector: those of the detector's
    table entry that the record does not carry. A detector that reads the
    other kind of corpus is not applicable, and its fields are not checked
    record by record. Record ids must be unique, as the report names each
    record by its id.

    It reads one (records x fields) presence matrix of the fields that the
    detectors of the corpus's kind require. For each detector a record's
    missing fields are a bit pattern over the detector's columns, which
    the report keeps; it groups the records by pattern when asked. For a
    list of TraceRecords, `rows` may give each record's `presence` row,
    taken before the record was trimmed to fewer fields; the records then
    supply only their ids."""
    kind, ids, present = _presence_matrix(corpus, rows)
    seen = set()
    for rid in ids:
        if rid in seen:
            raise ValueError(f"duplicate record id {rid!r}")
        seen.add(rid)
    patterns, not_applicable = {}, {}
    for name, reads in _READS.items():
        required = REGISTRY[name]
        if reads != kind:
            if ids:
                not_applicable[name] = _wrong_kind(reads)
            patterns[name] = np.zeros(0, dtype=np.uint8)
        else:
            lacks = ~present[:, _COLUMNS[name]]
            patterns[name] = (lacks << np.arange(len(required))).sum(
                axis=1, dtype=np.uint8)
    return ValidationReport(ids=ids, patterns=patterns,
                            not_applicable=not_applicable)
