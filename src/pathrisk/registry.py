"""Pathology registry: the one table of detectors, and what both families
share.

`REGISTRY` holds one `Detector` row for each of the 35 detector ids, the 21
generative ones first: the kind of corpus it reads ("trace" or
"classification"), its arity (what one scored unit is; `Arity.CORPUS` for
every discriminative detector), its loss kind, the record fields it
requires, its firing threshold under its family's config, and whether it
reads the knowledge base. Its scorer is the function `_score_<id>` of its
family's module, which collects it by name into `_SCORERS` at import, so a
row without a scorer fails the import, naming the function.
`GENERATIVE_DETECTORS` and `DISCRIMINATIVE_DETECTORS` are {id: fields}
views of each kind's rows; an id's family is the view that holds it.

It also holds the types every audit shares (outcome, result, errors,
validation report), `validate_corpus`, the one place that works out which
fields a record lacks, as one presence code per record that each detector
masks with the bits of its own fields (with `presence` and `carries`, its
record-at-a-time form for a trace record as it is read), and the helpers
both families call: `fmt` writes an evidence number, `clamp01` clips a
severity to [0, 1] and `group_by` groups records by a key.

The outcome formats are written and read here alone. An audit writes two
files. outcomes.json (0.7.0) is `AuditResult.to_json_dict`, the object
{"dropped": {detector: {unit: reason}}, "firing_thresholds": {detector:
threshold}, "outcomes": [...], "skipped": {detector: reason}} for either
family. `firing_thresholds` holds one threshold for each detector that has
outcomes, and sorts ahead of `outcomes`, so a canonical file gives each
threshold before the outcomes that need it. Each outcome's object is
`DetectorOutcome.to_json_dict`, with exactly the keys pathology, severity
and unit. The unit is one string, the one that `dropped` uses as its key
(`generative._unit` forms it; "" for every discriminative outcome).
`load_outcome_files` reads the file back for risk and report: it decodes
the thresholds and the outcomes, in either member order, and skips the
other two keys. Any other key, at either level, is an error, so an outcome
as 0.6.0 wrote it, with `record_ids` and `threshold`, is rejected, and so
is 0.5.0's with its evidence. So are an outcome whose pathology has no
threshold and a threshold that no outcome uses. Nothing derived is
written: an outcome fired where severity >= its detector's threshold, and
its family is its pathology's row's.

evidence.json is `AuditResult.evidence_json_dict`, {detector: [evidence
objects]}: the k-th object of a detector's list is the evidence of its
k-th outcome in outcomes.json, and a detector with no outcome has no
entry. Evidence is written for readers; nothing in the package reads
evidence.json, so risk and report never parse it.
"""

import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional

import numpy as np

from .records import (RecordValidationError, declare, decode_object,
                      read_json_chunked)

# Severity floor for existential predicates ("some entity unknown", "both a
# true and a false claim present"): any positive fraction fires.
EXISTENTIAL_EPS = 1e-9


class Arity(str, Enum):
    RECORD = "record"        # one TraceRecord
    PAIR = "pair"            # two linked records
    SEQUENCE = "sequence"    # an ordered conversation of records
    CORPUS = "corpus"        # an unordered record set
    FIXTURE = "fixture"      # a CausalFixture


# A loss kind says what a severity, the loss sample that the risk engine
# folds, is: "event", 0 or 1; "graded", in [0, 1] and growing with the
# slack of the unit's predicate; "extreme", the extreme output similarity
# over a corpus's pairs; "rate", the fraction of a corpus's units with an
# event, as `discriminative._event_rate` folds it; "statistic", another
# statistic of a corpus, such as an accuracy gap, a group disparity or a
# calibration error.
class Detector(NamedTuple):
    corpus: str           # the kind of corpus it reads
    arity: Arity          # what one scored unit is
    loss: str             # its loss kind
    fields: tuple         # the record fields it requires; "annotations.k"
                          # is the key k of the record's annotations
    threshold: Callable   # its family's config -> the firing threshold
    needs_kb: bool = False


def _generative(arity, loss, threshold, *fields, needs_kb=False):
    return Detector("trace", Arity(arity), loss, fields, threshold, needs_kb)


def _discriminative(loss, threshold, *fields):
    return Detector("classification", Arity.CORPUS, loss, fields, threshold)


REGISTRY = {
    "delusion": _generative("record", "graded", lambda c: 0.5,
                            "prob_output_given_input",
                            "prob_truth_given_input"),
    "illusion": _generative("record", "graded", lambda c: c.s_hi,
                            "output_embedding", "truth_embedding",
                            "in_real_manifold"),
    "hallucination": _generative("record", "event", lambda c: 0.5,
                                 "in_real_manifold"),
    "confabulation": _generative("record", "graded", lambda c: 1.0 - c.tau_c,
                                 "prob_output_given_input",
                                 "claim_embeddings", needs_kb=True),
    "misattribution": _generative("pair", "graded", lambda c: c.s_hi,
                                  "output_embedding", "annotations.content_id",
                                  "annotations.source_id"),
    "semantic_drift": _generative("sequence", "graded", lambda c: 1.0 - c.s_lo,
                                  "output_embedding", "intent_embedding"),
    "semantic_compression": _generative(
        "record", "graded", lambda c: 1.0 - c.rho, "latent_dim", "input_dim"),
    "exaggeration": _generative("record", "graded", lambda c: 0.5,
                                "output_magnitude", "truth_magnitude"),
    "causal_inference_failure": _generative("fixture", "graded",
                                            lambda c: 1.0 - c.tv_tol),
    "uncanny_valley": _generative("record", "graded", lambda c: c.s_hi,
                                  "output_embedding", "truth_embedding",
                                  "discomfort_score"),
    "bluffing": _generative("corpus", "statistic", lambda c: c.f_hi,
                            "input_embedding", "output_embedding",
                            "output_token_logprobs"),
    "cognitive_stereotypy": _generative("corpus", "extreme", lambda c: c.s_hi,
                                        "input_embedding", "output_embedding"),
    "pragmatic_misunderstanding": _generative(
        "record", "graded", lambda c: 1.0 - c.s_indep,
        "output_embedding", "intent_embedding"),
    "hypersignification": _generative("corpus", "extreme", lambda c: c.gamma,
                                      "input_embedding", "output_embedding"),
    "semantic_reheating": _generative("record", "event", lambda c: 0.5,
                                      "in_train_set"),
    "semantic_warming": _generative(
        "sequence", "graded", lambda c: c.f_hi, "style_embedding",
        "output_token_logprobs"),
    "simulated_authority": _generative(
        "record", "graded", lambda c: 1.0 - c.tau_c, "style_embedding",
        "claim_embeddings", needs_kb=True),
    "abductive_leap": _generative("record", "graded", lambda c: c.delta,
                                  "prob_output_given_input",
                                  "has_inference_path"),
    "contextual_drift": _generative("record", "graded", lambda c: 0.5,
                                    "context_vectors"),
    "referential_hallucination": _generative(
        "record", "graded", lambda c: EXISTENTIAL_EPS, "referenced_entities",
        needs_kb=True),
    "semiotic_frankenstein": _generative(
        "record", "graded", lambda c: EXISTENTIAL_EPS, "claim_embeddings",
        needs_kb=True),
    "overfitting": _discriminative("statistic", lambda c: c.gap_hi,
                                   "annotations.in_train_set"),
    "bias_amplification": _discriminative("statistic", lambda c: c.amp_hi,
                                          "group"),
    "spurious_correlation": _discriminative(
        "statistic", lambda c: c.gap_hi, "annotations.spurious_pair_id",
        "annotations.spurious_role"),
    "adversarial_vulnerability": _discriminative(
        "rate", lambda c: c.flip_hi, "perturbation_pair_id", "features"),
    "calibration_failure": _discriminative("statistic", lambda c: c.ece_hi,
                                           "class_probabilities"),
    "concept_drift_sensitivity": _discriminative(
        "statistic", lambda c: c.gap_hi, "timestamp_index", "features"),
    "misclassification_under_uncertainty": _discriminative(
        "rate", lambda c: c.frac_hi, "is_ood"),
    "prosodic_misclassification": _discriminative(
        "rate", lambda c: c.frac_hi, "annotations.content_id",
        "annotations.prosody"),
    "accent_bias": _discriminative("statistic", lambda c: c.amp_hi,
                                   "group", "annotations.content_id"),
    "turn_boundary_failure": _discriminative(
        "statistic", lambda c: 0.5, "segment_bounds", "ref_segment_bounds"),
    "semantic_boundary_confusion": _discriminative(
        "statistic", lambda c: c.gap_hi, "annotations.span_pair_id",
        "annotations.span_role", "segment_bounds"),
    "noise_overfitting": _discriminative("rate", lambda c: c.flip_hi,
                                         "noise_pair_id",
                                         "annotations.noise_role"),
    "latency_induced_decision_drift": _discriminative(
        "rate", lambda c: c.flip_hi, "latency_pair_id"),
    "ambiguity_collapse": _discriminative("rate", lambda c: c.frac_hi,
                                          "plausible_labels"),
}
# {id: its fields} of the detectors of each kind of corpus
GENERATIVE_DETECTORS, DISCRIMINATIVE_DETECTORS = (
    {name: row.fields for name, row in REGISTRY.items() if row.corpus == kind}
    for kind in ("trace", "classification"))

# semantic reheating and warming are two detectors for one pathology, so
# reports count 34 distinct pathologies
ALIAS_GROUPS = (("semantic_reheating", "semantic_warming"),)


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
    """Verdict of one detector evaluation on one unit. Its severity is the
    loss sample handed to the risk engine, and it fired where severity >=
    threshold, the one firing threshold of its detector. Slotted: an audit
    holds one per (detector, unit), so no instance carries a __dict__."""

    pathology: str
    unit: str
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
        return (self.pathology, self.unit)

    def to_json_dict(self):
        """The outcome's object in outcomes.json; its threshold goes to the
        file's firing_thresholds, and its evidence to evidence.json."""
        return {"pathology": self.pathology, "severity": self.severity,
                "unit": self.unit}

    @classmethod
    def from_json_dict(cls, obj, where, thresholds=None):
        """The outcome of a JSON object that `to_json_dict` wrote; an error
        names `where` and the field. Every key that it writes is mandatory
        and decoded by its kind, and any other key is an error. The
        threshold is `thresholds[pathology]`, which every outcome of the
        pathology shares, as it shares the interned pathology string; it
        is None while `thresholds` is (the file's thresholds not read
        yet). The file holds no evidence, so the outcome gets an empty
        read-only one."""
        fields = decode_object(_OUTCOME_FIELDS, obj, where)
        pathology = sys.intern(fields["pathology"])
        outcome = cls(pathology, fields["unit"], fields["severity"],
                      None if thresholds is None
                      else thresholds.get(pathology), _NO_EVIDENCE)
        if thresholds is not None and outcome.threshold is None:
            raise _no_threshold(outcome, where)
        return outcome


# the keys of DetectorOutcome.to_json_dict, with their kinds
_OUTCOME_FIELDS = declare(("pathology", "id", True),
                          ("severity", "number", True),
                          ("unit", "string", True))
# one shared read-only mapping stands for the evidence a loaded outcome
# does not have
_NO_EVIDENCE = MappingProxyType({})


def _no_threshold(outcome, where):
    return RecordValidationError(
        f"{outcome.pathology!r} has no entry in firing_thresholds",
        field_name="pathology", where=where)


@dataclass(frozen=True)
class AuditResult:
    outcomes: tuple
    skipped: dict   # detector -> reason
    # detector -> {unit: reason}; empty where no unit was dropped, as
    # where each detector has one unit
    dropped: dict = field(default_factory=dict)
    # which records each detector could score; written as validation.json
    validation: Optional["ValidationReport"] = None

    def firing_thresholds(self):
        """{detector: its firing threshold} for each detector with
        outcomes; ValueError if two of a detector's outcomes disagree."""
        thresholds = {}
        for outcome in self.outcomes:
            if thresholds.setdefault(outcome.pathology,
                                     outcome.threshold) != outcome.threshold:
                raise ValueError(f"{outcome.pathology}: outcomes with two "
                                 f"firing thresholds")
        return thresholds

    def to_json_dict(self):
        # the outcomes as they are: the writer converts each one as it
        # writes it, so their dicts never all exist at once
        return {"firing_thresholds": self.firing_thresholds(),
                "outcomes": self.outcomes,
                "skipped": dict(sorted(self.skipped.items())),
                "dropped": self.dropped}

    def evidence_json_dict(self):
        """The content of evidence.json: each detector's list of the
        evidence objects of its outcomes, in outcome order. The lists hold
        the outcomes' own evidence dicts, which the writer encodes as they
        are."""
        evidence = {}
        for outcome in self.outcomes:
            evidence.setdefault(outcome.pathology, []).append(
                outcome.evidence)
        return evidence


# the keys of AuditResult.to_json_dict that `load_outcome_files` decodes,
# and those it skips: risk and report read only the thresholds and the
# outcomes
_OUTCOMES_FILE = declare(("firing_thresholds", "object", True),
                         ("outcomes", "array", True))
_OUTCOMES_SKIPPED = ("skipped", "dropped")
# the keys of firing_thresholds: any detector id, with a number
_THRESHOLD_FIELDS = declare(*((name, "number") for name in REGISTRY))


def _load_outcome_file(path):
    """The outcomes of one outcomes.json, as `load_outcome_files` reads
    them."""
    thresholds = None   # {detector: threshold}, once that member is read

    def member(key, value):
        nonlocal thresholds
        if key == "firing_thresholds":
            thresholds = value = decode_object(
                _THRESHOLD_FIELDS, value, f"{path}: firing_thresholds")
        return value

    def outcome(i, obj):
        return DetectorOutcome.from_json_dict(obj, f"{path}: outcomes[{i}]",
                                              thresholds)

    outcomes = decode_object(
        _OUTCOMES_FILE, read_json_chunked(path, "outcomes", outcome, member),
        path, ignored=_OUTCOMES_SKIPPED)["outcomes"]
    # outcomes read ahead of the thresholds get theirs now, each replaced
    # in place, so the list never holds two copies
    for i, got in enumerate(outcomes):
        if got.threshold is None:
            if got.pathology not in thresholds:
                raise _no_threshold(got, f"{path}: outcomes[{i}]")
            outcomes[i] = replace(got, threshold=thresholds[got.pathology])
    unused = thresholds.keys() - {got.pathology for got in outcomes}
    if unused:
        raise RecordValidationError("no outcome has this pathology",
                                    field_name=min(unused),
                                    where=f"{path}: firing_thresholds")
    return outcomes


def load_outcome_files(paths):
    """The outcomes of each outcomes.json in `paths`, in file order.

    Each file is read in chunks by `records.read_json_chunked`, and each
    element of its "outcomes" array is decoded by
    `DetectorOutcome.from_json_dict` as soon as it is parsed, so neither a
    string of the whole file nor a dict tree of it is held, and every
    loaded outcome has empty evidence. In a canonical file the thresholds
    come first, and each outcome is built whole as it is parsed; an
    outcome parsed before them is completed once the file is read. A key
    that `AuditResult` does not write is an error naming the file, the
    outcome and the key, and so are an outcome whose pathology has no
    threshold and a threshold of a pathology with no outcome.
    """
    outcomes = []
    for path in paths:
        outcomes += _load_outcome_file(str(path))
    return outcomes


# each kind of corpus -> every field that some detector reading it
# requires, once: bit b of a record's presence code stands for the b-th
_FIELDS = {kind: tuple(dict.fromkeys(f for row in REGISTRY.values()
                                     if row.corpus == kind
                                     for f in row.fields))
           for kind in ("trace", "classification")}
# each detector -> the bits of its required fields in the presence code of
# the kind of corpus it reads
_MASK = {name: sum(1 << _FIELDS[row.corpus].index(f) for f in row.fields)
         for name, row in REGISTRY.items()}
_ANNOTATION = "annotations."


def _wrong_kind(kind):
    return f"<requires a {kind} record>"


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Which fields each record lacks, and so which records each detector
    can score.

    `ids` are the corpus's record ids in corpus order, and `codes` their
    presence codes, one int64 per record: bit b is set where the record
    lacks the b-th field of `_FIELDS` of the corpus's kind. `eligible(d)`
    gives the row indices of the records whose code has none of the bits
    of d's fields (`_MASK[d]`) set, and `lacks(row, d)` names the fields
    of d's that the record at `row` lacks. A detector that reads the other
    kind of corpus has no eligible record, and is in `not_applicable`
    (unless the corpus is empty) with the reason "<requires a trace
    record>" or "<requires a classification record>". The audits take
    from the report which records each detector scores, and why a
    detector scores none.

    `to_json_dict` is the content of validation.json, which names what
    each record lacks once:
    {"record_count": N, "lacking": {"field,field": {"count": m, "ids":
    [ids]}}, "detectors": {d: entry}}. Every record is in exactly one
    `lacking` group, keyed by the fields it lacks in `_FIELDS` order ("" if
    none), with ids in corpus order. Each of the 35 detectors' entry is
    either {"reads": [fields], "available_count": n} or
    {"not_applicable": "<requires a trace record>", "count": N}. Detector
    d can score record r exactly when r's lacking fields and d's reads do
    not meet.
    """

    ids: tuple
    codes: np.ndarray     # int64, one presence code per record
    not_applicable: dict  # detector -> reason; it reads the other kind

    @property
    def record_count(self):
        return len(self.ids)

    def eligible(self, detector):
        """The row indices of the records the detector can score."""
        if detector in self.not_applicable:
            return np.zeros(0, dtype=np.intp)
        return np.flatnonzero((self.codes & _MASK[detector]) == 0)

    def lacks(self, row, detector):
        """The fields of a detector of the corpus's kind that the record at
        `row` lacks, in the detector's order."""
        code, fields = int(self.codes[row]), _FIELDS[REGISTRY[detector].corpus]
        return tuple(f for f in REGISTRY[detector].fields
                     if code >> fields.index(f) & 1)

    def to_json_dict(self):
        groups = {}   # presence code -> the ids of the records that have it
        for rid, code in zip(self.ids, self.codes.tolist()):
            groups.setdefault(code, []).append(rid)
        # the codes' bits stand for the fields of the kind whose detectors
        # apply (either kind for an empty corpus, which has no code)
        fields = next(_FIELDS[row.corpus] for name, row in REGISTRY.items()
                      if name not in self.not_applicable)
        detectors = {}
        for name in REGISTRY:
            if name in self.not_applicable:
                detectors[name] = {"not_applicable": self.not_applicable[name],
                                   "count": self.record_count}
                continue
            available = sum(len(ids) for code, ids in groups.items()
                            if not code & _MASK[name])
            detectors[name] = {"reads": list(REGISTRY[name].fields),
                               "available_count": available}
        return {"record_count": self.record_count,
                "lacking": {",".join(f for bit, f in enumerate(fields)
                                     if code >> bit & 1):
                            {"count": len(ids), "ids": ids}
                            for code, ids in groups.items()},
                "detectors": detectors}


def presence(record):
    """A trace record's presence code: bit b is set where it lacks the
    b-th field of _FIELDS["trace"], as in `validate_corpus`'s report."""
    annotations = record.annotations
    return sum(1 << bit for bit, f in enumerate(_FIELDS["trace"])
               if (f[len(_ANNOTATION):] not in annotations
                   if f.startswith(_ANNOTATION)
                   else getattr(record, f) is None))


def carries(code, detector):
    """Whether a trace record whose `presence` code is `code` carries every
    field the trace detector requires, so the report lists it as eligible."""
    return not code & _MASK[detector]


def validate_corpus(corpus, codes=None):
    """The `ValidationReport` of a corpus, a list of TraceRecords or a
    ClassificationCorpus: each record's presence code, with ids in corpus
    order. It is the one place that works out which fields a record lacks.
    A detector that reads the other kind of corpus is not applicable, and
    its fields are not checked record by record. Record ids must be
    unique, as the report names each record by its id.

    A ClassificationCorpus supplies its columns' presence masks. For a
    list of TraceRecords, `codes` may give each record's `presence` code,
    taken before the record was trimmed to fewer fields; the records then
    supply only their ids."""
    if hasattr(corpus, "present"):   # a ClassificationCorpus
        kind, ids = "classification", corpus.ids
        codes = np.zeros(len(ids), dtype=np.int64)
        for bit, f in enumerate(_FIELDS[kind]):
            codes |= (~corpus.present[f]).astype(np.int64) << bit
    else:
        kind, ids = "trace", tuple(rec.id for rec in corpus)
        if codes is None:
            codes = [presence(rec) for rec in corpus]
        codes = np.array(codes, dtype=np.int64)
    seen = set()
    for rid in ids:
        if rid in seen:
            raise ValueError(f"duplicate record id {rid!r}")
        seen.add(rid)
    not_applicable = {name: _wrong_kind(row.corpus) for name, row in
                      REGISTRY.items() if ids and row.corpus != kind}
    return ValidationReport(ids=ids, codes=codes,
                            not_applicable=not_applicable)
