"""Record model and JSONL corpus I/O.

Two record kinds exist: TraceRecord for generative model interactions and
ClassificationRecord for discriminative ones. Corpora are line-delimited
JSON (one record per line, UTF-8, snake_case field names). Knowledge bases
and causal fixtures live in plain JSON files.

All records are validated on load; a record that violates an invariant
aborts the load with the offending line number, record id, and field.
Loaded records are never mutated, so they are safe to share across threads.
Annotation keys and values and subgroup tags are interned on load: records
of one corpus share one string object for each distinct value.
"""

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


class CorpusError(ValueError):
    """Parse failure or corpus-level inconsistency (e.g. mixed d_e)."""


class RecordValidationError(CorpusError):
    """A single record violates an invariant; names record id and field."""

    def __init__(self, message, record_id=None, field_name=None, line=None):
        prefix = []
        if line is not None:
            prefix.append(f"line {line}")
        if record_id is not None:
            prefix.append(f"record {record_id!r}")
        if field_name is not None:
            prefix.append(f"field {field_name!r}")
        full = (": ".join([", ".join(prefix), message]) if prefix else message)
        super().__init__(full)
        self.record_id = record_id
        self.field_name = field_name
        self.line = line


def _as_vector(value, name, record_id):
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise RecordValidationError("expected a nonempty vector",
                                    record_id, name)
    if not np.all(np.isfinite(arr)):
        raise RecordValidationError("non-finite entries", record_id, name)
    return arr


def _interned_annotations(annotations):
    # the decoder gives every line its own copy of each repeated string
    return {sys.intern(str(k)): sys.intern(str(v))
            for k, v in annotations.items()}


def _check_prob(value, name, record_id):
    if value is None:
        return None
    v = float(value)
    if not (0.0 <= v <= 1.0) or not math.isfinite(v):
        raise RecordValidationError(f"probability {v} outside [0,1]",
                                    record_id, name)
    return v


@dataclass(eq=False)
class TraceRecord:
    """One generative interaction with precomputed embeddings.

    Only id, input_embedding and output_embedding are mandatory. Embeddings
    of the content space (input, output, truth, intent, context turns) must
    share one length d_e per record; claim embeddings must agree with each
    other but may live in their own space, as may the style embedding
    (dimensions are cross-checked against the knowledge base at scoring
    time instead).
    """

    id: str
    input_embedding: np.ndarray
    output_embedding: np.ndarray
    truth_embedding: Optional[np.ndarray] = None
    intent_embedding: Optional[np.ndarray] = None
    context_vectors: Optional[tuple] = None
    output_token_logprobs: Optional[tuple] = None
    prob_output_given_input: Optional[float] = None
    prob_truth_given_input: Optional[float] = None
    in_real_manifold: Optional[bool] = None
    in_train_set: Optional[bool] = None
    referenced_entities: Optional[tuple] = None
    claim_embeddings: Optional[tuple] = None
    style_embedding: Optional[np.ndarray] = None
    discomfort_score: Optional[float] = None
    output_magnitude: Optional[float] = None
    truth_magnitude: Optional[float] = None
    latent_dim: Optional[int] = None
    input_dim: Optional[int] = None
    has_inference_path: Optional[bool] = None
    annotations: dict = field(default_factory=dict)

    @property
    def embedding_dim(self):
        return int(self.input_embedding.size)

    def validate(self, line=None):
        rid = self.id
        d_e = self.input_embedding.size
        for name in ("output_embedding", "truth_embedding", "intent_embedding"):
            vec = getattr(self, name)
            if vec is not None and vec.size != d_e:
                raise RecordValidationError(
                    f"length {vec.size} != d_e {d_e}", rid, name, line)
        if self.context_vectors is not None:
            for c in self.context_vectors:
                if c.size != d_e:
                    raise RecordValidationError(
                        f"context vector length {c.size} != d_e {d_e}",
                        rid, "context_vectors", line)
        if self.claim_embeddings is not None:
            if len(self.claim_embeddings) == 0:
                raise RecordValidationError("empty claim list", rid,
                                            "claim_embeddings", line)
            dims = {c.size for c in self.claim_embeddings}
            if len(dims) > 1:
                raise RecordValidationError(
                    f"claim embeddings have mixed lengths {sorted(dims)}",
                    rid, "claim_embeddings", line)
        if self.output_token_logprobs is not None:
            if len(self.output_token_logprobs) == 0:
                raise RecordValidationError("empty log-prob sequence", rid,
                                            "output_token_logprobs", line)
            for lp in self.output_token_logprobs:
                if not math.isfinite(lp) or lp > 0.0:
                    raise RecordValidationError(
                        f"log-probability {lp} must be finite and <= 0",
                        rid, "output_token_logprobs", line)
        for name in ("prob_output_given_input", "prob_truth_given_input",
                     "discomfort_score"):
            _check_prob(getattr(self, name), name, rid)
        for name in ("output_magnitude", "truth_magnitude"):
            v = getattr(self, name)
            if v is not None and (not math.isfinite(v) or v < 0):
                raise RecordValidationError(f"{v} must be >= 0", rid, name,
                                            line)
        for name in ("latent_dim", "input_dim"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise RecordValidationError("must be a positive integer",
                                            rid, name, line)

    def to_json_dict(self):
        out = {"id": self.id,
               "input_embedding": self.input_embedding.tolist(),
               "output_embedding": self.output_embedding.tolist()}
        for name in ("truth_embedding", "intent_embedding", "style_embedding"):
            vec = getattr(self, name)
            if vec is not None:
                out[name] = vec.tolist()
        if self.context_vectors is not None:
            out["context_vectors"] = [c.tolist() for c in self.context_vectors]
        if self.claim_embeddings is not None:
            out["claim_embeddings"] = [c.tolist() for c in self.claim_embeddings]
        if self.output_token_logprobs is not None:
            out["output_token_logprobs"] = list(self.output_token_logprobs)
        if self.referenced_entities is not None:
            out["referenced_entities"] = list(self.referenced_entities)
        for name in ("prob_output_given_input", "prob_truth_given_input",
                     "in_real_manifold", "in_train_set", "discomfort_score",
                     "output_magnitude", "truth_magnitude", "latent_dim",
                     "input_dim", "has_inference_path"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        if self.annotations:
            out["annotations"] = dict(self.annotations)
        return out

    @classmethod
    def from_json_dict(cls, obj, line=None):
        rid = obj.get("id")
        if not isinstance(rid, str) or not rid:
            raise RecordValidationError("missing or empty id", None, "id", line)
        try:
            kwargs = {"id": rid,
                      "input_embedding": _as_vector(obj["input_embedding"],
                                                    "input_embedding", rid),
                      "output_embedding": _as_vector(obj["output_embedding"],
                                                     "output_embedding", rid)}
        except KeyError as exc:
            raise RecordValidationError("missing mandatory field", rid,
                                        exc.args[0], line) from None
        for name in ("truth_embedding", "intent_embedding", "style_embedding"):
            if obj.get(name) is not None:
                kwargs[name] = _as_vector(obj[name], name, rid)
        if obj.get("context_vectors") is not None:
            kwargs["context_vectors"] = tuple(
                _as_vector(c, "context_vectors", rid)
                for c in obj["context_vectors"])
        if obj.get("claim_embeddings") is not None:
            kwargs["claim_embeddings"] = tuple(
                _as_vector(c, "claim_embeddings", rid)
                for c in obj["claim_embeddings"])
        if obj.get("output_token_logprobs") is not None:
            kwargs["output_token_logprobs"] = tuple(
                float(x) for x in obj["output_token_logprobs"])
        if obj.get("referenced_entities") is not None:
            kwargs["referenced_entities"] = tuple(
                str(e) for e in obj["referenced_entities"])
        for name in ("prob_output_given_input", "prob_truth_given_input",
                     "discomfort_score", "output_magnitude", "truth_magnitude"):
            if obj.get(name) is not None:
                kwargs[name] = float(obj[name])
        for name in ("latent_dim", "input_dim"):
            if obj.get(name) is not None:
                kwargs[name] = int(obj[name])
        for name in ("in_real_manifold", "in_train_set", "has_inference_path"):
            if obj.get(name) is not None:
                kwargs[name] = bool(obj[name])
        if obj.get("annotations") is not None:
            kwargs["annotations"] = _interned_annotations(obj["annotations"])
        rec = cls(**kwargs)
        rec.validate(line=line)
        return rec


def _argmax_lowest_tie(probs):
    # ties broken by lowest class id for cross-platform determinism
    return int(np.argmax(probs))


@dataclass(eq=False)
class ClassificationRecord:
    """One classifier decision with its full probability vector.

    Pairing metadata that links related records (spurious-feature resamples,
    prosody-matched content, nested spans, train membership) travels in the
    free-form annotations map; dedicated fields cover the pair ids the
    detectors consume most often.
    """

    id: str
    features: np.ndarray
    predicted_label: int
    true_label: int
    class_probabilities: np.ndarray
    group: Optional[str] = None
    timestamp_index: Optional[int] = None
    is_ood: Optional[bool] = None
    perturbation_pair_id: Optional[str] = None
    noise_pair_id: Optional[str] = None
    segment_bounds: Optional[tuple] = None
    ref_segment_bounds: Optional[tuple] = None
    latency_pair_id: Optional[str] = None
    plausible_labels: Optional[frozenset] = None
    annotations: dict = field(default_factory=dict)

    @property
    def confidence(self):
        return float(np.max(self.class_probabilities))

    @property
    def correct(self):
        return self.predicted_label == self.true_label

    def validate(self, line=None):
        rid = self.id
        p = self.class_probabilities
        if np.any(p < 0) or np.any(p > 1):
            raise RecordValidationError("entries outside [0,1]", rid,
                                        "class_probabilities", line)
        total = float(p.sum())
        if abs(total - 1.0) > 1e-9:
            raise RecordValidationError(f"probabilities sum {total:.6g}", rid,
                                        "class_probabilities", line)
        if self.predicted_label != _argmax_lowest_tie(p):
            raise RecordValidationError(
                f"predicted_label {self.predicted_label} is not the argmax "
                f"of class_probabilities", rid, "predicted_label", line)
        for name in ("segment_bounds", "ref_segment_bounds"):
            b = getattr(self, name)
            if b is not None:
                if len(b) != 2 or b[0] > b[1]:
                    raise RecordValidationError(
                        f"bounds {b} must be an ordered pair", rid, name, line)

    def to_json_dict(self):
        out = {"id": self.id,
               "features": self.features.tolist(),
               "predicted_label": self.predicted_label,
               "true_label": self.true_label,
               "class_probabilities": self.class_probabilities.tolist()}
        for name in ("group", "timestamp_index", "is_ood",
                     "perturbation_pair_id", "noise_pair_id",
                     "latency_pair_id"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        for name in ("segment_bounds", "ref_segment_bounds"):
            v = getattr(self, name)
            if v is not None:
                out[name] = list(v)
        if self.plausible_labels is not None:
            out["plausible_labels"] = sorted(self.plausible_labels)
        if self.annotations:
            out["annotations"] = dict(self.annotations)
        return out

    @classmethod
    def from_json_dict(cls, obj, line=None):
        rid = obj.get("id")
        if not isinstance(rid, str) or not rid:
            raise RecordValidationError("missing or empty id", None, "id", line)
        try:
            kwargs = {
                "id": rid,
                "features": _as_vector(obj["features"], "features", rid),
                "predicted_label": int(obj["predicted_label"]),
                "true_label": int(obj["true_label"]),
                "class_probabilities": _as_vector(
                    obj["class_probabilities"], "class_probabilities", rid),
            }
        except KeyError as exc:
            raise RecordValidationError("missing mandatory field", rid,
                                        exc.args[0], line) from None
        if obj.get("group") is not None:
            kwargs["group"] = sys.intern(str(obj["group"]))
        if obj.get("timestamp_index") is not None:
            kwargs["timestamp_index"] = int(obj["timestamp_index"])
        if obj.get("is_ood") is not None:
            kwargs["is_ood"] = bool(obj["is_ood"])
        for name in ("perturbation_pair_id", "noise_pair_id",
                     "latency_pair_id"):
            if obj.get(name) is not None:
                kwargs[name] = str(obj[name])
        for name in ("segment_bounds", "ref_segment_bounds"):
            if obj.get(name) is not None:
                kwargs[name] = tuple(int(x) for x in obj[name])
        if obj.get("plausible_labels") is not None:
            kwargs["plausible_labels"] = frozenset(
                int(x) for x in obj["plausible_labels"])
        if obj.get("annotations") is not None:
            kwargs["annotations"] = _interned_annotations(obj["annotations"])
        rec = cls(**kwargs)
        rec.validate(line=line)
        return rec


@dataclass(eq=False)
class KnowledgeBase:
    """Verified entity embeddings the coherence and reference checks match
    against. Entity ids are unique; all embeddings share one length."""

    entries: tuple
    source_tag: str = ""
    entity_ids: frozenset = field(init=False, repr=False)
    _vectors: dict = field(init=False, repr=False)
    _matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids = [e for e, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise CorpusError("knowledge base entity ids are not unique")
        dims = {vec.size for _, vec in self.entries}
        if len(dims) > 1:
            raise CorpusError(
                f"knowledge base embeddings have mixed lengths {sorted(dims)}")
        # one read-only matrix; entries and lookup hand out its rows
        self._matrix = np.array([v for _, v in self.entries], dtype=float)
        self._matrix.flags.writeable = False
        self.entries = tuple(zip(ids, self._matrix))
        self._vectors = dict(self.entries)
        self.entity_ids = frozenset(ids)

    def embedding_matrix(self):
        return self._matrix

    def lookup(self, entity_id):
        return self._vectors.get(entity_id)

    def to_json_dict(self):
        return {"source_tag": self.source_tag,
                "entries": [{"entity_id": e, "embedding": v.tolist()}
                            for e, v in self.entries]}


@dataclass(eq=False)
class CausalFixture:
    """Finite observational and interventional tables for one (X, Y[, Z])
    triple. Every row is a probability vector; edge_x_to_y records whether
    the fixture asserts a genuine causal edge from X to Y."""

    x_name: str
    y_name: str
    observational_conditional: np.ndarray
    interventional_table: np.ndarray
    z_name: Optional[str] = None
    secondary_interventional: Optional[np.ndarray] = None
    edge_x_to_y: bool = True

    def __post_init__(self):
        tables = [("observational_conditional", self.observational_conditional),
                  ("interventional_table", self.interventional_table)]
        if self.secondary_interventional is not None:
            tables.append(("secondary_interventional",
                           self.secondary_interventional))
        widths = set()
        for name, table in tables:
            if table.ndim != 2 or table.size == 0:
                raise CorpusError(f"{name}: expected a nonempty 2-d table")
            widths.add(table.shape[1])
            sums = table.sum(axis=1)
            for i, s in enumerate(sums):
                if abs(float(s) - 1.0) > 1e-9:
                    raise CorpusError(
                        f"{name} row {i} sums to {float(s):.6g}, expected 1")
            if np.any(table < 0):
                raise CorpusError(f"{name}: negative probability")
        if len(widths) > 1:
            raise CorpusError(
                f"tables disagree on the Y support size: {sorted(widths)}")

    def observational_marginal(self):
        # p(Y) under a uniform prior over the observed X values; the fixture
        # format carries no p(X)
        return self.observational_conditional.mean(axis=0)

    def to_json_dict(self):
        out = {"x_name": self.x_name, "y_name": self.y_name,
               "edge_x_to_y": self.edge_x_to_y,
               "observational_conditional":
                   self.observational_conditional.tolist(),
               "interventional_table": self.interventional_table.tolist()}
        if self.z_name is not None:
            out["z_name"] = self.z_name
        if self.secondary_interventional is not None:
            out["secondary_interventional"] = \
                self.secondary_interventional.tolist()
        return out


SCHEMAS = ("trace", "classification")


def load_trace_corpus(path, schema="trace"):
    """Load a JSONL corpus of the given schema ("trace" or "classification").

    Returns validated records in file order. Any malformed line or
    invariant violation aborts with the line number; duplicated ids or
    mixed embedding/feature dimensions abort at corpus level.
    """
    if schema not in SCHEMAS:
        raise CorpusError(f"unknown corpus schema {schema!r}; "
                          f"expected one of {SCHEMAS}")
    cls = TraceRecord if schema == "trace" else ClassificationRecord
    records = []
    seen = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(
                    f"line {line_no}: malformed JSON ({exc.msg})") from None
            rec = cls.from_json_dict(obj, line=line_no)
            if rec.id in seen:
                raise RecordValidationError("duplicate id", rec.id, "id",
                                            line_no)
            seen.add(rec.id)
            records.append(rec)
    if schema == "trace":
        dims = {r.embedding_dim for r in records}
        if len(dims) > 1:
            raise CorpusError(f"mixed embedding dimensions in corpus: "
                              f"{sorted(dims)}")
    else:
        dims = {r.features.size for r in records}
        if len(dims) > 1:
            raise CorpusError(f"mixed feature dimensions in corpus: "
                              f"{sorted(dims)}")
    return records


def save_trace_corpus(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for rec in records:
            handle.write(json.dumps(rec.to_json_dict(), sort_keys=True))
            handle.write("\n")


def load_knowledge_base(path):
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    if "entries" not in obj:
        raise CorpusError("knowledge base file lacks an 'entries' array")
    entries = []
    for i, entry in enumerate(obj["entries"]):
        try:
            eid = str(entry["entity_id"])
            vec = _as_vector(entry["embedding"], "embedding", eid)
        except KeyError as exc:
            raise CorpusError(f"entry {i}: missing {exc.args[0]}") from None
        entries.append((eid, vec))
    return KnowledgeBase(entries=tuple(entries),
                         source_tag=str(obj.get("source_tag", "")))


def _fixture_from_dict(obj):
    kwargs = {"x_name": str(obj["x_name"]), "y_name": str(obj["y_name"]),
              "observational_conditional":
                  np.asarray(obj["observational_conditional"], dtype=float),
              "interventional_table":
                  np.asarray(obj["interventional_table"], dtype=float),
              "edge_x_to_y": bool(obj.get("edge_x_to_y", True))}
    if obj.get("z_name") is not None:
        kwargs["z_name"] = str(obj["z_name"])
    if obj.get("secondary_interventional") is not None:
        kwargs["secondary_interventional"] = np.asarray(
            obj["secondary_interventional"], dtype=float)
    return CausalFixture(**kwargs)


def load_causal_fixtures(path):
    """Load one causal fixture or a list of them from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    if isinstance(obj, dict):
        obj = [obj]
    return [_fixture_from_dict(o) for o in obj]
