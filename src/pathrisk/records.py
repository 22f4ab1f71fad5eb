"""Record model and JSONL corpus I/O.

Two record kinds exist: TraceRecord for generative model interactions and
ClassificationRecord for discriminative ones. Corpora are line-delimited
JSON (one record per line, UTF-8, snake_case field names). Knowledge bases
and causal fixtures live in plain JSON files.

Each field of a record or causal fixture has one kind, declared once at
the field. The kind's decoder accepts only its JSON type and converts it;
some kinds add a range check. An int counts as a number; a bool is neither
a number nor an int; nothing else is coerced, so "0.5" is not a number and
"false" is not a boolean. An absent or null optional field stays unset,
and a key that no field declares is an error, so a misspelt field cannot
drop out. The kinds are listed in `_KINDS`.

`from_json_dict` and `to_json_dict` walk the declared fields; `validate`
runs the range checks, then the checks that relate fields to each other.
A record that violates either aborts the load with the line number, record
id and field; a knowledge-base entry or causal fixture names its index.

Loaded records are never mutated, so they are safe to share across threads.
Interning makes the records of one corpus share one string object for each
distinct annotation key, annotation value and subgroup tag.

The CLI's other input files are decoded by the same kinds, through
`declare` and `decode_object`. `read_json` parses a whole JSON file.
`read_json_chunked` reads the file in chunks and hands each element of one
top-level array to a function as soon as it is parsed, which decodes it:
a knowledge base's entries and an outcomes file's outcomes are read that
way, so neither file is held as one string or as one tree of parsed
values.
"""

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np


class CorpusError(ValueError):
    """Parse failure or corpus-level inconsistency (e.g. mixed d_e)."""


class RecordValidationError(CorpusError):
    """One record, knowledge-base entry or fixture violates an invariant;
    names where it was read (such as "line 3"), its id and the field."""

    def __init__(self, message, record_id=None, field_name=None, where=None):
        prefix = [where] if where is not None else []
        if record_id is not None:
            prefix.append(f"record {record_id!r}")
        if field_name is not None:
            prefix.append(f"field {field_name!r}")
        full = (": ".join([", ".join(prefix), message]) if prefix else message)
        super().__init__(full)
        self.record_id = record_id
        self.field_name = field_name


# --- decoders: one JSON type each, converted; a ValueError otherwise ---------

_NUMBER = frozenset((int, float))
_INT = frozenset((int,))
_STR = frozenset((str,))


def _bad(what, value):
    text = json.dumps(value, default=repr)
    return ValueError(f"expected {what}, got "
                      f"{text if len(text) <= 40 else text[:36] + ' ...'}")


def _array(value, types, what):
    if type(value) is not list or not types.issuperset(map(type, value)):
        raise _bad(what, value)
    return value


def _id(value):
    if type(value) is not str or not value:
        raise _bad("a nonempty string", value)
    return value


def _string(value):
    if type(value) is not str:
        raise _bad("a string", value)
    return value


def _tag(value):
    # a subgroup tag recurs through the corpus: one shared string for each
    return sys.intern(_string(value))


def _boolean(value):
    if type(value) is not bool:
        raise _bad("true or false", value)
    return value


def _integer(value):
    if type(value) is not int:
        raise _bad("an integer", value)
    return value


def decode_number(value):
    """A JSON number as a float. An int counts; a bool, a string and NaN do
    not. Raises ValueError otherwise."""
    if (type(value) is not float and type(value) is not int) or value != value:
        raise _bad("a number", value)
    return float(value)


def _vector(value):
    if (type(value) is not list or not value
            or not _NUMBER.issuperset(map(type, value))):
        raise _bad("a nonempty vector of numbers", value)
    vec = np.array(value, dtype=float)
    if not np.isfinite(vec).all():
        raise ValueError("non-finite entries")
    return vec


def _bound(value):
    return _vector(value) if type(value) is list else decode_number(value)


def _vectors(value):
    if type(value) is not list:
        raise _bad("an array of vectors", value)
    return tuple(map(_vector, value))


def _table(value):
    rows = _vectors(value)
    if len({row.size for row in rows}) != 1:
        raise _bad("a nonempty array of rows of one length", value)
    return np.array(rows)


def _strings(value):
    return tuple(_array(value, _STR, "an array of strings"))


def _numbers(value):
    return tuple(map(float, _array(value, _NUMBER, "an array of numbers")))


def _integers(value):
    return tuple(_array(value, _INT, "an array of integers"))


def _label_set(value):
    return frozenset(_array(value, _INT, "an array of integers"))


def _list(value):
    if type(value) is not list:
        raise _bad("an array", value)
    return value


def _object(value):
    if type(value) is not dict:
        raise _bad("an object", value)
    return value


def _annotations(value):
    if type(value) is not dict or not _STR.issuperset(map(type,
                                                           value.values())):
        raise _bad("an object of strings", value)
    # the JSON decoder gives every line its own copy of each repeated string
    return {sys.intern(k): sys.intern(v) for k, v in value.items()}


# --- range checks: a ValueError when a decoded value is out of range ---------

def _unit_interval(value):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"probability {value} outside [0,1]")


def _finite_nonnegative(value):
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{value} must be finite and >= 0")


def _positive(value):
    if value <= 0:
        raise ValueError(f"{value} must be a positive integer")


def _log_probs(value):
    if not value:
        raise ValueError("empty log-prob sequence")
    for lp in value:
        if not -math.inf < lp <= 0.0:
            raise ValueError(f"log-probability {lp} must be finite and <= 0")


def _ordered_pair(value):
    if len(value) != 2 or value[0] > value[1]:
        raise ValueError(f"bounds {list(value)} must be an ordered pair")


# kind -> (decoder, range check or None), each kind with what it accepts
_KINDS = {
    "id": (_id, None),                  # a nonempty string
    "string": (_string, None),
    "tag": (_tag, None),                # a string, interned
    "boolean": (_boolean, None),        # true or false
    "integer": (_integer, None),        # an int
    "dimension": (_integer, _positive),  # an int > 0
    "number": (decode_number, None),    # a number, not NaN
    "probability": (decode_number, _unit_interval),  # a number in [0, 1]
    "magnitude": (decode_number, _finite_nonnegative),  # finite and >= 0
    # a nonempty array of finite numbers, kept as a float array
    "vector": (_vector, None),
    "bound": (_bound, None),            # a number, or a vector
    "vectors": (_vectors, None),        # an array of vectors
    # a nonempty array of vectors of one length, kept as a 2-d array
    "table": (_table, None),
    "strings": (_strings, None),        # an array of strings
    # a nonempty array of finite numbers <= 0
    "log-probs": (_numbers, _log_probs),
    # an array of two ints, the first <= the second
    "bounds": (_integers, _ordered_pair),
    "labels": (_label_set, None),       # an array of ints, kept as a set
    # an object of string values, keys and values interned
    "annotations": (_annotations, None),
    "array": (_list, None),
    "object": (_object, None),
}


def _field(kind, mandatory=False, **default):
    """A dataclass field of that kind: mandatory, or else None unless
    another default is given."""
    if not (mandatory or default):
        default = {"default": None}
    return field(metadata={"kind": kind}, **default)


def _schema(cls):
    """Make cls a dataclass and gather its fields' kinds, in field order:
    `_decoders` holds (name, decoder, mandatory), `_checks` (name, range
    check) for the fields whose kind has a check."""
    cls = dataclass(eq=False)(cls)
    decoders, checks = [], []
    for f in fields(cls):
        decode, check = _KINDS[f.metadata["kind"]]
        mandatory = f.default is MISSING and f.default_factory is MISSING
        decoders.append((f.name, decode, mandatory))
        if check is not None:
            checks.append((f.name, check))
    cls._decoders, cls._checks = tuple(decoders), tuple(checks)
    return cls


def declare(*declared):
    """The decoders of an object's fields for `decode_object`, from
    (name, kind) pairs, or (name, kind, True) for a mandatory field. Each
    decodes its kind and runs the kind's range check."""
    return tuple((name, _checked(*_KINDS[kind]), bool(mandatory))
                 for name, kind, *mandatory in declared)


def _checked(decode, check):
    if check is None:
        return decode

    def decode_and_check(value):
        value = decode(value)
        check(value)
        return value
    return decode_and_check


def decode_object(decoders, obj, where, id_name="id", ignored=None):
    """{name: decoded value} of the fields of the JSON object `obj` that
    `decoders` declares; absent and null ones are left out. With `ignored`
    (a tuple of keys) `obj` is strict: a key neither declared nor ignored,
    or a null value, is an error. An error names `where`, the object's
    `id_name` field once decoded, and the field."""
    if type(obj) is not dict:
        raise RecordValidationError(str(_bad("a JSON object", obj)),
                                    where=where)
    out = {}
    try:
        for name, decode, mandatory in decoders:
            value = obj.get(name)
            if value is not None or (ignored is not None and name in obj):
                out[name] = decode(value)
            elif mandatory:
                raise ValueError("missing mandatory field")
    except (ValueError, OverflowError) as exc:
        # OverflowError: an int too large for a float
        raise RecordValidationError(str(exc), out.get(id_name), name,
                                    where) from None
    # when strict, every declared key of obj is in out by now, so any
    # other key is either ignored or unknown
    if ignored is not None and len(out) < len(obj):
        for name in obj:
            if name not in out and name not in ignored:
                raise RecordValidationError("unknown field", out.get(id_name),
                                            name, where)
    return out


def _decode_record(decoders, obj, where, id_name="id"):
    """decode_object for a record, a causal fixture, or a knowledge-base
    file or entry: a key that no field declares is an error, and a null
    field reads as unset, like an absent one."""
    if type(obj) is dict and any(v is None for v in obj.values()):
        obj = {k: v for k, v in obj.items() if v is not None}
    return decode_object(decoders, obj, where, id_name, ignored=())


def read_json(path):
    """The JSON document in the file at `path`; CorpusError if malformed."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: malformed JSON ({exc.msg}, line "
                              f"{exc.lineno})") from None


# characters the chunked reader takes from a file at a time
_CHUNK_CHARS = 1 << 16
# what can follow a complete JSON value: whitespace, a delimiter, a bracket
_FOLLOWERS = frozenset(" \t\n\r,:]}")
_DECODER = json.JSONDecoder()


class _Malformed(Exception):
    """The chunked reader met text that does not continue a JSON object."""


class _ChunkedText:
    """The text of an open file, read _CHUNK_CHARS characters at a time;
    `text[pos:]` is the part not consumed yet, and the rest is dropped
    whenever more is read."""

    def __init__(self, handle):
        self.handle = handle
        self.text = ""
        self.pos = 0

    def _read(self):
        # at least as much as is held, so a long value is decoded again
        # only a logarithmic number of times; False at the end of the file
        more = self.handle.read(max(_CHUNK_CHARS, len(self.text) - self.pos))
        if not more:
            return False
        self.text = self.text[self.pos:] + more
        self.pos = 0
        return True

    def peek(self):
        """The next character that is not whitespace, which is not
        consumed; "" at the end of the file."""
        while True:
            self.pos = json.decoder.WHITESPACE.match(self.text,
                                                     self.pos).end()
            if self.pos < len(self.text) or not self._read():
                return self.text[self.pos:self.pos + 1]

    def expect(self, chars):
        """Consume the next character that is not whitespace, which must
        be one of `chars`, and return it."""
        char = self.peek()
        if not char or char not in chars:
            raise _Malformed
        self.pos += 1
        return char

    def value(self):
        """Consume and decode the next JSON value. It is complete once
        something that can follow a value follows it, or the file ends;
        until then (a value or number cut at the end of the text read so
        far) more is read and it is decoded again."""
        self.peek()
        while True:
            try:
                obj, end = _DECODER.raw_decode(self.text, self.pos)
            except json.JSONDecodeError:
                if self._read():
                    continue
                raise _Malformed from None
            if ((end < len(self.text) and self.text[end] in _FOLLOWERS)
                    or not self._read()):
                self.pos = end
                return obj


def _chunked_members(text, array_name, item):
    # the members of the top-level object, each element of array_name
    # handed to item as it is parsed; the end of the file must follow it
    members = {}
    text.expect("{")
    if text.peek() == "}":
        text.pos += 1
    else:
        while True:
            if text.peek() != '"':
                raise _Malformed
            key = text.value()
            text.expect(":")
            if key == array_name and text.peek() == "[":
                text.pos += 1
                members[key] = items = []
                if text.peek() == "]":
                    text.pos += 1
                else:
                    items.append(item(0, text.value()))
                    while text.expect(",]") == ",":
                        items.append(item(len(items), text.value()))
            else:
                members[key] = text.value()
            if text.expect(",}") == "}":
                break
    if text.peek():
        raise _Malformed
    return members


def read_json_chunked(path, array_name, item):
    """What `read_json(path)` returns, read _CHUNK_CHARS characters at a
    time, so no string of the whole file is formed, and with each element
    x of the top-level member `array_name` replaced by item(i, x), i its
    index.

    The top-level object is decoded member by member. When its member
    `array_name` is an array, each element is decoded alone and handed to
    `item` as soon as it is parsed, so an error `item` raises ends the
    read there; every other member is decoded whole. A file that is not one
    well-formed JSON object in UTF-8 is read again by `read_json`, so its
    error (the message and the line counted from the start of the file),
    or its value when that is not an object, is exactly `read_json`'s.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return _chunked_members(_ChunkedText(handle), array_name, item)
        except (_Malformed, UnicodeDecodeError):
            # read_json reports a decoding error at its position in the file
            pass
    return read_json(path)


def _json_value(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):
        return dict(value)
    return value


def _encode(obj):
    """The JSON object of a record or fixture: every declared field that is
    set, an empty annotation map counting as unset."""
    out = {}
    for name, _, _ in obj._decoders:
        value = getattr(obj, name)
        if value is not None and not (type(value) is dict and not value):
            out[name] = _json_value(value)
    return out


class _Record:
    """JSON decoding, encoding and range checks of a record type, read
    from the kinds of its fields."""

    @classmethod
    def from_json_dict(cls, obj, where=None):
        """The record of a JSON object, validated; errors name `where`."""
        rec = cls(**_decode_record(cls._decoders, obj, where))
        rec.validate(where)
        return rec

    def to_json_dict(self):
        return _encode(self)

    def validate(self, where=None):
        """Run the range check of each set field; a record type adds its
        checks across fields."""
        for name, check in self._checks:
            value = getattr(self, name)
            if value is not None:
                try:
                    check(value)
                except ValueError as exc:
                    raise RecordValidationError(str(exc), self.id, name,
                                                where) from None


@_schema
class TraceRecord(_Record):
    """One generative interaction with precomputed embeddings.

    Only id, input_embedding and output_embedding are mandatory. Embeddings
    of the content space (input, output, truth, intent, context turns) must
    share one length d_e per record; claim embeddings must agree with each
    other but may live in their own space, as may the style embedding
    (dimensions are cross-checked against the knowledge base at scoring
    time instead).
    """

    id: str = _field("id", mandatory=True)
    input_embedding: np.ndarray = _field("vector", mandatory=True)
    output_embedding: np.ndarray = _field("vector", mandatory=True)
    truth_embedding: Optional[np.ndarray] = _field("vector")
    intent_embedding: Optional[np.ndarray] = _field("vector")
    context_vectors: Optional[tuple] = _field("vectors")
    output_token_logprobs: Optional[tuple] = _field("log-probs")
    prob_output_given_input: Optional[float] = _field("probability")
    prob_truth_given_input: Optional[float] = _field("probability")
    in_real_manifold: Optional[bool] = _field("boolean")
    in_train_set: Optional[bool] = _field("boolean")
    referenced_entities: Optional[tuple] = _field("strings")
    claim_embeddings: Optional[tuple] = _field("vectors")
    style_embedding: Optional[np.ndarray] = _field("vector")
    discomfort_score: Optional[float] = _field("probability")
    output_magnitude: Optional[float] = _field("magnitude")
    truth_magnitude: Optional[float] = _field("magnitude")
    latent_dim: Optional[int] = _field("dimension")
    input_dim: Optional[int] = _field("dimension")
    has_inference_path: Optional[bool] = _field("boolean")
    annotations: dict = _field("annotations", default_factory=dict)

    @property
    def embedding_dim(self):
        return int(self.input_embedding.size)

    def validate(self, where=None):
        super().validate(where)
        rid = self.id
        d_e = self.input_embedding.size
        for name in ("output_embedding", "truth_embedding", "intent_embedding"):
            vec = getattr(self, name)
            if vec is not None and vec.size != d_e:
                raise RecordValidationError(
                    f"length {vec.size} != d_e {d_e}", rid, name, where)
        for c in self.context_vectors or ():
            if c.size != d_e:
                raise RecordValidationError(
                    f"context vector length {c.size} != d_e {d_e}",
                    rid, "context_vectors", where)
        if self.claim_embeddings is not None:
            if len(self.claim_embeddings) == 0:
                raise RecordValidationError("empty claim list", rid,
                                            "claim_embeddings", where)
            dims = {c.size for c in self.claim_embeddings}
            if len(dims) > 1:
                raise RecordValidationError(
                    f"claim embeddings have mixed lengths {sorted(dims)}",
                    rid, "claim_embeddings", where)


@_schema
class ClassificationRecord(_Record):
    """One classifier decision with its full probability vector.

    Pairing metadata that links related records (spurious-feature resamples,
    prosody-matched content, nested spans, train membership) travels in the
    free-form annotations map; dedicated fields cover the pair ids the
    detectors consume most often.
    """

    id: str = _field("id", mandatory=True)
    features: np.ndarray = _field("vector", mandatory=True)
    predicted_label: int = _field("integer", mandatory=True)
    true_label: int = _field("integer", mandatory=True)
    class_probabilities: np.ndarray = _field("vector", mandatory=True)
    group: Optional[str] = _field("tag")
    timestamp_index: Optional[int] = _field("integer")
    is_ood: Optional[bool] = _field("boolean")
    perturbation_pair_id: Optional[str] = _field("string")
    noise_pair_id: Optional[str] = _field("string")
    segment_bounds: Optional[tuple] = _field("bounds")
    ref_segment_bounds: Optional[tuple] = _field("bounds")
    latency_pair_id: Optional[str] = _field("string")
    plausible_labels: Optional[frozenset] = _field("labels")
    annotations: dict = _field("annotations", default_factory=dict)

    @property
    def confidence(self):
        return float(np.max(self.class_probabilities))

    @property
    def correct(self):
        return self.predicted_label == self.true_label

    def validate(self, where=None):
        super().validate(where)
        rid = self.id
        p = self.class_probabilities
        if p.min() < 0.0 or p.max() > 1.0:
            raise RecordValidationError("entries outside [0,1]", rid,
                                        "class_probabilities", where)
        total = float(p.sum())
        if abs(total - 1.0) > 1e-9:
            raise RecordValidationError(f"probabilities sum {total:.6g}", rid,
                                        "class_probabilities", where)
        # a label indexes class_probabilities
        labels = [("true_label", self.true_label)]
        labels += [("plausible_labels", label)
                   for label in sorted(self.plausible_labels or ())]
        for name, label in labels:
            if not 0 <= label < p.size:
                raise RecordValidationError(
                    f"label {label} outside [0, {p.size})", rid, name, where)
        # argmax breaks ties by the lowest class id, on every platform
        if self.predicted_label != int(p.argmax()):
            raise RecordValidationError(
                f"predicted_label {self.predicted_label} is not the argmax "
                f"of class_probabilities", rid, "predicted_label", where)


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


@_schema
class CausalFixture:
    """Finite observational and interventional tables for one (X, Y[, Z])
    triple. Every row is a probability vector; edge_x_to_y records whether
    the fixture asserts a genuine causal edge from X to Y."""

    x_name: str = _field("string", mandatory=True)
    y_name: str = _field("string", mandatory=True)
    observational_conditional: np.ndarray = _field("table", mandatory=True)
    interventional_table: np.ndarray = _field("table", mandatory=True)
    z_name: Optional[str] = _field("string")
    secondary_interventional: Optional[np.ndarray] = _field("table")
    edge_x_to_y: bool = _field("boolean", default=True)

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
        return _encode(self)


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
            where = f"line {line_no}"
            rec = cls.from_json_dict(obj, where)
            if rec.id in seen:
                raise RecordValidationError("duplicate id", rec.id, "id",
                                            where)
            seen.add(rec.id)
            records.append(rec)
    trace = schema == "trace"
    dims = {r.embedding_dim if trace else r.features.size for r in records}
    if len(dims) > 1:
        raise CorpusError(f"mixed {'embedding' if trace else 'feature'} "
                          f"dimensions in corpus: {sorted(dims)}")
    return records


def save_trace_corpus(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for rec in records:
            handle.write(json.dumps(rec.to_json_dict(), sort_keys=True))
            handle.write("\n")


_KB_FILE = (("source_tag", _string, False), ("entries", _list, True))
_KB_ENTRY = (("entity_id", _string, True), ("embedding", _vector, True))


def _kb_entry(i, obj):
    # an entry's embedding becomes an array as soon as the entry is
    # parsed, so the floats of the whole file are never alive at once
    entry = _decode_record(_KB_ENTRY, obj, f"entry {i}", "entity_id")
    return entry["entity_id"], entry["embedding"]


def load_knowledge_base(path):
    """Load a knowledge base from a JSON object {"source_tag": string,
    "entries": [{"entity_id": string, "embedding": vector}, ...]}, read in
    chunks; each entry is decoded as it is parsed, so an entry's error
    comes before the file's own."""
    obj = _decode_record(_KB_FILE,
                         read_json_chunked(path, "entries", _kb_entry),
                         "knowledge base")
    return KnowledgeBase(entries=tuple(obj["entries"]),
                         source_tag=obj.get("source_tag", ""))


def load_causal_fixtures(path):
    """Load one causal fixture or an array of them from a JSON file."""
    obj = read_json(path)
    items = [obj] if type(obj) is dict else obj
    if type(items) is not list:
        raise CorpusError(str(_bad("a fixture object or an array of them",
                                   obj)))
    fixtures = []
    for i, item in enumerate(items):
        where = f"fixture {i}"
        kwargs = _decode_record(CausalFixture._decoders, item, where)
        try:
            fixtures.append(CausalFixture(**kwargs))
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from None
    return fixtures
