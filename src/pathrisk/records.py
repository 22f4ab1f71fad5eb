"""Record model and JSONL corpus I/O.

A trace corpus is a list of TraceRecords, one per generative interaction,
or of what a per-record function makes of each as its line is read: the
trace audit scores its record-level detectors there and keeps only the
fields its other detectors read (`generative.RecordStep`). A
classification corpus is one `classification.ClassificationCorpus`,
its records held as field columns, which a classification load imports.
Corpora are line-delimited JSON (one record per line, UTF-8, snake_case
field names). Knowledge bases and causal fixtures live in plain JSON
files.

Each field of a record or causal fixture has one kind, declared once at
the field. The kind's decoder accepts only its JSON type and converts it;
some kinds add a range check. An int counts as a number; a bool is neither
a number nor an int; nothing else is coerced, so "0.5" is not a number and
"false" is not a boolean. An absent or null optional field stays unset,
and a key that no field declares is an error, so a misspelt field cannot
drop out. The kinds are listed in `_KINDS`.

Every field table is built by `declare` and read by `decode_object`, so
each value is range-checked as it is decoded, and the first field in
declaration order that fails is the one named. `decode_object` is strict:
a key that is neither declared nor named by its reader as skipped is an
error. A record is then checked across fields. A violation aborts the load
naming the line, record id and field (a knowledge-base entry or causal
fixture names its index). A classification line is decoded by the same
kinds. Loaded records are never mutated. The package reads these input
formats and writes none of them.

The CLI's other input files are decoded the same way, each by the module
that owns its format, as the `cli` docstring lists: outcomes.json by
`registry` and risk_report.json by `risk`, beside their writers.
`read_json` parses a whole JSON file. `read_json_chunked` reads the file
in chunks and hands each element of one top-level array to a function as
soon as it is parsed, which decodes it: a knowledge base's entries and an
outcomes file's outcomes are read that way, so neither file is held as
one string or as one tree of parsed values.
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


# the largest magnitude of a vector's entry: the squared norms, distances
# and Gram entries that the detectors form from such entries stay finite
# for any vector length and corpus size, while one entry near the largest
# float overflows its vector's norm
_LARGEST_ENTRY = 1e100


def _vector(value):
    if (type(value) is not list or not value
            or not _NUMBER.issuperset(map(type, value))):
        raise _bad("a nonempty vector of numbers", value)
    vec = np.array(value, dtype=float)
    if not (np.abs(vec) <= _LARGEST_ENTRY).all():   # NaN fails it too
        if not np.isfinite(vec).all():
            raise ValueError("non-finite entries")
        raise ValueError(f"an entry exceeds {_LARGEST_ENTRY:g} in magnitude")
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


# --- kinds whose decoder adds a range check ----------------------------------

def _dimension(value):
    if _integer(value) <= 0:
        raise ValueError(f"{value} must be a positive integer")
    return value


def _probability(value):
    value = decode_number(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"probability {value} outside [0,1]")
    return value


def _magnitude(value):
    value = decode_number(value)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{value} must be finite and >= 0")
    return value


def _log_probs(value):
    value = _numbers(value)
    if not value:
        raise ValueError("empty log-prob sequence")
    for lp in value:
        if not -math.inf < lp <= 0.0:
            raise ValueError(f"log-probability {lp} must be finite and <= 0")
    return value


def _bounds(value):
    value = _integers(value)
    if len(value) != 2 or value[0] > value[1]:
        raise ValueError(f"bounds {list(value)} must be an ordered pair")
    return value


# kind -> its decoder, each kind with what it accepts
_KINDS = {
    "id": _id,                    # a nonempty string
    "string": _string,
    "boolean": _boolean,          # true or false
    "integer": _integer,          # an int
    "dimension": _dimension,      # an int > 0
    "number": decode_number,      # a number, not NaN
    "probability": _probability,  # a number in [0, 1]
    "magnitude": _magnitude,      # a number, finite and >= 0
    # a nonempty array of finite numbers of magnitude at most
    # _LARGEST_ENTRY, kept as a float array
    "vector": _vector,
    "bound": _bound,              # a number, or a vector
    "vectors": _vectors,          # an array of vectors
    # a nonempty array of vectors of one length, kept as a 2-d array
    "table": _table,
    "strings": _strings,          # an array of strings
    "log-probs": _log_probs,      # a nonempty array of finite numbers <= 0
    # an array of two ints, the first <= the second
    "bounds": _bounds,
    "labels": _label_set,         # an array of ints, kept as a set
    # an object of string values, keys and values interned
    "annotations": _annotations,
    "array": _list,
    "object": _object,
}


def _field(kind, mandatory=False, **default):
    """A dataclass field of that kind: mandatory, or else None unless
    another default is given."""
    if not (mandatory or default):
        default = {"default": None}
    return field(metadata={"kind": kind}, **default)


def _schema(cls):
    """Make cls a dataclass and `declare` its fields' kinds, in field
    order, as `_decoders`."""
    cls = dataclass(eq=False)(cls)
    cls._decoders = declare(*(
        (f.name, f.metadata["kind"],
         f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)))
    return cls


def declare(*declared):
    """The decoders of an object's fields for `decode_object`, from
    (name, kind) pairs, or (name, kind, mandatory) triples. Each decodes
    its kind, range check included."""
    return tuple((name, _KINDS[kind], any(mandatory))
                 for name, kind, *mandatory in declared)


def _unknown_key(decoders, obj, ignored):
    """The first key of `obj` that is neither declared nor ignored; None
    if there is none."""
    declared = {name for name, _, _ in decoders}
    return next((key for key in obj
                 if key not in declared and key not in ignored), None)


def decode_object(decoders, obj, where, id_name="id", ignored=()):
    """{name: decoded value} of the fields of the JSON object `obj` that
    `decoders` declares; absent ones are left out. `obj` is strict: a key
    that is neither declared nor in `ignored` (the keys its reader skips)
    is an error, and so is a null value of a declared key. An absent
    mandatory key is named as missing only where `obj` has no unknown
    key, which is then named instead, as a misspelt mandatory key is both.
    An error names `where`, the object's `id_name` field once decoded,
    and the field."""
    if type(obj) is not dict:
        raise RecordValidationError(str(_bad("a JSON object", obj)),
                                    where=where)
    out = {}
    try:
        for name, decode, mandatory in decoders:
            if name in obj:
                out[name] = decode(obj[name])
            elif mandatory:
                # a misspelt mandatory key is named as the unknown key it is
                unknown = _unknown_key(decoders, obj, ignored)
                if unknown is not None:
                    name = unknown
                    raise ValueError("unknown field")
                raise ValueError("missing mandatory field")
    except (ValueError, OverflowError) as exc:
        # OverflowError: an int too large for a float
        raise RecordValidationError(str(exc), out.get(id_name), name,
                                    where) from None
    # every declared key of obj is in out by now, so any other key is
    # either ignored or unknown
    if len(out) < len(obj):
        unknown = _unknown_key(decoders, obj, ignored)
        if unknown is not None:
            raise RecordValidationError("unknown field", out.get(id_name),
                                        unknown, where)
    return out


def _decode_record(decoders, obj, where, id_name="id"):
    """decode_object for a record, a causal fixture, or a knowledge-base
    file or entry: a key that no field declares is an error, and a null
    field reads as unset, like an absent one."""
    if type(obj) is dict and any(v is None for v in obj.values()):
        obj = {k: v for k, v in obj.items() if v is not None}
    return decode_object(decoders, obj, where, id_name)


# a JSON value nested deeper than the decoder can recurse
_TOO_DEEP = "JSON nested too deep to decode"


def _not_utf8(where, exc):
    return CorpusError(f"{where}: not UTF-8 ({exc})")


def read_json(path):
    """The JSON document in the file at `path`; CorpusError if it is not
    UTF-8, malformed or nested too deep to decode."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except UnicodeDecodeError as exc:
            # the whole file is decoded at once, so the position counts
            # from its first byte
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise _not_utf8(f"{path}: line {line}", exc) from None
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: malformed JSON ({exc.msg}, line "
                              f"{exc.lineno})") from None
        except RecursionError:
            raise CorpusError(f"{path}: {_TOO_DEEP}") from None


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


def _chunked_members(text, array_name, item, member):
    # the members of the top-level object, each element of array_name
    # handed to item as it is parsed and each other member to member; the
    # end of the file must follow it
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
                members[key] = member(key, text.value())
            if text.expect(",}") == "}":
                break
    if text.peek():
        raise _Malformed
    return members


def _as_read(key, value):
    return value


def read_json_chunked(path, array_name, item, member=_as_read):
    """What `read_json(path)` returns, read _CHUNK_CHARS characters at a
    time, so no string of the whole file is formed, and with each element
    x of the top-level member `array_name` replaced by item(i, x), i its
    index, and the value v of each other member by member(key, v).

    The top-level object is decoded member by member. When its member
    `array_name` is an array, each element is decoded alone and handed to
    `item` as soon as it is parsed, so an error `item` raises ends the
    read there; every other member is decoded whole and handed to
    `member` at once, so `item` can use what `member` made of the members
    ahead of the array. A file that is not one well-formed JSON object in
    UTF-8 is read again by `read_json`, so its error (the message and the
    line counted from the start of the file), or its value when that is
    not an object, is exactly `read_json`'s.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return _chunked_members(_ChunkedText(handle), array_name, item,
                                    member)
        except (_Malformed, UnicodeDecodeError, RecursionError):
            # read_json reports a decoding error at its position in the file
            pass
    return read_json(path)


@_schema
class TraceRecord:
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

    @classmethod
    def from_json_dict(cls, obj, where=None):
        """The record of a JSON object, validated; errors name `where`."""
        rec = cls(**_decode_record(cls._decoders, obj, where))
        rec.validate(where)
        return rec

    def validate(self, where=None):
        """The checks across fields: every content-space embedding has
        the input's length, and the claims are nonempty and of one length.
        Each field's own kind and range were checked as it was decoded."""
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


@dataclass(eq=False)
class KnowledgeBase:
    """Verified entity embeddings the coherence and reference checks match
    against. Entity ids are unique; all embeddings share one length."""

    entries: tuple
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


SCHEMAS = ("trace", "classification")


def _json_lines(handle):
    """(line number, parsed JSON value) of each line that is not blank, of
    a file opened with errors="surrogateescape": a byte that is not UTF-8
    is read as a lone surrogate, and its line is an error naming the file
    and the line. Each line's text is held in a list of one, which
    enumerate keeps until the next line, and is taken out of it as it is
    parsed, so no text is held across the yield."""
    for line_no, line in enumerate(map(lambda text: [text], handle), 1):
        try:
            if not line[0].isascii():
                # the line's own bytes, decoded strictly
                line[0].encode("utf-8", "surrogateescape").decode("utf-8")
            if line[0].strip():
                yield line_no, json.loads(line.pop())
        except UnicodeDecodeError as exc:
            raise _not_utf8(f"{handle.name}: line {line_no}", exc) from None
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{handle.name}: line {line_no}: malformed "
                              f"JSON ({exc.msg})") from None
        except RecursionError:
            raise CorpusError(
                f"{handle.name}: line {line_no}: {_TOO_DEEP}") from None


def load_trace_corpus(path, schema="trace", record=None):
    """Load a JSONL corpus of the given schema ("trace" or "classification").

    A trace corpus is a list of validated TraceRecords in file order, a
    classification corpus a `classification.ClassificationCorpus`. Any
    malformed line or invariant violation aborts with the line number, and
    so does an id seen on an earlier line; mixed embedding/feature
    dimensions abort at corpus level, once the last line is read.

    With `record` (read by a trace load only), the list holds
    record(i, rec) in place of each record rec, i its index, called as
    soon as the record is decoded and checked. A line's text is freed as
    it is parsed, its parse tree before `record` is called, and the full
    record before the next line is read, so the fields that `record` does
    not keep live for one line only. `generative.RecordStep` is such a function: it scores the
    record-level detectors and keeps only what the other detectors read.
    """
    if schema not in SCHEMAS:
        raise CorpusError(f"unknown corpus schema {schema!r}; "
                          f"expected one of {SCHEMAS}")
    with open(path, "r", encoding="utf-8",
              errors="surrogateescape") as handle:
        if schema == "classification":
            # only a classification load compiles the column corpus
            from . import classification
            return classification.from_lines(_json_lines(handle))
        records, seen, dims = [], set(), set()
        for line_no, obj in _json_lines(handle):
            where = f"line {line_no}"
            rec = TraceRecord.from_json_dict(obj, where)
            # the loop would hold each name until the next line is parsed:
            # the parse tree goes before `record` scores the record, and the
            # full record before the next line is read
            del obj
            if rec.id in seen:
                raise RecordValidationError("duplicate id", rec.id, "id",
                                            where)
            seen.add(rec.id)
            dims.add(rec.input_embedding.size)
            records.append(rec if record is None
                           else record(len(records), rec))
            del rec
    if len(dims) > 1:
        raise CorpusError(f"mixed embedding dimensions in corpus: "
                          f"{sorted(dims)}")
    return records


# the file's source_tag is checked as a string and not kept
_KB_FILE = declare(("source_tag", "string"), ("entries", "array", True))
_KB_ENTRY = declare(("entity_id", "string", True),
                    ("embedding", "vector", True))


def _kb_entry(i, obj):
    # an entry's embedding becomes an array as soon as the entry is
    # parsed, so the floats of the whole file are never alive at once
    entry = _decode_record(_KB_ENTRY, obj, f"entry {i}", "entity_id")
    return entry["entity_id"], entry["embedding"]


def load_knowledge_base(path):
    """Load a knowledge base from a JSON object {"source_tag": string,
    "entries": [{"entity_id": string, "embedding": vector}, ...]}, read in
    chunks; each entry is decoded as it is parsed, so an entry's error
    comes before the file's own. The optional source_tag must be a string;
    nothing reads it."""
    obj = _decode_record(_KB_FILE,
                         read_json_chunked(path, "entries", _kb_entry),
                         "knowledge base")
    return KnowledgeBase(entries=tuple(obj["entries"]))


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
