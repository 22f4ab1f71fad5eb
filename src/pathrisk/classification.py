"""A classification corpus held as field columns.

A classification line is decoded and range-checked by the `records` kinds,
and its values are appended to typed buffers at once, so no per-record
object is built and nothing of a line outlives it but its id and the
values in the buffers: the floats of each vector field go into an
array("d"); every int field (the two labels, the timestamp, each bound)
into an array("q"), and the plausible labels as flat (row, label) pairs,
each row's sorted; `is_ood` and each optional field's presence flag into
a bytearray; a string field (group, a pair id, an annotation key a
detector reads) as its code, in first-seen order, into an array("i"). An
int column that meets an int too large for int64 becomes a list of Python
ints from that line on, as numpy would hold such ints.

Once the lines are read, the buffers are viewed as numpy arrays without a
copy: each vector field is one (n, k) float array, `class_probabilities`
zero-padded to the widest row; the labels, timestamps and bounds are
int64 arrays, or object arrays where they fell back to Python ints; a
string field is its sorted distinct values and each row's index into
them; and every field has a presence mask. The checks across fields and
rows (probability range and sum, label range, argmax, repeated id) run
over all rows at once, and the error still names the first line that
fails any check, as when each line was checked whole before the next was
read; mixed feature widths are reported last.

Only a classification load imports this module, so the other subcommands
do not compile it.
"""

from array import array
from dataclasses import dataclass

import numpy as np

from .records import (CorpusError, RecordValidationError, _decode_record,
                      declare)
from .registry import DISCRIMINATIVE_DETECTORS


# a classification line's fields in decoding order: (name, kind, mandatory)
_FIELDS = (
    ("id", "id", True), ("features", "vector", True),
    ("predicted_label", "integer", True), ("true_label", "integer", True),
    ("class_probabilities", "vector", True), ("group", "string", False),
    ("timestamp_index", "integer", False), ("is_ood", "boolean", False),
    ("perturbation_pair_id", "string", False),
    ("noise_pair_id", "string", False), ("segment_bounds", "bounds", False),
    ("ref_segment_bounds", "bounds", False),
    ("latency_pair_id", "string", False),
    ("plausible_labels", "labels", False),
    ("annotations", "annotations", False))
_CLASSIFICATION = declare(*_FIELDS)
# every field that some discriminative detector reads, once
_READ = dict.fromkeys(name for required in DISCRIMINATIVE_DETECTORS.values()
                      for name in required)
# the string fields held as columns: the string fields of a line and the
# annotation keys that a discriminative detector reads
STRING_COLUMNS = tuple(
    name for name, kind, _ in _FIELDS if kind == "string" and name in _READ
) + tuple(name for name in _READ if name.startswith("annotations."))
# where a line holds each string column's value: (column, whether it is
# an annotation, its key in the line or in the annotations)
_STRING_KEYS = tuple((name, name.startswith("annotations."),
                      name.removeprefix("annotations."))
                     for name in STRING_COLUMNS)
# the int fields with what their column holds where the field is unset;
# a row of a bounds column is its two ints
_INTS = {"predicted_label": None, "true_label": None, "timestamp_index": 0,
         "segment_bounds": (0, 0), "ref_segment_bounds": (0, 0)}
# the optional fields held as columns that are not strings, each with a
# presence flag per row
_FLAGGED = tuple(name for name, kind, mandatory in _FIELDS
                 if not mandatory and kind not in ("string", "annotations"))


@dataclass(frozen=True, eq=False)
class ClassificationCorpus:
    """Classifier decisions with their probability vectors as field
    columns, row i being the corpus's i-th record.

    `features` is (n, d), `class_probabilities` (n, K) with each row
    zero-padded to the widest (no detector reads past a row's own class
    count, and a row's max and argmax are its own), `plausible_labels` an
    (n, K) mask. `strings` maps each field of `STRING_COLUMNS` to its
    distinct values, sorted, and each row's int32 index into them, -1
    where unset, so equal values are one string object. The labels are
    int64; `timestamp_index` and the (n, 2) bounds are int64 too, or
    object arrays of Python ints where a value is too large for int64.
    `present` maps every field held to its presence mask."""

    ids: tuple
    features: np.ndarray
    class_probabilities: np.ndarray
    predicted_label: np.ndarray
    true_label: np.ndarray
    timestamp_index: np.ndarray
    is_ood: np.ndarray
    segment_bounds: np.ndarray
    ref_segment_bounds: np.ndarray
    plausible_labels: np.ndarray
    present: dict
    strings: dict

    def __len__(self):
        return len(self.ids)

    @property
    def confidence(self):
        return self.class_probabilities.max(axis=1)

    @property
    def correct(self):
        return self.predicted_label == self.true_label


def _check_classification(where, rid, p, true_label, plausible, predicted):
    """The checks across fields of one row, the first that fails raising:
    probability range and sum, label range, argmax."""
    if p.min() < 0.0 or p.max() > 1.0:
        raise RecordValidationError("entries outside [0,1]", rid,
                                    "class_probabilities", where)
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise RecordValidationError(f"probabilities sum {total:.6g}", rid,
                                    "class_probabilities", where)
    # a label indexes class_probabilities
    for name, label in ([("true_label", true_label)]
                        + [("plausible_labels", y) for y in plausible]):
        if not 0 <= label < p.size:
            raise RecordValidationError(
                f"label {label} outside [0, {p.size})", rid, name, where)
    # argmax breaks ties by the lowest class id, on every platform
    if predicted != int(p.argmax()):
        raise RecordValidationError(
            f"predicted_label {predicted} is not the argmax of "
            f"class_probabilities", rid, "predicted_label", where)


def _padded(flat, counts):
    """The consecutive rows of `flat`, counts[i] entries in row i, as one
    array zero-padded to the widest row: `flat` itself, reshaped, where
    every row is as wide as the widest."""
    width = int(counts.max(initial=0))
    if flat.size == counts.size * width:
        return flat.reshape(counts.size, width)
    out = np.zeros((counts.size, width))
    out[np.arange(width) < counts[:, None]] = flat
    return out


def _repeats(ids):
    """The mask of the ids that repeat an earlier one: in a stable sort
    of the ids, each follows an equal id."""
    ordered = np.array(ids, dtype=object)
    order = ordered.argsort(kind="stable")
    ordered = ordered[order]
    repeat = np.zeros(len(ids), dtype=bool)
    repeat[order[1:][ordered[1:] == ordered[:-1]]] = True
    return repeat


def _first_invalid(lines, p, counts, ids, ints):
    """Raise the error of the first row that fails _check_classification
    or repeats an earlier id. `lines` holds the rows' line numbers, `p`
    their probabilities padded, row i's own being its first counts[i].
    `ints` holds the int columns as `_ints` views them: an int64 array
    over the column's array("q") (np.frombuffer), or an object array of
    Python ints where the column met an int too large for int64, which in
    a label column fails here. `plausible_labels` holds every row's
    plausible labels, in row order and sorted within a row, and
    `plausible_rows` the row of each. The checks run over all rows at
    once; each row they flag is then checked alone, in row order, to word
    the error."""
    if not counts.size:
        return
    repeat = _repeats(ids)
    bad = (p < 0.0).any(axis=1) | (p > 1.0).any(axis=1)
    for width in np.flatnonzero(np.bincount(counts)):
        # numpy sums each row of p[:, :width] as it sums that row alone
        bad |= (counts == width) & (
            np.abs(p[:, :width].sum(axis=1) - 1.0) > 1e-9)
    true_label, predicted, rows, labels = (
        ints[name] for name in ("true_label", "predicted_label",
                                "plausible_rows", "plausible_labels"))
    bad |= (true_label < 0) | (true_label >= counts)
    bad |= predicted != p.argmax(axis=1)
    bad[rows[(labels < 0) | (labels >= counts[rows])]] = True
    for i in np.flatnonzero(bad | repeat).tolist():
        where = f"line {lines[i]}"
        _check_classification(where, ids[i], p[i, :counts[i]],
                              true_label[i], labels[rows == i], predicted[i])
        if repeat[i]:
            raise RecordValidationError("duplicate id", ids[i], "id", where)


def _extend(ints, name, values):
    """Append the list of ints `values` to the int column ints[name]: an
    array("q") while its ints fit int64 (fromlist appends nothing when it
    raises), a list of Python ints from the first that does not."""
    column = ints[name]
    if type(column) is list:
        column += values
        return
    try:
        column.fromlist(values)
    except OverflowError:
        ints[name] = column.tolist() + values


def _ints(column):
    """An int column as an int64 array over its buffer, or, once it has
    fallen back to Python ints, as an object array of them."""
    if type(column) is list:
        return np.array(column, dtype=object)
    return np.frombuffer(column, dtype=np.int64)


def from_lines(lines):
    """The ClassificationCorpus of (line number, JSON object) pairs.

    Each object is decoded by the kinds, each field range-checked as it
    is decoded, and its values appended to the buffers: the line numbers,
    the class counts and each int field to an array("q") (`_extend`; a
    column falls back to a list of Python ints at the first int too large
    for int64), with the plausible labels as the row of each beside the
    label, a row's in sorted order; the features and probabilities to an
    array("d"); `is_ood` and the presence flags of `_FLAGGED` to a
    bytearray each; each string column's first-seen code to an
    array("i"). Once all lines are read, or one fails, the rows before go
    through the checks across fields and rows, which read the buffers
    through np.frombuffer, so the error is the first failing line's, as
    if each line were checked whole before the next was read. The feature
    widths are compared last."""
    numbers, widths, ids = array("q"), set(), []
    features, probabilities, counts = array("d"), array("d"), array("q")
    ints = {name: array("q") for name in (*_INTS, "plausible_rows",
                                          "plausible_labels")}
    flags = {name: bytearray() for name in _FLAGGED}
    is_ood = bytearray()
    # per string field: {value: its first-seen code}, each row's code
    strings = {name: ({}, array("i")) for name in STRING_COLUMNS}
    error = None
    try:
        for line_no, obj in lines:
            rec = _decode_record(_CLASSIFICATION, obj, f"line {line_no}")
            row = len(numbers)
            numbers.append(line_no)
            ids.append(rec["id"])
            widths.add(rec["features"].size)
            features.frombytes(rec["features"].tobytes())
            probabilities.frombytes(rec["class_probabilities"].tobytes())
            counts.append(rec["class_probabilities"].size)
            for name in _FLAGGED:
                flags[name].append(name in rec)
            is_ood.append(rec.get("is_ood", False))
            for name, unset in _INTS.items():
                value = rec.get(name, unset)
                _extend(ints, name,
                        list(value) if type(value) is tuple else [value])
            labels = sorted(rec.get("plausible_labels", ()))
            ints["plausible_rows"].fromlist([row] * len(labels))
            _extend(ints, "plausible_labels", labels)
            annotations = rec.get("annotations", {})
            for name, annotated, key in _STRING_KEYS:
                codes, column = strings[name]
                value = (annotations if annotated else rec).get(key)
                column.append(-1 if value is None
                              else codes.setdefault(value, len(codes)))
    except CorpusError as exc:
        error = exc
    counts = np.frombuffer(counts, dtype=np.int64)
    probs = _padded(np.frombuffer(probabilities), counts)
    ints = {name: _ints(column) for name, column in ints.items()}
    _first_invalid(numbers, probs, counts, ids, ints)
    if error is not None:
        raise error
    if len(widths) > 1:
        raise CorpusError(f"mixed feature dimensions in corpus: "
                          f"{sorted(widths)}")
    n = len(numbers)
    # every label is a class index by now, so both columns are int64
    plausible = np.zeros(probs.shape, dtype=bool)
    plausible[ints.pop("plausible_rows"), ints.pop("plausible_labels")] = True
    for name in ("segment_bounds", "ref_segment_bounds"):
        ints[name] = ints[name].reshape(n, 2)
    present = {name: np.frombuffer(flags[name], dtype=bool)
               for name in _FLAGGED}
    for name, (codes, column) in strings.items():
        values = sorted(codes)
        # first-seen code -> rank; -1 (unset) indexes the last entry, -1
        rank = np.full(len(values) + 1, -1, dtype=np.int32)
        rank[[codes[v] for v in values]] = np.arange(len(values))
        strings[name] = (tuple(values),
                         rank[np.frombuffer(column, dtype=np.int32)])
        present[name] = strings[name][1] >= 0
    every = np.ones(n, dtype=bool)
    present.update((name, every) for name, _, mandatory in _CLASSIFICATION
                   if mandatory)
    return ClassificationCorpus(
        ids=tuple(ids), features=np.frombuffer(features).reshape(
            n, widths.pop() if n else 0), class_probabilities=probs,
        is_ood=np.frombuffer(is_ood, dtype=bool), plausible_labels=plausible,
        present=present, strings=strings, **ints)
