"""A classification corpus held as field columns.

A classification line is decoded and range-checked by the `records` kinds,
and its values go into the columns at once, so no per-record object is
built and no per-record array outlives its line: each vector field is one
(n, k) float array, `class_probabilities` zero-padded to the widest row;
the labels, timestamps and bounds are int arrays; a string field (group, a
pair id, an annotation key a detector reads) is its sorted distinct values
and each row's index into them; and every field has a presence mask. The
checks across fields and rows (probability range and sum, label range,
argmax, repeated id) run over all rows at once, and the error still names
the first line that fails any check, as when each line was checked whole
before the next was read; mixed feature widths are reported last.

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
# the other optional fields: what a column holds where its field is unset,
# and its dtype (an int too large for int64 is held as a Python int)
_OPTIONAL = {"timestamp_index": (0, np.int64), "is_ood": (False, bool),
             "segment_bounds": ((0, 0), np.int64),
             "ref_segment_bounds": ((0, 0), np.int64),
             "plausible_labels": (None, bool)}


@dataclass(frozen=True, eq=False)
class ClassificationCorpus:
    """Classifier decisions with their probability vectors as field
    columns, row i being the corpus's i-th record.

    `features` is (n, d), `class_probabilities` (n, K) with each row
    zero-padded to the widest (no detector reads past a row's own class
    count, and a row's max and argmax are its own), `plausible_labels` an
    (n, K) mask. `strings` maps each field of `STRING_COLUMNS` to its
    distinct values, sorted, and each row's int32 index into them, -1
    where unset, so equal values are one string object. `present` maps
    every field held to its presence mask."""

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
    array zero-padded to the widest row."""
    out = np.zeros((counts.size, int(counts.max(initial=0))))
    out[np.arange(out.shape[1]) < counts[:, None]] = flat
    return out


def _first_invalid(lines, p, counts, columns):
    """Raise the error of the first row that fails _check_classification
    or repeats an earlier id; `p` holds the rows' probabilities padded,
    row i's own being its first counts[i]. The checks run over all rows at
    once; each row they flag is then checked alone, in row order, to word
    the error."""
    if not counts.size:
        return
    ids = columns["id"]
    # a row after the first of its id repeats it
    repeat = np.ones(len(ids), dtype=bool)
    repeat[np.unique(np.array(ids, dtype=object), return_index=True)[1]] = 0
    bad = (p < 0.0).any(axis=1) | (p > 1.0).any(axis=1)
    for width in np.flatnonzero(np.bincount(counts)):
        # numpy sums rows of one width stacked as it sums each alone
        rows = counts == width
        bad[rows] |= np.abs(p[rows, :width].sum(axis=1) - 1.0) > 1e-9
    true_label, predicted, plausible = (
        columns[name] for name in ("true_label", "predicted_label",
                                   "plausible_labels"))
    bad |= (np.array(true_label) < 0) | (np.array(true_label) >= counts)
    bad |= np.array(predicted) != p.argmax(axis=1)
    bad |= [bool(labels) and not 0 <= labels[0] <= labels[-1] < count
            for labels, count in zip(plausible, counts.tolist())]
    for i in np.flatnonzero(bad | repeat).tolist():
        where = f"line {lines[i]}"
        _check_classification(where, ids[i], p[i, :counts[i]],
                              true_label[i], plausible[i] or (), predicted[i])
        if repeat[i]:
            raise RecordValidationError("duplicate id", ids[i], "id", where)


def from_lines(lines):
    """The ClassificationCorpus of (line number, JSON object) pairs.

    Each object is decoded by the kinds, each field range-checked as it
    is decoded, and its values appended to the columns. Once all lines are
    read, or one fails, the rows before go through the checks across
    fields and rows, so the error is the first failing line's, as if each
    line were checked whole before the next was read. The feature widths
    are compared last."""
    numbers, widths = array("q"), set()
    features, probabilities, counts = array("d"), array("d"), array("q")
    columns = {name: [] for name in ("id", "predicted_label", "true_label",
                                     *_OPTIONAL)}
    # per string field: {value: its first-seen code}, each row's code
    strings = {name: ({}, array("i")) for name in STRING_COLUMNS}
    error = None
    try:
        for line_no, obj in lines:
            where = f"line {line_no}"
            rec = _decode_record(_CLASSIFICATION, obj, where)
            if "plausible_labels" in rec:
                rec["plausible_labels"] = sorted(rec["plausible_labels"])
            numbers.append(line_no)
            widths.add(rec["features"].size)
            features.frombytes(rec["features"].tobytes())
            probabilities.frombytes(rec["class_probabilities"].tobytes())
            counts.append(rec["class_probabilities"].size)
            rec.update({f"annotations.{key}": value for key, value
                        in rec.pop("annotations", {}).items()})
            for name, values in columns.items():
                values.append(rec.get(name))
            for name, (codes, column) in strings.items():
                value = rec.get(name)
                column.append(-1 if value is None
                              else codes.setdefault(value, len(codes)))
    except CorpusError as exc:
        error = exc
    counts = np.frombuffer(counts, dtype=np.int64)
    probs = _padded(np.frombuffer(probabilities), counts)
    _first_invalid(numbers, probs, counts, columns)
    if error is not None:
        raise error
    if len(widths) > 1:
        raise CorpusError(f"mixed feature dimensions in corpus: "
                          f"{sorted(widths)}")
    n = len(numbers)
    held, present = {}, {}
    for name, (fill, dtype) in _OPTIONAL.items():
        values = columns[name]
        present[name] = np.array([v is not None for v in values], dtype=bool)
        if fill is None:   # plausible labels, a mask over the classes
            held[name] = np.zeros(probs.shape, dtype=bool)
            at = [(i, y) for i, labels in enumerate(values) if labels
                  for y in labels]
            held[name][tuple(np.array(at, dtype=np.intp).reshape(-1, 2).T)] \
                = True
            continue
        values = [fill if v is None else v for v in values]
        try:
            held[name] = np.array(values, dtype=dtype)
        except OverflowError:
            held[name] = np.array(values, dtype=object)
        held[name] = held[name].reshape((n,) + np.shape(fill))
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
        ids=tuple(columns["id"]), features=np.frombuffer(features).reshape(
            n, widths.pop() if n else 0), class_probabilities=probs,
        predicted_label=np.array(columns["predicted_label"], dtype=np.intp),
        true_label=np.array(columns["true_label"], dtype=np.intp),
        present=present, strings=strings, **held)
