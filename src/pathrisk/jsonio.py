"""Canonical report output: sorted keys, floats rounded to 12 decimal
places, non-finite floats serialized as strings, no timestamps. Two runs
with the same inputs and seed therefore produce byte-identical files.

JSON is written in one streaming pass: each value is canonicalised as it
is encoded and the text goes to the file piece by piece, so writing a
report holds no copy of the document and no string of the whole file.
An object with a `to_json_dict()` method may stand anywhere in the
document: it is converted at the moment it is written, so a report can
hand over its items as they are (an audit its outcomes) and each item's
dict lives only while that item is being written.

Digests are BLAKE2b-512 (RFC 7693), the digest coreutils `b2sum` prints.
BLAKE2b is imported from `_blake2`, the module `hashlib.blake2b` comes
from: `hashlib` itself loads OpenSSL's libcrypto, a few MB of resident
memory that no subcommand needs.
"""

import math
import os
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
from _blake2 import blake2b


class OutputExistsError(FileExistsError):
    pass


def _round(f):
    """A float rounded to 12 decimal places with -0.0 made 0.0, or the
    name of a non-finite float ("inf", "-inf", "nan")."""
    if not math.isfinite(f):
        return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
    return round(f, 12) + 0.0


def _scalar(obj):
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        r = _round(float(obj))
        return f'"{r}"' if isinstance(r, str) else repr(r)
    raise TypeError(f"Object of type {type(obj).__name__} "
                    f"is not JSON serializable")


# values written as one token; anything else goes through _encode
_LEAVES = (str, int, float, type(None), np.generic)


def _encode(obj, level=0):
    """Yield the canonical JSON text of obj in pieces: indent 1, separators
    (",", ": "), keys str(k) and sorted (the last of two keys with the same
    string wins), tuples and arrays as lists, an object with to_json_dict()
    as that dict."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif hasattr(obj, "to_json_dict"):
        obj = obj.to_json_dict()
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        if not all(type(k) is str for k in obj):
            obj = {str(k): v for k, v in obj.items()}
        items = ((k, obj[k]) for k in sorted(obj))
        opener, closer = "{", "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        items = ((None, v) for v in obj)
        opener, closer = "[", "]"
    else:
        yield _scalar(obj)
        return
    inner = "\n" + " " * (level + 1)
    head = opener + inner
    for key, value in items:
        if key is not None:
            head += encode_basestring_ascii(key) + ": "
        if isinstance(value, _LEAVES):
            yield head + _scalar(value)
        else:
            yield head
            yield from _encode(value, level + 1)
        head = "," + inner
    yield "\n" + " " * level + closer


def canonical_dumps(obj):
    return "".join(_encode(obj))


def write_json(path, obj, force=False):
    path = Path(path)
    if path.exists() and not force:
        raise OutputExistsError(f"{path} exists; pass --force to overwrite")
    path.parent.mkdir(parents=True, exist_ok=True)
    # an object that cannot be encoded leaves no partial file behind and
    # any earlier file at path untouched
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8") as handle:
            handle.writelines(_encode(obj))
            handle.write("\n")
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _csv_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        r = _round(float(v))
        return r if isinstance(r, str) else f"{r:.12g}"
    return str(v)


def write_csv(path, header, rows, force=False):
    path = Path(path)
    if path.exists() and not force:
        raise OutputExistsError(f"{path} exists; pass --force to overwrite")
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def file_digest(path):
    """The BLAKE2b-512 hex digest of a file's bytes, as `b2sum` prints it."""
    digest = blake2b()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(subcommand, seed, inputs, config):
    """Run provenance: tool version, seed, the path and BLAKE2b digest of
    each input ("blake2b", checkable with `b2sum`), and the BLAKE2b digest
    of the config's canonical JSON ("config_hash").

    Deliberately timestamp-free so reruns are byte-identical.
    """
    from . import __version__
    manifest = {"tool": "pathrisk", "version": __version__,
                "subcommand": subcommand, "seed": seed,
                "inputs": {name: {"path": str(p),
                                  "blake2b": file_digest(p)}
                           for name, p in sorted(inputs.items())
                           if p is not None},
                "config_hash": blake2b(
                    canonical_dumps(config).encode()).hexdigest()}
    return manifest
