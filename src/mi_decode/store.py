"""Every file the package reads or writes, encoded, written and parsed here.

JSON (a session's meta.json; a decoder's decoder.json, lda.json and
pca.json; reports) is written as UTF-8 text with sorted keys, indent 2 and
a trailing newline, so equal documents are equal bytes. Binary files
are raw little-endian binary32, row-major with no header, read back as
float64: a session's samples.f32le is (n_samples, n_channels), sample-major
interleaved, and a decoder's pca.f32le is (k, d), one component per row.
Their shapes come from the JSON beside them.

Every write failure is IoFailure, and no write creates a missing directory
unless asked to (``make_dir``). Reading is strict: a missing file is
MissingFile; text (JSON, or an imported CSV) that is not UTF-8 is
MalformedMeta, and so is JSON that does not parse or holds NaN, Infinity or
a number that overflows a float; a binary32 file of the wrong size raises
its caller's error type. Every JSON value the package reads is checked
under ``json_setting``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .errors import IoFailure, MalformedMeta, MissingFile

F32 = "<f4"


def json_text(doc) -> str:
    """``doc`` as the package writes JSON."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def json_hash(doc) -> str:
    """sha256 of ``doc``'s canonical JSON (sorted keys, no whitespace)."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _f32_bytes(array) -> bytes:
    return np.ascontiguousarray(array, dtype=F32).tobytes()


def f32_hash(array) -> str:
    """sha256 of ``array`` as its binary32 file holds it."""
    return hashlib.sha256(_f32_bytes(array)).hexdigest()


def make_dir(path) -> Path:
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {path}: {exc}") from exc
    return path


def write(path, data: str | bytes) -> None:
    """Write ``data`` to ``path``, a str as UTF-8; its directory must exist."""
    try:
        Path(path).write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_json(path, doc) -> None:
    write(path, json_text(doc))


def write_f32(path, array) -> None:
    write(path, _f32_bytes(array))


def _read(path: Path) -> bytes:
    if not path.is_file():
        raise MissingFile(f"missing {path}")
    try:
        return path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _finite_float(text: str) -> float:
    """A JSON number, or NaN, Infinity or -Infinity, which it refuses."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


def read_text(path) -> str:
    try:
        return _read(Path(path)).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedMeta(f"{path}: {exc}") from exc


def read_json(path):
    text = read_text(path)
    try:
        return json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    except ValueError as exc:
        raise MalformedMeta(f"{path}: {exc}") from exc


def read_f32(path, shape: tuple[int, ...], error: type) -> np.ndarray:
    """The binary32 file at ``path`` as a float64 array of ``shape``; a file
    of any other size raises ``error``."""
    path = Path(path)
    raw = _read(path)
    if len(raw) != 4 * math.prod(shape):
        raise error(f"{path}: {len(raw)} bytes, not 4 for each of {shape} binary32 values")
    return np.frombuffer(raw, dtype=F32).reshape(shape).astype(np.float64)


def json_setting(value, default, where: str):
    """``value``, read from JSON, as a setting whose default is ``default``.

    The one type rule of every JSON file the package reads: the value has
    its default's JSON type, except that an int may stand for a float (and
    is returned as one); a bool never stands for a number. A list default's
    first item is the rule for every item of the value. Anything else raises
    MalformedMeta.
    """
    if isinstance(default, list) and isinstance(value, list):
        if type(default[0]) is float and all(type(v) is float for v in value):
            return value  # the usual case, without a call per item
        return [json_setting(v, default[0], where) for v in value]
    if isinstance(default, float):
        ok = type(value) in (int, float)
    else:
        ok = type(value) is type(default)
    if not ok:
        raise MalformedMeta(
            f"{where} needs the JSON type of {json.dumps(default)}, got {json.dumps(value)}"
        )
    if isinstance(default, float):
        try:
            return float(value)
        except OverflowError as exc:
            raise MalformedMeta(f"{where}: {exc}") from exc
    return value


def read_fields(doc, defaults: dict, where) -> dict:
    """Each key of ``defaults`` from the JSON object ``doc``, under
    json_setting; a missing key is MalformedMeta."""
    missing = [key for key in defaults if not isinstance(doc, dict) or key not in doc]
    if missing:
        raise MalformedMeta(f"{where}: missing {missing}")
    return {key: json_setting(doc[key], d, f"{where} {key!r}") for key, d in defaults.items()}
