"""Every file the package reads or writes, encoded, written and parsed here.

JSON (a session's meta.json, a decoder's decoder.json, reports) is written
as UTF-8 text with sorted keys, indent 2 and a trailing newline, so equal
documents are equal bytes. Binary files are raw little-endian arrays,
row-major with no header, whose shapes come from the JSON beside them: a
session's samples.f32le holds binary32, (n_samples, n_channels),
sample-major interleaved, and is read back as float64; a decoder's
pca.f64le holds binary64, (k, d), one component per row, and is read back
with no conversion, together with the sha256 of its bytes.

Every write failure is IoFailure, and no write creates a missing directory
unless asked to (``make_dir``). Reading is strict: a missing file is
MissingFile; text (JSON, or an imported CSV) that is not UTF-8 is
MalformedMeta, and so is JSON that does not parse or holds NaN, Infinity or
a number that overflows a float; a binary file of the wrong size raises
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
F64 = "<f8"


def json_text(doc) -> str:
    """``doc`` as the package writes JSON."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def json_hash(doc) -> str:
    """sha256 of ``doc``'s canonical JSON (sorted keys, no whitespace)."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _binary(array, dtype: str) -> bytes:
    return np.ascontiguousarray(array, dtype=dtype).tobytes()


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
    write(path, _binary(array, F32))


def write_f64(path, array) -> str:
    """Write ``array`` as binary64, and return the sha256 of the bytes."""
    data = _binary(array, F64)
    write(path, data)
    return hashlib.sha256(data).hexdigest()


def remove(path) -> None:
    """Delete the file at ``path``, if there is one."""
    try:
        Path(path).unlink(missing_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot remove {path}: {exc}") from exc


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


def _read_array(path, shape: tuple[int, ...], dtype: str, error: type) -> np.ndarray:
    """The file at ``path`` as a read-only ``dtype`` array of ``shape``; a
    file of any other size raises ``error``."""
    path = Path(path)
    raw = _read(path)
    size = np.dtype(dtype).itemsize
    if len(raw) != size * math.prod(shape):
        raise error(f"{path}: {len(raw)} bytes, not {size} for each of {shape} "
                    f"binary{8 * size} values")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def read_f32(path, shape: tuple[int, ...], error: type) -> np.ndarray:
    """The binary32 file at ``path`` as a float64 array of ``shape``."""
    return _read_array(path, shape, F32, error).astype(np.float64)


def read_f64(path, shape: tuple[int, ...], error: type) -> tuple[np.ndarray, str]:
    """The binary64 file at ``path`` as a read-only array of ``shape``, and
    the sha256 of its bytes."""
    array = _read_array(path, shape, F64, error)
    return array, hashlib.sha256(array).hexdigest()


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
