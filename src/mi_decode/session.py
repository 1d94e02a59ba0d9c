"""Session data model and its on-disk representation.

A session directory holds two files:

  meta.json     UTF-8 JSON: subject, sensor, session_kind, fs, n_samples,
                n_channels, channel_labels, n_runs and the event list.
  samples.f32le raw little-endian binary32, sample-major interleaved
                (s0c0 s0c1 ... s0cN s1c0 ...), exactly
                4 * n_samples * n_channels bytes.

Samples are promoted to float64 on load; binary32 on disk is for compactness
only, so a recording round-trips bit-exactly once its values are
binary32-representable.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    IoFailure,
    LengthMismatch,
    MalformedMeta,
    MissingFile,
    NonFiniteSample,
    NonNumericCell,
    RaggedRows,
    UnknownEventCode,
    UnsortedEvents,
)


class ClassLabel(Enum):
    """Cue class. The numeric encoding is fixed: decision scores > 0 mean Right."""

    Left = 0
    Right = 1

    def flipped(self) -> "ClassLabel":
        return ClassLabel.Right if self is ClassLabel.Left else ClassLabel.Left


class EventKind(Enum):
    TrialStart = "TrialStart"
    CueLeft = "CueLeft"
    CueRight = "CueRight"
    FeedbackStart = "FeedbackStart"
    FeedbackEnd = "FeedbackEnd"


CUE_KINDS = (EventKind.CueLeft, EventKind.CueRight)


class Sensor(Enum):
    Gel = "Gel"
    Politag = "Politag"
    Synthetic = "Synthetic"


class SessionKind(Enum):
    Offline = "Offline"
    Online1 = "Online1"
    Online2 = "Online2"


@dataclass(frozen=True)
class EventMarker:
    sample_index: int
    kind: EventKind
    run_index: int

    def __post_init__(self):
        if self.sample_index < 0:
            raise ValueError(f"negative sample_index {self.sample_index}")
        if self.run_index < 0:
            raise ValueError(f"negative run_index {self.run_index}")


@dataclass(frozen=True)
class Recording:
    """Multichannel sample matrix plus sampling rate, labels and markers.

    samples is (n_samples, n_channels) float64 and is frozen read-only after
    construction; all operations that "modify" a recording return a new one.
    """

    samples: np.ndarray
    fs: float
    channel_labels: tuple[str, ...]
    events: tuple[EventMarker, ...] = field(default_factory=tuple)

    def __post_init__(self):
        samples = np.ascontiguousarray(np.asarray(self.samples, dtype=np.float64))
        if samples.ndim != 2:
            raise ValueError(f"samples must be 2-D, got shape {samples.shape}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "channel_labels", tuple(self.channel_labels))
        object.__setattr__(self, "events", tuple(self.events))
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"fs must be finite and positive, got {self.fs}")
        if self.n_channels < 1:
            raise ValueError("need at least one channel")
        if len(self.channel_labels) != self.n_channels:
            raise ValueError(
                f"{len(self.channel_labels)} labels for {self.n_channels} channels"
            )
        if len(set(self.channel_labels)) != self.n_channels:
            raise ValueError("channel labels must be unique")
        last = -1
        for ev in self.events:
            if ev.sample_index < last:
                raise UnsortedEvents(
                    f"event at sample {ev.sample_index} after {last}"
                )
            last = ev.sample_index
            if ev.sample_index >= self.n_samples:
                raise ValueError(
                    f"event at sample {ev.sample_index} beyond {self.n_samples} samples"
                )

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]

    def with_samples(self, samples: np.ndarray) -> "Recording":
        return replace(self, samples=samples)


@dataclass(frozen=True)
class SessionMeta:
    subject: str
    sensor: Sensor
    session_kind: SessionKind
    fs: float
    channel_labels: tuple[str, ...]
    n_runs: int

    def __post_init__(self):
        object.__setattr__(self, "channel_labels", tuple(self.channel_labels))
        if self.n_runs < 1:
            raise MalformedMeta(f"n_runs must be >= 1, got {self.n_runs}")


class Session(NamedTuple):
    recording: Recording
    meta: SessionMeta


META_NAME = "meta.json"
SAMPLES_NAME = "samples.f32le"


def save_session(rec: Recording, meta: SessionMeta, path) -> None:
    """Write a session directory (meta.json + samples.f32le)."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
        doc = {
            "subject": meta.subject,
            "sensor": meta.sensor.value,
            "session_kind": meta.session_kind.value,
            "fs": rec.fs,
            "n_samples": rec.n_samples,
            "n_channels": rec.n_channels,
            "channel_labels": list(rec.channel_labels),
            "n_runs": meta.n_runs,
            "events": [
                {
                    "sample_index": ev.sample_index,
                    "kind": ev.kind.value,
                    "run_index": ev.run_index,
                }
                for ev in rec.events
            ],
        }
        (path / META_NAME).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        (path / SAMPLES_NAME).write_bytes(
            np.ascontiguousarray(rec.samples, dtype="<f4").tobytes()
        )
    except OSError as exc:
        raise IoFailure(f"cannot write session to {path}: {exc}") from exc


def _check_finite(samples: np.ndarray, source) -> None:
    """Refuse NaN/Inf samples: the filters would smear one over the recording."""
    finite = np.isfinite(samples)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteSample(
            f"{source}: sample {row} channel {col} is {samples[row, col]}"
        )


def load_session(path) -> Session:
    """Load a session directory written by save_session."""
    path = Path(path)
    meta_path = path / META_NAME
    samples_path = path / SAMPLES_NAME
    if not meta_path.is_file():
        raise MissingFile(f"missing {meta_path}")
    if not samples_path.is_file():
        raise MissingFile(f"missing {samples_path}")

    try:
        doc = json.loads(meta_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedMeta(f"{meta_path}: {exc}") from exc

    try:
        fs = float(doc["fs"])
        n_samples = int(doc["n_samples"])
        n_channels = int(doc["n_channels"])
        channel_labels = tuple(str(x) for x in doc["channel_labels"])
        events = tuple(
            EventMarker(
                sample_index=int(ev["sample_index"]),
                kind=EventKind(ev["kind"]),
                run_index=int(ev["run_index"]),
            )
            for ev in doc["events"]
        )
        meta = SessionMeta(
            subject=str(doc["subject"]),
            sensor=Sensor(doc["sensor"]),
            session_kind=SessionKind(doc["session_kind"]),
            fs=fs,
            channel_labels=channel_labels,
            n_runs=int(doc["n_runs"]),
        )
    except UnsortedEvents:
        raise
    except (KeyError, TypeError, ValueError, MalformedMeta) as exc:
        raise MalformedMeta(f"{meta_path}: {exc}") from exc

    raw = samples_path.read_bytes()
    expected = 4 * n_samples * n_channels
    if len(raw) != expected:
        raise LengthMismatch(
            f"{samples_path}: {len(raw)} bytes, expected {expected} "
            f"(4 * {n_samples} * {n_channels})"
        )
    samples = (
        np.frombuffer(raw, dtype="<f4")
        .reshape(n_samples, n_channels)
        .astype(np.float64)
    )
    _check_finite(samples, samples_path)
    try:
        rec = Recording(
            samples=samples, fs=fs, channel_labels=channel_labels, events=events
        )
    except ValueError as exc:
        raise MalformedMeta(f"{meta_path}: {exc}") from exc
    run_refs = {ev.run_index for ev in events}
    if run_refs and max(run_refs) >= meta.n_runs:
        raise MalformedMeta(
            f"{meta_path}: event references run {max(run_refs)} "
            f"but n_runs is {meta.n_runs}"
        )
    return Session(rec, meta)


def import_csv(
    path,
    fs: float,
    event_column: str | int | None = None,
    label_map: dict[int, EventKind] | None = None,
    has_header: bool = True,
) -> Recording:
    """Build a Recording from a rectangular numeric CSV, one row per sample.

    All columns are channels except an optional integer event column, whose
    nonzero codes are mapped to marker kinds through label_map. Imported
    markers all land on run 0; run structure of external data is unknown.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"missing {path}")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise MalformedMeta(f"{path}: {exc}") from exc
    if not rows:
        raise RaggedRows(f"{path}: empty file")

    header = None
    if has_header:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
    if not rows:
        raise RaggedRows(f"{path}: no data rows")

    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(f"{path}: row {i} has {len(row)} cells, expected {width}")

    ev_idx = None
    if event_column is not None:
        if isinstance(event_column, int):
            ev_idx = event_column
        else:
            if header is None:
                raise MalformedMeta("event column given by name but CSV has no header")
            if event_column not in header:
                raise MalformedMeta(f"no column named {event_column!r}")
            ev_idx = header.index(event_column)
        if not 0 <= ev_idx < width:
            raise MalformedMeta(f"event column index {ev_idx} out of range")

    chan_idx = [i for i in range(width) if i != ev_idx]
    samples = np.empty((len(rows), len(chan_idx)), dtype=np.float64)
    events = []
    label_map = label_map or {}
    for r, row in enumerate(rows):
        for j, c in enumerate(chan_idx):
            try:
                samples[r, j] = float(row[c])
            except ValueError as exc:
                raise NonNumericCell(f"{path}: row {r} col {c}: {row[c]!r}") from exc
        if ev_idx is not None:
            cell = row[ev_idx].strip()
            try:
                code = int(cell) if cell else 0
            except ValueError as exc:
                raise NonNumericCell(f"{path}: row {r} event cell {cell!r}") from exc
            if code != 0:
                if code not in label_map:
                    raise UnknownEventCode(f"{path}: row {r}: code {code}")
                events.append(
                    EventMarker(sample_index=r, kind=label_map[code], run_index=0)
                )

    _check_finite(samples, path)
    if header is not None:
        labels = tuple(header[c] for c in chan_idx)
    else:
        labels = tuple(f"ch{j}" for j in range(len(chan_idx)))
    try:
        return Recording(samples=samples, fs=fs, channel_labels=labels, events=tuple(events))
    except ValueError as exc:
        raise MalformedMeta(f"{path}: {exc}") from exc
