"""Session data model and its on-disk representation.

A session directory holds meta.json (subject, sensor, session_kind, fs,
n_samples, n_channels, channel_labels, n_runs and the event list) and
samples.f32le, the (n_samples, n_channels) sample matrix, in the encodings
``store`` describes. Samples are promoted to float64 on load; binary32 on
disk is for compactness only, so a recording round-trips bit-exactly once
its values are binary32-representable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import store
from .errors import (
    LengthMismatch,
    MalformedMeta,
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
    path = store.make_dir(path)
    store.write_json(path / META_NAME, {
        "subject": meta.subject,
        "sensor": meta.sensor.value,
        "session_kind": meta.session_kind.value,
        "fs": rec.fs,
        "n_samples": rec.n_samples,
        "n_channels": rec.n_channels,
        "channel_labels": list(rec.channel_labels),
        "n_runs": meta.n_runs,
        "events": [
            {"sample_index": ev.sample_index, "kind": ev.kind.value, "run_index": ev.run_index}
            for ev in rec.events
        ],
    })
    store.write_f32(path / SAMPLES_NAME, rec.samples)


def _check_finite(samples: np.ndarray, source) -> None:
    """Refuse NaN/Inf samples: the filters would smear one over the recording."""
    finite = np.isfinite(samples)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteSample(
            f"{source}: sample {row} channel {col} is {samples[row, col]}"
        )


# the fields of meta.json and of each of its events, each with a value of
# the JSON type store.json_setting holds it to
META_FIELDS = {"subject": "", "sensor": "", "session_kind": "", "fs": 0.0, "n_samples": 0,
               "n_channels": 0, "channel_labels": [""], "n_runs": 0, "events": [{}]}
EVENT_FIELDS = {"sample_index": 0, "kind": "", "run_index": 0}


def load_session(path) -> Session:
    """Load a session directory written by save_session."""
    path = Path(path)
    meta_path = path / META_NAME
    doc = store.read_fields(store.read_json(meta_path), META_FIELDS, meta_path)
    events = [
        store.read_fields(ev, EVENT_FIELDS, f"{meta_path}: event {i}")
        for i, ev in enumerate(doc["events"])
    ]
    try:
        events = tuple(
            EventMarker(ev["sample_index"], EventKind(ev["kind"]), ev["run_index"])
            for ev in events
        )
        meta = SessionMeta(
            subject=doc["subject"],
            sensor=Sensor(doc["sensor"]),
            session_kind=SessionKind(doc["session_kind"]),
            fs=doc["fs"],
            channel_labels=doc["channel_labels"],
            n_runs=doc["n_runs"],
        )
    except (ValueError, MalformedMeta) as exc:
        raise MalformedMeta(f"{meta_path}: {exc}") from exc

    samples_path = path / SAMPLES_NAME
    samples = store.read_f32(
        samples_path, (doc["n_samples"], doc["n_channels"]), LengthMismatch
    )
    _check_finite(samples, samples_path)
    try:
        rec = Recording(
            samples=samples, fs=meta.fs, channel_labels=meta.channel_labels, events=events
        )
    except ValueError as exc:
        raise MalformedMeta(f"{meta_path}: {exc}") from exc
    last_run = max((ev.run_index for ev in events), default=-1)
    if last_run >= meta.n_runs:
        raise MalformedMeta(
            f"{meta_path}: event references run {last_run} but n_runs is {meta.n_runs}"
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
    rows = list(csv.reader(io.StringIO(store.read_text(path), newline="")))
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
