"""Spans around the public functions of each mi_decode layer.

The benchmark installs the wrappers from its own files; nothing in the
package knows it is traced. A function is wrapped under every module
attribute that refers to it, so ``evaluate`` calling the ``pca_fit`` it
imported is caught as well as ``features.pca_fit``. Spans stay in memory
until the run ends, and the per-layer metrics are derived from them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

STEP_S = 0.0625  # the window step: a streamed window's compute deadline


def _windows_in(decoder, rec) -> int:
    """Windows a batch prediction over ``rec`` scores (all of every trial)."""
    from mi_decode.dsp import extract_trials  # marker walk only

    win = round(decoder.params.win_len_s * rec.fs)
    step = round(decoder.params.step_s * rec.fs)
    return sum(1 + (t.n_samples - win) // step for t in extract_trials(rec))


def _grid_attrs(args, grid) -> dict:
    """Cells, and the mean share of predicted windows the accumulator consumed."""
    predicted = _windows_in(args[0], args[1])
    used = [sum(r.outcome.stop_index for r in rep.results) / predicted
            for _, rep in grid.cells]
    return {"cells": len(grid.cells), "used_frac": sum(used) / len(used)}


# (module, attribute or Class.method, span name, attrs(args, result) or None).
# A span name starts with its layer, which is the package module.
TARGETS = (
    ("synth", "generate_session", "synth.generate", None),
    ("session", "load_session", "session.load",
     lambda a, r: {"mb": r.recording.samples.nbytes / 1e6}),
    ("dsp", "preprocess", "dsp.preprocess", None),
    ("dsp", "window_trials", "dsp.window",
     lambda a, r: {"windows": r.n_windows, "mb": r.windows.nbytes / 1e6}),
    ("dsp", "filter_causal_step", "dsp.filter_causal", None),
    ("features", "flatten_windows", "features.flatten",
     lambda a, r: {"mb": r.X.nbytes / 1e6}),
    ("features", "psd_features", "features.welch",
     lambda a, r: {"windows": a[0].n_windows}),
    ("features", "pca_fit", "features.pca_fit", None),
    ("features", "pca_transform", "features.pca_transform", None),
    ("classify", "fit_classifier", "classify.fit", None),
    ("classify", "LinearClassifier.score", "classify.score", None),
    ("evaluate", "train_decoder", "evaluate.train_decoder", None),
    ("evaluate", "save_decoder", "evaluate.save_decoder", None),
    ("evaluate", "load_decoder", "evaluate.load_decoder", None),
    ("evaluate", "fit_pipeline", "evaluate.fit_pipeline", None),
    ("evaluate", "cv_from_matrix", "evaluate.cv_from_matrix", None),
    ("evaluate", "runwise_cv", "evaluate.runwise_cv", None),
    ("evaluate", "pca_sweep", "evaluate.pca_sweep", None),
    ("evaluate", "eval_samples", "evaluate.eval_samples", None),
    ("evaluate", "Decoder.predict_windows", "evaluate.predict_windows", None),
    ("evidence", "accumulate", "evidence.accumulate", None),
    ("evidence", "grid_search", "evidence.grid_search", _grid_attrs),
    ("evidence", "replay_session", "evidence.replay_session", None),
    ("evidence", "stream_to_report", "evidence.stream",
     lambda a, r: {"windows": sum(x.outcome.stop_index for x in r.results)}),
)

STREAM_EVENT = "evidence.stream_event"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Nested spans, recorded while the wrappers are installed and not paused."""

    def __init__(self):
        self.spans: list[Span] = []
        self.paused = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one of its calls."""
        if self.paused:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def mark(self, name: str) -> None:
        """A zero-length span at the current time (one stream event)."""
        if not self.paused:
            t = time.perf_counter()
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, t, t, parent))

    def _wrap(self, fn, name, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            # counted after the span closes, so its cost stays out of the layer
            if attrs_of is not None:
                tracer.spans[idx].attrs = attrs_of(args, result)
            return result

        return traced

    def install(self) -> None:
        """Swap each target for a traced wrapper wherever the package refers to it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "mi_decode" or n.startswith("mi_decode.")]
        for mod_name, attr, name, attrs_of in TARGETS:
            owner = sys.modules[f"mi_decode.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, attrs_of))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name, attrs_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    def to_records(self) -> list[dict]:
        return [{"id": i, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, **s.attrs} for i, s in enumerate(self.spans)]

    def extend(self, records: list[dict]) -> None:
        """Append spans recorded by another process, re-rooted at the top level."""
        base = len(self.spans)
        for r in records:
            attrs = {k: v for k, v in r.items()
                     if k not in ("id", "name", "start", "end", "parent")}
            parent = r["parent"] + base if r["parent"] >= 0 else -1
            self.spans.append(Span(r["name"], r["start"], r["end"], parent, attrs))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.to_records():
                fh.write(json.dumps(rec) + "\n")


# per-layer metric -> (span name, what to total: "self", "calls" or an attr)
LAYER_SUMS = {
    "synth.generate_s": ("synth.generate", "self"),
    "session.load_s": ("session.load", "self"),
    "session.load_mb": ("session.load", "mb"),
    "dsp.preprocess_s": ("dsp.preprocess", "self"),
    "dsp.window_s": ("dsp.window", "self"),
    "dsp.windows": ("dsp.window", "windows"),
    "dsp.window_mb": ("dsp.window", "mb"),
    "dsp.filter_causal_s": ("dsp.filter_causal", "self"),
    "dsp.filter_causal_calls": ("dsp.filter_causal", "calls"),
    "features.flatten_s": ("features.flatten", "self"),
    "features.flatten_mb": ("features.flatten", "mb"),
    "features.welch_s": ("features.welch", "self"),
    "features.welch_windows": ("features.welch", "windows"),
    "features.pca_fit_s": ("features.pca_fit", "self"),
    "features.pca_fit_calls": ("features.pca_fit", "calls"),
    "features.pca_transform_s": ("features.pca_transform", "self"),
    "features.pca_transform_calls": ("features.pca_transform", "calls"),
    "classify.fit_s": ("classify.fit", "self"),
    "classify.fit_calls": ("classify.fit", "calls"),
    "classify.score_s": ("classify.score", "self"),
    "classify.score_calls": ("classify.score", "calls"),
    "evaluate.pipeline_fits": ("evaluate.fit_pipeline", "calls"),
    "evidence.accumulate_s": ("evidence.accumulate", "self"),
    "evidence.accumulate_calls": ("evidence.accumulate", "calls"),
    "evidence.grid_cells": ("evidence.grid_search", "cells"),
    "evidence.stream_self_s": ("evidence.stream", "self"),
    "evidence.stream_windows": ("evidence.stream", "windows"),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time (span minus its child spans) and counts."""
    self_s = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            self_s[s.parent] -= s.end - s.start

    out = {}
    for metric, (name, what) in LAYER_SUMS.items():
        picked = [i for i, s in enumerate(spans) if s.name == name]
        if what == "self":
            out[metric] = sum(self_s[i] for i in picked)
        elif what == "calls":
            out[metric] = len(picked)
        else:
            out[metric] = sum(spans[i].attrs.get(what, 0) for i in picked)

    out["evaluate.self_s"] = sum(
        self_s[i] for i, s in enumerate(spans) if s.name.startswith("evaluate."))
    fracs = [s.attrs["used_frac"] for s in spans if s.name == "evidence.grid_search"]
    out["evidence.grid_windows_used_frac"] = sum(fracs) / len(fracs) if fracs else 0.0

    # a streamed window's compute time is the gap since the previous event
    misses = 0
    prev = {i: s.start for i, s in enumerate(spans) if s.name == "evidence.stream"}
    for s in spans:
        if s.name == STREAM_EVENT and s.parent in prev:
            if s.start - prev[s.parent] > STEP_S:
                misses += 1
            prev[s.parent] = s.start
    out["evidence.deadline_misses"] = misses
    return out
