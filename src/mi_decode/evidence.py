"""Per-trial evidence accumulation over window-level predictions.

Each window vote moves a signed evidence value by a fixed step; the trial
is decided the moment the magnitude strictly exceeds the threshold, and
times out if the windows run out first. Threshold and step are interpreted
as the decimal numbers they were written as, so thresholds that are exact
multiples of the step (0.3 with 0.1, say) need the extra vote that exact
decimal arithmetic demands — a plain float running sum gets this wrong
because 0.1 * 3 > 0.3 in binary floating point.

Batch replay, grid search and the streamed replay share one decision loop
(``_walk``), the only code that ends a trial and builds its outcome, so a
tuned (threshold, step) decides live exactly as it did offline; the
stream takes its windows from ``dsp.stream_windows``, so a trial the
batch path refuses fails in the stream when it arrives. Each
evidence value is the exact decimal ``net * step`` rounded once to a
float, computed by integer true division.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dsp import PreprocessParams, extract_trials, stream_windows
from .errors import EmptyGrid, EmptyTrial, InvalidThreshold
from .session import ClassLabel, Recording

DEFAULT_THRESHOLDS = tuple(i / 10 for i in range(1, 11))
DEFAULT_STEPS = tuple(i / 100 for i in range(1, 11))
OBJECTIVES = ("counts", "weighted")  # grid_search winner rules


class Outcome(Enum):
    Left = "Left"
    Right = "Right"
    Timeout = "Timeout"

    def matches(self, label: ClassLabel) -> bool:
        return self.name == label.name


def _decimal(x: float) -> Fraction:
    """The exact decimal a float prints as (shortest repr)."""
    return Fraction(str(float(x)))


@dataclass(frozen=True)
class EvidenceConfig:
    """Decision threshold and per-window step, both in (0, 1]."""

    threshold: float
    step: float

    def __post_init__(self):
        for name, v in (("threshold", self.threshold), ("step", self.step)):
            if not math.isfinite(v):
                raise InvalidThreshold(f"{name} must be finite, got {v}")
        if not 0 < self.step <= self.threshold <= 1:
            raise InvalidThreshold(
                f"need 0 < step <= threshold <= 1, got step={self.step} "
                f"threshold={self.threshold}"
            )

    # derived once per config: a grid walks every trial with each config
    @functools.cached_property
    def votes_to_decide(self) -> int:
        """Smallest net vote count whose evidence strictly exceeds the threshold."""
        return math.floor(_decimal(self.threshold) / self._exact_step) + 1

    @functools.cached_property
    def _exact_step(self) -> Fraction:
        """The step as the decimal it prints as."""
        return _decimal(self.step)


@dataclass(frozen=True)
class EvidenceOutcome:
    decision: Outcome
    trajectory: tuple[float, ...]

    @property
    def stop_index(self) -> int:
        """Windows consumed (1-based)."""
        return len(self.trajectory)


def _walk(
    votes: Iterable[int], n: int, cfg: EvidenceConfig
) -> Iterator[tuple[float, EvidenceOutcome | None]]:
    """The one decision loop, shared by batch replay, grid search and stream.

    Pulls a trial's ``n`` votes one at a time and yields (evidence, outcome)
    after each. The outcome is None until the trial ends: at the vote that
    brings |net votes| to ``votes_to_decide``, or as a Timeout at the n-th
    vote. The walk returns there, so a lazy source is never read past the
    stop. Evidence is the exact decimal ``net * step``, rounded once by
    Python's int true division.
    """
    need = cfg.votes_to_decide
    num, den = cfg._exact_step.numerator, cfg._exact_step.denominator
    right = ClassLabel.Right.value
    net = 0
    trajectory = []
    for v in votes:
        net += 1 if v == right else -1
        ev = net * num / den
        trajectory.append(ev)
        if abs(net) >= need:
            decision = Outcome.Right if net > 0 else Outcome.Left
        elif len(trajectory) == n:
            decision = Outcome.Timeout
        else:
            yield ev, None
            continue
        yield ev, EvidenceOutcome(decision, tuple(trajectory))
        return


def accumulate(
    predictions: Sequence[int] | np.ndarray, cfg: EvidenceConfig
) -> EvidenceOutcome:
    """Walk one trial's window votes until a decision or timeout.

    Parameters
    ----------
    predictions : sequence of int
        Window labels in temporal order, ``ClassLabel`` values (0=Left,
        1=Right). A vote equal to Right's value adds ``step``, any other
        vote subtracts it.
    cfg : EvidenceConfig

    Returns
    -------
    EvidenceOutcome
        Decision (Left/Right/Timeout), the 1-based index of the last
        window consumed, and the evidence value after every consumed
        window. Windows after the stop index are never consumed.
    """
    if len(predictions) == 0:
        raise EmptyTrial("cannot accumulate over zero windows")
    for _, outcome in _walk(predictions, len(predictions), cfg):
        pass
    return outcome


@dataclass(frozen=True)
class TrialResult:
    label: ClassLabel
    outcome: EvidenceOutcome
    latency_s: float | None  # None on timeout


@dataclass(frozen=True)
class TrialReport:
    """Aggregate trial-level outcomes for one replayed session."""

    results: tuple[TrialResult, ...]
    config: EvidenceConfig

    @property
    def n_trials(self) -> int:
        return len(self.results)

    @property
    def correct_n(self) -> int:
        return sum(r.outcome.decision.matches(r.label) for r in self.results)

    @property
    def timeout_n(self) -> int:
        return sum(r.outcome.decision is Outcome.Timeout for r in self.results)

    @property
    def incorrect_n(self) -> int:
        return self.n_trials - self.correct_n - self.timeout_n

    @property
    def correct_pct(self) -> float:
        return 100.0 * self.correct_n / self.n_trials

    @property
    def incorrect_pct(self) -> float:
        return 100.0 * self.incorrect_n / self.n_trials

    @property
    def timeout_pct(self) -> float:
        return 100.0 * self.timeout_n / self.n_trials

    @property
    def mean_latency_windows(self) -> float | None:
        stops = [
            r.outcome.stop_index
            for r in self.results
            if r.outcome.decision is not Outcome.Timeout
        ]
        return float(np.mean(stops)) if stops else None

    @property
    def mean_latency_s(self) -> float | None:
        lats = [r.latency_s for r in self.results if r.latency_s is not None]
        return float(np.mean(lats)) if lats else None

    def to_dict(self, trials: bool = True) -> dict:
        doc = {
            "threshold": self.config.threshold,
            "step": self.config.step,
            "n_trials": self.n_trials,
            "correct_n": self.correct_n,
            "incorrect_n": self.incorrect_n,
            "timeout_n": self.timeout_n,
            "correct_pct": self.correct_pct,
            "incorrect_pct": self.incorrect_pct,
            "timeout_pct": self.timeout_pct,
            "mean_latency_windows": self.mean_latency_windows,
            "mean_latency_s": self.mean_latency_s,
        }
        if trials:
            doc["trials"] = [
                {
                    "label": r.label.name,
                    "decision": r.outcome.decision.name,
                    "stop_index": r.outcome.stop_index,
                    "latency_s": r.latency_s,
                }
                for r in self.results
            ]
        return doc


def _report(
    labels: Sequence[ClassLabel],
    outcomes: Sequence[EvidenceOutcome],
    cfg: EvidenceConfig,
    params: PreprocessParams,
) -> TrialReport:
    """The trial report for per-trial labels and outcomes, in trial order."""
    results = []
    for label, outcome in zip(labels, outcomes):
        latency = None
        if outcome.decision is not Outcome.Timeout:
            # the k-th window's last sample arrives win_len + (k-1)*step seconds in
            latency = params.win_len_s + (outcome.stop_index - 1) * params.step_s
        results.append(TrialResult(label=label, outcome=outcome, latency_s=latency))
    return TrialReport(results=tuple(results), config=cfg)


def _trial_votes(
    decoder, rec: Recording, causal: bool
) -> tuple[list[ClassLabel], list[list[int]]]:
    """Each trial's label and window votes, predicted in one batch."""
    ws = decoder.windows(rec, causal=causal)
    predictions = np.asarray(decoder.predict_windows(ws)).tolist()
    slices = [sl for _, sl in ws.trial_slices()]
    labels = [ClassLabel(int(ws.labels[sl.start])) for sl in slices]
    return labels, [predictions[sl] for sl in slices]


def replay_session(
    decoder, rec: Recording, cfg: EvidenceConfig, causal: bool = False
) -> TrialReport:
    """Run the decoder over every trial of a recording and accumulate.

    ``decoder`` needs ``params``, ``windows(rec, causal=)`` and
    ``predict_windows(ws)``; predictions are computed for all windows, the
    accumulator then consumes each trial's prefix.
    """
    labels, votes = _trial_votes(decoder, rec, causal)
    outcomes = [accumulate(v, cfg) for v in votes]
    return _report(labels, outcomes, cfg, decoder.params)


@dataclass(frozen=True)
class GridResult:
    best: EvidenceConfig
    cells: tuple[tuple[EvidenceConfig, TrialReport], ...]
    objective: str

    @property
    def best_report(self) -> TrialReport:
        return dict(self.cells)[self.best]

    def to_csv(self) -> str:
        """Threshold rows x step columns; cells are correct/incorrect/timeout %."""
        thresholds = sorted({c.threshold for c, _ in self.cells})
        steps = sorted({c.step for c, _ in self.cells})
        by_key = {(c.threshold, c.step): rep for c, rep in self.cells}
        lines = ["theta\\delta," + ",".join(str(d) for d in steps)]
        for th in thresholds:
            row = [str(th)]
            for d in steps:
                rep = by_key[(th, d)]
                row.append(
                    f"{rep.correct_pct:.2f}/{rep.incorrect_pct:.2f}/{rep.timeout_pct:.2f}"
                )
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "best": {"threshold": self.best.threshold, "step": self.best.step},
            "best_report": self.best_report.to_dict(),
            "cells": [rep.to_dict(trials=False) for _, rep in self.cells],
        }


def grid_search(
    decoder,
    rec: Recording,
    thresholds: Iterable[float] = DEFAULT_THRESHOLDS,
    steps: Iterable[float] = DEFAULT_STEPS,
    objective: str = "counts",
    alpha: float = 1.0,
    beta: float = 0.5,
    causal: bool = False,
) -> GridResult:
    """Sweep (threshold, step) pairs over one recording's trials.

    Window predictions are computed once; each grid cell only re-runs the
    integer accumulator. With ``objective="counts"`` the winner maximizes
    correct trials, breaking ties by fewer incorrect, fewer timeouts, then
    smaller threshold and smaller step. ``objective="weighted"`` maximizes
    ``correct - alpha*incorrect - beta*timeout`` with the same final
    tie-breaks.
    """
    thresholds = sorted(set(float(t) for t in thresholds))
    steps = sorted(set(float(d) for d in steps))
    if not thresholds or not steps:
        raise EmptyGrid("need at least one threshold and one step")
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise InvalidThreshold(f"alpha and beta must be finite, got {alpha}, {beta}")

    labels, votes = _trial_votes(decoder, rec, causal)
    cells = []
    for th, d in product(thresholds, steps):
        cfg = EvidenceConfig(threshold=th, step=d)
        outcomes = [accumulate(v, cfg) for v in votes]
        cells.append((cfg, _report(labels, outcomes, cfg, decoder.params)))

    if objective == "counts":
        def key(cell):
            cfg, rep = cell
            return (rep.correct_n, -rep.incorrect_n, -rep.timeout_n,
                    -cfg.threshold, -cfg.step)
    else:
        def key(cell):
            cfg, rep = cell
            score = rep.correct_n - alpha * rep.incorrect_n - beta * rep.timeout_n
            return (score, -cfg.threshold, -cfg.step)

    best = max(cells, key=key)[0]
    return GridResult(best=best, cells=tuple(cells), objective=objective)


@dataclass(frozen=True)
class StreamEvent:
    """One consumed window during a streamed replay."""

    trial_index: int
    window_index: int  # 1-based within the trial
    evidence: float
    outcome: EvidenceOutcome | None = None  # the trial's, on its final window only

    @property
    def state(self) -> str:
        """"accumulating" until the final window's Left/Right/Timeout."""
        return "accumulating" if self.outcome is None else self.outcome.decision.name


def stream_replay(
    decoder,
    rec: Recording,
    cfg: EvidenceConfig,
    realtime: bool = False,
) -> Iterator[StreamEvent]:
    """Replay a recording as a causal stream, one event per consumed window.

    Each trial's windows come from ``dsp.stream_windows`` as the trial
    arrives (a bad trial raises then, after the events before it), and
    ``decoder.stream_votes`` classifies a window when the walk asks for
    its vote, so the trial stops consuming windows at the decision. The
    trial's final event carries its outcome. With ``realtime=True`` the
    k-th event is held until k window steps after the stream started, so
    the compute time of the windows does not add up into drift.
    Decisions are identical to ``replay_session(..., causal=True)``.
    """
    params: PreprocessParams = decoder.params
    t0 = time.monotonic() if realtime else 0.0
    k = 0
    for t, ws in enumerate(stream_windows(rec, params)):
        votes = decoder.stream_votes(ws)
        for w, (ev, outcome) in enumerate(_walk(votes, ws.n_windows, cfg), 1):
            if realtime:
                k += 1
                time.sleep(max(0.0, t0 + k * params.step_s - time.monotonic()))
            yield StreamEvent(trial_index=t, window_index=w, evidence=ev,
                              outcome=outcome)


def stream_to_report(
    decoder,
    rec: Recording,
    cfg: EvidenceConfig,
    realtime: bool = False,
    on_event=None,
) -> TrialReport:
    """Consume a full streamed replay and assemble the trial report.

    on_event, when given, is called with every StreamEvent as it happens.
    """
    labels = [t.label for t in extract_trials(rec)]
    outcomes = []
    for ev in stream_replay(decoder, rec, cfg, realtime=realtime):
        if on_event is not None:
            on_event(ev)
        if ev.outcome is not None:
            outcomes.append(ev.outcome)
    return _report(labels, outcomes, cfg, decoder.params)
