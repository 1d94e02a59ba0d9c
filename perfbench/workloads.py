"""The three benchmark workloads and the operations each one times.

Every workload runs the same user path through the public API, the way the
CLI does: load the study's sessions, train a decoder, save and reload it,
select (PCA sweep or run-wise CV), then score, grid-search, replay and
stream the online sessions. So every end-to-end metric exists on every
workload. What differs is the feature mode and the study size, which
decide the layer that does the work:

- calibrate-pca: time-domain PCA on 6656 features, where the full SVD
  dominates. A small study (2 runs x 6 trials, 756 windows; k=200 and a
  sweep over k = 50, 100, 200) keeps calibration near 7 s; at the default
  size one ``pca`` train (k=800) takes 85-90 s. Its online sessions are as
  small (756 windows each) and get six online passes per calibration, so a
  35 s run times each online operation a dozen times. Its decoder is near
  chance, so the default grid's work would follow the seed (the
  accumulator stops when a near-random walk first crosses the threshold;
  consumed windows ranged 102k-159k over seeds 1-10); it searches a grid
  whose cells all time out instead.
- calibrate-psd: Welch spectra, windowing and a 1677-feature LDA on 3 runs
  x 20 trials (3780 windows, a 201 MB window stack, above a 105 MB L3).
  Each CV fold still fits on more rows than features. No PCA anywhere, so
  it is the bypass for PCA changes.
- online-session: the ``repro`` decoder (psd+pca, k=24), fitted on a small
  offline session, then three online passes per fit over 1260-window
  sessions, so batched prediction, the evidence grid and the per-window
  stream carry most of the time.

Replay and stream use threshold 1.0 and step 0.01: deciding needs 101 net
votes, more than a trial's 63 windows, so every trial times out and every
stream consumes every window whatever the decoder's accuracy.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mi_decode as md
from mi_decode.evaluate import FeatureConfig
from mi_decode.evidence import DEFAULT_STEPS, DEFAULT_THRESHOLDS

from tracing import STREAM_EVENT

REPLAY = (1.0, 0.01)  # (threshold, step) for replay and stream
# A 10x10 grid whose every cell needs at least 65 net votes, more than a
# trial's 63 windows, so every cell times out and the accumulator consumes
# every window: its work is then fixed, whatever the decoder predicts.
TIMEOUT_GRID = (tuple(round(0.64 + 0.04 * i, 2) for i in range(10)),
                tuple(round(0.001 * i, 3) for i in range(1, 11)))


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SynthSpec fields besides the seed
    online_runs: int
    mode: str
    k: int | None
    sweep_ks: tuple[int, ...] | None  # select is pca_sweep when set, else runwise_cv
    # CV and sample accuracy must reach this; None where the mode is near
    # chance on the synthetic study (time-domain PCA at 24 trials)
    min_accuracy: float | None
    # online operations per calibration, so that short operations are timed
    # several times in a run: on a shared 2-vCPU VM a sub-second call can
    # take twice as long as the same call a few seconds later
    online_reps: int
    # (thresholds, steps) of grid_search; None for the default 10x10 grid
    grid: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def synth_spec(self, seed: int) -> md.SynthSpec:
        return md.SynthSpec(seed, **self.spec)

    @property
    def offline_runs(self) -> int:
        return self.synth_spec(0).n_runs

    @property
    def config(self) -> FeatureConfig:
        return FeatureConfig(mode=self.mode, k=self.k)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("calibrate-pca", {"n_runs": 2, "trials_per_run": 6}, 2,
                 "pca", 200, (50, 100, 200), None, 6, TIMEOUT_GRID),
        Workload("calibrate-psd", {"n_runs": 3}, 1, "psd", None, None, 0.7, 3),
        Workload("online-session", {"n_runs": 2, "trials_per_run": 10}, 2,
                 "psd+pca", 24, None, 0.7, 3),
    )
}


def generate(workload: Workload, seed: int, out_dir: Path) -> None:
    """Set-up: write the seeded study (offline, online1, online2) to disk."""
    md.generate_study(workload.synth_spec(seed), out_dir,
                      online_runs=workload.online_runs)


def digest(doc) -> str:
    """sha256 of a report's to_dict() as JSON with sorted keys."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class CheckFailed(Exception):
    pass


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Sample:
    """One timed call of one operation."""

    op: str
    seconds: float | None = None  # None when the call raised
    digest: str | None = None  # sha256 of the operation's report
    error: str | None = None  # the exception or the failed check
    windows: int = 0  # windows scored (eval) or streamed (stream)
    gaps: list[float] = field(default_factory=list)  # stream: per-window times


class Runner:
    """Runs one workload's operations on a study, recording a Sample per call.

    Each call is timed alone; its output is checked afterwards with the
    clock stopped. With a tracer, each call is a root span and the checks
    run with tracing paused, so spans cover only the timed calls.
    """

    def __init__(self, workload: Workload, study: Path, scratch: Path, tracer=None):
        self.workload = workload
        self.study = study
        self.scratch = scratch
        self.tracer = tracer
        self.samples: list[Sample] = []
        self.state: dict = {}
        self.ev_cfg = md.EvidenceConfig(*REPLAY)

    @property
    def path(self) -> tuple[str, ...]:
        """The user path once: calibrate, then operate online_reps times."""
        return CALIBRATE_OPS + ONLINE_OPS * self.workload.online_reps

    def iteration(self) -> None:
        for op in self.path:
            self.run(op)

    def run(self, op: str) -> None:
        call, check = getattr(self, f"_{op}"), getattr(self, f"_check_{op}")
        needs = NEEDS.get(op)
        sample = Sample(op)
        self.samples.append(sample)
        if needs is not None and needs not in self.state:
            sample.error = f"skipped: no {needs}"
            return
        tracer = self.tracer
        t0 = time.perf_counter()
        try:
            with tracer.span(f"bench.{op}") if tracer else nullcontext():
                out = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            sample.error = f"{type(exc).__name__}: {exc}"
            return
        sample.seconds = time.perf_counter() - t0
        if tracer:
            tracer.paused = True
        try:
            sample.digest = check(out, sample)
        except Exception as exc:
            sample.error = f"check: {type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.paused = False

    # -- calibrate --------------------------------------------------------

    def _load(self):
        return {name: md.load_session(self.study / name)
                for name in ("offline", "online1", "online2")}

    def _check_load(self, sessions, _sample):
        w = self.workload
        for name, s in sessions.items():
            runs = w.offline_runs if name == "offline" else w.online_runs
            _check(s.meta.n_runs == runs, f"{name} has {s.meta.n_runs} runs")
        self.state["sessions"] = sessions
        return None

    def _train(self):
        return md.train_decoder([self.state["sessions"]["offline"]], self.workload.config)

    def _check_train(self, dec, _sample):
        if dec.pipeline.pca is not None:
            c = dec.pipeline.pca.components
            _check(c.shape[0] == self.workload.k, f"PCA has {c.shape[0]} rows")
            _check(np.allclose(c @ c.T, np.eye(c.shape[0]), atol=1e-9),
                   "PCA rows are not orthonormal")
        _check(bool(np.all(np.isfinite(dec.clf.weights))), "non-finite LDA weights")
        self.state["trained"] = dec
        return None

    def _save(self):
        md.save_decoder(self.state["trained"], self.scratch)
        return md.load_decoder(self.scratch)

    def _check_save(self, dec, _sample):
        trained = self.state["trained"]
        _check(np.array_equal(dec.clf.weights, trained.clf.weights),
               "reloaded LDA weights differ")
        if trained.pipeline.pca is not None:
            _check(np.allclose(dec.pipeline.pca.components,
                               trained.pipeline.pca.components, atol=1e-6),
                   "reloaded PCA components differ beyond float32")
        self.state["decoder"] = dec
        return dir_digest(self.scratch)

    def _select(self):
        w, offline = self.workload, self.state["sessions"]["offline"]
        if w.sweep_ks:
            return md.pca_sweep(offline, ks=w.sweep_ks, config=w.config)
        return md.runwise_cv(offline, w.config)

    def _check_select(self, rep, _sample):
        w = self.workload
        if w.sweep_ks:
            _check([k for k, _ in rep.points] == list(w.sweep_ks), f"sweep points {rep.points}")
            _check(all(0.0 <= a <= 1.0 for _, a in rep.points), "accuracy outside [0,1]")
        else:
            _check(rep.n_folds == w.offline_runs, f"{rep.n_folds} folds")
            if w.min_accuracy is not None:
                _check(rep.mean >= w.min_accuracy, f"CV mean {rep.mean}")
        return digest(rep.to_dict())

    # -- operate online ----------------------------------------------------

    def _eval(self):
        return md.eval_samples(self.state["decoder"], self.state["sessions"]["online2"])

    def _check_eval(self, rep, sample):
        _check(sum(map(sum, rep.confusion)) == rep.n_windows, "confusion does not add up")
        if self.workload.min_accuracy is not None:
            _check(rep.accuracy >= self.workload.min_accuracy, f"accuracy {rep.accuracy}")
        sample.windows = rep.n_windows
        return digest(rep.to_dict())

    def _grid(self):
        thresholds, steps = self.workload.grid or (DEFAULT_THRESHOLDS, DEFAULT_STEPS)
        return md.grid_search(self.state["decoder"], self.state["sessions"]["online1"].recording,
                              thresholds, steps)

    def _check_grid(self, grid, _sample):
        _check(len(grid.cells) == 100, f"{len(grid.cells)} grid cells")
        if self.workload.grid:
            _check(all(rep.timeout_n == rep.n_trials for _, rep in grid.cells),
                   "a cell of the all-timeout grid decided a trial")
        # a later call is held to the first call's digest, so one replay will do
        if "grid" not in self.state:
            fresh = md.replay_session(self.state["decoder"],
                                      self.state["sessions"]["online1"].recording, grid.best)
            _check(grid.best_report.to_dict() == fresh.to_dict(),
                   "best cell differs from a fresh replay")
            self.state["grid"] = True
        return digest(grid.to_dict())

    def _replay(self):
        return md.replay_session(self.state["decoder"],
                                 self.state["sessions"]["online2"].recording,
                                 self.ev_cfg, causal=True)

    def _check_replay(self, rep, _sample):
        _check(all(r.outcome.decision is md.Outcome.Timeout for r in rep.results),
               "a trial decided although it needs 101 votes")
        self.state["replay"] = rep
        return digest(rep.to_dict())

    def _stream(self):
        # the consumer only records the time, so a gap is one window's compute
        gaps = self.state["gaps"] = []
        last = time.perf_counter()
        mark = self.tracer.mark if self.tracer else None

        def on_event(_ev):
            nonlocal last
            now = time.perf_counter()
            gaps.append(now - last)
            last = now
            if mark:
                mark(STREAM_EVENT)

        return md.stream_to_report(self.state["decoder"],
                                   self.state["sessions"]["online2"].recording,
                                   self.ev_cfg, on_event=on_event)

    def _check_stream(self, rep, sample):
        batch = self.state.get("replay")
        _check(batch is not None, "no batch replay to compare with")
        _check(len(rep.results) == len(batch.results), "trial counts differ")
        for i, (s, b) in enumerate(zip(rep.results, batch.results)):
            _check(s.label == b.label and s.outcome == b.outcome,
                   f"trial {i}: streamed and batch outcomes differ (decision,"
                   " stop index or evidence trajectory)")
        _check(rep.to_dict() == batch.to_dict(), "streamed report differs from replay")
        sample.gaps = self.state.pop("gaps")
        sample.windows = len(sample.gaps)
        return digest(rep.to_dict())


CALIBRATE_OPS = ("load", "train", "save", "select")
ONLINE_OPS = ("eval", "grid", "replay", "stream")
OPS = CALIBRATE_OPS + ONLINE_OPS
# what an operation needs from an earlier one
NEEDS = {"train": "sessions", "save": "trained", "select": "sessions",
         "eval": "decoder", "grid": "decoder", "replay": "decoder", "stream": "decoder"}
