"""Deterministic synthetic EEG sessions with class-dependent rhythm damping.

Each trial is rest -> cue -> feedback. All channels carry a background of
lowpass-shaped noise plus an ongoing alpha (11 Hz) and beta (22 Hz)
sinusoid with a fresh random phase per channel and trial. During the
feedback phase of a Right trial the alpha amplitude on the left-motor
channel ("C3", column 3) is scaled by (1 - d) and on "C4" (column 9) by
(1 + d/2); Left trials mirror the roles. d therefore controls how
discriminative a session is, from d=0 (pure chance) to d=1 (one side's
rhythm fully suppressed).

Randomness comes from numpy's default 64-bit PCG (PCG64) seeded
explicitly, with a fixed draw order (cue blocks, then per-trial phases,
then noise), so the same spec always yields byte-identical sessions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from .errors import BadSpec
from .session import (
    ClassLabel,
    EventKind,
    EventMarker,
    Recording,
    Sensor,
    Session,
    SessionKind,
    SessionMeta,
    save_session,
)

CHANNEL_LABELS = (
    "FC3", "FCz", "FC4",
    "C3", "C1", "Cz", "C2",
    "CP3", "CPz", "C4", "CP4",
    "P3", "P4",
)
LEFT_MOTOR = 3  # "C3", over the left hemisphere: damped on Right imagery
RIGHT_MOTOR = 9  # "C4": damped on Left imagery

NOISE_AR = 0.95  # single-pole lowpass coefficient shaping the white noise


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    n_runs: int = 4
    trials_per_run: int = 20
    fs: float = 512.0
    n_channels: int = 13
    erd_depth: float = 0.5
    noise_sigma: float = 1.0
    alpha_amp: float = 2.0
    beta_amp: float = 0.5
    rhythm_hz: float = 11.0
    beta_hz: float = 22.0
    rest_s: float = 2.0
    cue_s: float = 1.0
    feedback_s: float = 4.875
    tail_s: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise BadSpec(f"{f.name} must be finite, got {v}")
        if self.seed < 0:
            raise BadSpec(f"seed must be non-negative, got {self.seed}")
        if self.n_runs < 1:
            raise BadSpec(f"need n_runs >= 1, got {self.n_runs}")
        if self.trials_per_run < 2 or self.trials_per_run % 2:
            raise BadSpec(
                f"trials_per_run must be even and >= 2 for balanced classes, "
                f"got {self.trials_per_run}"
            )
        if self.fs <= 0:
            raise BadSpec(f"fs must be positive, got {self.fs}")
        if self.n_channels < 10:
            raise BadSpec(
                f"need >= 10 channels (motor columns are 3 and 9), got {self.n_channels}"
            )
        if not 0.0 <= self.erd_depth <= 1.0:
            raise BadSpec(f"erd_depth must be in [0, 1], got {self.erd_depth}")
        if self.noise_sigma < 0 or self.alpha_amp < 0 or self.beta_amp < 0:
            raise BadSpec("amplitudes must be non-negative")
        for name, f in (("rhythm_hz", self.rhythm_hz), ("beta_hz", self.beta_hz)):
            if not 0 < f < self.fs / 2:
                raise BadSpec(f"{name}={f} outside (0, fs/2)")
        for name, dur in (
            ("rest_s", self.rest_s),
            ("cue_s", self.cue_s),
            ("feedback_s", self.feedback_s),
            ("tail_s", self.tail_s),
        ):
            n = dur * self.fs
            if abs(n - round(n)) > 1e-9 or n < 0:
                raise BadSpec(f"{name}={dur} is not a whole sample count at fs={self.fs}")
        if round(self.feedback_s * self.fs) < 1:
            raise BadSpec("feedback phase must be at least one sample")

    @property
    def rest_n(self) -> int:
        return round(self.rest_s * self.fs)

    @property
    def cue_n(self) -> int:
        return round(self.cue_s * self.fs)

    @property
    def feedback_n(self) -> int:
        return round(self.feedback_s * self.fs)

    @property
    def trial_n(self) -> int:
        return self.rest_n + self.cue_n + self.feedback_n

    def channel_labels(self) -> tuple[str, ...]:
        if self.n_channels == len(CHANNEL_LABELS):
            return CHANNEL_LABELS
        return tuple(f"ch{i:02d}" for i in range(self.n_channels))


def _cue_order(rng: np.random.Generator, trials_per_run: int) -> list[ClassLabel]:
    """Balanced blocks of two: each (L,R) or (R,L) pair order drawn from rng."""
    order = []
    for _ in range(trials_per_run // 2):
        pair = [ClassLabel.Left, ClassLabel.Right]
        if rng.integers(0, 2):
            pair.reverse()
        order.extend(pair)
    return order


def _alpha_gains(label: ClassLabel, d: float, n_channels: int) -> np.ndarray:
    g = np.ones(n_channels)
    damped, boosted = (
        (LEFT_MOTOR, RIGHT_MOTOR) if label is ClassLabel.Right
        else (RIGHT_MOTOR, LEFT_MOTOR)
    )
    g[damped] = 1.0 - d
    g[boosted] = 1.0 + d / 2.0
    return g


def generate_session(
    spec: SynthSpec, kind: SessionKind, subject: str | None = None
) -> Session:
    """Build one deterministic session from a spec.

    Returns a Session whose marker layout matches real recordings: a cue
    marker at the end of rest, FeedbackStart a cue-length later, and
    FeedbackEnd exactly feedback_s after that, for every trial of every
    run, plus a rhythm-free tail so the last marker stays in range.
    """
    rng = np.random.default_rng(spec.seed)
    n_trials = spec.n_runs * spec.trials_per_run
    total = n_trials * spec.trial_n + round(spec.tail_s * spec.fs)

    runs = [_cue_order(rng, spec.trials_per_run) for _ in range(spec.n_runs)]
    phases = [
        rng.uniform(0.0, 2.0 * math.pi, size=(2, spec.n_channels))
        for _ in range(n_trials)
    ]
    white = rng.standard_normal((total, spec.n_channels))
    # AR(1) shaping, normalized to keep the marginal variance at noise_sigma^2
    b = [spec.noise_sigma * math.sqrt(1.0 - NOISE_AR**2)]
    samples = lfilter(b, [1.0, -NOISE_AR], white, axis=0)

    t = np.arange(spec.trial_n) / spec.fs
    wa = 2.0 * math.pi * spec.rhythm_hz
    wb = 2.0 * math.pi * spec.beta_hz
    fb_start = spec.rest_n + spec.cue_n

    events = []
    trial = 0
    for r, order in enumerate(runs):
        for label in order:
            base = trial * spec.trial_n
            phi_a, phi_b = phases[trial]
            alpha = spec.alpha_amp * np.sin(wa * t[:, None] + phi_a[None, :])
            alpha[fb_start:] *= _alpha_gains(label, spec.erd_depth, spec.n_channels)
            beta = spec.beta_amp * np.sin(wb * t[:, None] + phi_b[None, :])
            samples[base : base + spec.trial_n] += alpha + beta

            cue = EventKind.CueLeft if label is ClassLabel.Left else EventKind.CueRight
            events.append(EventMarker(base + spec.rest_n, cue, r))
            events.append(EventMarker(base + fb_start, EventKind.FeedbackStart, r))
            events.append(EventMarker(base + spec.trial_n, EventKind.FeedbackEnd, r))
            trial += 1

    rec = Recording(
        samples=samples,
        fs=spec.fs,
        channel_labels=spec.channel_labels(),
        events=tuple(events),
    )
    meta = SessionMeta(
        subject=subject if subject is not None else f"synth{spec.seed}",
        sensor=Sensor.Synthetic,
        session_kind=kind,
        fs=spec.fs,
        channel_labels=rec.channel_labels,
        n_runs=spec.n_runs,
    )
    return Session(rec, meta)


STUDY_KINDS = (
    ("offline", SessionKind.Offline),
    ("online1", SessionKind.Online1),
    ("online2", SessionKind.Online2),
)


def generate_study(
    spec: SynthSpec, out_dir, online_runs: int = 3
) -> dict[str, Path]:
    """Write offline/online1/online2 session directories under out_dir.

    The offline session uses the settings as given; the online sessions
    use seeds seed+1 and seed+2 with online_runs runs each. All three
    share the subject name derived from the base seed.
    """
    # the online specs change only the seed, which has no bound, and n_runs,
    # so this check validates all three specs before any session is written
    if online_runs < 1:
        raise BadSpec(f"need online_runs >= 1, got {online_runs}")
    out_dir = Path(out_dir)
    subject = f"synth{spec.seed}"
    paths: dict[str, Path] = {}
    for i, (name, kind) in enumerate(STUDY_KINDS):
        session_spec = replace(
            spec,
            seed=spec.seed + i,
            n_runs=spec.n_runs if kind is SessionKind.Offline else online_runs,
        )
        rec, meta = generate_session(session_spec, kind, subject=subject)
        path = out_dir / name
        save_session(rec, meta, path)
        paths[name] = path
    return paths
