"""Temporal/spatial filtering, trial extraction and sliding-window segmentation.

The band-pass is a Butterworth design from scipy.signal.butter, as
second-order sections. Offline filtering is zero-phase forward-backward
with a fixed reflect-pad rule; the causal path is one forward pass.
filter_offline, filter_forward, apply_car and preprocess are the plain
reference (np.pad, sosfilt, row means) the windowing paths are tested
against. Both windowing paths refuse a bad recording in one entry check,
_checked_trials. Both filter causally with filter_causal_step, which is
bit-identical in any chunking to the one-shot pass: windows_from_recording
in one call, stream_windows in arrival order. windows_from_recording
filters zero-phase in _bandpass, on a channel-major copy, and copies the
trial rows alone into its WindowSet's one buffer, for CAR in place.
stream_windows cuts each trial with window_trials, whose checks the batch
path shares, so a bad trial is refused when it arrives. Windowing copies
no window: window i of a WindowSet is signal[starts[i] : starts[i] +
win_len], held once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import butter, sosfilt

from .errors import (
    ChannelCountMismatch,
    InvalidBand,
    NonIntegerWindow,
    NoTrials,
    OrphanMarker,
    OverlappingTrials,
    TooFewChannels,
    TrialTooShort,
)
from .session import CUE_KINDS, ClassLabel, EventKind, Recording


@dataclass(frozen=True)
class BandpassSpec:
    low_hz: float
    high_hz: float
    order: int = 4  # overall order: butter(order // 2, band), order/2 sections
    fs: float = 512.0

    def __post_init__(self):
        if self.order not in (2, 4, 6, 8):
            raise InvalidBand(f"order must be one of 2,4,6,8, got {self.order}")
        if not 0 < self.low_hz < self.high_hz < self.fs / 2:
            raise InvalidBand(
                f"need 0 < low < high < fs/2, got ({self.low_hz}, {self.high_hz}) "
                f"at fs={self.fs}"
            )


@dataclass(frozen=True)
class FilterCoefficients:
    """Cascade of second-order sections: sos rows [b0, b1, b2, 1, a1, a2]."""

    sos: np.ndarray  # (n_sections, 6)
    fs: float


def design_bandpass(spec: BandpassSpec) -> FilterCoefficients:
    """Butterworth band-pass of overall order ``spec.order`` as second-order
    sections, from ``scipy.signal.butter``: a prototype of order
    ``spec.order / 2``, band edges prewarped so the bilinear map puts the
    -3 dB points exactly on low_hz and high_hz."""
    sos = butter(spec.order // 2, [spec.low_hz, spec.high_hz], btype="bandpass",
                 fs=spec.fs, output="sos")
    return FilterCoefficients(sos=sos, fs=spec.fs)


def _pad_len(coeffs: FilterCoefficients, n_samples: int) -> int:
    return min(3 * max(2 * coeffs.sos.shape[0], 24), n_samples - 1)


# Rows per block when filling _bandpass's channel-major buffer: numpy's
# one-shot transposing copy of a long (n, 13) array runs about 3x slower
# than in blocks this size. Blocks do not speed up the copy to time-major.
_BLOCK_ROWS = 8192


def _bandpass(x: np.ndarray, coeffs: FilterCoefficients) -> np.ndarray:
    """x (n_samples, n_channels) band-passed zero-phase, as an (n_samples,
    n_channels) view of a channel-major buffer.

    sosfilt filters each row of a C-ordered buffer, and copies any other
    layout into one first. So x is transposed once, in blocks, into a
    channel-major buffer, reflect-padded by _pad_len samples on each side,
    and filtered forward from zero state, then again, from zero state, in
    reverse time, and the padding is cut off the view. The result has the
    bits of the reference, filter_offline.
    """
    n, n_channels = x.shape
    pad = _pad_len(coeffs, n)
    buf = np.empty((n_channels, n + 2 * pad))
    body = buf[:, pad : pad + n].T
    for start in range(0, n, _BLOCK_ROWS):
        body[start : start + _BLOCK_ROWS] = x[start : start + _BLOCK_ROWS]
    # np.pad's "reflect": the edge sample is not repeated
    buf[:, :pad] = x[1 : pad + 1][::-1].T
    buf[:, pad + n :] = x[n - 1 - pad : n - 1][::-1].T
    y = sosfilt(coeffs.sos, buf)
    del buf, body  # sosfilt filtered its own copy: free this one before the next
    return sosfilt(coeffs.sos, y[:, ::-1])[:, ::-1][:, pad : pad + n].T


def filter_offline(rec: Recording, coeffs: FilterCoefficients) -> Recording:
    """Zero-phase (forward-backward) filtering of every channel.

    The signal is reflect-padded by 3 * max(2 * n_sections, 24) samples on
    each side (at most n_samples - 1) before two zero-state sosfilt passes
    and trimmed afterwards, so edge transients stay out of the data.
    """
    n = rec.n_samples
    pad = _pad_len(coeffs, n)
    x = np.pad(rec.samples, ((pad, pad), (0, 0)), mode="reflect")
    y = sosfilt(coeffs.sos, sosfilt(coeffs.sos, x, axis=0)[::-1], axis=0)[::-1]
    return rec.with_samples(y[pad : pad + n])


def filter_forward(rec: Recording, coeffs: FilterCoefficients) -> Recording:
    """Single forward pass from zero state, as the causal/online path sees it."""
    return rec.with_samples(sosfilt(coeffs.sos, rec.samples, axis=0))


def causal_filter_state(coeffs: FilterCoefficients, n_channels: int) -> np.ndarray:
    """Zero initial state for filter_causal_step: (n_sections, 2, n_channels)."""
    return np.zeros((coeffs.sos.shape[0], 2, n_channels))


def filter_causal_step(
    coeffs: FilterCoefficients, state: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Filter a block of sample rows, carrying cascade state explicitly.

    Feeding a recording through in any chunking (down to row-by-row) gives
    output bit-identical to the one-shot forward pass.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] != state.shape[2]:
        raise ChannelCountMismatch(
            f"rows have {rows.shape[1]} channels, state expects {state.shape[2]}"
        )
    return sosfilt(coeffs.sos, rows, axis=0, zi=state)


def _check_car_channels(n_channels: int) -> None:
    if n_channels < 2:
        raise TooFewChannels(f"CAR needs >= 2 channels, got {n_channels}")


def _subtract_row_means(x: np.ndarray) -> None:
    np.subtract(x, x.mean(axis=1, keepdims=True), out=x)


def apply_car(rec: Recording) -> Recording:
    """Common average reference: subtract the instantaneous cross-channel mean."""
    _check_car_channels(rec.n_channels)
    return rec.with_samples(rec.samples - rec.samples.mean(axis=1, keepdims=True))


@dataclass(frozen=True)
class PreprocessParams:
    """Filtering and windowing settings shared by training and replay."""

    low_hz: float = 4.0
    high_hz: float = 30.0
    order: int = 4
    car: bool = True
    win_len_s: float = 1.0
    step_s: float = 0.0625

    def band_spec(self, fs: float) -> BandpassSpec:
        return BandpassSpec(self.low_hz, self.high_hz, self.order, fs)

    def to_dict(self) -> dict:
        return asdict(self)


def preprocess(
    rec: Recording, params: PreprocessParams, causal: bool = False
) -> Recording:
    """Band-pass (zero-phase offline, causal when replaying online) then CAR."""
    coeffs = design_bandpass(params.band_spec(rec.fs))
    rec = filter_forward(rec, coeffs) if causal else filter_offline(rec, coeffs)
    if params.car:
        rec = apply_car(rec)
    return rec


def _checked_trials(
    rec: Recording, params: PreprocessParams
) -> tuple[FilterCoefficients, list[Trial]]:
    """rec's band-pass and trials, once the band (InvalidBand), CAR's channel
    count (TooFewChannels), the markers (OrphanMarker, OverlappingTrials)
    and NoTrials are checked, in that order, as every windowing path does."""
    coeffs = design_bandpass(params.band_spec(rec.fs))
    if params.car:
        _check_car_channels(rec.n_channels)
    trials = extract_trials(rec)
    if not trials:
        raise NoTrials("recording has no cue/feedback markers")
    return coeffs, trials


def windows_from_recording(
    rec: Recording, params: PreprocessParams, causal: bool = False
) -> WindowSet:
    """Bit for bit the windows of ``window_trials(extract_trials(preprocess(
    rec, params, causal)), params.win_len_s, params.step_s)``, raising the
    same errors in the same order.

    Every check (_checked_trials', then the layout's) runs before the
    filter: _bandpass, or one filter_causal_step call from zero state up to
    the last trial's end. The trial rows alone are copied to time-major,
    into the one buffer the WindowSet holds, and CAR runs on it in place.
    """
    coeffs, trials = _checked_trials(rec, params)
    layout = _window_layout(trials, params.win_len_s, params.step_s)
    if causal:
        end = trials[-1].start_sample + trials[-1].n_samples
        filtered, _ = filter_causal_step(
            coeffs, causal_filter_state(coeffs, rec.n_channels), rec.samples[:end])
    else:
        filtered = _bandpass(rec.samples, coeffs)
    signal = np.empty((sum(t.n_samples for t in trials), rec.n_channels))
    np.concatenate([filtered[t.start_sample : t.start_sample + t.n_samples]
                    for t in trials], out=signal)
    del filtered  # free the filtered recording before CAR's row means
    if params.car:
        _subtract_row_means(signal)
    return WindowSet(signal=signal, **layout)


def stream_windows(rec: Recording, params: PreprocessParams) -> Iterator[WindowSet]:
    """Each trial's windows in arrival order, bit-identical to that trial's
    windows in ``windows_from_recording(rec, params, causal=True)``.

    _checked_trials refuses a bad recording first, as on the batch path.
    One filter call takes each gap and the trial after it, carrying the
    causal state; window_trials cuts the trial, so a trial the batch path
    refuses raises the same error when it arrives, and CAR runs in place on
    the set's C-ordered signal, as it does on the batch path's.
    """
    coeffs, trials = _checked_trials(rec, params)
    state = causal_filter_state(coeffs, rec.n_channels)
    pos = 0
    for trial in trials:
        end = trial.start_sample + trial.n_samples
        rows, state = filter_causal_step(coeffs, state, rec.samples[pos:end])
        ws = window_trials([replace(trial, samples=rows[trial.start_sample - pos :])],
                           params.win_len_s, params.step_s)
        pos = end
        if params.car:
            _subtract_row_means(ws.signal)
        yield ws


@dataclass(frozen=True)
class Trial:
    """One cue's continuous-feedback segment."""

    label: ClassLabel
    run_index: int
    samples: np.ndarray  # (n_t, n_channels), read-only view
    start_sample: int  # offset of FeedbackStart in the source recording
    fs: float

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


def extract_trials(rec: Recording) -> list[Trial]:
    """Cut one Trial per cue marker, spanning [FeedbackStart, FeedbackEnd)."""
    trials = []
    pending_cue = None  # (EventMarker, feedback_start or None)
    last_end = -1
    for ev in rec.events:
        if ev.kind in CUE_KINDS:
            if pending_cue is not None:
                raise OrphanMarker(
                    f"cue at sample {pending_cue[0].sample_index} has no feedback"
                )
            pending_cue = (ev, None)
        elif ev.kind is EventKind.FeedbackStart:
            if pending_cue is None:
                raise OrphanMarker(f"FeedbackStart at {ev.sample_index} without cue")
            pending_cue = (pending_cue[0], ev.sample_index)
        elif ev.kind is EventKind.FeedbackEnd:
            if pending_cue is None or pending_cue[1] is None:
                raise OrphanMarker(f"FeedbackEnd at {ev.sample_index} without start")
            cue, start = pending_cue
            if start < last_end:
                raise OverlappingTrials(
                    f"feedback at {start} starts before previous trial ends at {last_end}"
                )
            label = ClassLabel.Left if cue.kind is EventKind.CueLeft else ClassLabel.Right
            trials.append(
                Trial(
                    label=label,
                    run_index=cue.run_index,
                    samples=rec.samples[start : ev.sample_index],
                    start_sample=start,
                    fs=rec.fs,
                )
            )
            last_end = ev.sample_index
            pending_cue = None
    if pending_cue is not None:
        raise OrphanMarker(
            f"cue at sample {pending_cue[0].sample_index} has no feedback end"
        )
    return trials


@dataclass(frozen=True)
class WindowSet:
    """Sliding windows cut from trials, with per-window provenance.

    The preprocessed samples are held once, not per window: window i is
    signal[starts[i] : starts[i] + win_len], a (win_len, n_channels) slice
    of the (n_samples, n_channels) float64 signal. Windows may overlap and
    starts may come in any order. labels, trial_index and run_index are
    parallel length-n_windows arrays. The windows property builds the
    (n_windows, win_len, n_channels) stack as a copy on request; features
    read the signal directly.
    """

    signal: np.ndarray  # (n_samples, n_channels) float64, C order
    starts: np.ndarray  # (n_windows,) int, first sample of each window
    labels: np.ndarray  # int, ClassLabel values
    trial_index: np.ndarray
    run_index: np.ndarray
    fs: float
    win_len: int
    win_step: int

    def __post_init__(self):
        signal = np.ascontiguousarray(self.signal, dtype=np.float64)
        starts = np.asarray(self.starts, dtype=np.int64).reshape(-1)
        if signal.ndim != 2:
            raise ValueError(f"signal must be 2-D, got shape {signal.shape}")
        if len(starts):
            first, last = _start_range(starts)
            if first < 0 or last + self.win_len > signal.shape[0]:
                raise ValueError(
                    f"window starts must lie in [0, {signal.shape[0] - self.win_len}]"
                )
        object.__setattr__(self, "signal", signal)
        object.__setattr__(self, "starts", starts)

    @property
    def n_windows(self) -> int:
        return self.starts.shape[0]

    @property
    def n_channels(self) -> int:
        return self.signal.shape[1]

    @property
    def windows(self) -> np.ndarray:
        """(n_windows, win_len, n_channels) stack of the windows, built as a
        new copy on every access."""
        return self.signal[self.starts[:, None] + np.arange(self.win_len)]

    def flattened(self) -> np.ndarray:
        """Windows as rows of channel-major blocks: [c0 t0..tW, c1 t0..tW, ...].

        A 512-sample, 13-channel window flattens to 6656 features.
        The signal span the windows cover is transposed to channel-major
        once, so each row is gathered as n_channels contiguous runs.
        """
        n, w = self.n_windows, self.win_len
        if n == 0:
            return np.empty((0, self.n_channels * w))
        lo, last = _start_range(self.starts)
        runs = _channel_major_runs(self.signal[lo : last + w], w)
        return runs[self.starts - lo].reshape(n, -1)

    def __getitem__(self, rows: slice) -> WindowSet:
        """The windows in ``rows``, cut from this set's signal without a copy."""
        return replace(self, starts=self.starts[rows], labels=self.labels[rows],
                       trial_index=self.trial_index[rows],
                       run_index=self.run_index[rows])

    def trial_slices(self) -> list[tuple[int, slice]]:
        """(trial_index, row slice) per trial, in temporal order."""
        idx = self.trial_index
        if len(idx) == 0:
            return []
        bounds = [0, *(np.flatnonzero(idx[1:] != idx[:-1]) + 1).tolist(), len(idx)]
        return [(int(idx[a]), slice(a, b)) for a, b in zip(bounds, bounds[1:])]


def _channel_major_runs(span: np.ndarray, length: int) -> np.ndarray:
    """(start, channel, time) view of every length-sample run of span.

    span, a (n_samples, n_channels) slice of a signal, is copied to
    channel-major once, so each run of each channel is contiguous: a
    flattened window gathers n_channels of them, and a Welch segment is
    transformed along its last axis.
    """
    by_channel = np.ascontiguousarray(span.T)
    return sliding_window_view(by_channel, length, axis=1).transpose(1, 0, 2)


def _start_range(starts: np.ndarray) -> tuple[int, int]:
    """Smallest and largest of a non-empty array of window starts.

    Python's min and max: two numpy reductions cost the one-window sets
    that stream_replay slices for every window about 5 microseconds.
    """
    values = starts.tolist()
    return min(values), max(values)


def _samples_per(value_s: float, fs: float, what: str) -> int:
    exact = value_s * fs
    n = round(exact)
    if abs(exact - n) > 1e-9 or n <= 0:
        raise NonIntegerWindow(f"{what} of {value_s}s is {exact} samples at fs={fs}")
    return n


def _window_layout(trials: list[Trial], win_len_s: float, step_s: float) -> dict:
    """Every WindowSet field but the signal, for the windows of the trials
    laid end to end; raises window_trials' errors."""
    if not trials:
        raise NoTrials("no trials to window")
    fs = trials[0].fs
    win = _samples_per(win_len_s, fs, "window length")
    step = _samples_per(step_s, fs, "window step")

    starts, labels, t_idx, r_idx = [], [], [], []
    offset = 0
    for t, trial in enumerate(trials):
        if trial.n_samples < win:
            raise TrialTooShort(
                f"trial at sample {trial.start_sample} has {trial.n_samples} "
                f"samples, window needs {win}"
            )
        count = 1 + (trial.n_samples - win) // step
        starts.append(offset + step * np.arange(count))
        offset += trial.n_samples
        labels.extend([trial.label.value] * count)
        t_idx.extend([t] * count)
        r_idx.extend([trial.run_index] * count)

    return dict(
        starts=np.concatenate(starts),
        labels=np.array(labels, dtype=np.int64),
        trial_index=np.array(t_idx, dtype=np.int64),
        run_index=np.array(r_idx, dtype=np.int64),
        fs=fs,
        win_len=win,
        win_step=step,
    )


def window_trials(
    trials: list[Trial], win_len_s: float = 1.0, step_s: float = 0.0625
) -> WindowSet:
    """Cut fixed-length windows from every trial.

    Defaults give 1 s windows stepped by 62.5 ms: 512 and 32 samples at
    fs=512, so a 2496-sample trial yields 1 + (2496-512)/32 = 63 windows.
    """
    layout = _window_layout(trials, win_len_s, step_s)
    return WindowSet(signal=np.concatenate([t.samples for t in trials]), **layout)
