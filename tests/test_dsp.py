"""Filter design, zero-phase/causal filtering, CAR, trials, windows."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import signal

from mi_decode import dsp
from mi_decode.dsp import (
    BandpassSpec,
    PreprocessParams,
    Trial,
    WindowSet,
    _bandpass,
    _pad_len,
    apply_car,
    causal_filter_state,
    design_bandpass,
    extract_trials,
    filter_causal_step,
    filter_forward,
    filter_offline,
    preprocess,
    stream_windows,
    window_trials,
    windows_from_recording,
)
from mi_decode.errors import (
    ChannelCountMismatch,
    InvalidBand,
    NonIntegerWindow,
    NoTrials,
    OrphanMarker,
    OverlappingTrials,
    TooFewChannels,
    TrialTooShort,
)
from mi_decode.evidence import EvidenceConfig, replay_session, stream_to_report
from mi_decode.features import psd_features
from mi_decode.session import ClassLabel, EventKind, Recording

from conftest import marker, noise_recording, trial_events

FS = 512.0
BAND = BandpassSpec(4.0, 30.0, 4, FS)


def analytic_gain(f_hz, spec):
    """Exact magnitude of the bilinear-transformed Butterworth band-pass.

    The bilinear map preserves magnitude along the frequency axis, so the
    digital response at f equals the analog prototype response at the
    prewarped frequency 2*fs*tan(pi*f/fs).
    """
    fs = spec.fs
    w = 2.0 * fs * np.tan(np.pi * np.asarray(f_hz, dtype=float) / fs)
    w1 = 2.0 * fs * np.tan(np.pi * spec.low_hz / fs)
    w2 = 2.0 * fs * np.tan(np.pi * spec.high_hz / fs)
    lam = (w * w - w1 * w2) / (w * (w2 - w1))
    return 1.0 / np.sqrt(1.0 + lam ** (2 * (spec.order // 2)))


def gain_at(coeffs, f_hz):
    _, h = signal.sosfreqz(coeffs.sos, worN=2 * np.pi * np.atleast_1d(f_hz) / coeffs.fs)
    return np.abs(h)


def test_design_matches_analytic_magnitude():
    for low, high, order, fs in [(4, 30, 4, 512), (8, 12, 4, 256), (1, 40, 6, 512)]:
        spec = BandpassSpec(low, high, order, fs)
        freqs = np.linspace(0.25, fs / 2 - 1.0, 400)
        gain = gain_at(design_bandpass(spec), freqs)
        assert np.allclose(gain, analytic_gain(freqs, spec), atol=1e-10)


def test_band_edges_sit_at_half_power():
    coeffs = design_bandpass(BAND)
    edges = gain_at(coeffs, [BAND.low_hz, BAND.high_hz])
    assert np.allclose(edges, 1.0 / np.sqrt(2.0), atol=1e-9)


def test_passband_flat_and_stopbands_deep():
    coeffs = design_bandpass(BAND)
    db = 20.0 * np.log10(gain_at(coeffs, [10.0, 0.5, 100.0]))
    assert abs(db[0]) < 1.0
    assert db[1] <= -20.0
    assert db[2] <= -20.0


def test_sections_and_stability():
    for order in (2, 4, 6, 8):
        for low, high in [(4.0, 30.0), (0.01, 255.9), (0.5, 4.0)]:
            coeffs = design_bandpass(BandpassSpec(low, high, order, FS))
            assert coeffs.sos.shape == (order // 2, 6)
            assert np.all(coeffs.sos[:, 3] == 1.0)
            _, poles, _ = signal.sos2zpk(coeffs.sos)
            assert np.all(np.abs(poles) < 1.0)


def test_design_is_deterministic():
    a = design_bandpass(BAND)
    b = design_bandpass(BAND)
    assert a.sos.tobytes() == b.sos.tobytes()


@pytest.mark.parametrize(
    "low,high,order,fs",
    [
        (30.0, 4.0, 4, FS),
        (0.0, 30.0, 4, FS),
        (4.0, 256.0, 4, FS),
        (4.0, 30.0, 3, FS),
        (4.0, 30.0, 0, FS),
        (-1.0, 30.0, 4, FS),
    ],
)
def test_invalid_band_specs(low, high, order, fs):
    with pytest.raises(InvalidBand):
        BandpassSpec(low, high, order, fs)


def _tone_burst(n=4096, center=2048, f_hz=10.0, width=160.0):
    k = np.arange(n, dtype=float)
    env = np.exp(-0.5 * ((k - center) / width) ** 2)
    x = env * np.cos(2.0 * np.pi * f_hz * (k - center) / FS)
    return x


def test_zero_phase_keeps_burst_centered():
    # An in-band tone burst is even-symmetric about its center; zero-phase
    # filtering must keep the peak there instead of delaying it.
    center = 2048
    x = _tone_burst(center=center)
    rec = Recording(x[:, None], FS, ("ch0",), ())
    y = filter_offline(rec, design_bandpass(BAND)).samples[:, 0]
    assert abs(int(np.argmax(y)) - center) <= 1
    half = 400
    seg = y[center - half : center + half + 1]
    assert np.allclose(seg, seg[::-1], atol=1e-3 * np.max(np.abs(y)))


def test_causal_path_emits_no_output_before_input():
    x = np.zeros(4096)
    x[3000:] = 1.0
    rec = Recording(x[:, None], FS, ("ch0",), ())
    y = filter_forward(rec, design_bandpass(BAND)).samples[:, 0]
    # zero state on zero input stays exactly zero; the step edge then
    # passes the band immediately
    assert np.all(y[:3000] == 0.0)
    assert np.max(np.abs(y[3000:3100])) > 0.01


def test_offline_zero_phase_padding_semantics():
    rng = np.random.default_rng(4101)
    x = rng.standard_normal((4000, 3))
    rec = Recording(x, FS, ("a", "b", "c"), ())
    coeffs = design_bandpass(BAND)
    ref = filter_offline(rec, coeffs).samples
    # the rule: 72 samples of even reflection each side, two zero-state
    # passes; the windowing paths' channel-major core gives the same bits
    assert _pad_len(coeffs, x.shape[0]) == 72
    assert np.array_equal(_bandpass(x, coeffs, zero_phase=True), ref)
    # sosfiltfilt seeds its passes differently, but initial conditions decay:
    # deep in the interior the two must agree
    full = signal.sosfiltfilt(coeffs.sos, x, axis=0, padtype="even", padlen=72)
    assert np.allclose(ref[1500:2500], full[1500:2500], atol=1e-9)


@pytest.mark.parametrize("n", [50, 2])
def test_offline_padding_clips_to_one_less_than_the_length(n):
    x = np.random.default_rng(4115).standard_normal((n, 3))
    coeffs = design_bandpass(BAND)
    ref = filter_offline(Recording(x, FS, ("a", "b", "c"), ()), coeffs).samples
    assert _pad_len(coeffs, n) == n - 1  # below the 72 samples the rule asks for
    assert np.array_equal(_bandpass(x, coeffs, zero_phase=True), ref)


def test_forward_matches_sosfilt():
    rng = np.random.default_rng(4102)
    x = rng.standard_normal((1500, 2))
    rec = Recording(x, FS, ("a", "b"), ())
    coeffs = design_bandpass(BAND)
    ref = filter_forward(rec, coeffs).samples
    assert np.array_equal(ref, signal.sosfilt(coeffs.sos, x, axis=0))
    assert np.array_equal(_bandpass(x, coeffs, zero_phase=False), ref)


def test_chunked_causal_filter_is_bit_identical():
    rng = np.random.default_rng(4103)
    x = rng.standard_normal((1024, 4))
    rec = Recording(x, FS, tuple("abcd"), ())
    coeffs = design_bandpass(BAND)
    whole = filter_forward(rec, coeffs).samples

    for sizes in ([1] * 64 + [960], [7, 100, 1, 400, 516], [1024], [512, 512]):
        assert sum(sizes) == 1024
        state = causal_filter_state(coeffs, 4)
        parts = []
        start = 0
        for size in sizes:
            out, state = filter_causal_step(coeffs, state, x[start : start + size])
            parts.append(out)
            start += size
        assert np.array_equal(np.vstack(parts), whole)


def test_causal_state_shape_and_channel_check():
    coeffs = design_bandpass(BAND)
    state = causal_filter_state(coeffs, 3)
    assert state.shape == (coeffs.sos.shape[0], 2, 3)
    assert np.all(state == 0.0)
    with pytest.raises(ChannelCountMismatch):
        filter_causal_step(coeffs, state, np.zeros((8, 5)))


def test_dc_and_linearity():
    coeffs = design_bandpass(BAND)
    rec = Recording(np.ones((4096, 1)), FS, ("c",), ())
    y = filter_offline(rec, coeffs).samples[:, 0]
    # away from the edge transients a constant input is fully rejected
    assert np.max(np.abs(y[1024:3072])) < 1e-9

    rng = np.random.default_rng(4104)
    x = rng.standard_normal((600, 1))
    a = filter_offline(Recording(x, FS, ("c",), ()), coeffs).samples
    b = filter_offline(Recording(3.0 * x, FS, ("c",), ()), coeffs).samples
    assert np.allclose(b, 3.0 * a, atol=1e-10)


# --- common average reference ----------------------------------------------


def test_car_removes_row_means():
    rec = noise_recording(256, 5, FS, seed=4105)
    out = apply_car(rec)
    assert np.allclose(out.samples.mean(axis=1), 0.0, atol=1e-12)
    expected = rec.samples - rec.samples.mean(axis=1, keepdims=True)
    assert np.allclose(out.samples, expected, atol=1e-15)


def test_car_removes_shared_artifact():
    rng = np.random.default_rng(4106)
    base = rng.standard_normal((256, 6))
    artifact = 50.0 * np.sin(np.linspace(0.0, 20.0, 256))[:, None]
    clean = base - base.mean(axis=1, keepdims=True)
    rec = Recording(base + artifact, FS, tuple(f"c{i}" for i in range(6)), ())
    assert np.allclose(apply_car(rec).samples, clean, atol=1e-9)


def test_car_needs_two_channels():
    with pytest.raises(TooFewChannels):
        apply_car(noise_recording(64, 1, FS))


# --- trial extraction -------------------------------------------------------


def _trial_rec(spans, n=4000, seed=4107):
    events = []
    for start, label, length, run in spans:
        events.extend(trial_events(start, label, length, run_index=run))
    return noise_recording(n, 3, 64.0, events=events, seed=seed)


def test_extract_trials_spans_and_labels():
    rec = _trial_rec(
        [
            (100, ClassLabel.Left, 64, 0),
            (400, ClassLabel.Right, 64, 0),
            (700, ClassLabel.Left, 96, 1),
        ]
    )
    trials = extract_trials(rec)
    assert [t.label for t in trials] == [
        ClassLabel.Left,
        ClassLabel.Right,
        ClassLabel.Left,
    ]
    assert [t.run_index for t in trials] == [0, 0, 1]
    # feedback span is [FeedbackStart, FeedbackEnd)
    assert trials[0].start_sample == 108
    assert trials[0].n_samples == 64
    assert np.array_equal(trials[0].samples, rec.samples[108:172])
    assert trials[2].n_samples == 96
    assert all(t.fs == rec.fs for t in trials)


def test_extract_trials_empty_recording():
    assert extract_trials(noise_recording(100, 3, 64.0)) == []


def test_orphan_cue_without_feedback():
    events = [
        marker(10, EventKind.CueLeft),
        marker(20, EventKind.CueRight),
        marker(30, EventKind.FeedbackStart),
        marker(40, EventKind.FeedbackEnd),
    ]
    with pytest.raises(OrphanMarker):
        extract_trials(noise_recording(100, 3, 64.0, events=events))


def test_orphan_feedback_start_without_cue():
    events = [marker(10, EventKind.FeedbackStart), marker(20, EventKind.FeedbackEnd)]
    with pytest.raises(OrphanMarker):
        extract_trials(noise_recording(100, 3, 64.0, events=events))


def test_orphan_feedback_end_without_start():
    events = [marker(10, EventKind.CueLeft), marker(20, EventKind.FeedbackEnd)]
    with pytest.raises(OrphanMarker):
        extract_trials(noise_recording(100, 3, 64.0, events=events))


def test_orphan_trailing_cue():
    events = trial_events(10, ClassLabel.Left, 16) + [marker(60, EventKind.CueRight)]
    with pytest.raises(OrphanMarker):
        extract_trials(noise_recording(100, 3, 64.0, events=events))


def test_unfinished_feedback_at_end():
    events = [marker(10, EventKind.CueLeft), marker(20, EventKind.FeedbackStart)]
    with pytest.raises(OrphanMarker):
        extract_trials(noise_recording(100, 3, 64.0, events=events))


def test_overlapping_trials_rejected():
    # Recording itself refuses unsorted events, so feed the extractor a bare
    # stand-in to exercise its own overlap guard.
    rng = np.random.default_rng(4110)
    stub = SimpleNamespace(
        samples=rng.standard_normal((100, 3)),
        fs=64.0,
        events=(
            marker(10, EventKind.CueLeft),
            marker(20, EventKind.FeedbackStart),
            marker(40, EventKind.FeedbackEnd),
            marker(12, EventKind.CueRight),
            marker(30, EventKind.FeedbackStart),
            marker(50, EventKind.FeedbackEnd),
        ),
    )
    with pytest.raises(OverlappingTrials):
        extract_trials(stub)


def test_trial_start_markers_ignored():
    events = [marker(5, EventKind.TrialStart)] + trial_events(10, ClassLabel.Right, 16)
    trials = extract_trials(noise_recording(100, 3, 64.0, events=events))
    assert len(trials) == 1
    assert trials[0].label is ClassLabel.Right


# --- windowing --------------------------------------------------------------


def _make_trial(n_samples, fs=FS, label=ClassLabel.Left, run=0, seed=4108, n_ch=4):
    rng = np.random.default_rng(seed)
    return Trial(
        label=label,
        run_index=run,
        samples=rng.standard_normal((n_samples, n_ch)),
        start_sample=0,
        fs=fs,
    )


def test_window_count_63_per_standard_trial():
    ws = window_trials([_make_trial(2496)], 1.0, 0.0625)
    assert ws.windows.shape == (63, 512, 4)


def test_window_count_3780_for_sixty_trials():
    trials = [
        _make_trial(2496, label=ClassLabel(i % 2), run=i % 4, seed=i) for i in range(60)
    ]
    ws = window_trials(trials, 1.0, 0.0625)
    assert ws.windows.shape[0] == 3780
    assert len(ws.labels) == 3780
    assert np.all(np.bincount(ws.trial_index) == 63)


def test_window_contents_and_metadata():
    trial = _make_trial(96, fs=64.0, label=ClassLabel.Right, run=2)
    ws = window_trials([trial], 0.5, 0.25)
    # 96 samples, 32-sample windows, 16-sample hop -> 1 + (96-32)//16 = 5
    assert ws.windows.shape == (5, 32, 4)
    for i in range(5):
        assert np.array_equal(ws.windows[i], trial.samples[16 * i : 16 * i + 32])
    assert np.all(ws.labels == ClassLabel.Right.value)
    assert np.all(ws.run_index == 2)
    assert ws.win_len == 32 and ws.win_step == 16


def test_flattened_is_channel_major():
    ws = window_trials([_make_trial(40, fs=16.0, n_ch=3)], 1.0, 0.5)
    flat = ws.flattened()
    n, w, c = ws.windows.shape
    assert flat.shape == (n, w * c)
    for i in range(n):
        for ch in range(c):
            assert np.array_equal(flat[i, ch * w : (ch + 1) * w], ws.windows[i, :, ch])


def _stacked_reference(trials, win, step):
    """The window stack as the trials were once cut: one copy per window."""
    return np.stack([
        t.samples[w * step : w * step + win]
        for t in trials
        for w in range(1 + (t.n_samples - win) // step)
    ])


def test_windows_and_flattened_match_stacked_reference():
    trials = [
        _make_trial(n, fs=64.0, n_ch=3, seed=s, run=s)
        for s, n in enumerate((96, 40, 113))
    ]
    ws = window_trials(trials, 0.5, 0.125)
    ref = _stacked_reference(trials, 32, 8)
    assert ws.n_windows == len(ref) == 9 + 2 + 11
    assert np.array_equal(ws.windows, ref)
    n, w, c = ref.shape
    assert np.array_equal(ws.flattened(), ref.transpose(0, 2, 1).reshape(n, c * w))
    assert ws.n_channels == 3


def test_window_set_holds_each_sample_once():
    trials = [_make_trial(2496, seed=s) for s in range(3)]
    ws = window_trials(trials, 1.0, 0.0625)
    assert ws.n_windows == 189
    assert ws.signal.nbytes == sum(t.samples.nbytes for t in trials)
    assert ws.signal.flags.c_contiguous and ws.signal.dtype == np.float64
    assert np.array_equal(ws.starts[:3], [0, 32, 64])
    assert ws.starts[63] == 2496  # the second trial starts where the first ends


def test_features_never_build_the_window_stack(monkeypatch):
    def refuse(self):
        raise AssertionError("the window stack was built")

    ws = window_trials([_make_trial(2496, seed=s) for s in range(2)], 1.0, 0.0625)
    monkeypatch.setattr(WindowSet, "windows", property(refuse))
    assert psd_features(ws).X.shape == (126, 4 * 129)
    assert ws.flattened().shape == (126, 4 * 512)


def test_window_set_rejects_starts_outside_the_signal():
    kw = dict(labels=np.zeros(1), trial_index=np.zeros(1), run_index=np.zeros(1),
              fs=1.0, win_len=4, win_step=1)
    WindowSet(signal=np.zeros((10, 2)), starts=[6], **kw)
    for start in (-1, 7):
        with pytest.raises(ValueError):
            WindowSet(signal=np.zeros((10, 2)), starts=[start], **kw)


def test_trial_slices_partition_windows():
    trials = [_make_trial(2496, seed=s) for s in range(3)]
    ws = window_trials(trials, 1.0, 0.0625)
    slices = ws.trial_slices()
    assert [t for t, _ in slices] == [0, 1, 2]
    covered = np.concatenate([np.arange(s.start, s.stop) for _, s in slices])
    assert np.array_equal(covered, np.arange(ws.windows.shape[0]))
    assert all(s.stop - s.start == 63 for _, s in slices)


def _loop_trial_slices(trial_index):
    """Reference: walk the windows and cut where the trial index changes."""
    out, start = [], 0
    for i in range(1, len(trial_index) + 1):
        if i == len(trial_index) or trial_index[i] != trial_index[start]:
            out.append((int(trial_index[start]), slice(start, i)))
            start = i
    return out


@pytest.mark.parametrize(
    "trial_index",
    [[], [4], [0, 0, 0], [0, 0, 1, 1, 1, 2], [5, 5, 2, 2, 5], "random"],
)
def test_trial_slices_match_loop_reference(trial_index):
    if trial_index == "random":
        trial_index = np.random.default_rng(4301).integers(0, 3, 200)
    idx = np.asarray(trial_index, dtype=np.int64)
    ws = WindowSet(
        signal=np.zeros((len(idx), 1)), starts=np.arange(len(idx)), labels=idx,
        trial_index=idx, run_index=idx, fs=1.0, win_len=1, win_step=1,
    )
    got = ws.trial_slices()
    assert got == _loop_trial_slices(idx)
    assert all(type(v) is int for t, sl in got for v in (t, sl.start, sl.stop))


def test_window_trials_errors():
    with pytest.raises(TrialTooShort):
        window_trials([_make_trial(100)], 1.0, 0.0625)  # shorter than one window
    with pytest.raises(NonIntegerWindow):
        window_trials([_make_trial(200, fs=100.0)], 1.0, 0.0625)  # 6.25-sample step
    with pytest.raises(NoTrials):
        window_trials([], 1.0, 0.0625)


# --- preprocessing pipeline -------------------------------------------------


def _session_like_recording(seed=4109):
    events = []
    for i, label in enumerate([ClassLabel.Left, ClassLabel.Right, ClassLabel.Left]):
        events.extend(trial_events(200 + 1200 * i, label, 1024, cue_gap=64))
    return noise_recording(4200, 5, FS, events=events, seed=seed)


def test_preprocess_filters_then_cars():
    rec = _session_like_recording()
    params = PreprocessParams()
    out = preprocess(rec, params)
    coeffs = design_bandpass(params.band_spec(rec.fs))
    expected = apply_car(filter_offline(rec, coeffs))
    assert np.array_equal(out.samples, expected.samples)
    assert out.events == rec.events


def test_preprocess_car_off():
    rec = _session_like_recording()
    params = PreprocessParams(car=False)
    out = preprocess(rec, params)
    coeffs = design_bandpass(params.band_spec(rec.fs))
    assert np.array_equal(out.samples, filter_offline(rec, coeffs).samples)


@pytest.mark.parametrize("causal", [False, True])
def test_preprocess_shares_no_code_with_the_windowing_paths(monkeypatch, causal):
    # the reference the windowing paths are checked against must not run
    # on their filter core, their layout copies or their in-place CAR
    def refuse(*args, **kwargs):
        raise AssertionError("the reference called a windowing-path helper")

    for name in ("_bandpass", "_copy_rows", "_subtract_row_means"):
        monkeypatch.setattr(dsp, name, refuse)
    rec = _session_like_recording()
    out = preprocess(rec, PreprocessParams(car=True), causal=causal)
    assert out.samples.shape == rec.samples.shape


def test_preprocess_causal_uses_forward_filter():
    rec = _session_like_recording()
    params = PreprocessParams()
    out = preprocess(rec, params, causal=True)
    coeffs = design_bandpass(params.band_spec(rec.fs))
    expected = apply_car(filter_forward(rec, coeffs))
    assert np.array_equal(out.samples, expected.samples)


def _first_trial_at_zero_recording():
    """A trial whose cue and FeedbackStart sit on sample 0, and one more."""
    events = trial_events(0, ClassLabel.Right, 1024, cue_gap=0)
    events += trial_events(1500, ClassLabel.Left, 800, run_index=1, cue_gap=64)
    return noise_recording(3000, 4, FS, events=events, seed=4111)


def _short_recording():
    """50 samples at 64 Hz: the reflect pad clips from 72 to n - 1 = 49."""
    events = trial_events(0, ClassLabel.Left, 40, cue_gap=2)
    return noise_recording(50, 3, 64.0, events=events, seed=4112)


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("car", [True, False])
@pytest.mark.parametrize("make_rec, win_len_s", [
    (_session_like_recording, 1.0),
    (_first_trial_at_zero_recording, 1.0),
    (_short_recording, 0.5),
], ids=["session-like", "first-trial-at-zero", "pad-clipped"])
def test_windows_from_recording_equal_the_preprocessed_trials(
        make_rec, win_len_s, car, causal):
    rec = make_rec()
    params = PreprocessParams(car=car, win_len_s=win_len_s)
    ws = windows_from_recording(rec, params, causal=causal)
    ref = window_trials(extract_trials(preprocess(rec, params, causal=causal)),
                        params.win_len_s, params.step_s)
    for field in ("signal", "starts", "labels", "trial_index", "run_index"):
        assert np.array_equal(getattr(ws, field), getattr(ref, field)), field
    assert (ws.fs, ws.win_len, ws.win_step) == (ref.fs, ref.win_len, ref.win_step)


ORPHAN_CUE = [marker(10, EventKind.CueLeft)]
SHORT_TRIAL = trial_events(100, ClassLabel.Left, 100)


@pytest.mark.parametrize("causal", [False, True])
@pytest.mark.parametrize("n_channels, events, params, error, message", [
    (1, ORPHAN_CUE, PreprocessParams(high_hz=300.0), InvalidBand,
     "need 0 < low < high < fs/2, got (4.0, 300.0) at fs=512.0"),
    (1, ORPHAN_CUE, PreprocessParams(), TooFewChannels,
     "CAR needs >= 2 channels, got 1"),
    (1, ORPHAN_CUE, PreprocessParams(car=False), OrphanMarker,
     "cue at sample 10 has no feedback end"),
    (3, [], PreprocessParams(), NoTrials, "recording has no cue/feedback markers"),
    (3, SHORT_TRIAL, PreprocessParams(step_s=0.01), NonIntegerWindow,
     "window step of 0.01s is 5.12 samples at fs=512.0"),
    (3, SHORT_TRIAL, PreprocessParams(), TrialTooShort,
     "trial at sample 108 has 100 samples, window needs 512"),
], ids=["band", "car-channels", "orphan-cue", "no-trials", "step", "short-trial"])
def test_windows_from_recording_error_order(n_channels, events, params, error,
                                            message, causal):
    # the stream, its report and the batch causal replay refuse the
    # recording with the batch path's first error
    rec = noise_recording(1000, n_channels, FS, events=events, seed=4113)
    decoder = SimpleNamespace(
        params=params,
        windows=lambda rec, causal: windows_from_recording(rec, params, causal=causal),
        predict_windows=lambda ws: np.zeros(ws.n_windows, dtype=np.int64),
        stream_votes=lambda ws: iter([0] * ws.n_windows),
    )
    cfg = EvidenceConfig(threshold=0.5, step=0.1)
    for run in (lambda: windows_from_recording(rec, params, causal=causal),
                lambda: next(stream_windows(rec, params)),
                lambda: stream_to_report(decoder, rec, cfg),
                lambda: replay_session(decoder, rec, cfg, causal=True)):
        with pytest.raises(error) as raised:
            run()
        assert type(raised.value) is error
        assert str(raised.value) == message


@pytest.mark.parametrize("causal", [False, True])
def test_windows_from_recording_peak_memory(causal):
    # trials cover most of the recording, as in a calibration session
    events = []
    for i in range(12):
        events.extend(trial_events(300 + 3000 * i, ClassLabel(i % 2), 2496, cue_gap=64))
    rec = noise_recording(36500, 13, FS, events=events, seed=4114)
    params = PreprocessParams()
    windows_from_recording(rec, params, causal=causal)  # warm up imports and caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ws = windows_from_recording(rec, params, causal=causal)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ws.n_windows == 12 * 63
    # the channel-major copy, sosfilt's copy of it, then the trial rows:
    # never more than about two recordings' worth of samples at once
    assert peak <= 2.2 * rec.samples.nbytes


def test_windows_from_recording_counts():
    ws = windows_from_recording(_session_like_recording(), PreprocessParams())
    # three 1024-sample trials -> 1 + (1024-512)//32 = 17 windows each
    assert ws.windows.shape == (51, 512, 5)
    assert list(ws.labels[::17]) == [
        ClassLabel.Left.value,
        ClassLabel.Right.value,
        ClassLabel.Left.value,
    ]


def _stream_recording(feedback_n=(1024, 700, 900)):
    """Three trials on runs 0, 0 and 1, with samples before, between and
    after them."""
    events = []
    labels = [ClassLabel.Left, ClassLabel.Right, ClassLabel.Left]
    for i, (label, n) in enumerate(zip(labels, feedback_n)):
        events.extend(trial_events(300 + 1200 * i, label, n, run_index=i // 2, cue_gap=64))
    return noise_recording(4000, 5, FS, events=events, seed=4110)


@pytest.mark.parametrize("car", [True, False])
def test_stream_windows_equal_the_batch_causal_windows(car):
    rec = _stream_recording()
    params = PreprocessParams(car=car)
    batch = windows_from_recording(rec, params, causal=True)
    streamed = list(stream_windows(rec, params))
    slices = batch.trial_slices()
    assert [ws.n_windows for ws in streamed] == [17, 6, 13]
    assert len(slices) == len(streamed)
    for ws, (_, rows) in zip(streamed, slices):
        trial = batch[rows]
        assert trial.signal is batch.signal
        assert np.array_equal(ws.starts, trial.starts - trial.starts[0])
        assert np.array_equal(ws.labels, trial.labels)
        assert np.array_equal(ws.run_index, trial.run_index)
        assert np.array_equal(ws.windows, trial.windows)


def test_stream_windows_refuse_a_short_trial_when_it_arrives():
    rec = _stream_recording(feedback_n=(1024, 300, 900))
    params = PreprocessParams()
    with pytest.raises(TrialTooShort) as batch:
        windows_from_recording(rec, params, causal=True)
    assert str(batch.value) == "trial at sample 1564 has 300 samples, window needs 512"
    stream = stream_windows(rec, params)
    assert next(stream).n_windows == 17
    with pytest.raises(TrialTooShort) as streamed:
        next(stream)
    assert str(streamed.value) == str(batch.value)


def test_windows_from_recording_no_trials():
    with pytest.raises(NoTrials):
        windows_from_recording(noise_recording(1000, 5, FS), PreprocessParams())


def test_preprocess_params_to_dict_round_trip():
    params = PreprocessParams(low_hz=6.0, high_hz=28.0, order=2, car=False)
    doc = params.to_dict()
    assert doc["low_hz"] == 6.0
    assert doc["car"] is False
    assert PreprocessParams(**doc) == params
