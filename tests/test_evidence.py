"""Evidence accumulation, trial replay, threshold/step grid search, streaming."""

import math
import re
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mi_decode.dsp import PreprocessParams, Trial, extract_trials, window_trials
from mi_decode.errors import (
    EmptyGrid,
    EmptyTrial,
    InvalidThreshold,
    NonIntegerWindow,
    NoTrials,
    TrialTooShort,
)
from mi_decode.evaluate import FeatureConfig, train_decoder
from mi_decode.evidence import (
    EvidenceConfig,
    Outcome,
    accumulate,
    grid_search,
    replay_session,
    stream_replay,
    stream_to_report,
)
from mi_decode.session import ClassLabel, Recording, SessionKind
from mi_decode.synth import generate_session

from conftest import noise_recording, small_spec, trial_events

L = ClassLabel.Left.value
R = ClassLabel.Right.value


def brute_force(preds, theta, delta):
    """Independent interpreter: exact decimal running sum, strict threshold.

    Returns the decision, the stop index and the trajectory, each exact
    running sum rounded once to a float.
    """
    th = Fraction(str(theta))
    d = Fraction(str(delta))
    ev = Fraction(0)
    trajectory = []
    for i, p in enumerate(preds):
        ev += d if p == R else -d
        trajectory.append(float(ev))
        if ev > th:
            return Outcome.Right, i + 1, tuple(trajectory)
        if -ev > th:
            return Outcome.Left, i + 1, tuple(trajectory)
    return Outcome.Timeout, len(preds), tuple(trajectory)


# --- config -----------------------------------------------------------------


@pytest.mark.parametrize(
    "theta,delta,votes",
    [
        (0.5, 0.1, 6),  # 5 votes reach the threshold exactly; strict > needs 6
        (0.3, 0.1, 4),
        (0.35, 0.1, 4),
        (0.1, 0.1, 2),
        (1.0, 0.01, 101),
        (0.07, 0.02, 4),
        (1.0, 1.0, 2),
    ],
)
def test_votes_to_decide(theta, delta, votes):
    assert EvidenceConfig(theta, delta).votes_to_decide == votes


@pytest.mark.parametrize(
    "theta,delta",
    [
        (0.5, 0.0),
        (0.5, -0.1),
        (0.0, 0.0),
        (1.5, 0.1),
        (0.2, 0.3),
        (float("nan"), 0.1),
        (0.5, float("inf")),
    ],
)
def test_invalid_configs(theta, delta):
    with pytest.raises(InvalidThreshold):
        EvidenceConfig(theta, delta)


# --- accumulate -------------------------------------------------------------


def test_exact_multiple_threshold_needs_extra_vote():
    # 0.1+0.1+0.1+0.1+0.1 == 0.5 in exact decimal, so five Right votes only
    # *reach* theta=0.5; the decision lands on vote six. (A float running
    # sum would stop at five because 0.1*5 > 0.5 in binary.)
    out = accumulate([R] * 10, EvidenceConfig(0.5, 0.1))
    assert out.decision is Outcome.Right
    assert out.stop_index == 6
    assert len(out.trajectory) == 6

    out = accumulate([L] * 10, EvidenceConfig(0.3, 0.1))
    assert out.decision is Outcome.Left
    assert out.stop_index == 4


def test_non_multiple_threshold():
    out = accumulate([R] * 10, EvidenceConfig(0.35, 0.1))
    assert (out.decision, out.stop_index) == (Outcome.Right, 4)


def test_alternating_votes_time_out():
    preds = [R, L] * 31 + [R]
    out = accumulate(preds, EvidenceConfig(0.2, 0.1))
    assert out.decision is Outcome.Timeout
    assert out.stop_index == 63
    assert len(out.trajectory) == 63


def test_unreachable_threshold_times_out():
    out = accumulate([R] * 63, EvidenceConfig(1.0, 0.01))
    assert out.decision is Outcome.Timeout
    assert out.stop_index == 63


def test_trajectory_values_and_strictness():
    cfg = EvidenceConfig(0.5, 0.1)
    out = accumulate([R, R, L, R, R, R, R, R, R], cfg)
    assert out.trajectory[:4] == (0.1, 0.2, 0.1, 0.2)
    assert all(abs(v) <= cfg.threshold for v in out.trajectory[:-1])
    assert abs(out.trajectory[-1]) > cfg.threshold
    assert out.stop_index == len(out.trajectory)


def test_votes_after_decision_are_ignored():
    cfg = EvidenceConfig(0.2, 0.1)
    base = accumulate([R, R, R], cfg)
    flipped_tail = accumulate([R, R, R] + [L] * 50, cfg)
    assert base == flipped_tail


def test_empty_trial():
    with pytest.raises(EmptyTrial):
        accumulate([], EvidenceConfig(0.5, 0.1))


def test_matches_brute_force_interpreter():
    rng = np.random.default_rng(4401)
    for _ in range(2000):
        theta = int(rng.integers(1, 101)) / 100
        delta = int(rng.integers(1, int(theta * 100) + 1)) / 100
        preds = rng.integers(0, 2, size=int(rng.integers(1, 41))).tolist()
        got = accumulate(preds, EvidenceConfig(theta, delta))
        assert (got.decision, got.stop_index, got.trajectory) == brute_force(
            preds, theta, delta
        )
    # steps whose shortest repr is long, so the exact decimal's numerator
    # is near 2**53 and each evidence value must round exactly once
    for delta in (0.1 + 0.2, 1 / 3, 0.07 * 3, 2 / 7):
        for _ in range(200):
            theta = int(rng.integers(math.ceil(delta * 100), 101)) / 100
            preds = rng.integers(0, 2, size=int(rng.integers(1, 64))).tolist()
            got = accumulate(preds, EvidenceConfig(theta, delta))
            assert (got.decision, got.stop_index, got.trajectory) == brute_force(
                preds, theta, delta
            )


def test_stop_index_and_timeouts_monotone_in_threshold():
    # Raising theta can only delay decisions and add timeouts. (It can also
    # flip which side wins, so accuracy itself is not monotone.)
    rng = np.random.default_rng(4402)
    for _ in range(300):
        preds = rng.integers(0, 2, size=30).tolist()
        delta = int(rng.integers(1, 11)) / 100
        prev_stop = 0
        timed_out = False
        for th_cents in range(int(delta * 100), 101, 7):
            out = accumulate(preds, EvidenceConfig(th_cents / 100, delta))
            assert out.stop_index >= prev_stop
            prev_stop = out.stop_index
            if timed_out:
                assert out.decision is Outcome.Timeout
            timed_out = out.decision is Outcome.Timeout


def test_decision_side_can_flip_with_threshold():
    preds = [R, R, L, L, L, L, L, L]
    low = accumulate(preds, EvidenceConfig(0.1, 0.1))
    high = accumulate(preds, EvidenceConfig(0.3, 0.1))
    assert (low.decision, low.stop_index) == (Outcome.Right, 2)
    assert (high.decision, high.stop_index) == (Outcome.Left, 8)


def test_scaling_threshold_and_step_together_changes_nothing():
    rng = np.random.default_rng(4403)
    for _ in range(300):
        theta = int(rng.integers(1, 51)) / 100  # <= 0.5 so doubling stays valid
        delta = int(rng.integers(1, int(theta * 100) + 1)) / 100
        preds = rng.integers(0, 2, size=25).tolist()
        a = accumulate(preds, EvidenceConfig(theta, delta))
        b = accumulate(preds, EvidenceConfig(2 * theta, 2 * delta))
        assert (a.decision, a.stop_index) == (b.decision, b.stop_index)
        assert np.allclose(np.asarray(b.trajectory), 2 * np.asarray(a.trajectory))


def test_outcome_matches_labels():
    assert Outcome.Left.matches(ClassLabel.Left)
    assert Outcome.Right.matches(ClassLabel.Right)
    assert not Outcome.Right.matches(ClassLabel.Left)
    assert not Outcome.Timeout.matches(ClassLabel.Left)


# --- replay with a stub decoder ---------------------------------------------


class StubDecoder:
    """Serves a fixed WindowSet and votes via a supplied function."""

    def __init__(self, ws, vote_fn):
        self.params = PreprocessParams()
        self._ws = ws
        self._vote_fn = vote_fn

    def windows(self, rec, causal=False):
        return self._ws

    def predict_windows(self, ws):
        return np.asarray(self._vote_fn(ws), dtype=np.int64)


def _stub_windows(labels, n_samples=2496, fs=512.0, seed=4404):
    rng = np.random.default_rng(seed)
    trials = [
        Trial(
            label=lbl,
            run_index=0,
            samples=rng.standard_normal((n_samples, 2)),
            start_sample=0,
            fs=fs,
        )
        for lbl in labels
    ]
    return window_trials(trials, 1.0, 0.0625)


LABELS_8 = [ClassLabel.Left, ClassLabel.Right] * 4


def test_perfect_decoder_is_all_correct():
    ws = _stub_windows(LABELS_8)
    decoder = StubDecoder(ws, lambda w: w.labels)
    report = replay_session(decoder, None, EvidenceConfig(0.5, 0.1))
    assert report.n_trials == 8
    assert report.correct_n == 8
    assert report.incorrect_n == 0 and report.timeout_n == 0
    assert report.correct_pct == 100.0
    assert report.mean_latency_windows == 6.0
    # window 6 ends at 1.0 s + 5 * 62.5 ms
    assert report.mean_latency_s == pytest.approx(1.3125)


def test_always_right_decoder_splits_by_label():
    ws = _stub_windows(LABELS_8)
    decoder = StubDecoder(ws, lambda w: np.ones(w.n_windows, dtype=np.int64))
    report = replay_session(decoder, None, EvidenceConfig(0.3, 0.1))
    assert report.correct_n == 4  # the Right trials
    assert report.incorrect_n == 4
    assert report.timeout_n == 0
    assert {r.outcome.stop_index for r in report.results} == {4}


def test_unreachable_threshold_all_timeouts():
    ws = _stub_windows(LABELS_8)
    decoder = StubDecoder(ws, lambda w: w.labels)
    report = replay_session(decoder, None, EvidenceConfig(1.0, 0.01))
    assert report.timeout_n == 8
    assert report.correct_n == 0 and report.incorrect_n == 0
    assert report.mean_latency_windows is None
    assert report.mean_latency_s is None
    assert all(r.latency_s is None for r in report.results)


def test_counts_always_conserve():
    rng = np.random.default_rng(4405)
    ws = _stub_windows(LABELS_8)
    for _ in range(20):
        votes = rng.integers(0, 2, size=ws.n_windows)
        decoder = StubDecoder(ws, lambda w, v=votes: v[: w.n_windows])
        cfg = EvidenceConfig(int(rng.integers(1, 11)) / 10, 0.1)
        report = replay_session(decoder, None, cfg)
        assert report.correct_n + report.incorrect_n + report.timeout_n == 8
        assert report.correct_pct + report.incorrect_pct + report.timeout_pct == pytest.approx(100.0)


def test_report_to_dict_shapes():
    ws = _stub_windows(LABELS_8)
    decoder = StubDecoder(ws, lambda w: w.labels)
    report = replay_session(decoder, None, EvidenceConfig(0.5, 0.1))
    doc = report.to_dict()
    assert doc["n_trials"] == 8
    assert len(doc["trials"]) == 8
    first = doc["trials"][0]
    assert first["label"] == "Left"
    assert first["decision"] == "Left"
    assert first["stop_index"] == 6
    assert "trials" not in report.to_dict(trials=False)


# --- grid search ------------------------------------------------------------


def _fixed_vote_decoder(seed=4406, n_trials=10, quality=0.75):
    """Votes sampled once: right with probability `quality`, wrong otherwise."""
    rng = np.random.default_rng(seed)
    labels = [ClassLabel.Left, ClassLabel.Right] * (n_trials // 2)
    ws = _stub_windows(labels, seed=seed)
    correct = rng.random(ws.n_windows) < quality
    votes = np.where(correct, ws.labels, 1 - ws.labels)
    return StubDecoder(ws, lambda w, v=votes: v[: w.n_windows]), ws, votes


def test_grid_best_matches_exhaustive_re_evaluation():
    decoder, ws, votes = _fixed_vote_decoder()
    thresholds = [i / 10 for i in range(1, 11)]
    steps = [i / 100 for i in range(1, 11)]
    result = grid_search(decoder, None, thresholds, steps)
    assert len(result.cells) == 100

    # independent winner: brute-force every cell straight from the votes
    best_key = None
    best_cfg = None
    for th in thresholds:
        for d in steps:
            correct = incorrect = timeout = 0
            for t, sl in ws.trial_slices():
                dec, _, _ = brute_force(votes[sl].tolist(), th, d)
                label = ClassLabel(int(ws.labels[sl][0]))
                if dec is Outcome.Timeout:
                    timeout += 1
                elif dec.matches(label):
                    correct += 1
                else:
                    incorrect += 1
            key = (correct, -incorrect, -timeout, -th, -d)
            if best_key is None or key > best_key:
                best_key = key
                best_cfg = (th, d)
    assert (result.best.threshold, result.best.step) == best_cfg

    rep = result.best_report
    assert (rep.correct_n, -rep.incorrect_n, -rep.timeout_n) == best_key[:3]


def test_grid_cell_reports_match_single_replays():
    decoder, _, _ = _fixed_vote_decoder(seed=4407)
    result = grid_search(decoder, None, [0.2, 0.4], [0.05, 0.1])
    for cfg, rep in result.cells:
        assert rep == replay_session(decoder, None, cfg)


def test_grid_tie_breaks_prefer_small_threshold_then_step():
    # A perfect voter decides every cell correctly, so everything ties on
    # counts and the smallest threshold/step must win.
    ws = _stub_windows(LABELS_8)
    decoder = StubDecoder(ws, lambda w: w.labels)
    result = grid_search(decoder, None, [0.3, 0.1, 0.2], [0.1, 0.05])
    assert result.best == EvidenceConfig(0.1, 0.05)


def test_grid_single_cell_and_duplicates():
    decoder, _, _ = _fixed_vote_decoder(seed=4408)
    result = grid_search(decoder, None, [0.3, 0.3], [0.1, 0.1, 0.1])
    assert len(result.cells) == 1
    assert result.best == EvidenceConfig(0.3, 0.1)


def test_grid_errors():
    decoder, _, _ = _fixed_vote_decoder(seed=4409)
    with pytest.raises(EmptyGrid):
        grid_search(decoder, None, [], [0.1])
    with pytest.raises(ValueError):
        grid_search(decoder, None, [0.3], [0.1], objective="fancy")


def test_weighted_objective_matches_hand_scoring():
    decoder, _, _ = _fixed_vote_decoder(seed=4410, quality=0.6)
    thresholds = [i / 10 for i in range(1, 11)]
    steps = [0.02, 0.05, 0.1]
    result = grid_search(
        decoder, None, thresholds, steps, objective="weighted", alpha=1.0, beta=0.5
    )
    assert result.objective == "weighted"

    def key(cell):
        cfg, rep = cell
        return (
            rep.correct_n - 1.0 * rep.incorrect_n - 0.5 * rep.timeout_n,
            -cfg.threshold,
            -cfg.step,
        )

    assert result.best == max(result.cells, key=key)[0]


def test_grid_csv_layout():
    decoder, _, _ = _fixed_vote_decoder(seed=4411)
    result = grid_search(decoder, None, [0.1, 0.2, 0.3], [0.05, 0.1])
    lines = result.to_csv().splitlines()
    assert len(lines) == 4
    assert lines[0] == "theta\\delta,0.05,0.1"
    cell = re.compile(r"^\d+\.\d{2}/\d+\.\d{2}/\d+\.\d{2}$")
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 3
        float(fields[0])  # threshold label
        assert all(cell.match(f) for f in fields[1:])


def test_grid_is_deterministic():
    a = grid_search(*_fixed_vote_decoder(seed=4412)[:1], None)
    b = grid_search(*_fixed_vote_decoder(seed=4412)[:1], None)
    assert a.best == b.best
    assert a.to_csv() == b.to_csv()


# --- streaming --------------------------------------------------------------


@pytest.fixture(scope="module")
def stream_session():
    return generate_session(small_spec(210), SessionKind.Online1)


def test_stream_report_equals_batch_causal_replay(small_decoder, stream_session):
    rec = stream_session.recording
    cfg = EvidenceConfig(0.3, 0.1)
    streamed = stream_to_report(small_decoder, rec, cfg)
    batch = replay_session(small_decoder, rec, cfg, causal=True)
    assert streamed == batch


def test_pca_stream_equals_batch_causal_replay(small_pca_decoder, stream_session):
    rec = stream_session.recording
    cfg = EvidenceConfig(0.3, 0.1)
    streamed = stream_to_report(small_pca_decoder, rec, cfg)
    assert streamed == replay_session(small_pca_decoder, rec, cfg, causal=True)


def test_stream_equals_batch_when_every_window_falls_back(small_pca_decoder,
                                                          stream_session):
    # a certificate that never holds sends every window, batched or
    # streamed, through the one-row two-step path
    decoder = replace(small_pca_decoder)
    decoder.__dict__["_folded"] = replace(small_pca_decoder._folded, offset=np.inf)
    rec = stream_session.recording
    cfg = EvidenceConfig(0.3, 0.1)
    streamed = stream_to_report(decoder, rec, cfg)
    assert streamed == replay_session(decoder, rec, cfg, causal=True)
    assert streamed == stream_to_report(small_pca_decoder, rec, cfg)


def test_stream_event_invariants(small_decoder, stream_session):
    rec = stream_session.recording
    cfg = EvidenceConfig(0.3, 0.1)
    events = list(stream_replay(small_decoder, rec, cfg))
    report = replay_session(small_decoder, rec, cfg, causal=True)

    by_trial = {}
    for ev in events:
        by_trial.setdefault(ev.trial_index, []).append(ev)
    assert sorted(by_trial) == list(range(report.n_trials))
    for t, evs in by_trial.items():
        assert [e.window_index for e in evs] == list(range(1, len(evs) + 1))
        assert all(e.state == "accumulating" for e in evs[:-1])
        assert evs[-1].state in ("Left", "Right", "Timeout")
        out = report.results[t].outcome
        assert evs[-1].state == out.decision.name
        assert len(evs) == out.stop_index
        assert tuple(e.evidence for e in evs) == out.trajectory


@pytest.mark.parametrize("decoder_name", ["small_decoder", "small_pca_decoder"])
def test_final_stream_event_carries_the_batch_outcome(decoder_name, stream_session, request):
    decoder = request.getfixturevalue(decoder_name)
    rec = stream_session.recording
    params = decoder.params
    win, step = round(params.win_len_s * rec.fs), round(params.step_s * rec.fs)
    n_windows = [1 + (t.n_samples - win) // step for t in extract_trials(rec)]
    # (1.0, 0.01) needs 101 net votes, more than any trial has windows
    for cfg, all_timeout in ((EvidenceConfig(0.3, 0.1), False),
                             (EvidenceConfig(1.0, 0.01), True)):
        batch = replay_session(decoder, rec, cfg, causal=True)
        by_trial = {}
        for ev in stream_replay(decoder, rec, cfg):
            by_trial.setdefault(ev.trial_index, []).append(ev)
        assert sorted(by_trial) == list(range(batch.n_trials))
        for t, evs in by_trial.items():
            assert all(e.outcome is None for e in evs[:-1])
            assert evs[-1].outcome == batch.results[t].outcome
            if all_timeout:
                assert evs[-1].outcome.decision is Outcome.Timeout
                assert evs[-1].window_index == n_windows[t] == len(evs)


def test_stream_scores_no_window_after_a_decision(small_decoder, stream_session):
    class CountingDecoder:
        def __init__(self, inner):
            self.params = inner.params
            self.inner = inner
            self.calls = 0

        def predict_windows(self, ws):
            self.calls += 1
            return self.inner.predict_windows(ws)

    rec = stream_session.recording
    counting = CountingDecoder(small_decoder)
    events = list(stream_replay(counting, rec, EvidenceConfig(0.3, 0.1)))
    assert counting.calls == len(events)
    # the trials decide early, so scoring every window would be more calls
    params = small_decoder.params
    win, step = round(params.win_len_s * rec.fs), round(params.step_s * rec.fs)
    all_windows = sum(1 + (t.n_samples - win) // step for t in extract_trials(rec))
    assert len(events) < all_windows


def test_stream_on_event_callback(small_decoder, stream_session):
    rec = stream_session.recording
    cfg = EvidenceConfig(0.3, 0.1)
    seen = []
    report = stream_to_report(small_decoder, rec, cfg, on_event=seen.append)
    assert len(seen) == sum(r.outcome.stop_index for r in report.results)


def test_stream_requires_markers(small_decoder):
    rec = Recording(
        samples=np.zeros((1024, 13)),
        fs=512.0,
        channel_labels=tuple(f"ch{i:02d}" for i in range(13)),
        events=(),
    )
    with pytest.raises(NoTrials):
        list(stream_replay(small_decoder, rec, EvidenceConfig(0.3, 0.1)))


def _stream_and_batch_errors(decoder, rec, error):
    """The errors of the batch causal replay, the report stream and the
    event stream on one recording, each of class ``error``."""
    cfg = EvidenceConfig(0.3, 0.1)
    runs = (
        lambda: replay_session(decoder, rec, cfg, causal=True),
        lambda: stream_to_report(decoder, rec, cfg),
        lambda: list(stream_replay(decoder, rec, cfg)),
    )
    messages = []
    for run in runs:
        with pytest.raises(error) as exc:
            run()
        messages.append(str(exc.value))
    return messages


def test_stream_refuses_a_trial_shorter_than_a_window(small_decoder):
    session = generate_session(
        small_spec(212, n_runs=1, trials_per_run=2, feedback_s=0.5), SessionKind.Online1
    )
    batch, report, events = _stream_and_batch_errors(
        small_decoder, session.recording, TrialTooShort)
    assert batch == report == events
    assert "has 256 samples, window needs 512" in batch


def test_stream_refuses_a_non_integer_window_step(small_offline):
    # 0.0625 s is 31.25 samples at 500 Hz
    decoder = train_decoder([small_offline], FeatureConfig(mode="psd"))
    session = generate_session(
        small_spec(213, n_runs=1, trials_per_run=2, fs=500.0), SessionKind.Online1
    )
    batch, report, events = _stream_and_batch_errors(
        decoder, session.recording, NonIntegerWindow)
    assert batch == report == events == (
        "window step of 0.0625s is 31.25 samples at fs=500.0")


def test_stream_raises_when_the_short_trial_arrives(small_decoder):
    events = trial_events(100, ClassLabel.Left, 600) + trial_events(900, ClassLabel.Right, 300)
    rec = noise_recording(1400, 13, 512.0, events=events, seed=214)
    seen = []
    with pytest.raises(TrialTooShort):
        for ev in stream_replay(small_decoder, rec, EvidenceConfig(1.0, 0.01)):
            seen.append(ev)
    # the first trial's three windows, before the second trial arrives
    assert [(ev.trial_index, ev.window_index) for ev in seen] == [(0, 1), (0, 2), (0, 3)]


def test_realtime_stream_paces_events(small_decoder):
    session = generate_session(
        small_spec(211, n_runs=1, trials_per_run=2, feedback_s=1.5), SessionKind.Online1
    )
    rec = session.recording
    cfg = EvidenceConfig(0.3, 0.1)
    quick = stream_to_report(small_decoder, rec, cfg)
    t0 = time.perf_counter()
    paced = stream_to_report(small_decoder, rec, cfg, realtime=True)
    elapsed = time.perf_counter() - t0
    assert paced == quick
    n_events = sum(r.outcome.stop_index for r in paced.results)
    assert elapsed >= 0.0625 * n_events * 0.8
