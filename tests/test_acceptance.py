"""Acceptance gate: nine end-to-end criteria with tolerances and budgets.

Each criterion is one test; the terminal summary (conftest) prints one
PASS/FAIL line per criterion after the run. Budgets are CPU seconds of
the test process (``time.process_time``, every thread counted), so load
from other processes on the machine does not count against them.
"""

import json
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy import signal

from mi_decode.classify import lda_fit
from mi_decode.cli import main
from mi_decode.dsp import (
    BandpassSpec,
    PreprocessParams,
    Trial,
    apply_car,
    design_bandpass,
    extract_trials,
    filter_offline,
    preprocess,
    window_trials,
    windows_from_recording,
)
from mi_decode.evaluate import (
    FeatureConfig,
    cv_from_matrix,
    finetune_experiment,
    raw_feature_matrix,
    train_decoder,
)
from mi_decode.evidence import (
    EvidenceConfig,
    Outcome,
    accumulate,
    grid_search,
    replay_session,
)
from mi_decode.features import (
    FeatureMatrix,
    WelchSpec,
    pca_fit,
    pca_transform,
    welch_psd,
)
from mi_decode.session import ClassLabel, Recording, SessionKind
from mi_decode.synth import SynthSpec, generate_session

from conftest import pca_inverse_transform

FS = 512.0
L = ClassLabel.Left.value
R = ClassLabel.Right.value


def test_criterion_1_bandpass_response_and_zero_phase():
    t0 = time.process_time()
    spec = BandpassSpec(4.0, 30.0, 4, FS)
    coeffs = design_bandpass(spec)

    def analytic(f):
        w = 2.0 * FS * np.tan(np.pi * f / FS)
        w1 = 2.0 * FS * np.tan(np.pi * 4.0 / FS)
        w2 = 2.0 * FS * np.tan(np.pi * 30.0 / FS)
        lam = (w * w - w1 * w2) / (w * (w2 - w1))
        return 1.0 / np.sqrt(1.0 + lam ** 4)

    def measured(f):
        _, h = signal.sosfreqz(coeffs.sos, worN=[2.0 * np.pi * f / FS])
        return float(np.abs(h[0]))

    # passband reference point: within 1 dB of the analytic response
    db_err = 20.0 * np.log10(measured(10.0) / analytic(10.0))
    assert abs(db_err) < 1.0
    # stopband points: at least 20 dB down
    for f in (0.5, 100.0):
        assert 20.0 * np.log10(measured(f)) <= -20.0

    # a symmetric in-band burst keeps its peak sample under zero-phase filtering
    center = 2048
    k = np.arange(4096, dtype=float)
    burst = np.exp(-0.5 * ((k - center) / 160.0) ** 2) * np.cos(
        2.0 * np.pi * 10.0 * (k - center) / FS
    )
    rec = Recording(burst[:, None], FS, ("c",), ())
    y = filter_offline(rec, coeffs).samples[:, 0]
    assert abs(int(np.argmax(y)) - center) <= 1

    assert time.process_time() - t0 < 1.0


def test_criterion_2_car_and_window_bookkeeping():
    t0 = time.process_time()
    session = generate_session(
        SynthSpec(seed=7, n_runs=3, trials_per_run=20), SessionKind.Offline
    )
    rec = preprocess(session.recording, PreprocessParams())
    scale = float(np.max(np.abs(rec.samples)))
    assert float(np.max(np.abs(rec.samples.mean(axis=1)))) <= 1e-9 * scale

    trials = extract_trials(rec)
    assert len(trials) == 60
    ws = window_trials(trials, 1.0, 0.0625)
    per_trial = np.bincount(ws.trial_index)
    assert np.all(per_trial == 63)  # 1 + (2496 - 512) / 32 windows per trial
    assert ws.n_windows == 3780

    assert time.process_time() - t0 < 5.0


def test_criterion_3_welch_peak_and_power_level():
    t0 = time.process_time()
    spec = WelchSpec()
    k = np.arange(512)
    tone = np.sin(2.0 * np.pi * 10.0 * k / FS)[:, None]
    psd = welch_psd(tone, spec, FS)
    assert int(np.argmax(psd[0])) == 5  # 10 Hz / (fs/nperseg) = bin 5

    # integrated white-noise density within 10% of the true variance
    rng = np.random.default_rng(7001)
    total = 0.0
    n_avg = 100
    for _ in range(n_avg):
        x = rng.standard_normal((512, 1))
        p = welch_psd(x, spec, FS)[0]
        total += float(np.sum(p)) * FS / spec.nperseg
    assert abs(total / n_avg - 1.0) < 0.10

    assert time.process_time() - t0 < 5.0


def test_criterion_4_pca_variance_and_determinism():
    t0 = time.process_time()
    rng = np.random.default_rng(7002)

    # full-rank fit explains everything
    X = rng.standard_normal((50, 8))
    assert abs(pca_fit(X, 8).explained_variance_ratio.sum() - 1.0) <= 1e-9
    # a rank-3 matrix is fully explained by 3 components
    low = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 8))
    assert abs(pca_fit(low, 3).explained_variance_ratio.sum() - 1.0) <= 1e-9

    for _ in range(100):
        M = rng.standard_normal((20, 8)) * rng.uniform(0.5, 3.0, 8)
        errs = []
        for k in range(1, 9):
            t = pca_fit(M, k)
            err = float(np.sum((M - pca_inverse_transform(t, pca_transform(t, M))) ** 2))
            errs.append(err)
        assert all(a >= b - 1e-9 for a, b in zip(errs, errs[1:]))

    a = pca_fit(X, 5)
    b = pca_fit(X.copy(), 5)
    assert a.components.tobytes() == b.components.tobytes()
    assert a.mean.tobytes() == b.mean.tobytes()

    assert time.process_time() - t0 < 30.0


def test_criterion_5_lda_direction_accuracy_invariance():
    t0 = time.process_time()
    rng = np.random.default_rng(7003)

    # direction against the closed form, to 1e-6 radians
    for _ in range(20):
        d = 5
        Xl = rng.standard_normal((80, d)) + rng.uniform(-1, 1, d)
        Xr = Xl + rng.uniform(0.5, 2.0, d)
        X = np.vstack([Xl, Xr])
        y = np.array([L] * 80 + [R] * 80)
        clf = lda_fit(X, y)
        centered = np.vstack([Xl - Xl.mean(axis=0), Xr - Xr.mean(axis=0)])
        cov = centered.T @ centered / (len(X) - 2)
        w_ref = np.linalg.solve(cov, Xr.mean(axis=0) - Xl.mean(axis=0))
        cos = float(
            w_ref @ clf.weights / (np.linalg.norm(w_ref) * np.linalg.norm(clf.weights))
        )
        assert np.arccos(np.clip(cos, -1.0, 1.0)) <= 1e-6

    # tight clouds: at least 99% window accuracy
    for _ in range(5):
        mu = rng.standard_normal(6)
        gap = rng.standard_normal(6)
        gap /= np.linalg.norm(gap)
        Xl = mu + 0.1 * rng.standard_normal((300, 6))
        Xr = mu + gap + 0.1 * rng.standard_normal((300, 6))
        X = np.vstack([Xl, Xr])
        y = np.array([L] * 300 + [R] * 300)
        clf = lda_fit(X, y)
        assert float(np.mean(clf.predict(X) == y)) >= 0.99

    # invertible affine feature maps leave decisions unchanged
    X, y = X, y
    A = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
    shift = rng.standard_normal(6)
    mapped = lda_fit(X @ A.T + shift, y)
    s0 = clf.score(X)
    s1 = mapped.score(X @ A.T + shift)
    off = np.abs(s0) > 1e-6
    assert np.array_equal(np.sign(s0[off]), np.sign(s1[off]))

    assert time.process_time() - t0 < 10.0


def test_criterion_6_accumulator_vs_brute_force():
    t0 = time.process_time()

    def brute(preds, theta, delta):
        th, d = Fraction(str(theta)), Fraction(str(delta))
        ev = Fraction(0)
        for i, p in enumerate(preds):
            ev += d if p == R else -d
            if ev > th:
                return Outcome.Right, i + 1
            if -ev > th:
                return Outcome.Left, i + 1
        return Outcome.Timeout, len(preds)

    # the canonical exact-multiple case decides on the sixth vote
    out = accumulate([R] * 63, EvidenceConfig(0.5, 0.1))
    assert (out.decision, out.stop_index) == (Outcome.Right, 6)

    rng = np.random.default_rng(7004)
    for _ in range(10_000):
        t_i = int(rng.integers(1, 101))
        theta, delta = t_i / 100, int(rng.integers(1, t_i + 1)) / 100
        preds = rng.integers(0, 2, size=int(rng.integers(1, 41))).tolist()
        got = accumulate(preds, EvidenceConfig(theta, delta))
        assert (got.decision, got.stop_index) == brute(preds, theta, delta)

    assert time.process_time() - t0 < 5.0


class _VoteDecoder:
    """Fixed per-window votes for replaying one precut WindowSet."""

    def __init__(self, ws, votes):
        self.params = PreprocessParams()
        self._ws = ws
        self._votes = np.asarray(votes, dtype=np.int64)

    def windows(self, rec, causal=False):
        return self._ws

    def predict_windows(self, ws):
        return self._votes[: ws.n_windows]


def _vote_windows(rng, n_trials=6, n_samples=1440):
    trials = [
        Trial(
            label=ClassLabel(int(i % 2)),
            run_index=0,
            samples=np.zeros((n_samples, 2)),
            start_sample=0,
            fs=FS,
        )
        for i in range(n_trials)
    ]
    ws = window_trials(trials, 1.0, 0.0625)  # 30 windows per trial
    votes = rng.integers(0, 2, size=ws.n_windows)
    return ws, votes


def test_criterion_7_grid_winner_and_scale_invariance():
    t0 = time.process_time()
    rng = np.random.default_rng(7005)
    thresholds = [i / 10 for i in range(1, 11)]
    steps = [i / 100 for i in range(1, 11)]

    def exhaustive_best(ws, votes):
        best_key, best = None, None
        for th in thresholds:
            for d in steps:
                correct = incorrect = timeout = 0
                for t, sl in ws.trial_slices():
                    out = accumulate(votes[sl], EvidenceConfig(th, d))
                    if out.decision is Outcome.Timeout:
                        timeout += 1
                    elif out.decision.matches(ClassLabel(int(ws.labels[sl][0]))):
                        correct += 1
                    else:
                        incorrect += 1
                key = (correct, -incorrect, -timeout, -th, -d)
                if best_key is None or key > best_key:
                    best_key, best = key, (th, d)
        return best

    for _ in range(100):
        ws, votes = _vote_windows(rng)
        decoder = _VoteDecoder(ws, votes)
        result = grid_search(decoder, None, thresholds, steps)
        assert (result.best.threshold, result.best.step) == exhaustive_best(ws, votes)

    # scaling both grids by a common factor scales the winner by that factor
    half_thresholds = [i / 10 for i in range(1, 6)]
    for _ in range(20):
        ws, votes = _vote_windows(rng)
        decoder = _VoteDecoder(ws, votes)
        base = grid_search(decoder, None, half_thresholds, steps)
        doubled = grid_search(
            decoder,
            None,
            [2 * t for t in half_thresholds],
            [2 * s for s in steps],
        )
        assert doubled.best.threshold == 2 * base.best.threshold
        assert doubled.best.step == 2 * base.best.step

    assert time.process_time() - t0 < 30.0


def test_criterion_8_end_to_end_study():
    t0 = time.process_time()
    spec = SynthSpec(seed=7)
    offline = generate_session(spec, SessionKind.Offline)
    online1 = generate_session(replace(spec, seed=8, n_runs=3), SessionKind.Online1)
    online2 = generate_session(replace(spec, seed=9, n_runs=3), SessionKind.Online2)

    config = FeatureConfig(mode="psd", k=None)
    params = PreprocessParams()
    fm = raw_feature_matrix(windows_from_recording(offline.recording, params), config)

    # run-wise CV on the offline session beats 70%
    cv = cv_from_matrix(fm, config)
    assert cv.mean >= 0.70

    # the same pipeline on shuffled labels sits at chance, 45..55%
    rng = np.random.default_rng(7006)
    shuffled = FeatureMatrix(
        X=fm.X,
        labels=rng.permutation(fm.labels),
        trial_index=fm.trial_index,
        run_index=fm.run_index,
    )
    cv_null = cv_from_matrix(shuffled, config)
    assert 0.45 <= cv_null.mean <= 0.55

    # trial level: tune the accumulator on online1, replay online2
    decoder = train_decoder([offline], config, params)
    grid = grid_search(decoder, online1.recording)
    report = replay_session(decoder, online2.recording, grid.best)
    assert report.n_trials == 60
    assert report.correct_pct >= 85.0
    assert report.timeout_pct <= 10.0

    # fine-tuning with online1 does not hurt online2, averaged over 20 studies
    small = FeatureConfig(mode="psd+pca", k=24)
    diffs = []
    for seed in range(100, 120):
        s_off = generate_session(
            SynthSpec(seed=seed, n_runs=2, trials_per_run=6, feedback_s=2.0),
            SessionKind.Offline,
        )
        s_on1 = generate_session(
            SynthSpec(seed=seed + 1, n_runs=2, trials_per_run=6, feedback_s=2.0),
            SessionKind.Online1,
        )
        s_on2 = generate_session(
            SynthSpec(seed=seed + 2, n_runs=2, trials_per_run=6, feedback_s=2.0),
            SessionKind.Online2,
        )
        rep = finetune_experiment(s_off, s_on1, s_on2, small)
        diffs.append(rep.tuned_on_online2 - rep.base_on_online2)
    assert float(np.mean(diffs)) >= -0.01

    assert time.process_time() - t0 < 60.0


def test_criterion_9_reproducible_reports(tmp_path):
    study = tmp_path / "study"
    rc = main(
        [
            "generate",
            "--out", str(study),
            "--seed", "77",
            "--n-runs", "2",
            "--trials-per-run", "6",
            "--feedback-s", "2.0",
            "--online-runs", "2",
            "--report", str(tmp_path / "gen.json"),
        ]
    )
    assert rc == 0
    reports = []
    for name in ("a.json", "b.json"):
        rc = main(
            [
                "repro",
                "--study", str(study),
                "--mode", "psd+pca",
                "--pca", "24",
                "--report", str(tmp_path / name),
            ]
        )
        assert rc == 0
        reports.append((tmp_path / name).read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert doc["command"] == "repro"
    assert set(doc["samples"]) == {
        "base_on_online1",
        "base_on_online2",
        "tuned_on_online2",
    }
