"""PCA, Welch PSD features, flattening, PCA persistence."""

import json
from itertools import islice

import numpy as np
import pytest
from scipy import signal

import mi_decode.features as features
from mi_decode.dsp import (
    BandpassSpec,
    PreprocessParams,
    Trial,
    WindowSet,
    stream_windows,
    window_trials,
    windows_from_recording,
)
from mi_decode.errors import (
    BadK,
    DimensionMismatch,
    MalformedMeta,
    MissingFile,
    NonFiniteSample,
    WindowTooShort,
)
from mi_decode.evaluate import (
    FeatureConfig,
    pca_sweep,
    raw_feature_matrix,
    runwise_cv,
    train_decoder,
)
from mi_decode.features import (
    PCA_PAYLOAD_NAME,
    PcaTransform,
    WelchSpec,
    flatten_windows,
    load_pca,
    passband_bins,
    pca_fit,
    pca_fit_transform,
    pca_id,
    pca_transform,
    psd_features,
    psd_rows,
    save_pca,
    welch_psd,
)
from mi_decode.session import ClassLabel, SessionKind
from mi_decode.synth import SynthSpec, generate_session

from conftest import pca_inverse_transform

FS = 512.0


# --- PCA --------------------------------------------------------------------


def test_components_are_orthonormal():
    rng = np.random.default_rng(4201)
    for _ in range(5):
        X = rng.standard_normal((60, 12))
        t = pca_fit(X, 7)
        assert np.allclose(t.components @ t.components.T, np.eye(7), atol=1e-10)


def test_components_match_scatter_eigenvectors():
    rng = np.random.default_rng(4202)
    X = rng.standard_normal((200, 8)) * np.geomspace(8.0, 0.5, 8)
    t = pca_fit(X, 4)
    Xc = X - X.mean(axis=0)
    evals, evecs = np.linalg.eigh(Xc.T @ Xc)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    for i in range(4):
        assert abs(float(t.components[i] @ evecs[:, i])) > 1.0 - 1e-8
        assert np.isclose(
            t.explained_variance_ratio[i], evals[i] / evals.sum(), atol=1e-10
        )


def test_full_rank_fit_explains_everything():
    rng = np.random.default_rng(4203)
    X = rng.standard_normal((30, 6))
    t = pca_fit(X, 6)
    assert np.isclose(t.explained_variance_ratio.sum(), 1.0, atol=1e-12)


def test_rank_deficient_data_has_zero_tail():
    rng = np.random.default_rng(4204)
    basis = rng.standard_normal((3, 10))
    X = rng.standard_normal((40, 3)) @ basis  # rank 3 in 10 dimensions
    t = pca_fit(X, 8)
    assert np.isclose(t.explained_variance_ratio[:3].sum(), 1.0, atol=1e-10)
    assert np.all(t.explained_variance_ratio[3:] < 1e-12)

    z = pca_fit(np.zeros((4, 3)), 2)
    assert np.all(z.explained_variance_ratio == 0.0)


def test_reconstruction_error_non_increasing_in_k():
    rng = np.random.default_rng(4205)
    for _ in range(10):
        X = rng.standard_normal((25, 9)) * rng.uniform(0.5, 4.0, 9)
        errs = []
        for k in range(1, 10):
            t = pca_fit(X, k)
            Xr = pca_inverse_transform(t, pca_transform(t, X))
            errs.append(float(np.sum((X - Xr) ** 2)))
        assert all(a >= b - 1e-9 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-18  # k = d reconstructs exactly


def test_transform_round_trip_identity():
    rng = np.random.default_rng(4206)
    X = rng.standard_normal((20, 5))
    t = pca_fit(X, 3)
    Z = pca_transform(t, X)
    assert Z.shape == (20, 3)
    Z2 = pca_transform(t, pca_inverse_transform(t, Z))
    assert np.allclose(Z, Z2, atol=1e-10)


def test_sign_convention_makes_fit_deterministic():
    rng = np.random.default_rng(4207)
    X = rng.standard_normal((50, 7))
    a = pca_fit(X, 4)
    b = pca_fit(X.copy(), 4)
    assert a.components.tobytes() == b.components.tobytes()
    for row in a.components:
        assert row[np.argmax(np.abs(row))] > 0

    # negating the data flips singular vectors; the convention restores them
    c = pca_fit(-X, 4)
    assert np.allclose(a.components, c.components, atol=1e-12)


@pytest.mark.parametrize(
    "shape,k",
    [((10, 4), 0), ((10, 4), 5), ((1, 4), 1), ((10, 4), -1)],
)
def test_pca_fit_rejects_bad_k(shape, k):
    with pytest.raises(BadK):
        pca_fit(np.zeros(shape), k)


def test_pca_transform_dimension_checks():
    t = pca_fit(np.random.default_rng(4208).standard_normal((10, 4)), 2)
    with pytest.raises(DimensionMismatch):
        pca_transform(t, np.zeros((3, 5)))


_numpy_svd = np.linalg.svd  # the oracle, untouched by the svd_calls spy


def _oracle_components(X, k):
    """Top-k right singular vectors of the centered data, sign rule applied."""
    vt = _numpy_svd(X - X.mean(axis=0), full_matrices=False)[2][:k].copy()
    for row in vt:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return vt


@pytest.fixture
def svd_calls(monkeypatch):
    """Count pca_fit's full-SVD fallbacks."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return _numpy_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """Each Gram eigensolve pca_fit makes, as (library, keyword arguments):
    "numpy" for np.linalg.eigh, "scipy" for scipy.linalg.eigh."""
    calls = []
    numpy_eigh, scipy_eigh = np.linalg.eigh, features.eigh

    def numpy_spy(a, **kwargs):
        calls.append(("numpy", kwargs))
        return numpy_eigh(a, **kwargs)

    def scipy_spy(a, **kwargs):
        calls.append(("scipy", kwargs))
        return scipy_eigh(a, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", numpy_spy)
    monkeypatch.setattr(features, "eigh", scipy_spy)
    return calls


def _route(call, m, k):
    """'full' or 'subset', checking the call each route must make: numpy's
    full solve, or scipy's solve for the k leading pairs alone."""
    library, kwargs = call
    if library == "numpy":
        return "full"
    assert list(kwargs["subset_by_index"]) == [m - k, m - 1]
    return "subset"


M = features.FULL_EIGH_MAX_ORDER
# the cases below that take scipy's solve for the k leading pairs alone
SUBSET_CASES = {((M + 1, M + 40), 24), ((M + 40, M + 1), 24), ((M + 1, M + 40), (M + 1) // 4)}


# the Gram's order m is min(n, d). The full solve serves k > m / 4 or
# m <= M; the cases sit on both sides of each condition, with n <= d and
# n > d, and only large Grams with few pairs wanted take the subset solve
@pytest.mark.parametrize("shape,k", [
    ((40, 120), 10), ((300, 30), 12), ((40, 120), 11), ((40, 120), 39),
    ((300, 30), 7), ((300, 30), 8), ((120, 400), 30), ((120, 400), 31),
    ((M, M + 40), 24), ((M + 40, M), 24), ((M + 1, M + 40), 24), ((M + 40, M + 1), 24),
    ((M + 1, M + 40), (M + 1) // 4), ((M + 1, M + 40), (M + 1) // 4 + 1),
])
def test_top_k_eigen_route_matches_svd_oracle(shape, k, svd_calls, eigh_calls):
    rng = np.random.default_rng(4210)
    X = rng.standard_normal(shape) * np.geomspace(4.0, 1.0, shape[1])
    X0 = X.copy()
    t = pca_fit(X, k)
    assert svd_calls == []  # well conditioned: the eigen route is kept
    pca_transform(t, X)
    assert X.tobytes() == X0.tobytes()  # the public fit and transform copy X
    m = min(shape)
    route = "subset" if (shape, k) in SUBSET_CASES else "full"
    assert [_route(c, m, k) for c in eigh_calls] == [route]
    oracle = _oracle_components(X, k)
    assert np.abs(t.components - oracle).max() < 1e-10
    assert np.abs(t.components @ t.components.T - np.eye(k)).max() < 1e-10
    # the fit's own rows: U sqrt(lambda) when n <= d, the centered rows times
    # the components when n > d; -X flips the components, and so the rows
    _assert_projections(X + 3.0, k)
    _assert_projections(-X, k)
    assert svd_calls == []


def test_full_route_fits_never_call_scipy_eigh(small_offline, eigh_calls):
    # pca mode at k=60: above a quarter of the train Gram's order (204 rows)
    # and of each CV fold's (102), so every fit takes the full route, on
    # numpy's LAPACK alone
    config = FeatureConfig(mode="pca", k=60)
    train_decoder([small_offline], config)
    assert eigh_calls == [("numpy", {})]
    eigh_calls.clear()
    pca_sweep(small_offline, ks=(8, 60), config=config)
    assert eigh_calls == [("numpy", {})] * 2  # one fit per fold, at k=60
    eigh_calls.clear()
    # psd+pca at k=24: at most a quarter of those orders, but every Gram is
    # at most FULL_EIGH_MAX_ORDER, so the full route serves these fits too
    config = FeatureConfig(mode="psd+pca", k=24)
    train_decoder([small_offline], config)
    runwise_cv(small_offline, config)
    assert eigh_calls == [("numpy", {})] * 3  # the train fit, then one per fold


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape,k", [((40, 120), 10), ((M + 1, M + 40), 24)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pca_fit_refuses_non_finite_rows_before_any_solve(
    shape, k, bad, svd_calls, eigh_calls
):
    # one full-route and one subset-route shape: the refusal comes from the
    # column means, before the rows are centered (so with no warning) and
    # before either solve or the SVD fallback runs
    X = np.random.default_rng(4215).standard_normal(shape)
    X[shape[0] // 2, 3] = bad
    with pytest.raises(NonFiniteSample):
        pca_fit(X, k)
    with pytest.raises(NonFiniteSample):
        pca_fit_transform(X.copy(), k)
    X[shape[0] // 2 + 1, 3] = -bad  # the column's mean now sums inf - inf
    with pytest.raises(NonFiniteSample):
        pca_fit(X, k)
    assert eigh_calls == [] and svd_calls == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape,k", [((40, 120), 10), ((M + 1, M + 40), 24)])
def test_pca_fit_refuses_finite_rows_whose_squares_overflow(
    shape, k, svd_calls, eigh_calls
):
    # finite column means, but an infinite Gram trace: refused from the
    # trace, with no overflow warning, before any solve
    X = 1e160 * np.random.default_rng(4216).standard_normal(shape)
    with pytest.raises(NonFiniteSample, match="trace inf"):
        pca_fit(X, k)
    assert eigh_calls == [] and svd_calls == []


def _assert_projections(X, k):
    """pca_fit_transform's rows equal pca_transform of X to rounding."""
    Xc = X.copy()  # the fit centers its argument in place
    t, Z = pca_fit_transform(Xc, k)
    assert Xc.tobytes() == (X - t.mean).tobytes()
    R = pca_transform(t, X)
    assert Z.shape == R.shape == (X.shape[0], k) and Z.flags.c_contiguous
    assert np.abs(Z - R).max() <= 1e-10 * np.abs(Z).max()


def test_sign_rule_peak_is_the_first_largest_magnitude():
    rng = np.random.default_rng(4214)
    rows = np.vstack([
        rng.standard_normal((50, 9)),
        # ties in magnitude between a maximum and a minimum, either first;
        # repeated maxima and minima; a maximum of 0; a row of zeros
        [[0.5, -0.5, 0.1], [-0.5, 0.5, 0.0], [0.2, -0.7, 0.7], [1.0, 1.0, -1.0],
         [-2.0, -2.0, 2.0], [0.0, 3.0, 0.0], [-1.0, -3.0, -2.0], [0.0, 0.0, 0.0]]
        @ np.eye(3, 9),
    ])
    expected = rows[np.arange(len(rows)), np.abs(rows).argmax(axis=1)]
    assert features._largest_magnitudes(rows).tobytes() == expected.tobytes()


def test_rank_n_minus_1_falls_back_to_orthonormal_rows(svd_calls):
    # n < d rows center to rank n-1, so the n-th Gram eigenvalue is ~0 and
    # the mapped-back row would be zero
    rng = np.random.default_rng(4211)
    for _ in range(5):  # the ~0 eigenvalue lands on either side of 0
        X = rng.standard_normal((12, 40))
        t = pca_fit(X, 12)
        assert svd_calls.pop() == (12, 40) and not svd_calls
        assert np.abs(t.components @ t.components.T - np.eye(12)).max() < 1e-10
        assert np.abs(t.components - _oracle_components(X, 12)).max() < 1e-10
        _assert_projections(X, 12)  # U_k s_k from the SVD
        assert svd_calls.pop() == (12, 40) and not svd_calls


@pytest.mark.parametrize("shape,k", [((200, 40), 38), ((60, 80), 55)])
def test_badly_scaled_columns_fall_back_to_exact_subspace(shape, k, svd_calls):
    rng = np.random.default_rng(4212)
    X = rng.standard_normal(shape) * np.geomspace(1.0, 1e-6, shape[1])
    t = pca_fit(X, k)
    assert svd_calls == [shape]
    c = t.components
    assert np.abs(c @ c.T - np.eye(k)).max() < 1e-10
    oracle = _oracle_components(X, k)
    assert np.abs(c.T @ c - oracle.T @ oracle).max() < 1e-10  # same span


@pytest.mark.parametrize("shape", [(60, 150), (150, 40)])
def test_components_nest_across_k(shape):
    rng = np.random.default_rng(4213)
    X = rng.standard_normal(shape) * np.geomspace(3.0, 1.0, shape[1])
    big = pca_fit(X, 20)
    for k in (1, 5, 12):
        small = pca_fit(X, k)
        assert np.abs(big.components[:k] - small.components).max() < 1e-12
        assert np.allclose(
            big.explained_variance_ratio[:k], small.explained_variance_ratio,
            rtol=0, atol=1e-12,
        )


# --- Welch PSD --------------------------------------------------------------


def test_bin_count_and_spec_validation():
    assert WelchSpec().n_bins == 129
    assert WelchSpec(nperseg=128, noverlap=64).n_bins == 65
    with pytest.raises(WindowTooShort):
        WelchSpec(nperseg=128, noverlap=128)


def test_pure_tone_peaks_at_its_bin():
    # fs/nperseg = 2 Hz per bin, so a 10 Hz tone is exactly bin 5
    k = np.arange(512)
    x = np.sin(2.0 * np.pi * 10.0 * k / FS)[:, None]
    psd = welch_psd(x, WelchSpec(), FS)
    assert psd.shape == (1, 129)
    assert int(np.argmax(psd[0])) == 5
    # bin-centered tone leaks nowhere: neighbors two bins away are tiny
    assert psd[0, 3] < 1e-6 * psd[0, 5]
    assert psd[0, 7] < 1e-6 * psd[0, 5]


def test_matches_scipy_welch():
    rng = np.random.default_rng(4210)
    x = rng.standard_normal((512, 3))
    for spec in (WelchSpec(), WelchSpec(nperseg=128, noverlap=64), WelchSpec(nperseg=255, noverlap=128)):
        ours = welch_psd(x, spec, FS)
        _, ref = signal.welch(
            x,
            fs=FS,
            window="hann",
            nperseg=spec.nperseg,
            noverlap=spec.noverlap,
            detrend=False,
            axis=0,
        )
        assert np.allclose(ours, ref.T, rtol=1e-10, atol=1e-14)


def test_single_segment_parseval_identity():
    # With one untapered-length segment, sum(psd) * df equals the
    # Hann-weighted mean square of the input exactly.
    rng = np.random.default_rng(4211)
    x = rng.standard_normal((256, 2))
    spec = WelchSpec(nperseg=256, noverlap=0)
    psd = welch_psd(x, spec, FS)
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(256) / 256)
    for ch in range(2):
        expected = float(np.sum(w**2 * x[:, ch] ** 2) / np.sum(w**2))
        got = float(np.sum(psd[ch]) * FS / 256.0)
        assert np.isclose(got, expected, rtol=1e-12)


def test_white_noise_density_level():
    rng = np.random.default_rng(4212)
    sigma = 1.5
    acc = np.zeros(129)
    n_avg = 200
    for _ in range(n_avg):
        x = sigma * rng.standard_normal((512, 1))
        acc += welch_psd(x, WelchSpec(), FS)[0]
    acc /= n_avg
    # flat two-sided level sigma^2/fs; one-sided doubling on all but DC and
    # Nyquist makes the mean over the 129 bins (2*127+2)/129 * sigma^2/fs
    expected = (256.0 / 129.0) * sigma**2 / FS
    assert np.isclose(np.mean(acc), expected, rtol=0.03)


def test_welch_channels_independent():
    rng = np.random.default_rng(4213)
    x = rng.standard_normal((512, 4))
    whole = welch_psd(x, WelchSpec(), FS)
    for ch in range(4):
        alone = welch_psd(x[:, ch : ch + 1], WelchSpec(), FS)
        assert np.allclose(whole[ch], alone[0], atol=1e-15)


def test_window_shorter_than_segment():
    with pytest.raises(WindowTooShort):
        welch_psd(np.zeros((100, 2)), WelchSpec(), FS)
    with pytest.raises(WindowTooShort):
        welch_psd(np.zeros(512), WelchSpec(), FS)  # 1-D input


# --- feature matrices -------------------------------------------------------


def _window_set(n_samples=2496, n_ch=3, seed=4214, label=ClassLabel.Left, step_s=0.0625):
    rng = np.random.default_rng(seed)
    trial = Trial(
        label=label,
        run_index=1,
        samples=rng.standard_normal((n_samples, n_ch)),
        start_sample=0,
        fs=FS,
    )
    return window_trials([trial], 1.0, step_s)


def test_flatten_windows_carries_provenance():
    ws = _window_set()
    fm = flatten_windows(ws)
    assert np.array_equal(fm.X, ws.flattened())
    assert fm.n_features == 512 * 3
    assert np.array_equal(fm.labels, ws.labels)
    assert np.array_equal(fm.trial_index, ws.trial_index)
    assert np.array_equal(fm.run_index, ws.run_index)


def test_psd_features_per_channel_layout():
    ws = _window_set(n_ch=3)
    fm = psd_features(ws)
    assert fm.X.shape == (63, 3 * 129)
    cut = psd_features(ws, bins=52)  # the bins the default band-pass passes
    assert cut.X.shape == (63, 3 * 52)
    for i in (0, 31, 62):
        direct = welch_psd(ws.windows[i], WelchSpec(), FS)
        for ch in range(3):
            assert np.array_equal(fm.X[i, ch * 129 : (ch + 1) * 129], direct[ch])
            assert np.array_equal(cut.X[i, ch * 52 : (ch + 1) * 52], direct[ch, :52])


def test_passband_bins():
    spec = WelchSpec()
    # 2 Hz bins: the 102 Hz bin passes 0.0508 of the causal band-pass, the
    # 104 Hz bin 0.0482
    assert passband_bins(BandpassSpec(4.0, 30.0, 4, FS), spec) == 52
    assert passband_bins(BandpassSpec(4.0, 40.0, 4, FS), spec) > 52
    assert passband_bins(BandpassSpec(4.0, 30.0, 8, FS), spec) < 52
    # the digital filter and the bins depend on frequency only relative to
    # fs, so doubling fs and the band keeps the cut; doubling fs alone
    # keeps 29 bins of 4 Hz (0-112 Hz), the bilinear map squeezing the
    # response less at the higher rate
    assert passband_bins(BandpassSpec(8.0, 60.0, 4, 2 * FS), spec) == 52
    assert passband_bins(BandpassSpec(4.0, 30.0, 4, 2 * FS), spec) == 29
    # a band up to 250 Hz keeps every bin but Nyquist, where each section
    # of the band-pass has a zero
    assert passband_bins(BandpassSpec(4.0, 250.0, 2, FS), spec) == spec.n_bins - 1


def test_psd_features_chunking_is_seamless():
    # more than 512 windows forces at least two internal chunks
    ws = _window_set(n_samples=512 + 32 * 520, n_ch=2)
    assert ws.n_windows == 521
    fm = psd_features(ws)
    for i in (0, 511, 512, 520):
        direct = welch_psd(ws.windows[i], WelchSpec(), FS)
        assert np.array_equal(fm.X[i], direct.reshape(-1))


def _per_window_welch(window, spec, fs):
    """One window's Welch PSD with every segment stacked and transformed on
    its own: the per-window estimate psd_features must equal bit for bit."""
    step = spec.nperseg - spec.noverlap
    n_seg = 1 + (window.shape[0] - spec.nperseg) // step
    segs = np.stack([window[i * step : i * step + spec.nperseg] for i in range(n_seg)])
    taper = (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(spec.nperseg) / spec.nperseg))[:, None]
    spectrum = np.fft.rfft(segs * taper, axis=-2)
    scale = 1.0 / (fs * float(np.sum(taper[:, 0] ** 2)))
    psd = (spectrum.real**2 + spectrum.imag**2) * scale
    psd[..., 1:-1, :] *= 2.0
    if spec.nperseg % 2:
        psd[..., -1, :] *= 2.0
    return psd.mean(axis=-3).swapaxes(-1, -2)  # (n_channels, n_bins)


def _assert_matches_per_window(ws, spec):
    X = psd_features(ws, spec).X
    assert X.shape[0] == ws.n_windows
    for i, window in enumerate(ws.windows):
        assert np.array_equal(X[i], _per_window_welch(window, spec, FS).reshape(-1)), (
            f"window {i}")


@pytest.fixture(scope="module")
def session_windows():
    # 10 trials of 63 windows: the first 8 share one 512-window chunk and
    # the last 2 fill the next
    session = generate_session(
        SynthSpec(seed=4220, n_runs=1, trials_per_run=10), SessionKind.Offline
    )
    return windows_from_recording(session.recording, PreprocessParams())


@pytest.mark.parametrize(
    "spec",
    [
        WelchSpec(),
        WelchSpec(nperseg=200, noverlap=50),  # hop 150 is no multiple of 32
        WelchSpec(nperseg=255, noverlap=100),  # odd nperseg, no Nyquist bin
        WelchSpec(nperseg=64, noverlap=32),  # 15 segments per window
    ],
    ids=["default", "hop150", "odd", "15seg"],
)
def test_psd_features_bit_identical_on_session(session_windows, spec):
    assert session_windows.n_windows == 630
    assert len(session_windows.trial_slices()) == 10
    _assert_matches_per_window(session_windows, spec)


def test_psd_features_bit_identical_on_one_window():
    ws = _window_set(n_ch=13)
    one = WindowSet(
        signal=ws.signal, starts=ws.starts[7:8], labels=ws.labels[7:8],
        trial_index=ws.trial_index[7:8], run_index=ws.run_index[7:8], fs=FS,
        win_len=ws.win_len, win_step=ws.win_step,
    )
    for spec in (WelchSpec(), WelchSpec(nperseg=255, noverlap=100)):
        _assert_matches_per_window(one, spec)
        assert np.array_equal(
            welch_psd(one.windows[0], spec, FS), _per_window_welch(one.windows[0], spec, FS)
        )


def test_psd_features_never_share_segments_across_trials():
    # equal lengths put the same in-trial offsets in both trials; only the
    # samples differ, so a segment keyed by offset alone would be reused
    rng = np.random.default_rng(4221)
    trials = [
        Trial(label=label, run_index=1, samples=rng.standard_normal((1024, 3)),
              start_sample=0, fs=FS)
        for label in (ClassLabel.Left, ClassLabel.Right)
    ]
    ws = window_trials(trials, 1.0, 0.0625)
    assert [sl for _, sl in ws.trial_slices()] == [slice(0, 17), slice(17, 34)]
    _assert_matches_per_window(ws, WelchSpec())
    _assert_matches_per_window(ws, WelchSpec(nperseg=200, noverlap=50))


def _starts_window_set(signal, starts):
    n = len(starts)
    return WindowSet(
        signal=signal, starts=np.asarray(starts), labels=np.zeros(n, dtype=np.int64),
        trial_index=np.zeros(n, dtype=np.int64), run_index=np.zeros(n, dtype=np.int64),
        fs=FS, win_len=512, win_step=32,
    )


def _two_trial_signal():
    rng = np.random.default_rng(4222)
    trials = [
        Trial(label=label, run_index=1, samples=rng.standard_normal((1024, 3)),
              start_sample=0, fs=FS)
        for label in (ClassLabel.Left, ClassLabel.Right)
    ]
    return window_trials(trials, 1.0, 0.0625).signal


@pytest.mark.parametrize(
    "starts",
    [
        [0, 5, 37, 200, 201, 333, 1000, 1536],  # irregularly spaced
        [64, 64, 0, 64, 320, 0, 1536, 1536],  # repeated, out of order
        [3, 131, 259, 77, 1001],  # no multiple of any hop
        # windows that straddle the trial boundary at sample 1024 share
        # segments by absolute start with in-trial windows on either side
        [400, 512, 600, 768, 800, 1024, 1056, 1280],
    ],
    ids=["irregular", "repeated", "off-hop", "cross-trial"],
)
@pytest.mark.parametrize(
    "spec",
    [WelchSpec(), WelchSpec(nperseg=200, noverlap=50), WelchSpec(nperseg=255, noverlap=100),
     WelchSpec(nperseg=64, noverlap=32)],
    ids=["default", "hop150", "odd", "15seg"],
)
def test_psd_features_bit_identical_for_any_starts(starts, spec):
    ws = _starts_window_set(_two_trial_signal(), starts)
    _assert_matches_per_window(ws, spec)


def test_psd_features_bit_identical_for_random_starts_across_chunks():
    starts = np.random.default_rng(4223).integers(0, 2048 - 512 + 1, 530)
    _assert_matches_per_window(_starts_window_set(_two_trial_signal(), starts), WelchSpec())


@pytest.fixture
def rfft_segments(monkeypatch):
    """Count the segments features transforms (time axis -2, channels last)."""
    counts = []
    rfft = np.fft.rfft

    def spy(a, *args, **kwargs):
        counts.append(a.size // (a.shape[-2] * a.shape[-1]))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    return counts


def test_each_distinct_segment_is_transformed_once(rfft_segments):
    ws = _window_set(n_ch=3)
    assert ws.n_windows == 63
    psd_features(ws)
    # windows step by 32 samples and segments by 128: 63 + 2*4 distinct
    # segment starts instead of 63 windows x 3 segments
    assert sum(rfft_segments) == 71


@pytest.fixture(scope="module")
def streamed_recording():
    return generate_session(
        SynthSpec(seed=4224, n_runs=1, trials_per_run=4), SessionKind.Online1
    ).recording


@pytest.mark.parametrize(
    "spec",
    [WelchSpec(), WelchSpec(nperseg=200, noverlap=50), WelchSpec(nperseg=255, noverlap=100),
     WelchSpec(nperseg=64, noverlap=32)],
    ids=["default", "hop150", "odd", "15seg"],
)
def test_streamed_rows_equal_psd_features_rows(streamed_recording, spec):
    params = PreprocessParams()
    # every bin, and the bins the band-pass passes
    for bins in (None, passband_bins(params.band_spec(streamed_recording.fs), spec)):
        batch = psd_features(windows_from_recording(streamed_recording, params, causal=True),
                             spec, bins=bins).X
        streamed = [row for ws in stream_windows(streamed_recording, params)
                    for row in psd_rows(ws, spec, bins)]
        assert all(row.shape == (1, batch.shape[1]) for row in streamed)
        assert np.array_equal(np.vstack(streamed), batch)


@pytest.mark.parametrize(
    "step_s, transformed, whole_trial",
    [
        # segments start at 32*w + 128*s: windows 1-4 bring 3 new ones each
        # and every later window 1, where transforming every window's own
        # segments would take 3 per window
        (0.0625, lambda k: min(3 * k, k + 8), 71),
        (0.25, lambda k: 3 + (k - 1), 18),  # window step = segment hop
    ],
    ids=["default-step", "step-equals-hop"],
)
def test_streamed_window_transforms_only_its_new_segments(rfft_segments, step_s, transformed,
                                                          whole_trial):
    ws = _window_set(n_ch=3, step_s=step_s)
    for k in range(1, ws.n_windows + 1):  # a trial decided at window k
        rfft_segments.clear()
        list(islice(psd_rows(ws, WelchSpec()), k))
        assert sum(rfft_segments) == transformed(k), f"decided at window {k}"
    rfft_segments.clear()
    list(psd_rows(ws, WelchSpec()))  # a trial that times out
    assert sum(rfft_segments) == whole_trial


def test_standard_full_size_feature_count():
    ws = _window_set(n_ch=13)
    assert flatten_windows(ws).n_features == 6656
    assert psd_features(ws).n_features == 1677  # all 129 bins per channel
    # the pipeline keeps the 52 bins the default band-pass passes
    psd = FeatureConfig(mode="psd", k=None)
    assert raw_feature_matrix(ws, psd, PreprocessParams()).n_features == 676


# --- persistence ------------------------------------------------------------


def test_pca_round_trip_and_id(tmp_path):
    rng = np.random.default_rng(4215)
    t = pca_fit(rng.standard_normal((40, 12)), 5)
    save_pca(t, tmp_path)
    back = load_pca(tmp_path)
    assert back.k == 5 and back.d == 12
    assert np.array_equal(back.mean, t.mean)  # JSON floats round-trip exactly
    assert np.array_equal(
        back.components, t.components.astype(np.float32).astype(np.float64)
    )
    assert np.array_equal(back.explained_variance_ratio, t.explained_variance_ratio)
    # the content hash is computed over float32 bytes, so it survives the trip
    assert pca_id(back) == pca_id(t)


def test_pca_id_distinguishes_fits():
    rng = np.random.default_rng(4216)
    a = pca_fit(rng.standard_normal((30, 6)), 3)
    b = pca_fit(rng.standard_normal((30, 6)), 3)
    assert pca_id(a) != pca_id(b)
    assert len(pca_id(a)) == 64


def test_pca_load_errors(tmp_path):
    with pytest.raises(MissingFile):
        load_pca(tmp_path / "absent")
    t = pca_fit(np.random.default_rng(4217).standard_normal((10, 4)), 2)
    save_pca(t, tmp_path)
    payload = tmp_path / PCA_PAYLOAD_NAME
    payload.write_bytes(payload.read_bytes()[:-4])
    with pytest.raises(DimensionMismatch):
        load_pca(tmp_path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.pop("mean"),
        lambda doc: doc.update(k="two"),
        lambda doc: doc.update(mean=[0.0]),
        lambda doc: doc.update(explained_variance_ratio=None),
    ],
)
def test_pca_load_malformed_meta(tmp_path, edit):
    save_pca(pca_fit(np.random.default_rng(4218).standard_normal((10, 4)), 2), tmp_path)
    meta = tmp_path / "pca.json"
    doc = json.loads(meta.read_text(encoding="utf-8"))
    edit(doc)
    meta.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedMeta):
        load_pca(tmp_path)


def test_pca_load_truncated_meta(tmp_path):
    save_pca(pca_fit(np.random.default_rng(4219).standard_normal((10, 4)), 2), tmp_path)
    meta = tmp_path / "pca.json"
    meta.write_text(meta.read_text(encoding="utf-8")[:40], encoding="utf-8")
    with pytest.raises(MalformedMeta):
        load_pca(tmp_path)
