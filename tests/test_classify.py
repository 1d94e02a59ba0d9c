"""Linear discriminant and centroid classifiers."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mi_decode.classify import (
    LinearClassifier,
    centroid_fit,
    fit_classifier,
    lda_fit,
)
from mi_decode.errors import DimensionMismatch, SingleClass
from mi_decode.session import ClassLabel

L = ClassLabel.Left.value
R = ClassLabel.Right.value


def _clouds(rng, n_per=200, d=4, sep=3.0, sigma=1.0):
    mu_l = rng.standard_normal(d)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    mu_r = mu_l + sep * direction
    Xl = mu_l + sigma * rng.standard_normal((n_per, d))
    Xr = mu_r + sigma * rng.standard_normal((n_per, d))
    X = np.vstack([Xl, Xr])
    y = np.array([L] * n_per + [R] * n_per)
    return X, y


def test_lda_one_dimensional_by_hand():
    # Left {0, 2}, Right {4, 6}: pooled covariance 2, mu gap 4 -> w = 2,
    # bias = -2*3 = -6, so the boundary sits at x = 3.
    X = np.array([[0.0], [2.0], [4.0], [6.0]])
    y = np.array([L, L, R, R])
    clf = lda_fit(X, y)
    assert np.isclose(clf.weights[0], 2.0, atol=1e-12)
    assert np.isclose(clf.bias, -6.0, atol=1e-12)
    assert np.isclose(clf.score([[3.0]])[0], 0.0, atol=1e-12)
    assert list(clf.predict([[2.9], [3.1]])) == [L, R]


def test_score_zero_goes_left():
    clf = LinearClassifier(kind="lda", weights=np.array([1.0]), bias=-1.0)
    assert clf.predict([[1.0]])[0] == L  # score exactly 0
    assert clf.predict([[1.0 + 1e-12]])[0] == R


def test_lda_direction_matches_closed_form():
    rng = np.random.default_rng(4301)
    for _ in range(20):
        X, y = _clouds(rng, n_per=60, d=5)
        clf = lda_fit(X, y)
        Xl, Xr = X[y == L], X[y == R]
        centered = np.vstack([Xl - Xl.mean(axis=0), Xr - Xr.mean(axis=0)])
        cov = centered.T @ centered / (len(X) - 2)
        w_ref = np.linalg.solve(cov, Xr.mean(axis=0) - Xl.mean(axis=0))
        cos = w_ref @ clf.weights / (np.linalg.norm(w_ref) * np.linalg.norm(clf.weights))
        assert cos > 1.0 - 1e-6
        assert np.allclose(clf.weights, w_ref, rtol=1e-8, atol=1e-10)


def _lda_split_reference(X, y, sv_cutoff=1e-12):
    """lda_fit as it was written with one copy per class: split, center,
    concatenate, then the SVD of the pooled covariance. Returns the weights,
    the bias and the covariance's singular values."""
    Xl, Xr = X[y == L], X[y == R]
    n = X.shape[0]
    mu_l, mu_r = Xl.mean(axis=0), Xr.mean(axis=0)
    centered = np.concatenate([Xl - mu_l, Xr - mu_r])
    cov = (centered.T @ centered) / max(n - 2, 1)
    u, s, vt = np.linalg.svd(cov, hermitian=True)
    keep = s >= sv_cutoff * s[0] if s[0] > 0 else np.zeros_like(s, dtype=bool)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    w = (vt.T * inv) @ (u.T @ (mu_r - mu_l))
    priors = np.array([len(Xl) / n, len(Xr) / n])
    bias = float(-w @ (mu_l + mu_r) / 2.0 + np.log(priors[1] / priors[0]))
    return w, bias, s


@pytest.mark.parametrize("case", ["clouds", "imbalanced", "interleaved", "ill-conditioned"])
def test_lda_bit_identical_to_split_reference(case):
    rng = np.random.default_rng(4310)
    if case == "clouds":
        X, y = _clouds(rng, n_per=60, d=5)
    elif case == "imbalanced":
        X, y = _clouds(rng, n_per=150, d=7)
        keep = np.r_[np.arange(150), np.arange(150, 300)[:23]]
        X, y = X[keep], y[keep]
    elif case == "interleaved":
        X, y = _clouds(rng, n_per=80, d=6)
        order = rng.permutation(len(y))
        X, y = X[order], y[order]
    else:
        # 30 features spanned by 8 directions plus 1e-9 noise: most
        # covariance eigenvalues fall below the 1e-12 relative cutoff
        X, y = _clouds(rng, n_per=100, d=8)
        X = X @ rng.standard_normal((8, 30)) + 1e-9 * rng.standard_normal((200, 30))
    clf = lda_fit(X, y)
    w, bias, s = _lda_split_reference(X, y)
    if case == "ill-conditioned":
        assert np.sum(s < 1e-12 * s[0]) >= 10
    assert np.array_equal(clf.weights, w)
    assert clf.bias == bias


def test_lda_fit_keeps_one_copy_of_the_rows():
    X, y = _clouds(np.random.default_rng(4311), n_per=1000, d=400)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        lda_fit(X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one centered copy plus the 400 x 400 scatter: about 1.2 x X.nbytes;
    # a copy per class on top of the centered rows reads about 3 x
    assert peak <= 1.6 * X.nbytes


def test_lda_separates_tight_clouds():
    rng = np.random.default_rng(4302)
    for _ in range(5):
        X, y = _clouds(rng, n_per=200, d=6, sep=2.0, sigma=0.1)
        clf = lda_fit(X, y)
        assert np.mean(clf.predict(X) == y) >= 0.99


def test_lda_affine_invariant_predictions():
    # An invertible feature map must not change decisions (off the boundary).
    rng = np.random.default_rng(4303)
    X, y = _clouds(rng, n_per=80, d=4, sep=2.5, sigma=0.8)
    A = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    shift = rng.standard_normal(4)
    Xt = X @ A.T + shift

    base = lda_fit(X, y)
    mapped = lda_fit(Xt, y)
    s_base = base.score(X)
    s_mapped = mapped.score(Xt)
    off = np.abs(s_base) > 1e-6
    assert np.array_equal(np.sign(s_base[off]), np.sign(s_mapped[off]))
    assert np.allclose(s_base, s_mapped, rtol=1e-6, atol=1e-8)


def test_lda_priors_shift_bias():
    rng = np.random.default_rng(4304)
    X, y = _clouds(rng, n_per=100, d=3)
    X_im = np.vstack([X[y == L][:90], X[y == R][:30]])
    y_im = np.array([L] * 90 + [R] * 30)
    clf = lda_fit(X_im, y_im)
    priors = np.array([np.mean(y_im == L), np.mean(y_im == R)])
    assert np.allclose(priors, [0.75, 0.25])

    midpoint = (X_im[y_im == L].mean(axis=0) + X_im[y_im == R].mean(axis=0)) / 2.0
    balanced_bias = float(-clf.weights @ midpoint)
    assert np.isclose(clf.bias - balanced_bias, np.log(priors[1] / priors[0]), atol=1e-12)


def test_lda_singular_covariance_uses_pseudo_inverse():
    rng = np.random.default_rng(4305)
    X2, y = _clouds(rng, n_per=50, d=2, sep=3.0, sigma=0.5)
    # embed in 4-D with two duplicated (perfectly collinear) coordinates
    X4 = np.hstack([X2, X2])
    tiny = np.vstack([X4[:2], X4[50:52]])  # 4 rows of 4 features
    with pytest.warns(UserWarning):
        lda_fit(tiny, np.array([L, L, R, R]))

    clf = lda_fit(X4, y)
    assert np.all(np.isfinite(clf.weights))
    assert np.mean(clf.predict(X4) == y) >= 0.95


def test_lda_zero_scatter_falls_back_to_priors():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([L, L, R, R, R])
    clf = lda_fit(X, y)
    assert np.all(clf.weights == 0.0)
    assert clf.bias == pytest.approx(np.log(3.0 / 2.0))
    assert clf.predict(X)[0] == R  # majority prior wins everywhere


def test_centroid_scores_are_distance_differences():
    rng = np.random.default_rng(4306)
    X, y = _clouds(rng, n_per=40, d=3)
    clf = centroid_fit(X, y)
    mu_l, mu_r = X[y == L].mean(axis=0), X[y == R].mean(axis=0)
    probe = rng.standard_normal((10, 3))
    expected = 0.5 * (
        np.sum((probe - mu_l) ** 2, axis=1) - np.sum((probe - mu_r) ** 2, axis=1)
    )
    assert np.allclose(clf.score(probe), expected, atol=1e-10)
    assert clf.kind == "centroid"


def test_fit_classifier_dispatch():
    rng = np.random.default_rng(4307)
    X, y = _clouds(rng, n_per=20, d=3)
    assert fit_classifier("lda", X, y).kind == "lda"
    assert fit_classifier("centroid", X, y).kind == "centroid"
    with pytest.raises(ValueError):
        fit_classifier("svm", X, y)


def test_single_class_rejected():
    X = np.zeros((4, 2))
    with pytest.raises(SingleClass):
        lda_fit(X, np.array([L, L, L, L]))
    with pytest.raises(SingleClass):
        centroid_fit(X, np.array([R, R, R, R]))


def test_dimension_checks():
    rng = np.random.default_rng(4308)
    X, y = _clouds(rng, n_per=20, d=3)
    with pytest.raises(DimensionMismatch):
        lda_fit(X, y[:-5])
    clf = lda_fit(X, y)
    with pytest.raises(DimensionMismatch):
        clf.score(np.zeros((2, 7)))


@pytest.mark.parametrize("fit", [lda_fit, centroid_fit])
def test_rows_without_feature_columns_rejected(fit):
    # unchecked, lda_fit reads s[0] of the empty spectrum of a 0 x 0 scatter
    with pytest.raises(DimensionMismatch, match="no feature columns"):
        fit(np.zeros((4, 0)), np.array([L, R, L, R]))


# --- PCA folded into the score ----------------------------------------------


def _exact_two_step(clf, mean, components, x):
    """(x - mean) @ components.T @ w + b in exact rational arithmetic."""
    diff = [Fraction(float(a)) - Fraction(float(m)) for a, m in zip(x, mean)]
    z = [sum(Fraction(float(p)) * c for p, c in zip(row, diff)) for row in components]
    return sum(Fraction(float(w)) * zi for w, zi in zip(clf.weights, z)) + Fraction(clf.bias)


@pytest.mark.parametrize("offset", [0.0, 1e6, None],
                         ids=["centered", "far-mean", "no-projection"])
def test_fold_bound_covers_both_paths(offset):
    # rows near a mean far from 0 make x . w_eff and b_eff cancel, so the
    # folded error grows with |x| and |mean|, not with |x - mean|
    rng = np.random.default_rng(4301 + int(offset or 0))
    k, d, n = 4, 30, 12
    if offset is None:
        # fold(): the paths are a batched product and a one-row product,
        # which sum each row in other orders; the bias puts row 0 near 0
        X = 1e3 + rng.standard_normal((n, d))
        w = rng.standard_normal(d)
        clf = LinearClassifier(kind="lda", weights=w, bias=float(-(X[0] @ w)))
        folded = clf.fold()
        s_batch, certified = folded.scores(X)
        s_rows = np.array([folded.scores(X[i : i + 1])[0][0] for i in range(n)])
        assert np.array_equal(s_batch, clf.score(X)) and np.any(s_batch != s_rows)
        bound = folded.slope * np.linalg.norm(X, axis=1) + folded.offset
        for i in range(n):
            exact = sum(Fraction(float(a)) * Fraction(float(b)) for a, b in zip(X[i], w))
            exact += Fraction(clf.bias)
            errs = (abs(Fraction(float(s)) - exact) for s in (s_batch[i], s_rows[i]))
            assert sum(errs) <= Fraction(float(bound[i]))
        assert not certified[0] and certified[1:].all()
        assert np.array_equal((s_batch > 0)[certified], (s_rows > 0)[certified])
        return
    components = np.linalg.qr(rng.standard_normal((d, k)))[0].T
    mean = offset + rng.standard_normal(d)
    X = mean + 1e-3 * rng.standard_normal((n, d))
    clf = LinearClassifier(kind="lda", weights=rng.standard_normal(k), bias=0.37)
    folded = clf.fold(mean, components)
    s_fold, certified = folded.scores(X)
    s_batch = clf.score((X - mean) @ components.T)
    s_rows = [clf.score((X[i : i + 1] - mean) @ components.T)[0] for i in range(n)]
    bound = folded.slope * np.linalg.norm(X, axis=1) + folded.offset
    a = np.abs(clf.weights) @ np.abs(components)
    centered_only = 1e-12 * (np.abs(X - mean) @ a + abs(clf.bias))
    fold_errs = []
    for i in range(n):
        exact = _exact_two_step(clf, mean, components, X[i])
        fold_errs.append(abs(Fraction(float(s_fold[i])) - exact))
        two_step_err = max(abs(Fraction(float(s)) - exact) for s in (s_batch[i], s_rows[i]))
        assert fold_errs[-1] + two_step_err <= Fraction(float(bound[i]))
    if offset:
        # a bound in |x - mean| alone, even a generous one, misses the fold's
        # cancellation error
        assert max(fold_errs) > Fraction(float(centered_only.max()))
    # a certified sign is the two-step sign
    assert np.array_equal((s_fold > 0)[certified], (s_batch > 0)[certified])


def test_fold_matches_two_step_scores():
    rng = np.random.default_rng(4302)
    X, y = _clouds(rng, d=12)
    components = np.linalg.qr(rng.standard_normal((12, 5)))[0].T
    mean = X.mean(axis=0)
    clf = lda_fit((X - mean) @ components.T, y)
    s_fold, certified = clf.fold(mean, components).scores(X)
    assert np.allclose(s_fold, clf.score((X - mean) @ components.T), rtol=0, atol=1e-12)
    assert certified.all()


def test_fold_dimension_checks():
    clf = LinearClassifier(kind="lda", weights=np.ones(3), bias=0.0)
    with pytest.raises(DimensionMismatch):
        clf.fold(np.zeros(6), np.zeros((4, 6)))
    with pytest.raises(DimensionMismatch):
        clf.fold(np.zeros(6), np.zeros((3, 6))).scores(np.zeros((2, 5)))
    with pytest.raises(DimensionMismatch, match="columns"):
        clf.fold().scores(np.zeros((2, 4)))
