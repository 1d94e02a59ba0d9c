"""Two-class linear classifiers behind one pluggable surface.

The main model is linear discriminant analysis solved through an SVD
whitening of the pooled within-class scatter (no covariance inversion);
singular values below a relative cutoff are dropped, which gives
pseudo-inverse behaviour on degenerate directions. A nearest-centroid
model ships as the sanity baseline.

Every model scores x as ``weights . x + bias`` and predicts Right exactly
when the score is strictly positive; a score of 0 ties to Left.

A model fitted on PCA projections ``z = (x - mean) @ components.T`` is
linear in the raw row x too, so ``LinearClassifier.fold`` turns it into one
raw-row score ``x . w_eff + b_eff`` with ``w_eff = components.T @ weights``
and ``b_eff = bias - mean . w_eff``: one d-term dot per row instead of a
(d x k) projection. The folded score rounds differently from the two-step
one, so ``FoldedScore.scores`` also says, row by row, whether its sign is
certain to be the sign of the two-step score: it is when |score| exceeds a
bound on the rounding error of both paths, built from Higham's gamma_n
dot-product bound (*Accuracy and Stability of Numerical Algorithms*, 2nd
ed., 2002, §3.1). That bound holds for the terms summed in any order, so
the certificate does not depend on how a path groups its sums: a score
summed block by block from a window's samples is covered like one d-term
dot. The decoder rescores every other row on the two-step path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import store
from .errors import DimensionMismatch, MalformedMeta, SingleClass
from .session import ClassLabel

SV_CUTOFF = 1e-12  # relative singular-value cutoff for the scatter pseudo-inverse
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): an n-term dot product, summed in
    any order, is off by at most gamma_n |x| . |y| (barring underflow)."""
    nu = n * UNIT_ROUNDOFF
    return nu / (1.0 - nu)


@dataclass(frozen=True)
class FoldedScore:
    """A classifier on PCA projections, folded into one score on raw rows.

    ``bound(x) = slope * ||x||_2 + offset`` covers |folded - exact| +
    |two-step - exact| for every raw row x, whatever order either path sums
    its terms in, so a folded score beyond it has the two-step sign.
    """

    weights: np.ndarray  # (d,) w_eff = components.T @ w
    bias: float  # b_eff = b - mean . w_eff
    slope: float
    offset: float

    def scores(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Folded scores of the rows of X, and whether each sign is certified."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.weights.shape[0]:
            raise DimensionMismatch(
                f"X has {X.shape[-1]} columns, model expects {self.weights.shape[0]}"
            )
        # one d-term dot per row: the squared norms without an n x d temporary
        return self._from_dots(X @ self.weights, (X[:, None, :] @ X[:, :, None]).reshape(-1))

    def _from_dots(self, dots: np.ndarray, sq_norms: np.ndarray):
        """``scores`` of raw rows given as their dots with ``weights`` and
        their squared norms, each summed in any order."""
        s = dots + self.bias
        return s, np.abs(s) > self.slope * np.sqrt(sq_norms) + self.offset


@dataclass(frozen=True)
class LinearClassifier:
    kind: str  # "lda" or "centroid"
    weights: np.ndarray  # (k,)
    bias: float
    class_means: np.ndarray  # (2, k), row order Left, Right
    priors: np.ndarray  # (2,)

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def score(self, X: np.ndarray) -> np.ndarray:
        """Signed decision scores; positive means Right."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.n_features:
            raise DimensionMismatch(
                f"X has {X.shape[-1]} features, model expects {self.n_features}"
            )
        return X @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels as ClassLabel values (0=Left, 1=Right)."""
        return (self.score(X) > 0).astype(np.int64)

    def fold(self, mean: np.ndarray, components: np.ndarray) -> FoldedScore:
        """This model on ``(x - mean) @ components.T``, as one raw-row score.

        With a = |components|.T @ |w| and k, d the shape of components, the
        two-step path (x - mean, the k-term projection, the k-term score
        plus bias) is off the exact score by at most
        (gamma_{d+1} + gamma_{k+1} (1 + gamma_{d+1})) |x - mean| . a
        + gamma_{k+1} |b|. The folded path (w_eff from k-term dots, b_eff
        from a (d+1)-term sum, the score from another) is off by at most
        gamma_k |x - mean| . a
        + gamma_{d+1} (|x| . |w_eff| + |mean| . |w_eff| + |b_eff| + |b|).
        Cauchy-Schwarz bounds |x - mean| . a by ||x|| ||a|| + |mean| . a and
        |x| . |w_eff| by ||x|| ||w_eff||, so the sum is linear in ||x||.
        Every gamma_n term holds for its n terms summed in any order, so the
        bound does not depend on summation order: a score summed in blocks
        and a score summed as one dot are both covered.
        Each quantity in the bound is itself computed with a relative error
        far below 1e-9, which doubling the bound covers.
        """
        k, d = components.shape
        if k != self.n_features:
            raise DimensionMismatch(
                f"components have {k} rows, model expects {self.n_features}"
            )
        w_eff = self.weights @ components
        b_eff = float(self.bias - mean @ w_eff)
        a = np.abs(self.weights) @ np.abs(components)
        abs_mean = np.abs(mean)
        g_d, g_k = _gamma(d + 1), _gamma(k + 1)
        c_a = _gamma(k) + g_d + g_k * (1.0 + g_d)
        slope = c_a * np.linalg.norm(a) + g_d * np.linalg.norm(w_eff)
        offset = (
            c_a * float(abs_mean @ a)
            + g_d * (float(abs_mean @ np.abs(w_eff)) + abs(b_eff))
            + (g_d + g_k) * abs(self.bias)
        )
        return FoldedScore(
            weights=w_eff, bias=b_eff, slope=2.0 * slope, offset=2.0 * offset
        )


def _class_rows(X: np.ndarray, y: np.ndarray):
    """X as float64, and the row numbers of its Left and Right windows."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).reshape(-1)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"X {X.shape} does not match y {y.shape}")
    left = np.flatnonzero(y == ClassLabel.Left.value)
    right = np.flatnonzero(y == ClassLabel.Right.value)
    if len(left) == 0 or len(right) == 0:
        raise SingleClass("training data must contain both classes")
    return X, left, right


def lda_fit(X: np.ndarray, y: np.ndarray, sv_cutoff: float = SV_CUTOFF) -> LinearClassifier:
    """Fit the shared-covariance linear discriminant.

    weights = pinv(pooled covariance) @ (mu_R - mu_L), with the
    pseudo-inverse taken through the SVD of the pooled scatter and a
    relative cutoff of sv_cutoff on its singular values. The bias places
    the boundary at equal posterior under empirical class priors. If the
    scatter is zero everywhere the weights vanish and prediction falls
    back to the prior side.
    """
    X, left, right = _class_rows(X, y)
    n, k = X.shape
    if n <= k:
        warnings.warn(
            f"LDA with {n} rows for {k} features; scatter is rank-deficient",
            stacklevel=2,
        )
    # one copy of the rows, Left block then Right, centered in place on
    # each block's own mean and freed before the SVD
    n_l = len(left)
    centered = X[np.concatenate([left, right])]
    mu_l = centered[:n_l].mean(axis=0)
    mu_r = centered[n_l:].mean(axis=0)
    centered[:n_l] -= mu_l
    centered[n_l:] -= mu_r
    cov = centered.T @ centered
    del centered
    cov /= max(n - 2, 1)

    u, s, vt = np.linalg.svd(cov, hermitian=True)
    keep = s >= sv_cutoff * s[0] if s[0] > 0 else np.zeros_like(s, dtype=bool)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    w = (vt.T * inv) @ (u.T @ (mu_r - mu_l))

    priors = np.array([n_l / n, len(right) / n])
    bias = float(-w @ (mu_l + mu_r) / 2.0 + np.log(priors[1] / priors[0]))
    return LinearClassifier(
        kind="lda",
        weights=w,
        bias=bias,
        class_means=np.stack([mu_l, mu_r]),
        priors=priors,
    )


def centroid_fit(X: np.ndarray, y: np.ndarray) -> LinearClassifier:
    """Nearest class mean under Euclidean distance.

    score(x) = (|x - mu_L|^2 - |x - mu_R|^2) / 2, which is linear:
    (mu_R - mu_L) . x + (|mu_L|^2 - |mu_R|^2) / 2.
    """
    X, left, right = _class_rows(X, y)
    mu_l = X[left].mean(axis=0)
    mu_r = X[right].mean(axis=0)
    w = mu_r - mu_l
    bias = float(mu_l @ mu_l - mu_r @ mu_r) / 2.0
    priors = np.array([len(left) / len(X), len(right) / len(X)])
    return LinearClassifier(
        kind="centroid",
        weights=w,
        bias=bias,
        class_means=np.stack([mu_l, mu_r]),
        priors=priors,
    )


FIT_FUNCTIONS = {"lda": lda_fit, "centroid": centroid_fit}


def fit_classifier(kind: str, X: np.ndarray, y: np.ndarray) -> LinearClassifier:
    if kind not in FIT_FUNCTIONS:
        raise ValueError(f"unknown classifier kind {kind!r}; have {sorted(FIT_FUNCTIONS)}")
    return FIT_FUNCTIONS[kind](X, y)


MODEL_NAME = "lda.json"


def save_classifier(clf: LinearClassifier, path, pca_id: str | None) -> None:
    """Write lda.json; pca_id records the feature transform this model is paired with."""
    path = store.make_dir(path)
    store.write_json(path / MODEL_NAME, {
        "kind": clf.kind,
        "k": clf.n_features,
        "weights": [float(v) for v in clf.weights],
        "bias": clf.bias,
        "class_means": [[float(v) for v in row] for row in clf.class_means],
        "priors": [float(v) for v in clf.priors],
        "pca_id": pca_id,
    })


MODEL_FIELDS = {"kind": "", "k": 0, "weights": [0.0], "bias": 0.0, "class_means": [[0.0]],
                "priors": [0.0]}


def load_classifier(path) -> tuple[LinearClassifier, str | None]:
    model_path = Path(path) / MODEL_NAME
    doc = store.read_json(model_path)
    f = store.read_fields(doc, MODEL_FIELDS, model_path)
    pid = doc.get("pca_id")  # null for a mode without PCA
    if pid is not None:
        store.json_setting(pid, "", f"{model_path} 'pca_id'")
    k = f["k"]
    sizes = (len(f["weights"]), [len(row) for row in f["class_means"]], len(f["priors"]))
    if sizes != (k, [k, k], 2):
        raise MalformedMeta(
            f"{model_path}: weights, class_means and priors of sizes {sizes} for k={k}"
        )
    clf = LinearClassifier(
        kind=f["kind"],
        weights=np.array(f["weights"], dtype=np.float64),
        bias=f["bias"],
        class_means=np.array(f["class_means"], dtype=np.float64),
        priors=np.array(f["priors"], dtype=np.float64),
    )
    return clf, pid
