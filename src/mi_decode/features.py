"""Dimensionality reduction: PCA with explained-variance reporting, and
Welch power-spectral-density features.

PCA eigendecomposes the smaller Gram matrix of the centered data
(Xc Xc^T or Xc^T Xc) for only the k leading pairs, and falls back to the
full SVD of the centered data when squaring would lose the trailing
components; a fixed sign convention makes refits bit-identical.
The Welch estimator uses Hann-tapered, 50%-overlapping modified
periodograms with one-sided density scaling; nperseg=256 at fs=512 gives
the 129 bins the rest of the pipeline expects. Overlapping windows share
segments: psd_features cuts every segment straight from the window set's
signal, computes the periodogram of each distinct segment start once and
averages every window's own segments in the same order as welch_psd;
each feature row equals welch_psd of its window bit for bit. Linear
scores of flattened windows are summed the same way, from time blocks of
the signal that overlapping windows share, without flattening them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import eigh

from . import store
from .errors import BadK, DimensionMismatch, MalformedMeta, WindowTooShort
from .dsp import WindowSet


@dataclass(frozen=True)
class PcaTransform:
    mean: np.ndarray  # (d,)
    components: np.ndarray  # (k, d), orthonormal rows
    explained_variance_ratio: np.ndarray  # (k,)
    k: int

    @property
    def d(self) -> int:
        return self.components.shape[1]


# Acceptance rule for the Gram eigenpairs (see pca_fit): squaring the data
# halves the precision of its small singular values, and a centered n-row
# matrix has rank n-1 at most, so a near-zero lambda_k gives garbage rows.
ORTHO_TOL = 1e-10
MIN_EIG_RATIO = 1e-6


def _top_k_eigen(Xc: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, float] | None:
    """(components, eigenvalues, trace) from the top-k pairs of the smaller
    Gram matrix, or None when they fail the acceptance rule above."""
    n, d = Xc.shape
    gram = Xc @ Xc.T if n <= d else Xc.T @ Xc
    m = gram.shape[0]
    total = float(np.trace(gram))
    # gram is symmetric, so its transpose is the same matrix in Fortran
    # order, which LAPACK overwrites in place instead of copying
    lam, vec = eigh(gram.T, subset_by_index=[m - k, m - 1], overwrite_a=True)
    # free the m x m buffer before the k x d components are allocated: held
    # to the end of the call it fragments the heap, and a repeated psd+pca
    # train/CV/eval loop peaked about 30 MB higher
    del gram
    lam, vec = lam[::-1], vec[:, ::-1]
    if not lam[0] > 0 or lam[-1] < MIN_EIG_RATIO * lam[0]:
        return None
    components = (vec.T @ Xc) / np.sqrt(lam)[:, None] if n <= d else vec.T.copy()
    err = np.abs(components @ components.T - np.eye(k)).max()
    if not err <= ORTHO_TOL:
        return None
    return components, lam, total


def pca_fit(X: np.ndarray, k: int) -> PcaTransform:
    """Fit a k-component PCA to the rows of X.

    Components are the top-k right singular vectors of the centered data;
    each component's largest-magnitude entry is made positive so the fit is
    deterministic. explained_variance_ratio[i] is sigma_i^2 / sum(sigma^2).
    Asking for k beyond the numeric rank is allowed; trailing ratios are 0.

    Only the k leading eigenpairs of the smaller Gram matrix of the centered
    data Xc are computed: Xc Xc^T when n <= d, mapped back as
    V = U^T Xc / sigma, else Xc^T Xc.
    They are kept when the rows come out orthonormal to 1e-10 and
    lambda_k >= 1e-6 * lambda_1; otherwise (rank-deficient or badly
    conditioned data, including any k = n <= d) the fit is the full SVD of
    Xc, which is exact for every component.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise BadK(f"need a 2-D matrix with >= 2 rows, got shape {X.shape}")
    n, d = X.shape
    if not 1 <= k <= min(n, d):
        raise BadK(f"k={k} outside [1, {min(n, d)}]")

    mean = X.mean(axis=0)
    Xc = X - mean
    fast = _top_k_eigen(Xc, k)
    if fast is not None:
        components, lam, total = fast
    else:
        _, s, vt = np.linalg.svd(Xc, full_matrices=False)
        components, lam, total = vt[:k].copy(), s[:k] ** 2, float(np.sum(s**2))
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    ratios = lam / total if total > 0 else np.zeros(k)
    return PcaTransform(
        mean=mean, components=components, explained_variance_ratio=ratios, k=k
    )


def pca_transform(t: PcaTransform, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != t.d:
        raise DimensionMismatch(f"X has {X.shape[-1]} columns, transform expects {t.d}")
    return (X - t.mean) @ t.components.T


@dataclass(frozen=True)
class WelchSpec:
    nperseg: int = 256
    noverlap: int = 128
    taper: str = "hann"  # periodic Hann; the only taper implemented

    def __post_init__(self):
        if not 0 <= self.noverlap < self.nperseg:
            raise WindowTooShort(
                f"need 0 <= noverlap < nperseg, got {self.noverlap}/{self.nperseg}"
            )
        if self.taper != "hann":
            raise ValueError(f"unsupported taper {self.taper!r}")

    @property
    def n_bins(self) -> int:
        return self.nperseg // 2 + 1


def _hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@functools.lru_cache(maxsize=8)
def _taper(nperseg: int, n_channels: int) -> tuple[np.ndarray, float]:
    """The Hann taper tiled over channels, and its sum of squares."""
    taper = _hann(nperseg)[:, None]
    tiled = np.repeat(taper, n_channels, axis=1)  # one flat multiply per segment
    tiled.flags.writeable = False  # cached and shared between calls
    return tiled, float(np.sum(taper[:, 0] ** 2))


CHUNK_WINDOWS = 512  # bounds the segment, spectrum and block-score working set


@functools.lru_cache(maxsize=32)
def _segment_plan(
    rel_starts: bytes, hop: int, n_seg: int
) -> tuple[np.ndarray, np.ndarray]:
    """Which distinct Welch segments (or scoring blocks) a chunk of windows
    holds.

    rel_starts is the chunk's int64 window starts, taken relative to its
    first window's start; window w uses the segments that start
    rel_starts[w] + s*hop, for s < n_seg. Returns the sorted distinct
    segment starts (relative, like rel_starts) and the (windows, n_seg)
    index of every window's segments into them. Cached because a streamed
    window asks for the same one-window plan every time, and eval, grid
    and replay of one recording ask for the same batch plans.
    """
    rel = np.frombuffer(rel_starts, dtype=np.int64)
    seg_starts = rel[:, None] + hop * np.arange(n_seg)
    offsets, inverse = np.unique(seg_starts.ravel(), return_inverse=True)
    plan = (offsets, inverse.reshape(-1, n_seg))
    for a in plan:
        a.flags.writeable = False
    return plan


def _welch(signal: np.ndarray, starts: np.ndarray, win_len: int, spec: WelchSpec,
           fs: float):
    """Welch PSDs of the windows signal[starts[i] : starts[i] + win_len].

    signal is a C-ordered (n_samples, n_channels) float64 array. Segments
    are cut straight from it, and two windows share a segment exactly when
    it starts at the same sample of the signal, so it is the same samples
    for both, whatever the starts. Each distinct segment of a chunk of
    CHUNK_WINDOWS windows is tapered and transformed once; each window then
    takes the mean of its own n_seg periodograms, the same reduction as a
    one-window estimate, so the result is bit-identical to it. Yields
    (windows, n_channels, n_bins) blocks in row order, one-sided density
    scaling.
    """
    if win_len < spec.nperseg:
        raise WindowTooShort(f"{win_len} samples < nperseg={spec.nperseg}")
    n_samples, n_channels = signal.shape
    hop = spec.nperseg - spec.noverlap
    n_seg = 1 + (win_len - spec.nperseg) // hop
    taper, sum_sq = _taper(spec.nperseg, n_channels)
    scale = 1.0 / (fs * sum_sq)
    # (start, time, channel) view of every segment the signal holds; built
    # on the buffer directly, which costs a streamed one-window call a few
    # microseconds less than as_strided
    s_time, s_ch = signal.strides
    segments = np.ndarray(
        (n_samples - spec.nperseg + 1, spec.nperseg, n_channels), signal.dtype,
        buffer=signal, strides=(s_time, s_time, s_ch),
    )

    for lo in range(0, len(starts), CHUNK_WINDOWS):
        st = starts[lo : lo + CHUNK_WINDOWS]
        offsets, index = _segment_plan((st - st[0]).tobytes(), hop, n_seg)
        segs = segments[st[0] + offsets]
        segs *= taper
        spectrum = np.fft.rfft(segs, axis=-2)
        del segs
        psd = np.square(spectrum.real)
        psd += np.square(spectrum.imag)
        del spectrum
        psd *= scale
        psd[..., 1:-1, :] *= 2.0  # one-sided: double all bins but DC and Nyquist
        if spec.nperseg % 2:  # odd nperseg has no Nyquist bin
            psd[..., -1, :] *= 2.0
        yield psd[index].mean(axis=1).swapaxes(-1, -2)


def _time_major_blocks(weights: np.ndarray, win_len: int, block: int) -> np.ndarray:
    """Weights over channel-major flattened windows, regrouped by time block.

    Row b holds the weights of samples [b*block, (b+1)*block) of every
    channel, time-major like the signal: the (win_len // block,
    block * n_channels) layout that ``_window_dots`` multiplies blocks by.
    """
    n_channels = weights.shape[0] // win_len
    by_time = weights.reshape(n_channels, win_len // block, block).transpose(1, 2, 0)
    return np.ascontiguousarray(by_time).reshape(win_len // block, -1)


# A chunk is scored from shared blocks while it holds fewer distinct blocks
# than this per window: the block product then does under 4x the
# multiply-adds of one dot per window, at about a fifth of the time each
# (on a 2-core VM, 1.9 us per window at the default 32-sample step against
# 8 us for a dot per window). Windows that share few blocks (a lone
# streamed window, scattered starts, a step whose gcd with the window
# length is 1) are scored one dot each, which takes the same 8 us.
SHARED_BLOCKS_PER_WINDOW = 4


def _window_dots(signal: np.ndarray, starts: np.ndarray, win_len: int,
                 block_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dots x_i . w and squared norms ||x_i||^2 of the flattened windows
    x_i = signal[starts[i] : starts[i] + win_len], without flattening them.

    block_weights is w in the ``_time_major_blocks`` layout, with block the
    gcd of win_len and the window step, so that two windows of a trial
    share every block they overlap in. Each distinct block of a chunk of
    CHUNK_WINDOWS windows is cut from the signal once (78 for a 63-window
    trial at the default 32-sample step); one product P = blocks @
    block_weights.T scores every block at every position, and window i
    sums P[index[i, b], b] over its blocks b. A chunk whose windows share
    too few blocks for P to pay (see SHARED_BLOCKS_PER_WINDOW) takes one
    dot per window instead, of its samples, which are contiguous in the
    signal. Either way the sums run in another order than a flattened
    row's dot, which a bound built for any summation order does not notice.
    """
    n_blocks, block_size = block_weights.shape
    block = win_len // n_blocks
    flat_weights = block_weights.reshape(-1)

    def dot_each(st):
        rows = [signal[s : s + win_len].reshape(-1) for s in st.tolist()]
        return np.array([x @ flat_weights for x in rows]), np.array([x @ x for x in rows])

    if len(starts) == 1:  # a streamed window shares nothing: skip the plan
        return dot_each(starts)
    # (start, block) view of every block the signal holds, as rows
    s_time, s_ch = signal.strides
    blocks = np.ndarray(
        (signal.shape[0] - block + 1, block_size), signal.dtype,
        buffer=signal, strides=(s_time, s_ch),
    )
    positions = np.arange(n_blocks)
    parts = [(np.empty(0), np.empty(0))]  # no windows: empty arrays
    for lo in range(0, len(starts), CHUNK_WINDOWS):
        st = starts[lo : lo + CHUNK_WINDOWS]
        offsets, index = _segment_plan((st - st[0]).tobytes(), block, n_blocks)
        if len(offsets) < SHARED_BLOCKS_PER_WINDOW * len(st):
            chunk = blocks[st[0] + offsets]
            partial = chunk @ block_weights.T
            parts.append((partial[index, positions].sum(axis=1),
                          np.einsum("ij,ij->i", chunk, chunk)[index].sum(axis=1)))
        else:
            parts.append(dot_each(st))
    dots, sq_norms = zip(*parts)
    return np.concatenate(dots), np.concatenate(sq_norms)


def welch_psd(window: np.ndarray, spec: WelchSpec, fs: float) -> np.ndarray:
    """PSD of one (win_len, n_channels) window: (n_channels, nperseg/2+1).

    With win_len=512, nperseg=256 and noverlap=128 this averages 3 tapered
    segments per channel into 129 bins of width fs/256.
    """
    window = np.ascontiguousarray(window, dtype=np.float64)
    if window.ndim != 2:
        raise WindowTooShort(f"window must be 2-D, got shape {window.shape}")
    (psd,) = _welch(window, np.zeros(1, dtype=np.int64), window.shape[0], spec, fs)
    return psd[0]


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-window feature rows with label and trial/run provenance."""

    X: np.ndarray  # (n_windows, n_features)
    labels: np.ndarray
    trial_index: np.ndarray
    run_index: np.ndarray

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


def flatten_windows(ws: WindowSet) -> FeatureMatrix:
    """Raw time-domain features: each window flattened channel-major."""
    return FeatureMatrix(
        X=ws.flattened(),
        labels=ws.labels,
        trial_index=ws.trial_index,
        run_index=ws.run_index,
    )


def psd_features(
    ws: WindowSet, spec: WelchSpec | None = None, per_channel: bool = True
) -> FeatureMatrix:
    """Welch-PSD features for every window.

    per_channel=True concatenates the per-channel spectra channel-major
    (13 channels x 129 bins = 1677 features); per_channel=False averages
    across channels down to one 129-bin spectrum per window.

    Windows of one trial overlap, and so do their Welch segments: at the
    default 32-sample window step and 128-sample segment hop, a 63-window
    trial holds 71 distinct segments, not 189. Segments are cut from
    ws.signal and deduplicated by their absolute start in it, so each
    distinct segment's periodogram is computed once per chunk of windows,
    and every window averages its own segments in the same order as
    welch_psd, so each row equals welch_psd of that window bit for bit.
    """
    spec = spec or WelchSpec()
    rows = []
    for psd in _welch(ws.signal, ws.starts, ws.win_len, spec, ws.fs):
        if per_channel:
            rows.append(psd.reshape(psd.shape[0], -1))
        else:
            rows.append(psd.mean(axis=1))
    return FeatureMatrix(
        X=np.concatenate(rows, axis=0),
        labels=ws.labels,
        trial_index=ws.trial_index,
        run_index=ws.run_index,
    )


PCA_META_NAME = "pca.json"
PCA_PAYLOAD_NAME = "pca.f32le"


def pca_id(t: PcaTransform) -> str:
    """Content hash of the serialized components; pairs a model to its PCA."""
    return store.f32_hash(t.components)


def save_pca(t: PcaTransform, path) -> None:
    """Write pca.json (mean, ratios, shape) + pca.f32le (components, row-major)."""
    path = store.make_dir(path)
    store.write_json(path / PCA_META_NAME, {
        "k": t.k,
        "d": t.d,
        "mean": [float(v) for v in t.mean],
        "explained_variance_ratio": [float(v) for v in t.explained_variance_ratio],
    })
    store.write_f32(path / PCA_PAYLOAD_NAME, t.components)


PCA_FIELDS = {"k": 0, "d": 0, "mean": [0.0], "explained_variance_ratio": [0.0]}


def load_pca(path) -> PcaTransform:
    meta_path = Path(path) / PCA_META_NAME
    doc = store.read_fields(store.read_json(meta_path), PCA_FIELDS, meta_path)
    k, d = doc["k"], doc["d"]
    mean = np.array(doc["mean"], dtype=np.float64)
    ratios = np.array(doc["explained_variance_ratio"], dtype=np.float64)
    if mean.shape != (d,) or ratios.shape != (k,):
        raise MalformedMeta(f"{meta_path}: k={k}, d={d} but mean has shape {mean.shape} "
                            f"and explained_variance_ratio {ratios.shape}")
    payload_path = Path(path) / PCA_PAYLOAD_NAME
    components = store.read_f32(payload_path, (k, d), DimensionMismatch)
    if not np.isfinite(components).all():
        raise MalformedMeta(f"{payload_path}: a component holds NaN or Inf")
    return PcaTransform(
        mean=mean, components=components, explained_variance_ratio=ratios, k=k
    )
