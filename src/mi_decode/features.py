"""Dimensionality reduction: PCA with explained-variance reporting, and
Welch power-spectral-density features.

PCA eigendecomposes the smaller Gram matrix of the centered data
(Xc Xc^T or Xc^T Xc) and keeps its k leading pairs: from one full
divide-and-conquer solve when k is more than a quarter of the Gram's
order m or m is at most 1024, else from a solve for those pairs alone. The
full solve is numpy's (np.linalg.eigh), so a fit on that route runs on
numpy's BLAS alone: numpy and scipy each load their own OpenBLAS, each
with its own thread pool, and after a call the pool that made it keeps a
worker spinning, which then competes with the other pool's threads. Only
the subset solve, which numpy lacks, is scipy's; it serves the large
Grams with few pairs wanted, where a full solve would cost more time and
memory than the pool switch. The route depends on the input's shape
alone. Rows holding a NaN or an Inf are refused (NonFiniteSample) before
any solve. The fit falls back to the full SVD of the centered data when
squaring would lose the trailing components; a fixed sign convention
makes refits bit-identical.
pca_fit_transform also returns the fitted rows' projections, read off the
decomposition rather than computed by projecting the rows again. It centers
the matrix it is given in place, so a fit holds one copy of the rows: its
callers (evaluate.fit_pipeline) own them and read only their shape
afterwards. The public pca_fit and pca_transform copy their argument once
and never change it.
The Welch estimator uses Hann-tapered, 50%-overlapping modified
periodograms with one-sided density scaling; nperseg=256 at fs=512 gives
129 bins of 2 Hz, all of which welch_psd returns. Feature rows keep only
the leading bins the band-pass lets through (passband_bins): bins 0-51,
up to 102 Hz, at the default 4-30 Hz order-4 band. A row holds each
channel's kept bins, channel-major (676 features for 13 channels), never
their channel mean: Left and Right imagery differ in which hemisphere's
rhythm is damped (C3 against C4), and a mean over channels cancels that
contrast. One function, _periodograms, computes every periodogram: of
channel-major segments, transformed along their contiguous last axis and
cut to the kept bins before they are squared. Overlapping
windows share segments: psd_features works one trial at a time,
transposes the trial's samples once, transforms each distinct segment
start once and adds every window's own segments into its row in the same
order as welch_psd, so each feature row equals the kept bins of welch_psd
of its window bit for bit. psd_rows gives the same rows one streamed
window at a time, transforming only the segments that no earlier window
of the trial needed. Linear scores of flattened windows are summed the
same way, from time blocks of the signal that overlapping windows share,
without flattening them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np
from scipy.linalg import eigh
from scipy.signal import sosfreqz

from . import store
from .errors import (
    BadK,
    DimensionMismatch,
    MalformedMeta,
    NonFiniteSample,
    WindowTooShort,
)
from .dsp import BandpassSpec, WindowSet, _channel_major_runs, design_bandpass


@dataclass(frozen=True)
class PcaTransform:
    mean: np.ndarray  # (d,)
    components: np.ndarray  # (k, d), orthonormal rows
    explained_variance_ratio: np.ndarray  # (k,)

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def d(self) -> int:
        return self.components.shape[1]


# Acceptance rule for the Gram eigenpairs (see pca_fit_transform): squaring
# the data halves the precision of its small singular values, and a centered
# n-row matrix has rank n-1 at most, so a near-zero lambda_k gives garbage
# rows.
ORTHO_TOL = 1e-10
MIN_EIG_RATIO = 1e-6


# The full solve (LAPACK dsyevd, all m pairs) serves a Gram of order m when
# k is above this share of m, or when m is at most FULL_EIGH_MAX_ORDER;
# otherwise only the k leading pairs are computed, by bisection and inverse
# iteration (dsyevr). The full solve is numpy's and the subset solve
# scipy's, and numpy and scipy each load their own OpenBLAS, whose thread
# pool keeps a worker spinning after each call: on the subset route that
# worker competes with the numpy products that follow the fit.
#
# Above the share: on a 2-core VM, a whole _top_k_eigen call (Gram, solve,
# map back; median of 11) on time-domain rows took 111-114 ms against
# 274-278 ms at m=756 and k=200. With both solves on scipy, m=5040 and
# k=800 (a random Gram) took 14.9 s against 12.1 s, with 333 MB more peak
# memory, and the default pca-sweep's folds (m=3780, k=1600) took 6.3 s
# against 9.4 s on a random Gram. Those folds take the full solve: the
# whole sweep took 130 s and peaked at 1684 MB of RSS, where the subset
# route on scipy had peaked at 1688 MB.
#
# Up to the order: on the same VM (numpy 2.4.6, scipy 1.17.1), one CV
# fold's PCA step (copy m rows of 6656 random features, pca_fit_transform,
# project m/2 held-out rows; median of 5), full route against subset route:
#
#     m      k    full     subset
#     630    24    117 ms   169 ms
#     768    24    186 ms   247 ms
#     768     1    215 ms   204 ms
#     1024   24    259 ms   312 ms
#     1024    8    241 ms   249 ms
#     1024    1    348 ms   326 ms
#     1088   24    406 ms   385 ms
#     1280   24    481 ms   399 ms
#     1536   24    703 ms   533 ms
#     2048   24   1684 ms  1068 ms
#
# The solve alone is slower on the full route at every order measured
# (84 against 59 ms at m=630, k=24), so the gain up to m=1024 is the
# numpy work after the fit running without scipy's spinning worker; from
# m=1088 the full solve's extra cost outweighs it. The default train
# (m=5040, k=800) stays on the subset route, where a full solve doubled its
# peak RSS (661 against 1404 MB).
FULL_EIGH_SHARE = 0.25
FULL_EIGH_MAX_ORDER = 1024


def _top_k_eigen(
    Xc: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray | None] | None:
    """(components, eigenvalues, trace, projections) from the top-k pairs of
    the smaller Gram matrix, or None when they fail the acceptance rule
    above. projections are the rows of Xc in the components' basis, or
    None when they are left to the caller (the n > d route). Raises
    NonFiniteSample, before any solve, when the Gram's trace is not finite:
    Xc is finite, so when its squares overflow."""
    n, d = Xc.shape
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        gram = Xc @ Xc.T if n <= d else Xc.T @ Xc
    m = gram.shape[0]
    total = float(np.trace(gram))
    if not np.isfinite(total):
        raise NonFiniteSample(
            f"PCA rows are not all finite: their centered Gram matrix has trace {total}"
        )
    if k > FULL_EIGH_SHARE * m or m <= FULL_EIGH_MAX_ORDER:
        # dsyevd on numpy's LAPACK, so that the fit stays on numpy's
        # OpenBLAS thread pool and never wakes scipy's; keep a copy of the
        # k eigenvectors needed, so that the m x m output is freed at once
        lam, vec = np.linalg.eigh(gram)
        lam, vec = lam[m - k:], vec[:, m - k:].copy()
    else:
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
    if n <= d:
        # Xc = U sqrt(lam) V, so V = U^T Xc / sqrt(lam) and Xc V^T = U sqrt(lam)
        root = np.sqrt(lam)
        components = vec.T @ Xc
        components /= root[:, None]
        projections = np.multiply(vec, root, order="C")  # rows, like Xc @ V^T
    else:
        components, projections = vec.T.copy(), None
    err = np.abs(components @ components.T - np.eye(k)).max()
    if not err <= ORTHO_TOL:
        return None
    return components, lam, total, projections


def _largest_magnitudes(rows: np.ndarray) -> np.ndarray:
    """Each row's entry at ``np.abs(rows).argmax(axis=1)``, without the
    |rows| copy: the first entry of largest magnitude is the row's first
    maximum or its first minimum, whichever is larger in magnitude, or
    comes first when the two tie."""
    i = np.arange(len(rows))
    hi, lo = rows.argmax(axis=1), rows.argmin(axis=1)
    top, bottom = rows[i, hi], rows[i, lo]
    take_lo = (-bottom > top) | ((-bottom == top) & (lo < hi))
    return np.where(take_lo, bottom, top)


def pca_fit_transform(X: np.ndarray, k: int) -> tuple[PcaTransform, np.ndarray]:
    """Fit a k-component PCA to the rows of X, and project those rows.

    X is centered in place: a float64 X holds X - mean on return (any other
    dtype is converted to a float64 copy first, which is centered instead).
    Callers hand over rows they own and read no more than X's shape
    afterwards; ``pca_fit`` is the fit that leaves its argument alone.

    Components are the top-k right singular vectors of the centered data;
    each component's largest-magnitude entry is made positive so the fit is
    deterministic. explained_variance_ratio[i] is sigma_i^2 / sum(sigma^2).
    Asking for k beyond the numeric rank is allowed; trailing ratios are 0.

    Only the k leading eigenpairs of the smaller Gram matrix of the centered
    data Xc are kept: Xc Xc^T when n <= d, mapped back as
    V = U^T Xc / sigma, else Xc^T Xc. When k is more than a quarter of the
    Gram's order m (FULL_EIGH_SHARE) or m is at most 1024
    (FULL_EIGH_MAX_ORDER) they come from one full eigensolve, numpy's, so
    that the fit never leaves numpy's BLAS thread pool for scipy's;
    otherwise from scipy's solve for those k pairs alone. Either way the
    pairs are the same to rounding, so components nest across k.
    They are kept when the rows come out orthonormal to 1e-10 and
    lambda_k >= 1e-6 * lambda_1; otherwise (rank-deficient or badly
    conditioned data, including any k = n <= d) the fit is the full SVD of
    Xc, which is exact for every component. Rows holding a NaN or an Inf
    raise NonFiniteSample before they are centered, on every route.

    The projections Z (n, k) of X are taken from the decomposition rather
    than by projecting X again: U sqrt(lambda) on the n <= d route,
    Xc V^T from the centered X when n > d, U_k s_k on the SVD route, each
    with the components' signs. Z equals ``pca_transform`` of the rows as
    they were passed in, to rounding.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise BadK(f"need a 2-D matrix with >= 2 rows, got shape {X.shape}")
    n, d = X.shape
    if not 1 <= k <= min(n, d):
        raise BadK(f"k={k} outside [1, {min(n, d)}]")

    with np.errstate(invalid="ignore", over="ignore"):  # refused just below
        mean = X.mean(axis=0)
    if not np.isfinite(mean).all():
        raise NonFiniteSample("PCA rows are not all finite, or a column's sum overflows")
    Xc = X
    Xc -= mean  # the bits of X - mean, without a second n x d matrix
    fast = _top_k_eigen(Xc, k)
    if fast is not None:
        components, lam, total, Z = fast
    else:
        u, s, vt = np.linalg.svd(Xc, full_matrices=False)
        components, lam, total = vt[:k].copy(), s[:k] ** 2, float(np.sum(s**2))
        Z = u[:, :k] * s[:k]
    signs = np.where(_largest_magnitudes(components) < 0, -1.0, 1.0)
    components *= signs[:, None]
    if Z is None:
        Z = Xc @ components.T
    else:
        Z *= signs
    ratios = lam / total if total > 0 else np.zeros(k)
    t = PcaTransform(mean=mean, components=components, explained_variance_ratio=ratios)
    return t, Z


def pca_fit(X: np.ndarray, k: int) -> PcaTransform:
    """Fit a k-component PCA to the rows of X: ``pca_fit_transform``'s fit,
    the same Gram eigensolve (one full solve when k is more than a quarter
    of the Gram's order m or m <= 1024) or SVD fallback, and the same
    NonFiniteSample for rows holding a NaN or an Inf, without its training
    projections. The fit centers a copy of X; X is left as it is."""
    return pca_fit_transform(np.array(X, dtype=np.float64), k)[0]


def pca_transform(t: PcaTransform, X: np.ndarray) -> np.ndarray:
    """(X - t.mean) @ t.components.T, from a copy of X; X is left as it is."""
    X = np.array(X, dtype=np.float64)
    if X.shape[-1] != t.d:
        raise DimensionMismatch(f"X has {X.shape[-1]} columns, transform expects {t.d}")
    return _project_in_place(t, X)


def _project_in_place(t: PcaTransform, X: np.ndarray) -> np.ndarray:
    """``pca_transform`` of float64 rows the caller owns and reads no more:
    X is centered in place, then projected. The same bits as from a copy."""
    X -= t.mean
    return X @ t.components.T


@dataclass(frozen=True)
class WelchSpec:
    nperseg: int = 256
    noverlap: int = 128

    def __post_init__(self):
        if not 0 <= self.noverlap < self.nperseg:
            raise WindowTooShort(
                f"need 0 <= noverlap < nperseg, got {self.noverlap}/{self.nperseg}"
            )

    @property
    def n_bins(self) -> int:
        return self.nperseg // 2 + 1


# A PSD bin above the band is kept while the causal (one-pass) band-pass,
# the weaker of the two filter paths, still passes at least this gain
# (-26 dB). At the default 4-30 Hz order-4 band and fs=512 the 102 Hz bin
# passes 0.0508 and the 104 Hz bin 0.0482; a floor of 0.1 would fall on
# the 78 Hz bin (0.09993), where rounding decides.
PSD_GAIN_FLOOR = 0.05


@functools.lru_cache(maxsize=16)
def passband_bins(band: BandpassSpec, spec: WelchSpec) -> int:
    """How many leading bins of a Welch PSD feature rows keep: every bin
    below the first bin above band.high_hz where the causal band-pass gain
    falls under PSD_GAIN_FLOOR, or all spec.n_bins when none does (the
    band-pass has order/2 zeros at Nyquist, so an even nperseg always loses
    that bin).

    52 of 129 (0-102 Hz) at the defaults. More bins pass a higher high_hz
    and fewer a steeper order; the cut depends on the band and the bin
    width only relative to band.fs.
    """
    freqs = np.arange(spec.n_bins) * (band.fs / spec.nperseg)
    _, response = sosfreqz(design_bandpass(band).sos, worN=freqs, fs=band.fs)
    cut = np.flatnonzero((freqs > band.high_hz) & (np.abs(response) < PSD_GAIN_FLOOR))
    return int(cut[0]) if len(cut) else spec.n_bins


def _hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@functools.lru_cache(maxsize=8)
def _taper(nperseg: int) -> tuple[np.ndarray, float]:
    """The Hann taper and its sum of squares."""
    taper = _hann(nperseg)
    taper.flags.writeable = False  # cached and shared between calls
    return taper, float(np.sum(taper**2))


CHUNK_WINDOWS = 512  # bounds the segment, spectrum and block-score working set


@functools.lru_cache(maxsize=32)
def _segment_plan(
    rel_starts: bytes, hop: int, n_seg: int
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Which distinct Welch segments (or scoring blocks) a chunk of windows
    holds.

    rel_starts is the chunk's int64 window starts, taken relative to its
    first window's start; window w uses the segments that start
    rel_starts[w] + s*hop, for s < n_seg. Returns the sorted distinct
    segment starts (relative, like rel_starts), the (windows, n_seg) index
    of every window's segments into them, and that index's n_seg columns.
    Column s is a slice when the windows' s-th segments are evenly spaced,
    as they are for the windows ``window_trials`` cuts at the default
    spec, so averaging over it reads a view; any other column stays an
    index array. Cached because eval, grid and replay of one recording ask
    for the same plans, and equally long trials for the same plan.
    """
    rel = np.frombuffer(rel_starts, dtype=np.int64)
    seg_starts = rel[:, None] + hop * np.arange(n_seg)
    offsets, inverse = np.unique(seg_starts.ravel(), return_inverse=True)
    index = inverse.reshape(-1, n_seg)
    columns = []
    for col in index.T.tolist():
        step = col[1] - col[0] if len(col) > 1 else 1
        if step > 0 and col == list(range(col[0], col[-1] + 1, step)):
            columns.append(slice(col[0], col[-1] + 1, step))
        else:
            column = np.array(col)
            column.flags.writeable = False  # cached and shared between calls
            columns.append(column)
    offsets.flags.writeable = index.flags.writeable = False
    return offsets, index, tuple(columns)


def _segments_per_window(win_len: int, spec: WelchSpec) -> tuple[int, int]:
    """The segment hop and the number of segments in a win_len window."""
    if win_len < spec.nperseg:
        raise WindowTooShort(f"{win_len} samples < nperseg={spec.nperseg}")
    hop = spec.nperseg - spec.noverlap
    return hop, 1 + (win_len - spec.nperseg) // hop


def _periodograms(segments: np.ndarray, offsets, spec: WelchSpec, fs: float,
                  bins: int) -> np.ndarray:
    """Modified periodograms (len(offsets), n_channels, bins) of the
    segments at offsets of a ``dsp._channel_major_runs`` view: Hann taper,
    one-sided density scaling, the first bins of spec.n_bins. The one
    periodogram code of the package; each segment's bits do not depend on
    which others share the call, nor on how many bins are kept."""
    taper, sum_sq = _taper(spec.nperseg)
    segs = segments[offsets]
    segs *= taper
    spectrum = np.fft.rfft(segs)[..., :bins]
    del segs
    psd = np.square(spectrum.real)
    psd += np.square(spectrum.imag)
    del spectrum
    psd *= 1.0 / (fs * sum_sq)
    # one-sided: double every bin but DC and, when nperseg is even, Nyquist
    psd[..., 1 : spec.n_bins - 1 + spec.nperseg % 2] *= 2.0
    return psd


def _mean_into(out: np.ndarray, parts) -> None:
    """out = the mean of parts, added in order and divided once: the bits
    of ``np.mean`` over a stacked segment axis."""
    np.copyto(out, parts[0])
    for part in parts[1:]:
        out += part
    out /= len(parts)


def _welch(signal: np.ndarray, starts: np.ndarray, win_len: int, spec: WelchSpec,
           fs: float, groups, bins: int) -> np.ndarray:
    """Welch PSDs (n_windows, n_channels, bins), the first bins of
    spec.n_bins, of the windows signal[starts[i] : starts[i] + win_len].

    signal is a C-ordered (n_samples, n_channels) float64 array; groups
    are slices of the rows, one per trial. A group is done CHUNK_WINDOWS
    windows at a time: the sample span its windows cover is transposed to
    channel-major, each distinct segment of it is tapered and transformed
    once, and each window's n_seg periodograms are added in order into
    its output row and divided once, the reduction of a one-window
    estimate, so every row is bit-identical to it. Two windows share a
    segment exactly when it starts at the same sample of the signal.
    """
    hop, n_seg = _segments_per_window(win_len, spec)
    out = np.empty((len(starts), signal.shape[1], bins))
    for group in groups:
        for lo in range(group.start, group.stop, CHUNK_WINDOWS):
            hi = min(lo + CHUNK_WINDOWS, group.stop)
            st = starts[lo:hi]
            first, last = int(st.min()), int(st.max())
            segments = _channel_major_runs(signal[first : last + win_len], spec.nperseg)
            offsets, _, columns = _segment_plan((st - first).tobytes(), hop, n_seg)
            psd = _periodograms(segments, offsets, spec, fs, bins)
            _mean_into(out[lo:hi], [psd[c] for c in columns])
    return out


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
        offsets, index, _ = _segment_plan((st - st[0]).tobytes(), block, n_blocks)
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
    return _welch(window, np.zeros(1, dtype=np.int64), window.shape[0], spec, fs,
                  [slice(0, 1)], spec.n_bins)[0]


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
    ws: WindowSet, spec: WelchSpec | None = None, bins: int | None = None
) -> FeatureMatrix:
    """Welch-PSD features for every window, of the first bins of each
    spectrum (all spec.n_bins when bins is None).

    A row is the window's per-channel spectra, channel-major. The pipeline
    keeps passband_bins of the band it filtered with: 13 channels x 52
    bins = 676 features at the defaults, of 13 x 129.

    Windows of one trial overlap, and so do their Welch segments: at the
    default 32-sample window step and 128-sample segment hop, a 63-window
    trial holds 71 distinct segments, not 189. Each trial (a group of
    ws.trial_slices(), at most CHUNK_WINDOWS windows at a time) is
    transposed to channel-major once, each distinct segment's periodogram
    is computed once, and every window adds its own segments into its row
    in the same order as welch_psd, so each row equals welch_psd of that
    window bit for bit.
    """
    spec = spec or WelchSpec()
    groups = [sl for _, sl in ws.trial_slices()]
    bins = bins or spec.n_bins
    psd = _welch(ws.signal, ws.starts, ws.win_len, spec, ws.fs, groups, bins)
    return FeatureMatrix(
        X=psd.reshape(ws.n_windows, ws.n_channels * bins),
        labels=ws.labels,
        trial_index=ws.trial_index,
        run_index=ws.run_index,
    )


def psd_rows(ws: WindowSet, spec: WelchSpec, bins: int | None = None) -> Iterator[np.ndarray]:
    """``psd_features(ws, spec, bins).X`` one (1, n_features) row at a
    time, in window order, each computed only when the caller asks.

    Meant for one trial's windows as they stream in: ws.signal is
    transposed to channel-major once, and a store keyed by segment start
    keeps every periodogram computed so far, so a window transforms only
    the segments that no earlier window needed (one of its three at the
    default spec) and adds its segments in psd_features' order, which
    makes each row equal to psd_features' row bit for bit.
    """
    hop, n_seg = _segments_per_window(ws.win_len, spec)
    bins = bins or spec.n_bins
    segments = _channel_major_runs(ws.signal, spec.nperseg)
    by_start = {}
    for start in ws.starts.tolist():
        need = [start + s * hop for s in range(n_seg)]
        new = [o for o in need if o not in by_start]
        if new:
            by_start.update(zip(new, _periodograms(segments, new, spec, ws.fs, bins)))
        psd = np.empty((ws.n_channels, bins))
        _mean_into(psd, [by_start[o] for o in need])
        yield psd.reshape(1, -1)


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
    return PcaTransform(mean=mean, components=components, explained_variance_ratio=ratios)
