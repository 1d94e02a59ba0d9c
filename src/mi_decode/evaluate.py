"""Experiment orchestration: run-wise cross-validation, the PCA component
sweep, decoder training, sample-level evaluation and fine-tuning.

Cross-validation folds are whole runs, never shuffled windows: adjacent
windows overlap by 480 of 512 samples, so window-level shuffling would
leak nearly-identical samples across the train/test split and inflate
accuracy. Any PCA is refit inside each fold on the training runs only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .classify import FIT_FUNCTIONS, FoldedScore, LinearClassifier, fit_classifier
from . import store
from .dsp import PreprocessParams, WindowSet, windows_from_recording
from .errors import BadK, DimensionMismatch, LayoutMismatch, MalformedMeta, TooFewRuns
from .features import (
    FeatureMatrix,
    PcaTransform,
    WelchSpec,
    _project_in_place,
    _time_major_blocks,
    _window_dots,
    flatten_windows,
    passband_bins,
    pca_fit_transform,
    pca_transform,
    psd_features,
    psd_rows,
)
from .session import Recording, Session
from .version import __version__

MODE_PCA = "pca"
MODE_PSD = "psd"
MODE_PSD_PCA = "psd+pca"
FEATURE_MODES = (MODE_PCA, MODE_PSD, MODE_PSD_PCA)

DEFAULT_SWEEP_KS = (50, 100, 200, 400, 800, 1600)


@dataclass(frozen=True)
class FeatureConfig:
    """What a window turns into before classification.

    mode "pca": flattened time-domain window -> k principal components.
    mode "psd": per-channel Welch spectra, no reduction.
    mode "psd+pca": per-channel Welch spectra -> k principal components.

    Spectra stay per channel, concatenated channel-major: the Left/Right
    contrast is lateralized (C3 against C4) and a channel mean cancels it.
    They keep only the bins the band-pass passes (see
    ``features.passband_bins``), which depend on the preprocessing band and
    the session's rate: 52 per channel, 676 features per row, at the
    defaults. A psd decoder fit on one cut refuses rows of another with
    DimensionMismatch.
    """

    mode: str = MODE_PCA
    k: int | None = 800
    welch: WelchSpec = WelchSpec()

    def __post_init__(self):
        if self.mode not in FEATURE_MODES:
            raise ValueError(f"mode must be one of {FEATURE_MODES}, got {self.mode!r}")
        if self.uses_pca and (self.k is None or self.k < 1):
            raise BadK(f"mode {self.mode!r} needs k >= 1, got {self.k}")

    @property
    def uses_pca(self) -> bool:
        return self.mode in (MODE_PCA, MODE_PSD_PCA)

    @property
    def uses_psd(self) -> bool:
        return self.mode in (MODE_PSD, MODE_PSD_PCA)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "k": self.k if self.uses_pca else None,
            **asdict(self.welch),
        }


def raw_feature_matrix(
    ws: WindowSet, config: FeatureConfig, params: PreprocessParams = PreprocessParams()
) -> FeatureMatrix:
    """Per-window feature rows before any PCA: flattened time, or the Welch
    PSD bins that ``params``' band-pass passes at ws.fs."""
    if config.uses_psd:
        return psd_features(ws, config.welch,
                            passband_bins(params.band_spec(ws.fs), config.welch))
    return flatten_windows(ws)


@dataclass(frozen=True)
class FeaturePipeline:
    """A fitted feature path: raw windows -> (optional PCA) -> feature rows."""

    config: FeatureConfig
    pca: PcaTransform | None

    def transform_raw(self, X: np.ndarray) -> np.ndarray:
        return pca_transform(self.pca, X) if self.pca is not None else X


def fit_pipeline(
    raw_X: np.ndarray, config: FeatureConfig
) -> tuple[FeaturePipeline, np.ndarray]:
    """The pipeline fitted to raw_X, and raw_X's feature rows through it.

    The rows come from the PCA fit itself (see ``pca_fit_transform``)
    rather than from projecting raw_X a second time. With a PCA stage the
    fit centers raw_X in place: callers pass rows they own (a session's
    feature matrix, a fold's copy of its training rows) and read only their
    shape afterwards. Without one, the rows returned are raw_X itself.
    """
    if not config.uses_pca:
        return FeaturePipeline(config=config, pca=None), raw_X
    pca, Z = pca_fit_transform(raw_X, config.k)
    return FeaturePipeline(config=config, pca=pca), Z


def config_hash(params: PreprocessParams, config: FeatureConfig, clf_kind: str) -> str:
    return store.json_hash(
        {"preprocess": params.to_dict(), "features": config.to_dict(), "classifier": clf_kind}
    )


@dataclass(frozen=True)
class Decoder:
    """A trained preprocessing + feature + classifier stack."""

    params: PreprocessParams
    pipeline: FeaturePipeline
    clf: LinearClassifier
    provenance: dict

    def windows(self, rec: Recording, causal: bool = False) -> WindowSet:
        return windows_from_recording(rec, self.params, causal=causal)

    def transform(self, ws: WindowSet) -> np.ndarray:
        """The classifier's input rows for the windows ws."""
        raw = raw_feature_matrix(ws, self.pipeline.config, self.params).X
        return self.pipeline.transform_raw(raw)

    @functools.cached_property
    def _folded(self) -> FoldedScore:
        """The classifier, any PCA folded in, as one raw-row score; never saved."""
        pca = self.pipeline.pca
        return self.clf.fold() if pca is None else self.clf.fold(pca.mean, pca.components)

    @functools.cached_property
    def _block_weights(self) -> dict:
        """w_eff in the time-major block layout, per (win_len, block)."""
        return {}

    def _folded_window_scores(self, ws: WindowSet) -> tuple[np.ndarray, np.ndarray]:
        """``_folded.scores`` of the flattened windows, summed block by block
        from the signal (see ``features._window_dots``)."""
        d = self._folded.weights.shape[0]
        if ws.n_channels * ws.win_len != d:
            raise DimensionMismatch(
                f"windows of {ws.n_channels} x {ws.win_len} samples, model expects {d}"
            )
        layout = (ws.win_len, math.gcd(ws.win_len, ws.win_step))
        if layout not in self._block_weights:
            self._block_weights[layout] = _time_major_blocks(self._folded.weights, *layout)
        dots = _window_dots(ws.signal, ws.starts, ws.win_len, self._block_weights[layout])
        return self._folded._from_dots(*dots)

    def predict_windows(self, ws: WindowSet) -> np.ndarray:
        """Labels (0=Left, 1=Right) equal to ``clf.predict(transform(ws))``.

        Every raw feature row x is scored once, as ``x . w_eff + b_eff``
        (see ``LinearClassifier.fold``; w_eff = w without PCA); in ``pca``
        mode the rows are never built, and the dots are summed from blocks
        of the signal that overlapping windows share. A row keeps that sign
        when |score| exceeds the rounding bound of both paths, which makes
        it the two-step sign whatever order either path sums in. Any other
        row is built and rescored alone on the two-step path, so a window
        gets the same vote in a batch as when it is streamed by itself.
        """
        config = self.pipeline.config
        if config.uses_psd:
            return self._predict_rows(raw_feature_matrix(ws, config, self.params).X)
        return self._votes(*self._folded_window_scores(ws),
                           lambda i: ws[i : i + 1].flattened())

    def _predict_rows(self, X: np.ndarray) -> np.ndarray:
        """``predict_windows`` of raw feature rows X (see there)."""
        return self._votes(*self._folded.scores(X), lambda i: X[i : i + 1])

    def _votes(self, s: np.ndarray, certified: np.ndarray, row) -> np.ndarray:
        """The sign of each certified folded score s, and for every other
        score the two-step vote of row(i), its raw feature row (1, d)."""
        pred = (s > 0).astype(np.int64)
        for i in np.flatnonzero(~certified):
            pred[i] = self.clf.predict(self.pipeline.transform_raw(row(i)))[0]
        return pred

    def stream_votes(self, ws: WindowSet) -> Iterator[int]:
        """The votes of ``predict_windows(ws)`` one window at a time, each
        computed only when the caller asks for it.

        Meant for one trial's windows as they stream in. In ``psd`` modes
        the rows come from ``features.psd_rows``, which transforms each
        Welch segment of the trial once; in ``pca`` mode each window is
        scored alone from its samples.
        """
        config = self.pipeline.config
        if config.uses_psd:
            bins = passband_bins(self.params.band_spec(ws.fs), config.welch)
            for row in psd_rows(ws, config.welch, bins):
                yield int(self._predict_rows(row)[0])
        else:
            for w in range(ws.n_windows):
                yield int(self.predict_windows(ws[w : w + 1])[0])


@dataclass(frozen=True)
class CvReport:
    fold_accuracy: tuple[float, ...]
    fold_runs: tuple[int, ...]
    config: dict

    @property
    def n_folds(self) -> int:
        return len(self.fold_accuracy)

    @property
    def mean(self) -> float:
        return float(np.mean(self.fold_accuracy))

    @property
    def std(self) -> float:
        return float(np.std(self.fold_accuracy))

    def to_dict(self) -> dict:
        return {
            "fold_runs": list(self.fold_runs),
            "fold_accuracy": list(self.fold_accuracy),
            "mean": self.mean,
            "std": self.std,
            "config": self.config,
        }


def cv_from_matrix(
    fm: FeatureMatrix, config: FeatureConfig, clf_kind: str = "lda"
) -> CvReport:
    """Leave-one-run-out CV on precomputed raw feature rows.

    Each fold fits PCA (when the mode has one) and the classifier on the
    other runs' windows only, then scores the held-out run at window level.
    """
    return _cv_per_k(fm, config, [config.k], clf_kind)[0]


def _cv_per_k(
    fm: FeatureMatrix, config: FeatureConfig, ks: Sequence[int], clf_kind: str
) -> list[CvReport]:
    """cv_from_matrix at every PCA size in ks, with one PCA fit per fold.

    PCA components are nested across k, so each fold fits PCA once at
    max(ks) and gives each k the leading k projected columns; only the
    classifier is refit per k.
    """
    runs = np.unique(fm.run_index)
    if len(runs) < 2:
        raise TooFewRuns(f"run-wise CV needs >= 2 runs, got {len(runs)}")
    fit_config = replace(config, k=max(ks)) if config.uses_pca else config
    col_counts = ks if config.uses_pca else [None]

    # one call per fold, so a fold's arrays are freed before the next allocates
    def one_fold(r: int) -> list[float]:
        test = fm.run_index == r
        ytr, yte = fm.labels[~test], fm.labels[test]
        # a PCA fit centers the copy of the training rows in place and frees
        # it; the held-out rows are cut after it, and centered in place too
        pipe, Ztr = fit_pipeline(fm.X[~test], fit_config)
        Zte = fm.X[test]
        if pipe.pca is not None:
            Zte = _project_in_place(pipe.pca, Zte)
        accs = []
        for k in col_counts:
            clf = fit_classifier(clf_kind, Ztr[:, :k], ytr)
            accs.append(float(np.mean(clf.predict(Zte[:, :k]) == yte)))
        return accs

    per_fold = [one_fold(int(r)) for r in runs]
    return [
        CvReport(
            fold_accuracy=tuple(accs[i] for accs in per_fold),
            fold_runs=tuple(int(r) for r in runs),
            config={**replace(config, k=k).to_dict(), "classifier": clf_kind},
        )
        for i, k in enumerate(col_counts)
    ]


def runwise_cv(
    session: Session,
    config: FeatureConfig,
    params: PreprocessParams = PreprocessParams(),
    clf_kind: str = "lda",
) -> CvReport:
    ws = windows_from_recording(session.recording, params)
    return cv_from_matrix(raw_feature_matrix(ws, config, params), config, clf_kind)


@dataclass(frozen=True)
class SweepReport:
    points: tuple[tuple[int, float], ...]  # (k, cv mean accuracy)
    reports: tuple[CvReport, ...]

    @property
    def best_k(self) -> int:
        # ties go to the smaller k
        return max(self.points, key=lambda p: (p[1], -p[0]))[0]

    def to_dict(self) -> dict:
        return {
            "points": [{"k": k, "mean_accuracy": a} for k, a in self.points],
            "best_k": self.best_k,
        }


def pca_sweep(
    session: Session,
    ks: Iterable[int] = DEFAULT_SWEEP_KS,
    config: FeatureConfig = FeatureConfig(),
    params: PreprocessParams = PreprocessParams(),
    clf_kind: str = "lda",
) -> SweepReport:
    """CV accuracy as a function of the PCA component count.

    Each fold fits one PCA, at the largest k, and scores every k from it.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise BadK("sweep needs at least one k")
    if not config.uses_pca:
        raise BadK(f"mode {config.mode!r} has no PCA stage to sweep")
    ws = windows_from_recording(session.recording, params)
    fm = raw_feature_matrix(ws, config, params)
    reports = _cv_per_k(fm, config, ks, clf_kind)
    points = tuple((k, rep.mean) for k, rep in zip(ks, reports))
    return SweepReport(points=points, reports=tuple(reports))


def _check_layout(sessions: Sequence[Session]) -> None:
    if not sessions:
        raise LayoutMismatch("no sessions given")
    fs = sessions[0].recording.fs
    labels = sessions[0].recording.channel_labels
    for s in sessions[1:]:
        if s.recording.fs != fs or s.recording.channel_labels != labels:
            raise LayoutMismatch(
                f"session {s.meta.subject}:{s.meta.session_kind.value} has "
                f"fs={s.recording.fs}, channels={list(s.recording.channel_labels)}; "
                f"expected fs={fs}, channels={list(labels)}"
            )


def train_decoder(
    sessions: Sequence[Session],
    config: FeatureConfig = FeatureConfig(),
    params: PreprocessParams = PreprocessParams(),
    clf_kind: str = "lda",
) -> Decoder:
    """Fit features and classifier on the union of all given sessions' windows.

    With several sessions (fine-tuning), one PCA is refit on the combined
    windows rather than reusing the first session's transform.
    """
    _check_layout(sessions)
    raws = []
    labels = []
    for s in sessions:
        ws = windows_from_recording(s.recording, params)
        fm = raw_feature_matrix(ws, config, params)
        raws.append(fm.X)
        labels.append(fm.labels)
    X = raws[0] if len(raws) == 1 else np.vstack(raws)
    y = np.concatenate(labels)
    pipe, Z = fit_pipeline(X, config)  # may center X in place: read its shape only
    clf = fit_classifier(clf_kind, Z, y)
    prov = {
        "sessions": [
            f"{s.meta.subject}:{s.meta.session_kind.value}:{s.meta.n_runs}runs"
            for s in sessions
        ],
        "n_windows": int(X.shape[0]),
        "config_hash": config_hash(params, config, clf_kind),
        "version": __version__,
    }
    return Decoder(params=params, pipeline=pipe, clf=clf, provenance=prov)


@dataclass(frozen=True)
class SampleReport:
    """Window-level accuracy and 2x2 confusion counts (rows true, cols predicted)."""

    accuracy: float
    confusion: tuple[tuple[int, int], tuple[int, int]]
    n_windows: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "confusion": [list(row) for row in self.confusion],
            "n_windows": self.n_windows,
        }


def eval_samples(decoder: Decoder, session: Session) -> SampleReport:
    """Score every window of a session with the decoder's own feature path."""
    ws = windows_from_recording(session.recording, decoder.params)
    pred = decoder.predict_windows(ws)
    y = ws.labels
    conf = tuple(
        tuple(int(np.sum((y == t) & (pred == p))) for p in (0, 1)) for t in (0, 1)
    )
    return SampleReport(
        accuracy=float(np.mean(pred == y)),
        confusion=conf,
        n_windows=int(ws.n_windows),
    )


@dataclass(frozen=True)
class FinetuneReport:
    """The three accuracies of the offline-vs-fine-tuned comparison."""

    base_on_online1: float
    base_on_online2: float
    tuned_on_online2: float

    def to_dict(self) -> dict:
        return {
            "base_on_online1": self.base_on_online1,
            "base_on_online2": self.base_on_online2,
            "tuned_on_online2": self.tuned_on_online2,
        }


def finetune_experiment(
    offline: Session,
    online1: Session,
    online2: Session,
    config: FeatureConfig = FeatureConfig(),
    params: PreprocessParams = PreprocessParams(),
    clf_kind: str = "lda",
) -> FinetuneReport:
    """Train on offline only vs offline+online1, test at sample level.

    The tuned decoder refits PCA and classifier on the combined windows of
    both training sessions.
    """
    base = train_decoder([offline], config, params, clf_kind)
    tuned = train_decoder([offline, online1], config, params, clf_kind)
    return FinetuneReport(
        base_on_online1=eval_samples(base, online1).accuracy,
        base_on_online2=eval_samples(base, online2).accuracy,
        tuned_on_online2=eval_samples(tuned, online2).accuracy,
    )


DECODER_META_NAME = "decoder.json"
PCA_PAYLOAD_NAME = "pca.f64le"


def save_decoder(decoder: Decoder, path) -> None:
    """Write a decoder directory: decoder.json, and with a PCA stage the
    components in pca.f64le, else remove one left there (see load_decoder)."""
    path = store.make_dir(path)
    pca, clf = decoder.pipeline.pca, decoder.clf
    pca_doc = None
    if pca is None:
        store.remove(path / PCA_PAYLOAD_NAME)
    else:
        pca_doc = {
            "mean": pca.mean.tolist(),
            "explained_variance_ratio": pca.explained_variance_ratio.tolist(),
            "sha256": store.write_f64(path / PCA_PAYLOAD_NAME, pca.components),
        }
    store.write_json(path / DECODER_META_NAME, {
        "preprocess": decoder.params.to_dict(),
        "features": decoder.pipeline.config.to_dict(),
        "classifier": {"kind": clf.kind, "weights": clf.weights.tolist(), "bias": clf.bias},
        "pca": pca_doc,
        "provenance": decoder.provenance,
    })


def _from_json(cls, doc: dict, where: str, **known):
    """``cls`` from ``doc``'s value for each field not ``known``, under json_setting."""
    defaults = {f.name: f.default for f in fields(cls) if f.name not in known}
    return cls(**known, **store.read_fields(doc, defaults, where))


DECODER_FIELDS = {"preprocess": {}, "features": {}, "classifier": {}, "provenance": {}}
CLASSIFIER_FIELDS = {"kind": "", "weights": [0.0], "bias": 0.0}
PCA_FIELDS = {"mean": [0.0], "explained_variance_ratio": [0.0], "sha256": ""}


def load_decoder(path) -> Decoder:
    """Load a decoder directory, refusing one whose parts disagree.

    decoder.json holds the settings, the classifier and, in a mode with
    PCA, the PCA's mean, its explained-variance ratios and the sha256 of
    pca.f64le, which holds the k x len(mean) components; in ``psd`` mode
    its ``pca`` is null. k is ``features.k``: the classifier has k weights
    and the PCA k ratios and k components, and the payload must be the one
    the digest names. A directory without a ``classifier`` section, as in
    the older layout with the classifier in a file of its own, is
    MalformedMeta.
    """
    path = Path(path)
    meta_path = path / DECODER_META_NAME
    doc = store.read_json(meta_path)
    sections = store.read_fields(doc, DECODER_FIELDS, meta_path)
    features = sections["features"]
    where = f"{meta_path}: features"
    try:
        params = _from_json(PreprocessParams, sections["preprocess"], f"{meta_path}: preprocess")
        known = {"welch": _from_json(WelchSpec, features, where)}
        if features.get("k", 0) is None:  # saved for modes without PCA
            known["k"] = None
        config = _from_json(FeatureConfig, features, where, **known)
    except ValueError as exc:
        raise MalformedMeta(f"{meta_path}: {exc}") from exc

    c = store.read_fields(sections["classifier"], CLASSIFIER_FIELDS, f"{meta_path}: classifier")
    if c["kind"] not in FIT_FUNCTIONS:
        raise MalformedMeta(f"{meta_path}: classifier kind {c['kind']!r} is not one of "
                            f"{sorted(FIT_FUNCTIONS)}")
    clf = LinearClassifier(
        kind=c["kind"], weights=np.array(c["weights"], dtype=np.float64), bias=c["bias"]
    )
    if "pca" not in doc or config.uses_pca != (doc["pca"] is not None):
        need = "an object" if config.uses_pca else "null"
        raise MalformedMeta(f"{meta_path}: mode {config.mode!r} needs a pca section of {need}")
    pca = None
    if config.uses_pca:
        if clf.n_features != config.k:
            raise DimensionMismatch(
                f"{meta_path}: {clf.n_features} classifier weights for k={config.k}")
        pca = _read_pca(path, doc["pca"], config.k)
    return Decoder(
        params=params,
        pipeline=FeaturePipeline(config=config, pca=pca),
        clf=clf,
        provenance=sections["provenance"],
    )


def _read_pca(path: Path, doc, k: int) -> PcaTransform:
    """The k-component PCA of decoder.json's ``pca`` section ``doc``."""
    where = f"{path / DECODER_META_NAME}: pca"
    p = store.read_fields(doc, PCA_FIELDS, where)
    mean = np.array(p["mean"], dtype=np.float64)
    ratios = np.array(p["explained_variance_ratio"], dtype=np.float64)
    if len(ratios) != k:
        raise MalformedMeta(f"{where}: {len(ratios)} explained_variance_ratio values for k={k}")
    payload_path = path / PCA_PAYLOAD_NAME
    components, digest = store.read_f64(payload_path, (k, len(mean)), DimensionMismatch)
    if digest != p["sha256"]:
        raise MalformedMeta(f"{payload_path}: sha256 {digest}, decoder.json names {p['sha256']}")
    if not np.isfinite(components).all():
        raise MalformedMeta(f"{payload_path}: a component holds NaN or Inf")
    return PcaTransform(mean=mean, components=components, explained_variance_ratio=ratios)
