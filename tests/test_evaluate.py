"""Cross-validation, component sweep, decoder training and persistence."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mi_decode.evaluate as evaluate
import mi_decode.features as features
from mi_decode.classify import fit_classifier
from mi_decode.dsp import PreprocessParams, WindowSet, windows_from_recording
from mi_decode.errors import (
    BadK,
    DimensionMismatch,
    IoFailure,
    LayoutMismatch,
    MalformedMeta,
    MissingFile,
    NoTrials,
    TooFewRuns,
)
from mi_decode.evaluate import (
    DECODER_META_NAME,
    PCA_PAYLOAD_NAME,
    CvReport,
    FeatureConfig,
    FinetuneReport,
    SweepReport,
    config_hash,
    cv_from_matrix,
    eval_samples,
    finetune_experiment,
    load_decoder,
    pca_sweep,
    runwise_cv,
    save_decoder,
    train_decoder,
)
from mi_decode.features import (
    CHUNK_WINDOWS,
    FeatureMatrix,
    WelchSpec,
    pca_fit,
    pca_transform,
    window_dots,
)
from mi_decode.session import EventKind, EventMarker, Recording, Session, SessionKind
from mi_decode.synth import SynthSpec, generate_session
from mi_decode.version import __version__

from conftest import SMALL_FEATURES, small_spec

L, R = 0, 1


# --- configuration ----------------------------------------------------------


def test_feature_config_modes():
    pca = FeatureConfig(mode="pca", k=10)
    psd = FeatureConfig(mode="psd")
    both = FeatureConfig(mode="psd+pca", k=10)
    assert pca.uses_pca and not pca.uses_psd
    assert psd.uses_psd and not psd.uses_pca
    assert both.uses_pca and both.uses_psd

    with pytest.raises(ValueError):
        FeatureConfig(mode="wavelet")
    with pytest.raises(BadK):
        FeatureConfig(mode="pca", k=None)
    with pytest.raises(BadK):
        FeatureConfig(mode="psd+pca", k=0)


def test_feature_config_to_dict_nulls_unused_k():
    doc = FeatureConfig(mode="psd", k=77).to_dict()
    assert doc["k"] is None
    assert doc["mode"] == "psd"
    assert doc["nperseg"] == 256


def test_config_hash_reacts_to_every_piece():
    params = PreprocessParams()
    config = FeatureConfig(mode="psd+pca", k=24)
    base = config_hash(params, config, "lda")
    assert len(base) == 64 and base == config_hash(params, config, "lda")
    assert base != config_hash(PreprocessParams(low_hz=5.0), config, "lda")
    assert base != config_hash(params, FeatureConfig(mode="psd+pca", k=25), "lda")
    assert base != config_hash(params, config, "centroid")


# --- cross-validation -------------------------------------------------------


def _separable_matrix(n_runs=4, per_run=30, d=6, seed=4501, gap=4.0):
    rng = np.random.default_rng(seed)
    X, y, runs = [], [], []
    for r in range(n_runs):
        for lbl in (L, R):
            rows = rng.standard_normal((per_run // 2, d))
            rows[:, 0] += gap if lbl == R else -gap
            X.append(rows)
            y.extend([lbl] * (per_run // 2))
            runs.extend([r] * (per_run // 2))
    n = n_runs * per_run
    return FeatureMatrix(
        X=np.vstack(X),
        labels=np.array(y),
        trial_index=np.arange(n),
        run_index=np.array(runs),
    )


def test_cv_folds_are_runs():
    fm = _separable_matrix()
    rep = cv_from_matrix(fm, FeatureConfig(mode="pca", k=3))
    assert rep.n_folds == 4
    assert rep.fold_runs == (0, 1, 2, 3)
    assert rep.fold_accuracy == (1.0, 1.0, 1.0, 1.0)
    assert rep.mean == 1.0 and rep.std == 0.0
    assert rep.config["classifier"] == "lda"


def test_cv_needs_two_runs():
    fm = _separable_matrix(n_runs=1)
    with pytest.raises(TooFewRuns):
        cv_from_matrix(fm, FeatureConfig(mode="pca", k=3))


def test_cv_fits_pipeline_on_training_rows_only(monkeypatch):
    calls = []
    orig = evaluate.fit_pipeline

    def spy(raw_X, config):
        calls.append(raw_X.shape[0])
        return orig(raw_X, config)

    monkeypatch.setattr(evaluate, "fit_pipeline", spy)
    fm = _separable_matrix(n_runs=4, per_run=30)
    cv_from_matrix(fm, FeatureConfig(mode="pca", k=3))
    # every fold fits on the 90 training rows, never on the held-out 30
    assert calls == [90, 90, 90, 90]


@pytest.mark.parametrize("shape", [(200, 3000), (3000, 200)])  # Gram Xc Xc^T; Xc^T Xc
def test_pca_fit_holds_no_second_copy_of_the_rows(shape):
    rng = np.random.default_rng(4503)
    X = rng.standard_normal(shape)
    tracemalloc.start()
    try:
        _, Z = evaluate.fit_pipeline(X, FeatureConfig(mode="pca", k=20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert Z.shape == (shape[0], 20)
    # the rows are centered in place: a centered copy alone is X.nbytes
    assert peak < 0.5 * X.nbytes


def test_cv_report_to_dict():
    rep = CvReport(fold_accuracy=(0.5, 0.7), fold_runs=(0, 1), config={"a": 1})
    doc = rep.to_dict()
    assert doc["mean"] == pytest.approx(0.6)
    assert doc["fold_accuracy"] == [0.5, 0.7]
    assert doc["config"] == {"a": 1}


def test_runwise_cv_learns_the_small_session(small_offline):
    rep = runwise_cv(small_offline, SMALL_FEATURES)
    assert rep.n_folds == 2
    assert rep.mean > 0.65


def test_shuffled_labels_drop_to_chance(small_offline):
    ws = windows_from_recording(small_offline.recording, PreprocessParams())
    fm = evaluate.raw_feature_matrix(ws, SMALL_FEATURES)
    rng = np.random.default_rng(4502)
    shuffled = FeatureMatrix(
        X=fm.X,
        labels=rng.permutation(fm.labels),
        trial_index=fm.trial_index,
        run_index=fm.run_index,
    )
    rep = cv_from_matrix(shuffled, SMALL_FEATURES)
    assert 0.3 < rep.mean < 0.7


# --- PCA sweep --------------------------------------------------------------


def test_sweep_best_k_breaks_ties_downward():
    rep = SweepReport(
        points=((4, 0.9), (8, 0.9), (16, 0.85)),
        reports=(),
    )
    assert rep.best_k == 4
    doc = rep.to_dict()
    assert doc["best_k"] == 4
    assert doc["points"][0] == {"k": 4, "mean_accuracy": 0.9}


def _reference_fold_accuracies(fm, fit_k, ks):
    """Per-k fold accuracies of run-wise CV whose training rows, like its
    held-out rows, are projected with pca_transform."""
    per_fold = []
    for r in np.unique(fm.run_index):
        test = fm.run_index == r
        pca = pca_fit(fm.X[~test], fit_k)
        Ztr, Zte = pca_transform(pca, fm.X[~test]), pca_transform(pca, fm.X[test])
        per_fold.append([
            float(np.mean(fit_classifier("lda", Ztr[:, :k], fm.labels[~test])
                          .predict(Zte[:, :k]) == fm.labels[test]))
            for k in ks
        ])
    return [tuple(accs[i] for accs in per_fold) for i in range(len(ks))]


def test_pca_sweep_on_session(small_offline, monkeypatch):
    fits = []
    orig = evaluate.fit_pipeline

    def spy(raw_X, config):
        fits.append(config.k)
        return orig(raw_X, config)

    monkeypatch.setattr(evaluate, "fit_pipeline", spy)
    built = []
    raw_feature_matrix = evaluate.raw_feature_matrix

    def keep_rows(*args):
        fm = raw_feature_matrix(*args)
        built.append((fm, fm.X.copy()))
        return fm

    monkeypatch.setattr(evaluate, "raw_feature_matrix", keep_rows)
    sweep = pca_sweep(small_offline, ks=(8, 24), config=SMALL_FEATURES)
    monkeypatch.setattr(evaluate, "raw_feature_matrix", raw_feature_matrix)
    [(swept, X0)] = built
    assert swept.X.tobytes() == X0.tobytes()  # folds center copies of the rows
    assert [k for k, _ in sweep.points] == [8, 24]
    assert all(0.0 <= a <= 1.0 for _, a in sweep.points)
    assert len(sweep.reports) == 2
    assert sweep.best_k in (8, 24)
    assert fits == [24, 24]  # one PCA fit per fold, at the largest k

    again = pca_sweep(small_offline, ks=(8, 24), config=SMALL_FEATURES)
    assert again.points == sweep.points

    # slicing the largest fit scores each k as a fit at that k does
    fm = evaluate.raw_feature_matrix(
        windows_from_recording(small_offline.recording, PreprocessParams()), SMALL_FEATURES
    )
    for (k, mean), rep in zip(sweep.points, sweep.reports):
        single = cv_from_matrix(fm, replace(SMALL_FEATURES, k=k))
        assert mean == single.mean
        assert rep.to_dict() == single.to_dict()
        assert fm.X.tobytes() == X0.tobytes()

    # the classifier is fit on the PCA fit's own rows, as on rows projected again
    assert [rep.fold_accuracy for rep in sweep.reports] == _reference_fold_accuracies(
        fm, 24, (8, 24))


@pytest.mark.parametrize("case", ["more-rows-than-features", "time-domain"])
def test_cv_fits_on_the_pca_fit_rows_as_on_projected_rows(case, small_offline):
    if case == "time-domain":  # 102 training rows of 6656 features, k=30
        config = FeatureConfig(mode="pca", k=30)
        ws = windows_from_recording(small_offline.recording, PreprocessParams())
        fm = evaluate.raw_feature_matrix(ws, config)
    else:  # 90 training rows of 6 features, k=3
        config, fm = FeatureConfig(mode="pca", k=3), _separable_matrix(gap=0.5)
    X0 = fm.X.copy()
    rep = cv_from_matrix(fm, config)
    assert fm.X.tobytes() == X0.tobytes()
    assert [rep.fold_accuracy] == _reference_fold_accuracies(fm, config.k, [config.k])


def test_pca_sweep_rejects_bad_input(small_offline):
    with pytest.raises(BadK):
        pca_sweep(small_offline, ks=())
    with pytest.raises(BadK):
        pca_sweep(small_offline, ks=(8,), config=FeatureConfig(mode="psd"))


@pytest.mark.parametrize("ks", [(0, 8), (-3, 8)])
def test_pca_sweep_refuses_k_below_1_before_windowing(small_offline, monkeypatch, ks):
    # unchecked, k=0 would fit LDA on no columns and k=-3 every fold on all
    # but 3 columns, before any report is built
    def no_windows(*args, **kwargs):
        raise AssertionError("windowed before checking ks")

    monkeypatch.setattr(evaluate, "windows_from_recording", no_windows)
    with pytest.raises(BadK, match=f"got {min(ks)}"):
        pca_sweep(small_offline, ks=ks, config=SMALL_FEATURES)


def test_pca_cv_flattens_fold_rows_without_the_session_matrix(small_offline):
    config = FeatureConfig(mode="pca", k=8)
    ws = windows_from_recording(small_offline.recording, PreprocessParams())
    tracemalloc.start()
    try:
        sweep = pca_sweep(small_offline, ks=(4, 8), config=config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole session's flattened rows would take n_windows x 6656 x 8 bytes
    assert peak < ws.n_windows * 6656 * 8
    # the folds score as on the rows of the session matrix
    fm = features.flatten_windows(ws)
    for k, rep in zip((4, 8), sweep.reports):
        assert rep.to_dict() == cv_from_matrix(fm, replace(config, k=k)).to_dict()
    assert runwise_cv(small_offline, config).to_dict() == sweep.reports[1].to_dict()


# --- decoder training -------------------------------------------------------


def test_train_decoder_provenance(small_offline):
    decoder = train_decoder([small_offline], SMALL_FEATURES)
    prov = decoder.provenance
    assert prov["sessions"] == ["synth201:Offline:2runs"]
    # 2 runs x 6 trials x 17 one-second windows per 2 s feedback phase
    assert prov["n_windows"] == 204
    assert prov["config_hash"] == config_hash(
        PreprocessParams(), SMALL_FEATURES, "lda"
    )
    assert prov["version"] == __version__


def test_train_decoder_is_deterministic(small_offline, tmp_path):
    a = train_decoder([small_offline], SMALL_FEATURES)
    b = train_decoder([small_offline], SMALL_FEATURES)
    save_decoder(a, tmp_path / "a")
    save_decoder(b, tmp_path / "b")
    for name in (DECODER_META_NAME, PCA_PAYLOAD_NAME):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_decoder_union(small_offline, small_online):
    base = train_decoder([small_offline], SMALL_FEATURES)
    tuned = train_decoder([small_offline, small_online], SMALL_FEATURES)
    assert tuned.provenance["n_windows"] == 2 * base.provenance["n_windows"]
    assert tuned.provenance["sessions"] == [
        "synth201:Offline:2runs",
        "synth202:Online1:2runs",
    ]
    # refit on the union, not a reuse of the base transform
    assert not np.array_equal(
        tuned.pipeline.pca.components, base.pipeline.pca.components
    )


def test_train_decoder_fills_one_matrix_from_several_sessions(small_offline, small_online,
                                                              tmp_path):
    config = FeatureConfig(mode="pca", k=8)
    sessions = [small_offline, small_online]
    tracemalloc.start()
    try:
        tuned = train_decoder(sessions, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = tuned.provenance["n_windows"]
    # the training matrix and one session's rows beside it take 1.5 times
    # its bytes; stacking every session's rows held two training matrices
    assert peak < 1.9 * n * 6656 * 8

    # the same fit as on the stacked rows
    rows = [evaluate.raw_feature_matrix(
        windows_from_recording(s.recording, PreprocessParams()), config) for s in sessions]
    pipe, Z = evaluate.fit_pipeline(np.vstack([fm.X for fm in rows]), config)
    assert pipe.pca.components.tobytes() == tuned.pipeline.pca.components.tobytes()
    clf = fit_classifier("lda", Z, np.concatenate([fm.labels for fm in rows]))
    assert clf.weights.tobytes() == tuned.clf.weights.tobytes()
    assert clf.bias == tuned.clf.bias


def test_train_decoder_layout_checks(small_offline):
    with pytest.raises(LayoutMismatch):
        train_decoder([], SMALL_FEATURES)
    other = generate_session(
        small_spec(203, n_channels=10), SessionKind.Online1
    )
    with pytest.raises(LayoutMismatch):
        train_decoder([small_offline, other], SMALL_FEATURES)


# --- sample-level evaluation ------------------------------------------------


def test_eval_samples_confusion_consistency(small_decoder, small_online):
    rep = eval_samples(small_decoder, small_online)
    conf = np.array(rep.confusion)
    assert conf.sum() == rep.n_windows == 204
    assert rep.accuracy == pytest.approx((conf[0, 0] + conf[1, 1]) / rep.n_windows)
    doc = rep.to_dict()
    assert doc["confusion"] == [list(r) for r in rep.confusion]


def test_eval_samples_label_flip_complements(small_decoder, small_online):
    rec = small_online.recording
    swap = {
        EventKind.CueLeft: EventKind.CueRight,
        EventKind.CueRight: EventKind.CueLeft,
    }
    flipped_events = tuple(
        EventMarker(ev.sample_index, swap.get(ev.kind, ev.kind), ev.run_index)
        for ev in rec.events
    )
    flipped = Session(
        Recording(rec.samples, rec.fs, rec.channel_labels, flipped_events),
        small_online.meta,
    )
    rep = eval_samples(small_decoder, small_online)
    rep_f = eval_samples(small_decoder, flipped)
    assert rep.accuracy + rep_f.accuracy == pytest.approx(1.0, abs=1e-12)
    assert rep_f.confusion == (rep.confusion[1], rep.confusion[0])


def test_eval_samples_needs_trials(small_decoder, small_online):
    rec = small_online.recording
    bare = Session(
        Recording(rec.samples, rec.fs, rec.channel_labels, ()),
        small_online.meta,
    )
    with pytest.raises(NoTrials):
        eval_samples(small_decoder, bare)


def test_decoder_generalization_gap():
    train = generate_session(
        SynthSpec(seed=31, n_runs=2, trials_per_run=8, feedback_s=2.0),
        SessionKind.Offline,
    )
    test = generate_session(
        SynthSpec(seed=32, n_runs=2, trials_per_run=8, feedback_s=2.0),
        SessionKind.Online1,
    )
    decoder = train_decoder([train], SMALL_FEATURES)
    on_train = eval_samples(decoder, train).accuracy
    on_test = eval_samples(decoder, test).accuracy
    assert on_train >= on_test
    assert on_train > 0.95
    assert on_test > 0.6


# --- fine-tuning ------------------------------------------------------------


def test_finetune_on_identical_online_sessions():
    offline = generate_session(small_spec(41), SessionKind.Offline)
    online = generate_session(small_spec(42), SessionKind.Online1)
    rep = finetune_experiment(offline, online, online, SMALL_FEATURES)
    # fine-tuning saw the test session itself, so it cannot do worse
    assert rep.tuned_on_online2 >= rep.base_on_online2
    assert rep.tuned_on_online2 > 0.9
    doc = rep.to_dict()
    assert set(doc) == {"base_on_online1", "base_on_online2", "tuned_on_online2"}
    assert isinstance(rep, FinetuneReport)


# --- decoder persistence ----------------------------------------------------


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_decoder_round_trip(small_offline, small_online, tmp_path):
    ws = windows_from_recording(small_online.recording, PreprocessParams())
    for mode, k in [("pca", 8), ("psd", None), ("psd+pca", 24)]:
        for kind in ("lda", "centroid"):
            decoder = train_decoder([small_offline], FeatureConfig(mode=mode, k=k),
                                    clf_kind=kind)
            a, b = tmp_path / f"{mode}-{kind}-a", tmp_path / f"{mode}-{kind}-b"
            save_decoder(decoder, a)
            back = load_decoder(a)
            assert back.params == decoder.params
            assert back.pipeline.config == decoder.pipeline.config
            assert back.provenance == decoder.provenance
            # every number travels as binary64: the reloaded decoder scores
            # and votes exactly as the one it was saved from
            assert np.array_equal(back.clf.score(back.transform(ws)),
                                  decoder.clf.score(decoder.transform(ws)))
            assert np.array_equal(back.predict_windows(ws), decoder.predict_windows(ws))
            save_decoder(back, b)
            assert _files(b) == _files(a)


def test_psd_decoder_round_trip(small_offline, small_online, tmp_path):
    decoder = train_decoder([small_offline], FeatureConfig(mode="psd"))
    save_decoder(decoder, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [DECODER_META_NAME]
    ws = decoder.windows(small_online.recording)
    back = load_decoder(tmp_path)
    assert back.pipeline.pca is None
    assert np.array_equal(back.predict_windows(ws), decoder.predict_windows(ws))
    meta = tmp_path / DECODER_META_NAME
    doc = json.loads(meta.read_text(encoding="utf-8"))
    assert sorted(doc) == ["classifier", "features", "pca", "preprocess", "provenance"]
    assert sorted(doc["features"]) == ["k", "mode", "noverlap", "nperseg"]
    assert sorted(doc["classifier"]) == ["bias", "kind", "weights"]
    assert doc["pca"] is None
    # keys a reader does not ask for are ignored
    doc["features"].update(per_channel=True, taper="hann")
    doc["classifier"].update(class_means=[[0.0] * len(doc["classifier"]["weights"])] * 2,
                             priors=[0.5, 0.5])
    meta.write_text(json.dumps(doc), encoding="utf-8")
    old = load_decoder(tmp_path)
    assert old.pipeline.config == back.pipeline.config
    assert np.array_equal(old.predict_windows(ws), decoder.predict_windows(ws))


def test_saving_without_pca_removes_an_earlier_payload(small_offline, small_online,
                                                       tmp_path):
    ws = windows_from_recording(small_online.recording, PreprocessParams())
    save_decoder(train_decoder([small_offline], FeatureConfig(mode="psd+pca", k=12)),
                 tmp_path)
    assert (tmp_path / PCA_PAYLOAD_NAME).is_file()
    decoder = train_decoder([small_offline], FeatureConfig(mode="psd"))
    save_decoder(decoder, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [DECODER_META_NAME]
    assert np.array_equal(load_decoder(tmp_path).predict_windows(ws),
                          decoder.predict_windows(ws))


def test_a_payload_that_cannot_be_removed_is_io_failure(psd_decoder, tmp_path):
    (tmp_path / PCA_PAYLOAD_NAME).mkdir()  # unlink refuses a directory
    with pytest.raises(IoFailure, match="cannot remove"):
        save_decoder(psd_decoder, tmp_path)


# --- folded PCA scoring -----------------------------------------------------


def _two_step_prediction(decoder, ws):
    return decoder.clf.predict(decoder.transform(ws))


@pytest.mark.parametrize(
    "mode,k,clf_kind",
    [("pca", 8, "lda"), ("psd+pca", 24, "lda"), ("pca", 8, "centroid"),
     ("psd+pca", 24, "centroid")],
)
def test_predict_windows_equals_two_step_path(small_offline, small_online, tmp_path,
                                              mode, k, clf_kind):
    decoder = train_decoder([small_offline], FeatureConfig(mode=mode, k=k), clf_kind=clf_kind)
    save_decoder(decoder, tmp_path)
    back = load_decoder(tmp_path)
    ws = decoder.windows(small_online.recording)
    for d in (decoder, back):
        assert np.array_equal(d.predict_windows(ws), _two_step_prediction(d, ws))
    # nothing of the fold is saved
    assert sorted(p.name for p in tmp_path.iterdir()) == [DECODER_META_NAME, PCA_PAYLOAD_NAME]


@pytest.mark.parametrize("decoder_name", ["small_pca_decoder", "small_decoder"],
                         ids=["pca", "psd+pca"])
def test_unsure_rows_fall_back_to_the_two_step_path(decoder_name, small_online, request,
                                                    monkeypatch):
    # pca windows are scored from signal blocks (predict_windows), psd+pca
    # rows from their Welch features (_predict_rows); both share _votes
    decoder = request.getfixturevalue(decoder_name)
    ws = decoder.windows(small_online.recording)
    X = evaluate.raw_feature_matrix(ws, decoder.pipeline.config).X
    folded = decoder._folded
    bound = folded.slope * np.linalg.norm(X, axis=1) + folded.offset
    # shift the bias so that window j's two-step score sits at a tenth of
    # the bound: positive, but too close to 0 for the folded sign to count
    j = len(X) // 2
    z_w = decoder.transform(ws) @ decoder.clf.weights
    clf = replace(decoder.clf, bias=float(bound[j] / 10 - z_w[j]))
    shifted = replace(decoder, clf=clf)
    assert clf.score(shifted.transform(ws))[j] > 0
    _, certified = shifted._folded.scores(X)
    flagged = np.flatnonzero(~certified)
    assert j in flagged and len(flagged) < len(X)

    rows = []

    def counting_transform(pca, Xr):
        rows.append(np.array(Xr))
        return pca_transform(pca, Xr)

    monkeypatch.setattr(evaluate, "pca_transform", counting_transform)
    pred = shifted.predict_windows(ws)
    monkeypatch.undo()
    assert np.array_equal(pred, _two_step_prediction(shifted, ws))
    # exactly the flagged rows were rescored, one row at a time
    assert len(rows) == len(flagged)
    assert all(r.shape == (1, X.shape[1]) for r in rows)
    assert np.array_equal(np.vstack(rows), X[flagged])

    # streamed one window at a time, every trial gets the batch votes, and
    # window j's row is rescored on the two-step path there too
    rows.clear()
    monkeypatch.setattr(evaluate, "pca_transform", counting_transform)
    for _, sl in ws.trial_slices():
        assert list(shifted.stream_votes(ws[sl])) == pred[sl].tolist()
    monkeypatch.undo()
    assert any(np.array_equal(r[0], X[j]) for r in rows)


def _window_set(signal, starts, win_step):
    starts = np.asarray(starts)
    n = len(starts)
    return WindowSet(signal=signal, starts=starts, labels=np.zeros(n, dtype=np.int64),
                     trial_index=np.arange(n), run_index=np.zeros(n, dtype=np.int64),
                     fs=512.0, win_len=512, win_step=win_step)


@pytest.mark.parametrize("case", ["irregular", "step-20", "step-33", "step-480",
                                  "over-one-chunk", "one-window"])
def test_block_scores_match_flattened_rows(small_pca_decoder, small_online, case):
    signal = small_pca_decoder.windows(small_online.recording).signal
    last = signal.shape[0] - 512
    if case == "irregular":  # overlapping, repeated and out of order
        starts, step = [640, 96, 96, 0, 32, 5000, 4999, 64, last, 640, 33], 32
    elif case == "step-20":  # 20 does not divide 512: blocks of gcd = 4 samples
        starts, step = np.r_[np.arange(0, 1200, 20), [3, 2001, 20]], 20
    elif case == "step-33":  # coprime with 512: one-sample blocks, chunks of 15
        starts, step = np.arange(0, last + 1, 33), 33
    elif case == "step-480":  # neighbours share one 32-sample block of 16
        starts, step = np.arange(0, last + 1, 480), 480
    elif case == "over-one-chunk":
        rng = np.random.default_rng(7)
        starts, step = rng.integers(0, last + 1, size=CHUNK_WINDOWS + 90), 32
    else:
        starts, step = [777], 32
    ws = _window_set(signal, starts, step)
    d = small_pca_decoder

    assert np.array_equal(d.predict_windows(ws), _two_step_prediction(d, ws))
    folded = d._folded
    dots, sq_norms = window_dots(ws, folded.weights)
    X = ws.flattened()
    s_rows = X @ folded.weights + folded.bias
    bound = folded.slope * np.linalg.norm(X, axis=1) + folded.offset
    assert np.all(np.abs(dots + folded.bias - s_rows) <= bound)
    assert np.allclose(sq_norms, np.einsum("ij,ij->i", X, X), rtol=1e-12, atol=0)


def test_window_dots_product_stays_small_at_a_coprime_step(small_pca_decoder, small_online):
    signal = small_pca_decoder.windows(small_online.recording).signal
    ws = _window_set(signal, np.arange(0, signal.shape[0] - 511, 33), 33)
    tracemalloc.start()
    try:
        window_dots(ws, small_pca_decoder._folded.weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one-sample blocks: a chunk of CHUNK_WINDOWS windows would hold about
    # 33 x CHUNK_WINDOWS blocks, each scored at all 512 positions
    assert peak < 8 * CHUNK_WINDOWS * 512 * 8


def test_window_dots_refuses_a_width_the_weights_do_not_have(small_pca_decoder, small_online):
    ws = small_pca_decoder.windows(small_online.recording)
    with pytest.raises(DimensionMismatch, match="13 x 512"):
        window_dots(ws, small_pca_decoder._folded.weights[:-13])


def test_pca_scoring_builds_no_window_rows(small_pca_decoder, small_online, monkeypatch):
    ws = small_pca_decoder.windows(small_online.recording)
    n, d = ws.n_windows, ws.n_channels * ws.win_len
    flattened, flatten_windows = WindowSet.flattened, features.flatten_windows
    built = []

    def spy_flattened(self):
        X = flattened(self)
        built.append(X.shape)
        return X

    def spy_flatten_windows(ws):
        built.append(("flatten_windows", ws.n_windows))
        return flatten_windows(ws)

    monkeypatch.setattr(WindowSet, "flattened", spy_flattened)
    for module in (features, evaluate):
        monkeypatch.setattr(module, "flatten_windows", spy_flatten_windows)
    tracemalloc.start()
    try:
        pred = small_pca_decoder.predict_windows(ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    report = eval_samples(small_pca_decoder, small_online)
    assert built == []
    # nothing close to the n x d matrix of flattened rows was allocated
    assert peak < n * d * 8 / 4
    monkeypatch.undo()
    assert np.array_equal(pred, _two_step_prediction(small_pca_decoder, ws))
    assert report.accuracy == float(np.mean(pred == ws.labels))


def test_load_decoder_detects_swapped_pca(small_decoder, tmp_path):
    save_decoder(small_decoder, tmp_path)
    # overwrite the PCA payload with a different matrix of the same shape
    rng = np.random.default_rng(4503)
    k, d = small_decoder.pipeline.pca.components.shape
    fake = rng.standard_normal((k, d)).astype("<f8")
    (tmp_path / PCA_PAYLOAD_NAME).write_bytes(fake.tobytes())
    with pytest.raises(MalformedMeta, match="sha256"):
        load_decoder(tmp_path)


def _cut(doc, *lists):
    """Drop the last item of each list named ``section.key`` in doc."""
    for name in lists:
        section, key = name.split(".")
        doc[section][key] = doc[section][key][:-1]


def _cut_k(doc, *lists):
    doc["features"]["k"] -= 1
    _cut(doc, *lists)


# name: (decoder fixture, edit(decoder.json's document, payload path), error);
# the first three edits loaded before decoder.json held the classifier and PCA
DISAGREEING_PARTS = {
    "k-over-the-pca": (
        "small_decoder", lambda doc, _: doc["features"].update(k=800), DimensionMismatch),
    "unknown-classifier-kind": (
        "small_decoder", lambda doc, _: doc["classifier"].update(kind="svm"), MalformedMeta),
    "psd-mode-over-a-pca-classifier": (
        "small_decoder", lambda doc, _: doc["features"].update(mode="psd"), MalformedMeta),
    "pca-section-in-psd-mode": ("psd_decoder", lambda doc, _: doc.update(pca={
        "mean": [0.0], "explained_variance_ratio": [1.0], "sha256": "0" * 64}), MalformedMeta),
    "no-pca-section-in-pca-mode": (
        "small_decoder", lambda doc, _: doc.update(pca=None), MalformedMeta),
    "pca-section-left-out": ("small_pca_decoder", lambda doc, _: doc.pop("pca"), MalformedMeta),
    "pca-section-not-an-object": (
        "small_decoder", lambda doc, _: doc.update(pca=[1.0]), MalformedMeta),
    "classifier-section-not-an-object": (
        "small_decoder", lambda doc, _: doc.update(classifier=[]), MalformedMeta),
    "weight-count-not-k": (
        "small_pca_decoder", lambda doc, _: _cut(doc, "classifier.weights"), DimensionMismatch),
    "ratio-count-not-k": (
        "small_decoder", lambda doc, _: _cut(doc, "pca.explained_variance_ratio"), MalformedMeta),
    "k-and-weights-cut": (
        "small_decoder", lambda doc, _: _cut_k(doc, "classifier.weights"), MalformedMeta),
    "k-weights-and-ratios-cut": ("small_decoder", lambda doc, _: _cut_k(
        doc, "classifier.weights", "pca.explained_variance_ratio"), DimensionMismatch),
    "mean-longer-than-the-payload-rows": (
        "small_decoder", lambda doc, _: doc["pca"]["mean"].append(0.0), DimensionMismatch),
    "digest-of-another-payload": (
        "small_decoder", lambda doc, _: doc["pca"].update(sha256="0" * 64), MalformedMeta),
    "payload-short": (
        "small_pca_decoder", lambda _, p: p.write_bytes(p.read_bytes()[:-8]), DimensionMismatch),
    "payload-long": (
        "small_decoder", lambda _, p: p.write_bytes(p.read_bytes() + bytes(8)), DimensionMismatch),
    "payload-missing": ("small_decoder", lambda _, p: p.unlink(), MissingFile),
}


@pytest.fixture(scope="module")
def psd_decoder(small_offline):
    return train_decoder([small_offline], FeatureConfig(mode="psd"), clf_kind="centroid")


@pytest.mark.parametrize("case", DISAGREEING_PARTS)
def test_load_decoder_refuses_parts_that_disagree(case, request, tmp_path):
    fixture, edit, error = DISAGREEING_PARTS[case]
    save_decoder(request.getfixturevalue(fixture), tmp_path)
    load_decoder(tmp_path)  # as saved, the parts agree
    meta = tmp_path / DECODER_META_NAME
    doc = json.loads(meta.read_text(encoding="utf-8"))
    edit(doc, tmp_path / PCA_PAYLOAD_NAME)
    meta.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(error):
        load_decoder(tmp_path)


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("preprocess", "car", "false"),
        ("features", "noverlap", "128"),
        ("preprocess", "order", 4.7),
        ("preprocess", "low_hz", "4"),
        ("features", "nperseg", 256.5),
    ],
)
def test_decoder_json_is_refused_not_coerced(small_decoder, tmp_path, section, key, value):
    save_decoder(small_decoder, tmp_path)
    meta = tmp_path / DECODER_META_NAME
    doc = json.loads(meta.read_text(encoding="utf-8"))
    doc[section][key] = value
    meta.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedMeta, match=key):
        load_decoder(tmp_path)


def test_decoder_round_trip_of_every_setting(small_offline, tmp_path):
    # every field off its default
    params = PreprocessParams(
        low_hz=6.5, high_hz=28.0, order=6, car=False, win_len_s=0.5, step_s=0.125
    )
    config = FeatureConfig(mode="psd+pca", k=12, welch=WelchSpec(nperseg=128, noverlap=32))
    decoder = train_decoder([small_offline], config, params, clf_kind="centroid")
    save_decoder(decoder, tmp_path / "a")
    back = load_decoder(tmp_path / "a")
    assert back.params == params
    assert back.pipeline.config == config
    assert back.clf.kind == "centroid"
    save_decoder(back, tmp_path / "b")
    assert _files(tmp_path / "b") == _files(tmp_path / "a")


def test_load_decoder_missing_and_malformed(small_decoder, tmp_path):
    with pytest.raises(MissingFile):
        load_decoder(tmp_path / "nope")
    save_decoder(small_decoder, tmp_path)
    meta = tmp_path / DECODER_META_NAME
    doc = json.loads(meta.read_text(encoding="utf-8"))
    del doc["features"]
    meta.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedMeta):
        load_decoder(tmp_path)
