"""End-to-end command-line workflows (in-process; the tests of a closed
stdout pipe and of a warning's stderr line run the CLI as a process)."""

import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mi_decode
from mi_decode import store
from mi_decode.classify import fit_classifier
from mi_decode.cli import SETTINGS, main
from mi_decode.dsp import PreprocessParams, windows_from_recording
from mi_decode.evaluate import Decoder, FeatureConfig, FeaturePipeline, save_decoder
from mi_decode.features import psd_features
from mi_decode.session import EventKind, SessionKind, load_session, save_session
from mi_decode.synth import SynthSpec, generate_session
from mi_decode.version import __version__

SESSION_FILES = ("meta.json", "samples.f32le")

GENERATE_ARGS = [
    "--seed", "301",
    "--n-runs", "2",
    "--trials-per-run", "6",
    "--feedback-s", "2.0",
    "--online-runs", "2",
]


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    study = root / "study"
    rc = main(
        ["generate", "--out", str(study)]
        + GENERATE_ARGS
        + ["--report", str(root / "gen.json")]
    )
    assert rc == 0
    decoder = root / "decoder"
    rc = main(
        [
            "train",
            "--session", str(study / "offline"),
            "--out", str(decoder),
            "--mode", "psd+pca",
            "--pca", "24",
            "--report", str(root / "train.json"),
        ]
    )
    assert rc == 0
    return root, study, decoder


# --- generate ---------------------------------------------------------------


def test_generate_writes_three_sessions(cli_env):
    root, study, _ = cli_env
    for name in ("offline", "online1", "online2"):
        for fname in SESSION_FILES:
            assert (study / name / fname).is_file()
    doc = json.loads((root / "gen.json").read_text(encoding="utf-8"))
    assert doc["command"] == "generate"
    assert doc["version"] == __version__
    assert doc["config"]["seed"] == 301
    assert len(doc["config_hash"]) == 64
    assert sorted(doc["sessions"]) == ["offline", "online1", "online2"]


def test_generate_is_deterministic(cli_env, tmp_path, capsys):
    _, study, _ = cli_env
    doc = run_json(capsys, ["generate", "--out", str(tmp_path / "again")] + GENERATE_ARGS)
    assert doc["command"] == "generate"
    for name in ("offline", "online1", "online2"):
        for fname in SESSION_FILES:
            assert (tmp_path / "again" / name / fname).read_bytes() == (
                study / name / fname
            ).read_bytes()


def test_generate_missing_out_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["generate"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


# --- train ------------------------------------------------------------------


def test_train_report_and_files(cli_env):
    root, _, decoder = cli_env
    doc = json.loads((root / "train.json").read_text(encoding="utf-8"))
    assert doc["command"] == "train"
    assert doc["decoder"]["n_features"] == 24
    prov = doc["decoder"]["provenance"]
    assert prov["sessions"] == ["synth301:Offline:2runs"]
    assert prov["n_windows"] == 204
    assert sorted(p.name for p in decoder.iterdir()) == ["decoder.json", "pca.f64le"]


def test_train_rejects_missing_session(tmp_path):
    rc = main(
        ["train", "--session", str(tmp_path / "nope"), "--out", str(tmp_path / "d")]
    )
    assert rc == 1


def test_train_report_config_holds_the_saved_feature_settings(cli_env, tmp_path, capsys):
    # a setting the mode ignores reads null in the report, as in decoder.json,
    # so two runs that build the same decoder carry the same config hash
    root, study, decoder = cli_env
    out = tmp_path / "dec"
    train = ["train", "--session", str(study / "offline"), "--out", str(out), "--mode", "psd"]
    docs = [run_json(capsys, train + extra) for extra in ([], ["--pca", "24"])]
    with_pca = json.loads((root / "train.json").read_text(encoding="utf-8"))
    for doc, dec in ((docs[0], out), (docs[1], out), (with_pca, decoder)):
        saved = json.loads((dec / "decoder.json").read_text(encoding="utf-8"))["features"]
        cfg = doc["config"]
        assert (cfg["feature_mode"], cfg["k"], cfg["nperseg"], cfg["noverlap"]) == (
            saved["mode"], saved["k"], saved["nperseg"], saved["noverlap"])
        assert doc["config_hash"] == store.json_hash(cfg)
    assert docs[0]["config"]["k"] is None and with_pca["config"]["k"] == 24
    assert docs[0]["config_hash"] == docs[1]["config_hash"]


# --- evaluation commands ----------------------------------------------------


def test_eval_samples_stdout_json(cli_env, capsys):
    _, study, decoder = cli_env
    doc = run_json(
        capsys,
        ["eval-samples", "--decoder", str(decoder), "--session", str(study / "online1")],
    )
    assert doc["command"] == "eval-samples"
    samples = doc["samples"]
    assert samples["n_windows"] == 204
    assert 0.0 <= samples["accuracy"] <= 1.0
    assert np.sum(samples["confusion"]) == 204
    assert doc["decoder_provenance"]["sessions"] == ["synth301:Offline:2runs"]


def test_eval_trials_counts(cli_env, capsys):
    _, study, decoder = cli_env
    doc = run_json(
        capsys,
        [
            "eval-trials",
            "--decoder", str(decoder),
            "--session", str(study / "online1"),
            "--theta", "0.3",
            "--delta", "0.1",
        ],
    )
    trials = doc["trials"]
    assert trials["n_trials"] == 12
    assert trials["correct_n"] + trials["incorrect_n"] + trials["timeout_n"] == 12
    assert len(trials["trials"]) == 12
    assert doc["config"]["theta"] == 0.3
    for t in trials["trials"]:
        assert t["decision"] in ("Left", "Right", "Timeout")


def test_replay_matches_causal_eval_trials(cli_env, capsys):
    _, study, decoder = cli_env
    common = ["--decoder", str(decoder), "--session", str(study / "online2")]
    batch = run_json(
        capsys,
        ["eval-trials"] + common + ["--theta", "0.3", "--delta", "0.1", "--causal"],
    )
    streamed = run_json(
        capsys, ["replay"] + common + ["--theta", "0.3", "--delta", "0.1"]
    )
    assert streamed["command"] == "replay"
    assert streamed["trials"] == batch["trials"]


def test_replay_event_lines(cli_env, tmp_path, capsys):
    _, study, decoder = cli_env
    report_path = tmp_path / "replay.json"
    rc = main(
        [
            "replay",
            "--decoder", str(decoder),
            "--session", str(study / "online2"),
            "--theta", "0.3",
            "--delta", "0.1",
            "--events",
            "--report", str(report_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    events = [json.loads(line) for line in out.splitlines()]
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    stops = [t["stop_index"] for t in doc["trials"]["trials"]]
    assert len(events) == sum(stops)
    assert all(set(ev) == {"trial", "window", "ev", "state"} for ev in events)
    finals = [ev for ev in events if ev["state"] != "accumulating"]
    assert len(finals) == len(stops)


def test_replay_events_into_a_closed_pipe_exits_quietly(cli_env):
    # ``replay --events | head -1``: the reader closes the pipe after one
    # line. Unbuffered and paced, the process is sure to write again after
    # the close, and must then exit 1 without a traceback.
    _, study, decoder = cli_env
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=str(Path(mi_decode.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mi_decode.cli", "replay", "--decoder", str(decoder),
         "--session", str(study / "online2"), "--events", "--realtime"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert set(json.loads(first)) == {"trial", "window", "ev", "state"}
    assert err == b""


def test_train_warning_is_one_stderr_line(cli_env, tmp_path):
    # pyproject's filterwarnings hides the LDA warning from in-process
    # runs, so the line is read from a process's stderr
    _, study, _ = cli_env
    env = dict(os.environ, PYTHONPATH=str(Path(mi_decode.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "mi_decode.cli", "train", "--session", str(study / "offline"),
         "--out", str(tmp_path / "dec"), "--mode", "psd"],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"warning: UserWarning: LDA with \d+ rows for \d+ features; "
                        r"scatter is rank-deficient", lines[0])


def test_main_leaves_the_warning_printer_and_filters_as_it_found_them(cli_env, tmp_path):
    _, study, _ = cli_env
    printer, filters = warnings.showwarning, list(warnings.filters)
    assert main(["train", "--session", str(study / "offline"), "--out", str(tmp_path / "dec"),
                 "--mode", "psd", "--report", str(tmp_path / "train.json")]) == 0
    assert warnings.showwarning is printer
    assert warnings.filters == filters


def test_pca_sweep_command(cli_env, capsys):
    _, study, _ = cli_env
    doc = run_json(
        capsys,
        [
            "pca-sweep",
            "--session", str(study / "offline"),
            "--ks", "8,24",
            "--mode", "psd+pca",
        ],
    )
    sweep = doc["sweep"]
    assert [p["k"] for p in sweep["points"]] == [8, 24]
    assert sweep["best_k"] in (8, 24)
    assert len(sweep["folds"]) == 2


def test_grid_search_with_csv(cli_env, tmp_path, capsys):
    _, study, decoder = cli_env
    csv_path = tmp_path / "grid.csv"
    doc = run_json(
        capsys,
        [
            "grid-search",
            "--decoder", str(decoder),
            "--session", str(study / "online1"),
            "--thresholds", "0.2,0.3",
            "--steps", "0.05,0.1",
            "--csv", str(csv_path),
        ],
    )
    grid = doc["grid"]
    assert grid["best"]["threshold"] in (0.2, 0.3)
    assert grid["best"]["step"] in (0.05, 0.1)
    assert len(grid["cells"]) == 4
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "theta\\delta,0.05,0.1"
    assert len(lines) == 3


# --- repro ------------------------------------------------------------------


REPRO_ARGS = ["--mode", "psd+pca", "--pca", "24", "--thresholds", "0.2,0.3,0.4"]


def test_repro_structure(cli_env, tmp_path):
    _, study, _ = cli_env
    report = tmp_path / "repro.json"
    rc = main(["repro", "--study", str(study)] + REPRO_ARGS + ["--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["command"] == "repro"
    assert set(doc["decoders"]) == {"base", "tuned"}
    assert set(doc["samples"]) == {"base_on_online1", "base_on_online2", "tuned_on_online2"}
    for block in doc["samples"].values():
        assert 0.0 <= block["accuracy"] <= 1.0
    assert [t["decoder"] for t in doc["trials"]] == ["base", "tuned"]
    for t in doc["trials"]:
        assert t["grid_on"] == "online1"
        assert t["replay_on_online2"]["n_trials"] == 12


def test_repro_byte_identical(cli_env, tmp_path):
    _, study, _ = cli_env
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc = main(["repro", "--study", str(study)] + REPRO_ARGS + ["--report", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_repro_text_rendering(cli_env, tmp_path):
    _, study, _ = cli_env
    report = tmp_path / "repro.txt"
    rc = main(
        ["repro", "--study", str(study)]
        + REPRO_ARGS
        + ["--text", "--report", str(report)]
    )
    assert rc == 0
    text = report.read_text(encoding="utf-8")
    assert not text.lstrip().startswith("{")
    assert "samples:" in text
    assert "accuracy" in text


def test_repro_missing_session_exits_1(cli_env, tmp_path, capsys):
    _, study, _ = cli_env
    partial = tmp_path / "partial"
    partial.mkdir()
    (partial / "offline").mkdir()
    rc = main(["repro", "--study", str(partial)] + REPRO_ARGS)
    assert rc == 1
    assert "MissingSession" in capsys.readouterr().err


# --- import-csv -------------------------------------------------------------


def _write_csv(path):
    rows = ["c3,c4,code"]
    for i in range(40):
        code = {5: 1, 10: 3, 30: 4}.get(i, 0)
        rows.append(f"{0.1 * i:.4f},{-0.05 * i:.4f},{code}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_import_csv_round_trip(tmp_path, capsys):
    csv_path = tmp_path / "rec.csv"
    _write_csv(csv_path)
    doc = run_json(
        capsys,
        [
            "import-csv",
            "--csv", str(csv_path),
            "--out", str(tmp_path / "sess"),
            "--event-column", "code",
            "--fs", "16",
            "--subject", "s42",
            "--kind", "Online1",
        ],
    )
    assert doc["session"]["n_samples"] == 40
    assert doc["session"]["n_channels"] == 2
    assert doc["session"]["n_events"] == 3
    sess = load_session(tmp_path / "sess")
    assert sess.meta.subject == "s42"
    assert sess.meta.session_kind.name == "Online1"
    assert sess.recording.channel_labels == ("c3", "c4")
    assert [ev.kind for ev in sess.recording.events] == [
        EventKind.CueLeft,
        EventKind.FeedbackStart,
        EventKind.FeedbackEnd,
    ]


def test_import_csv_label_map_override(tmp_path, capsys):
    csv_path = tmp_path / "rec.csv"
    csv_path.write_text("a,ev\n1.0,9\n2.0,0\n", encoding="utf-8")
    doc = run_json(
        capsys,
        [
            "import-csv",
            "--csv", str(csv_path),
            "--out", str(tmp_path / "sess"),
            "--event-column", "1",
            "--label-map", '{"9": "CueRight"}',
            "--fs", "8",
        ],
    )
    assert doc["session"]["n_events"] == 1
    sess = load_session(tmp_path / "sess")
    assert sess.recording.events[0].kind is EventKind.CueRight


def test_import_csv_unknown_code_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "rec.csv"
    csv_path.write_text("a,ev\n1.0,77\n", encoding="utf-8")
    rc = main(
        [
            "import-csv",
            "--csv", str(csv_path),
            "--out", str(tmp_path / "sess"),
            "--event-column", "ev",
            "--fs", "8",
        ]
    )
    assert rc == 1
    assert "UnknownEventCode" in capsys.readouterr().err


# --- config file ------------------------------------------------------------


def test_config_file_and_flag_precedence(cli_env, tmp_path, capsys):
    _, study, decoder = cli_env
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"theta": 0.2, "delta": 0.05}), encoding="utf-8")
    common = [
        "eval-trials",
        "--decoder", str(decoder),
        "--session", str(study / "online1"),
        "--config", str(cfg_path),
    ]
    doc = run_json(capsys, common)
    assert doc["config"]["theta"] == 0.2
    assert doc["config"]["delta"] == 0.05

    doc = run_json(capsys, common + ["--theta", "0.4"])
    assert doc["config"]["theta"] == 0.4  # flag beats file
    assert doc["config"]["delta"] == 0.05  # file beats default


def test_config_file_unknown_key_exits_1(cli_env, tmp_path, capsys):
    _, study, decoder = cli_env
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"thetaa": 0.2}), encoding="utf-8")
    rc = main(
        [
            "eval-trials",
            "--decoder", str(decoder),
            "--session", str(study / "online1"),
            "--config", str(cfg_path),
        ]
    )
    assert rc == 1
    assert "MalformedMeta" in capsys.readouterr().err
    # a removed setting is no key either
    cfg_path.write_text(json.dumps({"per_channel": True}), encoding="utf-8")
    rc = main(["train", "--session", str(study / "offline"), "--out", str(tmp_path / "dec"),
               "--config", str(cfg_path)])
    _single_error(capsys, rc, "MalformedMeta")
    assert not (tmp_path / "dec").exists()


def test_config_file_missing_exits_1(cli_env, capsys):
    _, study, decoder = cli_env
    rc = main(
        [
            "eval-trials",
            "--decoder", str(decoder),
            "--session", str(study / "online1"),
            "--config", "/nonexistent/cfg.json",
        ]
    )
    assert rc == 1
    assert "MissingFile" in capsys.readouterr().err


@pytest.mark.parametrize(
    "drop",
    [("pca", "mean"), ("pca", "sha256"), ("classifier", "bias"), ("classifier",), None],
    ids=lambda keys: ".".join(keys) if keys else "truncated",
)
def test_malformed_decoder_file_exits_1(cli_env, tmp_path, capsys, drop):
    _, study, decoder = cli_env
    broken = tmp_path / "decoder"
    shutil.copytree(decoder, broken)
    path = broken / "decoder.json"
    text = path.read_text(encoding="utf-8")
    if drop is None:  # truncated mid-document
        text = text[: len(text) // 2]
    else:  # a key of decoder.json, or of one of its sections, left out
        doc = json.loads(text)
        section = doc
        for key in drop[:-1]:
            section = section[key]
        del section[drop[-1]]
        text = json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    rc = main(
        ["eval-samples", "--decoder", str(broken), "--session", str(study / "online1")]
    )
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: MalformedMeta: ")


def test_old_layout_decoder_exits_1(cli_env, tmp_path, capsys):
    # the layout before decoder.json held the classifier and the PCA: lda.json,
    # pca.json and binary32 components in pca.f32le
    _, study, decoder = cli_env
    old = tmp_path / "decoder"
    shutil.copytree(decoder, old)
    doc = json.loads((old / "decoder.json").read_text(encoding="utf-8"))
    clf, pca = doc.pop("classifier"), doc.pop("pca")
    k, d = len(clf["weights"]), len(pca["mean"])
    store.write_json(old / "decoder.json", doc)
    store.write_json(old / "lda.json", {**clf, "k": k, "pca_id": pca["sha256"]})
    store.write_json(old / "pca.json", {"k": k, "d": d, "mean": pca["mean"],
                                        "explained_variance_ratio":
                                        pca["explained_variance_ratio"]})
    components, _ = store.read_f64(old / "pca.f64le", (k, d), ValueError)
    store.write_f32(old / "pca.f32le", components)
    (old / "pca.f64le").unlink()
    rc = main(["eval-samples", "--decoder", str(old), "--session", str(study / "online1")])
    _single_error(capsys, rc, "MalformedMeta")


def test_missing_decoder_exits_1(cli_env, tmp_path, capsys):
    _, study, _ = cli_env
    rc = main(
        [
            "eval-samples",
            "--decoder", str(tmp_path / "absent"),
            "--session", str(study / "online1"),
        ]
    )
    assert rc == 1
    assert "MissingFile" in capsys.readouterr().err


# --- refused inputs: one error line, never a traceback ----------------------


def _single_error(capsys, rc, kind):
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {kind}: ")


def test_event_past_end_of_session_exits_1(cli_env, tmp_path, capsys):
    _, study, decoder = cli_env
    broken = tmp_path / "session"
    shutil.copytree(study / "online1", broken)
    meta_path = broken / "meta.json"
    doc = json.loads(meta_path.read_text(encoding="utf-8"))
    doc["events"][-1]["sample_index"] = doc["n_samples"] + 100
    meta_path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["eval-samples", "--decoder", str(decoder), "--session", str(broken)])
    _single_error(capsys, rc, "MalformedMeta")


def test_import_csv_zero_runs_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "rec.csv"
    _write_csv(csv_path)
    rc = main(
        [
            "import-csv",
            "--csv", str(csv_path),
            "--out", str(tmp_path / "sess"),
            "--fs", "16",
            "--runs", "0",
        ]
    )
    _single_error(capsys, rc, "MalformedMeta")


@pytest.mark.parametrize(
    "command,settings",
    [
        ("eval-trials", {"theta": "abc"}),
        ("replay", {"theta": "abc"}),
        ("eval-trials", {"causal": 1}),
        ("eval-trials", {"delta": True}),
        ("eval-trials", {"seed": 7.5}),
        ("eval-trials", {"thresholds": [0.1, "x"]}),
        ("eval-trials", {"k": None}),
    ],
)
def test_config_value_of_wrong_type_exits_1(cli_env, tmp_path, capsys, command, settings):
    _, study, decoder = cli_env
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(settings), encoding="utf-8")
    rc = main(
        [
            command,
            "--decoder", str(decoder),
            "--session", str(study / "online1"),
            "--config", str(cfg_path),
        ]
    )
    _single_error(capsys, rc, "MalformedMeta")


def test_config_int_stands_for_float(cli_env, tmp_path, capsys):
    _, study, decoder = cli_env
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"theta": 1, "delta": 1}), encoding="utf-8")
    doc = run_json(
        capsys,
        [
            "eval-trials",
            "--decoder", str(decoder),
            "--session", str(study / "online1"),
            "--config", str(cfg_path),
        ],
    )
    assert doc["trials"]["threshold"] == 1.0


@pytest.mark.parametrize("command, flags, settings", [
    ("eval-trials", ["--theta", "1"], {"theta": 1}),
    ("grid-search", ["--thresholds", "1,0.5"], {"thresholds": [1, 0.5]}),
], ids=["scalar", "list"])
def test_config_int_and_flag_give_equal_reports(cli_env, tmp_path, capsys, command,
                                                flags, settings):
    # an int from the config file stands for the float the flag gives, in
    # the report's config and its hash too
    _, study, decoder = cli_env
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(settings), encoding="utf-8")
    argv = [command, "--decoder", str(decoder), "--session", str(study / "online1")]
    outs = []
    for extra in (flags, ["--config", str(cfg_path)]):
        assert main(argv + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["grid-search", "repro"])
def test_config_unknown_objective_exits_1(cli_env, tmp_path, capsys, command):
    _, study, decoder = cli_env
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"objective": "fancy"}), encoding="utf-8")
    if command == "repro":
        argv = ["repro", "--study", str(study)] + REPRO_ARGS
    else:
        argv = [command, "--decoder", str(decoder), "--session", str(study / "online1")]
    rc = main(argv + ["--config", str(cfg_path)])
    _single_error(capsys, rc, "MalformedMeta")


def test_nan_sample_in_session_exits_1(cli_env, tmp_path, capsys):
    _, study, decoder = cli_env
    broken = tmp_path / "session"
    shutil.copytree(study / "online1", broken)
    payload = broken / "samples.f32le"
    samples = np.frombuffer(payload.read_bytes(), dtype="<f4").copy()
    samples[1000] = np.nan
    payload.write_bytes(samples.tobytes())
    rc = main(["eval-samples", "--decoder", str(decoder), "--session", str(broken)])
    _single_error(capsys, rc, "NonFiniteSample")


def test_import_csv_inf_cell_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "rec.csv"
    csv_path.write_text("a,b\n1.0,2.0\n3.0,inf\n", encoding="utf-8")
    rc = main(
        ["import-csv", "--csv", str(csv_path), "--out", str(tmp_path / "sess"), "--fs", "8"]
    )
    _single_error(capsys, rc, "NonFiniteSample")
    assert not (tmp_path / "sess").exists()


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
def test_coercible_decoder_json_field_exits_1(cli_env, tmp_path, capsys, section, key, value):
    _, study, decoder = cli_env
    broken = tmp_path / "decoder"
    shutil.copytree(decoder, broken)
    meta = broken / "decoder.json"
    doc = json.loads(meta.read_text(encoding="utf-8"))
    doc[section][key] = value
    meta.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["eval-samples", "--decoder", str(broken), "--session", str(study / "online1")])
    _single_error(capsys, rc, "MalformedMeta")


@pytest.mark.parametrize(
    "flag,value", [("--noise-sigma", "nan"), ("--alpha-amp", "inf"), ("--beta-amp", "nan")]
)
def test_generate_refuses_non_finite_spec(tmp_path, capsys, flag, value):
    out = tmp_path / "study"
    rc = main(["generate", "--out", str(out)] + GENERATE_ARGS + [flag, value])
    _single_error(capsys, rc, "BadSpec")
    assert not out.exists()


def test_generate_zero_online_runs_writes_nothing(tmp_path, capsys):
    out = tmp_path / "study"
    rc = main(["generate", "--out", str(out)] + GENERATE_ARGS + ["--online-runs", "0"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: BadSpec: ")
    assert "online_runs" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_generate_refuses_negative_seed(tmp_path, capsys, source):
    out = tmp_path / "study"
    if source == "flag":
        extra = ["--seed", "-1"]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": -1}), encoding="utf-8")
        extra = ["--config", str(cfg_path)]
    # GENERATE_ARGS without its --seed, which would override the file
    rc = main(["generate", "--out", str(out)] + GENERATE_ARGS[2:] + extra)
    _single_error(capsys, rc, "BadSpec")
    assert not out.exists()


@pytest.mark.parametrize("fs", ["0", "-512", "nan", "inf"])
def test_import_csv_refuses_bad_sampling_rate(tmp_path, capsys, fs):
    csv_path = tmp_path / "rec.csv"
    _write_csv(csv_path)
    out = tmp_path / "sess"
    rc = main(["import-csv", "--csv", str(csv_path), "--out", str(out), "--fs", fs])
    _single_error(capsys, rc, "MalformedMeta")
    assert not out.exists()


def _stream_and_batch_errors(capsys, decoder, session):
    """The single error line of a streamed and a batch causal replay."""
    common = ["--decoder", str(decoder), "--session", str(session)]
    lines = []
    for argv in (["replay", "--events"], ["eval-trials", "--causal"]):
        rc = main(argv + common)
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        lines.append(err[0])
    return lines


def test_replay_refuses_a_trial_shorter_than_a_window(cli_env, tmp_path, capsys):
    _, _, decoder = cli_env
    spec = SynthSpec(seed=302, n_runs=1, trials_per_run=2, feedback_s=0.5)
    save_session(*generate_session(spec, SessionKind.Online1), tmp_path / "short")
    streamed, batch = _stream_and_batch_errors(capsys, decoder, tmp_path / "short")
    assert streamed == batch
    assert batch.startswith("error: TrialTooShort: ")


def test_replay_refuses_a_non_integer_window_step(cli_env, tmp_path, capsys):
    _, study, _ = cli_env
    decoder = tmp_path / "psd"
    rc = main(["train", "--session", str(study / "offline"), "--out", str(decoder),
               "--mode", "psd", "--report", str(tmp_path / "train.json")])
    assert rc == 0
    spec = SynthSpec(seed=303, n_runs=1, trials_per_run=2, feedback_s=2.0, fs=500.0)
    save_session(*generate_session(spec, SessionKind.Online1), tmp_path / "500hz")
    streamed, batch = _stream_and_batch_errors(capsys, decoder, tmp_path / "500hz")
    assert streamed == batch == (
        "error: NonIntegerWindow: window step of 0.0625s is 31.25 samples at fs=500.0")


@pytest.mark.parametrize("layout", ["all-129-bins", "channel-mean"])
def test_psd_decoder_of_an_old_row_layout_is_refused(cli_env, tmp_path, capsys, layout):
    # psd decoders saved with rows of another width than today's 13 x 52
    # bins: one fit on every bin of the spectra, as rows held them before
    # they kept only the bins the band-pass passes, and one fit on the
    # channel mean of the kept bins, which decoder.json marked
    # "per_channel": false
    _, study, _ = cli_env
    offline = load_session(study / "offline")
    ws = windows_from_recording(offline.recording, PreprocessParams())
    if layout == "all-129-bins":
        fm = psd_features(ws)
        X = fm.X
        assert X.shape[1] == 13 * 129
    else:
        fm = psd_features(ws, bins=52)
        X = fm.X.reshape(len(fm.X), 13, 52).mean(axis=1)
    old = Decoder(PreprocessParams(), FeaturePipeline(FeatureConfig(mode="psd", k=None), None),
                  fit_classifier("lda", X, fm.labels), {})
    save_decoder(old, tmp_path / "old")
    if layout == "channel-mean":
        meta = tmp_path / "old" / "decoder.json"
        doc = json.loads(meta.read_text(encoding="utf-8"))
        doc["features"]["per_channel"] = False
        meta.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["eval-samples", "--decoder", str(tmp_path / "old"),
               "--session", str(study / "online1")])
    assert rc == 1
    samples = capsys.readouterr().err.strip().splitlines()
    streamed, batch = _stream_and_batch_errors(capsys, tmp_path / "old", study / "online1")
    assert samples == [streamed] and batch == streamed
    assert streamed.startswith("error: DimensionMismatch: ")


def test_train_checks_the_band_at_the_session_rate(cli_env, tmp_path, capsys):
    # a 4-30 Hz band is valid at the study's 512 Hz, whatever rate the
    # config file names; train reports no rate of its own
    _, study, _ = cli_env
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fs": 60.0}), encoding="utf-8")
    doc = run_json(capsys, ["train", "--session", str(study / "offline"),
                            "--out", str(tmp_path / "dec"), "--mode", "psd",
                            "--config", str(cfg)])
    assert "fs" not in doc["config"]
    assert doc["decoder"]["n_features"] == 13 * 52
    # a band that the session's rate cannot hold is refused when it is filtered
    rc = main(["train", "--session", str(study / "offline"), "--out", str(tmp_path / "bad"),
               "--mode", "psd", "--band-high", "300"])
    _single_error(capsys, rc, "InvalidBand")


@pytest.mark.parametrize("argv", [["train", "--session", "s", "--out", "d"],
                                  ["pca-sweep", "--session", "s"], ["repro", "--study", "s"]],
                         ids=lambda argv: argv[0])
def test_pipeline_commands_take_no_rate_flag(argv, capsys):
    # nor the per-channel switch: rows are always per channel
    for removed in (["--fs", "100000"], ["--per-channel"], ["--no-per-channel"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + removed)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err


def test_grid_search_non_finite_alpha_exits_1(cli_env, capsys):
    _, study, decoder = cli_env
    rc = main(
        [
            "grid-search",
            "--decoder", str(decoder),
            "--session", str(study / "online1"),
            "--objective", "weighted",
            "--alpha", "nan",
        ]
    )
    _single_error(capsys, rc, "InvalidThreshold")


def test_pca_sweep_empty_ks_exits_1(cli_env, capsys):
    _, study, _ = cli_env
    rc = main(["pca-sweep", "--session", str(study / "offline"), "--ks", ""])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    # not the default ks, which stop at k=1600 on this small session
    assert err == ["error: BadK: sweep needs at least one k"]


def test_pca_sweep_k_zero_exits_1(cli_env, capsys):
    _, study, _ = cli_env
    rc = main(["pca-sweep", "--session", str(study / "offline"), "--ks", "0,8"])
    _single_error(capsys, rc, "BadK")


# --- unwritable output and non-UTF-8 input ----------------------------------


def _small_argv(command, study, decoder, tmp_path):
    """A quick run of ``command`` on the module's study and decoder."""
    csv_path = tmp_path / "rec.csv"
    _write_csv(csv_path)
    on_session = ["--decoder", str(decoder), "--session", str(study / "online1")]
    return [command] + {
        "generate": ["--out", str(tmp_path / "study")] + GENERATE_ARGS,
        "import-csv": ["--csv", str(csv_path), "--out", str(tmp_path / "sess"), "--fs", "16"],
        "train": ["--session", str(study / "offline"), "--out", str(tmp_path / "dec"),
                  "--mode", "psd"],
        "eval-samples": on_session,
        "eval-trials": on_session,
        "pca-sweep": ["--session", str(study / "offline"), "--ks", "8", "--mode", "psd+pca"],
        "grid-search": on_session + ["--thresholds", "0.3", "--steps", "0.1"],
        "replay": on_session,
        "repro": ["--study", str(study)] + REPRO_ARGS,
    }[command]


COMMANDS = ["generate", "import-csv", "train", "eval-samples", "eval-trials", "pca-sweep",
            "grid-search", "replay", "repro"]


@pytest.mark.parametrize("command", COMMANDS)
def test_report_config_holds_the_settings_the_command_takes(cli_env, tmp_path, capsys,
                                                            command):
    # eval-samples reads every setting from the decoder, so it reports none
    _, study, decoder = cli_env
    report = tmp_path / "report.json"
    assert main(_small_argv(command, study, decoder, tmp_path) + ["--report", str(report)]) == 0
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert set(doc["config"]) == {s.key for s in SETTINGS if command in s.commands}
    assert doc["config_hash"] == store.json_hash(doc["config"])


@pytest.mark.parametrize("command", COMMANDS)
def test_report_into_missing_directory_exits_1(cli_env, tmp_path, capsys, command):
    _, study, decoder = cli_env
    report = tmp_path / "missing" / "report.json"
    rc = main(_small_argv(command, study, decoder, tmp_path) + ["--report", str(report)])
    _single_error(capsys, rc, "IoFailure")
    assert not report.exists()


def test_grid_search_csv_into_missing_directory_exits_1(cli_env, tmp_path, capsys):
    _, study, decoder = cli_env
    csv_path = tmp_path / "missing" / "grid.csv"
    argv = _small_argv("grid-search", study, decoder, tmp_path) + ["--csv", str(csv_path)]
    _single_error(capsys, main(argv), "IoFailure")


def test_config_file_not_utf8_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'\xff{"seed": 3}')
    out = tmp_path / "study"
    rc = main(["generate", "--out", str(out), "--config", str(cfg_path)])
    _single_error(capsys, rc, "MalformedMeta")
    assert not out.exists()


def test_import_csv_not_utf8_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "rec.csv"
    csv_path.write_bytes(b"a,b\n1.0,2.0\n3.0,\xff\n")
    out = tmp_path / "sess"
    rc = main(["import-csv", "--csv", str(csv_path), "--out", str(out), "--fs", "8"])
    _single_error(capsys, rc, "MalformedMeta")
    assert not out.exists()
