"""Command-line interface.

Subcommands: generate, import-csv, train, eval-samples, eval-trials,
pca-sweep, grid-search, replay, repro. Settings resolve in three layers:
built-in defaults, then a flat JSON config file (--config), then explicit
flags. Every report embeds the package version and a hash of the resolved
settings; nothing reads the clock, so equal inputs give byte-identical
reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .classify import FIT_FUNCTIONS
from .dsp import PreprocessParams
from .errors import DecodeError, MalformedMeta, MissingFile, MissingSession
from .evaluate import (
    DEFAULT_SWEEP_KS,
    FeatureConfig,
    eval_samples,
    load_decoder,
    pca_sweep,
    save_decoder,
    train_decoder,
)
from .evidence import (
    DEFAULT_STEPS,
    DEFAULT_THRESHOLDS,
    OBJECTIVES,
    EvidenceConfig,
    grid_search,
    replay_session,
    stream_to_report,
)
from .features import WelchSpec
from .session import (
    EventKind,
    Sensor,
    SessionKind,
    SessionMeta,
    import_csv,
    load_session,
    save_session,
)
from .synth import SynthSpec, generate_study
from .version import __version__

# codes an imported CSV event column maps to by default (0 = no event)
DEFAULT_EVENT_CODES = {
    1: EventKind.CueLeft,
    2: EventKind.CueRight,
    3: EventKind.FeedbackStart,
    4: EventKind.FeedbackEnd,
    5: EventKind.TrialStart,
}

_SYNTH = SynthSpec(seed=0)

CONFIG_DEFAULTS = {
    "band_low": 4.0,
    "band_high": 30.0,
    "band_order": 4,
    "car": True,
    "win_len_s": 1.0,
    "step_s": 0.0625,
    "feature_mode": "pca",
    "k": 800,
    "nperseg": 256,
    "noverlap": 128,
    "per_channel": True,
    "classifier": "lda",
    "theta": 0.5,
    "delta": 0.1,
    "thresholds": list(DEFAULT_THRESHOLDS),
    "steps": list(DEFAULT_STEPS),
    "objective": "counts",
    "alpha": 1.0,
    "beta": 0.5,
    "causal": False,
    "seed": 7,
    "fs": _SYNTH.fs,
    "erd_depth": _SYNTH.erd_depth,
    "noise_sigma": _SYNTH.noise_sigma,
    "alpha_amp": _SYNTH.alpha_amp,
    "beta_amp": _SYNTH.beta_amp,
    "trials_per_run": _SYNTH.trials_per_run,
    "n_runs": _SYNTH.n_runs,
    "online_runs": 3,
    "rest_s": _SYNTH.rest_s,
    "cue_s": _SYNTH.cue_s,
    "feedback_s": _SYNTH.feedback_s,
}


def _json_type_ok(value, default) -> bool:
    """Whether a config-file value has its default's JSON type.

    An int may stand for a float, but a bool never stands for a number.
    """
    if isinstance(default, list):
        return isinstance(value, list) and all(_json_type_ok(v, 0.0) for v in value)
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _resolve(args: argparse.Namespace) -> dict:
    """defaults <- config file <- flags, rejecting unknown config keys."""
    cfg = dict(CONFIG_DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        path = Path(path)
        if not path.is_file():
            raise MissingFile(f"missing config file {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise MalformedMeta(f"{path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise MalformedMeta(f"{path}: config must be a JSON object")
        unknown = sorted(set(doc) - set(cfg))
        if unknown:
            raise MalformedMeta(f"{path}: unknown config keys {unknown}")
        for key, value in doc.items():
            if not _json_type_ok(value, CONFIG_DEFAULTS[key]):
                raise MalformedMeta(
                    f"{path}: config key {key!r} needs the JSON type of its "
                    f"default {json.dumps(CONFIG_DEFAULTS[key])}, got {json.dumps(value)}"
                )
        if "objective" in doc and doc["objective"] not in OBJECTIVES:
            raise MalformedMeta(
                f"{path}: config key 'objective' must be one of "
                f"{list(OBJECTIVES)}, got {json.dumps(doc['objective'])}"
            )
        cfg.update(doc)
    for key in CONFIG_DEFAULTS:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    return cfg


def _pipeline_from(cfg: dict) -> tuple[PreprocessParams, FeatureConfig, str]:
    try:
        params = PreprocessParams(
            low_hz=float(cfg["band_low"]),
            high_hz=float(cfg["band_high"]),
            order=int(cfg["band_order"]),
            car=bool(cfg["car"]),
            win_len_s=float(cfg["win_len_s"]),
            step_s=float(cfg["step_s"]),
        )
        params.band_spec(float(cfg["fs"]))  # fail fast on a bad band
        feat = FeatureConfig(
            mode=str(cfg["feature_mode"]),
            k=int(cfg["k"]),
            welch=WelchSpec(nperseg=int(cfg["nperseg"]), noverlap=int(cfg["noverlap"])),
            per_channel=bool(cfg["per_channel"]),
        )
        kind = str(cfg["classifier"])
        if kind not in FIT_FUNCTIONS:
            raise ValueError(f"unknown classifier {kind!r}")
    except (TypeError, ValueError) as exc:
        raise MalformedMeta(f"bad pipeline settings: {exc}") from exc
    return params, feat, kind


def _synth_spec(cfg: dict) -> SynthSpec:
    return SynthSpec(
        seed=int(cfg["seed"]),
        n_runs=int(cfg["n_runs"]),
        trials_per_run=int(cfg["trials_per_run"]),
        fs=float(cfg["fs"]),
        erd_depth=float(cfg["erd_depth"]),
        noise_sigma=float(cfg["noise_sigma"]),
        alpha_amp=float(cfg["alpha_amp"]),
        beta_amp=float(cfg["beta_amp"]),
        rest_s=float(cfg["rest_s"]),
        cue_s=float(cfg["cue_s"]),
        feedback_s=float(cfg["feedback_s"]),
    )


def _report_doc(command: str, cfg: dict) -> dict:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return {
        "command": command,
        "version": __version__,
        "config_hash": hashlib.sha256(canon.encode("utf-8")).hexdigest(),
        "config": cfg,
    }


def _scalar(v) -> str:
    return json.dumps(v)


def _render_lines(obj, indent: str = "") -> list[str]:
    lines: list[str] = []
    if isinstance(obj, dict):
        plain = {k: v for k, v in obj.items() if not isinstance(v, (dict, list))}
        width = max((len(k) for k in plain), default=0)
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.extend(_render_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}{k.ljust(width)}  {_scalar(v)}")
    elif isinstance(obj, list):
        if obj and all(isinstance(x, dict) for x in obj) and len(
            {tuple(sorted(x)) for x in obj}
        ) == 1:
            cols = sorted(obj[0])
            rows = [[_scalar(x[c]) for c in cols] for x in obj]
            widths = [
                max(len(c), *(len(r[i]) for r in rows)) for i, c in enumerate(cols)
            ]
            lines.append(indent + "  ".join(c.ljust(w) for c, w in zip(cols, widths)))
            for r in rows:
                lines.append(indent + "  ".join(v.ljust(w) for v, w in zip(r, widths)))
        else:
            for x in obj:
                if isinstance(x, (dict, list)):
                    lines.append(indent + "-")
                    lines.extend(_render_lines(x, indent + "  "))
                else:
                    lines.append(f"{indent}- {_scalar(x)}")
    return lines


def _emit(doc: dict, args: argparse.Namespace) -> None:
    if getattr(args, "text", False):
        text = "\n".join(_render_lines(doc)) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    report = getattr(args, "report", None)
    if report:
        Path(report).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _float_list(s: str) -> list[float]:
    return [float(x) for x in s.split(",") if x.strip()]


def _int_list(s: str) -> list[int]:
    return [int(x) for x in s.split(",") if x.strip()]


def cmd_generate(args) -> None:
    cfg = _resolve(args)
    paths = generate_study(_synth_spec(cfg), args.out, online_runs=int(cfg["online_runs"]))
    doc = _report_doc("generate", cfg)
    doc["sessions"] = {name: str(p) for name, p in paths.items()}
    _emit(doc, args)


def cmd_import_csv(args) -> None:
    cfg = _resolve(args)
    label_map = dict(DEFAULT_EVENT_CODES)
    if args.label_map:
        try:
            raw = json.loads(args.label_map)
            label_map = {int(code): EventKind(kind) for code, kind in raw.items()}
        except (ValueError, TypeError, AttributeError) as exc:
            raise MalformedMeta(f"bad --label-map: {exc}") from exc
    column = args.event_column
    if column is not None and column.lstrip("-").isdigit():
        column = int(column)
    rec = import_csv(
        args.csv,
        fs=float(cfg["fs"]),
        event_column=column,
        label_map=label_map,
        has_header=not args.no_header,
    )
    meta = SessionMeta(
        subject=args.subject,
        sensor=Sensor[args.sensor],
        session_kind=SessionKind[args.kind],
        fs=rec.fs,
        channel_labels=rec.channel_labels,
        n_runs=args.runs,
    )
    save_session(rec, meta, args.out)
    doc = _report_doc("import-csv", cfg)
    doc["session"] = {
        "out": str(args.out),
        "n_samples": rec.n_samples,
        "n_channels": rec.n_channels,
        "n_events": len(rec.events),
    }
    _emit(doc, args)


def cmd_train(args) -> None:
    cfg = _resolve(args)
    params, feat, kind = _pipeline_from(cfg)
    sessions = [load_session(p) for p in args.session]
    decoder = train_decoder(sessions, feat, params, kind)
    save_decoder(decoder, args.out)
    doc = _report_doc("train", cfg)
    doc["decoder"] = {
        "out": str(args.out),
        "provenance": decoder.provenance,
        "n_features": decoder.clf.n_features,
    }
    _emit(doc, args)


def cmd_eval_samples(args) -> None:
    cfg = _resolve(args)
    decoder = load_decoder(args.decoder)
    session = load_session(args.session)
    doc = _report_doc("eval-samples", cfg)
    doc["samples"] = eval_samples(decoder, session).to_dict()
    doc["decoder_provenance"] = decoder.provenance
    _emit(doc, args)


def cmd_eval_trials(args) -> None:
    cfg = _resolve(args)
    decoder = load_decoder(args.decoder)
    session = load_session(args.session)
    ev_cfg = EvidenceConfig(threshold=float(cfg["theta"]), step=float(cfg["delta"]))
    report = replay_session(
        decoder, session.recording, ev_cfg, causal=bool(cfg["causal"])
    )
    doc = _report_doc("eval-trials", cfg)
    doc["trials"] = report.to_dict()
    _emit(doc, args)


def cmd_pca_sweep(args) -> None:
    cfg = _resolve(args)
    params, feat, kind = _pipeline_from(cfg)
    session = load_session(args.session)
    ks = args.ks if args.ks else list(DEFAULT_SWEEP_KS)
    sweep = pca_sweep(session, ks, feat, params, kind)
    doc = _report_doc("pca-sweep", cfg)
    doc["sweep"] = sweep.to_dict()
    doc["sweep"]["folds"] = [rep.to_dict() for rep in sweep.reports]
    _emit(doc, args)


def cmd_grid_search(args) -> None:
    cfg = _resolve(args)
    decoder = load_decoder(args.decoder)
    session = load_session(args.session)
    result = grid_search(
        decoder,
        session.recording,
        thresholds=cfg["thresholds"],
        steps=cfg["steps"],
        objective=str(cfg["objective"]),
        alpha=float(cfg["alpha"]),
        beta=float(cfg["beta"]),
        causal=bool(cfg["causal"]),
    )
    if args.csv:
        Path(args.csv).write_text(result.to_csv(), encoding="utf-8")
    doc = _report_doc("grid-search", cfg)
    doc["grid"] = result.to_dict()
    _emit(doc, args)


def cmd_replay(args) -> None:
    cfg = _resolve(args)
    decoder = load_decoder(args.decoder)
    session = load_session(args.session)
    ev_cfg = EvidenceConfig(threshold=float(cfg["theta"]), step=float(cfg["delta"]))

    def printer(ev):
        sys.stdout.write(
            json.dumps(
                {
                    "trial": ev.trial_index,
                    "window": ev.window_index,
                    "ev": ev.evidence,
                    "state": ev.state,
                },
                sort_keys=True,
            )
            + "\n"
        )

    report = stream_to_report(
        decoder,
        session.recording,
        ev_cfg,
        realtime=args.realtime,
        on_event=printer if args.events else None,
    )
    doc = _report_doc("replay", cfg)
    doc["trials"] = report.to_dict()
    _emit(doc, args)


def cmd_repro(args) -> None:
    cfg = _resolve(args)
    params, feat, kind = _pipeline_from(cfg)
    study = Path(args.study)
    sessions = {}
    for name in ("offline", "online1", "online2"):
        path = study / name
        if not (path / "meta.json").is_file():
            raise MissingSession(f"study at {study} has no {name!r} session")
        sessions[name] = load_session(path)

    base = train_decoder([sessions["offline"]], feat, params, kind)
    tuned = train_decoder(
        [sessions["offline"], sessions["online1"]], feat, params, kind
    )
    samples = {
        "base_on_online1": eval_samples(base, sessions["online1"]).to_dict(),
        "base_on_online2": eval_samples(base, sessions["online2"]).to_dict(),
        "tuned_on_online2": eval_samples(tuned, sessions["online2"]).to_dict(),
    }

    trials = []
    for label, decoder in (("base", base), ("tuned", tuned)):
        grid = grid_search(
            decoder,
            sessions["online1"].recording,
            thresholds=cfg["thresholds"],
            steps=cfg["steps"],
            objective=str(cfg["objective"]),
            alpha=float(cfg["alpha"]),
            beta=float(cfg["beta"]),
        )
        replay = replay_session(decoder, sessions["online2"].recording, grid.best)
        trials.append(
            {
                "decoder": label,
                "grid_on": "online1",
                "threshold": grid.best.threshold,
                "step": grid.best.step,
                "grid_best_on_online1": grid.best_report.to_dict(trials=False),
                "replay_on_online2": replay.to_dict(),
            }
        )

    doc = _report_doc("repro", cfg)
    doc["study"] = str(study)
    doc["decoders"] = {"base": base.provenance, "tuned": tuned.provenance}
    doc["samples"] = samples
    doc["trials"] = trials
    _emit(doc, args)


def _add_output_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON settings file")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument("--text", action="store_true", help="aligned text instead of JSON")


def _add_pipeline_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--band-low", dest="band_low", type=float)
    p.add_argument("--band-high", dest="band_high", type=float)
    p.add_argument("--band-order", dest="band_order", type=int, choices=(2, 4, 6, 8))
    p.add_argument("--car", dest="car", action=argparse.BooleanOptionalAction,
                   default=None)
    p.add_argument("--win-len", dest="win_len_s", type=float)
    p.add_argument("--win-step", dest="step_s", type=float)
    p.add_argument("--mode", dest="feature_mode", choices=("pca", "psd", "psd+pca"))
    p.add_argument("--pca", dest="k", type=int, help="PCA component count")
    p.add_argument("--nperseg", dest="nperseg", type=int)
    p.add_argument("--noverlap", dest="noverlap", type=int)
    p.add_argument("--per-channel", dest="per_channel",
                   action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--classifier", dest="classifier", choices=tuple(FIT_FUNCTIONS))
    p.add_argument("--fs", dest="fs", type=float)


def _add_evidence_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", dest="theta", type=float, help="decision threshold")
    p.add_argument("--delta", dest="delta", type=float, help="evidence step")
    p.add_argument("--causal", dest="causal", action="store_true", default=None)


def _add_grid_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--thresholds", dest="thresholds", type=_float_list)
    p.add_argument("--steps", dest="steps", type=_float_list)
    p.add_argument("--objective", dest="objective", choices=OBJECTIVES)
    p.add_argument("--alpha", dest="alpha", type=float)
    p.add_argument("--beta", dest="beta", type=float)


def _add_synth_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", dest="seed", type=int)
    p.add_argument("--erd-depth", dest="erd_depth", type=float)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    p.add_argument("--alpha-amp", dest="alpha_amp", type=float)
    p.add_argument("--beta-amp", dest="beta_amp", type=float)
    p.add_argument("--trials-per-run", dest="trials_per_run", type=int)
    p.add_argument("--n-runs", dest="n_runs", type=int)
    p.add_argument("--online-runs", dest="online_runs", type=int)
    p.add_argument("--rest-s", dest="rest_s", type=float)
    p.add_argument("--cue-s", dest="cue_s", type=float)
    p.add_argument("--feedback-s", dest="feedback_s", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mi-decode",
        description="Two-class motor-imagery EEG decoding pipeline.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic offline/online study")
    p.add_argument("--out", required=True, help="study output directory")
    _add_synth_opts(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("import-csv", help="convert a numeric CSV to a session dir")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--event-column", help="column name or 0-based index")
    p.add_argument("--label-map", help='JSON {"code": "EventKind"} override')
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--subject", default="imported")
    p.add_argument("--sensor", choices=[s.name for s in Sensor], default="Gel")
    p.add_argument("--kind", choices=[k.name for k in SessionKind], default="Offline")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--fs", dest="fs", type=float)
    _add_output_opts(p)
    p.set_defaults(func=cmd_import_csv)

    p = sub.add_parser("train", help="fit a decoder on one or more sessions")
    p.add_argument("--session", action="append", required=True,
                   help="session dir; repeat to train on a union")
    p.add_argument("--out", required=True, help="decoder output directory")
    _add_pipeline_opts(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-samples", help="window-level accuracy of a decoder")
    p.add_argument("--decoder", required=True)
    p.add_argument("--session", required=True)
    _add_output_opts(p)
    p.set_defaults(func=cmd_eval_samples)

    p = sub.add_parser("eval-trials", help="trial-level accumulation outcomes")
    p.add_argument("--decoder", required=True)
    p.add_argument("--session", required=True)
    _add_evidence_opts(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_eval_trials)

    p = sub.add_parser("pca-sweep", help="CV accuracy versus PCA component count")
    p.add_argument("--session", required=True)
    p.add_argument("--ks", type=_int_list, help="comma-separated component counts")
    _add_pipeline_opts(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_pca_sweep)

    p = sub.add_parser("grid-search", help="sweep evidence thresholds and steps")
    p.add_argument("--decoder", required=True)
    p.add_argument("--session", required=True)
    p.add_argument("--csv", help="also write the percentage matrix as CSV")
    p.add_argument("--causal", dest="causal", action="store_true", default=None)
    _add_grid_opts(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("replay", help="causal streamed replay of a session")
    p.add_argument("--decoder", required=True)
    p.add_argument("--session", required=True)
    p.add_argument("--events", action="store_true",
                   help="print one JSON line per consumed window")
    p.add_argument("--realtime", action="store_true",
                   help="sleep one window step between events")
    p.add_argument("--theta", dest="theta", type=float)
    p.add_argument("--delta", dest="delta", type=float)
    _add_output_opts(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("repro", help="full offline->online workflow on a study dir")
    p.add_argument("--study", required=True,
                   help="directory holding offline/, online1/, online2/")
    _add_pipeline_opts(p)
    _add_grid_opts(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except DecodeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
