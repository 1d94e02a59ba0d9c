"""Command-line interface.

Subcommands: generate, import-csv, train, eval-samples, eval-trials,
pca-sweep, grid-search, replay, repro. Settings resolve in three layers:
built-in defaults, then a flat JSON config file (--config), then explicit
flags. One table, ``SETTINGS``, lists every setting once: its config key,
its flag, the subcommands that take the flag and the settings-dataclass
field it fills, whose default it shares. Config files are read like every
JSON file of the package, by ``store`` under ``store.json_setting``. Every
report embeds the package version and a hash of the resolved settings;
nothing reads the clock, so equal inputs give byte-identical
reports. Each ``cmd_*`` handler takes the parsed arguments and the resolved
settings and returns only its report body; ``main`` resolves the settings,
runs the handler, adds the envelope (command, version, config and
config_hash) and emits the report, once for every subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

from . import store
from .classify import FIT_FUNCTIONS
from .dsp import PreprocessParams
from .errors import DecodeError, MalformedMeta, MissingSession
from .evaluate import (
    DEFAULT_SWEEP_KS,
    FEATURE_MODES,
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
    META_NAME,
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

_PIPELINE = ("train", "pca-sweep", "repro")
_EVIDENCE = ("eval-trials", "replay")
_GRID = ("grid-search", "repro")
_GENERATE = ("generate",)


@dataclass
class Setting:
    """One setting: its config key and flag, the subcommands that take the
    flag, and the settings-dataclass field it fills. Its default is that
    field's default, unless the row gives one."""

    key: str
    flag: str
    commands: tuple[str, ...]
    cls: type | None = None
    field: str | None = None
    default: object = None
    choices: tuple | None = None
    help: str | None = None

    def __post_init__(self):
        if self.default is None:
            self.default = self.cls.__dataclass_fields__[self.field].default


SETTINGS = (
    Setting("band_low", "--band-low", _PIPELINE, PreprocessParams, "low_hz"),
    Setting("band_high", "--band-high", _PIPELINE, PreprocessParams, "high_hz"),
    Setting("band_order", "--band-order", _PIPELINE, PreprocessParams, "order",
            choices=(2, 4, 6, 8)),
    Setting("car", "--car", _PIPELINE, PreprocessParams, "car"),
    Setting("win_len_s", "--win-len", _PIPELINE, PreprocessParams, "win_len_s"),
    Setting("step_s", "--win-step", _PIPELINE, PreprocessParams, "step_s"),
    Setting("feature_mode", "--mode", _PIPELINE, FeatureConfig, "mode",
            choices=FEATURE_MODES),
    Setting("k", "--pca", _PIPELINE, FeatureConfig, "k", help="PCA component count"),
    Setting("nperseg", "--nperseg", _PIPELINE, WelchSpec, "nperseg"),
    Setting("noverlap", "--noverlap", _PIPELINE, WelchSpec, "noverlap"),
    Setting("per_channel", "--per-channel", _PIPELINE, FeatureConfig, "per_channel"),
    Setting("classifier", "--classifier", _PIPELINE, default="lda",
            choices=tuple(FIT_FUNCTIONS)),
    Setting("fs", "--fs", _PIPELINE + ("import-csv",), SynthSpec, "fs"),
    Setting("theta", "--theta", _EVIDENCE, EvidenceConfig, "threshold", 0.5,
            help="decision threshold"),
    Setting("delta", "--delta", _EVIDENCE, EvidenceConfig, "step", 0.1,
            help="evidence step"),
    Setting("causal", "--causal", ("eval-trials", "grid-search"), default=False),
    Setting("thresholds", "--thresholds", _GRID, default=list(DEFAULT_THRESHOLDS)),
    Setting("steps", "--steps", _GRID, default=list(DEFAULT_STEPS)),
    Setting("objective", "--objective", _GRID, default=OBJECTIVES[0], choices=OBJECTIVES),
    Setting("alpha", "--alpha", _GRID, default=1.0),
    Setting("beta", "--beta", _GRID, default=0.5),
    Setting("seed", "--seed", _GENERATE, SynthSpec, "seed", 7),
    Setting("erd_depth", "--erd-depth", _GENERATE, SynthSpec, "erd_depth"),
    Setting("noise_sigma", "--noise-sigma", _GENERATE, SynthSpec, "noise_sigma"),
    Setting("alpha_amp", "--alpha-amp", _GENERATE, SynthSpec, "alpha_amp"),
    Setting("beta_amp", "--beta-amp", _GENERATE, SynthSpec, "beta_amp"),
    Setting("trials_per_run", "--trials-per-run", _GENERATE, SynthSpec, "trials_per_run"),
    Setting("n_runs", "--n-runs", _GENERATE, SynthSpec, "n_runs"),
    Setting("online_runs", "--online-runs", _GENERATE, default=3),
    Setting("rest_s", "--rest-s", _GENERATE, SynthSpec, "rest_s"),
    Setting("cue_s", "--cue-s", _GENERATE, SynthSpec, "cue_s"),
    Setting("feedback_s", "--feedback-s", _GENERATE, SynthSpec, "feedback_s"),
)


def _resolve(args: argparse.Namespace) -> dict:
    """defaults <- config file <- flags, refusing unknown config keys and
    values that json_setting refuses or that are not among a key's choices."""
    cfg = {s.key: s.default for s in SETTINGS}
    if args.config:
        path = args.config
        doc = store.read_json(path)
        if not isinstance(doc, dict):
            raise MalformedMeta(f"{path}: config must be a JSON object")
        unknown = sorted(set(doc) - set(cfg))
        if unknown:
            raise MalformedMeta(f"{path}: unknown config keys {unknown}")
        for s in SETTINGS:
            if s.key not in doc:
                continue
            where = f"{path}: config key {s.key!r}"
            store.json_setting(doc[s.key], s.default, where)
            if s.choices is not None and doc[s.key] not in s.choices:
                raise MalformedMeta(
                    f"{where} must be one of {list(s.choices)}, got {json.dumps(doc[s.key])}"
                )
        cfg.update(doc)
    for key in cfg:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    return cfg


def _build(cls, cfg: dict, **known):
    """``cls`` from the resolved settings that fill its fields."""
    return cls(**known, **{
        s.field: store.json_setting(cfg[s.key], s.default, s.key)
        for s in SETTINGS if s.cls is cls
    })


def _grid_settings(cfg: dict) -> dict:
    """grid_search's keyword arguments, which are config keys too."""
    return {key: cfg[key] for key in ("thresholds", "steps", "objective", "alpha", "beta")}


def _pipeline(cfg: dict) -> tuple[PreprocessParams, FeatureConfig]:
    params = _build(PreprocessParams, cfg)
    params.band_spec(float(cfg["fs"]))  # fail fast on a bad band
    return params, _build(FeatureConfig, cfg, welch=_build(WelchSpec, cfg))


def _report_doc(command: str, cfg: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config_hash": store.json_hash(cfg),
        "config": cfg,
    }


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
                lines.append(f"{indent}{k.ljust(width)}  {json.dumps(v)}")
    elif isinstance(obj, list):
        if obj and all(isinstance(x, dict) for x in obj) and len(
            {tuple(sorted(x)) for x in obj}
        ) == 1:
            cols = sorted(obj[0])
            rows = [[json.dumps(x[c]) for c in cols] for x in obj]
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
                    lines.append(f"{indent}- {json.dumps(x)}")
    return lines


def _emit(doc: dict, args: argparse.Namespace) -> None:
    text = "\n".join(_render_lines(doc)) + "\n" if args.text else store.json_text(doc)
    if args.report:
        store.write(args.report, text)
    else:
        sys.stdout.write(text)


def _float_list(s: str) -> list[float]:
    return [float(x) for x in s.split(",") if x.strip()]


def _int_list(s: str) -> list[int]:
    return [int(x) for x in s.split(",") if x.strip()]


def cmd_generate(args, cfg: dict) -> dict:
    paths = generate_study(_build(SynthSpec, cfg), args.out, online_runs=cfg["online_runs"])
    return {"sessions": {name: str(p) for name, p in paths.items()}}


def cmd_import_csv(args, cfg: dict) -> dict:
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
        n_runs=args.runs,
    )
    save_session(rec, meta, args.out)
    return {
        "session": {
            "out": str(args.out),
            "n_samples": rec.n_samples,
            "n_channels": rec.n_channels,
            "n_events": len(rec.events),
        }
    }


def cmd_train(args, cfg: dict) -> dict:
    params, feat = _pipeline(cfg)
    sessions = [load_session(p) for p in args.session]
    decoder = train_decoder(sessions, feat, params, cfg["classifier"])
    save_decoder(decoder, args.out)
    return {
        "decoder": {
            "out": str(args.out),
            "provenance": decoder.provenance,
            "n_features": decoder.clf.n_features,
        }
    }


def cmd_eval_samples(args, cfg: dict) -> dict:
    decoder = load_decoder(args.decoder)
    session = load_session(args.session)
    return {
        "samples": eval_samples(decoder, session).to_dict(),
        "decoder_provenance": decoder.provenance,
    }


def cmd_eval_trials(args, cfg: dict) -> dict:
    decoder = load_decoder(args.decoder)
    session = load_session(args.session)
    report = replay_session(
        decoder, session.recording, _build(EvidenceConfig, cfg), causal=cfg["causal"]
    )
    return {"trials": report.to_dict()}


def cmd_pca_sweep(args, cfg: dict) -> dict:
    params, feat = _pipeline(cfg)
    session = load_session(args.session)
    ks = DEFAULT_SWEEP_KS if args.ks is None else args.ks
    sweep = pca_sweep(session, ks, feat, params, cfg["classifier"])
    return {"sweep": {**sweep.to_dict(), "folds": [rep.to_dict() for rep in sweep.reports]}}


def cmd_grid_search(args, cfg: dict) -> dict:
    decoder = load_decoder(args.decoder)
    session = load_session(args.session)
    result = grid_search(
        decoder, session.recording, **_grid_settings(cfg), causal=cfg["causal"]
    )
    if args.csv:
        store.write(args.csv, result.to_csv())
    return {"grid": result.to_dict()}


def cmd_replay(args, cfg: dict) -> dict:
    decoder = load_decoder(args.decoder)
    session = load_session(args.session)
    ev_cfg = _build(EvidenceConfig, cfg)

    def printer(ev):
        line = {"trial": ev.trial_index, "window": ev.window_index, "ev": ev.evidence,
                "state": ev.state}
        sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")

    report = stream_to_report(
        decoder,
        session.recording,
        ev_cfg,
        realtime=args.realtime,
        on_event=printer if args.events else None,
    )
    return {"trials": report.to_dict()}


def cmd_repro(args, cfg: dict) -> dict:
    params, feat = _pipeline(cfg)
    kind = cfg["classifier"]
    study = Path(args.study)
    sessions = {}
    for name in ("offline", "online1", "online2"):
        path = study / name
        if not (path / META_NAME).is_file():
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
        grid = grid_search(decoder, sessions["online1"].recording, **_grid_settings(cfg))
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

    return {
        "study": str(study),
        "decoders": {"base": base.provenance, "tuned": tuned.provenance},
        "samples": samples,
        "trials": trials,
    }


def _add_output_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON settings file")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument("--text", action="store_true", help="aligned text instead of JSON")


def _add_setting_flags(p: argparse.ArgumentParser, command: str) -> None:
    """The flags of every setting that ``command`` takes, typed by its default."""
    for s in SETTINGS:
        if command not in s.commands:
            continue
        if isinstance(s.default, bool):
            # a switch that is off by default can only be turned on
            action = argparse.BooleanOptionalAction if s.default else "store_true"
            p.add_argument(s.flag, dest=s.key, action=action, default=None, help=s.help)
        else:
            kind = {float: float, int: int, list: _float_list}.get(type(s.default))
            p.add_argument(s.flag, dest=s.key, type=kind, choices=s.choices, help=s.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mi-decode",
        description="Two-class motor-imagery EEG decoding pipeline.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic offline/online study")
    p.add_argument("--out", required=True, help="study output directory")
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
    p.set_defaults(func=cmd_import_csv)

    p = sub.add_parser("train", help="fit a decoder on one or more sessions")
    p.add_argument("--session", action="append", required=True,
                   help="session dir; repeat to train on a union")
    p.add_argument("--out", required=True, help="decoder output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-samples", help="window-level accuracy of a decoder")
    p.add_argument("--decoder", required=True)
    p.add_argument("--session", required=True)
    p.set_defaults(func=cmd_eval_samples)

    p = sub.add_parser("eval-trials", help="trial-level accumulation outcomes")
    p.add_argument("--decoder", required=True)
    p.add_argument("--session", required=True)
    p.set_defaults(func=cmd_eval_trials)

    p = sub.add_parser("pca-sweep", help="CV accuracy versus PCA component count")
    p.add_argument("--session", required=True)
    p.add_argument("--ks", type=_int_list, help="comma-separated component counts")
    p.set_defaults(func=cmd_pca_sweep)

    p = sub.add_parser("grid-search", help="sweep evidence thresholds and steps")
    p.add_argument("--decoder", required=True)
    p.add_argument("--session", required=True)
    p.add_argument("--csv", help="also write the percentage matrix as CSV")
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("replay", help="causal streamed replay of a session")
    p.add_argument("--decoder", required=True)
    p.add_argument("--session", required=True)
    p.add_argument("--events", action="store_true",
                   help="print one JSON line per consumed window")
    p.add_argument("--realtime", action="store_true",
                   help="sleep one window step between events")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("repro", help="full offline->online workflow on a study dir")
    p.add_argument("--study", required=True,
                   help="directory holding offline/, online1/, online2/")
    p.set_defaults(func=cmd_repro)

    for command, p in sub.choices.items():
        _add_setting_flags(p, command)
        _add_output_opts(p)
    return parser


def _warning_line(message, category, *_):
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # one "warning: <Type>: <message>" line per warning, with no source
        # line; catch_warnings restores the process's own printer on return
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            cfg = _resolve(args)
            body = args.func(args, cfg)
            _emit({**_report_doc(args.command, cfg), **body}, args)
            sys.stdout.flush()
    except DecodeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout went away (``replay --events | head -1``):
        # point stdout at devnull so that the interpreter's last flush
        # cannot fail again, and exit quietly (the signal module's recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
