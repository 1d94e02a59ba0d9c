"""Run a fixed list of mi-decode commands on a small seeded study and print
one sha256 over every file they write, and a second one over every file
outside the decoder directories (dec-*).

    python scripts/byte_identity.py OUTDIR

Each command runs as its own process (``python -m mi_decode.cli``, with
this checkout's src/ on PYTHONPATH) with OUTDIR as its working directory
and relative paths only, so the bytes do not depend on where OUTDIR is.
Reports, event streams, grid CSVs and the session and decoder directories
all land in OUTDIR; each command's stdout and stderr are kept there too.
Two checkouts that print the same digest wrote the same bytes, and two
runs of one checkout must always do so (``diff -r`` of their OUTDIRs is
empty). The second digest is for reading only: when a change moves only
the bits of fitted decoders, it stays equal while the first one moves.
OUTDIR must be empty or absent. Exits 1, naming the command, if any
command fails; exits 1 with nothing on stderr if stdout is closed before
the digests are written (the outputs in OUTDIR are complete by then).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MODES = (("psd", []), ("psd+pca", ["--pca", "12"]), ("pca", ["--pca", "12"]))

CSV_CODES = {5: 1, 10: 3, 30: 4}  # sample -> CueLeft, FeedbackStart, FeedbackEnd


def commands() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every command, in the order they run."""
    study = ["--seed", "7", "--n-runs", "2", "--trials-per-run", "6", "--feedback-s", "2.0"]
    cmds = [
        ("generate", ["generate", "--out", "study", *study, "--report", "generate.json"]),
        ("generate-text", ["generate", "--out", "study-text", *study, "--text"]),
        ("import-csv", ["import-csv", "--csv", "rec.csv", "--out", "imported",
                        "--event-column", "code", "--fs", "16", "--kind", "Online1"]),
    ]
    for mode, extra in MODES:
        tag = mode.replace("+", "-")
        dec = f"dec-{tag}"
        cmds += [
            (f"train-{tag}", ["train", "--session", "study/offline", "--out", dec,
                              "--mode", mode, *extra]),
            (f"eval-samples-{tag}", ["eval-samples", "--decoder", dec,
                                     "--session", "study/online2"]),
            (f"eval-trials-{tag}", ["eval-trials", "--decoder", dec, "--session",
                                    "study/online2", "--theta", "0.3", "--delta", "0.05"]),
            (f"grid-search-{tag}", ["grid-search", "--decoder", dec, "--session",
                                    "study/online1", "--csv", f"grid-{tag}.csv"]),
            (f"replay-{tag}", ["replay", "--decoder", dec, "--session", "study/online2",
                               "--events"]),
        ]
    cmds += [
        ("train-config", ["train", "--session", "study/offline", "--session",
                          "study/online1", "--out", "dec-config", "--config", "config.json"]),
        ("train-centroid", ["train", "--session", "study/offline", "--out", "dec-centroid",
                            "--mode", "psd", "--classifier", "centroid", "--text"]),
        ("pca-sweep", ["pca-sweep", "--session", "study/offline", "--ks", "4,8"]),
        ("repro", ["repro", "--study", "study", "--mode", "psd+pca", "--pca", "24"]),
        ("repro-text", ["repro", "--study", "study", "--mode", "psd+pca", "--pca", "24",
                        "--text"]),
    ]
    # the batch causal path (replay streams instead); these run last so that
    # the commands above keep their log numbers
    for mode, _ in MODES:
        tag = mode.replace("+", "-")
        dec = f"dec-{tag}"
        cmds += [
            (f"eval-trials-causal-{tag}", ["eval-trials", "--decoder", dec, "--session",
                                           "study/online2", "--theta", "0.3", "--delta",
                                           "0.05", "--causal"]),
            (f"grid-search-causal-{tag}", ["grid-search", "--decoder", dec, "--session",
                                           "study/online1", "--csv",
                                           f"grid-causal-{tag}.csv", "--causal"]),
        ]
    # PCA fits that keep more than a quarter of the Gram's order (k=60 of
    # 204 rows, 40 of a fold's 102)
    cmds += [
        ("train-pca60", ["train", "--session", "study/offline", "--out", "dec-pca60",
                         "--mode", "pca", "--pca", "60"]),
        ("eval-samples-pca60", ["eval-samples", "--decoder", "dec-pca60",
                                "--session", "study/online2"]),
        ("pca-sweep-full", ["pca-sweep", "--session", "study/offline", "--ks", "8,40"]),
    ]
    # decoders scored at a non-default band order: dec-config's order 6 (from
    # config.json) and an order-8 alpha band
    cmds += [
        ("eval-samples-config", ["eval-samples", "--decoder", "dec-config",
                                 "--session", "study/online2"]),
        ("replay-config", ["replay", "--decoder", "dec-config", "--session",
                           "study/online2", "--events"]),
        ("train-order8", ["train", "--session", "study/offline", "--out", "dec-order8",
                          "--mode", "psd", "--band-order", "8", "--band-low", "8",
                          "--band-high", "12"]),
        ("eval-samples-order8", ["eval-samples", "--decoder", "dec-order8",
                                 "--session", "study/online2"]),
    ]
    # every PCA fit above has a Gram of order 204 or less, which the full
    # eigensolve serves at any k; a 7 s feedback gives 97 windows a trial,
    # so this train fit's Gram has order 1164, and at k=24 it takes the
    # solve for the k leading pairs alone
    cmds += [
        ("generate-long", ["generate", "--out", "study-long", "--seed", "7", "--n-runs",
                           "2", "--trials-per-run", "6", "--feedback-s", "7.0"]),
        ("train-pca-long", ["train", "--session", "study-long/offline", "--out",
                            "dec-pca-long", "--mode", "pca", "--pca", "24"]),
    ]
    # the batch causal path at dec-config's band order 6
    cmds += [
        ("eval-trials-causal-config", ["eval-trials", "--decoder", "dec-config",
                                       "--session", "study/online2", "--theta", "0.3",
                                       "--delta", "0.05", "--causal"]),
    ]
    return cmds


def write_inputs(out: Path) -> None:
    """The CSV for import-csv and the settings file for train --config."""
    rows = ["c3,c4,code"]
    for i in range(40):
        rows.append(f"{0.1 * i:.4f},{-0.05 * i:.4f},{CSV_CODES.get(i, 0)}")
    (out / "rec.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = {"feature_mode": "psd+pca", "k": 16, "band_order": 6, "nperseg": 128,
              "noverlap": 64}
    (out / "config.json").write_text(json.dumps(config, sort_keys=True) + "\n",
                                     encoding="utf-8")


def tree_digest(out: Path, files: list[Path]) -> str:
    """sha256 over the sorted lines '<sha256 of file>  <path relative to out>'."""
    lines = sorted(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}"
        for p in files
    )
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        usage = next(line for line in __doc__.splitlines() if "OUTDIR" in line)
        print("usage: " + usage.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 1
    write_inputs(out)
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    logs = out / "logs"
    logs.mkdir()
    for i, (name, args) in enumerate(commands()):
        proc = subprocess.run([sys.executable, "-m", "mi_decode.cli", *args], cwd=out,
                              env=env, capture_output=True)
        (logs / f"{i:02d}-{name}.stdout").write_bytes(proc.stdout)
        (logs / f"{i:02d}-{name}.stderr").write_bytes(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {name} exited {proc.returncode}: "
                  f"{proc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 1
    files = [p for p in out.rglob("*") if p.is_file()]
    outside = [p for p in files if not p.relative_to(out).parts[0].startswith("dec-")]
    try:
        print(f"{tree_digest(out, files)}  all {len(files)} files")
        print(f"{tree_digest(out, outside)}  the {len(outside)} files outside dec-*/")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout went away (``... OUTDIR | head -1``): point
        # stdout at devnull so that the interpreter's last flush cannot fail
        # again, and exit quietly, as the CLI does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
