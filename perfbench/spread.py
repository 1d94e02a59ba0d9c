"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --workload online-session --seeds 1-10 --out runs.json

Each seed is one untraced run (``run.py --trace 0``), one after another.
Prints, per metric, the median, the quartiles and the spread (quartile
distance over the median, from ``statistics.quantiles(values, n=4)``),
and writes every run's result line to --out for later comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", default="35")
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=180)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "returncode": proc.returncode, **result})
        print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed", flush=True)

    ok = all(r["returncode"] == 0 and r["correct"] for r in runs)
    names = list(runs[0]["metrics"]) if ok else []
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{name:<24} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {(q3 - q1) / med:.4f}  {runs[0]['metrics'][name]['unit']}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "runs": runs}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
