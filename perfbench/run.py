"""Benchmark for mi_decode: one seeded workload per run, closed loop.

    python3 perfbench/run.py --workload calibrate-psd --seed 7 --seconds 35 --trace 0

Run from the repository root; the package is imported from ./src. Set-up
(writing the seeded study to disk) runs several times in a child process,
so the timed phase's peak RSS excludes it. The timed phase then runs the
workload's user path over and over, one operation after another, until
--seconds have passed, and reports per-operation timings. With --trace 1
the run instead times one untraced iteration of the path and one traced
iteration and reports per-layer metrics from the spans of the traced
one, plus the tracing overhead.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import STEP_S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_s": "s",
    "select_s": "s",
    "peak_rss_mb": "MB",
    "eval_windows_per_s": "windows/s",
}


def import_package():
    """Import mi_decode from this checkout's src/, never from elsewhere."""
    if not (SRC / "mi_decode" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'mi_decode'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mi_decode

    if Path(mi_decode.__file__).resolve().parent != SRC / "mi_decode":
        sys.exit(f"error: imported mi_decode from {mi_decode.__file__}, not {SRC}")
    return mi_decode


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    info["blas_threads"] = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = fn()
                    break
    except OSError:
        pass
    return info


def environment(threads_env: str | None) -> dict:
    import numpy as np
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        **blas_info(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "MI_DECODE_THREADS": "unset" if threads_env is None
        else f"unset by the benchmark (was {threads_env!r})",
    }


def setup_child(args) -> None:
    """--setup-only: write the study SETUP_REPS times; print the timings (and spans)."""
    import_package()
    from tracing import Tracer
    from workloads import WORKLOADS, generate

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    times = []
    for rep in range(1 if args.trace else SETUP_REPS):
        t0 = time.perf_counter()
        generate(workload, args.seed, Path(args.work) / f"study-{rep}")
        times.append(time.perf_counter() - t0)
    if tracer:
        tracer.uninstall()
    print(json.dumps({"times": times, "spans": tracer.to_records() if tracer else []}))


def run_setup(args, work: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--work", str(work)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: set-up failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))]


def by_op(samples) -> dict[str, list]:
    out: dict[str, list] = {}
    for x in samples:
        if x.seconds is not None:
            out.setdefault(x.op, []).append(x)
    return out


def ungated_metrics(ops: dict[str, list]) -> dict:
    """Times of the interpreter-bound online calls, printed but not gated.

    On the shared VM measured here, pure-Python code runs at two speeds
    about 1.8x apart, in phases that can outlast a whole run, while
    vectorised code slows by a tenth or less. The accumulator loops of
    grid_search, the causal replay and the per-window stream are such
    code, so no statistic of one run steadies them across runs.

    The stream calls of a run stream at least 3780 windows together, so at
    least 37 lie beyond p99, where the trial-start windows, which filter
    the whole trial block, land.
    """
    gaps = [g for x in ops["stream"] for g in x.gaps]
    return {
        "grid_s": statistics.fmean(x.seconds for x in ops["grid"]),
        "replay_s": statistics.fmean(x.seconds for x in ops["replay"]),
        "stream_window_p50_ms": 1e3 * percentile(gaps, 50),
        "stream_window_p99_ms": 1e3 * percentile(gaps, 99),
        "stream_rtf": sum(x.seconds for x in ops["stream"]) / (len(gaps) * STEP_S),
    }


def end_to_end(samples, setup_times: list[float]) -> dict:
    """Per-operation means over the run's calls; set-up's median.

    A call's time on a shared VM is often bimodal: the host's speed shifts
    by up to 1.8x for seconds at a time, so a run's calls fall into two
    groups. The median of a dozen calls then jumps from one group to the
    other between runs, while the mean moves only with the share of slow
    calls.
    """
    ops = by_op(samples)

    def mean_s(op):
        return statistics.fmean(x.seconds for x in ops[op])

    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(mean_s(op) for op in ops),
        "train_s": mean_s("train"),
        "select_s": mean_s("select"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "eval_windows_per_s": (sum(x.windows for x in ops["eval"])
                               / sum(x.seconds for x in ops["eval"])),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    threads_env = os.environ.pop("MI_DECODE_THREADS", None)  # folds run one by one
    if args.setup_only:
        setup_child(args)
        return 0

    import_package()
    from tracing import Tracer, layer_metrics
    from workloads import OPS, WORKLOADS, Runner

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]

    work = WORK / f"{workload.name}-s{args.seed}-{os.getpid()}"
    try:
        setup = run_setup(args, work)
        study = work / "study-0"
        runner = Runner(workload, study, work / "decoder")
        if args.trace:
            # one untraced iteration, then one traced, to price the tracing
            runner.iteration()
            tracer = Tracer()
            tracer.extend(setup["spans"])
            traced = Runner(workload, study, work / "decoder", tracer)
            tracer.install()
            try:
                traced.iteration()
            finally:
                tracer.uninstall()
            tracer.dump(WORK / f"trace-{workload.name}-s{args.seed}.jsonl")
            samples = runner.samples + traced.samples
        else:
            # closed loop: the user path over and over, one operation after
            # another, once whole and then while the next operation, at its
            # last call's time, still ends within --seconds
            start = time.perf_counter()
            last: dict[str, float] = {}
            for i, op in enumerate(itertools.cycle(runner.path)):
                t0 = time.perf_counter()
                if i >= len(runner.path) and t0 - start + last[op] > args.seconds:
                    break
                runner.run(op)
                last[op] = time.perf_counter() - t0
            samples = runner.samples
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a call fails when it raised, failed its check, or its report bytes
    # differ from the first call's: equal inputs must give equal bytes
    first: dict[str, str | None] = {}
    for x in samples:
        first.setdefault(x.op, x.digest)
        if x.error is None and x.digest != first[x.op]:
            x.error = f"report digest {x.digest} != {first[x.op]}"
    failures = [x for x in samples if x.error is not None]
    for x in failures:
        print(f"FAILED {x.op}: {x.error}", file=sys.stderr)
    attempted, failed = len(samples), len(failures)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(environment(threads_env), sort_keys=True))
    for op in OPS:
        if first.get(op):
            print(f"digest {op:<8} {first[op]}")
        times = [f"{x.seconds:.4f}" for x in samples if x.op == op and x.seconds]
        print(f"times  {op:<8} {' '.join(times)}")
    print(f"failed_ops_frac {failed / attempted:.4f} ratio ({failed}/{attempted})")

    metrics = {}
    if not failed:
        if args.trace:
            layers = layer_metrics(tracer.spans)
            # too unsteady here to gate on (see ungated_metrics); taken from
            # the untraced iteration, so the wrappers do not inflate them
            for name, value in ungated_metrics(by_op(runner.samples)).items():
                layers[f"evidence.{name}"] = value
            layers["trace.overhead_s"] = (sum(x.seconds for x in traced.samples)
                                          - sum(x.seconds for x in runner.samples))
            layers["trace.spans"] = len(tracer.spans)
            units = {name: layer_unit(name) for name in layers}
        else:
            layers = end_to_end(samples, setup["times"])
            units = END_TO_END_UNITS
            for name, value in ungated_metrics(by_op(samples)).items():
                print(f"{name:<32} {value:.6g} {layer_unit(name)} (not gated)")
        for name, value in layers.items():
            print(f"{name:<32} {value:.6g} {units[name]}")
            metrics[name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failed else 1


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_rtf"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(1)
