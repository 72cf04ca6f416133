#!/usr/bin/env python3
"""polarface benchmark: three CLI workloads on a seeded ORL-shaped tree.

From the repository root:

    python3 perfbench/run.py --workload dft-error-rate --seed 1 --seconds 30 --trace 0

A run builds its inputs from --seed (perfbench/inputs.py): a 40 x 10
tree of 112 x 92 P5 images with a 6-field eye manifest, and a 2 x 2
set-up tree.  Every invocation is a `python3 -m polarface.cli` child
process run from src/, with its BLAS pool fixed at one thread.

--trace 0 measures the end-to-end metrics: the workload's command on
the set-up tree (with --k-train 1 --reps 1) SETUP_REPS times for
`setup_s`, then the workload's command in a closed loop (one client; the
next invocation starts when the previous one has exited) for --seconds.
Wall time runs from spawn to exit; CPU time and peak resident memory
come from the child's own rusage.

--trace 1 measures the per-layer metrics: pairs of an untraced and a
traced invocation (perfbench/tracer.py) in a closed loop for --seconds.

Every invocation's outputs are checked (perfbench/check.py) and reruns
of one configuration must write identical bytes; an invocation that
exits non-zero or fails a check counts as failed.  The last line of
stdout is the JSON result; the lines before it are the same figures for
people, plus the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPS = 3
MIN_INVOCATIONS = 2  # the byte-identical rerun check needs a second run

# Why each workload is here is recorded in BENCHMARK.json, and why there
# is no fbt-only workload or thread-pool workload in NOTES.md.
WORKLOADS = {
    "dft-error-rate": ["experiment", "error-rate", "--mode", "dft", "--k-train", "5",
                       "--reps", "10", "--workers", "1"],
    "dft-feature-map": ["experiment", "feature-map", "--mode", "dft"],
    "fused-roc-normalized": ["experiment", "roc", "--mode", "fused", "--normalize",
                             "--layout", "flat-manifest", "--workers", "1"],
}
SETUP_ARGS = ["--k-train", "1", "--reps", "1"]
# Every child gets one BLAS thread: with default BLAS threading on top of
# --workers a run uses more threads than cores, and its CPU time depends
# on the BLAS library's own choice of thread count.
BLAS_ENV = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


@contextlib.contextmanager
def workdir(workload: str, seed: int):
    path = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            WORK.rmdir()


def make_inputs(work: Path, seed: int) -> dict[str, Path]:
    trees = {"full": work / "tree", "setup": work / "setup-tree"}
    inputs.make_tree(trees["full"], seed)
    inputs.make_tree(trees["setup"], seed, n_subjects=2, n_images=2)
    return trees


def cli_command(workload: str, trees: dict[str, Path], out: Path, setup: bool = False) -> list[str]:
    tree = trees["setup" if setup else "full"]
    dataset = tree / "manifest.csv" if "--normalize" in WORKLOADS[workload] else tree
    extra = SETUP_ARGS if setup else []
    return [*WORKLOADS[workload], *extra, "--dataset", str(dataset), "--out", str(out)]


def invoke(cli_args: list[str], work: Path, trace_path: Path | None = None) -> dict:
    """Run one child to completion; return its timings and exit code."""
    if trace_path is None:
        prog = [sys.executable, "-m", "polarface.cli"]
    else:
        prog = [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--"]
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([*prog, *cli_args], env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        "code": proc.returncode,
        "stderr": err_path.read_text(errors="replace")[-500:],
    }


class Runner:
    """Invocations of one workload on one seed, with their checks."""

    def __init__(self, workload: str, seed: int, work: Path, trees: dict[str, Path], references: dict):
        self.workload, self.seed, self.work, self.trees = workload, seed, work, trees
        self.references = references
        self.attempted = 0
        self.failed = 0
        self._digests: dict[str, str] = {}

    def run(self, setup: bool = False, trace_path: Path | None = None) -> dict:
        out = self.work / f"out-{self.attempted}"
        sample = invoke(cli_command(self.workload, self.trees, out, setup), self.work, trace_path)
        if sample["code"] != 0:
            problems = [f"exit code {sample['code']}: {sample['stderr'].strip()}"]
        else:
            refs = None if setup else self.references
            problems, digest = check.check_outputs(out, self.workload, refs, self.seed)
            first = self._digests.setdefault("setup" if setup else "full", digest)
            if digest != first:
                problems.append("outputs differ from the first run of this configuration")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        sample["ok"] = not problems
        if problems:
            self.failed += 1
            print(f"invocation {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        return sample


def closed_loop(step, seconds: float, min_count: int) -> list:
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < min_count or time.perf_counter() < deadline:
        samples.append(step())
    return samples


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99, p90, p50 with at least ten samples beyond it."""
    for p in (99, 90, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    setup = [runner.run(setup=True)["wall_s"] for _ in range(SETUP_REPS)]
    runs = closed_loop(runner.run, seconds, MIN_INVOCATIONS)
    metrics = {k: statistics.median(r[k] for r in runs) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup)
    walls = [r["wall_s"] for r in runs]
    notes = [
        f"wall_s median of {len(runs)} invocations: " + ", ".join(f"{w:.4f}" for w in walls),
        "cpu_s per invocation: " + ", ".join(f"{r['cpu_s']:.4f}" for r in runs),
        f"setup_s median of {SETUP_REPS} invocations on the 2 x 2 tree: "
        + ", ".join(f"{s:.4f}" for s in setup),
    ]
    tail = tail_percentile(walls)
    notes.append(f"wall_s p{tail[0]} {tail[1]:.4f} s" if tail else
                 f"wall_s tail: {len(runs)} invocations are too few for a percentile "
                 "with ten samples beyond it")
    return metrics, notes


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    trace_path = runner.work / "trace.json"
    untraced, traced, traces = [], [], []

    def step():
        # An untraced invocation before each traced one, so that tracing
        # overhead compares invocations made under the same conditions.
        untraced.append(runner.run()["wall_s"])
        trace_path.unlink(missing_ok=True)
        sample = runner.run(trace_path=trace_path)
        if sample["ok"]:
            traced.append(sample["wall_s"])
            traces.append(tracer.layer_metrics(json.loads(trace_path.read_text(encoding="utf-8"))))

    closed_loop(step, seconds, 1)
    if not traces:
        raise SystemExit("no traced invocation succeeded")
    metrics = {k: statistics.median(m[k] for m in traces) for k in traces[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    notes = [f"per-layer medians of {len(traces)} traced invocations; wall_s median "
             f"{statistics.median(untraced):.4f} s untraced, {statistics.median(traced):.4f} s traced"]
    return metrics, notes


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    sources = sorted((SRC / "polarface").glob("*.py"))
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_ENV,
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="polarface benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "polarface" / "cli.py").is_file():
        print(f"perfbench: no polarface sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer" if args.trace else "end_to_end"]

    with workdir(args.workload, args.seed) as work:
        trees = make_inputs(work, args.seed)
        runner = Runner(args.workload, args.seed, work, trees, check.load_references())
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(runner, args.seconds)

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, one client")
    for m in declared:
        print(f"  {m['name']:<44} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} invocations)")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
