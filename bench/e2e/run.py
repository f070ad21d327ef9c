#!/usr/bin/env python3
"""Build prefbench from source and run one workload.

    python3 bench/e2e/run.py --workload serve_warm --seed 1 --seconds 15 \
        --trace 0

Run from the repository root. The first call configures and builds
bench/e2e (a standalone CMake project that pulls prefdb in as a
subdirectory) under $CARGO_TARGET_DIR, default .bench_build; later calls
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is prefbench's JSON result. With --trace 1 the run also writes
its spans to <build dir>/trace/<workload>.jsonl and reports the per-layer
metrics instead of the end-to-end ones.

The metric names printed must match BENCHMARK.json's lists, and
layer_map.json must map every per-layer metric; a mismatch fails the run,
so the files and the program cannot drift apart.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import FrameType

from compare_runs import load_spec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Every child runs in its own process group, so stopping one also stops
# what it started (make and the compilers under cmake --build).
running: list[subprocess.Popen[str]] = []


def stop_all() -> None:
    for proc in running:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    running.clear()


def on_signal(signum: int, frame: FrameType | None) -> None:
    stop_all()
    sys.exit(1)


def run(command: list[str], deadline: float, capture: bool) -> tuple[int, str]:
    """Runs command to completion before deadline (time.monotonic());
    returns its exit status and its stdout when captured, else sends its
    stdout to our stderr. Raises subprocess.TimeoutExpired past deadline."""
    proc = subprocess.Popen(command, text=True, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr)
    running.append(proc)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop_all()
        raise
    running.remove(proc)
    return proc.returncode, out or ""


def build(build_dir: Path) -> bool:
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (build_dir / "Makefile").exists():
        status, _ = run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"], deadline, capture=False)
        if status != 0:
            return False
    status, _ = run(["cmake", "--build", str(build_dir), "--target", "prefbench",
                     "-j", str(os.cpu_count() or 1)], deadline, capture=False)
    return status == 0


def expected_metrics(trace: bool) -> set[str]:
    """Per-layer (trace) or end-to-end metric names; load_spec also checks
    that layer_map.json maps every per-layer metric."""
    spec = load_spec(ROOT / "BENCHMARK.json")
    return {m.name for m in spec.values() if (m.bound is None) == trace}


def main() -> int:
    parser = argparse.ArgumentParser(description=(__doc__ or "").splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        expected = expected_metrics(bool(args.trace))
    except (OSError, ValueError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "prefbench"
    try:
        built = build(build_dir)
    except subprocess.TimeoutExpired:
        built = False
    if not built:
        print("run.py: build failed", file=sys.stderr)
        return 1

    command = [str(build_dir / "prefbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--duration", str(args.seconds),
               "--inputs", str(BENCH_DIR / "workloads")]
    if args.trace:
        trace_dir = build_dir / "trace"
        trace_dir.mkdir(exist_ok=True)
        command += ["--trace", str(trace_dir / f"{args.workload}.jsonl")]
    try:
        status, stdout = run(command, time.monotonic() + RUN_TIMEOUT_S, capture=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: prefbench exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    try:
        printed = set(json.loads(lines[-1])["metrics"])
    except (IndexError, ValueError, KeyError, TypeError):
        print("run.py: prefbench printed no result", file=sys.stderr)
        return 1
    if printed != expected:
        print(f"run.py: metrics differ from BENCHMARK.json: missing "
              f"{sorted(expected - printed)}, extra {sorted(printed - expected)}",
              file=sys.stderr)
        return 1
    print(lines[-1])
    return status


if __name__ == "__main__":
    sys.exit(main())
