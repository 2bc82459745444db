#!/usr/bin/env python3
"""Benchmark of hkcurves on four seeded workloads.

    python3 perfbench/run.py --workload pencil-reduce --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  See perfbench/README.md.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import NOMINAL_KERNEL_S, Calibrator

# the benchmark's own environment: one OpenBLAS thread (numpy loads later,
# inside the timed set-up, and in the set-up child processes)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
if not (SRC / "hkcurves" / "__init__.py").is_file():
    sys.exit(f"{SRC / 'hkcurves'} not found: run from the root of an hkcurves checkout")
sys.path.insert(1, str(SRC))

# set-up is measured this many times per run (in this process and in fresh
# child processes) and reported as the median
SETUP_SAMPLES = 3
# a curve-sections round (6 items) takes about as long as the whole timed
# loop; this floor keeps its median from resting on one round
MIN_ITEMS = 12


def timed_setup(name: str, seed: int, cal: Calibrator):
    """Import the library and draw the workload's pool.

    Returns (workload, pool, rescaled seconds, raw seconds).  Runs first in
    a fresh process, so the timed import really loads the library.
    """
    _, raw, scaled = cal.measure(importlib.import_module, "hkcurves")
    import workloads  # after the timed import: it imports hkcurves itself

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    pool = []
    for k in range(workload.pool_size):
        x, step_raw, step_scaled = cal.measure(workload.draw, seed, k)
        pool.append(x)
        raw += step_raw
        scaled += step_scaled
    return workload, pool, scaled, raw


def setup_in_child(name: str, seed: int):
    """(rescaled, raw) set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up child exited with {proc.returncode}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["raw_setup_s"]


class Runner:
    """Runs and checks items, rescaling each item's time by the kernel."""

    def __init__(self, workload, cal: Calibrator) -> None:
        self.workload = workload
        self.cal = cal
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.errors: list = []
        self.outputs: list = []

    def run_item(self, x):
        """(raw, rescaled) seconds of one item, or None when it raised."""
        self.attempted += 1
        try:
            out, raw, scaled = self.cal.measure(self.workload.item, x)
        except Exception as exc:  # counted as a failed operation; the run goes on
            self.failed += 1
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        if self.workload.finish is not None:
            self.outputs.append(out)
        self.errors.extend(self.workload.check(x, out))
        return raw, scaled

    def round(self, pool):
        """One item per pool input; the (raw, rescaled) times of those that ran."""
        times = [self.run_item(x) for x in pool]
        return [t for t in times if t is not None]

    def finish(self, seed: int) -> None:
        if self.outputs:
            self.errors.extend(self.workload.finish(seed, self.outputs))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(runner: Runner, metrics: dict, args, lines: list) -> None:
    for line in lines:
        print(line)
    for message in runner.failures[:5]:
        print(f"failed: {message}")
    for message in runner.errors[:10]:
        print(f"check failed: {message}")
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    print(json.dumps(result))


def run_untraced(args) -> None:
    cal = Calibrator()
    workload, pool, scaled, raw = timed_setup(args.workload, args.seed, cal)
    samples = [(scaled, raw)] + [setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    gc.collect()
    runner = Runner(workload, cal)
    runner.run_item(pool[0])  # warm-up, untimed
    times = []
    start = time.perf_counter()
    rounds = 0
    while True:
        times += runner.round(pool)
        rounds += 1
        if len(times) >= MIN_ITEMS and time.perf_counter() - start >= args.seconds:
            break
    runner.finish(args.seed)
    raw_t = [t[0] for t in times]
    scaled_t = [t[1] for t in times]
    setup_scaled = statistics.median(s for s, _ in samples)
    metrics = {
        "item_p50_ms": (statistics.median(scaled_t) * 1000, "ms"),
        "items_per_s": (len(scaled_t) / sum(scaled_t), "1/s"),
        "setup_s": (setup_scaled, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    kernels = cal.kernels
    lines = [
        f"workload {args.workload} seed {args.seed}: {len(times)} timed items "
        f"({rounds} rounds of {len(pool)}) and 1 warm-up item; "
        f"{runner.attempted} attempted, {runner.failed} failed",
        f"item_p50_ms {metrics['item_p50_ms'][0]:.2f} (median of {len(times)}; raw {statistics.median(raw_t) * 1000:.2f})",
        f"items_per_s {metrics['items_per_s'][0]:.4f} (raw {len(raw_t) / sum(raw_t):.4f})",
        f"setup_s {setup_scaled:.4f} (median of {len(samples)}: "
        + ", ".join(f"{s:.4f}" for s, _ in samples)
        + "; raw "
        + ", ".join(f"{r:.4f}" for _, r in samples)
        + ")",
        f"kernel mean {statistics.fmean(kernels) * 1000:.3f} ms over {len(kernels)} runs "
        f"(nominal {NOMINAL_KERNEL_S * 1000:.0f} ms)",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f}",
    ]
    report(runner, metrics, args, lines)


def run_traced(args) -> None:
    from tracer import Tracer, per_layer_metric_specs

    cal = Calibrator()
    workload, pool, _, _ = timed_setup(args.workload, args.seed, cal)
    gc.collect()
    runner = Runner(workload, cal)
    runner.run_item(pool[0])  # warm-up, untimed
    plain = runner.round(pool)
    tracer = Tracer()
    tracer.install()
    try:
        # set-up again under the tracer, so set-up layers are counted too
        traced_pool = [workload.draw(args.seed, k) for k in range(workload.pool_size)]
        first_kernel = len(cal.kernels)
        traced = runner.round(traced_pool)
    finally:
        tracer.uninstall()
    runner.finish(args.seed)
    time_scale = NOMINAL_KERNEL_S / statistics.fmean(cal.kernels[first_kernel:])
    values, bases = tracer.metrics(time_scale)
    # both rounds ran the same inputs in the same order; pairing each item
    # with itself keeps machine drift between the rounds out of the figure
    ratios = [b[1] / a[1] for a, b in zip(plain, traced)]
    values["trace.overhead_pct"] = (statistics.median(ratios) - 1.0) * 100.0
    metrics = {name: (values[name], unit) for name, unit, _ in per_layer_metric_specs()}
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    lines = [
        f"workload {args.workload} seed {args.seed}: traced set-up and one traced round of "
        f"{len(traced_pool)} items, after one untraced round; "
        f"{runner.attempted} attempted, {runner.failed} failed",
        f"tracing overhead {values['trace.overhead_pct']:.1f}% (median over {len(ratios)} items of "
        f"traced / untraced rescaled time; rounds {sum(t[1] for t in plain):.3f} s untraced, "
        f"{sum(t[1] for t in traced):.3f} s traced)",
        f"{len(tracer.spans)} spans written to {trace_path.relative_to(HERE.parent)}",
    ] + [f"{name}: {base}" for name, base in bases.items()]
    report(runner, metrics, args, lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="print one set-up sample as JSON (used internally)"
    )
    args = parser.parse_args()
    if args.setup_only:
        _, _, scaled, raw = timed_setup(args.workload, args.seed, Calibrator())
        print(json.dumps({"setup_s": scaled, "raw_setup_s": raw}))
    elif args.trace:
        run_traced(args)
    else:
        run_untraced(args)


if __name__ == "__main__":
    main()
