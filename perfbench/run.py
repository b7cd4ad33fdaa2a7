"""koopnf benchmark: seeded workloads run against the public API from outside.

Run from the repository root::

    python3 perfbench/run.py --workload series_wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` runs tasks for ``--seconds`` seconds of task time and reports
the end-to-end metrics: ``ops_per_s`` (solves, points or commands per
second), ``setup_s`` (the time fresh interpreters take to import koopnf
and load the workload's inputs) and ``peak_rss_mb``.  ``--trace 1`` runs a
fixed number of tasks untraced and then the same tasks traced, and reports
the per-layer metrics of ``layers.py``.  Correctness checks run outside the
timed region; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs each
workload in its own process, one after the other, and prints a summary
table.

Calibrated seconds.  The speed of a small shared machine drifts by tens of
percent over minutes, and a slow spell can outlast a whole run.  So every
timed interval is bracketed by a fixed reference kernel of plain Python and
small numpy calls, and rescaled to the machine speed at which that kernel
takes ``REF_SECONDS``: calibrated = measured * REF_SECONDS / kernel time.
The kernel lives here, not in koopnf, so a change to the package moves the
calibrated figures exactly as it moves the measured ones.  Tasks are timed
in steps (one CLI command, one study, one solve) with the kernel run
between steps, so the speed estimate stays close to the work it scales.
Throughput comes from the mean of the fastest three quarters of the
calibrated task times, which drops the slow spells the kernel missed;
measured figures are printed beside it.
"""

from __future__ import annotations

import os

# One BLAS thread: timings steady on a small shared machine.  Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_TASKS = 3
SETUP_SPAWNS = 11
REF_SECONDS = 0.01
THROUGHPUT_NAMES = {"solves": "solves_per_s", "points": "points_per_s",
                    "commands": "commands_per_s"}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        **{var: os.environ.get(var) for var in
           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


_KERNEL_POLY = {(i, j, k): complex(i + 1, j - k)
                for i in range(4) for j in range(4) for k in range(3)}


def _kernel_dict() -> int:
    acc: dict = {}
    for i in range(8000):
        key = (i % 7, i % 11, i % 3)
        acc[key] = acc.get(key, 0j) + complex(i, 1.0) * 0.5
    return len(acc)


def _kernel_poly() -> list:
    acc: dict = {}
    for ka, ca in _KERNEL_POLY.items():
        for kb, cb in _KERNEL_POLY.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            acc[key] = acc.get(key, 0j) + ca * cb
    return sorted(acc, key=lambda t: (sum(t), t))


def _kernel_numpy() -> float:
    x = np.arange(3, dtype=complex)
    worst = 0.0
    for _ in range(300):
        y = x - np.array([complex(v) ** 2 for v in x])
        worst = max(worst, float(np.max(np.abs(y))))
    return worst


def kernel_seconds() -> float:
    """Current duration of the reference kernel.

    Its three parts mimic the package's instruction mix (dict accumulation,
    sparse products on tuple keys, small numpy arrays); each part counts
    with the fastest of three runs.
    """
    total = 0.0
    for part in (_kernel_dict, _kernel_poly, _kernel_numpy):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - start)
        total += best
    return total


def _calibrate(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * REF_SECONDS / (0.5 * (kernel_before + kernel_after))


def _fast_mean(values: list[float]) -> float:
    """Mean of the fastest three quarters of the values."""
    fastest = sorted(values)[: max(1, 3 * len(values) // 4)]
    return statistics.fmean(fastest)


def measure_setup(payload: dict, spawns: int = SETUP_SPAWNS) -> tuple[float, float]:
    """Median measured and calibrated seconds that fresh interpreters take to
    import koopnf and load the inputs, as each interpreter times itself.

    One extra spawn first writes byte-code caches and is not counted.
    """
    data = json.dumps(payload).encode()
    cmd = [sys.executable, str(HERE / "inputs.py")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

    def spawn() -> float:
        proc = subprocess.run(cmd, input=data, env=env, check=True, cwd=ROOT,
                              stdout=subprocess.PIPE)
        return float(proc.stdout)

    spawn()
    measured, calib = [], []
    kernel = kernel_seconds()
    for _ in range(spawns):
        seconds = spawn()
        after = kernel_seconds()
        measured.append(seconds)
        calib.append(_calibrate(seconds, kernel, after))
        kernel = after
    return statistics.median(measured), statistics.median(calib)


class Runner:
    """Runs tasks of one workload; only the calls into koopnf are timed."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0

    def task(self, i: int, tracer=None) -> tuple[float, float, str | None]:
        """Run task i; return measured seconds, calibrated seconds and its digest text."""
        prepared = self.wl.prepare(i)
        steps = self.wl.run(prepared)
        elapsed = calib = 0.0
        kernel = kernel_seconds()
        done = False
        while not done:
            with tracer if tracer is not None else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    next(steps)
                except StopIteration as stop:
                    output, done = stop.value, True
                except Exception as exc:  # a task that raises fails all its operations
                    output, done = exc, True
                step = time.perf_counter() - start
            after = kernel_seconds()
            elapsed += step
            calib += _calibrate(step, kernel, after)
            kernel = after
        self.attempted += self.wl.ops_per_task
        if isinstance(output, Exception):
            print(f"task {i} raised {output!r}", file=sys.stderr)
            self.failed += self.wl.ops_per_task
            return elapsed, calib, None
        self.failed += self.wl.check(prepared, output)
        return elapsed, calib, self.wl.canonical(output)


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
                 spawns: int = SETUP_SPAWNS) -> dict:
    """Run one workload and return the result object the benchmark prints last."""
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".out-") as out_dir:
        wl = WORKLOADS[name](seed, small, out_dir)
        runner = Runner(wl)
        print(f"workload {name}: {wl.size}; seed {seed}; trace {int(trace)}")
        first = runner.task(0)[2]
        print(f"digest {name} sha256={hashlib.sha256(str(first).encode()).hexdigest()}")
        if trace:
            metrics = _traced(runner)
        else:
            metrics = _timed(runner, seconds)
            raw, calib = measure_setup(wl.setup_payload(), spawns)
            print(f"setup: median of {spawns} spawns {raw:.4f} s measured, "
                  f"{calib:.4f} s calibrated")
            metrics["setup_s"] = {"value": calib, "unit": "s"}
            metrics["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"}
    fail_frac = runner.failed / runner.attempted
    for key in ("ops_per_s", "setup_s", "peak_rss_mb"):
        if key in metrics:
            label = THROUGHPUT_NAMES[wl.op] if key == "ops_per_s" else key
            print(f"{label:<16} {metrics[key]['value']:.6g} {metrics[key]['unit']}")
    print(f"{'fail_frac':<16} {fail_frac:.6g} ratio  ({runner.failed} of {runner.attempted} "
          f"{wl.op} failed)")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def _timed(runner: Runner, seconds: float) -> dict:
    wl = runner.wl
    raw, calib = [], []
    i = 1
    while sum(raw) < seconds or len(raw) < MIN_TASKS:
        elapsed, scaled, _ = runner.task(i)
        raw.append(elapsed)
        calib.append(scaled)
        i += 1
    print(f"tasks {len(raw)} x {wl.ops_per_task} {wl.op}; task seconds: measured median "
          f"{statistics.median(raw):.4f}, fastest-3/4 mean {_fast_mean(raw):.4f}; calibrated "
          f"median {statistics.median(calib):.4f}, fastest-3/4 mean {_fast_mean(calib):.4f}; "
          f"measured {THROUGHPUT_NAMES[wl.op]} {wl.ops_per_task / _fast_mean(raw):.6g}")
    return {"ops_per_s": {"value": wl.ops_per_task / _fast_mean(calib), "unit": "1/s"}}


def _traced(runner: Runner) -> dict:
    from layers import LAYERS, TARGETS, layer_metrics, layer_shares
    from tracer import Tracer

    wl = runner.wl
    n = wl.trace_tasks
    plain = [runner.task(i) for i in range(1, n + 1)]
    tracer = Tracer(TARGETS)
    bytes_before = getattr(wl, "output_bytes", 0)
    traced = [runner.task(i, tracer) for i in range(1, n + 1)]
    output_bytes = getattr(wl, "output_bytes", 0) - bytes_before
    differing = sum(a[2] != b[2] for a, b in zip(plain, traced))
    if differing:
        print(f"{differing} traced tasks differ from their untraced runs", file=sys.stderr)
        runner.failed += differing * wl.ops_per_task
    wall_s = sum(t[0] for t in traced)
    overhead = sum(t[1] for t in traced) / sum(t[1] for t in plain) - 1.0
    metrics, missing = layer_metrics(tracer, wall_s, overhead, output_bytes)
    shares = layer_shares(tracer, wall_s)
    print(f"traced {n} tasks: wall {wall_s:.4f} s, span self-time sum "
          f"{tracer.self_total() / wall_s:.4f} of wall, overhead {overhead:.4f}")
    print("self-time share " + " ".join(f"{layer} {shares[layer]:.4f}" for layer in LAYERS))
    if missing:
        print("missing (function no longer exists): " + " ".join(missing))
    try:
        text, ok = wl.stress(metrics, shares)
        print(f"stress {wl.name}: {text}: {'met' if ok else 'NOT met'}")
    except KeyError as exc:
        print(f"stress {wl.name}: not measurable, metric {exc} is missing")
    return metrics


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, then one summary table."""
    from workloads import WORKLOADS

    results = {}
    for name, cls in WORKLOADS.items():
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[1:-1]))
        results[name] = (cls, json.loads(lines[-1]))
    if not trace:
        print(f"\n{'workload':<16}{'throughput':<32}{'setup_s':>10}{'peak_rss_mb':>13}"
              f"{'fail_frac':>11}")
        for name, (cls, res) in results.items():
            m = res["metrics"]
            rate = f"{THROUGHPUT_NAMES[cls.op]} {m['ops_per_s']['value']:.5g} 1/s"
            print(f"{name:<16}{rate:<32}{m['setup_s']['value']:>10.4f}"
                  f"{m['peak_rss_mb']['value']:>13.1f}{res['failed'] / res['attempted']:>11.3g}")
    return {
        "correct": all(res["correct"] for _, res in results.values()),
        "attempted": sum(res["attempted"] for _, res in results.values()),
        "failed": sum(res["failed"] for _, res in results.values()),
        "metrics": {f"{name}.{key}": value for name, (_, res) in results.items()
                    for key, value in res["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "koopnf" / "__init__.py").is_file():
        print(f"error: no koopnf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from inputs import SRC, koopnf
    from workloads import WORKLOADS

    if not Path(koopnf.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported koopnf from {koopnf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    print("env " + json.dumps(environment()))
    warnings.simplefilter("ignore")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
