"""Self-test of the benchmark, each workload at its smallest size.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

It checks that the map files still load back to the test helper maps, that
every workload passes its correctness checks, that an untraced run reports
exactly the ``end_to_end`` metrics of BENCHMARK.json and a traced run
exactly its ``per_layer`` metrics, and that the per-layer self times sum to
the traced wall time within 5 %.  Exits 1 on any failed check.
"""

from __future__ import annotations

import json
import sys
import warnings

import run as bench

SELF_TIME_TOLERANCE = 0.05


def main() -> int:
    warnings.simplefilter("ignore")
    from make_maps import check as check_maps
    from workloads import WORKLOADS

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    print("env " + json.dumps(bench.environment()))
    problems = [f"map file {name} differs from its helper map" for name in check_maps()]
    for name in WORKLOADS:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result = bench.run_workload(name, seed=0, seconds=0, trace=trace, small=True, spawns=1)
            metrics = result["metrics"]
            label = f"{name} trace {int(trace)}"
            if not result["correct"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            if set(metrics) != expected:
                problems.append(f"{label}: metrics missing {sorted(expected - set(metrics))}, "
                                f"unexpected {sorted(set(metrics) - expected)}")
            if trace:
                covered = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
                wall = metrics["trace.wall_s"]["value"]
                print(f"{label}: self times sum to {covered / wall:.4f} of traced wall time")
                if abs(covered - wall) > SELF_TIME_TOLERANCE * wall:
                    problems.append(f"{label}: self times cover {covered / wall:.3f} of wall")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
