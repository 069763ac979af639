#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

It requires BENCHMARK.json to declare the metrics run.py prints. For
every workload it makes one untraced and one traced run at 2 % of the
full size, and requires every named metric with its unit and no failed
operation. It then plants one wrong oracle answer per workload
and requires that the run counts it as a failure and is not correct.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys

import run

SCALE = 0.02
SECONDS = 0.5


def plant_records(bench: run.Bench) -> None:
    inst, _ = bench.spec.state_queries[0]
    bench.spec.levels[inst] = "NoSuchLevel"


def plant_trees(bench: run.Bench) -> None:
    aspect, segments = run.gen.parse_chains(bench.spec.designations[0])[0]
    key = (aspect, segments)
    bench.spec.suffix_counts[key] = bench.spec.suffix_counts.get(key, 0) + 1


def plant_model(bench: run.Bench) -> None:
    elem = bench.spec.class_queries[0]
    bench.spec.groups[elem] = frozenset({"el-none"})


PLANTS = {"records": plant_records, "trees": plant_trees, "model": plant_model}


def declared() -> dict[str, dict[str, str]]:
    """Metric names and units that BENCHMARK.json declares."""
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {key: {m["name"]: m["unit"] for m in doc[key]}
            for key in ("end_to_end", "per_layer")}


def main() -> int:
    problems = []
    if declared() != {"end_to_end": run.E2E_METRICS,
                      "per_layer": run.per_layer_units()}:
        problems.append("BENCHMARK.json declares other metrics than run.py prints")
    for workload in run.WORKLOADS:
        for trace, units in ((False, run.E2E_METRICS),
                             (True, run.per_layer_units())):
            result = run.run(workload, 1, SECONDS, trace, scale=SCALE)
            print("\n".join(run.report_lines(result)))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units:
                problems.append(f"{workload} trace={trace}: metrics {sorted(got)}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace={trace}: {result['problems']}")
            if not trace and any(m["value"] <= 0
                                 for m in result["metrics"].values()):
                problems.append(f"{workload}: an end-to-end metric is not > 0")
        planted = run.run(workload, 1, SECONDS, False, scale=SCALE,
                          plant=PLANTS[workload])
        if planted["failed"] < 1 or planted["correct"]:
            problems.append(f"{workload}: planted wrong answer went unnoticed")
        else:
            print(f"{workload}: planted wrong answer counted "
                  f"({planted['failed']} failed: {planted['problems'][0]})")
    for problem in problems:
        print(f"SELFTEST FAILED {problem}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
