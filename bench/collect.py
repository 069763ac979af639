#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --workloads records trees model \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30 --trace 0 --out summary.json

Runs are sequential, one ``run.py`` process at a time. For every workload
and metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, the distance between the quartiles as a share
of the median. Figures the run prints but does not gate appear with a
``reported.`` prefix. ``--out`` writes the same figures and every run's
values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
OUT = RUN.parent / "out"


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, encoding="utf-8", check=False,
        cwd=RUN.parent.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    # The ungated figures (medians, tails, throughput) from the full result.
    full = json.loads((OUT / f"{workload}-trace{trace}.json").read_text(
        encoding="utf-8"))
    result["metrics"].update({f"reported.{name}": metric for name, metric
                              in full.get("reported", {}).items()})
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    summary: dict = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = one_run(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: not correct")
            runs.append(result["metrics"])
            print(f"{workload} seed {seed}: ok", file=sys.stderr, flush=True)
        summary[workload] = {
            name: dict(summarize([r[name]["value"] for r in runs]),
                       unit=runs[0][name]["unit"])
            for name in runs[0]
        }
        for name, s in summary[workload].items():
            print(f"{workload:8} {name:48} median {s['median']:12.6g} "
                  f"{s['unit']:6} q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=2) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
