#!/usr/bin/env python3
"""Run the benchmark on several seeds and report every metric's spread.

    python3 perfbench/spread.py [--workloads case_study ...] --seeds 1 2 3 [--trace 1]

Runs `BENCHMARK.json`'s command once per workload and seed, from the
repository root. Per workload it prints every metric of the result line
and of the `paper` line, by name with its unit: the median over the
seeds, the distance between the first and third quartiles as a share of
the median (statistics.quantiles, n=4), and the metric's bound. It also
prints each run's host-contention probe. Exits 1 if any run fails or any
output check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int, seconds: int, trace: str) -> dict | None:
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", trace,
    ]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = run.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith('{"correct"'):
        print(f"  seed {seed}: exit {run.returncode}, no result\n{run.stderr[-2000:]}", file=sys.stderr)
        return None
    parsed = {key: value for line in lines[:-1] for key, value in json.loads(line).items()}
    parsed["result"] = json.loads(lines[-1])
    parsed["returncode"] = run.returncode
    return parsed


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    ok = True
    for workload in args.workloads:
        print(f"== {workload}", flush=True)
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            run = run_once(bench, workload, seed, args.seconds, args.trace)
            if run is None:
                ok = False
                continue
            result, probe = run["result"], run.get("probe", {})
            ok &= run["returncode"] == 0 and result["correct"]
            print(f"  seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} probe {probe.get('before_ms', 0):.0f}/"
                  f"{probe.get('after_ms', 0):.0f} ms", flush=True)
            metrics = {**run.get("paper", {}), **result["metrics"]}
            for name, metric in metrics.items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        for name, series in values.items():
            median = statistics.median(series)
            spread = "      -"
            if len(series) >= 2 and median:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = f"{(q3 - q1) / median:7.3f}"
            print(f"  {name:30} {median:18.6f} {units[name]:6} spread {spread}  bound {bounds.get(name)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
