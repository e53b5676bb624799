#!/usr/bin/env python3
"""Runs BENCHMARK.json's command ten times per workload, each time with another
--seed, and prints for every end-to-end metric the distance between the first
and third quartile of its ten values as a share of their median, next to the
metric's bound. The PR driver accepts the benchmark only while each spread
(except setup_s's) stays within its bound; aim for a third of the bound.

    python3 benchmark/spread.py
"""

import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    worst = 0.0
    for name in [w["name"] for w in manifest["workloads"]]:
        values = {m["name"]: [] for m in manifest["end_to_end"]}
        for run in range(10):
            command = manifest["command"] + [
                "--workload", name,
                "--seed", str(100 + 1000 * run),
                "--seconds", str(manifest["run_seconds"]),
                "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name}: run {run} failed: {result}")
            for metric, samples in values.items():
                samples.append(result["metrics"][metric]["value"])
        for m in manifest["end_to_end"]:
            samples = values[m["name"]]
            q1, _, q3 = statistics.quantiles(samples, n=4)
            median = statistics.median(samples)
            spread = (q3 - q1) / median
            share = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print(
                f"{name:<13} {m['name']:<13} median {median:<14.6g} spread {spread:7.2%} "
                f"bound {m['bound']:.0%}  spread/bound {share:5.2f}"
                f"{'' if len(set(samples)) > 1 else '  IDENTICAL ON EVERY RUN'}",
                flush=True,
            )
    print(f"worst spread/bound (setup_s aside): {worst:.2f} (target below 0.33)")


if __name__ == "__main__":
    main()
