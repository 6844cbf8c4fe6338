#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver measures it.

Runs the command of BENCHMARK.json `--runs` times per workload, each with
another `--seed`, and prints for each end-to-end metric the distance between
the first and third quartile of its values (statistics.quantiles, n=4) as a
share of their median, beside the metric's bound. A benchmark is steady
enough when every spread except `setup_s`'s is below a third of its bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workloads a,b]

Run it from the checkout root. Exits 1 if a spread exceeds its bound or an
operation failed.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    ok = True
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for run in range(args.runs):
            cmd = bench["command"] + [
                "--workload", name,
                "--seed", str(args.first_seed + run),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0",
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{name}: seed {args.first_seed + run}: {result['failed']} failed", file=sys.stderr)
                ok = False
            for metric, samples in values.items():
                samples.append(result["metrics"][metric]["value"])
        print(f"{name} ({args.runs} runs)")
        for m in bench["end_to_end"]:
            samples = values[m["name"]]
            q1, _, q3 = statistics.quantiles(samples, n=4)
            median = statistics.median(samples)
            spread = (q3 - q1) / median
            if m["name"] == "setup_s":
                verdict = "not judged"
            elif spread > m["bound"]:
                verdict, ok = "EXCEEDS THE BOUND", False
            elif spread > m["bound"] / 3:
                verdict = "above a third of the bound"
            else:
                verdict = "steady"
            print(
                f"  {m['name']:<22} median {median:<14.6g} spread {spread:7.2%}"
                f"  bound {m['bound']:4.0%}  {verdict}"
            )
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
