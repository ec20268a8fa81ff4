#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds per workload.

    python3 surveybench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                      [--trace 0|1] [--out FILE]

For every end-to-end metric it reports the median of the per-seed values
and their spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. A spread above
a third of the metric's bound in BENCHMARK.json is flagged. With --trace 1 it collects the per-layer
metrics instead, without flags. --out writes everything as JSON, with the
first run's build provenance.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROVENANCE = ("build_type", "sanitizer", "compiler", "nproc", "commit", "journal_fs")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", str(args.trace)]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])
            runs.append({"seed": seed, "result": result,
                         "output_digest": detail.get("output_digest")})
            report.setdefault("provenance", {key: detail.get(key) for key in PROVENANCE})
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs incorrect", file=sys.stderr)
                return 1
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            entry = {"median": statistics.median(values), "values": values}
            if args.trace == 0:
                entry["spread"] = spread(values)
                entry["bound"] = bounds[name]
                entry["steady"] = entry["spread"] <= bounds[name] / 3
                steady &= entry["steady"]
                flag = "" if entry["steady"] else "  <-- above a third of its bound"
                print(f"{workload:22s} {name:24s} median {entry['median']:.6g}  "
                      f"spread {entry['spread']:.4f}  bound {bounds[name]}{flag}")
            summary[name] = entry
        report["workloads"][workload] = {"metrics": summary,
                                         "seeds": [run["seed"] for run in runs],
                                         "output_digests": [run["output_digest"] for run in runs]}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
