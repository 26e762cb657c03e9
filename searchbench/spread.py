#!/usr/bin/env python3
"""Steadiness check of the benchmark: run every workload with several
seeds and report, per end-to-end metric, the interquartile range as a share
of the median next to the bound BENCHMARK.json gives it.

    python3 searchbench/spread.py [--seeds 10] [--first-seed 1]
                                  [--workloads a,b] [--seconds S]

Run it from the root of a checkout.  Raw results are appended to
.bench_build/out/spread.jsonl so two sets of runs can be compared later
(--compare FILE_A FILE_B prints the change of each metric's median).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def medians(path):
    rows = [json.loads(line) for line in open(path)]
    out = {}
    for row in rows:
        for name, metric in row["metrics"].items():
            out.setdefault((row["workload"], name), []).append(metric["value"])
    return {key: statistics.median(values) for key, values in out.items()}


def compare(path_a, path_b, bench):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    first, second = medians(path_a), medians(path_b)
    worst_ok = True
    for key in sorted(first):
        if key not in second or key[1] not in bounds:
            continue
        bound, better = bounds[key[1]]
        change = second[key] / first[key] - 1.0
        worse = change if better == "lower" else -change
        flag = "WORSE" if worse > bound else "ok"
        worst_ok &= flag == "ok"
        print("%-14s %-16s %12.6g -> %12.6g  %+6.1f%%  bound %4.0f%%  %s"
              % (key[0], key[1], first[key], second[key], 100 * change, 100 * bound, flag))
    return 0 if worst_ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--log", default=os.path.join(".bench_build", "out", "spread.jsonl"))
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args()
    bench = load_benchmark()
    if args.compare:
        return compare(args.compare[0], args.compare[1], bench)

    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = str(args.seconds or bench["run_seconds"])
    os.makedirs(os.path.dirname(args.log), exist_ok=True)
    status = 0
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", seconds, "--trace", "0"]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (workload, seed, done.returncode))
                status = 1
                continue
            result = json.loads(lines[-1])
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "metrics": result["metrics"]}) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for metric in bench["end_to_end"]:
            series = values.get(metric["name"], [])
            if len(series) < 4:
                continue
            share = spread(series)
            ok = metric["name"] == "setup_s" or share <= metric["bound"] / 3
            print("%-14s %-16s median %12.6g  spread %5.1f%%  bound %4.0f%%  %s"
                  % (workload, metric["name"], statistics.median(series), 100 * share,
                     100 * metric["bound"], "ok" if ok else "WIDE"))
            sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
