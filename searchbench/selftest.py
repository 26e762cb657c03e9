#!/usr/bin/env python3
"""Self-test of the search benchmark harness.

    python3 searchbench/selftest.py

Run it from the root of a checkout.  Every workload runs at a tiny size,
untraced and traced; the test asserts that each BENCHMARK.json metric is
present in the JSON line with its unit and printed with its sample count,
and that a sabotaged reference record (one flipped bit) is reported as a
failed operation with a non-zero exit.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every workload the harness runs, fleet_cold included though BENCHMARK.json
# does not gate it.
WORKLOADS = ["codesign_har", "fleet_cold", "service_warm"]


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []

    def expect(condition, what):
        if not condition:
            problems.append(what)
        return condition

    for workload in WORKLOADS:
        for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            case = "%s trace %d" % (workload, trace)
            code, lines = run(workload, trace)
            if not expect(code == 0 and lines, "%s: exit %d" % (case, code)):
                continue
            result = json.loads(lines[-1])
            expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                   "%s: not correct: %s" % (case, lines[-1][:200]))
            expect(set(result["metrics"]) == {m["name"] for m in metrics},
                   "%s: metric names differ from BENCHMARK.json" % case)
            for metric in metrics:
                got = result["metrics"].get(metric["name"], {})
                expect(got.get("unit") == metric["unit"] and isinstance(got.get("value"), (int, float)),
                       "%s: %s missing or wrong unit" % (case, metric["name"]))
                line = re.compile(r"^%s\s+\S+\s+%s\s+n=\d+" % (re.escape(metric["name"]),
                                                              re.escape(metric["unit"])))
                expect(any(line.match(text) for text in lines[:-1]),
                       "%s: %s not printed with unit and sample count" % (case, metric["name"]))
        code, lines = run(workload, 0, ["--sabotage"])
        case = "%s sabotaged" % workload
        if expect(code != 0 and lines, "%s: exit %d, want non-zero" % (case, code)):
            result = json.loads(lines[-1])
            expect(result["correct"] is False and result["failed"] >= 1,
                   "%s: the flipped field was not reported as a failure" % case)
        print("%-14s checked" % workload)
        sys.stdout.flush()

    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
