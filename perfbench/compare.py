"""Run sets of benchmark runs and hold them against BENCHMARK.json's bounds.

    python3 perfbench/compare.py                      # two sets of 10 runs, every workload
    python3 perfbench/compare.py --sets 1 --runs 10 --workloads sweep

Each set runs every workload once per seed, with tracing off and the run
length from BENCHMARK.json. For every end-to-end metric the script reports
the median and quartiles of each set, and checks:

* the spread of each set, (q3 - q1) / median, is within the metric's bound
  (``setup_s`` is exempt), and below a third of it for a steady benchmark;
* the second set's median is not worse than the first's by more than the
  bound;
* every run is correct, and the share of failed operations is the same in
  both sets.

Run from the root of the checkout. Writes a summary to
``perfbench/out/compare.json``; exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 180


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", help="comma-separated subset of the workloads")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    problems, summary = [], {}
    for workload in names:
        sets = []
        for k in range(args.sets):
            results = []
            for r in range(args.runs):
                seed = args.seed_base + k * args.runs + r
                res = run_once(bench["command"], workload, seed, bench["run_seconds"])
                results.append(res)
                print(f"{workload} set {k + 1} seed {seed}: "
                      + " ".join(f"{n}={v['value']:.5g}" for n, v in res["metrics"].items()),
                      flush=True)
                if not res["correct"]:
                    problems.append(f"{workload} seed {seed}: outputs incorrect")
            sets.append(results)

        shares = [Fraction(sum(r["failed"] for r in s), sum(r["attempted"] for r in s)) for s in sets]
        if len(set(shares)) != 1:
            problems.append(f"{workload}: failed shares differ between sets: {shares}")
        summary[workload] = {"failed_share": [str(f) for f in shares]}
        for name, spec in metrics.items():
            rows = []
            for k, s in enumerate(sets):
                med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in s])
                rows.append({"median": med, "q1": q1, "q3": q3, "spread": sp, "n": len(s)})
                verdict = "ok"
                if name != "setup_s" and sp > spec["bound"]:
                    verdict = "OVER BOUND"
                    problems.append(f"{workload} {name} set {k + 1}: spread {sp:.3f} > {spec['bound']}")
                elif name != "setup_s" and sp > spec["bound"] / 3:
                    verdict = "over a third of the bound"
                print(f"  {workload:12s} {name:12s} set {k + 1}: median {med:.5g} "
                      f"q1 {q1:.5g} q3 {q3:.5g} spread {sp:.3f} (bound {spec['bound']}) {verdict}")
            if len(rows) == 2:
                a, b = rows[0]["median"], rows[1]["median"]
                worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
                print(f"  {workload:12s} {name:12s} second median worse by {worse:+.3f}")
                if worse > spec["bound"]:
                    problems.append(f"{workload} {name}: second median worse by {worse:.3f}")
            summary[workload][name] = rows

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "compare.json"), "w") as fh:
        json.dump({"summary": summary, "problems": problems}, fh, indent=1)
    for p in problems:
        print(f"PROBLEM: {p}")
    print("all checks passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
