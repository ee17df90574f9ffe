"""Tiny-size smoke check of the benchmark itself; takes well under a minute.

    python3 perfbench/smoke.py

For every workload it runs ``run.py --size tiny`` untraced and twice traced,
and checks that:

* the last output line has exactly the keys correct, attempted, failed and
  metrics, the run is correct with no failed operation, and the metrics are
  exactly BENCHMARK.json's end-to-end (untraced) or per-layer (traced) names
  with their units;
* the count metrics of the two traced runs are identical.

It also runs the benchmark in a copy that holds only BENCHMARK.json and the
benchmark's own directory, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT = re.compile(r"(_calls|_fits|_checks|proba_rows|fits_per_group|_bytes|accepted_epochs)$|\.fit_calls\.")


def run(cmd, cwd, *extra):
    return subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc):
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    cmd = bench["command"]
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)

    for w in bench["workloads"]:
        args = ["--workload", w["name"], "--seed", "5", "--seconds", "1", "--size", "tiny"]
        runs = {
            "untraced": [result(run(cmd, ROOT, *args, "--trace", "0"))],
            "traced": [result(run(cmd, ROOT, *args, "--trace", "1")) for _ in range(2)],
        }
        for mode, declared in (("untraced", bench["end_to_end"]), ("traced", bench["per_layer"])):
            for res in runs[mode]:
                expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                       f"{w['name']} {mode}: keys {sorted(res)}")
                expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                       f"{w['name']} {mode}: correct={res['correct']} failed={res['failed']}")
                want = {m["name"]: m["unit"] for m in declared}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                expect(got == want, f"{w['name']} {mode}: metrics differ from BENCHMARK.json: "
                       f"{sorted(set(got) ^ set(want))}")
        a, b = (r["metrics"] for r in runs["traced"])
        for name in a:
            if COUNT.search(name):
                expect(a[name]["value"] == b[name]["value"],
                       f"{w['name']}: count {name} differs between traced runs")
        print(f"{w['name']}: ok" if not problems else f"{w['name']}: {len(problems)} problems so far")

    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(cmd, bare, "--workload", bench["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the program the run exited {proc.returncode} and printed {proc.stdout[-200:]!r}")

    for p in problems:
        print(f"PROBLEM: {p}")
    print("smoke check passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
