"""Run one latefuse benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-oof --seed 11 --seconds 25 --trace 0

Run from the root of a source checkout; latefuse is imported from ``src/``.
With ``--trace 0`` the run repeats its set-up, measures whole rounds of the
workload for ``--seconds`` seconds, checks the outputs, and prints the
end-to-end metrics. Every set-up and operation is timed at the reference
speed: its wall time is scaled by ``REF_S`` over the time of a fixed
reference loop measured just before and just after it in the same process,
so that the host's changes of speed cancel out of ``setup_s`` and
``round_s``. With ``--trace 1`` it instead traces one set-up and one round
at every layer boundary, times the same round untraced just before and
after it, prints the per-layer metrics, and writes them with the spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

# One caller, one thread: keep the BLAS library from starting worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def import_program():
    """Import latefuse from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "latefuse", "__init__.py")):
        sys.exit(f"perfbench: no latefuse sources under {src}")
    sys.path.insert(0, src)
    import latefuse

    if not os.path.abspath(latefuse.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: latefuse imported from {latefuse.__file__}, not {src}")


class Outcome:
    """Operations attempted and failed, round times, and check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.round_wall_s: list[float] = []
        self.op_s: dict[str, list[float]] = {}  # label -> seconds at the reference speed
        self.problems: list[str] = []


def reference_s() -> float:
    """Wall time of a fixed piece of work that does not touch latefuse: a
    pure-Python integer loop and a chain of small matrix products, the two
    kinds of work the program's rounds are made of."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for k in range(300_000):
        acc += k * k % 7
    x = np.full((200, 200), 1.0 / 200)
    for _ in range(60):
        x = np.tanh(x @ x.T)
    return time.perf_counter() - start


# About the reference loop's time on a shared 2-core 2.1 GHz Xeon VM, whose
# per-run median read 0.035-0.06 s. A time at the reference speed reads as
# the seconds the step would take on a host where the loop takes REF_S.
REF_S = 0.05


class Reference:
    """Reference times taken between timed steps; the host's speed over one
    step is read as the mean of the times just before and just after it."""

    def __init__(self):
        self.samples = [reference_s()]

    def adjust(self, seconds: float) -> float:
        """A step's wall time, just measured, at the reference speed."""
        self.samples.append(reference_s())
        return seconds * REF_S / ((self.samples[-2] + self.samples[-1]) / 2)


def run_round(wl, i: int, outcome: Outcome, tracer, reference: Reference | None = None) -> float:
    """Run the operations of round i; returns the round's timed seconds."""
    from workloads import CheckFailed

    timed = 0.0
    for label, op in wl.ops(i):
        outcome.attempted += 1
        start = time.perf_counter()
        try:
            out = op()
        except Exception:  # a failed operation is counted; the run goes on
            outcome.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            elapsed = time.perf_counter() - start
            timed += elapsed
            if reference is not None:
                outcome.op_s.setdefault(label, []).append(reference.adjust(elapsed))
        try:
            with tracer.paused():
                wl.check(i, label, out)
        except CheckFailed as exc:
            outcome.problems.append(str(exc))
    return timed


def final_checks(wl, outcome: Outcome, tracer) -> None:
    from workloads import CheckFailed

    try:
        with tracer.paused():
            wl.final_checks()
    except CheckFailed as exc:
        outcome.problems.append(str(exc))


def fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def timed_run(wl, seconds: float, workdir: str, tracer):
    outcome = Outcome()
    reference = Reference()
    setups, setups_wall = [], []
    for _ in range(wl.setup_reps):
        fresh_dir(workdir)
        start = time.perf_counter()
        wl.setup()
        setups_wall.append(time.perf_counter() - start)
        setups.append(reference.adjust(setups_wall[-1]))
    wl.kind_seconds.clear()
    start = time.perf_counter()
    i = 0
    while True:
        outcome.round_wall_s.append(run_round(wl, i, outcome, tracer, reference))
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    final_checks(wl, outcome, tracer)
    # The sum over the round's operations of each one's mean time. A mean,
    # not a median, because train-oof and sweep cycle through datasets whose
    # costs differ (adaboost stops early on some): the mean weighs every
    # dataset of the run alike.
    round_s = sum(statistics.fmean(v) for v in outcome.op_s.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "round_s": (round_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    q1, med, q3 = statistics.quantiles(reference.samples, n=4)
    notes = [
        f"setup samples, wall s: {' '.join(f'{x:.4f}' for x in setups_wall)}",
        f"round samples, wall s: {' '.join(f'{x:.4f}' for x in outcome.round_wall_s)}",
        f"round median wall time {statistics.median(outcome.round_wall_s):.4f} s",
        f"reference_s median {med:.5f} (q1 {q1:.5f}, q3 {q3:.5f}, n={len(reference.samples)}); "
        f"setup_s and round_s are at the reference speed, REF_S = {REF_S} s",
    ]
    return outcome, metrics, notes


def traced_run(wl, workdir: str, tracer, trace_path: str):
    """Trace one set-up and one round; the same round runs untraced just
    before and just after it, and their mean is the untraced time."""
    import spans

    outcome = Outcome()
    fresh_dir(workdir)
    with tracer.installed():
        wl.setup()
    before = run_round(wl, 0, outcome, tracer)
    with tracer.installed():
        traced = run_round(wl, 0, outcome, tracer)
    after = run_round(wl, 0, outcome, tracer)
    final_checks(wl, outcome, tracer)
    plain = (before + after) / 2
    layers = spans.layer_metrics(tracer)
    layers["trace.overhead_s"] = (traced - plain, "s")
    doc = {
        "workload": wl.name,
        "seed": wl.seed,
        "run": tracer.run_id,
        "scope": "one traced set-up plus one traced round 0",
        "overhead": {"untraced_round_s": [before, after], "traced_round_s": traced,
                     "share": (traced - plain) / plain},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "spans": spans.span_records(tracer),
    }
    with open(trace_path, "w") as fh:
        json.dump(doc, fh)
    notes = [f"trace written to {os.path.relpath(trace_path, ROOT)}",
             f"tracing overhead {traced - plain:.4f} s on a {plain:.4f} s round "
             f"(untraced {before:.4f} s before, {after:.4f} s after)"]
    return outcome, layers, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", help="full, or tiny for the smoke check")
    args = parser.parse_args(argv)

    import_program()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.size not in workloads.SIZES:
        parser.error(f"unknown size {args.size!r}")
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir = os.path.join(OUT, f"work-{run_id}")
    tracer = spans.Tracer(run_id)
    wl = workloads.WORKLOADS[args.workload](
        args.seed, workloads.SIZES[args.size], workdir, tracer
    )
    try:
        if args.trace:
            os.makedirs(OUT, exist_ok=True)
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            outcome, metrics, notes = traced_run(wl, workdir, tracer, trace_path)
        else:
            outcome, metrics, notes = timed_run(wl, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{outcome.attempted} operations attempted, {outcome.failed} failed")
    for line in notes + wl.figures():
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
