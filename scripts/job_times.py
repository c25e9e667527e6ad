#!/usr/bin/env python3
"""Per-job times of one benchmark workload on two checkouts.

    python scripts/job_times.py OLD NEW --workload certify --rounds 5

OLD and NEW are checkout directories. Each round runs the workload once
per checkout, each in a fresh subprocess, and alternates which checkout
goes first. A run imports the checkout's package from its src/ and the
job list from its perfbench/workloads.py, which it only reads; it sets
the workload up at --seed and then times each job's run over --passes
passes, with the garbage of the previous job collected first, as
perfbench/run.py does. Each job's check runs after its timer, and a
failed check is printed.

The report gives, per job, the median over every pass of every round
for OLD and NEW and their ratio, then the median pass total. It shows
where a change moves the time layer by layer; the end-to-end metrics
are perfbench/run.py's.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# every layer module, imported into the namespace the jobs call through
LAYERS = ("finmaps", "terms", "trees", "operads", "clones", "weakening",
          "weakcat", "strictify", "cli")


def child(root: Path, workload: str, seed: int, passes: int) -> dict:
    """The job names and the seconds of each job's run, per pass."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    ow = SimpleNamespace(**{
        layer: importlib.import_module(f"operad_workbench.{layer}")
        for layer in LAYERS})
    package = Path(ow.terms.__file__).resolve()
    if not package.is_relative_to(root / "src"):
        raise SystemExit(f"imported {package}, not the package under {root}")
    import workloads
    setup, make_jobs = workloads.WORKLOADS[workload]
    state = setup(ow, seed, root)
    names, times, failures = None, [], []
    for _ in range(passes):
        jobs = make_jobs(state)
        names = [job.name for job in jobs]
        row = []
        for job in jobs:
            gc.collect()
            start = time.perf_counter()
            output = job.run()
            row.append(time.perf_counter() - start)
            failures.extend(job.check(output).failures)
        times.append(row)
    return {"jobs": names, "times": times, "failures": failures}


def run_child(root: Path, args) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--child", str(root), "--workload",
         args.workload, "--seed", str(args.seed), "--passes",
         str(args.passes)],
        cwd=root, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise SystemExit(f"{root}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def report(old: list[dict], new: list[dict]):
    names = old[0]["jobs"]
    if any(run["jobs"] != names for run in old + new):
        raise SystemExit("the two checkouts run different job lists")

    def median_ms(runs, column):
        return 1e3 * statistics.median(
            row[column] for run in runs for row in run["times"])

    def total_ms(runs):
        return 1e3 * statistics.median(
            sum(row) for run in runs for row in run["times"])

    width = max(len(name) for name in names + ["pass total"])
    print(f"{'job':<{width}}  {'old ms':>10}  {'new ms':>10}  {'new/old':>7}")
    rows = [(name, median_ms(old, i), median_ms(new, i))
            for i, name in enumerate(names)]
    rows.append(("pass total", total_ms(old), total_ms(new)))
    for name, a, b in rows:
        ratio = f"{b / a:7.3f}" if a else "      -"
        print(f"{name:<{width}}  {a:10.2f}  {b:10.2f}  {ratio}")
    for side, runs in (("old", old), ("new", new)):
        for line in sorted({f for run in runs for f in run["failures"]}):
            print(f"{side} check failed: {line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?", type=Path)
    parser.add_argument("new", nargs="?", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=("certify", "decide-stream"))
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        # the last line, after anything a job printed
        print(json.dumps(child(args.child.resolve(), args.workload,
                               args.seed, args.passes)))
        return
    if args.old is None or args.new is None:
        parser.error("OLD and NEW checkouts are required")
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes must be at least 1")
    roots = (args.old.resolve(), args.new.resolve())
    runs: tuple[list, list] = ([], [])
    for round_ in range(args.rounds):
        order = (0, 1) if round_ % 2 == 0 else (1, 0)
        for side in order:
            runs[side].append(run_child(roots[side], args))
    report(*runs)


if __name__ == "__main__":
    main()
