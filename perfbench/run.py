"""Benchmark of the operad workbench: two seeded workloads, checked
against the references in refs.py, with an optional traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 55 --trace 0

Workloads: decide-stream and certify (see BENCHMARK.json and
perfbench/README.md). The program is imported from ./src, single-threaded,
and must not be told otherwise: the run refuses to start when
OPERAD_WORKBENCH_THREADS is set.

A run sets up once (fresh import, theory parse, pools and instances,
seeded inputs), runs the README pre-flight, and times whole passes over
the workload's fixed input until the next pass would overrun --seconds
(at least one pass). Every pass runs the same jobs; the time metrics take
each job at its slowest pass. Set-up is timed the same way: an untraced
pass sets up again, into a copy it throws away, before its first job and
then before the first job that starts SETUP_EVERY_S of job time after
the last set-up. A pass's set-up figure is the median of its set-ups, and
setup_s is that figure at its slowest pass.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 untraced and traced passes alternate for
--seconds, and it carries the per-layer metrics, computed from the spans
of the first traced pass, recorded at the layer boundaries (see
tracing.py), and the tracing overhead. Each run writes its
record to perfbench/results/; a traced run also writes its spans and
layer table.
The exit code is 0 when every check passed, 1 when one failed, and 2
when the run could not start.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
LAYERS = ("finmaps", "terms", "trees", "operads", "clones", "weakening",
          "weakcat", "strictify", "cli")
# job time between two set-ups inside a pass: three or four set-ups a pass
# on both workloads, spread over the pass
SETUP_EVERY_S = 3.0

sys.path.insert(0, str(HERE))

import preflight  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


class StartError(Exception):
    pass


def is_package(name: str) -> bool:
    return name == "operad_workbench" or name.startswith("operad_workbench.")


def load_package() -> SimpleNamespace:
    """A fresh import of every layer module."""
    for name in [m for m in sys.modules if is_package(m)]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{
        layer: importlib.import_module(f"operad_workbench.{layer}")
        for layer in LAYERS})


def timed_setup(setup, seed: int) -> float:
    """Time one set-up from a fresh import into a copy that is thrown away.
    The modules the run uses are put back in sys.modules afterwards, so
    later jobs see the package they were set up with."""
    kept = {name: module for name, module in sys.modules.items()
            if is_package(name)}
    gc.collect()
    start = time.perf_counter()
    setup(load_package(), seed, ROOT)
    took = time.perf_counter() - start
    for name in [m for m in sys.modules if is_package(m)]:
        del sys.modules[name]
    sys.modules.update(kept)
    return took


def run_pass(make_jobs, state, tracer=None, set_up=None) -> dict:
    """One pass over the workload's fixed input. Only each job's `run`
    is timed; its check follows outside the timer. With `set_up`, the
    pass also times set-ups between jobs, SETUP_EVERY_S of job time
    apart, starting before the first job."""
    jobs = make_jobs(state)
    times, job_items, unknown, failed, failures = [], [], 0, 0, []
    setups, since_setup = [], SETUP_EVERY_S
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.task = index
        if set_up is not None and since_setup >= SETUP_EVERY_S:
            setups.append(set_up())
            since_setup = 0.0
        # leave no garbage of the previous job for this one to collect
        gc.collect()
        start = time.perf_counter()
        try:
            output = job.run()
        except Exception as exc:  # a crash is a failed item, not a stop
            times.append(time.perf_counter() - start)
            outcome = Outcome(1, [f"{job.name}: {exc!r}"])
        else:
            times.append(time.perf_counter() - start)
            try:
                outcome = job.check(output)
            except Exception as exc:
                outcome = Outcome(1, [f"{job.name}: check raised {exc!r}"])
        since_setup += times[-1]
        job_items.append(outcome.items)
        unknown += outcome.unknown
        failed += outcome.failed
        failures.extend(outcome.failures)
    return {"wall_s": sum(times), "times": times, "setups": setups,
            "job_items": job_items,
            "items": sum(job_items),
            "unknown": unknown, "failed": failed, "failures": failures,
            "jobs": [job.name for job in jobs]}


def repeat_for(seconds: float, step) -> None:
    """Call step until the next call would end after `seconds`; at least
    once."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return


def harrell_davis(values: list, p: float, steps: int = 64) -> float:
    """The Harrell-Davis estimate of the p-quantile: every order statistic
    weighted by the Beta(p(n+1), (1-p)(n+1)) mass of its rank's share
    [i/n, (i+1)/n] of [0, 1], by Simpson's rule on `steps` intervals. A
    plain order statistic jumps by the whole gap to its neighbour when
    one sample crosses it; this estimate moves by a share of the gap."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log1p(-x))

    h = 1 / (n * steps)
    weights = [sum((1 if k in (0, steps) else 4 if k % 2 else 2)
                   * density(i / n + k * h) for k in range(steps + 1)) * h / 3
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def slowest_jobs(passes: list) -> list:
    """Each job's slowest time over the passes."""
    return [max(times) for times in zip(*(p["times"] for p in passes))]


def end_to_end(passes: list) -> dict:
    """Passes repeat the same jobs; each job is taken at its slowest time
    over the passes. On a shared host a job's time swings from pass to
    pass; the slowest of several passes varies least from run to run,
    while the fastest depends on how long the host happened to be idle.
    Set-up is taken the same way, at the slowest pass's median set-up,
    so that it too samples the host over the whole run and not only
    while the run starts. Each job ends in one verdict, so the verdict
    percentiles are over those job times, one sample per job: a decide
    query in decide-stream, a law sample or a certificate in certify.
    They are Harrell-Davis estimates: certify's 47 job times cluster,
    and a plain median sits at the top of a cluster of short jobs, where
    one job's slow pass moved it by half."""
    typical = slowest_jobs(passes)
    wall = sum(typical)
    return {
        "setup_s": max(statistics.median(p["setups"]) for p in passes),
        "wall_s": wall,
        "instances_per_s": passes[0]["items"] / wall,
        "verdict_p50_ms": harrell_davis(typical, 0.5) * 1e3,
        "verdict_p90_ms": harrell_davis(typical, 0.9) * 1e3,
        "decided_frac": 1 - passes[0]["unknown"] / passes[0]["items"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def source_state() -> dict:
    """Commit and dirtiness when the checkout is a git work tree."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain",
                                  "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": f"{platform.system()}-{platform.release()}-"
                        f"{platform.machine()}", **source_state()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_start() -> dict:
    if "OPERAD_WORKBENCH_THREADS" in os.environ:
        raise StartError("OPERAD_WORKBENCH_THREADS is set; the benchmark "
                         "runs single-threaded only")
    for needed in ("BENCHMARK.json", "README.md",
                   "src/operad_workbench/__init__.py"):
        if not (ROOT / needed).is_file():
            raise StartError(f"{needed} not found under {ROOT}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    mapped = set(mapped_layer_metrics())
    listed = {m["name"] for m in spec["per_layer"]}
    if mapped != listed:
        raise StartError("metrics.json and BENCHMARK.json name different "
                         f"per-layer metrics: {sorted(mapped ^ listed)}")
    return spec


def mapped_layer_metrics() -> list:
    """The per-layer metric names that metrics.json maps to layers."""
    spans = json.loads((HERE / "metrics.json").read_text(
        encoding="utf-8"))["per_layer"]["spans"]
    return [f"{span}.{stat}" if "stats" in entry else span
            for span, entry in spans.items()
            for stat in entry.get("stats", [None])]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = check_start()
    except StartError as exc:
        print(f"cannot start: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    setup, make_jobs = WORKLOADS[args.workload]

    # the set-up the run uses; it is not timed, as the first import in a
    # checkout also compiles the package
    ow = load_package()
    state = setup(ow, args.seed, ROOT)

    def set_up():
        return timed_setup(setup, args.seed)

    pre = preflight.run_preflight(
        ow.cli.main, ROOT / "README.md",
        ROOT / "src" / "operad_workbench" / "examples")

    # the inputs stay alive all run; keep them out of the collector's scans
    gc.collect()
    gc.freeze()

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "inputs": state["inputs"], "machine": machine(),
              "preflight": pre}
    if args.trace:
        # untraced and traced passes alternate, so that both sides see the
        # same host; the per-layer figures come from the first traced pass
        untraced, traced, tracers = [], [], []

        def both():
            untraced.append(run_pass(make_jobs, state, set_up=set_up))
            tracer = tracing.Tracer()
            missing = tracer.install(ow)
            try:
                traced.append(run_pass(make_jobs, state, tracer))
            finally:
                tracer.uninstall()
            if not tracers:
                tracers.append(tracer)
                record["untraced_boundaries"] = missing

        repeat_for(args.seconds, both)
        passes = untraced + traced
        overhead = sum(slowest_jobs(traced)) \
            / sum(slowest_jobs(untraced)) - 1
        stats = tracing.layer_stats(tracers[0].spans)
        metrics = {m["name"]: tracing.layer_metric(
            m["name"], stats, traced[0]["wall_s"], overhead)
            for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        RESULTS.mkdir(exist_ok=True)
        tracers[0].write(RESULTS / f"{args.workload}.spans.jsonl")
        table = tracing.layer_table(stats)
        (RESULTS / f"{args.workload}.layers.tsv").write_text(
            "\n".join(table) + "\n", encoding="utf-8")
        record["layers"] = stats
        record["untraced_end_to_end"] = end_to_end(untraced)
    else:
        passes = []
        repeat_for(args.seconds,
                   lambda: passes.append(run_pass(make_jobs, state,
                                                  set_up=set_up)))
        metrics = end_to_end(passes)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        table = []

    failures = pre["failures"] + [f for p in passes for f in p["failures"]]
    failed = len(pre["failures"]) + sum(p["failed"] for p in passes)
    attempted = pre["examples"] + sum(p["items"] for p in passes)
    unknown = sum(p["unknown"] for p in passes)
    items = sum(p["items"] for p in passes)
    record.update({
        "passes": len(passes), "pass_wall_s": [p["wall_s"] for p in passes],
        "jobs": passes[0]["jobs"], "job_items": passes[0]["job_items"],
        "job_times_s": [p["times"] for p in passes],
        "setup_times_s": [p["setups"] for p in passes],
        "verdict_samples": len(passes[0]["jobs"]),
        "unknown_frac": unknown / items, "failed_frac": failed / attempted,
        "failures": failures[:50], "metrics": metrics})
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1, default=str) + "\n",
                    encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  verdict samples {record['verdict_samples']}"
          f"  README examples {pre['examples']}")
    print(f"unknown_frac {record['unknown_frac']:.4f}  "
          f"failed_frac {record['failed_frac']:.4f} "
          f"({failed} of {attempted})")
    for line in failures[:20]:
        print(f"FAIL {line}")
    for line in table:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
