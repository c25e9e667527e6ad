"""scripts/job_times.py's end-to-end summary, on synthetic runs."""

import importlib.util
import statistics

import pytest
from conftest import ROOT


@pytest.fixture(scope="module")
def job_times():
    spec = importlib.util.spec_from_file_location(
        "job_times", ROOT / "scripts" / "job_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*passes):
    return {"jobs": ["a", "b", "c"], "times": [list(p) for p in passes],
            "failures": []}


def test_end_to_end_takes_each_job_at_its_slowest_pass(job_times):
    """Each run's jobs at their slowest pass give the wall (their sum)
    and the Harrell-Davis p50 and p90 of perfbench/run.py, and each
    metric is the median over the runs."""
    bench = job_times.bench_run()
    assert bench.__file__ == str(ROOT / "perfbench" / "run.py")
    runs = [_run((0.001, 0.004, 0.010), (0.003, 0.002, 0.010)),
            _run((0.002, 0.002, 0.020)),
            _run((0.001, 0.001, 0.001), (0.002, 0.001, 0.030))]
    slowest = [(0.003, 0.004, 0.010), (0.002, 0.002, 0.020),
               (0.002, 0.001, 0.030)]
    wall, p50, p90 = job_times.end_to_end_ms(runs, bench)
    assert wall == pytest.approx(1e3 * statistics.median(
        sum(s) for s in slowest))
    for got, p in ((p50, 0.5), (p90, 0.9)):
        assert got == pytest.approx(1e3 * statistics.median(
            bench.harrell_davis(list(s), p) for s in slowest))
    assert 2 < p50 < p90 < 30
    # a run whose jobs all take one time reads that time at every quantile
    flat = job_times.end_to_end_ms([_run((0.005,) * 3)], bench)
    assert flat == pytest.approx((15.0, 5.0, 5.0))


def test_report_prints_the_end_to_end_rows(job_times, capsys):
    old = [_run((0.001, 0.002, 0.003))]
    new = [_run((0.001, 0.001, 0.003))]
    job_times.report(old, new)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["job", "old", "ms", "new", "ms", "new/old"]
    assert [line.split("  ")[0] for line in lines[1:]] == [
        "a", "b", "c", "pass total", "wall, slowest passes",
        "verdict p50, slowest passes", "verdict p90, slowest passes"]
    assert lines[5].split()[-3:] == ["6.00", "5.00", "0.833"]
