"""Self-test of the benchmark: every workload at its smallest rung.

    python3 -m pytest perfbench/test_selftest.py -q

Checks that the metric names and units printed match BENCHMARK.json, that
a job handed a wrong expected verdict counts as failed, and that the
benchmark refuses to report without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import speedmeter  # noqa: E402
import workloads  # noqa: E402


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smallest_rung_prints_the_declared_metrics(workload, trace, section):
    done = smoke(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    if section == "end_to_end":
        assert all(v["value"] != 0 for v in result["metrics"].values())


def test_wrong_expected_verdict_counts_as_failed():
    jobs = workloads.build_jobs("lift-extend", 1, smoke=True)
    valid = next(j for j in jobs if j.name == "powers: rotation family falsified")
    control = next(j for j in jobs if j.name == "refute coarse net")
    valid.judge = workloads.expect_fail(".*", lambda detail: True)
    control.judge = workloads.expect_pass
    passes = [run.run_pass([valid, control], {}, False) for _ in range(2)]
    assert [len(p.failures) for p in passes] == [2, 2]
    metrics = run.end_to_end([valid, control], passes, [0.1], 1)
    assert metrics["pass_share"]["value"] == 0.0


def test_changed_render_counts_as_failed():
    jobs = workloads.build_jobs("cover-ladder", 1, smoke=True)
    job = next(j for j in jobs if j.name == "verify interval depth=3")
    p = run.run_pass([job], {job.name: "0" * 64}, True)
    assert len(p.failures) == 1 and "digest" in p.failures[0][1]


def test_speed_meter_clock_advances_and_stops():
    import signal

    meter = speedmeter.SpeedMeter()
    meter.start()
    try:
        readings = [meter.clock()]
        for _ in range(3):
            sum(i * i for i in range(200_000))
            readings.append(meter.clock())
    finally:
        meter.stop()
    assert all(b > a for a, b in zip(readings, readings[1:]))
    assert len(meter.speeds) > 3 and meter.median_speed() > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    done = smoke("lift-extend", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
