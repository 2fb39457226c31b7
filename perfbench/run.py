#!/usr/bin/env python3
"""The factorlift benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload cover-ladder --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from `src/` of
that root and from nowhere else.  Set-up (import plus seeded input
generation) is repeated and timed; then full passes over the workload's
job ladder repeat until `--seconds` have elapsed (at least three).  Every
job's verdict is checked against its known answer, and PASS renders
against the digests pinned for the default seed.

With `--trace 0` the last line of output is the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and the last line is the
per-layer metrics.  The lines before it are the growth curve: each rung's
median time per system.

The end-to-end times are read from `speedmeter.SpeedMeter`, a clock that
scales program time by the machine speed sampled while the program runs,
so that runs on a shared host whose speed wanders can be compared; the
traced run, which reports the per-layer times, reads the plain wall clock.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pinned.json"
TRACES = HERE / "traces"

SETUP_REPEATS = 5
MIN_PASSES = 3


def load(workload: str, seed: int, smoke: bool, clock=time.perf_counter):
    """Import the program and the benchmark's workload module afresh and
    generate the seeded inputs.  Returns (seconds, jobs)."""
    for name in list(sys.modules):
        if name in ("factorlift", "workloads") or name.startswith("factorlift."):
            del sys.modules[name]
    start = clock()
    module = importlib.import_module("workloads")
    jobs = module.build_jobs(workload, seed, smoke)
    elapsed = clock() - start
    program = sys.modules["factorlift"].__file__
    if not Path(program).resolve().is_relative_to(SRC):
        raise ImportError(f"factorlift imported from {program}, not from {SRC}")
    return elapsed, jobs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """One full pass over the job ladder: per-job times and failures."""

    def __init__(self):
        self.wall = 0.0
        self.times: dict[str, float] = {}
        self.failures: list[tuple[str, str]] = []
        self.symbols = 0
        self.renders: dict[str, str] = {}


def run_pass(jobs, pins: dict, check_all_pins: bool, clock=time.perf_counter) -> Pass:
    p = Pass()
    start = clock()
    for job in jobs:
        t0 = clock()
        out = job.outcome()
        p.times[job.name] = clock() - t0
        reason = job.judge(out)
        if reason is None and out.digest_render is not None:
            d = digest(out.digest_render)
            p.renders[job.name] = d
            want = pins.get(job.name)
            if (check_all_pins or job.seed_free) and want is not None and d != want:
                reason = f"render digest {d[:12]} differs from pinned {want[:12]}"
        if reason is not None:
            if out.error is not None:
                reason += "\n" + "".join(traceback.format_exception(out.error))
            p.failures.append((job.name, reason))
        if job.top and out.symbols is not None:
            p.symbols += out.symbols
    p.wall = clock() - start
    return p


def end_to_end(jobs, passes, setup, top_symbols) -> dict:
    attempted = len(jobs) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    top = [j.name for j in jobs if j.top]
    negative = [j.name for j in jobs if j.negative]
    metric = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(p.wall for p in passes), "s"),
        "top_rung_s": (statistics.median(sum(p.times[n] for n in top) for p in passes), "s"),
        "refute_s": (statistics.median(sum(p.times[n] for n in negative) for p in passes), "s"),
        "input_symbols": (top_symbols, "count"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "pass_share": ((attempted - failed) / attempted, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metric.items()}


def growth_curve(jobs, passes) -> list[str]:
    lines = []
    for job in jobs:
        if job.negative:
            continue
        t = statistics.median(p.times[job.name] for p in passes)
        lines.append(f"growth {job.series:<18} {job.size:<16} {t:.6f} s")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest rung of every ladder only (self-test)")
    ap.add_argument("--pin", action="store_true",
                    help="record the default seed's PASS render digests as the pinned ones")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    meter = None
    if not args.trace:
        import speedmeter

        meter = speedmeter.SpeedMeter()
        meter.start()
    try:
        return measure(args, meter)
    finally:
        if meter is not None:
            meter.stop()


def measure(args, meter) -> int:
    clock = time.perf_counter if meter is None else meter.clock
    pins_file = json.loads(PINS.read_text()) if PINS.exists() else {}
    default_seed = pins_file.get("default_seed", 1)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            elapsed, jobs = load(args.workload, args.seed, args.smoke, clock)
            setup.append(elapsed)
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # unknown workload
        print(exc, file=sys.stderr)
        return 2
    pins = pins_file.get("digests", {}).get(args.workload, {})
    check_all = args.seed == default_seed
    if args.pin and not check_all:
        print(f"digests are pinned for the default seed {default_seed} only", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    passes, traced, traced_walls, layer_runs = [], 0, [], []
    start = time.perf_counter()
    # MIN_PASSES >= 3 leaves at least one traced and one untraced pass
    while time.perf_counter() - start < args.seconds or len(passes) < MIN_PASSES:
        if tracer is not None and len(passes) % 2 == 1:
            tracer.reset()
            tracer.trace_id = traced
            tracer.install()
            try:
                p = run_pass(jobs, pins, check_all, clock)
            finally:
                tracer.uninstall()
            layer_runs.append(tracer.layer_metrics(p.wall))
            traced_walls.append(p.wall)
            if traced == 0:
                TRACES.mkdir(exist_ok=True)
                tracer.dump_spans(TRACES / f"{args.workload}.jsonl")
            traced += 1
        else:
            p = run_pass(jobs, pins, check_all, clock)
        passes.append(p)

    for name, reason in {n: r for p in passes for n, r in p.failures}.items():
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    if args.pin:
        pins_file["default_seed"] = default_seed
        pins_file.setdefault("digests", {})[args.workload] = passes[0].renders
        PINS.write_text(json.dumps(pins_file, indent=1, sort_keys=True) + "\n")

    plain = [p for i, p in enumerate(passes) if tracer is None or i % 2 == 0]
    for line in growth_curve(jobs, plain):
        print(line)
    if meter is not None:
        print(f"speed {meter.median_speed():.4f} of nominal, median of {len(meter.speeds)} samples")
    attempted = len(jobs) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    if tracer is None:
        metrics = end_to_end(jobs, plain, setup, plain[0].symbols)
    else:
        metrics = {}
        for key in layer_runs[0]:
            metrics[key] = {"value": statistics.median(r[key] for r in layer_runs), "unit": _unit(key)}
        metrics["trace.run_s"] = {"value": statistics.median(traced_walls), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(p.wall for p in plain), "unit": "s"}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_share", "_per_word", "_per_prefix")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
