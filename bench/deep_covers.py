#!/usr/bin/env python3
"""Time `verify_cover_system` on the deep rungs the benchmark ladder leaves out.

    python3 bench/deep_covers.py [--src DIR] [--repeats N] [ROW ...]

A row is `system:depth` with a system named by `covers.shipped_systems()`
(default rows: interval:7 interval:8 circle:7 circle:8 cantor:14 cantor:15
cantor:16).  The program is imported from DIR (default: `src/` of this
repository), so the same script times another checkout by pointing `--src`
at its `src/`.
Each row builds a fresh system per run and prints one JSON line: system,
depth, the median wall-clock seconds over the runs, the verdict (PASS,
FAIL, or the type and message of the error raised) and `render_sha256`,
the SHA-256 of the rendered certificate (null when an error was raised),
so two checkouts can be shown to certify byte-identically.  The exit code
is 1 when any row's verdict is not PASS, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

DEFAULT_ROWS = (
    "interval:7", "interval:8", "circle:7", "circle:8",
    "cantor:14", "cantor:15", "cantor:16",
)


def time_row(covers, errors, name: str, depth: int, repeats: int) -> dict:
    times, verdict, sha = [], None, None
    for _ in range(repeats):
        cs = covers.shipped_systems()[name]
        start = time.perf_counter()
        try:
            cert = covers.verify_cover_system(cs, depth)
            verdict = "PASS" if cert.ok else "FAIL"
        except errors.CertificationError as exc:
            cert, verdict = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        sha = None if cert is None else hashlib.sha256(cert.render().encode()).hexdigest()
    return {"system": name, "depth": depth,
            "seconds": round(statistics.median(times), 3), "verdict": verdict,
            "render_sha256": sha}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rows", nargs="*", default=DEFAULT_ROWS)
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    ap.add_argument("--repeats", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from factorlift import covers, errors

    failed = False
    for row in args.rows:
        name, depth = row.rsplit(":", 1)
        result = time_row(covers, errors, name, int(depth), args.repeats)
        print(json.dumps(result), flush=True)
        failed = failed or result["verdict"] != "PASS"
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
