#!/usr/bin/env python3
"""Time the Baire lift of parity-expansion at resolutions the benchmark leaves out.

    python3 bench/deep_baire.py [--src DIR] [--repeats N] [ROW ...]

A row is `presentation:resolution` with presentation `dyadic`
(`DyadicIntervalPresentation`) or `cover` (`interval_system()`), the two
presentations of the unit interval (default rows: dyadic and cover, each at
8, 16 and 24).  The program is imported from DIR (default: `src/` of this
repository), so the same script times another checkout by pointing `--src`
at its `src/`.
Each run builds a fresh lift of `parity_expansion_map` and certifies it with
`certificate(resolution, 8, random.Random(resolution))`, then prints one
JSON line per row: presentation, resolution, the median wall-clock seconds
over the runs, the verdict (PASS, FAIL, or the type and message of the error
raised) and `render_sha256`, the SHA-256 of the rendered certificate (null
when an error was raised), so two checkouts can be shown to certify
byte-identically.  The exit code is 1 when any row's verdict is not PASS,
else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

DEFAULT_ROWS = ("dyadic:8", "dyadic:16", "dyadic:24", "cover:8", "cover:16", "cover:24")
SAMPLES = 8


def time_row(name: str, resolution: int, repeats: int) -> dict:
    from factorlift import covers, errors, lifting, pointmaps

    present = {"dyadic": lifting.DyadicIntervalPresentation, "cover": covers.interval_system}
    times, verdict, sha = [], None, None
    for _ in range(repeats):
        bl = lifting.baire_extension_map(present[name](), pointmaps.parity_expansion_map())
        start = time.perf_counter()
        try:
            cert = bl.certificate(resolution, SAMPLES, random.Random(resolution))
            verdict = "PASS" if cert.ok else "FAIL"
        except errors.CertificationError as exc:
            cert, verdict = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        sha = None if cert is None else hashlib.sha256(cert.render().encode()).hexdigest()
    return {"presentation": name, "resolution": resolution,
            "seconds": round(statistics.median(times), 3), "verdict": verdict,
            "render_sha256": sha}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rows", nargs="*", default=DEFAULT_ROWS)
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    ap.add_argument("--repeats", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    failed = False
    for row in args.rows:
        name, resolution = row.rsplit(":", 1)
        result = time_row(name, int(resolution), args.repeats)
        print(json.dumps(result), flush=True)
        failed = failed or result["verdict"] != "PASS"
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
