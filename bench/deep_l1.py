#!/usr/bin/env python3
"""Time the l1 factoring pipeline at the base counts the benchmark ladder leaves out.

    python3 bench/deep_l1.py [--src DIR] [--repeats N] [ROW ...]

A row is `matrix:base` with a matrix named in the benchmark's
`MATRIX_TEMPLATES` (`perfbench/workloads.py`) and a base count for
`dense_orbit_enumeration` (default rows: 2x2-l1, 2x2-linf and 3x3-l1, each
at 256 and 1024).  The matrix is the template itself, with rho its exact
norm.  The program is imported from DIR (default: `src/` of this
repository), so the same script times another checkout by pointing `--src`
at its `src/`.
Each run certifies the whole pipeline (enumeration, its certificate, the
factor map and the commutation certificate with 64 off-support samples) and
prints one JSON line per row: matrix, base, the median wall-clock seconds
over the runs, the verdict (PASS, FAIL, or the type and message of the
error raised) and `render_sha256`, the SHA-256 of the rendered certificate
(null when an error was raised), so two checkouts can be shown to certify
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

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_ROWS = (
    "2x2-l1:256", "2x2-linf:256", "3x3-l1:256",
    "2x2-l1:1024", "2x2-linf:1024", "3x3-l1:1024",
)


def certify(kind: str, mat, rho, base: int):
    from factorlift import certificates, operator_l1

    model = operator_l1.BanachModel(len(mat), operator_l1.NormKind[kind])
    enum = operator_l1.dense_orbit_enumeration(model, model.matrix(mat), rho, base_count=base)
    root = certificates.CertNode(f"l1 factoring base={base}")
    root.add(operator_l1.enumeration_certificate(enum))
    fmap = operator_l1.synthesize_factor_map(enum)
    root.add(operator_l1.commutation_certificate(fmap, rng=random.Random(base)))
    return root


def time_row(name: str, base: int, repeats: int) -> dict:
    from factorlift import errors
    import workloads

    kind, mat = {n: (k, m) for n, k, m in workloads.MATRIX_TEMPLATES}[name]
    rho = workloads.exact_norm(kind, mat)
    times, verdict, sha = [], None, None
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            cert = certify(kind, mat, rho, base)
            verdict = "PASS" if cert.ok else "FAIL"
        except errors.CertificationError as exc:
            cert, verdict = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        sha = None if cert is None else hashlib.sha256(cert.render().encode()).hexdigest()
    return {"matrix": name, "base": base,
            "seconds": round(statistics.median(times), 3), "verdict": verdict,
            "render_sha256": sha}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rows", nargs="*", default=DEFAULT_ROWS)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--repeats", type=int, default=1)
    args = ap.parse_args(argv)
    # the program from --src; the matrices from this checkout's benchmark
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    failed = False
    for row in args.rows:
        name, base = row.rsplit(":", 1)
        result = time_row(name, int(base), args.repeats)
        print(json.dumps(result), flush=True)
        failed = failed or result["verdict"] != "PASS"
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
