#!/usr/bin/env python3
"""Time certified pipelines at the sizes the benchmark ladder leaves out.

    python3 bench/deep.py [--src DIR] [--repeats N] [ROW ...]

A row is `kind:name:size`, one of
  covers:SYSTEM:DEPTH  `verify_cover_system` on a fresh system named by
                       `covers.shipped_systems()`;
  l1:MATRIX:BASE       the l1 factoring pipeline (enumeration, its
                       certificate, the factor map and the commutation
                       certificate with 64 off-support samples) for a matrix
                       named in the benchmark's `MATRIX_TEMPLATES`
                       (`perfbench/workloads.py`), rho its exact norm, at a
                       base count for `dense_orbit_enumeration`;
  baire:PRES:RES       `certificate(RES, 8, random.Random(RES))` of a fresh
                       Baire lift of `parity_expansion_map` over `dyadic`
                       (`DyadicIntervalPresentation`) or `cover`
                       (`interval_system()`).
The default rows are interval and circle at depths 7 and 8 and cantor at 14,
15 and 16; 2x2-l1, 2x2-linf and 3x3-l1 at base 256 and 1024; dyadic and
cover at resolution 8, 16 and 24.  The program is imported from DIR
(default: `src/` of this repository), so the same script times another
checkout by pointing `--src` at its `src/`; the matrices always come from
this checkout's benchmark.
Each run builds its input afresh and times only the certification.  One
JSON line per row gives the row, the median wall-clock seconds over the
runs, the verdict (PASS, FAIL, or the type and message of the error raised)
and `render_sha256`, the SHA-256 of the rendered certificate (null when an
error was raised), so two checkouts can be shown to certify byte-identically.
The exit code is 1 when any row's verdict is not PASS, else 0.
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
    "covers:interval:7", "covers:interval:8", "covers:circle:7", "covers:circle:8",
    "covers:cantor:14", "covers:cantor:15", "covers:cantor:16",
    "l1:2x2-l1:256", "l1:2x2-linf:256", "l1:3x3-l1:256",
    "l1:2x2-l1:1024", "l1:2x2-linf:1024", "l1:3x3-l1:1024",
    "baire:dyadic:8", "baire:dyadic:16", "baire:dyadic:24",
    "baire:cover:8", "baire:cover:16", "baire:cover:24",
)


def covers_row(name: str, depth: int):
    from factorlift import covers

    cs = covers.shipped_systems()[name]
    return lambda: covers.verify_cover_system(cs, depth)


def l1_row(name: str, base: int):
    from factorlift import certificates, operator_l1
    import workloads

    kind, mat = {n: (k, m) for n, k, m in workloads.MATRIX_TEMPLATES}[name]
    rho = workloads.exact_norm(kind, mat)

    def certify():
        model = operator_l1.BanachModel(len(mat), operator_l1.NormKind[kind])
        enum = operator_l1.dense_orbit_enumeration(model, model.matrix(mat), rho, base_count=base)
        root = certificates.CertNode(f"l1 factoring base={base}")
        root.add(operator_l1.enumeration_certificate(enum))
        fmap = operator_l1.synthesize_factor_map(enum)
        root.add(operator_l1.commutation_certificate(fmap, rng=random.Random(base)))
        return root

    return certify


def baire_row(name: str, resolution: int):
    from factorlift import covers, lifting, pointmaps

    present = {"dyadic": lifting.DyadicIntervalPresentation, "cover": covers.interval_system}
    bl = lifting.baire_extension_map(present[name](), pointmaps.parity_expansion_map())
    return lambda: bl.certificate(resolution, 8, random.Random(resolution))


KINDS = {"covers": covers_row, "l1": l1_row, "baire": baire_row}


def time_row(row: str, repeats: int) -> dict:
    from factorlift import errors

    kind, name, size = row.split(":")
    times, verdict, sha = [], None, None
    for _ in range(repeats):
        certify = KINDS[kind](name, int(size))
        start = time.perf_counter()
        try:
            cert = certify()
            verdict = "PASS" if cert.ok else "FAIL"
        except errors.CertificationError as exc:
            cert, verdict = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        sha = None if cert is None else hashlib.sha256(cert.render().encode()).hexdigest()
    return {"row": row, "seconds": round(statistics.median(times), 3),
            "verdict": verdict, "render_sha256": sha}


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
        result = time_row(row, args.repeats)
        print(json.dumps(result), flush=True)
        failed = failed or result["verdict"] != "PASS"
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
