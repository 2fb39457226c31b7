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
                       base count for `dense_orbit_enumeration`; its root
                       notes the norm kind, dimension and matrix the
                       enumeration certified;
  baire:cover:RES      `certificate(RES, 8, random.Random(RES))` of a fresh
                       Baire lift of `parity_expansion_map` over
                       `interval_system()`;
  ext:pipeline:DEPTH   `certificate(DEPTH, 12, random.Random(DEPTH))` of a
                       fresh `common_extension_baire` over the benchmark's
                       `extension_pieces()` (`perfbench/workloads.py`), the
                       pipeline whose depth 12 is lift-extend's top rung;
  lift:MAP:RES         `certificate(RES, 6, random.Random(RES),
                       exact_samples=2)` of a fresh `lift_self_map` of
                       `square` or `tent` on `interval_system()`, or of
                       `rot` (`rotation_map(2/7)`) on `circle_system()`:
                       the member lifts the common extension runs;
  embed:perm:N         `dump_injection`, `load_injection` and
                       `embed_injection` of a permutation of 0..N-1 shuffled
                       by `random.Random(N)`; it renders as its sorted
                       relabel items and `checked_edges`, and passes when
                       every edge was checked.
The default rows are interval at depths 7, 8 and 10, circle at 7, 8 and 9,
and cantor at 14, 15 and 16; 2x2-l1, 2x2-linf and 3x3-l1 at base 256 and
1024; cover at resolution 8, 16 and 24; the pipeline at depth
16, 20 and 24; square, tent and rot at resolution 32 and 128; the
permutation at 100,000 and 400,000.  The program
is imported from DIR (default: `src/` of this repository), so the same
script times another checkout by pointing `--src` at its `src/`; the
matrices and the extension pieces always come from this checkout's
benchmark.
Each run builds its input afresh and times only the certification, in
nominal seconds read from this checkout's benchmark clock
(`perfbench/speedmeter.py`), which scales program time by the machine's
measured speed so that runs made minutes apart on a shared host compare.
One JSON line per row gives the row, the median nominal seconds over the
runs with their minimum and maximum (`min_seconds`, `max_seconds`), the
verdict (PASS, FAIL, or the type and message of the error raised) and
`render_sha256`, the SHA-256 of the rendered certificate (null when an
error was raised), so two checkouts can be shown to certify byte-identically.
A single run cannot tell a 2x change on a row: one row's time has been
seen to double between back-to-back runs of the same code on a shared
host, so compare rows with `--repeats` of 3 or more, and read a change
only where the two checkouts' min-max spans do not overlap.
The exit code is 1 when any row's verdict is not PASS, a default row's
`render_sha256` differs from the digest recorded in `PINNED`, or two default
rows share a `render_sha256` (a pin that cannot tell two pipelines apart),
else 0; each such row is named on standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
# The render digest of each default row; a row that renders otherwise fails.
PINNED = {
    "covers:interval:7":
        "1125db8886930fe22e83030572805a686dc25e2bdedd3619d7136f4282ae72c3",
    "covers:interval:8":
        "4f881c9208b31c2761fcd118b56813fb8d9a51fb40871a312a76fab262ef48dc",
    "covers:interval:10":
        "efd0f49224f96c7477fde26f0e2f0ff002e038bf74998f9763dd885b728e23dc",
    "covers:circle:7":
        "fbf46014dbc7b81ea0fd0acea0e06f090e826ebfbe5e48ad8e13b30b22659400",
    "covers:circle:8":
        "e2591a1e4240c054baf08a66f8a010d7c7eb78e8e6409d6403e3c2aac679154a",
    "covers:circle:9":
        "1c9745bec20493d512e112b488ab25a3b0ded45c7d428f1accd487227f97c10d",
    "covers:cantor:14":
        "f7af005542b0dd1980a0ae860d933ee3121f8607895b090c61555a8b10c94348",
    "covers:cantor:15":
        "738e42c588523c0d57ef0edc6cda6922cc29c5ffa1b97c068ba6cddddf15795b",
    "covers:cantor:16":
        "42de7a850ac7a2008256c85bcaccbc6f5dcadf31706e99084dedd63a81b0b1a9",
    "l1:2x2-l1:256":
        "ed2dda5ffe67d40dd9dbe7743acb3db2a0d2d46c82c5b5980bd12f552cbe4a83",
    "l1:2x2-linf:256":
        "17d4808fcecd3852452276768964ed9cb20c2eb370a9033c6039d4238f3fd567",
    "l1:3x3-l1:256":
        "b220b3ede21028db7e1c1a077fa146977e6710601dba1746394932c4f799d82d",
    "l1:2x2-l1:1024":
        "2451bb261a18c3e01e2fce3ef013e7c9c2efd1ca3cca224c0935f1be1fe659e6",
    "l1:2x2-linf:1024":
        "cfb50eb768d1a8b44bb978795499c8919b07b2315fdcc6f132fc43e336109872",
    "l1:3x3-l1:1024":
        "05196e9c62a3d99214a0403eb1fcff8a0aec04b4d8e9a89e64922744f601d584",
    "baire:cover:8":
        "765e5d313b2fee70c4fa2420d18b27bfa665fb96dfd75fbfb629dc63d2af30fa",
    "baire:cover:16":
        "265afbf1cb137f51bfcb27326a9b1ef155fea96e376da9644f073b6229674cc5",
    "baire:cover:24":
        "dc8e233086b65557d41cf608be61e618d065fc625b6ba7f19fb9969faaedc349",
    "ext:pipeline:16":
        "7313086f4833148d3fa2bd9222555e6c7f23964f97ec0e570e6545cea3a6b711",
    "ext:pipeline:20":
        "8cdcebe45e3db1bf8cddab6df324263194725311b5f79b5f36b1aee2ab66ce27",
    "ext:pipeline:24":
        "7c5d5bf8e3c14d826dc22f553748c0e490a71ea2d6b3d79f68af4b8a611bbe3e",
    "lift:square:32":
        "04c55a74adba02c9034212decca2c8e15e0b4f6e1cda8b6c5b8caecc07ec5a42",
    "lift:tent:32":
        "9532b547f6ccc45d1e2f7405f403cecf043229fac807cea09f73afa77c8a89ea",
    "lift:rot:32":
        "ff71a23023966ed1541566a362b50cd6c22e72675f5910f400cf2d803d852ff2",
    "lift:square:128":
        "f25f3d213d3d2b68c8b643325def0eeab3185c42770204b827a5cee4cefe119e",
    "lift:tent:128":
        "8a7f9658f1a9f3283d7e9da0a1baee02fc45f50b24cd4346611b08afa7249076",
    "lift:rot:128":
        "200b9009fa2c7b9cf58038c1a08d92de21d3fa15d34ae467cb6d95d07b7d2b23",
    "embed:perm:100000":
        "36eaf00b13c2608090d03758d2fafcd141394887d8aab2ab2a72178301945b9b",
    "embed:perm:400000":
        "215a4dbfacf3e0e7b61941e51b14297fddc26d655ecb00ad4f168cbff7e8d31f",
}
DEFAULT_ROWS = tuple(PINNED)


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
        entries = ", ".join("(" + ", ".join(map(str, row)) + ")" for row in enum.matrix)
        root.note(f"norm {enum.model.kind.value}, dimension {enum.model.dim}, "
                  f"matrix ({entries})")
        root.add(operator_l1.enumeration_certificate(enum))
        fmap = operator_l1.synthesize_factor_map(enum)
        root.add(operator_l1.commutation_certificate(fmap, rng=random.Random(base)))
        return root

    return certify


def baire_row(name: str, resolution: int):
    from factorlift import covers, lifting, pointmaps

    present = {"cover": covers.interval_system}
    bl = lifting.baire_extension_map(present[name](), pointmaps.parity_expansion_map())
    return lambda: bl.certificate(resolution, 8, random.Random(resolution))


def ext_row(name: str, depth: int):
    from factorlift import families
    import workloads

    pieces = {"pipeline": workloads.extension_pieces}[name]()
    ext = families.common_extension_baire(pieces)
    return lambda: ext.certificate(depth, 12, random.Random(depth))


def lift_row(name: str, resolution: int):
    from factorlift import covers, lifting, pointmaps

    system, point_map = {
        "square": (covers.interval_system, pointmaps.squaring_map),
        "tent": (covers.interval_system, pointmaps.tent_map),
        "rot": (covers.circle_system, lambda: pointmaps.rotation_map(Fraction(2, 7))),
    }[name]
    lifted = lifting.lift_self_map(system(), point_map())
    return lambda: lifted.certificate(
        resolution, 6, random.Random(resolution), exact_samples=2
    )


def embed_row(name: str, size: int):
    from factorlift import injections

    if name != "perm":
        raise KeyError(name)
    image = list(range(size))
    random.Random(size).shuffle(image)
    sigma = injections.PartialInjection(dict(enumerate(image)))

    def certify():
        back = injections.load_injection(injections.dump_injection(sigma))
        cert = injections.embed_injection(back)
        return SimpleNamespace(
            ok=cert.checked_edges == size,
            render=lambda: "".join(f"{m} {i}\n" for m, i in sorted(cert.relabel.items()))
            + f"checked_edges {cert.checked_edges}\n",
        )

    return certify


KINDS = {
    "covers": covers_row,
    "l1": l1_row,
    "baire": baire_row,
    "ext": ext_row,
    "lift": lift_row,
    "embed": embed_row,
}


def time_row(row: str, repeats: int) -> dict:
    from factorlift import errors
    from speedmeter import SpeedMeter

    kind, name, size = row.split(":")
    times, verdict, sha = [], None, None
    meter = SpeedMeter()
    meter.start()
    try:
        for _ in range(repeats):
            certify = KINDS[kind](name, int(size))
            start = meter.clock()
            try:
                cert = certify()
                verdict = "PASS" if cert.ok else "FAIL"
            except errors.CertificationError as exc:
                cert, verdict = None, f"{type(exc).__name__}: {exc}"
            times.append(meter.clock() - start)
            sha = None if cert is None else hashlib.sha256(cert.render().encode()).hexdigest()
    finally:
        meter.stop()
    return {"row": row, "seconds": round(statistics.median(times), 3),
            "min_seconds": round(min(times), 3), "max_seconds": round(max(times), 3),
            "verdict": verdict, "render_sha256": sha}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rows", nargs="*", default=DEFAULT_ROWS)
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--repeats", type=int, default=1,
                    help="runs per row (one run cannot tell a 2x change on a row)")
    args = ap.parse_args(argv)
    # the program from --src; the matrices and pieces from this checkout's benchmark
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    failed = False
    first_with = {}  # render_sha256 -> the first default row that rendered it
    for row in args.rows:
        result = time_row(row, args.repeats)
        print(json.dumps(result), flush=True)
        want, sha = PINNED.get(row), result["render_sha256"]
        twin = first_with.setdefault(sha, row) if want is not None else row
        if result["verdict"] != "PASS":
            problem = f"verdict {result['verdict']}"
        elif want is not None and sha != want:
            problem = f"render_sha256 {sha} differs from the pinned {want}"
        elif twin != row:
            problem = f"render_sha256 {sha} is also the render of {twin}"
        else:
            continue
        print(f"{row}: {problem}", file=sys.stderr, flush=True)
        failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
