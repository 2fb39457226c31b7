#!/usr/bin/env python3
"""Name the functions of `src/factorlift/` that no benchmark calls.

    python3 bench/unreached.py

Builds and runs every job of the three benchmark workloads at seed 1 (from
`perfbench/workloads.py`, imported the way `bench/deep.py` imports it) and
every default `bench/deep.py` row once, with its render, under a
`sys.setprofile` hook that records each code object called.  Every `def` in
`src/factorlift/` whose code never ran is named as module.qualname.  Code
objects are matched to definitions by file, first line and name through
`ast`, so no `co_qualname` (Python 3.11) is needed.

The names are compared with `NEVER_CALLED`, a frozen list that may only
shrink.  The exit code is 1 when a function outside the list was never
called (it lost its last benchmark caller) or a listed function was called
(it gained one) or is no longer defined (both leave the list), each named
on standard error; else 0.  A run takes 18-23 s on a shared 2-vCPU x86-64 host.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "factorlift"

# Functions no benchmark calls, as module.qualname.  One text block, not a
# string per name: the public-name guard (tests/test_public_names.py) reads a
# string that is a whole dotted path as a use of each name along it.
NEVER_CALLED = frozenset("""
certificates.CertNode.counts
certificates.summary_line
geometry.BaireStreamSpace.contains
geometry.BaireStreamSpace.describe
geometry.BaireStreamSpace.distance
geometry.BaireStreamSpace.eroded_contains
geometry.BaireStreamSpace.point_cell
geometry.BaireStreamSpace.witness_point
geometry.CantorSpace.describe
geometry.CantorSpace.mesh
geometry.CantorSpace.sample_point
geometry.CantorSpace.shrink_cell
geometry.CircleSpace.describe
geometry.CircleSpace.mesh
geometry.CircleSpace.shrink_cell
geometry.CircleSpace.witness_point
geometry.FiniteMetricSpace.contains
geometry.FiniteMetricSpace.describe
geometry.FiniteMetricSpace.distance
geometry.FiniteMetricSpace.eroded_contains
geometry.FiniteMetricSpace.mesh
geometry.FiniteMetricSpace.point_cell
geometry.FiniteMetricSpace.sample_point
geometry.FiniteMetricSpace.shrink_cell
geometry.FiniteMetricSpace.witness_point
geometry.IntervalSpace.hull
geometry.IntervalSpace.mesh
geometry.ProductSpace.contains
geometry.ProductSpace.describe
geometry.ProductSpace.distance
geometry.ProductSpace.eroded_contains
geometry.ProductSpace.mesh
geometry.ProductSpace.point_cell
geometry.ProductSpace.sample_point
geometry.ProductSpace.shrink_cell
geometry.ProductSpace.witness_point
geometry._stream_distance
injections.decode_index
injections.encode_cycle
injections.encode_line
injections.encode_ray
lifting.BaireLift.max_resolution
lifting.BaireLift.output
lifting.CylinderPresentation.__init__
lifting.CylinderPresentation.locate_child
lifting.CylinderPresentation.slack
lifting.CylinderPresentation.v_cell
lifting.presentation_certificate
operator_l1.BanachModel.in_unit_ball
operator_l1.BanachModel.norm
operator_l1.FactorMap.apply
operator_l1.FactorMap.basis_image
operator_l1.OrbitEnumeration.points
operator_l1.SparseL1Vector.__eq__
operator_l1.SparseL1Vector.__init__
operator_l1.SparseL1Vector.__repr__
operator_l1.SparseL1Vector.norm1
operator_l1.SparseL1Vector.scale
operator_l1._Points.__getitem__
operator_l1._Points.__init__
operator_l1._Points.__len__
operator_l1.apply_universal
pointmaps.baire_identity_map
pointmaps.constant_interval_map
pointmaps.identity_map
pointmaps.product_map
pointmaps.product_map.<locals>.region
pointmaps.stream_map
pointmaps.stream_map.<locals>.modulus
pointmaps.stream_map.<locals>.region
pointmaps.table_map
pointmaps.table_map.<locals>.region
transducers.InterleavedSpace.arities
transducers.PrefixTransducer.__repr__
transducers.ProductLift.component_map
transducers.ProductLift.projection_preimage
transducers.Stream.__post_init__
transducers.Stream.prefix
transducers.block_transducer
transducers.block_transducer.<locals>.step
transducers.constant_transducer
transducers.evaluate_transducer
transducers.identity_transducer
transducers.odometer_transducer
transducers.odometer_transducer.<locals>.step
transducers.shift_transducer
transducers.substitution_transducer
transducers.substitution_transducer.<locals>.step
""".split())


def definitions() -> dict[tuple[str, int, str], str]:
    """{(file, first line, name): module.qualname} of every `def` in the
    package; a decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first, child.name)] = f"{path.stem}.{qualname}"
                visit(child, qualname + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path)
    return found


def run_benchmarks() -> None:
    import deep
    import workloads

    for workload in ("cover-ladder", "factor-l1", "lift-extend"):
        for job in workloads.build_jobs(workload, 1):
            job.judge(job.outcome())
    for row in deep.DEFAULT_ROWS:
        kind, name, size = row.split(":")
        deep.KINDS[kind](name, int(size))().render()


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "bench")]
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run_benchmarks()
    finally:
        sys.setprofile(None)
    ran = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in seen}
    defs = definitions()
    never = {name for key, name in defs.items() if key not in ran}
    print(f"{len(never)} of {len(defs)} functions in src/factorlift/ never called")
    lost = sorted(never - NEVER_CALLED)
    problems = [f"{name}: no longer called by any benchmark" for name in lost]
    for name in sorted(NEVER_CALLED - never):
        why = "now called" if name in defs.values() else "no longer defined"
        problems.append(f"{name}: {why}, so it leaves NEVER_CALLED")
    for problem in problems:
        print(problem, file=sys.stderr)
    return int(bool(problems))


if __name__ == "__main__":
    sys.exit(main())
