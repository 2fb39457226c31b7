"""Spans and counters around the public calls of each factorlift layer.

The program carries no instrumentation of its own, so the traced run wraps
layer entry points from here.  A wrapper replaces the function in its
defining module, in every module that imported it by name (so
`lifting.locate_ball` is caught as well as `covers.locate_ball`), and
methods on their class.  `uninstall` puts the originals back, so traced and
untraced passes can alternate in one process.

Each call records a span (name, start, end, parent) tagged with the pass's
trace id, up to a cap that bounds memory; past the cap only the aggregates
grow.  Self time is computed online, so it stays exact regardless of the
cap: a span's duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import re
import sys
import time
from array import array
from collections import defaultdict

# Spans kept per traced pass; aggregates stay exact past this.
SPAN_CAP = 200_000

GEOMETRY_CLASSES = (
    "Space",
    "IntervalSpace",
    "CircleSpace",
    "CantorSpace",
    "BaireStreamSpace",
    "FiniteMetricSpace",
    "ProductSpace",
)
COVER_CHECKS = ("open_cover_of_closure", "eroded_cover_of_closure")
PREDICATES = (
    "meets_closure",
    "intersect",
    "diam",
    "contains",
    "closed_subset",
    "closure_in_open",
    "eroded_contains",
)

LAYERS = (
    "pairing",
    "injections",
    "operator_l1",
    "geometry",
    "covers",
    "pointmaps",
    "lifting",
    "transducers",
    "families",
    "certificates",
)


def _specs():
    """(layer, attribute path in the layer's module, calls metric, time metric).

    A time metric is inclusive wall time of the outermost call carrying
    it; nested calls under the same metric are not counted twice."""
    s = [
        ("pairing", "pair", "pairing.calls", None),
        ("pairing", "unpair", "pairing.calls", None),
        ("injections", "decode_index", "injections.decode_calls", None),
        ("injections", "successor", None, None),
        ("injections", "classify_components", None, "injections.classify_s"),
        ("injections", "embed_injection", None, "injections.embed_s"),
        ("injections", "dump_injection", None, None),
        ("injections", "load_injection", None, None),
        ("operator_l1", "unit_ball_grid", None, None),
        ("operator_l1", "dense_orbit_enumeration", None, "operator_l1.enum_s"),
        ("operator_l1", "enumeration_certificate", None, "operator_l1.enum_cert_s"),
        ("operator_l1", "synthesize_factor_map", None, "operator_l1.factor_s"),
        ("operator_l1", "commutation_certificate", None, "operator_l1.commute_s"),
        ("covers", "verify_cover_system", None, "covers.verify_s"),
        ("covers", "CoverSystem.v_cell", "covers.v_cell_calls", None),
        ("covers", "CoverSystem.selection", None, None),
        ("covers", "CoverSystem.words_at", None, None),
        ("covers", "corrupt_system", None, None),
        ("covers", "locate_ball", "covers.locate_calls", "covers.locate_s"),
        ("pointmaps", "PointMap.image_region", "pointmaps.region_calls", "pointmaps.region_s"),
        ("pointmaps", "ParameterizedFamily.region", "pointmaps.region_calls", "pointmaps.region_s"),
        ("pointmaps", "PolishPointMap.region", "pointmaps.region_calls", "pointmaps.region_s"),
        ("pointmaps", "PointMap.modulus", None, None),
        ("pointmaps", "ParameterizedFamily.moduli", None, None),
        ("lifting", "slack_schedule", "lifting.slack_calls", None),
        ("lifting", "StrongLift.prefix", "lifting.prefix_calls", "lifting.prefix_s"),
        ("lifting", "StrongLift.moduli", None, None),
        ("lifting", "StrongLift.certificate", None, None),
        ("lifting", "LiftedSelfMap.certificate", None, None),
        ("lifting", "lift_self_map", None, None),
        ("lifting", "DyadicIntervalPresentation.resolve", None, "lifting.baire_s"),
        ("lifting", "DyadicIntervalPresentation.locate_child", None, "lifting.baire_s"),
        ("lifting", "BaireLift.output", None, "lifting.baire_s"),
        ("lifting", "BaireLift.certificate", None, "lifting.baire_s"),
        ("transducers", "PrefixTransducer.step", None, "transducers.step_s"),
        ("transducers", "PrefixTransducer.modulus", None, "transducers.modulus_s"),
        ("transducers", "extract_stream", "transducers.extract_calls", "transducers.extract_s"),
        ("transducers", "pack_streams", None, "transducers.pack_s"),
        ("transducers", "product_lift", None, None),
        ("transducers", "compose_transducers", None, None),
        ("families", "finite_map_family", None, "families.build_s"),
        ("families", "rotation_map_family", None, "families.build_s"),
        ("families", "family_lift", None, "families.build_s"),
        ("families", "universal_on_functions", None, "families.build_s"),
        ("families", "common_extension_baire", None, "families.build_s"),
        ("families", "CommonExtension.certificate", None, "families.ext_cert_s"),
        ("families", "contractive_common_extension", None, "families.contractive_s"),
        ("families", "controlled_powers_check", None, "families.powers_s"),
        ("families", "contraction_fixed_point", None, None),
        ("certificates", "CertNode.render", None, "certificates.render_s"),
        ("certificates", "CertNode.check", "certificates.leaf_checks", None),
    ]
    for cls in GEOMETRY_CLASSES:
        s.append(("geometry", f"{cls}.select_children", None, "geometry.select_s"))
        for meth in COVER_CHECKS:
            s.append(("geometry", f"{cls}.{meth}", "geometry.cover_calls", "geometry.cover_s"))
        for meth in PREDICATES:
            s.append(("geometry", f"{cls}.{meth}", "geometry.predicate_calls", "geometry.predicate_s"))
    return s


LEVEL_HEADER = re.compile(r"level \d+ -> \d+ \((\d+) cells\)")
DISTINCT = re.compile(r"(\d+) distinct cells")


def _count_cover(tracer, args, result):
    for child in result.children:
        m = LEVEL_HEADER.fullmatch(child.title)
        if m:
            tracer.counts["covers.words_visited"] += int(m.group(1))
        m = DISTINCT.fullmatch(child.detail)
        if m:
            tracer.counts["covers.distinct_cells"] += int(m.group(1))


def _count_enum(tracer, args, result):
    tracer.counts["operator_l1.enum_points"] += len(result.points)
    tracer.counts["operator_l1.frontier"] += len(result.frontier)
    tracer.counts["operator_l1.covered"] += len(result.covered)


def _count_commute(tracer, args, result):
    tracer.counts["operator_l1.checked_indices"] += len(args[0].enum.sigma.entries)


def _count_members(tracer, args, result):
    tracer.counts["injections.members"] += sum(len(c.members) for c in result)


ON_RETURN = {
    "verify_cover_system": _count_cover,
    "dense_orbit_enumeration": _count_enum,
    "commutation_certificate": _count_commute,
    "classify_components": _count_members,
}


class Tracer:
    """Wraps the layer entry points and aggregates what the wrappers see."""

    def __init__(self):
        self.names: list[str] = []
        self.patches: list[tuple] = []  # (owner, attribute, original)
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []
        self.self_ns = [0] * len(LAYERS)
        self.counts: dict[str, int] = defaultdict(int)
        self.time_ns: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)
        self.trace_id = 0
        self.span_name = array("h")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_trace = array("h")
        self.spans_total = 0

    # --- installation ---

    def install(self) -> None:
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name.startswith("factorlift") or name == "workloads")
        ]
        for layer, path, calls, timing in _specs():
            owner = sys.modules[f"factorlift.{layer}"]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            if attr not in vars(owner):
                continue  # the class inherits it; the defining class is wrapped
            original = vars(owner)[attr]
            wrapper = self._wrap(original, f"{layer}.{path}", LAYERS.index(layer),
                                 calls, timing, ON_RETURN.get(attr))
            self._patch(owner, attr, original, wrapper)
            if len(parts) == 1:
                for m in modules:
                    if m is not owner and vars(m).get(attr) is original:
                        self._patch(m, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def _wrap(self, fn, name, layer, calls, timing, on_return):
        sid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        tracer = self
        is_locate = name == "covers.locate_ball"

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][1] if stack else -1
            index = -1
            if tracer.spans_total < SPAN_CAP:
                index = len(tracer.span_name)
                tracer.span_name.append(sid)
                tracer.span_start.append(0)
                tracer.span_end.append(0)
                tracer.span_parent.append(parent)
                tracer.span_trace.append(tracer.trace_id)
            tracer.spans_total += 1
            if calls:
                tracer.counts[calls] += 1
            if is_locate and tracer.active["lifting.prefix_s"]:
                tracer.counts["lifting.prefix_locates"] += 1
            if timing:
                tracer.active[timing] += 1
            frame = [0, index]  # time covered by child spans, own span index
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_ns[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if timing:
                    tracer.active[timing] -= 1
                    if not tracer.active[timing]:
                        tracer.time_ns[timing] += duration
                if index >= 0:
                    tracer.span_start[index] = start
                    tracer.span_end[index] = end
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- reporting ---

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures of one traced pass of the given wall time."""
        c, t = self.counts, self.time_ns
        out: dict[str, float] = {}
        for key in (
            "pairing.calls",
            "injections.decode_calls",
            "injections.members",
            "operator_l1.enum_points",
            "operator_l1.checked_indices",
            "geometry.cover_calls",
            "geometry.predicate_calls",
            "covers.words_visited",
            "covers.distinct_cells",
            "covers.v_cell_calls",
            "covers.locate_calls",
            "pointmaps.region_calls",
            "lifting.prefix_calls",
            "lifting.slack_calls",
            "transducers.extract_calls",
            "certificates.leaf_checks",
        ):
            out[key] = c[key]
        for key in (
            "injections.classify_s",
            "injections.embed_s",
            "operator_l1.enum_s",
            "operator_l1.enum_cert_s",
            "operator_l1.factor_s",
            "operator_l1.commute_s",
            "geometry.cover_s",
            "geometry.predicate_s",
            "geometry.select_s",
            "covers.verify_s",
            "covers.locate_s",
            "pointmaps.region_s",
            "lifting.prefix_s",
            "lifting.baire_s",
            "transducers.step_s",
            "transducers.extract_s",
            "transducers.modulus_s",
            "transducers.pack_s",
            "families.build_s",
            "families.ext_cert_s",
            "families.contractive_s",
            "families.powers_s",
            "certificates.render_s",
        ):
            out[key] = t[key] / 1e9
        out["operator_l1.frontier_share"] = _ratio(c["operator_l1.frontier"], c["operator_l1.covered"])
        out["covers.distinct_per_word"] = _ratio(c["covers.distinct_cells"], c["covers.words_visited"])
        out["lifting.locates_per_prefix"] = _ratio(c["lifting.prefix_locates"], c["lifting.prefix_calls"])
        layered = 0.0
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.self_ns[i] / 1e9
            layered += self.self_ns[i] / 1e9
        out["bench.self_s"] = wall_s - layered
        out["trace.accounted_share"] = _ratio(layered, wall_s)
        out["trace.spans"] = self.spans_total
        return out

    def dump_spans(self, path) -> None:
        """Kept spans as JSON lines: trace id, name, start/end in ns, parent
        span index (-1 at a pass's root)."""
        with open(path, "w") as fh:
            for i in range(len(self.span_name)):
                fh.write(
                    f'{{"trace":{self.span_trace[i]},"span":{i},'
                    f'"name":"{self.names[self.span_name[i]]}",'
                    f'"start_ns":{self.span_start[i]},"end_ns":{self.span_end[i]},'
                    f'"parent":{self.span_parent[i]}}}\n'
                )


def _ratio(num, den) -> float:
    return num / den if den else 0.0
