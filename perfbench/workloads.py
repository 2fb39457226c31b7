"""Seeded inputs and job ladders for the three factorlift workloads.

Every job is one certified pipeline whose verdict is known before it runs:
valid constructions must PASS, negative controls must FAIL or raise their
typed error, and either way the witness they name is checked against what
the benchmark itself planted.  The program only ever receives the inputs
generated here.

Jobs build their cover systems, lifts and families fresh on every call, so
each pass pays for the memos a user pays for on every certification.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

from factorlift import (
    certificates,
    covers,
    errors,
    families,
    geometry,
    injections,
    lifting,
    operator_l1,
    pointmaps,
)

@dataclass
class Outcome:
    """What a job produced: a certificate or the exception it raised; both
    absent when a job that should have raised returned instead."""

    cert: Optional[certificates.CertNode] = None
    error: Optional[BaseException] = None
    digest_render: Optional[str] = None  # render pinned for the default seed
    symbols: Optional[int] = None  # input symbols the job demanded


@dataclass
class Job:
    name: str
    run: Callable[[], Outcome]
    # judge(outcome) -> None when the known answer holds, else a reason
    judge: Callable[[Outcome], Optional[str]]
    series: str = ""  # growth-curve series (system / matrix / construction)
    size: str = ""  # rung label within the series, e.g. "depth=5"
    top: bool = False  # on the last rung of the workload's main ladder
    negative: bool = False  # negative control: counted in refute_s
    # render depends only on the job's definition, not on the seed
    seed_free: bool = False

    def outcome(self) -> Outcome:
        try:
            return self.run()
        except Exception as exc:  # negative controls expect one; the judge decides
            return Outcome(error=exc)


# === known-answer judges ===


def expect_pass(out: Outcome) -> Optional[str]:
    if out.error is not None:
        return f"raised {type(out.error).__name__}: {out.error}"
    if not out.cert.ok:
        bad = out.cert.first_failure()
        return f"expected PASS, got FAIL at {bad.title!r} ({bad.detail})"
    return None


def expect_fail(title_pattern: str, witnesses: Callable[[str], bool]):
    """The first failing check must match the title pattern, and its detail
    must name a planted witness."""

    def judge(out: Outcome) -> Optional[str]:
        if out.error is not None:
            return f"raised {type(out.error).__name__}: {out.error}"
        if out.cert.ok:
            return "negative control passed"
        bad = out.cert.first_failure()
        if not re.fullmatch(title_pattern, bad.title):
            return f"failed at {bad.title!r}, expected {title_pattern!r}"
        if not witnesses(bad.detail):
            return f"witness not the planted one: {bad.detail!r}"
        return None

    return judge


def expect_raise(kind: type, pattern: str):
    """The typed error must be raised and its message must match."""

    def judge(out: Outcome) -> Optional[str]:
        if out.error is None:
            return f"expected {kind.__name__}, got no error"
        if type(out.error) is not kind:
            return f"expected {kind.__name__}, got {type(out.error).__name__}: {out.error}"
        if not re.search(pattern, str(out.error)):
            return f"witness missing from {out.error}"
        return None

    return judge


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}/{label}")


# === cover-ladder ===

# Branch words of length 5 whose corruption of the unit-interval system is
# known to FAIL the child-coverage check at depth 5 with the parent word as
# witness.  Not every word does: shrinking a padded duplicate changes
# nothing, and some shrunk cells miss their parent so the cell is empty.
# Found by exhaustive trial of sampled words on the seed code.
CORRUPTIBLE_WORDS = (
    (3, 2, 0, 4, 1),
    (2, 0, 3, 0, 1),
    (3, 3, 2, 1, 1),
    (1, 0, 1, 1, 2),
    (1, 3, 3, 3, 1),
    (4, 2, 5, 2, 1),
    (0, 3, 1, 1, 0),
    (2, 1, 4, 0, 1),
    (3, 0, 0, 2, 1),
    (0, 0, 0, 3, 1),
    (1, 4, 3, 4, 1),
    (3, 1, 1, 2, 3),
    (4, 5, 3, 1, 1),
    (2, 5, 4, 5, 1),
    (1, 1, 3, 3, 1),
    (4, 2, 4, 1, 3),
    (3, 2, 2, 3, 3),
    (0, 2, 5, 2, 1),
    (0, 3, 4, 4, 1),
)

COVER_LADDERS = {
    "interval": (3, 4, 5),
    "circle": (3, 4, 5),
    "cantor": (8, 9, 10),
    "cantor-product": (4, 5, 6),
    "finite": (4, 6, 8),
}


def finite_distances(rng: random.Random, size: int = 5) -> tuple:
    """A seeded metric: off-diagonal distances in [1, 2] always satisfy
    the triangle inequality."""
    d = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d[i][j] = d[j][i] = F(1) + F(rng.randrange(1, 16), 16)
    return tuple(map(tuple, d))


def cover_system(name: str, metric) -> covers.CoverSystem:
    if name == "interval":
        return covers.interval_system()
    if name == "circle":
        return covers.circle_system()
    if name == "cantor":
        return covers.cantor_system()
    if name == "cantor-product":
        return covers.product_system(
            geometry.CantorSpace(), geometry.CantorSpace(), "cantor-product"
        )
    return covers.finite_system(metric)


def branch_symbols(cs: covers.CoverSystem, depth: int) -> int:
    """Symbols in all branch words of the given length: words times depth."""
    words = 1
    for level in range(1, depth + 1):
        words *= cs.child_arity(level)
    return words * depth


def cover_jobs(seed: int, smoke: bool = False) -> list[Job]:
    metric = finite_distances(_rng(seed, "finite-metric"))
    planted = _rng(seed, "corrupt-word").sample(CORRUPTIBLE_WORDS, 2)
    jobs = []
    for name, depths in COVER_LADDERS.items():
        depths = depths[:1] if smoke else depths
        for depth in depths:

            def run(name=name, depth=depth) -> Outcome:
                cs = cover_system(name, metric)
                cert = covers.verify_cover_system(cs, depth)
                return Outcome(cert, digest_render=cert.render(),
                               symbols=branch_symbols(cs, depth))

            jobs.append(
                Job(
                    f"verify {name} depth={depth}",
                    run,
                    expect_pass,
                    series=name,
                    size=f"depth={depth}",
                    top=depth == depths[-1],
                    seed_free=name != "finite",
                )
            )
    # the planted words sit at the top interval depth, so the smoke run
    # refutes there too
    top = COVER_LADDERS["interval"][-1]

    for word in planted:

        def refute(word=word) -> Outcome:
            bad = covers.corrupt_system(covers.interval_system(), word)
            return Outcome(covers.verify_cover_system(bad, top))

        jobs.append(
            Job(
                f"refute corrupted interval at {word} depth={top}",
                refute,
                expect_fail(
                    re.escape("children cover parent closure"),
                    lambda detail, word=word: f"first at branch {word[:-1]}:" in detail,
                ),
                negative=True,
            )
        )
    return jobs


# === factor-l1 ===

# Templates conjugated by a seeded signed permutation (and a seeded global
# sign).  Signed permutations are isometries of both L1 and LINF and map
# the rational ball grid to itself, so every seed gets a different matrix
# with the same exact norm and orbit structure, hence comparable work.
MATRIX_TEMPLATES = (
    ("2x2-l1", "L1", ((F(1, 2), F(-1, 3)), (F(1, 4), F(1, 5)))),
    ("2x2-linf", "LINF", ((F(1, 3), F(1, 2)), (F(-1, 5), F(1, 4)))),
    (
        "3x3-l1",
        "L1",
        (
            (F(1, 2), F(0), F(1, 3)),
            (F(-1, 4), F(1, 3), F(0)),
            (F(0), F(1, 5), F(-1, 2)),
        ),
    ),
)
BASE_COUNTS = (32, 64, 128)
PERMUTATION_SIZE = 50_000


def exact_norm(kind: str, mat) -> F:
    """Max column sum (L1) or max row sum (LINF), computed here so the
    norm bound handed to the program is a known answer."""
    n = len(mat)
    if kind == "L1":
        return max(sum(abs(mat[i][j]) for i in range(n)) for j in range(n))
    return max(sum(abs(c) for c in row) for row in mat)


def conjugate(mat, rng: random.Random):
    n = len(mat)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    flip = rng.choice((1, -1))
    # (P T P^-1)[i][j] with P e_j = signs[j] e_perm[j]
    inv = {p: j for j, p in enumerate(perm)}
    return tuple(
        tuple(
            flip * signs[inv[i]] * signs[inv[j]] * mat[inv[i]][inv[j]]
            for j in range(n)
        )
        for i in range(n)
    )


def seeded_permutation(rng: random.Random, size: int) -> dict[int, int]:
    image = list(range(size))
    rng.shuffle(image)
    return dict(enumerate(image))


def cycle_count(entries: dict[int, int]) -> int:
    seen, count = set(), 0
    for start in entries:
        if start in seen:
            continue
        count += 1
        node = start
        while node not in seen:
            seen.add(node)
            node = entries[node]
    return count


@dataclass
class DeclaredInjection:
    """A partial injection with declared cycles, rays and one long line,
    plus the component shapes the benchmark planted."""

    entries: dict
    oracle: dict  # member -> (kind name, offset)
    shapes: dict  # kind name -> component count
    members: int


def declared_injection(rng: random.Random, line_length: int = 4000) -> DeclaredInjection:
    lengths = [("cycle", rng.randrange(2, 13)) for _ in range(200)]
    lengths += [("ray", rng.randrange(5, 31)) for _ in range(100)]
    lengths.append(("line", line_length))
    total = sum(n for _, n in lengths)
    ids = rng.sample(range(10 * total), total)
    entries, oracle = {}, {}
    at = 0
    for kind, n in lengths:
        members = ids[at : at + n]
        at += n
        for a, b in zip(members, members[1:]):
            entries[a] = b
        if kind == "cycle":
            entries[members[-1]] = members[0]
            shift = rng.randrange(n)
            for i, m in enumerate(members):
                oracle[m] = ("cycle", (i + shift) % n)
        elif kind == "ray":
            base = rng.randrange(0, 4)
            for i, m in enumerate(members):
                oracle[m] = ("ray", base + i)
        else:
            base = -rng.randrange(n)
            for i, m in enumerate(members):
                oracle[m] = ("line", base + i)
    shapes = {"cycle": 200, "ray": 100, "line": 1}
    return DeclaredInjection(entries, oracle, shapes, total)


def _embedding_node(title: str, sigma, cert, components_expected: dict) -> certificates.CertNode:
    """The benchmark's own known-answer checks on an embedding."""
    node = certificates.CertNode(title)
    kinds = {}
    for comp in cert.components:
        kinds[comp.kind.value] = kinds.get(comp.kind.value, 0) + 1
    node.check("component shapes match the planted ones", kinds == components_expected,
               f"{kinds} vs {components_expected}")
    node.check("every edge checked for conjugacy",
               cert.checked_edges == len(sigma.entries), f"{cert.checked_edges}")
    node.check("relabel covers every node", len(cert.relabel) == len(sigma.nodes()))
    return node


def _round_trip(sigma):
    text = injections.dump_injection(sigma)
    back = injections.load_injection(text)
    same = back.entries == sigma.entries and {
        m: (e.kind, e.offset) for m, e in back.component_oracle.items()
    } == {m: (e.kind, e.offset) for m, e in sigma.component_oracle.items()}
    return back, same


def l1_jobs(seed: int, smoke: bool = False) -> list[Job]:
    rng = _rng(seed, "matrices")
    matrices = [
        (name, kind, conjugate(mat, rng)) for name, kind, mat in MATRIX_TEMPLATES
    ]
    perm = seeded_permutation(_rng(seed, "permutation"), PERMUTATION_SIZE)
    perm_cycles = cycle_count(perm)
    declared = declared_injection(_rng(seed, "declared"))
    bases = BASE_COUNTS[:1] if smoke else BASE_COUNTS
    jobs = []
    for name, kind, mat in matrices:
        rho = exact_norm(kind, mat)
        for base in bases:

            def run(name=name, kind=kind, mat=mat, rho=rho, base=base) -> Outcome:
                model = operator_l1.BanachModel(len(mat), operator_l1.NormKind[kind])
                enum = operator_l1.dense_orbit_enumeration(
                    model, model.matrix(mat), rho, base_count=base
                )
                root = certificates.CertNode(f"l1 factoring {name} base={base}")
                root.add(operator_l1.enumeration_certificate(enum))
                fmap = operator_l1.synthesize_factor_map(enum)
                root.add(
                    operator_l1.commutation_certificate(
                        fmap, rng=_rng(seed, f"outside/{name}/{base}")
                    )
                )
                # l1 coordinates a vector needs to reach every enumeration point
                span = max(fmap.layout_of.values()) + 1
                return Outcome(root, digest_render=root.render(), symbols=span)

            jobs.append(
                Job(
                    f"factor {name} base={base}",
                    run,
                    expect_pass,
                    series=name,
                    size=f"base={base}",
                    top=base == bases[-1],
                )
            )

    def permutation() -> Outcome:
        sigma = injections.PartialInjection(dict(perm))
        back, same = _round_trip(sigma)
        cert = injections.embed_injection(back)
        node = _embedding_node(
            f"embed {PERMUTATION_SIZE}-permutation", sigma, cert, {"cycle": perm_cycles}
        )
        node.check("dump/load round trip is exact", same)
        return Outcome(node)

    def declared_run() -> Outcome:
        oracle = {
            m: injections.OracleEntry(m, injections.ComponentType(k), off)
            for m, (k, off) in declared.oracle.items()
        }
        sigma = injections.PartialInjection(dict(declared.entries), oracle)
        back, same = _round_trip(sigma)
        cert = injections.embed_injection(back)
        node = _embedding_node("embed declared injection", sigma, cert, declared.shapes)
        node.check("dump/load round trip is exact", same)
        return Outcome(node)

    jobs.append(Job("embed permutation", permutation, expect_pass, series="injections",
                    size=f"n={PERMUTATION_SIZE}"))
    jobs.append(Job("embed declared injection", declared_run, expect_pass,
                    series="injections", size=f"n={declared.members}"))

    name, kind, mat = matrices[0]
    rho = exact_norm(kind, mat)
    low = rho - F(1, 64)

    def below_norm() -> Outcome:
        model = operator_l1.BanachModel(len(mat), operator_l1.NormKind[kind])
        operator_l1.dense_orbit_enumeration(model, model.matrix(mat), low, base_count=bases[-1])
        return Outcome()

    # The witness is either the norm comparison or the first grid point whose
    # scaled image leaves the ball; the seed code reports the latter.
    rho_text = f"{low.numerator}/{low.denominator}"
    jobs.append(Job(f"refute rho={rho_text} below the norm", below_norm,
                    expect_raise(errors.NormBoundViolated,
                                 rf"rho = {re.escape(rho_text)} < exact norm"
                                 r"|leaves the unit ball at point \d+"),
                    negative=True))

    planted = {}

    def tampered() -> Outcome:
        model = operator_l1.BanachModel(len(mat), operator_l1.NormKind[kind])
        enum = operator_l1.dense_orbit_enumeration(model, model.matrix(mat), rho, base_count=bases[-1])
        fmap = operator_l1.synthesize_factor_map(enum)
        pick = _rng(seed, "tamper")
        domain = sorted(enum.sigma.entries)
        victim = pick.choice(domain)
        # point the victim's basis vector at a different enumeration point
        other = next(i for i in domain if enum.value(i) != enum.value(victim))
        fmap.enum_of[fmap.layout_of[victim]] = other
        preds = [i for i, j in enum.sigma.entries.items() if j == victim]
        planted["witnesses"] = {fmap.layout_of[i] for i in [victim, *preds]}
        return Outcome(operator_l1.commutation_certificate(fmap))

    def names_planted(detail: str) -> bool:
        m = re.search(r"first witness layout index (\d+)", detail)
        return m is not None and int(m.group(1)) in planted["witnesses"]

    jobs.append(Job("refute tampered factor map", tampered,
                    expect_fail(re.escape("exact commutation on every covered basis index"),
                                names_planted),
                    negative=True))
    return jobs


# === lift-extend ===

EXTENSION_DEPTHS = (4, 8, 12)
LIFT_RESOLUTIONS = (8, 16)
EXTENSION_SAMPLES = 12
LIFT_SAMPLES = 6


def extension_pieces():
    ci, cc = covers.interval_system(), covers.circle_system()
    return [
        families.finite_map_family(
            ci,
            [
                pointmaps.affine_map(F(1, 4), F(1, 2)),
                pointmaps.affine_map(F(1, 3), F(1, 3)),
                pointmaps.tent_map(),
            ],
            "interval-maps",
        ),
        families.finite_map_family(
            cc,
            [pointmaps.rotation_map(F(1, 3)), pointmaps.rotation_map(F(2, 7))],
            "circle-rotations",
        ),
    ]


def contractions():
    return [pointmaps.affine_map(F(1, 4), F(1, 2)), pointmaps.affine_map(F(1, 3), F(1, 3))]


PACKED = re.compile(r"(\d+) output positions need (\d+) input positions")


def packed_input(cert) -> Optional[int]:
    for child in cert.children:
        if child.title == "packed sizes":
            return int(PACKED.search(child.detail).group(2))
    return None


def rotation_drift(witness) -> bool:
    """Re-check a rotation-family drift witness with exact arithmetic."""
    q0, q1, steps, x, gap = witness
    a0 = sum(F(b, 2 ** (i + 2)) for i, b in enumerate(q0))
    a1 = sum(F(b, 2 ** (i + 2)) for i, b in enumerate(q1))
    d = (steps * (a0 - a1)) % 1
    return q0[:-1] == q1[:-1] and min(d, 1 - d) == gap and gap >= F(1, 4)


def lift_jobs(seed: int, smoke: bool = False) -> list[Job]:
    jobs = []
    depths = EXTENSION_DEPTHS[:1] if smoke else EXTENSION_DEPTHS
    for depth in depths:

        def run(depth=depth) -> Outcome:
            ext = families.common_extension_baire(extension_pieces())
            cert = ext.certificate(depth, EXTENSION_SAMPLES, _rng(seed, f"ext/{depth}"))
            return Outcome(cert, digest_render=cert.render(), symbols=packed_input(cert))

        jobs.append(Job(f"common extension depth={depth}", run, expect_pass,
                        series="common-extension", size=f"depth={depth}",
                        top=depth == depths[-1]))

    resolutions = LIFT_RESOLUTIONS[:1] if smoke else LIFT_RESOLUTIONS
    self_maps = (
        ("square", covers.interval_system, pointmaps.squaring_map),
        ("tent", covers.interval_system, pointmaps.tent_map),
        ("rot(2/7)", covers.circle_system, lambda: pointmaps.rotation_map(F(2, 7))),
    )
    for label, system, make in self_maps:
        for res in resolutions:

            def run(system=system, make=make, res=res, label=label) -> Outcome:
                lifted = lifting.lift_self_map(system(), make())
                cert = lifted.certificate(res, LIFT_SAMPLES, _rng(seed, f"lift/{label}/{res}"),
                                          exact_samples=2)
                return Outcome(cert, digest_render=cert.render())

            jobs.append(Job(f"lift {label} resolution={res}", run, expect_pass,
                            series=f"lift {label}", size=f"resolution={res}"))

    def step128() -> Outcome:
        lifted = lifting.lift_self_map(covers.interval_system(), pointmaps.squaring_map())
        rng = _rng(seed, "step")
        w = tuple(rng.randrange(lifted.cs.child_arity(i + 1)) for i in range(128))
        half, full = lifted.transducer.step(w[:64]), lifted.transducer.step(w)
        node = certificates.CertNode("lift square step on 128 branch symbols")
        node.check("a longer input extends the output", full[: len(half)] == half)
        node.check("doubling the input determines more output", len(full) > len(half),
                   f"{len(half)} -> {len(full)}")
        return Outcome(node)

    def baire() -> Outcome:
        bl = lifting.baire_extension_map(
            lifting.DyadicIntervalPresentation(), pointmaps.parity_expansion_map()
        )
        cert = bl.certificate(8, 8, _rng(seed, "baire"))
        return Outcome(cert, digest_render=cert.render())

    def contractive() -> Outcome:
        model = families.contractive_common_extension(
            covers.interval_system(), contractions(), 6,
            [F(i, 16) for i in range(17)], F(1, 8), _rng(seed, "contractive"),
        )
        return Outcome(model.report, digest_render=model.report.render())

    def powers_contraction() -> Outcome:
        fam = families.finite_map_family(covers.interval_system(), contractions(), "contractions")
        pc = families.controlled_powers_check(fam, 8, 8, _rng(seed, "powers/contraction"))
        node = certificates.CertNode("contraction family powers")
        node.add(pc.report)
        node.check("status is certified with a schedule", pc.certified and len(pc.schedule) == 9)
        return Outcome(node)

    def powers_rotation() -> Outcome:
        fam = families.rotation_map_family(covers.circle_system())
        pc = families.controlled_powers_check(fam, 8, 16, _rng(seed, "powers/rotation"))
        node = certificates.CertNode("rotation family powers")
        node.check("status is falsified", pc.falsified, pc.status)
        node.check("drift witness re-checked exactly",
                   pc.witness is not None and rotation_drift(pc.witness), str(pc.witness))
        return Outcome(node)

    def universal() -> Outcome:
        lifted = families.family_lift(extension_pieces()[0])
        uni = families.universal_on_functions(lifted.transducers())
        cert = uni.certificate(8, 4, _rng(seed, "universal"))
        return Outcome(cert, digest_render=cert.render())

    jobs.append(Job("lift square step", step128, expect_pass, series="lift square step",
                    size="length=128"))
    jobs.append(Job("function-space universal", universal, expect_pass,
                    series="universal", size="depth=8"))
    jobs.append(Job("baire parity-expansion lift", baire, expect_pass, series="baire",
                    size="resolution=8"))
    jobs.append(Job("contractive common extension", contractive, expect_pass,
                    series="contractive", size="depth=6"))
    jobs.append(Job("powers: contraction family certified", powers_contraction, expect_pass,
                    series="powers", size="depth=8"))
    jobs.append(Job("powers: rotation family falsified", powers_rotation, expect_pass,
                    series="powers", size="depth=16"))

    # --- negative controls ---

    def weakened() -> Outcome:
        cs = covers.circle_system()
        lift = lifting.strong_extension_map(
            cs, pointmaps.weakened_family(pointmaps.rotation_family(cs), 8)
        )
        rng = _rng(seed, "weakened")
        q = tuple(rng.randrange(2) for _ in range(12))
        s = tuple(rng.randrange(cs.child_arity(i + 1)) for i in range(12))
        lift.prefix(q, s, 2)
        return Outcome()

    def lipschitz() -> Outcome:
        slope = F(1, 2)
        liar = pointmaps.PointMap(
            geometry.IntervalSpace(), lambda cell: cell, "liar", lipschitz=F(1, 4),
            point_fn=lambda x: F(1, 4) + slope * x,
        )
        families.contractive_common_extension(
            covers.interval_system(), [liar], 4, [F(i, 8) for i in range(9)], F(1, 4),
            _rng(seed, "lipschitz"),
        )
        return Outcome()

    def coarse_net() -> Outcome:
        families.contractive_common_extension(
            covers.interval_system(), contractions(), 4, [F(0), F(1)], F(1, 64),
            _rng(seed, "net"),
        )
        return Outcome()

    top_depth = depths[-1]

    def tampered() -> Outcome:
        pieces = extension_pieces()
        ext = families.common_extension_baire(pieces)
        # swap in a lifted map the packed machine does not run
        wrong = lifting.lift_self_map(pieces[0].cover, pointmaps.affine_map(F(1, 2), F(1, 4)))
        members = list(ext.lifted[0].members)
        members[1] = wrong
        ext.lifted = (families.LiftedFamily(pieces[0], tuple(members)), *ext.lifted[1:])
        return Outcome(ext.certificate(top_depth, 2, _rng(seed, "tampered")))

    jobs.append(Job("refute weakened rotation family", weakened,
                    expect_raise(errors.NoCell, r"region at .* is wider than"), negative=True))
    jobs.append(Job("refute understated Lipschitz constant", lipschitz,
                    expect_raise(errors.LipschitzRefuted, r"exceeds .* at x = "), negative=True))
    jobs.append(Job("refute coarse net", coarse_net,
                    expect_raise(errors.NetTooCoarse, r"net misses the space at scale 1/64"),
                    negative=True))
    jobs.append(Job(
        "refute tampered pipeline member", tampered,
        expect_fail(
            re.escape("piece 0 member 1 [affine(1/2+1/4x)]: projection of the packed "
                      f"step equals the lifted step to depth {top_depth}"),
            lambda detail: detail == "2 disagreeing samples",
        ),
        negative=True,
    ))
    return jobs


def build_jobs(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    if workload == "cover-ladder":
        return cover_jobs(seed, smoke)
    if workload == "factor-l1":
        return l1_jobs(seed, smoke)
    if workload == "lift-extend":
        return lift_jobs(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")
