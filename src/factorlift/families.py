"""Lifting whole families of maps to one universal system.

Escalating constructions.  A finite family of self-maps of a compact space
becomes a family of branch transducers (family_lift, which refuses
parameterized families).  Finitely many self-transducers of one stream
space pack into a single coordinatewise map whose evaluation projections
intertwine exactly (universal_on_functions).  Mixed families over
different compact spaces chain both stages into one transducer over
unbounded branching (common_extension_baire), with one composed factor
pipeline per requested member.  For families of uniform contractions the
function-space picture compresses to a finite tabulated model with an
adjoined limit row (contractive_common_extension); controlled_powers_check
separates the families where that compression is sound from those where
sampling refutes it, rotations being the standard refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from .certificates import CertNode, refuse_negative
from .covers import CoverSystem, _class_levels
from .errors import (
    CertificationError,
    EmptyFamily,
    LipschitzRefuted,
    NetTooCoarse,
    SpaceMismatch,
)
from .geometry import least_dyadic_level
from .lifting import LiftedSelfMap, lift_self_map
from .pointmaps import (
    ParameterizedFamily,
    PointMap,
    _rotation_angle,
    rotation_family,
    rotation_map,
)
from .transducers import (
    BAIRE,
    PrefixTransducer,
    ProductLift,
    Word,
    compose_transducers,
    extract_stream,
    pack_streams,
    product_lift,
    stream_width,
)

F = Fraction


# === families of self-maps ===


@dataclass(frozen=True)
class MapFamily:
    """A family of self-maps of one compact space: an explicit finite list
    of point maps, or a parameter-indexed region rule.

    ``map_at`` optionally evaluates a parameter word to a concrete point
    map; orbit-level checks need it, region-level lifting does not.  A
    uniform Lipschitz constant is derived from finite members when every
    one declares a bound.
    """

    cover: CoverSystem
    members: tuple = ()
    family: Optional[ParameterizedFamily] = None
    map_at: Optional[Callable[[Word], PointMap]] = None
    lipschitz: Optional[Fraction] = None
    name: str = "family"

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if self.members and self.family is not None:
            raise CertificationError(
                f"{self.name}: a family is finite or parameterized, not both"
            )
        if not self.members and self.family is None:
            raise EmptyFamily(f"{self.name} has no members")
        space = self.cover.space
        for piece in self.members or (self.family,):
            if piece.space != space:
                raise SpaceMismatch(
                    f"{piece.name} lives on {piece.space.kind}, the cover system on "
                    f"{space.kind} ({piece.space!r} against {space!r})"
                )
        if self.map_at is not None and self.family is None:
            raise CertificationError(
                f"{self.name}: parameter evaluation needs the parameterized form"
            )
        if self.lipschitz is None and self.members:
            bounds = [pm.lipschitz for pm in self.members]
            if all(b is not None for b in bounds):
                object.__setattr__(self, "lipschitz", max(bounds))

    @property
    def finite(self) -> bool:
        return bool(self.members)


def finite_map_family(cover: CoverSystem, members, name: str = "family") -> MapFamily:
    return MapFamily(cover, members=tuple(members), name=name)


def rotation_map_family(cover: CoverSystem) -> MapFamily:
    """All circle rotations, indexed by binary parameter words."""

    return MapFamily(
        cover,
        family=rotation_family(cover),
        map_at=lambda q: rotation_map(_rotation_angle(q)),
        lipschitz=F(1),
        name="rotations",
    )


# === stage one: lift each member ===


@dataclass
class LiftedFamily:
    """The branch-transducer form of a finite map family, member by member."""

    source: MapFamily
    members: tuple

    def transducers(self) -> list:
        return [m.transducer for m in self.members]


def family_lift(fam: MapFamily) -> LiftedFamily:
    """Rewrite every member of a finite family over the family's cover
    system.  Each lifted member projects back to the original map, which is
    exactly what its `LiftedSelfMap.certificate` re-checks.  A parameterized
    family is refused: it has no member list to lift."""
    if not fam.finite:
        raise CertificationError(f"{fam.name}: pipeline pieces must be finite families")
    return LiftedFamily(fam, tuple(lift_self_map(fam.cover, pm) for pm in fam.members))


# === stage two: the universal map on function tuples ===


def _sample_word(profile: Sequence[Optional[int]], rng) -> Word:
    """Random symbols fitting an arity profile (`arities(length)` of the
    space); unbounded levels draw from 0..5."""
    return tuple(rng.randrange(a if a is not None else 6) for a in profile)


def _sample_diagrams(machine, in_len, out_len, resolution, samples, rng, coords):
    """Step a packed machine on `samples` drawn words of length `in_len`
    and compare each coordinate's diagram to depth `resolution`.

    A coordinate is (path, member): its path of component indices, (n,) or
    (i, j), leads from the packed word to the member's stream.  Returns the
    lengths of the runs shorter than `out_len`, the count of disagreeing
    samples per path, and the last full (z, out) or None.

    Each z holds only the member streams, drawn at full width below `in_len`
    from each member's own alphabet in coordinate order and packed along
    their paths; every other position reads 0, a symbol of every alphabet,
    so z goes straight to `step_fn`.  Zero tails move no compared value: the
    packed step is componentwise (the transducer tests' positionwise-walk law).
    """
    refuse_negative(machine.name, "resolution", resolution)
    refuse_negative(machine.name, "samples", samples)

    def draw(coords, length):
        if coords and not coords[0][0]:
            return _sample_word(coords[0][1].domain.arities(length), rng)
        return pack_streams([
            draw([(p[1:], f) for p, f in coords if p[0] == n], stream_width(n, length))
            for n in range(max((p[0] + 1 for p, _ in coords), default=0))
        ], length)

    short, bad, last = [], {path: 0 for path, _ in coords}, None
    for _ in range(samples):
        z = draw(coords, in_len)
        out = machine.step_fn(z)
        if len(out) < out_len:
            short.append(len(out))
            continue
        last = (z, out)
        for path, member in coords:
            arg, lhs = z, out
            for n in path:
                arg, lhs = extract_stream(arg, n), extract_stream(lhs, n)
            rhs = member.step(arg)
            if min(len(lhs), len(rhs)) < resolution or lhs[:resolution] != rhs[:resolution]:
                bad[path] += 1
    return short, bad, last


@dataclass
class FunctionSpaceUniversal:
    """z -> (S(z(S)))_S on packed tuples of streams.

    With finitely many maps the function space collapses to the finite
    power of the stream space, so the universal map is the coordinatewise
    product and every evaluation projection intertwines it with its member
    exactly, symbol for symbol.
    """

    members: tuple
    product: ProductLift

    @property
    def machine(self) -> PrefixTransducer:
        return self.product.lift

    def projection(self, n: int) -> PrefixTransducer:
        return self.product.projection(n)

    def constant_tuple(self, u: Sequence[int]) -> Word:
        """The tuple holding u at every member: the standard surjectivity
        witness for the projections."""
        return pack_streams([tuple(u)] * len(self.members))

    def certificate(self, resolution: int, samples: int, rng) -> CertNode:
        node = CertNode(
            f"function-space universal over {len(self.members)} maps "
            f"to depth {resolution}"
        )
        m = len(self.members)
        out_len = max(self.projection(n).modulus(resolution) for n in range(m))
        in_len = self.machine.modulus(out_len)
        node.note(
            "packed sizes",
            f"{out_len} output positions need {in_len} input positions",
        )
        coords = [((n,), member) for n, member in enumerate(self.members)]
        short, bad, _ = _sample_diagrams(
            self.machine, in_len, out_len, resolution, samples, rng, coords
        )
        node.check(
            f"packed step determines {out_len} positions on {samples} samples",
            not short,
            f"shortest run {min(short)}" if short else "",
        )
        sec = node.section("evaluation projections intertwine exactly")
        for n, member in enumerate(self.members):
            sec.check(
                f"coordinate {n} [{member.name}] agrees symbol-for-symbol "
                f"to depth {resolution}",
                not bad[(n,)],
                f"{bad[(n,)]} disagreeing samples" if bad[(n,)] else "",
            )
        surj = node.section("projections are onto: constant tuples")
        misses = 0
        profile = self.members[0].domain.arities(resolution + m + 2)
        for _ in range(samples):
            u = _sample_word(profile, rng)
            z = self.constant_tuple(u)
            for n in range(m):
                if extract_stream(z, n)[:resolution] != u[:resolution]:
                    misses += 1
        surj.check(
            f"every coordinate of a constant tuple reads back its value "
            f"to depth {resolution}",
            misses == 0,
            f"{misses} misses" if misses else "",
        )
        return node


def universal_on_functions(members: Sequence[PrefixTransducer]) -> FunctionSpaceUniversal:
    members = tuple(members)
    if not members:
        raise EmptyFamily("the function-space construction needs at least one map")
    # the constant-tuple witness draws every coordinate from one space
    if any(f.domain != members[0].domain for f in members):
        raise SpaceMismatch("all lifted maps must live on one space")
    return FunctionSpaceUniversal(members, product_lift(list(members)))


# === stage three: one extension for mixed families ===


@dataclass(frozen=True)
class MemberFactor:
    """End-to-end factor data for one member of a pipeline: the composed
    projection from the big packed space down to the member's branch
    space, plus the lifted member it must intertwine with."""

    piece_index: int
    member_index: int
    lifted: LiftedSelfMap
    projection: PrefixTransducer


@dataclass
class CommonExtension:
    """The composed pipeline: lift each piece, pack each lifted piece, pack
    the pieces.  Every requested member factors through projections whose
    diagrams are exact, then through its cover system's branch map."""

    pieces: tuple
    lifted: tuple
    universals: tuple
    product: ProductLift
    machine: PrefixTransducer

    def factor(self, piece_index: int, member_index: int) -> MemberFactor:
        if not 0 <= piece_index < len(self.lifted):
            raise CertificationError(f"no piece {piece_index} among {len(self.lifted)}")
        if not 0 <= member_index < len(self.lifted[piece_index].members):
            raise CertificationError(f"piece {piece_index} has no member {member_index}")
        inner = self.universals[piece_index].projection(member_index)
        outer = self.product.projection(piece_index)
        return MemberFactor(
            piece_index,
            member_index,
            self.lifted[piece_index].members[member_index],
            compose_transducers(inner, outer),
        )

    def member_factors(self) -> list:
        return [
            self.factor(i, j)
            for i, lf in enumerate(self.lifted)
            for j in range(len(lf.members))
        ]

    def certificate(self, resolution: int, samples: int, rng) -> CertNode:
        node = CertNode(f"common extension pipeline to depth {resolution}")
        shape = ", ".join(
            f"{fam.name}({len(lf.members)})"
            for fam, lf in zip(self.pieces, self.lifted)
        )
        node.note("pieces", shape)
        factors = self.member_factors()
        out_len = max(mf.projection.modulus(resolution) for mf in factors)
        in_len = self.machine.modulus(out_len)
        node.note(
            "packed sizes",
            f"{out_len} output positions need {in_len} input positions",
        )
        coords = [
            ((i, j), member.transducer)
            for i, lf in enumerate(self.lifted)
            for j, member in enumerate(lf.members)
        ]
        short, bad, last = _sample_diagrams(
            self.machine, in_len, out_len, resolution, samples, rng, coords
        )
        node.check(
            f"packed evaluation determines {out_len} positions on "
            f"{samples} samples",
            not short,
            f"{len(short)} short runs" if short else "",
        )
        sec = node.section("member diagrams, projection level: exact")
        for i, lf in enumerate(self.lifted):
            for j, member in enumerate(lf.members):
                sec.check(
                    f"piece {i} member {j} [{member.point_map.name}]: "
                    f"projection of the packed step equals the lifted step "
                    f"to depth {resolution}",
                    not bad[(i, j)],
                    f"{bad[(i, j)]} disagreeing samples" if bad[(i, j)] else "",
                )
        if last is not None:
            z, out = last
            comp = node.section("composed factor maps agree with staged extraction")
            for mf in factors:
                direct = extract_stream(extract_stream(z, mf.piece_index), mf.member_index)
                comp.check(
                    f"piece {mf.piece_index} member {mf.member_index}: "
                    f"composed projection reproduces the coordinate",
                    mf.projection.step_fn(z) == direct,
                )
            ana = node.section(
                "member diagrams, point level: image regions land in the "
                "projected cells"
            )
            for i, lf in enumerate(self.lifted):
                zi, oi = extract_stream(z, i), extract_stream(out, i)
                for j, member in enumerate(lf.members):
                    zij, oij = extract_stream(zi, j), extract_stream(oi, j)
                    ana.check(
                        f"piece {i} member {j} [{member.point_map.name}]: "
                        f"slack-padded image region inside every located cell",
                        all(
                            member.lift.sound_at((), zij, oij, k)
                            for k in range(1, resolution + 1)
                        ),
                    )
        return node


def common_extension_baire(pieces: Sequence[MapFamily]) -> CommonExtension:
    """One self-transducer over unbounded branching extending every member
    of every finite piece.  Parameterized pieces must be sampled into
    finite ones first; each piece keeps its own cover system."""
    pieces = tuple(pieces)
    if not pieces:
        raise EmptyFamily("the common extension needs at least one piece")
    lifted = tuple(family_lift(p) for p in pieces)
    universals = tuple(universal_on_functions(lf.transducers()) for lf in lifted)
    prod = product_lift([u.machine for u in universals], tail_space=BAIRE)
    return CommonExtension(pieces, lifted, universals, prod, prod.lift)


# === contractions: fixed points and controlled powers ===


@dataclass(frozen=True)
class FixedPointResult:
    value: Any
    error_bound: Fraction


def _refute_lipschitz(point_map: PointMap, c: Fraction, rng, samples: int) -> None:
    space = point_map.space
    for _ in range(samples):
        x, y = space.sample_point(rng), space.sample_point(rng)
        gap = space.distance(x, y)
        if gap == 0:
            continue
        image_gap = space.distance(point_map.point(x), point_map.point(y))
        if image_gap > c * gap:
            raise LipschitzRefuted(
                f"{point_map.name}: d(S(x), S(y)) = {image_gap} exceeds "
                f"{c} * d(x, y) = {c * gap} at x = {x}, y = {y}"
            )


def contraction_fixed_point(
    point_map: PointMap,
    c,
    start,
    tol,
    rng,
) -> FixedPointResult:
    """Iterate a declared c-contraction from the point start until the
    Banach bound c^i * diam(X) / (1 - c) drops below tol.  The
    declaration is spot-checked on 32 sampled pairs first."""
    c, tol = F(c), F(tol)
    if not 0 < c < 1:
        raise CertificationError(
            "contraction constant must sit strictly between 0 and 1"
        )
    if tol <= 0:
        raise CertificationError("tolerance must be positive")
    space = point_map.space
    _refute_lipschitz(point_map, c, rng, 32)
    x = start
    bound = space.diam(space.whole()) / (1 - c)
    while bound > tol:
        x = point_map.point(x)
        bound *= c
    return FixedPointResult(x, bound)


@dataclass(frozen=True)
class PowersCertificate:
    """Whether iterating the family stays uniformly tame: an analytic bound
    schedule, a drift witness refuting one, or neither."""

    status: str
    schedule: tuple = ()
    witness: Optional[tuple] = None
    report: CertNode = None

    def __post_init__(self):
        if self.status not in ("certified", "falsified", "inconclusive"):
            raise CertificationError(f"unknown powers status {self.status!r}")
        for a, b in zip(self.schedule, self.schedule[1:]):
            if b > a:
                raise CertificationError("bound schedule must be nonincreasing")

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def falsified(self) -> bool:
        return self.status == "falsified"


def controlled_powers_check(
    fam: MapFamily, samples: int, depth: int, rng
) -> PowersCertificate:
    """Certify or refute uniform control of the power maps S -> S^i.

    Finite families are certified outright (convergence inside them is
    eventually constant); a declared contraction constant upgrades the
    certificate to the analytic schedule c^i * diam(X), re-checked on
    sampled orbits, so each probed member needs an exact point rule.
    Parameterized isometry-like families are attacked by drift search:
    parameters agreeing to length j whose orbits separate by 1/4 within
    the depth budget, at every tested j."""
    space = fam.cover.space
    diam = space.diam(space.whole())
    node = CertNode(f"controlled powers [{fam.name}] to depth {depth}")
    c = fam.lipschitz
    contractive = c is not None and c < 1
    if contractive:
        schedule = tuple(c ** i * diam for i in range(depth + 1))
        sec = node.section("sampled orbits against the analytic schedule")
        probes = (
            fam.members
            if fam.finite
            else [
                fam.map_at(tuple(rng.randrange(2) for _ in range(6)))
                for _ in range(3)
            ]
        )
        fp_tol = c ** depth * diam / 8
        for pm in probes:
            if pm.point_fn is None:
                raise CertificationError(f"{pm.name} carries no exact point rule")
            anchor = contraction_fixed_point(
                pm, c, space.witness_point(space.whole()), fp_tol, rng
            )
            worst = F(0)
            for _ in range(samples):
                x = space.sample_point(rng)
                for i in range(1, depth + 1):
                    x = pm.point(x)
                    slack = space.distance(x, anchor.value) - schedule[i]
                    worst = max(worst, slack)
            sec.check(
                f"{pm.name}: d(S^i(x), alpha) <= c^i * diam within the "
                f"fixed-point tolerance {anchor.error_bound}",
                worst <= anchor.error_bound,
                f"worst overshoot {worst}",
            )
        node.note("schedule", f"eps_i = {c}^i * {diam}, i <= {depth}")
        return PowersCertificate("certified", schedule, None, node)
    if fam.finite:
        reason = (
            "a single member iterates along one orbit"
            if len(fam.members) == 1
            else "convergent sequences inside a finite family are eventually constant"
        )
        node.note("certified without a schedule", reason)
        return PowersCertificate("certified", (), None, node)
    if fam.map_at is None:
        node.note(
            "inconclusive",
            "no contraction constant and no parameter evaluation to search",
        )
        return PowersCertificate("inconclusive", (), None, node)
    threshold = F(1, 4)
    deepest = depth.bit_length() - 1
    sec = node.section(
        f"orbit drift at every tested parameter scale (threshold {threshold})"
    )
    witness = None
    for j in range(1, max(deepest, 1) + 1):
        base = tuple(rng.randrange(2) for _ in range(j))
        q0, q1 = base + (0,), base + (1,)
        near, far = fam.map_at(q0), fam.map_at(q1)
        found = None
        for _ in range(samples):
            if found:
                break
            x = space.sample_point(rng)
            y0, y1 = x, x
            for i in range(1, depth + 1):
                y0, y1 = near.point(y0), far.point(y1)
                gap = space.distance(y0, y1)
                if gap >= threshold:
                    found = (q0, q1, i, x, gap)
                    break
        sec.check(
            f"parameters agreeing to length {j} drift by {threshold} "
            f"within {depth} steps",
            found is not None,
            f"step {found[2]}, gap {found[4]}" if found else "no drift found",
        )
        if found:
            witness = found
    if sec.ok:
        node.note(
            "falsified",
            "no bound schedule can hold: nearby members separate sampled orbits",
        )
        return PowersCertificate("falsified", (), witness, node)
    node.note(
        "inconclusive",
        "drift search found nothing and no analytic schedule applies",
    )
    return PowersCertificate("inconclusive", (), None, node)


# === the compact tabulated model for contraction families ===


def _act(members, values) -> tuple:
    """The universal action on a tabulated map: each member eats its own
    evaluation."""
    return tuple(pm.point(v) for pm, v in zip(members, values))


def _net_level(cs: CoverSystem, net, eps: Fraction):
    """Least tree level certifying that every cell sits within eps of the
    net: representative distance plus cell diameter, read once per cell
    class; the offender is the first worst cell in branch-word order.  From
    level 5 on, a representative farther than eps from the net, an exact
    witness of a miss, ends the walk; without one it runs to the least
    m >= 5 with 2^-m <= eps/2."""
    space = cs.space
    net = list(net)
    if not net:
        raise NetTooCoarse("an empty net covers nothing")
    for a in net:
        if not space.contains(space.whole(), a):
            raise CertificationError(f"net point {a} lies outside the space")
    top = max(5, least_dyadic_level(eps / 2))
    missed = False
    for k, (_, classes) in enumerate(_class_levels(cs, top), 1):
        worst = F(0)
        offender = None
        for s, _, cell, _ in classes:
            if cell is None:
                raise CertificationError(f"{cs.name}: empty cell at branch {s}")
            rep = space.witness_point(cell)
            gap = min(space.distance(rep, a) for a in net)
            missed = missed or gap > eps
            bound = gap + space.diam(cell)
            if bound > worst:
                worst, offender = bound, cell
        if worst <= eps:
            return k
        if missed and k >= 5:
            raise NetTooCoarse(
                f"net misses the space at scale {eps}: best certified bound "
                f"{worst} near {space.describe(offender)}"
            )
    raise NetTooCoarse(
        f"net not certified at scale {eps} by tree level {top}: best bound "
        f"{worst} near {space.describe(offender)}"
    )


@dataclass
class ContractiveModel:
    """Orbit rows of a contraction family over a finite net, with the
    fixed-point row adjoined: a finite model of the function space that
    the universal map keeps invariant up to the recorded defect."""

    cs: CoverSystem
    members: tuple
    net: tuple
    eps: Fraction
    depth: int
    c: Fraction
    rows: tuple
    alpha: tuple
    fp_tol: Fraction
    defect: Fraction
    alpha_defect: Fraction
    report: CertNode


def contractive_common_extension(
    cs: CoverSystem,
    members,
    depth: int,
    net,
    eps,
    rng,
) -> ContractiveModel:
    """Tabulate e_{i,a}: S -> S^i(a) for i <= depth over a certified eps-net,
    adjoin the fixed-point row, and certify the universal action on the
    result: exact shifts along orbit rows, a frontier snap onto the
    fixed-point row with defect at most c^depth * diam(X), and evaluation
    surjectivity at net scale."""
    fam = finite_map_family(cs, members)
    members, c = fam.members, fam.lipschitz
    for pm in members:
        if pm.point_fn is None:
            raise CertificationError(f"{pm.name} carries no exact point rule")
    if c is None or c >= 1:
        raise CertificationError(
            "every member needs a declared contraction constant below 1"
        )
    space = cs.space
    eps = F(eps)
    net = tuple(net)
    node = CertNode(
        f"tabulated contraction model: {len(members)} members, "
        f"depth {depth}, net of {len(net)} points"
    )
    for pm in members:
        _refute_lipschitz(pm, c, rng, 24)
    node.check(
        "declared constants survive 24 sampled pairs per member",
        True,
        f"c = {c}",
    )
    level = _net_level(cs, net, eps)
    node.check(
        f"net covers the space at scale {eps}",
        True,
        f"certified cell by cell at tree level {level}",
    )
    diam = space.diam(space.whole())
    m = len(members)
    rows = [tuple((a,) * m for a in net)]
    for _ in range(depth):
        rows.append(tuple(_act(members, values) for values in rows[-1]))
    fp_tol = (1 - c) * c ** depth * diam
    anchors = [
        contraction_fixed_point(pm, c, space.witness_point(space.whole()), fp_tol, rng)
        for pm in members
    ]
    alpha = tuple(anchor.value for anchor in anchors)
    exact = all(
        _act(members, rows[i][a]) == rows[i + 1][a]
        for i in range(depth)
        for a in range(len(net))
    )
    node.check(
        "universal action shifts every orbit row exactly",
        exact,
    )
    defect = max(
        space.distance(v, alpha[j])
        for values in rows[depth]
        for j, v in enumerate(_act(members, values))
    )
    node.check(
        f"frontier rows snap to the fixed-point row with defect <= "
        f"c^{depth} * diam = {c ** depth * diam}",
        defect <= c ** depth * diam,
        f"exact defect {defect}",
    )
    alpha_defect = max(
        space.distance(v, alpha[j]) for j, v in enumerate(_act(members, alpha))
    )
    node.check(
        f"fixed-point row is stable within (1 + c) * {fp_tol}",
        alpha_defect <= (1 + c) * fp_tol,
        f"exact defect {alpha_defect}",
    )
    onto = all(
        {values[j] for values in rows[0]} == set(net) for j in range(m)
    )
    node.check(
        f"evaluation at every member maps the model onto the net "
        f"(an eps-net at {eps})",
        onto,
    )
    return ContractiveModel(
        cs, members, net, eps, depth, c, tuple(rows), alpha, fp_tol, defect,
        alpha_defect, node,
    )
