"""Uniformly continuous maps presented at the cell level.

A point map is a self-map of one of the shipped compact spaces given by an
image-region rule: a closed cell goes to a closed cell containing the image
of every point inside it.  Uniform continuity is made effective through a
modulus: for any positive width there is an input level whose cells all
produce regions at most that wide.  Regions must shrink under cell
refinement; that is what lets branch-by-branch constructions refine their
answers without backtracking.

Parameterized families add a binary parameter stream read alongside the
branch word, and Polish point maps drop the uniform modulus entirely: they
map unbounded-alphabet branch words to regions that narrow along every
branch, at a rate the branch itself reveals.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import CertificationError, InvalidBranch, SpaceMismatch
from .geometry import (
    BaireStreamSpace,
    CantorSpace,
    Cell,
    CircleSpace,
    FiniteMetricSpace,
    IntervalSpace,
    ProductSpace,
    Space,
    _reduced,
    least_dyadic_level,
)
from .transducers import CANTOR, PrefixTransducer

F = Fraction

Word = tuple[int, ...]


@dataclass(frozen=True)
class PointMap:
    """A self-map presented by its action on closed cells.

    ``region_fn`` must be sound (the region contains the image of every
    point of the input cell) and monotone (finer cells give smaller
    regions).  The modulus either comes from an explicit rule or from a
    rational Lipschitz bound combined with the fact that level-m cells
    have diameter below 2^-m.
    """

    space: Space
    region_fn: Callable[[Cell], Cell]
    name: str = "map"
    lipschitz: Optional[Fraction] = None
    point_fn: Optional[Callable] = None
    modulus_fn: Optional[Callable[[Fraction], int]] = None

    def image_region(self, cell: Cell) -> Cell:
        return self.region_fn(cell)

    def point(self, x):
        if self.point_fn is None:
            raise CertificationError(f"{self.name} carries no exact point rule")
        return self.point_fn(x)

    def modulus(self, width: Fraction) -> int:
        """A level whose cells all map into regions at most this wide."""
        if width <= 0:
            raise CertificationError("modulus needs a positive width")
        if self.modulus_fn is not None:
            m = self.modulus_fn(width)
        else:
            if self.lipschitz is None:
                raise CertificationError(
                    f"{self.name} has neither a modulus rule nor a Lipschitz bound"
                )
            m = least_dyadic_level(width / self.lipschitz) if self.lipschitz > 0 else 0
        if m < 0:
            raise CertificationError(f"negative modulus for {self.name}")
        return m


def identity_map(space: Space) -> PointMap:
    return PointMap(space, lambda cell: cell, "id", lipschitz=F(1), point_fn=lambda x: x)


def piecewise_affine_map(knots: Iterable[tuple], name: str) -> PointMap:
    """The map of the unit interval through rational knots (x, y), affine
    between neighbours: x runs strictly upward from 0 to 1 and y stays in
    [0, 1].  A cell's region spans the values at its hull's ends and at the
    knots strictly inside it; the Lipschitz bound is the steepest slope.
    The rules run on integers: knot x numerators over their least common
    denominator X, and slopes, offsets and knot values over theirs, Y, all
    scaled once here."""
    knots = tuple((F(x), F(y)) for x, y in knots)
    xs, ys = tuple(x for x, _ in knots), tuple(y for _, y in knots)
    if len(xs) < 2 or xs[0] != 0 or xs[-1] != 1 or any(a >= b for a, b in zip(xs, xs[1:])):
        raise CertificationError(
            f"{name}: knot x values {', '.join(map(str, xs))} "
            "do not run strictly upward from 0 to 1"
        )
    if not all(0 <= y <= 1 for y in ys):
        raise CertificationError(f"{name}: knot values {', '.join(map(str, ys))} leave [0, 1]")
    slopes = tuple((y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))
    offsets = tuple(y - slope * x for x, y, slope in zip(xs, ys, slopes))
    X = lcm(*(x.denominator for x in xs))
    Y = lcm(*(v.denominator for v in ys + slopes + offsets))
    knot_xs = [int(x * X) for x in xs]
    knot_ys, slope_ns, offset_ns = ([int(v * Y) for v in vs] for vs in (ys, slopes, offsets))
    pieces = len(slopes)
    space = IntervalSpace()

    def piece(n: int, d: int) -> int:
        # the piece holding n/d: an integer knot numerator is <= n/d * X
        # exactly when it is <= its floor
        return bisect_right(knot_xs, n * X // d, 1, pieces) - 1

    def point(x):
        i = piece(x.numerator, x.denominator)
        return offsets[i] + slopes[i] * x

    def region(cell: Cell) -> Cell:
        # values at a/d are offset + slope * a/d, numerators over Y * d
        a, b, d = cell
        a, b = max(a, 0), min(b, d)
        i, j = piece(a, d), piece(b, d)
        ya, yb = offset_ns[i] * d + slope_ns[i] * a, offset_ns[j] * d + slope_ns[j] * b
        lo, hi = (ya, yb) if ya <= yb else (yb, ya)
        # knots i + 1 .. j lie in (a, b]; a knot at b adds only its own value
        for k in range(i + 1, j + 1):
            y = knot_ys[k] * d
            lo, hi = min(lo, y), max(hi, y)
        return _reduced(lo, hi, Y * d)

    return PointMap(space, region, name, lipschitz=max(map(abs, slopes)), point_fn=point)


def affine_map(offset, slope) -> PointMap:
    """x -> offset + slope * x on the unit interval; the image must stay
    inside [0, 1]."""
    offset, slope = F(offset), F(slope)
    return piecewise_affine_map(
        ((0, offset), (1, offset + slope)), f"affine({offset}+{slope}x)"
    )


def squaring_map() -> PointMap:
    space = IntervalSpace()

    def region(cell: Cell) -> Cell:
        a, b, d = cell
        return _reduced(max(a, 0) ** 2, min(b, d) ** 2, d * d)

    return PointMap(space, region, "square", lipschitz=F(2), point_fn=lambda x: x * x)


def tent_map() -> PointMap:
    return piecewise_affine_map(((0, 0), (F(1, 2), 1), (1, 0)), "tent")


def rotation_map(angle) -> PointMap:
    angle = F(angle) % 1
    p, q = angle.numerator, angle.denominator
    space = CircleSpace()

    def region(cell: Cell) -> Cell:
        # the arc moved by p/q, over d * q; the whole circle stays whole
        s, l, d = cell
        if l >= d:
            return space.whole()
        return _reduced((s * q + p * d) % (d * q), l * q, d * q)

    return PointMap(
        space,
        region,
        f"rot({angle})",
        lipschitz=F(1),
        point_fn=lambda x: (x + angle) % 1,
    )


def stream_map(
    machine: PrefixTransducer, point_fn: Optional[Callable] = None
) -> PointMap:
    """Self-map of the binary stream space driven by a prefix transducer;
    cylinders map to the cylinder of the transduced prefix."""
    if machine.domain != CANTOR or machine.codomain != CANTOR:
        raise SpaceMismatch(f"{machine.name} is not a binary stream self-map")
    space = CantorSpace()

    def region(cell: Cell) -> Cell:
        return tuple(machine.step(tuple(cell)))

    def modulus(width: Fraction) -> int:
        # level-n cylinders have diameter 2^-(n+1)
        return machine.modulus(max(0, least_dyadic_level(width) - 1))

    return PointMap(space, region, machine.name, point_fn=point_fn, modulus_fn=modulus)


def table_map(space: FiniteMetricSpace, images: Sequence[int]) -> PointMap:
    images = tuple(images)
    if len(images) != space.size or not all(0 <= y < space.size for y in images):
        raise CertificationError(f"image table {images} does not fit the space")

    def region(cell: Cell) -> Cell:
        return tuple(sorted({images[i] for i in cell}))

    return PointMap(
        space,
        region,
        f"table{images}",
        point_fn=lambda x: images[x],
        # level-1 cells are singletons, so their regions are singletons too
        modulus_fn=lambda width: 1,
    )


def product_map(left: PointMap, right: PointMap) -> PointMap:
    space = ProductSpace(left.space, right.space)

    def region(cell: Cell) -> Cell:
        return (left.image_region(cell[0]), right.image_region(cell[1]))

    point_fn = None
    if left.point_fn is not None and right.point_fn is not None:
        point_fn = lambda xy: (left.point(xy[0]), right.point(xy[1]))

    return PointMap(
        space,
        region,
        f"{left.name}*{right.name}",
        point_fn=point_fn,
        modulus_fn=lambda width: max(left.modulus(width), right.modulus(width)),
    )


# === parameterized families ===


@dataclass(frozen=True)
class ParameterizedFamily:
    """A map into a space read off two finite words at once: a binary
    parameter prefix and a branch prefix.  ``modulus_fn`` turns a width
    into the pair of prefix lengths that pins the region below it."""

    space: Space
    region_fn: Callable[[Word, Word], Cell]
    modulus_fn: Callable[[Fraction], tuple]
    name: str = "family"

    def region(self, q: Sequence[int], s: Sequence[int]) -> Cell:
        return self.region_fn(tuple(q), tuple(s))

    def moduli(self, width: Fraction) -> tuple:
        if width <= 0:
            raise CertificationError("modulus needs a positive width")
        l, m = self.modulus_fn(width)
        if l < 0 or m < 0:
            raise CertificationError(f"negative moduli for {self.name}")
        return l, m


def family_from_map(cover_system, point_map: PointMap) -> ParameterizedFamily:
    """The parameter-free family tracking a point map along branch cells."""
    if point_map.space != cover_system.space:
        raise SpaceMismatch(
            f"{point_map.name} does not act on the {cover_system.name} space"
        )

    def region(q: Word, s: Word) -> Cell:
        return point_map.image_region(cover_system.v_cell(s))

    return ParameterizedFamily(
        cover_system.space,
        region,
        lambda width: (0, point_map.modulus(width)),
        name=point_map.name,
    )


def _rotation_angle(q: Sequence[int]) -> Fraction:
    """The rotation a binary parameter word names: sum of q_i * 2^-(i+2)."""
    for b in q:
        if b not in (0, 1):
            raise InvalidBranch(f"rotation parameter symbol {b} is not binary")
    return sum(F(b, 2 ** (i + 2)) for i, b in enumerate(q))


def rotation_family(cover_system) -> ParameterizedFamily:
    """Circle rotations indexed by a binary parameter stream: the angle
    `_rotation_angle(q)` is known to width 2^-(len(q)+1) from a prefix."""
    space = cover_system.space
    if not isinstance(space, CircleSpace):
        raise SpaceMismatch("rotation family needs the circle")

    def region(q: Word, s: Word) -> Cell:
        width = F(1, 2 ** (len(q) + 1))
        start, length, d = cover_system.v_cell(s)
        return space.arc(F(start, d) + _rotation_angle(q), F(length, d) + width)

    def moduli(width: Fraction) -> tuple:
        m = least_dyadic_level(width / 2)
        return max(0, m - 1), m

    return ParameterizedFamily(space, region, moduli, "rotation-family")


def weakened_family(family: ParameterizedFamily, factor) -> ParameterizedFamily:
    """Deliberately under-read prefixes: moduli are taken for a width
    several times larger than requested.  Lifting such a family must fail
    with a diagnosable error rather than a wrong answer."""
    factor = F(factor)
    if factor <= 1:
        raise CertificationError("weakening factor must exceed 1")
    return ParameterizedFamily(
        family.space,
        family.region_fn,
        lambda width: family.modulus_fn(width * factor),
        f"{family.name}-weakened",
    )


# === maps out of Polish branch spaces ===


@dataclass(frozen=True)
class PolishPointMap:
    """A map from unbounded-alphabet branch words into a target space,
    with no uniform modulus: the image region narrows along every branch,
    but how fast is only discovered by reading the branch."""

    target: Any
    region_fn: Callable[[Word], Cell]
    name: str = "polish-map"

    def region(self, word: Sequence[int]) -> Cell:
        return self.region_fn(tuple(word))


def baire_identity_map() -> PolishPointMap:
    return PolishPointMap(BaireStreamSpace(), lambda w: tuple(w), "id")


def parity_expansion_map() -> PolishPointMap:
    """Binary expansion read off the parities of the input symbols."""
    space = IntervalSpace()

    def region(w: Word) -> Cell:
        low = 0
        for b in w:
            low = 2 * low + b % 2
        return space.cell(F(low, 2 ** len(w)), F(low + 1, 2 ** len(w)))

    return PolishPointMap(space, region, "parity-expansion")


def constant_interval_map(value) -> PolishPointMap:
    value = F(value)
    if not 0 <= value <= 1:
        raise CertificationError("constant value outside the unit interval")
    cell = IntervalSpace().point_cell(value)
    return PolishPointMap(IntervalSpace(), lambda w: cell, f"const({value})")
