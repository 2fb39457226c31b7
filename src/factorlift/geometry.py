"""Exact rational geometry for the shipped compact metric spaces.

Five space kinds: the unit interval, the circle R/Z, the binary-stream
space with metric 2^(-(i+1)) at first difference i, finite metric spaces
given by rational distance matrices, and binary products under the max
metric.  Every predicate is exact; no floats anywhere.

Cells are plain data interpreted by their space.  An interval cell is an
integer triple (a, b, d), the raw open interval (a/d, b/d), which the
predicates clamp to [0, 1]; a circle cell is a triple (s, l, d), the arc
from s/d in [0, 1) of length l/d.  Both are reduced, d > 0 and
gcd(a, b, d) = 1, so equal cells are equal tuples and hash alike.  The
whole interval is (-1, 2, 1) and the whole circle (0, 1, 1).  The shipped
self-map rules compute on a cell's integers and return `_reduced(...)`;
rules that compute in rationals return a cell through
`IntervalSpace.cell(lo, hi)` or `CircleSpace.arc(start, length)`.  Points
stay `Fraction`s, and `describe` prints the reduced fractions.  Stream
cells are cylinder words, finite cells are sorted index tuples, product
cells are pairs.  The same cell doubles as its own closure; predicates take
an open or closed reading as documented per method.

The interval and the circle share one dyadic mesh.  Its level-k cell j is
the open interval ((8j - 7)/D, (8j + 7)/D) with D = 2^(k+4): centre j/2^(k+1),
radius 7/8 of the spacing, so neighbours overlap, and 8j +- 7 is odd, so
the cell is born reduced.  Which cells meet a closed [a/d, b/d] is integer
floor division (`_mesh_span`); the circle takes the same indices on the
line and reduces them mod 2^(k+1).  The predicates compare integer
numerators over one common denominator, which `_scaled` finds for any
cells together with a rational radius or eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from .errors import CertificationError
from .transducers import Stream

F = Fraction

Cell = Any
Point = Any


def _scaled(cells, *xs) -> tuple[list[int], int]:
    """The end numerators of the interval or circle cells, then those of the
    rationals xs, all over their least common denominator d, and d.
    Scaling by d keeps order and sums, 1 reads d, and x mod 1 becomes the
    numerator mod d."""
    d = 1
    for cell in cells:
        d = math.lcm(d, cell[2])
    for x in xs:
        d = math.lcm(d, x.denominator)
    out = []
    for a, b, q in cells:
        m = d // q
        out += (a * m, b * m)
    for x in xs:
        out.append(x.numerator * (d // x.denominator))
    return out, d


def _reduced(a: int, b: int, d: int) -> tuple[int, int, int]:
    """(a, b, d) over d > 0 in lowest terms, gcd(a, b, d) = 1, so that
    equal cells are equal tuples."""
    g = math.gcd(a, b, d)
    return (a, b, d) if g == 1 else (a // g, b // g, d // g)


def _open_chain_cover(a: Fraction, b: Fraction, intervals) -> bool:
    """Closed [a, b] inside a union of open line intervals, by chaining.

    One sweep in order of left end: `best` is the largest right end among
    the intervals starting left of `reach`, and `reach` jumps to it while
    it exceeds `reach`; an interval starting at or past `reach` can only
    help once `reach` has moved beyond its start."""
    if a > b:
        return True
    reach, best = a, None
    for u, v in sorted(intervals):
        while u >= reach:
            if best is None or best <= reach:
                return False
            if best > b:
                return True
            reach = best
        best = v if best is None else max(best, v)
    return best is not None and best > reach and best > b


def _closed_chain_cover(a: Fraction, b: Fraction, intervals) -> bool:
    """Closed [a, b] inside a union of closed line intervals; the same
    sweep as `_open_chain_cover` with closed endpoints."""
    if a > b:
        return True
    if not any(p <= a <= q for p, q in intervals):
        return False
    reach, best = a, None
    # an interval holding a sorts before any with p > a, so best is set
    # before the first jump
    for p, q in sorted(intervals):
        while p > reach:
            if reach >= b:
                return True
            if best <= reach:
                return False
            reach = best
        best = q if best is None else max(best, q)
    return max(reach, best) >= b


def dyadic_level(radius: Fraction) -> int:
    """The count of levels i >= 0 with 2^(-(i+1)) >= radius: the symbols
    an open stream ball of this radius pins down."""
    if radius <= 0:
        raise CertificationError("dyadic level needs a positive radius")
    return max(0, (radius.denominator // radius.numerator).bit_length() - 1)


def least_dyadic_level(width: Fraction) -> int:
    """The least m >= 0 with 2^-m <= width: for width p/q that is the
    least m with 2^m >= ceil(q/p)."""
    width = F(width)
    if width <= 0:
        raise CertificationError("dyadic level needs a positive width")
    return (-(-width.denominator // width.numerator) - 1).bit_length()


def _mesh_span(a: int, b: int, d: int, k: int) -> tuple[int, int]:
    """The inclusive range lo..hi of the level-k mesh indices j whose cells
    meet the closed [a/d, b/d]: (8j - 7)/D < b/d and (8j + 7)/D > a/d,
    D = 2^(k+4); empty when lo > hi."""
    mesh = 1 << (k + 4)
    lo = (a * mesh - 7 * d) // (8 * d) + 1
    hi = -(-(b * mesh + 7 * d) // (8 * d)) - 1
    return lo, hi


def _mesh_cell(k: int, j: int) -> tuple[int, int, int]:
    """Level-k mesh cell j as an interval of the line."""
    return 8 * j - 7, 8 * j + 7, 1 << (k + 4)


def _mesh_arc(k: int, j: int) -> tuple[int, int, int]:
    """Level-k mesh cell j, 0 <= j < 2^(k+1), as an arc of the circle with
    its start in [0, 1)."""
    d = 1 << (k + 4)
    return (8 * j - 7) % d, 14, d


class Space:
    """Shared child padding; geometry lives in subclasses."""

    kind = "abstract"

    # Each subclass provides: whole, mesh, child_arity, select_children,
    # level_epsilon, intersect, diam, contains, closed_subset,
    # eroded_contains, open_cover_of_closure, eroded_cover_of_closure,
    # point_cell, distance, witness_point, sample_point, shrink_cell,
    # describe.  Cells go in and come out in the space's own form (see the
    # module docstring); diameters, radii and points are rationals.  The
    # interval and circle build cells from rationals with cell(lo, hi) and
    # arc(start, length).  select_children(base, k) is the level-k mesh
    # cells meeting the closure of base, padded to child_arity(k) through
    # _pad.
    # canonical(cell, k) keys a level-k cell up to an isometry that maps
    # every mesh of level k + 1 and finer onto itself and keeps the order
    # of the selected children: cells with equal keys get the same verdict
    # from every predicate on them and their children.  None means no such
    # symmetry applies, as in a finite space.
    # eroded_contains(outer, region, r) holds when every point of the closed
    # region keeps its open r-ball inside the open outer cell; at r = 0 it
    # reads "the closure of region lies inside the open cell outer".
    # contains(cell, x) is the closed reading, x in the closure of cell; the
    # open reading is eroded_contains(cell, point_cell(x), 0).

    def canonical(self, cell: Cell, k: int):
        return None

    def _pad(self, pool, arity: int, cell=None) -> list[Cell]:
        """The pool padded to the arity by repeating its last member.  A
        pool of mesh indices is sized before `cell` builds any of them."""
        if not pool:
            raise CertificationError(f"{self.kind}: empty child pool")
        if len(pool) > arity:
            raise CertificationError(
                f"{self.kind}: pool of {len(pool)} exceeds arity {arity}"
            )
        cells = list(pool) if cell is None else [cell(j) for j in pool]
        return cells + [cells[-1]] * (arity - len(cells))


class _DyadicSpace(Space):
    """The interval and the circle: dyadic meshes with one Lebesgue schedule."""

    def level_epsilon(self, k: int) -> Fraction:
        return F(3, 2 ** (k + 5))

    @staticmethod
    def _shift_key(a: int, b: int, d: int, k: int, first: int):
        """(n * a/d mod 1, (b - a)/d) as a reduced triple, n = 2^(k+2), or
        None unless the level-(k + 1) mesh indices meeting [a/d, b/d] lie in
        first .. n - 1.  A shift by a multiple of the level-(k + 1) spacing
        1/n moves those indices by the same multiple."""
        n = 1 << (k + 2)
        lo, hi = _mesh_span(a, b, d, k + 1)
        if lo < first or hi >= n:
            return None
        return _reduced(a * n % d, b - a, d)


# === unit interval ===


@dataclass(frozen=True)
class IntervalSpace(_DyadicSpace):
    kind = "interval"

    def cell(self, lo, hi) -> Cell:
        """The open interval (lo, hi) of two rationals; over their least
        common denominator the triple is already reduced."""
        (a, b), d = _scaled((), lo, hi)
        return a, b, d

    def whole(self) -> Cell:
        return (-1, 2, 1)

    def child_arity(self, k: int) -> int:
        return 5 if k == 1 else 6

    def mesh(self, k: int) -> list[Cell]:
        return [_mesh_cell(k, j) for j in range(2 ** (k + 1) + 1)]

    def select_children(self, base: Cell, k: int) -> list[Cell]:
        """Level-k mesh cells meeting the closure of base, in index order."""
        a, b, d = base
        lo, hi = _mesh_span(max(a, 0), min(b, d), d, k)
        span = range(max(lo, 0), min(hi, 2 ** (k + 1)) + 1)
        return self._pad(span, self.child_arity(k), lambda j: _mesh_cell(k, j))

    def canonical(self, cell: Cell, k: int):
        """None for a clamped cell and for one meeting the level-(k + 1)
        end cells 0 and 2^(k+2), which `diam` and the erosion in
        `eroded_cover_of_closure` clamp."""
        a, b, d = cell
        if a < 0 or b > d:
            return None
        return self._shift_key(a, b, d, k, 1)

    def hull(self, cell: Cell) -> tuple[Fraction, Fraction]:
        """The ends of the closure [max(u, 0), min(v, 1)] as rationals."""
        a, b, d = cell
        return F(max(a, 0), d), F(min(b, d), d)

    def intersect(self, x: Cell, y: Cell) -> Optional[Cell]:
        (a, b, c, e), d = _scaled((x, y))
        lo, hi = max(a, c), min(b, e)
        return _reduced(lo, hi, d) if lo < hi else None

    def diam(self, cell: Cell) -> Fraction:
        a, b, d = cell
        return F(max(min(b, d) - max(a, 0), 0), d)

    def contains(self, cell: Cell, x: Point) -> bool:
        (a, b, x), d = _scaled((cell,), x)
        return max(a, 0) <= x <= min(b, d)

    def closed_subset(self, inner: Cell, outer: Cell) -> bool:
        (a, b, c, e), d = _scaled((inner, outer))
        return max(c, 0) <= max(a, 0) and min(b, d) <= min(e, d)

    def eroded_contains(self, outer: Cell, region: Cell, radius: Fraction) -> bool:
        """Every point of the closed region keeps its open radius-ball
        inside the open outer cell (relative to [0, 1])."""
        (u, v, p, q, r), d = _scaled((outer, region), radius)
        p, q = max(p, 0), min(q, d)
        left = u < 0 or (p - r >= u and p > u)
        right = v > d or (q + r <= v and q < v)
        return left and right

    def open_cover_of_closure(self, base: Cell, cells) -> bool:
        (a, b, *ends), d = _scaled([base, *cells])
        return _open_chain_cover(max(a, 0), min(b, d), zip(ends[::2], ends[1::2]))

    def eroded_cover_of_closure(self, base: Cell, cells, eps: Fraction) -> bool:
        """The closure of base inside the union of the cells eroded by eps;
        an end clamped past 0 or 1 stays put."""
        (a, b, *ends, e), d = _scaled([base, *cells], eps)
        eroded = []
        for u, v in zip(ends[::2], ends[1::2]):
            lo = 0 if u < 0 else u + e
            hi = d if v > d else v - e
            if lo <= hi:
                eroded.append((lo, hi))
        return _closed_chain_cover(max(a, 0), min(b, d), eroded)

    def point_cell(self, x: Point, bound=None) -> Cell:
        return self.cell(x, x)

    def distance(self, x: Point, y: Point) -> Fraction:
        return abs(x - y)

    def witness_point(self, cell: Cell) -> Point:
        a, b, d = cell
        return F(max(a, 0) + min(b, d), 2 * d)

    def sample_point(self, rng) -> Point:
        return F(rng.randrange(2 ** 20 + 1), 2 ** 20)

    def shrink_cell(self, cell: Cell) -> Cell:
        """The cell a hundredth as wide about the same midpoint."""
        a, b, d = cell
        mid, half = 100 * (a + b), b - a
        return _reduced(mid - half, mid + half, 200 * d)

    def describe(self, cell: Cell) -> str:
        a, b, d = cell
        return f"interval({F(a, d)}, {F(b, d)})"


# === circle R/Z ===


@dataclass(frozen=True)
class CircleSpace(_DyadicSpace):
    kind = "circle"

    def arc(self, start, length) -> Cell:
        """The arc of a rational length from a rational start taken mod 1,
        the whole circle from length 1 on: numerators over the least common
        denominator, which is already reduced."""
        (s, l), d = _scaled((), start, length)
        return (0, 1, 1) if l >= d else (s % d, l, d)

    def whole(self) -> Cell:
        return (0, 1, 1)

    def child_arity(self, k: int) -> int:
        return 4 if k == 1 else 6

    def mesh(self, k: int) -> list[Cell]:
        return [_mesh_arc(k, j) for j in range(2 ** (k + 1))]

    def select_children(self, base: Cell, k: int) -> list[Cell]:
        """Level-k mesh arcs meeting the closure of base, in index order:
        the line cells meeting [start, start + length], indices mod 2^(k+1)."""
        s, l, d = base
        n = 2 ** (k + 1)
        lo, hi = _mesh_span(s, s + l, d, k)
        if hi - lo + 1 >= n:
            pool = range(n)
        else:
            pool = sorted(j % n for j in range(lo, hi + 1))
        return self._pad(pool, self.child_arity(k), lambda j: _mesh_arc(k, j))

    def canonical(self, cell: Cell, k: int):
        """None for the whole circle and for an arc running into line
        index 2^(k+2) at level k + 1, where `select_children` reduces the
        indices mod 2^(k+2) and so rotates the child order."""
        s, l, d = cell
        if l >= d:
            return None
        return self._shift_key(s, s + l, d, k, 0)

    def intersect(self, a: Cell, b: Cell) -> Optional[Cell]:
        (sa, la, sb, lb), d = _scaled((a, b))
        if la >= d:
            return b
        if lb >= d:
            return a
        if la + lb >= d:
            raise CertificationError("arc intersection may be disconnected")
        t = (sb - sa) % d
        for t2 in (t, t - d):
            lo, hi = max(0, t2), min(la, t2 + lb)
            if lo < hi:  # hi - lo <= la < d: a proper arc
                return _reduced((sa + lo) % d, hi - lo, d)
        return None

    def diam(self, cell: Cell) -> Fraction:
        _, l, d = cell
        return F(1, 2) if 2 * l >= d else F(l, d)

    def contains(self, cell: Cell, x: Point) -> bool:
        (s, l, x), d = _scaled((cell,), x)
        return l >= d or (x - s) % d <= l

    def closed_subset(self, inner: Cell, outer: Cell) -> bool:
        (si, li, so, lo), d = _scaled((inner, outer))
        # inner starts (si - so) mod d past outer's start and ends by its end
        return lo >= d or (si - so) % d + li <= lo

    def eroded_contains(self, outer: Cell, region: Cell, radius: Fraction) -> bool:
        (s, l, rs, rl, r), d = _scaled((outer, region), radius)
        if l >= d:
            return True
        if l < 2 * r:
            return False
        if r == 0:
            t = (rs - s) % d
            return 0 < t and t + rl < l
        return (rs - s - r) % d + rl <= l - 2 * r  # region inside outer eroded by r

    @staticmethod
    def _unroll(base_start: int, arcs, d: int):
        """Line placements of arcs relative to a base start point, as
        numerators over d."""
        out = []
        for s, l in arcs:
            t = (s - base_start) % d
            out.append((t, t + l))
            out.append((t - d, t - d + l))
        return out

    def open_cover_of_closure(self, base: Cell, cells) -> bool:
        (bs, bl, *ends), d = _scaled([base, *cells])
        return _open_chain_cover(0, bl, self._unroll(bs, zip(ends[::2], ends[1::2]), d))

    def eroded_cover_of_closure(self, base: Cell, cells, eps: Fraction) -> bool:
        (bs, bl, *ends, e), d = _scaled([base, *cells], eps)
        eroded = []
        for s, l in zip(ends[::2], ends[1::2]):
            if l >= d:
                return True
            if l >= 2 * e:
                eroded.append((s + e, l - 2 * e))
        return _closed_chain_cover(0, bl, self._unroll(bs, eroded, d))

    def point_cell(self, x: Point, bound=None) -> Cell:
        return self.arc(x, 0)

    def distance(self, x: Point, y: Point) -> Fraction:
        d = (x - y) % 1
        return min(d, 1 - d)

    def witness_point(self, cell: Cell) -> Point:
        s, l, d = cell
        return F((2 * s + l) % (2 * d), 2 * d)

    def sample_point(self, rng) -> Point:
        return F(rng.randrange(2 ** 20), 2 ** 20)

    def shrink_cell(self, cell: Cell) -> Cell:
        """The arc a hundredth as long about the same midpoint."""
        s, l, d = cell
        return _reduced((200 * s + 99 * l) % (200 * d), 2 * l, 200 * d)

    def describe(self, cell: Cell) -> str:
        s, l, d = cell
        return f"arc(start={F(s, d)}, length={F(l, d)})"


# === binary streams ===


def _stream_distance(x, y) -> Fraction:
    # eventually periodic streams agreeing past both preambles for a full
    # common period agree everywhere
    bound = max(len(x.pre), len(y.pre)) + math.lcm(len(x.cycle), len(y.cycle))
    a, b = x.prefix(bound), y.prefix(bound)
    for i in range(bound):
        if a[i] != b[i]:
            return F(1, 2 ** (i + 1))
    return F(0)


@dataclass(frozen=True)
class BaireStreamSpace:
    """Streams over all of N with the first-difference metric.  Not compact,
    so it carries no mesh or cover system; its cylinder geometry is shared
    by the binary streams, a closed subspace with the same metric."""

    kind = "baire"

    def whole(self) -> Cell:
        return ()

    @staticmethod
    def _compatible(a: Cell, b: Cell) -> bool:
        n = min(len(a), len(b))
        return a[:n] == b[:n]

    def intersect(self, a: Cell, b: Cell) -> Optional[Cell]:
        if not self._compatible(a, b):
            return None
        return a if len(a) >= len(b) else b

    def diam(self, cell: Cell) -> Fraction:
        return F(1, 2 ** (len(cell) + 1))

    def contains(self, cell: Cell, x: Point) -> bool:
        return x.prefix(len(cell)) == cell

    def closed_subset(self, inner: Cell, outer: Cell) -> bool:
        return inner[: len(outer)] == outer

    def eroded_contains(self, outer: Cell, region: Cell, radius: Fraction) -> bool:
        if not self.closed_subset(region, outer):
            return False
        return radius == 0 or dyadic_level(radius) >= len(outer)

    def point_cell(self, x: Point, bound=None) -> Cell:
        return x.prefix(dyadic_level(bound if bound is not None else F(1, 2 ** 33)))

    def distance(self, x: Point, y: Point) -> Fraction:
        return _stream_distance(x, y)

    def witness_point(self, cell: Cell) -> Point:
        return Stream(cell, (0,))

    def sample_point(self, rng) -> Point:
        pre = tuple(rng.randrange(5) for _ in range(24))
        return Stream(pre, (rng.randrange(5),))

    def describe(self, cell: Cell) -> str:
        return "cyl[" + ",".join(map(str, cell)) + "]"


@dataclass(frozen=True)
class CantorSpace(BaireStreamSpace, Space):
    """Binary streams: the Baire cylinders over a two-symbol alphabet, with
    a mesh of all level-k cylinders and a cover check over them."""

    kind = "cantor"

    def child_arity(self, k: int) -> int:
        return 2

    def level_epsilon(self, k: int) -> Fraction:
        return F(1, 2 ** (k + 2))

    def mesh(self, k: int) -> list[Cell]:
        cells = [()]
        for _ in range(k):
            cells = [c + (b,) for c in cells for b in (0, 1)]
        return cells

    def select_children(self, base: Cell, k: int) -> list[Cell]:
        gap = k - len(base)
        if gap <= 0:
            return self._pad([base[:k]], 2)
        if gap > 1:  # 2^gap cylinders; refuse before building them
            raise CertificationError(f"{self.kind}: pool of {2 ** gap} exceeds arity 2")
        return [base + (0,), base + (1,)]

    def canonical(self, cell: Cell, k: int):
        # swapping one cylinder's prefix for another's is an isometry
        return len(cell)

    def _brute_cover(self, base: Cell, cells) -> bool:
        """Cylinder base inside the union of the cylinder cells: walk the
        trie of the compatible words below base; a node that is a word is
        covered, one that no word passes through is a gap."""
        words = {w for w in cells if self._compatible(w, base)}
        if any(len(w) <= len(base) for w in words):
            return True
        inner = {w[:i] for w in words for i in range(len(base), len(w))}
        stack = [base]
        while stack:
            node = stack.pop()
            if node in words:
                continue
            if node not in inner:
                return False
            stack += (node + (0,), node + (1,))
        return True

    def open_cover_of_closure(self, base: Cell, cells) -> bool:
        return self._brute_cover(base, cells)

    def eroded_cover_of_closure(self, base: Cell, cells, eps: Fraction) -> bool:
        m = dyadic_level(eps)
        return self._brute_cover(base, [w for w in cells if m >= len(w)])

    def sample_point(self, rng) -> Point:
        pre = tuple(rng.randrange(2) for _ in range(24))
        return Stream(pre, (rng.randrange(2),))

    def shrink_cell(self, cell: Cell) -> Cell:
        return cell + (0, 0, 0)

    def describe(self, cell: Cell) -> str:
        return "cyl[" + "".join(map(str, cell)) + "]"


# === finite metric spaces ===


@dataclass(frozen=True)
class FiniteMetricSpace(Space):
    distances: tuple

    kind = "finite"

    def __post_init__(self):
        d = self.distances
        n = len(d)
        if n < 2:
            raise CertificationError("finite space needs at least 2 points")
        for i in range(n):
            if len(d[i]) != n or d[i][i] != 0:
                raise CertificationError("bad distance matrix diagonal/shape")
            for j in range(n):
                if d[i][j] != d[j][i] or (i != j and d[i][j] <= 0):
                    raise CertificationError("distance matrix not symmetric positive")
                for m in range(n):
                    if d[i][j] > d[i][m] + d[m][j]:
                        raise CertificationError("triangle inequality fails")

    @property
    def size(self) -> int:
        return len(self.distances)

    def min_distance(self) -> Fraction:
        n = self.size
        return min(self.distances[i][j] for i in range(n) for j in range(n) if i != j)

    def whole(self) -> Cell:
        return tuple(range(self.size))

    def child_arity(self, k: int) -> int:
        return self.size if k == 1 else 2

    def level_epsilon(self, k: int) -> Fraction:
        return min(self.min_distance() / 4, F(1, 2 ** (k + 2)))

    def mesh(self, k: int) -> list[Cell]:
        return [(i,) for i in range(self.size)]

    def select_children(self, base: Cell, k: int) -> list[Cell]:
        """The singletons of base's points, in index order."""
        return self._pad(sorted(set(base)), self.child_arity(k), lambda i: (i,))

    def intersect(self, a: Cell, b: Cell) -> Optional[Cell]:
        common = tuple(sorted(set(a) & set(b)))
        return common or None

    def diam(self, cell: Cell) -> Fraction:
        return max(
            (self.distances[i][j] for i in cell for j in cell), default=F(0)
        )

    def contains(self, cell: Cell, x: Point) -> bool:
        return x in cell

    def closed_subset(self, inner: Cell, outer: Cell) -> bool:
        return set(inner) <= set(outer)

    def _ball(self, x: int, radius: Fraction) -> set:
        return {y for y in range(self.size) if self.distances[x][y] < radius}

    def eroded_contains(self, outer: Cell, region: Cell, radius: Fraction) -> bool:
        members = set(outer)
        for x in region:
            if x not in members or not self._ball(x, radius) <= members:
                return False
        return True

    def open_cover_of_closure(self, base: Cell, cells) -> bool:
        return all(any(x in c for c in cells) for x in base)

    def eroded_cover_of_closure(self, base: Cell, cells, eps: Fraction) -> bool:
        return all(
            any(self._ball(x, eps) <= set(c) for c in cells) for x in base
        )

    def point_cell(self, x: Point, bound=None) -> Cell:
        return (x,)

    def distance(self, x: Point, y: Point) -> Fraction:
        return self.distances[x][y]

    def witness_point(self, cell: Cell) -> Point:
        return cell[0]

    def sample_point(self, rng) -> Point:
        return rng.randrange(self.size)

    def shrink_cell(self, cell: Cell) -> Cell:
        return ((cell[0] + 1) % self.size,)

    def describe(self, cell: Cell) -> str:
        return f"points{tuple(cell)}"


# === binary products, max metric ===


@dataclass(frozen=True)
class ProductSpace(Space):
    left: Space
    right: Space

    kind = "product"

    def whole(self) -> Cell:
        return (self.left.whole(), self.right.whole())

    def child_arity(self, k: int) -> int:
        return self.left.child_arity(k) * self.right.child_arity(k)

    def level_epsilon(self, k: int) -> Fraction:
        return min(self.left.level_epsilon(k), self.right.level_epsilon(k))

    def mesh(self, k: int) -> list[Cell]:
        return [(a, b) for a in self.left.mesh(k) for b in self.right.mesh(k)]

    def canonical(self, cell: Cell, k: int):
        a = self.left.canonical(cell[0], k)
        b = self.right.canonical(cell[1], k)
        return None if a is None or b is None else (a, b)

    def select_children(self, base: Cell, k: int) -> list[Cell]:
        sel_a = self.left.select_children(base[0], k)
        sel_b = self.right.select_children(base[1], k)
        return [(a, b) for a in sel_a for b in sel_b]

    def intersect(self, a: Cell, b: Cell) -> Optional[Cell]:
        ia = self.left.intersect(a[0], b[0])
        ib = self.right.intersect(a[1], b[1])
        return (ia, ib) if ia is not None and ib is not None else None

    def diam(self, cell: Cell) -> Fraction:
        return max(self.left.diam(cell[0]), self.right.diam(cell[1]))

    def contains(self, cell: Cell, x: Point) -> bool:
        return self.left.contains(cell[0], x[0]) and self.right.contains(cell[1], x[1])

    def closed_subset(self, inner: Cell, outer: Cell) -> bool:
        return self.left.closed_subset(inner[0], outer[0]) and self.right.closed_subset(
            inner[1], outer[1]
        )

    def eroded_contains(self, outer: Cell, region: Cell, radius: Fraction) -> bool:
        return self.left.eroded_contains(
            outer[0], region[0], radius
        ) and self.right.eroded_contains(outer[1], region[1], radius)

    def _split(self, cells):
        """Undo the cross-product layout of a child selection."""
        firsts = list(dict.fromkeys(a for a, _ in cells))
        seconds = list(dict.fromkeys(b for _, b in cells))
        if set(cells) != {(a, b) for a in firsts for b in seconds}:
            return None
        return firsts, seconds

    def open_cover_of_closure(self, base: Cell, cells) -> bool:
        split = self._split(list(cells))
        if split is None:
            return False
        return self.left.open_cover_of_closure(
            base[0], split[0]
        ) and self.right.open_cover_of_closure(base[1], split[1])

    def eroded_cover_of_closure(self, base: Cell, cells, eps: Fraction) -> bool:
        split = self._split(list(cells))
        if split is None:
            return False
        return self.left.eroded_cover_of_closure(
            base[0], split[0], eps
        ) and self.right.eroded_cover_of_closure(base[1], split[1], eps)

    def point_cell(self, x: Point, bound=None) -> Cell:
        return (self.left.point_cell(x[0], bound), self.right.point_cell(x[1], bound))

    def distance(self, x: Point, y: Point) -> Fraction:
        return max(self.left.distance(x[0], y[0]), self.right.distance(x[1], y[1]))

    def witness_point(self, cell: Cell) -> Point:
        return (self.left.witness_point(cell[0]), self.right.witness_point(cell[1]))

    def sample_point(self, rng) -> Point:
        return (self.left.sample_point(rng), self.right.sample_point(rng))

    def shrink_cell(self, cell: Cell) -> Cell:
        return (self.left.shrink_cell(cell[0]), cell[1])

    def describe(self, cell: Cell) -> str:
        return f"({self.left.describe(cell[0])}) x ({self.right.describe(cell[1])})"
