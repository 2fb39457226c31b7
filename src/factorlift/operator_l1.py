"""The basis-shift operator on l1 and certified factoring of matrix operators.

The operator U sends basis vector e_i to e_{successor(i)}.  Because the
successor map is injective, U is a linear isometry of l1.  Any matrix
operator T on a finite-dimensional space factors through a scalar multiple
of U: enumerate a countable dense subset of the unit ball that is closed
under (1/rho)T, realize the index dynamics as a finite injection, embed that
injection into the layout, and read the factor map off the embedding.

All arithmetic is exact.  The orbit stages (the ball grid, the enumeration
and both certificates) work on integers: a rational vector v is keyed by
(den, *nums), where den is the least common denominator of its entries and
nums = den*v, and the matrix is one integer matrix over the least common
denominator of its entries.  Two vectors are equal exactly when their keys
are, so integers do the hashing, comparing and stepping.  An enumeration
stores its points as keys, and both certificates step those keys.
Fractions appear only at the public boundary: `value` and the `points`
view build them from the keys on each read, and the factor map and
`BanachModel` work on them.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping

from .certificates import CertNode
from .errors import (
    CertificationError,
    NormBoundViolated,
    NotInjective,
)
from .injections import (
    LINE_SHAPE,
    PartialInjection,
    embed_injection,
    encode_line,
    successor,
    successors,
)
from .pairing import pair, unpair

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

# How far the enumeration follows each grid point's forward orbit, how many
# indices pair(e, r) it covers per point, and how many off-support indices
# the commutation certificate samples.
ORBIT_DEPTH = 8
REPETITIONS = 4
OUTSIDE_SAMPLES = 64


# === sparse vectors over the layout basis ===


class SparseL1Vector:
    """Finitely supported rational vector indexed by N, zero terms dropped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Fraction | int | str] | None = None):
        clean: dict[int, Fraction] = {}
        for i, c in (coeffs or {}).items():
            if i < 0:
                raise CertificationError(f"basis index {i} is negative")
            f = Fraction(c)
            if f != 0:
                clean[i] = f
        self.coeffs = clean

    def norm1(self) -> Fraction:
        return sum((abs(c) for c in self.coeffs.values()), Fraction(0))

    def scale(self, a) -> "SparseL1Vector":
        a = Fraction(a)
        return SparseL1Vector({i: a * c for i, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseL1Vector) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        terms = " + ".join(
            f"{c}*e{i}" for i, c in sorted(self.coeffs.items())
        )
        return f"<{terms or '0'}>"


def apply_universal(x: SparseL1Vector) -> SparseL1Vector:
    """U(x): relabel the support along `successor`.  Exact isometry."""
    return SparseL1Vector({successor(i): c for i, c in x.coeffs.items()})


# === finite-dimensional models with decidable unit balls ===


class NormKind(Enum):
    L1 = "l1"
    LINF = "linf"
    L2SQ = "l2sq"  # membership decided on the squared norm


@dataclass(frozen=True)
class BanachModel:
    dim: int
    kind: NormKind = NormKind.L1

    def __post_init__(self):
        if self.dim < 1:
            raise CertificationError(f"dimension must be at least 1, got {self.dim}")

    def in_unit_ball(self, v: Vector) -> bool:
        if self.kind is NormKind.L2SQ:
            return sum(c * c for c in v) <= 1
        return self.norm(v) <= 1

    def norm(self, v: Vector) -> Fraction:
        """Exact for L1/LINF; for L2 only the square is rational."""
        if self.kind is NormKind.L1:
            return sum((abs(c) for c in v), Fraction(0))
        if self.kind is NormKind.LINF:
            return max((abs(c) for c in v), default=Fraction(0))
        raise CertificationError(
            "L2 norms are not rational; unit-ball membership is decided on squares"
        )

    def matrix(self, rows: Iterable[Iterable]) -> Matrix:
        m = tuple(tuple(Fraction(e) for e in row) for row in rows)
        if len(m) != self.dim or any(len(r) != self.dim for r in m):
            raise CertificationError(f"expected {self.dim}x{self.dim} matrix")
        return m

    def operator_norm(self, mat: Matrix) -> Fraction:
        """Exact operator norm: max column sum (L1) / max row sum (LINF)."""
        if self.kind is NormKind.L1:
            return max(
                sum((abs(mat[i][j]) for i in range(self.dim)), Fraction(0))
                for j in range(self.dim)
            )
        if self.kind is NormKind.LINF:
            return max(
                sum((abs(c) for c in row), Fraction(0)) for row in mat
            )
        raise CertificationError(
            "L2 operator norms are not rational; supply a certified bound"
        )


# === exact orbit arithmetic on integer keys ===
#
# Key = (den, *nums) with den > 0 least such that den*v is integral, so
# gcd(den, *nums) == 1.


def _key(v: Vector) -> tuple[int, ...]:
    dens = [c.denominator for c in v]
    den = math.lcm(*dens)
    return (den, *[c.numerator * (den // d) for c, d in zip(v, dens)])


def _vector(key: tuple[int, ...]) -> Vector:
    """The vector nums/den that `key` names."""
    den = key[0]
    return tuple([Fraction(n, den) for n in key[1:]])


def _reduce(den: int, nums: Sequence[int]) -> tuple[int, ...]:
    """The key of the vector nums/den, for den > 0."""
    g = math.gcd(den, *nums)
    if g == 1:
        return (den, *nums)
    return (den // g, *(n // g for n in nums))


def _times(mat: list[list[int]], key: tuple[int, ...]) -> list[int]:
    """The integer matrix times the numerators of `key`: the orbit stages'
    only application of the operator."""
    nums = key[1:]
    return [sum(map(operator.mul, row, nums)) for row in mat]


def _in_ball(kind: NormKind, key: tuple[int, ...]) -> bool:
    """`BanachModel.in_unit_ball` of the vector nums/den."""
    den, nums = key[0], key[1:]
    if kind is NormKind.L1:
        return sum(map(abs, nums)) <= den
    if kind is NormKind.LINF:
        return max(map(abs, nums), default=0) <= den
    return sum(n * n for n in nums) <= den * den


def _scaled_step(matrix: Matrix, rho: Fraction):
    """The key map of (1/rho)T: with rho = a/b and T = M/d, d the least
    common denominator of T's entries, the key (den, *nums) goes to the key
    of b*M*nums / (a*d*den)."""
    d = math.lcm(*(c.denominator for row in matrix for c in row))
    bmat = [
        [rho.denominator * c.numerator * (d // c.denominator) for c in row]
        for row in matrix
    ]
    ad = rho.numerator * d
    return lambda key: _reduce(ad * key[0], _times(bmat, key))


def unit_ball_grid(model: BanachModel, count: int) -> list[Vector]:
    """First `count` rational unit-ball points, by denominator then lex order.

    Deterministic: denominator q = 1, 2, ... and numerator tuples in
    lexicographic order.  A tuple whose gcd with q exceeds 1 names a point
    already produced at a smaller denominator, so it is skipped.
    """
    out: list[Vector] = []
    for q in itertools.count(1):
        if len(out) >= count:
            break
        for nums in itertools.product(range(-q, q + 1), repeat=model.dim):
            if math.gcd(q, *nums) != 1 or not _in_ball(model.kind, (q, *nums)):
                continue
            out.append(tuple(Fraction(p, q) for p in nums))
            if len(out) >= count:
                break
    return out


# === dense enumerations closed under the scaled operator ===


class _Points(Sequence):
    """`OrbitEnumeration.points`: a read-only view of the stored keys that
    builds the Fraction vector of a key on each read.  Two views compare
    by identity; equal points have equal keys."""

    def __init__(self, keys: list[tuple[int, ...]]):
        self._keys = keys

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, e: int) -> Vector:
        return _vector(self._keys[e])


@dataclass
class OrbitEnumeration:
    """A dense-ball enumeration z with z_{pair(e,r)} = points[e], plus the
    index dynamics sigma realizing (1/rho)T as an injection on indices.

    Point e is stored as its key, keys[e]: the key data is the one thing
    the certificates take as given.  `points` and `value` build Fraction
    vectors from it on each read."""

    model: BanachModel
    matrix: Matrix
    rho: Fraction
    keys: list[tuple[int, ...]]
    sigma: PartialInjection
    covered: list[int]            # indices pair(e, r) forming sigma's domain pool
    frontier: list[int]           # covered indices omitted: image past the frontier
    # index -> e for every index pair(e, r) the construction made
    point_of: dict[int, int] = field(default_factory=dict, repr=False)

    @property
    def points(self) -> Sequence[Vector]:
        return _Points(self.keys)

    def value(self, index: int) -> Vector:
        return _vector(self.keys[self._point(index)])

    def _point(self, index: int) -> int:
        """The point e that `index` = pair(e, r) names: read from `point_of`,
        or unpaired for an index the construction did not make."""
        e = self.point_of.get(index)
        if e is None:
            e, _ = unpair(index)
        if e >= len(self.keys):
            raise CertificationError(f"index {index} beyond the enumeration")
        return e


def dense_orbit_enumeration(
    model: BanachModel,
    matrix: Matrix,
    rho,
    base_count: int = 16,
) -> OrbitEnumeration:
    """Build the enumeration and its index dynamics.

    The point list is the deterministic ball grid extended with forward
    orbits of (1/rho)T to `ORBIT_DEPTH`.  sigma maps pair(e, r) to the least
    strictly later, previously unused repetition of the image point's index;
    images falling outside the point list (orbit frontier) are omitted and
    recorded.  (1/rho)T is applied once per point.
    """
    matrix = model.matrix(matrix)
    rho = Fraction(rho)
    if rho <= 0:
        raise NormBoundViolated(f"rho must be positive, got {rho}")
    try:
        exact = model.operator_norm(matrix)
    except CertificationError:
        exact = None  # L2: bound is caller-certified, membership is still re-checked below
    if exact is not None and rho < exact:
        raise NormBoundViolated(
            f"rho = {rho} < exact norm {exact}"
        )
    keys = list(map(_key, unit_ball_grid(model, base_count)))
    index = {k: e for e, k in enumerate(keys)}
    step = _scaled_step(matrix, rho)
    # image[e]: index of the point (1/rho)T keys[e], None past the frontier
    image: dict[int, int | None] = {}
    depth = [0] * len(keys)
    queue = deque(range(len(keys)))
    while queue:
        e = queue.popleft()
        if depth[e] >= ORBIT_DEPTH:
            continue
        y = step(keys[e])
        if not _in_ball(model.kind, y):
            raise NormBoundViolated(
                f"(1/rho)T leaves the unit ball at point {e}: rho too small"
            )
        target = index.get(y)
        if target is None:
            target = index[y] = len(keys)
            keys.append(y)
            depth.append(depth[e] + 1)
            queue.append(target)
        image[e] = target
    for e, y in enumerate(keys):
        if e not in image:  # never expanded: at ORBIT_DEPTH
            image[e] = index.get(step(y))
    cells = sorted(
        (pair(e, r), e, r) for e in range(len(keys)) for r in range(REPETITIONS)
    )
    covered = [i for i, _, _ in cells]
    point_of = {i: e for i, e, _ in cells}
    entries: dict[int, int] = {}
    last: dict[int, int] = {}  # target point -> repetition it handed out last
    frontier: list[int] = []
    for i, e, r in cells:
        target = image[e]
        if target is None:
            frontier.append(i)
            continue
        # Least r2 with pair(target, r2) > i = pair(e, r): on the diagonal
        # e + r if target < e, else on the next one.  That bound grows with i
        # and target's repetitions from it up to the last one handed out are
        # all taken, so the least free one is the larger of the two.
        r2 = max(e + r + (target >= e) - target, 0, last.get(target, -1) + 1)
        last[target] = r2
        j = entries[i] = pair(target, r2)
        point_of[j] = target
    return OrbitEnumeration(
        model, matrix, rho, keys, PartialInjection(entries), covered, frontier, point_of
    )


def _keyed(enum: OrbitEnumeration):
    """The enumeration as both certificates read it: its stored keys, and
    images[e], the key of (1/rho)T applied to keys[e] on this call.  The
    slot after the last point holds the zero key in both, for where pi
    reads no point.  Images come out reduced, so a stored key that is not
    reduced can fail a comparison its vectors would pass, never the
    other way round."""
    zero = (1,) + (0,) * enum.model.dim
    step = _scaled_step(enum.matrix, enum.rho)
    return [*enum.keys, zero], [*map(step, enum.keys), zero]


def enumeration_certificate(enum: OrbitEnumeration) -> CertNode:
    """Exactness and structure checks for an orbit enumeration."""
    cert = CertNode("dense orbit enumeration")
    cert.check(
        "sigma is injective on its domain",
        len(set(enum.sigma.entries.values())) == len(enum.sigma.entries),
    )
    keys, images = _keyed(enum)
    bad = [
        i for i, j in enum.sigma.entries.items()
        if images[enum._point(i)] != keys[enum._point(j)]
    ]
    cert.check(
        "scaled image matches the enumeration on every covered index",
        not bad,
        f"first witness index {bad[0]}" if bad else f"{len(enum.sigma.entries)} indices",
    )
    cert.check(
        "every point appears at infinitely many indices (spot check)",
        all(
            keys[enum._point(pair(e, r))] == keys[e]
            for e in range(min(4, len(enum.keys)))
            for r in (0, 5, 100)
        ),
    )
    cert.note(
        "frontier",
        f"{len(enum.frontier)} covered indices omitted (image past orbit depth)",
    )
    return cert


# === factor maps ===


@dataclass
class FactorMap:
    """pi(e_i) = z at the enumeration index embedded at layout index i, else 0.

    Satisfies T . pi = pi . (rho U) exactly on every covered basis index.
    """

    enum: OrbitEnumeration
    layout_of: dict[int, int] = field(default_factory=dict)  # enum idx -> layout idx
    enum_of: dict[int, int] = field(default_factory=dict)    # layout idx -> enum idx

    def basis_image(self, layout_index: int) -> Vector:
        n = self.enum_of.get(layout_index)
        if n is None:
            return tuple(Fraction(0) for _ in range(self.enum.model.dim))
        return self.enum.value(n)

    def apply(self, x: SparseL1Vector) -> Vector:
        out = [Fraction(0)] * self.enum.model.dim
        for i, c in x.coeffs.items():
            img = self.basis_image(i)
            for k in range(self.enum.model.dim):
                out[k] += c * img[k]
        return tuple(out)


def synthesize_factor_map(enum: OrbitEnumeration) -> FactorMap:
    """Embed the index dynamics and read the factor map off the embedding.

    Covered indices that sigma omits (frontier) still get fresh layout slots
    so that every enumeration point is attained by some basis vector.
    """
    cert = embed_injection(enum.sigma)
    layout_of = dict(cert.relabel)
    extra_copy = cert.copies.get(LINE_SHAPE, 0)
    for i in enum.covered:
        if i not in layout_of:
            layout_of[i] = encode_line(extra_copy, 0)
            extra_copy += 1
    enum_of = {v: k for k, v in layout_of.items()}
    if len(enum_of) != len(layout_of):
        raise NotInjective("layout relabeling collides")
    return FactorMap(enum, layout_of, enum_of)


def commutation_certificate(fmap: FactorMap, rng=None) -> CertNode:
    """Certify T(pi(e_i)) = pi(rho U(e_i)) index by index, exactly.

    Covered edges are checked exhaustively.  Off-support indices are sampled;
    the both-sides-zero claim applies when the successor also lies off the
    support (left frontiers of line components are recorded, not claimed).
    """
    enum = fmap.enum
    cert = CertNode("factor map commutation")
    keys, images = _keyed(enum)
    nowhere = len(enum.keys)  # the zero slot
    zero = keys[nowhere]
    # layout index -> the point pi reads there: the support of pi
    point = {i: enum._point(n) for i, n in fmap.enum_of.items()}

    # rho > 0 and keys are canonical, so T pi(e_i) = rho pi(e_s) exactly
    # when images[] of the point read at i is keys[] of the point read at s,
    # each read from the table (the zero slot off the support); sigma maps
    # each index to a later one, so in increasing order most successors
    # come back as inputs and carry their decode
    layout = [fmap.layout_of[n] for n in enum.sigma.entries]
    bad = [
        i for i, s in zip(layout, successors(layout))
        if images[point.get(i, nowhere)] != keys[point.get(s, nowhere)]
    ]
    cert.check(
        "exact commutation on every covered basis index",
        not bad,
        f"first witness layout index {bad[0]}" if bad else
        f"{len(enum.sigma.entries)} indices",
    )
    sampled = skipped = attempts = 0
    witness = None
    if rng is not None:
        while sampled < OUTSIDE_SAMPLES and attempts < 50 * OUTSIDE_SAMPLES:
            attempts += 1
            i = rng.randrange(10**6)
            try:
                s = successor(i)
            except CertificationError:
                continue  # not a layout index: e_i is not a basis vector
            if i in point:
                continue
            if s in point:
                skipped += 1  # left frontier of a line copy: no claim made
                continue
            if images[point.get(i, nowhere)] != zero or keys[point.get(s, nowhere)] != zero:
                witness = i
                break
            sampled += 1
        cert.check(
            "both sides vanish off the embedded support (sampled)",
            witness is None,
            f"witness {witness}" if witness is not None else
            f"{sampled} sampled, {skipped} frontier-adjacent skipped",
        )
    surj = all(
        keys[point.get(fmap.layout_of[pair(e, 0)], nowhere)] == keys[e]
        for e in range(len(enum.keys))
    )
    cert.check("every enumeration point is attained by a basis vector", surj,
               f"{len(enum.keys)} points")
    return cert

