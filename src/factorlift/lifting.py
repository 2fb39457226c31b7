"""Lifting continuous maps through cover-system projections.

A cover system's branch words name points, so a uniformly continuous map
into the space can be traced at the symbolic level: at each output
resolution, read enough input to pin the image region below the slack
allowance, then descend one more level of the cover tree around that
region.  The presentation owns the slack schedule, halving at least once
per resolution, which guarantees the next region (a subset of the current
one, suitably fattened) still fits inside the cell the previous resolution
chose; so the located branch extends forever and names the image point.

The same search works for maps out of a Polish branch space, where no
uniform modulus exists: the branch itself reveals how much of it must be
read, and the minimal prefixes doing so at a fixed resolution form an
antichain discovered lazily, branch by branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice, pairwise
from typing import Iterator, Optional, Sequence

from .certificates import CertNode
from .covers import CoverSystem, interval_system, locate_ball
from .errors import CertificationError, InsufficientInput, NoCell, SpaceMismatch
from .geometry import BaireStreamSpace
from .pointmaps import (
    ParameterizedFamily,
    PointMap,
    PolishPointMap,
    family_from_map,
)
from .transducers import BAIRE, PrefixTransducer, validate_word

F = Fraction

Word = tuple[int, ...]

# Sampled branch symbols range over 0..SYMBOL_BOUND.
SYMBOL_BOUND = 9


@dataclass
class StrongLift:
    """A parameterized family traced through a cover system.

    ``prefix(q, s, k)`` is the length-k branch word naming the family's
    value, read off a parameter prefix q and a branch prefix s.  Outputs
    are coherent: they depend only on the prefixes the moduli demand, so
    extending either input extends the output.
    """

    cs: CoverSystem
    family: ParameterizedFamily
    name: str = "strong-lift"
    _memo: dict = field(default_factory=dict, repr=False)
    _moduli: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if self.family.space != self.cs.space:
            raise SpaceMismatch(
                f"family {self.family.name} does not land in the "
                f"{self.cs.name} space"
            )

    def moduli(self, k: int) -> tuple:
        """Prefix lengths (parameter, branch) consumed at resolution k;
        running maxima keep them monotone in k, and resolution 0 reads
        nothing."""
        if k < 0:
            raise CertificationError(f"{self.name}: resolution {k} is negative")
        while len(self._moduli) < k:
            kk = len(self._moduli) + 1
            l, m = self.family.moduli(self.cs.slack(kk) / 2)
            if self._moduli:
                l, m = max(l, self._moduli[-1][0]), max(m, self._moduli[-1][1])
            self._moduli.append((l, m))
        return self._moduli[k - 1] if k else (0, 0)

    def max_resolution(self, q_len: int, s_len: int) -> int:
        """Deepest resolution the given prefix lengths support, capped at
        one output symbol per branch symbol."""
        k = 0
        while k < s_len:
            l, m = self.moduli(k + 1)
            if l > q_len or m > s_len:
                break
            k += 1
        return k

    def prefix(self, q: Sequence[int], s: Sequence[int], k: int) -> Word:
        if k < 0:
            raise CertificationError(f"{self.name}: resolution {k} is negative")
        q, s = tuple(q), tuple(s)
        t: Word = ()
        for kk in range(1, k + 1):
            l, m = self.moduli(kk)
            if len(q) < l:
                raise InsufficientInput(
                    f"{self.name}: resolution {kk} reads {l} parameter "
                    f"symbols, got {len(q)}"
                )
            if len(s) < m:
                raise InsufficientInput(
                    f"{self.name}: resolution {kk} reads {m} branch "
                    f"symbols, got {len(s)}"
                )
            key = (kk, q[:l], s[:m])
            hit = self._memo.get(key)
            if hit is None:
                region = self.family.region(q[:l], s[:m])
                hit = _descend(self.cs, self.name, t, kk, region, (q[:l], s[:m]))
                self._memo[key] = hit
            t = hit
        return t

    def sound_at(self, q: Sequence[int], s: Sequence[int], t: Word, k: int) -> bool:
        """The soundness law at resolution k for the located branch t: its
        level-k cell keeps the level-k slack ball around the family's region
        at the prefixes of q and s the moduli demand.  False when q, s or t
        is shorter than resolution k demands."""
        l, m = self.moduli(k)
        if len(q) < l or len(s) < m or len(t) < k:
            return False
        region = self.family.region(q[:l], s[:m])
        return _keeps_slack(self.cs, self.cs.v_cell(t[:k]), region, k)

    def certificate(self, resolution: int, samples: int, rng) -> CertNode:
        """Sampled soundness: at every resolution up to the target, the
        family's region sits inside the located cell with the full slack
        to spare, and regions shrink under prefix extension."""
        cert = CertNode(f"{self.name}: factor identity to depth {resolution}")
        space = self.cs.space
        l_top, m_top = self.moduli(resolution)
        cert.note(
            f"moduli at resolution {resolution}: {l_top} parameter symbols, "
            f"{m_top} branch symbols; {samples} sampled inputs"
        )
        enclosure_bad = []
        shrink_bad = []
        for _ in range(samples):
            q = tuple(rng.randrange(2) for _ in range(l_top))
            s = tuple(
                rng.randrange(self.cs.child_arity(i + 1)) for i in range(m_top)
            )
            t = self.prefix(q, s, resolution)
            previous = None
            for k in range(1, resolution + 1):
                l, m = self.moduli(k)
                region = self.family.region(q[:l], s[:m])
                if not _keeps_slack(self.cs, self.cs.v_cell(t[:k]), region, k):
                    enclosure_bad.append((q, s, k))
                if previous is not None and not space.closed_subset(region, previous):
                    shrink_bad.append((q, s, k))
                previous = region
        cert.check(
            "slack-fattened image regions sit inside the located cells "
            "at every resolution",
            not enclosure_bad,
            f"first failure at (q, s, k) = {enclosure_bad[0]}" if enclosure_bad else "",
        )
        cert.check(
            "image regions shrink as prefixes extend",
            not shrink_bad,
            f"first failure at (q, s, k) = {shrink_bad[0]}" if shrink_bad else "",
        )
        cert.note(
            "family value and located branch point share a cell of diameter "
            f"below 2^-{resolution}, so they agree to that width"
        )
        return cert


def _keeps_slack(presentation, cell, region, k: int) -> bool:
    """The law `_descend` establishes at resolution k: the located level-k
    cell keeps the level-k slack ball around the region it was located
    for."""
    return presentation.space.eroded_contains(cell, region, presentation.slack(k))


def _descend(presentation, name: str, t: Word, kk: int, region, label) -> Word:
    """One resolution down a presentation: the region, read at `label`,
    must be at most half the level-kk slack wide, and the located child of
    t keeps the slack-ball around it (`_keeps_slack`)."""
    r, w = presentation.slack(kk), presentation.space.diam(region)
    if 2 * w.numerator * r.denominator > r.numerator * w.denominator:  # w > r/2
        raise NoCell(
            f"{name}: region at {label} is wider than {r}/2; moduli too "
            f"coarse for resolution {kk}"
        )
    child = presentation.locate_child(t, region, r)
    if child is None:
        raise NoCell(f"{name}: no level-{kk} cell below {t} holds the image of {label}")
    return t + (child,)


def strong_extension_map(cs: CoverSystem, family: ParameterizedFamily) -> StrongLift:
    return StrongLift(cs, family, name=f"lift[{family.name}]")


@dataclass
class LiftedSelfMap:
    """A point map rewritten as a prefix transducer on branch words, with
    the commuting-square evidence that it projects back to the map."""

    point_map: PointMap
    lift: StrongLift
    transducer: PrefixTransducer

    @property
    def cs(self) -> CoverSystem:
        return self.lift.cs

    def certificate(
        self,
        resolution: int,
        samples: int,
        rng,
        exact_samples: int = 0,
    ) -> CertNode:
        cert = self.lift.certificate(resolution, samples, rng)
        cert.title = (
            f"lift[{self.point_map.name}]: projection intertwines the map "
            f"to depth {resolution}"
        )
        if exact_samples:
            space = self.cs.space
            depth = self.transducer.modulus(resolution)
            radius = self.cs.epsilon(depth) / 4
            bad = []
            for _ in range(exact_samples):
                x = space.sample_point(rng)
                branch = locate_ball(self.cs, space.point_cell(x, radius), radius, depth)
                t = self.transducer.step(branch)
                y = self.point_map.point(x)
                for k in range(1, resolution + 1):
                    if not space.contains(self.cs.v_cell(t[:k]), y):
                        bad.append((x, k))
            cert.check(
                f"exact evaluation lands in every located cell on "
                f"{exact_samples} rational points",
                not bad,
                f"first failure at (x, k) = {bad[0]}" if bad else "",
            )
        return cert


def lift_self_map(cs: CoverSystem, point_map: PointMap) -> LiftedSelfMap:
    """Rewrite a uniformly continuous self-map as a self-map of branch
    words: one more output level per slack halving, located around the
    image region of the branch cell read so far."""
    lift = strong_extension_map(cs, family_from_map(cs, point_map))
    branch_space = cs.branch_space()

    def step(w: Word) -> Word:
        return lift.prefix((), w, lift.max_resolution(0, len(w)))

    def modulus(k: int) -> int:
        return max(k, lift.moduli(k)[1])

    machine = PrefixTransducer(
        branch_space, branch_space, step, modulus, name=f"lift[{point_map.name}]"
    )
    return LiftedSelfMap(point_map, lift, machine)


# === presentations of Polish spaces over unbounded branching ===


class CylinderPresentation:
    """Unbounded-alphabet streams presented by their own cylinders."""

    name = "stream-cylinders"

    def __init__(self):
        self.space = BaireStreamSpace()

    def slack(self, k: int) -> Fraction:
        if k < 1:
            raise CertificationError("resolution starts at 1")
        return F(1, 2 ** (k + 2))

    def v_cell(self, t: Sequence[int]) -> tuple:
        return tuple(t)

    def locate_child(self, t: Word, region, slack: Fraction) -> Optional[int]:
        region = tuple(region)
        if len(region) <= len(t):
            return None
        child = region[len(t)]
        return child if self.space.eroded_contains(t + (child,), region, slack) else None


# The lift-extend benchmark job "baire parity-expansion lift" still builds
# its presentation by this name; the next declared benchmark change switches
# that job to `covers.interval_system()` and deletes this alias.
DyadicIntervalPresentation = interval_system


def presentation_certificate(presentation, depth: int, samples: int, rng) -> CertNode:
    """Spot-check the presentation laws on randomly drawn branch words:
    diameters decay geometrically and closures nest strictly."""
    cert = CertNode(f"{presentation.name}: presentation laws to depth {depth}")
    space = presentation.space
    diam_bad = []
    nest_bad = []
    for _ in range(samples):
        word: Word = ()
        for _ in range(depth):
            word = word + (rng.randrange(SYMBOL_BOUND + 1),)
            cell = presentation.v_cell(word)
            if not space.diam(cell) < F(1, 2 ** len(word)):
                diam_bad.append(word)
            if not space.eroded_contains(presentation.v_cell(word[:-1]), cell, 0):
                nest_bad.append(word)
    cert.check(
        f"cell diameters stay below 2^-depth on {samples} sampled words",
        not diam_bad,
        f"first failure at {diam_bad[0]}" if diam_bad else "",
    )
    cert.check(
        "every sampled cell's closure sits strictly inside its parent",
        not nest_bad,
        f"first failure at {nest_bad[0]}" if nest_bad else "",
    )
    cert.note("the root cell is the whole space and is exempt from the bound")
    return cert


# === lifting maps out of Polish branch spaces ===


@dataclass
class BaireLift:
    """A Polish point map factored through a presentation (a cover system
    too): reading a branch until its image region is narrow enough, then
    descending the presentation one cell per resolution.  The minimal
    prefixes read at a fixed resolution form an antichain, discovered
    branch by branch."""

    presentation: object
    point_map: PolishPointMap
    name: str = "adaptive-lift"

    def __post_init__(self):
        target, space = self.point_map.target, self.presentation.space
        if target != space:
            raise SpaceMismatch(
                f"{self.point_map.name} maps into a {target.kind} space but the "
                f"presentation covers a {space.kind} space ({target!r} against {space!r})"
            )

    def _walk(self, w: Sequence[int]) -> Iterator[tuple]:
        """(minimal prefix read, located branch) at resolutions 1, 2, ...

        The read bound at resolution k is slack(k) / 2, and the slack at
        least halves per resolution, so a prefix short enough for k + 1 was
        short enough for k: each scan resumes where the previous one
        stopped and finds the minimal prefix a scan from () would."""
        w = validate_word(BAIRE, w)
        target, region_of = self.point_map.target, self.point_map.region
        j, region = 0, region_of(())
        t: Word = ()
        for k in count(1):
            bound = self.presentation.slack(k) / 2
            while target.diam(region) > bound:
                if j == len(w):
                    raise InsufficientInput(
                        f"{self.name}: no prefix of the {len(w)}-symbol input pins "
                        f"the image below {bound} for resolution {k}"
                    )
                j += 1
                region = region_of(w[:j])
            s = w[:j]
            t = _descend(self.presentation, self.name, t, k, region, s)
            yield s, t

    def output(self, w: Sequence[int], k: int) -> Word:
        """The length-k presentation branch naming the image point."""
        if k < 0:
            raise CertificationError(f"{self.name}: resolution {k} is negative")
        t: Word = ()
        for _, t in islice(self._walk(w), k):
            pass
        return t

    def max_resolution(self, w: Sequence[int]) -> int:
        """Deepest resolution the input supports, capped at one output
        symbol per input symbol."""
        k = 0
        try:
            for k, _ in zip(range(1, len(w) + 1), self._walk(w)):
                pass
        except InsufficientInput:
            pass
        return k

    def certificate(self, resolution: int, samples: int, rng) -> CertNode:
        """Sampled soundness on random branches.  A sampled branch starts 8
        symbols long and its length doubles whenever it pins no image to
        the target resolution; past 4,096 symbols the walk's
        `InsufficientInput` is re-raised, so a map that never narrows fails
        typed instead of reading without end."""
        cert = CertNode(
            f"{self.name}: projection matches {self.point_map.name} "
            f"to depth {resolution}"
        )
        target = self.point_map.target
        enclosure_bad = []
        diam_bad = []
        read = [set() for _ in range(resolution)]  # minimal prefixes per resolution
        length = 8
        for _ in range(samples):
            while True:
                w = tuple(rng.randrange(SYMBOL_BOUND + 1) for _ in range(length))
                try:
                    steps = list(islice(self._walk(w), resolution))
                    break
                except InsufficientInput:
                    length *= 2
                    if length > 4096:
                        raise
            for k, (s, t) in enumerate(steps, 1):
                read[k - 1].add(s)
                cell = self.presentation.v_cell(t)
                if not _keeps_slack(self.presentation, cell, self.point_map.region(s), k):
                    enclosure_bad.append((w, k))
                if not target.diam(cell) < F(1, 2 ** k):
                    diam_bad.append((w, k))
        cert.check(
            f"slack-fattened image regions sit inside the located cells on "
            f"{samples} sampled branches",
            not enclosure_bad,
            f"first failure at (w, k) = {enclosure_bad[0]}" if enclosure_bad else "",
        )
        cert.check(
            "located cells respect the presentation's diameter decay",
            not diam_bad,
            f"first failure at (w, k) = {diam_bad[0]}" if diam_bad else "",
        )
        # words sorted between a and an extension of a extend a: check neighbours
        overlap = [
            (k, a, b)
            for k, prefixes in enumerate(read, 1)
            for a, b in pairwise(sorted(prefixes))
            if b[: len(a)] == a
        ]
        cert.check(
            "the minimal prefixes read at each resolution form antichains",
            not overlap,
            f"first comparable pair {overlap[0]}" if overlap else "",
        )
        cert.note(
            "image point and located branch point share a cell of diameter "
            f"below 2^-{resolution}, so they agree to that width"
        )
        return cert


def baire_extension_map(presentation, point_map: PolishPointMap) -> BaireLift:
    return BaireLift(presentation, point_map, name=f"lift[{point_map.name}]")
