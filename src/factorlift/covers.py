"""Tree-structured cover systems over the shipped compact spaces.

A cover system assigns to every finite branch word s an open cell V_s and,
for each child index j below a fixed per-level arity, a mesh cell W_{sj};
the child cell is V_{sj} = V_s ∩ W_{sj}.  Levels shrink strictly (diameter
below 2^-k at depth k >= 1), each level covers the space, the selected
W-children cover the closure of their parent, and every level carries an
exact rational Lebesgue number.  Branch words therefore name points: the
closures of the cells along an infinite branch intersect to a single
point, which is what the locate operations manipulate.

Each branch symbol is checked once, when its word first enters: `w_cell`
checks its last symbol and `v_cell` recurses to the parent first, so the
memo keys are checked words and an error names the lowest bad level.
`CoverSystem._children` is the one child list: `w_cell`, `locate_child`
and the class walk all read their W cells from it.

Descent is one level at a time, through one presentation protocol of
four members: `space`, the presented space; `slack(k)`, the radius
allowance at resolution k; `v_cell(t)`, the cell a branch word names; and
`locate_child(t, region, slack)`, the least child of t whose cell keeps
the slack-ball around the region, or None.  `CoverSystem` implements it
here, and `CylinderPresentation` in `lifting` implements it over unbounded
branching, so both lifts there trace a map down their coding through one
descent step; the Baire lift presents the interval by `interval_system()`.

Verification walks cell classes, not branch words.  Everything checked in
the subtree below a word s depends only on its class key: the cell V_s and
the tamper entries strictly below s, keyed by their suffix after s.  The
6^k words of the interval and circle at level k fall into about 2^(k+3)
classes.  Each class carries its lexicographically least word and its
multiplicity, so failure counts and witnesses still speak of branch words:
a count is a sum of multiplicities, and a witness is the least failing
word, which is the first one met when classes are walked in order of
their least words.

The checks themselves run once per translation class.  A shift by a
multiple of the level-(k + 1) spacing 2^-(k+2) maps every mesh of level
k + 1 and finer onto itself, and the glue, diameter and cover predicates
commute with it, so level-k classes whose cells are such translates get
the same verdicts; `Space.canonical` keys a cell up to the shift (a
Cantor cylinder up to a swap of its prefix, which keys it by its length).
Interval and circle cells and their keys are reduced integer triples (see
`geometry`), so equal cells fall into one class and keys hash integers.
A class gets no key, and its checks run on their own, in three cases: its
interval cell is clamped or meets an end cell of the next mesh, where
`diam` and the erosion clamp; its circle arc wraps past 1, where the
child indices are reduced mod 2^(k+2) and the child order rotates; or it
has tamper entries below it.  Witness words, cells and multiplicities
still come from each class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .certificates import CertNode
from .errors import CertificationError, InvalidBranch, NoCell
from .geometry import (
    CantorSpace,
    Cell,
    CircleSpace,
    FiniteMetricSpace,
    IntervalSpace,
    ProductSpace,
    Space,
)
from .transducers import SymbolicSpace

F = Fraction

Word = tuple[int, ...]


@dataclass
class CoverSystem:
    space: Space
    name: str = "cover-system"
    tamper: dict = field(default_factory=dict)
    _v_memo: dict = field(default_factory=dict, repr=False)
    _slacks: list = field(default_factory=list, repr=False)

    def child_arity(self, k: int) -> int:
        return self.space.child_arity(k)

    def branch_space(self) -> SymbolicSpace:
        # arities stabilize after the first level for every shipped kind
        return SymbolicSpace((self.child_arity(1),), self.child_arity(2))

    def epsilon(self, k: int) -> Fraction:
        return self.space.level_epsilon(k)

    def slack(self, k: int) -> Fraction:
        """Radius allowance at output resolution k: a quarter of the root's
        Lebesgue number at k = 1, then the least of half the previous
        allowance and a quarter of the level-(k - 1) Lebesgue number, run
        once per resolution into a table.  So a ball of twice the allowance
        descends one level by the certified Lebesgue numbers, and regions
        located now still fit where the previous resolution parked them."""
        if k < 1:
            raise CertificationError("resolution starts at 1")
        slacks = self._slacks
        if not slacks:
            slacks.append(self.epsilon(0) / 4)
        while len(slacks) < k:
            slacks.append(min(slacks[-1] / 2, self.epsilon(len(slacks)) / 4))
        return slacks[k - 1]

    def _children(self, s: Word, v: Cell, below: Optional[dict] = None) -> list[Cell]:
        """The one child list: the W cells below word s, padded to
        child_arity(len(s) + 1), given its cell V_s = v already read, with
        the tamper entries below s swapped in (`below` if carried, else `_rebase`)."""
        sel = self.space.select_children(v, len(s) + 1)
        if below is None and self.tamper:
            below = _rebase(self.tamper, s)
        return [below.get((j,), w) for j, w in enumerate(sel)] if below else sel

    def w_cell(self, s: Sequence[int]) -> Cell:
        s = tuple(s)
        return self._w_cell(s, self.v_cell(s[:-1])) if s else self.space.whole()

    def _w_cell(self, s: Word, parent: Cell) -> Cell:
        """W_s for a nonempty word s, from `_children` of its parent cell V_{s[:-1]}."""
        sel, j = self._children(s[:-1], parent), s[-1]
        if not 0 <= j < len(sel):  # a negative j would wrap
            raise InvalidBranch(f"symbol {j} at level {len(s)} exceeds arity {len(sel)}")
        return sel[j]

    def v_cell(self, s: Sequence[int]) -> Cell:
        s = tuple(s)
        cell = self._v_memo.get(s)
        if cell is None:
            if not s:
                cell = self._v_memo[s] = self.space.whole()
            else:
                parent = self.v_cell(s[:-1])
                cell = self._child(s, parent, self._w_cell(s, parent))
        return cell

    def _child(self, s: Word, parent: Cell, w: Cell) -> Cell:
        """V_s = parent ∩ W_s, memoized; an empty cell is refused."""
        cell = self.space.intersect(parent, w)
        if cell is None:
            raise CertificationError(f"{self.name}: empty cell at branch {s}")
        self._v_memo[s] = cell
        return cell

    def locate_child(self, t: Word, region: Cell, slack: Fraction) -> Optional[int]:
        """The least child j of word t whose open cell keeps the open
        slack-ball around every point of the closed region, or None.  The
        parent cell is read once, and its `_children` are built from it."""
        parent, memo = self.v_cell(t), self._v_memo
        for j, w in enumerate(self._children(t, parent)):
            s = t + (j,)
            cell = memo.get(s)
            if cell is None:
                cell = self._child(s, parent, w)
            if self.space.eroded_contains(cell, region, slack):
                return j
        return None


def _rebase(tamper: dict, s: Word) -> dict:
    """The tamper entries strictly below word s, keyed by suffix after s."""
    n = len(s)
    return {t[n:]: cell for t, cell in tamper.items() if len(t) > n and t[:n] == s}


def interval_system() -> CoverSystem:
    return CoverSystem(IntervalSpace(), "unit-interval")


def circle_system() -> CoverSystem:
    return CoverSystem(CircleSpace(), "circle")


def cantor_system() -> CoverSystem:
    return CoverSystem(CantorSpace(), "binary-streams")


def finite_system(distances=None) -> CoverSystem:
    if distances is None:
        one = F(1)
        distances = ((F(0), one, one), (one, F(0), one), (one, one, F(0)))
    return CoverSystem(FiniteMetricSpace(tuple(map(tuple, distances))), "finite")


def product_system(left: Space, right: Space, name="product") -> CoverSystem:
    return CoverSystem(ProductSpace(left, right), name)


def shipped_systems() -> dict[str, CoverSystem]:
    return {
        "interval": interval_system(),
        "circle": circle_system(),
        "cantor": cantor_system(),
        "finite": finite_system(),
        "cantor-product": product_system(
            CantorSpace(), CantorSpace(), "cantor-product"
        ),
    }


def corrupt_system(cs: CoverSystem, word: Word = (0,)) -> CoverSystem:
    """Shrink one W cell so child coverage fails; negative control."""
    word = tuple(word)
    if not word:
        raise CertificationError("corruption needs a nonempty branch word")
    bad = cs.space.shrink_cell(cs.w_cell(word))
    return CoverSystem(cs.space, cs.name + "-corrupted", tamper={word: bad})


def _class_levels(cs: CoverSystem, depth: int) -> Iterator[tuple[list, list]]:
    """Walk the cell classes level by level (see the module docstring).

    A class is [least word, multiplicity, V cell or None if empty, tamper
    entries below keyed by suffix].  For k = 0 .. depth - 1 this yields the
    level-k classes expanded, as (class, W cells, child V cells) triples,
    and the level-(k + 1) classes, both in order of least word.  A level is
    expanded only when the caller asks for it; a class with an empty cell
    has no children and is not expanded."""
    space = cs.space
    classes = [[(), 1, space.whole(), _rebase(cs.tamper, ())]]
    for _ in range(depth):
        expanded, children = [], {}
        for c in classes:
            s, mult, parent, below = c
            if parent is None:
                continue
            sel = cs._children(s, parent, below)
            kids = [space.intersect(parent, w) for w in sel]
            expanded.append((c, sel, kids))
            for j, v in enumerate(kids):
                sub = _rebase(below, (j,)) if below else {}
                key = (v, frozenset(sub.items())) if sub else v
                child = children.get(key)
                if child is not None:
                    child[1] += mult
                else:
                    children[key] = [s + (j,), mult, v, sub]
        classes = list(children.values())
        yield expanded, classes


def verify_cover_system(cs: CoverSystem, depth: int) -> CertNode:
    """Check every structural condition at all levels up to depth.

    The walk visits one representative per cell class (see the module
    docstring): the key is the V cell with the tamper entries below the
    word, the representative is the class's least word, and the class
    counts its words.  The classes of a level that share a translation key
    share one run of the checks.  Reports read as a word-by-word walk
    would: the header counts the words that carry a cell, failure counts
    sum multiplicities, and each witness is the lexicographically first
    failing branch word."""
    if depth < 0:
        raise CertificationError(f"cover depth must be nonnegative, got {depth}")
    cert = CertNode(f"cover system '{cs.name}' to depth {depth}")
    space = cs.space
    words = 1
    level_cells: list[list[Cell]] = []

    for k, (expanded, children) in enumerate(_class_levels(cs, depth)):
        bound = F(1, 2 ** (k + 1))
        eps = cs.epsilon(k)
        glue_bad, diam_bad, cover_bad, lebesgue_bad = (_Failures() for _ in range(4))
        verdicts = {}  # translation key -> verdict
        for (s, mult, parent, below), sel, kids in expanded:
            key = None if below else space.canonical(parent, k)
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = _class_verdict(space, parent, sel, kids, bound, eps)
                if key is not None:
                    verdicts[key] = verdict
            per_child, covered, lebesgue = verdict
            for j, (glued, small) in enumerate(per_child):
                if not glued:
                    glue_bad.add(s + (j,), mult, kids[j])
                if not small:
                    diam_bad.add(s + (j,), mult, kids[j])
            if not covered:
                cover_bad.add(s, mult, parent)
            if not lebesgue:
                lebesgue_bad.add(s, mult, parent)

        node = cert.section(f"level {k} -> {k + 1} ({words} cells)")
        _report(node, "child cells glue exactly (V = parent ∩ W, nested)", glue_bad, cs)
        _report(node, f"diameters below {bound}", diam_bad, cs)
        _report(node, "children cover parent closure", cover_bad, cs)
        _report(node, f"Lebesgue number {eps} certified by erosion", lebesgue_bad, cs)
        words = sum(mult for _, mult, v, _ in children if v is not None)
        level_cells.append(list(dict.fromkeys(v for _, _, v, _ in children if v is not None)))

    for k, distinct in enumerate(level_cells, 1):
        ok = space.open_cover_of_closure(space.whole(), distinct)
        cert.check(
            f"level {k} covers the whole space",
            ok,
            f"{len(distinct)} distinct cells",
        )
    cert.note("root cell is the whole space; decay enforced from level 1")
    return cert


def _class_verdict(
    space: Space, parent: Cell, sel: list, kids: list, bound: Fraction, eps: Fraction
):
    """The checks on one expanded class: per child, whether it glues (a
    cell nested in the parent) and whether both its cells are below the
    diameter bound; then whether the W cells cover the parent's closure,
    and whether eps is a Lebesgue number for them there."""
    p, q = bound.numerator, bound.denominator

    def small(cell) -> bool:  # diam(cell) < p/q
        x = space.diam(cell)
        return x.numerator * q < p * x.denominator

    per_child = tuple(
        (False, True) if v is None else (space.closed_subset(v, parent), small(v) and small(w))
        for w, v in zip(sel, kids)
    )
    return (
        per_child,
        space.open_cover_of_closure(parent, sel),
        space.eroded_cover_of_closure(parent, sel, eps),
    )


@dataclass
class _Failures:
    """The branch words failing one check: how many, and the first."""

    count: int = 0
    witness: Word = ()
    cell: Optional[Cell] = None

    def add(self, word: Word, multiplicity: int, cell: Optional[Cell]) -> None:
        # classes arrive in order of their least words, so the first
        # failing class holds the least failing word
        if not self.count:
            self.witness, self.cell = word, cell
        self.count += multiplicity


def _report(node: CertNode, title: str, bad: _Failures, cs: CoverSystem):
    if not bad.count:
        node.check(title, True)
    else:
        cell = "empty cell" if bad.cell is None else cs.space.describe(bad.cell)
        node.check(
            title,
            False,
            f"{bad.count} failures, first at branch {bad.witness}: {cell}",
        )


def locate_ball(cs: CoverSystem, region: Cell, radius: Fraction, k: int) -> Word:
    """The branch word of length k found by descending from the root
    through `locate_child`: each cell keeps the radius-ball around every
    point of the closed region."""
    if radius < 0:
        raise CertificationError("negative radius")
    if k < 0:
        raise InvalidBranch(f"branch length must be nonnegative, got {k}")
    t: Word = ()
    while len(t) < k:
        j = cs.locate_child(t, region, radius)
        if j is None:
            raise NoCell(
                f"no level-{len(t) + 1} cell holds the ball of radius {radius} "
                f"below branch {t}; moduli too coarse"
            )
        t = t + (j,)
    return t
