import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlift.certificates import CertNode, summary_line
from factorlift.covers import (
    CoverSystem,
    _class_verdict,
    cantor_system,
    circle_system,
    corrupt_system,
    finite_system,
    interval_system,
    locate_ball,
    product_system,
    shipped_systems,
    verify_cover_system,
)
from factorlift.errors import CertificationError, InvalidBranch, NoCell
from factorlift.geometry import (
    BaireStreamSpace,
    CantorSpace,
    CircleSpace,
    FiniteMetricSpace,
    IntervalSpace,
    ProductSpace,
    _closed_chain_cover,
    _open_chain_cover,
    dyadic_level,
)
from factorlift.transducers import Stream, validate_word

ONE = F(1)
IV, ARC = IntervalSpace().cell, CircleSpace().arc


def _ends(cell):
    """The two rationals an interval cell (u, v) or a circle arc
    (start, length) stands for."""
    a, b, d = cell
    return F(a, d), F(b, d)


# --- raw geometry ---


def test_cantor_cylinders_are_baire_cylinders():
    cantor, baire = CantorSpace(), BaireStreamSpace()
    words = [w for k in range(4) for w in itertools.product((0, 1), repeat=k)]
    for a, b in itertools.product(words, repeat=2):
        assert cantor.intersect(a, b) == baire.intersect(a, b)
        assert cantor.closed_subset(a, b) == baire.closed_subset(a, b)
        for r in (F(0), F(1, 4), F(1, 16)):
            assert cantor.eroded_contains(a, b, r) == baire.eroded_contains(a, b, r)
    x = Stream((0, 1, 1), (0,))
    assert cantor.point_cell(x, F(1, 16)) == baire.point_cell(x, F(1, 16)) == (0, 1, 1, 0)
    assert (cantor.kind, baire.kind) == ("cantor", "baire")
    assert cantor != baire
    assert (cantor.describe((0, 1)), baire.describe((0, 1))) == ("cyl[01]", "cyl[0,1]")


def test_interval_mesh_shape():
    sp = IntervalSpace()
    for k in (1, 2, 5):
        cells = sp.mesh(k)
        assert len(cells) == 2 ** (k + 1) + 1
        for cell in cells:
            u, v = _ends(cell)
            assert v - u == F(7, 8) * F(1, 2 ** k)
            assert sp.diam(cell) < F(1, 2 ** k)


def test_whole_space_diameters():
    assert IntervalSpace().diam(IntervalSpace().whole()) == 1
    assert CircleSpace().diam(CircleSpace().whole()) == F(1, 2)
    assert CantorSpace().diam(()) == F(1, 2)
    fin = finite_system().space
    assert fin.diam(fin.whole()) == 1


def test_arc_arithmetic_wraps():
    sp = CircleSpace()
    a = ARC(F(7, 8), F(1, 4))
    b = ARC(0, F(1, 8))
    assert sp.intersect(a, b) == b == (0, 1, 8)
    assert sp.contains(a, F(0))
    assert sp.eroded_contains(a, sp.point_cell(F(0)), 0)
    # the closed reading keeps the ends, the open one does not
    assert sp.contains(a, F(1, 8)) and sp.contains(a, F(7, 8))
    assert not sp.eroded_contains(a, sp.point_cell(F(1, 8)), 0)
    assert not sp.contains(a, F(1, 4))
    assert sp.closed_subset(ARC(F(15, 16), F(1, 8)), a)
    assert not sp.closed_subset(b, ARC(F(15, 16), F(1, 32)))


def test_interval_relative_topology_at_edges():
    sp = IntervalSpace()
    # a cell sticking past 0 is relatively open there, one ending at 0 is not
    past = IV(F(-1, 8), F(1, 4))
    assert sp.eroded_contains(past, IV(0, 0), F(0))
    assert not sp.eroded_contains(IV(0, F(1, 4)), IV(0, 0), F(0))
    assert sp.eroded_contains(past, IV(0, F(1, 64)), F(1, 16))
    # the closed reading keeps both ends of the clamped cell
    assert sp.contains(past, F(0)) and sp.contains(past, F(1, 4))
    assert not sp.contains(past, F(1, 3))


def test_finite_space_validation():
    with pytest.raises(CertificationError):
        FiniteMetricSpace(((F(0),),))
    with pytest.raises(CertificationError):
        FiniteMetricSpace(((F(0), F(1)), (F(2), F(0))))
    # triangle violation: d(0,2) = 5 > 1 + 1
    with pytest.raises(CertificationError):
        FiniteMetricSpace(
            (
                (F(0), F(1), F(5)),
                (F(1), F(0), F(1)),
                (F(5), F(1), F(0)),
            )
        )


def test_dyadic_level_rejects_nonpositive_radius():
    for r in (F(0), F(-1, 4)):
        with pytest.raises(CertificationError):
            dyadic_level(r)


@given(st.fractions(min_value=0, max_value=4, max_denominator=2 ** 40).filter(lambda r: r > 0))
def test_dyadic_level_matches_halving_loop(r):
    m = 0
    while F(1, 2 ** (m + 1)) >= r:
        m += 1
    assert dyadic_level(r) == m


LINE = st.fractions(min_value=-1, max_value=2, max_denominator=8)
LINE_INTERVALS = st.lists(st.tuples(LINE, LINE), max_size=8)


def _critical_points(a, b, intervals):
    """a, b and every endpoint in between, with the midpoints of
    consecutive ones: a union of intervals covers [a, b] iff it covers
    these points."""
    pts = sorted({a, b} | {e for iv in intervals for e in iv if a <= e <= b})
    return pts + [(x + y) / 2 for x, y in zip(pts, pts[1:])]


@given(LINE, LINE, LINE_INTERVALS)
def test_open_chain_cover_matches_pointwise(a, b, intervals):
    want = a > b or all(
        any(u < x < v for u, v in intervals) for x in _critical_points(a, b, intervals)
    )
    assert _open_chain_cover(a, b, intervals) == want


@given(LINE, LINE, LINE_INTERVALS)
def test_closed_chain_cover_matches_pointwise(a, b, intervals):
    want = a > b or all(
        any(p <= x <= q for p, q in intervals) for x in _critical_points(a, b, intervals)
    )
    assert _closed_chain_cover(a, b, intervals) == want


BITS = st.lists(st.integers(0, 1), max_size=7).map(tuple)


@given(BITS.filter(lambda w: len(w) <= 4), st.lists(BITS, max_size=8))
def test_cantor_cover_matches_enumeration(base, cells):
    sp = CantorSpace()
    words = [w for w in cells if sp._compatible(w, base)]
    depth = max([len(base)] + [len(w) for w in words])
    frontier = [base + t for t in itertools.product((0, 1), repeat=depth - len(base))]
    want = all(any(e[: len(w)] == w for w in words) for e in frontier)
    assert sp._brute_cover(base, cells) == want


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CertificationError as exc:
        return f"{type(exc).__name__}: {exc}"


@given(BITS.filter(lambda w: len(w) <= 6), st.integers(0, 7))
def test_cantor_select_children_matches_mesh_filter(base, k):
    sp = CantorSpace()

    def filtered():
        return sp._pad([c for c in sp.mesh(k) if sp._compatible(c, base)], 2)

    assert _outcome(sp.select_children, base, k) == _outcome(filtered)


# Reference kernels: the Fraction loops that selected the interval and circle
# children before the integer mesh indices replaced them, with the open-meets-
# closed predicate each space spelled out on its own.


def _ref_mesh(k):
    h = F(1, 2 ** (k + 1))
    return h, F(7, 8) * h


def _ref_interval_children(sp, base, k):
    a, b = max(base[0], F(0)), min(base[1], F(1))
    h, r = _ref_mesh(k)
    pool = []
    for j in range(max(0, math.floor((a - r) / h)), min(2 ** (k + 1), math.ceil((b + r) / h)) + 1):
        u, v = j * h - r, j * h + r
        if u < b and v > a:
            pool.append((u, v))
    return sp._pad(pool, sp.child_arity(k))


def _ref_arc(start, length):
    return (F(0), F(1)) if length >= 1 else (start % 1, length)


def _ref_cells(make, ref, *args):
    """The Fraction-pair cells a reference returns, each built as a cell."""
    return [make(*cell) for cell in ref(*args)]


def _ref_arc_meets(open_cell, base):
    u, l1 = open_cell
    s, l2 = base
    if l1 >= 1 or l2 >= 1:
        return True
    d = (s - u) % 1
    return any(d2 < l1 and d2 + l2 > 0 for d2 in (d, d - 1))


def _ref_circle_children(sp, base, k):
    bs, bl = base
    h, r = _ref_mesh(k)
    n = 2 ** (k + 1)
    seen = []
    for j in range(math.floor((bs - r) / h), math.ceil((bs + bl + r) / h) + 1):
        jn = j % n
        if jn not in seen and _ref_arc_meets(_ref_arc(jn * h - r, 2 * r), base):
            seen.append(jn)
    pool = [_ref_arc(jn * h - r, 2 * r) for jn in sorted(seen)]
    return sp._pad(pool, sp.child_arity(k))


@st.composite
def _level_and_span(draw, low, high):
    """A level k in 1..24 and a closed span [a, a + w] whose ends are any
    rationals near the level-k mesh scale, from `low` to `high` in units of
    the unit interval, at most about ten mesh spacings wide."""
    k = draw(st.integers(1, 24))
    scale = 2 ** (k + 4)
    grid = draw(st.integers(int(low * scale), int(high * scale)))
    nudge = draw(st.fractions(min_value=-1, max_value=1, max_denominator=97))
    a = (grid + nudge) / scale
    w = draw(st.fractions(min_value=0, max_value=80, max_denominator=97)) / scale
    return k, a, w


@settings(max_examples=400)
@given(_level_and_span(-F(1, 8), F(9, 8)))
def test_interval_select_children_matches_fraction_loop(case):
    # cells poke past 0 and 1; pools overflow the arity in the wide draws
    k, a, w = case
    sp = IntervalSpace()
    base = (a, a + w)
    assert _outcome(sp.select_children, IV(*base), k) == _outcome(
        _ref_cells, IV, _ref_interval_children, sp, base, k
    )


@settings(max_examples=400)
@given(_level_and_span(-1, 2))
def test_circle_select_children_matches_fraction_loop(case):
    # starts off [0, 1) and arcs across 0 are read modulo 1
    k, s, l = case
    sp = CircleSpace()
    for base in ((s, l), (s % 1, l), (1 - l / 2, l)):
        assert _outcome(sp.select_children, ARC(*base), k) == _outcome(
            _ref_cells, ARC, _ref_circle_children, sp, base, k
        )


@pytest.mark.parametrize("k", range(1, 9))
def test_whole_cells_select_children_match_fraction_loop(k):
    interval, circle = IntervalSpace(), CircleSpace()
    for base in (_ends(interval.whole()), (F(-1, 3), F(4, 3)), (F(0), F(1))):
        assert _outcome(interval.select_children, IV(*base), k) == _outcome(
            _ref_cells, IV, _ref_interval_children, interval, base, k
        )
    for base in (_ends(circle.whole()), (F(1, 3), F(1)), (F(5, 7), F(3, 2))):
        assert _outcome(circle.select_children, ARC(*base), k) == _outcome(
            _ref_cells, ARC, _ref_circle_children, circle, base, k
        )


def test_overflowing_pools_are_refused_before_their_cells_are_built():
    assert _outcome(IntervalSpace().select_children, IV(0, 1), 24) == (
        f"CertificationError: interval: pool of {2 ** 25 + 1} exceeds arity 6"
    )
    assert _outcome(CircleSpace().select_children, ARC(0, 1), 24) == (
        f"CertificationError: circle: pool of {2 ** 25} exceeds arity 6"
    )


def _closure_in_open(space, inner, outer) -> bool:
    """Reference: the closure of inner inside the open cell outer, as each
    space kind once spelled it out on its own."""
    if space.kind == "interval":
        a, b = space.hull(inner)
        u, v = _ends(outer)
        return (u < 0 or u < a) and (v > 1 or b < v)
    if space.kind == "circle":
        (si, li), (so, lo) = _ends(inner), _ends(outer)
        if lo >= 1:
            return True
        d = (si - so) % 1
        return 0 < d and d + li < lo
    if space.kind == "product":
        return _closure_in_open(space.left, inner[0], outer[0]) and _closure_in_open(
            space.right, inner[1], outer[1]
        )
    # cylinders and finite point sets are clopen
    return space.closed_subset(inner, outer)


NEAR_UNIT = st.fractions(min_value=F(-1, 4), max_value=F(5, 4), max_denominator=16)
INTERVAL_CELLS = st.tuples(NEAR_UNIT, NEAR_UNIT).map(lambda c: IV(*sorted(c)))
ARCS = st.tuples(
    st.fractions(min_value=0, max_value=1, max_denominator=16).filter(lambda s: s < 1),
    st.fractions(min_value=0, max_value=1, max_denominator=16),
).map(lambda a: ARC(*a))
CELL_KINDS = {
    "interval": (IntervalSpace(), INTERVAL_CELLS),
    "circle": (CircleSpace(), ARCS),
    "cantor": (CantorSpace(), BITS),
    "baire": (BaireStreamSpace(), st.lists(st.integers(0, 3), max_size=5).map(tuple)),
    "finite": (
        finite_system().space,
        st.sets(st.integers(0, 2), min_size=1).map(lambda s: tuple(sorted(s))),
    ),
    "product": (ProductSpace(IntervalSpace(), CircleSpace()), st.tuples(INTERVAL_CELLS, ARCS)),
}


@pytest.mark.parametrize("kind", CELL_KINDS)
@given(data=st.data())
def test_erosion_at_radius_zero_is_closure_inside_open(kind, data):
    space, cells = CELL_KINDS[kind]
    inner, outer = data.draw(cells), data.draw(cells)
    assert space.eroded_contains(outer, inner, F(0)) == _closure_in_open(space, inner, outer)


# Reference predicates and builders: the Fraction bodies of the interval and
# circle code from before it compared integer numerators over a common
# denominator, and from before cells were integer triples.  They read cells
# as pairs of rationals, as `_ends` gives them.


def _ref_hull(cell):
    u, v = cell
    return max(u, F(0)), min(v, F(1))


def _ref_interval_eroded_contains(outer, region, radius):
    u, v = outer
    p, q = _ref_hull(region)
    left = u < 0 or (p - radius >= u and p > u)
    right = v > 1 or (q + radius <= v and q < v)
    return left and right


def _ref_erode(cell, eps):
    u, v = cell
    lo = F(0) if u < 0 else u + eps
    hi = F(1) if v > 1 else v - eps
    return (lo, hi) if lo <= hi else None


def _ref_interval_open_cover(base, cells):
    a, b = _ref_hull(base)
    return _open_chain_cover(a, b, list(cells))


def _ref_interval_eroded_cover(base, cells, eps):
    a, b = _ref_hull(base)
    eroded = [e for e in (_ref_erode(c, eps) for c in cells) if e is not None]
    return _closed_chain_cover(a, b, eroded)


def _ref_interval_intersect(a, b):
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if lo < hi else None


def _ref_interval_closed_subset(inner, outer):
    a, b = _ref_hull(inner)
    c, d = _ref_hull(outer)
    return c <= a and b <= d


def _ref_interval_shrink(cell):
    u, v = cell
    mid = (u + v) / 2
    return (mid - (v - u) / 200, mid + (v - u) / 200)


def _ref_arc_intersect(a, b):
    sa, la = a
    sb, lb = b
    if la >= 1:
        return b
    if lb >= 1:
        return a
    if la + lb >= 1:
        raise CertificationError("arc intersection may be disconnected")
    d = (sb - sa) % 1
    for d2 in (d, d - 1):
        lo, hi = max(F(0), d2), min(la, d2 + lb)
        if lo < hi:
            return _ref_arc(sa + lo, hi - lo)
    return None


def _ref_arc_contains(cell, x):
    s, l = cell
    return l >= 1 or (x - s) % 1 <= l


def _ref_arc_closed_subset(inner, outer):
    si, li = inner
    so, lo = outer
    if lo >= 1:
        return True
    if li > lo:
        return False
    return (si - so) % 1 + li <= lo


def _ref_arc_eroded_contains(outer, region, radius):
    s, l = outer
    if l >= 1:
        return True
    if l - 2 * radius < 0:
        return False
    if radius == 0:
        d = (region[0] - s) % 1
        return 0 < d and d + region[1] < l
    return _ref_arc_closed_subset(region, ((s + radius) % 1, l - 2 * radius))


def _ref_unroll(base_start, arcs):
    out = []
    for s, l in arcs:
        d = (s - base_start) % 1
        out.append((d, d + l))
        out.append((d - 1, d - 1 + l))
    return out


def _ref_arc_open_cover(base, cells):
    bs, bl = base
    return _open_chain_cover(F(0), bl, _ref_unroll(bs, cells))


def _ref_arc_eroded_cover(base, cells, eps):
    bs, bl = base
    eroded = []
    for s, l in cells:
        if l >= 1:
            return True
        if l - 2 * eps >= 0:
            eroded.append(_ref_arc(s + eps, l - 2 * eps))
    return _closed_chain_cover(F(0), bl, _ref_unroll(bs, eroded))


def _ref_arc_shrink(cell):
    s, l = cell
    return _ref_arc(s + l / 2 - l / 200, l / 100)


def _ref_span(a, b, k):
    """The level-k mesh indices j with (8j - 7)/2^(k+4) < b and
    (8j + 7)/2^(k+4) > a, as Fraction floor and ceiling division."""
    d = 2 ** (k + 4)
    return math.floor((a * d - 7) / 8) + 1, math.ceil((b * d + 7) / 8) - 1


def _ref_shift_key(start, length, k, first):
    n = 2 ** (k + 2)
    lo, hi = _ref_span(start, start + length, k + 1)
    if lo < first or hi >= n:
        return None
    return start % F(1, n), length


def _ref_interval_canonical(cell, k):
    u, v = cell
    if u < 0 or v > 1:
        return None
    return _ref_shift_key(u, v - u, k, 1)


def _ref_arc_canonical(cell, k):
    s, l = cell
    return None if l >= 1 else _ref_shift_key(s, l, k, 0)


def _key_reads(key, k):
    """A translation key as (start mod 2^-(k+2), length); the key must be a
    reduced triple."""
    if key is None:
        return None
    x, l, d = key
    assert d > 0 and math.gcd(x, l, d) == 1, key
    return F(x, d * 2 ** (k + 2)), F(l, d)


def _reduced_cell(cell):
    return isinstance(cell, tuple) and cell[2] > 0 and math.gcd(*cell) == 1


def _same_outcome(got, want):
    """The calls got() and want() return equal values with equal str, or
    raise the same exception type with the same message."""

    def run(f):
        try:
            out = f()
        except Exception as exc:
            return type(exc), str(exc)
        return out, str(out)

    assert run(got) == run(want)


def _built(make, pair):
    """A reference's Fraction-pair cell built as a cell; None stays None."""
    return None if pair is None else make(*pair)


# Denominators the shipped systems meet: dyadic mesh ends, the thirds and
# sevenths of the rotation regions, and shrink_cell's /200.
_DENOMINATORS = st.sampled_from([1, 2, 3, 7, 16, 21, 200, 1024])


def _rationals(lo, hi):
    return _DENOMINATORS.flatmap(lambda q: st.integers(lo * q, hi * q).map(lambda p: F(p, q)))


ORACLE_RADII = st.one_of(st.just(F(0)), _rationals(0, 1), _rationals(0, 1).map(lambda r: r / 16))
# ends past 0 or 1 are clamped; u > v after clamping is an empty hull
_LINE_CELLS = st.tuples(_rationals(-1, 2), _rationals(-1, 2))
ORACLE_INTERVALS = st.one_of(
    _LINE_CELLS.map(lambda c: IV(*c)),
    _rationals(-1, 2).map(lambda x: IV(x, x)),
    _LINE_CELLS.map(lambda c: IntervalSpace().shrink_cell(IV(*c))),
)
# starts in [0, 1), near 0 or near 1, so start + length past 1 wraps through 0
_STARTS = st.one_of(_rationals(0, 1), _rationals(0, 1).map(lambda s: 1 - s)).filter(
    lambda s: s < 1
)
_ARC_CELLS = st.tuples(_STARTS, _rationals(0, 1))
# lengths 0 and 1 (the whole circle) come up among the drawn lengths
ORACLE_ARCS = st.one_of(
    _ARC_CELLS.map(lambda c: ARC(*c)),
    _ARC_CELLS.map(lambda c: CircleSpace().shrink_cell(ARC(*c))),
)
ORACLE_COVERS = {
    "interval": (IntervalSpace(), ORACLE_INTERVALS,
                 _ref_interval_open_cover, _ref_interval_eroded_cover),
    "circle": (CircleSpace(), ORACLE_ARCS, _ref_arc_open_cover, _ref_arc_eroded_cover),
}


@settings(max_examples=500)
@given(ORACLE_ARCS, st.data())
def test_arc_predicates_match_fraction_oracles(a, data):
    """b drawn freely or starting inside a, so that meets past the wrap come
    up; x drawn freely or at an end of a."""
    ea = _ends(a)
    inside = st.tuples(_rationals(0, 1), _rationals(0, 1)).map(
        lambda fl: ARC(ea[0] + fl[0] * ea[1], fl[1])
    )
    b = data.draw(st.one_of(ORACLE_ARCS, inside), label="b")
    eb = _ends(b)
    x = data.draw(st.one_of(_rationals(-1, 2), st.sampled_from([ea[0], ea[0] + ea[1]])), label="x")
    radius = data.draw(ORACLE_RADII, label="radius")
    sp = CircleSpace()
    _same_outcome(lambda: sp.intersect(a, b), lambda: _built(ARC, _ref_arc_intersect(ea, eb)))
    _same_outcome(lambda: sp.intersect(b, a), lambda: _built(ARC, _ref_arc_intersect(eb, ea)))
    _same_outcome(lambda: sp.contains(a, x), lambda: _ref_arc_contains(ea, x))
    _same_outcome(lambda: sp.closed_subset(a, b), lambda: _ref_arc_closed_subset(ea, eb))
    _same_outcome(
        lambda: sp.eroded_contains(a, b, radius),
        lambda: _ref_arc_eroded_contains(ea, eb, radius),
    )


@settings(max_examples=500)
@given(ORACLE_INTERVALS, ORACLE_INTERVALS, ORACLE_RADII)
def test_interval_erosion_matches_fraction_oracle(outer, region, radius):
    sp = IntervalSpace()
    eo, er = _ends(outer), _ends(region)
    _same_outcome(
        lambda: sp.eroded_contains(outer, region, radius),
        lambda: _ref_interval_eroded_contains(eo, er, radius),
    )
    _same_outcome(lambda: sp.intersect(outer, region),
                  lambda: _built(IV, _ref_interval_intersect(eo, er)))
    _same_outcome(lambda: sp.closed_subset(region, outer),
                  lambda: _ref_interval_closed_subset(er, eo))


@pytest.mark.parametrize("kind", ORACLE_COVERS)
@settings(max_examples=500)
@given(data=st.data())
def test_cover_checks_match_fraction_oracles(kind, data):
    """Drawn cells, or mesh cells of one level with some left out, so that
    both verdicts come up."""
    sp, cells, open_ref, eroded_ref = ORACLE_COVERS[kind]
    base = data.draw(cells, label="base")
    mesh = st.integers(1, 3).flatmap(
        lambda k: st.lists(st.sampled_from(sp.mesh(k)), max_size=2 ** (k + 1) + 1)
    )
    kids = data.draw(st.one_of(st.lists(cells, max_size=6), mesh), label="cells")
    eps = data.draw(ORACLE_RADII, label="eps")
    eb, ek = _ends(base), [_ends(c) for c in kids]
    _same_outcome(lambda: sp.open_cover_of_closure(base, kids), lambda: open_ref(eb, ek))
    _same_outcome(
        lambda: sp.eroded_cover_of_closure(base, kids, eps), lambda: eroded_ref(eb, ek, eps)
    )


@settings(max_examples=400)
@given(_level_and_span(-F(1, 8), F(9, 8)), _rationals(-1, 2))
def test_interval_builders_match_fraction_oracles(case, x):
    """The constructor, shrink_cell, describe, canonical and the readings of
    a cell, on cells at a level's mesh scale, clamped or not."""
    k, a, w = case
    sp = IntervalSpace()
    for ends in ((a, a + w), (a + w, a), (x, a)):
        cell = IV(*ends)
        assert _reduced_cell(cell) and _ends(cell) == ends
        assert sp.shrink_cell(cell) == IV(*_ref_interval_shrink(ends))
        assert _reduced_cell(sp.shrink_cell(cell))
        assert sp.describe(cell) == f"interval({ends[0]}, {ends[1]})"
        assert _key_reads(sp.canonical(cell, k), k) == _ref_interval_canonical(ends, k)
        lo, hi = _ref_hull(ends)
        assert sp.hull(cell) == (lo, hi)
        assert sp.diam(cell) == max(hi - lo, F(0))
        assert sp.witness_point(cell) == (lo + hi) / 2
    assert sp.point_cell(x) == IV(x, x) and _ends(IV(x, x)) == (x, x)


@settings(max_examples=400)
@given(_level_and_span(-1, 2), _rationals(-1, 2))
def test_arc_builders_match_fraction_oracles(case, x):
    """The constructor (start mod 1, the whole circle from length 1 on),
    shrink_cell, describe, canonical and the readings of an arc."""
    k, s, l = case
    sp = CircleSpace()
    for start, length in ((s, l), (1 - l / 2, l), (x, l * 2 ** k), (x, 1), (s, 1 + l)):
        cell = ARC(start, length)
        ends = _ref_arc(start, length)
        assert _reduced_cell(cell) and _ends(cell) == ends
        assert sp.shrink_cell(cell) == ARC(*_ref_arc_shrink(ends))
        assert _reduced_cell(sp.shrink_cell(cell))
        assert sp.describe(cell) == f"arc(start={ends[0]}, length={ends[1]})"
        assert _key_reads(sp.canonical(cell, k), k) == _ref_arc_canonical(ends, k)
        assert sp.diam(cell) == min(ends[1], F(1, 2))
        assert sp.witness_point(cell) == (ends[0] + ends[1] / 2) % 1
    assert sp.point_cell(x) == ARC(x, 0) and _ends(ARC(x, 0)) == (x % 1, 0)


@pytest.mark.parametrize("k", range(1, 7))
def test_mesh_builders_match_fraction_oracles(k):
    h, r = _ref_mesh(k)
    assert IntervalSpace().mesh(k) == [IV(j * h - r, j * h + r) for j in range(2 ** (k + 1) + 1)]
    assert CircleSpace().mesh(k) == [
        ARC(*_ref_arc(j * h - r, 2 * r)) for j in range(2 ** (k + 1))
    ]


_QUARTERS = _rationals(0, 1).map(lambda r: r / 4)


@settings(max_examples=300)
@given(_rationals(-1, 2), _QUARTERS, _QUARTERS, _QUARTERS, _STARTS, st.integers(1, 6))
def test_equal_cells_built_two_ways_are_one_reduced_tuple(u, w, pad0, pad1, s, k):
    """A cell built by the constructor, by intersecting wider cells over
    other denominators, by shrinking a cell a hundred times wider, or as a
    mesh cell is one reduced tuple, so class keys and distinct counts
    cannot split it."""
    iv, circle = IntervalSpace(), CircleSpace()
    v = u + w + F(1, 1024)
    mid, half = (u + v) / 2, (v - u) / 2
    intervals = [
        IV(u, v),
        iv.intersect(IV(u - pad0, v), IV(u, v + pad1)),
        iv.intersect(IV(u, v + pad1), IV(u - pad0, v)),
        iv.shrink_cell(IV(mid - 100 * half, mid + 100 * half)),
    ]
    l = w + F(1, 1024)
    arcs = [
        ARC(s, l),
        ARC(s + 3, l),
        ARC(s - 1, l),
        circle.intersect(ARC(s - pad0 / 2, l + pad0 / 2), ARC(s, l + pad1 / 2)),
        circle.shrink_cell(ARC(s + l / 2 - 50 * l, 100 * l)) if l < F(1, 100) else ARC(s, l),
    ]
    j = 2 ** k // 3
    mesh = [IntervalSpace().mesh(k)[j], IV(F(8 * j - 7, 2 ** (k + 4)), F(8 * j + 7, 2 ** (k + 4)))]
    for built in (intervals, arcs, mesh):
        assert all(_reduced_cell(c) for c in built), built
        assert len(dict.fromkeys(built)) == 1, built


# --- cover-system structure ---


def test_arities_and_branch_spaces():
    assert [interval_system().child_arity(k) for k in (1, 2, 3)] == [5, 6, 6]
    assert [circle_system().child_arity(k) for k in (1, 2, 3)] == [4, 6, 6]
    assert [cantor_system().child_arity(k) for k in (1, 2)] == [2, 2]
    assert [finite_system().child_arity(k) for k in (1, 2)] == [3, 2]
    prod = product_system(CantorSpace(), CantorSpace())
    assert prod.child_arity(1) == 4
    lam = interval_system().branch_space()
    assert lam.arities(10) == [5] + [6] * 9


def test_cells_glue_by_intersection():
    cs = interval_system()
    s = (2, 3)
    parent = cs.v_cell((2,))
    w = cs.w_cell(s)
    assert cs.v_cell(s) == cs.space.intersect(parent, w)
    assert cs.space.closed_subset(cs.v_cell(s), parent)


def test_cantor_branches_are_cylinders():
    cs = cantor_system()
    assert cs.v_cell((0, 1, 0)) == (0, 1, 0)
    assert cs.w_cell((0, 1)) == (0, 1)


def test_validate_word():
    cs = interval_system()
    with pytest.raises(InvalidBranch):
        cs.v_cell((5,))
    with pytest.raises(InvalidBranch):
        cs.v_cell((0, 6))
    cs.v_cell((4, 5, 5))


def _ref_word_error(cs, s):
    """Reference: the whole-word check the cell lookups once ran on every
    call; the message for the first bad symbol, or None."""
    for i, j in enumerate(s):
        if not 0 <= j < cs.child_arity(i + 1):
            return f"symbol {j} at level {i + 1} exceeds arity {cs.child_arity(i + 1)}"
    return None


def _invalid_branch(fn, *args):
    """The message of the InvalidBranch the call raises, or None."""
    try:
        fn(*args)
    except InvalidBranch as err:
        return str(err)
    return None


WARM_SYSTEMS = shipped_systems()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(WARM_SYSTEMS)), st.data())
def test_cell_lookups_check_each_symbol_like_the_whole_word_check(name, data):
    warm = WARM_SYSTEMS[name]
    n = data.draw(st.integers(0, 8))
    s = tuple(data.draw(st.integers(-2, warm.child_arity(i + 1) + 1)) for i in range(n))
    expected = _ref_word_error(warm, s)
    assert (_invalid_branch(validate_word, warm.branch_space(), s) is None) == (expected is None)
    # memo-warm: the shared system caches the longest valid prefix first
    good = s
    while _ref_word_error(warm, good):
        good = good[:-1]
    warm.v_cell(good)
    for lookup in ("v_cell", "w_cell"):
        # memo-cold: a fresh system for each lookup
        assert _invalid_branch(getattr(shipped_systems()[name], lookup), s) == expected
        assert _invalid_branch(getattr(warm, lookup), s) == expected


CELL_ERROR = re.compile(r"symbol (-?\d+) at level (\d+) exceeds arity (\d+)")
WORD_ERROR = re.compile(r"symbol (-?\d+) at position (\d+) leaves alphabet of size (\d+)")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(WARM_SYSTEMS)), st.data())
def test_both_invalid_branch_messages_name_the_same_symbol(name, data):
    # the cell lookups count levels from 1, a packed word counts positions
    # from 0: symbol i of a branch word sits at level i + 1
    cs = shipped_systems()[name]
    n = data.draw(st.integers(0, 6))
    good = tuple(data.draw(st.integers(0, cs.child_arity(i + 1) - 1)) for i in range(n))
    arity = cs.child_arity(n + 1)
    bad = data.draw(st.one_of(st.integers(-3, -1), st.integers(arity, arity + 3)))
    word = good + (bad,) + tuple(data.draw(st.lists(st.integers(0, 1), max_size=3)))
    cell = CELL_ERROR.fullmatch(_invalid_branch(cs.v_cell, word))
    proj = WORD_ERROR.fullmatch(_invalid_branch(validate_word, cs.branch_space(), word))
    assert cell and proj
    assert cell[1] == proj[1] == str(bad)
    assert int(cell[2]) == int(proj[2]) + 1 == n + 1
    assert cell[3] == proj[3] == str(arity)


# --- locate_child against a word-by-word scan ---


def _ref_locate_child(cs, t, region, slack):
    """Reference: the least child whose cell, looked up word by word
    through `v_cell`, keeps the slack-ball around the region."""
    for j in range(cs.child_arity(len(t) + 1)):
        if cs.space.eroded_contains(cs.v_cell(t + (j,)), region, slack):
            return j
    return None


LOCATE_SYSTEMS = {
    "interval": (interval_system, INTERVAL_CELLS),
    "circle": (circle_system, ARCS),
    "cantor-product": (
        lambda: product_system(CantorSpace(), CantorSpace(), "cantor-product"),
        st.tuples(BITS, BITS),
    ),
}


@st.composite
def _locate_cases(draw):
    """A fresh-system maker, possibly corrupted below the word t, a region
    drawn freely or shrunk inside a child's cell, a slack, and the children
    to look up before locating."""
    make, regions = LOCATE_SYSTEMS[draw(st.sampled_from(sorted(LOCATE_SYSTEMS)))]
    base = make()
    t = tuple(
        draw(st.integers(0, base.child_arity(i + 1) - 1)) for i in range(draw(st.integers(0, 5)))
    )
    arity = base.child_arity(len(t) + 1)
    region = draw(st.one_of(
        regions, st.integers(0, arity - 1).map(lambda j: base.space.shrink_cell(base.v_cell(t + (j,))))
    ))
    tamper = {}
    if draw(st.booleans()):
        tamper = corrupt_system(base, t + (draw(st.integers(0, arity - 1)),)).tamper
    slack = draw(st.one_of(st.just(F(0)), st.integers(3, 12).map(lambda m: F(1, 2 ** m))))
    warm = draw(st.lists(st.integers(0, arity - 1), max_size=2))
    return (lambda: CoverSystem(base.space, base.name, tamper=dict(tamper))), t, region, slack, warm


@settings(max_examples=300, deadline=None)
@given(_locate_cases())
def test_locate_child_matches_a_word_by_word_scan(case):
    make, t, region, slack, warm = case
    cs = make()
    for j in warm:  # children already in the memo are read from it
        _outcome(cs.v_cell, t + (j,))
    got = _outcome(cs.locate_child, t, region, slack)
    assert got == _outcome(_ref_locate_child, make(), t, region, slack)
    fresh = make()
    for s, cell in cs._v_memo.items():
        assert cell == fresh.v_cell(s)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(LOCATE_SYSTEMS)), st.data())
def test_an_empty_child_raises_the_same_error_through_locate_child(name, data):
    # W cell t + (j,) swapped for a mesh cell that misses V_t; the whole
    # space as region makes the scan reach child j
    make = LOCATE_SYSTEMS[name][0]
    base = make()
    t = tuple(
        data.draw(st.integers(0, base.child_arity(i + 1) - 1)) for i in range(data.draw(st.integers(1, 3)))
    )
    word = t + (data.draw(st.integers(0, base.child_arity(len(t) + 1) - 1)),)
    far = next(m for m in base.space.mesh(len(word)) if base.space.intersect(base.v_cell(t), m) is None)
    tampered = lambda: CoverSystem(base.space, "far", tamper={word: far})
    expected = _outcome(tampered().v_cell, word)
    assert expected == f"CertificationError: far: empty cell at branch {word}"
    assert _outcome(tampered().locate_child, t, base.space.whole(), F(0)) == expected


def _ref_open_contains(space, cell, x) -> bool:
    """Reference: the open reading `contains(cell, x, closed=False)` each
    space kind once carried beside its closed one."""
    if space.kind == "interval":
        u, v = _ends(cell)
        return u < x < v
    if space.kind == "circle":
        s, l = _ends(cell)
        return l >= 1 or 0 < (x - s) % 1 < l
    if space.kind == "product":
        return _ref_open_contains(space.left, cell[0], x[0]) and _ref_open_contains(
            space.right, cell[1], x[1]
        )
    return space.contains(cell, x)  # cylinders and point sets read alike


def _edge_points(space, cell):
    """Points on and next to the ends of an interval cell or circle arc."""
    if space.kind == "interval":
        ends = space.hull(cell)
    elif space.kind == "circle":
        s, l = _ends(cell)
        ends = (s, (s + l) % 1)
    else:
        return []
    return [e + d for e in ends for d in (0, F(1, 2**30), -F(1, 2**30)) if 0 <= e + d <= 1]


@pytest.mark.parametrize("name", sorted(shipped_systems()))
def test_open_reading_is_eroded_contains_at_radius_zero(name):
    cs = shipped_systems()[name]
    sp = cs.space
    rng = random.Random(31)
    for _ in range(40):
        word = tuple(rng.randrange(cs.child_arity(i + 1)) for i in range(rng.randrange(5)))
        cell = cs.v_cell(word)
        points = [sp.sample_point(rng) for _ in range(4)] + [sp.witness_point(cell)]
        for x in points + _edge_points(sp, cell):
            assert sp.eroded_contains(cell, sp.point_cell(x), 0) == _ref_open_contains(
                sp, cell, x
            ), (word, x)
            if sp.eroded_contains(cell, sp.point_cell(x), 0):
                assert sp.contains(cell, x)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
        st.integers(1, 4),
    )
))
def test_finite_select_children_matches_mesh_filter(case):
    n, base, k = case
    sp = FiniteMetricSpace(tuple(tuple(F(int(i != j)) for j in range(n)) for i in range(n)))
    base = tuple(base)

    def filtered():
        return sp._pad([c for c in sp.mesh(k) if set(c) & set(base)], sp.child_arity(k))

    assert _outcome(sp.select_children, base, k) == _outcome(filtered)


# --- verification ---


@pytest.mark.parametrize(
    "make, depth",
    [
        (interval_system, 4),
        (circle_system, 4),
        (cantor_system, 8),
        (finite_system, 5),
        (lambda: product_system(CantorSpace(), CantorSpace()), 5),
        (interval_system, 0),
    ],
)
def test_verify_passes(make, depth):
    cs = make()
    cert = verify_cover_system(cs, depth)
    assert cert.ok, cert.render()
    # the walk keeps no per-word state
    assert not cs._v_memo and not cs._sel_memo


def test_verify_interval_circle_product():
    cs = product_system(IntervalSpace(), CircleSpace())
    assert verify_cover_system(cs, 2).ok


@pytest.mark.parametrize(
    "make", [interval_system, circle_system, cantor_system, finite_system]
)
def test_corrupted_system_fails_with_witness(make):
    cert = verify_cover_system(corrupt_system(make(), (0,)), 3)
    assert not cert.ok
    failure = cert.first_failure()
    assert failure is not None
    assert "cover" in failure.title or "covers" in failure.title


def test_verify_cantor_depth_15():
    assert verify_cover_system(cantor_system(), 15).ok


def test_verify_interval_depth_7():
    assert verify_cover_system(interval_system(), 7).ok


@pytest.mark.parametrize("word", [(0,) * 12, (1, 0) * 6, (1, 1, 0) * 4])
def test_corrupted_cantor_deep_names_parent(word):
    cert = verify_cover_system(corrupt_system(cantor_system(), word), 12)
    assert not cert.ok
    failure = cert.first_failure()
    assert failure.title == "children cover parent closure"
    assert failure.detail.startswith(f"1 failures, first at branch {word[:-1]}:")


# Length-7 words whose corruption FAILS the child-coverage check at depth 7
# with the parent word as witness, found by trial on the per-class walk that
# checked every class on its own.  Each parent's untampered cell has a
# translation key, so the level-6 classes that share it pass; only the
# tampered class may not take their verdict.
@pytest.mark.parametrize(
    "make, word",
    [
        (interval_system, (2, 2, 5, 5, 1, 5, 1)),
        (interval_system, (3, 3, 0, 5, 3, 0, 1)),
        (circle_system, (1, 3, 5, 3, 5, 2, 1)),
        (circle_system, (3, 2, 0, 2, 4, 3, 1)),
    ],
)
def test_corrupted_dyadic_deep_names_parent(make, word):
    base = make()
    assert base.space.canonical(base.v_cell(word[:-1]), 6) is not None
    cert = verify_cover_system(corrupt_system(base, word), 7)
    failure = cert.first_failure()
    assert failure.title == "children cover parent closure"
    assert failure.detail.startswith(f"1 failures, first at branch {word[:-1]}:")


def test_verify_deterministic():
    a = verify_cover_system(interval_system(), 3).render()
    b = verify_cover_system(interval_system(), 3).render()
    assert a == b


def test_summary_line_and_counts_on_shipped_and_corrupted_renders():
    good = verify_cover_system(interval_system(), 3)
    assert good.counts() == (15, 0)
    assert summary_line(good) == (
        "PASS: 15 checks passed, 0 failed (cover system 'unit-interval' to depth 3)"
    )
    bad = verify_cover_system(corrupt_system(cantor_system(), (0, 1, 1)), 4)
    assert bad.counts() == (16, 4)
    assert summary_line(bad) == (
        "FAIL: 16 checks passed, 4 failed "
        "(cover system 'binary-streams-corrupted' to depth 4)"
    )
    # the counts are the PASS and FAIL leaves of the render
    lines = bad.render().splitlines()
    depth = [len(line) - len(line.lstrip()) for line in lines] + [0]
    leaves = [line.strip()[:6] for i, line in enumerate(lines) if depth[i + 1] <= depth[i]]
    assert (leaves.count("[PASS]"), leaves.count("[FAIL]")) == (16, 4)


# --- projection ---


def test_project_leftmost_interval_branch():
    cs = interval_system()
    cell = cs.v_cell((0,) * 5)
    assert cs.space.contains(cell, F(0))
    assert cs.space.diam(cell) <= F(1, 32)


def test_project_nested():
    cs = interval_system()
    prefix = (2, 3, 1, 4, 2, 0)
    cells = [cs.v_cell(prefix[:k]) for k in range(1, 7)]
    for fine, coarse in zip(cells[1:], cells):
        assert cs.space.closed_subset(fine, coarse)


def test_project_cantor_prefix():
    assert cantor_system().v_cell((0, 1, 0)) == (0, 1, 0)


def test_project_circle_alternating():
    cs = circle_system()
    cell = cs.v_cell((0, 1, 0, 1))
    assert cs.space.diam(cell) < F(1, 16)


# --- Lebesgue numbers ---


def test_lebesgue_frozen_values():
    # interval and circle: 3/2^(k+5); streams: 2^-(k+2); finite: min distance / 4
    cases = [
        (interval_system(), (), F(3, 32)),
        (interval_system(), (2, 3), F(3, 128)),
        (circle_system(), (1,), F(3, 64)),
        (cantor_system(), (0, 1), F(1, 16)),
        (finite_system(), (), F(1, 4)),
        (product_system(CantorSpace(), CantorSpace()), (), F(1, 4)),
    ]
    for cs, s, eps in cases:
        assert cs.epsilon(len(s)) == eps
        # every eps-ball centred in the closure of V_s lies in a selected W cell
        assert cs.space.eroded_cover_of_closure(cs.v_cell(s), cs.selection(s), eps)


def test_lebesgue_below_level_scale():
    for cs in shipped_systems().values():
        for k in range(4):
            s = (0,) * k
            eps = cs.epsilon(k)
            assert 0 < eps < F(1, 2 ** k)
            assert cs.space.eroded_cover_of_closure(cs.v_cell(s), cs.selection(s), eps)


# --- ball location ---


def test_locate_ball_interval_center():
    cs = interval_system()
    enc = cs.space.point_cell(F(1, 2))
    t = locate_ball(cs, enc, F(1, 64), 3)
    assert len(t) == 3
    assert cs.space.eroded_contains(cs.v_cell(t), enc, F(1, 64))
    assert t == (2, 2, 2)
    # any answer for a radius stays an answer for smaller radii
    assert cs.space.eroded_contains(cs.v_cell(t), enc, F(1, 128))


def test_locate_ball_cantor():
    cs = cantor_system()
    center = cs.space.point_cell(Stream((), (0, 1)), F(1, 64))
    assert center == (0, 1, 0, 1, 0, 1)
    assert locate_ball(cs, center, F(1, 64), 4) == (0, 1, 0, 1)


def test_locate_ball_radius_too_large():
    cs = interval_system()
    with pytest.raises(NoCell):
        locate_ball(cs, cs.space.point_cell(F(1, 2)), F(1, 2), 3)


def test_locate_ball_deeper_word_extends_shallower():
    cs = interval_system()
    center = cs.space.point_cell(F(1, 2))
    t3 = locate_ball(cs, center, F(1, 4096), 3)
    assert locate_ball(cs, center, F(1, 4096), 5)[:3] == t3
    assert locate_ball(cs, center, F(1, 4096), 0) == ()


def test_locate_ball_coarse_center_fails():
    cs = interval_system()
    with pytest.raises(NoCell):
        locate_ball(cs, cs.space.whole(), F(1, 64), 3)


def test_locate_ball_random_centers_certified():
    rng = random.Random(20260822)
    for name, cs in shipped_systems().items():
        for _ in range(20):
            x = cs.space.sample_point(rng)
            radius = cs.epsilon(4) / 2
            center = cs.space.point_cell(x, radius)
            t = locate_ball(cs, center, radius, 4)
            cell = cs.v_cell(t)
            assert cs.space.eroded_contains(cell, cs.space.point_cell(x), 0), name
            assert cs.space.eroded_contains(cell, center, radius)


def test_locate_project_coherence():
    # the located cell and the branch's own cell both hold the ball
    cs = interval_system()
    rng = random.Random(7)
    for _ in range(20):
        prefix = tuple(
            rng.randrange(cs.child_arity(k + 1)) for k in range(8)
        )
        center = cs.v_cell(prefix)
        radius = cs.epsilon(8) / 4
        t = locate_ball(cs, center, radius, 4)
        assert cs.space.intersect(cs.v_cell(t), cs.v_cell(prefix[:4])) is not None


# --- render equivalence with the word-by-word walk ---


def _word_walk(cs: CoverSystem, depth: int) -> CertNode:
    """Reference verifier: every branch word checked on its own, as the
    original implementation did.  The class walk must render the same.  An
    empty child cell counts as a glue failure, and the words below it are
    not walked; the header counts only the words that carry a cell."""
    cert = CertNode(f"cover system '{cs.name}' to depth {depth}")
    space = cs.space
    level_cells = {k: [] for k in range(1, depth + 1)}
    words, empty = [()], set()
    for k in range(depth):
        bound = F(1, 2 ** (k + 1))
        eps = cs.epsilon(k)
        diam_bad, cover_bad, lebesgue_bad, glue_bad = [], [], [], []
        for s in words:
            parent = cs.v_cell(s)
            children = cs.selection(s)
            for j, w in enumerate(children):
                sj = s + (j,)
                v = space.intersect(parent, w)
                if v is None:
                    empty.add(sj)
                    glue_bad.append(sj)
                    continue
                if v != cs.v_cell(sj):
                    glue_bad.append(sj)
                    continue
                level_cells[k + 1].append(v)
                if not (space.diam(v) < bound and space.diam(w) < bound):
                    diam_bad.append(sj)
                if not space.closed_subset(v, parent):
                    glue_bad.append(sj)
            if not space.open_cover_of_closure(parent, children):
                cover_bad.append(s)
            if not space.eroded_cover_of_closure(parent, children, eps):
                lebesgue_bad.append(s)
        node = cert.section(f"level {k} -> {k + 1} ({len(words)} cells)")
        for title, bad in (
            ("child cells glue exactly (V = parent ∩ W, nested)", glue_bad),
            (f"diameters below {bound}", diam_bad),
            ("children cover parent closure", cover_bad),
            (f"Lebesgue number {eps} certified by erosion", lebesgue_bad),
        ):
            if not bad:
                node.check(title, True)
            else:
                if bad[0] in empty:
                    cell = "empty cell"
                else:
                    cell = space.describe(cs.v_cell(bad[0]) if bad[0] else space.whole())
                node.check(
                    title, False, f"{len(bad)} failures, first at branch {bad[0]}: {cell}"
                )
        words = [
            s + (j,)
            for s in words
            for j in range(cs.child_arity(k + 1))
            if s + (j,) not in empty
        ]
    for k in range(1, depth + 1):
        distinct = list(dict.fromkeys(level_cells[k]))
        ok = space.open_cover_of_closure(space.whole(), distinct)
        cert.check(f"level {k} covers the whole space", ok, f"{len(distinct)} distinct cells")
    cert.note("root cell is the whole space; decay enforced from level 1")
    return cert


SYSTEMS = {
    "interval": (interval_system, 4),
    "circle": (circle_system, 4),
    "finite": (finite_system, 4),
    "cantor": (cantor_system, 7),
    "cantor-product": (lambda: product_system(CantorSpace(), CantorSpace()), 4),
}


def _same_verdict(cs: CoverSystem, depth: int) -> None:
    def walk(verify):
        fresh = CoverSystem(cs.space, cs.name, tamper=dict(cs.tamper))
        return _outcome(lambda: verify(fresh, depth).render())

    assert walk(verify_cover_system) == walk(_word_walk)


@pytest.mark.parametrize("name", SYSTEMS)
def test_shipped_renders_match_word_walk(name):
    make, depth = SYSTEMS[name]
    _same_verdict(make(), depth)


def test_failure_count_sums_class_multiplicity():
    # (1, 4) and (1, 5) are a padded duplicate pair; tampering both the
    # same way keeps them one class of two words, and both words fail
    base = interval_system()
    bad = base.space.shrink_cell(base.w_cell((1, 4, 1)))
    cs = CoverSystem(base.space, "twin", tamper={(1, 4, 1): bad, (1, 5, 1): bad})
    cert = verify_cover_system(cs, 3)
    failure = cert.first_failure()
    assert failure.title == "children cover parent closure"
    assert failure.detail.startswith("2 failures, first at branch (1, 4):")
    _same_verdict(cs, 3)


def test_empty_child_cell_fails_the_glue_check():
    # W cell (0, 1) swapped for a mesh cell at the far end misses V_(0)
    base = interval_system()
    far = base.space.mesh(2)[-1]
    assert base.space.intersect(base.v_cell((0,)), far) is None
    cs = CoverSystem(base.space, "far", tamper={(0, 1): far})
    cert = verify_cover_system(cs, 3)
    failure = cert.first_failure()
    assert failure.title == "child cells glue exactly (V = parent ∩ W, nested)"
    assert failure.detail == "1 failures, first at branch (0, 1): empty cell"
    # (0, 1) carries no cell, so 29 of the 30 level-2 words are counted
    headers = [c.title for c in cert.children if c.title.startswith("level ")]
    assert headers[2] == "level 2 -> 3 (29 cells)"
    _same_verdict(cs, 3)


@st.composite
def tampered_systems(draw, name):
    """One or two W cells replaced: shrunk, or swapped for a mesh cell of
    the same or a coarser level."""
    make, max_depth = SYSTEMS[name]
    base = make()
    depth = draw(st.integers(1, max_depth))
    tamper = {}
    for _ in range(draw(st.integers(1, 2))):
        length = draw(st.integers(1, depth))
        word = tuple(
            draw(st.integers(0, base.child_arity(i + 1) - 1)) for i in range(length)
        )
        how = draw(st.sampled_from(["shrink", "mesh", "coarse"]))
        if how == "shrink":
            tamper[word] = base.space.shrink_cell(base.w_cell(word))
        else:
            level = length if how == "mesh" else max(1, length - 2)
            tamper[word] = draw(st.sampled_from(base.space.mesh(level)))
    return CoverSystem(base.space, f"{name}-tampered", tamper=tamper), depth


@pytest.mark.parametrize("name", SYSTEMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tampered_renders_match_word_walk(name, data):
    cs, depth = data.draw(tampered_systems(name))
    _same_verdict(cs, depth)


# --- translation classes ---


def _verdict(space, cell, k, shrunk=None):
    """The checks on a level-k cell and its children, with the W cell of
    child `shrunk` shrunk as `corrupt_system` does."""
    sel = space.select_children(cell, k + 1)
    if shrunk is not None:
        sel[shrunk] = space.shrink_cell(sel[shrunk])
    kids = [space.intersect(cell, w) for w in sel]
    return _class_verdict(
        space, cell, sel, kids, F(1, 2 ** (k + 1)), space.level_epsilon(k)
    )


@st.composite
def _translates(draw):
    """A level k and two starts in [0, 1) that differ by a multiple of the
    level-(k + 1) spacing 2^-(k+2), with a length up to three spacings."""
    k = draw(st.integers(1, 6))
    n = 2 ** (k + 2)
    unit = F(1, 48 * n)
    offset = draw(st.integers(0, 47)) * unit
    length = draw(st.integers(1, 144)) * unit
    starts = [F(draw(st.integers(0, n - 1)), n) + offset for _ in range(2)]
    return k, starts, length


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["interval", "circle"]), _translates(), st.integers(0, 5))
def test_translates_share_keys_and_verdicts(kind, case, shrunk):
    # the predicates commute with the shift, so failing verdicts match too
    k, starts, length = case
    edge = F(7, 2 ** (k + 5))  # reach of the level-(k + 1) end cells
    if kind == "interval":
        space = IntervalSpace()
        cells = [IV(s, s + length) for s in starts]
        # meets mesh cell 0 or 2^(k+2), or is clamped
        crosses = [s < edge or s + length > 1 - edge for s in starts]
    else:
        space = CircleSpace()
        cells = [ARC(s, length) for s in starts]
        # runs into the arc across 0 from below: the indices wrap
        crosses = [s + length > 1 - edge for s in starts]
    keys = [space.canonical(c, k) for c in cells]
    assert [key is None for key in keys] == crosses
    if None not in keys:
        assert keys[0] == keys[1]
        for j in (None, shrunk):
            assert _verdict(space, cells[0], k, j) == _verdict(space, cells[1], k, j)


@given(st.integers(0, 8), st.integers(0, 2), st.data())
def test_cantor_cylinders_of_one_length_share_keys_and_verdicts(k, extra, data):
    space = CantorSpace()
    bits = st.lists(st.integers(0, 1), min_size=k + extra, max_size=k + extra)
    a, b = tuple(data.draw(bits)), tuple(data.draw(bits))
    assert space.canonical(a, k) == space.canonical(b, k) == len(a)
    # shrink_cell appends zeros, which commutes with the prefix swap while
    # the child cell extends the parent; at extra = 2 it is a proper prefix
    for j in (None, 0, 1) if extra < 2 else (None,):
        assert _verdict(space, a, k, j) == _verdict(space, b, k, j)


def test_whole_and_product_cells_have_no_key_where_a_factor_has_none():
    interval, circle = IntervalSpace(), CircleSpace()
    assert interval.canonical(interval.whole(), 0) is None
    assert circle.canonical(circle.whole(), 0) is None
    assert finite_system().space.canonical((0,), 1) is None
    inner = IV(F(3, 8), F(13, 32))
    product = ProductSpace(CantorSpace(), interval)
    assert product.canonical(((0, 1), inner), 2) == (2, interval.canonical(inner, 2))
    assert product.canonical(((0, 1), interval.whole()), 2) is None


# --- typed refusals ---


@pytest.mark.parametrize(
    "call, exc, fragment",
    [
        pytest.param(lambda: corrupt_system(interval_system(), ()), CertificationError,
                     "corruption needs a nonempty branch word", id="corrupt-empty-word"),
        pytest.param(lambda: locate_ball(interval_system(), IV(0, F(1, 2)), F(-1), 2),
                     CertificationError, "negative radius", id="locate-negative-radius"),
        pytest.param(lambda: FiniteMetricSpace(((0, 1), (1, 1))), CertificationError,
                     "bad distance matrix diagonal/shape", id="finite-bad-diagonal"),
        pytest.param(lambda: verify_cover_system(interval_system(), -2), CertificationError,
                     "cover depth must be nonnegative, got -2", id="verify-negative-depth"),
        pytest.param(lambda: locate_ball(interval_system(), IV(0, F(1, 2)), F(0), -2),
                     InvalidBranch, "branch length must be nonnegative, got -2",
                     id="locate-negative-length"),
    ],
)
def test_refusals_are_typed(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is exc


# --- distances ---

_streams = st.builds(
    Stream,
    st.lists(st.integers(0, 3), max_size=6).map(tuple),
    st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple),
)


def _unrolled(x: Stream) -> Stream:
    """The same sequence as x, written with one more preamble symbol and a
    doubled, rotated cycle."""
    return Stream(x.pre + x.cycle[:1], (x.cycle[1:] + x.cycle[:1]) * 2)


@settings(max_examples=200, deadline=None)
@given(_streams, _streams, _streams)
def test_stream_distance_is_the_first_difference_ultrametric(x, y, z):
    d = BaireStreamSpace().distance
    # streams with preambles of at most 6 and cycles of at most 4 symbols
    # that agree on 6 + lcm(3, 4) = 18 symbols agree everywhere, so a scan
    # of 64 sees the first difference if there is one
    a, b = x.prefix(64), y.prefix(64)
    first = next((i for i in range(64) if a[i] != b[i]), None)
    assert d(x, y) == (0 if first is None else F(1, 2 ** (first + 1)))
    assert d(x, _unrolled(x)) == 0 and _unrolled(x) != x
    assert (d(x, y) == 0) == (a == b)
    assert d(x, y) == d(y, x)
    assert d(x, z) <= max(d(x, y), d(y, z))


def test_finite_distance_reads_the_matrix():
    space = finite_system().space
    for x, y in itertools.product(range(space.size), repeat=2):
        assert space.distance(x, y) == space.distances[x][y]


@given(
    st.fractions(0, 1, max_denominator=64), st.fractions(0, 1, max_denominator=64),
    st.fractions(0, 1, max_denominator=64), st.fractions(0, 1, max_denominator=64),
)
def test_product_distance_is_the_max_of_its_factors(a, b, c, d):
    space = ProductSpace(IntervalSpace(), CircleSpace())
    b, d = b % 1, d % 1
    around = abs(b - d)
    assert space.distance((a, b), (c, d)) == max(abs(a - c), min(around, 1 - around))
