import dataclasses
import random
from bisect import bisect_right
import re
from fractions import Fraction as F
from itertools import count

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factorlift.covers import (
    cantor_system,
    circle_system,
    finite_system,
    interval_system,
    locate_ball,
)
from factorlift.errors import CertificationError, NoCell, SpaceMismatch
from factorlift.geometry import CircleSpace, IntervalSpace, least_dyadic_level
from factorlift.lifting import lift_self_map
from factorlift.pointmaps import (
    PointMap,
    affine_map,
    baire_identity_map,
    constant_interval_map,
    family_from_map,
    identity_map,
    parity_expansion_map,
    piecewise_affine_map,
    product_map,
    rotation_family,
    rotation_map,
    squaring_map,
    stream_map,
    table_map,
    tent_map,
    weakened_family,
)
from factorlift.transducers import (
    CANTOR,
    identity_transducer,
    odometer_transducer,
    shift_transducer,
)


IV, ARC = IntervalSpace().cell, CircleSpace().arc


def rand_branch(cs, length, rng):
    return tuple(rng.randrange(cs.child_arity(i + 1)) for i in range(length))


# --- image regions ---


def test_squaring_region_endpoints():
    sq = squaring_map()
    assert sq.image_region(IV(F(1, 4), F(1, 2))) == IV(F(1, 16), F(1, 4))
    # raw cells may stick past [0, 1]; the hull is what gets mapped
    assert sq.image_region(IV(-1, 2)) == IV(0, 1)
    assert sq.point(F(1, 3)) == F(1, 9)


def test_tent_region_branches():
    t = tent_map()
    assert t.image_region(IV(0, F(1, 4))) == IV(0, F(1, 2))
    assert t.image_region(IV(F(3, 4), 1)) == IV(0, F(1, 2))
    # a cell straddling the peak must report the attained maximum 1
    assert t.image_region(IV(F(1, 4), F(3, 4))) == IV(F(1, 2), 1)
    assert t.point(F(1, 2)) == 1
    assert t.point(F(5, 8)) == F(3, 4)
    # knots read once, so a generator of them builds the same map
    once = piecewise_affine_map(((x, 1 - abs(2 * x - 1)) for x in (0, F(1, 2), 1)), "tent")
    assert once.image_region(IV(F(1, 4), F(3, 4))) == t.image_region(IV(F(1, 4), F(3, 4)))


def test_affine_region_reverses_orientation():
    m = affine_map(F(1, 2), F(-1, 2))
    assert m.image_region(IV(0, 1)) == IV(0, F(1, 2))
    assert m.point(F(1, 4)) == F(3, 8)


def test_affine_must_stay_inside_interval():
    with pytest.raises(CertificationError):
        affine_map(F(1, 2), F(3, 4))
    with pytest.raises(CertificationError):
        affine_map(F(-1, 8), F(1, 2))


def test_rotation_region_wraps():
    r = rotation_map(F(3, 4))
    assert r.image_region(ARC(F(1, 2), F(1, 8))) == ARC(F(1, 4), F(1, 8))
    assert r.point(F(7, 8)) == F(5, 8)


_THIRTY_SECONDS = st.integers(-64, 64).map(lambda n: F(n, 32))


@given(st.sampled_from([0, F(1, 3), F(2, 7), F(5, 8)]), _THIRTY_SECONDS,
       _THIRTY_SECONDS.map(abs), st.integers(0, 6))
def test_rotation_region_matches_the_fraction_rule(angle, start, length, k):
    # reference: the start moved by the angle mod 1, the whole circle from
    # length 1 on; over the arcs of a cover system too
    ref = (F(0), F(1)) if length >= 1 else ((start + angle) % 1, length)
    assert rotation_map(angle).image_region(ARC(start, length)) == ARC(*ref)
    cs = circle_system()
    cell = cs.v_cell((1,) * k)
    u, l, d = cell
    assert rotation_map(angle).image_region(cell) == ARC(F(u, d) + angle, F(l, d))


def test_identity_map_is_identity_on_cells():
    sp = IntervalSpace()
    m = identity_map(sp)
    assert m.image_region(IV(F(1, 8), F(1, 4))) == IV(F(1, 8), F(1, 4))
    assert m.modulus(F(1, 8)) == 3


def test_table_map_region_and_point():
    cs = finite_system()
    m = table_map(cs.space, (1, 2, 0))
    assert m.image_region((0, 1, 2)) == (0, 1, 2)
    assert m.image_region((0, 2)) == (0, 1)
    assert m.point(2) == 0
    assert m.modulus(F(1, 100)) == 1


def test_table_map_rejects_bad_tables():
    cs = finite_system()
    with pytest.raises(CertificationError):
        table_map(cs.space, (1, 2))
    with pytest.raises(CertificationError):
        table_map(cs.space, (1, 2, 3))


def test_stream_map_region_is_transduced_prefix():
    m = stream_map(shift_transducer(CANTOR))
    assert m.image_region((0, 1, 1, 0)) == (1, 1, 0)
    m = stream_map(odometer_transducer())
    assert m.image_region((1, 1, 0)) == (0, 0, 1)


def test_stream_map_requires_binary_alphabet():
    from factorlift.transducers import BAIRE, identity_transducer

    with pytest.raises(SpaceMismatch):
        stream_map(identity_transducer(BAIRE))


def test_product_map_acts_componentwise():
    m = product_map(squaring_map(), tent_map())
    cell = (IV(0, F(1, 2)), IV(0, F(1, 4)))
    assert m.image_region(cell) == (IV(0, F(1, 4)), IV(0, F(1, 2)))
    assert m.point((F(1, 2), F(1, 4))) == (F(1, 4), F(1, 2))
    assert m.modulus(F(1, 8)) == max(squaring_map().modulus(F(1, 8)), 4)


def test_point_rule_is_optional_but_loud():
    m = stream_map(shift_transducer(CANTOR))
    with pytest.raises(CertificationError):
        m.point(None)


def test_modulus_needs_positive_width():
    with pytest.raises(CertificationError):
        squaring_map().modulus(F(0))


# --- soundness of regions, sampled ---


@pytest.mark.parametrize(
    "system, point_map",
    [
        (interval_system(), squaring_map()),
        (interval_system(), tent_map()),
        (interval_system(), affine_map(F(1, 4), F(1, 2))),
        (circle_system(), rotation_map(F(5, 8))),
    ],
)
def test_region_contains_sampled_images(system, point_map):
    rng = random.Random(20260822)
    sp = system.space
    for _ in range(40):
        s = rand_branch(system, rng.randrange(1, 7), rng)
        cell = system.v_cell(s)
        region = point_map.image_region(cell)
        for _ in range(5):
            x = sp.sample_point(rng)
            if sp.contains(cell, x):
                assert sp.contains(region, point_map.point(x))


@pytest.mark.parametrize(
    "system, point_map, width",
    [
        (interval_system(), squaring_map(), F(1, 32)),
        (interval_system(), tent_map(), F(1, 64)),
        (circle_system(), rotation_map(F(1, 3)), F(1, 16)),
        (cantor_system(), stream_map(shift_transducer(CANTOR)), F(1, 32)),
    ],
)
def test_modulus_pins_region_width(system, point_map, width):
    rng = random.Random(4)
    m = point_map.modulus(width)
    for _ in range(25):
        s = rand_branch(system, m, rng)
        region = point_map.image_region(system.v_cell(s))
        assert system.space.diam(region) <= width


def test_regions_shrink_under_refinement():
    rng = random.Random(99)
    system = interval_system()
    sq = squaring_map()
    for _ in range(25):
        s = rand_branch(system, 6, rng)
        coarse = sq.image_region(system.v_cell(s[:3]))
        fine = sq.image_region(system.v_cell(s))
        assert system.space.closed_subset(fine, coarse)


# --- knot lists against the hand-written rules they replaced ---


def _ref_affine_map(offset, slope):
    """Reference: the hand-written affine map, one region rule of its own."""
    space = IntervalSpace()

    def region(cell):
        a, b = space.hull(cell)
        ya, yb = offset + slope * a, offset + slope * b
        return space.cell(*((ya, yb) if ya <= yb else (yb, ya)))

    return PointMap(
        space,
        region,
        f"affine({offset}+{slope}x)",
        lipschitz=abs(slope),
        point_fn=lambda x: offset + slope * x,
    )


def _ref_tent_map():
    """Reference: the hand-written tent map, one region rule of its own."""
    space = IntervalSpace()
    half = F(1, 2)

    def region(cell):
        a, b = space.hull(cell)
        if b <= half:
            return space.cell(2 * a, 2 * b)
        if a >= half:
            return space.cell(2 - 2 * b, 2 - 2 * a)
        # cell straddles the peak, so the maximum value 1 is attained
        return space.cell(min(2 * a, 2 - 2 * b), F(1))

    def point(x):
        return 2 * x if x <= half else 2 - 2 * x

    return PointMap(space, region, "tent", lipschitz=F(2), point_fn=point)


UNIT = st.fractions(min_value=0, max_value=1, max_denominator=64)
# cells whose hull [max(u, 0), min(v, 1)] is nonempty: every mesh cell to
# level 8, and cells on the 1/1024 grid that may poke past either end
HULLED_CELLS = st.one_of(
    st.integers(0, 8).flatmap(lambda k: st.sampled_from(IntervalSpace().mesh(k))),
    st.tuples(st.integers(-1024, 1024), st.integers(0, 2048))
    .filter(lambda uv: uv[0] <= uv[1])
    .map(lambda uv: IV(F(uv[0], 1024), F(uv[1], 1024))),
)


def _readings(m, cell, x, width):
    """What a render can read off a map, as text."""
    return [str(v) for v in (m.name, m.lipschitz, m.modulus(width), m.point(x),
                             m.image_region(cell))]


@given(UNIT, UNIT, HULLED_CELLS, UNIT, st.integers(0, 30).map(lambda e: F(1, 2 ** e)))
def test_affine_knot_list_matches_the_hand_written_rule(y0, y1, cell, x, width):
    offset, slope = y0, y1 - y0
    expected = _readings(_ref_affine_map(offset, slope), cell, x, width)
    assert _readings(affine_map(offset, slope), cell, x, width) == expected


@given(HULLED_CELLS, UNIT, st.integers(0, 30).map(lambda e: F(1, 2 ** e)))
def test_tent_knot_list_matches_the_hand_written_rule(cell, x, width):
    assert _readings(tent_map(), cell, x, width) == _readings(_ref_tent_map(), cell, x, width)


# --- drawn knot lists through the lift ---

# 1-4 pieces with knots on the 1/8 grid
KNOT_LISTS = st.integers(1, 4).flatmap(
    lambda pieces: st.tuples(
        st.lists(st.integers(1, 7), min_size=pieces - 1, max_size=pieces - 1, unique=True),
        st.lists(st.integers(0, 8), min_size=pieces + 1, max_size=pieces + 1),
    )
).map(lambda xy: tuple((F(x, 8), F(y, 8)) for x, y in zip([0, *sorted(xy[0]), 8], xy[1])))


@given(KNOT_LISTS, HULLED_CELLS)
def test_drawn_map_region_spans_the_ends_and_the_knots_inside(knots, cell):
    pm = piecewise_affine_map(knots, "drawn")
    a, b = IntervalSpace().hull(cell)
    values = [pm.point(a), pm.point(b)] + [y for x, y in knots if a < x < b]
    assert pm.image_region(cell) == IV(min(values), max(values))


@settings(max_examples=20, deadline=None)
@given(KNOT_LISTS, st.integers(0, 2 ** 32))
def test_drawn_map_lift_certificate_passes(knots, seed):
    lifted = lift_self_map(interval_system(), piecewise_affine_map(knots, "drawn"))
    cert = lifted.certificate(4, 10, random.Random(seed), exact_samples=10)
    assert cert.ok, cert.render()


@settings(max_examples=20, deadline=None)
@given(KNOT_LISTS, st.data())
def test_drawn_map_lift_output_extends_under_longer_input(knots, data):
    cs = interval_system()
    lifted = lift_self_map(cs, piecewise_affine_map(knots, "drawn"))
    w = data.draw(st.tuples(*(st.integers(0, cs.child_arity(i + 1) - 1) for i in range(16))))
    cut = data.draw(st.integers(0, len(w)))
    short = lifted.transducer.step(w[:cut])
    assert lifted.transducer.step(w)[: len(short)] == short


@settings(max_examples=20, deadline=None)
@given(KNOT_LISTS)
def test_drawn_map_lift_with_a_quartered_bound_finds_no_cell(knots):
    pm = piecewise_affine_map(knots, "drawn")
    assume(pm.lipschitz > 0)
    cs = interval_system()
    lift = lift_self_map(cs, dataclasses.replace(pm, lipschitz=pm.lipschitz / 4)).lift
    # Resolution k is the first whose moduli read m >= 3 branch symbols.  As
    # the least level for a quarter of the bound, m has L * 2^-m > slack(k).
    # At m >= 3 the level-m mesh cell centred 1/16 past the steepest piece's
    # left knot lies inside the piece and is the only one holding that
    # centre, so the branch around the radius-2^-(m+2) ball there ends in a
    # cell inside the piece at least 2^-(m+1) wide, whose region is wider
    # than slack(k) / 2.
    k = next(k for k in count(1) if lift.moduli(k)[1] >= 3)
    m = lift.moduli(k)[1]
    slopes = [abs((y1 - y0) / (x1 - x0)) for (x0, y0), (x1, y1) in zip(knots, knots[1:])]
    i = slopes.index(pm.lipschitz)
    centre = knots[i][0] + F(1, 16)
    s = locate_ball(cs, IV(centre, centre), F(1, 2 ** (m + 2)), m)
    u, v, d = cs.v_cell(s)
    a, b = F(u, d), F(v, d)
    assert knots[i][0] <= a and b <= knots[i + 1][0] and b - a >= F(1, 2 ** (m + 1))
    with pytest.raises(NoCell):
        lift.prefix((), s, k)


# --- integer region rules against the Fraction rules they replaced ---


def _ref_knot_map(knots):
    """Reference: the Fraction region and point rules of a knot list, read
    through the hull and returned through `IntervalSpace.cell`."""
    space = IntervalSpace()
    xs, ys = [F(x) for x, _ in knots], [F(y) for _, y in knots]
    slopes = [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]
    offsets = [y - slope * x for x, y, slope in zip(xs, ys, slopes)]

    def piece(x):
        return bisect_right(xs, x, 1, len(slopes)) - 1

    def point(x):
        i = piece(x)
        return offsets[i] + slopes[i] * x

    def region(cell):
        a, b = space.hull(cell)
        i, j = piece(a), piece(b)
        lo, hi = sorted((point(a), point(b)))
        for k in range(i + 1, j + 1):
            lo, hi = min(lo, ys[k]), max(hi, ys[k])
        return space.cell(lo, hi)

    return region, point


def _ref_square_region(cell):
    a, b = IntervalSpace().hull(cell)
    return IntervalSpace().cell(a * a, b * b)


def _ref_rotation_region(angle, cell):
    s, l, d = cell
    return CircleSpace().arc(F(s, d) + F(angle) % 1, F(l, d))


# 1-4 pieces whose inner knots sit over denominators 2-12, mostly off the
# 1/8 grid that KNOT_LISTS keeps to
_KNOT_XS = st.integers(2, 12).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: F(p, q)))
OFF_GRID_KNOT_LISTS = st.tuples(
    st.lists(_KNOT_XS, max_size=3, unique=True),
    st.lists(st.fractions(0, 1, max_denominator=12), min_size=5, max_size=5),
).map(lambda c: tuple(zip([F(0), *sorted(c[0]), F(1)], c[1])))
# cell ends over denominators 1-36, so that ends fall on knots, past 0 or 1
_ENDS = st.integers(1, 36).flatmap(lambda q: st.integers(-q // 2, 3 * q // 2).map(lambda p: F(p, q)))
OFF_GRID_CELLS = st.one_of(HULLED_CELLS, st.tuples(_ENDS, _ENDS).map(lambda c: IV(*sorted(c))))


@settings(max_examples=300)
@given(OFF_GRID_KNOT_LISTS, OFF_GRID_CELLS, st.data())
def test_knot_list_rules_match_the_fraction_rules(knots, cell, data):
    pm = piecewise_affine_map(knots, "drawn")
    region, point = _ref_knot_map(knots)
    assert pm.image_region(cell) == region(cell)
    x = data.draw(st.one_of(UNIT, st.sampled_from([x for x, _ in knots])))
    assert pm.point(x) == point(x)


_ODD_ANGLES = st.sampled_from([1, 3, 5, 7, 9, 11]).flatmap(
    lambda q: st.integers(-2 * q, 2 * q).map(lambda p: F(p, q))
)
# starts in [0, 1) and lengths to 3/2: arcs that wrap past 1 and, from
# length 1 on, the whole circle
DRAWN_ARCS = st.tuples(
    st.fractions(0, 1, max_denominator=24).filter(lambda s: s < 1),
    st.fractions(0, F(3, 2), max_denominator=24),
).map(lambda a: ARC(*a))


@settings(max_examples=300)
@given(_ODD_ANGLES, DRAWN_ARCS)
def test_rotation_rule_matches_the_fraction_rule(angle, cell):
    assert rotation_map(angle).image_region(cell) == _ref_rotation_region(angle, cell)


@given(OFF_GRID_CELLS)
def test_squaring_rule_matches_the_fraction_rule(cell):
    assert squaring_map().image_region(cell) == _ref_square_region(cell)


# --- parameterized families ---


def test_family_from_map_ignores_parameter():
    cs = interval_system()
    fam = family_from_map(cs, squaring_map())
    s = (2, 3, 1)
    assert fam.region((), s) == fam.region((0, 1), s)
    assert fam.moduli(F(1, 16))[0] == 0


def test_family_from_map_checks_space():
    with pytest.raises(SpaceMismatch):
        family_from_map(cantor_system(), squaring_map())


def test_branch_family_returns_branch_cell():
    cs = cantor_system()
    fam = family_from_map(cs, identity_map(cs.space))
    assert fam.region((1, 0), (0, 1, 1)) == (0, 1, 1)


def test_rotation_family_region_covers_angle_window():
    cs = circle_system()
    fam = rotation_family(cs)
    sp = cs.space
    rng = random.Random(7)
    for _ in range(20):
        q = tuple(rng.randrange(2) for _ in range(6))
        s = rand_branch(cs, 5, rng)
        region = fam.region(q, s)
        base = cs.v_cell(s)
        # every rotation the parameter prefix still allows maps the branch
        # cell inside the reported region
        angle = sum(F(b, 2 ** (i + 2)) for i, b in enumerate(q))
        for extra in (F(0), F(1, 2 ** (len(q) + 1))):
            for _ in range(3):
                x = sp.sample_point(rng)
                if sp.contains(base, x):
                    assert sp.contains(region, (x + angle + extra) % 1)


def test_rotation_family_needs_circle():
    with pytest.raises(SpaceMismatch):
        rotation_family(interval_system())


def test_rotation_family_moduli_pin_width():
    cs = circle_system()
    fam = rotation_family(cs)
    rng = random.Random(8)
    width = F(1, 64)
    l, m = fam.moduli(width)
    for _ in range(20):
        q = tuple(rng.randrange(2) for _ in range(l))
        s = rand_branch(cs, m, rng)
        assert cs.space.diam(fam.region(q, s)) <= width


def test_weakened_family_reads_shorter_prefixes():
    fam = rotation_family(circle_system())
    weak = weakened_family(fam, 8)
    l, m = fam.moduli(F(1, 64))
    wl, wm = weak.moduli(F(1, 64))
    assert wl < l and wm < m
    with pytest.raises(CertificationError):
        weakened_family(fam, 1)


# --- maps out of Polish branch spaces ---


def test_baire_identity_regions_are_cylinders():
    m = baire_identity_map()
    assert m.region((4, 0, 17)) == (4, 0, 17)
    assert m.target.diam(m.region((4, 0, 17))) == F(1, 16)


def test_parity_expansion_region():
    m = parity_expansion_map()
    # parities 1,0,1 pin the expansion to [5/8, 5/8 + 1/8]
    assert m.region((3, 2, 7)) == IV(F(5, 8), F(3, 4)) == (5, 6, 8)
    nested = m.region((3, 2, 7, 0))
    assert m.target.closed_subset(nested, m.region((3, 2, 7)))


@given(st.lists(st.integers(0, 10 ** 6), max_size=60))
def test_parity_expansion_region_matches_fraction_sum(w):
    # reference: the binary expansion summed one Fraction per symbol
    low = sum(F(b % 2, 2 ** (i + 1)) for i, b in enumerate(w))
    assert parity_expansion_map().region(w) == IV(low, low + F(1, 2 ** len(w)))


def test_constant_interval_map_is_degenerate():
    m = constant_interval_map(F(1, 3))
    assert m.region((9, 9, 9)) == IV(F(1, 3), F(1, 3))
    assert m.target.diam(m.region(())) == 0
    with pytest.raises(CertificationError):
        constant_interval_map(F(3, 2))


# --- the least dyadic level against the hand-rolled loops it replaced ---


def _loop_lipschitz(lipschitz, width):
    m = 0
    while lipschitz * F(1, 2 ** m) > width:
        m += 1
    return m


def _loop_cylinder(width):
    n = 0
    while F(1, 2 ** (n + 1)) > width:
        n += 1
    return n


def _loop_branch(width):
    m = 0
    while F(1, 2 ** m) > width:
        m += 1
    return m


def _loop_rotation_parameter(width):
    l = 0
    while F(1, 2 ** (l + 1)) > width / 2:
        l += 1
    return l


def _loop_rotation_branch(width):
    m = 0
    while F(1, 2 ** m) > width / 2:
        m += 1
    return m


WIDTHS = st.one_of(
    st.fractions(min_value=0, max_value=64, max_denominator=2 ** 40).filter(lambda w: w > 0),
    st.integers(-40, 8).map(lambda e: F(2) ** e),
)
LIPSCHITZ = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=0, max_value=16, max_denominator=2 ** 20),
    st.integers(-20, 4).map(lambda e: F(2) ** e),
)


@given(WIDTHS, LIPSCHITZ)
def test_least_dyadic_level_matches_the_five_loops(width, lipschitz):
    assert least_dyadic_level(width) == _loop_branch(width)
    pm = PointMap(IntervalSpace(), lambda cell: cell, "probe", lipschitz=lipschitz)
    assert pm.modulus(width) == _loop_lipschitz(lipschitz, width)
    # the identity machine reads exactly the cylinder level
    assert stream_map(identity_transducer(CANTOR)).modulus(width) == _loop_cylinder(width)
    identity = family_from_map(interval_system(), identity_map(IntervalSpace()))
    assert identity.moduli(width) == (0, _loop_branch(width))
    assert rotation_family(circle_system()).moduli(width) == (
        _loop_rotation_parameter(width),
        _loop_rotation_branch(width),
    )


def test_least_dyadic_level_at_powers_of_two_and_zero_lipschitz():
    for e in range(12):
        assert least_dyadic_level(F(1, 2 ** e)) == e
        assert least_dyadic_level(F(3, 2 ** (e + 2))) == e + 1
        assert least_dyadic_level(F(2 ** e)) == 0
    flat = PointMap(IntervalSpace(), lambda cell: cell, "flat", lipschitz=F(0))
    assert flat.modulus(F(1, 2 ** 30)) == 0
    for w in (F(0), F(-1, 2)):
        with pytest.raises(CertificationError):
            least_dyadic_level(w)


# --- typed refusals ---


@pytest.mark.parametrize(
    "call, exc, fragment",
    [
        pytest.param(
            lambda: PointMap(IntervalSpace(), lambda cell: cell, "bare").modulus(F(1, 2)),
            CertificationError, "bare has neither a modulus rule nor a Lipschitz bound",
            id="modulus-without-rule-or-bound",
        ),
        pytest.param(lambda: rotation_family(circle_system()).moduli(0), CertificationError,
                     "modulus needs a positive width", id="family-moduli-at-zero"),
        pytest.param(lambda: piecewise_affine_map(((0, 0), (F(3, 4), 1), (F(1, 4), 0), (1, 1)),
                                                  "zigzag"),
                     CertificationError,
                     "zigzag: knot x values 0, 3/4, 1/4, 1 do not run strictly upward from 0 to 1",
                     id="knots-unsorted"),
        pytest.param(lambda: piecewise_affine_map(((F(1, 8), 0), (1, 1)), "late"),
                     CertificationError,
                     "late: knot x values 1/8, 1 do not run strictly upward from 0 to 1",
                     id="knots-start-past-0"),
        pytest.param(lambda: piecewise_affine_map(((0, 0), (F(7, 8), 1)), "short"),
                     CertificationError,
                     "short: knot x values 0, 7/8 do not run strictly upward from 0 to 1",
                     id="knots-end-before-1"),
        pytest.param(lambda: piecewise_affine_map(((0, 0), (1, F(9, 8))), "tall"),
                     CertificationError, "tall: knot values 0, 9/8 leave [0, 1]",
                     id="knot-value-above-1"),
        pytest.param(lambda: affine_map(F(1, 2), F(3, 4)), CertificationError,
                     "affine(1/2+3/4x): knot values 1/2, 5/4 leave [0, 1]",
                     id="affine-image-leaves-the-interval"),
    ],
)
def test_refusals_are_typed(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is exc
