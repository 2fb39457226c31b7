import random
import re
import signal
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlift.covers import (
    cantor_system,
    circle_system,
    finite_system,
    interval_system,
    locate_ball,
    product_system,
    shipped_systems,
)
from factorlift.errors import (
    CertificationError,
    InsufficientInput,
    InvalidBranch,
    NoCell,
    SpaceMismatch,
)
from factorlift.geometry import (
    CantorSpace,
    CircleSpace,
    IntervalSpace,
    ProductSpace,
    least_dyadic_level,
)
from factorlift.lifting import (
    SYMBOL_BOUND,
    BaireLift,
    CylinderPresentation,
    _descend,
    _keeps_slack,
    baire_extension_map,
    lift_self_map,
    presentation_certificate,
    strong_extension_map,
)
from factorlift.pointmaps import (
    ParameterizedFamily,
    PointMap,
    PolishPointMap,
    baire_identity_map,
    constant_interval_map,
    family_from_map,
    identity_map,
    parity_expansion_map,
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
    Stream,
    evaluate_transducer,
    odometer_transducer,
    shift_transducer,
)


def rand_branch(cs, length, rng):
    return tuple(rng.randrange(cs.child_arity(i + 1)) for i in range(length))


# --- slack schedule ---


def _slack_schedule(cs, k):
    """Reference: the slack recurrence run from the root on every call, as
    the free function the cover systems' per-resolution table replaced did."""
    if k < 1:
        raise CertificationError("resolution starts at 1")
    r = cs.epsilon(0) / 4
    for level in range(2, k + 1):
        r = min(r / 2, cs.epsilon(level - 1) / 4)
    return r


def test_slack_schedule_frozen_values():
    slack = interval_system().slack
    assert [slack(k) for k in (1, 2, 3)] == [
        F(3, 128),
        F(3, 256),
        F(3, 512),
    ]
    slack = cantor_system().slack
    assert [slack(k) for k in (1, 2, 3)] == [
        F(1, 16),
        F(1, 32),
        F(1, 64),
    ]


def test_slack_schedule_halves_and_respects_lebesgue():
    # the nesting argument of both lifts rests on the halving law
    systems = list(shipped_systems().values())
    for ps in (*systems, CylinderPresentation()):
        for k in range(1, 9):
            assert ps.slack(k + 1) <= ps.slack(k) / 2, (ps.name, k)
    for cs in systems:
        for k in range(1, 9):
            assert 4 * cs.slack(k) <= cs.epsilon(k - 1), (cs.name, k)
    with pytest.raises(CertificationError):
        interval_system().slack(0)


@pytest.mark.parametrize("name", sorted(shipped_systems()))
def test_lift_slack_table_matches_the_schedule(name):
    deep_first, in_order, fresh = (shipped_systems()[name] for _ in range(3))
    assert deep_first.slack(130) == _slack_schedule(fresh, 130)
    for k in range(1, 131):
        assert deep_first.slack(k) == in_order.slack(k) == _slack_schedule(fresh, k)
    for cs in (fresh, deep_first, CylinderPresentation()):
        for k in (0, -1):
            with pytest.raises(CertificationError, match="resolution starts at 1"):
                cs.slack(k)


# --- exact lifts on binary streams ---


def test_branch_family_lift_recovers_the_branch():
    cs = cantor_system()
    lift = strong_extension_map(cs, family_from_map(cs, identity_map(cs.space)))
    rng = random.Random(20260822)
    for _ in range(30):
        k = rng.randrange(1, 7)
        s = rand_branch(cs, k + 6, rng)
        assert lift.prefix((), s, k) == s[:k]


def test_shift_lifts_to_shift():
    cs = cantor_system()
    lifted = lift_self_map(cs, stream_map(shift_transducer(CANTOR)))
    rng = random.Random(4)
    for _ in range(30):
        w = rand_branch(cs, 12, rng)
        out = lifted.transducer.step(w)
        assert out == w[1:9]


def test_odometer_lifts_to_odometer():
    cs = cantor_system()
    machine = odometer_transducer()
    lifted = lift_self_map(cs, stream_map(machine))
    rng = random.Random(9)
    for _ in range(30):
        w = rand_branch(cs, 10, rng)
        out = lifted.transducer.step(w)
        assert len(out) == 7
        assert out == machine.step(w)[:7]


def test_lifted_transducer_is_monotone_and_productive():
    cs = cantor_system()
    lifted = lift_self_map(cs, stream_map(odometer_transducer()))
    rng = random.Random(7)
    for _ in range(20):
        w = rand_branch(cs, 14, rng)
        full = lifted.transducer.step(w)
        partial = lifted.transducer.step(w[:9])
        assert full[: len(partial)] == partial
        assert evaluate_transducer(lifted.transducer, w, 5) == full


# --- interval and circle lifts ---


def shift_stream(s: Stream) -> Stream:
    if s.pre:
        return Stream(s.pre[1:], s.cycle)
    return Stream((), s.cycle[1:] + s.cycle[:1])


@pytest.mark.parametrize(
    "system, point_map",
    [
        (interval_system(), squaring_map()),
        (interval_system(), tent_map()),
        (interval_system(), identity_map(interval_system().space)),
        (circle_system(), rotation_map(F(1, 3))),
        (cantor_system(), stream_map(shift_transducer(CANTOR), point_fn=shift_stream)),
    ],
)
def test_lift_certificates_pass(system, point_map):
    rng = random.Random(20260822)
    lifted = lift_self_map(system, point_map)
    cert = lifted.certificate(6, 30, rng, exact_samples=8)
    assert cert.ok, cert.render()


def test_squaring_lift_tracks_exact_points():
    cs = interval_system()
    lifted = lift_self_map(cs, squaring_map())
    depth = lifted.lift.moduli(6)[1]
    branch = locate_ball(cs, cs.space.point_cell(F(1, 3)), cs.epsilon(depth) / 4, depth)
    t = lifted.transducer.step(branch)
    for k in range(1, 7):
        assert cs.space.contains(cs.v_cell(t[:k]), F(1, 9))


def test_identity_lift_names_the_same_point():
    cs = interval_system()
    lifted = lift_self_map(cs, identity_map(cs.space))
    rng = random.Random(99)
    for _ in range(20):
        w = rand_branch(cs, 12, rng)
        t = lifted.transducer.step(w)
        k = min(len(t), 6)
        assert cs.space.intersect(cs.v_cell(t[:k]), cs.v_cell(w[:k])) is not None


def test_table_lift_frozen_output():
    cs = finite_system()
    lifted = lift_self_map(cs, table_map(cs.space, (1, 2, 0)))
    assert lifted.transducer.step((2, 0, 1, 0)) == (0, 0, 0, 0)
    assert lifted.transducer.step((0, 1)) == (1, 0)
    rng = random.Random(11)
    assert lifted.certificate(4, 20, rng, exact_samples=10).ok


def test_product_lift_certificate():
    cs = product_system(CantorSpace(), CantorSpace(), "stream-pair")
    point_map = product_map(
        stream_map(shift_transducer(CANTOR), point_fn=shift_stream),
        stream_map(odometer_transducer()),
    )
    rng = random.Random(5)
    assert lift_self_map(cs, point_map).certificate(4, 15, rng).ok


def test_lift_requires_enough_input():
    lifted = lift_self_map(interval_system(), squaring_map())
    with pytest.raises(InsufficientInput):
        lifted.lift.prefix((), (0, 1, 2), 6)


def test_lift_outputs_are_coherent_under_extension():
    cs = interval_system()
    lifted = lift_self_map(cs, tent_map())
    rng = random.Random(13)
    for _ in range(15):
        w = rand_branch(cs, 16, rng)
        short = lifted.transducer.step(w[:12])
        long = lifted.transducer.step(w)
        assert long[: len(short)] == short


# --- lift coherence: a longer input extends the output ---

SELF_MAPS = {
    "square": (interval_system, squaring_map),
    "tent": (interval_system, tent_map),
    "rot(2/7)": (circle_system, lambda: rotation_map(F(2, 7))),
    "odometer": (cantor_system, lambda: stream_map(odometer_transducer())),
}


def branches(cs, length):
    return st.tuples(*(st.integers(0, cs.child_arity(i + 1) - 1) for i in range(length)))


@pytest.mark.parametrize("name", SELF_MAPS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_self_map_lift_output_extends_under_longer_input(name, data):
    make_cs, make_map = SELF_MAPS[name]
    cs = make_cs()
    lifted = lift_self_map(cs, make_map())
    w = data.draw(branches(cs, 16))
    cut = data.draw(st.integers(0, len(w)))
    short = lifted.transducer.step(w[:cut])
    assert lifted.transducer.step(w)[: len(short)] == short


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_family_lift_output_extends_when_both_inputs_extend(data):
    cs = circle_system()
    lift = strong_extension_map(cs, rotation_family(cs))
    k = data.draw(st.integers(1, 5))
    (l, m), (lk, mk) = lift.moduli(6), lift.moduli(k)
    assert l > lk and m > mk
    q = data.draw(st.tuples(*[st.integers(0, 1)] * l))
    s = data.draw(branches(cs, m))
    assert lift.prefix(q, s, 6)[:k] == lift.prefix(q[:lk], s[:mk], k)


# --- parameterized families ---


def test_rotation_family_certificate():
    cs = circle_system()
    lift = strong_extension_map(cs, rotation_family(cs))
    rng = random.Random(20260822)
    cert = lift.certificate(5, 30, rng)
    assert cert.ok, cert.render()


def test_rotation_family_matches_fixed_rotation():
    cs = circle_system()
    fam_lift = strong_extension_map(cs, rotation_family(cs))
    map_lift = lift_self_map(cs, rotation_map(F(1, 4)))
    rng = random.Random(3)
    k = 4
    q = (1,) + (0,) * 15
    s = rand_branch(cs, 20, rng)
    t_fam = fam_lift.prefix(q, s, k)
    t_map = map_lift.lift.prefix((), s, k)
    # the parameter prefix 100... pins the angle to [1/4, 1/4 + tail], so
    # both branches must name overlapping cells around the rotated point
    assert cs.space.intersect(cs.v_cell(t_fam), cs.v_cell(t_map)) is not None


def test_rotation_family_truncation_coherence():
    cs = circle_system()
    lift = strong_extension_map(cs, rotation_family(cs))
    rng = random.Random(17)
    s = rand_branch(cs, 20, rng)
    l, m = lift.moduli(3)
    q = tuple(rng.randrange(2) for _ in range(l))
    other = q + (1, 1, 0)
    assert lift.prefix(q, s, 3) == lift.prefix(other, s, 3)
    assert lift.prefix(other, s, 4)[:3] == lift.prefix(q, s, 3)


def test_weakened_moduli_fail_loudly():
    cs = circle_system()
    lift = strong_extension_map(cs, weakened_family(rotation_family(cs), 8))
    rng = random.Random(21)
    q = tuple(rng.randrange(2) for _ in range(10))
    s = rand_branch(cs, 10, rng)
    with pytest.raises(NoCell):
        lift.prefix(q, s, 2)


def test_region_leaving_its_cell_names_the_missing_child():
    cs = interval_system()
    # the region leaps between the ends of [0, 1] as the branch prefix grows
    jumping = ParameterizedFamily(
        cs.space,
        lambda q, s: cs.space.point_cell(F(len(s) % 2)),
        lambda width: (0, least_dyadic_level(width)),
        "jumping",
    )
    lift = strong_extension_map(cs, jumping)
    assert lift.moduli(2) == (0, 8)
    with pytest.raises(
        NoCell,
        match=r"^lift\[jumping\]: no level-2 cell below \(4,\) holds the image of "
        r"\(\(\), \(0, 0, 0, 0, 0, 0, 0, 0\)\)$",
    ):
        lift.prefix((), (0,) * 8, 2)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["interval", "circle"]),
    st.integers(1, 8),
    st.fractions(0, F(1, 2), max_denominator=1000),
)
def test_descend_takes_a_region_exactly_half_the_slack_wide(kind, kk, start):
    """The width test is `diam(region) <= slack/2`: a region exactly that
    wide descends to a child keeping the slack-ball around it, and one a
    hair wider is refused, naming its label."""
    cs = interval_system() if kind == "interval" else circle_system()
    r, label = cs.slack(kk), ((0, 1), (2,))

    def region(width):
        if kind == "interval":
            return cs.space.cell(start, start + width)
        return cs.space.arc(start, width)

    exact = region(r / 2)
    assert cs.space.diam(exact) == r / 2
    t = locate_ball(cs, exact, r, kk - 1)
    word = _descend(cs, "lift", t, kk, exact, label)
    assert word[:-1] == t and _keeps_slack(cs, cs.v_cell(word), exact, kk)
    message = f"lift: region at {label} is wider than {r}/2; moduli too coarse for resolution {kk}"
    with pytest.raises(NoCell, match=f"^{re.escape(message)}$"):
        _descend(cs, "lift", t, kk, region(r / 2 + F(1, 2 ** 64)), label)


def test_resolution_zero_reads_nothing_whatever_was_asked_before():
    lifted = lift_self_map(interval_system(), tent_map())
    assert lifted.transducer.modulus(0) == 0
    assert lifted.transducer.modulus(4) == 11
    assert lifted.transducer.modulus(0) == 0
    assert lifted.lift.moduli(0) == (0, 0)
    cert = lifted.lift.certificate(0, 2, random.Random(1))
    assert "0 parameter symbols, 0 branch symbols" in cert.render()


# --- presentations over unbounded branching ---


def test_cylinder_presentation_laws():
    rng = random.Random(20260822)
    cert = presentation_certificate(CylinderPresentation(), 6, 20, rng)
    assert cert.ok, cert.render()


IV = IntervalSpace().cell
CIRCLE_SQUARED = ProductSpace(CircleSpace(), CircleSpace())


@contextmanager
def _within_one_second():
    def expire(signum, frame):
        raise TimeoutError("the call ran past 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_baire_lift_refuses_a_region_that_leaves_its_cell():
    # resolution 2 reads a region straddling the right end of the cell
    # resolution 1 located; the level-1 region is too wide for resolution 2,
    # so the lift must read the second symbol, and no child holds its region
    ps = interval_system()
    edge = {}

    def region(w):
        if not w:
            return IV(0, 1)
        if len(w) == 1:
            return IV(F(1, 4), F(1, 4) + ps.slack(1) / 2)
        width = ps.slack(len(w)) / 8
        return IV(edge["v"] - width, edge["v"] + width)

    bl = baire_extension_map(ps, PolishPointMap(IntervalSpace(), region, "leaves-cell"))
    located = ps.v_cell(bl.output((0,), 1))
    assert located == (1, 15, 32)
    edge["v"] = F(15, 32)
    message = r"^lift\[leaves-cell\]: no level-2 cell below \(\d+,\) holds the image of \(0, 0\)$"
    with _within_one_second(), pytest.raises(NoCell, match=message):
        bl.output((0, 0), 2)
    # the walk that cannot place its image refuses, not a shorter resolution
    with pytest.raises(NoCell, match=message):
        bl.max_resolution((0, 0))


def test_baire_identity_lift_is_identity():
    bl = baire_extension_map(CylinderPresentation(), baire_identity_map())
    rng = random.Random(8)
    for _ in range(20):
        w = tuple(rng.randrange(7) for _ in range(9))
        assert bl.output(w, 7) == w[:7]
    assert bl.max_resolution(w) == 7
    with pytest.raises(InsufficientInput):
        bl.output(w[:4], 3)


def test_constant_lift_ignores_the_branch():
    bl = baire_extension_map(interval_system(), constant_interval_map(F(1, 3)))
    a = bl.output((0, 5, 2), 6)
    b = bl.output((9, 9, 9, 9), 6)
    assert a == b
    assert bl.point_map.target.contains(bl.presentation.v_cell(a), F(1, 3))
    assert bl.max_resolution((0,) * 10) == 10


INTERVAL_PRESENTATIONS = pytest.mark.parametrize("present", [interval_system], ids=["cover"])


@INTERVAL_PRESENTATIONS
def test_parity_expansion_lift_certificate(present):
    bl = baire_extension_map(present(), parity_expansion_map())
    rng = random.Random(20260822)
    cert = bl.certificate(8, 25, rng)
    assert cert.ok, cert.render()


@INTERVAL_PRESENTATIONS
def test_parity_expansion_lift_tracks_a_known_point(present):
    bl = baire_extension_map(present(), parity_expansion_map())
    w = (1,) + (0,) * 30
    t = bl.output(w, 5)
    for k in range(1, 6):
        cell = bl.presentation.v_cell(t[:k])
        assert bl.point_map.target.contains(cell, F(1, 2))


def test_baire_outputs_extend():
    bl = baire_extension_map(interval_system(), parity_expansion_map())
    w = tuple(random.Random(31).randrange(10) for _ in range(40))
    assert bl.output(w, 5)[:3] == bl.output(w, 3)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, SYMBOL_BOUND), min_size=1, max_size=30).map(tuple), st.data())
def test_baire_lift_output_extends_under_longer_input(w, data):
    bl = baire_extension_map(interval_system(), parity_expansion_map())
    cut = data.draw(st.integers(0, len(w)))
    top, k = bl.max_resolution(w), bl.max_resolution(w[:cut])
    assert k <= top
    assert bl.output(w, top)[:k] == bl.output(w[:cut], k)


def test_discovered_prefixes_are_minimal_antichains():
    bl = baire_extension_map(interval_system(), parity_expansion_map())
    rng = random.Random(41)
    read = {k: set() for k in (1, 2, 3, 4)}
    for _ in range(15):
        w = tuple(rng.randrange(10) for _ in range(40))
        for k, (s, _) in zip(read, bl._walk(w)):
            read[k].add(s)
    target = bl.point_map.target
    for k, prefixes in read.items():
        family = sorted(prefixes)
        assert family
        bound = bl.presentation.slack(k) / 2
        for s in family:
            assert target.diam(bl.point_map.region(s)) <= bound
            if s:
                assert target.diam(bl.point_map.region(s[:-1])) > bound
        for i, a in enumerate(family):
            for b in family[i + 1 :]:
                n = min(len(a), len(b))
                assert a[:n] != b[:n]


def _ref_minimal_prefix(bl, w, k):
    """Reference: the least prefix of w whose image region is at most half
    the level-k slack wide, scanned from the empty prefix on every call;
    None when no prefix of w is that narrow."""
    bound = bl.presentation.slack(k) / 2
    for j in range(len(w) + 1):
        if bl.point_map.target.diam(bl.point_map.region(w[:j])) <= bound:
            return w[:j]
    return None


BAIRE_PAIRS = {
    "cylinder-id": (CylinderPresentation, baire_identity_map),
    "cover-parity": (interval_system, parity_expansion_map),
}


@pytest.mark.parametrize("pair_name", BAIRE_PAIRS)
@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, SYMBOL_BOUND), max_size=30).map(tuple), st.data())
def test_baire_walk_reads_the_minimal_prefixes_a_fresh_scan_finds(pair_name, w, data):
    make_presentation, make_map = BAIRE_PAIRS[pair_name]
    bl = baire_extension_map(make_presentation(), make_map())
    reached = 0
    try:
        for k, (s, t) in enumerate(bl._walk(w), 1):
            assert s == _ref_minimal_prefix(bl, w, k), k
            assert len(t) == k
            reached = k
    except InsufficientInput:
        # the walk runs out of input exactly where a fresh scan does
        assert _ref_minimal_prefix(bl, w, reached + 1) is None
    assert bl.max_resolution(w) == min(reached, len(w))
    cut = data.draw(st.integers(0, len(w)))
    assert bl.max_resolution(w[:cut]) <= bl.max_resolution(w) <= len(w)


def test_cylinder_locate_child_is_the_cylinder_containment_test():
    ps = CylinderPresentation()
    region = (0, 3, 1, 4)
    # slack 0 asks only that the closed region sit inside the child
    assert ps.locate_child((0,), region, F(0)) == 3
    # an open ball of radius 1/4 pins two symbols, one of radius 1/2 only
    # one: the level-2 child keeps the first and not the second
    assert ps.locate_child((0,), region, F(1, 4)) == 3
    assert ps.locate_child((0,), region, F(1, 2)) is None
    assert ps.locate_child((1,), region, F(0)) is None
    assert ps.locate_child((0, 3, 1, 4), region, F(0)) is None


@pytest.mark.parametrize(
    "make",
    [
        lambda: BaireLift(CylinderPresentation(), parity_expansion_map()),
        lambda: baire_extension_map(cantor_system(), parity_expansion_map()),
    ],
    ids=["direct", "cantor-cover"],
)
def test_baire_lift_checks_target_space(make):
    with pytest.raises(SpaceMismatch):
        make()


# --- negative controls: every lift check flips to FAIL and names its witness ---


def _named(detail, prefix):
    """The witness a failing check names after `prefix`."""
    assert detail.startswith(prefix), detail
    return eval(detail[len(prefix) :], {"__builtins__": {}, "Fraction": F})


def _statuses(cert):
    return [c.status for c in cert.children]


def _first_strong_sample(lift, resolution, seed):
    """The (q, s) that `StrongLift.certificate` draws first."""
    rng = random.Random(seed)
    l, m = lift.moduli(resolution)
    q = tuple(rng.randrange(2) for _ in range(l))
    return q, tuple(rng.randrange(lift.cs.child_arity(i + 1)) for i in range(m))


def test_sound_at_holds_on_located_branches_and_refuses_short_prefixes():
    cs = circle_system()
    lift = strong_extension_map(cs, rotation_family(cs))
    q, s = _first_strong_sample(lift, 3, 21)
    t = lift.prefix(q, s, 3)
    l, m = lift.moduli(3)
    assert all(lift.sound_at(q, s, t, k) for k in (1, 2, 3))
    assert not lift.sound_at(q[: l - 1], s, t, 3)
    assert not lift.sound_at(q, s[: m - 1], t, 3)
    assert not lift.sound_at(q, s, t[:2], 3)
    # the level-1 circle cell opposite the located one
    opposite = ((t[0] + cs.child_arity(1) // 2) % cs.child_arity(1),) + t[1:]
    assert not lift.sound_at(q, s, opposite, 1)


def test_strong_lift_certificate_names_a_misplaced_branch():
    cs = interval_system()
    lift = lift_self_map(cs, tent_map()).lift
    assert lift.certificate(3, 6, random.Random(12)).ok
    # Move the first symbol of every cached branch to a level-1 child that
    # cannot hold its region: the located child is the least that can, so
    # no lower one can, and the top cell lies far from the bottom one.
    top = cs.child_arity(1) - 1
    for key, t in lift._memo.items():
        lift._memo[key] = (top if t[0] == 0 else 0,) + t[1:]
    cert = lift.certificate(3, 6, random.Random(12))
    assert _statuses(cert) == ["INFO", "FAIL", "PASS", "INFO"]
    failure = cert.first_failure()
    assert failure.title == (
        "slack-fattened image regions sit inside the located cells at every resolution"
    )
    q, s = _first_strong_sample(lift, 3, 12)
    assert _named(failure.detail, "first failure at (q, s, k) = ") == (q, s, 1)


def test_strong_lift_certificate_names_a_region_that_grows():
    cs = interval_system()
    # a point that drifts by 2^-(40 + m) as the branch prefix grows to m:
    # every region sits deep inside its cell, but none inside the last one
    drifting = ParameterizedFamily(
        cs.space,
        lambda q, s: cs.space.point_cell(F(1, 3) + F(1, 2 ** (40 + len(s)))),
        lambda width: (0, least_dyadic_level(width)),
        "drifting",
    )
    lift = strong_extension_map(cs, drifting)
    cert = lift.certificate(3, 4, random.Random(13))
    assert _statuses(cert) == ["INFO", "PASS", "FAIL", "INFO"]
    failure = cert.first_failure()
    assert failure.title == "image regions shrink as prefixes extend"
    q, s = _first_strong_sample(lift, 3, 13)
    assert _named(failure.detail, "first failure at (q, s, k) = ") == (q, s, 2)


def test_lifted_self_map_certificate_names_a_point_rule_that_disagrees():
    cs = interval_system()
    # the regions are the identity's, the exact point rule the mirror's
    liar = PointMap(
        cs.space, lambda cell: cell, "mirror-liar", lipschitz=F(1), point_fn=lambda x: 1 - x
    )
    lifted = lift_self_map(cs, liar)
    cert = lifted.certificate(3, 4, random.Random(14), exact_samples=3)
    failure = cert.first_failure()
    assert failure.title == "exact evaluation lands in every located cell on 3 rational points"
    rng = random.Random(14)
    assert lifted.lift.certificate(3, 4, rng).ok  # the region samples come first
    x = cs.space.sample_point(rng)
    assert _named(failure.detail, "first failure at (x, k) = ") == (x, 1)


class _WidePresentation:
    """Interval cells around 1/2 that halve level by level from full width:
    nested, but each twice as wide as the diameter law allows."""

    name = "wide"
    space = IntervalSpace()

    def v_cell(self, word):
        w = F(1, 2 ** len(word))
        return self.space.cell(F(1, 2) - w, F(1, 2) + w)


class _HoppingPresentation:
    """Narrow interval cells hopping between 1/4 and 3/4 level by level, so
    no cell below the first sits inside its parent."""

    name = "hopping"
    space = IntervalSpace()

    def v_cell(self, word):
        if not word:
            return self.space.whole()
        c = F(1, 4) if len(word) % 2 else F(3, 4)
        w = F(1, 2 ** (len(word) + 3))
        return self.space.cell(c - w, c + w)


def test_presentation_certificate_names_a_cell_too_wide():
    cert = presentation_certificate(_WidePresentation(), 3, 4, random.Random(15))
    assert _statuses(cert) == ["FAIL", "PASS", "INFO"]
    first = (random.Random(15).randrange(SYMBOL_BOUND + 1),)
    assert cert.first_failure().detail == f"first failure at {first}"


def test_presentation_certificate_names_a_cell_outside_its_parent():
    cert = presentation_certificate(_HoppingPresentation(), 3, 4, random.Random(16))
    assert _statuses(cert) == ["PASS", "FAIL", "INFO"]
    rng = random.Random(16)
    first = (rng.randrange(SYMBOL_BOUND + 1), rng.randrange(SYMBOL_BOUND + 1))
    assert cert.first_failure().detail == f"first failure at {first}"


class _ShiftedCylinders(CylinderPresentation):
    """Locates the cylinder one symbol past the right one."""

    def locate_child(self, t, region, slack):
        child = super().locate_child(t, region, slack)
        return None if child is None else child + 1


class _CoarseCylinders(CylinderPresentation):
    """Names each branch by the cylinder one level up."""

    def v_cell(self, t):
        return tuple(t)[:-1]


def _first_baire_sample(seed):
    """The branch `BaireLift.certificate` draws first."""
    rng = random.Random(seed)
    return tuple(rng.randrange(SYMBOL_BOUND + 1) for _ in range(8))


@settings(max_examples=20, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=6, max_size=6))
def test_interval_baire_lift_of_a_composite_agrees_with_lift_self_map(bits):
    # tent after parity-expansion, lifted at once over the interval cover
    # system and in two stages: the Baire lift of parity-expansion, then
    # the lifted tent map; both level-k cells hold tent(x)
    cs = interval_system()
    tent, parity = tent_map(), parity_expansion_map()
    composed = PolishPointMap(
        cs.space, lambda v: tent.image_region(parity.region(v)), "tent-after-parity"
    )
    w = tuple(bits) + (0,) * 40
    x = sum(F(b, 2 ** (i + 1)) for i, b in enumerate(bits))
    at_once = baire_extension_map(cs, composed).output(w, 6)
    stepper = lift_self_map(cs, tent).transducer
    staged = stepper.step(baire_extension_map(cs, parity).output(w, stepper.modulus(6)))
    assert len(at_once) == 6 and len(staged) >= 6
    y = tent.point(x)
    for k in range(1, 7):
        assert cs.space.contains(cs.v_cell(at_once[:k]), y), (k, at_once)
        assert cs.space.contains(cs.v_cell(staged[:k]), y), (k, staged)


def test_baire_lift_certificate_names_a_misplaced_cell():
    bl = baire_extension_map(_ShiftedCylinders(), baire_identity_map())
    cert = bl.certificate(1, 3, random.Random(17))
    assert _statuses(cert) == ["FAIL", "PASS", "PASS", "INFO"]
    assert _named(cert.first_failure().detail, "first failure at (w, k) = ") == (
        _first_baire_sample(17),
        1,
    )


def test_baire_lift_certificate_names_a_cell_too_wide():
    bl = baire_extension_map(_CoarseCylinders(), baire_identity_map())
    cert = bl.certificate(2, 3, random.Random(18))
    assert _statuses(cert) == ["PASS", "FAIL", "PASS", "INFO"]
    assert _named(cert.first_failure().detail, "first failure at (w, k) = ") == (
        _first_baire_sample(18),
        1,
    )


def test_baire_lift_certificate_names_comparable_prefixes():
    # the first two sample walks read (0, 0, 0) and one symbol past it
    bl = baire_extension_map(CylinderPresentation(), baire_identity_map())
    planted, walk = [((0, 0, 0, 0), (0,)), ((0, 0, 0), (0,))], bl._walk

    def planting_walk(w):
        steps = walk(w)
        if planted:
            next(steps)
            yield planted.pop()
        yield from steps

    bl._walk = planting_walk
    cert = bl.certificate(1, 3, random.Random(19))
    assert _statuses(cert) == ["PASS", "PASS", "FAIL", "INFO"]
    assert cert.first_failure().detail == "first comparable pair (1, (0, 0, 0), (0, 0, 0, 0))"


# --- typed refusals ---


@pytest.mark.parametrize(
    "call, exc, fragment",
    [
        pytest.param(
            lambda: strong_extension_map(interval_system(), rotation_family(circle_system())),
            SpaceMismatch, "family rotation-family does not land in the unit-interval space",
            id="family-on-another-space",
        ),
        pytest.param(
            lambda: strong_extension_map(
                circle_system(), rotation_family(circle_system())
            ).prefix((), (0,) * 40, 1),
            InsufficientInput, "resolution 1 reads 7 parameter symbols, got 0",
            id="too-few-parameter-symbols",
        ),
        pytest.param(
            lambda: strong_extension_map(
                circle_system(), rotation_family(circle_system())
            ).prefix((7,) * 12, (0,) * 12, 2),
            InvalidBranch, "rotation parameter symbol 7 is not binary",
            id="rotation-parameter-not-binary",
        ),
        pytest.param(lambda: lift_self_map(interval_system(), tent_map()).lift.moduli(-1),
                     CertificationError, "lift[tent]: resolution -1 is negative",
                     id="negative-moduli-resolution"),
        pytest.param(
            lambda: lift_self_map(interval_system(), tent_map()).lift.prefix((), (0,) * 8, -1),
            CertificationError, "lift[tent]: resolution -1 is negative",
            id="negative-strong-lift-resolution",
        ),
        pytest.param(
            lambda: baire_extension_map(CylinderPresentation(), baire_identity_map()).output(
                (0,) * 8, -2
            ),
            CertificationError, "lift[id]: resolution -2 is negative",
            id="negative-baire-lift-resolution",
        ),
        pytest.param(
            lambda: baire_extension_map(CylinderPresentation(), baire_identity_map()).output(
                (-1, -2, 3, 4, 5), 2
            ),
            InvalidBranch, "symbol -1 at position 0 leaves alphabet of size None",
            id="negative-baire-input-symbol",
        ),
        pytest.param(
            lambda: baire_extension_map(
                interval_system(), parity_expansion_map()
            ).max_resolution((-1,) * 40),
            InvalidBranch, "symbol -1 at position 0 leaves alphabet of size None",
            id="negative-parity-input-symbol",
        ),
        pytest.param(
            lambda: baire_extension_map(
                interval_system(),
                PolishPointMap(IntervalSpace(), lambda w: IV(0, 1), "never-narrows"),
            ).certificate(1, 1, random.Random(1)),
            InsufficientInput,
            "no prefix of the 4096-symbol input pins the image below 3/256 "
            "for resolution 1",
            id="baire-sampling-cap",
        ),
        pytest.param(
            lambda: baire_extension_map(
                product_system(CantorSpace(), CantorSpace(), "cp"),
                PolishPointMap(CIRCLE_SQUARED, lambda w: CIRCLE_SQUARED.whole(), "cc"),
            ).output((0,) * 8, 2),
            SpaceMismatch,
            "cc maps into a product space but the presentation covers a product space",
            id="baire-target-another-product",
        ),
        pytest.param(lambda: CylinderPresentation().slack(-3), CertificationError,
                     "resolution starts at 1", id="cylinder-slack-below-resolution-1"),
        pytest.param(
            lambda: lift_self_map(cantor_system(), stream_map(odometer_transducer())).certificate(
                3, 4, random.Random(15), exact_samples=10
            ),
            CertificationError, "odometer carries no exact point rule",
            id="exact-samples-without-point-rule",
        ),
    ],
)
def test_refusals_are_typed(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is exc
