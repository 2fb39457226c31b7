import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlift.certificates import CertNode
from factorlift.covers import (
    CoverSystem,
    circle_system,
    corrupt_system,
    interval_system,
    product_system,
)
from factorlift.errors import (
    CertificationError,
    EmptyFamily,
    LipschitzRefuted,
    NetTooCoarse,
    NoCell,
    SpaceMismatch,
)
from factorlift.families import (
    LiftedFamily,
    MapFamily,
    PowersCertificate,
    _net_level,
    common_extension_baire,
    contraction_fixed_point,
    contractive_common_extension,
    controlled_powers_check,
    family_lift,
    finite_map_family,
    rotation_map_family,
    universal_on_functions,
)
from factorlift.geometry import CantorSpace, IntervalSpace
from factorlift.lifting import lift_self_map, strong_extension_map
from factorlift.pairing import pair
from factorlift.pointmaps import (
    PointMap,
    affine_map,
    product_map,
    rotation_family,
    rotation_map,
    tent_map,
    weakened_family,
)
from factorlift.transducers import (
    BAIRE,
    CANTOR,
    PrefixTransducer,
    extract_stream,
    identity_transducer,
    odometer_transducer,
    shift_transducer,
    substitution_transducer,
    validate_word,
)

NET = [F(i, 8) for i in range(9)]


def contractions():
    return [affine_map(F(1, 4), F(1, 2)), affine_map(F(1, 3), F(1, 3))]


def liar():
    """Declares 1/4 but contracts by 1/2."""
    return PointMap(
        IntervalSpace(), lambda cell: cell, "liar", lipschitz=F(1, 4),
        point_fn=lambda x: F(1, 4) + x / 2,
    )


def pipeline_pieces():
    return [
        finite_map_family(interval_system(), contractions(), "interval-maps"),
        finite_map_family(circle_system(), [rotation_map(F(1, 3))], "rotations"),
    ]


# --- map families ---


def test_finite_family_takes_the_largest_member_bound():
    fam = finite_map_family(interval_system(), contractions(), "c")
    assert fam.finite
    assert fam.lipschitz == F(1, 2)


def test_map_family_rejects_bad_shapes():
    ci, cc = interval_system(), circle_system()
    with pytest.raises(EmptyFamily, match="family has no members"):
        MapFamily(ci)
    with pytest.raises(SpaceMismatch, match=r"rot\(1/3\) lives on circle"):
        finite_map_family(ci, [rotation_map(F(1, 3))])
    with pytest.raises(CertificationError, match="finite or parameterized, not both"):
        MapFamily(cc, members=(rotation_map(F(1, 3)),), family=rotation_family(cc))


def test_rotation_map_family_evaluates_parameter_words():
    fam = rotation_map_family(circle_system())
    assert not fam.finite
    assert fam.lipschitz == 1
    # angle 1/4 + 1/8
    assert fam.map_at((1, 1)).point(F(0)) == F(3, 8)


# --- stage one: family lifts ---


def test_family_lift_certifies_every_finite_member():
    lf = family_lift(finite_map_family(interval_system(), contractions(), "c"))
    assert len(lf.transducers()) == 2
    rng = random.Random(5)
    for member in lf.members:
        cert = member.certificate(3, 4, rng, exact_samples=2)
        assert cert.ok, cert.render()


def test_rotation_family_certifies_through_its_strong_lift():
    fam = rotation_map_family(circle_system())
    cert = strong_extension_map(fam.cover, fam.family).certificate(2, 3, random.Random(6))
    assert cert.ok, cert.render()


def test_weakened_rotation_family_lift_names_the_wide_region():
    cs = circle_system()
    lift = strong_extension_map(cs, weakened_family(rotation_family(cs), 8))
    with pytest.raises(NoCell, match=r"region at \(\(.*\)\) is wider than"):
        lift.certificate(2, 3, random.Random(7))


# --- stage two: the universal map on function tuples ---


def test_universal_on_functions_intertwines_every_coordinate():
    uni = universal_on_functions([odometer_transducer(), shift_transducer(CANTOR)])
    cert = uni.certificate(4, 4, random.Random(3))
    assert cert.ok, cert.render()
    z = uni.constant_tuple((1, 0, 1, 1))
    assert [uni.projection(n).step(z) for n in range(2)] == [(1, 0, 1, 1)] * 2


def test_universal_on_functions_flags_a_tampered_member():
    uni = universal_on_functions([odometer_transducer(), shift_transducer(CANTOR)])
    # the packed machine runs the identity where the shift is claimed
    uni.product.maps[1] = identity_transducer(CANTOR)
    failure = uni.certificate(4, 4, random.Random(3)).first_failure()
    assert failure.title == "coordinate 1 [shift] agrees symbol-for-symbol to depth 4"
    assert failure.detail == "4 disagreeing samples"


def test_universal_on_functions_needs_a_member():
    with pytest.raises(EmptyFamily):
        universal_on_functions([])


def test_universal_on_functions_rejects_mixed_spaces():
    # constant tuples draw every coordinate from the first member's space
    with pytest.raises(SpaceMismatch, match="all lifted maps must live on one space"):
        universal_on_functions([identity_transducer(CANTOR), identity_transducer(BAIRE)])


# --- stage three: common extensions ---


def test_common_extension_passes_at_small_depth():
    ext = common_extension_baire(pipeline_pieces())
    cert = ext.certificate(2, 4, random.Random(4))
    assert cert.ok, cert.render()
    factors = ext.member_factors()
    assert [(mf.piece_index, mf.member_index) for mf in factors] == [(0, 0), (0, 1), (1, 0)]
    assert ext.factor(1, 0).lifted.point_map.name == "rot(1/3)"


def test_common_extension_flags_a_tampered_member_at_projection_level():
    pieces = pipeline_pieces()
    ext = common_extension_baire(pieces)
    wrong = lift_self_map(pieces[0].cover, affine_map(F(1, 2), F(1, 4)))
    ext.lifted = (
        LiftedFamily(pieces[0], (ext.lifted[0].members[0], wrong)),
        ext.lifted[1],
    )
    cert = ext.certificate(2, 4, random.Random(4))
    failure = cert.first_failure()
    assert failure.title == (
        "piece 0 member 1 [affine(1/2+1/4x)]: projection of the packed step "
        "equals the lifted step to depth 2"
    )
    assert failure.detail.endswith(" disagreeing samples")


def test_pipeline_pieces_must_be_finite():
    with pytest.raises(CertificationError, match="rotations: pipeline pieces must be finite"):
        common_extension_baire([rotation_map_family(circle_system())])


# --- contractions: fixed points and controlled powers ---


def test_contraction_fixed_point_meets_the_banach_bound():
    fp = contraction_fixed_point(
        contractions()[0], F(1, 2), F(1), F(1, 1024), random.Random(175)
    )
    assert fp.error_bound <= F(1, 1024)
    assert abs(fp.value - F(1, 2)) <= fp.error_bound  # 1/4 + x/2 fixes 1/2


def test_contraction_fixed_point_refutes_an_understated_constant():
    with pytest.raises(LipschitzRefuted, match=r"exceeds 1/4 \* d\(x, y\) = .* at x = .*, y = "):
        contraction_fixed_point(contractions()[0], F(1, 4), F(0), F(1, 8), random.Random(175))
    with pytest.raises(CertificationError, match="strictly between 0 and 1"):
        contraction_fixed_point(contractions()[0], 1, F(0), F(1, 8), random.Random(175))


def test_controlled_powers_falsifies_rotations_with_a_drift_witness():
    cs = circle_system()
    fam = rotation_map_family(cs)
    pc = controlled_powers_check(fam, 8, 16, random.Random(2))
    assert pc.falsified and not pc.certified
    q0, q1, steps, x, gap = pc.witness
    assert q0[:-1] == q1[:-1] and q0 != q1
    y0, y1 = x, x
    for _ in range(steps):
        y0, y1 = fam.map_at(q0).point(y0), fam.map_at(q1).point(y1)
    assert cs.space.distance(y0, y1) == gap >= F(1, 4)


def test_controlled_powers_certifies_contractions_with_a_schedule():
    fam = finite_map_family(interval_system(), contractions(), "c")
    pc = controlled_powers_check(fam, 4, 4, random.Random(2))
    assert pc.certified
    assert pc.schedule == tuple(F(1, 2 ** i) for i in range(5))
    assert pc.report.ok, pc.report.render()


def test_controlled_powers_without_a_constant():
    single = finite_map_family(interval_system(), [tent_map()], "tent")
    pc = controlled_powers_check(single, 4, 4, random.Random(2))
    assert pc.certified and pc.schedule == ()
    cs = circle_system()
    blind = MapFamily(cs, family=rotation_family(cs), name="blind")
    assert controlled_powers_check(blind, 4, 4, random.Random(2)).status == "inconclusive"


def test_powers_certificate_rejects_bad_data():
    with pytest.raises(CertificationError, match="unknown powers status 'maybe'"):
        PowersCertificate("maybe")
    with pytest.raises(CertificationError, match="nonincreasing"):
        PowersCertificate("certified", (F(1, 2), F(1)))


# --- the tabulated model for contraction families ---


def test_contractive_model_passes_with_its_exact_defect():
    model = contractive_common_extension(
        interval_system(), contractions(), 3, NET, F(1, 4), random.Random(1)
    )
    assert model.report.ok, model.report.render()
    assert model.defect == F(1, 32)
    assert model.alpha_defect == 0
    step = tuple(pm.point(v) for pm, v in zip(contractions(), model.rows[0][8]))
    assert step == model.rows[1][8]


def test_contractive_model_takes_a_generator_net():
    def model(net):
        return contractive_common_extension(
            interval_system(), contractions(), 3, net, F(1, 4), random.Random(1)
        )

    assert model(iter(NET)).report.render() == model(tuple(NET)).report.render()


def test_contractive_model_refutes_an_understated_lipschitz_constant():
    with pytest.raises(LipschitzRefuted, match=r"liar: d\(S\(x\), S\(y\)\) = .* at x = "):
        contractive_common_extension(interval_system(), [liar()], 3, NET, F(1, 4), random.Random(1))


def test_contractive_model_refutes_a_coarse_net():
    with pytest.raises(
        NetTooCoarse,
        match=r"net misses the space at scale 1/64: best certified bound .* near interval\(",
    ):
        contractive_common_extension(
            interval_system(), contractions(), 3, [F(0), F(1)], F(1, 64), random.Random(1)
        )


def test_contractive_model_needs_contracting_members():
    with pytest.raises(EmptyFamily):
        contractive_common_extension(interval_system(), [], 3, NET, F(1, 4), random.Random(977))
    with pytest.raises(CertificationError, match="contraction constant below 1"):
        contractive_common_extension(
            interval_system(), [tent_map()], 3, NET, F(1, 4), random.Random(977)
        )


# --- packed sizes: the certificates ask the projections ---


def _packed_sizes(cert):
    (note,) = [c for c in cert.children if c.title == "packed sizes"]
    out_len, _, _, _, in_len, _, _ = note.detail.split()
    return int(out_len), int(in_len)


def test_certificates_take_packed_sizes_from_the_projections():
    # the sizes the certificates wrote with inline Cantor pairing
    uni = universal_on_functions(
        [odometer_transducer(), shift_transducer(CANTOR), substitution_transducer({0: (1,), 1: (0, 0)})]
    )
    ext = common_extension_baire(pipeline_pieces())
    for r in range(1, 21):
        out_len, in_len = _packed_sizes(uni.certificate(r, 0, random.Random(0)))
        assert out_len == pair(len(uni.members) - 1, r - 1) + 1
        assert in_len == uni.machine.modulus(out_len)
        inner = [pair(len(u.members) - 1, r - 1) + 1 for u in ext.universals]
        out_len, in_len = _packed_sizes(ext.certificate(r, 0, random.Random(0)))
        assert out_len == max(pair(i, io - 1) + 1 for i, io in enumerate(inner))
        assert in_len == ext.machine.modulus(out_len)


# --- the net level against the word-by-word walk ---


def _word_walk_net_level(cs, net, eps):
    """Reference net level: every branch word checked on its own through
    `v_cell`, as the original implementation did.  A representative farther
    than eps from the net ends the walk from level 5 on; without one it
    runs to the least level m >= 5 with 2^-m <= eps/2.  The class walk must
    return the same level or raise the same error."""
    space = cs.space
    net = list(net)
    if not net:
        raise NetTooCoarse("an empty net covers nothing")
    for a in net:
        if not space.contains(space.whole(), a):
            raise CertificationError(f"net point {a} lies outside the space")
    top = 5
    while F(1, 2 ** top) > eps / 2:
        top += 1
    missed = False
    words = [()]
    for k in range(1, top + 1):
        words = [s + (j,) for s in words for j in range(cs.child_arity(k))]
        level_worst = F(0)
        offender = None
        for s in words:
            cell = cs.v_cell(s)
            rep = space.witness_point(cell)
            gap = min(space.distance(rep, a) for a in net)
            missed = missed or gap > eps
            bound = gap + space.diam(cell)
            if bound > level_worst:
                level_worst, offender = bound, cell
        if level_worst <= eps:
            return k
        if missed and k >= 5:
            raise NetTooCoarse(
                f"net misses the space at scale {eps}: best certified bound "
                f"{level_worst} near {space.describe(offender)}"
            )
    raise NetTooCoarse(
        f"net not certified at scale {eps} by tree level {top}: best bound "
        f"{level_worst} near {space.describe(offender)}"
    )


def _outcome(fn):
    try:
        return fn()
    except CertificationError as err:
        return type(err).__name__, str(err)


@st.composite
def _net_cases(draw, make, tampered):
    cs = make()
    if tampered:
        length = draw(st.integers(1, 3))
        word = tuple(draw(st.integers(0, cs.child_arity(i + 1) - 1)) for i in range(length))
        cs = corrupt_system(cs, word)
    net = draw(st.lists(st.fractions(0, 1, max_denominator=16), min_size=1, max_size=6))
    eps = F(1, 2 ** draw(st.integers(0, 6)))
    return cs, net, eps


@pytest.mark.parametrize("make", [interval_system, circle_system])
@pytest.mark.parametrize("tampered", [False, True])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_net_level_matches_word_walk(make, tampered, data):
    cs, net, eps = data.draw(_net_cases(make, tampered))

    def walk(net_level):
        fresh = CoverSystem(cs.space, cs.name, tamper=dict(cs.tamper))
        return _outcome(lambda: net_level(fresh, net, eps))

    assert walk(_net_level) == walk(_word_walk_net_level)


def test_net_level_certifies_a_fine_net_past_level_five():
    # level-5 cells are 7/256 wide, wider than eps; no point of the net
    # misses, so the walk goes on and level 6 (cells 7/512 wide) certifies
    net = [F(i, 1024) for i in range(1025)]
    assert _net_level(interval_system(), net, F(1, 64)) == 6


def test_net_level_does_not_claim_a_miss_without_a_witness():
    # every point of [0, 1] lies within 1 of 0, so no representative is a
    # witness; the cell bound never drops to 1, and the walk names its level
    with pytest.raises(NetTooCoarse) as err:
        _net_level(interval_system(), [F(0)], F(1))
    assert "misses" not in str(err.value)
    assert str(err.value).startswith("net not certified at scale 1 by tree level 5:")


@pytest.mark.parametrize(
    "make, net, near",
    [
        (interval_system, [F(1, 2)], "interval(1/512, 7/256)"),
        (circle_system, [F(0), F(1, 2)], "arc(start=121/512, length=7/256)"),
    ],
)
def test_net_level_names_the_first_of_tied_worst_cells(make, net, near):
    # a mirror-image cell is just as far from the net; the one met first in
    # branch-word order is named
    outcomes = {_outcome(lambda: walk(make(), net, F(1, 64))) for walk in (_net_level, _word_walk_net_level)}
    assert len(outcomes) == 1
    ((kind, message),) = outcomes
    assert kind == "NetTooCoarse" and message.endswith(f"near {near}")


# --- the shared sampled-diagram walk against the two loops it replaced ---


def _ref_sample_word(profile, rng):
    return tuple(rng.randrange(a if a is not None else 6) for a in profile)


def _ref_width(n, length):
    """Symbols of component n below a packed length, read off the slots."""
    return len(extract_stream(range(length), n))


def _ref_stream_positions(path, length):
    """Packed positions below `length` of the stream at the end of `path`,
    in order: symbol k of component n sits at pair(n, k)."""
    n, rest = path[0], path[1:]
    here = [pair(n, k) for k in range(_ref_width(n, length))]
    return [here[p] for p in _ref_stream_positions(rest, len(here))] if rest else here


def _ref_draw(length, streams, rng):
    """A packed word of `length` holding each (path, member) stream, drawn
    in turn at its full width from the member's alphabet; 0 elsewhere."""
    z = [0] * length
    for path, member in streams:
        at = _ref_stream_positions(path, length)
        for p, sym in zip(at, _ref_sample_word(member.domain.arities(len(at)), rng)):
            z[p] = sym
    return tuple(z)


def _ref_universal_certificate(uni, resolution, samples, rng):
    """Reference: `FunctionSpaceUniversal.certificate` with its own sampling
    loop, stepping the machine through the validating `step`."""
    node = CertNode(
        f"function-space universal over {len(uni.members)} maps "
        f"to depth {resolution}"
    )
    m = len(uni.members)
    out_len = max(uni.projection(n).modulus(resolution) for n in range(m))
    in_len = uni.machine.modulus(out_len)
    node.note(
        "packed sizes",
        f"{out_len} output positions need {in_len} input positions",
    )
    short, bad = [], {n: [] for n in range(m)}
    streams = [((n,), member) for n, member in enumerate(uni.members)]
    for _ in range(samples):
        z = _ref_draw(in_len, streams, rng)
        out = uni.machine.step(z)
        if len(out) < out_len:
            short.append(len(out))
            continue
        for n, member in enumerate(uni.members):
            lhs = extract_stream(out, n)
            rhs = member.step(extract_stream(z, n))
            if (
                len(lhs) < resolution
                or len(rhs) < resolution
                or lhs[:resolution] != rhs[:resolution]
            ):
                bad[n].append(z)
    node.check(
        f"packed step determines {out_len} positions on {samples} samples",
        not short,
        f"shortest run {min(short)}" if short else "",
    )
    sec = node.section("evaluation projections intertwine exactly")
    for n, member in enumerate(uni.members):
        sec.check(
            f"coordinate {n} [{member.name}] agrees symbol-for-symbol "
            f"to depth {resolution}",
            not bad[n],
            f"{len(bad[n])} disagreeing samples" if bad[n] else "",
        )
    surj = node.section("projections are onto: constant tuples")
    misses = 0
    profile = uni.members[0].domain.arities(resolution + m + 2)
    for _ in range(samples):
        u = _ref_sample_word(profile, rng)
        z = uni.constant_tuple(u)
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


def _ref_extension_certificate(ext, resolution, samples, rng):
    """Reference: `CommonExtension.certificate` with its own sampling loop,
    stepping the machine and the composed projections through `step`."""
    node = CertNode(f"common extension pipeline to depth {resolution}")
    shape = ", ".join(
        f"{fam.name}({len(lf.members)})" for fam, lf in zip(ext.pieces, ext.lifted)
    )
    node.note("pieces", shape)
    out_len = max(mf.projection.modulus(resolution) for mf in ext.member_factors())
    in_len = ext.machine.modulus(out_len)
    node.note(
        "packed sizes",
        f"{out_len} output positions need {in_len} input positions",
    )
    short = 0
    bad = {}
    last = None
    streams = [
        ((i, j), member.transducer)
        for i, lf in enumerate(ext.lifted)
        for j, member in enumerate(lf.members)
    ]
    for _ in range(samples):
        z = _ref_draw(in_len, streams, rng)
        out = ext.machine.step(z)
        if len(out) < out_len:
            short += 1
            continue
        last = (z, out)
        for i, lf in enumerate(ext.lifted):
            zi, oi = extract_stream(z, i), extract_stream(out, i)
            for j, member in enumerate(lf.members):
                zij, oij = extract_stream(zi, j), extract_stream(oi, j)
                want = member.transducer.step(zij)
                if (
                    len(oij) < resolution
                    or len(want) < resolution
                    or oij[:resolution] != want[:resolution]
                ):
                    bad.setdefault((i, j), 0)
                    bad[(i, j)] += 1
    node.check(
        f"packed evaluation determines {out_len} positions on "
        f"{samples} samples",
        short == 0,
        f"{short} short runs" if short else "",
    )
    sec = node.section("member diagrams, projection level: exact")
    for i, lf in enumerate(ext.lifted):
        for j, member in enumerate(lf.members):
            sec.check(
                f"piece {i} member {j} [{member.point_map.name}]: "
                f"projection of the packed step equals the lifted step "
                f"to depth {resolution}",
                (i, j) not in bad,
                f"{bad.get((i, j), 0)} disagreeing samples" if (i, j) in bad else "",
            )
    if last is not None:
        z, out = last
        comp = node.section("composed factor maps agree with staged extraction")
        for mf in ext.member_factors():
            direct = extract_stream(extract_stream(z, mf.piece_index), mf.member_index)
            comp.check(
                f"piece {mf.piece_index} member {mf.member_index}: "
                f"composed projection reproduces the coordinate",
                mf.projection.step(z) == direct,
            )
        ana = node.section(
            "member diagrams, point level: image regions land in the "
            "projected cells"
        )
        for i, lf in enumerate(ext.lifted):
            cs = ext.pieces[i].cover
            zi, oi = extract_stream(z, i), extract_stream(out, i)
            for j, member in enumerate(lf.members):
                zij, oij = extract_stream(zi, j), extract_stream(oi, j)
                ok = len(zij) >= member.lift.moduli(resolution)[1]
                for kk in range(1, resolution + 1):
                    if not ok:
                        break
                    mk = member.lift.moduli(kk)[1]
                    region = member.point_map.image_region(cs.v_cell(zij[:mk]))
                    ok = cs.space.eroded_contains(
                        cs.v_cell(oij[:kk]), region, cs.slack(kk)
                    )
                ana.check(
                    f"piece {i} member {j} [{member.point_map.name}]: "
                    f"slack-padded image region inside every located cell",
                    ok,
                )
    return node


def _under_read(f, cut):
    """f claiming `cut` fewer input symbols than its modulus asks for."""
    return PrefixTransducer(
        f.domain, f.codomain, f.step_fn, lambda k: max(0, f.modulus(k) - cut), f.name
    )


def _ragged(f, cut):
    """f keeping only `cut` output symbols on inputs that start with 0, so
    some sampled runs may come up short and others not."""

    def step(w):
        out = f.step_fn(w)
        return out[:cut] if w and w[0] == 0 else out

    return PrefixTransducer(f.domain, f.codomain, step, f.modulus_fn, f.name)


def _recording(machine):
    """Record every word the machine's step function is handed."""
    seen, step_fn = [], machine.step_fn

    def step(z):
        seen.append(z)
        return step_fn(z)

    machine.step_fn = step
    return seen


def _universal_case(case, cut):
    uni = universal_on_functions([odometer_transducer(), shift_transducer(CANTOR)])
    if case == "swapped":
        # the packed machine runs the identity where the shift is claimed
        uni.product.maps[1] = identity_transducer(CANTOR)
    elif case == "short":
        uni.product.maps[1] = _under_read(uni.product.maps[1], cut)
    elif case == "ragged":
        uni.product.maps[1] = _ragged(uni.product.maps[1], cut)
    return uni


def _extension_case(case, cut, pieces_cut):
    ext = common_extension_baire(pipeline_pieces())
    if case == "swapped":
        maps = ext.universals[0].product.maps
        maps[0], maps[1] = maps[1], maps[0]
    elif case == "short":
        for i in pieces_cut:
            ext.product.maps[i] = _under_read(ext.product.maps[i], cut)
    elif case == "ragged":
        for i in pieces_cut:
            ext.product.maps[i] = _ragged(ext.product.maps[i], cut)
    return ext


CASES = st.sampled_from(["plain", "swapped", "short", "ragged"])


@settings(max_examples=60, deadline=None)
@given(CASES, st.integers(1, 8), st.integers(1, 4), st.integers(0, 5), st.integers(0, 2**32))
def test_universal_certificate_matches_its_own_loop(case, cut, resolution, samples, seed):
    want = _ref_universal_certificate(
        _universal_case(case, cut), resolution, samples, random.Random(seed)
    ).render()
    uni = _universal_case(case, cut)
    drawn = _recording(uni.machine)
    assert uni.certificate(resolution, samples, random.Random(seed)).render() == want
    assert len(drawn) == samples
    for z in drawn:
        assert validate_word(uni.machine.domain, z) == z


@settings(max_examples=40, deadline=None)
@given(
    CASES,
    st.sampled_from([1, 2, 3, 8, 400]),
    st.sampled_from([(0,), (1,), (0, 1)]),
    st.integers(1, 2),
    st.integers(0, 4),
    st.integers(0, 2**32),
)
def test_extension_certificate_matches_its_own_loop(
    case, cut, pieces_cut, resolution, samples, seed
):
    want = _ref_extension_certificate(
        _extension_case(case, cut, pieces_cut), resolution, samples, random.Random(seed)
    ).render()
    ext = _extension_case(case, cut, pieces_cut)
    drawn = _recording(ext.machine)
    assert ext.certificate(resolution, samples, random.Random(seed)).render() == want
    assert len(drawn) == samples
    for z in drawn:
        assert validate_word(ext.machine.domain, z) == z


@pytest.mark.parametrize("which", ["universal", "extension"])
def test_drawn_words_hold_the_member_streams_and_zero_elsewhere(which):
    if which == "universal":
        target, resolution = _universal_case("plain", 0), 4
        coords = [((n,), member) for n, member in enumerate(target.members)]
    else:
        target, resolution = _extension_case("plain", 0, ()), 2
        coords = [
            ((i, j), member.transducer)
            for i, lf in enumerate(target.lifted)
            for j, member in enumerate(lf.members)
        ]
    drawn = _recording(target.machine)
    cert = target.certificate(resolution, 16, random.Random(19))
    assert cert.ok, cert.render()
    _, in_len = _packed_sizes(cert)
    # the words are the reference draws, one after another
    rng = random.Random(19)
    assert drawn == [_ref_draw(in_len, coords, rng) for _ in range(16)]
    streams = [_ref_stream_positions(path, in_len) for path, _ in coords]
    held = {p for at in streams for p in at}
    for z in drawn:
        assert all(z[p] == 0 for p in range(in_len) if p not in held)
    for at in streams:
        # each stream is drawn up to its last slot below the packed length
        assert any(z[at[-1]] for z in drawn)


def test_universal_certificate_names_the_shortest_run():
    uni = _universal_case("short", 1)
    failure = uni.certificate(3, 4, random.Random(3)).first_failure()
    assert failure.title == "packed step determines 9 positions on 4 samples"
    assert failure.detail == "shortest run 8"


def test_extension_certificate_counts_the_short_runs():
    ext = _extension_case("short", 10**6, (0, 1))
    cert = ext.certificate(2, 4, random.Random(4))
    failure = cert.first_failure()
    assert failure.title == "packed evaluation determines 15 positions on 4 samples"
    assert failure.detail == "4 short runs"
    # no full run, so nothing is left to check at the point level
    assert [c.title for c in cert.children][-1] == "member diagrams, projection level: exact"


# --- typed refusals ---


def _blind_contraction():
    # a declared contraction with regions but no exact point rule
    return PointMap(IntervalSpace(), lambda cell: cell, "blind", lipschitz=F(1, 2))


@pytest.mark.parametrize(
    "call, exc, fragment",
    [
        pytest.param(
            lambda: MapFamily(interval_system(), family=rotation_family(circle_system())),
            SpaceMismatch, "rotation-family lives on circle, the cover system on interval",
            id="family-on-another-space",
        ),
        pytest.param(
            lambda: finite_map_family(
                product_system(CantorSpace(), CantorSpace(), "cp"),
                [product_map(rotation_map(F(1, 3)), rotation_map(F(1, 5)))],
            ),
            SpaceMismatch, "rot(1/3)*rot(1/5) lives on product, the cover system on product",
            id="member-on-another-product",
        ),
        pytest.param(
            lambda: MapFamily(interval_system(), members=contractions(),
                              map_at=lambda q: contractions()[0]),
            CertificationError, "family: parameter evaluation needs the parameterized form",
            id="map-at-without-family",
        ),
        pytest.param(
            lambda: contraction_fixed_point(
                contractions()[0], F(1, 2), F(0), 0, random.Random(175)
            ),
            CertificationError, "tolerance must be positive", id="fixed-point-zero-tol",
        ),
        pytest.param(lambda: _net_level(interval_system(), [], F(1, 4)),
                     NetTooCoarse, "an empty net covers nothing", id="net-empty"),
        pytest.param(lambda: _net_level(interval_system(), [F(0), F(2)], F(1, 4)),
                     CertificationError, "net point 2 lies outside the space",
                     id="net-point-outside"),
        pytest.param(
            lambda: contractive_common_extension(
                interval_system(), [_blind_contraction()], 2, NET, F(1, 4), random.Random(1)
            ),
            CertificationError, "blind carries no exact point rule", id="member-without-point-rule",
        ),
        pytest.param(
            lambda: controlled_powers_check(
                finite_map_family(interval_system(), [_blind_contraction()], "blind"),
                2, 2, random.Random(1),
            ),
            CertificationError, "blind carries no exact point rule",
            id="powers-member-without-point-rule",
        ),
        pytest.param(lambda: family_lift(rotation_map_family(circle_system())),
                     CertificationError, "rotations: pipeline pieces must be finite families",
                     id="family-lift-of-rotations"),
        pytest.param(lambda: common_extension_baire([]), EmptyFamily,
                     "the common extension needs at least one piece", id="extension-no-pieces"),
        pytest.param(lambda: common_extension_baire(pipeline_pieces()).factor(-1, -1),
                     CertificationError, "no piece -1 among 2", id="factor-negative-piece"),
        pytest.param(lambda: common_extension_baire(pipeline_pieces()).factor(1, -1),
                     CertificationError, "piece 1 has no member -1",
                     id="factor-negative-member"),
        pytest.param(
            lambda: common_extension_baire(pipeline_pieces()).certificate(
                3, -3, random.Random(1)
            ),
            CertificationError, "product-lift: samples -3 is negative",
            id="extension-negative-samples",
        ),
        pytest.param(
            lambda: common_extension_baire(pipeline_pieces()).certificate(
                -1, 3, random.Random(1)
            ),
            CertificationError, "product-lift: resolution -1 is negative",
            id="extension-negative-resolution",
        ),
        pytest.param(
            lambda: universal_on_functions(
                [odometer_transducer(), shift_transducer(CANTOR)]
            ).certificate(-1, 2, random.Random(1)),
            CertificationError, "product-lift: resolution -1 is negative",
            id="universal-negative-resolution",
        ),
        pytest.param(
            lambda: universal_on_functions(
                [odometer_transducer(), shift_transducer(CANTOR)]
            ).certificate(3, -2, random.Random(1)),
            CertificationError, "product-lift: samples -2 is negative",
            id="universal-negative-samples",
        ),
    ],
)
def test_refusals_are_typed(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is exc
