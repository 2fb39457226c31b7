"""Shift-operator isometry, orbit enumerations, and factor-map commutation."""

import itertools
import math
import random
import re
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from factorlift import operator_l1
from factorlift.certificates import CertNode
from factorlift.errors import CertificationError, NormBoundViolated
from factorlift.injections import PartialInjection, successor
from factorlift.operator_l1 import (
    BanachModel,
    NormKind,
    OrbitEnumeration,
    SparseL1Vector,
    apply_universal,
    commutation_certificate,
    dense_orbit_enumeration,
    enumeration_certificate,
    synthesize_factor_map,
    unit_ball_grid,
)
from factorlift.pairing import pair, unpair

F = Fraction


def random_sparse(rng: random.Random, size: int = 6) -> SparseL1Vector:
    coeffs = {}
    for _ in range(size):
        # valid layout indices only: draw from the ray/line/cycle encoders
        kind = rng.randrange(3)
        copy = rng.randrange(50)
        if kind == 0:
            from factorlift.injections import encode_line

            i = encode_line(copy, rng.randrange(-20, 21))
        elif kind == 1:
            from factorlift.injections import encode_ray

            i = encode_ray(copy, rng.randrange(40))
        else:
            from factorlift.injections import encode_cycle

            n = rng.randrange(1, 9)
            i = encode_cycle(n, copy, rng.randrange(n))
        coeffs[i] = F(rng.randrange(-99, 100), rng.randrange(1, 40))
    return SparseL1Vector(coeffs)


# === the shift operator ===

def test_shift_is_an_exact_isometry():
    rng = random.Random(11)
    for _ in range(300):
        x = random_sparse(rng)
        assert apply_universal(x).norm1() == x.norm1()


def test_shift_on_frozen_basis_vectors():
    x = SparseL1Vector({1: 1})          # ray copy 0 position 0
    assert apply_universal(x) == SparseL1Vector({4: 1})
    y = SparseL1Vector({6: F(2, 3)})    # fixed point of the layout
    assert apply_universal(y) == y


# === models and ball grids ===

def test_l1_grid_small_prefix_is_deterministic():
    model = BanachModel(1, NormKind.L1)
    grid = unit_ball_grid(model, 3)
    assert grid == [(F(-1),), (F(0),), (F(1),)]
    again = unit_ball_grid(model, 3)
    assert again == grid


def test_grid_points_lie_in_the_ball_and_are_distinct():
    for kind in NormKind:
        model = BanachModel(3, kind)
        grid = unit_ball_grid(model, 60)
        assert len(set(grid)) == 60
        assert all(model.in_unit_ball(v) for v in grid)


def test_l2_membership_is_decided_on_squares():
    model = BanachModel(2, NormKind.L2SQ)
    assert model.in_unit_ball((F(3, 5), F(4, 5)))
    assert not model.in_unit_ball((F(3, 5), F(4, 5) + F(1, 10**9)))


def _fraction_apply(mat, v):
    """T v as the plain sum of Fraction products."""
    return tuple(sum((a * b for a, b in zip(row, v)), F(0)) for row in mat)


rational_entries = st.one_of(
    st.integers(-9, 9).map(F),
    st.fractions(min_value=-9, max_value=9, max_denominator=60),
)


def test_l2_norm_is_refused_with_the_squares_reason():
    with pytest.raises(CertificationError, match="decided on squares"):
        BanachModel(2, NormKind.L2SQ).norm((F(3, 5), F(4, 5)))


def test_operator_norm_is_max_column_sum_for_l1():
    model = BanachModel(2, NormKind.L1)
    t = model.matrix([[0, 1], [0, 0]])
    assert model.operator_norm(t) == 1
    t2 = model.matrix([["1/2", "-3"], ["1/4", 2]])
    # |1/2|+|1/4| = 3/4 against |-3|+|2| = 5
    assert model.operator_norm(t2) == 5


# === orbit enumerations ===

def test_identity_maps_each_point_to_a_later_repetition_of_itself():
    model = BanachModel(1, NormKind.L1)
    enum = dense_orbit_enumeration(model, model.matrix([[1]]), 1, base_count=3)
    assert [p[0] for p in enum.points] == [F(-1), F(0), F(1)]
    for i, j in enum.sigma.entries.items():
        assert unpair(i)[0] == unpair(j)[0], "identity must stay on one point"
        assert j > i, "image must be a later index"
    assert enumeration_certificate(enum).ok


def test_nilpotent_matrix_chains_toward_zero():
    model = BanachModel(2, NormKind.L1)
    enum = dense_orbit_enumeration(
        model, model.matrix([[0, 1], [0, 0]]), 1, base_count=5
    )
    pt = {v: e for e, v in enumerate(enum.points)}
    e_zero, e_e1, e_e2 = pt[(F(0), F(0))], pt[(F(1), F(0))], pt[(F(0), F(1))]
    hop = {unpair(i)[0]: unpair(j)[0] for i, j in enum.sigma.entries.items()}
    assert hop[e_e2] == e_e1 and hop[e_e1] == e_zero and hop[e_zero] == e_zero


def test_zero_matrix_sends_everything_to_the_zero_point():
    model = BanachModel(2, NormKind.L1)
    enum = dense_orbit_enumeration(model, model.matrix([[0, 0], [0, 0]]), 1)
    e_zero = enum.points.index((F(0), F(0)))
    for i, j in enum.sigma.entries.items():
        assert unpair(j)[0] == e_zero


def test_rho_below_norm_is_rejected():
    model = BanachModel(2, NormKind.L1)
    with pytest.raises(NormBoundViolated):
        dense_orbit_enumeration(model, model.matrix([[0, 3], [0, 0]]), 2)


@pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
def test_rho_below_norm_names_the_exact_norm(kind):
    # refuted by the exact norm itself, before any orbit is walked
    model = BanachModel(2, kind)
    with pytest.raises(NormBoundViolated, match=r"^rho = 2 < exact norm 3$"):
        dense_orbit_enumeration(model, model.matrix([[0, 3], [0, 0]]), 2)


def test_rho_zero_rejected():
    model = BanachModel(1, NormKind.L1)
    with pytest.raises(NormBoundViolated):
        dense_orbit_enumeration(model, model.matrix([[0]]), 0)


def test_l2_bad_certified_bound_is_caught_by_membership():
    model = BanachModel(1, NormKind.L2SQ)
    with pytest.raises(NormBoundViolated):
        dense_orbit_enumeration(model, model.matrix([[2]]), 1, base_count=3)


def test_frontier_is_recorded_not_fatal():
    model = BanachModel(1, NormKind.L1)
    enum = dense_orbit_enumeration(model, model.matrix([["1/3"]]), 1, base_count=4)
    assert enum.frontier, "the orbit of 1/3 must leave the point list"
    assert enumeration_certificate(enum).ok


# === factor maps ===

def test_factor_commutes_exactly_on_small_case():
    model = BanachModel(2, NormKind.L1)
    enum = dense_orbit_enumeration(
        model, model.matrix([[0, 1], [0, 0]]), 1, base_count=8
    )
    fmap = synthesize_factor_map(enum)
    cert = commutation_certificate(fmap, rng=random.Random(3))
    assert cert.ok, cert.render()


def test_factor_linearity_against_brute_force():
    model = BanachModel(2, NormKind.L1)
    enum = dense_orbit_enumeration(
        model, model.matrix([["1/2", "1/4"], [0, "1/3"]]), 1, base_count=10
    )
    fmap = synthesize_factor_map(enum)
    rng = random.Random(9)
    # commutation is claimed on sigma-covered indices; frontier slots carry none
    layout_indices = [fmap.layout_of[n] for n in enum.sigma.entries]
    for _ in range(40):
        picks = rng.sample(layout_indices, 4)
        x = SparseL1Vector({i: F(rng.randrange(-9, 10), 7) for i in picks})
        lhs = _fraction_apply(enum.matrix, fmap.apply(x))
        rhs = fmap.apply(apply_universal(x).scale(enum.rho))
        assert lhs == rhs


def test_factor_norm_bounded_by_l1_norm():
    model = BanachModel(2, NormKind.L1)
    enum = dense_orbit_enumeration(model, model.matrix([[0, 1], [0, 0]]), 1)
    fmap = synthesize_factor_map(enum)
    rng = random.Random(4)
    for _ in range(60):
        x = random_sparse(rng, 4)
        assert model.norm(fmap.apply(x)) <= x.norm1()


def test_every_point_attained():
    model = BanachModel(1, NormKind.L1)
    enum = dense_orbit_enumeration(model, model.matrix([["2/3"]]), 1, base_count=5)
    fmap = synthesize_factor_map(enum)
    for e, p in enumerate(enum.points):
        assert fmap.basis_image(fmap.layout_of[pair(e, 0)]) == p


# === per-point construction against the per-index original ===


def _per_index_scaled_image(enum, v):
    return tuple(c / enum.rho for c in _fraction_apply(enum.matrix, v))


def _per_index_enumeration(model, matrix, rho, base_count, orbit_depth, repetitions):
    """Reference construction: every covered index computes its own image
    and scans for a free repetition, as the original implementation did.
    It walks Fraction points and keys them only to build the result."""
    rho = F(rho)
    points = list(unit_ball_grid(model, base_count))
    index = {v: e for e, v in enumerate(points)}
    # the scaled image reads only the matrix and rho
    enum = OrbitEnumeration(model, matrix, rho, [], PartialInjection({}), [], [])
    depth = {e: 0 for e in range(len(points))}
    queue = list(range(len(points)))
    while queue:
        e = queue.pop(0)
        if depth[e] >= orbit_depth:
            continue
        y = _per_index_scaled_image(enum, points[e])
        if not model.in_unit_ball(y):
            raise NormBoundViolated(
                f"(1/rho)T leaves the unit ball at point {e}: rho too small"
            )
        if y not in index:
            index[y] = len(points)
            points.append(y)
            depth[index[y]] = depth[e] + 1
            queue.append(index[y])
    covered = sorted(
        pair(e, r) for e in range(len(points)) for r in range(repetitions)
    )
    entries, used, frontier = {}, {}, []
    for i in covered:
        e, _ = unpair(i)
        target = index.get(_per_index_scaled_image(enum, points[e]))
        if target is None:
            frontier.append(i)
            continue
        r2 = 0
        taken = used.setdefault(target, set())
        while pair(target, r2) <= i or r2 in taken:
            r2 += 1
        taken.add(r2)
        entries[i] = pair(target, r2)
    keys = [operator_l1._key(v) for v in points]
    return OrbitEnumeration(
        model, matrix, rho, keys, PartialInjection(entries), covered, frontier
    )


def _per_index_enumeration_certificate(enum):
    """Reference certificate: one image per covered index."""
    cert = CertNode("dense orbit enumeration")
    cert.check(
        "sigma is injective on its domain",
        len(set(enum.sigma.entries.values())) == len(enum.sigma.entries),
    )
    bad = [
        i
        for i, j in enum.sigma.entries.items()
        if _per_index_scaled_image(enum, enum.value(i)) != enum.value(j)
    ]
    cert.check(
        "scaled image matches the enumeration on every covered index",
        not bad,
        f"first witness index {bad[0]}" if bad else f"{len(enum.sigma.entries)} indices",
    )
    cert.check(
        "every point appears at infinitely many indices (spot check)",
        all(
            enum.value(pair(e, r)) == enum.points[e]
            for e in range(min(4, len(enum.points)))
            for r in (0, 5, 100)
        ),
    )
    cert.note(
        "frontier",
        f"{len(enum.frontier)} covered indices omitted (image past orbit depth)",
    )
    return cert


def _per_index_commutation_certificate(fmap, outside_samples=64, rng=None):
    """Reference certificate: both sides recomputed at every layout index."""
    enum, model = fmap.enum, fmap.enum.model
    cert = CertNode("factor map commutation")
    bad = []
    checked = 0
    for n in enum.sigma.entries:
        i = fmap.layout_of[n]
        lhs = _fraction_apply(enum.matrix, fmap.basis_image(i))
        rhs = tuple(enum.rho * c for c in fmap.basis_image(successor(i)))
        if lhs != rhs:
            bad.append(i)
        checked += 1
    cert.check(
        "exact commutation on every covered basis index",
        not bad,
        f"first witness layout index {bad[0]}" if bad else f"{checked} indices",
    )
    zero = tuple(F(0) for _ in range(model.dim))
    support = set(fmap.enum_of)
    sampled = skipped = attempts = 0
    witness = None
    if rng is not None:
        while sampled < outside_samples and attempts < 50 * outside_samples:
            attempts += 1
            i = rng.randrange(10**6)
            try:
                s = successor(i)
            except CertificationError:
                continue
            if i in support:
                continue
            if s in support:
                skipped += 1
                continue
            lhs = _fraction_apply(enum.matrix, fmap.basis_image(i))
            rhs = tuple(enum.rho * c for c in fmap.basis_image(s))
            if lhs != zero or rhs != zero:
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
        fmap.basis_image(fmap.layout_of[pair(e, 0)]) == enum.points[e]
        for e in range(len(enum.points))
    )
    cert.check("every enumeration point is attained by a basis vector", surj,
               f"{len(enum.points)} points")
    return cert


def _outcome(thunk):
    try:
        return thunk()
    except CertificationError as exc:
        return type(exc).__name__, str(exc)


def _enumerate(model, mat, rho, base_count, orbit_depth, repetitions):
    """`dense_orbit_enumeration` with its orbit depth and repetitions set
    for this call."""
    with patch.object(operator_l1, "ORBIT_DEPTH", orbit_depth), \
            patch.object(operator_l1, "REPETITIONS", repetitions):
        return dense_orbit_enumeration(model, mat, rho, base_count)


small_entries = st.builds(F, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def orbit_problems(draw):
    """A small matrix with a norm bound; L2 bounds may be too small."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(list(NormKind)))
    model = BanachModel(dim, kind)
    mat = model.matrix(
        [[draw(small_entries) for _ in range(dim)] for _ in range(dim)]
    )
    if kind is NormKind.L2SQ:
        rho = draw(st.builds(F, st.integers(1, 12), st.integers(1, 4)))
    else:
        rho = model.operator_norm(mat) + draw(st.sampled_from([0, F(1, 2), 1]))
        rho = rho or F(1)
    return model, mat, rho, (
        draw(st.integers(1, 24)), draw(st.integers(0, 4)), draw(st.integers(1, 5))
    )


@settings(max_examples=80, deadline=None)
@given(problem=orbit_problems(), data=st.data())
def test_enumeration_and_certificates_match_per_index_original(problem, data):
    model, mat, rho, sizes = problem
    got = _outcome(lambda: _enumerate(model, mat, rho, *sizes))
    want = _outcome(lambda: _per_index_enumeration(model, mat, rho, *sizes))
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.keys == want.keys and list(got.points) == list(want.points)
    assert got.sigma.entries == want.sigma.entries
    assert got.frontier == want.frontier and got.covered == want.covered
    enum = got
    domain = sorted(enum.sigma.entries)
    fmap = synthesize_factor_map(enum)
    # points that sigma enters from another point: a key moved onto one of
    # them breaks that entering edge in both certificates
    entered = sorted({
        unpair(j)[0] for i, j in enum.sigma.entries.items() if unpair(i)[0] != unpair(j)[0]
    })
    how = data.draw(st.sampled_from(["none", "sigma", "enum_of", "keys"]))
    if domain and how == "sigma":
        i = data.draw(st.sampled_from(domain))
        e = data.draw(st.integers(0, len(enum.keys) - 1))
        enum.sigma.entries[i] = pair(e, data.draw(st.integers(0, 40)))
    elif domain and how == "enum_of":
        victim = data.draw(st.sampled_from(domain))
        other = data.draw(st.sampled_from(enum.covered))
        fmap.enum_of[fmap.layout_of[victim]] = other
    elif entered and how == "keys":
        victim = data.draw(st.sampled_from(entered))
        other = data.draw(st.sampled_from([e for e in range(len(enum.keys)) if e != victim]))
        enum.keys[victim] = enum.keys[other]
    cert = enumeration_certificate(enum)
    assert cert.render() == _per_index_enumeration_certificate(enum).render()
    seed = data.draw(st.integers(0, 99))
    with patch.object(operator_l1, "OUTSIDE_SAMPLES", 8):
        got = commutation_certificate(fmap, random.Random(seed))
    assert got.render() == _per_index_commutation_certificate(fmap, 8, random.Random(seed)).render()
    if entered and how == "keys":
        for failure, title in [
            (cert.first_failure(), "scaled image matches the enumeration on every covered index"),
            (got.first_failure(), "exact commutation on every covered basis index"),
        ]:
            assert failure.title == title
            assert re.fullmatch(r"first witness (layout )?index \d+", failure.detail)


@settings(max_examples=80, deadline=None)
@given(problem=orbit_problems())
def test_point_table_names_the_point_of_every_index_made(problem):
    model, mat, rho, sizes = problem
    enum = _outcome(lambda: _enumerate(model, mat, rho, *sizes))
    assume(not isinstance(enum, tuple))
    made = set(enum.covered) | set(enum.sigma.entries.values())
    assert set(enum.point_of) == made
    assert all(enum.point_of[i] == unpair(i)[0] for i in made)
    points = enum.points
    assert len(points) == len(enum.keys)
    assert all(points[e] == enum.value(pair(e, 0)) for e in range(len(points)))


@pytest.mark.parametrize(
    "certify",
    [enumeration_certificate, lambda enum: commutation_certificate(synthesize_factor_map(enum))],
    ids=["enumeration", "commutation"],
)
def test_certificates_refuse_indices_past_shortened_points(certify):
    # every index the construction made has its point recorded; a key
    # list cut short under them is still refused, not read past its end
    enum = dense_orbit_enumeration(BanachModel(1), ((F(1, 2),),), F(1, 2), base_count=8)
    del enum.keys[1:]
    with pytest.raises(CertificationError, match="beyond the enumeration"):
        certify(enum)


def _late_repetition(order, candidates):
    """The last candidate whose point already sat at an earlier index of
    `order`: a memo keyed by the wrong index would answer it from that
    earlier, correct repetition."""
    seen, late = set(), None
    for i in order:
        e = unpair(i)[0]
        if e in seen and i in candidates:
            late = i
        seen.add(e)
    assert late is not None
    return late


def _control_enumeration():
    model = BanachModel(2, NormKind.L1)
    return dense_orbit_enumeration(
        model, model.matrix([["1/2", "1/4"], [0, "1/3"]]), 1, base_count=10
    )


def test_enumeration_certificate_names_a_redirected_index():
    enum = _control_enumeration()
    victim = _late_repetition(enum.sigma.entries, enum.sigma.entries)
    right = unpair(enum.sigma.entries[victim])[0]
    wrong = next(e for e in range(len(enum.points)) if e != right)
    free = 1 + max(unpair(j)[1] for j in enum.sigma.entries.values())
    enum.sigma.entries[victim] = pair(wrong, free)
    failure = enumeration_certificate(enum).first_failure()
    assert failure.title == "scaled image matches the enumeration on every covered index"
    assert failure.detail == f"first witness index {victim}"


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_commutation_certificate_names_a_repointed_slot(side):
    # The repointed slot is read on one side of one edge only: as T(pi(e_i))
    # of its own edge (domain, not range of sigma), or as pi(rho U e_i) of
    # its predecessor's edge (range, not domain), so exactly that edge fails.
    enum = _control_enumeration()
    fmap = synthesize_factor_map(enum)
    entries = enum.sigma.entries
    if side == "lhs":
        victim = _late_repetition(entries, set(entries) - set(entries.values()))
        edge = victim
    else:
        victim = _late_repetition(entries.values(), set(entries.values()) - set(entries))
        edge = enum.sigma.inverse()[victim]
    other = next(i for i in sorted(entries) if enum.value(i) != enum.value(victim))
    fmap.enum_of[fmap.layout_of[victim]] = other
    failure = commutation_certificate(fmap).first_failure()
    assert failure.title == "exact commutation on every covered basis index"
    assert failure.detail == f"first witness layout index {fmap.layout_of[edge]}"


def test_operator_applied_once_per_point_in_each_stage(monkeypatch):
    # Counts the integer kernel's operator applications (M times the
    # numerators of a key), stage by stage.
    calls = []
    times = operator_l1._times
    monkeypatch.setattr(
        operator_l1, "_times", lambda mat, key: calls.append(key) or times(mat, key)
    )
    enum = _control_enumeration()
    per_stage = [len(calls)]
    enumeration_certificate(enum)
    per_stage.append(len(calls) - sum(per_stage))
    commutation_certificate(synthesize_factor_map(enum))
    per_stage.append(len(calls) - sum(per_stage))
    assert all(0 < n <= len(enum.points) for n in per_stage), per_stage


# === the integer kernel: keys, ball test, step, grid ===


vectors = st.integers(1, 4).flatmap(lambda dim: st.tuples(*[rational_entries] * dim))


@settings(max_examples=300, deadline=None)
@given(v=vectors, data=st.data())
def test_keys_are_canonical_and_round_trip(v, data):
    key = operator_l1._key(v)
    assert key[0] > 0 and math.gcd(*key) == 1
    assert tuple(F(n, key[0]) for n in key[1:]) == v
    assert operator_l1._vector(key) == v
    # a canonical key drawn on its own comes back from its vector
    den = data.draw(st.integers(1, 10**6))
    nums = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=4))
    g = math.gcd(den, *nums)
    canonical = (den // g, *(n // g for n in nums))
    assert operator_l1._key(operator_l1._vector(canonical)) == canonical
    # w shares v's length; half the time it is v with one entry moved
    w = data.draw(st.one_of(
        st.tuples(*[rational_entries] * len(v)),
        st.integers(0, len(v) - 1).flatmap(
            lambda k: rational_entries.map(lambda c: v[:k] + (c,) + v[k + 1:])
        ),
    ))
    assert (operator_l1._key(w) == key) == (w == v)
    assert operator_l1._reduce(7 * key[0], [7 * n for n in key[1:]]) == key


@settings(max_examples=300, deadline=None)
@given(v=vectors, kind=st.sampled_from(list(NormKind)))
@example(v=(F(3, 5), F(4, 5)), kind=NormKind.L2SQ)
@example(v=(F(3, 5), F(4, 5) + F(1, 10**9)), kind=NormKind.L2SQ)
def test_integer_ball_test_agrees_with_the_model(v, kind):
    model = BanachModel(len(v), kind)
    assert operator_l1._in_ball(kind, operator_l1._key(v)) == model.in_unit_ball(v)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_key_step_is_the_scaled_image(data):
    dim = data.draw(st.integers(1, 4))
    model = BanachModel(dim)
    mat = model.matrix([[data.draw(rational_entries) for _ in range(dim)] for _ in range(dim)])
    rho = data.draw(st.builds(F, st.integers(1, 60), st.integers(1, 40)))
    v = tuple(data.draw(rational_entries) for _ in range(dim))
    step = operator_l1._scaled_step(mat, rho)
    assert step(operator_l1._key(v)) == operator_l1._key(
        tuple(c / rho for c in _fraction_apply(mat, v))
    )


def _seen_set_grid(model, count):
    """Reference grid: every numerator tuple over q, skipping points
    already produced at a smaller denominator by a seen-set."""
    out, seen = [], set()
    for q in itertools.count(1):
        if len(out) >= count:
            break
        for nums in itertools.product(range(-q, q + 1), repeat=model.dim):
            v = tuple(F(p, q) for p in nums)
            if v in seen or not model.in_unit_ball(v):
                continue
            seen.add(v)
            out.append(v)
            if len(out) >= count:
                break
    return out


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), kind=st.sampled_from(list(NormKind)), count=st.integers(0, 200))
def test_gcd_grid_matches_the_seen_set_grid(dim, kind, count):
    model = BanachModel(dim, kind)
    assert unit_ball_grid(model, count) == _seen_set_grid(model, count)


# === typed refusals ===


# the top-left 2x2 block is (1/2) I; the entry 3 lies outside it
_THREE_BY_THREE = ((F(1, 2), 0, 0), (0, F(1, 2), 0), (0, 0, 3))


def _value_past_the_points():
    enum = dense_orbit_enumeration(BanachModel(1), ((F(1, 2),),), F(1, 2), base_count=2)
    return enum.value(pair(len(enum.points), 0))


@pytest.mark.parametrize(
    "call, exc, fragment",
    [
        pytest.param(lambda: SparseL1Vector({-1: 1}), CertificationError,
                     "basis index -1 is negative", id="negative-basis-index"),
        pytest.param(lambda: BanachModel(2).matrix([[1]]), CertificationError,
                     "expected 2x2 matrix", id="matrix-wrong-shape"),
        pytest.param(_value_past_the_points, CertificationError, "beyond the enumeration",
                     id="value-past-the-points"),
        pytest.param(lambda: dense_orbit_enumeration(BanachModel(2), _THREE_BY_THREE, F(1, 2)),
                     CertificationError, "expected 2x2 matrix",
                     id="enumeration-matrix-larger-than-the-model"),
        pytest.param(lambda: dense_orbit_enumeration(BanachModel(2), ((F(1, 2),),), F(1, 2)),
                     CertificationError, "expected 2x2 matrix",
                     id="enumeration-matrix-smaller-than-the-model"),
        pytest.param(lambda: BanachModel(0), CertificationError,
                     "dimension must be at least 1, got 0", id="model-of-dimension-0"),
    ],
)
def test_refusals_are_typed(call, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is exc
