"""Shift-operator isometry, orbit enumerations, and factor-map commutation."""

import random
from fractions import Fraction

import pytest

from factorlift.errors import CertificationError, NormBoundViolated
from factorlift.injections import successor
from factorlift.operator_l1 import (
    BanachModel,
    NormKind,
    SparseL1Vector,
    apply_universal,
    commutation_certificate,
    dense_orbit_enumeration,
    enumeration_certificate,
    frechet_apply,
    norm_growth_certificate,
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


def test_frechet_component_rule():
    xs = [SparseL1Vector({1: 1}), SparseL1Vector({1: 1})]
    out = frechet_apply(xs)
    assert out[0] == SparseL1Vector({4: 1})
    assert out[1] == SparseL1Vector({4: 2})


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
    enum = dense_orbit_enumeration(
        model, model.matrix([["1/3"]]), 1, base_count=4, orbit_depth=2
    )
    assert enum.frontier, "depth-2 orbit of 1/3 must leave the point list"
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
        lhs = model.apply(enum.matrix, fmap.apply(x))
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


# === norm growth ===

def test_doubling_map_ratios_grow_like_powers_of_two():
    model = BanachModel(1, NormKind.L1)
    report, cert = norm_growth_certificate(model, model.matrix([[2]]), 10)
    assert report.powers == [F(2) ** n for n in range(1, 11)]
    assert report.ratios == report.powers
    assert report.strictly_growing and cert.ok


def test_contraction_ratios_do_not_grow():
    model = BanachModel(1, NormKind.L1)
    report, _ = norm_growth_certificate(model, model.matrix([["1/2"]]), 6)
    assert not report.strictly_growing
    assert report.min_admissible_constant == F(1, 2)


def test_reference_sequence_length_validated():
    model = BanachModel(1, NormKind.L1)
    with pytest.raises(CertificationError):
        norm_growth_certificate(model, model.matrix([[2]]), 5, [F(1)] * 3)
