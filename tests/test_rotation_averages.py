"""Rotation numbers average each measure the way actions do: empirical
measures over their own orbit with the action's Birkhoff estimator, boundary
circles by one forward pass; and the Newton census drops zero steps at once."""

import math

import numpy as np
import pytest

import annact.action as action_mod
import annact.orbits as orbits_mod
from annact import (
    ActionContext,
    AnnulusPoint,
    Compose,
    Iterate,
    LinearProfile,
    LocalDiskTwist,
    MeasureSpec,
    PolyBumpProfile,
    RigidRotation,
    SearchConfig,
    Twist,
    boundary_circle_map,
    find_periodic_orbits,
    map_from_config,
    measure_action,
    measure_rotation,
    rotation_number_point,
)
from annact.action import birkhoff_average, empirical_orbit
from annact.maps import orbit_arrays, random_composition

SEED = AnnulusPoint(0.51, 0.62)


def test_empirical_rotation_uses_the_measures_own_orbit(perturbed_rotation):
    mu = MeasureSpec.empirical(SEED, 2000)
    want = rotation_number_point(perturbed_rotation, SEED, mu.n_iter)
    for kwargs in ({}, {"n_iter": 50_000}):
        got = measure_rotation(perturbed_rotation, mu, **kwargs)
        assert (got.value, got.error_estimate) == (want.value, want.error_estimate)


def test_point_rotation_is_the_birkhoff_average_of_displacements(perturbed_rotation):
    xs, _ = orbit_arrays(perturbed_rotation, SEED.x, SEED.y, 3001)
    value, err = birkhoff_average(np.diff(xs))
    rv = rotation_number_point(perturbed_rotation, SEED, 3000)
    assert (rv.value, rv.error_estimate, rv.exact) == (value, err, False)


def test_empirical_action_and_rotation_share_one_orbit(monkeypatch, perturbed_rotation):
    passes = []

    def counted(m, x, y, n):
        passes.append(n)
        return orbit_arrays(m, x, y, n)

    monkeypatch.setattr(action_mod, "orbit_arrays", counted)
    cfg = perturbed_rotation.to_config()
    ctx = ActionContext.default()
    mu = MeasureSpec.empirical(SEED, 2000)
    m = map_from_config(cfg)
    a = measure_action(m, ctx, mu, tol=math.inf)
    r = measure_rotation(m, mu)
    assert passes == [2001]
    xs, ys = empirical_orbit(m, SEED, 2000)
    assert not xs.flags.writeable and not ys.flags.writeable
    want_xs, want_ys = orbit_arrays(m, SEED.x, SEED.y, 2001)
    assert np.array_equal(xs, want_xs) and np.array_equal(ys, want_ys)
    # an equal map built again is another object, so each cold call steps anew
    assert measure_rotation(map_from_config(cfg), mu) == r
    assert measure_action(map_from_config(cfg), ctx, mu, tol=math.inf) == a
    assert passes == [2001] * 3


def test_zero_newton_steps_skip_the_line_search(monkeypatch):
    # F^3 of a rigid rotation has DF^3 = I, so every Newton step is zero
    rows = []
    real = orbits_mod._residual_norm_only

    def counting(fq, z, p):
        rows.append(len(z))
        return real(fq, z, p)

    monkeypatch.setattr(orbits_mod, "_residual_norm_only", counting)
    assert find_periodic_orbits(RigidRotation(0.3), 3, 1, SearchConfig(grid=8)) == []
    # only the final convergence filter over the 8 x 8 seed lattice remains
    assert rows == [64]


def _leaf_displacement(leaf, y_b):
    if isinstance(leaf, RigidRotation):
        return leaf.a
    if isinstance(leaf, Twist):
        return float(leaf.profile.phi(y_b))
    assert isinstance(leaf, LocalDiskTwist)
    return 0.0


@pytest.mark.parametrize("which, y_b", [("lower", 0.0), ("upper", 1.0)])
def test_single_leaf_displacements_are_exact(which, y_b):
    leaves = [
        RigidRotation(0.6180339887),
        RigidRotation(-2.3),
        Twist(LinearProfile()),
        Twist(PolyBumpProfile(0.7)),
        LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), 0.35, 50.85),
    ]
    for leaf in leaves:
        assert leaf.boundary_displacement(which) == _leaf_displacement(leaf, y_b)


@pytest.mark.parametrize("which, y_b", [("lower", 0.0), ("upper", 1.0)])
def test_tree_displacement_is_k_times_the_leaf_sum(rng, which, y_b):
    for _ in range(40):
        m = random_composition(rng, max_leaves=4)
        m = Compose(random_composition(rng, max_leaves=2), m)
        leaf_sum = sum(_leaf_displacement(leaf, y_b) for leaf in m.leaves())
        for k in (1, 2, 5):
            tree = m if k == 1 else Iterate(m, k)
            got = tree.boundary_displacement(which)
            assert got == pytest.approx(k * leaf_sum, abs=1e-12)
            assert boundary_circle_map(tree, which).displacement == got


def test_boundary_selector_is_checked(perturbed_rotation):
    with pytest.raises(ValueError):
        perturbed_rotation.boundary_displacement("middle")
