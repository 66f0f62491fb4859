import math

import numpy as np
import pytest
from scipy import integrate

from annact import AnnulusPoint, Compose, LocalDiskTwist, Twist
from annact import PolyBumpProfile
from annact.action import ActionContext, action_function_values, displacement_values
from annact.quadrature import tensor_annulus_integral, tree_field_integral
from annact.util import pairwise_sum, wrap_turn


def test_pairwise_sum_matches_fsum(rng):
    vals = rng.normal(size=1777)
    assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), abs=1e-12)
    assert pairwise_sum([]) == 0.0
    # fixed-shape reduction: chunk-irrelevant by construction, so two copies
    # of the same array agree bitwise
    assert pairwise_sum(vals) == pairwise_sum(vals.copy())


def test_wrap_turn_edges():
    frac, w = wrap_turn(-1e-18)
    assert 0.0 <= frac < 1.0
    frac, w = wrap_turn(2.25)
    assert frac == 0.25 and w == 2


def test_tensor_annulus_integral_smooth():
    val, _ = tensor_annulus_integral(
        lambda x, y: np.sin(2 * np.pi * x) ** 2 * y, tol=1e-11)
    assert val == pytest.approx(0.25, abs=1e-11)


def test_tree_field_integral_against_dblquad():
    # composite with a bump inside a twist: the tree fields read the twist's
    # field through the bump, which the sum of the two leaf means must absorb
    bump = LocalDiskTwist.poly_bump(AnnulusPoint(0.37, 0.52), 0.3, 4.2)
    tw = Twist(PolyBumpProfile(0.9))
    comp = Compose(tw, bump)
    ctx = ActionContext.default()

    action, displacement = tree_field_integral(comp)
    oracle, otol = integrate.dblquad(
        lambda y, x: float(action_function_values(comp, ctx, x, y)),
        0, 1, 0, 1, epsabs=1e-9, epsrel=1e-9)
    assert action == pytest.approx(oracle, abs=max(1e-8, 10 * otol))

    oracle, otol = integrate.dblquad(
        lambda y, x: float(displacement_values(comp, x, y)),
        0, 1, 0, 1, epsabs=1e-9, epsrel=1e-9)
    assert displacement == pytest.approx(oracle, abs=max(1e-8, 10 * otol))


def test_overlapping_bump_composition():
    # overlapping support disks: the leaf means still add up to the mean of
    # the tree's action function
    from annact import Compose, RigidRotation
    from annact.action import additivity_defect

    b1 = LocalDiskTwist.poly_bump(AnnulusPoint(0.50, 0.50), 0.30, 7.0)
    b2 = LocalDiskTwist.poly_bump(AnnulusPoint(0.62, 0.55), 0.28, -5.0)
    m = Compose(RigidRotation(0.37), Compose(b2, Compose(Twist(PolyBumpProfile(0.8)), b1)))
    ctx = ActionContext.default()
    engine, _ = tree_field_integral(m)

    n = 1200
    xs = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    midpoint = float(np.mean(action_function_values(m, ctx, X, Y)))
    assert engine == pytest.approx(midpoint, abs=5e-7)  # midpoint truncation level
    assert additivity_defect(b1, b2) < 1e-9


def test_jacobian_density_is_really_computed(rng):
    # the leaf sum of tree_field_integral rests on every prefix preserving
    # area: |det D(m^-1)| must come out 1 to machine precision
    from conftest import random_composition

    for _ in range(5):
        m = random_composition(rng)
        xs = rng.uniform(0, 1, size=100)
        ys = rng.uniform(0, 1, size=100)
        vals = np.abs(np.linalg.det(m.inverse().jacobian(xs, ys)))
        assert np.max(np.abs(vals - 1.0)) < 1e-10


def test_mean_values_take_no_prefix_jacobian(monkeypatch):
    # each leaf's field integrates over the annulus on its own, with no
    # change of variables through the leaves applied before it
    from annact import MapExpr
    from annact.action import calabi
    from annact.rotation import mean_rotation_area

    calls = []
    lift_with_jacobian = MapExpr.lift_with_jacobian

    def counted(self, *args):
        calls.append(self)
        return lift_with_jacobian(self, *args)

    monkeypatch.setattr(MapExpr, "lift_with_jacobian", counted)
    tw = Twist(PolyBumpProfile(0.9))
    bump = LocalDiskTwist.poly_bump((0.37, 0.52), 0.3, 4.2)
    for comp in (Compose(tw, bump), Compose(bump, tw)):
        calabi(comp)
        mean_rotation_area(comp)
        tree_field_integral(comp)
    assert calls == []
