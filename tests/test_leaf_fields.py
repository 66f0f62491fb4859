"""The pointwise leaf fields of the mean-action quadrature, against the plain
tensor rule on compositions whose tree fields are smooth (no disk twists)."""

import numpy as np
import pytest

from annact import Compose, Iterate, LinearProfile, PolyBumpProfile, RigidRotation, Twist
from annact.action import action_values_raw, displacement_values
from annact.maps import TabulatedProfile
from annact.quadrature import (
    action_descriptor,
    displacement_descriptor,
    tensor_annulus_integral,
    tree_field_integral,
)

SMOOTH_TREES = [
    RigidRotation(0.37),
    Twist(PolyBumpProfile(0.9)),
    Compose(RigidRotation(0.37), Twist(LinearProfile())),
    Compose(Twist(PolyBumpProfile(-0.6)), Compose(RigidRotation(0.21), Twist(LinearProfile()))),
    Iterate(Compose(Twist(PolyBumpProfile(0.4)), RigidRotation(0.8)), 3),
    Compose(Twist(TabulatedProfile(np.linspace(0, 1, 9), np.sin(np.linspace(0, 3, 9)))),
            Twist(LinearProfile()).inverse()),
]


@pytest.mark.parametrize("m", SMOOTH_TREES, ids=lambda m: m.describe())
def test_leaf_fields_integrate_like_the_tensor_rule(m):
    fields = (
        (action_descriptor, lambda x, y: action_values_raw(m, x, y)),
        (displacement_descriptor, lambda x, y: displacement_values(m, x, y)),
    )
    for field, tree_values in fields:
        engine, err = tree_field_integral(m, field, tol=1e-12)
        tensor, _ = tensor_annulus_integral(tree_values, tol=1e-12)
        assert engine == pytest.approx(tensor, abs=1e-11)
        assert err < 1e-10


def test_leaf_fields_are_the_leaf_closed_forms():
    xt = np.array([0.1, 2.7, -0.4])
    y = np.array([0.0, 0.3, 1.0])
    rot = RigidRotation(0.37)
    assert np.array_equal(action_descriptor(rot, xt, y), np.zeros(3))
    assert np.all(displacement_descriptor(rot, 0.0, y) == 0.37)
    tw = Twist(PolyBumpProfile(0.9))
    assert np.array_equal(action_descriptor(tw, xt, y), tw.profile.potential(y))
    assert np.array_equal(displacement_descriptor(tw, 0.0, y), tw.profile.phi(y))
