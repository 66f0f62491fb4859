"""The leaf means summed by tree_field_integral, against the plain tensor rule
on compositions whose tree fields are smooth (no disk twists)."""

import numpy as np
import pytest

from annact import Compose, Iterate, LinearProfile, PolyBumpProfile, RigidRotation, Twist
from annact.action import action_values_raw, displacement_values
from annact.maps import TabulatedProfile
from annact.quadrature import tensor_annulus_integral, tree_field_integral

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
    action, displacement = tree_field_integral(m)
    fields = (
        (action, lambda x, y: action_values_raw(m, x, y)),
        (displacement, lambda x, y: displacement_values(m, x, y)),
    )
    for engine, tree_values in fields:
        tensor, _ = tensor_annulus_integral(tree_values, tol=1e-12)
        assert engine == pytest.approx(tensor, abs=1e-11)
