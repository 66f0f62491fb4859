"""Boundary measure actions are exact: g is constant on each boundary circle."""

import numpy as np

from annact import ActionContext, AnnulusPoint, MeasureSpec, measure_action
from annact.action import action_function_values
from annact.util import pairwise_sum
from conftest import random_composition

CONTEXTS = (
    ActionContext.default(),
    ActionContext.shifted(0.7),
    ActionContext(base_point=AnnulusPoint(0.3, 0.6)),
)


def test_boundary_actions_match_birkhoff_means(rng):
    n = 2000
    for _ in range(20):
        m = random_composition(rng, max_leaves=4)
        for ctx in CONTEXTS:
            for which, y_b in (("lower", 0.0), ("upper", 1.0)):
                exact = measure_action(m, ctx, MeasureSpec(f"boundary_{which}", n_iter=n))
                xs = m.boundary_displacement(which) * np.arange(n, dtype=float)
                vals = action_function_values(m, ctx, xs % 1.0, np.full_like(xs, y_b))
                assert exact.error_estimate == 0.0
                assert abs(exact.value - pairwise_sum(vals) / n) <= 1e-14
