"""The closed-form 2x2 Newton solve against per-system numpy lstsq, on the
systems where the minimum-norm branch decides: zero, rank-1 and near-singular
full-rank Jacobians."""

import numpy as np

from annact.orbits import _newton_steps


def _lstsq_steps(jac, g):
    return np.array([np.linalg.lstsq(j, -r, rcond=None)[0] for j, r in zip(jac, g)])


def _assert_close(jac, g):
    want = _lstsq_steps(jac, g)
    got = _newton_steps(g, jac)
    scale = np.maximum(np.linalg.norm(want, axis=1), np.finfo(float).tiny)
    assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-12 * scale)


def test_zero_jacobian_gives_a_zero_step(rng):
    g = rng.normal(size=(4, 2))
    assert np.array_equal(_newton_steps(g, np.zeros((4, 2, 2))), np.zeros((4, 2)))


def test_rank_one_systems_take_the_pseudo_inverse(rng):
    # dyadic outer products have an exactly zero determinant; random ones
    # carry a rounding-level one below lstsq's cutoff
    u = rng.integers(-8, 9, size=(40, 2)) / 4.0
    v = rng.integers(-8, 9, size=(40, 2)) / 8.0
    u[0] = v[0] = (1.0, 0.0)
    for a, b in ((u, v), rng.normal(size=(2, 200, 2))):
        jac = a[:, :, None] * b[:, None, :]
        keep = np.abs(jac).sum(axis=(1, 2)) > 0
        _assert_close(jac[keep], rng.normal(size=(keep.sum(), 2)))


def test_near_singular_full_rank_systems_use_the_inverse(rng):
    # singular value ratios from 1e-15 up to 1e-11: above the 2 eps cutoff,
    # so lstsq keeps both and the step is the plain inverse
    n = 60
    big = rng.uniform(0.5, 4.0, n) * rng.choice([-1.0, 1.0], n)
    small = big * 10.0 ** rng.uniform(-15.0, -11.0, n)
    jac = np.zeros((n, 2, 2))
    jac[: n // 2, 0, 0], jac[: n // 2, 1, 1] = big[: n // 2], small[: n // 2]
    jac[n // 2 :, 0, 1], jac[n // 2 :, 1, 0] = small[n // 2 :], big[n // 2 :]
    _assert_close(jac, rng.normal(size=(n, 2)))


def test_regular_systems_are_solved_exactly(rng):
    jac = rng.normal(size=(100, 2, 2))
    g = rng.normal(size=(100, 2))
    step = _newton_steps(g, jac)
    assert np.max(np.abs(np.einsum("nij,nj->ni", jac, step) + g)) < 1e-9
    well_posed = np.abs(np.linalg.det(jac)) > 1e-2
    _assert_close(jac[well_posed], g[well_posed])
