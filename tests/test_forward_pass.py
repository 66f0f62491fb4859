"""The one forward pass over leaf step kernels: step counts, composite
differentials and orbit iteration."""

import numpy as np

from annact.maps import (
    AnnulusPoint,
    Compose,
    Iterate,
    LinearProfile,
    LocalDiskTwist,
    PolyBumpProfile,
    RigidRotation,
    Twist,
    finite_difference_jacobian,
    orbit_arrays,
)


def test_fused_pass_steps_each_leaf_once(monkeypatch, rng):
    rot = RigidRotation(0.6180339887)
    disk = LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), 0.35, 50.85)
    m = Compose(rot, disk)
    pts = rng.uniform(low=(0.0, 0.05), high=(1.0, 0.95), size=(200, 2))
    want_xt, want_y = m.apply_lift(pts[:, 0], pts[:, 1])
    want_jac = m.jacobian(pts[:, 0], pts[:, 1])

    calls = []
    for cls in (RigidRotation, LocalDiskTwist):
        def counted(self, xt, y, with_jacobian=False, _step=cls.step):
            calls.append((self, with_jacobian))
            return _step(self, xt, y, with_jacobian)

        monkeypatch.setattr(cls, "step", counted)
    xt, y, jac = m.lift_with_jacobian(pts[:, 0], pts[:, 1])
    assert calls == [(disk, True), (rot, True)]
    assert np.array_equal(xt, want_xt) and np.array_equal(y, want_y)
    assert np.array_equal(jac, want_jac)


def test_composite_jacobians_match_finite_differences(rng):
    disk = LocalDiskTwist.poly_bump(AnnulusPoint(0.4, 0.6), 0.25, 3.0)
    nested = Compose(
        Compose(RigidRotation(0.37), disk),
        Compose(Twist(PolyBumpProfile(0.9)), Twist(LinearProfile())),
    )
    iterated = Iterate(Compose(Twist(PolyBumpProfile(0.7)), disk), 3)
    pts = rng.uniform(low=(0.0, 0.05), high=(1.0, 0.95), size=(200, 2))
    for m in (nested, iterated):
        analytic = m.jacobian(pts[:, 0], pts[:, 1])
        fd = finite_difference_jacobian(m, pts[:, 0], pts[:, 1])
        assert np.max(np.abs(analytic - fd)) < 1e-6


def test_rotation_differential_is_identity_of_the_input_shape():
    jac = Iterate(RigidRotation(0.2), 3).jacobian(np.zeros((4, 3)), 0.5)
    assert jac.shape == (4, 3, 2, 2)
    assert np.array_equal(jac, np.broadcast_to(np.eye(2), (4, 3, 2, 2)))


def test_orbit_arrays_follow_the_lift(rng, perturbed_rotation):
    xs, ys = orbit_arrays(perturbed_rotation, 0.3, 0.55, 8)
    assert xs.shape == ys.shape == (8,)
    assert (xs[0], ys[0]) == (0.3, 0.55)
    for j in range(1, 8):
        # the same one-point arithmetic, so the same bits
        assert (xs[j], ys[j]) == Iterate(perturbed_rotation, j).apply_lift(0.3, 0.55)
    # array starts: each column is its start's orbit (bit for bit in
    # test_point_kernel.py); here a few steps within a tolerance
    starts = rng.uniform(low=(0.0, 0.05), high=(1.0, 0.95), size=(5, 2))
    bx, by = orbit_arrays(perturbed_rotation, starts[:, 0], starts[:, 1], 4)
    assert bx.shape == (4, 5)
    for k, (x0, y0) in enumerate(starts):
        sx, sy = orbit_arrays(perturbed_rotation, x0, y0, 4)
        assert np.max(np.abs(bx[:, k] - sx)) < 1e-9 and np.max(np.abs(by[:, k] - sy)) < 1e-9
