"""Rotation numbers of points, boundary circles and invariant measures.

All rotation quantities are scalars in turns per iterate: the annulus reduces
the rotation vector to the pairing with dx, i.e. the average x-advance in the
universal cover. A measure's rotation number is the mean of the one-step lift
displacement, read as measure_action reads the mean of the action function:
exact on boundary circles, on orbits and for the area measure (whose
invariance makes it equal to the long-orbit average), and by the same
Birkhoff estimator over the measure's own orbit for empirical measures. That
orbit is action.empirical_orbit, the one measure_action averages g over, so
an empirical measure's action and rotation number cost one orbit pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import (
    BIRKHOFF_N_ITER,
    ActionContext,
    MeasureSpec,
    birkhoff_average,
    empirical_orbit,
    measure_action,
)
from .maps import MapExpr, RigidRotation, Twist
from .phase_space import AnnulusPoint
from .quadrature import tree_field_integral
from .util import wrap_turn

ROTATION_TOL = 1e-6


@dataclass(frozen=True)
class RotationValue:
    """A rotation number in turns per iterate with an error estimate.

    exact is True when the value comes from a closed form or integer winding
    bookkeeping, in which case the error estimate is zero.
    """

    value: float
    error_estimate: float
    exact: bool = False

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error estimate must be nonnegative")
        if self.exact and self.error_estimate != 0.0:
            raise ValueError("exact rotation values carry zero error")


def _closed_form_point_rotation(m: MapExpr, p: AnnulusPoint) -> RotationValue | None:
    if isinstance(m, RigidRotation):
        return RotationValue(m.a, 0.0, exact=True)
    if isinstance(m, Twist):
        return RotationValue(float(m.profile.phi(p.y)), 0.0, exact=True)
    xt1, y1 = m.apply_point(p.x, p.y)
    if wrap_turn(xt1)[0] == p.x and y1 == p.y:
        # a fixed point advances by an exact integer per step
        return RotationValue(float(np.round(xt1 - p.x)), 0.0, exact=True)
    return None


def rotation_number_point(m: MapExpr, p: AnnulusPoint,
                          n_iter: int = BIRKHOFF_N_ITER) -> RotationValue:
    """Average lift displacement along the orbit of p.

    Closed forms are used for rigid rotations, twists, and fixed points; the
    generic path takes the n_iter one-step displacements along the orbit of
    n_iter + 1 points and averages them with action.birkhoff_average, whose
    tail fluctuation is the error estimate. The orbit comes from
    action.empirical_orbit, so after measure_action of the empirical measure
    (m, p, n_iter) on the same map object it is not stepped again.
    Non-convergence is reported through the estimate, not raised; callers
    decide.
    """
    if n_iter < 1000:
        raise ValueError("rotation averages need n_iter >= 1000")
    closed = _closed_form_point_rotation(m, p)
    if closed is not None:
        return closed
    xs, _ = empirical_orbit(m, p, n_iter)
    return RotationValue(*birkhoff_average(np.diff(xs)), exact=False)


def boundary_rotation_number(m: MapExpr, which: str) -> RotationValue:
    """Poincare rotation number of a boundary restriction.

    Every map in this algebra restricts to a rigid circle rotation on each
    boundary (constant lift displacement), so the Birkhoff limit is attained
    exactly; the displacement is one forward pass from a boundary point.
    """
    return RotationValue(m.boundary_displacement(which), 0.0, exact=True)


def mean_rotation_area(m: MapExpr) -> RotationValue:
    """Mean rotation number of the area measure: the integral of the one-step
    lift displacement over the unit-area annulus, from the exact leaf means."""
    return RotationValue(tree_field_integral(m)[1], 0.0, exact=True)


def measure_rotation(m: MapExpr, mu: MeasureSpec,
                     n_iter: int = BIRKHOFF_N_ITER) -> RotationValue:
    """Rotation number of an invariant measure.

    Empirical measures average over their own mu.n_iter iterates, along
    the orbit measure_action steps for them (rotation_number_point). n_iter
    is accepted and not used, like a boundary measure's n_iter in
    measure_action.
    """
    if mu.variant == "area":
        return mean_rotation_area(m)
    if mu.variant in ("boundary_lower", "boundary_upper"):
        return boundary_rotation_number(m, mu.variant.removeprefix("boundary_"))
    if mu.variant == "orbit":
        return RotationValue(mu.orbit.p / mu.orbit.q, 0.0, exact=True)
    if mu.variant == "empirical":
        return rotation_number_point(m, mu.seed, mu.n_iter)
    raise ValueError(f"unknown measure variant {mu.variant!r}")


def lemma_boundary_identity_defect(m: MapExpr) -> float:
    """Residual of the boundary identity

        rho(area) = A(mu_lower) - A(mu_upper) + rho_upper

    with the canonical primitive, all four quantities computed independently."""
    ctx = ActionContext.default()
    rho_area = mean_rotation_area(m).value
    a_lower = measure_action(m, ctx, MeasureSpec.boundary_lower()).value
    a_upper = measure_action(m, ctx, MeasureSpec.boundary_upper()).value
    rho_upper = boundary_rotation_number(m, "upper").value
    return abs(rho_area - (a_lower - a_upper + rho_upper))
