"""A closed algebra of exact area-preserving annulus maps with analytic lifts.

Families: rigid rotations (x, y) -> (x + a, y), twists (x, y) -> (x + phi(y), y),
compactly supported local disk twists (rigid rotation by angle phi(r) inside a
chart disk, identity outside), plus composition and iteration. Every family
preserves both boundary circles, has unit Jacobian determinant, and carries the
canonical lift that is continuous in parameters and reduces to the identity at
zero parameters.

Each primitive leaf implements three methods. step(xt, y, with_jacobian) ->
(xt', y', D) computes the leaf's intermediate quantities (chart offsets,
radius, rotation) once and forms the differential D from them only when asked;
D is None when not asked or when the differential is the identity.
action(xt, y) is the leaf's closed-form action function for beta = y dx,
zero on the lower boundary: 0 for a rotation, the profile potential for a
twist, the chart formula for a disk twist. mean_values() is the leaf's mean
action and mean displacement, exact moments of its profile. Composition and
iteration only record their leaves, in application order. One stepping
loop, _walk, steps arrays through leaves and is the one place that forms the
stacked 2x2 product of the differentials (d @ jac, through OpenBLAS):
apply_lift, jacobian, the fused lift_with_jacobian and RowIterate's per-row
pass (a Newton census over several periods at once, each row taking exactly
Iterate's steps) are walks over leaves(), and orbit_arrays iterates
apply_lift along orbits. The action function of a tree
(action.action_values_raw) and the leaf-mean sum
(quadrature.tree_field_integral) walk the same leaves.

step, apply_lift and the routines built on them are vectorized over numpy
arrays. One point has its own pass, compiled from source: each leaf's
point_source writes its step on Python floats once, as source lines with no
numpy call, and names its numbers through a PointSource, so they never enter
the text; every family writes its own, and there is no fallback to step.
A map's point pass (point_pass) is its leaves' lines in order, an Iterate as
an inner loop, compiled once per text, that is per sequence of leaf kinds,
and run with the map's numbers as its globals. apply_point steps one point
through it; eval_map, eval_lift and boundary_displacement take it, a
scalar-start orbit_arrays runs its orbit loop, whose body is the map's
lines, and a leaf's apply_point is its own lines compiled alone. Every pass
rounds a point alike: an array row, a 0-d array and a Python float get the
same bits, since the built-in profiles square by a multiply. point_margin is
kink_margin's Python-float copy, for the bisection of a path's support
crossings.

A disk twist is the identity off its support, and one kernel, _support,
decides its support for numpy input: u^2 + v^2 < R^2 (1 + 1e-9) screens the
points and np.hypot(u, v) < R decides on those. step and action rotate the
support rows only and scatter them into the unchanged rest, with the bits
of a pass over every point; a 0-d input is one row. Its point source is the
Python-float copy of step and reads the same screen bound. It takes the
radius from abs(complex(u, v)): CPython's complex abs calls the C library's
hypot, the function numpy's hypot calls, while math.hypot has its own
rounding.
"""

from __future__ import annotations

import contextlib
import functools
import math
import textwrap
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import ConfigError
from .phase_space import AnnulusPoint, LiftedPoint, wrap_turn
from .util import gauss_nodes_unit


def _knot_rule(knots) -> tuple[np.ndarray, np.ndarray]:
    """4-point Gauss-Legendre nodes and weights on each knot interval: exact
    for piecewise polynomials of degree <= 7, as every built-in moment
    integrand is (a profile of degree <= 4 times a weight of degree <= 3)."""
    x, w = gauss_nodes_unit(4)
    a = np.asarray(knots[:-1], dtype=float)[:, None]
    h = np.diff(np.asarray(knots, dtype=float))[:, None]
    return (a + h * x).ravel(), (h * w).ravel()


# ---------------------------------------------------------------------------
# twist profiles phi: [0, 1] -> R (turns)
# ---------------------------------------------------------------------------

class TwistProfile:
    """Angular advance phi(y) of a twist, with derivative and action potential.

    potential(y) is the integral of s * phi'(s) over [0, y]; it is the action
    function of the twist with beta = y dx and base point on the lower boundary.
    A closed-form phi is one expression for floats and float arrays, so the
    point pass and the array pass evaluate the same formula. phi is a
    polynomial between consecutive knots.
    """

    knots = (0.0, 1.0)

    def phi(self, y):
        raise NotImplementedError

    def dphi(self, y):
        raise NotImplementedError

    def potential(self, y):
        raise NotImplementedError

    def moments(self) -> tuple[float, float]:
        """(int_0^1 (2y - 1) phi, int_0^1 phi): the twist's mean action and
        mean displacement. The first is the mean of potential, by parts."""
        y, w = _knot_rule(self.knots)
        wphi = w * self.phi(y)
        return math.fsum(wphi * (2.0 * y - 1.0)), math.fsum(wphi)

    def negated(self) -> "TwistProfile":
        return _NegatedTwistProfile(self)

    def to_config(self) -> dict:
        raise NotImplementedError


class LinearProfile(TwistProfile):
    """phi(y) = y: the integrable linear twist."""

    def phi(self, y):
        return y

    def dphi(self, y):
        return np.ones_like(np.asarray(y, dtype=float))

    def potential(self, y):
        y = np.asarray(y, dtype=float)
        return 0.5 * y * y

    def to_config(self):
        return {"kind": "linear"}

    def __repr__(self):
        return "LinearProfile()"


class PolyBumpProfile(TwistProfile):
    """phi(y) = 16 c y^2 (1-y)^2: a polynomial bump vanishing at both boundaries.

    The normalization makes phi(1/2) = c. Closed-form potential:
    integral of s phi'(s) = 32 c (y^3/3 - 3 y^4/4 + 2 y^5/5).
    """

    def __init__(self, c: float):
        self.c = float(c)

    def phi(self, y):
        w = y * (1.0 - y)
        return 16.0 * self.c * (w * w)

    def dphi(self, y):
        y = np.asarray(y, dtype=float)
        return 32.0 * self.c * y * (1.0 - y) * (1.0 - 2.0 * y)

    def potential(self, y):
        y = np.asarray(y, dtype=float)
        return 32.0 * self.c * (y**3 / 3.0 - 0.75 * y**4 + 0.4 * y**5)

    def to_config(self):
        return {"kind": "poly_bump", "c": self.c}

    def __repr__(self):
        return f"PolyBumpProfile(c={self.c!r})"


class TabulatedProfile(TwistProfile):
    """Cubic-spline profile through user samples (y_i, phi_i) on [0, 1].

    The potential uses integration by parts, y phi(y) - int_0^y phi, so only the
    spline antiderivative is needed.
    """

    def __init__(self, ys: Iterable[float], phis: Iterable[float]):
        ys = np.asarray(list(ys), dtype=float)
        phis = np.asarray(list(phis), dtype=float)
        if ys.ndim != 1 or ys.size < 4 or ys.shape != phis.shape:
            raise ValueError("need matching 1-d sample arrays with at least 4 points")
        if abs(ys[0]) > 1e-12 or abs(ys[-1] - 1.0) > 1e-12:
            raise ValueError("tabulated profile must cover [0, 1]")
        from scipy.interpolate import CubicSpline

        self._ys = ys
        self._phis = phis
        self.knots = ys
        self._spline = CubicSpline(ys, phis)
        self._dspline = self._spline.derivative()
        self._antider = self._spline.antiderivative()

    def phi(self, y):
        return self._spline(np.asarray(y, dtype=float))

    def dphi(self, y):
        return self._dspline(np.asarray(y, dtype=float))

    def potential(self, y):
        y = np.asarray(y, dtype=float)
        return y * self._spline(y) - (self._antider(y) - self._antider(0.0))

    def to_config(self):
        return {"kind": "tabulated", "y": self._ys.tolist(), "phi": self._phis.tolist()}

    def __repr__(self):
        return f"TabulatedProfile(n={self._ys.size})"


class _NegatedTwistProfile(TwistProfile):
    def __init__(self, base: TwistProfile):
        self._base = base
        self.knots = base.knots

    def phi(self, y):
        return -self._base.phi(y)

    def dphi(self, y):
        return -self._base.dphi(y)

    def potential(self, y):
        return -self._base.potential(y)

    def negated(self):
        return self._base

    def to_config(self):
        return {"kind": "negated", "base": self._base.to_config()}

    def __repr__(self):
        return f"negated({self._base!r})"


# ---------------------------------------------------------------------------
# radial profiles phi: [0, R] -> R (radians in the local chart)
# ---------------------------------------------------------------------------

class RadialProfile:
    """Chart rotation angle phi(r) of a local disk twist, phi(R) = 0.

    action_radial(r) is (1/2) * integral of s^2 phi'(s) over [r, R]: the
    rotation-invariant part of the twist's action function in its chart, zero
    at the support edge. With the annulus orientation omega = dy ^ dx it is
    nonpositive for phi >= 0, phi' <= 0. A closed-form phi takes floats as
    well as float arrays, as TwistProfile.phi does. phi is a polynomial
    between consecutive knots, the first 0 and the last R.
    """

    R: float

    def moment(self) -> float:
        """int_0^R r^3 phi(r) dr. By parts (phi(R) = 0), the integral of
        action_radial over the chart disk is -2 pi times it."""
        r, w = _knot_rule(self.knots)
        return math.fsum(w * r**3 * self.phi(r))

    def phi(self, r):
        raise NotImplementedError

    def dphi(self, r):
        raise NotImplementedError

    def dphi_over_r(self, r):
        """phi'(r) / r with the analytic r -> 0 limit where available."""
        r = np.asarray(r, dtype=float)
        safe = np.maximum(r, 1e-9)
        return self.dphi(safe) / safe

    def action_radial(self, r):
        raise NotImplementedError

    def negated(self) -> "RadialProfile":
        return _NegatedRadialProfile(self)

    def monotone_defect(self, n: int = 256) -> float:
        """max(phi', 0) sampled on [0, R]; zero for admissible profiles."""
        rs = np.linspace(0.0, self.R, n)
        return float(np.max(np.maximum(self.dphi(rs), 0.0)))

    def to_config(self) -> dict:
        raise NotImplementedError


class PolyBumpRadial(RadialProfile):
    """phi(r) = c (1 - (r/R)^2)^2, C^1-flat at r = R.

    Closed forms:
      phi'(r)        = -(4c/R^2) r (1 - r^2/R^2)
      phi'(r)/r      = -(4c/R^2) (1 - r^2/R^2)
      action_radial  = -(2c/R^2) (R^4/12 - r^4/4 + r^6/(6 R^2))
    """

    def __init__(self, c: float, R: float):
        if not R > 0:
            raise ValueError("chart radius must be positive")
        self.c = float(c)
        self.R = float(R)
        self.knots = (0.0, self.R)

    def phi(self, r):
        s = r / self.R
        t = 1.0 - s * s
        return self.c * t * t

    def dphi(self, r):
        r = np.asarray(r, dtype=float)
        s = r / self.R
        return -(4.0 * self.c / (self.R * self.R)) * r * (1.0 - s * s)

    def dphi_over_r(self, r):
        s = np.asarray(r, dtype=float) / self.R
        return -(4.0 * self.c / (self.R * self.R)) * (1.0 - s * s)

    def action_radial(self, r):
        r = np.asarray(r, dtype=float)
        R = self.R
        return -(2.0 * self.c / (R * R)) * (R**4 / 12.0 - r**4 / 4.0 + r**6 / (6.0 * (R * R)))

    def to_config(self):
        return {"kind": "poly_bump", "c": self.c}

    def __repr__(self):
        return f"PolyBumpRadial(c={self.c!r}, R={self.R!r})"


class TabulatedRadial(RadialProfile):
    """Cubic-spline radial profile through samples (r_i, phi_i), phi(R) = 0."""

    def __init__(self, rs: Iterable[float], phis: Iterable[float]):
        rs = np.asarray(list(rs), dtype=float)
        phis = np.asarray(list(phis), dtype=float)
        if rs.ndim != 1 or rs.size < 4 or rs.shape != phis.shape:
            raise ValueError("need matching 1-d sample arrays with at least 4 points")
        if abs(rs[0]) > 1e-12:
            raise ValueError("radial samples must start at r = 0")
        if abs(phis[-1]) > 1e-10:
            raise ValueError("radial profile must vanish at the support edge")
        from scipy.interpolate import CubicSpline, PPoly

        self.R = float(rs[-1])
        self._rs = rs
        self._phis = phis
        self.knots = rs
        self._spline = CubicSpline(rs, phis, bc_type=((1, 0.0), (1, 0.0)))
        self._dspline = self._spline.derivative()
        # antiderivative of s * phi(s), for action_radial by parts: on each
        # interval s = r_i + t times the spline's cubic in t is a quartic in t
        c = self._spline.c
        sphi = np.vstack([c[:1], c[1:] + rs[:-1] * c[:-1], rs[:-1] * c[3:]])
        self._sphi_antider = PPoly(sphi, rs).antiderivative()

    def phi(self, r):
        return self._spline(np.asarray(r, dtype=float))

    def dphi(self, r):
        return self._dspline(np.asarray(r, dtype=float))

    def action_radial(self, r):
        # (1/2) int_r^R s^2 phi' = (1/2)[s^2 phi]_r^R - int_r^R s phi
        r = np.asarray(r, dtype=float)
        tail = self._sphi_antider(self.R) - self._sphi_antider(r)
        return -0.5 * r * r * self._spline(r) - tail

    def to_config(self):
        return {"kind": "tabulated", "r": self._rs.tolist(), "phi": self._phis.tolist()}

    def __repr__(self):
        return f"TabulatedRadial(n={self._rs.size}, R={self.R!r})"


class _NegatedRadialProfile(RadialProfile):
    def __init__(self, base: RadialProfile):
        self._base = base
        self.R = base.R
        self.knots = base.knots

    def phi(self, r):
        return -self._base.phi(r)

    def dphi(self, r):
        return -self._base.dphi(r)

    def dphi_over_r(self, r):
        return -self._base.dphi_over_r(r)

    def action_radial(self, r):
        return -self._base.action_radial(r)

    def negated(self):
        return self._base

    def to_config(self):
        return {"kind": "negated", "base": self._base.to_config()}

    def __repr__(self):
        return f"negated({self._base!r})"


# ---------------------------------------------------------------------------
# map expressions
# ---------------------------------------------------------------------------

class MapExpr:
    """Immutable area-preserving map of the annulus with a canonical lift.

    Primitive leaves implement step() and action(); every other evaluation is
    one forward pass over leaves(), defined here once.
    """

    def step(self, xt, y, with_jacobian: bool = False):
        """One leaf's lift and, when with_jacobian is set, its differential:
        (xt', y', D) with D of shape (..., 2, 2), or None for the identity."""
        raise NotImplementedError

    def point_source(self, src: "PointSource") -> None:
        """Add this map's step on the Python floats xt and y to src, as lines
        that rebind xt and y, with step's bits; any constant goes through
        src.const."""
        raise NotImplementedError

    def action(self, xt, y):
        """One leaf's closed-form action function g, dg = f*beta - beta with
        beta = y dx, normalized to vanish on the lower boundary."""
        raise NotImplementedError

    def mean_values(self) -> tuple[float, float]:
        """(mean action, mean displacement) of one leaf over the unit-area
        annulus: the integrals of action and of step's x-displacement."""
        raise NotImplementedError

    def kink_margin(self, xt, y):
        """Signed margin whose sign change marks where the leaf is only C^1,
        or None for a leaf that is smooth everywhere."""
        return None

    def point_margin(self, xt: float, y: float) -> float | None:
        """kink_margin at one point in Python floats, bit-identical to it at
        that point; the default is kink_margin itself."""
        margin = self.kink_margin(xt, y)
        return None if margin is None else float(margin)

    def leaves(self) -> tuple["MapExpr", ...]:
        """Primitive factors in application order (innermost first)."""
        return (self,)

    def apply_lift(self, xt, y):
        """Vectorized lift evaluation: arrays (xt, y) -> (xt', y')."""
        return _walk(self.leaves(), xt, y)[:2]

    def apply_point(self, xt: float, y: float) -> tuple[float, float]:
        """Lift of one point in Python floats: the compiled point pass,
        bit-identical to apply_lift at that point."""
        return self._point.step(float(xt), float(y))

    @functools.cached_property
    def _point(self) -> "PointPass":
        return point_pass(self)

    def lift_with_jacobian(self, xt, y):
        """Lift and differential in one pass: (xt', y', D), D of shape (..., 2, 2).

        Each leaf is stepped once; its differential left-multiplies the product
        of the ones before it.
        """
        xt1, y1, jac = _walk(self.leaves(), xt, y, True)
        if jac is None:
            jac = _identity(np.broadcast_shapes(np.shape(xt), np.shape(y)))
        return xt1, y1, jac

    def jacobian(self, x, y):
        """Vectorized differential, shape (..., 2, 2); depends on x mod 1 only."""
        return self.lift_with_jacobian(x, y)[2]

    def inverse(self) -> "MapExpr":
        raise NotImplementedError

    def boundary_displacement(self, which: str) -> float:
        """Exact lift displacement of the boundary restriction: one forward
        pass from x = 0 on that boundary circle, which every leaf rotates
        rigidly, so the displacement is the same from every boundary point."""
        if which not in ("lower", "upper"):
            raise ValueError("boundary selector must be 'lower' or 'upper'")
        return self.apply_point(0.0, 0.0 if which == "lower" else 1.0)[0]

    def describe(self) -> str:
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError

    # conveniences -----------------------------------------------------------

    def __call__(self, p: AnnulusPoint) -> AnnulusPoint:
        return eval_map(self, p)

    def __getstate__(self):
        # a compiled point pass does not pickle; it is rebuilt on first use
        return {k: v for k, v in self.__dict__.items() if k != "_point"}


def _walk(leaves, xt, y, with_jacobian: bool = False, jac=None):
    """Step the arrays (xt, y) through leaves: (xt', y', D), D the walk's
    differential times jac (None for the identity, and without with_jacobian)."""
    for leaf in leaves:
        xt, y, d = leaf.step(xt, y, with_jacobian)
        if d is not None:
            jac = d if jac is None else d @ jac
    return xt, y, jac


def _identity(shape) -> np.ndarray:
    out = np.zeros(tuple(shape) + (2, 2))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    return out


# (row, column) of the differential entries in the order leaves return them
_ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))


class RigidRotation(MapExpr):
    def __init__(self, a: float):
        self.a = float(a)

    def step(self, xt, y, with_jacobian=False):
        return np.asarray(xt, dtype=float) + self.a, np.asarray(y, dtype=float), None

    def point_source(self, src):
        src.add(f"xt = xt + {src.const('a', self.a)}")

    def action(self, xt, y):
        # a rotation pulls beta back to itself
        return np.zeros(np.broadcast_shapes(np.shape(xt), np.shape(y)))

    def mean_values(self):
        return 0.0, self.a

    def inverse(self):
        return RigidRotation(-self.a)

    def describe(self):
        return f"rigid(a={self.a!r})"

    def to_config(self):
        return {"variant": "rigid_rotation", "a": self.a}

    def __repr__(self):
        return f"RigidRotation({self.a!r})"


class Twist(MapExpr):
    def __init__(self, profile: TwistProfile):
        self.profile = profile

    def step(self, xt, y, with_jacobian=False):
        y = np.asarray(y, dtype=float)
        xt = np.asarray(xt, dtype=float) + self.profile.phi(y)
        if not with_jacobian:
            return xt, y, None
        d = _identity(np.broadcast_shapes(np.shape(xt), y.shape))
        d[..., 0, 1] = self.profile.dphi(y)
        return xt, y, d

    def point_source(self, src):
        # float() unwraps a spline's 0-d array; closed-form profiles return a float
        src.add(f"xt = xt + float({src.const('phi', self.profile.phi)}(y))")

    def action(self, xt, y):
        return self.profile.potential(y)

    def mean_values(self):
        return self.profile.moments()

    def inverse(self):
        return Twist(self.profile.negated())

    def describe(self):
        return f"twist({self.profile!r})"

    def to_config(self):
        return {"variant": "twist", "profile": self.profile.to_config()}

    def __repr__(self):
        return f"Twist({self.profile!r})"


class LocalDiskTwist(MapExpr):
    """Rigid rotation by angle phi(r) on each chart circle of radius r < R
    about an interior center; exact identity outside the chart disk.

    The chart uses euclidean offsets (u, v) = (x - cx wrapped, y - cy), which
    is isometric because x is measured in turns. R < min(cy, 1 - cy) <= 1/2
    keeps the disk inside the annulus and away from x-wraparound.

    step and action share one support kernel, _support: offsets on every
    point, then the radius, rotation and differential on the support points
    only (those with r < R). Every other point keeps its place, the identity
    differential and action 0. point_source is the Python-float copy of
    step, with its bits.
    """

    def __init__(self, center: AnnulusPoint, radius: float, profile: RadialProfile):
        if not isinstance(center, AnnulusPoint):
            center = AnnulusPoint(*center)
        limit = min(center.y, 1.0 - center.y)
        if not 0.0 < radius < limit:
            raise ValueError(f"radius must lie in (0, {limit}) for center y={center.y}")
        if abs(profile.R - radius) > 1e-12 * max(1.0, radius):
            raise ValueError("profile support does not match the chart radius")
        self.center = center
        self.radius = float(radius)
        self.profile = profile
        # every point with hypot(u, v) < R has u^2 + v^2 below this bound, and
        # a point above it lies outside by far more than rounding
        self._screen = self.radius * self.radius * (1.0 + 1e-9)

    @staticmethod
    def poly_bump(center, radius: float, c: float) -> "LocalDiskTwist":
        return LocalDiskTwist(center, radius, PolyBumpRadial(c, radius))

    def chart_offsets(self, xt, y):
        """Chart offsets (u, v), with u the signed x-offset reduced to [-0.5, 0.5).

        w - floor(w) is the same float as w % 1.0 (floor is exact, and both
        round w + n once), without the sign fix-ups of float modulo."""
        w = np.asarray(xt, dtype=float) - self.center.x + 0.5
        u = w - np.floor(w) - 0.5
        v = np.asarray(y, dtype=float) - self.center.y
        return u, v

    def _rotate(self, u, v, r, with_jacobian=False):
        """The chart rotation at offsets (u, v) of radius r <= R: the rotated
        offsets (u', v') and, when asked, the entries (d00, d01, d10, d11) of
        D = Rot(phi) + (phi'/r) (Rot'(phi) w) w^T, w = (u, v)."""
        ang = self.profile.phi(r)
        ca = np.cos(ang)
        sa = np.sin(ang)
        u1 = u * ca - v * sa
        v1 = u * sa + v * ca
        if not with_jacobian:
            return u1, v1, None
        k = self.profile.dphi_over_r(r)
        gu = -sa * u - ca * v
        gv = ca * u - sa * v
        return u1, v1, (ca + k * gu * u, -sa + k * gu * v, sa + k * gv * u, ca + k * gv * v)

    def _support(self, xt, y):
        """The support rows of (xt, y): (shape, xt, y, rows, u, v, r) with the
        inputs broadcast to shape and flattened, rows the index of the points
        with hypot(u, v) < R (None when there are none) and u, v, r on them.

        u^2 + v^2 screens and hypot decides on the survivors, which are
        gathered with take; a 0-d input is one row.
        """
        xt = np.asarray(xt, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = xt.shape
        if y.shape != shape:
            shape = np.broadcast_shapes(shape, y.shape)
            xt, y = np.broadcast_to(xt, shape), np.broadcast_to(y, shape)
        xt = xt.ravel()
        y = y.ravel()
        u, v = self.chart_offsets(xt, y)
        rows = (u * u + v * v < self._screen).nonzero()[0]
        u, v = u.take(rows), v.take(rows)
        r = np.hypot(u, v)
        keep = (r < self.radius).nonzero()[0]
        if keep.size < rows.size:
            rows, u, v, r = rows.take(keep), u.take(keep), v.take(keep), r.take(keep)
        return shape, xt, y, (rows if rows.size else None), u, v, r

    def step(self, xt, y, with_jacobian=False):
        shape, xt, y, rows, u, v, r = self._support(xt, y)
        xt1 = xt + 0.0
        y1 = y + 0.0
        d = _identity((xt.size,)) if with_jacobian else None
        if rows is not None:
            u1, v1, dents = self._rotate(u, v, r, with_jacobian)
            xt1[rows] = xt.take(rows) + (u1 - u)
            y1[rows] = y.take(rows) + (v1 - v)
            if with_jacobian:
                for (i, j), entry in zip(_ENTRIES, dents):
                    d[rows, i, j] = entry
        if with_jacobian:
            d = d.reshape(shape + (2, 2))
        return xt1.reshape(shape), y1.reshape(shape), d

    def _point_offsets(self, xt, y):
        """chart_offsets of one point in Python floats, with the same bits:
        float % 1.0 rounds w + n once, as w - floor(w) does."""
        return (xt - self.center.x + 0.5) % 1.0 - 0.5, y - self.center.y

    def point_source(self, src):
        # step()'s operations in the same order: _point_offsets, the u^2 + v^2
        # screen of _support, then the radius by complex abs, which calls the
        # C library's hypot as np.hypot does (math.hypot rounds differently)
        src.add(f"u = (xt - {src.const('cx', self.center.x)} + 0.5) % 1.0 - 0.5",
                f"v = y - {src.const('cy', self.center.y)}",
                f"if u * u + v * v < {src.const('screen', self._screen)} "
                f"and (r := abs(complex(u, v))) < {src.const('R', self.radius)}:")
        with src.block():
            src.add(f"ang = float({src.const('phi', self.profile.phi)}(r))",
                    "ca = cos(ang)",
                    "sa = sin(ang)",
                    "xt = xt + (u * ca - v * sa - u)",
                    "y = y + (u * sa + v * ca - v)")
        src.add("else:")
        with src.block():
            src.add("xt = xt + 0.0", "y = y + 0.0")

    def action(self, xt, y):
        # on the support, the rotation-invariant radial part plus the exact
        # correction S o h - S, with S = u (v/2 + cy) the chart potential of
        # beta - beta_polar; zero off the support
        shape, xt, _, rows, u, v, r = self._support(xt, y)
        g = np.zeros(xt.size)
        if rows is not None:
            u1, v1, _ = self._rotate(u, v, r)
            cy = self.center.y
            g[rows] = self.profile.action_radial(r) + u1 * (0.5 * v1 + cy) - u * (0.5 * v + cy)
        return g.reshape(shape)

    def mean_values(self):
        # the chart terms S o h - S and u o h - u integrate to 0 over the
        # disk, which h maps onto itself preserving area
        return -2.0 * math.pi * self.profile.moment(), 0.0

    def kink_margin(self, xt, y):
        u, v = self.chart_offsets(xt, y)
        return np.hypot(u, v) - self.radius

    def point_margin(self, xt, y):
        return abs(complex(*self._point_offsets(xt, y))) - self.radius

    def inverse(self):
        return LocalDiskTwist(self.center, self.radius, self.profile.negated())

    def describe(self):
        return (
            f"disk_twist(cx={self.center.x!r},cy={self.center.y!r},"
            f"R={self.radius!r},{self.profile!r})"
        )

    def to_config(self):
        return {
            "variant": "local_disk_twist",
            "center": [self.center.x, self.center.y],
            "radius": self.radius,
            "profile": self.profile.to_config(),
        }

    def __repr__(self):
        return self.describe()


class Compose(MapExpr):
    """outer o inner: inner is applied first."""

    def __init__(self, outer: MapExpr, inner: MapExpr):
        self.outer = outer
        self.inner = inner
        self._leaves = inner.leaves() + outer.leaves()

    def leaves(self):
        return self._leaves

    def point_source(self, src):
        self.inner.point_source(src)
        self.outer.point_source(src)

    def inverse(self):
        return Compose(self.inner.inverse(), self.outer.inverse())

    def describe(self):
        return f"({self.outer.describe()} o {self.inner.describe()})"

    def to_config(self):
        return {"variant": "compose", "outer": self.outer.to_config(), "inner": self.inner.to_config()}

    def __repr__(self):
        return f"Compose({self.outer!r}, {self.inner!r})"


class Iterate(MapExpr):
    def __init__(self, base: MapExpr, k: int):
        k = int(k)
        if k < 1:
            raise ValueError("iteration count must be a positive integer")
        self.base = base
        self.k = k
        self._leaves = base.leaves() * k

    def leaves(self):
        return self._leaves

    def point_source(self, src):
        # one copy of the base's lines in a loop, so the source does not grow with k
        src.add(f"for _ in range({src.const('k', self.k)}):")
        with src.block():
            self.base.point_source(src)

    def inverse(self):
        return Iterate(self.base.inverse(), self.k)

    def describe(self):
        return f"({self.base.describe()})^{self.k}"

    def to_config(self):
        return {"variant": "iterate", "base": self.base.to_config(), "k": self.k}

    def __repr__(self):
        return f"Iterate({self.base!r}, {self.k})"


class RowIterate(MapExpr):
    """base applied ks[i] times to row i of 1-D arrays: F^q over the rows of
    several periods at once.

    Each row takes exactly the leaf steps of Iterate(base, ks[i]), and its
    differential is multiplied leaf by leaf in the same order. All rows step
    together until the smallest count is reached; from then on the rows that
    are done are set aside and the others gathered. Gathering rounds no
    differently, because every leaf step and the stacked 2x2 products act row
    by row. With one count for every row nothing is gathered or copied.

    It is a map only of the rows it was built for: it evaluates apply_lift
    and lift_with_jacobian on arrays of exactly that many points, and it has
    no leaves, so it cannot be composed, inverted, described or integrated.
    """

    def __init__(self, base: MapExpr, ks):
        ks = np.asarray(ks)
        if ks.ndim != 1 or ks.dtype.kind not in "iu" or ks.min(initial=1) < 1:
            raise ValueError("iteration counts must be one positive integer per row")
        self.base = base
        self.ks = ks

    def leaves(self):
        raise TypeError("RowIterate iterates each row its own number of times, so it has no "
                        "leaves; only apply_lift and lift_with_jacobian evaluate it")

    def point_source(self, src):
        self.leaves()  # raises: there is no one-point pass either

    def apply_lift(self, xt, y):
        return self._pass(xt, y, False)[:2]

    def lift_with_jacobian(self, xt, y):
        return self._pass(xt, y, True)

    def _pass(self, xt, y, with_jacobian: bool):
        leaves, ks = self.base.leaves(), self.ks
        xt, y, jac = np.asarray(xt, dtype=float), np.asarray(y, dtype=float), None
        if xt.shape != ks.shape or y.shape != ks.shape:
            raise ValueError("RowIterate takes one row of xt and y per iteration count")
        # live: the counts of the rows still stepping; rows: their indices
        out, rows, live, done = None, None, ks, 0
        # the distinct counts in order: bincount (np.unique would import
        # numpy.ma) only when they differ, as it costs more than min and max
        top = ks.max(initial=0)
        stops = [top] if ks.min(initial=top) == top else np.flatnonzero(np.bincount(ks))
        for stop in stops:
            xt, y, jac = _walk(leaves * int(stop - done), xt, y, with_jacobian, jac)
            done = stop
            if stop == stops[-1]:
                break
            fin = live == stop
            if out is None:
                rows = np.arange(len(ks))
                out = (np.empty(len(ks)), np.empty(len(ks)),
                       _identity(ks.shape) if with_jacobian else None)
            self._set_aside(out, rows[fin], xt[fin], y[fin], None if jac is None else jac[fin])
            keep = ~fin
            xt, y, rows, live = xt[keep], y[keep], rows[keep], live[keep]
            jac = None if jac is None else jac[keep]
        if out is None:
            if with_jacobian and jac is None:
                jac = _identity(xt.shape)
            return xt, y, jac
        self._set_aside(out, rows, xt, y, jac)
        return out

    @staticmethod
    def _set_aside(out, rows, xt, y, jac):
        out[0][rows] = xt
        out[1][rows] = y
        if out[2] is not None and jac is not None:
            out[2][rows] = jac


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def eval_map(m: MapExpr, p: AnnulusPoint) -> AnnulusPoint:
    xt, y = m.apply_point(p.x, p.y)
    frac, _ = wrap_turn(xt)
    return AnnulusPoint(frac, y)


def eval_lift(m: MapExpr, p: LiftedPoint) -> LiftedPoint:
    return LiftedPoint(*m.apply_point(p.xt, p.y))


def differential(m: MapExpr, p: AnnulusPoint) -> np.ndarray:
    return m.jacobian(p.x, p.y)


def orbit_arrays(m: MapExpr, x, y, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lifted orbit z_0 .. z_{n-1} of (x, y) under m, as arrays xs, ys of
    shape (n,) + the broadcast shape of x and y.

    A scalar start takes the compiled point pass: one loop on Python floats
    whose body is the map's point source, storing each point through a
    memoryview, so a step makes no call per leaf and no numpy call. Array
    starts step all points at once through apply_lift. Every pass rounds a
    point alike, so each column of an array start is that start's scalar
    orbit bit for bit.
    """
    xt = np.asarray(x, dtype=float)
    yy = np.asarray(y, dtype=float)
    shape = (n,) + np.broadcast_shapes(xt.shape, yy.shape)
    xs = np.empty(shape)
    ys = np.empty(shape)
    if not shape[1:]:
        if n:
            with memoryview(xs) as xv, memoryview(ys) as yv:
                m._point.orbit(float(xt), float(yy), xv, yv)
        return xs, ys
    for j in range(n):
        if j:
            xt, yy = m.apply_lift(xt, yy)
        xs[j] = xt
        ys[j] = yy
    return xs, ys


# ---------------------------------------------------------------------------
# the compiled point pass
# ---------------------------------------------------------------------------

class PointSource:
    """The Python-float step of a map as source lines, built by point_source.

    The lines read and rebind the floats xt and y, and may use the
    temporaries u, v, r, ang, ca, sa and the functions cos and sin.
    A map's numbers never enter the text: const() names each one, so maps
    that differ only in their numbers share one source and one compile.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.consts: dict[str, object] = {}
        self._indent = ""

    def add(self, *lines: str) -> None:
        self.lines.extend(self._indent + line for line in lines)

    def const(self, name: str, value) -> str:
        """A fresh global name bound to value."""
        key = f"{name}_{len(self.consts)}"
        self.consts[key] = value
        return key

    @contextlib.contextmanager
    def block(self):
        """Indent the lines added inside the with-block one level."""
        self._indent += "    "
        try:
            yield
        finally:
            self._indent = self._indent[:-4]


class PointPass(NamedTuple):
    """A map's compiled point pass. step(xt, y) is its lift of one point in
    Python floats; orbit(xt, y, xv, yv) writes the orbit z_0, z_1, ... of
    (xt, y) into the float memoryviews xv and yv, one point per item (at
    least one)."""

    step: Callable[[float, float], tuple[float, float]]
    orbit: Callable


def point_pass(m: MapExpr) -> PointPass:
    """Compile m's point source into its point pass (MapExpr.apply_point and
    the scalar-start orbit_arrays read it as m._point). The code is compiled
    once per source text, that is per sequence of leaf kinds, and run in a
    namespace of each map's constants, which defines step and orbit with
    those globals."""
    src = PointSource()
    m.point_source(src)
    env = {"cos": math.cos, "sin": math.sin, **src.consts}
    exec(_compile_point_pass("\n".join(src.lines)), env)
    return PointPass(env["step"], env["orbit"])


@functools.lru_cache(maxsize=256)
def _compile_point_pass(body: str):
    step = "def step(xt, y):\n{}\n    return xt, y\n"
    orbit = ("def orbit(xt, y, xv, yv):\n    xv[0] = xt\n    yv[0] = y\n"
             "    for _j in range(1, len(xv)):\n{}\n        xv[_j] = xt\n        yv[_j] = y\n")
    return compile(step.format(textwrap.indent(body, "    "))
                   + orbit.format(textwrap.indent(body, "        ")), "<point pass>", "exec")


def finite_difference_jacobian(m: MapExpr, xt, y, h: float = 1e-6) -> np.ndarray:
    """Central-difference differential of the lift; oracle for the analytic one."""
    xt = np.asarray(xt, dtype=float)
    y = np.asarray(y, dtype=float)
    yp = np.minimum(y + h, 1.0)
    ym = np.maximum(y - h, 0.0)
    fx1, fy1 = m.apply_lift(xt + h, y)
    fx0, fy0 = m.apply_lift(xt - h, y)
    gx1, gy1 = m.apply_lift(xt, yp)
    gx0, gy0 = m.apply_lift(xt, ym)
    shape = np.broadcast(xt, y).shape
    out = np.empty(shape + (2, 2))
    out[..., 0, 0] = (fx1 - fx0) / (2 * h)
    out[..., 1, 0] = (fy1 - fy0) / (2 * h)
    out[..., 0, 1] = (gx1 - gx0) / (yp - ym)
    out[..., 1, 1] = (gy1 - gy0) / (yp - ym)
    return out


def area_defect(m: MapExpr, n: int = 64) -> float:
    """max |det(differential) - 1| over an n x n audit grid."""
    if n < 2:
        raise ValueError("audit grid needs n >= 2")
    xs = (np.arange(n, dtype=float) + 0.5) / n
    ys = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    jac = m.jacobian(X, Y)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    return float(np.max(np.abs(det - 1.0)))


@dataclass(frozen=True)
class BoundaryCircleMap:
    """Lifted circle map of a boundary restriction.

    displacement is the exact per-step advance, m.boundary_displacement(which):
    every member of this algebra restricts to a rigid rotation on each boundary
    circle (rotations and twists advance by a constant there, disk twists are
    the identity), so one forward pass from one boundary point gives it.
    """

    map: MapExpr
    which: str
    displacement: float

    @property
    def y_boundary(self) -> float:
        return 0.0 if self.which == "lower" else 1.0

    def __call__(self, xt):
        out, _ = self.map.apply_lift(np.asarray(xt, dtype=float), np.full_like(np.asarray(xt, dtype=float), self.y_boundary))
        return out

    def orbit(self, x0: float, n: int) -> np.ndarray:
        """Lifted boundary orbit x_0 .. x_n (n+1 points), computed exactly from
        the rigid displacement."""
        return float(x0) + self.displacement * np.arange(n + 1, dtype=float)


def boundary_circle_map(m: MapExpr, which: str) -> BoundaryCircleMap:
    return BoundaryCircleMap(m, which, m.boundary_displacement(which))


# ---------------------------------------------------------------------------
# construction from configuration dictionaries and CLI shorthand
# ---------------------------------------------------------------------------

def _twist_profile_from_config(cfg: dict) -> TwistProfile:
    kind = cfg.get("kind")
    if kind == "linear":
        return LinearProfile()
    if kind == "poly_bump":
        return PolyBumpProfile(float(cfg["c"]))
    if kind == "tabulated":
        return TabulatedProfile(cfg["y"], cfg["phi"])
    if kind == "negated":
        return _twist_profile_from_config(cfg["base"]).negated()
    raise ConfigError(f"unknown twist profile kind: {kind!r}")


def _radial_profile_from_config(cfg: dict, radius: float) -> RadialProfile:
    kind = cfg.get("kind")
    if kind == "poly_bump":
        return PolyBumpRadial(float(cfg["c"]), radius)
    if kind == "tabulated":
        return TabulatedRadial(cfg["r"], cfg["phi"])
    if kind == "negated":
        return _radial_profile_from_config(cfg["base"], radius).negated()
    raise ConfigError(f"unknown radial profile kind: {kind!r}")


def map_from_config(cfg: dict) -> MapExpr:
    """Build a MapExpr from its JSON configuration (variant tag + parameters)."""
    if not isinstance(cfg, dict):
        raise ConfigError("map configuration must be an object")
    variant = cfg.get("variant")
    try:
        if variant == "rigid_rotation":
            return RigidRotation(float(cfg["a"]))
        if variant == "twist":
            return Twist(_twist_profile_from_config(cfg["profile"]))
        if variant == "local_disk_twist":
            cx, cy = cfg["center"]
            radius = float(cfg["radius"])
            profile = _radial_profile_from_config(cfg["profile"], radius)
            return LocalDiskTwist(AnnulusPoint(float(cx), float(cy)), radius, profile)
        if variant == "compose":
            return Compose(map_from_config(cfg["outer"]), map_from_config(cfg["inner"]))
        if variant == "iterate":
            return Iterate(map_from_config(cfg["base"]), int(cfg["k"]))
    except KeyError as e:
        raise ConfigError(f"map variant {variant!r} is missing field {e.args[0]!r}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad parameter for map variant {variant!r}: {e}") from e
    raise ConfigError(f"unknown map variant: {variant!r}")


def random_builtin(rng: np.random.Generator) -> MapExpr:
    """A random primitive leaf, drawn for property audits and tests."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return RigidRotation(float(rng.uniform(-1.0, 1.0)))
    if kind == 1:
        return Twist(LinearProfile())
    if kind == 2:
        return Twist(PolyBumpProfile(float(rng.uniform(-1.5, 1.5))))
    cy = float(rng.uniform(0.25, 0.75))
    cx = float(rng.uniform(0.0, 1.0))
    radius = float(rng.uniform(0.3, 0.9)) * min(cy, 1.0 - cy)
    c = float(rng.uniform(-6.0, 6.0))
    return LocalDiskTwist.poly_bump(AnnulusPoint(cx, cy), radius, c)


def random_composition(rng: np.random.Generator, max_leaves: int = 3) -> MapExpr:
    """Composition of 1 .. max_leaves random primitive leaves."""
    n = int(rng.integers(1, max_leaves + 1))
    expr = random_builtin(rng)
    for _ in range(n - 1):
        expr = Compose(random_builtin(rng), expr)
    return expr


# the keys each shorthand factor reads; a twist names its profile by a flag
_SHORTHAND_KEYS = {"rigid": {"a"}, "twist:linear": set(), "twist:bump": {"c"},
                   "twist:poly_bump": {"c"}, "disk": {"cx", "cy", "R", "c"}}


def map_from_shorthand(text: str) -> MapExpr:
    """Parse the compact CLI syntax.

    Grammar: factors separated by '*' compose left-to-right as outer*inner;
    a trailing '^k' iterates a factor. Factors:
      rigid:a=0.618
      twist:linear | twist:bump,c=0.2 | twist:poly_bump,c=0.2
      disk:cx=0.5,cy=0.5,R=0.35,c=50.85
    """
    def parse_factor(tok: str) -> MapExpr:
        tok = tok.strip()
        power = 1
        if "^" in tok:
            tok, _, ptxt = tok.rpartition("^")
            try:
                power = int(ptxt)
            except ValueError:
                raise ConfigError(f"bad iteration count {ptxt!r}") from None
        if ":" not in tok:
            raise ConfigError(f"map factor {tok!r} needs the form family:params")
        family, _, params = tok.partition(":")
        kv = {}
        flags = []
        for item in params.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" in item:
                k, _, v = item.partition("=")
                try:
                    kv[k.strip()] = float(v)
                except ValueError:
                    raise ConfigError(f"bad numeric value in {item!r}") from None
            else:
                flags.append(item)
        kind = family.strip().lower()
        if kind == "twist":  # the first flag names the profile
            kind += ":" + (flags.pop(0) if flags else "linear")
        if kind not in _SHORTHAND_KEYS:
            raise ConfigError(f"unknown map shorthand {kind!r}")
        unread = flags + sorted(set(kv) - _SHORTHAND_KEYS[kind])
        if unread:
            raise ConfigError(f"{kind} shorthand does not read {', '.join(map(repr, unread))}")
        if kind == "rigid":
            base = RigidRotation(kv.get("a", 0.0))
        elif kind == "twist:linear":
            base = Twist(LinearProfile())
        elif kind == "disk":
            try:
                base = LocalDiskTwist.poly_bump(
                    AnnulusPoint(kv["cx"], kv["cy"]), kv["R"], kv.get("c", 1.0)
                )
            except KeyError as e:
                raise ConfigError(f"disk shorthand needs cx, cy, R (missing {e.args[0]})") from None
        else:  # twist:bump or twist:poly_bump
            base = Twist(PolyBumpProfile(kv.get("c", 1.0)))
        return base if power == 1 else Iterate(base, power)

    parts = [p for p in text.split("*") if p.strip()]
    if not parts:
        raise ConfigError("empty map expression")
    expr = parse_factor(parts[-1])
    for tok in reversed(parts[:-1]):
        expr = Compose(parse_factor(tok), expr)
    return expr
