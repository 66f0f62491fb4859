"""Quadrature engines for integrals over the annulus.

The scalar fields this library integrates (action functions and one-step lift
displacements of maps in the closed algebra) are sums of leaf contributions
composed with prefix maps. Smooth contributions are handled by spectral rules
(Gauss-Legendre in y, and in chart radii; trapezoid in periodic angles). Local
disk twists make the fields only C^1 across their chart circles, where tensor
rules on the square lose their order; those contributions are instead
integrated in polar charts around the support disks, where the integrands are
smooth again.

Changing variables into a chart uses the numerically evaluated Jacobian
determinant of the inverse prefix map (a value near 1 for this algebra, but
computed, not assumed), so no measure-invariance property is taken on faith.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .maps import LocalDiskTwist, MapExpr, RigidRotation, Twist, compose_chain
from .util import (  # noqa: F401  (integrate_path_parameter is re-exported)
    gauss_nodes_unit,
    integrate_path_parameter,
    pairwise_sum,
    refine_by_doubling,
)


def integrate_unit_interval(fn: Callable, tol: float = 1e-10, n0: int = 32,
                            max_doublings: int = 10) -> tuple[float, float]:
    """Gauss-Legendre on [0, 1] with node doubling until the increment is < tol.

    fn must accept a 1-d array. Returns (value, last increment).
    """
    def rule(scale):
        x, w = gauss_nodes_unit(n0 * scale)
        return pairwise_sum(w * np.asarray(fn(x), dtype=float))

    return refine_by_doubling(rule, tol, max_doublings, "1-d quadrature")


def polar_disk_integral(fn_chart: Callable, R: float, tol: float = 1e-10,
                        nr0: int = 24, ntheta0: int = 64,
                        max_doublings: int = 5) -> tuple[float, float]:
    """Integrate fn over a euclidean disk of radius R in polar coordinates.

    fn_chart(r, theta) is evaluated on a meshgrid and must be vectorized;
    the measure is r dr dtheta. Gauss-Legendre in r, trapezoid in the periodic
    angle; both spectral for chart-smooth integrands.
    """
    def rule(scale):
        nr, ntheta = nr0 * scale, ntheta0 * scale
        rs, wr = gauss_nodes_unit(nr)
        rs = rs * R
        wr = wr * R
        thetas = 2.0 * np.pi * np.arange(ntheta, dtype=float) / ntheta
        wt = 2.0 * np.pi / ntheta
        Rg, Tg = np.meshgrid(rs, thetas, indexing="ij")
        vals = np.asarray(fn_chart(Rg, Tg), dtype=float)
        contrib = vals * Rg * wr[:, None] * wt
        return pairwise_sum(contrib.ravel())

    return refine_by_doubling(rule, tol, max_doublings, "polar chart quadrature")


def tensor_annulus_integral(fn: Callable, tol: float = 1e-9, n0: int = 32,
                            max_doublings: int = 6) -> tuple[float, float]:
    """Plain tensor rule over the annulus: trapezoid in the periodic x
    direction, Gauss-Legendre in y. Spectral for globally smooth fields; used
    as the generic fallback and for cross-checks, not for fields with chart
    kinks (those go through the polar path).
    """
    def rule(scale):
        n = n0 * scale
        xs = np.arange(n, dtype=float) / n
        ys, wy = gauss_nodes_unit(n)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        vals = np.asarray(fn(X, Y), dtype=float)
        contrib = vals * (wy[None, :] / n)
        return pairwise_sum(contrib.ravel())

    return refine_by_doubling(rule, tol, max_doublings, "tensor quadrature")


# ---------------------------------------------------------------------------
# leaf-term decomposition of tree fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroTerm:
    pass


@dataclass(frozen=True)
class ConstTerm:
    value: float


@dataclass(frozen=True)
class YFunctionTerm:
    """Contribution f(y) evaluated after the prefix map."""

    fn: Callable


@dataclass(frozen=True)
class ChartTerm:
    """Contribution supported in the leaf's chart disk, given in chart polar
    coordinates as fn(r, theta)."""

    center_x: float
    center_y: float
    radius: float
    fn: Callable


TermDescriptor = ZeroTerm | ConstTerm | YFunctionTerm | ChartTerm


def _inverse_jacobian_factor(prefix: MapExpr | None):
    """|det D(prefix^-1)| as a vectorized field of annulus coordinates."""
    if prefix is None:
        return lambda x, y: 1.0
    inv = prefix.inverse()

    def factor(x, y):
        jac = inv.jacobian(x, y)
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        return np.abs(det)

    return factor


def tree_field_integral(m: MapExpr, describe_leaf: Callable[[MapExpr], TermDescriptor],
                        tol: float = 1e-9) -> tuple[float, float]:
    """Integrate sum_j term_j(F_j(z)) over the annulus, where the leaves f_j of
    m are applied in order, F_j = f_{j-1} o ... o f_1, and describe_leaf gives
    each leaf's contribution.

    Per term:
      ZeroTerm      -> skipped.
      ConstTerm     -> the constant (the annulus has unit area).
      YFunctionTerm -> base integral of f(y) dy, plus one polar-chart
                       correction per disk twist in the prefix (telescoping
                       the prefix stage by stage; y-preserving stages drop out
                       exactly).
      ChartTerm     -> polar-chart integral over the preimage of the support
                       disk, with the numerically evaluated inverse-prefix
                       Jacobian determinant as density.

    Returns (value, accumulated increment estimate).
    """
    leaves = m.leaves()
    total = 0.0
    err = 0.0
    for j, leaf in enumerate(leaves):
        desc = describe_leaf(leaf)
        if isinstance(desc, ZeroTerm):
            continue
        if isinstance(desc, ConstTerm):
            total += desc.value
            continue
        if isinstance(desc, YFunctionTerm):
            v, e = integrate_unit_interval(desc.fn, tol=tol)
            total += v
            err += e
            for i in range(j):
                b = leaves[i]
                if not isinstance(b, LocalDiskTwist):
                    continue
                v, e = _bump_stage_correction(desc.fn, b, compose_chain(leaves[:i]), tol)
                total += v
                err += e
            continue
        if isinstance(desc, ChartTerm):
            prefix = compose_chain(leaves[:j])
            jac_factor = _inverse_jacobian_factor(prefix)
            cx, cy, R = desc.center_x, desc.center_y, desc.radius
            fn = desc.fn

            def chart_fn(r, theta, cx=cx, cy=cy, fn=fn, jac_factor=jac_factor):
                x = cx + r * np.cos(theta)
                y = cy + r * np.sin(theta)
                return fn(r, theta) * jac_factor(x, y)

            v, e = polar_disk_integral(chart_fn, R, tol=tol)
            total += v
            err += e
            continue
        raise TypeError(f"unknown term descriptor {desc!r}")
    return total, err


def _bump_stage_correction(fn_y: Callable, bump: LocalDiskTwist,
                           prefix: MapExpr | None, tol: float) -> tuple[float, float]:
    """Chart integral of f(y after the bump) - f(y before) over the bump disk,
    weighted by the inverse-prefix Jacobian determinant."""
    jac_factor = _inverse_jacobian_factor(prefix)
    cx = bump.center.x
    cy = bump.center.y
    prof = bump.profile

    def chart_fn(r, theta):
        phi = prof.phi(r)
        y_before = cy + r * np.sin(theta)
        y_after = cy + r * np.sin(theta + phi)
        x = cx + r * np.cos(theta)
        return (fn_y(y_after) - fn_y(y_before)) * jac_factor(x, y_before)

    return polar_disk_integral(chart_fn, bump.radius, tol=tol)


# ---------------------------------------------------------------------------
# standard descriptors
# ---------------------------------------------------------------------------

def displacement_descriptor(leaf: MapExpr) -> TermDescriptor:
    """One-step x-lift displacement contribution of a primitive factor."""
    if isinstance(leaf, RigidRotation):
        return ConstTerm(leaf.a)
    if isinstance(leaf, Twist):
        return YFunctionTerm(leaf.profile.phi)
    if isinstance(leaf, LocalDiskTwist):
        prof = leaf.profile

        def fn(r, theta, prof=prof):
            return r * (np.cos(theta + prof.phi(r)) - np.cos(theta))

        return ChartTerm(leaf.center.x, leaf.center.y, leaf.radius, fn)
    raise TypeError(f"not a primitive map factor: {leaf!r}")


def action_descriptor(leaf: MapExpr) -> TermDescriptor:
    """Action-function contribution of a primitive factor with beta = y dx,
    normalized to vanish on the lower boundary.

    Rotations pull beta back to itself (zero term). A twist contributes its
    potential, a function of y alone. A disk twist contributes its chart
    action: the rotation-invariant radial part plus the exact-correction
    S o h - S with S = u (v/2 + cy) the chart potential of beta - beta_polar.
    """
    if isinstance(leaf, RigidRotation):
        return ZeroTerm()
    if isinstance(leaf, Twist):
        return YFunctionTerm(leaf.profile.potential)
    if isinstance(leaf, LocalDiskTwist):
        prof = leaf.profile
        cy = leaf.center.y

        def fn(r, theta, prof=prof, cy=cy):
            phi = prof.phi(r)
            u0, v0 = r * np.cos(theta), r * np.sin(theta)
            u1, v1 = r * np.cos(theta + phi), r * np.sin(theta + phi)
            s_before = u0 * (0.5 * v0 + cy)
            s_after = u1 * (0.5 * v1 + cy)
            return prof.action_radial(r) + s_after - s_before

        return ChartTerm(leaf.center.x, leaf.center.y, leaf.radius, fn)
    raise TypeError(f"not a primitive map factor: {leaf!r}")
