"""Quadrature engines for integrals over the annulus.

The scalar fields this library integrates (action functions and one-step lift
displacements of maps in the closed algebra) are sums of leaf contributions
composed with prefix maps. A contribution is a pointwise leaf field
field(leaf, xt, y), read off the leaf's own closed forms (its step and its
action), so each family's formulas live once, in maps.py; tree_field_integral
only knows where each family's field is smooth. Smooth contributions are
handled by spectral rules (Gauss-Legendre in y, and in chart radii; trapezoid
in periodic angles). Local disk twists make the fields only C^1 across their
chart circles, where tensor rules on the square lose their order; those
contributions are instead integrated in polar charts around the support
disks, where the integrands are smooth again.

Changing variables into a chart uses the numerically evaluated Jacobian
determinant of the inverse prefix map (a value near 1 for this algebra, but
computed, not assumed), so no measure-invariance property is taken on faith.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .maps import LocalDiskTwist, MapExpr, RigidRotation, Twist, compose_chain
from .util import gauss_nodes_unit, pairwise_sum, refine_by_doubling


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
# leaf-field decomposition of tree fields
# ---------------------------------------------------------------------------

def displacement_descriptor(leaf: MapExpr, xt, y):
    """Pointwise leaf field: the one-step x-lift displacement of a primitive
    factor."""
    return leaf.step(xt, y)[0] - xt


def action_descriptor(leaf: MapExpr, xt, y):
    """Pointwise leaf field: the closed-form action function of a primitive
    factor with beta = y dx, zero on the lower boundary."""
    return leaf.action(xt, y)


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


def _chart_integral(fn: Callable, disk: LocalDiskTwist, tol: float) -> tuple[float, float]:
    """Integral of fn(x, y) over the support disk of a disk twist, in its
    polar chart."""
    cx, cy = disk.center.x, disk.center.y
    return polar_disk_integral(
        lambda r, theta: fn(cx + r * np.cos(theta), cy + r * np.sin(theta)), disk.radius, tol=tol)


def tree_field_integral(m: MapExpr, field: Callable, tol: float = 1e-9) -> tuple[float, float]:
    """Integrate sum_j field(f_j, F_j(z)) over the annulus, where the leaves f_j
    of m are applied in order, F_j = f_{j-1} o ... o f_1, and field(leaf, xt, y)
    is a pointwise leaf field (action_descriptor, displacement_descriptor).

    The only family dispatch of the engine is here, by the shape each family's
    field has:
      rigid rotation -> a constant (the annulus has unit area).
      twist          -> a function of y alone: base integral over y, plus one
                        polar-chart correction per disk twist in the prefix
                        (telescoping the prefix stage by stage; y-preserving
                        stages drop out exactly).
      disk twist     -> supported in its chart disk: polar-chart integral over
                        the disk, with the numerically evaluated
                        inverse-prefix Jacobian determinant as density.

    Returns (value, accumulated increment estimate).
    """
    leaves = m.leaves()
    total = 0.0
    err = 0.0
    for j, leaf in enumerate(leaves):
        if isinstance(leaf, RigidRotation):
            total += float(field(leaf, 0.0, 0.0))
            continue
        if isinstance(leaf, Twist):
            def fn_y(y, leaf=leaf):
                return field(leaf, 0.0, y)

            parts = [integrate_unit_interval(fn_y, tol=tol)]
            parts += [_bump_stage_correction(fn_y, b, compose_chain(leaves[:i]), tol)
                      for i, b in enumerate(leaves[:j]) if isinstance(b, LocalDiskTwist)]
        elif isinstance(leaf, LocalDiskTwist):
            jac_factor = _inverse_jacobian_factor(compose_chain(leaves[:j]))

            def chart_fn(x, y, leaf=leaf, jac_factor=jac_factor):
                return field(leaf, x, y) * jac_factor(x, y)

            parts = [_chart_integral(chart_fn, leaf, tol)]
        else:
            raise TypeError(f"not a primitive map factor: {leaf!r}")
        for v, e in parts:
            total += v
            err += e
    return total, err


def _bump_stage_correction(fn_y: Callable, bump: LocalDiskTwist,
                           prefix: MapExpr | None, tol: float) -> tuple[float, float]:
    """Chart integral of f(y after the bump) - f(y before) over the bump disk,
    weighted by the inverse-prefix Jacobian determinant."""
    jac_factor = _inverse_jacobian_factor(prefix)

    def chart_fn(x, y):
        y_after = bump.step(x, y)[1]
        return (fn_y(y_after) - fn_y(y)) * jac_factor(x, y)

    return _chart_integral(chart_fn, bump, tol)
