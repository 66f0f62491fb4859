"""Quadrature engines for integrals over the annulus.

The scalar fields this library integrates (action functions and one-step lift
displacements of maps in the closed algebra) are sums of leaf contributions
composed with prefix maps. Every prefix is area preserving, so each
contribution integrates to its leaf field's own integral over the annulus
(the additivity of the Calabi invariant) and tree_field_integral sums those.
A leaf field field(leaf, xt, y) is read off the leaf's own closed forms (its
step and its action), so each family's formulas live once, in maps.py;
tree_field_integral only knows where each family's field is smooth. Smooth
fields are handled by spectral rules (Gauss-Legendre in y, and in chart
radii; trapezoid in periodic angles). A local disk twist's field is only C^1
across its chart circle, where tensor rules on the square lose their order,
so it is integrated in the polar chart around its support disk, where the
integrand is smooth again.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .maps import LocalDiskTwist, MapExpr, RigidRotation, Twist
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
    direction, Gauss-Legendre in y. Spectral for globally smooth fields; an
    independent oracle for cross-checks of tree_field_integral, not fit for
    fields with chart kinks (those go through the polar path).
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


def tree_field_integral(m: MapExpr, field: Callable, tol: float = 1e-9) -> tuple[float, float]:
    """Integrate sum_j field(f_j, F_j(z)) over the annulus, where the leaves f_j
    of m are applied in order, F_j = f_{j-1} o ... o f_1, and field(leaf, xt, y)
    is a pointwise leaf field (action_descriptor, displacement_descriptor).

    Each prefix F_j preserves area, so the integral of field(f_j, F_j(z)) is
    the integral of field(f_j, z) and the prefixes drop out exactly. The only
    family dispatch of the engine is here, by the shape each family's field
    has:
      rigid rotation -> a constant (the annulus has unit area).
      twist          -> a function of y alone: Gauss-Legendre over y.
      disk twist     -> supported in its chart disk: polar-chart integral over
                        the disk.

    Returns (value, accumulated increment estimate).
    """
    total = 0.0
    err = 0.0
    for leaf in m.leaves():
        if isinstance(leaf, RigidRotation):
            total += float(field(leaf, 0.0, 0.0))
            continue
        if isinstance(leaf, Twist):
            v, e = integrate_unit_interval(lambda y: field(leaf, 0.0, y), tol=tol)
        elif isinstance(leaf, LocalDiskTwist):
            cx, cy = leaf.center.x, leaf.center.y
            v, e = polar_disk_integral(
                lambda r, theta: field(leaf, cx + r * np.cos(theta), cy + r * np.sin(theta)),
                leaf.radius, tol=tol)
        else:
            raise TypeError(f"not a primitive map factor: {leaf!r}")
        total += v
        err += e
    return total, err
