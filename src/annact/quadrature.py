"""Mean values over the annulus, and a tensor rule to check them against.

tree_field_integral sums the exact leaf means (maps.MapExpr.mean_values,
1-d moments of each leaf's profile). tensor_annulus_integral knows nothing
of leaves: it integrates a tree field pointwise, an independent oracle for
the moments.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .maps import MapExpr
from .util import gauss_nodes_unit, pairwise_sum, refine_all_by_doubling


def tensor_annulus_integral(fn: Callable, tol: float = 1e-9, n0: int = 32,
                            max_doublings: int = 6) -> tuple[float, float]:
    """Plain tensor rule over the annulus: trapezoid in the periodic x
    direction, Gauss-Legendre in y. Spectral for globally smooth fields; an
    independent oracle for cross-checks of tree_field_integral, not fit for
    fields with chart kinks.
    """
    def rule(scale):
        n = n0 * scale
        xs = np.arange(n, dtype=float) / n
        ys, wy = gauss_nodes_unit(n)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        vals = np.asarray(fn(X, Y), dtype=float)
        contrib = vals * (wy[None, :] / n)
        return pairwise_sum(contrib.ravel())

    return refine_all_by_doubling(lambda jobs: [rule(scale) for _, scale in jobs], 1,
                                  tol, max_doublings, "tensor quadrature")[0]


def tree_field_integral(m: MapExpr) -> tuple[float, float]:
    """(mean action, mean displacement) of m over the unit-area annulus.

    Each tree field is a sum of leaf fields composed with the leaves applied
    before them. Those preserve area and drop out of the integral (the
    additivity of the Calabi invariant), so the leaves' mean_values() add up.
    """
    action = displacement = 0.0
    for leaf in m.leaves():
        a, d = leaf.mean_values()
        action += a
        displacement += d
    return action, displacement
