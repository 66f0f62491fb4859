"""Small numeric helpers: deterministic reductions, Gauss-Legendre rules and
refinement by doubling."""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import NonConvergentError


def pairwise_sum(values) -> float:
    """Sum a 1-d array by a fixed-shape pairwise tree.

    The reduction shape depends only on the length of the array, never on how
    the values were produced or chunked, so results are bit-stable across
    worker counts and runs.
    """
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        half = a.size // 2
        folded = a[:half] + a[half : 2 * half]
        if a.size % 2:
            folded = np.concatenate([folded, a[-1:]])
        a = folded
    return float(a[0])


@functools.lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_nodes_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    x, w = gauss_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


def refine_by_doubling(rule: Callable[[int], float], tol: float, max_doublings: int,
                       what: str) -> tuple[float, float]:
    """Evaluate rule(scale) at resolution scales 1, 2, 4, ... until two
    successive values differ by less than tol.

    Returns (value, last increment); raises NonConvergentError, carrying both,
    after max_doublings doublings.
    """
    scale = 1
    prev = rule(scale)
    for _ in range(max_doublings):
        scale *= 2
        cur = rule(scale)
        inc = abs(cur - prev)
        prev = cur
        if inc < tol:
            return cur, inc
    raise NonConvergentError(
        f"{what} stalled above tol={tol} at {scale}x the starting resolution",
        value=prev, increment=inc,
    )


def wrap_turn(x):
    """Reduce an angular coordinate (in turns) to [0, 1) plus integer winding.

    Works on scalars and arrays. Guards against the frac == 1.0 rounding case
    that floor-subtraction produces for tiny negative inputs.
    """
    x = np.asarray(x, dtype=float)
    winding = np.floor(x)
    frac = x - winding
    bad = frac >= 1.0
    if np.any(bad):
        frac = np.where(bad, frac - 1.0, frac)
        winding = np.where(bad, winding + 1.0, winding)
    if frac.ndim == 0:
        return float(frac), int(winding)
    return frac, winding.astype(np.int64)
