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
    return refine_all_by_doubling(lambda jobs: [rule(scale) for _, scale in jobs], 1,
                                  tol, max_doublings, what)[0]


def refine_all_by_doubling(evaluate: Callable[[list[tuple[int, int]]], list[float]], n: int,
                           tol: float, max_doublings: int, what: str) -> list[tuple[float, float]]:
    """refine_by_doubling for n rules at once, in rounds.

    evaluate(jobs) returns the value of rule i at scale s for each job
    (i, s), in order. The first round asks for scales 1 and 2 of every rule;
    each later round asks for the next scale of the rules whose last two
    values still differ by tol or more. Each rule gets the values, stopping
    rule and result that refine_by_doubling gives it alone. When rules are
    still refining after max_doublings doublings, the first of them raises
    its NonConvergentError.
    """
    if not n:
        return []
    vals = evaluate([(i, 1) for i in range(n)] + [(i, 2) for i in range(n)])
    prev = vals[:n]
    cur = dict(enumerate(vals[n:]))  # the values at scale of the rules still refining
    out: list[tuple[float, float]] = [(0.0, 0.0)] * n
    scale, doublings = 2, 1
    while True:
        refining = {}
        for i, value in cur.items():
            inc = abs(value - prev[i])
            prev[i] = value
            if inc < tol:
                out[i] = (value, inc)
            else:
                refining[i] = inc
        if not refining:
            return out
        if doublings >= max_doublings:
            i, inc = next(iter(refining.items()))
            raise NonConvergentError(
                f"{what} stalled above tol={tol} at {scale}x the starting resolution",
                value=prev[i], increment=inc,
            )
        scale *= 2
        doublings += 1
        cur = dict(zip(refining, evaluate([(i, scale) for i in refining])))


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
