"""Annulus geometry: points, universal-cover lifts, polyline paths and
line integrals of 1-forms.

Conventions. The annulus is S^1 x [0, 1] with the angular coordinate x
measured in turns (period 1) and the radial coordinate y in [0, 1]. The
area form is omega = dy ^ dx and the canonical primitive is beta = y dx.
Lifted points live on R x [0, 1].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .util import gauss_nodes_unit, pairwise_sum, refine_all_by_doubling, wrap_turn

# Gauss-Legendre nodes per quadrature piece of a path segment
GAUSS_POINTS = 5


@dataclass(frozen=True)
class AnnulusPoint:
    """A point (x mod 1, y) on the annulus. x is normalized into [0, 1)."""

    x: float
    y: float

    def __post_init__(self):
        x = float(self.x)
        y = float(self.y)
        if not np.isfinite(x):
            raise ValueError(f"angular coordinate must be finite, got {x}")
        if not 0.0 <= y <= 1.0:
            raise ValueError(f"radial coordinate must lie in [0, 1], got {y}")
        frac, _ = wrap_turn(x)
        object.__setattr__(self, "x", frac)
        object.__setattr__(self, "y", y)

    def lift(self, sheet: int = 0) -> "LiftedPoint":
        return lift(self, sheet)


@dataclass(frozen=True)
class LiftedPoint:
    """A universal-cover representative (x_lift, y) with unbounded x_lift."""

    xt: float
    y: float

    def __post_init__(self):
        xt = float(self.xt)
        y = float(self.y)
        if not np.isfinite(xt):
            raise ValueError(f"lifted angular coordinate must be finite, got {xt}")
        if not 0.0 <= y <= 1.0:
            raise ValueError(f"radial coordinate must lie in [0, 1], got {y}")
        object.__setattr__(self, "xt", xt)
        object.__setattr__(self, "y", y)

    def project(self) -> tuple[AnnulusPoint, int]:
        return project(self)


def project(p: LiftedPoint) -> tuple[AnnulusPoint, int]:
    """Drop a lifted point to the annulus, returning the integer winding floor(xt)."""
    frac, winding = wrap_turn(p.xt)
    return AnnulusPoint(frac, p.y), winding


def lift(p: AnnulusPoint, sheet: int = 0) -> LiftedPoint:
    """Choose the universal-cover representative of p on the given sheet."""
    return LiftedPoint(p.x + sheet, p.y)


@dataclass(frozen=True)
class PolylinePath:
    """A piecewise-straight path in lifted coordinates.

    refinement is the longest quadrature piece a segment starts with when
    the path is integrated: a segment of length L starts with
    ceil(L / refinement) pieces, and the piece count doubles from there.
    """

    vertices: tuple[LiftedPoint, ...]
    refinement: float = 0.25

    def __post_init__(self):
        verts = tuple(self.vertices)
        if len(verts) < 2:
            raise ValueError("a path needs at least two vertices")
        for a, b in zip(verts, verts[1:]):
            if a.xt == b.xt and a.y == b.y:
                raise ValueError("consecutive path vertices must differ")
        if not self.refinement > 0:
            raise ValueError("refinement must be positive")
        object.__setattr__(self, "vertices", verts)

    @staticmethod
    def straight(a: LiftedPoint, b: LiftedPoint, refinement: float = 0.25) -> "PolylinePath":
        return PolylinePath((a, b), refinement)

    def reversed(self) -> "PolylinePath":
        return PolylinePath(tuple(reversed(self.vertices)), self.refinement)

    def concat(self, other: "PolylinePath") -> "PolylinePath":
        last, first = self.vertices[-1], other.vertices[0]
        if last.xt != first.xt or last.y != first.y:
            raise ValueError("paths do not share an endpoint")
        return PolylinePath(self.vertices + other.vertices[1:], min(self.refinement, other.refinement))

    def total_winding(self) -> int:
        """Net integer x-winding for a closed path (rounded lift displacement)."""
        return int(round(self.vertices[-1].xt - self.vertices[0].xt))


class OneForm:
    """Base for 1-forms a(x, y) dx + b(x, y) dy on the annulus.

    line_integral passes coefficients() the lifted x of its path, not x mod 1,
    so a form must be 1-periodic in x; along lifted paths dx means d(x_lift).
    ExplicitField reduces x mod 1 itself before calling the user's functions.
    coefficients() must act point by point: line_integral evaluates the nodes
    of several segments in one call.
    """

    def coefficients(self, x, y):
        raise NotImplementedError


class CanonicalBeta(OneForm):
    """beta = y dx, the fixed primitive of omega = dy ^ dx."""

    def coefficients(self, x, y):
        y = np.asarray(y, dtype=float)
        return y, np.zeros_like(y)

    def __repr__(self):
        return "CanonicalBeta()"


class ShiftedBeta(OneForm):
    """beta + c dx. The extra closed term c dx shifts actions by rotation terms."""

    def __init__(self, c: float):
        self.c = float(c)

    def coefficients(self, x, y):
        y = np.asarray(y, dtype=float)
        return y + self.c, np.zeros_like(y)

    def __repr__(self):
        return f"ShiftedBeta({self.c!r})"


class ExplicitField(OneForm):
    """A user-supplied 1-form with pointwise coefficient functions.

    check_area_form() checks numerically, on a sample grid, that it is a
    primitive of the area form: d(beta) = dy ^ dx.
    """

    def __init__(self, a: Callable, b: Callable):
        self.a = a
        self.b = b

    def coefficients(self, x, y):
        x = np.asarray(wrap_turn(x)[0], dtype=float)
        y = np.asarray(y, dtype=float)
        return np.asarray(self.a(x, y), dtype=float), np.asarray(self.b(x, y), dtype=float)

    def check_area_form(self, n: int = 33, h: float = 1e-5, tol: float = 1e-6) -> bool:
        """Sample da/dy - db/dx on an interior grid; omega = dy^dx needs it to be 1."""
        xs = np.linspace(0.05, 0.95, n)
        ys = np.linspace(0.05, 0.95, n)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        a_up, _ = self.coefficients(X, Y + h)
        a_dn, _ = self.coefficients(X, Y - h)
        _, b_rt = self.coefficients((X + h) % 1.0, Y)
        _, b_lt = self.coefficients((X - h) % 1.0, Y)
        curl = (a_up - a_dn) / (2 * h) - (b_rt - b_lt) / (2 * h)
        return bool(np.max(np.abs(curl - 1.0)) < tol)


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre controls for path integrals, GAUSS_POINTS nodes a piece."""

    tol: float = 1e-10
    max_halvings: int = 14

    def __post_init__(self):
        if self.max_halvings < 1 or not self.tol > 0:
            raise ValueError("invalid quadrature spec")


def line_integral(form: OneForm, path: PolylinePath, quad: QuadratureSpec | None = None) -> float:
    """Integrate a 1-form along a polyline path with composite Gauss rules.

    Each segment starts with enough pieces to respect path.refinement, each of
    GAUSS_POINTS nodes, then the piece count is doubled until two successive
    estimates agree within quad.tol. Raises NonConvergentError if the budget
    runs out first. This is _line_integrals on one path: one coefficients
    call per doubling round serves every segment still refining.
    """
    return _line_integrals(form, [path], quad)[0]


def _line_integrals(form: OneForm, paths, quad: QuadratureSpec | None = None) -> list[float]:
    """line_integral of one form along each of several paths, all their
    segments refined together by util.refine_all_by_doubling: each round
    makes one coefficients call on the nodes of every segment still refining.
    Each segment keeps its own nodes, weights, pairwise sum and stopping rule,
    and the forms here act point by point, so every value is the one a
    segment gets alone."""
    quad = quad or QuadratureSpec()
    segs = []  # (a.xt, a.y, dx, dy, starting piece count, path index)
    for k, path in enumerate(paths):
        for a, b in zip(path.vertices, path.vertices[1:]):
            dx = b.xt - a.xt
            dy = b.y - a.y
            pieces0 = max(1, int(np.ceil(float(np.hypot(dx, dy)) / path.refinement)))
            segs.append((a.xt, a.y, dx, dy, pieces0, k))

    def evaluate(jobs):
        rules = [_piece_rule(segs[i][4] * scale) for i, scale in jobs]
        counts = [len(t) for t, _ in rules]
        t = np.concatenate([t for t, _ in rules])
        ax, ay, dx, dy = (np.repeat([segs[i][k] for i, _ in jobs], counts) for k in range(4))
        ca, cb = form.coefficients(ax + t * dx, np.clip(ay + t * dy, 0.0, 1.0))
        w = np.concatenate([w for _, w in rules])
        vals = w * np.asarray(ca * dx + cb * dy, dtype=float)
        return [pairwise_sum(part) for part in np.split(vals, np.cumsum(counts)[:-1])]

    values = refine_all_by_doubling(evaluate, len(segs), quad.tol, quad.max_halvings,
                                    "path quadrature")
    totals = [0.0] * len(paths)
    for seg, (value, _) in zip(segs, values):
        totals[seg[5]] += value
    return totals


@functools.lru_cache(maxsize=64)
def _piece_rule(pieces: int) -> tuple[np.ndarray, np.ndarray]:
    """Parameters t in [0, 1] and weights of the composite rule with
    GAUSS_POINTS nodes on each of pieces equal pieces."""
    nodes, weights = gauss_nodes_unit(GAUSS_POINTS)
    t0 = np.arange(pieces, dtype=float) / pieces
    t = (t0[:, None] + nodes[None, :] / pieces).ravel()
    w = np.tile(weights / pieces, pieces)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w
