"""Annulus geometry: points, universal-cover lifts, polyline paths and
line integrals of 1-forms.

Conventions. The annulus is S^1 x [0, 1] with the angular coordinate x
measured in turns (period 1) and the radial coordinate y in [0, 1]. The
area form is omega = dy ^ dx and the canonical primitive is beta = y dx.
Lifted points live on R x [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .util import gauss_nodes_unit, pairwise_sum, refine_by_doubling, wrap_turn

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
    runs out first.
    """
    quad = quad or QuadratureSpec()
    nodes, weights = gauss_nodes_unit(GAUSS_POINTS)
    total = 0.0
    for a, b in zip(path.vertices, path.vertices[1:]):
        dx = b.xt - a.xt
        dy = b.y - a.y
        pieces0 = max(1, int(np.ceil(float(np.hypot(dx, dy)) / path.refinement)))

        def rule(scale, a=a, dx=dx, dy=dy, pieces0=pieces0):
            pieces = pieces0 * scale
            t0 = np.arange(pieces, dtype=float) / pieces
            t = (t0[:, None] + nodes[None, :] / pieces).ravel()
            w = np.tile(weights / pieces, pieces)
            ca, cb = form.coefficients(a.xt + t * dx, np.clip(a.y + t * dy, 0.0, 1.0))
            return pairwise_sum(w * np.asarray(ca * dx + cb * dy, dtype=float))

        value, _ = refine_by_doubling(rule, quad.tol, quad.max_halvings, "path quadrature")
        total += value
    return total
