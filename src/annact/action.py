"""Action functions and actions of invariant measures.

For a map f in the closed algebra and the fixed primitive beta = y dx, the
action function g solves dg = f*beta - beta and is pinned by g(x0) = 0 at the
base point. Composition obeys g_{f2 o f1} = g_2 o f_1 + g_1, so the action of
a whole expression tree is a single forward pass that accumulates closed-form
leaf contributions. The shifted primitive beta + c dx adds c times the
one-step lift displacement (minus its base-point value).

With the base point on the lower boundary every leaf contribution vanishes at
x0 identically, which makes the composition rule and the normalization
g(x0) = 0 hold simultaneously (the base-point condition required for
additivity of the mean action).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonConvergentError
from .maps import MapExpr, orbit_arrays
from .phase_space import (
    AnnulusPoint,
    CanonicalBeta,
    LiftedPoint,
    OneForm,
    PolylinePath,
    ShiftedBeta,
    _line_integrals,
)
from .quadrature import tree_field_integral
from .util import pairwise_sum

BIRKHOFF_N_ITER = 100_000
BIRKHOFF_TOL = 1e-6
# largest |F^q(z) - z - (p, 0)| at which a periodic orbit counts as certified
CERTIFIED_RESIDUAL = 1e-9


@dataclass(frozen=True)
class ActionContext:
    """Primitive 1-form choice plus base point and zero normalization there."""

    beta: OneForm = field(default_factory=CanonicalBeta)
    base_point: AnnulusPoint = field(default_factory=lambda: AnnulusPoint(0.0, 0.0))

    def __post_init__(self):
        if not isinstance(self.beta, (CanonicalBeta, ShiftedBeta)):
            raise ValueError("action machinery supports CanonicalBeta and ShiftedBeta only")

    @property
    def shift(self) -> float:
        return self.beta.c if isinstance(self.beta, ShiftedBeta) else 0.0

    @staticmethod
    def default() -> "ActionContext":
        return ActionContext()

    @staticmethod
    def shifted(c: float) -> "ActionContext":
        return ActionContext(beta=ShiftedBeta(c))


@dataclass(frozen=True)
class ActionValue:
    """A computed action with the half-width of the last convergence increment."""

    value: float
    error_estimate: float

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error estimate must be nonnegative")


@dataclass(frozen=True)
class MeasureSpec:
    """An invariant measure described by role.

    variants: boundary_lower, boundary_upper, area, orbit (a certified
    periodic orbit), empirical (Birkhoff averages from a seed point).
    """

    variant: str
    orbit: object = None
    seed: Optional[AnnulusPoint] = None
    n_iter: int = BIRKHOFF_N_ITER

    _VARIANTS = ("boundary_lower", "boundary_upper", "area", "orbit", "empirical")

    def __post_init__(self):
        if self.variant not in self._VARIANTS:
            raise ValueError(f"unknown measure variant {self.variant!r}")
        if self.variant == "orbit":
            if self.orbit is None or not getattr(self.orbit, "points", None):
                raise ValueError("orbit measure needs a periodic orbit")
            if getattr(self.orbit, "residual", np.inf) >= CERTIFIED_RESIDUAL:
                raise ValueError("orbit measure requires a certified orbit "
                                 f"(residual < {CERTIFIED_RESIDUAL:g})")
        if self.variant == "empirical":
            if self.seed is None:
                raise ValueError("empirical measure needs a seed point")
            if self.n_iter < 1000:
                raise ValueError("empirical measure needs n_iter >= 1000")

    @staticmethod
    def boundary_lower() -> "MeasureSpec":
        return MeasureSpec("boundary_lower")

    @staticmethod
    def boundary_upper() -> "MeasureSpec":
        return MeasureSpec("boundary_upper")

    @staticmethod
    def area() -> "MeasureSpec":
        return MeasureSpec("area")

    @staticmethod
    def from_orbit(orbit) -> "MeasureSpec":
        return MeasureSpec("orbit", orbit=orbit)

    @staticmethod
    def empirical(seed: AnnulusPoint, n_iter: int = BIRKHOFF_N_ITER) -> "MeasureSpec":
        return MeasureSpec("empirical", seed=seed, n_iter=n_iter)

    def describe(self) -> str:
        if self.variant == "orbit":
            return f"orbit(q={self.orbit.q},p={self.orbit.p})"
        if self.variant == "empirical":
            return f"empirical(seed=({self.seed.x},{self.seed.y}),n={self.n_iter})"
        return self.variant


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def action_values_raw(m: MapExpr, x, y):
    """Un-normalized action function of m with beta = y dx, vectorized.

    One forward pass: accumulate each leaf's closed-form action at the point
    the orbit-of-factors has reached, then advance through the leaf.
    """
    xt = np.asarray(x, dtype=float)
    yy = np.asarray(y, dtype=float)
    total = np.zeros(np.broadcast(xt, yy).shape)
    for leaf in m.leaves():
        total = total + leaf.action(xt, yy)
        xt, yy, _ = leaf.step(xt, yy)
    return total


def displacement_values(m: MapExpr, x, y):
    """One-step x-lift displacement of m, a well-defined field on the annulus."""
    xt = np.asarray(x, dtype=float)
    yy = np.asarray(y, dtype=float)
    xt2, _ = m.apply_lift(xt, yy)
    return xt2 - xt


def action_function_values(m: MapExpr, ctx: ActionContext, x, y):
    """Vectorized normalized action function under ctx (g or its shifted variant)."""
    x0, y0 = ctx.base_point.x, ctx.base_point.y
    vals = action_values_raw(m, x, y) - action_values_raw(m, x0, y0)
    c = ctx.shift
    if c != 0.0:
        vals = vals + c * (displacement_values(m, x, y) - displacement_values(m, x0, y0))
    return vals


def action_function(m: MapExpr, ctx: ActionContext, p: AnnulusPoint) -> float:
    """g(p) with g(x0) = 0, for the primitive chosen in ctx."""
    return float(action_function_values(m, ctx, p.x, p.y))


# ---------------------------------------------------------------------------
# path-integral route (cross-check of the closed forms)
# ---------------------------------------------------------------------------

def _bump_stage_margins(m: MapExpr, xt, y):
    """Kink margins (r - R for a disk twist) of every leaf that has one,
    evaluated along the forward pass of the factor orbit. The pullback
    integrand of the tree is smooth except where one of these margins changes
    sign."""
    xt = np.asarray(xt, dtype=float)
    yy = np.asarray(y, dtype=float)
    margins = []
    for leaf in m.leaves():
        margin = leaf.kink_margin(xt, yy)
        if margin is not None:
            margins.append(margin)
        xt, yy, _ = leaf.step(xt, yy)
    return margins


def _point_stage_margin(m: MapExpr, xt: float, y: float, stage: int) -> float:
    """The stage-th margin of _bump_stage_margins at one point, on the point
    pass: point_margin and apply_point round as kink_margin and step do."""
    for leaf in m.leaves():
        margin = leaf.point_margin(xt, y)
        if margin is not None:
            if stage == 0:
                return margin
            stage -= 1
        xt, y = leaf.apply_point(xt, y)
    raise IndexError("no such kink stage")


def _path_breakpoints(m: MapExpr, vertices, scan: int = 512) -> list[list[float]]:
    """For each segment of the polyline through vertices, the parameter
    values in (0, 1) where it crosses the support circle of some disk-twist
    stage: one sign scan of _bump_stage_margins over the scan + 1 points of
    every segment, then a bisection of each sign change on the point pass."""
    segs = [(a.xt, a.y, b.xt - a.xt, b.y - a.y) for a, b in zip(vertices, vertices[1:])]
    ax, ay, dx, dy = (np.array(col)[:, None] for col in zip(*segs))
    ts = np.linspace(0.0, 1.0, scan + 1)
    margins = _bump_stage_margins(m, (ax + ts * dx).ravel(), np.clip(ay + ts * dy, 0.0, 1.0).ravel())
    cuts: list[list[float]] = [[] for _ in segs]
    for stage, vals in enumerate(margins):
        vals = vals.reshape(len(segs), scan + 1)
        for k, i in zip(*np.nonzero(np.sign(vals[:, :-1]) * np.sign(vals[:, 1:]) < 0)):
            cuts[k].append(_bisect_crossing(m, segs[k], stage, float(ts[i]), float(ts[i + 1])))
    return [sorted(t for t in c if 1e-12 < t < 1.0 - 1e-12) for c in cuts]


def _bisect_crossing(m: MapExpr, seg, stage: int, lo: float, hi: float) -> float:
    """The parameter in [lo, hi] where the stage-th margin changes sign along
    the segment seg = (a.xt, a.y, dx, dy)."""
    xt0, y0, dx, dy = seg

    def margin(t):
        return _point_stage_margin(m, xt0 + t * dx, min(max(y0 + t * dy, 0.0), 1.0), stage)

    flo = margin(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = margin(mid)
        # a probe that moves neither bound leaves (lo, hi, flo) as they
        # were, so every later probe would repeat it
        if flo * fm <= 0:
            if mid == hi:
                break
            hi = mid
        elif mid == lo:
            break
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


class _PullbackForm(OneForm):
    """f*beta - beta for the primitive beta = (y + c) dx, at lifted points."""

    def __init__(self, m: MapExpr, c: float):
        self.m, self.c = m, c

    def coefficients(self, xt, y):
        jac = self.m.jacobian(xt, y)
        w = self.m.apply_lift(xt, y)[1] + self.c
        return w * jac[..., 0, 0] - (y + self.c), w * jac[..., 0, 1]


def _cut_path(m: MapExpr, path: PolylinePath) -> PolylinePath:
    """path with a vertex at each support-circle crossing of its segments."""
    vertices = [path.vertices[0]]
    for a, b, ts in zip(path.vertices, path.vertices[1:], _path_breakpoints(m, path.vertices)):
        dx, dy = b.xt - a.xt, b.y - a.y
        cuts = [LiftedPoint(a.xt + t * dx, min(max(a.y + t * dy, 0.0), 1.0)) for t in ts]
        for v in cuts + [b]:  # coincident cuts of several stages give one vertex
            if v != vertices[-1]:
                vertices.append(v)
    return PolylinePath(tuple(vertices), path.refinement)


def _path_actions(m: MapExpr, ctx: ActionContext, p: AnnulusPoint,
                  paths: list[PolylinePath | None]) -> list[float]:
    """g(p) along each path (None: the straight lifted segment from x0 to p),
    every path cut first and then all integrated together by _line_integrals."""
    routes = []
    for path in paths:
        if path is None:
            if p == ctx.base_point:
                routes.append(None)
                continue
            path = PolylinePath.straight(ctx.base_point.lift(), p.lift())
        for end, point in ((path.vertices[0], ctx.base_point), (path.vertices[-1], p)):
            shift = end.xt - point.x
            if abs(shift - round(shift)) > 1e-12 or abs(end.y - point.y) > 1e-12:
                raise ValueError(f"path end ({end.xt}, {end.y}) is not a lift of "
                                 f"({point.x}, {point.y})")
        routes.append(_cut_path(m, path))
    values = iter(_line_integrals(_PullbackForm(m, ctx.shift), [r for r in routes if r is not None]))
    return [0.0 if r is None else next(values) for r in routes]


def action_function_via_path(m: MapExpr, ctx: ActionContext, p: AnnulusPoint,
                             path: PolylinePath | None = None) -> float:
    """g(p) by integrating f*beta - beta along a lifted path from the base point.

    Default path: the straight lifted segment from x0 to p (sheet 0). The
    integrand is closed, so any path with the same endpoint lifts gives the
    same value; path_independence_defect measures exactly that. A given path
    must start at a lift of the base point and end at a lift of p, within
    1e-12 up to whole turns in x, or ValueError is raised. Each segment gets
    a vertex where it crosses a disk-twist support circle, because the
    integrand is only C^1 there and quadrature would lose its order; one
    scan of the kink margins over all segments finds the crossings. Then
    line_integral refines every segment at once, one integrand call per
    doubling round.
    """
    return _path_actions(m, ctx, p, [path])[0]


def path_independence_defect(m: MapExpr, ctx: ActionContext, p: AnnulusPoint,
                             alternate_path: PolylinePath) -> float:
    """|g via the straight path - g via alternate_path|; closedness check.

    Both paths are cut first and then integrated together, so one integrand
    call per doubling round serves the segments of both; each value is the
    one action_function_via_path gives on its own.
    """
    straight, alternate = _path_actions(m, ctx, p, [None, alternate_path])
    return abs(straight - alternate)


# ---------------------------------------------------------------------------
# mean action (Calabi invariant) and measure actions
# ---------------------------------------------------------------------------

def calabi(m: MapExpr, ctx: ActionContext | None = None) -> ActionValue:
    """Mean action of m: the integral of the normalized action function over
    the unit-area annulus, from the exact leaf means, with error 0."""
    ctx = ctx or ActionContext.default()
    value, disp = tree_field_integral(m)
    x0, y0 = ctx.base_point.x, ctx.base_point.y
    value -= float(action_values_raw(m, x0, y0))
    c = ctx.shift
    if c != 0.0:
        value += c * (disp - float(displacement_values(m, x0, y0)))
    return ActionValue(value, 0.0)


def disk_twist_mean_action(profile) -> ActionValue:
    """Mean action of the radial twist (r, theta) -> (r, theta + phi(r)) on the
    unit disk, in the disk's own conventions: normalized area form
    (1/pi) r dr dtheta with primitive (1/(2 pi)) r^2 dtheta.

    The action function is g(r) = (1/(2 pi)) * integral_1^r s^2 phi'(s) ds,
    i.e. -action_radial(r)/pi in this library's chart normalization, and the
    mean action is 2 * integral_0^1 r g(r) dr = (2/pi) * profile.moment(), by
    parts, exact with error 0. For decreasing profiles with phi(1) = 0 the
    result is strictly positive: the disk orientation is opposite to the
    annulus embedding's dy ^ dx.
    """
    if abs(profile.R - 1.0) > 1e-12:
        raise ValueError("disk convention requires a profile supported on [0, 1]")
    return ActionValue(2.0 * profile.moment() / np.pi, 0.0)


def birkhoff_average(values: np.ndarray) -> tuple[float, float]:
    """Cesaro mean of a sample sequence with a tail-stability error estimate:
    the max deviation of the means at n/2 and 3n/4 from the mean at n."""
    vals = np.asarray(values, dtype=float).ravel()
    n = vals.size
    if n < 4:
        raise ValueError("need at least 4 samples")
    mean_n = pairwise_sum(vals) / n
    est = [pairwise_sum(vals[:k]) / k for k in (n // 2, (3 * n) // 4)]
    err = max(abs(e - mean_n) for e in est)
    return mean_n, err


def measure_action(m: MapExpr, ctx: ActionContext, mu: MeasureSpec,
                   tol: float = BIRKHOFF_TOL) -> ActionValue:
    """Action of an invariant measure: integral of the action function.

    Boundary actions are exact, with error 0: every leaf rotates each
    boundary circle rigidly and adds a constant there, so g is constant on the
    boundary and equals its Birkhoff mean (n_iter is not used). Empirical
    measures use Birkhoff averages along true orbits, the first n_iter points
    of empirical_orbit, which the rotation number reuses (raising
    NonConvergentError when the tail fluctuation stays above tol at n_iter);
    the area measure delegates to calabi, exact with error 0; orbit
    measures are exact finite averages.
    """
    if mu.variant == "area":
        return calabi(m, ctx)
    if mu.variant in ("boundary_lower", "boundary_upper"):
        y_b = 0.0 if mu.variant == "boundary_lower" else 1.0
        return ActionValue(float(action_function_values(m, ctx, 0.0, y_b)), 0.0)
    if mu.variant == "orbit":
        pts = mu.orbit.points
        xs = np.array([pt.xt for pt in pts])
        ys = np.array([pt.y for pt in pts])
        vals = action_function_values(m, ctx, xs, ys)
        return ActionValue(pairwise_sum(vals) / len(pts), 0.0)
    if mu.variant == "empirical":
        xs, ys = _orbit_arrays(m, mu.seed, mu.n_iter)
        vals = action_function_values(m, ctx, xs, ys)
        mean, err = birkhoff_average(vals)
        if err > tol:
            raise NonConvergentError(
                f"empirical Birkhoff average fluctuation {err:.3g} above {tol} "
                f"after {mu.n_iter} iterates", value=mean, increment=err)
        return ActionValue(mean, err)
    raise ValueError(f"unknown measure variant {mu.variant!r}")


@functools.lru_cache(maxsize=2)
def empirical_orbit(m: MapExpr, seed: AnnulusPoint, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The scalar-start orbit z_0 .. z_n of seed (n + 1 points) as read-only
    arrays, shared by an empirical measure's action (the mean of g over the
    first n points) and its rotation number (the mean of the n steps).

    The memo keeps the last two orbits, at 32 (n + 1) bytes each (0.64 MB
    at n = 2e4, 3.2 MB at the default n = 1e5). verify_theorem reads each
    measure's action and then its rotation number, so one slot would serve
    it; the second keeps both orbits of two empirical measures for a caller
    that reads both actions first. A map hashes by identity, so only
    the same map object hits; an equal map built again steps its orbit anew.
    """
    xs, ys = orbit_arrays(m, seed.x, seed.y, n + 1)
    xs.flags.writeable = False
    ys.flags.writeable = False
    return xs, ys


def _orbit_arrays(m: MapExpr, seed: AnnulusPoint, n: int):
    xs, ys = empirical_orbit(m, seed, n)
    return xs[:n], ys[:n]


def additivity_defect(m1: MapExpr, m2: MapExpr, ctx: ActionContext | None = None) -> float:
    """|A(m2 o m1) - A(m1) - A(m2)| with the base-point convention built in."""
    from .maps import Compose

    ctx = ctx or ActionContext.default()
    both = calabi(Compose(m2, m1), ctx)
    first = calabi(m1, ctx)
    second = calabi(m2, ctx)
    return abs(both.value - first.value - second.value)


def shifted_action_difference(m: MapExpr, mu1: MeasureSpec, mu2: MeasureSpec,
                              c: float) -> tuple[float, float]:
    """Action difference A(mu1) - A(mu2) under beta and under beta + c dx.

    The contract (independence of the primitive up to rotation terms) is
    shifted - base = c * (rho(mu1) - rho(mu2)).
    """
    base_ctx = ActionContext.default()
    shift_ctx = ActionContext.shifted(c)
    base = measure_action(m, base_ctx, mu1).value - measure_action(m, base_ctx, mu2).value
    shifted = measure_action(m, shift_ctx, mu1).value - measure_action(m, shift_ctx, mu2).value
    return base, shifted
