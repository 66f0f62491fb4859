"""Periodic orbit search for lifted annulus maps.

A type-(q, p) orbit solves F^q(z) = z + (p, 0) in the universal cover. The
search runs damped Newton on G(z) = F^q(z) - z - (p, 0) from a seed lattice,
certifies converged solutions by their residuals, groups them into orbits,
deduplicates modulo deck translation and cyclic relabeling, and reports a
canonically sorted list so results are deterministic regardless of search
scheduling. Integrable families produce whole circles of solutions; these are
detected through the rank of I - DF^q and flagged as degenerate rather than
enumerated.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace

import numpy as np

from .action import ActionContext, action_function_values
from .errors import NonConvergentError
from .maps import Iterate, MapExpr, orbit_arrays
from .phase_space import LiftedPoint
from .util import pairwise_sum

CERTIFIED_RESIDUAL = 1e-9


@dataclass(frozen=True)
class SearchConfig:
    """Controls for the multi-start Newton search."""

    grid: int = 48
    newton_max_steps: int = 50
    newton_damping: float = 0.5
    dedup_tolerance: float = 1e-6
    boundary_margin: float = 0.0
    max_grid: int = 384
    newton_target: float = 1e-12
    singular_threshold: float = 1e-10
    degenerate_threshold: float = 1e-8
    max_backtracks: int = 8

    def __post_init__(self):
        if min(self.grid, self.newton_max_steps, self.max_grid) <= 0:
            raise ValueError("grid and step counts must be positive")
        if not (0 < self.newton_damping < 1):
            raise ValueError("damping factor must lie in (0, 1)")
        if min(self.dedup_tolerance, self.newton_target, self.singular_threshold,
               self.degenerate_threshold) <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 <= self.boundary_margin < 0.5:
            raise ValueError("boundary margin must lie in [0, 0.5)")


@dataclass(frozen=True)
class PeriodicOrbit:
    """A certified (q, p) periodic orbit.

    points[j+1] = eval_lift(points[j]) holds to machine precision; the listing
    starts at the lexicographically least projected point with its lift in
    [0, 1). residual is the max-norm of F^q(z0) - z0 - (p, 0).
    """

    q: int
    p: int
    points: tuple[LiftedPoint, ...]
    residual: float
    least_period: int
    action: float
    degenerate_flag: bool

    def __post_init__(self):
        if self.q < 1 or len(self.points) != self.q:
            raise ValueError("orbit must store exactly q points")
        if self.q % self.least_period != 0:
            raise ValueError("least period must divide the period")

    @property
    def certified(self) -> bool:
        return self.residual < CERTIFIED_RESIDUAL

    def point_array(self) -> np.ndarray:
        return np.array([[pt.xt, pt.y] for pt in self.points])

    def rotation_number(self) -> float:
        return self.p / self.q


# ---------------------------------------------------------------------------
# Newton machinery (vectorized over seed batches)
# ---------------------------------------------------------------------------

def _residual_vector(fq: MapExpr, z: np.ndarray, p: int):
    """G(z) = F^q(z) - z - (p, 0) and DF^q(z) for fq = F^q, in one fused pass."""
    xt, y, jac = fq.lift_with_jacobian(z[:, 0], z[:, 1])
    g = np.stack([xt - z[:, 0] - p, y - z[:, 1]], axis=1)
    return g, jac


def _residual_norm_only(fq: MapExpr, z: np.ndarray, p: int):
    xt, y = fq.apply_lift(z[:, 0], z[:, 1])
    return np.hypot(xt - z[:, 0] - p, y - z[:, 1])


def _newton_steps(g: np.ndarray, jac_g: np.ndarray, singular_threshold: float):
    """Solve (DF^q - I) step = -G per seed; near-singular systems fall back to
    the pseudo-inverse (minimum-norm least squares), which also handles whole
    circles of solutions gracefully."""
    a = jac_g[:, 0, 0]
    b = jac_g[:, 0, 1]
    c = jac_g[:, 1, 0]
    d = jac_g[:, 1, 1]
    det = a * d - b * c
    scale = np.maximum(np.abs(a) + np.abs(b) + np.abs(c) + np.abs(d), 1e-300)
    regular = np.abs(det) > singular_threshold * scale**2
    step = np.zeros_like(g)
    det_safe = np.where(regular, det, 1.0)
    step[:, 0] = (-g[:, 0] * d + g[:, 1] * b) / det_safe
    step[:, 1] = (-g[:, 1] * a + g[:, 0] * c) / det_safe
    if not np.all(regular):
        idx = np.nonzero(~regular)[0]
        for i in idx:
            step[i] = np.linalg.lstsq(jac_g[i], -g[i], rcond=None)[0]
    return step


def _newton_polish(m: MapExpr, q: int, p: int, seeds: np.ndarray,
                   cfg: SearchConfig) -> np.ndarray:
    """Run damped Newton from every seed; return the converged solutions."""
    fq = Iterate(m, q)
    z = np.array(seeds, dtype=float).reshape(-1, 2).copy()
    active = np.ones(len(z), dtype=bool)
    done = np.zeros(len(z), dtype=bool)
    for _ in range(cfg.newton_max_steps):
        idx = np.nonzero(active & ~done)[0]
        if idx.size == 0:
            break
        zi = z[idx]
        g, jac = _residual_vector(fq, zi, p)
        jac[:, 0, 0] -= 1.0
        jac[:, 1, 1] -= 1.0
        ni = np.linalg.norm(g, axis=1)
        newly_done = ni < cfg.newton_target
        done[idx[newly_done]] = True
        live = ~newly_done
        if not np.any(live):
            continue
        sub = idx[live]
        step = _newton_steps(g[live], jac[live], cfg.singular_threshold)
        lam = np.ones(len(sub))
        base_norm = ni[live]
        accepted = np.zeros(len(sub), dtype=bool)
        trial = np.empty_like(z[sub])
        for _ in range(cfg.max_backtracks):
            todo = ~accepted
            if not np.any(todo):
                break
            cand = z[sub][todo] + lam[todo, None] * step[todo]
            cand[:, 1] = np.clip(cand[:, 1], 0.0, 1.0)
            cand_norm = _residual_norm_only(fq, cand, p)
            improved = (cand_norm <= base_norm[todo] * (1.0 - 1e-4 * lam[todo])) | (
                cand_norm < cfg.newton_target
            )
            sel = np.nonzero(todo)[0]
            trial[sel[improved]] = cand[improved]
            accepted[sel[improved]] = True
            lam[sel[~improved]] *= cfg.newton_damping
        z[sub[accepted]] = trial[accepted]
        active[sub[~accepted]] = False
    return z[_residual_norm_only(fq, z, p) < cfg.newton_target * 10]


# ---------------------------------------------------------------------------
# orbit assembly, dedup, canonical order
# ---------------------------------------------------------------------------

def _canonical_orbit_points(m: MapExpr, z0, q: int) -> np.ndarray:
    """Start the listing at the lexicographically least projected point, with
    the starting lift reduced into [0, 1); later points are regenerated by
    applying the map so the stored chain is exactly dynamical."""
    pts = np.stack(orbit_arrays(m, z0[0], z0[1], q), axis=1)
    proj_x = pts[:, 0] % 1.0
    order = np.lexsort((pts[:, 1], proj_x))
    start = order[0]
    x_start = proj_x[start]
    return np.stack(orbit_arrays(m, x_start, pts[start, 1], q), axis=1)


def orbit_distance(a: PeriodicOrbit | np.ndarray, b: PeriodicOrbit | np.ndarray,
                   q: int | None = None, p: int | None = None) -> float:
    """Distance between two (q, p) orbits: the minimum over cyclic relabelings
    and integer deck translations of the max pointwise distance."""
    pa = a.point_array() if isinstance(a, PeriodicOrbit) else np.asarray(a)
    pb = b.point_array() if isinstance(b, PeriodicOrbit) else np.asarray(b)
    if isinstance(a, PeriodicOrbit):
        q, p = a.q, a.p
    if len(pa) != len(pb):
        return np.inf
    best = np.inf
    for s in range(q):
        roll = np.roll(np.arange(q), -s)
        bx = pb[roll, 0] + p * ((np.arange(q) + s) // q)
        by = pb[roll, 1]
        dx = pa[:, 0] - bx
        k = np.round(np.median(dx))
        d = max(np.max(np.abs(dx - k)), np.max(np.abs(pa[:, 1] - by)))
        best = min(best, float(d))
    return best


def _dedup_orbits(orbits: list[PeriodicOrbit], tol: float) -> list[PeriodicOrbit]:
    """Greedy dedup after canonical sorting; only orbits with nearby canonical
    keys need the full cyclic metric."""
    orbits = sorted(orbits, key=lambda o: (o.points[0].xt, o.points[0].y))
    kept: list[PeriodicOrbit] = []
    for orb in orbits:
        duplicate = None
        for prev in reversed(kept):
            gap = abs(orb.points[0].xt - prev.points[0].xt)
            if gap > 64 * tol and min(orb.points[0].xt, 1 - orb.points[0].xt) > 64 * tol:
                break
            if orbit_distance(prev, orb) < tol:
                duplicate = prev
                break
        if duplicate is None:
            kept.append(orb)
        elif orb.residual < duplicate.residual:
            kept[kept.index(duplicate)] = orb
    return sorted(kept, key=lambda o: (o.points[0].xt, o.points[0].y))


def _degenerate(jac_g: np.ndarray, threshold: float) -> bool:
    sv = np.linalg.svd(jac_g, compute_uv=False)
    return bool(sv[-1] < threshold)


def _least_period(pts: np.ndarray, p: int, tol: float) -> int:
    """Least d | q with z_d = z_0 + (p d / q, 0), read off the q orbit points."""
    q = len(pts)
    for d in range(1, q):
        if q % d or (p * d) % q:
            continue
        if max(abs(pts[d, 0] - pts[0, 0] - (p * d) // q), abs(pts[d, 1] - pts[0, 1])) < tol:
            return d
    return q


def _build_orbit(m: MapExpr, z0, q: int, p: int, cfg: SearchConfig,
                 ctx: ActionContext | None = None) -> PeriodicOrbit | None:
    pts = _canonical_orbit_points(m, z0, q)
    xt_q, y_q, jac = Iterate(m, q).lift_with_jacobian(pts[0, 0], pts[0, 1])
    residual = float(max(abs(xt_q - pts[0, 0] - p), abs(y_q - pts[0, 1])))
    if residual >= CERTIFIED_RESIDUAL:
        return None
    jac_g = jac - np.eye(2)
    ctx = ctx or ActionContext.default()
    vals = action_function_values(m, ctx, pts[:, 0], pts[:, 1])
    action = pairwise_sum(vals) / q
    return PeriodicOrbit(
        q=q,
        p=p,
        points=tuple(LiftedPoint(float(x), float(np.clip(y, 0.0, 1.0))) for x, y in pts),
        residual=residual,
        least_period=_least_period(pts, p, tol=1e-8),
        action=float(action),
        degenerate_flag=_degenerate(jac_g, cfg.degenerate_threshold),
    )


def _seed_lattice(n: int, margin: float) -> np.ndarray:
    xs = (np.arange(n, dtype=float) + 0.5) / n
    ys = np.linspace(margin, 1.0 - margin, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=1)


def find_periodic_orbits(m: MapExpr, q: int, p: int,
                         cfg: SearchConfig | None = None,
                         workers: int = 1) -> list[PeriodicOrbit]:
    """Multi-start damped Newton census of type-(q, p) orbits.

    Seeds are processed in deterministic batches (worker partitioning never
    changes the set of seeds or the merge order), converged solutions are
    certified at residual < 1e-9, grouped into orbits, deduplicated with the
    cyclic/deck-translation metric, and sorted canonically.
    """
    if q < 1:
        raise ValueError("period must be a positive integer")
    cfg = cfg or SearchConfig()
    seeds = _seed_lattice(cfg.grid, cfg.boundary_margin)
    chunks = np.array_split(seeds, max(1, int(workers)))
    solutions = [_newton_polish(m, q, p, chunk, cfg) for chunk in chunks if len(chunk)]
    sols = np.concatenate(solutions) if solutions else np.empty((0, 2))
    orbits = []
    for z in sols:
        orb = _build_orbit(m, z, q, p, cfg)
        if orb is not None:
            orbits.append(orb)
    return _dedup_orbits(orbits, cfg.dedup_tolerance)


def refine_orbit(m: MapExpr, seed_orbit: PeriodicOrbit, target_residual: float = 1e-12,
                 cfg: SearchConfig | None = None) -> PeriodicOrbit:
    """Newton-polish an approximate orbit down to target_residual.

    The seed must already be within residual 1e-2; anything farther is outside
    Newton's reliable basin here and is reported as non-convergent.
    """
    cfg = cfg or SearchConfig()
    cfg = replace(cfg, newton_target=min(target_residual, cfg.newton_target))
    z0 = np.array([[seed_orbit.points[0].xt, seed_orbit.points[0].y]])
    start_norm = float(_residual_norm_only(Iterate(m, seed_orbit.q), z0, seed_orbit.p)[0])
    if start_norm >= 1e-2:
        raise NonConvergentError(
            f"seed residual {start_norm:.3g} too far from a solution (need < 1e-2)")
    sols = _newton_polish(m, seed_orbit.q, seed_orbit.p, z0, cfg)
    if len(sols) == 0:
        raise NonConvergentError("Newton refinement did not converge")
    orb = _build_orbit(m, sols[0], seed_orbit.q, seed_orbit.p, cfg)
    if orb is None or orb.residual > target_residual:
        raise NonConvergentError("refined orbit missed the target residual")
    return orb


def orbit_action(m: MapExpr, ctx: ActionContext, orbit: PeriodicOrbit) -> float:
    """Average of the action function over the orbit points."""
    if not orbit.certified:
        raise ValueError("orbit must be certified before evaluating its action")
    pts = orbit.point_array()
    vals = action_function_values(m, ctx, pts[:, 0], pts[:, 1])
    return float(pairwise_sum(vals) / orbit.q)


# ---------------------------------------------------------------------------
# brute-force oracle and CSV export
# ---------------------------------------------------------------------------

def grid_scan_orbits(m: MapExpr, q: int, p: int, n: int = 2000,
                     capture_threshold: float = 5e-3,
                     cfg: SearchConfig | None = None,
                     chunk_rows: int = 64) -> list[PeriodicOrbit]:
    """Exhaustive return-map grid scan: evaluate |F^q(z) - z - (p, 0)| on an
    n x n grid, keep grid points under the capture threshold, polish each with
    Newton and dedup. Independent seeding route used to cross-check the
    lattice search."""
    cfg = cfg or SearchConfig()
    xs = (np.arange(n, dtype=float) + 0.5) / n
    ys = (np.arange(n, dtype=float) + 0.5) / n
    fq = Iterate(m, q)
    candidates = []
    for lo in range(0, n, chunk_rows):
        band = ys[lo : lo + chunk_rows]
        X, Y = np.meshgrid(xs, band, indexing="ij")
        xt, yy = fq.apply_lift(X, Y)
        hit = np.hypot(xt - X - p, yy - Y) < capture_threshold
        if np.any(hit):
            candidates.append(np.stack([X[hit], Y[hit]], axis=1))
    if not candidates:
        return []
    seeds = np.concatenate(candidates)
    sols = _newton_polish(m, q, p, seeds, cfg)
    orbits = []
    for z in sols:
        orb = _build_orbit(m, z, q, p, cfg)
        if orb is not None:
            orbits.append(orb)
    return _dedup_orbits(orbits, cfg.dedup_tolerance)


ORBIT_CSV_HEADER = "orbit_id,j,x,y,xt,q,p,residual,action"


def orbits_to_csv(orbits: list[PeriodicOrbit]) -> str:
    """One row per orbit point, frozen column order."""
    buf = io.StringIO()
    buf.write(ORBIT_CSV_HEADER + "\n")
    for oid, orb in enumerate(orbits):
        for j, pt in enumerate(orb.points):
            x = pt.xt % 1.0
            buf.write(
                f"{oid},{j},{x!r},{pt.y!r},{pt.xt!r},{orb.q},{orb.p},"
                f"{orb.residual!r},{orb.action!r}\n"
            )
    return buf.getvalue()
