"""Periodic orbit search for lifted annulus maps.

A type-(q, p) orbit solves F^q(z) = z + (p, 0) in the universal cover. The
search runs damped Newton on G(z) = F^q(z) - z - (p, 0) from a seed lattice,
tiled once per (q, p) so that one run polishes several windings and periods
(each row iterated to its own q by maps.RowIterate). It then works on each
(q, p)'s converged solutions as arrays: it canonicalises their
orbits, certifies them by their residuals and deduplicates them modulo deck
translation and cyclic relabeling. The dedup has two array stages: stage 1
collapses the many Newton copies of one chain (starts in one tol / 10 cell,
each confirmed within tol of the group's best row in one batched distance
call), and stage 2 runs the greedy window scan over one row per copy. Stage 2
is still that greedy window, so it keeps both listings of an orbit through
x = 0 (the known wrap duplicates). Only then does it build one PeriodicOrbit
per distinct orbit, in canonical order, so results are deterministic
regardless of search scheduling. Integrable families produce whole circles of
solutions; these are detected through the rank of I - DF^q and flagged as
degenerate rather than enumerated.
"""

from __future__ import annotations

import io
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .action import CERTIFIED_RESIDUAL, ActionContext, action_function_values
from .errors import NonConvergentError
from .maps import Iterate, MapExpr, RowIterate, orbit_arrays
from .phase_space import LiftedPoint
from .util import pairwise_sum

# rows of the return-map grid evaluated per batch in grid_scan_orbits
SCAN_CHUNK_ROWS = 64
# an orbit whose I - DF^q has a smaller singular value than this is degenerate
DEGENERATE_SINGULAR_VALUE = 1e-8
# damped Newton: at most this many steps per seed, each trying the damping
# levels 1, d, d^2, ... (MAX_BACKTRACKS of them, d = NEWTON_DAMPING) and
# stopping a seed whose residual falls below NEWTON_TARGET
NEWTON_MAX_STEPS = 50
NEWTON_DAMPING = 0.5
MAX_BACKTRACKS = 8
NEWTON_TARGET = 1e-12
# two orbits closer than this (orbit_distance) are one orbit
DEDUP_TOLERANCE = 1e-6
# grid_scan_orbits polishes the grid points whose F^q residual is below this
SCAN_CAPTURE = 5e-3


@dataclass(frozen=True)
class SearchConfig:
    """The census seed lattice. grid is the side of the lattice that
    find_periodic_orbits starts Newton from (grid^2 seeds per winding).
    max_grid caps verify_theorem's census: it doubles the grid, up to
    max_grid, for each period that has fewer than two distinct orbits, so
    max_grid may not lie below grid."""

    grid: int = 48
    max_grid: int = 384

    def __post_init__(self):
        if min(self.grid, self.max_grid) <= 0:
            raise ValueError("grid and max_grid must be positive")
        if self.max_grid < self.grid:
            raise ValueError(f"max_grid ({self.max_grid}) must not lie below grid ({self.grid})")


@dataclass(frozen=True)
class PeriodicOrbit:
    """A certified (q, p) periodic orbit.

    m.apply_point(pt.xt, pt.y) of pt = points[j] is points[j+1] to machine
    precision; the listing starts at the lexicographically least projected
    point with its lift in [0, 1). residual is the max-norm of
    F^q(z0) - z0 - (p, 0). action is the mean of the action function over
    the points, always in the canonical context (beta = y dx, base point
    (0, 0)).
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


# ---------------------------------------------------------------------------
# Newton machinery (vectorized over seed batches)
# ---------------------------------------------------------------------------

def _residual_norm_only(fq: MapExpr, z: np.ndarray, p: int):
    xt, y = fq.apply_lift(z[:, 0], z[:, 1])
    return np.hypot(xt - z[:, 0] - p, y - z[:, 1])


def _newton_steps(g: np.ndarray, jac_g: np.ndarray):
    """Solve (DF^q - I) step = -G per seed as the minimum-norm least-squares
    solution, with numpy lstsq's default cutoff (a singular value at most
    2 eps sigma_1 counts as zero): the inverse while sigma_2 > 2 eps sigma_1,
    else the rank-1 pseudo-inverse J^T / |J|_F^2, and a zero step for J = 0.
    The pseudo-inverse also handles whole circles of solutions gracefully."""
    a, b, c, d = jac_g[:, 0, 0], jac_g[:, 0, 1], jac_g[:, 1, 0], jac_g[:, 1, 1]
    det = a * d - b * c
    frob2 = a * a + b * b + c * c + d * d
    # sigma_1^2 and sigma_2^2 are the roots of s^2 - frob2 s + det^2
    s1sq = 0.5 * (frob2 + np.sqrt(np.maximum(frob2 * frob2 - 4.0 * det * det, 0.0)))
    full = np.abs(det) > 2.0 * np.finfo(float).eps * s1sq
    step = np.empty_like(g)
    det_safe = np.where(full, det, 1.0)
    step[:, 0] = (-g[:, 0] * d + g[:, 1] * b) / det_safe
    step[:, 1] = (-g[:, 1] * a + g[:, 0] * c) / det_safe
    # rank 1, or J = 0, where J^T g = 0 makes the step zero
    low = ~full
    jt_g = np.einsum("nji,nj->ni", jac_g[low], g[low])
    step[low] = -jt_g / np.maximum(frob2[low], np.finfo(float).tiny)[:, None]
    return step


def _newton_polish(m: MapExpr, q: int | np.ndarray, p: int | np.ndarray, seeds: np.ndarray,
                   target: float = NEWTON_TARGET) -> tuple[np.ndarray, np.ndarray]:
    """Run damped Newton from every seed; return the converged solutions and
    their windings, in seed order.

    p is one winding for all seeds or an array of one winding per seed, and
    q likewise one period or an array of one period per seed, so the seeds
    of several windings and periods share every batched call; each row is
    iterated its own q times (maps.RowIterate). With per-row periods the
    second output holds the (q, p) row of each solution. Each Newton step and
    the final convergence filter work on blocks of at most the largest
    period's seed count, so merging periods makes no array larger than a
    one-period run does. A row stops once its residual is below target and
    has converged if it ends below 10 target. The line search tries the
    damping levels 1, d, d^2, ... (MAX_BACKTRACKS of them, d = NEWTON_DAMPING)
    in order and accepts a row's first level that lowers the residual
    enough; it tries as many levels per residual
    call as keeps levels x rows within the block, so no call is larger than
    the first Jacobian pass and each row takes the step a one-level-at-a-time
    search would take."""
    z = np.array(seeds, dtype=float).reshape(-1, 2).copy()
    p = np.broadcast_to(p, len(z))
    q_rows = np.broadcast_to(q, len(z))
    block = int(np.bincount(q_rows).max(initial=1))
    levels = np.cumprod([1.0] + [NEWTON_DAMPING] * MAX_BACKTRACKS)[:MAX_BACKTRACKS]
    active = np.ones(len(z), dtype=bool)
    done = np.zeros(len(z), dtype=bool)

    def newton_step(idx):
        zi = z[idx]
        # G(z) = F^q(z) - z - (p, 0) and DG = DF^q - I, in one fused pass
        xt, y, jac = RowIterate(m, q_rows[idx]).lift_with_jacobian(zi[:, 0], zi[:, 1])
        g = np.stack([xt - zi[:, 0] - p[idx], y - zi[:, 1]], axis=1)
        jac = jac - np.eye(2)
        # the norm of _residual_norm_only, so the line search compares like with like
        ni = np.hypot(g[:, 0], g[:, 1])
        newly_done = ni < target
        done[idx[newly_done]] = True
        live = ~newly_done
        if not np.any(live):
            return
        sub = idx[live]
        step = _newton_steps(g[live], jac[live])
        # a zero step (DF^q = I) leaves z where it is, so no trial can pass
        moving = np.any(step != 0.0, axis=1)
        active[sub[~moving]] = False
        sub, step, base_norm = sub[moving], step[moving], ni[live][moving]
        k = 0
        while sub.size and k < len(levels):
            lam = levels[k : k + max(1, block // sub.size)]
            cand = z[sub] + lam[:, None, None] * step  # (level, row, 2)
            cand[..., 1] = np.clip(cand[..., 1], 0.0, 1.0)
            cand_norm = _residual_norm_only(
                RowIterate(m, np.tile(q_rows[sub], len(lam))), cand.reshape(-1, 2),
                np.tile(p[sub], len(lam))).reshape(len(lam), -1)
            improved = (cand_norm <= base_norm * (1.0 - 1e-4 * lam[:, None])) | (
                cand_norm < target
            )
            hit = improved.any(axis=0)
            z[sub[hit]] = cand[improved.argmax(axis=0)[hit], np.flatnonzero(hit)]
            sub, step, base_norm = sub[~hit], step[~hit], base_norm[~hit]
            k += len(lam)
        active[sub] = False

    for _ in range(NEWTON_MAX_STEPS):
        todo = np.nonzero(active & ~done)[0]
        if todo.size == 0:
            break
        for lo in range(0, todo.size, block):
            newton_step(todo[lo:lo + block])
    ok = np.empty(len(z), dtype=bool)
    for lo in range(0, len(z), block):
        rows = slice(lo, lo + block)
        norm = _residual_norm_only(RowIterate(m, q_rows[rows]), z[rows], p[rows])
        ok[rows] = norm < target * 10
    return z[ok], np.stack([q_rows[ok], p[ok]], axis=1) if np.ndim(q) else p[ok]


# ---------------------------------------------------------------------------
# orbit assembly: canonicalise, certify, dedup, then build the kept orbits
# ---------------------------------------------------------------------------

def _cyclic_distance(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """orbit_distance between (..., q, 2) point arrays a and b, broadcast."""
    q = a.shape[-2]
    idx = np.arange(q)[:, None] + np.arange(q)  # [shift, j] -> j + shift
    rolled = b[..., idx % q, :]
    dx = a[..., None, :, 0] - (rolled[..., 0] + p * (idx // q))
    # the median over the points, as np.median gives it for finite dx
    s = np.sort(dx, axis=-1)
    h = q // 2
    mid = s[..., h:h + 1] if q % 2 else (s[..., h - 1:h] + s[..., h:h + 1]) / 2.0
    k = np.round(mid)
    dy = np.abs(a[..., None, :, 1] - rolled[..., 1]).max(axis=-1)
    return np.maximum(np.abs(dx - k).max(axis=-1), dy).min(axis=-1)


def orbit_distance(a: PeriodicOrbit | np.ndarray, b: PeriodicOrbit | np.ndarray,
                   *, p: int | None = None) -> float:
    """Distance between two (q, p) orbits: the minimum over cyclic relabelings
    and integer deck translations of the max pointwise distance.

    p comes from whichever argument is a PeriodicOrbit (a first); two point
    arrays need it given as the keyword p."""
    for o in (b, a):
        if isinstance(o, PeriodicOrbit):
            p = o.p
    if p is None:
        raise ValueError("orbit_distance of two point arrays needs the winding p")
    pa, pb = (o.point_array() if isinstance(o, PeriodicOrbit) else np.asarray(o) for o in (a, b))
    if len(pa) != len(pb):
        return np.inf
    return float(_cyclic_distance(pa, pb, p))


def _dedup_indices(pts: np.ndarray, residual: np.ndarray, p: int, tol: float) -> np.ndarray:
    """Indices of the distinct orbits among (N, q, 2) points, in canonical
    order, in two stages.

    Stage 1 collapses copies of one chain: rows whose starts round to the
    same tol / 10 cell form a group, represented by the row the greedy scan
    would keep (the lowest residual, the earliest in canonical order on a
    tie). One array pass confirms each member within tol of its
    representative; a member that fails goes on as its own candidate.

    Stage 2 is the greedy scan over the representatives and the unconfirmed
    rows, in canonical order: it compares each with the kept ones, latest
    first, while their start x is within 64 * tol (all of them if its own
    start is within 64 * tol of x = 0 or 1); a duplicate replaces its match
    when its residual is lower. Two listings of one orbit from different
    start points (a point at x = 0 projects to 0 on one and to 1 - eps on
    the other) can fall outside that window, and both are kept."""
    if len(pts) == 0:
        return np.zeros(0, dtype=int)
    x0, y0 = pts[:, 0, 0], pts[:, 0, 1]
    order = np.lexsort((y0, x0))
    _, group = np.unique(np.round(pts[:, 0] / (tol / 10)), axis=0, return_inverse=True)
    group = group.ravel()  # numpy 2.0.0 returns it as (N, 1)
    # stable, so a residual tie keeps canonical order
    by_group = order[np.lexsort((residual[order], group[order]))]
    first = np.r_[True, group[by_group[1:]] != group[by_group[:-1]]]
    rep = by_group[first][group]
    # confirm in chunks of about 2^18 (row, shift, point) entries
    step = max(1, 2**18 // pts.shape[1] ** 2)
    confirmed = np.concatenate([
        _cyclic_distance(pts[rep[lo:lo + step]], pts[lo:lo + step], p) < tol
        for lo in range(0, len(pts), step)
    ])
    candidate = (rep == np.arange(len(pts))) | ~confirmed
    kept: list[int] = []
    for i in order[candidate[order]]:
        window = np.array(kept[::-1], dtype=int)
        if min(x0[i], 1 - x0[i]) > 64 * tol:
            far = np.abs(x0[i] - x0[window]) > 64 * tol
            window = window[~np.logical_or.accumulate(far)]
        hit = np.flatnonzero(_cyclic_distance(pts[window], pts[i], p) < tol)
        if hit.size == 0:
            kept.append(i)
        elif residual[i] < residual[window[hit[0]]]:
            kept[kept.index(window[hit[0]])] = i
    kept = np.array(kept, dtype=int)
    return kept[np.lexsort((y0[kept], x0[kept]))]


def _orbits_from_solutions(m: MapExpr, q: int, p: int, sols: np.ndarray) -> list[PeriodicOrbit]:
    """Distinct certified orbits through the (N, 2) converged Newton solutions,
    worked as arrays; a PeriodicOrbit is built only for each distinct orbit.
    Each chain is listed with q + 1 points, and its last step certifies it;
    only the kept orbits take DF^q, for the degeneracy flag."""
    # canonicalise: list each orbit from its lexicographically least projected
    # point, with that lift reduced into [0, 1), regenerating the later points
    # by the map so the stored chain is exactly dynamical
    xs, ys = orbit_arrays(m, sols[:, 0], sols[:, 1], q)
    proj_x, cols = xs % 1.0, np.arange(len(sols))
    start = np.lexsort((ys, proj_x), axis=0)[0]
    xs, ys = orbit_arrays(m, proj_x[start, cols], ys[start, cols], q + 1)
    pts = np.stack([xs[:q].T, ys[:q].T], axis=-1)
    # certify by the residual of F^q at the start point
    residual = np.maximum(np.abs(xs[q] - xs[0] - p), np.abs(ys[q] - ys[0]))
    ok = residual < CERTIFIED_RESIDUAL
    pts, residual = pts[ok], residual[ok]
    stored = np.stack([pts[..., 0], np.clip(pts[..., 1], 0.0, 1.0)], axis=-1)
    keep = _dedup_indices(stored, residual, p, DEDUP_TOLERANCE)
    # build the kept orbits
    pts = pts[keep]
    vals = action_function_values(m, ActionContext.default(), pts[..., 0], pts[..., 1])
    jac = Iterate(m, q).jacobian(pts[:, 0, 0], pts[:, 0, 1])
    smallest_sv = np.linalg.svd(jac - np.eye(2), compute_uv=False)[:, -1]
    least_period = np.full(len(keep), q)
    for d in range(q - 1, 0, -1):  # the least d | q with z_d = z_0 + (p d / q, 0)
        if q % d == 0 == (p * d) % q:
            lift_gap = np.abs(pts[:, d] - pts[:, 0] - [(p * d) // q, 0]).max(axis=-1)
            least_period[lift_gap < 1e-8] = d
    return [
        PeriodicOrbit(
            q=q,
            p=p,
            points=tuple(LiftedPoint(float(x), float(y)) for x, y in stored[i]),
            residual=float(residual[i]),
            least_period=int(least_period[j]),
            action=float(pairwise_sum(vals[j]) / q),
            degenerate_flag=bool(smallest_sv[j] < DEGENERATE_SINGULAR_VALUE),
        )
        for j, i in enumerate(keep)
    ]


def _seed_lattice(n: int) -> np.ndarray:
    xs = (np.arange(n, dtype=float) + 0.5) / n
    ys = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=1)


def find_periodic_orbits(m: MapExpr, q: int | Sequence[int],
                         p: int | Sequence[int] | Sequence[int | Sequence[int]],
                         cfg: SearchConfig | None = None) -> list[PeriodicOrbit]:
    """Multi-start damped Newton census of type-(q, p) orbits.

    p is one winding or a sequence of windings. q may also be a sequence of
    periods; p is then one entry per period, each a winding or a sequence of
    windings. The seed lattice is tiled once per (q, p) and one Newton run
    polishes all the rows together, each row iterated to its own q. Each
    (q, p)'s converged solutions are then canonicalised as arrays, certified
    at residual < 1e-9 and deduplicated with the cyclic/deck-translation
    metric, and one orbit is built per distinct solution, in canonical order.
    The orbits come back as one list in the given q order, then p order; each
    carries its own q and p, so the list equals the concatenation of the
    single-period censuses. A period or a period's winding given twice is
    rejected.
    """
    qs = list(q) if np.ndim(q) else [q]
    pss = [list(w) if np.ndim(w) else [w] for w in (p if np.ndim(q) else [p])]
    if len(pss) != len(qs):
        raise ValueError(f"give one entry of windings per period, got {len(pss)} for {len(qs)}")
    if min(qs, default=1) < 1:
        raise ValueError("period must be a positive integer")
    if len(set(qs)) < len(qs):
        raise ValueError(f"periods q must not repeat, got {qs}")
    for ps in pss:
        if len(set(ps)) < len(ps):
            raise ValueError(f"windings p must not repeat, got {ps}")
    cfg = cfg or SearchConfig()
    lattice = _seed_lattice(cfg.grid)
    row_p = np.repeat([w for ps in pss for w in ps], len(lattice))
    seeds = np.tile(lattice, (len(row_p) // len(lattice), 1))
    # int32 periods: the polish gathers this per-row array on every call
    row_q = np.repeat(np.array(qs, dtype=np.int32), [len(ps) * len(lattice) for ps in pss])
    sols, tags = _newton_polish(m, row_q, row_p, seeds)
    sol_q, sol_p = tags.T
    return [o for k, ps in zip(qs, pss) for w in ps
            for o in _orbits_from_solutions(m, k, w, sols[(sol_q == k) & (sol_p == w)])]


def refine_orbit(m: MapExpr, seed_orbit: PeriodicOrbit,
                 target_residual: float = NEWTON_TARGET) -> PeriodicOrbit:
    """Newton-polish an approximate orbit down to target_residual.

    The seed must already be within residual 1e-2; anything farther is outside
    Newton's reliable basin here and is reported as non-convergent. A polished
    orbit that certifies but stays above target_residual raises
    NonConvergentError with that orbit as its value. Newton stops once the
    residual is below the smaller of target_residual and NEWTON_TARGET.
    """
    z0 = np.array([[seed_orbit.points[0].xt, seed_orbit.points[0].y]])
    start_norm = float(_residual_norm_only(Iterate(m, seed_orbit.q), z0, seed_orbit.p)[0])
    if start_norm >= 1e-2:
        raise NonConvergentError(
            f"seed residual {start_norm:.3g} too far from a solution (need < 1e-2)")
    sols, _ = _newton_polish(m, seed_orbit.q, seed_orbit.p, z0,
                             min(target_residual, NEWTON_TARGET))
    if len(sols) == 0:
        raise NonConvergentError("Newton refinement did not converge")
    orbs = _orbits_from_solutions(m, seed_orbit.q, seed_orbit.p, sols[:1])
    if not orbs:
        raise NonConvergentError(
            f"refined orbit failed certification (residual >= {CERTIFIED_RESIDUAL:g})")
    if orbs[0].residual > target_residual:
        raise NonConvergentError(
            f"refined orbit missed the target residual: reached {orbs[0].residual:.3g}, "
            f"target {target_residual:.3g}", value=orbs[0])
    return orbs[0]


# ---------------------------------------------------------------------------
# brute-force oracle and CSV export
# ---------------------------------------------------------------------------

def grid_scan_orbits(m: MapExpr, q: int, p: int, n: int = 2000) -> list[PeriodicOrbit]:
    """Exhaustive return-map grid scan: evaluate |F^q(z) - z - (p, 0)| on an
    n x n grid, keep grid points under SCAN_CAPTURE, polish each with
    Newton, certify and dedup. Independent seeding route used to cross-check the
    lattice search."""
    xs = (np.arange(n, dtype=float) + 0.5) / n
    ys = (np.arange(n, dtype=float) + 0.5) / n
    fq = Iterate(m, q)
    candidates = []
    for lo in range(0, n, SCAN_CHUNK_ROWS):
        band = ys[lo : lo + SCAN_CHUNK_ROWS]
        X, Y = np.meshgrid(xs, band, indexing="ij")
        xt, yy = fq.apply_lift(X, Y)
        hit = np.hypot(xt - X - p, yy - Y) < SCAN_CAPTURE
        candidates.append(np.stack([X[hit], Y[hit]], axis=1))
    sols, _ = _newton_polish(m, q, p, np.concatenate(candidates))
    return _orbits_from_solutions(m, q, p, sols)


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
