"""Theorem-verification driver.

Given a map and two invariant measures, compute the action gap Delta, derive
the period threshold (every integer q > 1/Delta must carry at least two
distinct periodic orbits), run the orbit census over a windowed range of lift
windings for each q, and report PASS / FAIL / INCONCLUSIVE per period. The
censuses of all periods share one Newton run per seed grid; a period with
fewer than two orbits is searched again at the doubled grid. A FAIL
only means the search was exhausted: the underlying result is an existence
theorem, so absence of orbits in a finite search never refutes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

from .action import ActionContext, MeasureSpec, measure_action
from .errors import DegenerateGapError
from .maps import Compose, LocalDiskTwist, MapExpr, RigidRotation
from .orbits import PeriodicOrbit, SearchConfig, find_periodic_orbits
from .phase_space import AnnulusPoint
from .rotation import measure_rotation

FAIL_NOTE = "search exhausted (not a counterexample)"
GAP_ERROR_FACTOR = 10.0
# deepest period a search derived from the gap alone may reach
DERIVED_Q_MAX_CAP = 66


def action_gap(m: MapExpr, mu1: MeasureSpec, mu2: MeasureSpec,
               ctx: ActionContext | None = None) -> tuple[float, float]:
    """|A(mu1) - A(mu2)| with summed error estimates, canonical primitive."""
    ctx = ctx or ActionContext.default()
    a1 = measure_action(m, ctx, mu1)
    a2 = measure_action(m, ctx, mu2)
    return abs(a1.value - a2.value), a1.error_estimate + a2.error_estimate


def q_threshold(delta: float) -> int:
    """Smallest integer strictly greater than 1/delta."""
    if not delta > 0:
        raise DegenerateGapError(f"action gap must be positive, got {delta}")
    return math.floor(1.0 / delta) + 1


def derived_q_max(delta: float) -> int:
    """Last period searched when none is given: the threshold plus two."""
    q_max = q_threshold(delta) + 2
    if q_max > DERIVED_Q_MAX_CAP:
        raise ValueError(
            f"action gap {delta:.3e} puts the period threshold at {q_max - 2}; "
            f"give q_max (task.q_max or --q-max) to search past q = {DERIVED_Q_MAX_CAP}")
    return q_max


def candidate_windings(m: MapExpr, q: int) -> list[int]:
    """Integers p with p/q strictly inside the estimated rotation hull widened
    by 1/q on each side. The hull is spanned by the two boundary rotation
    numbers and the mean rotation number of the area measure; the margin
    covers rationals the estimates may miss by discretization."""
    if q < 1:
        raise ValueError("period must be positive")
    estimates = [
        measure_rotation(m, MeasureSpec.boundary_lower()).value,
        measure_rotation(m, MeasureSpec.boundary_upper()).value,
        measure_rotation(m, MeasureSpec.area()).value,
    ]
    lo = min(estimates) - 1.0 / q
    hi = max(estimates) + 1.0 / q
    eps = 1e-12 * max(1.0, abs(lo), abs(hi))
    p_lo = math.floor(q * lo + eps) + 1
    p_hi = math.ceil(q * hi - eps) - 1
    return list(range(p_lo, p_hi + 1))


@dataclass(frozen=True)
class WindingCensus:
    p: int
    orbits: tuple[PeriodicOrbit, ...]


@dataclass(frozen=True)
class PeriodResult:
    q: int
    verdict: str
    windings: tuple[WindingCensus, ...]
    distinct_orbits: int
    grid_used: int
    prime_least_period_ok: bool | None
    notes: tuple[str, ...]


@dataclass(frozen=True)
class MeasureSummary:
    description: str
    action: float
    action_error: float
    rotation: float
    rotation_error: float


@dataclass(frozen=True)
class VerificationReport:
    map_description: str
    mu1: MeasureSummary
    mu2: MeasureSummary
    gap: float
    gap_error: float
    q_threshold: int | None
    results: tuple[PeriodResult, ...]
    overall_verdict: str
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "map": self.map_description,
            "measures": [
                {
                    "role": role,
                    "description": s.description,
                    "action": s.action,
                    "action_error": s.action_error,
                    "rotation": s.rotation,
                    "rotation_error": s.rotation_error,
                }
                for role, s in (("mu1", self.mu1), ("mu2", self.mu2))
            ],
            "gap": {"delta": self.gap, "error": self.gap_error},
            "q_threshold": self.q_threshold,
            "results": [
                {
                    "q": r.q,
                    "verdict": r.verdict,
                    "distinct_orbits": r.distinct_orbits,
                    "grid_used": r.grid_used,
                    "prime_least_period_ok": r.prime_least_period_ok,
                    "notes": list(r.notes),
                    "windings": [
                        {
                            "p": w.p,
                            "orbit_count": len(w.orbits),
                            "orbits": [
                                {
                                    "start_x": o.points[0].xt,
                                    "start_y": o.points[0].y,
                                    "residual": o.residual,
                                    "least_period": o.least_period,
                                    "action": o.action,
                                    "degenerate": o.degenerate_flag,
                                }
                                for o in w.orbits
                            ],
                        }
                        for w in r.windings
                    ],
                }
                for r in self.results
            ],
            "overall_verdict": self.overall_verdict,
            "notes": list(self.notes),
        }


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _census(m: MapExpr, windings: dict[int, list[int]],
            cfg: SearchConfig) -> dict[int, tuple[list[WindingCensus], int]]:
    """Each period's winding censuses and the grid of its last search. One
    Newton run per grid searches every period still short of two distinct
    orbits, all its windings at once; the seed lattice doubles until each
    period has two or the density cap is reached."""
    out = {}
    todo, grid = list(windings), cfg.grid
    while todo:
        orbits = find_periodic_orbits(m, todo, [windings[q] for q in todo], replace(cfg, grid=grid))
        for q in todo:
            censuses = [WindingCensus(p, tuple(o for o in orbits if (o.q, o.p) == (q, p)))
                        for p in windings[q]]
            out[q] = censuses, grid
        if grid >= cfg.max_grid:
            break
        todo = [q for q in todo if sum(len(c.orbits) for c in out[q][0]) < 2]
        grid = min(2 * grid, cfg.max_grid)
    return out


def verify_theorem(m: MapExpr, mu1: MeasureSpec, mu2: MeasureSpec,
                   q_max: int | None = None,
                   cfg: SearchConfig | None = None,
                   ctx: ActionContext | None = None) -> VerificationReport:
    """Empirically test the orbit-count prediction of a positive action gap.

    For each q from the threshold to q_max, search every candidate winding and
    demand at least two distinct certified orbits (with least period q when q
    is prime). Without q_max the range ends at derived_q_max(delta), taken
    only after the gap passes its error-bar gate. The per-q verdict is
    INCONCLUSIVE when the gap's own error bar is too large; FAIL only records
    an exhausted search.
    """
    cfg = cfg or SearchConfig()
    ctx = ctx or ActionContext.default()

    # estimates are gathered leniently; the error-bar gate below decides
    # whether they are trustworthy enough to derive a period threshold
    summaries = []
    for mu in (mu1, mu2):
        a = measure_action(m, ctx, mu, tol=math.inf)
        r = measure_rotation(m, mu)
        summaries.append(MeasureSummary(mu.describe(), a.value, a.error_estimate,
                                        r.value, r.error_estimate))
    s1, s2 = summaries
    delta = abs(s1.action - s2.action)
    gap_err = s1.action_error + s2.action_error

    if delta <= 0.0:
        raise DegenerateGapError(
            "the two measures have equal actions; no period threshold exists")

    report = partial(VerificationReport, map_description=m.describe(),
                     mu1=s1, mu2=s2, gap=delta, gap_error=gap_err)
    if delta < GAP_ERROR_FACTOR * gap_err:
        return report(q_threshold=None, results=(), overall_verdict="INCONCLUSIVE",
                      notes=(f"gap {delta:.3e} does not exceed {GAP_ERROR_FACTOR:g}x its error "
                             f"estimate {gap_err:.3e}; threshold not trusted",))

    q_thr = q_threshold(delta)
    if q_max is None:
        q_max = derived_q_max(delta)
    if q_max < q_thr:
        raise ValueError(f"q_max={q_max} is below the period threshold {q_thr}")

    census = _census(m, {q: candidate_windings(m, q) for q in range(q_thr, q_max + 1)}, cfg)
    results = []
    for q, (censuses, grid_used) in census.items():
        all_orbits = [o for c in censuses for o in c.orbits]
        distinct = len(all_orbits)
        q_notes: list[str] = []
        verdict = "PASS" if distinct >= 2 else "FAIL"
        if verdict == "FAIL":
            q_notes.append(FAIL_NOTE)

        if 1.0 / q >= delta - gap_err:
            # the measured gap cannot exclude 1/delta >= q, so the theorem's
            # premise for this period is not established
            verdict = "INCONCLUSIVE"
            q_notes.append(
                f"gap error bar crosses 1/q: delta - err = {delta - gap_err:.6g} "
                f"<= 1/{q}")

        prime_ok = None
        if _is_prime(q):
            prime_ok = sum(1 for o in all_orbits if o.least_period == q) >= 2
            if verdict == "PASS" and not prime_ok:
                verdict = "FAIL"
                q_notes.append("prime period: fewer than two orbits with least period q")

        results.append(PeriodResult(
            q=q,
            verdict=verdict,
            windings=tuple(censuses),
            distinct_orbits=distinct,
            grid_used=grid_used,
            prime_least_period_ok=prime_ok,
            notes=tuple(q_notes),
        ))

    verdicts = {r.verdict for r in results}
    if "FAIL" in verdicts:
        overall = "FAIL"
    elif "INCONCLUSIVE" in verdicts:
        overall = "INCONCLUSIVE"
    else:
        overall = "PASS"
    return report(q_threshold=q_thr, results=tuple(results), overall_verdict=overall,
                  notes=(FAIL_NOTE,) if overall == "FAIL" else ())


def local_perturbation_map(a: float, center: AnnulusPoint, R: float, c: float) -> Compose:
    """The local-perturbation map: rigid rotation by a after a polynomial disk
    twist of strength c and radius R about center."""
    return Compose(RigidRotation(a), LocalDiskTwist.poly_bump(center, R, c))


def example_local_perturbation(a: float, center: AnnulusPoint, R: float, c: float,
                               q_max: int | None = None,
                               cfg: SearchConfig | None = None) -> VerificationReport:
    """The local-perturbation pipeline: compose an irrational rigid rotation
    with a compactly supported disk twist and verify the orbit predictions
    against the (area, lower boundary) measure pair. q_max goes to
    verify_theorem as given; without it verify_theorem derives the range
    itself, and the rationality probe, which runs before any search, looks at
    denominators up to derived_q_max of the twist's mean action (at least 8).
    That action is the gap verify_theorem measures, float for float: mean
    values add over leaves, the rotation's is zero, and the admissible disk
    (R < min(cy, 1 - cy)) keeps both boundary actions at exactly 0. So the two
    ranges agree. Like verify, a derived range past DERIVED_Q_MAX_CAP is
    refused with a ValueError naming q_max."""
    perturbed = local_perturbation_map(a, center, R, c)
    ctx = ActionContext.default()

    from .action import calabi

    mean_bump = calabi(perturbed.inner, ctx)
    if abs(mean_bump.value) <= 0.0:
        raise DegenerateGapError("the local twist has zero mean action (c = 0?)")

    probe_q = q_max if q_max is not None else max(8, derived_q_max(abs(mean_bump.value)))
    frac = Fraction(a).limit_denominator(probe_q)
    if abs(a - float(frac)) < 1e-6:
        raise ValueError(
            f"rotation number {a} is within 1e-6 of {frac} (denominator <= {probe_q}); "
            "pick an irrational-like value")

    return verify_theorem(
        perturbed,
        MeasureSpec.area(),
        MeasureSpec.boundary_lower(),
        q_max=q_max,
        cfg=cfg,
        ctx=ctx,
    )
