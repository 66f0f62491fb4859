"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also enforces its stated tolerance and runtime budget.
"""

import json
import time

import numpy as np
import pytest

from annact import (
    ActionContext,
    AnnulusPoint,
    Compose,
    DegenerateGapError,
    LiftedPoint,
    LinearProfile,
    LocalDiskTwist,
    MeasureSpec,
    PolyBumpProfile,
    PolyBumpRadial,
    PolylinePath,
    RigidRotation,
    SearchConfig,
    Twist,
    action_function,
    action_gap,
    additivity_defect,
    area_defect,
    calabi,
    candidate_windings,
    disk_twist_mean_action,
    find_periodic_orbits,
    grid_scan_orbits,
    measure_action,
    orbit_distance,
    path_independence_defect,
    shifted_action_difference,
    verify_theorem,
)
from annact.cli import render_report_json
from annact.harness import example_local_perturbation

from conftest import random_builtin, random_composition

CTX = ActionContext.default()

# Example-pipeline parameters: the chart twist amplitude is chosen so the
# action gap pi*c*R^4/12 sits just below 0.2, putting the period threshold at
# 6 with a safe margin in floating point.
A_ROT = 0.6180339887
BUMP_R = 0.35
BUMP_C = 50.85
GAP_EXPECTED = np.pi * BUMP_C * BUMP_R**4 / 12  # ~0.19977


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.name} ({elapsed:.1f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: runtime {elapsed:.1f}s over budget"
        return False


def test_criterion_1_linear_twist_closed_forms(rng):
    with Budget("criterion 1: linear twist closed forms", 5):
        tw = Twist(LinearProfile())
        for _ in range(100):
            p = AnnulusPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            assert action_function(tw, CTX, p) == pytest.approx(0.5 * p.y**2, abs=1e-8)
        assert calabi(tw).value == pytest.approx(1.0 / 6.0, abs=1e-8)
        lower = measure_action(tw, CTX, MeasureSpec("boundary_lower", n_iter=100_000))
        upper = measure_action(tw, CTX, MeasureSpec("boundary_upper", n_iter=100_000))
        assert lower.value == pytest.approx(0.0, abs=1e-8)
        assert upper.value == pytest.approx(0.5, abs=1e-8)


def test_criterion_2_disk_twist_mean_action():
    with Budget("criterion 2: disk twist mean action", 10):
        c = BUMP_C
        disk = disk_twist_mean_action(PolyBumpRadial(c, 1.0))
        expected = c / (12 * np.pi)
        assert disk.value > 0.0
        assert disk.value == pytest.approx(expected, rel=1e-6)
        embedded = calabi(LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), BUMP_R, c))
        assert abs(embedded.value) == pytest.approx(np.pi * c * BUMP_R**4 / 12, rel=1e-6)


def test_criterion_3_boundary_identity(rng):
    with Budget("criterion 3: boundary identity", 60):
        from annact import lemma_boundary_identity_defect

        assert lemma_boundary_identity_defect(Twist(LinearProfile())) < 1e-6
        assert lemma_boundary_identity_defect(RigidRotation(A_ROT)) < 1e-6
        worst = 0.0
        for _ in range(20):
            m = random_composition(rng)
            worst = max(worst, lemma_boundary_identity_defect(m))
        assert worst < 1e-6


def test_criterion_4_additivity(rng):
    with Budget("criterion 4: mean-action additivity", 30):
        # the local perturbation identity: A(f o h) = A(h) for rigid f
        rot = RigidRotation(A_ROT)
        bump = LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), BUMP_R, BUMP_C)
        assert additivity_defect(bump, rot) < 1e-8
        composite = calabi(Compose(rot, bump))
        assert composite.value == pytest.approx(calabi(bump).value, abs=1e-8)
        worst = 0.0
        for _ in range(10):
            worst = max(worst, additivity_defect(random_builtin(rng), random_builtin(rng)))
        assert worst < 1e-8


def test_criterion_5_primitive_shift_law():
    with Budget("criterion 5: primitive-shift law", 30):
        shifts = (-1.0, -0.3, 0.7, 2.0)
        up = MeasureSpec("boundary_upper", n_iter=50_000)
        lo = MeasureSpec("boundary_lower", n_iter=50_000)
        # equal rotation numbers: the difference ignores the primitive
        equal_rotation_maps = (
            RigidRotation(A_ROT),
            LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), BUMP_R, BUMP_C),
            Compose(RigidRotation(A_ROT),
                    LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), BUMP_R, BUMP_C)),
        )
        for m in equal_rotation_maps:
            for c in shifts:
                base, shifted = shifted_action_difference(m, up, lo, c)
                assert abs(shifted - base) < 1e-6
        # linear twist boundary pair: the shift contributes c * (rho1 - rho0) = c
        tw = Twist(LinearProfile())
        for c in shifts:
            base, shifted = shifted_action_difference(tw, up, lo, c)
            assert shifted - base == pytest.approx(c, abs=1e-6)


def test_criterion_6_theorem_verification_pipeline():
    with Budget("criterion 6: theorem verification pipeline", 300):
        rep = example_local_perturbation(
            A_ROT, AnnulusPoint(0.5, 0.5), BUMP_R, BUMP_C, q_max=8,
            cfg=SearchConfig(grid=48),
        )
        assert rep.gap == pytest.approx(GAP_EXPECTED, rel=1e-9)
        assert rep.q_threshold == 6
        assert [r.q for r in rep.results] == [6, 7, 8]
        q6 = rep.results[0]
        assert q6.verdict == "PASS"
        orbits6 = [o for w in q6.windings for o in w.orbits]
        assert len(orbits6) >= 2
        for o in orbits6:
            assert o.residual < 1e-9
        same_p_pairs = [
            (a, b)
            for w in q6.windings
            for i, a in enumerate(w.orbits)
            for b in w.orbits[i + 1:]
        ]
        for a, b in same_p_pairs:
            assert orbit_distance(a, b) > 1e-6

        # brute-force 2000 x 2000 return-map oracle at q = 6
        perturbed = Compose(
            RigidRotation(A_ROT),
            LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), BUMP_R, BUMP_C),
        )
        confirmed = 0
        for w in q6.windings:
            scan = grid_scan_orbits(perturbed, 6, w.p, n=2000)
            assert len(scan) >= 2
            for o in w.orbits:
                if min(orbit_distance(o, s) for s in scan) < 1e-6:
                    confirmed += 1
        assert confirmed >= 2


def test_criterion_7_negative_control():
    with Budget("criterion 7: negative control", 60):
        rot = RigidRotation(A_ROT)
        delta, err = action_gap(rot, MeasureSpec.area(),
                                MeasureSpec("boundary_lower", n_iter=100_000))
        assert delta == 0.0
        with pytest.raises(DegenerateGapError):
            verify_theorem(rot, MeasureSpec.area(),
                           MeasureSpec("boundary_lower", n_iter=100_000), q_max=8)
        for q in range(1, 9):
            for p in candidate_windings(rot, q):
                assert find_periodic_orbits(rot, q, p) == []


def test_criterion_8_property_suites(rng):
    with Budget("criterion 8: property suites", 120):
        # area preservation on 64 x 64 audit grids
        families = [
            RigidRotation(A_ROT),
            Twist(LinearProfile()),
            Twist(PolyBumpProfile(1.1)),
            LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), BUMP_R, BUMP_C),
        ]
        for m in families + [random_composition(rng) for _ in range(6)]:
            assert area_defect(m, 64) < 1e-9

        # path independence over 20 random dog-legs
        worst = 0.0
        for _ in range(20):
            m = random_composition(rng)
            target = AnnulusPoint(float(rng.uniform(0, 1)), float(rng.uniform(0.05, 1)))
            mid = LiftedPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            path = PolylinePath((LiftedPoint(0.0, 0.0), mid,
                                 LiftedPoint(target.x, target.y)))
            worst = max(worst, path_independence_defect(m, CTX, target, path))
        assert worst < 1e-8

        # cohomologous action functions give identical measure actions
        def s_fn(x, y):
            return 0.07 * np.sin(2 * np.pi * x) * np.cos(np.pi * y)

        from annact.action import action_function_values, _orbit_arrays

        for m in (Twist(LinearProfile()),
                  LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), BUMP_R, BUMP_C)):
            for mu in (MeasureSpec("boundary_lower", n_iter=4000),
                       MeasureSpec("boundary_upper", n_iter=4000),
                       MeasureSpec.empirical(AnnulusPoint(0.37, 0.58), 4000)):
                base = measure_action(m, CTX, mu, tol=1e-2)
                if mu.variant == "empirical":
                    xs, ys = _orbit_arrays(m, mu.seed, mu.n_iter)
                else:
                    which = "lower" if mu.variant == "boundary_lower" else "upper"
                    xs = m.boundary_displacement(which) * np.arange(mu.n_iter, dtype=float)
                    ys = np.full_like(xs, 0.0 if which == "lower" else 1.0)
                g_vals = action_function_values(m, CTX, xs, ys)
                fx, fy = m.apply_lift(xs, ys)
                modified = float(np.mean(g_vals + s_fn(fx, fy) - s_fn(xs, ys)))
                assert modified == pytest.approx(
                    base.value, abs=max(2 * base.error_estimate, 1e-9))

        # determinism: repeated verification runs render byte-identically
        tw = Twist(LinearProfile())
        kw = dict(q_max=4, cfg=SearchConfig(grid=16))
        mu1 = MeasureSpec("boundary_upper", n_iter=10_000)
        mu2 = MeasureSpec("boundary_lower", n_iter=10_000)
        blob1 = render_report_json(verify_theorem(tw, mu1, mu2, **kw))
        blob2 = render_report_json(verify_theorem(tw, mu1, mu2, **kw))
        assert blob1.encode() == blob2.encode()
        json.loads(blob1)
