import numpy as np
import pytest

import annact.harness as H
from annact import (
    ActionContext,
    AnnulusPoint,
    DegenerateGapError,
    LiftedPoint,
    MeasureSpec,
    PeriodicOrbit,
    RigidRotation,
    SearchConfig,
    action_gap,
    candidate_windings,
    example_local_perturbation,
    find_periodic_orbits,
    measure_action,
    orbit_distance,
    q_threshold,
    verify_theorem,
)
from annact.harness import FAIL_NOTE

from conftest import BUMP_C, BUMP_R, GOLDEN


def test_action_gap_examples(linear_twist, golden_rotation, perturbed_rotation):
    delta, err = action_gap(linear_twist, MeasureSpec("boundary_upper", n_iter=5000),
                            MeasureSpec("boundary_lower", n_iter=5000))
    assert delta == pytest.approx(0.5, abs=1e-12) and err < 1e-8
    delta, err = action_gap(golden_rotation, MeasureSpec.area(),
                            MeasureSpec("boundary_lower", n_iter=5000))
    assert delta == 0.0
    delta, err = action_gap(perturbed_rotation, MeasureSpec.area(),
                            MeasureSpec("boundary_lower", n_iter=5000))
    assert delta == pytest.approx(np.pi * BUMP_C * BUMP_R**4 / 12, rel=1e-9)
    assert err < 1e-4


def test_q_threshold():
    assert q_threshold(0.5) == 3
    assert q_threshold(0.2) == 6
    assert q_threshold(1.5) == 1
    with pytest.raises(DegenerateGapError):
        q_threshold(0.0)
    with pytest.raises(DegenerateGapError):
        q_threshold(-0.1)


def test_candidate_windings(linear_twist):
    assert candidate_windings(linear_twist, 3) == [0, 1, 2, 3]
    rot = RigidRotation(0.382)
    # hull is the single point 0.382; open window (0.182, 0.582)
    assert candidate_windings(rot, 5) == [1, 2]
    # q = 1: the rounded value plus the neighbor caught by the unit margin
    assert candidate_windings(rot, 1) == [0, 1]


def test_verify_theorem_twist(linear_twist):
    mu1 = MeasureSpec("boundary_upper", n_iter=5000)
    mu2 = MeasureSpec("boundary_lower", n_iter=5000)
    rep = verify_theorem(linear_twist, mu1, mu2, q_max=5, cfg=SearchConfig(grid=16))
    # without q_max the range ends at the threshold + 2, here the same 5
    assert verify_theorem(linear_twist, mu1, mu2, cfg=SearchConfig(grid=16)) == rep
    assert rep.q_threshold == 3
    assert rep.overall_verdict == "PASS"
    assert [r.q for r in rep.results] == [3, 4, 5]
    for r in rep.results:
        assert r.verdict == "PASS"
        assert r.distinct_orbits >= 2
        if r.q in (3, 5):
            assert r.prime_least_period_ok is True


def test_verify_theorem_degenerate_gap(golden_rotation):
    with pytest.raises(DegenerateGapError):
        verify_theorem(
            golden_rotation,
            MeasureSpec("boundary_upper", n_iter=5000),
            MeasureSpec("boundary_lower", n_iter=5000),
            q_max=5,
        )


def test_verify_theorem_q_max_below_threshold(linear_twist):
    with pytest.raises(ValueError):
        verify_theorem(
            linear_twist,
            MeasureSpec("boundary_upper", n_iter=5000),
            MeasureSpec("boundary_lower", n_iter=5000),
            q_max=2,
        )


def test_verify_inconclusive_on_noisy_gap(perturbed_rotation):
    # two empirical measures whose action estimates carry errors larger than
    # a tenth of their difference: the threshold cannot be trusted
    mu1 = MeasureSpec.empirical(AnnulusPoint(0.52, 0.55), 1000)
    mu2 = MeasureSpec.empirical(AnnulusPoint(0.48, 0.45), 1000)
    from annact.action import measure_action, ActionContext

    a1 = measure_action(perturbed_rotation, ActionContext.default(), mu1, tol=1.0)
    a2 = measure_action(perturbed_rotation, ActionContext.default(), mu2, tol=1.0)
    delta = abs(a1.value - a2.value)
    errs = a1.error_estimate + a2.error_estimate
    if delta == 0.0:
        pytest.skip("estimates coincided exactly; nothing to gate")
    if delta >= 10 * errs:
        pytest.skip("seeds separated cleanly; gate not reachable with this pair")
    rep = verify_theorem(perturbed_rotation, mu1, mu2, q_max=50, cfg=SearchConfig(grid=8))
    assert rep.overall_verdict == "INCONCLUSIVE"
    assert rep.q_threshold is None
    assert rep.results == ()


def test_per_q_gap_error_bar_gate(monkeypatch, linear_twist):
    # delta = 0.26 with error 0.015 passes the 10x global gate, but at the
    # threshold period 1/4 = 0.25 >= delta - err = 0.245: q = 4 is untrusted
    import annact.harness as H
    from annact.action import ActionValue

    fake = {"boundary_upper": ActionValue(0.26, 0.010), "boundary_lower": ActionValue(0.0, 0.005)}
    monkeypatch.setattr(H, "measure_action",
                        lambda m, ctx, mu, tol=None: fake[mu.variant])
    rep = verify_theorem(
        linear_twist,
        MeasureSpec("boundary_upper", n_iter=5000),
        MeasureSpec("boundary_lower", n_iter=5000),
        q_max=6,
        cfg=SearchConfig(grid=12),
    )
    assert rep.q_threshold == 4
    by_q = {r.q: r for r in rep.results}
    assert by_q[4].verdict == "INCONCLUSIVE"
    assert any("error bar crosses" in n for n in by_q[4].notes)
    # 1/5 and 1/6 sit below delta - err, so those periods are judged normally
    assert by_q[5].verdict == "PASS"
    assert by_q[6].verdict == "PASS"
    assert rep.overall_verdict == "INCONCLUSIVE"


def test_example_pipeline(perturbed_rotation):
    rep = example_local_perturbation(GOLDEN, AnnulusPoint(0.5, 0.5), BUMP_R, BUMP_C,
                                     q_max=6, cfg=SearchConfig(grid=48))
    assert rep.q_threshold == 6
    assert rep.gap == pytest.approx(np.pi * BUMP_C * BUMP_R**4 / 12, rel=1e-9)
    assert rep.results[0].verdict == "PASS"
    assert rep.results[0].distinct_orbits >= 2
    for w in rep.results[0].windings:
        for o in w.orbits:
            assert o.residual < 1e-9


def test_example_pipeline_takes_each_mean_action_once(monkeypatch):
    # the disk twist's mean action serves the degeneracy check and the
    # rationality probe; only verify_theorem's area measure repeats one
    import annact.action as action_mod
    from annact.cli import render_report_json
    from annact.harness import local_perturbation_map

    calls = []
    calabi = action_mod.calabi

    def counted(m, *args, **kwargs):
        calls.append(m)
        return calabi(m, *args, **kwargs)

    monkeypatch.setattr(action_mod, "calabi", counted)
    center = AnnulusPoint(0.5, 0.5)
    kw = dict(q_max=6, cfg=SearchConfig(grid=24))
    rep = example_local_perturbation(GOLDEN, center, BUMP_R, BUMP_C, **kw)
    assert len(calls) <= 4
    want = verify_theorem(local_perturbation_map(GOLDEN, center, BUMP_R, BUMP_C),
                          MeasureSpec.area(), MeasureSpec.boundary_lower(), **kw)
    assert render_report_json(rep) == render_report_json(want)


def test_example_pipeline_rejects_degenerate_and_rational():
    with pytest.raises(DegenerateGapError):
        example_local_perturbation(GOLDEN, AnnulusPoint(0.5, 0.5), 0.3, 0.0)
    with pytest.raises(ValueError):
        example_local_perturbation(0.5, AnnulusPoint(0.5, 0.5), 0.3, 50.0, q_max=6)


def test_report_determinism(linear_twist):
    from annact.cli import render_report_json, render_report_text

    kw = dict(q_max=4, cfg=SearchConfig(grid=12))
    mu1 = MeasureSpec("boundary_upper", n_iter=5000)
    mu2 = MeasureSpec("boundary_lower", n_iter=5000)
    r1 = verify_theorem(linear_twist, mu1, mu2, **kw)
    r2 = verify_theorem(linear_twist, mu1, mu2, **kw)
    assert render_report_json(r1) == render_report_json(r2)
    assert render_report_text(r1) == render_report_text(r2)


def test_period_doubling_containment(linear_twist):
    # points of a (3,1) orbit reappear among (6,2) orbits of the same map
    base = find_periodic_orbits(linear_twist, 3, 1, SearchConfig(grid=12))
    doubled = find_periodic_orbits(linear_twist, 6, 2, SearchConfig(grid=12))
    assert doubled
    for o in base[:3]:
        pts = o.point_array()
        found = False
        for d in doubled:
            dd = d.point_array()
            if all(min(min(abs(px - qx) % 1.0, 1 - abs(px - qx) % 1.0) + abs(py - qy)
                       for qx, qy in dd) < 1e-8 for px, py in pts):
                found = True
                break
        assert found


def test_fail_is_labeled_as_search_exhausted(monkeypatch, linear_twist):
    # forcing an empty census produces FAIL with the honest label
    import annact.harness as H

    monkeypatch.setattr(H, "find_periodic_orbits", lambda *a, **k: [])
    rep = verify_theorem(
        linear_twist,
        MeasureSpec("boundary_upper", n_iter=5000),
        MeasureSpec("boundary_lower", n_iter=5000),
        q_max=3,
        cfg=SearchConfig(grid=8, max_grid=8),
    )
    assert rep.overall_verdict == "FAIL"
    assert any(FAIL_NOTE in n for n in rep.results[0].notes)
    assert any(FAIL_NOTE in n for n in rep.notes)


def test_pass_orbits_survive_fresh_polish(perturbed_rotation):
    # re-polishing every reported orbit from its stored points keeps it
    # certified
    from annact import refine_orbit

    rep = verify_theorem(
        perturbed_rotation,
        MeasureSpec.area(),
        MeasureSpec("boundary_lower", n_iter=20_000),
        q_max=6,
        cfg=SearchConfig(grid=32),
    )
    q6 = rep.results[0]
    assert q6.verdict == "PASS"
    for w in q6.windings:
        for o in w.orbits:
            fresh = refine_orbit(perturbed_rotation, o, 1e-9)
            assert fresh.residual < 1e-9
            assert orbit_distance(fresh, o) < 1e-6


def test_orbit_measure_pair_route(linear_twist):
    # both measures supported on periodic orbits: same entry point, no new code
    o1 = find_periodic_orbits(linear_twist, 2, 1, SearchConfig(grid=12))[0]
    o2 = find_periodic_orbits(linear_twist, 4, 3, SearchConfig(grid=12))[0]
    rep = verify_theorem(
        linear_twist,
        MeasureSpec.from_orbit(o2),
        MeasureSpec.from_orbit(o1),
        q_max=q_threshold(abs(o2.action - o1.action)),
        cfg=SearchConfig(grid=12),
    )
    # gap = |9/32 - 4/32| = 5/32, threshold 7
    assert rep.gap == pytest.approx(5 / 32, abs=1e-12)
    assert rep.q_threshold == 7
    assert rep.results[0].verdict == "PASS"


def test_verdicts_do_not_depend_on_the_base_point(perturbed_rotation):
    # a base point shifts the action function by a constant, so the gap and
    # every verdict of the README verify are the same under either context
    mu1, mu2 = MeasureSpec.area(), MeasureSpec.boundary_lower()
    cfg = SearchConfig(grid=48, max_grid=384)
    default = verify_theorem(perturbed_rotation, mu1, mu2, q_max=8, cfg=cfg)
    moved = verify_theorem(perturbed_rotation, mu1, mu2, q_max=8, cfg=cfg,
                           ctx=ActionContext(base_point=AnnulusPoint(0.5, 0.5)))
    for rep in (default, moved):
        assert [(r.q, r.verdict, r.distinct_orbits) for r in rep.results] == [
            (6, "PASS", 28), (7, "PASS", 21), (8, "PASS", 8)]
        assert rep.overall_verdict == "PASS"
    assert moved.gap == pytest.approx(default.gap, abs=1e-12)


def test_census_orbit_actions_are_canonical_orbit_means(perturbed_rotation):
    # an orbit's action is the mean of g at its points in the canonical context
    qs = [6, 7, 8]
    orbits = find_periodic_orbits(perturbed_rotation, qs,
                                  [candidate_windings(perturbed_rotation, q) for q in qs],
                                  SearchConfig(grid=48))
    assert len(orbits) == 57
    ctx = ActionContext.default()
    for o in orbits:
        assert o.action == measure_action(perturbed_rotation, ctx, MeasureSpec.from_orbit(o)).value


def test_is_prime_matches_a_sieve():
    sieve = [False, False] + [True] * 99
    for n in range(2, 11):
        for k in range(n * n, 101, n):
            sieve[k] = False
    assert [H._is_prime(n) for n in range(101)] == sieve


def test_prime_period_needs_two_orbits_of_least_period_q(linear_twist, monkeypatch):
    # at the prime q = 3, two certified orbits of least period 1 turn a PASS into a FAIL
    def two_fixed_points(m, qs, ps, cfg):
        assert list(qs) == [3]
        return [PeriodicOrbit(q=3, p=ps[0][0], points=(LiftedPoint(x, 0.5),) * 3, residual=0.0,
                              least_period=1, action=0.125, degenerate_flag=False)
                for x in (0.1, 0.6)]

    up, lo = MeasureSpec("boundary_upper"), MeasureSpec("boundary_lower")
    honest = verify_theorem(linear_twist, up, lo, q_max=3, cfg=SearchConfig(grid=12))
    assert [(r.q, r.verdict, r.prime_least_period_ok) for r in honest.results] == [(3, "PASS", True)]
    monkeypatch.setattr(H, "find_periodic_orbits", two_fixed_points)
    rep = verify_theorem(linear_twist, up, lo, q_max=3, cfg=SearchConfig(grid=12))
    (r,) = rep.results
    assert (r.q, r.distinct_orbits, r.verdict) == (3, 2, "FAIL")
    assert r.prime_least_period_ok is False
    assert "prime period: fewer than two orbits with least period q" in r.notes
    assert rep.overall_verdict == "FAIL"
