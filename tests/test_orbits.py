import numpy as np
import pytest

from annact import (
    ActionContext,
    Iterate,
    LiftedPoint,
    MeasureSpec,
    NonConvergentError,
    PeriodicOrbit,
    RigidRotation,
    SearchConfig,
    find_periodic_orbits,
    grid_scan_orbits,
    measure_action,
    orbit_distance,
    orbits_to_csv,
    refine_orbit,
)
from annact.orbits import ORBIT_CSV_HEADER, _dedup_indices


def test_linear_twist_degenerate_circle(linear_twist):
    # F^2(x, y) = (x + 2y, y): the whole circle y = 1/2 solves (q,p) = (2,1)
    orbits = find_periodic_orbits(linear_twist, 2, 1, SearchConfig(grid=16))
    assert len(orbits) >= 2
    for o in orbits:
        assert o.degenerate_flag
        assert o.points[0].y == pytest.approx(0.5, abs=1e-10)
        assert o.residual < 1e-9
        assert o.least_period == 2
        # g = y^2/2 is constant on the circle: orbit action (p/q)^2 / 2
        assert o.action == pytest.approx(0.125, abs=1e-12)


def test_rigid_irrational_empty_census(golden_rotation):
    for q in (1, 2, 5, 8):
        for p in (0, 1, 3):
            assert find_periodic_orbits(golden_rotation, q, p, SearchConfig(grid=12)) == []


def test_orbit_chain_consistency(perturbed_rotation):
    orbits = find_periodic_orbits(perturbed_rotation, 6, 4, SearchConfig(grid=32))
    assert len(orbits) >= 2
    for o in orbits:
        assert o.certified
        for a, b in zip(o.points, o.points[1:]):
            xt, y = perturbed_rotation.apply_point(a.xt, a.y)
            assert abs(xt - b.xt) < 1e-12
            assert abs(y - b.y) < 1e-12
        # winding bookkeeping: the stored lift advances by exactly p
        last_xt, _ = perturbed_rotation.apply_point(o.points[-1].xt, o.points[-1].y)
        assert round(last_xt - o.points[0].xt) == o.p
        assert o.points[0].xt < 1.0 and o.points[0].xt >= 0.0


def test_dedup_idempotent_and_metric(perturbed_rotation):
    orbits = find_periodic_orbits(perturbed_rotation, 6, 3, SearchConfig(grid=32))
    assert len(orbits) >= 2
    pts = np.array([o.point_array() for o in orbits])
    residual = np.array([o.residual for o in orbits])
    again = _dedup_indices(pts, residual, orbits[0].p, 1e-6)
    assert [orbits[i].points for i in again] == [o.points for o in orbits]
    assert orbit_distance(orbits[0], orbits[0]) < 1e-12
    assert orbit_distance(orbits[0], orbits[1]) > 1e-6


def test_determinism_across_runs_and_workers(perturbed_rotation):
    a = find_periodic_orbits(perturbed_rotation, 6, 4, SearchConfig(grid=24))
    b = find_periodic_orbits(perturbed_rotation, 6, 4, SearchConfig(grid=24))
    c = find_periodic_orbits(perturbed_rotation, 6, 4, SearchConfig(grid=24))
    assert [o.points for o in a] == [o.points for o in b] == [o.points for o in c]
    assert [o.residual for o in a] == [o.residual for o in c]


def test_refine_orbit(linear_twist, rng):
    orbits = find_periodic_orbits(linear_twist, 3, 1, SearchConfig(grid=12))
    orb = orbits[0]
    # an exact orbit stays put
    polished = refine_orbit(linear_twist, orb, 1e-11)
    assert polished.residual <= max(orb.residual, 1e-11)
    # a 1e-4 perturbation is recovered onto the solution circle y = 1/3
    noisy_start = LiftedPoint(orb.points[0].xt + 1e-4, min(1.0, orb.points[0].y + 1e-4))
    noisy = PeriodicOrbit(
        q=3, p=1,
        points=(noisy_start,) + orb.points[1:],
        residual=1e-3, least_period=3, action=orb.action, degenerate_flag=True,
    )
    recovered = refine_orbit(linear_twist, noisy, 1e-12)
    assert abs(recovered.points[0].y - 1.0 / 3.0) < 1e-12
    # far seeds violate the precondition
    bad = PeriodicOrbit(
        q=3, p=1,
        points=(LiftedPoint(0.4, 0.9),) + orb.points[1:],
        residual=0.1, least_period=3, action=0.0, degenerate_flag=False,
    )
    with pytest.raises(NonConvergentError):
        refine_orbit(linear_twist, bad, 1e-12)



def test_refine_orbit_reports_what_it_reached(perturbed_rotation):
    # the README (6, 4) census at grid 48: three orbits stop between 1e-12 and
    # 1e-10, where the conditioning of F^6 floors Newton; the error carries
    # the refined orbit and names its residual and the target
    orbits = find_periodic_orbits(perturbed_rotation, 6, 4, SearchConfig(grid=48))
    assert len(orbits) == 15
    missed = []
    for i, orb in enumerate(orbits):
        try:
            polished = refine_orbit(perturbed_rotation, orb)
        except NonConvergentError as e:
            missed.append(i)
            assert isinstance(e.value, PeriodicOrbit)
            assert (e.value.q, e.value.p) == (6, 4)
            assert 1e-12 < e.value.residual < 1e-10
            assert f"reached {e.value.residual:.3g}" in str(e) and "target 1e-12" in str(e)
        else:
            assert polished.residual <= 1e-12
    assert missed == [1, 2, 10]


def test_orbit_action_closed_form(linear_twist):
    ctx = ActionContext.default()
    orbits = find_periodic_orbits(linear_twist, 4, 3, SearchConfig(grid=16))
    for o in orbits[:3]:
        value = measure_action(linear_twist, ctx, MeasureSpec.from_orbit(o)).value
        assert value == pytest.approx((3 / 4) ** 2 / 2, abs=1e-12)


def test_iterate_orbit_structure(linear_twist):
    # a (3,1) orbit of the twist is a (3,2) orbit of its square: same circle
    base = find_periodic_orbits(linear_twist, 3, 1, SearchConfig(grid=12))
    squared = find_periodic_orbits(Iterate(linear_twist, 2), 3, 2, SearchConfig(grid=12))
    ys_base = {round(o.points[0].y, 9) for o in base}
    ys_sq = {round(o.points[0].y, 9) for o in squared}
    assert ys_base == ys_sq == {round(1 / 3, 9)}
    # and fixed points of the doubled map include period-2 points of the base
    doubled = find_periodic_orbits(Iterate(linear_twist, 2), 1, 1, SearchConfig(grid=12))
    assert any(abs(o.points[0].y - 0.5) < 1e-9 for o in doubled)


def test_grid_scan_cross_check(linear_twist, perturbed_rotation):
    # integrable case: the scan lands on the same solution circle
    scan = grid_scan_orbits(linear_twist, 2, 1, n=200)
    assert len(scan) >= 2
    for o in scan:
        assert abs(o.points[0].y - 0.5) < 1e-9
    # generic case: the independent seeding route confirms at least two of the
    # lattice orbits (the full 2000x2000 oracle runs in the acceptance suite)
    lattice = find_periodic_orbits(perturbed_rotation, 6, 4, SearchConfig(grid=32))
    scan = grid_scan_orbits(perturbed_rotation, 6, 4, n=800)
    assert len(scan) >= 2
    confirmed = sum(1 for o in lattice if min(orbit_distance(o, s) for s in scan) < 1e-6)
    assert confirmed >= 2


def test_csv_export(linear_twist):
    orbits = find_periodic_orbits(linear_twist, 2, 1, SearchConfig(grid=8))
    text = orbits_to_csv(orbits)
    lines = text.strip().split("\n")
    assert lines[0] == ORBIT_CSV_HEADER
    assert len(lines) == 1 + 2 * len(orbits)
    first = lines[1].split(",")
    assert len(first) == 9
    assert first[0] == "0" and first[1] == "0"
    assert float(first[3]) == pytest.approx(0.5, abs=1e-9)  # y of the circle


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(grid=0)
    with pytest.raises(ValueError):
        find_periodic_orbits(RigidRotation(0.5), 0, 0)
