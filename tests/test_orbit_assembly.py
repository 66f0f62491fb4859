"""The census tail: canonicalise, certify and dedup as arrays, then build."""

import numpy as np
import pytest

import annact.orbits as orbits_mod
from annact import (
    AnnulusPoint,
    Compose,
    Iterate,
    LocalDiskTwist,
    SearchConfig,
    candidate_windings,
    find_periodic_orbits,
    orbit_distance,
)
from annact.maps import orbit_arrays


def test_census_builds_only_the_distinct_orbits(perturbed_rotation, monkeypatch):
    built = []

    class CountingOrbit(orbits_mod.PeriodicOrbit):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(orbits_mod, "PeriodicOrbit", CountingOrbit)
    result = find_periodic_orbits(perturbed_rotation, 6, 4, SearchConfig(grid=48))
    assert len(result) == 15
    assert len(built) == len(result)


@pytest.mark.parametrize("q,p", [(1, 0), (2, 1), (5, 3), (7, 4), (8, 5)])
def test_orbit_distance_ignores_relabelling_and_deck_shift(q, p, rng):
    # dyadic points keep every shift below exact, so the distance is exactly 0
    a = rng.integers(0, 2**20, size=(q, 2)) / 2**20
    for r in range(q):
        relabelled = np.concatenate([a[r:], a[:r] + [p, 0]])
        for k in range(-2, 3):
            b = relabelled + [k, 0]
            assert orbit_distance(a, b, p=p) == 0.0
            assert orbit_distance(b, a, p=p) == 0.0
    c = rng.integers(0, 2**20, size=(q, 2)) / 2**20
    assert orbit_distance(a, c, p=p) == orbit_distance(c, a, p=p) > 0.0


def _loop_orbit_distance(a, b, q, p):
    """Reference: the cyclic/deck metric one relabelling at a time."""
    best = np.inf
    for s in range(q):
        roll = np.roll(np.arange(q), -s)
        dx = a[:, 0] - (b[roll, 0] + p * ((np.arange(q) + s) // q))
        k = np.round(np.median(dx))
        best = min(best, float(max(np.max(np.abs(dx - k)), np.max(np.abs(a[:, 1] - b[roll, 1])))))
    return best


@pytest.mark.parametrize("q,p", [(1, 0), (2, 1), (6, 4), (7, 4), (8, 5)])
def test_orbit_distance_matches_the_loop_reference(q, p, rng):
    for _ in range(20):
        a = rng.random((q, 2)) + [rng.integers(-3, 4), 0]
        b = np.roll(a, rng.integers(q), axis=0) + rng.normal(0.0, 1e-3, (q, 2))
        for x, y in ((a, b), (b, a), (a, rng.random((q, 2)))):
            assert orbit_distance(x, y, p=p) == _loop_orbit_distance(x, y, q, p)


def test_orbit_distance_takes_p_from_either_orbit(perturbed_rotation):
    orbits = find_periodic_orbits(perturbed_rotation, 6, 4, SearchConfig(grid=24))
    a, b = orbits[0], orbits[1]
    want = orbit_distance(a, b)
    assert orbit_distance(a.point_array(), b) == want
    assert orbit_distance(a, b.point_array()) == want
    assert orbit_distance(a.point_array(), b.point_array(), p=4) == want


def test_orbit_distance_of_two_arrays_needs_p(rng):
    a, b = rng.random((3, 2)), rng.random((3, 2))
    with pytest.raises(ValueError, match="p"):
        orbit_distance(a, b)
    with pytest.raises(TypeError):
        orbit_distance(a, b, 3)


def _greedy_dedup_indices(pts, residual, p, tol):
    """Reference: the greedy window scan over every row, one row at a time."""
    x0, y0 = pts[:, 0, 0], pts[:, 0, 1]
    kept = []
    for i in np.lexsort((y0, x0)):
        window = np.array(kept[::-1], dtype=int)
        if min(x0[i], 1 - x0[i]) > 64 * tol:
            far = np.abs(x0[i] - x0[window]) > 64 * tol
            window = window[~np.logical_or.accumulate(far)]
        hit = np.flatnonzero(orbits_mod._cyclic_distance(pts[window], pts[i], p) < tol)
        if hit.size == 0:
            kept.append(i)
        elif residual[i] < residual[window[hit[0]]]:
            kept[kept.index(window[hit[0]])] = i
    kept = np.array(kept, dtype=int)
    return kept[np.lexsort((y0[kept], x0[kept]))]


def test_listed_chain_certifies_as_the_separate_iterate_pass(perturbed_rotation, monkeypatch):
    """The census certifies each candidate from the last of its q + 1 listed
    points and takes DF^q on the kept rows only; the reference is a separate
    pass of Iterate(m, q).lift_with_jacobian at every listed start."""
    m, q, p = perturbed_rotation, 6, 4
    sols, _ = orbits_mod._newton_polish(m, q, p, orbits_mod._seed_lattice(48))
    # the listing of _orbits_from_solutions
    xs, ys = orbit_arrays(m, sols[:, 0], sols[:, 1], q)
    cols = np.arange(len(sols))
    start = np.lexsort((ys, xs % 1.0), axis=0)[0]
    xs, ys = orbit_arrays(m, (xs % 1.0)[start, cols], ys[start, cols], q + 1)
    xt_q, y_q, jac = Iterate(m, q).lift_with_jacobian(xs[0], ys[0])
    want = np.maximum(np.abs(xt_q - xs[0] - p), np.abs(y_q - ys[0]))
    got = np.maximum(np.abs(xs[q] - xs[0] - p), np.abs(ys[q] - ys[0]))
    assert got.tobytes() == want.tobytes()

    taken = []
    differential = Iterate.jacobian

    def recording(self, x, y):
        d = differential(self, x, y)
        taken.append((x.tolist(), y.tolist(), d))
        return d

    monkeypatch.setattr(Iterate, "jacobian", recording)
    orbits = orbits_mod._orbits_from_solutions(m, q, p, sols)
    [(x0, y0, d)] = taken
    assert len(x0) == len(orbits) == 15 < len(sols)
    row = {pt: i for i, pt in enumerate(zip(xs[0].tolist(), ys[0].tolist()))}
    assert d.tobytes() == jac[[row[pt] for pt in zip(x0, y0)]].tobytes()


def _disk_map(golden_rotation, c):
    return Compose(golden_rotation, LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), 0.35, c))


def test_two_stage_dedup_keeps_the_greedy_scans_orbits(golden_rotation, monkeypatch):
    captured = []
    two_stage = orbits_mod._dedup_indices

    def capture(pts, residual, p, tol):
        captured.append((pts, residual, p, tol))
        return two_stage(pts, residual, p, tol)

    monkeypatch.setattr(orbits_mod, "_dedup_indices", capture)
    readme = _disk_map(golden_rotation, 50.85)
    find_periodic_orbits(readme, 6, 4, SearchConfig(grid=96))
    for q in (7, 8):  # these hold the three known wrap duplicates
        find_periodic_orbits(readme, q, candidate_windings(readme, q), SearchConfig(grid=48))
    find_periodic_orbits(_disk_map(golden_rotation, 10.0), 5, 3, SearchConfig(grid=96))
    find_periodic_orbits(_disk_map(golden_rotation, 1.0), 5, 3, SearchConfig(grid=48))
    assert len(captured) == 7
    for pts, residual, p, tol in captured:
        kept = two_stage(pts, residual, p, tol)
        assert kept.dtype == int
        np.testing.assert_array_equal(kept, _greedy_dedup_indices(pts, residual, p, tol))
        assert len(kept) < len(pts)


def test_two_stage_dedup_merges_across_a_cell_boundary(rng):
    tol = 1e-6
    chain = rng.random((3, 2))
    chain[0, 0] = 0.5 + 0.5 * tol / 10  # on a cell boundary
    pts = np.array([chain + [[dx, 0.0]] for dx in (-1e-9, 1e-9, -2e-9, 2e-9)])
    residual = np.array([3e-13, 1e-13, 2e-13, 1e-13])
    cells = np.round(pts[:, 0, 0] / (tol / 10))
    assert len(set(cells)) == 2
    kept = orbits_mod._dedup_indices(pts, residual, 1, tol)
    np.testing.assert_array_equal(kept, [1])
    np.testing.assert_array_equal(kept, _greedy_dedup_indices(pts, residual, 1, tol))


def test_two_stage_dedup_keeps_chains_that_share_a_start_cell(rng):
    tol = 1e-6
    a = rng.random((3, 2))
    b = a.copy()
    b[1, 1] += 10 * tol  # same start, a later point beyond tol
    pts = np.array([a, b, a, b])
    residual = np.array([2e-13, 1e-13, 1e-13, 2e-13])
    assert orbit_distance(a, b, p=1) > tol
    kept = orbits_mod._dedup_indices(pts, residual, 1, tol)
    assert sorted(kept) == [1, 2]
    np.testing.assert_array_equal(kept, _greedy_dedup_indices(pts, residual, 1, tol))


@pytest.mark.xfail(strict=True, reason="an orbit through x = 0 can be listed from two "
                   "different start points, and the dedup window keeps both copies")
def test_census_keeps_no_two_copies_of_an_orbit(perturbed_rotation):
    cfg = SearchConfig(grid=48)
    orbits = find_periodic_orbits(perturbed_rotation, 7, 4, cfg)
    close = [(j, i) for i in range(len(orbits)) for j in range(i)
             if orbit_distance(orbits[j], orbits[i]) < orbits_mod.DEDUP_TOLERANCE]
    assert close == []
