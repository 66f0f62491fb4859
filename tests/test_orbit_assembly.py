"""The census tail: canonicalise, certify and dedup as arrays, then build."""

import numpy as np
import pytest

import annact.orbits as orbits_mod
from annact import SearchConfig, find_periodic_orbits, orbit_distance


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
            assert orbit_distance(a, b, q, p) == 0.0
            assert orbit_distance(b, a, q, p) == 0.0
    c = rng.integers(0, 2**20, size=(q, 2)) / 2**20
    assert orbit_distance(a, c, q, p) == orbit_distance(c, a, q, p) > 0.0


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
            assert orbit_distance(x, y, q, p) == _loop_orbit_distance(x, y, q, p)


@pytest.mark.xfail(strict=True, reason="an orbit through x = 0 can be listed from two "
                   "different start points, and the dedup window keeps both copies")
def test_census_keeps_no_two_copies_of_an_orbit(perturbed_rotation):
    cfg = SearchConfig(grid=48)
    orbits = find_periodic_orbits(perturbed_rotation, 7, 4, cfg)
    close = [(j, i) for i in range(len(orbits)) for j in range(i)
             if orbit_distance(orbits[j], orbits[i]) < cfg.dedup_tolerance]
    assert close == []
