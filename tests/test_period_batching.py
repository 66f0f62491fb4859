"""One Newton run for several periods: the seeds of every period are polished
together, each row iterated to its own q. Merging periods may change no
result: every row takes exactly the leaf steps and Newton steps it takes in
its own period's run, so a merged census equals the single-period ones bit
for bit, and verify_theorem's report equals one built period by period."""

import json
from dataclasses import replace

import numpy as np
import pytest

import annact.harness as H
from annact import (
    Compose,
    MeasureSpec,
    SearchConfig,
    candidate_windings,
    find_periodic_orbits,
    verify_theorem,
)
from annact.maps import Iterate, RowIterate, random_composition
from annact.orbits import _newton_polish, _seed_lattice


def _points(rng, n):
    return rng.uniform(-1.0, 2.0, n), rng.uniform(0.0, 1.0, n)


def test_merged_periods_equal_the_single_period_censuses(perturbed_rotation):
    cfg = SearchConfig(grid=48)
    qs = [6, 7, 8]
    pss = [candidate_windings(perturbed_rotation, q) for q in qs]
    merged = find_periodic_orbits(perturbed_rotation, qs, pss, cfg)
    single = [o for q, ps in zip(qs, pss)
              for o in find_periodic_orbits(perturbed_rotation, q, ps, cfg)]
    assert merged == single
    assert {o.q for o in merged} == set(qs)


def test_merged_periods_on_random_maps(rng):
    cfg = SearchConfig(grid=16)
    for _ in range(4):
        m = random_composition(rng)
        pss = [candidate_windings(m, q) for q in (2, 3)]
        merged = find_periodic_orbits(m, [2, 3], pss, cfg)
        single = [o for q, ps in zip((2, 3), pss) for o in find_periodic_orbits(m, q, ps, cfg)]
        assert merged == single


def test_per_row_polish_returns_each_periods_solutions(perturbed_rotation):
    cfg = SearchConfig(grid=24)
    lattice = _seed_lattice(cfg.grid)
    qs, ps = [6, 7, 8], [4, 4, 5]
    sols, tags = _newton_polish(perturbed_rotation, np.repeat(qs, len(lattice)),
                                np.repeat(ps, len(lattice)), np.tile(lattice, (3, 1)))
    assert tags.shape == (len(sols), 2)
    for q, p in zip(qs, ps):
        want, windings = _newton_polish(perturbed_rotation, q, p, lattice)
        mine = (tags[:, 0] == q) & (tags[:, 1] == p)
        assert len(want) > 0
        assert np.array_equal(sols[mine], want)
        assert np.array_equal(windings, np.full(len(want), p))


@pytest.mark.parametrize("k", [1, 3, 6])
def test_row_pass_at_one_count_is_the_iterate(rng, perturbed_rotation, k):
    maps = [perturbed_rotation] + [random_composition(rng, max_leaves=4) for _ in range(6)]
    for m in maps:
        xt, y = _points(rng, 257)
        rows = RowIterate(m, np.full(len(xt), k))
        want = Iterate(m, k)
        for got, ref in zip(rows.apply_lift(xt, y), want.apply_lift(xt, y)):
            assert np.array_equal(got, ref)
        for got, ref in zip(rows.lift_with_jacobian(xt, y), want.lift_with_jacobian(xt, y)):
            assert np.array_equal(got, ref)


def test_row_pass_gives_each_row_its_own_iterate(rng, perturbed_rotation):
    maps = [perturbed_rotation] + [random_composition(rng, max_leaves=4) for _ in range(6)]
    for m in maps:
        xt, y = _points(rng, 300)
        ks = rng.integers(1, 9, len(xt))
        got = RowIterate(m, ks).lift_with_jacobian(xt, y)
        lift = RowIterate(m, ks).apply_lift(xt, y)
        for k in np.unique(ks):
            mine = ks == k
            want = Iterate(m, k).lift_with_jacobian(xt[mine], y[mine])
            for a, b in zip(got, want):
                assert np.array_equal(a[mine], b)
            for a, b in zip(lift, want[:2]):
                assert np.array_equal(a[mine], b)


def test_row_pass_rejects_counts_that_are_not_one_per_row(perturbed_rotation):
    with pytest.raises(ValueError):
        RowIterate(perturbed_rotation, [1, 0])
    with pytest.raises(ValueError):
        RowIterate(perturbed_rotation, 3)
    with pytest.raises(ValueError):
        RowIterate(perturbed_rotation, [1, 2]).apply_lift(np.zeros(3), np.zeros(3))


def test_row_pass_has_no_leaves_to_compose(perturbed_rotation):
    rows = RowIterate(perturbed_rotation, [1, 2])
    with pytest.raises(TypeError, match="no leaves"):
        rows.apply_point(0.1, 0.5)
    with pytest.raises(TypeError, match="no leaves"):
        Compose(rows, perturbed_rotation)


def test_repeated_or_unmatched_periods_are_rejected(perturbed_rotation):
    cfg = SearchConfig(grid=8)
    with pytest.raises(ValueError, match="repeat"):
        find_periodic_orbits(perturbed_rotation, [6, 6], [4, 4], cfg)
    with pytest.raises(ValueError, match="one entry"):
        find_periodic_orbits(perturbed_rotation, [6, 7], [4], cfg)
    with pytest.raises(ValueError, match="repeat"):
        find_periodic_orbits(perturbed_rotation, [6, 7], [[4, 4], [4]], cfg)


def test_periods_without_windings_find_nothing(perturbed_rotation):
    cfg = SearchConfig(grid=8)
    assert find_periodic_orbits(perturbed_rotation, [], [], cfg) == []
    assert find_periodic_orbits(perturbed_rotation, [6, 7], [[], []], cfg) == []
    assert (find_periodic_orbits(perturbed_rotation, [6, 7], [[], [4]], cfg)
            == find_periodic_orbits(perturbed_rotation, 7, 4, cfg))


def _census_period_by_period(m, windings, cfg):
    """Reference: one Newton run per period and grid, doubling the lattice
    per period until it has two distinct orbits or the density cap."""
    out = {}
    for q, ps in windings.items():
        grid = cfg.grid
        while True:
            orbits = find_periodic_orbits(m, q, ps, replace(cfg, grid=grid))
            censuses = [H.WindingCensus(p, tuple(o for o in orbits if o.p == p)) for p in ps]
            if sum(len(c.orbits) for c in censuses) >= 2 or grid >= cfg.max_grid:
                out[q] = censuses, grid
                break
            grid = min(2 * grid, cfg.max_grid)
    return out


def _readme_report(m):
    rep = verify_theorem(m, MeasureSpec.area(), MeasureSpec.boundary_lower(),
                         q_max=10, cfg=SearchConfig(grid=6))
    return json.dumps(rep.to_dict(), sort_keys=True), rep


def test_grid_doubling_is_per_period(perturbed_rotation, monkeypatch):
    calls = []
    real = H.find_periodic_orbits

    def counting(m, q, p, cfg):
        calls.append((cfg.grid, list(q), sum(len(ps) for ps in p)))
        return real(m, q, p, cfg)

    monkeypatch.setattr(H, "find_periodic_orbits", counting)
    merged, rep = _readme_report(perturbed_rotation)
    grids_used = [r.grid_used for r in rep.results]
    assert [r.q for r in rep.results] == [6, 7, 8, 9, 10]
    assert len(set(grids_used)) >= 3
    # one census per grid level, on the periods that still lack two orbits:
    # fewer (q, p) lattices, so fewer seeds per grid^2, at every level
    assert [c[0] for c in calls] == [6 * 2**i for i in range(len(calls))]
    assert calls[0][1] == [6, 7, 8, 9, 10]
    assert all(set(b[1]) < set(a[1]) and b[2] < a[2] for a, b in zip(calls, calls[1:]))
    assert max(grids_used) == calls[-1][0]

    monkeypatch.setattr(H, "find_periodic_orbits", real)
    monkeypatch.setattr(H, "_census", _census_period_by_period)
    reference, _ = _readme_report(perturbed_rotation)
    assert merged == reference
