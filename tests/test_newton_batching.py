"""One Newton run per period: the seeds of all windings are polished together,
and the line search tries several damping levels per residual call. Neither
may change a result: each row must take exactly the steps of a one-level-at-a-
time line search run on its winding alone."""

import numpy as np
import pytest

import annact.orbits as orbits_mod
from annact import SearchConfig, candidate_windings, find_periodic_orbits
from annact.maps import Iterate, random_composition
from annact.orbits import (
    MAX_BACKTRACKS,
    NEWTON_DAMPING,
    NEWTON_MAX_STEPS,
    NEWTON_TARGET,
    _newton_polish,
    _newton_steps,
    _residual_norm_only,
    _seed_lattice,
)


def _sequential_polish(m, q, p, seeds):
    """Reference: damped Newton for one winding, with a line search that tries
    one damping level per residual call."""
    fq = Iterate(m, q)
    z = np.array(seeds, dtype=float).reshape(-1, 2).copy()
    active = np.ones(len(z), dtype=bool)
    done = np.zeros(len(z), dtype=bool)
    for _ in range(NEWTON_MAX_STEPS):
        idx = np.nonzero(active & ~done)[0]
        if idx.size == 0:
            break
        zi = z[idx]
        xt, y, jac = fq.lift_with_jacobian(zi[:, 0], zi[:, 1])
        g = np.stack([xt - zi[:, 0] - p, y - zi[:, 1]], axis=1)
        jac = jac - np.eye(2)
        ni = np.linalg.norm(g, axis=1)
        newly_done = ni < NEWTON_TARGET
        done[idx[newly_done]] = True
        live = ~newly_done
        if not np.any(live):
            continue
        sub = idx[live]
        step = _newton_steps(g[live], jac[live])
        moving = np.any(step != 0.0, axis=1)
        active[sub[~moving]] = False
        sub, step, base_norm = sub[moving], step[moving], ni[live][moving]
        lam = np.ones(len(sub))
        accepted = np.zeros(len(sub), dtype=bool)
        trial = np.empty_like(z[sub])
        for _ in range(MAX_BACKTRACKS):
            todo = ~accepted
            if not np.any(todo):
                break
            cand = z[sub][todo] + lam[todo, None] * step[todo]
            cand[:, 1] = np.clip(cand[:, 1], 0.0, 1.0)
            cand_norm = _residual_norm_only(fq, cand, p)
            improved = (cand_norm <= base_norm[todo] * (1.0 - 1e-4 * lam[todo])) | (
                cand_norm < NEWTON_TARGET
            )
            sel = np.nonzero(todo)[0]
            trial[sel[improved]] = cand[improved]
            accepted[sel[improved]] = True
            lam[sel[~improved]] *= NEWTON_DAMPING
        z[sub[accepted]] = trial[accepted]
        active[sub[~accepted]] = False
    return z[_residual_norm_only(fq, z, p) < NEWTON_TARGET * 10]


def _assert_polish_matches(m, q, p, cfg):
    seeds = _seed_lattice(cfg.grid)
    want = _sequential_polish(m, q, p, seeds)
    got, windings = _newton_polish(m, q, p, seeds)
    assert np.array_equal(got, want)
    assert np.array_equal(windings, np.full(len(want), p))


def test_polish_matches_the_sequential_line_search_on_the_readme_map(perturbed_rotation):
    _assert_polish_matches(perturbed_rotation, 6, 4, SearchConfig(grid=48))


@pytest.mark.parametrize("q,p", [(2, 1), (3, 1), (4, 3)])
def test_polish_matches_the_sequential_line_search_on_the_linear_twist(linear_twist, q, p):
    _assert_polish_matches(linear_twist, q, p, SearchConfig(grid=16))


def test_polish_matches_the_sequential_line_search_on_random_maps(rng):
    for _ in range(4):
        m = random_composition(rng)
        for p in candidate_windings(m, 3):
            _assert_polish_matches(m, 3, p, SearchConfig(grid=16))


@pytest.mark.parametrize("q", [6, 7, 8])
def test_stacked_windings_equal_the_single_winding_censuses(perturbed_rotation, q):
    ps = candidate_windings(perturbed_rotation, q)
    assert len(ps) > 1
    stacked = find_periodic_orbits(perturbed_rotation, q, ps)
    single = [o for p in ps
              for o in find_periodic_orbits(perturbed_rotation, q, p)]
    assert stacked == single


def test_line_search_call_budget(perturbed_rotation, monkeypatch):
    rows = []
    real = orbits_mod._residual_norm_only

    def counting(fq, z, p):
        rows.append(len(z))
        return real(fq, z, p)

    monkeypatch.setattr(orbits_mod, "_residual_norm_only", counting)
    cfg = SearchConfig(grid=48)
    find_periodic_orbits(perturbed_rotation, 6, [3, 4], cfg)
    # one residual call per damping level would make about 800
    assert len(rows) <= 60
    assert max(rows) <= 2 * cfg.grid**2


def test_census_rejects_a_repeated_winding(perturbed_rotation):
    with pytest.raises(ValueError, match="repeat"):
        find_periodic_orbits(perturbed_rotation, 6, [4, 4], SearchConfig(grid=24))
