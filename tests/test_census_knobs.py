"""Census and config knobs do what their names say, or are rejected: a census
is one Newton run whatever `workers` says, a search needs at least one
line-search level, `--grid 0` is a usage error, and `task.n_iter` sets the
length of empirical measures that set none."""

import json

import pytest

import annact.orbits as orbits_mod
from annact import SearchConfig, candidate_windings, find_periodic_orbits
from annact.cli import EXIT_USAGE, main


@pytest.mark.parametrize("bad", [0, -1])
def test_search_config_rejects_no_backtracks(bad):
    with pytest.raises(ValueError, match="step counts must be positive"):
        SearchConfig(grid=24, max_backtracks=bad)


@pytest.mark.parametrize("workers", [1, 3, 8])
def test_census_is_one_newton_run_whatever_the_workers(perturbed_rotation, monkeypatch, workers):
    cfg = SearchConfig(grid=24)
    ps = candidate_windings(perturbed_rotation, 6)
    reference = find_periodic_orbits(perturbed_rotation, 6, ps, cfg)
    calls = []
    polish = orbits_mod._newton_polish

    def counting(*args, **kwargs):
        calls.append(len(args[3]))
        return polish(*args, **kwargs)

    monkeypatch.setattr(orbits_mod, "_newton_polish", counting)
    orbits = find_periodic_orbits(perturbed_rotation, 6, ps, cfg, workers=workers)
    assert calls == [24 * 24 * len(ps)]
    assert orbits == reference


def test_orbits_grid_zero_is_a_usage_error(capsys):
    assert main(["orbits", "--map", "twist:linear", "--q", "3", "--p", "1", "--grid", "0"]) == EXIT_USAGE
    assert "grid and step counts must be positive" in capsys.readouterr().err


def test_task_n_iter_sets_empirical_measure_length(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "map": {"variant": "twist", "profile": {"kind": "linear"}},
        "measures": {"mu1": {"kind": "empirical", "seed": [0.3, 0.1]},
                     "mu2": {"kind": "boundary_upper"}},
        "search": {"grid": 12},
        "task": {"q_max": 3, "n_iter": 2000},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    main(["verify", "--config", str(path)])
    out = capsys.readouterr().out
    assert "n=2000" in out
    assert "n=100000" not in out
