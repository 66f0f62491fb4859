"""Census and config knobs do what their names say, or are rejected: a census
is one Newton run, `--grid 0` is a usage error, and every empirical default
is the same length. A removed keyword is a TypeError, a removed flag a usage
error and a removed config key a config error. The knobs that are still
accepted and not read change no output."""

import inspect
import json

import numpy as np
import pytest

import annact.orbits as orbits_mod
from annact import (
    ActionContext,
    AnnulusPoint,
    ExplicitField,
    LiftedPoint,
    MeasureSpec,
    PolylinePath,
    QuadratureSpec,
    SearchConfig,
    candidate_windings,
    find_periodic_orbits,
    grid_scan_orbits,
    lemma_boundary_identity_defect,
    measure_action,
    measure_rotation,
    orbit_distance,
    path_independence_defect,
    refine_orbit,
    rotation_number_point,
)
from annact.cli import EXIT_USAGE, main


def test_census_is_one_newton_run(perturbed_rotation, monkeypatch):
    cfg = SearchConfig(grid=24)
    ps = candidate_windings(perturbed_rotation, 6)
    reference = find_periodic_orbits(perturbed_rotation, 6, ps, cfg)
    calls = []
    polish = orbits_mod._newton_polish

    def counting(*args, **kwargs):
        calls.append(len(args[3]))
        return polish(*args, **kwargs)

    monkeypatch.setattr(orbits_mod, "_newton_polish", counting)
    orbits = find_periodic_orbits(perturbed_rotation, 6, ps, cfg)
    assert calls == [24 * 24 * len(ps)]
    assert orbits == reference


def test_orbits_grid_zero_is_a_usage_error(capsys):
    assert main(["orbits", "--map", "twist:linear", "--q", "3", "--p", "1", "--grid", "0"]) == EXIT_USAGE
    assert "grid and max_grid must be positive" in capsys.readouterr().err


def test_max_grid_below_grid_is_rejected():
    with pytest.raises(ValueError, match="max_grid"):
        SearchConfig(grid=24, max_grid=12)


def test_verify_with_max_grid_below_grid_is_a_usage_error(tmp_path, capsys):
    # the README config, with a cap below its grid
    cfg = {
        "schema_version": 1,
        "map": {
            "variant": "compose",
            "outer": {"variant": "rigid_rotation", "a": 0.6180339887},
            "inner": {"variant": "local_disk_twist", "center": [0.5, 0.5], "radius": 0.35,
                      "profile": {"kind": "poly_bump", "c": 50.85}},
        },
        "measures": {"mu1": {"kind": "area"}, "mu2": {"kind": "boundary_lower"}},
        "search": {"grid": 96, "max_grid": 48},
        "task": {"q_max": 8},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
    assert "max_grid" in capsys.readouterr().err


def test_orbits_grid_above_the_default_max_grid_runs():
    # the orbits census reads no max_grid, so --grid raises it
    assert main(["orbits", "--map", "rigid:a=0.3", "--q", "1", "--p", "0", "--grid", "400"]) == 0


def test_every_empirical_default_is_one_length():
    seed = AnnulusPoint(0.3, 0.55)
    n = MeasureSpec.empirical(seed).n_iter
    assert MeasureSpec("empirical", seed=seed).n_iter == n
    assert inspect.signature(rotation_number_point).parameters["n_iter"].default == n
    assert inspect.signature(measure_rotation).parameters["n_iter"].default == n


def _field(x, y):
    return np.zeros_like(y)


_DOGLEG = PolylinePath((LiftedPoint(0.0, 0.0), LiftedPoint(0.4, 0.7), LiftedPoint(0.3, 0.9)))

REMOVED_KEYWORDS = {
    "find_periodic_orbits(workers=)":
        lambda m: find_periodic_orbits(m, 1, 0, SearchConfig(grid=2), workers=1),
    "lemma_boundary_identity_defect(n_iter=)":
        lambda m: lemma_boundary_identity_defect(m, n_iter=1000),
    "ExplicitField(claims_area_form=)":
        lambda m: ExplicitField(_field, _field, claims_area_form=True),
    "QuadratureSpec(points_per_segment=)":
        lambda m: QuadratureSpec(points_per_segment=5),
    "SearchConfig(degenerate_threshold=)":
        lambda m: SearchConfig(degenerate_threshold=1e-8),
    "path_independence_defect(tol=)":
        lambda m: path_independence_defect(
            m, ActionContext.default(), AnnulusPoint(0.3, 0.9), _DOGLEG, tol=1e-10),
    "orbit_distance(a, b, q, p)":
        lambda m: orbit_distance(np.zeros((3, 2)), np.zeros((3, 2)), 3, 1),
    **{f"SearchConfig({name}=)": (lambda m, name=name: SearchConfig(**{name: value}))
       for name, value in [("newton_max_steps", 50), ("newton_damping", 0.5),
                           ("max_backtracks", 8), ("newton_target", 1e-12),
                           ("dedup_tolerance", 1e-6), ("boundary_margin", 0.0)]},
    "refine_orbit(cfg=)":
        lambda m: refine_orbit(m, None, 1e-12, cfg=SearchConfig()),
    "grid_scan_orbits(cfg=)":
        lambda m: grid_scan_orbits(m, 1, 0, n=4, cfg=SearchConfig()),
    "grid_scan_orbits(capture_threshold=)":
        lambda m: grid_scan_orbits(m, 1, 0, n=4, capture_threshold=5e-3),
}


@pytest.mark.parametrize("call", REMOVED_KEYWORDS.values(), ids=REMOVED_KEYWORDS.keys())
def test_removed_keyword_is_a_type_error(linear_twist, call):
    with pytest.raises(TypeError):
        call(linear_twist)


@pytest.mark.parametrize("command", ["action", "rotation"])
def test_removed_n_iter_flag_is_a_usage_error(command):
    assert main([command, "--map", "twist:linear", "--n-iter", "5"]) == EXIT_USAGE


@pytest.mark.parametrize("section, key, value", [
    ("search", "newton_damping", 0.5),
    ("search", "newton_max_steps", 50),
    ("search", "dedup_tolerance", 1e-6),
    ("search", "boundary_margin", 0.0),
    ("task", "n_iter", 2000),
])
def test_removed_config_key_is_a_config_error(tmp_path, capsys, section, key, value):
    cfg = {
        "schema_version": 1,
        "map": {"variant": "twist", "profile": {"kind": "linear"}},
        "measures": {"mu1": {"kind": "empirical", "seed": [0.3, 0.1]},
                     "mu2": {"kind": "boundary_upper"}},
        "search": {"grid": 12},
        "task": {"q_max": 3},
    }
    cfg[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path)]) == EXIT_USAGE
    assert key in capsys.readouterr().err


def test_orbits_workers_flag_changes_nothing(tmp_path, capsys):
    argv = ["orbits", "--map", "rigid:a=0.6180339887*disk:cx=0.5,cy=0.5,R=0.35,c=50.85",
            "--q", "3", "--grid", "12"]
    outputs = []
    for extra in ([], ["--workers", "1"], ["--workers", "3"]):
        out = tmp_path / f"census{len(outputs)}.csv"
        assert main(argv + extra + ["--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out.replace(str(out), "CSV"), out.read_bytes()))
    assert outputs[1] == outputs[0] == outputs[2]


def test_config_workers_and_exact_measure_n_iter_change_nothing(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "map": {"variant": "twist", "profile": {"kind": "linear"}},
        "measures": {"mu1": {"kind": "boundary_upper"}, "mu2": {"kind": "area"}},
        "search": {"grid": 12},
        "task": {"q_max": 4},
    }
    knobs = json.loads(json.dumps(cfg))
    knobs["measures"]["mu1"]["n_iter"] = 1000
    knobs["measures"]["mu2"]["n_iter"] = 1000
    knobs["task"]["workers"] = 1
    files = []
    for name, c in (("plain", cfg), ("knobs", knobs)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(c))
        out_dir = tmp_path / name
        assert main(["verify", "--config", str(path), "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        files.append({f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
    assert len(files[0]) == 4
    assert files[0] == files[1]


def test_library_n_iter_on_exact_measures_changes_nothing(perturbed_rotation):
    ctx = ActionContext.default()
    for variant in ("boundary_lower", "boundary_upper"):
        plain, knob = MeasureSpec(variant), MeasureSpec(variant, n_iter=1000)
        assert measure_action(perturbed_rotation, ctx, knob) == measure_action(
            perturbed_rotation, ctx, plain)
        assert measure_rotation(perturbed_rotation, knob) == measure_rotation(
            perturbed_rotation, plain)
    mu = MeasureSpec.empirical(AnnulusPoint(0.3, 0.55), 2000)
    assert measure_rotation(perturbed_rotation, mu, n_iter=1000) == measure_rotation(
        perturbed_rotation, mu)
