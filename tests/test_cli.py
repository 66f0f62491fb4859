import json
from pathlib import Path

from annact.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    load_config,
    main,
)


def write_config(tmp_path: Path, cfg: dict, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


TWIST_VERIFY = {
    "schema_version": 1,
    "map": {"variant": "twist", "profile": {"kind": "linear"}},
    "measures": {"mu1": {"kind": "boundary_upper"}, "mu2": {"kind": "boundary_lower"}},
    "search": {"grid": 12},
    "task": {"q_max": 3},
}


def test_verify_pass_exit_and_outputs(tmp_path, capsys):
    cfg = dict(TWIST_VERIFY)
    cfg["output"] = {"dir": str(tmp_path / "out"), "prefix": "tw"}
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "q_threshold: 3" in out
    assert "overall: PASS" in out
    base = tmp_path / "out"
    for suffix in ("tw.txt", "tw.json", "tw_orbits.csv", "tw_plot.csv"):
        assert (base / suffix).exists()
    report = json.loads((base / "tw.json").read_text())
    assert report["schema_version"] == 1
    assert report["overall_verdict"] == "PASS"
    assert report["gap"]["delta"] == 0.5


def test_verify_byte_identical_outputs(tmp_path):
    cfg = dict(TWIST_VERIFY)
    cfg["output"] = {"dir": str(tmp_path / "out"), "prefix": "tw"}
    path = write_config(tmp_path, cfg)
    main(["verify", "--config", path])
    first = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}
    main(["verify", "--config", path])
    second = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}
    assert first == second


def test_verify_degenerate_gap_exit(tmp_path):
    cfg = {
        "schema_version": 1,
        "map": {"variant": "rigid_rotation", "a": 0.6180339887},
        "measures": {"mu1": {"kind": "boundary_upper"}, "mu2": {"kind": "boundary_lower"}},
    }
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path]) == EXIT_INCONCLUSIVE


def test_config_rejects_unknown_keys(tmp_path):
    cfg = dict(TWIST_VERIFY)
    cfg["unexpected"] = True
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path]) == EXIT_USAGE


def test_config_rejects_bad_schema(tmp_path):
    for mutation in (
        {"schema_version": 2},
        {"map": {"variant": "rigid_rotation"}},
        {"measures": {"mu1": {"kind": "area"}}},
        {"search": {"grid": 1}},
    ):
        cfg = json.loads(json.dumps(TWIST_VERIFY))
        cfg.update(mutation)
        path = write_config(tmp_path, cfg)
        assert main(["verify", "--config", path]) == EXIT_USAGE


def test_config_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,\n  "map": }')
    assert main(["verify", "--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "line 2" in err


def test_orbits_empty_census_exit_zero(capsys):
    assert main(["orbits", "--map", "rigid:a=0.618", "--q", "5", "--p", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0 orbit(s)" in out


def test_orbits_csv_output(tmp_path, capsys):
    out_csv = tmp_path / "census.csv"
    code = main([
        "orbits", "--map", "twist:linear", "--q", "2", "--p", "1",
        "--grid", "8", "--out", str(out_csv),
    ])
    assert code == EXIT_OK
    text = out_csv.read_text()
    assert text.startswith("orbit_id,j,x,y,xt,q,p,residual,action")


def test_action_subcommand(capsys):
    code = main([
        "action", "--map", "twist:linear", "--point", "0.3,1.0",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "g(0.3,1.0) = 0.5" in out
    assert "mean action" in out


def test_rotation_subcommand(capsys):
    assert main(["rotation", "--map", "rigid:a=0.25"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rotation[lower] = 0.25" in out
    assert "boundary identity defect = 0.0" in out


def test_example41_subcommand(capsys):
    code = main([
        "example41", "--a", "0.6180339887", "--center", "0.5,0.5",
        "--radius", "0.35", "--c", "50.85", "--q-max", "6",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_example41_zero_twist_degenerate():
    assert main([
        "example41", "--a", "0.6180339887", "--center", "0.5,0.5",
        "--radius", "0.35", "--c", "0",
    ]) == EXIT_INCONCLUSIVE


def test_usage_errors_exit_three():
    assert main(["verify"]) == EXIT_USAGE           # missing --config
    assert main(["orbits", "--map", "rigid:a=0.1"]) == EXIT_USAGE  # missing --q
    assert main(["action", "--map", "not-a-family:z=1"]) == EXIT_USAGE


def test_audit_subcommand(capsys):
    assert main(["audit", "--trials", "6", "--seed", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "audit: PASS" in out


def test_schema_is_self_consistent(tmp_path):
    # the documented example configuration validates
    cfg = {
        "schema_version": 1,
        "map": {
            "variant": "compose",
            "outer": {"variant": "rigid_rotation", "a": 0.6180339887},
            "inner": {
                "variant": "local_disk_twist",
                "center": [0.5, 0.5],
                "radius": 0.35,
                "profile": {"kind": "poly_bump", "c": 50.85},
            },
        },
        "context": {"beta": "canonical", "base_point": [0.0, 0.0]},
        "measures": {"mu1": {"kind": "area"}, "mu2": {"kind": "boundary_lower"}},
        "search": {"grid": 48, "max_grid": 384},
        "task": {"q_max": 6, "workers": 2},
        "output": {"dir": "out", "prefix": "report"},
    }
    path = write_config(tmp_path, cfg)
    loaded = load_config(path)
    assert loaded["task"]["q_max"] == 6


README_MAP = {
    "variant": "compose",
    "outer": {"variant": "rigid_rotation", "a": 0.6180339887},
    "inner": {
        "variant": "local_disk_twist",
        "center": [0.5, 0.5],
        "radius": 0.35,
        "profile": {"kind": "poly_bump", "c": 50.85},
    },
}


def test_verify_empirical_measure_without_q_max(tmp_path):
    # the empirical action carries an error bar near 1e-2; the verdict comes
    # from verify_theorem's error-bar gate, not from a strict Birkhoff pre-pass
    cfg = {
        "schema_version": 1,
        "map": README_MAP,
        "measures": {
            "mu1": {"kind": "empirical", "seed": [0.3, 0.55], "n_iter": 20000},
            "mu2": {"kind": "boundary_lower"},
        },
        "search": {"grid": 24},
    }
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out-dir", str(out)]) == EXIT_OK
    for suffix in ("report.txt", "report.json", "report_orbits.csv", "report_plot.csv"):
        assert (out / suffix).is_file()


def test_verify_measures_each_action_once(tmp_path, monkeypatch):
    import annact.harness as H

    calls = []

    def counted(*args, _measure=H.measure_action, **kwargs):
        calls.append(args[2])
        return _measure(*args, **kwargs)

    monkeypatch.setattr(H, "measure_action", counted)
    without_q_max = {k: v for k, v in TWIST_VERIFY.items() if k != "task"}
    for cfg in (TWIST_VERIFY, without_q_max):
        calls.clear()
        assert main(["verify", "--config", write_config(tmp_path, cfg)]) == EXIT_OK
        assert len(calls) == 2


def test_verify_refuses_a_derived_range_past_the_cap(tmp_path, capsys):
    # a weak bump: delta = pi c R^4 / 12 puts the threshold near q = 255
    cfg = {
        "schema_version": 1,
        "map": dict(README_MAP, inner=dict(README_MAP["inner"],
                                           profile={"kind": "poly_bump", "c": 1.0})),
        "measures": {"mu1": {"kind": "area"}, "mu2": {"kind": "boundary_lower"}},
    }
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == EXIT_USAGE
    assert "q_max" in capsys.readouterr().err
    assert main(["example41", "--a", "0.6180339887", "--radius", "0.35", "--c", "1"]) == EXIT_USAGE
    assert "q_max" in capsys.readouterr().err


def test_degenerate_gap_goes_to_stderr(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "map": {"variant": "rigid_rotation", "a": 0.6180339887},
        "measures": {"mu1": {"kind": "boundary_upper"}, "mu2": {"kind": "boundary_lower"}},
    }
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("DegenerateGap: ")
    assert main(["example41", "--a", "0.6180339887", "--radius", "0.35", "--c", "0"]) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("DegenerateGap: ")


def test_verify_with_an_orbit_measure(tmp_path, capsys):
    # mu1 is orbit 0 of the (6, 4) census at the config's grid; its rotation
    # number is p / q exactly
    cfg = {
        "schema_version": 1,
        "map": README_MAP,
        "measures": {"mu1": {"kind": "orbit", "q": 6, "p": 4, "index": 0},
                     "mu2": {"kind": "area"}},
        "search": {"grid": 24},
        "task": {"q_max": 8},
    }
    out = tmp_path / "out"
    assert main(["verify", "--config", write_config(tmp_path, cfg), "--out-dir", str(out)]) == EXIT_OK
    mu1 = json.loads((out / "report.json").read_text())["measures"][0]
    assert mu1["role"] == "mu1" and mu1["description"] == "orbit(q=6,p=4)"
    assert mu1["rotation"] == 4 / 6 and mu1["rotation_error"] == 0.0
    capsys.readouterr()
    cfg["measures"]["mu1"]["index"] = 999
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == EXIT_USAGE
    assert ("census found 7 orbit(s) of type (6,4), index 999 unavailable"
            in capsys.readouterr().err)


def test_verify_needs_a_measures_section(tmp_path, capsys):
    cfg = {k: v for k, v in TWIST_VERIFY.items() if k != "measures"}
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == EXIT_USAGE
    assert "verify needs a 'measures' section" in capsys.readouterr().err
