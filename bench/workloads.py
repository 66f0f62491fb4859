"""Inputs, instances and correctness checks of the three benchmark workloads.

Each workload is three steps, kept apart so that only the middle one is timed:

- ``make_inputs(name, seed, workdir, tiny)`` turns the seed into plain inputs
  (a config file, a map shorthand, config dicts and points). It does not call
  annact.
- ``run_instance(name, inputs)`` drives annact once, only through
  ``annact.cli.main`` and the names exported by ``annact``. Every call looks
  the name up on the module at call time, so the layer trace sees it.
- ``check_instance(name, inputs, raw)`` checks the outputs and returns the
  failures found and the number of distinct orbits the instance reported.
  Orbit closure and distinctness are re-checked with the benchmark's own map
  evaluator, not with annact's kernels.

The orbit census of the README map is not saturated: at grid 192 the (6, 4)
census finds 48 to 72 orbits when the rotation number moves by 1e-6, or when
the disk is translated by a whole lattice step. So the census workloads keep
the README map for every seed; only ``invariants`` draws its inputs from it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import annact
import annact.cli

WORKLOADS = ("verify-readme", "census-deep", "invariants")
README_CONFIG = Path(__file__).resolve().parent / "inputs" / "readme_config.json"
CLOSURE_TOL = 1e-9
DISTINCT_TOL = 1e-6
IDENTITY_TOL = 1e-6
PATH_DEFECT_TOL = 1e-8
README_Q_THRESHOLD = 6
OUTPUT_SUFFIXES = (".txt", ".json", "_orbits.csv", "_plot.csv")


def _readme_config() -> dict:
    return json.loads(README_CONFIG.read_text())


def _readme_map_params(cfg: dict) -> dict:
    disk = cfg["map"]["inner"]
    return {"a": cfg["map"]["outer"]["a"], "cx": disk["center"][0], "cy": disk["center"][1],
            "R": disk["radius"], "c": disk["profile"]["c"]}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_inputs(name: str, seed: int, workdir: Path, tiny: bool = False) -> dict:
    """Inputs of one workload; the same seed gives the same inputs."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = _readme_config()
    if name == "verify-readme":
        if tiny:
            cfg["search"]["grid"] = 16
            cfg["task"]["q_max"] = README_Q_THRESHOLD
            cfg["measures"]["mu2"]["n_iter"] = 1000
        path = workdir / ("verify_tiny.json" if tiny else "verify.json")
        path.write_text(json.dumps(cfg, indent=2))
        return {"config": str(path), "out_dir": str(workdir / "verify_out"),
                "prefix": cfg["output"]["prefix"], "params": _readme_map_params(cfg)}
    if name == "census-deep":
        p = _readme_map_params(cfg)
        shorthand = (f"rigid:a={p['a']!r}*disk:cx={p['cx']!r},cy={p['cy']!r},"
                     f"R={p['R']!r},c={p['c']!r}")
        return {"map": shorthand, "q": 6, "p": 4, "grid": 16 if tiny else 192,
                "out": str(workdir / "census.csv"), "params": p}
    if name == "invariants":
        return _invariant_inputs(seed, cfg, tiny)
    raise ValueError(f"unknown workload {name!r}")


def _random_leaf(rng: np.random.Generator) -> dict:
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return {"variant": "rigid_rotation", "a": float(rng.uniform(-1.0, 1.0))}
    if kind == 1:
        return {"variant": "twist", "profile": {"kind": "linear"}}
    if kind == 2:
        return {"variant": "twist", "profile": {"kind": "poly_bump", "c": float(rng.uniform(-1.5, 1.5))}}
    cy = float(rng.uniform(0.25, 0.75))
    cx = float(rng.uniform(0.0, 1.0))
    radius = float(rng.uniform(0.3, 0.9)) * min(cy, 1.0 - cy)
    return {"variant": "local_disk_twist", "center": [cx, cy], "radius": radius,
            "profile": {"kind": "poly_bump", "c": float(rng.uniform(-6.0, 6.0))}}


def _random_composition(rng: np.random.Generator, leaves: int) -> dict:
    expr = _random_leaf(rng)
    for _ in range(leaves - 1):
        expr = {"variant": "compose", "outer": _random_leaf(rng), "inner": expr}
    return expr


def _invariant_inputs(seed: int, cfg: dict, tiny: bool) -> dict:
    rng = np.random.default_rng(seed)
    weak = json.loads(json.dumps(cfg["map"]))
    weak["inner"]["profile"]["c"] = 1.0
    named = [("readme", cfg["map"]), ("weak_bump", weak)]
    # 1 to 4 leaves, equally often, so that seeds differ little in total work
    maps = named + [(f"random{i}", _random_composition(rng, 1 + i % 4))
                    for i in range(3 if tiny else 24)]
    cases = []
    for label, mcfg in maps:
        target = (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 1.0)))
        mid = (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))
        cases.append({"label": label, "map": mcfg, "target": target, "mid": mid})
    starts = [(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 0.95))) for _ in named]
    return {
        "cases": cases,
        "empirical": [{"label": label, "map": mcfg, "start": s}
                      for (label, mcfg), s in zip(named, starts)],
        "boundary_n_iter": 1000 if tiny else 100_000,
        "empirical_n_iter": 1000 if tiny else 20_000,
        # None keeps measure_rotation's own default, which iterates 1e5 steps
        "rotation_n_iter": 1000 if tiny else None,
        "disk": {label: _readme_map_params({"map": mcfg}) for label, mcfg in named},
    }


# ---------------------------------------------------------------------------
# instances (the timed part)
# ---------------------------------------------------------------------------

def run_instance(name: str, inputs: dict):
    """Run one instance; returns what check_instance needs."""
    if name == "verify-readme":
        return _run_cli(["verify", "--config", inputs["config"], "--out-dir", inputs["out_dir"]])
    if name == "census-deep":
        return _run_cli(["orbits", "--map", inputs["map"], "--q", str(inputs["q"]),
                         "--p", str(inputs["p"]), "--grid", str(inputs["grid"]),
                         "--workers", "1", "--out", inputs["out"]])
    if name == "invariants":
        return _run_invariants(inputs)
    raise ValueError(f"unknown workload {name!r}")


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return annact.cli.main(argv)


def _run_invariants(inp: dict) -> dict:
    ctx = annact.ActionContext.default()
    n_b = inp["boundary_n_iter"]
    rows = []
    for case in inp["cases"]:
        m = annact.map_from_config(case["map"])
        origin = annact.LiftedPoint(0.0, 0.0)
        mid = annact.LiftedPoint(*case["mid"])
        end = annact.LiftedPoint(*case["target"])
        rows.append({
            "label": case["label"],
            "calabi": annact.calabi(m, ctx).value,
            "rho_area": annact.mean_rotation_area(m).value,
            "a_lower": annact.measure_action(m, ctx, annact.MeasureSpec("boundary_lower", n_iter=n_b)).value,
            "a_upper": annact.measure_action(m, ctx, annact.MeasureSpec("boundary_upper", n_iter=n_b)).value,
            "rho_upper": annact.boundary_rotation_number(m, "upper").value,
            "path_defect": annact.path_independence_defect(
                m, ctx, annact.AnnulusPoint(*case["target"]),
                annact.PolylinePath((origin, mid, end))),
        })
    empirical = []
    rot_kw = {} if inp["rotation_n_iter"] is None else {"n_iter": inp["rotation_n_iter"]}
    for case in inp["empirical"]:
        m = annact.map_from_config(case["map"])
        mu = annact.MeasureSpec.empirical(annact.AnnulusPoint(*case["start"]), inp["empirical_n_iter"])
        empirical.append({
            "label": case["label"],
            "action": annact.measure_action(m, ctx, mu, tol=math.inf).value,
            "rotation": annact.measure_rotation(m, mu, **rot_kw).value,
        })
    return {"rows": rows, "empirical": empirical}


# ---------------------------------------------------------------------------
# checks (never timed)
# ---------------------------------------------------------------------------

def check_instance(name: str, inputs: dict, raw) -> tuple[list[str], int]:
    """(failures, orbits_found) of one instance; no failures means correct.

    orbits_found counts the distinct certified orbits reported. The
    invariants workload runs no census; there it counts the empirical orbits
    it follows, a fixed number that no change should move. Output files are
    removed after the check, so each instance must write its own.
    """
    if name == "verify-readme":
        try:
            return _check_verify(inputs, raw)
        finally:
            shutil.rmtree(inputs["out_dir"], ignore_errors=True)
    if name == "census-deep":
        try:
            return _check_census(inputs, raw)
        finally:
            Path(inputs["out"]).unlink(missing_ok=True)
    if name == "invariants":
        return _check_invariants(inputs, raw), len(raw["empirical"])
    raise ValueError(f"unknown workload {name!r}")


def _check_census(inputs: dict, rc: int) -> tuple[list[str], int]:
    if rc != 0:
        return [f"orbits exited with code {rc}"], 0
    orbits = _read_orbit_csv(Path(inputs["out"]))
    fails = _check_orbits(orbits, inputs["params"])
    if len(orbits) < 2:
        fails.append(f"census found {len(orbits)} orbit(s), expected at least 2")
    return fails, len(orbits)


def expected_delta(params: dict) -> float:
    """Action gap of the README map family: the disk twist's mean action."""
    return math.pi * params["c"] * params["R"] ** 4 / 12.0


def _check_verify(inputs: dict, rc: int) -> tuple[list[str], int]:
    if rc != 0:
        return [f"verify exited with code {rc}"], 0
    out = Path(inputs["out_dir"])
    files = {suffix: out / f"{inputs['prefix']}{suffix}" for suffix in OUTPUT_SUFFIXES}
    missing = [str(f) for f in files.values() if not f.is_file()]
    if missing:
        return [f"missing outputs: {missing}"], 0
    rep = json.loads(files[".json"].read_text())
    fails = []
    want = expected_delta(inputs["params"])
    delta = rep["gap"]["delta"]
    if not abs(delta - want) <= 1e-9 * want:
        fails.append(f"delta {delta!r} differs from pi c R^4 / 12 = {want!r}")
    if rep["q_threshold"] != README_Q_THRESHOLD:
        fails.append(f"q_threshold {rep['q_threshold']} != {README_Q_THRESHOLD}")
    if rep["overall_verdict"] != "PASS":
        fails.append(f"verdict {rep['overall_verdict']}")
    orbits = _read_orbit_csv(files["_orbits.csv"])
    fails += _check_orbits(orbits, inputs["params"], distinct=False)
    reported = sum(r["distinct_orbits"] for r in rep["results"])
    if reported != len(orbits):
        fails.append(f"report counts {reported} orbits, CSV holds {len(orbits)}")
    return fails, len(orbits)


def _read_orbit_csv(path: Path) -> list[dict]:
    orbits: dict[int, dict] = {}
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            orb = orbits.setdefault(int(row["orbit_id"]), {
                "q": int(row["q"]), "p": int(row["p"]), "points": []})
            orb["points"].append((float(row["xt"]), float(row["y"])))
    return [orbits[k] for k in sorted(orbits)]


def readme_family_lift(params: dict, xt: float, y: float) -> tuple[float, float]:
    """Lift of rigid(a) o disk_twist(c (1 - (r/R)^2)^2), written out with the
    math module independently of annact's kernels."""
    u = (xt - params["cx"] + 0.5) % 1.0 - 0.5
    v = y - params["cy"]
    r = math.hypot(u, v)
    R = params["R"]
    if r < R:
        t = 1.0 - (r / R) ** 2
        ang = params["c"] * t * t
        ca, sa = math.cos(ang), math.sin(ang)
        xt, y = xt + (u * ca - v * sa - u), y + (u * sa + v * ca - v)
    return xt + params["a"], y


def _closure_residual(params: dict, orb: dict) -> float:
    x0, y0 = orb["points"][0]
    xt, y = x0, y0
    for _ in range(orb["q"]):
        xt, y = readme_family_lift(params, xt, y)
    return max(abs(xt - x0 - orb["p"]), abs(y - y0))


def orbit_distance(a: np.ndarray, b: np.ndarray, p: int) -> float:
    """Max pointwise distance of two (q, p) orbits, minimised over cyclic
    relabelling and integer deck translation."""
    q = len(a)
    j = np.arange(q)
    best = math.inf
    for s in range(q):
        idx = (j + s) % q
        bx = b[idx, 0] + p * ((j + s) // q)
        dx = a[:, 0] - bx
        dx -= np.round(np.median(dx))
        best = min(best, float(max(np.max(np.abs(dx)), np.max(np.abs(a[:, 1] - b[idx, 1])))))
    return best


def _check_orbits(orbits: list[dict], params: dict, distinct: bool = True) -> list[str]:
    fails = []
    for k, orb in enumerate(orbits):
        if len(orb["points"]) != orb["q"]:
            fails.append(f"orbit {k} lists {len(orb['points'])} points for q={orb['q']}")
            continue
        res = _closure_residual(params, orb)
        if not res < CLOSURE_TOL:
            fails.append(f"orbit {k} (q={orb['q']}, p={orb['p']}) does not close: {res:.3e}")
    if distinct:
        arrays = [np.array(o["points"]) for o in orbits]
        for i in range(len(orbits)):
            for k in range(i):
                d = orbit_distance(arrays[i], arrays[k], orbits[i]["p"])
                if not d > DISTINCT_TOL:
                    fails.append(f"orbits {k} and {i} coincide (distance {d:.3e})")
    return fails


def _check_invariants(inputs: dict, raw: dict) -> list[str]:
    fails = []
    for row in raw["rows"]:
        ident = abs(row["rho_area"] - (row["a_lower"] - row["a_upper"] + row["rho_upper"]))
        if not ident < IDENTITY_TOL:
            fails.append(f"{row['label']}: boundary identity defect {ident:.3e}")
        if not row["path_defect"] < PATH_DEFECT_TOL:
            fails.append(f"{row['label']}: path-independence defect {row['path_defect']:.3e}")
        if row["label"] in inputs["disk"]:
            want = expected_delta(inputs["disk"][row["label"]])
            if not abs(abs(row["calabi"]) - want) <= 1e-8 * want:
                fails.append(f"{row['label']}: mean action {row['calabi']!r}, expected +-{want!r}")
    for emp in raw["empirical"]:
        if not (math.isfinite(emp["action"]) and math.isfinite(emp["rotation"])):
            fails.append(f"{emp['label']}: empirical values not finite")
    return fails
