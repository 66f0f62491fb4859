"""Command-line front end.

Subcommands:
  action    - action function values, mean action, measure actions
  rotation  - boundary / measure rotation numbers and the boundary identity
  orbits    - periodic orbit census for one winding or a windowed range
  verify    - full theorem verification, writes text/JSON/CSV reports
  example41 - the local-perturbation pipeline with parameter flags
  audit     - property suites (area preservation, path independence,
              mean action against a midpoint rule, primitive-shift invariance)

Exit codes: 0 success/PASS, 1 FAIL verdict present, 2 INCONCLUSIVE or
non-convergent, 3 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .action import (
    BIRKHOFF_N_ITER,
    ActionContext,
    MeasureSpec,
    action_function,
    action_function_values,
    calabi,
    measure_action,
    path_independence_defect,
    shifted_action_difference,
)
from .errors import AnnactError, ConfigError, DegenerateGapError, NonConvergentError
from .harness import (
    VerificationReport,
    candidate_windings,
    example_local_perturbation,
    local_perturbation_map,
    verify_theorem,
)
from .maps import (
    Compose,
    LinearProfile,
    LocalDiskTwist,
    MapExpr,
    PolyBumpProfile,
    RigidRotation,
    Twist,
    area_defect,
    map_from_config,
    map_from_shorthand,
    orbit_arrays,
    random_builtin,
    random_composition,
)
from .orbits import SearchConfig, find_periodic_orbits, orbits_to_csv
from .phase_space import AnnulusPoint, LiftedPoint, PolylinePath, ShiftedBeta
from .rotation import (
    boundary_rotation_number,
    lemma_boundary_identity_defect,
    mean_rotation_area,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


# ---------------------------------------------------------------------------
# configuration schema (v1)
# ---------------------------------------------------------------------------

_MAP_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"variant": {"const": "rigid_rotation"}, "a": {"type": "number"}},
            "required": ["variant", "a"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "variant": {"const": "twist"},
                "profile": {"$ref": "#/$defs/twist_profile"},
            },
            "required": ["variant", "profile"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "variant": {"const": "local_disk_twist"},
                "center": {"$ref": "#/$defs/point"},
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "profile": {"$ref": "#/$defs/radial_profile"},
            },
            "required": ["variant", "center", "radius", "profile"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "variant": {"const": "compose"},
                "outer": {"$ref": "#/$defs/map"},
                "inner": {"$ref": "#/$defs/map"},
            },
            "required": ["variant", "outer", "inner"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "variant": {"const": "iterate"},
                "base": {"$ref": "#/$defs/map"},
                "k": {"type": "integer", "minimum": 1},
            },
            "required": ["variant", "base", "k"],
            "additionalProperties": False,
        },
    ]
}

_MEASURE_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "kind": {"enum": ["boundary_lower", "boundary_upper", "area"]},
                # accepted and ignored: these actions are exact
                "n_iter": {"type": "integer", "minimum": 1000},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "empirical"},
                "seed": {"$ref": "#/$defs/point"},
                "n_iter": {"type": "integer", "minimum": 1000},
            },
            "required": ["kind", "seed"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "orbit"},
                "q": {"type": "integer", "minimum": 1},
                "p": {"type": "integer"},
                "index": {"type": "integer", "minimum": 0},
            },
            "required": ["kind", "q", "p"],
            "additionalProperties": False,
        },
    ]
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema_version": {"const": 1},
        "map": {"$ref": "#/$defs/map"},
        "context": {
            "type": "object",
            "properties": {
                "beta": {
                    "oneOf": [
                        {"const": "canonical"},
                        {
                            "type": "object",
                            "properties": {"shift": {"type": "number"}},
                            "required": ["shift"],
                            "additionalProperties": False,
                        },
                    ]
                },
                "base_point": {"$ref": "#/$defs/point"},
            },
            "additionalProperties": False,
        },
        "measures": {
            "type": "object",
            "properties": {
                "mu1": {"$ref": "#/$defs/measure"},
                "mu2": {"$ref": "#/$defs/measure"},
            },
            "required": ["mu1", "mu2"],
            "additionalProperties": False,
        },
        "search": {
            "type": "object",
            "properties": {
                "grid": {"type": "integer", "minimum": 2},
                "max_grid": {"type": "integer", "minimum": 2},
            },
            "additionalProperties": False,
        },
        "task": {
            "type": "object",
            "properties": {
                "q_max": {"type": "integer", "minimum": 1},
                # accepted and ignored: the census is one batched run
                "workers": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {
                "dir": {"type": "string"},
                "prefix": {"type": "string"},
            },
            "additionalProperties": False,
        },
    },
    "required": ["schema_version", "map"],
    "additionalProperties": False,
    "$defs": {
        "point": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
        "map": _MAP_SCHEMA,
        "measure": _MEASURE_SCHEMA,
        "twist_profile": {
            "oneOf": [
                {
                    "type": "object",
                    "properties": {
                        "kind": {"const": "negated"},
                        "base": {"$ref": "#/$defs/twist_profile"},
                    },
                    "required": ["kind", "base"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {"kind": {"const": "linear"}},
                    "required": ["kind"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {"kind": {"const": "poly_bump"}, "c": {"type": "number"}},
                    "required": ["kind", "c"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "kind": {"const": "tabulated"},
                        "y": {"type": "array", "items": {"type": "number"}, "minItems": 4},
                        "phi": {"type": "array", "items": {"type": "number"}, "minItems": 4},
                    },
                    "required": ["kind", "y", "phi"],
                    "additionalProperties": False,
                },
            ]
        },
        "radial_profile": {
            "oneOf": [
                {
                    "type": "object",
                    "properties": {
                        "kind": {"const": "negated"},
                        "base": {"$ref": "#/$defs/radial_profile"},
                    },
                    "required": ["kind", "base"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {"kind": {"const": "poly_bump"}, "c": {"type": "number"}},
                    "required": ["kind", "c"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "kind": {"const": "tabulated"},
                        "r": {"type": "array", "items": {"type": "number"}, "minItems": 4},
                        "phi": {"type": "array", "items": {"type": "number"}, "minItems": 4},
                    },
                    "required": ["kind", "r", "phi"],
                    "additionalProperties": False,
                },
            ]
        },
    },
}


@functools.cache
def _config_validator():
    """The CONFIG_SCHEMA validator, built on the first load so that importing
    the CLI does not import jsonschema. CONFIG_SCHEMA is a constant, so it is
    checked once by a test rather than on every load, as
    jsonschema.validate would."""
    import jsonschema

    return jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: line {e.lineno} col {e.colno}: {e.msg}") from e
    from jsonschema.exceptions import best_match

    error = best_match(_config_validator().iter_errors(cfg))
    if error is not None:
        loc = "/".join(str(x) for x in error.absolute_path) or "<root>"
        raise ConfigError(f"config {path}: at {loc}: {error.message}") from error
    return cfg


def _context_from_config(cfg: dict) -> ActionContext:
    ctx_cfg = cfg.get("context", {})
    beta_cfg = ctx_cfg.get("beta", "canonical")
    base = ctx_cfg.get("base_point", [0.0, 0.0])
    base_point = AnnulusPoint(float(base[0]), float(base[1]))
    if beta_cfg == "canonical":
        return ActionContext(base_point=base_point)
    return ActionContext(beta=ShiftedBeta(float(beta_cfg["shift"])), base_point=base_point)


def _search_from_config(cfg: dict) -> SearchConfig:
    # the schema admits only SearchConfig fields, whose defaults live there
    return SearchConfig(**cfg.get("search", {}))


def _measure_from_config(mcfg: dict, m: MapExpr, cfg_search: SearchConfig) -> MeasureSpec:
    kind = mcfg["kind"]
    if kind in ("boundary_lower", "boundary_upper", "area"):
        return MeasureSpec(kind)
    if kind == "empirical":
        seed = mcfg["seed"]
        return MeasureSpec.empirical(AnnulusPoint(seed[0], seed[1]),
                                     mcfg.get("n_iter", BIRKHOFF_N_ITER))
    if kind == "orbit":
        orbits = find_periodic_orbits(m, mcfg["q"], mcfg["p"], cfg_search)
        idx = mcfg.get("index", 0)
        if idx >= len(orbits):
            raise ConfigError(
                f"orbit measure: census found {len(orbits)} orbit(s) of type "
                f"({mcfg['q']},{mcfg['p']}), index {idx} unavailable")
        return MeasureSpec.from_orbit(orbits[idx])
    raise ConfigError(f"unknown measure kind {kind!r}")


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def render_report_text(rep: VerificationReport) -> str:
    lines = []
    lines.append(f"map: {rep.map_description}")
    for role, s in (("mu1", rep.mu1), ("mu2", rep.mu2)):
        lines.append(
            f"{role}: {s.description}  action={s.action!r} (err {s.action_error!r})  "
            f"rotation={s.rotation!r} (err {s.rotation_error!r})"
        )
    lines.append(f"action gap: delta={rep.gap!r} (err {rep.gap_error!r})")
    lines.append(f"q_threshold: {rep.q_threshold}")
    for r in rep.results:
        lines.append(
            f"q={r.q}: {r.verdict}  distinct_orbits={r.distinct_orbits}  "
            f"grid={r.grid_used}  prime_least_period_ok={r.prime_least_period_ok}"
        )
        for w in r.windings:
            lines.append(f"  p={w.p}: {len(w.orbits)} orbit(s)")
            for o in w.orbits:
                lines.append(
                    f"    start=({o.points[0].xt!r},{o.points[0].y!r})  "
                    f"residual={o.residual!r}  least_period={o.least_period}  "
                    f"action={o.action!r}  degenerate={o.degenerate_flag}"
                )
        for n in r.notes:
            lines.append(f"  note: {n}")
    lines.append(f"overall: {rep.overall_verdict}")
    for n in rep.notes:
        lines.append(f"note: {n}")
    return "\n".join(lines) + "\n"


def render_report_json(rep: VerificationReport) -> str:
    return json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n"


def phase_portrait_csv(m: MapExpr, seeds_per_axis: int = 12, steps: int = 200) -> str:
    """Plot-ready trajectories: kind,id,step,x,y with deterministic seeds."""
    n = seeds_per_axis
    i, j = np.divmod(np.arange(n * n), n)
    xs, ys = orbit_arrays(m, (i + 0.5) / n, (j + 0.5) / n, steps)
    lines = ["kind,id,step,x,y"]
    for sid in range(n * n):
        # one seed column at a time keeps the Python floats small in memory
        for step, (xt, y) in enumerate(zip(xs[:, sid].tolist(), ys[:, sid].tolist())):
            lines.append(f"trajectory,{sid},{step},{xt % 1.0!r},{y!r}")
    return "\n".join(lines) + "\n"


def report_orbit_rows(rep: VerificationReport) -> list:
    orbits = []
    for r in rep.results:
        for w in r.windings:
            orbits.extend(w.orbits)
    return orbits


def write_verification_outputs(rep: VerificationReport, m: MapExpr, out_dir: str,
                               prefix: str = "report") -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    txt = out / f"{prefix}.txt"
    txt.write_text(render_report_text(rep))
    written.append(str(txt))
    js = out / f"{prefix}.json"
    js.write_text(render_report_json(rep))
    written.append(str(js))
    csv_path = out / f"{prefix}_orbits.csv"
    csv_path.write_text(orbits_to_csv(report_orbit_rows(rep)))
    written.append(str(csv_path))
    plot_path = out / f"{prefix}_plot.csv"
    orbit_rows = []
    for oid, orb in enumerate(report_orbit_rows(rep)):
        for step, pt in enumerate(orb.points):
            orbit_rows.append(f"orbit,{oid},{step},{pt.xt % 1.0!r},{pt.y!r}")
    # two writes: joining the 1 MB portrait to the orbit rows would copy it
    with plot_path.open("w") as fh:
        fh.write(phase_portrait_csv(m))
        if orbit_rows:
            fh.write("\n".join(orbit_rows) + "\n")
    written.append(str(plot_path))
    return written


def _report_and_exit(rep: VerificationReport, m: MapExpr, out_dir: str | None,
                     prefix: str) -> int:
    """Write the four files when out_dir is set, print the report text and
    return the exit code of its overall verdict."""
    if out_dir:
        for path in write_verification_outputs(rep, m, out_dir, prefix):
            print(f"wrote {path}")
    print(render_report_text(rep), end="")
    return {"PASS": EXIT_OK, "FAIL": EXIT_FAIL}.get(rep.overall_verdict, EXIT_INCONCLUSIVE)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _resolve_map(args, cfg: dict | None) -> MapExpr:
    if getattr(args, "map", None):
        return map_from_shorthand(args.map)
    if cfg is not None:
        return map_from_config(cfg["map"])
    raise ConfigError("no map given: use --map SHORTHAND or --config FILE")


def _maybe_config(args) -> dict | None:
    if getattr(args, "config", None):
        return load_config(args.config)
    return None


def cmd_action(args) -> int:
    cfg = _maybe_config(args)
    m = _resolve_map(args, cfg)
    ctx = _context_from_config(cfg) if cfg else ActionContext.default()
    if args.beta_shift is not None:
        ctx = ActionContext(beta=ShiftedBeta(args.beta_shift), base_point=ctx.base_point)
    print(f"map: {m.describe()}")
    for spec in args.point or []:
        x, y = (float(t) for t in spec.split(","))
        p = AnnulusPoint(x, y)
        print(f"g({p.x!r},{p.y!r}) = {action_function(m, ctx, p)!r}")
    cv = calabi(m, ctx)
    print(f"mean action (Calabi) = {cv.value!r} (err {cv.error_estimate!r})")
    for name in ("boundary_lower", "boundary_upper", "area"):
        mv = measure_action(m, ctx, MeasureSpec(name))
        print(f"action[{name}] = {mv.value!r} (err {mv.error_estimate!r})")
    return EXIT_OK


def cmd_rotation(args) -> int:
    cfg = _maybe_config(args)
    m = _resolve_map(args, cfg)
    print(f"map: {m.describe()}")
    lo = boundary_rotation_number(m, "lower")
    hi = boundary_rotation_number(m, "upper")
    ar = mean_rotation_area(m)
    print(f"rotation[lower] = {lo.value!r} (err {lo.error_estimate!r}, exact={lo.exact})")
    print(f"rotation[upper] = {hi.value!r} (err {hi.error_estimate!r}, exact={hi.exact})")
    print(f"rotation[area]  = {ar.value!r} (err {ar.error_estimate!r})")
    defect = lemma_boundary_identity_defect(m)
    print(f"boundary identity defect = {defect!r}")
    return EXIT_OK


def cmd_orbits(args) -> int:
    cfg = _maybe_config(args)
    m = _resolve_map(args, cfg)
    search = _search_from_config(cfg) if cfg else SearchConfig()
    if args.grid is not None:
        # the orbits census reads no max_grid; raise it so that any grid is a valid config
        search = replace(search, grid=args.grid, max_grid=max(args.grid, search.max_grid))
    ps = [args.p] if args.p is not None else candidate_windings(m, args.q)
    all_orbits = find_periodic_orbits(m, args.q, ps, search)
    for p in ps:
        orbits = [o for o in all_orbits if o.p == p]
        print(f"q={args.q} p={p}: {len(orbits)} orbit(s)")
        for o in orbits:
            print(
                f"  start=({o.points[0].xt!r},{o.points[0].y!r}) residual={o.residual!r} "
                f"least_period={o.least_period} action={o.action!r} degenerate={o.degenerate_flag}"
            )
    if args.out:
        Path(args.out).write_text(orbits_to_csv(all_orbits))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if "measures" not in cfg:
        raise ConfigError("verify needs a 'measures' section with mu1 and mu2")
    m = map_from_config(cfg["map"])
    ctx = _context_from_config(cfg)
    search = _search_from_config(cfg)
    task = cfg.get("task", {})
    mu1 = _measure_from_config(cfg["measures"]["mu1"], m, search)
    mu2 = _measure_from_config(cfg["measures"]["mu2"], m, search)
    rep = verify_theorem(m, mu1, mu2, q_max=task.get("q_max"), cfg=search, ctx=ctx)
    out_cfg = cfg.get("output", {})
    return _report_and_exit(rep, m, args.out_dir or out_cfg.get("dir"),
                            out_cfg.get("prefix", "report"))


def cmd_example41(args) -> int:
    cx, cy = (float(t) for t in args.center.split(","))
    center = AnnulusPoint(cx, cy)
    rep = example_local_perturbation(args.a, center, args.radius, args.c, q_max=args.q_max)
    m = local_perturbation_map(args.a, center, args.radius, args.c)
    return _report_and_exit(rep, m, args.out_dir, "example41")


# ---------------------------------------------------------------------------
# audit suites
# ---------------------------------------------------------------------------

def _audit_line(name: str, worst: float, tol: float) -> tuple[str, bool]:
    ok = worst < tol
    return f"[{'PASS' if ok else 'FAIL'}] {name}: worst {worst:.3e} (tol {tol:g})", ok


def cmd_audit(args) -> int:
    rng = np.random.default_rng(args.seed)
    ok_all = True
    lines = []

    families = [
        RigidRotation(0.6180339887),
        Twist(LinearProfile()),
        Twist(PolyBumpProfile(0.8)),
        LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), 0.35, 50.85),
    ]
    worst = max(area_defect(m, 64) for m in families)
    for _ in range(args.trials // 4):
        worst = max(worst, area_defect(random_composition(rng), 64))
    line, ok = _audit_line("area preservation (64x64 grids)", worst, 1e-9)
    lines.append(line)
    ok_all &= ok

    ctx = ActionContext.default()
    worst = 0.0
    for _ in range(args.trials):
        m = random_composition(rng)
        target = AnnulusPoint(float(rng.uniform(0, 1)), float(rng.uniform(0.05, 1)))
        mid = LiftedPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        dogleg = PolylinePath((LiftedPoint(0.0, 0.0), mid, LiftedPoint(target.x, target.y)))
        worst = max(worst, path_independence_defect(m, ctx, target, dogleg))
    line, ok = _audit_line("path independence (random dog-legs)", worst, 1e-8)
    lines.append(line)
    ok_all &= ok

    # the mean-action engine against a rule that knows nothing of leaves: the
    # midpoint mean of g over the square, O(h^2) accurate with h = 1/200
    mid = (np.arange(200) + 0.5) / 200
    X, Y = np.meshgrid(mid, mid, indexing="ij")
    worst = 0.0
    for _ in range(args.trials):
        m1 = random_builtin(rng)
        m2 = random_builtin(rng)
        both = Compose(m2, m1)
        midpoint = float(np.mean(action_function_values(both, ctx, X, Y)))
        worst = max(worst, abs(calabi(both, ctx).value - midpoint))
    line, ok = _audit_line("mean action vs 200x200 midpoint rule (random pairs)", worst, 1e-5)
    lines.append(line)
    ok_all &= ok

    tw = Twist(LinearProfile())
    worst = 0.0
    for c in (-1.0, -0.3, 0.7, 2.0):
        base, shifted = shifted_action_difference(
            tw, MeasureSpec("boundary_upper"), MeasureSpec("boundary_lower"), c)
        worst = max(worst, abs(shifted - base - c * 1.0))
        rot = RigidRotation(0.37)
        base, shifted = shifted_action_difference(
            rot, MeasureSpec("boundary_upper"), MeasureSpec("boundary_lower"), c)
        worst = max(worst, abs(shifted - base))
    line, ok = _audit_line("primitive-shift law (boundary pairs)", worst, 1e-6)
    lines.append(line)
    ok_all &= ok

    for text in lines:
        print(text)
    print(f"audit: {'PASS' if ok_all else 'FAIL'}")
    return EXIT_OK if ok_all else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annact",
        description="Actions, rotation numbers and periodic orbits of exact "
                    "area-preserving annulus maps.",
    )
    parser.add_argument("--version", action="version", version=f"annact {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_map_args(sp):
        sp.add_argument("--map", help="map shorthand, e.g. rigid:a=0.618 or "
                                      "rigid:a=0.618*disk:cx=0.5,cy=0.5,R=0.35,c=50.85")
        sp.add_argument("--config", help="JSON experiment configuration")

    sp = sub.add_parser("action", help="action function, mean action, measure actions")
    add_map_args(sp)
    sp.add_argument("--point", action="append", help="x,y (repeatable)")
    sp.add_argument("--beta-shift", type=float, default=None, help="use beta + c dx")
    sp.set_defaults(func=cmd_action)

    sp = sub.add_parser("rotation", help="rotation numbers and the boundary identity")
    add_map_args(sp)
    sp.set_defaults(func=cmd_rotation)

    sp = sub.add_parser("orbits", help="periodic orbit census")
    add_map_args(sp)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--p", type=int, default=None, help="single winding (default: windowed)")
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--workers", type=int, default=None,
                    help="ignored: the census is one batched run in this process")
    sp.add_argument("--out", help="write orbit CSV here")
    sp.set_defaults(func=cmd_orbits)

    sp = sub.add_parser("verify", help="full theorem verification from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out-dir", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("example41", help="local-perturbation pipeline")
    sp.add_argument("--a", type=float, required=True, help="rotation number (turns)")
    sp.add_argument("--center", default="0.5,0.5", help="bump center x,y")
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--c", type=float, required=True, help="chart rotation at the center (radians)")
    sp.add_argument("--q-max", type=int, default=None)
    sp.add_argument("--out-dir", default=None)
    sp.set_defaults(func=cmd_example41)

    sp = sub.add_parser("audit", help="property suites")
    sp.add_argument("--seed", type=int, default=2024)
    sp.add_argument("--trials", type=int, default=20)
    sp.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse uses code 2 for usage errors; remap to the documented code
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateGapError as e:
        print(f"DegenerateGap: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except NonConvergentError as e:
        print(f"NonConvergent: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except AnnactError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
