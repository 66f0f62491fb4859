"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import annact  # noqa: E402
import annact.cli  # noqa: E402
import annact.harness  # noqa: E402
import annact.maps  # noqa: E402
import annact.orbits  # noqa: E402
import layer_trace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".points")
COUNT_NAMES = ("orbits.seeds", "orbits.orbits_returned")


def _bindings() -> dict:
    """Every function and map kernel bound in an annact module or class."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "annact" or name.startswith("annact."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    for cls in vars(annact.maps).values():
        if isinstance(cls, type) and issubclass(cls, annact.maps.MapExpr):
            for kernel in layer_trace.KERNELS:
                if kernel in vars(cls):
                    out[(cls.__name__, kernel)] = vars(cls)[kernel]
    return out


def _traced(name, inputs):
    trace = layer_trace.LayerTrace()
    out = run.run_instance(workloads, name, inputs, trace)
    assert out.failures == []
    return trace.metrics(out.wall)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_instance_passes_its_check(name, tmp_path):
    inputs = workloads.make_inputs(name, 0, tmp_path, tiny=True)
    failures, orbits = workloads.check_instance(name, inputs, workloads.run_instance(name, inputs))
    assert failures == []
    assert orbits >= 2
    for key in ("out_dir", "out"):  # outputs are removed once checked
        assert key not in inputs or not Path(inputs[key]).exists()


def test_inputs_follow_the_seed(tmp_path):
    a = workloads.make_inputs("invariants", 5, tmp_path)
    assert a == workloads.make_inputs("invariants", 5, tmp_path)
    assert a != workloads.make_inputs("invariants", 6, tmp_path)
    readme = json.loads(workloads.README_CONFIG.read_text())["map"]
    assert a["cases"][0]["map"] == readme


def test_census_check_catches_an_orbit_that_does_not_close(tmp_path):
    inputs = workloads.make_inputs("census-deep", 0, tmp_path, tiny=True)
    assert workloads.run_instance("census-deep", inputs) == 0
    path = Path(inputs["out"])
    lines = path.read_text().splitlines()
    cols = lines[1].split(",")
    cols[3] = repr(float(cols[3]) + 1e-7)  # y of the first orbit's start point
    path.write_text("\n".join([lines[0], ",".join(cols)] + lines[2:]) + "\n")
    failures, _ = workloads.check_instance("census-deep", inputs, 0)
    assert any("does not close" in f for f in failures)


def test_orbit_distance_sees_through_relabelling_and_deck_shift():
    pts = [(0.1, 0.2), (0.7, 0.4), (1.3, 0.6)]
    shifted = [(x + 1.0, y) for x, y in pts[1:]] + [(pts[0][0] + 2.0, pts[0][1])]
    assert workloads.orbit_distance(np.array(pts), np.array(shifted), 1) < 1e-12


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    trace = layer_trace.LayerTrace()
    trace.install()
    try:
        wrapped = annact.cli.find_periodic_orbits
        assert wrapped is not before[("annact.orbits", "find_periodic_orbits")]
        assert annact.harness.find_periodic_orbits is wrapped
        assert annact.find_periodic_orbits is wrapped
    finally:
        trace.restore()
    assert _bindings() == before
    _traced("verify-readme", workloads.make_inputs("verify-readme", 0, tmp_path, tiny=True))
    assert _bindings() == before


def test_failing_traced_instance_still_restores(tmp_path):
    before = _bindings()
    inputs = workloads.make_inputs("invariants", 0, tmp_path, tiny=True)
    inputs["cases"][0]["map"] = {"variant": "no_such_map"}
    failures = run.run_instance(workloads, "invariants", inputs, layer_trace.LayerTrace()).failures
    assert failures and "ConfigError" in failures[0]
    assert _bindings() == before


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(name, tmp_path):
    inputs = workloads.make_inputs(name, 0, tmp_path, tiny=True)
    first, second = _traced(name, inputs), _traced(name, inputs)
    counts = [k for k in first if k.endswith(COUNT_SUFFIXES) or k in COUNT_NAMES]
    assert len(counts) >= 10
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["maps.apply_lift.points"][0] > 0
    if name != "invariants":
        assert first["orbits.find_periodic_orbits.calls"][0] >= 1
        assert first["orbits.orbits_returned"][0] >= 2


def _run_benchmark(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census-deep", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_the_declared_metrics(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run_benchmark(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout.splitlines()[-2])["facts"]
    assert facts["seed"] == 0 and facts["blas_threads"] == run.BLAS_THREADS
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
