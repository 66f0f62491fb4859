"""annact benchmark: run one workload for a fixed time and print its metrics.

Run from the root of an annact checkout:

    python3 bench/run.py --workload verify-readme --seed 0 --seconds 35 --trace 0

The annact under test is the one in ``src/`` of the checkout; the run fails
(exit code 2, no result) when there is none. With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run instead. The line
before it records the run facts (versions, commit, cores, seed, BLAS
threads). See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# every process of the benchmark runs numpy with one BLAS thread
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh interpreter that imports annact.cli, builds the
    # inputs and exits; the parent times it as the set-up cost
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (checkout is not a git repository)"
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_facts(args) -> dict:
    import numpy
    import scipy

    import annact

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "annact": annact.__version__,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
    }


def setup_probes(args) -> list[dict]:
    """Time fresh interpreters that import annact.cli and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    probes = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        info = json.loads(proc.stdout.splitlines()[-1])
        info["setup_s"] = wall
        probes.append(info)
    return probes


class Outcome(NamedTuple):
    wall: float
    failures: list[str]
    orbits: int


def run_instance(workloads, name: str, inputs: dict, trace=None) -> Outcome:
    """Time one instance (with the trace installed, if given), then check it."""
    if trace is not None:
        trace.reset()
        trace.install()
    try:
        t0 = time.perf_counter()
        try:
            raw = workloads.run_instance(name, inputs)
        except Exception as exc:  # a failing instance is counted, not fatal
            raw = exc
        wall = time.perf_counter() - t0
    finally:
        if trace is not None:
            trace.restore()
    if isinstance(raw, Exception):
        return Outcome(wall, [f"{type(raw).__name__}: {raw}"], 0)
    return Outcome(wall, *workloads.check_instance(name, inputs, raw))


class Tally:
    """Instances attempted and failed, with the first failures kept for stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, failures: list[str]):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures[:3])


def cpu_ticks() -> list[int] | None:
    """Machine-wide CPU tick counters from /proc/stat, if readable."""
    try:
        with open("/proc/stat") as fh:
            return [int(t) for t in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of CPU time the host took from this machine (steal) in between:
    a sign of contention from outside that slows every timing."""
    if before is None or after is None or len(after) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    return delta[7] / sum(delta) if sum(delta) else None


def measure(args, workdir: Path) -> tuple[dict, dict]:
    """Run the workload; returns (samples for the run facts, result)."""
    import layer_trace
    import workloads

    probes = setup_probes(args)
    inputs = workloads.make_inputs(args.workload, args.seed, workdir)
    tally = Tally()
    # warm-up at tiny size: lazy imports and caches fill, nothing is timed
    warm = workloads.make_inputs(args.workload, args.seed, workdir / "warmup", tiny=True)
    tally.add(run_instance(workloads, args.workload, warm).failures)

    walls, orbits_found, layer_rows, traced_walls = [], [], [], []
    trace = layer_trace.LayerTrace() if args.trace else None
    peak_rss_mb = None
    cpu_before = cpu_ticks()
    start = time.perf_counter()
    while True:
        # with --trace 1 the first instance runs untraced, for the overhead
        traced = trace is not None and bool(walls)
        out = run_instance(workloads, args.workload, inputs, trace if traced else None)
        tally.add(out.failures)
        if traced:
            traced_walls.append(out.wall)
            layer_rows.append(trace.metrics(out.wall))
        else:
            walls.append(out.wall)
            orbits_found.append(out.orbits)
        if peak_rss_mb is None:
            # ru_maxrss is in KiB on Linux: the peak of this process, which
            # so far has run the tiny warm-up and one full instance
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # closed loop: the next instance starts if, taking as long as this
        # one, it ends within --seconds
        if time.perf_counter() - start + out.wall > args.seconds and (trace is None or traced_walls):
            break
    steal = steal_share(cpu_before, cpu_ticks())

    for msg in tally.messages[:10]:
        print(f"check failed: {msg}", file=sys.stderr)
    if trace is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "orbits_found": (statistics.median(orbits_found), "count"),
        }
    else:
        trace.write_spans(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = {key: (statistics.median(row[key][0] for row in layer_rows), unit)
                   for key, (_, unit) in layer_rows[0].items()}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls), "s")
        metrics["import.annact_cli.s"] = (statistics.median(p["import_s"] for p in probes), "s")
        metrics["import.modules"] = (statistics.median(p["modules"] for p in probes), "count")
    samples = {"untraced_wall_s": walls, "traced_wall_s": traced_walls, "cpu_steal_share": steal}
    return samples, {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "annact" / "__init__.py").is_file():
        print(f"error: no annact package under {SRC}; run from the root of an annact checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    before = len(sys.modules)
    t0 = time.perf_counter()
    import annact.cli

    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - before
    if Path(annact.cli.__file__).resolve().parent != SRC / "annact":
        print(f"error: imported annact from {annact.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        if args.setup_probe:
            workloads.make_inputs(args.workload, args.seed, workdir)
            print(json.dumps({"import_s": import_s, "modules": modules}))
            return 0
        samples, result = measure(args, workdir)
        facts = run_facts(args) | samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
