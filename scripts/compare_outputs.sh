#!/usr/bin/env bash
# Compare annact's outputs at a git revision with those of the working tree.
#
# Usage: scripts/compare_outputs.sh [REV]    (REV defaults to HEAD)
#
# Extracts REV with `git archive` into a temporary directory and runs the same
# commands with each source tree (inputs always come from the working tree):
# the `verify` reports of the README config and of the README map with an
# empirical measure of 2e4 and of 1e5 steps (CI's configs; the second runs
# the point pass at the CLI's default scale), `example41` at c = 50.85 and at
# c = 10.5 with --q-max 27 and 40, the (6, 4) census CSVs at grids 192 and
# 384, the README config's q = 6 census at grid 48, `audit --trials 200
# --seed 11`, `action` and `rotation` on two maps, the raw results of the
# bench `invariants` workload at seeds 0 to 5, and two library entry points
# that no command reaches: `grid_scan_orbits` on the README map at (6, 4) with
# n = 800, and `refine_orbit` to 1e-12 from each orbit of the README map's
# (6, 4) census at grid 48 (the refined orbit, or the NonConvergentError's
# message and value). A map with an `Iterate` factor, a squared disk twist
# after a rotation, takes the inner loop of the point pass: `action`,
# `rotation` and the q = 3 census at grid 24 on it, and its
# `rotation_number_point` over 2e4 steps, whose compiled orbit loop holds
# that inner loop. Exits 1 on any difference.
set -euo pipefail
rev=${1:-HEAD}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"
readme="rigid:a=0.6180339887*disk:cx=0.5,cy=0.5,R=0.35,c=50.85"
twist_disk="twist:bump,c=0.9*disk:cx=0.37,cy=0.52,R=0.3,c=4.2"
# an Iterate factor: the disk twist squared, after a rotation
it="disk:cx=0.37,cy=0.52,R=0.3,c=4.2^2*rigid:a=0.3"
ex41=(example41 --a 0.6180339887 --center 0.5,0.5 --radius 0.35)
# the README map with an empirical measure, which steps the one-point orbit kernel
cat > "$tmp/empirical_config.json" <<'JSON'
{
  "schema_version": 1,
  "map": {
    "variant": "compose",
    "outer": {"variant": "rigid_rotation", "a": 0.6180339887},
    "inner": {
      "variant": "local_disk_twist",
      "center": [0.5, 0.5],
      "radius": 0.35,
      "profile": {"kind": "poly_bump", "c": 50.85}
    }
  },
  "measures": {
    "mu1": {"kind": "empirical", "seed": [0.3, 0.55], "n_iter": 20000},
    "mu2": {"kind": "boundary_lower"}
  },
  "search": {"grid": 24},
  "task": {"q_max": 4},
  "output": {"dir": "out", "prefix": "report"}
}
JSON
python3 - "$tmp" <<'PY'
import json, sys
cfg = json.load(open(f"{sys.argv[1]}/empirical_config.json"))
cfg["measures"]["mu1"]["n_iter"] = 100000
json.dump(cfg, open(f"{sys.argv[1]}/empirical_1e5_config.json", "w"))
PY

run_set() {  # run_set TREE OUT: the outputs of TREE's annact, written under OUT
  local tree=$1 out=$2
  cli() { PYTHONPATH="$tree/src" python3 -m annact.cli "$@"; }
  mkdir -p "$out"
  cli verify --config "$root/bench/inputs/readme_config.json" --out-dir "$out/verify" > /dev/null
  cli verify --config "$tmp/empirical_config.json" --out-dir "$out/verify_empirical" > /dev/null
  cli verify --config "$tmp/empirical_1e5_config.json" --out-dir "$out/verify_empirical_1e5" > /dev/null
  cli "${ex41[@]}" --c 50.85 --out-dir "$out/example41_c50.85" > /dev/null
  cli "${ex41[@]}" --c 10.5 --q-max 27 --out-dir "$out/example41_c10.5" > /dev/null
  cli "${ex41[@]}" --c 10.5 --q-max 40 --out-dir "$out/example41_c10.5_q40" > /dev/null
  for grid in 192 384; do
    cli orbits --map "$readme" --q 6 --p 4 --grid "$grid" --out "$out/census_$grid.csv" > /dev/null
  done
  cli orbits --config "$root/bench/inputs/readme_config.json" --q 6 --grid 48 \
    --out "$out/orbits_q6_48.csv" > /dev/null
  cli audit --trials 200 --seed 11 > "$out/audit.txt"
  for m in "$readme" "$twist_disk" "$it"; do
    cli action --map "$m" --point 0.5,0.5
    cli rotation --map "$m"
  done > "$out/action_rotation.txt"
  cli orbits --map "$it" --q 3 --grid 24 --out "$out/iterate_q3_24.csv" > /dev/null
  PYTHONPATH="$tree/src:$root/bench" python3 - "$out.work" > "$out/invariants.txt" <<'PY'
import pathlib, sys, workloads
for seed in range(6):
    inputs = workloads.make_inputs("invariants", seed, pathlib.Path(sys.argv[1]))
    print(repr(workloads.run_instance("invariants", inputs)))
PY
  PYTHONPATH="$tree/src" python3 - "$readme" "$it" > "$out/scan_refine.txt" <<'PY'
import sys
from annact import (AnnulusPoint, NonConvergentError, SearchConfig, find_periodic_orbits,
                    grid_scan_orbits, map_from_shorthand, refine_orbit, rotation_number_point)
print("rotation", repr(rotation_number_point(map_from_shorthand(sys.argv[2]),
                                             AnnulusPoint(0.3, 0.55), 20000)))
m = map_from_shorthand(sys.argv[1])
for o in grid_scan_orbits(m, 6, 4, n=800):
    print("scan", repr(o))
for i, o in enumerate(find_periodic_orbits(m, 6, 4, SearchConfig(grid=48))):
    try:
        print("refine", i, repr(refine_orbit(m, o, 1e-12)))
    except NonConvergentError as e:
        print("refine", i, "NonConvergentError", e, repr(e.value))
PY
}

run_set "$tmp/rev" "$tmp/out_rev"
run_set "$root" "$tmp/out_tree"
diff -rq "$tmp/out_rev" "$tmp/out_tree" || exit 1
echo "outputs of $rev and of the working tree are byte-identical"
