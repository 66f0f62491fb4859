"""CLI start-up cost and the example41 output files."""

import os
import subprocess
import sys
from pathlib import Path

import annact
from annact.cli import EXIT_OK, main


def test_cli_import_leaves_scipy_interpolate_unloaded():
    src = str(Path(annact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, annact.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_example41_writes_its_four_outputs(tmp_path, capsys):
    out_dir = tmp_path / "ex41"
    code = main([
        "example41", "--a", "0.6180339887", "--center", "0.5,0.5",
        "--radius", "0.35", "--c", "50.85", "--q-max", "6", "--out-dir", str(out_dir),
    ])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    for suffix in (".txt", ".json", "_orbits.csv", "_plot.csv"):
        path = out_dir / f"example41{suffix}"
        assert path.is_file() and path.stat().st_size > 0
        assert f"wrote {path}" in printed
