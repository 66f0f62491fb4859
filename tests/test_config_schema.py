"""The configuration schema is checked once, here, instead of on every load;
its validator is built on the first load."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from jsonschema.validators import validator_for

import annact
from annact.cli import CONFIG_SCHEMA, load_config
from annact.errors import ConfigError

VALID = {
    "schema_version": 1,
    "map": {"variant": "twist", "profile": {"kind": "linear"}},
    "measures": {"mu1": {"kind": "boundary_upper"}, "mu2": {"kind": "boundary_lower"}},
}


def test_config_schema_is_a_valid_schema():
    validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


@pytest.mark.parametrize("mutation", [
    {"schema_version": 2},
    {"map": {"variant": "rigid_rotation"}},
    {"measures": {"mu1": {"kind": "area"}}},
    {"search": {"grid": 1}},
    {"task": {"workers": 0, "q_max": "8"}},
])
def test_config_errors_match_jsonschema_validate(tmp_path, mutation):
    cfg = {**VALID, **mutation}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    loc = "/".join(str(x) for x in want.value.absolute_path) or "<root>"
    with pytest.raises(ConfigError) as got:
        load_config(str(path))
    assert str(got.value) == f"config {path}: at {loc}: {want.value.message}"


def test_cli_import_leaves_jsonschema_unloaded():
    src = str(Path(annact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, annact.cli; print('jsonschema' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"
