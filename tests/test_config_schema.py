"""The configuration schema is checked once, here, instead of on every load."""

import json

import jsonschema
import pytest
from jsonschema.validators import validator_for

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
