"""An inverse map's config loads again: a negated profile is written as
{"kind": "negated", "base": {...}}, the schema admits it at any depth, and
map_from_config reads it back as base.negated(), so the reloaded inverse
describes and steps like the inverse itself."""

import numpy as np
import pytest
from jsonschema.validators import validator_for

from annact import AnnulusPoint, LinearProfile, LocalDiskTwist, PolyBumpProfile, Twist
from annact.cli import CONFIG_SCHEMA
from annact.maps import Compose, RigidRotation, TabulatedProfile, TabulatedRadial, map_from_config

YS = np.linspace(0.0, 1.0, 9)
RS = np.linspace(0.0, 0.3, 7)
POINTS = np.array([[0.5, 0.5], [0.41582889288, 0.64276544], [0.1, 0.5], [0.63, 0.42],
                   [-0.27, 0.31], [1.37, 0.0], [0.5, 1.0], [0.52, 0.55]])


def _readme_map():
    disk = LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), 0.35, 50.85)
    return Compose(RigidRotation(0.6180339887), disk)


MAPS = {
    "readme": _readme_map(),
    "twist-linear": Twist(LinearProfile()),
    "twist-poly-bump": Twist(PolyBumpProfile(0.9)),
    "twist-tabulated": Twist(TabulatedProfile(YS, np.sin(np.linspace(0.0, 3.0, 9)))),
    "disk-tabulated": LocalDiskTwist(AnnulusPoint(0.37, 0.52), 0.3,
                                     TabulatedRadial(RS, 4.0 * (1.0 - (RS / 0.3) ** 2) ** 2)),
}


def _config(m):
    return {"schema_version": 1, "map": m.to_config()}


@pytest.mark.parametrize("name", MAPS)
def test_inverse_config_round_trips(name):
    inverse = MAPS[name].inverse()
    cfg = inverse.to_config()
    assert "negated" in repr(cfg)
    validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA).validate(_config(inverse))
    loaded = map_from_config(cfg)
    assert loaded.describe() == inverse.describe()
    assert loaded.to_config() == cfg
    for got, want in zip(loaded.apply_lift(POINTS[:, 0], POINTS[:, 1]),
                         inverse.apply_lift(POINTS[:, 0], POINTS[:, 1])):
        assert np.array_equal(got, want)
    for xt, y in POINTS.tolist():
        assert loaded.apply_point(xt, y) == inverse.apply_point(xt, y)


@pytest.mark.parametrize("name", MAPS)
def test_twice_inverted_config_is_the_map(name):
    m = MAPS[name]
    assert map_from_config(m.inverse().inverse().to_config()).describe() == m.describe()


def test_negated_twice_in_a_config_loads():
    cfg = {"variant": "twist",
           "profile": {"kind": "negated", "base": {"kind": "negated", "base": {"kind": "linear"}}}}
    validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA).validate({"schema_version": 1, "map": cfg})
    m = map_from_config(cfg)
    assert np.array_equal(m.apply_lift(POINTS[:, 0], POINTS[:, 1])[0], POINTS[:, 0] + POINTS[:, 1])


def test_negated_profile_without_a_base_is_rejected():
    bad = {"schema_version": 1, "map": {"variant": "twist", "profile": {"kind": "negated"}}}
    assert not validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA).is_valid(bad)
