import numpy as np
import pytest

from annact import (
    AnnulusPoint,
    Compose,
    LinearProfile,
    LocalDiskTwist,
    RigidRotation,
    Twist,
)
from annact.maps import random_builtin, random_composition  # noqa: F401  (re-exported for tests)

GOLDEN = 0.6180339887
BUMP_C = 50.85
BUMP_R = 0.35


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def linear_twist():
    return Twist(LinearProfile())


@pytest.fixture
def golden_rotation():
    return RigidRotation(GOLDEN)


@pytest.fixture
def strong_bump():
    return LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), BUMP_R, BUMP_C)


@pytest.fixture
def perturbed_rotation(golden_rotation, strong_bump):
    """Irrational rigid rotation composed with a compactly supported twist."""
    return Compose(golden_rotation, strong_bump)
