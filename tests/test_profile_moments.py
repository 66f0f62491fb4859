"""Profile moments (the leaf means) against scipy's quad of each profile's own
pointwise closed forms, one knot interval at a time."""

import numpy as np
import pytest
from scipy.integrate import quad

from annact import LinearProfile, PolyBumpProfile, Twist
from annact.action import calabi
from annact.maps import PolyBumpRadial, TabulatedProfile, TabulatedRadial

TAB_YS = np.linspace(0, 1, 9)
TAB_RS = np.linspace(0, 0.3, 7)


def _tabulated_twist():
    return TabulatedProfile(TAB_YS, np.sin(np.linspace(0, 3, 9)))


def _tabulated_radial():
    return TabulatedRadial(TAB_RS, 0.5 * (1 - (TAB_RS / 0.3) ** 2) ** 2)


TWIST_PROFILES = [LinearProfile(), PolyBumpProfile(0.9), _tabulated_twist()]
TWIST_PROFILES += [p.negated() for p in TWIST_PROFILES]
RADIAL_PROFILES = [PolyBumpRadial(4.2, 0.3), _tabulated_radial()]
RADIAL_PROFILES += [p.negated() for p in RADIAL_PROFILES]


def _piecewise_quad(fn, cuts):
    """Sum of quad over the intervals between consecutive cuts."""
    return sum(quad(lambda s: float(fn(s)), a, b, epsabs=1e-14, epsrel=1e-13)[0]
               for a, b in zip(cuts, cuts[1:]))


@pytest.mark.parametrize("profile", TWIST_PROFILES, ids=repr)
def test_twist_moments_are_the_means_of_potential_and_phi(profile):
    action, displacement = profile.moments()
    assert action == pytest.approx(_piecewise_quad(profile.potential, profile.knots), abs=1e-14)
    assert displacement == pytest.approx(_piecewise_quad(profile.phi, profile.knots), abs=1e-14)


@pytest.mark.parametrize("profile", RADIAL_PROFILES, ids=repr)
def test_radial_moment_is_the_disk_integral_of_action_radial(profile):
    disk = _piecewise_quad(lambda r: 2 * np.pi * r * profile.action_radial(r), profile.knots)
    assert -2 * np.pi * profile.moment() == pytest.approx(disk, abs=1e-14)


def test_tabulated_twist_calabi_is_exact():
    profile = _tabulated_twist()
    exact = _piecewise_quad(profile.potential, TAB_YS)
    assert abs(calabi(Twist(profile)).value - exact) <= 1e-15


def test_tabulated_action_radial_is_the_spline_integral():
    # action_radial(r) = (1/2) int_r^R s^2 phi'(s) ds of the spline that step uses
    profile = _tabulated_radial()
    for r in np.linspace(0, 0.3, 25):
        cuts = [r] + [k for k in TAB_RS if k > r]
        want = _piecewise_quad(lambda s: 0.5 * s * s * profile.dphi(s), cuts)
        assert abs(float(profile.action_radial(r)) - want) <= 1e-15
