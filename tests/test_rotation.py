import pytest

from annact import (
    AnnulusPoint,
    Compose,
    Iterate,
    MeasureSpec,
    boundary_rotation_number,
    lemma_boundary_identity_defect,
    mean_rotation_area,
    measure_rotation,
    rotation_number_point,
)

from conftest import GOLDEN, random_composition


def test_point_rotation_closed_forms(golden_rotation, linear_twist, strong_bump):
    rv = rotation_number_point(golden_rotation, AnnulusPoint(0.4, 0.8))
    assert rv.value == GOLDEN and rv.exact
    rv = rotation_number_point(linear_twist, AnnulusPoint(0.2, 0.75))
    assert rv.value == 0.75 and rv.exact
    # outside the support the point is fixed: rotation number exactly zero
    rv = rotation_number_point(strong_bump, AnnulusPoint(0.9, 0.9))
    assert rv.value == 0.0 and rv.exact


def test_point_rotation_generic_path(perturbed_rotation):
    rv = rotation_number_point(perturbed_rotation, AnnulusPoint(0.51, 0.62), n_iter=4000)
    assert not rv.exact
    assert rv.error_estimate > 0
    assert rv.value == pytest.approx(GOLDEN, abs=0.1)


def test_boundary_rotation_numbers(linear_twist, golden_rotation, strong_bump):
    assert boundary_rotation_number(linear_twist, "lower").value == 0.0
    assert boundary_rotation_number(linear_twist, "upper").value == 1.0
    for which in ("lower", "upper"):
        assert boundary_rotation_number(golden_rotation, which).value == GOLDEN
        combo = Compose(golden_rotation, strong_bump)
        assert boundary_rotation_number(combo, which).value == GOLDEN


def test_measure_rotation(linear_twist, golden_rotation):
    assert measure_rotation(linear_twist, MeasureSpec.area()).value == pytest.approx(0.5, abs=1e-12)
    assert measure_rotation(golden_rotation, MeasureSpec.area()).value == pytest.approx(GOLDEN, abs=1e-12)
    assert measure_rotation(linear_twist, MeasureSpec.boundary_upper()).value == 1.0


def test_orbit_measure_rotation_exact(linear_twist):
    from annact import SearchConfig, find_periodic_orbits

    orbits = find_periodic_orbits(linear_twist, 3, 1, SearchConfig(grid=12))
    assert orbits
    mu = MeasureSpec.from_orbit(orbits[0])
    rv = measure_rotation(linear_twist, mu)
    assert rv.exact and rv.value == pytest.approx(1 / 3, abs=1e-15)
    assert (rv.value * 3) == pytest.approx(round(rv.value * 3), abs=1e-12)


def test_deck_shift_invariance(perturbed_rotation):
    # shifting the seed by a deck transformation changes nothing; a dyadic x
    # keeps the wrap itself lossless so the comparison is bitwise
    x = 0.3125
    assert AnnulusPoint(x + 2.0, 0.52).x == x
    a = rotation_number_point(perturbed_rotation, AnnulusPoint(x, 0.52), n_iter=2000)
    b = rotation_number_point(perturbed_rotation, AnnulusPoint(x + 2.0, 0.52), n_iter=2000)
    assert a.value == b.value and a.error_estimate == b.error_estimate


def test_iterate_scaling(linear_twist, golden_rotation):
    for m, base_rho in ((linear_twist, 0.5), (golden_rotation, GOLDEN)):
        for k in (2, 3):
            it = Iterate(m, k)
            got = mean_rotation_area(it)
            assert got.value == pytest.approx(k * base_rho, abs=2e-10)
            upper = boundary_rotation_number(it, "upper")
            assert upper.value == pytest.approx(k * boundary_rotation_number(m, "upper").value, abs=1e-12)


def test_lemma_identity_closed_forms(linear_twist, golden_rotation):
    # linear twist: |1/2 - (0 - 1/2 + 1)| = 0
    assert lemma_boundary_identity_defect(linear_twist) < 1e-8
    # rigid rotation: |a - (0 - 0 + a)| = 0
    assert lemma_boundary_identity_defect(golden_rotation) < 1e-12


def test_lemma_identity_perturbed(perturbed_rotation):
    assert lemma_boundary_identity_defect(perturbed_rotation) < 1e-6


def test_lemma_identity_random_compositions(rng):
    worst = 0.0
    for _ in range(20):
        m = random_composition(rng)
        worst = max(worst, lemma_boundary_identity_defect(m))
    assert worst < 1e-6


def test_rotation_value_validation():
    from annact import RotationValue

    with pytest.raises(ValueError):
        RotationValue(0.5, -1.0)
    with pytest.raises(ValueError):
        RotationValue(0.5, 1e-3, exact=True)
