import numpy as np
import pytest
from scipy import integrate

from annact import (
    AnnulusPoint,
    CanonicalBeta,
    ExplicitField,
    LiftedPoint,
    NonConvergentError,
    PolylinePath,
    QuadratureSpec,
    ShiftedBeta,
    lift,
    line_integral,
    project,
)

# independent oracle for the diagonal segment: int_0^1 t dt
DIAGONAL_BETA_INTEGRAL = integrate.quad(lambda t: t, 0.0, 1.0)[0]  # = 0.5


def test_project_examples():
    assert project(LiftedPoint(0.25, 0.5)) == (AnnulusPoint(0.25, 0.5), 0)
    assert project(LiftedPoint(2.25, 0.5)) == (AnnulusPoint(0.25, 0.5), 2)
    p, w = project(LiftedPoint(-0.75, 1.0))
    assert w == -1
    assert p.y == 1.0
    assert p.x == pytest.approx(0.25, abs=1e-15)


def test_lift_examples():
    assert lift(AnnulusPoint(0.1, 0.0), 0) == LiftedPoint(0.1, 0.0)
    assert lift(AnnulusPoint(0.1, 0.0), 3) == LiftedPoint(3.1, 0.0)
    assert lift(AnnulusPoint(0.9, 1.0), -1).xt == pytest.approx(-0.1, abs=1e-15)


def test_round_trips_identity_sheet_exact():
    # sheet-0 round trips are bitwise
    for x in (0.0, 0.25, 0.9999999, 0.123456789):
        p = AnnulusPoint(x, 0.5)
        q, w = project(lift(p, 0))
        assert w == 0 and q.x == p.x and q.y == p.y


def test_round_trips_other_sheets(rng):
    # nonzero sheets shift the float mantissa, so round trips are exact only
    # to a final-bit tolerance
    for _ in range(200):
        x = float(rng.uniform(0, 1))
        sheet = int(rng.integers(-4, 5))
        p = AnnulusPoint(x, 0.5)
        q, w = project(lift(p, sheet))
        assert w == sheet
        assert q.x == pytest.approx(p.x, abs=4e-15)


def test_point_validation():
    with pytest.raises(ValueError):
        AnnulusPoint(0.2, 1.5)
    with pytest.raises(ValueError):
        LiftedPoint(0.2, -0.1)
    assert AnnulusPoint(1.25, 0.0).x == 0.25  # x normalizes


def test_path_validation():
    a, b = LiftedPoint(0.0, 0.0), LiftedPoint(1.0, 0.0)
    with pytest.raises(ValueError):
        PolylinePath((a,))
    with pytest.raises(ValueError):
        PolylinePath((a, a))
    with pytest.raises(ValueError):
        PolylinePath((a, b), refinement=0.0)


def test_line_integral_boundary_segments():
    beta = CanonicalBeta()
    lower = PolylinePath.straight(LiftedPoint(0.0, 0.0), LiftedPoint(1.0, 0.0))
    upper = PolylinePath.straight(LiftedPoint(0.0, 1.0), LiftedPoint(1.0, 1.0))
    assert line_integral(beta, lower) == pytest.approx(0.0, abs=1e-14)
    assert line_integral(beta, upper) == pytest.approx(1.0, abs=1e-12)


def test_line_integral_diagonal():
    beta = CanonicalBeta()
    diag = PolylinePath.straight(LiftedPoint(0.0, 0.0), LiftedPoint(1.0, 1.0))
    assert line_integral(beta, diag) == pytest.approx(DIAGONAL_BETA_INTEGRAL, abs=1e-12)


def test_shifted_minus_canonical_on_closed_paths(rng):
    # the c dx term contributes c * (net winding) on closed annulus loops
    for c in (-1.0, 0.7, 2.0):
        shifted = ShiftedBeta(c)
        beta = CanonicalBeta()
        # a loop winding once around: (0, y0) -> (1, y0) through two legs
        y0, y1 = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        path = PolylinePath(
            (LiftedPoint(0.0, y0), LiftedPoint(0.4, y1), LiftedPoint(1.0, y0))
        )
        assert path.total_winding() == 1
        diff = line_integral(shifted, path) - line_integral(beta, path)
        assert diff == pytest.approx(c * 1, abs=1e-10)
        # a contractible rectangle has zero winding
        rect = PolylinePath(
            (
                LiftedPoint(0.1, 0.2),
                LiftedPoint(0.6, 0.2),
                LiftedPoint(0.6, 0.8),
                LiftedPoint(0.1, 0.8),
                LiftedPoint(0.1, 0.2),
            )
        )
        assert rect.total_winding() == 0
        diff = line_integral(shifted, rect) - line_integral(beta, rect)
        assert diff == pytest.approx(0.0, abs=1e-10)


def test_additivity_and_reversal(rng):
    beta = CanonicalBeta()
    for _ in range(10):
        pts = [
            LiftedPoint(float(rng.uniform(-1, 2)), float(rng.uniform(0, 1)))
            for _ in range(3)
        ]
        p1 = PolylinePath((pts[0], pts[1]))
        p2 = PolylinePath((pts[1], pts[2]))
        whole = p1.concat(p2)
        a = line_integral(beta, p1) + line_integral(beta, p2)
        b = line_integral(beta, whole)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-14)
        assert line_integral(beta, whole.reversed()) == pytest.approx(-b, rel=1e-12, abs=1e-14)


def test_explicit_field_area_form_check():
    good = ExplicitField(lambda x, y: y, lambda x, y: np.zeros_like(x))
    assert good.check_area_form()
    bad = ExplicitField(lambda x, y: 0.5 * y, lambda x, y: np.zeros_like(x))
    assert not bad.check_area_form()


def test_line_integral_nonconvergent():
    # a kinked coefficient cannot converge within a two-halving budget
    field = ExplicitField(lambda x, y: np.abs(x - 0.317) ** 0.4, lambda x, y: np.zeros_like(x))
    path = PolylinePath.straight(LiftedPoint(0.0, 0.5), LiftedPoint(1.0, 0.5))
    with pytest.raises(NonConvergentError):
        line_integral(field, path, QuadratureSpec(tol=1e-14, max_halvings=2))
