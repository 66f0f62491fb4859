import numpy as np
import pytest
from scipy import integrate

from annact import (
    ActionContext,
    AnnulusPoint,
    Compose,
    Iterate,
    LiftedPoint,
    LocalDiskTwist,
    MeasureSpec,
    NonConvergentError,
    PolyBumpProfile,
    PolylinePath,
    RigidRotation,
    ShiftedBeta,
    Twist,
    action_function,
    action_function_via_path,
    additivity_defect,
    calabi,
    map_from_shorthand,
    measure_action,
    path_independence_defect,
    shifted_action_difference,
)
from annact.action import action_function_values, action_values_raw

from conftest import BUMP_C, BUMP_R, random_builtin, random_composition

CTX = ActionContext.default()

# independent oracles, frozen from quadrature of the defining formulas
TWIST_CALABI = integrate.quad(lambda y: 0.5 * y * y, 0, 1)[0]  # 1/6
# mean action of the chart twist embedded in the annulus, orientation dy^dx:
# 2*pi * int r * (1/2) int_r^R s^2 phi'(s) ds dr with phi = c (1-(r/R)^2)^2
def _bump_calabi_oracle(c, R):
    inner = lambda r: 0.5 * integrate.quad(
        lambda s: s * s * (-(4 * c / R**2) * s * (1 - (s / R) ** 2)), r, R
    )[0]
    return 2 * np.pi * integrate.quad(lambda r: r * inner(r), 0, R, limit=200)[0]


def test_rigid_rotation_action_zero_everywhere(rng, golden_rotation):
    # the action function of a rigid rotation is the zero function
    xs = rng.uniform(0, 1, size=10_000)
    ys = rng.uniform(0, 1, size=10_000)
    vals = action_function_values(golden_rotation, CTX, xs, ys)
    assert np.array_equal(vals, np.zeros_like(vals))


def test_twist_action_closed_form(linear_twist):
    assert action_function(linear_twist, CTX, AnnulusPoint(0.3, 1.0)) == pytest.approx(0.5, abs=1e-15)
    for y in (0.0, 0.2, 0.77, 1.0):
        got = action_function(linear_twist, CTX, AnnulusPoint(0.6, y))
        assert got == pytest.approx(0.5 * y * y, abs=1e-14)
        via = action_function_via_path(linear_twist, CTX, AnnulusPoint(0.6, y))
        assert via == pytest.approx(0.5 * y * y, abs=1e-10)


def test_compose_with_rotation_keeps_twist_action(linear_twist):
    for a in (0.1, 0.6180339887, -0.4):
        m = Compose(linear_twist, RigidRotation(a))
        got = action_function(m, CTX, AnnulusPoint(0.3, 0.8))
        assert got == pytest.approx(0.5 * 0.8**2, abs=1e-14)


def test_action_closed_form_matches_path_route(rng):
    for _ in range(6):
        m = random_composition(rng)
        p = AnnulusPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        closed = action_function(m, CTX, p)
        via = action_function_via_path(m, CTX, p)
        assert via == pytest.approx(closed, abs=5e-10)


def test_path_independence(rng, linear_twist):
    dogleg = PolylinePath(
        (LiftedPoint(0.0, 0.0), LiftedPoint(0.9, 0.3), LiftedPoint(0.3, 0.9))
    )
    assert path_independence_defect(linear_twist, CTX, AnnulusPoint(0.3, 0.9), dogleg) < 1e-9
    assert path_independence_defect(RigidRotation(0.7), CTX, AnnulusPoint(0.3, 0.9), dogleg) < 1e-12
    worst = 0.0
    for _ in range(20):
        m = random_composition(rng)
        target = AnnulusPoint(float(rng.uniform(0, 1)), float(rng.uniform(0.05, 1.0)))
        mid = LiftedPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        path = PolylinePath((LiftedPoint(0.0, 0.0), mid, LiftedPoint(target.x, target.y)))
        worst = max(worst, path_independence_defect(m, CTX, target, path))
    assert worst < 1e-8


@pytest.mark.parametrize("base", [AnnulusPoint(0.0, 0.0), AnnulusPoint(0.3, 0.4)])
def test_path_route_at_the_base_point(base, linear_twist):
    ctx = ActionContext(base_point=base)
    assert action_function_via_path(linear_twist, ctx, base) == 0.0
    # a loop once around the annulus back to a lift of the base point
    loop = PolylinePath((base.lift(), LiftedPoint(base.x + 0.6, 0.9), base.lift(1)))
    assert path_independence_defect(linear_twist, ctx, base, loop) < 1e-12


def test_path_route_rejects_paths_that_miss_their_ends(linear_twist):
    target = AnnulusPoint(0.3, 0.9)
    mid = LiftedPoint(0.9, 0.3)
    good = action_function_via_path(linear_twist, CTX, target)
    # whole turns in x are lifts of the same points
    shifted = PolylinePath((LiftedPoint(-1.0, 0.0), mid, LiftedPoint(2.3, 0.9)))
    assert action_function_via_path(linear_twist, CTX, target, shifted) == pytest.approx(good, abs=1e-10)
    for start, end in [(LiftedPoint(0.1, 0.0), target.lift()),
                       (LiftedPoint(0.0, 1e-9), target.lift()),
                       (LiftedPoint(0.0, 0.0), LiftedPoint(0.3 + 1e-9, 0.9)),
                       (LiftedPoint(0.0, 0.0), LiftedPoint(0.3, 0.8))]:
        path = PolylinePath((start, mid, end))
        with pytest.raises(ValueError, match="not a lift"):
            action_function_via_path(linear_twist, CTX, target, path)
        with pytest.raises(ValueError, match="not a lift"):
            path_independence_defect(linear_twist, CTX, target, path)


def test_path_route_through_coincident_cuts():
    from annact.action import _path_breakpoints

    m = Iterate(LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), 0.3, 2.0), 2)
    a, b = LiftedPoint(0.0, 0.1), LiftedPoint(1.0, 0.9)
    # both stages cross the one support circle at the same parameters
    cuts, = _path_breakpoints(m, (a, b))
    assert len(cuts) == 4 and cuts[0] == cuts[1] and cuts[2] == cuts[3]
    ctx = ActionContext(base_point=AnnulusPoint(0.0, 0.1))
    target = AnnulusPoint(0.0, 0.9)
    via = action_function_via_path(m, ctx, target, PolylinePath.straight(a, b))
    assert via == pytest.approx(action_function(m, ctx, target), abs=5e-10)


def test_path_route_under_a_shifted_primitive_and_base_point(rng):
    ctx = ActionContext(ShiftedBeta(0.7), AnnulusPoint(0.3, 0.4))
    for _ in range(6):
        m = random_composition(rng)
        p = AnnulusPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        closed = action_function(m, ctx, p)
        assert action_function_via_path(m, ctx, p) == pytest.approx(closed, abs=5e-10)
        mid = LiftedPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        dogleg = PolylinePath((ctx.base_point.lift(), mid, p.lift()))
        assert action_function_via_path(m, ctx, p, dogleg) == pytest.approx(closed, abs=5e-10)


def test_calabi_examples(linear_twist, golden_rotation, strong_bump):
    assert calabi(golden_rotation).value == 0.0
    cv = calabi(linear_twist)
    assert cv.value == pytest.approx(TWIST_CALABI, abs=1e-12)
    cb = calabi(strong_bump)
    assert cb.value == pytest.approx(-np.pi * BUMP_C * BUMP_R**4 / 12, rel=1e-12)


def test_bump_calabi_against_quadrature_oracle():
    c, R = 3.7, 0.28
    bump = LocalDiskTwist.poly_bump(AnnulusPoint(0.4, 0.55), R, c)
    oracle = _bump_calabi_oracle(c, R)
    assert oracle == pytest.approx(-np.pi * c * R**4 / 12, rel=1e-9)
    assert calabi(bump).value == pytest.approx(oracle, rel=1e-9)


def test_calabi_independent_of_bump_center(rng):
    # the mean action of a local twist depends on (c, R) only
    c, R = -2.4, 0.22
    vals = []
    for _ in range(4):
        cy = float(rng.uniform(0.3, 0.7))
        cx = float(rng.uniform(0, 1))
        vals.append(calabi(LocalDiskTwist.poly_bump(AnnulusPoint(cx, cy), R, c)).value)
    assert np.max(np.abs(np.diff(vals))) < 1e-12


def test_measure_actions(linear_twist, golden_rotation):
    lower = measure_action(linear_twist, CTX, MeasureSpec("boundary_lower", n_iter=10_000))
    upper = measure_action(linear_twist, CTX, MeasureSpec("boundary_upper", n_iter=10_000))
    assert lower.value == 0.0
    assert upper.value == pytest.approx(0.5, abs=1e-14)
    # every invariant measure of a rigid rotation has zero action
    for mu in (
        MeasureSpec("boundary_lower", n_iter=5000),
        MeasureSpec("boundary_upper", n_iter=5000),
        MeasureSpec.area(),
        MeasureSpec.empirical(AnnulusPoint(0.123, 0.456), 5000),
    ):
        assert measure_action(golden_rotation, CTX, mu).value == pytest.approx(0.0, abs=1e-15)


def test_empirical_measure_on_invariant_circle(linear_twist):
    mu = MeasureSpec.empirical(AnnulusPoint(0.1, 0.62), 2000)
    got = measure_action(linear_twist, CTX, mu)
    assert got.value == pytest.approx(0.5 * 0.62**2, abs=1e-12)


def test_additivity_examples(linear_twist, golden_rotation, strong_bump):
    assert additivity_defect(golden_rotation, RigidRotation(0.25)) == 0.0
    assert additivity_defect(golden_rotation, strong_bump) < 1e-8
    assert additivity_defect(strong_bump, golden_rotation) < 1e-8
    assert additivity_defect(linear_twist, linear_twist) < 1e-8
    sq = calabi(Iterate(linear_twist, 2))
    assert sq.value == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_additivity_random_pairs(rng):
    worst = 0.0
    for _ in range(10):
        worst = max(worst, additivity_defect(random_builtin(rng), random_builtin(rng)))
    assert worst < 1e-8


def test_calabi_iterate_scaling(rng):
    for m in (Twist(PolyBumpProfile(0.8)),
              LocalDiskTwist.poly_bump(AnnulusPoint(0.3, 0.5), 0.3, 4.0)):
        base = calabi(m).value
        for k in (2, 3, 5):
            assert calabi(Iterate(m, k)).value == pytest.approx(k * base, abs=1e-7)


def test_shifted_action_difference(linear_twist, golden_rotation):
    mu_up = MeasureSpec("boundary_upper", n_iter=5000)
    mu_lo = MeasureSpec("boundary_lower", n_iter=5000)
    base, shifted = shifted_action_difference(linear_twist, mu_up, mu_lo, 1.0)
    assert shifted - base == pytest.approx(1.0 * (1.0 - 0.0), abs=1e-12)
    # equal measures: both differences vanish
    base, shifted = shifted_action_difference(linear_twist, mu_up, mu_up, 0.7)
    assert base == 0.0 and shifted == 0.0
    # equal rotation numbers: difference is independent of the primitive
    for c in (-1.0, -0.3, 0.7, 2.0):
        base, shifted = shifted_action_difference(golden_rotation, mu_up, mu_lo, c)
        assert shifted == pytest.approx(base, abs=1e-12)


def test_cohomologous_shift_invariance(rng, linear_twist, strong_bump):
    # adding S o f - S to g changes no measure action (S smooth test function)
    from annact.maps import boundary_circle_map
    from annact.action import _orbit_arrays
    from annact.quadrature import tensor_annulus_integral

    def s_fn(x, y):
        return 0.05 * np.sin(2 * np.pi * x) * np.cos(np.pi * y)

    def modified_orbit_average(m, xs, ys):
        g_vals = action_function_values(m, CTX, xs, ys)
        fx, fy = m.apply_lift(xs, ys)
        return float(np.mean(g_vals + s_fn(fx, fy) - s_fn(xs, ys)))

    for m in (linear_twist, strong_bump):
        for mu in (MeasureSpec("boundary_lower", n_iter=4000),
                   MeasureSpec("boundary_upper", n_iter=4000),
                   MeasureSpec.empirical(AnnulusPoint(0.37, 0.58), 4000)):
            base = measure_action(m, CTX, mu, tol=1e-3)
            if mu.variant == "empirical":
                xs, ys = _orbit_arrays(m, mu.seed, mu.n_iter)
            else:
                which = "lower" if mu.variant == "boundary_lower" else "upper"
                bc = boundary_circle_map(m, which)
                xs = bc.orbit(0.0, mu.n_iter - 1)
                ys = np.full_like(xs, bc.y_boundary)
            modified = modified_orbit_average(m, xs, ys)
            # the shift is a telescoping sum along the orbit, so it dies at
            # the same O(1/n) rate the error estimate measures
            assert modified == pytest.approx(base.value,
                                             abs=max(2 * base.error_estimate, 1e-8))

    # area variant, smooth map: tensor quadrature of the shift term
    base = measure_action(linear_twist, CTX, MeasureSpec.area())
    shift_int, _ = tensor_annulus_integral(
        lambda x, y: s_fn(*linear_twist.apply_lift(x, y)) - s_fn(x, y), tol=1e-10)
    assert base.value + shift_int == pytest.approx(base.value, abs=1e-8)


def test_boundary_birkhoff_nonconvergence_raises(perturbed_rotation):
    # an interior orbit wandering through the twist support cannot average to
    # a 1e-12 fluctuation in 1000 steps
    with pytest.raises(NonConvergentError):
        measure_action(
            perturbed_rotation,
            CTX,
            MeasureSpec.empirical(AnnulusPoint(0.5, 0.55), 1000),
            tol=1e-12,
        )


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        MeasureSpec("empirical", seed=AnnulusPoint(0.1, 0.1), n_iter=10)
    with pytest.raises(ValueError):
        MeasureSpec("orbit", orbit=None)
    with pytest.raises(ValueError):
        MeasureSpec("weird")
    with pytest.raises(ValueError):
        ActionContext(beta="not a form")


def test_raw_action_vanishes_on_lower_boundary(rng):
    # the base-point convention: every leaf term is zero along y = 0
    for _ in range(6):
        m = random_composition(rng)
        xs = rng.uniform(0, 1, size=64)
        vals = action_values_raw(m, xs, np.zeros_like(xs))
        assert np.max(np.abs(vals)) == 0.0


def test_shifted_context_pointwise(linear_twist):
    # g_shift = g + c (delta - delta(x0)) for the linear twist: delta = y
    ctx_s = ActionContext(beta=ShiftedBeta(0.7))
    p = AnnulusPoint(0.4, 0.6)
    base = action_function(linear_twist, CTX, p)
    got = action_function(linear_twist, ctx_s, p)
    assert got == pytest.approx(base + 0.7 * (0.6 - 0.0), abs=1e-14)


@pytest.mark.parametrize("shorthand", [
    "rigid:a=0.6180339887*disk:cx=0.5,cy=0.5,R=0.35,c=50.85",
    "rigid:a=0.6180339887*disk:cx=0.5,cy=0.5,R=0.35,c=1",
    "twist:bump,c=0.9*disk:cx=0.37,cy=0.52,R=0.3,c=4.2",
])
def test_calabi_of_disk_compositions_matches_a_midpoint_mean(shorthand):
    # an oracle blind to the leaves: the mean of the pointwise action function
    # over a 400 x 400 midpoint grid of the unit-area annulus
    m = map_from_shorthand(shorthand)
    mid = (np.arange(400) + 0.5) / 400
    X, Y = np.meshgrid(mid, mid, indexing="ij")
    assert abs(calabi(m, CTX).value - action_function_values(m, CTX, X, Y).mean()) < 1e-7
