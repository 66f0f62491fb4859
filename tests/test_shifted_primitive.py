"""The shifted primitive beta + c dx end to end: calabi's shift term, the
config's context.beta.shift and annact action --beta-shift."""

import json

import pytest

from annact import (
    ActionContext,
    AnnulusPoint,
    Compose,
    LinearProfile,
    PolyBumpProfile,
    RigidRotation,
    ShiftedBeta,
    Twist,
    calabi,
    mean_rotation_area,
)
from annact.action import action_function_values
from annact.cli import EXIT_OK, main
from annact.quadrature import tensor_annulus_integral

MAPS = {
    "twist-linear": Twist(LinearProfile()),
    "rotation-after-bump-twist": Compose(RigidRotation(0.3), Twist(PolyBumpProfile(0.9))),
    "twist-after-rotation": Compose(Twist(LinearProfile()), RigidRotation(0.3)),
}
SHIFTS = (-1.0, 0.7)
BASE_POINTS = (AnnulusPoint(0.0, 0.0), AnnulusPoint(0.3, 0.6))


@pytest.mark.parametrize("name", MAPS)
def test_shifted_calabi_is_the_mean_of_the_shifted_action(name):
    # smooth maps, so the tensor rule is a spectral oracle for the mean of g
    m = MAPS[name]
    for c in SHIFTS:
        for bp in BASE_POINTS:
            ctx = ActionContext(ShiftedBeta(c), bp)
            oracle, _ = tensor_annulus_integral(lambda x, y: action_function_values(m, ctx, x, y),
                                                tol=1e-12)
            assert calabi(m, ctx).value == pytest.approx(oracle, abs=1e-14)


@pytest.mark.parametrize("name", MAPS)
def test_shifted_calabi_moves_by_c_times_the_mean_displacement(name):
    # g changes by c (d - d(bp)), d the one-step displacement, whose mean is rho(area)
    m = MAPS[name]
    rho_area = mean_rotation_area(m).value
    for c in SHIFTS:
        for bp in BASE_POINTS:
            d_bp = m.apply_point(bp.x, bp.y)[0] - bp.x
            want = calabi(m, ActionContext(base_point=bp)).value + c * (rho_area - d_bp)
            assert calabi(m, ActionContext(ShiftedBeta(c), bp)).value == pytest.approx(want, abs=1e-15)


def test_action_command_with_a_shifted_primitive(tmp_path, capsys):
    # linear twist, c = 0.7: mean action 1/6 + c/2, upper boundary action 1/2 + c
    assert main(["action", "--map", "twist:linear", "--beta-shift", "0.7"]) == EXIT_OK
    flag = capsys.readouterr().out
    assert "mean action (Calabi) = 0.5166666666666665 (err 0.0)" in flag
    assert "action[boundary_upper] = 1.2 (err 0.0)" in flag
    cfg = {"schema_version": 1, "map": {"variant": "twist", "profile": {"kind": "linear"}},
           "context": {"beta": {"shift": 0.7}}}
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(cfg))
    assert main(["action", "--config", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == flag
