import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from annact import (
    AnnulusPoint,
    Compose,
    ConfigError,
    Iterate,
    LinearProfile,
    LocalDiskTwist,
    PolyBumpProfile,
    PolyBumpRadial,
    RigidRotation,
    TabulatedProfile,
    TabulatedRadial,
    Twist,
    area_defect,
    map_from_config,
    map_from_shorthand,
)
from annact.cli import EXIT_USAGE, main
from annact.maps import finite_difference_jacobian

from conftest import random_composition


def test_eval_examples(strong_bump):
    out = RigidRotation(0.3)(AnnulusPoint(0.9, 0.4))
    assert out.x == pytest.approx(0.2, abs=1e-15) and out.y == 0.4
    out = Twist(LinearProfile())(AnnulusPoint(0.25, 0.5))
    assert out.x == pytest.approx(0.75, abs=1e-15) and out.y == 0.5
    # identity outside the chart disk, exactly
    out = strong_bump(AnnulusPoint(0.9, 0.9))
    assert out.x == 0.9 and out.y == 0.9


def test_eval_lift_examples(strong_bump):
    xt, y = RigidRotation(0.3).apply_point(0.9, 0.4)
    assert xt == pytest.approx(1.2, abs=1e-15) and y == 0.4
    # the rotation parameter is a real lift displacement, never reduced mod 1
    assert RigidRotation(2.3).apply_point(0.0, 0.5)[0] == 2.3
    assert RigidRotation(2.3).boundary_displacement("upper") == 2.3
    # iterated linear twist has the closed-form lift xt + k*y
    xt, _ = Iterate(Twist(LinearProfile()), 4).apply_point(0.0, 0.5)
    assert xt == pytest.approx(0.0 + 4 * 0.5, abs=1e-15)
    # composing with a rotation is still the rotation away from the support
    m = Compose(RigidRotation(0.3), strong_bump)
    xt, y = m.apply_point(2.9, 0.95)
    assert xt == pytest.approx(3.2, abs=1e-15) and y == 0.95


def test_differential_examples():
    assert np.array_equal(RigidRotation(0.7).jacobian(0.3, 0.3), np.eye(2))
    twist_jac = Twist(LinearProfile()).jacobian(0.1, 0.8)
    assert np.array_equal(twist_jac, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_disk_twist_determinant_unit(rng, strong_bump):
    # rigid chart rotations preserve area; finite differences corroborate
    pts = rng.uniform(size=(1000, 2))
    jac = strong_bump.jacobian(pts[:, 0], pts[:, 1])
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    assert np.max(np.abs(det - 1.0)) < 1e-9


def test_differential_matches_finite_differences(rng):
    maps = [
        RigidRotation(0.37),
        Twist(LinearProfile()),
        Twist(PolyBumpProfile(1.2)),
        LocalDiskTwist.poly_bump(AnnulusPoint(0.4, 0.6), 0.25, 3.0),
    ]
    for m in maps:
        pts = rng.uniform(low=(0.0, 0.05), high=(1.0, 0.95), size=(100, 2))
        analytic = m.jacobian(pts[:, 0], pts[:, 1])
        fd = finite_difference_jacobian(m, pts[:, 0], pts[:, 1])
        assert np.max(np.abs(analytic - fd)) < 1e-6


def test_area_defect_examples(rng, strong_bump):
    assert area_defect(RigidRotation(0.9), 16) == 0.0
    assert area_defect(Twist(LinearProfile()), 16) == 0.0
    combo = Compose(
        Compose(RigidRotation(0.37), strong_bump),
        Compose(Twist(PolyBumpProfile(0.9)), Twist(LinearProfile())),
    )
    assert area_defect(combo, 64) < 1e-9


def test_boundary_circle_maps(strong_bump):
    xs = np.linspace(-1, 2, 7)
    rot = RigidRotation(0.25)
    assert rot.boundary_displacement("lower") == 0.25
    assert np.allclose(rot.apply_lift(xs, np.zeros_like(xs))[0], xs + 0.25, atol=0)
    assert Twist(LinearProfile()).boundary_displacement("upper") == 1.0
    for which, yb in (("lower", 0.0), ("upper", 1.0)):
        assert strong_bump.boundary_displacement(which) == 0.0
        assert np.array_equal(strong_bump.apply_lift(xs, np.full_like(xs, yb))[0], xs)


def test_boundary_rigidity_against_lift(rng):
    # boundary_displacement must agree with the true lifted circle map
    for _ in range(10):
        m = random_composition(rng)
        for which, yb in (("lower", 0.0), ("upper", 1.0)):
            xs = rng.uniform(-2, 2, size=50)
            out, yout = m.apply_lift(xs, np.full(50, yb))
            assert np.max(np.abs(out - xs - m.boundary_displacement(which))) < 1e-12
            assert np.array_equal(yout, np.full(50, yb))


def test_equivariance(rng):
    # deck-transformation equivariance; float addition of the deck shift
    # costs at most a few ulps, so the comparison is at 8e-15, not bitwise
    for m in (
        RigidRotation(0.381966),
        Twist(LinearProfile()),
        LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), 0.35, 50.85),
        Compose(RigidRotation(0.3), Twist(PolyBumpProfile(1.1))),
    ):
        xs = rng.uniform(0, 1, size=1000)
        ys = rng.uniform(0, 1, size=1000)
        x0, y0 = m.apply_lift(xs, ys)
        x1, y1 = m.apply_lift(xs + 1.0, ys)
        assert np.max(np.abs(x1 - x0 - 1.0)) < 8e-15
        assert np.max(np.abs(y1 - y0)) < 8e-15


def test_boundary_preserved_exactly(rng):
    for m in (
        RigidRotation(0.71),
        Twist(PolyBumpProfile(2.0)),
        LocalDiskTwist.poly_bump(AnnulusPoint(0.2, 0.45), 0.3, 14.0),
    ):
        xs = rng.uniform(0, 1, size=200)
        for yb in (0.0, 1.0):
            _, yout = m.apply_lift(xs, np.full_like(xs, yb))
            assert np.array_equal(yout, np.full_like(xs, yb))


def test_iterate_matches_composition(rng):
    base = Compose(RigidRotation(0.21), Twist(LinearProfile()))
    it = Iterate(base, 3)
    chain = Compose(base, Compose(base, base))
    xs = rng.uniform(0, 1, size=100)
    ys = rng.uniform(0, 1, size=100)
    xa, ya = it.apply_lift(xs, ys)
    xb, yb = chain.apply_lift(xs, ys)
    assert np.max(np.abs(xa - xb)) < 1e-12
    assert np.max(np.abs(ya - yb)) < 1e-12


def test_inverse_round_trip(rng):
    for _ in range(10):
        m = random_composition(rng)
        inv = m.inverse()
        xs = rng.uniform(0, 1, size=50)
        ys = rng.uniform(0, 1, size=50)
        fx, fy = m.apply_lift(xs, ys)
        bx, by = inv.apply_lift(fx, fy)
        assert np.max(np.abs(bx - xs)) < 1e-11
        assert np.max(np.abs(by - ys)) < 1e-11


def test_tabulated_profiles_match_dense_samples():
    ys = np.linspace(0, 1, 33)
    tab = TabulatedProfile(ys, np.sin(np.pi * ys) ** 2)
    dense = np.linspace(0, 1, 200)
    assert np.max(np.abs(tab.phi(dense) - np.sin(np.pi * dense) ** 2)) < 1e-4
    rs = np.linspace(0, 0.3, 33)
    rad = TabulatedRadial(rs, 2.0 * (1 - (rs / 0.3) ** 2) ** 2)
    ref = PolyBumpRadial(2.0, 0.3)
    dense_r = np.linspace(0, 0.3, 100)
    assert np.max(np.abs(rad.phi(dense_r) - ref.phi(dense_r))) < 1e-4
    assert np.max(np.abs(rad.action_radial(dense_r) - ref.action_radial(dense_r))) < 1e-4


def test_tabulated_map_end_to_end(rng):
    # spline-backed maps get the same treatment as closed-form ones
    rs = np.linspace(0, 0.3, 65)
    tab = LocalDiskTwist(AnnulusPoint(0.45, 0.5), 0.3,
                         TabulatedRadial(rs, 2.0 * (1 - (rs / 0.3) ** 2) ** 2))
    ref = LocalDiskTwist.poly_bump(AnnulusPoint(0.45, 0.5), 0.3, 2.0)
    pts = rng.uniform(low=(0.0, 0.1), high=(1.0, 0.9), size=(200, 2))
    xa, ya = tab.apply_lift(pts[:, 0], pts[:, 1])
    xb, yb = ref.apply_lift(pts[:, 0], pts[:, 1])
    assert np.max(np.hypot(xa - xb, ya - yb)) < 1e-4
    assert area_defect(tab, 48) < 1e-6
    fd = finite_difference_jacobian(tab, pts[:10, 0], pts[:10, 1])
    assert np.max(np.abs(tab.jacobian(pts[:10, 0], pts[:10, 1]) - fd)) < 1e-5

    ys = np.linspace(0, 1, 65)
    tw_tab = Twist(TabulatedProfile(ys, 16 * 0.7 * (ys * (1 - ys)) ** 2))
    tw_ref = Twist(PolyBumpProfile(0.7))
    xa, _ = tw_tab.apply_lift(pts[:, 0], pts[:, 1])
    xb, _ = tw_ref.apply_lift(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(xa - xb)) < 1e-6
    from annact import calabi

    assert calabi(tw_tab).value == pytest.approx(calabi(tw_ref).value, abs=1e-6)
    assert abs(calabi(tab).value - calabi(ref).value) < 1e-5


def test_disk_twist_constructor_validation():
    with pytest.raises(ValueError):
        LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.1), 0.2, 1.0)  # pokes through boundary
    with pytest.raises(ValueError):
        LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), 0.6, 1.0)  # radius >= 1/2


def test_radial_profile_monotonicity_audit():
    assert PolyBumpRadial(3.0, 0.3).monotone_defect() == 0.0
    assert PolyBumpRadial(-3.0, 0.3).monotone_defect() > 0.0  # increasing profile flagged


def test_config_round_trip(rng):
    for _ in range(8):
        m = random_composition(rng)
        rebuilt = map_from_config(m.to_config())
        xs = rng.uniform(0, 1, size=20)
        ys = rng.uniform(0, 1, size=20)
        xa, ya = m.apply_lift(xs, ys)
        xb, yb = rebuilt.apply_lift(xs, ys)
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)


def test_config_errors():
    with pytest.raises(ConfigError):
        map_from_config({"variant": "nope"})
    with pytest.raises(ConfigError):
        map_from_config({"variant": "twist"})
    with pytest.raises(ConfigError):
        map_from_config({"variant": "rigid_rotation", "a": "x"})


def test_shorthand():
    m = map_from_shorthand("rigid:a=0.618")
    assert isinstance(m, RigidRotation) and m.a == 0.618
    m = map_from_shorthand("rigid:a=0.5*disk:cx=0.5,cy=0.5,R=0.2,c=3*twist:linear")
    assert isinstance(m, Compose)
    assert isinstance(m.outer, RigidRotation)
    m = map_from_shorthand("twist:linear^4")
    assert isinstance(m, Iterate) and m.k == 4
    with pytest.raises(ConfigError):
        map_from_shorthand("hexagon:a=1")
    with pytest.raises(ConfigError):
        map_from_shorthand("disk:cx=0.5")


@pytest.mark.parametrize("text, unread", [
    ("disk:cx=0.5,cy=0.5,R=0.35,C=50.85", "'C'"),
    ("rigid:0.3", "'0.3'"),
    ("twist:bump,c=0.2,linear", "'linear'"),
    ("twist:linear,c=5", "'c'"),
])
def test_shorthand_rejects_what_its_family_does_not_read(text, unread, capsys):
    with pytest.raises(ConfigError, match=f"does not read {unread}"):
        map_from_shorthand(text)
    assert main(["rotation", "--map", text]) == EXIT_USAGE
    assert unread in capsys.readouterr().err


# a whole shorthand: factors family:key=value,flag joined by '*', each with an optional '^k'
_FACTOR = r"(?:rigid|twist|disk):\w+(?:=[-+\w.]+)?(?:,\w+(?:=[-+\w.]+)?)*(?:\^\d+)?"
_SHORTHAND = re.compile(rf"{_FACTOR}(?:\*{_FACTOR})*(?=[\s\"'`]|$)")


def test_every_shorthand_in_docs_ci_scripts_and_bench_parses(tmp_path):
    root = Path(__file__).resolve().parent.parent
    sources = [root / "README.md", root / ".github/workflows/tests.yml",
               *sorted((root / "scripts").iterdir())]
    found = {src.name: _SHORTHAND.findall(src.read_text()) for src in sources}
    assert all(found[name] for name in ("README.md", "tests.yml", "compare_outputs.sh"))
    # the bench builds its census shorthand from the README config
    spec = importlib.util.spec_from_file_location("workloads", root / "bench/workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    found["bench"] = [workloads.make_inputs("census-deep", 0, tmp_path)["map"]]
    for texts in found.values():
        for text in texts:
            map_from_shorthand(text)
