"""The one-point kernel: each leaf's compiled point pass (apply_point) steps
one point in Python floats and must round exactly as its numpy step does on
scalars, so that scalar-start orbits keep every bit while skipping numpy's
per-call cost."""

import struct

import numpy as np
import pytest

from annact.maps import (
    AnnulusPoint,
    Compose,
    Iterate,
    LinearProfile,
    LocalDiskTwist,
    MapExpr,
    PolyBumpProfile,
    PolyBumpRadial,
    RigidRotation,
    TabulatedProfile,
    TabulatedRadial,
    Twist,
    orbit_arrays,
    random_composition,
)

from conftest import BUMP_C, BUMP_R, GOLDEN

# R = 1/4 is exact, so points at r = R can be written down exactly
R = 0.25
RS = np.linspace(0.0, R, 9)
YS = np.linspace(0.0, 1.0, 9)


def _disks(profile):
    # centre x = 0 puts the chart disk across the x-wrap
    return [LocalDiskTwist(AnnulusPoint(cx, 0.5), R, profile) for cx in (0.5, 0.0)]


LEAVES = {
    "rigid": [RigidRotation(GOLDEN)],
    "twist-linear": [Twist(LinearProfile())],
    "twist-poly-bump": [Twist(PolyBumpProfile(0.7))],
    "twist-tabulated": [Twist(TabulatedProfile(YS, np.sin(np.pi * YS) ** 2))],
    "twist-negated": [Twist(PolyBumpProfile(0.7).negated()), Twist(LinearProfile().negated())],
    "disk-poly-bump": _disks(PolyBumpRadial(BUMP_C, R)),
    "disk-tabulated": _disks(TabulatedRadial(RS, 6.0 * (1.0 - (RS / R) ** 2) ** 2)),
    "disk-negated": _disks(PolyBumpRadial(BUMP_C, R).negated())
    + _disks(TabulatedRadial(RS, 6.0 * (1.0 - (RS / R) ** 2) ** 2).negated()),
}


def _points(rng):
    """Random lifted points, boundary points, points on the circle r = R of
    both disk centres (lifted by whole turns) and points at the x-wrap."""
    pts = [(float(x), float(y)) for x, y in rng.uniform((-2.0, 0.0), (3.0, 1.0), (400, 2))]
    pts += [(0.3, 0.0), (0.3, 1.0), (-0.0, 0.5), (0.0, 0.5), (1.0, 0.5), (-1.0, 0.5)]
    for shift in (0.0, 1.0, -2.0):
        pts += [(shift + x, y) for x, y in
                [(0.75, 0.5), (0.25, 0.5), (0.5, 0.75), (0.5, 0.25), (-0.25, 0.5), (0.0, 0.75)]]
    # just inside and just outside the wrap of the disk centred at x = 0
    pts += [(0.999999, 0.5), (0.5 + 1e-12, 0.6), (0.5 - 1e-12, 0.4), (0.9, 0.45), (0.1, 0.55)]
    return pts


def _bits(v):
    return struct.pack("<d", float(v))


@pytest.mark.parametrize("kind", sorted(LEAVES))
def test_step_point_equals_step_bit_for_bit(kind, rng):
    pts = _points(rng)
    for leaf in LEAVES[kind]:
        inside = outside = 0
        for xt, y in pts:
            want_xt, want_y, _ = leaf.step(xt, y)
            got = leaf.apply_point(xt, y)
            assert type(got[0]) is float and type(got[1]) is float
            assert (_bits(got[0]), _bits(got[1])) == (_bits(want_xt), _bits(want_y)), (leaf, xt, y)
            if isinstance(leaf, LocalDiskTwist):
                if float(np.hypot(*leaf.chart_offsets(xt, y))) < R:
                    inside += 1
                else:
                    outside += 1
        if isinstance(leaf, LocalDiskTwist):
            assert inside > 20 and outside > 20


def test_a_map_with_only_a_step_has_no_point_pass():
    # every family writes its own point source; there is no fallback to step
    class Shear(MapExpr):
        def step(self, xt, y, with_jacobian=False):
            return np.asarray(xt, dtype=float) + 0.1 * np.sin(np.asarray(y, dtype=float)), y, None

    with pytest.raises(NotImplementedError):
        Shear().apply_point(0.25, 0.5)


def _numpy_point_orbit(m, x, y, n):
    """Oracle: the one-point numpy loop, each leaf's step on 0-d arrays."""
    xt = np.asarray(x, dtype=float)
    yy = np.asarray(y, dtype=float)
    xs = np.empty(n)
    ys = np.empty(n)
    leaves = m.leaves()
    for j in range(n):
        if j:
            for leaf in leaves:
                xt, yy, _ = leaf.step(xt, yy)
        xs[j] = xt
        ys[j] = yy
    return xs, ys


def _assert_orbit_matches_oracle(m, x, y, n):
    xs, ys = orbit_arrays(m, x, y, n)
    want_xs, want_ys = _numpy_point_orbit(m, x, y, n)
    assert np.array_equal(xs, want_xs) and np.array_equal(ys, want_ys)
    assert m.apply_point(x, y) == (xs[1], ys[1])


@pytest.mark.parametrize("c", [BUMP_C, 1.0])
def test_scalar_orbit_matches_numpy_point_loop(c):
    # the README map and the weak bump
    m = Compose(RigidRotation(GOLDEN), LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), BUMP_R, c))
    _assert_orbit_matches_oracle(m, 0.3, 0.55, 20_000)


def test_scalar_orbit_matches_numpy_point_loop_on_random_maps(rng):
    for _ in range(24):
        m = random_composition(rng, max_leaves=4)
        x0, y0 = rng.uniform((0.0, 0.0), (1.0, 1.0))
        _assert_orbit_matches_oracle(m, float(x0), float(y0), 2_000)


def _assert_columns_are_point_orbits(m, starts, n):
    """Every pass rounds a point alike: each column of an array-start orbit
    is that start's one-point orbit, bit for bit."""
    bx, by = orbit_arrays(m, starts[:, 0], starts[:, 1], n)
    for k, (x0, y0) in enumerate(starts):
        sx, sy = orbit_arrays(m, float(x0), float(y0), n)
        assert np.array_equal(bx[:, k].view(np.int64), sx.view(np.int64)), (m, x0, y0)
        assert np.array_equal(by[:, k].view(np.int64), sy.view(np.int64)), (m, x0, y0)


def test_array_start_orbits_equal_point_orbits_on_the_readme_map(rng, perturbed_rotation):
    _assert_columns_are_point_orbits(perturbed_rotation, rng.uniform(0.0, 1.0, (200, 2)), 200)


def test_array_start_orbits_equal_point_orbits_on_random_maps(rng):
    for _ in range(12):
        m = random_composition(rng, max_leaves=4)
        _assert_columns_are_point_orbits(m, rng.uniform(0.0, 1.0, (100, 2)), 200)


@pytest.mark.parametrize("kind", ["twist-tabulated", "twist-negated", "disk-tabulated", "disk-negated"])
def test_array_start_orbits_equal_point_orbits_on_tabulated_and_negated_profiles(kind, rng):
    for leaf in LEAVES[kind]:
        m = Compose(RigidRotation(GOLDEN), leaf)
        _assert_columns_are_point_orbits(m, rng.uniform(0.0, 1.0, (50, 2)), 200)


def test_scalar_start_makes_no_numpy_step(monkeypatch, perturbed_rotation):
    calls = []
    for cls in (RigidRotation, Twist, LocalDiskTwist):
        def counted(self, xt, y, with_jacobian=False, _step=cls.step):
            calls.append(self)
            return _step(self, xt, y, with_jacobian)

        monkeypatch.setattr(cls, "step", counted)
    m = Compose(Twist(PolyBumpProfile(0.7)), perturbed_rotation)
    orbit_arrays(m, 0.3, 0.55, 50)
    orbit_arrays(m, np.float64(0.3), np.asarray(0.55), 50)
    assert calls == []
    orbit_arrays(m, np.array([0.3, 0.6]), 0.55, 50)
    assert len(calls) == 49 * 3


def _random_disk(rng):
    while True:
        disks = [leaf for leaf in random_composition(rng, max_leaves=4).leaves()
                 if isinstance(leaf, LocalDiskTwist)]
        if disks:
            return disks[0]


def _ring(disk, r, nudges=range(-4, 5)):
    """Points at chart radius about r, each nudged by whole ulps in x and y."""
    cx, cy = disk.center.x, disk.center.y
    pts = []
    for theta in np.linspace(0.1, 0.1 + 2 * np.pi, 12, endpoint=False):
        x0 = cx + r * np.cos(theta)
        y0 = cy + r * np.sin(theta)
        pts += [(float(x0 + i * np.spacing(x0)), float(y0 + j * np.spacing(y0)))
                for i in nudges for j in nudges]
    return pts


@pytest.mark.parametrize("which", ["readme", "random"])
def test_screened_step_point_at_the_support_circle(which, rng):
    disk = (LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), BUMP_R, BUMP_C)
            if which == "readme" else _random_disk(rng))
    R = disk.radius
    screen = R * R * (1.0 + 1e-9)
    near_circle = _ring(disk, R)
    near_screen = _ring(disk, float(np.sqrt(screen)))
    hyp = [float(np.hypot(*disk.chart_offsets(*pt))) for pt in near_circle]
    # within a few ulps of the coordinates, which are coarser than R's
    assert max(abs(h - R) for h in hyp) <= 16 * np.spacing(1.0)
    assert min(hyp) < R <= max(hyp)
    sq = [float(u * u + v * v) for u, v in (disk.chart_offsets(*pt) for pt in near_screen)]
    assert min(sq) < screen <= max(sq)
    inside_ring = _ring(disk, R * (1.0 - 1e-6), [0]) + _ring(disk, 0.5 * R, [0])
    for xt, y in near_circle + near_screen + inside_ring:
        want_xt, want_y, _ = disk.step(np.asarray(xt), np.asarray(y))
        assert disk.apply_point(xt, y) == (float(want_xt), float(want_y)), (xt, y)


def _disk_cases(rng):
    """The README disk, a random disk and a disk centred at x = 0 (its chart
    disk lies across the x-wrap)."""
    return {
        "readme": LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), BUMP_R, BUMP_C),
        "random": _random_disk(rng),
        "wrap": LocalDiskTwist.poly_bump(AnnulusPoint(0.0, 0.4), 0.3, -4.0),
    }


def _ulp_rings(disk):
    return _ring(disk, disk.radius) + _ring(disk, float(np.sqrt(disk._screen)))


def _assert_complex_abs_is_hypot(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    want = np.hypot(u, v)
    got = np.array([abs(complex(a, b)) for a, b in zip(u.tolist(), v.tolist())])
    bad = np.nonzero(got.view(np.uint64) != want.view(np.uint64))[0]
    assert bad.size == 0, [(u[i], v[i], got[i], want[i]) for i in bad[:5]]
    for i in range(0, u.size, max(1, u.size // 1000)):
        assert _bits(abs(complex(u[i], v[i]))) == _bits(np.hypot(u[i], v[i]))


def test_complex_abs_is_numpy_hypot_on_random_chart_offsets(rng):
    # the point pass and point_margin take the radius from abs(complex(u, v)),
    # which calls the C library's hypot as np.hypot does; this guards that
    # the two agree on this platform
    n = 1_000_000
    u = rng.uniform(-0.5, 0.5, n)
    v = rng.uniform(-1.0, 1.0, n)
    _assert_complex_abs_is_hypot(u, v)


def test_complex_abs_is_numpy_hypot_at_the_edges(rng):
    offsets = []
    for disk in _disk_cases(rng).values():
        pts = np.array(_ulp_rings(disk) + _ring(disk, 0.5 * disk.radius, [0]))
        offsets += list(zip(*disk.chart_offsets(pts[:, 0], pts[:, 1])))
    tiny = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
            1e-310, 3.5e-320, 0.5, -0.5, 1.0]
    offsets += [(a, b) for a in tiny for b in tiny]
    u, v = np.array(offsets).T
    _assert_complex_abs_is_hypot(u, v)
    # the sign of a zero does not leak into the radius
    for a in (0.0, -0.0):
        for b in (0.0, -0.0):
            assert _bits(abs(complex(a, b))) == _bits(np.hypot(a, b)) == _bits(0.0)


def test_point_margin_equals_kink_margin_bit_for_bit(rng):
    for name, disk in _disk_cases(rng).items():
        pts = _ulp_rings(disk) + _ring(disk, 0.5 * disk.radius, [0])
        cx, cy = disk.center.x, disk.center.y
        # across the x-wrap, and lifted by whole turns
        pts += [(cx + 0.5 + d, cy) for d in (-1e-12, 0.0, 1e-12)]
        pts += [(xt + k, y) for k in (-2.0, 1.0) for xt, y in pts[:40]]
        for xt, y in pts:
            got = disk.point_margin(xt, y)
            assert type(got) is float
            assert _bits(got) == _bits(disk.kink_margin(np.asarray(xt), np.asarray(y))), (name, xt, y)
    assert RigidRotation(GOLDEN).point_margin(0.3, 0.5) is None


@pytest.mark.parametrize("n", [0, 1, 2])
def test_scalar_orbit_arrays_keep_their_contract_for_short_orbits(n, perturbed_rotation):
    xs, ys = orbit_arrays(perturbed_rotation, 0.3, 0.55, n)
    want_xs, want_ys = _numpy_point_orbit(perturbed_rotation, 0.3, 0.55, n)
    for got, want in ((xs, want_xs), (ys, want_ys)):
        assert got.shape == (n,) and got.dtype == np.float64 and got.flags.writeable
        assert np.array_equal(got, want)
        got[...] = 1.0
    with pytest.raises(ValueError):
        orbit_arrays(perturbed_rotation, 0.3, 0.55, -1)


def _count_hypot(monkeypatch):
    calls = []
    hypot = np.hypot

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return hypot(*args, **kwargs)

    monkeypatch.setattr(np, "hypot", counted)
    return calls


def test_scalar_orbit_makes_no_numpy_hypot_call(monkeypatch, perturbed_rotation):
    calls = _count_hypot(monkeypatch)
    xs, ys = orbit_arrays(perturbed_rotation, 0.3, 0.55, 2_000)
    assert calls == []
    # the orbit enters the disk, so many of its steps took a radius
    disk = perturbed_rotation.leaves()[0]
    assert sum(disk.point_margin(x, y) < 0 for x, y in zip(xs.tolist(), ys.tolist())) > 100


def test_segment_bisection_makes_no_numpy_hypot_call(monkeypatch, perturbed_rotation):
    from annact.action import _bump_stage_margins, _path_breakpoints
    from annact.phase_space import LiftedPoint

    m = Compose(perturbed_rotation, LocalDiskTwist.poly_bump(AnnulusPoint(0.0, 0.4), 0.3, -4.0))
    dogleg = [LiftedPoint(0.0, 0.0), LiftedPoint(0.45, 0.8), LiftedPoint(1.3, 0.35)]
    calls = _count_hypot(monkeypatch)
    for a, b in zip(dogleg, dogleg[1:]):
        del calls[:]
        cuts = _path_breakpoints(m, (a, b))[0]
        scan_calls = list(calls)
        del calls[:]
        ts = np.linspace(0.0, 1.0, 513)
        _bump_stage_margins(m, a.xt + ts * (b.xt - a.xt), np.clip(a.y + ts * (b.y - a.y), 0.0, 1.0))
        # the 60 probes per cut run on floats: only the sign scan calls np.hypot,
        # once per disk stage for its margins and once per disk step on the scan
        assert cuts and scan_calls == calls


def test_segment_bisection_stops_when_the_bracket_stops_moving(monkeypatch, perturbed_rotation):
    import annact.action as action
    from annact.phase_space import LiftedPoint

    m = Compose(perturbed_rotation, LocalDiskTwist.poly_bump(AnnulusPoint(0.0, 0.4), 0.3, -4.0))
    dogleg = [LiftedPoint(0.0, 0.0), LiftedPoint(0.45, 0.8), LiftedPoint(1.3, 0.35)]
    probe = action._point_stage_margin
    probes = []

    def counted(*args):
        probes.append(args)
        return probe(*args)

    monkeypatch.setattr(action, "_point_stage_margin", counted)
    cuts = sum(len(action._path_breakpoints(m, (a, b))[0]) for a, b in zip(dogleg, dogleg[1:]))
    # a full bisection is one probe at lo plus 60 halvings; the bracket of a
    # float parameter stops shrinking well before that
    assert cuts and len(probes) < 60 * cuts


def _array_pass_orbit(m, x, y, n):
    """The array pass: the orbit of a one-point array start."""
    xs, ys = orbit_arrays(m, np.array([x]), np.array([y]), n)
    return xs[:, 0], ys[:, 0]


def _point_pass_maps():
    maps = {kind: Compose(RigidRotation(GOLDEN), leaf)
            for kind, leaves in LEAVES.items() for leaf in leaves[:1]}
    maps["twist-negated-linear"] = Compose(RigidRotation(GOLDEN), LEAVES["twist-negated"][1])
    for k, leaf in enumerate(LEAVES["disk-negated"][1:]):
        maps[f"disk-negated-{k}"] = Compose(RigidRotation(GOLDEN), leaf)
    maps["iterate"] = Iterate(Compose(LEAVES["twist-tabulated"][0], LEAVES["disk-poly-bump"][1]), 3)
    maps["four-leaf"] = Compose(
        Compose(LEAVES["disk-tabulated"][0], LEAVES["twist-negated"][0]),
        Compose(Twist(LinearProfile()), RigidRotation(GOLDEN)))
    return maps


@pytest.mark.parametrize("n", [0, 1, 2, 5_000])
def test_point_pass_equals_the_array_pass_bit_for_bit(n):
    for name, m in _point_pass_maps().items():
        xs, ys = orbit_arrays(m, 0.3, 0.55, n)
        want_xs, want_ys = _array_pass_orbit(m, 0.3, 0.55, n)
        assert xs.shape == want_xs.shape == (n,)
        assert np.array_equal(xs.view(np.int64), want_xs.view(np.int64)), name
        assert np.array_equal(ys.view(np.int64), want_ys.view(np.int64)), name
        for xt, y in zip(want_xs[:50].tolist(), want_ys[:50].tolist()):
            got = m.apply_point(xt, y)
            want = m.apply_lift(np.array([xt]), np.array([y]))
            assert type(got[0]) is float and type(got[1]) is float
            assert (_bits(got[0]), _bits(got[1])) == (_bits(want[0][0]), _bits(want[1][0])), name


def test_a_second_map_with_the_same_leaf_kinds_compiles_nothing(monkeypatch):
    import annact.maps as maps

    calls = []

    def counted(*args):
        calls.append(args)
        return compile(*args)

    monkeypatch.setattr(maps, "compile", counted, raising=False)

    def readme_like(a, c):
        return Compose(RigidRotation(a), LocalDiskTwist.poly_bump(AnnulusPoint(0.5, 0.5), 0.3, c))

    first, second = readme_like(0.1, 3.0), readme_like(GOLDEN, -7.0)
    maps._compile_point_pass.cache_clear()
    first_orbit = orbit_arrays(first, 0.3, 0.55, 100)
    for leaf in first.leaves():
        leaf.apply_point(0.3, 0.55)
    assert len(calls) == 3  # the map's pass and each leaf's own
    second_orbit = orbit_arrays(second, 0.3, 0.55, 100)
    for leaf in second.leaves():
        leaf.apply_point(0.3, 0.55)
    assert len(calls) == 3
    # each map steps with its own constants
    assert not np.array_equal(first_orbit[0], second_orbit[0])
    assert np.array_equal(second_orbit[0], _array_pass_orbit(second, 0.3, 0.55, 100)[0])


def test_a_map_pickles_after_its_point_pass_is_compiled(perturbed_rotation):
    import pickle

    want = perturbed_rotation.apply_point(0.3, 0.55)
    for leaf in perturbed_rotation.leaves():
        leaf.apply_point(0.3, 0.55)
    copy = pickle.loads(pickle.dumps(perturbed_rotation))
    assert copy.apply_point(0.3, 0.55) == want
