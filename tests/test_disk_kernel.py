"""The disk-twist array kernel works only on the rows inside the support and
must still give every bit of the full-array kernel it replaced; the two
helpers of the census and the path integrator that moved off numpy calls
must give the floats of the routines they replaced."""

import numpy as np
import pytest

from annact.action import _path_breakpoints
from annact.maps import (
    AnnulusPoint,
    LocalDiskTwist,
    PolyBumpRadial,
    TabulatedRadial,
    random_composition,
)
from annact.orbits import _cyclic_distance
from annact.phase_space import LiftedPoint

from conftest import BUMP_C

# R = 1/4 is exact, so points at r = R can be written down exactly
R = 0.25
RS = np.linspace(0.0, R, 9)
PROFILES = {
    "poly-bump": PolyBumpRadial(BUMP_C, R),
    "tabulated": TabulatedRadial(RS, 6.0 * (1.0 - (RS / R) ** 2) ** 2),
    "negated": PolyBumpRadial(BUMP_C, R).negated(),
}


def _where_step(leaf, xt, y, with_jacobian=False):
    """Oracle: the full-array kernel, the rotation and np.where on every row."""
    xt = np.asarray(xt, dtype=float)
    y = np.asarray(y, dtype=float)
    u = (xt - leaf.center.x + 0.5) % 1.0 - 0.5
    v = y - leaf.center.y
    r = np.hypot(u, v)
    rc = np.minimum(r, leaf.radius)
    inside = r < leaf.radius
    ang = leaf.profile.phi(rc)
    ca, sa = np.cos(ang), np.sin(ang)
    xt1 = xt + np.where(inside, u * ca - v * sa - u, 0.0)
    y1 = y + np.where(inside, u * sa + v * ca - v, 0.0)
    if not with_jacobian:
        return xt1, y1, None
    k = leaf.profile.dphi_over_r(rc)
    gu = -sa * u - ca * v
    gv = ca * u - sa * v
    d = np.empty(np.shape(rc) + (2, 2))
    d[..., 0, 0] = np.where(inside, ca + k * gu * u, 1.0)
    d[..., 0, 1] = np.where(inside, -sa + k * gu * v, 0.0)
    d[..., 1, 0] = np.where(inside, sa + k * gv * u, 0.0)
    d[..., 1, 1] = np.where(inside, ca + k * gv * v, 1.0)
    return xt1, y1, d


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _assert_same(got, want):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert np.shape(g) == np.shape(w)
        assert np.array_equal(_bits(g), _bits(w))


# For the disk centred at (0.5, 0.5): points where hypot(u, v) < R although
# u^2 + v^2 rounds to R^2 or above, so the screen needs its margin ...
SCREEN_POINTS = [(0.3513912854707041, 0.2989640580245656),
                 (0.37154192214860315, 0.7144726608095411),
                 (0.2665228529411123, 0.589377971565943)]
# ... and points where squaring r / R by libm pow (numpy's ** 2 on one
# float) and by a multiply round differently; the profiles square by a
# multiply, so a 0-d input and an array row must agree there
POW_POINTS = [(0.4158288928848194, 0.6427654425194721),
              (0.4891696941275533, 0.5808610751381349),
              (0.6722685023943342, 0.5284310898563451)]


def _edge_points(cx):
    """Points on the circle r = R (lifted by whole turns), across the x-wrap,
    at +-0.0, on both boundaries and at the centre."""
    xs, ys = [], []
    for shift in (0.0, 1.0, -2.0):
        for x, y in [(R, 0.0), (-R, 0.0), (0.0, R), (0.0, -R), (0.0, 0.0), (0.5, 0.0)]:
            xs.append(cx + shift + x)
            ys.append(0.5 + y)
    xs += [0.0, -0.0, 1.0, -1.0, 0.3, 0.3, cx, cx, cx + 1e-12, cx - 1e-12, 0.999999, 1e-300]
    ys += [0.5, 0.5, 0.5, 0.5, 0.0, 1.0, 0.0, 1.0, 0.6, 0.4, 0.5, -0.0]
    # just inside and just outside the circle, where u^2 + v^2 and hypot
    # may round to different sides of R^2 and R
    theta = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    for scale in (1.0 - 1e-12, 1.0 - 1e-15, 1.0 + 1e-15, 1.0 + 1e-12):
        xs += list(cx + scale * R * np.cos(theta))
        ys += list(0.5 + scale * R * np.sin(theta))
    for x, y in SCREEN_POINTS + POW_POINTS:
        xs.append(x - 0.5 + cx)
        ys.append(y)
    return np.array(xs), np.array(ys)


def _points(rng, cx):
    ex, ey = _edge_points(cx)
    xs = np.concatenate([ex, rng.uniform(-2.0, 3.0, 400)])
    ys = np.concatenate([ey, rng.uniform(0.0, 1.0, 400)])
    return xs, ys


@pytest.mark.parametrize("with_jacobian", [False, True])
@pytest.mark.parametrize("kind", sorted(PROFILES))
@pytest.mark.parametrize("cx", [0.5, 0.0])
def test_step_equals_full_array_kernel(kind, cx, with_jacobian, rng):
    leaf = LocalDiskTwist(AnnulusPoint(cx, 0.5), R, PROFILES[kind])
    xs, ys = _points(rng, cx)
    inside = np.hypot(*leaf.chart_offsets(xs, ys)) < R
    assert 20 < inside.sum() < inside.size - 20
    X, Y = np.meshgrid(np.linspace(-0.5, 1.5, 41), np.linspace(0.0, 1.0, 37), indexing="ij")
    cases = [
        (xs, ys),                      # 1-d
        (X, Y),                        # 2-d meshgrid
        (X.T, Y.T),                    # not C-contiguous
        (0.75, ys),                    # scalar x, array y
        (xs, np.asarray(0.5)),         # array x, 0-d y
        (xs[:, None], ys[None, :40]),  # two broadcast axes
        (xs[:0], ys[:0]),              # no rows
    ]
    points = list(zip(xs[:40], ys[:40])) + [(x - 0.5 + cx, y) for x, y in POW_POINTS]
    cases += [(float(x), float(y)) for x, y in points]              # floats
    cases += [(np.asarray(x), np.float64(y)) for x, y in points]    # 0-d
    for xt, y in cases:
        _assert_same(leaf.step(xt, y, with_jacobian), _where_step(leaf, xt, y, with_jacobian))


def test_offset_reduction_is_float_modulo():
    tiny = np.nextafter(0.0, 1.0)
    big = 2.0**53
    edges = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, tiny, -tiny, 1e-300, -1e-300,
                      1e-17, -1e-17, 1.0 - 2**-53, -(1.0 - 2**-53), 1.0 + 2**-52, -1.0 - 2**-52,
                      big, -big, big + 2.0, -big - 2.0, 2.0**52 + 0.5, -(2.0**52) - 0.5,
                      1e300, -1e300, 123.456, -123.456])
    w = np.concatenate([edges, np.random.default_rng(7).uniform(-1e6, 1e6, 10_000),
                        np.random.default_rng(8).uniform(-3.0, 3.0, 10_000)])
    assert np.array_equal((w - np.floor(w)).view(np.int64), (w % 1.0).view(np.int64))
    # and on one point, where numpy computes on scalars
    for e in edges:
        assert np.float64(e - np.floor(e)).view(np.int64) == np.float64(e % 1.0).view(np.int64)


def test_outside_rows_skip_the_rotation(monkeypatch):
    profile = PolyBumpRadial(BUMP_C, R)
    rows = []

    def counted_phi(r, _phi=profile.phi):
        rows.append(np.size(r))
        return _phi(r)

    monkeypatch.setattr(profile, "phi", counted_phi)
    leaf = LocalDiskTwist(AnnulusPoint(0.5, 0.5), R, profile)
    # every point outside the disk, some of them on its circle
    xs = np.array([0.0, 0.1, 0.75, 0.25, 0.5, 0.5, 1.9])
    ys = np.array([0.5, 0.9, 0.5, 0.5, 0.75, 0.25, 0.05])
    for with_jacobian in (False, True):
        xt1, y1, d = leaf.step(xs, ys, with_jacobian)
        assert np.array_equal(xt1, xs) and np.array_equal(y1, ys)
    assert sum(rows) == 0
    # two of these points are inside: phi sees those two rows only
    leaf.step(np.array([0.5, 0.0, 0.6]), np.array([0.5, 0.5, 0.45]))
    assert rows == [2]


def _where_action(leaf, xt, y):
    """Oracle: the full-array action kernel, the clipped radius and the
    rotation on every row, then np.where."""
    u, v = leaf.chart_offsets(xt, y)
    r = np.hypot(u, v)
    rc = np.minimum(r, leaf.radius)
    u1, v1, _ = leaf._rotate(u, v, rc)
    cy = leaf.center.y
    s_before = u * (0.5 * v + cy)
    s_after = u1 * (0.5 * v1 + cy)
    return np.where(r < leaf.radius, leaf.profile.action_radial(rc) + s_after - s_before, 0.0)


@pytest.mark.parametrize("kind", sorted(PROFILES))
@pytest.mark.parametrize("cx", [0.5, 0.0])
def test_action_equals_full_array_kernel(kind, cx, rng):
    leaf = LocalDiskTwist(AnnulusPoint(cx, 0.5), R, PROFILES[kind])
    xs, ys = _points(rng, cx)
    X, Y = np.meshgrid(np.linspace(-0.5, 1.5, 41), np.linspace(0.0, 1.0, 37), indexing="ij")
    cases = [(xs, ys), (X, Y), (X.T, Y.T), (0.75, ys), (xs, np.asarray(0.5)),
             (xs[:, None], ys[None, :40]), (xs[:0], ys[:0])]
    points = list(zip(xs[:40], ys[:40])) + [(x - 0.5 + cx, y) for x, y in POW_POINTS]
    cases += [(float(x), float(y)) for x, y in points]
    cases += [(np.asarray(x), np.float64(y)) for x, y in points]
    for xt, y in cases:
        got, want = leaf.action(xt, y), _where_action(leaf, xt, y)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("kind", sorted(PROFILES))
@pytest.mark.parametrize("cx", [0.5, 0.0])
def test_zero_d_input_is_one_row(kind, cx):
    leaf = LocalDiskTwist(AnnulusPoint(cx, 0.5), R, PROFILES[kind])
    for x, y in POW_POINTS:
        x += cx - 0.5
        for with_jacobian in (False, True):
            got = leaf.step(np.asarray(x), np.asarray(y), with_jacobian)
            row = leaf.step(np.array([x]), np.array([y]), with_jacobian)
            assert np.shape(got[0]) == np.shape(got[1]) == ()
            _assert_same(got, [None if w is None else w[0] for w in row])
        got = leaf.action(np.asarray(x), np.asarray(y))
        assert np.shape(got) == ()
        assert _bits(got) == _bits(leaf.action(np.array([x]), np.array([y]))[0])


def test_action_outside_rows_skip_the_rotation(monkeypatch):
    profile = PolyBumpRadial(BUMP_C, R)
    rows = []

    def counted_phi(r, _phi=profile.phi):
        rows.append(np.size(r))
        return _phi(r)

    monkeypatch.setattr(profile, "phi", counted_phi)
    leaf = LocalDiskTwist(AnnulusPoint(0.5, 0.5), R, profile)
    xs = np.array([0.0, 0.1, 0.75, 0.25, 0.5, 0.5, 1.9])
    ys = np.array([0.5, 0.9, 0.5, 0.5, 0.75, 0.25, 0.05])
    assert np.array_equal(_bits(leaf.action(xs, ys)), _bits(np.zeros(xs.size)))
    assert _bits(leaf.action(0.1, 0.9)) == 0
    assert rows == []
    g = leaf.action(np.array([0.5, 0.0, 0.6]), np.array([0.5, 0.5, 0.45]))
    assert rows == [2]
    assert g[0] < 0.0 and _bits(g[1]) == 0 and g[2] != 0.0


# ---------------------------------------------------------------------------
# the two satellites: bisection on the point pass, median by sorting
# ---------------------------------------------------------------------------

def _array_margins(m, xt, y):
    xt = np.asarray(xt, dtype=float)
    yy = np.asarray(y, dtype=float)
    margins = []
    for leaf in m.leaves():
        margin = leaf.kink_margin(xt, yy)
        if margin is not None:
            margins.append(margin)
        xt, yy, _ = leaf.step(xt, yy)
    return margins


def _array_breakpoints(m, a, b, scan=512):
    """Oracle: the sign scan plus bisection with every margin from the array kernel."""
    dx, dy = b.xt - a.xt, b.y - a.y
    ts = np.linspace(0.0, 1.0, scan + 1)
    margins = _array_margins(m, a.xt + ts * dx, np.clip(a.y + ts * dy, 0.0, 1.0))
    cuts = []
    for stage, vals in enumerate(margins):
        for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
            lo, hi = ts[i], ts[i + 1]

            def margin(t, stage=stage):
                x = a.xt + t * dx
                y = min(max(a.y + t * dy, 0.0), 1.0)
                return float(_array_margins(m, x, y)[stage])

            flo = margin(lo)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = margin(mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            cuts.append(0.5 * (lo + hi))
    return sorted(t for t in cuts if 1e-12 < t < 1.0 - 1e-12)


def test_segment_breakpoints_match_array_bisection(rng):
    found = 0
    for _ in range(24):
        m = random_composition(rng, max_leaves=4)
        origin = LiftedPoint(0.0, 0.0)
        mid = LiftedPoint(*rng.uniform((0.0, 0.0), (1.0, 1.0)))
        end = LiftedPoint(*rng.uniform((0.0, 0.05), (1.0, 1.0)))
        # the dog-leg's two segments share one scan; the straight path has its own
        got = _path_breakpoints(m, (origin, mid, end)) + _path_breakpoints(m, (origin, end))
        for cuts, (a, b) in zip(got, [(origin, mid), (mid, end), (origin, end)]):
            assert cuts == _array_breakpoints(m, a, b)
            found += len(cuts)
    assert found > 10


@pytest.mark.parametrize("q", range(1, 10))
def test_cyclic_distance_matches_median_reference(q, rng):
    a = rng.uniform(0.0, 1.0, (50, q, 2))
    b = a + rng.normal(0.0, 0.3, (50, q, 2)) + rng.integers(-3, 4, (50, 1, 1))
    b[:10] = a[:10] + rng.integers(-3, 4, (10, q, 1)) * np.array([1.0, 0.0])
    p = int(rng.integers(0, 5))
    idx = np.arange(q)[:, None] + np.arange(q)
    rolled = b[..., idx % q, :]
    dx = a[..., None, :, 0] - (rolled[..., 0] + p * (idx // q))
    k = np.round(np.median(dx, axis=-1, keepdims=True))
    dy = np.abs(a[..., None, :, 1] - rolled[..., 1]).max(axis=-1)
    want = np.maximum(np.abs(dx - k).max(axis=-1), dy).min(axis=-1)
    assert np.array_equal(_cyclic_distance(a, b, p), want)
    # broadcast as the dedup scan calls it: several kept orbits against one
    one = _cyclic_distance(a, b[0], p)
    assert np.array_equal(one, _cyclic_distance(a, np.broadcast_to(b[0], a.shape), p))
