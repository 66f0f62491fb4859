"""The batched path quadrature: every segment still refining shares one
integrand call per doubling round, and each keeps the value, stopping rule
and error it gets on its own. The reference is the per-segment loop that
line_integral ran before, kept here with its own doubling loop."""

import numpy as np
import pytest

from annact import (
    ActionContext,
    AnnulusPoint,
    LiftedPoint,
    NonConvergentError,
    PolylinePath,
    QuadratureSpec,
    action_function_via_path,
    line_integral,
    map_from_shorthand,
    path_independence_defect,
)
from annact.action import _cut_path, _PullbackForm
from annact.phase_space import GAUSS_POINTS, _line_integrals
from annact.util import gauss_nodes_unit, pairwise_sum

CTX = ActionContext.default()
MAPS = {
    "readme": "rigid:a=0.6180339887*disk:cx=0.5,cy=0.5,R=0.35,c=50.85",
    "weak-bump": "rigid:a=0.6180339887*disk:cx=0.5,cy=0.5,R=0.35,c=1",
    "twist-disk": "twist:bump,c=0.9*disk:cx=0.37,cy=0.52,R=0.3,c=4.2",
}
TARGET = AnnulusPoint(0.3, 0.35)
# a dog-leg from the base point across each map's disk to a lift of TARGET
DOGLEG = PolylinePath((LiftedPoint(0.0, 0.0), LiftedPoint(0.45, 0.8), LiftedPoint(1.3, 0.35)))


def _segment_reference(form, a, b, refinement, quad):
    """(value, doublings) of one segment: the composite rule and the doubling
    loop of the per-segment integrator."""
    nodes, weights = gauss_nodes_unit(GAUSS_POINTS)
    dx, dy = b.xt - a.xt, b.y - a.y
    pieces0 = max(1, int(np.ceil(float(np.hypot(dx, dy)) / refinement)))

    def rule(scale):
        pieces = pieces0 * scale
        t0 = np.arange(pieces, dtype=float) / pieces
        t = (t0[:, None] + nodes[None, :] / pieces).ravel()
        w = np.tile(weights / pieces, pieces)
        ca, cb = form.coefficients(a.xt + t * dx, np.clip(a.y + t * dy, 0.0, 1.0))
        return pairwise_sum(w * np.asarray(ca * dx + cb * dy, dtype=float))

    scale = 1
    prev = rule(scale)
    for doublings in range(1, quad.max_halvings + 1):
        scale *= 2
        cur = rule(scale)
        inc = abs(cur - prev)
        prev = cur
        if inc < quad.tol:
            return cur, doublings
    raise NonConvergentError(
        f"path quadrature stalled above tol={quad.tol} at {scale}x the starting resolution",
        value=prev, increment=inc)


def _path_reference(form, path, quad=QuadratureSpec()):
    """(integral, doublings of each segment)."""
    total, doublings = 0.0, []
    for a, b in zip(path.vertices, path.vertices[1:]):
        value, k = _segment_reference(form, a, b, path.refinement, quad)
        total += value
        doublings.append(k)
    return total, doublings


def _routes(m):
    straight = PolylinePath.straight(CTX.base_point.lift(), TARGET.lift())
    return _cut_path(m, straight), _cut_path(m, DOGLEG)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_batched_values_equal_the_per_segment_reference(name):
    m = map_from_shorthand(MAPS[name])
    form = _PullbackForm(m, CTX.shift)
    straight, dogleg = _routes(m)
    want_straight, k_straight = _path_reference(form, straight)
    want_dogleg, k_dogleg = _path_reference(form, dogleg)
    # the cuts give several segments, and they stop at different scales
    assert len(k_dogleg) > 2 and len(set(k_straight + k_dogleg)) > 1
    assert action_function_via_path(m, CTX, TARGET) == want_straight
    assert action_function_via_path(m, CTX, TARGET, DOGLEG) == want_dogleg
    assert line_integral(form, dogleg) == want_dogleg
    assert _line_integrals(form, [straight, dogleg]) == [want_straight, want_dogleg]
    assert path_independence_defect(m, CTX, TARGET, DOGLEG) == abs(want_straight - want_dogleg)


def test_a_stalled_segment_raises_as_it_did_alone():
    m = map_from_shorthand(MAPS["readme"])
    form = _PullbackForm(m, 0.0)
    quad = QuadratureSpec(max_halvings=1)
    # off the disk the rotation pulls beta back to itself: the segments up to
    # the support circle integrate zeros and converge, the last one stalls
    path = _cut_path(m, PolylinePath((LiftedPoint(0.0, 0.0), LiftedPoint(0.5, 0.0),
                                      LiftedPoint(0.5, 0.5))))
    assert _segment_reference(form, *path.vertices[:2], path.refinement, quad) == (0.0, 1)
    with pytest.raises(NonConvergentError) as want:
        _path_reference(form, path, quad)
    calm = PolylinePath.straight(LiftedPoint(0.0, 0.0), LiftedPoint(0.7, 0.0))
    for run in (lambda: line_integral(form, path, quad),
                lambda: _line_integrals(form, [calm, path], quad)):
        with pytest.raises(NonConvergentError) as got:
            run()
        assert str(got.value) == str(want.value)
        assert got.value.value == want.value.value
        assert got.value.increment == want.value.increment


@pytest.mark.parametrize("name", sorted(MAPS))
def test_one_integrand_call_per_doubling_round(name, monkeypatch):
    m = map_from_shorthand(MAPS[name])
    straight, dogleg = _routes(m)
    form = _PullbackForm(m, CTX.shift)
    most = max(_path_reference(form, straight)[1] + _path_reference(form, dogleg)[1])
    calls = []
    coefficients = _PullbackForm.coefficients

    def counted(self, xt, y):
        calls.append(np.size(xt))
        return coefficients(self, xt, y)

    monkeypatch.setattr(_PullbackForm, "coefficients", counted)
    path_independence_defect(m, CTX, TARGET, DOGLEG)
    assert len(calls) <= most + 1
