"""The plot CSV trajectories: layout, seeds and agreement with per-seed orbits."""

import numpy as np

from annact import AnnulusPoint, Compose, LocalDiskTwist, PolyBumpProfile, RigidRotation, Twist
from annact.cli import phase_portrait_csv
from annact.maps import orbit_arrays


def test_phase_portrait_layout_and_trajectories():
    # a mild map, so the one-point and array paths stay within rounding
    m = Compose(RigidRotation(0.37),
                Compose(Twist(PolyBumpProfile(0.3)),
                        LocalDiskTwist.poly_bump(AnnulusPoint(0.4, 0.5), 0.3, 1.5)))
    n, steps = 5, 40
    lines = phase_portrait_csv(m, seeds_per_axis=n, steps=steps).splitlines()
    assert lines[0] == "kind,id,step,x,y"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == n * n * steps
    assert {r[0] for r in rows} == {"trajectory"}
    assert [(int(r[1]), int(r[2])) for r in rows] == [
        (sid, step) for sid in range(n * n) for step in range(steps)]
    got = np.array([[float(r[3]), float(r[4])] for r in rows]).reshape(n * n, steps, 2)
    for sid in range(n * n):
        i, j = divmod(sid, n)
        assert tuple(got[sid, 0]) == ((i + 0.5) / n, (j + 0.5) / n)
        xs, ys = orbit_arrays(m, (i + 0.5) / n, (j + 0.5) / n, steps)
        dx = np.abs(got[sid, :, 0] - xs % 1.0)
        assert np.max(np.minimum(dx, 1.0 - dx)) < 1e-12
        assert np.max(np.abs(got[sid, :, 1] - ys)) < 1e-12
