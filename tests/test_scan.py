"""Sampled-immersion audits: topology validation, finite-difference
exactness on quadratic data, corank strata, loop winding, and the
contact-form checks."""

import cmath
import json
import math
from random import Random

import numpy as np
import pytest

from symgeo import scan
from symgeo.jsonio import ValidationError
from symgeo.scan import (DEFAULT_SCAN_TOL, NEAR_SINGULAR_BAND, ChiSpec,
                         SampledImmersion, check_lagrangian, check_legendrian,
                         corank_profile, immersion_from_csv,
                         immersion_from_json, loop_maslov, reeb_field)
from symgeo.symplectic import SymplecticSpace


def _circle(m, turns=1):
    ts = [2 * math.pi * i / m for i in range(m)]
    return SampledImmersion(
        param_dim=1, ambient_dim=2, topology="loop",
        params=[[t] for t in ts],
        points=[[math.cos(turns * t), math.sin(turns * t)] for t in ts])


def _grid(ny1, ny2, m=5):
    # dyadic grid so quadratic data stays exact through the stencils
    us = [i / (m - 1) for i in range(m)]
    params, points = [], []
    for u in us:
        for v in us:
            params.append([u, v])
            points.append([u, v, ny1(u, v), ny2(u, v)])
    return SampledImmersion(param_dim=2, ambient_dim=4, topology="grid",
                            params=params, points=points, grid_shape=(m, m))


# -- construction and validation ---------------------------------------------------


def test_rejects_unknown_topology():
    with pytest.raises(ValidationError):
        SampledImmersion(1, 2, "ring", [[0.0]], [[0.0, 0.0]])


def test_rejects_width_mismatches():
    with pytest.raises(ValidationError):
        SampledImmersion(1, 2, "line", [[0.0, 1.0]], [[0.0, 0.0]])
    with pytest.raises(ValidationError):
        SampledImmersion(1, 2, "line", [[0.0]], [[0.0, 0.0, 0.0]])
    with pytest.raises(ValidationError):
        SampledImmersion(1, 2, "line", [[0.0], [1.0]], [[0.0, 0.0]])
    with pytest.raises(ValidationError):
        SampledImmersion(2, 2, "line", [[0.0, 0.0]], [[0.0, 0.0]])
    with pytest.raises(ValidationError, match="need at least one sample"):
        SampledImmersion(1, 2, "line", [], [], frames=[])


def test_rejects_consecutive_duplicates():
    with pytest.raises(ValidationError):
        SampledImmersion(1, 2, "line", [[0.0], [1.0], [2.0]],
                         [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])


def test_loop_needs_three_samples():
    with pytest.raises(ValidationError):
        SampledImmersion(1, 2, "loop", [[0.0], [1.0]],
                         [[0.0, 0.0], [1.0, 0.0]])


def test_line_fd_needs_three_samples():
    s = SampledImmersion(1, 2, "line", [[0.0], [1.0]],
                         [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        s.tangent_frames()


def test_grid_shape_rules():
    with pytest.raises(ValidationError):
        SampledImmersion(2, 3, "grid", [[0.0, 0.0]], [[0.0, 0.0, 0.0]])
    with pytest.raises(ValidationError):
        SampledImmersion(2, 3, "grid", [[0.0, 0.0]], [[0.0, 0.0, 0.0]],
                         grid_shape=(2, 2))
    with pytest.raises(ValidationError):
        SampledImmersion(1, 3, "grid", [[0.0]], [[0.0, 0.0, 0.0]],
                         grid_shape=(1, 1))


def test_grid_fd_needs_three_by_three():
    params = [[float(i), float(j)] for i in range(2) for j in range(2)]
    points = [[p[0], p[1], p[0] + p[1]] for p in params]
    s = SampledImmersion(2, 3, "grid", params, points, grid_shape=(2, 2))
    with pytest.raises(ValidationError):
        s.tangent_frames()


def test_frame_shape_rules():
    base = dict(param_dim=1, ambient_dim=2, topology="line",
                params=[[0.0], [1.0]], points=[[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        SampledImmersion(**base, frames=[[[1.0], [0.0]]])
    with pytest.raises(ValidationError):
        SampledImmersion(**base, frames=[[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        SampledImmersion(**base, frames=[[[1.0]], [[1.0]]])


def test_rejects_non_finite_samples_and_frames():
    base = dict(param_dim=1, ambient_dim=2, topology="line",
                params=[[0.0], [1.0]], points=[[0.0, 0.0], [1.0, 0.0]])
    for bad in (dict(params=[[0.0], [float("nan")]]),
                dict(points=[[0.0, 0.0], [float("inf"), 0.0]]),
                dict(points=[[0.0, 0.0], [10 ** 400, 0.0]]),
                dict(frames=[[[1.0], [0.0]], [[float("nan")], [0.0]]]),
                dict(frames=[[[1.0], [0.0]], [[10 ** 400], [0.0]]])):
        with pytest.raises(ValidationError):
            SampledImmersion(**dict(base, **bad))


def test_analytic_frames_may_be_wider_than_param_dim():
    s = SampledImmersion(
        1, 4, "line", [[0.0], [1.0]],
        [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
        frames=[np.eye(4)[:, :2]] * 2)
    assert s.tangent_frames()[0].shape == (4, 2)


def test_chi_spec_validation():
    with pytest.raises(ValidationError):
        ChiSpec(0)
    with pytest.raises(ValidationError):
        ChiSpec(1, scale=0.0)
    with pytest.raises(ValidationError):
        ChiSpec(2, y_coeffs=(1.0, 0.0))
    with pytest.raises(ValidationError):
        ChiSpec(2, y_coeffs=(1.0,))
    # a non-finite form is refused before any frame is read
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="must be finite"):
            ChiSpec(1, scale=bad)
        with pytest.raises(ValidationError, match="must be finite"):
            ChiSpec(2, y_coeffs=(1.0, bad))


# -- Lagrangian checks --------------------------------------------------------------


def test_circle_is_lagrangian():
    rep = check_lagrangian(_circle(64), SymplecticSpace.standard(1))
    assert rep["pass"] and rep["samples"] == 64


def test_lagrangian_needs_matching_ambient():
    with pytest.raises(ValidationError):
        check_lagrangian(_circle(8), SymplecticSpace.standard(2))


def test_quadratic_gradient_graph_is_exact():
    # points are degree <= 2 in the parameters, so the stencils are exact
    s = _grid(lambda u, v: 2 * u + v, lambda u, v: u + 2 * v)
    rep = check_lagrangian(s, SymplecticSpace.standard(2))
    assert rep["pass"]
    assert rep["max_residual"] == 0.0


def test_cubic_gradient_graph_hits_fd_truncation():
    # the u^3 slot defeats the quadratic stencil; h^2 error breaks isotropy
    s = _grid(lambda u, v: 3 * u * u * v, lambda u, v: u ** 3)
    rep = check_lagrangian(s, SymplecticSpace.standard(2))
    assert not rep["pass"]
    assert rep["max_residual"] > 1e-3


def test_analytic_frames_override_fd():
    s = _grid(lambda u, v: 3 * u * u * v, lambda u, v: u ** 3)
    frames = [np.array([[1.0, 0.0], [0.0, 1.0],
                        [6 * u * v, 3 * u * u], [3 * u * u, 0.0]])
              for (u, v) in s.params]
    exact = SampledImmersion(2, 4, "grid", s.params, s.points,
                             frames=frames, grid_shape=s.grid_shape)
    rep = check_lagrangian(exact, SymplecticSpace.standard(2))
    assert rep["pass"]
    assert rep["max_residual"] == 0.0


def test_non_lagrangian_surface_fails():
    s = _grid(lambda u, v: u * u + v * v, lambda u, v: u * v)
    rep = check_lagrangian(s, SymplecticSpace.standard(2))
    assert not rep["pass"]
    assert rep["max_residual"] > 0.1


# -- corank strata ------------------------------------------------------------------


def test_circle_corank_strata_analytic():
    ts = [2 * math.pi * i / 8 for i in range(8)]
    s = SampledImmersion(
        1, 2, "loop", [[t] for t in ts],
        [[math.cos(t), math.sin(t)] for t in ts],
        frames=[[[-math.sin(t)], [math.cos(t)]] for t in ts])
    rep = corank_profile(s)
    assert rep["strata"] == {"0": [0, 4]}
    assert rep["coranks"][0] == 1 and rep["coranks"][1] == 0
    assert rep["near_singular"] == []


def test_circle_corank_strata_fd():
    rep = corank_profile(_circle(64))
    assert rep["strata"] == {"0": [0, 32]}


def test_graph_projection_is_everywhere_regular():
    s = _grid(lambda u, v: 2 * u + v, lambda u, v: u + 2 * v)
    rep = corank_profile(s)
    assert rep["strata"] == {}
    assert all(c == 0 for c in rep["coranks"])


def test_near_singular_band_is_flagged():
    eps = 5e-6   # inside (tol, 10 tol) relative to the frame scale
    s = SampledImmersion(
        1, 2, "line", [[0.0], [1.0], [2.0]],
        [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
        frames=[[[1.0], [1.0]], [[eps], [1.0]], [[1.0], [1.0]]])
    rep = corank_profile(s)
    assert rep["near_singular"] == [1]
    assert rep["strata"] == {}


def test_corank_fiber_slot_rules():
    s = _circle(8)
    with pytest.raises(ValidationError):
        corank_profile(s, fiber_slots=[2])
    with pytest.raises(ValidationError):
        corank_profile(s, fiber_slots=[0, 1])
    rep = corank_profile(s, fiber_slots=[0])
    assert rep["strata"] == {"0": [2, 6]}   # sin' = cos vanishes at pi/2, 3pi/2


# -- loop winding -------------------------------------------------------------------


def test_circle_loop_maslov():
    assert loop_maslov(_circle(64), SymplecticSpace.standard(1)) == 2


def test_doubled_circle_loop_maslov():
    assert loop_maslov(_circle(128, turns=2), SymplecticSpace.standard(1)) == 4


def _count_stencils(monkeypatch) -> list:
    calls = []
    stencil = scan._stencil_derivative

    def counted(*args):
        calls.append(1)
        return stencil(*args)

    monkeypatch.setattr(scan, "_stencil_derivative", counted)
    return calls


def test_audits_share_one_stencil_pass(monkeypatch):
    calls = _count_stencils(monkeypatch)
    s, sp = _circle(64), SymplecticSpace.standard(1)
    report = check_lagrangian(s, sp)
    profile = corank_profile(s)
    assert loop_maslov(s, sp) == 2
    assert len(calls) == 1
    surface = _grid(lambda u, v: u * u, lambda u, v: v * v)
    check_lagrangian(surface, SymplecticSpace.standard(2))
    corank_profile(surface)
    assert len(calls) == 3  # one stencil per grid direction
    assert report == check_lagrangian(_circle(64), sp)
    assert profile == corank_profile(_circle(64))


def test_overflow_refusal_is_not_cached(monkeypatch):
    calls = _count_stencils(monkeypatch)
    # the difference of samples 3 and 4 overflows inside the stencil
    s = _circle_with(points={3: [1.7e308, 0.5], 4: [-1.7e308, 0.5]})
    for _ in range(2):
        with pytest.raises(ValidationError, match="tangent frame overflows"):
            check_lagrangian(s, SymplecticSpace.standard(1))
    assert len(calls) == 2


def test_loop_maslov_needs_loop_topology():
    s = SampledImmersion(1, 2, "line", [[0.0], [1.0], [2.0]],
                         [[0.0, 0.0], [1.0, 1.0], [2.0, 4.0]])
    with pytest.raises(ValidationError):
        loop_maslov(s, SymplecticSpace.standard(1))


def test_loop_maslov_needs_n_column_planes():
    ts = [0.0, 1.0, 2.0, 3.0]
    s = SampledImmersion(
        1, 2, "loop", [[t] for t in ts],
        [[math.cos(t), math.sin(t)] for t in ts],
        frames=[np.eye(2)] * 4)
    with pytest.raises(ValidationError):
        loop_maslov(s, SymplecticSpace.standard(1))


# -- contact checks -----------------------------------------------------------------


def _jet_lift(m=9):
    # x -> (x, f'(x), f(x)) for f = x^2, on a dyadic grid
    xs = [i / 8 for i in range(m)]
    return SampledImmersion(
        1, 3, "line", [[x] for x in xs],
        [[x, 2 * x, x * x] for x in xs])


def test_jet_graph_is_legendrian():
    rep = check_legendrian(_jet_lift())
    assert rep["pass"]
    assert rep["max_residual"] == 0.0


def test_legendrian_needs_odd_ambient():
    with pytest.raises(ValidationError):
        check_legendrian(_circle(8))


def test_generic_curve_is_not_legendrian():
    xs = [i / 4 for i in range(9)]
    s = SampledImmersion(1, 3, "line", [[x] for x in xs],
                         [[x, x, x] for x in xs])
    rep = check_legendrian(s)
    assert not rep["pass"]
    assert rep["max_residual"] > 0.1


def test_chi_scale_and_coefficients():
    assert check_legendrian(_jet_lift(), ChiSpec(1, scale=5.0))["pass"]
    xs = [i / 8 for i in range(9)]
    half = SampledImmersion(1, 3, "line", [[x] for x in xs],
                            [[x, x, x * x] for x in xs])
    assert not check_legendrian(half)["pass"]
    assert check_legendrian(half, ChiSpec(1, y_coeffs=(2.0,)))["pass"]


def test_legendrian_chi_slot_mismatch():
    with pytest.raises(ValidationError):
        check_legendrian(_jet_lift(), ChiSpec(2))


def test_quadratic_legendrian_graph_n2():
    # 1-jet graph of f = x1^2 + x1 x2 in R^5 with the standard form
    m = 5
    us = [i / (m - 1) for i in range(m)]
    params, points = [], []
    for u in us:
        for v in us:
            params.append([u, v])
            points.append([u, v, 2 * u + v, u, u * u + u * v])
    s = SampledImmersion(2, 5, "grid", params, points, grid_shape=(m, m))
    rep = check_legendrian(s)
    assert rep["pass"]
    assert rep["max_residual"] == 0.0


def test_reeb_field():
    chi = ChiSpec(1, scale=2.0)
    assert reeb_field(chi, 3) == [[0.0, 0.0, 0.5]] * 3
    assert len(reeb_field(chi, _circle(8))) == 8
    with pytest.raises(ValidationError):
        reeb_field(chi, 0)


# -- loaders ------------------------------------------------------------------------


def test_json_loader_roundtrip():
    src = _circle(8)
    text = json.dumps({
        "param_dim": 1, "ambient_dim": 2, "topology": "loop",
        "params": [list(p) for p in src.params],
        "points": [list(p) for p in src.points],
    })
    s = immersion_from_json(text)
    assert np.array_equal(s.params, src.params)
    assert np.array_equal(s.points, src.points)
    assert s.topology == "loop" and s.frames is None


def test_json_loader_errors():
    with pytest.raises(ValidationError):
        immersion_from_json("[1, 2]")
    with pytest.raises(ValidationError):
        immersion_from_json("{nope")
    with pytest.raises(ValidationError):
        immersion_from_json('{"param_dim": 1}')


def test_csv_loader_with_frames():
    lines = ["p1,a1,a2,f1_1,f2_1"]
    for i in range(4):
        t = 2 * math.pi * i / 4
        lines.append(f"{t},{math.cos(t)},{math.sin(t)},"
                     f"{-math.sin(t)},{math.cos(t)}")
    s = immersion_from_csv("\n".join(lines), "loop")
    assert s.frames is not None and s.frames[0].shape == (2, 1)
    assert abs(s.frames[1][0][0] + 1.0) < 1e-12


def test_csv_loader_grid_and_errors():
    rows = ["p1,p2,a1,a2,a3"]
    for i in range(3):
        for j in range(3):
            rows.append(f"{i},{j},{i},{j},{i + j}")
    s = immersion_from_csv("\n".join(rows), "grid", grid_shape=(3, 3))
    assert s.grid_shape == (3, 3) and len(s) == 9
    with pytest.raises(ValidationError):
        immersion_from_csv("", "line")
    with pytest.raises(ValidationError):
        immersion_from_csv("p1,b1\n0,1", "line")


# -- the per-sample route, kept as an oracle ----------------------------------------
#
# The audits run as array passes over the (m, dim, k) frame stack.  The
# functions below are the per-sample route those passes replaced: one
# stencil, one checked Lagrangian frame, one polar factor and one norm per
# sample.  Both routes must give the same integers, bit-equal frames and
# residuals, and the same refusals.


def _old_stencil(ts, fs, te):
    t0, t1, t2 = float(ts[0]), float(ts[1]), float(ts[2])
    if t0 == t1 or t1 == t2 or t0 == t2:
        raise ValidationError("degenerate parameter spacing")
    te = float(te)
    w0 = (2.0 * te - t1 - t2) / ((t0 - t1) * (t0 - t2))
    w1 = (2.0 * te - t0 - t2) / ((t1 - t0) * (t1 - t2))
    w2 = (2.0 * te - t0 - t1) / ((t2 - t0) * (t2 - t1))
    return w0 * np.asarray(fs[0]) + w1 * np.asarray(fs[1]) + w2 * np.asarray(fs[2])


def _old_path_frames(s):
    pts = np.asarray(s.points)
    ts = [p[0] for p in s.params.tolist()]
    m = len(pts)
    out = []
    for i in range(m):
        if s.topology == "loop":
            period = ts[-1] - ts[0] + ((ts[1] - ts[0]) + (ts[-1] - ts[-2])) / 2
            nodes = [(i - 1) % m, i, (i + 1) % m]
            tv = [ts[nd] - period if i == 0 and nd == m - 1 else
                  ts[nd] + period if i == m - 1 and nd == 0 else ts[nd]
                  for nd in nodes]
        else:
            lo = min(max(i - 1, 0), m - 3)
            nodes = [lo, lo + 1, lo + 2]
            tv = [ts[nd] for nd in nodes]
        out.append(_old_stencil(tv, [pts[nd] for nd in nodes],
                                ts[i]).reshape(-1, 1))
    return out


def _old_grid_frames(s):
    r, c = s.grid_shape
    pts = np.asarray(s.points).reshape(r, c, s.ambient_dim)
    us = np.asarray([p[0] for p in s.params]).reshape(r, c)
    vs = np.asarray([p[1] for p in s.params]).reshape(r, c)
    out = []
    for i in range(r):
        for j in range(c):
            i0 = min(max(i - 1, 0), r - 3)
            j0 = min(max(j - 1, 0), c - 3)
            col_u = _old_stencil([us[i0 + d, j] for d in range(3)],
                                 [pts[i0 + d, j] for d in range(3)], us[i, j])
            col_v = _old_stencil([vs[i, j0 + d] for d in range(3)],
                                 [pts[i, j0 + d] for d in range(3)], vs[i, j])
            out.append(np.stack([col_u, col_v], axis=1))
    return out


def _old_frames(s):
    if s.frames is not None:
        return list(s.frames)
    try:
        with np.errstate(over="raise"):
            if s.topology == "grid":
                return _old_grid_frames(s)
            return _old_path_frames(s)
    except FloatingPointError:
        raise ValidationError("tangent frame overflows a float") from None


def _old_residual_report(s, residual, tol=DEFAULT_SCAN_TOL):
    worst = 0.0
    ok = True
    try:
        with np.errstate(over="raise"):
            for p, f in zip(s.points.tolist(), _old_frames(s)):
                raw = float(np.linalg.norm(residual(p, f)))
                scale = float(np.linalg.norm(f))
                if scale == 0.0:
                    raise ValidationError("zero tangent frame")
                if not math.isfinite(raw):
                    raise FloatingPointError
                worst = max(worst, raw / scale)
                ok = ok and raw <= tol * scale * scale
    except FloatingPointError:
        raise ValidationError("tangent frame overflows a float") from None
    return {"samples": len(s), "max_residual": worst, "tol": tol, "pass": ok}


def _old_check_lagrangian(s, space):
    omega = space.omega.to_numpy()
    return _old_residual_report(s, lambda p, f: f.T @ omega @ f)


def _old_check_legendrian(s, chi=None):
    chi = chi or ChiSpec((s.ambient_dim - 1) // 2)
    n = chi.n

    def value(point, vector):
        acc = vector[2 * n]
        for a in range(n):
            acc -= chi.y_coeffs[a] * point[n + a] * vector[a]
        return chi.scale * acc

    return _old_residual_report(
        s, lambda p, f: [value(p, f[:, j]) for j in range(f.shape[1])])


def _old_corank_profile(s, tol=DEFAULT_SCAN_TOL):
    frames = _old_frames(s)
    n = frames[0].shape[1]
    keep = list(range(n))
    coranks, near = [], []
    for idx, f in enumerate(frames):
        ref = float(np.linalg.svd(f, compute_uv=False)[0])
        if ref == 0.0:
            raise ValidationError("zero tangent frame")
        svs = np.linalg.svd(f[keep, :], compute_uv=False)
        cut = tol * ref
        coranks.append(n - int(np.sum(svs > cut)))
        if any(cut < v <= NEAR_SINGULAR_BAND * cut for v in svs):
            near.append(idx)
    return coranks, near


def _old_lagrangian_frame(space, f, tol):
    """The float frame checks one sample at a time: rank by singular values
    above tol * max(max|F|, 1), isotropy of F^T Omega F."""
    big = float(np.abs(f).max())
    if np.sum(np.linalg.svd(f, compute_uv=False) > tol * max(big, 1.0)) != f.shape[1]:
        raise ValueError("frame columns are linearly dependent")
    try:
        scale = max(big ** 2, 1.0)
    except OverflowError:
        raise ValueError("frame entries are too large for approx mode") from None
    if np.abs(f.T @ space.omega.to_numpy() @ f).max() > tol * scale:
        raise ValueError("frame is not isotropic within tolerance")
    return f


def _old_det_squared(space, f, tol):
    n = space.n
    u, sv, vh = np.linalg.svd(f[:n, :] + 1j * f[n:, :])
    if sv[-1] <= tol * max(sv[0], 1.0):
        raise ValueError("polar factor ill-conditioned beyond tolerance")
    d2 = np.linalg.det(u @ vh) ** 2
    return complex(d2 / abs(d2))


def _old_loop_maslov(s, space, tol=DEFAULT_SCAN_TOL):
    tol = max(tol, 1e-7)
    frames = [_old_lagrangian_frame(space, f, tol) for f in _old_frames(s)]
    vals = [_old_det_squared(space, f, tol) for f in frames + frames[:1]]
    total = 0.0
    for a, b in zip(vals, vals[1:]):
        step = cmath.phase(b / a)
        if abs(step) >= math.pi / 2:
            raise ValueError("undersampled loop: det2 jump of pi/2 or more")
        total += step
    turns = total / (2 * math.pi)
    deg = round(turns)
    if abs(turns - deg) > 1e-6:
        raise ValueError("loop winding failed to close to an integer")
    return int(deg)


def _ellipse(rng, m):
    """A jittered-parameter ellipse traversed q times, either way round."""
    q, sign = rng.choice((1, 2, 3)), rng.choice((1, -1))
    a, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    cx, cy = rng.uniform(-3, 3), rng.uniform(-3, 3)
    ts = [2 * math.pi * (i + rng.uniform(-0.3, 0.3)) / m for i in range(m)]
    return SampledImmersion(
        1, 2, "loop", [[t] for t in ts],
        [[cx + a * math.cos(q * t), cy + sign * b * math.sin(q * t)] for t in ts])


def _product_loop(rng, m):
    """t -> L(f1 + q1 t / 2) x L(f2 + q2 t / 2) in R^4, analytic frames with
    their columns mixed by an invertible 2 x 2 matrix."""
    q1, q2 = rng.choice((1, 2, 3, -1)), rng.choice((1, 2, -2))
    f1, f2 = rng.uniform(0, math.pi), rng.uniform(0, math.pi)
    mix = [[rng.choice((1, 2)), rng.uniform(-1, 1)], [0.0, rng.choice((1, -1, 2))]]
    ts = [2 * math.pi * i / m for i in range(m)]
    frames = []
    for t in ts:
        th1, th2 = f1 + q1 * t / 2, f2 + q2 * t / 2
        c1 = [math.cos(th1), 0.0, math.sin(th1), 0.0]
        c2 = [0.0, math.cos(th2), 0.0, math.sin(th2)]
        frames.append([[c1[r] * mix[0][j] + c2[r] * mix[1][j] for j in range(2)]
                       for r in range(4)])
    points = [[math.cos(t), math.sin(t), 0.5 * math.cos(2 * t), 0.25 * t]
              for t in ts]
    return SampledImmersion(1, 4, "loop", [[t] for t in ts], points,
                            frames=frames)


def _torus(rng, rows, cols):
    """A Lagrangian torus (r1 cos u, r2 cos v, r1 sin u, r2 sin v), or the
    non-Lagrangian (r1 cos u, r1 sin u, r2 cos v, r2 sin v), on a grid."""
    r1, r2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    lagrangian = rng.random() < 0.5
    us = [2 * math.pi * i / (rows - 3) for i in range(rows)]
    vs = [2 * math.pi * j / (cols - 3) for j in range(cols)]
    params, points = [], []
    for u in us:
        for v in vs:
            params.append([u, v])
            if lagrangian:
                points.append([r1 * math.cos(u), r2 * math.cos(v),
                               r1 * math.sin(u), r2 * math.sin(v)])
            else:
                points.append([r1 * math.cos(u), r1 * math.sin(u),
                               r2 * math.cos(v), r2 * math.sin(v)])
    return SampledImmersion(2, 4, "grid", params, points,
                            grid_shape=(rows, cols))


def _jet_curve(rng, m):
    """The jet lift of a random quadratic, sometimes broken by e t in z."""
    a, b, c = (rng.uniform(-2, 2) for _ in range(3))
    e = rng.choice((0.0, 0.0, rng.uniform(-2, 2)))
    xs = [rng.uniform(-2, 0) + i * 3 / m for i in range(m)]
    return SampledImmersion(
        1, 3, "line", [[x] for x in xs],
        [[x, 2 * a * x + b, a * x * x + b * x + c + e * x] for x in xs])


def _jet_grid(rng, rows, coeffs):
    """The 1-jet lift of a random quadratic f(x1, x2) on a jittered grid in
    R^5, with y_a = f_a / c_a, so Legendrian for dz - sum_a c_a y_a dx^a;
    sometimes broken by e x1 x2 in z."""
    a, b, c, d, e0 = (rng.uniform(-2, 2) for _ in range(5))
    e = rng.choice((0.0, rng.uniform(-1, 1)))
    us = [i / rows + rng.uniform(-0.2, 0.2) / rows for i in range(rows)]
    params, points = [], []
    for u in us:
        for v in us:
            f1, f2 = 2 * a * u + b * v + d, 2 * c * v + b * u + e0
            params.append([u, v])
            points.append([u, v, f1 / coeffs[0], f2 / coeffs[1],
                           a * u * u + b * u * v + c * v * v + d * u + e0 * v
                           + e * u * v])
    return SampledImmersion(2, 5, "grid", params, points, grid_shape=(rows, rows))


def _assert_same_audits(s, space):
    assert s.tangent_frames().tobytes() == np.stack(_old_frames(s)).tobytes()
    assert repr(check_lagrangian(s, space)) == repr(_old_check_lagrangian(s, space))
    rep = corank_profile(s)
    assert (rep["coranks"], rep["near_singular"]) == _old_corank_profile(s)
    if s.topology == "loop":
        assert loop_maslov(s, space) == _old_loop_maslov(s, space)


@pytest.mark.parametrize("seed", range(4))
def test_stacked_audits_match_per_sample_route(seed):
    rng = Random(f"scan-oracle:{seed}")
    sp1, sp2 = SymplecticSpace.standard(1), SymplecticSpace.standard(2)
    for m in (64, 97, 256):
        _assert_same_audits(_ellipse(rng, m), sp1)
        _assert_same_audits(_product_loop(rng, m), sp2)
    for rows in (9, 13):
        _assert_same_audits(_torus(rng, rows, rows + 2 * rng.randint(-2, 2)), sp2)
    for m in (64, 200):
        s = _jet_curve(rng, m)
        assert s.tangent_frames().tobytes() == np.stack(_old_frames(s)).tobytes()
        assert repr(check_legendrian(s)) == repr(_old_check_legendrian(s))


@pytest.mark.parametrize("seed", range(3))
def test_legendrian_reports_with_chosen_forms_match_per_sample_route(seed):
    rng = Random(f"scan-chi-oracle:{seed}")
    for m in (64, 200):
        s = _jet_curve(rng, m)
        for chi in (ChiSpec(1, scale=5.0), ChiSpec(1, y_coeffs=(2.0,)),
                    ChiSpec(1, scale=rng.uniform(-3, 3),
                            y_coeffs=(rng.uniform(0.5, 2),))):
            assert repr(check_legendrian(s, chi)) == \
                repr(_old_check_legendrian(s, chi))
    for rows in (5, 11):
        coeffs = (rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0))
        s = _jet_grid(rng, rows, coeffs)
        for chi in (ChiSpec(2, y_coeffs=coeffs), ChiSpec(2, 0.5, coeffs[::-1])):
            assert repr(check_legendrian(s, chi)) == \
                repr(_old_check_legendrian(s, chi))


def _refusal(fn, *args) -> str:
    with pytest.raises(ValueError) as exc:
        fn(*args)
    return str(exc.value)


def _loop_with(frame_at: dict, m=16):
    """A Lagrangian n = 2 loop with analytic frames, some replaced."""
    ts = [2 * math.pi * i / m for i in range(m)]
    frames = [[[math.cos(t / 2), 0.0], [0.0, math.cos(t)],
               [math.sin(t / 2), 0.0], [0.0, math.sin(t)]] for t in ts]
    for i, f in frame_at.items():
        frames[i] = f
    return SampledImmersion(1, 4, "loop", [[t] for t in ts],
                            [[math.cos(t), math.sin(t), 0.0, t] for t in ts],
                            frames=frames)


_DEPENDENT = [[1.0, 2.0], [0.5, 1.0], [0.0, 0.0], [0.0, 0.0]]
_NON_ISOTROPIC = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
# singular values 1.41e8 and 127: full rank against max|F| = 1e8 at tol
# 1e-6, but at most tol times the largest singular value
_ILL_CONDITIONED = [[1e8, 90.0], [1e8, -90.0], [0.0, 0.0], [0.0, 0.0]]


def _circle_with(m=16, **changes):
    ts = [2 * math.pi * i / m for i in range(m)]
    points = [[math.cos(t), math.sin(t)] for t in ts]
    for i, p in changes.get("points", {}).items():
        points[i] = p
    for i, t in changes.get("params", {}).items():
        ts[i] = t
    return SampledImmersion(1, 2, "loop", [[t] for t in ts], points)


@pytest.mark.parametrize("case,message", [
    ("dependent", "frame columns are linearly dependent"),
    ("non_isotropic", "frame is not isotropic within tolerance"),
    ("too_large", "frame entries are too large for approx mode"),
    ("ill_conditioned", "polar factor ill-conditioned beyond tolerance"),
    ("undersampled", "undersampled loop: det2 jump of pi/2 or more"),
    ("degenerate", "degenerate parameter spacing"),
])
def test_loop_refusals_match_per_sample_route(case, message):
    sp1, sp2 = SymplecticSpace.standard(1), SymplecticSpace.standard(2)
    s, sp = {
        # the first failing sample decides, whatever fails later
        "dependent": (_loop_with({5: _DEPENDENT, 9: _NON_ISOTROPIC}), sp2),
        "non_isotropic": (_loop_with({4: _NON_ISOTROPIC, 9: _DEPENDENT}), sp2),
        "too_large": (_circle_with(points={3: [1e308, 0.5]}), sp1),
        "ill_conditioned": (_loop_with({6: _ILL_CONDITIONED}), sp2),
        "undersampled": (_circle(3), sp1),
        "degenerate": (_circle_with(params={3: 2 * math.pi * 2 / 16}), sp1),
    }[case]
    assert _refusal(loop_maslov, s, sp) == message
    assert _refusal(_old_loop_maslov, s, sp) == message


@pytest.mark.parametrize("case,message", [
    ("overflow", "tangent frame overflows a float"),
    ("degenerate", "degenerate parameter spacing"),
    ("zero", "zero tangent frame"),
])
def test_audit_refusals_match_per_sample_route(case, message):
    sp = SymplecticSpace.standard(1)
    zero = [[[-math.sin(t)], [math.cos(t)]] for t in range(8)]
    zero[5] = [[0.0], [0.0]]
    s = {
        "overflow": _circle_with(points={3: [1e308, 0.5]}),
        "degenerate": _circle_with(params={3: 2 * math.pi * 2 / 16}),
        "zero": SampledImmersion(1, 2, "line", [[float(t)] for t in range(8)],
                                 [[math.cos(t), math.sin(t)] for t in range(8)],
                                 frames=zero),
    }[case]
    assert _refusal(check_lagrangian, s, sp) == message
    assert _refusal(_old_check_lagrangian, s, sp) == message
    if case != "overflow":
        assert _refusal(corank_profile, s) == message
        assert _refusal(_old_corank_profile, s) == message


def test_legendrian_overflow_matches_per_sample_route():
    ts = [i / 4 for i in range(12)]
    points = [[t, 2 * t, t * t] for t in ts]
    points[5] = [1e308, 0.5, 0.25]
    s = SampledImmersion(1, 3, "line", [[t] for t in ts], points)
    message = "tangent frame overflows a float"
    assert _refusal(check_legendrian, s) == _refusal(_old_check_legendrian, s) == message
    assert _refusal(corank_profile, s) == _refusal(_old_corank_profile, s) == message


@pytest.mark.parametrize("first,message", [
    ("zero", "zero tangent frame"),
    ("overflow", "tangent frame overflows a float"),
])
def test_mixed_refusals_match_per_sample_route(first, message):
    """A zero frame and a frame whose norm overflows on one stack: the
    first failing sample decides, in both residual audits."""
    late = {"zero": "overflow", "overflow": "zero"}[first]
    ts = [i / 4 for i in range(10)]
    for dim, space in ((2, SymplecticSpace.standard(1)), (3, None)):
        frames = [[[1.0]] + [[0.5]] * (dim - 1) for _ in ts]
        bad = {"zero": [[0.0]] * dim, "overflow": [[1e200]] * dim}
        frames[3], frames[7] = bad[first], bad[late]
        points = [[t, 1.0, t][:dim] for t in ts]
        s = SampledImmersion(1, dim, "line", [[t] for t in ts], points,
                             frames=frames)
        if space is None:
            got = (_refusal(check_legendrian, s), _refusal(_old_check_legendrian, s))
        else:
            got = (_refusal(check_lagrangian, s, space),
                   _refusal(_old_check_lagrangian, s, space))
        assert got == (message, message)
