"""Sampled-immersion audits: topology validation, finite-difference
exactness on quadratic data, corank strata, loop winding, and the
contact-form checks."""

import json
import math

import numpy as np
import pytest

from symgeo.jsonio import ValidationError
from symgeo.scan import (ChiSpec, SampledImmersion, check_lagrangian,
                         check_legendrian, corank_profile, immersion_from_csv,
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
    assert s.params == src.params and s.points == src.points
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
