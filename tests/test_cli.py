"""End-to-end command-line checks: every noun/verb pair, the two output
modes, and the exit-code contract (0 ok, 2 invalid input, 3 failed check,
64 usage)."""

import json
import math
import os
import subprocess
import sys
import time
from random import Random

import pytest

import symgeo
import symgeo.jets
import symgeo.selftest
from symgeo.cli import build_parser, main
from symgeo.jets import spencer_sequence_audit
from symgeo.jsonio import dumps, matrix_to_json
from symgeo.linalg import Matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return str(p)


def _circle_file(tmp_path, m=64, name="circle.json"):
    ts = [2 * math.pi * i / m for i in range(m)]
    return _write(tmp_path, name, {
        "param_dim": 1, "ambient_dim": 2, "topology": "loop",
        "params": [[t] for t in ts],
        "points": [[math.cos(t), math.sin(t)] for t in ts],
    })


# -- maslov -------------------------------------------------------------------------


def test_kashiwara_angles(capsys):
    code, out = run_json(capsys, "maslov", "kashiwara",
                         "--angles", "0;1/3pi;2/3pi")
    assert code == 0
    assert out["index"] == 1
    assert out["r"] == 3 and out["n"] == 1


def test_kashiwara_directions_exact(capsys):
    code, out = run_json(capsys, "maslov", "kashiwara",
                         "--directions", "1,0;1,1;0,1")
    assert code == 0 and out["index"] == 1
    code, out = run_json(capsys, "maslov", "kashiwara",
                         "--directions", "0,1;1,1;1,0")
    assert code == 0 and out["index"] == -1


def test_kashiwara_tuple_file(capsys, tmp_path):
    path = _write(tmp_path, "tuple.json", {
        "n": 1,
        "frames": [
            {"rows": 2, "cols": 1, "entries": [1, 0]},
            {"rows": 2, "cols": 1, "entries": [1, 1]},
            {"rows": 2, "cols": 1, "entries": [0, 1]},
        ],
    })
    code, out = run_json(capsys, "maslov", "kashiwara", "--tuple", path)
    assert code == 0 and out["index"] == 1


_N2_TUPLE = {"n": 2, "frames": [
    {"rows": 4, "cols": 2, "entries": [1, 0, 0, 1, 0, 0, 0, 0]},
    {"rows": 4, "cols": 2, "entries": [1, 0, 0, 1, 1, 0, 0, 1]},
    {"rows": 4, "cols": 2, "entries": [0, 0, 0, 0, 1, 0, 0, 1]},
]}


@pytest.mark.parametrize("verb", ["kashiwara", "wall"])
@pytest.mark.parametrize("obj, space, message", [
    (_N2_TUPLE, "std:3", "tuple file has n = 2 but space is std:3"),
    (_N2_TUPLE, "std:1", "tuple file has n = 2 but space is std:1"),
    (_N2_TUPLE, "bogus", "space must look like std:n, got 'bogus'"),
    ({"omega": {"rows": 4, "cols": 4,
                "entries": [0, 0, 2, 0, 0, 0, 0, 1, -2, 0, 0, 0, 0, -1, 0, 0]},
      "frames": _N2_TUPLE["frames"]},
     "std:2", "tuple file has another omega but space is std:2"),
    (_N2_TUPLE, "std:2", None),
    ({"omega": {"rows": 4, "cols": 4,
                "entries": [0, 0, 1, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, -1, 0, 0]},
      "frames": _N2_TUPLE["frames"]}, "std:2", None),
    ({"frames": _N2_TUPLE["frames"]}, "std:2", None),
])
def test_tuple_file_refuses_a_space_that_disagrees(capsys, tmp_path, verb, obj,
                                                   space, message):
    """A --space that disagrees with the file's n or omega exits 2 with one
    line; one that agrees prints what the file alone prints."""
    path = _write(tmp_path, "tuple.json", obj)
    code = main(["maslov", verb, "--tuple", path, "--space", space])
    captured = capsys.readouterr()
    if message is not None:
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {message}\n"
        return
    assert (code, captured.err) == (0, "")
    alone = _write(tmp_path, "alone.json", {**_N2_TUPLE, **obj, "n": 2})
    assert main(["maslov", verb, "--tuple", alone]) == 0
    assert capsys.readouterr().out == captured.out


@pytest.mark.parametrize("entries,flags,message", [
    ([1e308, 0.0], [], "frame entries are too large for approx mode"),
    ([math.nan, 0.0], [], "matrix entry nan is not finite"),
    ([math.inf, 0.0], [], "matrix entry inf is not finite"),
    (["1e400", 0], ["--approx"], "matrix entry overflows a float"),
])
def test_kashiwara_tuple_rejects_non_finite_entries(capsys, tmp_path, entries,
                                                    flags, message):
    path = _write(tmp_path, "tuple.json", {
        "n": 1,
        "frames": [
            {"rows": 2, "cols": 1, "entries": entries},
            {"rows": 2, "cols": 1, "entries": [0.0, 1.0]},
            {"rows": 2, "cols": 1, "entries": [1.0, 1.0]},
        ],
    })
    code = main(["maslov", "kashiwara", "--tuple", path] + flags)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("frames,flags", [
    ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], []),
    ([[1, 0], [0, 1], [1, 1]], ["--approx"]),
])
def test_kashiwara_tuple_refuses_omega_overflowing_approx(capsys, tmp_path,
                                                         frames, flags):
    # an exact Omega is fine until an approx frame needs it as floats
    big = 10 ** 400
    path = _write(tmp_path, "tuple.json", {
        "omega": {"rows": 2, "cols": 2,
                  "entries": [0, f"{big}/1", f"-{big}/1", 0]},
        "frames": [{"rows": 2, "cols": 1, "entries": f} for f in frames],
    })
    code = main(["maslov", "kashiwara", "--tuple", path] + flags)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: matrix entry overflows a float\n"


_FRAME = {"rows": 2, "cols": 1, "entries": [1, 0]}
_EMPTY = {"rows": 0, "cols": 0, "entries": []}


@pytest.mark.parametrize("obj,message", [
    ({"n": True, "frames": [_FRAME] * 3}, "'n' must be a positive integer"),
    ({"omega": _EMPTY, "frames": [_EMPTY] * 3}, "Gram matrix must be nonempty"),
])
def test_kashiwara_tuple_rejects_bad_spaces(capsys, tmp_path, obj, message):
    path = _write(tmp_path, "tuple.json", obj)
    code = main(["maslov", "kashiwara", "--tuple", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_kashiwara_requires_an_input(capsys):
    code, _ = run(capsys, "maslov", "kashiwara")
    assert code == 2


def test_malformed_tuple_file(capsys, tmp_path):
    bad = _write(tmp_path, "bad.json", "{nope")
    assert run(capsys, "maslov", "kashiwara", "--tuple", bad)[0] == 2
    short = _write(tmp_path, "short.json", {
        "n": 1,
        "frames": [{"rows": 2, "cols": 1, "entries": [1]}] * 3,
    })
    assert run(capsys, "maslov", "kashiwara", "--tuple", short)[0] == 2
    missing = str(tmp_path / "nothere.json")
    assert run(capsys, "maslov", "kashiwara", "--tuple", missing)[0] == 2


def test_arnold_matches_kashiwara(capsys):
    code, out = run_json(capsys, "maslov", "arnold",
                         "--directions", "1,0;1,1;0,1")
    assert code == 0
    assert out == {"index": 1, "mode": "exact"}
    code, _ = run(capsys, "maslov", "arnold",
                  "--directions", "1,0;1,1;0,1;1,2")
    assert code == 2


def test_arnold_angles_agree_with_kashiwara_at_n2(capsys):
    # the planes read (0.1, 2.5, 1.0) and (2.0, 0.5, 1.5): -1 + 1 = 0
    angles = "0.1,2.0;2.5,0.5;1.0,1.5"
    code, out = run_json(capsys, "maslov", "arnold", "--angles", angles)
    assert code == 0
    assert out == {"index": 0, "mode": "approx"}
    code, out = run_json(capsys, "maslov", "kashiwara", "--angles", angles)
    assert code == 0
    assert out["index"] == 0


def _table_index(capsys, *argv):
    code, out = run(capsys, *argv, "--table")
    assert code == 0, argv
    return next(line for line in out.splitlines() if line.startswith("index: "))


def test_arnold_prints_the_index_kashiwara_prints(capsys):
    # 24 seeded direction triples and 16 angle triples at each n = 1..3, half
    # of them with --tol; angles are multiples of pi/12 (equal or at least
    # pi/12 apart mod pi) or random decimals
    rng = Random(2027)
    cases = []
    for _ in range(24):
        ds = []
        while len(ds) < 3:
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            if (p, q) != (0, 0):
                ds.append(f"{p},{q}")
        cases.append([f"--directions={';'.join(ds)}"])  # '=' keeps a leading '-'
    for n in (1, 2, 3):
        for _ in range(16):
            cases.append(["--angles", ";".join(
                ",".join(f"{rng.randrange(12)}/12pi" if rng.random() < 0.5
                         else f"{rng.uniform(0, 3.1):.3f}" for _ in range(n))
                for _ in range(3))])
    for i, case in enumerate(cases):
        if i % 2:
            case += ["--tol", rng.choice(("1e-12", "1e-6", "1e-4"))]
        assert _table_index(capsys, "maslov", "arnold", *case) == \
            _table_index(capsys, "maslov", "kashiwara", *case)


def test_wall_agrees_with_kashiwara(capsys, tmp_path):
    path = _write(tmp_path, "triple.json", {
        "n": 1,
        "frames": [
            {"rows": 2, "cols": 1, "entries": [1, 0]},
            {"rows": 2, "cols": 1, "entries": [1, 1]},
            {"rows": 2, "cols": 1, "entries": [0, 1]},
        ],
    })
    code, out = run_json(capsys, "maslov", "wall", "--tuple", path)
    assert code == 0 and out["index"] == 1


def test_leray_lifts(capsys):
    code, out = run_json(capsys, "maslov", "leray",
                         "--lifts", "0,1/3pi,2/3pi")
    assert code == 0
    assert out["cyclic_sum"] == 1
    assert len(out["m_values"]) == 3


@pytest.mark.parametrize("lifts", ["1e400,1,2", "nan,1,2"])
def test_leray_rejects_non_finite_lifts(capsys, lifts):
    code = main(["maslov", "leray", "--lifts", lifts])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: angle {lifts.split(',')[0]!r} is not finite\n"


# -- mp1 ----------------------------------------------------------------------------


def _mp1_files(tmp_path):
    ctx = _write(tmp_path, "ctx.json", {
        "n": 1, "base": {"rows": 2, "cols": 1, "entries": [0, 1]}})
    a = _write(tmp_path, "a.json", {
        "w": 2, "g": {"rows": 2, "cols": 2, "entries": [0, 1, -1, 0]}})
    return ctx, a


def test_mp1_inverse_roundtrip(capsys, tmp_path):
    ctx, a = _mp1_files(tmp_path)
    code, inv = run_json(capsys, "mp1", "inverse", "--context", ctx, "--a", a)
    assert code == 0
    inv_path = _write(tmp_path, "inv.json", inv)
    code, prod = run_json(capsys, "mp1", "mul", "--context", ctx,
                          "--a", a, "--b", inv_path)
    assert code == 0
    assert prod["w"] == 0
    assert prod["g"] == matrix_to_json(Matrix.identity(2))


def test_mp1_rejects_a_boolean_witt_class(capsys, tmp_path):
    ctx, _ = _mp1_files(tmp_path)
    a = _write(tmp_path, "a.json", {
        "w": True, "g": {"rows": 2, "cols": 2, "entries": [0, 1, -1, 0]}})
    code = main(["mp1", "inverse", "--context", ctx, "--a", a])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: 'w' must be an integer\n"


def test_mp1_rejects_non_symplectic(capsys, tmp_path):
    ctx, a = _mp1_files(tmp_path)
    bad = _write(tmp_path, "badg.json", {
        "w": 0, "g": {"rows": 2, "cols": 2, "entries": [2, 0, 0, 2]}})
    code, _ = run(capsys, "mp1", "mul", "--context", ctx, "--a", a, "--b", bad)
    assert code == 2


# -- jet ----------------------------------------------------------------------------


def test_jet_dims(capsys):
    code, out = run_json(capsys, "jet", "dims", "--n", "2", "--m", "1",
                         "--k", "2")
    assert code == 0
    assert out == {"n": 2, "m": 1, "k": 2, "jet_dim": 8,
                   "symbol_layer_dim": 3, "model_fiber_dim": 5,
                   "lambda_dim": 2}


def test_jet_audits(capsys):
    code, out = run_json(capsys, "jet", "spencer-audit", "--n", "2",
                         "--m", "1", "--k", "2")
    assert code == 0 and out["exact"]
    code, out = run_json(capsys, "jet", "lagrangian-pde", "--n", "2")
    assert code == 0 and out["dim_system"] == 7
    code, out = run_json(capsys, "jet", "legendrian-pde", "--n", "2")
    assert code == 0 and out["dim_prolongation"] == 15
    code, out = run_json(capsys, "jet", "max-isotropic", "--n", "2",
                         "--m", "1", "--k", "2", "--p", "1")
    assert code == 0 and out["dim"] == out["expected_dim"] == 2


def test_lagrangian_pde_refuses_n_at_least_8_before_any_rank(capsys):
    code = main(["jet", "lagrangian-pde", "--n", "8"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: n must be at most 7: from n = 8 the prolonged "
                            "rank cannot reach equations_order1 + "
                            "equations_order2\n")


# -- scan ---------------------------------------------------------------------------


def test_scan_lagrangian_and_loop(capsys, tmp_path):
    circle = _circle_file(tmp_path)
    code, out = run_json(capsys, "scan", "lagrangian", "--space", "std:1",
                         "--samples", circle)
    assert code == 0 and out["pass"]
    code, out = run_json(capsys, "scan", "loop-maslov", "--space", "std:1",
                         "--samples", circle)
    assert code == 0 and out == {"degree": 2}
    code, out = run_json(capsys, "scan", "corank", "--samples", circle)
    assert code == 0 and out["strata"] == {"0": [0, 32]}


def test_scan_batch_mode(capsys, tmp_path):
    c1 = _circle_file(tmp_path, name="c1.json")
    c2 = _circle_file(tmp_path, m=32, name="c2.json")
    code, out = run_json(capsys, "scan", "lagrangian", "--space", "std:1",
                         "--samples", c1, c2)
    assert code == 0
    assert [r["samples"] for r in out["batch"]] == [64, 32]


def test_scan_legendrian_csv(capsys, tmp_path):
    lines = ["p1,a1,a2,a3"]
    for i in range(9):
        x = i / 8
        lines.append(f"{x},{x},{2 * x},{x * x}")
    path = tmp_path / "leg.csv"
    path.write_text("\n".join(lines))
    code, out = run_json(capsys, "scan", "legendrian", "--samples", str(path),
                         "--reeb")
    assert code == 0 and out["pass"]
    assert out["reeb"][0] == [0.0, 0.0, 1.0]


def _legendrian_file(tmp_path):
    return _write(tmp_path, "leg.csv",
                  "p1,a1,a2,a3\n0,0,0,0\n0.5,0.5,1,0.25\n1,1,2,1")


@pytest.mark.parametrize("coeffs", ["1/0", "x"])
def test_scan_legendrian_rejects_bad_chi_coeffs(capsys, tmp_path, coeffs):
    code = main(["scan", "legendrian", "--samples", _legendrian_file(tmp_path),
                 "--chi-coeffs", coeffs])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: bad --chi-coeffs entry {coeffs!r}\n"


@pytest.mark.parametrize("flag,value,shown", [
    ("--tol", "nan", "nan"), ("--tol", "inf", "inf"), ("--tol", "0", "0.0"),
    ("--tol", "-1", "-1.0"), ("--chi-scale", "nan", "nan"),
    ("--chi-scale", "1e400", "inf"), ("--chi-scale", "0", "0.0"),
])
def test_scan_rejects_bad_tolerance_flags(capsys, tmp_path, flag, value, shown):
    code = main(["scan", "legendrian", "--samples", _legendrian_file(tmp_path),
                 flag, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {flag} must be finite and positive, got {shown}\n"


def test_scan_lagrangian_rejects_nan_tol(capsys, tmp_path):
    code = main(["scan", "lagrangian", "--space", "std:1",
                 "--samples", _circle_file(tmp_path), "--tol", "nan"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --tol must be finite and positive, got nan\n"


@pytest.mark.parametrize("verb,value,message", [
    ("lagrangian", math.nan, "bad sample file: sample values must be finite"),
    ("loop-maslov", math.nan, "bad sample file: sample values must be finite"),
    ("lagrangian", math.inf, "bad sample file: sample values must be finite"),
    ("lagrangian", 10 ** 400, "bad sample file: sample value overflows a float"),
    ("loop-maslov", 1e308, "frame entries are too large for approx mode"),
])
def test_scan_rejects_non_finite_samples(capsys, tmp_path, verb, value, message):
    ts = [2 * math.pi * i / 16 for i in range(16)]
    points = [[math.cos(t), math.sin(t)] for t in ts]
    points[3][0] = value
    path = _write(tmp_path, "samples.json", {
        "param_dim": 1, "ambient_dim": 2, "topology": "loop",
        "params": [[t] for t in ts], "points": points,
    })
    code = main(["scan", verb, "--space", "std:1", "--samples", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def _overflowing_samples(tmp_path, kind):
    """A 16-sample unit circle with sample 3 at (1e308, 0.5), or a 12-sample
    line (t, 2t, t^2) with sample 5 at (1e308, 0.5, 0.25)."""
    if kind == "circle":
        ts = [2 * math.pi * i / 16 for i in range(16)]
        points = [[math.cos(t), math.sin(t)] for t in ts]
        points[3] = [1e308, 0.5]
        topology = "loop"
    else:
        ts = [i / 4 for i in range(12)]
        points = [[t, 2 * t, t * t] for t in ts]
        points[5] = [1e308, 0.5, 0.25]
        topology = "line"
    return _write(tmp_path, "samples.json", {
        "param_dim": 1, "ambient_dim": len(points[0]), "topology": topology,
        "params": [[t] for t in ts], "points": points,
    })


@pytest.mark.parametrize("argv,kind", [
    (["lagrangian", "--space", "std:1"], "circle"),
    (["legendrian"], "line"),
    (["corank"], "line"),
])
def test_scan_refuses_overflowing_tangent_frames(capsys, tmp_path, argv, kind):
    code = main(["scan", *argv, "--samples", _overflowing_samples(tmp_path, kind)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: tangent frame overflows a float\n"


def test_scan_refuses_an_underflowing_parameter_spacing(capsys, tmp_path):
    # spacing 1e-170: the stencil denominators underflow to 0.0
    path = _write(tmp_path, "tiny.json", {
        "param_dim": 1, "ambient_dim": 2, "topology": "line",
        "params": [[i * 1e-170] for i in range(8)],
        "points": [[float(i), float(i * i)] for i in range(8)],
    })
    code = main(["scan", "corank", "--samples", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: degenerate parameter spacing\n"


def test_scan_rejects_an_empty_sample_file(capsys, tmp_path):
    path = _write(tmp_path, "empty.json", {
        "param_dim": 1, "ambient_dim": 2, "topology": "line",
        "params": [], "points": [], "frames": [],
    })
    code = main(["scan", "lagrangian", "--space", "std:1", "--samples", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: bad sample file: need at least one sample\n"


def _plane_grid():
    """A 3 x 3 grid on the Lagrangian plane (u, v, 2u + v, u + 2v)."""
    uvs = [(i / 2, j / 2) for i in range(3) for j in range(3)]
    return {"param_dim": 2, "ambient_dim": 4, "topology": "grid",
            "grid_shape": [3, 3], "params": [list(uv) for uv in uvs],
            "points": [[u, v, 2 * u + v, u + 2 * v] for u, v in uvs]}


@pytest.mark.parametrize("fields,space,message", [
    ({"param_dim": True, "ambient_dim": 2.9}, "std:1",
     "param_dim must be an integer"),
    ({"ambient_dim": 2.0}, "std:1", "ambient_dim must be an integer"),
    ({"param_dim": "1", "ambient_dim": "2"}, "std:1",
     "param_dim must be an integer"),
    (dict(_plane_grid(), grid_shape=[3, True]), "std:2",
     "grid_shape must be two integers"),
])
def test_scan_rejects_non_integer_sample_shapes(capsys, tmp_path, fields,
                                                space, message):
    ts = [2 * math.pi * i / 16 for i in range(16)]
    obj = {"param_dim": 1, "ambient_dim": 2, "topology": "loop",
           "params": [[t] for t in ts],
           "points": [[math.cos(t), math.sin(t)] for t in ts]}
    path = _write(tmp_path, "samples.json", dict(obj, **fields))
    code = main(["scan", "lagrangian", "--space", space, "--samples", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: bad sample file: {message}\n"


def test_scan_rejects_nan_in_a_csv_sample(capsys, tmp_path):
    path = _write(tmp_path, "leg.csv",
                  "p1,a1,a2,a3\n0,0,0,0\n0.5,nan,1,0.25\n1,1,2,1")
    code = main(["scan", "legendrian", "--samples", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: sample values must be finite\n"


def test_scan_legendrian_rejects_even_ambient(capsys, tmp_path):
    circle = _circle_file(tmp_path)
    code, _ = run(capsys, "scan", "legendrian", "--samples", circle)
    assert code == 2


def test_scan_csv_grid(capsys, tmp_path):
    rows = ["p1,p2,a1,a2,a3,a4"]
    for i in range(5):
        for j in range(5):
            u, v = i / 4, j / 4
            rows.append(f"{u},{v},{u},{v},{2 * u + v},{u + 2 * v}")
    path = tmp_path / "graph.csv"
    path.write_text("\n".join(rows))
    code, out = run_json(capsys, "scan", "lagrangian", "--space", "std:2",
                         "--samples", str(path), "--topology", "grid",
                         "--grid", "5,5")
    assert code == 0 and out["pass"] and out["max_residual"] == 0.0


# -- scan sample-file refusals ------------------------------------------------------
#
# Each malformed sample file goes through ``main``: exit 2, no stdout and one
# exact stderr line.  The tables pin which rule refuses first when a file
# breaks several: widths before overflow, the frame count before the frame
# shape, and params before points before frames in a CSV file.


def _loop_obj(frames=False, m=16):
    """A 16-sample unit circle, with its analytic tangent frames if asked."""
    ts = [2 * math.pi * i / m for i in range(m)]
    obj = {"param_dim": 1, "ambient_dim": 2, "topology": "loop",
           "params": [[t] for t in ts],
           "points": [[math.cos(t), math.sin(t)] for t in ts]}
    if frames:
        obj["frames"] = [[[-math.sin(t)], [math.cos(t)]] for t in ts]
    return obj


def _edited(obj, edits):
    """``obj`` with each (field, index, value) edit applied: entry ``index``
    of ``field`` becomes ``value``, or, for index None, the whole field
    becomes ``value(old field)``."""
    obj = json.loads(json.dumps(obj))
    for field, index, value in edits:
        if index is None:
            obj[field] = value(obj[field])
        else:
            obj[field][index] = value
    return obj


def _numpy_refusal(value) -> str:
    """numpy's own text for a value it cannot convert to a float array."""
    import numpy as np
    try:
        np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError(f"{value!r} converts")


_RAGGED_FRAME = [[0.0], [1.0, 0.0]]

# (id, frames in the file, edits, message)
_JSON_SAMPLE_REFUSALS = [
    ("ragged-params", False, [("params", 3, [0.5, 0.0])], "parameter width mismatch"),
    ("ragged-points", False, [("points", 3, [1.0])], "ambient width mismatch"),
    ("string-entry", False, [("points", 3, [1.0, "x"])],
     "could not convert string to float: 'x'"),
    ("null-entry", False, [("points", 3, [None, 0.0])], "sample values must be finite"),
    ("nan-entry", False, [("params", 5, [math.nan])], "sample values must be finite"),
    ("params-nested-too-deep", False, [("params", None, lambda rows: [[r] for r in rows])],
     "sample values must be numbers"),
    ("points-nested-too-deep", False, [("points", None, lambda rows: [[r] for r in rows])],
     "ambient width mismatch"),
    ("integer-1e400", False, [("params", 2, [10 ** 400])], "sample value overflows a float"),
    ("width-before-overflow", False,
     [("points", 3, [10 ** 400, 0.0]), ("params", 9, [0.5, 0.0])],
     "parameter width mismatch"),
    ("unpaired", False, [("points", None, lambda rows: rows[:-1])],
     "params and points must pair up"),
    ("params-not-a-list", False, [("params", None, lambda rows: 7)],
     "object of type 'int' has no len()"),
    ("frames-ragged-across", True, [("frames", 3, [[0.0, 0.0], [1.0, 0.0]])],
     "frame shape mismatch"),
    ("frames-ragged-within", True, [("frames", 3, _RAGGED_FRAME)],
     _numpy_refusal(_RAGGED_FRAME)),
    ("frames-too-few", True, [("frames", None, lambda fs: fs[:-1])],
     "one frame per sample required"),
    ("frames-wrong-shape", True, [("frames", None, lambda fs: [f + [[0.0]] for f in fs])],
     "frame shape mismatch"),
    ("frames-not-matrices", True, [("frames", None, lambda fs: [f[0] for f in fs])],
     "frame shape mismatch"),
    ("frames-non-finite", True, [("frames", 3, [[math.inf], [0.0]])],
     "frame entries must be finite"),
    ("frames-overflow", True, [("frames", 3, [[10 ** 400], [0.0]])],
     "frame entries overflow a float"),
    ("frames-string", True, [("frames", 3, [["x"], [0.0]])],
     "could not convert string to float: 'x'"),
    ("frames-not-a-list", True, [("frames", None, lambda fs: 5)],
     "'int' object is not iterable"),
    ("non-finite-before-count", True,
     [("frames", 3, [[math.nan], [0.0]]), ("frames", None, lambda fs: fs[:-1])],
     "frame entries must be finite"),
    ("count-before-shape", True,
     [("frames", None, lambda fs: [f + [[0.0]] for f in fs[:-1]])],
     "one frame per sample required"),
]


@pytest.mark.parametrize("verb", ["lagrangian", "loop-maslov"])
@pytest.mark.parametrize("frames, edits, message",
                         [case[1:] for case in _JSON_SAMPLE_REFUSALS],
                         ids=[case[0] for case in _JSON_SAMPLE_REFUSALS])
def test_scan_json_sample_refusals(capsys, tmp_path, verb, frames, edits, message):
    path = _write(tmp_path, "s.json", _edited(_loop_obj(frames), edits))
    code = main(["scan", verb, "--space", "std:1", "--samples", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: bad sample file: {message}\n"


def _csv_lines(header="p1,a1,a2", m=8):
    """A line (t, t, t^2) sampled at t = i / 4, columns in header order."""
    lines = [header]
    for i in range(m):
        t = i / 4
        value = {"p1": t, "a1": t, "a2": t * t, "f1_1": 1.0, "f2_1": 2 * t}
        lines.append(",".join(str(value[c]) for c in header.split(",")))
    return lines


# (id, file lines, message)
_CSV_SAMPLE_REFUSALS = [
    ("short-row", _csv_lines()[:3] + ["0.5,0.5"] + _csv_lines()[4:],
     "bad sample file columns: float() argument must be a string or a real "
     "number, not 'NoneType'"),
    ("missing-a2", ["p1,a1,a3"] + _csv_lines()[1:], "bad sample file columns: 'a2'"),
    ("missing-p2", ["p1,p3,a1"] + _csv_lines()[1:], "bad sample file columns: 'p2'"),
    ("bad-value", _csv_lines()[:5] + ["1.0,x,1.0"] + _csv_lines()[6:],
     "bad sample file columns: could not convert string to float: 'x'"),
    ("params-before-points", _csv_lines()[:2] + ["0.25,bad,0.0625", "zz,0.5,0.25"]
     + _csv_lines()[4:], "bad sample file columns: could not convert string to float: 'zz'"),
    ("bad-value-before-missing", ["p1,a1,a3"] + ["q,0,0"] + _csv_lines()[2:],
     "bad sample file columns: could not convert string to float: 'q'"),
    ("bad-frame-value", _csv_lines("p1,a1,a2,f1_1,f2_1")[:4] + ["0.75,0.75,0.5625,1.0,."]
     + _csv_lines("p1,a1,a2,f1_1,f2_1")[5:],
     "bad sample file columns: could not convert string to float: '.'"),
    ("missing-frame-column", _csv_lines("p1,a1,a2,f1_1"),
     "bad sample file columns: 'f2_1'"),
    ("no-a-columns", ["p1,b1,b2"] + _csv_lines()[1:], "need p* and a* columns"),
    ("header-only", _csv_lines()[:1], "empty sample file"),
    ("nan", _csv_lines()[:3] + ["0.5,nan,0.25"] + _csv_lines()[4:],
     "sample values must be finite"),
]


@pytest.mark.parametrize("lines, message", [case[1:] for case in _CSV_SAMPLE_REFUSALS],
                         ids=[case[0] for case in _CSV_SAMPLE_REFUSALS])
def test_scan_csv_sample_refusals(capsys, tmp_path, lines, message):
    path = _write(tmp_path, "s.csv", "\n".join(lines) + "\n")
    code = main(["scan", "corank", "--samples", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"


# (id, file lines): each reads as the plain file _csv_lines() does
_CSV_SAME_SAMPLES = [
    ("blank-middle-row", _csv_lines()[:4] + [""] + _csv_lines()[4:]),
    ("duplicate-column-last-wins", ["p1,a1,a2,a1"]
     + [f"{t},junk,{a2},{a1}" for t, a1, a2 in
        (row.split(",") for row in _csv_lines()[1:])]),
    ("permuted-columns", _csv_lines("a2,p1,a1")),
]


@pytest.mark.parametrize("lines", [case[1] for case in _CSV_SAME_SAMPLES],
                         ids=[case[0] for case in _CSV_SAME_SAMPLES])
def test_scan_csv_layouts_read_the_same_samples(capsys, tmp_path, lines):
    plain = _write(tmp_path, "plain.csv", "\n".join(_csv_lines()) + "\n")
    path = _write(tmp_path, "s.csv", "\n".join(lines) + "\n")
    assert run(capsys, "scan", "corank", "--samples", path) \
        == run(capsys, "scan", "corank", "--samples", plain)


def test_scan_csv_frame_columns_are_read(capsys, tmp_path):
    # f1_1 = 1, f2_1 = 2t: the analytic frames of the line (t, t^2)
    path = _write(tmp_path, "s.csv", "\n".join(_csv_lines("p1,a1,a2,f1_1,f2_1")))
    code, out = run_json(capsys, "scan", "corank", "--samples", path)
    assert code == 0 and out["coranks"] == [0] * 8


def test_scan_json_true_reads_as_one(capsys, tmp_path):
    one = _write(tmp_path, "one.json", _edited(_loop_obj(), [("points", 3, [1, 0.0])]))
    true = _write(tmp_path, "true.json", _edited(_loop_obj(), [("points", 3, [True, 0.0])]))
    assert run(capsys, "scan", "lagrangian", "--space", "std:1", "--samples", true) \
        == run(capsys, "scan", "lagrangian", "--space", "std:1", "--samples", one)


def test_scan_csv_overlong_first_row_is_read(capsys, tmp_path):
    # the header names the columns: a first data row's extra field is ignored,
    # as it is on every later row
    long = _csv_lines()
    long[1] += ",9"
    plain = _write(tmp_path, "plain.csv", "\n".join(_csv_lines()) + "\n")
    path = _write(tmp_path, "long.csv", "\n".join(long) + "\n")
    code, out = run(capsys, "scan", "corank", "--samples", path, "--topology", "line")
    assert code == 0
    assert (code, out) == run(capsys, "scan", "corank", "--samples", plain)


def test_scan_csv_leading_blank_line_has_no_header(capsys, tmp_path):
    path = _write(tmp_path, "blank.csv", "\n" + "\n".join(_csv_lines()) + "\n")
    code = main(["scan", "corank", "--samples", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: need p* and a* columns\n"


@pytest.mark.parametrize("verb, topology, message", [
    ("lagrangian", "loop", "ambient dimension must be twice n"),
    ("loop-maslov", "loop", "ambient dimension must be twice n"),
    ("loop-maslov", "line", "loop_maslov needs loop topology"),
])
def test_scan_mismatched_space_is_refused_before_it_is_built(capsys, tmp_path, verb,
                                                             topology, message):
    """std:5000 has a 10000 x 10000 Omega: the audit compares n first."""
    path = _write(tmp_path, "s.json", dict(_loop_obj(), topology=topology))
    start = time.perf_counter()
    code = main(["scan", verb, "--space", "std:5000", "--samples", path])
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


# -- bordism ------------------------------------------------------------------------


def test_bordism_weak_anchors(capsys):
    code, out = run_json(capsys, "bordism", "weak", "--betti", "1,0,0",
                         "--n", "3")
    assert code == 0 and out["rank"] == 1
    code, out = run_json(capsys, "bordism", "weak", "--betti", "1,0,0",
                         "--n", "4")
    assert code == 0 and out["rank"] == 0 and out["group"] == "(Z2)^0"


def test_bordism_weak_table_extension(capsys):
    # Omega_4 = (Z2)^2 comes from Thom's count, with no table file
    code, out = run_json(capsys, "bordism", "weak", "--betti", "1", "--n", "5")
    assert code == 0 and out["rank"] == 2
    for argv in (["weak", "--betti", "1", "--n", "5", "--omega-table", "x"],
                 ["gsingular", "--homology", "1,2", "--degree", "1",
                  "--coefficients", "Z"]):
        with pytest.raises(SystemExit) as exc:
            main(["bordism", *argv])
        assert exc.value.code == 64


def test_bordism_gsingular_and_split(capsys):
    code, out = run_json(capsys, "bordism", "gsingular", "--homology", "1,2",
                         "--degree", "1")
    assert code == 0 and out["rank"] == 2
    code, out = run_json(capsys, "bordism", "split-check", "--closed", "2",
                         "--bor", "7", "--cyc", "5")
    assert code == 0 and out["consistent"]


# -- witt ---------------------------------------------------------------------------


def test_witt_class_and_ideal(capsys):
    code, out = run_json(capsys, "witt", "class", "--diag", "1,1,-1")
    assert code == 0 and out == {"field": "R", "witt": 1}
    code, out = run_json(capsys, "witt", "class", "--diag", "1,1,-1",
                         "--field", "C")
    assert code == 0 and out == {"field": "C", "witt": 1}
    code, out = run_json(capsys, "witt", "ideal", "--value", "4", "--k", "2")
    assert code == 0 and out["member"]
    code, out = run_json(capsys, "witt", "ideal", "--value", "2", "--k", "2")
    assert code == 0 and not out["member"]
    code, out = run_json(capsys, "witt", "ideal", "--value", "12",
                         "--k", str(10 ** 12))
    assert code == 0 and not out["member"]


@pytest.mark.parametrize("shape", [
    {"rows": True, "cols": True}, {"rows": 1.0, "cols": 1},
    {"rows": 1, "cols": "1"}, {"rows": -1, "cols": -1},
])
def test_witt_class_rejects_non_integer_shapes(capsys, tmp_path, shape):
    path = _write(tmp_path, "form.json", dict(shape, entries=[1]))
    code = main(["witt", "class", "--form", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: matrix rows and cols must be non-negative "
                            "integers\n")


# -- selftest and output modes ------------------------------------------------------


def test_selftest_quick_deterministic(capsys):
    code1, out1 = run(capsys, "selftest", "--quick", "--seed", "3")
    code2, out2 = run(capsys, "selftest", "--quick", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["all_passed"] and report["seed"] == 3


def _inexact_audit(sig):
    return dict(spencer_sequence_audit(sig), exact=False)


def _flat_grid():
    """The 3 x 3 grid (u, 0, v, 0): Ω pairs its two tangents to 1."""
    grid = _plane_grid()
    return dict(grid, points=[[u, 0, v, 0] for u, v in grid["params"]])


def _slope_line():
    """The line (t, 0, t) in contact 3-space: dz - y dx reads 1 on it."""
    ts = [i / 7 for i in range(8)]
    return {"param_dim": 1, "ambient_dim": 3, "topology": "line",
            "params": [[t] for t in ts], "points": [[t, 0, t] for t in ts]}


@pytest.mark.parametrize("argv, key, value", [
    (["jet", "spencer-audit", "--n", "2", "--m", "1", "--k", "2"], "exact", False),
    (["selftest", "--quick"], "failures", ["spencer_exact"]),
    (["scan", "lagrangian", "--space", "std:2", "--samples", "{flat}"],
     "pass", False),
    (["scan", "legendrian", "--samples", "{slope}"], "pass", False),
], ids=["spencer-audit", "selftest", "scan-lagrangian", "scan-legendrian"])
def test_failed_check_exits_3_and_prints_the_report_once(capsys, monkeypatch,
                                                         tmp_path, argv, key,
                                                         value):
    monkeypatch.setattr(symgeo.jets, "spencer_sequence_audit", _inexact_audit)
    monkeypatch.setattr(symgeo.selftest, "spencer_sequence_audit", _inexact_audit)
    files = {"flat": _write(tmp_path, "flat.json", _flat_grid()),
             "slope": _write(tmp_path, "slope.json", _slope_line())}
    code = main([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.err == ""
    report = json.loads(captured.out)
    assert report[key] == value
    assert captured.out == dumps(report)


def test_scan_batch_exits_3_when_any_sample_fails(capsys, tmp_path):
    plane = _write(tmp_path, "plane.json", _plane_grid())
    flat = _write(tmp_path, "flat.json", _flat_grid())
    code, out = run_json(capsys, "scan", "lagrangian", "--space", "std:2",
                         "--samples", plane, flat)
    assert code == 3
    assert [r["pass"] for r in out["batch"]] == [True, False]


def test_table_mode_round_trips(capsys):
    code, payload = run_json(capsys, "jet", "dims", "--n", "2", "--m", "1",
                             "--k", "2")
    assert code == 0
    code, out = run(capsys, "jet", "dims", "--n", "2", "--m", "1", "--k", "2",
                    "--table")
    assert code == 0
    parsed = {}
    for line in out.splitlines():
        key, val = line.split(": ", 1)
        parsed[key] = json.loads(val)
    assert parsed == payload


def test_table_mode_flattens_nested_keys(capsys, tmp_path):
    c1 = _circle_file(tmp_path, name="t1.json")
    c2 = _circle_file(tmp_path, m=32, name="t2.json")
    code, out = run(capsys, "scan", "lagrangian", "--space", "std:1",
                    "--samples", c1, c2, "--table")
    assert code == 0
    parsed = dict(line.split(": ", 1) for line in out.splitlines())
    assert json.loads(parsed["batch.0.samples"]) == 64
    assert json.loads(parsed["batch.1.samples"]) == 32


class _FullStdout:
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("mode", ["--json", "--table"])
def test_unwritable_stdout_is_invalid_output(capsys, monkeypatch, mode):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code = main(["witt", "class", "--diag", "1,2", mode])
    assert code == 2
    assert capsys.readouterr().err == ("error: cannot write output: [Errno 28] "
                                       "No space left on device\n")


# -- import hygiene -----------------------------------------------------------------


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(symgeo.__file__)))

# Runs one argv through cli.main in a fresh interpreter, then prints the
# exit code and which of the modules in _WATCHED were loaded.
_WATCHED = ("numpy", "dataclasses", "inspect", "symgeo.jets.symtensor",
            "symgeo.jets.metasymplectic", "symgeo.jets.pde_audit")
_HEAVY = {"numpy", "dataclasses", "inspect"}
_LOADED = """import sys, symgeo.cli as c
code = c.main(sys.argv[2:])
print(code, *(m for m in sys.argv[1].split(',') if m in sys.modules))
"""


def _cli_loads(tmp_path, argv) -> set:
    proc = subprocess.run([sys.executable, "-c", _LOADED, ",".join(_WATCHED), *argv],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=120)
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return set(loaded)


_EXACT_ARGVS = [
    ["witt", "class", "--diag", "1,1,-1"],
    ["witt", "ideal", "--value", "4", "--k", "2"],
    ["maslov", "kashiwara", "--directions", "1,0;1,1;0,1"],
    ["maslov", "leray", "--lifts", "0,1/3pi,2/3pi"],
    ["jet", "dims", "--n", "2", "--m", "1", "--k", "2"],
    ["jet", "spencer-audit", "--n", "2", "--m", "1", "--k", "2"],
    ["jet", "lagrangian-pde", "--n", "2"],
    ["jet", "max-isotropic", "--n", "2", "--m", "1", "--k", "2", "--p", "1"],
    ["bordism", "weak", "--betti", "1,0,0", "--n", "4"],
    ["bordism", "gsingular", "--homology", "1,0,1", "--degree", "2"],
    ["bordism", "split-check", "--closed", "2", "--bor", "1", "--cyc", "1"],
    ["mp1", "mul", "--context", "ctx.json", "--a", "a.json", "--b", "a.json"],
    ["mp1", "inverse", "--context", "ctx.json", "--a", "a.json"],
]


@pytest.mark.parametrize("argv", _EXACT_ARGVS, ids=" ".join)
def test_exact_commands_do_not_load_numpy(tmp_path, argv):
    # nor dataclasses and inspect, which cost more than the command
    _mp1_files(tmp_path)
    assert not _cli_loads(tmp_path, argv) & _HEAVY


def test_jet_dims_loads_only_symtensor(tmp_path):
    loaded = _cli_loads(tmp_path, ["jet", "dims", "--n", "2", "--m", "1", "--k", "2"])
    assert {m for m in loaded if m.startswith("symgeo.jets.")} == {"symgeo.jets.symtensor"}


@pytest.mark.parametrize("argv", [
    ["maslov", "kashiwara", "--angles", "0;1/3pi;2/3pi"],
    ["scan", "lagrangian", "--space", "std:1", "--samples", "circle.json"],
], ids=" ".join)
def test_float_commands_load_numpy(tmp_path, argv):
    _circle_file(tmp_path)
    assert "numpy" in _cli_loads(tmp_path, argv)


# -- invalid input ------------------------------------------------------------------


_F2 = {"rows": 2, "cols": 1, "entries": [1, 1]}
_FLOAT_FRAME = {"rows": 2, "cols": 1, "entries": [0.5, 1.0]}
_G4 = matrix_to_json(Matrix.identity(4))
_CTX = {"n": 1, "base": {"rows": 2, "cols": 1, "entries": [0, 1]}}
# the n = 1 lines at pi - 4e-10, 0 and 4e-10 (exact index +1, float index
# -1): values near 4e-10 sit within the margin of their 1e-9 cut, so the
# payload is refused
_NEAR = "3.141592653189793;0;4e-10"
_NEAR_FRAMES = [{"rows": 2, "cols": 1, "entries": [math.cos(t), math.sin(t)]}
                for t in map(float, _NEAR.split(";"))]
_NEAR_MESSAGE = ("undecidable at tol: a float eigenvalue or singular value "
                 "lies within a factor 10 of its cut")

# (n, frame, message): a dependent, an (n + 1)-column, a (2n - 1)-row and a
# zero-column frame
_BAD_FRAMES = (
    (2, {"rows": 4, "cols": 2, "entries": [1, 2, 0, 0, 0, 0, 0, 0]},
     "frame columns are linearly dependent"),
    (1, {"rows": 2, "cols": 2, "entries": [1, 0, 0, 1]},
     "a Lagrangian frame needs exactly n columns"),
    (2, {"rows": 3, "cols": 2, "entries": [1, 0, 0, 1, 0, 0]},
     "frame rows must match the ambient dimension"),
    (1, {"rows": 2, "cols": 0, "entries": []},
     "a Lagrangian frame needs exactly n columns"),
)

# (argv, files, message): every "{name}" in argv and message is the path of
# files[name] under tmp_path, name.csv for text, name.json otherwise; a
# None content names a file that is not written
_REFUSALS = [
    (["maslov", "kashiwara", "--angles", "0;1;2", "--space", "foo"], {},
     "space must look like std:n, got 'foo'"),
    (["scan", "lagrangian", "--space", "std:x", "--samples", "s.json"], {},
     "space must look like std:n, got 'std:x'"),
    (["maslov", "arnold", "--angles", "0;1;2", "--space", "std:0"], {},
     "space size must be positive"),
    (["maslov", "kashiwara", "--tuple", "{t}"], {"t": {"frames": [_FRAME] * 3}},
     "no symplectic space given (need 'n', 'omega' or --space)"),
    (["maslov", "wall", "--tuple", "{t}"], {"t": {"n": 1}},
     "{t} must be an object with a 'frames' list"),
    (["maslov", "kashiwara", "--tuple", "{t}"], {"t": {"n": 1, "frames": []}},
     "'frames' must be a nonempty list of matrices"),
    (["maslov", "kashiwara", "--angles", "0,1;0;0,1"], {},
     "every angle group must have the same length"),
    (["maslov", "kashiwara", "--angles", "0;1;2", "--space", "std:2"], {},
     "angle groups have 1 entries but space is std:2"),
    (["maslov", "kashiwara", "--directions", "1,0,1;1,1;0,1"], {},
     "each direction needs exactly two components"),
    (["maslov", "arnold", "--directions", "1,x;1,1;0,1"], {},
     "bad direction '1,x'"),
    (["maslov", "kashiwara", "--directions", "0,0;1,1;0,1"], {},
     "direction must be nonzero"),
    (["maslov", "arnold", "--directions", "1,0"], {},
     "need at least two directions"),
    (["maslov", "kashiwara", "--directions", "1,0;0,1"], {},
     "need at least three directions"),
    (["maslov", "kashiwara", "--directions", "1,0;1,1;0,1", "--space", "std:3"],
     {}, "directions are n=1 lines but space is std:3"),
    (["maslov", "arnold", "--directions", "1,0;1,1;0,1", "--space", "bogus"],
     {}, "space must look like std:n, got 'bogus'"),
    (["maslov", "kashiwara", "--angles", "0;1"], {},
     "need at least three Lagrangians"),
    (["maslov", "arnold", "--angles", "0;1"], {},
     "the triple index needs exactly three angles"),
    (["maslov", "arnold"], {}, "give --angles or --directions"),
    (["maslov", "wall", "--tuple", "{t}"], {"t": {"n": 1, "frames": [_FRAME, _F2]}},
     "the Wall invariant needs exactly three frames"),
    (["maslov", "kashiwara", "--tuple", "{t}"],
     {"t": {"n": 1, "frames": [_FRAME, _F2, _FLOAT_FRAME]}},
     "tuple members mix scalar modes"),
    (["maslov", "wall", "--tuple", "{t}"],
     {"t": {"n": 1, "frames": [_FRAME, _F2, _FLOAT_FRAME]}},
     "tuple members mix scalar modes"),
    (["maslov", "kashiwara", "--angles", _NEAR], {}, _NEAR_MESSAGE),
    (["maslov", "wall", "--tuple", "{t}", "--approx"],
     {"t": {"n": 1, "frames": _NEAR_FRAMES}}, _NEAR_MESSAGE),
    (["maslov", "arnold", "--angles", _NEAR], {}, _NEAR_MESSAGE),
    (["maslov", "leray", "--lifts", "1"], {}, "need at least two lifts"),
    (["mp1", "inverse", "--context", "{c}", "--a", "{a}"],
     {"c": {"n": 1}, "a": {"w": 0, "g": _G4}},
     "context JSON needs a 'base' Lagrangian frame"),
    (["mp1", "inverse", "--context", "{c}", "--a", "{a}"],
     {"c": _CTX, "a": {"w": 0}}, "{a} must be an object with 'w' and 'g'"),
    # JSON text that is no object: a number, true, null, a string, a list
    *[(["mp1", "mul", "--context", "{c}", "--a", "{a}", "--b", "{a}"],
       {"c": text, "a": {"w": 0, "g": _G4}}, "{c} must be a JSON object")
      for text in ("7", "true", "null", '"std:1"', "[1, 2]")],
    # a 4 x 4 g over a space of dimension 2
    (["mp1", "inverse", "--context", "{c}", "--a", "{a}"],
     {"c": _CTX, "a": {"w": 0, "g": _G4}},
     "matrix is not symplectic for this space"),
    (["jet", "max-isotropic", "--n", "2", "--m", "1", "--k", "2", "--p", "3"],
     {}, "p must satisfy 0 <= p <= n"),
    # dim J^2 is 5506 at n = 21, over the 5000 guard; refused before any matrix
    (["jet", "legendrian-pde", "--n", "21"], {},
     "model size exceeds the desk-scale guard"),
    (["jet", "legendrian-pde", "--n", "40"], {},
     "model size exceeds the desk-scale guard"),
    (["jet", "max-isotropic", "--n", "2", "--m", "1", "--k", "2", "--p", "1",
      "--xi", "{x}"], {"x": {"rows": 2, "cols": 2, "entries": [1, 0, 0, 1]}},
     "xi must be 2 x 1"),
    (["scan", "corank", "--samples", "{s}"], {"s": None},
     "cannot read {s}: [Errno 2] No such file or directory: '{s}'"),
    (["scan", "corank", "--samples", "{s}", "--grid", "1,2,3"],
     {"s": "0,0\n"}, "--grid must be 'rows,cols'"),
    (["bordism", "weak", "--betti", "1,x", "--n", "2"], {},
     "expected comma-separated integers, got '1,x'"),
    (["bordism", "weak", "--betti", "0", "--n", "1002"], {},
     "n must be at most 1001"),
    (["witt", "class", "--diag", "1,x"], {}, "bad diagonal entry 'x'"),
    (["witt", "class"], {}, "give --diag or --form"),
    # bad entries of a tuple file's frames
    *[(["maslov", "kashiwara", "--tuple", "{t}"],
       {"t": {"n": 1, "frames": [{"rows": 2, "cols": 1, "entries": [x, 1]}]}},
       message) for x, message in ((True, "boolean is not a matrix entry"),
                                   ("1/0", "bad rational entry '1/0'"),
                                   ({}, "bad matrix entry {{}}"))],
    (["maslov", "kashiwara", "--tuple", "{t}"], {"t": {"n": 1, "frames": [{"rows": 2}]}},
     "matrix object needs rows, cols, entries"),
    (["maslov", "wall", "--tuple", "{t}", "--exact"],
     {"t": {"n": 1, "frames": [_FLOAT_FRAME, _F2, _FRAME]}},
     "float entries present but exact mode requested"),
    (["maslov", "kashiwara", "--angles", "1;;2"], {},
     "empty member in angle list '1;;2'"),
    (["maslov", "kashiwara", "--angles", "abc;1;2"], {}, "bad angle 'abc'"),
    (["maslov", "arnold", "--angles", "4;1;2"], {}, "angles must lie in [0, pi)"),
    (["jet", "dims", "--n", "0", "--m", "1", "--k", "1"], {}, "need n, m, k >= 1"),
    # n m C(n + k - 1, k) = 92378 at n = k = 10, m = 1
    (["jet", "dims", "--n", "10", "--m", "1", "--k", "10"], {},
     "model size exceeds the desk-scale guard"),
    # each bad frame, exact and float, with the same message
    *[(["maslov", "kashiwara", "--tuple", "{t}", mode],
       {"t": {"n": n, "frames": [frame]}}, message)
      for mode in ("--exact", "--approx") for n, frame, message in _BAD_FRAMES],
]


@pytest.mark.parametrize("argv, files, message", _REFUSALS,
                         ids=[m for _, _, m in _REFUSALS])
def test_invalid_input_exits_2_with_one_error_line(capsys, tmp_path, argv,
                                                   files, message):
    paths = {}
    for name, content in files.items():
        suffix = ".csv" if isinstance(content, str) else ".json"
        paths[name] = str(tmp_path / (name + suffix))
        if content is not None:
            _write(tmp_path, name + suffix, content)
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message.format(**paths)}\n"


@pytest.mark.parametrize("argv, files, message", [
    (["--directions", "1,0;1,1;0,1"], {}, "directions are n=1 lines but space is std:5000"),
    (["--angles", "0;1;2"], {}, "angle groups have 1 entries but space is std:5000"),
    (["--tuple", "{t}"], {"t": {"n": 1, "frames": [_FRAME] * 3}},
     "tuple file has n = 1 but space is std:5000"),
], ids=["directions", "angles", "tuple"])
def test_mismatched_space_is_refused_before_it_is_built(capsys, tmp_path, argv, files,
                                                        message):
    """std:5000 has a 10000 x 10000 Omega: a refusal compares n first."""
    paths = {name: _write(tmp_path, name + ".json", obj) for name, obj in files.items()}
    start = time.perf_counter()
    code = main(["maslov", "kashiwara", "--space", "std:5000"]
                + [arg.format(**paths) for arg in argv])
    assert time.perf_counter() - start < 2.0
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")


@pytest.mark.parametrize("argv, files", [
    (["maslov", "kashiwara", "--tuple", "{t}"], {"t": {"n": 5000, "frames": [_FRAME] * 3}}),
    (["maslov", "kashiwara", "--tuple", "{t}", "--approx"],
     {"t": {"n": 5000, "frames": [_FRAME] * 3}}),
    (["maslov", "kashiwara", "--tuple", "{t}", "--space", "std:5000"],
     {"t": {"frames": [_FRAME] * 3}}),
    (["mp1", "mul", "--context", "{c}", "--a", "{a}", "--b", "{a}"],
     {"c": {"n": 5000, "base": _FRAME},
      "a": {"w": 0, "g": {"rows": 2, "cols": 2, "entries": [1, 0, 0, 1]}}}),
], ids=["tuple", "tuple-approx", "tuple-fallback", "mp1-context"])
def test_declared_n_is_checked_against_the_first_frame_before_it_is_built(
        capsys, tmp_path, argv, files):
    """"n": 5000 has a 10000 x 10000 Omega: the first frame's rows come first."""
    paths = {name: _write(tmp_path, name + ".json", obj) for name, obj in files.items()}
    start = time.perf_counter()
    code = main([arg.format(**paths) for arg in argv])
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: frame rows must match the ambient dimension\n"


# -- usage errors -------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["maslov", "frobnicate"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bordism", "weak", "--n", "3"])
    assert exc.value.code == 64


_TOP_USAGE = "usage: symgeo [-h] {maslov,mp1,jet,scan,bordism,witt,selftest} ...\n"
_NOUN_CHOICES = ("(choose from 'maslov', 'mp1', 'jet', 'scan', 'bordism', "
                 "'witt', 'selftest')")
_MASLOV_USAGE = (
    "usage: symgeo maslov [-h] [--json | --table] [--exact | --approx] [--tol TOL]\n"
    "                     {kashiwara,arnold,wall,leray} ...\n")

# (argv, exit code, stderr): usage and error lines come from the parser of
# the noun or verb argparse reached, so they pin which parsers are built
_USAGE_ERRORS = [
    ([], 64, _TOP_USAGE + "symgeo: error: the following arguments are "
     "required: noun\n"),
    (["nonsense"], 64, _TOP_USAGE + "symgeo: error: argument noun: invalid "
     f"choice: 'nonsense' {_NOUN_CHOICES}\n"),
    (["maslov", "frobnicate"], 64, _MASLOV_USAGE + "symgeo maslov: error: "
     "argument verb: invalid choice: 'frobnicate' (choose from 'kashiwara', "
     "'arnold', 'wall', 'leray')\n"),
    (["maslov"], 64, _MASLOV_USAGE + "symgeo maslov: error: the following "
     "arguments are required: verb\n"),
    # a verb name as the value of --tol: the noun's parser refuses it
    (["maslov", "--tol", "wall", "kashiwara"], 64, _MASLOV_USAGE +
     "symgeo maslov: error: argument --tol: invalid float value: 'wall'\n"),
    # the first verb named is the one parsed
    (["maslov", "--tol", "1e-3", "wall", "kashiwara"], 64,
     "usage: symgeo maslov wall [-h] [--json | --table] [--exact | --approx]\n"
     "                          [--tol TOL] [--space SPACE] --tuple TUPLE\n"
     "symgeo maslov wall: error: the following arguments are required: "
     "--tuple\n"),
    # a common flag before the verb
    (["witt", "--table", "class", "--diag=1,-1"], 0, ""),
    # a flag before the noun: the verb still parses its own flags
    (["--table", "witt", "class", "--diag=1"], 64, _TOP_USAGE +
     "symgeo: error: unrecognized arguments: --table\n"),
    (["--", "witt", "class", "--diag=1"], 64, _TOP_USAGE + "symgeo: error: "
     f"argument noun: invalid choice: '--' {_NOUN_CHOICES}\n"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse wording differs between Python versions")
@pytest.mark.parametrize("argv, code, err", _USAGE_ERRORS,
                         ids=[" ".join(a) or "no-arguments" for a, _, _ in _USAGE_ERRORS])
def test_usage_errors_pin_exit_code_and_stderr(capsys, monkeypatch, argv, code,
                                               err):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, capsys.readouterr().err) == (code, err)


def test_common_flag_between_noun_and_verb_is_kept(capsys):
    """The verb's copy of the common flags has no defaults, so a flag the
    noun's parser read survives, and a verb-level flag still wins."""
    assert run(capsys, "witt", "--table", "class", "--diag=1,-1") == \
        (0, 'field: "R"\nwitt: 0\n')
    assert run(capsys, "witt", "class", "--diag=1,-1", "--table") == \
        (0, 'field: "R"\nwitt: 0\n')
    code, payload = run_json(capsys, "witt", "--table", "class", "--json",
                             "--diag=1,-1")
    assert (code, payload) == (0, {"field": "R", "witt": 0})
    for argv, tol, mode in (
            (["maslov", "--tol", "1e-3", "kashiwara", "--directions", "1,0"],
             1e-3, None),
            (["maslov", "--tol", "1e-3", "--approx", "kashiwara", "--tol",
              "1e-2", "--directions", "1,0"], 1e-2, "approx"),
            (["maslov", "kashiwara", "--directions", "1,0"], None, None)):
        args = build_parser(argv).parse_args(argv)
        assert (args.tol, args.mode, args.table) == (tol, mode, False)
