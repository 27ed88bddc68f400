"""Seeded inputs for every perfbench workload.

Everything here is plain data: ``Fraction`` matrices as lists of rows,
float samples as JSON or CSV text, CLI argv lists and the files they name.
``symgeo`` is never imported, so no change to the package (its own random
generators included) can change a workload's inputs.  The same
``(workload, seed)`` always yields the same inputs, byte for byte.

Each workload has a fixed *schedule*: a cycle of op shapes (dimension,
tuple length, transvection count, plane signature, sample count, ...)
that does not depend on the seed.  The seed only draws the numbers that
fill each shape.  A run replays the cycle over and over, so its mix of
cheap and costly ops is the same for every seed, which keeps the timing
spread between seeds small.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import comb
from random import Random

# The pool holds this many cycles of distinct inputs; a run wraps around it.
POOL_CYCLES = {"index": 6, "mp1": 8, "jets": 3, "scan": 3, "cli": 6}


def rng_for(workload: str, seed: int) -> Random:
    # string seeds hash the same in every process (PYTHONHASHSEED-free)
    return Random(f"perfbench:{workload}:{seed}")


def rand_fraction(rng: Random) -> Fraction:
    """Numerator in [-4, 4], denominator in [1, 3]: the package's own law."""
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


# -- exact symplectic data on the standard space ------------------------------
#
# omega(x, y) = x^T Omega y with Omega = [[0, I], [-I, 0]].  A transvection
# is t(x) = x + c omega(x, u) u, drawn exactly as random_symplectic draws it
# (u uniform with the law above, redrawn if zero; c likewise, redrawn if 0).


def omega(x, y) -> Fraction:
    n = len(x) // 2
    return sum(x[i] * y[n + i] - x[n + i] * y[i] for i in range(n))


def draw_transvection(rng: Random, dim: int) -> tuple[list, Fraction]:
    while True:
        u = [rand_fraction(rng) for _ in range(dim)]
        if any(u):
            break
    while True:
        c = rand_fraction(rng)
        if c:
            return u, c


def apply_transvection(t, vec: list) -> list:
    u, c = t
    s = c * omega(vec, u)
    return [v + s * ui for v, ui in zip(vec, u)] if s else list(vec)


def columns_to_rows(cols: list) -> list:
    return [[col[i] for col in cols] for i in range(len(cols[0]))]


def random_symplectic_rows(rng: Random, n: int, twists: int) -> list:
    """g = t_1 t_2 ... t_k as rows; right-multiplying by t is rank one."""
    dim = 2 * n
    g = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(twists):
        u, c = draw_transvection(rng, dim)
        wu = [u[n + b] if b < n else -u[b - n] for b in range(dim)]  # Omega u
        gu = [sum(row[j] * u[j] for j in range(dim)) for row in g]
        g = [[g[a][b] + c * gu[a] * wu[b] for b in range(dim)] for a in range(dim)]
    return g


def random_lagrangian_columns(rng: Random, n: int, twists: int) -> list:
    """g [I; S] for a random symmetric S: n columns of length 2n."""
    sym = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            sym[i][j] = sym[j][i] = rand_fraction(rng)
    ts = [draw_transvection(rng, 2 * n) for _ in range(twists)]
    cols = []
    for j in range(n):
        col = [Fraction(int(i == j)) for i in range(n)] + [sym[i][j] for i in range(n)]
        for t in reversed(ts):
            col = apply_transvection(t, col)
        cols.append(col)
    return cols


def same_span(rng: Random, cols: list) -> list:
    """Another frame of the same Lagrangian: cols times a unitriangular A."""
    n = len(cols)
    out = []
    for j in range(n):
        coef = [Fraction(rng.randint(-2, 2)) for _ in range(j)] + [Fraction(1)]
        out.append([sum(coef[k] * cols[k][i] for k in range(j + 1))
                    for i in range(len(cols[0]))])
    return out


def sharing_first_line(rng: Random, cols: list) -> list:
    """t(L) for two transvections fixing the first column v of L."""
    v = cols[0]
    dim = len(v)
    z = next(e for e in ([Fraction(int(i == k)) for i in range(dim)]
                         for k in range(dim)) if omega(v, e) != 0)
    out = cols
    for _ in range(2):
        while True:
            u0, c = draw_transvection(rng, dim)
            s = omega(v, u0) / omega(v, z)
            u = [a - s * b for a, b in zip(u0, z)]  # omega(v, u) = 0
            if any(u):
                break
        out = [apply_transvection((u, c), col) for col in out]
    return out


# -- index --------------------------------------------------------------------
#
# (kind, n, r, twists, special).  "tuple" checks kashiwara_index of the
# r-tuple (r >= 4) against tuple_reduce; "swap" checks that the index of a
# triple changes sign when its first two members swap (for r = 3,
# tuple_reduce is kashiwara_index itself, so it could not disagree);
# "cocycle" checks the cocycle identity on a quadruple.  special = "repeat" makes the last member another frame of the
# first, "shared" makes it share the first member's first column (6 of 20).
# Sorted by cost, the n = 4 ops fill roughly the 80-95 % band, so p90 sits
# inside one cost regime and p50 inside the n = 2 ops.
INDEX_SCHEDULE = (
    ("swap", 1, 3, 3, None), ("swap", 2, 3, 4, None),
    ("tuple", 1, 4, 4, "repeat"), ("swap", 3, 3, 5, None),
    ("cocycle", 1, 4, 3, None), ("tuple", 4, 4, 4, None),
    ("tuple", 1, 5, 5, None), ("tuple", 2, 4, 5, "shared"),
    ("tuple", 1, 6, 6, "shared"), ("cocycle", 3, 4, 4, "shared"),
    ("swap", 6, 3, 3, None), ("cocycle", 1, 4, 5, None),
    ("cocycle", 2, 4, 3, None), ("tuple", 4, 4, 4, "repeat"),
    ("swap", 1, 3, 6, None), ("tuple", 3, 4, 3, None),
    ("tuple", 2, 5, 6, None), ("cocycle", 1, 4, 4, None),
    ("tuple", 4, 4, 5, None), ("cocycle", 2, 4, 6, "repeat"),
)


def index_inputs(seed: int) -> list:
    rng = rng_for("index", seed)
    ops = []
    for _ in range(POOL_CYCLES["index"]):
        for kind, n, r, twists, special in INDEX_SCHEDULE:
            frames = [random_lagrangian_columns(rng, n, twists) for _ in range(r)]
            if special == "repeat":
                frames[-1] = same_span(rng, frames[0])
            elif special == "shared":
                frames[-1] = sharing_first_line(rng, frames[0])
            ops.append({"kind": kind, "n": n,
                        "frames": [columns_to_rows(f) for f in frames]})
    return ops


# -- mp1 ----------------------------------------------------------------------
# (n, twists): n = 1 fills 0-40 % of the cost order, n = 2 40-80 %, n = 3
# the top 20 %, so p50 and p90 each sit inside one regime.
MP1_SCHEDULE = ((1, 3), (2, 4), (3, 4), (1, 5), (2, 3), (1, 4), (2, 5),
                (3, 5), (1, 6), (2, 6))


def mp1_inputs(seed: int) -> list:
    rng = rng_for("mp1", seed)
    ops = []
    for _ in range(POOL_CYCLES["mp1"]):
        for n, twists in MP1_SCHEDULE:
            elems = [{"w": rng.randint(-3, 3),
                      "g": random_symplectic_rows(rng, n, twists)}
                     for _ in range(3)]
            ops.append({"n": n, "elements": elems})
    return ops


# -- jets ---------------------------------------------------------------------

DUALITY_SIGNATURES = ((2, 1, 1), (3, 1, 1), (1, 1, 2), (1, 1, 3))


def model_dim(n: int, m: int, k: int) -> int:
    return n + m * comb(n + k - 1, k)


def jets_schedule() -> list:
    """Every plane (n <= 4, m <= 2, k <= 3, 0 <= p <= n) with model fiber
    dimension <= 24, and one duality triple ahead of every three planes, in
    a fixed shuffled order."""
    planes = [("plane", (n, m, k), p)
              for n in range(1, 5) for m in (1, 2) for k in (1, 2, 3)
              if model_dim(n, m, k) <= 24 for p in range(n + 1)]
    Random("perfbench:jets:schedule").shuffle(planes)  # fixed, not the seed
    out = []
    for i, item in enumerate(planes):
        if i % 3 == 0:
            d = i // 3
            sig = DUALITY_SIGNATURES[d % 4]
            span = model_dim(*sig) - 1
            # column counts of the two subspaces, 1 .. dim - 1
            out.append(("dual", sig, (1 + (d // 4) % span, 1 + (d // 4 + 1) % span)))
        out.append(item)
    return out


def full_rank_rows(rng: Random, rows: int, cols: int) -> list:
    while True:
        mat = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)]
               for _ in range(rows)]
        if exact_rank(mat) == min(rows, cols):
            return mat


def exact_rank(rows: list) -> int:
    a = [list(r) for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(rank + 1, len(a)):
            if a[r][c] != 0:
                f = a[r][c] / a[rank][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def jets_inputs(seed: int) -> list:
    rng = rng_for("jets", seed)
    ops = []
    for _ in range(POOL_CYCLES["jets"]):
        for kind, sig, p in jets_schedule():   # p: rank, or column counts
            if kind == "plane":
                xi = full_rank_rows(rng, sig[0], p) if p else [[] for _ in range(sig[0])]
                ops.append({"kind": "plane", "sig": list(sig), "p": p, "xi": xi})
            else:
                dim = model_dim(*sig)
                ops.append({"kind": "dual", "sig": list(sig), "cols": list(p),
                            "p1": full_rank_rows(rng, dim, p[0]),
                            "p2": full_rank_rows(rng, dim, p[1])})
    return ops


# -- scan ---------------------------------------------------------------------
#
# Closed forms:
# * an ellipse traversed q times with orientation s has tangent-line
#   Maslov degree 2 s q; its x-projection is singular exactly where
#   sin(q t) = 0, i.e. at the samples i = j N / (2q);
# * the n = 2 loop t -> L(phi1 + q1 t / 2) x L(phi2 + q2 t / 2), with its
#   frame columns mixed by an invertible 2x2 matrix, has degree q1 + q2;
# * a jet lift (x, f'(x), f(x)) of a quadratic f is Legendrian, and stays
#   so under finite differences; adding e t to z breaks it;
# * the torus (r1 cos u, r2 cos v, r1 sin u, r2 sin v) is Lagrangian with
#   base corank [sin u = 0] + [sin v = 0]; the torus
#   (r1 cos u, r1 sin u, r2 cos v, r2 sin v) is not, with corank 1 everywhere.
SCAN_SCHEDULE = (
    ("loop2", "json", 512), ("legendrian", "csv", 1), ("torus", "json", 17),
    ("loop2", "csv", 1024), ("loop4", "json", 512), ("legendrian", "json", 2),
    ("loop2", "json", 2048), ("torus", "csv", 13), ("loop2", "csv", 768),
    ("loop4", "json", 1024), ("legendrian", "csv", 2), ("loop2", "json", 4096),
    ("torus", "json", 21), ("legendrian", "json", 1), ("loop2", "csv", 1536),
    ("loop4", "json", 768), ("loop4", "json", 640),
)


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_text(params: list, points: list) -> str:
    pd, ad = len(params[0]), len(points[0])
    head = [f"p{i + 1}" for i in range(pd)] + [f"a{i + 1}" for i in range(ad)]
    lines = [",".join(head)]
    for p, a in zip(params, points):
        lines.append(",".join(_fmt(v) for v in (*p, *a)))
    return "\n".join(lines) + "\n"


def _json_text(topology: str, params: list, points: list,
               frames: list | None = None, grid_shape=None) -> str:
    obj = {"param_dim": len(params[0]), "ambient_dim": len(points[0]),
           "topology": topology, "params": params, "points": points}
    if frames is not None:
        obj["frames"] = frames
    if grid_shape is not None:
        obj["grid_shape"] = list(grid_shape)
    return json.dumps(obj)


def _loop2(rng: Random, fmt: str, samples: int) -> dict:
    q = rng.choice((1, 2, 3))
    while samples % (2 * q):
        q -= 1
    s = rng.choice((1, -1))
    a, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    cx, cy = rng.uniform(-3, 3), rng.uniform(-3, 3)
    ts = [2 * math.pi * i / samples for i in range(samples)]
    params = [[t] for t in ts]
    points = [[cx + a * math.cos(q * t), cy + s * b * math.sin(q * t)] for t in ts]
    # turning points of the x-projection: sin(q t) = 0
    coranks = [int(i % (samples // (2 * q)) == 0) for i in range(samples)]
    text = (_csv_text(params, points) if fmt == "csv"
            else _json_text("loop", params, points))
    return {"kind": "loop2", "format": fmt, "topology": "loop", "text": text,
            "expect": {"samples": samples, "lagrangian": True,
                       "degree": 2 * s * q, "coranks": coranks}}


def _loop4(rng: Random, samples: int) -> dict:
    q1, q2 = rng.choice((1, 2, 3, -1)), rng.choice((1, 2, -2))
    f1, f2 = rng.uniform(0, math.pi), rng.uniform(0, math.pi)
    mix = [[rng.choice((1, 2)), rng.uniform(-1, 1)], [0.0, rng.choice((1, -1, 2))]]
    params, points, frames = [], [], []
    for i in range(samples):
        t = 2 * math.pi * i / samples
        th1, th2 = f1 + q1 * t / 2, f2 + q2 * t / 2
        c1 = [math.cos(th1), 0.0, math.sin(th1), 0.0]
        c2 = [0.0, math.cos(th2), 0.0, math.sin(th2)]
        cols = [[c1[r] * mix[0][j] + c2[r] * mix[1][j] for r in range(4)]
                for j in range(2)]
        params.append([t])
        points.append([math.cos(t), math.sin(t), 0.5 * math.cos(2 * t), 0.25 * t])
        frames.append(columns_to_rows(cols))
    return {"kind": "loop4", "format": "json", "topology": "loop",
            "text": _json_text("loop", params, points, frames),
            "expect": {"samples": samples, "lagrangian": True,
                       "degree": q1 + q2}}


def _legendrian(rng: Random, fmt: str, n: int) -> dict:
    samples = rng.choice((256, 512, 1024))
    broken = rng.random() < 0.25
    e = rng.choice((-1, 1)) * rng.uniform(0.5, 2.0) if broken else 0.0
    t0 = rng.uniform(-2, 0)
    h = rng.uniform(2, 4) / samples
    params, points = [], []
    if n == 1:
        a, b, c = (rng.uniform(-2, 2) for _ in range(3))
        for i in range(samples):
            t = t0 + i * h
            params.append([t])
            points.append([t, 2 * a * t + b, a * t * t + b * t + c + e * t])
    else:
        al, be, p1, q1, p2, z0 = (rng.uniform(-2, 2) for _ in range(6))
        for i in range(samples):
            t = t0 + i * h
            params.append([t])
            points.append([t, al * t + be, p1 * t + q1, p2,
                           p1 * t * t / 2 + (q1 + p2 * al) * t + z0 + e * t])
    text = (_csv_text(params, points) if fmt == "csv"
            else _json_text("line", params, points))
    return {"kind": "legendrian", "format": fmt, "topology": "line", "text": text,
            "expect": {"samples": samples, "legendrian": not broken}}


def _torus(rng: Random, fmt: str, rows: int) -> dict:
    cols = rows + 2 * rng.randint(-2, 2)
    lagrangian = rng.random() < 0.75
    r1, r2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    du, dv = 2 * math.pi / (rows - 3), 2 * math.pi / (cols - 3)
    us = [(i - 1) * du for i in range(rows)]
    vs = [(j - 1) * dv for j in range(cols)]
    params, points, coranks = [], [], []
    zu = {1, 1 + (rows - 3) // 2, rows - 2}   # u = 0, pi, 2 pi
    zv = {1, 1 + (cols - 3) // 2, cols - 2}
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            params.append([u, v])
            if lagrangian:
                points.append([r1 * math.cos(u), r2 * math.cos(v),
                               r1 * math.sin(u), r2 * math.sin(v)])
                coranks.append(int(i in zu) + int(j in zv))
            else:
                points.append([r1 * math.cos(u), r1 * math.sin(u),
                               r2 * math.cos(v), r2 * math.sin(v)])
                coranks.append(1)
    text = (_csv_text(params, points) if fmt == "csv"
            else _json_text("grid", params, points, grid_shape=(rows, cols)))
    return {"kind": "torus", "format": fmt, "topology": "grid", "text": text,
            "grid_shape": [rows, cols],
            "expect": {"samples": rows * cols, "lagrangian": lagrangian,
                       "coranks": coranks}}


def scan_inputs(seed: int) -> list:
    rng = rng_for("scan", seed)
    ops = []
    for _ in range(POOL_CYCLES["scan"]):
        for kind, fmt, size in SCAN_SCHEDULE:
            if kind == "loop2":
                ops.append(_loop2(rng, fmt, size))
            elif kind == "loop4":
                ops.append(_loop4(rng, size))
            elif kind == "legendrian":
                ops.append(_legendrian(rng, fmt, size))
            else:
                ops.append(_torus(rng, fmt, size))
    return ops


# -- cli ----------------------------------------------------------------------
#
# Expected results are computed here in closed form, never by symgeo.
# Eight of ten commands need no floating point, so once exact-only commands
# stop importing numpy, p50 moves; the rest keep p90 where it is.
CLI_SCHEDULE = ("witt", "kashiwara-directions", "jet-dims", "leray",
                "scan-lagrangian", "bordism", "kashiwara-angles", "witt",
                "kashiwara-directions", "jet-dims")

SCAN_FILE = "circle.json"


def _upper(d):
    p, q = d
    return (-p, -q) if q < 0 or (q == 0 and p < 0) else (p, q)


def _line_triple(d1, d2, d3) -> int:
    """+1 if the line angles increase cyclically, -1 if they decrease,
    0 if two lines coincide; the Kashiwara index of three lines."""
    a, b, c = _upper(d1), _upper(d2), _upper(d3)

    def less(x, y):  # angle(x) < angle(y) in [0, pi)
        return x[0] * y[1] - x[1] * y[0] > 0

    def same(x, y):
        return x[0] * y[1] - x[1] * y[0] == 0

    if same(a, b) or same(b, c) or same(a, c):
        return 0
    rising = [less(a, b), less(b, c), less(c, a)]
    return 1 if sum(rising) == 2 else -1


def _angle_triple(t1: Fraction, t2: Fraction, t3: Fraction) -> int:
    if len({t1, t2, t3}) < 3:
        return 0
    rising = [t1 < t2, t2 < t3, t3 < t1]
    return 1 if sum(rising) == 2 else -1


def _leray_m(t1: Fraction, t2: Fraction) -> int:
    d = t1 - t2
    if d.denominator == 1:
        return -2 * int(d)
    return -2 * math.floor(d) - 1


def _pi(t: Fraction) -> str:
    return f"{t.numerator}/{t.denominator}pi"


def _cli_op(rng: Random, kind: str) -> dict:
    if kind == "witt":
        diag = [rng.choice((-1, 1)) * Fraction(rng.randint(1, 9), rng.randint(1, 4))
                for _ in range(rng.randint(2, 8))]
        argv = ["witt", "class", "--diag=" + ",".join(str(d) for d in diag)]
        return {"argv": argv, "expect": {"witt": sum(1 if d > 0 else -1 for d in diag)}}
    if kind == "kashiwara-directions":
        r, ds = rng.randint(3, 6), []
        while len(ds) < r:
            d = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
            if d != (0, 0):
                ds.append(d)
        index = sum(_line_triple(ds[0], ds[j], ds[j + 1]) for j in range(1, len(ds) - 1))
        argv = ["maslov", "kashiwara",
                "--directions=" + ";".join(f"{p},{q}" for p, q in ds)]
        return {"argv": argv, "expect": {"index": index, "r": len(ds)}}
    if kind == "jet-dims":
        n, m, k = rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 4)
        argv = ["jet", "dims", "--n", str(n), "--m", str(m), "--k", str(k)]
        return {"argv": argv, "expect": {
            "jet_dim": n + m * comb(n + k, k),
            "symbol_layer_dim": m * comb(n + k - 1, k),
            "model_fiber_dim": n + m * comb(n + k - 1, k),
            "lambda_dim": m * comb(n + k - 2, k - 1)}}
    if kind == "leray":
        lifts = [Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                 for _ in range(rng.randint(2, 6))]
        ms = [_leray_m(lifts[i], lifts[(i + 1) % len(lifts)])
              for i in range(len(lifts))]
        argv = ["maslov", "leray", "--lifts=" + ",".join(_pi(t) for t in lifts)]
        return {"argv": argv, "expect": {"m_values": ms, "cyclic_sum": sum(ms)}}
    if kind == "kashiwara-angles":
        n = rng.choice((1, 2))
        # distinct angles per component keep the float route decidable
        comps = [rng.sample([Fraction(a, 12) for a in range(12)], 3) for _ in range(n)]
        members = [[comps[c][i] for c in range(n)] for i in range(3)]
        index = sum(_angle_triple(*comps[c]) for c in range(n))
        argv = ["maslov", "kashiwara",
                "--angles=" + ";".join(",".join(_pi(t) for t in mem) for mem in members)]
        return {"argv": argv, "expect": {"index": index, "r": 3, "n": n}}
    if kind == "bordism":
        n = rng.randint(1, 4)
        betti = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        omega_ranks = {0: 1, 1: 0, 2: 1, 3: 0}
        rank = sum((betti[r] if r < len(betti) else 0) * omega_ranks[n - 1 - r]
                   for r in range(n))
        argv = ["bordism", "weak", "--betti=" + ",".join(map(str, betti)), f"--n={n}"]
        return {"argv": argv, "expect": {"rank": rank, "n": n}}
    # scan-lagrangian on the circle file written during set-up
    return {"argv": ["scan", "lagrangian", "--space", "std:1", "--samples", SCAN_FILE],
            "expect": {"samples": 256, "pass": True}}


def cli_inputs(seed: int) -> dict:
    rng = rng_for("cli", seed)
    ops = [_cli_op(rng, kind) for _ in range(POOL_CYCLES["cli"])
           for kind in CLI_SCHEDULE]
    r = rng.uniform(0.5, 2.0)
    ts = [2 * math.pi * i / 256 for i in range(256)]
    circle = _json_text("loop", [[t] for t in ts],
                        [[r * math.cos(t), r * math.sin(t)] for t in ts])
    return {"ops": ops, "files": {SCAN_FILE: circle}}


MAKERS = {"index": index_inputs, "mp1": mp1_inputs, "jets": jets_inputs,
          "scan": scan_inputs, "cli": cli_inputs}

SCHEDULE_LENGTH = {"index": len(INDEX_SCHEDULE), "mp1": len(MP1_SCHEDULE),
                   "jets": len(jets_schedule()), "scan": len(SCAN_SCHEDULE),
                   "cli": len(CLI_SCHEDULE)}


def make_inputs(workload: str, seed: int):
    return MAKERS[workload](seed)


def encode(inputs) -> bytes:
    """Canonical bytes of generated inputs: rationals as "p/q" strings."""
    def default(x):
        if isinstance(x, Fraction):
            return f"{x.numerator}/{x.denominator}"
        raise TypeError(f"cannot encode {type(x).__name__}")
    return json.dumps(inputs, default=default, sort_keys=True,
                      separators=(",", ":")).encode()
