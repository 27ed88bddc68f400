"""The five perfbench workloads: how an op calls symgeo and how its answer
is checked.

Each workload turns generated plain data into symgeo inputs once, during
set-up (``prepare``).  An op (``run``) then does the work a user would:
it builds the checked objects (Lagrangian frames, Mp1 elements) and calls
the public API, or runs the ``symgeo`` CLI in a fresh interpreter.  The
answer goes to ``check``, which needs no further symgeo work: it tests an
identity that is a theorem, or compares with a closed form computed by the
generator.  ``corrupt`` plants a wrong answer, so the tests can show that
``check`` catches it.

symgeo is called through module attributes (``maslov.kashiwara_index``),
so the tracer's patched bindings are the ones that run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from typing import Any, Callable

from symgeo import jets, linalg, maslov, metaplectic, scan, symplectic

CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[Any, str], list]   # (generated inputs, work dir) -> ops
    run: Callable[[Any], Any]              # op -> answer
    check: Callable[[Any, Any], bool]      # (op, answer) -> correct?
    corrupt: Callable[[Any], Any]          # answer -> a wrong answer


# -- index --------------------------------------------------------------------


def _std_spaces(ns) -> dict:
    return {n: symplectic.SymplecticSpace.standard(n) for n in set(ns)}


def index_prepare(inputs: list, workdir: str) -> list:
    spaces = _std_spaces(op["n"] for op in inputs)
    return [(op["kind"], spaces[op["n"]],
             [linalg.Matrix.exact(rows) for rows in op["frames"]])
            for op in inputs]


def index_run(op) -> tuple:
    kind, space, mats = op
    lags = [symplectic.LagrangianFrame(space, m) for m in mats]
    if kind == "tuple":
        tup = maslov.LagrangianTuple.of(*lags)
        return int(maslov.kashiwara_index(tup)), int(maslov.tuple_reduce(tup))
    if kind == "swap":   # the index is alternating in its members
        l1, l2, l3 = lags
        return (int(maslov.kashiwara_index((l1, l2, l3))),
                -int(maslov.kashiwara_index((l2, l1, l3))))
    l1, l2, l3, l4 = lags
    return tuple(int(maslov.kashiwara_index(t)) for t in
                 ((l2, l3, l4), (l1, l3, l4), (l1, l2, l4), (l1, l2, l3)))


def index_check(op, ans) -> bool:
    if op[0] in ("tuple", "swap"):
        return ans[0] == ans[1]
    return ans[0] - ans[1] + ans[2] - ans[3] == 0   # the cocycle identity


# -- mp1 ----------------------------------------------------------------------


def _vertical_base(space):
    n = space.n
    rows = [[int(r == n + c) for c in range(n)] for r in range(2 * n)]
    return symplectic.LagrangianFrame(space, linalg.Matrix.exact(rows))


def mp1_prepare(inputs: list, workdir: str) -> list:
    spaces = _std_spaces(op["n"] for op in inputs)
    ctxs = {n: metaplectic.Mp1Context(sp, _vertical_base(sp))
            for n, sp in spaces.items()}
    return [(ctxs[op["n"]], [(e["w"], linalg.Matrix.exact(e["g"]))
                             for e in op["elements"]])
            for op in inputs]


def mp1_run(op) -> tuple:
    ctx, elems = op
    a, b, c = (metaplectic.Mp1Element.of(ctx, w, g) for w, g in elems)
    left = metaplectic.mp1_mul(metaplectic.mp1_mul(a, b), c)
    right = metaplectic.mp1_mul(a, metaplectic.mp1_mul(b, c))
    unit = metaplectic.mp1_mul(a, metaplectic.mp1_inverse(a))
    ident = linalg.Matrix.identity(ctx.space.dim)
    return (int(left.w), int(right.w), left.g == right.g,
            int(unit.w), unit.g == ident)


def mp1_check(op, ans) -> bool:
    # uw == 0 holds by construction (mp1_inverse sets w' = -w - c(g, g^-1));
    # unit_g and the associativity of the product are the real checks
    lw, rw, same_g, uw, unit_g = ans
    return lw == rw and same_g and uw == 0 and unit_g


# -- jets ---------------------------------------------------------------------


def jets_prepare(inputs: list, workdir: str) -> list:
    out = []
    for op in inputs:
        sig = jets.JetSignature(*op["sig"])
        if op["kind"] == "plane":
            xi = (linalg.Matrix.exact(op["xi"]) if op["p"]
                  else linalg.Matrix.zeros(sig.n, 0))
            out.append(("plane", sig, op["p"], xi, jets.lambda_basis(sig)))
        else:
            out.append(("dual", sig, linalg.Matrix.exact(op["p1"]),
                        linalg.Matrix.exact(op["p2"])))
    return out


def jets_run(op) -> tuple:
    if op[0] == "plane":
        _, sig, p, xi, lams = op
        plane = jets.max_isotropic(sig, xi)
        vecs = plane.vectors()
        nonzero = sum(jets.metasymplectic_eval(lam, v, w) != 0
                      for lam in lams
                      for i, v in enumerate(vecs) for w in vecs[i:])
        return plane.dim, nonzero
    _, sig, p1, p2 = op
    perp = jets.meta_orthogonal_frame
    o1, o2 = perp(sig, p1), perp(sig, p2)
    law_a = linalg.spans_equal(perp(sig, o1), p1)
    law_b = linalg.spans_equal(symplectic.intersect_frames(o1, o2),
                               perp(sig, p1.hstack(p2)))
    law_c = linalg.spans_equal(perp(sig, symplectic.intersect_frames(p1, p2)),
                               o1.hstack(o2))
    return law_a, law_b, law_c


def jets_check(op, ans) -> bool:
    if op[0] == "plane":
        _, sig, p, _, _ = op
        return ans == (sig.m * comb(p + sig.k - 1, sig.k) + sig.n - p, 0)
    return ans == (True, True, True)


# -- scan ---------------------------------------------------------------------


def scan_prepare(inputs: list, workdir: str) -> list:
    spaces = _std_spaces((1, 2))
    return [dict(op, space=spaces[1 if op["kind"] == "loop2" else 2])
            for op in inputs]


def _load(op):
    if op["format"] == "csv":
        shape = tuple(op["grid_shape"]) if "grid_shape" in op else None
        return scan.immersion_from_csv(op["text"], op["topology"], shape)
    return scan.immersion_from_json(op["text"])


def scan_run(op) -> dict:
    s = _load(op)
    kind, space = op["kind"], op["space"]
    if kind == "legendrian":
        rep = scan.check_legendrian(s)
        return {"samples": rep["samples"], "legendrian": rep["pass"],
                "residual": rep["max_residual"]}
    rep = scan.check_lagrangian(s, space)
    ans = {"samples": rep["samples"], "lagrangian": rep["pass"],
           "residual": rep["max_residual"]}
    if kind in ("loop2", "torus"):
        ans["coranks"] = scan.corank_profile(s)["coranks"]
    if kind in ("loop2", "loop4"):
        ans["degree"] = scan.loop_maslov(s, space)
    return ans


def scan_check(op, ans) -> bool:
    return all(ans.get(k) == v for k, v in op["expect"].items())


def scan_corrupt(ans) -> dict:
    flag = "legendrian" if "legendrian" in ans else "lagrangian"
    return dict(ans, **{flag: not ans[flag]})


# -- cli ----------------------------------------------------------------------


def cli_prepare(inputs: dict, workdir: str) -> list:
    os.makedirs(workdir, exist_ok=True)
    for name, text in inputs["files"].items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    env = cli_env()
    return [([sys.executable, "-m", "symgeo.cli", *op["argv"]], workdir, env,
             op["expect"]) for op in inputs["ops"]]


def cli_env() -> dict:
    """The caller's environment with only this checkout's src on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(linalg.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def cli_run(op) -> dict:
    argv, cwd, env, _ = op
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    payload = json.loads(proc.stdout) if proc.returncode == 0 else None
    return {"code": proc.returncode, "payload": payload}


def cli_check(op, ans) -> bool:
    expect = op[3]
    return ans["code"] == 0 and all(ans["payload"].get(k) == v
                                    for k, v in expect.items())


WORKLOADS = {
    "index": Workload(index_prepare, index_run, index_check,
                      lambda a: (a[0] + 2,) + a[1:]),
    "mp1": Workload(mp1_prepare, mp1_run, mp1_check,
                    lambda a: (a[0] + 2,) + a[1:]),
    "jets": Workload(jets_prepare, jets_run, jets_check,
                     lambda a: (a[0] + 1,) + a[1:]),
    "scan": Workload(scan_prepare, scan_run, scan_check, scan_corrupt),
    "cli": Workload(cli_prepare, cli_run, cli_check,
                    lambda a: dict(a, code=2)),
}
