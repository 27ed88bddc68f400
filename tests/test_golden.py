"""Golden bytes: sha256 pins of the selftest reports, the stdout of every
README command, every ``--help`` page and seeded dumps of the jets layer and
the Kashiwara-type forms.

A refactor keeps these hashes; a change that means to move them updates
them in the same commit.  Help pages follow argparse's wording, so they are
pinned for Python 3.11 at 80 columns.
"""

import contextlib
import hashlib
import io
import json
import math
import shlex
import sys
from random import Random

import pytest

from symgeo.cli import main
from symgeo.jets import (JetSignature, lambda_basis, max_isotropic,
                         metasymplectic_eval)
from symgeo.jets.metasymplectic import (flatten, meta_orthogonal_frame,
                                        model_dim, unflatten)
from symgeo.jsonio import dumps
from symgeo.linalg import Matrix
from symgeo.maslov import LagrangianTuple, kashiwara_space, wall_invariant
from symgeo.selftest import _rand_full_rank, run_selftest
from symgeo.symplectic import LagrangianFrame, SymplecticSpace
from test_maslov import _rand_tuple

SELFTEST_QUICK = {
    0: "314a30a7416b16c822ad697bb869e766d7ff0633d967281c66c8100ba7caca01",
    1: "a735e6017cc57f32b843b670fc5c3fabd6fe84584a68e11311d5dec57d4caf83",
    2: "1cb74ed084f0ec6d90f0be91a9ec4899732985f9e84ef7b6593029a287c456f8",
    3: "65649a80bca0c6ec8a8a120b182d94dd77eb20b5595d72cfe5deeb353e8dfd64",
}
SELFTEST_FULL_SEED0 = (
    "d6773f9cd1126e29c0a757a928a4e904120d3dcd57ab6efe8bf69d37636fa4c7")

README_COMMANDS = {
    'maslov kashiwara --angles "0;1/3pi;2/3pi"':
        "c97e9ba4eabb226f22f680cc8a9b450e959dfb70844447ed788ddfdc9111defd",
    'maslov kashiwara --directions "1,0;1,1;0,1"':
        "c97e9ba4eabb226f22f680cc8a9b450e959dfb70844447ed788ddfdc9111defd",
    'maslov leray --lifts "0,1/3pi,2/3pi"':
        "30387e10406119293cbbd2b90eb9c49e98d1b37cfa2e69d0165f0ae95e2effc6",
    "jet dims --n 2 --m 1 --k 2":
        "106799e073953b314a9b4556d98a1a5228e154ebf5dcf9bc1b85607086602b2c",
    "jet spencer-audit --n 2 --m 1 --k 2 --table":
        "53fa54d9345db854ae6daaffd84f7da0b65d6b0f6f9c5e6a1ffaf78cd91cb6bc",
    "jet lagrangian-pde --n 2":
        "446b91e999a8b7e4466021dae78ecb07ca5e504b4b03f43a811309ce54ce9d0e",
    "scan lagrangian --space std:1 --samples circle.json":
        "5867d1da6150e815b9b180f6bea5d8948aeb614f478db593769a4aa963b8abb9",
    "scan loop-maslov --space std:1 --samples circle.json":
        "67f2fc67cdd4b9dcd4dc820b3f37f66618b5e44b71c85b960999025bc6f814a8",
    "scan legendrian --samples lift.csv --reeb":
        "2a3abb97b208ccb9818089f82d683802485a27af4236bd8e08600629a8a394b3",
    "bordism weak --betti 1,0,0 --n 4":
        "83e5ba94f4b1bfbe612e41c94ef9aa0a6724d193266e413f39998c0f41d0c9c1",
    "witt class --diag 1,1,-1":
        "ed5e77c1f3193d6cc5dc840d6d445136e2cb7153679b6096c7b8a2cc501e9c9a",
    "selftest --quick --seed 0":
        "6b7b70ee7510b886bbc4f8f5bfa6349d87ec274ebb6eb2b912e1a01102b0df2d",
}

# scan commands on sample files the README does not show: a grid and an
# n = 2 loop with analytic frames
SCAN_COMMANDS = {
    "scan corank --samples torus.json":
        "c91480bfb1e208100250ee9eab687d889d6b776e0008a18c957af4bc91d110dc",
    "scan lagrangian --space std:2 --samples torus.json":
        "47f20ce62df8281559dbf2c881cdcfd27eb098cf646a9103cfefc6c162c4935d",
    "scan loop-maslov --space std:2 --samples loop4.json":
        "99368e2986a3f546d28f7c7df5c64d4609e8d392c339973b1d2b56812656eeb8",
}

JETS_DUMP = (
    "f2eee5ad98f405fa087d0042607a1f0e69ea22ae336e6f97b4111ba1f4f6553f")
JETS_SIGNATURES = ((1, 1, 2), (2, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2),
                   (3, 1, 2), (2, 1, 3), (1, 2, 3))

MASLOV_FORMS_DUMP = (
    "3e25a8123ae108456597c607b7246f906096cf0f35abcfc73dd98a873db5cf53")

HELP_PAGES = {
    "":
        "1c8cd6cc079547988dc2682ac8d47925f345ef0ade42c4cab555e2c356e36723",
    "maslov":
        "7b2ee133166b9af54510c6b9d39056f962dfaa7cc711319e09bd9bf84cf8af51",
    "maslov kashiwara":
        "261448f0f024dcde26ac1a9c68cfe0511f041178d78b5f8ecf7489722a659561",
    "maslov arnold":
        "57c9e9857c3e34c94ce4634ec5487fb73aa198749364512df37d86ecd12c9174",
    "maslov wall":
        "611b4d279b33c64c5b1ba63521875ff3471198aa90a2d974901c268ec5085ef4",
    "maslov leray":
        "412368a08cd992cad6cd99461a500954b12a0ed917b5e73fa28d8b910f1de926",
    "mp1":
        "d72d02b5f48db74dabca944b7b1eb5af078326ddbae03ee1e0aece2ed270ede5",
    "mp1 mul":
        "029b5dd26d80d61748928284d25cde48faf1ecf8e9027245b3f2365886a034df",
    "mp1 inverse":
        "fdc145a5321c15d5048530952c127c110676c73e3ad3208c03fbca205934f13b",
    "jet":
        "6cb636a078914f8026355dbd8911cd4308289e69bbc8de663ad1179cfee48702",
    "jet dims":
        "1ea17e4ce5a55da41c47fac18b27d90f882a42766093c1863dfc662f4172997c",
    "jet spencer-audit":
        "992a3b721f7b0ac66ec35e4e44c7c8c8e64b250809c28a77f6d8dbdce960eea0",
    "jet lagrangian-pde":
        "635e4ecb4a4f4a3eaa55a0eab494319b9f5dd7c7f93c2499e69ea4c0f3617322",
    "jet legendrian-pde":
        "c202af44a4cc45fbd1a9743e398faf8af11b7bd7da74652478ae21b7d44c53e6",
    "jet max-isotropic":
        "199f30d730705cf93e563ad1022af1842bb244a516be02a94947afb2947e3eb7",
    "scan":
        "a2673edff34e26cf1bfcf85285baa87fff75941c52ec6c8af6059083c2191f0d",
    "scan lagrangian":
        "9c911fe19d1471b478eff8f7ed527c358f92be8b574781c4df9c01785ef52b4e",
    "scan corank":
        "687c144a7024725b80aa7b7d09b7c7f8b2ebf19d672b57cfe91a2b0676ec3c53",
    "scan loop-maslov":
        "f737b92ab656ee1e54b1d300530af22e179cf90bc4fc2ff6a651256dd33afe2b",
    "scan legendrian":
        "7368586fef0c84b51c1faf4d3e75fc04851ac1b099cbd01389b41bb524fe2ad9",
    "bordism":
        "70004463ec8b75b1a9bdb31e4e8bc0354013bb6a164e7d97a7b6ad29ed8ffe9e",
    "bordism weak":
        "938154cad1b314687f385af9e3e3f01c03d7dd118197c5e7841efbf7620408f5",
    "bordism gsingular":
        "8317706204248ff498f732d3652763ff5169a8afe61613704274a4bccd0bec2a",
    "bordism split-check":
        "84cf7bd54aada5ca20b2e5fdc165880d7bfbc4f61287041bb7157fd2d67314ce",
    "witt":
        "4f5aaffa76dae3a8a6c658da90278b26ae3164b216e0a9a7fabf12549e4f1490",
    "witt class":
        "bfdc509c1c4d277c423019e91ef90236a9252aa061bc289081aa9d39492b58e6",
    "witt ideal":
        "a3f18855ba3a1cdfdf16d8972e719b9b47d1df03fe18fe228ae5b2c511143020",
    "selftest":
        "6bc4646c5df929b2dbe427b08f4e6aa56cf7bf0c528eb234a5ba4e176b204f86",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stdout(argv: list) -> tuple:
    """(exit code, stdout) of one CLI call; ``--help`` exits through SystemExit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def _write_readme_samples(directory) -> None:
    """The ``circle.json`` and ``lift.csv`` the README commands read."""
    ts = [2 * math.pi * i / 64 for i in range(64)]
    (directory / "circle.json").write_text(json.dumps({
        "param_dim": 1, "ambient_dim": 2, "topology": "loop",
        "params": [[t] for t in ts],
        "points": [[math.cos(t), math.sin(t)] for t in ts],
    }))
    rows = ["p1,a1,a2,a3"] + [f"{i / 8},{i / 8},{2 * i / 8},{(i / 8) ** 2}"
                              for i in range(9)]
    (directory / "lift.csv").write_text("\n".join(rows))


def _write_scan_samples(directory) -> None:
    """``torus.json``, a 9 x 11 grid on the Lagrangian torus
    (cos u, 2 cos v, sin u, 2 sin v), and ``loop4.json``, 48 samples of the
    n = 2 loop L(1/2 + t/2) x L(1/4 + t) (degree 3) with analytic frames
    whose columns are mixed by an invertible 2 x 2 matrix."""
    us = [2 * math.pi * i / 8 for i in range(9)]
    vs = [2 * math.pi * j / 10 for j in range(11)]
    (directory / "torus.json").write_text(json.dumps({
        "param_dim": 2, "ambient_dim": 4, "topology": "grid",
        "grid_shape": [9, 11],
        "params": [[u, v] for u in us for v in vs],
        "points": [[math.cos(u), 2 * math.cos(v), math.sin(u), 2 * math.sin(v)]
                   for u in us for v in vs],
    }))
    ts = [2 * math.pi * i / 48 for i in range(48)]
    frames = []
    for t in ts:
        c1 = [math.cos(0.5 + t / 2), 0.0, math.sin(0.5 + t / 2), 0.0]
        c2 = [0.0, math.cos(0.25 + t), 0.0, math.sin(0.25 + t)]
        frames.append([[2 * a, 0.5 * a - b] for a, b in zip(c1, c2)])
    (directory / "loop4.json").write_text(json.dumps({
        "param_dim": 1, "ambient_dim": 4, "topology": "loop",
        "params": [[t] for t in ts],
        "points": [[math.cos(t), math.sin(t), 0.5 * math.cos(2 * t), 0.25 * t]
                   for t in ts],
        "frames": frames,
    }))


def _jets_dump() -> str:
    """Orthogonal frames, isotropic plane vectors and pairing values, one
    text line each, from seeded inputs over ``JETS_SIGNATURES``."""
    rng = Random("golden:jets")
    lines = []

    def text(values) -> str:
        return " ".join(str(x) for x in values)

    for s in JETS_SIGNATURES:
        sig = JetSignature(*s)
        dim = model_dim(sig)
        lams = lambda_basis(sig)
        for _ in range(3):
            cols = rng.randint(1, 2)
            frame = Matrix.exact([[rng.randint(-2, 2) for _ in range(cols)]
                                  for _ in range(dim)])
            perp = meta_orthogonal_frame(sig, frame)
            lines.append(f"perp {s} " + "; ".join(text(r) for r in perp.entries))
        vecs = []
        for p in range(sig.n + 1):
            xi = _rand_full_rank(rng, sig.n, p) if p else Matrix.zeros(sig.n, 0)
            plane = max_isotropic(sig, xi).vectors()
            lines.extend(f"plane {s} p={p} " + text(flatten(v)) for v in plane)
            vecs += plane
        free = [unflatten(sig, [rng.randint(-3, 3) for _ in range(dim)])
                for _ in range(3)]
        lines.extend(f"eval {s} " + text(metasymplectic_eval(lam, u, v)
                                         for u in free for v in free + vecs)
                     for lam in lams)
    return "\n".join(lines)


def _maslov_forms_dump() -> str:
    """Exact Gram entries, dims and signatures of ``kashiwara_space``, the
    dims and signatures of float copies, and exact and float Wall values of
    the first three members, for 48 seeded tuples over n = 1..4, r = 3..5."""
    rng = Random("golden:maslov-forms")
    lines = []
    for n in range(1, 5):
        sp = SymplecticSpace.standard(n)
        for _ in range(12):
            ls = _rand_tuple(rng, sp, rng.randint(3, 5))
            floats = [LagrangianFrame(sp, l.frame.to_approx()) for l in ls]
            qs = kashiwara_space(LagrangianTuple.of(*ls))
            fqs = kashiwara_space(LagrangianTuple.of(*floats))
            gram = "; ".join(" ".join(str(x) for x in row)
                             for row in qs.form.gram.entries)
            lines.append(f"space n={n} r={len(ls)} dim={qs.dim} "
                         f"sig={qs.signature().as_tuple()} gram={gram}")
            lines.append(f"float dim={fqs.dim} sig={fqs.signature().as_tuple()}")
            lines.append(f"wall {int(wall_invariant(*ls[:3]))} "
                         f"{int(wall_invariant(*floats[:3]))}")
    return "\n".join(lines)


@pytest.mark.parametrize("seed", sorted(SELFTEST_QUICK))
def test_quick_selftest_report(seed):
    assert _sha(dumps(run_selftest(seed=seed, quick=True))) == SELFTEST_QUICK[seed]


def test_full_selftest_report(full_selftest_seed0):
    assert _sha(dumps(full_selftest_seed0)) == SELFTEST_FULL_SEED0


@pytest.mark.parametrize("command", sorted(README_COMMANDS))
def test_readme_command(command, tmp_path, monkeypatch):
    _write_readme_samples(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out = _stdout(shlex.split(command))
    assert code == 0
    assert _sha(out) == README_COMMANDS[command]


@pytest.mark.parametrize("command", sorted(SCAN_COMMANDS))
def test_scan_command(command, tmp_path, monkeypatch):
    _write_scan_samples(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out = _stdout(shlex.split(command))
    assert code == 0
    assert _sha(out) == SCAN_COMMANDS[command]


def test_jets_dump():
    assert _sha(_jets_dump()) == JETS_DUMP


def test_maslov_forms():
    assert _sha(_maslov_forms_dump()) == MASLOV_FORMS_DUMP


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse wording differs between Python versions")
@pytest.mark.parametrize("command", sorted(HELP_PAGES))
def test_help_page(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out = _stdout(command.split() + ["--help"])
    assert code == 0
    assert _sha(out) == HELP_PAGES[command]
