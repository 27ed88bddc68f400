"""Golden bytes: sha256 pins of the selftest reports, the stdout of every
README command and of each other CLI verb, every ``--help`` page and seeded
dumps of the jets layer, the Lagrangian graph audit and the Kashiwara-type
forms; the Legendrian graph audit's reports for n = 1..10; and the values
the README's library example states.

A refactor keeps these hashes; a change that means to move them updates
them in the same commit.  Help pages follow argparse's wording, so they are
pinned for Python 3.11 at 80 columns.
"""

import ast
import contextlib
import hashlib
import io
import json
import math
import shlex
import sys
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest

from symgeo.cli import main
from symgeo.jets import (JetSignature, lambda_basis, max_isotropic,
                         metasymplectic_eval)
from symgeo.jets.metasymplectic import (flatten, meta_orthogonal_frame,
                                        model_dim, unflatten)
from symgeo.jets.pde_audit import (_jacobian, _LagrangianInstance,
                                   lagrangian_pde_dims, legendrian_pde_dims)
from symgeo.jsonio import dumps, matrix_to_json
from symgeo.linalg import Matrix, _rand_full_rank, inverse, sym_signature
from symgeo.maslov import (LagrangianTuple, kashiwara_signature,
                           kashiwara_space, wall_invariant)
from symgeo.selftest import run_selftest
from symgeo.symplectic import (LagrangianFrame, SymplecticSpace,
                               random_lagrangian, random_symplectic,
                               standard_gram)
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
        "5a280a0e7eda42b9d6b1602db32de008f76355e9023ed2f0dae2a02f1b2b76b3",
    'maslov kashiwara --directions "1,0;1,1;0,1"':
        "5a280a0e7eda42b9d6b1602db32de008f76355e9023ed2f0dae2a02f1b2b76b3",
    'maslov leray --lifts "0,1/3pi,2/3pi"':
        "43a252fec4f11ca12e642bfedcfae686cb9a3144476c3642dc4e9eba64d806e3",
    "jet dims --n 2 --m 1 --k 2":
        "03e3d6707fac28f01939fee7fdc43118af91e167c49249ac128f89628098cd6b",
    "jet spencer-audit --n 2 --m 1 --k 2 --table":
        "53fa54d9345db854ae6daaffd84f7da0b65d6b0f6f9c5e6a1ffaf78cd91cb6bc",
    "jet lagrangian-pde --n 2":
        "d6eb8aa772c977eeb4c5b4188cd804ea3884c0a8b042c9f6a185bac598e193b8",
    "scan lagrangian --space std:1 --samples circle.json":
        "180769c227f06cce486e0ff3498c149ff7b19c8ada0855177d83492b481acddd",
    "scan loop-maslov --space std:1 --samples circle.json":
        "51aabbfec6a27c60d14fa133ce5ae0da9128afa966d156c920c959c25f29f0bd",
    "scan legendrian --samples lift.csv --reeb":
        "dcaede55cc964c59370ca3e81509c2b2d57da4aacba052c173a5bde2cda6cc91",
    "bordism weak --betti 1,0,0 --n 4":
        "30b24e9a54707121fee3ebd6c3ec5b948ea455f582f557dfe17bc7373870e9e8",
    "witt class --diag 1,1,-1":
        "1aff80e076f067715de824982f1f5a5e58306c5fa52b7de0269c590215838a38",
    "selftest --quick --seed 0":
        "314a30a7416b16c822ad697bb869e766d7ff0633d967281c66c8100ba7caca01",
}

# scan commands on sample files the README does not show: a grid and an
# n = 2 loop with analytic frames
SCAN_COMMANDS = {
    "scan corank --samples torus.json":
        "be4ef719729b66373168c4ee4020495c7649b814daf71fe66a4c2787be47b6fb",
    "scan lagrangian --space std:2 --samples torus.json":
        "b1eace3d4eed36a6a68c090a1025b8ac6459cb1fd762e8c231c3f2b4fdf75e2f",
    "scan loop-maslov --space std:2 --samples loop4.json":
        "9a7befad4593fdf75aaf6e38602674a23f8485386ed07d2a0affe8b427335992",
}

# mp1 products and inverses on the files ``_write_mp1_samples`` makes: the
# standard n = 2 space with the vertical base, and a rational Omega with a
# non-vertical base
MP1_COMMANDS = {
    "mp1 mul --context std.json --a a.json --b b.json":
        "a2fc6c31c64099d4d27e8f486e2803e198c5701bbf3c6722730c9dacf5045476",
    "mp1 inverse --context std.json --a a.json":
        "ea37f7349700fd1fca9fa4695e5c4b79eaa70e51db019e980776d81416069f18",
    "mp1 mul --context custom.json --a c.json --b d.json":
        "e6b539bfdf5f67cc3014853b3ac4a5fc96e7d3c41b8be227ded4443e198b66a8",
    "mp1 inverse --context custom.json --a c.json":
        "54a05ed3c88c4bc3965a9c21b8cda542e7de49b5565ac56bfe8e63ad4d142af9",
}

# jet commands beyond the README: isotropic planes from a seeded and from a
# rational Xi (the ``xi.json`` that ``_write_jet_samples`` makes), and the
# Spencer audit at two larger signatures
JET_COMMANDS = {
    "jet max-isotropic --n 3 --m 2 --k 2 --p 2 --seed 5":
        "7e10234c2f705b2219e440cdcab88b8140ba2c4d93e9d41da1e6533bd354015c",
    "jet max-isotropic --n 3 --m 1 --k 3 --p 2 --xi xi.json":
        "e65da4405c173c6423a312fe67e37288be27ffb57a92bb92aa28a50fd1b072f4",
    "jet spencer-audit --n 3 --m 2 --k 3":
        "d14ff16d884b8e6c67c6658fefcc4a73f486d6e2a42aa6060fbe674107441ccb",
    "jet spencer-audit --n 4 --m 1 --k 3 --table":
        "a2e5c64734229904fe3807b2d1dcb8bba6a7935ae0c42c3490dcc6fd923be25a",
}

# commands no other table covers: Arnold triples, Wall and Kashiwara on
# tuple files (``_write_tuple_samples``), the Legendrian PDE audit, the
# bordism and Witt verbs, and one of them as --table
MORE_COMMANDS = {
    'maslov arnold --directions "1,0;1,1;0,1"':
        "5ef34bb206ce003c2272a3020418b6ab0355621380bd575293274a9fdbb8e8b8",
    'maslov arnold --angles "0;1/3pi;2/3pi"':
        "eb769dfc7fcbb4f4389baacbee61c14f844c6fbc538eb2ddff9e574a8c8edb6d",
    "maslov wall --tuple triple.json":
        "a88688f9332afa91040e87eb29daee2e4fc4e983dfc9d6250d0bb5e591c84c9d",
    "maslov kashiwara --tuple quad.json":
        "b4031cabb1fd31a6ef5947a566c3c1a7588c31b4204a5c0d5dde2c8a860bfb98",
    "maslov kashiwara --tuple quad.json --approx":
        "b4031cabb1fd31a6ef5947a566c3c1a7588c31b4204a5c0d5dde2c8a860bfb98",
    "jet legendrian-pde --n 2 --seed 3":
        "649dcf007f46e55ba79c34c09b5354006b8e551514eeac28c4feda56fae8389e",
    "bordism gsingular --homology 1,2,3 --degree 1":
        "5cd9f66d1e972ddbb1192b11f78c6921072cb9215db961be933426c65ecb4e95",
    "bordism split-check --closed 1 --bor 3 --cyc 2":
        "724899e9c3172502bce9b455bb3533640c33892995d970fca21529694f56237c",
    "bordism weak --betti 1 --n 9":
        "1fdc209f3bf2d4e9ea0910189d916ebbecc6305c4027524696e880abfa5324d5",
    "bordism weak --betti 1,1,0,0,1 --n 5 --label legendrian":
        "7a5c24f41c520064187b19840d5b3e8cc45de4060ab77474aed825a135ba4a40",
    "bordism weak --betti 1,1,0,0,1 --n 5 --label legendrian --table":
        "cab2b99549308babd7817ba5990ad456fb4463c1c3a174aa7256e7b6703ae4e0",
    "witt class --form form.json --field C":
        "4821e0ffbda895f931173b848ed3df5ab15f2dbf7dc8c39f7ebef6b07c50032f",
    "witt ideal --value 4 --k 2":
        "409ebc660e3d8ebae81f9d6fdb013ccf65f67200311a5a2a9775b72311573084",
}

JETS_DUMP = (
    "f2eee5ad98f405fa087d0042607a1f0e69ea22ae336e6f97b4111ba1f4f6553f")
JETS_SIGNATURES = ((1, 1, 2), (2, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2),
                   (3, 1, 2), (2, 1, 3), (1, 2, 3))

PDE_DUMP = (
    "bb7d8cb8fed18086e35f23d801e8a1d82cb4b5199ac4c4162c484ad07cda290c")

MASLOV_FORMS_DUMP = (
    "3e25a8123ae108456597c607b7246f906096cf0f35abcfc73dd98a873db5cf53")

# sha256 of dumps(legendrian_pde_dims(n, seed)) for n = 1..10, seeds 0..2
LEGENDRIAN_REPORTS = {
    (1, 0): "f2b5207c391503e2c6f93443236ea2b06b28ca32c291bb793cf10bd19dd474cb",
    (1, 1): "218d435855af25698dd127c4bc5c8b11a39d93be9199f3889a46e270a66d2b67",
    (1, 2): "c0d3b86100ca7d895bcb93fabf667403a87c279bc23ca0ef2e85d07d2b76bdf7",
    (2, 0): "97e6c929a038063315be8024f3b7c12bd76bc002ad86086b97f17365f241d665",
    (2, 1): "42b96ba972e9fc7842204a2236f69cc9c51b8b99d0fc2cb4daf3b592209df5b8",
    (2, 2): "5225662a8c8f728b8125344a040b66b009d8e07122321c1fddd2942e759a8f3e",
    (3, 0): "2d6511894a1a5338e94a2dde42570e0002c65c33abeac872d3e4e64f4898cda4",
    (3, 1): "77dbd573e9d0654ac780c9b5c9eb389c14323134fe098900fb57d0f192318be4",
    (3, 2): "f8004813836336ba45829049ecd3c61ab7fa41d96c5549dde0ef3ce600908a26",
    (4, 0): "98d8070cf5216c8bb439210d64e956c5bdf9e3c71bce16d7e2bb5c9de57405f4",
    (4, 1): "b90526a6a0c1a612fb921861555b5806ae93d300c8235b275015cd687b408939",
    (4, 2): "f41ee660cfa225fb05e99528823ed113dcf32548e1e8d8c3d282bd8464908781",
    (5, 0): "632276d2070386acc7b72a9514112ed46f3692da07fbebfbdf3edd9a00378304",
    (5, 1): "e0d1d911ec312d81fe50108a29ace348c72efc132aedb1875209f9538da12072",
    (5, 2): "6407f7af3efa88d4b48c43b81f332f2697513d105d25516be73a12ef4cf1226e",
    (6, 0): "5c54a7ed08ae4cd3ea22d75f958f6e641c2d424e91f31425229fa1525745b2d7",
    (6, 1): "5e87d9fe042414f472fb1e2fafc01cd710c93126d8f340cb2b43172099bc84f7",
    (6, 2): "38dd8a718630c076d568c1b084e4452e1bd04b50723832f72541168cf45c6022",
    (7, 0): "1caf2ba6f408d6c5cf4938cbf9a7baed4a2a5a273c7abe502277391bdbdfd49e",
    (7, 1): "fd2785acc724aadf1cb3972e77f81fedb7923b9ae8721ce8c138cea428a18703",
    (7, 2): "90d729c57a9752be60d301bae1787e10944626ecb1a2bb2f4eb54a628b691d38",
    (8, 0): "62bc25195c06ac0750dc8b4d357c30f1565bc7286e121d24757a46502a8dd4f1",
    (8, 1): "6353b542c17bb6a0a02546a0fc8f3b402cce6e94a3733336c8297f696c43d905",
    (8, 2): "223ccec8f835332b73191681bb299281b67e17c1150baf773ed099e5347ed8d5",
    (9, 0): "cfc7f5c85f98847d2035081a816feb743a4525bbb5d33973e696a793b381d93c",
    (9, 1): "a5dd61d45633ec8a888e6bf3dab0e8cffa4f3f4f46d2ae19be72acc5214e712b",
    (9, 2): "1e3a3221f81eda7ea133c07ecf9b69cfcee07aaa60f654010088ff49abaed8ed",
    (10, 0): "3a084b10be518f2180009b182115a3c3fdccbb691cca495f74e7e6c6ebba765b",
    (10, 1): "52cb503c9d6c3585f0f302772f68026e96137a2a012fe2f69b11a8f7f40846e7",
    (10, 2): "0752f9deb875c5271e1233e4a7937afae2a9cd43fd60d60d8387dfa96004a0c0",
}

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
        "d8971033c66177daea7913eff8a9e350e1f5460687b1eed682990295281af894",
    "bordism gsingular":
        "b506dd1e83e12d914aaef0645552bc15c93cfcfda2d63887ff8942686a10e070",
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


def _write_mp1_samples(directory) -> None:
    """``std.json`` (n = 2, vertical base) with elements ``a.json`` and
    ``b.json``; ``custom.json`` (Omega = 2/3 A^T J A, base A^-1 L for a
    random standard Lagrangian L) with elements ``c.json`` and ``d.json``."""
    rng = Random("golden:mp1")
    std = SymplecticSpace.standard(2)
    a = _rand_full_rank(rng, 4, 4)
    custom = SymplecticSpace((a.T @ standard_gram(2) @ a).scale(F(2, 3)))
    base = inverse(a) @ random_lagrangian(std, rng).frame
    vertical = Matrix.zeros(2, 2).vstack(Matrix.identity(2))
    files = {"std.json": {"n": 2, "base": matrix_to_json(vertical)},
             "custom.json": {"omega": matrix_to_json(custom.omega),
                             "base": matrix_to_json(base)}}
    for name, space in (("a.json", std), ("b.json", std),
                        ("c.json", custom), ("d.json", custom)):
        g = random_symplectic(space, rng, transvections=4)
        files[name] = {"w": rng.randint(-3, 3), "g": matrix_to_json(g)}
    for name, obj in files.items():
        (directory / name).write_text(json.dumps(obj))


def _write_jet_samples(directory) -> None:
    """``xi.json``: a rational 3 x 2 covector frame of rank 2."""
    (directory / "xi.json").write_text(json.dumps({
        "rows": 3, "cols": 2,
        "entries": ["1/2", "-2/3", "0", "3/4", "5/3", "-1"]}))


def _write_tuple_samples(directory) -> None:
    """``triple.json`` (Omega = 2J on R^4, three frames) and ``quad.json``
    (std:2, four frames): the vertical and horizontal planes and graphs of
    symmetric matrices; and ``form.json`` (a rational 3 x 3 symmetric
    form)."""
    def graph(s11, s12, s22) -> dict:
        return {"rows": 4, "cols": 2, "entries": [1, 0, 0, 1, s11, s12, s12, s22]}

    vertical = {"rows": 4, "cols": 2, "entries": [0, 0, 0, 0, 1, 0, 0, 1]}
    horizontal = graph(0, 0, 0)
    twice_j = matrix_to_json(standard_gram(2).scale(2))
    files = {
        "triple.json": {"omega": twice_j, "frames": [
            vertical, horizontal, graph("1", "1/2", "2")]},
        "quad.json": {"n": 2, "frames": [
            vertical, graph("1/3", 0, 1), horizontal, graph(-1, "2/5", "-3")]},
        "form.json": {"rows": 3, "cols": 3,
                      "entries": [2, "1/2", 0, "1/2", -1, 3, 0, 3, "5/7"]},
    }
    for name, obj in files.items():
        (directory / name).write_text(json.dumps(obj))


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


def _pde_dump() -> str:
    """On-locus points, exact Jacobian entries and dimension reports of the
    Lagrangian graph audit for n = 1..3 and seeds 0..4."""
    lines = []
    for n in range(1, 4):
        for seed in range(5):
            inst = _LagrangianInstance(n, Random(seed))
            point = inst.point()
            jac = _jacobian(inst.equations, point)
            lines.append(f"point n={n} seed={seed} "
                         + " ".join(str(x) for x in point))
            lines.append("jacobian " + "; ".join(" ".join(str(x) for x in row)
                                                 for row in jac.entries))
            lines.append("report " + dumps(lagrangian_pde_dims(n, seed)))
    return "\n".join(lines)


def _maslov_forms_dump() -> str:
    """Exact Gram entries, dims and signatures of ``kashiwara_space``, the
    dims and signatures of float copies by ``kashiwara_signature``, and the
    exact Wall value and float index of the first three members, for 48
    seeded tuples over n = 1..4, r = 3..5."""
    rng = Random("golden:maslov-forms")
    lines = []
    for n in range(1, 5):
        sp = SymplecticSpace.standard(n)
        for _ in range(12):
            ls = _rand_tuple(rng, sp, rng.randint(3, 5))
            floats = [l.frame.to_numpy() for l in ls]
            g = kashiwara_space(LagrangianTuple.of(*ls))
            fsig = kashiwara_signature(sp, floats)
            gram = "; ".join(" ".join(str(x) for x in row) for row in g.entries)
            lines.append(f"space n={n} r={len(ls)} dim={g.rows} "
                         f"sig={sym_signature(g).as_tuple()} gram={gram}")
            lines.append(f"float dim={fsig.dim} sig={fsig.as_tuple()}")
            triple = kashiwara_signature(sp, floats[:3])
            lines.append(f"wall {wall_invariant(*ls[:3])} {triple.pos - triple.neg}")
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


def test_readme_library_block():
    """The README's library example runs, and each expression it shows
    evaluates to the int its comment states."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = block.splitlines()
    scope: dict = {}
    shown = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"),
                         scope)
            shown.append((lines[node.lineno - 1].split("#", 1)[1].strip(), value))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), scope)
    assert shown == [("1", 1), ("Witt class 0", 0)]
    assert [type(value) for _, value in shown] == [int, int]


@pytest.mark.parametrize("command", sorted(SCAN_COMMANDS))
def test_scan_command(command, tmp_path, monkeypatch):
    _write_scan_samples(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out = _stdout(shlex.split(command))
    assert code == 0
    assert _sha(out) == SCAN_COMMANDS[command]


@pytest.mark.parametrize("command", sorted(MP1_COMMANDS))
def test_mp1_command(command, tmp_path, monkeypatch):
    _write_mp1_samples(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out = _stdout(shlex.split(command))
    assert code == 0
    assert _sha(out) == MP1_COMMANDS[command]


@pytest.mark.parametrize("command", sorted(JET_COMMANDS))
def test_jet_command(command, tmp_path, monkeypatch):
    _write_jet_samples(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out = _stdout(shlex.split(command))
    assert code == 0
    assert _sha(out) == JET_COMMANDS[command]


@pytest.mark.parametrize("command", sorted(MORE_COMMANDS))
def test_more_command(command, tmp_path, monkeypatch):
    _write_tuple_samples(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out = _stdout(shlex.split(command))
    assert code == 0
    assert _sha(out) == MORE_COMMANDS[command]


def test_jets_dump():
    assert _sha(_jets_dump()) == JETS_DUMP


def test_pde_dump():
    assert _sha(_pde_dump()) == PDE_DUMP


def test_maslov_forms():
    assert _sha(_maslov_forms_dump()) == MASLOV_FORMS_DUMP


def test_legendrian_reports():
    got = {key: _sha(dumps(legendrian_pde_dims(*key)))
           for key in LEGENDRIAN_REPORTS}
    assert got == LEGENDRIAN_REPORTS


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse wording differs between Python versions")
@pytest.mark.parametrize("command", sorted(HELP_PAGES))
def test_help_page(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out = _stdout(command.split() + ["--help"])
    assert code == 0
    assert _sha(out) == HELP_PAGES[command]
