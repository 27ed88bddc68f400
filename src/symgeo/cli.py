"""Command-line entry point.

Verb-noun subcommands over the library: maslov, mp1, jet, scan, bordism,
witt, selftest.  Output is canonical JSON by default (sorted keys, fixed
indentation) so identical argv + inputs + seed give byte-identical bytes;
--table prints flat key/value lines with the same scalar encoding, so
numbers round-trip between the two modes.

Exit codes: 0 success, 2 invalid input or unwritable output, 3 a property
check inside an audit subcommand failed, 64 usage error.  Every handler
ends by handing its payload and its check to ``_emit``, which writes the
output and picks 0 or 3.  Each handler imports the modules it uses, so
exact commands never load numpy.  Exact or float is picked here, once:
an exact frame becomes a ``LagrangianFrame``, a float one a (2n, n) array.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import chain
from math import comb, isfinite
from random import Random
from typing import TYPE_CHECKING, Sequence

from .jsonio import (APPROX, ValidationError, dumps, is_int, matrix_from_json,
                     parse_angle, parse_angle_list, to_jsonable)
from .linalg import DEFAULT_TOL, EXACT, Matrix, _rand_full_rank

if TYPE_CHECKING:
    from .jets import JetSignature
    from .metaplectic import Mp1Context, Mp1Element
    from .scan import SampledImmersion
    from .symplectic import SymplecticSpace

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CHECK_FAILED = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # usage problems exit 64, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(args, payload, ok: bool = True) -> int:
    """Write ``payload`` as JSON (``dumps`` ends it in a newline) or --table
    lines; the exit code is 0, or 3 when the handler's check ``ok`` failed."""
    table = getattr(args, "table", False)
    text = "\n".join(_table_lines(to_jsonable(payload))) if table else dumps(payload)
    try:
        print(text, end="\n" if table else "", flush=True)
    except OSError as exc:
        raise ValidationError(f"cannot write output: {exc}") from exc
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _table_lines(obj, prefix: str = "") -> list:
    if isinstance(obj, dict):
        lines = []
        for k in sorted(obj):
            lines.extend(_table_lines(obj[k], f"{prefix}{k}."))
        return lines
    if isinstance(obj, list) and any(isinstance(x, (dict, list)) for x in obj):
        lines = []
        for i, x in enumerate(obj):
            lines.extend(_table_lines(x, f"{prefix}{i}."))
        return lines
    key = prefix[:-1] if prefix.endswith(".") else prefix
    return [f"{key}: {json.dumps(obj)}"]


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _std_n(text: str) -> int:
    """The n of a ``std:n`` space, parsed without building the space."""
    if not text.startswith("std:"):
        raise ValidationError(f"space must look like std:n, got {text!r}")
    try:
        n = int(text[4:])
    except ValueError as exc:
        raise ValidationError(f"space must look like std:n, got {text!r}") from exc
    if n < 1:
        raise ValidationError("space size must be positive")
    return n


def _declared_space(obj: dict, fallback: str | None) -> SymplecticSpace | int:
    """The space of a tuple or context file: built from its explicit
    ``"omega"`` (as large as the file), else only the n it declares (its
    ``"n"``, else ``fallback``'s std:n), left for ``_space_for`` to build."""
    from .symplectic import SymplecticSpace
    if "omega" in obj and obj["omega"] is not None:
        return SymplecticSpace(matrix_from_json(obj["omega"], mode=EXACT))
    if "n" in obj:
        n = obj["n"]
        if not is_int(n) or n < 1:
            raise ValidationError("'n' must be a positive integer")
        return n
    if fallback:
        return _std_n(fallback)
    raise ValidationError("no symplectic space given (need 'n', 'omega' or --space)")


def _space_for(declared: SymplecticSpace | int, first) -> SymplecticSpace:
    """The ``_declared_space``, built as std:n only once the first frame has
    2n rows, so a declared n far past the file's frames builds no Omega;
    the refusal is the one that frame's check makes."""
    from .symplectic import SymplecticSpace
    if not isinstance(declared, int):
        return declared
    if (first.rows if isinstance(first, Matrix) else len(first)) != 2 * declared:
        raise ValidationError("frame rows must match the ambient dimension")
    return SymplecticSpace.standard(declared)


def _tol(args) -> float:
    return args.tol if args.tol is not None else DEFAULT_TOL


def _frames_from_file(args, path: str):
    """The space and the checked frames of a tuple file, each loaded and
    checked in turn: exact ones as ``LagrangianFrame``s, float ones as
    arrays."""
    from .symplectic import LagrangianFrame, float_lagrangian
    obj = _read_json(path)
    if not isinstance(obj, dict) or "frames" not in obj:
        raise ValidationError(f"{path} must be an object with a 'frames' list")
    declared = _declared_space(obj, args.space)
    n = declared if isinstance(declared, int) else declared.n
    std = args.space and _std_n(args.space)
    if std and (std != n or not isinstance(declared, int)
                and not declared.is_standard()):
        what = f"n = {n}" if n != std else "another omega"
        raise ValidationError(f"tuple file has {what} but space is std:{std}")
    frames = obj["frames"]
    if not isinstance(frames, list) or len(frames) < 1:
        raise ValidationError("'frames' must be a nonempty list of matrices")
    first = matrix_from_json(frames[0], args.mode)
    space = _space_for(declared, first)
    mats = chain([first], (matrix_from_json(f, args.mode) for f in frames[1:]))
    return space, [LagrangianFrame(space, m) if isinstance(m, Matrix)
                   else float_lagrangian(space, m, _tol(args)) for m in mats]


def _line_or_angle_frames(args):
    """The space and frames of ``--directions``, exact n = 1 lines, or else
    of ``--angles``, float angle frames of the standard space."""
    from .symplectic import SymplecticSpace, lagrangian_from_angles, line_lagrangian
    if args.directions:
        space = SymplecticSpace.standard(1)
        return space, [line_lagrangian(space, d) for d in _parse_direction_list(args)]
    groups = parse_angle_list(args.angles)
    n = len(groups[0])
    if any(len(g) != n for g in groups):
        raise ValidationError("every angle group must have the same length")
    if args.space and (std := _std_n(args.space)) != n:
        raise ValidationError(f"angle groups have {n} entries but space is std:{std}")
    space = SymplecticSpace.standard(n)
    return space, [lagrangian_from_angles(space, [a[0] for a in g], _tol(args))
                   for g in groups]


def _parse_direction_list(args) -> list:
    # directions are lines in the plane, so a given --space must be std:1
    if args.space and (n := _std_n(args.space)) != 1:
        raise ValidationError(f"directions are n=1 lines but space is std:{n}")
    out = []
    for part in args.directions.split(";"):
        comps = [c for c in part.strip().split(",") if c]
        if len(comps) != 2:
            raise ValidationError("each direction needs exactly two components")
        try:
            out.append((Fraction(comps[0]), Fraction(comps[1])))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad direction {part!r}") from exc
        if out[-1] == (0, 0):
            raise ValidationError("direction must be nonzero")
    if len(out) < 2:
        raise ValidationError("need at least two directions")
    return out


def _int_list(text: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc


# -- maslov ---------------------------------------------------------------------


def _quadratic_report(args, space: SymplecticSpace, frames) -> dict:
    """The index, dim T and the signature of q on T, exact unless no frame
    is; for a triple the index is also Wall's invariant (criterion 03)."""
    from .maslov import kashiwara_signature
    sig = kashiwara_signature(space, frames, _tol(args))
    return {
        "index": sig.pos - sig.neg,
        "t_dim": sig.dim,
        "signature": list(sig.as_tuple()),
        "r": len(frames),
        "n": space.n,
    }


def _cmd_maslov_kashiwara(args) -> int:
    if args.directions or args.angles:
        space, frames = _line_or_angle_frames(args)
        if args.directions and len(frames) < 3:
            raise ValidationError("need at least three directions")
    elif args.tuple:
        space, frames = _frames_from_file(args, args.tuple)
    else:
        raise ValidationError("give one of --angles, --directions or --tuple")
    if len(frames) < 3:
        raise ValidationError("need at least three Lagrangians")
    return _emit(args, _quadratic_report(args, space, frames))


def _cmd_maslov_arnold(args) -> int:
    from .maslov import kashiwara_index, kashiwara_index_float
    if not (args.directions or args.angles):
        raise ValidationError("give --angles or --directions")
    space, frames = _line_or_angle_frames(args)
    if len(frames) != 3:
        what = "directions" if args.directions else "angles"
        raise ValidationError(f"the triple index needs exactly three {what}")
    if args.directions:
        return _emit(args, {"index": kashiwara_index(frames), "mode": "exact"})
    return _emit(args, {"index": kashiwara_index_float(space, frames, _tol(args)),
                        "mode": "approx"})


def _cmd_maslov_wall(args) -> int:
    space, frames = _frames_from_file(args, args.tuple)
    if len(frames) != 3:
        raise ValidationError("the Wall invariant needs exactly three frames")
    return _emit(args, _quadratic_report(args, space, frames))


def _cmd_maslov_leray(args) -> int:
    from .maslov import LerayLift, leray_m
    lifts = []
    for token in args.lifts.split(","):
        val, frac = parse_angle(token)
        lifts.append(LerayLift(frac) if frac is not None else LerayLift(val))
    if len(lifts) < 2:
        raise ValidationError("need at least two lifts")
    tol = _tol(args)
    ms = [leray_m(lifts[i], lifts[(i + 1) % len(lifts)], tol)
          for i in range(len(lifts))]
    return _emit(args, {"m_values": ms, "cyclic_sum": sum(ms)})


# -- mp1 ------------------------------------------------------------------------


def _mp1_context(args) -> Mp1Context:
    from .metaplectic import Mp1Context
    from .symplectic import LagrangianFrame
    obj = _read_json(args.context)
    if not isinstance(obj, dict):
        raise ValidationError(f"{args.context} must be a JSON object")
    declared = _declared_space(obj, None)
    if "base" not in obj:
        raise ValidationError("context JSON needs a 'base' Lagrangian frame")
    base = matrix_from_json(obj["base"], mode=EXACT)
    space = _space_for(declared, base)
    return Mp1Context(space, LagrangianFrame(space, base))


def _mp1_element(ctx: Mp1Context, path: str) -> Mp1Element:
    from .metaplectic import Mp1Element
    obj = _read_json(path)
    if not isinstance(obj, dict) or "w" not in obj or "g" not in obj:
        raise ValidationError(f"{path} must be an object with 'w' and 'g'")
    if not is_int(obj["w"]):
        raise ValidationError("'w' must be an integer")
    return Mp1Element(ctx, obj["w"], matrix_from_json(obj["g"], mode=EXACT))


def _cmd_mp1_mul(args) -> int:
    from .metaplectic import mp1_mul
    ctx = _mp1_context(args)
    c = mp1_mul(_mp1_element(ctx, args.a), _mp1_element(ctx, args.b))
    return _emit(args, {"w": c.w, "g": c.g})


def _cmd_mp1_inverse(args) -> int:
    from .metaplectic import mp1_inverse
    c = mp1_inverse(_mp1_element(_mp1_context(args), args.a))
    return _emit(args, {"w": c.w, "g": c.g})


# -- jet ------------------------------------------------------------------------


def _jet_sig(args) -> JetSignature:
    from .jets import JetSignature
    return JetSignature(args.n, args.m, args.k)


def _cmd_jet_dims(args) -> int:
    from .jets import jet_dim, lambda_dim, model_dim, symbol_layer_dim
    sig = _jet_sig(args)
    return _emit(args, {
        "n": sig.n, "m": sig.m, "k": sig.k,
        "jet_dim": jet_dim(sig),
        "symbol_layer_dim": symbol_layer_dim(sig),
        "model_fiber_dim": model_dim(sig),
        "lambda_dim": lambda_dim(sig),
    })


def _cmd_jet_spencer_audit(args) -> int:
    from .jets import spencer_sequence_audit
    report = spencer_sequence_audit(_jet_sig(args))
    return _emit(args, report, report["exact"])


def _cmd_jet_lagrangian_pde(args) -> int:
    from .jets import lagrangian_pde_dims
    report = lagrangian_pde_dims(args.n, seed=args.seed)
    return _emit(args, report, report["verified"])


def _cmd_jet_legendrian_pde(args) -> int:
    from .jets import legendrian_pde_dims
    report = legendrian_pde_dims(args.n, seed=args.seed)
    return _emit(args, report, report["verified"] and report["cascade_sum_ok"])


def _cmd_jet_max_isotropic(args) -> int:
    from .jets import max_isotropic
    sig = _jet_sig(args)
    if not 0 <= args.p <= sig.n:
        raise ValidationError("p must satisfy 0 <= p <= n")
    if args.xi:
        xi = matrix_from_json(_read_json(args.xi), mode=EXACT)
        if xi.cols != args.p or xi.rows != sig.n:
            raise ValidationError(f"xi must be {sig.n} x {args.p}")
    else:
        xi = _rand_full_rank(Random(args.seed), sig.n, args.p)
    plane = max_isotropic(sig, xi)
    expected = sig.m * comb(args.p + sig.k - 1, sig.k) + sig.n - args.p
    payload = {
        "n": sig.n, "m": sig.m, "k": sig.k, "p": args.p,
        "dim": plane.dim,
        "expected_dim": expected,
        "xi": xi,
    }
    return _emit(args, payload, plane.dim == expected)


# -- scan -----------------------------------------------------------------------


def _load_immersion(args, path: str) -> SampledImmersion:
    from .scan import immersion_from_csv, immersion_from_json
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if path.lower().endswith(".csv"):
        shape = None
        if args.grid:
            parts = _int_list(args.grid)
            if len(parts) != 2:
                raise ValidationError("--grid must be 'rows,cols'")
            shape = (parts[0], parts[1])
        return immersion_from_csv(text, topology=args.topology, grid_shape=shape)
    return immersion_from_json(text)


def _scan_tol(args) -> float:
    from .scan import DEFAULT_SCAN_TOL
    return args.tol if args.tol is not None else DEFAULT_SCAN_TOL


def _scan_batch(args, runner) -> int:
    reports = [runner(_load_immersion(args, p)) for p in args.samples]
    # a batch fails its check when any sample's audit does
    return _emit(args, reports[0] if len(reports) == 1 else {"batch": reports},
                 all(r.get("pass", True) for r in reports))


def _scan_at_std(args, audit, loop: bool = False) -> int:
    """``audit(s, space, tol)`` of every sample at the ``--space`` std:N.  N
    is parsed before any file is read, and each sample is checked against
    N, as the audit would, before ``SymplecticSpace.standard(N)`` is built:
    a mismatched N is refused without its 2N x 2N Omega."""
    from .scan import _check_space_n
    from .symplectic import SymplecticSpace
    n = _std_n(args.space)
    tol = _scan_tol(args)

    def runner(s):
        _check_space_n(s, n, loop)
        return audit(s, SymplecticSpace.standard(n), tol)

    return _scan_batch(args, runner)


def _cmd_scan_lagrangian(args) -> int:
    from .scan import check_lagrangian
    return _scan_at_std(args, check_lagrangian)


def _cmd_scan_corank(args) -> int:
    from .scan import corank_profile
    tol = _scan_tol(args)
    slots = _int_list(args.fiber_slots) if args.fiber_slots else None
    return _scan_batch(args, lambda s: corank_profile(s, tol=tol, fiber_slots=slots))


def _cmd_scan_loop_maslov(args) -> int:
    from .scan import loop_maslov
    return _scan_at_std(
        args, lambda s, space, tol: {"degree": loop_maslov(s, space, tol)}, loop=True)


def _chi_coeff(text: str) -> float:
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"bad --chi-coeffs entry {text!r}") from exc


def _cmd_scan_legendrian(args) -> int:
    from .scan import ChiSpec, check_legendrian, reeb_field
    tol = _scan_tol(args)

    def runner(s):
        if s.ambient_dim < 3 or s.ambient_dim % 2 == 0:
            raise ValidationError(
                "legendrian checks need odd ambient dimension 2n+1 >= 3")
        n = (s.ambient_dim - 1) // 2
        coeffs = None
        if args.chi_coeffs:
            coeffs = tuple(_chi_coeff(x) for x in args.chi_coeffs.split(","))
        chi = ChiSpec(n=n, scale=args.chi_scale, y_coeffs=coeffs)
        report = check_legendrian(s, chi=chi, tol=tol)
        if args.reeb:
            report["reeb"] = reeb_field(chi, s)
        return report

    return _scan_batch(args, runner)


# -- bordism --------------------------------------------------------------------


def _cmd_bordism_weak(args) -> int:
    from .bordism import weak_bordism_group
    return _emit(args, weak_bordism_group(_int_list(args.betti), args.n,
                                          label=args.label))


def _cmd_bordism_gsingular(args) -> int:
    from .bordism import g_singular_bordism
    return _emit(args, g_singular_bordism(_int_list(args.homology), args.degree))


def _cmd_bordism_split_check(args) -> int:
    from .bordism import split_check
    ok = split_check(args.closed, args.bor, args.cyc)
    return _emit(args, {"consistent": ok, "closed": args.closed,
                        "bor": args.bor, "cyc": args.cyc})


# -- witt -----------------------------------------------------------------------


def _witt_form(args) -> Matrix:
    if args.diag:
        entries = []
        for tok in args.diag.split(","):
            try:
                entries.append(Fraction(tok))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"bad diagonal entry {tok!r}") from exc
        return Matrix.diagonal(entries)
    if args.form:
        return matrix_from_json(_read_json(args.form), mode=EXACT)
    raise ValidationError("give --diag or --form")


def _cmd_witt_class(args) -> int:
    from .witt import witt_of_form_complex, witt_of_form_real
    witt = witt_of_form_complex if args.field == "C" else witt_of_form_real
    return _emit(args, {"field": args.field, "witt": witt(_witt_form(args))})


def _cmd_witt_ideal(args) -> int:
    from .witt import ideal_power_member_real
    member = ideal_power_member_real(args.value, args.k)
    return _emit(args, {"value": args.value, "k": args.k, "member": member})


# -- selftest -------------------------------------------------------------------


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    report = run_selftest(seed=args.seed, quick=args.quick)
    return _emit(args, report, report["all_passed"])


# -- parser ---------------------------------------------------------------------


_INT_REQUIRED = {"type": int, "required": True}
_SIGNATURE = [(flag, _INT_REQUIRED) for flag in ("--n", "--m", "--k")]
_SEED = ("--seed", {"type": int, "default": 0})


def _scan_args(need_space: bool) -> list:
    space = [("--space", {"required": True, "help": "std:n"})] if need_space else []
    return space + [
        ("--samples", {"nargs": "+", "required": True,
                       "help": "JSON or CSV sample files"}),
        ("--topology", {"default": "line", "choices": ("line", "loop", "grid"),
                        "help": "CSV only; JSON files carry their own"}),
        ("--grid", {"help": "rows,cols for CSV grids"}),
    ]


# noun -> (help, {verb -> (handler, argument specs)}), or (help, (handler,
# argument specs)) for a noun without verbs; an argument spec is
# (flag, add_argument keywords).  Order here is order in --help.
_COMMANDS = {
    "maslov": ("Lagrangian tuple indices", {
        "kashiwara": (_cmd_maslov_kashiwara, [
            ("--space", {"help": "std:n"}),
            ("--angles", {"help": "semicolon-separated groups of "
                                  "comma-separated angles"}),
            ("--directions", {"help": "n=1 lines as 'p,q;p,q;...' rational "
                                      "directions (exact)"}),
            ("--tuple", {"help": "JSON file with 'frames'"}),
        ]),
        "arnold": (_cmd_maslov_arnold, [
            ("--space", {"help": "std:n"}), ("--angles", {}), ("--directions", {}),
        ]),
        "wall": (_cmd_maslov_wall, [
            ("--space", {"help": "std:n"}),
            ("--tuple", {"required": True, "help": "JSON file with 3 frames"}),
        ]),
        "leray": (_cmd_maslov_leray, [
            ("--lifts", {"required": True,
                         "help": "comma-separated lifted angles; 'p/qpi' stays exact"}),
        ]),
    }),
    "mp1": ("metaplectic group elements", {
        "mul": (_cmd_mp1_mul, [
            ("--context", {"required": True, "help": "JSON with n/omega and base"}),
            ("--a", {"required": True}), ("--b", {"required": True}),
        ]),
        "inverse": (_cmd_mp1_inverse, [
            ("--context", {"required": True}), ("--a", {"required": True}),
        ]),
    }),
    "jet": ("jet space dimension calculus", {
        "dims": (_cmd_jet_dims, _SIGNATURE),
        "spencer-audit": (_cmd_jet_spencer_audit, _SIGNATURE),
        "lagrangian-pde": (_cmd_jet_lagrangian_pde, [("--n", _INT_REQUIRED), _SEED]),
        "legendrian-pde": (_cmd_jet_legendrian_pde, [("--n", _INT_REQUIRED), _SEED]),
        "max-isotropic": (_cmd_jet_max_isotropic, _SIGNATURE + [
            ("--p", _INT_REQUIRED),
            ("--xi", {"help": "JSON matrix, n x p, exact"}),
            _SEED,
        ]),
    }),
    "scan": ("sampled immersion checks", {
        "lagrangian": (_cmd_scan_lagrangian, _scan_args(True)),
        "corank": (_cmd_scan_corank, _scan_args(False) + [
            ("--fiber-slots", {"help": "comma-separated ambient coordinates "
                                       "to project out"}),
        ]),
        "loop-maslov": (_cmd_scan_loop_maslov, _scan_args(True)),
        "legendrian": (_cmd_scan_legendrian, _scan_args(False) + [
            ("--chi-scale", {"type": float, "default": 1.0}),
            ("--chi-coeffs", {"help": "comma-separated coefficients of the "
                                      "contact form"}),
            ("--reeb", {"action": "store_true",
                        "help": "include the Reeb field samples in the report"}),
        ]),
    }),
    "bordism": ("bordism group arithmetic", {
        "weak": (_cmd_bordism_weak, [
            ("--betti", {"required": True, "help": "comma-separated mod-2 betti"}),
            ("--n", _INT_REQUIRED),
            ("--label", {"default": "lagrangian",
                         "choices": ("lagrangian", "legendrian")}),
        ]),
        "gsingular": (_cmd_bordism_gsingular, [
            ("--homology", {"required": True,
                            "help": "comma-separated ranks of H_d(W; Z2)"}),
            ("--degree", _INT_REQUIRED),
        ]),
        "split-check": (_cmd_bordism_split_check, [
            ("--closed", _INT_REQUIRED), ("--bor", _INT_REQUIRED),
            ("--cyc", _INT_REQUIRED),
        ]),
    }),
    "witt": ("Witt classes of symmetric forms", {
        "class": (_cmd_witt_class, [
            ("--diag", {"help": "comma-separated diagonal"}),
            ("--form", {"help": "JSON matrix file"}),
            ("--field", {"default": "R", "choices": ("R", "C")}),
        ]),
        "ideal": (_cmd_witt_ideal, [
            ("--value", _INT_REQUIRED), ("--k", _INT_REQUIRED),
        ]),
    }),
    "selftest": ("run the built-in invariant suites", (_cmd_selftest, [
        _SEED, ("--quick", {"action": "store_true"}),
    ])),
}


def _add_command(parser, fn, specs) -> None:
    for flag, kwargs in specs:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(fn=fn)


def _common_flags(defaults: bool = True) -> argparse.ArgumentParser:
    """The output, mode and tolerance flags.  A verb's copy is built with
    ``defaults=False``: its flags default to ``SUPPRESS``, so a flag given
    between the noun and the verb keeps the value the noun's parser read."""
    def default(value):
        return value if defaults else argparse.SUPPRESS

    common = _Parser(add_help=False)
    out = common.add_mutually_exclusive_group()
    out.add_argument("--json", dest="table", action="store_false",
                     default=default(False), help="JSON output (default)")
    out.add_argument("--table", dest="table", action="store_true",
                     default=default(False), help="flat key/value output")
    mode = common.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="mode", action="store_const", const=EXACT,
                      default=default(None),
                      help="force exact rational matrix inputs")
    mode.add_argument("--approx", dest="mode", action="store_const", const=APPROX,
                      default=default(None), help="force float matrix inputs")
    common.add_argument("--tol", type=float, default=default(None),
                        help="tolerance (default 1e-9 algebraic, 1e-6 scan)")
    return common


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for ``argv``.  Every noun and verb name is registered, so
    usage, choices and help pages are whole; only the first noun named in
    ``argv`` and the first of its verbs named after it, the only parsers
    argparse can reach, get their arguments and the common flags."""
    argv = list(argv)
    at = next((i for i, arg in enumerate(argv) if arg in _COMMANDS), None)
    chosen = argv[at] if at is not None else None
    common = [_common_flags()] if chosen else []
    parser = _Parser(prog="symgeo", description=__doc__.splitlines()[0])
    nouns = parser.add_subparsers(dest="noun", required=True, parser_class=_Parser)
    for noun, (help_text, body) in _COMMANDS.items():
        live = noun == chosen
        noun_parser = nouns.add_parser(noun, help=help_text,
                                       parents=common if live else [])
        if isinstance(body, tuple):
            if live:
                _add_command(noun_parser, *body)
            continue
        verbs = noun_parser.add_subparsers(dest="verb", required=True,
                                           parser_class=_Parser)
        verb = (next((arg for arg in argv[at + 1:] if arg in body), None)
                if live else None)
        for name, (fn, specs) in body.items():
            if name == verb:
                verb_parser = verbs.add_parser(
                    name, parents=[_common_flags(defaults=False)])
                _add_command(verb_parser, fn, specs)
            else:
                verbs.add_parser(name)
    return parser


def _check_positive_flags(args) -> None:
    for flag in ("tol", "chi_scale"):
        value = getattr(args, flag, None)
        if value is not None and not (isfinite(value) and value > 0):
            raise ValidationError(f"--{flag.replace('_', '-')} must be finite "
                                  f"and positive, got {value!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        _check_positive_flags(args)
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
