"""Pointwise audits of sampled immersions: isotropy residuals, corank
strata of the base projection, loop winding indices, and contact-form
checks.

Samples carry explicit grid topology (line, loop, or rectangular grid);
tangent frames default to central finite differences on the parameter
grid, and analytic frames, when provided, take precedence.  Corank
decisions threshold singular values of the projected frame against the
largest singular value of the full frame, so complete collapse at a
sample is still classified.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .jsonio import ValidationError
from .linalg import DEFAULT_TOL, Matrix
from .symplectic import LagrangianFrame, SymplecticSpace, loop_degree

DEFAULT_SCAN_TOL = 1e-6
NEAR_SINGULAR_BAND = 10.0

_TOPOLOGIES = ("line", "loop", "grid")


def _stencil_derivative(ts, fs, te):
    """Derivative at te of the quadratic through (ts[i], fs[i]), i = 0..2.

    Second order on any spacing; exact whenever the sampled coordinates
    are polynomials of degree <= 2 in the parameter.
    """
    t0, t1, t2 = float(ts[0]), float(ts[1]), float(ts[2])
    if t0 == t1 or t1 == t2 or t0 == t2:
        raise ValidationError("degenerate parameter spacing")
    te = float(te)
    w0 = (2.0 * te - t1 - t2) / ((t0 - t1) * (t0 - t2))
    w1 = (2.0 * te - t0 - t2) / ((t1 - t0) * (t1 - t2))
    w2 = (2.0 * te - t0 - t1) / ((t2 - t0) * (t2 - t1))
    return w0 * np.asarray(fs[0]) + w1 * np.asarray(fs[1]) + w2 * np.asarray(fs[2])


@dataclass
class SampledImmersion:
    """An ordered grid of samples of an immersion, with declared topology."""

    param_dim: int
    ambient_dim: int
    topology: str
    params: list
    points: list
    frames: list | None = None
    grid_shape: tuple | None = None

    def __post_init__(self):
        if self.topology not in _TOPOLOGIES:
            raise ValidationError(f"unknown topology {self.topology!r}")
        if self.param_dim < 1 or self.ambient_dim <= self.param_dim:
            raise ValidationError("need 1 <= param_dim < ambient_dim")
        try:
            self.params = [tuple(map(float, p)) for p in self.params]
            self.points = [tuple(map(float, p)) for p in self.points]
        except OverflowError as exc:
            raise ValidationError("sample value overflows a float") from exc
        if not all(map(math.isfinite, chain.from_iterable(self.params + self.points))):
            raise ValidationError("sample values must be finite")
        if len(self.params) != len(self.points):
            raise ValidationError("params and points must pair up")
        if any(len(p) != self.param_dim for p in self.params):
            raise ValidationError("parameter width mismatch")
        if any(len(p) != self.ambient_dim for p in self.points):
            raise ValidationError("ambient width mismatch")
        for a, b in zip(self.points, self.points[1:]):
            if a == b:
                raise ValidationError("consecutive samples must be distinct")
        if self.topology == "grid":
            if self.param_dim != 2:
                raise ValidationError("grid topology needs param_dim = 2")
            if self.grid_shape is None:
                raise ValidationError("grid topology needs grid_shape")
            self.grid_shape = (int(self.grid_shape[0]), int(self.grid_shape[1]))
            if self.grid_shape[0] * self.grid_shape[1] != len(self.points):
                raise ValidationError("grid_shape does not match sample count")
        elif self.param_dim != 1:
            raise ValidationError(f"{self.topology} topology needs param_dim = 1")
        if self.topology == "loop" and len(self.points) < 3:
            raise ValidationError("a loop needs at least 3 samples")
        if self.frames is not None:
            try:
                self.frames = [np.asarray(f, dtype=float) for f in self.frames]
            except OverflowError as exc:
                raise ValidationError("frame entries overflow a float") from exc
            if not all(np.isfinite(f).all() for f in self.frames):
                raise ValidationError("frame entries must be finite")
            if len(self.frames) != len(self.points):
                raise ValidationError("one frame per sample required")
            # analytic frames may span a plane wider than the sampled path
            width = self.frames[0].shape[1] if self.frames[0].ndim == 2 else 0
            for f in self.frames:
                if f.ndim != 2 or f.shape != (self.ambient_dim, width) \
                        or width < self.param_dim:
                    raise ValidationError("frame shape mismatch")

    def __len__(self) -> int:
        return len(self.points)

    def tangent_frames(self) -> list:
        """Analytic frames if given, else finite-difference frames; a
        difference that overflows a float is refused."""
        if self.frames is not None:
            return list(self.frames)
        try:
            with np.errstate(over="raise"):
                if self.topology == "grid":
                    return self._grid_frames()
                return self._path_frames()
        except FloatingPointError:
            raise ValidationError("tangent frame overflows a float") from None

    def _path_frames(self) -> list:
        pts = np.asarray(self.points)
        ts = [p[0] for p in self.params]
        m = len(pts)
        if m < 3:
            raise ValidationError("finite differences need at least 3 samples")
        out = []
        for i in range(m):
            if self.topology == "loop":
                # the unsampled closing gap is taken as the mean of the end gaps
                period = ts[-1] - ts[0] + ((ts[1] - ts[0]) + (ts[-1] - ts[-2])) / 2
                nodes = [(i - 1) % m, i, (i + 1) % m]
                tv = [ts[nd] - period if i == 0 and nd == m - 1 else
                      ts[nd] + period if i == m - 1 and nd == 0 else ts[nd]
                      for nd in nodes]
            else:
                lo = min(max(i - 1, 0), m - 3)
                nodes = [lo, lo + 1, lo + 2]
                tv = [ts[nd] for nd in nodes]
            out.append(_stencil_derivative(tv, [pts[nd] for nd in nodes],
                                           ts[i]).reshape(-1, 1))
        return out

    def _grid_frames(self) -> list:
        r, c = self.grid_shape
        if r < 3 or c < 3:
            raise ValidationError("finite differences need a 3x3 grid at least")
        pts = np.asarray(self.points).reshape(r, c, self.ambient_dim)
        us = np.asarray([p[0] for p in self.params]).reshape(r, c)
        vs = np.asarray([p[1] for p in self.params]).reshape(r, c)
        out = []
        for i in range(r):
            for j in range(c):
                i0 = min(max(i - 1, 0), r - 3)
                j0 = min(max(j - 1, 0), c - 3)
                col_u = _stencil_derivative(
                    [us[i0 + d, j] for d in range(3)],
                    [pts[i0 + d, j] for d in range(3)], us[i, j])
                col_v = _stencil_derivative(
                    [vs[i, j0 + d] for d in range(3)],
                    [pts[i, j0 + d] for d in range(3)], vs[i, j])
                out.append(np.stack([col_u, col_v], axis=1))
        return out


def check_lagrangian(s: SampledImmersion, space: SymplecticSpace,
                     tol: float = DEFAULT_SCAN_TOL) -> dict:
    """Max isotropy residual of the sampled tangent frames.

    The reported residual is |F^T Omega F| / |F| so it scales linearly
    with a uniform frame scaling; pass iff residual <= tol * |F| at
    every sample.
    """
    if s.ambient_dim != 2 * space.n:
        raise ValidationError("ambient dimension must be twice n")
    omega = space.omega_as("approx").to_numpy()
    return _residual_report(s, lambda p, f: f.T @ omega @ f, tol)


def corank_profile(s: SampledImmersion, tol: float = DEFAULT_SCAN_TOL,
                   fiber_slots: list | None = None) -> dict:
    """Corank of the projected tangent frame at each sample.

    The projection forgets the fiber slots (default: the trailing
    ambient_dim - param_dim coordinates).  Corank c at a sample puts it
    in the stratum labeled n - c; the complete-collapse stratum c = n is
    labeled 0.  Singular values inside the band
    (tol, NEAR_SINGULAR_BAND * tol) times the full-frame scale are
    flagged as near-singular rather than silently binned.
    """
    frames = s.tangent_frames()
    n = frames[0].shape[1]
    if fiber_slots is None:
        fiber_slots = list(range(n, s.ambient_dim))
    fiber_slots = sorted(set(int(i) for i in fiber_slots))
    if any(i < 0 or i >= s.ambient_dim for i in fiber_slots):
        raise ValidationError("fiber slot out of range")
    keep = [i for i in range(s.ambient_dim) if i not in fiber_slots]
    if not keep:
        raise ValidationError("projection must keep at least one slot")

    coranks = []
    near = []
    for idx, f in enumerate(frames):
        ref = float(np.linalg.svd(f, compute_uv=False)[0])
        if ref == 0.0:
            raise ValidationError("zero tangent frame")
        svs = np.linalg.svd(f[keep, :], compute_uv=False)
        cut = tol * ref
        kept = int(np.sum(svs > cut))
        coranks.append(n - kept)
        if any(cut < v <= NEAR_SINGULAR_BAND * cut for v in svs):
            near.append(idx)

    strata = {}
    for idx, c in enumerate(coranks):
        if c > 0:
            strata.setdefault(n - c, []).append(idx)
    return {
        "samples": len(s),
        "coranks": coranks,
        "strata": {str(i): strata[i] for i in sorted(strata)},
        "near_singular": near,
        "tol": tol,
    }


def loop_maslov(s: SampledImmersion, space: SymplecticSpace,
                tol: float = DEFAULT_SCAN_TOL) -> int:
    """Winding index of the loop of tangent Lagrangian planes."""
    if s.topology != "loop":
        raise ValidationError("loop_maslov needs loop topology")
    if s.ambient_dim != 2 * space.n:
        raise ValidationError("ambient dimension must be twice n")
    raw = s.tangent_frames()
    if raw[0].shape[1] != space.n:
        raise ValidationError("tangent planes must have n columns")
    frames = [LagrangianFrame(space, _to_matrix(f, max(tol, 1e-7)))
              for f in raw]
    return loop_degree(frames + [frames[0]])


def _to_matrix(arr, tol: float = DEFAULT_TOL) -> Matrix:
    return Matrix.approx([[float(v) for v in row] for row in arr], tol=tol)


@dataclass(frozen=True)
class ChiSpec:
    """Contact form family scale * (dz - sum_a y_coeffs[a] y_a dx^a) on
    coordinates ordered (x_1..x_n, y_1..y_n, z)."""

    n: int
    scale: float = 1.0
    y_coeffs: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be positive")
        coeffs = self.y_coeffs or tuple(1.0 for _ in range(self.n))
        object.__setattr__(self, "y_coeffs", tuple(float(c) for c in coeffs))
        if len(self.y_coeffs) != self.n:
            raise ValidationError("one y coefficient per slot required")
        # chi ^ (d chi)^n <> 0 iff the scale and every coefficient are nonzero
        if self.scale == 0.0 or any(c == 0.0 for c in self.y_coeffs):
            raise ValidationError("degenerate contact form")

    def value(self, point, vector) -> float:
        n = self.n
        acc = vector[2 * n]
        for a in range(n):
            acc -= self.y_coeffs[a] * point[n + a] * vector[a]
        return self.scale * acc


def check_legendrian(s: SampledImmersion, chi: ChiSpec | None = None,
                     tol: float = DEFAULT_SCAN_TOL) -> dict:
    """Max pullback residual of the contact form on the tangent frames."""
    if s.ambient_dim % 2 != 1:
        raise ValidationError("ambient dimension must be 2n + 1")
    n = (s.ambient_dim - 1) // 2
    chi = chi if chi is not None else ChiSpec(n)
    if chi.n != n:
        raise ValidationError("contact form has the wrong number of slots")
    return _residual_report(
        s, lambda p, f: [chi.value(p, f[:, j]) for j in range(f.shape[1])], tol)


def _residual_report(s: SampledImmersion, residual, tol: float) -> dict:
    """Max of |residual(point, F)| / |F| over the samples; pass iff
    |residual| <= tol * |F|^2 at every sample.  A norm or residual that
    overflows a float is refused: no comparison with it holds.
    """
    worst = 0.0
    ok = True
    try:
        with np.errstate(over="raise"):
            for p, f in zip(s.points, s.tangent_frames()):
                raw = float(np.linalg.norm(residual(p, f)))
                scale = float(np.linalg.norm(f))
                if scale == 0.0:
                    raise ValidationError("zero tangent frame")
                if not math.isfinite(raw):  # Python floats overflow silently
                    raise FloatingPointError
                worst = max(worst, raw / scale)
                ok = ok and raw <= tol * scale * scale
    except FloatingPointError:
        raise ValidationError("tangent frame overflows a float") from None
    return {"samples": len(s), "max_residual": worst, "tol": tol, "pass": ok}


def reeb_field(chi: ChiSpec, samples: int | SampledImmersion) -> list:
    """Per-sample values of the vector field v with v . dchi = 0 and
    chi(v) = 1; for this family it is (1/scale) d/dz everywhere."""
    count = len(samples) if isinstance(samples, SampledImmersion) else int(samples)
    if count < 1:
        raise ValidationError("need at least one sample")
    vec = [0.0] * (2 * chi.n) + [1.0 / chi.scale]
    return [list(vec) for _ in range(count)]


# -- sample file loaders -------------------------------------------------------


def immersion_from_json(text: str) -> SampledImmersion:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad JSON sample file: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("sample file must be a JSON object")
    try:
        return SampledImmersion(
            param_dim=int(data["param_dim"]),
            ambient_dim=int(data["ambient_dim"]),
            topology=str(data["topology"]),
            params=data["params"],
            points=data["points"],
            frames=data.get("frames"),
            grid_shape=tuple(data["grid_shape"]) if "grid_shape" in data else None,
        )
    except KeyError as exc:
        raise ValidationError(f"sample file missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad sample file: {exc}") from exc


def immersion_from_csv(text: str, topology: str,
                       grid_shape: tuple | None = None) -> SampledImmersion:
    """Columns p1..pn, a1..aK, optional frame columns f<row>_<col>."""
    rows = list(csv.DictReader(text.splitlines()))
    if not rows:
        raise ValidationError("empty sample file")
    names = list(rows[0].keys())
    n = sum(1 for c in names if c.startswith("p"))
    k = sum(1 for c in names if c.startswith("a"))
    fcols = [c for c in names if c.startswith("f")]
    if n < 1 or k < 1:
        raise ValidationError("need p* and a* columns")
    try:
        params = [[float(r[f"p{i + 1}"]) for i in range(n)] for r in rows]
        points = [[float(r[f"a{i + 1}"]) for i in range(k)] for r in rows]
        frames = None
        if fcols:
            frames = [[[float(r[f"f{i + 1}_{j + 1}"]) for j in range(n)]
                       for i in range(k)] for r in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad sample file columns: {exc}") from exc
    return SampledImmersion(param_dim=n, ambient_dim=k, topology=topology,
                            params=params, points=points, frames=frames,
                            grid_shape=grid_shape)
