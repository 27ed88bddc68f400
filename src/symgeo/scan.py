"""Pointwise audits of sampled immersions: isotropy residuals, corank
strata of the base projection, loop winding indices, and contact-form
checks.

Samples carry explicit grid topology (line, loop, or rectangular grid);
tangent frames default to central finite differences on the parameter
grid, and analytic frames, when provided, take precedence.  Either way the
m samples give one (m, dim, k) stack of frames, which every audit reads in
array passes: the isotropy and contact residuals, the coranks and the
winding.  Corank decisions threshold singular values of the projected
frame against the largest singular value of the full frame, so complete
collapse at a sample is still classified.  Both sets of singular values
come from ``symplectic._singular_values``: for frames of one or two
columns, the column norm or a column-pivoted Gram-Schmidt step on the
whole stack at once; for wider frames, LAPACK's SVD without U or V.

The JSON and CSV loaders give each field to ``SampledImmersion`` in one
piece, and it converts params, points and frames with one float-array
conversion each.  Refusals keep their order: the topology and dimensions,
then pairing, sample count and row widths before overflow and non-numbers;
non-finite samples; distinct samples, grid and loop rules; then non-finite
frame entries, the frame count and the frame shape.  Where a conversion
raises or gives another shape, the per-row or per-frame rules pick the
message.  A CSV file names its columns in the header row and is converted
block by block: params, points, then frames.
"""

from __future__ import annotations

import csv
import json
import math
from functools import cached_property

import numpy as np

from .jsonio import ValidationError, is_int
from .linalg import Value, _set
from .symplectic import SymplecticSpace, _singular_values, loop_degree

DEFAULT_SCAN_TOL = 1e-6
NEAR_SINGULAR_BAND = 10.0

_TOPOLOGIES = ("line", "loop", "grid")


def _stencil_derivative(ts, fs, te):
    """Derivatives at te of the quadratics through (ts[i], fs[i]), i = 0..2,
    one per entry of te (fs[i] has one more, trailing axis).

    Second order on any spacing; exact whenever the sampled coordinates
    are polynomials of degree <= 2 in the parameter.  Zero denominators
    (repeated nodes, or underflowing spacing) are refused before dividing.
    """
    t0, t1, t2 = ts
    den0 = (t0 - t1) * (t0 - t2)
    den1 = (t1 - t0) * (t1 - t2)
    den2 = (t2 - t0) * (t2 - t1)
    if not (den0.all() and den1.all() and den2.all()):
        raise ValidationError("degenerate parameter spacing")
    w0 = (2.0 * te - t1 - t2) / den0
    w1 = (2.0 * te - t0 - t2) / den1
    w2 = (2.0 * te - t0 - t1) / den2
    return (w0[..., None] * fs[0] + w1[..., None] * fs[1]
            + w2[..., None] * fs[2])


class SampledImmersion(Value):
    """An ordered grid of samples of an immersion, with declared topology;
    params, points and frames are kept as float arrays, one row per sample,
    each made by one conversion of the field given (see the module
    docstring for the order of the refusals)."""

    _fields = ("param_dim", "ambient_dim", "topology", "params", "points",
               "frames", "grid_shape")
    _defaults = {"frames": None, "grid_shape": None}
    __hash__ = None  # arrays are unhashable

    def __post_init__(self):
        if self.topology not in _TOPOLOGIES:
            raise ValidationError(f"unknown topology {self.topology!r}")
        if self.param_dim < 1 or self.ambient_dim <= self.param_dim:
            raise ValidationError("need 1 <= param_dim < ambient_dim")
        params, points = self._sample_arrays()
        if not (np.isfinite(params).all() and np.isfinite(points).all()):
            raise ValidationError("sample values must be finite")
        _set(self, "params", params)
        _set(self, "points", points)
        if (self.points[1:] == self.points[:-1]).all(axis=1).any():
            raise ValidationError("consecutive samples must be distinct")
        if self.topology == "grid":
            if self.param_dim != 2:
                raise ValidationError("grid topology needs param_dim = 2")
            if self.grid_shape is None:
                raise ValidationError("grid topology needs grid_shape")
            _set(self, "grid_shape", (int(self.grid_shape[0]), int(self.grid_shape[1])))
            if self.grid_shape[0] * self.grid_shape[1] != len(self.points):
                raise ValidationError("grid_shape does not match sample count")
            if min(self.grid_shape) < 1:
                raise ValidationError("grid_shape must be positive")
        elif self.param_dim != 1:
            raise ValidationError(f"{self.topology} topology needs param_dim = 1")
        if self.topology == "loop" and len(self.points) < 3:
            raise ValidationError("a loop needs at least 3 samples")
        if self.frames is not None:
            _set(self, "frames", self._frame_stack())

    def _sample_arrays(self) -> tuple:
        """params and points as (m, param_dim) and (m, ambient_dim) float
        arrays, one conversion each.  When a conversion raises or gives
        another shape, the per-row rules pick the refusal, in their order:
        pairing, sample count, parameter then ambient widths, overflow, and
        entries that are not numbers."""
        try:
            params = np.asarray(self.params, dtype=float)
            points = np.asarray(self.points, dtype=float)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if (params.ndim == points.ndim == 2 and len(points)
                    and params.shape == (len(points), self.param_dim)
                    and points.shape[1] == self.ambient_dim):
                return params, points
        if len(self.params) != len(self.points):
            raise ValidationError("params and points must pair up")
        if not len(self.points):
            raise ValidationError("need at least one sample")
        if any(len(p) != self.param_dim for p in self.params):
            raise ValidationError("parameter width mismatch")
        if any(len(p) != self.ambient_dim for p in self.points):
            raise ValidationError("ambient width mismatch")
        try:
            params = np.asarray(self.params, dtype=float)
            points = np.asarray(self.points, dtype=float)
        except OverflowError as exc:
            raise ValidationError("sample value overflows a float") from exc
        if params.ndim != 2 or points.ndim != 2:
            raise ValidationError("sample values must be numbers")
        return params, points

    def _frame_stack(self) -> np.ndarray:
        """The frames as one (m, ambient_dim, k) float array, k >= param_dim,
        from one conversion.  Frames that give no 3-D array are converted
        one by one, so an overflow or a bad entry is the first frame's.
        Either way the refusals come in one order: non-finite entries, the
        frame count, then the frame shape."""
        try:
            frames = np.asarray(self.frames, dtype=float)
        except (TypeError, ValueError, OverflowError):
            frames = None
        if frames is not None and frames.ndim == 3:
            finite, shapes = np.isfinite(frames).all(), {frames.shape[1:]}
        else:
            try:
                frames = [np.asarray(f, dtype=float) for f in self.frames]
            except OverflowError as exc:
                raise ValidationError("frame entries overflow a float") from exc
            finite = all(np.isfinite(f).all() for f in frames)
            shapes = {f.shape for f in frames}
        if not finite:
            raise ValidationError("frame entries must be finite")
        if len(frames) != len(self.points):
            raise ValidationError("one frame per sample required")
        # analytic frames may span a plane wider than the sampled path
        shape = shapes.pop() if len(shapes) == 1 else ()
        if len(shape) != 2 or shape[0] != self.ambient_dim \
                or not self.param_dim <= shape[1]:
            raise ValidationError("frame shape mismatch")
        return frames if isinstance(frames, np.ndarray) else np.stack(frames)

    def __eq__(self, other):
        # arrays compare by their entries: == on them gives no single truth value
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(u, v)
                   if isinstance(u, np.ndarray) or isinstance(v, np.ndarray) else u == v
                   for u, v in zip(self._key(), other._key()))

    def __len__(self) -> int:
        return len(self.points)

    def tangent_frames(self) -> np.ndarray:
        """The (m, dim, k) stack of tangent frames: the analytic frames if
        given, else finite differences, computed once per immersion; a
        difference that overflows a float is refused."""
        return self.frames if self.frames is not None else self._differences

    @cached_property
    def _differences(self) -> np.ndarray:
        # a refusal raises, so it is not cached; every audit shares the
        # stack, so it is read-only
        try:
            with np.errstate(over="raise"):
                stack = (self._grid_frames() if self.topology == "grid"
                         else self._path_frames())
        except FloatingPointError:
            raise ValidationError("tangent frame overflows a float") from None
        stack.flags.writeable = False
        return stack

    def _path_frames(self) -> np.ndarray:
        pts, ts = self.points, self.params[:, 0]
        m = len(pts)
        if m < 3:
            raise ValidationError("finite differences need at least 3 samples")
        idx = np.arange(m)
        if self.topology == "loop":
            # the unsampled closing gap is taken as the mean of the end gaps
            period = ts[-1] - ts[0] + ((ts[1] - ts[0]) + (ts[-1] - ts[-2])) / 2
            nodes = np.stack([idx - 1, idx, idx + 1]) % m
            tv = ts[nodes]
            tv[0, 0] -= period
            tv[2, -1] += period
        else:
            lo = np.clip(idx - 1, 0, m - 3)
            nodes = np.stack([lo, lo + 1, lo + 2])
            tv = ts[nodes]
        return _stencil_derivative(tv, pts[nodes], ts)[:, :, None]

    def _grid_frames(self) -> np.ndarray:
        r, c = self.grid_shape
        if r < 3 or c < 3:
            raise ValidationError("finite differences need a 3x3 grid at least")
        pts = self.points.reshape(r, c, self.ambient_dim)
        us, vs = np.moveaxis(self.params.reshape(r, c, 2), 2, 0)
        # stencil d of row i starts at min(max(i - 1, 0), r - 3); same for columns
        rows = np.clip(np.arange(r) - 1, 0, r - 3) + np.arange(3)[:, None]
        cols = np.clip(np.arange(c) - 1, 0, c - 3) + np.arange(3)[:, None]
        col_u = _stencil_derivative(us[rows], pts[rows], us)
        col_v = _stencil_derivative(np.moveaxis(vs[:, cols], 1, 0),
                                    np.moveaxis(pts[:, cols], 1, 0), vs)
        return np.stack([col_u, col_v], axis=-1).reshape(r * c, -1, 2)


def _check_space_n(s: SampledImmersion, n: int, loop: bool = False) -> None:
    """The refusals of an audit at a 2n-space that read only n, in the
    audit's order: a loop audit of a sample of another topology, then an
    ambient dimension other than 2n."""
    if loop and s.topology != "loop":
        raise ValidationError("loop_maslov needs loop topology")
    if s.ambient_dim != 2 * n:
        raise ValidationError("ambient dimension must be twice n")


def check_lagrangian(s: SampledImmersion, space: SymplecticSpace,
                     tol: float = DEFAULT_SCAN_TOL) -> dict:
    """Max isotropy residual of the sampled tangent frames.

    The reported residual is |F^T Omega F| / |F| so it scales linearly
    with a uniform frame scaling; pass iff residual <= tol * |F| at
    every sample.
    """
    _check_space_n(s, space.n)
    omega = space.omega.to_numpy()
    return _residual_report(
        s, lambda points, frames: np.swapaxes(frames, 1, 2) @ omega @ frames, tol)


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
    n = frames.shape[2]
    if fiber_slots is None:
        fiber_slots = list(range(n, s.ambient_dim))
    fiber_slots = sorted(set(int(i) for i in fiber_slots))
    if any(i < 0 or i >= s.ambient_dim for i in fiber_slots):
        raise ValidationError("fiber slot out of range")
    keep = [i for i in range(s.ambient_dim) if i not in fiber_slots]
    if not keep:
        raise ValidationError("projection must keep at least one slot")

    ref = _singular_values(frames)[:, 0]
    if not ref.all():
        raise ValidationError("zero tangent frame")
    svs = _singular_values(frames[:, keep, :])
    cut = (tol * ref)[:, None]
    kept = svs > cut
    coranks = n - kept.sum(axis=1)
    near = (kept & (svs <= NEAR_SINGULAR_BAND * cut)).any(axis=1)
    return {
        "samples": len(s),
        "coranks": coranks.tolist(),
        "strata": {str(n - c): np.flatnonzero(coranks == c).tolist()
                   for c in range(n, 0, -1) if (coranks == c).any()},
        "near_singular": np.flatnonzero(near).tolist(),
        "tol": tol,
    }


def loop_maslov(s: SampledImmersion, space: SymplecticSpace,
                tol: float = DEFAULT_SCAN_TOL) -> int:
    """Winding index of the loop of tangent Lagrangian planes: ``loop_degree``
    of the frame stack closed by its first frame, at tol max(tol, 1e-7)."""
    _check_space_n(s, space.n, loop=True)
    frames = s.tangent_frames()
    if frames.shape[2] != space.n:
        raise ValidationError("tangent planes must have n columns")
    return loop_degree(space, np.concatenate([frames, frames[:1]]), max(tol, 1e-7))


class ChiSpec(Value):
    """Contact form family scale * (dz - sum_a y_coeffs[a] y_a dx^a) on
    coordinates ordered (x_1..x_n, y_1..y_n, z)."""

    _fields = ("n", "scale", "y_coeffs")
    _defaults = {"scale": 1.0, "y_coeffs": ()}

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be positive")
        coeffs = self.y_coeffs or tuple(1.0 for _ in range(self.n))
        _set(self, "y_coeffs", tuple(float(c) for c in coeffs))
        if len(self.y_coeffs) != self.n:
            raise ValidationError("one y coefficient per slot required")
        if not all(map(math.isfinite, (self.scale, *self.y_coeffs))):
            raise ValidationError("contact form scale and coefficients must be finite")
        # chi ^ (d chi)^n <> 0 iff the scale and every coefficient are nonzero
        if self.scale == 0.0 or any(c == 0.0 for c in self.y_coeffs):
            raise ValidationError("degenerate contact form")

    def pullback(self, points: np.ndarray, frames: np.ndarray) -> np.ndarray:
        """The form on every column of an (m, 2n + 1, k) frame stack based
        at (m, 2n + 1) points: an (m, k) array, each entry formed in the
        order scale * (dz - c_1 y_1 dx^1 - ... - c_n y_n dx^n)."""
        n = self.n
        acc = frames[:, 2 * n]
        for a in range(n):
            acc = acc - (self.y_coeffs[a] * points[:, n + a])[:, None] * frames[:, a]
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
    return _residual_report(s, chi.pullback, tol)


def _residual_report(s: SampledImmersion, residual, tol: float) -> dict:
    """Max of |residual(points, F)| / |F| over the samples; pass iff
    |residual| <= tol * |F|^2 at every sample.  One pass over the
    (m, dim, k) frame stack: ``residual`` maps the stack to one residual
    per sample, and each norm is the square root of ``vecdot`` on a
    flattened row, the dot kernel of ``np.linalg.norm``, so every float is
    the per-sample one.  The first sample whose residual or frame norm is
    not finite (it overflowed: no comparison with it holds) or whose frame
    is zero is refused.
    """
    frames = s.tangent_frames()
    m = len(frames)
    with np.errstate(over="ignore", invalid="ignore"):
        res = residual(s.points, frames).reshape(m, -1)
        flat = frames.reshape(m, -1)
        raw = np.sqrt(np.vecdot(res, res))
        scale = np.sqrt(np.vecdot(flat, flat))
        finite = np.isfinite(raw) & np.isfinite(scale)
        bad = ~finite | (scale == 0.0)
        if bad.any():
            first = bad.argmax()
            raise ValidationError("zero tangent frame" if finite[first]
                                  else "tangent frame overflows a float")
        worst = float((raw / scale).max())
        ok = bool((raw <= tol * scale * scale).all())
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
        for key in ("param_dim", "ambient_dim"):
            if not is_int(data[key]):
                raise ValidationError(f"{key} must be an integer")
        grid = data.get("grid_shape")
        if grid is not None and not (isinstance(grid, list) and len(grid) == 2
                                     and all(map(is_int, grid))):
            raise ValidationError("grid_shape must be two integers")
        return SampledImmersion(
            param_dim=data["param_dim"],
            ambient_dim=data["ambient_dim"],
            topology=str(data["topology"]),
            params=data["params"],
            points=data["points"],
            frames=data.get("frames"),
            grid_shape=grid,
        )
    except KeyError as exc:
        raise ValidationError(f"sample file missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad sample file: {exc}") from exc


def immersion_from_csv(text: str, topology: str,
                       grid_shape: tuple | None = None) -> SampledImmersion:
    """Columns p1..pn, a1..aK, optional frame columns f<row>_<col>, named by
    the header row; a name given twice is its last column, blank rows are
    skipped and fields past the header are ignored.  The params, points and
    frames blocks are converted in that order, each as one array."""
    lines = csv.reader(text.splitlines())
    header = next(lines, [])
    rows = [row for row in lines if row]
    if not rows:
        raise ValidationError("empty sample file")
    column = {name: i for i, name in enumerate(header)}
    n = sum(1 for c in column if c.startswith("p"))
    k = sum(1 for c in column if c.startswith("a"))
    if n < 1 or k < 1:
        raise ValidationError("need p* and a* columns")
    try:
        params = _csv_block(rows, column, [f"p{i + 1}" for i in range(n)])
        points = _csv_block(rows, column, [f"a{i + 1}" for i in range(k)])
        frames = None
        if any(c.startswith("f") for c in column):
            frames = _csv_block(rows, column, [f"f{i + 1}_{j + 1}" for i in range(k)
                                               for j in range(n)]).reshape(-1, k, n)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad sample file columns: {exc}") from exc
    return SampledImmersion(param_dim=n, ambient_dim=k, topology=topology,
                            params=params, points=points, frames=frames,
                            grid_shape=grid_shape)


def _csv_block(rows: list, column: dict, names: list) -> np.ndarray:
    """The (len(rows), len(names)) float array of the named columns: ``float``
    of each field, row by row, so the first bad value raises as it would
    from a ``DictReader`` row.  A block with a missing column or a short row
    is read value by value instead, to raise as ``float(row[name])`` would:
    a missing name as KeyError, a missing field as float(None)."""
    idx = [column.get(name) for name in names]
    if None not in idx:
        fields = (row[i] for row in rows for i in idx)
        try:
            values = np.fromiter(map(float, fields), float, len(rows) * len(idx))
        except IndexError:
            pass
        else:
            return values.reshape(len(rows), len(idx))
    values = []
    for row in rows:
        for name, i in zip(names, idx):
            if i is None:
                raise KeyError(name)
            values.append(float(row[i] if i < len(row) else None))
    return np.array(values).reshape(len(rows), len(names))
