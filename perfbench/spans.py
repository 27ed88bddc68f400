"""Spans around the calls into symgeo's layers, recorded from outside.

``Tracer.install`` replaces each listed public function with a timing
wrapper.  A symgeo module that did ``from .linalg import rank`` holds its
own binding, so every module attribute that *is* the original function is
replaced, not only the defining one; methods (``Matrix.__matmul__``,
``LagrangianFrame.__post_init__``, ...) are patched on their class.
``uninstall`` puts the originals back.

Spans stay in memory as ``[name, start, end, parent, op, mode]`` and are
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children; calls nest, so the children never
overlap.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter


def layer_targets() -> list:
    """(metric name, owner, attribute) for every wrapped layer op."""
    from symgeo import linalg, maslov, metaplectic, scan, symplectic
    from symgeo.jets import metasymplectic as meta
    return [
        ("linalg.rank", linalg, "rank"),
        ("linalg.kernel_basis", linalg, "kernel_basis"),
        ("linalg.inverse", linalg, "inverse"),
        ("linalg.sym_signature", linalg, "sym_signature"),
        ("linalg.spans_equal", linalg, "spans_equal"),
        ("linalg.matmul", linalg.Matrix, "__matmul__"),
        ("symplectic.frame_check", symplectic.LagrangianFrame, "__post_init__"),
        ("symplectic.intersect_frames", symplectic, "intersect_frames"),
        ("symplectic.det_squared", symplectic, "det_squared"),
        ("symplectic.loop_degree", symplectic, "loop_degree"),
        ("maslov.kashiwara_index", maslov, "kashiwara_index"),
        ("maslov.kashiwara_space", maslov, "kashiwara_space"),
        ("maslov.tuple_reduce", maslov, "tuple_reduce"),
        ("metaplectic.mp1_mul", metaplectic, "mp1_mul"),
        ("metaplectic.mp1_inverse", metaplectic, "mp1_inverse"),
        ("metaplectic.element_check", metaplectic.Mp1Element, "__post_init__"),
        ("jets.max_isotropic", meta, "max_isotropic"),
        ("jets.metasymplectic_eval", meta, "metasymplectic_eval"),
        ("jets.meta_orthogonal_frame", meta, "meta_orthogonal_frame"),
        ("scan.load", scan, "immersion_from_json"),
        ("scan.load", scan, "immersion_from_csv"),
        ("scan.tangent_frames", scan.SampledImmersion, "tangent_frames"),
        ("scan.check_lagrangian", scan, "check_lagrangian"),
        ("scan.corank_profile", scan, "corank_profile"),
        ("scan.loop_maslov", scan, "loop_maslov"),
        ("scan.check_legendrian", scan, "check_legendrian"),
    ]


LAYER_OPS = (
    "linalg.rank", "linalg.kernel_basis", "linalg.inverse",
    "linalg.sym_signature", "linalg.spans_equal", "linalg.matmul",
    "symplectic.frame_check", "symplectic.intersect_frames",
    "symplectic.det_squared", "symplectic.loop_degree",
    "maslov.kashiwara_index", "maslov.kashiwara_space", "maslov.tuple_reduce",
    "metaplectic.mp1_mul", "metaplectic.mp1_inverse",
    "metaplectic.element_check",
    "jets.max_isotropic", "jets.metasymplectic_eval",
    "jets.meta_orthogonal_frame",
    "scan.load", "scan.tangent_frames", "scan.check_lagrangian",
    "scan.corank_profile", "scan.loop_maslov", "scan.check_legendrian",
)
LAYERS = ("linalg", "symplectic", "maslov", "metaplectic", "jets", "scan")
OP_SPAN = "bench.op"


def _mode(args) -> str:
    """exact or approx, from a linalg call's first argument."""
    m = getattr(args[0], "gram", args[0]) if args else None
    return getattr(m, "mode", "")


def _max_bits(m) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in m.entries for x in row if isinstance(x, Fraction)),
               default=0)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []
        self.op = -1
        self.max_entry_bits = 0
        self.form_dim = 0

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        linalg_op = name.startswith("linalg.")

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    _mode(args) if linalg_op else ""]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            self._count(name, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, args, out) -> None:
        if name == "linalg.matmul" and out.mode == "exact":
            self.max_entry_bits = max(self.max_entry_bits, _max_bits(out))
        elif name == "linalg.sym_signature":
            g = getattr(args[0], "gram", args[0])
            if g.mode == "exact":
                self.max_entry_bits = max(self.max_entry_bits, _max_bits(g))
        elif name == "maslov.kashiwara_space":
            self.form_dim += out.dim

    def op_span(self, op: int, fn, *args):
        """Run one benchmark op inside a root span."""
        self.op = op
        return self._wrap(OP_SPAN, fn)(*args)

    # -- patching ---------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "symgeo" or k.startswith("symgeo."))]
        modules += list(extra_modules)
        for name, owner, attr in layer_targets():
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def summary(self, scale=None) -> dict:
        """Per-layer calls and self seconds, layer totals and counts.
        ``scale[op]``, when given, multiplies the times of that op's spans
        (the run's factor to reference machine speed)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        out = {}
        op_s = linalg_exact = linalg_approx = 0.0
        for (name, t0, t1, _, op, mode), kids in zip(self.spans, child):
            f = scale[op] if scale is not None else 1.0
            own = ((t1 - t0) - kids) * f
            calls[name] += 1
            self_s[name] += own
            if name == OP_SPAN:
                op_s += (t1 - t0) * f
            elif mode == "exact":
                linalg_exact += own
            elif mode == "approx":
                linalg_approx += own
        for name in LAYER_OPS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(self_s[n] for n in LAYER_OPS
                                         if n.startswith(layer + "."))
        out["linalg.exact_self_s"] = linalg_exact
        out["linalg.approx_self_s"] = linalg_approx
        out["linalg.max_entry_bits"] = self.max_entry_bits
        out["maslov.form_dim"] = self.form_dim
        out["bench.self_s"] = self_s[OP_SPAN]
        out["trace.op_s"] = op_s
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start", "end", "parent", "op", "mode"]}\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
