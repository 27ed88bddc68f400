"""symgeo benchmark: replay one seeded workload and print its metrics.

    python3 perfbench/run.py --workload index --seed 1 --seconds 20 --trace 0

Run from the root of a symgeo checkout; the package is imported from that
checkout's ``src`` and nowhere else.  One process, one client, closed loop:
each op starts when the previous one has returned.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics.
Ops run in whole cycles of the workload's schedule (see ``gen.py``), and a
new cycle starts only while half the mean cycle time still fits in the
time left, so every run sees the same mix of cheap and costly ops.

Every timing is reported at a reference machine speed.  Shared machines
change speed by more than half within seconds, far more than the bounds
allow, so a fixed speed kernel (exact ``Fraction`` elimination in plain
Python, no symgeo code) is timed next to each op and each set-up, and a
time t is reported as t * REF_SPEED_S / (the kernel's time next to it).
The wall times as measured go to the result file and the lines for people.
``setup_s`` is the median of five cold set-ups: the run's own, and four in
fresh processes after the timed loop.

A ``cli`` op is a fresh interpreter, and the in-process kernel does not
track it: a CLI op is mostly process start-up, file reads and loading
numpy in a child, and only partly Python running.  So ``cli`` ops are
scaled by their own gauge, a child made like an op: it imports numpy and
the standard modules ``symgeo.cli`` uses, then runs the speed kernel for
about a quarter of its time, and it loads no symgeo.  It is timed before
every second op and after the last, and an op is scaled by the mean of
the gauge timings just before and just after it.

``--trace 1`` runs one cycle untraced, then the same cycle with spans
around every layer call, and both once more; it prints the per-layer
metrics: calls and self time per layer op for one traced cycle, layer
totals, counts, and the tracing overhead.  All four passes must give the
same answers.

Every op's answer is checked.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list the same metrics for people.  A result file with a header
(versions, nproc, git sha, seed, op counts, tracing) goes to
``perfbench/out/``, which the tracer also fills with the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from random import Random
from time import perf_counter
from typing import Callable

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("index", "mp1", "jets", "scan", "cli")
SETUP_RUNS = 5          # the run's own set-up and four more in fresh processes
SPEED_SAMPLES = 5       # speed kernel timings before and after a set-up
SPEED_WINDOW = 4        # an op is scaled by the kernel's median over +-4 ops
CLI_LAYER_SAMPLES = 10

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class SourceMissing(RuntimeError):
    pass


# -- machine speed ------------------------------------------------------------

# A fixed 7x7 rational matrix; eliminating it three times is the speed
# kernel.  It runs the same interpreter paths as symgeo's exact linalg
# (Fraction and int arithmetic, list indexing) but none of its code, so no
# change to the package changes it.
_SPEED_RNG = Random("perfbench:speed")
SPEED_MATRIX = [[gen.rand_fraction(_SPEED_RNG) for _ in range(7)]
                for _ in range(7)]
REF_SPEED_S = 1.8e-3    # the kernel's time at reference speed (2-core VM)


def speed_sample() -> float:
    """Seconds the speed kernel takes now."""
    t0 = perf_counter()
    for _ in range(3):
        gen.exact_rank(SPEED_MATRIX)
    return perf_counter() - t0


# A child made like a CLI op: start-up, the modules symgeo.cli loads from
# outside the package, then Python work (the speed kernel).  No change to
# symgeo changes it.
CLI_GAUGE_ARGV = [sys.executable, "-c", f"""import sys
sys.path.insert(0, {HERE!r})
import argparse, fractions, json, random, numpy, run
for _ in range(40):
    run.speed_sample()
"""]
REF_CLI_GAUGE_S = 0.28  # the gauge child's wall time at reference speed


def cli_gauge_sample() -> float:
    """Seconds the CLI gauge child takes now."""
    t0 = perf_counter()
    subprocess.run(CLI_GAUGE_ARGV, env=dict(os.environ, PYTHONPATH=SRC),
                   cwd=ROOT, check=True, timeout=60)
    return perf_counter() - t0


@dataclass(frozen=True)
class Gauge:
    """How machine speed is gauged next to the ops.  ``sample`` is timed
    before every ``every``-th op and once after the last; op i is scaled
    by ``ref_s`` over the median of the samples taken before ops i - lo
    to i + hi (the sample before op i + 1 is the one right after op i).
    A set-up is scaled by the median of ``around_setup`` samples before it
    and as many after it."""

    sample: Callable[[], float]
    ref_s: float
    every: int = 1
    lo: int = SPEED_WINDOW
    hi: int = SPEED_WINDOW
    around_setup: int = SPEED_SAMPLES


KERNEL = Gauge(speed_sample, REF_SPEED_S)
GAUGES = {"cli": Gauge(cli_gauge_sample, REF_CLI_GAUGE_S, every=2, lo=1, hi=2,
                       around_setup=1)}


def add_source_path() -> None:
    """Put this checkout's src first on sys.path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "symgeo", "__init__.py")):
        raise SourceMissing(f"no symgeo package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# -- the closed loop ----------------------------------------------------------


@dataclass
class Loop:
    """What one closed loop measured."""

    latencies: list = field(default_factory=list)   # s, one per op
    speed: list = field(default_factory=list)       # s, gauge just before each
    answers: list = field(default_factory=list)     # op (None: not gauged), and
    wall_s: list = field(default_factory=list)      # after the last; s per cycle
    failed: int = 0
    gauge: Gauge = KERNEL

    def factors(self) -> list:
        """Per op: the gauge's reference time over its median around that op."""
        g, sp = self.gauge, self.speed
        return [g.ref_s / statistics.median(
                    x for x in sp[max(0, i - g.lo):i + g.hi + 1] if x is not None)
                for i in range(len(self.latencies))]

    def scaled(self) -> list:
        """Op latencies at reference speed."""
        return [t * f for t, f in zip(self.latencies, self.factors())]


def run_cycles(wl, ops: list, cycle: int, seconds: float | None = None,
               cycles: int | None = None, tracer=None,
               plant: bool = False, gauge: Gauge = KERNEL) -> Loop:
    """Run whole cycles of ``cycle`` ops; stop after ``cycles`` cycles, or
    when not even half a mean cycle fits in the ``seconds`` left, so the
    run ends within half a cycle of ``seconds``."""
    loop = Loop(gauge=gauge)
    i = 0
    while cycles is None or len(loop.wall_s) < cycles:
        if seconds is not None and loop.wall_s:
            spent = sum(loop.wall_s)
            if spent + spent / len(loop.wall_s) / 2 > seconds:
                break
        start = perf_counter()
        for _ in range(cycle):
            op = ops[i % len(ops)]
            loop.speed.append(gauge.sample() if i % gauge.every == 0
                              else None)
            t0 = perf_counter()
            try:
                ans = tracer.op_span(i, wl.run, op) if tracer else wl.run(op)
                t1 = perf_counter()
                if plant and i == 0:
                    ans = wl.corrupt(ans)
                ok = wl.check(op, ans)
            except Exception as exc:  # an op that raises counts as failed
                t1 = perf_counter()
                ans, ok = f"{type(exc).__name__}: {exc}", False
            loop.latencies.append(t1 - t0)
            loop.answers.append(ans)
            loop.failed += not ok
            i += 1
        loop.wall_s.append(perf_counter() - start)
    loop.speed.append(gauge.sample())
    return loop


def setup(wl_name: str, seed: int):
    """Import symgeo, generate and prepare the inputs, then warm up on the
    first op (a cheap one in every schedule); returns (workload, ops,
    seconds).  In a fresh process this is the whole cold set-up."""
    t0 = perf_counter()
    add_source_path()
    from workloads import WORKLOADS
    wl = WORKLOADS[wl_name]
    ops = wl.prepare(gen.make_inputs(wl_name, seed), os.path.join(OUT, wl_name))
    wl.run(ops[0])
    return wl, ops, perf_counter() - t0


def timed_setup(wl_name: str, seed: int):
    """``setup`` between two sets of gauge timings; returns (workload, ops,
    seconds, factor to reference speed)."""
    gauge = GAUGES.get(wl_name, KERNEL)
    before = [gauge.sample() for _ in range(gauge.around_setup)]
    wl, ops, took = setup(wl_name, seed)
    after = [gauge.sample() for _ in range(gauge.around_setup)]
    return wl, ops, took, gauge.ref_s / statistics.median(before + after)


SETUP_PROBE = """import sys
sys.path.insert(0, sys.argv[1])
import run
print(*run.timed_setup(sys.argv[2], int(sys.argv[3]))[2:])
"""


def cold_setups(wl_name: str, seed: int, count: int) -> list:
    """(seconds, factor) of ``count`` set-ups, each in a fresh process."""
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, HERE,
                               wl_name, str(seed)], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        took, factor = map(float, proc.stdout.splitlines()[-1].split())
        out.append((took, factor))
    return out


def percentile_summary(lat: list) -> dict:
    p90 = statistics.quantiles(lat, n=10)[8]
    return {"op_p50_ms": statistics.median(lat) * 1e3, "op_p90_ms": p90 * 1e3,
            "samples": len(lat), "beyond_p90": sum(x > p90 for x in lat)}


def peak_rss_mb(wl_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if wl_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


# Imports symgeo.cli and runs one argv through cli.main, timing both from
# inside the interpreter, so the split does not depend on two noisy
# process start-ups cancelling out.
CLI_PROBE = """import sys, time
t0 = time.perf_counter()
import symgeo.cli as cli
t1 = time.perf_counter()
code = cli.main(sys.argv[1:])
t2 = time.perf_counter()
sys.stderr.write(f"{t1 - t0} {t2 - t1}\\n")
sys.exit(code)
"""


def cli_layer_ms(ops: list) -> dict:
    """Bare interpreter start-up (wall time of ``python -c pass``), import of
    symgeo.cli, and the command itself (``cli.main`` on an op's argv),
    medians over rounds that cycle through the ops."""
    from workloads import cli_env
    env = cli_env()
    bare, imported, command = [], [], []
    for k in range(CLI_LAYER_SAMPLES):
        argv, cwd, _, _ = ops[k % len(ops)]
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd,
                       check=True, timeout=60)
        bare.append(perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-c", CLI_PROBE, *argv[3:]],
                              env=env, cwd=cwd, check=True, timeout=60,
                              capture_output=True, text=True)
        imp_s, cmd_s = map(float, proc.stderr.splitlines()[-1].split())
        imported.append(imp_s)
        command.append(cmd_s)
    return {name: statistics.median(xs) * 1e3 for name, xs in
            (("cli.interp_ms", bare), ("cli.import_ms", imported),
             ("cli.command_ms", command))}


# -- reporting ----------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):   # not a parent's repo
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def header(wl_name: str, seed: int, trace: bool, ops: int, cycles: int) -> dict:
    import numpy
    return {"workload": wl_name, "seed": seed, "trace": trace,
            "ops": ops, "cycles": cycles,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "git_sha": git_sha(),
            "clients": 1, "loop": "closed", "ref_speed_s": REF_SPEED_S,
            "gauge": "cli child" if wl_name in GAUGES else "kernel"}


def write_result(name: str, doc: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls") or name.endswith("form_dim"):
        return "count"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    return "s"


# -- main -----------------------------------------------------------------------


def measure(wl_name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl, ops, took, factor = timed_setup(wl_name, seed)
    setups = [(took, factor)]
    import workloads
    cycle = gen.SCHEDULE_LENGTH[wl_name]
    gauge = GAUGES.get(wl_name, KERNEL)
    tag = f"{wl_name}-seed{seed}-trace{int(trace)}"

    if not trace:
        loop = run_cycles(wl, ops, cycle, seconds=seconds, gauge=gauge)
        peak = peak_rss_mb(wl_name)     # before the set-up processes below
        setups += cold_setups(wl_name, seed, SETUP_RUNS - 1)
        lat, raw = loop.scaled(), loop.latencies
        pct, raw_pct = percentile_summary(lat), percentile_summary(raw)
        metrics = {"ops_per_s": len(lat) / sum(lat),
                   "op_p50_ms": pct["op_p50_ms"], "op_p90_ms": pct["op_p90_ms"],
                   "setup_s": statistics.median(s * f for s, f in setups),
                   "peak_rss_mb": peak}
        failed, attempted = loop.failed, len(lat)
        extra = {"failed_ratio": failed / attempted, "samples": pct["samples"],
                 "beyond_p90": pct["beyond_p90"],
                 "elapsed_s": sum(loop.wall_s),
                 "speed_factor": statistics.median(loop.factors()),
                 "as_measured": {
                     "ops_per_s": len(raw) / sum(raw),
                     "op_p50_ms": raw_pct["op_p50_ms"],
                     "op_p90_ms": raw_pct["op_p90_ms"],
                     "setup_s": statistics.median(s for s, _ in setups)}}
        correct = failed == 0
    else:
        from spans import Tracer

        def traced_cycle(tracer):
            tracer.install(extra_modules=[workloads])
            try:
                return run_cycles(wl, ops, cycle, cycles=1, tracer=tracer,
                                  gauge=gauge)
            finally:
                tracer.uninstall()

        # plain, traced, plain, traced: the overhead compares the faster
        # of each pair; the spans come from the first traced cycle
        def plain_cycle():
            return run_cycles(wl, ops, cycle, cycles=1, gauge=gauge)

        tracer = Tracer()
        loops = [plain_cycle(), traced_cycle(tracer),
                 plain_cycle(), traced_cycle(Tracer())]
        metrics = tracer.summary(scale=loops[1].factors())
        plain, traced = ([sum(lp.scaled()) for lp in loops[k::2]]
                         for k in (0, 1))
        metrics["trace.overhead_ratio"] = min(plain) / min(traced)
        cli = (cli_layer_ms(ops) if wl_name == "cli"
               else dict.fromkeys(("cli.interp_ms", "cli.import_ms",
                                   "cli.command_ms"), 0.0))
        metrics.update(cli)
        tracer.dump(os.path.join(OUT, f"{tag}-spans.jsonl"))
        failed = sum(loop.failed for loop in loops)
        attempted = len(loops) * cycle
        same = all(loop.answers == loops[0].answers for loop in loops)
        correct = failed == 0 and same
        extra = {"failed_ratio": failed / attempted, "answers_equal": same,
                 "spans": len(tracer.spans)}

    doc = {"header": header(wl_name, seed, trace, attempted,
                            attempted // cycle),
           "correct": correct, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": unit_of(k)}
                       for k, v in metrics.items()},
           **extra}
    write_result(f"{tag}.json", doc)
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        doc = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    head = doc["header"]
    print(f"# {head['workload']} seed={head['seed']} trace={int(head['trace'])} "
          f"ops={head['ops']} cycles={head['cycles']} python={head['python']} "
          f"numpy={head['numpy']} nproc={head['nproc']} git={head['git_sha']}")
    for key in ("failed_ratio", "samples", "beyond_p90", "answers_equal",
                "speed_factor"):
        if key in doc:
            print(f"{key}: {doc[key]}")
    for name, value in doc.get("as_measured", {}).items():
        print(f"as measured, {name}: {value:.6g} {unit_of(name)}")
    for name, m in doc["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
