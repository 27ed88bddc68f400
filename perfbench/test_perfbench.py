"""Tests of the benchmark itself: seeded inputs, answer checks, tracing.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of the checkout.  The workloads' own cycles run here, so
the file takes about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.add_source_path()

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from symgeo import linalg, maslov, metaplectic, symplectic  # noqa: E402
from symgeo.jets import metasymplectic  # noqa: E402

NAMES = run.WORKLOAD_NAMES


def _ops(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name]
    return wl, wl.prepare(gen.make_inputs(name, seed), str(tmp_path / name))


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_bytes(name):
    first = gen.encode(gen.make_inputs(name, 7))
    assert first == gen.encode(gen.make_inputs(name, 7))
    assert first != gen.encode(gen.make_inputs(name, 8))


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_keeps_every_check_passing(name, tmp_path):
    wl, ops = _ops(name, 2, tmp_path)
    loop = run.run_cycles(wl, ops, gen.SCHEDULE_LENGTH[name], cycles=1)
    assert loop.failed == 0, [a for a in loop.answers if isinstance(a, str)]
    assert len(loop.latencies) == gen.SCHEDULE_LENGTH[name]


@pytest.mark.parametrize("name", NAMES)
def test_planted_wrong_answer_is_counted_as_failed(name, tmp_path):
    # the first two ops of every schedule are cheap
    wl, ops = _ops(name, 2, tmp_path)
    assert run.run_cycles(wl, ops, 2, cycles=1, plant=True).failed == 1


def test_latencies_are_scaled_by_the_speed_kernel_next_to_them():
    # the kernel ran twice as slow for the last six ops; the median over
    # the nine ops around each op decides its factor
    loop = run.Loop(latencies=[1.0] * 12,
                    speed=[run.REF_SPEED_S] * 6 + [2 * run.REF_SPEED_S] * 6)
    assert loop.scaled() == pytest.approx([1.0] * 6 + [0.5] * 6)


def test_cli_ops_are_scaled_by_the_gauge_samples_around_them():
    # gauged before ops 0 and 2 and after the last; each op takes the mean
    # of the sample before it and the sample after it
    ref = run.REF_CLI_GAUGE_S
    loop = run.Loop(latencies=[1.0] * 4, speed=[ref, None, 2 * ref, None, 2 * ref],
                    gauge=run.GAUGES["cli"])
    assert loop.scaled() == pytest.approx([1 / 1.5] * 2 + [0.5] * 2)


def test_schedule_is_seed_independent():
    shapes = [[(op["kind"], op["sig"], op.get("p"), op.get("cols"))
               for op in gen.jets_inputs(s)]
              for s in (1, 2)]
    assert shapes[0] == shapes[1]
    assert [op["n"] for op in gen.index_inputs(1)] == \
        [op["n"] for op in gen.index_inputs(2)]


def test_tracer_wraps_every_binding_and_restores():
    originals = (linalg.rank, linalg.Matrix.__matmul__,
                 maslov.kashiwara_index)
    tracer = spans.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        for wrapped in (maslov.rank, symplectic.rank, metasymplectic.rank,
                        metaplectic.kashiwara_index, linalg.Matrix.__matmul__,
                        symplectic.LagrangianFrame.__post_init__):
            assert hasattr(wrapped, "__wrapped__")
    finally:
        tracer.uninstall()
    assert (linalg.rank, linalg.Matrix.__matmul__,
            maslov.kashiwara_index) == originals
    assert maslov.rank is linalg.rank
    assert metaplectic.kashiwara_index is maslov.kashiwara_index


def test_traced_answers_match_and_self_times_partition_op_time(tmp_path):
    wl, ops = _ops("mp1", 3, tmp_path)
    plain = run.run_cycles(wl, ops, 4, cycles=1)
    tracer = spans.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        traced = run.run_cycles(wl, ops, 4, cycles=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced.failed == 0 and traced.answers == plain.answers
    summary = tracer.summary()
    layers = sum(summary[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + summary["bench.self_s"] == pytest.approx(summary["trace.op_s"])
    assert summary["metaplectic.mp1_mul.calls"] == 4 * 5
    assert summary["linalg.max_entry_bits"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "mp1", "--seed", "1", "--seconds", "1", "--trace",
                           "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, kind):
    proc = subprocess.run([sys.executable, run.__file__, "--workload", "mp1",
                           "--seed", "1", "--seconds", "1", "--trace",
                           str(trace)], capture_output=True, text=True,
                          timeout=120)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
