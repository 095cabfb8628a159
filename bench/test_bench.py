"""Tests of the benchmark itself: tracing arithmetic, output identity, grids, gate.

Run with `PYTHONPATH=src python -m pytest bench/test_bench.py`.
"""

import contextlib
import io
import sys
import types

import numpy as np
import pytest

import checks
from child import LAYERS
from run import pass_rate
from tracer import Tracer, self_times
from workloads import WORKLOADS, LadderScan, ProductSweep, shift


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_synthetic_nested_calls():
    clock = FakeClock()
    mod = types.ModuleType("floquet")

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        mod.inner()
        clock.now += 3.0
        mod.inner()
        clock.now += 0.5

    mod.inner, mod.outer = inner, outer
    tracer = Tracer(["floquet.outer", "floquet.inner"], clock=clock)
    tracer.install({"floquet": mod})
    mod.outer()
    tracer.uninstall()
    summary = tracer.summary()
    assert summary["floquet.outer"] == {"calls": 1, "self_ms": 4500.0, "bytes": 0}
    assert summary["floquet.inner"] == {"calls": 2, "self_ms": 4000.0, "bytes": 0}
    outer_span, first_inner, second_inner = tracer.spans
    assert outer_span[1] is None and first_inner[1] == second_inner[1] == outer_span[0]
    assert mod.outer is outer and mod.inner is inner


def test_self_time_subtracts_only_the_covered_part_of_children():
    # a child that overhangs its parent's end is clipped to the parent
    spans = [[0, None, "a", 0.0, 10.0], [1, 0, "b", 2.0, 5.0], [2, 0, "c", 4.0, 12.0]]
    assert self_times(spans) == {0: 2.0, 1: 3.0, 2: 8.0}


def test_absent_name_records_zero_calls():
    mod = types.ModuleType("spectral")
    mod.present = lambda: 1
    tracer = Tracer(["spectral.present", "spectral.gone", "nomodule.gone"])
    tracer.install({"spectral": mod})
    assert mod.present() == 1
    tracer.uninstall()
    summary = tracer.summary()
    assert summary["spectral.gone"]["calls"] == 0
    assert summary["nomodule.gone"] == {"calls": 0, "self_ms": 0.0, "bytes": 0}
    assert summary["spectral.present"]["calls"] == 1


SMALL_COMMANDS = [
    ["rcurve", "--two-j", "12", "--kxky", "1:60", "--steps", "3", "--ratio", "1.7"],
    ["rcurve", "--two-j", "12", "--kxky", "pi:2:pi:9", "--steps", "2", "--ratio", "1.7",
     "--delta", "1.6"],
    ["entropy", "--two-j", "12", "--kxky", "1:60", "--steps", "2", "--ratio", "1.7",
     "--grid", "4"],
    ["dynamics", "--two-j", "12", "--ky", "pi:8", "--z0", "0.5", "--nx", "2,4",
     "--n-max", "6"],
]


def _run(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("argv", SMALL_COMMANDS, ids=lambda a: a[0] + str(len(a)))
def test_traced_and_untraced_outputs_are_byte_identical(argv):
    import kickedtop.cli
    import kickedtop.floquet

    original = kickedtop.floquet.unitarity_defect
    plain = _run(kickedtop.cli, argv)
    modules = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
               if name == "kickedtop" or name.startswith("kickedtop.")}
    tracer = Tracer(LAYERS, sized=("floquet.floquet_operator",))
    tracer.install(modules)
    try:
        traced = _run(kickedtop.cli, argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert kickedtop.floquet.unitarity_defect is original
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["floquet.floquet_operator"]["calls"] >= 1
    assert summary["floquet.floquet_operator"]["bytes"] >= 16 * 26 ** 2


def test_seed_zero_is_the_readme_grid_and_seeds_shift_it():
    for workload in WORKLOADS.values():
        if not isinstance(workload, ProductSweep):
            continue
        readme = np.linspace(workload.lo, workload.hi, workload.steps)
        assert workload.grid(0) == readme.tolist()
        step = readme[1] - readme[0]
        shifted = np.array(workload.grid(7)) - readme
        assert np.allclose(shifted, shift(7) * step) and 0.0 < shift(7) < 1.0
        assert workload.grid(7) == workload.grid(7)
        covered = sorted(i for chunk in workload.chunks(3) for i in chunk.points)
        assert covered == list(range(workload.steps))
        timed = [chunk.points for chunk in workload.timed(3)]
        assert len(timed) == workload.timed_chunks == len({tuple(t) for t in timed})
        assert all(t in [chunk.points for chunk in workload.chunks(3)] for t in timed)


def test_pass_rate_takes_each_chunks_fastest_repetition():
    runs = [{"grid_points": [0, 30], "seconds": 3.0},
            {"grid_points": [15, 45], "seconds": 1.0},
            {"grid_points": [0, 30], "seconds": 2.0},
            {"grid_points": [15, 45], "seconds": 5.0}]
    assert pass_rate(runs) == 4 / (2.0 + 1.0)


SMALL_WORKLOADS = [
    ProductSweep(name="small_r", command=("rcurve", "--two-j", "40", "--ratio", "1.7"),
                 lo=1.0, hi=300.0, steps=5, stride=2, value_kind="r"),
    ProductSweep(name="small_delta", command=("rcurve", "--two-j", "41", "--ratio", "1.7",
                                              "--delta", "1.6"),
                 lo=5.0, hi=300.0, steps=5, stride=2, value_kind="r"),
    ProductSweep(name="small_s2", command=("entropy", "--two-j", "20", "--ratio", "1.7",
                                           "--grid", "6"),
                 lo=2.0, hi=200.0, steps=5, stride=2, value_kind="s2"),
    LadderScan(name="small_jz", command=("dynamics", "--two-j", "20", "--ky", "pi:8"),
               z0=0.5, nx=(2, 4, 7), n_max=8),
]


@pytest.mark.parametrize("workload", SMALL_WORKLOADS, ids=lambda w: w.name)
def test_gate_accepts_the_package_and_rejects_a_changed_value(workload):
    import kickedtop.cli

    chunk = workload.check_chunk(seed=3)
    rows = checks.data_rows(_run(kickedtop.cli, chunk.argv))
    points = checks.group_points(rows, workload.rows_per_point)
    wants = [checks.oracle_point(workload, i, 3) for i in chunk.points]
    assert [checks.compare_oracle(workload, i, p, w)
            for i, p, w in zip(chunk.points, points, wants)] == [None, None]
    last = points[1][-1].split(",")
    column = 2 if workload.value_kind == "jz" else 1      # <Jz>/j, or r or S2
    last[column] = repr(float(last[column]) + 1e-6)
    changed = points[1][:-1] + [",".join(last)]
    assert "oracle" in checks.compare_oracle(workload, chunk.points[1], changed, wants[1])


def test_benchmark_json_names_what_the_runs_report():
    import json
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = [m["name"] for m in spec["per_layer"]]
    for layer in LAYERS:
        assert f"{layer}.calls" in per_layer and f"{layer}.self_ms" in per_layer
    assert len(per_layer) == 2 * len(LAYERS) + 5
