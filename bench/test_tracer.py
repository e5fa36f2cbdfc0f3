"""Tests of the benchmark's out-of-program tracer and its workloads.

Run from the repository root: python3 -m pytest -q bench
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import dqdsim  # noqa: E402
from dqdsim import fitting, molecular, spectroscopy, vertical  # noqa: E402
from run import Runner  # noqa: E402
from tracer import Span, Tracer, _ContextPool, summarize, \
    union_length  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_union_length_counts_overlap_once():
    assert union_length([]) == 0.0
    assert union_length([(1.0, 4.0), (2.0, 6.0), (8.0, 9.0)]) == 6.0
    assert union_length([(0.0, 10.0), (2.0, 3.0)]) == 10.0


def test_self_time_subtracts_union_of_concurrent_children():
    parent = Span("spectroscopy.sweep_l", None, 0.0, 10.0)
    kids = [Span("spectroscopy.solve_point", parent, 1.0, 4.0),
            Span("spectroscopy.solve_point", parent, 2.0, 6.0),
            Span("spectroscopy.solve_point", parent, 8.0, 9.0)]
    stats, pool_busy = summarize([parent] + kids)
    assert stats["spectroscopy.sweep_l"].self_s == pytest.approx(4.0)
    assert stats["spectroscopy.solve_point"].self_s == pytest.approx(8.0)
    assert stats["spectroscopy.solve_point"].calls == 3
    assert pool_busy == pytest.approx(8.0)


def test_wrappers_patch_every_importing_namespace_and_restore():
    holders = [(molecular, "adiabatic_sweep"),
               (spectroscopy, "adiabatic_sweep"),
               (vertical, "solve_vertical"), (fitting, "solve_vertical"),
               (dqdsim, "solve_vertical"), (dqdsim, "sweep_b")]
    originals = [getattr(module, name) for module, name in holders]
    pool = spectroscopy.ThreadPoolExecutor
    with Tracer().installed():
        for (module, name), original in zip(holders, originals):
            assert getattr(module, name) is not original
        assert spectroscopy.adiabatic_sweep is molecular.adiabatic_sweep
        assert fitting.solve_vertical is vertical.solve_vertical
        assert spectroscopy.ThreadPoolExecutor is _ContextPool
    for (module, name), original in zip(holders, originals):
        assert getattr(module, name) is original
    assert spectroscopy.ThreadPoolExecutor is pool


def test_pool_thread_spans_attach_to_sweep_l():
    tracer = Tracer()
    with tracer.installed():
        spectroscopy.sweep_l(dqdsim.default_device(), [3.0, 5.0, 7.0],
                             threads=2)
    sweeps = [s for s in tracer.spans if s.name == "spectroscopy.sweep_l"]
    points = [s for s in tracer.spans if s.name == "spectroscopy.solve_point"]
    assert len(sweeps) == 1 and len(points) == 3
    assert all(p.parent is sweeps[0] for p in points)
    _, pool_busy = summarize(tracer.spans)
    assert pool_busy > 0


def _traced_counts(workload_name, seed, workdir):
    workload = WORKLOADS[workload_name](seed)
    runner = Runner(workload, str(workdir))
    tracer = Tracer()
    runner.run(runner.op(0, "op0"), tracer)
    assert runner.failed == 0
    stats, _ = summarize(tracer.spans)
    return {name: (s.calls, s.errors) for name, s in stats.items()}


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_counts_repeat_across_traced_runs(workload_name, tmp_path):
    first = _traced_counts(workload_name, 7, tmp_path / "a")
    second = _traced_counts(workload_name, 7, tmp_path / "b")
    assert first == second
    assert first["cli.main"][0] >= 1
    if workload_name == "field-sweep":
        assert first["vertical.solve_vertical"] == (2, 0)
