"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.isolate()

import recorder  # noqa: E402
from grids import Figure2Grid, LabMix  # noqa: E402
from servemix import (MISS_SEED_BASE, ROUND_MISSES,  # noqa: E402
                      ROUND_REQUESTS, plan_round)


# -- self-time arithmetic ------------------------------------------------------

@pytest.fixture
def fake_clock(monkeypatch):
    """Each clock read returns the next value of a script."""
    ticks = []
    monkeypatch.setattr(recorder, "_clock", lambda: ticks.pop(0))
    return ticks


def test_self_time_is_duration_minus_children(fake_clock):
    # root [0, 100] > a [10, 40] > leaf [20, 30]; root > b [50, 70]
    fake_clock.extend([0, 10, 20, 30, 40, 50, 70, 100])
    rec = recorder.Recorder()
    root = rec.enter("bench.round", keep=True)
    a = rec.enter("exec.run", keep=True)
    leaf = rec.enter("memory.access")
    assert rec.exit(leaf) == 10
    assert rec.exit(a) == 20
    b = rec.enter("memory.access")
    assert rec.exit(b) == 20
    assert rec.exit(root) == 50

    totals = rec.totals()
    assert totals["memory.access"] == {"calls": 2, "total_ns": 30,
                                       "self_ns": 30}
    assert totals["exec.run"]["self_ns"] == 20
    assert totals["bench.round"]["total_ns"] == 100
    layers = recorder.layer_self_ns(totals)
    assert layers == {"bench": 50, "exec": 20, "memory": 30}
    assert sum(layers.values()) == rec.roots_ns() == 100
    spans = {span["name"]: span for span in rec.spans()}
    assert spans["exec.run"]["parent"] == spans["bench.round"]["id"]
    assert spans["bench.round"]["parent"] is None


def test_kept_span_parent_skips_unkept_frames(fake_clock):
    fake_clock.extend([0, 1, 2, 3, 4, 5])
    rec = recorder.Recorder()
    root = rec.enter("bench.round", keep=True)
    middle = rec.enter("harness.run_bar")
    inner = rec.enter("exec.run", keep=True)
    rec.exit(inner)
    rec.exit(middle)
    rec.exit(root)
    spans = {span["name"]: span for span in rec.spans()}
    assert spans["exec.run"]["parent"] == spans["bench.round"]["id"]


def test_threads_keep_separate_stacks():
    rec = recorder.Recorder()
    work = rec.wrap(lambda: sum(range(1000)), "memory.access")

    def thread_body():
        with rec.span("exec.run"):
            work()

    threads = [threading.Thread(target=thread_body) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    totals = rec.totals()
    assert totals["exec.run"]["calls"] == 4
    assert totals["memory.access"]["calls"] == 4
    layers = recorder.layer_self_ns(totals)
    assert sum(layers.values()) == rec.roots_ns()


def test_probe_restores_every_patched_attribute():
    from layers import LayerProbe
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.serve.gateway import Gateway

    access, submit = MemoryHierarchy.access, Gateway.submit
    probe = LayerProbe(recorder.Recorder())
    probe.install()
    assert MemoryHierarchy.access is not access
    probe.uninstall()
    assert MemoryHierarchy.access is access
    assert Gateway.submit is submit


def test_probe_reports_spans_that_never_fired():
    from layers import LayerProbe
    from repro.harness import runner

    probe = LayerProbe(recorder.Recorder())
    probe.install()
    try:
        runner.run_bar("espresso", "inorder", runner.bar_config("N"),
                       200, 50)
    finally:
        probe.uninstall()
    assert probe.missing(["harness.run_bar", "inorder.run",
                          "memory.access"]) == []
    assert probe.missing(["ooo.run", "harness.run_bar",
                          "vec.inorder"]) == ["ooo.run", "vec.inorder"]


# -- host-speed scaling ----------------------------------------------------------

def test_round_count_depends_on_seconds_alone():
    import run

    nominal = run.NOMINAL_ROUND_S["lab-mix"]
    assert run.rounds_for("lab-mix", 4 * nominal) == 4
    assert run.rounds_for("lab-mix", 0.1) == run.MIN_ROUNDS
    assert run.rounds_for("fig2-grid", 20) == run.MIN_ROUNDS


def test_host_factor_scales_to_the_reference_yardstick():
    import run

    ref = run.YARD_REF_MS
    # A host twice as slow as the reference: times halve, rates double.
    assert run.host_factor([ref, 3 * ref]) == 0.5
    assert run.host_factor([ref]) == 1.0


def test_yardstick_samples_and_turns_the_collector_back_on():
    import gc

    samples = common.Yardstick().sample(3)
    assert len(samples) == 3 and min(samples) > 0
    assert gc.isenabled()


# -- seeds: digests and request sequences ---------------------------------------

def _hits(plan):
    return [(spec["benchmark"], spec["label"], spec["seed"]) for spec in plan
            if spec["seed"] < MISS_SEED_BASE]


def test_request_sequence_follows_the_seed():
    first = plan_round(3, 0)
    assert first == plan_round(3, 0)
    assert _hits(first) != _hits(plan_round(4, 0))
    assert _hits(first) != _hits(plan_round(3, 1))
    assert len(first) == ROUND_REQUESTS
    miss_seeds = [spec["seed"] for r in range(3) for spec in plan_round(3, r)
                  if spec["seed"] >= MISS_SEED_BASE]
    assert len(miss_seeds) == 3 * ROUND_MISSES
    assert len(set(miss_seeds)) == len(miss_seeds)


def test_planned_requests_are_valid_specs():
    from repro.serve import validate_job_spec

    for seed in (0, 12345, 2 ** 40):
        for spec in plan_round(seed, 7):
            validate_job_spec(spec)


def _digest_of(workload):
    workload.setup()
    try:
        first = workload.run_round()
        second = workload.run_round()
        assert first.rows == second.rows
        assert workload.check(first) == []
        return common.digest(first.rows)
    finally:
        workload.close()


@pytest.mark.parametrize("cls,benchmarks", [(Figure2Grid, ["espresso"]),
                                            (LabMix, ["compress"])])
def test_grid_digest_follows_the_seed(cls, benchmarks):
    small = dict(instructions=300, warmup=100, benchmarks=benchmarks)
    same = _digest_of(cls(5, **small))
    assert _digest_of(cls(5, **small)) == same
    assert _digest_of(cls(6, **small)) != same
