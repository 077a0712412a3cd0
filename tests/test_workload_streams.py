"""The batch-scoped stream layer (repro.workloads.streams).

Sharing one generated workload stream across the cells of a batch is
only sound if it is invisible: a batch must return exactly what fresh
per-cell generators return, in any cell order, and nothing generated
may outlive the batch.  Also here: the numpy-free vec decode, and its
decode cache under concurrent replay.
"""

import subprocess
import sys
import threading
from dataclasses import asdict

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads.synthetic as synthetic
from repro.exec import ExecOptions, JobRunner, SimJob
from repro.exec.engine import JobFailedError, JobTimeoutError
from repro.exec.job import execute_job
from repro.harness.runner import bar_config, run_bar
from repro.workloads.streams import (
    active_batch,
    share_streams,
    stream_limit,
    workload_stream,
)

INSTRUCTIONS = 600
WARMUP = 300


def _cells():
    cells = []
    for benchmark in ("compress", "espresso"):
        for machine in ("ooo", "inorder"):
            for label in ("N", "S1", "U1", "E1", "CC1"):
                cells.append(SimJob.bar(benchmark, machine, label,
                                        INSTRUCTIONS, WARMUP))
        cells.append(SimJob.bar(benchmark, "inorder", "S1", INSTRUCTIONS,
                                WARMUP, policy="rrip"))
        # miss_profile replays through run_cell's stream_wrap;
        # prefetch_schedule draws the stream twice in one job.
        for experiment in ("miss_profile", "prefetch_schedule"):
            cells.append(SimJob.app(experiment, benchmark, "lab",
                                    INSTRUCTIONS, WARMUP))
    cells.append(SimJob.bar("compress", "ooo", "U1", INSTRUCTIONS, WARMUP,
                            seed=1))
    return cells


CELLS = _cells()
_FRESH = {}


def _fresh(job):
    """The job's result from a fresh generator, outside any batch."""
    if job not in _FRESH:
        assert active_batch() is None
        _FRESH[job] = execute_job(job)
    return _FRESH[job]


def _serial_runner(execute=execute_job, **options):
    return JobRunner(ExecOptions(jobs=1, cache=False, **options),
                     execute=execute)


@pytest.fixture
def interp(monkeypatch):
    from repro.vec import BACKEND_ENV

    monkeypatch.delenv(BACKEND_ENV, raising=False)


@pytest.fixture
def stream_calls(monkeypatch):
    """Counts SyntheticWorkload.stream calls."""
    calls = []
    original = synthetic.SyntheticWorkload.stream

    def counting(self, *args, **kwargs):
        calls.append(self.spec.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(synthetic.SyntheticWorkload, "stream", counting)
    return calls


class _Probe:
    """An ``execute`` that records the thread's batch state before
    running each job for real (or failing, per *fail_at*)."""

    def __init__(self, fail_at=None, drain_after=None):
        self.seen = []
        self.fail_at = fail_at
        self.drain_after = drain_after
        self.runner = None  # set to request a drain after drain_after

    def __call__(self, job):
        batch = active_batch()
        self.seen.append((batch, batch.memoised if batch else None))
        if len(self.seen) == self.fail_at:
            raise RuntimeError("injected job failure")
        result = execute_job(job)
        if len(self.seen) == self.drain_after:
            self.runner.request_drain()
        return result

    @property
    def batches(self):
        return {id(batch): batch for batch, _ in self.seen
                if batch is not None}.values()


# -- parity --------------------------------------------------------------------

@settings(max_examples=12, deadline=None)
@given(order=st.lists(st.sampled_from(range(len(CELLS))), min_size=2,
                      max_size=9))
def test_batch_equals_fresh_generators(order):
    """Any cell order (repeats included) gives the fresh-run results."""
    jobs = [CELLS[i] for i in order]
    expected = [_fresh(job) for job in jobs]
    assert _serial_runner().run(jobs) == expected
    assert active_batch() is None


def test_batch_generates_each_shared_stream_once(interp, stream_calls):
    jobs = [SimJob.bar(benchmark, machine, label, INSTRUCTIONS, WARMUP)
            for benchmark in ("compress", "ora")
            for machine in ("ooo", "inorder")
            for label in ("N", "U1")]
    _serial_runner().run(jobs)
    assert sorted(stream_calls) == ["compress", "ora"]


def test_stream_key_uses_the_shared_bound():
    job = SimJob.bar("ora", "ooo", "N", 700, 200, seed=3)
    assert job.stream_key() == ("ora", 3, stream_limit(700, 200))
    assert SimJob.access_control("lu", "ECC", {}).stream_key() is None


def test_replays_are_independent_and_lazy(stream_calls):
    key = ("compress", 0, 1000)
    with share_streams([key, key]) as batch:
        first = workload_stream(*key)
        second = workload_stream(*key)
        head = [next(first) for _ in range(10)]
        assert [next(second) for _ in range(10)] == head
        assert len(list(first)) == 990
        assert batch.memoised == 1
    assert stream_calls == ["compress"]
    assert batch.memoised == 0


# -- lifetime ------------------------------------------------------------------

def _grid():
    return [SimJob.bar(benchmark, "inorder", label, INSTRUCTIONS, WARMUP)
            for benchmark in ("compress", "ora")
            for label in ("N", "S1")]


def test_key_dropped_after_its_last_job(interp):
    probe = _Probe()
    _serial_runner(probe).run(_grid())
    # compress's stream is live during its second job, then dropped
    # before ora's first job builds ora's.
    assert [memoised for _, memoised in probe.seen] == [0, 1, 0, 1]
    (batch,) = probe.batches
    assert batch.memoised == 0
    assert active_batch() is None


def test_nothing_outlives_a_failed_run(interp):
    probe = _Probe(fail_at=2)
    runner = _serial_runner(probe, retries=0)
    with pytest.raises(JobFailedError):
        runner.run(_grid())
    (batch,) = probe.batches
    assert batch.memoised == 0
    assert active_batch() is None


def test_nothing_outlives_a_drained_run(interp):
    probe = _Probe(drain_after=1)
    runner = _serial_runner(probe)
    probe.runner = runner
    results = runner.run(_grid())
    assert results[0] is not None and results[1:] == [None] * 3
    (batch,) = probe.batches
    assert batch.memoised == 0
    assert active_batch() is None


def test_nothing_outlives_a_timed_out_run(interp):
    probe = _Probe()
    runner = _serial_runner(probe, timeout=1e-9)
    with pytest.raises(JobTimeoutError):
        runner.run(_grid())
    (batch,) = probe.batches
    assert batch.memoised == 0
    assert active_batch() is None


def test_single_job_batch_never_memoises(interp, stream_calls):
    probe = _Probe()
    runner = _serial_runner(probe)
    runner.run(_grid()[:1])
    runner.run(_grid()[:1])
    assert probe.seen == [(None, None), (None, None)]
    assert len(stream_calls) == 2


def test_unshared_keys_never_memoise(interp):
    probe = _Probe()
    jobs = [SimJob.bar(benchmark, "ooo", "N", INSTRUCTIONS, WARMUP)
            for benchmark in ("compress", "ora")]
    _serial_runner(probe).run(jobs)
    assert probe.seen == [(None, None), (None, None)]


def test_direct_run_bar_never_memoises(interp, stream_calls):
    for _ in range(2):
        run_bar("ora", "inorder", bar_config("N"), INSTRUCTIONS, WARMUP)
    assert active_batch() is None
    assert stream_calls == ["ora", "ora"]


def test_batches_are_per_thread(interp):
    """A batch on one thread is invisible to another thread's cells."""
    key = ("ora", 0, 500)
    seen = []
    with share_streams([key, key]):
        worker = threading.Thread(target=lambda: seen.append(active_batch()))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert active_batch() is not None
    assert seen == [None]


# -- the figure2 grid ----------------------------------------------------------

@pytest.mark.slow
def test_figure2_quick_generates_each_stream_once(interp, stream_calls,
                                                  monkeypatch):
    """The full --quick grid builds 13 streams (not 130), never builds
    a vec decode on the interp path, and stays golden digit-exact."""
    import json
    import os

    import repro.vec.decode as decode
    from repro.harness.runner import figure2

    decodes = []
    monkeypatch.setattr(decode.DecodedWorkload, "__init__",
                        lambda *a, **k: decodes.append(a))
    result = figure2(instructions=7_500, warmup=3_750)
    assert len(stream_calls) == 13
    assert decodes == []
    golden_path = os.path.join(os.path.dirname(__file__), os.pardir,
                               "results", "golden", "figure2_quick.json")
    with open(golden_path) as fh:
        golden = json.load(fh)["bars"]
    assert [asdict(bar) for bar in result.bars] == golden


# -- the numpy-free vec decode -------------------------------------------------

def test_run_path_imports_no_numpy():
    import os

    import repro

    code = ("import sys, repro.vec.decode, repro.harness.runner; "
            "print('numpy' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_decode_cache_is_thread_safe():
    """Threads replaying one (benchmark, seed) share a DecodedWorkload;
    they must never advance its generator concurrently."""
    from repro.vec.decode import clear_decode_cache

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    errors, results = [], []

    def replay():
        try:
            results.append(run_bar("compress", "ooo", bar_config("U1"),
                                   2000, 500, seed=7, backend="vec"))
        except Exception as exc:  # the regression: ValueError
            errors.append(exc)

    try:
        for _ in range(3):
            clear_decode_cache()
            threads = [threading.Thread(target=replay) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
        clear_decode_cache()
    assert errors == []
    assert len(results) == 12
    reference = run_bar("compress", "ooo", bar_config("U1"), 2000, 500,
                        seed=7, backend="interp")
    assert all(result == reference for result in results)
