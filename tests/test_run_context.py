"""repro.context.RunContext: the per-run settings every job executes
under — default outside a run, entered around each job, picklable for
pool workers, and private to the thread that entered it."""

import os
import pickle
import sys
import threading
import time

from repro.context import DEFAULT_CONTEXT, RunContext, current_context
from repro.exec import ExecOptions, JobRunner, SimJob


def report_context(job):
    """Payload: the run settings this job executed under.  Sleeps first,
    so other threads run while this one is inside its context."""
    time.sleep(0.001)
    ctx = current_context()
    return {"backend": ctx.backend, "sanitize": ctx.sanitize,
            "obs_dir": ctx.obs_dir, "pid": os.getpid()}


def _jobs(count):
    return [SimJob.bar(benchmark=f"b{i}", machine="m", label="N",
                       instructions=1, warmup=0) for i in range(count)]


def test_default_outside_any_run():
    assert current_context() is DEFAULT_CONTEXT
    assert DEFAULT_CONTEXT.backend == "interp"
    assert not DEFAULT_CONTEXT.sanitize
    assert DEFAULT_CONTEXT.obs_dir is None
    assert DEFAULT_CONTEXT.traceparent is None


def test_entering_nests_and_restores():
    outer, inner = RunContext(backend="vec"), RunContext(sanitize=True)
    with outer:
        with inner:
            assert current_context() is inner
        assert current_context() is outer
    assert current_context() is DEFAULT_CONTEXT


def test_pickles_by_value():
    ctx = RunContext(backend="vec", sanitize=True, obs_dir="/tmp/o",
                     traceparent="00-" + "1" * 32 + "-" + "2" * 16 + "-01",
                     spans_path="/tmp/s.jsonl", flight_dir="/tmp/f")
    assert pickle.loads(pickle.dumps(ctx)) == ctx


def test_serial_jobs_run_under_the_options_and_nothing_outlives_the_run(
        tmp_path):
    runner = JobRunner(ExecOptions(cache=False, backend="vec", sanitize=True,
                                   obs_dir=str(tmp_path)),
                       execute=report_context)
    results = runner.run(_jobs(2))
    assert all(r["backend"] == "vec" and r["sanitize"]
               and r["obs_dir"] == str(tmp_path) for r in results)
    assert current_context() is DEFAULT_CONTEXT


def test_pool_workers_receive_the_context_with_each_job(tmp_path):
    results = JobRunner(ExecOptions(jobs=2, cache=False, backend="vec",
                                    sanitize=True, obs_dir=str(tmp_path)),
                        execute=report_context).run(_jobs(4))
    assert os.getpid() not in {r["pid"] for r in results}
    assert all(r["backend"] == "vec" and r["sanitize"]
               and r["obs_dir"] == str(tmp_path) for r in results)
    plain = JobRunner(ExecOptions(jobs=2, cache=False),
                      execute=report_context).run(_jobs(4))
    assert not any(r["sanitize"] or r["obs_dir"] for r in plain)


def test_threads_never_see_each_others_context():
    """Concurrent runners (serve shards) keep their settings apart."""
    errors = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def worker(index):
        backend = "vec" if index % 2 else "interp"
        runner = JobRunner(ExecOptions(cache=False, backend=backend,
                                       obs_dir=f"/obs/{index}"),
                           execute=report_context)
        for _ in range(20):
            for result in runner.run(_jobs(3)):
                if (result["backend"], result["obs_dir"]) != (
                        backend, f"/obs/{index}"):
                    errors.append((index, result))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
