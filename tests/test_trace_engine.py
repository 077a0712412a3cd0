"""Tracing through the exec engine: serial and pool propagation, the
unsampled zero-span path, pool-broken re-parenting, and flight dumps."""

import json
import os

import pytest

from repro.exec import CollectingSink, ExecOptions, JobRunner, SimJob
from repro.harness.spans_cli import build_tree, group_by_trace
from repro.sanitize.chaos import chaos_execute
from repro.trace import clear_ambient
from repro.trace.exporters import read_spans


@pytest.fixture(autouse=True)
def _clean_ambient():
    clear_ambient()
    yield
    clear_ambient()


def bar_job(name="compress", machine="ooo", label="S10", seed=0):
    return SimJob.bar(benchmark=name, machine=machine, label=label,
                      instructions=800, warmup=200, seed=seed)


def echo_execute(job):
    return {"label": job.label}


def options(**overrides):
    overrides.setdefault("jobs", 1)
    overrides.setdefault("cache", False)
    overrides.setdefault("backoff", 0.01)
    return ExecOptions(**overrides)


def one_tree(path):
    """Read a spans file, assert a single connected trace, return it."""
    records, bad = read_spans(path)
    assert bad == 0
    groups = group_by_trace(records)
    assert len(groups) == 1, f"expected one trace, got {sorted(groups)}"
    tree = build_tree(next(iter(groups.values())))
    assert len(tree["roots"]) == 1, [r["name"] for r in tree["roots"]]
    return tree


class TestUnsampledIsSpanFree:
    def test_no_spans_artifact_and_no_span_field(self, tmp_path):
        trace = tmp_path / "telemetry.jsonl"
        runner = JobRunner(options(trace_path=str(trace),
                                   manifest_dir=str(tmp_path / "runs")),
                           execute=echo_execute)
        runner.run([bar_job("a"), bar_job("b")])
        assert runner.last_spans is None
        events = [json.loads(line) for line in
                  trace.read_text().splitlines()]
        assert all("span" not in e for e in events)
        spans_files = list(tmp_path.rglob("spans.jsonl"))
        assert spans_files == []


class TestSerialPropagation:
    def test_connected_tree_with_nested_sim_spans(self, tmp_path):
        trace = tmp_path / "telemetry.jsonl"
        runner = JobRunner(options(trace_sample=1.0,
                                   trace_path=str(trace),
                                   manifest_dir=str(tmp_path / "runs")))
        runner.run([bar_job(label="N"), bar_job(label="S10")])
        assert runner.last_spans is not None
        tree = one_tree(runner.last_spans)
        root = tree["roots"][0]
        assert root["name"] == "run"
        names = sorted(r["name"] for r in tree["by_id"].values())
        assert names.count("job") == 2
        assert names.count("sim.execute") == 2
        assert names.count("replay") == 2
        # jobs nest under the run; sim.execute nests under its job
        jobs = [r for r in tree["by_id"].values() if r["name"] == "job"]
        assert all(j["parent_id"] == root["span_id"] for j in jobs)
        sims = [r for r in tree["by_id"].values()
                if r["name"] == "sim.execute"]
        assert {s["parent_id"] for s in sims} <= {j["span_id"]
                                                  for j in jobs}
        assert all(j["attrs"]["mode"] == "serial" for j in jobs)

    def test_finished_telemetry_joins_spans(self, tmp_path):
        trace = tmp_path / "telemetry.jsonl"
        runner = JobRunner(options(trace_sample=1.0,
                                   trace_path=str(trace),
                                   spans_path=str(tmp_path / "s.jsonl")),
                           execute=echo_execute)
        runner.run([bar_job("a")])
        events = [json.loads(line) for line in
                  trace.read_text().splitlines()]
        finished = [e for e in events if e["event"] == "finished"]
        records, _ = read_spans(str(tmp_path / "s.jsonl"))
        job_span_ids = {r["span_id"] for r in records
                        if r["name"] == "job"}
        assert [e["span"] for e in finished] and \
            set(e["span"] for e in finished) <= job_span_ids

    def test_traced_results_digit_exact(self, tmp_path):
        jobs = [bar_job(label="N"), bar_job(label="S10")]
        plain = JobRunner(options()).run([bar_job(label="N"),
                                          bar_job(label="S10")])
        traced = JobRunner(options(
            trace_sample=1.0,
            spans_path=str(tmp_path / "s.jsonl"))).run(jobs)
        assert traced == plain


class TestPoolPropagation:
    def test_workers_join_the_run_trace(self, tmp_path):
        runner = JobRunner(options(jobs=2,
                                   manifest_dir=str(tmp_path / "runs"),
                                   trace_sample=1.0))
        runner.run([bar_job(label=label)
                    for label in ("N", "S1", "S10", "U10")])
        tree = one_tree(runner.last_spans)
        pids = {r["pid"] for r in tree["by_id"].values()}
        assert len(pids) >= 2, "no spans from pool workers"
        sims = [r for r in tree["by_id"].values()
                if r["name"] == "sim.execute"]
        assert len(sims) == 4
        assert any(r["pid"] != tree["roots"][0]["pid"] for r in sims)
        jobs = [r for r in tree["by_id"].values() if r["name"] == "job"]
        assert all(j["attrs"]["mode"] == "pool" for j in jobs)

    def test_env_restored_after_run(self, tmp_path):
        """The trace context reaches workers with each job, never
        through the process environment."""
        before = dict(os.environ)
        runner = JobRunner(options(jobs=2, trace_sample=1.0,
                                   spans_path=str(tmp_path / "s.jsonl")),
                           execute=echo_execute)
        runner.run([bar_job("a"), bar_job("b")])
        assert dict(os.environ) == before

    def test_pool_results_digit_exact_with_tracing(self, tmp_path):
        jobs = [bar_job(label=label) for label in ("N", "S10")]
        plain = JobRunner(options()).run(jobs)
        traced = JobRunner(options(
            jobs=2, trace_sample=1.0,
            spans_path=str(tmp_path / "s.jsonl"))).run(
                [bar_job(label=label) for label in ("N", "S10")])
        assert traced == plain


class TestPoolBrokenFallback:
    def test_fallback_jobs_reparent_and_flight_dumps(self, tmp_path):
        spans_path = tmp_path / "s.jsonl"
        jobs = [SimJob.bar(benchmark=name, machine="m", label=f"L-{name}",
                           instructions=1, warmup=0, seed=0)
                for name in ("ok-a", "kill-1", "ok-b")]
        sink = CollectingSink()
        runner = JobRunner(options(jobs=2, trace_sample=1.0,
                                   spans_path=str(spans_path),
                                   manifest_dir=str(tmp_path / "runs")),
                           execute=chaos_execute, sinks=[sink])
        results = runner.run(jobs)
        assert all(r is not None for r in results)
        assert runner.stats.pool_breaks == 1

        records, _ = read_spans(str(spans_path))
        tree = build_tree(records)
        root = tree["roots"][0]
        assert root["name"] == "run"
        job_spans = [r for r in records if r["name"] == "job"]
        # Orphaned pool spans are closed as errors; the serial re-run
        # re-parents every job to the same run span.
        modes = {r["attrs"]["mode"] for r in job_spans}
        assert "serial_fallback" in modes
        fallback = [r for r in job_spans
                    if r["attrs"]["mode"] == "serial_fallback"]
        assert all(r["parent_id"] == root["span_id"] for r in fallback)
        broken = [r for r in job_spans
                  if (r.get("attrs") or {}).get("pool_broken")]
        assert broken and all(r["status"] == "error" for r in broken)
        # same trace id across the break
        assert {r["trace_id"] for r in records} == {root["trace_id"]}

        # The dump lands in the run's own directory.
        run_dir = tmp_path / "runs" / runner.last_run_id
        dumps = list(run_dir.glob("flight_pool_broken_*.json"))
        assert len(dumps) == 1
        payload = json.loads(dumps[0].read_text())
        kinds = {e["kind"] for e in payload["events"]}
        assert any(k.startswith("job.") for k in kinds)


class TestFlightDumpFaultClasses:
    def test_violation_dumps_once(self, tmp_path):
        def violate(job):
            from repro.sanitize import InvariantViolation
            raise InvariantViolation("test.invariant", "L1D", 7, "boom")

        runner = JobRunner(options(manifest_dir=str(tmp_path / "runs")),
                           execute=violate)
        runner.run([SimJob.bar(benchmark="v", machine="m", label="V",
                               instructions=1, warmup=0, seed=0)])
        dumps = list(tmp_path.rglob("flight_invariant_violation_*.json"))
        assert len(dumps) == 1
        assert dumps[0].parent.name == runner.last_run_id

    def test_untraced_run_without_flight_dir_stays_clean(self, tmp_path,
                                                         monkeypatch):
        """No destination, no litter: a violation in a run without a
        run dir must not write into cwd."""
        monkeypatch.chdir(tmp_path)

        def violate(job):
            from repro.sanitize import InvariantViolation
            raise InvariantViolation("test.invariant", "L1D", 7, "boom")

        runner = JobRunner(options(), execute=violate)
        runner.run([SimJob.bar(benchmark="v", machine="m", label="V",
                               instructions=1, warmup=0, seed=0)])
        assert list(tmp_path.glob("flight_*.json")) == []


class TestManifestLink:
    def test_manifest_records_spans_path(self, tmp_path):
        runner = JobRunner(options(trace_sample=1.0,
                                   manifest_dir=str(tmp_path / "runs")))
        runner.run([bar_job()])
        manifest = json.loads(open(runner.last_manifest).read())
        assert manifest["spans_path"] == runner.last_spans
        assert os.path.isfile(manifest["spans_path"])
        assert os.path.dirname(manifest["spans_path"]) == \
            os.path.dirname(runner.last_manifest)

    def test_untraced_manifest_has_null_spans_path(self, tmp_path):
        runner = JobRunner(options(manifest_dir=str(tmp_path / "runs")))
        runner.run([bar_job()])
        manifest = json.loads(open(runner.last_manifest).read())
        assert manifest["spans_path"] is None
