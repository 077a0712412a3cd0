"""Unit tests for the repro.obs observability layer.

Covers the event taxonomy, the metrics registry, Observer hook
behaviour (trace vs metrics-only, handler-run tracking, conflict heat,
MSHR high-water timeline, reset), run-context gating, and both trace
exporters (JSONL round-trip, Chrome ``trace_event`` schema).
"""

import json
import os

import pytest

from repro.context import RunContext
from repro.obs import (
    EVENT_KINDS,
    Observer,
    chrome_trace,
    job_trace_path,
    make_event,
    maybe_observer,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_run_artifacts,
)
from repro.obs import events as ev
from repro.obs.metrics import Counter, Histogram, Registry, top_n


class _FakeEntry:
    def __init__(self, mshr_id=0, line_addr=0, merged=0):
        self.mshr_id = mshr_id
        self.line_addr = line_addr
        self.merged = merged


class _FakeCache:
    def __init__(self, name="L1"):
        self.name = name


class _FakeVictim:
    def __init__(self, line_addr, dirty):
        self.line_addr = line_addr
        self.dirty = dirty


class _FakeInst:
    def __init__(self, pc=0x100, addr=0x2000):
        self.pc = pc
        self.addr = addr


class TestEventTaxonomy:
    def test_every_kind_constant_is_documented(self):
        kinds = {getattr(ev, name) for name in dir(ev)
                 if name.isupper() and name != "EVENT_KINDS"
                 and isinstance(getattr(ev, name), str)}
        assert kinds == set(EVENT_KINDS)

    def test_make_event(self):
        event = make_event(7, ev.L1_HIT, line=3, write=True)
        assert event == {"cycle": 7, "kind": "l1.hit",
                        "line": 3, "write": True}


class TestMetrics:
    def test_counter(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_histogram_power_of_two_buckets(self):
        h = Histogram("lat")
        for value in (0, 1, 2, 3, 4, 7, 8, 100):
            h.record(value)
        assert h.buckets == {0: 1, 1: 1, 2: 2, 4: 2, 8: 1, 64: 1}
        assert h.count == 8
        assert h.total == 125
        assert h.min == 0 and h.max == 100
        assert h.mean == pytest.approx(125 / 8)

    def test_histogram_empty(self):
        h = Histogram("lat")
        assert h.mean == 0.0
        assert h.render() == ["  (empty)"]
        assert h.to_dict()["count"] == 0

    def test_histogram_render_and_dict(self):
        h = Histogram("lat")
        for _ in range(4):
            h.record(10)
        h.record(1)
        rows = h.render(width=8)
        assert any("[     8,    16) ######## 4" in row for row in rows)
        data = h.to_dict()
        assert data["buckets"] == {"1": 1, "8": 4}
        assert json.dumps(data)  # JSON-able with no conversion

    def test_registry_create_on_first_use(self):
        r = Registry()
        r.counter("a").inc()
        assert r.counter("a").value == 1
        r.histogram("h").record(2)
        assert r.counters() == {"a": 1}
        data = r.to_dict()
        assert data["counters"] == {"a": 1}
        assert data["histograms"]["h"]["count"] == 1

    def test_top_n_orders_by_count_then_key(self):
        heat = {0: 3, 1: 9, 2: 3, 3: 1}
        assert top_n(heat, 3) == [(1, 9), (0, 3), (2, 3)]


class TestObserverHooks:
    def test_metrics_only_mode_records_no_events(self):
        obs = Observer(trace=False)
        obs.on_access(5)
        obs.on_l1_hit(3, False)
        obs.on_l1_miss(4, 2, 5, 17, 0)
        assert obs.events == []
        assert obs.counts() == {"accesses": 1, "l1.hit": 1, "l1.miss": 1,
                                "l2.hit": 1}

    def test_miss_levels_and_latency(self):
        obs = Observer()
        obs.on_access(10)
        obs.on_l1_miss(1, 2, 10, 22, 0)
        obs.on_access(11)
        obs.on_l1_miss(2, 3, 11, 86, 1)
        counts = obs.counts()
        assert counts["l2.hit"] == 1 and counts["l2.miss"] == 1
        lat = obs.metrics.histogram("miss_latency")
        assert lat.min == 12 and lat.max == 75
        assert [e["kind"] for e in obs.events] == [ev.L1_MISS, ev.L1_MISS]

    def test_stream_buffer_counts_as_hit_or_miss(self):
        obs = Observer()
        obs.on_stream_buffer(7, arrived=True)
        obs.on_stream_buffer(8, arrived=False)
        assert obs.counts() == {"l1.hit": 1, "l1.miss": 1}
        assert all(e["via"] == "stream" for e in obs.events)

    def test_cache_fill_evict_and_conflict_heat(self):
        obs = Observer()
        cache = _FakeCache("L1")
        obs.cycle = 30
        obs.on_cache_fill(cache, 2, 0x40, None)
        obs.on_cache_fill(cache, 2, 0x42, _FakeVictim(0x40, dirty=True))
        obs.on_cache_invalidate(cache, 2, 0x42)
        assert obs.conflict_heat == {"L1": {2: 1}}
        kinds = [e["kind"] for e in obs.events]
        assert kinds == [ev.CACHE_FILL, ev.CACHE_FILL, ev.CACHE_EVICT,
                         ev.CACHE_INVAL]
        evict = obs.events[2]
        assert evict["dirty"] is True and evict["line"] == 0x40

    def test_mshr_high_water_timeline(self):
        obs = Observer()
        obs.cycle = 1
        obs.on_mshr_alloc(_FakeEntry(0), 1)
        obs.cycle = 2
        obs.on_mshr_alloc(_FakeEntry(1), 2)
        obs.cycle = 3
        obs.on_mshr_fill(_FakeEntry(0), 2)
        obs.on_mshr_alloc(_FakeEntry(2), 2)   # not a new high water
        obs.cycle = 9
        obs.on_mshr_alloc(_FakeEntry(3), 3)
        assert obs.mshr_timeline == [(1, 1), (2, 2), (9, 3)]

    def test_mshr_merge_and_squashed_release(self):
        obs = Observer()
        obs.on_mshr_merge(_FakeEntry(0, merged=2))
        obs.on_mshr_release(_FakeEntry(0), squashed=True, occupancy=0)
        obs.on_mshr_release(_FakeEntry(1), squashed=False, occupancy=0)
        counts = obs.counts()
        assert counts["mshr.merge"] == 1
        assert counts["mshr.release"] == 2
        assert counts["mshr.squashed"] == 1

    def test_handler_run_open_close(self):
        obs = Observer()
        obs.on_trap_fire(_FakeInst(), 10)
        obs.on_handler_commit(100)
        obs.on_handler_commit(101)
        obs.on_handler_commit(102)
        obs.on_app_commit(103)
        assert obs.counts()[ev.TRAP_FIRE] == 1
        assert obs.counts()[ev.TRAP_RETURN] == 1
        ret = [e for e in obs.events if e["kind"] == ev.TRAP_RETURN][0]
        assert ret == {"cycle": 103, "kind": ev.TRAP_RETURN,
                       "start": 100, "committed": 3}

    def test_finish_closes_open_handler_run(self):
        obs = Observer()
        obs.on_handler_commit(50)
        obs.finish()
        assert obs.counts()[ev.TRAP_RETURN] == 1
        assert obs.metrics.histogram("handler_committed").count == 1

    def test_app_commit_without_handler_is_quiet(self):
        obs = Observer()
        obs.on_app_commit(5)
        obs.finish()
        assert ev.TRAP_RETURN not in obs.counts()

    def test_slots_are_metrics_only(self):
        obs = Observer()
        obs.on_slots(1, busy=3, lost=1, cache_blame=True)
        obs.on_slots(2, busy=0, lost=4, cache_blame=False)
        counts = obs.counts()
        assert counts["slots.cycles"] == 2
        assert counts["slots.busy"] == 3
        assert counts["slots.cache_stall"] == 1
        assert counts["slots.other_stall"] == 4
        assert obs.events == []

    def test_reset_drops_everything(self):
        obs = Observer()
        obs.on_access(4)
        obs.on_l1_hit(1, False)
        obs.on_cache_fill(_FakeCache(), 0, 1, _FakeVictim(0, False))
        obs.on_mshr_alloc(_FakeEntry(), 1)
        obs.on_handler_commit(4)
        obs.reset()
        assert obs.events == []
        assert obs.counts() == {}
        assert obs.conflict_heat == {}
        assert obs.mshr_timeline == []
        obs.finish()                    # open handler run was dropped too
        assert obs.counts() == {}


class TestEnvironmentGating:
    """Gating by the run environment a cell executes in: the current
    :class:`repro.context.RunContext`."""

    def test_off_by_default(self):
        assert maybe_observer() is None

    def test_trace_dir_implies_enabled_and_tracing(self):
        with RunContext(obs_dir="/tmp/traces"):
            obs = maybe_observer()
        assert obs is not None and obs.trace is True

    def test_explicit_overrides_environment(self):
        with RunContext(obs_dir="/tmp/traces"):
            assert maybe_observer(False) is None
        obs = maybe_observer(True)
        assert obs is not None and obs.trace is True

    def test_job_trace_path_flattens_label(self):
        assert job_trace_path("/tmp/t", "compress/ooo/S10") == \
            "/tmp/t/compress_ooo_S10.events.jsonl"


def _sample_events():
    return [
        make_event(10, ev.L1_HIT, line=1, write=False),
        make_event(11, ev.L1_MISS, line=2, level=3, start=11, ready=86,
                   mshr=0),
        make_event(12, ev.MSHR_ALLOC, mshr=0, line=2, occupancy=1),
        make_event(90, ev.TRAP_FIRE, pc=0x40, addr=0x800, handler_len=10),
        make_event(99, ev.TRAP_RETURN, start=91, committed=10),
    ]


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        events = _sample_events()
        path = str(tmp_path / "t.events.jsonl")
        assert write_jsonl(events, path) == path
        assert read_jsonl(path) == events

    def test_chrome_trace_schema(self):
        events = _sample_events()
        trace = chrome_trace(events, process_name="unit")
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        records = trace["traceEvents"]
        meta = [r for r in records if r["ph"] == "M"]
        assert meta[0]["args"]["name"] == "unit"
        lane_names = {r["args"]["name"] for r in meta[1:]}
        assert {"L1 accesses", "tag stores", "MSHRs", "informing",
                "other"} == lane_names
        payload = [r for r in records if r["ph"] != "M"]
        assert len(payload) == len(events)
        for record in payload:
            assert record["ph"] in ("i", "X")
            assert isinstance(record["ts"], int)
            if record["ph"] == "X":
                assert record["dur"] >= 1
            else:
                assert record["s"] == "t"
        # The miss spans start..ready; the trap.return spans its run.
        miss = next(r for r in payload if r["name"] == ev.L1_MISS)
        assert (miss["ts"], miss["dur"]) == (11, 75)
        ret = next(r for r in payload if r["name"] == ev.TRAP_RETURN)
        assert (ret["ts"], ret["dur"]) == (91, 8)
        json.dumps(trace)

    def test_write_chrome_trace(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(_sample_events(), path)
        with open(path) as fh:
            assert "traceEvents" in json.load(fh)

    def test_write_run_artifacts(self, tmp_path):
        obs = Observer(trace=True)
        obs.on_access(3)
        obs.on_l1_hit(1, False)
        obs.on_cache_fill(_FakeCache("L2"), 1, 5, _FakeVictim(9, False))
        obs.cycle = 4
        obs.on_mshr_alloc(_FakeEntry(), 1)
        directory = str(tmp_path / "runs")
        paths = write_run_artifacts(obs, directory, "bench_ooo_N")
        assert os.path.exists(paths["events"])
        assert read_jsonl(paths["events"]) == obs.events
        with open(paths["metrics"]) as fh:
            payload = json.load(fh)
        assert payload["stem"] == "bench_ooo_N"
        assert payload["events"] == len(obs.events)
        assert payload["metrics"]["counters"]["l1.hit"] == 1
        assert payload["conflict_heat"] == {"L2": {"1": 1}}
        assert payload["mshr_timeline"] == [[4, 1]]

    def test_write_run_artifacts_metrics_only(self, tmp_path):
        obs = Observer(trace=False)
        obs.on_l1_hit(1, False)
        paths = write_run_artifacts(obs, str(tmp_path), "x")
        assert "events" not in paths
        assert os.path.exists(paths["metrics"])
