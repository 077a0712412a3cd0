"""Tracing across the HTTP boundary: traceparent continuation, foreign
and malformed headers, the unsampled span-free path, healthz metadata
and the serve span artifacts."""

import json

import pytest

from repro.serve import ServeOptions, mint_traceparent
from repro.serve.client import ServeClient  # noqa: F401  (re-export check)
from repro.harness.spans_cli import build_tree, group_by_trace
from repro.trace import clear_ambient
from repro.trace.exporters import read_spans

from tests.test_serve_gateway import LiveServer, tiny_spec


@pytest.fixture(autouse=True)
def _clean_ambient():
    clear_ambient()
    yield
    clear_ambient()


def context_execute(job):
    """Report the run settings the job executed under."""
    from repro.context import current_context

    ctx = current_context()
    return {"label": job.label, "backend": ctx.backend,
            "sanitize": ctx.sanitize}


@pytest.fixture
def traced_server(tmp_path):
    options = ServeOptions(shards=1,
                           cache_dir=str(tmp_path / "cache"),
                           manifest_dir=str(tmp_path / "runs"),
                           trace_sample=0.0)
    with LiveServer(options) as server:
        yield server


class TestTraceparentPropagation:
    def test_one_connected_tree_across_the_http_boundary(self,
                                                         traced_server):
        header = mint_traceparent()
        client_trace_id = header.split("-")[1]
        client_span_id = header.split("-")[2]
        with traced_server.client() as client:
            status, body = client.submit(tiny_spec(), traceparent=header)
        assert status == 200
        meta = body["meta"]
        assert meta["trace_id"] == client_trace_id
        spans_path = meta["spans"]
        records, bad = read_spans(spans_path)
        assert bad == 0
        groups = group_by_trace(records)
        assert set(groups) == {client_trace_id}
        tree = build_tree(records)
        assert len(tree["roots"]) == 1
        root = tree["roots"][0]
        # The gateway's root span continues the client's context.
        assert root["name"] == "http.request"
        assert root["parent_id"] == client_span_id
        names = {r["name"] for r in tree["by_id"].values()}
        assert {"http.request", "request.parse", "dispatch", "run",
                "job", "sim.execute"} <= names
        # ... and the engine's run directory holds the whole tree.
        manifest = json.loads(
            open(spans_path.replace("spans.jsonl",
                                    "manifest.json")).read())
        assert manifest["run_id"] in spans_path

    def test_unsampled_header_stays_span_free(self, traced_server,
                                              tmp_path):
        header = mint_traceparent(sampled=False)
        with traced_server.client() as client:
            status, body = client.submit(tiny_spec(seed=1),
                                         traceparent=header)
        assert status == 200
        assert "trace_id" not in body["meta"]
        assert body["meta"]["spans"] is None
        assert list((tmp_path / "runs").rglob("spans.jsonl")) == []

    def test_malformed_header_is_tolerated(self, traced_server):
        with traced_server.client() as client:
            status, body = client.submit(
                tiny_spec(seed=2), traceparent="not-a-traceparent")
            assert status == 200
            assert "trace_id" not in body["meta"]
            _, stats = client.stats()
        counters = stats["metrics"]["counters"]
        assert counters.get("serve.trace.malformed_context") == 1

    def test_foreign_header_is_counted_and_continued(self, traced_server):
        header = mint_traceparent()
        with traced_server.client() as client:
            status, _ = client.submit(tiny_spec(seed=3),
                                      traceparent=header)
            assert status == 200
            _, stats = client.stats()
        counters = stats["metrics"]["counters"]
        assert counters.get("serve.trace.foreign_context") == 1
        assert counters.get("serve.trace.sampled") == 1

    def test_traced_results_digit_exact_vs_untraced(self, traced_server):
        spec = tiny_spec(seed=4)
        with traced_server.client() as client:
            _, untraced = client.submit(spec)
            _, traced = client.submit(spec,
                                      traceparent=mint_traceparent())
        assert traced["result"] == untraced["result"]

    def test_cache_hit_flushes_to_fallback_file(self, traced_server,
                                                tmp_path):
        spec = tiny_spec(seed=5)
        with traced_server.client() as client:
            client.submit(spec)  # warm the cache, untraced
            status, body = client.submit(spec,
                                         traceparent=mint_traceparent())
        assert status == 200
        assert body["meta"]["cache"] == "hit"
        spans_path = body["meta"]["spans"]
        assert spans_path.endswith("serve_spans.jsonl")
        records, _ = read_spans(spans_path)
        names = {r["name"] for r in records}
        assert "http.request" in names
        assert "cache.probe" in names
        assert "dispatch" not in names  # never reached the engine


class TestHealthz:
    def test_healthz_carries_build_and_subsystem_metadata(self,
                                                          traced_server):
        with traced_server.client() as client:
            status, health = client.healthz()
        assert status == 200
        assert health["schemas"]["spans"] == 1
        assert set(health["schemas"]) == {"job", "telemetry", "manifest",
                                          "journal", "spans"}
        subsystems = health["subsystems"]
        assert subsystems["trace"] is False  # trace_sample 0.0
        assert subsystems["durable"] is False
        assert "git_sha" in health

    def test_run_settings_come_from_serve_options(self, tmp_path):
        """/healthz reports the gateway's own backend and sanitizer
        settings, and every shard runs its jobs under them."""
        options = ServeOptions(shards=1, cache_dir=str(tmp_path / "cache"),
                               backend="vec", sanitize=True)
        with LiveServer(options, execute=context_execute) as server:
            with server.client() as client:
                _, health = client.healthz()
                status, body = client.submit(tiny_spec(seed=8))
        assert health["backend"] == "vec"
        assert health["subsystems"]["sanitize"] is True
        assert status == 200
        assert body["result"]["backend"] == "vec"
        assert body["result"]["sanitize"] is True

    def test_cli_flags_fill_serve_options(self):
        from repro.serve.cli import build_parser, options_from_args

        options = options_from_args(build_parser().parse_args(
            ["--backend", "vec", "--sanitize", "--trace-sample", "7"]))
        assert options.backend == "vec"
        assert options.sanitize is True
        assert options.trace_sample == 1.0  # clamped
        default = options_from_args(build_parser().parse_args([]))
        assert (default.backend, default.sanitize,
                default.trace_sample) == (None, False, 0.0)

    def test_unknown_backend_fails_at_boot(self):
        from repro.serve import Gateway
        from repro.vec import BackendError

        with pytest.raises(BackendError):
            Gateway(ServeOptions(backend="turbo"))

    def test_stats_exposes_trace_and_flight_state(self, traced_server):
        with traced_server.client() as client:
            _, stats = client.stats()
        assert stats["trace"]["sample"] == 0.0
        flight = stats["trace"]["flight"]
        assert flight["capacity"] > 0
        assert set(flight) >= {"depth", "records", "dropped", "dumps"}


class TestServerSideSampling:
    def test_gateway_rate_traces_headerless_requests(self, tmp_path):
        options = ServeOptions(shards=1,
                               cache_dir=str(tmp_path / "cache"),
                               manifest_dir=str(tmp_path / "runs"),
                               trace_sample=1.0)
        with LiveServer(options) as server:
            with server.client() as client:
                status, body = client.submit(tiny_spec(seed=6))
                _, health = client.healthz()
        assert status == 200
        assert body["meta"]["trace_id"]
        assert health["subsystems"]["trace"] is True
        records, _ = read_spans(body["meta"]["spans"])
        tree = build_tree(records)
        assert len(tree["roots"]) == 1
        assert tree["roots"][0]["name"] == "http.request"
        assert tree["roots"][0].get("parent_id") is None  # minted here
