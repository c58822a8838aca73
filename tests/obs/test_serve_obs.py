"""The serve-side observability surface: /metrics, /progress, pagination, logging."""

from __future__ import annotations

import io
import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import REGISTRY
from repro.store import StoreServer

PROGRESS_SNAPSHOT = {
    "campaign": "table1",
    "total_runs": 3,
    "workers": 2,
    "started": 3,
    "completed": 1,
    "cached": 0,
    "failed": 0,
    "remaining": 2,
    "finished": False,
    "elapsed_s": 0.8,
    "rate_runs_per_s": 1.25,
    "eta_s": 1.6,
}


@pytest.fixture
def server(seeded_store):
    seeded_store.save_progress(PROGRESS_SNAPSHOT)
    with StoreServer(seeded_store) as running:
        yield running


def _get_raw(server: StoreServer, path: str, headers=None):
    request = urllib.request.Request(server.url + path, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as error:
        if error.code == 304:  # urllib treats Not Modified as an error
            return 304, error.headers, b""
        raise


def _get_json(server: StoreServer, path: str, headers=None):
    status, headers, body = _get_raw(server, path, headers)
    return status, headers, json.loads(body)


class TestMetricsEndpoint:
    def test_prometheus_is_the_default_format(self, server):
        _get_json(server, "/healthz")  # guarantee at least one http metric
        status, headers, body = _get_raw(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
        text = body.decode("utf-8")
        assert "# TYPE http_responses_total counter" in text
        assert "# TYPE http_request_seconds histogram" in text
        assert 'http_request_seconds_bucket{endpoint="/healthz",le="+Inf"}' in text

    def test_json_format_mirrors_the_registry(self, server):
        _get_json(server, "/healthz")
        status, headers, payload = _get_json(server, "/metrics?format=json")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        families = payload["metrics"]
        assert families["http_responses_total"]["type"] == "counter"
        series = families["http_request_seconds"]["series"]
        assert any(s["labels"].get("endpoint") == "/healthz" for s in series)

    def test_unknown_format_is_a_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_raw(server, "/metrics?format=xml")
        assert excinfo.value.code == 400

    def test_scrapes_are_never_cached_stale(self, server):
        """Two scrapes straddling traffic see different counts — no memoisation."""
        _, _, first = _get_json(server, "/metrics?format=json")
        _get_json(server, "/healthz")
        _, _, second = _get_json(server, "/metrics?format=json")
        count_of = lambda payload: sum(  # noqa: E731
            series["value"]
            for series in payload["metrics"]["http_responses_total"]["series"]
        )
        assert count_of(second) > count_of(first)

    def test_request_metrics_label_collapses_dynamic_paths(self, server):
        _get_json(server, "/progress/table1")
        assert (
            REGISTRY.counter_value("http_responses_total", {"status": "200"}) > 0
        )
        _, _, payload = _get_json(server, "/metrics?format=json")
        endpoints = {
            series["labels"]["endpoint"]
            for series in payload["metrics"]["http_request_seconds"]["series"]
        }
        assert "/progress/<name>" in endpoints
        assert not any(e.startswith("/progress/table1") for e in endpoints)


    def test_a_read_response_is_already_counted(self, server):
        """Every response a client has finished reading shows in the metrics.

        The server once counted a request only after writing its body, so a
        client could read the response and scrape the registry before its
        request was counted (about a quarter of rounds missed).
        """
        histogram = REGISTRY.histogram("http_request_seconds", labels={"endpoint": "/healthz"})
        misses = 0
        for _ in range(250):
            responses = REGISTRY.counter_value("http_responses_total", {"status": "200"})
            observed = histogram.count
            status, _, _ = _get_raw(server, "/healthz")
            assert status == 200
            counted = REGISTRY.counter_value("http_responses_total", {"status": "200"})
            if counted != responses + 1 or histogram.count != observed + 1:
                misses += 1
        assert misses == 0


class TestProgressEndpoint:
    def test_serves_the_persisted_snapshot(self, server):
        status, _, payload = _get_json(server, "/progress/table1")
        assert status == 200
        assert payload["completed"] == 1
        assert payload["eta_s"] == 1.6
        assert payload["updated_at"]

    def test_unknown_campaign_is_a_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_raw(server, "/progress/never-ran")
        assert excinfo.value.code == 404

    def test_empty_name_is_a_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_raw(server, "/progress/")
        assert excinfo.value.code == 400

    def test_live_updates_bypass_the_response_cache(self, server, seeded_store):
        _, _, before = _get_json(server, "/progress/table1")
        seeded_store.save_progress(
            {**PROGRESS_SNAPSHOT, "completed": 3, "remaining": 0, "finished": True}
        )
        _, _, after = _get_json(server, "/progress/table1")
        assert before["finished"] is False
        assert after["finished"] is True


class TestRunsPagination:
    def test_pages_partition_the_run_set(self, server):
        _, _, page_one = _get_json(server, "/runs?limit=2")
        _, _, page_two = _get_json(server, "/runs?limit=2&offset=2")
        assert page_one["total"] == page_two["total"] == 3
        assert page_one["count"] == 2 and page_two["count"] == 1
        keys = [r["key"] for r in page_one["runs"] + page_two["runs"]]
        assert len(set(keys)) == 3

    def test_system_filter_and_total(self, server):
        _, _, payload = _get_json(server, "/runs?system=gpca")
        assert payload["count"] == payload["total"] == 3
        _, _, other = _get_json(server, "/runs?system=pacemaker")
        assert other["count"] == other["total"] == 0

    def test_slowest_order_serves_timings(self, server):
        _, _, payload = _get_json(server, "/runs?order=slowest")
        elapsed = [r["timing"]["elapsed_s"] for r in payload["runs"]]
        assert elapsed == sorted(elapsed, reverse=True)

    def test_each_page_has_its_own_etag_and_304(self, server):
        _, head_one, _ = _get_json(server, "/runs?limit=2")
        _, head_two, _ = _get_json(server, "/runs?limit=2&offset=2")
        assert head_one["ETag"] != head_two["ETag"]
        status, _, body = _get_raw(
            server, "/runs?limit=2&offset=2", headers={"If-None-Match": head_two["ETag"]}
        )
        assert status == 304 and body == b""

    @pytest.mark.parametrize(
        "query", ["limit=-1", "offset=-1", "limit=abc", "order=fastest"]
    )
    def test_bad_parameters_are_400(self, server, query):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_raw(server, f"/runs?{query}")
        assert excinfo.value.code == 400


class TestConcurrentClients:
    def test_fifty_clients_mix_telemetry_and_data_endpoints(self, server):
        paths = [
            "/metrics",
            "/metrics?format=json",
            "/progress/table1",
            "/runs?limit=2",
            "/runs?limit=2&offset=2",
        ]

        def fetch(index):
            status, _, body = _get_raw(server, paths[index % len(paths)])
            return status, body

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(fetch, range(50)))
        assert all(status == 200 for status, _ in results)
        # Same-path JSON bodies agree with each other (stable under races).
        runs_bodies = {body for i, (_, body) in enumerate(results) if i % len(paths) == 3}
        assert len(runs_bodies) == 1


class TestStructuredLogging:
    def test_verbose_server_emits_one_json_line_per_request(self, seeded_store):
        stream = io.StringIO()
        with StoreServer(seeded_store, verbose=True, log_stream=stream) as server:
            _, headers, _ = _get_json(server, "/healthz")
            status, _, _ = _get_raw(
                server, "/healthz", headers={"If-None-Match": headers["ETag"]}
            )
            assert status == 304
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert len(lines) == 2
        first, second = lines
        assert first == {
            "method": "GET",
            "path": "/healthz",
            "status": 200,
            "cache": "200",
            "duration_ms": first["duration_ms"],
        }
        assert first["duration_ms"] >= 0
        assert second["status"] == 304
        assert second["cache"] == "304"

    def test_a_read_response_is_already_logged(self, seeded_store):
        """The server once wrote a request's log line after its response, so
        a client could read the response and stop the server first."""
        stream = io.StringIO()
        with StoreServer(seeded_store, verbose=True, log_stream=stream) as server:
            for count in range(1, 101):
                _get_raw(server, "/healthz")
                assert len(stream.getvalue().splitlines()) == count

    def test_quiet_server_logs_nothing(self, seeded_store):
        stream = io.StringIO()
        with StoreServer(seeded_store, verbose=False, log_stream=stream) as server:
            _get_json(server, "/healthz")
        assert stream.getvalue() == ""
