"""Counters, fixed-bucket histograms and the two registry renderings."""

from __future__ import annotations

import json

import pytest

from repro.obs import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_accumulates(self, registry):
        counter = registry.counter("events_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative_increments(self, registry):
        with pytest.raises(ValueError):
            registry.counter("events_total").inc(-1)

    def test_histogram_places_observations_in_fixed_buckets(self, registry):
        histogram = registry.histogram("latency", edges=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(56.05)
        # Cumulative counts, +Inf last — Prometheus semantics.
        assert histogram.cumulative_buckets() == [
            ("0.1", 1),
            ("1", 3),
            ("10", 4),
            ("+Inf", 5),
        ]

    def test_histogram_rejects_bad_edges(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("empty", edges=())
        with pytest.raises(ValueError):
            registry.histogram("unsorted", edges=(1.0, 0.5))


class TestRegistry:
    def test_same_address_returns_same_instrument(self, registry):
        assert registry.counter("hits") is registry.counter("hits")

    def test_label_order_is_canonical(self, registry):
        first = registry.counter("hits", labels={"a": 1, "b": 2})
        second = registry.counter("hits", labels={"b": 2, "a": 1})
        assert first is second

    def test_distinct_labels_are_distinct_series(self, registry):
        registry.counter("hits", labels={"status": "200"}).inc()
        registry.counter("hits", labels={"status": "304"}).inc(2)
        assert registry.counter_value("hits", {"status": "200"}) == 1
        assert registry.counter_value("hits", {"status": "304"}) == 2

    def test_kind_conflicts_are_rejected(self, registry):
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.histogram("thing")

    def test_counter_value_defaults_to_zero(self, registry):
        assert registry.counter_value("never_created") == 0


class TestRendering:
    def test_to_dict_is_json_shaped(self, registry):
        registry.counter("hits", labels={"route": "/runs"}, help="requests").inc(2)
        registry.histogram("lat", edges=(0.5,)).observe(0.1)
        payload = json.loads(json.dumps(registry.to_dict()))
        hits = payload["metrics"]["hits"]
        assert hits["type"] == "counter"
        assert hits["help"] == "requests"
        assert hits["series"] == [{"labels": {"route": "/runs"}, "value": 2}]
        lat = payload["metrics"]["lat"]["series"][0]
        assert lat["count"] == 1
        assert lat["buckets"][-1] == {"le": "+Inf", "count": 1}

    def test_prometheus_exposition_format(self, registry):
        registry.counter("hits", labels={"route": "/runs"}, help="requests").inc(2)
        registry.histogram("lat", edges=(0.5, 1.0)).observe(0.1)
        text = registry.render_prometheus()
        assert "# HELP hits requests" in text
        assert "# TYPE hits counter" in text
        assert 'hits{route="/runs"} 2' in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="0.5"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 0.1" in text
        assert "lat_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_label_values_are_escaped(self, registry):
        registry.counter("odd", labels={"v": 'a"b\\c\nd'}).inc()
        text = registry.render_prometheus()
        assert 'odd{v="a\\"b\\\\c\\nd"} 1' in text

    def test_rendering_is_deterministic_under_creation_order(self):
        forward, backward = MetricsRegistry(), MetricsRegistry()
        forward.counter("a").inc()
        forward.counter("b").inc()
        backward.counter("b").inc()
        backward.counter("a").inc()
        assert forward.render_prometheus() == backward.render_prometheus()
        assert forward.to_dict() == backward.to_dict()
