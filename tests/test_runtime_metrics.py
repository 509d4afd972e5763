"""Unit tests for the metrics registry: primitives, merging, rendering."""

import time

import pytest

from repro.runtime import MetricsRegistry


class TestPrimitives:
    def test_counter(self):
        metrics = MetricsRegistry()
        metrics.counter("c").inc()
        metrics.counter("c").inc(4)
        assert metrics.counter("c").value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        metrics = MetricsRegistry()
        metrics.gauge("g").set(3)
        metrics.gauge("g").set(7)
        assert metrics.gauge("g").value == 7

    def test_timer_context_manager(self):
        metrics = MetricsRegistry()
        with metrics.timer("t").time():
            time.sleep(0.01)
        timer = metrics.timer("t")
        assert timer.count == 1
        assert timer.total_s >= 0.01

    def test_timer_records_on_exception(self):
        metrics = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with metrics.timer("t").time():
                raise RuntimeError("boom")
        assert metrics.timer("t").count == 1

    def test_timer_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().timer("t").record(-1.0)

    def test_histogram_summary(self):
        metrics = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            metrics.histogram("h").observe(value)
        histogram = metrics.histogram("h")
        assert histogram.count == 3
        assert histogram.mean == 2.0
        assert histogram.min == 1.0
        assert histogram.max == 3.0

    def test_create_or_get_identity(self):
        metrics = MetricsRegistry()
        assert metrics.counter("x") is metrics.counter("x")
        assert metrics.is_empty() is False
        assert MetricsRegistry().is_empty() is True


class TestMerging:
    def test_snapshot_roundtrip(self):
        source = MetricsRegistry()
        source.counter("c").inc(3)
        source.gauge("g").set(2)
        source.timer("t").record(0.5)
        source.histogram("h").observe(4.0)

        target = MetricsRegistry()
        target.counter("c").inc(1)
        target.merge_snapshot(source.snapshot())

        assert target.counter("c").value == 4
        assert target.gauge("g").value == 2
        assert target.timer("t").total_s == 0.5
        assert target.histogram("h").count == 1

    def test_snapshot_is_plain_and_picklable(self):
        import pickle

        metrics = MetricsRegistry()
        metrics.counter("c").inc()
        snapshot = metrics.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot


class TestRender:
    def test_render_lists_all_sections(self):
        metrics = MetricsRegistry()
        metrics.counter("runtime.trials").inc(100)
        metrics.gauge("runtime.workers").set(4)
        metrics.timer("runtime.wall_clock").record(2.0)
        metrics.histogram("runtime.chunk_seconds").observe(0.5)
        text = metrics.render()
        assert "runtime metrics" in text
        assert "runtime.trials" in text
        assert "runtime.workers" in text
        assert "runtime.wall_clock" in text
        assert "runtime.chunk_seconds" in text

    def test_render_derives_throughput(self):
        metrics = MetricsRegistry()
        metrics.counter("runtime.trials").inc(100)
        metrics.timer("runtime.wall_clock").record(2.0)
        text = metrics.render()
        assert "trials/s" in text
        assert "50.0" in text
        assert "total wall-clock" in text
        assert "2.000 s" in text

    def test_render_derives_cache_hit_rate(self):
        metrics = MetricsRegistry()
        metrics.counter("cache.templates.hits").inc(9)
        metrics.counter("cache.templates.misses").inc(1)
        text = metrics.render()
        assert "cache.templates hit rate" in text
        assert "90.0 %" in text

    def test_render_custom_title(self):
        text = MetricsRegistry().render(title="after table1")
        assert "after table1" in text


class TestQuantiles:
    def test_nearest_rank_quantiles(self):
        histogram = MetricsRegistry().histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.quantile(0.5) == 50.0
        assert histogram.quantile(0.95) == 95.0
        assert histogram.quantile(0.99) == 99.0
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 100.0

    def test_quantile_empty_is_nan(self):
        import math

        histogram = MetricsRegistry().histogram("h")
        assert math.isnan(histogram.quantile(0.5))
        assert all(math.isnan(v) for v in histogram.quantiles().values())

    def test_quantile_rejects_out_of_range(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantiles([0.5, -0.1])

    def test_reservoir_is_bounded_and_sliding(self):
        from repro.runtime.metrics import Histogram

        histogram = Histogram(max_samples=8)
        for value in range(100):
            histogram.observe(float(value))
        # Exact summary stats survive the bounded reservoir...
        assert histogram.count == 100
        assert histogram.min == 0.0 and histogram.max == 99.0
        # ...while quantiles reflect the most recent window only.
        assert len(histogram._samples) == 8
        assert histogram.quantile(0.0) >= 92.0

    def test_quantiles_single_sort_matches_quantile(self):
        rng_values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        histogram = MetricsRegistry().histogram("h")
        for value in rng_values:
            histogram.observe(value)
        batch = histogram.quantiles((0.5, 0.95, 0.99))
        for q, value in batch.items():
            assert value == histogram.quantile(q)

    def test_registry_quantiles_configurable(self):
        metrics = MetricsRegistry(quantiles=(0.25, 0.75))
        for value in range(1, 5):
            metrics.histogram("h").observe(float(value))
        text = metrics.render()
        assert "p25=1" in text and "p75=3" in text

    def test_merge_snapshot_merges_reservoir(self):
        source = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            source.histogram("h").observe(value)
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        assert target.histogram("h").quantile(0.5) == 2.0


class TestPrometheus:
    def _loaded(self):
        metrics = MetricsRegistry()
        metrics.counter("serve.requests").inc(10)
        metrics.gauge("serve.queue_depth").set(3)
        metrics.timer("serve.engine").record(0.25)
        for value in range(1, 101):
            metrics.histogram("serve.latency_s").observe(value / 1000.0)
        return metrics

    def test_exposition_shape(self):
        text = self._loaded().render_prometheus()
        assert text.endswith("\n")
        assert "# TYPE serve_requests counter" in text
        assert "serve_requests 10" in text
        assert "# TYPE serve_queue_depth gauge" in text
        assert "serve_queue_depth 3" in text
        assert "# TYPE serve_engine_seconds summary" in text
        assert "serve_engine_seconds_sum 0.25" in text
        assert "serve_engine_seconds_count 1" in text

    def test_exposition_histogram_quantiles(self):
        text = self._loaded().render_prometheus()
        assert "# TYPE serve_latency_s summary" in text
        assert 'serve_latency_s{quantile="0.5"} 0.05' in text
        assert 'serve_latency_s{quantile="0.99"} 0.099' in text
        assert "serve_latency_s_count 100" in text

    def test_exposition_skips_nan_quantiles(self):
        metrics = MetricsRegistry()
        metrics.histogram("empty")  # registered, never observed
        text = metrics.render_prometheus()
        assert "quantile" not in text
        assert "empty_count 0" in text

    def test_name_sanitisation(self):
        from repro.runtime.metrics import _prometheus_name

        assert _prometheus_name("serve.latency_s") == "serve_latency_s"
        assert _prometheus_name("cache.plans.hits") == "cache_plans_hits"
        assert _prometheus_name("9lives") == "_9lives"
        assert _prometheus_name("a-b c") == "a_b_c"

    def test_parseable_lines(self):
        # Every non-comment line is "<name>[{labels}] <float>".
        for line in self._loaded().render_prometheus().strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name
            float(value)  # must parse
