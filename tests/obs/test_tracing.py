"""Tracer contract: nesting, attrs, decorator, errors, null tracer."""

import os

import pytest

from repro.obs import (
    NULL_TRACER,
    Span,
    Tracer,
    disable,
    enable,
    get_tracer,
    span,
    traced,
)
from repro.obs.tracing import detached_context


class TestSpanNesting:
    def test_root_span_has_no_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        (root,) = tracer.spans()
        assert root.name == "root"
        assert root.parent_id is None
        assert root.pid == os.getpid()

    def test_children_reference_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner-a"):
                pass
            with tracer.span("inner-b"):
                pass
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["inner-a"].parent_id == outer.span_id
        assert by_name["inner-b"].parent_id == outer.span_id
        assert by_name["outer"].parent_id is None

    def test_completion_order_children_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans()] == ["inner", "outer"]

    def test_sibling_after_nested_block_is_not_a_child(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["second"].parent_id is None

    def test_current_span_id_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current_span_id() is None
        with tracer.span("outer") as outer:
            assert tracer.current_span_id() == outer.span_id
            with tracer.span("inner") as inner:
                assert tracer.current_span_id() == inner.span_id
            assert tracer.current_span_id() == outer.span_id
        assert tracer.current_span_id() is None

    def test_detached_context_breaks_inheritance(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with detached_context():
                assert tracer.current_span_id() is None
                with tracer.span("orphan"):
                    pass
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["orphan"].parent_id is None


class TestSpanRecording:
    def test_attrs_and_live_updates(self):
        tracer = Tracer()
        with tracer.span("stage", n_items=3) as live:
            live.attrs["result"] = "ok"
        (record,) = tracer.spans()
        assert record.attrs == {"n_items": 3, "result": "ok"}

    def test_timings_recorded(self):
        tracer = Tracer()
        with tracer.span("timed"):
            sum(range(1000))
        (record,) = tracer.spans()
        assert record.wall_s > 0.0
        assert record.cpu_s >= 0.0
        assert record.peak_rss_delta_kb >= 0.0
        assert record.start_unix > 0.0

    def test_error_status_and_propagation(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        (record,) = tracer.spans()
        assert record.status == "error"
        assert record.wall_s >= 0.0
        # The context variable was restored despite the exception.
        assert tracer.current_span_id() is None

    def test_to_dict_round_trip(self):
        tracer = Tracer()
        with tracer.span("wire", k="v"):
            pass
        (record,) = tracer.spans()
        clone = Span.from_dict(record.to_dict())
        assert clone == record

    def test_totals_aggregate_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("rep"):
                pass
        totals = tracer.totals()
        assert totals["rep"]["count"] == 3
        assert "rep" in tracer.render()


class TestIngest:
    def test_worker_roots_attach_to_parent(self):
        tracer = Tracer()
        with tracer.span("dispatch") as dispatch:
            pass
        # Worker payload: child completes (serializes) before its parent.
        payload = [
            {
                "name": "w-child",
                "span_id": 2,
                "parent_id": 1,
                "pid": 9999,
                "start_unix": 1.0,
                "wall_s": 0.1,
                "cpu_s": 0.1,
                "peak_rss_delta_kb": 0.0,
                "attrs": {},
                "status": "ok",
            },
            {
                "name": "w-root",
                "span_id": 1,
                "parent_id": None,
                "pid": 9999,
                "start_unix": 1.0,
                "wall_s": 0.2,
                "cpu_s": 0.2,
                "peak_rss_delta_kb": 0.0,
                "attrs": {},
                "status": "ok",
            },
        ]
        tracer.ingest(payload, parent_id=dispatch.span_id)
        by_name = {s.name: s for s in tracer.spans()}
        root = by_name["w-root"]
        child = by_name["w-child"]
        assert root.parent_id == dispatch.span_id
        assert child.parent_id == root.span_id
        assert root.pid == 9999
        # Remapped ids do not collide with the parent's.
        ids = [s.span_id for s in tracer.spans()]
        assert len(ids) == len(set(ids))


class TestGlobalTracer:
    def test_disabled_by_default(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_enable_disable_cycle(self):
        tracer = enable()
        try:
            assert get_tracer() is tracer
            with span("global-stage"):
                pass
            assert [s.name for s in tracer.spans()] == ["global-stage"]
        finally:
            disable()
        assert get_tracer() is NULL_TRACER

    def test_module_level_span_is_noop_when_disabled(self):
        with span("ignored") as live:
            assert live is None
        assert NULL_TRACER.spans() == ()
        assert NULL_TRACER.totals() == {}


class TestTracedDecorator:
    def test_records_when_enabled(self):
        @traced("deco.stage", flavour="unit")
        def work(x):
            return x + 1

        tracer = enable()
        try:
            assert work(1) == 2
        finally:
            disable()
        (record,) = tracer.spans()
        assert record.name == "deco.stage"
        assert record.attrs == {"flavour": "unit"}

    def test_default_label_is_qualname(self):
        @traced()
        def labelled():
            return 7

        tracer = enable()
        try:
            labelled()
        finally:
            disable()
        (record,) = tracer.spans()
        assert "labelled" in record.name

    def test_noop_when_disabled(self):
        calls = []

        @traced("deco.off")
        def work():
            calls.append(1)

        work()
        assert calls == [1]


class TestClusteringSpans:
    def test_traced_fit_records_sweep_and_kmeans_spans(self, small_sim):
        from repro.core import Flare, FlareConfig
        from repro.core.analyzer import AnalyzerConfig

        config = FlareConfig(analyzer=AnalyzerConfig(cluster_counts=(2, 3, 4)))
        tracer = enable()
        try:
            flare = Flare(config).fit(small_sim.dataset)
        finally:
            disable()
        spans = tracer.spans()
        (sweep,) = [s for s in spans if s.name == "cluster.sweep"]
        assert sweep.attrs["counts"] == [2, 3, 4]
        assert sweep.attrs["rows"] == len(small_sim.dataset)
        fits = [s for s in spans if s.name == "kmeans.fit"]
        assert [s.parent_id for s in fits[:3]] == [sweep.span_id] * 3
        final = fits[-1]
        assert final.parent_id != sweep.span_id
        assert final.attrs["k"] == flare.analysis.n_clusters
        assert final.attrs["restarts"] == config.analyzer.kmeans_restarts
        assert final.attrs["lloyd_passes"] == flare.analysis.kmeans.n_iter
        # One span per fit, never one per Lloyd iteration.
        assert len(fits) == 4

    def test_streaming_fit_counts_its_passes(self):
        import numpy as np

        from repro.stats import StreamingKMeans

        data = np.random.default_rng(0).normal(size=(90, 3))
        model = StreamingKMeans(4, n_init=2, seed=1)
        tracer = enable()
        try:
            result = model.fit(
                lambda: iter((data[:50], data[50:])),
                n_total=90,
                sample=data[::3],
            )
        finally:
            disable()
        seed_fit, streamed = [s for s in tracer.spans() if s.name == "kmeans.fit"]
        assert seed_fit.parent_id == streamed.span_id
        assert streamed.attrs == {
            "k": 4,
            "restarts": 2,
            "lloyd_passes": result.n_iter,
        }
