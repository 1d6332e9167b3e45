"""Tests for span tracing and stage timing: nesting, attributes, sinks,
JSONL round-trip."""

import threading

import pytest

from repro.utils.metrics import MetricsRegistry
from repro.utils.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    collect_stages,
    load_trace,
    note_value,
    stage,
    walk_spans,
)


class TestNesting:
    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.name for s in tracer.roots] == ["a", "b"]

    def test_nested_spans_become_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("inner2"):
                pass
        (root,) = tracer.roots
        assert [c.name for c in root.children] == ["inner", "inner2"]
        assert [c.name for c in root.children[0].children] == ["leaf"]

    def test_duration_stamped_even_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.roots[0].duration is not None
        # The stack unwound: the next span is a fresh root, not a child.
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.roots] == ["boom", "after"]

    def test_children_nest_inside_parent_duration(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        (root,) = tracer.roots
        assert root.child_seconds() <= root.duration
        assert root.self_seconds() == pytest.approx(
            root.duration - root.child_seconds()
        )


class TestConcurrentNesting:
    def test_threads_keep_private_stacks(self):
        """Regression: spans from concurrent handler threads must nest
        under their own thread's root, never under another thread's open
        span (the stack used to be a shared instance list)."""
        tracer = Tracer()
        n_threads, per_thread = 8, 25
        barrier = threading.Barrier(n_threads)

        def worker(tid):
            barrier.wait()
            for i in range(per_thread):
                with tracer.span(f"req-{tid}", i=i):
                    with tracer.span("inner"):
                        with tracer.span("leaf"):
                            pass

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Every request became its own root with the exact 3-deep chain.
        assert len(tracer.roots) == n_threads * per_thread
        for root in tracer.roots:
            assert root.name.startswith("req-")
            assert [c.name for c in root.children] == ["inner"]
            (inner,) = root.children
            assert [c.name for c in inner.children] == ["leaf"]
            assert root.duration is not None
        # Span ids stayed unique across threads.
        seen = set()
        for _depth, span in walk_spans(tracer.roots):
            assert span.span_id not in seen
            seen.add(span.span_id)

    def test_current_span_is_per_thread(self):
        tracer = Tracer()
        observed = {}

        def worker():
            with tracer.span("other-thread"):
                observed["inner"] = tracer.current_span.name
            observed["outer"] = tracer.current_span

        with tracer.span("main-thread"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            # The worker never saw main's open span, and vice versa.
            assert tracer.current_span.name == "main-thread"
        assert observed == {"inner": "other-thread", "outer": None}
        assert sorted(s.name for s in tracer.roots) == [
            "main-thread",
            "other-thread",
        ]


class TestAttributes:
    def test_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("op", records=10) as span:
            span.set(edges=3, records=11)
        assert tracer.roots[0].attributes == {"records": 11, "edges": 3}

    def test_total_seconds_sums_matching_roots(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("op"):
                pass
        with tracer.span("other"):
            pass
        expected = sum(
            s.duration for s in tracer.roots if s.name == "op"
        )
        assert tracer.total_seconds("op") == pytest.approx(expected)
        assert tracer.total_seconds("missing") == 0.0


class TestRoundTrip:
    def test_jsonl_export_and_load(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", n=1):
            with tracer.span("inner"):
                pass
        with tracer.span("second"):
            pass
        path = tracer.export_jsonl(tmp_path / "trace.jsonl")
        loaded = load_trace(path)
        assert [s.to_dict() for s in loaded] == [
            s.to_dict() for s in tracer.roots
        ]

    def test_from_dict_tolerates_minimal_payload(self):
        span = Span.from_dict({"name": "x", "start": 0.0, "duration": None})
        assert span.name == "x"
        assert span.duration is None
        assert span.children == []

    def test_clear_drops_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.roots == []

    def test_pickle_round_trip_drops_thread_state(self):
        # Instrumented models may carry their tracer through ``save``;
        # the thread-local stack and the lock must not end up in the
        # pickle, and a loaded tracer must keep recording.
        import pickle

        tracer = Tracer()
        with tracer.span("before"):
            pass
        loaded = pickle.loads(pickle.dumps(tracer))
        assert [s.name for s in loaded.roots] == ["before"]
        with loaded.span("after"):
            pass
        assert [s.name for s in loaded.roots] == ["before", "after"]


class TestWalk:
    def test_preorder_with_depths(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        walked = [(d, s.name) for d, s in walk_spans(tracer.roots)]
        assert walked == [(0, "a"), (1, "b"), (2, "c"), (1, "d")]

    def test_accepts_single_span(self):
        span = Span("solo", 0.0, 0.1)
        assert [(0, span)] == list(walk_spans(span))


class TestNullTracer:
    def test_is_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        with NULL_TRACER.span("op", n=1) as span:
            span.set(anything=True)  # discarded, no error

    def test_export_refuses(self, tmp_path):
        with pytest.raises(RuntimeError, match="records nothing"):
            NULL_TRACER.export_jsonl(tmp_path / "x.jsonl")

    def test_span_context_is_cached(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestStage:
    def test_one_reading_reaches_histogram_span_and_sink(self):
        registry, tracer = MetricsRegistry(), Tracer()
        with collect_stages() as sink:
            with stage(
                "query.score",
                metrics=registry,
                tracer=tracer,
                key="score",
                target="time",
            ) as timed:
                timed.set(rows=3)
        (span,) = tracer.roots
        hist = registry.histogram("query.score_seconds")
        assert span.name == "query.score"
        assert span.attributes == {"target": "time", "rows": 3}
        assert hist.count == 1
        assert span.duration == hist.total == sink["score"] == timed.seconds

    def test_records_on_exception(self):
        registry, tracer = MetricsRegistry(), Tracer()
        with collect_stages() as sink:
            with pytest.raises(RuntimeError):
                with stage(
                    "boom", metrics=registry, tracer=tracer, key="boom"
                ):
                    raise RuntimeError("x")
        assert registry.histogram("boom_seconds").count == 1
        assert tracer.roots[0].duration == sink["boom"]
        # The span stack unwound: the next stage is a fresh root.
        with stage("after", tracer=tracer):
            pass
        assert [s.name for s in tracer.roots] == ["boom", "after"]

    def test_stages_nest(self):
        registry, tracer = MetricsRegistry(), Tracer()
        with stage("outer", metrics=registry, tracer=tracer) as outer:
            with stage("inner", metrics=registry, tracer=tracer) as inner:
                pass
        (root,) = tracer.roots
        assert [c.name for c in root.children] == ["inner"]
        assert root.children[0].duration == inner.seconds <= outer.seconds
        assert registry.histogram("outer_seconds").count == 1
        assert registry.histogram("inner_seconds").count == 1

    def test_only_keyed_stages_feed_the_sink(self):
        with collect_stages() as sink:
            with stage("query.batch"):
                with stage("query.score", key="score") as score:
                    pass
                with stage("query.score", key="score") as again:
                    pass
        assert sink == {"score": score.seconds + again.seconds}

    def test_no_sink_outside_collect_stages(self):
        with stage("query.score", key="score"):
            pass
        note_value("ann.probed_fraction", 0.5)
        with collect_stages() as sink:
            pass
        assert sink == {}

    def test_collect_stages_nests_and_restores(self):
        with collect_stages() as outer:
            with stage("a", key="a"):
                pass
            with collect_stages() as inner:
                with stage("b", key="b"):
                    pass
                note_value("ann.probed_fraction", 0.5)
            with stage("c", key="c"):
                pass
        assert set(outer) == {"a", "c"}
        assert set(inner) == {"b", "values"}
        assert inner["values"] == {"ann.probed_fraction": 0.5}

    def test_sink_is_per_thread(self):
        seen = {}
        barrier = threading.Barrier(2, timeout=10)

        def worker():
            barrier.wait()
            with stage("other", key="other"):
                pass
            with collect_stages() as own:
                with stage("mine", key="mine"):
                    pass
            seen["worker"] = own

        with collect_stages() as main_sink:
            thread = threading.Thread(target=worker)
            thread.start()
            barrier.wait()
            with stage("main", key="main"):
                pass
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert set(main_sink) == {"main"}
        assert set(seen["worker"]) == {"mine"}

    def test_without_sinks_it_only_times(self):
        with stage("plain") as timed:
            timed.set(ignored=True)
        assert timed.seconds >= 0.0
        with stage("quiet", tracer=NULL_TRACER) as quiet:
            pass
        assert quiet.seconds >= 0.0
