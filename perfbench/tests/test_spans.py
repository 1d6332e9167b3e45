"""Span recording and self time with nested and cross-thread children."""

import threading
import time
import types

import pytest

from spans import Recorder, Span, covered, load_spans, self_times


def span(span_id, start, end, parent=None, thread=1, faults=0):
    s = Span(span_id, f"s{span_id}", start, parent, thread, None)
    s.end = end
    s.faults = faults
    return s


def test_covered_is_the_union_clipped_to_the_parent():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5)], 0, 10) == 4
    assert covered([(1, 3), (4, 5)], 0, 10) == 3
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([(1, 9), (2, 3), (4, 5)], 0, 10) == 8
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_of_nested_children():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 4.0, parent=1),
        span(3, 5.0, 6.0, parent=1),
        span(4, 1.5, 2.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs[1][0] == pytest.approx(6.0)
    assert selfs[2][0] == pytest.approx(2.5)
    assert selfs[3][0] == pytest.approx(1.0)
    assert selfs[4][0] == pytest.approx(0.5)


def test_self_time_with_overlapping_children_on_other_threads():
    # A scatter span hands two shard calls to two pool threads; they
    # overlap each other, so the parent waits 4 s, not 3 + 3.
    spans = [
        span(1, 0.0, 6.0, thread=1),
        span(2, 1.0, 4.0, parent=1, thread=2),
        span(3, 2.0, 5.0, parent=1, thread=3),
    ]
    assert self_times(spans)[1][0] == pytest.approx(2.0)


def test_self_faults_subtract_same_thread_children_only():
    spans = [
        span(1, 0.0, 6.0, thread=1, faults=100),
        span(2, 1.0, 2.0, parent=1, thread=1, faults=30),
        span(3, 2.0, 5.0, parent=1, thread=2, faults=50),
    ]
    assert self_times(spans)[1][1] == 70


def test_recorder_wraps_and_restores():
    module = types.SimpleNamespace()

    def leaf(x):
        time.sleep(0.01)
        return x + 1

    def outer(x):
        return module.leaf(x) * 2

    module.leaf, module.outer = leaf, outer
    rec = Recorder()
    rec.wrap(module, "leaf", "layer.leaf")
    rec.wrap(module, "outer", "layer.outer", request_id=lambda x: f"r{x}")
    assert module.outer(1) == 4
    rec.enabled = False
    assert module.outer(2) == 6
    rec.restore()
    assert module.leaf is leaf and module.outer is outer
    assert [s.name for s in rec.spans] == ["layer.leaf", "layer.outer"]
    inner, top = rec.spans
    assert inner.parent == top.span_id and top.parent is None
    assert inner.request_id == top.request_id == "r1"
    assert self_times(rec.spans)[top.span_id][0] < inner.duration


def test_restore_removes_wrappers_of_inherited_methods():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    rec = Recorder()
    rec.wrap(Child, "f", "layer.f")
    assert Child().f() == 1 and "f" in vars(Child)
    rec.restore()
    assert "f" not in vars(Child) and Child().f() == 1


def test_bind_parents_work_on_other_threads(tmp_path):
    module = types.SimpleNamespace(work=lambda: time.sleep(0.02))
    rec = Recorder()
    rec.wrap(module, "work", "pool.work")

    def scatter():
        threads = [threading.Thread(target=rec.bind(module.work))
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()

    holder = types.SimpleNamespace(scatter=scatter)
    rec.wrap(holder, "scatter", "layer.scatter")
    holder.scatter()
    rec.dump(tmp_path / "spans.jsonl")
    spans = load_spans(tmp_path / "spans.jsonl")
    top = next(s for s in spans if s.name == "layer.scatter")
    kids = [s for s in spans if s.name == "pool.work"]
    assert len(kids) == 2
    assert all(k.parent == top.span_id and k.thread != top.thread
               for k in kids)
    # The two children overlap, so self time is well under duration
    # minus the sum of the children's durations would suggest.
    assert self_times(spans)[top.span_id][0] < top.duration - 0.015
