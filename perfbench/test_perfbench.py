"""Tests of the benchmark's own arithmetic: percentiles, self time and
the open-loop latency of a paced feed.

    python3 -m pytest perfbench -q
"""

import threading
import time

import pytest

from perfbench.stats import (
    due_times, lateness, median, open_loop_latencies, percentile,
)
from perfbench.tracing import Span, Tracer, self_times
from perfbench.workloads import RecordingFeed


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([4, 1, 3, 2], 0) == 1
    assert percentile([4, 1, 3, 2], 100) == 4
    assert percentile(range(1, 101), 99) == pytest.approx(99.01)
    assert percentile([7], 99) == 7


def test_percentile_and_median_reject_empty_or_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)
    with pytest.raises(ValueError):
        median([])


def test_open_loop_latency_counts_a_stall_against_later_packets():
    due = due_times(0.0, 3, 1000.0)
    assert due == [0.0, 0.001, 0.002]
    # Packet 0 stalls for 10 ms; 1 and 2 were due during the stall.
    done = [0.010, 0.0105, 0.011]
    assert open_loop_latencies(due, done) == pytest.approx(
        [0.010, 0.0095, 0.009]
    )
    # The generator could only hand them over after the stall.
    sent = [0.0, 0.010, 0.0105]
    assert lateness(due, sent) == pytest.approx([0.0, 0.009, 0.0085])


def test_open_loop_latency_rejects_mismatched_or_early_times():
    with pytest.raises(ValueError):
        open_loop_latencies([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        open_loop_latencies([1.0], [0.5])
    with pytest.raises(ValueError):
        due_times(0.0, 3, 0.0)


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, None, 0)


def test_self_time_subtracts_the_union_of_children_clipped_to_parent():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),   # overlaps 3 (another thread)
        _span(3, 2.0, 5.0, parent=1),
        _span(4, 8.0, 12.0, parent=1),  # runs past the parent's end
        _span(5, 2.5, 4.0, parent=3),   # grandchild: only 3 loses it
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[3] == pytest.approx(3.0 - 1.5)
    assert own[2] == pytest.approx(2.0)
    assert own[5] == pytest.approx(1.5)


def test_tracer_nests_spans_and_keeps_one_request_id():
    tracer = Tracer()

    def inner():
        return tracer.call("leaf", lambda: 7, (), {})

    assert tracer.call("root", inner, (), {}, request="job#1") == 7
    spans, _ = tracer.take()
    leaf, root = spans
    assert leaf.parent == root.sid and root.parent is None
    assert leaf.request == root.request == "job#1"
    # A nested span asking for its own request still joins the outer one.
    tracer.call("root", lambda: tracer.call(
        "child", lambda: None, (), {}, request="other"), (), {},
        request="job#2")
    child, _root = tracer.take()[0]
    assert child.request == "job#2"


def test_merge_renumbers_worker_spans_under_the_current_span(tmp_path):
    worker = Tracer()
    worker.call("switch", lambda: worker.call("probe", lambda: None, (), {}),
                (), {}, request="sw00#1")
    worker.dump(tmp_path / "spans-sw00.json")
    assert worker.spans == []

    parent = Tracer()
    parent.call("fleet", lambda: parent.merge([tmp_path / "spans-sw00.json"]),
                (), {})
    spans, _ = parent.take()
    by_name = {s.name: s for s in spans}
    assert len({s.sid for s in spans}) == 3
    assert by_name["switch"].parent == by_name["fleet"].sid
    assert by_name["probe"].parent == by_name["switch"].sid
    assert not (tmp_path / "spans-sw00.json").exists()


def test_hot_calls_only_aggregate():
    tracer = Tracer()
    for _ in range(3):
        tracer.call_hot("packet", lambda: None, (), {})
    spans, hot = tracer.take()
    assert spans == [] and hot["packet"].count == 3
    assert sum(hot["packet"].histogram.values()) == 3


def test_paced_feed_times_each_packet_from_when_it_was_due():
    feed = RecordingFeed([b"a", b"b", b"c", b"d"], rate=200.0)
    for index, _packet in enumerate(feed.packets()):
        if index == 1:
            time.sleep(0.02)  # a stall while "processing" packet 1
    latencies = open_loop_latencies(feed.due, feed.done)
    assert len(latencies) == 4
    # Packets 2 and 3 were due during the stall: it counts against them.
    assert latencies[2] >= 0.02 - 0.005 - 0.001
    assert latencies[3] >= 0.02 - 0.010 - 0.001
    assert max(lateness(feed.due, feed.sent)) > 0.005


def test_closed_loop_feed_has_no_schedule():
    feed = RecordingFeed([b"a", b"b"])
    assert list(feed.packets()) == [b"a", b"b"]
    assert feed.due == [] and len(feed.done) == 2


def test_tracer_threads_keep_separate_parents():
    tracer = Tracer()
    seen = []

    def worker():
        tracer.call("thread-root", lambda: seen.append(tracer.parent_name()),
                    (), {})

    def main():
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()

    tracer.call("main-root", main, (), {})
    spans, _ = tracer.take()
    assert seen == ["thread-root"]
    assert {s.name: s.parent for s in spans}["thread-root"] is None
