"""Edge cases of Observer.merge_from and Histogram.merge — behaviour pins.

The sharded runtime leans on these merges for worker-count invariance,
so their corner behaviour (empty operands, overflow buckets, gauge
ordering, open spans, tracer fold-in) is pinned here rather than left to
whatever the implementation happens to do.
"""

import pytest

from repro.obs import Histogram, Observer, TraceRecorder


def test_empty_into_empty_is_noop():
    a = Observer()
    b = Observer()
    a.merge_from(b)
    assert a.counters == {} and a.gauges == {} and a.span_stats == {}
    assert a.histograms == {}


def test_empty_other_leaves_self_untouched():
    a = Observer()
    a.count("c", 3)
    a.gauge("g", 1.5)
    a.hist("h", 2.0, bounds=(1.0, 4.0))
    before = (dict(a.counters), dict(a.gauges), a.histograms["h"].as_dict())
    a.merge_from(Observer())
    assert (dict(a.counters), dict(a.gauges),
            a.histograms["h"].as_dict()) == before


def test_merge_into_disabled_observer_is_noop():
    from repro.obs import NULL_OBSERVER

    b = Observer()
    b.count("c", 3)
    NULL_OBSERVER.merge_from(b)
    assert NULL_OBSERVER.counters == {}


def test_histogram_overflow_bucket_merges():
    bounds = (1.0, 2.0)
    a = Histogram(bounds)
    b = Histogram(bounds)
    a.record(100.0)  # overflow bucket (beyond the last bound)
    b.record(200.0)
    b.record(0.5)
    a.merge(b)
    assert a.count == 3
    assert a.counts[-1] == 2, "overflow bucket must accumulate"
    assert a.counts[0] == 1
    assert a.min == 0.5 and a.max == 200.0


def test_histogram_merge_empty_into_populated_keeps_min_max():
    a = Histogram((1.0, 2.0))
    a.record(1.5)
    a.merge(Histogram((1.0, 2.0)))
    assert a.count == 1 and a.min == 1.5 and a.max == 1.5


def test_histogram_merge_populated_into_empty_adopts_min_max():
    a = Histogram((1.0, 2.0))
    b = Histogram((1.0, 2.0))
    b.record(1.5)
    a.merge(b)
    assert a.count == 1 and a.min == 1.5 and a.max == 1.5


def test_histogram_merge_rejects_different_bounds():
    with pytest.raises(ValueError, match="different bounds"):
        Histogram((1.0, 2.0)).merge(Histogram((1.0, 3.0)))


def test_histogram_merge_copies_do_not_alias():
    a = Observer()
    b = Observer()
    b.hist("h", 1.5, bounds=(1.0, 2.0))
    a.merge_from(b)
    b.hist("h", 1.7, bounds=(1.0, 2.0))
    assert a.histograms["h"].count == 1, "merged histogram aliases source"


def test_gauge_last_write_wins_in_merge_order():
    a = Observer()
    b = Observer()
    a.gauge("g", 1.0)
    b.gauge("g", 2.0)
    a.merge_from(b)
    assert a.gauges["g"] == 2.0, "other's gauge must overwrite self's"


def test_merge_rejects_open_spans_on_other():
    a = Observer()
    b = Observer()
    cm = b.span("outer")
    cm.__enter__()
    with pytest.raises(ValueError, match="open spans: outer"):
        a.merge_from(b)
    cm.__exit__(None, None, None)
    a.merge_from(b)  # closed: fine now
    assert a.span_stats["outer"].count == 1


def test_merge_allows_open_spans_on_self():
    a = Observer()
    b = Observer()
    b.count("c", 1)
    with a.span("outer"):
        a.merge_from(b)
    assert a.counters["c"] == 1
    assert a.span_stats["outer"].count == 1


def test_span_min_max_fold():
    a = Observer()
    b = Observer()
    a.record_span("p", 0.5)
    b.record_span("p", 0.1)
    b.record_span("p", 0.9)
    a.merge_from(b)
    stat = a.span_stats["p"]
    assert stat.count == 3
    assert stat.min_s == 0.1 and stat.max_s == 0.9


def test_tracer_merge_rides_along_with_pid_label():
    mine = TraceRecorder(pid=1, process_name="repro")
    theirs = TraceRecorder(pid=2, process_name="shard 0")
    a = Observer(tracer=mine)
    b = Observer(tracer=theirs)
    with b.span("work"):
        pass
    a.merge_from(b)
    chrome = mine.to_chrome()
    events = chrome["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {(e["pid"], e["args"]["name"]) for e in meta} == {
        (1, "repro"), (2, "shard 0")
    }
    spans = [e for e in events if e["ph"] == "X"]
    assert [e["pid"] for e in spans] == [2]


def test_merge_without_tracers_is_fine():
    a = Observer()
    b = Observer(tracer=TraceRecorder(pid=2, process_name="w"))
    with b.span("work"):
        pass
    a.merge_from(b)  # self has no tracer: events dropped, aggregates kept
    assert a.span_stats["work"].count == 1
