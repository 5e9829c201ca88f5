"""Tests for the telemetry bus: nesting, monotonicity, sinks, parity."""

import pytest

from repro.runtime.telemetry import (
    CounterSample,
    MarkRecord,
    SpanRecord,
    TelemetryBus,
)
from repro.runtime.trace import (
    chrome_trace_events,
    dicts_to_records,
    records_to_jsonl_dicts,
)


def make_bus(t=0.0):
    clock = {"t": t}
    bus = TelemetryBus(clock=lambda: clock["t"])
    return bus, clock


# ----------------------------------------------------------------------
# Span nesting
# ----------------------------------------------------------------------
def test_begin_end_nesting_sets_depth_and_parent():
    bus, clock = make_bus()
    bus.begin("outer", cat="phase", track="sup")
    clock["t"] = 1.0
    bus.begin("inner", cat="phase", track="sup")
    clock["t"] = 2.0
    inner = bus.end("sup")
    clock["t"] = 3.0
    outer = bus.end("sup")
    assert (inner.depth, inner.parent) == (1, "outer")
    assert (outer.depth, outer.parent) == (0, "")
    assert (inner.start, inner.end) == (1.0, 2.0)
    assert (outer.start, outer.end) == (0.0, 3.0)


def test_emit_span_inside_open_span_nests():
    bus, clock = make_bus()
    bus.begin("recovery", cat="recovery", track="sup")
    child = bus.emit_span("load", cat="recovery.load", track="sup",
                          start=0.5, end=1.5)
    assert (child.depth, child.parent) == (1, "recovery")
    clock["t"] = 2.0
    bus.end("sup")
    assert bus.open_depth("sup") == 0


def test_nesting_is_per_track():
    bus, _clock = make_bus()
    bus.begin("a", cat="c", track="t1")
    span = bus.emit_span("b", cat="c", track="t2", start=0.0, end=1.0)
    assert span.depth == 0
    assert bus.open_depth("t1") == 1 and bus.open_depth("t2") == 0


def test_end_without_begin_raises():
    bus, _clock = make_bus()
    with pytest.raises(RuntimeError, match="no open span"):
        bus.end("nowhere")


# ----------------------------------------------------------------------
# Counter monotonicity
# ----------------------------------------------------------------------
def test_counter_rejects_negative_delta():
    bus, _clock = make_bus()
    c = bus.counter("bytes", track="net")
    c.add(10.0)
    with pytest.raises(ValueError, match="monotonic"):
        c.add(-1.0)
    assert c.value == 10.0


def test_counter_samples_are_cumulative_and_timestamped():
    bus, clock = make_bus()
    c = bus.counter("bytes", track="net")
    c.add(5.0)
    clock["t"] = 2.0
    c.add(7.0)
    assert [(s.time, s.value) for s in bus.counters] == [(0.0, 5.0), (2.0, 12.0)]


def test_gauge_moves_both_ways_and_counter_is_separate_series():
    bus, _clock = make_bus()
    g = bus.gauge("acts", track="stage:0")
    g.add(2.0)
    g.add(-1.0)
    assert g.value == 1.0
    assert bus.counter("acts", track="stage:0") is not g  # distinct keyspace
    assert bus.gauge("acts", track="stage:0") is g


# ----------------------------------------------------------------------
# Sink fan-out
# ----------------------------------------------------------------------
class _Probe:
    def __init__(self):
        self.spans, self.counters, self.marks = [], [], []

    def on_span(self, span):
        self.spans.append(span)

    def on_counter(self, sample):
        self.counters.append(sample)

    def on_mark(self, mark):
        self.marks.append(mark)


def test_sinks_fan_out_every_record_kind():
    bus, _clock = make_bus()
    probe = _Probe()
    bus.add_sink(probe)
    bus.emit_span("s", cat="c", track="t", start=0.0, end=1.0)
    bus.counter("n", track="t").add(1.0)
    bus.mark("m", track="t")
    assert [s.name for s in probe.spans] == ["s"]
    assert [c.name for c in probe.counters] == ["n"]
    assert [m.name for m in probe.marks] == ["m"]
    # the built-in memory sink observed the same stream
    assert len(bus.spans) == 1 and len(bus.counters) == 1 and len(bus.marks) == 1


def test_late_sink_only_sees_later_records():
    bus, _clock = make_bus()
    bus.emit_span("before", cat="c", track="t", start=0.0, end=1.0)
    probe = _Probe()
    bus.add_sink(probe)
    bus.emit_span("after", cat="c", track="t", start=1.0, end=2.0)
    assert [s.name for s in probe.spans] == ["after"]


# ----------------------------------------------------------------------
# JSONL round-trip
# ----------------------------------------------------------------------
def test_jsonl_dicts_round_trip_to_records():
    bus, clock = make_bus()
    bus.emit_span("s", cat="c", track="t", start=0.0, end=1.0, k=3)
    bus.counter("n", track="t").add(2.0)
    clock["t"] = 1.0
    bus.mark("m", track="t", why="x")
    recs = dicts_to_records(records_to_jsonl_dicts(bus, run="r"))
    span = next(r for r in recs if isinstance(r, SpanRecord))
    counter = next(r for r in recs if isinstance(r, CounterSample))
    mark = next(r for r in recs if isinstance(r, MarkRecord))
    assert (span.name, span.cat, span.attrs["k"]) == ("s", "c", 3)
    assert (counter.name, counter.value) == ("n", 2.0)
    assert (mark.name, mark.attrs["why"], mark.time) == ("m", "x", 1.0)


def test_chrome_trace_groups_tracks_by_prefix():
    bus, _clock = make_bus()
    bus.emit_span("a", cat="c", track="stage:0", start=0.0, end=1.0)
    bus.emit_span("b", cat="c", track="stage:1", start=0.0, end=1.0)
    bus.emit_span("f", cat="flow", track="dev:0", start=0.0, end=1.0)
    events = chrome_trace_events(bus)
    xs = [e for e in events if e.get("ph") == "X"]
    stage_pids = {e["pid"] for e in xs if e["name"] in ("a", "b")}
    dev_pids = {e["pid"] for e in xs if e["name"] == "f"}
    assert len(stage_pids) == 1  # one process per track group
    assert stage_pids.isdisjoint(dev_pids)
    tids = {(e["pid"], e["tid"]) for e in xs}
    assert len(tids) == 3  # one thread per track


# ----------------------------------------------------------------------
# Chrome traces of real runs through the one exporter
# ----------------------------------------------------------------------
def _pipeline_result():
    from repro.pipeline.executor import simulate_pipeline
    from repro.pipeline.schedules import schedule_job
    from repro.pipeline.stage import CommEdge, PipelineJob, StageProfile

    stages = [StageProfile(s, 1.0, 1.0, 1.0) for s in range(2)]
    edges = [CommEdge(0, 1, 0.3, 0.3, label="act")]
    job = PipelineJob(stages, edges, n_microbatches=3)
    return simulate_pipeline(job, schedule_job("1f1b", 2, 3), overlap=True)


def test_pipeline_chrome_trace_events():
    events = chrome_trace_events(_pipeline_result().telemetry)
    compute = [e for e in events if e.get("cat") == "compute"]
    comm = [e for e in events if e.get("cat") == "comm"]
    assert len(compute) == 12  # 3 mb x (F + B) x 2 stages
    assert len(comm) == 6  # 3 mb x 2 directions
    for e in compute + comm:
        assert e["ph"] == "X"
        assert e["dur"] > 0
        assert e["ts"] >= 0


def test_flow_chrome_trace_events():
    from repro.core.api import reshard
    from repro.core.mesh import DeviceMesh
    from repro.sim.cluster import Cluster, ClusterSpec

    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    r = reshard((64, 64, 8), src, "S0RR", dst, "RS1R", strategy="broadcast")
    events = chrome_trace_events(r.timing.telemetry)
    flows = [e for e in events if e["ph"] == "X" and e["cat"] == "flow"]
    assert len(flows) == len(r.timing.network.trace)


def test_write_chrome_trace_file_roundtrip(tmp_path):
    import json

    from repro.runtime.trace import write_chrome_trace_file

    events = chrome_trace_events(_pipeline_result().telemetry)
    path = tmp_path / "trace.json"
    write_chrome_trace_file(events, str(path))
    data = json.loads(path.read_text())
    assert data["displayTimeUnit"] == "ms"
    assert data["traceEvents"] == events
