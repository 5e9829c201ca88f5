"""Tests for interleaved 1F1B with virtual pipeline stages."""

import itertools

import pytest

from repro.analysis import check_stage_orders_deadlock
from repro.pipeline.executor import simulate_pipeline
from repro.pipeline.interleaved import (
    InterleavedJob,
    interleaved_order,
    simulate_interleaved,
)
from repro.pipeline.schedules import Task, schedule_job, stage_order
from repro.pipeline.timeline import timeline_from_spans
from repro.runtime.kernel import Kernel


def make_job(p=4, v=2, m=8, fwd=1.0, comm=0.0):
    return InterleavedJob(
        n_stages=p,
        n_virtual=v,
        n_microbatches=m,
        fwd_time=fwd,
        bwd_time=2 * fwd,
        comm_fwd=comm,
        comm_bwd=comm,
    )


# ----------------------------------------------------------------------
# schedule generation
# ----------------------------------------------------------------------
def test_job_validation():
    with pytest.raises(ValueError, match="divisible"):
        make_job(p=4, m=6)
    with pytest.raises(ValueError, match="stage"):
        InterleavedJob(0, 1, 4, 1, 1, 0, 0)
    with pytest.raises(ValueError, match="micro"):
        InterleavedJob(2, 1, 0, 1, 1, 0, 0)
    with pytest.raises(ValueError, match="non-negative"):
        InterleavedJob(2, 1, 4, -1, 1, 0, 0)


def test_order_covers_all_chunk_microbatch_pairs():
    job = make_job()
    for rank in range(job.n_stages):
        order = interleaved_order(job, rank)
        fwd = {(t.chunk, t.microbatch) for t in order if t.kind == "F"}
        bwd = {(t.chunk, t.microbatch) for t in order if t.kind == "B"}
        chunks = {c for c in range(job.n_chunks) if job.stage_of(c) == rank}
        expect = {(c, mb) for c in chunks for mb in range(job.n_microbatches)}
        assert fwd == expect and bwd == expect
        assert len(order) == 2 * len(expect)


def test_order_forward_precedes_backward():
    job = make_job()
    for rank in range(job.n_stages):
        order = interleaved_order(job, rank)
        for t in order:
            if t.kind == "B":
                f = Task("F", t.microbatch, t.chunk)
                assert order.index(f) < order.index(t)


def test_order_rank_bounds():
    job = make_job()
    with pytest.raises(ValueError):
        interleaved_order(job, 4)


def test_warmup_depth_matches_megatron_formula():
    job = make_job(p=4, v=2, m=8)
    for rank in range(4):
        order = interleaved_order(job, rank)
        warmup = 0
        for t in order:
            if t.kind != "F":
                break
            warmup += 1
        # the steady loop leads with a forward, so the leading-F run is
        # one longer than Megatron's num_warmup_microbatches
        assert warmup == (4 - rank - 1) * 2 + (2 - 1) * 4 + 1


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def test_single_stage_single_chunk_serial():
    job = make_job(p=1, v=1, m=3, fwd=1.0)
    r = simulate_interleaved(job)
    assert r.iteration_time == pytest.approx(3 * 3.0)
    # two chunks on one stage hand off in program order, not over a channel
    r = simulate_interleaved(InterleavedJob(1, 2, 1, 1.0, 2.0, 0.5, 0.5))
    assert r.iteration_time == 6.0
    assert r.comms == []


def test_interleaving_shrinks_bubble():
    p, m = 4, 8
    results = {}
    for v in (1, 2, 4):
        job = InterleavedJob(p, v, m, fwd_time=1.0 / v, bwd_time=2.0 / v,
                             comm_fwd=0.0, comm_bwd=0.0)
        results[v] = simulate_interleaved(job)
    assert results[2].iteration_time < results[1].iteration_time
    assert results[4].iteration_time <= results[2].iteration_time
    assert results[2].bubble_fraction() < results[1].bubble_fraction()


def test_interleaving_costs_memory():
    p, m = 4, 8
    peaks = {}
    for v in (1, 2):
        job = InterleavedJob(p, v, m, fwd_time=1.0 / v, bwd_time=2.0 / v,
                             comm_fwd=0.0, comm_bwd=0.0)
        peaks[v] = simulate_interleaved(job).peak_activation_counts[0]
    assert peaks[2] > peaks[1]


def test_causality_across_chunks():
    job = make_job(p=2, v=2, m=4, comm=0.3)
    r = simulate_interleaved(job)
    ends = {(t.kind, t.chunk, t.microbatch): t.end for t in r.timeline}
    starts = {(t.kind, t.chunk, t.microbatch): t.start for t in r.timeline}
    for mb in range(4):
        for c in range(1, job.n_chunks):
            assert starts[("F", c, mb)] >= ends[("F", c - 1, mb)] + 0.3 - 1e-9
        for c in range(job.n_chunks - 1):
            assert starts[("B", c, mb)] >= ends[("B", c + 1, mb)] + 0.3 - 1e-9
        # last chunk's backward after its own forward
        V = job.n_chunks
        assert starts[("B", V - 1, mb)] >= ends[("F", V - 1, mb)] - 1e-9


def test_stage_exclusivity():
    job = make_job(p=3, v=2, m=6, comm=0.2)
    r = simulate_interleaved(job)
    for s in range(3):
        entries = sorted(
            [(t.start, t.end) for t in r.timeline if t.stage == s]
        )
        for (a1, e1), (a2, _e2) in zip(entries, entries[1:]):
            assert e1 <= a2 + 1e-9


def test_total_compute_conserved():
    job = make_job(p=2, v=2, m=4, fwd=1.0, comm=0.1)
    r = simulate_interleaved(job)
    for s in range(2):
        busy = sum(t.end - t.start for t in r.timeline if t.stage == s)
        # per stage: v chunks x m microbatches x (fwd + bwd)
        assert busy == pytest.approx(2 * 4 * 3.0)


def test_more_virtual_stages_tolerate_more_comm():
    """Interleaving creates overlap room: with heavy comm, v=2 beats v=1
    by more than its bubble advantage alone."""
    p, m = 4, 8
    def run(v, comm):
        job = InterleavedJob(p, v, m, fwd_time=1.0 / v, bwd_time=2.0 / v,
                             comm_fwd=comm, comm_bwd=comm)
        return simulate_interleaved(job).iteration_time

    gain_nocomm = run(1, 0.0) / run(2, 0.0)
    gain_comm = run(1, 0.4) / run(2, 0.4)
    assert gain_comm > 1.0
    assert gain_nocomm > 1.0


def test_bubble_fraction_rejects_zero_iteration_time():
    r = simulate_interleaved(InterleavedJob(2, 2, 2, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="positive"):
        r.bubble_fraction()


# ----------------------------------------------------------------------
# one executor: the plain pipeline executor runs interleaved jobs
# ----------------------------------------------------------------------
def _frozen_simulate_interleaved(job):
    """The dedicated interleaved event loop as it stood before interleaved
    jobs ran on ``simulate_pipeline`` (frozen reference; returns
    iteration time, activation peaks and the compute timeline)."""
    loop = Kernel()
    bus = loop.bus
    p = job.n_stages
    orders = [interleaved_order(job, r) for r in range(p)]

    idx = [0] * p
    stage_res = [loop.resource(f"stage:{s}") for s in range(p)]
    arrived = set()
    act = [bus.gauge("activations", track=f"stage:{s}") for s in range(p)]
    done = set()

    def deps_met(t):
        if t.kind == "F":
            return t.chunk == 0 or ("F", t.chunk, t.microbatch) in arrived
        if t.chunk == job.n_chunks - 1:
            return ("F", t.chunk, t.microbatch) in done
        return ("B", t.chunk, t.microbatch) in arrived

    def send(kind, src_chunk, mb):
        if kind == "F":
            dst_chunk = src_chunk + 1
            if dst_chunk >= job.n_chunks:
                return
            dur, direction = job.comm_fwd, "fwd"
        else:
            dst_chunk = src_chunk - 1
            if dst_chunk < 0:
                return
            dur, direction = job.comm_bwd, "bwd"
        src_stage, dst_stage = job.stage_of(src_chunk), job.stage_of(dst_chunk)
        chan = loop.channel(f"{src_stage}->{dst_stage}:{direction}")
        start = chan.reserve(loop.now, dur)
        end = start + dur
        bus.emit_span(
            f"c{src_chunk}->c{dst_chunk}", cat="comm",
            track=f"chan:{src_stage}->{dst_stage}:{direction}",
            start=start, end=end,
        )

        def deliver(kk=kind, dc=dst_chunk, mb=mb, ds=dst_stage):
            arrived.add((kk, dc, mb))
            try_start(ds)

        loop.call_at(end, deliver)

    def on_complete(stage, t, start):
        bus.emit_span(
            repr(t), cat="compute", track=f"stage:{stage}", start=start,
            end=loop.now, stage=stage, kind=t.kind, microbatch=t.microbatch,
            chunk=t.chunk,
        )
        done.add((t.kind, t.chunk, t.microbatch))
        act[stage].add(1 if t.kind == "F" else -1)
        stage_res[stage].release()
        idx[stage] += 1
        send(t.kind, t.chunk, t.microbatch)
        try_start(stage)

    def try_start(stage):
        if stage_res[stage].in_use or idx[stage] >= len(orders[stage]):
            return
        t = orders[stage][idx[stage]]
        if not deps_met(t):
            return
        stage_res[stage].try_acquire()
        start = loop.now
        dur = job.fwd_time if t.kind == "F" else job.bwd_time
        loop.call_after(dur, lambda: on_complete(stage, t, start))

    for s in range(p):
        try_start(s)
    loop.run()
    assert all(idx[s] == len(orders[s]) for s in range(p))

    iteration_time = 0.0
    peak = dict.fromkeys(range(p), 0)
    for span in bus.spans:
        if span.cat == "compute":
            iteration_time = max(iteration_time, span.end)
    for c in bus.counters:
        if c.name == "activations" and c.track.startswith("stage:"):
            stage = int(c.track[len("stage:"):])
            peak[stage] = max(peak[stage], int(c.value))
    return iteration_time, peak, timeline_from_spans(bus.spans)


def _timeline_key(timeline):
    return [(e.stage, e.kind, e.microbatch, e.chunk, e.start, e.end) for e in timeline]


# p=1 with v>1 is left out: the frozen executor charged the hand-off
# between two chunks on the one stage as a transfer
@pytest.mark.parametrize(
    "p,v", [(p, v) for p in (1, 2, 3, 4) for v in (1, 2, 4) if p > 1 or v == 1]
)
def test_matches_frozen_interleaved_executor(p, v):
    for m, comm in itertools.product((p, 2 * p, 4 * p), (0.0, 2e-4, 0.3)):
        job = InterleavedJob(p, v, m, 1.0 / v, 2.0 / v, comm, comm)
        it, peak, timeline = _frozen_simulate_interleaved(job)
        r = simulate_interleaved(job)
        assert r.iteration_time == it, (m, comm)
        assert r.peak_activation_counts == peak, (m, comm)
        assert _timeline_key(r.timeline) == _timeline_key(timeline), (m, comm)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
def test_one_chunk_per_stage_is_eager_1f1b(p):
    for m in (p, 2 * p, 4 * p):
        job = make_job(p=p, v=1, m=m)
        for rank in range(p):
            order = interleaved_order(job, rank)
            assert [(t.kind, t.microbatch) for t in order] == [
                (t.kind, t.microbatch) for t in stage_order("eager_1f1b", rank, p, m)
            ]
            assert {t.chunk for t in order} == {rank}


@pytest.mark.parametrize("overlap", [True, False])
def test_chunk_named_orders_run_like_plain_orders(overlap):
    """One chunk per rank: naming the chunk changes no number, in either
    comm mode (blocking recvs included)."""
    for p, comm in ((2, 0.25), (3, 0.3), (4, 0.0)):
        job = make_job(p=p, v=1, m=2 * p, comm=comm)
        pjob = simulate_interleaved(job).job
        chunked = simulate_pipeline(
            pjob, [interleaved_order(job, r) for r in range(p)], overlap=overlap
        )
        plain = simulate_pipeline(pjob, schedule_job("eager_1f1b", p, 2 * p),
                                  overlap=overlap)
        assert chunked.iteration_time == plain.iteration_time
        assert chunked.stage_busy_time == plain.stage_busy_time
        assert chunked.peak_activation_counts == plain.peak_activation_counts
        assert [(e.stage, e.kind, e.microbatch, e.start, e.end)
                for e in chunked.timeline] == [
            (e.stage, e.kind, e.microbatch, e.start, e.end) for e in plain.timeline]
        assert chunked.comms == plain.comms


def _sabotaged_orders(job):
    """Rank 0 runs its first backward right after that micro-batch's
    forward, ahead of the rest of its warm-up forwards."""
    orders = [interleaved_order(job, r) for r in range(job.n_stages)]
    first_b = next(t for t in orders[0] if t.kind == "B")
    orders[0].remove(first_b)
    orders[0].insert(orders[0].index(Task("F", first_b.microbatch, first_b.chunk)) + 1,
                     first_b)
    return orders


def test_d002_covers_interleaved_orders():
    job = make_job(p=4, v=2, m=8, comm=0.1)
    pjob = simulate_interleaved(job).job
    orders = [interleaved_order(job, r) for r in range(job.n_stages)]
    assert check_stage_orders_deadlock(orders, pjob).ok
    assert check_stage_orders_deadlock(orders).ok

    bad = _sabotaged_orders(job)
    for report in (check_stage_orders_deadlock(bad, pjob),
                   check_stage_orders_deadlock(bad)):
        assert [d.code for d in report.errors] == ["D002"]
        witness = report.errors[0].witness
        assert witness[0] == witness[-1] == "S0:B0c4"  # the moved backward
    with pytest.raises(RuntimeError, match="deadlocked"):
        simulate_pipeline(pjob, bad)


def test_chunk_split_across_ranks_is_rejected():
    job = make_job(p=2, v=2, m=2)
    pjob = simulate_interleaved(job).job
    orders = [interleaved_order(job, r) for r in range(2)]
    moved = next(t for t in orders[0] if t.kind == "B")
    orders[0].remove(moved)
    orders[1].append(moved)
    with pytest.raises(ValueError, match="split across workers"):
        simulate_pipeline(pjob, orders)
