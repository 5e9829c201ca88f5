"""Event-driven execution of a pipeline schedule with cross-mesh comm.

Each stage executes its ordered task list strictly in sequence; a task
additionally waits for its cross-mesh inputs:

* ``F(s, mb)`` waits for the forward activation of every in-edge, sent
  when ``F(src, mb)`` finished;
* ``B``/``Bx``\\ ``(s, mb)`` waits for the activation gradient of every
  out-edge, sent when the downstream ``B``/``Bx`` finished.

A worker may run several job stages (*chunks*, or virtual stages, as
in interleaved 1F1B): its tasks then name the chunk they compute, and
``orders[w]`` is worker ``w``'s list rather than stage ``w``'s.  Data
dependencies and comm edges stay per job stage; the stage resource,
channels (per directed worker pair), activation gauge and the spans'
``stage`` attribute belong to the worker.

The executor runs on the shared runtime kernel
(:class:`~repro.runtime.kernel.Kernel`): stage occupancy is a kernel
resource token, cross-stage FIFO channels are kernel serial channels,
and every compute/transfer interval is emitted to the kernel's
telemetry bus.  The result object keeps **no private timeline lists** —
``timeline``/``comms`` are views rebuilt from the span stream, and the
scalar statistics (iteration time, busy time, activation peaks) are
folded from the same records.

Communication is simulated in one of two modes:

``overlap=False`` ("Broadcast" in Fig. 9)
    synchronous sends and receives, like blocking NCCL calls issued in
    program order: after producing, the sender stage is busy for the
    transfer duration; before consuming, the receiver stage executes a
    recv that starts no earlier than the matching send and also busies
    the stage for the transfer duration.  Communication therefore sits
    on both stages' critical paths — the strict-dependency regime of
    Fig. 4(a).  (Real runtimes pair these as combined exchange ops,
    e.g. Megatron's send-forward-recv-backward, which is why modelling
    the two halves independently rather than as a strict rendezvous is
    both simpler and deadlock-free.)

``overlap=True``
    transfers run on a FIFO channel per directed stage pair, concurrently
    with compute; only data dependencies remain.

Activation memory is tracked per stage as a telemetry gauge (+1 at each
``F``, −1 when the micro-batch's backward — ``B`` or delayed ``Bw`` —
completes) so the schedules' peak-memory trade-off (§4, Table 1) is
measurable.

**Fault tolerance** (optional, ``overlap=True``): given a
:class:`~repro.sim.faults.FaultSchedule`, cross-stage messages can be
*lost* — by the per-attempt drop rate, or because a stage's host
(``stage_hosts``) NIC flapped during the transfer.  A watchdog detects
the missing input after a backoff deadline and triggers a re-send on
the same channel; compute stragglers stretch task durations during
their windows.  Instead of hanging (or raising the deadlock error), a
faulted run surfaces a structured :class:`~repro.sim.faults.FaultReport`
on the result — ``recovered`` when every loss was re-sent in time,
``fatal`` when the retry budget ran out and stages stayed stuck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..runtime.kernel import Kernel
from ..runtime.telemetry import TelemetryBus
from ..sim.faults import FaultIncident, FaultReport, FaultSchedule, RetryPolicy
from .schedules import Task
from .stage import PipelineJob
from .timeline import CommEntry, TimelineEntry, comms_from_spans, timeline_from_spans

__all__ = ["TimelineEntry", "CommEntry", "PipelineResult", "simulate_pipeline"]


@dataclass(frozen=True)
class _Recv:
    """A blocking receive the consumer stage executes in program order."""

    edge_idx: int
    microbatch: int
    direction: str  # "fwd" | "bwd"

    @property
    def key(self) -> tuple[int, int, str]:
        return (self.edge_idx, self.microbatch, self.direction)

    def __repr__(self) -> str:
        return f"recv(e{self.edge_idx},{self.direction},mb{self.microbatch})"


_Item = Union[Task, _Recv]


@dataclass
class PipelineResult:
    """Outcome of simulating one training iteration.

    ``timeline`` and ``comms`` are derived views over the run's
    telemetry spans (``cat="compute"`` / ``cat="comm"``), not stored
    lists.  ``fault_report`` is ``None`` for fault-free runs; under
    fault injection it records whether the iteration recovered from
    every injected fault or ended fatally (some stages never finished).
    """

    telemetry: TelemetryBus = field(repr=False, compare=False)
    job: PipelineJob = field(repr=False)
    #: the worker that ran each job stage (the identity without chunks);
    #: per-stage statistics below are keyed by worker
    workers: tuple[int, ...] = field(repr=False)
    fault_report: Optional[FaultReport] = None
    _timeline_cache: Optional[tuple[int, list[TimelineEntry]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _comms_cache: Optional[tuple[int, list[CommEntry]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _stats_cache: Optional[tuple[float, dict[int, float], dict[int, int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _stats(self) -> tuple[float, dict[int, float], dict[int, int]]:
        # One fold over the span stream, on first access — keeping it
        # out of simulate_pipeline itself so the per-event path stays
        # within the bench_runtime_overhead wall-time gate.
        if self._stats_cache is None:
            self._stats_cache = _fold_stats(self.telemetry, max(self.workers) + 1)
        return self._stats_cache

    @property
    def iteration_time(self) -> float:
        """Makespan: latest compute/comm span end in the stream."""
        return self._stats()[0]

    @property
    def stage_busy_time(self) -> dict[int, float]:
        """Seconds each stage spent computing (plus blocking sends)."""
        return self._stats()[1]

    @property
    def peak_activation_counts(self) -> dict[int, int]:
        """Peak live activations per stage, from the gauge samples."""
        return self._stats()[2]

    @property
    def timeline(self) -> list[TimelineEntry]:
        """Compute intervals, rebuilt from the telemetry span stream."""
        spans = self.telemetry.spans
        if self._timeline_cache is None or self._timeline_cache[0] != len(spans):
            self._timeline_cache = (len(spans), timeline_from_spans(spans))
        return self._timeline_cache[1]

    @property
    def comms(self) -> list[CommEntry]:
        """Transfer intervals, rebuilt from the telemetry span stream."""
        spans = self.telemetry.spans
        if self._comms_cache is None or self._comms_cache[0] != len(spans):
            self._comms_cache = (len(spans), comms_from_spans(spans))
        return self._comms_cache[1]

    def peak_memory_bytes(self, stage: int) -> float:
        """Weights/optimizer plus peak live activations of a worker.

        A worker running several chunks holds all their weights; its
        activations are priced at its largest chunk's per-micro-batch
        size (exact for the homogeneous chunks interleaving uses).
        """
        profs = [p for p, w in zip(self.job.stages, self.workers) if w == stage]
        return sum(p.params_bytes for p in profs) + (
            self.peak_activation_counts.get(stage, 0)
            * max(p.activation_bytes for p in profs)
        )

    def bubble_fraction(self) -> float:
        """Idle fraction of the busiest worker."""
        if self.iteration_time <= 0:
            raise ValueError("iteration time must be positive")
        return 1.0 - max(self.stage_busy_time.values()) / self.iteration_time

    def throughput_tflops(self, model_flops: float, n_devices: int) -> float:
        """Aggregate per-GPU TFLOPS given total model FLOPs/iteration."""
        if self.iteration_time <= 0:
            raise ValueError("iteration time must be positive")
        if n_devices <= 0:
            raise ValueError("n_devices must be positive")
        return model_flops / self.iteration_time / n_devices / 1e12


def _validate_orders(job: PipelineJob, orders: list[list[Task]]) -> tuple[int, ...]:
    """Check ``orders`` against ``job``; return each job stage's worker.

    ``orders[w]`` is worker ``w``'s list; a task computes stage
    ``task.chunk``, or stage ``w`` when it names no chunk.  Every worker
    holds tasks, and each stage's tasks sit on one worker.
    """
    owner: dict[int, int] = {}
    per_stage: dict[int, list[Task]] = {}
    for w, order in enumerate(orders):
        if not order:
            raise ValueError(f"worker {w} holds no tasks")
        for t in order:
            s = w if t.chunk is None else t.chunk
            if owner.setdefault(s, w) != w:
                raise ValueError(f"stage {s} split across workers {owner[s]} and {w}")
            per_stage.setdefault(s, []).append(t)
    if sorted(owner) != list(range(job.n_stages)):
        raise ValueError(f"tasks cover stages {sorted(owner)}, not 0..{job.n_stages - 1}")
    m = job.n_microbatches
    for s, order in per_stage.items():
        fwd = sorted(t.microbatch for t in order if t.kind == "F")
        if fwd != list(range(m)):
            raise ValueError(f"stage {s}: forwards {fwd} != 0..{m - 1}")
        fused = {t.microbatch for t in order if t.kind == "B"}
        bx = {t.microbatch for t in order if t.kind == "Bx"}
        bw = {t.microbatch for t in order if t.kind == "Bw"}
        if fused & (bx | bw):
            raise ValueError(f"stage {s}: mixes fused B and split Bx/Bw")
        forward_only = not (fused | bx | bw)
        if forward_only:
            continue  # inference: no backward pass at all
        if fused != set(range(m)) and (bx != set(range(m)) or bw != set(range(m))):
            raise ValueError(f"stage {s}: backward coverage incomplete")
        seen: set[tuple[str, int]] = set()  # (kind, microbatch) so far
        for t in order:
            key = (t.kind, t.microbatch)
            if key in seen:
                raise ValueError(f"stage {s}: duplicate task {t}")
            if t.kind in ("B", "Bx") and ("F", t.microbatch) not in seen:
                raise ValueError(
                    f"stage {s}: backward of mb {t.microbatch} precedes its forward"
                )
            if t.kind == "Bw" and ("Bx", t.microbatch) not in seen:
                raise ValueError(f"stage {s}: Bw{t.microbatch} precedes Bx")
            seen.add(key)
    return tuple(owner[s] for s in range(job.n_stages))


def _insert_recvs(job: PipelineJob, orders: list[list[Task]]) -> list[list[_Item]]:
    """Blocking mode: put an explicit recv before each consuming task."""
    edge_idx = {id(e): i for i, e in enumerate(job.edges)}
    out: list[list[_Item]] = []
    for w, order in enumerate(orders):
        items: list[_Item] = []
        for t in order:
            s = w if t.chunk is None else t.chunk
            if t.kind == "F":
                for e in sorted(job.in_edges(s), key=lambda e: edge_idx[id(e)]):
                    items.append(_Recv(edge_idx[id(e)], t.microbatch, "fwd"))
            elif t.kind in ("B", "Bx"):
                for e in sorted(job.out_edges(s), key=lambda e: edge_idx[id(e)]):
                    items.append(_Recv(edge_idx[id(e)], t.microbatch, "bwd"))
            items.append(t)
        out.append(items)
    return out


def _fold_stats(
    bus: TelemetryBus, n_workers: int
) -> tuple[float, dict[int, float], dict[int, int]]:
    """Fold iteration time, per-stage busy time and activation peaks
    out of the telemetry stream (the single source of truth)."""
    iteration_time = 0.0
    busy = dict.fromkeys(range(n_workers), 0.0)
    peak = dict.fromkeys(range(n_workers), 0)
    # Folded over the raw span rows (name, cat, track, start, end,
    # depth, parent, attrs) — this runs once per simulation, right
    # after the event loop drains, so it stays off the per-event path.
    for _name, cat, _track, start, end, _depth, _parent, a in bus.span_rows:
        if cat == "compute":
            if end > iteration_time:
                iteration_time = end
            busy[a["stage"]] += end - start
        elif cat == "comm":
            if end > iteration_time:
                iteration_time = end
            if "busy_stage" in a:  # blocking-mode recv occupies its stage
                busy[a["busy_stage"]] += end - start
        elif cat == "send":
            busy[a["stage"]] += end - start
    for name, track, _time, value in bus.counter_rows:
        if name == "activations" and track.startswith("stage:"):
            stage = int(track[6:])
            if value > peak[stage]:
                peak[stage] = int(value)
    return iteration_time, busy, peak


def simulate_pipeline(
    job: PipelineJob,
    orders: list[list[Task]],
    overlap: bool = True,
    faults: Optional[FaultSchedule] = None,
    retry_policy: Optional[RetryPolicy] = None,
    stage_hosts: Optional[Sequence[int]] = None,
) -> PipelineResult:
    """Simulate one training iteration; see module docstring.

    ``stage_hosts`` maps each stage to the host carrying it, so NIC
    flap windows in ``faults`` translate to lost cross-stage messages
    (a transfer overlapping a flap of either endpoint's host is lost).
    """
    workers = _validate_orders(job, orders)
    if stage_hosts is not None and len(stage_hosts) != job.n_stages:
        raise ValueError(
            f"stage_hosts must map all {job.n_stages} stages, got {len(stage_hosts)}"
        )
    if faults is not None and not overlap and (
        faults.drop_rate > 0 or faults.flaps or faults.host_failures
    ):
        raise ValueError(
            "message loss injection needs overlap=True (blocking sends have "
            "no channel to re-send on); stragglers work in both modes"
        )
    policy = retry_policy or RetryPolicy()
    loop = Kernel()
    bus = loop.bus
    n_workers = len(orders)

    # -- fault bookkeeping --------------------------------------------
    incidents: list[FaultIncident] = []
    n_msg_retries = 0
    n_msg_abandoned = 0
    added_latency = 0.0
    # first expected arrival per message, to price recovery delay
    first_eta: dict[tuple[int, int, str], float] = {}

    items: list[list[_Item]] = (
        [list(o) for o in orders] if overlap else _insert_recvs(job, orders)
    )

    idx = [0] * n_workers
    stage_track = [f"stage:{w}" for w in range(n_workers)]
    stage_res = [loop.resource(stage_track[w]) for w in range(n_workers)]
    stage_free_at = [0.0] * n_workers  # > now while blocked in sends
    act = [bus.gauge("activations", track=stage_track[w]) for w in range(n_workers)]
    # per-(src, dst, direction) channel + span-track cache: send_message
    # sits on the hot path, so the f-string/registry lookup happens once
    chan_cache: dict[tuple[int, int, str], tuple] = {}

    # Dependency arrival counters: ("F"|"B", stage, microbatch) -> count.
    arrived: dict[tuple[str, int, int], int] = {}
    need_fwd = [len(job.in_edges(s)) for s in range(job.n_stages)]
    need_bwd = [len(job.out_edges(s)) for s in range(job.n_stages)]

    # Blocking mode: when each transfer's data hits the wire, and its
    # duration (priced once, at the send; the recv reuses it).
    send_started: dict[tuple[int, int, str], tuple[float, float]] = {}

    def deps_met(stage: int, t: Task) -> bool:
        if t.kind == "F":
            return arrived.get(("F", stage, t.microbatch), 0) >= need_fwd[stage]
        if t.kind in ("B", "Bx"):
            return arrived.get(("B", stage, t.microbatch), 0) >= need_bwd[stage]
        return True  # Bw: local only

    def duration(worker: int, stage: int, t: Task) -> float:
        nonlocal added_latency
        prof = job.stages[stage]
        if t.kind == "F":
            base = prof.fwd_time
        elif t.kind == "B":
            base = prof.bwd_x_time + prof.bwd_w_time
        elif t.kind == "Bx":
            base = prof.bwd_x_time
        else:
            base = prof.bwd_w_time
        if faults is not None:
            factor = faults.straggler_factor(worker, loop.now)
            if factor > 1.0:
                incidents.append(
                    FaultIncident(
                        kind="straggler",
                        where=f"stage {worker} {t!r}",
                        time=loop.now,
                        resolved=True,
                    )
                )
                added_latency += base * (factor - 1.0)
                return base * factor
        return base

    def arrival(kind: str, stage: int, mb: int) -> None:
        key = (kind, stage, mb)
        arrived[key] = arrived.get(key, 0) + 1
        try_start(workers[stage])

    def message_lost(
        edge_i: int, mb: int, direction: str, attempt: int, cstart: float, cend: float
    ) -> bool:
        if faults is None:
            return False
        if faults.should_drop("pipe", edge_i, mb, direction, attempt):
            return True
        if stage_hosts is not None:
            e = job.edges[edge_i]
            for st in (e.src_stage, e.dst_stage):
                if faults.host_down_during(stage_hosts[st], cstart, cend):
                    return True
        return False

    def send_message(
        e, edge_i: int, dur: float, direction: str, target: int, mb: int,
        earliest: float, attempt: int,
    ) -> None:
        """One delivery attempt of a cross-stage message (overlap mode).

        A lost message is detected by the consumer's watchdog — the
        input is missing past its deadline — which triggers a re-send
        after the policy's backoff; the retry re-occupies the channel.
        """
        nonlocal n_msg_retries, n_msg_abandoned, added_latency
        ckey = (e.src_stage, e.dst_stage, direction)
        cached = chan_cache.get(ckey)
        if cached is None:
            src_w, dst_w = workers[e.src_stage], workers[e.dst_stage]
            cname = f"{src_w}->{dst_w}:{direction}"
            cached = (loop.channel(cname), "chan:" + cname, src_w, dst_w)
            chan_cache[ckey] = cached
        chan, ctrack, src_w, dst_w = cached
        cstart = chan.reserve(earliest, dur)
        cend = cstart + dur
        label = e.label if attempt == 1 else f"{e.label}~retry{attempt - 1}"
        bus.span(
            label, "comm", ctrack, cstart, cend,
            {"src_stage": src_w, "dst_stage": dst_w,
             "direction": direction, "microbatch": mb, "label": label},
        )
        mkey = (edge_i, mb, direction)
        if attempt == 1:
            first_eta[mkey] = cend
        if not message_lost(edge_i, mb, direction, attempt, cstart, cend):
            if attempt > 1:
                added_latency += cend - first_eta[mkey]
            dep_kind = "F" if direction == "fwd" else "B"
            loop.call_at(cend, lambda: arrival(dep_kind, target, mb))
            return
        final = policy.exhausted(attempt)
        incidents.append(
            FaultIncident(
                kind="message-lost",
                where=f"edge {edge_i} {direction} mb{mb}",
                time=cend,
                attempt=attempt,
                resolved=not final,
            )
        )
        if final:
            n_msg_abandoned += 1
            return  # consumer stays stuck; surfaced as a fatal report
        n_msg_retries += 1
        grace = policy.backoff(attempt, "pipe", edge_i, mb, direction)
        loop.call_at(
            cend + grace,
            lambda: send_message(
                e, edge_i, dur, direction, target, mb, cend + grace, attempt + 1
            ),
        )

    def produced_edges(stage: int, t: Task):
        # comm_time() is called once per produced message (in blocking
        # mode the matching recv reuses the price): edges backed by a
        # compiled resharding price every micro-batch with one plan-cache
        # lookup of the compiled plan (the shared timing path).
        if t.kind == "F":
            return [(e, i, e.comm_time("fwd"), "fwd", e.dst_stage)
                    for i, e in enumerate(job.edges) if e.src_stage == stage]
        if t.kind in ("B", "Bx"):
            return [(e, i, e.comm_time("bwd"), "bwd", e.src_stage)
                    for i, e in enumerate(job.edges) if e.dst_stage == stage]
        return []

    def on_compute_done(worker: int, stage: int, t: Task, start: float) -> None:
        finish = loop.now
        attrs = {"stage": worker, "kind": t.kind, "microbatch": t.microbatch}
        if t.chunk is None:
            name = f"{t.kind}{t.microbatch}"
        else:
            name, attrs["chunk"] = repr(t), t.chunk
        bus.span(name, "compute", stage_track[worker], start, finish, attrs)
        if t.kind == "F":
            act[worker].add(1)
        elif t.kind in ("B", "Bw"):
            act[worker].add(-1)
        stage_res[worker].release()
        idx[worker] += 1
        if overlap:
            for e, i, dur, direction, target in produced_edges(stage, t):
                send_message(e, i, dur, direction, target, t.microbatch, finish, 1)
            try_start(worker)
        else:
            # Blocking sends in program order: the stage stays busy for
            # the sum of its outgoing transfer durations; each transfer
            # hits the wire when its send begins.
            block_until = finish
            for e, i, dur, direction, target in produced_edges(stage, t):
                send_started[(i, t.microbatch, direction)] = (block_until, dur)
                block_until += dur
                try_start(workers[target])  # its recv may now be startable
            if block_until > finish:
                bus.span(
                    f"send:{t!r}", "send", stage_track[worker],
                    finish, block_until, {"stage": worker},
                )
                stage_free_at[worker] = block_until
                loop.call_at(block_until, lambda w=worker: try_start(w))
            else:
                try_start(worker)

    def on_recv_done(worker: int, r: _Recv, start: float) -> None:
        e = job.edges[r.edge_idx]
        src_w, dst_w = workers[e.src_stage], workers[e.dst_stage]
        end = loop.now
        bus.span(
            e.label, "comm", f"chan:{src_w}->{dst_w}:{r.direction}",
            start, end,
            {"src_stage": src_w, "dst_stage": dst_w,
             "direction": r.direction, "microbatch": r.microbatch,
             "label": e.label, "busy_stage": worker},
        )
        stage_res[worker].release()
        idx[worker] += 1
        fwd = r.direction == "fwd"  # arrival() calls try_start(worker)
        arrival("F" if fwd else "B", e.dst_stage if fwd else e.src_stage, r.microbatch)
        try_start(worker)

    def try_start(worker: int) -> None:
        if stage_res[worker].available == 0 or idx[worker] >= len(items[worker]):
            return
        if loop.now < stage_free_at[worker] - 1e-15:
            return  # still blocked sending; wake-up event queued
        item = items[worker][idx[worker]]
        if isinstance(item, _Recv):
            sent = send_started.get(item.key)
            if sent is None:
                return  # matching send has not started yet
            sent_at, dur = sent
            end = max(loop.now, sent_at) + dur
            stage_res[worker].try_acquire()
            start = loop.now
            loop.call_at(end, lambda w=worker, r=item: on_recv_done(w, r, start))
            return
        stage = worker if item.chunk is None else item.chunk
        if not deps_met(stage, item):
            return
        stage_res[worker].try_acquire()
        start = loop.now
        loop.call_after(
            duration(worker, stage, item),
            lambda w=worker, s=stage, t=item: on_compute_done(w, s, t, start),
        )

    for w in range(n_workers):
        try_start(w)
    loop.run()

    unfinished = [w for w in range(n_workers) if idx[w] < len(items[w])]
    if unfinished and faults is None:
        detail = {s: repr(items[s][idx[s]]) for s in unfinished}
        raise RuntimeError(
            f"pipeline deadlocked; stages stuck at tasks {detail} "
            f"(check warm-up depths and edge directions)"
        )
    report: Optional[FaultReport] = None
    if faults is not None:
        stuck = {s: repr(items[s][idx[s]]) for s in unfinished}
        if unfinished or n_msg_abandoned:
            status = "fatal"
        elif incidents:
            status = "recovered"
        else:
            status = "clean"
        report = FaultReport(
            status=status,
            n_faults=len(incidents),
            n_retries=n_msg_retries,
            n_abandoned=n_msg_abandoned,
            added_latency=added_latency,
            detail=f"stages stuck at tasks {stuck}" if stuck else "",
            incidents=incidents,
        )
    return PipelineResult(telemetry=bus, job=job, workers=workers, fault_report=report)
