"""Interleaved 1F1B with virtual pipeline stages (Megatron-style).

An extension beyond the paper: each physical stage hosts ``v`` model
*chunks* (virtual stages); chunk ``c`` of ``V = p*v`` lives on physical
stage ``c mod p``.  Interleaving shrinks the pipeline bubble from
``(p-1)/m`` to ``(p-1)/(m*v)`` at the price of ``v`` times as many
cross-mesh transfers — which makes it an interesting stress test for
the paper's communication optimizations: the more chunk boundaries, the
more there is for broadcast + overlap to hide.

The schedule follows Megatron-LM's interleaved 1F1B: warm-up depth
``(p - rank - 1) * 2 + (v - 1) * p`` forward steps, then one-forward-
one-backward, with micro-batches processed in groups of ``p``.  At
``v = 1`` it is exactly eager-1F1B.

This module only describes the job and generates the order: the job
becomes a :class:`~repro.pipeline.stage.PipelineJob` with one stage per
chunk, and :func:`~repro.pipeline.executor.simulate_pipeline` runs the
per-rank orders with communication overlapped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .executor import PipelineResult, simulate_pipeline
from .schedules import Task
from .stage import CommEdge, PipelineJob, StageProfile

__all__ = ["InterleavedJob", "interleaved_order", "simulate_interleaved"]


@dataclass(frozen=True)
class InterleavedJob:
    """A homogeneous interleaved pipeline job.

    Per-chunk compute costs and a uniform boundary transfer cost (the
    homogeneous-transformer case; chunk boundaries all carry the same
    activation tensor).
    """

    n_stages: int
    n_virtual: int
    n_microbatches: int
    fwd_time: float  # per chunk per micro-batch
    bwd_time: float
    comm_fwd: float  # per chunk-boundary transfer
    comm_bwd: float
    activation_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.n_stages < 1 or self.n_virtual < 1:
            raise ValueError("need at least one stage and one chunk")
        if self.n_microbatches < 1:
            raise ValueError("need at least one micro-batch")
        if self.n_microbatches % self.n_stages != 0:
            raise ValueError(
                "interleaved 1F1B needs micro-batches divisible by the "
                f"number of stages ({self.n_microbatches} % {self.n_stages})"
            )
        if min(self.fwd_time, self.bwd_time, self.comm_fwd, self.comm_bwd) < 0:
            raise ValueError("times must be non-negative")

    @property
    def n_chunks(self) -> int:
        return self.n_stages * self.n_virtual

    def stage_of(self, chunk: int) -> int:
        return chunk % self.n_stages


def interleaved_order(job: InterleavedJob, rank: int) -> list[Task]:
    """Megatron's interleaved 1F1B step order for one physical stage."""
    p, v, m = job.n_stages, job.n_virtual, job.n_microbatches
    if not 0 <= rank < p:
        raise ValueError(f"rank {rank} outside [0, {p})")
    total = m * v

    def f_task(step: int) -> Task:
        chunk_local = (step // p) % v
        mb = (step // (p * v)) * p + step % p
        return Task("F", mb, chunk_local * p + rank)

    def b_task(step: int) -> Task:
        chunk_local = v - 1 - ((step // p) % v)
        mb = (step // (p * v)) * p + step % p
        return Task("B", mb, chunk_local * p + rank)

    warmup = min(total, (p - rank - 1) * 2 + (v - 1) * p)
    order: list[Task] = [f_task(s) for s in range(warmup)]
    fstep, bstep = warmup, 0
    while fstep < total:
        order.append(f_task(fstep))
        fstep += 1
        order.append(b_task(bstep))
        bstep += 1
    while bstep < total:
        order.append(b_task(bstep))
        bstep += 1
    return order


def simulate_interleaved(job: InterleavedJob) -> PipelineResult:
    """Run the interleaved schedule on the pipeline executor (overlapped).

    Each chunk is a job stage; a boundary between chunks on different
    ranks is a comm edge ``c{i}->c{i+1}``.  A boundary inside one rank
    needs no transfer: program order already sequences the two chunks.
    """
    stages = [
        StageProfile(c, job.fwd_time, job.bwd_time, 0.0,
                     activation_bytes=job.activation_bytes)
        for c in range(job.n_chunks)
    ]
    edges = [
        CommEdge(c, c + 1, job.comm_fwd, job.comm_bwd, label=f"c{c}->c{c + 1}")
        for c in range(job.n_chunks - 1)
        if job.stage_of(c) != job.stage_of(c + 1)
    ]
    pjob = PipelineJob(stages, edges, job.n_microbatches)
    orders = [interleaved_order(job, r) for r in range(job.n_stages)]
    return simulate_pipeline(pjob, orders)
