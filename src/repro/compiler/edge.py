"""Compiled resharding attached to one pipeline stage edge.

:func:`repro.models.parallel.resolve_comm_edges` compiles each stage
boundary's forward/backward resharding through the plan compiler and
hangs an :class:`EdgeResharding` on the :class:`~repro.pipeline.stage
.CommEdge`.  The pipeline executor then prices every cross-stage message
via :meth:`EdgeResharding.time`.  Each direction's plan signature is
built once per plan-cache epoch; every message after that is one
``PlanCache.lookup`` of the remembered signature, so the per-micro-batch
repetition of the same resharding is served from the content-addressed
cache without recompiling or rehashing, and the pipeline's comm
latencies are, by construction, ``simulate_plan`` latencies of the
compiled plans (one shared timing path).
"""

from __future__ import annotations

from typing import Optional

from ..core.plan import CommPlan
from ..core.task import ReshardingTask
from .pipeline import (
    CacheSlot,
    CompileContext,
    CompiledPlan,
    compile_in_slot,
    compile_resharding,
)

__all__ = ["EdgeResharding"]


def _check_routable(task: ReshardingTask) -> None:
    """Fail fast when the edge crosses hosts the topology cannot connect.

    The compile-time mirror of the analyzer's T003: partial topologies
    (a custom zoo entry, a partitioned fabric) should reject the stage
    edge here, with the offending host pair named, rather than surface
    as a wedged flow deep inside the simulator.
    """
    cluster = task.src_mesh.cluster
    topo = cluster.topo
    src_hosts = sorted(set(cluster.hosts_of(task.src_mesh.devices)))
    dst_hosts = sorted(set(cluster.hosts_of(task.dst_mesh.devices)))
    for sh in src_hosts:
        for dh in dst_hosts:
            if sh != dh and not topo.has_route(sh, dh):
                raise ValueError(
                    f"stage edge needs host {sh} -> host {dh} but topology "
                    f"{topo.topology.name!r} defines no route between them"
                )


class EdgeResharding:
    """Both directions of one cross-mesh stage edge, compiled on demand.

    With a cacheable strategy each direction remembers the
    :class:`~repro.compiler.pipeline.CacheSlot` (cache, epoch,
    signature) of its last compile.  While the context's cache is the
    same object at the same epoch, a message costs one counted
    ``PlanCache.lookup`` of that signature through
    :func:`~repro.compiler.pipeline.compile_in_slot`, the code behind
    :func:`compile_resharding`; nothing else is skipped.  A swapped
    cache or an :meth:`~repro.compiler.cache.PlanCache.invalidate`
    leaves the slot stale, and the next message goes through
    :func:`compile_resharding` again.  The context's other fields feed
    the signature too and must not change over the edge's life.
    Uncacheable strategies fall back to a per-edge memo so the executor
    still never compiles the same direction twice.
    """

    def __init__(
        self,
        fwd_task: ReshardingTask,
        bwd_task: ReshardingTask,
        ctx: Optional[CompileContext] = None,
    ) -> None:
        _check_routable(fwd_task)
        self.fwd_task = fwd_task
        self.bwd_task = bwd_task
        self.ctx = ctx if ctx is not None else CompileContext()
        self._slots: dict[str, CacheSlot] = {}
        self._memo: dict[str, CompiledPlan] = {}

    def task(self, direction: str) -> ReshardingTask:
        if direction == "fwd":
            return self.fwd_task
        if direction == "bwd":
            return self.bwd_task
        raise ValueError(f"direction must be 'fwd' or 'bwd', got {direction!r}")

    def compiled(self, direction: str) -> CompiledPlan:
        task = self.task(direction)
        cache = self.ctx.resolved_cache()
        slot = self._slots.get(direction)
        if slot is not None and slot.is_current(cache):
            return compile_in_slot(task, self.ctx, slot)
        if cache is None or self.ctx.resolved_strategy().cache_key() is None:
            found = self._memo.get(direction)
            if found is None:
                found = self._memo[direction] = compile_resharding(task, self.ctx)
            return found
        epoch = cache.epoch
        compiled = compile_resharding(task, self.ctx)
        # Plans enter a PlanCache only through compile_in_slot, under
        # their own signature: a hit or a fresh compile both name the
        # slot this direction lives in, unless the epoch moved meanwhile.
        if compiled.signature is not None and cache.epoch == epoch:
            self._slots[direction] = CacheSlot(cache, epoch, compiled.signature)
        return compiled

    def plan(self, direction: str) -> CommPlan:
        return self.compiled(direction).plan

    def time(self, direction: str) -> float:
        """Simulated resharding latency of one message in ``direction``."""
        return self.compiled(direction).total_time

    def __repr__(self) -> str:
        return (
            f"EdgeResharding(shape={self.fwd_task.shape}, "
            f"{self.fwd_task.src_spec}->{self.fwd_task.dst_spec})"
        )
