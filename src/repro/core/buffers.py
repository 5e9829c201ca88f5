"""Per-host transient buffer attribution — the one sizeof/buffer oracle.

Both sides of the memory-soundness invariant live on this module:

* the **runtime** accounting in :class:`~repro.core.executor.PlanRunner`
  charges :func:`op_host_buffers` when an op launches and releases it
  when the op completes, tracking the actual per-host high-water mark;
* the **static** analyzer (:mod:`repro.analysis.memory_analysis`)
  combines the same per-op charges with the schedule's host-serialization
  order into a sound upper bound, per host, on live transient bytes.

Because both consume the identical attribution, ``static_bound >=
simulated_peak`` reduces to the serialization argument alone — the
formulas cannot drift apart.

Attribution is **receiver-side**: senders read resident tensor shards
(already accounted as model state), while each target of an op (see
the op table in :mod:`repro.core.plan`) holds a transient landing
buffer of ``op.target_nbytes`` until the payload is consumed: the full
slice on every send, broadcast and multicast receiver (ring forwarding
and switch fanout materialize it even on same-host siblings) and on
every all-gather device, one part on each scatter receiver.

This module and :mod:`repro.core.tensor` are the only places raw
``itemsize`` byte math is allowed (repro-lint L004).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .plan import CommOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.cluster import Cluster

__all__ = ["op_host_buffers"]


def op_host_buffers(cluster: "Cluster", op: CommOp) -> dict[int, float]:
    """Transient buffer bytes ``op`` pins while in flight, per host id.

    Targets outside the cluster are skipped, so attribution stays total
    on hand-built fixture plans that name them; the plan checker
    reports them as P008.  Hosts with a zero charge are omitted.
    """
    out: dict[int, float] = {}
    each = op.target_nbytes
    n_devices = cluster.n_devices
    for device in op.targets:
        if 0 <= device < n_devices:
            host = cluster.host_of(device)
            out[host] = out.get(host, 0.0) + each
    return out

