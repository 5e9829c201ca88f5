"""Data interpreter: execute a CommPlan on real NumPy shards.

The same plan the timing interpreter simulates is replayed here as
actual byte movement between device buffers, so tests can assert that a
strategy's plan reconstructs the destination layout exactly.  What each
op delivers — endpoints, scatter parts, all-gather feeding, sender
authority — comes from the delivery walk of :mod:`repro.core.plan`
(the plan checker's and the delivery verifier's too); this module only
moves the payloads, and an op the walk credits with nothing raises
:class:`DataPlaneError`.

Receivers stage pieces as they arrive; at the end each destination
device assembles its required tile from the staged full-region pieces
and the assembly is verified for complete coverage and replica
consistency.
"""

from __future__ import annotations

import numpy as np

from .plan import CommPlan, plan_deliveries
from .slices import Region, region_intersection, region_shape, region_size
from .tensor import DistributedTensor, read_region

__all__ = ["apply_plan", "DataPlaneError"]


class DataPlaneError(RuntimeError):
    """A plan failed to move the data it claimed to move."""


def apply_plan(plan: CommPlan, src: DistributedTensor) -> DistributedTensor:
    """Execute the plan's data movement; return the destination tensor."""
    task = plan.task
    if not plan.data_complete:
        raise DataPlaneError(
            f"plan of strategy {plan.strategy!r} does not carry data "
            "(data_complete=False)"
        )
    if src.mesh is not task.src_mesh and src.mesh != task.src_mesh:
        raise DataPlaneError("source tensor mesh does not match the task")
    if src.spec != task.src_spec or src.shape != task.shape:
        raise DataPlaneError("source tensor layout does not match the task")

    #: (region, data shaped like it) staged on each receiving device
    region_pieces: dict[int, list[tuple[Region, np.ndarray]]] = {}
    #: each delivering scatter's flattened region, by op id
    flat: dict[int, np.ndarray] = {}
    done: set[int] = set()
    for d in plan_deliveries(plan):
        op = d.op
        for dep in op.deps:
            if dep not in done:
                raise DataPlaneError(
                    f"op {op.op_id} executed before its dependency {dep}"
                )
        if d.defect:
            raise DataPlaneError(d.defect)
        sender = op.source
        if sender is None:
            # All-gather: assemble the region from the parts that feed it.
            full = np.empty(region_size(op.region), dtype=src.dtype)
            for p in d.parts:
                full[p.lo : p.hi] = flat[p.op_id][p.lo : p.hi]
            data = full.reshape(region_shape(op.region))
        else:
            data = read_region(src.shards[sender], src.device_region(sender), op.region)
            if d.parts:
                flat[op.op_id] = data.reshape(-1)
        for r in d.receivers:
            region_pieces.setdefault(r, []).append((op.region, data))
        done.add(op.op_id)

    # ------------------------------------------------------------------
    # Assemble each destination device's tile from its staged pieces.
    # ------------------------------------------------------------------
    shards: dict[int, np.ndarray] = {}
    for dev in task.dst_mesh.devices:
        want = task.dst_grid.device_region(dev)
        tile = np.empty(region_shape(want), dtype=src.dtype)
        covered = np.zeros(region_shape(want), dtype=bool)
        pieces = list(region_pieces.get(dev, []))
        if dev in src.shards:
            # Intra-mesh resharding: the device reuses its local shard.
            pieces.append((src.device_region(dev), src.shards[dev]))
        for region, data in pieces:
            inter = region_intersection(region, want)
            if inter is None:
                continue
            dst_sl = tuple(
                slice(i0 - w0, i1 - w0) for (i0, i1), (w0, _) in zip(inter, want)
            )
            src_sl = tuple(
                slice(i0 - p0, i1 - p0) for (i0, i1), (p0, _) in zip(inter, region)
            )
            piece = data[src_sl]
            seen = covered[dst_sl]
            if seen.any() and not (tile[dst_sl] == piece)[seen].all():
                raise DataPlaneError(f"device {dev}: conflicting data for {inter}")
            tile[dst_sl] = piece
            covered[dst_sl] = True
        if not covered.all():
            missing = int((~covered).sum())
            raise DataPlaneError(
                f"device {dev}: tile {want} missing {missing} elements "
                f"after plan execution (strategy {plan.strategy!r})"
            )
        shards[dev] = tile
    return DistributedTensor(
        task.dst_mesh, task.dst_spec, task.shape, shards, dtype=src.dtype
    )
