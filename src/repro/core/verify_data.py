"""Execution-aware data-plane integrity verification.

:func:`verify_plan_coverage` (in :mod:`repro.core.validate`) proves a
plan *would* deliver everything if every op succeeded.  This module
closes the remaining gap for faulted runs: given the plan **and** the
timing outcome of actually executing it (which ops delivered, which were
abandoned after retries, which were blocked behind wedged host queues),
it symbolically tracks which source slices each destination device
*actually received* and fails loudly on any gap or overlap.

Because every sender is checked against the source tile grid (a replica
must genuinely hold the region it claims to send), two deliveries of
the same element are value-identical by construction whenever both
senders are authoritative — so "overlap" here means *duplicated
delivery*, which the strict mode (used by the recovery runtime to
certify restored state) treats as an error just like a gap: a correct
recovery reshard delivers every element of every destination tile
exactly once.

Broadcast re-roots (``CommPlan.fallbacks``) need no special casing: the
re-rooted op names its actual sender, which the authority check covers;
retries are invisible at this level because the network either delivered
the full payload (possibly after retries) or abandoned the op, and
abandonment shows up in ``TimingResult.failed_ops``.

**Gray corruption** (:class:`repro.sim.faults.CorruptionWindow`) is the
one fault the timing layer cannot surface on its own: the flow completed
on time, the bytes are just wrong.  The verifier closes that hole with a
hard never-silent rule.  A corrupted op whose checksum caught it
(``TimingResult.corrupted_ops``) had its payload *discarded* by the
receiver, so it is credited with **no** delivery — if no duplicate
replica delivery covers the same tile, the gap fails certification
exactly like an abandoned transfer.  A corrupted op *without* a
checksum (``unverified_corruption``, possible only for hand-built plans
that skipped the compiler's emit stamping) means bad bytes were applied
and nothing in-band could know: the report is never certified, and
under ``raise_on_error`` it raises before anything else — "maybe-bad
data certified as good" is the one outcome this module exists to
prevent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .plan import AllGatherOp, BroadcastOp, CommPlan, MulticastOp, ScatterOp, SendOp
from .slices import Region, region_intersection, region_shape, region_size, split_offsets

__all__ = ["IntegrityError", "IntegrityReport", "verify_delivery"]


class IntegrityError(RuntimeError):
    """The executed plan did not deliver exactly the required data."""


@dataclass
class IntegrityReport:
    """Outcome of verifying one executed (or hypothetical) plan.

    ``gaps`` / ``duplicates`` map destination device id to the number of
    elements of its tile that arrived zero / more-than-one times.  A
    report is *certified* when every destination tile was covered
    exactly once — no missing and no duplicated slices.
    """

    n_ops: int
    n_ops_failed: int
    n_devices: int
    gaps: dict[int, int] = field(default_factory=dict)
    duplicates: dict[int, int] = field(default_factory=dict)
    #: ops the verifier refused to credit (e.g. all-gather missing parts)
    discredited_ops: tuple[int, ...] = ()
    #: plan-time re-roots that were honoured (from ``CommPlan.fallbacks``)
    n_fallbacks: int = 0
    #: flows the network delivered only after retrying (when known)
    n_retried_flows: int = 0
    #: ops whose delivery was corrupted and *detected* by checksum
    #: (payload discarded, no delivery credit)
    corrupted_ops: tuple[int, ...] = ()
    #: corrupted ops with no checksum: undetectable in-band, never
    #: certifiable
    unverifiable_ops: tuple[int, ...] = ()

    @property
    def certified(self) -> bool:
        return (
            not self.gaps
            and not self.duplicates
            and not self.unverifiable_ops
        )

    def __repr__(self) -> str:
        state = "certified" if self.certified else (
            f"gaps={self.gaps} duplicates={self.duplicates}"
        )
        return (
            f"IntegrityReport({state}, ops={self.n_ops}, "
            f"failed={self.n_ops_failed}, devices={self.n_devices})"
        )


def _sender_is_authoritative(plan: CommPlan, sender: int, region: Region) -> bool:
    task = plan.task
    if sender not in task.src_mesh:
        return False
    holder = task.src_grid.device_region(sender)
    return region_intersection(holder, region) == region


def verify_delivery(
    plan: CommPlan,
    timing=None,
    strict: bool = True,
    raise_on_error: bool = True,
) -> IntegrityReport:
    """Certify that the executed plan delivered every tile exactly once.

    ``timing`` is the :class:`~repro.core.executor.TimingResult` of
    running the plan; ops listed in its ``failed_ops`` (abandoned
    transfers, or tasks blocked behind wedged host queues) are credited
    with **no** delivery — a partially received broadcast is unusable.
    With ``timing=None`` the plan is assumed fully executed (the purely
    static check, equivalent in strength to ``verify_plan_coverage``
    plus duplicate detection).

    ``strict`` also fails duplicated deliveries (exact-once cover, the
    bar the recovery runtime certifies restored state against); with
    ``strict=False`` duplicates are still *reported* but do not raise —
    appropriate for replica-delivery strategies whose receivers crop.
    """
    task = plan.task
    corrupted: tuple[int, ...] = (
        tuple(timing.corrupted_ops) if timing is not None else ()
    )
    unverifiable: tuple[int, ...] = (
        tuple(timing.unverified_corruption) if timing is not None else ()
    )
    # Detected corruption = discarded payload = no delivery credit.
    failed: frozenset[int] = frozenset(
        (timing.failed_ops if timing is not None else ())
    ) | frozenset(corrupted)
    # Elements delivered per destination device, as (region, count).
    delivered: dict[int, list[Region]] = {d: [] for d in task.dst_mesh.devices}
    # Flat scatter parts per (device, region): list of (lo, hi).
    flat: dict[tuple[int, Region], list[tuple[int, int]]] = {}
    discredited: list[int] = []

    for op in plan.ops:
        if op.op_id in failed:
            continue
        if isinstance(op, SendOp):
            if not _sender_is_authoritative(plan, op.sender, op.region):
                discredited.append(op.op_id)
                continue
            if op.receiver in delivered:
                delivered[op.receiver].append(op.region)
        elif isinstance(op, (BroadcastOp, MulticastOp)):
            if not _sender_is_authoritative(plan, op.sender, op.region):
                discredited.append(op.op_id)
                continue
            for r in op.receivers:
                if r in delivered:
                    delivered[r].append(op.region)
        elif isinstance(op, ScatterOp):
            if not _sender_is_authoritative(plan, op.sender, op.region):
                discredited.append(op.op_id)
                continue
            offs = split_offsets(region_size(op.region), len(op.receivers))
            for k, r in enumerate(op.receivers):
                flat.setdefault((r, op.region), []).append((offs[k], offs[k + 1]))
        elif isinstance(op, AllGatherOp):
            # The group can reconstruct the region only if the parts its
            # members actually hold cover the flattened region entirely.
            size = region_size(op.region)
            covered = np.zeros(size, dtype=bool)
            for dev in op.devices:
                for lo, hi in flat.get((dev, op.region), ()):
                    covered[lo:hi] = True
            if not covered.all():
                discredited.append(op.op_id)
                continue
            for dev in op.devices:
                if dev in delivered:
                    delivered[dev].append(op.region)
        else:
            raise IntegrityError(f"unknown op type {type(op).__name__}")

    # Count per-element arrivals on each destination tile.
    gaps: dict[int, int] = {}
    duplicates: dict[int, int] = {}
    intra = set(task.src_mesh.devices) & set(task.dst_mesh.devices)
    for dev in task.dst_mesh.devices:
        want = task.dst_grid.device_region(dev)
        counts = np.zeros(region_shape(want), dtype=np.int32)
        regions = list(delivered[dev])
        if dev in intra:
            # Intra-mesh plans: the device reuses its local source shard.
            regions.append(task.src_grid.device_region(dev))
        for region in regions:
            inter = region_intersection(region, want)
            if inter is None:
                continue
            sl = tuple(
                slice(i0 - w0, i1 - w0) for (i0, i1), (w0, _) in zip(inter, want)
            )
            counts[sl] += 1
        n_missing = int((counts == 0).sum())
        n_dup = int((counts > 1).sum())
        if n_missing:
            gaps[dev] = n_missing
        if n_dup:
            duplicates[dev] = n_dup

    report = IntegrityReport(
        n_ops=len(plan.ops),
        n_ops_failed=len(failed),
        n_devices=len(delivered),
        gaps=gaps,
        duplicates=duplicates,
        discredited_ops=tuple(discredited),
        n_fallbacks=len(plan.fallbacks),
        n_retried_flows=(
            sum(1 for r in timing.network.trace if r.status == "retried")
            if timing is not None
            else 0
        ),
        corrupted_ops=corrupted,
        unverifiable_ops=unverifiable,
    )
    if raise_on_error:
        if report.unverifiable_ops:
            raise IntegrityError(
                f"silent corruption possible: op(s) "
                f"{list(report.unverifiable_ops)[:8]} delivered corrupted "
                f"bytes but carry no checksum — delivery integrity cannot "
                f"be certified"
            )
        if report.gaps:
            raise IntegrityError(
                f"missing data on {len(report.gaps)} device(s): "
                + ", ".join(
                    f"d{d}:{n}el" for d, n in sorted(report.gaps.items())[:8]
                )
            )
        if strict and report.duplicates:
            raise IntegrityError(
                f"duplicated deliveries on {len(report.duplicates)} device(s): "
                + ", ".join(
                    f"d{d}:{n}el" for d, n in sorted(report.duplicates.items())[:8]
                )
            )
    return report
