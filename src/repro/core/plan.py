"""Communication-plan IR for cross-mesh resharding: the one delivery model.

A strategy compiles a :class:`~repro.core.task.ReshardingTask` into a
:class:`CommPlan`: a list of communication ops plus (optionally) a unit-
task schedule.  The timing executor, the NumPy data plane, the plan
checker, the delivery verifier, buffer attribution and recovery's
trimming all read what an op delivers from here, not from their own
rules:

===============  ========  ===============  ================  ================
kind             source    targets          bytes per target  lands per target
===============  ========  ===============  ================  ================
``SendOp``       sender    ``(receiver,)``  ``nbytes``        the whole region
``BroadcastOp``  sender    receivers        ``nbytes``        the whole region
``MulticastOp``  sender    receivers        ``nbytes``        the whole region
``ScatterOp``    sender    receivers        ``nbytes / n``    flat part ``k``
``AllGatherOp``  ``None``  devices          ``nbytes``        the whole region
===============  ========  ===============  ================  ================

``BroadcastOp`` is a ring broadcast in ``n_chunks`` pipeline chunks;
``MulticastOp`` sends each chunk once up the named ``switch``, which
replicates it to every receiving host (it must span them all).  The
rules every interpreter shares:

* **Parts:** a scatter splits its region's row-major flattening into
  ``n`` near-equal parts, in :meth:`ScatterOp.parts` alone.
* **Authority:** an op with a source delivers only if
  :meth:`ReshardingTask.holds` says the source holds its whole region.
* **Feeding:** an all-gather delivers only if the parts its devices got
  from the delivering same-region scatters in its ``deps`` cover it.
* **Defects:** :func:`op_defect` names malformed ops (unknown kind,
  wrong region rank, a scatter that cannot split, a target outside the
  cluster); they deliver nothing.
* **Coverage:** receivers crop to their tile, and a device also in the
  source mesh reuses its local shard; :func:`tile_cover` counts the
  tile elements that never arrive or arrive more than once.

:func:`plan_deliveries` applies the rules in one walk over ``plan.ops``
and says why an op delivers nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from ..scheduling.problem import Schedule
from .slices import Region, region_intersection, region_size, split_offsets
from .task import ReshardingTask

__all__ = [
    "CommOp",
    "SendOp",
    "BroadcastOp",
    "ScatterOp",
    "AllGatherOp",
    "MulticastOp",
    "ScatterPart",
    "OpDelivery",
    "op_defect",
    "plan_deliveries",
    "tile_cover",
    "FallbackRecord",
    "CommPlan",
    "GatingGraph",
    "gating_graph",
    "slice_checksum",
    "slice_checksums",
]


def slice_checksum(task: ReshardingTask, op: CommOp) -> str:
    """Content fingerprint of the slice ``op`` moves (16 hex chars).

    Derived from stable plan content only — tensor shape/dtype, the op's
    kind, region, and id — never from wall-clock or process state, so
    recompiling the same task yields the identical stamp and replays
    verify byte-identically.  In a real deployment this would be a CRC
    of the payload; in the simulator the *presence* of the stamp is what
    matters: it marks the op as end-to-end verifiable.
    """
    return slice_checksums(task, (op,))[0]


def slice_checksums(task: ReshardingTask, ops: Iterable[CommOp]) -> list[str]:
    """:func:`slice_checksum` of each op, with the task's part built once.

    ``str(dtype)`` is slow and, unlike ``dtype.name``, keeps the byte
    order (``>f4``), so it is formatted once per call, not once per op.
    """
    shape = tuple(task.shape)
    dtype = str(task.dtype)
    return [
        hashlib.sha256(
            repr((shape, dtype, type(op).__name__, op.op_id, op.region, op.nbytes)).encode()
        ).hexdigest()[:16]
        for op in ops
    ]


@dataclass(frozen=True)
class FallbackRecord:
    """A failure-aware deviation a strategy took while compiling the plan.

    E.g. the scheduler assigned unit task ``unit_task_id`` to sender
    host ``from_host``, but that host's NIC was down at plan time, so
    the broadcast was re-rooted onto surviving replica host ``to_host``.
    """

    unit_task_id: int
    from_host: int
    to_host: int
    reason: str


@dataclass(frozen=True)
class CommOp:
    """Base communication op.

    ``deps`` are op ids that must complete before this op starts (data
    dependencies within a composite, e.g. scatter before all-gather).
    ``unit_task_id`` ties the op to the unit communication task it
    implements, used for schedule gating; ``-1`` means ungated.

    ``checksum`` is a per-slice content fingerprint stamped by the
    compiler's emit pass (:func:`repro.core.plan.slice_checksum`): the
    receiver-side end-to-end check that turns gray corruption
    (:class:`repro.sim.faults.CorruptionWindow`) from silent data loss
    into a detected, reportable fault.  Empty string means "unstamped"
    (hand-built plans); the verifier treats corruption of an unstamped
    op as *undetectable* and refuses to certify the plan.
    """

    op_id: int
    unit_task_id: int
    region: Region
    nbytes: float
    deps: tuple[int, ...] = ()
    checksum: str = ""

    # The op table of the module docstring; subclasses override.
    @property
    def source(self) -> Optional[int]:
        """The device the payload is read from (``None``: fed by parts)."""
        return None

    @property
    def targets(self) -> tuple[int, ...]:
        """The devices the op writes to."""
        return ()

    @property
    def target_nbytes(self) -> float:
        """Bytes that land on each target."""
        return self.nbytes

    @property
    def claimed_switch(self) -> Optional[str]:
        """The topology switch a multicast claims; ``None`` otherwise."""
        return None

    def parts(self) -> tuple["ScatterPart", ...]:
        """The flat parts the op places; empty for whole-region ops."""
        return ()

    def without_targets(self, drop: AbstractSet[int]) -> Optional["CommOp"]:
        """This op minus targets ``drop`` (``None``: none left); ops whose
        payload is split over the whole group come back unchanged."""
        return self


class ScatterPart(NamedTuple):
    """Elements ``[lo, hi)`` of scatter ``op_id``'s flattened region."""

    op_id: int
    receiver: int
    lo: int
    hi: int


@dataclass(frozen=True)
class SendOp(CommOp):
    sender: int = -1
    receiver: int = -1

    @property
    def source(self) -> Optional[int]:
        return self.sender

    @property
    def targets(self) -> tuple[int, ...]:
        return (self.receiver,)

    def without_targets(self, drop: AbstractSet[int]) -> Optional[CommOp]:
        return None if self.receiver in drop else self


@dataclass(frozen=True)
class _FanOutOp(CommOp):
    """One sender, many receivers: broadcast, multicast and scatter."""

    sender: int = -1
    receivers: tuple[int, ...] = ()

    @property
    def source(self) -> Optional[int]:
        return self.sender

    @property
    def targets(self) -> tuple[int, ...]:
        return self.receivers

    def without_targets(self, drop: AbstractSet[int]) -> Optional[CommOp]:
        kept = tuple(r for r in self.receivers if r not in drop)
        if len(kept) == len(self.receivers):
            return self
        return dataclasses.replace(self, receivers=kept) if kept else None


@dataclass(frozen=True)
class BroadcastOp(_FanOutOp):
    n_chunks: int = 64


@dataclass(frozen=True)
class ScatterOp(_FanOutOp):
    @property
    def target_nbytes(self) -> float:
        return self.nbytes / len(self.receivers) if self.receivers else 0.0

    def parts(self) -> tuple[ScatterPart, ...]:
        offs = split_offsets(region_size(self.region), len(self.receivers))
        return tuple(
            ScatterPart(self.op_id, r, offs[k], offs[k + 1])
            for k, r in enumerate(self.receivers)
        )

    def without_targets(self, drop: AbstractSet[int]) -> Optional[CommOp]:
        return self


@dataclass(frozen=True)
class AllGatherOp(CommOp):
    devices: tuple[int, ...] = ()

    @property
    def targets(self) -> tuple[int, ...]:
        return self.devices


@dataclass(frozen=True)
class MulticastOp(_FanOutOp):
    #: topology switch carrying the replicated send (must span all hosts)
    switch: str = ""
    n_chunks: int = 16

    @property
    def claimed_switch(self) -> Optional[str]:
        return self.switch


_KINDS = frozenset({SendOp, BroadcastOp, ScatterOp, AllGatherOp, MulticastOp})


def op_defect(op: CommOp, rank: int, n_devices: int) -> str:
    """Why ``op`` is malformed for a rank-``rank`` tensor (its P008
    message), or ``""``.  A malformed op delivers nothing."""
    oid = op.op_id
    if type(op) not in _KINDS:
        return f"op {oid}: unknown op type {type(op).__name__}"
    if len(op.region) != rank:
        return f"op {oid}: region rank {len(op.region)} does not match tensor rank {rank}"
    targets = op.targets
    if isinstance(op, ScatterOp) and not 1 <= len(targets) <= region_size(op.region):
        return (
            f"op {oid}: scatter cannot split the {region_size(op.region)} "
            f"elements of {op.region} into {len(targets)} non-empty parts"
        )
    if targets and (min(targets) < 0 or max(targets) >= n_devices):
        outside = sorted({d for d in targets if not 0 <= d < n_devices})
        return f"op {oid}: writes to device(s) {outside} outside the cluster of {n_devices} devices"
    return ""


class OpDelivery(NamedTuple):
    """What one op delivers: ``receivers`` end with its whole region,
    ``parts`` are the flat parts it places (scatter) or assembles from
    (all-gather).  A non-empty ``defect`` says why it delivers nothing,
    under the checker's ``code``: P008 (malformed) or P005 (a sender not
    holding the region, an all-gather its scatters do not feed)."""

    op: CommOp
    receivers: tuple[int, ...]
    parts: tuple[ScatterPart, ...] = ()
    code: str = ""
    defect: str = ""


def plan_deliveries(
    plan: "CommPlan", skip: AbstractSet[int] = frozenset()
) -> Iterator[OpDelivery]:
    """Walk ``plan.ops`` in list order and say what each op delivers.

    Ops in ``skip`` (lost in an executed run) deliver and feed nothing.
    """
    task = plan.task
    rank, n_devices = len(task.shape), task.cluster.n_devices
    scattered: dict[int, OpDelivery] = {}
    for op in plan.ops:
        if op.op_id in skip:
            continue
        defect = op_defect(op, rank, n_devices)
        sender = op.source
        if defect:
            yield OpDelivery(op, (), (), "P008", defect)
        elif sender is None:
            group = set(op.targets)
            feed = tuple(
                p
                for d in op.deps
                if d in scattered and scattered[d].op.region == op.region
                for p in scattered[d].parts
                if p.receiver in group
            )
            reach = 0  # the fed prefix of the flattened region
            for p in sorted(feed, key=lambda p: p.lo):
                if p.lo > reach:
                    break
                reach = max(reach, p.hi)
            if reach >= region_size(op.region):
                yield OpDelivery(op, op.targets, feed)
            else:
                yield OpDelivery(
                    op, (), feed, "P005",
                    f"op {op.op_id}: all-gather group not fully fed by a "
                    "preceding scatter of the same region",
                )
        elif not task.holds(sender, op.region):
            defect = (
                f"sender {sender} is not a source-mesh device"
                if sender not in task.src_mesh
                else f"sender {sender} holds "
                f"{task.src_grid.device_region(sender)}, not {op.region}"
            )
            yield OpDelivery(op, (), (), "P005", f"op {op.op_id}: {defect}")
        else:
            parts = op.parts()
            delivery = OpDelivery(op, () if parts else op.targets, parts)
            if parts:
                scattered[op.op_id] = delivery
            yield delivery


def tile_cover(
    task: ReshardingTask, deliveries: Iterable[OpDelivery]
) -> Iterator[tuple[int, Region, int, int]]:
    """``(device, tile, gaps, duplicates)`` per destination device: how
    many tile elements never arrive and how many arrive more than once.

    Counts the whole regions ``deliveries`` place on the device plus,
    for a device also in the source mesh, its local shard.  The count
    is kept per cell of the grid the regions' edges cut the tile into,
    each cell standing for all its elements, so its cost follows the
    number of regions, not the size of the tile.
    """
    got: dict[int, list[Region]] = {d: [] for d in task.dst_mesh.devices}
    for delivery in deliveries:
        for r in delivery.receivers:
            if r in got:
                got[r].append(delivery.op.region)
    for dev, regions in got.items():
        want = task.dst_grid.device_region(dev)
        if dev in task.src_mesh:
            regions.append(task.src_grid.device_region(dev))
        boxes = [b for r in regions if (b := region_intersection(r, want)) is not None]
        if boxes == [want]:
            yield dev, want, 0, 0
            continue
        cuts = [
            sorted({lo, hi, *(b[k][0] for b in boxes), *(b[k][1] for b in boxes)})
            for k, (lo, hi) in enumerate(want)
        ]
        counts = np.zeros([len(c) - 1 for c in cuts], dtype=np.int64)
        for box in boxes:
            counts[
                tuple(
                    slice(bisect_left(c, lo), bisect_left(c, hi))
                    for c, (lo, hi) in zip(cuts, box)
                )
            ] += 1
        widths = [[b - a for a, b in zip(c, c[1:])] for c in cuts]
        cells = np.asarray(reduce(np.multiply.outer, widths))
        yield dev, want, int(cells[counts == 0].sum()), int(cells[counts > 1].sum())


@dataclass
class CommPlan:
    """A compiled cross-mesh resharding plan."""

    task: ReshardingTask
    strategy: str
    ops: list[CommOp] = field(default_factory=list)
    #: unit-task schedule (assignment + order); None means "launch all"
    schedule: Optional[Schedule] = None
    #: False when the plan does not actually move the tensor (signal)
    data_complete: bool = True
    #: unit-task decomposition the op unit_task_ids refer to
    granularity: str = "intersection"
    #: failure-aware deviations taken at plan time (e.g. re-rooted senders)
    fallbacks: list[FallbackRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._ops_index: Optional[dict[int, list[CommOp]]] = None
        self._indexed: tuple[int, int] = (-1, -1)

    def add(self, op: CommOp) -> CommOp:
        if op.op_id != len(self.ops):
            raise ValueError(
                f"op_id {op.op_id} out of sequence (expected {len(self.ops)})"
            )
        for d in op.deps:
            if not 0 <= d < len(self.ops):
                raise ValueError(f"dep {d} references unknown op")
        self.ops.append(op)
        return op

    @property
    def next_op_id(self) -> int:
        return len(self.ops)

    def ops_by_task(self) -> dict[int, list[CommOp]]:
        """``unit_task_id -> ops`` index, built once per plan revision.

        The index is rebuilt when the ops list was appended to (or
        swapped out) since the last build; both interpreters walk every
        unit task, so the old per-call linear scan made ``ops_of_task``
        O(n·m) overall.
        """
        key = (len(self.ops), id(self.ops))
        if self._ops_index is None or self._indexed != key:
            index: dict[int, list[CommOp]] = {}
            for op in self.ops:
                index.setdefault(op.unit_task_id, []).append(op)
            self._ops_index = index
            self._indexed = key
        return self._ops_index

    def ops_of_task(self, unit_task_id: int) -> list[CommOp]:
        return list(self.ops_by_task().get(unit_task_id, ()))

    def task_hosts(self, tid: int) -> frozenset[int]:
        """Hosts scheduled unit task ``tid`` occupies under Eq. 3.

        Its receiver hosts plus its assigned sender host.  A task id the
        decomposition does not know adds no receivers and an unassigned
        task no sender; the plan checker reports both shapes.
        """
        unit_tasks = self.task.unit_tasks(self.granularity)
        hosts = (
            self.task.receiver_hosts(unit_tasks[tid])
            if 0 <= tid < len(unit_tasks)
            else frozenset()
        )
        if self.schedule is not None and tid in self.schedule.assignment:
            hosts |= {self.schedule.assignment[tid]}
        return hosts

    def total_bytes(self) -> float:
        """Sum of bytes injected by each op (broadcast counts once per hop
        at execution time; here we count the op's payload once)."""
        return sum(op.nbytes for op in self.ops)

    def __repr__(self) -> str:
        kinds: dict[str, int] = {}
        for op in self.ops:
            kinds[type(op).__name__] = kinds.get(type(op).__name__, 0) + 1
        return f"CommPlan({self.strategy}, ops={kinds})"


class GatingGraph(NamedTuple):
    """A plan's schedule gating: the executable form of Eq. 3.

    ``hosts[t]`` is :meth:`CommPlan.task_hosts` of every gated task;
    ``preds[t]`` are the earlier-ordered tasks sharing one of those
    hosts — ``t`` may start once all of them finished — and ``succs``
    is the reverse map.  Both cover every task id that has ops.
    """

    hosts: dict[int, frozenset[int]]
    preds: dict[int, set[int]]
    succs: dict[int, set[int]]


def gating_graph(plan: CommPlan) -> GatingGraph:
    """Build ``plan``'s gating graph from its schedule order.

    Each task waits for the last earlier-ordered task on each of its
    hosts (visited in sorted order).  Tasks without ops and ungated
    (``-1``) ops are skipped, and a task is never its own predecessor,
    so a repeated order entry adds no self-loop.  The executor runs this
    graph and the analyzers reason over it; an unscheduled plan has no
    edges.
    """
    task_ops = plan.ops_by_task()
    hosts_of: dict[int, frozenset[int]] = {}
    preds: dict[int, set[int]] = {tid: set() for tid in task_ops}
    succs: dict[int, set[int]] = {tid: set() for tid in task_ops}
    if plan.schedule is None:
        return GatingGraph(hosts_of, preds, succs)
    last_on_host: dict[int, int] = {}
    for tid in plan.schedule.order:
        if tid == -1 or tid not in task_ops:
            continue
        if tid not in hosts_of:
            hosts_of[tid] = plan.task_hosts(tid)
        for h in sorted(hosts_of[tid]):
            prev = last_on_host.get(h)
            if prev is not None and prev != tid:
                preds[tid].add(prev)
                succs[prev].add(tid)
            last_on_host[h] = tid
    return GatingGraph(hosts_of, preds, succs)
