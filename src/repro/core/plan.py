"""Communication-plan IR for cross-mesh resharding.

A strategy compiles a :class:`~repro.core.task.ReshardingTask` into a
:class:`CommPlan`: a list of communication ops plus (optionally) a unit-
task schedule.  The plan has two interpreters:

* the **timing interpreter** (:mod:`repro.core.executor`) maps ops onto
  the flow simulator's primitives and reports simulated latency;
* the **data interpreter** (:mod:`repro.core.data`) moves real NumPy
  buffers between simulated devices and verifies every destination
  device ends up with exactly its required tile.

Op kinds:

``SendOp``
    sender delivers the exact ``region`` to one receiver.
``BroadcastOp``
    sender delivers the full ``region`` to every receiver (ring
    broadcast with ``n_chunks`` pipeline chunks); receivers crop.
``ScatterOp``
    region's elements (row-major flattened) are split into
    ``len(receivers)`` near-equal flat parts; part ``k`` goes to
    ``receivers[k]``.
``AllGatherOp``
    the group devices, each holding flat part ``k`` of ``region``
    (from a prior ScatterOp, named via ``deps``), exchange parts so all
    of them hold the full region.
``MulticastOp``
    sender delivers the full ``region`` to every receiver via switch
    replication: one upstream traversal of the named ``switch`` per
    chunk, replicated downstream to each receiving host concurrently.
    Requires a topology whose switch spans sender and receivers;
    receivers crop like BroadcastOp.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from ..scheduling.problem import Schedule
from .slices import Region
from .task import ReshardingTask

__all__ = [
    "CommOp",
    "SendOp",
    "BroadcastOp",
    "ScatterOp",
    "AllGatherOp",
    "MulticastOp",
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


@dataclass(frozen=True)
class SendOp(CommOp):
    sender: int = -1
    receiver: int = -1


@dataclass(frozen=True)
class BroadcastOp(CommOp):
    sender: int = -1
    receivers: tuple[int, ...] = ()
    n_chunks: int = 64


@dataclass(frozen=True)
class ScatterOp(CommOp):
    sender: int = -1
    receivers: tuple[int, ...] = ()


@dataclass(frozen=True)
class AllGatherOp(CommOp):
    devices: tuple[int, ...] = ()


@dataclass(frozen=True)
class MulticastOp(CommOp):
    sender: int = -1
    receivers: tuple[int, ...] = ()
    #: topology switch carrying the replicated send (must span all hosts)
    switch: str = ""
    n_chunks: int = 16


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
