"""Joint planning of several cross-mesh resharding tasks.

A pipeline-stage boundary often carries *several* tensors per
micro-batch (the U-Transformer sends the sequential activation plus
every long skip).  Planning each tensor separately leaves bandwidth on
the table: their unit communication tasks contend for the same host
NICs, so the §3.2 load-balance/ordering problem should be solved over
the union.  This module builds one combined scheduling problem across
all tensors, runs the ensemble scheduler once, and simulates all plans
under a single global gating on the ordinary plan executor — the
"collectively optimize all cross-mesh resharding tasks" framing of the
paper's introduction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ..scheduling import SCHEDULERS, Schedule, SchedTask, SchedulingProblem
from ..sim.network import Network
from ..strategies.base import LoadTracker
from ..strategies.broadcast import BroadcastStrategy
from .executor import PlanRunner
from .plan import CommPlan
from .task import ReshardingTask

__all__ = ["JointTimingResult", "plan_joint_broadcast", "simulate_joint", "reshard_boundary"]


def _combined_problem(
    tasks: Sequence[ReshardingTask], granularity: str = "intersection"
) -> tuple[SchedulingProblem, list[tuple[int, int]]]:
    """Union of all tensors' unit tasks under globally unique ids.

    Returns the problem plus ``key[global_id] = (tensor_idx, local_id)``.
    """
    sched_tasks: list[SchedTask] = []
    key: list[tuple[int, int]] = []
    for ti, rt in enumerate(tasks):
        sub = SchedulingProblem.from_resharding(rt, granularity=granularity)
        for st in sub.tasks:
            gid = len(key)
            key.append((ti, st.task_id))
            sched_tasks.append(
                SchedTask(
                    task_id=gid,
                    sender_host_options=st.sender_host_options,
                    receiver_hosts=st.receiver_hosts,
                    duration_by_host=st.duration_by_host,
                    n_devices=st.n_devices,
                )
            )
    return SchedulingProblem(sched_tasks), key


def plan_joint_broadcast(
    tasks: Sequence[ReshardingTask],
    scheduler: str = "ensemble",
    granularity: str = "intersection",
) -> tuple[list[CommPlan], Schedule, list[tuple[int, int]]]:
    """Broadcast plans for all tensors under one global schedule.

    Each tensor is emitted by :class:`BroadcastStrategy` under its slice
    of the global schedule, which its plan carries, with one sender-load
    tracker shared across tensors so replica picks balance over the
    whole boundary.
    """
    if not tasks:
        raise ValueError("need at least one resharding task")
    cluster = tasks[0].cluster
    for rt in tasks:
        if rt.cluster is not cluster:
            raise ValueError("all tasks must share one cluster")
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    problem, key = _combined_problem(tasks, granularity)
    schedule = SCHEDULERS[scheduler](problem)
    strategy = BroadcastStrategy(granularity=granularity)
    load = LoadTracker(cluster)
    sliced: list[list[int]] = [[] for _ in tasks]
    for gid in schedule.order:
        sliced[key[gid][0]].append(gid)
    plans: list[CommPlan] = []
    for rt, gids in zip(tasks, sliced):
        part = Schedule(
            assignment={key[g][1]: schedule.assignment[g] for g in gids},
            order=tuple(key[g][1] for g in gids),
        )
        plan = CommPlan(
            task=rt, strategy="broadcast", schedule=part, granularity=granularity
        )
        strategy.emit(rt, plan, part, load)
        plans.append(plan)
    return plans, schedule, key


@dataclass
class JointTimingResult:
    total_time: float
    per_tensor_finish: list[float]
    bytes_cross_host: float
    network: Network


@dataclass
class _JointPlan(CommPlan):
    """Every tensor's ops renumbered into one plan over global task ids.

    ``key[gid] = (tensor_idx, local_id)`` maps a global unit-task id
    back to ``parts[tensor_idx]``, so each task's Eq. 3 host set is the
    one its own tensor's plan reports, plus the sender host the global
    schedule assigned (a part may not carry its schedule slice).
    """

    parts: Sequence[CommPlan] = ()
    key: Sequence[tuple[int, int]] = ()

    def task_hosts(self, tid: int) -> frozenset[int]:
        ti, local = self.key[tid]
        assert self.schedule is not None
        return self.parts[ti].task_hosts(local) | {self.schedule.assignment[tid]}


def simulate_joint(
    plans: Sequence[CommPlan],
    schedule: Schedule,
    key: Sequence[tuple[int, int]],
    network: Optional[Network] = None,
) -> JointTimingResult:
    """Simulate several plans under one global schedule gating.

    The tensors' ops are renumbered into one :class:`CommPlan` whose
    unit tasks are the global ids, and that plan runs on
    :class:`~repro.core.executor.PlanRunner`: Eq. 3 gating with per-host
    program order taken from the *global* schedule order.
    """
    if not plans:
        raise ValueError("need at least one plan")
    gid_of = {pair: gid for gid, pair in enumerate(key)}
    joint = _JointPlan(
        task=plans[0].task, strategy="joint", schedule=schedule, parts=plans, key=key
    )
    tensor_ops: list[range] = []
    for ti, plan in enumerate(plans):
        base = joint.next_op_id
        for op in plan.ops:
            joint.add(replace(
                op,
                op_id=base + op.op_id,
                unit_task_id=gid_of[ti, op.unit_task_id],
                deps=tuple(base + d for d in op.deps),
            ))
        tensor_ops.append(range(base, joint.next_op_id))
    result = PlanRunner(joint, network=network).run()
    return JointTimingResult(
        total_time=result.total_time,
        per_tensor_finish=[
            max((result.op_finish[i] for i in ids), default=0.0) for ids in tensor_ops
        ],
        bytes_cross_host=result.bytes_cross_host,
        network=result.network,
    )


def reshard_boundary(
    tasks: Sequence[ReshardingTask],
    scheduler: str = "ensemble",
) -> JointTimingResult:
    """Plan and simulate a multi-tensor boundary in one shot."""
    plans, schedule, key = plan_joint_broadcast(tasks, scheduler=scheduler)
    return simulate_joint(plans, schedule, key)
