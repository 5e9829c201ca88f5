"""Tests for joint multi-tensor boundary planning."""

from itertools import groupby

import numpy as np
import pytest

from repro.core.executor import simulate_plan
from repro.core.joint import plan_joint_broadcast, reshard_boundary, simulate_joint
from repro.core.mesh import DeviceMesh
from repro.core.plan import CommPlan, SendOp, gating_graph
from repro.core.task import ReshardingTask
from repro.scheduling import Schedule
from repro.sim.cluster import GBPS, Cluster, ClusterSpec
from repro.strategies import BroadcastStrategy


def make_tasks(shapes_specs, n_hosts=4, **spec):
    c = Cluster(ClusterSpec(n_hosts=n_hosts, devices_per_host=4, **spec))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    return [
        ReshardingTask(shape, src, s_spec, dst, d_spec, dtype=np.float32)
        for shape, s_spec, d_spec in shapes_specs
    ]


BOUNDARY = [
    ((256, 64, 64), "S0RR", "S0RR"),   # "seq" activation
    ((256, 128, 64), "S0RR", "S0RR"),  # "skip" tensor
]


def test_joint_plans_cover_all_tensors():
    tasks = make_tasks(BOUNDARY)
    plans, schedule, key = plan_joint_broadcast(tasks)
    assert len(plans) == 2
    total_units = sum(len(rt.unit_tasks()) for rt in tasks)
    assert len(key) == total_units
    assert len(schedule.order) == total_units
    for plan, rt in zip(plans, tasks):
        assert len(plan.ops) == len(rt.unit_tasks())


def test_joint_simulation_completes():
    tasks = make_tasks(BOUNDARY)
    plans, schedule, key = plan_joint_broadcast(tasks)
    r = simulate_joint(plans, schedule, key)
    assert r.total_time > 0
    assert len(r.per_tensor_finish) == 2
    assert max(r.per_tensor_finish) == pytest.approx(r.total_time)
    total_bytes = sum(rt.total_nbytes for rt in tasks)
    assert r.bytes_cross_host == pytest.approx(total_bytes)


def test_joint_not_slower_than_sequential():
    """Joint scheduling must beat (or match) back-to-back planning."""
    tasks = make_tasks(BOUNDARY)
    joint = reshard_boundary(tasks).total_time
    seq = sum(
        simulate_plan(BroadcastStrategy().plan(rt)).total_time for rt in tasks
    )
    assert joint <= seq * 1.02


def test_joint_overlaps_disjoint_tensors():
    """Two tensors whose receivers sit on different hosts run fully in
    parallel under the joint schedule."""
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst_a = DeviceMesh.from_hosts(c, [2])
    dst_b = DeviceMesh.from_hosts(c, [3])
    t1 = ReshardingTask((1 << 20, 2), src, "RR", dst_a, "RR", dtype=np.float32)
    t2 = ReshardingTask((1 << 20, 2), src, "RR", dst_b, "RR", dtype=np.float32)
    joint = reshard_boundary([t1, t2]).total_time
    alone = simulate_plan(BroadcastStrategy().plan(t1)).total_time
    assert joint == pytest.approx(alone, rel=0.1)


def test_joint_single_tensor_matches_plain_broadcast():
    tasks = make_tasks(BOUNDARY[:1])
    joint = reshard_boundary(tasks).total_time
    plain = simulate_plan(BroadcastStrategy().plan(tasks[0])).total_time
    assert joint == pytest.approx(plain, rel=0.05)


def test_joint_boundary_numbers_are_pinned():
    r = reshard_boundary(make_tasks(BOUNDARY))
    assert r.total_time == 0.005451908479999999
    assert r.per_tensor_finish == [0.005451908479999999, 0.005451908479999999]
    assert r.bytes_cross_host == 12582912.0


def slow_host0_tasks():
    """The boundary of test_cross_validation's heterogeneous-NIC case."""
    return make_tasks(
        [((1 << 20, 2), "RR", "S0R"), ((1 << 20, 2), "RR", "S1R")],
        host_bandwidth_overrides=((0, 1 * GBPS),),
    )


def test_heterogeneous_nic_boundary_numbers_are_pinned():
    r = reshard_boundary(slow_host0_tasks())
    assert r.total_time == 0.021414317439999997
    assert r.per_tensor_finish == [0.007192544639999998, 0.021414317439999997]
    assert r.bytes_cross_host == 25165824.0


def test_joint_gating_takes_senders_from_the_global_schedule():
    """Plans that lost their schedule slices still gate on their senders.

    Every task sends from host 1 here, so a host set without the sender
    would let tasks overlap on it.
    """
    plans, schedule, key = plan_joint_broadcast(slow_host0_tasks())
    sliced = simulate_joint(plans, schedule, key)
    for plan in plans:
        plan.schedule = None
    bare = simulate_joint(plans, schedule, key)
    assert bare.total_time == sliced.total_time
    assert bare.per_tensor_finish == sliced.per_tensor_finish


def test_gating_graph_on_a_hand_built_order_and_host_map():
    """The one Eq. 3 gating rule the executor and the analyzers share."""
    visits: list[int] = []

    class Host(int):
        def __hash__(self):
            visits.append(int(self))
            return int.__hash__(self)

    host_map = {0: (5, 3, 1), 1: (1,), 2: (5, 3), 3: (1, 3, 5), 4: (3,)}

    class HostMapPlan(CommPlan):
        def task_hosts(self, tid):
            return tuple(Host(h) for h in host_map[tid])

    plan = HostMapPlan(task=make_tasks(BOUNDARY[:1])[0], strategy="hand-built")
    for tid in (0, 1, 2, 4):  # task 3 has no ops
        plan.add(SendOp(op_id=plan.next_op_id, unit_task_id=tid, region=((0, 1),),
                        nbytes=4, sender=0, receiver=8))
    plan.schedule = Schedule(assignment={}, order=(0, 3, 1, 1, 2, 4))
    graph = gating_graph(plan)
    # Task 3 has no ops: skipped, so it gates nothing.
    assert list(graph.hosts) == [0, 1, 2, 4]
    # Task 1 appears twice in the order but never waits on itself.
    assert graph.preds == {0: set(), 1: {0}, 2: {0}, 4: {2}}
    assert graph.succs == {0: {1, 2}, 1: set(), 2: {4}, 4: set()}
    # Each task's hosts are visited in sorted order, whatever the map's.
    assert [h for h, _ in groupby(visits)] == [1, 3, 5, 1, 3, 5, 3]


def test_joint_validation():
    with pytest.raises(ValueError, match="at least one"):
        plan_joint_broadcast([])
    tasks = make_tasks(BOUNDARY)
    with pytest.raises(ValueError, match="unknown scheduler"):
        plan_joint_broadcast(tasks, scheduler="bogus")
    other = make_tasks(BOUNDARY[:1])
    with pytest.raises(ValueError, match="cluster"):
        plan_joint_broadcast([tasks[0], other[0]])
    with pytest.raises(ValueError, match="at least one plan"):
        simulate_joint([], None, [])
