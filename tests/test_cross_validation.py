"""Cross-validation: independent checkers must agree with each other."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_plan
from repro.core.data import DataPlaneError, apply_plan
from repro.core.intra import plan_intra_mesh
from repro.core.mesh import DeviceMesh
from repro.core.plan import ScatterOp
from repro.core.task import ReshardingTask
from repro.core.tensor import DistributedTensor
from repro.core.validate import verify_plan_coverage
from repro.core.verify_data import verify_delivery
from repro.experiments.fig7 import workloads
from repro.sim.cluster import Cluster, ClusterSpec
from repro.strategies import make_strategy

SPECS = ["RRR", "S0RR", "RS1R", "S01RR", "S0S1R", "RRS0"]


def build(src_spec, dst_spec, shape=(9, 8, 7)):
    c = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    return ReshardingTask(shape, src, src_spec, dst, dst_spec, dtype=np.float32)


def _malform(op, how, task):
    """``op`` made malformed (or unauthorized) in one of a few ways."""
    if how == "rank":
        return dataclasses.replace(op, region=op.region[:-1])
    if how == "no_deps":  # an all-gather no longer fed by its scatter
        return dataclasses.replace(op, deps=())
    if how.startswith("scatter"):
        # A one-element box of the op's region, split over two parts,
        # or the whole region split over none.
        one = tuple((lo, lo + 1) for lo, _ in op.region)
        region, receivers = (
            (one, tuple(task.dst_mesh.devices[:2]))
            if how == "scatter_too_many"
            else (op.region, ())
        )
        return ScatterOp(
            op_id=op.op_id, unit_task_id=op.unit_task_id, region=region,
            nbytes=op.nbytes, deps=op.deps,
            sender=task.src_mesh.devices[0], receivers=receivers,
        )
    if how == "target_outside":
        outside = task.cluster.n_devices + 3
        if hasattr(op, "receiver"):
            return dataclasses.replace(op, receiver=outside)
        if hasattr(op, "devices"):
            return dataclasses.replace(op, devices=op.devices + (outside,))
        return dataclasses.replace(op, receivers=op.receivers + (outside,))
    if how == "sender_outside" and hasattr(op, "sender"):
        return dataclasses.replace(op, sender=task.cluster.n_devices + 3)
    if how == "sender_other" and hasattr(op, "sender"):
        # Half-way round the mesh: another host, so often another tile.
        devices = task.src_mesh.devices
        other = devices[(devices.index(op.sender) + len(devices) // 2) % len(devices)]
        return dataclasses.replace(op, sender=other)
    return op


MUTATIONS = ["none", "rank", "no_deps", "scatter_no_receivers",
             "scatter_too_many", "target_outside", "sender_outside", "sender_other"]
#: the checker's delivery verdict: coverage, authority and well-formedness
DELIVERY_CODES = {"P002", "P005", "P008"}


@settings(max_examples=120, deadline=None)
@given(
    src_spec=st.sampled_from(SPECS),
    dst_spec=st.sampled_from(SPECS),
    strategy=st.sampled_from(["send_recv", "allgather", "broadcast", "intra_mesh"]),
    drop=st.integers(0, 3),
    mutation=st.sampled_from(MUTATIONS),
    pick=st.integers(0, 1 << 16),
)
def test_validator_agrees_with_data_plane(
    src_spec, dst_spec, strategy, drop, mutation, pick
):
    """The static checker's delivery verdict, the delivery verifier and
    the NumPy data plane accept and reject exactly the same plans, for
    op-dropping and op-malforming mutations alike, and none of them
    crashes on a malformed op.  Intra-mesh plans exercise local reuse."""
    if strategy == "intra_mesh":
        mesh = build(src_spec, dst_spec).src_mesh
        plan = plan_intra_mesh((9, 8, 7), mesh, src_spec, dst_spec)
        task = plan.task
    else:
        task = build(src_spec, dst_spec)
        plan = make_strategy(strategy).plan(task)
    for _ in range(min(drop, len(plan.ops))):
        plan.ops.pop()
    if plan.ops:
        k = pick % len(plan.ops)
        plan.ops[k] = _malform(plan.ops[k], mutation, task)

    report = check_plan(plan)
    static_ok = not DELIVERY_CODES & {d.code for d in report.errors}

    integrity = verify_delivery(plan, timing=None, strict=False, raise_on_error=False)
    verified_ok = not integrity.gaps and not integrity.discredited_ops

    arr = np.arange(np.prod(task.shape), dtype=np.float32).reshape(task.shape)
    src_tensor = DistributedTensor.from_global(task.src_mesh, task.src_spec, arr)
    dynamic_ok = True
    try:
        out = apply_plan(plan, src_tensor)
        assert np.array_equal(out.to_global(), arr)
    except DataPlaneError:
        dynamic_ok = False

    assert static_ok == verified_ok == dynamic_ok
    if drop == 0 and mutation == "none":
        assert static_ok, report.format()


def test_fig7_workloads_cover_table3():
    w = workloads()
    assert set(w) == {"GPT case1", "GPT case2", "U-Transformer"}
    for spec in w.values():
        assert spec.n_devices == 8
        assert spec.n_microbatches > 0
        assert spec.model_flops_per_iteration > 0


def test_joint_planning_on_heterogeneous_cluster():
    """The joint scheduler respects per-host NIC overrides."""
    from repro.core.joint import reshard_boundary
    from repro.sim.cluster import GBPS

    c = Cluster(
        ClusterSpec(
            n_hosts=4,
            devices_per_host=4,
            host_bandwidth_overrides=((0, 1 * GBPS),),  # host 0 is slow
        )
    )
    src = DeviceMesh.from_hosts(c, [0, 1])
    dst = DeviceMesh.from_hosts(c, [2, 3])
    tasks = [
        ReshardingTask((1 << 20, 2), src, "RR", dst, "S0R", dtype=np.float32),
        ReshardingTask((1 << 20, 2), src, "RR", dst, "S1R", dtype=np.float32),
    ]
    r = reshard_boundary(tasks)
    # everything should be routed via the fast sender host 1
    cross_from_slow = sum(
        rec.nbytes
        for rec in r.network.trace
        if c.host_of(rec.src) == 0 and not c.same_host(rec.src, rec.dst)
    )
    assert cross_from_slow == 0.0
    assert r.total_time > 0


def test_timing_and_data_planes_share_one_plan():
    """The exact plan object that was simulated is the one verified."""
    from repro.core.executor import simulate_plan

    task = build("S0RR", "RS1R", shape=(8, 8, 8))
    plan = make_strategy("broadcast").plan(task)
    timing = simulate_plan(plan)
    arr = np.arange(512, dtype=np.float32).reshape(8, 8, 8)
    out = apply_plan(plan, DistributedTensor.from_global(task.src_mesh, task.src_spec, arr))
    assert timing.total_time > 0
    assert np.array_equal(out.to_global(), arr)
    report = verify_plan_coverage(plan)
    assert report.n_ops == len(plan.ops)
