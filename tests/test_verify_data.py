"""Tests for the execution-aware data-plane integrity verifier."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.data import apply_plan
from repro.core.executor import simulate_plan
from repro.core.intra import plan_intra_mesh
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.core.tensor import DistributedTensor
from repro.core.verify_data import IntegrityError, verify_delivery
from repro.sim.faults import DegradedWindow, FaultSchedule, FlapWindow, RetryPolicy
from repro.strategies import STRATEGIES, BroadcastStrategy


def make_task(cluster4x4, shape=(64, 64), src_spec="S0R", dst_spec="RS1"):
    src = DeviceMesh.from_hosts(cluster4x4, [0, 1])
    dst = DeviceMesh.from_hosts(cluster4x4, [2, 3])
    return ReshardingTask(shape, src, src_spec, dst, dst_spec)


# ----------------------------------------------------------------------
# exact-once certification on healthy runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(set(STRATEGIES) - {"signal"}))
def test_every_strategy_certifies_exact_once(cluster4x4, name):
    task = make_task(cluster4x4)
    plan = STRATEGIES[name]().plan(task)
    timing = simulate_plan(plan)
    report = verify_delivery(plan, timing, strict=False)
    assert report.certified
    assert not report.gaps and not report.duplicates
    assert report.n_ops_failed == 0


def test_static_check_without_timing(cluster4x4):
    plan = BroadcastStrategy().plan(make_task(cluster4x4))
    report = verify_delivery(plan)
    assert report.certified
    assert report.n_retried_flows == 0


def test_intra_mesh_plans_certify(cluster4x4):
    mesh = DeviceMesh.from_hosts(cluster4x4, [0, 1])
    for src, dst in [("S0R", "RS1"), ("S0S1", "RR"), ("RR", "S0S1")]:
        plan = plan_intra_mesh((64, 64), mesh, src, dst)
        timing = simulate_plan(plan) if plan.ops else None
        assert verify_delivery(plan, timing).certified


# ----------------------------------------------------------------------
# gap and duplicate detection
# ----------------------------------------------------------------------
def test_dropped_op_is_a_gap(cluster4x4):
    task = make_task(cluster4x4)
    plan = BroadcastStrategy().plan(task)
    crippled = dataclasses.replace(plan, ops=plan.ops[1:])
    with pytest.raises(IntegrityError, match="missing data"):
        verify_delivery(crippled)
    report = verify_delivery(crippled, raise_on_error=False)
    assert report.gaps and not report.certified


def test_failed_op_credits_no_delivery(cluster4x4):
    """Ops in timing.failed_ops must count as undelivered."""
    task = make_task(cluster4x4)
    plan = BroadcastStrategy().plan(task)
    timing = simulate_plan(plan)
    fake = dataclasses.replace(timing, failed_ops=(plan.ops[0].op_id,))
    report = verify_delivery(plan, fake, raise_on_error=False)
    assert report.gaps
    assert report.n_ops_failed == 1


def test_duplicated_delivery_detected(cluster4x4):
    task = make_task(cluster4x4)
    plan = BroadcastStrategy().plan(task)
    doubled = dataclasses.replace(
        plan,
        ops=plan.ops
        + [dataclasses.replace(plan.ops[0], op_id=len(plan.ops))],
    )
    with pytest.raises(IntegrityError, match="duplicated"):
        verify_delivery(doubled)
    # non-strict mode reports but does not raise
    report = verify_delivery(doubled, strict=False)
    assert report.duplicates and not report.certified


def test_unauthoritative_sender_discredited(cluster4x4):
    """An op claiming a sender that does not hold the region is void."""
    task = make_task(cluster4x4)
    plan = BroadcastStrategy().plan(task)
    # Device of host 1 does not hold host 0's shard under S0R.
    wrong_sender = task.src_mesh.device_at(1, 0)
    op0 = plan.ops[0]
    holder = task.src_grid.device_region(op0.sender)
    if task.src_grid.device_region(wrong_sender) == holder:
        pytest.skip("grids coincide; cannot construct a non-holder")
    forged = dataclasses.replace(
        plan, ops=[dataclasses.replace(op0, sender=wrong_sender)] + plan.ops[1:]
    )
    report = verify_delivery(forged, raise_on_error=False)
    assert op0.op_id in report.discredited_ops
    assert report.gaps


@pytest.mark.parametrize("malformed", ["no_parts", "too_many_parts", "rank"])
def test_malformed_op_discredited_not_raised(cluster4x4, malformed):
    """A scatter that cannot split its region, or a region of the wrong
    rank, delivers nothing: the verifier discredits it and the data
    plane raises its documented error (never a bare ValueError)."""
    from repro.core.data import DataPlaneError
    from repro.core.plan import ScatterOp

    task = make_task(cluster4x4)
    plan = BroadcastStrategy().plan(task)
    op0 = plan.ops[0]
    if malformed == "rank":
        bad = dataclasses.replace(op0, region=op0.region[:1])
    else:
        one = tuple((lo, lo + 1) for lo, _ in op0.region)
        bad = ScatterOp(
            op_id=op0.op_id, unit_task_id=op0.unit_task_id,
            region=one if malformed == "too_many_parts" else op0.region,
            nbytes=op0.nbytes, sender=op0.sender,
            receivers=op0.receivers[:2] if malformed == "too_many_parts" else (),
        )
    forged = dataclasses.replace(plan, ops=[bad] + plan.ops[1:])
    report = verify_delivery(forged, raise_on_error=False)
    assert report.discredited_ops == (op0.op_id,)
    assert report.gaps
    arr = np.arange(64 * 64, dtype=np.float32).reshape(64, 64)
    src = DistributedTensor.from_global(task.src_mesh, task.src_spec, arr)
    with pytest.raises(DataPlaneError, match=f"op {op0.op_id}: "):
        apply_plan(forged, src)


@pytest.mark.parametrize("cut", ["no_deps", "short_group"])
def test_allgather_fed_only_by_its_dep_scatters(cluster4x4, cut):
    """An all-gather assembles its region from the parts its devices got
    from the scatters it depends on: cut that dependency, or drop a part
    holder from its group, and the checker (P005), the verifier and the
    data plane all refuse it, even though the scatter still runs."""
    from repro.analysis import check_plan
    from repro.core.data import DataPlaneError

    task = make_task(cluster4x4, src_spec="RR", dst_spec="RR")
    plan = STRATEGIES["allgather"]().plan(task)
    k, gather = next((i, op) for i, op in enumerate(plan.ops) if op.source is None)
    changed = (
        dataclasses.replace(gather, deps=())
        if cut == "no_deps"
        else dataclasses.replace(gather, devices=gather.devices[1:])
    )
    cut = dataclasses.replace(plan, ops=plan.ops[:k] + [changed] + plan.ops[k + 1:])
    assert "P005" in {d.code for d in check_plan(cut).errors}
    assert gather.op_id in verify_delivery(cut, raise_on_error=False).discredited_ops
    arr = np.arange(64 * 64, dtype=np.float32).reshape(64, 64)
    src = DistributedTensor.from_global(task.src_mesh, task.src_spec, arr)
    with pytest.raises(DataPlaneError, match="all-gather group not fully fed"):
        apply_plan(cut, src)


# ----------------------------------------------------------------------
# retries under drops still certify
# ----------------------------------------------------------------------
def test_retried_flows_still_certify(cluster4x4):
    task = make_task(cluster4x4)
    faults = FaultSchedule(seed=3, drop_rate=0.15)
    plan = BroadcastStrategy(faults=faults).plan(task)
    timing = simulate_plan(
        plan, faults=faults, retry_policy=RetryPolicy(max_attempts=12)
    )
    assert timing.completed, "retry policy should recover every drop"
    report = verify_delivery(plan, timing)
    assert report.certified
    assert report.n_retried_flows > 0


# ----------------------------------------------------------------------
# satellite: broadcast re-rooting produces byte-identical deliveries
# ----------------------------------------------------------------------
def test_reroot_fallback_delivers_identical_bytes(cluster4x4, rng):
    """Down the scheduled sender host at plan time: the strategy must
    re-root onto a surviving replica (CommPlan.fallbacks non-empty) and
    the delivered slices must be byte-identical to the healthy run."""
    src = DeviceMesh.from_hosts(cluster4x4, [0, 1])
    dst = DeviceMesh.from_hosts(cluster4x4, [2, 3])
    # R along dim 0: every source host holds a full replica of each
    # region, so a re-root always has a surviving sender.
    task = ReshardingTask((32, 32), src, "RS1", dst, "S0R")
    healthy_plan = BroadcastStrategy().plan(task)
    victim = task.cluster.host_of(healthy_plan.ops[0].sender)

    # A short flap covering plan time (t=0) plus a long mild degradation
    # elsewhere: the victim's *mean* NIC factor stays high, so the
    # scheduler still assigns it work — which plan() must then re-root.
    faults = FaultSchedule(
        seed=1,
        flaps=(FlapWindow(host=victim, start=0.0, duration=0.05),),
        degradations=(
            DegradedWindow(host=dst.hosts[0], start=0.0, duration=10.0, factor=0.9),
        ),
    )
    plan = BroadcastStrategy(faults=faults).plan(task)
    assert plan.fallbacks, "downing the scheduled sender must re-root"
    assert all(f.to_host != victim for f in plan.fallbacks)
    assert all(
        task.cluster.host_of(op.sender) != victim for op in plan.ops
    )

    array = rng.standard_normal((32, 32)).astype(np.float32)
    src_tensor = DistributedTensor.from_global(src, "RS1", array)
    healthy = apply_plan(healthy_plan, src_tensor)
    rerooted = apply_plan(plan, src_tensor)
    for dev in dst.devices:
        np.testing.assert_array_equal(
            healthy.shards[dev], rerooted.shards[dev]
        )

    timing = simulate_plan(plan, faults=faults, retry_policy=RetryPolicy())
    assert timing.completed
    report = verify_delivery(plan, timing)
    assert report.certified
    assert report.n_fallbacks == len(plan.fallbacks)
