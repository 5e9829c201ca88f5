"""One rate solve per simulated instant, pinned against solve-per-event.

:class:`~repro.sim.network.Network` coalesces every rate-solve request
made at one simulated instant into a single zero-delay flush.  Nothing
drains between events that share an instant, so only the last solve's
rates reach the next interval and results must be *bit-identical* to a
network that re-solves on every flow event.  These tests keep such an
eager network as a test-local reference and compare full flow traces
and telemetry digests on seeded programs built to stress coalescing:
same-instant broadcast bursts, zero-latency completion chains, zero-byte
flows, and fault schedules with flaps, partitions, degradations, drops,
corruption and per-flow timeouts.
"""

from __future__ import annotations

import random
from typing import Any, Optional

import numpy as np
import pytest

from repro.compiler import CompileContext, compile_resharding
from repro.compiler.resim import ResimCache, resimulate
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.faults import (
    CorruptionWindow,
    DegradedWindow,
    FaultSchedule,
    FlapWindow,
    Partition,
    RetryPolicy,
)
from repro.sim.network import Network
from repro.sim.solver import VECTOR_THRESHOLD

SOLVERS = ("scalar", "vector", "adaptive")


class EagerNetwork(Network):
    """Reference semantics: re-solve rates on every flow event."""

    def _request_solve(self) -> None:
        self._reallocate_and_schedule()


def make_cluster() -> Cluster:
    return Cluster(ClusterSpec(n_hosts=4, devices_per_host=2))


def fault_schedule(seed: int) -> FaultSchedule:
    """Windows land inside the programs' ~1-20 ms span so they strike."""
    return FaultSchedule(
        seed=seed,
        degradations=(DegradedWindow(0, 0.4e-3, 3e-3, 0.5),),
        flaps=(FlapWindow(1, 1.5e-3, 1e-3), FlapWindow(3, 6e-3, 0.5e-3)),
        partitions=(Partition((2,), (0, 3), 0.8e-3, 2e-3),),
        corruptions=(CorruptionWindow(2, 3e-3, 2e-3, 0.5),),
        drop_rate=0.08,
    )


RETRY = RetryPolicy(max_attempts=3, backoff_base=1e-4, flow_timeout=4e-3)


def run_program(
    net_cls: type[Network],
    solver: str,
    seed: int,
    faults: Optional[FaultSchedule] = None,
    retry_policy: Optional[RetryPolicy] = None,
    burst: int = 16,
    max_depth: int = 3,
) -> tuple[Any, ...]:
    """Run one seeded flow program; return everything it observably did.

    Every program starts with a ``burst``-flow same-instant broadcast and
    adds further bursts at fixed instants.  Completions fan out into
    child flows, a third of them with ``latency=0.0`` (activating at the
    parent's finish instant) and some of zero bytes (finishing on
    activation).  The RNG is consumed inside callbacks, so any change in
    event order also changes the program.
    """
    rng = random.Random(seed)
    cluster = make_cluster()
    net = net_cls(cluster, faults=faults, retry_policy=retry_policy, solver=solver)
    n_dev = len(cluster.devices)
    sizes = [0.0, 1e3, 1e3, 5e4, 2e5, 1e6, 1e6, 2e6]

    def start(depth: int) -> None:
        src = rng.randrange(n_dev)
        dst = rng.randrange(n_dev)
        if src == dst:
            dst = (dst + 1) % n_dev

        def on_complete(_flow: Any) -> None:
            if depth < max_depth:
                for _ in range(rng.choice([0, 1, 1, 2, 3])):
                    start(depth + 1)

        net.start_flow(
            src,
            dst,
            rng.choice(sizes),
            on_complete=on_complete,
            tag=f"d{depth}",
            extra_latency=rng.choice([0.0, 0.0, 5e-5]),
            latency=0.0 if rng.random() < 0.35 else None,
        )

    def wave(n: int) -> None:
        for _ in range(n):
            start(0)

    wave(burst)
    for t in (2e-4, 1.6e-3, 5e-3):
        net.loop.call_at(t, lambda: wave(burst // 2))
    net.run()
    assert net.active_flows == 0
    return (
        net.trace,
        net.bus.digest(),
        net.loop.now,
        net.fault_report(),
        net.corrupted_flows,
        (net.n_failures, net.n_retries, net.n_abandoned, net.wasted_bytes),
    )


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("seed", range(4))
def test_healthy_programs_bit_identical(solver: str, seed: int) -> None:
    eager = run_program(EagerNetwork, solver, seed)
    coalesced = run_program(Network, solver, seed)
    assert coalesced == eager
    assert len(eager[0]) > 50  # the program really ran


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("seed", range(4))
def test_faulty_programs_bit_identical(solver: str, seed: int) -> None:
    faults = fault_schedule(seed)
    eager = run_program(EagerNetwork, solver, seed, faults, RETRY)
    coalesced = run_program(Network, solver, seed, faults, RETRY)
    assert coalesced == eager


def test_fault_program_exercises_every_failure_path() -> None:
    """The fault programs above reach timeouts, partitions, flaps, drops."""
    kinds: set[str] = set()
    statuses: set[str] = set()
    for seed in range(4):
        trace, _, _, report, *_ = run_program(
            Network, "scalar", seed, fault_schedule(seed), RETRY
        )
        kinds |= {incident.kind for incident in report.incidents}
        statuses |= {r.status for r in trace}
    assert {"timeout", "partition", "dropped", "corruption"} <= kinds
    assert kinds & {"nic-flap", "nic-down"}
    assert {"ok", "failed", "retried", "corrupted"} <= statuses


def test_adaptive_crossover_bit_identical() -> None:
    """A burst wider than the vector threshold flips adaptive mid-instant."""
    burst = VECTOR_THRESHOLD + 40
    eager = run_program(EagerNetwork, "adaptive", 3, burst=burst, max_depth=1)
    assert run_program(Network, "adaptive", 3, burst=burst, max_depth=1) == eager


@pytest.mark.parametrize("solver", SOLVERS)
def test_activation_on_a_due_completion_instant(solver: str) -> None:
    """A flow activating exactly when a completion is due, queued before it.

    The activation drains the finishing flow to a float residue and, by
    sharing its sender NIC, halves its rate; re-solving right there can
    push the completion past the instant.  The completion event reads
    the ETAs of the last solve, so this case must solve at once rather
    than defer.  About one size in twenty diverges without that rule.
    """
    cluster = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    lat = cluster.spec.inter_host_latency
    rate = cluster.spec.inter_host_bandwidth

    def run(net_cls: type[Network], nbytes: float) -> Any:
        net = net_cls(cluster, solver=solver)
        net.start_flow(0, 4, nbytes)
        # queued at t=0, so ahead of the completion armed at t=lat
        net.start_flow(1, 8, 1e6, latency=lat + nbytes / rate)
        net.run()
        return net.trace, net.bus.digest()

    for k in range(1, 200):
        nbytes = 1e5 + 7919.37 * k
        assert run(Network, nbytes) == run(EagerNetwork, nbytes), nbytes


def count_solves(net: Network) -> list[float]:
    """Record the simulated instant of every rate solve ``net`` runs."""
    instants: list[float] = []
    solve = net.solver.solve

    def counted() -> None:
        instants.append(net.loop.now)
        solve()

    net.solver.solve = counted  # type: ignore[method-assign]
    return instants


@pytest.mark.parametrize("solver", SOLVERS)
def test_burst_costs_one_solve(solver: str) -> None:
    """16 flows activating at one instant: one solve, not 16."""
    cluster = Cluster(ClusterSpec(n_hosts=8, devices_per_host=4))
    per_class = {}
    for net_cls in (EagerNetwork, Network):
        net = net_cls(cluster, solver=solver)
        instants = count_solves(net)
        # one sender device broadcasting to 16 others across the fabric
        for dst in range(4, 20):
            net.start_flow(0, dst, 1e6)
        net.run()
        latency = cluster.spec.inter_host_latency
        per_class[net_cls] = (instants.count(latency), len(instants), net.trace)
    eager_at_start, _, eager_trace = per_class[EagerNetwork]
    at_start, total, trace = per_class[Network]
    assert eager_at_start == 16
    assert at_start == 1
    assert total == len(set(r.finish_time for r in trace)) + 1
    assert trace == eager_trace


def test_resim_checkpoints_match_eager(monkeypatch: pytest.MonkeyPatch) -> None:
    """Resim cut detection sees the same quiescent cuts as solve-per-event."""
    c = Cluster(ClusterSpec(n_hosts=8, devices_per_host=4))
    task = ReshardingTask(
        (256, 128, 64),
        DeviceMesh.from_hosts(c, (0,)),
        "RS0R",
        DeviceMesh.from_hosts(c, tuple(range(1, 8))),
        "S0RR",
        dtype=np.float32,
    )
    plan = compile_resharding(
        task, CompileContext(strategy="broadcast", cache=None, resim_cache=None)
    ).plan

    def cold_and_warm() -> tuple[Any, ...]:
        cache = ResimCache()
        cold = resimulate(plan, cache=cache)
        warm = resimulate(plan, cache=cache)
        stats = cache.stats()
        return (
            cold.network.bus.digest(),
            warm.network.bus.digest(),
            stats.checkpoints_stored,
            stats.hits,
            stats.tasks_skipped,
        )

    coalesced = cold_and_warm()
    monkeypatch.setattr(Network, "_request_solve", EagerNetwork._request_solve)
    eager = cold_and_warm()
    assert coalesced == eager
    assert coalesced[0] == coalesced[1]
    assert coalesced[2] > 0 and coalesced[3] == 1
