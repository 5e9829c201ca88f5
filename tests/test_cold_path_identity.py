"""The cold compile path's memoized quantities, pinned against frozen copies.

Each quantity the cold path now computes once — the max-min solver's
port incidence, device-pair routes, static port capacities, tile replica
sets, the overlapping dst tiles of a src tile and the dtype part of a
slice checksum — is compared here with a test-local copy of the code it
replaced.  Rates, digests, routes and lists must be ``==``-equal, not
close: the golden Fig. 5/6/7 numbers depend on every bit.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Any, Optional

import numpy as np
import pytest

from repro.core.mesh import DeviceMesh
from repro.core.plan import BroadcastOp, SendOp, slice_checksum, slice_checksums
from repro.core.slices import TileGrid, region_intersection
from repro.core.spec import parse_spec
from repro.core.task import IntersectionTransfer, ReshardingTask
from repro.core.tensor import region_nbytes
from repro.sim.cluster import Cluster, ClusterSpec, LinkOverride
from repro.sim.faults import DegradedWindow, FaultSchedule, FlapWindow, RetryPolicy
from repro.sim.network import Flow, Network
from repro.sim.solver import AdaptiveSolver, ScalarSolver
from repro.sim.topology import (
    FatTreeTopology,
    IslandTopology,
    RailOptimizedTopology,
    TorusTopology,
    TwoTierTopology,
)

# Every fabric in the topology zoo, shaped for 6 hosts x 2 devices.
FABRICS = {
    "default": None,
    "two_tier": TwoTierTopology(),
    "fat_tree": FatTreeTopology(hosts_per_leaf=2, oversubscription=2.0),
    "torus": TorusTopology(rows=2, cols=3),
    "rail": RailOptimizedTopology(),
    "island": IslandTopology(island_size=6),
}

# Uneven NIC rates make port shares round differently, so a changed
# tie-break or subtraction order shows up in the last bits of a rate.
NIC_OVERRIDES = ((1, 7.3e9), (4, 3.1e9))


def make_cluster(fabric: str, **spec: Any) -> Cluster:
    return Cluster(
        ClusterSpec(
            n_hosts=6,
            devices_per_host=2,
            topology=FABRICS[fabric],
            host_bandwidth_overrides=NIC_OVERRIDES,
            **spec,
        )
    )


def fault_schedule(seed: int) -> FaultSchedule:
    """Degradations and flaps inside the programs' few-ms span."""
    return FaultSchedule(
        seed=seed,
        degradations=(
            DegradedWindow(0, 0.2e-3, 3e-3, 0.37),
            DegradedWindow(3, 1e-3, 2e-3, 0.61),
            DegradedWindow(4, 0.5e-3, 1e-3, 0.45),
        ),
        flaps=(FlapWindow(2, 1.2e-3, 0.8e-3), FlapWindow(5, 4e-3, 0.5e-3)),
    )


# ----------------------------------------------------------------------
# The rebuild-per-solve scalar loop, frozen
# ----------------------------------------------------------------------
def frozen_port_capacity(net: Network, port: str) -> float:
    """The uncached capacity lookup the solver used before."""
    spec = net.cluster.spec
    if port[0] == "d":
        return spec.intra_host_bandwidth
    if port[0] == "n":
        bw = spec.host_nic_bandwidth(int(port[2:]))
        if net.faults is not None:
            bw *= net.faults.nic_factor(int(port[2:]), net.loop.now)
        return bw
    return net.cluster.topo.port_capacity(port)


class FrozenScalarSolver:
    """The progressive-filling loop as it was: rebuilt per solve."""

    name = "frozen-scalar"

    def attach(self, network: Network) -> None:
        self._net = network

    def flow_added(self, flow: Flow) -> None:
        pass

    def flow_removed(self, flow: Flow) -> None:
        pass

    def solve(self) -> None:
        net = self._net
        active = net._active
        flows = list(active.values())
        if not flows:
            return
        cap: dict[str, float] = {}
        load: dict[str, int] = {}
        for f in flows:
            f.rate = 0.0
            for p in f.ports:
                if p not in cap:
                    cap[p] = frozen_port_capacity(net, p)
                    load[p] = 0
                load[p] += 1
        unassigned = set(active.keys())
        while unassigned:
            best_port = None
            best_share = float("inf")
            for p, n in load.items():
                if n <= 0:
                    continue
                share = cap[p] / n
                if share < best_share:
                    best_share = share
                    best_port = p
            if best_port is None:
                break
            fixed = [
                fid for fid in sorted(unassigned) if best_port in active[fid].ports
            ]
            for fid in fixed:
                f = active[fid]
                f.rate = best_share
                unassigned.discard(fid)
                for p in f.ports:
                    cap[p] -= best_share
                    load[p] -= 1
            cap[best_port] = 0.0
            load[best_port] = 0


def incidence_of(solver: Any) -> dict[str, dict[int, Flow]]:
    scalar = solver._scalar if isinstance(solver, AdaptiveSolver) else solver
    assert isinstance(scalar, ScalarSolver)
    return scalar._members


def rebuilt_incidence(net: Network) -> dict[str, dict[int, Flow]]:
    out: dict[str, dict[int, Flow]] = {}
    for fid, f in net._active.items():
        for p in f.ports:
            out.setdefault(p, {})[fid] = f
    return out


def assert_incidence_current(net: Network) -> None:
    got = incidence_of(net.solver)
    want = rebuilt_incidence(net)
    assert {p: sorted(m) for p, m in got.items()} == {
        p: sorted(m) for p, m in want.items()
    }
    assert all(got[p][fid] is f for p, m in want.items() for fid, f in m.items())


class CheckedScalar(ScalarSolver):
    """The scalar solver, checking its incidence after every solve."""

    def solve(self) -> None:
        super().solve()
        assert self._net is not None
        assert_incidence_current(self._net)


# ----------------------------------------------------------------------
# Solver: seeded add/remove churn
# ----------------------------------------------------------------------
def inject(net: Network, src: int, dst: int, nbytes: float) -> None:
    flow = Flow(
        flow_id=net._next_id,
        src=src,
        dst=dst,
        nbytes=nbytes,
        remaining=nbytes,
        ports=net._ports_for(src, dst),
    )
    net._next_id += 1
    net._active[flow.flow_id] = flow
    net.solver.flow_added(flow)


def churn(
    fabric: str, solver: Any, seed: int, faults: Optional[FaultSchedule]
) -> list[list[tuple[int, float]]]:
    """Rates after each solve of a seeded add/remove program."""
    rng = random.Random(seed)
    cluster = make_cluster(fabric)
    net = Network(cluster, solver=solver, faults=faults)
    n_dev = len(cluster.devices)
    out = []
    for step in range(40):
        # Move the clock so NIC degradation factors change under faults.
        net.loop.now = step * 1e-4
        for _ in range(rng.choice([0, 1, 3, 8])):
            src = rng.randrange(n_dev)
            dst = (src + 1 + rng.randrange(n_dev - 1)) % n_dev
            inject(net, src, dst, 1e6)
        for _ in range(rng.choice([0, 1, 2, 5])):
            if not net._active:
                break
            fid = rng.choice(sorted(net._active))
            net.solver.flow_removed(net._active.pop(fid))
        net.solver.solve()
        if not isinstance(solver, FrozenScalarSolver):
            assert_incidence_current(net)
        out.append([(fid, f.rate) for fid, f in net._active.items()])
    return out


@pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faults"])
@pytest.mark.parametrize("fabric", sorted(FABRICS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_churn_rates_equal_frozen_loop(fabric: str, seed: int, faulty: bool) -> None:
    faults = fault_schedule(seed) if faulty else None
    want = churn(fabric, FrozenScalarSolver(), seed, faults)
    assert churn(fabric, ScalarSolver(), seed, faults) == want
    assert churn(fabric, AdaptiveSolver(threshold=12), seed, faults) == want


# ----------------------------------------------------------------------
# Solver: end-to-end flow programs
# ----------------------------------------------------------------------
def run_program(
    fabric: str, solver: Any, seed: int, faults: Optional[FaultSchedule]
) -> tuple[Any, ...]:
    rng = random.Random(seed)
    cluster = make_cluster(fabric)
    net = Network(
        cluster,
        solver=solver,
        faults=faults,
        retry_policy=RetryPolicy(max_attempts=4, backoff_base=1e-4),
    )
    n_dev = len(cluster.devices)
    sizes = [0.0, 1e3, 1e3, 5e4, 1e6, 1e6, 3e6]
    for i in range(64):
        src = rng.randrange(n_dev)
        dst = (src + 1 + rng.randrange(n_dev - 1)) % n_dev
        net.start_flow(
            src,
            dst,
            rng.choice(sizes),
            extra_latency=(i // 16) * 3e-4 + rng.choice([0.0, 1e-4]),
            tag=f"f{i}",
        )
    net.run()
    assert not net._active
    return (
        net.bus.digest(),
        net.trace,
        net.loop.now,
        net.fault_report(),
        (net.bytes_cross_host, net.bytes_intra_host),
    )


@pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faults"])
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_programs_equal_frozen_loop(fabric: str, faulty: bool) -> None:
    for seed in range(2):
        faults = fault_schedule(seed) if faulty else None
        want = run_program(fabric, FrozenScalarSolver(), seed, faults)
        assert run_program(fabric, CheckedScalar(), seed, faults) == want
        assert run_program(fabric, "adaptive", seed, faults) == want


def test_adaptive_keeps_scalar_incidence_past_the_switch() -> None:
    """Adaptive falls back to its scalar below the threshold after vector."""
    solver = AdaptiveSolver(threshold=6)
    net = Network(make_cluster("default"), solver=solver)
    for d in range(10):
        inject(net, d, (d + 3) % 12, 1e6)
    assert solver._vector is not None
    for fid in sorted(net._active)[:7]:
        solver.flow_removed(net._active.pop(fid))
    solver.solve()
    assert_incidence_current(net)


def test_port_capacity_cache_matches_uncached() -> None:
    faults = fault_schedule(0)
    for fabric in sorted(FABRICS):
        net = Network(make_cluster(fabric), faults=faults)
        ports = {p for s in range(12) for d in range(12) if s != d for p in net._ports_for(s, d)}
        for t in (0.0, 0.3e-3, 1.1e-3, 1.5e-3, 2.5e-3):
            net.loop.now = t
            for p in sorted(ports):
                assert net._port_capacity(p) == frozen_port_capacity(net, p), (fabric, p, t)


# ----------------------------------------------------------------------
# Routes
# ----------------------------------------------------------------------
def frozen_route(c: Cluster, src: int, dst: int) -> tuple[tuple[str, ...], float, bool]:
    """Ports, latency and intra flag, walked from the device chains."""
    if c.host_of(src) == c.host_of(dst):
        return (f"ds{src}", f"dr{dst}"), c.spec.intra_host_latency, True
    a, b = c.device(src), c.device(dst)
    links = c.topo.links(a.host_id, b.host_id, a.local_id, b.local_id)
    mid = tuple(l.name for l in links if l.contended)
    ports = (f"ds{src}", f"ns{a.host_id}") + mid + (f"nr{b.host_id}", f"dr{dst}")
    return ports, c.topo.path_latency(a.host_id, b.host_id, a.local_id, b.local_id), False


OVERRIDES = (
    LinkOverride(0, 3, bandwidth=2.5e9),
    LinkOverride(1, 5, latency=7e-5),
    LinkOverride(2, 4, bandwidth=4e9, latency=1e-5),
)


@pytest.mark.parametrize("overrides", [(), OVERRIDES], ids=["plain", "overrides"])
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_route_table_matches_uncached_walk(fabric: str, overrides: tuple) -> None:
    cluster = make_cluster(fabric, link_overrides=overrides)
    net = Network(cluster)
    pairs = [(s, d) for s in range(12) for d in range(12) if s != d]
    random.Random(5).shuffle(pairs)
    for s, d in pairs * 2:  # the second pass reads the memo
        route = net._route(s, d)
        assert route == frozen_route(cluster, s, d), (s, d)
        assert route == (net._ports_for(s, d), cluster.link_latency(s, d), cluster.same_host(s, d))
    flow = net.start_flow(0, 11, 1e3)
    assert flow.ports == net._ports_for(0, 11)
    assert flow.base_latency == cluster.link_latency(0, 11)


# ----------------------------------------------------------------------
# Lowering: replica sets and src x dst intersections
# ----------------------------------------------------------------------
def brute_replicas(grid: TileGrid, idx: tuple[int, ...]) -> tuple[int, ...]:
    mesh = grid.mesh
    out = [
        mesh.device_at(i, j)
        for i in range(mesh.shape[0])
        for j in range(mesh.shape[1])
        if grid.tile_index_of_coords((i, j)) == idx
    ]
    if not out:
        raise IndexError(f"no device holds tile {idx}")
    return tuple(out)


def brute_intersections(task: ReshardingTask) -> list[IntersectionTransfer]:
    out = []
    dst_tiles = [
        (didx, task.dst_grid.tile_region(didx), brute_replicas(task.dst_grid, didx))
        for didx in task.dst_grid.all_tile_indices()
    ]
    for sidx in task.src_grid.all_tile_indices():
        sregion = task.src_grid.tile_region(sidx)
        senders = brute_replicas(task.src_grid, sidx)
        for didx, dregion, receivers in dst_tiles:
            inter = region_intersection(sregion, dregion)
            if inter is None:
                continue
            out.append(
                IntersectionTransfer(
                    src_tile=sidx,
                    dst_tile=didx,
                    region=inter,
                    senders=senders,
                    receivers=receivers,
                    nbytes=region_nbytes(inter, task.dtype),
                )
            )
    return out


SPECS_3D = ("RRR", "S0RR", "RS0R", "RS1R", "S1RR", "S0S1R", "S1S0R", "S01RR", "RS01R", "RRS0")
MESH_SHAPES = ((1, 1), (1, 4), (2, 2), (2, 3), (3, 2), (4, 1))


def random_case(rng: random.Random, cluster: Cluster) -> Optional[ReshardingTask]:
    m1, m2 = rng.choice(MESH_SHAPES)
    n1, n2 = rng.choice(MESH_SHAPES)
    devs = list(range(cluster.n_devices))
    rng.shuffle(devs)
    if m1 * m2 + n1 * n2 > len(devs):
        return None
    src = DeviceMesh(cluster, [devs[i * m2 : (i + 1) * m2] for i in range(m1)])
    rest = devs[m1 * m2 :]
    dst = DeviceMesh(cluster, [rest[i * n2 : (i + 1) * n2] for i in range(n1)])
    # Small, uneven dims: some barely cover their shard count.
    shape = tuple(rng.choice([1, 2, 3, 5, 6, 7, 12]) for _ in range(3))
    try:
        return ReshardingTask(shape, src, rng.choice(SPECS_3D), dst, rng.choice(SPECS_3D))
    except ValueError:
        return None  # a dim smaller than its shard count


def test_intersections_and_replicas_equal_brute_force() -> None:
    cluster = Cluster(ClusterSpec(n_hosts=6, devices_per_host=4))
    rng = random.Random(11)
    checked = partial = 0
    while checked < 300:
        task = random_case(rng, cluster)
        if task is None:
            continue
        checked += 1
        for grid in (task.src_grid, task.dst_grid):
            for idx in grid.all_tile_indices():
                assert grid.tile_replicas(idx) == brute_replicas(grid, idx)
            partial += len(grid.tile_replicas(next(grid.all_tile_indices()))) > 1
        assert task.intersections() == brute_intersections(task)
    assert partial > 50  # partial replication was exercised


def test_partial_replication_specs() -> None:
    cluster = Cluster(ClusterSpec(n_hosts=4, devices_per_host=4))
    src = DeviceMesh.from_hosts(cluster, [0, 1])
    dst = DeviceMesh.from_hosts(cluster, [2, 3])
    for shape in ((7, 5, 3), (5, 9, 4), (4, 4, 4)):
        for a, b in product(("RS0", "S0R", "S1R", "RS1"), ("S0R", "RS0")):
            task = ReshardingTask(shape[:2], src, a, dst, b)
            assert task.intersections() == brute_intersections(task)
        task = ReshardingTask(shape, src, "S0RR", dst, "RS1R")
        assert task.intersections() == brute_intersections(task)
        # S0RR leaves mesh axis 1 unused: each tile has a row of replicas.
        assert task.src_grid.tile_replicas((1, 0, 0)) == (4, 5, 6, 7)


def test_tile_replicas_errors_unchanged() -> None:
    cluster = Cluster(ClusterSpec(n_hosts=2, devices_per_host=2))
    grid = TileGrid((4, 4), parse_spec("S0R"), DeviceMesh.from_hosts(cluster, [0, 1]))
    with pytest.raises(IndexError):
        grid.tile_replicas((2, 0))
    with pytest.raises(IndexError):
        brute_replicas(grid, (2, 0))
    with pytest.raises(ValueError):
        TileGrid((1, 4), parse_spec("S0R"), DeviceMesh.from_hosts(cluster, [0, 1]))


# ----------------------------------------------------------------------
# Emit: slice checksums
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "dtype, pins",
    [
        (np.float32, ("e6ee7d6e71845b82", "429b57464b21a073")),
        (np.dtype(">f4"), ("4f436034f64097dd", "1202b4c24bdea903")),
    ],
    ids=["float32", ">f4"],
)
def test_slice_checksum_bytes_pinned(dtype: Any, pins: tuple[str, str]) -> None:
    cluster = Cluster(ClusterSpec(n_hosts=4, devices_per_host=2))
    task = ReshardingTask(
        (8, 6, 4),
        DeviceMesh.from_hosts(cluster, [0, 1]),
        "S0RR",
        DeviceMesh.from_hosts(cluster, [2, 3]),
        "RS1R",
        dtype=dtype,
    )
    ops = [
        SendOp(op_id=3, unit_task_id=1, region=((0, 4), (0, 6), (0, 4)), nbytes=384.0,
               sender=0, receiver=4),
        BroadcastOp(op_id=7, unit_task_id=2, region=((4, 8), (0, 3), (0, 4)), nbytes=192.0,
                    sender=2, receivers=(4, 6)),
    ]
    assert tuple(slice_checksum(task, op) for op in ops) == pins
    assert tuple(slice_checksums(task, ops)) == pins
