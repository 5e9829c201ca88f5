"""Simulator hot-path speed gates: solver, kernel, and re-simulation.

Three layers of the refactored hot path, each with an acceptance gate:

* **Solver** — the vectorized max-min backend must be >=5x faster than
  the preserved scalar loop (:class:`FrozenScalarSolver`, the
  progressive-filling loop as it was before the scalar solver kept a
  port incidence) on the 10k-flow churn benchmark, and the incidence
  :class:`~repro.sim.solver.ScalarSolver` >=1.5x faster than that loop
  at 1k and 10k flows, all producing *bit-identical* rates
  (fingerprints compared, and persisted so drift is a CI failure).
* **Kernel + network end-to-end** — a seeded windowed flow program runs
  through the batched event loop on every backend; all three must
  produce one telemetry digest (persisted).
* **Re-simulation** — warm :func:`~repro.compiler.resim.resimulate`
  must cut >=30% of wall time off a cold ``simulate_plan`` on the
  fig5-style fan-out, and a warm resim cache must cut >=30% off the
  auto strategy's select pass.

Wall-clock numbers are printed (run with ``-s``) but never persisted:
``BENCH_simulator.json`` holds only deterministic payloads — flow
counts, simulated makespans, rate fingerprints, checkpoint/skip counts,
and the (asserted) gate booleans — so regenerating it on any machine
must reproduce the committed bytes.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from typing import Any, Optional

import numpy as np
import pytest

from persist import persist_bench
from repro.compiler import CompileContext, compile_resharding
from repro.compiler.resim import ResimCache, reset_default_resim_cache, resimulate
from repro.core.executor import simulate_plan
from repro.core.mesh import DeviceMesh
from repro.core.task import ReshardingTask
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.network import Flow, Network

FLOW_COUNTS = (1_000, 10_000, 100_000)
CHURN_ITERS = {1_000: 50, 10_000: 25, 100_000: 0}  # 100k: fingerprint only
N_DEV = 32  # 8 hosts x 4 devices


def _cluster() -> Cluster:
    return Cluster(ClusterSpec(n_hosts=8, devices_per_host=4))


class FrozenScalarSolver:
    """The preserved scalar loop, the reference both solver gates time.

    ``cap``/``load`` and the unassigned set are rebuilt per solve, and
    every round re-sorts and re-tests each unassigned flow.  Its rates
    are the specification the other backends must equal.
    """

    name = "frozen"

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
                    cap[p] = net._port_capacity(p)
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


def _solver(backend: str) -> Any:
    return FrozenScalarSolver() if backend == "frozen" else backend


def _inject(net: Network, rng: random.Random, nbytes: float = 1e6) -> None:
    """Register one random active flow directly with the solver."""
    src = rng.randrange(N_DEV)
    dst = rng.randrange(N_DEV)
    if src == dst:
        dst = (dst + 1) % N_DEV
    flow = Flow(
        flow_id=net._next_id,
        src=src,
        dst=dst,
        nbytes=nbytes,
        remaining=nbytes,
        ports=net._ports_for(src, dst),
        on_complete=None,
        tag="",
        submit_time=0.0,
        on_abandon=None,
        base_latency=0.0,
    )
    net._next_id += 1
    net._active[flow.flow_id] = flow
    net.solver.flow_added(flow)


def solver_churn(n_flows: int, solver: str, iters: int) -> tuple[str, float]:
    """(rate fingerprint, wall seconds) for the add/remove/solve hot loop.

    Mimics what completion events do: drop a handful of finished flows,
    admit replacements, re-solve.  The fingerprint hashes every
    (flow_id, rate) pair after the final solve — bit-equality across
    backends, machine-independent.
    """
    rng = random.Random(42)
    net = Network(_cluster(), solver=_solver(solver))
    for _ in range(n_flows):
        _inject(net, rng)
    t0 = time.perf_counter()
    net.solver.solve()
    for _ in range(iters):
        for _ in range(8):
            fid = next(iter(net._active))
            flow = net._active.pop(fid)
            net.solver.flow_removed(flow)
        for _ in range(8):
            _inject(net, rng)
        net.solver.solve()
    wall = time.perf_counter() - t0
    fp = hashlib.sha256(
        repr([(fid, f.rate) for fid, f in sorted(net._active.items())]).encode()
    ).hexdigest()
    return fp, wall


def windowed_program(solver: str, n_flows: int = 1_000) -> tuple[str, float, int, float]:
    """Run a staggered end-to-end program; return (digest, makespan, events, wall)."""
    rng = random.Random(7)
    net = Network(_cluster(), solver=solver)
    sizes = [1e4, 1e4, 2e5, 1e6]
    t0 = time.perf_counter()
    for i in range(n_flows):
        src = rng.randrange(N_DEV)
        dst = rng.randrange(N_DEV)
        if src == dst:
            dst = (dst + 1) % N_DEV
        net.start_flow(
            src,
            dst,
            rng.choice(sizes),
            extra_latency=(i // 64) * 2e-4,  # ~64-flow admission waves
            tag=f"f{i}",
        )
    makespan = net.run()
    wall = time.perf_counter() - t0
    assert not net._active
    return net.bus.digest(), makespan, net.loop.processed, wall


def fig5_task() -> ReshardingTask:
    c = _cluster()
    src = DeviceMesh.from_hosts(c, (0,))
    dst = DeviceMesh.from_hosts(c, tuple(range(1, 8)))
    return ReshardingTask((256, 128, 64), src, "RS0R", dst, "S0RR", dtype=np.float32)


def resim_workload() -> tuple[Any, ResimCache, dict[str, Any], float, float]:
    """Warm-vs-cold resim on the fig5 fan-out (best-of-3 wall times)."""
    plan = compile_resharding(
        fig5_task(), CompileContext(strategy="broadcast", cache=None, resim_cache=None)
    ).plan
    cold = simulate_plan(plan)
    cache = ResimCache()
    seeded = resimulate(plan, cache=cache)
    assert seeded.network.bus.digest() == cold.network.bus.digest()
    t_cold = min(_timed(lambda: simulate_plan(plan)) for _ in range(3))
    t_warm = min(_timed(lambda: resimulate(plan, cache=cache)) for _ in range(3))
    warm = resimulate(plan, cache=cache)
    stats = cache.stats()
    payload = {
        "n_tasks": len(plan.ops_by_task()),
        "checkpoints_stored": stats.checkpoints_stored,
        "warm_hits": stats.hits,
        "byte_identical": warm.network.bus.digest() == cold.network.bus.digest(),
        "makespan": cold.total_time,
    }
    return plan, cache, payload, t_cold, t_warm


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def select_pass_seconds(resim_cache: Optional[Any], reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        compiled = compile_resharding(
            fig5_task(),
            CompileContext(strategy="auto", cache=None, resim_cache=resim_cache),
        )
        secs = next(p.seconds for p in compiled.diagnostics.passes if p.name == "select")
        best = min(best, secs)
    return best


def payload(quick: bool = True) -> dict[str, Any]:
    """The full gate run; returns the deterministic artifact payload.

    The cyclic collector is paused for the timed sections: GC sweeps
    trigger on allocation count, so the executor that allocates more
    would otherwise be billed for collecting whatever heap earlier
    tests left behind — noise that scales with test order, not with
    the code under test.  Nothing wall-clock-derived is persisted
    either way.
    """
    gc.collect()
    gc.disable()
    try:
        return _payload_inner(quick)
    finally:
        gc.enable()
        gc.collect()


def _payload_inner(quick: bool) -> dict[str, Any]:
    out: dict[str, Any] = {"solver": {}, "end_to_end": {}, "resim": {}, "gates": {}}

    # ---- solver layer -------------------------------------------------
    walls: dict[tuple[int, str], float] = {}
    for n in FLOW_COUNTS:
        iters = CHURN_ITERS[n]
        fps = {}
        # Two interleaved repetitions where the speedup gates apply:
        # a CPU-frequency phase then hits every backend instead of
        # landing entirely on the (long) frozen run.
        for _rep in range(2 if iters else 1):
            for backend in ("frozen", "scalar", "vector"):
                fp, wall = solver_churn(n, backend, iters)
                assert fps.setdefault(backend, fp) == fp, f"nondeterministic {backend}"
                key = (n, backend)
                walls[key] = min(walls.get(key, float("inf")), wall)
        for backend in ("frozen", "scalar", "vector"):
            wall = walls[(n, backend)]
            updates = n * max(1, iters) / wall
            print(
                f"[solver] n={n:>6} {backend:<6} {wall * 1e3:8.1f}ms "
                f"{updates:12,.0f} flow-updates/s"
            )
        assert fps["scalar"] == fps["frozen"], f"scalar rate drift at {n} flows"
        assert fps["vector"] == fps["frozen"], f"rate drift at {n} flows"
        out["solver"][str(n)] = {
            "fingerprint": fps["frozen"],
            "churn_iters": iters,
            "bit_identical": True,
        }
    speedup_10k = walls[(10_000, "frozen")] / walls[(10_000, "vector")]
    print(f"[solver] 10k-flow churn vector speedup: {speedup_10k:.1f}x (gate: >=5x)")
    scalar_speedups = {
        n: walls[(n, "frozen")] / walls[(n, "scalar")] for n in (1_000, 10_000)
    }
    for n, x in scalar_speedups.items():
        print(f"[solver] n={n:>6} incidence scalar speedup: {x:.2f}x (gate: >=1.5x)")

    # ---- kernel + network end-to-end ---------------------------------
    digests = {}
    for backend in ("scalar", "vector", "adaptive"):
        digest, makespan, events, wall = windowed_program(backend)
        digests[backend] = digest
        print(
            f"[e2e]    {backend:<8} {wall * 1e3:8.1f}ms wall, "
            f"{events / wall:10,.0f} events/s, makespan {makespan:.6f}s"
        )
    assert len(set(digests.values())) == 1, f"backend digests diverged: {digests}"
    out["end_to_end"] = {
        "n_flows": 1_000,
        "digest": digests["adaptive"],
        "makespan": makespan,
        "events": events,
        "backends_identical": True,
    }

    # ---- incremental re-simulation -----------------------------------
    _, _, resim_payload, t_cold, t_warm = resim_workload()
    reduction = 1.0 - t_warm / t_cold
    print(
        f"[resim]  fig5 fan-out: cold {t_cold * 1e3:.2f}ms warm "
        f"{t_warm * 1e3:.2f}ms ({reduction:.0%} reduction, gate: >=30%)"
    )
    out["resim"]["fig5_fanout"] = resim_payload

    t_off = select_pass_seconds(resim_cache=None)
    cache = reset_default_resim_cache()
    compile_resharding(fig5_task(), CompileContext(strategy="auto", cache=None))
    t_on = select_pass_seconds(resim_cache=cache)
    select_reduction = 1.0 - t_on / t_off
    reset_default_resim_cache()
    print(
        f"[resim]  select pass: off {t_off * 1e3:.2f}ms warm {t_on * 1e3:.2f}ms "
        f"({select_reduction:.0%} reduction, gate: >=30%)"
    )
    out["resim"]["select_pass"] = {
        "resim_hits": cache.stats().hits,
        "tasks_skipped": cache.stats().tasks_skipped,
    }

    # ---- gates (asserted; persisted as constants once they hold) -----
    assert speedup_10k >= 5.0, f"vector solver only {speedup_10k:.1f}x at 10k flows"
    for n, x in scalar_speedups.items():
        assert x >= 1.5, f"incidence scalar solver only {x:.2f}x at {n} flows"
    assert reduction >= 0.30, f"resim reduction only {reduction:.0%}"
    assert select_reduction >= 0.30, f"select reduction only {select_reduction:.0%}"
    out["gates"] = {
        "scalar_incidence_speedup_min_1_5x": True,
        "vector_10k_speedup_min_5x": True,
        "resim_fig5_reduction_min_30pct": True,
        "select_pass_reduction_min_30pct": True,
    }
    return out


def test_persist_simulator_bench() -> None:
    """Regenerate and persist the committed BENCH_simulator.json artifact."""
    data = payload(quick=True)
    for n in FLOW_COUNTS:
        assert data["solver"][str(n)]["bit_identical"]
    assert data["end_to_end"]["backends_identical"]
    assert data["resim"]["fig5_fanout"]["byte_identical"]
    assert data["resim"]["fig5_fanout"]["checkpoints_stored"] >= 1
    persist_bench("simulator", data)


@pytest.mark.benchmark(group="simulator")
def test_solver_churn_10k(benchmark) -> None:
    """Wall time of the 10k-flow churn loop on the default-bound backend."""
    fp, _ = benchmark.pedantic(
        lambda: solver_churn(10_000, "vector", CHURN_ITERS[10_000]),
        rounds=1,
        iterations=1,
    )


if __name__ == "__main__":
    import json
    import sys

    quick = "--quick" in sys.argv
    print(json.dumps(payload(quick=quick), indent=2, sort_keys=True))
