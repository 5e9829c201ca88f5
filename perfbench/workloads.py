"""The four seeded workloads.

Each workload builds its inputs from the seed in :meth:`setup`, then
hands the harness an endless sequence of *blocks*.  A block is a seeded
permutation of one fixed, stratified design (every class of op once),
so every run measures the same mix whatever the seed; the seed draws
the order, the shapes at a fixed element count, host placements, array
contents and arrival times.  The harness times only :meth:`Op.run`;
:meth:`Op.check` is the correctness oracle and runs outside the timed
region.

The program is reached only through public functions of ``repro.*``,
looked up on their modules at call time so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro
import repro.analysis as analysis
import repro.compiler as compiler
import repro.core.joint as joint
import repro.experiments.fig7 as fig7
import repro.models.parallel as parallel
import repro.pipeline.interleaved as interleaved
import repro.service as service
import repro.service.loadgen as loadgen
from repro import Cluster, ClusterSpec, DeviceMesh, ReshardingTask
from repro.experiments.common import make_microbench_meshes
from repro.sim.topology import FatTreeTopology

FIG7_TABLE = Path(__file__).resolve().parents[1] / "benchmarks/results/fig7_end_to_end.md"


@dataclass
class Outcome:
    """What the oracle concluded about one op."""

    ok: bool
    #: simulated seconds users waited for this op (the sim_time_s term)
    sim: float
    detail: str = ""
    #: workload-specific simulated numbers, folded by ``summarize``
    stats: dict[str, Any] = field(default_factory=dict)


@dataclass
class Op:
    """One timed unit of work and its oracle."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    #: ops this counts as in ``ops_per_s`` (requests, for a service window)
    weight: int = 1


def _pow2_shape(rng: random.Random, log_elems: int, ndim: int, lo: int) -> tuple[int, ...]:
    """A seeded power-of-two shape with ``2**log_elems`` elements."""
    if ndim == 2:
        a = rng.randint(lo, log_elems - lo)
        return (2 ** a, 2 ** (log_elems - a))
    a = rng.randint(lo, (log_elems - lo) // 2)
    b = rng.randint(lo, log_elems - lo - a)
    return (2 ** a, 2 ** b, 2 ** (log_elems - a - b))


def _split_hosts(rng: random.Random, h: int) -> tuple[list[int], list[int]]:
    """Seeded disjoint host sets of ``h`` hosts each out of ``2h``."""
    hosts = list(range(2 * h))
    rng.shuffle(hosts)
    return sorted(hosts[:h]), sorted(hosts[h:])


def _nic_lower_bound(timing: Any, spec: ClusterSpec) -> float:
    """Cross-host bytes over the aggregate NIC bandwidth of the cluster."""
    return timing.bytes_cross_host / (spec.n_hosts * spec.inter_host_bandwidth)


# ----------------------------------------------------------------------
# reshard-cold
# ----------------------------------------------------------------------
PAIRS = {
    "S0S1>S1S0": ("S0S1", "S1S0", 2),
    "S0R>RS1": ("S0R", "RS1", 2),
    "RS0>S0R": ("RS0", "S0R", 2),
    "S0RR>RS1R": ("S0RR", "RS1R", 3),
}
STRATEGIES = ("broadcast", "send_recv", "allgather", "auto")


def _reshard_cells() -> list[tuple[int, str, str, bool]]:
    """(hosts per side, spec pair, strategy, fat tree?) of one block.

    Unit tasks range from 16 (4 hosts) to 1,024 (32 hosts).  Each 4-host
    auto cell is compiled twice (see ``_cell_ops``).  The 8-host
    auto compiles of the two fan-out pairs and the wider pairs above 16
    hosts cost seconds each, so the design leaves them out to keep a
    block near three seconds.
    """
    cells = []
    for i, pair in enumerate(PAIRS):
        for j, strategy in enumerate(STRATEGIES):
            cells.append((4, pair, strategy, (i + j) % 2 == 1))
            if not (strategy == "auto" and pair in ("S0R>RS1", "S0RR>RS1R")):
                cells.append((8, pair, strategy, (i + j) % 2 == 0))
    for j, strategy in enumerate(STRATEGIES):
        cells.append((16, "S0S1>S1S0", strategy, j % 2 == 1))
    cells.append((32, "S0S1>S1S0", "broadcast", False))
    return cells


#: multi-tensor boundaries per block: (hosts per side, pairs, fat tree?)
JOINT_CELLS = (
    (4, ("S0S1>S1S0", "S0R>RS1", "RS0>S0R"), False),
    (8, ("S0S1>S1S0", "RS0>S0R"), True),
)


class ReshardCold:
    name = "reshard-cold"

    def setup(self, seed: int) -> dict:
        clusters = {}
        for h in (4, 8, 16, 32):
            for fat in (False, True):
                topo = FatTreeTopology(hosts_per_leaf=4, oversubscription=2.0) if fat else None
                clusters[h, fat] = Cluster(
                    ClusterSpec(n_hosts=2 * h, devices_per_host=4, topology=topo)
                )
        compiler.reset_default_resim_cache()
        state = {"seed": seed, "clusters": clusters, "cells": _reshard_cells()}
        # Warm-up: one small cold compile per strategy and fabric.
        rng = random.Random(f"warm:{seed}")
        for strategy in STRATEGIES:
            for fat in (False, True):
                for op in self._cell_ops(state, rng, 4, "S0S1>S1S0", strategy, fat):
                    op.check(op.run())
        return state

    def _task(self, state: dict, rng: random.Random, h: int, pair: str, fat: bool,
              src_hosts: list[int], dst_hosts: list[int]) -> ReshardingTask:
        cluster = state["clusters"][h, fat]
        src_spec, dst_spec, ndim = PAIRS[pair]
        shape = _pow2_shape(rng, 22 if ndim == 2 else 21, ndim, 8 if ndim == 2 else 5)
        return ReshardingTask(
            shape,
            DeviceMesh.from_hosts(cluster, src_hosts),
            src_spec,
            DeviceMesh.from_hosts(cluster, dst_hosts),
            dst_spec,
            dtype=np.float32,
        )

    def _op(self, task: ReshardingTask, strategy: str, label: str) -> Op:
        def run() -> Any:
            compiled = compiler.compile_resharding(
                task, compiler.CompileContext(strategy=strategy, cache=None)
            )
            return compiled, compiled.ensure_timing()

        def check(result: Any) -> Outcome:
            compiled, timing = result
            report = analysis.check_plan(compiled.plan)
            bound = _nic_lower_bound(timing, task.cluster.spec)
            ok = not report.errors and timing.completed and timing.total_time >= bound
            return Outcome(ok, timing.total_time,
                           "" if ok else f"errors={report.codes} completed="
                           f"{timing.completed} t={timing.total_time} bound={bound}")

        return Op(label, run, check)

    def _cell_ops(self, state: dict, rng: random.Random, h: int, pair: str,
                  strategy: str, fat: bool) -> list[Op]:
        task = self._task(state, rng, h, pair, fat, *_split_hosts(rng, h))
        label = f"{h}h {pair} {strategy}{' fat' if fat else ''}"
        ops = [self._op(task, strategy, label)]
        if strategy == "auto" and h == 4:
            # The same resharding compiled again with the plan cache off:
            # the select pass resumes its candidates from the resim cache.
            ops.append(self._op(task, strategy, label + " recompile"))
        return ops

    def _joint_op(self, state: dict, rng: random.Random, h: int, pairs: tuple[str, ...],
                  fat: bool) -> Op:
        src_hosts, dst_hosts = _split_hosts(rng, h)
        tasks = [self._task(state, rng, h, p, fat, src_hosts, dst_hosts) for p in pairs]

        # reshard_boundary's two steps, called separately so the oracle
        # can check the plans it simulated.
        def run() -> Any:
            plans, schedule, key = joint.plan_joint_broadcast(tasks)
            return plans, joint.simulate_joint(plans, schedule, key)

        def check(result: Any) -> Outcome:
            plans, timing = result
            errors = [d for p in plans for d in analysis.check_plan(p).errors]
            bound = _nic_lower_bound(timing, tasks[0].cluster.spec)
            ok = not errors and timing.total_time >= bound and all(
                t > 0 for t in timing.per_tensor_finish
            )
            return Outcome(ok, timing.total_time,
                           "" if ok else f"errors={errors[:3]} t={timing.total_time}")

        return Op(f"{h}h joint {'+'.join(pairs)}", run, check)

    def block(self, state: dict, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{state['seed']}:{index}")
        ops = [op for cell in state["cells"] for op in self._cell_ops(state, rng, *cell)]
        ops += [self._joint_op(state, rng, *cell) for cell in JOINT_CELLS]
        rng.shuffle(ops)
        return ops

    def summarize(self, outcomes: list[Outcome]) -> dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# train-iter
# ----------------------------------------------------------------------
#: interleaved-1F1B job menu: (stages, virtual chunks, micro-batches, comm)
INTERLEAVED_MENU = tuple(
    (p, v, m, c)
    for p in (2, 4)
    for v in (2, 4)
    for m in (8, 16)
    for c in (2e-4, 5e-4)
)
INTERLEAVED_PER_BLOCK = 3
FWD, BWD = 1e-3, 2e-3


def fig7_table() -> dict[tuple[str, str], str]:
    """(model, method) -> the committed iteration time, as printed."""
    cells: dict[tuple[str, str], str] = {}
    for line in FIG7_TABLE.read_text().splitlines():
        m = re.match(r"\|\s*([^|]+?)\s*\|\s*([^|]+?)\s*\|\s*([0-9][0-9.eE+-]*)\s*\|", line)
        if m:
            cells[m.group(1), m.group(2)] = m.group(3)
    if not cells:
        raise ValueError(f"no iteration times found in {FIG7_TABLE}")
    return cells


class TrainIter:
    name = "train-iter"

    def setup(self, seed: int) -> dict:
        specs = fig7.workloads()
        compiler.reset_default_plan_cache()
        compiler.reset_default_resim_cache()
        state = {
            "seed": seed,
            "specs": specs,
            "expected": fig7_table(),
            "cells": [(m, meth) for m in specs for meth in parallel.METHODS],
        }
        # Warm the plan cache: every boundary of every cell compiles once.
        for model, method in state["cells"]:
            self._cell(state, model, method).run()
        return state

    def _cell(self, state: dict, model: str, method: str) -> Op:
        spec = state["specs"][model]
        expected = state["expected"].get((model, method))

        def run() -> Any:
            return parallel.run_iteration(spec, method)

        def check(r: Any) -> Outcome:
            pipe = r.pipeline
            busy = pipe.stage_busy_time
            n_stages = pipe.job.n_stages
            bubble = 1.0 - sum(busy.get(s, 0.0) for s in range(n_stages)) / (
                n_stages * pipe.iteration_time
            )
            ok = math.isfinite(r.iteration_time) and r.iteration_time > 0
            if expected is not None:
                ok = ok and f"{r.iteration_time:.4g}" == expected
            return Outcome(ok, r.iteration_time,
                           "" if ok else f"iteration {r.iteration_time:.4g} != {expected}",
                           {"tflops": r.throughput_tflops, "bubble": bubble})

        return Op(f"{model} {method}", run, check)

    def _interleaved(self, p: int, v: int, m: int, c: float) -> Op:
        job = interleaved.InterleavedJob(
            n_stages=p, n_virtual=v, n_microbatches=m,
            fwd_time=FWD, bwd_time=BWD, comm_fwd=c, comm_bwd=c,
        )
        # every stage computes m * v forwards and backwards
        bound = m * v * (FWD + BWD)

        def check(r: Any) -> Outcome:
            ok = math.isfinite(r.iteration_time) and r.iteration_time >= bound
            return Outcome(ok, r.iteration_time,
                           "" if ok else f"interleaved {r.iteration_time} < {bound}")

        return Op(f"interleaved p{p} v{v} m{m}",
                  lambda: interleaved.simulate_interleaved(job), check)

    def block(self, state: dict, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{state['seed']}:{index}")
        ops = [self._cell(state, model, method) for model, method in state["cells"]]
        ops += [
            self._interleaved(*rng.choice(INTERLEAVED_MENU))
            for _ in range(INTERLEAVED_PER_BLOCK)
        ]
        rng.shuffle(ops)
        return ops

    def summarize(self, outcomes: list[Outcome]) -> dict[str, float]:
        cells = [o.stats for o in outcomes if o.stats]
        return {
            "pipeline.sim_tflops_per_gpu": sum(c["tflops"] for c in cells) / len(cells),
            "pipeline.bubble_share": sum(c["bubble"] for c in cells) / len(cells),
        }


# ----------------------------------------------------------------------
# layout-convert
# ----------------------------------------------------------------------
LAYOUT_PAIRS = (("S0S1", "S1S0"), ("S0R", "RS1"), ("RS0", "S0R"), ("RR", "S0S1"))
LAYOUT_STRATEGIES = ("broadcast", "send_recv", "allgather")
#: log2 element counts of the arrays: 4 MiB, 1 MiB, 256 KiB, 64 KiB of fp32.
#: At 16 MiB the page faults of the data plane's freshly allocated
#: buffers took over half of each op, and their cost on a shared host
#: varied 2x between identical ops.
LOG_ELEMS = (20, 18, 16, 14)


class LayoutConvert:
    name = "layout-convert"

    def setup(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        nprng = np.random.default_rng(seed)
        clusters = {
            # the 4-host meshes sit on a fat tree, where placement matters
            h: Cluster(ClusterSpec(n_hosts=2 * h, devices_per_host=4, topology=(
                FatTreeTopology(hosts_per_leaf=2, oversubscription=2.0) if h == 4 else None
            )))
            for h in (2, 4)
        }
        # square arrays of exact small integers stored as fp32
        arrays = {
            k: nprng.integers(0, 2 ** 24, size=(2 ** (k // 2), 2 ** (k // 2)),
                              dtype=np.int32).astype(np.float32)
            for k in LOG_ELEMS
        }
        layouts = [
            (h, src, dst, strategy)
            for h in clusters
            for src, dst in LAYOUT_PAIRS
            for strategy in LAYOUT_STRATEGIES
        ]
        # Each layout sees two sizes, every size equally often, and each
        # (layout, size) its own seeded host placement, kept for the run.
        combos = []
        for i, layout in enumerate(layouts):
            for d in (0, 2):
                src_hosts, dst_hosts = _split_hosts(rng, layout[0])
                cluster = clusters[layout[0]]
                meshes = (DeviceMesh.from_hosts(cluster, src_hosts),
                          DeviceMesh.from_hosts(cluster, dst_hosts))
                combos.append((layout, meshes, LOG_ELEMS[(i + d) % 4]))
        compiler.reset_default_plan_cache()
        state = {"seed": seed, "arrays": arrays, "combos": combos}
        # Warm the plan cache (compile + simulate once per distinct
        # layout, placement and shape) without moving data.
        for (h, src, dst, strategy), (src_mesh, dst_mesh), k in combos:
            repro.reshard(arrays[k].shape, src_mesh, src, dst_mesh, dst,
                          strategy=strategy, dtype=np.float32)
        return state

    def _op(self, state: dict, layout: tuple, meshes: tuple, k: int) -> Op:
        h, src, dst, strategy = layout
        src_mesh, dst_mesh = meshes
        array = state["arrays"][k]

        def run() -> Any:
            result = repro.reshard(array, src_mesh, src, dst_mesh, dst, strategy=strategy)
            return result, result.dst_tensor.to_global()

        def check(out: Any) -> Outcome:
            result, back = out
            ok = (
                back.dtype == array.dtype
                and back.shape == array.shape
                and np.array_equal(back.view(np.uint32), array.view(np.uint32))
            )
            return Outcome(ok, result.latency, "" if ok else "round trip differs")

        return Op(f"{h}h {src}>{dst} {strategy} 2^{k}", run, check)

    def block(self, state: dict, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{state['seed']}:{index}")
        ops = [self._op(state, *combo) for combo in state["combos"]]
        rng.shuffle(ops)
        return ops

    def summarize(self, outcomes: list[Outcome]) -> dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# service-burst
# ----------------------------------------------------------------------
#: arrivals per replayed window; bursts of 1,000/s for 0.1 s every 0.5 s
#: over a 100/s base rate, from 6 tenants over 10 distinct tasks
PROFILE = service.LoadProfile(
    name="burst", n_requests=200, n_tenants=6, n_distinct_tasks=10,
    base_rate=100.0, burst_rate=1000.0, burst_every=0.5, burst_len=0.1,
)
#: a tight policy: short queues and a 30/s per-tenant token bucket
CONFIG = service.ServiceConfig(
    n_workers=2,
    admission=service.AdmissionConfig(
        max_queue_depth=16, per_tenant_depth=4, rate=30.0, burst=6.0
    ),
)
WINDOWS_PER_BLOCK = 10


def _arrivals(rng: random.Random, p: service.LoadProfile) -> list[service.Arrival]:
    """A stratified draw of ``p``'s arrival process.

    Arrival ``k`` lands at a seeded point of the ``k``-th unit of the
    profile's cumulative rate, and tenants and tasks are dealt in seeded
    rounds, so every window carries the same load shape and mix while the
    exact times and pairings vary with the seed.
    """
    cycle = p.burst_len * p.burst_rate + (p.burst_every - p.burst_len) * p.base_rate

    def at(x: float) -> float:  # inverse of the cumulative rate
        n, rem = divmod(x, cycle)
        if rem < p.burst_len * p.burst_rate:
            return n * p.burst_every + rem / p.burst_rate
        return n * p.burst_every + p.burst_len + (rem - p.burst_len * p.burst_rate) / p.base_rate

    def dealt(n_kinds: int) -> list[int]:
        out: list[int] = []
        while len(out) < p.n_requests:
            out += rng.sample(range(n_kinds), n_kinds)
        return out

    tenants, tasks = dealt(p.n_tenants), dealt(p.n_distinct_tasks)
    return [
        service.Arrival(time=at(k + rng.random()), request_id=f"req-{k:04d}",
                        tenant=f"tenant-{tenants[k]}", task_idx=tasks[k])
        for k in range(p.n_requests)
    ]


class ServiceBurst:
    name = "service-burst"

    def setup(self, seed: int) -> dict:
        # six small tasks plus four medium ones on 4 and 8 hosts per side
        tasks = service.build_task_pool(6)
        for h in (4, 8):
            _cluster, src, dst = make_microbench_meshes((h, 4), (h, 4))
            for src_spec, dst_spec in (("S0S1", "S1S0"), ("RS0", "S0R")):
                tasks.append(ReshardingTask((1024, 1024), src, src_spec, dst, dst_spec))
        state = {"seed": seed, "tasks": tasks}
        op = self._window(state, -1)
        op.check(op.run())
        return state

    def _window(self, state: dict, window: int) -> Op:
        arrivals = _arrivals(random.Random(f"{self.name}:{state['seed']}:{window}"), PROFILE)
        tasks = state["tasks"]

        async def main() -> Any:
            svc = service.ReshardingService(CONFIG)
            await svc.start()
            responses = await loadgen.drive(svc, arrivals, tasks)
            await svc.shutdown()
            return svc, responses

        def check(out: Any) -> Outcome:
            svc, responses = out
            report = loadgen.build_report(PROFILE, window, svc, responses)
            due = {a.request_id: a.time for a in arrivals}
            answered = [r.request_id for r in responses]
            ok_lat = [r.completed_at - due[r.request_id] for r in responses if r.ok]
            bad = [r.status for r in responses if r.status in ("failed", "invalid")]
            ok = (
                sorted(answered) == sorted(due)
                and not bad
                and report.worker_crashes == 0
            )
            return Outcome(
                ok, sum(ok_lat),
                "" if ok else f"bad={bad[:3]} crashes={report.worker_crashes} "
                f"answered={len(answered)}/{len(due)}",
                {
                    "lat": ok_lat,
                    "requests": len(arrivals),
                    "shed": report.n_shed,
                    "coalesced": report.n_coalesced,
                    "compiles": report.counter_totals.get("service/service.completed", 0.0),
                    "max_depth": report.max_queue_depth,
                },
            )

        return Op(f"window {window}", lambda: service.run_virtual(main()), check,
                  weight=len(arrivals))

    def block(self, state: dict, index: int) -> list[Op]:
        return [
            self._window(state, index * WINDOWS_PER_BLOCK + k)
            for k in range(WINDOWS_PER_BLOCK)
        ]

    def summarize(self, outcomes: list[Outcome]) -> dict[str, float]:
        stats = [o.stats for o in outcomes]
        lat = [x for s in stats for x in s["lat"]]
        requests = sum(s["requests"] for s in stats)
        return {
            "service.compiles": sum(s["compiles"] for s in stats),
            "service.coalesced": sum(s["coalesced"] for s in stats),
            "service.shed": sum(s["shed"] for s in stats),
            "service.max_queue_depth": max(s["max_depth"] for s in stats),
            "service.vlat_p50_s": loadgen.percentile(lat, 50),
            "service.vlat_p99_s": loadgen.percentile(lat, 99),
            "service.shed_rate": sum(s["shed"] for s in stats) / requests,
        }


WORKLOADS: dict[str, Any] = {
    w.name: w for w in (ReshardCold(), TrainIter(), LayoutConvert(), ServiceBurst())
}
