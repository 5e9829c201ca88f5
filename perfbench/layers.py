"""Which public functions of ``repro.*`` stand for which layer.

:func:`targets` lists, for a :class:`~perfbench.spans.Tracer`, every
function or method to wrap: span wrappers for the layers whose self
time is reported, and counter-only wrappers for hot methods whose calls
are counted but whose time belongs to the caller's span.
:func:`layer_metrics` turns what the tracer recorded over ``n_ops`` ops
into the per-layer metrics of :mod:`perfbench.design`.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from .spans import Tracer

SCHEDULERS = (
    "naive_schedule",
    "load_balance_schedule",
    "dfs_schedule",
    "randomized_greedy_schedule",
    "ensemble_schedule",
    "brute_force_schedule",
)


def _on_compile(tr: Tracer, args: tuple, kwargs: dict, compiled: Any) -> None:
    # A cache hit returns exactly the object the lookup found; anything
    # else was compiled by this call, and its pass timings are fresh.
    if compiled is tr.last_hit:
        return
    tr.counters["compile.misses"] += 1
    for p in compiled.diagnostics.passes:
        tr.counters["pass." + p.name] += p.seconds


def _on_check(tr: Tracer, args: tuple, kwargs: dict, report: Any) -> None:
    tr.counters["analysis.errors"] += len(report.errors)


def _on_apply(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    plan = args[0] if args else kwargs["plan"]
    tr.counters["core.bytes"] += sum(op.nbytes for op in plan.ops)


def _on_tensor(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    # from_global(cls, mesh, spec, array) or to_global(self) -> array
    arrays = [a for a in (*args, *kwargs.values(), result) if hasattr(a, "nbytes")]
    tr.counters["core.bytes"] += sum(int(a.nbytes) for a in arrays)


def _count_lookups(tr: Tracer) -> Callable:
    counters = tr.counters

    def make(fn: Callable) -> Callable:
        def lookup(self, signature):
            found = fn(self, signature)
            counters["cache.lookups"] += 1
            if found is not None:
                counters["cache.hits"] += 1
                tr.last_hit = found
            return found

        return lookup

    return make


def _count_events(tr: Tracer) -> Callable:
    counters = tr.counters
    clock = time.perf_counter

    def make(fn: Callable) -> Callable:
        def run(self, *args, **kwargs):
            before = self.processed
            start = clock()
            try:
                return fn(self, *args, **kwargs)
            finally:
                counters["runtime.loop_s"] += clock() - start
                counters["runtime.events"] += self.processed - before

        return run

    return make


def _count_flows(tr: Tracer) -> Callable:
    counters = tr.counters

    def make(fn: Callable) -> Callable:
        def start_flow(self, *args, **kwargs):
            counters["sim.flows"] += 1
            return fn(self, *args, **kwargs)

        return start_flow

    return make


def targets(tr: Tracer) -> list[tuple[str, Callable]]:
    """Every ``(path, wrapper factory)`` the traced run installs."""
    out: list[tuple[str, Callable]] = [
        ("repro.compiler.pipeline.compile_resharding", tr.span("compiler", _on_compile)),
        ("repro.compiler.cache.plan_signature", tr.span("compiler.signature")),
        ("repro.compiler.cache.PlanCache.lookup", _count_lookups(tr)),
        ("repro.sim.solver.ScalarSolver.solve", tr.span("sim.solve")),
        ("repro.sim.solver.VectorSolver.solve", tr.span("sim.solve")),
        ("repro.sim.network.Network.run", tr.span("sim.network")),
        ("repro.sim.network.Network.start_flow", _count_flows(tr)),
        ("repro.runtime.kernel.EventLoop.run", _count_events(tr)),
        ("repro.core.executor.PlanRunner.__init__", tr.span("core.executor")),
        ("repro.core.executor.PlanRunner.run", tr.span("core.executor")),
        ("repro.core.data.apply_plan", tr.span("core.data", _on_apply)),
        ("repro.core.tensor.DistributedTensor.from_global",
         tr.span("core.tensor", _on_tensor)),
        ("repro.core.tensor.DistributedTensor.to_global",
         tr.span("core.tensor", _on_tensor)),
        ("repro.analysis.plan_checker.check_plan", tr.span("analysis", _on_check)),
        ("repro.pipeline.executor.simulate_pipeline", tr.span("pipeline.simulate")),
        ("repro.pipeline.interleaved.simulate_interleaved",
         tr.span("pipeline.interleaved")),
        ("repro.service.clock.run_virtual", tr.span("service")),
    ]
    out += [
        (f"repro.scheduling.algorithms.{name}", tr.span("scheduling"))
        for name in SCHEDULERS
    ]
    return out


def layer_metrics(tr: Tracer, n_ops: int, extra: dict[str, float], scale: float = 1.0
                  ) -> dict[str, float]:
    """Per-layer metrics over ``n_ops`` traced ops (requests, for a service).

    ``extra`` carries what the workload itself measured (resim stats,
    simulated pipeline and service numbers); names missing from it
    read 0, as do layers the traced ops never entered.  Times are
    multiplied by ``scale`` (see :mod:`perfbench.reference`).
    """
    summary = tr.summary()
    c = tr.counters
    ms = 1e3 * scale / n_ops

    def self_ms(name: str) -> float:
        return summary.get(name, (0.0, 0, 0))[0] * ms

    def calls(name: str, outermost: bool = False) -> float:
        return summary.get(name, (0.0, 0, 0))[2 if outermost else 1] / n_ops

    lookups = c["cache.lookups"]
    events = c["runtime.events"]
    resim_requests = extra.get("resim.requests", 0.0)
    out = {
        "compiler.lower_ms": c["pass.lower"] * ms,
        "compiler.emit_ms": c["pass.emit"] * ms,
        "compiler.select_ms": c["pass.select"] * ms,
        "compiler.self_ms": self_ms("compiler"),
        "compiler.cache_lookups": lookups / n_ops,
        "compiler.cache_hit_ratio": c["cache.hits"] / lookups if lookups else 0.0,
        "compiler.signature_ms": self_ms("compiler.signature"),
        "compiler.signature_calls": calls("compiler.signature"),
        "compiler.resim_hit_ratio": (
            extra.get("resim.hits", 0.0) / resim_requests if resim_requests else 0.0
        ),
        "compiler.resim_tasks_skipped": extra.get("resim.tasks_skipped", 0.0) / n_ops,
        "scheduling.ms": self_ms("scheduling"),
        "scheduling.calls": calls("scheduling", outermost=True),
        "sim.solve_ms": self_ms("sim.solve"),
        "sim.solve_calls": calls("sim.solve"),
        "sim.network_ms": self_ms("sim.network"),
        "sim.flows": c["sim.flows"] / n_ops,
        "runtime.events": events / n_ops,
        "runtime.us_per_event": (
            c["runtime.loop_s"] * 1e6 * scale / events if events else 0.0
        ),
        "core.executor_ms": self_ms("core.executor"),
        "core.data_ms": self_ms("core.data"),
        "core.tensor_ms": self_ms("core.tensor"),
        "core.bytes_moved": c["core.bytes"] / 1e6 / n_ops,
        "analysis.check_ms": self_ms("analysis"),
        "analysis.errors": c["analysis.errors"],
        "pipeline.simulate_ms": self_ms("pipeline.simulate"),
        "pipeline.interleaved_ms": self_ms("pipeline.interleaved"),
        "service.loop_ms": self_ms("service"),
    }
    for name in (
        "pipeline.bubble_share",
        "pipeline.sim_tflops_per_gpu",
        "service.compiles",
        "service.coalesced",
        "service.shed",
        "service.max_queue_depth",
        "service.vlat_p50_s",
        "service.vlat_p99_s",
        "service.shed_rate",
        "trace.overhead",
    ):
        out[name] = extra.get(name, 0.0)
    return out
