"""What the benchmark measures, and what each number is predicted to move.

This module is the single source of truth for the workload and metric
tables.  ``BENCHMARK.json`` at the repository root mirrors the subset
of it that the BENCHMARK.json format holds (names, units, directions
and bounds); the benchmark's own tests check that the two agree.  The
prediction columns (``moves`` / ``works_on`` / ``zero_on``) and the
seeds live only here, because ``BENCHMARK.json`` has a fixed set of
keys.
"""

from __future__ import annotations

from dataclasses import dataclass

#: seed used when writing and tuning the benchmark
DEFAULT_SEED = 1
#: seed never used while writing a change; re-check gain claims on it
HOLDOUT_SEED = 7919

#: seconds one run measures (mirrored as ``run_seconds``)
RUN_SECONDS = 20

#: every run completes at least this many ops, in whole blocks, so the
#: p90 latency has at least ten samples beyond it
MIN_OPS = 100

#: in-process set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "reshard-cold",
        "cold compiles (plan cache off) of distinct cross-mesh reshardings: compile "
        "passes, the 3.2 scheduler, the max-min solver, the event kernel and "
        "PlanRunner are on the path",
    ),
    Workload(
        "train-iter",
        "full Fig. 7 training iterations with a warm plan cache: cache-hit signature "
        "rebuilds, simulate_pipeline and the kernel dominate; scheduler and solver idle",
    ),
    Workload(
        "layout-convert",
        "reshard() of real NumPy arrays up to 4 MiB over repeated layouts: the data "
        "plane (apply_plan, from_global/to_global) does the work; compiles hit the cache",
    ),
    Workload(
        "service-burst",
        "bursty multi-tenant arrivals replayed in virtual time through "
        "ReshardingService: admission, coalescing, shedding and the async loop",
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


#: Metrics every workload reports: each run reports all of them, and none
#: is ever 0.  Host times are scaled to a nominal machine speed by the
#: reference work timed around each op (see ``reference.py``); the run
#: also prints them unscaled.  Workload-specific end-to-end numbers
#: (``sim_tflops_per_gpu``, ``vlat_p50_s``, ``vlat_p99_s``, ``shed_rate``)
#: are reported per layer below, and ``error_rate`` is
#: ``failed / attempted`` of the result line.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "imports, cluster/mesh build, input generation and cache warm-up "
             "(median of several set-ups)"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "completed ops (requests for service-burst) per host second"),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25,
             "host latency per op, median (service-burst: per request, "
             "amortised over each replayed window)"),
    EndToEnd("op_p90_ms", "ms", "lower", 0.25, "host latency per op, p90"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15,
             "peak resident memory of the benchmark process"),
    EndToEnd("sim_time_s", "sim_s", "lower", 0.1,
             "simulated seconds users waited, summed over the first "
             "MIN_OPS ops (whole blocks): the plan-quality guard"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: end-to-end metrics this layer metric should move
    moves: tuple[str, ...]
    #: workloads where the layer does the work (traced value > 0)
    works_on: tuple[str, ...]
    #: workloads where the layer must stay idle (traced value == 0)
    zero_on: tuple[str, ...]
    how: str


_RC, _TI, _LC, _SB = WORKLOAD_NAMES
_OTHERS_THAN_LC = (_RC, _TI, _SB)
_OTHERS_THAN_SB = (_RC, _TI, _LC)

PER_LAYER: tuple[PerLayer, ...] = (
    PerLayer("compiler.lower_ms", "ms", "lower", ("ops_per_s", "op_p90_ms"),
             (_RC,), (_TI, _LC), "lower-pass time of cache misses, per op"),
    PerLayer("compiler.emit_ms", "ms", "lower", ("ops_per_s", "op_p90_ms"),
             (_RC,), (_TI, _LC), "emit-pass time of cache misses, per op"),
    PerLayer("compiler.select_ms", "ms", "lower", ("ops_per_s", "op_p90_ms"),
             (_RC,), (_TI, _LC), "select-pass time of cache misses, per op"),
    PerLayer("compiler.self_ms", "ms", "lower", ("ops_per_s",),
             (_RC, _TI, _LC, _SB), (),
             "compile_resharding self time (children excluded), per op"),
    PerLayer("compiler.cache_lookups", "count/op", "lower", ("ops_per_s",),
             (_TI, _LC), (_RC,), "PlanCache lookups, per op"),
    PerLayer("compiler.cache_hit_ratio", "ratio", "higher", ("ops_per_s",),
             (_TI, _LC), (_RC,), "PlanCache hits / lookups"),
    PerLayer("compiler.signature_ms", "ms", "lower", ("ops_per_s",),
             (_TI,), (_RC,), "plan_signature time, per op"),
    PerLayer("compiler.signature_calls", "count/op", "lower", ("ops_per_s",),
             (_TI,), (_RC,), "plan_signature calls, per op"),
    PerLayer("compiler.resim_hit_ratio", "ratio", "higher", ("op_p90_ms",),
             (_RC,), (_TI,), "ResimCache hits / requests"),
    PerLayer("compiler.resim_tasks_skipped", "count/op", "higher", ("op_p90_ms",),
             (_RC,), (_TI,), "unit tasks resumed from checkpoints, per op"),
    PerLayer("scheduling.ms", "ms", "lower", ("op_p90_ms", "ops_per_s"),
             (_RC,), (_TI, _LC), "self time of the public schedulers, per op"),
    PerLayer("scheduling.calls", "count/op", "lower", ("op_p90_ms", "ops_per_s"),
             (_RC,), (_TI, _LC), "outermost scheduler calls, per op"),
    PerLayer("sim.solve_ms", "ms", "lower", ("ops_per_s",),
             (_RC,), (_TI, _LC), "ScalarSolver/VectorSolver.solve time, per op"),
    PerLayer("sim.solve_calls", "count/op", "lower", ("ops_per_s",),
             (_RC,), (_TI, _LC), "rate-solver calls, per op"),
    PerLayer("sim.network_ms", "ms", "lower", ("ops_per_s",),
             (_RC,), (_TI, _LC), "Network.run self time (solver excluded), per op"),
    PerLayer("sim.flows", "count/op", "lower", ("sim_time_s",),
             (_RC,), (_TI, _LC), "flows started, per op"),
    PerLayer("runtime.events", "count/op", "lower", ("ops_per_s",),
             (_RC, _TI), (_LC,), "events the kernels processed, per op"),
    PerLayer("runtime.us_per_event", "us", "lower", ("ops_per_s",),
             (_RC, _TI), (_LC,), "host time inside EventLoop.run per event"),
    PerLayer("core.executor_ms", "ms", "lower", ("ops_per_s",),
             (_RC,), (_TI, _LC), "PlanRunner self time (network excluded), per op"),
    PerLayer("core.data_ms", "ms", "lower", ("ops_per_s",),
             (_LC,), _OTHERS_THAN_LC, "apply_plan self time, per op"),
    PerLayer("core.tensor_ms", "ms", "lower", ("ops_per_s",),
             (_LC,), _OTHERS_THAN_LC, "from_global/to_global time, per op"),
    PerLayer("core.bytes_moved", "MB/op", "lower", ("ops_per_s",),
             (_LC,), _OTHERS_THAN_LC,
             "bytes through apply_plan ops and from_global/to_global, per op"),
    PerLayer("analysis.check_ms", "ms", "lower", ("ops_per_s",),
             (_RC,), (), "check_plan time (the oracle, outside op timing), per op"),
    PerLayer("analysis.errors", "count", "lower", (),
             (), WORKLOAD_NAMES, "error diagnostics check_plan reported"),
    PerLayer("pipeline.simulate_ms", "ms", "lower", ("ops_per_s",),
             (_TI,), (_RC,), "simulate_pipeline self time, per op"),
    PerLayer("pipeline.interleaved_ms", "ms", "lower", ("ops_per_s",),
             (_TI,), (_RC,), "simulate_interleaved self time, per op"),
    PerLayer("pipeline.bubble_share", "ratio", "lower", ("sim_time_s",),
             (_TI,), (), "1 - mean stage busy / iteration (simulated)"),
    PerLayer("pipeline.sim_tflops_per_gpu", "TFLOPS", "higher", ("sim_time_s",),
             (_TI,), (), "mean simulated per-GPU throughput, the Fig. 7 metric"),
    PerLayer("service.loop_ms", "ms", "lower", ("ops_per_s",),
             (_SB,), _OTHERS_THAN_SB,
             "run_virtual self time (compiles excluded), per request"),
    PerLayer("service.compiles", "count", "lower", ("vlat_p99_s", "shed_rate"),
             (_SB,), (), "compiles the service completed"),
    PerLayer("service.coalesced", "count", "higher", ("vlat_p99_s", "shed_rate"),
             (_SB,), (), "requests coalesced onto an in-flight compile"),
    PerLayer("service.shed", "count", "lower", ("vlat_p99_s", "shed_rate"),
             (_SB,), (), "requests shed by admission control"),
    PerLayer("service.max_queue_depth", "count", "lower", ("vlat_p99_s",),
             (_SB,), (), "deepest service queue seen"),
    PerLayer("service.vlat_p50_s", "sim_s", "lower", (),
             (), (), "virtual admission-to-response latency of ok requests, median"),
    PerLayer("service.vlat_p99_s", "sim_s", "lower", (),
             (_SB,), (), "virtual admission-to-response latency of ok requests, p99"),
    PerLayer("service.shed_rate", "ratio", "lower", (),
             (_SB,), (), "shed / submitted"),
    PerLayer("trace.overhead", "ratio", "lower", (),
             (), (), "1 - traced / untraced ops_per_s, from alternating blocks"),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these tables define."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
