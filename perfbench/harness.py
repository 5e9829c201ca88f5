"""Set up a workload, measure it, check it, and report its metrics.

One run: ``SETUP_REPEATS`` set-ups (``setup_s`` is the median, each
with the import time a fresh interpreter pays, scaled like op times by
the reference timed around it), then whole blocks of
ops until ``--seconds`` have passed and at least ``MIN_OPS`` ops ran.
Only :meth:`Op.run` is timed; each op's oracle runs right after it,
outside the timed region.  Each op's time is scaled by the reference
work timed just before and after it (:mod:`perfbench.reference`).

With ``--trace 1`` odd blocks run under the :class:`~perfbench.spans.
Tracer` and even blocks without it; the per-layer metrics come from the
traced blocks, and ``trace.overhead`` compares the two kinds.  The
end-to-end metrics are reported by untraced runs only.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from . import design

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

#: run in a fresh interpreter: how long importing the program takes
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "t = time.perf_counter()\n"
    "import perfbench.workloads\n"
    "print(time.perf_counter() - t)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad input)."""


def bootstrap() -> None:
    """Make ``import repro`` load this checkout's ``src/repro``, or fail."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {package} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {package}")


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing the measured code."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(ROOT)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(out.stdout.split()[-1])


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile, ``p`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def delay(seconds: float) -> Callable[[Callable], Callable]:
    """A wrapper factory that busy-waits ``seconds`` before each call."""
    clock = time.perf_counter

    def make(fn: Callable) -> Callable:
        def slowed(*args, **kwargs):
            until = clock() + seconds
            while clock() < until:
                pass
            return fn(*args, **kwargs)

        return slowed

    return make


@dataclass
class Side:
    """Totals over the traced or the untraced blocks."""

    weight: int = 0
    ops: int = 0
    #: measured host seconds, and the same scaled to the nominal reference
    host_s: float = 0.0
    norm_s: float = 0.0

    def add(self, weight: int, dt: float, norm: float) -> None:
        self.weight += weight
        self.ops += 1
        self.host_s += dt
        self.norm_s += norm


@dataclass
class Measurement:
    #: normalised and measured host seconds per op (per request, service)
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: oracle outcomes of the first MIN_OPS ops (whole blocks)
    quality: list[Any] = field(default_factory=list)
    untraced: Side = field(default_factory=Side)
    traced: Side = field(default_factory=Side)
    resim: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> Side:
        u, t = self.untraced, self.traced
        return Side(u.weight + t.weight, u.ops + t.ops, u.host_s + t.host_s,
                    u.norm_s + t.norm_s)


def _run_op(op: Any) -> tuple[float, Any, str]:
    """Run and check one op: (timed seconds, outcome or None, detail)."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failing op is counted, not fatal
        return time.perf_counter() - t0, None, f"{op.label}: raised {exc!r}"
    dt = time.perf_counter() - t0
    try:
        outcome = op.check(result)
    except Exception as exc:
        return dt, None, f"{op.label}: oracle raised {exc!r}"
    return dt, outcome, f"{op.label}: {outcome.detail}"


def measure(workload: Any, state: Any, seconds: float, tracer: Optional[Any] = None
            ) -> Measurement:
    from repro import compiler

    from . import layers, reference

    m = Measurement()
    quality_blocks = 0
    index = 0
    start = time.perf_counter()
    while True:
        ops = workload.block(state, index)
        if index == 0:
            quality_blocks = math.ceil(design.MIN_OPS / len(ops))
        traced = tracer is not None and index % 2 == 1
        side = m.traced if traced else m.untraced
        if traced:
            resim_before = compiler.default_resim_cache().stats()
            tracer.install(layers.targets(tracer))
        try:
            for op in ops:
                if traced:
                    tracer.op = side.ops
                before = reference.seconds()
                dt, outcome, detail = _run_op(op)
                after = reference.seconds()
                norm = dt * reference.NOMINAL_S / ((before + after) / 2)
                if outcome is None or not outcome.ok:
                    m.failed += op.weight
                    m.failures.append(detail)
                m.latencies.append(norm / op.weight)
                m.raw_latencies.append(dt / op.weight)
                side.add(op.weight, dt, norm)
                if index < quality_blocks and outcome is not None:
                    m.quality.append(outcome)
        finally:
            if traced:
                tracer.uninstall()
                after_stats = compiler.default_resim_cache().stats()
                for key in ("hits", "requests", "tasks_skipped"):
                    m.resim["resim." + key] = m.resim.get("resim." + key, 0.0) + (
                        getattr(after_stats, key) - getattr(resim_before, key)
                    )
        index += 1
        done = index >= quality_blocks and time.perf_counter() - start >= seconds
        if done and (tracer is None or index >= 2):
            return m


def coverage_violations(workload: str, layer: dict[str, float]) -> list[str]:
    """Per-layer metrics that contradict the design's prediction table."""
    out = []
    for metric in design.PER_LAYER:
        value = layer[metric.name]
        if workload in metric.works_on and not value > 0:
            out.append(f"{metric.name}={value} but the layer should work here")
        if workload in metric.zero_on and value != 0:
            out.append(f"{metric.name}={value} but the layer should be idle here")
    return out


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sabotage: Optional[tuple[str, float]] = None,
    write_spans: bool = True,
) -> dict[str, Any]:
    """One benchmark run; returns the result object plus report fields."""
    from . import reference, spans, workloads

    workload = workloads.WORKLOADS.get(name)
    if workload is None:
        raise BenchError(f"unknown workload {name!r}; choose from {design.WORKLOAD_NAMES}")
    undo: list = []
    if sabotage is not None:
        spans.patch(sabotage[0], delay(sabotage[1]), undo)
    try:
        setups = []
        state = None
        for _ in range(design.SETUP_REPEATS):
            state = None
            gc.collect()
            before = reference.seconds()
            spent = import_seconds()
            t0 = time.perf_counter()
            state = workload.setup(seed)
            spent += time.perf_counter() - t0
            after = reference.seconds()
            setups.append(spent * reference.NOMINAL_S / ((before + after) / 2))
        gc.collect()
        tracer = spans.Tracer() if trace else None
        m = measure(workload, state, seconds, tracer)
    finally:
        spans.unpatch(undo)

    summary = workload.summarize(m.quality)
    total = m.total
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": total.weight / total.norm_s,
        "op_p50_ms": percentile(m.latencies, 50) * 1e3,
        "op_p90_ms": percentile(m.latencies, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_time_s": sum(o.sim for o in m.quality),
    }
    measured = {
        "ops_per_s": total.weight / total.host_s,
        "op_p50_ms": percentile(m.raw_latencies, 50) * 1e3,
        "op_p90_ms": percentile(m.raw_latencies, 90) * 1e3,
    }
    report: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "ops": total.ops,
        "failures": m.failures,
        "end_to_end": e2e,
        "measured": measured,
        "summary": summary,
        "correct": m.failed == 0,
        "attempted": total.weight,
        "failed": m.failed,
    }
    if tracer is not None:
        from . import layers

        extra = dict(summary)
        extra.update(m.resim)
        traced, untraced = m.traced, m.untraced
        extra["trace.overhead"] = 1.0 - (traced.weight / traced.norm_s) / (
            untraced.weight / untraced.norm_s
        )
        # span times are measured; scale them like the op times
        report["trace_scale"] = traced.norm_s / traced.host_s
        per_layer = layers.layer_metrics(tracer, traced.weight, extra, report["trace_scale"])
        report["per_layer"] = per_layer
        report["coverage"] = coverage_violations(name, per_layer)
        if write_spans:
            path = SPANS_DIR / f"spans-{name}-seed{seed}.json.gz"
            tracer.write(path)
            report["spans_file"] = str(path.relative_to(ROOT))
    return report


def result_line(report: dict[str, Any]) -> dict[str, Any]:
    """The result object, the last line of a run's output."""
    if "per_layer" in report:
        metrics = {
            m.name: {"value": report["per_layer"][m.name], "unit": m.unit}
            for m in design.PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": report["end_to_end"][m.name], "unit": m.unit}
            for m in design.END_TO_END
        }
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


#: workload-specific end-to-end numbers kept per layer, shown in the table
WORKLOAD_EXTRAS = {
    "train-iter": (("sim_tflops_per_gpu", "pipeline.sim_tflops_per_gpu", "TFLOPS"),),
    "service-burst": (
        ("vlat_p50_s", "service.vlat_p50_s", "sim_s"),
        ("vlat_p99_s", "service.vlat_p99_s", "sim_s"),
        ("shed_rate", "service.shed_rate", "ratio"),
    ),
}


def human_lines(report: dict[str, Any]) -> list[str]:
    """A readable table of everything the run measured."""
    name = report["workload"]
    lines = [f"# {name} seed={report['seed']} ops={report['ops']} "
             f"attempted={report['attempted']} failed={report['failed']}"]
    lines += [f"! {f}" for f in report["failures"][:10]]
    if "per_layer" in report:
        for m in design.PER_LAYER:
            lines.append(f"{name:<15} {m.name:<30} {report['per_layer'][m.name]:>14.6g} {m.unit}")
        lines.append(f"{name:<15} {'(time scale of traced ops)':<30} "
                     f"{report['trace_scale']:>14.6g} ratio")
        verdict = report["coverage"] or ["ok"]
        lines += [f"{name:<15} coverage: {v}" for v in verdict]
        if "spans_file" in report:
            lines.append(f"{name:<15} spans: {report['spans_file']}")
        return lines
    for m in design.END_TO_END:
        lines.append(f"{name:<15} {m.name:<30} {report['end_to_end'][m.name]:>14.6g} {m.unit}")
    for key, value in report["measured"].items():
        unit = next(m.unit for m in design.END_TO_END if m.name == key)
        lines.append(f"{name:<15} {key + ' (unscaled)':<30} {value:>14.6g} {unit}")
    error_rate = report["failed"] / report["attempted"]
    lines.append(f"{name:<15} {'error_rate':<30} {error_rate:>14.6g} ratio")
    for label, key, unit in WORKLOAD_EXTRAS.get(name, ()):
        lines.append(f"{name:<15} {label:<30} {report['summary'][key]:>14.6g} {unit}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=design.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=design.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=design.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        bootstrap()
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in human_lines(report):
        print(line)
    print(json.dumps(result_line(report)))
    return 0
