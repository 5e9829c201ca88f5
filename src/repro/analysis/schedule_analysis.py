"""Static analysis of pipeline schedules: memory bounds and structure.

The executor measures peak in-flight activations by running a schedule
(:func:`repro.pipeline.memory.memory_report`); this module *bounds* them
without running anything, directly from the per-stage task orders, and
flags schedules that cannot fit a stage's memory capacity (``S001``) or
are structurally malformed (``S002``).  Deadlock detection over the same
orders (``D002``) is delegated to
:func:`repro.analysis.deadlock.check_stage_orders_deadlock`.

For the named schedules the static peak equals the analytic warm-up
depth of :func:`repro.pipeline.memory.analytic_peak_inflight` — pinned
by a test — so the analyzer and the §4/Table-1 analysis can never drift
apart.
"""

from __future__ import annotations

from typing import Optional

from ..pipeline.schedules import Task, schedule_job
from ..pipeline.stage import PipelineJob, StageProfile
from .deadlock import check_stage_orders_deadlock
from .diagnostics import AnalysisReport

__all__ = [
    "static_peak_inflight",
    "check_stage_orders",
    "analyze_pipeline_schedule",
]


def static_peak_inflight(order: list[Task]) -> int:
    """Peak concurrently-stored activations implied by one stage's order.

    An activation is stored when its forward runs and freed when its
    activation-gradient backward (``Bx``, or fused ``B``) runs; ``Bw``
    reads weight-gradient state, not the stored activation.
    """
    live = 0
    peak = 0
    for t in order:
        if t.kind == "F":
            live += 1
            peak = max(peak, live)
        elif t.kind in ("B", "Bx"):
            live -= 1
    return peak


def _check_structure(
    stage_id: int, order: list[Task], n_microbatches: int, report: AnalysisReport
) -> None:
    fwd_pos: dict[int, int] = {}
    bwd_pos: dict[int, int] = {}
    bx_pos: dict[int, int] = {}
    bw_pos: dict[int, int] = {}
    for pos, t in enumerate(order):
        table = {"F": fwd_pos, "B": bwd_pos, "Bx": bx_pos, "Bw": bw_pos}.get(t.kind)
        if table is None:
            report.add(
                "S002",
                f"stage {stage_id}: unknown task kind {t.kind!r} at position {pos}",
                task_ids=(stage_id,),
            )
            continue
        if t.microbatch in table:
            report.add(
                "S002",
                f"stage {stage_id}: duplicate {t.kind}{t.microbatch}",
                task_ids=(stage_id,),
            )
        table[t.microbatch] = pos

    want = set(range(n_microbatches))
    if set(fwd_pos) != want:
        report.add(
            "S002",
            f"stage {stage_id}: forwards cover micro-batches "
            f"{sorted(fwd_pos)}, expected {sorted(want)}",
            task_ids=(stage_id,),
        )
    grads = dict(bwd_pos)
    grads.update(bx_pos)
    if set(grads) != want:
        report.add(
            "S002",
            f"stage {stage_id}: backwards cover micro-batches "
            f"{sorted(grads)}, expected {sorted(want)}",
            task_ids=(stage_id,),
        )
    if bx_pos and set(bw_pos) != set(bx_pos):
        report.add(
            "S002",
            f"stage {stage_id}: Bx/Bw split is unbalanced "
            f"(Bx for {sorted(bx_pos)}, Bw for {sorted(bw_pos)})",
            task_ids=(stage_id,),
        )
    for mb, pos in sorted(grads.items()):
        if mb in fwd_pos and pos < fwd_pos[mb]:
            report.add(
                "S002",
                f"stage {stage_id}: backward of micro-batch {mb} precedes "
                "its forward",
                task_ids=(stage_id,),
            )
    for mb, pos in sorted(bw_pos.items()):
        if mb in bx_pos and pos < bx_pos[mb]:
            report.add(
                "S002",
                f"stage {stage_id}: Bw{mb} precedes Bx{mb}",
                task_ids=(stage_id,),
            )


def _check_memory(
    stage: StageProfile, order: list[Task], report: AnalysisReport
) -> None:
    if stage.memory_capacity <= 0:
        return
    peak = static_peak_inflight(order)
    need = stage.params_bytes + peak * stage.activation_bytes
    if need > stage.memory_capacity:
        report.add(
            "S001",
            f"stage {stage.stage_id}: {peak} in-flight activation(s) need "
            f"{need:.0f} bytes ({stage.params_bytes:.0f} params + "
            f"{peak} x {stage.activation_bytes:.0f}), over the "
            f"{stage.memory_capacity:.0f}-byte capacity",
            task_ids=(stage.stage_id,),
        )


def check_stage_orders(
    orders: list[list[Task]],
    n_microbatches: int,
    job: Optional[PipelineJob] = None,
) -> AnalysisReport:
    """Analyze explicit per-worker task orders: S001/S002 plus D002.

    ``orders[w]`` is worker ``w``'s list; a task belongs to stage
    ``task.chunk``, or stage ``w`` when it names no chunk, as in
    :func:`~repro.pipeline.executor.simulate_pipeline`.  S001/S002 are
    checked per stage, over that stage's tasks in worker order.
    """
    report = AnalysisReport(subject="pipeline-schedule")
    per_stage: dict[int, list[Task]] = {}
    for w, order in enumerate(orders):
        if not order:
            per_stage.setdefault(w, [])
        for t in order:
            per_stage.setdefault(w if t.chunk is None else t.chunk, []).append(t)
    for s in sorted(per_stage):
        _check_structure(s, per_stage[s], n_microbatches, report)
        if job is not None and s < len(job.stages):
            _check_memory(job.stages[s], per_stage[s], report)
    report.extend(check_stage_orders_deadlock(orders, job))
    return report


def analyze_pipeline_schedule(
    schedule: str,
    n_stages: int,
    n_microbatches: int,
    job: Optional[PipelineJob] = None,
    delay_bw_weight: bool = False,
    delay_slots: int = 1,
) -> AnalysisReport:
    """Analyze a named schedule (gpipe / 1f1b / eager_1f1b) statically."""
    orders = schedule_job(
        schedule,
        n_stages,
        n_microbatches,
        delay_bw_weight=delay_bw_weight,
        delay_slots=delay_slots,
    )
    report = check_stage_orders(orders, n_microbatches, job)
    report.subject = f"pipeline-schedule[{schedule}]"
    return report
