"""Synchronous pipeline schedules: GPipe, 1F1B, and eager-1F1B (§4).

A schedule is, per stage, an ordered list of compute tasks the stage
executes strictly in sequence.  Task kinds:

* ``F``  — forward of one micro-batch;
* ``B``  — full backward (``Bx`` + ``Bw`` fused);
* ``Bx`` — backward w.r.t. activations (produces the gradient that
  crosses meshes);
* ``Bw`` — backward w.r.t. weights (delayable, §4's *backward weight
  delaying*).

1F1B runs ``#stages - i`` warm-up forwards at (0-indexed) stage ``i``;
eager-1F1B runs ``2 * (#stages - i - 1) + 1``, shifting forwards earlier
to open gaps into which cross-mesh communication can be overlapped.
Both reduce to the same steady one-forward-one-backward pattern and have
identical latency when communication is free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

__all__ = [
    "Task",
    "TaskKind",
    "gpipe_order",
    "one_f_one_b_order",
    "eager_warmup",
    "fifo_warmup",
    "stage_order",
    "schedule_job",
    "split_backward",
    "SCHEDULE_NAMES",
]

TaskKind = Literal["F", "B", "Bx", "Bw"]

SCHEDULE_NAMES = ("gpipe", "1f1b", "eager_1f1b")


@dataclass(frozen=True)
class Task:
    """One compute task in a stage's ordered list; ``chunk`` names the job
    stage it computes when one worker runs several (interleaved 1F1B)."""

    kind: str
    microbatch: int
    chunk: Optional[int] = None

    def __repr__(self) -> str:
        if self.chunk is None:
            return f"{self.kind}{self.microbatch}"
        return f"{self.kind}{self.microbatch}c{self.chunk}"


def fifo_warmup(stage: int, n_stages: int) -> int:
    """1F1B warm-up depth at ``stage`` (paper: ``#stages - i + 1``,
    1-indexed; equivalently ``#stages - i`` 0-indexed)."""
    if not 0 <= stage < n_stages:
        raise ValueError(f"stage {stage} outside [0, {n_stages})")
    return n_stages - stage


def eager_warmup(stage: int, n_stages: int) -> int:
    """Eager-1F1B warm-up depth: ``2 * (#stages - i) + 1`` 1-indexed,
    i.e. ``2 * (n_stages - stage - 1) + 1`` 0-indexed."""
    if not 0 <= stage < n_stages:
        raise ValueError(f"stage {stage} outside [0, {n_stages})")
    return 2 * (n_stages - stage - 1) + 1


def gpipe_order(n_microbatches: int) -> list[Task]:
    """All forwards, then all backwards (every stage the same)."""
    fwd = [Task("F", i) for i in range(n_microbatches)]
    bwd = [Task("B", i) for i in range(n_microbatches)]
    return fwd + bwd


def one_f_one_b_order(n_microbatches: int, warmup: int) -> list[Task]:
    """Warm-up forwards, then alternate backward/forward, then drain."""
    if warmup < 1:
        raise ValueError("warmup must be >= 1")
    w = min(warmup, n_microbatches)
    seq = [Task("F", i) for i in range(w)]
    nf, nb = w, 0
    while nb < n_microbatches:
        seq.append(Task("B", nb))
        nb += 1
        if nf < n_microbatches:
            seq.append(Task("F", nf))
            nf += 1
    return seq


def stage_order(
    schedule: str, stage: int, n_stages: int, n_microbatches: int
) -> list[Task]:
    """The ordered task list of one stage under a named schedule."""
    if schedule == "gpipe":
        return gpipe_order(n_microbatches)
    if schedule == "1f1b":
        return one_f_one_b_order(n_microbatches, fifo_warmup(stage, n_stages))
    if schedule == "eager_1f1b":
        return one_f_one_b_order(n_microbatches, eager_warmup(stage, n_stages))
    raise ValueError(f"unknown schedule {schedule!r}; options: {SCHEDULE_NAMES}")


def split_backward(order: list[Task], delay_slots: int = 1) -> list[Task]:
    """Split each ``B`` into ``Bx`` + ``Bw`` and delay ``Bw``.

    ``Bw`` is pushed ``delay_slots`` compute tasks later than its
    natural position (bounded by the end of the list), so the cross-mesh
    gradient communication triggered by ``Bx`` overlaps the weight-
    gradient computation — §4's backward weight delaying.  With
    ``delay_slots=0`` the split is positional only (``Bx`` directly
    followed by ``Bw``), which is behaviourally identical to fused ``B``.
    """
    if delay_slots < 0:
        raise ValueError("delay_slots must be >= 0")
    out: list[Task] = []
    pending: list[tuple[int, Task]] = []  # (remaining slots, Bw task)

    def advance() -> None:
        """One original task was emitted; age pending Bw tasks."""
        nonlocal pending
        pending = [(left - 1, t) for left, t in pending]
        while pending and pending[0][0] <= 0:
            out.append(pending.pop(0)[1])

    for t in order:
        if t.kind == "B":
            out.append(Task("Bx", t.microbatch))
            advance()
            pending.append((delay_slots, Task("Bw", t.microbatch)))
        else:
            out.append(t)
            advance()
    out.extend(t for _, t in pending)
    return out


def schedule_job(
    schedule: str,
    n_stages: int,
    n_microbatches: int,
    delay_bw_weight: bool = False,
    delay_slots: int = 1,
) -> list[list[Task]]:
    """Per-stage ordered task lists for the whole job."""
    orders = [
        stage_order(schedule, s, n_stages, n_microbatches) for s in range(n_stages)
    ]
    if delay_bw_weight:
        orders = [split_backward(o, delay_slots) for o in orders]
    return orders
