"""Timeline records of the pipeline executor.

:class:`TimelineEntry` and :class:`CommEntry` are *derived views*: the
executor reports through the runtime telemetry bus, and the helpers
below rebuild the records from the span stream, so a result object
holds no private timeline lists.

Span conventions (``<s>`` is the worker, which is the stage unless
tasks name a chunk):

* compute spans: ``cat="compute"``, track ``stage:<s>``, attrs
  ``stage``/``kind``/``microbatch`` (and ``chunk`` when the task names
  one);
* transfer spans: ``cat="comm"``, track ``chan:<src>-><dst>:<dir>``,
  attrs ``src_stage``/``dst_stage``/``direction``/``microbatch``/
  ``label`` (plus ``busy_stage`` when the recv occupies a stage in
  blocking mode);
* blocking-send spans: ``cat="send"``, track ``stage:<s>``, covering
  the interval the producer stage is wedged in program-order sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..runtime.telemetry import SpanRecord

__all__ = [
    "TimelineEntry",
    "CommEntry",
    "timeline_from_spans",
    "comms_from_spans",
]


@dataclass(frozen=True)
class TimelineEntry:
    """One compute interval on a stage (``chunk >= 0`` when the task names one)."""

    stage: int
    kind: str
    microbatch: int
    start: float
    end: float
    chunk: int = -1


@dataclass(frozen=True)
class CommEntry:
    """One cross-stage transfer interval."""

    src_stage: int
    dst_stage: int
    direction: str  # "fwd" | "bwd"
    microbatch: int
    label: str
    start: float
    end: float


def timeline_from_spans(spans: Iterable[SpanRecord]) -> list[TimelineEntry]:
    """Rebuild the compute timeline from ``cat="compute"`` spans."""
    out: list[TimelineEntry] = []
    for s in spans:
        if s.cat != "compute":
            continue
        a = s.attrs
        out.append(
            TimelineEntry(
                stage=int(a["stage"]),  # type: ignore[arg-type]
                kind=str(a["kind"]),
                microbatch=int(a["microbatch"]),  # type: ignore[arg-type]
                start=s.start,
                end=s.end,
                chunk=int(a.get("chunk", -1)),  # type: ignore[arg-type]
            )
        )
    return out


def comms_from_spans(spans: Iterable[SpanRecord]) -> list[CommEntry]:
    """Rebuild the transfer list from ``cat="comm"`` spans."""
    out: list[CommEntry] = []
    for s in spans:
        if s.cat != "comm":
            continue
        a = s.attrs
        out.append(
            CommEntry(
                src_stage=int(a["src_stage"]),  # type: ignore[arg-type]
                dst_stage=int(a["dst_stage"]),  # type: ignore[arg-type]
                direction=str(a["direction"]),
                microbatch=int(a["microbatch"]),  # type: ignore[arg-type]
                label=str(a["label"]),
                start=s.start,
                end=s.end,
            )
        )
    return out
