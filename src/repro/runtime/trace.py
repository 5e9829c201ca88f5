"""Export a telemetry bus: Chrome trace JSON, JSONL, last-run replay.

One exporter for every simulator, replacing the bespoke record
formats (pipeline timeline entries, network flow records) that used to
each have their own dump path:

* :func:`chrome_trace_events` — generic ``chrome://tracing`` /
  Perfetto "trace event" conversion: one process per track group, one
  thread per track, counters as ``C`` events, marks as instants;
* :func:`write_jsonl` / :func:`read_jsonl` — a line-per-record format
  that round-trips the full bus (spans, counters, marks);
* :func:`save_last_run` / :func:`last_run_path` — the persistence
  behind ``python -m repro trace``: CLI commands append their bus
  streams (tagged with a run label) so the last invocation can be
  replayed into a Chrome trace after the fact.

Timestamps in Chrome traces are microseconds (the format's convention);
JSONL keeps raw simulated seconds.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Iterable, Optional, Sequence, Union

from .telemetry import CounterSample, MarkRecord, SpanRecord, TelemetryBus

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace_file",
    "write_jsonl",
    "read_jsonl",
    "records_to_jsonl_dicts",
    "save_last_run",
    "last_run_path",
]

_US = 1e6

Record = Union[SpanRecord, CounterSample, MarkRecord]


def _track_ids(tracks: Sequence[str]) -> dict[str, tuple[int, int]]:
    """Stable (pid, tid) assignment: one pid per track prefix.

    Tracks follow a ``group:detail`` convention (``stage:0``,
    ``dev:3``, ``chan:0->1:fwd``); every distinct group becomes a
    process and each track a thread inside it, so related rows sit
    together in the viewer.
    """
    ids: dict[str, tuple[int, int]] = {}
    groups: dict[str, int] = {}
    next_tid: dict[int, int] = {}
    for track in tracks:
        if track in ids:
            continue
        group = track.split(":", 1)[0] if ":" in track else track
        pid = groups.setdefault(group, len(groups))
        tid = next_tid.get(pid, 0)
        next_tid[pid] = tid + 1
        ids[track] = (pid, tid)
    return ids


def chrome_trace_events(
    records: Union[TelemetryBus, Iterable[Record]],
    run: str = "",
) -> list[dict[str, object]]:
    """Convert bus records to Chrome trace events (generic layout)."""
    if isinstance(records, TelemetryBus):
        recs: list[Record] = [
            *records.spans,
            *records.counters,
            *records.marks,
        ]
    else:
        recs = list(records)
    prefix = f"{run}/" if run else ""
    tracks = [r.track for r in recs]
    ids = _track_ids([prefix + t if t else prefix.rstrip("/") or "run" for t in tracks])
    events: list[dict[str, object]] = []
    for track, (pid, tid) in ids.items():
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": track.split(":", 1)[0] if ":" in track else track}}
        )
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": track}}
        )
    for rec in recs:
        track = prefix + rec.track if rec.track else prefix.rstrip("/") or "run"
        pid, tid = ids[track]
        if isinstance(rec, SpanRecord):
            events.append(
                {
                    "name": rec.name,
                    "cat": rec.cat,
                    "ph": "X",
                    "ts": rec.start * _US,
                    "dur": max(rec.duration * _US, 0.01),
                    "pid": pid,
                    "tid": tid,
                    "args": dict(rec.attrs),
                }
            )
        elif isinstance(rec, CounterSample):
            events.append(
                {
                    "name": rec.name,
                    "ph": "C",
                    "ts": rec.time * _US,
                    "pid": pid,
                    "args": {rec.name: rec.value},
                }
            )
        else:
            events.append(
                {
                    "name": rec.name,
                    "ph": "i",
                    "s": "t",
                    "ts": rec.time * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": dict(rec.attrs),
                }
            )
    return events


def write_chrome_trace_file(events: list[dict[str, object]], path: str) -> None:
    """Write trace events as a Chrome-tracing JSON file."""
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# ----------------------------------------------------------------------
# JSONL round-trip
# ----------------------------------------------------------------------
def records_to_jsonl_dicts(
    bus: TelemetryBus, run: str = ""
) -> list[dict[str, object]]:
    """Flatten one bus into JSONL-ready dicts (emission order per kind)."""
    out: list[dict[str, object]] = []
    for s in bus.spans:
        out.append(
            {
                "type": "span",
                "run": run,
                "name": s.name,
                "cat": s.cat,
                "track": s.track,
                "start": s.start,
                "end": s.end,
                "depth": s.depth,
                "parent": s.parent,
                "attrs": dict(s.attrs),
            }
        )
    for c in bus.counters:
        out.append(
            {
                "type": "counter",
                "run": run,
                "name": c.name,
                "track": c.track,
                "time": c.time,
                "value": c.value,
            }
        )
    for m in bus.marks:
        out.append(
            {
                "type": "mark",
                "run": run,
                "name": m.name,
                "track": m.track,
                "time": m.time,
                "attrs": dict(m.attrs),
            }
        )
    return out


def write_jsonl(dicts: Iterable[dict[str, object]], path: str) -> int:
    """Write one JSON object per line; returns the number of lines."""
    n = 0
    with open(path, "w") as f:
        for d in dicts:
            f.write(json.dumps(d))
            f.write("\n")
            n += 1
    return n


def read_jsonl(path: str) -> list[dict[str, object]]:
    """Read a JSONL file back into dicts (inverse of :func:`write_jsonl`)."""
    out: list[dict[str, object]] = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                loaded = json.loads(line)
                if not isinstance(loaded, dict):
                    raise ValueError(f"expected a JSON object per line, got {line!r}")
                out.append(loaded)
    return out


def dicts_to_records(dicts: Iterable[dict[str, object]]) -> list[Record]:
    """Rebuild typed records from JSONL dicts (unknown types rejected)."""
    recs: list[Record] = []
    for d in dicts:
        kind = d.get("type")
        if kind == "span":
            recs.append(
                SpanRecord(
                    name=str(d["name"]),
                    cat=str(d["cat"]),
                    track=str(d["track"]),
                    start=float(d["start"]),  # type: ignore[arg-type]
                    end=float(d["end"]),  # type: ignore[arg-type]
                    depth=int(d.get("depth", 0)),  # type: ignore[arg-type]
                    parent=str(d.get("parent", "")),
                    attrs=d.get("attrs", {}),  # type: ignore[arg-type]
                )
            )
        elif kind == "counter":
            recs.append(
                CounterSample(
                    name=str(d["name"]),
                    track=str(d["track"]),
                    time=float(d["time"]),  # type: ignore[arg-type]
                    value=float(d["value"]),  # type: ignore[arg-type]
                )
            )
        elif kind == "mark":
            recs.append(
                MarkRecord(
                    name=str(d["name"]),
                    track=str(d["track"]),
                    time=float(d["time"]),  # type: ignore[arg-type]
                    attrs=d.get("attrs", {}),  # type: ignore[arg-type]
                )
            )
        else:
            raise ValueError(f"unknown record type {kind!r}")
    return recs


# ----------------------------------------------------------------------
# Last-run persistence (python -m repro trace)
# ----------------------------------------------------------------------
def last_run_path() -> pathlib.Path:
    """Where CLI commands persist their bus streams.

    Override the directory with ``REPRO_TRACE_DIR``; defaults to
    ``~/.cache/repro``.
    """
    root = os.environ.get("REPRO_TRACE_DIR")
    base = pathlib.Path(root) if root else pathlib.Path.home() / ".cache" / "repro"
    return base / "last_run.jsonl"


def save_last_run(
    streams: Sequence[tuple[str, TelemetryBus]],
    path: Optional[pathlib.Path] = None,
) -> Optional[pathlib.Path]:
    """Persist labelled bus streams as the replayable "last run".

    Returns the path written, or ``None`` when the directory cannot be
    created (read-only environments must not break the CLI).
    """
    target = path if path is not None else last_run_path()
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        dicts: list[dict[str, object]] = []
        for run, bus in streams:
            dicts.extend(records_to_jsonl_dicts(bus, run=run))
        write_jsonl(dicts, str(target))
    except OSError:
        return None
    return target
