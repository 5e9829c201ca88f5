"""Span recorder that times the program's layers from outside.

:class:`Tracer` wraps public functions and methods of ``repro.*`` by
rebinding them: every module-level name (and module-level dict value,
such as ``repro.scheduling.SCHEDULERS``) bound to the original function
is pointed at a timing wrapper, and methods are replaced on their class.
Nothing under ``src/`` is instrumented.  :meth:`Tracer.uninstall`
restores every binding, so traced and untraced blocks can alternate in
one process.

Each wrapped call records one span ``(name, start, end, parent, op)``
in memory; :meth:`Tracer.write` saves them when the run ends.  A span's
self time is its duration minus the durations of its direct children.
Counters (events, lookups, bytes) are kept beside the spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import pathlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

Hook = Callable[["Tracer", tuple, dict, Any], None]

SPAN_FIELDS = ("name", "start", "end", "parent", "op")


def _rebind_everywhere(orig: Any, new: Any, undo: list) -> int:
    """Point every ``repro.*`` module binding of ``orig`` at ``new``."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if value is orig:
                namespace[key] = new
                undo.append((namespace, key, orig))
                n += 1
            elif type(value) is dict:
                for dkey, dvalue in list(value.items()):
                    if dvalue is orig:
                        value[dkey] = new
                        undo.append((value, dkey, orig))
                        n += 1
    return n


def resolve(path: str) -> tuple[Any, str]:
    """``"pkg.mod.attr"`` or ``"pkg.mod.Class.method"`` -> (owner, attr)."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        return owner, parts[-1]
    raise ValueError(f"cannot resolve {path!r}")


def patch(path: str, make: Callable[[Callable], Callable], undo: list) -> None:
    """Replace the function or method at ``path`` by ``make(original)``."""
    owner, attr = resolve(path)
    if isinstance(owner, type):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        undo.append((owner, attr, raw))
        return
    orig = getattr(owner, attr)
    if _rebind_everywhere(orig, make(orig), undo) == 0:
        raise ValueError(f"{path} is bound nowhere under repro.*")


def unpatch(undo: list) -> None:
    """Restore every binding recorded in ``undo`` (newest first)."""
    while undo:
        owner, key, orig = undo.pop()
        if isinstance(owner, dict):
            owner[key] = orig
        else:
            setattr(owner, key, orig)


class Tracer:
    """Records spans and counters around the layers' public entry points."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        #: the plan the last PlanCache hit returned (set by a lookup counter)
        self.last_hit: Any = None
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------
    def span(self, name: str, on_exit: Optional[Hook] = None) -> Callable:
        """A wrapper factory recording one span per call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def make(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[sid] = (name, start, end, parent, self.op)
                if on_exit is not None:
                    on_exit(self, args, kwargs, result)
                return result

            traced.__wrapped__ = fn  # type: ignore[attr-defined]
            traced.__name__ = getattr(fn, "__name__", name)
            return traced

        return make

    def install(self, targets: list[tuple[str, Callable]]) -> None:
        """Patch every ``(path, wrapper factory)``; undone by uninstall."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        try:
            for path, make in targets:
                patch(path, make, self._undo)
        except BaseException:
            unpatch(self._undo)
            raise

    def uninstall(self) -> None:
        unpatch(self._undo)

    # -- derived numbers --------------------------------------------------
    def summary(self) -> dict[str, tuple[float, int, int]]:
        """Per span name: (self seconds, calls, calls not nested in itself)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s is not None and s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        outer: dict[str, int] = defaultdict(int)
        for i, s in enumerate(spans):
            if s is None:
                continue
            name = s[0]
            self_s[name] += (s[2] - s[1]) - child_time[i]
            calls[name] += 1
            parent = spans[s[3]] if s[3] >= 0 else None
            if parent is None or parent[0] != name:
                outer[name] += 1
        return {name: (self_s[name], calls[name], outer[name]) for name in calls}

    def write(self, path: pathlib.Path) -> None:
        """Save every span (gzip JSON: field names + rows)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [list(s) for s in self.spans if s is not None]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "counters": dict(self.counters),
                       "spans": rows}, fh)
