"""In-memory span recorder for the benchmark's traced run.

Every timed call the benchmark makes is a *root* span (``bench.call``).
In the traced run the public functions of each layer are additionally
wrapped where their callers bind them, so each call records a span
with its name, start, end and parent.  Nothing under ``src/`` changes:
the wrapping happens from this file and is undone when the traced
section ends.  Spans stay in memory and are written once, at the end
of the run, by ``run.py``.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

ROOT = "bench.call"

#: (module, attribute, span name).  Each module is the one whose globals
#: the caller reads the name from: ``distributed_infomap`` looks up
#: ``delegate_partition`` in ``repro.core.distributed``, not in the
#: package that exports it, so patching the export alone would miss it.
PATCH_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.graph.io", "read_edgelist", "graph.read"),
    ("repro.core.distributed", "delegate_partition", "partition.delegate"),
    ("repro.core.distributed", "build_local_graphs", "partition.views"),
    ("repro.core.distributed", "run_spmd", "simmpi.run_spmd"),
    ("repro.core.incremental", "apply_delta", "graph.delta_apply"),
    ("repro.core.incremental", "sequential_infomap", "seq.solve"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into SpanRecorder.spans; -1 for a root


class SpanRecorder:
    """Collects nested spans on the calling thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._paused = False

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if self._paused:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Let wrapped functions run unrecorded, e.g. for the checks."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Wrap every layer entry point for the duration of the block."""
        from repro.core.flow import FlowNetwork

        saved: list[tuple[Any, str, Any]] = []
        try:
            for mod_name, attr, span_name in PATCH_POINTS:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(span_name, getattr(mod, attr)))
            # A classmethod: wrap the function and rebind it on the class,
            # which every caller reaches it through.
            original = FlowNetwork.__dict__["from_graph"]
            saved.append((FlowNetwork, "from_graph", original))
            FlowNetwork.from_graph = classmethod(
                self.wrap("flow.build", original.__func__)
            )
            yield
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- reading ----------------------------------------------------------
    def duration(self, idx: int) -> float:
        s = self.spans[idx]
        return s.end - s.start

    def roots(self) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent == -1]

    def per_call(self, name: str) -> list[float]:
        return [
            self.duration(i) for i, s in enumerate(self.spans) if s.name == name
        ]

    def total(self, name: str) -> float:
        return sum(self.per_call(name))

    def top_level(self) -> list[int]:
        """Layer spans whose parent is a root: they never overlap."""
        return [
            i for i, s in enumerate(self.spans)
            if s.parent >= 0 and self.spans[s.parent].parent == -1
        ]

    def self_times(self) -> dict[str, float]:
        """Per span name, duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                child_time[s.parent] += self.duration(i)
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s.name] = out.get(s.name, 0.0) + self.duration(i) - child_time[i]
        return out

    def dump(self) -> list[dict[str, Any]]:
        return [asdict(s) for s in self.spans]
