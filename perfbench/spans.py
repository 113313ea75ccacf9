"""In-memory span recording and the self-time arithmetic of the traced run.

A span is one call across a layer boundary: ``(span_id, trace_id, parent_id,
name, start, end, attrs)``.  Spans are appended to a list in memory and only
written out when the benchmark ends.  Ids embed the process id, so spans from
forked pool workers link to the parent-process span that was open when the
worker forked; each worker appends its spans (one pickled batch per flush) to
``spans-<pid>.pickle`` in the spool directory whenever its outermost span
closes, and the parent merges those files with :meth:`Recorder.collect`.

Times come from :func:`time.perf_counter`, which on Linux is the system-wide
monotonic clock, so intervals from different processes are comparable.
"""

from __future__ import annotations

import os
import pickle
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(span_id, trace_id, parent_id, name, start, end, attrs)``
Span = Tuple[int, int, Optional[int], str, float, float, Optional[dict]]

_ID_STRIDE = 1 << 32


def span_pid(span_id: int) -> int:
    """The process that recorded a span."""
    return span_id // _ID_STRIDE


class Recorder:
    """Collects spans for the current process and its forked workers."""

    def __init__(self, spool_dir: Optional[Path] = None) -> None:
        self.spool_dir = None if spool_dir is None else Path(spool_dir)
        self.spans: List[Span] = []
        # Open spans of this process, innermost last: (span_id, trace_id).
        self.stack: List[Tuple[int, int]] = []
        self.pid = os.getpid()
        self._next = 0
        self._inherited_depth = 0

    # -- ids and forks ---------------------------------------------------------
    def new_id(self) -> int:
        if os.getpid() != self.pid:
            self._forked()
        self._next += 1
        return self.pid * _ID_STRIDE + self._next

    def _forked(self) -> None:
        """First call in a forked child: drop the parent's spans, keep its stack.

        The inherited stack makes the child's outermost spans children of the
        parent span that was open at fork time.
        """
        self.pid = os.getpid()
        self.spans = []
        self._next = 0
        self._inherited_depth = len(self.stack)

    @property
    def in_worker(self) -> bool:
        return self._inherited_depth > 0

    # -- recording -------------------------------------------------------------
    def open(self) -> Tuple[int, int, Optional[int]]:
        """Push a new span; returns ``(span_id, trace_id, parent_id)``."""
        span_id = self.new_id()
        if self.stack:
            parent_id, trace_id = self.stack[-1]
        else:
            parent_id, trace_id = None, span_id
        self.stack.append((span_id, trace_id))
        return span_id, trace_id, parent_id

    def close(
        self,
        opened: Tuple[int, int, Optional[int]],
        name: str,
        start: float,
        end: float,
        attrs: Optional[dict] = None,
    ) -> None:
        self.stack.pop()
        span_id, trace_id, parent_id = opened
        self.spans.append((span_id, trace_id, parent_id, name, start, end, attrs))
        if self.in_worker and len(self.stack) == self._inherited_depth:
            self.flush()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (a root span starts a trace)."""
        opened = self.open()
        start = perf_counter()
        try:
            yield
        finally:
            self.close(opened, name, start, perf_counter())

    # -- persistence -------------------------------------------------------------
    def flush(self) -> None:
        """Append this process's spans to its spool file and forget them."""
        if self.spool_dir is None or not self.spans:
            return
        path = self.spool_dir / f"spans-{os.getpid()}.pickle"
        with path.open("ab") as stream:
            pickle.dump(self.spans, stream, protocol=pickle.HIGHEST_PROTOCOL)
        self.spans = []

    def collect(self) -> List[Span]:
        """This process's spans plus every worker's spool file, merged."""
        merged = list(self.spans)
        if self.spool_dir is not None:
            for path in sorted(self.spool_dir.glob("spans-*.pickle")):
                with path.open("rb") as stream:
                    while stream.peek(1):
                        merged.extend(pickle.load(stream))
        return merged


def covered_length(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(low, start), min(high, end)) for low, high in intervals if high > start and low < end
    )
    total = 0.0
    current_low = current_high = None
    for low, high in clipped:
        if current_high is None or low > current_high:
            if current_high is not None:
                total += current_high - current_low
            current_low, current_high = low, high
        elif high > current_high:
            current_high = high
    if current_high is not None:
        total += current_high - current_low
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    Children may run concurrently (pool workers), so the covered part is the
    length of the union of their intervals, clipped to the parent's.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, parent_id, _, start, end, _ in spans:
        if parent_id is not None:
            children[parent_id].append((start, end))
    result = {}
    for span_id, _, _, _, start, end, _ in spans:
        covered = covered_length(children.get(span_id, ()), start, end)
        result[span_id] = (end - start) - covered
    return result
