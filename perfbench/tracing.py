"""Spans around the benchmark's calls into the simulator's layers.

Every timed call a workload makes goes through :meth:`Recorder.span`.
Untraced runs use a recorder that only counts the calls (each one is an
*operation* for ``error_rate``); traced runs also keep a span per call
- name, start, end, parent, run id - plus the kernel-cost cache
counters read at the span's boundaries.  Spans stay in memory until the
run ends; :func:`chrome_trace` turns them into Chrome-trace JSON that
Perfetto (ui.perfetto.dev) opens.

A span's name is ``<layer>.<call>`` (``fleet.simulate``); the per-layer
time metric ``fleet.simulate_s`` is the summed *self* time of those
spans - duration minus the time covered by their child spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator


class Recorder:
    """Counts operations; with ``traced`` it also records spans."""

    def __init__(
        self,
        run_id: str,
        *,
        traced: bool,
        counters: Callable[[], dict[str, int]] | None = None,
    ):
        self.run_id = run_id
        self.traced = traced
        self.operations = 0
        self.spans: list[dict] = []
        self._counters = counters if traced else None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, *, operation: bool = True) -> Iterator[None]:
        """Time one call into a layer (a no-op beyond counting when untraced).

        ``operation=False`` marks a grouping span that is not itself a
        call into a layer, so it does not count towards ``attempted``.
        """
        self.operations += operation
        if not self.traced:
            yield
            return
        index = len(self.spans)
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(index)
        before = self._counters() if self._counters else {}
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if self._counters:
                after = self._counters()
                record["counters"] = {
                    key: after[key] - before.get(key, 0) for key in after
                }


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus its children's (spans nest, one thread)."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            own[parent] -= span["end"] - span["start"]
    return own


def layer_self_seconds(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name, as ``<name>_s`` metric keys."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        key = span["name"] + "_s"
        totals[key] = totals.get(key, 0.0) + own
    return totals


def chrome_trace(runs: list[tuple[str, list[dict]]]) -> dict:
    """Chrome-trace JSON: one process lane per traced iteration."""
    events: list[dict] = []
    for pid, (label, spans) in enumerate(runs, start=1):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
        if not spans:
            continue
        origin = spans[0]["start"]
        for span, own in zip(spans, self_times(spans)):
            args = {"run_id": span["run_id"], "self_us": own * 1e6}
            if span["parent"] is not None:
                args["parent"] = spans[span["parent"]]["name"]
            args.update(span.get("counters", {}))
            events.append({
                "name": span["name"],
                "cat": span["name"].split(".", 1)[0],
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
