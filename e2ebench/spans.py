"""In-memory spans recorded by the benchmark around calls into the program.

A span has a name, start, end, parent span and request id.  Spans stay
in memory until :meth:`Recorder.write_chrome` writes them as a Chrome
``trace_event`` file (open in Perfetto or ``chrome://tracing``).
:meth:`Recorder.self_times` gives each span's duration minus the part of
its interval that its children cover.

Hot inner calls (the bound ``h`` and the score increment ``g``, called
thousands of times per search) are recorded as per-request accumulators
(:meth:`Recorder.accumulate`) instead of one span per call.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request_id: str | None = None
        #: request id -> name -> [seconds, calls]
        self.totals: dict[str, dict[str, list]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0])
        )
        self._epoch = time.perf_counter()

    @contextmanager
    def span(self, name: str, **args):
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter() - self._epoch,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request_id,
            "args": args,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._epoch
            self._stack.pop()

    @contextmanager
    def request(self, request_id: str, name: str = "request", **args):
        previous, self.request_id = self.request_id, request_id
        try:
            with self.span(name, **args) as record:
                yield record
        finally:
            self.request_id = previous

    def accumulate(self, name: str, seconds: float) -> None:
        cell = self.totals[self.request_id][name]
        cell[0] += seconds
        cell[1] += 1

    def wrap_method(self, owner, attribute: str, name: str):
        """Patch ``owner.attribute`` to accumulate its time under ``name``.

        Returns an undo callable.
        """
        original = getattr(owner, attribute)
        recorder = self
        clock = time.perf_counter

        @functools.wraps(original)
        def timed(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                recorder.accumulate(name, clock() - started)

        setattr(owner, attribute, timed)
        return lambda: setattr(owner, attribute, original)

    def wrap_span(self, owner, attribute: str, name: str):
        """Patch ``owner.attribute`` to run inside a span called ``name``.

        Returns an undo callable.
        """
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with recorder.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, spanned)
        return lambda: setattr(owner, attribute, original)

    # -- analysis ---------------------------------------------------------
    def durations(self, name: str) -> dict[str, float]:
        """Request id -> summed duration of spans called ``name``."""
        found: dict[str, float] = defaultdict(float)
        for record in self.spans:
            if record["name"] == name and record["end"] is not None:
                found[record["request"]] += record["end"] - record["start"]
        return dict(found)

    def self_times(self) -> list[float]:
        """Per-span self time (duration minus the union of child intervals)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for record in self.spans:
            if record["parent"] is not None and record["end"] is not None:
                children[record["parent"]].append((record["start"], record["end"]))
        result = []
        for index, record in enumerate(self.spans):
            covered, reach = 0.0, record["start"]
            for start, end in sorted(children.get(index, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            result.append((record["end"] or record["start"]) - record["start"] - covered)
        return result

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for record, own in zip(self.spans, self.self_times()):
            totals[record["name"]] += own
        return dict(totals)

    def write_chrome(self, path: Path) -> None:
        events = []
        for index, (record, own) in enumerate(zip(self.spans, self.self_times())):
            if record["end"] is None:
                continue
            events.append(
                {
                    "name": record["name"],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": round(record["start"] * 1e6, 3),
                    "dur": round((record["end"] - record["start"]) * 1e6, 3),
                    "args": {
                        **{k: str(v) for k, v in record["args"].items()},
                        "span": index,
                        "parent": record["parent"],
                        "request": record["request"],
                        "self_us": round(own * 1e6, 3),
                    },
                }
            )
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
