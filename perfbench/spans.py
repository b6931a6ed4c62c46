"""In-memory spans for the traced benchmark run.

A span is ``(id, name, start, end, parent)``.  Spans are opened only by
the benchmark's own code, around calls into the program's public entry
points; :class:`TimedStream` adds one child span per ``chunks()`` step
of a chunk stream, which separates the producer (execution or decode)
from the consumer that drains it (encode or analysis) without any
instrumentation inside the program.

Self time of a span is its duration minus the time its direct children
cover.  Children of one span never overlap (everything here runs on one
thread), so that is a plain subtraction.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: Span names starting with this prefix are the benchmark's own work
#: (operation roots, output checks, host-speed samples); they are not a
#: layer of the program.
BENCH_PREFIX = "bench."


class SpanRecorder:
    """Collects spans in a list; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished leaf span under the currently open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.spans), name, start, end, parent])

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the duration of its direct children."""
        own = {s[0]: s[3] - s[2] for s in self.spans}
        for sid, _name, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def nested(self) -> bool:
        """True when every span lies inside its parent's interval."""
        for _sid, _name, start, end, parent in self.spans:
            if end < start:
                return False
            if parent is not None:
                p = self.spans[parent]
                if start < p[2] or end > p[3]:
                    return False
        return True

    def coverage(self) -> float:
        """Summed self time of program layers over the traced wall time.

        The wall time is the duration of the root spans minus the self
        time of the benchmark's own spans below them (output checks,
        host-speed samples, draining loops), so a value near 1 means the
        layers account for all the time the program ran.
        """
        own = self.self_times()
        wall = 0.0
        layers = 0.0
        for sid, name, start, end, parent in self.spans:
            if parent is None:
                wall += end - start
            if not name.startswith(BENCH_PREFIX):
                layers += own[sid]
            elif parent is not None:
                wall -= own[sid]
        return layers / wall if wall > 0 else 0.0

    def to_records(self) -> list[dict]:
        return [
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent}
            for sid, name, start, end, parent in self.spans
        ]


class TimedStream:
    """Chunk-stream proxy: each ``chunks()`` step becomes a child span.

    Metadata the consumer reads (``program_name``, ``count``, ...) is
    forwarded to the wrapped stream, so the proxy is a drop-in source
    for ``write_stream`` and ``StreamingDataflowEngine``.
    """

    def __init__(self, inner, recorder: SpanRecorder | None, name: str):
        self._inner = inner
        self._recorder = recorder
        self._name = name
        self.seconds = 0.0
        self.chunk_count = 0

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def chunks(self):
        clock = time.perf_counter
        it = iter(self._inner.chunks())
        while True:
            t0 = clock()
            try:
                segment = next(it)
            except StopIteration:
                t1 = clock()
                self._note(t0, t1)
                return
            t1 = clock()
            self._note(t0, t1)
            self.chunk_count += 1
            yield segment

    def _note(self, t0: float, t1: float) -> None:
        self.seconds += t1 - t0
        if self._recorder is not None:
            self._recorder.add(self._name, t0, t1)
