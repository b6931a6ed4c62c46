"""The realistic finite-table reuse engine (section 4.6).

``FiniteReuseSimulator`` walks a captured dynamic instruction stream
maintaining the architectural values of every location touched so
far.  At every fetch it performs the RTM reuse test; on a hit the
trace's instructions are *skipped* (counted as reused, invisible to
the collector and the instruction reuse buffer — they are never
fetched) and the architectural state advances over them.  On a miss
the instruction executes normally and feeds the trace collector.

Because trace collection recorded every live-in of a stored trace,
matching live-in values guarantee — by the paper's Theorem 1
machinery — that the dynamic path following the fetch *is* the stored
trace; ``validate=True`` asserts this invariant against the actual
stream, which doubles as an end-to-end soundness check of the whole
pipeline.

The walk goes segment by segment over ``DynInst`` rows (a materialized
trace is one segment, a chunk stream one per chunk), so memory stays
bounded by the longest stored trace plus one segment.  Every run
reports an ``rtm.simulate`` timer and ``rtm.instructions``,
``rtm.lookups`` and ``rtm.hits`` counters to :mod:`repro.obs`.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro import obs
from repro.baselines.ilr import InstructionReuseBuffer
from repro.core.rtm.collector import (
    FixedLengthHeuristic,
    Heuristic,
    ILRHeuristic,
    TraceCollector,
)
from repro.core.rtm.invalidating import InvalidatingRTM
from repro.core.rtm.memory import ReuseTraceMemory, RTMConfig
from repro.core.traces import TraceLimits
from repro.vm.trace import AnyTrace, DynInst
from repro.vm.tracestream import row_segments


def _extend_window(tail, need: int, segments) -> list[DynInst]:
    """``tail`` followed by further segments until it holds ``need``
    rows or the stream ends (then it holds fewer)."""
    window = list(tail)
    while len(window) < need:
        more = next(segments, None)
        if more is None:
            break
        window.extend(more)
    return window


@dataclass(slots=True)
class FiniteReuseResult:
    """Outcome of a finite-table reuse simulation (Figure 9 metrics)."""

    heuristic_name: str
    rtm_name: str
    total_instructions: int
    reused_instructions: int
    reuse_events: int
    #: (start, stop) stream ranges that were skipped via reuse
    reused_ranges: list[tuple[int, int]] = field(default_factory=list)
    #: the RTM entry used for each reuse event (aligned with ranges)
    reused_entries: list = field(default_factory=list)
    rtm_insertions: int = 0
    rtm_occupancy: int = 0
    rtm_invalidations: int = 0
    collector_limit_terminations: int = 0

    @property
    def percent_reused(self) -> float:
        """Percentage of dynamic instructions skipped via reuse."""
        if self.total_instructions == 0:
            return 0.0
        return 100.0 * self.reused_instructions / self.total_instructions

    @property
    def avg_reused_trace_size(self) -> float:
        """Average size in instructions of reused traces."""
        if self.reuse_events == 0:
            return 0.0
        return self.reused_instructions / self.reuse_events


class TraceMismatchError(AssertionError):
    """A reused RTM entry disagreed with the actual dynamic stream.

    This can only happen if trace collection failed to record a
    live-in, so it indicates a bug rather than a workload property.
    """


class _FreshInsertGate:
    """Collector-facing insert wrapper for the valid-bit scheme.

    The valid-bit lookup performs no value comparison, so entries may
    only be stored while their recorded input values still hold (the
    trace's own internal writes may already have clobbered them —
    hardware would have cleared the valid bit).  The gate shares the
    simulator's live ``current`` mapping and drops stale inserts.
    """

    def __init__(self, rtm, current: dict):
        self._rtm = rtm
        self._current = current

    def insert(self, entry) -> None:
        if entry.matches(self._current):
            self._rtm.insert(entry)


class FiniteReuseSimulator:
    """Drives the RTM + collector over a dynamic instruction stream.

    ``reuse_test`` selects between the paper's two section-3.3
    schemes: ``"compare"`` (read and compare every input value at
    lookup) and ``"invalidate"`` (a valid bit cleared by any write to
    an input location — simpler but conservative).
    """

    def __init__(
        self,
        rtm_config: RTMConfig,
        heuristic: Heuristic,
        *,
        limits: TraceLimits = TraceLimits(),
        validate: bool = True,
        reuse_test: str = "compare",
    ):
        if reuse_test not in ("compare", "invalidate"):
            raise ValueError(f"unknown reuse test {reuse_test!r}")
        self.rtm_config = rtm_config
        self.heuristic = heuristic
        self.limits = limits
        self.validate = validate
        self.reuse_test = reuse_test

    def run(self, trace: AnyTrace | Sequence[DynInst]) -> FiniteReuseResult:
        """Simulate the engine over one captured stream.

        ``trace`` may be a materialized trace *or* a chunk stream
        (:mod:`repro.vm.tracestream`).  Either way the walk is one
        forward pass over row segments (a materialized trace is a
        single segment) with a position into the current one.  A
        reuse hit that runs past the segment's end carries the
        segment's unwalked tail into a window with the following
        segments, so lookahead never exceeds the longest stored trace
        plus one segment and streams larger than memory simulate fine.
        """
        t0 = time.perf_counter()
        if self.reuse_test == "invalidate":
            rtm = InvalidatingRTM(self.rtm_config)
        else:
            rtm = ReuseTraceMemory(self.rtm_config)
        ilr_buffer: InstructionReuseBuffer | None = None
        if isinstance(self.heuristic, ILRHeuristic):
            # "this memory has as many entries as the RTM" (section 4.6)
            ilr_buffer = InstructionReuseBuffer(
                total_entries=self.rtm_config.total_entries,
                associativity=self.rtm_config.ways * self.rtm_config.traces_per_pc,
            )
        current: dict[int, int | float] = {}
        invalidating = rtm.needs_write_events
        collector_rtm = _FreshInsertGate(rtm, current) if invalidating else rtm
        collector = TraceCollector(
            self.heuristic,
            collector_rtm,
            limits=self.limits,
            ilr_buffer=ilr_buffer,
        )

        reused_ranges: list[tuple[int, int]] = []
        reused_entries: list = []
        reused_instructions = 0
        lookup = rtm.lookup
        on_fetch = collector.fetch_handler()
        on_reuse = collector.on_reuse
        on_write = rtm.on_write if invalidating else None
        validate = self.validate
        update = current.update
        segments = row_segments(trace)
        rows: Sequence[DynInst] = ()
        n_rows = 0
        pos = 0  # position of the fetch point in ``rows``
        i = 0  # stream index of the fetch point
        while True:
            if pos == n_rows:
                # drop the walked rows before the next segment is built
                rows = ()
                rows = next(segments, None)
                if rows is None:
                    break
                n_rows = len(rows)
                pos = 0
                continue
            inst = rows[pos]
            entry = lookup(inst.pc, current)
            if entry is not None:
                end = pos + entry.length
                if end > n_rows:
                    tail = rows[pos:]
                    rows = ()
                    rows = _extend_window(tail, entry.length, segments)
                    n_rows = len(rows)
                    pos = 0
                    end = entry.length
                # a stream that ends before the entry does cannot reuse it
                if end <= n_rows:
                    window = rows[pos:end]
                    stop = i + entry.length
                    if validate:
                        self._check_entry(window, i, stop, entry)
                    on_reuse(i, entry, window)
                    for skipped in window:
                        update(skipped.reads)
                        update(skipped.writes)
                        if on_write is not None:
                            for loc, _val in skipped.writes:
                                on_write(loc)
                    reused_ranges.append((i, stop))
                    reused_entries.append(entry)
                    reused_instructions += entry.length
                    i = stop
                    pos = end
                    continue
            on_fetch(i, inst)
            update(inst.reads)
            update(inst.writes)
            if on_write is not None:
                for loc, _val in inst.writes:
                    on_write(loc)
            i += 1
            pos += 1
        n = i
        collector.flush(n)

        telemetry = obs.current()
        telemetry.add_time("rtm.simulate", time.perf_counter() - t0)
        telemetry.incr("rtm.instructions", n)
        telemetry.incr("rtm.lookups", rtm.lookups)
        telemetry.incr("rtm.hits", rtm.hits)
        return FiniteReuseResult(
            heuristic_name=self.heuristic.name,
            rtm_name=self.rtm_config.name,
            total_instructions=n,
            reused_instructions=reused_instructions,
            reuse_events=len(reused_ranges),
            reused_ranges=reused_ranges,
            reused_entries=reused_entries,
            rtm_insertions=rtm.insertions,
            rtm_occupancy=rtm.occupancy,
            rtm_invalidations=getattr(rtm, "invalidations", 0),
            collector_limit_terminations=collector.limit_terminations,
        )

    @staticmethod
    def _check_entry(
        window: Sequence[DynInst], start: int, stop: int, entry
    ) -> None:
        """Assert the stored trace matches the actual dynamic path.

        ``window`` holds ``stream[start:stop]``; the indices are for
        error messages only.
        """
        if window[0].pc != entry.start_pc:
            raise TraceMismatchError(
                f"entry start pc {entry.start_pc} != stream pc {window[0].pc}"
            )
        if window[-1].next_pc != entry.next_pc:
            raise TraceMismatchError(
                f"entry next pc {entry.next_pc} != actual "
                f"{window[-1].next_pc} at index {stop - 1}"
            )
        outputs = dict(entry.outputs)
        actual: dict[int, int | float] = {}
        for skipped in window:
            for loc, val in skipped.writes:
                if loc in outputs:
                    actual[loc] = val
        if actual != outputs:
            raise TraceMismatchError(
                f"entry outputs diverge from the stream at [{start}, {stop})"
            )
