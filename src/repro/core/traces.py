"""The trace model: liveness, spans and the Theorem 1 construction.

A *trace* is any dynamic sequence of instructions (section 3).  From
the reuse perspective a trace is identified by:

- **input**: the starting PC plus the sequence of live-in locations
  (read before written inside the trace) and their values;
- **output**: the locations the trace writes with their final values,
  plus the next PC.

Theorem 1 proves that a reusable trace consists solely of reusable
instructions, so partitioning the stream into *maximal runs of
instruction-level-reusable instructions* yields an upper bound on
trace-level reusability with the minimum number of traces — the
construction used throughout section 4.4/4.5 and implemented by
:func:`maximal_reusable_spans`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.isa.registers import loc_is_mem
from repro.vm.trace import AnyTrace, ColumnarTrace, DynInst, stream_of


@dataclass(frozen=True, slots=True)
class TraceLimits:
    """Implementation bounds on a trace's live-in/live-out sets.

    Section 4.6: *"For each trace, the number of inputs and outputs
    have been limited to 8 registers and 4 memory values."*
    """

    max_reg_inputs: int = 8
    max_mem_inputs: int = 4
    max_reg_outputs: int = 8
    max_mem_outputs: int = 4

    def admits(self, reg_in: int, mem_in: int, reg_out: int, mem_out: int) -> bool:
        """True when the given live-set sizes fit within the limits."""
        return (
            reg_in <= self.max_reg_inputs
            and mem_in <= self.max_mem_inputs
            and reg_out <= self.max_reg_outputs
            and mem_out <= self.max_mem_outputs
        )


#: Unbounded limits, for the limit-study scenarios of sections 4.4/4.5.
UNLIMITED = TraceLimits(
    max_reg_inputs=1 << 30,
    max_mem_inputs=1 << 30,
    max_reg_outputs=1 << 30,
    max_mem_outputs=1 << 30,
)


def compute_liveness(
    instructions: Sequence[DynInst],
) -> tuple[tuple[tuple[int, int | float], ...], tuple[tuple[int, int | float], ...]]:
    """Live-in and live-out sets of an instruction sequence.

    Returns ``(live_ins, live_outs)`` where live-ins are ``(location,
    value first read)`` pairs in first-read order and live-outs are
    ``(location, final value written)`` pairs in first-write order —
    the paper's IL/IV and OL/OV sequences.
    """
    live_in: dict[int, int | float] = {}
    live_out: dict[int, int | float] = {}
    for inst in instructions:
        for loc, val in inst.reads:
            if loc not in live_out and loc not in live_in:
                live_in[loc] = val
        for loc, val in inst.writes:
            live_out[loc] = val
    return tuple(live_in.items()), tuple(live_out.items())


@dataclass(frozen=True, slots=True)
class TraceSpan:
    """A candidate reusable trace over ``stream[start:stop]``."""

    start: int
    stop: int
    start_pc: int
    next_pc: int
    live_ins: tuple[tuple[int, int | float], ...]
    live_outs: tuple[tuple[int, int | float], ...]

    @property
    def length(self) -> int:
        """Number of dynamic instructions covered."""
        return self.stop - self.start

    @property
    def input_count(self) -> int:
        """Total live-in locations (register + memory)."""
        return len(self.live_ins)

    @property
    def output_count(self) -> int:
        """Total live-out locations (register + memory)."""
        return len(self.live_outs)

    @property
    def reg_input_count(self) -> int:
        """Live-in registers."""
        return sum(1 for loc, _ in self.live_ins if not loc_is_mem(loc))

    @property
    def mem_input_count(self) -> int:
        """Live-in memory words."""
        return sum(1 for loc, _ in self.live_ins if loc_is_mem(loc))

    @property
    def reg_output_count(self) -> int:
        """Live-out registers."""
        return sum(1 for loc, _ in self.live_outs if not loc_is_mem(loc))

    @property
    def mem_output_count(self) -> int:
        """Live-out memory words."""
        return sum(1 for loc, _ in self.live_outs if loc_is_mem(loc))

    def input_locations(self) -> tuple[int, ...]:
        """The live-in location ids (gate the trace's reuse timing)."""
        return tuple(loc for loc, _ in self.live_ins)

    def within(self, limits: TraceLimits) -> bool:
        """True when this span fits the given I/O limits."""
        return limits.admits(
            self.reg_input_count,
            self.mem_input_count,
            self.reg_output_count,
            self.mem_output_count,
        )


def span_from_range(
    instructions: Sequence[DynInst], start: int, stop: int
) -> TraceSpan:
    """Build a :class:`TraceSpan` over ``instructions[start:stop]``."""
    if not 0 <= start < stop <= len(instructions):
        raise ValueError(f"bad span range [{start}, {stop})")
    body = instructions[start:stop]
    live_ins, live_outs = compute_liveness(body)
    return TraceSpan(
        start=start,
        stop=stop,
        start_pc=body[0].pc,
        next_pc=body[-1].next_pc,
        live_ins=live_ins,
        live_outs=live_outs,
    )


def _fold_liveness(
    trace: ColumnarTrace, start: int, stop: int,
    live_in: dict[int, int | float], live_out: dict[int, int | float],
) -> None:
    """Fold instructions ``[start, stop)`` of a columnar segment into
    running live-in/live-out tables.

    The walk runs over the flattened location/value columns with
    running cursors; dict insertion order matches
    :func:`compute_liveness`, so a span built from the tables equals
    the row-layout one field for field.  Carrying the tables across
    calls extends one span over several segments.
    """
    rb, rl, rv = trace.read_bounds, trace.read_locs, trace.read_vals
    wb, wl, wv = trace.write_bounds, trace.write_locs, trace.write_vals
    a = rb[start]
    wa = wb[start]
    for i in range(start, stop):
        b = rb[i + 1]
        while a < b:
            loc = rl[a]
            if loc not in live_out and loc not in live_in:
                live_in[loc] = rv[a]
            a += 1
        b = wb[i + 1]
        while wa < b:
            live_out[wl[wa]] = wv[wa]
            wa += 1


def _columnar_spans(segments, flags: Sequence[bool]) -> list[TraceSpan]:
    """Maximal reusable spans over columnar segments in stream order.

    ``segments`` is one materialized trace (``[trace]``) or a chunk
    stream's ``chunks()``; a flagged run that crosses a segment
    boundary carries its liveness tables into the next segment, so
    memory is O(segment + longest span's live sets).
    """
    if isinstance(flags, (bytes, bytearray)):
        fb = flags
    else:
        fb = bytes(map(bool, flags))
    total = len(fb)
    spans: list[TraceSpan] = []
    # [start, start_pc, live_in, live_out, next_pc] of the run in progress
    run: list | None = None
    offset = 0
    for seg in segments:
        end = offset + len(seg)
        if end > total:
            raise ValueError("flags must align with the instruction stream")
        i = offset
        while i < end:
            if run is None:
                i = fb.find(1, i, end)
                if i < 0:
                    break
                run = [i, seg.pcs[i - offset], {}, {}, 0]
            j = fb.find(0, i, end)
            if j < 0:
                j = end
            if j > i:
                _fold_liveness(seg, i - offset, j - offset, run[2], run[3])
                run[4] = seg.next_pcs[j - 1 - offset]
            if j < end:
                spans.append(_close_span(run, j))
                run = None
            i = j
        offset = end
    if offset != total:
        raise ValueError("flags must align with the instruction stream")
    if run is not None:
        spans.append(_close_span(run, offset))
    return spans


def _close_span(run: list, stop: int) -> TraceSpan:
    start, start_pc, live_in, live_out, next_pc = run
    return TraceSpan(
        start=start,
        stop=stop,
        start_pc=start_pc,
        next_pc=next_pc,
        live_ins=tuple(live_in.items()),
        live_outs=tuple(live_out.items()),
    )


def spans_from_ranges(
    trace: AnyTrace | Sequence[DynInst], ranges: Sequence[tuple[int, int]]
) -> list[TraceSpan]:
    """Build spans for explicit ``(start, stop)`` ranges."""
    instructions = stream_of(trace)
    return [span_from_range(instructions, a, b) for a, b in ranges]


def maximal_reusable_spans(
    trace: AnyTrace | Sequence[DynInst],
    flags: Sequence[bool],
) -> list[TraceSpan]:
    """Partition the stream into maximal runs of reusable instructions.

    ``flags`` is the per-instruction reusability from
    :func:`repro.baselines.ilr.instruction_reusability`.  By Theorem 1
    the resulting spans upper-bound what any trace-reuse scheme can
    cover, using the minimum number of reuse operations.

    Columnar traces and chunk streams (:mod:`repro.vm.tracestream`)
    share one column walk, segment by segment, so a stream's memory is
    O(chunk), not O(stream).
    """
    from repro.vm.tracestream import is_chunk_stream

    if is_chunk_stream(trace):
        return _columnar_spans(trace.chunks(), flags)
    if isinstance(trace, ColumnarTrace):
        return _columnar_spans([trace], flags)
    instructions = stream_of(trace)
    n = len(instructions)
    if len(flags) != n:
        raise ValueError("flags must align with the instruction stream")
    spans: list[TraceSpan] = []
    start: int | None = None
    for i, flag in enumerate(flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            spans.append(span_from_range(instructions, start, i))
            start = None
    if start is not None:
        spans.append(span_from_range(instructions, start, n))
    return spans


def average_span_length(spans: Sequence[TraceSpan]) -> float:
    """Average trace size in instructions (Figure 7); 0 for no spans."""
    if not spans:
        return 0.0
    return sum(s.length for s in spans) / len(spans)
