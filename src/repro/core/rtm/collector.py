"""Dynamic trace-collection heuristics (section 4.6).

Three heuristics decide where candidate traces start and end:

- **ILR NE** — a trace is a run of instructions that are reusable at
  instruction level (tested against a finite instruction reuse
  buffer); no expansion.
- **ILR EXP** — as ILR NE, but traces grow dynamically: when two
  consecutive traces are reused, or when the instructions following a
  reused trace are reusable, a longer merged trace is stored.
- **I(n) EXP** — traces are fixed runs of ``n`` instructions of any
  kind; a reused trace is expanded with ``n`` further instructions.

All heuristics respect the per-trace I/O limits (8 registers + 4
memory values on each side by default): a trace that would exceed
them is terminated at the limit.  Collection is *incremental*: the
collector maintains the live-in/live-out sets of the trace under
construction and finalises it into the RTM when a boundary is hit.

Insertion policy details (documented here because the paper leaves
them open): ILR traces are stored whenever non-empty; fixed-length
traces are stored only when they reach their target length or are
terminated by the I/O limits — fragments interrupted by a reuse event
are discarded.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.baselines.ilr import InstructionReuseBuffer
from repro.core.rtm.entry import RTMEntry, new_entry
from repro.core.rtm.memory import ReuseTraceMemory
from repro.core.traces import TraceLimits
from repro.isa.registers import MEM_LOC_BASE as _MEM_LOC_BASE
from repro.vm.trace import DynInst


@dataclass(frozen=True, slots=True)
class ILRHeuristic:
    """Traces are runs of instruction-level-reusable instructions."""

    expand: bool = False

    @property
    def name(self) -> str:
        """Paper label: ``ILR NE`` or ``ILR EXP``."""
        return "ILR EXP" if self.expand else "ILR NE"


@dataclass(frozen=True, slots=True)
class FixedLengthHeuristic:
    """Traces are fixed runs of ``n`` instructions, always expanding."""

    n: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("fixed trace length must be positive")

    @property
    def expand(self) -> bool:
        """The paper's I(n) heuristic always expands on reuse."""
        return True

    @property
    def name(self) -> str:
        """Paper label, e.g. ``I4 EXP``."""
        return f"I{self.n} EXP"


Heuristic = ILRHeuristic | FixedLengthHeuristic


class TraceCollector:
    """Builds candidate traces from the fetched stream and fills the RTM."""

    def __init__(
        self,
        heuristic: Heuristic,
        rtm: ReuseTraceMemory,
        stream: Sequence[DynInst] | None = None,
        *,
        limits: TraceLimits = TraceLimits(),
        ilr_buffer: InstructionReuseBuffer | None = None,
    ):
        self.heuristic = heuristic
        self.rtm = rtm
        # Collection itself is stream-free: every entry field is
        # recorded as instructions arrive (``_start_pc`` on the first
        # append, ``_last_next_pc`` on every append).  ``stream`` is
        # only kept as a random-access fallback for ``on_reuse`` calls
        # that do not hand over the skipped instructions.
        self.stream = stream
        self.limits = limits
        if isinstance(heuristic, ILRHeuristic):
            if ilr_buffer is None:
                raise ValueError("ILR heuristics need an instruction reuse buffer")
            self.ilr_buffer = ilr_buffer
        else:
            self.ilr_buffer = ilr_buffer  # unused by fixed-length collection
        # trace under construction
        self._base: int | None = None
        self._min_end = 0  # finalisation inserts only if end > _min_end
        self._expanding = False
        self._target_end: int | None = None  # fixed-length mode only
        self._start_pc: int | None = None
        self._last_next_pc: int | None = None
        # incremental liveness of the trace under construction
        self._live_in: dict[int, int | float] = {}
        self._live_out: dict[int, int | float] = {}
        self._reg_in = 0
        self._mem_in = 0
        self._reg_out = 0
        self._mem_out = 0
        # statistics
        self.collected = 0
        self.limit_terminations = 0
        self.discarded_fragments = 0

    # ------------------------------------------------------------------
    # trace-under-construction management
    # ------------------------------------------------------------------
    def _start(self, i: int) -> None:
        self._base = i
        self._min_end = i
        self._expanding = False
        self._target_end = None
        self._start_pc = None
        self._last_next_pc = None
        self._live_in = {}
        self._live_out = {}
        self._reg_in = self._mem_in = self._reg_out = self._mem_out = 0

    def _try_append(self, inst: DynInst) -> bool:
        """Extend the current trace's liveness; False if limits block it."""
        live_in, live_out = self._live_in, self._live_out
        mem_base = _MEM_LOC_BASE
        reg_in = self._reg_in
        mem_in = self._mem_in
        new_in = None
        for loc, val in inst.reads:
            if loc not in live_out and loc not in live_in:
                if new_in is None:
                    new_in = [(loc, val)]
                else:
                    new_in.append((loc, val))
                if loc >= mem_base:
                    mem_in += 1
                else:
                    reg_in += 1
        reg_out = self._reg_out
        mem_out = self._mem_out
        for loc, _val in inst.writes:
            if loc not in live_out:
                if loc >= mem_base:
                    mem_out += 1
                else:
                    reg_out += 1
        limits = self.limits
        if (
            reg_in > limits.max_reg_inputs
            or mem_in > limits.max_mem_inputs
            or reg_out > limits.max_reg_outputs
            or mem_out > limits.max_mem_outputs
        ):
            return False
        if new_in is not None:
            live_in.update(new_in)
        live_out.update(inst.writes)
        self._reg_in, self._mem_in = reg_in, mem_in
        self._reg_out, self._mem_out = reg_out, mem_out
        if self._start_pc is None:
            self._start_pc = inst.pc
        self._last_next_pc = inst.next_pc
        return True

    def _abandon(self) -> None:
        if self._base is not None:
            self.discarded_fragments += 1
        self._base = None
        self._expanding = False
        self._target_end = None

    def _insert_range(self, end: int) -> None:
        """Insert ``stream[base:end]`` without closing the collection.

        The entry's PCs come from the recorded ``_start_pc`` /
        ``_last_next_pc`` — every appended instruction updated them, so
        they equal ``stream[base].pc`` / ``stream[end - 1].next_pc``
        without touching the stream.
        """
        base = self._base
        assert base is not None
        assert self._start_pc is not None and self._last_next_pc is not None
        self.rtm.insert(new_entry(
            self._start_pc,
            end - base,
            tuple(self._live_in.items()),
            tuple(self._live_out.items()),
            self._last_next_pc,
        ))
        self.collected += 1

    def _finalize(self, end: int) -> None:
        """Insert the trace under construction as ``stream[base:end]``."""
        base = self._base
        if base is not None and end > self._min_end and end > base:
            self._insert_range(end)
        self._base = None
        self._expanding = False
        self._target_end = None

    def _replay(
        self, start: int, stop: int,
        insts: Sequence[DynInst] | None = None,
    ) -> bool:
        """Append already-known stream instructions (a reused range).

        ``insts``, when given, supplies ``stream[start:stop]`` directly
        (the streaming simulator hands over its lookahead window);
        otherwise the range is read from ``self.stream``.  Returns
        False if the I/O limits were hit part-way, in which case the
        merged prefix has been finalised and collection stopped.
        """
        if insts is None:
            if self.stream is None:
                raise ValueError(
                    "on_reuse needs the skipped instructions when the "
                    "collector has no random-access stream"
                )
            insts = self.stream[start:stop]
        for off, inst in enumerate(insts):
            if not self._try_append(inst):
                self.limit_terminations += 1
                self._finalize(start + off)
                return False
        return True

    # ------------------------------------------------------------------
    # simulator callbacks
    # ------------------------------------------------------------------
    def on_fetch(self, i: int, inst: DynInst) -> None:
        """A normally fetched/executed instruction at stream index ``i``."""
        self.fetch_handler()(i, inst)

    def fetch_handler(self) -> Callable[[int, DynInst], None]:
        """:meth:`on_fetch` resolved for this heuristic, to bind once
        before a per-instruction loop."""
        if isinstance(self.heuristic, ILRHeuristic):
            return self._on_fetch_ilr
        return self._on_fetch_fixed

    def _on_fetch_ilr(self, i: int, inst: DynInst) -> None:
        reusable = self.ilr_buffer.access(inst)
        if not reusable:
            if self._base is not None:
                self._finalize(i)
            return
        if self._base is None:
            self._start(i)
        if not self._try_append(inst):
            self.limit_terminations += 1
            self._finalize(i)
            self._start(i)
            appended = self._try_append(inst)
            assert appended, "a single instruction must fit the I/O limits"

    def _on_fetch_fixed(self, i: int, inst: DynInst) -> None:
        heuristic = self.heuristic
        assert isinstance(heuristic, FixedLengthHeuristic)
        if self._base is None:
            self._start(i)
            self._target_end = i + heuristic.n
        if not self._try_append(inst):
            self.limit_terminations += 1
            self._finalize(i)
            self._start(i)
            self._target_end = i + heuristic.n
            appended = self._try_append(inst)
            assert appended, "a single instruction must fit the I/O limits"
        if self._target_end is not None and i + 1 >= self._target_end:
            self._finalize(i + 1)

    def on_reuse(
        self, i: int, entry: RTMEntry,
        insts: Sequence[DynInst] | None = None,
    ) -> None:
        """A trace reuse at index ``i`` covering ``stream[i:i+length]``.

        ``insts`` optionally carries the skipped instructions
        themselves, which frees the collector from random stream
        access (required when driving from a chunk stream).
        """
        stop = i + entry.length
        if self._base is not None:
            if self._expanding:
                # consecutive reuse: chain the new trace onto the
                # expansion in progress and store the merged trace now
                # ("traces can be dynamically expanded when two
                # consecutive traces are reused")
                if self._replay(i, stop, insts):
                    self._insert_range(stop)
                    self._min_end = stop
                    if isinstance(self.heuristic, FixedLengthHeuristic):
                        self._target_end = stop + self.heuristic.n
                    return
                # limits hit: the merged prefix was stored; fall through
                # to start a fresh expansion from this reuse
            elif isinstance(self.heuristic, ILRHeuristic):
                self._finalize(i)
            else:
                self._abandon()
        if not self.heuristic.expand:
            return
        self._start(i)
        self._expanding = True
        if self._replay(i, stop, insts):
            self._min_end = stop
            if isinstance(self.heuristic, FixedLengthHeuristic):
                self._target_end = stop + self.heuristic.n
        else:
            # the entry alone exceeds the limits (possible only if the
            # collector's limits are tighter than the inserting one's)
            self._abandon()

    def flush(self, end: int) -> None:
        """End of stream: store or discard the pending trace."""
        if self._base is None:
            return
        if isinstance(self.heuristic, ILRHeuristic):
            self._finalize(end)
        else:
            self._abandon()
