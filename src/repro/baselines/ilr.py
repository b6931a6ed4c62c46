"""Instruction-level reuse: the limit study and a finite buffer.

Section 4.2 of the paper: for each *static* instruction, record every
input-value tuple of its past dynamic instances; a dynamic instance is
**reusable** when its current inputs match a previously recorded
tuple.  Inputs are the values of every location the instruction reads
— source registers and, for memory operations, the memory word —
so address and data locality both participate, exactly as in the
paper ("the reusability of a program takes into account any kind of
instructions, including memory accesses").
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.dataflow.model import ReusePoint
from repro.vm.trace import AnyTrace, ColumnarTrace, DynInst, stream_of


@dataclass(slots=True)
class ReusabilityResult:
    """Which dynamic instructions were reusable, and summary rates."""

    flags: list[bool]
    reusable_count: int
    total_count: int
    #: distinct static instructions observed
    static_count: int = 0
    #: total distinct input signatures stored (table footprint proxy)
    signature_count: int = 0

    @property
    def percent_reusable(self) -> float:
        """Percentage of dynamic instructions that were reusable."""
        if self.total_count == 0:
            return 0.0
        return 100.0 * self.reusable_count / self.total_count


def instruction_reusability(
    trace: AnyTrace | Sequence[DynInst],
) -> ReusabilityResult:
    """Infinite-history instruction-level reusability (Figure 3).

    One forward pass: a dynamic instance is reusable iff its
    ``(pc, input signature)`` was seen before; afterwards the
    signature is recorded.

    Columnar traces and chunk streams (:mod:`repro.vm.tracestream`)
    take the column path, :func:`reusability_flags`, one segment at a
    time with a persistent history; only the flag list itself is O(n),
    never the trace.
    """
    from repro.vm.tracestream import is_chunk_stream

    history: dict[int, set] = {}
    if isinstance(trace, ColumnarTrace) or is_chunk_stream(trace):
        if isinstance(trace, ColumnarTrace):
            segments = [trace]
        else:
            segments = trace.chunks()
        packed = bytearray()
        for segment in segments:
            packed += reusability_flags(segment, history)
        reusable = packed.count(1)
        return ReusabilityResult(
            flags=list(map(bool, packed)),
            reusable_count=reusable,
            total_count=len(packed),
            static_count=len(history),
            # every non-reusable instance records one new signature
            signature_count=len(packed) - reusable,
        )
    instructions = stream_of(trace)
    flags: list[bool] = []
    reusable = 0
    signature_count = 0
    for inst in instructions:
        seen = history.get(inst.pc)
        if seen is None:
            seen = set()
            history[inst.pc] = seen
        sig = inst.reads
        if sig in seen:
            flags.append(True)
            reusable += 1
        else:
            seen.add(sig)
            signature_count += 1
            flags.append(False)
    return ReusabilityResult(
        flags=flags,
        reusable_count=reusable,
        total_count=len(flags),
        static_count=len(history),
        signature_count=signature_count,
    )


def reusability_flags(
    segment: ColumnarTrace, history: dict[int, set]
) -> bytearray:
    """Reusability flags (one byte each) of one columnar segment.

    ``history`` maps each pc to the input signatures seen so far and is
    updated in place, so folding a stream's segments through one table
    gives the whole-stream flags.  A signature is the pair of the read
    location and value tuples, which discriminates exactly like the row
    layout's pair tuples.  The loop is deliberately scalar: Python set
    membership treats 1 and 1.0 as the same signature, which a
    bit-level batch encoding of the value columns would split.
    """
    pcs = segment.pcs
    rb, rl, rv = segment.read_bounds, segment.read_locs, segment.read_vals
    history_get = history.get
    flags = bytearray(len(pcs))
    a = 0
    for i, pc in enumerate(pcs):
        b = rb[i + 1]
        seen = history_get(pc)
        if seen is None:
            seen = history[pc] = set()
        sig = (tuple(rl[a:b]), tuple(rv[a:b]))
        if sig in seen:
            flags[i] = 1
        else:
            seen.add(sig)
        a = b
    return flags


def reusability_by_class(
    trace: AnyTrace | Sequence[DynInst],
    flags: Sequence[bool] | None = None,
) -> dict[str, tuple[int, int, float]]:
    """Sources of repetition (Sodani & Sohi's [13] style breakdown).

    Returns ``{op-class name: (reusable, total, percent)}``, computed
    from existing flags when provided (one pass otherwise).  Accepts
    chunk streams: the walk is lazy, one chunk of rows at a time.
    """
    from repro.vm.tracestream import iter_insts, stream_length

    if flags is None:
        flags = instruction_reusability(trace).flags
    known = stream_length(trace)
    if known is not None and len(flags) != known:
        raise ValueError("flags must align with the instruction stream")
    totals: dict[str, int] = {}
    hits: dict[str, int] = {}
    flag_count = len(flags)
    count = 0
    for inst in iter_insts(trace):
        if count >= flag_count:
            raise ValueError("flags must align with the instruction stream")
        flag = flags[count]
        count += 1
        name = inst.op_class.name
        totals[name] = totals.get(name, 0) + 1
        if flag:
            hits[name] = hits.get(name, 0) + 1
    if count != flag_count:
        raise ValueError("flags must align with the instruction stream")
    return {
        name: (
            hits.get(name, 0),
            total,
            100.0 * hits.get(name, 0) / total,
        )
        for name, total in sorted(totals.items())
    }


def ilr_reuse_plan(
    trace: AnyTrace | Sequence[DynInst],
    flags: Sequence[bool],
    reuse_latency: float,
) -> list[ReusePoint | None]:
    """Reuse plan for the dataflow model: reusable instructions may
    complete at ``max(own producers) + reuse_latency`` (sections
    4.3/4.5: reuse cannot begin until the instruction's source
    operands are available).

    The plan itself is inherently materialized (one entry per dynamic
    instruction), but the walk is lazy, so chunk streams work without
    ever holding the trace rows.
    """
    from repro.vm.tracestream import iter_insts, stream_length

    known = stream_length(trace)
    if known is not None and len(flags) != known:
        raise ValueError("flags must align with the instruction stream")
    flag_count = len(flags)
    plan: list[ReusePoint | None] = []
    for inst in iter_insts(trace):
        i = len(plan)
        if i >= flag_count:
            raise ValueError("flags must align with the instruction stream")
        if flags[i]:
            inputs = tuple(loc for loc, _ in inst.reads)
            plan.append(ReusePoint(inputs=inputs, latency=reuse_latency))
        else:
            plan.append(None)
    if len(plan) != flag_count:
        raise ValueError("flags must align with the instruction stream")
    return plan


@dataclass(slots=True)
class _BufferSet:
    """One set of the finite reuse buffer: signature -> LRU order."""

    entries: OrderedDict = field(default_factory=OrderedDict)


class InstructionReuseBuffer:
    """A finite, set-associative instruction reuse table.

    Models the per-instruction history memory required by the ILR
    trace-collection heuristics of section 4.6 ("a different reuse
    memory used for testing instruction-level reusability is also
    needed; this memory has as many entries as the RTM").

    Indexed by the PC's least-significant bits; each set holds
    ``associativity`` entries of ``(pc, input signature)`` with LRU
    replacement.
    """

    def __init__(self, total_entries: int, associativity: int):
        if total_entries <= 0 or associativity <= 0:
            raise ValueError("capacity parameters must be positive")
        if total_entries % associativity:
            raise ValueError("total_entries must be a multiple of associativity")
        self.total_entries = total_entries
        self.associativity = associativity
        self.num_sets = total_entries // associativity
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def _set_for(self, pc: int) -> OrderedDict:
        return self._sets[pc % self.num_sets]

    def probe(self, inst: DynInst) -> bool:
        """Reuse test *without* updating the table (state inspection)."""
        key = (inst.pc, inst.reads)
        return key in self._set_for(inst.pc)

    def access(self, inst: DynInst) -> bool:
        """Reuse test + update: returns True on a hit.

        On a hit the entry is refreshed to most-recently-used; on a
        miss the new signature is inserted, evicting the LRU entry of
        the set when full.
        """
        entry_set = self._set_for(inst.pc)
        key = (inst.pc, inst.reads)
        if key in entry_set:
            entry_set.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if len(entry_set) >= self.associativity:
            entry_set.popitem(last=False)
        entry_set[key] = True
        return False

    @property
    def occupancy(self) -> int:
        """Number of live entries across all sets."""
        return sum(len(s) for s in self._sets)

    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0 when never accessed)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
