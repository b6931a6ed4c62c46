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

import struct
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.dataflow.model import ReusePoint
from repro.vm.trace import AnyTrace, ColumnarTrace, DynInst, stream_of

#: Most instructions one signature pass keys at once: bounds the pass's
#: numpy temporaries whatever the segment size.
SLICE_CAP = 8192


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

    if isinstance(trace, ColumnarTrace) or is_chunk_stream(trace):
        if isinstance(trace, ColumnarTrace):
            segments = [trace]
        else:
            segments = trace.chunks()
        table = SignatureHistory()
        packed = bytearray()
        for segment in segments:
            packed += reusability_flags(segment, table)
        reusable = packed.count(1)
        return ReusabilityResult(
            flags=list(map(bool, packed)),
            reusable_count=reusable,
            total_count=len(packed),
            static_count=table.static_count,
            # every non-reusable instance records one new signature
            signature_count=len(packed) - reusable,
        )
    history: dict[int, set] = {}
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


class SignatureHistory:
    """The infinite ILR table of a columnar pass: every ``(pc, input
    signature)`` seen so far, shared by the segments of one stream.

    ``keys`` holds one key per distinct signature (see
    :func:`reusability_flags`); ``pcs`` the distinct static
    instructions.
    """

    __slots__ = ("keys", "pcs")

    def __init__(self) -> None:
        self.keys: set = set()
        self.pcs: set[int] = set()

    @property
    def static_count(self) -> int:
        """Distinct static instructions observed."""
        return len(self.pcs)


def reusability_flags(
    segment: ColumnarTrace, history: SignatureHistory
) -> bytearray:
    """Reusability flags (one byte each) of one columnar segment.

    ``history`` is updated in place, so folding a stream's segments
    through one table gives the whole-stream flags, equal to
    :func:`instruction_reusability` on the rows.

    The pass runs in numpy over slices of at most :data:`SLICE_CAP`
    instructions.  Each read value gets a canonical int64 key that
    preserves Python equality: an int in the int64 range, and an
    integral float in that range (``-0.0`` included), keys as the
    integer, so ``1`` and ``1.0`` share a key; any other float keys as
    its bits, with a tag bit that keeps it apart from the integers.
    An instruction with ``c`` reads becomes the fixed-width row
    ``(pc, locs, keys, tags << 8 | c)``; the width depends on ``c``
    alone, never on where a stream is cut.  Rows are hashed to 64 bits
    and deduplicated within the slice; hash-equal rows are compared
    exactly, and a slice group where they differ (a collision) falls
    back to one key per row.  Python key objects (the row bytes) are
    made only for a slice's distinct rows.

    A row holding a value with no canonical key — a NaN, an int beyond
    int64, an integral float of magnitude at least 2**63, or a
    non-numeric value — or more than :data:`_MAX_KEYED_READS` reads
    keys as the exact tuple ``(pc, locs, values)`` in the same set.
    Such a value equals no canonically keyed one, so every row still
    matches exactly the rows it equals under Python's ``==``.
    """
    n = len(segment.pcs)
    flags = bytearray(n)
    if not n:
        return flags
    out = np.frombuffer(flags, np.uint8)
    pcs = np.frombuffer(segment.pcs, "i")
    bounds = np.frombuffer(segment.read_bounds, "I")
    locs = np.frombuffer(segment.read_locs, "q")
    vals = segment.read_vals
    for a in range(0, n, SLICE_CAP):
        b = min(a + SLICE_CAP, n)
        ra, rb = int(bounds[a]), int(bounds[b])
        _flag_slice(pcs[a:b], bounds[a:b + 1].astype(np.intp) - ra,
                    locs[ra:rb], vals[ra:rb], history.keys, out[a:b])
        history.pcs.update(np.unique(pcs[a:b]).tolist())
    return flags


#: Rows with more reads than this key exactly: the tag word holds one
#: float-bits tag per read above the count byte.
_MAX_KEYED_READS = 48
_TWO53 = 2.0 ** 53
_TWO63 = 2.0 ** 63
_F8 = struct.Struct("<d")
_I8 = struct.Struct("<q")
_HASH_SEED = 0x243F6A8885A308D3
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(29)


def _plain(v):
    """The int or float equal to ``v``, or ``v`` itself if none is."""
    for cast in (int, float):
        try:
            w = cast(v)
        except (TypeError, ValueError, OverflowError):
            continue
        if w == v:
            return w
    return v


def _scalar_key(v) -> tuple[int, bool] | None:
    """``(key, is_float_bits)`` of one value, or None when it has no
    canonical key."""
    if type(v) is not int and type(v) is not float:
        v = _plain(v)
    if type(v) is int:
        return (v, False) if -(1 << 63) <= v < (1 << 63) else None
    if type(v) is float:
        if v.is_integer():
            return (int(v), False) if -_TWO63 <= v < _TWO63 else None
        if v == v:
            return _I8.unpack(_F8.pack(v))[0], True
    return None


def _value_keys(vals: list):
    """Canonical keys of a value column: ``(keys, float_bits, exact)``.

    ``keys`` is int64 and ``float_bits`` bool, one per value;
    ``exact`` marks the values without a canonical key, or is None when
    there are none.  Ints and floats below 2**53 in magnitude convert
    exactly, so numpy keys them; the rest go through
    :func:`_scalar_key`.
    """
    k = len(vals)
    try:
        arr = np.array(vals)
    except (TypeError, ValueError, OverflowError):
        arr = np.empty(0, object)
    kind, size = arr.dtype.kind, arr.dtype.itemsize
    if arr.shape == (k,) and (kind in "bi" or (kind == "u" and size < 8)):
        return arr.astype(np.int64, copy=False), np.zeros(k, bool), None
    if arr.shape == (k,) and kind == "f" and size <= 8:
        f = arr.astype(np.float64, copy=False)
        with np.errstate(invalid="ignore"):
            small = np.abs(f) < _TWO53
            as_int = small & (np.trunc(f) == f)
        keys = f.view(np.int64).copy()
        keys[as_int] = f[as_int].astype(np.int64)
        float_bits = ~as_int
        odd = np.flatnonzero(~small).tolist()
    else:
        keys = np.zeros(k, np.int64)
        float_bits = np.zeros(k, bool)
        odd = range(k)
    exact = None
    for s in odd:
        key = _scalar_key(vals[s])
        if key is None:
            if exact is None:
                exact = np.zeros(k, bool)
            exact[s] = True
        else:
            keys[s], float_bits[s] = key
    return keys, float_bits, exact


def _row_hash(rows: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of an int64 matrix."""
    h = np.full(len(rows), _HASH_SEED, np.uint64)
    for col in rows.view(np.uint64).T:
        h ^= col
        h *= _HASH_MUL
        h ^= h >> _HASH_SHIFT
    return h


def _flag_slice(pcs, bounds, locs, vals: list, keys: set,
                out: np.ndarray) -> None:
    """Flag one slice into ``out``; ``bounds`` are slice-relative."""
    vkeys, float_bits, exact = _value_keys(vals)
    counts = np.diff(bounds)
    if exact is None:
        exact_rows = counts > _MAX_KEYED_READS
    else:
        seen = np.concatenate(([0], np.cumsum(exact)))
        exact_rows = (seen[bounds[1:]] > seen[bounds[:-1]]) | (
            counts > _MAX_KEYED_READS)
    for c in np.flatnonzero(np.bincount(counts[~exact_rows])).tolist():
        rows = np.flatnonzero((counts == c) & ~exact_rows)
        matrix = np.empty((len(rows), 2 * c + 2), np.int64)
        matrix[:, 0] = pcs[rows]
        slots = bounds[rows, None] + np.arange(c)
        matrix[:, 1:c + 1] = locs[slots]
        matrix[:, c + 1:2 * c + 1] = vkeys[slots]
        matrix[:, -1] = (float_bits[slots] << np.arange(8, 8 + c)).sum(
            axis=1) | c
        _flag_rows(matrix, keys, rows, out)
    for i in np.flatnonzero(exact_rows).tolist():
        a, b = bounds[i], bounds[i + 1]
        key = (int(pcs[i]), tuple(locs[a:b].tolist()), tuple(vals[a:b]))
        if key in keys:
            out[i] = 1
        else:
            keys.add(key)


def _flag_rows(matrix: np.ndarray, keys: set, rows: np.ndarray,
               out: np.ndarray) -> None:
    """Flag the rows of one equal-width ``matrix`` (stream order) into
    ``out[rows]``: a row is reusable when its key was seen before."""
    k, width = matrix.shape
    h = _row_hash(matrix)
    order = np.argsort(h)
    fresh = np.empty(k, bool)
    fresh[:1] = True
    sorted_h = h[order]
    np.not_equal(sorted_h[1:], sorted_h[:-1], out=fresh[1:])
    # first (stream-order) row of each hash, and each row's first twin
    first = np.minimum.reduceat(order, np.flatnonzero(fresh))
    group = np.empty(k, np.intp)
    group[order] = np.cumsum(fresh) - 1
    twin = first[group]
    if (matrix == matrix[twin]).all():
        row_keys = np.ascontiguousarray(matrix[first]).view(
            f"V{8 * width}").ravel().tolist()
        before = np.fromiter(map(keys.__contains__, row_keys), bool,
                             len(row_keys))
        keys.update(row_keys)
        out[rows] = (twin != np.arange(k)) | before[group]
        return
    # a 64-bit collision: key every row on its own
    row_keys = matrix.view(f"V{8 * width}").ravel().tolist()
    for i, key in zip(rows.tolist(), row_keys):
        if key in keys:
            out[i] = 1
        else:
            keys.add(key)


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
        pc = inst.pc
        entry_set = self._sets[pc % self.num_sets]
        key = (pc, inst.reads)
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
