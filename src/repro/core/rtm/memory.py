"""The set-associative Reuse Trace Memory.

Organisation follows section 4.6: the memory is indexed by the
least-significant bits of the PC; each set holds a bounded number of
distinct starting PCs (the associativity) and each PC holds a bounded
number of alternative traces (``traces_per_pc`` — "4/8/16 entries per
initial PC" in the paper's configurations).  Replacement is LRU at
both levels: reusing a trace refreshes it, and "the older trace with
the same PC ... is the one that is being replaced when a new trace is
collected".

The paper's four configurations::

    512 entries:  4-way  (5-bit index, 32 sets),  4 traces per PC
    4K entries:   4-way  (7-bit index, 128 sets), 8 traces per PC
    32K entries:  8-way  (8-bit index, 256 sets), 16 traces per PC
    256K entries: 8-way (11-bit index, 2048 sets), 16 traces per PC

(in every case ``sets * ways * traces_per_pc`` equals the entry count).

Each PC's traces are indexed by their first live-in, so a lookup tests
only the traces whose first input already matches (see
:class:`ReuseTraceMemory`).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.rtm.entry import RTMEntry
from repro.util.rng import mix64

#: a value no location holds (stands in for a missing one at lookup)
_MISSING = object()


@dataclass(frozen=True, slots=True)
class RTMConfig:
    """Geometry of a Reuse Trace Memory."""

    name: str
    num_sets: int
    ways: int
    traces_per_pc: int

    @property
    def total_entries(self) -> int:
        """Total trace capacity."""
        return self.num_sets * self.ways * self.traces_per_pc


#: The paper's four RTM configurations (section 4.6).
RTM_PRESETS: dict[str, RTMConfig] = {
    "512": RTMConfig("512", num_sets=32, ways=4, traces_per_pc=4),
    "4K": RTMConfig("4K", num_sets=128, ways=4, traces_per_pc=8),
    "32K": RTMConfig("32K", num_sets=256, ways=8, traces_per_pc=16),
    "256K": RTMConfig("256K", num_sets=2048, ways=8, traces_per_pc=16),
}


def pc_index(pc: int) -> int:
    """Default index scheme: the PC's least-significant bits."""
    return pc


def hashed_index(pc: int) -> int:
    """Alternative index scheme (section 3.1): a hash of the PC,
    spreading hot loop bodies across sets."""
    return mix64(pc)


class _Slot:
    """One stored trace plus its lookup bookkeeping.

    ``stamp`` is the recency clock value of the entry's last use (its
    insert, re-insert or hit): among equally long matching traces the
    larger stamp wins.  ``rest`` holds the live-ins after the first,
    which the index has already matched.
    """

    __slots__ = ("entry", "key", "length", "rest", "stamp")

    def __init__(self, entry: RTMEntry, key: tuple, stamp: int):
        self.entry = entry
        self.key = key
        self.length = entry.length
        self.rest = entry.inputs[1:]
        self.stamp = stamp


def _index_key(entry: RTMEntry) -> tuple:
    """Where a trace sits in its bucket's index: its first live-in.

    A trace without live-ins sits at location ``None``, value
    ``_MISSING``: no state holds location ``None``, so probing it
    always yields ``_MISSING`` and finds exactly these traces, which
    always match.
    """
    return entry.inputs[0] if entry.inputs else (None, _MISSING)


class _Bucket:
    """The traces stored for one starting PC.

    ``slots`` maps identity to slot in LRU order (least recent first);
    it decides trace evictions and the ``stored_entries`` order.
    ``index`` maps each first live-in location to its recorded values
    and the slots recorded with them, so a lookup probes one value per
    location instead of testing every stored trace.  A trace whose
    first input is NaN stays out of the index: NaN equals nothing, so
    it can never match.
    """

    __slots__ = ("owner", "slots", "index")

    def __init__(self, owner: OrderedDict):
        self.owner = owner  # the set holding this bucket
        self.slots: OrderedDict[tuple, _Slot] = OrderedDict()
        self.index: dict[int | None, dict[object, list[_Slot]]] = {}

    def add(self, slot: _Slot) -> None:
        self.slots[slot.key] = slot
        loc, val = _index_key(slot.entry)
        if val != val:
            return
        by_value = self.index.get(loc)
        if by_value is None:
            self.index[loc] = {val: [slot]}
        else:
            holders = by_value.get(val)
            if holders is None:
                by_value[val] = [slot]
            else:
                holders.append(slot)

    def evict_lru(self) -> None:
        _key, slot = self.slots.popitem(last=False)
        loc, val = _index_key(slot.entry)
        if val != val:
            return
        by_value = self.index[loc]
        holders = by_value[val]
        holders.remove(slot)
        if not holders:
            del by_value[val]
            if not by_value:
                del self.index[loc]


class ReuseTraceMemory:
    """Finite trace storage with two-level LRU replacement.

    ``index_fn`` maps a PC to a value whose residue modulo the set
    count selects the set — section 3.1 notes the RTM "can be indexed
    by different schemes"; :func:`pc_index` and :func:`hashed_index`
    are provided, and the ablation benchmark compares them.

    A lookup does not test every trace stored at the PC.  Each PC's
    traces are indexed by their first live-in, location then value,
    so one dictionary probe per distinct first-input location (about
    one per PC in the paper's kernels) leaves only the traces whose
    first input already matches; their remaining inputs are compared
    in place.  The result is the one :meth:`RTMEntry.matches` defines:
    values compare with ``==`` (``1`` matches ``1.0``, ``-0.0``
    matches ``0.0``), a location missing from the state fails, a NaN
    input never matches (it is stored, counted and evicted like any
    other trace), and a trace without inputs always matches.
    """

    #: this scheme verifies input values at lookup; it does not need
    #: to observe architectural writes
    needs_write_events = False

    def __init__(self, config: RTMConfig, *, index_fn: Callable[[int], int] = pc_index):
        if config.num_sets <= 0 or config.ways <= 0 or config.traces_per_pc <= 0:
            raise ValueError("RTM geometry values must be positive")
        self.config = config
        self._index_fn = index_fn
        # set index -> (pc -> bucket), LRU-ordered (least-recent first)
        self._sets: list[OrderedDict[int, _Bucket]] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        # pc -> bucket across all sets: a lookup needs no set index
        self._buckets: dict[int, _Bucket] = {}
        self._clock = 0  # recency stamps for the tie-break
        self.lookups = 0
        self.hits = 0
        self.insertions = 0
        self.trace_evictions = 0
        self.pc_evictions = 0

    def lookup(self, pc: int, current: dict[int, int | float]) -> RTMEntry | None:
        """The reuse test at a fetch: the longest matching trace wins.

        Among stored traces starting at ``pc`` whose live-in values all
        match the current architectural state, return the longest (a
        single reuse operation should skip as many instructions as
        possible — section 4.4); ties go to the most recently used.
        A hit refreshes LRU state at both levels.
        """
        self.lookups += 1
        bucket = self._buckets.get(pc)
        if bucket is None:
            return None
        best: _Slot | None = None
        best_length = 0
        missing = _MISSING
        get = current.get
        for loc, by_value in bucket.index.items():
            holders = by_value.get(get(loc, missing))
            if holders is None:
                continue
            for slot in holders:
                length = slot.length
                if best is not None and (
                    length < best_length
                    or (length == best_length and slot.stamp < best.stamp)
                ):
                    continue
                for in_loc, val in slot.rest:
                    if get(in_loc, missing) != val:
                        break
                else:
                    best = slot
                    best_length = length
        if best is None:
            return None
        self.hits += 1
        self._clock += 1
        best.stamp = self._clock
        bucket.slots.move_to_end(best.key)
        bucket.owner.move_to_end(pc)
        return best.entry

    def insert(self, entry: RTMEntry) -> None:
        """Store a collected trace, evicting LRU victims when full.

        An entry identical to a stored one (same PC, length and input
        values) replaces the stored entry and refreshes its LRU
        position.
        """
        pc = entry.start_pc
        bucket = self._buckets.get(pc)
        if bucket is None:
            entry_set = self._sets[self._index_fn(pc) % self.config.num_sets]
            if len(entry_set) >= self.config.ways:
                victim_pc, _victim = entry_set.popitem(last=False)
                del self._buckets[victim_pc]
                self.pc_evictions += 1
            bucket = _Bucket(entry_set)
            entry_set[pc] = bucket
            self._buckets[pc] = bucket
        self._clock += 1
        key = entry.identity()
        slots = bucket.slots
        slot = slots.get(key)
        if slot is not None:
            slot.entry = entry
            slot.rest = entry.inputs[1:]
            slot.stamp = self._clock
            slots.move_to_end(key)
            bucket.owner.move_to_end(pc)
            return
        if len(slots) >= self.config.traces_per_pc:
            bucket.evict_lru()
            self.trace_evictions += 1
        bucket.add(_Slot(entry, key, self._clock))
        bucket.owner.move_to_end(pc)
        self.insertions += 1

    @property
    def occupancy(self) -> int:
        """Number of traces currently stored."""
        return sum(len(bucket.slots) for bucket in self._buckets.values())

    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0 when never probed)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def stored_entries(self) -> list[RTMEntry]:
        """All stored traces (for inspection and tests)."""
        return [
            slot.entry
            for entry_set in self._sets
            for bucket in entry_set.values()
            for slot in bucket.slots.values()
        ]
