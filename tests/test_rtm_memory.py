"""Reuse Trace Memory: entries, geometry, lookup and LRU replacement."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rtm.entry import RTMEntry
from repro.core.rtm.memory import (
    RTM_PRESETS,
    ReuseTraceMemory,
    RTMConfig,
    hashed_index,
    pc_index,
)


def entry(pc=0, length=3, inputs=((1, 5),), outputs=((2, 6),), next_pc=10):
    return RTMEntry(
        start_pc=pc, length=length, inputs=inputs, outputs=outputs, next_pc=next_pc
    )


class TestRTMEntry:
    def test_matches_when_values_equal(self):
        assert entry().matches({1: 5})

    def test_mismatch_value(self):
        assert not entry().matches({1: 6})

    def test_missing_location_fails(self):
        assert not entry().matches({})

    def test_empty_inputs_always_match(self):
        assert entry(inputs=()).matches({})

    def test_multiple_inputs_all_checked(self):
        e = entry(inputs=((1, 5), (2, 6)))
        assert e.matches({1: 5, 2: 6})
        assert not e.matches({1: 5, 2: 7})

    def test_counts(self):
        from repro.isa.registers import loc_mem

        e = entry(inputs=((1, 5), (loc_mem(4), 0)), outputs=((2, 1), (loc_mem(9), 2)))
        assert e.input_count == 2 and e.output_count == 2
        assert e.reg_input_count == 1 and e.mem_input_count == 1
        assert e.reg_output_count == 1 and e.mem_output_count == 1

    def test_identity_same_for_equal_traces(self):
        assert entry().identity() == entry().identity()

    def test_identity_differs_on_inputs(self):
        assert entry().identity() != entry(inputs=((1, 9),)).identity()


class TestPresets:
    def test_paper_capacities(self):
        assert RTM_PRESETS["512"].total_entries == 512
        assert RTM_PRESETS["4K"].total_entries == 4096
        assert RTM_PRESETS["32K"].total_entries == 32768
        assert RTM_PRESETS["256K"].total_entries == 262144

    def test_paper_organisation(self):
        assert RTM_PRESETS["512"].ways == 4
        assert RTM_PRESETS["512"].traces_per_pc == 4
        assert RTM_PRESETS["4K"].traces_per_pc == 8
        assert RTM_PRESETS["32K"].ways == 8
        assert RTM_PRESETS["256K"].traces_per_pc == 16

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            ReuseTraceMemory(RTMConfig("bad", num_sets=0, ways=1, traces_per_pc=1))


class TestLookupAndInsert:
    def small(self):
        return ReuseTraceMemory(RTMConfig("t", num_sets=2, ways=2, traces_per_pc=2))

    def test_miss_on_empty(self):
        rtm = self.small()
        assert rtm.lookup(0, {1: 5}) is None
        assert rtm.lookups == 1 and rtm.hits == 0

    def test_insert_then_hit(self):
        rtm = self.small()
        rtm.insert(entry())
        found = rtm.lookup(0, {1: 5})
        assert found is not None and found.length == 3
        assert rtm.hits == 1

    def test_hit_requires_matching_inputs(self):
        rtm = self.small()
        rtm.insert(entry())
        assert rtm.lookup(0, {1: 99}) is None

    def test_lookup_wrong_pc_misses(self):
        rtm = self.small()
        rtm.insert(entry(pc=0))
        assert rtm.lookup(1, {1: 5}) is None

    def test_longest_match_wins(self):
        rtm = self.small()
        rtm.insert(entry(length=2))
        rtm.insert(entry(length=5, inputs=((1, 5),)))
        found = rtm.lookup(0, {1: 5})
        assert found.length == 5

    def test_occupancy(self):
        rtm = self.small()
        rtm.insert(entry())
        rtm.insert(entry(pc=1))
        assert rtm.occupancy == 2
        assert len(rtm.stored_entries()) == 2

    def test_duplicate_insert_refreshes_not_duplicates(self):
        rtm = self.small()
        rtm.insert(entry())
        rtm.insert(entry())
        assert rtm.occupancy == 1
        assert rtm.insertions == 1

    def test_traces_per_pc_eviction(self):
        rtm = self.small()  # 2 traces per pc
        rtm.insert(entry(inputs=((1, 1),)))
        rtm.insert(entry(inputs=((1, 2),)))
        rtm.insert(entry(inputs=((1, 3),)))  # evicts ((1,1))
        assert rtm.lookup(0, {1: 1}) is None
        assert rtm.lookup(0, {1: 3}) is not None
        assert rtm.trace_evictions == 1

    def test_lru_refresh_on_hit(self):
        rtm = self.small()
        rtm.insert(entry(inputs=((1, 1),)))
        rtm.insert(entry(inputs=((1, 2),)))
        rtm.lookup(0, {1: 1})  # refresh the older one
        rtm.insert(entry(inputs=((1, 3),)))  # should evict ((1,2))
        assert rtm.lookup(0, {1: 1}) is not None
        assert rtm.lookup(0, {1: 2}) is None

    def test_way_eviction_drops_whole_pc(self):
        rtm = self.small()  # 2 ways, 2 sets: pcs 0,2,4 share set 0
        rtm.insert(entry(pc=0))
        rtm.insert(entry(pc=2, inputs=((1, 5),)))
        rtm.insert(entry(pc=4, inputs=((1, 5),)))  # evicts pc 0 bucket
        assert rtm.lookup(0, {1: 5}) is None
        assert rtm.pc_evictions == 1

    def test_set_indexing_by_pc_low_bits(self):
        rtm = self.small()
        rtm.insert(entry(pc=0))
        rtm.insert(entry(pc=1, inputs=((1, 5),)))
        # different sets: no interference
        assert rtm.lookup(0, {1: 5}) is not None
        assert rtm.lookup(1, {1: 5}) is not None

    def test_hit_rate(self):
        rtm = self.small()
        rtm.insert(entry())
        rtm.lookup(0, {1: 5})
        rtm.lookup(0, {1: 0})
        assert rtm.hit_rate() == pytest.approx(0.5)

    def test_capacity_never_exceeded(self):
        config = RTMConfig("t", num_sets=2, ways=2, traces_per_pc=2)
        rtm = ReuseTraceMemory(config)
        for pc in range(10):
            for v in range(5):
                rtm.insert(entry(pc=pc, inputs=((1, v),)))
        assert rtm.occupancy <= config.total_entries


# ----------------------------------------------------------------------
# differential: the indexed lookup against a linear scan
# ----------------------------------------------------------------------

class LinearScanRTM:
    """Reference RTM: the reuse test as a scan over every trace stored
    at the PC, most recently used first, with ``RTMEntry.matches``."""

    def __init__(self, config, index_fn):
        self.config = config
        self.index_fn = index_fn
        self.sets = [OrderedDict() for _ in range(config.num_sets)]
        self.lookups = self.hits = self.insertions = 0
        self.trace_evictions = self.pc_evictions = 0

    def _set_for(self, pc):
        return self.sets[self.index_fn(pc) % self.config.num_sets]

    def lookup(self, pc, current):
        self.lookups += 1
        entry_set = self._set_for(pc)
        bucket = entry_set.get(pc)
        if bucket is None:
            return None
        best = None
        for e in reversed(bucket.values()):
            if e.matches(current) and (best is None or e.length > best.length):
                best = e
        if best is None:
            return None
        self.hits += 1
        bucket.move_to_end(best.identity())
        entry_set.move_to_end(pc)
        return best

    def insert(self, e):
        entry_set = self._set_for(e.start_pc)
        bucket = entry_set.get(e.start_pc)
        if bucket is None:
            if len(entry_set) >= self.config.ways:
                entry_set.popitem(last=False)
                self.pc_evictions += 1
            bucket = OrderedDict()
            entry_set[e.start_pc] = bucket
        key = e.identity()
        if key in bucket:
            bucket[key] = e
            bucket.move_to_end(key)
            entry_set.move_to_end(e.start_pc)
            return
        if len(bucket) >= self.config.traces_per_pc:
            bucket.popitem(last=False)
            self.trace_evictions += 1
        bucket[key] = e
        entry_set.move_to_end(e.start_pc)
        self.insertions += 1

    @property
    def occupancy(self):
        return sum(len(b) for s in self.sets for b in s.values())

    def stored_entries(self):
        return [e for s in self.sets for b in s.values() for e in b.values()]


#: one NaN object shared by every draw (a trace re-reading a stored
#: NaN holds the same object), next to fresh NaNs
SHARED_NAN = float("nan")

_FRESH_NAN = object()
adversarial_values = st.sampled_from(
    [0, 1, 2, 1.0, 0.0, -0.0, 2.5, -1, SHARED_NAN, _FRESH_NAN]
).map(lambda v: float("nan") if v is _FRESH_NAN else v)
locations = st.integers(min_value=1, max_value=4)
input_lists = st.lists(st.tuples(locations, adversarial_values), max_size=3)


@st.composite
def rtm_programs(draw):
    """A small geometry, an index function and an operation sequence.

    Entries reuse earlier inputs (duplicate re-inserts) or extend them
    (traces that match together, so equal-length ties happen); states
    merge earlier inputs with random values and leave locations out,
    so misses on missing locations happen."""
    config = RTMConfig("t", num_sets=draw(st.integers(1, 3)),
                       ways=draw(st.integers(1, 3)),
                       traces_per_pc=draw(st.integers(1, 3)))
    index_fn = draw(st.sampled_from([pc_index, hashed_index]))
    seen: list[tuple] = [()]
    inserted: list[RTMEntry] = []
    ops = []
    for tag in range(draw(st.integers(1, 40))):
        pc = draw(st.integers(0, 3))
        if draw(st.booleans()):
            how = draw(st.sampled_from(["fresh", "again", "extend"]))
            if how == "again" and inserted:
                # same trace, new outputs: the stored entry is replaced
                old = draw(st.sampled_from(inserted))
                pc, length, inputs = old.start_pc, old.length, old.inputs
            else:
                length = draw(st.integers(1, 2))
                inputs = () if how == "fresh" else draw(st.sampled_from(seen))
                inputs += tuple(draw(input_lists))
                seen.append(inputs)
            inserted.append(RTMEntry(start_pc=pc, length=length, inputs=inputs,
                                     outputs=((9, tag),), next_pc=pc + 1))
            ops.append(("insert", inserted[-1]))
        else:
            current = dict(draw(st.lists(st.tuples(locations,
                                                   adversarial_values),
                                         max_size=3)))
            for inputs in draw(st.lists(st.sampled_from(seen), max_size=3)):
                current.update(inputs)
            ops.append(("lookup", pc, current))
    return config, index_fn, ops


def counters(rtm):
    return (rtm.lookups, rtm.hits, rtm.insertions, rtm.trace_evictions,
            rtm.pc_evictions, rtm.occupancy)


@given(rtm_programs())
@settings(max_examples=400, deadline=None)
def test_indexed_lookup_matches_linear_scan(program):
    config, index_fn, ops = program
    rtm = ReuseTraceMemory(config, index_fn=index_fn)
    ref = LinearScanRTM(config, index_fn)
    for op in ops:
        if op[0] == "insert":
            rtm.insert(op[1])
            ref.insert(op[1])
        else:
            got = rtm.lookup(op[1], op[2])
            want = ref.lookup(op[1], op[2])
            assert got is want
        assert counters(rtm) == counters(ref)
        stored = rtm.stored_entries()
        want_stored = ref.stored_entries()
        assert len(stored) == len(want_stored)
        assert all(a is b for a, b in zip(stored, want_stored))


class TestLookupValueSemantics:
    def small(self):
        return ReuseTraceMemory(RTMConfig("t", num_sets=1, ways=2, traces_per_pc=4))

    def test_int_matches_equal_float_and_zero_signs(self):
        rtm = self.small()
        rtm.insert(entry(inputs=((1, 1), (2, -0.0))))
        assert rtm.lookup(0, {1: 1.0, 2: 0.0}) is not None

    def test_nan_first_input_is_stored_but_never_matches(self):
        rtm = self.small()
        rtm.insert(entry(inputs=((1, SHARED_NAN),)))
        assert rtm.occupancy == 1 and rtm.insertions == 1
        assert rtm.lookup(0, {1: SHARED_NAN}) is None
        rtm.insert(entry(inputs=((1, SHARED_NAN),)))  # same object: refresh
        assert rtm.insertions == 1
        rtm.insert(entry(inputs=((1, float("nan")),)))  # fresh: new trace
        assert rtm.insertions == 2 and rtm.occupancy == 2

    def test_equal_length_tie_goes_to_most_recently_used(self):
        rtm = self.small()
        a = entry(inputs=((1, 5),), outputs=((2, "a"),))
        b = entry(inputs=((1, 5), (3, 7)), outputs=((2, "b"),))
        rtm.insert(a)
        rtm.insert(b)
        assert rtm.lookup(0, {1: 5, 3: 7}) is b
        rtm.insert(a)  # a re-insert refreshes a
        assert rtm.lookup(0, {1: 5, 3: 7}) is a

    def test_reinsert_replaces_the_stored_entry(self):
        rtm = self.small()
        rtm.insert(entry(inputs=((1, 1),), outputs=((2, 2),)))
        newer = entry(inputs=((1, 1.0),), outputs=((2, 2.0),))
        rtm.insert(newer)
        assert rtm.stored_entries() == [newer]
        assert rtm.lookup(0, {1: 1}) is newer

    def test_zero_input_entry_matches_any_state(self):
        rtm = self.small()
        rtm.insert(entry(inputs=(), length=2))
        rtm.insert(entry(inputs=((1, 5),), length=1))
        assert rtm.lookup(0, {}).length == 2
        assert rtm.lookup(0, {1: 5}).length == 2
