"""Differential tests of the vectorized shared layers on adversarial values.

The columnar ILR pass (:func:`repro.baselines.ilr.reusability_flags`)
keys each read value canonically in numpy, and the engine's block
precompute resolves producers and span live-ins with one sort.  Both
must agree exactly with the row-path oracles — ``instruction_reusability``
on ``DynInst`` rows (Python set membership, so Python ``==``) and
``DataflowModel`` — on values where a bit-level encoding is easy to
get wrong: ``1``/``1.0``/``-0.0``, NaNs shared and distinct, ints
beyond int64, floats at 2**63, bools and numpy scalars.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import ilr
from repro.baselines.ilr import instruction_reusability
from repro.core.traces import compute_liveness
from repro.dataflow import streaming
from repro.dataflow.model import Scenario
from repro.dataflow.streaming import StreamingDataflowEngine
from repro.isa.opcodes import Opcode
from repro.vm.trace import ColumnarTrace, DynInst
from repro.vm.tracestream import ColumnarChunkStream

from test_fused_engine import assert_matches_oracle

#: One NaN object: rows holding it compare equal to one another
NAN = float("nan")

#: Values that collide, or nearly collide, under naive encodings
TRICKY = [
    0, 1, -1, 1.0, 0.0, -0.0, 0.5, -0.5, 3, 3.0, 2.5,
    True, False, np.int64(1), np.int32(-1), np.uint8(3), np.float64(0.5),
    np.float32(2.5), np.float64(3.0), np.bool_(True),
    2 ** 53, 2 ** 53 + 1, 2.0 ** 53,
    2 ** 63 - 1, 2 ** 63, 2.0 ** 63, -2 ** 63, -2.0 ** 63, -2 ** 63 - 1,
    2 ** 64 + 1, 2 ** 70, 2.0 ** 70, -(2 ** 70), 10 ** 30,
    float("inf"), float("-inf"), NAN,
    # the int whose bits equal 0.5's: only the tag keeps them apart
    int(np.float64(0.5).view(np.int64)),
]

values = st.one_of(
    st.sampled_from(TRICKY),
    # a fresh NaN object per draw: equal to nothing, itself included
    st.builds(float, st.just("nan")),
)


@st.composite
def adversarial_streams(draw):
    """Rows over few pcs, locations and values, so signatures repeat;
    up to five reads (locations may repeat) and two writes each."""
    n = draw(st.integers(min_value=1, max_value=40))
    locs = st.integers(0, 4)
    stream = []
    for _ in range(n):
        pc = draw(st.integers(0, 4))
        reads = tuple(draw(st.lists(st.tuples(locs, values), max_size=5)))
        writes = tuple(draw(st.lists(st.tuples(locs, values), max_size=2)))
        latency = draw(st.sampled_from([1, 2, 5]))
        stream.append(DynInst(pc, Opcode.ADD, reads, writes, latency, pc + 1))
    return stream


def columnar(rows) -> ColumnarTrace:
    ct = ColumnarTrace()
    for inst in rows:
        ct.append(inst.pc, inst.op, inst.reads, inst.writes, inst.latency,
                  inst.next_pc)
    return ct


SCENARIOS = [
    Scenario("base", window_size=None),
    Scenario("base", window_size=4),
    Scenario("ilr", window_size=4, latency=1.0),
    Scenario("tlr", window_size=None, latency=2.0),
    Scenario("tlr", window_size=4, k=1 / 4),
    Scenario("tlr", window_size=4, latency=1.0, fetch_free=False),
]


def assert_flags_match(rows, chunk_size):
    want = instruction_reusability(rows)
    got = instruction_reusability(
        ColumnarChunkStream(columnar(rows), chunk_size=chunk_size))
    assert got.flags == want.flags
    assert got.static_count == want.static_count
    assert got.signature_count == want.signature_count


#: Pairs of values that are equal (the second instance is reusable)
#: or not under Python's ``==``, for one read of one location
PAIRS = [
    (1, 1.0), (0, -0.0), (True, 1), (np.int64(7), 7.0),
    (np.float32(2.5), 2.5), (NAN, NAN), (float("nan"), float("nan")),
    (2 ** 63, 2.0 ** 63), (-2 ** 63, -2.0 ** 63), (2 ** 70, 2.0 ** 70),
    (0.5, int(np.float64(0.5).view(np.int64))), (2 ** 53 + 1, 2.0 ** 53),
    (float("inf"), 2 ** 1024), (10 ** 30, 1e30),
]


@pytest.mark.parametrize("first, second", PAIRS)
def test_value_pairs_match_row_path(first, second):
    """Each pair, alone and beside a float read (a mixed column)."""
    for extra in ((), ((3, 0.25),)):
        rows = [DynInst(0, Opcode.ADD, ((1, v),) + extra, (), 1, 1)
                for v in (first, second)]
        for chunk_size in (1, 7):
            assert_flags_match(rows, chunk_size)


@given(adversarial_streams())
@settings(max_examples=150, deadline=None)
def test_flags_match_row_path(rows):
    for chunk_size in (1, 7, 4096):
        assert_flags_match(rows, chunk_size)
    # slices shorter than a segment key across slice boundaries too
    with mock.patch.object(ilr, "SLICE_CAP", 3):
        assert_flags_match(rows, 4096)


@given(adversarial_streams())
@settings(max_examples=60, deadline=None)
def test_forced_hash_collision_changes_no_flag(rows):
    """With every row hashing alike, the exact comparison must catch
    each collision and fall back to one key per row."""
    def colliding(matrix):
        return np.zeros(len(matrix), np.uint64)

    with mock.patch.object(ilr, "_row_hash", colliding):
        for chunk_size in (1, 7, 4096):
            assert_flags_match(rows, chunk_size)


@given(adversarial_streams(), st.sampled_from([1, 7, 4096]),
       st.integers(min_value=1, max_value=9))
@settings(max_examples=100, deadline=None)
def test_engine_matches_dataflow_model(rows, chunk_size, cap):
    """Profiles, reuse counts and span statistics equal the oracles'
    at any chunk size and block cap."""
    with mock.patch.object(streaming, "BLOCK_CAP", cap), \
            mock.patch.object(streaming, "_cpu_count", lambda: 1):
        engine = StreamingDataflowEngine(columnar(rows),
                                         chunk_size=chunk_size)
        results = engine.analyze_all(SCENARIOS)
    assert_matches_oracle(rows, results, SCENARIOS)
    reuse = instruction_reusability(rows)
    assert engine.reuse.reusable_count == reuse.reusable_count
    assert engine.reuse.static_count == reuse.static_count


@st.composite
def reusable_streams(draw):
    """Rows over two values, so many signatures repeat and reusable runs
    are common; up to four reads and two writes each."""
    n = draw(st.integers(min_value=1, max_value=40))
    locs = st.integers(0, 4)
    small = st.sampled_from([0, 1, 1.0])
    rows = []
    for _ in range(n):
        pc = draw(st.integers(0, 2))
        reads = tuple(draw(st.lists(st.tuples(locs, small), max_size=4)))
        writes = tuple(draw(st.lists(st.tuples(locs, small), max_size=2)))
        rows.append(DynInst(pc, Opcode.ADD, reads, writes, 1, pc + 1))
    return rows


def reference_block(rows, flags):
    """The block fields by a walk over the rows: each read resolves to
    its location's last writer so far (or its seed), and each maximal
    reusable run's live-ins and live-outs come from
    :func:`compute_liveness`."""
    seeds = list(dict.fromkeys(loc for inst in rows for loc, _ in inst.reads))
    m = len(seeds)
    writer = dict(zip(seeds, range(m)))
    prods, span_ids, gate_refs, span_io = [], [], [], []
    for j, inst in enumerate(rows):
        if flags[j] and (j == 0 or not flags[j - 1]):
            k = j
            while k < len(rows) and flags[k]:
                k += 1
            live_in, live_out = compute_liveness(rows[j:k])
            gate_refs.append(tuple(dict.fromkeys(
                writer[loc] for loc, _ in live_in)))
            span_io.append((len(live_in), len(live_out)))
        span_ids.append(len(gate_refs) - 1 if flags[j] else -1)
        ps = list(dict.fromkeys(writer[loc] for loc, _ in inst.reads))
        prods.append(None if not ps else ps[0] if len(ps) == 1
                     else tuple(ps) if len(ps) == 2 else ps)
        for loc, _ in inst.writes:
            writer[loc] = m + j
    written = {loc: j for loc, j in writer.items() if j >= m}
    return dict(prods=prods, span_ids=span_ids, gate_refs=gate_refs,
                span_io=span_io, seeds=seeds, written=list(written),
                written_refs=list(written.values()))


#: One instruction writes locations 1 and 2; a later reusable one reads
#: both as live-ins, so its span's gate names that producer once
SHARED_PRODUCER = [
    DynInst(0, Opcode.ADD, (), ((1, 0), (2, 0)), 1, 1),
    DynInst(1, Opcode.ADD, ((1, 0), (2, 0)), (), 1, 2),
    DynInst(1, Opcode.ADD, ((1, 0), (2, 0), (1, 0)), ((3, 1),), 1, 2),
    DynInst(1, Opcode.ADD, ((1, 0), (2, 0), (1, 0)), ((3, 1),), 1, 2),
]


@given(reusable_streams())
@example(SHARED_PRODUCER)
@settings(max_examples=200, deadline=None)
def test_block_fields_match_row_walk(rows):
    """The sort-based precompute gives the row walk's block, field for
    field and type for type — including the gate refs of a span whose
    live-ins share one multi-write producer."""
    flags = bytearray(instruction_reusability(rows).flags)
    pre, _ = streaming._precompute(columnar(rows), 0, len(rows), flags)
    for name, want in reference_block(rows, flags).items():
        got = getattr(pre, name)
        assert got == want, name
        assert [type(x) for x in got] == [type(x) for x in want], name


class TestCanonicalKeys:
    """Equal values share a key; unequal ones never do."""

    def keys(self, vals):
        keys, float_bits, exact = ilr._value_keys(vals)
        return keys.tolist(), float_bits.tolist(), exact

    def test_int_and_integral_float_share_a_key(self):
        keys, bits, exact = self.keys([1, 1.0, True, np.float32(1.0)])
        assert keys == [1, 1, 1, 1] and not any(bits) and exact is None

    def test_negative_zero_keys_as_zero(self):
        keys, bits, _ = self.keys([0, -0.0, 0.0])
        assert keys == [0, 0, 0] and not any(bits)

    def test_non_integral_float_keys_by_bits_with_a_tag(self):
        alias = int(np.float64(0.5).view(np.int64))
        keys, bits, _ = self.keys([0.5, alias])
        assert keys == [alias, alias] and bits == [True, False]

    def test_int64_boundary(self):
        keys, _, exact = self.keys([-2 ** 63, -2.0 ** 63, 2 ** 63 - 1])
        assert keys == [-2 ** 63, -2 ** 63, 2 ** 63 - 1]
        assert exact is None

    def test_values_without_a_canonical_key(self):
        vals = [NAN, 2 ** 63, 2.0 ** 63, 10 ** 30, 1]
        _, _, exact = self.keys(vals)
        assert exact.tolist() == [True, True, True, True, False]

    def test_large_ints_beside_floats_stay_exact(self):
        # a mixed column converts to float64; 2**53 + 1 must not round
        keys, _, exact = self.keys([0.5, 2 ** 53 + 1, 2 ** 53])
        assert keys[1:] == [2 ** 53 + 1, 2 ** 53] and exact is None
