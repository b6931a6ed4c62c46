"""The realistic finite-table engine, end to end."""

import hashlib
import json
import pathlib

import pytest

import repro.workloads  # registers the kernels
from repro.core.rtm.collector import FixedLengthHeuristic, ILRHeuristic
from repro.core.rtm.memory import RTM_PRESETS, RTMConfig
from repro.core.rtm.simulator import FiniteReuseSimulator
from repro.baselines.ilr import instruction_reusability
from repro.workloads.base import all_workloads, run_workload

from conftest import run_asm


def small_rtm(name="t", num_sets=8, ways=4, traces_per_pc=4):
    return RTMConfig(name, num_sets=num_sets, ways=ways, traces_per_pc=traces_per_pc)


@pytest.fixture(scope="module")
def loopy_trace():
    _, trace = run_asm(
        """
        .data
    tab: .word 3 1 4 1 5 9 2 6
        .text
    main:
        li   s0, 30
    pass:
        la   t0, tab
        li   t1, 0
        li   t2, 8
    loop:
        add  t3, t0, t1
        lw   t4, 0(t3)
        mul  t5, t4, t4
        sw   t5, 16(t3)
        addi t1, t1, 1
        blt  t1, t2, loop
        subi s0, s0, 1
        bgtz s0, pass
        halt
        """,
        max_instructions=3000,
    )
    return trace


class TestFiniteReuseSimulator:
    def test_ilr_ne_finds_reuse(self, loopy_trace):
        sim = FiniteReuseSimulator(small_rtm(), ILRHeuristic(expand=False))
        result = sim.run(loopy_trace)
        assert result.reuse_events > 0
        assert 0 < result.percent_reused <= 100.0
        assert result.avg_reused_trace_size >= 1.0

    def test_fixed_heuristic_finds_reuse(self, loopy_trace):
        sim = FiniteReuseSimulator(small_rtm(), FixedLengthHeuristic(4))
        result = sim.run(loopy_trace)
        assert result.reuse_events > 0

    def test_validation_is_on_by_default(self, loopy_trace):
        # validate=True checks every reuse against the actual stream;
        # a clean run means collection recorded complete live-in sets
        sim = FiniteReuseSimulator(small_rtm(), ILRHeuristic(expand=True))
        sim.run(loopy_trace)  # must not raise TraceMismatchError

    def test_reused_ranges_disjoint_and_ordered(self, loopy_trace):
        sim = FiniteReuseSimulator(small_rtm(), ILRHeuristic(expand=True))
        result = sim.run(loopy_trace)
        prev_stop = 0
        for start, stop in result.reused_ranges:
            assert start >= prev_stop
            assert stop > start
            prev_stop = stop

    def test_reuse_accounting_consistent(self, loopy_trace):
        sim = FiniteReuseSimulator(small_rtm(), ILRHeuristic(expand=False))
        result = sim.run(loopy_trace)
        assert result.reused_instructions == sum(
            stop - start for start, stop in result.reused_ranges
        )
        assert result.reuse_events == len(result.reused_ranges)
        assert result.total_instructions == len(loopy_trace)

    def test_finite_bounded_by_infinite_limit(self, loopy_trace):
        # a finite engine can never reuse more instructions than the
        # infinite-history instruction-level limit (Theorem 1)
        limit = instruction_reusability(loopy_trace)
        sim = FiniteReuseSimulator(small_rtm(), ILRHeuristic(expand=True))
        result = sim.run(loopy_trace)
        assert result.reused_instructions <= limit.reusable_count

    def test_bigger_rtm_never_worse_on_thrashing_workload(self, loopy_trace):
        tiny = FiniteReuseSimulator(
            small_rtm(num_sets=1, ways=1, traces_per_pc=1), ILRHeuristic()
        ).run(loopy_trace)
        big = FiniteReuseSimulator(
            small_rtm(num_sets=16, ways=8, traces_per_pc=8), ILRHeuristic()
        ).run(loopy_trace)
        assert big.reused_instructions >= tiny.reused_instructions

    def test_expansion_grows_average_trace(self, loopy_trace):
        ne = FiniteReuseSimulator(small_rtm(), ILRHeuristic(expand=False)).run(
            loopy_trace
        )
        exp = FiniteReuseSimulator(small_rtm(), ILRHeuristic(expand=True)).run(
            loopy_trace
        )
        assert exp.avg_reused_trace_size >= ne.avg_reused_trace_size

    def test_fixed_length_trace_size_grows_with_n(self, loopy_trace):
        small_n = FiniteReuseSimulator(small_rtm(), FixedLengthHeuristic(1)).run(
            loopy_trace
        )
        large_n = FiniteReuseSimulator(small_rtm(), FixedLengthHeuristic(6)).run(
            loopy_trace
        )
        if small_n.reuse_events and large_n.reuse_events:
            assert large_n.avg_reused_trace_size > small_n.avg_reused_trace_size

    def test_io_limits_respected_in_entries(self, loopy_trace):
        from repro.core.rtm.memory import ReuseTraceMemory

        # run with very tight limits and check the reused trace sizes
        from repro.core.traces import TraceLimits

        sim = FiniteReuseSimulator(
            small_rtm(),
            ILRHeuristic(expand=True),
            limits=TraceLimits(max_reg_inputs=2, max_mem_inputs=1,
                               max_reg_outputs=2, max_mem_outputs=1),
        )
        result = sim.run(loopy_trace)  # must not raise
        assert result.total_instructions == len(loopy_trace)

    def test_empty_stream(self):
        sim = FiniteReuseSimulator(small_rtm(), ILRHeuristic())
        result = sim.run([])
        assert result.total_instructions == 0
        assert result.percent_reused == 0.0
        assert result.avg_reused_trace_size == 0.0

    def test_result_labels(self, loopy_trace):
        sim = FiniteReuseSimulator(RTM_PRESETS["512"], FixedLengthHeuristic(2))
        result = sim.run(loopy_trace)
        assert result.heuristic_name == "I2 EXP"
        assert result.rtm_name == "512"

    def test_paper_presets_run(self, loopy_trace):
        for name in ("512", "4K"):
            result = FiniteReuseSimulator(
                RTM_PRESETS[name], ILRHeuristic(expand=True)
            ).run(loopy_trace)
            assert result.total_instructions == len(loopy_trace)


#: counters and reused-range digests recorded before the RTM lookup
#: index and the segment walk (see the file's "about")
PINNED = json.loads(
    (pathlib.Path(__file__).parent / "data" / "rtm_pinned.json").read_text())


def pinned_row(result):
    ranges = "".join(f"{a}:{b};" for a, b in result.reused_ranges)
    return [
        result.total_instructions, result.reused_instructions,
        result.reuse_events, result.rtm_insertions, result.rtm_occupancy,
        result.rtm_invalidations, result.collector_limit_terminations,
        hashlib.sha256(ranges.encode()).hexdigest()[:16],
    ]


@pytest.mark.parametrize("kernel", [w.name for w in all_workloads()])
def test_results_match_pinned(kernel):
    """Presets 512/256K x ILR NE/ILR EXP/I1/I4 x both reuse tests give
    the pinned counters and reused ranges."""
    trace = run_workload(kernel, max_instructions=PINNED["budget"],
                         use_cache=False)
    for size in ("512", "256K"):
        for heuristic in (ILRHeuristic(False), ILRHeuristic(True),
                          FixedLengthHeuristic(1), FixedLengthHeuristic(4)):
            for reuse_test in ("compare", "invalidate"):
                result = FiniteReuseSimulator(
                    RTM_PRESETS[size], heuristic, reuse_test=reuse_test,
                ).run(trace)
                key = f"{kernel}/{size}/{heuristic.name}/{reuse_test}"
                assert pinned_row(result) == PINNED["results"][key], key
