"""Differential tests: the one-pass multi-scenario engine against the
per-scenario model.

:class:`StreamingDataflowEngine` folds every reuse-plan family over one
shared dependence precompute, block by block.  The per-scenario
:class:`DataflowModel` (plus the plan builders in ``baselines.ilr`` and
``core.reuse_tlr``) is the slow oracle; the engine must match it
bit-for-bit, not just within a tolerance, at any chunk size and block
cap.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ilr import ilr_reuse_plan, instruction_reusability
from repro.core.reuse_tlr import (
    ConstantReuseLatency,
    ProportionalReuseLatency,
    tlr_reuse_plan,
)
from repro.core.stats import trace_io_stats
from repro.core.traces import average_span_length, maximal_reusable_spans
from repro.dataflow import streaming
from repro.dataflow.model import DataflowModel, Scenario
from repro.dataflow.streaming import StreamingDataflowEngine
from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_profile, run_profile_reference
from repro.workloads.base import run_workload

from test_model_properties import dyn_streams


def reference_result(stream, scenario, flags, spans):
    """Evaluate one scenario through the original per-scenario path."""
    model = DataflowModel(scenario.window_size)
    if scenario.kind == "base":
        return model.analyze(stream)
    if scenario.kind == "ilr":
        plan = ilr_reuse_plan(stream, flags, scenario.latency)
        return model.analyze(stream, plan)
    if scenario.k is not None:
        latency_model = ProportionalReuseLatency(scenario.k)
    else:
        latency_model = ConstantReuseLatency(scenario.latency)
    plan = tlr_reuse_plan(
        stream, spans, latency_model, fetch_free=scenario.fetch_free
    )
    return model.analyze(stream, plan)


@st.composite
def scenarios(draw):
    """Random scenarios spanning every reuse family and window regime."""
    kind = draw(st.sampled_from(["base", "ilr", "tlr"]))
    window = draw(st.none() | st.integers(min_value=1, max_value=12))
    latency = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    k = None
    fetch_free = True
    if kind == "tlr":
        fetch_free = draw(st.booleans())
        if draw(st.booleans()):
            k = draw(st.sampled_from([1 / 8, 1 / 2, 1.0]))
    return Scenario(
        kind, window_size=window, latency=latency, k=k, fetch_free=fetch_free
    )


def assert_matches_oracle(stream, results, scens):
    flags = instruction_reusability(stream).flags
    spans = maximal_reusable_spans(stream, flags)
    for scenario, got in zip(scens, results):
        ref = reference_result(stream, scenario, flags, spans)
        assert got.instruction_count == ref.instruction_count
        assert got.total_cycles == ref.total_cycles  # exact, not approx
        assert got.reused_count == ref.reused_count
        assert got.window_size == ref.window_size


@given(dyn_streams(), st.lists(scenarios(), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=200, deadline=None)
def test_fused_engine_matches_per_scenario_model(stream, scens, chunk_size,
                                                 cap):
    """Any chunking and any block cap — including streams many times
    longer than the cap — give the oracle's numbers, folded in this
    process alone or split with a worker process."""
    for executors in (1, 2):
        with mock.patch.object(streaming, "BLOCK_CAP", cap), \
                mock.patch.object(streaming, "_cpu_count",
                                  lambda: executors):
            engine = StreamingDataflowEngine(stream, chunk_size=chunk_size)
            results = engine.analyze_all(scens)
        assert_matches_oracle(stream, results, scens)
    reuse = instruction_reusability(stream)
    spans = maximal_reusable_spans(stream, reuse.flags)
    assert engine.reuse.reusable_count == reuse.reusable_count
    assert engine.reuse.signature_count == reuse.signature_count
    assert engine.span_count == len(spans)
    assert engine.avg_span_length == average_span_length(spans)
    assert engine.io_stats == trace_io_stats(spans)


@given(dyn_streams())
@settings(max_examples=100, deadline=None)
def test_analyze_all_matches_individual_calls(stream):
    engine = StreamingDataflowEngine(stream, chunk_size=5)
    scens = [
        Scenario("base", window_size=None),
        Scenario("base", window_size=8),
        Scenario("ilr", window_size=8, latency=2.0),
        Scenario("tlr", window_size=None, latency=1.0),
        Scenario("tlr", window_size=8, k=1 / 4),
    ]
    batch = engine.analyze_all(scens)
    for scenario, result in zip(scens, batch):
        (single,) = engine.analyze_all([scenario])
        assert result == single


class TestOnRealWorkloads:
    """The full profile pipeline, engine vs. reference, on real kernels."""

    def test_profiles_bit_identical(self):
        config = ExperimentConfig(max_instructions=3_000, use_cache=False)
        for name in ("compress", "tomcatv"):
            fused = run_profile(name, config)
            reference = run_profile_reference(name, config)
            assert fused == reference

    def test_engine_accepts_columnar_trace(self):
        trace = run_workload("li", max_instructions=2_000, use_cache=False)
        (result,) = StreamingDataflowEngine(trace).analyze_all(
            [Scenario("base", window_size=64)])
        ref = DataflowModel(64).analyze(trace)
        assert result.total_cycles == ref.total_cycles

    def test_stream_longer_than_block_cap(self):
        """A real trace spanning several production-size blocks and
        chunks matches the oracle on every scenario family."""
        trace = run_workload("go", max_instructions=3 * streaming.BLOCK_CAP,
                             use_cache=False)
        scens = [
            Scenario("base", window_size=256),
            Scenario("ilr", window_size=256, latency=1.0),
            Scenario("tlr", window_size=None, latency=2.0),
            Scenario("tlr", window_size=256, k=1 / 8),
            Scenario("tlr", window_size=256, latency=1.0, fetch_free=False),
        ]
        results = StreamingDataflowEngine(
            trace, chunk_size=10_000).analyze_all(scens)
        assert_matches_oracle(trace, results, scens)


class TestScenarioValidation:
    def test_unknown_kind(self):
        import pytest

        with pytest.raises(ValueError, match="unknown scenario kind"):
            Scenario("frobnicate")

    def test_bad_window(self):
        import pytest

        with pytest.raises(ValueError, match="window_size"):
            Scenario("base", window_size=0)

    def test_k_requires_tlr(self):
        import pytest

        with pytest.raises(ValueError, match="proportional"):
            Scenario("ilr", k=0.5)
