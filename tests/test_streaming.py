"""The streaming pipeline's bit-identity contract.

Every consumer of a chunk stream — the dataflow engine, the RTM
simulator, the ILR/distance/block/prediction baselines, and the
profile runner — must produce numbers *bit-identical* to its
materialized counterpart (for the engine: the per-scenario
``DataflowModel`` oracle), at any chunk size.  The beyond-RAM test
then proves the point of it all: under an address-space limit where
the materialized pipeline dies of MemoryError, the streaming pipeline
completes, stays far below the limit in resident memory, and still
matches.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import repro.workloads  # registers the kernels
from repro.baselines.block import basic_block_spans
from repro.baselines.ilr import instruction_reusability, reusability_by_class
from repro.baselines.prediction import (
    LastValuePredictor,
    StridePredictor,
    value_predictability,
)
from repro.baselines.reuse_distance import signature_reuse_distances
from repro.core.rtm.collector import FixedLengthHeuristic, ILRHeuristic
from repro.core.rtm.memory import RTM_PRESETS
from repro.core.rtm.simulator import FiniteReuseSimulator
from repro.core.traces import maximal_reusable_spans
from repro.dataflow.model import Scenario
from repro.dataflow.streaming import StreamingDataflowEngine
from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_profile, run_profile_reference
from repro.vm.trace import slice_columnar
from repro.vm.tracestream import as_chunk_stream
from repro.workloads.base import all_workloads, run_workload, stream_workload

from test_fused_engine import reference_result

KERNELS = [w.name for w in all_workloads()]

SCENARIOS = [
    Scenario("base", window_size=None),
    Scenario("base", window_size=256),
    Scenario("base", window_size=7),
    Scenario("ilr", window_size=None, latency=1.0),
    Scenario("ilr", window_size=256, latency=2.0),
    Scenario("tlr", window_size=None, latency=1.0),
    Scenario("tlr", window_size=256, latency=1.0),
    Scenario("tlr", window_size=7, latency=3.0),
    Scenario("tlr", window_size=256, k=1 / 8),
    Scenario("tlr", window_size=256, latency=1.0, fetch_free=True),
]


def oracle_results(trace):
    """Every scenario through the per-scenario ``DataflowModel`` path."""
    reuse = instruction_reusability(trace)
    spans = maximal_reusable_spans(trace, reuse.flags)
    results = [reference_result(trace, s, reuse.flags, spans)
               for s in SCENARIOS]
    return results, reuse, spans


class TestStreamingEngine:
    @pytest.mark.parametrize("chunk_size", [7, 997, 65536])
    def test_bit_identical_to_fused(self, chunk_size):
        """The one-pass multi-scenario result equals the oracle's."""
        trace = run_workload("compress", max_instructions=4_000)
        expected, reuse, spans = oracle_results(trace)
        engine = StreamingDataflowEngine(trace, chunk_size=chunk_size)
        got = engine.analyze_all(SCENARIOS)
        assert got == expected
        assert engine.n == len(trace)
        assert engine.reuse.reusable_count == reuse.reusable_count
        assert engine.reuse.percent_reusable == reuse.percent_reusable
        assert engine.span_count == len(spans)

    def test_all_kernels_one_chunk_size(self):
        for name in KERNELS:
            trace = run_workload(name, max_instructions=2_000)
            expected, _, _ = oracle_results(trace)
            got = StreamingDataflowEngine(
                trace, chunk_size=311).analyze_all(SCENARIOS)
            assert got == expected, name

    def test_io_stats_match(self):
        from repro.core.stats import trace_io_stats

        trace = run_workload("li", max_instructions=3_000)
        reuse = instruction_reusability(trace)
        spans = maximal_reusable_spans(trace, reuse.flags)
        engine = StreamingDataflowEngine(trace, chunk_size=100)
        engine.analyze_all([Scenario("base", window_size=None)])
        assert engine.io_stats == trace_io_stats(spans)


class TestStreamingConsumers:
    @pytest.fixture(scope="class")
    def kernel(self):
        name = "compress"
        trace = run_workload(name, max_instructions=3_000)
        return name, trace

    def stream(self, trace, chunk_size=257):
        return as_chunk_stream(trace, chunk_size=chunk_size)

    def test_reusability(self, kernel):
        _, trace = kernel
        expected = instruction_reusability(trace)
        got = instruction_reusability(self.stream(trace))
        assert got.flags == expected.flags
        assert got.reusable_count == expected.reusable_count
        assert got.signature_count == expected.signature_count
        assert got.static_count == expected.static_count

    def test_reusability_by_class(self, kernel):
        _, trace = kernel
        flags = instruction_reusability(trace).flags
        assert (reusability_by_class(self.stream(trace), flags)
                == reusability_by_class(trace, flags))

    def test_maximal_spans(self, kernel):
        _, trace = kernel
        flags = instruction_reusability(trace).flags
        assert (maximal_reusable_spans(self.stream(trace), flags)
                == maximal_reusable_spans(trace, flags))

    def test_block_spans(self, kernel):
        _, trace = kernel
        flags = instruction_reusability(trace).flags
        assert (basic_block_spans(self.stream(trace), flags)
                == basic_block_spans(trace, flags))

    def test_predictors(self, kernel):
        _, trace = kernel
        for predictor_cls in (LastValuePredictor, StridePredictor):
            expected = value_predictability(trace, predictor_cls())
            got = value_predictability(self.stream(trace), predictor_cls())
            assert got.flags == expected.flags
            assert got.predicted_count == expected.predicted_count

    def test_reuse_distance(self, kernel):
        _, trace = kernel
        expected = signature_reuse_distances(trace)
        got = signature_reuse_distances(self.stream(trace))
        assert got.distances == expected.distances
        assert got.total_count == expected.total_count

    @pytest.mark.parametrize("reuse_test", ["compare", "invalidate"])
    def test_rtm_simulator(self, kernel, reuse_test):
        _, trace = kernel
        cuts = 0
        for heuristic in (ILRHeuristic(False), ILRHeuristic(True),
                          FixedLengthHeuristic(4)):
            expected = FiniteReuseSimulator(
                RTM_PRESETS["512"], heuristic, reuse_test=reuse_test,
            ).run(trace)
            # a stream cut inside a reused trace: the lookup at the cut
            # trace's start finds the entry but the stream ends first
            start, stop = next(((a, b) for a, b in expected.reused_ranges
                                if b - a > 1), (len(trace), len(trace) + 1))
            cuts += stop <= len(trace)
            cut = slice_columnar(trace, 0, stop - 1)
            cut_expected = FiniteReuseSimulator(
                RTM_PRESETS["512"], heuristic, reuse_test=reuse_test,
            ).run(cut)
            assert cut_expected.total_instructions == stop - 1
            assert [r for r in cut_expected.reused_ranges if r[1] <= start] \
                == [r for r in expected.reused_ranges if r[1] <= start]
            assert all(b <= stop - 1 for _, b in cut_expected.reused_ranges)
            for source, want in ((trace, expected), (cut, cut_expected)):
                for chunk_size in (1, 7, 4096):
                    got = FiniteReuseSimulator(
                        RTM_PRESETS["512"], heuristic, reuse_test=reuse_test,
                    ).run(self.stream(source, chunk_size=chunk_size))
                    assert rtm_fields(got) == rtm_fields(want), chunk_size
        assert cuts > 0


def rtm_fields(result):
    """Every field of a ``FiniteReuseResult``, entries by value."""
    fields = dataclasses.asdict(result)
    fields["reused_entries"] = [
        (e.start_pc, e.length, e.inputs, e.outputs, e.next_pc)
        for e in result.reused_entries]
    return repr(fields)


class TestStreamingProfiles:
    CONFIG = ExperimentConfig(
        max_instructions=1_500,
        reuse_latencies=(1, 4),
        proportional_ks=(1 / 8, 1.0),
        use_cache=False,
    )

    def test_profiles_bit_identical_all_kernels(self, monkeypatch):
        """Bit-identical to the oracle however many processes fold."""
        from repro.dataflow import streaming

        for name in KERNELS:
            b = dataclasses.asdict(run_profile_reference(name, self.CONFIG))
            for executors in (1, 2, 3):
                monkeypatch.setattr(streaming, "_cpu_count",
                                    lambda: executors)
                a = run_profile(name, self.CONFIG)
                assert dataclasses.asdict(a) == b, (name, executors)

    def test_chunk_size_invariance(self):
        a = run_profile("go", self.CONFIG)
        for chunk in (1, 7, 4096):
            cfg = dataclasses.replace(self.CONFIG, stream_chunk_size=chunk)
            b = run_profile("go", cfg)
            assert dataclasses.asdict(a) == dataclasses.asdict(b), chunk

    def test_run_profile_dispatches_on_config(self, monkeypatch):
        """``tier0_static`` is the one config field that routes a profile
        away from execution."""
        from repro.vm import backends

        def no_machine(*args, **kwargs):
            raise AssertionError("tier-0 must not execute")

        monkeypatch.setattr(backends, "create_machine", no_machine)
        cfg = dataclasses.replace(self.CONFIG, tier0_static=True)
        assert run_profile("li", cfg).name == "li"

    def test_run_profile_dispatches_on_env(self, monkeypatch):
        """``REPRO_BACKEND`` picks the backend when the config leaves it
        open; the profile is the same either way."""
        from repro.vm import backends

        used = []
        real = backends.create_machine

        def spy(program, backend):
            used.append(backend)
            return real(program, backend)

        monkeypatch.setattr(backends, "create_machine", spy)
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        a = run_profile("li", self.CONFIG)
        assert used and set(used) == {"fast"}
        monkeypatch.setenv("REPRO_BACKEND", "interp")
        b = run_profile("li", self.CONFIG)
        assert "interp" in used
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_cache_key_shared_across_pipelines(self):
        """Chunking is not part of the key, and a record written with
        the retired pipeline knobs maps onto the same entry."""
        base = self.CONFIG
        chunked = dataclasses.replace(base, stream_chunk_size=777)
        assert base.cache_key() == chunked.cache_key()
        legacy = dict(base.to_dict(), streaming=True, direct_stream=False)
        assert ExperimentConfig.from_dict(legacy).cache_key() == base.cache_key()


#: Budget/limit pair at which the materialized pipeline exceeds the
#: address-space limit but the O(chunk) streaming pipeline does not
#: (measured: the materialized oracle pipeline grows by ~240 MiB at
#: 600k instructions; the streaming run by ~65 MiB, most of it the RTM
#: simulator's tables).
_BEYOND_RAM_BUDGET = 600_000
_BEYOND_RAM_LIMIT = 192 * 1024 * 1024
#: Largest peak-RSS growth (``VmHWM``) over the post-import baseline
#: the streaming run may show: half the limit, and well under what the
#: materialized pipeline needs.
_BEYOND_RAM_GROWTH = 96 * 1024 * 1024

#: ``RLIMIT_AS`` counts address space, not memory: every OpenBLAS or
#: trace-codec thread reserves stack, and glibc may give each thread a
#: 64 MiB malloc arena reservation, none of it touched; their number
#: follows the host's CPU count and thread timing.  The subprocesses
#: pin BLAS and codec threads to one and malloc to one arena, so the
#: limit means the same on any host and in any run (measured: with a
#: second arena the streaming run's VmPeak landed on the cap itself,
#: failing now and then; with one it stays ~10 MiB under).  Trace
#: files are byte-identical at any codec pool size.
_BEYOND_RAM_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "REPRO_CODEC_THREADS": "1",
    "MALLOC_ARENA_MAX": "1",
}

_MAT_SNIPPET = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS,
                   ({limit}, {limit}))
from repro.workloads.base import run_workload
from repro.baselines.ilr import instruction_reusability
from repro.core.reuse_tlr import ConstantReuseLatency, tlr_reuse_plan
from repro.core.traces import maximal_reusable_spans
from repro.dataflow.model import DataflowModel
t = run_workload("compress", max_instructions={budget},
                 use_cache=False, backend="fast")
r = instruction_reusability(t)
s = maximal_reusable_spans(t, r.flags)
plan = tlr_reuse_plan(t, s, ConstantReuseLatency(1.0))
DataflowModel(256).analyze(t, plan)
print("materialized unexpectedly fit")
"""

_STREAM_SNIPPET = """\
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS,
                   ({limit}, {limit}))
from repro.workloads.base import stream_workload
from repro.dataflow.streaming import StreamingDataflowEngine
from repro.dataflow.model import Scenario
from repro.core.rtm.memory import RTM_PRESETS
from repro.core.rtm.simulator import FiniteReuseSimulator
from repro.core.rtm.collector import ILRHeuristic
def peak():
    # VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so a
    # child of a big test process would start at the parent's peak
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
baseline = peak()
e = StreamingDataflowEngine(
    stream_workload("compress", max_instructions={budget}, backend="fast"))
res = e.analyze_all([Scenario("base", window_size=256),
                     Scenario("tlr", window_size=256, latency=1.0)])
sim = FiniteReuseSimulator(RTM_PRESETS["512"], ILRHeuristic(False))
rtm = sim.run(
    stream_workload("compress", max_instructions={budget}, backend="fast"))
print(json.dumps({{
    "rss_growth": peak() - baseline,
    "n": e.n,
    "percent_reusable": e.reuse.percent_reusable,
    "span_count": e.span_count,
    "base_cycles": res[0].total_cycles,
    "tlr_cycles": res[1].total_cycles,
    "tlr_reused": res[1].reused_count,
    "rtm_reused": rtm.reused_instructions,
    "rtm_events": rtm.reuse_events,
    "rtm_invalidations": rtm.rtm_invalidations,
}}))
"""


class TestBeyondRAM:
    """The acceptance run: a trace whose decoded working set exceeds
    the process address-space limit streams through run -> analyze ->
    RTM bit-identically, with bounded resident growth, where the
    materialized path dies."""

    def _run(self, snippet):
        env = dict(os.environ, **_BEYOND_RAM_ENV)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = snippet.format(limit=_BEYOND_RAM_LIMIT,
                              budget=_BEYOND_RAM_BUDGET)
        return subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)

    def test_materialized_pipeline_exceeds_limit(self):
        proc = self._run(_MAT_SNIPPET)
        assert proc.returncode != 0, (
            "materialized pipeline fit under the limit; raise the "
            f"budget:\n{proc.stdout}")
        assert "MemoryError" in proc.stderr

    def test_streaming_pipeline_completes_and_matches(self):
        proc = self._run(_STREAM_SNIPPET)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert 0 < got["rss_growth"] < _BEYOND_RAM_GROWTH

        # reference numbers from the materialized oracle pipeline, no
        # limit (the subprocess populated the trace cache, so this is a
        # streamed-v3 cache hit, not a re-execution)
        trace = run_workload("compress",
                             max_instructions=_BEYOND_RAM_BUDGET,
                             backend="fast")
        r = instruction_reusability(trace)
        s = maximal_reusable_spans(trace, r.flags)
        base = reference_result(
            trace, Scenario("base", window_size=256), r.flags, s)
        tlr = reference_result(
            trace, Scenario("tlr", window_size=256, latency=1.0), r.flags, s)
        sim = FiniteReuseSimulator(RTM_PRESETS["512"], ILRHeuristic(False))
        rtm = sim.run(trace)

        assert got["n"] == len(trace)
        assert got["percent_reusable"] == r.percent_reusable
        assert got["span_count"] == len(s)
        assert got["base_cycles"] == base.total_cycles
        assert got["tlr_cycles"] == tlr.total_cycles
        assert got["tlr_reused"] == tlr.reused_count
        assert got["rtm_reused"] == rtm.reused_instructions
        assert got["rtm_events"] == rtm.reuse_events
        assert got["rtm_invalidations"] == rtm.rtm_invalidations


class TestDirectStream:
    """The tee'd execute→analyze path: one execution feeds the analysis
    *and* persists the cache entry, byte-identical to the entry the
    materialized ``run_workload`` path writes."""

    CONFIG = ExperimentConfig(
        max_instructions=1_500,
        reuse_latencies=(1, 4),
        proportional_ks=(1 / 8, 1.0),
    )

    def test_cold_profile_entry_matches_run_workload(self, tmp_path,
                                                     monkeypatch):
        """Each kernel's cold ``run_profile`` writes the same trace-cache
        entry, byte for byte, as ``run_workload`` for the same kernel
        and budget (the writer re-chunks, so execution segmentation
        never leaks into the file)."""
        for name in KERNELS:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a" / name))
            run_profile(name, self.CONFIG)
            (entry_a,) = (tmp_path / "a" / name / "traces").glob("*.trace")
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b" / name))
            run_workload(name, max_instructions=self.CONFIG.max_instructions)
            (entry_b,) = (tmp_path / "b" / name / "traces").glob("*.trace")
            assert entry_a.name == entry_b.name, name
            assert entry_a.read_bytes() == entry_b.read_bytes(), name

    def test_tee_persists_and_replays(self, tmp_path, monkeypatch):
        from repro.vm.tracestream import TeeChunkStream

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        stream = stream_workload("li", max_instructions=1_000,
                                 use_cache=True)
        assert isinstance(stream, TeeChunkStream)
        assert not stream.persisted
        first = [len(c) for c in stream.chunks()]
        assert stream.persisted  # complete drain published the entry
        assert sum(first) == 1_000
        # later drains replay the cache entry, not the machine
        assert sum(len(c) for c in stream.chunks()) == 1_000

    def test_abandoned_drain_publishes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        stream = stream_workload("li", max_instructions=5_000,
                                 use_cache=True, chunk_size=100)
        it = stream.chunks()
        next(it)
        it.close()  # consumer walks away mid-drain
        assert not stream.persisted
        traces = tmp_path / "cache" / "traces"
        leftovers = list(traces.iterdir()) if traces.exists() else []
        assert [p for p in leftovers if p.suffix == ".trace"] == []
        # the next drain starts over and completes normally
        assert sum(len(c) for c in stream.chunks()) == 5_000
        assert stream.persisted
