"""Tracefile v3: round-trip fidelity, chunk boundaries, corruption.

The v3 contract is threefold: (1) any trace written through
``TraceWriter`` decodes back bit-identically, at every chunk size;
(2) reading is O(chunk) — the reader never materializes more than ~2
chunks; (3) damage of any kind surfaces as the typed
``TraceFileError``, never a codec internal, and the trace cache
treats a damaged entry as a miss it atomically rewrites.
"""

import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.workloads  # registers the kernels
from repro.lang import compile_source
from repro.vm.machine import Machine
from repro.vm.trace import as_columnar, trace_identical
from repro.vm.tracefile import (
    TraceFileError,
    load_trace,
    save_trace,
    trace_file_info,
)
from repro.vm.tracestream import FileTraceStream, write_stream
from repro.vm.tracev3 import TraceReader, TraceWriter, write_v3
from repro.workloads.base import all_workloads, run_workload
from test_fastmachine import rl_programs

KERNELS = [w.name for w in all_workloads()]

#: The boundary-stress chunk sizes from the issue: degenerate (1),
#: coprime-to-everything (7), and a power of two (4096).
CHUNK_SIZES = (1, 7, 4096)


def roundtrip(trace, tmp_path, chunk_size):
    path = tmp_path / f"c{chunk_size}.trace"
    write_v3(trace, path, chunk_size=chunk_size)
    loaded = load_trace(path)
    assert trace_identical(trace, loaded)
    assert loaded.program_name == trace.program_name
    assert loaded.halted == trace.halted
    assert loaded.truncated == trace.truncated
    return path


class TestRoundTrip:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_kernel_roundtrip(self, tmp_path, chunk_size):
        trace = run_workload("compress", max_instructions=3_000)
        roundtrip(trace, tmp_path, chunk_size)

    def test_empty_trace(self, tmp_path):
        machine = Machine(compile_source(
            "func main() {\nreturn 0\n}\n"))
        trace = machine.run(max_instructions=0)
        assert len(trace) == 0
        roundtrip(trace, tmp_path, 64)

    def test_chunk_boundaries_partition_exactly(self, tmp_path):
        trace = run_workload("li", max_instructions=1_000)
        for chunk_size in (1, 7, 256, 4096):
            path = tmp_path / "t.trace"
            write_v3(trace, path, chunk_size=chunk_size)
            with TraceReader(path) as reader:
                sizes = [len(chunk) for chunk in reader.chunks()]
                assert sum(sizes) == len(trace) == reader.count
                # every chunk is full except possibly the last
                assert all(s == chunk_size for s in sizes[:-1])
                assert 0 < sizes[-1] <= chunk_size

    def test_incremental_writer_equals_batch(self, tmp_path):
        """Row-by-row append and one-shot write produce equal files."""
        trace = run_workload("li", max_instructions=500)
        batch = tmp_path / "batch.trace"
        write_v3(trace, batch, chunk_size=64)
        rowwise = tmp_path / "rows.trace"
        with TraceWriter(rowwise, program_name=trace.program_name,
                         chunk_size=64) as writer:
            for inst in trace:
                writer.append(inst.pc, inst.op, inst.reads, inst.writes,
                              inst.latency, inst.next_pc)
            writer.close(halted=trace.halted, truncated=trace.truncated)
        assert batch.read_bytes() == rowwise.read_bytes()

    def test_v2_v3_differential_all_kernels(self, tmp_path):
        """v2 and v3 encodings of every kernel decode identically."""
        for name in KERNELS:
            trace = run_workload(name, max_instructions=1_500)
            v2 = tmp_path / f"{name}.v2.trace"
            v3 = tmp_path / f"{name}.v3.trace"
            save_trace(trace, v2, format="v2")
            save_trace(trace, v3, format="v3")
            from_v2 = load_trace(v2)
            from_v3 = load_trace(v3)
            assert trace_identical(from_v2, from_v3), name
            assert trace_identical(trace, from_v3), name


class TestGeneratedPrograms:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            # the same file path is reused deliberately: write_v3
            # truncates on open, so examples never see stale bytes
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(source=rl_programs(), chunk_size=st.sampled_from(CHUNK_SIZES))
    def test_roundtrip_generated(self, tmp_path, source, chunk_size):
        from repro.vm.errors import VMError
        from repro.vm.trace import ColumnarTrace, extend_columnar

        program = compile_source(source)
        try:
            trace = Machine(program).run(max_instructions=5_000)
        except VMError:
            return  # faulting programs (e.g. div by zero) have no trace
        path = tmp_path / "gen.trace"
        write_v3(trace, path, chunk_size=chunk_size)
        loaded = load_trace(path)
        assert trace_identical(trace, loaded)
        # chunked reads concatenate to the same stream
        with TraceReader(path) as reader:
            rebuilt = ColumnarTrace(program_name=reader.program_name)
            for chunk in reader.chunks():
                extend_columnar(rebuilt, chunk)
            rebuilt.halted = reader.halted
            rebuilt.truncated = reader.truncated
        assert trace_identical(trace, rebuilt)


class TestCorruption:
    @pytest.fixture
    def valid_file(self, tmp_path):
        trace = run_workload("compress", max_instructions=2_000)
        path = tmp_path / "ok.trace"
        write_v3(trace, path, chunk_size=256)
        return path

    def test_truncation_everywhere_raises_typed(self, valid_file):
        """Cutting the file at any structural point is a TraceFileError.

        A crashed writer, a partial copy, or a torn download must
        never surface zlib/struct internals.
        """
        data = valid_file.read_bytes()
        # prefix lengths spanning magic, chunk frames, footer and tail
        cuts = {0, 4, len(data) // 3, len(data) // 2,
                len(data) - 30, len(data) - 8, len(data) - 1}
        for cut in sorted(cuts):
            valid_file.write_bytes(data[:cut])
            with pytest.raises(TraceFileError):
                load_trace(valid_file)

    def test_corrupt_chunk_payload_raises_typed(self, valid_file):
        data = bytearray(valid_file.read_bytes())
        mid = len(data) // 2  # inside some compressed frame
        data[mid] ^= 0xFF
        valid_file.write_bytes(bytes(data))
        with pytest.raises(TraceFileError):
            load_trace(valid_file)

    def test_bad_magic_raises_typed(self, valid_file):
        data = bytearray(valid_file.read_bytes())
        data[0] ^= 0xFF
        valid_file.write_bytes(bytes(data))
        with pytest.raises(TraceFileError):
            load_trace(valid_file)

    def test_streaming_reader_rejects_truncation(self, valid_file):
        data = valid_file.read_bytes()
        valid_file.write_bytes(data[:len(data) - 9])
        with pytest.raises(TraceFileError):
            FileTraceStream(valid_file)

    def test_corrupt_cache_entry_is_miss_and_rewritten(self):
        """A damaged cache entry yields the correct trace again and the
        entry is atomically rewritten valid."""
        from repro.vm import tracecache
        from repro.workloads.base import get_workload

        name, budget = "li", 1_200
        fresh = run_workload(name, max_instructions=budget, use_cache=True)
        source = get_workload(name).source(1)
        path = tracecache.trace_path(name, 1, budget, source, "interp")
        assert path.is_file()
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])  # torn write
        again = run_workload(name, max_instructions=budget, use_cache=True)
        assert trace_identical(fresh, again)
        # the rewrite healed the entry: a plain load works again
        assert trace_identical(load_trace(path), fresh)

    def test_corrupt_cache_entry_is_stream_miss(self):
        from repro.vm import tracecache
        from repro.workloads.base import get_workload, stream_workload

        name, budget = "perl", 1_000
        fresh = run_workload(name, max_instructions=budget, use_cache=True)
        source = get_workload(name).source(1)
        path = tracecache.trace_path(name, 1, budget, source, "interp")
        path.write_bytes(path.read_bytes()[:40])
        stream = stream_workload(name, max_instructions=budget,
                                 use_cache=True)
        rebuilt = as_columnar(stream)
        assert trace_identical(fresh, rebuilt)


class TestBoundedMemory:
    def test_reader_holds_at_most_two_chunks(self, tmp_path):
        """Drain a many-chunk file counting live decoded chunks while
        the consumer holds one.  ``TraceReader.chunks(prefetch=K)``
        documents at most ``K + 2`` (K in flight, the one being
        yielded and the consumer's previous one): two without
        prefetch.  K is pinned, so the bound does not depend on the
        host's codec pool.  ``ColumnarTrace`` is a slots class without
        ``__weakref__``, so liveness is counted via the gc instead."""
        from repro.vm.trace import ColumnarTrace

        def live() -> int:
            gc.collect()
            return sum(1 for o in gc.get_objects()
                       if isinstance(o, ColumnarTrace))

        trace = run_workload("compress", max_instructions=4_000)
        path = tmp_path / "many.trace"
        write_v3(trace, path, chunk_size=100)  # 40 chunks
        del trace
        baseline = live()
        for prefetch in (0, 1, 4):
            seen = 0
            max_live = 0
            with TraceReader(path) as reader:
                for chunk in reader.chunks(prefetch=prefetch):
                    seen += 1
                    max_live = max(max_live, live() - baseline)
            del chunk
            assert seen == 40
            assert max_live <= prefetch + 2, (
                f"{max_live} chunks live at once with prefetch={prefetch}")

    def test_writer_pending_stays_bounded(self, tmp_path):
        trace = run_workload("li", max_instructions=2_000)
        path = tmp_path / "w.trace"
        with TraceWriter(path, chunk_size=128) as writer:
            for inst in trace:
                writer.append(inst.pc, inst.op, inst.reads, inst.writes,
                              inst.latency, inst.next_pc)
                assert len(writer._pending) < 128
            writer.close()


class TestInfo:
    def test_v3_info_fields(self, tmp_path):
        trace = run_workload("compress", max_instructions=2_000)
        path = tmp_path / "t.trace"
        write_v3(trace, path, chunk_size=512)
        info = trace_file_info(path)
        assert info["format"] == "v3"
        assert info["instructions"] == 2_000
        assert info["chunk_count"] == 4
        assert info["chunk_size"] == 512
        assert info["compression_ratio"] > 1.0
        assert info["file_bytes"] == path.stat().st_size
        assert info["program"] == trace.program_name

    def test_v2_info_fields(self, tmp_path):
        trace = run_workload("compress", max_instructions=1_000)
        path = tmp_path / "t2.trace"
        save_trace(trace, path, format="v2")
        info = trace_file_info(path)
        assert info["format"] == "v2"
        assert info["instructions"] == 1_000
        assert info["chunk_count"] is None

    def test_write_stream_rechunks(self, tmp_path):
        trace = run_workload("li", max_instructions=700)
        src = tmp_path / "src.trace"
        write_v3(trace, src, chunk_size=64)
        dst = tmp_path / "dst.trace"
        n = write_stream(FileTraceStream(src), dst, chunk_size=100)
        assert n == 700
        info = trace_file_info(dst)
        assert info["chunk_size"] == 100
        assert info["chunk_count"] == 7
        assert trace_identical(load_trace(src), load_trace(dst))


class TestThreadedCodec:
    """The codec thread pool reorders *work*, never *bytes*: frames are
    serialized in submission order, and zlib is deterministic, so any
    pool size produces the identical file."""

    @pytest.fixture(scope="class")
    def trace(self):
        return run_workload("compress", max_instructions=2_000)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("threads", (1, 2, 8))
    def test_threaded_writer_byte_identical(self, tmp_path, trace,
                                            threads, chunk_size):
        serial = tmp_path / "serial.trace"
        pooled = tmp_path / "pooled.trace"
        write_stream(trace, serial, chunk_size=chunk_size, threads=0)
        write_stream(trace, pooled, chunk_size=chunk_size, threads=threads)
        assert serial.read_bytes() == pooled.read_bytes()

    def test_abort_with_pool_leaves_no_footer(self, tmp_path, trace):
        path = tmp_path / "aborted.trace"
        writer = TraceWriter(path, chunk_size=64, threads=2)
        writer.write_segment(as_columnar(trace))
        writer.abort()
        with pytest.raises(TraceFileError):
            load_trace(path)

    def test_env_knob_resolves_pool_size(self, monkeypatch):
        from repro.vm.tracev3 import codec_threads

        monkeypatch.setenv("REPRO_CODEC_THREADS", "3")
        assert codec_threads() == 3
        monkeypatch.setenv("REPRO_CODEC_THREADS", "0")
        assert codec_threads() == 0


class TestPrefetchReader:
    @pytest.mark.parametrize("prefetch", (1, 3))
    def test_prefetch_holds_at_most_k_plus_two(self, tmp_path, prefetch):
        """Read-ahead is bounded: with ``prefetch=K`` at most K + 2
        decoded chunks are ever live (K in flight plus the yielded one
        plus the consumer's previous one); counted via the gc as in
        ``TestBoundedMemory``."""
        from repro.vm.trace import ColumnarTrace

        trace = run_workload("compress", max_instructions=4_000)
        path = tmp_path / "many.trace"
        write_v3(trace, path, chunk_size=100)  # 40 chunks
        del trace
        gc.collect()
        baseline = sum(1 for o in gc.get_objects()
                       if isinstance(o, ColumnarTrace))
        seen = 0
        max_live = 0
        with TraceReader(path) as reader:
            for chunk in reader.chunks(prefetch=prefetch):
                seen += 1
                del chunk
                gc.collect()
                live = sum(1 for o in gc.get_objects()
                           if isinstance(o, ColumnarTrace)) - baseline
                max_live = max(max_live, live)
        assert seen == 40
        assert max_live <= prefetch + 2, (
            f"{max_live} chunks live with prefetch={prefetch}")

    def test_prefetch_yields_identical_chunks(self, tmp_path):
        trace = run_workload("li", max_instructions=1_500)
        path = tmp_path / "t.trace"
        write_v3(trace, path, chunk_size=128)
        with TraceReader(path) as reader:
            plain = [c for c in reader.chunks(prefetch=0)]
            ahead = [c for c in reader.chunks(prefetch=4)]
        assert len(plain) == len(ahead)
        for a, b in zip(plain, ahead):
            assert trace_identical(a, b)


class TestInfoColumns:
    def test_column_sections_sum_to_payload(self, tmp_path):
        from repro.vm.tracev3 import SECTION_NAMES

        trace = run_workload("compress", max_instructions=2_000)
        path = tmp_path / "t.trace"
        write_v3(trace, path, chunk_size=512)
        info = trace_file_info(path, columns=True, per_chunk=True)
        cols = info["columns"]
        assert set(cols) == set(SECTION_NAMES) | {"header"}
        total = sum(c["encoded_bytes"] for c in cols.values())
        assert total == info["encoded_bytes"]
        chunks = info["chunks"]
        assert len(chunks) == info["chunk_count"]
        assert sum(c["encoded_bytes"] for c in chunks) == info["encoded_bytes"]
        assert sum(c["compressed_bytes"] for c in chunks) == info["compressed_bytes"]
        assert sum(c["instructions"] for c in chunks) == 2_000
        # the dominant columns carry a real codec mode tag
        assert any("bitmap+f8" in m for m in cols["read_vals"]["modes"])
