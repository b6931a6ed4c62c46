"""One-pass dataflow analysis over chunked trace streams.

:class:`StreamingDataflowEngine` drains a chunk stream (see
:mod:`repro.vm.tracestream`) exactly once and evaluates every timing
scenario *plus* the reusability summary, the maximal-span statistics
and the section-4.5 I/O stats — everything
:func:`repro.exp.runner.run_profile` needs — while holding O(block)
memory instead of the whole trace.

Bit-identity with the per-scenario oracle
-----------------------------------------
:meth:`DataflowModel.analyze` keeps a ``ready`` table keyed by
location.  The engine instead resolves every read to the *index* of
its producing instruction once, shared by all scenarios, and evaluates
each scenario as a fold over a completion-time list ``comp`` — the
same max/add/min float operations in the same order, so the results
are equal bit for bit.

The stream is cut into **blocks** of at most :data:`BLOCK_CAP`
instructions.  Within a block, producer references are indices into
``comp``: its first ``m`` entries are seeded, per scenario, with the
carried ready time of each distinct location the block reads, and
instruction ``j``'s completion is appended as ``comp[m + j]``.  A read
whose producer lies in an earlier block refers to its location's
seed, so the folds never test where a producer lives.  Three pieces
of state cross block boundaries:

- the completion time of the last writer of each location, per
  scenario, in a ``ready`` dict (a never-written location reads as
  ``0.0``, exactly as a ``ready`` miss does in the oracle), updated at
  block end from the block's last writers;
- the window ring (``ring``/``room``/``idx``/``grad``) of each
  windowed scenario, carried verbatim;
- the instruction-level reuse history (``pc -> input signatures``),
  so per-chunk reusability flags equal the whole-trace flags.

Every block ends *after a non-reusable instruction*, so every maximal
reusable span — a trace candidate — lies wholly inside one block.
That is load-bearing twice over: the span's live-in gate must be
evaluated at span entry over the span's *full* live-in set, and the
per-span latency depends on its total I/O counts.  A reusable run
longer than the cap stretches its block to the run's end (the same
stream would also defeat the paper's trace-collection limits).

The window fill phase (fewer than ``window`` fetched instructions, so
no gate yet) runs through one generic loop; once the window is full
each scenario kind runs a tight steady-state loop with no fill,
fetch-free or running-maximum tests inside it (the folds live in
:mod:`repro.dataflow.folds`).

Fold executors
--------------
The scenarios' folds are independent, so a drain spreads them over
``P = min(scenarios, CPUs in the affinity mask)`` executors — 1 inside
a ``multiprocessing`` child, whose pool already uses every core.  This
process is always one; the others are persistent worker processes
(:mod:`repro.dataflow.folds` run as a script), started on first use
and reused across drains.  This process executes, flags, precomputes
and sends each block to the workers, then folds its own share; the
share each executor gets follows the costs of the previous drain (see
:func:`_split`).  With ``P = 1`` no worker starts and this process
folds every scenario through the same :func:`folds.fold_block`.
"""

from __future__ import annotations

import atexit
import marshal
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.baselines.ilr import reusability_flags
from repro.core.stats import TraceIOStats
from repro.core.traces import _fold_liveness
from repro.dataflow import folds
from repro.dataflow.model import Scenario, TimingResult
from repro.isa.registers import MEM_LOC_BASE
from repro.obs.telemetry import current as _telemetry
from repro.vm.trace import ColumnarTrace, extend_columnar, slice_columnar
from repro.vm.tracestream import DEFAULT_CHUNK_SIZE, as_chunk_stream

#: Largest block analysed at once.  Bounds the shared precompute that
#: sits on top of the reuse history; it is internal to the engine, so
#: how streams and trace files are chunked is unaffected.
BLOCK_CAP = 8192


@dataclass(frozen=True, slots=True)
class StreamReusability:
    """Instruction-level reusability summary of a drained stream.

    The engine never materialises the per-instruction flag list, so
    this carries the counts only; the rates are computed with the same
    integer operands as :class:`repro.baselines.ilr.ReusabilityResult`,
    hence bit-equal.
    """

    reusable_count: int
    total_count: int
    static_count: int
    signature_count: int

    @property
    def percent_reusable(self) -> float:
        """Percentage of dynamic instructions that were reusable."""
        if self.total_count == 0:
            return 0.0
        return 100.0 * self.reusable_count / self.total_count


class FoldWorkerError(RuntimeError):
    """A fold worker died, or broke the pipe protocol, mid-drain.

    The drain is abandoned and every worker discarded; the next drain
    starts fresh ones.
    """


def _cpu_count() -> int:
    """CPUs this process may run on; 1 inside a ``multiprocessing``
    child, whose pool already spreads work over every core."""
    if multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not on Linux
        return os.cpu_count() or 1


class _FoldWorker:
    """One fold worker process (see :mod:`repro.dataflow.folds`).

    Started from the module's file, not with ``-m``, so it imports
    neither the ``repro`` package nor the caller's ``__main__``.  Its
    pipes are unbuffered: a forked child can close them without
    touching a buffer lock.
    """

    __slots__ = ("proc",)

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", folds.__file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)

    def _error(self) -> FoldWorkerError:
        try:
            code = self.proc.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            return FoldWorkerError(
                f"fold worker {self.proc.pid} broke the pipe protocol")
        return FoldWorkerError(
            f"fold worker {self.proc.pid} exited with code {code} mid-drain")

    def send(self, tag: bytes, payload: bytes) -> None:
        try:
            folds.write_frame(self.proc.stdin, tag, payload)
        except OSError as exc:
            raise self._error() from exc

    def recv(self):
        try:
            frame = folds.read_frame(self.proc.stdout)
        except OSError as exc:
            raise self._error() from exc
        if frame is None:
            raise self._error()
        return marshal.loads(frame[1])

    def close_pipes(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()

    def kill(self) -> None:
        self.close_pipes()
        self.proc.kill()
        self.proc.wait()


#: This process's fold workers, started on first use and kept for
#: later drains.
_workers: list[_FoldWorker] = []
#: Held by the drain that uses the workers; a drain running meanwhile
#: in another thread folds every scenario itself.
_workers_lock = threading.Lock()

#: Costs measured in this process's previous drain, in seconds per
#: instruction: each scenario's fold time, and each executor's non-fold
#: busy time (index 0 is this process: execution, ILR flags, block
#: precompute, span extraction and encoding the blocks).
_fold_costs: dict[tuple, float] = {}
_executor_costs: list[float] = []


def _get_workers(count: int) -> list[_FoldWorker]:
    while len(_workers) < count:
        t0 = time.perf_counter()
        try:
            _workers.append(_FoldWorker())
        except OSError as exc:
            raise FoldWorkerError(f"cannot start a fold worker: {exc}") from exc
        _telemetry().add_time("engine.fold_worker_start",
                              time.perf_counter() - t0)
    return _workers[:count]


def _discard_workers() -> None:
    while _workers:
        _workers.pop().kill()


def _forget_workers_after_fork() -> None:
    # a forked child must not talk to its parent's workers, nor hold
    # their pipes open: the parent's death must reach them as EOF
    global _workers_lock
    for worker in _workers:
        worker.close_pipes()
    _workers.clear()
    _workers_lock = threading.Lock()


atexit.register(_discard_workers)
os.register_at_fork(after_in_child=_forget_workers_after_fork)


def _split(specs: list[tuple], executors: int) -> list[list[int]]:
    """Scenario indices per executor; executor 0 is this process.

    Longest first, each scenario goes to the executor with the least
    load, every executor starting at its own non-fold cost, all from
    the previous drain.  Without a cost for every scenario the costs
    count 1 each: an even split by count.  Ties go to a worker, so
    this process takes the smallest share.
    """
    known = all(spec in _fold_costs for spec in specs)
    cost = [_fold_costs[spec] if known else 1.0 for spec in specs]
    load = [_executor_costs[e] if known and e < len(_executor_costs) else 0.0
            for e in range(executors)]
    shares: list[list[int]] = [[] for _ in range(executors)]
    for i in sorted(range(len(specs)), key=cost.__getitem__, reverse=True):
        e = min(range(executors), key=lambda e: (load[e], e == 0))
        shares[e].append(i)
        load[e] += cost[i]
    return [sorted(share) for share in shares]


class _Folder:
    """One drain's fold executors: this process folds its share of the
    scenarios while each worker folds its own."""

    def __init__(self, specs: list[tuple], workers: list[_FoldWorker]):
        self.specs = specs
        #: scenario indices per executor; executor 0 is this process
        self.shares = _split(specs, len(workers) + 1)
        self.local = [folds.ScenarioState(*specs[i]) for i in self.shares[0]]
        self.remote = [(e, worker) for e, worker in enumerate(workers, 1)
                       if self.shares[e]]
        #: seconds spent blocked on a full pipe or on the final gather
        self.wait = 0.0
        #: when the first block was ready: the workers idle until then
        self.started = 0.0
        for e, worker in self.remote:
            worker.send(b"S", marshal.dumps([specs[i] for i in self.shares[e]]))

    @property
    def executors(self) -> int:
        return 1 + len(self.remote)

    def fold(self, pre: folds.Block) -> None:
        """Ship ``pre`` to the workers, then fold the local share."""
        if not self.started:
            self.started = time.perf_counter()
        if self.remote:
            payload = folds.encode_block(pre)
            t0 = time.perf_counter()
            for _, worker in self.remote:
                worker.send(b"B", payload)
            self.wait += time.perf_counter() - t0
        folds.fold_block(self.local, pre)

    def gather(self, n: int) -> list[tuple[float, int, float]]:
        """Every scenario's ``(best, reused, seconds)`` in input order;
        keeps the costs the next drain splits by."""
        rows: list = [None] * len(self.specs)
        busy = [0.0] * len(self.shares)
        t0 = time.perf_counter()
        for _, worker in self.remote:
            worker.send(b"E", b"")
        for e, worker in self.remote:
            got, busy[e] = worker.recv()
            for i, row in zip(self.shares[e], got):
                rows[i] = row
        self.wait += time.perf_counter() - t0
        for i, st in zip(self.shares[0], self.local):
            rows[i] = (st.best, st.reused, st.seconds)
        if n:
            busy[0] = time.perf_counter() - self.started - self.wait
            for e, share in enumerate(self.shares):
                busy[e] -= sum(rows[i][2] for i in share)
            _fold_costs.update(
                (spec, row[2] / n) for spec, row in zip(self.specs, rows))
            _executor_costs[:] = [b / n for b in busy]
        return rows


class StreamingDataflowEngine:
    """Evaluates many reuse scenarios over a chunk stream in one drain.

    Parameters
    ----------
    traceish:
        Anything :func:`repro.vm.tracestream.as_chunk_stream` accepts —
        a chunk stream (file-, execution- or slice-backed) or a
        materialized trace.
    chunk_size:
        Segmentation used when ``traceish`` is a materialized trace.

    After :meth:`analyze_all` the summary attributes are populated:
    ``n``, ``reuse`` (:class:`StreamReusability`), ``span_count``,
    ``span_covered``, ``avg_span_length`` and ``io_stats``
    (:class:`repro.core.stats.TraceIOStats`) — each bit-identical to
    its materialized counterpart.  Each scenario's fold time goes to
    the current telemetry registry as an ``engine.<kind>`` timer,
    wherever it was folded, and the analysed instructions to
    ``engine.instructions_analyzed``.  Each drain also adds its
    executor count to ``engine.fold_executors`` and the time spent
    waiting on workers to the ``engine.fold_wait`` timer; a worker
    start is timed as ``engine.fold_worker_start``.
    """

    def __init__(self, traceish, *,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self._stream = as_chunk_stream(traceish, chunk_size=chunk_size)
        self.n = 0
        self.reuse: StreamReusability | None = None
        self.span_count = 0
        self.span_covered = 0
        self.avg_span_length = 0.0
        self.io_stats: TraceIOStats | None = None
        # span I/O accumulators (totals; divisions happen at the end,
        # mirroring repro.core.stats.trace_io_stats)
        self._span_in = 0
        self._span_reg_in = 0
        self._span_out = 0
        self._span_reg_out = 0

    # ------------------------------------------------------------------
    def analyze_all(self, scenarios: Sequence[Scenario]) -> list[TimingResult]:
        """Evaluate every scenario in one pass; order matches the input."""
        specs = [(s.kind, s.window_size, s.latency, s.k, s.fetch_free)
                 for s in scenarios]
        executors = max(1, min(len(specs), _cpu_count()))
        if executors > 1 and not _workers_lock.acquire(blocking=False):
            executors = 1  # another thread's drain holds the workers
        try:
            folder = _Folder(specs, _get_workers(executors - 1))
            self._drain(folder)
            rows = folder.gather(self.n)
        except BaseException:
            if executors > 1:
                # mid-protocol workers cannot be trusted with a new drain
                _discard_workers()
            raise
        finally:
            if executors > 1:
                _workers_lock.release()

        n = self.n
        registry = _telemetry()
        registry.incr("engine.fold_executors", folder.executors)
        registry.add_time("engine.fold_wait", folder.wait)
        results = []
        for sc, (best, reused, seconds) in zip(scenarios, rows):
            registry.add_time(f"engine.{sc.kind}", seconds)
            registry.incr("engine.instructions_analyzed", n)
            if sc.kind == "tlr" and sc.fetch_free:
                # every span instruction is reused by definition
                reused = self.span_covered
            results.append(TimingResult(
                instruction_count=n,
                total_cycles=max(best, 1.0) if n else 0.0,
                window_size=sc.window_size,
                reused_count=reused,
            ))
        return results

    def _drain(self, folder: _Folder) -> None:
        """Drain the stream once, handing each block to ``folder``."""
        # reset accumulators (the stream is re-iterable, so is this)
        self.n = 0
        self.span_count = 0
        self.span_covered = 0
        self._span_in = self._span_reg_in = 0
        self._span_out = self._span_reg_out = 0

        history: dict[int, set] = {}
        reusable = 0
        # an all-reusable tail whose span may continue into the next chunk
        tail: ColumnarTrace | None = None
        tail_flags = bytearray()

        for chunk in self._stream.chunks():
            nc = len(chunk)
            if not nc:
                continue
            flags = reusability_flags(chunk, history)
            reusable += flags.count(1)
            self.n += nc
            start = 0
            if tail is not None:
                first = flags.find(0)
                if first < 0:
                    extend_columnar(tail, chunk)
                    tail_flags += flags
                    continue
                start = first + 1
                extend_columnar(tail, slice_columnar(chunk, 0, start))
                tail_flags += flags[:start]
                self._process_block(tail, 0, len(tail), tail_flags, folder)
                tail = None
            while start < nc:
                # cut after the last non-reusable instruction within the
                # cap, or after the first one past a run longer than it
                cut = flags.rfind(0, start, start + BLOCK_CAP)
                if cut < 0:
                    cut = flags.find(0, start + BLOCK_CAP)
                    if cut < 0:
                        break
                self._process_block(chunk, start, cut + 1, flags, folder)
                start = cut + 1
            if start < nc:
                # fresh copies: safe to keep extending in place
                tail = slice_columnar(chunk, start, nc)
                tail_flags = flags[start:]

        if tail is not None:
            self._process_block(tail, 0, len(tail), tail_flags, folder)

        self.reuse = StreamReusability(
            reusable_count=reusable,
            total_count=self.n,
            static_count=len(history),
            # every non-reusable instance records one new signature
            signature_count=self.n - reusable,
        )
        self._finalize_span_stats()

    # ------------------------------------------------------------------
    def _finalize_span_stats(self) -> None:
        count = self.span_count
        covered = self.span_covered
        self.avg_span_length = covered / count if count else 0.0
        if count == 0:
            self.io_stats = TraceIOStats(
                0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            return
        total_in, total_reg_in = self._span_in, self._span_reg_in
        total_out, total_reg_out = self._span_out, self._span_reg_out
        total_mem_in = total_in - total_reg_in
        total_mem_out = total_out - total_reg_out
        self.io_stats = TraceIOStats(
            trace_count=count,
            total_instructions=covered,
            avg_trace_size=covered / count,
            avg_inputs=total_in / count,
            avg_reg_inputs=total_reg_in / count,
            avg_mem_inputs=total_mem_in / count,
            avg_outputs=total_out / count,
            avg_reg_outputs=total_reg_out / count,
            avg_mem_outputs=total_mem_out / count,
            reads_per_instruction=total_in / covered if covered else 0.0,
            writes_per_instruction=total_out / covered if covered else 0.0,
        )

    # ------------------------------------------------------------------
    def _process_block(self, seg: ColumnarTrace, start: int, stop: int,
                       flags: bytearray, folder: _Folder) -> None:
        """Precompute instructions ``[start, stop)`` of ``seg`` once, then
        fold every scenario over them."""
        n = stop - start
        # maximal reusable runs (block-relative), wholly inside the block
        runs: list[tuple[int, int]] = []
        span_inlocs: list[tuple[int, ...]] = []
        span_io: list[tuple[int, int]] = []
        a = flags.find(1, start, stop)
        while a >= 0:
            b = flags.find(0, a, stop)
            if b < 0:
                b = stop
            live_in: dict = {}
            live_out: dict = {}
            _fold_liveness(seg, a, b, live_in, live_out)
            runs.append((a - start, b - start))
            span_inlocs.append(tuple(live_in))
            span_io.append((len(live_in), len(live_out)))
            self.span_covered += b - a
            self._span_in += len(live_in)
            self._span_out += len(live_out)
            self._span_reg_in += sum(1 for loc in live_in if loc < MEM_LOC_BASE)
            self._span_reg_out += sum(1 for loc in live_out if loc < MEM_LOC_BASE)
            a = flags.find(1, b, stop)
        self.span_count += len(runs)

        # comp[0:m] is seeded per scenario with the carried ready time
        # of each distinct location the block reads; instruction j's
        # completion is comp[m + j].  ``writer`` starts out pointing at
        # the seeds, so every read resolves with one dict probe.
        rb, rl = seg.read_bounds, seg.read_locs
        wb, wl = seg.write_bounds, seg.write_locs
        seeds = list(dict.fromkeys(rl[rb[start]:rb[stop]]))
        m = len(seeds)
        writer = dict(zip(seeds, range(m)))
        # producer references, shaped for the folds: a bare index for
        # one producer, a pair tuple for exactly two, None for none and
        # a deduplicated list for the rare three-plus case
        prods: list = []
        prods_append = prods.append
        span_ids = [-1] * n
        gate_refs: list[tuple[int, ...]] = []
        # comp index at which the next span starts (-1: no more spans)
        next_sid = 0
        next_start = m + runs[0][0] if runs else -1
        a = rb[start]
        wa = wb[start]
        for j, b, wb1 in zip(range(m, m + n), rb[start + 1:stop + 1],
                             wb[start + 1:stop + 1]):
            if j == next_start:
                # the span's live-in producers as of span entry
                a2, b2 = runs[next_sid]
                span_ids[a2:b2] = [next_sid] * (b2 - a2)
                gate_refs.append(tuple(dict.fromkeys(
                    writer[loc] for loc in span_inlocs[next_sid])))
                next_sid += 1
                next_start = (m + runs[next_sid][0] if next_sid < len(runs)
                              else -1)
            if b - a == 1:
                prods_append(writer[rl[a]])
            elif b - a == 2:
                p1 = writer[rl[a]]
                p2 = writer[rl[a + 1]]
                prods_append(p1 if p1 == p2 else (p1, p2))
            elif a == b:
                prods_append(None)
            else:
                ps = list(dict.fromkeys(writer[loc] for loc in rl[a:b]))
                if len(ps) == 1:
                    prods_append(ps[0])
                elif len(ps) == 2:
                    prods_append((ps[0], ps[1]))
                else:
                    prods_append(ps)
            a = b
            while wa < wb1:
                writer[wl[wa]] = j
                wa += 1

        pre = folds.Block()
        pre.n = n
        pre.lats = seg.lats[start:stop]
        pre.flags = flags[start:stop]
        pre.prods = prods
        pre.span_ids = span_ids
        pre.gate_refs = gate_refs
        pre.span_io = span_io
        pre.seeds = seeds
        # block-end state, shared by every scenario: each location
        # written in the block -> the comp index of its last writer
        written = {loc: j for loc, j in writer.items() if j >= m}
        pre.written = list(written)
        pre.written_refs = list(written.values())
        folder.fold(pre)
