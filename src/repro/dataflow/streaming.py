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
- the instruction-level reuse history
  (:class:`~repro.baselines.ilr.SignatureHistory`), so per-chunk
  reusability flags equal the whole-trace flags.

Every block ends *after a non-reusable instruction*, so every maximal
reusable span — a trace candidate — lies wholly inside one block.
That is load-bearing twice over: the span's live-in gate must be
evaluated at span entry over the span's *full* live-in set, and the
per-span latency depends on its total I/O counts.  A reusable run
longer than the cap stretches its block to the run's end (the same
stream would also defeat the paper's trace-collection limits).

Shared layers
-------------
Both layers every scenario shares run as numpy passes, not
per-instruction Python loops:

- the ILR signature check
  (:func:`~repro.baselines.ilr.reusability_flags`) gives each read
  value a canonical int64 key that keeps Python equality (``1`` and
  ``1.0`` share one), builds one fixed-width row per instruction,
  hashes and deduplicates the rows of each slice of at most 8192
  instructions, and makes Python key objects only for a slice's
  distinct rows; values without a canonical key (NaN, ints beyond
  int64, ...) key their row exactly instead;
- the block precompute (:func:`_precompute`) turns the block's reads
  and writes into events in time order and sorts them once by
  ``(location, time)``: a read's producer is the last write before it
  in its location's run; the seeds are the distinct read locations in
  first-occurrence order; a span's live-ins are its reads whose
  producer precedes the span, its gate refs those producers, and its
  live-in and live-out counts come from distinct ``(span, location)``
  pairs.

Their results — the flags and each block's :class:`folds.Block` — are
the ones the per-instruction loops produced, field for field.

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

import numpy as np

from repro.baselines.ilr import SignatureHistory, reusability_flags
from repro.core.stats import TraceIOStats
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
    start is timed as ``engine.fold_worker_start``.  The shared layers
    are timed once per chunk (``engine.ilr_flags``) and once per block
    (``engine.precompute``), against the drained instructions in
    ``engine.instructions``.
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
        # shared-layer seconds, and the chunks and blocks they cover
        self._ilr_s = 0.0
        self._precompute_s = 0.0
        self._chunks = 0
        self._blocks = 0

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
        registry.add_time("engine.ilr_flags", self._ilr_s, self._chunks)
        registry.add_time("engine.precompute", self._precompute_s,
                          self._blocks)
        registry.incr("engine.instructions", n)
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
        self._ilr_s = self._precompute_s = 0.0
        self._chunks = self._blocks = 0

        history = SignatureHistory()
        reusable = 0
        # an all-reusable tail whose span may continue into the next chunk
        tail: ColumnarTrace | None = None
        tail_flags = bytearray()

        for chunk in self._stream.chunks():
            nc = len(chunk)
            if not nc:
                continue
            t0 = time.perf_counter()
            flags = reusability_flags(chunk, history)
            self._ilr_s += time.perf_counter() - t0
            self._chunks += 1
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
            static_count=history.static_count,
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
        t0 = time.perf_counter()
        pre, (count, covered, n_in, reg_in, n_out, reg_out) = _precompute(
            seg, start, stop, flags)
        self.span_count += count
        self.span_covered += covered
        self._span_in += n_in
        self._span_reg_in += reg_in
        self._span_out += n_out
        self._span_reg_out += reg_out
        self._precompute_s += time.perf_counter() - t0
        self._blocks += 1
        folder.fold(pre)


#: ``np.arange`` of the largest size asked for so far; slices of it
#: serve every index vector the precompute needs.
_IOTA = np.arange(0)


def _iota(k: int) -> np.ndarray:
    """``np.arange(k)`` as a read-only view of a shared buffer."""
    global _IOTA
    if len(_IOTA) < k:
        _IOTA = np.arange(max(k, 2 * len(_IOTA)))
        _IOTA.flags.writeable = False
    return _IOTA[:k]


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True where ``a`` differs from its predecessor (and at 0)."""
    out = np.empty(len(a), bool)
    out[:1] = True
    np.not_equal(a[1:], a[:-1], out=out[1:])
    return out


def _sort_events(rb, wb, rl, wl, r_inst, w_inst):
    """A block's reads and writes in ``(location, time)`` order.

    Instruction ``i``'s reads come before its writes, so a read's
    producer is the last write before it in its location's run.  One
    sort of packed ``(location rank, time)`` keys orders them; the
    locations are ranked densely when their spread would overflow the
    packing.  Returns ``(read slot, location id, producing instruction
    or -1)`` of each read and ``(write slot, location id)`` of each
    write, both in that order, and each location id's location.
    """
    nr, nw = len(rl), len(wl)
    ne = nr + nw
    r_time = _iota(nr) + wb[r_inst]
    w_time = _iota(nw) + rb[w_inst + 1]
    key = np.empty(ne, np.int64)
    key[r_time] = rl
    key[w_time] = wl
    lo, locs = 0, None
    if ne:
        lo = int(key.min())
        key -= lo
        if int(key.max()) >= (1 << 62) // ne:
            locs, key = np.unique(key + lo, return_inverse=True)
            key = key.astype(np.int64)
    key *= ne
    key += _iota(ne)
    key.sort()
    time = key % ne
    key //= ne
    new_loc = _run_starts(key)
    group_loc = key[new_loc] + lo if locs is None else locs
    del key  # each step frees what it consumed: temporaries stay few
    group = np.cumsum(new_loc) - 1
    # each sorted event's id: its read slot, or nr + its write slot
    event = np.empty(ne, np.intp)
    event[r_time] = _iota(nr)
    event[w_time] = _iota(nw) + nr
    event = event[time]
    del time, r_time, w_time
    is_w = event >= nr
    # last write at or before each event, if in the same location run
    last_w = np.maximum.accumulate(np.where(is_w, _iota(ne), -1))
    prod = np.where(last_w >= np.flatnonzero(new_loc)[group],
                    event[last_w] - nr, nw)
    prod = np.append(w_inst, -1)[prod]
    is_r = ~is_w
    reads = event[is_r], group[is_r], prod[is_r]
    writes = event[is_w] - nr, group[is_w]
    return reads, writes, group_loc


def _shape_prods(ref: np.ndarray, rb: np.ndarray) -> list:
    """Each instruction's producer references, shaped for the folds: a
    bare index for one producer, a pair tuple for exactly two, None for
    none and a deduplicated list for the rare three-plus case."""
    count = np.diff(rb)
    last = max(len(ref) - 1, 0)
    ref = np.append(ref, 0)  # a harmless target for read-less rows
    p1 = ref[np.minimum(rb[:-1], last + 1)]
    p2 = np.where(count >= 2, ref[np.minimum(rb[:-1] + 1, last)], p1)
    prods = [a if a == b else (a, b)
             for a, b in zip(p1.tolist(), p2.tolist())]
    for i in np.flatnonzero(count == 0).tolist():
        prods[i] = None
    for i in np.flatnonzero(count > 2).tolist():
        ps = list(dict.fromkeys(ref[rb[i]:rb[i + 1]].tolist()))
        prods[i] = ps[0] if len(ps) == 1 else (
            (ps[0], ps[1]) if len(ps) == 2 else ps)
    return prods


def _live_tables(span_start, span_of, r_inst, reads, ref, rl, m,
                 writes, w_count, group_loc):
    """Per span: gate refs (the live-ins' producers, first occurrence
    first), live-in and live-out counts; and the register live-in and
    live-out totals.

    A span's live-ins are its reads whose producer precedes the span.
    A ``(span, location)`` pair's live-in reads are adjacent in
    ``(location, time)`` order, as are its writes, so the first of each
    run counts the pair once.
    """
    spans = len(span_start)
    r_slot, r_group, r_prod = reads
    r_span = span_of[r_inst[r_slot]]
    # span_start[-1] is -1: no read outside a span is live-in
    live = r_prod < np.append(span_start, -1)[r_span]
    repeat = np.zeros_like(live)
    repeat[1:] = live[:-1]
    repeat &= ~(_run_starts(r_group) | _run_starts(r_span))
    first = live & ~repeat
    slots = np.zeros(len(ref), bool)
    slots[r_slot[first]] = True
    slots = np.flatnonzero(slots)
    live_span = span_of[r_inst[slots]]
    n_in = np.bincount(live_span, minlength=spans)
    reg_in = int(np.count_nonzero(rl[slots] < MEM_LOC_BASE))
    live_ref = ref[slots]
    # only an instruction writing several locations repeats a ref
    if np.any(np.append(w_count, 0)[np.maximum(live_ref - m, -1)] > 1):
        pair = live_span * (m + len(span_of)) + live_ref
        keep = np.zeros(len(pair), bool)
        keep[np.unique(pair, return_index=True)[1]] = True
        live_span, live_ref = live_span[keep], live_ref[keep]
    cut = np.append(0, np.cumsum(np.bincount(live_span, minlength=spans)))
    cut = cut.tolist()
    refs = live_ref.tolist()
    gate_refs = [tuple(refs[a:b]) for a, b in zip(cut, cut[1:])]
    w_group, w_span = writes
    first = (w_span >= 0) & (_run_starts(w_group) | _run_starts(w_span))
    n_out = np.bincount(w_span[first], minlength=spans)
    reg_out = int(np.count_nonzero(group_loc[w_group[first]] < MEM_LOC_BASE))
    return gate_refs, n_in, reg_in, n_out, reg_out


def _precompute(seg: ColumnarTrace, start: int, stop: int,
                flags: bytearray) -> tuple[folds.Block, tuple[int, ...]]:
    """The shared precompute of instructions ``[start, stop)`` of
    ``seg``, and the block's span statistics ``(spans, covered,
    live-ins, register live-ins, live-outs, register live-outs)``."""
    n = stop - start
    rb = np.frombuffer(seg.read_bounds, "I")[start:stop + 1].astype(np.intp)
    wb = np.frombuffer(seg.write_bounds, "I")[start:stop + 1].astype(np.intp)
    rl = np.frombuffer(seg.read_locs, "q")[rb[0]:rb[-1]]
    wl = np.frombuffer(seg.write_locs, "q")[wb[0]:wb[-1]]
    rb -= rb[0]
    wb -= wb[0]
    r_inst = np.repeat(_iota(n), np.diff(rb))
    w_inst = np.repeat(_iota(n), np.diff(wb))
    reads, (w_slot, w_group), group_loc = _sort_events(
        rb, wb, rl, wl, r_inst, w_inst)
    r_slot, r_group, r_prod = reads

    # seeds: the block's distinct read locations, first occurrence
    # first; a read's comp reference is its producer or its seed
    first = _run_starts(r_group)
    is_seed = np.zeros(len(rl), bool)
    is_seed[r_slot[first]] = True
    seeds = rl[is_seed].tolist()
    m = len(seeds)
    group_seed = np.full(len(group_loc), -1, np.intp)
    group_seed[r_group[first]] = (np.cumsum(is_seed) - 1)[r_slot[first]]
    ref = np.empty(len(rl), np.intp)
    ref[r_slot] = np.where(r_prod >= 0, r_prod + m, group_seed[r_group])
    prods = _shape_prods(ref, rb)

    # maximal reusable runs, wholly inside the block
    f = np.frombuffer(flags, np.uint8, n, start).astype(np.int8)
    edges = np.diff(f, prepend=0, append=0)
    span_start = np.flatnonzero(edges == 1)
    span_len = np.flatnonzero(edges == -1) - span_start
    span_of = np.full(n, -1, np.intp)
    span_of[f.view(bool)] = np.repeat(_iota(len(span_start)), span_len)
    gate_refs, n_in, reg_in, n_out, reg_out = _live_tables(
        span_start, span_of, r_inst, reads, ref, rl, m,
        (w_group, span_of[w_inst[w_slot]]), np.diff(wb), group_loc)

    # block-end state, shared by every scenario: each location written
    # in the block -> the comp index of its last writer; seeds first,
    # in seed order, then the others by first write
    firsts = _run_starts(w_group)
    lasts = np.append(firsts[1:], True)[:len(firsts)]
    written = w_group[lasts]
    seed_of = group_seed[written]
    by = np.argsort(np.where(seed_of >= 0, seed_of, m + w_slot[firsts]))

    pre = folds.Block()
    pre.n = n
    pre.lats = seg.lats[start:stop]
    pre.flags = flags[start:stop]
    pre.prods = prods
    pre.span_ids = span_of.tolist()
    pre.gate_refs = gate_refs
    pre.span_io = list(zip(n_in.tolist(), n_out.tolist()))
    pre.seeds = seeds
    pre.written = group_loc[written[by]].tolist()
    pre.written_refs = (w_inst[w_slot[lasts]][by] + m).tolist()
    stats = (len(span_start), int(span_len.sum()), int(n_in.sum()), reg_in,
             int(n_out.sum()), reg_out)
    return pre, stats
