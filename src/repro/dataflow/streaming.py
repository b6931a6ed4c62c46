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
fetch-free or running-maximum tests inside it.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

from repro.baselines.ilr import reusability_flags
from repro.core.stats import TraceIOStats
from repro.core.traces import _fold_liveness
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


class _ScenarioState:
    """Per-scenario fold state carried across blocks."""

    __slots__ = (
        "scenario", "window", "ready", "ring", "room", "idx", "grad",
        "best", "reused", "seconds",
    )

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.window = scenario.window_size
        #: completion time of each location's last writer so far (a
        #: never-written location reads as 0.0)
        self.ready: dict[int, float] = {}
        self.ring: list[float] = []
        self.room = self.window or 0
        self.idx = 0
        self.grad = 0.0
        self.best = 0.0
        self.reused = 0
        self.seconds = 0.0


class _Block:
    """Shared (scenario-independent) precompute over one block."""

    __slots__ = (
        "n", "lats", "flags", "prods", "span_ids", "gate_refs", "span_io",
    )


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
    the current telemetry registry as an ``engine.<kind>`` timer, and
    the analysed instructions to ``engine.instructions_analyzed``.
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
        states = [_ScenarioState(s) for s in scenarios]
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
                self._process_block(tail, 0, len(tail), tail_flags, states)
                tail = None
            while start < nc:
                # cut after the last non-reusable instruction within the
                # cap, or after the first one past a run longer than it
                cut = flags.rfind(0, start, start + BLOCK_CAP)
                if cut < 0:
                    cut = flags.find(0, start + BLOCK_CAP)
                    if cut < 0:
                        break
                self._process_block(chunk, start, cut + 1, flags, states)
                start = cut + 1
            if start < nc:
                # fresh copies: safe to keep extending in place
                tail = slice_columnar(chunk, start, nc)
                tail_flags = flags[start:]

        if tail is not None:
            self._process_block(tail, 0, len(tail), tail_flags, states)

        self.reuse = StreamReusability(
            reusable_count=reusable,
            total_count=self.n,
            static_count=len(history),
            # every non-reusable instance records one new signature
            signature_count=self.n - reusable,
        )
        self._finalize_span_stats()
        n = self.n
        registry = _telemetry()
        results = []
        for st in states:
            sc = st.scenario
            registry.add_time(f"engine.{sc.kind}", st.seconds)
            registry.incr("engine.instructions_analyzed", n)
            if sc.kind == "tlr" and sc.fetch_free:
                # every span instruction is reused by definition
                reused = self.span_covered
            else:
                reused = st.reused
            results.append(TimingResult(
                instruction_count=n,
                total_cycles=max(st.best, 1.0) if n else 0.0,
                window_size=sc.window_size,
                reused_count=reused,
            ))
        return results

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
                       flags: bytearray, states: list[_ScenarioState]) -> None:
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

        pre = _Block()
        pre.n = n
        pre.lats = seg.lats[start:stop]
        pre.flags = flags[start:stop]
        pre.prods = prods
        pre.span_ids = span_ids
        pre.gate_refs = gate_refs
        pre.span_io = span_io
        # block-end state, shared by every scenario: each location
        # written in the block -> the comp index of its last writer
        written = {loc: j for loc, j in writer.items() if j >= m}
        written_refs = list(written.values())
        zeros = repeat(0.0)

        clock = time.perf_counter
        for st in states:
            t0 = clock()
            ready = st.ready
            comp = list(map(ready.get, seeds, zeros))
            kind = st.scenario.kind
            if kind == "base":
                _fold_base(st, pre, comp)
            elif kind == "ilr":
                _fold_ilr(st, pre, comp)
            else:
                _fold_tlr(st, pre, comp)
            # the seeds are earlier completions (or 0.0), never above
            # the running best, so the whole-list max is exact
            best = max(comp)
            if best > st.best:
                st.best = best
            ready.update(zip(written, map(comp.__getitem__, written_refs)))
            st.seconds += clock() - t0


# ----------------------------------------------------------------------
# scenario folds.  Each appends the block's completions to comp.  A
# windowed scenario first runs _fill while its window has empty slots;
# the steady-state loops after it exploit the ring identity
# ``(fetched - W) % W == fetched % W``: the gate entry is exactly the
# slot the current graduation time is about to overwrite.
# ----------------------------------------------------------------------

def _ready(comp: list[float], p) -> float:
    """Latest completion among the producers ``p`` refers to."""
    if p is None:
        return 0.0
    if type(p) is int:
        return comp[p]
    s = 0.0
    for q in p:
        t = comp[q]
        if t > s:
            s = t
    return s


def _span_lats(scenario: Scenario, pre: _Block) -> list[float]:
    if scenario.k is not None:
        k = scenario.k
        return [k * (i + o) for i, o in pre.span_io]
    return [scenario.latency] * len(pre.span_io)


def _fill(st: _ScenarioState, pre: _Block, comp: list[float],
          span_lats: list[float] | None) -> int:
    """Fold leading instructions while the window still has empty
    slots (no gate yet); returns how many instructions were folded.

    Fetch-free span instructions take no slot, so the fill can end at
    any point of the block; every scenario kind shares this loop.
    """
    sc = st.scenario
    kind = sc.kind
    latency = sc.latency
    fetch_free = kind == "tlr" and sc.fetch_free
    ring = st.ring
    grad = st.grad
    room = st.room
    reused = st.reused
    cur_sid = -1
    cur_reused = 0.0
    j = 0
    n = pre.n
    while room and j < n:
        s = _ready(comp, pre.prods[j])
        c = s + pre.lats[j]
        takes_slot = True
        if kind == "ilr":
            if pre.flags[j]:
                rc = s + latency
                if rc < c:
                    c = rc
                    reused += 1
        elif kind == "tlr":
            sid = pre.span_ids[j]
            if sid >= 0:
                if sid != cur_sid:
                    cur_sid = sid
                    cur_reused = (_ready(comp, pre.gate_refs[sid])
                                  + span_lats[sid])
                if cur_reused < c:
                    c = cur_reused
                    if not fetch_free:
                        reused += 1
                takes_slot = not fetch_free
        if c > grad:
            grad = c
        if takes_slot:
            ring.append(grad)
            room -= 1
        comp.append(c)
        j += 1
    st.grad = grad
    st.room = room
    st.reused = reused
    return j


def _fold_base(st: _ScenarioState, pre: _Block, comp: list[float]) -> None:
    window = st.window
    prods = pre.prods
    lats = pre.lats
    append = comp.append
    if st.room:
        j = _fill(st, pre, comp, None)
        prods = prods[j:]
        lats = lats[j:]
    if not window:
        for p, lat in zip(prods, lats):
            if type(p) is int:
                s = comp[p]
            elif type(p) is tuple:
                s = comp[p[0]]
                t = comp[p[1]]
                if t > s:
                    s = t
            elif p is None:
                s = 0.0
            else:
                s = 0.0
                for q in p:
                    t = comp[q]
                    if t > s:
                        s = t
            append(s + lat)
        return
    ring = st.ring
    grad = st.grad
    idx = st.idx
    for p, lat in zip(prods, lats):
        if type(p) is int:
            s = comp[p]
        elif type(p) is tuple:
            s = comp[p[0]]
            t = comp[p[1]]
            if t > s:
                s = t
        elif p is None:
            s = 0.0
        else:
            s = 0.0
            for q in p:
                t = comp[q]
                if t > s:
                    s = t
        gate = ring[idx]
        if gate > s:
            s = gate
        c = s + lat
        if c > grad:
            grad = c
        ring[idx] = grad
        idx += 1
        if idx == window:
            idx = 0
        append(c)
    st.grad = grad
    st.idx = idx


def _fold_ilr(st: _ScenarioState, pre: _Block, comp: list[float]) -> None:
    window = st.window
    latency = st.scenario.latency
    prods = pre.prods
    lats = pre.lats
    flags = pre.flags
    append = comp.append
    if st.room:
        j = _fill(st, pre, comp, None)
        prods = prods[j:]
        lats = lats[j:]
        flags = flags[j:]
    reused = st.reused
    if not window:
        # reuse start == normal start, so a flagged instruction
        # completes at start + min(latency, own latency)
        for p, lat, flag in zip(prods, lats, flags):
            if type(p) is int:
                s = comp[p]
            elif type(p) is tuple:
                s = comp[p[0]]
                t = comp[p[1]]
                if t > s:
                    s = t
            elif p is None:
                s = 0.0
            else:
                s = 0.0
                for q in p:
                    t = comp[q]
                    if t > s:
                        s = t
            c = s + lat
            if flag:
                rc = s + latency
                if rc < c:
                    c = rc
                    reused += 1
            append(c)
        st.reused = reused
        return
    ring = st.ring
    grad = st.grad
    idx = st.idx
    for p, lat, flag in zip(prods, lats, flags):
        if type(p) is int:
            s = comp[p]
        elif type(p) is tuple:
            s = comp[p[0]]
            t = comp[p[1]]
            if t > s:
                s = t
        elif p is None:
            s = 0.0
        else:
            s = 0.0
            for q in p:
                t = comp[q]
                if t > s:
                    s = t
        if flag:
            # the reuse start is taken *before* the window gate
            rc = s + latency
            gate = ring[idx]
            if gate > s:
                s = gate
            c = s + lat
            if rc < c:
                c = rc
                reused += 1
        else:
            gate = ring[idx]
            if gate > s:
                s = gate
            c = s + lat
        if c > grad:
            grad = c
        ring[idx] = grad
        idx += 1
        if idx == window:
            idx = 0
        append(c)
    st.grad = grad
    st.idx = idx
    st.reused = reused


def _fold_tlr(st: _ScenarioState, pre: _Block, comp: list[float]) -> None:
    window = st.window
    span_lats = _span_lats(st.scenario, pre)
    prods = pre.prods
    lats = pre.lats
    span_ids = pre.span_ids
    gate_refs = pre.gate_refs
    append = comp.append
    if st.room:
        j = _fill(st, pre, comp, span_lats)
        prods = prods[j:]
        lats = lats[j:]
        span_ids = span_ids[j:]
    reused = st.reused
    cur_sid = -1
    cur_reused = 0.0
    if not window:
        # fetch-free or not, nothing is gated: the scenarios differ only
        # in the reuse count, which is the span coverage when fetch-free
        for p, lat, sid in zip(prods, lats, span_ids):
            if type(p) is int:
                s = comp[p]
            elif type(p) is tuple:
                s = comp[p[0]]
                t = comp[p[1]]
                if t > s:
                    s = t
            elif p is None:
                s = 0.0
            else:
                s = 0.0
                for q in p:
                    t = comp[q]
                    if t > s:
                        s = t
            c = s + lat
            if sid >= 0:
                if sid != cur_sid:
                    g = 0.0
                    for q in gate_refs[sid]:
                        t = comp[q]
                        if t > g:
                            g = t
                    cur_sid = sid
                    cur_reused = g + span_lats[sid]
                if cur_reused < c:
                    c = cur_reused
                    reused += 1
            append(c)
        st.reused = reused
        return
    ring = st.ring
    grad = st.grad
    idx = st.idx
    if st.scenario.fetch_free:
        # span instructions are not fetched: no window gate, no slot
        for p, lat, sid in zip(prods, lats, span_ids):
            if type(p) is int:
                s = comp[p]
            elif type(p) is tuple:
                s = comp[p[0]]
                t = comp[p[1]]
                if t > s:
                    s = t
            elif p is None:
                s = 0.0
            else:
                s = 0.0
                for q in p:
                    t = comp[q]
                    if t > s:
                        s = t
            if sid < 0:
                gate = ring[idx]
                if gate > s:
                    s = gate
                c = s + lat
                if c > grad:
                    grad = c
                ring[idx] = grad
                idx += 1
                if idx == window:
                    idx = 0
            else:
                if sid != cur_sid:
                    g = 0.0
                    for q in gate_refs[sid]:
                        t = comp[q]
                        if t > g:
                            g = t
                    cur_sid = sid
                    cur_reused = g + span_lats[sid]
                c = s + lat
                if cur_reused < c:
                    c = cur_reused
                if c > grad:
                    grad = c
            append(c)
    else:
        for p, lat, sid in zip(prods, lats, span_ids):
            if type(p) is int:
                s = comp[p]
            elif type(p) is tuple:
                s = comp[p[0]]
                t = comp[p[1]]
                if t > s:
                    s = t
            elif p is None:
                s = 0.0
            else:
                s = 0.0
                for q in p:
                    t = comp[q]
                    if t > s:
                        s = t
            gate = ring[idx]
            if gate > s:
                s = gate
            c = s + lat
            if sid >= 0:
                if sid != cur_sid:
                    g = 0.0
                    for q in gate_refs[sid]:
                        t = comp[q]
                        if t > g:
                            g = t
                    cur_sid = sid
                    cur_reused = g + span_lats[sid]
                if cur_reused < c:
                    c = cur_reused
                    reused += 1
            if c > grad:
                grad = c
            ring[idx] = grad
            idx += 1
            if idx == window:
                idx = 0
            append(c)
    st.grad = grad
    st.idx = idx
    st.reused = reused
