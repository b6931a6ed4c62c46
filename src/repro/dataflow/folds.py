"""Per-scenario timing folds, and the fold worker process that runs them.

:class:`~repro.dataflow.streaming.StreamingDataflowEngine` cuts a
stream into blocks, computes one scenario-independent precompute per
block (a :class:`Block`) and then *folds* every timing scenario over
it.  The folds of different scenarios are independent, so the engine
spreads them over several executors: its own process plus up to one
worker process per spare CPU.  This module is both halves of that:

- the fold kernels (:func:`fold_block`) and the per-scenario state
  they carry across blocks (:class:`ScenarioState`), used by the
  engine's process and by every worker;
- the worker's main loop (:func:`serve`), run when this file is
  executed as a script.

The module imports only the standard library.  The engine starts a
worker as ``python -I -S <this file>``, so the worker imports neither
the ``repro`` package (and with it numpy and every subsystem) nor the
caller's ``__main__``.

Wire protocol
-------------
The worker reads frames from stdin and answers on stdout.  A frame is
a one-byte tag and an 8-byte little-endian length, followed by a
:mod:`marshal` payload of plain tuples, lists, numbers and bytes:

- ``S`` — start a drain: a list of scenario tuples
  ``(kind, window, latency, k, fetch_free)``; resets the fold state;
- ``B`` — one block (:func:`encode_block`); folded into every scenario;
- ``E`` — end of the drain: the worker replies with one ``E`` frame
  holding ``([(best, reused, seconds)...], busy_seconds)``, one row per
  scenario of the ``S`` frame, in its order.

End of file on stdin — the engine closed the pipe, or its process
died — makes the worker exit.

Folding
-------
Each scenario is a fold over a completion-time list ``comp``: its first
``m`` entries are seeded with the carried ready time of each distinct
location the block reads, and instruction ``j``'s completion is
appended as ``comp[m + j]``.  A windowed scenario first runs
:func:`_fill` while its window has empty slots; the steady-state loops
after it exploit the ring identity ``(fetched - W) % W == fetched % W``:
the gate entry is exactly the slot the current graduation time is
about to overwrite.
"""

from __future__ import annotations

import marshal
import os
import signal
import struct
import sys
import time
from array import array
from itertools import repeat

#: Frame header: tag byte, payload length.
HEADER = struct.Struct("<cQ")


class ScenarioState:
    """Per-scenario fold state carried across blocks."""

    __slots__ = (
        "kind", "window", "latency", "k", "fetch_free",
        "ready", "ring", "room", "idx", "grad", "best", "reused", "seconds",
    )

    def __init__(self, kind: str, window: int | None, latency: float,
                 k: float | None, fetch_free: bool):
        self.kind = kind
        self.window = window
        self.latency = latency
        self.k = k
        self.fetch_free = fetch_free
        #: completion time of each location's last writer so far (a
        #: never-written location reads as 0.0)
        self.ready: dict[int, float] = {}
        self.ring: list[float] = []
        self.room = window or 0
        self.idx = 0
        self.grad = 0.0
        self.best = 0.0
        self.reused = 0
        #: fold seconds so far
        self.seconds = 0.0


class Block:
    """Shared (scenario-independent) precompute over one block.

    ``seeds`` are the distinct locations the block reads (``comp[0:m]``);
    ``prods`` holds each instruction's producer references into
    ``comp``; ``written``/``written_refs`` pair each location written in
    the block with the ``comp`` index of its last writer.
    """

    __slots__ = (
        "n", "lats", "flags", "prods", "span_ids", "gate_refs", "span_io",
        "seeds", "written", "written_refs",
    )


def encode_block(pre: Block) -> bytes:
    """The ``B`` payload of one block."""
    lats = pre.lats
    return marshal.dumps((
        pre.n, lats.typecode, lats, pre.flags, pre.prods, pre.span_ids,
        pre.gate_refs, pre.span_io, pre.seeds, pre.written, pre.written_refs,
    ))


def decode_block(payload: bytes) -> Block:
    """Inverse of :func:`encode_block` (``flags`` comes back as bytes)."""
    pre = Block()
    (pre.n, typecode, raw, pre.flags, pre.prods, pre.span_ids,
     pre.gate_refs, pre.span_io, pre.seeds, pre.written,
     pre.written_refs) = marshal.loads(payload)
    pre.lats = array(typecode)
    pre.lats.frombytes(raw)
    return pre


def fold_block(states: list[ScenarioState], pre: Block) -> None:
    """Fold every scenario in ``states`` over one block."""
    seeds = pre.seeds
    written = pre.written
    written_refs = pre.written_refs
    zeros = repeat(0.0)
    clock = time.perf_counter
    for st in states:
        t0 = clock()
        ready = st.ready
        comp = list(map(ready.get, seeds, zeros))
        kind = st.kind
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
# the worker
# ----------------------------------------------------------------------

def read_exact(rfile, size: int) -> bytes:
    """``size`` bytes from ``rfile``, or fewer at end of file."""
    parts = []
    while size:
        part = rfile.read(size)
        if not part:
            break
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def read_frame(rfile) -> tuple[bytes, bytes] | None:
    """``(tag, payload)``, or None at end of file."""
    head = read_exact(rfile, HEADER.size)
    if len(head) < HEADER.size:
        return None
    tag, size = HEADER.unpack(head)
    payload = read_exact(rfile, size)
    if len(payload) < size:
        return None
    return tag, payload


def write_frame(wfile, tag: bytes, payload: bytes) -> None:
    """Write one frame; ``wfile`` may be raw (partial writes) or buffered."""
    data = memoryview(HEADER.pack(tag, len(payload)) + payload)
    while data:
        data = data[wfile.write(data):]
    wfile.flush()


def serve(rfile, wfile) -> None:
    """Answer frames from ``rfile`` until end of file."""
    states: list[ScenarioState] = []
    busy = 0.0
    clock = time.perf_counter
    while True:
        frame = read_frame(rfile)
        if frame is None:
            return
        tag, payload = frame
        t0 = clock()
        if tag == b"B":
            fold_block(states, decode_block(payload))
        elif tag == b"S":
            states = [ScenarioState(*spec) for spec in marshal.loads(payload)]
            busy = 0.0
        else:
            rows = [(st.best, st.reused, st.seconds) for st in states]
            write_frame(wfile, b"E", marshal.dumps((rows, busy)))
            states = []
            continue
        busy += clock() - t0


# ----------------------------------------------------------------------
# scenario folds.  Each appends the block's completions to comp.
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


def _span_lats(st: ScenarioState, pre: Block) -> list[float]:
    if st.k is not None:
        k = st.k
        return [k * (i + o) for i, o in pre.span_io]
    return [st.latency] * len(pre.span_io)


def _fill(st: ScenarioState, pre: Block, comp: list[float],
          span_lats: list[float] | None) -> int:
    """Fold leading instructions while the window still has empty
    slots (no gate yet); returns how many instructions were folded.

    Fetch-free span instructions take no slot, so the fill can end at
    any point of the block; every scenario kind shares this loop.
    """
    kind = st.kind
    latency = st.latency
    fetch_free = kind == "tlr" and st.fetch_free
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


def _fold_base(st: ScenarioState, pre: Block, comp: list[float]) -> None:
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


def _fold_ilr(st: ScenarioState, pre: Block, comp: list[float]) -> None:
    window = st.window
    latency = st.latency
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


def _fold_tlr(st: ScenarioState, pre: Block, comp: list[float]) -> None:
    window = st.window
    span_lats = _span_lats(st, pre)
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
    if st.fetch_free:
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


if __name__ == "__main__":
    # the engine's process handles ^C; a worker just sees its pipe close
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        serve(sys.stdin.buffer, sys.stdout.buffer)
    except BrokenPipeError:
        # the engine went away mid-reply; skip the exit-time flush
        os._exit(0)
