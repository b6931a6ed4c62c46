"""The benchmark's workloads.

Each workload owns one kind of operation and is dominated by one module
of the program:

- ``cold-profile``: ``run_profile`` with empty caches (``repro.dataflow``)
- ``trace-capture``: cold ``stream_workload`` drained into the trace
  cache (``repro.vm`` execution plus ``repro.vm.tracev3`` encode)
- ``trace-replay``: warm ``stream_workload`` drained (v3 decode)
- ``rtm-sweep``: ``FiniteReuseSimulator`` over warm cached traces
  (``repro.core.rtm``)
- ``serve-warm``: open-loop HTTP against ``repro serve`` over a warm
  profile cache (``repro.exp.service``)

Every operation's output is checked against ``pinned.json``.  In the
traced run a workload also splits its operation into layers with extra
calls to the same public entry points (``extras``); the spans and the
counters land in a :class:`LayerStats`.
"""

from __future__ import annotations

import itertools
import os
import pathlib
import random
import shutil
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext

from repro import obs
from repro.core.rtm import (
    RTM_PRESETS,
    FiniteReuseSimulator,
    FixedLengthHeuristic,
    ILRHeuristic,
)
from repro.dataflow.model import Scenario
from repro.dataflow.streaming import StreamingDataflowEngine
from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_profile, run_profile_reference
from repro.exp.service.server import ServiceFrontend
from repro.vm import backends, tracecache
from repro.vm.assembler import assemble
from repro.vm.tracestream import (
    ColumnarChunkStream,
    ExecutionChunkStream,
    FileTraceStream,
    write_stream,
)
from repro.workloads.base import (
    FP_SUITE,
    INT_SUITE,
    get_workload,
    run_workload,
    stream_workload,
)

import digests
import hostspeed
import serveload
from hostspeed import Stopwatch
from spans import SpanRecorder, TimedStream

BACKEND = "fast"

#: Kernels by reuse class; ``inputs.json`` records each one's reuse %
#: and average reusable-trace size at every budget used here.  The
#: classes load the shared analysis layers and the per-scenario folds
#: differently; an operation covers all ten kernels, and per-layer
#: metrics are also reported per class.
CLASSES = {
    "low": ("applu", "fpppp", "li", "vortex"),
    "fp": ("tomcatv", "hydro2d", "turb3d"),
    "int": ("go", "compress", "perl"),
}
SLOTS = tuple(CLASSES)
ALL_KERNELS = tuple(FP_SUITE + INT_SUITE)

#: Inputs per size.  ``full`` is what the benchmark measures, ``probe``
#: what the traced run uses for layers a workload never calls, ``smoke``
#: what the benchmark's own tests use.  Budgets are instructions per
#: kernel; an operation covers every class kernel (``probe``: the picks).
SIZES = {
    "full": dict(profile=40_000, capture=300_000, replay=150_000,
                 rtm=8_000, serve=2_000, rate=160.0, warm=1_000,
                 oracle=3_000, kernels="all"),
    "probe": dict(profile=20_000, capture=50_000, replay=50_000,
                  rtm=3_000, serve=500, rate=40.0, warm=500, oracle=1_000,
                  kernels="picks"),
    "smoke": dict(profile=3_000, capture=5_000, replay=5_000,
                  rtm=1_000, serve=500, rate=20.0, warm=500, oracle=1_000,
                  kernels="all"),
}

RTM_SIZES = ("4K", "256K")
HEURISTICS = (ILRHeuristic(expand=False), ILRHeuristic(expand=True),
              FixedLengthHeuristic(4))


def heuristic_tag(h) -> str:
    return h.name.lower().replace(" ", "_")


def pick_kernels(seed: int) -> dict[str, str]:
    """One kernel per reuse class.  Seed 0 picks applu, tomcatv and go;
    any ten consecutive seeds pick ten different combinations."""
    combos = list(itertools.product(*CLASSES.values()))
    order = [combos[0]] + random.Random(1999).sample(combos[1:],
                                                     len(combos) - 1)
    return dict(zip(SLOTS, order[seed % len(order)]))


def kernel_order(seed: int) -> list[tuple[str, str]]:
    """Every class kernel as ``(class, kernel)``, in a seeded order."""
    pairs = [(slot, k) for slot, names in CLASSES.items() for k in names]
    random.Random(seed).shuffle(pairs)
    return pairs


def profile_config(budget: int) -> ExperimentConfig:
    """Production defaults except the budget and the execution backend."""
    return ExperimentConfig(max_instructions=budget, backend=BACKEND)


def profile_scenarios(config: ExperimentConfig) -> list[Scenario]:
    """The 24 scenarios ``run_profile`` evaluates, in its order."""
    win = config.window_size
    out = [Scenario("base", window_size=None),
           Scenario("base", window_size=win)]
    for latency in config.reuse_latencies:
        lat = float(latency)
        out += [Scenario("ilr", window_size=None, latency=lat),
                Scenario("ilr", window_size=win, latency=lat),
                Scenario("tlr", window_size=None, latency=lat),
                Scenario("tlr", window_size=win, latency=lat)]
    out += [Scenario("tlr", window_size=win, k=k)
            for k in config.proportional_ks]
    return out


def execution_stream(kernel: str, budget: int) -> ExecutionChunkStream:
    """An uncached chunk stream that executes ``kernel`` on each drain."""
    source = get_workload(kernel).source(1)

    def factory():
        return backends.create_machine(assemble(source, name=kernel), BACKEND)

    return ExecutionChunkStream(factory, program_name=kernel,
                                max_instructions=budget)


def trace_entry(kernel: str, budget: int) -> pathlib.Path:
    """The trace-cache file ``stream_workload``/``run_workload`` use."""
    return tracecache.trace_path(kernel, 1, budget,
                                 get_workload(kernel).source(1), BACKEND)


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count for this process (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: int | str = "self") -> float | None:
    """``VmHWM``: peak RSS since start or the last reset (Linux)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def drain(stream) -> int:
    n = 0
    for chunk in stream.chunks():
        n += len(chunk)
    return n


class LayerStats:
    """Per-layer samples: rates (numerator, denominator) and values,
    keyed by ``(metric, slot)`` where slot is a reuse class or None."""

    def __init__(self) -> None:
        self.rates: dict[tuple, list[float]] = defaultdict(lambda: [0.0, 0.0])
        self.values: dict[tuple, list[float]] = defaultdict(list)

    def rate(self, metric: str, slot, num: float, den: float) -> None:
        entry = self.rates[(metric, slot)]
        entry[0] += num
        entry[1] += den

    def value(self, metric: str, slot, v: float) -> None:
        self.values[(metric, slot)].append(v)


class Context:
    """What one run shares: sizes, picks, output checks, stats, spans."""

    def __init__(self, root: pathlib.Path, size: str, seed: int,
                 checker: digests.Checker, env: dict) -> None:
        self.root = root
        self.sizes = SIZES[size]
        self.seed = seed
        self.picks = pick_kernels(seed)
        self.order = (kernel_order(seed) if self.sizes["kernels"] == "all"
                      else list(self.picks.items()))
        self.checker = checker
        self.env = env
        self.stats = LayerStats()
        #: the traced run's recorder, and the one spans go to right now
        #: (None while an untraced operation runs)
        self.recorder: SpanRecorder | None = None
        self.rec: SpanRecorder | None = None
        self._caches = 0
        self.cache: pathlib.Path | None = None

    def fresh_cache(self) -> pathlib.Path:
        """Point ``REPRO_CACHE_DIR`` at a new empty directory, dropping
        the previous one."""
        if self.cache is not None:
            shutil.rmtree(self.cache, ignore_errors=True)
        self._caches += 1
        self.cache = self.root / f"cache{self._caches}"
        self.cache.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(self.cache)
        return self.cache

    def span(self, name: str):
        return self.rec.span(name) if self.rec is not None else nullcontext()

    def host_scale(self) -> float:
        """Sample the host's speed (see :mod:`hostspeed`)."""
        with self.span("bench.hostspeed"):
            return hostspeed.factor()

    def kernels(self):
        """What one operation covers, in order: ``(class, kernel)``."""
        return self.order


class Workload:
    """One operation kind; ``op`` runs it once over the context's kernels."""

    name = ""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.sz = ctx.sizes
        self.op_rss_mb: list = []

    def prefill(self) -> None:
        """Fill the (fresh) cache with what the operations read."""

    def instructions_per_op(self) -> int:
        """Simulated instructions (times configurations) one op covers."""
        return 0

    def start(self) -> float:
        """Start long-lived helpers; returns the seconds it took."""
        return 0.0

    def op(self, traced: bool) -> Stopwatch:
        """One timed operation; returns the time the program ran."""
        raise NotImplementedError

    def run(self, seconds: float, traced: str) -> tuple[list, list]:
        """Run operations for ``seconds``.

        ``traced`` is ``"off"``, ``"on"`` or ``"alternate"`` (untraced
        and traced operations interleaved, for the tracing overhead).
        Returns the untraced and the traced operations' stopwatches.
        """
        plain, spanned = [], []
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            use = traced == "on" or (traced == "alternate" and i % 2 == 1)
            self.ctx.rec = self.ctx.recorder if use else None
            reset_peak_rss()
            with self.ctx.span("bench.op"):
                (spanned if use else plain).append(self.op(use))
            self.op_rss_mb.append(peak_rss_mb())
            i += 1
            if time.perf_counter() >= deadline and (
                    traced != "alternate" or i >= 2):
                break
        return plain, spanned

    def extras(self) -> None:
        """Traced run only: split the operation into its layers."""

    def verify(self) -> None:
        """Output checks run once, after the timed loop."""

    def peak_rss_mb(self) -> float | None:
        """Peak RSS while the operations ran: the median over operations
        of each one's peak (the process's peak resets before each)."""
        rss = [v for v in self.op_rss_mb if v is not None]
        return statistics.median(rss) if rss else None

    def close(self) -> None:
        pass


class ColdProfile(Workload):
    name = "cold-profile"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.config = profile_config(self.sz["profile"])
        self.profiles = {}
        self.walls = defaultdict(list)

    def instructions_per_op(self):
        return len(self.ctx.kernels()) * self.sz["profile"]

    def prefill(self):
        # nothing is read from the cache; this warms what a process does
        # once per kernel (module digests, lazy imports)
        warm = profile_config(self.sz["warm"])
        for _slot, k in self.ctx.kernels():
            run_profile(k, warm)

    def op(self, traced):
        ctx = self.ctx
        ctx.fresh_cache()
        watch = Stopwatch()
        for slot, k in ctx.kernels():
            scale = ctx.host_scale()
            with obs.scope() as tel:
                with ctx.span("runner.run_profile"):
                    t0 = time.perf_counter()
                    p = run_profile(k, self.config)
                    dt = time.perf_counter() - t0
            watch.add(dt, scale)
            ok = ctx.checker.check(
                f"profile/{k}/{self.sz['profile']}", digests.profile_digest(p))
            self.profiles[k] = p
            if traced and ok:
                self.walls[k].append(dt)
                self._record(slot, p, tel)
        return watch

    def _record(self, slot, p, tel):
        st = self.ctx.stats
        for stage in ("trace", "reusability", "engine_init", "analysis"):
            entry = tel.timers.get(f"stage.{stage}")
            st.value(f"runner.stage_{stage}_s", slot,
                     entry[0] if entry else 0.0)
        record_cache_counters(st, tel)
        st.value("runner.instructions", slot, p.dynamic_count)
        st.value("dataflow.percent_reusable", slot, p.percent_reusable)
        st.value("dataflow.avg_trace_size", slot, p.avg_trace_size)
        st.value("dataflow.trace_count", slot, p.trace_count)

    def extras(self):
        ctx, st, B = self.ctx, self.ctx.stats, self.sz["profile"]
        scenarios = profile_scenarios(self.config)
        for slot, k in ctx.picks.items():
            with ctx.span("bench.extras"):
                with ctx.span("vm.execute"):
                    t0 = time.perf_counter()
                    n = drain(execution_stream(k, B))
                    t_exec = time.perf_counter() - t0
                st.rate("vm.execute_ns_per_instr", slot, t_exec * 1e9, n)
                if self.walls[k]:
                    st.rate("runner.exec_multiple", slot,
                            statistics.median(self.walls[k]), t_exec)
                with ctx.span("tracecache.run_workload"):
                    t0 = time.perf_counter()
                    trace = run_workload(k, max_instructions=B,
                                         backend=BACKEND)
                    st.rate("tracecache.trace_load_ns_per_instr", slot,
                            (time.perf_counter() - t0) * 1e9, len(trace))
                shared = self._analysis(trace, [], "dataflow.analyze_shared")
                full = self._analysis(trace, scenarios, "dataflow.analyze_all")
                st.rate("dataflow.shared_ns_per_instr", slot, shared * 1e9, n)
                st.rate("dataflow.fold_ns_per_instr_scenario", slot,
                        (full - shared) * 1e9, n * len(scenarios))
                key = self.config.cache_key()
                profile = self.profiles.get(k)
                if profile is not None:
                    with ctx.span("tracecache.store_profile"):
                        t0 = time.perf_counter()
                        tracecache.store_cached_profile(k, key, profile)
                        st.value("tracecache.profile_store_ms", slot,
                                 (time.perf_counter() - t0) * 1e3)
                with ctx.span("tracecache.load_profile"):
                    t0 = time.perf_counter()
                    tracecache.load_cached_profile(k, key)
                    st.value("tracecache.profile_load_ms", None,
                             (time.perf_counter() - t0) * 1e3)

    def _analysis(self, trace, scenarios, name) -> float:
        """Self time of one engine drain, minus the source's ``chunks()``."""
        src = TimedStream(ColumnarChunkStream(trace), self.ctx.rec,
                          "tracestream.chunks")
        with self.ctx.span(name):
            t0 = time.perf_counter()
            StreamingDataflowEngine(src).analyze_all(scenarios)
            return time.perf_counter() - t0 - src.seconds

    def verify(self):
        """The production path against the slow reference pipeline."""
        config = profile_config(self.sz["oracle"])
        self.ctx.fresh_cache()
        for _slot, k in self.ctx.picks.items():
            fast = digests.profile_digest(run_profile(k, config))
            ref = digests.profile_digest(run_profile_reference(k, config))
            self.ctx.checker.expect(f"oracle/{k}/{config.max_instructions}",
                                    fast == ref)


def record_cache_counters(st: LayerStats, tel) -> None:
    for layer in ("trace", "profile"):
        for kind in ("hit", "miss"):
            st.value(f"tracecache.{layer}_{kind}", None,
                     tel.counters.get(f"{layer}_cache.{kind}", 0))


class TraceCapture(Workload):
    name = "trace-capture"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.entry_shas: dict[str, list[str]] = defaultdict(list)

    def instructions_per_op(self):
        return len(self.ctx.kernels()) * self.sz["capture"]

    def prefill(self):
        for _slot, k in self.ctx.kernels():
            drain(stream_workload(k, max_instructions=self.sz["warm"],
                                  backend=BACKEND))

    def op(self, traced):
        ctx, C = self.ctx, self.sz["capture"]
        ctx.fresh_cache()
        watch = Stopwatch()
        for slot, k in ctx.kernels():
            scale = ctx.host_scale()
            with obs.scope() as tel:
                t0 = time.perf_counter()
                with ctx.span("tracecache.stream_workload"):
                    stream = stream_workload(k, max_instructions=C,
                                             backend=BACKEND)
                src = TimedStream(stream, ctx.rec, "tracestream.tee_chunks")
                with ctx.span("tracecache.tee_capture"):
                    n = drain(src)
                watch.add(time.perf_counter() - t0, scale)
            with ctx.span("bench.verify"):
                self.entry_shas[k].append(
                    digests.file_digest(trace_entry(k, C)))
            if traced:
                record_cache_counters(ctx.stats, tel)
                ctx.stats.value("runner.instructions", slot, n)
        return watch

    def verify(self):
        """The last operation's entries against the pinned columns; every
        earlier operation must have written the same bytes."""
        C = self.sz["capture"]
        for k, shas in self.entry_shas.items():
            key = f"trace/{k}/{C}"
            self.ctx.checker.check(key, column_digest(trace_entry(k, C)))
            for sha in shas[:-1]:
                self.ctx.checker.expect(key, sha == shas[-1])

    def extras(self):
        ctx, st, C = self.ctx, self.ctx.stats, self.sz["capture"]
        for slot, k in ctx.picks.items():
            with ctx.span("bench.extras"):
                with ctx.span("vm.execute"):
                    t0 = time.perf_counter()
                    n = drain(execution_stream(k, C))
                    st.rate("vm.execute_ns_per_instr", slot,
                            (time.perf_counter() - t0) * 1e9, n)
                encode_split(ctx, slot, k, C)


def encode_split(ctx: Context, slot, kernel: str, budget: int) -> None:
    """``write_stream`` self time (encode and persist) minus the time
    spent inside its source's ``chunks()`` (execution)."""
    path = ctx.root / f"split-{kernel}.trace"
    src = TimedStream(execution_stream(kernel, budget), ctx.rec,
                      "vm.execute_chunks")
    with ctx.span("tracev3.write_stream"):
        t0 = time.perf_counter()
        n = write_stream(src, path)
        encode = time.perf_counter() - t0 - src.seconds
    st = ctx.stats
    st.rate("tracev3.encode_ns_per_instr", slot, encode * 1e9, n)
    st.rate("tracev3.bytes_per_instr", slot, path.stat().st_size, n)
    with FileTraceStream(path) as stream:
        st.value("tracev3.chunks", slot, stream.reader.chunk_count)
    path.unlink()


def column_digest(path) -> str | None:
    d = digests.ColumnDigest()
    with FileTraceStream(path) as stream:
        for chunk in stream.chunks():
            d.update(chunk)
    return d.hexdigest()


class TraceReplay(Workload):
    name = "trace-replay"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.counts: dict[str, int] = {}

    def instructions_per_op(self):
        return len(self.ctx.kernels()) * self.sz["replay"]

    def prefill(self):
        for _slot, k in self.ctx.kernels():
            drain(stream_workload(k, max_instructions=self.sz["replay"],
                                  backend=BACKEND))

    def op(self, traced):
        ctx, R = self.ctx, self.sz["replay"]
        watch = Stopwatch()
        for slot, k in ctx.kernels():
            scale = ctx.host_scale()
            check = k not in self.counts
            d = digests.ColumnDigest() if check else None
            with obs.scope() as tel:
                t0 = time.perf_counter()
                with ctx.span("tracecache.stream_workload"):
                    stream = stream_workload(k, max_instructions=R,
                                             backend=BACKEND)
                opened = time.perf_counter() - t0
                src = TimedStream(stream, ctx.rec, "tracev3.decode_chunks")
                n = 0
                with ctx.span("bench.drain"):
                    for chunk in src.chunks():
                        n += len(chunk)
                        if d is not None:
                            d.update(chunk)
                with ctx.span("tracestream.close"):
                    t0 = time.perf_counter()
                    stream.close()
                    closed = time.perf_counter() - t0
            watch.add(opened + src.seconds + closed, scale)
            key = f"trace/{k}/{R}"
            if check:
                self.counts[k] = n
                ctx.checker.check(key, d.hexdigest())
            else:
                ctx.checker.expect(key, n == self.counts[k])
            if traced:
                st = ctx.stats
                record_cache_counters(st, tel)
                st.rate("tracev3.decode_ns_per_instr", slot,
                        src.seconds * 1e9, n)
                st.value("tracev3.chunks", slot, src.chunk_count)
                st.value("runner.instructions", slot, n)
        return watch


class RtmSweep(Workload):
    name = "rtm-sweep"

    def instructions_per_op(self):
        return (len(self.ctx.kernels()) * self.sz["rtm"] * len(RTM_SIZES)
                * len(HEURISTICS))

    def prefill(self):
        for _slot, k in self.ctx.kernels():
            run_workload(k, max_instructions=self.sz["rtm"], backend=BACKEND)

    def op(self, traced):
        ctx, st, T = self.ctx, self.ctx.stats, self.sz["rtm"]
        watch = Stopwatch()
        for slot, k in ctx.kernels():
            scale = ctx.host_scale()
            with obs.scope() as tel:
                with ctx.span("tracecache.run_workload"):
                    t0 = time.perf_counter()
                    trace = run_workload(k, max_instructions=T,
                                         backend=BACKEND)
                    load = time.perf_counter() - t0
            watch.add(load, scale)
            n = len(trace)
            if traced:
                record_cache_counters(st, tel)
                st.rate("tracecache.trace_load_ns_per_instr", slot,
                        load * 1e9, n)
                st.value("runner.instructions", slot, n)
            for size in RTM_SIZES:
                for h in HEURISTICS:
                    with ctx.span("rtm.simulate"):
                        t0 = time.perf_counter()
                        sim = FiniteReuseSimulator(RTM_PRESETS[size], h)
                        r = sim.run(trace)
                        dt = time.perf_counter() - t0
                    watch.add(dt, scale)
                    ok = ctx.checker.check(
                        f"rtm/{k}/{T}/{size}/{heuristic_tag(h)}",
                        digests.rtm_digest(r))
                    if traced and ok:
                        st.rate("rtm.sim_ns_per_instr", slot, dt * 1e9, n)
                        st.rate(f"rtm.sim_ns_per_instr.{heuristic_tag(h)}",
                                None, dt * 1e9, n)
                        st.rate("rtm.percent_reused", slot,
                                100.0 * r.reused_instructions,
                                r.total_instructions)
                        st.rate("rtm.avg_reused_trace_size", slot,
                                r.reused_instructions, r.reuse_events)
                        st.value("rtm.invalidations", slot,
                                 r.rtm_invalidations)
        return watch


class ServeWarm(Workload):
    name = "serve-warm"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.server: serveload.ServerProcess | None = None
        self.rss: float | None = None

    def prefill(self):
        config = profile_config(self.sz["serve"])
        for k in ALL_KERNELS:
            run_profile(k, config)

    def start(self):
        env = dict(self.ctx.env, REPRO_CACHE_DIR=str(self.ctx.cache))
        t0 = time.perf_counter()
        self.server = serveload.ServerProcess(
            env, self.sz["serve"], self.ctx.root / "serve.log")
        return time.perf_counter() - t0

    def run(self, seconds, traced):
        """Requests are the operations; ``alternate`` sends an untraced
        half then a traced half."""
        if traced == "alternate":
            plain, _ = self._load(seconds / 2, False, self.ctx.seed)
            _, spanned = self._load(seconds / 2, True, self.ctx.seed + 1)
            return plain, spanned
        return self._load(seconds, traced == "on", self.ctx.seed)

    def _load(self, seconds, traced, seed):
        """One open loop.  Request latency is reported unscaled: it is
        mostly wake-ups and system calls, which do not track the
        host-speed loop (scaling per 1 s segment widened the spread
        across seeds from 6% to 11%)."""
        ctx, S, rate = self.ctx, self.sz["serve"], self.sz["rate"]
        ctx.rec = ctx.recorder if traced else None
        plan = serveload.request_plan(seed, max(1, int(rate * seconds)),
                                      ALL_KERNELS, S)
        results = serveload.run_open_loop(self.server.port, plan, rate)
        watches, hits, late, service_ms = [], 0, [], []
        for (kind, path, expect), (due, sent, done, status, body) in zip(
                plan, results):
            good = status == expect
            ctx.checker.check(serveload.digest_key(S, path),
                              digests.body_digest(body) if good else None)
            watch = Stopwatch()
            watch.add(done - due, 1.0)
            watches.append(watch)
            late.append(sent - due)
            hits += status == 200
            if kind == "profile":
                service_ms.append((done - sent) * 1e3)
            if traced:
                ctx.rec.add("service.http_request", sent, done)
        if traced:
            st = ctx.stats
            st.rate("service.hit_ratio", None, hits, len(plan))
            st.value("service.requests", None, len(plan))
            st.values[("service.generator_late_ms", None)].extend(
                x * 1e3 for x in late)
            st.values[("service.http_ms", None)].extend(service_ms)
        self.rss = peak_rss_mb(self.server.proc.pid)
        return (watches, []) if not traced else ([], watches)

    def extras(self):
        """In-process dispatch of each request kind, and profile loads."""
        ctx, st, S = self.ctx, self.ctx.stats, self.sz["serve"]
        frontend = ServiceFrontend(profile_config(S))
        requests = serveload.all_requests(ALL_KERNELS, S)
        with obs.scope() as tel:
            for _ in range(5):
                for kind, path, expect in requests:
                    route, params = serveload.split_request(path)
                    with ctx.span(f"service.dispatch.{kind}"):
                        t0 = time.perf_counter()
                        status, answer = frontend.dispatch(route, params)
                        st.value(f"service.dispatch_ms.{kind}", None,
                                 (time.perf_counter() - t0) * 1e3)
                    ctx.checker.check(
                        serveload.digest_key(S, path),
                        digests.answer_digest(answer)
                        if status == expect else None)
            key = profile_config(S).cache_key()
            for k in ALL_KERNELS:
                with ctx.span("tracecache.load_profile"):
                    t0 = time.perf_counter()
                    tracecache.load_cached_profile(k, key)
                    st.value("tracecache.profile_load_ms", None,
                             (time.perf_counter() - t0) * 1e3)
        record_cache_counters(st, tel)

    def peak_rss_mb(self):
        """The server's peak RSS."""
        return self.rss

    def close(self):
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {w.name: w for w in
             (ColdProfile, TraceCapture, TraceReplay, RtmSweep, ServeWarm)}
