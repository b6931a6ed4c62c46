"""Workload registry and execution helpers."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.vm import backends, tracecache
from repro.vm.assembler import assemble
from repro.vm.program import Program
from repro.vm.trace import ColumnarTrace

#: Suite order follows the paper's figures (FP first, then INT).
FP_SUITE = ["applu", "apsi", "fpppp", "hydro2d", "su2cor", "tomcatv", "turb3d"]
INT_SUITE = ["compress", "gcc", "go", "ijpeg", "li", "perl", "vortex"]


@dataclass(frozen=True, slots=True)
class Workload:
    """A registered benchmark kernel.

    ``builder`` returns assembly source text; ``scale`` grows data
    sizes and iteration counts roughly linearly.
    """

    name: str
    suite: str
    description: str
    builder: Callable[[int], str] = field(compare=False)

    def source(self, scale: int = 1) -> str:
        """Assembly source at the given scale."""
        if scale < 1:
            raise ValueError("scale must be >= 1")
        return self.builder(scale)

    def program(self, scale: int = 1) -> Program:
        """Assemble the kernel."""
        return assemble(self.source(scale), name=self.name)


_REGISTRY: dict[str, Workload] = {}


def register(name: str, suite: str, description: str):
    """Decorator: register a kernel builder under ``name``."""
    if suite not in ("INT", "FP"):
        raise ValueError(f"unknown suite {suite!r}")

    def wrap(builder: Callable[[int], str]) -> Callable[[int], str]:
        if name in _REGISTRY:
            raise ValueError(f"duplicate workload {name!r}")
        _REGISTRY[name] = Workload(
            name=name, suite=suite, description=description, builder=builder
        )
        return builder

    return wrap


def get_workload(name: str) -> Workload:
    """Look up a registered kernel by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None


def all_workloads() -> list[Workload]:
    """All kernels in the paper's reporting order (FP suite, INT suite)."""
    ordered = FP_SUITE + INT_SUITE
    return [_REGISTRY[name] for name in ordered if name in _REGISTRY]


def build_program(name: str, scale: int = 1) -> Program:
    """Assemble a kernel by name."""
    return get_workload(name).program(scale)


def run_workload(
    name: str,
    *,
    scale: int = 1,
    max_instructions: int | None = 60_000,
    use_cache: bool = True,
    backend: str | None = None,
) -> ColumnarTrace:
    """Assemble and execute a kernel, capturing its dynamic trace.

    Kernels contain outer repetition loops sized well beyond any
    realistic budget, so the run is normally truncated at
    ``max_instructions`` — the analogue of the paper's fixed 50M
    instruction window per program.

    ``backend`` picks the execution backend (see
    :mod:`repro.vm.backends`): ``None`` defers to the
    ``REPRO_BACKEND`` environment variable and then the default
    interpreter.  Backends are bit-identical by contract, so the
    choice affects wall-clock time only; cache entries are
    nevertheless keyed per backend.

    Kernels are deterministic, so the trace is memoised on disk via
    :mod:`repro.vm.tracecache` (keyed by the generated assembly source
    and the VM code fingerprint); pass ``use_cache=False`` — or set
    ``REPRO_TRACE_CACHE=0`` — to force re-execution.
    """
    resolved = backends.resolve_backend(backend)
    workload = get_workload(name)
    source = workload.source(scale)
    if use_cache:
        cached = tracecache.load_cached_trace(
            name, scale, max_instructions, source, resolved
        )
        if cached is not None:
            return cached
    machine = backends.create_machine(
        assemble(source, name=name), resolved
    )
    trace = machine.run(max_instructions=max_instructions)
    if use_cache:
        tracecache.store_cached_trace(
            name, scale, max_instructions, source, trace, resolved
        )
    return trace


def stream_workload(
    name: str,
    *,
    scale: int = 1,
    max_instructions: int | None = 60_000,
    use_cache: bool = True,
    backend: str | None = None,
    chunk_size: int | None = None,
):
    """Like :func:`run_workload`, but returns a **chunk stream** — the
    trace is never held whole in memory.

    Cache hits stream straight out of the v3 entry
    (:class:`~repro.vm.tracestream.FileTraceStream`, O(chunk) decode).
    Misses with the cache enabled take the **direct execute→analyze
    path**: a :class:`~repro.vm.tracestream.TeeChunkStream` feeds
    segments straight from the machine to the consumer while a
    background writer persists the same segments into the cache entry
    — one execution, no serialize-then-reread round trip.  With the
    cache off, an :class:`~repro.vm.tracestream.ExecutionChunkStream`
    re-executes the (deterministic) kernel on every drain.
    """
    from repro.vm.tracestream import DEFAULT_CHUNK_SIZE, ExecutionChunkStream

    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
    resolved = backends.resolve_backend(backend)
    workload = get_workload(name)
    source = workload.source(scale)
    if use_cache:
        cached = tracecache.load_cached_trace_stream(
            name, scale, max_instructions, source, resolved
        )
        if cached is not None:
            return cached

    def factory():
        return backends.create_machine(assemble(source, name=name), resolved)

    exec_stream = ExecutionChunkStream(
        factory,
        program_name=name,
        max_instructions=max_instructions,
        chunk_size=chunk_size,
    )
    if use_cache:
        return tracecache.tee_cached_trace_stream(
            name, scale, max_instructions, source, exec_stream, resolved
        )
    return exec_stream
