"""Persistent on-disk cache for dynamic traces and benchmark profiles.

Every pytest session and every figure regeneration used to re-execute
all 14 VM kernels from scratch, although the kernels are deterministic:
the trace is a pure function of the assembly source, the VM semantics
and the instruction budget.  This module memoises that function on
disk, plus one level up — the fully analysed
:class:`~repro.exp.runner.BenchmarkProfile` — so a warm run of
``collect_profiles`` skips both VM execution *and* the dataflow
analysis.

Layout (under :func:`cache_dir`, default ``.repro-cache/``)::

    .repro-cache/
        traces/<workload>-s<scale>-n<budget>-<key>.trace   (tracefile v2)
        profiles/<workload>-n<budget>-<key>.pkl            (pickled profile)

Keys are sha256 digests over everything the cached value depends on:
the workload's *generated assembly source* (which folds in the
workload name, scale and generator code) plus the source text of the
modules that define the semantics — the ISA and VM for traces, and
additionally the analysis stack for profiles.  Any edit to those
modules changes the digest and silently invalidates old entries; stale
files are only reclaimed by ``repro cache clear``.

Knobs
-----

``REPRO_CACHE_DIR``
    Overrides the cache directory (default: ``.repro-cache`` under the
    current working directory).
``REPRO_TRACE_CACHE=0``
    Kill switch: disables both lookups and stores.

Concurrency
-----------

The cache is a *shared artifact store*: N sweep workers (and the
``repro serve`` front end) read and write one ``.repro-cache/`` at
once, across processes.  The discipline, in lock order:

1. Entry writes are atomic (pid-tagged temp file + ``os.replace``) so
   readers only ever observe a complete old or complete new entry;
   unreadable or corrupt entries are treated as misses and atomically
   rewritten by the recompute.
2. Read-modify-write paths take a per-entry advisory ``flock`` (a
   zero-byte sibling under ``locks/``), so two writers of the same key
   serialize instead of double-writing; writers of different keys
   never contend.
3. The profile index (``index/profiles.json``) is updated under its
   own lock with a compare-and-swap discipline: the current index is
   re-read *inside* the lock, merged, and atomically replaced — a
   pre-lock read is never trusted, so concurrent writers can not drop
   each other's updates (the classic last-writer-wins race).
   Lock order is entry lock → index lock, never the reverse.
4. A writer killed between ``mkstemp`` and ``os.replace`` leaves an
   orphan temp file; opening the cache reaps temp files whose creator
   pid is dead (immediately) or unknown and old (after an hour) —
   see :func:`repro.util.fslock.reap_stale_tmps`.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import pathlib
import pickle
from functools import lru_cache
from typing import Any

from repro.obs import get_logger, incr
from repro.util import fslock
from repro.vm.trace import ColumnarTrace
from repro.vm.tracefile import (
    MAGIC_V2,
    TraceFileError,
    load_trace,
    save_trace,
)
from repro.vm.tracev3 import MAGIC_V3, trace_v3_info

_log = get_logger("tracecache")

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Modules whose source defines what a trace *is*: editing any of them
#: invalidates every cached trace.
TRACE_MODULES = (
    "repro.isa.opcodes",
    "repro.isa.registers",
    "repro.vm.program",
    "repro.vm.assembler",
    "repro.vm.machine",
    "repro.vm.trace",
    "repro.vm.tracev3",
)

#: Extra trace-defining modules per non-default execution backend.
#: Backends are bit-identical by contract, but cache entries stay
#: segregated per backend: a backend bug must never poison entries
#: attributed to the reference interpreter, and editing the fast
#: backend must invalidate exactly the entries it produced.
BACKEND_TRACE_MODULES: dict[str, tuple[str, ...]] = {
    "fast": ("repro.vm.fastmachine", "repro.vm.backends"),
}


def _trace_modules(backend: str) -> tuple[str, ...]:
    return TRACE_MODULES + BACKEND_TRACE_MODULES.get(backend, ())

#: Modules that additionally define what a profile is (the analysis
#: stack on top of the trace).
ANALYSIS_MODULES = TRACE_MODULES + (
    "repro.baselines.ilr",
    "repro.core.traces",
    "repro.core.stats",
    "repro.core.reuse_tlr",
    "repro.dataflow.model",
    "repro.dataflow.streaming",
    "repro.exp.runner",
)


def cache_enabled() -> bool:
    """False when the ``REPRO_TRACE_CACHE=0`` kill switch is set."""
    return os.environ.get("REPRO_TRACE_CACHE", "1") != "0"


def cache_dir() -> pathlib.Path:
    """The cache root (``REPRO_CACHE_DIR`` or ``.repro-cache``)."""
    return pathlib.Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


@lru_cache(maxsize=None)
def _modules_digest(module_names: tuple[str, ...]) -> str:
    """sha256 over the concatenated source text of the named modules.

    Acts as the code fingerprint in cache keys: any semantic change to
    the VM or the analysis stack shows up in the source and therefore
    in the digest.
    """
    h = hashlib.sha256()
    for name in module_names:
        module = importlib.import_module(name)
        h.update(name.encode())
        h.update(inspect.getsource(module).encode())
    return h.hexdigest()


def _entry_key(digest: str, *parts: Any) -> str:
    h = hashlib.sha256(digest.encode())
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:20]


def _budget_tag(max_instructions: int | None) -> str:
    return "all" if max_instructions is None else str(max_instructions)


def _atomic_write(path: pathlib.Path, write_fn) -> None:
    """Write via ``write_fn(tmp_path)`` then atomically rename.

    The temp file is pid-tagged (see :func:`repro.util.fslock.
    make_tmp`) so a writer killed between the two steps leaves an
    orphan that :func:`reap_orphans` can attribute to a dead process.
    """
    tmp = fslock.make_tmp(path.parent, path.name)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def entry_lock_path(path: pathlib.Path) -> pathlib.Path:
    """The advisory lock file guarding one cache entry's writes."""
    return cache_dir() / "locks" / f"{path.name}.lock"


def _entry_lock(path: pathlib.Path):
    """Per-entry exclusive lock context (cheap: keyed by file name)."""
    return fslock.file_lock(entry_lock_path(path))


#: Cache roots already reaped by this process (reap once per root).
_reaped_roots: set[str] = set()


def reap_orphans(*, max_age: float = fslock.DEFAULT_TMP_MAX_AGE) -> int:
    """Reap orphaned ``*.tmp`` files across every cache layer.

    A worker killed between ``mkstemp`` and ``os.replace`` would
    otherwise leak its temp file forever.  Temp files whose embedded
    creator pid is dead go immediately; untagged ones only after
    ``max_age`` seconds.  Returns the number of files removed.
    """
    root = cache_dir()
    removed = 0
    for sub in ("traces", "profiles", "index"):
        removed += fslock.reap_stale_tmps(root / sub, max_age=max_age)
    if removed:
        incr("cache.orphans_reaped", removed)
    return removed


def _open_store() -> None:
    """Once per process and cache root: crash-orphan cleanup."""
    root = str(cache_dir())
    if root in _reaped_roots:
        return
    _reaped_roots.add(root)
    reap_orphans()


# ----------------------------------------------------------------------
# profile index
# ----------------------------------------------------------------------

def _index_path() -> pathlib.Path:
    return cache_dir() / "index" / "profiles.json"


def _index_lock():
    return fslock.file_lock(cache_dir() / "locks" / "profile-index.lock")


def _read_index(path: pathlib.Path) -> dict[str, Any]:
    """The index mapping (entry file name -> metadata); {} on damage."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return {}
    profiles = data.get("profiles") if isinstance(data, dict) else None
    return profiles if isinstance(profiles, dict) else {}


def load_profile_index() -> dict[str, Any]:
    """A point-in-time snapshot of the profile index (read-only)."""
    return _read_index(_index_path())


def _index_record(fname: str, meta: dict[str, Any]) -> None:
    """Merge one entry into the index, safely against racing writers.

    The compare-and-swap discipline: the current index is re-read
    *under the index lock* (never reused from before the lock), the
    entry is merged in, and the result replaces the file atomically.
    Two processes storing different keys concurrently therefore both
    land in the index — an unlocked read-modify-write here was the
    last-writer-wins race that silently dropped one of them.
    """
    path = _index_path()
    with _index_lock():
        profiles = _read_index(path)
        profiles[fname] = meta
        _atomic_write(path, lambda tmp: tmp.write_text(
            json.dumps({"schema": 1, "profiles": profiles},
                       sort_keys=True, separators=(",", ":")),
            encoding="utf-8",
        ))


def _index_clear() -> None:
    with _index_lock():
        _index_path().unlink(missing_ok=True)


# ----------------------------------------------------------------------
# trace layer
# ----------------------------------------------------------------------

def trace_path(
    name: str,
    scale: int,
    max_instructions: int | None,
    source_text: str,
    backend: str = "interp",
) -> pathlib.Path:
    """Cache file path for one (workload, scale, budget, backend) trace.

    ``source_text`` is the workload's generated assembly (passed in by
    the caller so this module needs no workload-registry import).
    ``backend`` is the execution backend that produced (or would
    produce) the trace; entries are keyed per backend even though
    backends are bit-identical by contract.
    """
    key = _entry_key(
        _modules_digest(_trace_modules(backend)), name, scale,
        max_instructions, source_text, backend,
    )
    tag = "" if backend == "interp" else f"-b{backend}"
    fname = (f"{name}-s{scale}-n{_budget_tag(max_instructions)}{tag}"
             f"-{key}.trace")
    return cache_dir() / "traces" / fname


def load_cached_trace(
    name: str,
    scale: int,
    max_instructions: int | None,
    source_text: str,
    backend: str = "interp",
) -> ColumnarTrace | None:
    """The cached trace, or None on a miss (including corrupt files)."""
    if not cache_enabled():
        return None
    _open_store()
    path = trace_path(name, scale, max_instructions, source_text, backend)
    if not path.is_file():
        incr("trace_cache.miss")
        return None
    try:
        trace = load_trace(path)
    except (TraceFileError, OSError) as exc:
        _log.warning("corrupt trace cache entry %s (%s); treating as a miss",
                     path, exc)
        incr("trace_cache.corrupt")
        incr("trace_cache.miss")
        return None
    if not isinstance(trace, ColumnarTrace):
        incr("trace_cache.miss")
        return None
    incr("trace_cache.hit")
    return trace


def store_cached_trace(
    name: str,
    scale: int,
    max_instructions: int | None,
    source_text: str,
    trace: ColumnarTrace,
    backend: str = "interp",
) -> None:
    """Persist a trace (no-op when the cache is disabled).

    The per-entry lock serializes concurrent writers of the same key
    (the content is identical by construction, so the second writer
    merely rewrites the same bytes) without slowing unrelated keys.
    """
    if not cache_enabled():
        return
    _open_store()
    path = trace_path(name, scale, max_instructions, source_text, backend)
    with _entry_lock(path):
        _atomic_write(path, lambda tmp: save_trace(trace, tmp, format="v3"))
    incr("trace_cache.store")


def load_cached_trace_stream(
    name: str,
    scale: int,
    max_instructions: int | None,
    source_text: str,
    backend: str = "interp",
):
    """The cached trace as a chunk stream, or None on a miss.

    v3 entries come back as a :class:`~repro.vm.tracestream.
    FileTraceStream` — chunks decode on demand with O(chunk) memory,
    the "zero-copy" cache-hit path.  Legacy v2 entries are loaded and
    wrapped (they were materialized on disk anyway).  Corrupt entries
    of either format are a miss, after which the caller re-executes
    and the store path atomically rewrites the entry.
    """
    if not cache_enabled():
        return None
    _open_store()
    path = trace_path(name, scale, max_instructions, source_text, backend)
    if not path.is_file():
        incr("trace_cache.miss")
        return None
    from repro.vm.tracestream import ColumnarChunkStream, FileTraceStream

    try:
        with open(path, "rb") as fh:
            prefix = fh.read(len(MAGIC_V3))
        if prefix == MAGIC_V3:
            stream = FileTraceStream(path)
        else:
            trace = load_trace(path)
            if not isinstance(trace, ColumnarTrace):
                incr("trace_cache.miss")
                return None
            stream = ColumnarChunkStream(trace)
    except (TraceFileError, OSError) as exc:
        _log.warning("corrupt trace cache entry %s (%s); treating as a miss",
                     path, exc)
        incr("trace_cache.corrupt")
        incr("trace_cache.miss")
        return None
    incr("trace_cache.hit")
    return stream


def tee_cached_trace_stream(
    name: str,
    scale: int,
    max_instructions: int | None,
    source_text: str,
    stream,
    backend: str = "interp",
):
    """Wrap an execution stream so its first drain *also* persists the
    trace into the cache — the direct execute→analyze cold path.

    The consumer analyzes segments as the machine produces them while
    a :class:`~repro.vm.tracev3.TraceWriter` (threaded when
    ``REPRO_CODEC_THREADS`` allows) writes the same segments to a
    pid-tagged temp file; a complete drain publishes it under the
    per-entry lock with an atomic ``os.replace``, and later drains
    replay from the published entry.  An abandoned or failed drain discards the
    temp file and publishes nothing.  Racing writers of the same key
    are safe: contents are identical by construction, and a live
    writer's pid-tagged temp is never reaped.

    With the cache disabled the stream is returned unchanged.
    """
    if not cache_enabled():
        return stream
    from repro.vm.tracestream import FileTraceStream, TeeChunkStream
    from repro.vm.tracev3 import TraceWriter

    _open_store()
    path = trace_path(name, scale, max_instructions, source_text, backend)

    def open_writer():
        try:
            tmp = fslock.make_tmp(path.parent, path.name)
            return TraceWriter(tmp, program_name=stream.program_name), tmp
        except OSError as exc:
            _log.warning("trace cache tee disabled (%s); analyzing "
                         "without persisting", exc)
            return None

    def commit(writer, tmp, source):
        try:
            writer.close(halted=source.halted, truncated=source.truncated)
            with _entry_lock(path):
                os.replace(tmp, path)
        except (OSError, TraceFileError) as exc:
            _log.warning("trace cache tee publish failed for %s (%s)",
                         path, exc)
            writer.abort()
            tmp.unlink(missing_ok=True)
            return None
        incr("trace_cache.store")
        try:
            return FileTraceStream(path)
        except (TraceFileError, OSError):  # entry raced away / damaged
            return None

    def abort(writer, tmp):
        writer.abort()
        tmp.unlink(missing_ok=True)

    return TeeChunkStream(stream, open_writer=open_writer, commit=commit,
                          abort=abort)


# ----------------------------------------------------------------------
# profile layer
# ----------------------------------------------------------------------

def profile_path(name: str, config_key: tuple) -> pathlib.Path:
    """Cache file path for one analysed benchmark profile.

    ``config_key`` is :meth:`ExperimentConfig.cache_key`'s tuple of
    ``(field_name, value)`` pairs covering every analysis-relevant
    config field — the full config minus execution knobs like worker
    counts, so two runs that differ in any semantic setting (budget,
    window, latency sweeps, ...) can never alias to one entry.
    """
    key = _entry_key(_modules_digest(ANALYSIS_MODULES), name, config_key)
    budget = dict(config_key).get("max_instructions")
    fname = f"{name}-n{_budget_tag(budget)}-{key}.pkl"
    return cache_dir() / "profiles" / fname


def load_cached_profile(name: str, config_key: tuple) -> Any | None:
    """The cached profile object, or None on a miss."""
    if not cache_enabled():
        return None
    _open_store()
    path = profile_path(name, config_key)
    if not path.is_file():
        incr("profile_cache.miss")
        return None
    try:
        with open(path, "rb") as fh:
            profile = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError) as exc:
        _log.warning("corrupt profile cache entry %s (%s); treating as a "
                     "miss", path, exc)
        incr("profile_cache.corrupt")
        incr("profile_cache.miss")
        return None
    incr("profile_cache.hit")
    return profile


def store_cached_profile(name: str, config_key: tuple, profile: Any) -> None:
    """Persist a profile (no-op when the cache is disabled).

    Entry bytes and the index record are written as one per-entry
    locked transaction (lock order: entry lock, then index lock inside
    :func:`_index_record`), so a reader of the index never sees an
    entry the store lost, and two same-key writers serialize.
    """
    if not cache_enabled():
        return
    _open_store()
    path = profile_path(name, config_key)

    def write(tmp: pathlib.Path) -> None:
        with open(tmp, "wb") as fh:
            pickle.dump(profile, fh, protocol=pickle.HIGHEST_PROTOCOL)

    with _entry_lock(path):
        _atomic_write(path, write)
        _index_record(path.name, {
            "workload": name,
            "bytes": path.stat().st_size,
            "pid": os.getpid(),
        })
    incr("profile_cache.store")


# ----------------------------------------------------------------------
# maintenance
# ----------------------------------------------------------------------

def _trace_entry_info(path: pathlib.Path) -> dict[str, Any]:
    """Per-entry stats for one cached trace file.

    Format version is sniffed from the leading bytes; v3 entries add
    instruction counts and compression stats read from the footer
    alone (no chunk decoding).  Unreadable entries report
    ``format="corrupt"`` rather than raising — info is a diagnostic
    command and must work on a damaged cache.
    """
    entry: dict[str, Any] = {
        "file": path.name,
        "bytes": path.stat().st_size,
        "format": "unknown",
        "instructions": None,
        "compression_ratio": None,
    }
    try:
        with open(path, "rb") as fh:
            prefix = fh.read(len(MAGIC_V3))
        if prefix == MAGIC_V3:
            info = trace_v3_info(path)
            entry["format"] = "v3"
            entry["instructions"] = info["instructions"]
            entry["compression_ratio"] = info["compression_ratio"]
        elif prefix == MAGIC_V2:
            entry["format"] = "v2"
    except (TraceFileError, OSError):
        entry["format"] = "corrupt"
    return entry


def cache_info(*, per_entry: bool = False) -> dict[str, Any]:
    """Entry counts and byte totals per layer, for ``repro cache info``.

    With ``per_entry=True``, adds a ``trace_entries`` list describing
    every cached trace: format version (v2/v3), on-disk size, and —
    for v3 — instruction count and compression ratio.
    """
    _open_store()
    root = cache_dir()
    info: dict[str, Any] = {
        "dir": str(root),
        "enabled": cache_enabled(),
        "profile_index": len(load_profile_index()),
        "traces": 0,
        "trace_bytes": 0,
        "profiles": 0,
        "profile_bytes": 0,
        "runs": 0,
        "run_bytes": 0,
    }
    for sub, count_key, bytes_key in (
        ("traces", "traces", "trace_bytes"),
        ("profiles", "profiles", "profile_bytes"),
        ("runs", "runs", "run_bytes"),
    ):
        directory = root / sub
        if not directory.is_dir():
            continue
        for entry in directory.iterdir():
            if entry.is_file() and not entry.name.endswith(".tmp"):
                info[count_key] += 1
                info[bytes_key] += entry.stat().st_size
    if per_entry:
        trace_dir = root / "traces"
        entries = []
        if trace_dir.is_dir():
            for entry in sorted(trace_dir.iterdir()):
                if entry.is_file() and not entry.name.endswith(".tmp"):
                    entries.append(_trace_entry_info(entry))
        info["trace_entries"] = entries
    return info


def clear_cache() -> int:
    """Delete every cached trace/profile; returns the removal count.

    Run manifests under ``runs/`` are deliberately kept: they are the
    observability record of *past* runs, not derived data, and wiping
    the cache is exactly when you want to be able to read them.
    """
    root = cache_dir()
    removed = 0
    for sub in ("traces", "profiles"):
        directory = root / sub
        if not directory.is_dir():
            continue
        for entry in directory.iterdir():
            if entry.is_file():
                entry.unlink()
                removed += 1
        try:
            directory.rmdir()
        except OSError:
            pass
    # lock files and the profile index are bookkeeping, not entries:
    # wipe them without adding to the removal count
    _index_clear()
    locks = root / "locks"
    if locks.is_dir():
        for entry in locks.iterdir():
            if entry.is_file():
                entry.unlink(missing_ok=True)
        try:
            locks.rmdir()
        except OSError:
            pass
    try:
        (root / "index").rmdir()
    except OSError:
        pass
    return removed
