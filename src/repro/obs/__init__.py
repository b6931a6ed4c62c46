"""Observability: structured telemetry, run manifests, and logging.

The experiment stack got fast (the one-pass dataflow engine) and
persistent (the trace cache); this package makes it *watchable* and
*diagnosable*:

- :mod:`repro.obs.telemetry` — named counters and stage timers, scoped
  per task and mergeable across processes;
- :mod:`repro.obs.manifest` — append-only JSONL run manifests under
  ``<cache_dir>/runs/``, one event per line, summarized by the
  ``repro obs`` CLI subcommand;
- :func:`get_logger` — the shared ``repro.obs`` logger through which
  recoverable infrastructure trouble (corrupt cache entries, worker
  crashes, retries) is reported as warnings instead of being swallowed.

The dataflow engine reports each scenario's fold time as an
``engine.<kind>`` timer and the instructions it analysed as the
``engine.instructions_analyzed`` counter, on every run, with its fold
split: the ``engine.fold_executors`` counter and the
``engine.fold_wait`` and ``engine.fold_worker_start`` timers.
"""

from __future__ import annotations

import logging

from repro.obs.manifest import (
    RunManifest,
    find_run,
    find_run_paths,
    list_run_groups,
    list_runs,
    merge_events,
    read_events,
    read_manifest,
    runs_dir,
    summarize,
)
from repro.obs.telemetry import Telemetry, current, incr, scope, time_stage

__all__ = [
    "RunManifest",
    "Telemetry",
    "current",
    "find_run",
    "find_run_paths",
    "get_logger",
    "incr",
    "list_run_groups",
    "list_runs",
    "merge_events",
    "read_events",
    "read_manifest",
    "runs_dir",
    "scope",
    "summarize",
    "time_stage",
]


def get_logger(name: str | None = None) -> logging.Logger:
    """The ``repro.obs`` logger (or a child of it).

    Unconfigured applications still see warnings on stderr via
    ``logging.lastResort``; anything beyond that is the embedder's
    logging configuration, as usual.
    """
    base = "repro.obs"
    return logging.getLogger(f"{base}.{name}" if name else base)

