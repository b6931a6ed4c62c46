"""Experiment configuration."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.workloads.base import FP_SUITE, INT_SUITE

#: Config fields that do NOT change what a single benchmark profile
#: *is* — execution/orchestration knobs only.  Everything else is
#: folded into the profile cache key automatically, so adding a new
#: semantic field can never silently alias two different runs onto one
#: cached entry.  (``workloads`` lists which kernels run, not how any
#: one of them is analysed.)
_NON_SEMANTIC_FIELDS = frozenset({
    "workloads",
    "max_workers",
    "use_cache",
    "task_timeout",
    "task_retries",
    "retry_backoff",
    # execution backends are bit-identical by contract, so the choice
    # changes wall-clock time, never the analysed profile
    "backend",
    # chunking changes memory/wall-clock only (differential-tested)
    "stream_chunk_size",
})


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Knobs shared by all figure drivers.

    The paper ran 50M instructions per program on an Alpha; the
    pure-Python substrate defaults to 60k, which is past the point
    where the reuse statistics of these loop-dominated kernels
    stabilise.  Crank ``max_instructions`` up for higher-fidelity runs.
    """

    max_instructions: int = 60_000
    scale: int = 1
    window_size: int = 256
    #: constant reuse latencies swept in figures 4b/5b/8a
    reuse_latencies: tuple[int, ...] = (1, 2, 3, 4)
    #: proportionality constants swept in figure 8b (1/bandwidth)
    proportional_ks: tuple[float, ...] = (1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)
    workloads: tuple[str, ...] = tuple(FP_SUITE + INT_SUITE)
    #: worker processes for the benchmark fan-out (None = one per core)
    max_workers: int | None = None
    #: consult the persistent trace/profile cache (.repro-cache/)
    use_cache: bool = True
    #: wall-clock seconds allowed per kernel in ``collect_profiles``
    #: (None = no limit); a kernel that exceeds it is recorded as
    #: failed instead of stalling the whole sweep
    task_timeout: float | None = None
    #: extra attempts after a kernel's first failure
    task_retries: int = 1
    #: base seconds slept before attempt n+1 (doubles per retry)
    retry_backoff: float = 0.05
    #: execution backend for kernel runs (see :mod:`repro.vm.backends`);
    #: None defers to ``REPRO_BACKEND`` and then the interpreter
    backend: str | None = None
    #: instructions per chunk when a kernel executes into the analysis
    #: (None = the tracestream default)
    stream_chunk_size: int | None = None
    #: answer profiles from the simulation-free static estimator
    #: (:mod:`repro.static`) instead of executing — a tier-0 path with
    #: documented per-kernel error bands (``BENCH_static.json``).
    #: Semantic on purpose: a predicted profile is not an executed one,
    #: so the two never share a cache entry.
    tier0_static: bool = False

    def to_dict(self) -> dict:
        """A JSON-round-trippable dict (tuples become lists).

        The wire format for service shard records: a job file stores
        the config this way and :meth:`from_dict` reconstructs an
        equal config (``cache_key()`` included) in the worker.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output (or JSON).

        JSON turns tuples into lists, so sequence fields are coerced
        back; unknown keys are ignored, so a newer writer's record
        still loads on an older reader and a record carrying retired
        fields still loads, under the same cache key.
        """
        tuple_fields = {
            f.name for f in dataclasses.fields(cls)
            if "tuple" in str(f.type)
        }
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {}
        for name, value in data.items():
            if name not in known:
                continue
            if name in tuple_fields and isinstance(value, (list, tuple)):
                kwargs[name] = tuple(value)
            else:
                kwargs[name] = value
        return cls(**kwargs)

    def cache_key(self) -> tuple:
        """Every analysis-relevant config field, as (name, value) pairs.

        Derived from the dataclass fields minus the explicit
        ``_NON_SEMANTIC_FIELDS`` exclusion list, so a future semantic
        field is part of the key by default: two configs that differ
        in *any* analysed setting (budget, window size, latency
        sweeps, ...) always produce distinct profile cache entries.
        """
        return tuple(
            (f.name, getattr(self, f.name))
            for f in dataclasses.fields(self)
            if f.name not in _NON_SEMANTIC_FIELDS
        )

    def fp_names(self) -> list[str]:
        """Configured workloads that belong to the FP suite."""
        return [n for n in self.workloads if n in FP_SUITE]

    def int_names(self) -> list[str]:
        """Configured workloads that belong to the INT suite."""
        return [n for n in self.workloads if n in INT_SUITE]
