"""Metric names, units and how each is computed from a run.

``END_TO_END`` and :func:`per_layer_names` must list exactly the names
in ``BENCHMARK.json``; the benchmark's tests check that they do.
"""

from __future__ import annotations

import statistics

from workloads import SLOTS, LayerStats

#: name -> unit.  Every workload reports all three.
END_TO_END = {
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Metrics reported for the workload total and per reuse class as
#: ``<name>.<class>``: name -> (unit, aggregation).
#: ``rate``: sum of numerators over sum of denominators (per-instruction
#: costs weighted by instructions); ``median``: of the samples, one per
#: kernel operation; ``total``: sum of the samples.
PER_CLASS = {
    "vm.execute_ns_per_instr": ("ns/instr", "rate"),
    "tracev3.encode_ns_per_instr": ("ns/instr", "rate"),
    "tracev3.bytes_per_instr": ("B/instr", "rate"),
    "tracev3.decode_ns_per_instr": ("ns/instr", "rate"),
    "tracecache.trace_load_ns_per_instr": ("ns/instr", "rate"),
    "dataflow.shared_ns_per_instr": ("ns/instr", "rate"),
    "dataflow.fold_ns_per_instr_scenario": ("ns/instr", "rate"),
    "runner.stage_trace_s": ("s", "median"),
    "runner.stage_reusability_s": ("s", "median"),
    "runner.stage_engine_init_s": ("s", "median"),
    "runner.stage_analysis_s": ("s", "median"),
    "runner.exec_multiple": ("x", "rate"),
    "tracecache.profile_store_ms": ("ms", "median"),
    "rtm.sim_ns_per_instr": ("ns/instr", "rate"),
    "runner.instructions": ("count", "median"),
    "dataflow.percent_reusable": ("%", "median"),
    "dataflow.avg_trace_size": ("instr", "median"),
    "dataflow.trace_count": ("count", "median"),
    "tracev3.chunks": ("count", "median"),
    "rtm.percent_reused": ("%", "rate"),
    "rtm.avg_reused_trace_size": ("instr", "rate"),
    "rtm.invalidations": ("count", "total"),
}

#: Metrics reported once per run: name -> (unit, aggregation);
#: ``p99``: the 99th percentile of the samples.
PER_RUN = {
    "rtm.sim_ns_per_instr.ilr_ne": ("ns/instr", "rate"),
    "rtm.sim_ns_per_instr.ilr_exp": ("ns/instr", "rate"),
    "rtm.sim_ns_per_instr.i4_exp": ("ns/instr", "rate"),
    "tracecache.trace_hit": ("count", "total"),
    "tracecache.trace_miss": ("count", "total"),
    "tracecache.profile_hit": ("count", "total"),
    "tracecache.profile_miss": ("count", "total"),
    "tracecache.profile_load_ms": ("ms", "median"),
    "service.dispatch_ms.profile": ("ms", "median"),
    "service.dispatch_ms.figure": ("ms", "median"),
    "service.dispatch_ms.enqueue": ("ms", "median"),
    "service.hit_ratio": ("ratio", "rate"),
    "service.requests": ("count", "total"),
    "service.generator_late_ms": ("ms", "p99"),
}

#: Computed from several inputs at once (see :func:`per_layer`).
DERIVED = {
    "op.p99_ms": "ms",
    "service.http_overhead_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
}


def per_layer_names() -> list[str]:
    names = []
    for name in PER_CLASS:
        names.append(name)
        names += [f"{name}.{slot}" for slot in SLOTS]
    return names + list(PER_RUN) + list(DERIVED)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; the max when q exceeds the
    resolution the sample count allows."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def _one(stats: LayerStats, name: str, agg: str, slot):
    if agg == "rate":
        num, den = stats.rates.get((name, slot), (0.0, 0.0))
        return num / den if den else None
    vals = stats.values.get((name, slot))
    if not vals:
        return None
    if agg == "total":
        return float(sum(vals))
    if agg == "p99":
        return percentile(vals, 99)
    return statistics.median(vals)


def _total(stats: LayerStats, name: str, agg: str):
    if agg == "rate":
        num = den = 0.0
        for (n, _slot), (a, b) in stats.rates.items():
            if n == name:
                num += a
                den += b
        return num / den if den else None
    every = [v for (n, _s), vals in stats.values.items() if n == name
             for v in vals]
    if not every:
        return None
    return float(sum(every)) if agg == "total" else statistics.median(every)


def per_layer(own: LayerStats, probe: LayerStats | None, tail_ms: float,
              coverage: float, overhead_pct: float) -> dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``.

    A layer the workload's own operations never called is measured by
    the probe (the other workloads' operations at the probe size, on
    the same kernels); ``probe`` is None when there is none.
    """
    out = {}
    for name, (unit, agg) in PER_CLASS.items():
        src = own if _total(own, name, agg) is not None else probe
        total = _total(src, name, agg) if src is not None else None
        out[name] = (total or 0.0, unit)
        for slot in SLOTS:
            v = _one(src, name, agg, slot) if src is not None else None
            out[f"{name}.{slot}"] = (v or 0.0, unit)
    for name, (unit, agg) in PER_RUN.items():
        v = _one(own, name, agg, None)
        if v is None and probe is not None:
            v = _one(probe, name, agg, None)
        out[name] = (v or 0.0, unit)
    http = dispatch = None
    for stats in (own, probe):
        if stats is None or http is not None:
            continue
        served = stats.values.get(("service.http_ms", None))
        dispatched = stats.values.get(("service.dispatch_ms.profile", None))
        if served and dispatched:
            http = statistics.median(served)
            dispatch = statistics.median(dispatched)
    out["op.p99_ms"] = (tail_ms, "ms")
    out["service.http_overhead_ms"] = (
        http - dispatch if http is not None else 0.0, "ms")
    out["trace.coverage"] = (coverage, "ratio")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
