#!/usr/bin/env python
"""Engine smoke benchmark: writes ``BENCH_engine.json``.

Measures the three layers of the profile pipeline, against the
retained pre-optimisation reference pipeline:

- ``machine_run``: raw VM throughput (instr/s) of both execution
  backends — the ``Machine`` interpreter and the trace-compiling
  ``FastMachine`` — at the paper-scale instruction budget, plus the
  per-kernel and aggregate speed-ups and a bit-identity check (run at
  a smaller ``verify_budget`` so the differential comparison does not
  hold two paper-scale traces in memory at once).  Each timing is the
  best of two runs, each in a fresh process, so one kernel's heap does
  not pollute the next measurement and scheduler noise is rejected;
- ``engine``: scenario throughput (scenarios/s) of
  ``StreamingDataflowEngine`` over the standard figure-3..8 scenario
  set;
- ``collect_profiles``: wall-clock of a full 14-kernel profile
  collection — the per-scenario baseline (``run_profile_reference``),
  a cold run (empty cache), and a warm run (cache hit) — plus the
  cold/warm speed-ups and a bit-identical check of the profiles.

With ``--tracev3`` the script instead benchmarks the streaming trace
pipeline and writes ``BENCH_tracev3.json``:

- ``codec``: v3 write/read throughput (instr/s) and compression stats
  at the paper-scale ``--trace-budget`` — execution streams through
  the incremental ``TraceWriter``, so this path never materializes
  the trace — plus the on-disk ratio against a v2 (pickled columnar)
  encoding of the same trace;
- per-kernel ``columns``: a per-column decode micro-benchmark —
  encoded size, share and decode wall time of every v3 section (the
  breakdown that located the tomcatv value-column decode anomaly);
- ``engine``: profile throughput of ``StreamingDataflowEngine`` over
  the standard figure-3..8 scenario set at ``--budget``, draining the
  v3 file against draining the in-memory trace, with a bit-identity
  check of both profiles against ``run_profile_reference``;
- exits non-zero when bit-identity fails, when the v3-vs-v2
  compression ratio drops below the 4x floor on any kernel, or when
  the slowest kernel decodes more than 3x slower than the fastest
  (the tomcatv-anomaly regression gate).

With ``--coldpath`` the script benchmarks the cold execute→analyze
path end to end and writes ``BENCH_coldpath.json``: per kernel, pure
execution wall time (fresh-process best-of-2), execute+encode wall
time (the incremental v3 writer), and the tee'd cold run
(execute+encode+analyze in one drain of every scenario a profile
folds, cache entry persisted, with the number of fold executors the
drain used and the time of its ILR signature check and block
precompute, read from the engine's ``engine.ilr_flags`` and
``engine.precompute`` telemetry timers), plus an identity check at
``--verify-budget``: the tee'd results against the per-scenario
``DataflowModel`` oracle, and the tee'd cache entry byte for byte against
``write_stream(ExecutionChunkStream)``.  Ratio gates keep it
machine-independent: encode overhead (write/exec wall) must stay under
3x and every identity check must hold; ``cold_vs_exec`` is
informational.

Usage::

    PYTHONPATH=src python scripts/bench_engine.py [--budget N] \
        [--machine-budget N] [--output PATH]
    PYTHONPATH=src python scripts/bench_engine.py --tracev3 \
        [--budget N] [--trace-budget N] [--output PATH]

``REPRO_BENCH_BUDGET`` / ``REPRO_BENCH_MACHINE_BUDGET`` also set the
budgets (flags win).  ``--budget`` drives the engine and profile
benches; ``--machine-budget`` drives the backend throughput bench and
defaults to the paper's 50M-instruction scale.  The cache
measurements use a throwaway directory, so the run neither reads nor
pollutes ``.repro-cache/``.

The script exits non-zero when the fast backend fails bit-identity,
when it is *slower* than the interpreter, or when the profile
collection regresses — so a CI hook-up fails loudly instead
of silently shipping a slow or wrong backend.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.baselines.ilr import ilr_reuse_plan, instruction_reusability  # noqa: E402
from repro.core.reuse_tlr import (  # noqa: E402
    ConstantReuseLatency,
    ProportionalReuseLatency,
    tlr_reuse_plan,
)
from repro.core.traces import maximal_reusable_spans  # noqa: E402
from repro.dataflow.model import DataflowModel  # noqa: E402
from repro.dataflow.streaming import StreamingDataflowEngine  # noqa: E402
from repro.exp.config import ExperimentConfig  # noqa: E402
from repro.exp.runner import (  # noqa: E402
    profile_scenarios,
    profile_stream,
    run_profile_reference,
)
from repro.workloads.base import (  # noqa: E402
    build_program,
    get_workload,
    run_workload,
)
from repro.vm.fastmachine import FastMachine  # noqa: E402
from repro.vm.machine import Machine  # noqa: E402
from repro.vm.trace import trace_identical  # noqa: E402


_RUN_SNIPPET = """\
import sys, time
from repro.workloads.base import build_program
from repro.vm.backends import create_machine
machine = create_machine(build_program(sys.argv[2]), sys.argv[1])
start = time.perf_counter()
trace = machine.run(max_instructions=int(sys.argv[3]))
print(len(trace), time.perf_counter() - start)
"""


def _timed_run(backend: str, name: str, budget: int,
               repeats: int = 2) -> tuple[int, float]:
    """Best-of-N wall clock of one backend run, each in a fresh process.

    Process isolation keeps one measurement's heap from polluting the
    next: a retired paper-scale trace leaves the allocator arenas
    fragmented even after it is freed, which costs the *following*
    kernel 10-20% (measured: tomcatv's 50M fast run takes 15.7s after
    compress's in the same process, 13.0s in a fresh one).  Taking the
    minimum of two runs rejects scheduler noise on shared boxes — the
    minimum is the least-disturbed observation of a deterministic
    workload.
    """
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    n = None
    best = float("inf")
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_SNIPPET, backend, name, str(budget)],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{backend}/{name} benchmark process failed:\n{proc.stderr}")
        count_s, elapsed_s = proc.stdout.split()
        count, elapsed = int(count_s), float(elapsed_s)
        assert n is None or n == count, f"{backend}/{name}: {n} vs {count}"
        n = count
        best = min(best, elapsed)
    return n, best


def bench_machine_run(budget: int, verify_budget: int) -> dict:
    kernels = ("compress", "tomcatv", "go")
    per_kernel = {}
    interp_total = fast_total = 0.0
    total_instr = 0
    identical = True
    for name in kernels:
        ni, ti = _timed_run("interp", name, budget)
        nf, tf = _timed_run("fast", name, budget)
        assert ni == nf, f"{name}: backends retired {ni} vs {nf} instructions"
        interp_total += ti
        fast_total += tf
        total_instr += ni
        per_kernel[name] = {
            "instructions": ni,
            "interp_seconds": round(ti, 4),
            "fast_seconds": round(tf, 4),
            "interp_instr_per_sec": round(ni / ti),
            "fast_instr_per_sec": round(nf / tf),
            "speedup": round(ti / tf, 2),
        }
        # differential oracle at a budget small enough to hold both
        # traces in memory at once
        a = Machine(build_program(name)).run(max_instructions=verify_budget)
        b = FastMachine(build_program(name)).run(max_instructions=verify_budget)
        identical = identical and trace_identical(a, b)
        del a, b
        gc.collect()
    return {
        "kernels": list(kernels),
        "budget": budget,
        "verify_budget": verify_budget,
        "protocol": "best-of-2, fresh process per measurement",
        "instructions": total_instr,
        "interp_seconds": round(interp_total, 4),
        "fast_seconds": round(fast_total, 4),
        "interp_instr_per_sec": round(total_instr / interp_total),
        "fast_instr_per_sec": round(total_instr / fast_total),
        "speedup": round(interp_total / fast_total, 2),
        "bit_identical": identical,
        "per_kernel": per_kernel,
    }


def bench_engine(budget: int, config: ExperimentConfig) -> dict:
    trace = run_workload("compress", max_instructions=budget, use_cache=False)
    scens = profile_scenarios(config)
    start = time.perf_counter()
    StreamingDataflowEngine(trace).analyze_all(scens)
    elapsed = time.perf_counter() - start
    return {
        "kernel": "compress",
        "instructions": len(trace),
        "scenarios": len(scens),
        "seconds": round(elapsed, 4),
        "scenarios_per_sec": round(len(scens) / elapsed, 1),
    }


def bench_collect_profiles(budget: int) -> dict:
    from repro.exp.runner import collect_profiles

    cold_config = ExperimentConfig(max_instructions=budget, max_workers=1)

    start = time.perf_counter()
    baseline_profiles = [
        run_profile_reference(name, cold_config)
        for name in cold_config.workloads
    ]
    baseline = time.perf_counter() - start

    start = time.perf_counter()
    cold_profiles = collect_profiles(cold_config)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    warm_profiles = collect_profiles(cold_config)
    warm = time.perf_counter() - start

    return {
        "workloads": len(cold_config.workloads),
        "baseline_seconds": round(baseline, 4),
        "cold_seconds": round(cold, 4),
        "warm_seconds": round(warm, 4),
        "cold_speedup": round(baseline / cold, 2),
        "warm_speedup": round(baseline / warm, 1),
        "bit_identical": (
            baseline_profiles == cold_profiles == warm_profiles
        ),
    }


class _CountingSink:
    """A write-only file object that just counts bytes (v2 sizing
    without touching disk)."""

    def __init__(self) -> None:
        self.count = 0

    def write(self, data) -> int:
        self.count += len(data)
        return len(data)


def bench_tracev3(trace_budget: int, engine_budget: int,
                  config: ExperimentConfig, tmpdir: str) -> dict:
    """Streaming trace pipeline benchmark (``--tracev3``)."""
    import pickle

    from repro.vm.trace import as_columnar
    from repro.vm.tracestream import (
        ExecutionChunkStream,
        FileTraceStream,
        write_stream,
    )
    from repro.vm.tracev3 import trace_v3_info, write_v3

    tmp = pathlib.Path(tmpdir)
    kernels = ("compress", "tomcatv", "go")
    # the scenarios a profile folds, so the cold leg is the real workload
    scenarios = profile_scenarios(ExperimentConfig())
    per_kernel = {}
    min_ratio_vs_v2 = float("inf")
    for name in kernels:
        path = tmp / f"{name}.trace"
        stream = ExecutionChunkStream(
            lambda name=name: FastMachine(build_program(name)),
            program_name=name,
            max_instructions=trace_budget,
        )
        start = time.perf_counter()
        n = write_stream(stream, path)
        write_s = time.perf_counter() - start

        reader = FileTraceStream(path)
        start = time.perf_counter()
        read_n = sum(len(chunk) for chunk in reader.chunks())
        read_s = time.perf_counter() - start
        assert read_n == n, f"{name}: wrote {n}, read back {read_n}"

        info = trace_v3_info(path, columns=True)
        v3_bytes = info["file_bytes"]
        total_enc = sum(
            c["encoded_bytes"] for c in info["columns"].values()) or 1
        columns = {
            col: {
                "encoded_bytes": c["encoded_bytes"],
                "share": round(c["encoded_bytes"] / total_enc, 4),
                "decode_seconds": round(c["decode_seconds"], 4),
                "modes": c["modes"],
            }
            for col, c in sorted(info["columns"].items(),
                                 key=lambda kv: -kv[1]["encoded_bytes"])
        }

        # v2 size of the same trace: pickle the materialized columnar
        # layout into a counting sink (no disk, freed immediately)
        trace = FastMachine(build_program(name)).run(
            max_instructions=trace_budget
        )
        sink = _CountingSink()
        pickle.dump(as_columnar(trace), sink,
                    protocol=pickle.HIGHEST_PROTOCOL)
        del trace
        gc.collect()
        v2_bytes = sink.count
        ratio_vs_v2 = v2_bytes / v3_bytes
        min_ratio_vs_v2 = min(min_ratio_vs_v2, ratio_vs_v2)
        per_kernel[name] = {
            "instructions": n,
            "write_seconds": round(write_s, 4),
            "write_instr_per_sec": round(n / write_s),
            "read_seconds": round(read_s, 4),
            "read_instr_per_sec": round(n / read_s),
            "chunks": info["chunk_count"],
            "v3_bytes": v3_bytes,
            "v2_bytes": v2_bytes,
            "bytes_per_instruction": round(v3_bytes / n, 3),
            "chunk_compression_ratio": round(info["compression_ratio"], 2),
            "ratio_vs_v2": round(ratio_vs_v2, 2),
            "columns": columns,
        }
        path.unlink()

    reads = [per_kernel[k]["read_instr_per_sec"] for k in kernels]
    decode_balance = max(reads) / min(reads)

    # engine throughput draining the v3 file vs the in-memory trace,
    # both bit-identical to the per-scenario reference pipeline
    config = dataclasses.replace(config, use_cache=False)
    trace = run_workload("compress", max_instructions=engine_budget,
                         use_cache=False)
    suite = get_workload("compress").suite
    start = time.perf_counter()
    mat_profile = profile_stream(trace, "compress", suite, config)
    mat_s = time.perf_counter() - start

    engine_path = tmp / "engine.trace"
    write_v3(trace, engine_path)
    del trace
    gc.collect()
    start = time.perf_counter()
    stream_profile = profile_stream(FileTraceStream(engine_path), "compress",
                                    suite, config)
    stream_s = time.perf_counter() - start
    engine_path.unlink()
    reference = run_profile_reference("compress", config)
    bit_identical = mat_profile == stream_profile == reference
    scenario_count = len(profile_scenarios(config))

    return {
        "kernels": list(kernels),
        "trace_budget": trace_budget,
        "codec": per_kernel,
        "min_ratio_vs_v2": round(min_ratio_vs_v2, 2),
        "decode_balance": round(decode_balance, 2),
        "engine": {
            "kernel": "compress",
            "instructions": engine_budget,
            "scenarios": scenario_count,
            "materialized_seconds": round(mat_s, 4),
            "streaming_seconds": round(stream_s, 4),
            "materialized_scenarios_per_sec": round(scenario_count / mat_s, 1),
            "streaming_scenarios_per_sec": round(scenario_count / stream_s, 1),
            "streaming_overhead": round(stream_s / mat_s, 2),
            "bit_identical": bit_identical,
        },
    }


def oracle_results(trace, scenarios) -> list:
    """Each scenario through one ``DataflowModel.analyze`` scan."""
    reuse = instruction_reusability(trace)
    spans = maximal_reusable_spans(trace, reuse.flags)
    results = []
    for scenario in scenarios:
        model = DataflowModel(scenario.window_size)
        if scenario.kind == "base":
            plan = None
        elif scenario.kind == "ilr":
            plan = ilr_reuse_plan(trace, reuse.flags, scenario.latency)
        else:
            latency = (ConstantReuseLatency(scenario.latency)
                       if scenario.k is None
                       else ProportionalReuseLatency(scenario.k))
            plan = tlr_reuse_plan(trace, spans, latency,
                                  fetch_free=scenario.fetch_free)
        results.append(model.analyze(trace, plan))
    return results


def bench_coldpath(trace_budget: int, verify_budget: int,
                   tmpdir: str) -> dict:
    """Cold execute→analyze benchmark (``--coldpath``)."""
    from repro.vm.tracestream import ExecutionChunkStream, write_stream
    from repro.workloads.base import stream_workload

    tmp = pathlib.Path(tmpdir)
    kernels = ("compress", "tomcatv", "go")
    # the scenarios a profile folds, so the cold leg is the real workload
    scenarios = profile_scenarios(ExperimentConfig())
    per_kernel = {}
    all_identical = True
    max_encode_overhead = 0.0
    for name in kernels:
        # leg 1: pure execution (fresh-process best-of-2)
        n, exec_s = _timed_run("fast", name, trace_budget)

        # leg 2: execute + encode through the incremental writer
        path = tmp / f"{name}.coldpath.trace"
        stream = ExecutionChunkStream(
            lambda name=name: FastMachine(build_program(name)),
            program_name=name, max_instructions=trace_budget)
        start = time.perf_counter()
        wrote = write_stream(stream, path)
        write_s = time.perf_counter() - start
        path.unlink()
        assert wrote == n, f"{name}: executed {n}, wrote {wrote}"

        # leg 3: the tee'd cold run — execute + encode + analyze in
        # one drain, cache entry persisted as a side effect
        os.environ["REPRO_CACHE_DIR"] = str(tmp / "cold" / name)
        with obs.scope() as registry:
            start = time.perf_counter()
            tee = stream_workload(name, max_instructions=trace_budget,
                                  backend="fast")
            engine = StreamingDataflowEngine(tee)
            engine.analyze_all(scenarios)
            cold_s = time.perf_counter() - start
        fold_executors = registry.counters["engine.fold_executors"]
        # the shared layers, as the engine's own telemetry times them
        shared = {name: registry.timers[f"engine.{name}"][0]
                  for name in ("ilr_flags", "precompute")}
        persisted = bool(getattr(tee, "persisted", False))

        # identity at a budget small enough to hold the materialized
        # trace: the tee'd results equal the per-scenario oracle's, and
        # the tee'd cache entry is the same bytes as a plain
        # write_stream of the same execution
        os.environ["REPRO_CACHE_DIR"] = str(tmp / "verify" / name)
        tee_res = StreamingDataflowEngine(
            stream_workload(name, max_instructions=verify_budget,
                            backend="fast")
        ).analyze_all(scenarios)
        (entry,) = (tmp / "verify" / name / "traces").glob("*.trace")
        plain = tmp / f"{name}.plain.trace"
        write_stream(ExecutionChunkStream(
            lambda name=name: FastMachine(build_program(name)),
            program_name=name, max_instructions=verify_budget), plain)
        trace = FastMachine(build_program(name)).run(
            max_instructions=verify_budget)
        oracle_res = oracle_results(trace, scenarios)
        del trace
        gc.collect()
        identical = (tee_res == oracle_res
                     and entry.read_bytes() == plain.read_bytes())
        plain.unlink()
        all_identical = all_identical and identical and persisted

        encode_overhead = write_s / exec_s
        max_encode_overhead = max(max_encode_overhead, encode_overhead)
        per_kernel[name] = {
            "instructions": n,
            "exec_seconds": round(exec_s, 4),
            "exec_instr_per_sec": round(n / exec_s),
            "write_seconds": round(write_s, 4),
            "write_instr_per_sec": round(n / write_s),
            "cold_seconds": round(cold_s, 4),
            "cold_instr_per_sec": round(n / cold_s),
            "encode_overhead_vs_exec": round(encode_overhead, 3),
            "cold_vs_exec": round(cold_s / exec_s, 3),
            "fold_executors": fold_executors,
            "ilr_flags_seconds": round(shared["ilr_flags"], 4),
            "ilr_flags_ns_per_instr": round(shared["ilr_flags"] * 1e9 / n),
            "precompute_seconds": round(shared["precompute"], 4),
            "precompute_ns_per_instr": round(shared["precompute"] * 1e9 / n),
            "analyze_seconds": round(cold_s - write_s, 4),
            "bit_identical": identical,
            "tee_persisted": persisted,
        }

    return {
        "kernels": list(kernels),
        "trace_budget": trace_budget,
        "verify_budget": verify_budget,
        "scenarios": len(scenarios),
        "codec_threads": _codec_threads(),
        "protocol": ("exec: best-of-2 fresh process; write/cold: one "
                     "in-process run each"),
        "per_kernel": per_kernel,
        "max_encode_overhead_vs_exec": round(max_encode_overhead, 3),
        "bit_identical": all_identical,
    }


def _codec_threads() -> int:
    from repro.vm.tracev3 import codec_threads

    return codec_threads()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--budget", type=int,
        default=int(os.environ.get("REPRO_BENCH_BUDGET", "40000")),
        help="dynamic instruction budget per kernel for the engine and "
             "profile benches (default 40000)",
    )
    parser.add_argument(
        "--machine-budget", type=int,
        default=int(os.environ.get("REPRO_BENCH_MACHINE_BUDGET",
                                   "50000000")),
        help="instruction budget per kernel for the backend throughput "
             "bench (default 50M, the paper scale)",
    )
    parser.add_argument(
        "--verify-budget", type=int,
        default=int(os.environ.get("REPRO_BENCH_VERIFY_BUDGET",
                                   "1000000")),
        help="budget for the backend bit-identity check (default 1M)",
    )
    parser.add_argument(
        "--tracev3", action="store_true",
        help="benchmark the streaming trace pipeline instead "
             "(writes BENCH_tracev3.json)",
    )
    parser.add_argument(
        "--coldpath", action="store_true",
        help="benchmark the cold execute→analyze path instead "
             "(writes BENCH_coldpath.json)",
    )
    parser.add_argument(
        "--trace-budget", type=int,
        default=int(os.environ.get("REPRO_BENCH_TRACE_BUDGET",
                                   "50000000")),
        help="instruction budget per kernel for the v3 codec bench "
             "(default 50M, the paper scale)",
    )
    parser.add_argument(
        "--output", default=None,
        help="where to write the JSON report (default "
             "BENCH_engine.json, or BENCH_tracev3.json with --tracev3)",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        if args.coldpath:
            args.output = "BENCH_coldpath.json"
        elif args.tracev3:
            args.output = "BENCH_tracev3.json"
        else:
            args.output = "BENCH_engine.json"

    if args.coldpath:
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
            os.environ["REPRO_CACHE_DIR"] = tmp
            report = {
                "coldpath": bench_coldpath(
                    args.trace_budget,
                    min(args.verify_budget, 200_000),
                    tmp,
                ),
            }
        out = pathlib.Path(args.output)
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps(report, indent=2))
        print(f"\nwritten to {out}", file=sys.stderr)
        cp = report["coldpath"]
        ok = True
        if not cp["bit_identical"]:
            print("FAIL: the tee'd cold path is not bit-identical to the "
                  "oracle, or its cache entry differs from write_stream",
                  file=sys.stderr)
            ok = False
        if cp["max_encode_overhead_vs_exec"] > 3.0:
            print(f"FAIL: encoding overhead exceeds 3x pure execution "
                  f"({cp['max_encode_overhead_vs_exec']}x)", file=sys.stderr)
            ok = False
        return 0 if ok else 1

    if args.tracev3:
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
            os.environ["REPRO_CACHE_DIR"] = tmp
            report = {
                "budget": args.budget,
                "tracev3": bench_tracev3(
                    args.trace_budget, args.budget,
                    ExperimentConfig(max_instructions=args.budget), tmp,
                ),
            }
        out = pathlib.Path(args.output)
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps(report, indent=2))
        print(f"\nwritten to {out}", file=sys.stderr)
        tv = report["tracev3"]
        ok = True
        if not tv["engine"]["bit_identical"]:
            print("FAIL: engine profiles are not bit-identical to "
                  "run_profile_reference", file=sys.stderr)
            ok = False
        if tv["min_ratio_vs_v2"] < 4.0:
            print(f"FAIL: v3 compression ratio vs v2 fell below the 4x "
                  f"floor ({tv['min_ratio_vs_v2']}x)", file=sys.stderr)
            ok = False
        if tv["decode_balance"] > 3.0:
            print(f"FAIL: slowest kernel decodes {tv['decode_balance']}x "
                  f"slower than the fastest (tomcatv-anomaly gate is 3x)",
                  file=sys.stderr)
            ok = False
        return 0 if ok else 1

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        report = {
            "budget": args.budget,
            "machine_run": bench_machine_run(
                args.machine_budget, args.verify_budget
            ),
            "engine": bench_engine(
                args.budget, ExperimentConfig(max_instructions=args.budget)
            ),
            "collect_profiles": bench_collect_profiles(args.budget),
        }

    out = pathlib.Path(args.output)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwritten to {out}", file=sys.stderr)

    ok = True
    mr = report["machine_run"]
    if not mr["bit_identical"]:
        print("FAIL: fast backend traces are not bit-identical",
              file=sys.stderr)
        ok = False
    if mr["speedup"] < 1.0:
        print(f"FAIL: fast backend is slower than the interpreter "
              f"({mr['speedup']}x)", file=sys.stderr)
        ok = False
    cp = report["collect_profiles"]
    if not (cp["bit_identical"] and cp["cold_speedup"] >= 1.0):
        print("FAIL: profile collection regressed",
              file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
