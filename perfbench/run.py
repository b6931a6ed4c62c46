"""The repository's benchmark: one workload, one fresh process.

    python3 perfbench/run.py --workload cold-profile --seed 0 --trace 0

Run from the repository root.  The program is imported from ``src/``;
everything the run writes goes to ``.perfbench-work/`` (removed at the
end) and ``.perfbench-results/`` (kept: host, inputs, metrics and, for
a traced run, the spans).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Any output that differs from ``pinned.json`` is a failed
operation and makes the exit code 1.

See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RESULTS = ROOT / ".perfbench-results"

#: Knobs that select a non-default path; the benchmark measures the
#: production defaults, so none may leak in from the caller.
SCRUBBED_ENV = (
    "REPRO_STREAMING", "REPRO_DIRECT_STREAM", "REPRO_CODEC_THREADS",
    "REPRO_BACKEND", "REPRO_PROFILE", "REPRO_FAULT_INJECT",
    "REPRO_TRACE_CACHE", "REPRO_CACHE_DIR",
)
#: What a workload process imports before it can run anything; part of
#: the set-up time.
IMPORTS = (
    "numpy", "repro.exp.runner", "repro.dataflow.streaming",
    "repro.vm.tracestream", "repro.core.rtm", "repro.exp.service.server",
)
#: Set-up is repeated this many times per run and its median reported.
SETUPS = 3
#: Run time of the probe for the serving layers in a traced run.
PROBE_SERVE_SECONDS = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="input sizes (smoke: the benchmark's own tests)")
    p.add_argument("--digests", type=pathlib.Path, default=None,
                   help="pinned digests to check against "
                   "(default perfbench/pinned.json)")
    return p.parse_args(argv)


def program_env() -> dict:
    """The environment for the program's processes."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def fresh_import_seconds(env: dict) -> float:
    """Import time of ``IMPORTS`` in a new interpreter."""
    code = ("import time, importlib\n"
            "t = time.perf_counter()\n"
            f"for m in {IMPORTS!r}: importlib.import_module(m)\n"
            "print(time.perf_counter() - t)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_record() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def run(args, work: pathlib.Path, import_s: float) -> dict:
    import digests
    import report
    import workloads
    from spans import SpanRecorder

    env = program_env()
    checker = digests.Checker(digests.load_pinned(args.digests))
    ctx = workloads.Context(work / "own", args.size, args.seed, checker, env)
    wl = workloads.WORKLOADS[args.workload](ctx)

    imports = [import_s] + [fresh_import_seconds(env)
                            for _ in range(SETUPS - 1)]
    prefills = []
    for _ in range(SETUPS):
        ctx.fresh_cache()
        t0 = time.perf_counter()
        wl.prefill()
        prefills.append(time.perf_counter() - t0)
    try:
        started = wl.start()
        setup_s = statistics.median(imports) + statistics.median(prefills) \
            + started
        if args.trace:
            ctx.recorder = SpanRecorder()
            plain, spanned = wl.run(args.seconds, "alternate")
            ctx.rec = ctx.recorder
            wl.extras()
        else:
            plain, spanned = wl.run(args.seconds, "off")
        rss = wl.peak_rss_mb()
    finally:
        wl.close()
    wl.verify()

    result = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "kernels": ctx.picks, "host": host_record(),
        "operations": len(plain) + len(spanned),
    }
    if not args.trace:
        ms = [w.scaled * 1e3 for w in plain]
        raw = [w.raw * 1e3 for w in plain]
        if rss is None:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "op_p50_ms": (statistics.median(ms), "ms"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (setup_s, "s"),
        }
        result["raw"] = {"op_p50_ms": statistics.median(raw),
                         "op_p99_ms": report.percentile(raw, 99)}
        result["op_ms_scaled"] = ms
        result["op_ms_raw"] = raw
        result["op_rss_mb"] = wl.op_rss_mb
        result["headline_metrics"] = headline_metrics(
            wl, metrics, result["raw"], checker)
    else:
        probe = run_probe(args, work / "probe", env, checker)
        plain_s = statistics.median(w.scaled for w in plain)
        spanned_s = statistics.median(w.scaled for w in spanned)
        overhead = 100.0 * (spanned_s - plain_s) / plain_s
        tail = report.percentile([w.scaled * 1e3 for w in plain], 99)
        metrics = report.per_layer(ctx.stats, probe, tail,
                                   ctx.recorder.coverage(), overhead)
        result["spans"] = ctx.recorder.to_records()
        result["spans_nested"] = ctx.recorder.nested()
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    result["attempted"] = checker.attempted
    result["failed"] = checker.failed
    result["mismatches"] = checker.mismatches
    return result


def run_probe(args, work, env, checker):
    """Traced run only: the other workloads' operations, once each at the
    probe size on the same kernels, for the layers this workload never
    calls."""
    import workloads
    from spans import SpanRecorder

    ctx = workloads.Context(work, "probe" if args.size == "full" else "smoke",
                            args.seed, checker, env)
    ctx.recorder = SpanRecorder()
    for name, cls in workloads.WORKLOADS.items():
        if name == args.workload:
            continue
        wl = cls(ctx)
        ctx.fresh_cache()
        wl.prefill()
        try:
            wl.start()
            wl.run(PROBE_SERVE_SECONDS if name == "serve-warm" else 0.0, "on")
            ctx.rec = ctx.recorder
            wl.extras()
        finally:
            wl.close()
        wl.verify()
    return ctx.stats


def headline_metrics(wl, metrics, raw, checker) -> dict:
    """The headline numbers under their per-workload names."""
    p50 = metrics["op_p50_ms"][0]
    out = {"error_rate": checker.failed / max(1, checker.attempted)}
    names = {"cold-profile": "profile_kinstr_s",
             "trace-capture": "capture_kinstr_s",
             "trace-replay": "replay_kinstr_s",
             "rtm-sweep": "rtm_kinstr_s"}
    if wl.name in names:
        # instructions per millisecond = kinstr/s
        out[names[wl.name]] = wl.instructions_per_op() / p50
        out[names[wl.name] + "_raw"] = (wl.instructions_per_op()
                                        / raw["op_p50_ms"])
    else:
        out["serve_p50_ms"] = p50
        out["serve_p99_ms"] = raw["op_p99_ms"]
    return out


def _terminate(signum, frame):
    # unwind through the finally blocks, which stop any server child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    for key in SCRUBBED_ENV:
        os.environ.pop(key, None)
    work = WORK / f"{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run
    work.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "unused")
    sys.path.insert(0, str(SRC))
    try:
        t0 = time.perf_counter()
        for module in IMPORTS:
            importlib.import_module(module)
        import workloads  # noqa: F401  (imports the program's entry points)
        import_s = time.perf_counter() - t0
        if args.workload not in workloads.WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}",
                  file=sys.stderr)
            return 2
        result = run(args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     f"-{args.size}.json")
    out.write_text(json.dumps(result, indent=1))
    print(f"# {args.workload} seed={args.seed} kernels="
          f"{','.join(result['kernels'].values())} "
          f"operations={result['operations']} host={result['host']}")
    for key, value in result.get("headline_metrics", {}).items():
        print(f"# {key} = {value:.6g}")
    for line in result["mismatches"]:
        print(f"# MISMATCH {line}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
