"""Scenario-parallel folds: the engine's worker processes.

The engine folds its scenarios on this process plus up to one worker
process per spare CPU.  These tests pin the contracts around that:
which drains start workers, what a dead worker or a dead parent does,
that a ``collect_profiles`` pool child folds alone, and that a caller
script needs no ``__main__`` guard.  Bit-identity across executor
counts is tested next to the oracles (``test_streaming``,
``test_fused_engine``).
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.workloads  # registers the kernels
from repro import obs
from repro.dataflow import streaming
from repro.dataflow.model import Scenario
from repro.dataflow.streaming import FoldWorkerError, StreamingDataflowEngine
from repro.exp.config import ExperimentConfig
from repro.exp.runner import collect_profiles, run_profile_reference
from repro.obs.manifest import read_manifest
from repro.vm.tracestream import as_chunk_stream
from repro.workloads.base import run_workload

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

SCENARIOS = [
    Scenario("base", window_size=None),
    Scenario("base", window_size=64),
    Scenario("ilr", window_size=64, latency=1.0),
    Scenario("tlr", window_size=None, latency=2.0),
    Scenario("tlr", window_size=64, k=1 / 8),
]


@pytest.fixture
def executors(monkeypatch):
    """Force the executor count; start and end with no workers."""
    streaming._discard_workers()

    def force(count):
        monkeypatch.setattr(streaming, "_cpu_count", lambda: count)

    yield force
    streaming._discard_workers()


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture(scope="module")
def trace():
    return run_workload("li", max_instructions=6_000, use_cache=False)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _gone(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except FileNotFoundError:
        return True


class _KillWorkerStream:
    """Yields a trace's chunks, killing the first fold worker after
    ``after`` of them."""

    def __init__(self, trace, after=1):
        self.inner = as_chunk_stream(trace, chunk_size=1_000)
        self.after = after

    def chunks(self):
        for i, chunk in enumerate(self.inner.chunks()):
            if i == self.after:
                proc = streaming._workers[0].proc
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait()
            yield chunk


class TestWhenWorkersStart:
    def test_empty_and_single_scenario_drains_start_none(self, executors,
                                                         trace):
        executors(4)
        with obs.scope() as registry:
            engine = StreamingDataflowEngine(trace)
            assert engine.analyze_all([]) == []
            engine.analyze_all([SCENARIOS[0]])
            snap = registry.snapshot()
        assert streaming._workers == []
        assert snap["counters"]["engine.fold_executors"] == 2  # 1 + 1
        assert "engine.fold_worker_start" not in snap["timers"]

    def test_one_cpu_starts_none(self, executors, trace):
        executors(1)
        StreamingDataflowEngine(trace).analyze_all(SCENARIOS)
        assert streaming._workers == []

    def test_workers_persist_across_drains(self, executors, trace):
        executors(3)
        engine = StreamingDataflowEngine(trace)
        first = engine.analyze_all(SCENARIOS)
        pids = [w.proc.pid for w in streaming._workers]
        assert len(pids) == 2
        assert engine.analyze_all(SCENARIOS) == first
        assert [w.proc.pid for w in streaming._workers] == pids

    def test_split_balances_by_measured_cost(self, executors, trace):
        """The first drain splits by count (this process smallest); later
        drains give this process fewer scenarios when its own non-fold
        work is dear."""
        executors(2)
        specs = [(s.kind, s.window_size, s.latency, s.k, s.fetch_free)
                 for s in SCENARIOS]
        streaming._fold_costs.clear()
        del streaming._executor_costs[:]
        assert [len(s) for s in streaming._split(specs, 2)] == [2, 3]
        streaming._fold_costs.update((spec, 1.0) for spec in specs)
        streaming._executor_costs[:] = [3.0, 0.0]
        assert [len(s) for s in streaming._split(specs, 2)] == [1, 4]
        streaming._executor_costs[:] = [0.0, 0.0]
        assert [len(s) for s in streaming._split(specs, 2)] == [2, 3]
        StreamingDataflowEngine(trace).analyze_all(SCENARIOS)
        assert set(specs) <= set(streaming._fold_costs)


class TestWorkerFailure:
    def test_killed_worker_raises_typed_error(self, executors, trace):
        executors(2)
        expected = StreamingDataflowEngine(trace).analyze_all(SCENARIOS)
        engine = StreamingDataflowEngine(_KillWorkerStream(trace))
        with pytest.raises(FoldWorkerError, match="exited with code"):
            engine.analyze_all(SCENARIOS)
        assert streaming._workers == []
        # the next drain starts a fresh worker and gets the same numbers
        assert StreamingDataflowEngine(trace).analyze_all(
            SCENARIOS) == expected
        assert len(streaming._workers) == 1

    def test_worker_crashing_on_a_frame(self, executors, monkeypatch,
                                        trace):
        """A worker that raises exits with status 1; the engine reports
        that as the same typed error."""
        executors(2)
        monkeypatch.setattr(streaming.folds, "encode_block",
                            lambda pre: b"not a block")
        with pytest.raises(FoldWorkerError, match="exited with code 1"):
            StreamingDataflowEngine(trace).analyze_all(SCENARIOS)
        assert streaming._workers == []

    def test_collect_profiles_retries_a_dead_worker(self, executors,
                                                    monkeypatch, cache_dir):
        executors(2)
        send = streaming._FoldWorker.send
        killed = []

        def send_then_die(self, tag, payload):
            if tag == b"B" and not killed:
                killed.append(self.proc.pid)
                self.proc.kill()
                self.proc.wait()
            send(self, tag, payload)

        monkeypatch.setattr(streaming._FoldWorker, "send", send_then_die)
        config = ExperimentConfig(max_instructions=1_500, workloads=("li",),
                                  max_workers=1, use_cache=False,
                                  retry_backoff=0.0)
        run = collect_profiles(config, manifest=True)
        assert killed and run.ok
        assert run[0] == run_profile_reference("li", config)
        events, _ = read_manifest(run.manifest_path)
        errors = [e for e in events if e["event"] == "profile_error"]
        assert [e["kind"] for e in errors] == ["FoldWorkerError"]
        assert errors[0]["will_retry"]

    def test_worker_exits_when_its_parent_dies(self):
        """A parent killed mid-drain leaves no worker behind: the worker
        sees end of file on its pipe and exits."""
        script = (
            "import sys, time\n"
            "from repro.dataflow import streaming\n"
            "from repro.dataflow.model import Scenario\n"
            "from repro.vm.tracestream import as_chunk_stream\n"
            "from repro.workloads.base import run_workload\n"
            "streaming._cpu_count = lambda: 2\n"
            "trace = run_workload('li', max_instructions=4000,"
            " use_cache=False)\n"
            "class Stalls:\n"
            "    def chunks(self):\n"
            "        for i, c in enumerate(as_chunk_stream(trace,"
            " chunk_size=1000).chunks()):\n"
            "            if i == 2:\n"
            "                print(streaming._workers[0].proc.pid,"
            " flush=True)\n"
            "                time.sleep(120)\n"
            "            yield c\n"
            "streaming.StreamingDataflowEngine(Stalls()).analyze_all(\n"
            "    [Scenario('base'), Scenario('ilr', latency=1.0)])\n"
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script], env=_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            pid = int(parent.stdout.readline())
            assert not _gone(pid)
        finally:
            parent.kill()
            parent.wait()
        deadline = time.monotonic() + 10
        while not _gone(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _gone(pid)


class TestCallers:
    def test_no_worker_in_a_collect_profiles_pool_child(self, cache_dir):
        config = ExperimentConfig(max_instructions=1_500,
                                  workloads=("li", "go"), max_workers=2,
                                  use_cache=False)
        run = collect_profiles(config, manifest=True)
        assert run.ok
        events, _ = read_manifest(run.manifest_path)
        done = [e for e in events if e["event"] == "profile_done"]
        assert len(done) == 2
        for event in done:
            telemetry = event["telemetry"]
            assert telemetry["counters"]["engine.fold_executors"] == 1
            assert "engine.fold_worker_start" not in telemetry["timers"]

    def test_run_profile_from_a_script_without_main_guard(self, tmp_path):
        script = tmp_path / "no_guard.py"
        script.write_text(
            "import dataclasses, json\n"
            "from repro.dataflow import streaming\n"
            "from repro.exp.config import ExperimentConfig\n"
            "from repro.exp.runner import run_profile\n"
            "streaming._cpu_count = lambda: 2\n"
            "config = ExperimentConfig(max_instructions=2000,"
            " use_cache=False)\n"
            "profile = run_profile('li', config)\n"
            "print(len(streaming._workers))\n"
            "print(json.dumps(dataclasses.asdict(profile)))\n"
        )
        proc = subprocess.run([sys.executable, str(script)], env=_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        workers, profile = proc.stdout.splitlines()
        assert workers == "1"
        config = ExperimentConfig(max_instructions=2000, use_cache=False)
        expected = dataclasses.asdict(run_profile_reference("li", config))
        assert json.loads(profile) == json.loads(json.dumps(expected))

    def test_worker_imports_only_the_standard_library(self, executors,
                                                      trace):
        """The worker runs the fold module as a script: no ``repro``
        package, no numpy."""
        executors(2)
        StreamingDataflowEngine(trace).analyze_all(SCENARIOS)
        pid = streaming._workers[0].proc.pid
        with open(f"/proc/{pid}/cmdline", "rb") as cmdline:
            argv = cmdline.read().split(b"\0")
        assert argv[1:3] == [b"-I", b"-S"]
        assert argv[3].decode() == streaming.folds.__file__
        with open(f"/proc/{pid}/maps") as maps:
            assert "numpy" not in maps.read()
