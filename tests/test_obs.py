"""Telemetry registries, JSONL run manifests and the ``obs`` CLI."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.dataflow.model import Scenario
from repro.dataflow.streaming import StreamingDataflowEngine
from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_profile
from repro.obs import telemetry
from repro.obs.manifest import RunManifest


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh cache directory (manifests live under ``<it>/runs``)."""
    target = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
    return target


class TestTelemetry:
    def test_counters_accumulate(self):
        reg = telemetry.Telemetry()
        reg.incr("a")
        reg.incr("a", 4)
        assert reg.snapshot()["counters"] == {"a": 5}

    def test_timers_accumulate_calls(self):
        reg = telemetry.Telemetry()
        reg.add_time("stage", 0.25)
        reg.add_time("stage", 0.75)
        snap = reg.snapshot()["timers"]["stage"]
        assert snap["seconds"] == pytest.approx(1.0)
        assert snap["calls"] == 2

    def test_time_context_manager(self):
        reg = telemetry.Telemetry()
        with reg.time("block"):
            pass
        snap = reg.snapshot()["timers"]["block"]
        assert snap["calls"] == 1 and snap["seconds"] >= 0.0

    def test_merge_folds_foreign_snapshot(self):
        a = telemetry.Telemetry()
        a.incr("x", 2)
        a.add_time("t", 1.0)
        b = telemetry.Telemetry()
        b.incr("x", 3)
        b.merge(a.snapshot())
        snap = b.snapshot()
        assert snap["counters"]["x"] == 5
        assert snap["timers"]["t"]["seconds"] == pytest.approx(1.0)

    def test_scope_isolates_and_merges_outward(self):
        outer = telemetry.current()
        before = outer.counters.get("scoped", 0)
        with obs.scope() as inner:
            obs.incr("scoped", 7)
            assert inner.snapshot()["counters"]["scoped"] == 7
            # the outer registry is untouched while the scope is open
            assert outer.counters.get("scoped", 0) == before
        assert outer.counters["scoped"] == before + 7

    def test_nested_scopes(self):
        with obs.scope() as a:
            with obs.scope() as b:
                obs.incr("deep")
                assert b.counters == {"deep": 1}
            assert a.counters == {"deep": 1}

    def test_reset(self):
        reg = telemetry.Telemetry()
        reg.incr("gone")
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "timers": {}}


class TestRunManifest:
    def test_events_round_trip(self, cache_dir):
        manifest = RunManifest()
        manifest.start(("li", "gcc"), {"budget": 100})
        manifest.emit("profile_done", name="li", attempt=1, seconds=0.5)
        events = obs.read_events(manifest.path)
        assert [e["event"] for e in events] == ["run_start", "profile_done"]
        assert events[0]["workloads"] == ["li", "gcc"]
        assert all("t" in e for e in events)

    def test_truncated_final_line_tolerated(self, cache_dir):
        manifest = RunManifest()
        manifest.emit("run_start", run_id=manifest.run_id)
        manifest.emit("profile_done", name="li")
        # simulate a run killed mid-write: chop the last line in half
        raw = manifest.path.read_bytes()
        manifest.path.write_bytes(raw[: len(raw) - 20])
        events = obs.read_events(manifest.path)
        assert [e["event"] for e in events] == ["run_start"]

    def test_manifests_live_under_cache_runs(self, cache_dir):
        manifest = RunManifest()
        manifest.emit("run_start")
        assert manifest.path.parent == cache_dir / "runs"

    def test_distinct_run_ids(self, cache_dir):
        assert RunManifest().run_id != RunManifest().run_id

    def test_list_runs_sorted_and_filtered(self, cache_dir):
        for _ in range(2):
            RunManifest().emit("run_start")
        (cache_dir / "runs" / "not-a-manifest.txt").write_text("x")
        runs = obs.list_runs()
        assert len(runs) == 2
        assert all(p.name.startswith("run-") for p in runs)

    def test_find_run_latest_and_substring(self, cache_dir):
        first = RunManifest(run_id="20250101-000000-p1-1")
        first.emit("run_start")
        second = RunManifest(run_id="20250101-000000-p1-2")
        second.emit("run_start")
        assert obs.find_run("latest") == second.path
        assert obs.find_run("p1-1") == first.path
        with pytest.raises(FileNotFoundError):
            obs.find_run("nonexistent")

    def test_find_run_empty_dir(self, cache_dir):
        with pytest.raises(FileNotFoundError):
            obs.find_run("latest")


class TestManifestConcurrency:
    def test_torn_final_line_counted(self, cache_dir):
        manifest = RunManifest()
        manifest.emit("run_start", run_id=manifest.run_id)
        manifest.emit("profile_done", name="li")
        raw = manifest.path.read_bytes()
        manifest.path.write_bytes(raw[: len(raw) - 20])
        events, torn = obs.read_manifest(manifest.path)
        assert [e["event"] for e in events] == ["run_start"]
        assert torn == 1

    def test_concurrent_appends_never_tear(self, cache_dir):
        """4 processes × 50 O_APPEND events into ONE file: all parse."""
        import os
        import subprocess
        import sys

        manifest = RunManifest(run_id="shared")
        manifest.emit("run_start", run_id="shared")
        script = (
            "from repro.obs.manifest import RunManifest\n"
            "import sys\n"
            "m = RunManifest(run_id='shared')\n"
            "for i in range(50):\n"
            "    m.emit('tick', writer=sys.argv[1], i=i,\n"
            "           pad='x' * 200)\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, f"p{k}"],
                env=os.environ.copy(),
            )
            for k in range(4)
        ]
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        events, torn = obs.read_manifest(manifest.path)
        assert torn == 0
        ticks = [e for e in events if e["event"] == "tick"]
        assert len(ticks) == 200
        # every writer's every event landed intact, in order per writer
        for k in range(4):
            own = [e["i"] for e in ticks if e["writer"] == f"p{k}"]
            assert own == list(range(50))


class TestManifestFamilies:
    def _family(self):
        coordinator = RunManifest(run_id="fam1")
        coordinator.start(("li",), {})
        w0 = RunManifest(run_id="fam1", worker="w0")
        w0.emit("shard_claim", name="li")
        w1 = RunManifest(run_id="fam1", worker="w1")
        w1.emit("shard_steal", name="li", attempt=2)
        w1.emit("shard_done", name="li")
        coordinator.end(ok=["li"], failed=[], resumed=[], seconds=0.1)
        return coordinator, w0, w1

    def test_group_key_strips_worker_tag(self, cache_dir):
        coordinator, w0, _ = self._family()
        assert obs.manifest.group_key(coordinator.path) == "fam1"
        assert obs.manifest.group_key(w0.path) == "fam1"

    def test_list_run_groups_coordinator_first(self, cache_dir):
        self._family()
        RunManifest(run_id="solo").emit("run_start")
        groups = dict(obs.list_run_groups())
        assert set(groups) == {"fam1", "solo"}
        fam = groups["fam1"]
        assert len(fam) == 3
        assert fam[0].name == "run-fam1.jsonl"
        assert [p.name for p in fam[1:]] == [
            "run-fam1-ww0.jsonl", "run-fam1-ww1.jsonl",
        ]

    def test_find_run_paths_resolves_family(self, cache_dir):
        self._family()
        paths = obs.find_run_paths("fam1")
        assert len(paths) == 3
        assert obs.find_run_paths("latest") == paths

    def test_merge_events_time_ordered_and_tagged(self, cache_dir):
        self._family()
        events, torn = obs.merge_events(obs.find_run_paths("fam1"))
        assert torn == 0
        assert events[0]["event"] == "run_start"
        assert events[-1]["event"] == "run_end"
        times = [e["t"] for e in events]
        assert times == sorted(times)
        workers = {e.get("worker") for e in events}
        assert {"w0", "w1"} <= workers

    def test_summarize_merged_family(self, cache_dir):
        self._family()
        events, _ = obs.merge_events(obs.find_run_paths("fam1"))
        summary = obs.summarize(events)
        assert summary["run_id"] == "fam1"
        assert summary["workers"] == ["w0", "w1"]
        assert summary["steals"] == 1
        assert summary["complete"] is True


class TestSummarize:
    def _events(self):
        return [
            {"event": "run_start", "run_id": "r1",
             "workloads": ["li", "gcc", "swim"]},
            {"event": "profile_start", "name": "li", "attempt": 1},
            {"event": "profile_done", "name": "li", "attempt": 1,
             "seconds": 0.4, "source": "computed",
             "telemetry": {"counters": {"trace_cache.miss": 1},
                           "timers": {"stage.trace":
                                      {"seconds": 0.3, "calls": 1}}}},
            {"event": "profile_start", "name": "gcc", "attempt": 1},
            {"event": "profile_error", "name": "gcc", "attempt": 1,
             "kind": "RuntimeError", "message": "boom", "will_retry": True},
            {"event": "retry", "name": "gcc", "attempt": 2, "backoff": 0.05},
            {"event": "profile_start", "name": "gcc", "attempt": 2},
            {"event": "profile_error", "name": "gcc", "attempt": 2,
             "kind": "RuntimeError", "message": "boom", "will_retry": False},
            {"event": "worker_crash", "in_flight": ["swim"]},
            {"event": "run_end", "ok": ["li"], "failed": ["gcc"],
             "resumed": [], "seconds": 1.5},
        ]

    def test_statuses(self):
        summary = obs.summarize(self._events())
        kernels = summary["kernels"]
        assert kernels["li"]["status"] == "ok"
        assert kernels["li"]["source"] == "computed"
        assert kernels["gcc"]["status"] == "failed"
        assert kernels["gcc"]["attempts"] == 2
        assert kernels["gcc"]["errors"] == ["RuntimeError: boom"] * 2
        assert kernels["swim"]["status"] == "missing"

    def test_totals_and_flags(self):
        summary = obs.summarize(self._events())
        assert summary["run_id"] == "r1"
        assert summary["complete"] is True
        assert summary["worker_crashes"] == 1
        assert summary["seconds"] == 1.5
        assert summary["counters"] == {"trace_cache.miss": 1}
        assert summary["timers"]["stage.trace"]["calls"] == 1

    def test_incomplete_run(self):
        summary = obs.summarize(self._events()[:3])
        assert summary["complete"] is False
        assert summary["seconds"] is None

    def test_error_then_success_is_ok(self):
        events = [
            {"event": "profile_error", "name": "li", "attempt": 1,
             "kind": "RuntimeError", "message": "flaky"},
            {"event": "profile_done", "name": "li", "attempt": 2,
             "seconds": 0.1},
        ]
        entry = obs.summarize(events)["kernels"]["li"]
        assert entry["status"] == "ok"
        assert entry["attempts"] == 2


class TestObsCli:
    def test_list_empty(self, cache_dir, capsys):
        from repro.cli import main

        assert main(["obs", "list"]) == 0
        assert "no run manifests" in capsys.readouterr().out

    def test_show_missing(self, cache_dir, capsys):
        from repro.cli import main

        assert main(["obs", "show"]) == 1
        assert "no run manifests" in capsys.readouterr().err

    def test_list_and_show(self, cache_dir, capsys):
        from repro.cli import main

        manifest = RunManifest()
        manifest.start(("li",), {"budget": 100})
        manifest.emit("profile_done", name="li", attempt=1, seconds=0.25,
                      source="computed", telemetry={"counters": {"c": 2}})
        manifest.end(ok=["li"], failed=[], resumed=[], seconds=0.3)

        assert main(["obs", "list"]) == 0
        out = capsys.readouterr().out
        assert manifest.run_id in out and "yes" in out

        assert main(["obs", "show", "latest"]) == 0
        out = capsys.readouterr().out
        assert "li" in out and "computed" in out and str(manifest.path) in out

    def test_show_failed_kernels_listed(self, cache_dir, capsys):
        from repro.cli import main

        manifest = RunManifest()
        manifest.start(("li", "gcc"), {})
        manifest.emit("profile_error", name="gcc", attempt=1,
                      kind="RuntimeError", message="boom", will_retry=False)
        manifest.end(ok=["li"], failed=["gcc"], resumed=[], seconds=0.1)
        assert main(["obs", "show"]) == 0
        out = capsys.readouterr().out
        assert "failed kernels: gcc" in out


class TestEngineProfilingHooks:
    """The engine times every scenario on every run — no switch."""

    SCENARIOS = [
        Scenario("base", window_size=None),
        Scenario("tlr", window_size=256, latency=1.0),
        Scenario("tlr", window_size=None, latency=2.0),
    ]

    def test_timer_per_scenario_kind(self, tiny_loop_trace):
        with obs.scope() as registry:
            StreamingDataflowEngine(tiny_loop_trace).analyze_all(
                self.SCENARIOS)
            snap = registry.snapshot()
        assert snap["timers"]["engine.base"]["calls"] == 1
        assert snap["timers"]["engine.tlr"]["calls"] == 2
        assert "engine.ilr" not in snap["timers"]
        for entry in snap["timers"].values():
            assert entry["seconds"] >= 0.0
        assert json.dumps(snap)  # JSON-able, as manifests store it

    def test_analysis_timers_reported(self, tiny_loop_trace):
        with obs.scope() as registry:
            StreamingDataflowEngine(tiny_loop_trace).analyze_all(
                [Scenario("base", window_size=None)])
            snap = registry.snapshot()
        assert snap["timers"]["engine.base"]["calls"] == 1
        assert snap["counters"]["engine.instructions_analyzed"] == len(
            tiny_loop_trace
        )

    def test_run_profile_telemetry_has_engine_timers(self):
        config = ExperimentConfig(max_instructions=500, use_cache=False)
        with obs.scope() as registry:
            run_profile("li", config)
            snap = registry.snapshot()
        scenarios = 2 + 4 * len(config.reuse_latencies) + len(
            config.proportional_ks)
        calls = sum(snap["timers"][f"engine.{kind}"]["calls"]
                    for kind in ("base", "ilr", "tlr"))
        assert calls == scenarios
        assert snap["counters"]["engine.instructions_analyzed"] == (
            500 * scenarios)

    def test_fold_split_reaches_manifest_and_obs_show(self, cache_dir,
                                                      monkeypatch, capsys):
        """Scenarios folded by a worker still report ``engine.<kind>``
        time, next to the executor count, the time spent waiting on the
        workers and the one-off worker start."""
        from repro.cli import main
        from repro.dataflow import streaming
        from repro.exp.runner import collect_profiles, profile_scenarios

        streaming._discard_workers()
        monkeypatch.setattr(streaming, "_cpu_count", lambda: 2)
        config = ExperimentConfig(max_instructions=500, workloads=("li",),
                                  max_workers=1, use_cache=False)
        try:
            run = collect_profiles(config, manifest=True)
        finally:
            streaming._discard_workers()
        assert run.ok
        events, _ = obs.read_manifest(run.manifest_path)
        summary = obs.summarize(events)
        assert summary["counters"]["engine.fold_executors"] == 2
        timers = summary["timers"]
        assert timers["engine.fold_worker_start"]["calls"] == 1
        assert timers["engine.fold_wait"]["calls"] == 1
        calls = sum(timers[f"engine.{kind}"]["calls"]
                    for kind in ("base", "ilr", "tlr"))
        assert calls == len(profile_scenarios(config))

        assert main(["obs", "show"]) == 0
        out = capsys.readouterr().out
        for name in ("engine.fold_executors", "engine.fold_wait",
                     "engine.fold_worker_start", "engine.tlr"):
            assert name in out

    def test_shared_layer_timers_reach_manifest_and_obs_show(
            self, cache_dir, capsys):
        """The ILR pass and the block precompute are timed once per
        chunk and per block, and ``obs show`` prints them per drained
        instruction."""
        from repro.cli import main
        from repro.exp.runner import collect_profiles

        config = ExperimentConfig(max_instructions=3_000, workloads=("li",),
                                  max_workers=1, use_cache=False,
                                  stream_chunk_size=1_000)
        run = collect_profiles(config, manifest=True)
        assert run.ok
        events, _ = obs.read_manifest(run.manifest_path)
        summary = obs.summarize(events)
        assert summary["counters"]["engine.instructions"] == 3_000
        timers = summary["timers"]
        assert timers["engine.ilr_flags"]["calls"] == 3  # one per chunk
        assert timers["engine.precompute"]["calls"] >= 1  # one per block
        for name in ("engine.ilr_flags", "engine.precompute"):
            assert timers[name]["seconds"] > 0.0

        assert main(["obs", "show"]) == 0
        out = capsys.readouterr().out
        assert "Engine layers" in out
        for name in ("engine.ilr_flags", "engine.precompute", "engine.tlr"):
            assert name in out.split("Engine layers")[1]


class TestRTMTelemetry:
    """The finite-RTM simulator reports its time and its reuse test
    outcomes once per run."""

    def test_rtm_timer_and_counters(self):
        from repro.core.rtm import RTM_PRESETS, FiniteReuseSimulator, ILRHeuristic
        from repro.workloads.base import run_workload

        trace = run_workload("compress", max_instructions=2_000,
                             use_cache=False)
        with obs.scope() as registry:
            results = [
                FiniteReuseSimulator(RTM_PRESETS["512"], ILRHeuristic(expand),
                                     reuse_test=reuse_test).run(trace)
                for expand in (False, True)
                for reuse_test in ("compare", "invalidate")
            ]
            snap = registry.snapshot()
        n = len(trace)
        timer = snap["timers"]["rtm.simulate"]
        assert timer["calls"] == 4 and timer["seconds"] > 0.0
        counters = snap["counters"]
        assert counters["rtm.instructions"] == 4 * n
        assert counters["rtm.hits"] == sum(r.reuse_events for r in results) > 0
        # one lookup per fetch: every executed instruction and every hit
        assert counters["rtm.lookups"] == sum(
            n - r.reused_instructions + r.reuse_events for r in results)
