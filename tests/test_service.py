"""Shard queue, worker shards, sweep coordinator and the serve front end."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import subprocess
import sys
import time

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.runner import BenchmarkProfile, collect_profiles, run_profile
from repro.exp.service import (
    ShardQueue,
    enqueue_sweep,
    run_service_sweep,
    run_worker,
)
from repro.exp.service.queue import shard_job_id
from repro.exp.service.server import (
    ServiceFrontend,
    config_from_query,
    start_server,
)
from repro.vm import tracecache

TINY = ExperimentConfig(max_instructions=600, workloads=("li",),
                        max_workers=1)
SMALL = ExperimentConfig(max_instructions=1200, workloads=("compress", "li"),
                         max_workers=1)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh shared cache directory (exported to child processes)."""
    target = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
    return target


class TestShardJobId:
    def test_content_addressed(self):
        assert shard_job_id("li", TINY) == shard_job_id("li", TINY)
        assert shard_job_id("li", TINY) != shard_job_id("gcc", TINY)
        other = dataclasses.replace(TINY, max_instructions=601)
        assert shard_job_id("li", TINY) != shard_job_id("li", other)

    def test_execution_knobs_do_not_change_id(self):
        # same semantic work => same shard, whatever runs it
        other = dataclasses.replace(TINY, max_workers=8, task_retries=5)
        assert shard_job_id("li", TINY) == shard_job_id("li", other)

    def test_readable_prefix(self):
        assert shard_job_id("li", TINY).startswith("li-")


class TestShardQueue:
    def test_enqueue_then_idempotent(self, cache_dir):
        queue = ShardQueue()
        job_id, state = queue.enqueue("li", TINY)
        assert state == "pending"
        assert queue.enqueue("li", TINY) == (job_id, "pending")
        assert queue.counts()["pending"] == 1

    def test_claim_records_lease(self, cache_dir):
        import os

        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        assert job is not None
        assert job.state == "leased"
        assert job.worker == "w1"
        assert job.pid == os.getpid()
        assert job.attempts == 1
        assert queue.counts() == {"pending": 0, "leased": 1,
                                  "done": 0, "failed": 0}
        # the lease survives a round trip through the queue record
        found = queue.find(job.job_id)
        assert found.worker == "w1" and found.state == "leased"

    def test_claim_empty_returns_none(self, cache_dir):
        assert ShardQueue().claim("w1") is None

    def test_claimed_config_round_trips(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        config = job.experiment_config()
        assert config.cache_key() == TINY.cache_key()
        assert config.workloads == TINY.workloads

    def test_job_with_retired_config_fields_loads(self, cache_dir):
        """A pending job written before the ``streaming`` and
        ``direct_stream`` knobs were retired still loads, under the same
        profile cache key as today's config."""
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        (path,) = (queue.root / "pending").glob("*.json")
        record = json.loads(path.read_text())
        record["config"].update(streaming=True, direct_stream=False)
        path.write_text(json.dumps(record, sort_keys=True))
        job = queue.claim("w1")
        config = job.experiment_config()
        assert config == TINY
        assert config.cache_key() == TINY.cache_key()
        legacy = dict(TINY.to_dict(), streaming=None, direct_stream=True)
        assert ExperimentConfig.from_dict(legacy).cache_key() == TINY.cache_key()

    def test_complete_settles_shard(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        queue.complete(job)
        assert queue.counts()["done"] == 1
        assert queue.outstanding() == 0
        assert queue.find(job.job_id).state == "done"
        # enqueueing a done shard is a no-op
        assert queue.enqueue("li", TINY) == (job.job_id, "done")

    def test_fail_records_error_and_requeues_on_demand(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        queue.fail(job, "RuntimeError: boom")
        found = queue.find(job.job_id)
        assert found.state == "failed" and found.error == "RuntimeError: boom"
        # retry_failed=False leaves the tombstone alone
        assert queue.enqueue("li", TINY, retry_failed=False) == (
            job.job_id, "failed"
        )
        # the default re-queues an explicit retry request
        assert queue.enqueue("li", TINY) == (job.job_id, "pending")
        assert queue.counts()["failed"] == 0

    def test_steal_dead_pid_lease(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        job.pid = child.pid  # the holder "crashed"
        queue._write("leased", job)
        assert queue.steal_stale("w2") == 1
        stolen = queue.claim("w2")
        assert stolen is not None
        assert stolen.worker == "w2"
        assert stolen.attempts == 2

    def test_live_fresh_lease_not_stolen(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        queue.claim("w1")
        assert queue.steal_stale("w2") == 0
        assert queue.claim("w2") is None

    def test_live_expired_lease_stolen_after_ttl(self, cache_dir):
        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        job.claimed_t = time.time() - 10_000
        queue._write("leased", job)
        assert queue.steal_stale("w2", lease_ttl=600) == 1

    def test_unreadable_lease_judged_by_file_age(self, cache_dir):
        import os

        queue = ShardQueue()
        queue.enqueue("li", TINY)
        job = queue.claim("w1")
        path = queue._path("leased", job.job_id)
        path.write_text("{not json")
        # a freshly-mangled (= freshly-claimed, rewrite pending) lease
        # must NOT be stolen...
        assert queue.steal_stale("w2", lease_ttl=1.0) == 0
        # ...but an old one is fair game
        os.utime(path, (time.time() - 3600, time.time() - 3600))
        assert queue.steal_stale("w2", lease_ttl=1.0) == 1


class TestWorker:
    def test_worker_drains_queue_into_cache(self, cache_dir):
        queue = ShardQueue()
        plan = enqueue_sweep(TINY, queue=queue)
        assert plan.enqueued == ["li"]
        report = run_worker("wtest", queue=queue, manifest=None)
        assert report.completed == ["li"] and not report.failed
        assert queue.counts()["done"] == 1
        cached = tracecache.load_cached_profile("li", TINY.cache_key())
        assert isinstance(cached, BenchmarkProfile)

    def test_failed_shard_keeps_runner_error_shape(self, cache_dir,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "li=raise")
        config = dataclasses.replace(TINY, task_retries=0)
        queue = ShardQueue()
        enqueue_sweep(config, queue=queue)
        report = run_worker("wtest", queue=queue, manifest=None)
        assert report.failed == ["li"]
        job = queue.find(shard_job_id("li", config))
        assert job.state == "failed"
        assert job.error.startswith("RuntimeError: ")

    def test_max_shards_bounds_serve_mode_loop(self, cache_dir):
        queue = ShardQueue()
        enqueue_sweep(TINY, queue=queue)
        report = run_worker("wtest", queue=queue, manifest=None,
                            exit_when_empty=False, max_shards=1)
        assert report.completed == ["li"]


class TestServiceSweep:
    def test_requires_the_shared_cache(self, cache_dir):
        with pytest.raises(ValueError):
            enqueue_sweep(dataclasses.replace(TINY, use_cache=False))

    def test_inline_sweep_bit_identical_to_collect_profiles(
        self, cache_dir, tmp_path, monkeypatch,
    ):
        run = run_service_sweep(SMALL, workers=0, manifest=False)
        assert run.ok
        assert [p.name for p in run] == list(SMALL.workloads)

        # reference: the classic single-process path, separate cache
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ref-cache"))
        reference = collect_profiles(SMALL, manifest=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert list(run) == list(reference)

    def test_second_sweep_resumes_everything(self, cache_dir):
        run_service_sweep(TINY, workers=0, manifest=False)
        plan = enqueue_sweep(TINY)
        assert plan.resumed == ["li"] and not plan.enqueued

    def test_spawned_worker_process_completes_sweep(self, cache_dir):
        run = run_service_sweep(TINY, workers=1, manifest=False)
        assert run.ok and [p.name for p in run] == ["li"]
        done = ShardQueue().jobs("done")
        assert [j.workload for j in done] == ["li"]
        # the shard really ran in the child, not the coordinator
        import os

        assert done[0].pid != os.getpid()

    def test_failures_surface_in_profile_run(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "li=raise")
        config = dataclasses.replace(TINY, task_retries=0)
        run = run_service_sweep(config, workers=0, manifest=False)
        assert not run.ok
        assert [f.name for f in run.failures] == ["li"]
        assert run.failures[0].kind == "RuntimeError"


def _serve(targets, defaults=None, setup=None):
    """Run the front end on an ephemeral port; fetch each target."""

    async def fetch(port, target):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            f"GET {target} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        return int(head.split()[1]), json.loads(body)

    async def main():
        server, frontend, port = await start_server(
            port=0, frontend=ServiceFrontend(defaults)
        )
        if setup is not None:
            setup(frontend)
        try:
            return [await fetch(port, t) for t in targets]
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


class TestConfigFromQuery:
    def test_no_overrides_is_identity(self):
        assert config_from_query({}, TINY) is TINY

    def test_overrides_apply(self):
        config = config_from_query({"budget": "900", "window": "64"}, TINY)
        assert config.max_instructions == 900
        assert config.window_size == 64
        assert config.workloads == TINY.workloads

    def test_bad_value_raises(self):
        with pytest.raises(ValueError):
            config_from_query({"budget": "lots"}, TINY)


class TestServeFrontend:
    def test_health(self, cache_dir):
        [(status, body)] = _serve(["/health"])
        assert status == 200 and body["ok"] is True

    def test_unknown_route_and_bad_params(self, cache_dir):
        results = _serve(["/nope", "/profile", "/profile?workload=li&budget=x",
                          "/job"], defaults=TINY)
        assert [status for status, _ in results] == [404, 400, 400, 400]

    def test_profile_miss_enqueues(self, cache_dir):
        [(status, body)] = _serve(["/profile?workload=li"], defaults=TINY)
        assert status == 202
        assert body["source"] == "enqueued"
        assert ShardQueue().counts()["pending"] == 1
        # the job endpoint can see what was enqueued
        results = _serve([f"/job?id={body['job']}", "/job?id=missing"],
                         defaults=TINY)
        assert results[0][0] == 200
        assert results[0][1]["job"]["state"] == "pending"
        assert results[1][0] == 404

    def test_unknown_workload_404(self, cache_dir):
        [(status, body)] = _serve(["/profile?workload=doom"], defaults=TINY)
        assert status == 404

    def test_warm_profile_hit_never_touches_the_vm(self, cache_dir,
                                                   monkeypatch):
        expected = run_profile("li", TINY)  # warm the cache

        def explode(*args, **kwargs):
            raise AssertionError("the VM ran on a warm cache hit")

        from repro.vm import machine as machine_mod

        monkeypatch.setattr(machine_mod.Machine, "run", explode)
        monkeypatch.setattr("repro.exp.runner.run_profile", explode)
        [(status, body)] = _serve(["/profile?workload=li"], defaults=TINY)
        assert status == 200
        assert body["source"] == "cache"
        assert body["profile"]["name"] == "li"
        assert body["profile"]["dynamic_count"] == expected.dynamic_count

    def test_profile_query_overrides_select_other_entry(self, cache_dir):
        run_profile("li", TINY)
        [(status, body)] = _serve(["/profile?workload=li&budget=601"],
                                  defaults=TINY)
        assert status == 202  # different budget, different cache entry

    def test_figure_miss_then_hit(self, cache_dir):
        config = dataclasses.replace(SMALL, workloads=("applu", "li"))
        [(status, body)] = _serve(["/figure?name=figure3"], defaults=config)
        assert status == 202
        assert set(body["missing"]) == {"applu", "li"}
        for name in config.workloads:
            run_profile(name, config)
        results = _serve(["/figure?name=figure3", "/figure?name=figure99"],
                         defaults=config)
        assert results[0][0] == 200
        assert results[0][1]["source"] == "cache"
        assert results[0][1]["text"].strip()
        assert results[1][0] == 404

    def test_status_reports_queue_and_cache(self, cache_dir):
        run_profile("li", TINY)
        [(status, body)] = _serve(["/status"], defaults=TINY)
        assert status == 200
        assert body["queue"] == {"pending": 0, "leased": 0,
                                 "done": 0, "failed": 0}
        assert body["cache"]["profiles"] == 1
        assert body["cache"]["profile_index"] == 1
