"""Open-loop HTTP load against a ``repro serve`` subprocess.

The generator is one asyncio loop in the benchmark process.  Request
``i`` is due at ``start + i / rate`` whatever happened to earlier
requests (independent users, not callers waiting on each other), at
most ``MAX_CONNECTIONS`` are in flight, and each is timed from its due
time, so a stall in the server also delays the requests queued behind
it.  ``late`` is how long after its due time a request was sent.
"""

from __future__ import annotations

import asyncio
import os
import random
import select
import subprocess
import sys
import time

MAX_CONNECTIONS = 2
FIGURES = ("figure3", "figure4", "figure5", "figure6", "figure7", "figure8")
#: Kernels asked for at a budget nobody cached: each such request is an
#: idempotent enqueue answered 202.
ENQUEUE_KERNELS = ("li", "go", "tomcatv")
REQUEST_TIMEOUT_S = 10.0


def request_plan(seed: int, count: int, kernels, budget: int):
    """The seeded request sequence: ``(kind, path, expected_status)``.

    About 85% profile hits spread over every kernel, 10% figures
    rendered from cached profiles, 5% profiles for uncached configs.
    """
    rng = random.Random(seed)
    plan = []
    for _ in range(count):
        r = rng.random()
        if r < 0.85:
            plan.append(("profile", f"/profile?workload={rng.choice(kernels)}",
                         200))
        elif r < 0.95:
            plan.append(("figure", f"/figure?name={rng.choice(FIGURES)}", 200))
        else:
            k = rng.choice(ENQUEUE_KERNELS)
            plan.append(("enqueue",
                         f"/profile?workload={k}&budget={budget + 1}", 202))
    return plan


def all_requests(kernels, budget: int):
    """Every distinct request the plan can contain (for pinning)."""
    out = [("profile", f"/profile?workload={k}", 200) for k in kernels]
    out += [("figure", f"/figure?name={f}", 200) for f in FIGURES]
    out += [("enqueue", f"/profile?workload={k}&budget={budget + 1}", 202)
            for k in ENQUEUE_KERNELS]
    return out


def digest_key(budget: int, path: str) -> str:
    return f"serve/{budget}{path}"


def split_request(path: str) -> tuple[str, dict[str, str]]:
    """``/route?a=1&b=2`` as ``("/route", {"a": "1", "b": "2"})``, the
    arguments of ``ServiceFrontend.dispatch``."""
    route, _, query = path.partition("?")
    return route, dict(p.split("=", 1) for p in query.split("&"))


class ServerProcess:
    """A ``repro serve`` child on an ephemeral loopback port."""

    def __init__(self, env: dict, budget: int, log_path) -> None:
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--budget", str(budget), "--backend", "fast"],
            stdout=subprocess.PIPE, stderr=self._log, env=env,
        )
        self.port = self._read_port(deadline=time.monotonic() + 60.0)

    def _read_port(self, deadline: float) -> int:
        fd = self.proc.stdout.fileno()
        buf = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.2)
            if ready:
                data = os.read(fd, 4096)
                if not data:
                    break
                buf += data
                for line in buf.splitlines():
                    if b"listening on http://" in line:
                        return int(line.rsplit(b":", 1)[1])
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("repro serve did not start")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


async def _get(port: int, path: str) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n"
                     .encode("latin-1"))
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


async def _open_loop(port: int, plan, rate: float):
    loop = asyncio.get_running_loop()
    sem = asyncio.Semaphore(MAX_CONNECTIONS)
    results: list = [None] * len(plan)

    async def fire(i: int, due: float) -> None:
        async with sem:
            sent = loop.time()
            try:
                status, body = await asyncio.wait_for(
                    _get(port, plan[i][1]), REQUEST_TIMEOUT_S)
            except (OSError, asyncio.TimeoutError, ValueError, IndexError):
                status, body = None, b""
            results[i] = (due, sent, loop.time(), status, body)

    start = loop.time() + 0.05
    tasks = []
    for i in range(len(plan)):
        due = start + i / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(fire(i, due)))
    await asyncio.gather(*tasks)
    return results


def run_open_loop(port: int, plan, rate: float):
    """Send ``plan`` at ``rate`` per second; one result per request:
    ``(due, sent, done, status, body)`` with loop-clock times."""
    return asyncio.run(_open_loop(port, plan, rate))
