"""Regenerate ``pinned.json``: the expected digest of every output the
benchmark checks, at every input size, for every kernel a seed can pick.

    python3 perfbench/pin.py

Run it only when the program's outputs are meant to change; the
benchmark's job is to notice when they change by accident.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
import tempfile

from run import ROOT, SCRUBBED_ENV, SRC

sys.path.insert(0, str(SRC))
for _key in SCRUBBED_ENV:
    os.environ.pop(_key, None)

import digests  # noqa: E402
import serveload  # noqa: E402
import workloads as w  # noqa: E402
from repro.core.rtm import RTM_PRESETS, FiniteReuseSimulator  # noqa: E402
from repro.exp.runner import run_profile  # noqa: E402
from repro.exp.service.server import ServiceFrontend  # noqa: E402
from repro.workloads.base import run_workload, stream_workload  # noqa: E402


def fresh(root: pathlib.Path, tag: str) -> None:
    path = root / tag
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    os.environ["REPRO_CACHE_DIR"] = str(path)


def pin_size(sz: dict, root: pathlib.Path, out: dict) -> None:
    kernels = [k for names in w.CLASSES.values() for k in names]
    for k in kernels:
        fresh(root, "c")
        key = f"profile/{k}/{sz['profile']}"
        out[key] = digests.profile_digest(
            run_profile(k, w.profile_config(sz["profile"])))
        for budget in (sz["capture"], sz["replay"]):
            w.drain(stream_workload(k, max_instructions=budget,
                                    backend=w.BACKEND))
            out[f"trace/{k}/{budget}"] = w.column_digest(
                w.trace_entry(k, budget))
        trace = run_workload(k, max_instructions=sz["rtm"], backend=w.BACKEND)
        for size in w.RTM_SIZES:
            for h in w.HEURISTICS:
                r = FiniteReuseSimulator(RTM_PRESETS[size], h).run(trace)
                out[f"rtm/{k}/{sz['rtm']}/{size}/{w.heuristic_tag(h)}"] = \
                    digests.rtm_digest(r)
        print(f"pinned {k} at {sz}", flush=True)
    fresh(root, "c")
    config = w.profile_config(sz["serve"])
    for k in w.ALL_KERNELS:
        run_profile(k, config)
    frontend = ServiceFrontend(config)
    for _kind, path, expect in serveload.all_requests(w.ALL_KERNELS,
                                                      sz["serve"]):
        status, answer = frontend.dispatch(*serveload.split_request(path))
        if status != expect:
            raise SystemExit(f"{path}: status {status}, expected {expect}")
        out[serveload.digest_key(sz["serve"], path)] = digests.answer_digest(
            answer)


def main() -> int:
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for sz in w.SIZES.values():
            pin_size(sz, pathlib.Path(tmp), out)
    digests.PINNED_PATH.write_text(json.dumps(
        {"about": "expected output digests; regenerate with "
                  "python3 perfbench/pin.py",
         "digests": dict(sorted(out.items()))}, indent=1) + "\n")
    print(f"wrote {len(out)} digests to {digests.PINNED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
