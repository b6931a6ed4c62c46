"""The benchmark's own tests: tiny-budget runs of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload, *extra, trace=0, seed=1):
    return run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--size", "smoke", *extra)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result, spec_metrics):
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    got = result["metrics"]
    assert set(got) == set(expected)
    for name, unit in expected.items():
        assert got[name]["unit"] == unit, name
        assert isinstance(got[name]["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    proc = smoke(workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, SPEC["end_to_end"])
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_wrong_pinned_digest_is_a_failure(tmp_path):
    pinned = json.loads((BENCH / "pinned.json").read_text())
    key = next(k for k in pinned["digests"] if k.startswith("profile/")
               and k.endswith("/3000"))
    pinned["digests"][key] = "0" * 32
    bad = tmp_path / "pinned.json"
    bad.write_text(json.dumps(pinned))
    proc = smoke("cold-profile", "--digests", str(bad))
    assert proc.returncode == 1
    result = last_json(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "MISMATCH " + key in proc.stdout


def test_traced_run_reports_layers_and_nested_spans():
    proc = smoke("trace-replay", trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert result["correct"] is True
    assert_metrics(result, SPEC["per_layer"])
    coverage = result["metrics"]["trace.coverage"]["value"]
    assert 0.5 < coverage <= 1.0 + 1e-9
    assert result["metrics"]["tracev3.decode_ns_per_instr"]["value"] > 0
    # layers this workload never calls are measured by the probe
    assert result["metrics"]["rtm.sim_ns_per_instr"]["value"] > 0
    saved = json.loads(
        (ROOT / ".perfbench-results" /
         "trace-replay-seed1-trace1-smoke.json").read_text())
    assert saved["spans_nested"] is True
    names = {s["name"] for s in saved["spans"]}
    assert {"bench.op", "tracev3.decode_chunks"} <= names


def test_spec_names_match_the_code():
    import report

    assert [m["name"] for m in SPEC["end_to_end"]] == list(report.END_TO_END)
    assert [m["unit"] for m in SPEC["end_to_end"]] == \
        list(report.END_TO_END.values())
    assert [m["name"] for m in SPEC["per_layer"]] == report.per_layer_names()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children():
    import time

    from spans import SpanRecorder

    rec = SpanRecorder()
    with rec.span("bench.op"):
        with rec.span("layer.parent"):
            t0 = time.perf_counter()
            time.sleep(0.01)
            rec.add("layer.child", t0, time.perf_counter())
    assert rec.nested()
    _, _, start, end, _ = rec.spans[1]
    child = rec.spans[2][3] - rec.spans[2][2]
    own = rec.self_times()
    assert own[1] == pytest.approx(end - start - child)
    assert own[2] == pytest.approx(child)
    assert 0.9 < rec.coverage() <= 1.0


def test_column_digest_ignores_chunking():
    from digests import ColumnDigest
    from repro.vm.tracestream import ColumnarChunkStream
    from repro.workloads.base import run_workload

    trace = run_workload("tomcatv", max_instructions=3000, use_cache=False,
                         backend="fast")
    digests = set()
    for size in (3000, 1000, 7):
        d = ColumnDigest()
        for chunk in ColumnarChunkStream(trace, chunk_size=size).chunks():
            d.update(chunk)
        digests.add(d.hexdigest())
    assert len(digests) == 1


def test_value_digest_tells_int_from_float():
    from digests import _values_bytes

    assert _values_bytes([1, 2]) != _values_bytes([1.0, 2])
    assert _values_bytes([1, 2.5]) == _values_bytes([1, 2.5])
    assert _values_bytes([2**63 + 5]) == _values_bytes([2**63 + 5])
