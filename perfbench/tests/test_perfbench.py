"""The benchmark's own tests: input determinism, metric schema, smoke runs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import gen  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("hijack-1k", "taxonomy-warm", "tenants-replay", "operator-replay")
#: The workloads BENCHMARK.json gates on (operator-replay runs, but its
#: microsecond-scale alert latencies are too noisy to gate on).
GATED = ("hijack-1k", "taxonomy-warm", "tenants-replay")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


# ------------------------------------------------------------ generator


@pytest.mark.parametrize("workload", ["tenants-replay", "operator-replay"])
def test_same_seed_gives_byte_identical_trace(tmp_path, workload):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    manifest = gen.generate(workload, 7, "smoke", str(first))
    gen.generate(workload, 7, "smoke", str(second))
    gen.generate(workload, 8, "smoke", str(other))
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() != other.read_bytes()
    stats = manifest["stats"]
    for key in ("events", "distinct_keys", "verdict_cache_bound",
                "watched_event_share", "hijack_event_share", "owned_prefixes"):
        assert key in stats
    assert stats["events"] > 0 and 0 < stats["hijack_event_share"] < 1


def test_trace_loads_through_the_public_reader(tmp_path):
    from repro.feeds.replay import load_trace

    path = tmp_path / "t.trace"
    manifest = gen.generate("operator-replay", 3, "smoke", str(path))
    trace = load_trace(str(path))
    assert len(trace) == manifest["stats"]["events"]
    assert len(trace.config.owned) == manifest["stats"]["owned_prefixes"]
    times = [event.delivered_at for event in trace.events]
    assert times == sorted(times)


def test_full_tenants_trace_overflows_the_verdict_cache(tmp_path):
    """Sized to make the verdict cache evict: do not shrink it."""
    stats = gen.generate("tenants-replay", 1, "full", str(tmp_path / "t"))["stats"]
    assert stats["distinct_keys"] >= 2.4 * gen.VERDICT_CACHE_BOUND
    assert stats["churn_ops"] >= 2


# --------------------------------------------------------------- schema


def test_benchmark_json_schema():
    data = spec()
    assert set(data) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert data["paths"] == ["perfbench"]
    assert 1 <= data["run_seconds"] <= 60
    assert [w["name"] for w in data["workloads"]] == list(GATED)
    names = []
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in data["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in data["end_to_end"] + data["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])


def test_layer_self_metrics_are_declared():
    import tracing

    per_layer = {m["name"] for m in spec()["per_layer"]}
    assert set(tracing.LAYER_SELF.values()) <= per_layer


# ---------------------------------------------------------- smoke runs


def _result(proc, require_correct=True):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    details = json.loads(lines[-2])["details"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    if require_correct:
        assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    for key in ("nproc", "python", "cpu_model", "commit"):
        assert key in details["host"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = _result(
        run_bench("--workload", workload, "--seed", "2", "--seconds", "0.1",
                  "--size", "smoke")
    )
    expected = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_trace_attributes_the_wall(workload):
    # Smoke inputs are too small for the 95% attribution gate: the
    # harness's fixed per-event cost is a larger share of a tiny wall.
    result = _result(
        run_bench("--workload", workload, "--seed", "2", "--seconds", "0.1",
                  "--size", "smoke", "--trace", "1"),
        require_correct=False,
    )
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in spec()["per_layer"]}
    import tracing

    layers = sum(metrics[name] for name in tracing.LAYER_SELF.values())
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9, abs=1e-9
    )
    assert metrics["trace.attributed_share"] >= 0.9


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hijack-1k",
         "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_probe_is_net_of_its_own_time():
    import hostspeed

    hostspeed.start()
    try:
        wall, net = time.perf_counter(), hostspeed.net_clock()
        while time.perf_counter() - wall < 0.6:
            pass
        wall, net = time.perf_counter() - wall, hostspeed.net_clock() - net
    finally:
        hostspeed.stop()
    assert len(hostspeed._TOOK) >= 5
    spent = sum(hostspeed._TOOK[-5:])
    assert net < wall - spent * 0.9
    # Reference seconds scale with the measured duration.
    end = hostspeed.net_clock()
    one = hostspeed.over(1.0, end - net, end)
    assert one > 0 and hostspeed.over(2.0, end - net, end) == pytest.approx(2 * one)
