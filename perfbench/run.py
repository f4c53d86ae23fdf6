"""perfbench: the repository's benchmark (see README.md next to this file).

Usage, from the repository root::

    python3 perfbench/run.py --workload hijack-1k --seed 1 --seconds 8 --trace 0

Generates the workload's inputs from ``--seed``, sets the workload up in
several fresh worker processes, measures it in one more for ``--seconds``,
checks every output, and prints one JSON line per run: a details line
(host block, input properties, per-operation results) and, last, the
result line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 1`` the metrics are the per-layer figures of a traced run.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

WORKLOAD_NAMES = ("hijack-1k", "taxonomy-warm", "tenants-replay", "operator-replay")
REPLAYS = ("tenants-replay", "operator-replay")

#: A run ends within 180 s: workers still running at this deadline are killed.
DEADLINE_S = 170.0
#: Workers never write bytecode, so a cold set-up always compiles the
#: program the same way whatever earlier runs left in the checkout; and
#: they hash strings the same way, so dict and set layouts (which shift
#: microsecond-scale latencies) do not change from one process to the next.
WORKER_ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")


class BenchError(Exception):
    """The benchmark could not run (missing program, crashed worker)."""


def host_block() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "commit": commit(),
    }


def commit() -> str:
    """The git commit when there is one, else a digest of the program source."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode("utf-8"))
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def make_inputs(args, work: str) -> dict:
    inputs = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
    }
    if args.workload in REPLAYS:
        import gen

        trace = os.path.join(work, "input.trace")
        manifest = gen.generate(args.workload, args.seed, args.size, trace)
        inputs["trace"] = trace
        inputs["manifest"] = os.path.join(work, "manifest.json")
        with open(inputs["manifest"], "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        inputs["stats"] = manifest["stats"]
        with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
            inputs["pins"] = json.load(handle).get(args.workload, {})
    return inputs


def worker(role: str, inputs: dict, deadline: float) -> dict:
    payload = {k: v for k, v in inputs.items() if k != "stats"}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {role} worker")
    try:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), role, json.dumps(payload)],
            capture_output=True, text=True, timeout=remaining, cwd=ROOT,
            env=WORKER_ENV,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} worker overran the run deadline") from None
    if out.returncode != 0:
        raise BenchError(f"{role} worker failed:\n{out.stderr[-4000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def measured(inputs: dict, deadline: float):
    from workloads import WORKLOADS as CLASSES

    cls = CLASSES[inputs["workload"]]
    # The measuring processes share the time budget.
    share = dict(inputs, seconds=inputs["seconds"] / cls.processes)
    runs = [worker("measure", share, deadline) for _ in range(cls.processes)]
    setup_runs = [
        worker("setup", inputs, deadline)
        for _ in range(cls.setup_samples - cls.processes)
    ] + runs
    setups = [run["setup_s"] for run in setup_runs]
    ops = [op for run in runs for op in run["ops"]]
    stages = [row for run in runs for row in run["stages"]]
    # Times arrive in reference seconds (hostspeed.py).  Repeats of an
    # operation do identical work and raise the same alerts in the same
    # order.  A shared host's interference only ever slows a
    # microsecond-scale sample down, so each alert's latency is its fastest
    # repeat.  Walls span seconds of that interference, so they are medians.
    slots = defaultdict(list)
    for op in ops:
        slots[op["slot"]].append(op)
    latencies = [
        min(repeats)
        for group in slots.values()
        for repeats in zip(*(op["latencies"] for op in group))
    ]
    tp = sum(run["tp"][0] for run in runs)
    incidents = sum(run["tp"][1] for run in runs)
    problems = [why for run in runs for why in run["problems"]]
    if len({run["ops"][0]["digest"] for run in runs if run["ops"]}) > 1:
        problems.append("measuring processes disagree on the first operation")

    def mean_stage(column: int) -> float:
        return statistics.fmean(row[column] for row in stages) if stages else 0.0

    def latency_ms(q: float) -> float:
        return 1000.0 * percentile(latencies, q) if latencies else 0.0

    # p99 needs >= 1000 alerts; below that the tail figure is the highest
    # percentile that still has ten alerts beyond it (the only one if <= 10).
    count = len(latencies)
    tail_q = 99.0 if count >= 1000 else max(50.0, 100.0 * (count - 10) / max(count, 1))

    metrics = {
        "setup_s": statistics.median(setups),
        "experiment_wall_s": statistics.median(op["wall"] for op in ops),
        "replay_events_per_s": statistics.median(op["events"] / op["wall"] for op in ops),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        "detect_sim_s": mean_stage(0),
        "mitigate_sim_s": mean_stage(1),
        "recover_sim_s": mean_stage(2),
        "total_sim_s": mean_stage(3),
        "true_positive_share": tp / incidents if incidents else 0.0,
        "alert_latency_p50_ms": latency_ms(50),
        "alert_latency_p99_ms": latency_ms(tail_q),
    }
    failed = sum(1 for op in ops if not op["ok"])
    details = {
        "setup_samples_s": setups,
        "setup_net_samples_s": [run["setup_net_s"] for run in setup_runs],
        "op_walls_s": [op["wall"] for op in ops][:50],
        "op_net_walls_s": [op["net_wall"] for op in ops][:50],
        "op_digests": sorted({op["digest"] for op in ops}),
        "alerts_per_op": sorted({op["alerts"] for op in ops}),
        "alert_latency_samples": count,
        "alert_latency_tail_percentile": tail_q,
        "stage_samples": len(stages),
        "problems": (problems + [why for op in ops for why in op["why"]])[:20],
    }
    correct = failed == 0 and not problems and len(ops) > 0
    return correct, len(ops), failed, metrics, details


def traced(inputs: dict, deadline: float):
    run = worker("trace", inputs, deadline)
    metrics = run["metrics"]
    attributed_ok = metrics["trace.attributed_share"] >= 0.95
    problems = list(run["problems"])
    if not attributed_ok:
        problems.append(
            f"layers attribute only {metrics['trace.attributed_share']:.3f} of the traced wall"
        )
    details = {
        "untraced_ops_s": run["untraced_ops_s"],
        "traced_ops_s": run["traced_ops_s"],
        "problems": problems,
    }
    correct = run["failed"] == 0 and attributed_ok and not run["problems"]
    return correct, run["ops"], run["failed"], metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(
        ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(work, exist_ok=True)
    try:
        inputs = make_inputs(args, work)
        if args.trace:
            correct, attempted, failed, values, details = traced(inputs, deadline)
            units = metric_units("per_layer")
        else:
            correct, attempted, failed, values, details = measured(inputs, deadline)
            units = metric_units("end_to_end")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it
    details.update(
        workload=args.workload,
        seed=args.seed,
        size=args.size,
        trace=args.trace,
        host=host_block(),
        inputs=inputs.get("stats", {}),
    )
    print(json.dumps({"details": details}))
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
