"""One benchmark process: set up a workload, then measure or trace it.

Started by ``run.py`` as a fresh interpreter per role, so every set-up
time and peak-RSS figure is that of a cold process::

    python3 perfbench/worker.py ROLE INPUTS_JSON

``ROLE`` is ``setup`` (set up once and exit), ``measure`` (set up, then
run operations for the time budget) or ``trace`` (the workload's traced
operations run untraced twice — a warm-up round, then the baseline — and
then set up and run again under the layer tracer).  The last stdout line
is a JSON object with what was measured.

``setup`` and ``measure`` run the host-speed probe (``hostspeed.py``)
from their first line on and report set-up times, walls and latencies in
reference seconds next to the net walls they were converted from.
"""

from __future__ import annotations

import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import hostspeed  # noqa: E402

if sys.argv[1:2] in (["setup"], ["measure"]):
    hostspeed.start()
_started = hostspeed.net_clock()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_role(inputs):
    from workloads import WORKLOADS

    workload = WORKLOADS[inputs["workload"]](inputs)
    workload.setup()
    ended = hostspeed.net_clock()
    return workload, {
        "setup_s": hostspeed.over(ended - _started, _started, ended),
        "setup_net_s": ended - _started,
    }


def measure(inputs):
    workload, setup = setup_role(inputs)
    budget = float(inputs["seconds"])
    min_ops = workload.min_ops
    ops = []
    started = hostspeed.net_clock()
    while len(ops) < min_ops or hostspeed.net_clock() - started < budget:
        ops.append(workload.run_op(len(ops)))
        if not ops[-1].ok:
            break
    hostspeed.stop()
    problems = workload.finish(ops)
    return {
        **setup,
        "peak_rss_mb": _peak_rss_mb(),
        "ops": [op.as_dict() for op in ops],
        "stages": [row for op in ops[: workload.cycle] for row in op.stages],
        "tp": [sum(op.tp[0] for op in ops[: workload.cycle]),
               sum(op.tp[1] for op in ops[: workload.cycle])],
        "problems": problems,
    }


def trace(inputs):
    from workloads import WORKLOADS

    import tracing

    cls = WORKLOADS[inputs["workload"]]
    ops = cls.trace_ops
    untraced = cls(inputs)
    untraced.setup()
    for index in range(ops):
        untraced.run_op(index)  # warm-up: the traced round runs warm too
    plain = [untraced.run_op(index) for index in range(ops)]
    del untraced
    return tracing.traced_run(cls, inputs, ops, plain)


def main(argv) -> int:
    role, raw = argv[1], argv[2]
    inputs = json.loads(raw)
    if role == "setup":
        _workload, setup = setup_role(inputs)
        hostspeed.stop()
        out = dict(setup, peak_rss_mb=_peak_rss_mb())
    elif role == "measure":
        out = measure(inputs)
    elif role == "trace":
        out = trace(inputs)
    else:
        raise SystemExit(f"unknown role {role!r}")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
