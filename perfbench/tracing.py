"""Per-layer time accounting, recorded from outside the program.

:func:`install` patches spans around the public entry points of each
layer (``Engine.run``, ``DetectionService.handle_event``,
``FlatPrefixTree.resolve``, ...) and wraps every callback handed to
``Engine.schedule_at`` / ``schedule_periodic`` so that engine-dispatched
work is charged to the module that owns the callback.  Spans nest; a
span's *self* time is its duration minus its child spans', so the self
times of all spans plus the time outside every span add up to the traced
wall exactly.

Nothing under ``src/`` is edited: the patches live for one worker process
only.  Callback wrappers are plain picklable objects, so a checkpoint
captured under tracing still deep-copies and forks.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Dict, List

from repro.perf import COUNTERS

_ns = time.perf_counter_ns

#: Open spans: [name, start_ns, child_ns].  One worker traces one thread.
_STACK: List[list] = []
#: Per span name: self nanoseconds, inclusive nanoseconds, calls.
SELF: Dict[str, int] = defaultdict(int)
INCL: Dict[str, int] = defaultdict(int)
CALLS: Dict[str, int] = defaultdict(int)
#: Open spans per name: inclusive time counts only the outermost one, so
#: a recursive entry point (``load_trace`` on a path) is not counted twice.
_DEPTH: Dict[str, int] = defaultdict(int)
#: FlatPrefixTree.resolve calls that matched at least one rule.
RESOLVE_HITS = [0]


def _enter(name: str) -> None:
    _DEPTH[name] += 1
    _STACK.append([name, _ns(), 0])


def _leave() -> None:
    name, start, child = _STACK.pop()
    duration = _ns() - start
    SELF[name] += duration - child
    _DEPTH[name] -= 1
    if not _DEPTH[name]:
        INCL[name] += duration
    CALLS[name] += 1
    if _STACK:
        _STACK[-1][2] += duration


def span(name: str, fn):
    """``fn`` wrapped in a span called ``name``."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        _enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            _leave()

    return traced


#: Module prefix -> span name for engine-dispatched callbacks (first hit).
CALLBACK_OWNERS = (
    ("repro.feeds.replay", "feeds.replay"),
    ("repro.core.detection", "core.detection"),
    ("repro.core.monitoring", "core.monitoring"),
    ("repro.core.mitigation", "core.mitigation"),
    ("repro.internet.tracker", "internet.tracker"),
    ("repro.sim", "sim"),
    ("repro.bgp", "bgp"),
    ("repro.feeds", "feeds"),
    ("repro.core", "core"),
    ("repro.sdn", "sdn"),
    ("repro.internet", "internet"),
    ("repro.testbed", "testbed"),
    ("repro.topology", "topology"),
    ("repro.tenants", "tenants"),
)

_OWNER_CACHE: Dict[object, str] = {}


def owner(callback) -> str:
    """The span name engine dispatch of ``callback`` is charged to."""
    func = getattr(callback, "__func__", callback)
    name = _OWNER_CACHE.get(func)
    if name is None:
        module = getattr(func, "__module__", None) or type(func).__module__
        name = next(
            (span_name for prefix, span_name in CALLBACK_OWNERS
             if module == prefix or module.startswith(prefix + ".")),
            "other",
        )
        _OWNER_CACHE[func] = name
    return name


class Owned:
    """An engine callback charged to its owning layer when it fires."""

    __slots__ = ("fn", "name")

    def __init__(self, fn, name: str):
        self.fn = fn
        self.name = name

    def __call__(self, *args):
        _enter(self.name)
        try:
            return self.fn(*args)
        finally:
            _leave()

    def __reduce__(self):
        return (Owned, (self.fn, self.name))


#: (module, class or None, attribute, span name) for every patched entry.
ENTRY_POINTS = (
    ("repro.sim.engine", "Engine", "run", "sim"),
    ("repro.sim.engine", "Engine", "step", "sim"),
    ("repro.sim.engine", "Engine", "peek_time", "sim"),
    ("repro.bgp.speaker", "BGPSpeaker", "deliver", "bgp"),
    ("repro.testbed.scenario", "HijackExperiment", "setup", "testbed.setup"),
    ("repro.testbed.scenario", "HijackExperiment", "run_phase1", "testbed.phase1"),
    ("repro.testbed.scenario", "HijackExperiment", "run", "testbed.run"),
    ("repro.testbed.checkpoint", "Checkpoint", "capture", "testbed.capture"),
    ("repro.testbed.checkpoint", "Checkpoint", "fork", "testbed.fork"),
    ("repro.testbed.checkpoint", None, "pin_checkpoints", "testbed.capture"),
    ("repro.topology.cache", None, "generate_internet", "topology"),
    ("repro.feeds.periscope", "LookingGlass", "query", "feeds.lg"),
    ("repro.feeds.replay", None, "load_trace", "feeds.replay.parse"),
    ("repro.feeds.replay", "ReplaySession", "__init__", "feeds.replay.session"),
    ("repro.feeds.replay", "ReplayTap", "run", "feeds.replay.tap"),
    ("repro.internet.tracker", "OriginTracker", "_on_change", "internet.tracker"),
    ("repro.internet.tracker", "OriginTracker", "all_route_to", "internet.tracker"),
    ("repro.internet.tracker", "OriginTracker", "first_time_all_route_to", "internet.tracker"),
    ("repro.internet.tracker", "OriginTracker", "fraction_series", "internet.tracker"),
    ("repro.internet.tracker", "OriginTracker", "fraction_routing_to", "internet.tracker"),
    ("repro.internet.tracker", "OriginTracker", "origin_map", "internet.tracker"),
    ("repro.core.detection", "DetectionService", "handle_event", "core.detection"),
    ("repro.core.monitoring", "MonitoringService", "handle_event", "core.monitoring"),
    ("repro.core.mitigation", "MitigationService", "plan", "core.mitigation"),
    ("repro.core.mitigation", "MitigationService", "execute", "core.mitigation"),
    ("repro.core.mitigation", "MitigationService", "rollback", "core.mitigation"),
    ("repro.sdn.controller", "BGPController", "announce_prefix", "sdn.op"),
    ("repro.sdn.controller", "BGPController", "withdraw_prefix", "sdn.op"),
    ("repro.tenants.synth", None, "build_synth_registry", "tenants.registry"),
    ("repro.tenants.registry", "TenantRegistry", "add_tenant", "tenants.registry"),
    ("repro.tenants.registry", "TenantRegistry", "remove_tenant", "tenants.registry"),
    ("repro.tenants.flattree", "FlatPrefixTree", "__init__", "tenants.tree_build"),
    ("repro.tenants.flattree", "FlatPrefixTree", "insert_rules", "tenants.tree"),
    ("repro.tenants.flattree", "FlatPrefixTree", "remove_rules", "tenants.tree"),
    ("repro.tenants.pipeline", "DetectionPlane", "ingest", "tenants.ingest"),
    ("repro.tenants.pipeline", "DetectionPlane", "flush", "tenants.ingest"),
    ("repro.tenants.pipeline", None, "classify_batch_verdicts", "tenants.classify"),
)


def _patch(owner_obj, attribute: str, name: str) -> None:
    raw = owner_obj.__dict__[attribute] if isinstance(owner_obj, type) else None
    if isinstance(raw, classmethod):
        setattr(owner_obj, attribute, classmethod(span(name, raw.__func__)))
    else:
        setattr(owner_obj, attribute, span(name, getattr(owner_obj, attribute)))


def _patch_resolve(tree_cls) -> None:
    resolve = tree_cls.resolve

    @functools.wraps(resolve)
    def traced(self, prefix):
        _enter("tenants.resolve")
        try:
            matches = resolve(self, prefix)
        finally:
            _leave()
        if matches:
            RESOLVE_HITS[0] += 1
        return matches

    tree_cls.resolve = traced


def _patch_engine(engine_cls) -> None:
    schedule_at = engine_cls.schedule_at
    schedule_periodic = engine_cls.schedule_periodic

    def wrap(callback):
        return callback if type(callback) is Owned else Owned(callback, owner(callback))

    @functools.wraps(schedule_at)
    def traced_at(self, when, callback, *args):
        return schedule_at(self, when, wrap(callback), *args)

    @functools.wraps(schedule_periodic)
    def traced_periodic(self, interval, callback, *args, **kwargs):
        return schedule_periodic(self, interval, wrap(callback), *args, **kwargs)

    engine_cls.schedule_at = traced_at
    engine_cls.schedule_periodic = traced_periodic


def install() -> None:
    """Patch every entry point (once per process) and zero the tallies."""
    for module_name, class_name, attribute, name in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        target = getattr(module, class_name) if class_name else module
        _patch(target, attribute, name)
    _patch_resolve(importlib.import_module("repro.tenants.flattree").FlatPrefixTree)
    _patch_engine(importlib.import_module("repro.sim.engine").Engine)
    reset()


def reset() -> None:
    _STACK.clear()
    SELF.clear()
    INCL.clear()
    CALLS.clear()
    _DEPTH.clear()
    RESOLVE_HITS[0] = 0


# ----------------------------------------------------------------- metrics

#: Layer -> the per-layer metric that carries its self time.  The values
#: of these metrics plus ``trace.unattributed_s`` sum to ``trace.wall_s``.
LAYER_SELF = {
    "sim": "sim.self_s",
    "bgp": "bgp.self_s",
    "testbed": "testbed.self_s",
    "topology": "topology.generate_s",
    "feeds": "feeds.self_s",
    "feeds.replay": "feeds.replay.self_s",
    "internet": "internet.self_s",
    "core": "core.self_s",
    "sdn": "sdn.controller_s",
    "tenants": "tenants.self_s",
    "other": "other.self_s",
}


def layer_of(name: str) -> str:
    if name.startswith("feeds.replay"):
        return "feeds.replay"
    head = name.split(".", 1)[0]
    return head if head in LAYER_SELF else "other"


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(wall_ns: int, ops, setup_self: Dict[str, int],
                  setup_incl: Dict[str, int]) -> Dict[str, float]:
    """Every per-layer metric, from the tallies and ``repro.perf`` counters."""
    s = lambda ns: ns / 1e9  # noqa: E731
    c = COUNTERS
    out: Dict[str, float] = {name: 0.0 for name in LAYER_SELF.values()}
    for name, ns in SELF.items():
        out[LAYER_SELF[layer_of(name)]] += s(ns)
    attributed = sum(out.values())
    wall = s(wall_ns)
    phases = defaultdict(float)
    for op in ops:
        for phase, seconds in op.phases.items():
            phases[phase] += seconds
    built = c.announcements_built
    reused = c.announcements_reused
    fast, full = c.decision_fast_path, c.decision_full_scans
    misses = CALLS["tenants.classify"]
    out.update(
        {
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - attributed,
            "trace.attributed_share": _share(attributed, wall),
            "sim.events_dispatched": c.events_processed,
            "sim.cancelled_share": _share(c.events_cancelled, c.events_scheduled),
            "bgp.updates_processed": c.updates_processed,
            "bgp.flushes_run": c.flushes_run,
            "bgp.export_reuse_share": _share(reused, built + reused),
            "bgp.decision_fast_share": _share(fast, fast + full),
            "testbed.setup_s": s(INCL["testbed.setup"]),
            "testbed.phase1_s": s(INCL["testbed.phase1"]),
            "testbed.phase2_s": phases["phase2"],
            "testbed.phase3_s": phases["phase3"],
            "testbed.restore_s": phases["restore"],
            "testbed.checkpoint_capture_s": s(INCL["testbed.capture"]),
            "testbed.checkpoint_fork_s": s(INCL["testbed.fork"]),
            "testbed.cow_forks": c.cow_row_forks + c.cow_table_forks,
            "feeds.events_delivered": (
                CALLS["core.detection"] + c.pipeline_events_ingested
            ),
            "feeds.lg_queries": CALLS["feeds.lg"],
            "feeds.replay.parse_s": s(INCL["feeds.replay.parse"]),
            "feeds.replay.tap_self_s": s(SELF["feeds.replay.tap"]),
            "feeds.interest_pass_share": (
                _share(c.replay_events_delivered, c.replay_records_read)
                if c.replay_records_read
                else _share(RESOLVE_HITS[0], CALLS["tenants.resolve"])
            ),
            "internet.tracker_s": s(SELF["internet.tracker"]),
            "core.detection_s": s(SELF["core.detection"]),
            "core.monitoring_s": s(SELF["core.monitoring"]),
            "core.mitigation_s": s(SELF["core.mitigation"]),
            "core.alerts": sum(op.alerts for op in ops),
            "core.duplicate_evidence_skipped": c.duplicate_evidence_skipped,
            "core.detection_state_entries_peak": c.detection_state_entries,
            "sdn.ops": CALLS["sdn.op"],
            "tenants.registry_compile_s": s(setup_self.get("tenants.registry", 0)),
            "tenants.tree_build_s": s(INCL["tenants.tree_build"]),
            "tenants.ingest_s": s(SELF["tenants.ingest"]),
            "tenants.resolve_s": s(SELF["tenants.resolve"]),
            "tenants.resolve_calls": CALLS["tenants.resolve"],
            "tenants.classify_s": s(SELF["tenants.classify"]),
            "tenants.verdict_cache_hit_share": _share(
                c.verdict_cache_hits, c.verdict_cache_hits + misses
            ),
            "tenants.verdict_cache_evictions": c.verdict_cache_evictions,
            "tenants.churn_s": s(
                INCL["tenants.registry"] - setup_incl.get("tenants.registry", 0)
            ),
            "tenants.queue_depth_peak": c.pipeline_queue_depth_peak,
            "tenants.backpressure_stalls": c.pipeline_backpressure_stalls,
            "tenants.notifier_dropped": c.notifier_alerts_dropped,
            "tenants.tree_bytes": c.tree_bytes,
        }
    )
    return out


def traced_run(cls, inputs: Dict, count: int, plain) -> Dict:
    """Set up and run ``count`` operations of ``cls`` under tracing.

    ``plain`` are the same operations run untraced (after a warm-up
    round) in this process just before; their wall against the traced
    ones is the tracing overhead.
    """
    install()
    COUNTERS.reset()
    started = _ns()
    workload = cls(inputs)
    workload.setup()
    setup_ns = _ns() - started
    setup_self, setup_incl = dict(SELF), dict(INCL)
    ops = [workload.run_op(i) for i in range(count)]
    # The traced wall is set-up plus each operation's timed part: the
    # output checks that follow an operation are the benchmark's own work
    # and call no traced entry point.
    wall_ns = setup_ns + int(sum(op.wall for op in ops) * 1e9)
    metrics = layer_metrics(wall_ns, ops, setup_self, setup_incl)
    problems = workload.finish(list(plain) + ops)
    traced_ops = sum(op.wall for op in ops)
    untraced_ops = sum(op.wall for op in plain)
    metrics["trace.overhead_s"] = traced_ops - untraced_ops
    metrics["trace.overhead_share"] = _share(traced_ops - untraced_ops, untraced_ops)
    failures = [why for op in list(plain) + ops for why in op.why] + problems
    return {
        "metrics": metrics,
        "ops": len(plain) + len(ops),
        "failed": sum(1 for op in list(plain) + ops if not op.ok),
        "problems": failures[:10],
        "untraced_ops_s": untraced_ops,
        "traced_ops_s": traced_ops,
    }
