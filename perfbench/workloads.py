"""The four benchmark workloads: set-up, one operation, output checks.

Each workload object is built in a fresh worker process from the inputs
the runner generated.  ``setup()`` is the timed set-up; ``run_op(i)`` runs
the ``i``-th operation (one experiment or one replay) and returns an
:class:`Op`; ``finish(ops)`` runs the checks that need every operation
(reference comparators, determinism across repeats) and returns a list of
failure messages.  Nothing here times layers: that is ``tracing.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Dict, List

import hostspeed

from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.internet.churn import ChurnConfig
from repro.net.prefix import Prefix
from repro.perf import COUNTERS
from repro.topology.generator import GeneratorConfig

#: Every wall and latency below is net of the host-speed probe's time.
clock = hostspeed.net_clock

#: Seed-pinned outcome of the 1000-AS scenario (``hijack-1k`` at seed 11).
HIJACK_1K_PINS = {
    "detection_delay": 44.05279270905288,
    "total_time": 234.99878615983994,
    "events_processed": 98739,
    "updates_processed": 32120,
}

#: World seed every ``taxonomy-warm`` run forks from.
TAXONOMY_WORLD_SEED = 11

#: When the last event was handed to ``DetectionService.handle_event``
#: (``operator-replay``'s latency stamp; a worker runs one workload).
_HANDED = [0.0]


def stamp_detection_handoffs() -> None:
    """Record the instant each event is handed to
    ``DetectionService.handle_event`` in ``_HANDED`` (idempotent)."""
    from repro.core.detection import DetectionService

    if getattr(DetectionService.handle_event, "_stamps", False):
        return
    handle_event = DetectionService.handle_event

    def stamped(service, event):
        _HANDED[0] = clock()
        return handle_event(service, event)

    stamped.__name__ = handle_event.__name__
    stamped._stamps = True
    DetectionService.handle_event = stamped


#: The last attack launch (the instant phase 1 or the warm restore
#: returned) and the first phase-2 detection wait to end after it.
_LAUNCH = {"at": None, "detected": None}


def mark_launches() -> None:
    """Record in ``_LAUNCH`` when each experiment launches its attack and
    when it first stops waiting for an alert (idempotent)."""
    from repro.testbed.scenario import HijackExperiment

    def launched(method):
        def wrapper(experiment, *args, **kwargs):
            out = method(experiment, *args, **kwargs)
            _LAUNCH["at"], _LAUNCH["detected"] = clock(), None
            hostspeed.dense(True)
            return out

        return wrapper

    def waited(method):
        def wrapper(experiment, *args, **kwargs):
            out = method(experiment, *args, **kwargs)
            if _LAUNCH["detected"] is None:
                _LAUNCH["detected"] = clock()
                hostspeed.dense(False)
            return out

        return wrapper

    for name, wrap in (
        ("run_phase1", launched), ("_warm_restore", launched), ("_run_until", waited),
    ):
        method = getattr(HijackExperiment, name)
        if not getattr(method, "_marks", False):
            wrapped = functools.wraps(method)(wrap(method))
            wrapped._marks = True
            setattr(HijackExperiment, name, wrapped)


class Op:
    """What one operation produced."""

    __slots__ = (
        "wall", "ok", "why", "events", "alerts", "latencies", "stages", "tp",
        "digest", "phases", "slot", "started",
    )

    def __init__(self, started: float, events: int):
        #: Net clock instant the operation started, and its net wall.
        self.started = started
        self.wall = clock() - started
        #: Which unit of work this is: repeats of one slot do identical work.
        self.slot = 0
        self.events = events
        self.ok = True
        self.why: List[str] = []
        #: Incidents the program raised.
        self.alerts = 0
        #: Alert latencies: (net seconds, net clock instant of the alert).
        self.latencies: List[tuple] = []
        #: (detect, mitigate, recover, total) in sim seconds, per incident.
        self.stages: List[tuple] = []
        #: (incidents whose first alert carried the expected rule, incidents)
        self.tp = (0, 0)
        self.digest = ""
        #: Host seconds per experiment phase (simulator workloads only).
        self.phases: Dict[str, float] = {}

    def fail(self, why: str) -> None:
        self.ok = False
        self.why.append(why)

    def as_dict(self) -> Dict:
        """The operation as a measuring worker reports it: wall and
        latencies in reference seconds (see ``hostspeed``)."""
        ended = self.started + self.wall
        return {
            "wall": hostspeed.over(self.wall, self.started, ended),
            "net_wall": self.wall,
            "slot": self.slot,
            "latencies": [
                hostspeed.over(net, at - net, at) for net, at in self.latencies
            ],
            "ok": self.ok,
            "why": self.why[:5],
            "events": self.events,
            "alerts": self.alerts,
            "tp": list(self.tp),
            "digest": self.digest,
        }


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


# ------------------------------------------------------------------ hijacks


def scale_config():
    """The pinned 1000-AS scenario (10 tier-1, 110 tier-2, 880 stubs)."""
    from repro.testbed.scenario import ScenarioConfig

    return ScenarioConfig(
        seed=11,
        topology=GeneratorConfig(num_tier1=10, num_tier2=110, num_stubs=880),
        churn=ChurnConfig(pool_size=40, event_rate=0.25),
        churn_warmup=120.0,
        monitors=dict(
            num_ris_vantages=20,
            num_bgpmon_vantages=12,
            num_lgs=12,
            lg_poll_interval=60.0,
            num_batch_vantages=12,
        ),
    )


def _small_world(**overrides):
    from repro.eval.taxonomy import default_params

    return default_params(**overrides)


def _run_experiment(experiment, expected: str, label: str):
    """Time ``experiment.run()`` and check it; returns (op, result, updates)."""
    events, updates = COUNTERS.events_processed, COUNTERS.updates_processed
    started = clock()
    result = experiment.run()
    op = Op(started, COUNTERS.events_processed - events)
    # The simulator's alert latency: host time from launching the attack
    # to the end of the first wait for an alert.
    detected = _LAUNCH["detected"]
    if detected is not None:
        op.latencies = [(detected - _LAUNCH["at"], detected)]
    op.alerts = len(experiment.artemis.alerts)
    op.phases = dict(experiment.phase_walls)
    row = (
        result.detection_delay,
        result.announce_delay,
        result.completion_delay,
        result.total_time,
    )
    if None in row:
        op.fail(f"{label}: not detected and mitigated")
    else:
        op.stages.append(row)
    hit = result.alert_type == expected
    op.tp = (int(hit), 1)
    if not hit:
        op.fail(f"{label}: first alert {result.alert_type}, expected {expected}")
    op.digest = _digest(result.to_dict())
    return op, result, COUNTERS.updates_processed - updates


class Workload:
    """Run settings shared by every workload (overridden per class).

    A run repeats every operation (one experiment, one replay) at least
    twice, in one process or once in each of ``processes`` processes, so
    each alert's latency can be taken from its fastest repeat.
    """

    name = ""
    #: Fresh-process set-ups per run, the measuring processes' included.
    setup_samples = 5
    #: Measuring processes per run (each sets up, then runs operations).
    processes = 1
    #: Operations each measuring process completes whatever the budget.
    min_ops = 1
    #: Operations per traced run.
    trace_ops = 1

    def __init__(self, inputs: Dict):
        self.size = inputs["size"]

    @property
    def cycle(self) -> int:
        """Leading operations whose sim-time stages and accuracy count
        (later ones repeat them)."""
        return 1

    def finish(self, ops: List[Op]) -> List[str]:
        """Checks over all of a process's operations (may fail some);
        returns run-level problems."""
        _agree(ops)
        return []


class Hijack1k(Workload):
    """One cold three-phase experiment per operation, pinned scenario.

    Each operation runs in its own process, so every experiment starts
    from the same cold heap.
    """

    name = "hijack-1k"
    processes = 3

    def __init__(self, inputs: Dict):
        super().__init__(inputs)
        self.next = None

    def config(self):
        from repro.testbed.scenario import ScenarioConfig

        if self.size == "full":
            return scale_config()
        return ScenarioConfig(seed=11, **_small_world())

    def _prepare(self) -> None:
        from repro.testbed.scenario import HijackExperiment

        mark_launches()
        self.next = HijackExperiment(self.config())
        self.next.setup()

    def setup(self) -> None:
        self._prepare()

    def run_op(self, index: int) -> Op:
        if self.next is None:
            self._prepare()
        experiment, self.next = self.next, None
        op, result, updates = _run_experiment(experiment, "exact-origin", "hijack")
        if self.size == "full":
            observed = {
                "detection_delay": result.detection_delay,
                "total_time": result.total_time,
                "events_processed": op.events,
                "updates_processed": updates,
            }
            for key, pinned in HIJACK_1K_PINS.items():
                if observed[key] != pinned:
                    op.fail(f"{key} {observed[key]!r} != pinned {pinned!r}")
        return op


def _agree(ops: List[Op]) -> None:
    """Every repeat of an operation must reproduce the first one's output."""
    for op in ops[1:]:
        if op.digest != ops[0].digest:
            op.fail("output differs from the first operation's")


class TaxonomyWarm(Workload):
    """Run seeds x the six taxonomy classes, each forked from a checkpoint."""

    name = "taxonomy-warm"
    trace_ops = 12

    def __init__(self, inputs: Dict):
        super().__init__(inputs)
        count = 15 if self.size == "full" else 1
        self.run_seeds = [inputs["seed"] * 1000 + k + 1 for k in range(count)]
        self.checkpoints: Dict[str, object] = {}
        self.first_cycle: Dict[int, str] = {}

    def params(self) -> Dict:
        if self.size == "full":
            # The standard ~120-AS bench world, churn-free.
            return _small_world(
                topology=GeneratorConfig(num_tier1=5, num_tier2=25, num_stubs=90)
            )
        return _small_world()

    @property
    def plan(self) -> List[tuple]:
        from repro.eval.taxonomy import TAXONOMY

        return [(seed, cls) for seed in self.run_seeds for cls in TAXONOMY]

    @property
    def cycle(self) -> int:
        return len(self.plan)

    @property
    def min_ops(self) -> int:
        return 2 * self.cycle

    def setup(self) -> None:
        from repro.eval.taxonomy import TAXONOMY
        from repro.testbed.checkpoint import Checkpoint, pin_checkpoints
        from repro.testbed.scenario import ScenarioConfig

        mark_launches()
        for cls in TAXONOMY:
            config = ScenarioConfig(
                seed=TAXONOMY_WORLD_SEED,
                world_seed=TAXONOMY_WORLD_SEED,
                hijack_type=cls,
                **self.params(),
            )
            self.checkpoints[cls] = Checkpoint.capture(config)
        # What warm-start sweeps do: keep the six converged worlds
        # out of every later garbage-collector pass.
        pin_checkpoints()
        hostspeed.dense(False)  # each capture's phase 1 "launched" it

    def run_op(self, index: int) -> Op:
        from repro.eval.taxonomy import TAXONOMY
        from repro.testbed.scenario import HijackExperiment, ScenarioConfig

        plan = self.plan
        seed, cls = plan[index % len(plan)]
        config = ScenarioConfig(
            seed=seed,
            world_seed=TAXONOMY_WORLD_SEED,
            hijack_type=cls,
            checkpoint=self.checkpoints[cls],
            **self.params(),
        )
        op, _result, _updates = _run_experiment(
            HijackExperiment(config), TAXONOMY[cls], f"{cls}@{seed}"
        )
        slot = op.slot = index % len(plan)
        if index >= len(plan) and self.first_cycle.get(slot) != op.digest:
            op.fail(f"{cls}@{seed}: repeat differs from the first run")
        self.first_cycle.setdefault(slot, op.digest)
        return op

    def finish(self, ops: List[Op]) -> List[str]:
        return []  # repeats are checked per (seed, class) slot in run_op


# ------------------------------------------------------------------ replays


def _incident_key(alert) -> tuple:
    return (
        alert.type.value, str(alert.owned_prefix),
        str(alert.announced_prefix), alert.offender_asn,
    )


def _expected(manifest: Dict) -> Dict[tuple, Dict]:
    return {
        (row["type"], row["owned"], row["announced"], row["offender"]): row
        for row in manifest["incidents"]
    }


def _replay_stages(op: Op, manifest: Dict, first_alert: Dict[tuple, object],
                   recovered: Dict[tuple, float]) -> None:
    """Stage times per incident from the program's alerts.

    ``first_alert`` maps an incident signature to the first alert that
    carried it; ``recovered`` maps it to the instant every affected
    vantage was back on the legitimate origin.
    """
    hits = 0
    for key, row in _expected(manifest).items():
        alert = first_alert.get(key)
        if alert is None:
            op.fail(f"missed incident {key}")
            continue
        hits += 1
        if alert.detected_at != row["detected_at"]:
            op.fail(f"{key} detected at {alert.detected_at}, expected {row['detected_at']}")
        back = recovered.get(key)
        if back is None:
            op.fail(f"{key} never recovered")
            continue
        op.stages.append(
            (
                alert.detected_at - row["launch"],
                row["announced_at"] - alert.detected_at,
                back - row["announced_at"],
                back - row["launch"],
            )
        )
    op.tp = (hits, len(manifest["incidents"]))


class TenantsReplay(Workload):
    """Synthetic trace through the single-process multi-tenant plane."""

    name = "tenants-replay"
    setup_samples = 3
    min_ops = 3

    def __init__(self, inputs: Dict):
        super().__init__(inputs)
        with open(inputs["manifest"], encoding="utf-8") as handle:
            self.manifest = json.load(handle)
        self.trace_path = inputs["trace"]
        params = self.manifest["params"]
        self.tenants = params["tenants"]
        self.rows = params["rows"]
        self.churn = self.manifest["churn"]
        self.registry = None
        self.tree = None
        self.events: List = []

    def setup(self) -> None:
        from repro.tenants.flattree import FlatPrefixTree
        from repro.tenants.synth import build_synth_registry

        origin_map = {
            Prefix.parse(prefix): origin
            for prefix, origin in self.manifest["watched"]
        }
        self.registry = build_synth_registry(origin_map, self.tenants, self.rows)
        self.tree = FlatPrefixTree(self.registry)

    def churn_config(self, number: int) -> ArtemisConfig:
        from gen import churn_prefix

        rows = self.churn["rows"]
        return ArtemisConfig(
            [
                OwnedPrefix(churn_prefix(number, row, rows), [self.churn["origin"]])
                for row in range(rows)
            ],
            detect_path=False,
        )

    def run_op(self, index: int) -> Op:
        from repro.feeds.replay import load_trace
        from repro.tenants.pipeline import DetectionPlane

        stamps: List[float] = []
        latencies: List[tuple] = []
        first_alert: Dict[tuple, object] = {}
        state = {"events": None, "cursor": 0}
        window = 0

        def notify(tenant, alert) -> None:
            now = clock()
            events, cursor = state["events"], state["cursor"]
            founding = alert.evidence[0]
            for position in range(cursor, max(-1, cursor - window - 1), -1):
                if events[position] is founding:
                    latencies.append((now - stamps[position], now))
                    break
            first_alert.setdefault(_incident_key(alert), alert)

        registry = self.registry
        every = self.churn["every"]
        started = clock()
        trace = load_trace(self.trace_path)
        plane = DetectionPlane(registry, tree=self.tree, notify=notify)
        window = plane.queue_capacity
        events = self.events = trace.events
        state["events"] = events
        stamps = [0.0] * len(events)
        ingest = plane.ingest
        next_churn = every
        added = 0
        for position, event in enumerate(events):
            if position == next_churn:
                plane.flush()
                registry.add_tenant(f"churn-{added:04d}", self.churn_config(added))
                if added:
                    registry.remove_tenant(f"churn-{added - 1:04d}")
                added += 1
                next_churn += every
            stamps[position] = clock()
            state["cursor"] = position
            ingest(event)
        plane.flush()
        if added:
            registry.remove_tenant(f"churn-{added - 1:04d}")
        op = Op(started, len(events))
        op.latencies = latencies
        recovered = {
            key: row["recovered_at"] for key, row in _expected(self.manifest).items()
        }
        _replay_stages(op, self.manifest, first_alert, recovered)
        rows = plane.incident_rows()
        op.alerts = len(rows)
        op.digest = _digest(rows)
        if len(latencies) != len(rows):
            op.fail(f"{len(latencies)} alert callbacks for {len(rows)} incidents")
        return op

    def reference_rows(self):
        """The per-tenant ``baseline_services`` comparator, same churn."""
        from repro.feeds.interest import InterestIndex
        from repro.tenants.pipeline import incident_rows
        from repro.tenants.registry import TenantRegistry
        from repro.tenants.synth import baseline_services

        services = baseline_services(self.registry)
        index = InterestIndex()
        for service in services.values():
            index.add(service.handle_event, prefixes=service.config.owned_prefixes)
        events = self.events  # as the last replay loaded them
        every = self.churn["every"]
        lookup = index.lookup
        churned = {}
        for position, event in enumerate(events):
            if position and position % every == 0:
                number = position // every - 1
                name = f"churn-{number:04d}"
                single = TenantRegistry()
                single.add_tenant(name, self.churn_config(number))
                service = baseline_services(single)[name]
                services[name] = service
                churned[name] = index.add(
                    service.handle_event, prefixes=service.config.owned_prefixes
                )
                if number:
                    index.discard(churned.pop(f"churn-{number - 1:04d}"))
            for subscription in lookup(event.prefix):
                subscription.callback(event)
        return incident_rows(
            {name: service.alert_manager for name, service in services.items()}
        )

    def finish(self, ops: List[Op]) -> List[str]:
        reference = _digest(self.reference_rows())
        for op in ops:
            if op.digest != reference:
                op.fail("incidents differ from the baseline_services comparator")
        return []


class OperatorReplay(Workload):
    """Synthetic trace through one operator's ReplaySession, flat-out."""

    name = "operator-replay"
    min_ops = 3

    def __init__(self, inputs: Dict):
        super().__init__(inputs)
        with open(inputs["manifest"], encoding="utf-8") as handle:
            self.manifest = json.load(handle)
        self.trace_path = inputs["trace"]
        self.pins = inputs.get("pins", {})
        self.seed = inputs["seed"]
        self.config = None

    def setup(self) -> None:
        # The operator's set-up: compile the config the trace header carries.
        stamp_detection_handoffs()
        with open(self.trace_path, encoding="utf-8") as handle:
            header = json.loads(handle.readline().split(" ", 1)[1])
        self.config = ArtemisConfig.from_dict(header["config"])

    def run_op(self, index: int) -> Op:
        from repro.feeds.replay import ReplaySession, load_trace

        latencies: List[tuple] = []

        def alerted(_alert) -> None:
            now = clock()
            latencies.append((now - _HANDED[0], now))

        started = clock()
        trace = load_trace(self.trace_path)
        session = ReplaySession(trace)
        session.detection.on_alert(alerted)
        report = session.run()
        op = Op(started, report["records_read"])
        op.latencies = latencies
        op.alerts = len(session.alerts)
        first_alert: Dict[tuple, object] = {}
        for alert in session.alerts:
            first_alert.setdefault(_incident_key(alert), alert)
        if len(session.alerts) != len(self.manifest["incidents"]):
            op.fail(
                f"{len(session.alerts)} alerts for "
                f"{len(self.manifest['incidents'])} incidents"
            )
        # Recovery as the monitoring service saw it: the last flip back to
        # the legitimate origin on the incident's owned prefix.
        back: Dict[str, float] = {}
        origins = {row["owned"]: row["origin"] for row in self.manifest["incidents"]}
        for when, _vantage, owned, origin in session.monitoring.transitions:
            owned = str(owned)
            if origin is not None and origin == origins.get(owned):
                back[owned] = max(back.get(owned, when), when)
        recovered = {}
        for key, row in _expected(self.manifest).items():
            seen = back.get(row["owned"])
            if seen != row["recovered_at"]:
                op.fail(f"{key} recovered at {seen}, expected {row['recovered_at']}")
            recovered[key] = seen
        _replay_stages(op, self.manifest, first_alert, recovered)
        op.digest = report["alert_digest"]
        pinned = self.pins.get(self.size, {}).get(str(self.seed))
        if pinned is not None and op.digest != pinned:
            op.fail(f"alert digest {op.digest} != pinned {pinned}")
        return op

WORKLOADS = {
    cls.name: cls for cls in (Hijack1k, TaxonomyWarm, TenantsReplay, OperatorReplay)
}
