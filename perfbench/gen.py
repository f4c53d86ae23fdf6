"""Seeded synthetic feed traces for the two replay workloads.

Both traces are written only through the public
:class:`repro.feeds.replay.TraceWriter`, so the program under test reads
them with its own ``load_trace`` exactly as it reads a recorded trace.
The same ``(workload, seed, size)`` always produces a byte-identical file.

A trace mixes four kinds of events, all stamped with feed-realistic
observation and delivery times from 48 vantage points on two sources:

* **watched baseline** — every watched /23 (a tenant's live prefix, or
  the operator's owned prefix) announced with its legitimate origin;
* **incidents** — a hijacker announces a watched /23 (exact-origin) or one
  of its /24 halves (sub-prefix), seen by a random subset of vantages;
  after the last hijack delivery the legitimate origin announces both /24
  halves (the de-aggregation mitigation) and every affected vantage
  converges back;
* **padding** (tenants only) — legitimate announcements on the tenants'
  dense padding /24s, so the shared tree resolves real matches;
* **unwatched background** — announcements on prefixes nobody watches.

Background keys ``(prefix, path)`` come from a hot set that repeats and a
cold pool that rarely does, sized so that the distinct-key working set is
several times the plane's verdict-cache bound (see :func:`trace_stats`).
The manifest returned next to the trace carries the ground truth the
benchmark checks against: each incident's launch time, expected alert and
expected recovery instant, plus the tenant churn schedule.
"""

from __future__ import annotations

import inspect
import random
from typing import Dict, List, Tuple

from repro.feeds.events import ANNOUNCE, FeedEvent
from repro.feeds.replay import TraceWriter
from repro.net.prefix import Prefix
from repro.tenants.pipeline import DetectionPlane
from repro.tenants.synth import pad_prefix

#: The plane's default verdict-cache bound, read from its signature so the
#: recorded working-set ratio follows the program if the default moves.
VERDICT_CACHE_BOUND = (
    inspect.signature(DetectionPlane).parameters["verdict_cache_size"].default
)

#: Per workload and size: event-mix parameters.
SIZES: Dict[str, Dict[str, Dict]] = {
    "tenants-replay": {
        "full": dict(
            watched=1000,
            incidents=600,
            tenants=1000,
            rows=100_000,
            baseline_vantages=10,
            affected=(6, 16),
            padding_events=80_000,
            background_events=100_000,
            hot_keys=12_000,
            hot_share_pct=10,
            churn_every=100_000,
            churn_rows=40,
        ),
        "smoke": dict(
            watched=40,
            incidents=20,
            tenants=20,
            rows=400,
            baseline_vantages=10,
            affected=(6, 16),
            padding_events=1_500,
            background_events=2_000,
            hot_keys=200,
            hot_share_pct=20,
            churn_every=700,
            churn_rows=4,
        ),
    },
    "operator-replay": {
        "full": dict(
            watched=1000,
            incidents=1000,
            baseline_vantages=2,
            affected=(2, 4),
            background_events=40_000,
            hot_keys=8_000,
            hot_share_pct=20,
        ),
        "smoke": dict(
            watched=30,
            incidents=30,
            baseline_vantages=3,
            affected=(2, 4),
            background_events=1_500,
            hot_keys=150,
            hot_share_pct=20,
        ),
    },
}

NUM_VANTAGES = 48
TRANSIT = tuple(range(100, 164))
#: Event-time span the incidents are spread over (seconds).
SPAN = 4000.0
#: Origin ASN of the churn tenants' prefixes.
CHURN_ORIGIN = 64000


def vantages() -> List[Tuple[int, str, str]]:
    """(asn, source, collector) of every vantage point."""
    out = []
    for index in range(NUM_VANTAGES):
        if index % 2 == 0:
            out.append((3000 + index, "ris", f"rrc{index % 8:02d}"))
        else:
            out.append((3000 + index, "bgpmon", "bgpmon"))
    return out


def watched_prefix(index: int) -> Prefix:
    """The ``index``-th watched /23 (10.0.0.0/23, 10.0.2.0/23, ...)."""
    return Prefix((10 << 24) + (index << 9), 23, 4)


def legit_origin(index: int) -> int:
    return 20000 + index % 997


def churn_prefix(tenant: int, row: int, rows: int) -> Prefix:
    """Churn tenants' /24s, carved from 100.64.0.0/10."""
    return Prefix((100 << 24) + (64 << 16) + ((tenant * rows + row) << 8), 24, 4)


def background_prefix(index: int) -> Prefix:
    """Unwatched /24s from 192.0.0.0 upward."""
    return Prefix((192 << 24) + (index << 8), 24, 4)


class _Events:
    """Collects events and sorts them into delivery order."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.rows: List[Tuple[float, int, FeedEvent]] = []
        self.vps = vantages()
        #: Transit tails to draw paths from (1-3 distinct hops each).
        self.tails = [
            tuple(rng.sample(TRANSIT, rng.randint(1, 3))) for _ in range(1024)
        ]

    def pick(self, seq):
        return seq[int(self.rng.random() * len(seq))]

    def path(self, vantage: int, origin: int) -> Tuple[int, ...]:
        return (vantage, *self.pick(self.tails), origin)

    def add(self, vp, prefix: Prefix, path, observed: float) -> float:
        asn, source, collector = vp
        low, high = (1.0, 8.0) if source == "ris" else (3.0, 20.0)
        delivered = observed + low + (high - low) * self.rng.random()
        event = FeedEvent(
            source, collector, asn, ANNOUNCE, prefix, path, observed, delivered
        )
        self.rows.append((delivered, len(self.rows), event))
        return delivered

    def sorted_events(self) -> List[FeedEvent]:
        self.rows.sort(key=lambda row: (row[0], row[1]))
        return [event for _d, _s, event in self.rows]


def _baseline(ev: _Events, watched: int, per_prefix: int) -> None:
    """Each watched /23 announced legitimately by a few vantages early on."""
    rng = ev.rng
    for index in range(watched):
        prefix, origin = watched_prefix(index), legit_origin(index)
        for vp in rng.sample(ev.vps, per_prefix):
            ev.add(vp, prefix, ev.path(vp[0], origin), rng.uniform(0.0, 100.0))


def _incidents(ev: _Events, count: int, watched: int, affected_range) -> List[Dict]:
    """Hijack + mitigation + recovery episodes, one per watched prefix."""
    rng = ev.rng
    victims = rng.sample(range(watched), count)
    out = []
    for number, index in enumerate(victims):
        owned = watched_prefix(index)
        origin = legit_origin(index)
        hijacker = 60000 + number
        halves = list(owned.subnets(24))
        exact = rng.random() < 0.5
        half = rng.randrange(2)
        announced = owned if exact else halves[half]
        launch = rng.uniform(200.0, SPAN)
        affected = rng.sample(ev.vps, rng.randint(*affected_range))
        first = None
        last = launch
        for vp in affected:
            delivered = ev.add(
                vp, announced, ev.path(vp[0], hijacker),
                launch + rng.uniform(0.5, 10.0),
            )
            first = delivered if first is None else min(first, delivered)
            last = max(last, delivered)
        # The legitimate origin de-aggregates once every hijack delivery
        # is in, so no vantage reverts after recovering.
        mitigation = last + rng.uniform(2.0, 10.0)
        announced_at = None
        recovered_at = 0.0
        for vp in affected:
            arrivals = [
                ev.add(
                    vp, sub, ev.path(vp[0], origin),
                    mitigation + rng.uniform(0.5, 10.0),
                )
                for sub in halves
            ]
            seen = min(arrivals)
            announced_at = seen if announced_at is None else min(announced_at, seen)
            back = max(arrivals) if exact else arrivals[half]
            recovered_at = max(recovered_at, back)
        out.append(
            {
                "owned": str(owned),
                "announced": str(announced),
                "type": "exact-origin" if exact else "sub-prefix",
                "offender": hijacker,
                "origin": origin,
                "launch": launch,
                "detected_at": first,
                "announced_at": announced_at,
                "recovered_at": recovered_at,
            }
        )
    return out


def _key(ev: _Events, prefixes, origins):
    """One random (vantage, prefix, path) key over ``prefixes``."""
    slot = int(ev.rng.random() * len(prefixes))
    vp = ev.pick(ev.vps)
    return vp, prefixes[slot], ev.path(vp[0], origins[slot])


def _stream(ev: _Events, prefixes, origins, events: int, hot: int, hot_pct: int):
    """``events`` unwatched-or-legitimate announcements.

    ``hot_pct`` % of them repeat a hot set of ``hot`` keys (the flapping
    routes every feed is full of).  The rest walk a cold pool of fresh
    keys, three quarters of them new and one quarter revisiting an
    earlier cold key — far enough back that a bounded cache has usually
    evicted it.
    """
    rng = ev.rng
    hot_pool = [_key(ev, prefixes, origins) for _ in range(hot)]
    hot_events = events * hot_pct // 100
    cold = []
    for number in range(events):
        if number < hot_events:
            vp, prefix, path = ev.pick(hot_pool)
        elif not cold or rng.random() < 0.75:
            vp, prefix, path = _key(ev, prefixes, origins)
            cold.append((vp, prefix, path))
        else:
            vp, prefix, path = ev.pick(cold)
        ev.add(vp, prefix, path, rng.uniform(0.0, SPAN + 60.0))


def generate(workload: str, seed: int, size: str, path: str) -> Dict:
    """Write the workload's trace to ``path``; return its manifest."""
    params = SIZES[workload][size]
    rng = random.Random(f"{workload}:{seed}:{size}")
    ev = _Events(rng)
    watched = params["watched"]
    _baseline(ev, watched, params["baseline_vantages"])
    incidents = _incidents(ev, params["incidents"], watched, params["affected"])
    manifest: Dict = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "params": dict(params),
        "incidents": incidents,
        "watched": [
            [str(watched_prefix(i)), legit_origin(i)] for i in range(watched)
        ],
    }
    background = [background_prefix(i) for i in range(20_000)]
    bg_origins = [30000 + i % 2000 for i in range(len(background))]
    if workload == "tenants-replay":
        per_tenant = params["rows"] // params["tenants"]
        pads_per_tenant = per_tenant - 2
        pads = [pad_prefix(i) for i in range(params["tenants"] * pads_per_tenant)]
        pad_origins = [
            64512 + (i // pads_per_tenant) % 64 for i in range(len(pads))
        ]
        # Churn tenants' prefixes see legitimate traffic whether or not
        # the tenant is registered at the time.
        churn_ops = (
            params["padding_events"]
            + params["background_events"]
            + len(ev.rows)
        ) // params["churn_every"]
        churn = [
            churn_prefix(t, r, params["churn_rows"])
            for t in range(churn_ops)
            for r in range(params["churn_rows"])
        ]
        _stream(
            ev,
            pads + churn,
            pad_origins + [CHURN_ORIGIN] * len(churn),
            params["padding_events"],
            params["hot_keys"],
            params["hot_share_pct"],
        )
        manifest["churn"] = {
            "every": params["churn_every"],
            "rows": params["churn_rows"],
            "origin": CHURN_ORIGIN,
        }
        config = None
    else:
        config = operator_config(manifest)
    _stream(
        ev,
        background,
        bg_origins,
        params["background_events"],
        params["hot_keys"],
        params["hot_share_pct"],
    )
    events = ev.sorted_events()
    with open(path, "w", encoding="utf-8") as handle:
        writer = TraceWriter(
            handle, meta={"workload": workload, "seed": seed}, config=config
        )
        for event in events:
            writer.append(event)
        writer.close()
    manifest["stats"] = trace_stats(workload, events, manifest)
    return manifest


def operator_config(manifest: Dict):
    """The single operator's ArtemisConfig: every watched /23 is owned."""
    from repro.core.config import ArtemisConfig, OwnedPrefix

    return ArtemisConfig(
        [
            OwnedPrefix(Prefix.parse(prefix), [origin])
            for prefix, origin in manifest["watched"]
        ]
    )


def trace_stats(workload: str, events: List[FeedEvent], manifest: Dict) -> Dict:
    """The workload properties later performance claims must cite."""
    keys = set()
    watched = 0
    hijack = 0
    incidents = manifest["incidents"]
    offenders = {row["offender"] for row in incidents}
    pad_low = pad_high = 0
    if workload == "tenants-replay":
        params = manifest["params"]
        pads = params["tenants"] * (params["rows"] // params["tenants"] - 2)
        pad_low = pad_prefix(0).value
        pad_high = pad_prefix(pads - 1).value + 256
    for event in events:
        prefix = event.prefix
        keys.add((prefix.ikey, event.as_path))
        if prefix.value >> 24 == 10:
            watched += 1
        elif pad_low <= prefix.value < pad_high:
            watched += 1
        if event.as_path[-1] in offenders:
            hijack += 1
    stats = {
        "events": len(events),
        "distinct_keys": len(keys),
        "verdict_cache_bound": VERDICT_CACHE_BOUND,
        "keys_per_cache_bound": round(len(keys) / VERDICT_CACHE_BOUND, 3),
        "watched_event_share": round(watched / len(events), 4),
        "hijack_event_share": round(hijack / len(events), 4),
        "incidents": len(incidents),
        "owned_prefixes": (
            len(manifest["watched"]) if workload == "operator-replay" else 0
        ),
    }
    if workload == "tenants-replay":
        stats["churn_ops"] = churn_schedule_length(len(events), manifest)
    return stats


def churn_schedule_length(num_events: int, manifest: Dict) -> int:
    """Registry operations one replay performs (adds, removes, final undo)."""
    adds = (num_events - 1) // manifest["churn"]["every"]
    # Every add but the first retires its predecessor, and the last churn
    # tenant is retired at the end of the replay: one removal per add.
    return 2 * adds
