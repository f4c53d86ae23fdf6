"""The multi-tenant detection plane (repro.tenants).

Contracts under test (see DESIGN.md "Detection plane"):

* the registry compiles ArtemisConfig ground truth into interned rows;
* the shared prefix tree resolves one covering walk into per-tenant
  matches — most specific rule per tenant, deterministic tenant order,
  incremental add/remove with epoch bumps;
* the batched pipeline produces byte-identical incidents to the naive
  per-tenant DetectionService fan-out, for any batch size, with the
  memo/backpressure/notifier/autoignore counters visible in repro.perf;
* incidents are keyed per tenant: cooldown, resurrection, and the
  duplicate-delivery founding gate apply independently per tenant even
  when the same (prefix, origin) pattern fires under two tenants;
* resolved-incident bookkeeping is pruned after cooldown + retention in
  both the plane and the single-tenant DetectionService (bounded soaks);
* the --detect-workers partitioning merges to a digest bit-identical to
  the single-process plane, even when one monitored prefix's sub-prefix
  announcements split across workers, and a worker that raises or dies
  is a typed TenantWorkerError, never a silent wrong answer.
"""

from __future__ import annotations

import os

import pytest

from repro.core.alerts import AlertStatus, AlertType
from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.core.detection import DetectionService
from repro.feeds.events import FeedEvent
from repro.feeds.replay import TraceWriter, load_trace
from repro.net.prefix import Prefix
from repro.perf import COUNTERS
from repro.tenants import (
    DetectionPlane,
    PrefixTree,
    TenantRegistry,
    TenantRule,
    TenantWorkerError,
    incident_rows,
    merged_alert_digest,
    run_partitioned,
)
from repro.tenants.pipeline import PRUNE_CHECK_INTERVAL, classify_batch_verdicts
from repro.tenants.synth import (
    baseline_services,
    build_synth_registry,
    observed_origin_map,
    pad_prefix,
)


def make_event(
    delivered,
    prefix,
    path,
    source="ris",
    collector="rrc00",
    vantage=100,
    kind="A",
    observed=None,
):
    return FeedEvent(
        source=source,
        collector=collector,
        vantage_asn=vantage,
        kind=kind,
        prefix=Prefix.parse(prefix),
        as_path=path,
        observed_at=delivered - 0.5 if observed is None else observed,
        delivered_at=delivered,
    )


def two_tenant_registry(cooldown_a=5.0, cooldown_b=20.0):
    """acme owns 10.0.0.0/23 (with upstreams), beta owns 10.0.0.0/24."""
    registry = TenantRegistry()
    registry.add_tenant(
        "acme",
        ArtemisConfig(
            [OwnedPrefix("10.0.0.0/23", [65001], [64600])],
            alert_cooldown=cooldown_a,
        ),
    )
    registry.add_tenant(
        "beta",
        ArtemisConfig(
            [OwnedPrefix("10.0.0.0/24", [65002])], alert_cooldown=cooldown_b
        ),
    )
    return registry


# ---------------------------------------------------------------- registry


class TestTenantRegistry:
    def test_compiles_and_interns_rows(self):
        registry = TenantRegistry()
        config = ArtemisConfig(
            [
                OwnedPrefix("10.0.0.0/24", [65001]),
                OwnedPrefix("10.0.1.0/24", [65001]),
            ]
        )
        rows = registry.add_tenant("acme", config)
        assert len(rows) == 2
        # Identical origin sets are interned to the same object.
        assert rows[0].legit_origins is rows[1].legit_origins
        assert registry.num_rules == 2
        assert "acme" in registry and len(registry) == 1

    def test_identical_policy_rows_shared_across_tenants(self):
        registry = TenantRegistry()
        for name in ("a", "b"):
            registry.add_tenant(
                name, ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65001])])
            )
        rule_a = registry.rules_for("a")[0]
        rule_b = registry.rules_for("b")[0]
        assert rule_a.legit_origins is rule_b.legit_origins

    def test_duplicate_tenant_rejected(self):
        registry = TenantRegistry()
        registry.add_tenant("acme", ArtemisConfig([OwnedPrefix("10.0.0.0/24", [1])]))
        with pytest.raises(Exception, match="already registered"):
            registry.add_tenant(
                "acme", ArtemisConfig([OwnedPrefix("10.1.0.0/24", [2])])
            )

    def test_remove_unknown_tenant_rejected(self):
        with pytest.raises(Exception, match="no tenant"):
            TenantRegistry().remove_tenant("ghost")

    def test_monitored_prefixes_distinct_and_sorted(self):
        registry = two_tenant_registry()
        registry.add_tenant(
            "gamma", ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65009])])
        )
        monitored = registry.monitored_prefixes()
        assert monitored == sorted(set(monitored), key=lambda p: p.sort_key)
        assert len(monitored) == 2  # /23 and /24, the duplicate collapsed


# ------------------------------------------------------------- prefix tree


class TestPrefixTree:
    def test_resolve_exact_and_covering(self):
        tree = PrefixTree(two_tenant_registry())
        matches = tree.resolve(Prefix.parse("10.0.0.0/24"))
        assert [(r.tenant, exact) for r, exact in matches] == [
            ("acme", False),
            ("beta", True),
        ]

    def test_resolve_most_specific_rule_per_tenant(self):
        registry = TenantRegistry()
        registry.add_tenant(
            "acme",
            ArtemisConfig(
                [
                    OwnedPrefix("10.0.0.0/16", [65001]),
                    OwnedPrefix("10.0.0.0/24", [65002]),
                ]
            ),
        )
        tree = PrefixTree(registry)
        matches = tree.resolve(Prefix.parse("10.0.0.128/25"))
        assert len(matches) == 1
        rule, exact = matches[0]
        assert str(rule.prefix) == "10.0.0.0/24" and not exact
        assert rule.legit_origins == frozenset([65002])

    def test_resolve_misses_outside_monitored_space(self):
        tree = PrefixTree(two_tenant_registry())
        assert tree.resolve(Prefix.parse("192.168.0.0/24")) == []
        # A covering (less specific) announcement matches nothing either —
        # sub-prefix detection is strictly more-specific, as in the engine.
        assert tree.resolve(Prefix.parse("10.0.0.0/16")) == []

    def test_incremental_add_remove_with_epochs(self):
        registry = two_tenant_registry()
        tree = PrefixTree(registry)
        epoch = tree.epoch
        registry.add_tenant(
            "gamma", ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65009])])
        )
        assert tree.epoch == epoch + 1
        assert tree.tenants_at(Prefix.parse("10.0.0.0/24")) == ["beta", "gamma"]
        registry.remove_tenant("beta")
        assert tree.epoch == epoch + 2
        assert tree.tenants_at(Prefix.parse("10.0.0.0/24")) == ["gamma"]
        matches = tree.resolve(Prefix.parse("10.0.0.0/24"))
        assert {r.tenant for r, _ in matches} == {"acme", "gamma"}

    def test_remove_unknown_rule_is_loud(self):
        registry = two_tenant_registry()
        tree = PrefixTree(registry)
        rule = registry.rules_for("acme")[0]
        tree.remove_rules([rule])
        with pytest.raises(KeyError):
            tree.remove_rules([rule])

    def test_resolve_batch_dedups(self):
        tree = PrefixTree(two_tenant_registry())
        COUNTERS.reset()
        prefix = Prefix.parse("10.0.0.0/24")
        out = tree.resolve_batch([prefix, prefix, prefix])
        assert COUNTERS.pipeline_trie_walks == 1
        assert len(out[prefix]) == 2


# ------------------------------------------------------------ batch verdicts


class TestClassifyBatchVerdicts:
    def test_mirrors_engine_classification(self):
        registry = two_tenant_registry()
        tree = PrefixTree(registry)
        prefix = Prefix.parse("10.0.0.0/24")
        matches = tree.resolve(prefix)
        verdicts = classify_batch_verdicts(matches, prefix, (3, 7, 666), 3)
        assert [(r.tenant, t) for r, t, _ in verdicts] == [
            ("acme", AlertType.SUB_PREFIX),
            ("beta", AlertType.EXACT_ORIGIN),
        ]
        # Legit origin for beta, sub-prefix for acme; acme's path rule does
        # not apply to the covering match with a foreign origin.
        verdicts = classify_batch_verdicts(matches, prefix, (3, 7, 65002), 3)
        assert [(r.tenant, t, o) for r, t, o in verdicts] == [
            ("acme", AlertType.SUB_PREFIX, 65002)
        ]

    def test_path_check_on_exact_match(self):
        registry = two_tenant_registry()
        tree = PrefixTree(registry)
        prefix = Prefix.parse("10.0.0.0/23")
        matches = tree.resolve(prefix)
        verdicts = classify_batch_verdicts(matches, prefix, (3, 9, 65001), 3)
        assert [(r.tenant, t, o) for r, t, o in verdicts] == [
            ("acme", AlertType.PATH, 9)
        ]
        assert (
            classify_batch_verdicts(matches, prefix, (3, 64600, 65001), 3) == ()
        )


# ----------------------------------------------------------------- pipeline


def churny_events():
    """A deterministic stream with benign churn, hijacks, and duplicates."""
    events = []
    t = 0.0
    for round_number in range(30):
        for i, vantage in enumerate((100, 101, 102)):
            t += 0.1
            origin = 65001 if round_number % 5 else 666
            events.append(
                make_event(
                    t, "10.0.0.0/23", (64600, origin), vantage=vantage,
                    source="ris" if i % 2 else "bgpmon",
                )
            )
        if round_number % 7 == 3:
            t += 0.1
            events.append(
                make_event(t, "10.0.0.64/26", (5, 777), vantage=103)
            )
        if round_number == 10:
            events.append(events[-1])  # byte-identical duplicate delivery
    return events


class TestDetectionPlane:
    def test_matches_per_tenant_service_baseline(self):
        registry = two_tenant_registry()
        plane = DetectionPlane(registry, batch_size=16)
        events = churny_events()
        for event in events:
            plane.ingest(event)
        plane.flush()

        services = baseline_services(registry)
        for event in events:
            for service in services.values():
                service.handle_event(event)
        baseline_rows = incident_rows(
            {name: s.alert_manager for name, s in services.items()}
        )
        assert plane.incident_rows() == baseline_rows
        assert plane.digest() == merged_alert_digest(baseline_rows)
        assert plane.total_alerts() > 0

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
    def test_digest_invariant_under_batch_size(self, batch_size):
        registry = two_tenant_registry()
        reference = DetectionPlane(registry, batch_size=16)
        plane = DetectionPlane(registry, batch_size=batch_size)
        for event in churny_events():
            reference.ingest(event)
            plane.ingest(event)
        reference.flush()
        plane.flush()
        assert plane.digest() == reference.digest()

    def test_memo_amortizes_trie_walks(self):
        COUNTERS.reset()
        plane = DetectionPlane(two_tenant_registry(), batch_size=64)
        prefix = "10.0.0.0/23"
        for i in range(64):
            plane.ingest(make_event(float(i), prefix, (64600, 666), vantage=i))
        plane.flush()
        # One walk for the unique prefix; every other event is a memo hit.
        assert COUNTERS.pipeline_trie_walks == 1
        assert COUNTERS.pipeline_memo_hits == 63
        assert COUNTERS.pipeline_batches == 1
        assert COUNTERS.pipeline_events_ingested == 64

    def test_verdict_cache_survives_across_batches(self):
        COUNTERS.reset()
        plane = DetectionPlane(two_tenant_registry(), batch_size=8)
        for i in range(32):
            plane.ingest(
                make_event(float(i), "10.0.0.0/23", (64600, 666), vantage=i)
            )
        plane.flush()
        assert COUNTERS.pipeline_batches == 4
        # One walk and one ladder run EVER; later batches hit the
        # cross-batch cache, not just the per-batch memo.
        assert COUNTERS.pipeline_trie_walks == 1
        assert COUNTERS.verdict_cache_hits == 31
        assert COUNTERS.pipeline_memo_hits == 31
        assert COUNTERS.verdict_cache_evictions == 0

    def test_verdict_cache_bounded_fifo_eviction(self):
        COUNTERS.reset()
        plane = DetectionPlane(
            two_tenant_registry(), batch_size=4, verdict_cache_size=2
        )
        # Four distinct keys through a 2-entry cache: evictions must fire
        # and the plane must still answer correctly.
        for i in range(4):
            plane.ingest(
                make_event(float(i), "10.0.0.0/23", (64600, 700 + i))
            )
        plane.flush()
        assert COUNTERS.verdict_cache_evictions == 2
        assert plane.total_alerts() > 0

    def test_verdict_cache_invalidated_on_rule_change(self):
        COUNTERS.reset()
        registry = two_tenant_registry()
        plane = DetectionPlane(registry, batch_size=4)
        event = make_event(1.0, "10.0.0.0/23", (64600, 666))
        for i in range(4):
            plane.ingest(event)
        hits_before = COUNTERS.verdict_cache_hits
        assert hits_before == 3
        # A tenant change bumps the tree epoch: every cached verdict dies.
        registry.add_tenant(
            "late", ArtemisConfig([OwnedPrefix("10.9.0.0/16", [65009])])
        )
        assert plane.tree.epoch == plane._cache_epoch + 1
        for i in range(4):
            plane.ingest(event)
        # The first post-change event recomputes (a fresh walk), the rest
        # re-hit the rebuilt cache.
        assert COUNTERS.pipeline_trie_walks == 2
        assert COUNTERS.verdict_cache_hits == hits_before + 3

    def test_verdict_cache_per_batch_with_corroborator(self):
        COUNTERS.reset()
        probes = []

        def probe(prefix):
            probes.append(prefix)
            return True

        plane = DetectionPlane(
            two_tenant_registry(), batch_size=4, corroborator=probe
        )
        event = make_event(1.0, "10.0.0.0/23", (64600, 666))
        for _ in range(8):
            plane.ingest(event)
        plane.flush()
        # Two batches: the probe must be consulted once per batch (its
        # answer is time-dependent), so the cache cannot span batches.
        assert len(probes) == 2
        assert COUNTERS.pipeline_trie_walks == 2

    def test_backpressure_stall_counter(self):
        COUNTERS.reset()
        plane = DetectionPlane(
            two_tenant_registry(), batch_size=100, queue_capacity=8
        )
        for i in range(40):
            plane.ingest(make_event(float(i), "10.0.0.0/23", (64600, 65001)))
        assert COUNTERS.pipeline_backpressure_stalls == 5
        assert COUNTERS.pipeline_queue_depth_peak == 8

    def test_notifier_bounded_drop_oldest(self):
        COUNTERS.reset()
        registry = TenantRegistry()
        for i in range(6):
            registry.add_tenant(
                f"t{i}", ArtemisConfig([OwnedPrefix(f"10.{i}.0.0/16", [65001])])
            )
        plane = DetectionPlane(registry, batch_size=16, notifier_capacity=4)
        for i in range(6):
            plane.ingest(make_event(float(i), f"10.{i}.0.0/16", (1, 666)))
        plane.flush()
        pending = plane.drain_notifications()
        assert [tenant for tenant, _ in pending] == ["t2", "t3", "t4", "t5"]
        assert COUNTERS.notifier_alerts_dropped == 2
        assert COUNTERS.notifier_queue_depth_peak == 4
        assert COUNTERS.notifier_alerts_emitted == 4
        # Alert *state* was never dropped, only notification delivery.
        assert plane.total_alerts() == 6

    def test_notifier_callback_mode_emits_per_batch(self):
        COUNTERS.reset()
        delivered = []
        plane = DetectionPlane(
            two_tenant_registry(),
            batch_size=4,
            notify=lambda tenant, alert: delivered.append((tenant, alert.type)),
        )
        for i in range(4):
            plane.ingest(make_event(float(i), "10.0.0.0/24", (1, 666), vantage=i))
        assert ("acme", AlertType.SUB_PREFIX) in delivered
        assert ("beta", AlertType.EXACT_ORIGIN) in delivered
        assert COUNTERS.notifier_alerts_emitted == 2

    def test_autoignore_holds_until_visibility(self):
        COUNTERS.reset()
        registry = TenantRegistry()
        registry.add_tenant(
            "acme",
            ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65001])]),
            autoignore_visibility=3,
        )
        plane = DetectionPlane(registry, batch_size=1)
        plane.ingest(make_event(1.0, "10.0.0.0/24", (1, 666), vantage=100))
        plane.ingest(make_event(2.0, "10.0.0.0/24", (1, 666), vantage=100))
        assert plane.drain_notifications() == []
        assert COUNTERS.autoignore_suppressed == 1
        plane.ingest(make_event(3.0, "10.0.0.0/24", (1, 666), vantage=101))
        assert plane.drain_notifications() == []
        plane.ingest(make_event(4.0, "10.0.0.0/24", (1, 666), vantage=102))
        released = plane.drain_notifications()
        assert [(t, a.type) for t, a in released] == [
            ("acme", AlertType.EXACT_ORIGIN)
        ]
        # The incident itself was on the books the whole time.
        assert plane.total_alerts() == 1

    def test_withdrawals_ignored(self):
        plane = DetectionPlane(two_tenant_registry(), batch_size=2)
        plane.ingest(make_event(1.0, "10.0.0.0/23", (), kind="W"))
        plane.ingest(make_event(2.0, "10.0.0.0/23", (), kind="W"))
        assert plane.total_alerts() == 0


# ----------------------------------------- per-tenant incident edges (c)


class TestPerTenantIncidents:
    def test_same_pattern_separate_incidents_per_tenant(self):
        registry = TenantRegistry()
        for name in ("acme", "beta"):
            registry.add_tenant(
                name, ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65001])])
            )
        plane = DetectionPlane(registry, batch_size=1)
        plane.ingest(make_event(1.0, "10.0.0.0/24", (1, 666)))
        managers = plane.alert_managers()
        assert len(managers["acme"]) == 1 and len(managers["beta"]) == 1
        assert managers["acme"].alerts[0] is not managers["beta"].alerts[0]

    def test_cooldown_and_resurrection_independent_per_tenant(self):
        registry = two_tenant_registry(cooldown_a=5.0, cooldown_b=50.0)
        plane = DetectionPlane(registry, batch_size=1)
        # Hits both tenants: exact for beta, sub-prefix for acme.
        plane.ingest(make_event(1.0, "10.0.0.0/24", (1, 666)))
        acme = plane.alert_managers()["acme"].alerts[0]
        beta = plane.alert_managers()["beta"].alerts[0]
        acme.resolve(2.0)
        beta.resolve(2.0)
        # 10s later: past acme's 5s cooldown, inside beta's 50s cooldown.
        plane.ingest(make_event(12.0, "10.0.0.0/24", (1, 666), vantage=101))
        assert len(plane.alert_managers()["acme"]) == 2
        assert len(plane.alert_managers()["beta"]) == 1
        # Beta's resolved incident re-accepted it as evidence instead.
        assert len(beta.evidence) == 2
        fresh = plane.alert_managers()["acme"].alerts[1]
        assert fresh.detected_at == 12.0
        assert fresh.status is AlertStatus.ACTIVE

    def test_duplicate_delivery_never_resurrects_either_tenant(self):
        registry = two_tenant_registry(cooldown_a=5.0, cooldown_b=5.0)
        plane = DetectionPlane(registry, batch_size=1)
        original = make_event(1.0, "10.0.0.0/24", (1, 666))
        plane.ingest(original)
        for manager in plane.alert_managers().values():
            manager.alerts[0].resolve(2.0)
        # The byte-identical copy surfaces long past both cooldowns.
        plane.ingest(original)
        for manager in plane.alert_managers().values():
            assert len(manager) == 1
        # A genuinely new delivery (its own delivery time) does re-fire.
        plane.ingest(make_event(30.0, "10.0.0.0/24", (1, 666)))
        for manager in plane.alert_managers().values():
            assert len(manager) == 2


# --------------------------------------------------------- state bounding (a)


class TestStateBounding:
    def run_plane_incident(self, retention):
        registry = two_tenant_registry(cooldown_a=5.0, cooldown_b=5.0)
        plane = DetectionPlane(registry, batch_size=1)
        plane.state_retention = retention
        plane.ingest(make_event(1.0, "10.0.0.0/24", (1, 666)))
        return plane

    def test_plane_prunes_resolved_incidents(self):
        plane = self.run_plane_incident(retention=100.0)
        assert plane.detection_state_entries() == 4  # 2 tenants × 2 tables
        for manager in plane.alert_managers().values():
            manager.alerts[0].resolve(2.0)
        # Inside cooldown + retention: nothing prunes.
        assert plane.prune_state(now=50.0) == 0
        assert plane.detection_state_entries() == 4
        # Past resolve + cooldown + retention: everything prunes.
        assert plane.prune_state(now=200.0) == 4
        assert plane.detection_state_entries() == 0
        assert plane.entries_pruned == 4

    def test_plane_retention_none_disables_pruning(self):
        plane = self.run_plane_incident(retention=None)
        for manager in plane.alert_managers().values():
            manager.alerts[0].resolve(2.0)
        assert plane.prune_state(now=1e9) == 0
        assert plane.detection_state_entries() == 4

    def test_plane_active_incidents_never_pruned(self):
        plane = self.run_plane_incident(retention=100.0)
        assert plane.prune_state(now=1e9) == 0
        assert plane.detection_state_entries() == 4

    def test_gauge_tracks_peak_entries(self):
        COUNTERS.reset()
        plane = self.run_plane_incident(retention=100.0)
        plane.prune_state(now=2.0)
        assert COUNTERS.detection_state_entries == 4

    @pytest.mark.parametrize("queue_capacity", [8192, 16])
    def test_plane_prune_sweeps_count_drained_events(self, queue_capacity):
        """A sweep runs per PRUNE_CHECK_INTERVAL events drained, not drains.

        A partial flush, or a backpressure drain (queue bound below the
        batch size), must not count as a whole batch toward the cadence.
        """
        plane = DetectionPlane(
            two_tenant_registry(),
            batch_size=PRUNE_CHECK_INTERVAL,
            queue_capacity=queue_capacity,
        )
        sweeps = []
        plane.prune_state = sweeps.append
        first = min(queue_capacity, 16)
        for i in range(first):
            plane.ingest(make_event(1.0 + i, "10.0.0.0/24", (1, 65002)))
        plane.flush()
        assert sweeps == []
        for i in range(PRUNE_CHECK_INTERVAL - first):
            plane.ingest(make_event(100.0 + i, "10.0.0.0/24", (1, 65002)))
        plane.flush()
        assert len(sweeps) == 1

    def test_detection_service_prunes_resolved_incidents(self):
        service = DetectionService(
            ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65001])], alert_cooldown=5.0)
        )
        service.state_retention = 100.0
        service.handle_event(make_event(1.0, "10.0.0.0/24", (1, 666)))
        assert service.detection_state_entries() == 2
        alert = service.alert_manager.alerts[0]
        alert.resolve(2.0)
        assert service.prune_state(now=50.0) == 0
        # Late re-reads still work inside the retention window.
        assert service.per_source_delay(alert, 0.5) == {"ris": 0.5}
        assert service.prune_state(now=200.0) == 2
        assert service.detection_state_entries() == 0
        assert service.entries_pruned == 2

    def test_detection_service_prune_hook_fires_periodically(self):
        from repro.core.detection import PRUNE_CHECK_INTERVAL

        service = DetectionService(
            ArtemisConfig([OwnedPrefix("10.0.0.0/24", [65001])], alert_cooldown=0.0)
        )
        service.state_retention = 10.0
        service.handle_event(make_event(1.0, "10.0.0.0/24", (1, 666)))
        service.alert_manager.alerts[0].resolve(2.0)
        benign = make_event(10_000.0, "10.0.0.0/24", (1, 65001))
        for _ in range(PRUNE_CHECK_INTERVAL):
            service.handle_event(benign)
        assert service.detection_state_entries() == 0


# ------------------------------------------------------------------ workers


def write_mini_trace(path, rounds=40, tenants=8, subprefixes=6):
    """A small multi-prefix trace with periodic hijacks; returns the path.

    Besides each tenant's /16, every round announces ``subprefixes``
    distinct /24s inside tenant 0's 10.0.0.0/16 (its nested owned
    10.0.1.0/24 among them), every third round from a hijacker: one
    monitored prefix's events then hash to more than one worker.
    """
    writer = TraceWriter(str(path))
    t = 0.0
    for round_number in range(rounds):
        for i in range(tenants):
            t += 0.01
            origin = 65000 + i if round_number % 6 else 666
            writer.append(
                make_event(
                    t + 0.2,
                    f"10.{i}.0.0/16",
                    (1, origin),
                    vantage=100 + round_number % 4,
                    observed=t,
                )
            )
        for k in range(subprefixes):
            t += 0.01
            origin = 65000 if round_number % 3 else 666
            writer.append(
                make_event(
                    t + 0.2,
                    f"10.0.{k}.0/24",
                    (2, origin),
                    vantage=200 + round_number % 5,
                    observed=t,
                )
            )
    writer.close()
    return str(path)


def worker_registry(tenants=8):
    registry = TenantRegistry()
    for i in range(tenants):
        registry.add_tenant(
            f"t{i:02d}",
            ArtemisConfig(
                [
                    OwnedPrefix(f"10.{i}.0.0/16", [65000 + i]),
                    OwnedPrefix(f"10.{i}.1.0/24", [65000 + i]),
                ],
                alert_cooldown=2.0,
            ),
        )
    return registry


def raise_in_worker(self, event):
    raise RuntimeError("ingest exploded in the worker")


def exit_in_worker(self, event):
    os._exit(3)


class TestParallelDetectionPlane:
    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_merged_digest_identical_to_single_process(
        self, tmp_path, num_workers
    ):
        events = load_trace(write_mini_trace(tmp_path / "mini.trace")).events
        registry = worker_registry()
        plane = DetectionPlane(registry, batch_size=32)
        for event in events:
            plane.ingest(event)
        plane.flush()
        # The sub-prefix hijacks inside 10.0.0.0/16 fire, and that one
        # root's announced prefixes land on more than one worker.
        root = Prefix.parse("10.0.0.0/16")
        sub_prefixes = {
            e.prefix for e in events if root.contains(e.prefix) and e.prefix != root
        }
        assert len(sub_prefixes) == 6
        assert any(
            row[1] == AlertType.SUB_PREFIX.value and row[3].endswith("/24")
            for row in plane.incident_rows()
        )
        if num_workers > 1:
            assert len({hash(p) % num_workers for p in sub_prefixes}) > 1

        result = run_partitioned(
            registry, events, num_workers=num_workers, batch_size=32
        )
        assert result["digest"] == plane.digest()
        assert result["rows"] == plane.incident_rows()
        assert result["alerts"] == plane.total_alerts()
        assert result["events_seen"] == len(events)
        assert len(result["cpu_seconds"]) == num_workers

    def test_perf_counters_merged_from_workers(self, tmp_path):
        events = load_trace(write_mini_trace(tmp_path / "mini.trace")).events
        COUNTERS.reset()
        run_partitioned(worker_registry(), events, num_workers=2)
        assert COUNTERS.pipeline_events_ingested == 40 * (8 + 6)
        assert COUNTERS.pipeline_batches >= 2

    def test_worker_exception_is_typed(self, tmp_path, monkeypatch):
        events = load_trace(write_mini_trace(tmp_path / "mini.trace")).events
        monkeypatch.setattr(DetectionPlane, "ingest", raise_in_worker)
        with pytest.raises(TenantWorkerError, match="ingest exploded"):
            run_partitioned(worker_registry(), events, num_workers=2)

    def test_worker_death_is_typed(self, tmp_path, monkeypatch):
        events = load_trace(write_mini_trace(tmp_path / "mini.trace")).events
        monkeypatch.setattr(DetectionPlane, "ingest", exit_in_worker)
        with pytest.raises(TenantWorkerError, match="died before reporting"):
            run_partitioned(worker_registry(), events, num_workers=2)


# ------------------------------------------------------------------ digests


class TestMergedDigest:
    def test_digest_ignores_row_order(self):
        rows = [("b", 1), ("a", 2), ("c", 0)]
        assert merged_alert_digest(rows) == merged_alert_digest(rows[::-1])

    def test_rows_exclude_alert_ids(self):
        registry = two_tenant_registry()
        plane = DetectionPlane(registry, batch_size=1)
        plane.ingest(make_event(1.0, "10.0.0.0/24", (1, 666)))
        for row in plane.incident_rows():
            assert isinstance(row[0], str)  # tenant leads
            # Nothing in the row is a per-manager alert id.
            assert plane.alert_managers()[row[0]].alerts[0].id not in row[2:5]


# -------------------------------------------------------------------- synth


class TestSynth:
    def test_observed_origin_map_takes_first_origin(self):
        events = [
            make_event(1.0, "10.0.0.0/24", (1, 65001)),
            make_event(2.0, "10.0.0.0/24", (1, 666)),
            make_event(3.0, "10.1.0.0/24", (2, 65002)),
        ]
        origins = observed_origin_map(events)
        assert origins[Prefix.parse("10.0.0.0/24")] == 65001
        assert origins[Prefix.parse("10.1.0.0/24")] == 65002

    def test_build_synth_registry_shape(self):
        origins = {
            Prefix.parse("10.0.0.0/24"): 65001,
            Prefix.parse("10.1.0.0/24"): 65002,
        }
        registry = build_synth_registry(origins, num_tenants=10, num_prefixes=200)
        assert len(registry) == 10
        assert registry.num_rules == 200
        # Live prefixes are spread over every tenant; padding is dense /24s.
        live_watchers = PrefixTree(registry).tenants_at(Prefix.parse("10.0.0.0/24"))
        assert len(live_watchers) == 10
        assert str(pad_prefix(0)) == "11.0.0.0/24"

    def test_synth_registry_deterministic(self):
        origins = {Prefix.parse("10.0.0.0/24"): 65001}
        one = build_synth_registry(origins, num_tenants=5, num_prefixes=50)
        two = build_synth_registry(origins, num_tenants=5, num_prefixes=50)
        def rule_rows(registry):
            return [
                tuple(getattr(rule, field) for field in TenantRule.__slots__)
                for rule in registry.all_rules()
            ]

        assert rule_rows(one) == rule_rows(two)
