"""The batched multi-tenant detection pipeline.

The single-tenant engine path dispatches one callback per (event, tenant)
pair; with a thousand tenants that per-event fan-out dominates the run.
:class:`DetectionPlane` restructures detection as a throughput pipeline:

1. **ingest** — events land in a bounded queue (a deque); nothing is
   classified per event.
2. **classify** — when a batch's worth has accumulated (or on an explicit
   :meth:`flush`), the whole batch drains at once: **one shared-tree walk
   per unique announced prefix per batch**, and one verdict computation per
   unique ``(prefix, as_path)`` pair (plus the vantage for single-hop
   paths, which the len-1 first-hop rule judges) — everything else is a
   cache hit.  BGP feeds are extremely repetitive (a churn flap delivers
   the same announcement from dozens of vantage points), and repetitive
   *across* batches too, so the verdict cache is **cross-batch**: a
   bounded FIFO dict keyed on ``(prefix.ikey, path[, vantage])`` that
   survives from one drain to the next and is invalidated wholesale when
   the tree's epoch moves (a tenant onboarded or retired).  A steady-state
   feed converges to zero tree walks and zero rule-ladder runs per batch.
   With a data-plane ``corroborator`` probe attached the cache reverts to
   per-batch lifetime (cleared after every drain), because a probe's
   answer is time-dependent and may legitimately differ between batches.
3. **alert** — verdicts feed per-tenant :class:`~repro.core.alerts.AlertManager`
   instances (incidents are keyed *per tenant*: the same offending
   announcement raises one incident for every tenant whose space it hits).
4. **notify** — new incidents that pass the tenant's autoignore visibility
   threshold enter a bounded notifier queue (oldest dropped on overflow,
   counted — alert *state* is never lost, only notification delivery).

Queue depths, backpressure stalls, memo hit rates and notifier drops are
all visible in :data:`repro.perf.COUNTERS`.

Determinism: batching never reorders events, per-tenant iteration is
sorted, and alert IDs restart per manager — so :func:`merged_alert_digest`
over the plane's incidents is bit-identical across batch sizes, and across
the ``--detect-workers`` partitioning (workers own disjoint sets of
announced prefixes, and the digest is computed over canonically sorted
rows).
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.alerts import AlertManager, AlertType, HijackAlert
from repro.core.rules import classify_announcement, classify_squat
from repro.feeds.events import ANNOUNCE, FeedEvent
from repro.perf import COUNTERS as _COUNTERS
from repro.tenants.flattree import FlatPrefixTree
from repro.tenants.registry import TenantRegistry, TenantRule

#: Events between opportunistic per-tenant state prune sweeps.
PRUNE_CHECK_INTERVAL = 4096

#: Event-time retention of resolved-incident bookkeeping past cooldown
#: (same contract as :data:`repro.core.detection.STATE_RETENTION`).
STATE_RETENTION = 3600.0

#: One classification verdict: (rule, alert type, offender ASN).
Verdict = Tuple[TenantRule, AlertType, Optional[int]]


class _TenantState:
    """Everything the plane tracks for one tenant."""

    __slots__ = ("alerts", "evidence_seen", "first_evidence", "held")

    def __init__(self, cooldown: float):
        self.alerts = AlertManager(cooldown=cooldown)
        #: Per incident pattern: content keys already ingested (the
        #: duplicate-delivery founding gate, as in DetectionService).
        self.evidence_seen: Dict[Tuple, set] = {}
        #: Per alert id, per source: first evidence delivery time.
        self.first_evidence: Dict[int, Dict[str, float]] = {}
        #: Alert ids withheld from the notifier until enough distinct
        #: vantages have witnessed them (the autoignore gate).
        self.held: Dict[int, int] = {}


def classify_batch_verdicts(
    matches: List[Tuple[TenantRule, bool]],
    prefix,
    path: Tuple[int, ...],
    vantage_asn: Optional[int],
    probe=None,
) -> Tuple[Verdict, ...]:
    """Pure verdict computation for one (prefix, path, vantage) key.

    Mirrors ``DetectionService.classify`` per matched tenant rule through
    the shared :func:`~repro.core.rules.classify_announcement` ladder;
    squat-space rows go through :func:`~repro.core.rules.classify_squat`.
    ``probe`` is the optional data-plane corroboration hook — it gates
    low-confidence verdicts and enables the type-U rule, exactly as in the
    single-tenant service.
    """
    verdicts: List[Verdict] = []
    for rule, exact in matches:
        if not path:
            continue
        if rule.squat_space:
            verdict = classify_squat(path[-1], rule.legit_origins)
        else:
            verdict = classify_announcement(
                prefix,
                path,
                vantage_asn,
                exact,
                rule.legit_origins,
                rule.legit_upstreams,
                neighbors=rule.neighbors,
                leak_sentinels=rule.leak_sentinels,
                detect_subprefix=rule.detect_subprefix,
                detect_path=rule.detect_path,
                detect_unchanged_path=rule.detect_unchanged_path,
                probe=probe,
            )
        if verdict is not None:
            verdicts.append((rule, verdict[0], verdict[1]))
    return tuple(verdicts)


class DetectionPlane:
    """Batched multi-tenant detection over one shared prefix tree."""

    def __init__(
        self,
        registry: TenantRegistry,
        tree=None,
        batch_size: int = 256,
        queue_capacity: int = 8192,
        notifier_capacity: int = 1024,
        notify: Optional[Callable[[str, HijackAlert], None]] = None,
        corroborator=None,
        verdict_cache_size: int = 65536,
    ):
        self.registry = registry
        #: ``tree`` accepts anything with the ``PrefixTree`` surface; the
        #: default is the flat array-of-struct tree, which holds resolve
        #: parity (property-tested) at a fraction of the per-prefix RSS.
        self.tree = tree if tree is not None else FlatPrefixTree(registry)
        #: Optional data-plane corroboration probe shared by all tenants
        #: (``probe(prefix) -> bool``); evaluated at most once per memo key
        #: per batch, so verdicts within a batch stay memo-consistent.
        self.corroborator = corroborator
        self.batch_size = max(1, int(batch_size))
        #: Bound on the cross-batch verdict cache (oldest-inserted entries
        #: evicted beyond it, counted in ``verdict_cache_evictions``).
        self.verdict_cache_size = max(1, int(verdict_cache_size))
        self._verdict_cache: Dict[Tuple, Tuple[Verdict, ...]] = {}
        self._cache_epoch = self.tree.epoch
        self.queue_capacity = max(1, int(queue_capacity))
        #: The depth at which ingest must drain: the batch boundary, or the
        #: queue bound if that is smaller (the backpressure configuration).
        self._drain_depth = min(self.batch_size, self.queue_capacity)
        self.notifier_capacity = max(1, int(notifier_capacity))
        self._queue: Deque[FeedEvent] = deque()
        self._notifications: Deque[Tuple[str, HijackAlert]] = deque()
        self._notify = notify
        self._states: Dict[str, _TenantState] = {}
        self.events_ingested = 0
        self.batches_drained = 0
        #: Event-time retention for resolved-incident state (``None``
        #: disables pruning, as in :class:`DetectionService`).
        self.state_retention: Optional[float] = STATE_RETENTION
        self._events_since_prune = 0
        self.entries_pruned = 0
        self._last_event_time = 0.0

    # ---------------------------------------------------------------- ingest

    def ingest(self, event: FeedEvent) -> None:
        """Stage one event; drains automatically at a batch boundary.

        Per-event work here is the floor of the whole plane's throughput,
        so the off-boundary path is one append, one counter, and one
        compare.  The queue only grows between drains, so its depth peaks
        exactly when a drain triggers — the peak gauge is maintained in
        :meth:`_drain`, not per event.
        """
        queue = self._queue
        queue.append(event)
        self.events_ingested += 1
        _COUNTERS.pipeline_events_ingested += 1
        depth = len(queue)
        if depth >= self._drain_depth:
            if depth >= self.queue_capacity:
                # The queue hit its bound before the batch filled: the
                # producer outran the configured batch cadence, so stall it
                # with an inline drain rather than grow without limit.
                _COUNTERS.pipeline_backpressure_stalls += 1
            self._drain()

    __call__ = ingest

    def flush(self) -> None:
        """Drain any partial batch (end of stream)."""
        if self._queue:
            self._drain()

    # -------------------------------------------------------------- classify

    def _drain(self) -> None:
        queue = self._queue
        self.batches_drained += 1
        counters = _COUNTERS
        counters.pipeline_batches += 1
        depth = len(queue)
        if depth > counters.pipeline_queue_depth_peak:
            counters.pipeline_queue_depth_peak = depth
        resolve = self.tree.resolve
        cache = self._verdict_cache
        tree_epoch = self.tree.epoch
        if tree_epoch != self._cache_epoch:
            # A rule mutation invalidates every cached verdict at once: the
            # epoch is part of the cache's identity, not of each key.
            cache.clear()
            self._cache_epoch = tree_epoch
        probe = self.corroborator
        per_batch_probe = probe is not None
        cache_bound = self.verdict_cache_size
        cache_get = cache.get
        walks: Dict = {}
        walks_get = walks.get
        apply_verdict = self._apply
        while queue:
            event = queue.popleft()
            if event.kind != ANNOUNCE:
                continue
            self._last_event_time = event.delivered_at
            path = event.as_path
            prefix = event.prefix
            # The rule ladder inspects the whole path, so the cache key is
            # (prefix, path); the vantage only matters for single-hop paths
            # (the len-1 first-hop rule), so it joins the key only there —
            # multi-hop repeats across vantage points stay cache hits.
            # ``Prefix.ikey`` stands in for the prefix object: one int,
            # unique per (version, value, length), hashed at C speed.
            if len(path) >= 2:
                memo_key = (prefix.ikey, path)
            else:
                memo_key = (prefix.ikey, path, event.vantage_asn)
            verdicts = cache_get(memo_key)
            if verdicts is None:
                matches = walks_get(prefix)
                if matches is None:
                    matches = resolve(prefix)
                    walks[prefix] = matches
                verdicts = classify_batch_verdicts(
                    matches, prefix, path, event.vantage_asn, probe=probe,
                )
                cache[memo_key] = verdicts
                if len(cache) > cache_bound and not per_batch_probe:
                    # FIFO eviction: dicts iterate in insertion order, so
                    # the first key out is the oldest verdict in.
                    del cache[next(iter(cache))]
                    counters.verdict_cache_evictions += 1
            else:
                counters.pipeline_memo_hits += 1
                counters.verdict_cache_hits += 1
            for verdict in verdicts:
                apply_verdict(verdict, event)
        if per_batch_probe:
            # A probe's answer is time-dependent, so probed verdicts only
            # live for the batch that computed them (the original memo
            # contract); steady-state caching is for the pure ladder.
            cache.clear()
        self._maybe_prune(depth)
        self._drain_notifier()

    def _apply(self, verdict: Verdict, event: FeedEvent) -> None:
        """Feed one verdict into its tenant's alert state (stage 3)."""
        rule, alert_type, offender = verdict
        state = self._states.get(rule.tenant)
        if state is None:
            state = _TenantState(cooldown=rule.cooldown)
            self._states[rule.tenant] = state
        pattern = (alert_type, rule.prefix, event.prefix, offender)
        seen = state.evidence_seen.setdefault(pattern, set())
        content = event.content_key()
        duplicate = content in seen
        if duplicate:
            _COUNTERS.duplicate_evidence_skipped += 1
        else:
            seen.add(content)
        alert, is_new = state.alerts.ingest(
            alert_type, rule.prefix, event.prefix, offender, event,
            allow_new=not duplicate,
        )
        if alert is None:
            return
        per_source = state.first_evidence.setdefault(alert.id, {})
        if event.source not in per_source:
            per_source[event.source] = event.delivered_at
        if is_new:
            if rule.autoignore_visibility > 1:
                # Withhold the notification until enough distinct vantage
                # ASes corroborate; the incident itself is already on the
                # books (digests and state are unaffected).
                state.held[alert.id] = rule.autoignore_visibility
                _COUNTERS.autoignore_suppressed += 1
            else:
                self._enqueue_notification(rule.tenant, alert)
        elif state.held:
            threshold = state.held.get(alert.id)
            if (
                threshold is not None
                and len(alert.witness_vantages) >= threshold
            ):
                del state.held[alert.id]
                self._enqueue_notification(rule.tenant, alert)

    # ---------------------------------------------------------------- notify

    def _enqueue_notification(self, tenant: str, alert: HijackAlert) -> None:
        queue = self._notifications
        if len(queue) >= self.notifier_capacity:
            queue.popleft()
            _COUNTERS.notifier_alerts_dropped += 1
        queue.append((tenant, alert))
        depth = len(queue)
        if depth > _COUNTERS.notifier_queue_depth_peak:
            _COUNTERS.notifier_queue_depth_peak = depth

    def _drain_notifier(self) -> None:
        """Deliver queued notifications to the callback, if one is set."""
        if self._notify is None:
            return
        while self._notifications:
            tenant, alert = self._notifications.popleft()
            self._notify(tenant, alert)
            _COUNTERS.notifier_alerts_emitted += 1

    def drain_notifications(self) -> List[Tuple[str, HijackAlert]]:
        """Pop all pending (tenant, alert) notifications (pull-mode use)."""
        out = list(self._notifications)
        self._notifications.clear()
        _COUNTERS.notifier_alerts_emitted += len(out)
        return out

    # -------------------------------------------------------- state bounding

    def detection_state_entries(self) -> int:
        """Per-incident bookkeeping entries across all tenants."""
        return sum(
            len(s.first_evidence) + len(s.evidence_seen) + len(s.held)
            for s in self._states.values()
        )

    def _maybe_prune(self, drained: int) -> None:
        if self.state_retention is None:
            return
        self._events_since_prune += drained
        if self._events_since_prune >= PRUNE_CHECK_INTERVAL:
            self._events_since_prune = 0
            self.prune_state(self._last_event_time)

    def prune_state(self, now: float) -> int:
        """Drop bookkeeping for incidents resolved long before ``now``.

        Same contract as :meth:`DetectionService.prune_state`, applied per
        tenant; refreshes the shared ``detection_state_entries`` peak gauge.
        """
        entries = self.detection_state_entries()
        if entries > _COUNTERS.detection_state_entries:
            _COUNTERS.detection_state_entries = entries
        if self.state_retention is None:
            return 0
        dropped = 0
        for state in self._states.values():
            horizon = state.alerts.cooldown + self.state_retention

            def expired(alert: Optional[HijackAlert]) -> bool:
                return (
                    alert is not None
                    and alert.resolved_at is not None
                    and now - alert.resolved_at > horizon
                )

            by_id = {a.id: a for a in state.alerts.alerts}
            for table in (state.first_evidence, state.held):
                for alert_id in [i for i in table if expired(by_id.get(i))]:
                    del table[alert_id]
                    dropped += 1
            stale = [
                pattern
                for pattern in state.evidence_seen
                if expired(state.alerts.incident_for(pattern))
            ]
            for pattern in stale:
                del state.evidence_seen[pattern]
                dropped += 1
        self.entries_pruned += dropped
        return dropped

    # ----------------------------------------------------------------- state

    def tenant_state(self, tenant: str) -> Optional[_TenantState]:
        return self._states.get(tenant)

    def alert_managers(self) -> Dict[str, AlertManager]:
        """Per-tenant alert managers, for digesting and inspection."""
        return {name: state.alerts for name, state in self._states.items()}

    def total_alerts(self) -> int:
        return sum(len(s.alerts) for s in self._states.values())

    def incident_rows(self) -> List[Tuple]:
        """Canonical rows for :func:`merged_alert_digest` (plain tuples)."""
        return incident_rows(self.alert_managers())

    def digest(self) -> str:
        return merged_alert_digest(self.incident_rows())

    def __repr__(self) -> str:
        return (
            f"<DetectionPlane tenants={len(self.registry)} "
            f"ingested={self.events_ingested} batches={self.batches_drained} "
            f"alerts={self.total_alerts()}>"
        )


# ------------------------------------------------------------------ digests


def incident_rows(managers: Dict[str, AlertManager]) -> List[Tuple]:
    """Canonical, sorted, plain-tuple incident rows for digesting.

    Works for any per-tenant manager mapping — the batched plane, a naive
    per-tenant :class:`~repro.core.detection.DetectionService` fan-out
    (wrap each service's ``alert_manager``), or rows merged back from
    ``--detect-workers`` processes.  Alert IDs are deliberately excluded:
    they are per-manager counters and differ across worker partitionings;
    everything observable about the incident is included.
    """
    rows: List[Tuple] = []
    for tenant in sorted(managers):
        for alert in managers[tenant].alerts:
            rows.append(
                (
                    tenant,
                    alert.type.value,
                    str(alert.owned_prefix),
                    str(alert.announced_prefix),
                    -1 if alert.offender_asn is None else alert.offender_asn,
                    alert.detected_at,
                    alert.first_source,
                    tuple(
                        sorted(
                            (
                                e.source,
                                e.collector,
                                e.vantage_asn,
                                e.kind,
                                str(e.prefix),
                                e.as_path,
                                e.observed_at,
                                e.delivered_at,
                            )
                            for e in alert.evidence
                        )
                    ),
                )
            )
    rows.sort()
    return rows


def merged_alert_digest(rows: List[Tuple]) -> str:
    """SHA-256 over canonically sorted incident rows.

    Deterministic across batch sizes and worker counts: rows from disjoint
    worker partitions concatenate and re-sort to exactly the single-worker
    row list, so the digest is bit-identical by construction.
    """
    canonical = sorted(rows)
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()
