"""The shared prefix tree: one radix trie answering for every tenant.

The naive multi-tenant design keeps one :class:`~repro.core.config.ArtemisConfig`
trie per tenant and probes all N of them per feed event — O(N · bits) per
announcement, which is exactly the fan-out cost the batched pipeline exists
to kill.  :class:`PrefixTree` instead stores **all** tenants' rule bundles
in a single :class:`~repro.net.trie.PrefixTrie`: each stored node holds the
list of :class:`~repro.tenants.registry.TenantRule` rows monitoring that
exact prefix, and one O(bits) covering walk per announced prefix surfaces
every tenant whose space it touches, no matter how many tenants exist.

Mutation is incremental — tenants onboard and retire without a rebuild —
and every mutation bumps an ``epoch``, which the parallel detection workers
use to detect stale rule shipments.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie
from repro.perf import COUNTERS as _COUNTERS
from repro.tenants.registry import TenantRule

#: One resolved match: the rule that applies plus whether the announced
#: prefix equals the rule's monitored prefix (exact) or is a more-specific
#: inside it (the sub-prefix case).
Match = Tuple[TenantRule, bool]

#: Shared empty resolve result.  Most announced prefixes in a real feed
#: match no tenant at all, so the miss path returns this one list instead
#: of allocating a fresh empty one per lookup.  Callers must treat resolve
#: results as read-only (they already do: results are iterated or stored).
_NO_MATCHES: List[Match] = []


class PrefixTree:
    """Longest-match service over every tenant's monitored prefixes."""

    def __init__(self, registry=None) -> None:
        self._trie: PrefixTrie[List[TenantRule]] = PrefixTrie()
        #: Bumped on every rule insert/remove batch; workers compare epochs
        #: to reject stale or out-of-order rule shipments loudly.
        self.epoch = 0
        self.num_rules = 0
        #: Reusable covering-walk buffer: one per tree, cleared per resolve,
        #: so lookups that match nothing allocate nothing at all.
        self._scratch: List[List[TenantRule]] = []
        if registry is not None:
            self.insert_rules(registry.all_rules())
            registry.attach_tree(self)

    def __len__(self) -> int:
        """Distinct monitored prefixes (not rules) stored."""
        return len(self._trie)

    # -------------------------------------------------------------- mutation

    def insert_rules(self, rules: Iterable[TenantRule]) -> None:
        """Add rule rows (a tenant onboarding); one epoch bump per call."""
        added = 0
        for rule in rules:
            bucket = self._trie.get(rule.prefix)
            if bucket is None:
                self._trie.insert(rule.prefix, [rule])
            else:
                bucket.append(rule)
            added += 1
        if added:
            self.num_rules += added
            self.epoch += 1

    def remove_rules(self, rules: Iterable[TenantRule]) -> None:
        """Drop rule rows (a tenant retiring); one epoch bump per call."""
        removed = 0
        for rule in rules:
            bucket = self._trie.get(rule.prefix)
            if bucket is None or rule not in bucket:
                raise KeyError(
                    f"rule {rule!r} not present in the prefix tree"
                )
            bucket.remove(rule)
            if not bucket:
                self._trie.remove(rule.prefix)
            removed += 1
        if removed:
            self.num_rules -= removed
            self.epoch += 1

    # ---------------------------------------------------------------- lookup

    def resolve(self, prefix: Prefix) -> List[Match]:
        """Every tenant rule whose monitored space covers ``prefix``.

        One O(bits) covering walk.  For a tenant monitoring several nested
        prefixes covering the target, only the **most specific** rule wins
        (mirroring ``ArtemisConfig.entry_for`` → ``covering_entry`` order in
        the single-tenant engine).  Results are sorted by tenant name so
        downstream iteration order — and therefore alert IDs and digests —
        is deterministic regardless of trie insertion order.
        """
        _COUNTERS.pipeline_trie_walks += 1
        buckets = self._trie.covering_values(prefix, into=self._scratch)
        if not buckets:
            return _NO_MATCHES
        per_tenant: Dict[str, Match] = {}
        # Least → most specific: later (more specific) buckets overwrite.
        for bucket in buckets:
            exact = bucket[0].prefix.length == prefix.length
            for rule in bucket:
                per_tenant[rule.tenant] = (rule, exact)
        return [per_tenant[name] for name in sorted(per_tenant)]

    def resolve_batch(
        self, prefixes: Iterable[Prefix]
    ) -> Dict[Prefix, List[Match]]:
        """Resolve each distinct prefix once (batch-dedup convenience)."""
        out: Dict[Prefix, List[Match]] = {}
        for prefix in prefixes:
            if prefix not in out:
                out[prefix] = self.resolve(prefix)
        return out

    def monitored_prefixes(self) -> List[Prefix]:
        """Distinct stored prefixes, in deterministic bit order."""
        return list(self._trie.keys())

    def tenants_at(self, prefix: Prefix) -> List[str]:
        """Tenant names monitoring exactly ``prefix``."""
        bucket = self._trie.get(prefix)
        return sorted({rule.tenant for rule in bucket}) if bucket else []

    def __repr__(self) -> str:
        return (
            f"<PrefixTree {len(self)} prefixes, {self.num_rules} rules, "
            f"epoch={self.epoch}>"
        )
