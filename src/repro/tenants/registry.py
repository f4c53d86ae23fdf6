"""Multi-tenant ground truth: compiled, interned rule bundles.

Production ARTEMIS runs detection as a *service*: one deployment holds the
configuration of every operator (tenant) it protects, and a single shared
prefix tree answers "whose rules match this announcement?" for the whole
feed fan-out.  This module is the configuration side of that plane:

* :class:`TenantRule` — one compiled, immutable bundle row: *tenant X
  monitors prefix P with these legit origins / upstreams and these
  detection knobs*.  Rows are **interned** per registry: a thousand
  tenants sharing the same boilerplate policy (same origin set, same
  flags) reference the same frozensets, so registry memory scales with
  distinct policies, not with tenants × prefixes.
* :class:`TenantRegistry` — compiles :class:`~repro.core.config.ArtemisConfig`
  style ground truth for N tenants into bundle rows, supports incremental
  tenant add/remove (propagated to any attached
  :class:`~repro.tenants.prefixtree.PrefixTree`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.config import ArtemisConfig
from repro.errors import ConfigError
from repro.net.prefix import Prefix


class TenantRule:
    """One tenant's compiled rule bundle for one monitored prefix.

    Immutable and hash-shared: construct only through
    :meth:`TenantRegistry.add_tenant` so interning applies.

    ``squat_space`` rows compile an :class:`~repro.core.config.OwnedSpace`
    entry — held-but-unannounced space where *any* non-owner origin is
    squatting; the origin/path rule fields are unused for those rows.
    ``neighbors`` / ``leak_sentinels`` carry the tenant's hop-N adjacency
    map and stub sentinels for the type-N and route-leak rules.
    """

    __slots__ = (
        "tenant",
        "prefix",
        "legit_origins",
        "legit_upstreams",
        "detect_subprefix",
        "detect_path",
        "cooldown",
        "autoignore_visibility",
        "neighbors",
        "leak_sentinels",
        "detect_unchanged_path",
        "squat_space",
    )

    def __init__(
        self,
        tenant: str,
        prefix: Prefix,
        legit_origins: FrozenSet[int],
        legit_upstreams: Optional[FrozenSet[int]],
        detect_subprefix: bool,
        detect_path: bool,
        cooldown: float,
        autoignore_visibility: int,
        neighbors: Optional[Dict[int, FrozenSet[int]]] = None,
        leak_sentinels: Optional[FrozenSet[int]] = None,
        detect_unchanged_path: bool = True,
        squat_space: bool = False,
    ):
        self.tenant = tenant
        self.prefix = prefix
        self.legit_origins = legit_origins
        self.legit_upstreams = legit_upstreams
        self.detect_subprefix = detect_subprefix
        self.detect_path = detect_path
        self.cooldown = cooldown
        self.autoignore_visibility = autoignore_visibility
        self.neighbors = neighbors
        self.leak_sentinels = leak_sentinels
        self.detect_unchanged_path = detect_unchanged_path
        self.squat_space = squat_space

    def __repr__(self) -> str:
        origins = ",".join(str(a) for a in sorted(self.legit_origins))
        return f"TenantRule({self.tenant} {self.prefix} origins=[{origins}])"


class TenantRegistry:
    """Compiled ground truth for every tenant the detection plane serves."""

    def __init__(self) -> None:
        #: tenant name -> its rule rows, in owned-prefix declaration order.
        self._tenants: Dict[str, Tuple[TenantRule, ...]] = {}
        #: Interning tables: identical policy material is stored once.
        self._asn_sets: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self._adjacency_maps: Dict[Tuple, Dict[int, FrozenSet[int]]] = {}
        self._rules: Dict[Tuple, TenantRule] = {}
        #: Attached prefix trees, notified on tenant add/remove.
        self._trees: List = []

    # ------------------------------------------------------------- interning

    def _intern_set(
        self, asns: Optional[Iterable[int]]
    ) -> Optional[FrozenSet[int]]:
        if asns is None:
            return None
        key = frozenset(int(a) for a in asns)
        return self._asn_sets.setdefault(key, key)

    def _intern_adjacencies(
        self, adjacencies: Optional[Dict[int, FrozenSet[int]]]
    ) -> Optional[Dict[int, FrozenSet[int]]]:
        """Intern a whole adjacency map: tenants sharing one learned graph
        (the common deployment: one BGP view feeds everyone) share one dict.
        """
        if adjacencies is None:
            return None
        key = tuple(
            (asn, tuple(sorted(peers))) for asn, peers in sorted(adjacencies.items())
        )
        interned = self._adjacency_maps.get(key)
        if interned is None:
            interned = {
                asn: self._intern_set(peers) for asn, peers in adjacencies.items()
            }
            self._adjacency_maps[key] = interned
        return interned

    def _intern_rule(self, *fields) -> TenantRule:
        # The adjacency map (index 8) is already interned to a canonical
        # dict; key it by identity so the rule key stays hashable.
        key = fields[:8] + (id(fields[8]),) + fields[9:]
        rule = self._rules.get(key)
        if rule is None:
            rule = TenantRule(*fields)
            self._rules[key] = rule
        return rule

    # -------------------------------------------------------------- mutation

    def add_tenant(
        self,
        name: str,
        config: ArtemisConfig,
        autoignore_visibility: int = 0,
    ) -> Tuple[TenantRule, ...]:
        """Compile one tenant's config into interned rows and publish them.

        ``autoignore_visibility`` is the tenant's alert-suppression policy:
        a new incident is not surfaced to the notifier until at least that
        many distinct vantage ASes have witnessed it (0 = notify at once).
        """
        if name in self._tenants:
            raise ConfigError(f"tenant {name!r} already registered")
        adjacencies = self._intern_adjacencies(config.adjacencies)
        sentinels = self._intern_set(config.leak_sentinels)
        rows = tuple(
            self._intern_rule(
                name,
                entry.prefix,
                self._intern_set(entry.legit_origins),
                self._intern_set(entry.legit_upstreams),
                config.detect_subprefix,
                config.detect_path,
                config.alert_cooldown,
                int(autoignore_visibility),
                adjacencies,
                sentinels,
                config.detect_unchanged_path,
                False,
            )
            for entry in config.owned
        )
        if config.detect_squatting and config.owned_space:
            rows += tuple(
                self._intern_rule(
                    name,
                    space.prefix,
                    self._intern_set(space.legit_origins),
                    None,
                    config.detect_subprefix,
                    config.detect_path,
                    config.alert_cooldown,
                    int(autoignore_visibility),
                    None,
                    None,
                    config.detect_unchanged_path,
                    True,
                )
                for space in config.owned_space
            )
        self._tenants[name] = rows
        for tree in self._trees:
            tree.insert_rules(rows)
        return rows

    def remove_tenant(self, name: str) -> None:
        """Retire a tenant; its rows vanish from every attached tree."""
        rows = self._tenants.pop(name, None)
        if rows is None:
            raise ConfigError(f"no tenant {name!r} registered")
        for tree in self._trees:
            tree.remove_rules(rows)

    def attach_tree(self, tree) -> None:
        """Keep ``tree`` in sync with future add/remove calls."""
        if tree not in self._trees:
            self._trees.append(tree)

    # ---------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def tenant_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._tenants))

    def rules_for(self, name: str) -> Tuple[TenantRule, ...]:
        return self._tenants[name]

    def all_rules(self):
        """Every rule row, grouped by tenant in sorted-tenant order."""
        for name in sorted(self._tenants):
            yield from self._tenants[name]

    @property
    def num_rules(self) -> int:
        return sum(len(rows) for rows in self._tenants.values())

    def monitored_prefixes(self) -> List[Prefix]:
        """Distinct monitored prefixes across all tenants, sorted."""
        distinct = {rule.prefix for rule in self.all_rules()}
        return sorted(distinct, key=lambda p: p.sort_key)

    def cooldown_for(self, name: str) -> float:
        rows = self._tenants[name]
        return rows[0].cooldown if rows else 0.0

    def __repr__(self) -> str:
        return (
            f"<TenantRegistry {len(self._tenants)} tenants, "
            f"{self.num_rules} rules, {len(self._rules)} interned>"
        )
