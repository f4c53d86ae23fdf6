"""Multi-tenant detection plane: detection-as-a-service at scale.

One ARTEMIS deployment protecting N operators ("tenants") from a single
shared feed.  The package splits into:

* :mod:`repro.tenants.registry` — compiled, interned per-tenant rule
  bundles (:class:`TenantRegistry`, :class:`TenantRule`);
* :mod:`repro.tenants.prefixtree` — the shared radix tree answering
  "whose rules match this announcement?" in one O(bits) walk
  (:class:`PrefixTree`);
* :mod:`repro.tenants.flattree` — the same tree on a flat array-of-struct
  layout (:class:`FlatPrefixTree`, the pipeline default): packed int32
  node/row columns and epoch-stamped free lists hold million-prefix
  populations at a fraction of the node-object RSS;
* :mod:`repro.tenants.pipeline` — the batched ingest → classify → alert →
  notify pipeline (:class:`DetectionPlane`), its bounded cross-batch
  verdict cache, and the canonical merged alert digest;
* :mod:`repro.tenants.workers` — ``--detect-workers N``: one tree built
  in the parent, then the feed split by announced prefix across forked
  workers that share it copy-on-write (:func:`run_partitioned`);
* :mod:`repro.tenants.synth` — deterministic synthetic tenant populations
  for the at-scale benches.
"""

from repro.tenants.flattree import FlatPrefixTree
from repro.tenants.pipeline import (
    DetectionPlane,
    incident_rows,
    merged_alert_digest,
)
from repro.tenants.prefixtree import PrefixTree
from repro.tenants.registry import TenantRegistry, TenantRule
from repro.tenants.workers import TenantWorkerError, run_partitioned

__all__ = [
    "DetectionPlane",
    "FlatPrefixTree",
    "PrefixTree",
    "TenantRegistry",
    "TenantRule",
    "TenantWorkerError",
    "incident_rows",
    "merged_alert_digest",
    "run_partitioned",
]
