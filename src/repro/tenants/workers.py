"""Parallel detection workers: ``--detect-workers N``.

The parent builds the one shared :class:`FlatPrefixTree` and then forks
the workers, so every worker inherits the registry, the tree and the
already-parsed event list copy-on-write: nothing about the registry or the
feed crosses a pipe.  Worker ``i`` ingests, in trace order, only the events
whose announced prefix hashes to ``i``, into its own
:class:`~repro.tenants.pipeline.DetectionPlane` over the inherited tree,
and sends one result dict home.

Splitting by announced prefix is exact: every piece of plane state — the
alert-manager key, the evidence duplicate gate, the verdict-cache key — is
keyed by the announced prefix, and the plane never resolves an incident,
so each key sees the same ordered subsequence of events under any
partition.  The merged :func:`~repro.tenants.pipeline.merged_alert_digest`
is therefore bit-identical to the single-process plane's for every worker
count.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, List, Sequence

from repro.errors import ReproError
from repro.feeds.events import FeedEvent
from repro.perf import COUNTERS as _COUNTERS, sample_memory
from repro.tenants.flattree import FlatPrefixTree
from repro.tenants.pipeline import DetectionPlane, merged_alert_digest
from repro.tenants.registry import TenantRegistry


class TenantWorkerError(ReproError):
    """A detection worker raised, or died before reporting its result."""


def _run_share(
    registry: TenantRegistry,
    tree: FlatPrefixTree,
    events: Sequence[FeedEvent],
    worker: int,
    num_workers: int,
    batch_size: int,
) -> Dict:
    """Detect over worker ``worker``'s share of ``events``; the result dict."""
    perf_mark = _COUNTERS.as_dict()
    cpu_mark = time.process_time()
    plane = DetectionPlane(registry, tree=tree, batch_size=batch_size)
    ingest = plane.ingest
    for event in events:
        # ``hash`` and not ``Prefix.ikey``: ikey's low bit is always 0, so
        # ``ikey % 2`` would send every event to worker 0.
        if hash(event.prefix) % num_workers == worker:
            ingest(event)
    plane.flush()
    sample_memory()
    return {
        "rows": plane.incident_rows(),
        "alerts": plane.total_alerts(),
        "events_ingested": plane.events_ingested,
        "perf": _COUNTERS.delta_since(perf_mark),
        "cpu_seconds": time.process_time() - cpu_mark,
    }


def _worker_main(conn, *share_args) -> None:
    """Forked worker body: run one share, send the result or the error."""
    try:
        conn.send(_run_share(*share_args))
    except BaseException as exc:  # noqa: BLE001 - report, then exit
        conn.send({"error": repr(exc)})
    finally:
        conn.close()


def run_partitioned(
    registry: TenantRegistry,
    events: Sequence[FeedEvent],
    num_workers: int,
    batch_size: int = 256,
) -> Dict:
    """Detect over ``events`` split across ``num_workers`` forked workers.

    ``num_workers == 1`` runs in process and forks nothing.  Worker perf
    deltas merge into the parent's counters (sum for counters, max for
    gauges).  Returns::

        {"rows", "digest", "alerts", "events_seen",
         "cpu_seconds": [per worker], "critical_path_cpu"}

    A worker that raises re-raises here as :class:`TenantWorkerError` with
    the worker's message; one that exits without reporting raises
    ``TenantWorkerError("... died before reporting")``.
    """
    if num_workers < 1:
        raise ReproError("num_workers must be >= 1")
    tree = FlatPrefixTree(registry)
    if num_workers == 1:
        payloads = [_run_share(registry, tree, events, 0, 1, batch_size)]
    else:
        payloads = _fork_shares(registry, tree, events, num_workers, batch_size)
        for payload in payloads:
            _COUNTERS.merge(payload["perf"])
    rows: List = []
    for payload in payloads:
        rows.extend(payload["rows"])
    rows.sort()
    cpu = [payload["cpu_seconds"] for payload in payloads]
    return {
        "rows": rows,
        "digest": merged_alert_digest(rows),
        "alerts": sum(payload["alerts"] for payload in payloads),
        "events_seen": sum(payload["events_ingested"] for payload in payloads),
        "cpu_seconds": cpu,
        "critical_path_cpu": max(cpu),
    }


def _fork_shares(
    registry: TenantRegistry,
    tree: FlatPrefixTree,
    events: Sequence[FeedEvent],
    num_workers: int,
    batch_size: int,
) -> List[Dict]:
    """Fork one worker per share and collect their result dicts in order."""
    context = multiprocessing.get_context("fork")
    conns = []
    processes = []
    try:
        for worker in range(num_workers):
            parent_conn, child_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=_worker_main,
                args=(
                    child_conn, registry, tree, events, worker, num_workers,
                    batch_size,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            conns.append(parent_conn)
            processes.append(process)
        payloads = []
        for worker, conn in enumerate(conns):
            try:
                payload = conn.recv()
            except EOFError:
                raise TenantWorkerError(
                    f"detect worker {worker} died before reporting"
                ) from None
            if "error" in payload:
                raise TenantWorkerError(
                    f"detect worker {worker}: {payload['error']}"
                )
            payloads.append(payload)
    except BaseException:
        for process in processes:
            process.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for process in processes:
            process.join()
    return payloads
