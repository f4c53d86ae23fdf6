"""Recorded-trace replay: format, digest identity, and the clock seams.

The contract under test (see DESIGN.md "Trace format"):

* a trace written by :class:`TraceRecorder` round-trips bit-exactly
  through :func:`load_trace`, and damage (truncation, edits, bad counts)
  is a clean :class:`TraceError`, never a hang or a silent partial load;
* replaying a recorded run — flat-out or paced at any speed — reproduces
  the live run's alert sequence digest, per-source detection delays, and
  monitoring lag tables *exactly* (the event-time contract);
* the supervisor under replay measures staleness in recorded time: a
  flat-out replay never false-fails a healthy source, a paused replay
  cannot age one into DEAD, and a recorded outage plan still produces the
  DEAD → LIVE transition sequence;
* byte-identical duplicate deliveries (a ``dup`` fault on the replay
  path) never found new incidents or re-key first evidence.
"""

from __future__ import annotations

import io

import pytest

from conftest import fast_scenario
from repro.core.alerts import AlertManager, AlertType
from repro.faults import Fault, FaultPlan
from repro.feeds.events import ANNOUNCE, FeedEvent
from repro.feeds.replay import (
    ReplayClock,
    ReplaySession,
    ReplayTap,
    TraceError,
    TraceWriter,
    VirtualTimer,
    alert_sequence_digest,
    load_trace,
)
from repro.net.prefix import Prefix
from repro.testbed.scenario import HijackExperiment

PREFIX = Prefix.parse("10.0.0.0/23")


def make_events(count: int = 6, source: str = "ris") -> list:
    return [
        FeedEvent(
            source=source,
            collector=f"{source}-rrc0",
            vantage_asn=100 + i,
            kind=ANNOUNCE,
            prefix=PREFIX,
            as_path=(100 + i, 666),
            observed_at=float(i),
            delivered_at=float(i) + 0.5,
        )
        for i in range(count)
    ]


# ------------------------------------------------------------- trace format


class TestTraceFormat:
    def test_roundtrip_preserves_events_and_meta(self, tmp_path):
        path = str(tmp_path / "t.trace")
        events = make_events()
        with TraceWriter(path, meta={"seed": 7}) as writer:
            for event in events:
                writer.append(event)
            writer.close(meta={"hijack_time": 2.5})
        trace = load_trace(path)
        assert len(trace.events) == len(events)
        for original, loaded in zip(events, trace.events):
            assert loaded.content_key() == original.content_key()
        assert trace.meta["seed"] == 7
        assert trace.hijack_time == 2.5
        assert trace.source_names() == ("ris",)

    def test_truncated_trace_is_a_clean_error(self, tmp_path):
        path = str(tmp_path / "t.trace")
        with TraceWriter(path) as writer:
            for event in make_events():
                writer.append(event)
            writer.close()
        lines = open(path, encoding="utf-8").read().splitlines(keepends=True)
        cut = str(tmp_path / "cut.trace")
        with open(cut, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-2])  # drop footer and one record
        with pytest.raises(TraceError, match="truncated"):
            load_trace(cut)

    def test_corrupt_record_fails_digest_check(self, tmp_path):
        path = str(tmp_path / "t.trace")
        with TraceWriter(path) as writer:
            for event in make_events():
                writer.append(event)
            writer.close()
        lines = open(path, encoding="utf-8").read().splitlines(keepends=True)
        lines[3] = lines[3].replace("666", "667")
        bad = str(tmp_path / "bad.trace")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(TraceError, match="digest"):
            load_trace(bad)

    def test_wrong_record_count_rejected(self):
        buffer = io.StringIO()
        writer = TraceWriter(buffer)
        for event in make_events(3):
            writer.append(event)
        writer.records = 99  # lie in the footer
        writer.close()
        with pytest.raises(TraceError, match="99"):
            load_trace(io.StringIO(buffer.getvalue()))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda line: line.rsplit("|", 1)[0] + "\n",  # 7 fields, not 8
            lambda line: line.replace("10.0.0.0/23", "10.0.0.0/99"),
        ],
        ids=["field-count", "unparsable-prefix"],
    )
    def test_malformed_record_is_a_bad_record_error(self, tmp_path, damage):
        path = str(tmp_path / "t.trace")
        with TraceWriter(path) as writer:
            for event in make_events():
                writer.append(event)
            writer.close()
        lines = open(path, encoding="utf-8").read().splitlines(keepends=True)
        lines[2] = damage(lines[2])
        bad = str(tmp_path / "bad.trace")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(TraceError, match="bad record at line 3"):
            load_trace(bad)

    def test_missing_header_rejected(self):
        with pytest.raises(TraceError, match="header"):
            load_trace(io.StringIO("not a trace\n"))

    def test_future_version_rejected(self):
        buffer = io.StringIO()
        writer = TraceWriter(buffer)
        writer.close()
        text = buffer.getvalue().replace('"version": 1', '"version": 999')
        with pytest.raises(TraceError, match="version"):
            load_trace(io.StringIO(text))

    def test_embedded_config_roundtrips(self, tmp_path):
        from repro.core.config import ArtemisConfig, OwnedPrefix

        config = ArtemisConfig(owned=[OwnedPrefix(PREFIX, {64500})])
        path = str(tmp_path / "t.trace")
        with TraceWriter(path, config=config) as writer:
            writer.close()
        trace = load_trace(path)
        assert trace.config is not None
        assert [str(entry.prefix) for entry in trace.config.owned] == [str(PREFIX)]


# ------------------------------------------------- recorded live experiment


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One fast live run, recorded; plus the live-side reference numbers."""
    # Seed 4 is deliberate: the live run raises *two* alert objects for one
    # incident pattern (post-resolve straggler evidence under cooldown 0),
    # which the replay — no mitigation, so no resolve — folds into one.
    # The digest must be invariant to exactly that bookkeeping difference.
    path = str(tmp_path_factory.mktemp("trace") / "fast.trace")
    experiment = HijackExperiment(fast_scenario(seed=4, record_trace=path))
    result = experiment.run()
    assert result.detection_delay is not None  # the comparisons must bite
    return {
        "path": path,
        "result": result,
        "live_digest": alert_sequence_digest(experiment.artemis.alerts),
        "live_lag": experiment.artemis.monitoring.mean_lag_by_source(),
        "live_fraction": experiment.artemis.monitoring.fraction_series(PREFIX),
    }


@pytest.fixture(scope="module")
def unrecorded_result():
    """The same run without the recorder: recording must be a no-op."""
    return HijackExperiment(fast_scenario(seed=4)).run()


class TestRecordedReplay:
    def test_recording_does_not_perturb_the_live_run(
        self, recorded, unrecorded_result
    ):
        with_tap = recorded["result"]
        without = unrecorded_result
        assert with_tap.detection_delay == without.detection_delay
        assert with_tap.total_time == without.total_time
        assert with_tap.per_source_delay_final == without.per_source_delay_final
        assert with_tap.source_lag == without.source_lag

    def test_flat_out_replay_is_digest_identical(self, recorded):
        session = ReplaySession(recorded["path"])
        report = session.run()
        assert report["finished"]
        assert report["alert_digest"] == recorded["live_digest"]
        assert report["detection_delay"] == recorded["result"].detection_delay
        assert (
            report["per_source_delay_final"]
            == recorded["result"].per_source_delay_final
        )
        assert report["mean_lag_by_source"] == recorded["live_lag"]

    def test_paced_replay_matches_flat_out_bit_for_bit(self, recorded):
        # The monitoring-lag and digest arithmetic is event-time only, so
        # 1x, 10x, and flat-out replays of one trace must agree exactly.
        timer_1x, timer_10x = VirtualTimer(), VirtualTimer()
        at_1x = ReplaySession(recorded["path"], speed=1.0, timer=timer_1x)
        at_10x = ReplaySession(recorded["path"], speed=10.0, timer=timer_10x)
        flat = ReplaySession(recorded["path"])
        report_1x, report_10x, report_flat = at_1x.run(), at_10x.run(), flat.run()
        assert (
            report_1x["alert_digest"]
            == report_10x["alert_digest"]
            == report_flat["alert_digest"]
            == recorded["live_digest"]
        )
        assert (
            report_1x["mean_lag_by_source"]
            == report_10x["mean_lag_by_source"]
            == report_flat["mean_lag_by_source"]
        )
        assert (
            at_1x.monitoring.fraction_series(PREFIX)
            == at_10x.monitoring.fraction_series(PREFIX)
            == flat.monitoring.fraction_series(PREFIX)
            == recorded["live_fraction"]
        )
        # Pacing itself still scales with speed: 10x sleeps ~10x less.
        assert timer_1x.slept > timer_10x.slept > 0

    def test_session_without_config_requires_explicit_one(self, tmp_path):
        path = str(tmp_path / "bare.trace")
        with TraceWriter(path) as writer:  # no embedded config
            for event in make_events():
                writer.append(event)
            writer.close()
        with pytest.raises(TraceError, match="config"):
            ReplaySession(path)

    def test_replay_is_resumable(self, recorded):
        session = ReplaySession(recorded["path"])
        session.run(max_events=10)
        assert not session.tap.finished
        assert session.tap.records_read == 10
        report = session.run()
        assert report["finished"]
        assert report["alert_digest"] == recorded["live_digest"]


# ------------------------------------------------- supervisor clock seams


class TestReplaySupervision:
    def test_flat_out_replay_never_false_fails_a_source(self, recorded):
        # Hours of recorded quiet drain in milliseconds; staleness runs on
        # the replay clock, so nothing may be declared DEAD.
        session = ReplaySession(
            recorded["path"],
            supervise=True,
            supervision=dict(check_interval=5.0, staleness_timeout=30.0),
        )
        report = session.run()
        assert report["supervisor_transitions"] == []
        assert all(
            entry["state"] == "live" for entry in report["source_report"].values()
        )

    def test_paused_replay_does_not_age_sources_into_dead(self, recorded):
        session = ReplaySession(
            recorded["path"],
            supervise=True,
            supervision=dict(check_interval=5.0, staleness_timeout=10.0),
        )
        session.run(max_events=20)
        # The operator walks away; wall time passes, the replay clock does
        # not.  However often supervision fires, nothing may die.
        for _ in range(50):
            session.supervisor.check_now()
        assert session.supervisor.dead_sources() == ()
        assert session.supervisor.transitions == []

    def test_recorded_outage_produces_dead_then_live(self, recorded):
        trace = load_trace(recorded["path"])
        hijack = trace.hijack_time
        span_end = trace.events[-1].delivered_at
        window = min(120.0, span_end - hijack - 30.0)
        plan = FaultPlan(
            [Fault("outage", "ris", at=5.0, duration=window)], name="ris-out"
        )
        session = ReplaySession(
            recorded["path"],
            faults=plan,
            supervise=True,
            supervision=dict(
                check_interval=5.0, staleness_timeout=10.0, backoff_base=1.0
            ),
        )
        report = session.run()
        states = [
            (source, state)
            for _when, source, state in report["supervisor_transitions"]
        ]
        assert ("ris", "dead") in states
        assert ("ris", "live") in states
        assert states.index(("ris", "dead")) < states.index(("ris", "live"))
        assert report["events_dropped"] > 0
        assert report["source_report"]["ris"]["outages"] >= 1
        assert report["source_report"]["ris"]["state"] == "live"


# ------------------------------------------- duplicate-delivery idempotence


class TestDuplicateReplayIdempotence:
    def test_dup_heavy_replay_does_not_duplicate_alerts(self, recorded):
        clean = ReplaySession(recorded["path"]).run()
        plan = FaultPlan(
            [
                Fault("dup", target, at=0.0, duration=100000.0, probability=1.0)
                for target in ("ris", "bgpmon", "periscope")
            ],
            name="dup-everything",
        )
        session = ReplaySession(recorded["path"], faults=plan)
        report = session.run()
        # Every event delivered twice, byte-identically: the incident list,
        # its timing, and the first-evidence table must not move.
        assert report["alerts"] == clean["alerts"]
        assert report["detection_delay"] == clean["detection_delay"]
        assert report["per_source_delay_final"] == clean["per_source_delay_final"]
        assert report["duplicate_events_skipped"] > 0
        assert session.detection.duplicate_events_skipped > 0

    def test_duplicate_cannot_found_an_incident(self):
        manager = AlertManager(cooldown=5.0)
        event = make_events(1)[0]
        owned, announced = PREFIX, PREFIX
        alert, is_new = manager.ingest(
            AlertType.EXACT_ORIGIN, owned, announced, 666, event, allow_new=False
        )
        assert alert is None and not is_new
        assert len(manager) == 0

    def test_duplicate_still_attaches_to_active_incident(self):
        manager = AlertManager(cooldown=5.0)
        event = make_events(1)[0]
        alert, is_new = manager.ingest(
            AlertType.EXACT_ORIGIN, PREFIX, PREFIX, 666, event
        )
        assert is_new
        again, is_new = manager.ingest(
            AlertType.EXACT_ORIGIN, PREFIX, PREFIX, 666, event, allow_new=False
        )
        assert again is alert and not is_new
        assert len(alert.evidence) == 2

    def test_duplicate_cannot_resurrect_a_resolved_incident(self):
        manager = AlertManager(cooldown=1.0)
        events = make_events(6)
        alert, _ = manager.ingest(
            AlertType.EXACT_ORIGIN, PREFIX, PREFIX, 666, events[0]
        )
        alert.resolve(events[0].delivered_at)
        # A reordered byte-identical copy surfaces long past the cooldown:
        # without allow_new gating this would refire the incident.
        late = events[5]
        refired, is_new = manager.ingest(
            AlertType.EXACT_ORIGIN, PREFIX, PREFIX, 666, late, allow_new=False
        )
        assert refired is None and not is_new
        assert len(manager) == 1


# ------------------------------------------------------------ replay pieces


class TestReplayTapMechanics:
    def test_clock_is_monotone(self):
        clock = ReplayClock(10.0)
        clock.advance(5.0)
        assert clock.now == 10.0
        clock.advance(12.5)
        assert clock.now == 12.5

    def test_tap_filters_by_subscription_interest(self):
        tap = ReplayTap(make_events())
        seen = []
        tap.subscribe(seen.append, prefixes=[Prefix.parse("192.0.2.0/24")])
        tap.run()
        assert seen == []
        assert tap.events_filtered == len(tap.events)

    def test_unexpressible_fault_kinds_are_reported_not_silent(self):
        plan = FaultPlan(
            [Fault("delay", "ris", at=0.0, duration=10.0, factor=3.0)]
        )
        tap = ReplayTap(make_events(), faults=plan, arm_at=0.0)
        assert tap.injector.skipped == ["delay:ris"]
