"""Tests for the command-line interface (driving main() in-process)."""

import json

import pytest

from repro.cli import build_parser, main

FAST_WORLD = [
    "--tier1", "3", "--tier2", "10", "--stubs", "25", "--no-churn",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.seed == 1
        assert args.prefix == "10.0.0.0/23"
        assert not args.forge_origin

    def test_baseline_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["baselines", "--systems", "voodoo"])


class TestCommands:
    def test_topology(self, tmp_path, capsys):
        out = str(tmp_path / "topo.txt")
        assert main(["topology", "--tier1", "3", "--tier2", "5", "--stubs", "8", out]) == 0
        content = open(out).read()
        assert "|-1" in content
        assert "16 ASes" in capsys.readouterr().out

    def test_experiment_json(self, tmp_path, capsys):
        out = str(tmp_path / "result.json")
        code = main(["experiment", "--seed", "2", "--json", out] + FAST_WORLD)
        assert code == 0
        text = capsys.readouterr().out
        assert "detection delay" in text
        payload = json.loads(open(out).read())
        assert payload["seed"] == 2
        assert payload["mitigated"] is True

    def test_suite(self, tmp_path, capsys):
        out = str(tmp_path / "suite.json")
        code = main(["suite", "--runs", "2", "--json", out] + FAST_WORLD)
        assert code == 0
        text = capsys.readouterr().out
        assert "timings over 2 experiments" in text
        assert len(json.loads(open(out).read())) == 2

    def test_demo_frames(self, tmp_path, capsys):
        out = str(tmp_path / "frames.json")
        code = main(
            ["demo", "--seed", "2", "--frames", "3", "--json", out] + FAST_WORLD
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "O=legit" in text
        payload = json.loads(open(out).read())
        assert payload["frames"]

    def test_forged_experiment(self, capsys):
        code = main(["experiment", "--seed", "11", "--forge-origin"] + FAST_WORLD)
        assert code == 0
        assert "detection delay" in capsys.readouterr().out


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    """A short recorded hijack trace (a few dozen records)."""
    path = str(tmp_path_factory.mktemp("cli_trace") / "small.trace")
    code = main(
        ["experiment", "--seed", "4", "--hijack-prefix", "10.0.0.0/24",
         "--record-trace", path] + FAST_WORLD
    )
    assert code == 0
    return path


class TestTenantReplay:
    def _replay(self, trace, tmp_path, workers, *extra):
        out = str(tmp_path / f"w{workers}.json")
        code = main(
            ["replay", trace, "--synth-tenants", "4",
             "--detect-workers", str(workers), "--json", out, *extra]
        )
        assert code == 0
        return json.loads(open(out).read())

    def test_max_events_bounds_every_worker_count(self, small_trace, tmp_path):
        """--max-events stops the worker path after the same first records."""
        single = self._replay(small_trace, tmp_path, 1, "--max-events", "10")
        parallel = self._replay(small_trace, tmp_path, 2, "--max-events", "10")
        assert single["events_seen"] == 10
        assert parallel["events_seen"] == single["events_seen"]
        assert parallel["merged_alert_digest"] == single["merged_alert_digest"]


    def test_damaged_trace_exits_2_with_workers(self, small_trace, tmp_path):
        lines = open(small_trace, encoding="utf-8").read().splitlines(True)
        lines[2] = "A|rv|col1|99|not-a-prefix|99 100|1.0|1.0\n"
        bad = tmp_path / "bad.trace"
        bad.write_text("".join(lines), encoding="utf-8")
        code = main(
            ["replay", str(bad), "--synth-tenants", "5", "--detect-workers", "2"]
        )
        assert code == 2


class TestProfileAndJobs:
    def test_profile_prints_counter_table(self, capsys):
        code = main(["experiment", "--seed", "2", "--profile"] + FAST_WORLD)
        assert code == 0
        text = capsys.readouterr().out
        assert "perf counters" in text
        assert "events processed" in text
        assert "events / sec" in text

    def test_no_profile_no_counter_table(self, capsys):
        code = main(["experiment", "--seed", "2"] + FAST_WORLD)
        assert code == 0
        assert "perf counters" not in capsys.readouterr().out

    def test_profile_json_experiment(self, tmp_path):
        out = str(tmp_path / "profile.json")
        code = main(
            ["experiment", "--seed", "2", "--profile-json", out] + FAST_WORLD
        )
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["command"] == "experiment"
        assert payload["elapsed_seconds"] > 0
        assert payload["counters"]["events_processed"] > 0
        assert payload["counters"]["updates_processed"] > 0
        walls = payload["phase_walls"]
        assert set(walls) == {"setup", "phase1", "phase2", "phase3"}
        assert all(seconds >= 0 for seconds in walls.values())

    def test_profile_json_suite_merges_workers(self, tmp_path):
        out = str(tmp_path / "profile.json")
        code = main(
            ["suite", "--runs", "2", "--jobs", "2", "--profile-json", out]
            + FAST_WORLD
        )
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["command"] == "suite"
        # Worker counters are merged back into the parent's totals.
        assert payload["counters"]["events_processed"] > 0
        # Suite phase walls are summed across the runs.
        assert payload["phase_walls"]["phase1"] > 0

    def test_suite_jobs_flag(self, tmp_path, capsys):
        out = str(tmp_path / "suite.json")
        code = main(
            ["suite", "--runs", "2", "--jobs", "2", "--json", out] + FAST_WORLD
        )
        assert code == 0
        assert "timings over 2 experiments" in capsys.readouterr().out
        assert len(json.loads(open(out).read())) == 2

    def test_jobs_default_is_serial(self):
        args = build_parser().parse_args(["suite"])
        assert args.jobs == 1
