"""``repro profile``'s engine: timeline structure, lanes, counters, CLI surface."""

from __future__ import annotations

import json

import pytest

from repro.campaign.profiler import profile_run
from repro.campaign.spec import table_one_spec
from repro.cli import main
from repro.obs.spans import FRAMEWORK_PID, SIMULATION_PID
from repro.platform.rtos.scheduler import RTOSScheduler


@pytest.fixture(scope="module")
def profiled():
    """Scheme 3 (interfered) table1 coordinate: misses deadlines, so the
    timeline exercises segments, preemptions and deadline instants."""
    return profile_run(table_one_spec(samples=2).expand()[2])


class TestTimeline:
    def test_worker_phases_on_the_framework_lane(self, profiled):
        events = profiled.timeline()["traceEvents"]
        phases = [
            e["name"] for e in events if e.get("ph") == "X" and e["pid"] == FRAMEWORK_PID
        ]
        assert phases[0] == "codegen"
        assert "build" in phases
        assert phases[-1] == "analyze"
        assert "execute" in phases

    def test_task_segments_on_the_simulation_lane(self, profiled):
        events = profiled.timeline()["traceEvents"]
        segments = [
            e for e in events if e.get("cat") == "segment" and e["pid"] == SIMULATION_PID
        ]
        assert segments
        # Simulated timestamps are integer microseconds from the virtual clock.
        assert all(float(e["ts"]).is_integer() for e in segments)
        task_names = {e["name"] for e in segments}
        assert len(task_names) >= 2  # more than one RTOS task ran

    def test_deadline_misses_are_instants(self, profiled):
        events = profiled.timeline()["traceEvents"]
        misses = [e for e in events if e.get("cat") == "deadline"]
        assert misses  # scheme 3 under interference misses deadlines
        assert all(e["ph"] == "i" for e in misses)

    def test_preempted_segments_are_flagged(self, profiled):
        events = profiled.timeline()["traceEvents"]
        preempted = [
            e
            for e in events
            if e.get("cat") == "segment" and e.get("args", {}).get("preempted")
        ]
        assert preempted  # interference preempts the control task

    def test_rerendered_simulation_lane_is_deterministic(self):
        spec = table_one_spec(samples=2).expand()[2]
        first = profile_run(spec).timeline()["traceEvents"]
        second = profile_run(spec).timeline()["traceEvents"]
        sim_first = [e for e in first if e.get("pid") == SIMULATION_PID]
        sim_second = [e for e in second if e.get("pid") == SIMULATION_PID]
        assert sim_first == sim_second

    def test_quiescent_windows_keep_the_simulation_lane(self, monkeypatch):
        """A scheme-2 profile replays idle stretches in windows, and its
        simulated-time lane is the one the callback path draws."""
        spec = table_one_spec(samples=2).expand()[1]
        assert spec.scheme == 2
        windowed = profile_run(spec)
        assert windowed.counters["kernel_window_events"] > 0
        monkeypatch.setattr(
            RTOSScheduler,
            "fast_forward",
            lambda scheduler, limit_us: min(
                task.release_handle.time_us for task in scheduler.tasks
            ),
        )
        callback = profile_run(spec)
        assert callback.counters["kernel_window_events"] == 0

        def lane(result):
            events = result.timeline()["traceEvents"]
            return [e for e in events if e.get("pid") == SIMULATION_PID]

        assert lane(windowed) == lane(callback)

    def test_self_time_table_lists_every_phase(self, profiled):
        table = profiled.self_time_table()
        for phase in ("codegen", "build", "execute", "analyze"):
            assert phase in table


class TestProfileCLI:
    def test_profile_command_writes_a_loadable_timeline(self, tmp_path, capsys):
        timeline = tmp_path / "timeline.json"
        exit_code = main(
            ["profile", "--index", "0", "--samples", "2", "--timeline", str(timeline)]
        )
        assert exit_code == 0
        document = json.loads(timeline.read_text(encoding="utf-8"))
        assert document["displayTimeUnit"] == "ms"
        assert any(e["name"] == "execute" for e in document["traceEvents"])
        out = capsys.readouterr().out
        assert "phase" in out and "self (ms)" in out
        assert "engine counters:" in out

    def test_profile_list_enumerates_coordinates(self, capsys):
        assert main(["profile", "--list"]) == 0
        out = capsys.readouterr().out
        assert "3 coordinates" in out

    def test_profile_rejects_out_of_range_index(self, capsys):
        assert main(["profile", "--index", "99"]) == 2
        assert "outside grid" in capsys.readouterr().err
