"""Unit tests for the discrete-event simulation kernel."""

import random

import pytest

from repro.platform.kernel.simulator import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(30, lambda: fired.append("c"))
        sim.schedule_at(10, lambda: fired.append("a"))
        sim.schedule_at(20, lambda: fired.append("b"))
        sim.run_until(100)
        assert fired == ["a", "b", "c"]

    def test_same_time_fires_in_priority_then_fifo_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(10, lambda: fired.append("low"), priority=5)
        sim.schedule_at(10, lambda: fired.append("first"), priority=0)
        sim.schedule_at(10, lambda: fired.append("second"), priority=0)
        sim.run_until(100)
        assert fired == ["first", "second", "low"]

    def test_relative_schedule_uses_current_time(self):
        sim = Simulator()
        times = []
        sim.schedule(10, lambda: sim.schedule(5, lambda: times.append(sim.now)))
        sim.run_until(100)
        assert times == [15]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule_at(123, lambda: times.append(sim.now))
        sim.run_until(1000)
        assert times == [123]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule_at(50, lambda: None)
        sim.run_until(50)
        with pytest.raises(SimulationError):
            sim.schedule_at(10, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(10, lambda: fired.append("x"))
        handle.cancel()
        sim.run_until(100)
        assert fired == []
        assert handle.cancelled and not handle.fired

    def test_cancel_twice_is_harmless(self):
        sim = Simulator()
        handle = sim.schedule_at(10, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run_until(100)
        assert not handle.fired

    def test_pending_flag(self):
        sim = Simulator()
        handle = sim.schedule_at(10, lambda: None)
        assert handle.pending
        sim.run_until(100)
        assert not handle.pending and handle.fired

    def test_pending_events_counter_tracks_cancellations(self):
        sim = Simulator()
        handles = [sim.schedule_at(10 * i, lambda: None) for i in range(1, 6)]
        assert sim.pending_events == 5
        handles[0].cancel()
        handles[2].cancel()
        assert sim.pending_events == 3
        handles[2].cancel()  # double-cancel must not double-count
        assert sim.pending_events == 3
        sim.run_until(100)
        assert sim.pending_events == 0
        assert sim.events_processed == 3

    def test_cancel_after_fire_does_not_corrupt_counter(self):
        sim = Simulator()
        handle = sim.schedule_at(10, lambda: None)
        sim.schedule_at(20, lambda: None)
        sim.run_until(15)
        handle.cancel()  # already fired: a no-op
        assert not handle.cancelled
        assert sim.pending_events == 1
        sim.run_until(100)
        assert sim.pending_events == 0

    def test_heap_compaction_reclaims_cancelled_entries(self):
        sim = Simulator()
        cancelled = [sim.schedule_at(1_000_000 + i, lambda: None) for i in range(200)]
        keeper_fired = []
        sim.schedule_at(500, lambda: keeper_fired.append(sim.now))
        for handle in cancelled:
            handle.cancel()
        # Cancelled entries dominated the heap, so compaction dropped them
        # without waiting for their pop.
        assert len(sim._queue) < 100
        assert sim.pending_events == 1
        sim.run_until(2_000_000)
        assert keeper_fired == [500]
        assert sim.pending_events == 0


class TestRunUntil:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(10, lambda: fired.append(10))
        sim.schedule_at(20, lambda: fired.append(20))
        sim.schedule_at(30, lambda: fired.append(30))
        sim.run_until(20)
        assert fired == [10, 20]
        assert sim.now == 20

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run_until(500)
        assert sim.now == 500

    def test_run_until_then_continue(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(10, lambda: fired.append(10))
        sim.schedule_at(40, lambda: fired.append(40))
        sim.run_until(20)
        sim.run_until(50)
        assert fired == [10, 40]

    def test_run_until_past_target_raises(self):
        sim = Simulator()
        sim.run_until(100)
        with pytest.raises(SimulationError):
            sim.run_until(50)


class TestRunBounds:
    def test_events_processed_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule_at(t, lambda: None)
        sim.run_until(10)
        assert sim.events_processed == 5


class TestDormantChains:
    """A dormant periodic chain dispatches exactly like a no-op callback chain."""

    HORIZONS = (57, 133, 250, 401, 600)

    @staticmethod
    def _drive(seed, mark_dormant):
        """Twin workload: a chain that is idle except after a wake, an
        equal-period chain on the same instants, and random one-shots that
        land on the chain's instants (some scheduled mid-run for its pending
        or following instant) and wake it.  With ``mark_dormant`` the chain's
        idle spells are marked on its handle; otherwise its callback just
        does nothing."""
        sim = Simulator()
        rng = random.Random(seed)
        log = []
        awake = [False]
        spawned = [0]

        def chain():
            if awake[0]:
                log.append((sim.now, "chain"))
                awake[0] = False
                if mark_dormant:
                    handle.dormant = True

        handle = sim.schedule_periodic(3, 10, chain, priority=0, label="chain")
        handle.dormant = mark_dormant
        sim.schedule_periodic(3, 10, lambda: log.append((sim.now, "twin")), label="twin")

        def one_shot(tag):
            def fire():
                log.append((sim.now, tag))
                if rng.random() < 0.25:
                    awake[0] = True
                    handle.dormant = False
                if spawned[0] < 300:
                    spawned[0] += 1
                    roll = rng.random()
                    # Outside its own callback the handle's time is the
                    # chain's pending instant; one period later is the
                    # instant its next re-arm will draw a sequence for.
                    if roll < 0.3:
                        at, suffix = handle.time_us, "pending"
                    elif roll < 0.6:
                        at, suffix = handle.time_us + handle.period_us, "following"
                    else:
                        at, suffix = sim.now, "now"
                    if roll < 0.85:
                        sim.schedule_at(
                            at, one_shot(f"{tag}>{suffix}"), priority=rng.randrange(-1, 2)
                        )

            return fire

        for index in range(40):
            at = 3 + 10 * rng.randrange(40) if rng.random() < 0.7 else rng.randrange(400)
            sim.schedule_at(at, one_shot(f"r{index}"), priority=rng.randrange(-1, 2))
        for horizon in TestDormantChains.HORIZONS:
            sim.run_until(horizon)
            log.append(("clock", sim.now))
        return log, sim.counters()

    @pytest.mark.parametrize("seed", [0, 1, 5, 17, 2014])
    def test_dispatch_order_matches_a_no_op_chain(self, seed):
        dormant_log, dormant_counters = self._drive(seed, True)
        plain_log, plain_counters = self._drive(seed, False)
        assert dormant_log == plain_log
        assert dormant_counters["kernel_dormant_rearms"] > 0
        assert plain_counters["kernel_dormant_rearms"] == 0
        # Dormant re-arms still count as processed events.
        assert (
            dormant_counters["kernel_events_processed"]
            == plain_counters["kernel_events_processed"]
        )

    def test_cancel_clears_the_mark_and_stops_the_chain(self):
        sim = Simulator()
        handle = sim.schedule_periodic(0, 10, lambda: None)
        handle.dormant = True
        sim.run_until(25)
        handle.cancel()
        assert not handle.dormant
        sim.run_until(100)
        assert sim.pending_events == 0
        assert sim.counters()["kernel_dormant_rearms"] == 3

    @pytest.mark.parametrize("absolute", [False, True], ids=["schedule", "schedule_at"])
    def test_recycled_handle_never_inherits_the_mark(self, absolute):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(5, lambda: None)
        sim.run_until(5)
        handle.dormant = True
        schedule = sim.schedule_at if absolute else sim.schedule
        again = schedule(10 if absolute else 5, lambda: fired.append(sim.now), reuse=handle)
        assert again is handle and not again.dormant
        sim.run_until(20)
        assert fired == [10]


class TestSkipWindow:
    """Skipping a window in one step leaves the queue as re-arming would."""

    @staticmethod
    def _drive(seed, skip):
        """Dormant chains of mixed periods and phases — some starting one or
        more periods after another chain on the same phase — until a wake-up
        at the window's end makes every chain log, plus a one-shot tied with
        them.  With ``skip`` the window is crossed by ``skip_window``;
        otherwise ``run_until`` re-arms every dormant instant."""
        sim = Simulator()
        rng = random.Random(seed)
        log = []
        handles = []
        end = 200 + rng.randrange(50)

        def chain(index):
            return lambda: log.append((sim.now, index))

        def wake():
            log.append((sim.now, "wake"))
            for handle in handles:
                handle.dormant = False

        for index in range(8):
            period = rng.choice((4, 5, 10, 20))
            delay = rng.randrange(period) + period * rng.randrange(4)
            handle = sim.schedule_periodic(delay, period, chain(index))
            handle.dormant = True
            handles.append(handle)
        sim.schedule_at(end, wake)
        sim.schedule_at(end + rng.randrange(20), lambda: log.append((sim.now, "tied")))
        if skip:
            sim.skip_window(end, {}, 0, 0)
        sim.run_until(end + 100)
        counters = sim.counters()
        return log, counters, counters.pop("kernel_window_events")

    @pytest.mark.parametrize("seed", range(12))
    def test_rekeyed_chains_fire_in_callback_order(self, seed):
        skipped_log, skipped, window_events = self._drive(seed, True)
        rearmed_log, rearmed, no_window_events = self._drive(seed, False)
        assert skipped_log == rearmed_log
        assert skipped == rearmed
        assert window_events > 0 and no_window_events == 0

    def test_an_active_entry_inside_the_window_is_refused(self):
        sim = Simulator()
        sim.schedule_periodic(0, 10, lambda: None).dormant = True
        sim.schedule_at(15, lambda: None, label="latch")
        with pytest.raises(SimulationError, match="'latch' .* inside a window"):
            sim.skip_window(30, {}, 0, 0)
