"""Tests for the discrete-event queue."""

import pytest

from repro.network.events import EventQueue
from repro.utils.exceptions import ConfigurationError


class TestScheduling:
    def test_fires_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda: fired.append("late"))
        queue.schedule(1.0, lambda: fired.append("early"))
        queue.run()
        assert fired == ["early", "late"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        for name in "abc":
            queue.schedule(1.0, lambda n=name: fired.append(n))
        queue.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        queue = EventQueue()
        seen = []
        queue.schedule(3.5, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [3.5]
        assert queue.now == 3.5

    def test_schedule_after_is_relative(self):
        queue = EventQueue()
        times = []
        queue.schedule(1.0, lambda: queue.schedule_after(0.5, lambda: times.append(queue.now)))
        queue.run()
        assert times == [1.5]

    def test_rejects_past_events(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.run()
        with pytest.raises(ConfigurationError):
            queue.schedule(0.5, lambda: None)

    def test_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            EventQueue().schedule_after(-0.1, lambda: None)

    def test_rejects_nan_time_and_delay(self):
        # NaN compares false against everything: a "< now" check would let
        # it into the heap, and once fired it would switch the check off.
        queue = EventQueue()
        with pytest.raises(ConfigurationError):
            queue.schedule(float("nan"), lambda: None)
        with pytest.raises(ConfigurationError):
            queue.schedule_after(float("nan"), lambda: None)
        assert queue.pending == 0
        queue.schedule(1.0, lambda: None)
        queue.run()
        assert queue.now == 1.0
        with pytest.raises(ConfigurationError):
            queue.schedule(-100.0, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: queue.schedule_after(1.0, lambda: fired.append("child")))
        queue.run()
        assert fired == ["child"]


class TestRunControls:
    def test_run_until_horizon(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda: fired.append(1))
        queue.schedule(5.0, lambda: fired.append(5))
        count = queue.run(until=2.0)
        assert count == 1
        assert fired == [1]
        assert queue.now == 2.0  # clock advances to horizon
        queue.run()
        assert fired == [1, 5]

    def test_event_exactly_at_horizon_fires(self):
        queue = EventQueue()
        fired = []
        queue.schedule(2.0, lambda: fired.append("edge"))
        queue.run(until=2.0)
        assert fired == ["edge"]

    def test_max_events_budget(self):
        queue = EventQueue()
        fired = []
        for i in range(10):
            queue.schedule(float(i), lambda i=i: fired.append(i))
        queue.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        assert EventQueue().step() is False

    def test_fired_counter(self):
        queue = EventQueue()
        for i in range(4):
            queue.schedule(float(i), lambda: None)
        queue.run()
        assert queue.fired == 4

    def test_run_returns_fired_count(self):
        queue = EventQueue()
        for i in range(7):
            queue.schedule(float(i), lambda: None)
        assert queue.run() == 7


class TestPendingCounter:
    """``pending`` is the number of heap entries, read in O(1)."""

    def test_counts_scheduled_events(self):
        queue = EventQueue()
        for i in range(5):
            queue.schedule(float(i), lambda: None)
        assert queue.pending == 5

    def test_decrements_on_fire(self):
        queue = EventQueue()
        for i in range(3):
            queue.schedule(float(i), lambda: None)
        queue.step()
        assert queue.pending == 2
        queue.run()
        assert queue.pending == 0

    def test_events_scheduled_during_callbacks_are_counted(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: queue.schedule(2.0, lambda: None))
        queue.step()
        assert queue.pending == 1


class TestArgsSlots:
    """Hot paths pass a bound callback plus args instead of a closure."""

    def test_args_are_passed_through(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, lambda a, b: fired.append((a, b)), args=("x", 3))
        queue.schedule_after(2.0, fired.append, args=("tail",))
        queue.run()
        assert fired == [("x", 3), "tail"]


class TestTakeMatching:
    """Same-timestamp events fire one ``step()`` each, in insertion order.

    (The scenarios of the deleted ``take_matching`` drain, driven through
    ``step()``: what a handler used to pull off the heap now simply fires
    next.)
    """

    @staticmethod
    def step_all(queue):
        """Step to exhaustion, recording ``(fired, pending)`` after each."""
        progress = []
        while queue.step():
            progress.append((queue.fired, queue.pending))
        return progress

    def test_takes_contiguous_same_time_same_callback(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, fired.append, args=("a",))
        queue.schedule(1.0, fired.append, args=("b",))
        queue.schedule(1.0, fired.append, args=("c",))
        progress = self.step_all(queue)
        # One dispatch per event, insertion order.
        assert fired == ["a", "b", "c"]
        assert progress == [(1, 2), (2, 1), (3, 0)]
        assert queue.now == 1.0

    def test_stops_at_different_callback(self):
        queue = EventQueue()
        order = []

        def other(tag):
            order.append(("other", tag))

        queue.schedule(1.0, order.append, args=("a",))
        queue.schedule(1.0, other, args=("x",))
        queue.schedule(1.0, order.append, args=("b",))
        progress = self.step_all(queue)
        # "other" sits between the two deliveries and fires there.
        assert order == ["a", ("other", "x"), "b"]
        assert progress == [(1, 2), (2, 1), (3, 0)]

    def test_stops_at_later_timestamp(self):
        queue = EventQueue()
        seen = []

        def deliver(tag):
            seen.append((queue.now, tag))

        queue.schedule(1.0, deliver, args=("a",))
        queue.schedule(2.0, deliver, args=("b",))
        progress = self.step_all(queue)
        assert seen == [(1.0, "a"), (2.0, "b")]
        assert progress == [(1, 1), (2, 0)]

    def test_empty_queue_returns_none(self):
        queue = EventQueue()
        assert queue.step() is False
        assert (queue.fired, queue.pending) == (0, 0)
