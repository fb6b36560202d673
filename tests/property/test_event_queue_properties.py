"""Property-based tests for the discrete-event queue and projections."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.events import EventQueue
from repro.optim import L2BallProjection


class TestEventOrdering:
    @given(times=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1,
                          max_size=50))
    @settings(max_examples=60)
    def test_events_fire_in_nondecreasing_time_order(self, times):
        queue = EventQueue()
        fired = []
        for t in times:
            queue.schedule(t, lambda t=t: fired.append(t))
        queue.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(times=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1,
                          max_size=30),
           horizon=st.floats(0.0, 100.0, allow_nan=False))
    @settings(max_examples=60)
    def test_run_until_fires_exactly_events_within_horizon(self, times, horizon):
        queue = EventQueue()
        fired = []
        for t in times:
            queue.schedule(t, lambda t=t: fired.append(t))
        queue.run(until=horizon)
        assert len(fired) == sum(1 for t in times if t <= horizon)

    @given(times=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=2,
                          max_size=30))
    @settings(max_examples=60)
    def test_clock_never_goes_backwards(self, times):
        queue = EventQueue()
        observed = []
        for t in times:
            queue.schedule(t, lambda: observed.append(queue.now))
        queue.run()
        assert observed == sorted(observed)


# One call on the queue: schedule at now + offset, schedule_after(offset),
# step(), or run(until=now + offset).  Offsets come from a small set so
# equal timestamps (and the insertion-order tie-break) are common.
offsets = st.sampled_from([0.0, 0.5, 1.0, 2.5])
queue_calls = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), offsets),
        st.tuples(st.just("schedule_after"), offsets),
        st.tuples(st.just("step"), st.just(0.0)),
        st.tuples(st.just("run"), offsets),
    ),
    max_size=60,
)


class TestInterleavedCalls:
    @given(calls=queue_calls)
    @settings(max_examples=200)
    def test_fires_in_time_then_insertion_order(self, calls):
        queue = EventQueue()
        fired = []
        waiting = []  # the model: (time, insertion index) not yet fired
        scheduled = 0
        for name, offset in calls:
            if name == "schedule":
                time = queue.now + offset
                queue.schedule(time, fired.append, args=((time, scheduled),))
            elif name == "schedule_after":
                time = queue.now + offset
                queue.schedule_after(offset, fired.append, args=((time, scheduled),))
            if name in ("schedule", "schedule_after"):
                waiting.append((time, scheduled))
                scheduled += 1
            elif name == "step":
                expected = [min(waiting)] if waiting else []
                assert queue.step() is bool(expected)
                assert fired[len(fired) - len(expected):] == expected
                for event in expected:
                    waiting.remove(event)
            else:
                horizon = queue.now + offset
                expected = sorted(e for e in waiting if e[0] <= horizon)
                assert queue.run(until=horizon) == len(expected)
                assert fired[len(fired) - len(expected):] == expected
                waiting = [e for e in waiting if e[0] > horizon]
                assert queue.now == horizon
            assert queue.fired + queue.pending == scheduled
            assert queue.pending == len(waiting)
        queue.run()
        assert fired == sorted(fired)
        assert queue.fired == scheduled and queue.pending == 0


class TestProjectionProperties:
    @given(
        vec=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                     max_size=20),
        radius=st.floats(0.01, 1e3, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_projection_lands_inside_ball(self, vec, radius):
        proj = L2BallProjection(radius)
        out = proj(np.asarray(vec))
        assert np.linalg.norm(out) <= radius * (1 + 1e-9)

    @given(
        vec=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1,
                     max_size=20),
        radius=st.floats(0.01, 1e3, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_projection_is_idempotent(self, vec, radius):
        proj = L2BallProjection(radius)
        once = proj(np.asarray(vec))
        twice = proj(once)
        assert np.allclose(once, twice)

    @given(
        vec=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1,
                     max_size=20),
        radius=st.floats(0.01, 1e3, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_projection_never_increases_norm(self, vec, radius):
        proj = L2BallProjection(radius)
        arr = np.asarray(vec)
        assert np.linalg.norm(proj(arr)) <= np.linalg.norm(arr) + 1e-9
