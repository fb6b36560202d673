"""Property tests: ``ServerCore.handle_checkins`` ≡ sequential check-ins
≡ fused ``serve_round`` check-in legs.

The batch endpoint promises *bit-identical* server state — model
parameters, monitor accumulators, rejection counters — and the same acks as feeding the messages one at a time through
``handle_checkin`` (catching the rejections), for any device
interleaving, any mix of rejected/stale messages, and stopping rules that
trip mid-batch.  Hypothesis drives the message mix; the comparison is
exact equality, no tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CheckinMessage, CheckoutRequest, ServerConfig, ServerCore
from repro.models import MulticlassLogisticRegression
from repro.optim import SGD, InverseSqrtRate

NUM_FEATURES = 4
NUM_CLASSES = 3
NUM_PARAMS = NUM_FEATURES * NUM_CLASSES
NUM_DEVICES = 4


def _make_core(max_iterations, target_error):
    model = MulticlassLogisticRegression(NUM_FEATURES, NUM_CLASSES)
    core = ServerCore(
        model,
        optimizer=SGD(model.init_parameters(), schedule=InverseSqrtRate(0.5)),
        config=ServerConfig(
            max_iterations=max_iterations,
            target_error=target_error,
            min_samples_for_error_stop=10,
        ),
    )
    tokens = {d: core.register_device(d) for d in range(NUM_DEVICES)}
    return core, tokens


def _build_messages(plan, tokens, seed):
    """Messages from a hypothesis plan: (device, kind) pairs.

    ``kind`` 0 = valid, 1 = bad token, 2 = wrong gradient length —
    "stale" check-out iterations (older than the server state) are the
    norm here since every message claims iteration 0..2.
    """
    rng = np.random.default_rng(seed)
    messages = []
    for device_id, kind in plan:
        num_params = NUM_PARAMS if kind != 2 else NUM_PARAMS + 1
        token = tokens[device_id] if kind != 1 else "forged"
        messages.append(CheckinMessage(
            device_id=device_id,
            token=token,
            gradient=rng.normal(scale=0.1, size=num_params),
            num_samples=int(rng.integers(1, 6)),
            noisy_error_count=int(rng.integers(-1, 4)),
            noisy_label_counts=rng.integers(0, 4, size=NUM_CLASSES),
            checkout_iteration=int(rng.integers(0, 3)),
        ))
    return messages


def _state(core):
    monitor = core.monitor
    return {
        "parameters": core.parameters,
        "iteration": core.iteration,
        "rejected": core.rejected_messages,
        "total_samples": monitor.total_samples,
        "num_checkins": monitor.num_checkins,
        "error_estimate": monitor.raw_error_estimate(),
        "prior": monitor.prior_estimate(),
        "stopped": core.stopped,
        "stop_reason": core.stopping_decision().reason,
    }


def _assert_states_equal(batch, sequential):
    for key in batch:
        b, s = batch[key], sequential[key]
        if isinstance(b, np.ndarray):
            assert np.array_equal(b, s), key  # exact, not approx
        else:
            assert b == s, key


plans = st.lists(
    st.tuples(st.integers(0, NUM_DEVICES - 1),
              st.integers(0, 2)),
    min_size=0, max_size=25,
)


@settings(max_examples=40, deadline=None)
@given(plan=plans, seed=st.integers(0, 2**16),
       max_iterations=st.integers(1, 12),
       use_target=st.booleans())
def test_batch_equals_sequential(plan, seed, max_iterations, use_target):
    target_error = 0.6 if use_target else None
    core_batch, tokens = _make_core(max_iterations, target_error)
    core_seq, _ = _make_core(max_iterations, target_error)
    messages = _build_messages(plan, tokens, seed)

    batch_acks = core_batch.handle_checkins(messages)

    sequential_acks = []
    for message in messages:
        try:
            sequential_acks.append(core_seq.handle_checkin(message))
        except Exception:
            sequential_acks.append(None)

    assert batch_acks == sequential_acks
    _assert_states_equal(_state(core_batch), _state(core_seq))

    # Fused arm: each message is the check-in leg of its own serve_round,
    # behind a valid check-out from the same device.  A stopped core
    # refuses that check-out instead of the check-in — still one
    # rejection per message, so acks and state match the sequential core.
    core_fused, _ = _make_core(max_iterations, target_error)
    fused_acks = []
    for message in messages:
        request = CheckoutRequest(
            message.device_id, tokens[message.device_id], 0.0)
        outcome = core_fused.serve_round([request], lambda response: message)
        fused_acks.extend(outcome.acks)
    assert fused_acks == sequential_acks
    _assert_states_equal(_state(core_fused), _state(core_seq))


@settings(max_examples=20, deadline=None)
@given(plan=plans, seed=st.integers(0, 2**16))
def test_batch_equals_per_message_batches(plan, seed):
    """Splitting one batch into singleton batches changes nothing."""
    core_whole, tokens = _make_core(8, None)
    core_split, _ = _make_core(8, None)
    messages = _build_messages(plan, tokens, seed)

    whole_acks = core_whole.handle_checkins(messages)
    split_acks = []
    for message in messages:
        split_acks.extend(core_split.handle_checkins([message]))

    assert whole_acks == split_acks
    _assert_states_equal(_state(core_whole), _state(core_split))


def test_shuffled_device_order_is_order_sensitive_but_consistent():
    """Shuffling the batch permutes the applied updates identically in
    both paths (sanity check that the property above is not vacuous)."""
    plan = [(d, 0) for d in (0, 1, 2, 3, 2, 1, 0)]
    core_a, tokens = _make_core(100, None)
    core_b, _ = _make_core(100, None)
    messages = _build_messages(plan, tokens, seed=9)
    shuffled = [messages[i] for i in (3, 0, 6, 2, 5, 1, 4)]

    core_a.handle_checkins(messages)
    core_b.handle_checkins(shuffled)
    # Same multiset of updates but different order: projected SGD with a
    # decaying rate is order-sensitive, so states may differ...
    assert core_a.iteration == core_b.iteration == 7
    # ...while each path remains deterministic given its order.
    core_c, _ = _make_core(100, None)
    core_c.handle_checkins([m for m in shuffled])
    assert np.array_equal(core_b.parameters, core_c.parameters)


def test_interleaved_rejections_count_once_per_message():
    core, tokens = _make_core(100, None)
    plan = [(0, 1), (1, 0), (2, 2), (3, 0), (0, 1)]
    messages = _build_messages(plan, tokens, seed=1)
    acks = core.handle_checkins(messages)
    assert [a is not None for a in acks] == [False, True, False, True, False]
    assert core.rejected_messages == 3
    assert core.monitor.num_checkins == 2
