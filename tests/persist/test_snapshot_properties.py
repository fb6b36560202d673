"""Property test: snapshot → restore is the identity on live cores.

Hypothesis drives a random traffic history — device mix, message count,
sequence tagging, replays, revocation — then checks that the
restored core is observably identical to the live one **and stays
identical** under continued shared traffic (the stronger claim: the two
state machines are the same point in state space, not merely equal on
the compared fields).
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.persist import restore_core, snapshot_core

from tests.persist.conftest import (
    core_states_equal,
    describe_mismatch,
    make_core,
    make_message,
    make_model,
)

def apply_traffic(core, tokens, rng, steps, tag, replay_every, next_seq):
    """Apply ``steps`` check-ins, replaying every ``replay_every``-th one."""
    last_applied = {}
    for i in range(steps):
        device_id = i % len(tokens)
        if (tag and replay_every and (i + 1) % replay_every == 0
                and device_id in last_applied):
            core.handle_checkin(last_applied[device_id])  # a replay
            continue
        seq = -1
        if tag:
            seq = next_seq[device_id]
            next_seq[device_id] += 1
        message = make_message(core, device_id, tokens[device_id], rng, seq=seq)
        core.handle_checkin(message)
        last_applied[device_id] = message


@given(
    seed=st.integers(0, 2**32 - 1),
    num_devices=st.integers(1, 3),
    steps=st.integers(0, 12),
    tag=st.booleans(),
    replay_every=st.sampled_from([0, 3]),
    revoke=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_restore_is_identity_on_random_histories(
    seed, num_devices, steps, tag, replay_every, revoke
):
    rng = np.random.default_rng(seed)
    core = make_core()
    tokens = {i: core.register_device(i) for i in range(num_devices)}
    next_seq = dict.fromkeys(tokens, 0)
    apply_traffic(core, tokens, rng, steps, tag, replay_every, next_seq)
    if revoke and num_devices > 1:
        core.registry.revoke(num_devices - 1)

    # Through the JSON wire form — exactly what a checkpoint file holds.
    restored = restore_core(
        json.loads(json.dumps(snapshot_core(core))), make_model()
    )
    assert describe_mismatch(core, restored) is None
    assert core_states_equal(core, restored)

    # Continued shared traffic: both cores answer identically, step for
    # step, and end in the same state.
    follow = np.random.default_rng(seed ^ 0xA5A5A5)
    live = tokens[0]
    for i in range(4):
        seq = next_seq[0] + i if tag else -1
        message = make_message(core, 0, live, follow, seq=seq)
        assert core.handle_checkin(message) == restored.handle_checkin(message)
    assert core_states_equal(core, restored)
