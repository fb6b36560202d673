"""Snapshot codec: ``restore_core(snapshot_core(core))`` is the core.

Every schedule/projection combination of the SGD the codec carries
round-trips bit-exactly, including through an actual JSON serialization
(the form checkpoints live in on disk), and a served core's snapshot
hashes to the checksum pinned below; other optimizers, retired optimizer
tags, mismatched versions, models, and mangled payloads raise
:class:`SnapshotError` instead of restoring the wrong run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import ServerConfig
from repro.models import MulticlassLogisticRegression
from repro.optim import paper_sgd
from repro.optim.projection import BoxProjection, IdentityProjection, L2BallProjection
from repro.optim.schedules import (
    ConstantRate,
    InverseSqrtRate,
    InverseTimeRate,
    StepDecayRate,
)
from repro.optim.sgd import SGD, AdaGrad, AveragedSGD
from repro.persist import (
    SNAPSHOT_VERSION,
    SnapshotError,
    canonical_json,
    restore_core,
    snapshot_checksum,
    snapshot_core,
)
from repro.persist.snapshot import pack_float_array

from tests.persist.conftest import (
    core_states_equal,
    describe_mismatch,
    make_core,
    make_message,
    make_model,
)


def drive(core, rng, num_messages=7, num_devices=2, seq_base=None):
    """Register devices and apply a deterministic burst of check-ins."""
    tokens = {i: core.register_device(i) for i in range(num_devices)}
    next_seq = dict.fromkeys(tokens, 0 if seq_base is not None else -1)
    for i in range(num_messages):
        device_id = i % num_devices
        seq = -1
        if seq_base is not None:
            seq = next_seq[device_id]
            next_seq[device_id] += 1
        core.handle_checkin(
            make_message(core, device_id, tokens[device_id], rng, seq=seq)
        )
    return tokens


def roundtrip(core):
    """Snapshot → JSON wire → restore, as the checkpoint store does it."""
    snapshot = json.loads(json.dumps(snapshot_core(core)))
    return restore_core(snapshot, make_model())


def assert_restores_exactly(core):
    restored = roundtrip(core)
    assert describe_mismatch(core, restored) is None
    assert core_states_equal(core, restored)


# --------------------------------------------------------------------- #
# round trips                                                           #
# --------------------------------------------------------------------- #


def test_paper_sgd_roundtrip(traffic_rng):
    core = make_core()
    drive(core, traffic_rng)
    assert core.iteration == 7
    assert_restores_exactly(core)


def test_fresh_core_roundtrip():
    assert_restores_exactly(make_core())


SCHEDULES = [
    ConstantRate(0.25),
    InverseSqrtRate(1.5),
    InverseTimeRate(2.0, 0.1),
    StepDecayRate(1.0, 0.5, 3),
]

PROJECTIONS = [IdentityProjection(), L2BallProjection(3.0), BoxProjection(2.0)]


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("projection", PROJECTIONS, ids=lambda p: type(p).__name__)
def test_sgd_variants_roundtrip(schedule, projection, traffic_rng):
    model = make_model()
    core = make_core(
        optimizer=SGD(model.init_parameters(), schedule=schedule,
                      projection=projection)
    )
    drive(core, traffic_rng, num_messages=5)
    assert_restores_exactly(core)


#: ``snapshot_checksum`` of a ``paper_sgd`` core (c = 0.5) after the seeded
#: traffic of :func:`drive`, as written by the codec before it narrowed to
#: SGD: a served core's snapshot layout must not move by a byte, so every
#: state dir a server wrote restores.
SERVED_CHECKSUMS = {
    10.0: "46a9bcf1536069e8927d23a1b594bb43cacefe5de59440007140af0f17e11ee1",
    None: "fe5bc2b41232d46fb3db46535d4d0ac088c3e30f35e22e67d85689eba7260b1d",
}


@pytest.mark.parametrize("radius", list(SERVED_CHECKSUMS), ids=["l2_ball", "identity"])
def test_served_snapshot_layout_is_pinned(radius):
    model = make_model()
    core = make_core(optimizer=paper_sgd(
        model.init_parameters(), learning_rate_constant=0.5,
        projection_radius=radius,
    ))
    drive(core, np.random.default_rng(20260808), seq_base=0)
    snapshot = snapshot_core(core)
    assert snapshot_checksum(snapshot) == SERVED_CHECKSUMS[radius]
    assert_restores_exactly(core)


@pytest.mark.parametrize("optimizer", [
    lambda w: AdaGrad(w, constant=0.3),
    lambda w: AveragedSGD(w, schedule=InverseSqrtRate(0.7), burn_in=3),
], ids=["AdaGrad", "AveragedSGD"])
def test_only_sgd_is_snapshotted(optimizer):
    core = make_core(optimizer=optimizer(make_model().init_parameters()))
    name = type(core.optimizer).__name__
    with pytest.raises(SnapshotError, match=f"cannot snapshot optimizer {name}"):
        snapshot_core(core)


#: What the codec once wrote for the optimizers no server builds; each is
#: now refused by name, never a ``KeyError``.
RETIRED_TAGS = {
    "adagrad": {
        "type": "adagrad", "constant": 0.3, "damping": 1e-7,
        "accumulator": pack_float_array(np.ones(make_model().num_parameters)),
    },
    "averaged_sgd": {
        "type": "averaged_sgd", "burn_in": 3, "averaged_steps": 2,
        "average": pack_float_array(np.ones(make_model().num_parameters)),
    },
}


@pytest.mark.parametrize("tag", list(RETIRED_TAGS))
def test_retired_tags_are_refused(tag):
    snapshot = json.loads(json.dumps(snapshot_core(make_core())))
    if tag == "adagrad":  # AdaGrad's state had no schedule
        del snapshot["optimizer"]["schedule"]
    snapshot["optimizer"].update(RETIRED_TAGS[tag])
    with pytest.raises(SnapshotError, match=f"unknown optimizer type '{tag}'"):
        restore_core(snapshot, make_model())


def test_parent_snapshot_with_null_accountant_restores(traffic_rng):
    # Snapshots written while the core could hold a server-side privacy
    # ledger carry an "accountant" key, null whenever none was attached
    # (every served core); they restore under the same schema version.
    core = make_core()
    drive(core, traffic_rng, seq_base=0)
    snapshot = json.loads(json.dumps(snapshot_core(core)))
    assert "accountant" not in snapshot
    snapshot["accountant"] = None
    assert snapshot["snapshot_version"] == SNAPSHOT_VERSION == 1
    restored = restore_core(snapshot, make_model())
    assert describe_mismatch(core, restored) is None


@pytest.mark.parametrize("ledger", [{}, {"per_sample_epsilon": 0.5}, []],
                         ids=["empty", "tally", "list"])
def test_snapshot_with_a_ledger_is_refused(ledger):
    snapshot = snapshot_core(make_core())
    snapshot["accountant"] = ledger
    with pytest.raises(SnapshotError, match="privacy ledger"):
        restore_core(snapshot, make_model())


def test_revoked_registry_roundtrip(traffic_rng):
    core = make_core()
    drive(core, traffic_rng, num_devices=3)
    core.registry.revoke(1)
    restored = roundtrip(core)
    assert core_states_equal(core, restored)
    assert not restored.registry.is_registered(1)
    assert restored.registry.is_registered(0)


def test_dedupe_ledger_roundtrip(traffic_rng):
    core = make_core()
    tokens = drive(core, traffic_rng, seq_base=0)
    restored = roundtrip(core)
    assert core_states_equal(core, restored)
    for device_id in tokens:
        assert (restored.applied_checkin_seq(device_id)
                == core.applied_checkin_seq(device_id))
    # A replay against the *restored* core is recognized from the ledger.
    replay = make_message(restored, 0, tokens[0], traffic_rng, seq=0)
    ack = restored.handle_checkin(replay)
    assert ack.duplicate
    assert restored.iteration == core.iteration


def test_stop_decision_recomputed_not_stored(traffic_rng):
    core = make_core(max_iterations=4)
    drive(core, traffic_rng, num_messages=4)
    assert core.stopped
    snapshot = snapshot_core(core)
    assert "stop" not in snapshot and "stopped" not in snapshot
    restored = restore_core(json.loads(json.dumps(snapshot)), make_model())
    assert restored.stopped
    assert restored.stopping_decision() == core.stopping_decision()


def test_restored_core_continues_identically(traffic_rng):
    core = make_core()
    tokens = drive(core, traffic_rng, seq_base=0)
    restored = roundtrip(core)
    # Same further traffic → same acks, same states, forever after.
    follow_rng = np.random.default_rng(99)
    seqs = {i: core.applied_checkin_seq(i) + 1 for i in tokens}
    for i in range(6):
        device_id = i % len(tokens)
        message = make_message(core, device_id, tokens[device_id],
                               follow_rng, seq=seqs[device_id])
        seqs[device_id] += 1
        assert core.handle_checkin(message) == restored.handle_checkin(message)
    assert core_states_equal(core, restored)


# --------------------------------------------------------------------- #
# canonical form + checksum                                             #
# --------------------------------------------------------------------- #


def test_snapshot_is_deterministic(traffic_rng):
    core = make_core()
    drive(core, traffic_rng)
    first, second = snapshot_core(core), snapshot_core(core)
    assert first == second
    assert snapshot_checksum(first) == snapshot_checksum(second)


def test_checksum_survives_json_roundtrip(traffic_rng):
    core = make_core()
    drive(core, traffic_rng)
    snapshot = snapshot_core(core)
    rehydrated = json.loads(json.dumps(snapshot))
    assert canonical_json(rehydrated) == canonical_json(snapshot)
    assert snapshot_checksum(rehydrated) == snapshot_checksum(snapshot)


def test_checksum_detects_any_state_change(traffic_rng):
    core = make_core()
    drive(core, traffic_rng)
    before = snapshot_checksum(snapshot_core(core))
    tokens = {0: core.registry.register(0)}
    core.handle_checkin(make_message(core, 0, tokens[0], traffic_rng))
    assert snapshot_checksum(snapshot_core(core)) != before


# --------------------------------------------------------------------- #
# refusal paths                                                         #
# --------------------------------------------------------------------- #


def test_version_mismatch_raises():
    snapshot = snapshot_core(make_core())
    snapshot["snapshot_version"] = SNAPSHOT_VERSION + 1
    with pytest.raises(SnapshotError, match="version"):
        restore_core(snapshot, make_model())


def test_model_fingerprint_mismatch_raises():
    snapshot = snapshot_core(make_core())
    other = MulticlassLogisticRegression(num_features=5, num_classes=3)
    with pytest.raises(SnapshotError, match="cannot restore"):
        restore_core(snapshot, other)


def test_non_dict_snapshot_raises():
    with pytest.raises(SnapshotError, match="dict"):
        restore_core("not a snapshot", make_model())


@pytest.mark.parametrize("missing", ["model", "config", "optimizer", "counters",
                                     "registry", "monitor"])
def test_missing_section_raises(missing):
    snapshot = snapshot_core(make_core())
    del snapshot[missing]
    with pytest.raises(SnapshotError):
        restore_core(snapshot, make_model())


def test_unknown_optimizer_type_raises():
    snapshot = snapshot_core(make_core())
    snapshot["optimizer"]["type"] = "momentum"
    with pytest.raises(SnapshotError, match="optimizer"):
        restore_core(snapshot, make_model())


def test_unknown_schedule_type_raises():
    snapshot = snapshot_core(make_core())
    snapshot["optimizer"]["schedule"] = {"type": "cosine"}
    with pytest.raises(SnapshotError, match="schedule"):
        restore_core(snapshot, make_model())


def test_unknown_projection_type_raises():
    snapshot = snapshot_core(make_core())
    snapshot["optimizer"]["projection"] = {"type": "simplex"}
    with pytest.raises(SnapshotError, match="projection"):
        restore_core(snapshot, make_model())
