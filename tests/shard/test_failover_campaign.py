"""The sharded-tier acceptance campaign.

A seeded chaos run against a real 3-worker tier: clients drive traffic
through a lossy proxy (dropped acks force replays) into the front end,
while a :class:`WorkerKiller` SIGKILLs workers mid-campaign and the
supervisor fails the shards over.  The gates:

* every driven check-in is eventually acked (clients retry through it),
* the front end returns **zero** internal errors,
* replays are suppressed exactly-once (``duplicates_suppressed > 0``
  and the dedupe ledger answers replays with the original ack),
* each shard's final durable parameters are **bit-identical** to an
  uninterrupted in-process reference fed the same messages in the same
  order.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.core.auth import DeviceRegistry
from repro.core.protocol import CheckinMessage
from repro.obs.metrics import MetricsRegistry
from repro.persist import FaultyProxy, SnapshotStore, WorkerKiller, restore_core
from repro.serve.client import ServiceClient
from repro.shard import ShardFrontEnd, ShardRouter

from tests.persist.conftest import CLASSES, make_model
from tests.shard.conftest import SERVER_KEY, make_core, start_supervised_tier

NUM_SHARDS = 3
DEVICES = list(range(6))
ROUNDS = 5
KILL_EVERY = 8
MAX_KILLS = 2
NUM_PARAMETERS = make_model().num_parameters


def build_message(device_id: int, token: str, seq: int,
                  rng: np.random.Generator) -> CheckinMessage:
    """Deterministic traffic; checkout_iteration pinned so the reference
    replay constructs byte-identical messages."""
    return CheckinMessage(
        device_id=device_id,
        token=token,
        gradient=rng.normal(size=NUM_PARAMETERS),
        num_samples=int(rng.integers(1, 6)),
        noisy_error_count=int(rng.integers(0, 4)),
        noisy_label_counts=rng.integers(0, 5, size=CLASSES),
        checkout_iteration=0,
        checkin_seq=seq,
    )


def scrape_metrics(url: str) -> dict:
    """One front-end metrics scrape; raises if the endpoint errors."""
    with urllib.request.urlopen(f"{url}/v1/metrics?format=json",
                                timeout=15.0) as response:
        assert response.status == 200
        return json.loads(response.read())


def counter_total(snapshot: dict, name: str) -> int:
    return sum(c["value"] for c in snapshot["counters"] if c["name"] == name)


@pytest.mark.slow
def test_failover_campaign_keeps_each_shard_bit_identical(tmp_path):
    # Observed tier: workers run with --metrics, the parent process
    # shares one registry between supervisor and front end, and the
    # campaign scrapes the aggregate every round (zero scrape errors is
    # itself a gate — PR 9's acceptance criterion).
    tier_metrics = MetricsRegistry("campaign")
    supervisor = start_supervised_tier(tmp_path, num_shards=NUM_SHARDS,
                                       extra=("--metrics",),
                                       metrics=tier_metrics)
    router = ShardRouter(NUM_SHARDS)
    frontend = ShardFrontEnd(router, supervisor, metrics=tier_metrics).start()
    proxy = FaultyProxy(frontend.url, seed=7, drop_response=0.2).start()
    killer = WorkerKiller(supervisor, every=KILL_EVERY, seed=3,
                          max_kills=MAX_KILLS)
    client = ServiceClient(proxy.url, timeout=15.0, retries=16,
                           backoff=0.02, backoff_max=0.5,
                           retry_rng=20260808)
    reference_registry = make_core(
        registry=DeviceRegistry(server_key=SERVER_KEY)
    )
    sent = []  # (device_id, message) in ack order — the replay script
    try:
        tokens = {}
        for device_id in DEVICES:
            tokens[device_id] = client.join(device_id)
            assert tokens[device_id] == reference_registry.register_device(device_id)

        rng = np.random.default_rng(20260808)
        for round_index in range(ROUNDS):
            for device_id in DEVICES:
                message = build_message(
                    device_id, tokens[device_id], seq=round_index, rng=rng
                )
                result = client.checkins([message])
                assert result.acks[0] is not None, (
                    f"round {round_index} device {device_id} never acked"
                )
                sent.append((device_id, message))
                killer.after_batch()
            # Mid-campaign scrape, straight at the front end (not the
            # lossy proxy): must answer 200 every round, kills or not.
            scrape_metrics(frontend.url)

        # The campaign actually injected chaos.
        assert killer.kills == MAX_KILLS, killer.killed_shards
        assert proxy.stats_snapshot()["responses_dropped"] > 0

        # Deterministic replay probe: re-send an already-applied message;
        # the ledger must answer with the original ack, not re-apply.
        probe_device, probe_message = sent[-1]
        replay = client.checkins([probe_message])
        assert replay.acks[0] is not None
        assert replay.acks[0].duplicate is True
        replayed_ack_iteration = replay.acks[0].server_iteration

        status = client.status()
        assert status.duplicates_suppressed > 0
        total_iterations = status.iteration

        # Zero unhandled server errors at the front end: retryable 503s
        # during failover windows are fine, 500s are not.
        assert frontend.errors_returned.get("internal", 0) == 0

        # -- the aggregate scrape is non-vacuous after the chaos -------- #
        final = scrape_metrics(frontend.url)
        assert final["enabled"] is True
        # Failovers: the supervisor's mirrored counters recorded every
        # kill the campaign injected.
        assert counter_total(
            final, "shard_supervisor_failovers_total"
        ) == MAX_KILLS
        assert counter_total(
            final, "shard_supervisor_process_exit_failovers_total"
        ) >= 1
        # Duplicates: dropped acks forced replays, and every worker's
        # ledger counted the suppressions (summed across shard labels).
        assert counter_total(final, "core_duplicates_suppressed_total") > 0
        # Fencing: a replacement incarnation advanced some shard's
        # fence epoch past the seed incarnation's 0.
        fence_epochs = {
            g["labels"].get("shard"): g["value"]
            for g in final["gauges"] if g["name"] == "shard_fence_epoch"
        }
        assert fence_epochs, "no fence-epoch gauges in the aggregate"
        assert max(fence_epochs.values()) >= 1
        # Per-shard worker series really made it through the merge: the
        # check-in latency histogram exists for every shard label, with
        # a live bucket count.
        shard_hists = {
            h["labels"].get("shard"): h
            for h in final["histograms"]
            if h["name"] == "service_request_seconds"
            and h["labels"].get("endpoint") == "checkins"
        }
        assert set(shard_hists) == {str(s) for s in range(NUM_SHARDS)}
        # A killed worker's in-process counters die with it (the ledger
        # is what's durable), so the merged counts cover at least the
        # traffic since each shard's last failover — non-zero for all.
        for shard, hist in shard_hists.items():
            assert hist["count"] > 0, f"shard {shard} scrape was vacuous"
    finally:
        proxy.stop()
        frontend.stop()
        exit_codes = supervisor.stop(graceful=True)

    assert all(code == 0 for code in exit_codes.values()), exit_codes

    # -- per-shard bit-parity against an uninterrupted reference -------- #
    references = {}
    for shard in range(NUM_SHARDS):
        core = make_core(registry=DeviceRegistry(server_key=SERVER_KEY))
        for device_id in DEVICES:
            if router.shard_of(device_id) == shard:
                core.register_device(device_id)
        references[shard] = core
    for device_id, message in sent:
        references[router.shard_of(device_id)].handle_checkins([message])

    assert sum(core.iteration for core in references.values()) == len(sent)
    assert total_iterations == len(sent)  # exactly-once despite the chaos

    probe_shard = router.shard_of(probe_device)
    probe_ledger = references[probe_shard].counters_state()["applied_seqs"]
    assert replayed_ack_iteration == probe_ledger[str(probe_device)][1]

    for shard in range(NUM_SHARDS):
        store = SnapshotStore(str(tmp_path / f"shard-{shard}"))
        snapshot, _ = store.load_latest()
        restored = restore_core(snapshot, make_model())
        reference = references[shard]
        assert restored.iteration == reference.iteration, f"shard {shard}"
        np.testing.assert_array_equal(
            restored.parameters, reference.parameters,
            err_msg=f"shard {shard} diverged from the uninterrupted run",
        )
        assert (restored.counters_state()["applied_seqs"]
                == reference.counters_state()["applied_seqs"]), f"shard {shard}"
