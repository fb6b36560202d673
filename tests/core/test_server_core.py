"""Tests for the batch-native protocol core (ServerCore)."""

import numpy as np
import pytest

from repro.core import (
    CheckinMessage,
    CheckoutRequest,
    RoundOutcome,
    ServerConfig,
    ServerCore,
)
from repro.models import MulticlassLogisticRegression
from repro.optim import SGD, ConstantRate
from repro.utils.exceptions import AuthenticationError, ProtocolError


@pytest.fixture
def model():
    return MulticlassLogisticRegression(num_features=3, num_classes=2)


def make_core(model, **config_kwargs):
    config_kwargs.setdefault("max_iterations", 100)
    return ServerCore(
        model,
        optimizer=SGD(model.init_parameters(), schedule=ConstantRate(0.1)),
        config=ServerConfig(**config_kwargs),
    )


def checkin(device_id, token, gradient, num_samples=1, errors=0, labels=(1, 0),
            checkout_iteration=0):
    return CheckinMessage(
        device_id=device_id,
        token=token,
        gradient=np.asarray(gradient, dtype=np.float64),
        num_samples=num_samples,
        noisy_error_count=errors,
        noisy_label_counts=np.asarray(labels, dtype=np.int64),
        checkout_iteration=checkout_iteration,
    )


class TestBatchCheckins:
    def test_batch_applies_in_order(self, model):
        core = make_core(model)
        token = core.register_device(1)
        acks = core.handle_checkins([
            checkin(1, token, np.ones(6)) for _ in range(4)
        ])
        assert [a.server_iteration for a in acks] == [1, 2, 3, 4]
        assert core.iteration == 4

    def test_empty_batch(self, model):
        core = make_core(model)
        assert core.handle_checkins([]) == []

    def test_rejections_yield_none_not_exceptions(self, model):
        core = make_core(model)
        token = core.register_device(1)
        acks = core.handle_checkins([
            checkin(1, token, np.ones(6)),
            checkin(2, "forged", np.ones(6)),      # unknown device
            checkin(1, "forged", np.ones(6)),      # bad token
            checkin(1, token, np.ones(4)),         # wrong gradient length
            checkin(1, token, np.ones(6)),
        ])
        assert [a is not None for a in acks] == [True, False, False, False, True]
        assert core.iteration == 2
        assert core.rejected_messages == 3

    def test_stop_mid_batch_rejects_the_rest(self, model):
        core = make_core(model, max_iterations=3)
        token = core.register_device(1)
        acks = core.handle_checkins([
            checkin(1, token, np.zeros(6)) for _ in range(5)
        ])
        assert [a is not None for a in acks] == [True, True, True, False, False]
        assert core.stopped
        assert core.rejected_messages == 2

    def test_target_error_stop_mid_batch(self, model):
        core = make_core(model, max_iterations=10**6, target_error=0.2,
                         min_samples_for_error_stop=20)
        token = core.register_device(1)
        acks = core.handle_checkins([
            checkin(1, token, np.zeros(6), num_samples=10, errors=1)
            for _ in range(5)
        ])
        # After 2 check-ins: 20 samples, estimate 0.1 <= 0.2 -> stop.
        assert [a is not None for a in acks] == [True, True, False, False, False]
        assert core.stopping_decision().reason.value == "target_error"


class TestServeRound:
    def test_fused_round_checkout_then_checkin(self, model):
        core = make_core(model)
        token = core.register_device(1)
        request = CheckoutRequest(1, token, 0.0)

        def complete(response):
            assert np.array_equal(response.parameters, np.zeros(6))
            return checkin(1, token, np.ones(6),
                           checkout_iteration=response.server_iteration)

        outcome = core.serve_round([request], complete)
        assert isinstance(outcome, RoundOutcome)
        assert outcome.acks[0].server_iteration == 1
        assert outcome.messages[0].checkout_iteration == 0
        assert core.checkouts_served == 1
        assert not outcome.stop.stopped

    def test_round_applies_before_next_request(self, model):
        """Request i+1 must see the update applied by request i."""
        core = make_core(model)
        tokens = {d: core.register_device(d) for d in (1, 2)}
        seen_iterations = []

        def complete(response):
            seen_iterations.append(response.server_iteration)
            return checkin(response.device_id, tokens[response.device_id],
                           np.ones(6))

        outcome = core.serve_round(
            [CheckoutRequest(1, tokens[1], 0.0), CheckoutRequest(2, tokens[2], 0.0)],
            complete,
        )
        assert seen_iterations == [0, 1]
        assert [a.server_iteration for a in outcome.acks] == [1, 2]

    def test_complete_args_are_forwarded(self, model):
        core = make_core(model)
        token = core.register_device(1)
        captured = []

        def complete(response, tag):
            captured.append(tag)
            return None

        core.serve_round([CheckoutRequest(1, token, 0.0)], complete, ("extra",))
        assert captured == ["extra"]

    def test_auth_failure_skips_complete(self, model):
        core = make_core(model)
        calls = []
        outcome = core.serve_round(
            [CheckoutRequest(9, "bogus", 0.0)],
            lambda response: calls.append(response),
        )
        assert outcome.responses == (None,)
        assert outcome.acks == (None,)
        assert calls == []
        assert core.rejected_messages == 1

    @pytest.mark.parametrize("forged", [(9, "bogus"), (1, "bogus")])
    def test_forged_checkin_from_complete_is_rejected(self, model, forged):
        # The check-in leg of a fused round is authenticated like every
        # other check-in: handle_checkins answers the same message [None].
        core = make_core(model)
        token = core.register_device(1)
        message = checkin(*forged, np.ones(6))
        outcome = core.serve_round(
            [CheckoutRequest(1, token, 0.0)], lambda response: message,
        )
        assert outcome.responses[0] is not None
        assert outcome.messages == (message,)
        assert outcome.acks == (None,)
        assert core.iteration == 0
        assert core.rejected_messages == 1
        assert np.array_equal(core.parameters, model.init_parameters())
        assert core.handle_checkins([message]) == [None]

    def test_none_from_complete_skips_checkin(self, model):
        core = make_core(model)
        token = core.register_device(1)
        outcome = core.serve_round(
            [CheckoutRequest(1, token, 0.0)], lambda response: None,
        )
        assert outcome.responses[0] is not None
        assert outcome.messages == (None,)
        assert outcome.acks == (None,)
        assert core.iteration == 0

    def test_stopped_core_rejects_requests(self, model):
        core = make_core(model, max_iterations=1)
        token = core.register_device(1)
        core.handle_checkin(checkin(1, token, np.zeros(6)))
        assert core.stopped
        outcome = core.serve_round(
            [CheckoutRequest(1, token, 0.0)],
            lambda response: checkin(1, token, np.zeros(6)),
        )
        assert outcome.responses == (None,)
        assert outcome.stop.stopped

    def test_round_stop_decision_reported(self, model):
        core = make_core(model, max_iterations=2)
        token = core.register_device(1)

        def complete(response):
            return checkin(1, token, np.zeros(6))

        outcome = core.serve_round(
            [CheckoutRequest(1, token, 0.0), CheckoutRequest(1, token, 0.0)],
            complete,
        )
        assert outcome.stop.stopped
        assert outcome.stop.reason.value == "max_iterations"


class TestSingleMessageSemantics:
    """The raise-on-reject wire semantics are preserved on the core."""

    def test_checkout_raises_for_unknown_device(self, model):
        core = make_core(model)
        with pytest.raises(AuthenticationError):
            core.handle_checkout(CheckoutRequest(9, "x", 0.0))

    def test_checkin_raises_once_stopped(self, model):
        core = make_core(model, max_iterations=1)
        token = core.register_device(1)
        core.handle_checkin(checkin(1, token, np.zeros(6)))
        with pytest.raises(ProtocolError):
            core.handle_checkin(checkin(1, token, np.zeros(6)))

    def test_stop_cache_tracks_updates(self, model):
        core = make_core(model, max_iterations=2)
        token = core.register_device(1)
        assert core.stopping_decision() is core.stopping_decision()  # cached
        core.handle_checkin(checkin(1, token, np.zeros(6)))
        assert not core.stopped
        core.handle_checkin(checkin(1, token, np.zeros(6)))
        assert core.stopped
