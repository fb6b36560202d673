"""Bit-identity of the per-round kernels that compute in place.

``softmax``, the fused logistic oracle and the optimizers' step reuse
their own buffers and decide finiteness from one dot product; each must
produce the bytes of the plain out-of-place formula it replaces, and
accept or reject exactly the gradients an element-wise
``np.isfinite(g).all()`` would.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.models import MulticlassLogisticRegression
from repro.optim import SGD, AdaGrad, InverseSqrtRate, L2BallProjection
from repro.utils.exceptions import ConfigurationError
from repro.utils.numerics import softmax


def reference_softmax(scores, axis=-1):
    """Three temporaries: shift, exponentiate, normalise."""
    shifted = scores - scores.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


score_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 64), st.integers(1, 12)),
    elements=st.floats(-700, 700, allow_nan=False),
)


class TestSoftmaxIdentity:
    @given(scores=score_matrices, axis=st.sampled_from([0, 1, -1]))
    @settings(max_examples=150)
    def test_in_place_equals_three_temporaries(self, scores, axis):
        before = scores.copy()
        assert same_bytes(softmax(scores, axis=axis), reference_softmax(before, axis))
        assert same_bytes(scores, before)  # the input is never written


class TestFusedOracleIdentity:
    @given(
        batch=st.integers(1, 64),
        classes=st.integers(2, 10),
        dim=st.integers(1, 12),
        l2=st.sampled_from([0.0, 0.01]),
        validate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120)
    def test_equals_separate_oracles(self, batch, classes, dim, l2, validate, seed):
        rng = np.random.default_rng(seed)
        model = MulticlassLogisticRegression(dim, classes, l2_regularization=l2)
        w = rng.normal(scale=3.0, size=model.num_parameters)
        x = rng.normal(size=(batch, dim))
        y = rng.integers(0, classes, size=batch)
        errors, grad = model.errors_and_gradient(w, x, y, validate=validate)
        assert same_bytes(errors, model.prediction_errors(w, x, y))
        assert same_bytes(grad, model.gradient(w, x, y))


# Finite values small and large (1e200 squared overflows g·g), zeros of
# both signs, and every non-finite kind.
gradient_entries = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([1e200, -1e200, 1.7e308, 0.0, -0.0, 5e-324]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


def make_optimizer(kind, w):
    if kind == "sgd":
        return SGD(w, schedule=InverseSqrtRate(0.5))
    return AdaGrad(w, constant=0.1)


def reference_update(kind, w, g, accumulator):
    """Out-of-place formula of one first step (t = 1)."""
    if kind == "sgd":
        return w - 0.5 * g, accumulator
    accumulator = accumulator + g**2
    return w - 0.1 / (1e-8 + np.sqrt(accumulator)) * g, accumulator


class TestStepFiniteness:
    @given(
        kind=st.sampled_from(["sgd", "adagrad"]),
        entries=st.lists(gradient_entries, min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_accepts_exactly_the_finite_gradients(self, kind, entries, seed):
        g = np.array(entries)
        w = np.random.default_rng(seed).normal(size=g.shape[0])
        opt = make_optimizer(kind, w)
        accumulator = np.zeros_like(w)
        if np.isfinite(g).all():
            expected_w, expected_acc = reference_update(kind, w, g, accumulator)
            assert same_bytes(opt.step(g), expected_w)
            assert opt.iteration == 1
            if kind == "adagrad":
                assert same_bytes(opt.accumulator, expected_acc)
        else:
            with pytest.raises(ConfigurationError):
                opt.step(g)
            assert same_bytes(opt.parameters, w)
            assert opt.iteration == 0
            if kind == "adagrad":
                assert same_bytes(opt.accumulator, accumulator)

    @pytest.mark.parametrize("kind", ["sgd", "adagrad"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_dot_is_still_accepted(self, kind):
        g = np.full(8, 1e200)
        assert not math.isfinite(g.dot(g))
        w = np.linspace(-1.0, 1.0, 8)
        expected_w, _ = reference_update(kind, w, g, np.zeros(8))
        assert same_bytes(make_optimizer(kind, w).step(g), expected_w)


class TestSGDStepIdentity:
    @given(
        steps=st.lists(
            hnp.arrays(np.float64, 6, elements=st.floats(-1e6, 1e6, allow_nan=False)),
            min_size=1, max_size=8,
        ),
        radius=st.sampled_from([None, 0.5, 10.0]),
    )
    @settings(max_examples=120)
    def test_step_equals_w_minus_eta_g_projected(self, steps, radius):
        schedule = InverseSqrtRate(0.7)
        projection = L2BallProjection(radius) if radius is not None else None
        opt = SGD(np.linspace(-0.3, 0.3, 6), schedule=schedule, projection=projection)
        expected = opt.parameters
        for t, g in enumerate(steps, start=1):
            view = opt.parameters_view
            frozen = view.copy()
            expected = expected - schedule(t) * g
            if projection is not None:
                expected = projection(expected)
            assert same_bytes(opt.step(g), np.asarray(expected, dtype=np.float64))
            assert same_bytes(view, frozen)  # the old vector is never mutated
