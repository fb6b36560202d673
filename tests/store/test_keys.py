"""Tests of canonicalization and content-key stability."""

import math

import numpy as np
import pytest

from repro.store import keys
from repro.store.keys import (
    canonical_json,
    canonicalize,
    digest,
    figure_key,
    task_key,
)


class TestCanonicalize:
    def test_sorts_dict_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_nested_order_insensitive(self):
        a = {"x": {"p": 1, "q": [1, 2]}, "y": 3}
        b = {"y": 3, "x": {"q": [1, 2], "p": 1}}
        assert canonical_json(a) == canonical_json(b)

    def test_tuples_and_lists_equal(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_nonfinite_floats_become_tokens(self):
        assert canonicalize(math.inf) == "__inf__"
        assert canonicalize(-math.inf) == "__-inf__"
        assert canonicalize(math.nan) == "__nan__"
        # The canonical form is strict JSON (no Infinity literals).
        assert "Infinity" not in canonical_json({"eps": math.inf})

    def test_numpy_scalars_collapse(self):
        assert canonicalize(np.int64(3)) == 3
        assert canonicalize(np.float64(0.5)) == 0.5

    def test_int_float_distinct(self):
        assert digest({"v": 1}) != digest({"v": 1.0})

    def test_unknown_types_are_errors(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonicalize(object())

    def test_digest_is_sha256_hex(self):
        key = digest({"a": 1})
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_figure_key_bytes_are_pinned(self):
        # Stored results are found by these keys; a changed byte orphans them.
        assert figure_key({"name": "x"}, 0) == (
            "6664d3ea7ee7055d8ee8452c23c1f8cc067ac268369bf621631079ecebe14dbf")


class TestTaskKey:
    PAYLOAD = {
        "kind": "crowd", "model": "logistic", "model_kwargs": {},
        "batch_size": 1, "epsilon": math.inf, "trial": 0,
        "base_seed": 3, "num_devices": 5,
        "data_desc": {"dataset": "mnist_like",
                      "dataset_kwargs": {"num_train": 300, "seed": 3}},
        "train_ref": "data0", "test_ref": "data1",
    }

    def test_deterministic(self):
        assert task_key(self.PAYLOAD) == task_key(dict(self.PAYLOAD))

    def test_data_refs_do_not_matter(self):
        other = dict(self.PAYLOAD, train_ref="data7", test_ref="data9")
        assert task_key(other) == task_key(self.PAYLOAD)

    def test_trial_matters(self):
        assert task_key(dict(self.PAYLOAD, trial=1)) != task_key(self.PAYLOAD)

    def test_seed_matters(self):
        assert (task_key(dict(self.PAYLOAD, base_seed=4))
                != task_key(self.PAYLOAD))

    def test_dataset_request_matters(self):
        other = dict(self.PAYLOAD,
                     data_desc={"dataset": "mnist_like",
                                "dataset_kwargs": {"num_train": 600,
                                                   "seed": 3}})
        assert task_key(other) != task_key(self.PAYLOAD)

    def test_format_bump_invalidates(self, monkeypatch):
        before = task_key(self.PAYLOAD)
        monkeypatch.setattr(keys, "KEY_FORMAT", keys.KEY_FORMAT + 1)
        assert task_key(self.PAYLOAD) != before

    def test_distinct_from_figure_namespace(self):
        material = {"spec": {"name": "x"}, "seed": 0}
        assert task_key(material) != figure_key({"name": "x"}, 0)


class TestFigureKey:
    def test_seed_and_spec_matter(self):
        spec = {"name": "fig4", "arms": [{"label": "crowd"}]}
        assert figure_key(spec, 0) != figure_key(spec, 1)
        assert figure_key(spec, 0) != figure_key({**spec, "name": "f"}, 0)

    def test_deterministic(self):
        spec = {"name": "fig4", "arms": [{"label": "crowd"}]}
        assert figure_key(spec, 0) == figure_key(dict(spec), 0)
