"""Tests of the component registries."""

import pytest

from repro.registry import (
    DATASETS,
    MODELS,
    PARTITIONERS,
    Registry,
    RegistryError,
    SCHEDULES,
)


class TestRegistry:
    def test_register_and_create(self):
        reg = Registry("widget")
        reg.register("square", lambda side=1: side * side)
        assert reg.create("square", side=3) == 9

    def test_decorator_form(self):
        reg = Registry("widget")

        @reg.register("double")
        def double(x):
            return 2 * x

        assert double(4) == 8  # decorator returns the function unchanged
        assert reg.create("double", x=4) == 8

    def test_duplicate_registration_raises(self):
        reg = Registry("widget")
        reg.register("a", lambda: 1)
        with pytest.raises(RegistryError, match="already registered"):
            reg.register("a", lambda: 2)

    def test_overwrite_flag(self):
        reg = Registry("widget")
        reg.register("a", lambda: 1)
        reg.register("a", lambda: 2, overwrite=True)
        assert reg.create("a") == 2

    def test_unknown_lookup_names_known_components(self):
        reg = Registry("widget")
        reg.register("alpha", lambda: 1)
        with pytest.raises(RegistryError, match="alpha"):
            reg.get("beta")

    def test_unregister(self):
        reg = Registry("widget")
        reg.register("a", lambda: 1)
        reg.unregister("a")
        assert "a" not in reg
        with pytest.raises(RegistryError):
            reg.unregister("a")

    def test_container_protocol(self):
        reg = Registry("widget")
        reg.register("b", lambda: 1)
        reg.register("a", lambda: 1)
        assert len(reg) == 2
        assert list(reg) == ["a", "b"]  # sorted
        assert "a" in reg and "c" not in reg

    def test_create_allows_name_kwarg(self):
        reg = Registry("widget")
        reg.register("tagged", lambda name: f"<{name}>")
        assert reg.create("tagged", name="x") == "<x>"


class TestBuiltinRegistries:
    def test_models(self):
        for name in ("logistic", "linear_svm", "ridge"):
            assert name in MODELS
        model = MODELS.create("logistic", num_features=4, num_classes=3)
        assert model.num_parameters == 12
        # The class itself, imported from its path on first get: the
        # experiment layer introspects its signature.
        from repro.models import MulticlassLogisticRegression

        assert MODELS.get("logistic") is MulticlassLogisticRegression

    def test_datasets(self):
        for name in ("mnist_like", "cifar_like", "activity_stream", "thermostat"):
            assert name in DATASETS
        train, test = DATASETS.create("mnist_like", num_train=60, num_test=30, seed=0)
        assert len(train) == 60 and len(test) == 30

    def test_partitioners(self, rng, small_dataset):
        for name in ("iid", "dirichlet", "shard"):
            assert name in PARTITIONERS
        parts = PARTITIONERS.get("iid")(small_dataset, 3, rng)
        assert len(parts) == 3

    def test_schedules(self):
        schedule = SCHEDULES.create("inverse_sqrt", constant=2.0)
        assert schedule.rate(4) == pytest.approx(1.0)

    def test_privacy_mechanisms(self):
        # Not a registry: nothing looks a mechanism up by name.  The three
        # families are imported and share the Mechanism interface.
        import repro.privacy as privacy

        built = {
            "LaplaceMechanism": privacy.LaplaceMechanism(1.0, 1.0),
            "DiscreteLaplaceMechanism": privacy.DiscreteLaplaceMechanism(1.0),
            "ExponentialMechanism": privacy.ExponentialMechanism(1.0),
        }
        for name, mechanism in built.items():
            assert isinstance(mechanism, privacy.Mechanism)
            assert mechanism.epsilon == 1.0
            assert type(mechanism).__name__ == name
