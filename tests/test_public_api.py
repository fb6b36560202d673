"""Tests of the top-level public API surface."""

import dataclasses
import inspect
import math

import pytest

import repro


class TestExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.baselines
        import repro.core
        import repro.data
        import repro.evaluation
        import repro.experiments
        import repro.features
        import repro.gateway
        import repro.models
        import repro.network
        import repro.obs
        import repro.optim
        import repro.persist
        import repro.portal
        import repro.privacy
        import repro.serve
        import repro.shard
        import repro.simulation
        import repro.store
        import repro.utils

    def test_subpackage_all_names_resolve(self):
        # Every subpackage, so deleting a module cannot leave a lazy export
        # (or an eager import) pointing at it.
        import importlib
        import pkgutil

        subpackages = [
            info.name for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg
        ]
        assert len(subpackages) == 20
        for name in subpackages:
            module = importlib.import_module(f"repro.{name}")
            for exported in module.__all__:
                assert hasattr(module, exported), f"{module.__name__}.{exported}"


class TestOptionsCensus:
    """Every independently settable value doubles what tests and
    benchmarks must cover, so a new knob must show up as a one-line diff
    here (and an unused one should leave the same way)."""

    def test_option_counts_are_pinned(self):
        from repro.core.config import DeviceConfig
        from repro.core.device import Device
        from repro.core.sanitizer import CheckinSanitizer
        from repro.core.server_core import ServerCore
        from repro.experiments import ArmSpec
        from repro.gateway import GatewayAggregator, TwoTierTopology
        from repro.gateway.edge import EdgeGateway
        from repro.persist import Checkpointer, CheckpointPolicy, SnapshotStore
        from repro.privacy import PrivacyAccountant
        from repro import registry
        from repro.serve import CrowdService, RemoteServerCore, ServiceClient
        from repro.serve.cli import build_parser
        from repro.serve.host import HttpHost
        from repro.shard import ShardFrontEnd, ShardRouter, ShardSupervisor
        from repro.simulation import SimulationConfig

        constructor_parameters = {
            HttpHost: 6,
            CrowdService: 8,
            ShardFrontEnd: 5,
            ShardRouter: 1,
            ShardSupervisor: 5,
            EdgeGateway: 4,
            GatewayAggregator: 2,
            ServiceClient: 6,
            RemoteServerCore: 1,
            SnapshotStore: 3,
            Checkpointer: 2,
            CheckpointPolicy: 2,
            # Sharing the sanitizer calibration is not something a caller
            # can switch off: no parameter selects it.  Routine 3 has one
            # noise path (Laplace) and each device keeps its own tally.
            Device: 6,
            CheckinSanitizer: 3,
            # Privacy accounting lives on the devices, not the server.
            ServerCore: 5,
            PrivacyAccountant: 0,
        }
        counted = {
            cls: len(inspect.signature(cls).parameters)
            for cls in constructor_parameters
        }
        assert counted == constructor_parameters
        assert len(dataclasses.fields(SimulationConfig)) == 19
        assert len(dataclasses.fields(ArmSpec)) == 18
        assert len(dataclasses.fields(TwoTierTopology)) == 2
        assert len(dataclasses.fields(DeviceConfig)) == 4
        repro_serve_arguments = [
            action for action in build_parser()._actions if action.dest != "help"
        ]
        assert len(repro_serve_arguments) == 23
        # A heap entry is (time, sequence, callback, args): no tag, no
        # handle options.
        from repro.network import EventQueue

        assert list(inspect.signature(EventQueue().schedule).parameters) == [
            "time", "callback", "args",
        ]
        registries = [
            name for name, value in vars(registry).items()
            if isinstance(value, registry.Registry)
        ]
        assert len(registries) == 5
        assert registry.SCHEDULES.names() == (
            "constant", "inverse_sqrt", "inverse_time", "step_decay",
        )

    def test_remote_server_core_is_the_fused_round_proxy(self):
        from repro.serve import RemoteServerCore

        public = {n for n in vars(RemoteServerCore) if not n.startswith("_")}
        assert public == {
            "iteration", "parameters", "register_device", "serve_round",
            "validate_model",
        }


class TestQuickCrowdRun:
    @pytest.fixture(scope="class")
    def report(self):
        return repro.quick_crowd_run(
            num_devices=10, num_train=400, num_test=200, seed=0
        )

    def test_returns_trial_report(self, report):
        assert report.num_trials == 1
        assert 0.0 <= report.final_error <= 1.0

    def test_learns_something(self, report):
        curve = report.mean_curve
        assert curve.final_error < curve.errors[0]

    def test_private_run(self):
        report = repro.quick_crowd_run(
            num_devices=10, epsilon=5.0, batch_size=5,
            num_train=400, num_test=200,
        )
        assert report.traces[0].per_sample_epsilon == pytest.approx(5.0)

    def test_reproducible(self, report):
        again = repro.quick_crowd_run(
            num_devices=10, num_train=400, num_test=200, seed=0
        )
        assert again.final_error == report.final_error
