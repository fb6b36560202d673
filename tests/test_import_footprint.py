"""Start-up is a cost too: what each entry point imports, from a fresh interpreter.

Every census runs in a subprocess (this process has long since imported
the whole tree) and reads ``sys.modules`` after one statement.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def fresh_python(*args):
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def modules_after(statement):
    done = fresh_python(
        "-c", f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def repro_packages(modules):
    return {name.split(".")[1] for name in modules if name.startswith("repro.")}


class TestFootprint:
    def test_bare_import_is_nearly_free(self):
        modules = modules_after("import repro")
        assert "numpy" not in modules
        assert len([m for m in modules if m.split(".")[0] == "repro"]) <= 3

    def test_server_loads_no_simulator_and_no_process_pool(self):
        modules = modules_after("import repro.serve.cli")
        assert not repro_packages(modules) & {
            "experiments", "simulation", "gateway", "network", "evaluation",
            "data", "features", "baselines", "analysis", "portal",
        }
        assert "multiprocessing" not in modules

    def test_device_loads_only_what_a_round_runs(self):
        modules = modules_after("from repro.serve import RemoteDevice, ServiceClient")
        assert repro_packages(modules) <= {
            "_lazy", "core", "models", "obs", "optim", "privacy", "serve", "utils",
        }

    def test_sharded_front_end_loads_no_numpy(self):
        modules = modules_after(
            "import repro.serve.cli\n"
            "from repro.shard import ShardFrontEnd, ShardRouter, ShardSupervisor, ShardWorker\n"
            "repro.serve.cli.build_parser()"
        )
        assert "numpy" not in modules
        assert "repro.persist.snapshot" not in modules
        assert "_hashlib" not in modules  # OpenSSL

    def test_durable_server_loads_no_openssl(self, tmp_path):
        modules = modules_after(
            "from repro.serve.cli import build_parser, build_service\n"
            "args = build_parser().parse_args(\n"
            "    ['--num-features', '4', '--num-classes', '3', '--port', '0',\n"
            f"     '--state-dir', {str(tmp_path)!r}, '--register', '8'])\n"
            "build_service(args).stop()"
        )
        assert "repro.persist.snapshot" in modules  # the durable path ran
        assert "repro.utils.digest" in modules  # and minted tokens
        assert "_hashlib" not in modules
        assert "hashlib" not in modules

    def test_server_without_state_dir_loads_no_rng_and_no_snapshot_codec(self):
        modules = modules_after(
            "from repro.serve.cli import build_parser, build_service\n"
            "args = build_parser().parse_args(\n"
            "    ['--num-features', '4', '--num-classes', '3', '--port', '0'])\n"
            "build_service(args).stop()"
        )
        assert "repro.core.server_core" in modules  # it did build a core
        assert "numpy.random" not in modules
        assert "repro.persist.snapshot" not in modules
        # Only the model it serves.
        assert "repro.models.linear_svm" not in modules

    def test_import_is_warning_free(self):
        done = fresh_python("-W", "error", "-c", "import repro")
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def mapped_libraries(pid, *names):
    with open(f"/proc/{pid}/maps") as handle:
        return [line for line in handle if any(name in line for name in names)]


class TestLiveFrontEnd:
    def test_sharded_front_end_maps_no_numpy_after_mixed_traffic(self, tmp_path):
        import numpy as np

        from repro.core.protocol import CheckinMessage, CheckoutRequest
        from repro.serve.client import ServiceClient
        from repro.serve.launch import launch, shut_down
        from repro.shard import ShardRouter

        process, url = launch(
            ["--num-features", "4", "--num-classes", "3", "--port", "0",
             "--workers", "2", "--state-dir", str(tmp_path), "--metrics"],
            {**os.environ, "PYTHONPATH": SRC_DIR},
        )
        client = ServiceClient(url, timeout=15.0, retries=8, backoff=0.02)
        try:
            router = ShardRouter(2)
            devices = [next(d for d in range(64) if router.shard_of(d) == shard)
                       for shard in (0, 1)]
            messages = []
            for device in devices:
                token = client.join(device)
                checkout = client.checkout(CheckoutRequest(device, token, 0.0))
                messages.append(CheckinMessage(
                    device, token, np.full(checkout.parameters.size, 0.5), 1, 0,
                    [1, 0, 0], checkout.server_iteration,
                ))
            result = client.checkins(messages)  # split across both shards
            assert [ack.device_id for ack in result.acks] == devices
            assert result.server_iteration == 2
            workers = [row["pid"] for row in client.status().shards]
            assert len(workers) == 2
            assert client.metrics_snapshot()["enabled"]
            assert mapped_libraries(process.pid, "numpy") == []
            for pid in [process.pid, *workers]:  # tokens, checksums: no OpenSSL
                assert mapped_libraries(pid, "libcrypto", "libssl") == [], pid
        finally:
            client.close()
            assert shut_down(process) == 0


class TestLazyNamespace:
    def test_dir_lists_every_public_name(self):
        assert set(repro.__all__) <= set(dir(repro))
        assert set(repro.core.__all__) <= set(dir(repro.core))

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)

    def test_subpackages_resolve_by_attribute_after_a_bare_import(self):
        done = fresh_python(
            "-c",
            "import repro\n"
            "print(repro.core.Device.__module__, repro.serve.wire.PROTOCOL_VERSION)",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[0] == "repro.core.device"

    def test_resolved_names_are_cached_in_the_package_dict(self):
        assert repro.core.ServerCore is vars(repro.core)["ServerCore"]
        assert repro.ServerCore is vars(repro)["ServerCore"]

    @pytest.mark.parametrize("name", ["no_such_name", "_private", "__wrapped__"])
    def test_unknown_names_raise_attribute_error(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(repro.serve, name)
        assert not hasattr(repro, name)

    def test_one_lazy_mechanism(self):
        defining = [
            str(path.relative_to(SRC_DIR))
            for path in pathlib.Path(SRC_DIR, "repro").rglob("*.py")
            if "def __getattr__" in path.read_text()
        ]
        assert defining == ["repro/_lazy.py"]
