"""``repro-serve --workers N``: the CLI front door of the sharded tier."""

import os
import signal
import subprocess
import sys

import pytest

from repro.serve.cli import main

from tests.shard.conftest import DIM, CLASSES, make_client, serve_env


class TestArgValidation:
    def test_workers_requires_state_dir(self, capsys):
        assert main([
            "--num-features", "4", "--num-classes", "3", "--workers", "2",
        ]) == 2
        assert "--state-dir" in capsys.readouterr().err

    def test_workers_excludes_shard_index(self, tmp_path, capsys):
        assert main([
            "--num-features", "4", "--num-classes", "3", "--workers", "2",
            "--state-dir", str(tmp_path), "--shard-index", "0",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unknown_model_exits_before_any_worker_spawns(self, tmp_path, capsys):
        # The front end never imports a model, yet must refuse the name
        # itself rather than leave it to workers that would die on it.
        with pytest.raises(SystemExit) as exited:
            main([
                "--num-features", "4", "--num-classes", "3", "--workers", "2",
                "--state-dir", str(tmp_path), "--model", "transformer",
            ])
        assert exited.value.code != 0
        assert "transformer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
def test_sharded_cli_tier_serves_and_shuts_down_cleanly(tmp_path):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli",
         "--num-features", str(DIM), "--num-classes", str(CLASSES),
         "--learning-rate-constant", "0.5", "--projection-radius", "10.0",
         "--port", "0", "--workers", "2", "--state-dir", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=serve_env(),
    )
    try:
        announce = process.stdout.readline()
        assert announce.startswith("serving on ")
        url = announce.split("serving on ", 1)[1].strip()
        banner = process.stdout.readline()
        assert "sharded tier: 2 workers" in banner

        client = make_client(url)
        token = client.join(0)
        assert token
        status = client.status()
        assert status.registered_devices == 1
        assert status.shards is not None and len(status.shards) == 2

        # Per-shard state landed in shard-<k>/ subdirs.
        assert sorted(
            name for name in os.listdir(tmp_path) if name.startswith("shard-")
        ) == ["shard-0", "shard-1"]
        assert (tmp_path / "shard-0" / "epoch.json").is_file()

        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
