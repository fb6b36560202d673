"""Tests of the ``repro-store`` command line interface."""

import json

import numpy as np
import pytest

from repro.evaluation.curves import ErrorCurve
from repro.experiments.results import FigureResult
from repro.store import RunStore, StoreError, digest
from repro.store.cli import main, parse_age


def curve(values) -> ErrorCurve:
    return ErrorCurve(np.arange(1, len(values) + 1),
                      np.asarray(values, dtype=np.float64))


@pytest.fixture
def root(tmp_path):
    store = RunStore(str(tmp_path / "store"))
    store.put(digest(["trial", 0]), curve([0.5, 0.4, 0.3]),
              extra={"experiment": "fig4", "label": "crowd", "trial": 0})
    store.put(digest(["ref"]), 0.15,
              extra={"experiment": "fig4", "label": "batch"})
    store.put(
        digest(["fig", "a"]),
        FigureResult("fig4", curves={"crowd": curve([0.5, 0.4, 0.3])},
                     reference_lines={"batch": 0.15}),
        extra={"experiment": "fig4", "seed": 0},
    )
    store.put(
        digest(["fig", "b"]),
        FigureResult("fig4", curves={"crowd": curve([0.5, 0.45, 0.42])},
                     reference_lines={"batch": 0.18}),
        extra={"experiment": "fig4", "seed": 1},
    )
    return store.root


class TestParseAge:
    def test_units(self):
        assert parse_age("90") == 90.0
        assert parse_age("45s") == 45.0
        assert parse_age("30m") == 1800.0
        assert parse_age("12h") == 43200.0
        assert parse_age("7d") == 604800.0

    def test_rejects_garbage(self):
        for bad in ("", "soon", "-5s"):
            with pytest.raises(StoreError):
                parse_age(bad)


class TestList:
    def test_lists_everything(self, root, capsys):
        assert main(["--store", root, "list"]) == 0
        out = capsys.readouterr().out
        assert "(4 entries)" in out
        assert "error_curve" in out and "figure_result" in out

    def test_type_filter(self, root, capsys):
        assert main(["--store", root, "list", "--type", "scalar"]) == 0
        out = capsys.readouterr().out
        assert "(1 entry)" in out and "batch" in out

    def test_long_prints_full_keys(self, root, capsys):
        assert main(["--store", root, "list", "--long"]) == 0
        out = capsys.readouterr().out
        assert digest(["ref"]) in out

    def test_empty_store(self, tmp_path, capsys):
        fresh = RunStore(str(tmp_path / "fresh")).root
        assert main(["--store", fresh, "list"]) == 0
        assert "empty" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["list"], ["show", "abc"],
                                         ["prune", "--all"]])
    def test_path_without_a_store_is_refused_untouched(
            self, tmp_path, capsys, command):
        typo = tmp_path / "typo"
        assert main(["--store", str(typo), *command]) == 2
        assert (f"repro-store: no run store at {typo}"
                in capsys.readouterr().err)
        assert not typo.exists()

    def test_env_dir_without_a_store_is_refused_untouched(
            self, tmp_path, monkeypatch, capsys):
        from repro.store import STORE_DIR_ENV
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        assert main(["list"]) == 2
        assert "no run store at" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_store_dir_errors(self, monkeypatch, capsys):
        from repro.store import STORE_DIR_ENV
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        with pytest.raises(SystemExit):
            main(["list"])

    def test_store_dir_from_env(self, root, monkeypatch, capsys):
        from repro.store import STORE_DIR_ENV
        monkeypatch.setenv(STORE_DIR_ENV, root)
        assert main(["list"]) == 0
        assert "(4 entries)" in capsys.readouterr().out


class TestShow:
    def test_prints_manifest_json(self, root, capsys):
        key = digest(["trial", 0])
        assert main(["--store", root, "show", key[:12]]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["key"] == key
        assert manifest["label"] == "crowd"

    def test_unknown_prefix_fails(self, root, capsys):
        assert main(["--store", root, "show", "ffffffffffff"]) == 2
        assert "no store entry" in capsys.readouterr().err


class TestDiff:
    def test_identical_runs_match(self, root, capsys):
        key = digest(["fig", "a"])
        assert main(["--store", root, "diff", key, key]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_different_runs_differ(self, root, capsys):
        assert main(["--store", root, "diff",
                     digest(["fig", "a"]), digest(["fig", "b"])]) == 1
        out = capsys.readouterr().out
        assert "DIFFER" in out and "crowd" in out and "batch" in out

    def test_tolerance_absorbs_small_deltas(self, root, capsys):
        assert main(["--store", root, "diff",
                     digest(["fig", "a"]), digest(["fig", "b"]),
                     "--tolerance", "0.5"]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_non_figure_entry_rejected(self, root, capsys):
        assert main(["--store", root, "diff",
                     digest(["trial", 0]), digest(["fig", "a"])]) == 2
        assert "figure_result" in capsys.readouterr().err


class TestExport:
    def test_round_trips_curves(self, root, tmp_path, capsys):
        out_path = str(tmp_path / "out.json")
        assert main(["--store", root, "export", digest(["fig", "a"]),
                     "-o", out_path]) == 0
        with open(out_path) as handle:
            loaded = FigureResult.from_json(handle.read())
        assert np.array_equal(loaded.curves["crowd"].errors,
                              np.array([0.5, 0.4, 0.3]))
        assert loaded.reference_lines == {"batch": 0.15}

    def test_stdout_by_default(self, root, capsys):
        assert main(["--store", root, "export", digest(["fig", "a"])]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "curves" in payload


class TestPrune:
    def test_requires_filter(self, root, capsys):
        assert main(["--store", root, "prune"]) == 2
        assert "refusing" in capsys.readouterr().err

    def test_prune_by_type(self, root, capsys):
        assert main(["--store", root, "prune", "--type", "scalar"]) == 0
        assert "pruned 1 entry" in capsys.readouterr().out
        assert len(RunStore(root)) == 3

    def test_prune_all(self, root, capsys):
        assert main(["--store", root, "prune", "--all"]) == 0
        assert "pruned 4 entries" in capsys.readouterr().out
        assert len(RunStore(root)) == 0

    def test_prune_older_than_keeps_fresh(self, root, capsys):
        assert main(["--store", root, "prune", "--older-than", "1d",
                     "--all"]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out
