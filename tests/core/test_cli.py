import json

import pytest

from repro.cli import main


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(str(l) for l in lines)


class TestDatasets:
    def test_prints_table1(self):
        code, text = run_cli(["datasets"])
        assert code == 0
        assert "products" in text
        assert "111,059,956" in text  # papers |V|


class TestBreakdown:
    @pytest.mark.parametrize("platform", ["cpu", "gpu", "piuma"])
    def test_platforms(self, platform):
        code, text = run_cli(
            ["breakdown", "arxiv", "--platform", platform, "--hidden", "32"]
        )
        assert code == 0
        assert "total:" in text
        assert "spmm=" in text

    def test_unknown_dataset_is_error(self):
        code, text = run_cli(["breakdown", "reddit"])
        assert code == 2
        assert "error" in text


class TestSpeedup:
    def test_reports_both_platforms(self):
        code, text = run_cli(["speedup", "products", "--hidden", "64"])
        assert code == 0
        assert "piuma" in text and "gpu" in text
        assert "x" in text


class TestSimulate:
    def test_runs_des(self):
        code, text = run_cli(
            ["simulate", "power-12", "--cores", "2", "--hidden", "16",
             "--max-vertices", "2048"]
        )
        assert code == 0
        assert "GFLOP/s" in text
        assert "projected kernel time" in text

    def test_kernel_choices(self):
        code, text = run_cli(
            ["simulate", "power-12", "--cores", "1", "--hidden", "8",
             "--kernel", "vertex", "--max-vertices", "2048"]
        )
        assert code == 0
        assert "vertex" in text


class TestSweep:
    def test_grid_runs_and_reports(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["sweep", "--dataset", "power-12", "--max-vertices", "2048",
                "--cores", "1", "2", "--dims", "8", "--workers", "1"]
        code, text = run_cli(argv)
        assert code == 0
        assert "DES GF" in text and "mem util" in text
        assert "2/2 points" in text
        assert "2 miss(es)" in text
        # Warm rerun: every point served from the cache.
        code, text = run_cli(argv)
        assert code == 0
        assert "2 hit(s)" in text

    def test_no_cache_flag_bypasses(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["sweep", "--dataset", "power-12", "--max-vertices", "1024",
                "--dims", "8", "--cores", "1", "--workers", "1",
                "--no-cache"]
        for _ in range(2):
            code, text = run_cli(argv)
            assert code == 0
            assert "0 hit(s)" in text

    def test_clear_cache_invalidates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["sweep", "--dataset", "power-12", "--max-vertices", "1024",
                "--dims", "8", "--cores", "1", "--workers", "1"]
        run_cli(argv)
        code, text = run_cli(argv + ["--clear-cache"])
        assert code == 0
        assert "cleared 1 cached record(s)" in text
        assert "1 miss(es)" in text


    def test_check_level_names_its_own_manifest(self, tmp_path,
                                                monkeypatch):
        from repro.runtime import SweepCheckpoint

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        flushed = set()
        flush = SweepCheckpoint.flush

        def track(self, key, record):
            flushed.add(self.path.name)
            flush(self, key, record)

        monkeypatch.setattr(SweepCheckpoint, "flush", track)
        argv = ["sweep", "--dataset", "power-12", "--max-vertices", "1024",
                "--dims", "8", "--cores", "1", "--workers", "1",
                "--no-cache"]
        names = []
        for extra in ([], ["--check-level", "1"]):
            flushed.clear()
            code, _text = run_cli(argv + extra)
            assert code == 0
            [name] = flushed
            names.append(name)
        assert names[0] != names[1]


class TestMultinode:
    ARGV = ["multinode", "--dataset", "arxiv", "--nodes", "1", "2",
            "--strategy", "both", "--hidden", "16", "--max-vertices",
            "1024", "--workers", "1"]

    def test_strong_scaling_table_and_figure(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, text = run_cli(self.ARGV)
        assert code == 0
        assert "multi-node strong scaling" in text
        # Per-strategy comparison columns and the scaling figure.
        assert "block" in text and "degree" in text
        assert "comm%" in text and "balance" in text
        assert "speedup[block]" in text and "ideal" in text
        assert "Eq.5 DGAS envelope" in text
        assert "held at every point" in text
        assert "full-scale projection (arxiv)" in text

    def test_json_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        artifact = tmp_path / "out" / "multinode.json"
        code, text = run_cli(
            self.ARGV + ["--strategy", "block", "--json", str(artifact)]
        )
        assert code == 0
        data = json.loads(artifact.read_text())
        assert data["strategies"] == ["block"]
        assert [r["n_nodes"] for r in data["rows"]] == [1, 2]
        assert all("cut_fraction" in r and "balance" in r
                   for r in data["rows"])

    def test_shard_records_cached_across_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_cli(self.ARGV)
        code, text = run_cli(self.ARGV)
        assert code == 0
        assert "held at every point" in text

    def test_recover_prints_study_counters_once(self, tmp_path,
                                                monkeypatch):
        """The study runs as one batch, so its recovery counters are
        already totals: one retried shard prints as one, and no row
        carries a copy of them."""
        from repro.runtime.shard import ShardTask

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run = ShardTask.run
        failed = []

        def flaky(self):
            point = (self.strategy, self.n_shards, self.shard)
            if point == ("degree", 2, 1) and not failed:
                failed.append(point)
                raise RuntimeError("injected")
            return run(self)

        monkeypatch.setattr(ShardTask, "run", flaky)
        artifact = tmp_path / "multinode.json"
        code, text = run_cli(self.ARGV + ["--recover", "--json",
                                          str(artifact)])
        assert code == 0
        assert text.count("recovery:") == 1
        assert ("recovery: 1 retried shard attempt(s), 0/0 hedge(s) won, "
                "0 fallback(s)") in text
        rows = json.loads(artifact.read_text())["rows"]
        assert len(rows) == 4
        assert not any("recovery" in row for row in rows)

    def test_rejects_nonpositive_nodes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, text = run_cli(self.ARGV + ["--nodes", "0"])
        assert code == 2
        assert "error" in text


class TestAdvise:
    def test_dense_graph_accelerator_favored(self):
        code, text = run_cli(["advise", "1000000", "1e-4"])
        assert code == 0
        assert "accelerator-favored" in text

    def test_sparse_small_graph_cpu_favored(self):
        code, text = run_cli(["advise", "50000", "1e-6", "--hidden", "256"])
        assert code == 0
        assert "CPU/GPU-favored" in text

    def test_invalid_density_is_error(self):
        code, text = run_cli(["advise", "1000", "5.0"])
        assert code == 2


class TestCalibrate:
    def test_runs_small_grid(self):
        code, text = run_cli(
            ["calibrate", "--dataset", "power-12", "--max-vertices", "4096",
             "--cores", "1", "2", "--dims", "8", "64"]
        )
        assert code == 0
        assert "recommended" in text
        assert "efficiency" in text


class TestValidate:
    def test_self_test_passes(self):
        code, text = run_cli(
            ["validate", "--dataset", "power-12", "--max-vertices", "4096",
             "--hidden", "32"]
        )
        assert code == 0
        assert text.count("[PASS]") == 3


class TestRooflineCommand:
    @pytest.mark.parametrize("platform", ["cpu", "gpu", "piuma"])
    def test_platforms(self, platform):
        code, text = run_cli(["roofline", "--platform", platform])
        assert code == 0
        assert "ridge" in text
        assert "spmm" in text


class TestCacheCommand:
    def seed(self, tmp_path, monkeypatch, n=3):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        import os

        from repro.runtime import ResultCache

        cache = ResultCache()
        for i in range(n):
            cache.put(f"{i:064x}", {"fill": "x" * 300})
            path = cache.directory / f"{i:064x}.json"
            os.utime(path, (1_000 + i, 1_000 + i))
        return cache

    def test_stats_reports_size_and_entries(self, tmp_path, monkeypatch):
        self.seed(tmp_path, monkeypatch)
        code, text = run_cli(["cache", "stats", "--entries", "2"])
        assert code == 0
        assert "3 record(s)" in text
        assert "most recently used" in text

    def test_stats_counts_quarantined(self, tmp_path, monkeypatch):
        cache = self.seed(tmp_path, monkeypatch)
        (cache.directory / f"{0:064x}.json").write_text("garbage")
        with pytest.warns(RuntimeWarning):
            assert cache.get(f"{0:064x}") is None
        code, text = run_cli(["cache", "stats"])
        assert code == 0
        assert "1 corrupt" in text

    def test_gc_requires_budget(self, tmp_path, monkeypatch):
        self.seed(tmp_path, monkeypatch)
        code, text = run_cli(["cache", "gc"])
        assert code == 2
        assert "--max-bytes" in text

    def test_gc_evicts_and_reports(self, tmp_path, monkeypatch):
        cache = self.seed(tmp_path, monkeypatch)
        size = (cache.directory / f"{0:064x}.json").stat().st_size
        code, text = run_cli(
            ["cache", "gc", "--max-bytes", str(int(size * 1.5))]
        )
        assert code == 0
        assert "evicted 2" in text
        # The stats view now shows the recorded gc pass.
        code, text = run_cli(["cache", "stats"])
        assert "last gc: evicted 2" in text

    def test_clear_removes_records(self, tmp_path, monkeypatch):
        self.seed(tmp_path, monkeypatch)
        code, text = run_cli(["cache", "clear"])
        assert code == 0
        assert "cleared 3" in text
        code, text = run_cli(["cache", "stats"])
        assert "0 record(s)" in text


class TestEngineFlags:
    """One engine knob: every ``--engine`` takes its choices from
    ``ENGINES`` and no subcommand still offers ``--scheduler``."""

    @staticmethod
    def _subcommands():
        import argparse

        from repro.cli import _build_parser

        parser = _build_parser()
        (action,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_every_subcommand(self):
        from repro.piuma.config import ENGINES

        engine_choices = {}
        for name, sub in self._subcommands().items():
            flags = {flag: action for action in sub._actions
                     for flag in action.option_strings}
            assert "--scheduler" not in flags, name
            if "--engine" in flags:
                engine_choices[name] = tuple(flags["--engine"].choices)
        assert engine_choices == {
            "simulate": ENGINES,
            "sweep": ENGINES,
            "multinode": ENGINES,
            "resilience": ENGINES,
        }

    @pytest.mark.parametrize("engine", ("auto", "calendar", "vector"))
    def test_removed_engine_names_rejected(self, engine):
        with pytest.raises(SystemExit):
            main(["simulate", "products", "--engine", engine],
                 out=lambda line: None)

    def test_resilience_names_the_verified_engine(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # At --check-level 0 the fast engine replays compiled programs,
        # so this compares replay with the reference loop.
        _code, text = run_cli([
            "resilience", "--engine", "fast", "--verify-engines",
            "--check-level", "0",
            "--max-vertices", "1024", "--cores", "2", "--hidden", "16",
            "--severities", "0", "0.5", "--workers", "1",
        ])
        assert "fast and reference engines bit-identical" in text
        assert "engine mismatch" not in text

    def test_resilience_verifies_replay_against_checked_reference(
            self, tmp_path, monkeypatch, loop_calls):
        # At the default --check-level 1 a fast-engine run cannot
        # replay, so --verify-engines runs the fast leg unchecked:
        # every severity replays once and runs the sanitized
        # reference loop once.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code, text = run_cli([
            "resilience", "--verify-engines",
            "--max-vertices", "1024", "--cores", "2", "--hidden", "16",
            "--severities", "0", "0.5", "--workers", "1",
        ])
        assert code == 0, text
        assert "--check-level 1" in text
        assert sorted(loop_calls) == ["reference"] * 2 + ["replay"] * 2

    def test_resilience_verifies_on_every_run(self, tmp_path, monkeypatch,
                                               loop_calls):
        # Both legs bypass the result cache: a second run sharing the
        # first one's cache directory still runs every DES point.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = [
            "resilience", "--verify-engines",
            "--max-vertices", "1024", "--cores", "2", "--hidden", "16",
            "--severities", "0", "0.5", "--workers", "1",
        ]
        for _ in range(2):
            del loop_calls[:]
            code, text = run_cli(argv)
            assert code == 0, text
            assert "bit-identical at every severity" in text
            assert sorted(loop_calls) == ["reference"] * 2 + ["replay"] * 2

    def test_resilience_refuses_to_verify_reference_against_itself(self):
        code, text = run_cli(["resilience", "--engine", "reference",
                              "--verify-engines"])
        assert code == 2
        assert "pick --engine fast" in text


class TestServeParser:
    def test_serve_is_registered_with_defaults(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["serve", "--port", "0"])
        assert args.command == "serve"
        assert args.max_pending == 32
        assert args.deadline == 30.0
        assert args.breaker_threshold == 5
        assert not args.no_cache
