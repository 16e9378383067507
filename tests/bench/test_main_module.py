"""Tests for the ``python -m repro.bench`` report regenerator (argument
handling only; the experiments themselves are covered elsewhere)."""

from repro.bench.__main__ import EXPERIMENTS, main


class TestArguments:
    def test_unknown_experiment_rejected(self, capsys):
        assert main(["warp-drive"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_experiment_registry_complete(self):
        assert set(EXPERIMENTS) == {"table1", "fig10", "table2", "fig11",
                                    "sec7c", "ablations", "sssp",
                                    "bridges", "build", "throughput"}

    def test_checked_experiments_exist(self):
        from repro.bench.__main__ import CHECKED_EXPERIMENTS
        assert set(CHECKED_EXPERIMENTS) == {"sssp", "bridges", "build"}
        assert set(CHECKED_EXPERIMENTS) <= set(EXPERIMENTS)

    def test_registry_callables(self):
        for fn in EXPERIMENTS.values():
            assert callable(fn)
