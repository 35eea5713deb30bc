"""The solve-rate workloads: one typed config plus one driver each."""

import dataclasses

import pytest

from repro.runtime import (
    CSPPortfolioSweepConfig,
    PooledCSPSweepConfig,
    PooledSudokuSweepConfig,
    ServeLoadSweepConfig,
    SweepExecutor,
    SweepReport,
    csp_portfolio_sweep,
    pooled_csp_sweep,
    pooled_sudoku_sweep,
    serve_load_sweep,
)

SMALL_CSP = dict(count=2, max_steps=60, scenario_params={"num_nodes": 6})


class TestWorkloadConfigs:
    def test_config_rejects_unknown_fields(self):
        config = PooledCSPSweepConfig(count=2)
        assert (config.scenario, config.count, config.base_seed) == ("coloring", 2, 0)
        with pytest.raises(TypeError):
            PooledCSPSweepConfig(typo_key=1)

    def test_configs_are_frozen_and_replaceable(self):
        config = PooledCSPSweepConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.count = 3
        assert dataclasses.replace(config, count=3).count == 3


class TestWorkloadDrivers:
    def test_pooled_csp_returns_report_with_summary(self):
        report = pooled_csp_sweep(PooledCSPSweepConfig(**SMALL_CSP))
        assert isinstance(report, SweepReport)
        assert report.mode == "serial"
        assert report.summary["num_instances"] == 2
        assert len(report.results) == 2
        assert len(report.records) == 2

    @pytest.mark.slow
    def test_pooled_csp_through_fabric_executor(self):
        config = PooledCSPSweepConfig(**dict(SMALL_CSP, count=3))
        serial = pooled_csp_sweep(config)
        fabric = pooled_csp_sweep(config, executor=SweepExecutor(mode="process", max_workers=2))
        assert fabric.mode == "process"
        assert fabric.summary == serial.summary

    def test_pooled_sudoku_smoke(self):
        report = pooled_sudoku_sweep(PooledSudokuSweepConfig(count=1, max_steps=40))
        assert report.summary["num_puzzles"] == 1
        assert len(report.records) == 1

    def test_csp_portfolio_returns_summary(self):
        summary = csp_portfolio_sweep(CSPPortfolioSweepConfig(**SMALL_CSP))
        assert summary["num_instances"] == 2
        assert len(summary["results"]) == 2
        assert summary["total_attempts"] >= 2

    def test_serve_load_returns_summary(self):
        summary = serve_load_sweep(
            ServeLoadSweepConfig(
                num_clients=2,
                requests_per_client=2,
                unique_instances=2,
                max_steps=150,
                scenario_params={"num_nodes": 6},
            )
        )
        assert summary["num_requests"] == 4
        assert len(summary["rows"]) == 4
        assert summary["served"] + summary["metrics"]["shed"] == 4
