"""Tests for the QA adapter's prepared-pipeline cache and prepare hook."""

import pytest

from repro.mqo.generator import generate_paper_testcase
from repro.service.qa_adapter import QuantumAnnealingSolver


@pytest.fixture(autouse=True)
def _clean_cache():
    QuantumAnnealingSolver.prepared_cache.clear()
    yield
    QuantumAnnealingSolver.prepared_cache.clear()


class TestPreparedCache:
    def test_prepare_is_cached_across_instances(self):
        problem = generate_paper_testcase(4, 2, seed=1)
        first = QuantumAnnealingSolver().prepare(problem)
        second = QuantumAnnealingSolver().prepare(problem)
        assert second is first
        stats = QuantumAnnealingSolver.prepared_cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_distinct_problems_prepare_separately(self):
        a = generate_paper_testcase(4, 2, seed=1)
        b = generate_paper_testcase(4, 2, seed=2)
        solver = QuantumAnnealingSolver()
        assert solver.prepare(a) is not solver.prepare(b)

    def test_reuse_disabled_recompiles(self):
        problem = generate_paper_testcase(3, 2, seed=0)
        solver = QuantumAnnealingSolver(reuse_prepared=False)
        first = solver.prepare(problem)
        second = solver.prepare(problem)
        assert first is not second
        assert len(QuantumAnnealingSolver.prepared_cache) == 0

    def test_solve_results_identical_warm_and_cold(self):
        """A cache hit must not change the solver's output for equal seeds."""
        problem = generate_paper_testcase(4, 2, seed=3)
        cold = QuantumAnnealingSolver().solve(problem, time_budget_ms=50.0, seed=11)
        warm = QuantumAnnealingSolver().solve(problem, time_budget_ms=50.0, seed=11)
        assert warm.points == cold.points
        assert warm.best_cost == cold.best_cost
        assert (
            warm.best_solution.selected_plans == cold.best_solution.selected_plans
        )

    def test_solve_valid_solution(self):
        problem = generate_paper_testcase(5, 2, seed=7)
        trajectory = QuantumAnnealingSolver().solve(problem, time_budget_ms=60.0, seed=0)
        assert trajectory.best_solution is not None
        assert trajectory.best_solution.is_valid


class TestSharedTopology:
    def test_two_solves_share_one_topology_and_agree(self):
        """The defect-free topology is built once per spec and draws nothing."""
        problem = generate_paper_testcase(4, 2, seed=5)
        solver = QuantumAnnealingSolver()
        first_pipeline = solver._build_pipeline(seed=1)
        second_pipeline = solver._build_pipeline(seed=2)
        assert first_pipeline.device.topology is second_pipeline.device.topology
        first = solver.solve(problem, time_budget_ms=40.0, seed=9)
        first_topology = solver.last_result.physical_mapping.topology
        second = QuantumAnnealingSolver().solve(problem, time_budget_ms=40.0, seed=9)
        assert solver.last_result.physical_mapping.topology is first_topology
        assert second.points == first.points
        assert second.best_solution.selected_plans == first.best_solution.selected_plans


class TestPortfolioPrepareHook:
    def test_portfolio_race_warms_the_cache(self):
        from repro.service.portfolio import PortfolioScheduler

        problem = generate_paper_testcase(4, 2, seed=5)
        scheduler = PortfolioScheduler(mode="split")
        outcome = scheduler.solve(
            problem, time_budget_ms=200.0, seed=1, solvers=["QA", "CLIMB"]
        )
        assert outcome.winner
        assert len(QuantumAnnealingSolver.prepared_cache) == 1

    def test_repeated_races_hit_the_cache(self):
        from repro.service.portfolio import PortfolioScheduler

        problem = generate_paper_testcase(4, 2, seed=5)
        scheduler = PortfolioScheduler(mode="split")
        for _ in range(3):
            scheduler.solve(problem, time_budget_ms=100.0, seed=1, solvers=["QA"])
        stats = QuantumAnnealingSolver.prepared_cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] >= 2
