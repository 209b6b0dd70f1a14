"""The LIN solvers' budget: model building is charged to it, LPs are time-limited.

LIN-MQO and LIN-QUB build an integer program (LIN-QUB also a logical
QUBO) and a greedy warm start before branch-and-bound begins.  The search
gets what remains of the budget, every LP relaxation runs under HiGHS's
``time_limit`` of the time left, and an LP that hits the limit ends the
search without a proof of optimality.
"""

import time

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from repro.baselines import ilp_mqo, ilp_qubo
from repro.baselines.greedy import GreedyConstructiveSolver
from repro.baselines.ilp_mqo import IntegerProgrammingMQOSolver
from repro.baselines.ilp_qubo import IntegerProgrammingQUBOSolver
from repro.baselines.milp import branch_and_bound
from repro.baselines.milp.branch_and_bound import BranchAndBoundSolver
from repro.baselines.milp.model import BinaryLinearProgram
from repro.mqo.generator import generate_paper_testcase

BUILD_DELAY_MS = 40.0

#: Each LIN solver with the model builder its solve() calls.
LIN_SOLVERS = [
    pytest.param(IntegerProgrammingMQOSolver, ilp_mqo, "build_mqo_program", id="LIN-MQO"),
    pytest.param(IntegerProgrammingQUBOSolver, ilp_qubo, "build_qubo_program", id="LIN-QUB"),
]


def _slow(monkeypatch, module, builder, delay_ms):
    """Make ``module.builder`` take at least ``delay_ms`` longer."""
    original = getattr(module, builder)

    def slow_builder(*args, **kwargs):
        time.sleep(delay_ms / 1000.0)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, builder, slow_builder)


def _spy_search_budgets(monkeypatch):
    """Record the ``time_budget_ms`` every branch-and-bound search receives."""
    budgets = []
    original = BranchAndBoundSolver.solve

    def spy(self, program, time_budget_ms=float("inf"), **kwargs):
        budgets.append(time_budget_ms)
        return original(self, program, time_budget_ms=time_budget_ms, **kwargs)

    monkeypatch.setattr(BranchAndBoundSolver, "solve", spy)
    return budgets


def _spy_linprog(monkeypatch, replacement=None):
    """Record the ``options`` of every LP relaxation (optionally replacing it)."""
    options = []
    original = branch_and_bound.linprog

    def spy(*args, **kwargs):
        options.append(kwargs.get("options"))
        return (replacement or original)(*args, **kwargs)

    monkeypatch.setattr(branch_and_bound, "linprog", spy)
    return options


def _knapsack() -> BinaryLinearProgram:
    program = BinaryLinearProgram()
    for i, value in enumerate(range(1, 12)):
        program.add_variable(("item", i), -float(value))
    program.add_less_equal({("item", i): 1.0 for i in range(11)}, 5.0)
    return program


class TestModelBuildIsCharged:
    @pytest.mark.parametrize("solver_cls, module, builder", LIN_SOLVERS)
    def test_search_gets_the_budget_minus_the_build(
        self, monkeypatch, small_problem, solver_cls, module, builder
    ):
        _slow(monkeypatch, module, builder, BUILD_DELAY_MS)
        budgets = _spy_search_budgets(monkeypatch)
        solver_cls().solve(small_problem, time_budget_ms=1000.0)
        assert len(budgets) == 1
        assert 0.0 < budgets[0] <= 1000.0 - BUILD_DELAY_MS

    @pytest.mark.parametrize("solver_cls, module, builder", LIN_SOLVERS)
    def test_a_build_past_the_budget_returns_the_warm_start(
        self, monkeypatch, small_problem, solver_cls, module, builder
    ):
        _slow(monkeypatch, module, builder, BUILD_DELAY_MS)
        budgets = _spy_search_budgets(monkeypatch)
        trajectory = solver_cls().solve(small_problem, time_budget_ms=BUILD_DELAY_MS / 2)
        warm = GreedyConstructiveSolver().construct(small_problem)
        assert budgets == []
        assert not trajectory.proved_optimal
        assert trajectory.best_cost == pytest.approx(warm.cost)


class TestLpTimeLimit:
    def test_every_lp_gets_the_time_that_remains(self, monkeypatch):
        options = _spy_linprog(monkeypatch)
        BranchAndBoundSolver().solve(_knapsack(), time_budget_ms=500.0)
        assert options
        limits = [option["time_limit"] for option in options]
        assert all(0.0 < limit <= 0.5 for limit in limits)
        assert limits == sorted(limits, reverse=True)

    def test_an_unbounded_search_sets_no_time_limit(self, monkeypatch):
        options = _spy_linprog(monkeypatch)
        result = BranchAndBoundSolver().solve(_knapsack())
        assert result.proved_optimal
        assert options and all(option is None for option in options)

    def test_a_timed_out_lp_ends_the_search_without_a_proof(self, monkeypatch):
        # Status 1 (time limit) must neither prune the node as infeasible
        # nor, at the root, prove the warm start optimal.
        def timed_out(*args, **kwargs):
            return OptimizeResult(status=1, success=False, x=None, fun=None)

        options = _spy_linprog(monkeypatch, replacement=timed_out)
        warm = np.zeros(11)
        warm[0] = 1.0
        result = BranchAndBoundSolver().solve(
            _knapsack(), time_budget_ms=500.0, initial_assignment=warm
        )
        assert len(options) == 1
        assert not result.proved_optimal
        assert np.array_equal(result.assignment, warm)

    def test_a_tiny_lin_qub_budget_returns_the_warm_start(self):
        # 36 plans; LIN-QUB beats the greedy warm start (46) only after
        # tens of milliseconds of search.
        problem = generate_paper_testcase(18, 2, seed=3)
        warm = GreedyConstructiveSolver().construct(problem)
        trajectory = IntegerProgrammingQUBOSolver().solve(problem, time_budget_ms=5.0)
        assert not trajectory.proved_optimal
        assert trajectory.best_cost == pytest.approx(warm.cost)
        assert trajectory.best_solution.selected_plans == warm.selected_plans


class TestMaterialisedProgram:
    def test_arrays_are_built_once_and_rebuilt_after_a_change(self):
        program = _knapsack()
        c = program.objective_vector()
        a_ub, b_ub = program.inequality_matrix()
        assert program.objective_vector() is c
        assert program.inequality_matrix()[0] is a_ub
        assert not c.flags.writeable and not b_ub.flags.writeable
        program.add_variable("extra", 2.0)
        program.add_less_equal({"extra": 1.0}, 1.0)
        assert program.objective_vector().shape == (12,)
        a_ub, b_ub = program.inequality_matrix()
        assert a_ub.shape == (2, 12) and list(b_ub) == [5.0, 1.0]

    def test_objective_accumulation_invalidates_the_cache(self):
        program = _knapsack()
        before = program.objective_vector()[0]
        program.add_objective(("item", 0), 10.0)
        assert program.objective_vector()[0] == pytest.approx(before + 10.0)
