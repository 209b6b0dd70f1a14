"""Deadline-bounded portfolio races.

A race's budget is its deadline: once it has expired and some member
holds a valid answer, the race fires its stop token, and members that
check the token are cancelled instead of joined.  Every member runs on
the race's clock, so a member that starts late stops at the race's
deadline, not at its own budget after its late start.  These tests pin
the rule with scripted members, the race clock, the budget contract on
the built-in suites, the release of a cancelled annealer's buffers, and
the observability of cancellations.
"""

import gc
import sys
import threading
import time
import weakref

import pytest

from repro.annealer import batched, device, simulated_annealing
from repro.baselines.anytime import AnytimeSolver, TrajectoryRecorder
from repro.baselines.greedy import GreedyConstructiveSolver
from repro.exceptions import SolverCancelledError
from repro.mqo.generator import generate_paper_testcase
from repro.mqo.problem import MQOProblem
from repro.obs.metrics import get_registry
from repro.obs.trace import configure_tracer, get_tracer
from repro.qubo.model import QUBOModel
from repro.service.frontend import ServiceFrontend
from repro.service.portfolio import PortfolioScheduler
from repro.service.qa_adapter import QuantumAnnealingSolver
from repro.service.registry import SolverRegistry
from repro.utils.cancel import cancel_on, check_cancelled
from repro.workloads.suites import get_suite

BUDGET_MS = 100.0


def _problem() -> MQOProblem:
    """The paper's worked example (optimum: plans {1, 2}, cost 2)."""
    return MQOProblem(
        plans_per_query=[[2.0, 4.0], [3.0, 1.0]],
        savings={(1, 2): 5.0},
        name="deadline",
    )


class ScriptedSolver(AnytimeSolver):
    """Works for ``run_ms``, then records the optimum of :func:`_problem`.

    With ``checks=True`` it polls the stop token while working, as the
    annealing pipeline does; otherwise it ignores it, as classical
    members do.
    """

    def __init__(self, name: str, run_ms: float, checks: bool) -> None:
        self.name = name
        self.run_ms = run_ms
        self.checks = checks

    def solve(self, problem, time_budget_ms, seed=None):
        """Spin for ``run_ms`` (polling the token if asked), then answer."""
        recorder = TrajectoryRecorder(self.name)
        end = time.monotonic() + self.run_ms / 1000.0
        while time.monotonic() < end:
            if self.checks:
                check_cancelled()
            time.sleep(0.001)
        recorder.record(problem.solution_from_choices([1, 0]))
        return recorder.finish()


class BudgetedSolver(AnytimeSolver):
    """Works until its recorder's clock reaches the budget, then answers.

    Like the classical members it ignores the stop token and enforces
    its budget itself, on whatever clock its recorder runs on.
    """

    name = "BUDGETED"

    def solve(self, problem, time_budget_ms, seed=None):
        """Spin until the budget has elapsed, then record the optimum."""
        recorder = TrajectoryRecorder(self.name)
        while recorder.elapsed_ms() < time_budget_ms:
            time.sleep(0.001)
        recorder.record(problem.solution_from_choices([1, 0]))
        return recorder.finish()


def _slow_factory(factory, delay_ms: float):
    """``factory`` behind a ``delay_ms`` sleep, as a slow member constructor."""

    def create():
        time.sleep(delay_ms / 1000.0)
        return factory()

    return create


def _registry(**members) -> SolverRegistry:
    """Registry of scripted members: ``NAME=(run_ms, checks)``, in order."""
    registry = SolverRegistry()
    for name, (run_ms, checks) in members.items():
        registry.register(
            name, lambda name=name, run_ms=run_ms, checks=checks: ScriptedSolver(name, run_ms, checks)
        )
    return registry


class TestToken:
    def test_check_is_a_no_op_without_a_token(self):
        check_cancelled()

    def test_set_token_raises_and_is_restored(self):
        token = threading.Event()
        token.set()
        with cancel_on(token):
            with pytest.raises(SolverCancelledError):
                check_cancelled()
            with cancel_on(None):
                check_cancelled()  # shielded from the outer token
        check_cancelled()


class TestDeadlineRule:
    def test_straggler_is_cancelled_at_the_deadline(self):
        registry = _registry(STRAGGLER=(5000.0, True), FAST=(1.0, False))
        start = time.monotonic()
        result = PortfolioScheduler(registry=registry).solve(_problem(), time_budget_ms=50.0)
        elapsed_ms = (time.monotonic() - start) * 1000.0
        assert result.cancelled == ("STRAGGLER",)
        assert result.errors == {}
        assert result.winner == "FAST"
        assert elapsed_ms < 1000.0

    def test_without_an_answer_the_token_fires_at_the_first_one(self):
        # SLOW ignores the token and answers after the deadline; the
        # straggler must be kept until then, so the race never ends empty.
        registry = _registry(STRAGGLER=(5000.0, True), SLOW=(150.0, False))
        start = time.monotonic()
        result = PortfolioScheduler(registry=registry).solve(_problem(), time_budget_ms=20.0)
        elapsed_ms = (time.monotonic() - start) * 1000.0
        assert result.cancelled == ("STRAGGLER",)
        assert result.winner == "SLOW"
        assert 150.0 <= elapsed_ms < 1000.0

    @pytest.mark.parametrize("mode", ["threads", "split"])
    def test_a_lone_member_is_never_cancelled(self, mode):
        registry = _registry(ONLY=(80.0, True))
        result = PortfolioScheduler(registry=registry, mode=mode).solve(
            _problem(), time_budget_ms=10.0
        )
        assert result.cancelled == ()
        assert result.winner == "ONLY"

    def test_members_finishing_in_time_are_not_cancelled(self):
        registry = _registry(A=(5.0, True), B=(10.0, True))
        result = PortfolioScheduler(registry=registry).solve(_problem(), time_budget_ms=500.0)
        assert result.cancelled == ()
        assert sorted(result.trajectories) == ["A", "B"]

    def test_many_stragglers_under_fast_thread_switching(self):
        # More member threads than cores, switching as often as possible:
        # every straggler must see the one shared token and be cancelled.
        stragglers = {f"S{i}": (5000.0, True) for i in range(8)}
        registry = _registry(FAST=(1.0, False), **stragglers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.monotonic()
            result = PortfolioScheduler(registry=registry).solve(_problem(), time_budget_ms=30.0)
            elapsed_ms = (time.monotonic() - start) * 1000.0
        finally:
            sys.setswitchinterval(interval)
        assert sorted(result.cancelled) == sorted(stragglers)
        assert result.errors == {}
        assert result.winner == "FAST"
        assert elapsed_ms < 2000.0

    def test_split_mode_applies_the_rule_per_slice(self):
        # The straggler's slice starts after FAST answered: cancelled at
        # the slice deadline.
        after = _registry(FAST=(1.0, False), STRAGGLER=(5000.0, True))
        result = PortfolioScheduler(registry=after, mode="split").solve(
            _problem(), time_budget_ms=100.0
        )
        assert result.cancelled == ("STRAGGLER",)
        assert result.winner == "FAST"
        # Raced first, nothing answered yet: the straggler runs to its end.
        before = _registry(STRAGGLER=(150.0, True), FAST=(1.0, False))
        result = PortfolioScheduler(registry=before, mode="split").solve(
            _problem(), time_budget_ms=20.0
        )
        assert result.cancelled == ()
        assert sorted(result.trajectories) == ["FAST", "STRAGGLER"]


class TestRaceClock:
    def test_a_late_member_stops_at_the_race_deadline(self):
        # The slow factory delays the member's start by 150 ms; on its own
        # clock it would run to 150 + 300 ms.
        registry = SolverRegistry()
        registry.register("BUDGETED", _slow_factory(BudgetedSolver, 150.0))
        start = time.monotonic()
        result = PortfolioScheduler(registry=registry).solve(_problem(), time_budget_ms=300.0)
        elapsed_ms = (time.monotonic() - start) * 1000.0
        assert result.winner == "BUDGETED"
        assert 300.0 <= elapsed_ms < 400.0
        assert 300.0 <= result.trajectories["BUDGETED"].total_time_ms < 400.0

    def test_member_and_merged_timestamps_are_on_the_race_axis(self):
        registry = SolverRegistry()
        registry.register("LATE", _slow_factory(lambda: ScriptedSolver("LATE", 1.0, False), 100.0))
        result = PortfolioScheduler(registry=registry).solve(_problem(), time_budget_ms=500.0)
        member_time = result.trajectories["LATE"].points[0][0]
        assert member_time >= 100.0
        assert result.merged_trajectory.points == [(member_time, 2.0)]

    def test_split_slices_run_on_their_own_clocks(self):
        # Each slice's clock starts with its slice, so the second member
        # gets a full slice although it starts after the first one.
        registry = SolverRegistry()
        registry.register("FIRST", lambda: ScriptedSolver("FIRST", 60.0, False))
        registry.register("SECOND", BudgetedSolver)
        result = PortfolioScheduler(registry=registry, mode="split").solve(
            _problem(), time_budget_ms=200.0
        )
        first = result.trajectories["FIRST"].points[0][0]
        second = result.trajectories["SECOND"].points[0][0]
        assert 60.0 <= first < 100.0
        assert 100.0 <= second < 150.0  # its 100 ms slice, on its own clock

    def test_solo_solves_keep_their_own_clock(self):
        solver = BudgetedSolver()
        start = time.monotonic()
        trajectory = solver.solve(_problem(), time_budget_ms=50.0)
        assert (time.monotonic() - start) * 1000.0 >= 50.0
        assert 50.0 <= trajectory.total_time_ms < 150.0


class TestAnnealerChecks:
    def test_a_set_token_raises_between_gauge_batches(self, monkeypatch, ideal_device):
        token = threading.Event()
        drawn = []
        original = device.random_gauge

        def gauge_then_fire(*args, **kwargs):
            drawn.append(1)
            token.set()  # fires while the first batch is being programmed
            return original(*args, **kwargs)

        monkeypatch.setattr(device, "random_gauge", gauge_then_fire)
        qubo = QUBOModel(linear={0: -1.0, 4: 1.0}, quadratic={(0, 4): -2.0})
        with cancel_on(token), pytest.raises(SolverCancelledError):
            ideal_device.program_anneal(qubo, num_reads=40, num_gauges=4, seed=1)
        assert len(drawn) == 1

    def test_a_set_token_raises_before_blocks_are_compiled(self, monkeypatch):
        compiled = []
        monkeypatch.setattr(batched, "compile_qubo", lambda *a, **k: compiled.append(a))
        token = threading.Event()
        token.set()
        qubo = QUBOModel(linear={0: -1.0, 1: 1.0}, quadratic={(0, 1): -2.0})
        with cancel_on(token), pytest.raises(SolverCancelledError):
            batched.BatchedAnnealer(num_sweeps=5).sample_block_states([qubo, qubo], seed=1)
        assert compiled == []


class TestObservability:
    def test_cancellation_is_counted_and_traced(self):
        registry = _registry(STRAGGLER=(5000.0, True), FAST=(1.0, False))
        counter = get_registry().counter(
            "repro_service_budget_overrun_total", labels={"solver": "STRAGGLER"}
        )
        before = counter.value
        tracer = get_tracer()
        was_enabled = tracer.enabled
        configure_tracer(True)
        tracer.drain()
        try:
            PortfolioScheduler(registry=registry).solve(_problem(), time_budget_ms=30.0)
            members = {
                span.attributes["solver"]: span.attributes["cancelled"]
                for span in tracer.drain()
                if span.name == "portfolio.member"
            }
        finally:
            configure_tracer(was_enabled)
        assert counter.value == before + 1
        assert members == {"STRAGGLER": True, "FAST": False}


def _suite_scenarios():
    """Every scenario of the ``smoke`` and ``standard`` suites."""
    return [
        pytest.param(spec, id=f"{suite}-{spec.name}")
        for suite in ("smoke", "standard")
        for spec in get_suite(suite).scenarios
    ]


class TestBudgetContract:
    @pytest.mark.parametrize("spec", _suite_scenarios())
    def test_race_returns_near_its_budget(self, spec):
        problem = spec.build(0)
        start = time.monotonic()
        result = ServiceFrontend().race(problem, time_budget_ms=BUDGET_MS, seed=1)
        elapsed_ms = (time.monotonic() - start) * 1000.0
        assert result.winner
        assert elapsed_ms <= 2.5 * BUDGET_MS + 250.0

    def test_embedding_search_is_cancelled(self):
        # QA's greedy embedding search fails on this instance only after
        # a long search; the race must not wait for it.
        spec = next(s for s in get_suite("standard").scenarios if s.name == "tpch")
        problem = spec.build(0)
        start = time.monotonic()
        result = ServiceFrontend().race(problem, time_budget_ms=BUDGET_MS, seed=1)
        assert time.monotonic() - start < 2.0
        assert "QA" in result.cancelled


class TestCancelledMemberMemory:
    def test_cancelled_annealer_buffers_are_freed_without_the_collector(self, monkeypatch):
        refs = []
        original = simulated_annealing.class_buffers

        def tracked(rows, num_reads):
            arrays = original(rows, num_reads)
            refs.extend(weakref.ref(array) for array in arrays)
            return arrays

        monkeypatch.setattr(batched, "class_buffers", tracked)
        monkeypatch.setattr(simulated_annealing, "class_buffers", tracked)
        problem = generate_paper_testcase(6, 2, seed=11)
        # Warm the prepared pipeline so QA is annealing when cancelled.
        QuantumAnnealingSolver().prepare(problem)
        registry = SolverRegistry()
        registry.register("QA", lambda: QuantumAnnealingSolver(num_sweeps=100_000))
        registry.register("GREEDY", GreedyConstructiveSolver)
        gc.disable()
        try:
            result = PortfolioScheduler(registry=registry).solve(
                problem, time_budget_ms=50.0, seed=1
            )
            assert result.cancelled == ("QA",)
            assert refs
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()
