"""Portfolio scheduler: race several solvers on one instance.

Algorithm-portfolio scheduling is the classical answer to "which solver
should I run?": run several and keep the best.  The scheduler takes a
list of registered solver names, gives every member its own child seed
derived from the job seed, runs them under a shared wall-clock budget —
either truly concurrently on threads or sequentially on equal budget
slices — and returns the best-cost winner together with every member's
trajectory and the merged anytime trajectory of the whole portfolio.

Every member runs on the race's clock (:func:`~repro.baselines.anytime.race_clock`):
the race's stopwatch starts when :meth:`PortfolioScheduler.solve` is
entered, and a member that starts late — behind the GIL, or behind a slow
factory — has less of its budget left, not a budget of its own.  The
budget is also the race's deadline.  Once it has expired and some member
has returned a valid solution (or, failing that, at the first such
answer), the race fires one stop token (:mod:`repro.utils.cancel`)
shared by its members.  Members that check the token — the annealing
pipeline, per gauge batch, per sweep and per embedding step — are
cancelled instead of joined; classical members stop themselves at the
race's deadline and always finish.

Winner selection is deterministic: lowest best cost, ties broken by the
position of the solver in the raced line-up (registration order when the
line-up comes from the registry).
"""

from __future__ import annotations

import threading
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.anytime import (
    ImprovementObserver,
    SolverTrajectory,
    current_improvement_observers,
    observe_improvements,
    race_clock,
)
from repro.exceptions import ServiceError, SolverCancelledError
from repro.mqo.problem import MQOProblem, MQOSolution
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.service.registry import SolverRegistry, default_registry
from repro.utils.cancel import cancel_on
from repro.utils.rng import derive_seed
from repro.utils.stopwatch import Stopwatch

__all__ = ["PortfolioScheduler", "PortfolioResult", "MERGED_TRAJECTORY_NAME"]

#: Solver name carried by the merged portfolio trajectory.
MERGED_TRAJECTORY_NAME = "PORTFOLIO"


def _member_seed(base_seed: Optional[int], member_index: int) -> int:
    """Deterministic child seed for portfolio member ``member_index``."""
    return derive_seed(base_seed, member_index)


def _has_answer(future: Future) -> bool:
    """Whether a finished member future returned a solution."""
    return future.exception() is None and future.result().best_solution is not None


def _await_deadline(
    futures: Sequence[Future],
    clock: Stopwatch,
    budget_ms: float,
    stop: threading.Event,
    answered: bool,
) -> bool:
    """Wait for ``futures``, firing ``stop`` at ``budget_ms`` once an answer exists.

    The deadline is ``budget_ms`` on ``clock``, the clock the members run
    on; ``answered`` says whether an earlier member already returned a
    solution.  Without an answer at the deadline, the token fires at the
    first one instead, so cancelling never leaves a race empty.  Returns
    whether any answer exists once every future has finished.
    """
    pending = set(futures)
    while pending:
        remaining = (budget_ms - clock.elapsed_ms()) / 1000.0
        if answered and remaining <= 0:
            stop.set()
        timeout = remaining if remaining > 0 and not stop.is_set() else None
        done, pending = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
        answered = answered or any(_has_answer(future) for future in done)
    return answered


@dataclass
class PortfolioResult:
    """Outcome of racing a portfolio on one instance.

    Attributes
    ----------
    problem:
        The raced instance.
    winner:
        Name of the member with the best final cost (``""`` when every
        member failed).
    trajectories:
        Per-member trajectories keyed by solver name (only members that
        finished successfully).
    merged_trajectory:
        Best-so-far envelope over all members, named
        :data:`MERGED_TRAJECTORY_NAME`; its ``best_solution`` is the
        winner's.
    errors:
        Member failures keyed by solver name (the race tolerates
        individual failures as long as one member succeeds).
    total_time_ms:
        Wall-clock time of the whole race.
    skipped:
        Members excluded up front because their capabilities reject the
        instance (e.g. too large for the annealer).
    cancelled:
        Members cut short by the race's stop token: they had not
        finished when the budget expired and another member held an
        answer, i.e. they did not converge within their budget.
    """

    problem: MQOProblem
    winner: str
    trajectories: Dict[str, SolverTrajectory]
    merged_trajectory: SolverTrajectory
    errors: Dict[str, str] = field(default_factory=dict)
    total_time_ms: float = 0.0
    skipped: Tuple[str, ...] = ()
    cancelled: Tuple[str, ...] = ()

    @property
    def best_solution(self) -> Optional[MQOSolution]:
        """The winning solution (``None`` when every member failed)."""
        return self.merged_trajectory.best_solution

    @property
    def best_cost(self) -> float:
        """Cost of the winning solution (``inf`` when every member failed)."""
        return self.merged_trajectory.best_cost

    @property
    def winner_trajectory(self) -> SolverTrajectory:
        """The winner's own trajectory."""
        if not self.winner:
            raise ServiceError("portfolio produced no winner; see .errors")
        return self.trajectories[self.winner]


class PortfolioScheduler:
    """Race registered solvers on one instance under a shared budget.

    Parameters
    ----------
    registry:
        Solver registry to resolve names against (the process-wide
        default registry when omitted).
    solvers:
        Default line-up raced by :meth:`solve` when the call does not
        specify one.  ``None`` means "every registered solver that
        supports the instance".
    mode:
        ``"threads"`` races all members concurrently on the race's clock,
        each under the full budget — real racing, finishing at the budget
        plus the time members take to notice it: stragglers that check
        the stop token are cancelled once an answer exists.  ``"split"``
        runs members sequentially on equal slices of the budget, each on
        its slice's clock, applying the same deadline rule per slice,
        which trades concurrency for per-member timing that is unaffected
        by GIL contention.
    """

    MODES = ("threads", "split")

    def __init__(
        self,
        registry: SolverRegistry | None = None,
        solvers: Sequence[str] | None = None,
        mode: str = "threads",
    ) -> None:
        if mode not in self.MODES:
            raise ServiceError(f"unknown portfolio mode {mode!r}; expected {self.MODES}")
        self.registry = registry if registry is not None else default_registry()
        self.solvers = tuple(solvers) if solvers is not None else None
        self.mode = mode

    # ------------------------------------------------------------------ #
    # Line-up selection
    # ------------------------------------------------------------------ #
    def lineup(
        self, problem: MQOProblem, solvers: Sequence[str] | None = None
    ) -> Tuple[List[str], Tuple[str, ...]]:
        """Resolve the raced member names plus the capability-skipped ones.

        Explicitly requested names must exist in the registry; members
        whose capabilities reject the instance are skipped (reported, not
        raced).
        """
        requested = list(solvers if solvers is not None else self.solvers or self.registry.names())
        raced: List[str] = []
        skipped: List[str] = []
        for name in requested:
            spec = self.registry.get(name)
            if spec.capabilities.supports(problem):
                raced.append(name)
            else:
                skipped.append(name)
        if not raced:
            raise ServiceError(
                f"no portfolio member supports problem with {problem.num_plans} plans "
                f"(requested: {requested})"
            )
        return raced, tuple(skipped)

    # ------------------------------------------------------------------ #
    # Racing
    # ------------------------------------------------------------------ #
    def solve(
        self,
        problem: MQOProblem,
        time_budget_ms: float,
        seed: Optional[int] = None,
        solvers: Sequence[str] | None = None,
    ) -> PortfolioResult:
        """Race the portfolio on ``problem`` and return the full outcome."""
        if time_budget_ms <= 0:
            raise ServiceError(f"time_budget_ms must be positive, got {time_budget_ms}")
        raced, skipped = self.lineup(problem, solvers)
        stopwatch = Stopwatch().start()
        members = {name: self.registry.create(name) for name in raced}
        budget = time_budget_ms if self.mode == "threads" else time_budget_ms / len(raced)

        # Anytime observers are registered per thread; capture the caller's
        # set so member threads can forward their improvements too (the
        # solver server streams live updates through this hook).  The
        # ambient span context is captured the same way: contextvars do
        # not cross ThreadPoolExecutor boundaries, so each member thread
        # re-installs the caller's context before opening its own span.
        inherited: Tuple[ImprovementObserver, ...] = current_improvement_observers()
        tracer = get_tracer()
        parent_context = tracer.current_context()

        def run_member(
            position: int, name: str, stop: threading.Event, clock: Stopwatch
        ) -> SolverTrajectory:
            with tracer.activate(parent_context):
                with tracer.span(
                    "portfolio.member", {"solver": name, "cancelled": False}
                ) as span:
                    try:
                        with (
                            observe_improvements(*inherited),
                            cancel_on(stop),
                            race_clock(clock),
                        ):
                            return members[name].solve(
                                problem, budget, seed=_member_seed(seed, position)
                            )
                    except SolverCancelledError:
                        span.set_attribute("cancelled", True)
                        raise

        # Threads race every member at once on the race's clock under one
        # token; split mode races one member per slice, each slice with
        # its own clock and token.
        threads = self.mode == "threads"
        ordered = list(enumerate(raced))
        groups = [ordered] if threads else [[member] for member in ordered]
        futures: Dict[str, Future] = {}
        start_offsets: Dict[str, float] = {}
        answered = False
        with ThreadPoolExecutor(max_workers=len(groups[0])) as pool:
            for group in groups:
                stop = threading.Event()
                offset = 0.0 if threads else stopwatch.elapsed_ms()
                clock = stopwatch if threads else Stopwatch().start()
                for position, name in group:
                    start_offsets[name] = offset
                    futures[name] = pool.submit(run_member, position, name, stop, clock)
                answered = _await_deadline(
                    [futures[name] for _, name in group], clock, budget, stop, answered
                )

        trajectories: Dict[str, SolverTrajectory] = {}
        errors: Dict[str, str] = {}
        cancelled: List[str] = []
        for name, future in futures.items():
            try:
                trajectories[name] = future.result()
            except SolverCancelledError as exc:
                # The traceback pins the cancelled member's frames — the
                # annealer's state tensor and scratch buffers — until the
                # cyclic collector runs; clearing them frees that memory now.
                traceback.clear_frames(exc.__traceback__)
                cancelled.append(name)
                get_registry().counter(
                    "repro_service_budget_overrun_total",
                    "Race members cancelled at the race deadline, by solver.",
                    {"solver": name},
                ).inc()
            except Exception as exc:  # noqa: BLE001 — any member failure
                # lands in .errors; the race survives as long as one
                # member succeeds.
                errors[name] = f"{type(exc).__name__}: {exc}"

        winner = self._pick_winner(raced, trajectories)
        merged = self._merge(raced, trajectories, winner, start_offsets)
        merged.total_time_ms = stopwatch.elapsed_ms()
        return PortfolioResult(
            problem=problem,
            winner=winner,
            trajectories=trajectories,
            merged_trajectory=merged,
            errors=errors,
            total_time_ms=merged.total_time_ms,
            skipped=skipped,
            cancelled=tuple(cancelled),
        )

    @staticmethod
    def _pick_winner(raced: List[str], trajectories: Dict[str, SolverTrajectory]) -> str:
        """Lowest best cost; ties resolved by line-up position."""
        winner = ""
        winner_cost = float("inf")
        for name in raced:  # line-up order makes the tie-break deterministic
            trajectory = trajectories.get(name)
            if trajectory is None or trajectory.best_solution is None:
                continue
            if trajectory.best_cost < winner_cost - 1e-12:
                winner = name
                winner_cost = trajectory.best_cost
        return winner

    @staticmethod
    def _merge(
        raced: List[str],
        trajectories: Dict[str, SolverTrajectory],
        winner: str,
        start_offsets: Dict[str, float],
    ) -> SolverTrajectory:
        """Best-so-far envelope over every member's anytime points.

        Members record on the clock they ran on; the merged envelope
        lives on the race's axis, so each member's points are shifted by
        the start of that clock on the race's (zero when racing on
        threads, the slice's start in split mode).
        """
        ordered = [(name, trajectories[name]) for name in raced if name in trajectories]
        merged = SolverTrajectory.envelope(
            [trajectory for _, trajectory in ordered],
            offsets=[start_offsets.get(name, 0.0) for name, _ in ordered],
            solver_name=MERGED_TRAJECTORY_NAME,
            best_solution=(
                trajectories[winner].best_solution if winner in trajectories else None
            ),
        )
        merged.proved_optimal = any(
            t.proved_optimal
            and t.best_solution is not None
            and abs(t.best_cost - merged.best_cost) < 1e-9
            for t in trajectories.values()
        )
        return merged
