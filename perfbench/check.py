"""Output check and answer quality, computed outside the server."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.greedy import GreedyConstructiveSolver
from repro.mqo.problem import MQOProblem

#: Relative/absolute tolerance of the recomputed cost; the server sums
#: the same terms in another order.
COST_TOLERANCE = 1e-9


def check_result(problem: MQOProblem, frame: Optional[Dict]) -> Tuple[str, str]:
    """Judge the server's answer for ``problem``: ``(verdict, reason)``.

    The verdict is ``"ok"``; ``"error"`` when the job returned no answer
    (no frame, an error frame such as an admission refusal, or a solver
    error); or ``"wrong"`` when it returned an answer that fails the
    check: ``selected_plans`` must pick exactly one plan per query and
    ``best_cost`` must equal the recomputed cost of that selection.
    """
    if frame is None:
        return "error", "no result"
    if frame.get("type") != "result":
        return "error", f"{frame.get('code', 'error')}: {frame.get('error', frame.get('type'))}"
    result = frame.get("result") or {}
    if result.get("error"):
        return "error", f"solver error: {result['error']}"
    selected = result.get("selected_plans")
    cost = result.get("best_cost")
    if not isinstance(selected, list) or not isinstance(cost, (int, float)):
        return "wrong", "result lacks selected_plans or best_cost"
    if len(set(selected)) != len(selected) or not problem.is_valid_selection(frozenset(selected)):
        return "wrong", "selected_plans is not one plan per query"
    expected = problem.selection_cost(selected)
    if not math.isclose(cost, expected, rel_tol=COST_TOLERANCE, abs_tol=COST_TOLERANCE):
        return "wrong", f"best_cost {cost!r} != recomputed {expected!r}"
    return "ok", ""


def greedy_costs(problems: Iterable[MQOProblem]) -> Dict[int, float]:
    """GREEDY's cost per distinct problem (keyed by ``id``)."""
    solver = GreedyConstructiveSolver()
    costs: Dict[int, float] = {}
    for problem in problems:
        if id(problem) not in costs:
            costs[id(problem)] = solver.construct(problem).cost
    return costs


def cost_index(costs: Sequence[float], greedy: Sequence[float]) -> float:
    """Mean of ``1 + (cost - greedy) / max(1, |greedy|)`` over paired answers.

    1 means GREEDY's quality, below 1 better answers.  The cost gap
    ``(cost - greedy) / max(1, |greedy|)`` is this index minus 1; the
    offset keeps the metric positive so that shares of its median are
    meaningful.
    """
    gaps: List[float] = [1.0 + (c - g) / max(1.0, abs(g)) for c, g in zip(costs, greedy)]
    return sum(gaps) / len(gaps)
