"""Fused execution of many annealing requests in one window.

:func:`execute_fused_requests` is the service-layer half of
cross-request anneal fusion: it takes the requests the server collected
during one admission window, prepares and programs each one exactly as
a solo :class:`~repro.service.qa_adapter.QuantumAnnealingSolver` solve
would, anneals all of them together in a single
:class:`~repro.annealer.fusion.FusionWindow`, then decodes each job on
its own.  Per request the result is **bit-identical** to a solo
:func:`~repro.service.batch.execute_request` call (same seed → same
trajectory, best cost and selected plans); only the wall-clock
``total_time_ms`` differs, because it measures the shared window.

Requests that cannot join the fused anneal fall back to the solo path
transparently:

* requests whose solver is not a :class:`QuantumAnnealingSolver`
  (portfolio requests, classical solvers, scripted test doubles
  registered under the same name),
* annealing solvers configured with ``batch_gauges=False`` and more
  than one gauge batch — their solo path interleaves programming and
  annealing draws per batch, a stream shape the fused loop cannot
  replay.

Failures stay per-request: a request that fails preparation or decoding
becomes an error :class:`~repro.service.jobs.SolveResult` without
touching its window peers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.annealer.fusion import FusionGroup, FusionWindow
from repro.baselines.anytime import SolverTrajectory
from repro.obs.trace import get_tracer
from repro.service.batch import execute_request
from repro.service.jobs import SolveRequest, SolveResult
from repro.service.qa_adapter import QuantumAnnealingSolver
from repro.service.registry import SolverRegistry, default_registry
from repro.utils.rng import ensure_rng
from repro.utils.stopwatch import Stopwatch

__all__ = ["execute_fused_requests"]


@dataclass
class _FusionMember:
    """One request admitted to the fused anneal, with its prepared state."""

    index: int
    request: SolveRequest
    solver: QuantumAnnealingSolver
    pipeline: object  # QuantumMQO
    prepared: object  # PreparedProblem
    programmed: object  # ProgrammedAnneal


def execute_fused_requests(
    requests: Sequence[SolveRequest],
    registry: SolverRegistry | None = None,
    portfolio_mode: str = "threads",
    solo: Optional[Callable[[SolveRequest], SolveResult]] = None,
) -> List[SolveResult]:
    """Execute a window of requests with their anneals fused.

    Parameters
    ----------
    requests:
        The window's requests, in admission order (results come back in
        the same order).
    registry:
        Solver registry names are resolved against.
    portfolio_mode:
        Forwarded to the solo fallback for portfolio requests.
    solo:
        Override for the solo fallback (defaults to
        :func:`~repro.service.batch.execute_request`); the tests use it
        to observe which requests fused.
    """
    registry = registry if registry is not None else default_registry()
    if solo is None:
        def solo(request: SolveRequest) -> SolveResult:
            return execute_request(request, registry=registry, portfolio_mode=portfolio_mode)

    results: List[Optional[SolveResult]] = [None] * len(requests)
    members: List[_FusionMember] = []
    stopwatch = Stopwatch().start()
    tracer = get_tracer()

    # Pass 1 — prepare and program each request exactly as its solo solve
    # would (same rng object threaded through pipeline construction,
    # preparation and programming, so the stream position entering the
    # anneal is identical).
    for index, request in enumerate(requests):
        member = _prepare_member(index, request, registry, results, solo)
        if member is not None:
            members.append(member)

    # Pass 2 — one fused anneal over every admitted request.
    if members:
        groups = [
            FusionGroup(
                qubos=member.programmed.blocks,
                num_reads=max(member.programmed.batch_sizes),
                rng=member.programmed.rng,
                num_sweeps=member.pipeline.device.batched_sampler.num_sweeps,
                schedule=member.pipeline.device.batched_sampler.schedule,
            )
            for member in members
        ]
        with tracer.span("service.fuse", {"jobs": len(members)}) as span:
            sampled = FusionWindow().sample(groups)
            span.set_attribute(
                "blocks", sum(len(group.qubos) for group in groups)
            )

        # Pass 3 — per-request assembly and decoding (solo code paths).
        for member, (block_states, _compiled) in zip(members, sampled):
            results[member.index] = _assemble_member(member, block_states, stopwatch)

    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]


def _prepare_member(
    index: int,
    request: SolveRequest,
    registry: SolverRegistry,
    results: List[Optional[SolveResult]],
    solo: Callable[[SolveRequest], SolveResult],
) -> Optional[_FusionMember]:
    """Prepare one request for fusion, or resolve it via fallback/error.

    Fills ``results[index]`` when the request does not join the fused
    anneal (solo fallback or preparation error) and returns ``None``;
    returns the prepared member otherwise.
    """
    solver = None
    if request.solver in registry:
        try:
            solver = registry.create(request.solver)
        except Exception:  # noqa: BLE001 — let the solo path report it uniformly
            solver = None
    if not isinstance(solver, QuantumAnnealingSolver):
        results[index] = solo(request)
        return None
    try:
        solver._check_budget(request.time_budget_ms)
        rng = ensure_rng(request.seed)
        pipeline = solver._build_pipeline(seed=rng)
        prepared = solver.prepare(request.problem, pipeline=pipeline)
        programmed = pipeline.device.program_anneal(
            prepared.physical.physical_qubo,
            num_reads=solver.reads_for_budget(request.time_budget_ms),
            seed=rng,
        )
    except Exception as exc:  # noqa: BLE001 — mirror execute_request's capture
        results[index] = SolveResult.from_error(request, f"{type(exc).__name__}: {exc}")
        return None
    if not pipeline.device.batch_gauges and len(programmed.batch_sizes) > 1:
        # Sequential gauge batches interleave their draws; replay solo.
        results[index] = solo(request)
        return None
    return _FusionMember(
        index=index,
        request=request,
        solver=solver,
        pipeline=pipeline,
        prepared=prepared,
        programmed=programmed,
    )


def _assemble_member(
    member: _FusionMember,
    block_states,
    stopwatch: Stopwatch,
) -> SolveResult:
    """Decode one fused member through its solo assembly path."""
    request = member.request
    tracer = get_tracer()
    try:
        sample_set = member.pipeline.device.assemble_samples(member.programmed, block_states)
        with tracer.span("mqo.decode") as span:
            mqo_result = member.pipeline._collect_result(
                request.problem,
                member.prepared.mapping,
                member.prepared.physical,
                sample_set,
                member.prepared.preprocessing_time_ms,
            )
            span.set_attribute("num_broken_chain_reads", mqo_result.num_broken_chain_reads)
            span.set_attribute("num_invalid_reads", mqo_result.num_invalid_reads)
        trajectory = _monotone_trajectory(member.solver, mqo_result)
        return SolveResult.from_trajectory(
            request,
            trajectory,
            winner=request.solver,
            total_time_ms=stopwatch.elapsed_ms(),
        )
    except Exception as exc:  # noqa: BLE001 — mirror execute_request's capture
        return SolveResult.from_error(request, f"{type(exc).__name__}: {exc}")


def _monotone_trajectory(
    solver: QuantumAnnealingSolver, mqo_result
) -> SolverTrajectory:
    """The adapter's trajectory construction, replayed for a fused solve.

    Identical to the tail of :meth:`QuantumAnnealingSolver.solve`: keep
    strict improvements on the device-time axis.
    """
    points = []
    best = float("inf")
    for time_ms, cost in mqo_result.trajectory:
        if cost < best - 1e-12:
            best = cost
            points.append((time_ms, cost))
    return SolverTrajectory(
        solver_name=solver.name,
        points=points,
        best_solution=mqo_result.best_solution,
        proved_optimal=False,
        total_time_ms=mqo_result.device_time_ms,
    )
