"""End-to-end pipeline: solve MQO on the (simulated) quantum annealer.

:class:`QuantumMQO` implements Algorithm 1 of the paper:

1. ``LogicalMapping``   — MQO problem -> logical QUBO,
2. ``PhysicalMapping``  — logical QUBO -> physical QUBO via an embedding,
3. ``QuantumAnnealing`` — sample the physical QUBO on the device,
4. ``PhysicalMapping^-1`` — chain read-out back to logical assignments,
5. ``LogicalMapping^-1``  — logical assignments back to plan selections.

The result records, besides the best solution found, the *anytime
trajectory* (best cost after every read together with the device time at
that point) so the experiment harness can compare against classical
solvers exactly as Figures 4 and 5 do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.annealer.device import DWaveSamplerSimulator
from repro.annealer.sampleset import SampleSet
from repro.core.logical import LogicalMapping, LogicalMappingConfig
from repro.core.physical import PhysicalMapping, PhysicalMappingConfig, embed_logical_qubo
from repro.embedding.base import Embedding
from repro.embedding.clustered import ClusteredEmbedder
from repro.embedding.greedy import GreedyEmbedder
from repro.embedding.native import NativeClusteredEmbedder
from repro.embedding.triad import TriadEmbedder
from repro.exceptions import EmbeddingError, EmbeddingNotFoundError, InvalidProblemError
from repro.mqo.problem import MQOProblem, MQOSolution
from repro.mqo.serialization import exact_problem_token
from repro.obs.trace import get_tracer
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.stopwatch import Stopwatch

__all__ = ["PreparedProblem", "QuantumMQO", "QuantumMQOResult"]


@dataclass
class PreparedProblem:
    """Reusable compilation of one MQO instance for a fixed pipeline.

    Bundles the logical mapping, the embedding and the physical mapping
    produced by :meth:`QuantumMQO.prepare`.  Preparing is the host-side
    preprocessing the paper reports at 112-135 ms per instance; repeated
    solves of the same instance (portfolio re-races, anytime restarts)
    pass the prepared form back into :meth:`QuantumMQO.solve` and skip
    it entirely.  The service layer caches these keyed by
    :meth:`~repro.mqo.problem.MQOProblem.canonical_hash`.
    """

    problem: MQOProblem
    mapping: LogicalMapping
    embedding: Embedding
    physical: PhysicalMapping
    preprocessing_time_ms: float


@dataclass
class QuantumMQOResult:
    """Outcome of one quantum-annealing MQO run.

    Attributes
    ----------
    problem:
        The MQO instance that was solved.
    best_solution:
        Best *valid* solution found (after optional repair of invalid
        read-outs).
    best_raw_solution:
        Best solution among unrepaired read-outs (may be invalid on noisy
        devices; equals ``best_solution`` otherwise).
    trajectory:
        ``(device_time_ms, best_cost_so_far)`` after every read, using
        valid (repaired if necessary) solutions.
    sample_set:
        The raw physical read-outs.
    physical_mapping:
        The physical mapping used (exposes embedding statistics).
    preprocessing_time_ms:
        Host time spent on the logical + physical mapping (the paper
        reports 112-135 ms for its unoptimised implementation).
    num_broken_chain_reads:
        Number of reads in which at least one chain was inconsistent.
    num_invalid_reads:
        Number of reads whose raw plan selection violated the
        one-plan-per-query constraint.
    """

    problem: MQOProblem
    best_solution: MQOSolution
    best_raw_solution: MQOSolution
    trajectory: List[Tuple[float, float]]
    sample_set: SampleSet
    physical_mapping: PhysicalMapping
    preprocessing_time_ms: float
    num_broken_chain_reads: int = 0
    num_invalid_reads: int = 0

    @property
    def qubits_per_variable(self) -> float:
        """Average chain length of the embedding (Figure 6 x-axis)."""
        return self.physical_mapping.qubits_per_variable

    @property
    def device_time_ms(self) -> float:
        """Total device time consumed by all reads."""
        return self.sample_set.device_time_ms()

    def cost_after_reads(self, num_reads: int) -> float:
        """Best (valid) cost achieved within the first ``num_reads`` reads."""
        if num_reads <= 0 or not self.trajectory:
            return float("inf")
        index = min(num_reads, len(self.trajectory)) - 1
        return self.trajectory[index][1]

    def cost_at_time(self, time_ms: float) -> float:
        """Best (valid) cost achieved within ``time_ms`` of device time."""
        best = float("inf")
        for point_time, cost in self.trajectory:
            if point_time <= time_ms:
                best = cost
            else:
                break
        return best


class QuantumMQO:
    """Solve MQO problems with the (simulated) quantum annealer.

    Parameters
    ----------
    device:
        The annealing device (a :class:`DWaveSamplerSimulator` by default).
    embedder:
        Embedding strategy: ``"auto"`` (native per-cell packing, then the
        greedy embedder, then a single global TRIAD), one of
        ``"native"``, ``"greedy"``, ``"triad"``, ``"clustered"``, or a
        pre-built :class:`Embedding`.
    logical_config / physical_config:
        Mapping parameters (penalty slack, chain-strength rule, read-out).
    repair_invalid:
        Whether invalid read-outs are greedily repaired into valid
        solutions for the trajectory (invalid read-outs are always
        counted in :attr:`QuantumMQOResult.num_invalid_reads`).
    """

    def __init__(
        self,
        device: DWaveSamplerSimulator | None = None,
        embedder: str | Embedding = "auto",
        logical_config: LogicalMappingConfig | None = None,
        physical_config: PhysicalMappingConfig | None = None,
        repair_invalid: bool = True,
        seed: SeedLike = None,
    ) -> None:
        self._rng = ensure_rng(seed)
        self.device = device if device is not None else DWaveSamplerSimulator(seed=self._rng)
        self.embedder = embedder
        self.logical_config = logical_config or LogicalMappingConfig()
        self.physical_config = physical_config or PhysicalMappingConfig()
        self.repair_invalid = repair_invalid

    # ------------------------------------------------------------------ #
    # Embedding selection
    # ------------------------------------------------------------------ #
    def build_embedding(self, problem: MQOProblem, mapping: LogicalMapping) -> Embedding:
        """Construct an embedding for the logical QUBO of ``problem``."""
        if isinstance(self.embedder, Embedding):
            return self.embedder
        clusters = [list(query.plan_indices) for query in problem.queries]
        interactions = list(mapping.qubo.quadratic.keys())
        topology = self.device.topology

        def native() -> Embedding:
            return NativeClusteredEmbedder(topology).embed(clusters, interactions)

        def clustered() -> Embedding:
            return ClusteredEmbedder(topology).embed(clusters, interactions)

        def triad() -> Embedding:
            return TriadEmbedder(topology).embed_clique(
                [plan.index for plan in problem.plans]
            )

        def greedy() -> Embedding:
            return GreedyEmbedder(topology).embed(
                interactions,
                variables=[plan.index for plan in problem.plans],
                seed=self._rng,
            )

        strategies = {
            "native": [native],
            "clustered": [clustered],
            "triad": [triad],
            "greedy": [greedy],
            # The structured patterns are tried first; the greedy chain-growth
            # heuristic is the last resort because it is slower and can fail
            # on dense problems.
            "auto": [native, triad, greedy],
        }
        if self.embedder not in strategies:
            raise EmbeddingError(
                f"unknown embedder {self.embedder!r}; expected one of {sorted(strategies)} "
                f"or an Embedding instance"
            )
        last_error: EmbeddingError | None = None
        for strategy in strategies[self.embedder]:
            try:
                return strategy()
            except EmbeddingError as exc:
                last_error = exc
        raise EmbeddingNotFoundError(
            f"no embedding strategy succeeded for problem {problem.name or '<unnamed>'}"
        ) from last_error

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def prepare(self, problem: MQOProblem) -> PreparedProblem:
        """Compile ``problem`` down to its physical QUBO (Algorithm 1, lines 1-6).

        The result is independent of reads/gauges/seed and can be passed
        to :meth:`solve` any number of times, skipping the logical
        mapping, embedding search and physical mapping on every reuse.
        """
        tracer = get_tracer()
        stopwatch = Stopwatch().start()
        with tracer.span("mqo.prepare", {"problem": problem.name or ""}):
            with tracer.span("mqo.qubo_build") as span:
                mapping = LogicalMapping(problem, self.logical_config)
                span.set_attribute("num_logical_vars", mapping.qubo.num_variables)
            with tracer.span("mqo.embed", {"embedder": str(self.embedder)}):
                embedding = self.build_embedding(problem, mapping)
            with tracer.span("mqo.physical_map"):
                physical = embed_logical_qubo(
                    mapping.qubo, embedding, self.device.topology, self.physical_config
                )
        return PreparedProblem(
            problem=problem,
            mapping=mapping,
            embedding=embedding,
            physical=physical,
            preprocessing_time_ms=stopwatch.elapsed_ms(),
        )

    def solve(
        self,
        problem: MQOProblem,
        num_reads: int | None = None,
        num_gauges: int | None = None,
        seed: SeedLike = None,
        prepared: PreparedProblem | None = None,
    ) -> QuantumMQOResult:
        """Run Algorithm 1 on ``problem`` and return the detailed result.

        ``prepared`` short-circuits the preprocessing with the output of
        an earlier :meth:`prepare` call for the same problem (the
        reported preprocessing time is then the cached one).  Passing a
        preparation built from a structurally different problem raises
        :class:`~repro.exceptions.InvalidProblemError` — the annealed
        QUBO would belong to the wrong instance.
        """
        if prepared is None:
            prepared = self.prepare(problem)
        elif prepared.problem is not problem and exact_problem_token(
            prepared.problem
        ) != exact_problem_token(problem):
            # The exact token (not the canonical hash) is required here: a
            # prepared embedding is tied to concrete plan indices, and a
            # relabel-equivalent instance would mis-attribute selections.
            raise InvalidProblemError(
                "the prepared pipeline was built for a different problem instance"
            )
        mapping, physical = prepared.mapping, prepared.physical

        tracer = get_tracer()
        with tracer.span("mqo.anneal") as span:
            sample_set = self.device.sample_qubo(
                physical.physical_qubo, num_reads=num_reads, num_gauges=num_gauges, seed=seed
            )
            span.set_attribute("num_reads", len(sample_set))
        with tracer.span("mqo.decode") as span:
            result = self._collect_result(
                problem, mapping, physical, sample_set, prepared.preprocessing_time_ms
            )
            span.set_attribute("num_broken_chain_reads", result.num_broken_chain_reads)
            span.set_attribute("num_invalid_reads", result.num_invalid_reads)
        return result

    def _collect_result(
        self,
        problem: MQOProblem,
        mapping: LogicalMapping,
        physical: PhysicalMapping,
        sample_set: SampleSet,
        preprocessing_time_ms: float,
    ) -> QuantumMQOResult:
        # Everything stays in matrix form: the chain read-out resolves the
        # device's state matrix into one logical matrix (its columns are
        # the logical variables, i.e. the plans in index order), one
        # batched decode costs and validates every read, and one repair
        # call fixes every invalid read.
        unembedded = physical.unembed_samples(sample_set)
        plans = unembedded.matrix
        raw_solutions = mapping.solutions_from_sampleset(plans)
        raw_costs = np.array([solution.cost for solution in raw_solutions])
        raw_valid = np.array([solution.is_valid for solution in raw_solutions], dtype=bool)
        # Best raw read: valid reads beat invalid ones, then the lowest cost;
        # the earliest read wins ties.
        pool = raw_valid if raw_valid.any() else np.ones_like(raw_valid)
        best_raw_solution = raw_solutions[int(np.argmin(np.where(pool, raw_costs, np.inf)))]

        candidates = list(raw_solutions)
        invalid = np.flatnonzero(~raw_valid)
        if self.repair_invalid and invalid.size:
            repaired = mapping.repair(plans[invalid])
            for read, solution in zip(invalid.tolist(), repaired):
                candidates[read] = solution
        costs = np.array(
            [c.cost if c.is_valid else np.inf for c in candidates], dtype=np.float64
        )
        running_best = np.minimum.accumulate(costs)
        trajectory = list(zip(sample_set.device_times_ms().tolist(), running_best.tolist()))

        if np.isfinite(running_best[-1]):
            best_solution = candidates[int(np.argmin(costs))]
        else:
            # No read produced (or could be repaired into) a valid solution;
            # fall back to the deterministic repair of the best raw read-out.
            best_solution = mapping.repair(best_raw_solution.plan_indicator())

        return QuantumMQOResult(
            problem=problem,
            best_solution=best_solution,
            best_raw_solution=best_raw_solution,
            trajectory=trajectory,
            sample_set=sample_set,
            physical_mapping=physical,
            preprocessing_time_ms=preprocessing_time_ms,
            num_broken_chain_reads=int(unembedded.broken.sum()),
            num_invalid_reads=int(invalid.size),
        )
