"""The dictionary device path, kept as the exactness oracle.

The device used to program, read out and decode every request on
per-qubit Python dicts: a gauge was a ``{qubit: +/-1}`` map applied to
an :class:`~repro.qubo.ising.IsingModel`, noise was drawn one scalar at
a time, every read became an assignment dict, and every invalid read was
repaired on its own.  The library now does all of that on arrays; this
module is a faithful copy of the dictionary implementation, so the
exactness tests can prove the array path produces the same programmed
values, the same random-stream positions, the same per-read states and
the same answers.

Only the sweep drivers (shared by both paths, and proven against the
masked Metropolis formulation separately) and the scalar chain
read-out :func:`~repro.embedding.unembed.resolve_chains` come from the
library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.annealer.sampleset import Sample, SampleSet
from repro.exceptions import DeviceError
from repro.mqo.problem import MQOSolution
from repro.qubo.ising import IsingModel, ising_to_qubo, qubo_to_ising
from repro.qubo.model import QUBOModel
from repro.utils.rng import SeedLike, ensure_rng

Variable = Hashable


# ---------------------------------------------------------------------- #
# Gauges and noise on dicts
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class GaugeTransform:
    """A per-variable +/-1 gauge factor."""

    factors: Dict[Variable, int]

    def __post_init__(self) -> None:
        for var, factor in self.factors.items():
            if factor not in (-1, 1):
                raise DeviceError(f"gauge factor for {var!r} must be -1 or +1, got {factor}")

    def factor(self, var: Variable) -> int:
        """Gauge factor of one variable (identity for unknown variables)."""
        return self.factors.get(var, 1)

    def apply_to_ising(self, ising: IsingModel) -> IsingModel:
        """The gauge-transformed Ising model."""
        h = {var: self.factor(var) * value for var, value in ising.h.items()}
        j = {
            (u, v): self.factor(u) * self.factor(v) * value
            for (u, v), value in ising.j.items()
        }
        return IsingModel(h=h, j=j, offset=ising.offset)

    def apply_to_spins(self, spins: Mapping[Variable, int]) -> Dict[Variable, int]:
        """Map spins between the original and the gauged frame (involution)."""
        return {var: self.factor(var) * int(value) for var, value in spins.items()}

    def apply_to_binary(self, sample: Mapping[Variable, int]) -> Dict[Variable, int]:
        """Map a 0/1 sample between the original and the gauged frame."""
        result = {}
        for var, value in sample.items():
            if value not in (0, 1):
                raise DeviceError(f"binary value for {var!r} must be 0 or 1, got {value}")
            result[var] = value if self.factor(var) == 1 else 1 - value
        return result

    @classmethod
    def identity(cls, variables: Sequence[Variable]) -> "GaugeTransform":
        """The identity gauge over the given variables."""
        return cls(factors={var: 1 for var in variables})


def random_gauge(variables: Sequence[Variable], seed: SeedLike = None) -> GaugeTransform:
    """Draw an independent uniform +/-1 gauge factor for every variable."""
    rng = ensure_rng(seed)
    signs = rng.integers(0, 2, size=len(variables)) * 2 - 1
    return GaugeTransform(factors={var: int(sign) for var, sign in zip(variables, signs)})


def perturb_ising(
    noise,
    ising: IsingModel,
    static_bias: Dict[int, float],
    scale: float,
    seed: SeedLike = None,
) -> IsingModel:
    """Static bias plus fresh programming noise, one scalar draw at a time."""
    if scale < 0:
        raise DeviceError("scale must be non-negative")
    rng = ensure_rng(seed)
    h = dict(ising.h)
    j = dict(ising.j)
    for var in h:
        h[var] += scale * static_bias.get(var, 0.0)
        if noise.programming_noise_fraction:
            h[var] += scale * float(rng.normal(0.0, noise.programming_noise_fraction))
    if noise.programming_noise_fraction:
        for edge in j:
            j[edge] += scale * float(rng.normal(0.0, noise.programming_noise_fraction))
    return IsingModel(h=h, j=j, offset=ising.offset)


# ---------------------------------------------------------------------- #
# Device: program, anneal, assemble
# ---------------------------------------------------------------------- #
@dataclass
class DictProgrammedAnneal:
    """A request after dictionary programming (one QUBO per gauge batch)."""

    qubo: QUBOModel
    gauges: List[GaugeTransform]
    programmed_qubos: List[QUBOModel]
    batch_sizes: List[int]
    num_reads: int
    rng: np.random.Generator


def static_bias_dict(device) -> Dict[int, float]:
    """The device's static bias as the ``{qubit: bias}`` map it was drawn as."""
    return {q: float(device._static_bias[q]) for q in device.topology.qubits}


def program_anneal(
    device,
    qubo: QUBOModel,
    num_reads: int | None = None,
    num_gauges: int | None = None,
    seed: SeedLike = None,
) -> DictProgrammedAnneal:
    """Validate a request and program its gauge batches on dicts."""
    num_reads = device.spec.default_num_reads if num_reads is None else num_reads
    num_gauges = device.spec.default_num_gauges if num_gauges is None else num_gauges
    if num_reads <= 0:
        raise DeviceError(f"num_reads must be positive, got {num_reads}")
    if num_gauges <= 0:
        raise DeviceError(f"num_gauges must be positive, got {num_gauges}")
    num_gauges = min(num_gauges, num_reads)
    device.validate_problem(qubo)

    rng = ensure_rng(seed) if seed is not None else device._rng
    variables = qubo.variables
    ising = qubo_to_ising(qubo)
    scale = ising.max_abs_weight()
    bias = static_bias_dict(device)

    batch_sizes = device._batch_sizes(num_reads, num_gauges)
    gauges: List[GaugeTransform] = []
    programmed_qubos: List[QUBOModel] = []
    for _ in batch_sizes:
        gauge = random_gauge(variables, seed=rng)
        gauged = gauge.apply_to_ising(ising)
        noisy = perturb_ising(device.noise, gauged, bias, scale, seed=rng)
        gauges.append(gauge)
        programmed_qubos.append(ising_to_qubo(noisy))
    return DictProgrammedAnneal(
        qubo=qubo,
        gauges=gauges,
        programmed_qubos=programmed_qubos,
        batch_sizes=batch_sizes,
        num_reads=num_reads,
        rng=rng,
    )


def batch_assignments(block_states, block_compiled, batch_sizes) -> List[List[Dict]]:
    """Per-batch assignment dicts from raw block state matrices."""
    return [
        [
            {var: int(states[r, i]) for i, var in enumerate(block.variables)}
            for r in range(batch_size)
        ]
        for states, block, batch_size in zip(block_states, block_compiled, batch_sizes)
    ]


def anneal_programmed(device, programmed: DictProgrammedAnneal) -> List[List[Dict]]:
    """Anneal a dict-programmed request, returning per-batch assignment dicts."""
    batch_sizes = programmed.batch_sizes
    rng = programmed.rng
    if device.batch_gauges and len(batch_sizes) > 1:
        block_states, block_compiled = device.batched_sampler.sample_block_states(
            programmed.programmed_qubos, num_reads=max(batch_sizes), seed=rng
        )
        return batch_assignments(block_states, block_compiled, batch_sizes)
    return [
        device.sampler.sample(programmed_qubo, num_reads=batch_size, seed=rng)[0]
        for programmed_qubo, batch_size in zip(programmed.programmed_qubos, batch_sizes)
    ]


def assemble_samples(device, programmed: DictProgrammedAnneal, per_batch) -> List[Sample]:
    """Undo the gauges read by read; energies under the original QUBO."""
    samples: List[Sample] = []
    read_index = 0
    for gauge_index, (gauge, assignments) in enumerate(zip(programmed.gauges, per_batch)):
        for assignment in assignments:
            original = gauge.apply_to_binary(assignment)
            samples.append(
                Sample(
                    assignment=original,
                    energy=programmed.qubo.energy(original),
                    read_index=read_index,
                    gauge_index=gauge_index,
                )
            )
            read_index += 1
    return samples


def sample_qubo(device, qubo, num_reads=None, num_gauges=None, seed=None) -> List[Sample]:
    """The whole dictionary device path for one request."""
    programmed = program_anneal(device, qubo, num_reads, num_gauges, seed)
    return assemble_samples(device, programmed, anneal_programmed(device, programmed))


# ---------------------------------------------------------------------- #
# Decode: per-read chain read-out and repair
# ---------------------------------------------------------------------- #
def repair(mapping, assignment: Mapping[int, int]) -> MQOSolution:
    """Greedy repair of one assignment (per-query Python scan)."""
    problem = mapping.problem
    chosen: Dict[int, int] = {}
    for query in problem.queries:
        selected = [p for p in query.plan_indices if assignment.get(p, 0)]
        if len(selected) == 1:
            chosen[query.index] = selected[0]
        elif not selected:
            chosen[query.index] = min(query.plan_indices, key=lambda p: problem.plan_cost(p))
        else:

            def marginal(p: int) -> float:
                partners = problem.sharing_partners(p)
                realizable = sum(
                    saving
                    for partner, saving in partners.items()
                    if assignment.get(partner, 0)
                    and problem.query_of_plan(partner) != query.index
                )
                return problem.plan_cost(p) - realizable

            chosen[query.index] = min(selected, key=marginal)
    return problem.solution_from_selection(chosen.values())


def _better(candidate: MQOSolution, incumbent: MQOSolution) -> bool:
    if candidate.is_valid != incumbent.is_valid:
        return candidate.is_valid
    return candidate.cost < incumbent.cost


@dataclass
class DictResult:
    """What the dictionary pipeline returns for one solve."""

    samples: List[Sample]
    best_solution: MQOSolution
    best_raw_solution: MQOSolution
    trajectory: List[Tuple[float, float]]
    num_broken_chain_reads: int
    num_invalid_reads: int


def collect_result(mapping, physical, samples: List[Sample], sample_set: SampleSet, repair_invalid=True):
    """Per-read decode of dict samples, as the pipeline used to do it."""
    unembedded = [physical.unembed_sample(sample.assignment) for sample in samples]
    raw_solutions = mapping.solutions_from_sampleset([assignment for assignment, _ in unembedded])
    best_solution = best_raw = None
    trajectory = []
    num_broken = num_invalid = 0
    for sample, (logical_assignment, broken), raw in zip(samples, unembedded, raw_solutions):
        num_broken += bool(broken)
        num_invalid += not raw.is_valid
        if best_raw is None or _better(raw, best_raw):
            best_raw = raw
        candidate = raw
        if not candidate.is_valid and repair_invalid:
            candidate = repair(mapping, logical_assignment)
        if candidate.is_valid and (best_solution is None or candidate.cost < best_solution.cost):
            best_solution = candidate
        current = best_solution.cost if best_solution is not None else float("inf")
        trajectory.append((sample_set.device_time_ms(sample.read_index + 1), current))
    if best_solution is None:
        best_solution = repair(mapping, best_raw.plan_indicator())
    return DictResult(samples, best_solution, best_raw, trajectory, num_broken, num_invalid)


def solve(pipeline, problem, num_reads=None, num_gauges=None, seed=None, prepared=None) -> DictResult:
    """:meth:`QuantumMQO.solve` through the dictionary device path."""
    if prepared is None:
        prepared = pipeline.prepare(problem)
    device = pipeline.device
    samples = sample_qubo(
        device, prepared.physical.physical_qubo, num_reads=num_reads, num_gauges=num_gauges, seed=seed
    )
    # Only the timing constants are read from this set.
    timing = SampleSet(
        samples=samples,
        per_read_time_ms=device.time_per_read_ms,
        programming_time_ms=device.programming_time_ms * len({s.gauge_index for s in samples}),
    )
    return collect_result(
        prepared.mapping, prepared.physical, samples, timing, repair_invalid=pipeline.repair_invalid
    )
