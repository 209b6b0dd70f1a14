"""The D-Wave device simulator.

:class:`DWaveSamplerSimulator` mimics the *interface and accounting* of
the D-Wave 2X annealer used in the paper:

* it only accepts QUBO problems whose variables are functional qubits of
  its Chimera topology and whose quadratic terms lie on physical couplers
  (anything else raises :class:`DeviceError`),
* reads are partitioned into gauge batches; each batch programs the
  (noisy) problem once and performs a block of annealing reads,
* reported *device time* follows the paper's constants — 129 us anneal
  plus 247 us read-out per read (376 us per sample) — independently of
  how long the software simulation takes on the host.

The annealing dynamics themselves are produced by the classical
:class:`SimulatedAnnealingSampler`; see DESIGN.md for why this
substitution preserves the experiments' structure.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.annealer.batched import BatchedAnnealer
from repro.annealer.compile import CompiledQUBO, compile_structure, compile_weights
from repro.annealer.gauge import apply_gauge, random_gauge, undo_gauge
from repro.annealer.noise import NoiseModel
from repro.annealer.sampleset import SampleSet
from repro.annealer.schedule import AnnealingSchedule
from repro.annealer.simulated_annealing import SimulatedAnnealingSampler
from repro.chimera.hardware import DWAVE_2X, DWaveSpec
from repro.chimera.topology import ChimeraGraph
from repro.exceptions import DeviceCapacityError, DeviceError
from repro.obs.metrics import get_registry
from repro.qubo.ising import ising_arrays_to_qubo, qubo_arrays_to_ising
from repro.qubo.model import QUBOModel
from repro.utils.cancel import check_cancelled
from repro.utils.rng import SeedLike, ensure_rng

#: Annealing volume across all simulated devices in this process.
_READS_TOTAL = get_registry().counter(
    "repro_anneal_reads_total", "Annealing reads performed."
)
_GAUGES_TOTAL = get_registry().counter(
    "repro_anneal_gauge_batches_total", "Gauge batches programmed."
)

__all__ = ["DWaveSamplerSimulator", "ProgrammedAnneal"]


@dataclass
class ProgrammedAnneal:
    """A request after gauge/noise programming, before any annealing.

    Splitting :meth:`DWaveSamplerSimulator.sample_qubo` at this seam
    lets the cross-request fusion path program many jobs first, anneal
    them all in one :class:`~repro.annealer.fusion.FusionWindow`, and
    assemble each job's :class:`SampleSet` afterwards — with exactly
    the draws the solo path would have made (programming consumes the
    request stream before any sweep does, in both paths).

    Attributes
    ----------
    source:
        The original (noiseless) physical QUBO, compiled; read-out
        energies are evaluated under it.
    gauges:
        ``(num_gauges, n)`` +/-1 factors, one row per gauge batch, over
        the variable order of :attr:`source`.
    blocks:
        Per gauge batch, the programmed (gauged, noise-perturbed) QUBO
        handed to the annealer.  All blocks share :attr:`source`'s
        compiled structure.
    batch_sizes:
        Reads of each gauge batch (sums to ``num_reads``).
    num_reads:
        Total reads requested.
    rng:
        The request stream, positioned after the programming draws —
        the annealing stage continues it.
    """

    source: CompiledQUBO
    gauges: np.ndarray
    blocks: List[CompiledQUBO]
    batch_sizes: List[int]
    num_reads: int
    rng: np.random.Generator


class DWaveSamplerSimulator:
    """Software model of a Chimera-structured annealing device.

    Parameters
    ----------
    spec:
        Device generation (topology dimensions, timing constants,
        default read/gauge counts).  Defaults to the D-Wave 2X.
    topology:
        Explicit hardware graph.  When omitted, one is built from the
        spec (including randomly placed broken qubits).
    noise:
        Analog noise model; pass ``NoiseModel(0.0, 0.0)`` for an ideal
        device.
    num_sweeps:
        Sweeps per annealing read of the internal simulated annealer.
    seed:
        Seed controlling the device's static bias, gauge draws and
        annealing randomness.
    batch_gauges:
        When true (the default) all gauge batches of a request are
        packed into one block-diagonal problem and annealed in a single
        fused state tensor by :class:`BatchedAnnealer`, amortising the
        numpy dispatch cost across batches.  Disable to anneal the
        batches sequentially.  The two modes draw different random
        streams but sample the same distribution; neither replays the
        per-seed sample values of pre-sparse-engine releases, because
        all gauge/noise draws now happen before any annealing.
    """

    def __init__(
        self,
        spec: DWaveSpec = DWAVE_2X,
        topology: ChimeraGraph | None = None,
        noise: NoiseModel | None = None,
        num_sweeps: int = 200,
        schedule: AnnealingSchedule | None = None,
        seed: SeedLike = None,
        programming_time_ms: float = 0.0,
        batch_gauges: bool = True,
    ) -> None:
        if programming_time_ms < 0:
            raise DeviceError("programming_time_ms must be non-negative")
        self.spec = spec
        self._rng = ensure_rng(seed)
        self.topology = topology if topology is not None else spec.build_topology(seed=self._rng)
        self.noise = noise if noise is not None else NoiseModel()
        self.sampler = SimulatedAnnealingSampler(num_sweeps=num_sweeps, schedule=schedule)
        self.batched_sampler = BatchedAnnealer(num_sweeps=num_sweeps, schedule=schedule)
        self.batch_gauges = batch_gauges
        self.programming_time_ms = programming_time_ms
        bias = self.noise.static_bias(self.topology.qubits, seed=self._rng)
        #: Static bias indexed by qubit label (0 at unused labels).
        self._static_bias = np.zeros(max(bias, default=-1) + 1)
        self._static_bias[list(bias)] = list(bias.values())

    # ------------------------------------------------------------------ #
    # Device properties
    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        """Number of functional qubits of this device instance."""
        return self.topology.num_qubits

    @property
    def time_per_read_ms(self) -> float:
        """Anneal plus read-out time of a single read in milliseconds."""
        return self.spec.time_per_read_ms

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DWaveSamplerSimulator {self.spec.name}: {self.num_qubits} functional qubits, "
            f"{self.time_per_read_ms * 1000:.0f} us/read>"
        )

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate_problem(self, qubo: QUBOModel) -> None:
        """Check that ``qubo`` can be programmed onto this device.

        Raises
        ------
        DeviceCapacityError
            If a variable is not a functional qubit of the topology.  Any
            integer label counts (numpy integers included); ``bool`` does
            not, although it is an ``int`` subclass.
        DeviceError
            If a quadratic term connects qubits without a physical coupler.
        """
        for var in qubo.variables:
            if (
                not isinstance(var, numbers.Integral)
                or isinstance(var, bool)
                or not self.topology.has_qubit(var)
            ):
                raise DeviceCapacityError(
                    f"variable {var!r} is not a functional qubit of the device topology"
                )
        for (u, v) in qubo.quadratic:
            if not self.topology.has_coupler(u, v):
                raise DeviceError(
                    f"quadratic term between qubits {u} and {v} does not correspond to a "
                    f"physical coupler"
                )

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_qubo(
        self,
        qubo: QUBOModel,
        num_reads: int | None = None,
        num_gauges: int | None = None,
        seed: SeedLike = None,
    ) -> SampleSet:
        """Run annealing reads for a physical QUBO.

        Composed of the three stages the fusion path splits apart:
        :meth:`program_anneal` (validation, gauge + noise draws),
        :meth:`anneal_programmed` (the annealing sweeps) and
        :meth:`assemble_samples` (gauge inversion, energies, timing).

        Parameters
        ----------
        qubo:
            The physical QUBO (variables are qubit indices).
        num_reads / num_gauges:
            Total reads and number of gauge batches; default to the
            paper's 1000 reads in 10 gauges.
        seed:
            Optional per-request seed (falls back to the device stream).
        """
        programmed = self.program_anneal(
            qubo, num_reads=num_reads, num_gauges=num_gauges, seed=seed
        )
        return self.assemble_samples(programmed, self.anneal_programmed(programmed))

    def program_anneal(
        self,
        qubo: QUBOModel,
        num_reads: int | None = None,
        num_gauges: int | None = None,
        seed: SeedLike = None,
    ) -> ProgrammedAnneal:
        """Validate a request and program its gauge batches.

        All gauge and noise draws happen here, in batch order, leaving
        the returned :attr:`ProgrammedAnneal.rng` positioned exactly
        where the annealing stage expects it — whether the sweeps then
        run solo (:meth:`anneal_programmed`) or fused across requests
        (:class:`~repro.annealer.fusion.FusionWindow`).  Inside a
        portfolio race the stop token is checked before each gauge batch.
        """
        num_reads = self.spec.default_num_reads if num_reads is None else num_reads
        num_gauges = self.spec.default_num_gauges if num_gauges is None else num_gauges
        if num_reads <= 0:
            raise DeviceError(f"num_reads must be positive, got {num_reads}")
        if num_gauges <= 0:
            raise DeviceError(f"num_gauges must be positive, got {num_gauges}")
        num_gauges = min(num_gauges, num_reads)
        self.validate_problem(qubo)

        rng = ensure_rng(seed) if seed is not None else self._rng
        variables, linear, edges, weights = qubo.to_arrays()
        structure = compile_structure(variables, edges, self.batched_sampler.compile_cache)
        h, j, ising_offset = qubo_arrays_to_ising(linear, edges, weights, qubo.offset)
        scale = float(max(np.abs(h).max(initial=0.0), np.abs(j).max(initial=0.0)))
        bias = self._static_bias[np.asarray(variables, dtype=np.int64)]

        batch_sizes = self._batch_sizes(num_reads, num_gauges)
        gauges: List[np.ndarray] = []
        blocks: List[CompiledQUBO] = []
        for _ in batch_sizes:
            check_cancelled()
            factors = random_gauge(len(variables), seed=rng)
            gauged_h, gauged_j = apply_gauge(h, j, edges, factors)
            noisy_h, noisy_j = self.noise.perturb(gauged_h, gauged_j, bias, scale, seed=rng)
            programmed = ising_arrays_to_qubo(noisy_h, noisy_j, edges, ising_offset)
            gauges.append(factors)
            blocks.append(compile_weights(structure, *programmed))
        return ProgrammedAnneal(
            source=compile_weights(structure, linear, weights, qubo.offset),
            gauges=np.array(gauges).reshape(len(batch_sizes), len(variables)),
            blocks=blocks,
            batch_sizes=batch_sizes,
            num_reads=num_reads,
            rng=rng,
        )

    def anneal_programmed(self, programmed: ProgrammedAnneal) -> List[np.ndarray]:
        """Anneal a programmed request, returning per-batch state matrices.

        Batch ``b``'s matrix holds (at least) ``batch_sizes[b]`` reads in
        its leading rows, over the variable order of
        :attr:`ProgrammedAnneal.source`.  The batches are fused into one
        block-diagonal problem when gauge batching is on, and annealed
        sequentially otherwise.
        """
        batch_sizes = programmed.batch_sizes
        rng = programmed.rng
        if self.batch_gauges and len(batch_sizes) > 1:
            # Fused blocks share one read count; anneal the maximum and let
            # each batch keep only its first batch_size reads.
            block_states, _compiled = self.batched_sampler.sample_block_states(
                programmed.blocks, num_reads=max(batch_sizes), seed=rng
            )
            return block_states
        return [
            self.sampler.sample_states(block, num_reads=batch_size, seed=rng)[0]
            for block, batch_size in zip(programmed.blocks, batch_sizes)
        ]

    def assemble_samples(
        self, programmed: ProgrammedAnneal, block_states: List[np.ndarray]
    ) -> SampleSet:
        """Undo the gauges and account the reads into a :class:`SampleSet`.

        ``block_states`` are the per-batch state matrices of
        :meth:`anneal_programmed` (or of a fusion window); each batch
        keeps its first ``batch_size`` rows.  Un-gauging is one XOR of
        the stacked states with the per-read gauge masks, and energies
        are one batched evaluation under the original (noiseless) QUBO
        (see :meth:`CompiledQUBO.energies`);
        device time follows the spec's per-read constant regardless of
        how long the simulation took on the host.
        """
        sizes = programmed.batch_sizes
        gauged = np.concatenate(
            [states[:size] for states, size in zip(block_states, sizes)], axis=0
        )
        states = undo_gauge(gauged, np.repeat(programmed.gauges, sizes, axis=0))
        _READS_TOTAL.inc(programmed.num_reads)
        _GAUGES_TOTAL.inc(len(sizes))
        return SampleSet(
            states=states,
            variables=programmed.source.variables,
            energies=programmed.source.energies(states),
            gauge_indices=np.repeat(np.arange(len(sizes)), sizes),
            per_read_time_ms=self.time_per_read_ms,
            programming_time_ms=self.programming_time_ms * len(sizes),
            info={
                "device": self.spec.name,
                "num_reads": programmed.num_reads,
                "num_gauges": len(sizes),
                "num_problem_qubits": programmed.source.num_variables,
            },
        )

    @staticmethod
    def _batch_sizes(num_reads: int, num_gauges: int) -> List[int]:
        """Split ``num_reads`` into ``num_gauges`` near-equal batches."""
        base, remainder = divmod(num_reads, num_gauges)
        return [base + (1 if i < remainder else 0) for i in range(num_gauges)]
