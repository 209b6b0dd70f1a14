"""Annealing device simulation.

The paper runs its physical QUBOs on a D-Wave 2X quantum annealer.  This
package substitutes that hardware with a software device model:

* :class:`SimulatedAnnealingSampler` — a vectorised single-flip
  Metropolis annealer over QUBO models (the classical stand-in for the
  quantum annealing dynamics, in the spirit of D-Wave's ``neal``),
* :class:`DWaveSamplerSimulator` — the device facade: it only accepts
  problems that respect the Chimera topology, models per-qubit bias
  noise, applies gauge (spin-reversal) transforms per batch of reads and
  reports *device time* using the paper's timing constants
  (129 us anneal + 247 us read-out per sample).
"""

from repro.annealer.schedule import AnnealingSchedule, geometric_beta_schedule, linear_beta_schedule
from repro.annealer.sampleset import Sample, SampleSet
from repro.annealer.compile import (
    CompileCache,
    CompiledQUBO,
    compile_qubo,
    default_compile_cache,
)
from repro.annealer.simulated_annealing import SimulatedAnnealingSampler
from repro.annealer.batched import BatchedAnnealer, BlockResult
from repro.annealer.fusion import FusionGroup, FusionWindow, fused_sample_block_states
from repro.annealer.gauge import apply_gauge, random_gauge, undo_gauge
from repro.annealer.noise import NoiseModel
from repro.annealer.device import DWaveSamplerSimulator, ProgrammedAnneal
from repro.annealer.numba_kernels import HAVE_NUMBA

__all__ = [
    "AnnealingSchedule",
    "geometric_beta_schedule",
    "linear_beta_schedule",
    "Sample",
    "SampleSet",
    "CompileCache",
    "CompiledQUBO",
    "compile_qubo",
    "default_compile_cache",
    "SimulatedAnnealingSampler",
    "BatchedAnnealer",
    "BlockResult",
    "FusionGroup",
    "FusionWindow",
    "fused_sample_block_states",
    "apply_gauge",
    "random_gauge",
    "undo_gauge",
    "NoiseModel",
    "DWaveSamplerSimulator",
    "ProgrammedAnneal",
    "HAVE_NUMBA",
]
