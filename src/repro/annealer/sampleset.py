"""Containers for annealing results.

A :class:`SampleSet` holds the read-outs of one call to the device
simulator in read order (the order matters: the experiment harness
reconstructs "best solution after k reads" trajectories from it) together
with the device-time accounting.

The read-outs are stored as arrays — a ``(num_reads, num_variables)``
0/1 state matrix over a fixed variable order, plus one energy and one
gauge id per read — because every consumer on the hot path (chain
read-out, plan decoding) works on matrices.  Per-read :class:`Sample`
objects with assignment dictionaries are built only when a caller
iterates or indexes the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Sequence

import numpy as np

from repro.exceptions import DeviceError

__all__ = ["Sample", "SampleSet"]

Variable = Hashable


@dataclass(frozen=True)
class Sample:
    """One annealing read-out.

    Attributes
    ----------
    assignment:
        The binary value of every problem variable.
    energy:
        Energy of the assignment under the submitted QUBO.
    read_index:
        Zero-based position of the read within the request.
    gauge_index:
        Index of the gauge transformation batch that produced the read.
    """

    assignment: Dict[Variable, int]
    energy: float
    read_index: int
    gauge_index: int = 0


class SampleSet:
    """All read-outs of one sampling request, in read order.

    Build it from arrays (``states``, ``variables``, ``energies`` and
    optionally ``gauge_indices``), as the device does, or from a list of
    :class:`Sample` objects whose ``read_index`` values are their
    positions and whose assignments share one set of variables.

    Attributes
    ----------
    states:
        ``(num_reads, num_variables)`` int8 0/1 matrix; column ``i``
        holds variable ``variables[i]``.
    variables:
        The variable order of the state columns.
    energy_array / gauge_indices:
        One energy (float64) and one gauge batch id (int64) per read.
    """

    def __init__(
        self,
        samples: Sequence[Sample] = (),
        per_read_time_ms: float = 0.0,
        programming_time_ms: float = 0.0,
        info: Dict[str, object] | None = None,
        *,
        states: np.ndarray | None = None,
        variables: Sequence[Variable] | None = None,
        energies: np.ndarray | None = None,
        gauge_indices: np.ndarray | None = None,
    ) -> None:
        if per_read_time_ms < 0 or programming_time_ms < 0:
            raise DeviceError("timing values must be non-negative")
        self.per_read_time_ms = per_read_time_ms
        self.programming_time_ms = programming_time_ms
        self.info: Dict[str, object] = dict(info or {})
        if states is None:
            states, variables, energies, gauge_indices = self._arrays_from_samples(samples)
        elif samples:
            raise DeviceError("pass either samples or state arrays, not both")
        self.states = np.asarray(states, dtype=np.int8)
        self.variables: List[Variable] = list(variables or [])
        self.energy_array = np.asarray(energies, dtype=np.float64)
        num_reads = self.states.shape[0]
        if gauge_indices is None:
            gauge_indices = np.zeros(num_reads, dtype=np.int64)
        self.gauge_indices = np.asarray(gauge_indices, dtype=np.int64)
        if (
            self.states.ndim != 2
            or self.states.shape[1] != len(self.variables)
            or self.energy_array.shape != (num_reads,)
            or self.gauge_indices.shape != (num_reads,)
        ):
            raise DeviceError(
                f"inconsistent sample arrays: states {self.states.shape}, "
                f"{len(self.variables)} variables, energies {self.energy_array.shape}, "
                f"gauge ids {self.gauge_indices.shape}"
            )

    @staticmethod
    def _arrays_from_samples(samples: Sequence[Sample]):
        """``(states, variables, energies, gauge_indices)`` of ``samples``."""
        variables = list(samples[0].assignment) if samples else []
        for position, sample in enumerate(samples):
            if sample.read_index != position:
                raise DeviceError(
                    f"sample at position {position} has read_index {sample.read_index}"
                )
            if sample.assignment.keys() != samples[0].assignment.keys():
                raise DeviceError("all samples must assign the same variables")
        states = np.array(
            [[sample.assignment[var] for var in variables] for sample in samples],
            dtype=np.int8,
        ).reshape(len(samples), len(variables))
        energies = np.array([sample.energy for sample in samples], dtype=np.float64)
        gauges = np.array([sample.gauge_index for sample in samples], dtype=np.int64)
        return states, variables, energies, gauges

    # ------------------------------------------------------------------ #
    # Collection interface (builds Sample objects on demand)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.states.shape[0]

    def __iter__(self) -> Iterator[Sample]:
        return (self[index] for index in range(len(self)))

    def __getitem__(self, index: int) -> Sample:
        index = range(len(self))[index]
        return Sample(
            assignment=dict(zip(self.variables, self.states[index].tolist())),
            energy=float(self.energy_array[index]),
            read_index=index,
            gauge_index=int(self.gauge_indices[index]),
        )

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    @property
    def num_reads(self) -> int:
        """Number of read-outs contained."""
        return len(self)

    def best(self) -> Sample:
        """The lowest-energy sample (first one wins ties)."""
        if not len(self):
            raise DeviceError("the sample set is empty")
        return self[int(np.argmin(self.energy_array))]

    def best_after(self, num_reads: int) -> Sample:
        """The lowest-energy sample among the first ``num_reads`` read-outs."""
        if num_reads <= 0:
            raise DeviceError("num_reads must be positive")
        if not len(self):
            raise DeviceError("the sample set is empty")
        return self[int(np.argmin(self.energy_array[:num_reads]))]

    def energies(self) -> List[float]:
        """Energies in read order."""
        return self.energy_array.tolist()

    def device_time_ms(self, num_reads: int | None = None) -> float:
        """Device time consumed by the first ``num_reads`` reads (all by default).

        Programming/initialisation time is included once.
        """
        count = self.num_reads if num_reads is None else min(num_reads, self.num_reads)
        return self.programming_time_ms + count * self.per_read_time_ms

    def device_times_ms(self) -> np.ndarray:
        """Device time after each read, in read order."""
        counts = np.arange(1, self.num_reads + 1)
        return self.programming_time_ms + counts * self.per_read_time_ms

    def trajectory(self) -> List[tuple]:
        """Best energy after each read as ``(device_time_ms, energy)`` pairs."""
        best = np.minimum.accumulate(self.energy_array)
        return list(zip(self.device_times_ms().tolist(), best.tolist()))
