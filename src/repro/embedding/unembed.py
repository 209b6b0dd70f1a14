"""Chain read-out (unembedding) of physical samples.

After an annealing run, every physical qubit carries a binary value.  All
qubits of a chain *should* agree (the equality penalties of the physical
mapping drive them to), but disturbed runs can produce *broken chains*.
This module converts physical samples back into logical assignments and
offers the standard resolution strategies for broken chains.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from enum import Enum
from typing import Dict, Hashable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.embedding.base import Embedding
from repro.exceptions import EmbeddingError

__all__ = [
    "ChainReadout",
    "ChainGather",
    "UnembeddedSamples",
    "majority_vote",
    "resolve_chains",
    "resolve_chains_batch",
]

Variable = Hashable


class ChainReadout(str, Enum):
    """Strategy for resolving broken chains during read-out.

    ``MAJORITY``
        Take the value held by the majority of the chain's qubits
        (ties resolve to 1, matching the convention of breaking towards
        selecting a plan, which the validity penalties then correct).
    ``FIRST``
        Take the value of the first qubit in the chain.
    ``DISCARD``
        Mark the whole sample as unusable when any chain is broken.
    """

    MAJORITY = "majority"
    FIRST = "first"
    DISCARD = "discard"


def majority_vote(values: Tuple[int, ...]) -> int:
    """Majority value of a tuple of 0/1 readings (ties resolve to 1)."""
    if not values:
        raise EmbeddingError("cannot take a majority vote over an empty chain")
    ones = sum(values)
    return 1 if 2 * ones >= len(values) else 0


def resolve_chains(
    physical_sample: Mapping[int, int],
    embedding: Embedding,
    readout: ChainReadout = ChainReadout.MAJORITY,
) -> Tuple[Dict[Variable, int], bool]:
    """Convert one physical sample into a logical assignment.

    Parameters
    ----------
    physical_sample:
        Mapping from physical qubit index to its 0/1 value.
    embedding:
        The embedding whose chains define the logical variables.
    readout:
        Broken-chain resolution strategy.

    Returns
    -------
    (assignment, any_chain_broken)
        The logical assignment and a flag telling whether at least one
        chain had inconsistent qubit values.  With
        :attr:`ChainReadout.DISCARD` the assignment is empty when a chain
        is broken.
    """
    assignment: Dict[Variable, int] = {}
    any_broken = False
    for var in embedding.variables:
        chain = embedding.chain(var)
        try:
            values = tuple(int(physical_sample[q]) for q in chain)
        except KeyError as exc:
            raise EmbeddingError(
                f"physical sample is missing qubit {exc} of the chain for {var!r}"
            ) from exc
        for value in values:
            if value not in (0, 1):
                raise EmbeddingError(
                    f"physical sample holds non-binary value {value} for variable {var!r}"
                )
        broken = len(set(values)) > 1
        any_broken = any_broken or broken
        if readout is ChainReadout.DISCARD and broken:
            return {}, True
        if readout is ChainReadout.FIRST:
            assignment[var] = values[0]
        else:
            assignment[var] = majority_vote(values)
    return assignment, any_broken


class ChainGather:
    """Precomputed flat gather for vectorised chain read-out.

    Resolving chains sample by sample costs a Python loop per qubit per
    read.  This helper flattens every chain's qubit positions (relative
    to a fixed qubit order) once, so a whole batch of reads resolves
    with one fancy-index plus one ``np.add.reduceat`` — the same
    gather/segment pattern the sparse annealer uses for local fields.

    Parameters
    ----------
    embedding:
        The embedding whose chains define the logical variables.
    qubit_order:
        The physical qubit corresponding to each column of the state
        matrices that will be resolved.
    variables:
        The logical variables to resolve, in output column order
        (default: every variable of the embedding, in its order).
    """

    def __init__(
        self,
        embedding: Embedding,
        qubit_order: Sequence[int],
        variables: Sequence[Variable] | None = None,
    ) -> None:
        position = {qubit: column for column, qubit in enumerate(qubit_order)}
        self.variables: List[Variable] = list(
            embedding.variables if variables is None else variables
        )
        flat: List[int] = []
        lengths: List[int] = []
        for var in self.variables:
            chain = embedding.chain(var)
            try:
                flat.extend(position[qubit] for qubit in chain)
            except KeyError as exc:
                raise EmbeddingError(
                    f"qubit order is missing qubit {exc} of the chain for {var!r}"
                ) from exc
            lengths.append(len(chain))
        self.flat = np.asarray(flat, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.starts = np.cumsum(self.lengths) - self.lengths

    def resolve(
        self, states: np.ndarray, readout: ChainReadout = ChainReadout.MAJORITY
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve a ``(num_reads, num_qubits)`` 0/1 state matrix.

        Returns ``(assignments, broken)`` where ``assignments`` is a
        ``(num_reads, num_variables)`` int8 matrix in the order of
        :attr:`variables` and ``broken`` flags reads with at least one
        inconsistent chain.  With :attr:`ChainReadout.DISCARD` the
        assignment rows of broken reads are *not* blanked here — the
        callers (:class:`UnembeddedSamples`, the dictionary-level
        wrappers) implement the discard convention.
        """
        states = np.asarray(states)
        if states.ndim != 2:
            raise EmbeddingError(f"states must be 2-D, got shape {states.shape}")
        values = states[:, self.flat]
        if not np.isin(values, (0, 1)).all():
            raise EmbeddingError("physical samples hold non-binary values")
        values = values.astype(np.int64, copy=False)
        ones = np.add.reduceat(values, self.starts, axis=1)
        broken_chains = (ones > 0) & (ones < self.lengths)
        broken = broken_chains.any(axis=1)
        if readout is ChainReadout.FIRST:
            assignments = values[:, self.starts]
        else:
            # Majority with ties resolving to 1, matching majority_vote.
            assignments = (2 * ones >= self.lengths).astype(np.int64)
        return assignments.astype(np.int8), broken


class UnembeddedSamples(SequenceABC):
    """Logical read-out of a batch of physical samples, in matrix form.

    Behaves as the sequence of per-read ``(assignment, broken)`` pairs
    that :func:`resolve_chains` would return read by read (assignment
    dictionaries are built only when iterated), while the array
    consumers read :attr:`matrix` and :attr:`broken` directly.

    Attributes
    ----------
    variables:
        The logical variable of each :attr:`matrix` column.
    matrix:
        ``(num_reads, num_variables)`` int8 logical values.  Under
        :attr:`ChainReadout.DISCARD` the rows of broken reads are all
        zero, and their assignments read as empty.
    broken:
        ``bool[num_reads]``: whether a read had an inconsistent chain.
    discard:
        Whether broken reads were discarded.
    """

    def __init__(
        self,
        variables: Sequence[Variable],
        matrix: np.ndarray,
        broken: np.ndarray,
        discard: bool = False,
    ) -> None:
        self.variables = list(variables)
        self.matrix = matrix
        self.broken = broken
        self.discard = discard
        if discard:
            self.matrix[broken] = 0

    def __len__(self) -> int:
        return len(self.broken)

    def __getitem__(self, index: int) -> Tuple[Dict[Variable, int], bool]:
        broken = bool(self.broken[index])
        if self.discard and broken:
            return {}, True
        return dict(zip(self.variables, self.matrix[index].tolist())), broken

    def __iter__(self) -> Iterator[Tuple[Dict[Variable, int], bool]]:
        return (self[index] for index in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return list(self) == list(other)


def resolve_chains_batch(
    states: np.ndarray,
    qubit_order: Sequence[int],
    embedding: Embedding,
    readout: ChainReadout = ChainReadout.MAJORITY,
) -> Tuple[List[Dict[Variable, int]], List[bool]]:
    """Convert a batch of physical state rows into logical assignments.

    Vectorised equivalent of calling :func:`resolve_chains` on every row
    of ``states`` (columns ordered by ``qubit_order``): one gather and
    one segmented reduction resolve all reads at once.  Returns the
    per-read assignment dictionaries and broken-chain flags; with
    :attr:`ChainReadout.DISCARD` broken reads get an empty assignment,
    matching the scalar function.
    """
    gather = ChainGather(embedding, qubit_order)
    matrix, broken = gather.resolve(states, readout)
    assignments: List[Dict[Variable, int]] = []
    for row, row_broken in zip(matrix, broken):
        if readout is ChainReadout.DISCARD and row_broken:
            assignments.append({})
        else:
            assignments.append(
                {var: int(row[i]) for i, var in enumerate(gather.variables)}
            )
    return assignments, [bool(flag) for flag in broken]
