"""Block-diagonal batched annealing of many QUBOs in one fused state tensor.

numpy dispatch overhead dominates the sparse sweep on small-to-medium
problems: every colour-class update is a handful of array operations
whose fixed cost is paid per problem, per sweep, per class.  The device
simulator runs *many* structurally identical problems back to back —
one gauge-transformed QUBO per read batch, one compiled problem per
portfolio re-race — so :class:`BatchedAnnealer` packs them into a
single block-diagonal problem:

* variables of block ``b`` are shifted by the block's offset and the
  per-class gather plans are concatenated (colour class ``k`` of every
  block merges into fused class ``k`` — blocks never interact, so the
  union of independent sets stays independent),
* the whole batch anneals in one fused ``(num_reads, total_n)`` state
  tensor, amortising the dispatch cost across blocks,
* every block keeps its own temperature ladder: the Metropolis factor
  uses a per-variable beta vector, so blocks with different weight
  scales are cooled exactly as they would be alone.

With a single block the fused sweep degenerates to the plain sparse
sweep and (given the same seed) reproduces
:class:`~repro.annealer.simulated_annealing.SimulatedAnnealingSampler`
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.annealer.compile import (
    CompileCache,
    CompiledQUBO,
    compile_qubo,
    csr_field_kernel,
    default_compile_cache,
    segment_sum,
)
from repro.annealer.schedule import AnnealingSchedule, default_schedule_for
from repro.annealer.simulated_annealing import class_buffers, metropolis_update
from repro.exceptions import DeviceError
from repro.qubo.model import QUBOModel
from repro.utils.cancel import check_cancelled
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["BatchedAnnealer", "BlockResult"]

Variable = Hashable


@dataclass
class BlockResult:
    """Annealing outcome of one block of a batched run.

    Attributes
    ----------
    assignments:
        One assignment dictionary per read, in read order.
    energies:
        Energy of each read under the block's own QUBO.
    """

    assignments: List[Dict[Variable, int]]
    energies: List[float]


@dataclass(frozen=True)
class _FusedClass:
    """One fused colour class: concatenated gather plans plus block ids.

    ``members`` are block-major variable ids (block offset + position in
    the block).  The fused state tensor itself is laid out class-major:
    the class occupies the contiguous tensor ``rows``, so a sweep updates
    it in place through a view, and ``neighbor_cols`` / ``matrix``
    address tensor rows.
    """

    members: np.ndarray
    rows: slice
    linear: np.ndarray
    neighbor_cols: np.ndarray
    neighbor_data: np.ndarray
    reduce_starts: np.ndarray
    empty_members: Optional[np.ndarray]
    member_blocks: np.ndarray
    #: Bound CSR field kernel (``dense -> coupling @ dense``), or ``None``
    #: to fall back to the gather/segment path.
    matrix: Optional[object] = None


class BatchedAnnealer:
    """Anneal many QUBOs as one block-diagonal fused problem.

    Parameters
    ----------
    num_sweeps:
        Sweeps per read, shared by every block.
    schedule:
        Optional explicit schedule used for *all* blocks; when omitted
        each block gets the default geometric schedule scaled to its own
        weight magnitude.
    compile_cache:
        Structure cache for block compilation (the process-wide cache by
        default) — gauge batches share one sparsity pattern, so all but
        the first block compile as cache hits.
    """

    def __init__(
        self,
        num_sweeps: int = 100,
        schedule: AnnealingSchedule | None = None,
        compile_cache: CompileCache | None = None,
    ) -> None:
        if num_sweeps <= 0:
            raise DeviceError(f"num_sweeps must be positive, got {num_sweeps}")
        self.num_sweeps = num_sweeps
        self.schedule = schedule
        self.compile_cache = compile_cache if compile_cache is not None else default_compile_cache()

    def sample_block_states(
        self,
        qubos: Sequence[QUBOModel],
        num_reads: int = 1,
        seed: SeedLike = None,
    ) -> Tuple[List[np.ndarray], List[CompiledQUBO]]:
        """Anneal the fused batch and return raw per-block state matrices.

        Returns ``(block_states, compiled)`` where ``block_states[b]``
        is the ``(num_reads, n_b)`` 0/1 matrix of block ``b`` and
        ``compiled[b]`` its compiled model.  This is the array form the
        device simulator consumes directly — no energies are computed
        and no per-read dictionaries are built (see
        :meth:`sample_blocks` for that convenience).
        """
        if not qubos:
            raise DeviceError("sample_blocks needs at least one QUBO")
        if num_reads <= 0:
            raise DeviceError(f"num_reads must be positive, got {num_reads}")
        rng = ensure_rng(seed)
        check_cancelled()  # before the blocks are compiled and fused
        compiled = [compile_qubo(qubo, cache=self.compile_cache) for qubo in qubos]
        for block in compiled:
            if not block.num_variables:
                raise DeviceError("cannot sample an empty QUBO")

        sizes = np.array([block.num_variables for block in compiled], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        total_n = int(offsets[-1])
        betas = self._beta_table(compiled)

        initial = rng.integers(0, 2, size=(num_reads, total_n)).astype(float)
        fused_classes, position = self._fuse_classes(compiled, offsets)
        states = np.empty((total_n, num_reads))
        states[position] = initial.T
        beta_columns = [fused.member_blocks[:, None] for fused in fused_classes]
        buffers = [class_buffers(fused.members.size, num_reads) for fused in fused_classes]

        for sweep in range(self.num_sweeps):
            check_cancelled()
            beta_row = betas[sweep]
            for fused, blocks_column, (uniforms, probability, flips) in zip(
                fused_classes, beta_columns, buffers
            ):
                field = self._local_field(states, fused)
                rng.random(out=uniforms)
                metropolis_update(
                    states[fused.rows], field, beta_row[blocks_column], uniforms, probability, flips
                )

        return self._split_blocks(states, position, offsets, num_reads), compiled

    @staticmethod
    def _split_blocks(
        states: np.ndarray, position: np.ndarray, offsets: np.ndarray, num_reads: int
    ) -> List[np.ndarray]:
        """Per-block ``(num_reads, n_b)`` matrices of a class-major tensor."""
        ordered = states[position, :num_reads]
        return [
            np.ascontiguousarray(ordered[int(offsets[b]) : int(offsets[b + 1])].T)
            for b in range(len(offsets) - 1)
        ]

    def sample_blocks(
        self,
        qubos: Sequence[QUBOModel],
        num_reads: int = 1,
        seed: SeedLike = None,
    ) -> List[BlockResult]:
        """Anneal every QUBO in ``qubos`` with ``num_reads`` fused reads.

        Returns one :class:`BlockResult` per input, in input order —
        per-read assignment dictionaries plus energies under each
        block's own QUBO.  All blocks share the read count and the
        random stream of ``seed``; results are deterministic for a fixed
        batch composition.
        """
        block_states, compiled = self.sample_block_states(
            qubos, num_reads=num_reads, seed=seed
        )
        results: List[BlockResult] = []
        for states, block in zip(block_states, compiled):
            energies = block.energies(states)
            variables = block.variables
            assignments = [
                {var: int(states[r, i]) for i, var in enumerate(variables)}
                for r in range(num_reads)
            ]
            results.append(
                BlockResult(assignments=assignments, energies=[float(e) for e in energies])
            )
        return results

    # ------------------------------------------------------------------ #
    # Fused problem construction
    # ------------------------------------------------------------------ #
    def _beta_table(self, compiled: Sequence[CompiledQUBO]) -> np.ndarray:
        """Per-sweep, per-block inverse temperatures, shape ``(sweeps, B)``."""
        columns = []
        for block in compiled:
            schedule = self.schedule or default_schedule_for(
                block.max_abs_weight, self.num_sweeps
            )
            if schedule.num_sweeps != self.num_sweeps:
                raise DeviceError(
                    f"schedule has {schedule.num_sweeps} sweeps, annealer expects "
                    f"{self.num_sweeps}"
                )
            columns.append(schedule.as_array())
        return np.stack(columns, axis=1)

    @staticmethod
    def _fuse_classes(
        compiled: Sequence[CompiledQUBO],
        offsets: np.ndarray,
        position: np.ndarray | None = None,
    ) -> Tuple[List[_FusedClass], np.ndarray]:
        """Merge colour class ``k`` of every block into one fused class.

        Returns the fused classes and ``position``, the tensor row of
        every block-major variable id.  By default the layout is derived
        here: class-major, blocks in order within a class.  A caller
        fusing a subset of blocks passes the layout of the full set; the
        subset's classes must then be prefixes of the full classes (the
        fusion window orders its blocks so that they are).
        """
        try:
            from scipy.sparse import csr_matrix
        except ImportError:  # pragma: no cover - scipy is a standard dependency
            csr_matrix = None
        total_n = int(offsets[-1])
        num_classes = max(block.num_classes for block in compiled)
        in_class = [
            [
                (block_id, block, block.structure.classes[k])
                for block_id, block in enumerate(compiled)
                if k < block.num_classes
            ]
            for k in range(num_classes)
        ]
        members_of = [
            np.concatenate([plan.members + offsets[block_id] for block_id, _, plan in entries])
            for entries in in_class
        ]
        if position is None:
            position = np.empty(total_n, dtype=np.int64)
            position[np.concatenate(members_of)] = np.arange(total_n)
        fused: List[_FusedClass] = []
        for k, (entries, members) in enumerate(zip(in_class, members_of)):
            neighbor_cols = position[
                np.concatenate([plan.neighbor_cols + offsets[b] for b, _, plan in entries])
            ]
            neighbor_data = np.concatenate([block.class_neighbor_data[k] for _, block, _ in entries])
            lengths = np.concatenate([plan.segment_lengths for _, _, plan in entries])
            raw_starts = np.cumsum(lengths) - lengths
            total_nnz = int(neighbor_cols.size)
            reduce_starts = raw_starts[raw_starts < total_nnz].astype(np.int64)
            empty = lengths == 0
            matrix = None
            if csr_matrix is not None and total_nnz:
                indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
                matrix = csr_field_kernel(
                    csr_matrix(
                        (neighbor_data, neighbor_cols, indptr),
                        shape=(members.size, total_n),
                    )
                )
            first_row = int(position[members[0]])
            fused.append(
                _FusedClass(
                    members=members,
                    rows=slice(first_row, first_row + members.size),
                    linear=np.concatenate(
                        [block.linear[plan.members] for _, block, plan in entries]
                    ),
                    neighbor_cols=neighbor_cols,
                    neighbor_data=neighbor_data,
                    reduce_starts=reduce_starts,
                    empty_members=empty if bool(empty.any()) else None,
                    member_blocks=np.concatenate(
                        [np.full(plan.members.size, b, dtype=np.int64) for b, _, plan in entries]
                    ),
                    matrix=matrix,
                )
            )
        return fused, position

    # ------------------------------------------------------------------ #
    # Fused sweep pieces
    # ------------------------------------------------------------------ #
    @staticmethod
    def _local_field(states_t: np.ndarray, fused: _FusedClass) -> np.ndarray:
        """Local field of a fused class on the class-major ``(total_n, reads)`` tensor."""
        base = fused.linear[:, None]
        if fused.neighbor_cols.size == 0:
            return np.broadcast_to(base, (base.shape[0], states_t.shape[1])).copy()
        if fused.matrix is not None:
            field = fused.matrix(states_t)
            field += base
            return field
        product = states_t[fused.neighbor_cols] * fused.neighbor_data[:, None]
        contribution = segment_sum(
            product.T, fused.reduce_starts, fused.members.size, fused.empty_members
        )
        return base + contribution.T

