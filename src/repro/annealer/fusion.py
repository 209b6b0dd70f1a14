"""Cross-request anneal fusion: many jobs, one block-diagonal sweep.

:class:`~repro.annealer.batched.BatchedAnnealer` fuses the gauge batches
*within* one request into a single block-diagonal problem.  This module
lifts the same trick one level up — the continuous-batching shape of
modern inference serving: independent jobs that happen to be in flight
at the same time are packed into **one** fused state tensor and annealed
together, amortising the per-sweep numpy dispatch cost across requests
instead of paying it once per request.

The contract is strict bit-identity per job: a job annealed inside a
fusion window produces exactly the states it would have produced alone
(same seed, same trajectory, same best read).  That holds because every
random draw of the sweep loop is *state independent* — per job the
stream is

1. one ``integers(0, 2, (reads, n))`` draw for the initial states,
2. per sweep, per colour class, one ``random(out=...)`` uniform block of
   shape ``(class_size, reads)``,

and the fused loop replays the same calls with the same shapes against
each job's own generator.  The arithmetic is identical too: blocks never
interact (block-diagonal coupling), each job keeps its own per-block
temperature ladder, and read columns evolve independently, so padding a
job to the window's maximum read count only adds throwaway columns.

Jobs may disagree on read counts, sweep counts and schedules:

* **reads** — the tensor is as wide as the largest job; narrower jobs
  own padding columns that are initialised once (never drawn from the
  job's stream) and discarded at scatter time,
* **sweeps** — the sweep loop runs in segments between the distinct
  sweep horizons; at each horizon the jobs that are done drop out and
  the remaining blocks re-fuse (per-block early exit),
* **schedule** — the per-sweep Metropolis factor uses a per-member beta
  gathered from a per-block ladder, exactly as the within-job fusion
  does.

When fusion loses: one oversized job stretches every sweep of the
window to its block size while small co-fused jobs would have finished
cheaply alone — skewed block sizes waste the amortisation.  The server
bounds this with its window size and by only fusing jobs that share the
annealing-backed solver; see ``docs/fusion.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.annealer.batched import BatchedAnnealer, _FusedClass
from repro.annealer.compile import CompileCache, CompiledQUBO, compile_qubo, default_compile_cache
from repro.annealer.schedule import AnnealingSchedule, default_schedule_for
from repro.annealer.simulated_annealing import metropolis_update
from repro.exceptions import DeviceError
from repro.qubo.model import QUBOModel
from repro.utils.cancel import check_cancelled
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["FusionGroup", "FusionWindow", "fused_sample_block_states"]


@dataclass
class FusionGroup:
    """One job's annealing workload inside a fusion window.

    Attributes
    ----------
    qubos:
        The job's programmed gauge-batch QUBOs (its blocks).
    num_reads:
        Reads annealed for every block of this job.
    rng:
        The job's own random stream.  Each group **must** own an
        independent generator — sharing one generator across groups
        breaks the bit-identity contract.
    num_sweeps:
        Sweep horizon of this job (its blocks drop out of the fused
        loop after this many sweeps).
    schedule:
        Optional explicit temperature ladder shared by the job's
        blocks; defaults to each block's own geometric schedule.
    """

    qubos: Sequence[QUBOModel]
    num_reads: int
    rng: SeedLike
    num_sweeps: int
    schedule: Optional[AnnealingSchedule] = None


@dataclass
class _DrawSection:
    """A contiguous run of fused-class rows owned by one group.

    ``scratch`` is ``None`` when the group spans the full read width
    (the uniform draw then lands directly in the shared buffer);
    otherwise draws go through the ``(rows, group_reads)`` scratch and
    are copied into the left columns of the shared buffer.
    """

    rng: np.random.Generator
    row0: int
    row1: int
    num_reads: int
    scratch: Optional[np.ndarray]


@dataclass
class _SegmentClass:
    """Per-sweep work of one fused class within one horizon segment."""

    fused: _FusedClass
    blocks_column: np.ndarray
    sections: List[_DrawSection]
    uniforms: np.ndarray
    probability: np.ndarray
    flips: np.ndarray


@dataclass
class _Segment:
    """The fused classes active between two sweep horizons."""

    sweep_start: int
    sweep_end: int
    active_blocks: np.ndarray
    classes: List[_SegmentClass] = field(default_factory=list)


class FusionWindow:
    """Fuse the annealing workloads of many independent jobs.

    The window is a pure annealing engine: callers hand it one
    :class:`FusionGroup` per job and get back, per job, exactly what
    :meth:`BatchedAnnealer.sample_block_states
    <repro.annealer.batched.BatchedAnnealer.sample_block_states>` would
    have returned for that job alone with the same generator — the
    bit-identity contract the server-side fusion path is built on.

    Parameters
    ----------
    compile_cache:
        Structure cache consulted when compiling blocks (the
        process-wide cache by default), so fused jobs warm each other.
    """

    def __init__(self, compile_cache: CompileCache | None = None) -> None:
        self.compile_cache = compile_cache if compile_cache is not None else default_compile_cache()

    def sample(
        self, groups: Sequence[FusionGroup]
    ) -> List[Tuple[List[np.ndarray], List[CompiledQUBO]]]:
        """Anneal every group fused and return per-group block states.

        Returns one ``(block_states, compiled)`` pair per group, in
        group order, where ``block_states[b]`` is the
        ``(num_reads, n_b)`` 0/1 matrix of the group's block ``b`` —
        the same shape :meth:`BatchedAnnealer.sample_block_states`
        yields for a solo run.
        """
        groups = list(groups)
        if not groups:
            raise DeviceError("a fusion window needs at least one group")
        rngs = [ensure_rng(group.rng) for group in groups]
        for group in groups:
            if not group.qubos:
                raise DeviceError("every fusion group needs at least one QUBO")
            if group.num_reads <= 0:
                raise DeviceError(f"num_reads must be positive, got {group.num_reads}")
            if group.num_sweeps <= 0:
                raise DeviceError(f"num_sweeps must be positive, got {group.num_sweeps}")

        compiled_groups = [
            [compile_qubo(qubo, cache=self.compile_cache) for qubo in group.qubos]
            for group in groups
        ]
        # Blocks are laid out longest sweep horizon first (group order on
        # ties): the blocks still active at any horizon are then a prefix,
        # so every fused class keeps contiguous rows in the class-major
        # tensor as jobs drop out.
        blocks: List[CompiledQUBO] = []
        block_group: List[int] = []
        group_blocks: List[List[int]] = [[] for _ in groups]
        for group_index in sorted(range(len(groups)), key=lambda g: -groups[g].num_sweeps):
            for block in compiled_groups[group_index]:
                if not block.num_variables:
                    raise DeviceError("cannot anneal an empty QUBO")
                group_blocks[group_index].append(len(blocks))
                blocks.append(block)
                block_group.append(group_index)

        sizes = np.array([block.num_variables for block in blocks], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        total_n = int(offsets[-1])
        reads = [group.num_reads for group in groups]
        reads_max = max(reads)
        sweeps = [group.num_sweeps for group in groups]
        betas = self._beta_table(groups, blocks, block_group, max(sweeps))

        # Initial states: one draw per group, with the exact shape of the
        # group's solo draw, placed block-major; padding columns stay at
        # their initial value and are discarded at scatter time.
        initial = np.zeros((total_n, reads_max))
        for group_index, rng in enumerate(rngs):
            ids = group_blocks[group_index]
            row0, row1 = int(offsets[ids[0]]), int(offsets[ids[-1] + 1])
            draw = rng.integers(0, 2, size=(reads[group_index], row1 - row0)).astype(float)
            initial[row0:row1, : reads[group_index]] = draw.T

        states = position = None
        sweep_start = 0
        for horizon in sorted(set(sweeps)):
            segment, position = self._plan_segment(
                sweep_start, horizon, blocks, block_group, offsets, total_n,
                groups, rngs, reads, reads_max, position,
            )
            if states is None:  # the first segment fuses every block
                states = np.empty_like(initial)
                states[position] = initial
            for sweep in range(segment.sweep_start, segment.sweep_end):
                check_cancelled()
                self._fused_sweep(states, segment, betas[sweep][segment.active_blocks])
            sweep_start = horizon

        per_block = BatchedAnnealer._split_blocks(states, position, offsets, reads_max)
        return [
            ([per_block[b][: reads[group_index]] for b in group_blocks[group_index]], compiled)
            for group_index, compiled in enumerate(compiled_groups)
        ]

    # ------------------------------------------------------------------ #
    # Fused problem construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _beta_table(
        groups: Sequence[FusionGroup],
        blocks: Sequence[CompiledQUBO],
        block_group: List[int],
        sweeps_max: int,
    ) -> np.ndarray:
        """Per-sweep, per-block betas, shape ``(sweeps_max, num_blocks)``.

        Each block's ladder comes from its own group (explicit schedule
        or the block-scaled default).  Ladders shorter than the window's
        horizon are padded by repeating the final beta — padded rows are
        never used because the block leaves the sweep loop first.
        """
        columns = []
        for block_id, block in enumerate(blocks):
            group = groups[block_group[block_id]]
            schedule = group.schedule or default_schedule_for(
                block.max_abs_weight, group.num_sweeps
            )
            if schedule.num_sweeps != group.num_sweeps:
                raise DeviceError(
                    f"schedule has {schedule.num_sweeps} sweeps, group expects "
                    f"{group.num_sweeps}"
                )
            ladder = schedule.as_array()
            if ladder.size < sweeps_max:
                ladder = np.concatenate(
                    [ladder, np.full(sweeps_max - ladder.size, ladder[-1])]
                )
            columns.append(ladder)
        return np.stack(columns, axis=1)

    def _plan_segment(
        self,
        sweep_start: int,
        sweep_end: int,
        blocks: Sequence[CompiledQUBO],
        block_group: List[int],
        offsets: np.ndarray,
        total_n: int,
        groups: Sequence[FusionGroup],
        rngs: Sequence[np.random.Generator],
        reads: Sequence[int],
        reads_max: int,
        position: Optional[np.ndarray],
    ) -> Tuple[_Segment, np.ndarray]:
        """Re-fuse the blocks still active up to the ``sweep_end`` horizon.

        A block is active while its group's sweep horizon has not been
        reached; blocks of finished groups drop out and the remaining
        ones re-fuse, so late sweeps of long jobs no longer touch the
        rows of early-exited jobs.  Returns the segment and the tensor
        layout: derived by the first segment (every block is active
        then), reused by the later ones.
        """
        active = np.array(
            [b for b in range(len(blocks)) if groups[block_group[b]].num_sweeps >= sweep_end],
            dtype=np.int64,
        )
        sub_blocks = [blocks[b] for b in active]
        # _fuse_classes only reads per-block offsets plus the trailing
        # sentinel, so the subset keeps global offsets (rows stay put in
        # the shared tensor) with the global width as sentinel.
        sub_offsets = np.concatenate([offsets[active], [total_n]])
        fused_classes, position = BatchedAnnealer._fuse_classes(sub_blocks, sub_offsets, position)
        segment = _Segment(sweep_start=sweep_start, sweep_end=sweep_end, active_blocks=active)
        for class_index, fused in enumerate(fused_classes):
            # Blocks of one group are contiguous in the global order, so a
            # group's rows within the fused class form one contiguous run —
            # one uniform draw per group per class, exactly the solo shape.
            sections: List[_DrawSection] = []
            row_cursor = 0
            for block_id in active:
                block = blocks[int(block_id)]
                if class_index >= block.num_classes:
                    continue
                block_rows = block.structure.classes[class_index].members.size
                if not block_rows:
                    continue
                group_index = block_group[int(block_id)]
                row0, row1 = row_cursor, row_cursor + block_rows
                row_cursor = row1
                if sections and sections[-1].rng is rngs[group_index]:
                    sections[-1].row1 = row1
                    continue
                sections.append(
                    _DrawSection(
                        rng=rngs[group_index],
                        row0=row0,
                        row1=row1,
                        num_reads=reads[group_index],
                        scratch=None,
                    )
                )
            for section in sections:
                if section.num_reads != reads_max:
                    section.scratch = np.empty(
                        (section.row1 - section.row0, section.num_reads)
                    )
            rows = fused.members.size
            segment.classes.append(
                _SegmentClass(
                    fused=fused,
                    blocks_column=fused.member_blocks[:, None],
                    sections=sections,
                    # Padding columns keep a fixed uniform of 0.5: they are
                    # never drawn from any group's stream and their flips
                    # only touch padding state columns.
                    uniforms=np.full((rows, reads_max), 0.5),
                    probability=np.empty((rows, reads_max)),
                    flips=np.empty((rows, reads_max), dtype=bool),
                )
            )
        return segment, position

    # ------------------------------------------------------------------ #
    # Fused sweep
    # ------------------------------------------------------------------ #
    @staticmethod
    def _fused_sweep(states_t: np.ndarray, segment: _Segment, beta_row: np.ndarray) -> None:
        """One Metropolis sweep over every fused class of the segment.

        Runs the shared :func:`~repro.annealer.simulated_annealing.metropolis_update`
        kernel; only the uniforms differ from the solo loop: they are
        drawn *per section* from each group's own generator, which keeps
        every job's stream intact.
        """
        for entry in segment.classes:
            fused = entry.fused
            field = BatchedAnnealer._local_field(states_t, fused)
            for section in entry.sections:
                if section.scratch is None:
                    section.rng.random(out=entry.uniforms[section.row0 : section.row1])
                else:
                    section.rng.random(out=section.scratch)
                    entry.uniforms[
                        section.row0 : section.row1, : section.num_reads
                    ] = section.scratch
            metropolis_update(
                states_t[fused.rows],
                field,
                beta_row[entry.blocks_column],
                entry.uniforms,
                entry.probability,
                entry.flips,
            )


def fused_sample_block_states(
    groups: Sequence[FusionGroup],
    compile_cache: CompileCache | None = None,
) -> List[Tuple[List[np.ndarray], List[CompiledQUBO]]]:
    """Convenience wrapper: anneal ``groups`` in one fusion window."""
    return FusionWindow(compile_cache=compile_cache).sample(groups)
