"""Vectorised simulated-annealing sampler over QUBO models.

This sampler is the classical stand-in for the quantum annealing
dynamics of the D-Wave hardware.  It runs many independent reads in
parallel: the state of all reads is a ``(num_reads, num_variables)``
0/1 matrix, and per sweep the variables are updated colour class by
colour class (a proper colouring of the interaction graph guarantees
that simultaneously updated variables do not interact, so the update is
equivalent to sequential single-flip Metropolis within the class).

Three backends share the Metropolis logic and the random stream:

* ``"sparse"`` (the default) computes each class's local field with the
  CSR gather plans of :mod:`repro.annealer.compile`, so a sweep costs
  ``O(num_reads * nnz)`` — on bounded-degree Chimera problems that is
  orders of magnitude below the dense cost,
* ``"dense"`` multiplies against the full coupling matrix exactly as
  the original implementation did; it is kept as the reference for the
  sparse-vs-dense equivalence tests and the benchmark baseline,
* ``"numba"`` (opt-in; requires the optional numba package, see
  :mod:`repro.annealer.numba_kernels`) fuses the field gather, the
  acceptance test and the state update of each class into one compiled
  loop, removing the per-ufunc dispatch cost entirely.

All backends draw the same random numbers in the same order, so equal
seeds produce equal samples (up to floating-point ties of measure zero).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.annealer.compile import (
    CompileCache,
    CompiledQUBO,
    compile_qubo,
    csr_field_kernel,
    default_compile_cache,
    greedy_coloring,
)
from repro.annealer.schedule import AnnealingSchedule, default_schedule_for
from repro.exceptions import DeviceError
from repro.qubo.model import QUBOModel
from repro.utils.cancel import check_cancelled
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["SimulatedAnnealingSampler"]

Variable = Hashable


def _greedy_coloring(adjacency: List[List[int]]) -> List[List[int]]:
    """Partition variable indices into independent sets (colour classes).

    Thin alias kept for backwards compatibility; the implementation
    lives in :func:`repro.annealer.compile.greedy_coloring`.
    """
    return greedy_coloring(adjacency)


def metropolis_update(
    current: np.ndarray,
    field: np.ndarray,
    beta: float | np.ndarray,
    uniforms: np.ndarray,
    probability: np.ndarray,
    flips: np.ndarray,
) -> None:
    """One Metropolis step of a colour class, applied to ``current`` in place.

    The single kernel behind every sweep driver (the solo sampler,
    :class:`~repro.annealer.batched.BatchedAnnealer` and
    :class:`~repro.annealer.fusion.FusionWindow`).

    ``current`` holds the class's 0/1 states, shape ``(class_size,
    reads)``; ``field`` its local fields (clobbered); ``uniforms`` the
    step's draws from ``[0, 1)``, which the caller makes so that each
    driver keeps control of its random stream; ``beta`` is a scalar or
    a per-row column.  ``probability`` (float) and ``flips`` (bool) are
    scratch arrays of ``current``'s shape, so no memory is allocated per
    step.

    A flip changes the energy by ``delta = (1 - 2x) * field`` and is
    accepted with probability ``min(1, exp(-beta * delta))``.  Clamping
    the exponent at 0 before one unmasked ``exp`` yields exactly
    ``exp(-beta * delta)`` where ``delta > 0`` and exactly 1.0 elsewhere;
    the exponent is never positive, so large weights cannot overflow.  A
    ``where=``-masked ``exp`` computes the same values but loses numpy's
    SIMD loop and costs about 15x more.  ``fmin`` (not ``minimum``)
    clamps a NaN exponent to 0, i.e. accepts, as the masked form did.
    Accepted flips toggle the states: on 0/1 values ``x != flip`` is XOR.
    """
    np.multiply(current, -2.0, out=probability)
    probability += 1.0  # 1 - 2x: the sign of each candidate flip
    field *= probability
    np.multiply(field, -beta, out=field)
    np.fmin(field, 0.0, out=field)
    np.exp(field, out=probability)
    np.less(uniforms, probability, out=flips)
    np.not_equal(current, flips, out=current)


def class_buffers(rows: int, num_reads: int) -> Tuple[np.ndarray, ...]:
    """``(uniforms, probability, flips)`` scratch for one class."""
    return (
        np.empty((rows, num_reads)),
        np.empty((rows, num_reads)),
        np.empty((rows, num_reads), dtype=bool),
    )


class SimulatedAnnealingSampler:
    """Single-flip Metropolis annealer running many reads in parallel.

    Parameters
    ----------
    num_sweeps:
        Sweeps (full variable passes) per read.
    schedule:
        Optional explicit :class:`AnnealingSchedule`; when omitted a
        geometric schedule scaled to the problem's weights is used.
    backend:
        ``"sparse"`` (default) for the CSR gather path, ``"dense"`` for
        the reference dense-matrix path, ``"numba"`` for the optional
        compiled kernel (raises :class:`DeviceError` at construction
        when numba is not installed).
    compile_cache:
        Structure cache consulted when compiling QUBOs; defaults to the
        process-wide cache.  Pass ``CompileCache(maxsize=0)`` to disable.
    """

    BACKENDS = ("sparse", "dense", "numba")

    def __init__(
        self,
        num_sweeps: int = 100,
        schedule: AnnealingSchedule | None = None,
        backend: str = "sparse",
        compile_cache: CompileCache | None = None,
    ) -> None:
        if num_sweeps <= 0:
            raise DeviceError(f"num_sweeps must be positive, got {num_sweeps}")
        if backend not in self.BACKENDS:
            raise DeviceError(f"unknown backend {backend!r}; expected one of {self.BACKENDS}")
        if backend == "numba":
            from repro.annealer.numba_kernels import require_numba

            require_numba()
        self.num_sweeps = num_sweeps
        self.schedule = schedule
        self.backend = backend
        self.compile_cache = compile_cache if compile_cache is not None else default_compile_cache()

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample(
        self,
        qubo: QUBOModel,
        num_reads: int = 1,
        seed: SeedLike = None,
        initial_states: np.ndarray | None = None,
    ) -> Tuple[List[Dict[Variable, int]], List[float]]:
        """Draw ``num_reads`` annealed samples from ``qubo``.

        Returns
        -------
        (assignments, energies)
            One assignment dictionary and its energy per read, in read order.
        """
        states, compiled = self.sample_states(
            qubo, num_reads=num_reads, seed=seed, initial_states=initial_states
        )
        energies = compiled.energies(states)
        variables = compiled.variables
        assignments = [
            {var: int(states[r, i]) for i, var in enumerate(variables)}
            for r in range(num_reads)
        ]
        return assignments, [float(e) for e in energies]

    def sample_states(
        self,
        qubo: QUBOModel,
        num_reads: int = 1,
        seed: SeedLike = None,
        initial_states: np.ndarray | None = None,
    ) -> Tuple[np.ndarray, CompiledQUBO]:
        """Anneal and return the raw ``(num_reads, n)`` state matrix.

        The array form skips the per-read dictionary construction of
        :meth:`sample`; batch consumers (vectorised chain read-out, the
        benchmarks) use it directly together with the compiled model.
        """
        if num_reads <= 0:
            raise DeviceError(f"num_reads must be positive, got {num_reads}")
        if not qubo.num_variables:
            raise DeviceError("cannot sample an empty QUBO")
        rng = ensure_rng(seed)
        compiled = compile_qubo(qubo, cache=self.compile_cache)
        n = compiled.num_variables

        if initial_states is not None:
            states = np.array(initial_states, dtype=float)
            if states.shape != (num_reads, n):
                raise DeviceError(
                    f"initial_states must have shape ({num_reads}, {n}), got {states.shape}"
                )
        else:
            states = rng.integers(0, 2, size=(num_reads, n)).astype(float)

        schedule = self.schedule or default_schedule_for(
            compiled.max_abs_weight, self.num_sweeps
        )
        betas = schedule.as_array()

        # The sweeps run on the transposed (n, num_reads) layout: a colour
        # class is then a contiguous row gather and the CSR matvec needs
        # no transposes.
        states_t = np.ascontiguousarray(states.T)
        if self.backend == "dense":
            self._anneal_dense(states_t, compiled, betas, rng)
        elif self.backend == "numba":
            self._anneal_numba(states_t, compiled, betas, rng)
        else:
            self._anneal_sparse(states_t, compiled, betas, rng)
        return np.ascontiguousarray(states_t.T), compiled

    # ------------------------------------------------------------------ #
    # Backends
    # ------------------------------------------------------------------ #
    @staticmethod
    def _run_sweeps(
        states_t: np.ndarray,
        compiled: CompiledQUBO,
        betas: np.ndarray,
        rng: np.random.Generator,
        field_fns,
    ) -> None:
        """Shared Metropolis sweep driver for both numpy backends.

        ``field_fns[k](states_t)`` returns the local field of colour
        class ``k`` (linear term included) as a fresh ``(|class|, R)``
        array that the driver may overwrite.  Everything else runs on
        preallocated per-class buffers through :func:`metropolis_update`.
        """
        classes = compiled.structure.classes
        num_reads = states_t.shape[1]
        buffers = [
            (np.empty((plan.members.size, num_reads)),) + class_buffers(plan.members.size, num_reads)
            for plan in classes
        ]
        for beta in betas:
            check_cancelled()
            beta = float(beta)
            for plan, field_fn, (current, uniforms, probability, flips) in zip(
                classes, field_fns, buffers
            ):
                np.take(states_t, plan.members, axis=0, out=current)
                field = field_fn(states_t)
                rng.random(out=uniforms)
                metropolis_update(current, field, beta, uniforms, probability, flips)
                states_t[plan.members] = current

    def _anneal_sparse(
        self,
        states_t: np.ndarray,
        compiled: CompiledQUBO,
        betas: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Sweep using the per-class CSR kernels (cost scales with nnz)."""

        def make_field_fn(class_index: int):
            plan = compiled.structure.classes[class_index]
            base = compiled.linear[plan.members][:, None]
            matrices = compiled.class_matrices
            if matrices is not None and plan.neighbor_cols.size:
                kernel = csr_field_kernel(matrices[class_index])

                def field(states_t: np.ndarray) -> np.ndarray:
                    out = kernel(states_t)
                    out += base
                    return out

                return field
            return lambda states_t: compiled.local_field_t(states_t, class_index)

        field_fns = [make_field_fn(k) for k in range(compiled.num_classes)]
        self._run_sweeps(states_t, compiled, betas, rng, field_fns)

    def _anneal_numba(
        self,
        states_t: np.ndarray,
        compiled: CompiledQUBO,
        betas: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Sweep via the fused compiled kernel (optional numba backend).

        The uniforms are drawn here, per class per sweep, with exactly
        the shape the numpy backends draw for
        :func:`metropolis_update` — the kernel itself never touches the
        generator, so all backends consume one identical random stream.
        The CSR arrays are taken straight from the compiled gather plans
        (not from scipy), so the backend works wherever compilation
        does; the kernel accumulates each row's field in the same index
        order as the CSR matvec.
        """
        from repro.annealer.numba_kernels import metropolis_class_update

        classes = compiled.structure.classes
        num_reads = states_t.shape[1]
        per_class = []
        for k, plan in enumerate(classes):
            lengths = plan.segment_lengths
            per_class.append(
                (
                    np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
                    plan.neighbor_cols.astype(np.int64),
                    np.ascontiguousarray(compiled.class_neighbor_data[k], dtype=float),
                    np.ascontiguousarray(compiled.linear[plan.members], dtype=float),
                    plan.members.astype(np.int64),
                    np.empty((plan.members.size, num_reads)),
                )
            )
        for beta in betas:
            beta = float(beta)
            for indptr, indices, data, linear, members, uniforms in per_class:
                rng.random(out=uniforms)
                metropolis_class_update(
                    indptr, indices, data, linear, members, states_t, uniforms, beta
                )

    def _anneal_dense(
        self,
        states_t: np.ndarray,
        compiled: CompiledQUBO,
        betas: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Reference sweep against the dense coupling matrix (O(n^2))."""
        coupling = compiled.dense_coupling()

        def make_field_fn(class_index: int):
            plan = compiled.structure.classes[class_index]
            base = compiled.linear[plan.members][:, None]
            block = coupling[plan.members]

            def field(states_t: np.ndarray) -> np.ndarray:
                out = block @ states_t
                out += base
                return out

            return field

        field_fns = [make_field_fn(k) for k in range(compiled.num_classes)]
        self._run_sweeps(states_t, compiled, betas, rng, field_fns)
