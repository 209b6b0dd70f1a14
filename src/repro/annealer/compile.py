"""Sparse (CSR-style) compilation of QUBO models for the annealing hot path.

The simulated annealer historically compiled every QUBO into a dense
``(n, n)`` coupling matrix, so the per-sweep local-field update cost
``O(num_reads * n^2)`` regardless of how sparse the problem was.
Chimera-embedded QUBOs have degree at most six, which makes the dense
form almost entirely zeros at any interesting size.  This module
replaces it with flat arrays:

* the symmetric adjacency in CSR form (``indptr`` implied by per-class
  gather plans, ``indices``/``data`` flattened),
* per colour class a precomputed *gather plan* so the local field of the
  whole class is one fancy-index + multiply + ``np.add.reduceat`` —
  cost proportional to the number of non-zeros touching the class,
* the interaction list (each edge once) for vectorised energies.

Compilation itself (greedy colouring + gather-plan construction) is the
expensive part, so the *structure* — everything that depends only on
the variable order and the sparsity pattern, not on the weights — is
reusable across QUBOs that share a pattern.  :class:`CompileCache` is a
small thread-safe LRU for exactly that: gauge batches, portfolio
re-races and anytime restarts all resubmit the same pattern with
different weights and skip the recompilation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

try:  # scipy's CSR matvec is the fastest local-field kernel; the
    # reduceat gather path below is the pure-numpy fallback.
    from scipy.sparse import csr_matrix as _csr_matrix
except ImportError:  # pragma: no cover - scipy is a standard dependency
    _csr_matrix = None

try:  # the raw C kernel skips scipy's per-call dispatch/validation, which
    # costs as much as the multiplication itself at annealing-class sizes;
    # csr_field_kernel() falls back to .dot() when the symbol moves.
    from scipy.sparse import _sparsetools as _sp_sparsetools

    _csr_matvecs = _sp_sparsetools.csr_matvecs
except (ImportError, AttributeError):  # pragma: no cover - version drift guard
    _csr_matvecs = None


def csr_field_kernel(matrix):
    """A ``dense -> matrix @ dense`` callable bound to one CSR matrix.

    ``matrix`` is a scipy ``csr_matrix`` of shape ``(m, n)``; the
    returned callable maps a C-contiguous ``(n, r)`` float64 array to
    the ``(m, r)`` product, using scipy's raw ``csr_matvecs`` kernel
    when available and ``matrix.dot`` otherwise.
    """
    if _csr_matvecs is None:
        return matrix.dot
    num_rows, num_cols = matrix.shape
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data

    def apply(dense: np.ndarray) -> np.ndarray:
        out = np.zeros((num_rows, dense.shape[1]))
        _csr_matvecs(
            num_rows, num_cols, dense.shape[1], indptr, indices, data,
            dense.ravel(), out.ravel(),
        )
        return out

    return apply

from repro.qubo.model import QUBOModel

__all__ = [
    "ClassUpdatePlan",
    "CompiledStructure",
    "CompiledQUBO",
    "CompileCache",
    "compile_qubo",
    "compile_structure",
    "compile_weights",
    "default_compile_cache",
    "greedy_coloring",
    "segment_sum",
    "structure_key",
]

Variable = Hashable


def greedy_coloring(adjacency: List[List[int]]) -> List[List[int]]:
    """Partition variable indices into independent sets (colour classes).

    Nodes are coloured in order of decreasing degree with the smallest
    colour not used by a neighbour; variables in one class never
    interact, so a simultaneous Metropolis update of a class is
    equivalent to sequential single-flip updates within it.
    """
    num_vars = len(adjacency)
    colors = [-1] * num_vars
    order = sorted(range(num_vars), key=lambda i: -len(adjacency[i]))
    for node in order:
        taken = {colors[neighbor] for neighbor in adjacency[node] if colors[neighbor] >= 0}
        color = 0
        while color in taken:
            color += 1
        colors[node] = color
    classes: Dict[int, List[int]] = {}
    for node, color in enumerate(colors):
        classes.setdefault(color, []).append(node)
    return [classes[color] for color in sorted(classes)]


def segment_sum(
    product: np.ndarray,
    reduce_starts: np.ndarray,
    num_segments: int,
    empty_members: Optional[np.ndarray],
) -> np.ndarray:
    """Per-segment row sums of ``product`` via ``np.add.reduceat``.

    ``reduce_starts`` covers only the leading segments that begin inside
    the array (trailing empty segments are zero-padded back in), and
    ``empty_members`` marks segments of length zero anywhere in the
    class, whose reduceat slots hold garbage and are zeroed.
    """
    reduced = np.add.reduceat(product, reduce_starts, axis=1)
    if reduced.shape[1] != num_segments:
        padded = np.zeros((product.shape[0], num_segments))
        padded[:, : reduced.shape[1]] = reduced
        reduced = padded
    if empty_members is not None:
        reduced[:, empty_members] = 0.0
    return reduced


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Vectorised ``concat(arange(s, s+l) for s, l in zip(starts, lengths))``."""
    mask = lengths > 0
    starts = starts[mask]
    lengths = lengths[mask]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    steps = np.ones(total, dtype=np.int64)
    steps[0] = starts[0]
    if starts.size > 1:
        boundaries = np.cumsum(lengths[:-1])
        steps[boundaries] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(steps)


@dataclass(frozen=True)
class ClassUpdatePlan:
    """Gather plan for the local-field update of one colour class.

    Attributes
    ----------
    members:
        Variable indices of the class.
    neighbor_cols:
        Flat concatenation of every member's neighbour indices (the
        CSR ``indices`` restricted to the class's rows).
    data_slots:
        Position of each entry of :attr:`neighbor_cols` in the compiled
        symmetric data array (used to refresh weights cheaply).
    reduce_starts:
        Segment starts for ``np.add.reduceat`` over the flat product.
        Only the leading members whose segment begins inside the flat
        array are listed (trailing neighbour-less members would index
        past the end and would corrupt the preceding segment if clipped);
        :func:`segment_sum` zero-pads the reduction back to one column
        per member.
    segment_lengths:
        Neighbour count per member (the batched annealer rebuilds fused
        segment boundaries from these).
    indptr:
        Per-class CSR row pointers (``[0, cumsum(segment_lengths)]``):
        together with :attr:`neighbor_cols` and the gathered weights they
        form the ``(len(members), n)`` CSR matrix whose product with the
        state matrix is the class's coupling field.
    empty_members:
        Boolean mask of members without neighbours (their reduceat slot
        holds garbage and is zeroed), or ``None`` when every member has
        at least one neighbour.
    """

    members: np.ndarray
    neighbor_cols: np.ndarray
    data_slots: np.ndarray
    reduce_starts: np.ndarray
    segment_lengths: np.ndarray
    indptr: np.ndarray
    empty_members: Optional[np.ndarray]


@dataclass(frozen=True)
class CompiledStructure:
    """Weight-independent part of a compiled QUBO.

    Holds everything derived from the variable order and the sparsity
    pattern alone: the symmetric CSR permutation, the greedy colouring
    and the per-class gather plans.  Two QUBOs with the same variables
    and the same interaction list (in the same order) share a structure,
    which is what :class:`CompileCache` exploits.
    """

    variables: Tuple[Variable, ...]
    edges: np.ndarray
    sym_perm: np.ndarray
    classes: Tuple[ClassUpdatePlan, ...]

    @property
    def num_variables(self) -> int:
        """Number of variables."""
        return len(self.variables)

    @property
    def nnz(self) -> int:
        """Non-zeros of the symmetric adjacency (twice the edge count)."""
        return int(self.sym_perm.size)


@dataclass
class CompiledQUBO:
    """Array form of a QUBO used by the vectorised annealing sweeps.

    Pairs a (possibly shared) :class:`CompiledStructure` with the
    weight-dependent arrays: linear fields, per-edge weights, the
    symmetric CSR data and, pre-gathered per colour class, the
    neighbour weights each sweep multiplies against.  When scipy is
    available, :attr:`class_matrices` additionally offers one
    ``(len(class), n)`` CSR matrix per colour class (built on first use
    from the plan's ``indptr``/``neighbor_cols`` and the gathered data)
    whose matvec against the state matrix is the fastest local-field
    kernel.  The fused drivers build their own matrices, so the device's
    gauge batches never pay for these.
    """

    structure: CompiledStructure
    linear: np.ndarray
    edge_weights: np.ndarray
    sym_data: np.ndarray
    class_neighbor_data: List[np.ndarray]
    offset: float
    max_abs_weight: float

    @cached_property
    def class_matrices(self) -> Optional[List[Any]]:
        """Per-class CSR coupling matrices, or ``None`` without scipy."""
        if _csr_matrix is None:
            return None
        n = self.num_variables
        return [
            _csr_matrix((data, plan.neighbor_cols, plan.indptr), shape=(plan.members.size, n))
            for plan, data in zip(self.structure.classes, self.class_neighbor_data)
        ]

    @property
    def variables(self) -> List[Variable]:
        """Variable labels in compilation order."""
        return list(self.structure.variables)

    @property
    def num_variables(self) -> int:
        """Number of variables."""
        return self.structure.num_variables

    @property
    def num_classes(self) -> int:
        """Number of colour classes."""
        return len(self.structure.classes)

    def local_field(self, states: np.ndarray, class_index: int) -> np.ndarray:
        """Local field ``h_i + sum_j J_ij x_rj`` for one colour class.

        ``states`` is the ``(num_reads, n)`` 0/1 state matrix; the
        result has shape ``(num_reads, len(class))`` and costs
        ``O(num_reads * nnz(class))`` — independent of ``n``.
        """
        return self.local_field_t(np.ascontiguousarray(states.T), class_index).T

    def local_field_t(self, states_t: np.ndarray, class_index: int) -> np.ndarray:
        """Transposed-layout local field used by the annealing hot loop.

        ``states_t`` is the ``(n, num_reads)`` state matrix (variables
        as rows, so a colour class is a contiguous row gather); the
        result has shape ``(len(class), num_reads)``.
        """
        plan = self.structure.classes[class_index]
        base = self.linear[plan.members][:, None]
        if plan.neighbor_cols.size == 0:
            return np.broadcast_to(base, (base.shape[0], states_t.shape[1])).copy()
        if self.class_matrices is not None:
            return base + self.class_matrices[class_index].dot(states_t)
        product = states_t[plan.neighbor_cols] * self.class_neighbor_data[class_index][:, None]
        contribution = segment_sum(
            product.T, plan.reduce_starts, plan.members.size, plan.empty_members
        )
        return base + contribution.T

    def energies(self, states: np.ndarray) -> np.ndarray:
        """Energies of a ``(num_reads, n)`` 0/1 state matrix, in one batch.

        Every read's energy is the offset plus its active terms added one
        at a time in model order — linear terms by variable, then
        couplings by edge — exactly as :meth:`QUBOModel.energy
        <repro.qubo.model.QUBOModel.energy>` adds them, so the results
        agree bit for bit (a BLAS product would reassociate the sum).
        """
        # Terms as rows, reads as columns: the gathers are row gathers and
        # the running sum adds whole rows, one term after the other.
        states_t = np.asarray(states, dtype=np.float64).T
        edges = self.structure.edges
        n = self.num_variables
        terms = np.empty((1 + n + len(edges), states_t.shape[1]))
        terms[0] = self.offset
        np.multiply(states_t, self.linear[:, None], out=terms[1 : n + 1])
        np.multiply(states_t[edges[:, 0]], states_t[edges[:, 1]], out=terms[n + 1 :])
        terms[n + 1 :] *= self.edge_weights[:, None]
        return np.cumsum(terms, axis=0, out=terms)[-1].copy()

    def dense_coupling(self) -> np.ndarray:
        """Symmetric dense coupling matrix (the pre-sparse representation).

        Only used by the ``dense`` reference backend and the memory
        benchmark; the sparse hot path never materialises it.
        """
        n = self.num_variables
        coupling = np.zeros((n, n))
        edges = self.structure.edges
        if self.edge_weights.size:
            np.add.at(coupling, (edges[:, 0], edges[:, 1]), self.edge_weights)
            np.add.at(coupling, (edges[:, 1], edges[:, 0]), self.edge_weights)
        return coupling

    def nbytes_sparse(self) -> int:
        """Bytes held by the sparse arrays (structure + weights)."""
        arrays: List[np.ndarray] = [self.linear, self.edge_weights, self.sym_data]
        arrays.extend(self.class_neighbor_data)
        arrays.append(self.structure.edges)
        arrays.append(self.structure.sym_perm)
        for plan in self.structure.classes:
            arrays.extend(
                [
                    plan.members,
                    plan.neighbor_cols,
                    plan.data_slots,
                    plan.reduce_starts,
                    plan.segment_lengths,
                ]
            )
            if plan.empty_members is not None:
                arrays.append(plan.empty_members)
        return int(sum(array.nbytes for array in arrays))


class CompileCache:
    """Thread-safe LRU cache for compiled artefacts.

    Used process-wide for compiled-QUBO structures (keyed by sparsity
    pattern) and by the service layer for prepared pipelines (keyed by
    :meth:`~repro.mqo.problem.MQOProblem.canonical_hash`).  ``maxsize=0``
    disables caching entirely, which the equivalence tests and the
    benchmark use to measure cold compilations.
    """

    def __init__(self, maxsize: int = 128, name: Optional[str] = None) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be non-negative, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        # A named cache mirrors its hit/miss counts into the process-wide
        # metrics registry (Prometheus series labelled by cache name).
        self._hit_counter = self._miss_counter = None
        if name:
            from repro.obs.metrics import get_registry

            registry = get_registry()
            labels = {"cache": name}
            self._hit_counter = registry.counter(
                "repro_compile_cache_hits_total", "Compile-cache hits.", labels
            )
            self._miss_counter = registry.counter(
                "repro_compile_cache_misses_total", "Compile-cache misses.", labels
            )

    def get(self, key: Any) -> Any:
        """The cached value for ``key``, or ``None`` (counts hit/miss)."""
        with self._lock:
            if key in self._entries:
                self.hits += 1
                if self._hit_counter is not None:
                    self._hit_counter.inc()
                self._entries.move_to_end(key)
                return self._entries[key]
            self.misses += 1
            if self._miss_counter is not None:
                self._miss_counter.inc()
            return None

    def put(self, key: Any, value: Any) -> None:
        """Insert ``value`` under ``key``, evicting the LRU entry if full."""
        if self.maxsize == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        """Snapshot of size and hit/miss counters."""
        with self._lock:
            return {"size": len(self._entries), "hits": self.hits, "misses": self.misses}

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CompileCache {len(self._entries)}/{self.maxsize} hits={self.hits} misses={self.misses}>"


_default_cache: CompileCache | None = None
_default_cache_lock = threading.Lock()


def default_compile_cache() -> CompileCache:
    """The process-wide structure cache shared by all samplers."""
    global _default_cache
    with _default_cache_lock:
        if _default_cache is None:
            _default_cache = CompileCache(maxsize=128, name="structure")
        return _default_cache


def _build_structure(variables: Sequence[Variable], edges: np.ndarray) -> CompiledStructure:
    """Build the weight-independent compilation of a sparsity pattern."""
    n = len(variables)
    num_edges = edges.shape[0]
    if num_edges:
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        sym_perm = np.lexsort((cols, rows)).astype(np.int64)
        rows_sorted = rows[sym_perm]
        cols_sorted = cols[sym_perm]
        counts = np.bincount(rows_sorted, minlength=n).astype(np.int64)
    else:
        sym_perm = np.empty(0, dtype=np.int64)
        cols_sorted = np.empty(0, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    adjacency: List[List[int]] = [
        cols_sorted[indptr[i] : indptr[i + 1]].tolist() for i in range(n)
    ]
    classes: List[ClassUpdatePlan] = []
    for members_list in greedy_coloring(adjacency):
        members = np.asarray(members_list, dtype=np.int64)
        lengths = counts[members]
        data_slots = _concat_ranges(indptr[members], lengths)
        neighbor_cols = cols_sorted[data_slots]
        raw_starts = np.cumsum(lengths) - lengths
        empty = lengths == 0
        class_nnz = int(lengths.sum())
        reduce_starts = raw_starts[raw_starts < class_nnz].astype(np.int64)
        classes.append(
            ClassUpdatePlan(
                members=members,
                neighbor_cols=neighbor_cols,
                data_slots=data_slots,
                reduce_starts=reduce_starts,
                segment_lengths=lengths,
                indptr=np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
                empty_members=empty if bool(empty.any()) else None,
            )
        )
    return CompiledStructure(
        variables=tuple(variables),
        edges=edges,
        sym_perm=sym_perm,
        classes=tuple(classes),
    )


def structure_key(variables: Sequence[Variable], edges: np.ndarray) -> Tuple:
    """Cache key of a sparsity pattern (variable order + edge sequence)."""
    return (tuple(variables), edges.tobytes())


def compile_structure(
    variables: Sequence[Variable], edges: np.ndarray, cache: CompileCache | None = None
) -> CompiledStructure:
    """The weight-independent compilation of a sparsity pattern.

    Looked up in ``cache`` by :func:`structure_key` when one is given,
    built (and inserted) otherwise.
    """
    if cache is None:
        return _build_structure(variables, edges)
    key = structure_key(variables, edges)
    structure = cache.get(key)
    if structure is None:
        structure = _build_structure(variables, edges)
        cache.put(key, structure)
    return structure


def compile_weights(
    structure: CompiledStructure,
    linear: np.ndarray,
    weights: np.ndarray,
    offset: float = 0.0,
) -> CompiledQUBO:
    """Pair ``structure`` with one set of weights (an ``O(nnz)`` refresh).

    ``linear`` holds one weight per variable and ``weights`` one per
    edge of the structure, in the structure's orders.  The device's
    gauge batches all share one structure and differ only here.
    """
    if weights.size:
        sym_data = np.concatenate([weights, weights])[structure.sym_perm]
        max_abs = max(
            float(np.max(np.abs(linear))) if linear.size else 0.0,
            float(np.max(np.abs(weights))),
        )
    else:
        sym_data = np.empty(0)
        max_abs = float(np.max(np.abs(linear))) if linear.size else 0.0
    return CompiledQUBO(
        structure=structure,
        linear=linear,
        edge_weights=weights,
        sym_data=sym_data,
        class_neighbor_data=[sym_data[plan.data_slots] for plan in structure.classes],
        offset=float(offset),
        max_abs_weight=max_abs,
    )


def compile_qubo(
    qubo: QUBOModel | CompiledQUBO, cache: CompileCache | None = None
) -> CompiledQUBO:
    """Compile ``qubo`` into the flat-array form used by the samplers.

    When ``cache`` is given, the weight-independent structure (colouring
    and gather plans) is looked up by sparsity pattern and only the
    weight arrays are rebuilt — an ``O(nnz)`` refresh instead of a full
    recompilation.  Weights themselves are never cached because gauge
    transforms and noise perturb them on every device programming.  An
    already compiled model (the device's programmed gauge batches) is
    returned unchanged.
    """
    if isinstance(qubo, CompiledQUBO):
        return qubo
    variables, linear, edges, weights = qubo.to_arrays()
    structure = compile_structure(variables, edges, cache)
    return compile_weights(structure, linear, weights, qubo.offset)
