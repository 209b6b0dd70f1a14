"""QUBO <-> Ising conversions.

The D-Wave hardware natively minimises an Ising Hamiltonian

    H(s) = sum_i h_i s_i + sum_{i<j} J_ij s_i s_j ,    s_i in {-1, +1}.

The standard substitution ``x_i = (s_i + 1) / 2`` converts between the
QUBO form (binary 0/1 variables) and the Ising form (spin variables).
The device simulator and the gauge transformations operate on the Ising
form, mirroring how the physical machine is programmed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Mapping, Tuple

import numpy as np

from repro.exceptions import QUBOError
from repro.qubo.model import QUBOModel

__all__ = [
    "IsingModel",
    "qubo_to_ising",
    "ising_to_qubo",
    "qubo_arrays_to_ising",
    "ising_arrays_to_qubo",
]

Variable = Hashable
Edge = Tuple[Variable, Variable]


@dataclass
class IsingModel:
    """An Ising model: fields ``h``, couplings ``J`` and a constant offset."""

    h: Dict[Variable, float] = field(default_factory=dict)
    j: Dict[Edge, float] = field(default_factory=dict)
    offset: float = 0.0

    @property
    def variables(self) -> list:
        """All spin variables (field keys plus any coupling endpoints)."""
        seen = dict.fromkeys(self.h)
        for u, v in self.j:
            seen.setdefault(u, None)
            seen.setdefault(v, None)
        return list(seen)

    def energy(self, spins: Mapping[Variable, int]) -> float:
        """Energy of a spin assignment (values must be -1 or +1)."""
        for var in self.variables:
            if spins.get(var) not in (-1, 1):
                raise QUBOError(f"spin for variable {var!r} must be -1 or +1")
        total = self.offset
        for var, field_value in self.h.items():
            total += field_value * spins[var]
        for (u, v), coupling in self.j.items():
            total += coupling * spins[u] * spins[v]
        return total

    def max_abs_weight(self) -> float:
        """Largest absolute field/coupling value (0.0 for an empty model)."""
        values = [abs(v) for v in self.h.values()] + [abs(v) for v in self.j.values()]
        return max(values) if values else 0.0


def qubo_to_ising(qubo: QUBOModel) -> IsingModel:
    """Convert a QUBO into the equivalent Ising model.

    With ``x = (s + 1) / 2`` the energies satisfy
    ``E_qubo(x) = E_ising(s)`` for corresponding assignments.
    """
    h: Dict[Variable, float] = {var: 0.0 for var in qubo.variables}
    j: Dict[Edge, float] = {}
    offset = qubo.offset

    for var, weight in qubo.linear.items():
        h[var] += weight / 2.0
        offset += weight / 2.0

    for (u, v), weight in qubo.quadratic.items():
        j[(u, v)] = j.get((u, v), 0.0) + weight / 4.0
        h[u] += weight / 4.0
        h[v] += weight / 4.0
        offset += weight / 4.0

    return IsingModel(h=h, j=j, offset=offset)


def ising_to_qubo(ising: IsingModel) -> QUBOModel:
    """Convert an Ising model into the equivalent QUBO.

    Inverse of :func:`qubo_to_ising`: with ``s = 2x - 1`` the energies of
    corresponding assignments are equal.
    """
    qubo = QUBOModel(offset=ising.offset)
    for var in ising.variables:
        qubo.add_variable(var)

    for var, field_value in ising.h.items():
        qubo.add_linear(var, 2.0 * field_value)
        qubo.add_offset(-field_value)

    for (u, v), coupling in ising.j.items():
        qubo.add_quadratic(u, v, 4.0 * coupling)
        qubo.add_linear(u, -2.0 * coupling)
        qubo.add_linear(v, -2.0 * coupling)
        qubo.add_offset(coupling)

    return qubo


def qubo_arrays_to_ising(
    linear: np.ndarray, edges: np.ndarray, weights: np.ndarray, offset: float
) -> Tuple[np.ndarray, np.ndarray, float]:
    """:func:`qubo_to_ising` on the flat arrays of :meth:`QUBOModel.to_arrays`.

    Returns ``(h, j, offset)``.  Every value is accumulated in the order
    :func:`qubo_to_ising` uses — per-variable halves first, then per
    edge (in edge order) a quarter onto ``u`` and then onto ``v`` — so
    the results are bit-identical to the dictionary form.
    """
    h = 0.0 + linear / 2.0
    quarter = weights / 4.0
    np.add.at(h, edges.ravel(), np.repeat(quarter, 2))
    terms = np.concatenate(([float(offset)], linear / 2.0, quarter))
    return h, 0.0 + quarter, float(np.cumsum(terms)[-1])


def ising_arrays_to_qubo(
    h: np.ndarray, j: np.ndarray, edges: np.ndarray, offset: float
) -> Tuple[np.ndarray, np.ndarray, float]:
    """:func:`ising_to_qubo` on arrays: ``(linear, weights, offset)``.

    Inverse of :func:`qubo_arrays_to_ising`, with the accumulation order
    of :func:`ising_to_qubo` (bit-identical results).  Raises
    :class:`QUBOError` exactly when the dictionary form would: when a
    term it adds (``2 h_i`` or ``4 J_uv``) is not finite.
    """
    with np.errstate(over="ignore"):  # overflow is reported as QUBOError below
        doubled = 2.0 * h
        quadrupled = 4.0 * j
    if not (np.isfinite(doubled).all() and np.isfinite(quadrupled).all()):
        raise QUBOError("QUBO weights must be finite")
    linear = 0.0 + doubled
    np.add.at(linear, edges.ravel(), np.repeat(-2.0 * j, 2))
    terms = np.concatenate(([float(offset)], -h, j))
    return linear, 0.0 + quadrupled, float(np.cumsum(terms)[-1])


def spins_to_binary(spins: Mapping[Variable, int]) -> Dict[Variable, int]:
    """Map spin values (-1/+1) to binary values (0/1)."""
    result = {}
    for var, s in spins.items():
        if s not in (-1, 1):
            raise QUBOError(f"spin for variable {var!r} must be -1 or +1, got {s}")
        result[var] = (s + 1) // 2
    return result


def binary_to_spins(binary: Mapping[Variable, int]) -> Dict[Variable, int]:
    """Map binary values (0/1) to spin values (-1/+1)."""
    result = {}
    for var, x in binary.items():
        if x not in (0, 1):
            raise QUBOError(f"binary value for variable {var!r} must be 0 or 1, got {x}")
        result[var] = 2 * x - 1
    return result
