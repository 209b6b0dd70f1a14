"""Gauge (spin-reversal) transformations.

On the physical annealer, small analog biases favour one qubit state
over the other.  A gauge transformation [Boixo et al.] randomly chooses,
for each qubit, which physical state represents a logical one; sampling
the same problem under several gauges averages those biases out.  The
paper runs 10 gauges of 100 reads each.

In Ising form a gauge is a vector ``g`` of +/-1 factors: the transformed
problem has ``h'_i = g_i h_i`` and ``J'_ij = g_i g_j J_ij``; a sample
``s'`` of the transformed problem corresponds to the sample
``s_i = g_i s'_i`` of the original problem, with identical energy.  On
0/1 variables that back-transformation flips exactly the variables with
``g_i = -1``, i.e. it is an XOR with the gauge's flip mask.

Everything here works on arrays over a fixed variable order, with edges
given as ``(m, 2)`` variable positions — the layout the device compiles
once per request and shares across its gauge batches.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["apply_gauge", "random_gauge", "undo_gauge"]


def random_gauge(num_variables: int, seed: SeedLike = None) -> np.ndarray:
    """Draw an independent uniform +/-1 factor for every variable.

    One ``integers(0, 2, num_variables)`` draw, so a gauge consumes the
    random stream identically however it is used afterwards.
    """
    rng = ensure_rng(seed)
    return rng.integers(0, 2, size=num_variables) * 2 - 1


def apply_gauge(
    h: np.ndarray, j: np.ndarray, edges: np.ndarray, factors: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The gauge-transformed Ising fields and couplings.

    ``h'_i = g_i h_i`` and ``J'_uv = g_u g_v J_uv``, where ``edges[k]``
    holds the variable positions ``(u, v)`` of coupling ``j[k]``.  The
    factors are +/-1, so every product is an exact sign change.
    """
    return factors * h, factors[edges[:, 0]] * factors[edges[:, 1]] * j


def undo_gauge(states: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Map 0/1 states between the gauged and the original frame.

    ``states`` is a ``(reads, n)`` 0/1 matrix and ``factors`` either one
    gauge (``n`` factors) or one gauge per read (``(reads, n)``).  The
    map is an involution: variables with factor -1 are flipped (XOR),
    the others kept.  Returns a bool matrix.
    """
    return np.not_equal(states, factors < 0)
