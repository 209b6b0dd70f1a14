"""Container for 0-1 (binary) linear programs.

The model is

    minimise     c^T x
    subject to   A_eq x  = b_eq
                 A_ub x <= b_ub
                 x_i in {0, 1}

Constraints are accumulated row by row as sparse coefficient mappings and
materialised into ``scipy.sparse`` matrices on first use.  The materialised
arrays are cached until the model changes: branch-and-bound solves one LP
per node and checks every candidate incumbent against them, and rebuilding
them from the rows each time cost more than a small LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Sequence, Tuple, TypeVar

import numpy as np
from scipy import sparse

from repro.exceptions import SolverError

__all__ = ["BinaryLinearProgram"]

VariableName = Hashable
_T = TypeVar("_T")


@dataclass(frozen=True)
class _Row:
    coefficients: Tuple[Tuple[int, float], ...]
    rhs: float


class BinaryLinearProgram:
    """A binary linear program built incrementally."""

    def __init__(self) -> None:
        self._objective: Dict[int, float] = {}
        self._names: List[VariableName] = []
        self._index: Dict[VariableName, int] = {}
        self._equalities: List[_Row] = []
        self._inequalities: List[_Row] = []
        #: Materialised arrays by kind, cleared whenever the model changes.
        self._materialised: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Variables and objective
    # ------------------------------------------------------------------ #
    def add_variable(self, name: VariableName, objective: float = 0.0) -> int:
        """Register a binary variable and return its column index."""
        if name in self._index:
            raise SolverError(f"variable {name!r} already exists")
        index = len(self._names)
        self._materialised.clear()
        self._names.append(name)
        self._index[name] = index
        if objective:
            self._objective[index] = float(objective)
        return index

    def add_objective(self, name: VariableName, coefficient: float) -> None:
        """Accumulate an objective coefficient onto an existing variable."""
        index = self.index_of(name)
        self._materialised.clear()
        self._objective[index] = self._objective.get(index, 0.0) + float(coefficient)

    def index_of(self, name: VariableName) -> int:
        """Column index of a variable."""
        try:
            return self._index[name]
        except KeyError:
            raise SolverError(f"unknown variable {name!r}") from None

    @property
    def num_variables(self) -> int:
        """Number of variables."""
        return len(self._names)

    @property
    def variable_names(self) -> List[VariableName]:
        """Variable names in column order."""
        return list(self._names)

    # ------------------------------------------------------------------ #
    # Constraints
    # ------------------------------------------------------------------ #
    def _build_row(self, coefficients: Mapping[VariableName, float], rhs: float) -> _Row:
        entries = tuple(
            (self.index_of(name), float(value))
            for name, value in coefficients.items()
            if value != 0.0
        )
        return _Row(coefficients=entries, rhs=float(rhs))

    def add_equality(self, coefficients: Mapping[VariableName, float], rhs: float) -> None:
        """Add a constraint ``sum coeff * x = rhs``."""
        self._equalities.append(self._build_row(coefficients, rhs))
        self._materialised.clear()

    def add_less_equal(self, coefficients: Mapping[VariableName, float], rhs: float) -> None:
        """Add a constraint ``sum coeff * x <= rhs``."""
        self._inequalities.append(self._build_row(coefficients, rhs))
        self._materialised.clear()

    def add_greater_equal(self, coefficients: Mapping[VariableName, float], rhs: float) -> None:
        """Add a constraint ``sum coeff * x >= rhs`` (stored as ``<=`` of the negation)."""
        negated = {name: -value for name, value in coefficients.items()}
        self.add_less_equal(negated, -rhs)

    @property
    def num_constraints(self) -> int:
        """Total number of constraints."""
        return len(self._equalities) + len(self._inequalities)

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def _cached(self, kind: str, build: Callable[[], _T]) -> _T:
        """``build()``'s result, computed once per version of the model.

        The cached arrays are shared between callers: the vectors are
        read-only, and the constraint matrices must not be modified.
        """
        if kind not in self._materialised:
            self._materialised[kind] = build()
        return self._materialised[kind]  # type: ignore[return-value]

    def objective_vector(self) -> np.ndarray:
        """Dense objective coefficient vector (read-only)."""
        return self._cached("objective", self._build_objective)

    def _build_objective(self) -> np.ndarray:
        c = np.zeros(self.num_variables)
        for index, value in self._objective.items():
            c[index] = value
        c.flags.writeable = False
        return c

    @staticmethod
    def _rows_to_sparse(rows: Sequence[_Row], num_columns: int):
        if not rows:
            return None, None
        data: List[float] = []
        row_indices: List[int] = []
        col_indices: List[int] = []
        rhs = np.zeros(len(rows))
        for r, row in enumerate(rows):
            rhs[r] = row.rhs
            for column, value in row.coefficients:
                row_indices.append(r)
                col_indices.append(column)
                data.append(value)
        matrix = sparse.csr_matrix(
            (data, (row_indices, col_indices)), shape=(len(rows), num_columns)
        )
        rhs.flags.writeable = False
        return matrix, rhs

    def equality_matrix(self):
        """``(A_eq, b_eq)`` as a CSR matrix and vector (``(None, None)`` if empty)."""
        return self._cached(
            "equality", lambda: self._rows_to_sparse(self._equalities, self.num_variables)
        )

    def inequality_matrix(self):
        """``(A_ub, b_ub)`` as a CSR matrix and vector (``(None, None)`` if empty)."""
        return self._cached(
            "inequality", lambda: self._rows_to_sparse(self._inequalities, self.num_variables)
        )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def objective_value(self, assignment: np.ndarray) -> float:
        """Objective value of a (0/1 or fractional) assignment vector."""
        assignment = np.asarray(assignment, dtype=float)
        if assignment.shape != (self.num_variables,):
            raise SolverError(
                f"assignment must have shape ({self.num_variables},), got {assignment.shape}"
            )
        return float(self.objective_vector() @ assignment)

    def is_feasible(self, assignment: np.ndarray, tolerance: float = 1e-6) -> bool:
        """Whether an integer assignment satisfies all constraints."""
        assignment = np.asarray(assignment, dtype=float)
        a_eq, b_eq = self.equality_matrix()
        if a_eq is not None and np.any(np.abs(a_eq @ assignment - b_eq) > tolerance):
            return False
        a_ub, b_ub = self.inequality_matrix()
        if a_ub is not None and np.any(a_ub @ assignment - b_ub > tolerance):
            return False
        return True

    def assignment_by_name(self, assignment: np.ndarray) -> Dict[VariableName, float]:
        """Map an assignment vector back to variable names."""
        return {name: float(assignment[i]) for i, name in enumerate(self._names)}
