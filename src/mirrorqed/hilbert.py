"""Labeled tensor-product spaces (qubit x truncated bosonic modes).

A :class:`CompositeSpace` enumerates occupation tuples ``(s, n_1, ..., n_M)``
with the qubit first and the modes in ascending-nu order.  An optional cap on
the total excitation number keeps single- and few-excitation problems at
their natural dimension instead of the full Fock product.  Operators on the
space are lifted straight into CSR from the basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class DimensionMismatchError(ValueError):
    """Local operator dimension does not match the targeted factor."""


class CompositeSpace:
    """Qubit plus ``n_modes`` bosonic modes, each truncated at ``n_max`` photons."""

    def __init__(self, n_modes: int, n_max: int, max_excitations: int | None = None):
        if n_modes < 0 or n_max < 0:
            raise ValueError("n_modes and n_max must be non-negative")
        if max_excitations is not None and max_excitations < 0:
            raise ValueError("max_excitations must be non-negative")
        self.n_modes = n_modes
        self.n_max = n_max
        self.max_excitations = max_excitations
        self.factor_dims = (2,) + (n_max + 1,) * n_modes
        # an uncapped space is capped at its largest total, so one ranking
        # scheme serves both
        cap = sum(self.factor_dims) - len(self.factor_dims)
        if max_excitations is not None:
            cap = min(cap, max_excitations)
        self._cap = cap
        # grow the basis factor by factor in lexicographic order, keeping only
        # occupations with bounded total (the full product is exponential in
        # the number of modes)
        occ = np.zeros((1, 0), dtype=np.int64)
        for d in self.factor_dims:
            levels = np.tile(np.arange(d), len(occ))[:, None]
            occ = np.hstack([np.repeat(occ, d, axis=0), levels])
            occ = occ[occ.sum(axis=1) <= cap]
        self._occ = occ
        self._offset = _rank_offsets(self.factor_dims, cap)
        self.basis = tuple(map(tuple, occ.tolist()))
        self.index = {o: i for i, o in enumerate(self.basis)}
        self.dim = len(self.basis)

    @property
    def n_factors(self) -> int:
        return 1 + self.n_modes

    def __repr__(self):
        cap = self.max_excitations
        return (
            f"CompositeSpace(n_modes={self.n_modes}, n_max={self.n_max}, "
            f"max_excitations={cap}, dim={self.dim})"
        )

    def __eq__(self, other):
        return (
            isinstance(other, CompositeSpace)
            and self.n_modes == other.n_modes
            and self.n_max == other.n_max
            and self.max_excitations == other.max_excitations
        )

    def __hash__(self):
        return hash((self.n_modes, self.n_max, self.max_excitations))

    def basis_state(self, occ) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index[tuple(occ)]] = 1.0
        return v

    def vacuum(self, excited: bool = False) -> np.ndarray:
        occ = (1 if excited else 0,) + (0,) * self.n_modes
        return self.basis_state(occ)

    def excitations(self) -> np.ndarray:
        """Total excitation number of each basis state."""
        return self._occ.sum(axis=1)

    def _rank(self, occ: np.ndarray) -> np.ndarray:
        """Basis indices of kept occupation rows ``occ`` (shape (m, n_factors)).

        Each factor adds the number of kept states that agree on the earlier
        factors and hold fewer quanta here, read from a completion-count table;
        every partial sum stays below ``dim``.
        """
        spent = np.cumsum(occ, axis=1) - occ
        factors = np.arange(self.n_factors)
        return self._offset[factors, self._cap - spent, occ].sum(axis=1)

    def embed(self, local: np.ndarray, factor: int) -> sp.csr_matrix:
        """Lift a single-factor operator; identity on all other factors.

        On a capped space this is the compression P (op x 1) P with P the
        projector onto the kept basis.
        """
        local = np.asarray(local, dtype=complex)
        d = self.factor_dims[factor]
        if local.shape != (d, d):
            raise DimensionMismatchError(
                f"factor {factor} has dimension {d}, operator is {local.shape}"
            )
        totals = self.excitations()
        rows, cols, vals = [], [], []
        for r, c in zip(*np.nonzero(local)):
            kept = (self._occ[:, factor] == c) & (totals + (r - c) <= self._cap)
            src = np.flatnonzero(kept)
            target = self._occ[src]
            target[:, factor] = r
            rows.append(self._rank(target))
            cols.append(src)
            vals.append(np.full(len(src), local[r, c]))
        if not rows:
            return sp.csr_matrix((self.dim, self.dim), dtype=complex)
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.dim, self.dim),
        )

    def mode_factor(self, mode: int) -> int:
        """Factor index of the mode at storage position ``mode`` (0-based)."""
        if not 0 <= mode < self.n_modes:
            raise IndexError(f"mode index {mode} out of range")
        return 1 + mode

    def boundary_projector(self) -> np.ndarray:
        """Diagonal of the projector onto truncation-boundary states.

        A state is on the boundary if any mode sits in its top Fock level or,
        on a capped space, if the total excitation number equals the cap.
        Population here measures truncation leakage.
        """
        at_top = np.zeros(self.dim, dtype=bool)
        if self.n_modes > 0 and self.n_max > 0:
            at_top = self._occ[:, 1:].max(axis=1) >= self.n_max
        at_cap = np.zeros(self.dim, dtype=bool)
        if self.max_excitations is not None and self.max_excitations > 0:
            at_cap = self.excitations() >= self.max_excitations
        return (at_top | at_cap).astype(float)

    def ptrace_qubit(self, rho: np.ndarray) -> np.ndarray:
        """Reduced 2x2 qubit state."""
        out = np.zeros((2, 2), dtype=complex)
        for i, occ_i in enumerate(self.basis):
            rest = occ_i[1:]
            other = (1 - occ_i[0],) + rest
            out[occ_i[0], occ_i[0]] += rho[i, i]
            j = self.index.get(other)
            if j is not None and occ_i[0] == 1:
                out[1, 0] += rho[i, j]
                out[0, 1] += rho[j, i]
        return out


def _rank_offsets(factor_dims: tuple, cap: int) -> np.ndarray:
    """offset[k, b, n]: kept states below occupation n of factor k, budget b.

    With b quanta left for factors k, k+1, ..., choosing n at factor k skips
    the completions of every smaller choice v < n: those with at most b - v
    quanta on the later factors.
    """
    k_max = len(factor_dims)
    completions = np.ones(cap + 1, dtype=np.int64)  # no factors left
    offset = np.zeros((k_max, cap + 1, max(factor_dims)), dtype=np.int64)
    budgets = np.arange(cap + 1)
    for k in range(k_max - 1, -1, -1):
        for n in range(1, factor_dims[k]):
            offset[k, n:, n] = offset[k, n:, n - 1] + completions[1 : cap + 2 - n]
        top = np.minimum(budgets, factor_dims[k] - 1)
        completions = offset[k, budgets, top] + completions[budgets - top]
    return offset


def as_csr(op) -> sp.csr_matrix:
    """CSR form of an operator given as QuantumOperator, sparse or array-like."""
    if isinstance(op, QuantumOperator):
        op = op.matrix
    if sp.issparse(op):
        return op.tocsr().astype(complex, copy=False)
    return sp.csr_matrix(np.asarray(op, dtype=complex))


@dataclass(frozen=True)
class QuantumOperator:
    """Sparse (CSR) operator bound to the space it acts on."""

    space: CompositeSpace
    matrix: sp.csr_matrix

    def __post_init__(self):
        if self.matrix.shape != (self.space.dim, self.space.dim):
            raise DimensionMismatchError(
                f"matrix shape {self.matrix.shape} vs space dim {self.space.dim}"
            )


def destroy(dim: int) -> np.ndarray:
    """Truncated annihilation operator; [a, a+] = 1 except in the top level."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)


def sigma_minus() -> np.ndarray:
    return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def sigma_plus() -> np.ndarray:
    return sigma_minus().conj().T


def sigma_x() -> np.ndarray:
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def number_op(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)
