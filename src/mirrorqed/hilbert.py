"""Labeled tensor-product spaces (qubit x truncated bosonic modes).

A :class:`CompositeSpace` enumerates occupation tuples ``(s, n_1, ..., n_M)``
with the qubit first and the modes in ascending-nu order.  An optional cap on
the total excitation number keeps single- and few-excitation problems at
their natural dimension instead of the full Fock product.  The basis is
unranked from a completion-count table, which also gives its dimension before
anything is allocated.  Each state is stored as its occupied entries (state,
factor, quanta), state by state with per-state starts, so it costs only the
factors it occupies.  Operators are lifted straight into CSR through the ranks
of the states they reach by moving quanta on those entries.  ``csr_dot``
applies such an operator to a dense vector or block on scipy's own kernel,
without the per-call dispatch of ``@``; every hot sparse product in the
package uses it.
"""

from __future__ import annotations


import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools


class DimensionMismatchError(ValueError):
    """Local operator dimension does not match the targeted factor."""


class SectorSizeError(ValueError):
    """The space's tables would exceed the entry cap."""


# Entries above which a space's occupied entries (with their per-state starts)
# or its rank-offset table are refused, before either is allocated.
_MAX_TABLE_ENTRIES = 50_000_000


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
        self._offset, self._count = _rank_offsets(self.factor_dims, cap)
        self.dim = int(self._count[0, cap])
        # a state occupies at most min(cap, factors) factors, one entry each
        if self.dim + 3 * self.dim * min(cap, self.n_factors) > _MAX_TABLE_ENTRIES:
            raise SectorSizeError(
                f"at least {self.dim} states on {self.n_factors} factors: their "
                f"occupied entries would exceed the cap of {_MAX_TABLE_ENTRIES} values"
            )
        # the kept states in lexicographic order, read off their ranks
        self._state, self._factor, self._quanta = self._unrank(np.arange(self.dim))
        self._start = np.searchsorted(self._state, np.arange(self.dim + 1))

    @property
    def n_factors(self) -> int:
        return 1 + self.n_modes

    def __repr__(self):
        cap = self.max_excitations
        return (
            f"CompositeSpace(n_modes={self.n_modes}, n_max={self.n_max}, "
            f"max_excitations={cap}, dim={self.dim})"
        )

    def basis_state(self, occ) -> np.ndarray:
        occ = np.asarray(occ, dtype=np.int64)
        if occ.shape != (self.n_factors,) or not (
            np.all((0 <= occ) & (occ < self.factor_dims)) and occ.sum() <= self._cap
        ):
            raise ValueError(f"{tuple(occ.tolist())} is not a basis state of {self!r}")
        v = np.zeros(self.dim, dtype=complex)
        # the vacuum has rank 0 and no entries: fill every factor from it
        v[self._rank_moved(np.zeros(1, int), range(self.n_factors), occ[None])] = 1.0
        return v

    def vacuum(self, excited: bool = False) -> np.ndarray:
        occ = (1 if excited else 0,) + (0,) * self.n_modes
        return self.basis_state(occ)

    def excitations(self, factors=None) -> np.ndarray:
        """Quanta each basis state holds on ``factors`` (indices; all by default)."""
        n = self._quanta if factors is None else self._quanta * np.isin(self._factor, factors)
        held = np.concatenate(([0], np.cumsum(n)))
        return held[self._start[1:]] - held[self._start[:-1]]

    def _rank_moved(self, states, k, dn) -> np.ndarray:
        """Basis indices of the basis states ``states`` after moving quanta.

        ``k`` and ``dn`` broadcast to one row per state: row t adds dn[t, e]
        quanta (of either sign) on factor k[t, e] of states[t], and the state
        reached must be kept.  Entries and moves are summed per factor, empty
        factors dropped, and each entry left adds the count of kept states that
        agree on the earlier factors and hold fewer quanta on its own.
        """
        k, dn = np.broadcast_arrays(k, dn)
        first = self._start[states]
        held = self._start[states + 1] - first
        src = _ranges(first, held)
        term = np.arange(len(states))
        term = np.concatenate([np.repeat(term, held), np.repeat(term, k.shape[1])])
        key = self.n_factors * term + np.concatenate([self._factor[src], k.ravel()])
        n = np.concatenate([self._quanta[src], dn.ravel()])
        order = np.argsort(key, kind="stable")
        key, n = key[order], n[order]
        start = np.flatnonzero(np.diff(key, prepend=-1))
        key, n = key[start], np.add.reduceat(n, start)
        key, n = key[n != 0], n[n != 0]
        rows, k = key // self.n_factors, key % self.n_factors
        spent = np.cumsum(n) - n
        spent -= spent[np.searchsorted(rows, rows)]  # on earlier factors of the row
        rank = np.zeros(len(states), dtype=np.int64)
        np.add.at(rank, rows, self._offset[k, self._cap - spent, n])
        return rank

    def _unrank(self, idx: np.ndarray) -> tuple:
        """Occupied entries (row, factor, quanta) of the basis indices ``idx``.

        Row by row, factors in order.  What is left of an index is below
        count[k, budget] exactly when the factors before k are empty, so each
        round finds every row's next occupied factor by a search in its
        budget's column; its occupation is the largest n whose offset fits.
        """
        rows, rest = np.arange(len(idx)), np.array(idx, dtype=np.int64)
        budget = np.full(len(idx), self._cap)
        ascending = self._count[::-1].T  # count[k, b] from the last k up
        levels = np.arange(1, self._offset.shape[2])
        found = []
        while len(rows):
            k = np.empty_like(rows)
            for b in range(self._cap + 1):
                at = budget == b
                k[at] = self.n_factors - np.searchsorted(ascending[b], rest[at], "right")
            more = k < self.n_factors
            rows, rest, budget, k = rows[more], rest[more], budget[more], k[more]
            offsets = self._offset[k[:, None], budget[:, None], levels]
            n = (offsets <= rest[:, None]).sum(axis=1)
            rest -= self._offset[k, budget, n]
            budget -= n
            found.append((rows, k, n))
        rows, k, n = map(np.concatenate, zip(*found))
        order = np.argsort(rows, kind="stable")
        return rows[order], k[order], n[order]

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
        r, c = np.nonzero(local)
        dn = (r - c)[:, None]
        # one term per nonzero (r, c) and state holding c quanta on the factor
        on_c = self.excitations([factor]) == c[:, None]
        e, s = np.nonzero(on_c & (self.excitations() + dn <= self._cap))
        rows = self._rank_moved(s, factor, dn[e])
        return sp.csr_matrix((local[r[e], c[e]], (rows, s)), shape=(self.dim, self.dim))

    def one_body(self, h) -> sp.csr_matrix:
        """Lift sum_ij h[i, j] a_i+ a_j over the modes (h is n_modes x n_modes).

        Equal to sum_ij h[i, j] embed(a+, i) @ embed(a, j) with the truncated
        ladder operators: a hop into a mode at n_max is dropped, and as the
        excitation number is conserved the cap drops nothing.
        """
        h = sp.csc_matrix(h)
        if h.shape != (self.n_modes, self.n_modes):
            raise DimensionMismatchError(
                f"{self.n_modes} modes, one-body matrix is {h.shape}"
            )
        h.sort_indices()
        # one term per state s, occupied mode j and entry h[i, j] of column j
        on_mode = self._factor > 0
        s, j, n_j = self._state[on_mode], self._factor[on_mode] - 1, self._quanta[on_mode]
        count = np.diff(h.indptr)[j]
        at = _ranges(h.indptr[j], count)
        s, j, n_j = np.repeat(s, count), np.repeat(j, count), np.repeat(n_j, count)
        i, val = h.indices[at], h.data[at]
        # the quanta of s on mode i, found among its entries
        key = self.n_factors * self._state + self._factor
        e = np.minimum(np.searchsorted(key, self.n_factors * s + 1 + i), len(key) - 1)
        n_i = np.where(key[e] == self.n_factors * s + 1 + i, self._quanta[e], 0)
        hop_in = (i != j).astype(np.int64)  # 0 where a_i+ a_i counts photons
        room = n_i + hop_in <= self.n_max
        s, i, j, n_i, n_j, val, hop_in = (x[room] for x in (s, i, j, n_i, n_j, val, hop_in))
        # the states reached: one quantum more on factor 1 + i, one fewer on 1 + j
        rows = self._rank_moved(s, np.stack([1 + i, 1 + j], 1), np.stack([hop_in, -hop_in], 1))
        amp = val * np.sqrt(n_j * (n_i + hop_in))
        out = sp.csr_matrix((amp, (rows, s)), shape=(self.dim, self.dim), dtype=complex)
        out.eliminate_zeros()  # diagonal terms of several modes may cancel
        return out

    def lowering(self, weights) -> sp.csr_matrix:
        """Lift sum_nu weights[nu] a_nu over the modes (one weight per mode).

        Equal to sum_nu weights[nu] a_nu with the truncated annihilators: a
        lowering never leaves the kept space, so each occupied mode of nonzero
        weight gives one entry per state, sqrt(n) weights[nu] into the state
        with one quantum fewer.
        """
        weights = np.asarray(weights)
        if weights.shape != (self.n_modes,):
            raise DimensionMismatchError(
                f"{self.n_modes} modes, {weights.shape} lowering weights"
            )
        live = np.isin(self._factor, 1 + np.flatnonzero(weights))
        s, k = self._state[live], self._factor[live]
        rows = self._rank_moved(s, k[:, None], -1)
        amp = weights[k - 1] * np.sqrt(self._quanta[live])
        return sp.csr_matrix((amp, (rows, s)), shape=(self.dim, self.dim), dtype=complex)

    def emitter_hamiltonian(self, h, g) -> sp.csr_matrix:
        """one_body(h) + G+ sigma- + h.c. with G = lowering(g).

        The emitter is the qubit, at zero energy: the frame rotates at its
        frequency.  Model and chain both take their Hamiltonian from here.
        """
        couple = self.lowering(g).conj().T @ self.embed(sigma_minus(), 0)
        couple.sort_indices()  # canonical, so that the sums below stay canonical
        return self.one_body(h) + couple + couple.conj().T

    def boundary_projector(self) -> np.ndarray:
        """Diagonal of the projector onto truncation-boundary states.

        A state is on the boundary if any mode sits in its top Fock level or,
        on a capped space, if the total excitation number equals the cap.
        Population here measures truncation leakage.
        """
        at_top = np.zeros(self.dim, dtype=bool)
        at_top[self._state[(self._factor > 0) & (self._quanta >= self.n_max)]] = True
        at_cap = np.zeros(self.dim, dtype=bool)
        if self.max_excitations is not None and self.max_excitations > 0:
            at_cap = self.excitations() >= self.max_excitations
        return (at_top | at_cap).astype(float)

    def ptrace_qubit(self, rho: np.ndarray) -> np.ndarray:
        """Reduced 2x2 qubit state."""
        atom = self.excitations([0])
        excited = np.flatnonzero(atom)
        ground = self._rank_moved(excited, 0, np.full((len(excited), 1), -1))
        pop = np.diagonal(rho)
        out = np.empty((2, 2), dtype=complex)
        out[0] = pop[atom == 0].sum(), rho[ground, excited].sum()
        out[1] = rho[excited, ground].sum(), pop[excited].sum()
        return out


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The aranges starts[t] .. starts[t] + counts[t], concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


def _rank_offsets(factor_dims: tuple, cap: int):
    """(offset, count): the tables that rank the kept states lexicographically.

    count[k, b] counts the completions of factors k, k+1, ... with at most b
    quanta.  offset[k, b, n] counts the kept states below occupation n of
    factor k, budget b: choosing n skips the completions of every smaller
    choice v < n, those with at most b - v quanta on the later factors.  An
    impossible occupation (n > b, or n past the factor's dimension) holds
    int64's maximum.  Counts saturate just above the entry cap, so an
    oversized space is refused instead of overflowing int64.
    """
    k_max = len(factor_dims)
    if k_max * (cap + 1) * max(factor_dims) > _MAX_TABLE_ENTRIES:
        raise SectorSizeError("the rank-offset table would exceed its entry cap")
    count = np.ones((k_max + 1, cap + 1), dtype=np.int64)  # row k_max: no factors
    offset = np.full((k_max, cap + 1, max(factor_dims)), np.iinfo(np.int64).max)
    offset[:, :, 0] = 0
    budgets = np.arange(cap + 1)
    for k in range(k_max - 1, -1, -1):
        for n in range(1, factor_dims[k]):
            offset[k, n:, n] = offset[k, n:, n - 1] + count[k + 1, 1 : cap + 2 - n]
        top = np.minimum(budgets, factor_dims[k] - 1)
        count[k] = np.minimum(
            offset[k, budgets, top] + count[k + 1, budgets - top],
            _MAX_TABLE_ENTRIES + 1,
        )
    return offset, count


def as_csr(op) -> sp.csr_matrix:
    """CSR form of a sparse or array-like operator."""
    if sp.issparse(op):
        return op.tocsr().astype(complex, copy=False)
    return sp.csr_matrix(np.asarray(op, dtype=complex))


def csr_dot(A: sp.csr_matrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A x for a CSR matrix A and a dense vector or dim x B block x.

    Calls the kernel ``A @ x`` ends in (``csr_matvec`` for a vector or one
    column, ``csr_matvecs`` for a block) without the dispatch ``@`` goes
    through on every call.  Without ``out`` the product is written into fresh
    zeros, so it is bitwise ``A @ x``; with ``out`` it is added into ``out``,
    row by row (out_i + A_i1 x_1 + A_i2 x_2 + ...), and ``out`` is returned.
    ``out`` must be C-contiguous complex128 of the product's shape: the
    kernel writes through a flat view, which any other layout would make a
    copy.  ``_sparsetools`` is private to scipy and its signatures are no
    public contract; they were checked against scipy 1.17.1, and a scipy
    upgrade should re-run ``test_csr_dot_is_bitwise_the_sparse_product``.
    """
    M, N = A.shape
    shape = (M,) + x.shape[1:]
    if A.format != "csr" or x.ndim not in (1, 2) or x.shape[0] != N:
        raise ValueError(f"csr_dot takes a CSR matrix and {N} rows, not {A.format} and {x.shape}")
    if out is None:
        dtype = x.dtype if x.dtype == A.dtype else np.promote_types(A.dtype, x.dtype)
        out = np.zeros(shape, dtype=dtype)
    elif out.shape != shape or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous complex128 array of shape {shape}")
    if x.ndim == 1:
        _sparsetools.csr_matvec(M, N, A.indptr, A.indices, A.data, x, out)
    elif x.shape[1] == 1:
        _sparsetools.csr_matvec(M, N, A.indptr, A.indices, A.data, x.ravel(), out.ravel())
    else:
        _sparsetools.csr_matvecs(
            M, N, x.shape[1], A.indptr, A.indices, A.data, x.ravel(), out.ravel()
        )
    return out


def sigma_minus() -> np.ndarray:
    return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def sigma_plus() -> np.ndarray:
    return sigma_minus().conj().T


def sigma_x() -> np.ndarray:
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

