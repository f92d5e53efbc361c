"""Labeled tensor-product spaces (qubit x truncated bosonic modes).

A :class:`CompositeSpace` enumerates occupation tuples ``(s, n_1, ..., n_M)``
with the qubit first and the modes in ascending-nu order.  An optional cap on
the total excitation number keeps single- and few-excitation problems at
their natural dimension instead of the full Fock product.  The basis is
unranked from a completion-count table, which also gives its dimension before
anything is allocated, and operators on the space are lifted straight into CSR
through the ranks of the occupations they reach.  ``csr_dot`` applies such an
operator to a dense vector or block on scipy's own kernel, without the
per-call dispatch of ``@``; every hot sparse product in the package uses it.
"""

from __future__ import annotations


import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools


class DimensionMismatchError(ValueError):
    """Local operator dimension does not match the targeted factor."""


class SectorSizeError(ValueError):
    """The space's tables would exceed the entry cap."""


# Entries above which a space's occupation table (states x factors) or its
# rank-offset table is refused, before either is allocated.
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
        if self.dim * self.n_factors > _MAX_TABLE_ENTRIES:
            raise SectorSizeError(
                f"at least {self.dim} states of {self.n_factors} factors: the "
                f"occupation table would exceed its cap of {_MAX_TABLE_ENTRIES} entries"
            )
        # the kept occupations in lexicographic order, read off their ranks
        self._occ = self._unrank(np.arange(self.dim))

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
        v[self._rank(occ[None])] = 1.0
        return v

    def vacuum(self, excited: bool = False) -> np.ndarray:
        occ = (1 if excited else 0,) + (0,) * self.n_modes
        return self.basis_state(occ)

    def excitations(self, factors=None) -> np.ndarray:
        """Quanta each basis state holds on ``factors`` (indices; all by default)."""
        occ = self._occ if factors is None else self._occ[:, factors]
        return occ.sum(axis=1)

    def _rank(self, occ: np.ndarray) -> np.ndarray:
        """Basis indices of kept occupation rows ``occ`` (shape (m, n_factors))."""
        rows, k = np.nonzero(occ)  # row by row, factors in order
        return self._rank_entries(len(occ), rows, k, occ[rows, k])

    def _rank_entries(self, m: int, rows, k, n) -> np.ndarray:
        """Basis indices of m kept occupations from their occupied entries.

        Entry e puts n[e] quanta on factor k[e] of row rows[e], row by row with
        the factors in order; it adds the count of kept states that agree on
        the earlier factors and hold fewer quanta here (an empty factor adds 0).
        """
        spent = np.cumsum(n) - n
        spent -= spent[np.searchsorted(rows, rows)]  # on earlier factors of the row
        rank = np.zeros(m, dtype=np.int64)
        np.add.at(rank, rows, self._offset[k, self._cap - spent, n])
        return rank

    def _unrank(self, idx: np.ndarray) -> np.ndarray:
        """Occupation rows of the basis indices ``idx``; inverse of ``_rank``.

        What is left of an index is below count[k, budget] exactly when the
        factors before k are empty, so each round finds every row's next
        occupied factor; its occupation is the largest n whose offset fits.
        """
        occ = np.zeros((len(idx), self.n_factors), dtype=np.int64)
        rows, rest = np.arange(len(idx)), np.array(idx, dtype=np.int64)
        budget = np.full(len(idx), self._cap)
        levels = np.arange(1, self._offset.shape[2])
        while len(rows):
            k = (self._count[:, budget] > rest).sum(axis=0) - 1
            more = k < self.n_factors
            rows, rest, budget, k = rows[more], rest[more], budget[more], k[more]
            offsets = self._offset[k[:, None], budget[:, None], levels]
            n = (offsets <= rest[:, None]).sum(axis=1)
            rest -= self._offset[k, budget, n]
            budget -= n
            occ[rows, k] = n
        return occ

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
        n = self._occ[:, 1:]
        occ_row, occ_k = np.nonzero(self._occ)  # row by row, factors in order
        # one term per state s, occupied mode j and entry h[i, j] of column j
        on_mode = occ_k > 0
        s, j = occ_row[on_mode], occ_k[on_mode] - 1
        count = np.diff(h.indptr)[j]
        at = _ranges(h.indptr[j], count)
        s, j, i, val = np.repeat(s, count), np.repeat(j, count), h.indices[at], h.data[at]
        hop_in = (i != j).astype(np.int64)  # 0 where a_i+ a_i counts photons
        room = n[s, i] + hop_in <= self.n_max
        s, i, j, val, hop_in = s[room], i[room], j[room], val[room], hop_in[room]
        # the occupations reached: term t's entries of occ[s], plus one quantum
        # on factor 1 + i and minus one on 1 + j, merged per (t, factor)
        first = np.searchsorted(occ_row, s)
        held = np.searchsorted(occ_row, s, side="right") - first
        src = _ranges(first, held)
        t = np.arange(len(s))
        term = np.concatenate([np.repeat(t, held), t, t])
        key = self.n_factors * term + np.concatenate([occ_k[src], 1 + i, 1 + j])
        dn = np.concatenate([self._occ[occ_row[src], occ_k[src]], hop_in, -hop_in])
        order = np.argsort(key, kind="stable")
        key, dn = key[order], dn[order]
        start = np.flatnonzero(np.diff(key, prepend=-1))
        key, dn = key[start], np.add.reduceat(dn, start)
        key, dn = key[dn != 0], dn[dn != 0]
        rows = self._rank_entries(len(s), key // self.n_factors, key % self.n_factors, dn)
        amp = val * np.sqrt(n[s, j] * (n[s, i] + hop_in))
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
        (live,) = np.nonzero(weights)
        n = self._occ[:, 1 + live]
        s, j = np.nonzero(n)
        target = self._occ[s]
        target[np.arange(len(s)), 1 + live[j]] -= 1
        amp = weights[live[j]] * np.sqrt(n[s, j])
        return sp.csr_matrix(
            (amp, (self._rank(target), s)), shape=(self.dim, self.dim), dtype=complex
        )

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
        if self.n_modes > 0 and self.n_max > 0:
            at_top = self._occ[:, 1:].max(axis=1) >= self.n_max
        at_cap = np.zeros(self.dim, dtype=bool)
        if self.max_excitations is not None and self.max_excitations > 0:
            at_cap = self.excitations() >= self.max_excitations
        return (at_top | at_cap).astype(float)

    def ptrace_qubit(self, rho: np.ndarray) -> np.ndarray:
        """Reduced 2x2 qubit state."""
        atom = self._occ[:, 0]
        excited = np.flatnonzero(atom)
        ground = self._rank(self._occ[excited] - (np.arange(self.n_factors) == 0))
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

