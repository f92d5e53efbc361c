"""Composite Hilbert space: basis enumeration, embedding, projectors."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorqed.hilbert import (
    CompositeSpace,
    DimensionMismatchError,
    SectorSizeError,
    csr_dot,
    sigma_minus,
    sigma_plus,
    sigma_x,
)


def destroy(dim):
    """Truncated annihilation operator; [a, a+] = 1 except in the top level."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)


def number_op(dim):
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def _kept(space):
    """Reference basis: the factor product in lexicographic order, cut at the cap."""
    cap = space.max_excitations
    return [
        occ
        for occ in itertools.product(*(range(d) for d in space.factor_dims))
        if cap is None or sum(occ) <= cap
    ]


def _index(space, occ) -> int:
    """Basis index of the occupation tuple ``occ``."""
    (i,) = np.flatnonzero(space.basis_state(occ))
    return int(i)


def test_uncapped_dimension_is_full_product():
    sp = CompositeSpace(n_modes=3, n_max=2)
    assert sp.dim == 2 * 3**3
    assert sp.factor_dims == (2, 3, 3, 3)


@given(
    n_modes=st.integers(0, 4),
    n_max=st.integers(0, 3),
    cap=st.integers(0, 5),
)
@settings(max_examples=40, deadline=None)
def test_capped_basis_equals_filtered_product(n_modes, n_max, cap):
    sp = CompositeSpace(n_modes, n_max, max_excitations=cap)
    dims = (2,) + (n_max + 1,) * n_modes
    expected = [
        occ
        for occ in itertools.product(*(range(d) for d in dims))
        if sum(occ) <= cap
    ]
    assert sp.dim == len(expected)
    # the kept occupations rank as 0, 1, 2, ... in lexicographic order
    assert [_index(sp, occ) for occ in expected] == list(range(sp.dim))
    # and each basis state's occupations read back, factor by factor
    table = np.array(expected, dtype=int).reshape(sp.dim, sp.n_factors)
    for k in range(sp.n_factors):
        assert np.array_equal(sp.excitations([k]), table[:, k])
    assert np.array_equal(sp.excitations(), table.sum(axis=1))
    modes = range(1, sp.n_factors)
    assert np.array_equal(sp.excitations(modes), table[:, 1:].sum(axis=1))


def test_capped_space_scales_to_many_modes():
    # the full product would have 2 * 4^41 states
    sp = CompositeSpace(n_modes=41, n_max=3, max_excitations=2)
    # sums 0, 1, 2: vacuum; 42 single excitations; qubit+mode, mode pairs,
    # doubly occupied modes
    assert sp.dim == 1 + 42 + (41 + 41 * 40 // 2 + 41)
    assert max(sp.excitations()) == 2


def test_ladder_operators():
    a = destroy(4)
    n = number_op(4)
    assert np.allclose(a.conj().T @ a, n)
    assert np.allclose(a @ a.conj().T - n, np.diag([1, 1, 1, -3]))
    assert np.allclose(sigma_plus(), sigma_minus().conj().T)
    assert np.allclose(sigma_x(), sigma_minus() + sigma_plus())


def test_embed_matches_kron_on_uncapped_space():
    sp = CompositeSpace(n_modes=2, n_max=2)
    a = destroy(3)
    built = sp.embed(a, factor=2)
    ref = np.kron(np.kron(np.eye(2), np.eye(3)), a)
    assert np.allclose(built.toarray(), ref)
    built_q = sp.embed(sigma_minus(), factor=0)
    ref_q = np.kron(sigma_minus(), np.eye(9))
    assert np.allclose(built_q.toarray(), ref_q)


def test_embed_on_capped_space_is_projected_kron():
    sp_full = CompositeSpace(n_modes=2, n_max=2)
    sp_cap = CompositeSpace(n_modes=2, n_max=2, max_excitations=2)
    P = np.zeros((sp_cap.dim, sp_full.dim))
    for i, occ in enumerate(_kept(sp_cap)):
        P[i, _index(sp_full, occ)] = 1.0
    a = destroy(3)
    assert np.allclose(sp_cap.embed(a, 1).toarray(), P @ sp_full.embed(a, 1) @ P.T)


def _projected_kron(space, local, factor):
    """Reference embedding: full Kronecker product compressed to the kept basis."""
    full = np.ones((1, 1))
    for k, d in enumerate(space.factor_dims):
        full = np.kron(full, local if k == factor else np.eye(d))
    radix = np.cumprod((1,) + space.factor_dims[:0:-1])[::-1]
    kept = np.array([np.dot(occ, radix) for occ in _kept(space)], dtype=int)
    return full[np.ix_(kept, kept)]


@given(
    n_modes=st.integers(0, 4),
    n_max=st.integers(0, 3),
    cap=st.none() | st.integers(0, 5),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_embed_equals_projected_kron(n_modes, n_max, cap, data):
    space = CompositeSpace(n_modes, n_max, max_excitations=cap)
    factor = data.draw(st.integers(0, space.n_factors - 1))
    d = space.factor_dims[factor]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    local = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * (
        rng.random((d, d)) < 0.6
    )
    built = space.embed(local, factor)
    assert isinstance(built, scipy.sparse.csr_matrix)
    assert np.all(built.data != 0)
    assert np.allclose(built.toarray(), _projected_kron(space, local, factor))


def test_embed_on_many_mode_capped_space_stays_in_range():
    # 4^41 exceeds int64: a mixed-radix key of the occupations would overflow
    space = CompositeSpace(n_modes=41, n_max=3, max_excitations=2)
    a = destroy(4)
    ad = space.embed(a.T, 41)  # mode 40 is factor 41
    assert isinstance(ad, scipy.sparse.csr_matrix)
    assert ad.indices.max() < space.dim
    assert np.all(ad.data != 0)
    # every kept state with room below the cap gains one photon in the last mode
    for occ in ((0,) * 42, (1,) + (0,) * 41, (0, 1) + (0,) * 40):
        target = occ[:-1] + (occ[-1] + 1,)
        col = ad[:, _index(space, occ)].toarray().ravel()
        assert np.flatnonzero(col).tolist() == [_index(space, target)]
        assert col[_index(space, target)] == pytest.approx(1.0)
    assert ad[:, _index(space, (1, 1) + (0,) * 40)].nnz == 0  # already at the cap


def test_embed_rejects_wrong_local_dimension():
    sp = CompositeSpace(n_modes=1, n_max=2)
    with pytest.raises(DimensionMismatchError):
        sp.embed(np.eye(5), factor=1)


def test_vacuum_and_basis_state():
    sp = CompositeSpace(n_modes=2, n_max=1, max_excitations=1)
    v = sp.vacuum()
    assert np.flatnonzero(v).tolist() == [_kept(sp).index((0, 0, 0))]
    e = sp.vacuum(excited=True)
    assert np.flatnonzero(e).tolist() == [_kept(sp).index((1, 0, 0))]
    assert np.vdot(v, e) == 0.0


def test_boundary_projector_flags_cap_and_top_fock():
    sp = CompositeSpace(n_modes=2, n_max=2, max_excitations=2)
    diag = sp.boundary_projector()
    assert diag.shape == (sp.dim,)
    for i, occ in enumerate(_kept(sp)):
        expect = 1.0 if (max(occ[1:]) >= 2 or sum(occ) >= 2) else 0.0
        assert diag[i] == expect


def test_ptrace_qubit():
    sp = CompositeSpace(n_modes=1, n_max=1)
    # entangled |1,0> + |0,1> has a maximally mixed qubit marginal
    psi = (sp.basis_state((1, 0)) + sp.basis_state((0, 1))) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    red = sp.ptrace_qubit(rho)
    assert np.allclose(red, 0.5 * np.eye(2))
    # product state keeps qubit coherence
    q = np.array([1.0, 1.0]) / np.sqrt(2)
    psi2 = np.kron(q, [1.0, 0.0])
    red2 = sp.ptrace_qubit(np.outer(psi2, psi2.conj()))
    assert np.allclose(red2, 0.5 * np.ones((2, 2)))


def test_ptrace_qubit_on_capped_space_matches_loop():
    space = CompositeSpace(n_modes=2, n_max=2, max_excitations=2)
    rng = np.random.default_rng(4)
    shape = (space.dim, space.dim)
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = m @ m.conj().T
    ref = np.zeros((2, 2), dtype=complex)
    kept = _kept(space)
    for i, occ in enumerate(kept):
        for j, other in enumerate(kept):
            if occ[1:] == other[1:]:
                ref[occ[0], other[0]] += rho[i, j]
    assert np.allclose(space.ptrace_qubit(rho), ref, rtol=1e-13, atol=0)


def test_basis_state_rejects_states_outside_the_space():
    space = CompositeSpace(n_modes=2, n_max=2, max_excitations=2)
    for occ in ((1, 1, 1), (0, 3, 0), (2, 0, 0), (0, -1, 0), (0, 0)):
        with pytest.raises(ValueError):
            space.basis_state(occ)


@given(
    n_modes=st.integers(1, 4),
    n_max=st.integers(0, 3),
    cap=st.none() | st.integers(0, 5),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_one_body_equals_sum_of_ladder_products(n_modes, n_max, cap, data):
    space = CompositeSpace(n_modes, n_max, max_excitations=cap)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (n_modes, n_modes)
    # a random sparsity pattern; the diagonal is always drawn in
    h = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (
        (rng.random(shape) < 0.6) | np.eye(n_modes, dtype=bool)
    )
    a = destroy(n_max + 1)
    ref = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(n_modes):
        for j in range(n_modes):
            ad_i = space.embed(a.conj().T, 1 + i)
            ref += h[i, j] * (ad_i @ space.embed(a, 1 + j)).toarray()
    built = space.one_body(h)
    assert isinstance(built, scipy.sparse.csr_matrix)
    assert np.all(built.data != 0)
    assert np.allclose(built.toarray(), ref, rtol=1e-13, atol=1e-13)


def test_one_body_drops_hops_into_a_full_mode():
    # n_max = 1 and no cap: |0, 1, 1> has nowhere to hop
    space = CompositeSpace(n_modes=2, n_max=1)
    hop = space.one_body(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert hop[:, _index(space, (0, 1, 1))].nnz == 0
    col = hop[:, _index(space, (0, 1, 0))].toarray().ravel()
    assert np.flatnonzero(col).tolist() == [_index(space, (0, 0, 1))]


def test_one_body_rejects_wrong_shape():
    with pytest.raises(DimensionMismatchError):
        CompositeSpace(n_modes=3, n_max=1).one_body(np.eye(2))


@given(
    n_modes=st.integers(0, 4),
    n_max=st.integers(0, 3),
    cap=st.none() | st.integers(0, 5),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_lowering_equals_weighted_sum_of_embeds(n_modes, n_max, cap, data):
    space = CompositeSpace(n_modes, n_max, max_excitations=cap)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # some weights exactly zero, some complex
    w = (rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)) * (
        rng.random(n_modes) < 0.7
    )
    a = destroy(n_max + 1)
    ref = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(n_modes):
        ref += w[i] * space.embed(a, 1 + i).toarray()
    built = space.lowering(w)
    assert isinstance(built, scipy.sparse.csr_matrix)
    assert np.all(built.data != 0)
    assert np.array_equal(built.toarray(), ref)


def test_lowering_rejects_wrong_weight_count():
    with pytest.raises(DimensionMismatchError):
        CompositeSpace(n_modes=3, n_max=1).lowering(np.ones(2))


@given(
    n_modes=st.integers(1, 4),
    n_max=st.integers(0, 3),
    cap=st.none() | st.integers(0, 5),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_emitter_hamiltonian_equals_sum_of_embeds(n_modes, n_max, cap, data):
    space = CompositeSpace(n_modes, n_max, max_excitations=cap)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    h = h + h.conj().T
    # some couplings exactly zero, as on every chain site but n0
    g = rng.normal(size=n_modes) * (rng.random(n_modes) < 0.7)
    a = destroy(n_max + 1)
    sm = space.embed(sigma_minus(), 0).toarray()
    ref = space.one_body(h).toarray()
    for i in range(n_modes):
        couple = g[i] * space.embed(a.T, 1 + i).toarray() @ sm
        ref += couple + couple.conj().T
    built = space.emitter_hamiltonian(h, g)
    assert isinstance(built, scipy.sparse.csr_matrix)
    assert np.all(built.data != 0)
    assert np.allclose(built.toarray(), ref, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize(
    "n_modes, n_max, cap",
    [
        (5000, 2, 2),  # 12.5 million states, up to two entries each
        (3778, 2, 2),  # the smallest refused two-excitation chain: 7146089 states
        (5000, 3, None),  # the rank-offset table alone is too large
        (41, 3, None),  # 2 * 4^41 states: the count exceeds int64
    ],
)
def test_oversized_space_is_refused_before_allocating(n_modes, n_max, cap):
    tracemalloc.start()
    try:
        with pytest.raises(SectorSizeError):
            CompositeSpace(n_modes, n_max, max_excitations=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_two_excitation_chain_space_holds_only_occupied_entries():
    # the chain's N = 324 two-excitation sector: 53300 states on 325 factors,
    # none occupying more than two; a dense occupation table would hold 138 MB
    tracemalloc.start()
    try:
        space = CompositeSpace(324, 2, 2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dim == 53300
    assert held < 10e6
    assert peak < 20e6


def _random_csr(rng, d, index_dtype):
    A = scipy.sparse.random(d, d, density=0.2, random_state=rng, format="csr") * (1 - 0.7j)
    A.indptr, A.indices = A.indptr.astype(index_dtype), A.indices.astype(index_dtype)
    return A


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_csr_dot_is_bitwise_the_sparse_product(index_dtype):
    # scipy's own kernels into fresh zeros: vectors, one column, C blocks,
    # strided columns and the Fortran-ordered (op rho)+ of Liouvillian.apply
    rng = np.random.default_rng(1)
    d = 40
    A = _random_csr(rng, d, index_dtype)
    assert A.indices.dtype == index_dtype
    psi = rng.normal(size=(d, 5)) + 1j * rng.normal(size=(d, 5))
    rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    operands = {
        "vector": psi[:, 0].copy(),
        "one column": psi[:, :1].copy(),
        "C block": psi,
        "strided column": psi[:, 2],
        "Fortran block": (A @ rho).conj().T,
        "real vector": rng.normal(size=d),
    }
    assert operands["Fortran block"].flags.f_contiguous
    for name, x in operands.items():
        ref = A @ x
        out = csr_dot(A, x)
        assert out.shape == ref.shape and out.dtype == ref.dtype, name
        assert out.tobytes() == ref.tobytes(), name


def test_csr_dot_adds_into_out_row_by_row():
    rng = np.random.default_rng(2)
    d = 30
    A = _random_csr(rng, d, np.int32)
    for x in (rng.normal(size=d) + 1j, rng.normal(size=(d, 3)) + 1j, rng.normal(size=(d, 1)) + 1j):
        y0 = rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)
        y = y0.copy()
        assert csr_dot(A, x, out=y) is y
        ref = y0 + A @ x
        np.testing.assert_allclose(y, ref, rtol=0, atol=1e-14 * np.abs(ref).max())


def test_csr_dot_refuses_an_out_it_would_copy():
    # a non-contiguous or non-complex out would take the product in a copy
    # and lose it; a wrong shape, format or operand length is refused too
    rng = np.random.default_rng(3)
    d = 20
    A = _random_csr(rng, d, np.int32)
    x = rng.normal(size=(d, 2)) + 0j
    wide = np.zeros((d, 4), dtype=complex)
    for out in (wide[:, ::2], np.zeros((2, d), dtype=complex).T, np.zeros((d, 2)),
                np.zeros((d, 3), dtype=complex)):
        with pytest.raises(ValueError, match="out must be"):
            csr_dot(A, x, out=out)
    assert not wide.any()
    with pytest.raises(ValueError):
        csr_dot(A.tocsc(), x)
    with pytest.raises(ValueError):
        csr_dot(A, x[:-1])
