import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icolab.linalg import (
    H,
    I2,
    MAX_DIM,
    PLUS,
    SpaceLayout,
    X,
    Y,
    Z,
    dagger,
    eig_hermitian,
    frobenius,
    is_hermitian,
    is_psd,
    is_unitary,
    ket,
    partial_trace,
    permute_factors,
    permute_vector_factors,
    projector,
    tensor,
)


def test_pauli_algebra():
    assert np.allclose(X @ X, I2)
    assert np.allclose(X @ Y - Y @ X, 2j * Z)
    assert np.allclose(H @ H, I2)
    assert np.allclose(H @ ket(0), PLUS)
    for u in (X, Y, Z, H):
        assert is_unitary(u)
        assert is_hermitian(u)


def test_tensor_matches_kron():
    # the same entrywise products as np.kron, so the results are bit-identical
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(tensor(a, b), np.kron(a, b))
    c = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    d = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
    assert np.array_equal(tensor(a, c, d), np.kron(np.kron(a, c), d))
    assert tensor(c, d).shape == (6, 3)
    assert np.array_equal(tensor(c, d), np.kron(c, d))
    v = rng.normal(size=4)
    w = rng.normal(size=2)
    assert tensor(v, w).shape == (8,)
    assert np.array_equal(tensor(v, w), np.kron(v, w))
    # a vector next to a matrix is a column
    assert tensor(w, a).shape == (4, 2)
    assert np.array_equal(tensor(w, a), np.kron(w.reshape(2, 1), a))


def test_tensor_capacity_guard():
    big = np.eye(MAX_DIM)
    with pytest.raises(ValueError):
        tensor(big, np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tensor_rejects_non_finite_operands(bad):
    # one check on the product: a non-finite entry stays non-finite in it,
    # next to zeros too (0 * inf is nan), as does a product that overflows;
    # numpy warns of none of it
    m = np.eye(2, dtype=np.complex128)
    m[0, 1] = bad
    huge = np.array([[1e200]])
    for operands in (
        (m, np.eye(2)), (np.zeros((2, 2)), m), (ket(0), np.array([bad, 0.0])), (m,), (huge, huge)
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                tensor(*operands)
    with pytest.raises(ValueError):
        tensor(np.ones((2, 2, 2)), np.eye(2))


def test_eigen_checks_reject_non_finite_and_non_hermitian_input():
    for fn in (eig_hermitian, lambda m: is_psd(m, 1e-12)):
        with pytest.raises(ValueError, match="non-finite"):
            fn(np.diag([1.0, np.nan]))
        with pytest.raises(ValueError, match="Hermitian"):
            fn(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_layout_indexing():
    lay = SpaceLayout(("a", "b", "c"), (2, 3, 4))
    assert lay.dim == 24
    assert lay.index("b") == 1
    assert lay.dim_of("c") == 4
    with pytest.raises(ValueError):
        SpaceLayout(("a", "a"), (2, 2))


def test_partial_trace_product_state():
    lay = SpaceLayout(("p", "q"), (2, 3))
    rho_p = projector(ket(0))
    rho_q = np.eye(3) / 3
    rho = tensor(rho_p, rho_q)
    assert np.allclose(partial_trace(rho, lay, ("p",)), rho_p)
    assert np.allclose(partial_trace(rho, lay, ("q",)), rho_q)


def test_partial_trace_entangled():
    # Bell pair: either marginal is maximally mixed
    bell = (tensor(ket(0), ket(0)) + tensor(ket(1), ket(1))) / np.sqrt(2)
    lay = SpaceLayout(("l", "r"), (2, 2))
    assert np.allclose(partial_trace(projector(bell), lay, ("l",)), I2 / 2)


def test_permute_factors_roundtrip():
    rng = np.random.default_rng(1)
    lay = SpaceLayout(("a", "b", "c"), (2, 2, 3))
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    out, new_lay = permute_factors(m, lay, ("c", "a", "b"))
    assert new_lay.labels == ("c", "a", "b")
    back, lay2 = permute_factors(out, new_lay, ("a", "b", "c"))
    assert lay2.dims == lay.dims
    assert np.allclose(back, m)


def test_permute_factors_on_product():
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 4.0, 5.0])
    lay = SpaceLayout(("a", "b"), (2, 3))
    out, _ = permute_factors(tensor(a, b), lay, ("b", "a"))
    assert np.allclose(out, tensor(b, a))


def test_permute_vector_factors():
    v = tensor(ket(0), ket(1), np.array([1.0, 2.0, 3.0]))
    lay = SpaceLayout(("x", "y", "z"), (2, 2, 3))
    out, _ = permute_vector_factors(v, lay, ("z", "x", "y"))
    assert np.allclose(out, tensor(np.array([1.0, 2.0, 3.0]), ket(0), ket(1)))


def test_eig_hermitian_descending_and_guard():
    vals, vecs = eig_hermitian(np.diag([1.0, 3.0, 2.0]))
    assert np.allclose(vals, [3.0, 2.0, 1.0])
    assert np.allclose(vecs @ np.diag(vals) @ dagger(vecs), np.diag([1.0, 3.0, 2.0]))
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_psd():
    assert is_psd(np.diag([0.0, 1.0]), 1e-12)
    assert not is_psd(np.diag([-0.1, 1.0]), 1e-12)


def test_frobenius():
    assert frobenius(np.array([[3.0, 0.0], [0.0, 4.0]])) == pytest.approx(5.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 2, 2)]))
def test_partial_trace_preserves_trace(seed, dims):
    rng = np.random.default_rng(seed)
    n = int(np.prod(dims))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    lay = SpaceLayout(tuple(f"s{i}" for i in range(len(dims))), dims)
    for i in range(len(dims)):
        red = partial_trace(rho, lay, (f"s{i}",))
        assert abs(np.trace(red) - 1.0) < 1e-10
        assert is_hermitian(red)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_partial_trace_consistent_with_kron_sum(seed):
    # tr_2 (A (x) B) = tr(B) A, checked on random matrices
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lay = SpaceLayout(("u", "v"), (2, 3))
    assert np.allclose(partial_trace(tensor(a, b), lay, ("u",)), np.trace(b) * a)
