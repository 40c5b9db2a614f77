import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorcalc import _kernels as K

EPS = np.finfo(float).eps


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def test_active_path_is_bit_reproducible(rng):
    coeffs = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    vals = rng.standard_normal((2000, 2, 2)) + 1j * rng.standard_normal((2000, 2, 2))
    a = K.reduce_weighted(coeffs, vals)
    b = K.reduce_weighted(coeffs.copy(), vals.copy())
    assert np.all(a == b)


def test_weighted_reduction_shapes(rng):
    # (N,) or (rows, N) coefficients against (N,) or (N, d, d) values
    vals = rng.standard_normal((30, 2, 2)) + 1j * rng.standard_normal((30, 2, 2))
    coeffs = rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30))
    block = K.reduce_weighted(coeffs, vals)
    assert block.shape == (4, 2, 2)
    assert np.allclose(block, np.einsum("rn,nij->rij", coeffs, vals), rtol=1e-14, atol=0)
    scalar = K.reduce_weighted(coeffs[0], vals[:, 0, 0])
    assert np.ndim(scalar) == 0
    assert abs(scalar - np.sum(coeffs[0] * vals[:, 0, 0])) <= 1e-13


def test_resolvent_stack_matches_direct_inverse(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    nodes = 10.0 + rng.standard_normal(20) + 1j * rng.standard_normal(20)
    q, t = K.schur(a)
    stack = q @ K.resolvent_stack(t, 0.5 + 0.1j, nodes) @ q.conj().T
    for i, z in enumerate(nodes):
        direct = np.linalg.inv((0.5 + 0.1j) * a + z * np.eye(4))
        assert np.linalg.norm(stack[i] - direct) <= 1e-11 * np.linalg.norm(direct)


def _schur_case(kind, d, rng):
    """A d x d matrix of one family the Schur form must handle."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mu = complex(rng.standard_normal(), rng.standard_normal())
    shift = np.eye(d, k=1)
    if kind == "random":
        return z
    if kind == "jordan":
        return mu * np.eye(d) + shift
    if kind == "jordan under similarity":
        s = np.eye(d) + 0.3 * z
        return s @ (mu * np.eye(d) + shift) @ np.linalg.inv(s)
    if kind == "nilpotent":
        return shift
    if kind == "multiple of I":
        return mu * np.eye(d)
    if kind == "companion":
        c = np.eye(d, k=-1).astype(complex)
        c[0] = z[0]
        return c
    # strongly non-normal: an upper triangle 1e3 times the diagonal
    return np.diag(np.diag(z)) + 1e3 * np.triu(z, 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["random", "jordan", "jordan under similarity", "nilpotent",
                             "multiple of I", "companion", "non-normal"]),
       d=st.integers(1, 8), seed=st.integers(0, 2 ** 16))
def test_schur_form_and_its_resolvents(kind, d, seed):
    rng = np.random.default_rng(seed)
    a = _schur_case(kind, d, rng)
    q, t = K.schur(a)
    scale = max(np.linalg.norm(a), 1.0)
    assert np.linalg.norm(a - q @ t @ q.conj().T) <= 50 * d * EPS * np.linalg.norm(a)
    assert np.linalg.norm(q.conj().T @ q - np.eye(d)) <= 50 * d * EPS
    assert np.all(np.tril(t, -1) == 0)
    # nodes 1.5 to 3 times the scaled norm away: every shifted matrix is
    # well conditioned, so two backward-stable inverses agree to rounding
    lam = 0.8 * np.exp(0.3j)
    nodes = (1.5 + 1.5 * rng.random(12)) * scale * np.exp(2j * np.pi * rng.random(12))
    stack = q @ K.resolvent_stack(t, lam, nodes) @ q.conj().T
    for x, z in zip(stack, nodes):
        direct = np.linalg.inv(lam * a + z * np.eye(d))
        assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct)


@pytest.mark.parametrize("bad", ["zero", "nan", "inf"])
def test_a_singular_pivot_raises_before_dividing(bad):
    t = np.triu(np.arange(1.0, 10.0).reshape(3, 3)).astype(complex)
    lam = 0.5 + 0.1j
    node = {"zero": -(lam * t[1, 1]), "nan": complex(np.nan, 0.0), "inf": np.inf}[bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            K.resolvent_stack(t, lam, np.array([1.0, node, 2.0]))


def test_kahan_reduction_is_accurate():
    # alternating large/small terms: naive summation loses the small ones
    n = 40_000
    vals = np.empty(n, dtype=np.complex128)
    vals[0::2] = 1.0
    vals[1::2] = 1e-16
    total = K.reduce_weighted(np.ones(n, dtype=np.complex128), vals)
    expected = n / 2 + (n / 2) * 1e-16
    assert abs(total - expected) <= 1e-9


@pytest.mark.parametrize("d", [16, 24, 32])
def test_schur_deflation_stays_backward_stable_on_defective_matrices(d):
    # a Jordan block, eigenvalue -1.5 and superdiagonal c, under a random
    # similarity: each deflation step must take the eigenvalue of its own
    # trailing block (the eigenvalues of the whole matrix, computed once,
    # are perturbed by about u^(1/d) and break the bounds below)
    rng = np.random.default_rng(d)
    for c in (0.3, 3.0, 10.0):
        v = np.eye(d) + 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        a = v @ (-1.5 * np.eye(d) + c * np.eye(d, k=1)) @ np.linalg.inv(v)
        q, t = K.schur(a)
        assert np.linalg.norm(a - q @ t @ q.conj().T) <= 50 * d * EPS * np.linalg.norm(a)
        assert np.linalg.norm(q.conj().T @ q - np.eye(d)) <= 50 * d * EPS
