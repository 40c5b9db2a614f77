import numpy as np
import pytest

from sectorcalc import _kernels as K


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
    stack = K.resolvent_stack(a, 0.5 + 0.1j, nodes)
    for i, z in enumerate(nodes):
        direct = np.linalg.inv((0.5 + 0.1j) * a + z * np.eye(4))
        assert np.linalg.norm(stack[i] - direct) <= 1e-11 * np.linalg.norm(direct)


def test_kahan_reduction_is_accurate():
    # alternating large/small terms: naive summation loses the small ones
    n = 40_000
    vals = np.empty(n, dtype=np.complex128)
    vals[0::2] = 1.0
    vals[1::2] = 1e-16
    total = K.reduce_weighted(np.ones(n, dtype=np.complex128), vals)
    expected = n / 2 + (n / 2) * 1e-16
    assert abs(total - expected) <= 1e-9
