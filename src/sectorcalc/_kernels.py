"""Low-level numeric kernels of the contour quadrature.

The hot inner operations are (a) weighted reductions of node values,
done as one matrix product per call, and (b) batched resolvent solves
``(lam*A + zeta*I)^{-1}`` over many contour nodes.  Both are plain numpy
(BLAS and LAPACK), so each is bit-reproducible run to run for a fixed
BLAS thread count.
"""

import numpy as np


def reduce_weighted(coeffs, values):
    """Contract the node axis of ``values`` against ``coeffs``.

    ``values`` has shape (N, ...) and ``coeffs`` shape (N,) or (rows, N);
    the result has shape ``coeffs.shape[:-1] + values.shape[1:]`` and is
    ``coeffs @ values.reshape(N, -1)``.  A 0-d result comes back as a
    numpy scalar.
    """
    n = values.shape[0]
    out = coeffs @ values.reshape(n, -1)
    return out.reshape(coeffs.shape[:-1] + values.shape[1:])[()]


def resolvent_stack(a, lam, nodes):
    """Inverses of ``lam*a + nodes[n]*I`` for every node, shape (N, d, d)."""
    d = a.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    stack = lam * a[None, :, :] + nodes[:, None, None] * eye[None, :, :]
    return np.linalg.inv(stack)
