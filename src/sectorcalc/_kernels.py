"""Low-level numeric kernels of the contour quadrature.

The hot inner operations are (a) weighted reductions of node values,
done as one matrix product per call, and (b) batched resolvent solves
over many contour nodes, triangular against one Schur form per generator
(:func:`schur`).  All are plain numpy (BLAS and LAPACK), so each is
bit-reproducible run to run for a fixed BLAS thread count.
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


def schur(a):
    """Complex Schur form ``a = q t q^H`` as ``(q, t)``, by deflation: step ``i``
    maps the least right singular vector of ``t[i:, i:] - mu*I``, ``mu`` an
    eigenvalue of that block, to a multiple of ``e_1`` by a Householder reflector
    from both sides; the subdiagonal it zeroes is at most that singular value."""
    t, q = np.array(a, dtype=complex), np.eye(len(a), dtype=complex)
    for i in range(len(t) - 1):
        b = t[i:, i:]
        w = np.linalg.svd(b - np.linalg.eigvals(b)[0] * np.eye(len(b)))[2][-1].conj()
        w[0] += np.exp(1j * np.angle(w[0]))  # |w[0]| grows: no cancellation
        h = np.eye(len(b)) - (2.0 / np.vdot(w, w).real) * np.outer(w, w.conj())
        t[i:, i:] = h @ b
        t[:, i:] = t[:, i:] @ h
        q[:, i:] = q[:, i:] @ h
        t[i + 1:, i] = 0.0
    return q, t


def resolvent_stack(t, lam, nodes):
    """Inverses of ``lam*t + nodes[n]*I`` for an upper-triangular ``t``, shape
    (N, d, d): back substitution from the last row up, all nodes at once.  A
    zero or non-finite pivot raises ``LinAlgError`` before any division."""
    d, n = len(t), len(nodes)
    pivots = lam * np.diag(t)[:, None] + nodes
    if not np.all(np.isfinite(pivots) & (pivots != 0)):
        raise np.linalg.LinAlgError("Singular matrix")
    recip, off = 1.0 / pivots, -lam * t
    x = np.zeros((d, d, n), dtype=complex)  # x[i, :, n]: row i at node n
    x[-1, -1] = recip[-1]
    for i in range(d - 2, -1, -1):
        np.matmul(off[i, i + 1:], x[i + 1:].reshape(d - i - 1, d * n), out=x[i].reshape(d * n))
        x[i, i] += 1.0
        x[i] *= recip[i]
    return np.ascontiguousarray(x.transpose(2, 0, 1))
