"""Commuting matrix tuples as semigroup generator families.

A :class:`CommutingTuple` holds pairwise-commuting square complex
matrices ``A_1 .. A_k`` together with per-axis sector domains
``(a_j, b_j)``; the j-th semigroup is ``zeta -> Exp(zeta*A_j)`` on the
closed sector, with value I at zeta = 0.  Every orbit value the package
needs is a scalar multiple of one generator, so the one exponential,
:func:`expm`, takes the generator and its scalars, ``Exp(z*A)``: scaling
and squaring with the 13th-order diagonal rational approximant, from one
table of powers per matrix and one coefficient row per scalar.
Eigendecompositions appear only in growth-rate bookkeeping and test
oracles, never inside the exponential.

Every weighted orbit integral ``int_0^inf w(t) Exp(t*u*A_j) dt`` (Laplace
resolvents, generator recovery, and in :mod:`.functionals` the
measure-route pairings and orbit transforms) goes through
:func:`orbit_integrals`: one decay check, one ray integral for a whole
batch of weights on any axes, one ``expm`` call per refinement round.

Tuples are immutable after validation and all operations are pure.
"""

import json
from dataclasses import dataclass

import numpy as np

from ._kernels import schur
from .geometry import ProductSector, _unit, complex_pairs, float_pairs
from .quadrature import ray_integral, richardson

_PADE13_B = np.array([
    64764752532480000., 32382376266240000., 7771770303897600.,
    1187353796428800., 129060195264000., 10559470521600., 670442572800.,
    33522128640., 1323241920., 40840800., 960960., 16380., 182., 1.,
])
_THETA13 = 5.371920351148152
# b_k / b_0, highest power first, so that the Pade sums add their
# smallest terms first; row 0 (odd terms negated) gives V - U, row 1 V + U
_POWERS = np.arange(13, -1, -1)
_PADE13_PQ = np.array([(-1.0) ** _POWERS, np.ones(14)]) * (_PADE13_B[_POWERS] / _PADE13_B[0])


class CommutationError(ValueError):
    """Input matrices do not commute within tolerance."""


class SectorDomainError(ValueError):
    """Evaluation point outside the declared sector domain."""


class SingularFactorError(np.linalg.LinAlgError):
    """A resolvent factor is singular or nearly so."""

    def __init__(self, axis, distance):
        super().__init__(
            f"resolvent factor on axis {axis} is within {distance:.3e} of an eigenvalue")
        self.axis = axis
        self.distance = distance


class DivergenceError(ValueError):
    """An integral representation is divergent for the given parameters."""


def opnorm(a):
    """Operator 2-norm (largest singular value)."""
    return float(np.linalg.norm(np.asarray(a), 2))


def expm(a, z=1.0):
    """``Exp(z * a)`` by scaling and squaring with the 13th-order diagonal
    Pade approximant.

    ``a`` is one (d, d) matrix, with scalars ``z`` of any shape, or an
    (M, d, d) stack, with ``z`` of shape (..., M) pairing its last axis
    with the stack (the default gives ``Exp(a[m])``); the result has shape
    ``z.shape + (d, d)``.  Each matrix's powers are built once; each
    scalar is one row of Pade coefficients against them, and one product
    and one batched solve serve every scalar.  The squaring count of a
    scalar comes from ``|z| |a|_1``.  No bit of a result depends on the
    other scalars of the call."""
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if a.ndim == 3:
        z = np.broadcast_to(z, np.broadcast_shapes(z.shape, a.shape[:1]))
    elif a.ndim != 2:
        raise ValueError(f"expm takes a (d, d) matrix or an (M, d, d) stack, not {a.shape}")
    d, shape = a.shape[-1], z.shape
    mats = a.reshape(-1, d, d)
    m = len(mats)
    n = z.size // max(m, 1)
    z = z.reshape(n, m).T  # (M, N): the scalars of each matrix
    norm1 = np.abs(mats).sum(axis=1).max(axis=1)
    if not (np.isfinite(norm1).all() and np.isfinite(z).all()):
        raise ValueError("expm needs a finite matrix and finite scalars")
    squarings = np.ceil(np.log2(np.maximum(np.abs(z) * norm1[:, None], _THETA13) / _THETA13))
    top = squarings.max(initial=0.0)
    # the powers of a / 2^e, 2^e the power of two at or above |a|_1 (an
    # exact scaling), laid out (M, d, 14, d) in _POWERS order: each step
    # multiplies the highest power so far into the leading ones
    e = np.frexp(norm1)[1]
    tab = np.empty((m, d, 14, d), dtype=complex)
    tab[:, :, 13] = np.eye(d)
    np.multiply(mats, (2.0 ** -e)[:, None, None], out=tab[:, :, 12])
    for p, width in ((1, 1), (2, 2), (4, 4), (8, 5)):
        tab[:, :, 13 - p - width:13 - p] = (
            tab[:, :, 13 - p] @ tab[:, :, 13 - width:13].reshape(m, d, width * d)
        ).reshape(m, d, width, d)
    tab = tab.transpose(0, 2, 1, 3).reshape(m, 14, d * d)
    c = z * 2.0 ** (e[:, None] - squarings)
    # both rows of every scalar in one product: a one-row product would
    # take another BLAS kernel, and a scalar's bits would depend on the batch
    rows = c[:, :, None, None] ** _POWERS * _PADE13_PQ  # (M, N, 2, 14)
    pq = (rows.reshape(m, 2 * n, 14) @ tab).reshape(m * n, 2, d, d)
    f = np.linalg.solve(pq[:, 0], pq[:, 1])
    # the squarings every scalar takes run on the whole stack, the rest on
    # the shrinking suffix of the scalars sorted by count
    low = squarings.min(initial=top)
    for _ in range(int(low)):
        f = f @ f
    if top > low:
        squarings = squarings.ravel()
        order = np.argsort(squarings, kind="stable")
        f = f[order]
        for lo in np.searchsorted(squarings, np.arange(low, top), side="right", sorter=order):
            f[lo:] = f[lo:] @ f[lo:]
        f[order] = f.copy()
    return f.reshape(m, n, d, d).swapaxes(0, 1).reshape(shape + (d, d))


@dataclass(frozen=True)
class CommutingTuple:
    """Pairwise-commuting matrices with sector domains.

    Commutation is enforced at construction: the defect
    ``|A_i A_j - A_j A_i|`` must not exceed ``1e-10 * |A_i| * |A_j|`` in
    the operator norm, since the whole calculus silently degrades without
    commutativity.
    """

    matrices: tuple
    sectors: ProductSector

    def __init__(self, matrices, sectors):
        matrices = tuple(np.array(m, dtype=complex) for m in matrices)
        dim = matrices[0].shape[0]
        for m in matrices:
            if m.shape != (dim, dim):
                raise ValueError("all matrices must be square of equal dimension")
            m.setflags(write=False)
        if not isinstance(sectors, ProductSector):
            sectors = ProductSector(sectors)
        if sectors.k != len(matrices):
            raise ValueError("need one sector per matrix")
        norms = [max(opnorm(m), 1e-300) for m in matrices]
        for i in range(len(matrices)):
            for j in range(i + 1, len(matrices)):
                defect = opnorm(matrices[i] @ matrices[j] - matrices[j] @ matrices[i])
                if defect > 1e-10 * norms[i] * norms[j]:
                    raise CommutationError(
                        f"matrices {i} and {j} do not commute "
                        f"(relative defect {defect / (norms[i] * norms[j]):.3e})")
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "sectors", sectors)
        object.__setattr__(self, "_spectra", tuple(np.linalg.eigvals(m) for m in matrices))
        object.__setattr__(self, "_schurs", tuple(schur(m) for m in matrices))
        for arr in self._spectra + sum(self._schurs, ()):
            arr.setflags(write=False)

    @property
    def k(self):
        return len(self.matrices)

    @property
    def dim(self):
        return self.matrices[0].shape[0]

    def eigenvalues(self, j):
        """Spectrum of ``A_j``, computed once at construction (read-only)."""
        return self._spectra[j]

    def schur(self, j):
        """Schur form ``(q, t)``, ``A_j = q t q^H``, computed once at construction."""
        return self._schurs[j]

    def abscissa(self, j, omega, lam=1.0):
        """Growth rate of ``t -> |Exp(t * lam * exp(1j*omega) * A_j)|``, the
        spectral abscissa ``max Re(lam * exp(1j*omega) * mu)`` over ``spec(A_j)``."""
        return float(np.max((lam * _unit(omega) * self._spectra[j]).real))

    def to_json(self):
        return {
            "k": self.k,
            "dim": self.dim,
            "A": [[[[v.real, v.imag] for v in row] for row in m] for m in self.matrices],
            "sectors": [[s.alpha, s.beta] for s in self.sectors.sectors],
        }

    @staticmethod
    def from_json(obj):
        """The tuple of :meth:`to_json`: ``A`` as (k, d, d) ``[re, im]`` pairs
        and ``sectors`` as (k, 2) floats, any other shape refused."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        return CommutingTuple(complex_pairs(obj["A"], "A", 4),
                              float_pairs(obj["sectors"], "sectors", 2, "[alpha, beta]"))


def evaluate(tup, j, zeta):
    """Semigroup values ``Exp(zeta*A_j)`` of one ``zeta`` or an array; each
    must be in the closed sector domain of axis j (0 gives the identity)."""
    check_in_domain(tup, j, zeta)
    return expm(tup.matrices[j], zeta)


def check_in_domain(tup, j, zeta):
    """Raise :class:`SectorDomainError` naming the first of the points
    ``zeta`` (one or an array) outside the closed sector domain of axis j."""
    sec = tup.sectors.sectors[j]
    outside = ~sec.contains(zeta, closed=True)
    if outside.any():
        bad = complex(np.asarray(zeta, dtype=complex)[outside][0])
        raise SectorDomainError(
            f"zeta={bad} outside the closed sector ({sec.alpha}, {sec.beta}) of axis {j}")


def resolvent_product(tup, lam, zeta):
    """Product of the per-axis resolvents ``(lam_j*A_j + zeta_j*I)^{-1}``,
    multiplied in axis order (the factors commute)."""
    lam = _validate_lambda(tup, lam)
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    ident = np.eye(tup.dim, dtype=complex)
    x = ident
    for j in reversed(range(tup.k)):
        if abs(lam[j]) > 1e-300:
            pole = -zeta[j] / lam[j]
            dist = float(np.min(np.abs(pole - tup.eigenvalues(j))))
            if dist <= 1e-10 * (1.0 + abs(pole)):
                raise SingularFactorError(j, dist)
        elif abs(zeta[j]) <= 1e-300:
            raise SingularFactorError(j, 0.0)
        x = np.linalg.solve(lam[j] * tup.matrices[j] + zeta[j] * ident, x)
    return x


def orbit_integrals(tup, j, directions, weights, rate, tol=1e-10):
    """Weighted orbit integrals ``int_0^inf weights[i](t) Exp(t*directions[i]*A_{j[i]}) dt``,
    returned as an (n, d, d) stack.

    ``j`` names the axis of every member, or one axis per member.
    ``rate`` is the caller's decay margin: how much faster the slowest
    weight decays than the slowest orbit grows, least over all members.
    All n integrals share one ray integral, whose integrand exponentiates
    each distinct (axis, direction) pair once per round in one
    :func:`expm` call.
    """
    if rate <= 1e-9:
        axes = ", ".join(map(str, sorted(set(np.atleast_1d(j).tolist()))))
        raise DivergenceError(
            f"axis {axes}: orbit integral diverges (decay margin {rate:.6g} is not positive)")
    if len(directions) != len(weights):
        raise ValueError("need one direction per weight")
    pairs = list(zip(np.broadcast_to(j, (len(weights),)).tolist(),
                     np.asarray(directions, dtype=complex).tolist()))
    keys = list(dict.fromkeys(pairs))
    which = [keys.index(p) for p in pairs]
    mats = np.stack([tup.matrices[axis] for axis, _ in keys])
    dirs = np.array([u for _, u in keys])
    n, d = len(weights), tup.dim

    def f(ts):
        orbits = expm(mats, ts[:, None] * dirs)[:, which]
        w = np.stack([weight(ts) for weight in weights], axis=1)
        return (w[:, :, None, None] * orbits).reshape(len(ts), n * d, d)

    res = ray_integral(f, 0.0, 1.0, tol=tol, decay=("exp", rate))
    return res.value.reshape(n, d, d)


def resolvent_via_laplace(tup, j, lam, zeta0=1.0, tol=1e-10):
    """Resolvent ``(lam*I - A_j)^{-1}`` by quadrature of the semigroup
    Laplace transform along the ray of direction ``zeta0``.

    Requires ``Re(lam*zeta0)`` above the spectral abscissa along the ray,
    otherwise the integrand diverges.
    """
    lam = complex(lam)
    zeta0 = complex(zeta0)
    zeta0 /= abs(zeta0)
    margin = (lam * zeta0).real - tup.abscissa(j, float(np.angle(zeta0)))
    return zeta0 * orbit_integrals(tup, j, [zeta0], [lambda ts: np.exp(-ts * zeta0 * lam)],
                                   margin, tol)[0]


def generator_from_weighted_integrals(tup, j, lam, tol=1e-10):
    """Recover ``A_j`` from the weighted orbit integrals with weight
    ``v(t) = t*exp(-lam*t)``: returns ``-C @ B^{-1}`` where
    ``B = int v(t) T(t) dt`` and ``C = int v'(t) T(t) dt``.

    ``lam`` must exceed the spectral abscissa along the positive axis.
    """
    lam = float(lam)
    b, c = orbit_integrals(
        tup, j, [1.0, 1.0],
        [lambda ts: ts * np.exp(-lam * ts), lambda ts: (1.0 - lam * ts) * np.exp(-lam * ts)],
        lam - tup.abscissa(j, 0.0), tol)
    cond = np.linalg.cond(b)
    if not np.isfinite(cond) or cond > 1e12:
        raise np.linalg.LinAlgError(f"weighted integral B is numerically singular (cond={cond:.3e})")
    return -np.linalg.solve(b.T, c.T).T


def generator_from_difference_quotient(tup, j, u, ts=None):
    """Richardson-extrapolated limit of ``(T(t)u - u)/t``.

    Returns ``(v, residual)`` where ``v`` approximates ``A_j u`` and the
    residual is the Cauchy gap of the extrapolation table.
    """
    u = np.asarray(u, dtype=complex)
    if ts is None:
        ts = 2.0 ** -np.arange(3, 13)
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0) or np.any(np.diff(ts) >= 0):
        raise ValueError("t-sequence must be positive decreasing")
    a = tup.matrices[j]
    quotients = list((expm(a, ts) @ u - u) / ts[:, None])
    ratio = ts[0] / ts[1]
    limit, residual = richardson(quotients, ratio=ratio)
    return np.asarray(limit), residual


def generator_holomorphic(tup, j, zeta0):
    """Generator via the holomorphic-orbit quotient ``T'(zeta0) T(zeta0)^{-1}``;
    independent of the interior point ``zeta0``."""
    zeta0 = complex(zeta0)
    sec = tup.sectors.sectors[j]
    if sec.is_ray:
        raise SectorDomainError("axis has an empty open sector; no holomorphic quotient")
    if not sec.contains(zeta0, closed=False):
        raise SectorDomainError(f"zeta0={zeta0} is not strictly inside the sector")
    a = tup.matrices[j]
    e = expm(a, zeta0)
    return np.linalg.solve(e.T, (a @ e).T).T


IN_N0 = "in_N0"
IN_N_ONLY = "in_N_only"
OUTSIDE = "outside"


def _validate_lambda(tup, lam, ps=None):
    """``lam`` as a complex array (the one place it becomes one) with one
    finite entry per axis of ``tup``; given the sectors ``ps``, also one per
    axis, each ``lam_j`` keeping the sector of axis ``j`` inside its domain.
    Raises :class:`SectorDomainError`."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    if lam.shape != (tup.k,) or (ps is not None and ps.k != tup.k):
        raise SectorDomainError(
            f"need one lambda and one sector per axis: lambda of shape {lam.shape} and "
            f"{tup.k if ps is None else ps.k} sectors for {tup.k} axes")
    if not np.isfinite(lam).all():
        raise SectorDomainError(f"lambda={lam.tolist()} is not finite")
    for j, (dom, sec) in enumerate(zip(tup.sectors.sectors, () if ps is None else ps.sectors)):
        lj = lam[j]
        if dom.is_ray:
            if abs(sec.alpha - dom.alpha) > 1e-12 or not sec.is_ray:
                raise SectorDomainError(
                    f"axis {j}: sector angles must equal the degenerate domain angle")
            if abs(lj.imag) > 1e-9 * (1 + abs(lj)) or lj.real < -1e-12:
                raise SectorDomainError(f"axis {j}: lambda must be a nonnegative real")
        elif not (dom.alpha < sec.alpha - 1e-12 and sec.beta < dom.beta - 1e-12):
            raise SectorDomainError(
                f"axis {j}: need domain alpha < alpha <= beta < domain beta")
        elif abs(lj) > 1e-300:
            lo, hi, ang = dom.alpha - sec.alpha, dom.beta - sec.beta, np.angle(lj)
            if not (-1e-9 <= (ang - lo) % (2 * np.pi) <= (hi - lo) + 1e-9):
                raise SectorDomainError(
                    f"axis {j}: arg(lambda)={ang:.6g} outside the window ({lo:.6g}, {hi:.6g})")
    return lam


def n_set_classify(tup, lam, ps, z):
    """Classify an anchor ``z`` against the weighted-orbit boundedness sets.

    The boundedness of ``exp(t*z_j*e^{i w}) * |T_j(t*lam_j*e^{i w})|``
    reduces to the two edge directions ``w in {alpha_j, beta_j}``; with
    spectral abscissas ``h`` the bounded set uses ``Re(z_j e^{iw}) <= -h``
    and the vanishing set uses strict inequality, both with slack 1e-12.
    """
    return _n_set_class(tup, _validate_lambda(tup, lam, ps), ps,
                        np.atleast_1d(np.asarray(z, dtype=complex)))


def _n_set_class(tup, lam, ps, z):
    """:func:`n_set_classify` of the checked ``lam`` and the anchor array ``z``."""
    strict = True
    weak = True
    for j, sec in enumerate(ps.sectors):
        for omega in {sec.alpha, sec.beta}:
            h = tup.abscissa(j, omega, lam[j])
            val = (z[j] * _unit(omega)).real
            if not val <= -h + 1e-12:
                weak = False
            if not val < -h - 1e-12:
                strict = False
    if strict and weak:
        return IN_N0
    if weak:
        return IN_N_ONLY
    return OUTSIDE


def mult_semigroup_gap(t, s):
    """Brute-force ``sup_{0 < x <= 1} |x**t - x**s|`` for ``0 < t < s``.

    A coarse grid locates the maximizer, golden-section refinement
    polishes it.  The stationary-point closed form is
    :func:`mult_semigroup_gap_closed_form`.
    """
    if not (0 < t < s):
        raise ValueError("need 0 < t < s")
    xs = np.linspace(0.0, 1.0, 10_001)[1:]
    vals = np.abs(xs ** t - xs ** s)
    i = int(np.argmax(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, len(xs) - 1)]

    def g(x):
        return abs(x ** t - x ** s)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    while hi - lo > 1e-13:
        if g(c) < g(d):
            lo = c
            c = d
            d = lo + invphi * (hi - lo)
        else:
            hi = d
            d = c
            c = hi - invphi * (hi - lo)
    xstar = 0.5 * (lo + hi)
    return max(g(xstar), vals[i])


def mult_semigroup_gap_closed_form(t, s):
    """Stationary-point value ``(s-t) * t^{t/(s-t)} / s^{s/(s-t)}``."""
    if not (0 < t < s):
        raise ValueError("need 0 < t < s")
    e = s - t
    return e * t ** (t / e) / s ** (s / e)


def _shift_entries(n, t):
    """Nonzeros of :func:`shift_matrix`, two slots per row: columns and
    values of shape (n, 2); an unused slot holds the value 0."""
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"need a finite t >= 0, got {t}")
    y = np.linspace(0.0, 1.0, n) - t
    pos = np.where(y >= 0, y, 0.0) * (n - 1)
    j0 = np.floor(pos)
    frac = pos - j0
    cols = np.stack([j0, np.minimum(j0 + 1, n - 1)], axis=1).astype(np.intp)
    return cols, np.stack([1.0 - frac, frac], axis=1) * (y >= 0)[:, None]


def shift_matrix(n, t):
    """Linear-interpolation discretization of ``f(x) -> f(x - t)`` on the
    uniform n-point grid over [0, 1] (zero below the support)."""
    if n < 2:
        raise ValueError("need n >= 2 grid points")
    m = np.zeros((n, n))
    cols, vals = _shift_entries(n, t)
    np.add.at(m, (np.arange(n)[:, None], cols), vals)
    return m


def quasinilpotent_gap(n, t):
    """Operator 2-norm of ``D = T(t) - T(2t)`` for the discretized nilpotent
    right-shift semigroup on the n-point grid over [0, 1].

    Each row of ``D`` has at most four nonzeros, so ``G = D^T D`` is summed
    directly from the outer products of the rows' entries, on the columns
    they name only; the norm is the square root of its largest eigenvalue."""
    if n < 64:
        raise ValueError("need n >= 64")
    if not t > 0:  # also rejects NaN
        raise ValueError(f"need t > 0, got {t}")
    (c1, v1), (c2, v2) = _shift_entries(n, t), _shift_entries(n, 2 * t)
    vals = np.hstack([v1, -v2])
    # zero slots may name extra columns: zero rows and columns of G, which
    # leave its largest eigenvalue (0 past the nilpotency horizon) unchanged
    used, idx = np.unique(np.hstack([c1, c2]).ravel(), return_inverse=True)
    c, idx = len(used), idx.reshape(n, 4)
    gram = np.bincount((idx[:, :, None] * c + idx[:, None, :]).ravel(),
                       (vals[:, :, None] * vals[:, None, :]).ravel(), c * c)
    return float(np.sqrt(max(np.linalg.eigvalsh(gram.reshape(c, c))[-1], 0.0)))


# ---------------------------------------------------------------------------
# deterministic random banks (seeded, shared by tests and CLI scenarios)
# ---------------------------------------------------------------------------


def random_sectorial_matrix(rng, dim, re_range=(-3.0, -0.5), basis_spread=0.3):
    """Random diagonalizable matrix with spectrum in ``Re < re_range[1]``,
    ``-1 < Im < 1``."""
    vals = rng.uniform(*re_range, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
    v = np.eye(dim) + basis_spread * (rng.standard_normal((dim, dim))
                                      + 1j * rng.standard_normal((dim, dim)))
    return v @ np.diag(vals) @ np.linalg.inv(v)


def random_commuting_tuple(rng, k, dim, sector=(-np.pi / 4, np.pi / 4)):
    """Commuting diagonalizable tuple sharing one random eigenbasis, spectra
    in ``-3 < Re < -0.5``, ``-1 < Im < 1``."""
    v = np.eye(dim) + 0.3 * (rng.standard_normal((dim, dim))
                             + 1j * rng.standard_normal((dim, dim)))
    vinv = np.linalg.inv(v)
    mats = [v @ np.diag(rng.uniform(-3.0, -0.5, dim) + 1j * rng.uniform(-1.0, 1.0, dim)) @ vinv
            for _ in range(k)]
    return CommutingTuple(mats, [sector] * k)
