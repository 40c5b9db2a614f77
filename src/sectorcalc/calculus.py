"""Contour-integral calculus for commuting tuples on admissible regions.

The central operation realizes ``F`` at the scaled tuple
``(-lam_1 A_1, ..., -lam_k A_k)`` as a distinguished-boundary integral

    (-1)^k (2*pi*i)^{-k} * Int_{dU+eps} F(zeta) prod_j (lam_j A_j + zeta_j I)^{-1} dzeta

with the per-axis orientation from ``exp(1j*(-pi/2-alpha_j))*inf`` to
``exp(1j*(pi/2-beta_j))*inf``; the sign of the prefactor is pinned by the
scalar oracle ``F(-lam*mu)``.  Bounded functions are reached through a
squared-rational quotient, and quotient classes through a witness pair.
All integrals of one quotient come from one contour pass, which solves
each round's resolvent stacks once, against the Schur forms the tuple
stores, and accepts on the joint difference.

Everything is pure; contour evaluations inherit the deterministic
reduction of the quadrature layer.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import quadrature
from ._kernels import resolvent_stack
from .geometry import AdmissibleRegion, GeometryError, ProductSector, _unit, make_region, per_axis
from .quadrature import (ContourQuadrature, _call_factor, _check_shift,
                         _contract, _panel_error, _parts_error, _product, _product_rule,
                         _separable, adaptive_contour, integrate, resolvent_contour_value,
                         tail_radius)
from .semigroups import IN_N0, SectorDomainError, _n_set_class, _validate_lambda, opnorm


class AdmissibilityError(ValueError):
    """The region fails an admissibility requirement for the tuple."""


class DenseRangeError(np.linalg.LinAlgError):
    """The image of the auxiliary quotient function is numerically singular,
    against the dense-range expectation; reported instead of regularized."""


@dataclass(frozen=True)
class HoloFunction:
    """Holomorphic integrand with decay certificates.

    ``decay = (c, p)`` certifies ``|F(sigma)| <= c * prod (1+|sigma_j|)^-p``;
    ``exp_rate`` optionally certifies exponential decay along the contour
    directions.  ``witness`` carries the quotient pair for the Smirnov
    class: a bounded ``G`` claimed invertible-approximable with ``F*G``
    bounded.  :attr:`terms` is the separable (CP) form ``fun`` carries, if
    any.  ``poles``, when set, holds per axis the points where ``F`` is
    singular in that coordinate; the calculus refuses a pole inside its
    contour.
    """

    fun: object
    klass: str = "H1"
    decay: tuple = None
    exp_rate: float = None
    witness: object = None
    label: str = "F"
    poles: tuple = None

    @property
    def terms(self):
        """The separable (CP) form ``F = sum_r prod_j terms[r][j](zeta_j)`` of
        ``fun``, or None: a tuple of terms, each a tuple of k callables on
        1-D node arrays; contour sums then factorize per axis (see
        :func:`separable_function`)."""
        return getattr(self.fun, "terms", None)

    def __call__(self, pts):
        return np.asarray(self.fun(np.atleast_2d(np.asarray(pts, dtype=complex))),
                          dtype=complex)

    def at(self, point):
        return complex(self(np.asarray(point, dtype=complex)[None, :])[0])


def separable_function(terms, klass="H1", decay=None, exp_rate=None, label="F"):
    """``HoloFunction`` given by its separable terms; ``fun`` evaluates
    ``sum_r prod_j terms[r][j](pts[:, j])``, so the two cannot disagree."""
    return HoloFunction(_separable(terms), klass, decay, exp_rate, None, label)


def _ones(x):
    return np.ones(len(x), dtype=complex)


def product_function(f, g, label=None):
    """``f * g``; when both carry separable terms the product's terms are
    the pairwise products (ranks multiply), otherwise it has none.  Its
    poles are the union of the factors', axis by axis."""
    decay = None
    if f.decay is not None and g.decay is not None:
        decay = (f.decay[0] * g.decay[0], f.decay[1] + g.decay[1])
    elif g.decay is not None:
        decay = g.decay
    elif f.decay is not None:
        decay = f.decay
    rate = None
    for r in (f.exp_rate, g.exp_rate):
        if r is not None:
            rate = r if rate is None else max(rate, r)
    poles = f.poles or g.poles
    if f.poles and g.poles:
        poles = tuple(a + b for a, b in zip(f.poles, g.poles))
    return HoloFunction(_product(f, g), "H1", decay, rate, None,
                        label or f"{f.label}*{g.label}", poles)


def constant_function(k, value, label=None):
    def first(x):
        return np.full(len(x), complex(value))

    return separable_function([(first,) + (_ones,) * (k - 1)], "Hinf",
                              (abs(value) + 1e-300, 0.0), None,
                              label or f"const({value})")


def _check_axis(k, axis):
    if axis not in range(k):
        raise ValueError(f"axis {axis} is not one of the {k} axes 0..{k - 1}")


def inverse_square(k, shifts, label=None):
    """``prod_j (zeta_j + s_j)^{-2}``; the workhorse decaying test function."""
    shifts = per_axis(shifts, k, "shifts")
    term = [lambda x, s=shifts[j]: 1.0 / (x + s) ** 2 for j in range(k)]
    return replace(separable_function([term], "H1", (1.0, 2.0), None,
                                      label or f"invsq({shifts.tolist()})"),
                   poles=tuple((-s,) for s in shifts))


def rotated_inverse_square(k, angles, shifts, label=None):
    """``prod_j (zeta_j e^{i theta_j} + s_j)^{-2}`` (poles pushed behind the
    rotated half-planes); used as the bounded-function quotient."""
    shifts = per_axis(shifts, k, "shifts")
    angles = per_axis(angles, k, "angles", float)
    term = [lambda x, u=_unit(angles[j]), s=shifts[j]: 1.0 / (x * u + s) ** 2
            for j in range(k)]
    return replace(separable_function([term], "H1", (1.0, 2.0), None, label or "rot_invsq"),
                   poles=tuple((-s / _unit(a),) for a, s in zip(angles, shifts)))


def exponential_function(k, nu, axis=0, shifts=None, label=None):
    """``exp(-nu*zeta_axis)`` optionally damped by ``prod (zeta_j+s_j)^{-1}``."""
    nu = complex(nu)
    _check_axis(k, axis)
    term = [(lambda x: np.exp(-nu * x)) if j == axis else _ones for j in range(k)]
    if shifts is not None:
        shifts = per_axis(shifts, k, "shifts")
        term = [lambda x, f=f, s=shifts[j]: f(x) / (x + s) for j, f in enumerate(term)]
    p = 1.0 if shifts is not None else 0.0
    return separable_function([term], "Hinf", (1.0, p), None,
                              label or f"exp(-{nu} z{axis})")


def monomial(k, axis=0):
    """``-zeta_axis``, the projection integrand of the quotient class."""
    _check_axis(k, axis)
    term = [(lambda x: -x) if j == axis else _ones for j in range(k)]
    return separable_function([term], "Smirnov", None, None, f"-z{axis}")


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    region_ok: bool
    anchor_class: str
    spectrum_inside: bool
    margins: tuple
    detail: str = ""

    @property
    def passed(self):
        return self.region_ok and self.anchor_class == IN_N0 and self.spectrum_inside


def check_admissible_for(region, tup, lam):
    """Report whether ``region`` is admissible for the scaled tuple: ``lam``
    is valid for it, the region's vertex anchors a vanishing weighted
    orbit, and ``-lam_j * spec(A_j)`` lies inside every axis with positive
    margin.  A defect of ``lam`` is reported once, never raised."""
    try:
        lam = _validate_lambda(tup, lam, region.sectors)
    except SectorDomainError as exc:
        return AdmissibilityReport(False, "invalid", False, (), str(exc))
    anchor_class = _n_set_class(tup, lam, region.sectors, region.vertex)
    margins, spectrum_inside = [], True
    for j, ax in enumerate(region.axes):
        # -lam_j * spec(A_j), written out as scalar complex arithmetic rounds it
        c, mu = -lam[j], tup.eigenvalues(j)
        points = (c.real * mu.real - c.imag * mu.imag) + 1j * (c.real * mu.imag + c.imag * mu.real)
        dist = ax.boundary_distance(points)
        inside = ax._contains(points, False, 1e-9, dist)
        spectrum_inside = spectrum_inside and bool(inside.all())
        margins.append(float(np.min(np.where(inside, dist, -dist), initial=np.inf)))
    return AdmissibilityReport(True, anchor_class, spectrum_inside, tuple(margins))


def shifted_region(region, eps):
    """``region`` moved by the checked per-axis shifts ``eps``."""
    return AdmissibleRegion([ax.translated(e) for ax, e in zip(region.axes, eps)])


def default_region(tup, lam, sectors, margin=1.0):
    """Pure dual-cone region admissible for the scaled tuple: the vertex is
    pushed down the anti-bisector until the weighted orbit vanishes."""
    from .functionals import anchor_for

    if not hasattr(sectors, "sectors"):
        sectors = ProductSector(sectors)
    z = anchor_for(tup, lam, sectors, None, strict=True, margin=margin)
    return make_region([s.alpha for s in sectors.sectors],
                       [s.beta for s in sectors.sectors], z)


# ---------------------------------------------------------------------------
# the calculus
# ---------------------------------------------------------------------------


def _radius_floor(region, eps, tup, lam):
    """Tail radius of the calculus contours (checked ``eps`` and ``lam``): the
    contour rule (:func:`~sectorcalc.quadrature.tail_radius`), raised to clear
    twice the scaled spectra, so the resolvent poles stay off the mapped tails."""
    return max([tail_radius(region, eps)] + [
        2.0 * float(np.max(np.abs(lam[j] * tup.eigenvalues(j)))) + 1.0 for j in range(tup.k)])


def functional_calculus(F, tup, lam, region, eps, tol=1e-9):
    """Distinguished-boundary realization of ``F`` at the scaled tuple.

    Requires admissibility of both the region and its ``eps``-shift, and
    an integrable decay certificate on ``F``.  The result is independent
    of the admissible ``(region, eps)`` choice within twice the
    tolerance.
    """
    return _calculus_batch([F], tup, _validate_lambda(tup, lam, region.sectors), region,
                           eps, tol)[0]


def _calculus_batch(Fs, tup, lam, region, eps, tol=1e-9):
    """(len(Fs), d, d) stack of :func:`functional_calculus` values (checked
    ``lam``) from one contour pass, each member accepted in its own round."""
    eps = _check_shift([ax.dual_sector for ax in region.axes],
                       _default_eps(region) if eps is None else eps)
    for F in Fs:
        _require_certificate(F)
    cq = quadrature._contour(region, eps, _radius_floor(region, eps, tup, lam))
    # eps is in the closed dual cone, so U + eps lies in U and
    # Re(eps e^{i omega}) >= 0 on both edges: if the shifted region is
    # admissible, so is the region, and one check covers both
    shifted = shifted_region(region, eps)
    report = check_admissible_for(shifted, tup, lam)
    if not report.passed:
        raise AdmissibilityError(
            "shifted region is not admissible for the scaled tuple: "
            f"anchor={report.anchor_class}, spectrum_inside={report.spectrum_inside}, "
            f"margins={report.margins} {report.detail}")
    for F in Fs:  # the contour bounds the shifted region
        for j, p in enumerate(F.poles or ()):
            if shifted.axes[j].contains(np.asarray(p, dtype=complex), closed=True).any():
                raise AdmissibilityError(f"{F.label} has a pole in the shifted region on axis {j}")
    pref = (-1.0) ** tup.k * (2j * np.pi) ** -tup.k
    schurs = [tup.schur(j) for j in range(tup.k)]
    res = adaptive_contour(lambda c: resolvent_contour_value(Fs, schurs, lam, c), cq, tol)
    return pref * res.value


def _sample_points(region):
    pts = [ax.sample_boundary(4.0 * (abs(ax.z) + ax.excision_radius + 1.0))
           for ax in region.axes]
    m = min(len(p) for p in pts)
    return np.concatenate([np.stack([np.asarray(p)[:m] + shift * ax.sector.turn
                                     for p, ax in zip(pts, region.axes)], axis=1)
                           for shift in (0.3, 1.0, 3.0, 10.0)], axis=0)


def sup_on_region(F, region):
    """Sample-based sup of ``|F|`` over the region (boundary-biased grid)."""
    pts = _sample_points(region)
    keep = region.contains(pts)
    if not keep.any():
        raise GeometryError("no interior sample points found")
    vals = np.abs(F(pts[keep]))
    if not np.all(np.isfinite(vals)):
        raise AdmissibilityError(f"{F.label} is not finite on the region sample")
    return float(vals.max())


def _quotient_denominator(tup, lam, region):
    """Squared-rational ``G`` along the bisector angles with shifts
    ``1 + max(growth abscissa, vertex offset)`` (checked ``lam``); its poles
    clear the region."""
    angles = [0.5 * (ax.alpha + ax.beta) for ax in region.axes]
    shifts = [1.0 + max(tup.abscissa(j, theta, lam[j]), -(ax.z * _unit(theta)).real)
              for j, (ax, theta) in enumerate(zip(region.axes, angles))]
    return rotated_inverse_square(region.k, angles, shifts, label="G_quotient")


def functional_calculus_hinf(F, tup, lam, region, tol=1e-9, eps=None):
    """Extension of the calculus to bounded ``F`` by the quotient
    ``R_F = calc(F*G) * calc(G)^{-1}`` with the squared-rational ``G``;
    both integrals come from one contour pass (joint acceptance).

    Raises :class:`DenseRangeError` when the image of ``G`` is numerically
    singular instead of regularizing it."""
    lam = _validate_lambda(tup, lam, region.sectors)
    sup_on_region(F, region)  # bounded-sample check
    g = _quotient_denominator(tup, lam, region)
    m_fg, m_g = _calculus_batch([product_function(F, g), g], tup, lam, region, eps, tol)
    return _quotient(m_fg, m_g, "quotient image")


def functional_calculus_smirnov(F, tup, lam, region, tol=1e-9, eps=None):
    """Quotient-class extension through the witness pair carried by ``F``:
    ``R_F = hinf(F*Gw) * hinf(Gw)^{-1}``.  The algebra of the tuple is
    commutative, so ``calc(G)`` cancels and ``R_F = calc(F*Gw*G) *
    calc(Gw*G)^{-1}``; both come from one contour pass (joint acceptance).
    Raises :class:`DenseRangeError` when the image of ``Gw*G`` is singular."""
    lam = _validate_lambda(tup, lam, region.sectors)
    if F.witness is None:
        raise AdmissibilityError(f"{F.label} carries no witness pair")
    gw = F.witness
    fg = product_function(F, gw)
    # the witness must keep the product bounded on a region sample
    sup_on_region(fg, region)
    sup_on_region(gw, region)
    g = _quotient_denominator(tup, lam, region)
    m_fgg, m_gg = _calculus_batch([product_function(fg, g), product_function(gw, g)],
                                  tup, lam, region, eps, tol)
    return _quotient(m_fgg, m_gg, "witness image")


def _quotient(m_num, m_den, what):
    """``m_num @ m_den^{-1}``, refused with :class:`DenseRangeError` when
    ``m_den`` (the image ``what``) is numerically singular."""
    cond = np.linalg.cond(m_den)
    if not np.isfinite(cond) or cond > 1e10:
        raise DenseRangeError(f"{what} is numerically singular (cond={cond:.3e})")
    return np.linalg.solve(m_den.T, m_num.T).T


def projection_witness(tup, lam, region, axis=0):
    """Witness pair for the projection integrand ``-zeta_axis``: the
    squared-rational factor with shift ``2 + growth abscissa`` along the
    bisector of the given axis."""
    lam = _validate_lambda(tup, lam, region.sectors)
    ax = region.axes[axis]
    theta = 0.5 * (ax.alpha + ax.beta)
    nu0 = 2.0 + max(tup.abscissa(axis, theta, lam[axis]), -(ax.z * _unit(theta)).real)
    u = _unit(theta)
    term = [(lambda x: 1.0 / (x * u + nu0) ** 2) if j == axis else _ones
            for j in range(region.k)]
    return separable_function([term], "Hinf", (1.0, 0.0), None,
                              label=f"proj_witness(nu0={nu0:.3g})")


def projection_function(tup, lam, region, axis=0):
    """The monomial ``-zeta_axis`` with its witness pair (separable terms kept)."""
    return replace(monomial(region.k, axis),
                   witness=projection_witness(tup, lam, region, axis))


def _default_eps(region, scale=0.25):
    return np.array([scale * _unit(-0.5 * (ax.alpha + ax.beta)) for ax in region.axes])


# ---------------------------------------------------------------------------
# spectral mapping
# ---------------------------------------------------------------------------


class NonDiagonalizableError(np.linalg.LinAlgError):
    pass


def joint_eigensystem(tup):
    """Joint eigenbasis of a commuting diagonalizable tuple via a fixed
    generic linear combination."""
    coeffs = np.array([1.0 + 0.618 * j + 0.1j * (j + 1) for j in range(tup.k)])
    m = sum(c * a for c, a in zip(coeffs, tup.matrices))
    _, v = np.linalg.eig(m)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > 1e10:
        raise NonDiagonalizableError(f"combination eigenbasis has cond {cond:.3e}")
    vinv = np.linalg.inv(v)
    mus = []
    for a in tup.matrices:
        d = vinv @ a @ v
        off = opnorm(d - np.diag(np.diag(d)))
        if off > 1e-8 * max(opnorm(a), 1.0):
            raise NonDiagonalizableError(
                f"tuple is not jointly diagonalizable (offdiagonal {off:.3e})")
        mus.append(np.diag(d).copy())
    return mus, v, vinv


@dataclass(frozen=True)
class SpectralReport:
    max_eig_rel_err: float
    offdiagonal: float
    matrix_rel_err: float


def spectral_map_check(F, tup, lam, region, tol=1e-9, computed=None):
    """Compare the calculus against the eigendecomposition oracle
    ``V diag(F(-lam o mu)) V^{-1}`` for a diagonalizable tuple."""
    lam = _validate_lambda(tup, lam, region.sectors)
    mus, v, vinv = joint_eigensystem(tup)
    pts = np.stack([-lam[j] * mus[j] for j in range(tup.k)], axis=1)
    fvals = F(pts)
    oracle = v @ np.diag(fvals) @ vinv
    if computed is None:
        computed = _calculus_batch([F], tup, lam, region, None, tol)[0]
    d = vinv @ computed @ v
    eig_err = float(np.max(np.abs(np.diag(d) - fvals) / np.maximum(np.abs(fvals), 1e-300)))
    off = opnorm(d - np.diag(np.diag(d)))
    mat_err = opnorm(computed - oracle) / max(opnorm(oracle), 1e-300)
    return SpectralReport(eig_err, off, float(mat_err))


# ---------------------------------------------------------------------------
# Hardy-type diagnostics
# ---------------------------------------------------------------------------


def boundary_abs_integral(F, region, eps, tol=1e-7):
    """``Int |F| |d sigma|`` over the distinguished boundary shifted by
    ``eps``: the batch of one of :func:`h1_norm`."""
    return float(_abs_integrals(F, region, [eps], tol)[0])


def _abs_integrals(F, region, eps_grid, tol=1e-7):
    """(E,) boundary absolute integrals of ``F``, one per shift of ``eps_grid``,
    from one contour pass.  ``d(U + eps) = dU + eps`` and ``|d sigma|`` is
    translation invariant, so each round builds the unshifted contour once
    and member ``e`` sums ``|F|`` on its nodes translated by ``eps_e``
    against ``|weights|``: a rank-one ``F`` evaluates each axis factor once
    on all translated nodes, any other takes the dense contraction per
    member.  Each member is accepted in its own round."""
    shifts = _check_shift([ax.dual_sector for ax in region.axes], eps_grid, grid=True)
    _require_certificate(F)

    def value_of(c):
        weights = [np.abs(ax.weights) for ax in c.axes]
        if F.terms is not None and len(F.terms) == 1:  # |F| = prod_j |f_j|
            wf = [np.abs(_call_factor(f, (shift[:, None] + ax.nodes).ravel()))
                  .reshape(len(shift), len(w)) * w
                  for f, ax, shift, w in zip(F.terms[0], c.axes, shifts.T, weights)]
            # row sums, not a matrix product: a member's bits never depend on E
            sums = [x.sum(axis=1, keepdims=True) for x in wf]
            # one row of panels per member
            est = _panel_error(np.concatenate(_product_rule(wf, sums), axis=1).ravel())
            return math.prod(sums)[:, 0], est.reshape(len(shifts), -1).sum(1)
        values, parts = zip(*[
            _contract(lambda pts: np.abs(F(pts)), [ax.nodes + e for ax, e in zip(c.axes, eps)],
                      weights) for eps in shifts])
        return np.array(values).real, _parts_error(parts)

    return adaptive_contour(value_of, quadrature._contour(region, (0j,) * region.k), tol).value


def _require_certificate(F):
    """Refuse ``F`` unless it certifies exponential decay (a positive
    ``exp_rate``) or algebraic decay of power at least 2."""
    if F.exp_rate is not None and F.exp_rate > 0:
        return
    if F.decay is None:
        raise AdmissibilityError(f"{F.label} carries no decay certificate")
    if F.decay[1] < 2.0 - 1e-12:
        raise AdmissibilityError(
            f"{F.label} decay power {F.decay[1]} is below the integrable threshold 2")


def default_eps_grid(region, directions=8, moduli=None):
    """Dual-cone shift grid: per-axis directions swept uniformly inside the
    open dual sector, scaled by the given moduli."""
    moduli = 2.0 ** np.arange(-3, 3) if moduli is None else np.asarray(moduli, float)
    lo = np.array([-np.pi / 2 - ax.alpha for ax in region.axes])
    hi = np.array([np.pi / 2 - ax.beta for ax in region.axes])
    angles = lo + ((np.arange(directions) + 1.0) / (directions + 1.0))[:, None] * (hi - lo)
    dirs = np.cos(angles) + 1j * np.sin(angles)
    return list((moduli[:, None] * dirs[:, None, :]).reshape(-1, region.k))


def h1_norm(F, region, eps_grid=None, tol=1e-7):
    """Max of the boundary absolute integrals over the shift grid; a lower
    bound of the true sup, reported as such.  The whole grid is one contour
    pass with joint acceptance (see :func:`_abs_integrals`)."""
    grid = default_eps_grid(region) if eps_grid is None else eps_grid
    return float(np.max(_abs_integrals(F, region, grid, tol), initial=0.0))


def pointwise_bound_check(F, region, samples, norm_lower=None, tol=1e-7):
    """Worst ratio ``|F(zeta)| * prod dist(zeta_j, dU_j) * (2 pi)^k / norm``
    over the samples; at most 1 + slack when the norm bound is sharp."""
    if norm_lower is None:
        norm_lower = h1_norm(F, region, tol=tol)
    pts = np.asarray(samples, dtype=complex).reshape(len(samples), -1)
    outside = ~region.contains(pts)
    if outside.any():
        raise GeometryError(f"sample {pts[outside][0]} is not inside the region")
    dist = math.prod(ax.boundary_distance(pts[:, j]) for j, ax in enumerate(region.axes))
    vals = np.asarray(F(pts), dtype=complex)
    ratios = np.hypot(vals.real, vals.imag) * dist * (2 * np.pi) ** region.k / norm_lower
    return float(ratios.max()), ratios.tolist()


# ---------------------------------------------------------------------------
# outerness diagnostics (grid evidence only, never a certificate)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessSequence:
    fns: tuple


@dataclass(frozen=True)
class OuterReport:
    domination_ok: bool
    max_domination_violation: float
    converges: bool
    final_max_deviation: float
    min_witness_modulus: float

    @property
    def passed(self):
        return self.domination_ok and self.converges


def strongly_outer_check(F, witness, grid, boundary_grid=None):
    """Check the domination and quotient-convergence conditions of the
    witness sequence on the grid.

    This is grid evidence, not a proof: the report states consistency on
    the sampled points only.  The invertibility proxy is the minimum
    witness modulus on a boundary-approaching grid.
    """
    grid = np.asarray(grid)
    fvals = np.asarray(F(grid))
    max_viol = 0.0
    devs = []
    for fn in witness.fns:
        wvals = np.asarray(fn(grid))
        max_viol = max(max_viol, float(np.max(np.abs(fvals) - np.abs(wvals))))
        devs.append(np.abs(fvals / wvals - 1.0))
    domination_ok = max_viol <= 1e-12 * (1.0 + float(np.abs(fvals).max()))
    # monotone, and clear progress toward 1, not an absolute threshold
    converges = not any(np.any(b > a * 1.05 + 1e-14) for a, b in zip(devs[:-1], devs[1:])) \
        and bool(np.max(devs[-1]) <= 0.5 * np.max(devs[0]) + 1e-14)
    bgrid = grid if boundary_grid is None else np.asarray(boundary_grid)
    minmod = min(float(np.min(np.abs(np.asarray(fn(bgrid))))) for fn in witness.fns)
    return OuterReport(domination_ok, max_viol, converges, float(np.max(devs[-1])),
                       minmod)


def outer_diagnostic_disk(f, r_grid=None, t_grid=None):
    """Circle means of ``log|f|`` per radius plus the boundary mean.

    For an outer-type function the radial means approach the boundary
    mean; a singular factor keeps them strictly below (diagnostic only).
    Raises when a zero of ``f`` is detected on the grid.
    """
    r_grid = np.linspace(0.05, 0.95, 10) if r_grid is None else np.asarray(r_grid, float)
    t_grid = (np.arange(720) + 0.5) * (2 * np.pi / 720) if t_grid is None \
        else np.asarray(t_grid, float)
    means = []
    for r in r_grid:
        vals = np.abs(f(r * np.exp(1j * t_grid)))
        if np.any(vals < 1e-300):
            raise ZeroDivisionError("zero of f detected on the sampling grid")
        means.append(float(np.mean(np.log(vals))))
    bvals = np.abs(f(np.exp(1j * t_grid)))
    if np.any(bvals < 1e-300):
        raise ZeroDivisionError("zero of f detected on the boundary grid")
    boundary_mean = float(np.mean(np.log(bvals)))
    return np.asarray(means), boundary_mean


def interior_cauchy_value(F, region, eps, point, tol=1e-9):
    """Reproduce ``F(point)`` from its boundary values on the shifted
    distinguished boundary (the interior reproduction identity)."""
    point = per_axis(point, region.k, "point")
    _require_certificate(F)
    cq = ContourQuadrature.from_region(region, eps)
    kernel = separable_function([[lambda x, p=p: 1.0 / (p - x) for p in point]])
    g = product_function(F, kernel)
    pref = (2j * np.pi) ** -region.k
    return pref * integrate(g, cq, tol).value


def boundary_contour_integral(F, region, eps, tol=1e-9):
    """Plain ``Int F(sigma) d sigma`` over the shifted boundary (vanishes
    for integrable holomorphic integrands)."""
    _require_certificate(F)
    return integrate(F, ContourQuadrature.from_region(region, eps), tol).value


def resolvent_sup_on_contour(tup, lam, region, eps):
    """Sup of the resolvent-product norm over the nodes of the shifted
    boundary contour the calculus builds in its first round; the constant
    in the boundedness estimate."""
    lam = _validate_lambda(tup, lam, region.sectors)
    eps = _check_shift([ax.dual_sector for ax in region.axes], eps)
    cq = quadrature._contour(region, eps, _radius_floor(region, eps, tup, lam))
    sup = 1.0
    for j in range(tup.k):
        stack = resolvent_stack(tup.schur(j)[1], lam[j], cq.axes[j].nodes)  # same 2-norms
        sup = sup * float(np.max(np.linalg.norm(stack, 2, axis=(1, 2))))
    return sup
