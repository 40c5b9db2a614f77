"""Measure-backed linear functionals on product sectors.

A :class:`Functional` is a finite combination of

* atoms: point masses at ``eta`` in the closed product sector, and
* tensor ray densities: products over axes of exponential-polynomial
  line densities ``p_j(t) * exp(-s_j t) dt`` on the rays
  ``offset_j + t * exp(1j*omega_j)``, ``omega_j`` inside ``[alpha_j, beta_j]``
  and ``Re(s_j) > 0``.

This class is closed under convolution (the offset fields absorb atom
shifts) and has closed-form Fourier-Borel transforms, so every pairing
route below reduces to closed forms or one-dimensional quadratures.
The Fourier-Borel transform of a functional is ``z -> <e_{-z}, phi>``;
for sampled functions it is the ray-Laplace transform.

All values are immutable; every evaluation route is pure.
"""

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (GeometryError, ProductSector, _check_axis_count, _unit, complex_pairs,
                       make_region, per_axis)
from .quadrature import (_N0, ContourQuadrature, QuadratureError, _check_shift, _contract,
                         _cut_tail, _parts_error, _product, _ray_rule, _separable,
                         adaptive_contour, initial_radius, integrate, refine,
                         resolvent_contour_value, richardson)
from .semigroups import (SectorDomainError, _edge_growth, _validate_lambda, check_in_domain,
                         expm, orbit_integrals)

MAX_DEGREE = 4

WN_SCHEDULE = (8, 16, 32, 64, 128)
EPS_SCHEDULE = tuple(2.0 ** -m for m in range(7))


class RouteError(ValueError):
    """A pairing route's hypotheses are not met by the inputs."""


class NoAdmissibleAnchor(ValueError):
    """No anchor point satisfies the boundedness and domain constraints."""


def _horner(coeffs, x):
    """The polynomial ``sum_m coeffs[m] x**m`` by Horner's rule."""
    out = np.zeros_like(np.asarray(x, dtype=complex))
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _laplace(coeffs, u):
    """Laplace factor ``sum_m coeffs[m] m! / u**(m+1)``: the transform of
    ``sum_m coeffs[m] t**m exp(-u t)`` on a ray."""
    out = np.zeros_like(u)
    for m, c in enumerate(coeffs):
        if abs(c) > 0:
            out = out + c * math.factorial(m) / u ** (m + 1)
    return out


@dataclass(frozen=True)
class AxisDensity:
    """Exponential-polynomial density ``p(t) exp(-s t) dt`` on the ray of
    angle ``omega``; ``coeffs[m]`` multiplies ``t**m``."""

    omega: float
    s: complex
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "s", complex(self.s))
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if self.s.real <= 0:
            raise ValueError("density needs Re(s) > 0 for integrability on its ray")
        if not self.coeffs or all(abs(c) == 0 for c in self.coeffs):
            raise ValueError("density polynomial must be nonzero")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def min_degree(self):
        return next(m for m, c in enumerate(self.coeffs) if abs(c) > 0)

    def poly(self, t):
        return _horner(self.coeffs, t)

    def fb_factor(self, x):
        """Laplace factor ``sum_m coeffs[m] m! / (s + x e^{i omega})^(m+1)``."""
        return _laplace(self.coeffs, self.s + np.asarray(x, dtype=complex) * _unit(self.omega))

    def fb_factor_matrix(self, x):
        """``fb_factor`` evaluated at a matrix argument ``x``."""
        d = x.shape[0]
        u = self.s * np.eye(d, dtype=complex) + _unit(self.omega) * x
        uinv = np.linalg.inv(u)
        out = np.zeros_like(u)
        power = np.eye(d, dtype=complex)
        for m, c in enumerate(self.coeffs):
            power = power @ uinv
            if abs(c) > 0:
                out = out + c * math.factorial(m) * power
        return out


@dataclass(frozen=True)
class TensorDensity:
    weight: complex
    offset: tuple
    axes: tuple

    def __post_init__(self):
        object.__setattr__(self, "weight", complex(self.weight))
        object.__setattr__(self, "offset", tuple(complex(o) for o in self.offset))
        object.__setattr__(self, "axes", tuple(self.axes))
        if len(self.offset) != len(self.axes):
            raise ValueError("offset must have one entry per axis")


@dataclass(frozen=True)
class Functional:
    """Atoms plus tensor ray densities over a fixed product sector; ``_terms``
    lists both as ``(weight, offset, axes)`` tensor terms, atoms first with
    ``axes`` None, so density ``i`` is term ``len(atoms) + i``."""

    sectors: ProductSector
    atoms: tuple = ()
    densities: tuple = ()

    def __init__(self, sectors, atoms=(), densities=(), check_degree=True):
        if not isinstance(sectors, ProductSector):
            sectors = ProductSector(sectors)
        for s in sectors.sectors:
            if s.beta >= s.alpha + np.pi - 1e-12:
                raise ValueError("functional sectors need beta < alpha + pi per axis")
        norm_atoms = []
        for eta, w in atoms:
            eta = tuple(complex(e) for e in np.atleast_1d(np.asarray(eta, dtype=complex)))
            if len(eta) != sectors.k:
                raise ValueError("atom position must have one entry per axis")
            norm_atoms.append((eta, complex(w)))
        norm_dens = []
        for d in densities:
            if not isinstance(d, TensorDensity):
                raise TypeError("densities must be TensorDensity instances")
            if len(d.axes) != sectors.k:
                raise ValueError("density must have one axis factor per dimension")
            for j, (ax, s) in enumerate(zip(d.axes, sectors.sectors)):
                if not (s.alpha - 1e-12 <= ax.omega <= s.beta + 1e-12):
                    raise ValueError(f"ray direction {ax.omega} outside [alpha, beta] on axis {j}")
                if check_degree and ax.degree > MAX_DEGREE:
                    raise ValueError(f"density degree {ax.degree} exceeds {MAX_DEGREE}")
            norm_dens.append(d)
        object.__setattr__(self, "sectors", sectors)
        object.__setattr__(self, "atoms", tuple(norm_atoms))
        object.__setattr__(self, "densities", tuple(norm_dens))
        object.__setattr__(self, "_terms", tuple(
            [(w, eta, None) for eta, w in norm_atoms]
            + [(d.weight, d.offset, d.axes) for d in norm_dens]))
        pts = self._offsets  # one membership call per axis
        for j, s in enumerate(sectors.sectors):
            bad = np.flatnonzero(~s.contains(pts[:, j], closed=True, tol=1e-9))
            if bad.size and bad[0] < len(norm_atoms):
                raise ValueError(f"atom coordinate {pts[bad[0], j]} outside closed sector axis {j}")
            if bad.size:
                raise ValueError(f"density offset outside closed sector on axis {j}")

    @property
    def k(self):
        return self.sectors.k

    @property
    def _offsets(self):
        """(terms, k) array of the term offsets."""
        return np.array([o for _, o, _ in self._terms], dtype=complex).reshape(-1, self.k)

    def is_atomic(self):
        return not self.densities

    # -- Fourier-Borel transform --------------------------------------------

    def domain_contains(self, z):
        """True when ``z`` lies in the transform domain: every density must
        keep ``Re(s_j + z_j e^{i omega_j}) > 0`` (atoms are entire)."""
        z = per_axis(z, self.k, "z")
        for d in self.densities:
            for j, ax in enumerate(d.axes):
                if (ax.s + z[j] * _unit(ax.omega)).real <= 0.0:
                    return False
        return True

    def _domain_floor(self, j):
        """Bound of the transform domain on axis ``j``'s anti-bisector: the
        anchor ``r * exp(-1j*mid_j)`` lies in it exactly for ``r`` above the
        largest ``-Re(s) / cos(omega - mid_j)`` over the densities (``-inf``
        for none)."""
        mid = self.sectors.sectors[j].bisector_angle
        return max((-d.axes[j].s.real / np.cos(d.axes[j].omega - mid) for d in self.densities),
                   default=-np.inf)

    @property
    def fb_terms(self):
        """Separable (CP) form of the transform,
        ``fb(z) = sum_r prod_j fb_terms[r][j](z_j)``: one term per atom, then
        one per density, each a tuple of k per-axis factors with the
        weight folded into the first."""
        terms = [(w, [lambda x, e=e: np.exp(-x * e) for e in eta]) for eta, w in self.atoms]
        terms += [(d.weight, [lambda x, ax=ax, o=o: np.exp(-x * o) * ax.fb_factor(x)
                              for ax, o in zip(d.axes, d.offset)]) for d in self.densities]
        return tuple((lambda x, w=w, f=fs[0]: w * f(x),) + tuple(fs[1:]) for w, fs in terms)

    def fb(self, z):
        """Closed-form transform value at ``z`` of shape (k,) or (N, k).

        The closed form continues meromorphically past the domain, which
        :meth:`domain_contains` tests."""
        z = per_axis(z, self.k, "z", grid=True)
        out = _separable(self.fb_terms)(np.atleast_2d(z))
        return out[0] if z.ndim == 1 else out

    def fb_at_tuple(self, tup, lam, eps=None):
        """Transform evaluated at the commuting matrix argument
        ``(-lam_1 A_1 + eps_1 I, ..., -lam_k A_k + eps_k I)``, ``eps`` in the
        closed dual cone."""
        if self.k != tup.k:
            raise SectorDomainError(f"a functional of {self.k} axes for a tuple of {tup.k}")
        lam = _validate_lambda(tup, lam)
        eps = (0j,) * self.k if eps is None else _check_shift(self.sectors.dual().sectors, eps)
        dim = tup.dim
        ident = np.eye(dim, dtype=complex)
        args = [-lam[j] * tup.matrices[j] + eps[j] * ident for j in range(self.k)]
        exps = expm(np.stack(args), -self._offsets)  # Exp(-offset_j * args_j), one call
        out = np.zeros((dim, dim), dtype=complex)
        for (w, _, axes), axis_exps in zip(self._terms, exps):
            term = w * ident
            for j, e in enumerate(axis_exps):
                term = term @ e if axes is None else term @ e @ axes[j].fb_factor_matrix(args[j])
            out = out + term
        return out

    # -- decay bookkeeping ---------------------------------------------------

    def fb_integrable_on_cone(self, extra_powers=0.0):
        """Whether ``|FB|`` is integrable on every axis of a shifted dual-cone
        boundary, after multiplying axis ``j`` by an extra
        ``|sigma_j|^(-extra_powers[j])`` (a scalar applies to every axis).

        A term whose exponential factor decays along both dual-cone edges
        is integrable; any other decays like ``|sigma_j|^-power``, with
        power 0 for an atom and the lowest degree plus one for a density."""
        extra = np.broadcast_to(np.asarray(extra_powers, dtype=float), (self.k,))
        for j, sec in enumerate(self.sectors.sectors):
            edges = [_unit(-np.pi / 2 - sec.alpha), _unit(np.pi / 2 - sec.beta)]
            for _, o, axes in self._terms:
                power = 0.0 if axes is None else axes[j].min_degree + 1.0
                if min((e * o[j]).real for e in edges) <= 1e-12 \
                        and power + extra[j] < 2.0 - 1e-12:
                    return False
        return True

    # -- serialization --------------------------------------------------------

    def to_json(self):
        return {
            "alpha": [s.alpha for s in self.sectors.sectors],
            "beta": [s.beta for s in self.sectors.sectors],
            "atoms": [
                {"eta": [[e.real, e.imag] for e in eta], "w": [w.real, w.imag]}
                for eta, w in self.atoms
            ],
            "densities": [
                {
                    "w": [d.weight.real, d.weight.imag],
                    "eta": [[o.real, o.imag] for o in d.offset],
                    "omega": [ax.omega for ax in d.axes],
                    "s": [[ax.s.real, ax.s.imag] for ax in d.axes],
                    "poly": [[[c.real, c.imag] for c in ax.coeffs] for ax in d.axes],
                }
                for d in self.densities
            ],
        }

    @staticmethod
    def from_json(obj):
        """The functional of :meth:`to_json`'s dict or text.  Each ``[re, im]``
        pair is read by :func:`~sectorcalc.geometry.complex_pairs` (per axis for
        ``poly``), and each density's ``omega`` by :func:`~sectorcalc.geometry.per_axis`;
        a density's ``w`` (default 1) and ``eta`` (default 0) are optional."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        _check_axis_count(obj["alpha"], beta=obj["beta"])
        sectors = ProductSector(list(zip(obj["alpha"], obj["beta"])))
        atoms = [(complex_pairs(a["eta"], "eta", 2), complex(complex_pairs(a["w"], "w", 1)))
                 for a in obj.get("atoms", ())]
        densities = []
        for d in obj.get("densities", ()):
            omega = per_axis(d["omega"], sectors.k, "omega", float).tolist()
            k, s, poly = len(omega), complex_pairs(d["s"], "s", 2), d["poly"]
            if len(s) != k or len(poly) != k:
                raise GeometryError(f"'s' and 'poly' need one entry per 'omega' ({k})")
            axes = [AxisDensity(om, sj, complex_pairs(p, "poly", 2))
                    for om, sj, p in zip(omega, s, poly)]
            w = complex(complex_pairs(d.get("w", [1.0, 0.0]), "w", 1))
            densities.append(TensorDensity(
                w, complex_pairs(d.get("eta", [[0.0, 0.0]] * k), "eta", 2), axes))
        return Functional(sectors, atoms, densities)


def dirac(sectors, eta, w=1.0):
    """Point mass at ``eta``."""
    return Functional(sectors, atoms=[(eta, w)])


def bisector_density(sectors, s=None, coeffs=None, weight=1.0):
    """Tensor density ``prod_j p_j(t) exp(-s_j t) dt`` along the sector
    bisector rays."""
    if not isinstance(sectors, ProductSector):
        sectors = ProductSector(sectors)
    k = sectors.k
    s = per_axis(np.ones(k) if s is None else s, k, "s")
    coeffs = [[1.0]] * k if coeffs is None else coeffs
    _check_axis_count(s, coeffs=coeffs)
    axes = [AxisDensity(sec.bisector_angle, s[j], coeffs[j])
            for j, sec in enumerate(sectors.sectors)]
    return Functional(sectors, densities=[TensorDensity(weight, [0j] * k, axes)])


def _wn(sectors, n, z):
    """The squared-rational weight ``zeta -> prod_j n^2 / (n + (zeta_j - z_j)
    e^{i mid_j})^2`` as a separable function; modulus at most 1 on the
    closed dual product sector translated by ``z``."""
    return _separable([[lambda x, u=_unit(s.bisector_angle), zj=zj:
                        n ** 2 / (n + (x - zj) * u) ** 2 for s, zj in zip(sectors.sectors, z)]])


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _convolve_axis(a1, a2):
    """1-D convolution of two exponential-polynomial ray densities with the
    same direction; returns a list of AxisDensity terms."""
    if abs(a1.omega - a2.omega) > 1e-12:
        raise RouteError("density convolution requires matching ray directions")
    if abs(a1.s - a2.s) <= 1e-12 * (1.0 + abs(a1.s)):
        # t^a * t^b -> a! b! / (a+b+1)! t^(a+b+1)
        out = [0j] * (a1.degree + a2.degree + 2)
        for a, ca in enumerate(a1.coeffs):
            for b, cb in enumerate(a2.coeffs):
                if abs(ca) and abs(cb):
                    out[a + b + 1] += ca * cb * math.factorial(a) * math.factorial(b) \
                        / math.factorial(a + b + 1)
        return [AxisDensity(a1.omega, a1.s, out)]
    # distinct exponents: partial fractions of the product of Laplace images
    c1 = [0j] * (a1.degree + a2.degree + 2)
    c2 = [0j] * (a1.degree + a2.degree + 2)
    gap12 = a2.s - a1.s
    for a, ca in enumerate(a1.coeffs):
        for b, cb in enumerate(a2.coeffs):
            if not (abs(ca) and abs(cb)):
                continue
            amp = ca * cb * math.factorial(a) * math.factorial(b)
            m, n = a + 1, b + 1
            # 1/((x+p)^m (x+q)^n) = sum_i A_i/(x+p)^i + sum_j B_j/(x+q)^j
            for i in range(1, m + 1):
                coef = amp * (-1) ** (m - i) * math.comb(n + m - i - 1, m - i) \
                    / gap12 ** (n + m - i)
                c1[i - 1] += coef / math.factorial(i - 1)
            for jj in range(1, n + 1):
                coef = amp * (-1) ** (n - jj) * math.comb(m + n - jj - 1, n - jj) \
                    / (-gap12) ** (m + n - jj)
                c2[jj - 1] += coef / math.factorial(jj - 1)
    terms = []
    if any(abs(c) > 0 for c in c1):
        terms.append(AxisDensity(a1.omega, a1.s, _trim(c1)))
    if any(abs(c) > 0 for c in c2):
        terms.append(AxisDensity(a2.omega, a2.s, _trim(c2)))
    return terms


def _trim(coeffs):
    end = len(coeffs)
    while end > 1 and abs(coeffs[end - 1]) == 0:
        end -= 1
    return coeffs[:end]


def convolve(phi1, phi2):
    """Convolution within one sector class: atoms add, an atom shifts a
    density, same-direction densities convolve in closed form.  The
    transform is multiplicative on the common domain."""
    if phi1.k != phi2.k:
        raise ValueError("functionals must share the dimension")
    for s1, s2 in zip(phi1.sectors.sectors, phi2.sectors.sectors):
        if abs(s1.alpha - s2.alpha) > 1e-12 or abs(s1.beta - s2.beta) > 1e-12:
            raise RouteError("convolution across different sector classes is unsupported")
    terms = []
    for w1, o1, a1 in phi1._terms:
        for w2, o2, a2 in phi2._terms:
            offset = tuple(np.asarray(o1) + np.asarray(o2))
            if a1 is None or a2 is None:  # an atom shifts the other term
                terms.append((w1 * w2, offset, a2 if a1 is None else a1))
            else:
                terms += [(w1 * w2, offset, axes)
                          for axes in itertools.product(*map(_convolve_axis, a1, a2))]
    return _from_terms(phi1.sectors, terms)


def _from_terms(sectors, terms):
    """The functional of ``(weight, offset, axes)`` terms, ``axes`` None for
    an atom; degrees are not capped."""
    return Functional(sectors, [(o, w) for w, o, a in terms if a is None],
                      [TensorDensity(w, o, a) for w, o, a in terms if a is not None],
                      check_degree=False)


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------


def anchor_for(tup, lam, sectors, phi=None, strict=False, margin=1.0):
    """Anchor ``z`` on the anti-bisector lines with the weighted orbit
    bounded (strictly vanishing when ``strict``) and, when ``phi`` is
    given, ``z`` inside its transform domain.

    Candidates move along ``exp(-1j*(alpha_j+beta_j)/2)``, which sweeps
    all the edge half-plane constraints monotonically; feasibility then
    reduces to an interval per axis.
    """
    return _anchor(tup, _validate_lambda(tup, lam, sectors), sectors, phi, strict, margin)


def _anchor(tup, lam, sectors, phi=None, strict=False, margin=1.0):
    """:func:`anchor_for` of the checked ``lam``."""
    z = np.empty(sectors.k, dtype=complex)
    for j, (sec, edges) in enumerate(zip(sectors.sectors, _edge_growth(tup, lam, sectors))):
        mid = sec.bisector_angle
        u = _unit(-mid)
        # the N-set boundary along the anti-bisector
        r_hi = min(-h / np.cos(omega - mid) for omega, h in edges)
        r_lo = -np.inf if phi is None else phi._domain_floor(j)
        if r_lo >= r_hi - 1e-12:
            raise NoAdmissibleAnchor(
                f"axis {j}: domain bound {r_lo:.6g} meets growth bound {r_hi:.6g}")
        if np.isfinite(r_lo):
            r = r_hi - min(margin, 0.5 * (r_hi - r_lo))
        else:
            r = r_hi - margin
        if not strict and not np.isfinite(r_lo):
            r = min(r_hi, r + 0.5 * margin)
        z[j] = r * u
    return z


# ---------------------------------------------------------------------------
# sampled / closed-form test functions on the sector
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectorFunction:
    """A function on the closed product sector, with optional closed-form
    ray-Laplace transform ``fb`` and decay certificates.

    ``sector_decay``: per-axis envelope of ``|f|`` along the sector edges,
    ``("exp", rate)`` or ``("alg", power)`` or None (unknown).
    ``fb_powers``: per-axis algebraic decay powers of ``fb`` at infinity.
    ``fb_pole_shift``: per-axis pole locations of ``sigma -> fb(-sigma)``.
    """

    fun: object
    fb: object = None
    sector_decay: tuple = None
    fb_powers: tuple = None
    fb_pole_shift: tuple = None
    label: str = "f"

    def __call__(self, pts):
        return self.fun(pts)


def exp_poly_function(sectors, w, coeffs=None, label=None):
    """``f(zeta) = prod_j p_j(zeta_j) exp(-w_j zeta_j)`` with closed-form
    transform ``prod_j sum_m c_m m! / (lam_j + w_j)^(m+1)``."""
    if not isinstance(sectors, ProductSector):
        sectors = ProductSector(sectors)
    w = per_axis(w, sectors.k, "w")
    coeffs = [[1.0]] * sectors.k if coeffs is None else [list(c) for c in coeffs]
    _check_axis_count(w, coeffs=coeffs)
    fun = _separable([[lambda x, c=c, wj=wj: _horner(c, x) * np.exp(-wj * x)
                       for c, wj in zip(coeffs, w)]])
    fb = _separable([[lambda x, c=c, wj=wj: _laplace(c, x + wj) for c, wj in zip(coeffs, w)]])

    decay = []
    for j, s in enumerate(sectors.sectors):
        rate = min((w[j] * _unit(s.alpha)).real, (w[j] * _unit(s.beta)).real)
        decay.append(("exp", rate) if rate > 1e-12 else None)
    powers = tuple(float(next(m for m, c in enumerate(c_ax) if abs(c) > 0) + 1)
                   for c_ax in coeffs)
    name = label or f"exp_poly(w={w.tolist()})"
    return SectorFunction(fun, fb, tuple(decay), powers, tuple(w), name)


# ---------------------------------------------------------------------------
# Cauchy transform
# ---------------------------------------------------------------------------


def _cauchy_window(lam_j, sector):
    """Ray angle for the transform-side Cauchy representation: the middle
    of the window where ``cos(arg(lam) + omega) < 0`` intersected with the
    dual angles, where ``exp(lam * sigma)`` decays at the rate
    ``-cos(arg(lam) + omega) * |lam| > 0``.  ``lam_j`` lies outside the
    closed sector (:func:`cauchy_transform` refuses any other), so its
    angle is taken in ``(beta, alpha + 2 pi]``."""
    a, b = sector.alpha, sector.beta
    ang = float(np.angle(lam_j))
    while ang <= b + 1e-14:
        ang += 2 * np.pi
    while ang > a + 2 * np.pi + 1e-14:
        ang -= 2 * np.pi
    lo, hi = max(np.pi / 2 - ang, -np.pi / 2 - a), min(3 * np.pi / 2 - ang, np.pi / 2 - b)
    if hi < lo:
        raise RouteError(f"empty angle window for lambda={lam_j}")
    return 0.5 * (lo + hi)


def cauchy_transform(phi, lam, z=None, route="measure", tol=1e-10):
    """Weighted Cauchy transform ``C_z(phi)(lam)`` for ``lam`` outside every
    closed sector axis.

    Both routes are tensor ray integrals (:func:`_tensor_density_integral`).
    Route "measure" pairs the Cauchy kernel ``zeta -> prod_j (zeta_j -
    lam_j)^-1`` with the measure weighted by ``exp(-z.zeta)``
    (:func:`pair_function`);
    route "fb" integrates ``exp(lam.sigma) FB(phi)(sigma+z)`` along rays in
    the admissible angle windows, as a tensor density of weight ``exp(lam_j
    sigma_j) dsigma_j`` per axis.  Both carry the ``(2*pi*i)^-k`` prefactor
    and agree within quadrature tolerance.
    """
    lam = per_axis(lam, phi.k, "lam")
    z = np.zeros(phi.k, dtype=complex) if z is None else per_axis(z, phi.k, "z")
    if not phi.domain_contains(z):
        raise RouteError(f"anchor {z} outside the transform domain")
    for j, s in enumerate(phi.sectors.sectors):
        if s.contains(lam[j], closed=True, tol=1e-12):
            raise RouteError(f"lambda[{j}]={lam[j]} inside the closed sector")
    pref = (2j * np.pi) ** -phi.k
    if route == "measure":
        # the weight exp(-z.zeta) goes into the measure: Re(s_j + z_j e^{i omega_j}) > 0
        # in the domain, so each weighted density's own rate certifies its ray
        weighted = _from_terms(phi.sectors, [
            (w * np.exp(-np.dot(z, o)), o, None if axes is None else
             [replace(ax, s=ax.s + zj * _unit(ax.omega)) for ax, zj in zip(axes, z)])
            for w, o, axes in phi._terms])
        kernel = _separable([[lambda x, lj=lj: 1.0 / (x - lj) for lj in lam]])
        return pref * pair_function(SectorFunction(kernel), weighted, "measure", tol)
    if route == "fb":
        fb = _separable([[lambda x, f=f, zj=zj: f(x + zj) for f, zj in zip(term, z)]
                         for term in phi.fb_terms])
        omegas = [_cauchy_window(lj, sec) for lj, sec in zip(lam, phi.sectors.sectors)]
        rays = TensorDensity(1.0, [0j] * phi.k, [AxisDensity(w, -lj * _unit(w), [_unit(w)])
                                                 for lj, w in zip(lam, omegas)])
        return pref * _tensor_density_integral(fb, rays, tol).value
    raise RouteError(f"unknown cauchy route {route!r}")


# ---------------------------------------------------------------------------
# pairing with sector functions
# ---------------------------------------------------------------------------


def _tensor_density_integral(fvec, d, tol):
    """Tensor ray integral of ``fvec`` against one tensor density; each
    axis is truncated where its exponential envelope drops below tol/100,
    and the truncations double with the node density each round; each
    axis's estimate adds its cut tail at the envelope's rate."""
    r0 = [initial_radius(ax.s.real, tol) for ax in d.axes]

    def value_at(n_per_unit):
        nodes, weights, rule = [], [], []
        for j, ax in enumerate(d.axes):
            t, wt = _ray_rule(r0[j], n_per_unit)
            nodes.append(d.offset[j] + t * _unit(ax.omega))
            weights.append(ax.poly(t) * np.exp(-ax.s * t) * wt)
            rule.append(wt)
        value, parts = _contract(fvec, nodes, weights)
        return value, math.prod(len(x) for x in nodes), _parts_error([parts])[0] + sum(
            _cut_tail(g, rule[j], nodes[j], d.axes[j].s.real) for j, g, _ in parts)

    return refine(value_at, _N0, tol, "tensor density integral")


def _dual_cone_contour(phi, z, extra_powers):
    """Dual-cone contour at anchor ``z`` for a transform-side integrand
    that decays ``extra_powers`` faster per axis than ``phi.fb``."""
    if not phi.fb_integrable_on_cone(extra_powers):
        raise RouteError("transform is not integrable on the contour "
                         f"(extra decay powers {np.asarray(extra_powers).tolist()})")
    sectors = phi.sectors
    region = make_region([s.alpha for s in sectors.sectors],
                         [s.beta for s in sectors.sectors], z)
    return ContourQuadrature.from_region(region, [0.0] * phi.k)


def _check_fb_pole_clearance(f, phi, z, eps):
    if f.fb_pole_shift is None:
        return
    for j, s in enumerate(phi.sectors.sectors):
        pole = f.fb_pole_shift[j] + eps[j]
        dual = s.dual()
        if not dual.contains(pole - z[j], closed=False, tol=1e-9):
            raise RouteError(
                f"transform pole {pole} of {f.label} not strictly inside the "
                f"shifted dual cone of axis {j}")


def pair_function(f, phi, route="measure", tol=1e-9, z=None):
    """Pairing ``<f, phi>`` by ``route``: ``measure`` (reference; direct
    integration against the measure, no anchor ``z``) or a limit route of
    ``_LIMITS``.  A limit route is only as close to ``measure`` as its fixed
    schedule reaches, whatever ``tol``: about 1e-10 for ``fb_eps`` and 3e-7
    to 6e-7 for ``wn_limit`` on the test functionals, since a row's slack is
    a Cauchy check on the extrapolant, not the accuracy returned (see the
    limit routes' item in ROADMAP.md).
    """
    sectors = phi.sectors
    if route == "measure":
        if z is not None:
            raise RouteError("route measure takes no anchor z")
        total = 0j
        for eta, w in phi.atoms:
            total += w * complex(np.asarray(f(np.asarray(eta, dtype=complex)[None, :]))[0])
        for d in phi.densities:
            total += d.weight * _tensor_density_integral(f.fun, d, tol).value
        return total

    if route in ("fb_eps", "fb_direct", "wn_limit"):
        if f.fb is None:
            raise RouteError(f"route {route} needs a closed-form transform for {f.label}")
        # z = 0 is valid for this measure class: every density has Re(s) > 0
        z = np.zeros(phi.k, dtype=complex) if z is None else per_axis(z, phi.k, "z")
        if not phi.domain_contains(z):
            raise RouteError(f"anchor {z} outside the transform domain")
        if route != "wn_limit" and not phi.fb_integrable_on_cone():
            raise RouteError("transform of the functional is not integrable on the contour")
        if route == "fb_direct" and (f.sector_decay is None or any(
                d is None or (d[0] == "alg" and d[1] < 2.0 - 1e-12) for d in f.sector_decay)):
            raise RouteError(f"{f.label} lacks an integrable boundary certificate")
        pref = (2j * np.pi) ** -phi.k

        def reflected(eps):
            _check_fb_pole_clearance(f, phi, z, eps)
            return _reflected(f.fb, eps)

        value = _transform_route(
            phi, z, np.zeros(phi.k) if f.fb_powers is None else np.asarray(f.fb_powers, float),
            reflected, lambda g, cq, eps: pref * integrate(g, cq, tol).value)
        return _limit(route, value, np.array([s.turn for s in sectors.sectors]), tol)

    if route == "cauchy":
        return _limit(route, lambda eta, n: pair_translated_cauchy(f, phi, eta, z=z, tol=tol),
                      np.array([_unit(s.bisector_angle) for s in sectors.sectors]), tol)

    raise RouteError(f"unknown pairing route {route!r}")


def _reflected(fun, eps):
    """``zeta -> fun(eps - zeta)`` on (M, k) points, separable when ``fun`` is."""
    terms = getattr(fun, "terms", None)
    if terms is None:
        return lambda pts: np.asarray(fun(eps[None, :] - pts), dtype=complex)
    return _separable([[lambda x, h=h, e=e: h(e - x) for h, e in zip(term, eps)]
                       for term in terms])


def _transform_route(phi, z, base, factor, integrator):
    """The contour value ``(eps, n) -> integrator(g, cq, eps)`` of a route at
    anchor ``z``: ``g = FB(phi) * factor(eps) * W_n`` (no ``factor`` when None,
    no ``W_n`` when n is 0) on the dual-cone contour for ``base`` extra decay
    powers, 2 more with ``W_n``."""
    fb = _separable(phi.fb_terms)

    def value(eps, n):
        fns = [fb, *([factor(eps)] if factor else []), *([_wn(phi.sectors, n, z)] if n else [])]
        cq = _dual_cone_contour(phi, z, base + (2.0 if n else 0.0))
        return integrator(_product(*fns) if len(fns) > 1 else fb, cq, eps)

    return value


# Every route but ``measure`` is one limit of contour values ``value(eps, n)``,
# route -> (start, shifts, wn, slack): the values at ``start * m * u``, m over
# the first ``shifts`` of EPS_SCHEDULE and ``u`` the route's unit bisector, each
# first extrapolated over n in WN_SCHEDULE when ``wn``, go into one Richardson
# limit, refused unless its residual is below ``slack * tol * (1 + |limit|)``:
# a Cauchy check, not the accuracy returned.  No shifts: one value at shift 0.
_LIMITS = {
    "fb_direct": (0.0, 0, False, None),  # pair_function; both integrability certificates
    "fb_eps": (0.5, 7, False, 1e2),  # f.fb shifted along the dual bisector
    "wn_limit": (0.5, 7, True, 1e3),  # the same times W_n: a double limit
    "cauchy": (0.25, 7, False, 1e2),  # f translated along the sector bisector
    "resolvent_contour": (0.0, 0, False, None),  # pair_semigroup; a strict anchor
    "eps_shift": (0.25, 7, False, 1e3),  # resolvent arguments shifted along the dual bisector
    "regularized": (0.25, 5, True, 1e4),  # the same times W_n; any bounded-orbit anchor
}


def _limit(route, value, direction, tol):
    """The limit of ``value(eps, n)`` by ``route``'s ``_LIMITS`` row, along ``direction``."""
    start, shifts, wn, slack = _LIMITS[route]
    if not shifts:
        return value(np.zeros(len(direction), dtype=complex), 0)
    vals = [richardson([value(start * m * direction, n) for n in WN_SCHEDULE])[0] if wn
            else value(start * m * direction, 0) for m in EPS_SCHEDULE[:shifts]]
    limit, residual = richardson(vals)
    if residual > slack * tol * (1 + np.linalg.norm(limit)):
        raise RouteError(f"route {route}: extrapolant is not Cauchy (residual {residual:.3e})")
    return limit


def pair_translated_cauchy(f, phi, eta, z=None, tol=1e-9):
    """Translated pairing ``<f(. + eta), phi>`` through the weighted Cauchy
    kernel on the sector boundary; atomic functionals, nondegenerate axes."""
    sectors = phi.sectors
    for s in sectors.sectors:
        if s.is_ray:
            raise RouteError("boundary-kernel route needs alpha < beta on every axis")
    if not phi.is_atomic():
        raise RouteError("boundary-kernel route implemented for atomic functionals")
    eta = per_axis(eta, phi.k, "eta")
    z = np.zeros(phi.k, dtype=complex) if z is None else per_axis(z, phi.k, "z")
    if not sectors.contains(eta, closed=False):
        raise RouteError("translation must be strictly inside the open product sector")
    pref = (2j * np.pi) ** -phi.k
    if f.sector_decay is None:
        raise RouteError(f"{f.label} carries no boundary decay certificate")
    # per-axis rate of the certified envelope exp(-rate * |sigma|) of the
    # anchor-weighted integrand along the sector edges (0 for algebraic
    # decay, which no growing anchor weight leaves integrable)
    rates = np.zeros(phi.k)
    for j, dec in enumerate(f.sector_decay):
        if dec is None:
            raise RouteError(f"{f.label} lacks a boundary decay certificate on axis {j}")
        exp = dec[0] == "exp"
        if not exp and dec[1] <= 0.0:  # with the kernel's 1/sigma the tail needs power > 1
            raise QuadratureError("algebraic decay needs p > 1 for a convergent tail")
        growth = max(0.0, (z[j] * _unit(sectors.sectors[j].alpha)).real,
                     (z[j] * _unit(sectors.sectors[j].beta)).real)
        rates[j] = dec[1] - growth if exp else 0.0
        if rates[j] <= 0 and (exp or growth > 0):
            raise RouteError("anchor weight destroys the boundary decay")
    resolution = -np.log(np.finfo(float).eps)

    def cz(lams):
        out = np.zeros(lams.shape[0], dtype=complex)
        for eta_a, w in phi.atoms:
            term = np.full(lams.shape[0], w * np.exp(-np.dot(z, eta_a)), dtype=complex)
            for j in range(phi.k):
                term = term / (eta_a[j] - lams[:, j])
            out = out + term
        return pref * out

    def g(pts):
        shifted = pts - eta[None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.exp(shifted @ z) * cz(shifted) * np.asarray(f(pts), dtype=complex)
        # far out on the mapped tails the weight overflows while f underflows
        # to 0; a non-finite value is dropped only where the certified
        # envelope is below double resolution, and refused anywhere else
        drop = ~np.isfinite(vals) & (np.abs(pts) @ rates > resolution)
        return np.where(drop, 0.0, vals)

    # contour along the sector boundary: swap the angle roles so the path
    # builder emits rays at angles alpha_j (incoming) and beta_j (outgoing)
    region = make_region([-np.pi / 2 - s.alpha for s in sectors.sectors],
                         [np.pi / 2 - s.beta for s in sectors.sectors],
                         [0.0] * phi.k)
    return integrate(g, ContourQuadrature.from_region(region, [0.0] * phi.k), tol).value


# ---------------------------------------------------------------------------
# pairing with semigroup orbits
# ---------------------------------------------------------------------------


def pair_semigroup(tup, lam, phi, route="measure", tol=1e-9):
    """Pairing ``<T_(lam), phi>`` of the scaled semigroup orbit with the
    functional, as a matrix in the algebra generated by the tuple.

    Routes: ``measure`` (reference; atoms evaluate the semigroup, tensor
    densities become products of one-dimensional orbit integrals) or a
    limit route of ``_LIMITS`` over dual-cone contours against the resolvent
    product, anchored by :func:`anchor_for`: ``regularized``, over 5 shifts,
    stays about 1e-6 off ``measure`` whatever ``tol``; ``eps_shift`` takes 7.
    """
    sectors = phi.sectors
    lam = _validate_lambda(tup, lam, sectors)

    if route == "measure":
        _anchor(tup, lam, sectors, phi, strict=False)  # existence gate
        k, dim = tup.k, tup.dim
        # every term's points lam_j offset_j: one membership call per axis,
        # one expm call for all of them
        pts = lam * phi._offsets
        for j in range(k):
            check_in_domain(tup, j, pts[:, j])
        factors = expm(np.stack(tup.matrices), pts)
        axes = [(j, ax) for _, _, a in phi._terms if a is not None for j, ax in enumerate(a)]
        if axes:
            # one ray integral for every density on every axis; a density's
            # factor on axis j is its offset's value times that integral
            orbit = orbit_integrals(
                tup, [j for j, _ in axes], [lam[j] * _unit(ax.omega) for j, ax in axes],
                [lambda ts, ax=ax: ax.poly(ts) * np.exp(-ax.s * ts) for _, ax in axes],
                min(ax.s.real - tup.abscissa(j, ax.omega, lam[j]) for j, ax in axes), tol)
            n_atoms = len(phi.atoms)
            factors[n_atoms:] = factors[n_atoms:] @ orbit.reshape(-1, k, dim, dim)
        total = np.zeros((dim, dim), dtype=complex)
        for (w, _, _), axis_factors in zip(phi._terms, factors):
            term = w * np.eye(dim, dtype=complex)
            for f in axis_factors:
                term = term @ f
            total += term
        return total

    if route in ("resolvent_contour", "eps_shift", "regularized"):
        # only the direct route needs the vanishing-orbit anchor; the
        # shifted and regularized routes work from a bounded-orbit anchor
        z = _anchor(tup, lam, sectors, phi, strict=route == "resolvent_contour")
        if route != "regularized" and not phi.fb_integrable_on_cone():
            raise RouteError("transform of the functional is not integrable on the contour")
        pref = (-1.0) ** tup.k * (2j * np.pi) ** -tup.k
        schurs = [tup.schur(j) for j in range(tup.k)]
        value = _transform_route(phi, z, 1.0, None, lambda g, cq, eps: pref * adaptive_contour(
            lambda c: resolvent_contour_value((g,), schurs, lam, c, node_offsets=eps),
            cq, tol).value[0])
        return _limit(route, value, np.array([s.turn for s in sectors.sectors]), tol)

    raise RouteError(f"unknown semigroup pairing route {route!r}")


def fb_of_orbit(tup, lam, z, zeta, u, tol=1e-10):
    """Transform of the weighted orbit ``e_z T(lam .) u`` at ``zeta``: the
    defining tensor ray integral, member j on axis j at its best angle.
    It equals ``(-1)^k prod_j ((z_j - zeta_j) I + lam_j A_j)^{-1} u``."""
    z, zeta = per_axis(z, tup.k, "z"), per_axis(zeta, tup.k, "zeta")
    u = np.asarray(u, dtype=complex)
    lam = _validate_lambda(tup, lam)
    best = [max(((((zeta[j] - z[j]) * _unit(w)).real - tup.abscissa(j, w, lam[j]), w)
                 for w in np.linspace(sec.alpha, sec.beta, 7)), key=lambda p: p[0])
            for j, sec in enumerate(tup.sectors.sectors)]
    dirs = [_unit(w) for _, w in best]
    orbits = orbit_integrals(
        tup, list(range(tup.k)), [lam[j] * d for j, d in enumerate(dirs)],
        [lambda ts, j=j, d=d: np.exp((z[j] - zeta[j]) * ts * d) for j, d in enumerate(dirs)],
        min(rate for rate, _ in best), tol)
    x = u
    for j in reversed(range(tup.k)):
        x = dirs[j] * orbits[j] @ x
    return x
