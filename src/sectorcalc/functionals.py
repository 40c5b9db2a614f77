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

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ProductSector, _unit, make_region
from .quadrature import (ContourQuadrature, QuadratureError, _contract,
                         adaptive_contour, initial_radius, ray_integral, ray_nodes,
                         resolvent_contour_value, richardson, tensor_sum)
from .semigroups import DivergenceError, GrowthProfile, evaluate, expm

MAX_DEGREE = 4

WN_SCHEDULE = (8, 16, 32, 64, 128)
EPS_SCHEDULE = tuple(2.0 ** -m for m in range(7))


class RouteError(ValueError):
    """A pairing route's hypotheses are not met by the inputs."""


class NoAdmissibleAnchor(ValueError):
    """No anchor point satisfies the boundedness and domain constraints."""


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
        out = np.zeros_like(np.asarray(t, dtype=complex))
        for m, c in list(enumerate(self.coeffs))[::-1]:
            out = out * t + c
        return out

    def fb_factor(self, x):
        """Laplace factor ``sum_m coeffs[m] m! / (s + x e^{i omega})^(m+1)``."""
        u = self.s + np.asarray(x, dtype=complex) * _unit(self.omega)
        out = np.zeros_like(u)
        for m, c in enumerate(self.coeffs):
            if abs(c) > 0:
                out = out + c * math.factorial(m) / u ** (m + 1)
        return out

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
class FBDomainInfo:
    """Anchor points of a functional's transform domain; every anchor plus
    any closed dual-cone offset stays inside the domain."""

    functional: object
    anchors: tuple

    def contains(self, z):
        return self.functional.domain_contains(z)


@dataclass(frozen=True)
class Functional:
    """Atoms plus tensor ray densities over a fixed product sector."""

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
            for j, s in enumerate(sectors.sectors):
                if not s.contains(eta[j], closed=True, tol=1e-9):
                    raise ValueError(f"atom coordinate {eta[j]} outside closed sector axis {j}")
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
                if not s.contains(d.offset[j], closed=True, tol=1e-9):
                    raise ValueError(f"density offset outside closed sector on axis {j}")
            norm_dens.append(d)
        object.__setattr__(self, "sectors", sectors)
        object.__setattr__(self, "atoms", tuple(norm_atoms))
        object.__setattr__(self, "densities", tuple(norm_dens))

    @property
    def k(self):
        return self.sectors.k

    def is_atomic(self):
        return not self.densities

    # -- Fourier-Borel transform --------------------------------------------

    def domain_contains(self, z, margin=0.0):
        """True when ``z`` lies in the transform domain: every density must
        keep ``Re(s_j + z_j e^{i omega_j}) > margin`` (atoms are entire)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        for d in self.densities:
            for j, ax in enumerate(d.axes):
                if (ax.s + z[j] * _unit(ax.omega)).real <= margin:
                    return False
        return True

    def domain_info(self):
        """Anchor points whose shifted dual cones lie inside the transform
        domain, generated from the density decay bounds (atoms impose no
        constraint).  The anchors absorb closed dual-cone offsets."""
        anchors = []
        if self.domain_contains(np.zeros(self.k)):
            anchors.append(np.zeros(self.k, dtype=complex))
        tight = np.zeros(self.k, dtype=complex)
        for j, sec in enumerate(self.sectors.sectors):
            mid = sec.bisector_angle
            r_lo = -np.inf
            for d in self.densities:
                ax = d.axes[j]
                r_lo = max(r_lo, -ax.s.real / np.cos(ax.omega - mid))
            if np.isfinite(r_lo):
                tight[j] = (r_lo + 0.5) * _unit(-mid)
        anchors.append(tight)
        return FBDomainInfo(self, tuple(map(tuple, anchors)))

    def fb(self, z, check_domain=False):
        """Closed-form transform value at ``z`` of shape (k,) or (N, k).

        The closed form continues meromorphically past the domain; pass
        ``check_domain=True`` to reject arguments outside it."""
        z = np.asarray(z, dtype=complex)
        single = z.ndim == 1
        pts = z[None, :] if single else z
        if check_domain:
            for p in pts:
                if not self.domain_contains(p):
                    raise RouteError(f"transform argument {p} outside the domain")
        out = np.zeros(pts.shape[0], dtype=complex)
        for eta, w in self.atoms:
            out = out + w * np.exp(-pts @ np.asarray(eta))
        for d in self.densities:
            term = d.weight * np.exp(-pts @ np.asarray(d.offset))
            for j, ax in enumerate(d.axes):
                term = term * ax.fb_factor(pts[:, j])
            out = out + term
        return out[0] if single else out

    def fb_at_tuple(self, tup, lam, eps=None):
        """Transform evaluated at the commuting matrix argument
        ``(-lam_1 A_1 + eps_1 I, ..., -lam_k A_k + eps_k I)``."""
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        eps = np.zeros(self.k, dtype=complex) if eps is None else \
            np.atleast_1d(np.asarray(eps, dtype=complex))
        dim = tup.dim
        ident = np.eye(dim, dtype=complex)
        args = [-lam[j] * tup.matrices[j] + eps[j] * ident for j in range(self.k)]
        out = np.zeros((dim, dim), dtype=complex)
        for eta, w in self.atoms:
            term = w * ident
            for j in range(self.k):
                term = term @ expm(-eta[j] * args[j])
            out = out + term
        for d in self.densities:
            term = d.weight * ident
            for j, ax in enumerate(d.axes):
                term = term @ expm(-d.offset[j] * args[j]) @ ax.fb_factor_matrix(args[j])
            out = out + term
        return out

    # -- decay bookkeeping ---------------------------------------------------

    def _term_axis_profiles(self, j):
        """Decay profiles of each transform term along the two dual-cone edge
        directions of axis ``j``: ``("exp", rate)`` or ``("alg", power, scale)``."""
        sec = self.sectors.sectors[j]
        edges = [_unit(-np.pi / 2 - sec.alpha), _unit(np.pi / 2 - sec.beta)]
        profiles = []
        for eta, w in self.atoms:
            rate = min((d * eta[j]).real for d in edges)
            profiles.append(("exp", rate) if rate > 1e-12 else ("alg", 0.0, abs(w) + 1.0))
        for d in self.densities:
            rate = min((e * d.offset[j]).real for e in edges)
            power = d.axes[j].min_degree + 1.0
            if rate > 1e-12:
                profiles.append(("exp", rate))
            else:
                scale = abs(d.weight) * sum(abs(c) for c in d.axes[j].coeffs) + 1.0
                profiles.append(("alg", power, scale))
        return profiles

    def fb_integrable_on_cone(self, extra_power=0.0):
        """Whether ``|FB|`` is integrable on every axis of a shifted dual-cone
        boundary, after multiplying by an extra ``|sigma|^(-extra_power)``."""
        for j in range(self.k):
            for prof in self._term_axis_profiles(j):
                if prof[0] == "alg" and prof[1] + extra_power < 2.0 - 1e-12:
                    return False
        return True

    def _axis_radius(self, j, tol, extra_power=0.0, extra_scale=1.0):
        radius = 16.0
        for prof in self._term_axis_profiles(j):
            if prof[0] == "exp":
                radius = max(radius, initial_radius(("exp", prof[1]), tol))
            else:
                power = prof[1] + extra_power
                scale = prof[2] * extra_scale
                if power < 2.0 - 1e-12:
                    raise RouteError(
                        "transform is not integrable on the contour "
                        f"(axis {j} decays like |sigma|^-{prof[1]:g})")
                radius = max(radius, initial_radius(("alg", scale, power), tol))
        return radius

    def contour_radius(self, tol, extra_power=0.0, extra_scale=1.0):
        return max(self._axis_radius(j, tol, extra_power, extra_scale)
                   for j in range(self.k))

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
    def from_json(obj, sectors=None):
        if isinstance(obj, str):
            obj = json.loads(obj)
        if sectors is None:
            sectors = ProductSector(list(zip(obj["alpha"], obj["beta"])))
        atoms = [
            ([complex(e[0], e[1]) for e in a["eta"]], complex(a["w"][0], a["w"][1]))
            for a in obj.get("atoms", ())
        ]

        def _coef(c):
            return complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c)

        densities = []
        for d in obj.get("densities", ()):
            k = len(d["omega"])
            offset = [complex(o[0], o[1]) for o in d.get("eta", [[0, 0]] * k)]
            w = complex(d["w"][0], d["w"][1]) if "w" in d else 1.0
            axes = [
                AxisDensity(d["omega"][j], complex(d["s"][j][0], d["s"][j][1]),
                            [_coef(c) for c in d["poly"][j]])
                for j in range(k)
            ]
            densities.append(TensorDensity(w, offset, axes))
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
    s = [1.0] * k if s is None else list(np.atleast_1d(s))
    coeffs = [[1.0]] * k if coeffs is None else coeffs
    axes = [AxisDensity(sec.bisector_angle, s[j], coeffs[j])
            for j, sec in enumerate(sectors.sectors)]
    return Functional(sectors, densities=[TensorDensity(weight, [0j] * k, axes)])


def wn_regularizer(zeta, n, sectors):
    """Squared-rational weight ``prod_j n^2 / (n + zeta_j e^{i mid_j})^2``;
    modulus at most 1 on the closed dual product sector."""
    if not isinstance(sectors, ProductSector):
        sectors = ProductSector(sectors)
    zeta = np.asarray(zeta, dtype=complex)
    single = zeta.ndim == 1
    pts = zeta[None, :] if single else zeta
    out = np.ones(pts.shape[0], dtype=complex)
    for j, s in enumerate(sectors.sectors):
        out = out * (n ** 2 / (n + pts[:, j] * _unit(s.bisector_angle)) ** 2)
    return out[0] if single else out


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
    sectors = phi1.sectors
    atoms = []
    densities = []
    for eta1, w1 in phi1.atoms:
        for eta2, w2 in phi2.atoms:
            atoms.append((tuple(np.asarray(eta1) + np.asarray(eta2)), w1 * w2))

    def shift_density(d, eta, w):
        return TensorDensity(d.weight * w,
                             tuple(np.asarray(d.offset) + np.asarray(eta)), d.axes)

    for eta, w in phi1.atoms:
        for d in phi2.densities:
            densities.append(shift_density(d, eta, w))
    for eta, w in phi2.atoms:
        for d in phi1.densities:
            densities.append(shift_density(d, eta, w))
    for d1 in phi1.densities:
        for d2 in phi2.densities:
            axis_terms = [_convolve_axis(a1, a2) for a1, a2 in zip(d1.axes, d2.axes)]
            offset = tuple(np.asarray(d1.offset) + np.asarray(d2.offset))
            idx = [0] * len(axis_terms)
            while True:
                axes = tuple(axis_terms[j][idx[j]] for j in range(len(axis_terms)))
                densities.append(TensorDensity(d1.weight * d2.weight, offset, axes))
                for j in range(len(axis_terms) - 1, -1, -1):
                    idx[j] += 1
                    if idx[j] < len(axis_terms[j]):
                        break
                    idx[j] = 0
                else:
                    break
    return Functional(sectors, atoms, densities, check_degree=False)


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
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    growth = GrowthProfile(tup)
    z = np.empty(sectors.k, dtype=complex)
    for j, sec in enumerate(sectors.sectors):
        mid = sec.bisector_angle
        u = _unit(-mid)
        r_hi = np.inf
        for omega in {sec.alpha, sec.beta}:
            c = np.cos(omega - mid)
            r_hi = min(r_hi, -growth.abscissa(j, omega, lam[j]) / c)
        r_lo = -np.inf
        if phi is not None:
            for d in phi.densities:
                ax = d.axes[j]
                c = np.cos(ax.omega - mid)
                r_lo = max(r_lo, -ax.s.real / c)
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
    k = sectors.k
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    coeffs = [[1.0]] * k if coeffs is None else [list(c) for c in coeffs]

    def _poly(c, x):
        out = np.zeros_like(x)
        for m in range(len(c) - 1, -1, -1):
            out = out * x + c[m]
        return out

    def fun(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=complex))
        out = np.exp(-pts @ w)
        for j in range(k):
            out = out * _poly(coeffs[j], pts[:, j])
        return out

    def fb(lams):
        lams = np.atleast_2d(np.asarray(lams, dtype=complex))
        out = np.ones(lams.shape[0], dtype=complex)
        for j in range(k):
            u = lams[:, j] + w[j]
            fac = np.zeros_like(u)
            for m, c in enumerate(coeffs[j]):
                if abs(c) > 0:
                    fac = fac + c * math.factorial(m) / u ** (m + 1)
            out = out * fac
        return out

    decay = []
    for j, s in enumerate(sectors.sectors):
        rate = min((w[j] * _unit(s.alpha)).real, (w[j] * _unit(s.beta)).real)
        decay.append(("exp", rate) if rate > 1e-12 else None)
    powers = tuple(float(next(m for m, c in enumerate(c_ax) if abs(c) > 0) + 1)
                   for c_ax in coeffs)
    name = label or f"exp_poly(w={w.tolist()})"
    return SectorFunction(fun, fb, tuple(decay), powers, tuple(w), name)


def e_minus(sectors, w):
    """The exponential ``zeta -> exp(-w.zeta)``."""
    return exp_poly_function(sectors, w, label=f"e_-({w})")


# ---------------------------------------------------------------------------
# Cauchy transform
# ---------------------------------------------------------------------------


def _cauchy_window(lam_j, sector):
    """Ray angle for the transform-side Cauchy representation: the window
    where ``cos(arg(lam) + omega) < 0`` intersected with the dual angles."""
    a, b = sector.alpha, sector.beta
    ang = float(np.angle(lam_j))
    while ang <= b + 1e-14:
        ang += 2 * np.pi
    while ang > a + 2 * np.pi + 1e-14:
        ang -= 2 * np.pi
    if not (b < ang <= a + 2 * np.pi):
        raise RouteError(f"lambda={lam_j} lies inside the closed sector")
    if ang <= a + np.pi:
        lo, hi = np.pi / 2 - ang, np.pi / 2 - b
    elif ang <= b + np.pi:
        lo, hi = -np.pi / 2 - a, np.pi / 2 - b
    else:
        lo, hi = -np.pi / 2 - a, 3 * np.pi / 2 - ang
    if hi < lo:
        raise RouteError(f"empty angle window for lambda={lam_j}")
    omega = 0.5 * (lo + hi)
    rate = -np.cos(ang + omega) * abs(lam_j)
    return omega, rate


def cauchy_transform(phi, lam, z=None, route="measure", tol=1e-10):
    """Weighted Cauchy transform ``C_z(phi)(lam)`` for ``lam`` outside every
    closed sector axis.

    Route "measure" integrates the Cauchy kernel against the weighted
    measure; route "fb" integrates ``exp(lam.sigma) FB(phi)(sigma+z)``
    along rays in the admissible angle windows.  Both carry the
    ``(2*pi*i)^-k`` prefactor and agree within quadrature tolerance.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    z = np.zeros(phi.k, dtype=complex) if z is None else \
        np.atleast_1d(np.asarray(z, dtype=complex))
    if not phi.domain_contains(z):
        raise RouteError(f"anchor {z} outside the transform domain")
    for j, s in enumerate(phi.sectors.sectors):
        if s.contains(lam[j], closed=True, tol=1e-12):
            raise RouteError(f"lambda[{j}]={lam[j]} inside the closed sector")
    pref = (2j * np.pi) ** -phi.k
    if route == "measure":
        total = 0j
        for eta, w in phi.atoms:
            term = w * np.exp(-np.dot(z, eta))
            for j in range(phi.k):
                term = term / (eta[j] - lam[j])
            total += term
        for d in phi.densities:
            term = d.weight * np.exp(-np.dot(z, d.offset))
            for j, ax in enumerate(d.axes):
                u = _unit(ax.omega)
                srate = (ax.s + z[j] * u).real

                def g(ts, ax=ax, u=u, j=j, off=d.offset[j]):
                    return ax.poly(ts) * np.exp(-(ax.s + z[j] * u) * ts) \
                        / (off + ts * u - lam[j])

                term = term * ray_integral(g, 0.0, 1.0, tol=tol,
                                           decay=("exp", srate)).value
            total += term
        return pref * total
    if route == "fb":
        # the transform factorizes per term; integrate term by term
        total = 0j
        for term_fn, axis_factors in _fb_terms(phi):
            prod = term_fn(z)
            for j, fac in enumerate(axis_factors):
                omega, rate = _cauchy_window(lam[j], phi.sectors.sectors[j])
                u = _unit(omega)

                def g(ts, fac=fac, u=u, j=j):
                    sigma = ts * u
                    return np.exp(lam[j] * sigma) * fac(sigma + z[j]) * u

                prod = prod * ray_integral(g, 0.0, 1.0, tol=tol,
                                           decay=("exp", max(rate * 0.9, 1e-3))).value
            total += prod
        return pref * total
    raise RouteError(f"unknown cauchy route {route!r}")


def _fb_terms(phi):
    """Tensor factorization of the transform: a list of
    ``(scalar_weight_fn(z), [per-axis factor callables])``."""
    out = []
    for eta, w in phi.atoms:
        out.append((lambda z, w=w: w,
                    [lambda x, e=eta[j]: np.exp(-x * e) for j in range(phi.k)]))
    for d in phi.densities:
        out.append((lambda z, d=d: d.weight,
                    [lambda x, ax=d.axes[j], off=d.offset[j]:
                     np.exp(-x * off) * ax.fb_factor(x) for j in range(phi.k)]))
    return out


# ---------------------------------------------------------------------------
# pairing with sector functions
# ---------------------------------------------------------------------------


def _tensor_density_integral(fvec, d, tol, max_rounds=8):
    """Tensor ray integral of ``fvec`` against one tensor density."""
    rates = [ax.s.real for ax in d.axes]
    r0 = [initial_radius(("exp", r), tol) for r in rates]
    state = {"scale": 1.0}

    def value_of():
        nodes, weights = [], []
        for j, ax in enumerate(d.axes):
            t, wt = ray_nodes(r0[j] * state["scale"], 8.0 * state["scale"])
            nodes.append(d.offset[j] + t * _unit(ax.omega))
            weights.append(ax.poly(t) * np.exp(-ax.s * t) * wt)
        state["scale"] *= 2.0
        return _contract(fvec, nodes, weights)

    prev = None
    for _ in range(max_rounds):
        val = value_of()
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
    raise QuadratureError("tensor density integral did not converge")


def _dual_cone_contour(phi, z, tol, extra_powers=None, extra_scale=1.0):
    sectors = phi.sectors
    extra_powers = np.zeros(phi.k) if extra_powers is None else np.asarray(extra_powers)
    radius = max(phi._axis_radius(j, tol, float(extra_powers[j]), extra_scale)
                 for j in range(phi.k))
    region = make_region([s.alpha for s in sectors.sectors],
                         [s.beta for s in sectors.sectors], z)
    return ContourQuadrature.from_region(region, [0.0] * phi.k, R=radius)


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


def pair_function(f, phi, route="measure", tol=1e-9, z=None, eps0=0.5, eta0=0.25):
    """Pairing ``<f, phi>`` by the requested evaluation route.

    Routes: ``measure`` (reference; direct integration against the
    measure), ``fb_eps`` (regularized transform-side contour, limit in the
    exponential weight), ``fb_direct`` (transform-side contour, needs both
    integrability certificates), ``wn_limit`` (squared-rational
    regularizer, double limit with extrapolation), ``cauchy``
    (boundary-kernel route; nondegenerate axes and atomic functionals
    only).  All routes agree within combined tolerance.
    """
    sectors = phi.sectors
    if route == "measure":
        total = 0j
        for eta, w in phi.atoms:
            total += w * complex(np.asarray(f(np.asarray(eta, dtype=complex)[None, :]))[0])
        for d in phi.densities:
            total += d.weight * _tensor_density_integral(f, d, tol)
        return total

    if route in ("fb_eps", "fb_direct", "wn_limit"):
        if f.fb is None:
            raise RouteError(f"route {route} needs a closed-form transform for {f.label}")
        z = anchor_like_zero(phi) if z is None else np.atleast_1d(np.asarray(z, dtype=complex))
        if not phi.domain_contains(z):
            raise RouteError(f"anchor {z} outside the transform domain")
        pref = (2j * np.pi) ** -phi.k
        fpow = np.zeros(phi.k) if f.fb_powers is None else np.asarray(f.fb_powers, float)
        u_dual = np.array([_unit(-s.bisector_angle) for s in sectors.sectors])

        def contour_value(eps, n):
            _check_fb_pole_clearance(f, phi, z, eps)
            extra = fpow + (2.0 if n else 0.0)
            scale = (4.0 * n * n) if n else 1.0
            cq = _dual_cone_contour(phi, z, tol, extra, scale)

            def g(pts):
                vals = phi.fb(pts) * np.asarray(f.fb(-pts + eps[None, :]), dtype=complex)
                if n:
                    vals = vals * wn_regularizer(pts - z[None, :], n, sectors)
                return vals

            return pref * adaptive_contour(lambda c: tensor_sum(g, c), cq, tol).value

        if route == "fb_direct":
            if not phi.fb_integrable_on_cone():
                raise RouteError("transform of the functional is not integrable on the contour")
            if f.sector_decay is None or any(
                    d is None or (d[0] == "alg" and d[1] < 2.0 - 1e-12)
                    for d in f.sector_decay):
                raise RouteError(f"{f.label} lacks an integrable boundary certificate")
            return contour_value(np.zeros(phi.k, dtype=complex), 0)

        if route == "fb_eps":
            if not phi.fb_integrable_on_cone():
                raise RouteError("transform of the functional is not integrable on the contour")
            vals = [contour_value(eps0 * m * u_dual, 0) for m in EPS_SCHEDULE]
            limit, residual = richardson(vals)
            if residual > 100 * tol * (1 + abs(limit)):
                raise RouteError(f"eps-limit extrapolant is not Cauchy (residual {residual:.3e})")
            return limit

        # wn_limit: extrapolate n inside, then the exponential weight
        per_m = []
        for m in EPS_SCHEDULE:
            seq = [contour_value(eps0 * m * u_dual, n) for n in WN_SCHEDULE]
            lim_n, _ = richardson(seq)
            per_m.append(lim_n)
        limit, residual = richardson(per_m)
        if residual > 1e3 * tol * (1 + abs(limit)):
            raise RouteError(f"limit extrapolant is not Cauchy (residual {residual:.3e})")
        return limit

    if route == "cauchy":
        vals = []
        u_sec = np.array([_unit(s.bisector_angle) for s in sectors.sectors])
        for m in EPS_SCHEDULE:
            vals.append(pair_translated_cauchy(f, phi, eta0 * m * u_sec, z=z, tol=tol))
        limit, residual = richardson(vals)
        if residual > 100 * tol * (1 + abs(limit)):
            raise RouteError(f"translation-limit extrapolant is not Cauchy ({residual:.3e})")
        return limit

    raise RouteError(f"unknown pairing route {route!r}")


def anchor_like_zero(phi):
    """Zero anchor; valid for this measure class since every density has
    Re(s) > 0."""
    return np.zeros(phi.k, dtype=complex)


def pair_translated_cauchy(f, phi, eta, z=None, tol=1e-9):
    """Translated pairing ``<f(. + eta), phi>`` through the weighted Cauchy
    kernel on the sector boundary; atomic functionals, nondegenerate axes."""
    sectors = phi.sectors
    for s in sectors.sectors:
        if s.is_ray:
            raise RouteError("boundary-kernel route needs alpha < beta on every axis")
    if not phi.is_atomic():
        raise RouteError("boundary-kernel route implemented for atomic functionals")
    eta = np.atleast_1d(np.asarray(eta, dtype=complex))
    if not sectors.contains(eta, closed=False):
        raise RouteError("translation must be strictly inside the open product sector")
    z = np.zeros(phi.k, dtype=complex) if z is None else \
        np.atleast_1d(np.asarray(z, dtype=complex))
    pref = (2j * np.pi) ** -phi.k

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
        return np.exp(shifted @ z) * cz(shifted) * np.asarray(f(pts), dtype=complex)

    # contour along the sector boundary: swap the angle roles so the path
    # builder emits rays at angles alpha_j (incoming) and beta_j (outgoing)
    region = make_region([-np.pi / 2 - s.alpha for s in sectors.sectors],
                         [np.pi / 2 - s.beta for s in sectors.sectors],
                         [0.0] * phi.k)
    radius = 16.0
    if f.sector_decay is not None:
        for j, dec in enumerate(f.sector_decay):
            if dec is None:
                raise RouteError(f"{f.label} lacks a boundary decay certificate on axis {j}")
            kind = dec[0]
            if kind == "exp":
                rate = dec[1] - max(0.0, (z[j] * _unit(sectors.sectors[j].alpha)).real,
                                    (z[j] * _unit(sectors.sectors[j].beta)).real)
                if rate <= 0:
                    raise RouteError("anchor weight destroys the boundary decay")
                radius = max(radius, initial_radius(("exp", rate), tol))
            else:
                radius = max(radius, initial_radius(("alg", 1.0, dec[1] + 1.0), tol))
    cq = ContourQuadrature.from_region(region, [0.0] * phi.k, R=radius)
    return adaptive_contour(lambda c: tensor_sum(g, c), cq, tol).value


# ---------------------------------------------------------------------------
# pairing with semigroup orbits
# ---------------------------------------------------------------------------


def pair_semigroup(tup, lam, phi, route="measure", tol=1e-9, z=None, eps0=0.25):
    """Pairing ``<T_(lam), phi>`` of the scaled semigroup orbit with the
    functional, as a matrix in the algebra generated by the tuple.

    Routes: ``measure`` (reference; atoms evaluate the semigroup, tensor
    densities become products of one-dimensional orbit integrals),
    ``resolvent_contour`` (direct shifted-cone contour against the
    resolvent product; needs a strict anchor and an integrable
    transform), ``eps_shift`` (same contour with shifted resolvent
    arguments, limit extrapolated), ``regularized`` (squared-rational
    weight, double limit; only a bounded-orbit anchor required).
    """
    from .semigroups import _validate_lambda  # shared precondition check

    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    sectors = phi.sectors
    _validate_lambda(tup, lam, sectors)
    growth = GrowthProfile(tup)

    if route == "measure":
        anchor_for(tup, lam, sectors, phi, strict=False)  # existence gate
        dim = tup.dim
        total = np.zeros((dim, dim), dtype=complex)
        for eta, w in phi.atoms:
            term = w * np.eye(dim, dtype=complex)
            for j in range(tup.k):
                term = term @ evaluate(tup, j, lam[j] * eta[j])
            total += term
        for d in phi.densities:
            term = d.weight * np.eye(dim, dtype=complex)
            for j, ax in enumerate(d.axes):
                term = term @ evaluate(tup, j, lam[j] * d.offset[j])
                rate = ax.s.real - growth.abscissa(j, ax.omega, lam[j])
                if rate <= 1e-9:
                    raise DivergenceError(
                        f"axis {j}: density weight decays slower than the orbit grows")
                a = tup.matrices[j]
                scaled = lam[j] * _unit(ax.omega) * a

                def g(ts, ax=ax, scaled=scaled):
                    return np.asarray([ax.poly(np.array([t]))[0] * np.exp(-ax.s * t)
                                       * expm(t * scaled) for t in ts])

                term = term @ ray_integral(g, 0.0, 1.0, tol=tol, decay=("exp", rate)).value
            total += term
        return total

    if route in ("resolvent_contour", "eps_shift", "regularized"):
        # only the direct route needs the vanishing-orbit anchor; the
        # shifted and regularized routes work from a bounded-orbit anchor
        strict = route == "resolvent_contour"
        if z is None:
            z = anchor_for(tup, lam, sectors, phi, strict=strict)
        else:
            z = np.atleast_1d(np.asarray(z, dtype=complex))
        if route in ("resolvent_contour", "eps_shift") and not phi.fb_integrable_on_cone():
            raise RouteError("transform of the functional is not integrable on the contour")
        pref = (-1.0) ** tup.k * (2j * np.pi) ** -tup.k
        u_dual = np.array([_unit(-s.bisector_angle) for s in sectors.sectors])

        def contour_value(eps, n):
            extra = 2.0 if n else 0.0
            scale = (4.0 * n * n) if n else 1.0
            cq = _dual_cone_contour(phi, z, tol, np.full(tup.k, extra + 1.0), scale)

            def scalar_fn(pts):
                vals = phi.fb(pts)
                if n:
                    vals = vals * wn_regularizer(pts - z[None, :], n, sectors)
                return vals

            return pref * adaptive_contour(
                lambda c: resolvent_contour_value(scalar_fn, tup.matrices, lam, c,
                                                  node_offsets=eps),
                cq, tol).value

        if route == "resolvent_contour":
            return contour_value(np.zeros(tup.k, dtype=complex), 0)
        if route == "eps_shift":
            vals = [contour_value(eps0 * m * u_dual, 0) for m in EPS_SCHEDULE]
            limit, residual = richardson(vals)
            if residual > 1e3 * tol * (1 + np.linalg.norm(limit)):
                raise RouteError(f"eps-limit extrapolant is not Cauchy ({residual:.3e})")
            return np.asarray(limit)
        per_m = []
        for m in EPS_SCHEDULE[:5]:
            seq = [contour_value(eps0 * m * u_dual, n) for n in WN_SCHEDULE]
            lim_n, _ = richardson(seq)
            per_m.append(lim_n)
        limit, residual = richardson(per_m)
        if residual > 1e4 * tol * (1 + np.linalg.norm(limit)):
            raise RouteError(f"double-limit extrapolant is not Cauchy ({residual:.3e})")
        return np.asarray(limit)

    raise RouteError(f"unknown semigroup pairing route {route!r}")


def fb_of_orbit(tup, lam, z, zeta, u, route="resolvent", tol=1e-10):
    """Transform of the weighted orbit ``e_z T(lam .) u`` at ``zeta``.

    Route "resolvent" evaluates ``(-1)^k prod_j ((z_j - zeta_j) I +
    lam_j A_j)^{-1} u`` by direct solves; route "integral" performs the
    defining tensor ray integral.  Both agree within tolerance.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    u = np.asarray(u, dtype=complex)
    growth = GrowthProfile(tup)
    if route == "resolvent":
        ident = np.eye(tup.dim, dtype=complex)
        x = u
        for j in reversed(range(tup.k)):
            x = np.linalg.solve((z[j] - zeta[j]) * ident + lam[j] * tup.matrices[j], x)
        return (-1.0) ** tup.k * x
    if route == "integral":
        x = u
        for j in reversed(range(tup.k)):
            sec = tup.sectors.sectors[j]
            best = None
            for omega in np.linspace(sec.alpha, sec.beta, 7):
                rate = ((zeta[j] - z[j]) * _unit(omega)).real \
                    - growth.abscissa(j, omega, lam[j])
                if best is None or rate > best[1]:
                    best = (omega, rate)
            omega, rate = best
            if rate <= 1e-9:
                raise DivergenceError(
                    f"axis {j}: no ray direction gives a convergent orbit transform")
            udir = _unit(omega)
            a = tup.matrices[j]

            def g(ts, udir=udir, j=j, a=a):
                return np.asarray([np.exp((z[j] - zeta[j]) * t * udir)
                                   * expm(t * lam[j] * udir * a) for t in ts])

            m = udir * ray_integral(g, 0.0, 1.0, tol=tol, decay=("exp", rate)).value
            x = m @ x
        return x
    raise RouteError(f"unknown orbit route {route!r}")
