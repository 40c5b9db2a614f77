"""Oriented contour discretization and adaptive tensor-product quadrature.

Boundary paths follow the orientation convention used throughout: each
axis runs from ``exp(1j*(-pi/2 - alpha_j)) * inf`` through the excision
polyline to ``exp(1j*(pi/2 - beta_j)) * inf``.  Finite pieces carry
Gauss-Legendre panels, rays carry panels geometrically graded toward the
vertex (ratio 1.5).  Node weights include the complex ``d sigma`` factor.

The tensor sum is one blocked mode-by-mode contraction (:func:`_contract`).
The index combinations of the leading axes are walked in C order, in
blocks of about ``_BLOCK_POINTS`` grid points; each block evaluates the
integrand once, contracts its last axis with one matrix product, folds
in the leading axes, and block results are added in block order.  The
summation order therefore depends only on the grid, so repeated runs
with identical configuration (and BLAS thread count) are bit-identical.
Integrands must be pure and vectorized: they are called on (M, k) point
arrays and return (M,) or (M, d, d).
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

_GL_CACHE = {}
_BLOCK_POINTS = 1 << 15  # integrand points per block of the tensor contraction


class QuadratureError(RuntimeError):
    """Raised for invalid quadrature setup."""


class ConvergenceError(QuadratureError):
    """Adaptive refinement did not meet the tolerance.

    Carries the last computed ``value`` and ``estimate`` so callers can
    inspect how far the refinement got.
    """

    def __init__(self, msg, value=None, estimate=None):
        super().__init__(msg)
        self.value = value
        self.estimate = estimate


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-8
    max_rounds: int = 8
    panel_points: int = 16
    n_per_unit: float = 8.0
    r0: float = 16.0

    def to_json(self):
        return {
            "tol": self.tol,
            "max_rounds": self.max_rounds,
            "panel_points": self.panel_points,
            "n_per_unit": self.n_per_unit,
            "r0": self.r0,
        }

    @staticmethod
    def from_json(obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        known = {f: obj[f] for f in ("tol", "max_rounds", "panel_points", "n_per_unit", "r0")
                 if f in obj}
        return QuadratureConfig(**known)


def gauss_panel(a, b, points=16):
    """Gauss-Legendre nodes and weights on the segment [a, b] of the real line."""
    if points not in _GL_CACHE:
        _GL_CACHE[points] = np.polynomial.legendre.leggauss(points)
    x, w = _GL_CACHE[points]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def _graded_breaks(length, h0, ratio=1.5):
    """Panel breakpoints on [0, length], first panel ~h0, graded outward."""
    if length <= h0:
        return np.array([0.0, length])
    m = int(np.ceil(np.log1p(length * (ratio - 1.0) / h0) / np.log(ratio)))
    raw = h0 * (ratio ** np.arange(m + 1) - 1.0) / (ratio - 1.0)
    return raw * (length / raw[-1])


@dataclass(frozen=True)
class PathSegment:
    """One oriented piece of a discretized contour.

    ``weights`` carry the complex ``d sigma`` factor (traversal direction
    times the real quadrature weight).  Rays store the truncation radius
    actually used.
    """

    kind: str  # "segment" or "ray"
    start: complex
    direction: complex
    length: float
    nodes: np.ndarray
    weights: np.ndarray
    trunc_radius: float = float("inf")

    @property
    def end(self):
        return self.start + self.length * self.direction

    @staticmethod
    def finite(a, b, n_per_unit, panel_points):
        length = abs(b - a)
        direction = (b - a) / length
        h0 = panel_points / n_per_unit
        n_panels = max(1, int(np.ceil(length / h0)))
        breaks = np.linspace(0.0, length, n_panels + 1)
        nodes, weights = _panel_nodes(a, direction, breaks, panel_points)
        return PathSegment("segment", a, direction, length, nodes, weights)

    @staticmethod
    def ray(anchor, direction, extent, n_per_unit, panel_points, trunc_radius,
            outward=True):
        """Truncated ray from ``anchor``; ``outward=False`` traverses from the
        far end toward ``anchor`` (for incoming rays)."""
        h0 = panel_points / n_per_unit
        breaks = _graded_breaks(extent, h0)
        if outward:
            nodes, weights = _panel_nodes(anchor, direction, breaks, panel_points)
            return PathSegment("ray", anchor, direction, extent, nodes, weights,
                               trunc_radius)
        far = anchor + extent * direction
        nodes, weights = _panel_nodes(anchor, direction, breaks, panel_points)
        return PathSegment("ray", far, -direction, extent, nodes[::-1].copy(),
                           -weights[::-1].copy(), trunc_radius)


def _panel_nodes(anchor, direction, breaks, panel_points):
    nodes = []
    weights = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        t, w = gauss_panel(a, b, panel_points)
        nodes.append(anchor + t * direction)
        weights.append(w * direction)
    return np.concatenate(nodes), np.concatenate(weights)


def build_boundary_path(region, j, eps, R, n_per_unit=8.0, panel_points=16):
    """Discretize ``(boundary of U_j + eps) intersect B(0, R)``.

    Returns the ordered list of :class:`PathSegment`, incoming ray first.
    ``eps`` must lie in the closed dual sector of the axis; ``R`` must
    exceed the excision extent of the shifted boundary.
    """
    ax = region.axes[j]
    eps = complex(eps)
    if not ax.dual_sector.contains(eps, closed=True, tol=1e-9):
        raise QuadratureError(f"shift {eps} is outside the closed dual sector of axis {j}")
    z = ax.z + eps
    anchors = [z + t for t in ax.theta]
    far = max(abs(a) for a in anchors)
    if R <= far * 1.05 + 1e-9:
        raise QuadratureError(
            f"truncation radius {R} too small: excision of axis {j} extends to {far}")

    def ray_extent(anchor, d):
        b = (anchor * d.conjugate()).real
        disc = b * b + R * R - abs(anchor) ** 2
        return -b + np.sqrt(disc)

    segments = [
        PathSegment.ray(anchors[0], ax.d0, ray_extent(anchors[0], ax.d0),
                        n_per_unit, panel_points, R, outward=False)
    ]
    for a, b in zip(anchors[:-1], anchors[1:]):
        segments.append(PathSegment.finite(a, b, n_per_unit, panel_points))
    segments.append(
        PathSegment.ray(anchors[-1], ax.d1, ray_extent(anchors[-1], ax.d1),
                        n_per_unit, panel_points, R, outward=True)
    )
    return segments


@dataclass(frozen=True)
class AxisPath:
    nodes: np.ndarray
    weights: np.ndarray
    segments: tuple


@dataclass(frozen=True)
class ContourQuadrature:
    """Tensor-product discretization of a shifted distinguished boundary."""

    axes: tuple
    region: object
    eps: tuple
    R: float
    n_per_unit: float
    panel_points: int = 16

    @staticmethod
    def from_region(region, eps, R=16.0, n_per_unit=8.0, panel_points=16):
        eps = tuple(complex(e) for e in np.atleast_1d(np.asarray(eps, dtype=complex)))
        if len(eps) != region.k:
            raise QuadratureError("eps must have one entry per axis")
        axes = []
        for j in range(region.k):
            segs = build_boundary_path(region, j, eps[j], R, n_per_unit, panel_points)
            nodes = np.concatenate([s.nodes for s in segs])
            weights = np.concatenate([s.weights for s in segs])
            axes.append(AxisPath(nodes, weights, tuple(segs)))
        return ContourQuadrature(tuple(axes), region, eps, R, n_per_unit, panel_points)

    @property
    def k(self):
        return len(self.axes)

    @property
    def node_count(self):
        n = 1
        for ax in self.axes:
            n *= len(ax.nodes)
        return n

    def refined(self):
        """Same contour with doubled truncation radius and node density."""
        return ContourQuadrature.from_region(
            self.region, self.eps, 2.0 * self.R, 2.0 * self.n_per_unit, self.panel_points
        )


@dataclass(frozen=True)
class IntegrationResult:
    value: object
    error_estimate: float
    rounds: int
    node_count: int
    history: tuple = field(default=())

    def __iter__(self):  # allow ``value, err = result``
        yield self.value
        yield self.error_estimate


def _err_norm(a, b):
    d = np.asarray(a) - np.asarray(b)
    if d.ndim == 0:
        return abs(complex(d))
    return float(np.linalg.norm(d.ravel()))


def _call_integrand(f, pts):
    """Evaluate ``f`` on points of shape (M, k); it must return (M,) or (M, d, d)."""
    vals = np.asarray(f(pts), dtype=complex)
    if vals.ndim not in (1, 3) or vals.shape[0] != pts.shape[0]:
        raise QuadratureError(
            f"integrand returned shape {vals.shape} for {pts.shape[0]} points; "
            "it must be vectorized and return (M,) or (M, d, d)")
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("non-finite integrand value at a quadrature node")
    return vals


def _contract(f, nodes, weights, stacks=None):
    """Blocked mode-by-mode tensor sum over the grid of per-axis ``nodes``.

    Without ``stacks`` this is ``sum_i prod_j weights[j][i_j] * f(z_i)``;
    with per-axis (N_j, d, d) ``stacks`` (``f`` then scalar) it is
    ``sum_i prod_j weights[j][i_j] * f(z_i) * stacks[0][i_0] ... stacks[-1][i_-1]``
    with the operator factors in axis order.
    """
    k = len(nodes)
    lead = tuple(len(x) for x in nodes[:-1])
    n_last = len(nodes[-1])
    n_lead = int(np.prod(lead, dtype=np.int64))
    rows = min(max(1, _BLOCK_POINTS // n_last), n_lead)
    # last axis outermost, so a block's values reshape to (N_last, m, ...);
    # the last-axis column is filled once and the buffer reused by full blocks
    grid = np.empty((n_last, rows, k), dtype=complex)
    grid[:, :, -1] = nodes[-1][:, None]
    total = 0
    for start in range(0, n_lead, rows):
        stop = min(start + rows, n_lead)
        idx = np.unravel_index(np.arange(start, stop), lead) if lead else ()
        m = stop - start
        pts = grid if m == rows else grid[:, :m].copy()
        for j, i in enumerate(idx):
            pts[:, :, j] = nodes[j][i]
        view = pts.reshape(-1, k)
        view.flags.writeable = False  # integrands must not write into the reused buffer
        vals = _call_integrand(f, view)
        if stacks is None:
            block = _kernels.reduce_weighted(
                weights[-1], vals.reshape((n_last, m) + vals.shape[1:]))
        else:
            if vals.ndim != 1:
                raise QuadratureError("resolvent contour needs a scalar integrand factor")
            coeffs = (vals.reshape(n_last, m) * weights[-1][:, None]).T
            block = _kernels.reduce_weighted(coeffs, stacks[-1])
            for j in reversed(range(k - 1)):
                block = stacks[j][idx[j]] @ block
        lead_w = np.ones(m, dtype=complex)
        for j, i in enumerate(idx):
            lead_w = lead_w * weights[j][i]
        total = total + _kernels.reduce_weighted(lead_w, block)
    return total


def tensor_sum(f, cq):
    """Single tensor-product quadrature pass over ``cq``.

    ``f`` maps C^k to a scalar or a fixed-size matrix; it is called with
    (M, k) arrays of points and returns (M,) or (M, d, d).
    """
    return _contract(f, [ax.nodes for ax in cq.axes], [ax.weights for ax in cq.axes])


def adaptive_contour(value_of, cq, tol, max_rounds=8):
    """Refine ``cq`` (doubling R and the node density) until two successive
    values of ``value_of(cq)`` differ by less than ``tol``."""
    history = []
    prev = None
    for r in range(max_rounds):
        val = value_of(cq)
        if prev is not None:
            diff = _err_norm(val, prev)
            history.append((cq.R, cq.n_per_unit, cq.node_count, diff))
            if diff < tol:
                return IntegrationResult(val, diff, r + 1, cq.node_count, tuple(history))
        else:
            history.append((cq.R, cq.n_per_unit, cq.node_count, np.inf))
        prev = val
        if r < max_rounds - 1:
            cq = cq.refined()
    raise ConvergenceError(
        f"contour integral did not converge to {tol} in {max_rounds} rounds",
        value=prev, estimate=history[-1][3] if history else np.inf)


def integrate(f, cq, tol=1e-8, max_rounds=8):
    """Adaptive tensor-product contour integral of ``f`` over ``cq``.

    Returns an :class:`IntegrationResult` whose error estimate is the last
    successive difference (Frobenius norm for matrix values).
    """
    return adaptive_contour(lambda c: tensor_sum(f, c), cq, tol, max_rounds)


def ray_nodes(extent, n_per_unit=8.0, panel_points=16):
    """Graded Gauss-Legendre nodes and weights on the real interval [0, extent]."""
    breaks = _graded_breaks(extent, panel_points / n_per_unit)
    nodes = []
    weights = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        t, w = gauss_panel(a, b, panel_points)
        nodes.append(t)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def resolvent_contour_value(scalar_fn, matrices, lam, cq, node_offsets=None):
    """Tensor contour sum of ``scalar_fn(zeta) * prod_j (lam_j A_j + m_j I)^{-1}``
    where ``m_j = zeta_j - node_offsets[j]``.

    This is the hot kernel of the calculus: per-axis resolvent stacks are
    solved in batch and contracted block by block (see :func:`_contract`).
    The caller applies any scalar prefactor.
    """
    k = cq.k
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    offs = np.zeros(k, dtype=complex) if node_offsets is None else \
        np.atleast_1d(np.asarray(node_offsets, dtype=complex))
    stacks = [
        _kernels.resolvent_stack(np.asarray(matrices[j], dtype=complex), lam[j],
                                 cq.axes[j].nodes - offs[j])
        for j in range(k)
    ]
    return _contract(scalar_fn, [ax.nodes for ax in cq.axes],
                     [ax.weights for ax in cq.axes], stacks)


def richardson(values, ratio=2.0):
    """Richardson extrapolation of a sequence computed at steps h, h/ratio, ...

    ``values`` may be scalars or arrays.  Returns ``(limit, residual)``
    where the residual is the distance between the last two diagonal
    entries (a Cauchy check for the extrapolant).
    """
    vals = [np.asarray(v, dtype=complex) for v in values]
    if len(vals) == 1:
        return vals[0], np.inf
    table = [vals]
    for m in range(1, len(vals)):
        fac = ratio ** m
        prev = table[-1]
        table.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0)
                      for i in range(len(prev) - 1)])
    best = table[-1][0]
    second = table[-2][-1]
    residual = _err_norm(best, second)
    if best.ndim == 0:
        best = complex(best)
    return best, residual


def initial_radius(decay, tol, default=16.0):
    """Truncation radius at which the decay envelope drops below tol/100.

    ``decay`` is ``("exp", rate)`` for an ``exp(-rate*t)`` envelope or
    ``("alg", c, p)`` for ``c*(1+t)**(-p)`` with ``p > 1``.
    """
    if decay is None:
        return default
    kind = decay[0]
    if kind == "exp":
        rate = decay[1]
        if rate <= 0:
            raise QuadratureError("exponential decay rate must be positive")
        return max(default, np.log(100.0 / tol) / rate)
    if kind == "alg":
        c, p = decay[1], decay[2]
        if p <= 1:
            raise QuadratureError("algebraic decay needs p > 1 for a convergent tail")
        return max(default, (100.0 * max(c, 1e-300) / tol) ** (1.0 / (p - 1.0)))
    raise QuadratureError(f"unknown decay kind {kind!r}")


def ray_integral(f, start, direction, tol=1e-10, decay=None, max_rounds=8,
                 n_per_unit=8.0, panel_points=16):
    """Adaptive integral of ``f`` along ``start + t*direction``, ``t >= 0``.

    The caller asserts integrability; ``decay`` supplies the envelope used
    to choose the initial truncation (see :func:`initial_radius`).  Same
    refinement contract as :func:`integrate`.
    """
    direction = complex(direction)
    direction /= abs(direction)
    r0 = initial_radius(decay, tol)

    state = {"R": r0, "n": n_per_unit, "count": 0}

    def value_of():
        breaks = _graded_breaks(state["R"], panel_points / state["n"])
        nodes, weights = _panel_nodes(complex(start), direction, breaks, panel_points)
        pts = nodes[:, None]
        vals = _call_integrand(lambda q: f(q[:, 0]), pts)
        out = _kernels.reduce_weighted(weights, vals)
        state["count"] = len(nodes)
        state["R"] *= 2.0
        state["n"] *= 2.0
        return out

    history = []
    prev = None
    for r in range(max_rounds):
        val = value_of()
        if prev is not None:
            diff = _err_norm(val, prev)
            history.append(diff)
            if diff < tol:
                return IntegrationResult(val, diff, r + 1, state["count"], tuple(history))
        prev = val
    raise ConvergenceError(
        f"ray integral did not converge to {tol} in {max_rounds} rounds",
        value=prev, estimate=history[-1] if history else np.inf)
