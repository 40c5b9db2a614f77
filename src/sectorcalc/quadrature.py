"""Oriented contour discretization and adaptive tensor-product quadrature.

Boundary paths follow the orientation convention used throughout: each
axis runs from ``exp(1j*(-pi/2 - alpha_j)) * inf`` through the excision
polyline to ``exp(1j*(pi/2 - beta_j)) * inf``, as one chain of
Gauss-Legendre panels of ``_PANEL = 16`` nodes (:func:`_axis_path`, one
:func:`gauss_panel` call per axis).  A contour ray is integrated over its
whole length: panels geometrically graded away from the vertex (ratio
1.5) reach the tail radius ``R``, and the tail beyond, ``t >= t_R``, is mapped
by ``t = t_R / u`` onto ``u in (0, 1]`` (QUADPACK's QAGI).  ``R`` follows
one rule, :func:`tail_radius`, which the calculus raises to clear the
scaled spectra; no radius depends on a decay certificate or a tolerance.
Node weights include the complex ``d sigma`` factor.

Every adaptive quadrature runs through one driver, :func:`refine`.  Round
``r`` evaluates the rule at node density ``n0 * 2**r`` and estimates its
error panel by panel (:func:`_panel_error`); a value is accepted in the
first round whose estimate, or whose difference from the previous round,
is below the tolerance, within ``_MAX_ROUNDS = 8`` rounds.  Contours
(:func:`adaptive_contour`, :func:`integrate`), rays (:func:`ray_integral`)
and tensor ray densities are thin callers that only say how one round is
evaluated; truncated rays share one rule, :func:`_ray_rule`.

The tensor sum is one blocked mode-by-mode contraction (:func:`_contract`).
The index combinations of the leading axes are walked in C order, in
blocks of about ``_BLOCK_POINTS`` grid points; each block evaluates the
integrand once, contracts its last axis with one matrix product, folds
in the leading axes, and block results are added in block order.  The
summation order therefore depends only on the grid, so repeated runs
with identical configuration (and BLAS thread count) are bit-identical.
Integrands must be pure and vectorized: they are called on (M, k) point
arrays and return (M,) or (M, d, d).

An integrand that carries separable ``terms`` (a sum of products of
per-axis functions, ``F = sum_r prod_j f_rj(z_j)``, built by
:func:`_separable` and multiplied by :func:`_product`) skips the grid: by
Fubini the tensor sum is ``sum_r prod_j (weights_j . f_rj(nodes_j))``, and
with resolvent stacks ``sum_r S_r0 @ S_r1 @ ...`` in axis order, each
``S_rj`` one weighted 1-D reduction of axis ``j``'s stack
(:func:`_contract_terms`).  The cost is r * sum_j N_j evaluations instead
of prod_j N_j, which is what makes k >= 3 reachable; integrands without
terms take the blocked contraction above.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .geometry import ray_exit

TAIL_RADIUS = 16.0  # the least radius at which a contour ray's mapped tail begins
_PANEL = 16  # Gauss-Legendre nodes per panel, in every rule
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_PANEL)
_N0 = 8.0  # node density per unit length of a ray's first round
_GRADING = 1.5  # length ratio of consecutive graded ray panels
_TAIL_DENSITY = 8.0  # node density per panel of a mapped ray tail
_MAX_ROUNDS = 8  # refinement rounds before a ConvergenceError
_BLOCK_POINTS = 1 << 15  # integrand points per block of the tensor contraction
_NULL_ORDERS = 6  # top Legendre coefficients of a panel that its error estimate reads
_STALL_RATIO = 0.8  # coefficient decay ratio from which the top coefficient is the estimate
_ROUNDOFF = 100 * np.finfo(float).eps  # estimate floor, relative to a panel's sum of |w f|
# rows taking a panel's weighted values to the integrand's top Legendre coefficients
_NULL_ROWS = (np.arange(_PANEL - _NULL_ORDERS, _PANEL)[:, None] + 0.5) * \
    np.polynomial.legendre.legvander(_GL_NODES, _PANEL - 1)[:, _PANEL - _NULL_ORDERS:].T


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


def gauss_panel(a, b):
    """Gauss-Legendre nodes and weights on the segment [a, b] of the real line.

    ``a`` and ``b`` may be (P, 1) arrays of panel ends; the result is then
    (P, _PANEL), one row per panel."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * _GL_NODES, half * _GL_WEIGHTS


def _graded_breaks(length, h0):
    """Panel breakpoints on [0, length], first panel ~h0, graded outward."""
    if length <= h0:
        return np.array([0.0, length])
    m = int(np.ceil(np.log1p(length * (_GRADING - 1.0) / h0) / np.log(_GRADING)))
    raw = h0 * (_GRADING ** np.arange(m + 1) - 1.0) / (_GRADING - 1.0)
    return raw * (length / raw[-1])


def _panel_nodes(anchor, direction, breaks):
    """Nodes and weights of all panels ``[breaks[i], breaks[i+1]]`` of the
    piece ``anchor + t * direction``, in one broadcast."""
    t, w = gauss_panel(breaks[:-1, None], breaks[1:, None])
    return anchor + t.ravel() * direction, w.ravel() * direction


def _ray_rule(start, direction, r0, n):
    """:func:`_panel_nodes` of the ray ``start + t*direction`` cut at
    ``t = r0 * n / _N0``, on panels graded for node density ``n``."""
    return _panel_nodes(start, direction, _graded_breaks(r0 * (n / _N0), _PANEL / n))


def _axis_path(ax, j, eps, R, n_per_unit):
    """The boundary of axis ``ax`` (index ``j``) shifted by the checked
    ``eps``, as one chain of panels: incoming ray, excision edges, outgoing
    ray.  A ray ``anchor + t*direction`` has graded panels on ``[0, e]``, ``e``
    its :func:`~sectorcalc.geometry.ray_exit` from the circle of radius ``R``,
    then the tail ``t = e / u`` on equal panels of ``u``, one per ``_TAIL_DENSITY``
    units of node density (at least one); an edge has equal panels.  The
    incoming ray is traversed toward its anchor: its nodes are reversed and
    its weights negated."""
    z = ax.z + eps
    anchors = [z + t for t in ax.theta]
    far = max(abs(a) for a in anchors)
    if R <= far * 1.05 + 1e-9:
        raise QuadratureError(
            f"tail radius {R} too small: excision of axis {j} extends to {far}")
    h0 = _PANEL / n_per_unit
    m = max(1, int(np.ceil(n_per_unit / _TAIL_DENSITY)))
    u = np.arange(m, -1, -1) / m  # 1 down to 0, so t rises through the tail

    def edge(a, b):
        length = abs(b - a)
        return np.linspace(0.0, length, max(1, int(np.ceil(length / h0))) + 1), a, (b - a) / length

    a0, a1 = anchors[0], anchors[-1]
    e0, e1 = ray_exit(a0, ax.d0, R), ray_exit(a1, ax.d1, R)
    # (panel ends, anchor, direction) per piece: each ray's graded panels, then its tail
    pieces = [(_graded_breaks(e0, h0), a0, ax.d0), (u, a0, ax.d0)] \
        + [edge(a, b) for a, b in zip(anchors[:-1], anchors[1:])] \
        + [(_graded_breaks(e1, h0), a1, ax.d1), (u, a1, ax.d1)]
    breaks, anchor, d = zip(*pieces)
    sizes = [len(b) - 1 for b in breaks]
    anchor, d = (np.repeat(x, sizes)[:, None] for x in (anchor, d))
    t, w = gauss_panel(np.concatenate([b[:-1] for b in breaks])[:, None],
                       np.concatenate([b[1:] for b in breaks])[:, None])
    for tail, e in ((slice(sizes[0], sizes[0] + m), e0), (slice(len(t) - m, None), e1)):
        t[tail] = e / t[tail]
        w[tail] *= -t[tail] ** 2 / e  # dt = -(t^2 / e) du
    nodes, weights = (anchor + t * d).ravel(), (w * d).ravel()
    g = _PANEL * (sizes[0] + sizes[1])  # the incoming ray's nodes
    return AxisPath(np.concatenate([nodes[g - 1::-1], nodes[g:]]),
                    np.concatenate([-weights[g - 1::-1], weights[g:]]), True)


def _check_shift(duals, eps, grid=False):
    """``eps`` checked against ``duals``, the dual sector of each axis: every
    shift finite and in its axis's closed dual sector.  One shift comes back
    as a tuple of Python complex, with ``grid`` an (E, k) array of shifts;
    the one place a shift becomes an array.  The error names the first defect."""
    try:
        x = np.asarray(eps, dtype=complex)
    except (TypeError, ValueError) as err:  # ragged or non-numeric shifts
        raise QuadratureError("eps must have one entry per axis") from err
    x = x.reshape(-1, 1) if grid and len(duals) == 1 and x.ndim == 1 else np.atleast_1d(x)
    if x.ndim != 1 + grid or x.shape[-1] != len(duals) or not x.size:
        raise QuadratureError("eps must have one entry per axis")
    if not np.isfinite(x).all():
        raise QuadratureError(f"shift {complex(x[~np.isfinite(x)][0])} is not finite")
    for j, dual in enumerate(duals):
        outside = ~dual.contains(x[..., j], closed=True, tol=1e-9)
        if outside.any():
            raise QuadratureError(f"shift {complex(x[..., j][outside][0])} is outside "
                                  f"the closed dual sector of axis {j}")
    return x if grid else tuple(map(complex, x))


def tail_radius(region, eps):
    """``TAIL_RADIUS``, raised to clear every shifted excision of ``region``
    by a factor 1.3 plus 1, so each ray's graded panels reach past it."""
    return max([TAIL_RADIUS] + [1.3 * max(abs(ax.z + e + t) for t in ax.theta) + 1.0
                                for ax, e in zip(region.axes, eps)])


@dataclass(frozen=True)
class AxisPath:
    """One axis of a contour; ``panels`` says its nodes come in panels of
    ``_PANEL``, which the error estimate reads."""

    nodes: np.ndarray
    weights: np.ndarray
    panels: bool


@dataclass(frozen=True)
class ContourQuadrature:
    """Tensor-product discretization of a shifted distinguished boundary;
    ``R`` is the tail radius of its rays."""

    axes: tuple
    region: object
    eps: tuple
    R: float
    n_per_unit: float

    @staticmethod
    def from_region(region, eps, R=None, n_per_unit=_N0):
        """The contour on ``region`` shifted by ``eps``, with tail radius ``R``
        (by default :func:`tail_radius`)."""
        return _contour(region, _check_shift([ax.dual_sector for ax in region.axes], eps), R,
                        n_per_unit)

    @property
    def k(self):
        return len(self.axes)

    @property
    def node_count(self):
        n = 1
        for ax in self.axes:
            n *= len(ax.nodes)
        return n


def _contour(region, eps, R=None, n_per_unit=_N0):
    """The :class:`ContourQuadrature` of ``region`` shifted by the checked
    per-axis shifts ``eps`` (Python complex), with tail radius ``R`` (by
    default :func:`tail_radius`)."""
    R = tail_radius(region, eps) if R is None else R
    return ContourQuadrature(tuple(_axis_path(ax, j, e, R, n_per_unit) for j, (ax, e)
                                   in enumerate(zip(region.axes, eps))),
                             region, eps, R, n_per_unit)


@dataclass(frozen=True)
class IntegrationResult:
    value: object
    error_estimate: float
    rounds: int
    node_count: int
    history: tuple = field(default=())


def _panel_error(wf, stack=None):
    """Error estimates of the panels of ``_PANEL`` nodes of the (N, ...) weighted
    values ``wf``, or with a (N, d, d) ``stack`` of each (M, N) row of ``wf``
    times the stack, ``wf[m, i] * stack[i]`` (not formed), member by member:
    the top coefficients' decay ratio (their norms paired over consecutive
    degrees, so parity cannot fake it) extrapolated to the degrees ``2n``
    and up, or from ``_STALL_RATIO`` on the top pair itself, at least
    ``_ROUNDOFF * sqrt(n sum |w f|^2) >= _ROUNDOFF * sum |w f|`` (``n = _PANEL``)."""
    n = _PANEL
    if stack is None:  # one product for all panels
        x = wf.reshape(-1, n, math.prod(wf.shape[1:])).view(float)  # (panels, n, entries)
        a = (x.swapaxes(1, 2).reshape(-1, n) @ _NULL_ROWS.T).reshape(len(x), -1, _NULL_ORDERS)
        top, size = np.einsum("pek,pek->pk", a, a), np.einsum("pie,pie->p", x, x)
    else:  # one product per panel for all members
        s = stack.reshape(-1, n, stack[0].size)  # (panels, n, entries)
        rows = (_NULL_ROWS * wf.reshape(len(wf), -1, 1, n)).swapaxes(0, 1)
        a = (rows.reshape(len(s), -1, n) @ s).reshape(len(s), len(wf), _NULL_ORDERS, -1)
        a = a.swapaxes(0, 1).reshape(-1, _NULL_ORDERS, s.shape[2]).view(float)
        top = np.einsum("pke,pke->pk", a, a)
        size = np.einsum("mpi,pi->mp", np.abs(wf.reshape(len(wf), -1, n)) ** 2,
                         np.einsum("pie,pie->pi", s.view(float), s.view(float)))
    pairs = top[:, 0::2] + top[:, 1::2]  # squared norms over consecutive degrees
    with np.errstate(divide="ignore", invalid="ignore"):  # nan: no decay seen
        rho = functools.reduce(np.maximum, (pairs[:, 1:] / pairs[:, :-1]).T) ** 0.25
        gain = np.where(rho < _STALL_RATIO, 2.0 * rho ** (n + 1) / (1.0 - rho), 1.0)
    return np.maximum(np.sqrt(pairs[:, -1]) * gain, _ROUNDOFF * np.sqrt(n * size.ravel()))


def _parts_error(members):
    """Error estimates of several sums: per sum, ``members`` holds its
    ``(axis, weighted values, stack or None)`` parts (see :func:`_panel_error`).
    The parts that share a stack, and those without one, share one
    :func:`_panel_error` call."""
    groups, owner, est = {}, [np.zeros(0, int)], [np.zeros(0)]
    for i, member in enumerate(members):
        for _, x, s in member:
            groups.setdefault(id(s), (s, []))[1].append((i, x))
    for s, rows in groups.values():
        x = [x.reshape(len(x), -1) for _, x in rows] if s is None else [x for _, x in rows]
        est.append(_panel_error(np.concatenate(x) if s is None else np.stack(x), s))
        owner.append(np.repeat([i for i, _ in rows], [len(x) // _PANEL for _, x in rows]))
    return np.bincount(np.concatenate(owner), np.concatenate(est), len(members))


def _cut_tail(wf, w, nodes, rate):
    """The tail ``|f(t_cut)| / rate`` of a ray cut after its last node, from
    the weighted values ``wf`` (N, ...) at ``nodes`` with weights ``w``; the
    certified ``rate`` is lowered to the decay the last two nodes show."""
    f = np.linalg.norm(wf[-2:].reshape(2, -1), axis=1) / np.abs(w[-2:])
    if f[1] == 0.0 or f[0] <= f[1]:  # nothing left, or no decay seen
        return 0.0 if f[1] == 0.0 else np.inf
    return f[1] / min(rate, np.log(f[0] / f[1]) / abs(nodes[-1] - nodes[-2]))


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
    """Tensor sum over the grid of per-axis ``nodes``, and its parts.

    Without ``stacks`` the sum is ``sum_i prod_j weights[j][i_j] * f(z_i)``;
    with per-axis (N_j, d, d) ``stacks`` (``f`` then scalar) it is
    ``sum_i prod_j weights[j][i_j] * f(z_i) * stacks[0][i_0] ... stacks[-1][i_-1]``
    with the operator factors in axis order.  The result is ``(value,
    parts)``, the parts those of :func:`_parts_error`: each axis's weighted
    sums over the other axes.

    When ``f`` carries separable ``terms`` (see :func:`_contract_terms`)
    the sum factorizes per axis; otherwise it is the blocked mode-by-mode
    contraction over the full grid.
    """
    terms = getattr(f, "terms", None)
    if terms is not None:
        return _contract_terms(terms, nodes, weights, stacks)
    k = len(nodes)
    lead = tuple(len(x) for x in nodes[:-1])
    n_last = len(nodes[-1])
    n_lead = int(np.prod(lead, dtype=np.int64))
    rows = min(max(1, _BLOCK_POINTS // n_last), n_lead)
    # last axis outermost, so a block's values reshape to (N_last, m, ...);
    # the last-axis column is filled once and the buffer reused by full blocks
    grid = np.empty((n_last, rows, k), dtype=complex)
    grid[:, :, -1] = nodes[-1][:, None]
    total = parts = 0
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
        lead_w = np.ones(m, dtype=complex)
        for j, i in enumerate(idx):
            lead_w = lead_w * weights[j][i]
        if stacks is None:
            by_last = vals.reshape((n_last, m) + vals.shape[1:])
            block = _kernels.reduce_weighted(weights[-1], by_last)
            last = lead_w @ by_last.reshape(n_last, m, -1)  # the leading axes contracted
        else:
            if vals.ndim != 1:
                raise QuadratureError("resolvent contour needs a scalar integrand factor")
            coeffs = (vals.reshape(n_last, m) * weights[-1][:, None]).T
            block = _kernels.reduce_weighted(coeffs, stacks[-1])
            chain = np.eye(len(block[0]))[None]  # each row's leading stacks, in axis order
            if idx:
                chain = functools.reduce(np.matmul, [stacks[j][i] for j, i in enumerate(idx)])
                block = chain @ block
            last = (vals.reshape(n_last, m) * lead_w) @ chain.reshape(m, -1)
        total = total + _kernels.reduce_weighted(lead_w, block)
        row_sums = lead_w[:, None] * block.reshape(m, -1)
        parts = parts or [np.zeros((len(x), row_sums.shape[1]), complex) for x in nodes]
        for j, i in enumerate(idx):  # a leading axis: the rows by their index on it
            np.add.at(parts[j], i, row_sums)
        parts[-1] += last
    if stacks is not None:
        parts[-1] = (parts[-1].reshape(stacks[-1].shape) @ stacks[-1]).reshape(n_last, -1)
    parts[-1] *= weights[-1][:, None]
    return total, [(j, g, None) for j, g in enumerate(parts)]


def _call_factor(f, x):
    """Evaluate one per-axis factor on the (N,) nodes of its axis."""
    view = x.view()
    view.flags.writeable = False  # the nodes belong to the contour
    vals = np.asarray(f(view), dtype=complex)
    if vals.shape != x.shape:
        raise QuadratureError(
            f"separable factor returned shape {vals.shape} for {len(x)} nodes; "
            "it must return one scalar per node")
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("non-finite integrand value at a quadrature node")
    return vals


def _contract_terms(terms, nodes, weights, stacks=None):
    """Tensor sum of a separable integrand ``sum_r prod_j terms[r][j](z_j)``,
    and its parts (see :func:`_contract`).

    By Fubini the grid sum factorizes: without ``stacks`` it is
    ``sum_r prod_j S_rj`` with the 1-D sums ``S_rj = weights[j] . f_rj(nodes[j])``;
    with ``stacks`` it is ``sum_r S_r0 @ S_r1 @ ...`` in axis order, where
    ``S_rj = sum_n weights[j][n] f_rj(nodes[j][n]) stacks[j][n]``.  The cost
    is linear in the node count of each axis instead of their product.
    Without terms the sum is a zero of the same shape: scalar, or (d, d).
    Axis ``j``'s parts follow :func:`_product_rule` (with the other sums'
    norms, term by term, for matrix sums on both sides of it): nothing
    k-dimensional is estimated.
    """
    k = len(nodes)
    total = 0j if stacks is None else np.zeros(stacks[0].shape[1:], dtype=complex)
    parts = {}  # (axis, term or None): factor values times the other axes' sums
    for r, term in enumerate(terms):
        if len(term) != k:
            raise QuadratureError(f"separable term has {len(term)} factors for {k} axes")
        vals = [_call_factor(fj, x) for fj, x in zip(term, nodes)]
        if stacks is None:
            sums = [_kernels.reduce_weighted(w, v) for w, v in zip(weights, vals)]
            total = total + math.prod(sums)
        else:
            sums = [_kernels.reduce_weighted(w * v, s) for w, v, s in zip(weights, vals, stacks)]
            total = total + functools.reduce(np.matmul, sums)
        if stacks is None or k == 1:  # scalar sums commute: the terms add up per axis
            for j, p in enumerate(_product_rule(vals, sums)):
                parts[j, None] = parts.get((j, None), 0) + p
        else:
            parts.update(((j, r), p) for j, p in
                         enumerate(_product_rule(vals, list(map(np.linalg.norm, sums)))))
    return total, [(j, weights[j] * p, None if stacks is None else stacks[j])
                   for (j, _), p in parts.items()]


def _product_rule(vals, sums):
    """Each axis's part of ``prod_j sums[j]``, where ``sums[j]`` sums
    ``vals[j]`` along its last axis: its values times the other sums."""
    return [math.prod(sums[:j] + sums[j + 1:]) * v for j, v in enumerate(vals)]


def _separable(terms):
    """The function ``sum_r prod_j terms[r][j](pts[:, j])`` on (M, k) points,
    (M,) zeros for no terms; it carries ``terms``, so :func:`_contract`
    factorizes its tensor sums."""
    terms = tuple(tuple(term) for term in terms)

    def fun(pts):
        out = np.zeros(len(pts), dtype=complex)
        for term in terms:
            out = out + math.prod(f(pts[:, j]) for j, f in enumerate(term))
        return out

    fun.terms = terms
    return fun


def _product(*fns):
    """Pointwise product of functions on (M, k) points.  When every factor
    carries separable ``terms`` the product is separable, with the pairwise
    products of their terms (ranks multiply); otherwise it carries none."""
    if all(getattr(f, "terms", None) is not None for f in fns):
        return _separable(
            tuple(lambda x, fs=fs: math.prod(f(x) for f in fs)
                  for fs in zip(*combo, strict=True))
            for combo in itertools.product(*(f.terms for f in fns)))
    return lambda pts: math.prod(f(pts) for f in fns)


def _estimated(fns, cq, stacks):
    """The :func:`_contract` sums of ``fns`` over ``cq`` and their estimates;
    node arrays without panels have no estimate."""
    nodes, weights = [ax.nodes for ax in cq.axes], [ax.weights for ax in cq.axes]
    values, parts = zip(*[_contract(f, nodes, weights, stacks) for f in fns])
    if not all(ax.panels for ax in cq.axes):
        return values, np.full(len(fns), np.inf)
    return values, _parts_error(parts)


def tensor_sum(f, cq):
    """Single tensor-product quadrature pass over ``cq``: ``(value, error
    estimate)``.

    ``f`` maps C^k to a scalar or a fixed-size matrix; it is called with
    (M, k) arrays of points and returns (M,) or (M, d, d).
    """
    (value,), (error,) = _estimated([f], cq, None)
    return value, error


def refine(value_at, n_per_unit, tol, what="integral"):
    """The refinement loop of every adaptive quadrature.

    Round ``r`` calls ``value_at(n_per_unit * 2**r)``, which returns
    ``(value, node_count, estimate)``: one estimate (``inf`` if unknown), or
    one per member of a ``value`` stacked along its first axis.  A member is
    accepted, and keeps its value, in the first round where its estimate or
    its difference from the previous round (Frobenius norm) is below
    ``tol``.  ``history`` holds ``(n_per_unit, node_count, largest error)``
    per round; after ``_MAX_ROUNDS`` a :class:`ConvergenceError` carries the
    value and that error.
    """
    history, prev, value, best = [], None, None, np.full(1, np.inf)
    for r in range(_MAX_ROUNDS):
        val, nodes, est = value_at(n_per_unit)
        cur = np.asarray(val).reshape(np.size(est), -1)  # one row per member
        diff = np.inf if prev is None else np.linalg.norm(cur - prev, axis=1)
        err = np.fmin(np.ravel(est), diff)
        if prev is None:
            out, best = cur.copy(), err
        live = best >= tol
        out[live], best[live] = cur[live], err[live]
        history.append((n_per_unit, nodes, float(err.max())))
        value = out.reshape(np.shape(val))[()]
        if (best < tol).all():
            return IntegrationResult(value, float(best.max()), r + 1, nodes, tuple(history))
        prev, n_per_unit = cur, 2.0 * n_per_unit
    raise ConvergenceError(f"{what} did not converge to {tol} in {_MAX_ROUNDS} rounds",
                           value=value, estimate=float(best.max()))


def adaptive_contour(value_of, cq, tol):
    """:func:`refine` over contours like ``cq``: ``value_of`` is called once
    per round on the contour of that round's density and ``cq``'s tail
    radius, returning ``(value, estimate)``; ``cq``'s shifts are checked."""
    def value_at(n_per_unit):
        c = cq if n_per_unit == cq.n_per_unit else _contour(cq.region, cq.eps, cq.R, n_per_unit)
        value, estimate = value_of(c)
        return value, c.node_count, estimate

    return refine(value_at, cq.n_per_unit, tol, "contour integral")


def integrate(f, cq, tol=1e-8):
    """Adaptive tensor-product contour integral of ``f`` over ``cq``."""
    return adaptive_contour(lambda c: tensor_sum(f, c), cq, tol)


def resolvent_contour_value(scalar_fns, schurs, lam, cq, node_offsets=None):
    """Tensor contour sums of ``f(zeta) * prod_j (lam_j A_j + m_j I)^{-1}`` for
    every ``f`` in ``scalar_fns``, where ``m_j = zeta_j - node_offsets[j]``,
    and their error estimates: a (len(scalar_fns), d, d) stack and a
    (len(scalar_fns),) vector; ``schurs`` holds the pairs ``(q_j, t_j)`` of
    ``A_j = q_j t_j q_j^H``, and ``lam`` is checked by the caller.

    This is the hot kernel of the calculus: per-axis resolvent stacks are
    solved once in batch against ``t_j``, carried into the next axis's basis
    by the unitary ``q_j^H q_{j+1}`` and contracted block by block against
    every integrand (see :func:`_contract`); each sum maps back once.  The
    caller applies any scalar prefactor.
    """
    offsets = np.zeros(len(schurs)) if node_offsets is None else node_offsets
    stacks = [_kernels.resolvent_stack(t, lam[j], ax.nodes - offsets[j])
              for j, ((_, t), ax) in enumerate(zip(schurs, cq.axes))]
    for j in range(len(stacks) - 1):  # into the basis of axis j + 1
        w = schurs[j][0].conj().T @ schurs[j + 1][0]
        stacks[j] = (stacks[j].reshape(-1, len(w)) @ w).reshape(stacks[j].shape)
    values, estimates = _estimated(scalar_fns, cq, stacks)
    return schurs[0][0] @ np.stack(values) @ schurs[-1][0].conj().T, estimates


def richardson(values):
    """Richardson extrapolation of a sequence computed at steps h, h/2, ...

    ``values`` may be scalars or arrays.  Returns ``(limit, residual)``
    where the residual is the distance between the last two diagonal
    entries (a Cauchy check for the extrapolant).
    """
    vals = [np.asarray(v, dtype=complex) for v in values]
    if len(vals) == 1:
        return vals[0], np.inf
    table = [vals]
    for m in range(1, len(vals)):
        fac = 2.0 ** m
        prev = table[-1]
        table.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0)
                      for i in range(len(prev) - 1)])
    best = table[-1][0]
    second = table[-2][-1]
    residual = float(np.linalg.norm(np.ravel(best - second)))
    if best.ndim == 0:
        best = complex(best)
    return best, residual


def initial_radius(rate, tol):
    """Truncation radius at which the envelope ``exp(-rate*t)`` drops below
    tol/100, at least ``TAIL_RADIUS``."""
    if not rate > 0:
        raise QuadratureError(f"exponential decay rate {rate} must be positive")
    return max(TAIL_RADIUS, np.log(100.0 / tol) / rate)


def ray_integral(f, start, direction, rate, tol=1e-10):
    """Adaptive integral of ``f`` along ``start + t*direction``, ``t >= 0``.

    The caller asserts integrability: ``|f|`` decays at least like
    ``exp(-rate*t)``.  That envelope sets the first round's truncation (see
    :func:`initial_radius`), and the truncation doubles with the node
    density each round, so the cut tail is below tol/100 and an orbit
    ``Exp(t*A)`` that grows is never evaluated far beyond it, where it
    would overflow.  A round's estimate adds the :func:`_cut_tail`.
    """
    direction = complex(direction)
    direction /= abs(direction)
    r0 = initial_radius(rate, tol)

    def value_at(n):
        nodes, weights = _ray_rule(complex(start), direction, r0, n)
        vals = _call_integrand(lambda q: f(q[:, 0]), nodes[:, None])
        wf = weights.reshape((-1,) + (1,) * (vals.ndim - 1)) * vals
        est = _panel_error(wf).sum() + _cut_tail(wf, weights, nodes, rate)
        return _kernels.reduce_weighted(weights, vals), len(nodes), est

    return refine(value_at, _N0, tol, "ray integral")
