"""Sectors, dual cones and admissible product regions.

Angles are raw radians and are never reduced mod 2*pi: the pair
``(alpha, beta)`` is ordered data.  All values are immutable after
construction and all operations are pure, so everything here is safe to
share across threads.

A :class:`Sector` is the set of nonzero ``zeta`` with
``alpha < arg(zeta) < beta`` (some determination); the closed sector with
``alpha == beta`` is the ray of angle ``alpha``.  The dual sector of
``(alpha, beta)`` is the sector ``(-pi/2 - alpha, pi/2 - beta)``: the cone
of exponents ``lam`` with ``|exp(-lam*zeta)| <= 1`` on the closed sector.

An :class:`AdmissibleRegion` is a product of per-axis open sets, each a
translated dual cone with a bounded excision whose boundary is the chain

    incoming ray  ->  polyline ``theta``  ->  outgoing ray,

the rays having directions ``exp(1j*(-pi/2 - alpha))`` and
``exp(1j*(pi/2 - beta))``.  Degenerate axes (``alpha == beta``) are open
half-planes ``Re(zeta*exp(1j*alpha)) > c`` with the full boundary line and
an empty polyline.  Boundary membership is decided with absolute
tolerance ``TOL`` on signed distances.

Membership and distance take one point or an array of points; the product
forms read the last axis as the ``k`` coordinates and refuse any other
length.  Complex products are written out in real arithmetic and moduli
taken with ``np.hypot`` (NumPy's array ``*`` and ``abs`` round differently),
so array answers equal the one-point answers bit for bit.
"""

import cmath
import copy
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-12


class GeometryError(ValueError):
    """Raised for invalid sector or region data, and for malformed pairs."""


def _unit(angle):
    return complex(np.cos(angle), np.sin(angle))


def ray_exit(anchor, d, radius):
    """Largest ``t`` with ``|anchor + t*d| = radius``, for a unit ``d``: where
    the ray leaves the circle of that radius about 0."""
    b = (anchor * d.conjugate()).real
    disc = b * b + radius * radius - abs(anchor) ** 2
    if disc <= 0:
        raise GeometryError(f"radius {radius} too small for the ray from {anchor}")
    return -b + np.sqrt(disc)


def cone_signed_distance(zeta, mid, half):
    """Signed distance from ``zeta`` (a point or an array of points) to the
    closed cone about angle ``mid`` with half-aperture ``half`` (vertex 0);
    negative inside, zero at the vertex."""
    zeta = np.asarray(zeta, dtype=complex)
    # [()] makes one point NumPy scalars, whose arithmetic is cheaper than 0-d arrays'
    x, y, c = zeta.real[()], zeta.imag[()], _unit(-mid)
    # arg of zeta * c, the product written out as in scalar complex arithmetic
    phi = np.abs(np.arctan2(x * c.imag + y * c.real, x * c.real - y * c.imag)) - half
    # sin(pi/2) is exactly 1: past a right angle the distance is |zeta|
    return np.hypot(x, y) * np.sin(np.minimum(phi, np.pi / 2))


def _product_contains(factors, point, closed, tol):
    """Membership of ``point`` (one coordinate per factor on its last axis)."""
    point = np.atleast_1d(np.asarray(point, dtype=complex))
    if point.shape[-1] != len(factors):
        raise GeometryError(f"point has dimension {point.shape[-1]}, expected {len(factors)}")
    return np.logical_and.reduce(
        [f.contains(point[..., j], closed, tol) for j, f in enumerate(factors)])


@dataclass(frozen=True)
class Sector:
    """Open sector ``alpha < arg < beta``; requires ``alpha <= beta <= alpha + pi``."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha <= self.beta + TOL):
            raise GeometryError(f"need alpha <= beta, got ({self.alpha}, {self.beta})")
        if self.beta > self.alpha + np.pi + TOL:
            raise GeometryError(f"need beta <= alpha + pi, got ({self.alpha}, {self.beta})")

    @property
    def aperture(self):
        return self.beta - self.alpha

    @property
    def is_ray(self):
        """True when the open sector is empty (closed set is a single ray)."""
        return abs(self.beta - self.alpha) <= TOL

    @property
    def bisector_angle(self):
        return 0.5 * (self.alpha + self.beta)

    def dual(self):
        """Dual sector ``(-pi/2 - alpha, pi/2 - beta)``.

        When ``beta == alpha + pi`` the dual aperture is zero: the open
        dual sector is empty and ``is_ray`` flags the degenerate result.
        """
        return Sector(-np.pi / 2 - self.alpha, np.pi / 2 - self.beta)

    def signed_distance(self, zeta):
        return cone_signed_distance(zeta, self.bisector_angle, 0.5 * self.aperture)

    def contains(self, zeta, closed=False, tol=TOL):
        """Membership of ``zeta`` (a point or an array of points); 0 belongs
        only to the closed sector, where its signed distance is 0."""
        d = self.signed_distance(zeta)
        return d <= tol if closed else d < -tol


@dataclass(frozen=True)
class ProductSector:
    """Product of sectors in C^k."""

    sectors: tuple

    def __init__(self, sectors):
        sectors = tuple(
            s if isinstance(s, Sector) else Sector(float(s[0]), float(s[1])) for s in sectors
        )
        if not sectors:
            raise GeometryError("need at least one sector")
        object.__setattr__(self, "sectors", sectors)

    @property
    def k(self):
        return len(self.sectors)

    @property
    def alpha(self):
        return np.array([s.alpha for s in self.sectors])

    @property
    def beta(self):
        return np.array([s.beta for s in self.sectors])

    def dual(self):
        return ProductSector([s.dual() for s in self.sectors])

    def contains(self, point, closed=False, tol=TOL):
        """Membership of ``point``, shape ``(..., k)``."""
        return _product_contains(self.sectors, point, closed, tol)


def preceq(z, zp, ps, tol=TOL):
    """Componentwise test ``zp[j] - z[j] in closed dual sector`` (the cone preorder)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    zp = np.atleast_1d(np.asarray(zp, dtype=complex))
    if z.shape != (ps.k,) or zp.shape != (ps.k,):
        raise GeometryError("points must have dimension k")
    return ps.dual().contains(zp - z, closed=True, tol=tol)


def _oblique_coords(p, d0, d1):
    """Coordinates (x, y) with p = x*d0 + y*d1; requires d0, d1 independent."""
    det = d0.real * d1.imag - d0.imag * d1.real
    x = (p.real * d1.imag - p.imag * d1.real) / det
    y = (d0.real * p.imag - d0.imag * p.real) / det
    return x, y


def sup_points(points, ps):
    """Least upper bound of ``points`` for the dual-cone preorder.

    Returns ``(z, unique)`` where ``z + closed dual cone`` equals the
    intersection of the translated cones.  On axes with ``alpha < beta``
    the representative is unique (intersection of the two extreme
    boundary rays); on degenerate axes the translated half-planes are
    nested, the canonical representative is the input whose half-plane is
    smallest and ``unique`` is False.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    if pts.shape[1] != ps.k:
        raise GeometryError("points must have dimension k")
    if pts.shape[0] == 0:
        raise GeometryError("need a nonempty list of points")
    out = np.empty(ps.k, dtype=complex)
    unique = True
    for j, s in enumerate(ps.sectors):
        col = pts[:, j]
        if s.is_ray:
            # half-planes Re(z e^{i alpha}) >= c are linearly ordered
            offsets = (col * _unit(s.alpha)).real
            out[j] = col[int(np.argmax(offsets))]
            unique = False
        else:
            d0 = _unit(-np.pi / 2 - s.alpha)
            d1 = _unit(np.pi / 2 - s.beta)
            xs, ys = _oblique_coords(col, d0, d1)
            out[j] = xs.max() * d0 + ys.max() * d1
    return out, unique


# ---------------------------------------------------------------------------
# per-axis admissible sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxisRegion:
    """One factor of an admissible product region.

    ``theta`` holds the excision polyline relative to the vertex ``z``;
    its endpoints are ``s0*d0`` and ``s1*d1`` where ``d0``, ``d1`` are the
    asymptotic ray directions.  Degenerate axes (``alpha == beta``) are
    half-planes with an empty polyline.  The sector, its dual, the
    boundary pieces and the excision polygon are built once, at
    construction.
    """

    alpha: float
    beta: float
    z: complex
    theta: tuple = field(default=(0j,))
    sector: Sector = field(init=False, repr=False, compare=False)
    dual_sector: Sector = field(init=False, repr=False, compare=False)
    # pieces anchor + t*step, 0 <= t <= reach: the two unit-step rays (reach
    # inf), then the segments (reach 1); as (anchor.real, anchor.imag,
    # step.real, step.imag, |step|^2 taken as 1 on the rays, reach)
    _pieces: tuple = field(init=False, repr=False, compare=False, default=None)
    # edges a -> b of the excised polygon z, z + theta..., z as (a.real, a.imag,
    # b.imag, b.real - a.real, b.imag - a.imag or 1 on level edges), or None
    _polygon: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "sector", Sector(self.alpha, self.beta))
        object.__setattr__(self, "dual_sector", self.sector.dual())
        theta = tuple(complex(t) for t in self.theta)
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "theta", theta)
        if not all(map(cmath.isfinite, (self.z,) + theta)):
            raise GeometryError(f"vertex {self.z} and polyline {theta} must be finite")
        if self.sector.is_ray:
            if len(theta) > 1:
                raise GeometryError("half-plane axis takes an empty excision")
            object.__setattr__(self, "theta", (0j,))
            return
        if not theta:
            raise GeometryError("polyline needs at least the vertex sample")
        self._validate_polyline()
        self._place()

    def translated(self, eps):
        """This axis moved by ``eps``: the sectors and polyline checks are
        translation invariant, only the pieces are placed again."""
        out = copy.copy(self)
        object.__setattr__(out, "z", self.z + complex(eps))
        if not out.sector.is_ray:
            out._place()
        return out

    def _place(self):
        """The boundary pieces and excision polygon at the vertex ``z``."""
        verts = self.z + np.array(self.theta)
        steps = np.diff(verts)
        anchor = np.concatenate([[verts[0], verts[-1]], verts[:-1]])
        step = np.concatenate([[self.d0, self.d1], steps])
        object.__setattr__(self, "_pieces", (
            anchor.real, anchor.imag, step.real, step.imag,
            np.concatenate([[1.0, 1.0], steps.real * steps.real + steps.imag * steps.imag]),
            np.concatenate([[np.inf, np.inf], np.ones(len(steps))])))
        if len(self.theta) > 1:
            poly = np.concatenate([[self.z], verts, [self.z]])
            a, b = poly[:-1], poly[1:]
            object.__setattr__(self, "_polygon", (
                a.real, a.imag, b.imag, b.real - a.real,
                np.where(b.imag == a.imag, 1.0, b.imag - a.imag)))

    @property
    def d0(self):
        return _unit(-np.pi / 2 - self.alpha)

    @property
    def d1(self):
        return _unit(np.pi / 2 - self.beta)

    @property
    def s0(self):
        return abs(self.theta[0])

    @property
    def s1(self):
        return abs(self.theta[-1])

    @property
    def excision_radius(self):
        """Radius of a vertex-centered disk containing the excised set."""
        return max(abs(t) for t in self.theta)

    def _validate_polyline(self):
        th = self.theta
        if abs(th[0] - self.s0 * self.d0) > 1e-9 * (1 + self.s0):
            raise GeometryError("polyline must start on the incoming ray direction")
        if abs(th[-1] - self.s1 * self.d1) > 1e-9 * (1 + self.s1):
            raise GeometryError("polyline must end on the outgoing ray direction")
        if len(th) == 1:  # on both ray directions: the vertex, nothing more to check
            return
        th = np.array(th)
        if np.any((th != 0) & (self.dual_sector.signed_distance(th)
                               > 1e-9 * (1 + np.hypot(th.real, th.imag)))):
            raise GeometryError("polyline sample outside the closed dual cone")
        steps = np.diff(th)
        if np.any(np.hypot(steps.real, steps.imag) <= TOL):
            raise GeometryError("polyline samples must be pairwise distinct")
        # cone stability <=> the polyline is a monotone staircase in the
        # oblique (d0, d1) coordinates
        x, y = _oblique_coords(th, self.d0, self.d1)
        if np.any((x[1:] > x[:-1] + 1e-9) | (y[1:] < y[:-1] - 1e-9)):
            raise GeometryError("excision boundary violates cone stability")

    # -- membership ---------------------------------------------------------

    def _side(self, zeta):
        """Offset of ``zeta`` from a half-plane axis's boundary line,
        ``Re((zeta - z) * exp(1j*alpha))``; positive inside."""
        u = _unit(self.alpha)
        return (zeta.real - self.z.real) * u.real - (zeta.imag - self.z.imag) * u.imag

    def boundary_distance(self, zeta):
        """Exact distance from ``zeta`` (a point or an array of points) to
        the boundary chain: the least distance to its pieces, each
        projection clamped to the piece."""
        zeta = np.asarray(zeta, dtype=complex)
        if self.sector.is_ray:
            return np.abs(self._side(zeta))
        ax, ay, sx, sy, norm, reach = self._pieces
        x, y = zeta.real[..., None], zeta.imag[..., None]
        t = np.minimum(np.maximum(((x - ax) * sx + (y - ay) * sy) / norm, 0.0), reach)
        return np.hypot(x - (ax + t * sx), y - (ay + t * sy)).min(axis=-1)

    def _in_excision(self, zeta):
        """Even-odd crossing count of a rightward ray from ``zeta`` against
        the excision polygon.  Points on the polygon get an unspecified
        answer: callers settle them by boundary distance first."""
        ax, ay, by, dx, dy = self._polygon
        x, y = zeta.real[..., None], zeta.imag[..., None]
        hits = ((ay > y) != (by > y)) & (x < ax + (y - ay) * dx / dy)
        return np.count_nonzero(hits, axis=-1) % 2 == 1

    def contains(self, zeta, closed=False, tol=TOL):
        """Membership of ``zeta`` (a point or an array of points)."""
        return self._contains(np.asarray(zeta, dtype=complex), closed, tol)

    def _contains(self, zeta, closed, tol, distance=None):
        """:meth:`contains` of complex ``zeta``, with its ``distance`` if known."""
        if self.sector.is_ray:
            side = self._side(zeta)
            return side >= -tol if closed else side > tol
        cone_d = self.dual_sector.signed_distance(zeta - self.z)
        inside = cone_d <= tol if closed else cone_d < -tol
        if self._polygon is None:
            return inside
        on_boundary = (self.boundary_distance(zeta) if distance is None else distance) <= tol
        clear = ~self._in_excision(zeta)  # outside the excised set
        return inside & (on_boundary | clear) if closed else inside & ~on_boundary & clear

    def sample_boundary(self, radius):
        """Deterministic boundary samples out to ``radius`` (absolute points):
        10 on each ray and the excision vertices."""
        ts = np.linspace(0.2, 1.0, 10)
        far0 = ray_exit(self.z + self.theta[0], self.d0, radius)
        far1 = ray_exit(self.z + self.theta[-1], self.d1, radius)
        return np.concatenate([self.z + self.theta[0] + ts * far0 * self.d0,
                               self.z + self.theta[-1] + ts * far1 * self.d1,
                               self.z + np.array(self.theta)])


def _preset_axis(kind, alpha, beta, z, params):
    """One axis of a :func:`make_region` preset."""
    if kind not in ("halfplane", "cone", "cone_minus_disk", "cone_minus_rect"):
        raise GeometryError(f"unknown region kind {kind!r}")
    radius, s0, s1 = (params.get(key, 0.0) for key in ("radius", "s0", "s1"))
    if kind == "cone_minus_disk" and radius > 0:
        # the arc is cone stable only for apertures >= pi/2: below that a
        # dual-cone offset from an arc point re-enters the disk, and the
        # AxisRegion validation rejects the polyline
        ang = np.linspace(-np.pi / 2 - alpha, np.pi / 2 - beta, params.get("samples", 64))
        return AxisRegion(alpha, beta, z, tuple(radius * _unit(a) for a in ang))
    if kind == "cone_minus_rect" and (s0 > 0 or s1 > 0):
        d0, d1 = _unit(-np.pi / 2 - alpha), _unit(np.pi / 2 - beta)
        return AxisRegion(alpha, beta, z, (s0 * d0, s0 * d0 + s1 * d1, s1 * d1))
    return AxisRegion(alpha, alpha if kind == "halfplane" else beta, z)


def float_pairs(values, name, ndim, pair="[re, im]"):
    """``values`` as a float array: ``ndim`` levels of lists, the innermost
    ``pair``s; any other shape is refused, naming the field.  The one parser
    of pairs in region, tuple and scenario data."""
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.ndim != ndim or out.shape[-1] != 2:
        shape = ("a {}", "a list of {}s", "a matrix of {}s", "a list of matrices of {}s")
        raise GeometryError(f"{name!r} must be {shape[ndim - 1].format(pair + ' pair')}, "
                            f"got {values!r}")
    return out


def complex_pairs(values, name, ndim):
    """:func:`float_pairs` of ``[re, im]`` pairs as a complex array of ``ndim - 1`` levels."""
    return float_pairs(values, name, ndim).view(complex)[..., 0]


def _check_axis_count(alpha, **per_axis):
    """Refuse a per-axis entry (a list, tuple or array) whose length is
    not the number of axes, ``len(alpha)``."""
    for name, values in per_axis.items():
        if isinstance(values, (list, tuple, np.ndarray)) and len(values) != len(alpha):
            raise GeometryError(f"{name} has {len(values)} entries for {len(alpha)} axes")


@dataclass(frozen=True)
class AdmissibleRegion:
    """Product of :class:`AxisRegion` factors."""

    axes: tuple

    def __init__(self, axes):
        axes = tuple(axes)
        if not axes:
            raise GeometryError("need at least one axis")
        object.__setattr__(self, "axes", axes)

    @property
    def k(self):
        return len(self.axes)

    @property
    def sectors(self):
        return ProductSector([a.sector for a in self.axes])

    @property
    def vertex(self):
        return np.array([a.z for a in self.axes])

    def contains(self, point, closed=False, tol=TOL):
        """Membership of ``point``, shape ``(..., k)``."""
        return _product_contains(self.axes, point, closed, tol)

    def validate(self, rng=None):
        """Check cone stability on the stored boundary samples plus 100 random
        dual-cone offsets per axis; raises :class:`GeometryError` on failure."""
        rng = rng if rng is not None else np.random.default_rng(0)
        for ax in self.axes:
            lo, hi = -np.pi / 2 - ax.alpha, np.pi / 2 - ax.beta
            angs = rng.uniform(min(lo, hi), max(lo, hi), 100)
            mags = 10.0 ** rng.uniform(-2, 1, 100)
            offsets = mags * np.exp(1j * angs)
            bases = ax.z + np.array(ax.theta)
            bad = ~ax.contains(bases[:, None] + offsets, closed=True, tol=1e-9)
            if bad.any():
                i, e = np.argwhere(bad)[0]
                raise GeometryError(f"cone stability violated at {bases[i]} + {offsets[e]}")
        return True

    def to_json(self):
        excision = []
        for ax in self.axes:
            excision.append(
                {
                    "s": [ax.s0, ax.s1],
                    "theta": [[t.real, t.imag] for t in ax.theta],
                }
            )
        return {
            "alpha": [ax.alpha for ax in self.axes],
            "beta": [ax.beta for ax in self.axes],
            "vertex": [[ax.z.real, ax.z.imag] for ax in self.axes],
            "excision": {"axes": excision},
        }

    @staticmethod
    def from_json(obj):
        """The region of :meth:`to_json`, or of a preset descriptor whose
        ``excision`` holds the keywords of :func:`make_region`."""
        verts = complex_pairs(obj["vertex"], "vertex", 2).tolist()
        exc = obj.get("excision") or {}
        if "axes" not in exc:
            return make_region(obj["alpha"], obj["beta"], verts, **exc)
        _check_axis_count(obj["alpha"], beta=obj["beta"], vertex=verts, axes=exc["axes"])
        return AdmissibleRegion([
            AxisRegion(a, b, z, tuple(complex_pairs(ax["theta"], "theta", 2).tolist()))
            for a, b, z, ax in zip(obj["alpha"], obj["beta"], verts, exc["axes"])])


def make_region(alpha, beta, vertex, kind="cone", **params):
    """Preset region builder.

    Kinds: ``halfplane`` (taking ``alpha`` only), ``cone``,
    ``cone_minus_disk`` (``radius=``, ``samples=``), ``cone_minus_rect``
    (``s0=``, ``s1=``); an empty excision gives the cone.  ``kind`` and each
    parameter is one value for every axis or a list of one per axis.
    Degenerate axes (``alpha == beta``) are half-planes whatever the kind.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    vertex = np.atleast_1d(np.asarray(vertex, dtype=complex))
    _check_axis_count(alpha, beta=beta, vertex=vertex, kind=kind, **params)

    def at(val, j):
        return val[j] if isinstance(val, (list, tuple, np.ndarray)) else val

    return AdmissibleRegion([
        _preset_axis("halfplane" if abs(b - a) <= TOL else at(kind, j), a, b, z,
                     {key: at(val, j) for key, val in params.items()})
        for j, (a, b, z) in enumerate(zip(alpha, beta, vertex))])


def dist_to_boundary(region, j, zeta):
    """Distance from ``zeta`` (a point or an array of points) to the
    boundary of axis ``j``; requires every point inside the open axis set."""
    ax = region.axes[j]
    zeta = np.asarray(zeta, dtype=complex)
    outside = ~ax.contains(zeta)
    if outside.any():
        raise GeometryError(f"point {zeta[outside][0]} is not inside axis {j}")
    return ax.boundary_distance(zeta)


# ---------------------------------------------------------------------------
# intersection of admissible regions
# ---------------------------------------------------------------------------


def _boundary_graph(ax, d0, d1):
    """The boundary chain of ``ax`` as the graph ``x = X(s)``, ``s = y - x``,
    in the oblique coordinates ``p = x*d0 + y*d1`` of a dual cone inside
    the axis's own: the closed axis set is ``x >= X(s)``.  Returns X's
    vertices ``(s, x)`` and its slopes ``dx/ds`` on the two rays."""
    x, y = _oblique_coords(ax.z + np.array(ax.theta), d0, d1)
    (a, b), (c, e) = (_oblique_coords(d, d0, d1) for d in (ax.d0, ax.d1))
    return y - x, x, a / (b - a), c / (e - c)


def _graph_at(graph, s):
    """``X(s)`` of a :func:`_boundary_graph` at the array ``s``."""
    sv, xv, m0, m1 = graph
    return np.where(s < sv[0], xv[0] + m0 * (s - sv[0]),
                    np.where(s > sv[-1], xv[-1] + m1 * (s - sv[-1]), np.interp(s, sv, xv)))


def _intersect_axis(a1, a2):
    """The intersection's boundary, exactly, as the upper envelope
    ``max(X1, X2)`` of the two boundary graphs (:func:`_boundary_graph`)
    in the oblique coordinates of the combined dual cone."""
    alpha = min(a1.alpha, a2.alpha)
    beta = max(a1.beta, a2.beta)
    if a1.sector.is_ray and a2.sector.is_ray and abs(a1.alpha - a2.alpha) <= TOL:
        # nested half-planes Re(zeta*exp(1j*alpha)) > c: keep the larger c
        return max((a1, a2), key=lambda a: (a.z * _unit(a.alpha)).real)
    if beta - alpha >= np.pi - TOL:
        raise GeometryError(f"empty axis intersection: combined sector ({alpha}, {beta}) "
                            "has no dual cone")
    d0, d1 = _unit(-np.pi / 2 - alpha), _unit(np.pi / 2 - beta)
    g1, g2 = _boundary_graph(a1, d0, d1), _boundary_graph(a2, d0, d1)
    # the envelope's breakpoints: each graph's vertices where it is the upper
    # one, and the crossings; X1 - X2 is linear between consecutive vertices
    # and on the two unbounded pieces, so each crossing has a closed form
    s = np.concatenate([g1[0], g2[0]])
    gap = np.concatenate([g1[1] - _graph_at(g2, g1[0]), _graph_at(g1, g2[0]) - g2[1]])
    upper = np.concatenate([gap[:len(g1[0])] >= 0, gap[len(g1[0]):] <= 0])
    order = np.argsort(s, kind="stable")
    s, gap, upper = s[order], gap[order], upper[order]
    i = np.flatnonzero(gap[:-1] * gap[1:] < 0)
    crossings = [s[i] + (s[i + 1] - s[i]) * gap[i] / (gap[i] - gap[i + 1])]
    for end, slope, side in ((0, g1[2] - g2[2], -1.0), (-1, g1[3] - g2[3], 1.0)):
        if slope != 0 and -gap[end] / slope * side > 0:
            crossings.append([s[end] - gap[end] / slope])
    s = np.sort(np.concatenate([s[upper]] + crossings))
    x = np.maximum(_graph_at(g1, s), _graph_at(g2, s))
    y = x + s
    tol = 1e-9 * (1 + np.abs(np.concatenate([x, y])).max())
    keep = np.concatenate([[True], np.diff(s) > tol])
    x, y = x[keep], y[keep]
    # y rises and x falls along the envelope: a prefix of its points lies on
    # the incoming asymptote y = y[0], a suffix on the outgoing one x = x[-1]
    p = np.count_nonzero(y - y[0] <= tol) - 1
    q = len(x) - np.count_nonzero(x - x[-1] <= tol)
    if p >= q:
        theta = (0j,)
    else:
        # the ends snapped onto the rays
        xs, ys = x[p:q + 1] - x[-1], y[p:q + 1] - y[0]
        xs[-1], ys[0] = 0.0, 0.0
        theta = tuple(xs * d0 + ys * d1)
    return AxisRegion(alpha, beta, x[-1] * d0 + y[0] * d1, theta)


def intersect_admissible(u1, u2):
    """Intersection of two admissible regions, admissible with respect to
    the componentwise ``(min(alpha), max(beta))`` sector pair."""
    if u1.k != u2.k:
        raise GeometryError("regions must have the same dimension")
    return AdmissibleRegion([_intersect_axis(a, b) for a, b in zip(u1.axes, u2.axes)])
