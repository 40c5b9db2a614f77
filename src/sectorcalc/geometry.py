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

import copy
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-12


class GeometryError(ValueError):
    """Raised for invalid sector or region data."""


def _unit(angle):
    return complex(np.cos(angle), np.sin(angle))


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


def sup_points(points, ps, tol=TOL):
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
        if self.degenerate:
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
        if not out.degenerate:
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
    def degenerate(self):
        return abs(self.beta - self.alpha) <= TOL

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
        if self.degenerate:
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
        if self.degenerate:
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
        far0 = self._ray_extent(self.theta[0], self.d0, radius)
        far1 = self._ray_extent(self.theta[-1], self.d1, radius)
        return np.concatenate([self.z + self.theta[0] + ts * far0 * self.d0,
                               self.z + self.theta[-1] + ts * far1 * self.d1,
                               self.z + np.array(self.theta)])

    def _ray_extent(self, rel_anchor, d, radius):
        # largest t with |anchor + t*d| = radius (anchor measured from 0)
        a = self.z + rel_anchor
        b = (a * d.conjugate()).real
        disc = b * b + radius * radius - abs(a) ** 2
        if disc <= 0:
            raise GeometryError("truncation radius too small for this region")
        return -b + np.sqrt(disc)


def _halfplane_axis(alpha, z):
    return AxisRegion(alpha, alpha, z, (0j,))


def _cone_axis(alpha, beta, z):
    return AxisRegion(alpha, beta, z, (0j,))


def _cone_minus_disk_axis(alpha, beta, z, radius, samples=64):
    # the arc is cone stable only for apertures >= pi/2: below that a
    # dual-cone offset from an arc point re-enters the disk, and the
    # AxisRegion validation rejects the polyline
    if radius <= 0:
        return _cone_axis(alpha, beta, z)
    lo = -np.pi / 2 - alpha
    hi = np.pi / 2 - beta
    ang = np.linspace(lo, hi, samples)
    theta = tuple(radius * _unit(a) for a in ang)
    return AxisRegion(alpha, beta, z, theta)


def _cone_minus_rect_axis(alpha, beta, z, s0, s1):
    d0 = _unit(-np.pi / 2 - alpha)
    d1 = _unit(np.pi / 2 - beta)
    if s0 <= 0 and s1 <= 0:
        return _cone_axis(alpha, beta, z)
    theta = (s0 * d0, s0 * d0 + s1 * d1, s1 * d1)
    return AxisRegion(alpha, beta, z, theta)


_AXIS_BUILDERS = {
    "halfplane": lambda a, b, z, p: _halfplane_axis(a, z),
    "cone": lambda a, b, z, p: _cone_axis(a, b, z),
    "cone_minus_disk": lambda a, b, z, p: _cone_minus_disk_axis(
        a, b, z, p.get("radius", 0.0), p.get("samples", 64)
    ),
    "cone_minus_rect": lambda a, b, z, p: _cone_minus_rect_axis(
        a, b, z, p.get("s0", 0.0), p.get("s1", 0.0)
    ),
}


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
        alphas = obj["alpha"]
        betas = obj["beta"]
        verts = [complex(v[0], v[1]) for v in obj["vertex"]]
        exc = obj.get("excision") or {}
        axes = []
        for j in range(len(alphas)):
            if "axes" in exc:
                theta = tuple(complex(p[0], p[1]) for p in exc["axes"][j]["theta"])
                axes.append(AxisRegion(alphas[j], betas[j], verts[j], theta))
            elif "kind" in exc:
                kinds = exc["kind"]
                kind = kinds[j] if isinstance(kinds, (list, tuple)) else kinds
                params = {key: val[j] if isinstance(val, (list, tuple)) else val
                          for key, val in exc.items() if key != "kind"}
                axes.append(_AXIS_BUILDERS[kind](alphas[j], betas[j], verts[j], params))
            else:
                axes.append(_AXIS_BUILDERS["cone"](alphas[j], betas[j], verts[j], {}))
        return AdmissibleRegion(axes)


def make_region(alpha, beta, vertex, kind="cone", **params):
    """Preset region builder; ``kind`` applies to every axis.

    Kinds: ``halfplane`` (degenerate axes), ``cone``, ``cone_minus_disk``
    (``radius=``), ``cone_minus_rect`` (``s0=``, ``s1=``).
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    vertex = np.atleast_1d(np.asarray(vertex, dtype=complex))
    axes = []
    for j in range(len(alpha)):
        p = {key: (val[j] if isinstance(val, (list, tuple, np.ndarray)) else val)
             for key, val in params.items()}
        axis_kind = "halfplane" if abs(beta[j] - alpha[j]) <= TOL else kind
        axes.append(_AXIS_BUILDERS[axis_kind](alpha[j], beta[j], vertex[j], p))
    return AdmissibleRegion(axes)


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


def _chain_crossings(chain1, chain2):
    """Crossing points of every segment of ``chain1`` with every segment of
    ``chain2``, in row order; nearly parallel segments never cross."""
    da, db = np.diff(chain1)[:, None], np.diff(chain2)
    rhs = np.array(chain2[:-1]) - np.array(chain1[:-1])[:, None]
    den = da.real * db.imag - da.imag * db.real
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel pairs are masked
        t = (rhs.real * db.imag - rhs.imag * db.real) / den
        s = (rhs.real * da.imag - rhs.imag * da.real) / den
    scale = np.hypot(da.real, da.imag) * np.hypot(db.real, db.imag) + 1e-300
    hit = ~(np.abs(den) < 1e-14 * scale) & (-1e-12 <= t) & (t <= 1 + 1e-12) \
        & (-1e-12 <= s) & (s <= 1 + 1e-12)
    # the few crossing points in Python complex arithmetic, as the chains are
    return [chain1[i] + float(t[i, j]) * (chain1[i + 1] - chain1[i]) for i, j in np.argwhere(hit)]


def _axis_chain(ax, z_ref, radius, min_extent=0.0):
    """Absolute boundary polyline with long straight tails covering
    ``B(z_ref, radius)`` and at least ``min_extent`` along each tail."""
    extent = max(3.0 * (radius + abs(ax.z - z_ref) + ax.excision_radius + 1.0),
                 min_extent)
    pts = [ax.z + ax.theta[0] + extent * ax.d0]
    pts.extend(ax.z + t for t in ax.theta)
    pts.append(ax.z + ax.theta[-1] + extent * ax.d1)
    return pts


def _tail_rays(ax):
    return ((ax.z + ax.theta[0], ax.d0), (ax.z + ax.theta[-1], ax.d1))


def _tail_crossing_extent(a1, a2):
    """Largest ray parameter at which the asymptotic tails of the two
    boundaries can cross; the edges may meet at arbitrarily shallow
    angles, so no fixed truncation multiple covers this."""
    needed = 0.0
    for p, dp in _tail_rays(a1):
        for q, dq in _tail_rays(a2):
            den = dp.real * dq.imag - dp.imag * dq.real
            if abs(den) < 1e-12:
                continue
            rhs = q - p
            t = (rhs.real * dq.imag - rhs.imag * dq.real) / den
            s = (rhs.real * dp.imag - rhs.imag * dp.real) / den
            if t > 0 and s > 0:
                needed = max(needed, t, s)
    return needed


def _intersect_axis(a1, a2):
    alpha = min(a1.alpha, a2.alpha)
    beta = max(a1.beta, a2.beta)
    if beta - alpha >= np.pi - TOL and not (a1.degenerate and a2.degenerate and
                                            abs(a1.alpha - a2.alpha) <= TOL):
        raise GeometryError(
            f"empty axis intersection: combined sector ({alpha}, {beta}) has no dual cone"
        )
    if a1.degenerate and a2.degenerate and abs(a1.alpha - a2.alpha) <= TOL:
        # nested half-planes: keep the smaller one
        c1 = (a1.z * _unit(a1.alpha)).real
        c2 = (a2.z * _unit(a2.alpha)).real
        return a1 if c1 >= c2 else a2

    d0 = _unit(-np.pi / 2 - alpha)
    d1 = _unit(np.pi / 2 - beta)
    n0 = 1j * d0  # inward normal of the lower asymptotic line
    n1 = -1j * d1

    def _binding(direction, normal, pick0):
        best = None
        for ax in (a1, a2):
            dref = ax.d0 if pick0 else ax.d1
            if abs(dref - direction) > 1e-9:
                continue
            c = (ax.z * normal.conjugate()).real
            if best is None or c > best[0]:
                best = (c, ax.z)
        return best[1]

    p_lo = _binding(d0, n0, True)
    p_hi = _binding(d1, n1, False)
    # vertex: intersection of the two binding asymptotic lines
    den = d0.real * d1.imag - d0.imag * d1.real
    rhs = p_hi - p_lo
    t = (rhs.real * d1.imag - rhs.imag * d1.real) / den
    z3 = p_lo + t * d0

    radius = 4.0 * (abs(z3) + abs(a1.z) + abs(a2.z) + a1.excision_radius + a2.excision_radius + 1.0)
    min_extent = 1.5 * _tail_crossing_extent(a1, a2) + 1.0
    chain1 = _axis_chain(a1, z3, radius, min_extent)
    chain2 = _axis_chain(a2, z3, radius, min_extent)

    kept = (np.array(chain1)[a2.contains(chain1, closed=True, tol=1e-9)].tolist()
            + np.array(chain2)[a1.contains(chain2, closed=True, tol=1e-9)].tolist())
    kept += _chain_crossings(chain1, chain2)
    if not kept:
        raise GeometryError("empty axis intersection")

    # order along the envelope: x decreasing, then y increasing, in the
    # oblique coordinates of the combined dual cone
    keyed = []
    for p in kept:
        x, y = _oblique_coords(p - z3, d0, d1)
        keyed.append((round(-x, 9), round(y, 9), p))
    keyed.sort(key=lambda r: (r[0], r[1]))
    chain = []
    for _, _, p in keyed:
        if not chain or abs(p - chain[-1]) > 1e-9 * (1 + abs(p)):
            chain.append(p)

    def _on_line(p, anchor, d):
        return abs(((p - anchor) * d.conjugate()).imag)

    # trim the straight tails along the asymptotic lines
    while len(chain) >= 2 and _on_line(chain[0], z3, d0) <= 1e-7 * (1 + abs(chain[0] - z3)) \
            and _on_line(chain[1], z3, d0) <= 1e-7 * (1 + abs(chain[1] - z3)):
        chain.pop(0)
    while len(chain) >= 2 and _on_line(chain[-1], z3, d1) <= 1e-7 * (1 + abs(chain[-1] - z3)) \
            and _on_line(chain[-2], z3, d1) <= 1e-7 * (1 + abs(chain[-2] - z3)):
        chain.pop()

    if len(chain) == 1 and abs(chain[0] - z3) <= 1e-9 * (1 + abs(z3)):
        theta = (0j,)
    else:
        # snap the chain ends onto the asymptotic rays
        first = chain[0] - z3
        last = chain[-1] - z3
        s0 = max(((first) * d0.conjugate()).real, 0.0)
        s1 = max(((last) * d1.conjugate()).real, 0.0)
        theta = [s0 * d0] + [p - z3 for p in chain[1:-1]] + [s1 * d1]
        cleaned = [theta[0]]
        for t in theta[1:]:
            if abs(t - cleaned[-1]) > 1e-9 * (1 + abs(t)):
                cleaned.append(t)
        theta = tuple(cleaned) if len(cleaned) > 1 or abs(cleaned[0]) > 1e-12 else (0j,)
    return AxisRegion(alpha, beta, z3, theta)


def intersect_admissible(u1, u2):
    """Intersection of two admissible regions, admissible with respect to
    the componentwise ``(min(alpha), max(beta))`` sector pair."""
    if u1.k != u2.k:
        raise GeometryError("regions must have the same dimension")
    return AdmissibleRegion([_intersect_axis(a, b) for a, b in zip(u1.axes, u2.axes)])
