import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorcalc import geometry as g

PI = np.pi


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestSector:
    def test_dual_formula_instances(self):
        assert g.Sector(0.0, 0.0).dual() == g.Sector(-PI / 2, PI / 2)
        d = g.Sector(-PI / 4, PI / 4).dual()
        assert d.alpha == pytest.approx(-PI / 4) and d.beta == pytest.approx(PI / 4)

    def test_dual_of_halfplane_sector_is_degenerate_ray(self):
        d = g.Sector(0.3, 0.3 + PI).dual()
        assert d.is_ray
        assert d.alpha == pytest.approx(-PI / 2 - 0.3)

    def test_dual_is_involutive(self, rng):
        for _ in range(100):
            a = rng.uniform(-4, 4)
            b = a + rng.uniform(0, PI)
            s = g.Sector(a, b)
            dd = s.dual().dual()
            assert dd.alpha == pytest.approx(s.alpha)
            assert dd.beta == pytest.approx(s.beta)
            assert dd.aperture == pytest.approx(s.aperture)

    def test_membership_conventions(self):
        s = g.Sector(-PI / 4, PI / 4)
        assert s.contains(1.0)
        assert not s.contains(0.0)
        assert s.contains(0.0, closed=True)
        ray = g.Sector(0.0, 0.0)
        assert ray.contains(2.0, closed=True)
        assert not ray.contains(1j, closed=True)
        assert not ray.contains(2.0)  # open ray sector is empty

    def test_invalid_angle_pairs_rejected(self):
        with pytest.raises(g.GeometryError):
            g.Sector(1.0, 0.5)
        with pytest.raises(g.GeometryError):
            g.Sector(0.0, 4.0)

    def test_exponential_contraction_on_dual_pairs(self, rng):
        # |exp(-lam*zeta)| < 1 strictly inside the dual cone, <= 1 on its closure
        for _ in range(1000):
            a = rng.uniform(-2, 2)
            b = a + rng.uniform(0.0, PI * 0.95)
            s = g.Sector(a, b)
            d = s.dual()
            lam_ang = rng.uniform(d.alpha + 1e-3, d.beta - 1e-3) if not d.is_ray \
                else d.alpha
            lam = rng.uniform(0.1, 5.0) * np.exp(1j * lam_ang)
            zeta = rng.uniform(0.1, 5.0) * np.exp(1j * rng.uniform(a, b))
            val = abs(np.exp(-lam * zeta))
            if not d.is_ray:
                assert val < 1.0 + 1e-12
            edge = rng.uniform(0.1, 5.0) * np.exp(1j * d.alpha)
            assert abs(np.exp(-edge * zeta)) <= 1.0 + 1e-12


def _preceq(z, zp, ps, tol=1e-9):
    # the cone preorder: zp - z lies in the closed dual sector on every axis
    return ps.dual().contains(np.asarray(zp, complex) - np.asarray(z, complex), closed=True,
                              tol=tol)


class TestPreorder:
    def setup_method(self):
        self.ps = g.ProductSector([(-PI / 4, PI / 4)])

    def test_examples(self):
        assert _preceq([0], [1], self.ps)
        assert not _preceq([0], [1j], self.ps)
        assert _preceq([0.3 + 0.2j], [0.3 + 0.2j], self.ps)

    def test_preorder_axioms(self, rng):
        # the closed dual sector is a convex cone (reflexive, transitive),
        # and pointed when alpha < beta (antisymmetric)
        for _ in range(200):
            pts = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
            x, y, z = pts
            assert _preceq(x, x, self.ps)
            if _preceq(x, y, self.ps) and _preceq(y, z, self.ps):
                assert _preceq(x, z, self.ps)
            if _preceq(x, y, self.ps) and _preceq(y, x, self.ps):
                assert abs(x[0] - y[0]) < 1e-9


class TestSup:
    # the intersection of two translated cones is the cone translated to
    # the least upper bound of their vertices for the cone preorder
    def setup_method(self):
        self.sect = (-PI / 4, PI / 4)
        self.ps = g.ProductSector([self.sect])

    def _sup(self, v1, v2):
        w = g.intersect_admissible(g.make_region([self.sect[0]], [self.sect[1]], [v1]),
                                   g.make_region([self.sect[0]], [self.sect[1]], [v2]))
        assert w.axes[0].theta == (0j,)  # a translated cone again
        return w.axes[0].z

    def test_comparable_points(self):
        assert self._sup(0.0, 1.0) == pytest.approx(1.0)
        assert self._sup(1.0, 0.0) == pytest.approx(1.0)

    def test_incomparable_points_against_brute_force(self):
        z = self._sup(1j, -1j)
        # brute-force oracle: the smallest real grid vertex whose translated
        # cone sits inside both translated cones
        best = None
        for x in np.arange(-2.0, 2.01, 0.01):
            v = complex(x)
            probes = [v + t * np.exp(1j * ang)
                      for t in (0.0, 0.5, 2.0) for ang in (-PI / 4, 0.0, PI / 4)]
            if all(_preceq([1j], [p], self.ps) and _preceq([-1j], [p], self.ps)
                   for p in probes):
                best = v
                break
        assert best is not None
        assert abs(z - best) <= 0.02
        assert z == pytest.approx(1.0, abs=1e-9)

    def test_sup_dominates_and_is_least(self, rng):
        for _ in range(50):
            p1, p2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z = self._sup(p1, p2)
            assert _preceq([p1], [z], self.ps) and _preceq([p2], [z], self.ps)
            # any box sample dominating both vertices must dominate the sup
            for _ in range(40):
                q = rng.uniform(-4, 4) + 1j * rng.uniform(-4, 4)
                if _preceq([p1], [q], self.ps) and _preceq([p2], [q], self.ps):
                    assert _preceq([z], [q], self.ps)

    def test_halfplane_axis_keeps_the_inner_halfplane(self, rng):
        # on a degenerate axis the translated half-planes are nested and the
        # vertex is not unique: any point of the inner boundary line serves
        u0 = g.make_region([0.0], [0.0], [0.0])
        u1 = g.make_region([0.0], [0.0], [1.0])
        w = g.intersect_admissible(u0, u1)
        assert w.axes[0].z.real == pytest.approx(1.0)
        shifted = g.make_region([0.0], [0.0], [1.0 + 5j])
        for _ in range(200):
            p = rng.uniform(-1, 3) + 1j * rng.uniform(-5, 5)
            if abs(p.real - 1.0) > 1e-6:
                assert w.contains([p]) == shifted.contains([p]) == (p.real > 1.0)


class TestRegions:
    def test_halfplane_distance(self):
        u = g.make_region([0.0], [0.0], [0.0])
        assert u.axes[0].boundary_distance(3.0) == pytest.approx(3.0)

    def test_cone_distance_is_point_to_ray(self):
        u = g.make_region([-PI / 4], [PI / 4], [0.0])
        assert u.axes[0].boundary_distance(1.0) == pytest.approx(np.sin(PI / 4))

    def test_boundary_point_has_zero_distance(self):
        u = g.make_region([-PI / 4], [PI / 4], [0.0])
        p = 2.0 * np.exp(1j * PI / 4)  # on the outgoing ray
        assert u.axes[0].boundary_distance(p) == pytest.approx(0.0, abs=1e-14)
        assert not u.contains([p])  # not strictly inside

    def test_presets_are_cone_stable(self, rng):
        presets = [
            g.make_region([-PI / 4], [PI / 4], [0.5 + 0.1j]),
            g.make_region([-PI / 4], [PI / 4], [0.0], kind="cone_minus_disk", radius=0.7),
            g.make_region([-PI / 3], [PI / 3], [0.0], kind="cone_minus_rect", s0=0.5, s1=0.8),
            g.make_region([0.0], [0.0], [1.0]),
        ]
        for u in presets:
            assert u.validate(rng=np.random.default_rng(7))

    def test_membership_respects_excision(self):
        u = g.make_region([-PI / 4], [PI / 4], [0.0], kind="cone_minus_disk", radius=0.5)
        assert u.contains([1.0])
        assert not u.contains([0.3])
        assert not u.contains([0.0])

    def test_unstable_polyline_rejected(self):
        # a staircase that backtracks violates cone stability
        d0 = np.exp(1j * (-PI / 2 + PI / 4))
        d1 = np.exp(1j * (PI / 2 - PI / 4))
        theta = (0.5 * d0, 1.5 * d0 + 0.2 * d1, 0.2 * d1)
        with pytest.raises(g.GeometryError):
            g.AxisRegion(-PI / 4, PI / 4, 0.0, theta)

    def test_json_round_trip(self):
        u = g.make_region([-PI / 4, 0.0], [PI / 4, 0.0], [0.1 + 0.2j, 1.0],
                          kind="cone_minus_rect", s0=0.3, s1=0.4)
        v = g.AdmissibleRegion.from_json(u.to_json())
        for ax_u, ax_v in zip(u.axes, v.axes):
            assert ax_u.alpha == ax_v.alpha and ax_u.beta == ax_v.beta
            assert ax_u.z == ax_v.z
            assert np.allclose(ax_u.theta, ax_v.theta)

    def test_point_dimension_must_match_the_region(self):
        u = g.make_region([-.5, -.5], [.5, .5], [0, 0])
        assert u.contains([1, 1]) and u.contains([[1, 1], [2, 1]]).all()
        for point in ([1, 1, -5], [1], [[1, 1, -5]]):
            with pytest.raises(g.GeometryError, match="expected 2"):
                u.contains(point)

    @pytest.mark.parametrize("alpha, beta, vertex", [
        ([-.5, -.5], [.5], [0, 0]),   # the trailing axis has no beta
        ([-.5], [.5, .5], [0, 0]),    # entries beyond the axes of alpha
        ([-.5], [.5], [0, 0])])
    def test_per_axis_lengths_must_agree(self, alpha, beta, vertex):
        with pytest.raises(g.GeometryError, match="entries for"):
            g.make_region(alpha, beta, vertex)
        desc = {"alpha": alpha, "beta": beta, "vertex": [[v, 0.0] for v in vertex]}
        with pytest.raises(g.GeometryError, match="entries for"):
            g.AdmissibleRegion.from_json(desc)

    def test_per_axis_excision_lengths_must_agree(self):
        with pytest.raises(g.GeometryError, match="radius has 2 entries for 1 axes"):
            g.make_region([-PI / 4], [PI / 4], [0], kind="cone_minus_disk", radius=[.5, .6])
        u = g.make_region([-PI / 4, -PI / 4], [PI / 4, PI / 4], [0, 0],
                          kind="cone_minus_rect", s0=0.3, s1=0.4)
        desc = u.to_json()
        desc["excision"]["axes"].pop()
        with pytest.raises(g.GeometryError, match="axes has 1 entries for 2 axes"):
            g.AdmissibleRegion.from_json(desc)
        desc = {"alpha": [-PI / 4], "beta": [PI / 4], "vertex": [[0.0, 0.0]],
                "excision": {"kind": ["cone", "cone"]}}
        with pytest.raises(g.GeometryError, match="kind has 2 entries for 1 axes"):
            g.AdmissibleRegion.from_json(desc)

    def test_malformed_points_in_a_descriptor_are_refused(self):
        u = g.make_region([-PI / 4], [PI / 4], [0], kind="cone_minus_rect", s0=0.3, s1=0.4)
        desc = u.to_json()
        desc["excision"]["axes"][0]["theta"][1] = [0.1]
        with pytest.raises(g.GeometryError, match="'theta' must be a list of"):
            g.AdmissibleRegion.from_json(desc)
        desc["vertex"] = [0.0]
        with pytest.raises(g.GeometryError, match="'vertex' must be a list of"):
            g.AdmissibleRegion.from_json(desc)

    @pytest.mark.parametrize("z, theta", [
        (float("nan"), (0j,)), (complex(0.0, float("inf")), (0j,)),
        (0.0, (0.5 * np.exp(-0.5j * PI), complex(float("inf"), 1.0), 0.5j))])
    def test_a_non_finite_vertex_or_polyline_is_refused(self, z, theta):
        with pytest.raises(g.GeometryError, match="must be finite"):
            g.AxisRegion(-PI / 4, PI / 4 + 0.3, z, theta)

    def test_preset_descriptor_parsing(self):
        desc = {"alpha": [-PI / 4], "beta": [PI / 4], "vertex": [[0.0, 0.0]],
                "excision": {"kind": "cone_minus_disk", "radius": [0.5]}}
        u = g.AdmissibleRegion.from_json(desc)
        assert not u.contains([0.3])


class TestIntersect:
    def setup_method(self):
        self.sect = (-PI / 4, PI / 4)

    def test_idempotence(self):
        u = g.make_region([self.sect[0]], [self.sect[1]], [0.0],
                          kind="cone_minus_disk", radius=0.5)
        w = g.intersect_admissible(u, u)
        ax_u, ax_w = u.axes[0], w.axes[0]
        assert abs(ax_w.z - ax_u.z) < 1e-9
        for t in ax_w.theta:
            assert min(abs(t - s) for s in ax_u.theta) < 1e-7 or \
                ax_u.boundary_distance(ax_u.z + t) < 1e-7

    def test_translates_of_one_cone(self):
        u0 = g.make_region([self.sect[0]], [self.sect[1]], [0.0])
        u1 = g.make_region([self.sect[0]], [self.sect[1]], [1.0])
        w = g.intersect_admissible(u0, u1)
        assert abs(w.axes[0].z - 1.0) < 1e-9
        assert len(w.axes[0].theta) == 1

    def test_offset_cones_meet_at_the_sup_vertex(self):
        u1 = g.make_region([self.sect[0]], [self.sect[1]], [1j])
        u2 = g.make_region([self.sect[0]], [self.sect[1]], [-1j])
        w = g.intersect_admissible(u1, u2)
        # oracle: the least point dominating both vertices, where the rays
        # of angle -pi/4 from 1j and pi/4 from -1j cross
        assert abs(w.axes[0].z - 1.0) < 1e-9
        # membership consistency on a probe grid
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = rng.uniform(-2, 4) + 1j * rng.uniform(-3, 3)
            both = u1.contains([p]) and u2.contains([p])
            if abs(u1.axes[0].boundary_distance(p)) < 1e-6 or \
                    abs(u2.axes[0].boundary_distance(p)) < 1e-6:
                continue
            assert w.contains([p]) == both

    def test_mixed_apertures(self):
        u1 = g.make_region([0.0], [0.0], [0.5])            # half-plane Re > 0.5
        u2 = g.make_region([-PI / 4], [PI / 4], [0.0])     # cone about R+
        w = g.intersect_admissible(u1, u2)
        assert w.axes[0].alpha == pytest.approx(-PI / 4)
        assert w.axes[0].beta == pytest.approx(PI / 4)
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rng.uniform(-1, 4) + 1j * rng.uniform(-3, 3)
            both = u1.contains([p]) and u2.contains([p])
            if abs(u1.axes[0].boundary_distance(p)) < 1e-6 or \
                    abs(u2.axes[0].boundary_distance(p)) < 1e-6:
                continue
            assert w.contains([p]) == both

    def test_empty_combined_sector_raises(self):
        u1 = g.make_region([0.0], [2.0], [0.0])
        u2 = g.make_region([-2.0], [0.0], [0.0])
        with pytest.raises(g.GeometryError):
            g.intersect_admissible(u1, u2)

    def test_narrow_sector_disk_excision_rejected(self):
        # vertex-centered disk excisions are only cone stable from
        # aperture pi/2 upward
        with pytest.raises(g.GeometryError):
            g.make_region([-0.3], [0.3], [0.0], kind="cone_minus_disk", radius=0.5)
        g.make_region([-PI / 4], [PI / 4], [0.0], kind="cone_minus_disk", radius=0.5)

    def test_random_pairs_membership_consistency(self):
        # the intersected region must agree with direct membership away
        # from either boundary, and stay cone stable
        rng = np.random.default_rng(99)

        def random_region(kind):
            if kind == "intersection":
                return g.AdmissibleRegion([_random_axis(kind, rng)])
            if kind == "cone_minus_disk":
                a = rng.uniform(-0.9, -PI / 4)
                b = rng.uniform(PI / 4 + (-a - PI / 4) + 0.01, 0.95)
            else:
                a = rng.uniform(-0.9, -0.1)
                b = a if kind == "halfplane" else rng.uniform(0.1, 0.9)
            z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            return g.make_region([a], [b], [z], kind=kind,
                                 radius=rng.uniform(0.2, 0.6),
                                 s0=rng.uniform(0.0, 0.5), s1=rng.uniform(0.0, 0.5))

        kinds = ["cone", "cone_minus_disk", "cone_minus_rect", "halfplane", "intersection"]
        checked = 0
        for trial in range(50):  # every ordered pair of kinds, twice
            u1 = random_region(kinds[trial // 5 % 5])
            u2 = random_region(kinds[trial % 5])
            if max(u1.axes[0].beta, u2.axes[0].beta) \
                    - min(u1.axes[0].alpha, u2.axes[0].alpha) >= np.pi - 0.05:
                continue
            w = g.intersect_admissible(u1, u2)
            w.validate(rng=np.random.default_rng(trial))
            swapped = g.intersect_admissible(u2, u1)
            checked += 1
            for _ in range(60):
                p = rng.uniform(-3, 6) + 1j * rng.uniform(-5, 5)
                if u1.axes[0].boundary_distance(p) < 1e-5 or \
                        u2.axes[0].boundary_distance(p) < 1e-5 or \
                        w.axes[0].boundary_distance(p) < 1e-5:
                    continue
                both = u1.contains([p]) and u2.contains([p])
                assert w.contains([p]) == both, (trial, p)
                assert swapped.contains([p]) == both, (trial, p)
        assert checked >= 15

    def test_outgoing_edges_crossing_far_out(self):
        # outgoing edges 1e-3 rad apart cross about 440 out: the
        # intersection's boundary follows u2 out to there, then u1
        u1 = g.make_region([-0.5], [0.5], [0])
        u2 = g.make_region([-0.5], [0.499], [0.5], kind="cone_minus_rect", s0=0.2, s1=0.3)
        ax = g.intersect_admissible(u1, u2).axes[0]
        assert abs(ax.theta[-1]) > 400
        edge = ax.z + ax.theta[-1] + np.linspace(1.0, 5e3, 2400) * ax.d1
        # 1e-4 to the right of the edge (into the cone) and to its left
        for p, inside in ((edge - 1e-4j * ax.d1, True), (edge + 1e-4j * ax.d1, False)):
            both = u1.axes[0].contains(p) & u2.axes[0].contains(p)
            assert (both == inside).all() and (ax.contains(p) == both).all()


def _random_axis(kind, rng):
    """One axis of the given kind with random angles (aperture above pi/2,
    as the disk excision needs), vertex and excision."""
    a = rng.uniform(-0.9, -PI / 4)
    b = rng.uniform(-a + 0.01, 0.95)
    z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
    if kind == "halfplane":
        return g.make_region([a], [a], [z]).axes[0]
    if kind == "intersection":
        u1 = g.make_region([a], [b], [z], kind="cone_minus_disk", radius=rng.uniform(0.2, 0.6))
        u2 = g.make_region([a + 0.1], [b - 0.1], [z + rng.uniform(-0.5, 0.5)],
                           kind="cone_minus_rect", s0=rng.uniform(0.1, 0.5),
                           s1=rng.uniform(0.1, 0.5))
        return g.intersect_admissible(u1, u2).axes[0]
    return g.make_region([a], [b], [z], kind=kind, radius=rng.uniform(0.2, 0.6),
                         s0=rng.uniform(0.0, 0.5), s1=rng.uniform(0.0, 0.5)).axes[0]


def _sampled_chain(ax, reach, step):
    """Points every ``step`` or closer along the boundary chain of ``ax``:
    both rays out to ``reach`` from their anchors, and the polyline."""
    corners = ([ax.z + ax.theta[0] + reach * ax.d0] + [ax.z + t for t in ax.theta]
               + [ax.z + ax.theta[-1] + reach * ax.d1])
    pieces = [np.linspace(p, q, int(np.ceil(abs(q - p) / step)) + 1)
              for p, q in zip(corners[:-1], corners[1:])]
    return np.concatenate(pieces)


class TestArrayForms:
    KINDS = ["cone", "cone_minus_disk", "cone_minus_rect", "halfplane", "intersection"]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=2),
           seed=st.integers(0, 2 ** 16))
    def test_array_membership_and_distance(self, kinds, seed):
        rng = np.random.default_rng(seed)
        u = g.AdmissibleRegion([_random_axis(kind, rng) for kind in kinds])
        # uniform points, plus points on and a hair off each boundary
        m, step = 40, 1e-2
        pts = rng.uniform(-3, 6, (m, u.k)) + 1j * rng.uniform(-5, 5, (m, u.k))
        for j, ax in enumerate(u.axes):
            chain = _sampled_chain(ax, 2.0, 0.37)
            near = chain[rng.integers(0, len(chain), m)]
            pts[: m // 2, j] = near[: m // 2] + 1e-10 * rng.standard_normal(m // 2)
        for closed in (False, True):
            batch = u.contains(pts, closed=closed)
            assert batch.shape == (m,)
            assert batch.tolist() == [bool(u.contains(p, closed=closed)) for p in pts]
        assert np.all(~u.contains(pts) | u.contains(pts, closed=True))
        # a densely sampled chain bounds the exact distance from above, and
        # lies within half a sampling step of every nearest boundary point
        for j, ax in enumerate(u.axes):
            dist = ax.boundary_distance(pts[:, j])
            chain = _sampled_chain(ax, 40.0, step)
            oracle = np.abs(pts[:, j, None] - chain).min(axis=1)
            assert np.all(dist <= oracle + 1e-12)
            assert np.all(oracle <= dist + step / 2 + 1e-12)
            assert dist.tolist() == [ax.boundary_distance(p) for p in pts[:, j]]
