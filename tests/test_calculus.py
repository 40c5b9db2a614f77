from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorcalc import calculus as ca
from sectorcalc import functionals as fn
from sectorcalc import geometry as g
from sectorcalc import quadrature as q
from sectorcalc import semigroups as sg
from sectorcalc.geometry import ProductSector

PI = np.pi
DOM = (-PI / 2 + 0.05, PI / 2 - 0.05)
SECT = (-PI / 4, PI / 4)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.fixture
def scalar_tuple():
    return sg.CommutingTuple([np.array([[-2.0]])], [DOM])


@pytest.fixture
def cone():
    return g.make_region([SECT[0]], [SECT[1]], [0.0])


class TestAdmissibility:
    def test_pass_with_margin(self, scalar_tuple, cone):
        rep = ca.check_admissible_for(cone, scalar_tuple, [1.0])
        assert rep.passed
        assert rep.margins[0] == pytest.approx(np.sqrt(2.0))

    def test_negated_lambda_moves_spectrum_outside(self, scalar_tuple, cone):
        rep = ca.check_admissible_for(cone, scalar_tuple, [-1.0])
        assert not rep.passed
        assert not rep.spectrum_inside

    def test_vertex_beyond_the_growth_bound_fails(self, scalar_tuple):
        # the weighted orbit stays bounded only for vertex offsets below
        # the spectral abscissa along the edges
        u_bad = g.make_region([SECT[0]], [SECT[1]], [5.0])
        rep = ca.check_admissible_for(u_bad, scalar_tuple, [1.0])
        assert not rep.passed
        assert rep.anchor_class != sg.IN_N0

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(k=st.integers(1, 2), seed=st.integers(0, 2 ** 16),
           kind=st.sampled_from(["cone", "cone_minus_disk", "cone_minus_rect"]),
           vertex=st.lists(st.complex_numbers(max_magnitude=3.0), min_size=2, max_size=2),
           shift=st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 1.0)),
                          min_size=2, max_size=2))
    def test_a_dual_cone_shift_keeps_a_region_inadmissible(self, k, seed, kind, vertex, shift):
        # U + eps lies in U and the shifted vertex dominates the vertex, so
        # the calculus checks the shifted region alone
        tup = sg.random_commuting_tuple(np.random.default_rng(seed), k, 2, DOM)
        params = {"cone_minus_disk": {"radius": 0.5}, "cone_minus_rect": {"s0": 0.4, "s1": 0.6}}
        u = g.make_region([SECT[0]] * k, [SECT[1]] * k, vertex[:k], kind=kind,
                          **params.get(kind, {}))
        dual = u.axes[0].dual_sector  # the cone of every axis, which eps must lie in
        eps = [r * np.exp(1j * (dual.alpha + a * dual.aperture)) for r, a in shift[:k]]
        if not ca.check_admissible_for(u, tup, [1.0] * k).passed:
            assert not ca.check_admissible_for(ca.shifted_region(u, eps), tup, [1.0] * k).passed

    @pytest.mark.parametrize("seed, k, dim, eps", [(0, 1, 2, [0.25]), (128, 2, 8, None)])
    def test_pole_inside_the_contour_is_refused(self, seed, k, dim, eps):
        # the pole of (zeta + 1)^-2 at -1 lies in the shifted region: the
        # contour integral converges, but not to F of the tuple
        tup = sg.random_commuting_tuple(np.random.default_rng(seed), k, dim, DOM)
        region = ca.default_region(tup, [1.0] * k, ProductSector([SECT] * k))
        eps = ca._default_eps(region) if eps is None else eps
        with pytest.raises(ca.AdmissibilityError, match="pole"):
            ca.functional_calculus(ca.inverse_square(k, [1.0] * k), tup, [1.0] * k, region, eps)

    def test_pole_outside_the_shifted_region_is_accepted(self):
        # seed 0's pole lies in U but not in U + 0.5, which the contour bounds
        tup = sg.random_commuting_tuple(np.random.default_rng(0), 1, 2, DOM)
        region = ca.default_region(tup, [1.0], ProductSector([SECT]))
        f = ca.inverse_square(1, [1.0])
        val = ca.functional_calculus(f, tup, [1.0], region, [0.5], tol=1e-9)
        rep = ca.spectral_map_check(f, tup, [1.0], region, computed=val)
        assert rep.matrix_rel_err <= 1e-9

    @pytest.mark.parametrize("pole_first", [True, False])
    def test_a_product_keeps_the_pole_of_its_factor(self, pole_first):
        # seed 0's pole at -1 lies in U + 0.25, and a product must keep it
        tup = sg.random_commuting_tuple(np.random.default_rng(0), 1, 2, DOM)
        region = ca.default_region(tup, [1.0], ProductSector([SECT]))
        f, c = ca.inverse_square(1, [1.0]), ca.constant_function(1, 2.0)
        fc = ca.product_function(f, c) if pole_first else ca.product_function(c, f)
        with pytest.raises(ca.AdmissibilityError, match="pole"):
            ca.functional_calculus(fc, tup, [1.0], region, [0.25])

    def test_hinf_keeps_the_pole_of_its_function(self):
        # hinf integrates F * G, which must keep F's pole
        tup = sg.random_commuting_tuple(np.random.default_rng(0), 1, 2, DOM)
        region = ca.default_region(tup, [1.0], ProductSector([SECT]))
        with pytest.raises(ca.AdmissibilityError, match="pole"):
            ca.functional_calculus_hinf(ca.inverse_square(1, [1.0]), tup, [1.0], region,
                                        eps=[0.25])

    def test_product_poles_are_the_union_per_axis(self):
        f, g2 = ca.inverse_square(2, [1.0, 2.0]), ca.inverse_square(2, [3.0, 4.0])
        assert ca.product_function(f, g2).poles == ((-1.0, -3.0), (-2.0, -4.0))
        c = ca.constant_function(2, 2.0)
        assert ca.product_function(c, f).poles == f.poles
        assert ca.product_function(c, c).poles is None


class TestLambdaLength:
    @pytest.fixture
    def pair(self):
        tup = sg.random_commuting_tuple(np.random.default_rng(0), 2, 2, DOM)
        return tup, ca.default_region(tup, [1.0, 1.0], ProductSector([SECT] * 2))

    @pytest.mark.parametrize("lam", [[1.0], [1.0, 1.0, 1.0]])
    def test_calculus_refuses_a_wrong_length(self, pair, lam):
        tup, region = pair
        f = ca.inverse_square(2, [3.0, 3.0])
        with pytest.raises(sg.SectorDomainError, match="one lambda and one sector per axis"):
            ca.functional_calculus(f, tup, lam, region, ca._default_eps(region))
        with pytest.raises(sg.SectorDomainError, match="one lambda and one sector per axis"):
            ca.functional_calculus_hinf(ca.constant_function(2, 1.0), tup, lam, region)
        g_proj = ca.projection_function(tup, [1.0, 1.0], region)
        with pytest.raises(sg.SectorDomainError, match="one lambda and one sector per axis"):
            ca.functional_calculus_smirnov(g_proj, tup, lam, region)

    @pytest.mark.parametrize("lam", [[1.0], [1.0, 1.0, 1.0]])
    def test_admissibility_reports_a_wrong_length(self, pair, lam):
        tup, region = pair
        rep = ca.check_admissible_for(region, tup, lam)
        assert not rep.passed and not rep.region_ok and rep.anchor_class == "invalid"
        assert rep.detail.count("one lambda and one sector per axis") == 1

    def test_admissibility_reports_a_lambda_defect_once(self, scalar_tuple, cone):
        with pytest.raises(sg.SectorDomainError) as info:
            sg._validate_lambda(scalar_tuple, np.array([-1.0 + 0j]), cone.sectors)
        rep = ca.check_admissible_for(cone, scalar_tuple, [-1.0])
        assert not rep.passed and rep.detail == str(info.value)


@pytest.mark.usefixtures("audited_refine")
class TestMainCalculus:
    def test_scalar_oracle(self, scalar_tuple, cone):
        f = ca.inverse_square(1, [1.0])
        val = ca.functional_calculus(f, scalar_tuple, [1.0], cone, [0.25], tol=1e-9)
        assert abs(val[0, 0] - 1.0 / 9.0) <= 1e-9

    def test_separable_two_axes(self):
        tup = sg.CommutingTuple([np.array([[-2.0]]), np.array([[-3.0]])], [DOM] * 2)
        u = g.make_region([SECT[0]] * 2, [SECT[1]] * 2, [0.0, 0.0])
        f = ca.inverse_square(2, [1.0, 1.0])
        val = ca.functional_calculus(f, tup, [1.0, 1.0], u, [0.25, 0.25], tol=5e-9)
        assert abs(val[0, 0] - 1.0 / 144.0) <= 1e-9

    def test_zero_function(self, scalar_tuple, cone):
        zero = ca.HoloFunction(lambda p: np.zeros(p.shape[0]), "H1", (0.0, 2.0))
        val = ca.functional_calculus(zero, scalar_tuple, [1.0], cone, [0.25], tol=1e-9)
        assert np.all(val == 0.0)

    def test_contour_independence(self, scalar_tuple, cone):
        # the value depends neither on the admissible region nor on the shift:
        # a scalar case on three regions, then random tuples (seeds 0-5) on the
        # cone, the cone minus a disk and minus a rectangle, at two shifts
        f = ca.inverse_square(1, [1.0])
        tol = 1e-9
        v1 = ca.functional_calculus(f, scalar_tuple, [1.0], cone, [0.25], tol=tol)
        u2 = g.make_region([SECT[0]], [SECT[1]], [0.0], kind="cone_minus_disk",
                           radius=0.5)
        v2 = ca.functional_calculus(f, scalar_tuple, [1.0], u2, [0.5 + 0.1j], tol=tol)
        u3 = g.make_region([-PI / 3], [PI / 3], [-0.2])
        v3 = ca.functional_calculus(f, scalar_tuple, [1.0], u3, [0.3], tol=tol)
        assert sg.opnorm(v1 - v2) <= 2 * tol
        assert sg.opnorm(v1 - v3) <= 2 * tol
        for k, dim, seed in [(k, dim, seed) for k in (1, 2) for dim in (2, 3, 4)
                             for seed in range(6)]:
            tup = sg.random_commuting_tuple(np.random.default_rng(seed), k, dim, DOM)
            u = ca.default_region(tup, [1.0] * k, ProductSector([SECT] * k), margin=2.0)
            f = ca.inverse_square(k, 1.0 - u.vertex)  # poles left of the vertex
            ref = ca.functional_calculus(f, tup, [1.0] * k, u, [0.25] * k, tol=tol)
            for kind, params in (("cone_minus_disk", {"radius": 0.5}),
                                 ("cone_minus_rect", {"s0": 0.4, "s1": 0.3})):
                region = g.make_region([SECT[0]] * k, [SECT[1]] * k, u.vertex, kind=kind,
                                       **params)
                for eps in (0.25, 0.4 * np.exp(0.2j)):
                    val = ca.functional_calculus(f, tup, [1.0] * k, region, [eps] * k, tol=tol)
                    assert sg.opnorm(val - ref) <= 2 * tol, (k, dim, seed, kind, eps)

    @pytest.mark.parametrize("similar", [False, True])
    @pytest.mark.parametrize("dim, c", [(2, 0.3), (4, 3.0), (8, 0.3), (8, 3.0), (8, 10.0)])
    def test_a_non_normal_tuple_never_yields_a_confident_wrong_number(self, dim, c, similar):
        # a Jordan-like block -1.5 I + c N, plain or under a random similarity:
        # the value is right within tol, or the refinement says it is not
        a = -1.5 * np.eye(dim) + c * np.eye(dim, k=1)
        if similar:
            rng = np.random.default_rng(3)
            v = np.eye(dim) + 0.3 * (rng.standard_normal((dim, dim))
                                     + 1j * rng.standard_normal((dim, dim)))
            a = v @ a @ np.linalg.inv(v)
        tup = sg.CommutingTuple([a], [DOM])
        region = ca.default_region(tup, [1.0], ProductSector([SECT]))
        r = np.linalg.solve(3.0 * np.eye(dim) - a, np.eye(dim))
        try:
            val = ca.functional_calculus(ca.inverse_square(1, [3.0]), tup, [1.0], region,
                                         [0.25], tol=1e-9)
        except q.ConvergenceError:
            return
        assert np.linalg.norm(val - r @ r) <= 1e-9

    def test_multiplicativity(self, rng, scalar_tuple, cone):
        tol = 1e-9
        f1 = ca.inverse_square(1, [1.0])
        f2 = ca.inverse_square(1, [1.5 + 0.2j])
        prod = ca.product_function(f1, f2)
        lhs = ca.functional_calculus(prod, scalar_tuple, [1.0], cone, [0.25], tol=tol)
        rhs = ca.functional_calculus(f1, scalar_tuple, [1.0], cone, [0.25], tol=tol) \
            @ ca.functional_calculus(f2, scalar_tuple, [1.0], cone, [0.25], tol=tol)
        assert sg.opnorm(lhs - rhs) <= 10 * tol

    def test_halfplane_axis(self):
        # ray-domain semigroup, full-line contour
        tup = sg.CommutingTuple([np.array([[-1.0, 0.7], [0.0, -2.0]])], [(0.0, 0.0)])
        u = g.make_region([0.0], [0.0], [-0.5])
        f = ca.inverse_square(1, [1.5])
        val = ca.functional_calculus(f, tup, [1.0], u, [0.25], tol=1e-9)
        r = np.linalg.inv(1.5 * np.eye(2) - tup.matrices[0])
        assert sg.opnorm(val - r @ r) <= 1e-9

    def test_mixed_degenerate_and_sector_axes(self):
        tup = sg.CommutingTuple([np.array([[-1.0]]), np.array([[-2.0]])],
                                [(0.0, 0.0), DOM])
        u = g.AdmissibleRegion(g.make_region([0.0], [0.0], [-0.5]).axes
                               + g.make_region([SECT[0]], [SECT[1]], [0.0]).axes)
        f = ca.inverse_square(2, [1.5, 1.0])
        val = ca.functional_calculus(f, tup, [1.0, 1.0], u, [0.25, 0.25], tol=1e-9)
        oracle = (1.0 / (1.0 + 1.5) ** 2) * (1.0 / (2.0 + 1.0) ** 2)
        assert abs(val[0, 0] - oracle) <= 1e-9

    def test_intersected_region_gives_the_same_value(self, scalar_tuple):
        # the family of admissible regions is intersection stable and the
        # calculus does not see which member is used
        f = ca.inverse_square(1, [1.0])
        tol = 1e-9
        u1 = g.make_region([SECT[0]], [SECT[1]], [0.0], kind="cone_minus_disk",
                           radius=0.5)
        u2 = g.make_region([-PI / 3], [PI / 3], [-0.2], kind="cone_minus_rect",
                           s0=0.4, s1=0.3)
        w = g.intersect_admissible(u1, u2)
        v1 = ca.functional_calculus(f, scalar_tuple, [1.0], u1, [0.25], tol=tol)
        vw = ca.functional_calculus(f, scalar_tuple, [1.0], w, [0.25], tol=tol)
        assert sg.opnorm(v1 - vw) <= 2 * tol

    def test_multiplicativity_two_axes(self):
        tol = 5e-9
        tup = sg.CommutingTuple([np.array([[-2.0]]), np.array([[-3.0]])], [DOM] * 2)
        u = g.make_region([SECT[0]] * 2, [SECT[1]] * 2, [0.0, 0.0])
        f1 = ca.inverse_square(2, [1.0, 1.0])
        f2 = ca.inverse_square(2, [2.0, 1.5])
        prod = ca.product_function(f1, f2)
        lhs = ca.functional_calculus(prod, tup, [1.0, 1.0], u, [0.25, 0.25], tol=tol)
        rhs = ca.functional_calculus(f1, tup, [1.0, 1.0], u, [0.25, 0.25], tol=tol) \
            @ ca.functional_calculus(f2, tup, [1.0, 1.0], u, [0.25, 0.25], tol=tol)
        assert sg.opnorm(lhs - rhs) <= 10 * tol

    def test_matrix_tuple_against_eigen_oracle(self, rng):
        tup = sg.CommutingTuple([sg.random_sectorial_matrix(rng, 4)], [DOM])
        u = ca.default_region(tup, [1.0], ProductSector([SECT]))
        f = ca.inverse_square(1, [1.0])
        rep = ca.spectral_map_check(f, tup, [1.0], u, tol=1e-9)
        assert rep.max_eig_rel_err <= 1e-8
        assert rep.matrix_rel_err <= 1e-8

    def test_three_axes_dim8_against_eigen_oracle(self, rng):
        tup = sg.random_commuting_tuple(rng, 3, 8, DOM)
        u = ca.default_region(tup, [1.0] * 3, ProductSector([SECT] * 3))
        f = ca.inverse_square(3, 1.0 - u.vertex)  # poles left of the vertex
        rep = ca.spectral_map_check(f, tup, [1.0] * 3, u, tol=1e-9)
        assert rep.matrix_rel_err <= 1e-9

    def test_missing_certificate_rejected(self, scalar_tuple, cone):
        f = ca.HoloFunction(lambda p: 1.0 / (p[:, 0] + 1.0), "H1", (1.0, 1.0))
        with pytest.raises(ca.AdmissibilityError):
            ca.functional_calculus(f, scalar_tuple, [1.0], cone, [0.25])

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_nonpositive_exp_rate_is_no_certificate(self, scalar_tuple, cone, rate):
        # F = 1 is not integrable against the resolvent; a rate that
        # certifies no decay must not let it through to the mapped tails
        one = ca.HoloFunction(lambda p: np.ones(p.shape[0], dtype=complex), "H1", None, rate)
        with pytest.raises(ca.AdmissibilityError, match="carries no decay certificate"):
            ca.functional_calculus(one, scalar_tuple, [1.0], cone, [0.25])
        with pytest.raises(ca.AdmissibilityError):
            ca.boundary_abs_integral(one, cone, [0.25])

    def test_inadmissible_region_rejected(self, scalar_tuple):
        u_bad = g.make_region([SECT[0]], [SECT[1]], [5.0])
        with pytest.raises(ca.AdmissibilityError):
            ca.functional_calculus(ca.inverse_square(1, [1.0]), scalar_tuple,
                                   [1.0], u_bad, [0.25])

    def test_resolvent_sup_matches_the_per_node_norms(self, rng):
        # the sup runs over the nodes of the calculus's first-round contour
        tup = sg.random_commuting_tuple(rng, 2, 3, DOM)
        u = ca.default_region(tup, [1.0, 1.0], ProductSector([SECT] * 2))
        cq = q.ContourQuadrature.from_region(
            u, [0.25, 0.25], R=ca._radius_floor(u, [0.25, 0.25], tup, [1.0, 1.0]))
        ref = 1.0
        for j in range(2):
            stack = np.linalg.inv(tup.matrices[j] + cq.axes[j].nodes[:, None, None] * np.eye(3))
            ref *= max(sg.opnorm(m) for m in stack)
        val = ca.resolvent_sup_on_contour(tup, [1.0, 1.0], u, [0.25, 0.25])
        assert val == pytest.approx(ref, rel=1e-14)

    def test_looser_certificate_changes_nothing(self, rng, monkeypatch):
        # the contour depends on the region, the shift and the tuple, never
        # on the decay constant: same nodes per axis, same bits
        tup = sg.random_commuting_tuple(rng, 2, 3, DOM)
        u = ca.default_region(tup, [1.0, 1.0], ProductSector([SECT] * 2))
        eps = ca._default_eps(u)
        seen, adaptive = [], ca.adaptive_contour

        def recorded(value_of, cq, *a):
            def counted(c):
                seen[-1].append(tuple(len(ax.nodes) for ax in c.axes))
                return value_of(c)
            return adaptive(counted, cq, *a)

        monkeypatch.setattr(ca, "adaptive_contour", recorded)
        f = ca.inverse_square(2, 1.0 - u.vertex)
        out = []
        for F in (f, replace(f, decay=(1e6, 2.0))):
            seen.append([])
            out.append((ca.functional_calculus(F, tup, [1.0, 1.0], u, eps),
                        ca.boundary_abs_integral(F, u, eps)))
        (calc, norm), (calc_loose, norm_loose) = out
        assert np.array_equal(calc, calc_loose) and norm == norm_loose
        assert seen[0] == seen[1] and len(seen[0]) >= 2

    def test_boundedness_estimate(self, scalar_tuple, cone):
        f = ca.inverse_square(1, [1.0])
        val = ca.functional_calculus(f, scalar_tuple, [1.0], cone, [0.25], tol=1e-9)
        norm = ca.h1_norm(f, cone, tol=1e-6)
        kk = ca.resolvent_sup_on_contour(scalar_tuple, [1.0], cone, [0.25])
        assert sg.opnorm(val) <= (2 * PI) ** -1 * kk * norm * (1 + 1e-6)

    @pytest.mark.parametrize("k", [1, 2])
    def test_boundedness_estimate_on_random_matrices(self, k):
        # ||F(-lam A)|| <= (2 pi)^-k sup ||R|| ||F||_H1 on random 3x3 tuples
        for seed in (0, 1, 42):
            tup = sg.random_commuting_tuple(np.random.default_rng(seed), k, 3, DOM)
            u = ca.default_region(tup, [1.0] * k, ProductSector([SECT] * k))
            f = ca.inverse_square(k, 1.0 - u.vertex)
            eps = [0.25] * k
            val = ca.functional_calculus(f, tup, [1.0] * k, u, eps, tol=1e-9)
            kk = ca.resolvent_sup_on_contour(tup, [1.0] * k, u, eps)
            assert sg.opnorm(val) <= (2 * PI) ** -k * kk * ca.h1_norm(f, u)

    @pytest.mark.parametrize("k", [1, 2])
    def test_hinf_calculus_is_unital(self, rng, k):
        # a constant c maps to c times the identity
        c = 2.5 - 1j
        for _ in range(3):
            tup = sg.random_commuting_tuple(rng, k, 3, DOM)
            u = ca.default_region(tup, [1.0] * k, ProductSector([SECT] * k))
            val = ca.functional_calculus_hinf(ca.constant_function(k, c), tup, [1.0] * k, u,
                                              tol=1e-9)
            assert sg.opnorm(val - c * np.eye(3)) <= 1e-12 * abs(c)


def _unit_angles(k):
    return np.exp(1j * 0.2 * np.arange(k))


class TestSeparableFunctions:
    # (preset on k axes, its closed form on (M, k) points)
    PRESETS = {
        "inverse_square": (
            lambda k: ca.inverse_square(k, 1.5 + 0.3j * np.arange(k)),
            lambda p: np.prod(1.0 / (p + 1.5 + 0.3j * np.arange(p.shape[1])) ** 2, axis=1)),
        "rotated_inverse_square": (
            lambda k: ca.rotated_inverse_square(k, 0.2 * np.arange(k), 2.0 + np.arange(k)),
            lambda p: np.prod(1.0 / (p * _unit_angles(p.shape[1])
                                     + 2.0 + np.arange(p.shape[1])) ** 2, axis=1)),
        "exponential": (
            lambda k: ca.exponential_function(k, 0.7 + 0.1j, axis=k - 1),
            lambda p: np.exp(-(0.7 + 0.1j) * p[:, -1])),
        "exponential_damped": (
            lambda k: ca.exponential_function(k, 0.7, axis=0, shifts=3.0 + np.arange(k)),
            lambda p: np.exp(-0.7 * p[:, 0])
            / np.prod(p + 3.0 + np.arange(p.shape[1]), axis=1)),
        "constant": (
            lambda k: ca.constant_function(k, 2.5 - 1j),
            lambda p: np.full(p.shape[0], 2.5 - 1j)),
        "monomial": (
            lambda k: ca.monomial(k, axis=k - 1),
            lambda p: -p[:, -1]),
        "product": (
            lambda k: ca.product_function(ca.inverse_square(k, [2.0] * k),
                                          ca.exponential_function(k, 0.5)),
            lambda p: np.exp(-0.5 * p[:, 0]) * np.prod(1.0 / (p + 2.0) ** 2, axis=1)),
    }

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_fun_and_terms_give_the_closed_form(self, name, k, rng):
        build, closed_form = self.PRESETS[name]
        f = build(k)
        pts = rng.uniform(0.0, 4.0, (50, k)) + 1j * rng.uniform(-4.0, 4.0, (50, k))
        assert f.terms is not None and all(len(t) == k for t in f.terms)
        ref = closed_form(pts)
        from_terms = sum(np.prod([fj(pts[:, j]) for j, fj in enumerate(term)], axis=0)
                         for term in f.terms)
        assert np.allclose(f(pts), ref, rtol=1e-13, atol=0.0)
        assert np.allclose(from_terms, ref, rtol=1e-13, atol=0.0)

    # a builder given an axis outside 0..k-1, or per-axis values for some
    # other number of axes (the first two used to evaluate to 1 everywhere)
    BAD_AXES = {
        "exponential axis": lambda: ca.exponential_function(1, 1.0, axis=1),
        "negative exponential axis": lambda: ca.exponential_function(2, 1.0, axis=-1),
        "monomial axis": lambda: ca.monomial(1, axis=3),
        "exponential shifts": lambda: ca.exponential_function(2, 1.0, shifts=[3.0]),
        "more shifts": lambda: ca.inverse_square(1, [1.0, 2.0]),
        "no shifts": lambda: ca.inverse_square(1, []),
        "scalar shift": lambda: ca.inverse_square(2, 3.0),
        "rotated angles": lambda: ca.rotated_inverse_square(2, [0.1], [1.0, 2.0]),
        "rotated shifts": lambda: ca.rotated_inverse_square(2, [0.1, 0.2], [1.0]),
    }

    @pytest.mark.parametrize("name", sorted(BAD_AXES))
    def test_per_axis_arguments_must_match_k(self, name):
        with pytest.raises(ValueError, match="axis|axes"):
            self.BAD_AXES[name]()

    def test_product_multiplies_ranks(self):
        two = ca.separable_function([[np.exp, np.exp], [np.sin, np.cos]])
        three = ca.separable_function([[np.cos, np.sin], [np.exp, np.cos],
                                       [np.sin, np.sin]])
        assert len(ca.product_function(two, three).terms) == 6
        bare = ca.HoloFunction(lambda p: p[:, 0] * p[:, 1])
        assert ca.product_function(two, bare).terms is None
        assert ca.product_function(bare, two).terms is None

    def test_rank_zero_function_is_the_zero_matrix(self, rng):
        zero = ca.separable_function([], decay=(1.0, 2.0))
        vals = zero(np.ones((3, 2), dtype=complex))
        assert vals.shape == (3,) and not vals.any()
        tup = sg.random_commuting_tuple(rng, 2, 2, sector=DOM)
        region = ca.default_region(tup, [1.0, 1.0], ProductSector([SECT] * 2))
        val = ca.functional_calculus(zero, tup, [1.0, 1.0], region, ca._default_eps(region))
        assert val.shape == (2, 2) and not val.any()

    def test_bare_integrand_keeps_the_dense_result(self, scalar_tuple, cone):
        # a function without terms takes the blocked dense contraction; its
        # value on this input was recorded with the mapped ray tails, the
        # per-panel error estimate and the triangular resolvent solves and
        # must not move by a single bit; the exact value is (1 - mu)^-2 = 1/9
        f = ca.inverse_square(1, [1.0])
        bare = ca.HoloFunction(lambda p: f(p), "H1", (1.0, 2.0))
        val = ca.functional_calculus(bare, scalar_tuple, [1.0], cone, [0.25], tol=1e-9)
        assert complex(val[0, 0]) == (0.11111111111111102 - 4.486459511613033e-19j)
        assert abs(val[0, 0] - 1.0 / 9.0) <= 1e-15

    def test_separable_and_dense_boundary_integrals_agree(self):
        u = g.make_region([SECT[0]] * 2, [SECT[1]] * 2, [0.0, 0.0])
        f = ca.inverse_square(2, [1.0 + 0.2j, 1.5])
        bare = ca.HoloFunction(lambda p: f(p), "H1", f.decay)
        eps, point = [0.3, 0.2 + 0.1j], [2.0, 2.5]
        for integral in (lambda F: ca.boundary_abs_integral(F, u, eps, tol=1e-6),
                         lambda F: ca.interior_cauchy_value(F, u, eps, point, tol=1e-7)):
            sep, dense = integral(f), integral(bare)
            assert abs(sep - dense) <= 1e-12 * abs(dense)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(k=st.integers(1, 3), dim=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
           gap=st.floats(0.5, 3.0), tilt=st.floats(-1.0, 1.0),
           eps_scale=st.floats(0.05, 0.4))
    def test_calculus_matches_the_eigen_oracle(self, k, dim, seed, gap, tilt, eps_scale):
        tup = sg.random_commuting_tuple(np.random.default_rng(seed), k, dim, DOM)
        lam = [1.0] * k
        u = ca.default_region(tup, lam, ProductSector([SECT] * k))
        # poles left of the vertex, so outside U and every rightward shift
        f = ca.inverse_square(k, gap + 1j * tilt - u.vertex)
        val = ca.functional_calculus(f, tup, lam, u, ca._default_eps(u, eps_scale),
                                     tol=1e-9)
        rep = ca.spectral_map_check(f, tup, lam, u, computed=val)
        assert rep.matrix_rel_err <= 1e-9


def _grid_case(seed, dim):
    """A k=1 cell of the calculus benchmark grid: a random diagonalizable
    matrix, a scaling inside the window and the default region."""
    rng = np.random.default_rng(seed)
    tup = sg.random_commuting_tuple(rng, 1, dim, DOM)
    lam = rng.uniform(0.8, 1.25, 1) * np.exp(1j * rng.uniform(-0.2, 0.2, 1))
    region = ca.default_region(tup, lam, ProductSector([SECT]), margin=2.0)
    return tup, lam, region, rng.uniform(0.5, 1.0)


def _special_case(case):
    # the two projection rows of the special-cases scenario
    if case == "scalar":
        return (sg.CommutingTuple([np.array([[-2.0]])], [DOM]),
                g.make_region([SECT[0]], [SECT[1]], [0.0]))
    tup = sg.CommutingTuple([sg.random_sectorial_matrix(np.random.default_rng(42), 3)], [DOM])
    return tup, ca.default_region(tup, [1.0], ProductSector([SECT]))


def _hinf_by_parts(F, tup, lam, region, tol=1e-9):
    """The bounded extension from separate public calculus calls."""
    gq = ca._quotient_denominator(tup, lam, region)
    eps = ca._default_eps(region)
    return ca._quotient(
        ca.functional_calculus(ca.product_function(F, gq), tup, lam, region, eps, tol),
        ca.functional_calculus(gq, tup, lam, region, eps, tol), "quotient image")


def _smirnov_by_parts(F, tup, lam, region, tol=1e-9):
    """The witness quotient ``calc(F*Gw*G) * calc(Gw*G)^{-1}`` from separate
    public calculus calls."""
    gw, gq = F.witness, ca._quotient_denominator(tup, lam, region)
    eps = ca._default_eps(region)
    return ca._quotient(
        ca.functional_calculus(ca.product_function(ca.product_function(F, gw), gq), tup, lam,
                               region, eps, tol),
        ca.functional_calculus(ca.product_function(gw, gq), tup, lam, region, eps, tol),
        "witness image")


@pytest.mark.usefixtures("audited_refine")
class TestQuotientExtensions:
    def test_constant_gives_identity(self, scalar_tuple, cone):
        one = ca.constant_function(1, 1.0)
        val = ca.functional_calculus_hinf(one, scalar_tuple, [1.0], cone, tol=1e-9)
        assert sg.opnorm(val - np.eye(1)) <= 1e-8

    def test_exponential_reproduces_semigroup(self, scalar_tuple, cone):
        nu = 1.0
        f = ca.exponential_function(1, nu)
        val = ca.functional_calculus_hinf(f, scalar_tuple, [1.0], cone, tol=1e-9)
        assert sg.opnorm(val - sg.expm(nu * scalar_tuple.matrices[0])) <= 1e-8

    def test_hinf_agrees_with_direct_route(self, scalar_tuple, cone):
        f = ca.inverse_square(1, [1.0])
        tol = 1e-9
        direct = ca.functional_calculus(f, scalar_tuple, [1.0], cone, [0.25], tol=tol)
        quotient = ca.functional_calculus_hinf(f, scalar_tuple, [1.0], cone, tol=tol)
        assert sg.opnorm(direct - quotient) <= 2 * tol

    def test_projection_reproduces_scaled_generator(self, rng):
        tup = sg.CommutingTuple([sg.random_sectorial_matrix(rng, 3)], [DOM])
        u = ca.default_region(tup, [0.8], ProductSector([SECT]))
        f = ca.projection_function(tup, [0.8], u, 0)
        val = ca.functional_calculus_smirnov(f, tup, [0.8], u, tol=1e-9)
        assert sg.opnorm(val - 0.8 * tup.matrices[0]) <= 1e-8

    def test_projection_and_witness_carry_terms(self):
        tup = sg.CommutingTuple([np.array([[-2.0]]), np.array([[-3.0]])], [DOM] * 2)
        u = g.make_region([SECT[0]] * 2, [SECT[1]] * 2, [0.0, 0.0])
        f = ca.projection_function(tup, [1.0, 1.0], u, 1)
        assert f.terms is not None and f.witness.terms is not None
        assert len(f.witness.terms[0]) == 2
        assert ca.product_function(f, f.witness).terms is not None
        pts = np.array([[0.5 + 0.2j, 1.0 - 0.3j], [2.0, 0.1j]])
        assert np.allclose(f(pts), -pts[:, 1], rtol=0, atol=0)

    @pytest.mark.parametrize("case", ["scalar", "random3"])
    def test_separable_projection_matches_dense_path(self, case):
        tup, u = _special_case(case)
        f = ca.projection_function(tup, [1.0], u, 0)
        # bare twins: functions that carry no terms take the dense path
        dense = replace(f, fun=lambda p: f.fun(p),
                        witness=replace(f.witness, fun=lambda p: f.witness.fun(p)))
        got = ca.functional_calculus_smirnov(f, tup, [1.0], u, tol=1e-9)
        ref = ca.functional_calculus_smirnov(dense, tup, [1.0], u, tol=1e-9)
        assert sg.opnorm(got - ref) <= 1e-12 * sg.opnorm(ref)
        # the one contour pass gives the quotient of separate calls exactly:
        # each member keeps the value of the round that accepted it
        assert np.array_equal(got, _smirnov_by_parts(f, tup, [1.0], u))

    def test_quotient_solves_or_reports(self):
        num = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        den = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
        assert np.allclose(ca._quotient(num, den, "x") @ den, num, atol=1e-14)
        with pytest.raises(ca.DenseRangeError, match="witness image is numerically singular"):
            ca._quotient(num, np.diag([1.0, 1e-12]).astype(complex), "witness image")

    def test_product_monomial_two_axes(self):
        tup = sg.CommutingTuple([np.array([[-2.0]]), np.array([[-3.0]])], [DOM] * 2)
        u = g.make_region([SECT[0]] * 2, [SECT[1]] * 2, [0.0, 0.0])
        w0 = ca.projection_witness(tup, [1.0, 1.0], u, 0)
        w1 = ca.projection_witness(tup, [1.0, 1.0], u, 1)
        witness = ca.product_function(w0, w1)
        witness = ca.HoloFunction(witness.fun, "Hinf", (1.0, 0.0), None, None, "w")
        f = ca.HoloFunction(lambda p: p[:, 0] * p[:, 1], "Smirnov", None, None,
                            witness, "z1*z2")
        val = ca.functional_calculus_smirnov(f, tup, [1.0, 1.0], u, tol=1e-9)
        oracle = tup.matrices[0] * tup.matrices[1]  # 1x1 blocks commute
        assert sg.opnorm(val - oracle) <= 1e-7

    def test_constant_smirnov(self, scalar_tuple, cone):
        w = ca.projection_witness(scalar_tuple, [1.0], cone, 0)
        f = ca.HoloFunction(lambda p: np.full(p.shape[0], 3.0 + 0j), "Smirnov",
                            None, None, w, "const3")
        val = ca.functional_calculus_smirnov(f, scalar_tuple, [1.0], cone, tol=1e-9)
        assert sg.opnorm(val - 3.0 * np.eye(1)) <= 1e-7

    def test_missing_witness_rejected(self, scalar_tuple, cone):
        f = ca.monomial(1, 0)
        with pytest.raises(ca.AdmissibilityError):
            ca.functional_calculus_smirnov(f, scalar_tuple, [1.0], cone)

    def test_singular_quotient_image_is_reported(self, cone):
        # a spectral spread of six decades drives the quotient image past
        # the condition threshold; surfaced, not regularized
        tup = sg.CommutingTuple([np.diag([-0.6, -1.0e6])], [DOM])
        one = ca.constant_function(1, 1.0)
        with pytest.raises(ca.DenseRangeError):
            ca.functional_calculus_hinf(one, tup, [1.0], cone, tol=1e-7)


class TestQuotientBatch:
    """The quotient extensions from one contour pass against the same
    quotients assembled from one calculus call per integrand."""

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("seed", [7, 1234])
    def test_grid_cells_match_separate_calls(self, seed, dim):
        tup, lam, region, nu = _grid_case(seed, dim)
        f = ca.exponential_function(1, nu)
        hinf = ca.functional_calculus_hinf(f, tup, lam, region, tol=1e-9)
        assert np.array_equal(hinf, _hinf_by_parts(f, tup, lam, region))
        proj = ca.projection_function(tup, lam, region, 0)
        smirnov = ca.functional_calculus_smirnov(proj, tup, lam, region, tol=1e-9)
        assert np.array_equal(smirnov, _smirnov_by_parts(proj, tup, lam, region))

    def test_one_round_builds_one_stack(self, monkeypatch):
        # a benchmark-grid cell (margin 2.0) is accepted on its first round
        tup, lam, region, _ = _grid_case(5, 4)
        stacks, solve = [], q._kernels.resolvent_stack
        monkeypatch.setattr(q._kernels, "resolvent_stack",
                            lambda *a: stacks.append(1) or solve(*a))
        ca.functional_calculus(ca.inverse_square(1, [1.0 - region.vertex[0]]), tup, lam,
                               region, ca._default_eps(region), tol=1e-9)
        assert len(stacks) == 1

    @pytest.mark.parametrize("kind,parts", [("hinf", 2), ("smirnov", 2)])
    def test_one_resolvent_stack_per_round(self, kind, parts, monkeypatch):
        tup, lam, region, nu = _grid_case(5, 4)
        if kind == "hinf":
            f, run, by_parts = (ca.exponential_function(1, nu), ca.functional_calculus_hinf,
                                _hinf_by_parts)
        else:
            f, run, by_parts = (ca.projection_function(tup, lam, region, 0),
                                ca.functional_calculus_smirnov, _smirnov_by_parts)
        stacks, rounds = [], []
        solve, adaptive = q._kernels.resolvent_stack, ca.adaptive_contour
        monkeypatch.setattr(q._kernels, "resolvent_stack",
                            lambda *a: stacks.append(1) or solve(*a))

        def counted(*a):
            res = adaptive(*a)
            rounds.append(res.rounds)
            return res

        monkeypatch.setattr(ca, "adaptive_contour", counted)
        run(f, tup, lam, region, tol=1e-9)
        assert len(rounds) == 1 and len(stacks) == rounds[0]
        stacks.clear()
        by_parts(f, tup, lam, region)
        # the pass runs as many rounds as its slowest member, and each part
        # as many as its own member
        assert len(rounds) == 1 + parts and max(rounds[1:]) == rounds[0]
        assert len(stacks) == sum(rounds[1:])

    def test_member_without_certificate_is_named(self, scalar_tuple, cone):
        good = ca.inverse_square(1, [1.0])
        bare = ca.HoloFunction(lambda p: 1.0 / (p[:, 0] + 1.0) ** 2, label="bare member")
        with pytest.raises(ca.AdmissibilityError, match="bare member carries no decay"):
            ca._calculus_batch([good, bare], scalar_tuple, [1.0], cone, [0.25])
        slow = replace(good, decay=(1.0, 1.0), label="slow member")
        with pytest.raises(ca.AdmissibilityError, match="slow member decay power 1.0"):
            ca._calculus_batch([good, slow], scalar_tuple, [1.0], cone, [0.25])


class TestNoLUInverseOnTheContour:
    def test_grid_cells_solve_against_the_schur_form(self, monkeypatch):
        # every resolvent of the contour comes from the tuple's Schur form:
        # with np.linalg.inv refusing, benchmark-grid cells still match
        # their eigen oracles
        cells = []
        for k in (1, 2):
            rng = np.random.default_rng(77 + k)
            tup = sg.random_commuting_tuple(rng, k, 4, DOM)
            lam = rng.uniform(0.8, 1.25, k) * np.exp(1j * rng.uniform(-0.2, 0.2, k))
            region = ca.default_region(tup, lam, ProductSector([SECT] * k), margin=2.0)
            f = ca.inverse_square(k, 1.0 - region.vertex)
            cells.append((f, tup, lam, region))
        tup, lam, region, nu = _grid_case(77, 4)
        proj = ca.projection_function(tup, lam, region, 0)
        mus, v, vinv = ca.joint_eigensystem(tup)
        expo = v @ np.diag(np.exp(nu * lam[0] * mus[0])) @ vinv

        def refused(*args, **kwargs):
            raise AssertionError("np.linalg.inv called on the calculus contour path")

        monkeypatch.setattr(np.linalg, "inv", refused)
        values = [ca.functional_calculus(f, t, l, r, np.full(len(l), 0.25), tol=1e-9)
                  for f, t, l, r in cells]
        hinf = ca.functional_calculus_hinf(ca.exponential_function(1, nu), tup, lam, region,
                                           tol=1e-9)
        smirnov = ca.functional_calculus_smirnov(proj, tup, lam, region, tol=1e-9)
        monkeypatch.undo()
        for val, (f, t, l, r) in zip(values, cells):
            assert ca.spectral_map_check(f, t, l, r, computed=val).matrix_rel_err <= 1e-9
        assert sg.opnorm(hinf - expo) <= 1e-7 * sg.opnorm(expo)
        assert sg.opnorm(smirnov - lam[0] * tup.matrices[0]) <= 1e-7 * sg.opnorm(tup.matrices[0])


class TestTransformConsistency:
    def test_transform_of_atom_matches_pairing(self, rng):
        # realizing the transform of a point mass equals the orbit pairing
        tup = sg.CommutingTuple([sg.random_sectorial_matrix(rng, 3)], [DOM])
        ps = ProductSector([SECT])
        phi = fn.dirac(ps, [0.7], 1.3)
        u = ca.default_region(tup, [1.0], ps)
        fb_fun = ca.HoloFunction(lambda pts: phi.fb(pts), "Hinf", None, None,
                                 None, "transform")
        lhs = ca.functional_calculus_hinf(fb_fun, tup, [1.0], u, tol=1e-9)
        rhs = fn.pair_semigroup(tup, [1.0], phi, "measure")
        assert sg.opnorm(lhs - rhs) <= 1e-7

    def test_transform_of_density_matches_pairing(self):
        tup = sg.CommutingTuple([np.array([[-2.0, 0.5], [0.0, -1.0]])], [DOM])
        ps = ProductSector([SECT])
        phi = fn.bisector_density(ps, s=[1.5], coeffs=[[1.0, 0.3]])
        u = ca.default_region(tup, [1.0], ps)
        fb_fun = ca.HoloFunction(lambda pts: phi.fb(pts), "Hinf", None, None,
                                 None, "transform")
        lhs = ca.functional_calculus_hinf(fb_fun, tup, [1.0], u, tol=1e-9)
        rhs = fn.pair_semigroup(tup, [1.0], phi, "measure", tol=1e-11)
        assert sg.opnorm(lhs - rhs) <= 1e-7


class TestHardyDiagnostics:
    def test_halfplane_norm_value(self):
        u = g.make_region([0.0], [0.0], [0.0])
        f = ca.inverse_square(1, [1.0])
        grid = ca.default_eps_grid(u) + [np.array([1e-6 + 0j])]
        val = ca.h1_norm(f, u, eps_grid=grid, tol=1e-7)
        assert abs(val - PI) <= 1e-4

    def test_norm_grid_monotone(self):
        u = g.make_region([0.0], [0.0], [0.0])
        f = ca.inverse_square(1, [1.0])
        coarse = ca.h1_norm(f, u, eps_grid=ca.default_eps_grid(u, directions=4),
                            tol=1e-6)
        fine = ca.h1_norm(f, u, eps_grid=ca.default_eps_grid(u, directions=4)
                          + ca.default_eps_grid(u, directions=8), tol=1e-6)
        assert fine >= coarse - 1e-12

    def test_zero_norm_for_zero_function(self):
        u = g.make_region([0.0], [0.0], [0.0])
        zero = ca.HoloFunction(lambda p: np.zeros(p.shape[0]), "H1", (0.0, 2.0))
        assert ca.h1_norm(zero, u, eps_grid=[np.array([0.5 + 0j])]) == 0.0

    def test_pointwise_bound_ratios(self):
        u = g.make_region([0.0], [0.0], [0.0])
        f = ca.inverse_square(1, [1.0])
        grid = ca.default_eps_grid(u) + [np.array([1e-6 + 0j])]
        norm = ca.h1_norm(f, u, eps_grid=grid, tol=1e-7)
        worst, ratios = ca.pointwise_bound_check(f, u, [[1.0], [2.0], [5.0]],
                                                 norm_lower=norm)
        assert worst <= 1.0 + 1e-3
        # deep interior: the ratio decays
        far, _ = ca.pointwise_bound_check(f, u, [[50.0]], norm_lower=norm)
        assert far < 0.1

    def test_separable_ratio_factorizes(self):
        u1 = g.make_region([0.0], [0.0], [0.0])
        u2 = g.make_region([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        f1 = ca.inverse_square(1, [1.0])
        f2 = ca.inverse_square(2, [1.0, 1.0])
        grid1 = [np.array([1e-6 + 0j])]
        grid2 = [np.array([1e-6 + 0j, 1e-6 + 0j])]
        n1 = ca.h1_norm(f1, u1, eps_grid=grid1, tol=1e-7)
        n2 = ca.h1_norm(f2, u2, eps_grid=grid2, tol=1e-6)
        assert n2 == pytest.approx(n1 * n1, rel=1e-4)
        r1, _ = ca.pointwise_bound_check(f1, u1, [[2.0]], norm_lower=n1)
        r2, _ = ca.pointwise_bound_check(f2, u2, [[2.0, 2.0]], norm_lower=n2)
        assert r2 == pytest.approx(r1 * r1, rel=1e-3)

    def test_zero_integral_on_every_preset(self):
        presets = [
            g.make_region([SECT[0]], [SECT[1]], [0.0]),
            g.make_region([SECT[0]], [SECT[1]], [0.0], kind="cone_minus_disk",
                          radius=0.5),
            g.make_region([SECT[0]], [SECT[1]], [0.0], kind="cone_minus_rect",
                          s0=0.4, s1=0.6),
        ]
        bank = [ca.inverse_square(1, [1.0]), ca.inverse_square(1, [2.0 + 0.3j])]
        for u in presets:
            for f in bank:
                val = ca.boundary_contour_integral(f, u, [0.3], tol=1e-8)
                assert abs(val) <= 1e-7

    def test_zero_integral_on_a_product_region(self):
        u = g.make_region([SECT[0]] * 2, [SECT[1]] * 2, [0.0, 0.0],
                          kind="cone_minus_rect", s0=0.3, s1=0.3)
        f = ca.inverse_square(2, [1.0, 1.5])
        val = ca.boundary_contour_integral(f, u, [0.3, 0.2], tol=1e-7)
        assert abs(val) <= 1e-6

    def test_exponential_certificate_sets_the_truncation(self, scalar_tuple, cone):
        # exp-certified integrand: the radius comes from the rate, the value
        # still matches the scalar oracle
        nu = 1.0
        rate = nu * np.cos(PI / 4)

        def fun(p):
            return np.exp(-nu * p[:, 0]) / (p[:, 0] + 1.0) ** 2

        f = ca.HoloFunction(fun, "H1", (1.0, 2.0), exp_rate=rate, label="exp*invsq")
        val = ca.functional_calculus(f, scalar_tuple, [1.0], cone, [0.25], tol=1e-9)
        oracle = np.exp(-2.0) / 9.0
        assert abs(val[0, 0] - oracle) <= 1e-9

    def test_interior_reproduction(self, cone):
        f = ca.inverse_square(1, [2.0])
        val = ca.interior_cauchy_value(f, cone, [0.5], [1.0], tol=1e-10)
        assert abs(val - 1.0 / 9.0) <= 1e-10


def _abs_reference(F, region, eps, tol):
    """``Int |F| |d sigma|`` on the contour built for the shift ``eps``
    itself, with ``|weights|``: the per-shift reference of the batch."""
    def value_of(c):
        axes = tuple(replace(ax, weights=np.abs(ax.weights)) for ax in c.axes)
        return q.tensor_sum(lambda p: np.abs(F(p)), replace(c, axes=axes))

    cq = q.ContourQuadrature.from_region(region, eps)
    return abs(q.adaptive_contour(value_of, cq, tol).value)


def _hardy_region(kind, k):
    if kind == "halfplane":
        return g.make_region([0.0] * k, [0.0] * k, [0.0] * k)
    params = {"radius": 0.5} if kind == "cone_minus_disk" else {}
    return g.make_region([SECT[0]] * k, [SECT[1]] * k, [0.0] * k, kind=kind, **params)


def _hardy_function(form, k):
    f = ca.inverse_square(k, 1.5 + 0.2j * np.arange(k))
    if form == "rank1":
        return f
    if form == "rank2":
        other = ca.inverse_square(k, 2.0 - 0.3j * np.arange(k))
        return ca.separable_function(f.terms + other.terms, "H1", (2.0, 2.0), label="rank2")
    return ca.HoloFunction(lambda p: f(p), "H1", f.decay, label="bare")


class TestAbsIntegralBatch:
    @pytest.mark.parametrize("form", ["rank1", "rank2", "bare"])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("kind", ["halfplane", "cone", "cone_minus_disk"])
    def test_batch_matches_the_per_shift_reference(self, kind, k, form):
        # the reference's tail radius grows with the shift (modulus 16), the
        # batch translates the unshifted contour with the unshifted radius
        u, F, tol = _hardy_region(kind, k), _hardy_function(form, k), 1e-6
        grid = ca.default_eps_grid(u, directions=2, moduli=[0.25, 16.0])
        assert q.tail_radius(u, grid[-1]) > q.tail_radius(u, np.zeros(k))
        refs = np.array([_abs_reference(F, u, eps, tol) for eps in grid])
        batch = ca._abs_integrals(F, u, grid, tol)
        assert batch.shape == (len(grid),)
        assert np.max(np.abs(batch - refs)) <= 2 * tol
        assert abs(ca.h1_norm(F, u, grid, tol) - refs.max()) <= 2 * tol
        assert abs(ca.boundary_abs_integral(F, u, grid[-1], tol) - refs[-1]) <= 2 * tol

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["halfplane", "cone", "cone_minus_disk"])
    def test_default_grid_is_bit_equal_to_its_loop(self, kind, k):
        # the grid swept one direction and one axis at a time, angle by
        # angle through Python complex(cos, sin)
        u = _hardy_region(kind, k)
        for directions, moduli in ((8, 2.0 ** np.arange(-3, 3)), (3, [0.25, 16.0])):
            ref = []
            for i in range(directions):
                frac = (i + 1.0) / (directions + 1.0)
                angles = [lo + frac * (hi - lo) for lo, hi in (
                    (-PI / 2 - ax.alpha, PI / 2 - ax.beta) for ax in u.axes)]
                eps_dir = np.array([complex(np.cos(t), np.sin(t)) for t in angles])
                ref.extend(m * eps_dir for m in moduli)
            grid = ca.default_eps_grid(u, directions, moduli)
            assert isinstance(grid, list) and len(grid) == len(ref)
            assert np.array_equal(np.array(grid).view(float), np.array(ref).view(float))

    def test_joint_acceptance_waits_for_the_slowest_member(self):
        # the pole at -0.1 sits 0.1 from the unshifted line: that member
        # needs rounds the far shift does not
        u, f, tol = _hardy_region("halfplane", 1), ca.inverse_square(1, [0.1]), 1e-7
        grid = [np.array([2.0 + 0j]), np.array([0.0 + 0j])]
        batch = ca._abs_integrals(f, u, grid, tol)
        assert np.allclose(batch, PI / (0.1 + np.array([2.0, 0.0])), rtol=1e-6, atol=0)
        for val, eps in zip(batch, grid):
            assert abs(val - _abs_reference(f, u, eps, tol)) <= 2 * tol

    def test_h1_norm_builds_one_contour_per_round(self, cone, monkeypatch):
        passes, contours, builds = [], [], []
        adaptive, build = ca.adaptive_contour, q._contour

        def counted(value_of, cq, *a):
            passes.append(cq)
            return adaptive(lambda c: contours.append(c) or value_of(c), cq, *a)

        monkeypatch.setattr(ca, "adaptive_contour", counted)
        monkeypatch.setattr(q, "_contour", lambda *a: builds.append(a) or build(*a))
        grid = ca.default_eps_grid(cone)
        assert len(grid) == 48
        ca.h1_norm(ca.inverse_square(1, [1.0]), cone, tol=1e-7)
        assert len(passes) == 1 and len(builds) == len(contours) >= 1
        assert all(c.eps == (0j,) for c in contours)

    @pytest.mark.parametrize("form", ["rank1", "bare"])
    def test_member_round_values_do_not_depend_on_the_grid(self, form, monkeypatch):
        seen, adaptive = [], ca.adaptive_contour

        def recorded(value_of, cq, *a):
            seen.append([])
            return adaptive(lambda c: seen[-1].append(value_of(c)) or seen[-1][-1], cq, *a)

        monkeypatch.setattr(ca, "adaptive_contour", recorded)
        u, F = _hardy_region("cone_minus_disk", 2), _hardy_function(form, 2)
        grid = ca.default_eps_grid(u, directions=3, moduli=[0.25, 16.0])
        ca._abs_integrals(F, u, grid[:1], 1e-6)
        ca._abs_integrals(F, u, grid, 1e-6)
        alone, batch = seen
        assert len(alone) >= 1
        for (a, a_est), (b, b_est) in zip(alone, batch):
            # same round, same contour: same bits, and the same estimate
            assert b[0] == a[0] and b_est[0] == a_est[0]

    def test_shifts_are_checked_before_any_contour(self, monkeypatch):
        builds, build = [], q.ContourQuadrature.from_region
        monkeypatch.setattr(q.ContourQuadrature, "from_region", staticmethod(
            lambda *a, **kw: builds.append(a) or build(*a, **kw)))
        u, f = _hardy_region("cone", 2), ca.inverse_square(2, [1.0, 1.0])
        with pytest.raises(q.QuadratureError,
                           match=r"shift \(-1\+0j\) is outside the closed dual sector of axis 1"):
            ca.h1_norm(f, u, [np.array([0.25, 0.25]), np.array([0.25, -1.0])])
        with pytest.raises(q.QuadratureError, match="one entry per axis"):
            ca.h1_norm(f, u, [np.array([0.25, 0.25]), np.array([0.25])])
        with pytest.raises(ca.AdmissibilityError, match="below the integrable threshold"):
            ca.h1_norm(ca.HoloFunction(lambda p: 1.0 / (p[:, 0] + 1.0), "H1", (1.0, 1.0)), u)
        with pytest.raises(ca.AdmissibilityError, match="carries no decay certificate"):
            ca.boundary_abs_integral(replace(f, decay=None), u, [0.25, 0.25])
        assert builds == []


class TestOuterDiagnostics:
    def test_disk_witness_passes(self):
        f = lambda s: (1.0 - s) / 2.0
        wit = ca.WitnessSequence(tuple((lambda s, n=n: (1.0 + 1.0 / n - s) / 2.0)
                                       for n in (1, 4, 16, 64, 256)))
        rr, th = np.meshgrid(np.linspace(0.05, 0.95, 10),
                             np.linspace(0, 2 * PI, 16, endpoint=False))
        grid = (rr * np.exp(1j * th)).ravel()
        rep = ca.strongly_outer_check(f, wit, grid,
                                      0.999 * np.exp(1j * np.linspace(0, 2 * PI, 64,
                                                                      endpoint=False)))
        assert rep.passed
        assert rep.min_witness_modulus > 0

    def test_singular_slice_fails(self):
        f = lambda s: np.exp((s + 1.0) / (s - 1.0))
        wit = ca.WitnessSequence(tuple(
            (lambda s, n=n: np.exp((s + 1.0 + 1.0 / n) / (s - 1.0 - 1.0 / n)))
            for n in (1, 2, 4, 8, 16)))
        rep = ca.strongly_outer_check(f, wit, np.linspace(0.0, 0.98, 40))
        assert not rep.passed

    def test_singular_slice_means(self):
        f = lambda s: np.exp((s + 1.0) / (s - 1.0))
        means, bmean = ca.outer_diagnostic_disk(f)
        assert np.max(np.abs(means + 1.0)) <= 1e-12
        assert abs(bmean) <= 1e-12

    def test_constant_means_agree(self):
        f = lambda s: np.full(np.shape(s), 2.5 + 0j)
        means, bmean = ca.outer_diagnostic_disk(f)
        assert np.allclose(means, np.log(2.5))
        assert bmean == pytest.approx(np.log(2.5))

    def test_zero_detection(self):
        f = lambda s: s - 0.5
        with pytest.raises(ZeroDivisionError):
            ca.outer_diagnostic_disk(f, r_grid=np.array([0.5]),
                                     t_grid=np.array([0.0]))
