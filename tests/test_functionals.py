import json
import math

import numpy as np
import pytest

from sectorcalc import functionals as fn
from sectorcalc import quadrature as q
from sectorcalc import semigroups as sg
from sectorcalc.geometry import GeometryError, ProductSector
from sectorcalc.quadrature import ConvergenceError

PI = np.pi
DOM = (-PI / 2 + 0.05, PI / 2 - 0.05)
SECT = (-PI / 4, PI / 4)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def ps1():
    return ProductSector([SECT])


@pytest.fixture
def ps2():
    return ProductSector([SECT, SECT])


def random_atomic(rng, ps, n_atoms=2):
    atoms = []
    for _ in range(n_atoms):
        eta = [rng.uniform(0.2, 1.5) * np.exp(1j * rng.uniform(-0.4, 0.4)
                                              * s.aperture / 2)
               for s in ps.sectors]
        atoms.append((eta, complex(rng.standard_normal() + 0.4,
                                   0.2 * rng.standard_normal())))
    return fn.Functional(ps, atoms)


def _two_atoms_two_axes(ps2):
    """Two atoms in the closed product sector, and ``f`` a product of
    exponential polynomials of different rates and degrees."""
    phi = fn.Functional(ps2, [([0.8, 0.5 + 0.1j], 1.3), ([0.4 - 0.1j, 1.1], -0.7 + 0.2j)])
    return phi, fn.exp_poly_function(ps2, [1.0, 1.2], [[0.2, 1.0], [1.0]])


def _fb_reference(phi, pts):
    """The transform summed atom by atom and density by density, each
    density's Laplace factors written out term by term, and the sum of the
    moduli of those terms (the scale of the rounding error of any order of
    summation; convolved densities cancel)."""
    out = np.zeros(pts.shape[0], dtype=complex)
    scale = np.zeros(pts.shape[0])
    for eta, w in phi.atoms:
        out = out + w * np.exp(-pts @ np.asarray(eta))
        scale = scale + np.abs(w * np.exp(-pts @ np.asarray(eta)))
    for d in phi.densities:
        term = d.weight * np.exp(-pts @ np.asarray(d.offset))
        for j, ax in enumerate(d.axes):
            u = ax.s + pts[:, j] * np.exp(1j * ax.omega)
            fac = np.zeros_like(u)
            for m, c in enumerate(ax.coeffs):
                if abs(c) > 0:
                    fac = fac + c * math.factorial(m) / u ** (m + 1)
            term = term * fac
        out = out + term
        scale = scale + np.abs(term)
    return out, scale


def _mixed(rng, ps):
    """Two random atoms and one random bisector density of degree 1 per axis."""
    dens = fn.bisector_density(ps, s=rng.uniform(0.8, 2.0, ps.k) + 0.2j * rng.standard_normal(ps.k),
                               coeffs=[[rng.uniform(0.2, 1.0), rng.standard_normal()]
                                       for _ in range(ps.k)],
                               weight=rng.standard_normal() + 0.5j)
    return fn.Functional(ps, random_atomic(rng, ps, 2).atoms, dens.densities)


def _integrable(ps):
    """An atom inside the sector plus a density of degree at least 1 on every
    axis: a transform integrable on the dual-cone contour (k <= 3)."""
    dens = fn.bisector_density(ps, s=[1.3, 1.1, 1.2][:ps.k],
                               coeffs=[[0.0, 1.0, 0.3], [0.0, 1.0], [0.0, 0.5]][:ps.k])
    return fn.Functional(ps, [([0.6, 0.4 + 0.1j, 0.5][:ps.k], 0.7)], dens.densities)


class TestTransform:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_transform_matches_the_atom_and_density_sums(self, rng, k):
        ps = ProductSector([SECT] * k)
        pts = rng.uniform(0.0, 2.0, (40, k)) + 1j * rng.uniform(-2.0, 2.0, (40, k))
        p1, p2 = _mixed(rng, ps), _mixed(rng, ps)
        for phi in (p1, fn.convolve(p1, p2)):
            ref, scale = _fb_reference(phi, pts)
            assert np.all(np.abs(phi.fb(pts) - ref) <= 1e-14 * scale)
            assert phi.fb(pts[0]) == phi.fb(pts[:1])[0]

    def test_atom_value(self, ps2):
        phi = fn.dirac(ps2, [1.0, 2.0])
        z = np.array([1.0 + 0j, 1.0 + 0j])
        assert phi.fb(z) == pytest.approx(np.exp(-3.0))

    def test_bisector_density_product_form(self, ps2):
        nu0 = fn.bisector_density(ps2)
        z = np.array([0.3 + 0.1j, -0.2 + 0j])
        expect = np.prod([1.0 / (1.0 + z[j]) for j in range(2)])
        assert nu0.fb(z) == pytest.approx(expect)

    def test_empty_functional_vanishes(self, ps2):
        assert fn.Functional(ps2).fb(np.zeros(2, complex)) == 0.0

    def test_domain_excludes_density_poles(self, ps1):
        phi = fn.bisector_density(ps1, s=[0.5])
        assert phi.domain_contains([0.0])
        assert not phi.domain_contains([-1.0])

    def test_atom_outside_sector_rejected(self, ps1):
        with pytest.raises(ValueError):
            fn.dirac(ps1, [1j])

    def test_degree_cap(self, ps1):
        with pytest.raises(ValueError):
            fn.bisector_density(ps1, coeffs=[[0, 0, 0, 0, 0, 1.0]])

    def test_json_round_trip(self, rng, ps1):
        phi = fn.Functional(
            ps1,
            atoms=[([0.5 + 0.1j], 2.0 - 1.0j)],
            densities=fn.bisector_density(ps1, s=[1.2 + 0.3j],
                                          coeffs=[[1.0, 0.5]]).densities,
        )
        phi2 = fn.Functional.from_json(phi.to_json())
        z = rng.uniform(0, 1, (5, 1)) + 0j
        assert np.allclose(phi.fb(z), phi2.fb(z))

    def test_json_round_trip_with_degrees_per_axis(self, rng, ps2):
        phi = fn.Functional(ps2, atoms=[([0.5 + 0.1j, 0.3], 2.0 - 1.0j)],
                            densities=fn.bisector_density(
                                ps2, s=[1.2 + 0.3j, 0.9], coeffs=[[1.0, 0.5, 0.2], [0.0, 1.0]],
                                weight=0.5 - 0.25j).densities)
        phi2 = fn.Functional.from_json(json.dumps(phi.to_json()))
        assert phi2 == phi
        z = rng.uniform(0, 1, (5, 2)) + 0j
        assert np.array_equal(phi.fb(z), phi2.fb(z))

    @pytest.mark.parametrize("part, field, value", [
        ("atoms", "eta", [1.0]),
        ("atoms", "w", 1.0),
        ("densities", "s", [[1.0]]),
        ("atoms", "w", "x"),
        ("densities", "poly", [[1.0, [0.5, 0.0]]]),  # a bare coefficient
        ("densities", "eta", [[0.0, 0.0, 0.0]]),
    ])
    def test_json_refuses_a_malformed_pair_naming_the_field(self, ps1, part, field, value):
        obj = fn.Functional(ps1, atoms=[([0.5], 2.0)],
                            densities=fn.bisector_density(ps1).densities).to_json()
        obj[part][0][field] = value
        with pytest.raises(GeometryError, match=f"'{field}' must be"):
            fn.Functional.from_json(obj)

    def test_json_refuses_an_axis_count_mismatch(self, ps1):
        obj = fn.bisector_density(ps1).to_json()
        obj["densities"][0]["poly"] *= 2
        with pytest.raises(GeometryError, match="'s' and 'poly' need one entry per 'omega'"):
            fn.Functional.from_json(obj)

    def test_json_refuses_a_beta_longer_than_alpha(self, ps2):
        # zip would drop the third beta and read a functional of two axes
        obj = fn.bisector_density(ps2).to_json()
        obj["beta"].append(PI / 4)
        with pytest.raises(GeometryError, match="beta has 3 entries for 2 axes"):
            fn.Functional.from_json(obj)

    @pytest.mark.parametrize("omega", [0.0, [0.0], [0.0, 0.0, 0.0], [0.0, float("nan")]])
    def test_json_reads_omega_one_entry_per_axis(self, ps2, omega):
        obj = fn.bisector_density(ps2).to_json()
        obj["densities"][0]["omega"] = omega
        with pytest.raises(GeometryError, match="^omega"):
            fn.Functional.from_json(obj)

    def test_json_missing_field_is_a_key_error(self, ps2):
        obj = fn.bisector_density(ps2).to_json()
        del obj["densities"][0]["omega"]
        with pytest.raises(KeyError):
            fn.Functional.from_json(obj)


class TestWn:
    def test_unit_at_origin(self, ps2):
        assert fn._wn(ps2, 7, np.zeros(2))(np.zeros((1, 2), complex))[0] == pytest.approx(1.0)

    def test_halfline_value(self):
        ps = ProductSector([(0.0, 0.0)])
        assert fn._wn(ps, 1, np.zeros(1))(np.array([[1.0 + 0j]]))[0] == pytest.approx(0.25)

    def test_modulus_bounded_on_dual_cone(self, rng, ps1):
        angs = rng.uniform(-PI / 4, PI / 4, 1000)
        mags = 10.0 ** rng.uniform(-2, 2, 1000)
        pts = (mags * np.exp(1j * angs))[:, None]
        for n in (1, 8, 64):
            assert np.abs(fn._wn(ps1, n, np.zeros(1))(pts)).max() <= 1.0 + 1e-12


class TestCauchyTransform:
    def test_atom_both_routes(self, ps1):
        phi = fn.dirac(ps1, [1.0])
        expect = 1.0 / (4j * PI)
        v1 = fn.cauchy_transform(phi, [-1.0], route="measure")
        v2 = fn.cauchy_transform(phi, [-1.0], route="fb", tol=1e-11)
        assert v1 == pytest.approx(expect)
        assert abs(v2 - expect) <= 1e-10

    def test_density_both_routes(self, ps1):
        phi = fn.bisector_density(ps1, s=[1.3], coeffs=[[1.0, 0.2]])
        v1 = fn.cauchy_transform(phi, [-2.0 + 1.0j], route="measure", tol=1e-11)
        v2 = fn.cauchy_transform(phi, [-2.0 + 1.0j], route="fb", tol=1e-11)
        assert abs(v1 - v2) <= 1e-9 * max(abs(v1), 1e-6)

    def test_route_agreement_many_lambdas(self, rng, ps1):
        phi = random_atomic(rng, ps1, 3)
        for _ in range(20):
            ang = rng.uniform(PI / 4 + 0.3, 2 * PI - PI / 4 - 0.3)
            lam = rng.uniform(0.5, 4.0) * np.exp(1j * ang)
            v1 = fn.cauchy_transform(phi, [lam], route="measure")
            v2 = fn.cauchy_transform(phi, [lam], route="fb", tol=1e-11)
            assert abs(v1 - v2) <= 1e-8 * max(abs(v1), 1e-8)

    def test_kernel_decays_at_infinity(self, ps1):
        phi = fn.dirac(ps1, [1.0])
        vals = [abs(fn.cauchy_transform(phi, [lam], route="measure"))
                for lam in (-1.0, -10.0, -100.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-2

    def test_lambda_inside_sector_rejected(self, ps1):
        phi = fn.dirac(ps1, [1.0])
        for route in ("measure", "fb"):
            for lam in (1.0, 2.0 * np.exp(1j * SECT[1]), 1e-3 * np.exp(1j * SECT[0])):
                with pytest.raises(fn.RouteError, match="inside the closed sector"):
                    fn.cauchy_transform(phi, [lam], route=route)

    @pytest.mark.parametrize("k", [1, 2])
    def test_routes_agree_at_slow_decay_anchors(self, k):
        # the weighted density decays at the rate s + z_j: 0.1 at (1.3, -1.2)
        # and (5, -4.9), 0.05 at (1.3, -1.25), where exp(-z_j zeta_j) alone
        # overflows on a ray cut at the density's own rate s
        ps = ProductSector([SECT] * k)
        for s, zj in ((1.3, 0.0), (1.3, -0.6), (1.3, -1.0), (1.3, -1.2), (1.3, -1.25),
                      (5.0, -4.9)):
            dens = fn.bisector_density(ps, s=[s] * k, coeffs=[[1.0, 0.4]] * k).densities
            phi = fn.Functional(ps, [([0.7] * k, 1.0)], dens)
            v1 = fn.cauchy_transform(phi, [-1.0 + 0.5j] * k, [zj] * k, "measure", 1e-10)
            v2 = fn.cauchy_transform(phi, [-1.0 + 0.5j] * k, [zj] * k, "fb", 1e-10)
            assert abs(v1 - v2) <= 1e-10, (s, zj)

    def test_both_routes_are_tensor_density_integrals(self, ps1, monkeypatch):
        calls, inner = [], fn._tensor_density_integral
        monkeypatch.setattr(fn, "_tensor_density_integral",
                            lambda *args: calls.append(1) or inner(*args))
        for route in ("measure", "fb"):
            fn.cauchy_transform(fn.bisector_density(ps1), [-1.0], route=route)
        assert len(calls) == 2 and not hasattr(fn, "ray_integral")


class TestConvolution:
    def test_atoms_add(self, ps2):
        c = fn.convolve(fn.dirac(ps2, [1.0, 0.5], 2.0), fn.dirac(ps2, [0.5, 0.5], 3.0))
        (eta, w), = c.atoms
        assert np.allclose(eta, [1.5, 1.0]) and w == 6.0

    def test_exponential_density_squares_to_t_weight(self, ps1):
        e1 = fn.bisector_density(ps1)
        c = fn.convolve(e1, e1)
        (d,) = c.densities
        assert np.allclose(d.axes[0].coeffs, [0.0, 1.0])

    def test_atom_shifts_density(self, ps1):
        phi = fn.convolve(fn.dirac(ps1, [0.7], 2.0), fn.bisector_density(ps1))
        (d,) = phi.densities
        assert d.offset[0] == pytest.approx(0.7)
        assert d.weight == pytest.approx(2.0)

    def test_terms_pair_in_order(self, ps1):
        # atom x atom, atom x density, density x atom, then the partial
        # fractions of density x density; atoms lead the term list
        p1 = fn.Functional(ps1, [([0.25], 2.0)], fn.bisector_density(ps1, s=[1.0]).densities)
        p2 = fn.Functional(ps1, [([0.5], 3.0)], fn.bisector_density(ps1, s=[2.0]).densities)
        c = fn.convolve(p1, p2)
        assert c.atoms == (((0.75 + 0j,), 6.0 + 0j),)
        assert [(d.weight, d.offset[0], d.axes[0].s) for d in c.densities] == [
            (2.0, 0.25, 2.0), (3.0, 0.5, 1.0), (1.0, 0.0, 1.0), (1.0, 0.0, 2.0)]
        assert c._terms == tuple((w, eta, None) for eta, w in c.atoms) + tuple(
            (d.weight, d.offset, d.axes) for d in c.densities)

    def test_transform_multiplicative(self, rng, ps1):
        for _ in range(100):
            phis = []
            for _ in range(2):
                if rng.random() < 0.5:
                    phis.append(random_atomic(rng, ps1))
                else:
                    phis.append(fn.bisector_density(
                        ps1, s=[1.0 + rng.uniform(0, 1.5)],
                        coeffs=[[rng.uniform(0.3, 1.0), rng.uniform(0, 0.5)]],
                        weight=rng.standard_normal() + 0.5))
            conv = fn.convolve(phis[0], phis[1])
            z = rng.uniform(0, 1.5, (5, 1)) + 1j * rng.uniform(-0.3, 0.3, (5, 1))
            lhs = conv.fb(z)
            rhs = phis[0].fb(z) * phis[1].fb(z)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(np.max(np.abs(rhs)), 1e-8)

    def test_distinct_exponents_partial_fractions(self, rng, ps1):
        e1 = fn.bisector_density(ps1, s=[1.0], coeffs=[[1.0, 0.3]])
        e2 = fn.bisector_density(ps1, s=[2.2 + 0.4j], coeffs=[[0.7, 0.0, 0.4]])
        c = fn.convolve(e1, e2)
        z = rng.uniform(0, 1, (8, 1)) + 0j
        assert np.allclose(c.fb(z), e1.fb(z) * e2.fb(z), atol=1e-12)

    def test_mixed_directions_refused(self, ps1):
        d1 = fn.Functional(ps1, densities=[fn.TensorDensity(
            1.0, [0j], [fn.AxisDensity(0.2, 1.0, [1.0])])])
        d2 = fn.Functional(ps1, densities=[fn.TensorDensity(
            1.0, [0j], [fn.AxisDensity(-0.2, 1.0, [1.0])])])
        with pytest.raises(fn.RouteError):
            fn.convolve(d1, d2)

    def test_cross_class_refused(self):
        p1 = fn.dirac(ProductSector([SECT]), [1.0])
        p2 = fn.dirac(ProductSector([(-PI / 3, PI / 3)]), [1.0])
        with pytest.raises(fn.RouteError):
            fn.convolve(p1, p2)


@pytest.mark.usefixtures("audited_refine")
class TestPairFunction:
    def test_every_route_on_an_atom(self, ps1):
        phi = fn.dirac(ps1, [1.0])
        f = fn.exp_poly_function(ps1, [1.0], [[0.0, 1.0]])
        oracle = np.exp(-1.0)
        assert fn.pair_function(f, phi, "measure") == pytest.approx(oracle)
        for route, tol in (("fb_direct", 1e-10), ("fb_eps", 1e-9),
                           ("wn_limit", 1e-5), ("cauchy", 1e-9)):
            val = fn.pair_function(f, phi, route, tol=1e-10)
            assert abs(val - oracle) <= tol

    def test_measure_route_refuses_an_anchor(self, ps2):
        # the measure route never reads z, so it refuses one rather than ignore it
        phi, f = _two_atoms_two_axes(ps2)
        for z in ([1, 2, 3], [0.0, 0.0]):
            with pytest.raises(fn.RouteError, match="route measure takes no anchor z"):
                fn.pair_function(f, phi, "measure", z=z)

    def test_measure_route_rejects_nonfinite_values(self, ps2):
        phi = fn.bisector_density(ps2)
        bad = fn.SectorFunction(lambda pts: np.full(pts.shape[0], np.nan + 0j), label="nan")
        with pytest.raises(fn.QuadratureError, match="non-finite"):
            fn.pair_function(bad, phi, "measure")

    def test_density_integral_failure_carries_value_and_estimate(self, ps1, monkeypatch):
        # the integrand grows almost as fast as the density decays, so every
        # doubling of the truncation radius still moves the value
        monkeypatch.setattr(q, "_MAX_ROUNDS", 3)
        d = fn.bisector_density(ps1).densities[0]
        with pytest.raises(ConvergenceError) as info:
            fn._tensor_density_integral(lambda p: np.exp(0.99 * p[:, 0]), d, 1e-9)
        assert np.isfinite(info.value.value) and info.value.estimate > 1.0

    def test_exponential_pairs_to_the_transform(self, rng, ps1):
        # f = e_{-w}: every route returns the transform at w
        phi = random_atomic(rng, ps1, 2)
        w = 0.8 + 0.1j
        f = fn.exp_poly_function(ps1, [w])
        expect = phi.fb(np.array([w]))
        for route in ("measure", "fb_direct", "fb_eps", "cauchy"):
            assert abs(fn.pair_function(f, phi, route, tol=1e-10) - expect) <= 1e-8

    def test_translation_law_with_rational_f(self, rng, ps1):
        # the boundary-kernel route handles decaying rational functions too
        phi = random_atomic(rng, ps1, 2)
        f = fn.SectorFunction(lambda pts: 1.0 / (pts[:, 0] + 1.0) ** 2,
                              sector_decay=(("alg", 2.0),), label="invsq")
        eta = np.array([0.25 + 0.1j])
        direct = sum(w / (e[0] + eta[0] + 1.0) ** 2 for e, w in phi.atoms)
        via_kernel = fn.pair_translated_cauchy(f, phi, eta, tol=1e-9)
        assert abs(via_kernel - direct) <= 1e-7 * max(abs(direct), 1e-6)

    def test_density_routes(self, ps1):
        phi = fn.bisector_density(ps1, coeffs=[[0.0, 1.0]])  # t e^{-t} dt
        f = fn.exp_poly_function(ps1, [1.0], [[0.0, 1.0]])   # t e^{-t}
        oracle = fn.pair_function(f, phi, "measure", tol=1e-11)
        assert abs(oracle - 2.0 / 8.0) <= 1e-10  # int t^2 e^{-2t}
        assert abs(fn.pair_function(f, phi, "fb_eps", tol=1e-10) - oracle) <= 1e-8
        assert abs(fn.pair_function(f, phi, "fb_direct", tol=1e-10) - oracle) <= 1e-9
        assert abs(fn.pair_function(f, phi, "wn_limit", tol=1e-9) - oracle) <= 1e-5

    def test_route_guards(self, ps1):
        phi = fn.bisector_density(ps1)  # transform decays like 1/|sigma|
        f = fn.exp_poly_function(ps1, [1.0])
        with pytest.raises(fn.RouteError):
            fn.pair_function(f, phi, "fb_direct")
        bare = fn.SectorFunction(lambda pts: np.exp(-pts[:, 0]))
        with pytest.raises(fn.RouteError):
            fn.pair_function(bare, phi, "fb_eps")
        with pytest.raises(fn.RouteError):
            fn.pair_function(f, phi, "cauchy")  # density unsupported on this route

    @pytest.mark.parametrize("z", [0.3, 0.5, 0.7, 0.9])
    def test_translated_cauchy_with_a_growing_anchor_weight(self, ps1, z):
        # far out on the mapped ray tails exp(sigma z) overflows while f
        # underflows to 0; the certified envelope is below double
        # resolution there, so those nodes contribute nothing
        f = fn.exp_poly_function(ps1, [1.0])
        val = fn.pair_translated_cauchy(f, fn.dirac(ps1, [0.8]), [0.3], z=[z], tol=1e-12)
        assert abs(val - np.exp(-1.1)) <= 1e-12

    @pytest.mark.parametrize("z", [0.001, 0.01, 0.05, 0.5j])
    def test_translated_cauchy_refuses_a_growing_weight_on_algebraic_decay(self, ps1, z):
        # exp(sigma z) grows along a sector edge, and no power of 1/|sigma|
        # can make up for it
        f = fn.SectorFunction(lambda p: 1.0 / (p[:, 0] + 1.0) ** 2,
                              sector_decay=(("alg", 2.0),), label="invsq")
        with pytest.raises(fn.RouteError, match="anchor weight destroys the boundary decay"):
            fn.pair_translated_cauchy(f, fn.dirac(ps1, [0.8]), [0.3], z=[z])

    @pytest.mark.parametrize("z", [0.0, -0.5, -0.05])
    def test_translated_cauchy_with_a_decaying_weight_on_algebraic_decay(self, ps1, z):
        f = fn.SectorFunction(lambda p: 1.0 / (p[:, 0] + 1.0) ** 2,
                              sector_decay=(("alg", 2.0),), label="invsq")
        val = fn.pair_translated_cauchy(f, fn.dirac(ps1, [0.8]), [0.3], z=[z])
        assert abs(val - 1.0 / (1.1 + 1.0) ** 2) <= 1e-9

    def test_translated_cauchy_keeps_genuine_nonfinite_values(self, ps1):
        # a non-finite value where the certified envelope exp(-0.35 |sigma|)
        # is above double resolution (tail nodes at |sigma| 44 to 84) is
        # still refused
        f = fn.exp_poly_function(ps1, [1.0])
        bad = fn.SectorFunction(
            lambda p: np.where(abs(np.abs(p[:, 0]) - 70.0) < 30.0, np.nan, f(p)),
            sector_decay=f.sector_decay, label="nan far out")
        with pytest.raises(fn.QuadratureError, match="non-finite"):
            fn.pair_translated_cauchy(bad, fn.dirac(ps1, [0.8]), [0.3], z=[0.5])

    def test_translated_cauchy_needs_a_boundary_certificate(self, ps1):
        f = fn.SectorFunction(lambda p: np.exp(-p[:, 0]), label="bare exp")
        with pytest.raises(fn.RouteError, match="bare exp carries no boundary decay"):
            fn.pair_translated_cauchy(f, fn.dirac(ps1, [0.8]), [0.3])

    def test_boundary_kernel_route_on_two_axes(self, ps2):
        # two atoms on two axes against a product of exponential polynomials:
        # every axis of the boundary-kernel contour carries a kernel factor
        phi, f = _two_atoms_two_axes(ps2)
        oracle = fn.pair_function(f, phi, "measure")
        assert abs(fn.pair_function(f, phi, "cauchy", tol=1e-8) - oracle) <= 1e-9

    @pytest.mark.parametrize("z", [[0.0, 0.0], [0.3, 0.2], [0.6, 0.5], [0.9, 0.9]])
    def test_translated_cauchy_on_two_axes(self, ps2, z):
        # the anchor weight grows along the sector edges on both axes; the
        # translated pairing is the sum of w * f(eta_a + eta) for every z
        phi, f = _two_atoms_two_axes(ps2)
        eta = np.array([0.3, 0.25 + 0.05j])
        direct = sum(w * f(np.asarray(e)[None, :] + eta)[0] for e, w in phi.atoms)
        val = fn.pair_translated_cauchy(f, phi, eta, z=z)
        assert abs(val - direct) <= 1e-12

    def test_contour_integrability_per_axis(self, ps2):
        phi = fn.bisector_density(ps2)  # transform decays like 1/|sigma_j| per axis
        assert not phi.fb_integrable_on_cone()
        assert not phi.fb_integrable_on_cone([1.0, 0.0])
        assert phi.fb_integrable_on_cone([1.0, 1.0]) and phi.fb_integrable_on_cone(1.0)
        with pytest.raises(fn.RouteError, match="not integrable on the contour"):
            fn._dual_cone_contour(phi, np.zeros(2), [0.0, 1.0])

    def test_translation_law(self, rng, ps1):
        # pairing against the shifted functional equals the translated pairing
        phi = random_atomic(rng, ps1, 2)
        f = fn.exp_poly_function(ps1, [1.0], [[0.3, 1.0]])
        eta = np.array([0.3 + 0.05j])
        shifted = fn.convolve(phi, fn.dirac(ps1, eta))
        lhs = fn.pair_function(f, shifted, "measure")
        via_kernel = fn.pair_translated_cauchy(f, phi, eta, tol=1e-11)
        direct = sum(w * complex(f(np.asarray([[e[0] + eta[0]]]))[0])
                     for e, w in phi.atoms)
        assert abs(lhs - direct) <= 1e-10
        assert abs(via_kernel - direct) <= 1e-9

    def test_joint_weight_translation_limit(self, rng, ps1):
        # <e_{-eps} f_eta, phi> -> <f, phi> along eta with dual-bisector eps
        for _ in range(10):
            phi = random_atomic(rng, ps1, 2)
            w = rng.uniform(0.5, 1.5)
            f = fn.exp_poly_function(ps1, [w], [[1.0, rng.uniform(0, 0.5)]])
            target = fn.pair_function(f, phi, "measure")
            devs = []
            for m in range(4):
                eta = 0.3 * 2.0 ** -m
                eps = eta  # dual bisector of a symmetric sector is real
                val = sum(wt * complex(f(np.asarray([[e[0] + eta]]))[0])
                          * np.exp(-eps * (e[0]))
                          for e, wt in phi.atoms)
                devs.append(abs(val - target))
            assert devs[-1] <= devs[0]
            assert devs[-1] <= 0.2 * abs(target) + 1e-9

    def test_dilation_limit(self, ps1):
        # pairing against shrinking probability densities converges to f
        f = fn.exp_poly_function(ps1, [1.0])
        grid = np.linspace(0.1, 2.0, 9)[:, None].astype(complex)
        sups = []
        for r in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
            nu_r = fn.bisector_density(ps1, s=[r], weight=r)
            vals = []
            for lam in grid[:, 0]:
                f_lam = fn.SectorFunction(lambda pts, lam=lam: f(pts + lam))
                vals.append(fn.pair_function(f_lam, nu_r, "measure", tol=1e-10))
            sups.append(np.max(np.abs(np.asarray(vals) - f(grid))))
        assert all(b < a for a, b in zip(sups[:-1], sups[1:]))
        assert sups[-1] < 2e-2

    def test_two_axis_density_routes(self, rng, ps2):
        phi = _integrable(ps2)
        f = fn.exp_poly_function(ps2, [1.0, 1.2], [[0.2, 1.0], [1.0]])
        oracle = fn.pair_function(f, phi, "measure", tol=1e-11)
        assert abs(fn.pair_function(f, phi, "fb_eps", tol=1e-10) - oracle) <= 1e-8
        assert abs(fn.pair_function(f, phi, "wn_limit", tol=1e-9) - oracle) <= 1e-5

    def test_anchor_independence(self, ps1):
        phi = fn.bisector_density(ps1, s=[2.0], coeffs=[[0.0, 1.0]])
        f = fn.exp_poly_function(ps1, [1.0], [[0.0, 1.0]])
        v0 = fn.pair_function(f, phi, "fb_eps", tol=1e-11, z=np.array([0.0 + 0j]))
        v1 = fn.pair_function(f, phi, "fb_eps", tol=1e-11, z=np.array([-0.8 + 0j]))
        assert abs(v0 - v1) <= 1e-10 * max(abs(v0), 1e-6)


@pytest.mark.usefixtures("audited_refine")
class TestPairSemigroup:
    def test_axis_atom_reproduces_the_semigroup(self, ps2):
        tup = sg.CommutingTuple([np.array([[-2.0]]), np.array([[-1.5]])], [DOM] * 2)
        nu = 0.7
        phi = fn.dirac(ps2, [nu, 0.0])
        got = fn.pair_semigroup(tup, [1.0, 1.0], phi, "measure")
        assert np.allclose(got, sg.expm(nu * tup.matrices[0]), atol=1e-12)

    @pytest.mark.parametrize("route", ["resolvent_contour", "eps_shift"])
    def test_contour_anchored_beyond_the_least_tail_radius(self, ps1, route):
        # a fast-decaying orbit pushes the anchor out to |z| = 19, past
        # TAIL_RADIUS; the contour's tail radius must clear it
        tup = sg.CommutingTuple([np.array([[-20.0]])], [DOM])
        phi = fn.dirac(ps1, [0.5])
        ref = fn.pair_semigroup(tup, [1.0], phi, "measure")
        got = fn.pair_semigroup(tup, [1.0], phi, route)  # absolute tolerance 1e-9
        assert sg.opnorm(got - ref) <= 1e-11

    def test_bisector_density_gives_resolvent_product(self, ps2):
        tup = sg.CommutingTuple([np.diag([-1.0, -2.0]), np.diag([-3.0, -0.5])],
                                [DOM] * 2)
        phi = fn.bisector_density(ps2, s=[1.5, 2.0])
        got = fn.pair_semigroup(tup, [1.0, 1.0], phi, "measure", tol=1e-10)
        oracle = np.linalg.inv(1.5 * np.eye(2) - tup.matrices[0]) \
            @ np.linalg.inv(2.0 * np.eye(2) - tup.matrices[1])
        assert sg.opnorm(got - oracle) <= 1e-8

    def test_two_densities_on_distinct_rays_match_closed_form(self, rng, ps1):
        # one orbit batch sees two directions lam*e^{i omega_i}
        a = sg.random_sectorial_matrix(rng, 3)
        tup = sg.CommutingTuple([a], [DOM])
        lam = 0.9
        dens = [(0.7 - 0.2j, -0.5, 1.3), (-0.4 + 0.1j, 0.3, 2.1)]  # (w, omega, s)
        phi = fn.Functional(ps1, densities=[
            fn.TensorDensity(w, (0.0,), (fn.AxisDensity(om, s, (1.0,)),))
            for w, om, s in dens])
        got = fn.pair_semigroup(tup, [lam], phi, "measure", tol=1e-11)
        oracle = sum(w * np.linalg.inv(s * np.eye(3) - lam * np.exp(1j * om) * a)
                     for w, om, s in dens)
        assert sg.opnorm(got - oracle) <= 1e-9 * sg.opnorm(oracle)

    def test_contour_routes_agree(self, rng, ps1):
        a = sg.random_sectorial_matrix(rng, 3)
        tup = sg.CommutingTuple([a], [DOM])
        phi = random_atomic(rng, ps1, 2)
        ref = fn.pair_semigroup(tup, [1.0], phi, "measure", tol=1e-11)
        rc = fn.pair_semigroup(tup, [1.0], phi, "resolvent_contour", tol=1e-10)
        es = fn.pair_semigroup(tup, [1.0], phi, "eps_shift", tol=1e-9)
        rg = fn.pair_semigroup(tup, [1.0], phi, "regularized", tol=1e-8)
        assert sg.opnorm(rc - ref) <= 1e-8
        assert sg.opnorm(es - ref) <= 1e-7
        assert sg.opnorm(rg - ref) <= 1e-5

    def test_character_law_on_eigenvectors(self, rng, ps2):
        tup = sg.random_commuting_tuple(rng, 2, 3, sector=DOM)
        phi = random_atomic(rng, ps2, 2)
        got = fn.pair_semigroup(tup, [1.0, 1.0], phi, "measure")
        from sectorcalc.calculus import joint_eigensystem

        mus, v, vinv = joint_eigensystem(tup)
        for i in range(3):
            arg = np.array([-mus[0][i], -mus[1][i]])
            expect = phi.fb(arg)
            vec = v[:, i]
            assert np.linalg.norm(got @ vec - expect * vec) \
                <= 1e-9 * np.linalg.norm(vec)

    # the regularized route's double limit reaches only 6.8e-7 here, on the
    # dense grid as on the separable one, so it keeps the 1e-5 bound it has
    # on one axis (test_contour_routes_agree)
    @pytest.mark.parametrize("route, bound", [("resolvent_contour", 1e-7), ("eps_shift", 1e-7),
                                              ("regularized", 1e-5)],
                             ids=["resolvent_contour", "eps_shift", "regularized"])
    def test_contour_route_on_two_axes(self, rng, ps2, route, bound):
        # tensor resolvent engine through the pairing path
        tup = sg.random_commuting_tuple(rng, 2, 2, sector=DOM)
        phi = fn.dirac(ps2, [0.6, 0.4], 1.2)
        ref = fn.pair_semigroup(tup, [1.0, 1.0], phi, "measure")
        got = fn.pair_semigroup(tup, [1.0, 1.0], phi, route, tol=1e-9)
        assert sg.opnorm(got - ref) <= bound

    def test_pairing_multiplicative_under_convolution(self, rng, ps1):
        tup = sg.CommutingTuple([sg.random_sectorial_matrix(rng, 3)], [DOM])
        p1 = random_atomic(rng, ps1, 2)
        p2 = random_atomic(rng, ps1, 2)
        lhs = fn.pair_semigroup(tup, [1.0], fn.convolve(p1, p2), "measure")
        rhs = fn.pair_semigroup(tup, [1.0], p1, "measure") \
            @ fn.pair_semigroup(tup, [1.0], p2, "measure")
        assert sg.opnorm(lhs - rhs) <= 1e-8 * max(sg.opnorm(rhs), 1.0)

    def test_shifted_argument_limit(self, ps1):
        # evaluating the transform at the eps-shifted tuple converges to
        # the pairing as eps -> 0 (extrapolated along the fixed schedule)
        tup = sg.CommutingTuple([np.array([[-2.0, 1.0], [0.0, -1.0]])], [DOM])
        phi = fn.dirac(ps1, [0.6], 1.0)
        ref = fn.pair_semigroup(tup, [1.0], phi, "measure")
        vals = [phi.fb_at_tuple(tup, [1.0], [eps]) for eps in (0.5 * 2.0 ** -m
                                                               for m in range(6))]
        from sectorcalc.quadrature import richardson

        limit, residual = richardson(vals)
        assert sg.opnorm(np.asarray(limit) - ref) <= 1e-8
        assert residual <= 1e-6

    def test_joint_weight_translation_limit_for_orbits(self, rng, ps1):
        # weighted translated pairings converge to the plain orbit pairing
        tup = sg.CommutingTuple([sg.random_sectorial_matrix(rng, 3)], [DOM])
        phi = random_atomic(rng, ps1, 2)
        target = fn.pair_semigroup(tup, [1.0], phi, "measure")
        devs = []
        for m in range(5):
            eta = 0.4 * 2.0 ** -m
            eps = eta  # dual bisector of the symmetric sector is real
            val = sum(w * np.exp(-eps * (e[0] + eta))
                      * sg.expm((e[0] + eta) * tup.matrices[0])
                      for e, w in phi.atoms)
            devs.append(sg.opnorm(val - target))
        assert all(b < a for a, b in zip(devs[:-1], devs[1:]))
        assert devs[-1] <= 0.1 * sg.opnorm(target)

    def test_no_anchor_raises(self, ps1):
        tup = sg.CommutingTuple([np.array([[2.0]])], [DOM])  # growing orbit
        phi = fn.bisector_density(ps1, s=[0.5])
        with pytest.raises(fn.NoAdmissibleAnchor):
            fn.pair_semigroup(tup, [1.0], phi, "measure")


class TestMeasureRouteCalls:
    # counts without the refinement audit, whose extra round would add one
    # expm call
    @pytest.mark.parametrize("k", [1, 2])
    def test_measure_route_makes_one_ray_and_two_expm_calls(self, rng, monkeypatch, k):
        # every atom point and density offset in one expm call, every
        # axis's densities in one ray integral (one more call per round)
        tup = sg.random_commuting_tuple(rng, k, 3, sector=DOM)
        phi = _mixed(rng, ProductSector([SECT] * k))
        expm_calls, rays = [], []
        real_expm, real_ray = sg.expm, sg.ray_integral

        def spy_expm(a, z=1.0):
            expm_calls.append(np.shape(z))
            return real_expm(a, z)

        def spy_ray(*args, **kwargs):
            rays.append(real_ray(*args, **kwargs))
            return rays[-1]

        monkeypatch.setattr(sg, "expm", spy_expm)
        monkeypatch.setattr(fn, "expm", spy_expm)
        monkeypatch.setattr(sg, "ray_integral", spy_ray)
        got = fn.pair_semigroup(tup, [1.0] * k, phi, "measure", tol=1e-9)
        assert len(rays) == 1 and rays[0].rounds == 1
        assert len(expm_calls) == 2 and expm_calls[0] == (3, k)  # two atoms, one offset
        from sectorcalc.calculus import joint_eigensystem

        mus, v, _ = joint_eigensystem(tup)
        for i in range(3):
            expect = phi.fb(np.array([-mu[i] for mu in mus]))
            assert np.linalg.norm(got @ v[:, i] - expect * v[:, i]) \
                <= 1e-8 * np.linalg.norm(v[:, i])

    def test_atom_outside_the_closed_domain_raises(self, ps1):
        # the atom on the sector's edge and arg(lam) inside the window's
        # 1e-9 slack put lam * eta just past the domain's edge
        tup = sg.CommutingTuple([np.array([[-1.0]])], [DOM])
        phi = fn.dirac(ps1, [np.exp(1j * SECT[1])])
        lam = np.exp(1j * (DOM[1] - SECT[1] + 5e-10))
        with pytest.raises(sg.SectorDomainError, match="axis 0"):
            fn.pair_semigroup(tup, [lam], phi, "measure")


class TestOrbitTransform:
    def test_scalar_value(self):
        tup = sg.CommutingTuple([np.array([[-1.0]])], [SECT])
        u = np.array([1.0])
        b = fn.fb_of_orbit(tup, [1.0], [0.0], [1.0], u)
        assert abs(b[0] - 0.5) <= 1e-10

    def test_zero_vector(self):
        tup = sg.CommutingTuple([np.array([[-1.0]])], [SECT])
        out = fn.fb_of_orbit(tup, [1.0], [0.0], [1.0], np.zeros(1))
        assert np.allclose(out, 0.0)

    def test_separable_diagonal(self, rng):
        tup = sg.CommutingTuple([np.diag([-1.0, -2.0]), np.diag([-3.0, -4.0])],
                                [SECT] * 2)
        u = rng.standard_normal(2) + 0j
        b = fn.fb_of_orbit(tup, [1, 1], [0, 0], [1.0, 1.0], u)
        # oracle: product of per-axis scalars on each diagonal entry
        expect = u * np.array([1.0 / (1 + 1) / (1 + 3), 1.0 / (1 + 2) / (1 + 4)])
        assert np.linalg.norm(b - expect) <= 1e-9

    def test_makes_one_ray_integral(self, rng, monkeypatch):
        # both axes' orbit integrals share one ray integral
        tup = sg.random_commuting_tuple(rng, 2, 3, sector=DOM)
        rays, real_ray = [], sg.ray_integral

        def spy_ray(*args, **kwargs):
            rays.append(real_ray(*args, **kwargs))
            return rays[-1]

        monkeypatch.setattr(sg, "ray_integral", spy_ray)
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        args = (tup, [1.0, 0.5j], [0.0, 0.0], [1.5, 2.0 - 0.5j], u)
        b = fn.fb_of_orbit(*args)
        assert len(rays) == 1
        # oracle: (-1)^k prod_j ((z_j - zeta_j) I + lam_j A_j)^{-1} u
        a = sg.resolvent_product(tup, [1.0, 0.5j], [-1.5, -2.0 + 0.5j]) @ u
        assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(a)

    def test_resolvent_product_refuses_a_singular_factor(self, rng):
        # zeta_1 = z_1 + lam_1 mu makes ((z_1 - zeta_1) I + lam_1 A_1) singular
        tup = sg.random_commuting_tuple(rng, 2, 3, sector=DOM)
        lam, z = [1.0, 0.5j], [0.0, 0.2]
        zeta = [1.5, z[1] + lam[1] * tup.eigenvalues(1)[0]]
        with pytest.raises(sg.SingularFactorError) as info:
            sg.resolvent_product(tup, lam, np.subtract(z, zeta))
        assert info.value.axis == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_the_resolvent_product_at_random_points(self, rng, k):
        # the paper's identity behind the report's orbit-transform row, off
        # the row's z = 0, zeta = 1 and lam = 1
        for _ in range(3):
            tup = sg.random_commuting_tuple(rng, k, 3, sector=DOM)
            lam = np.exp(1j * rng.uniform(-0.3, 0.3, k))
            z = 0.2 * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
            zeta = z + rng.uniform(0.5, 2.0, k) + 1j * rng.uniform(-0.5, 0.5, k)
            u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            got = fn.fb_of_orbit(tup, lam, z, zeta, u)
            expect = (-1) ** k * sg.resolvent_product(tup, lam, z - zeta) @ u
            assert np.linalg.norm(got - expect) <= 1e-9 * np.linalg.norm(expect)

    def test_invalid_anchor_raises(self):
        tup = sg.CommutingTuple([np.array([[1.0]])], [SECT])  # growing orbit
        with pytest.raises(sg.DivergenceError):
            fn.fb_of_orbit(tup, [1.0], [0.0], [0.5], np.ones(1))


class TestDomainInfo:
    def test_domain_absorbs_dual_offsets(self, rng, ps1):
        phi = fn.bisector_density(ps1, s=[0.7], coeffs=[[1.0, 0.2]])
        assert phi.domain_contains(np.zeros(1))
        for _ in range(100):
            off = rng.uniform(0, 3) * np.exp(1j * rng.uniform(-np.pi / 4, np.pi / 4))
            assert phi.domain_contains(np.array([off]))

    def test_anchors_lie_in_the_domain(self, rng, ps2):
        # anchor_for stays inside the transform domain and the set where
        # the weighted orbit vanishes
        tup = sg.random_commuting_tuple(rng, 2, 3, sector=DOM)
        phi = fn.bisector_density(ps2, s=[0.3, 0.7], coeffs=[[1.0, 0.2], [1.0]])
        lam = sg._validate_lambda(tup, [1.0, 1.0], ps2)
        for strict in (False, True):
            z = fn.anchor_for(tup, lam, ps2, phi, strict=strict)
            assert phi.domain_contains(z)
            assert sg._n_set_class(tup, lam, ps2, z) == sg.IN_N0

    def test_atomic_domain_is_everything(self, ps1):
        phi = fn.dirac(ps1, [1.0])
        assert phi.domain_contains(np.array([-50.0 + 30.0j]))

    def test_checked_transform_rejects_outside_points(self, ps1):
        phi = fn.bisector_density(ps1, s=[0.5])
        assert not phi.domain_contains(np.array([-1.0 + 0j]))
        # the transform continues the closed form past the domain
        assert np.isfinite(phi.fb(np.array([-1.0 + 0j])))


# every pairing route whose integrand the library builds from separable parts
SEPARABLE_ROUTES = [("semigroup", r) for r in ("resolvent_contour", "eps_shift", "regularized")] \
    + [("function", r) for r in ("measure", "fb_direct", "fb_eps", "wn_limit")]


def _pairing(k, kind, route):
    """A call of ``pair_semigroup`` (two atoms, a 2x2 tuple) or of
    ``pair_function`` (an exp-poly function) by ``route`` on k axes."""
    ps = ProductSector([SECT] * k)
    rng = np.random.default_rng(k)
    if kind == "semigroup":
        tup, phi = sg.random_commuting_tuple(rng, k, 2, sector=DOM), random_atomic(rng, ps, 2)
        return lambda: fn.pair_semigroup(tup, [1.0] * k, phi, route, tol=1e-7)
    f = fn.exp_poly_function(ps, [1.0, 1.2][:k], [[0.2, 1.0], [1.0]][:k])
    return lambda: fn.pair_function(f, _integrable(ps), route, tol=1e-7)


def _without_terms(call):
    """``call()`` with the terms of every integrand stripped before the
    tensor contraction, which then walks the dense grid."""
    contract = q._contract

    def dense(f, *args):
        return contract(lambda pts: f(pts), *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(q, "_contract", dense)
        mp.setattr(fn, "_contract", dense)
        return call()


class TestSeparablePairings:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("kind, route", SEPARABLE_ROUTES)
    def test_pairing_integrands_never_take_the_dense_grid(self, monkeypatch, k, kind, route):
        call = _pairing(k, kind, route)

        def refuse(*_):
            raise AssertionError("a pairing integrand reached the dense tensor grid")

        monkeypatch.setattr(q, "_call_integrand", refuse)
        assert np.all(np.isfinite(call()))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("kind, route", SEPARABLE_ROUTES)
    def test_factorized_sums_agree_with_the_dense_grid(self, k, kind, route):
        call = _pairing(k, kind, route)
        sep, dense = call(), _without_terms(call)
        assert np.linalg.norm(sep - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_zero_functional_pairs_to_the_zero_matrix(self, rng, ps2):
        tup = sg.random_commuting_tuple(rng, 2, 2, sector=DOM)
        got = fn.pair_semigroup(tup, [1.0, 1.0], fn.Functional(ps2), "resolvent_contour")
        assert got.shape == (2, 2) and not got.any()


# the shifts of every limit route, written out: 0.5 or 0.25 halved six times
HALF_SHIFTS = (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125)
QUARTER_SHIFTS = (0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625)
WN_ORDERS = (8, 16, 32, 64, 128)
ROT = 0.3  # the sectors' bisector angle, so the dual bisector is exp(-0.3j)

# route -> (unit bisector of its shifts, [(shift length, n), ...] in call order)
SCHEDULES = {
    "fb_direct": (1.0, [(0.0, 0)]),
    "fb_eps": (np.exp(-ROT * 1j), [(s, 0) for s in HALF_SHIFTS]),
    "wn_limit": (np.exp(-ROT * 1j), [(s, n) for s in HALF_SHIFTS for n in WN_ORDERS]),
    "cauchy": (np.exp(ROT * 1j), [(s, 0) for s in QUARTER_SHIFTS]),
    "resolvent_contour": (1.0, [(0.0, 0)]),
    "eps_shift": (np.exp(-ROT * 1j), [(s, 0) for s in QUARTER_SHIFTS]),
    "regularized": (np.exp(-ROT * 1j), [(s, n) for s in QUARTER_SHIFTS[:5] for n in WN_ORDERS]),
}


def _spy(monkeypatch, name, record):
    """Run ``record`` on the arguments of every call of ``fn.<name>``."""
    real = getattr(fn, name)

    def spied(*args, **kwargs):
        record(*args, **kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(fn, name, spied)


def _evaluations(monkeypatch, route):
    """Run ``route`` on two rotated axes, recording each contour evaluation
    as ``[shift, n]``: the shift reaches ``_reflected`` (before ``_wn``),
    ``pair_translated_cauchy``'s ``eta`` or, in the first refinement round,
    ``resolvent_contour_value``'s ``node_offsets`` (after ``_wn``); n is 0
    when ``_wn`` is not called."""
    ps = ProductSector([(SECT[0] + ROT, SECT[1] + ROT)] * 2)
    rng = np.random.default_rng(2)
    tup, phi = sg.random_commuting_tuple(rng, 2, 2, sector=DOM), random_atomic(rng, ps, 2)
    f = fn.exp_poly_function(ps, [1.0, 1.2], [[0.2, 1.0], [1.0]])
    seen = []
    if route in ("resolvent_contour", "eps_shift", "regularized"):
        def offsets(fns, schurs, lam, cq, node_offsets):
            if cq.n_per_unit == q._N0 and seen and seen[-1][0] is None:
                seen[-1][0] = node_offsets
            elif cq.n_per_unit == q._N0:
                seen.append([node_offsets, 0])

        _spy(monkeypatch, "_wn", lambda sectors, n, z: seen.append([None, n]))
        _spy(monkeypatch, "resolvent_contour_value", offsets)
        fn.pair_semigroup(tup, [1.0, 1.0], phi, route, tol=1e-7)
    else:
        _spy(monkeypatch, "_reflected", lambda fun, eps: seen.append([eps, 0]))
        _spy(monkeypatch, "_wn", lambda sectors, n, z: seen[-1].__setitem__(1, n))
        _spy(monkeypatch, "pair_translated_cauchy",
             lambda f, phi, eta, z=None, tol=None: seen.append([eta, 0]))
        fn.pair_function(f, phi if route == "cauchy" else _integrable(ps), route, tol=1e-7)
    return seen


class TestLimitSchedules:
    @pytest.mark.parametrize("route", list(SCHEDULES))
    def test_each_route_evaluates_its_schedule(self, monkeypatch, route):
        direction, schedule = SCHEDULES[route]
        seen = _evaluations(monkeypatch, route)
        assert [n for _, n in seen] == [n for _, n in schedule]
        for (shift, _), (length, _) in zip(seen, schedule):
            assert np.abs(np.asarray(shift) - length * direction).max() <= 1e-15

    def test_the_table_names_every_limit_route(self):
        assert set(fn._LIMITS) == set(SCHEDULES)

    def test_a_double_limit_that_is_not_cauchy_is_refused(self):
        # two atoms on a 2x2 pair at k = 2 (the k = 2 inputs of _pairing): the
        # regularized extrapolant's residual is 8.616e-07, above 1e4 * 1e-11
        ps = ProductSector([SECT] * 2)
        rng = np.random.default_rng(2)
        tup, phi = sg.random_commuting_tuple(rng, 2, 2, sector=DOM), random_atomic(rng, ps, 2)
        with pytest.raises(fn.RouteError,
                           match=r"route regularized: .*not Cauchy \(residual 8\.616e-07\)"):
            fn.pair_semigroup(tup, [1, 1], phi, "regularized", tol=1e-11)
