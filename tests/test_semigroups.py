import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorcalc import semigroups as sg
from sectorcalc.geometry import ProductSector
from sectorcalc.quadrature import ray_integral

PI = np.pi
DOM = (-PI / 2 + 0.05, PI / 2 - 0.05)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def eig_expm(a):
    """Eigendecomposition oracle for the matrix exponential."""
    vals, vecs = np.linalg.eig(a)
    return vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)


class TestExpm:
    def test_nilpotent_closed_form(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        t = 0.37
        assert np.allclose(sg.expm(t * a), np.eye(2) + t * a, atol=1e-15)

    def test_diagonal(self):
        a = np.diag([-1.0, -2.0])
        assert np.allclose(np.diag(sg.expm(a)), np.exp([-1.0, -2.0]), atol=1e-14)

    def test_against_eigendecomposition(self, rng):
        for _ in range(20):
            a = sg.random_sectorial_matrix(rng, int(rng.integers(2, 7)),
                                           re_range=(-2.0, 1.0))
            ref = eig_expm(a)
            assert sg.opnorm(sg.expm(a) - ref) <= 1e-10 * max(sg.opnorm(ref), 1.0)

    def test_scaling_branch(self, rng):
        a = 40.0 * sg.random_sectorial_matrix(rng, 4, re_range=(-1.0, -0.2))
        ref = eig_expm(a)
        assert sg.opnorm(sg.expm(a) - ref) <= 1e-8 * max(sg.opnorm(ref), 1.0)


    def test_stack_matches_single_matrices(self, rng):
        import scipy.linalg

        # t = 0, no squaring (t <= 0.3), and 1 to 4 squarings, interleaved
        a = sg.random_sectorial_matrix(rng, 3, re_range=(-1.0, -0.2), basis_spread=0.1)
        ts = np.array([8.0, 0.0, 20.0, 0.05, 2.0, 0.3])
        stack = sg.expm(ts[:, None, None] * a)
        assert stack.shape == (len(ts), 3, 3)
        for t, e in zip(ts, stack):
            assert np.array_equal(e, sg.expm(t * a))
            ref = scipy.linalg.expm(t * a)
            assert np.linalg.norm(e - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_single_matrix_shape(self):
        assert sg.expm(np.zeros((4, 4))).shape == (4, 4)
        assert sg.expm(np.zeros((0, 2, 2))).shape == (0, 2, 2)

    def test_zero_scalar_and_zero_matrix_give_the_identity(self, rng):
        a = sg.random_sectorial_matrix(rng, 3)
        assert np.array_equal(sg.expm(a, 0.0), np.eye(3))
        assert np.array_equal(sg.expm(np.zeros((3, 3)), [2.0, 1j]), [np.eye(3)] * 2)
        assert np.array_equal(sg.expm(np.stack([a, a]), [[0.0, 1.0]])[0, 0], np.eye(3))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(0, 6),
           sizes=st.lists(st.sampled_from([0.0]) | st.floats(0.0, 200.0), min_size=1,
                          max_size=6),
           angle=st.floats(-1.5, 1.5))
    def test_scalar_multiples_match_scipy(self, seed, dim, sizes, angle):
        import scipy.linalg

        # dim 0 stands for the nilpotent Jordan block N, Exp(zN) = I + zN
        a = np.array([[0.0, 1.0], [0.0, 0.0]]) if dim == 0 else \
            sg.random_sectorial_matrix(np.random.default_rng(seed), dim)
        norm1 = np.linalg.norm(a, 1)
        zs = np.array(sizes) / norm1 * np.exp(1j * angle)
        stack = sg.expm(a, zs)
        assert stack.shape == zs.shape + a.shape
        for size, z, e in zip(sizes, zs, stack):
            assert np.array_equal(e, sg.expm(a, z))  # no bit depends on the batch
            ref = np.eye(2) + z * a if dim == 0 else scipy.linalg.expm(z * a)
            bound = 1e-10 if size <= sg._THETA13 else 1e-8
            assert sg.opnorm(e - ref) <= bound * max(sg.opnorm(ref), 1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
    def test_non_finite_input_raises(self, bad):
        a = np.array([[-1.0, 0.5], [0.0, -2.0]])
        with pytest.raises(ValueError, match="finite"):
            sg.expm(a, [0.5, bad])
        with pytest.raises(ValueError, match="finite"):
            sg.expm(np.where(np.eye(2) > 0, bad, a))
        with pytest.raises(ValueError, match="finite"):
            sg.expm(np.where(np.eye(2) > 0, bad, a), 0.0)


class TestCommutingTuple:
    def test_noncommuting_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(sg.CommutationError):
            sg.CommutingTuple([a, b], [DOM, DOM])

    def test_spectra_are_computed_once_and_read_only(self, rng):
        tup = sg.random_commuting_tuple(rng, 2, 3)
        for j, a in enumerate(tup.matrices):
            mu = tup.eigenvalues(j)
            assert np.array_equal(mu, np.linalg.eigvals(a))
            assert tup.eigenvalues(j) is mu
            with pytest.raises(ValueError):
                mu[0] = 0.0
            # so is the Schur form the calculus solves its resolvents against
            q, t = tup.schur(j)
            assert tup.schur(j) is tup.schur(j) and np.all(np.tril(t, -1) == 0)
            assert np.linalg.norm(q @ t @ q.conj().T - a) <= 1e-13 * np.linalg.norm(a)
            for arr in (q, t):
                with pytest.raises(ValueError):
                    arr[0, 0] = 0.0

    def test_json_round_trip(self, rng):
        tup = sg.random_commuting_tuple(rng, 2, 3)
        tup2 = sg.CommutingTuple.from_json(tup.to_json())
        for a, b in zip(tup.matrices, tup2.matrices):
            assert np.allclose(a, b)
        assert tup2.sectors.alpha == pytest.approx(tup.sectors.alpha)


class TestEvaluate:
    def test_nilpotent_orbit(self):
        t = 1.7
        assert np.allclose(sg.expm(np.array([[0.0, 1.0], [0.0, 0.0]]), t), [[1.0, t], [0.0, 1.0]])

    def test_zero_gives_identity(self):
        assert np.allclose(sg.expm(np.diag([-1.0, -2.0]), 0.0), np.eye(2))

    def test_outside_sector_rejected(self):
        tup = sg.CommutingTuple([np.diag([-1.0, -2.0])], [(0.0, 0.0)])
        with pytest.raises(sg.SectorDomainError):
            sg.check_in_domain(tup, 0, 1j)

    def test_semigroup_law(self, rng):
        a = sg.random_sectorial_matrix(rng, 4)
        lhs = sg.expm(a, 1.0) @ sg.expm(a, 2.0)
        assert sg.opnorm(lhs - sg.expm(a, 3.0)) <= 1e-12

    def test_eigenvalue_character_law(self, rng):
        # eigenpairs evolve by scalar exponentials
        a = sg.random_sectorial_matrix(rng, 4)
        vals, vecs = np.linalg.eig(a)
        for t in (0.5, 1.0, 2.0):
            tt = sg.expm(a, t)
            for i in range(4):
                v = vecs[:, i]
                err = np.linalg.norm(tt @ v - np.exp(t * vals[i]) * v)
                assert err <= 1e-10 * np.linalg.norm(v)


class TestResolvents:
    def test_scalar_example(self):
        tup = sg.CommutingTuple([np.array([[-2.0]])], [DOM])
        assert sg.resolvent_product(tup, [1.0], [1.0])[0, 0] == pytest.approx(-1.0)

    def test_diagonal_product(self):
        tup = sg.CommutingTuple([np.diag([-1.0, -2.0]), np.diag([-3.0, -4.0])],
                                [DOM, DOM])
        out = sg.resolvent_product(tup, [1.0, 1.0], [0.0, 0.0])
        assert np.allclose(np.diag(out), [1.0 / 3.0, 1.0 / 8.0])

    def test_eigenvalue_collision_reports_axis(self):
        tup = sg.CommutingTuple([np.diag([-1.0, -2.0])], [DOM])
        with pytest.raises(sg.SingularFactorError) as exc:
            sg.resolvent_product(tup, [1.0], [1.0])
        assert exc.value.axis == 0

    def test_resolvent_identity(self, rng):
        a = sg.random_sectorial_matrix(rng, 4)
        tup = sg.CommutingTuple([a], [DOM])
        z1, z2 = 1.0 + 0.3j, 2.5 - 0.4j
        r1 = sg.resolvent_product(tup, [1.0], [z1])
        r2 = sg.resolvent_product(tup, [1.0], [z2])
        assert sg.opnorm(r1 - r2 - (z2 - z1) * r1 @ r2) <= 1e-10

    def test_laplace_matches_direct_solve(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            a = sg.random_sectorial_matrix(rng, dim)
            tup = sg.CommutingTuple([a], [DOM])
            lam = 1.0 + 0.4 * rng.standard_normal() + 0.3j * rng.standard_normal()
            direct = np.linalg.inv(lam * np.eye(dim) - a)
            viaq = sg.resolvent_via_laplace(tup, 0, lam, 1.0, tol=1e-9)
            assert sg.opnorm(viaq - direct) <= 1e-6 * sg.opnorm(direct)

    def test_laplace_resolvent_takes_one_round(self, rng, monkeypatch):
        # the first round's estimate meets the tolerance: one expm call
        calls, expm = [], sg.expm
        monkeypatch.setattr(sg, "expm", lambda a, z: calls.append(1) or expm(a, z))
        a = sg.random_sectorial_matrix(rng, 3)
        got = sg.resolvent_via_laplace(sg.CommutingTuple([a], [DOM]), 0, 1.5, tol=1e-9)
        assert len(calls) == 1
        assert sg.opnorm(got - np.linalg.inv(1.5 * np.eye(3) - a)) <= 1e-9

    def test_laplace_rotated_ray(self):
        tup = sg.CommutingTuple([np.diag([-1.0, -2.0])], [DOM])
        direct = np.linalg.inv(-np.diag([-1.0, -2.0]))
        viaq = sg.resolvent_via_laplace(tup, 0, 0.0, np.exp(1j * PI / 8), tol=1e-10)
        assert sg.opnorm(viaq - direct) <= 1e-8

    def test_divergent_parameters_rejected(self):
        tup = sg.CommutingTuple([np.array([[-1.0]])], [DOM])
        with pytest.raises(sg.DivergenceError):
            sg.resolvent_via_laplace(tup, 0, -1.0)


class TestOrbitIntegrals:
    def test_closed_form_laplace_transforms(self, rng):
        # int exp(-s t) Exp(t u A) dt = (s I - u A)^{-1}
        a = sg.random_sectorial_matrix(rng, 3)
        tup = sg.CommutingTuple([a], [DOM])
        dirs = [1.0, np.exp(0.4j), 1.0]
        rates = [1.5, 2.0, 0.8]
        weights = [lambda ts, s=s: np.exp(-s * ts) for s in rates]
        got = sg.orbit_integrals(tup, 0, dirs, weights, 0.5, tol=1e-11)
        assert got.shape == (3, 3, 3)
        for m, u, s in zip(got, dirs, rates):
            oracle = np.linalg.inv(s * np.eye(3) - u * a)
            assert sg.opnorm(m - oracle) <= 1e-9 * sg.opnorm(oracle)

    def test_two_weights_equal_two_single_calls(self, rng):
        a = sg.random_sectorial_matrix(rng, 4)
        tup = sg.CommutingTuple([a], [DOM])
        dirs = [1.0, np.exp(-0.3j)]
        weights = [lambda ts: np.exp(-1.5 * ts), lambda ts: ts * np.exp(-2.0 * ts)]
        both = sg.orbit_integrals(tup, 0, dirs, weights, 1.0, tol=1e-10)
        for i in range(2):
            one = sg.orbit_integrals(tup, 0, dirs[i:i + 1], weights[i:i + 1], 1.0,
                                     tol=1e-10)[0]
            assert sg.opnorm(both[i] - one) <= 1e-14 * sg.opnorm(one)

    def test_one_expm_call_per_round_for_all_directions(self, rng, monkeypatch):
        tup = sg.CommutingTuple([sg.random_sectorial_matrix(rng, 2)], [DOM])
        shapes = []
        real_expm = sg.expm

        def spy(a, z):
            shapes.append(np.shape(z))
            return real_expm(a, z)

        monkeypatch.setattr(sg, "expm", spy)
        weights = [lambda ts, s=s: np.exp(-s * ts) for s in (1.0, 2.0, 3.0)]
        sg.orbit_integrals(tup, 0, [1.0, 1j ** 0.2, 1.0], weights, 0.5, tol=1e-9)
        # every round's nodes times both distinct directions
        assert shapes and all(len(sh) == 2 and sh[1] == 2 for sh in shapes)

    def test_one_direction_per_weight(self):
        tup = sg.CommutingTuple([np.array([[-1.0]])], [DOM])
        with pytest.raises(ValueError):
            sg.orbit_integrals(tup, 0, [1.0], [lambda ts: np.exp(-ts)] * 2, 1.0)

    @pytest.mark.parametrize("rate", [1e-9, 0.0, -0.5])
    def test_nonpositive_margin_names_the_axis(self, rate):
        tup = sg.CommutingTuple([np.array([[-1.0]]), np.array([[-2.0]])], [DOM] * 2)
        with pytest.raises(sg.DivergenceError, match="axis 1"):
            sg.orbit_integrals(tup, 1, [1.0], [lambda ts: np.exp(-ts)], rate)


class TestGeneratorRecovery:
    def test_nilpotent_weighted_integrals(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        tup = sg.CommutingTuple([a], [DOM])
        got = sg.generator_from_weighted_integrals(tup, 0, 1.0, tol=1e-12)
        assert sg.opnorm(got - a) <= 1e-10

    def test_nilpotent_integral_values(self):
        # the two weighted orbit integrals in closed form
        a = np.array([[0.0, 1.0], [0.0, 0.0]])

        def orbit(ts):
            return np.asarray([np.eye(2) + t * a for t in ts])

        b = ray_integral(lambda ts: np.asarray([t * np.exp(-t) for t in ts])[:, None, None]
                         * orbit(ts), tol=1e-12, rate=0.9).value
        c = ray_integral(lambda ts: np.asarray([(1 - t) * np.exp(-t) for t in ts])[:, None, None]
                         * orbit(ts), tol=1e-12, rate=0.9).value
        assert np.allclose(b, [[1.0, 2.0], [0.0, 1.0]], atol=1e-11)
        assert np.allclose(c, [[0.0, -1.0], [0.0, 0.0]], atol=1e-11)

    def test_random_recovery(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            a = sg.random_sectorial_matrix(rng, dim)
            tup = sg.CommutingTuple([a], [DOM])
            got = sg.generator_from_weighted_integrals(tup, 0, 1.0, tol=1e-9)
            assert sg.opnorm(got - a) <= 1e-6 * max(sg.opnorm(a), 1.0)

    def test_divergent_weight_rejected(self):
        tup = sg.CommutingTuple([np.array([[-3.0]])], [DOM])
        assert sg.opnorm(sg.generator_from_weighted_integrals(tup, 0, 0.0)
                         - tup.matrices[0]) <= 1e-8  # 0 > -3 is fine
        with pytest.raises(sg.DivergenceError):
            sg.generator_from_weighted_integrals(tup, 0, -4.0)

    def test_recovery_does_not_depend_on_the_weight_rate(self, rng):
        m = sg.random_sectorial_matrix(rng, 3)
        tup = sg.CommutingTuple([m], [DOM])
        g1 = sg.generator_from_weighted_integrals(tup, 0, 0.3, tol=1e-12)
        g2 = sg.generator_from_weighted_integrals(tup, 0, 2.0, tol=1e-12)
        assert sg.opnorm(g1 - g2) <= 1e-10 * max(sg.opnorm(m), 1.0)

    def test_ill_conditioned_weighted_integral_rejected(self):
        # B = (lam - A)^{-2} has condition number about (1e8 / 2)^2 > 1e12
        tup = sg.CommutingTuple([np.diag([-1.0, -1e8])], [DOM])
        with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
            sg.generator_from_weighted_integrals(tup, 0, 1.0)

    def test_additivity_for_commuting_product(self, rng):
        # orbit of the product semigroup recovers the sum of generators
        tup = sg.random_commuting_tuple(rng, 2, 3)
        a, b = tup.matrices

        def orbit(ts):
            return np.asarray([sg.expm(t * a) @ sg.expm(t * b) for t in ts])

        lam = 1.0
        bmat = ray_integral(lambda ts: np.asarray([t * np.exp(-lam * t) for t in ts])
                            [:, None, None] * orbit(ts), tol=1e-10,
                            rate=0.5).value
        cmat = ray_integral(lambda ts: np.asarray([(1 - lam * t) * np.exp(-lam * t)
                                                   for t in ts])[:, None, None]
                            * orbit(ts), tol=1e-10,
                            rate=0.5).value
        got = -np.linalg.solve(bmat.T, cmat.T).T
        assert sg.opnorm(got - (a + b)) <= 1e-8 * max(sg.opnorm(a + b), 1.0)

    def test_scaled_orbit_scales_the_generator(self, rng):
        # the orbit t -> T(t*zeta) has generator zeta * A
        m = sg.random_sectorial_matrix(rng, 3)
        zeta = 0.8 * np.exp(1j * PI / 8)
        scaled = sg.CommutingTuple([zeta * m], [DOM])
        got = sg.generator_from_weighted_integrals(scaled, 0, 1.0, tol=1e-12)
        assert sg.opnorm(got - zeta * m) <= 1e-10 * max(sg.opnorm(m), 1.0)


class TestGrowthAndAnchors:
    def test_growth_matches_longtime_norms(self, rng):
        a = sg.random_sectorial_matrix(rng, 4, re_range=(-2.0, -0.5))
        tup = sg.CommutingTuple([a], [DOM])
        for omega in (-PI / 4, 0.0, PI / 4):
            h = tup.abscissa(0, omega)
            est40 = np.log(sg.opnorm(sg.expm(40.0 * np.exp(1j * omega) * a))) / 40.0
            est20 = np.log(sg.opnorm(sg.expm(20.0 * np.exp(1j * omega) * a))) / 20.0
            assert abs(est40 - h) <= 0.2 * (1 + abs(h))
            assert abs(est40 - h) <= abs(est20 - h) + 1e-9

    def test_classification_examples(self):
        tup = sg.CommutingTuple([np.array([[-1.0]])], [(0.0, 0.0)])
        ps = ProductSector([(0.0, 0.0)])
        lam = sg._validate_lambda(tup, [1.0], ps)
        assert sg._n_set_class(tup, lam, ps, np.array([0j])) == sg.IN_N0
        assert sg._n_set_class(tup, lam, ps, np.array([1 + 0j])) == sg.IN_N_ONLY
        assert sg._n_set_class(tup, lam, ps, np.array([2 + 0j])) == sg.OUTSIDE

    def test_incompatible_lambda_rejected(self):
        tup = sg.CommutingTuple([np.array([[-1.0]])], [(0.0, 0.0)])
        ps = ProductSector([(0.0, 0.0)])
        with pytest.raises(sg.SectorDomainError):
            sg._validate_lambda(tup, [-1.0], ps)
        tup2 = sg.CommutingTuple([np.array([[-1.0]])], [DOM])
        ps2 = ProductSector([(-PI / 4, PI / 4)])
        with pytest.raises(sg.SectorDomainError):
            sg._validate_lambda(tup2, [np.exp(2.0j)], ps2)


class TestGaps:
    def test_multiplication_gap_examples(self):
        assert sg.mult_semigroup_gap(1.0, 2.0) == pytest.approx(0.25, abs=1e-9)
        assert sg.mult_semigroup_gap(1.0, 3.0) == pytest.approx(2.0 / (3 * np.sqrt(3.0)),
                                                                abs=1e-9)

    def test_closed_form_agrees_with_brute_force(self):
        for (t, s) in [(0.5, 0.9), (1.0, 2.0), (2.0, 5.0), (0.2, 0.3)]:
            assert sg.mult_semigroup_gap(t, s) == pytest.approx(
                sg.mult_semigroup_gap_closed_form(t, s), abs=1e-9)

    def test_gap_vanishes_as_s_approaches_t(self):
        vals = [sg.mult_semigroup_gap(1.0, 1.0 + d) for d in (0.1, 0.01, 0.001)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.01

    def test_shift_gap_nilpotency_horizon(self):
        assert sg.quasinilpotent_gap(64, 1.5) == 0.0

    def test_shift_gap_lower_bound(self):
        # disjoint-support argument gives at least 1 in the continuum
        val = sg.quasinilpotent_gap(512, 0.1)
        assert val >= 1.0 - 0.05

    def test_shift_gap_exceeds_quarter_on_small_times(self):
        for t in np.arange(0.01, 0.2001, 0.01):
            assert sg.quasinilpotent_gap(512, float(t)) > 0.25

    @pytest.mark.parametrize("n", [64, 100, 512])
    def test_shift_gap_matches_dense_norm(self, n):
        ts = [float(t) for t in np.arange(0.01, 0.2001, 0.01)] + [1 / 511, 0.37, 0.5]
        for t in ts:
            ref = np.linalg.norm(sg.shift_matrix(n, t) - sg.shift_matrix(n, 2 * t), 2)
            assert abs(sg.quasinilpotent_gap(n, t) - ref) <= 1e-12 * ref
        assert sg.quasinilpotent_gap(n, 1.5) == 0.0

    @pytest.mark.parametrize("n", [2, 64, 100, 512])
    def test_shift_matrix_matches_row_loop(self, n):
        def by_rows(t):
            m = np.zeros((n, n))
            for i, x in enumerate(np.linspace(0.0, 1.0, n)):
                y = x - t
                if y < 0:
                    continue
                pos = y * (n - 1)
                j0 = int(np.floor(pos))
                frac = pos - j0
                m[i, j0] += 1.0 - frac
                if j0 + 1 < n and frac > 0:
                    m[i, j0 + 1] += frac
            return m

        for t in [0.0, 0.01, 1 / 511, 0.1, 0.37, 0.5, 0.999, 1.0, 1.5]:
            assert np.array_equal(sg.shift_matrix(n, t), by_rows(t))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sg.quasinilpotent_gap(32, 0.1)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), 0.0, -0.1])
    def test_shift_gap_rejects_bad_times(self, t):
        with pytest.raises(ValueError, match="need"):
            sg.quasinilpotent_gap(64, t)
