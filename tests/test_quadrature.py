import string
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gammainc

from sectorcalc import geometry as g
from sectorcalc import quadrature as q

PI = np.pi


def cone_region(vertex=0.0, half=PI / 4):
    return g.make_region([-half], [half], [vertex])


class TestPanels:
    def test_polynomials_integrated_to_machine_accuracy(self):
        # Gauss-Legendre with 16 points is exact through degree 31
        for m in range(0, 32, 3):
            x, w = q.gauss_panel(0.0, 1.0, 16)
            val = np.sum(w * x ** m)
            exact = 1.0 / (m + 1)
            assert abs(val - exact) <= 1e-12 * exact

    def test_polynomial_times_exponential_on_short_panel(self):
        import math

        # oracle: lower incomplete gamma from scipy
        for m in range(0, 9):
            x, w = q.gauss_panel(0.0, 1.0, 16)
            val = np.sum(w * x ** m * np.exp(-x))
            exact = gammainc(m + 1, 1.0) * math.factorial(m)
            assert abs(val - exact) <= 1e-12 * max(exact, 1e-3)


class TestRayIntegral:
    def test_gamma_one(self):
        res = q.ray_integral(lambda t: np.exp(-t), 0.0, 1.0, tol=1e-12,
                             decay=("exp", 1.0))
        assert abs(res.value - 1.0) <= 1e-12

    def test_rotated_ray(self):
        res = q.ray_integral(lambda t: np.exp(-t), 0.0, np.exp(1j * PI / 4),
                             tol=1e-12, decay=("exp", 0.7))
        assert abs(res.value - 1.0) <= 1e-11

    def test_gamma_two(self):
        res = q.ray_integral(lambda t: t * np.exp(-t), 0.0, 1.0, tol=1e-12,
                             decay=("exp", 0.9))
        assert abs(res.value - 1.0) <= 1e-11

    def test_nonconvergent_raises(self):
        with pytest.raises(q.ConvergenceError):
            q.ray_integral(lambda t: 1.0 / (1.0 + t), 0.0, 1.0, tol=1e-12,
                           max_rounds=3)


class TestBoundaryPath:
    def test_halfplane_node_budget(self):
        u = g.make_region([0.0], [0.0], [0.0])
        segs = q.build_boundary_path(u, 0, 1.0, 10.0, n_per_unit=8)
        n = sum(len(s.nodes) for s in segs)
        assert 0.5 * 20 * 8 <= n <= 2 * 20 * 8
        assert all(s.kind == "ray" for s in segs)
        assert segs[0].trunc_radius == 10.0

    def test_pure_cone_gives_two_rays(self):
        segs = q.build_boundary_path(cone_region(), 0, 0.1, 16.0)
        assert len(segs) == 2
        assert all(s.kind == "ray" for s in segs)

    def test_excised_path_is_continuous(self):
        u = g.make_region([-PI / 4], [PI / 4], [0.0], kind="cone_minus_disk",
                          radius=0.5)
        segs = q.build_boundary_path(u, 0, 0.2, 16.0)
        assert segs[0].kind == "ray" and segs[-1].kind == "ray"
        for a, b in zip(segs[:-1], segs[1:]):
            assert abs(a.end - b.start) <= 1e-12

    def test_weights_carry_the_direction(self):
        segs = q.build_boundary_path(cone_region(), 0, 0.0, 16.0)
        outgoing = segs[-1]
        ratios = outgoing.weights / np.abs(outgoing.weights)
        assert np.allclose(ratios, outgoing.direction)

    def test_radius_too_small_rejected(self):
        u = g.make_region([-PI / 4], [PI / 4], [0.0], kind="cone_minus_disk",
                          radius=2.0)
        with pytest.raises(q.QuadratureError):
            q.build_boundary_path(u, 0, 0.0, 1.5)

    def test_shift_outside_dual_cone_rejected(self):
        with pytest.raises(q.QuadratureError):
            q.build_boundary_path(cone_region(), 0, -1.0, 16.0)


class TestContourIntegrals:
    def test_zero_function(self):
        cq = q.ContourQuadrature.from_region(cone_region(), [0.5], R=32.0)
        res = q.integrate(lambda p: np.zeros(p.shape[0]), cq, tol=1e-12)
        assert res.value == 0.0

    def test_holomorphic_integrand_has_zero_integral(self):
        r0 = q.initial_radius(("alg", 1.0, 2.0), 1e-8)
        cq = q.ContourQuadrature.from_region(cone_region(), [0.5], R=r0)
        res = q.integrate(lambda p: 1.0 / (p[:, 0] + 2.0) ** 2, cq, tol=1e-8)
        assert abs(res.value) <= 1e-8

    def test_interior_point_reproduction(self):
        r0 = q.initial_radius(("alg", 1.0, 3.0), 1e-10)
        cq = q.ContourQuadrature.from_region(cone_region(), [0.5], R=r0)
        res = q.integrate(lambda p: 1.0 / ((p[:, 0] + 2.0) ** 2 * (1.0 - p[:, 0])),
                          cq, tol=1e-10)
        target = 2j * PI / 9.0
        assert abs(res.value - target) <= 1e-10 * abs(target)

    def test_runs_are_bit_identical(self):
        r0 = q.initial_radius(("alg", 1.0, 3.0), 1e-9)
        cq = q.ContourQuadrature.from_region(cone_region(), [0.5], R=r0)

        def f(p):
            return 1.0 / ((p[:, 0] + 2.0) ** 2 * (1.0 - p[:, 0]))

        a = q.integrate(f, cq, tol=1e-9).value
        b = q.integrate(f, cq, tol=1e-9).value
        assert a == b

    def test_error_estimates_decrease(self):
        r0 = q.initial_radius(("alg", 1.0, 3.0), 1e-9)
        cq = q.ContourQuadrature.from_region(cone_region(), [0.5], R=r0,
                                             n_per_unit=1.0)
        res = q.integrate(lambda p: 1.0 / ((p[:, 0] + 2.0) ** 2 * (1.0 - p[:, 0])),
                          cq, tol=1e-9, max_rounds=8)
        diffs = [h[3] for h in res.history if np.isfinite(h[3])]
        assert len(diffs) >= 2
        assert diffs[-1] < diffs[-2]

    def test_nonfinite_integrand_rejected(self):
        cq = q.ContourQuadrature.from_region(cone_region(), [0.0], R=32.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(q.QuadratureError):
                q.integrate(lambda p: 1.0 / (p[:, 0] - p[:, 0]), cq, tol=1e-8)

    def test_tensor_matrix_integrand(self):
        # matrix-valued integrand reproduces the scalar case entrywise
        cq = q.ContourQuadrature.from_region(cone_region(), [0.5], R=1e5)

        def fm(p):
            base = 1.0 / ((p[:, 0] + 2.0) ** 2 * (1.0 - p[:, 0]))
            out = np.zeros((p.shape[0], 2, 2), dtype=complex)
            out[:, 0, 0] = base
            out[:, 1, 1] = 2.0 * base
            return out

        res = q.integrate(fm, cq, tol=1e-9)
        target = 2j * PI / 9.0
        assert abs(res.value[0, 0] - target) <= 1e-8
        assert abs(res.value[1, 1] - 2 * target) <= 1e-8

    def test_runs_are_bit_identical_two_axes(self):
        u = g.make_region([-PI / 4] * 2, [PI / 4] * 2, [0.0, 0.0])
        cq = q.ContourQuadrature.from_region(u, [0.5, 0.5], R=64.0)

        def f(p):
            return 1.0 / ((p[:, 0] + 2.0) ** 2 * (p[:, 1] + 3.0) ** 2 * (1.0 - p[:, 0]))

        assert cq.node_count > q._BLOCK_POINTS  # several blocks
        a = q.tensor_sum(f, cq)
        b = q.tensor_sum(f, cq)
        assert a == b

    def test_non_vectorized_integrand_rejected(self):
        cq = q.ContourQuadrature.from_region(cone_region(), [0.5], R=32.0)
        with pytest.raises(q.QuadratureError, match=r"returned shape \(1,\)"):
            q.tensor_sum(lambda z: 1.0 / (z[0] + 2.0) ** 2, cq)


def _random_grid(rng, counts):
    axes = tuple(
        q.AxisPath(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                   rng.standard_normal(n) + 1j * rng.standard_normal(n), ())
        for n in counts)
    return SimpleNamespace(axes=axes, k=len(axes))


def _dense_values(f, cq):
    """``f`` on the full tensor grid, shape (N_0, ..., N_{k-1}, ...)."""
    mesh = np.meshgrid(*[ax.nodes for ax in cq.axes], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = f(pts)
    return vals.reshape(mesh[0].shape + vals.shape[1:])


def _smooth(p):
    return np.exp(-0.3 * p.sum(axis=1)) / (4.0 + p[:, 0])


def _smooth_matrix(p):
    base = _smooth(p)
    out = np.empty((p.shape[0], 2, 2), dtype=complex)
    out[:, 0, 0] = base
    out[:, 0, 1] = p[:, -1] * base
    out[:, 1, 0] = 1.0
    out[:, 1, 1] = base ** 2
    return out


class TestBlockedContraction:
    """The blocked contraction against a dense einsum over the full grid."""

    COUNTS = {1: (13,), 2: (11, 7), 3: (5, 3, 7)}

    @pytest.fixture(params=[1, 2, 3])
    def grid(self, request, monkeypatch):
        # rows per block = 20 // 7 = 2: the leading counts 11 and 15 are
        # not multiples of it, so the last block is short
        monkeypatch.setattr(q, "_BLOCK_POINTS", 20)
        rng = np.random.default_rng(request.param)
        return _random_grid(rng, self.COUNTS[request.param]), rng

    @staticmethod
    def _letters(k):
        return string.ascii_lowercase[:k]

    def test_scalar_tensor_sum(self, grid):
        cq, _ = grid
        ix = self._letters(cq.k)
        ref = np.einsum(",".join([ix] + list(ix)) + "->", _dense_values(_smooth, cq),
                        *[ax.weights for ax in cq.axes])
        val = q.tensor_sum(_smooth, cq)
        assert abs(val - ref) <= 1e-13 * max(abs(ref), 1.0)

    def test_matrix_tensor_sum(self, grid):
        cq, _ = grid
        ix = self._letters(cq.k)
        ref = np.einsum(",".join([ix + "yz"] + list(ix)) + "->yz",
                        _dense_values(_smooth_matrix, cq),
                        *[ax.weights for ax in cq.axes])
        val = q.tensor_sum(_smooth_matrix, cq)
        assert np.linalg.norm(val - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_resolvent_contour_value(self, grid):
        cq, rng = grid
        d = 3
        mats = [rng.standard_normal((d, d)) for _ in range(cq.k)]
        lam = 0.5 + 0.2j * np.arange(1, cq.k + 1)
        offs = 0.1j * np.arange(cq.k)
        stacks = [np.linalg.inv(lam[j] * mats[j] + (cq.axes[j].nodes - offs[j])[:, None, None]
                                * np.eye(d)) for j in range(cq.k)]
        ix = self._letters(cq.k)
        mat_ix = [ix[j] + "wxyz"[j:j + 2] for j in range(cq.k)]
        spec = ",".join([ix] + list(ix) + mat_ix) + "->w" + "wxyz"[cq.k]
        ref = np.einsum(spec, _dense_values(_smooth, cq),
                        *[ax.weights for ax in cq.axes], *stacks)
        val = q.resolvent_contour_value(_smooth, mats, lam, cq, node_offsets=offs)
        assert np.linalg.norm(val - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_resolvent_needs_a_scalar_factor(self, grid):
        cq, rng = grid
        mats = [rng.standard_normal((2, 2)) for _ in range(cq.k)]
        with pytest.raises(q.QuadratureError, match="scalar integrand"):
            q.resolvent_contour_value(_smooth_matrix, mats, np.ones(cq.k), cq)

    def test_default_block_size_over_several_blocks(self):
        rng = np.random.default_rng(7)
        cq = _random_grid(rng, (5001, 11))  # 2978 rows per block: three blocks
        ref = np.einsum("ab,a,b->", _dense_values(_smooth, cq),
                        cq.axes[0].weights, cq.axes[1].weights)
        val = q.tensor_sum(_smooth, cq)
        assert abs(val - ref) <= 1e-13 * abs(ref)

    def test_integrand_cannot_write_into_its_points(self, grid):
        cq, _ = grid

        def f(p):
            p[:, 0] = 0.0
            return _smooth(p)

        with pytest.raises(ValueError, match="read-only"):
            q.tensor_sum(f, cq)

    def test_nonfinite_value_rejected_in_a_later_block(self, grid):
        cq, _ = grid
        last = cq.axes[0].nodes[-1]

        def f(p):
            with np.errstate(divide="ignore", invalid="ignore"):
                return _smooth(p) / (p[:, 0] != last)

        with pytest.raises(q.QuadratureError, match="non-finite"):
            q.tensor_sum(f, cq)


class TestRichardson:
    def test_geometric_error_sequence(self):
        exact = 0.7
        vals = [exact + 0.3 * 2.0 ** -m + 0.05 * 4.0 ** -m for m in range(6)]
        limit, residual = q.richardson(vals)
        assert abs(limit - exact) <= 1e-10
        assert residual <= 1e-8


class TestConfig:
    def test_json_round_trip(self):
        cfg = q.QuadratureConfig(tol=1e-8, max_rounds=8, panel_points=16)
        cfg2 = q.QuadratureConfig.from_json(cfg.to_json())
        assert cfg == cfg2

    def test_json_string_input(self):
        cfg = q.QuadratureConfig.from_json('{"tol": 1e-6, "max_rounds": 4, "panel_points": 16}')
        assert cfg.tol == 1e-6 and cfg.max_rounds == 4
