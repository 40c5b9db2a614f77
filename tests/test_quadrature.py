import string
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from sectorcalc import calculus as ca
from sectorcalc import geometry as g
from sectorcalc import quadrature as q

PI = np.pi


def cone_region(vertex=0.0, half=PI / 4):
    return g.make_region([-half], [half], [vertex])


class TestPanels:
    def test_polynomials_integrated_to_machine_accuracy(self):
        # Gauss-Legendre with 16 points is exact through degree 31
        for m in range(0, 32, 3):
            x, w = q.gauss_panel(0.0, 1.0)
            val = np.sum(w * x ** m)
            exact = 1.0 / (m + 1)
            assert abs(val - exact) <= 1e-12 * exact

    def test_polynomial_times_exponential_on_short_panel(self):
        import math

        # oracle: lower incomplete gamma from scipy
        for m in range(0, 9):
            x, w = q.gauss_panel(0.0, 1.0)
            val = np.sum(w * x ** m * np.exp(-x))
            exact = gammainc(m + 1, 1.0) * math.factorial(m)
            assert abs(val - exact) <= 1e-12 * max(exact, 1e-3)


    def test_panel_nodes_match_panel_by_panel_rule(self):
        anchor, direction = 0.3 - 0.2j, np.exp(0.7j)
        lengths = [97.0, 1.5, 30.0, 2.0]  # a length up to h0 = 2 is one panel
        # the array form: one call, one set per length
        sets = [np.array(b) for b in q._graded_breaks(lengths, 2.0)]
        for x, breaks in zip(lengths, sets):
            assert breaks.tobytes() == np.array(q._graded_breaks([x], 2.0)[0]).tobytes()
            assert breaks[0] == 0.0 and breaks[-1] == pytest.approx(x, rel=1e-15)
        assert len(sets[1]) == len(sets[3]) == 2 and len(sets[0]) > len(sets[2]) > 2
        for breaks in (np.array(q._graded_breaks([97.0], 2.0)[0]), *sets,
                       np.linspace(0.0, 3.5, 8)):
            nodes, weights = q._panel_nodes(anchor, direction, breaks)
            panels = [q.gauss_panel(a, b) for a, b in zip(breaks[:-1], breaks[1:])]
            assert np.array_equal(nodes,
                                  np.concatenate([anchor + t * direction for t, _ in panels]))
            assert np.array_equal(weights,
                                  np.concatenate([w * direction for _, w in panels]))


def _panel_case(f, exact):
    """The panel estimate of ``f`` on [-1, 1], its true error against
    ``exact`` and ``sum |w f|``."""
    x, w = q.gauss_panel(-1.0, 1.0)
    wf = (w * f(x)).astype(complex)
    return q._panel_error(wf)[0], abs(wf.sum() - exact), np.abs(wf).sum()


def _pole_case(m, place, delta, side):
    """``1/(x - p)^m`` with ``p`` at distance ``delta`` from [-1, 1]: above or
    below ``place`` in [-1, 1], beyond an end for ``|place| > 1``."""
    if abs(place) <= 1.0:
        p = place + 1j * side * delta
    else:
        angle = side * (abs(place) - 1.0) * PI / 2
        p = np.sign(place) * (1.0 + delta * np.cos(angle)) + 1j * delta * np.sin(angle)
    if m == 1:
        exact = np.log(1.0 - p) - np.log(-1.0 - p)
    else:
        exact = ((1.0 - p) ** (1 - m) - (-1.0 - p) ** (1 - m)) / (1 - m)
    return _panel_case(lambda x: (x - p) ** -m, exact)


class TestPanelError:
    """The per-panel estimate against closed forms: below 1e-6 of the
    absolute integral (where it can accept), it bounds the true error up to
    roundoff."""

    ROUNDOFF = 100 * np.finfo(float).eps

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(m=st.integers(1, 3), place=st.floats(-2.0, 2.0), delta=st.floats(0.005, 5.0),
           side=st.sampled_from([-1, 1]))
    def test_bounds_the_error_near_a_pole(self, m, place, delta, side):
        est, err, scale = _pole_case(m, place, delta, side)
        if est < 1e-6 * scale:
            assert err <= est + self.ROUNDOFF * scale
        # the estimate grows as the pole nears the panel, as long as it is
        # small enough to accept anything
        closer, _, closer_scale = _pole_case(m, place, delta / 2, side)
        assert closer >= est or closer >= 1e-3 * closer_scale

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(re=st.floats(-25.0, 25.0), im=st.floats(-25.0, 25.0))
    def test_bounds_the_error_of_an_exponential(self, re, im):
        a = complex(re, im)
        assume(abs(a) > 1e-3)
        est, err, scale = _panel_case(lambda x: np.exp(a * x), (np.exp(a) - np.exp(-a)) / a)
        if est < 1e-6 * scale:
            assert err <= est + self.ROUNDOFF * scale

    def test_estimate_decides_the_first_round(self):
        # a smooth ray integral is accepted in its first round
        res = q.ray_integral(lambda t: np.exp(-t), rate=1.0, tol=1e-10)
        assert res.rounds == 1 and abs(res.value - 1.0) <= 1e-10

    @pytest.mark.parametrize("tol", [1e-3, 1e-10])
    def test_overstated_decay_certificate_is_not_trusted(self, tol):
        # the certificate claims rate 1, the integrand decays at rate 1/50:
        # the cut tail reads the decay its last nodes show (at tol 1e-3 the
        # sixth round's cut value is below tol, its tail 50 times that is not)
        try:
            res = q.ray_integral(lambda t: np.exp(-t / 50), rate=1.0, tol=tol)
        except q.ConvergenceError:
            return
        assert res.rounds > 1 and abs(res.value - 50.0) <= tol


class TestRefine:
    def test_schedule_and_acceptance(self):
        calls = []

        def value_at(n):
            calls.append(n)
            return 1.0 / n, 3, np.inf

        res = q.refine(value_at, 2.0, tol=0.1)
        # no estimates; differences 0.25, 0.125, 0.0625: accepted in the fourth round
        assert calls == [2.0, 4.0, 8.0, 16.0]
        assert (res.value, res.rounds, res.node_count) == (1.0 / 16.0, 4, 3)
        assert [h[2] for h in res.history] == [np.inf, 0.25, 0.125, 0.0625]

    def test_accepts_in_the_round_whose_estimate_meets_the_tolerance(self):
        estimates = iter([0.5, 0.05])
        res = q.refine(lambda n: (1.0 / n, 2 * n, next(estimates)), 2.0, tol=0.1)
        # the difference 0.25 would not do; the second round's estimate does
        assert (res.value, res.rounds, res.node_count, res.error_estimate) == (0.25, 2, 8, 0.05)
        assert [h[2] for h in res.history] == [0.5, 0.05]
        first = q.refine(lambda n: (7.0, 1, 0.0), 2.0, tol=1e-12)
        assert (first.value, first.rounds, first.history) == (7.0, 1, ((2.0, 1, 0.0),))

    def test_members_keep_the_value_of_their_own_round(self):
        # member 0 is accepted on its estimate in round 1, member 1 on its
        # difference in round 3; later rounds never touch member 0
        def value_at(n):
            return np.array([[n, n], [1.0 / n, 0.0]]), 1, np.array([0.0, np.inf])

        res = q.refine(value_at, 1.0, tol=0.3)
        assert res.rounds == 3 and res.value.shape == (2, 2)
        assert res.value.tolist() == [[1.0, 1.0], [0.25, 0.0]]
        assert res.error_estimate == 0.25 and res.history[-1][2] == 0.25

    def test_failure_carries_value_and_estimate(self, monkeypatch):
        monkeypatch.setattr(q, "_MAX_ROUNDS", 3)
        with pytest.raises(q.ConvergenceError, match="thing did not converge") as info:
            q.refine(lambda n: (n, 1, 3.0), 1.0, tol=0.5, what="thing")
        assert (info.value.value, info.value.estimate) == (4.0, 2.0)

    def test_adaptive_contour_sees_doubled_contours(self):
        # each round doubles the node density; the tail radius stays put
        cq = q.ContourQuadrature.from_region(cone_region(), [0.5], R=32.0)
        seen = []

        def value_of(c):
            seen.append(c)
            return 2.0 ** -len(seen), np.inf

        res = q.adaptive_contour(value_of, cq, tol=0.2)
        assert seen[0] is cq and len(seen) == res.rounds == 3
        for r, c in enumerate(seen):
            assert (c.R, c.n_per_unit) == (32.0, 8.0 * 2 ** r)
            assert res.history[r][:2] == (c.n_per_unit, c.node_count)
        assert seen[0].node_count < seen[1].node_count < seen[2].node_count


class TestRayIntegral:
    def test_gamma_one(self):
        res = q.ray_integral(lambda t: np.exp(-t), rate=1.0, tol=1e-12)
        assert abs(res.value - 1.0) <= 1e-12

    def test_rotated_ray(self):
        # the integral of exp(-zeta) d zeta along the ray zeta = t d, |d| = 1
        d = np.exp(1j * PI / 4)
        res = q.ray_integral(lambda t: np.exp(-t * d) * d, rate=0.7, tol=1e-12)
        assert abs(res.value - 1.0) <= 1e-11

    def test_gamma_two(self):
        res = q.ray_integral(lambda t: t * np.exp(-t), rate=0.9, tol=1e-12)
        assert abs(res.value - 1.0) <= 1e-11

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
    def test_a_rate_that_certifies_no_decay_is_refused(self, rate):
        with pytest.raises(q.QuadratureError, match="must be positive"):
            q.ray_integral(lambda t: np.exp(-t), rate=rate)

    def test_nonconvergent_raises(self, monkeypatch):
        monkeypatch.setattr(q, "_MAX_ROUNDS", 3)
        with pytest.raises(q.ConvergenceError):
            q.ray_integral(lambda t: 1.0 / (1.0 + t), rate=1.0, tol=1e-12)

    def test_history_has_one_record_per_round(self):
        # a ray integral doubles its truncation with the node density; an
        # oscillating integrand takes a second round, since its first cut
        # shows no decay at the last two nodes and so bounds no tail
        for fun, exact, rounds in ((lambda t: np.exp(-t), 1.0, 1),
                                   (lambda t: np.cos(3 * t) * np.exp(-t), 0.1, 2)):
            reach = []

            def f(t):
                reach.append(np.max(t.real))
                return fun(t)

            res = q.ray_integral(f, rate=1.0, tol=1e-12)
            assert len(res.history) == res.rounds == len(reach) == rounds
            assert abs(res.value - exact) <= 1e-12
            r0 = q.initial_radius(1.0, 1e-12)
            for r, (n, nodes, err) in enumerate(res.history):
                assert n == 8.0 * 2.0 ** r
                assert 0.9 * r0 * 2.0 ** r < reach[r] < r0 * 2.0 ** r
                assert nodes > 0 and (err == np.inf) == (r < rounds - 1)
            assert res.history[-1][1:] == (res.node_count, res.error_estimate)


def _pieces(region, j, eps, R, n_per_unit):
    """Axis ``j`` of the contour built piece by piece, the reference the
    one-chain builder must match bit for bit: one ``(nodes, weights)`` pair
    per ray and per polyline edge, each with its own Gauss-Legendre call;
    the incoming ray reversed and negated."""
    x, w16 = np.polynomial.legendre.leggauss(16)

    def panels(lo, hi):
        return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * w16

    def graded(length, h0, ratio=1.5):
        if length <= h0:
            return np.array([0.0, length])
        m = int(np.ceil(np.log1p(length * (ratio - 1.0) / h0) / np.log(ratio)))
        raw = h0 * (ratio ** np.arange(m + 1) - 1.0) / (ratio - 1.0)
        return raw * (length / raw[-1])

    def finite(a, b):
        length = abs(b - a)
        direction = (b - a) / length
        n_panels = max(1, int(np.ceil(length / (16 / n_per_unit))))
        breaks = np.linspace(0.0, length, n_panels + 1)
        t, wt = panels(breaks[:-1, None], breaks[1:, None])
        return a + t.ravel() * direction, wt.ravel() * direction

    def ray(anchor, direction, outward):
        b = (anchor * direction.conjugate()).real
        extent = -b + np.sqrt(b * b + R * R - abs(anchor) ** 2)
        breaks = graded(extent, 16 / n_per_unit)
        m = max(1, int(np.ceil(n_per_unit / 8.0)))
        u = np.arange(m, -1, -1) / m
        t, wt = panels(np.concatenate([breaks[:-1], u[:-1]])[:, None],
                       np.concatenate([breaks[1:], u[1:]])[:, None])
        g = len(breaks) - 1
        t[g:] = extent / t[g:]
        wt[g:] *= -t[g:] ** 2 / extent
        nodes, weights = anchor + t.ravel() * direction, wt.ravel() * direction
        return (nodes, weights) if outward else (nodes[::-1].copy(), -weights[::-1].copy())

    ax = region.axes[j]
    anchors = [ax.z + eps + t for t in ax.theta]
    return ([ray(anchors[0], ax.d0, False)]
            + [finite(a, b) for a, b in zip(anchors[:-1], anchors[1:])]
            + [ray(anchors[-1], ax.d1, True)])


def _region_bank():
    disk = g.make_region([-PI / 4], [PI / 4], [0.0], kind="cone_minus_disk", radius=0.5)
    rect = g.make_region([-PI / 3], [PI / 3], [-0.2], kind="cone_minus_rect", s0=0.4, s1=0.3)
    return {
        "cone": cone_region(0.3),
        "halfplane": g.make_region([0.0], [0.0], [0.0]),
        "cone_minus_disk": disk,
        "cone_minus_rect": rect,
        "intersection": g.intersect_admissible(disk, rect),
    }


class TestBoundaryPath:
    def test_halfplane_node_budget(self):
        u = g.make_region([0.0], [0.0], [0.0])
        path = q.ContourQuadrature.from_region(u, [1.0], R=10.0, n_per_unit=8).axes[0]
        assert 0.5 * 20 * 8 <= len(path.nodes) <= 2 * 20 * 8
        # both rays run to infinity: nodes reach far beyond the tail radius
        assert path.panels
        assert min(abs(path.nodes[0]), abs(path.nodes[-1])) > 100 * 10.0

    def test_pure_cone_gives_two_rays(self):
        u = cone_region()
        path = q.ContourQuadrature.from_region(u, [0.1], R=16.0).axes[0]
        ax, half = u.axes[0], len(path.nodes) // 2
        for nodes, d in ((path.nodes[:half], ax.d0), (path.nodes[half:], ax.d1)):
            assert np.allclose(((nodes - 0.1) * np.conj(d)).imag, 0.0, atol=1e-9)
            assert np.all(((nodes - 0.1) * np.conj(d)).real > 0)

    def test_excised_path_is_continuous(self):
        u = g.make_region([-PI / 4], [PI / 4], [0.0], kind="cone_minus_disk",
                          radius=0.5)
        path = q.ContourQuadrature.from_region(u, [0.2], R=16.0).axes[0]
        # from infinity along the incoming ray, through the excision, to
        # infinity along the outgoing ray: the pieces are the runs of one
        # traversal direction, and nodes follow it within each piece
        unit = path.weights / np.abs(path.weights)
        cut = np.flatnonzero(np.abs(np.diff(unit)) > 1e-9) + 1
        ax = u.axes[0]
        assert len(cut) == len(ax.theta)  # two rays and the polyline edges
        assert np.allclose(unit[[0, -1]], [-ax.d0, ax.d1])
        for nodes, d in zip(np.split(path.nodes, cut), unit[np.r_[0, cut]]):
            steps = np.diff(nodes) / d
            assert np.all(steps.real > 0) and np.allclose(steps.imag, 0.0, atol=1e-9)
        for a, b in zip(np.split(path.nodes, cut)[:-1], np.split(path.nodes, cut)[1:]):
            assert abs(b[0] - a[-1]) < 2 * 16.0 / 8.0  # consecutive pieces meet

    def test_weights_carry_the_direction(self):
        u = cone_region()
        path = q.ContourQuadrature.from_region(u, [0.0], R=16.0).axes[0]
        half = len(path.nodes) // 2
        ratios = path.weights / np.abs(path.weights)
        assert np.allclose(ratios[:half], -u.axes[0].d0)
        assert np.allclose(ratios[half:], u.axes[0].d1)

    def test_radius_too_small_rejected(self):
        u = g.make_region([-PI / 4], [PI / 4], [0.0], kind="cone_minus_disk",
                          radius=2.0)
        with pytest.raises(q.QuadratureError):
            q.ContourQuadrature.from_region(u, [0.0], R=1.5)

    def test_shift_outside_dual_cone_rejected(self):
        with pytest.raises(q.QuadratureError):
            q.ContourQuadrature.from_region(cone_region(), [-1.0], R=16.0)

    @pytest.mark.parametrize("n_per_unit", [8.0, 64.0])
    @pytest.mark.parametrize("kind", list(_region_bank()))
    def test_panel_chain_is_bit_equal_to_its_pieces(self, kind, n_per_unit):
        u, eps = _region_bank()[kind], 0.2 + 0.05j
        path = q.ContourQuadrature.from_region(u, [eps], R=20.0, n_per_unit=n_per_unit).axes[0]
        pieces = _pieces(u, 0, eps, 20.0, n_per_unit)
        assert len(pieces) == len(u.axes[0].theta) + 1
        assert np.concatenate([n for n, _ in pieces]).tobytes() == path.nodes.tobytes()
        assert np.concatenate([w for _, w in pieces]).tobytes() == path.weights.tobytes()


def _axes_of(k, first):
    """``k`` axes of the region bank, starting with the kind ``first`` and
    cycling through the others."""
    bank = _region_bank()
    kinds = list(bank)
    start = kinds.index(first)
    return [bank[kinds[(start + j) % len(kinds)]].axes[0] for j in range(k)]


class TestOneContourPass:
    @pytest.mark.parametrize("raise_R", [False, True])
    @pytest.mark.parametrize("inside", [False, True])
    @pytest.mark.parametrize("n_per_unit", [1.0, 8.0, 16.0, 64.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("first", list(_region_bank()))
    def test_each_axis_is_its_own_one_axis_contour(self, first, k, n_per_unit, inside,
                                                   raise_R):
        axes = _axes_of(k, first)
        eps = [0.3 * np.exp(1j * ax.dual_sector.bisector_angle) if inside else 0j
               for ax in axes]
        R = None
        if raise_R:
            R = 2.0 * q.tail_radius(g.AdmissibleRegion(axes), eps) + 3.0
        cq = q.ContourQuadrature.from_region(g.AdmissibleRegion(axes), eps, R, n_per_unit)
        assert cq.k == k and (R is None or cq.R == R)
        for ax, e, path in zip(axes, eps, cq.axes):
            alone = q.ContourQuadrature.from_region(g.AdmissibleRegion([ax]), [e], cq.R,
                                                    n_per_unit).axes[0]
            assert path.panels and alone.panels
            assert np.array_equal(path.nodes, alone.nodes)
            assert np.array_equal(path.weights, alone.weights)
            assert path.nodes.tobytes() == alone.nodes.tobytes()
            assert path.weights.tobytes() == alone.weights.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_one_contour_makes_one_gauss_panel_call(self, k, monkeypatch):
        calls = []
        panel = q.gauss_panel

        def spy(a, b):
            calls.append(len(a))
            return panel(a, b)

        monkeypatch.setattr(q, "gauss_panel", spy)
        axes = _axes_of(k, "cone_minus_rect")
        cq = q.ContourQuadrature.from_region(g.AdmissibleRegion(axes), [0.1] * k)
        assert len(calls) == 1
        assert calls[0] * 16 == sum(len(ax.nodes) for ax in cq.axes)


def _check_shift_per_axis(duals, eps, grid=False):
    """The reference the one-pass :func:`quadrature._check_shift` must
    match: the same input checks, then ``Sector.contains(closed=True,
    tol=1e-9)`` axis by axis."""
    try:
        x = np.asarray(eps, dtype=complex)
    except (TypeError, ValueError):
        raise q.QuadratureError("eps must have one entry per axis")
    x = x.reshape(-1, 1) if grid and len(duals) == 1 and x.ndim == 1 else np.atleast_1d(x)
    if x.ndim != 1 + grid or x.shape[-1] != len(duals) or not x.size:
        raise q.QuadratureError("eps must have one entry per axis")
    if not np.isfinite(x).all():
        raise q.QuadratureError(f"shift {complex(x[~np.isfinite(x)][0])} is not finite")
    for j, dual in enumerate(duals):
        outside = ~dual.contains(x[..., j], closed=True, tol=1e-9)
        if outside.any():
            raise q.QuadratureError(f"shift {complex(x[..., j][outside][0])} is outside "
                                    f"the closed dual sector of axis {j}")
    return x if grid else tuple(map(complex, x))


def _outcome(check, duals, eps, grid):
    try:
        out = check(duals, eps, grid)
    except q.QuadratureError as err:
        return "refused", str(err)
    return "accepted", type(out), np.shape(out), np.asarray(out).tobytes()


# dual sectors: of the region bank's axes, a wide cone and a half-plane's ray
_DUALS = [ax.dual_sector for u in _region_bank().values() for ax in u.axes] \
    + [g.Sector(-1.4, 1.2), g.Sector(0.3, 0.3)]
_NON_FINITE = [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 1.0),
               complex(-np.inf, 0.0), complex(1.0, -np.inf)]


@st.composite
def _shift_entry(draw, dual):
    """One shift for ``dual``: within 1e-9 of an edge or the vertex, inside,
    anywhere, or not finite."""
    kind = draw(st.sampled_from(["edge", "edge", "vertex", "inside", "anywhere", "bad"]))
    if kind == "edge":
        r = draw(st.floats(1e-3, 1e3))
        offset = draw(st.floats(-3e-9, 3e-9))
        return (r + 1j * offset) * np.exp(1j * draw(st.sampled_from([dual.alpha, dual.beta])))
    if kind == "vertex":
        return complex(draw(st.floats(-2e-9, 2e-9)), draw(st.floats(-2e-9, 2e-9)))
    if kind == "inside":
        angle = dual.bisector_angle + draw(st.floats(-0.5, 0.5)) * dual.aperture
        return draw(st.floats(0.0, 10.0)) * np.exp(1j * angle)
    if kind == "anywhere":
        return complex(draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0)))
    return draw(st.sampled_from(_NON_FINITE))


@st.composite
def _shift_input(draw, duals, grid):
    """One shift per axis, or an (E, k) grid of them; one in four has a row
    of a wrong length or a non-numeric entry."""
    rows = [[draw(_shift_entry(dual)) for dual in duals]
            for _ in range(draw(st.integers(0, 4)) if grid else 1)]
    defect = draw(st.sampled_from(["none"] * 9 + ["short", "long", "text"]))
    if rows and defect != "none":
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = {"short": rows[i][:-1], "long": rows[i] + [0.1],
                   "text": rows[i][:-1] + ["x"]}[defect]
    if not grid:
        return rows[0]
    if len(duals) == 1 and draw(st.booleans()):  # a flat list of one-axis shifts
        return [r[0] if len(r) == 1 else r for r in rows]
    return rows


class TestCheckShift:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.integers(1, 3), grid=st.booleans())
    def test_one_pass_matches_the_per_axis_reference(self, data, k, grid):
        duals = data.draw(st.lists(st.sampled_from(_DUALS), min_size=k, max_size=k))
        eps = data.draw(_shift_input(duals, grid))
        assert _outcome(q._check_shift, duals, eps, grid) == \
            _outcome(_check_shift_per_axis, duals, eps, grid)

    def test_the_first_defect_is_named_axis_by_axis(self):
        duals = [ax.dual_sector for ax in _region_bank()["cone"].axes] * 3
        edge = np.exp(1j * duals[0].alpha)
        on_edge, beyond = (1.0 + 0.5e-9j) * edge, (1.0 - 2e-9j) * edge
        assert g.Sector.contains(duals[0], on_edge, closed=True, tol=1e-9)
        assert not g.Sector.contains(duals[0], beyond, closed=True, tol=1e-9)
        grid = [[0.1, on_edge, 0.1], [0.1, 0.1, beyond], [0.1, -1.0, 0.1]]
        for check in (q._check_shift, _check_shift_per_axis):
            with pytest.raises(q.QuadratureError, match=r"shift \(-1\+0j\) is outside .* axis 1$"):
                check(duals, grid, grid=True)
            with pytest.raises(q.QuadratureError, match=r"is outside .* axis 2$"):
                check(duals, grid[:2], grid=True)
            assert check(duals, grid[:1], grid=True).shape == (1, 3)


class TestContourIntegrals:
    def test_zero_function(self):
        cq = q.ContourQuadrature.from_region(cone_region(), [0.5], R=32.0)
        res = q.integrate(lambda p: np.zeros(p.shape[0]), cq, tol=1e-12)
        assert res.value == 0.0

    def test_holomorphic_integrand_has_zero_integral(self):
        cq = q.ContourQuadrature.from_region(cone_region(), [0.5])
        res = q.integrate(lambda p: 1.0 / (p[:, 0] + 2.0) ** 2, cq, tol=1e-8)
        assert abs(res.value) <= 1e-8

    def test_interior_point_reproduction(self):
        cq = q.ContourQuadrature.from_region(cone_region(), [0.5])
        res = q.integrate(lambda p: 1.0 / ((p[:, 0] + 2.0) ** 2 * (1.0 - p[:, 0])),
                          cq, tol=1e-10)
        target = 2j * PI / 9.0
        assert abs(res.value - target) <= 1e-10 * abs(target)

    def test_runs_are_bit_identical(self):
        cq = q.ContourQuadrature.from_region(cone_region(), [0.5])

        def f(p):
            return 1.0 / ((p[:, 0] + 2.0) ** 2 * (1.0 - p[:, 0]))

        a = q.integrate(f, cq, tol=1e-9).value
        b = q.integrate(f, cq, tol=1e-9).value
        assert a == b

    def test_error_estimates_decrease(self):
        cq = q.ContourQuadrature.from_region(cone_region(), [0.5], n_per_unit=1.0)
        res = q.integrate(lambda p: 1.0 / ((p[:, 0] + 2.0) ** 2 * (1.0 - p[:, 0])),
                          cq, tol=1e-9)
        diffs = [h[2] for h in res.history if np.isfinite(h[2])]
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
                   rng.standard_normal(n) + 1j * rng.standard_normal(n), False)
        for n in counts)
    return SimpleNamespace(axes=axes, k=len(axes))


def _schurs(mats):
    """Per-axis ``(q, t)`` Schur pairs, the operand of ``resolvent_contour_value``."""
    return [q._kernels.schur(m) for m in mats]


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
        val = q.tensor_sum(_smooth, cq)[0]
        assert abs(val - ref) <= 1e-13 * max(abs(ref), 1.0)

    def test_matrix_tensor_sum(self, grid):
        cq, _ = grid
        ix = self._letters(cq.k)
        ref = np.einsum(",".join([ix + "yz"] + list(ix)) + "->yz",
                        _dense_values(_smooth_matrix, cq),
                        *[ax.weights for ax in cq.axes])
        val = q.tensor_sum(_smooth_matrix, cq)[0]
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
        val = q.resolvent_contour_value([_smooth], _schurs(mats), lam, cq, node_offsets=offs)[0][0]
        assert np.linalg.norm(val - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_batch_shares_one_stack_per_axis(self, grid, monkeypatch):
        # a batch equals its members' one-element calls bit for bit, and
        # solves each axis's resolvent stack once for all of them
        cq, rng = grid
        mats = [rng.standard_normal((3, 3)) for _ in range(cq.k)]
        lam = 0.5 + 0.2j * np.arange(1, cq.k + 1)
        fns = [_smooth, lambda p: _smooth(p) ** 2, lambda p: 1.0 / (3.0 + p[:, -1])]
        mats = _schurs(mats)
        singles = [q.resolvent_contour_value([f], mats, lam, cq)[0][0] for f in fns]
        calls = []
        solve = q._kernels.resolvent_stack
        monkeypatch.setattr(q._kernels, "resolvent_stack",
                            lambda *a: calls.append(1) or solve(*a))
        batch = q.resolvent_contour_value(fns, mats, lam, cq)[0]
        assert batch.shape == (3, 3, 3)
        assert len(calls) == cq.k
        for got, ref in zip(batch, singles):
            assert np.array_equal(got, ref)

    def test_resolvent_needs_a_scalar_factor(self, grid):
        cq, rng = grid
        mats = [rng.standard_normal((2, 2)) for _ in range(cq.k)]
        with pytest.raises(q.QuadratureError, match="scalar integrand"):
            q.resolvent_contour_value([_smooth_matrix], _schurs(mats), np.ones(cq.k), cq)

    def test_default_block_size_over_several_blocks(self):
        rng = np.random.default_rng(7)
        cq = _random_grid(rng, (5001, 11))  # 2978 rows per block: three blocks
        ref = np.einsum("ab,a,b->", _dense_values(_smooth, cq),
                        cq.axes[0].weights, cq.axes[1].weights)
        val = q.tensor_sum(_smooth, cq)[0]
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


def _one(x):
    return np.ones(len(x))


def _separable(k, rank):
    """Rank-``rank`` separable integrand and the same function without terms."""
    terms = [[(lambda x, r=r, j=j: np.exp(-0.1 * (j + 1) * x) / (4.0 + 0.5j * r + x))
              for j in range(k)] for r in range(rank)]
    f = ca.separable_function(terms)
    return f, (lambda p: f(p))


class TestSeparableContraction:
    """The factorized sum of integrands with terms against a dense einsum
    and against the blocked contraction of the same function without terms."""

    COUNTS = TestBlockedContraction.COUNTS

    @pytest.fixture(params=[(1, 1), (1, 3), (2, 1), (2, 2), (3, 1), (3, 3)])
    def case(self, request, monkeypatch):
        monkeypatch.setattr(q, "_BLOCK_POINTS", 20)
        k, rank = request.param
        rng = np.random.default_rng(10 * k + rank)
        f, bare = _separable(k, rank)
        return _random_grid(rng, self.COUNTS[k]), rng, f, bare

    def test_scalar_sum(self, case):
        cq, _, f, bare = case
        ix = TestBlockedContraction._letters(cq.k)
        ref = np.einsum(",".join([ix] + list(ix)) + "->", _dense_values(bare, cq),
                        *[ax.weights for ax in cq.axes])
        val = q.tensor_sum(f, cq)[0]
        assert abs(val - ref) <= 1e-13 * max(abs(ref), 1.0)
        assert abs(val - q.tensor_sum(bare, cq)[0]) <= 1e-13 * max(abs(ref), 1.0)

    def test_resolvent_sum(self, case):
        cq, rng, f, bare = case
        d = 3
        mats = [rng.standard_normal((d, d)) for _ in range(cq.k)]
        lam = 0.5 + 0.2j * np.arange(1, cq.k + 1)
        offs = 0.1j * np.arange(cq.k)
        stacks = [np.linalg.inv(lam[j] * mats[j] + (cq.axes[j].nodes - offs[j])[:, None, None]
                                * np.eye(d)) for j in range(cq.k)]
        ix = TestBlockedContraction._letters(cq.k)
        mat_ix = [ix[j] + "wxyz"[j:j + 2] for j in range(cq.k)]
        spec = ",".join([ix] + list(ix) + mat_ix) + "->w" + "wxyz"[cq.k]
        ref = np.einsum(spec, _dense_values(bare, cq),
                        *[ax.weights for ax in cq.axes], *stacks)
        val, dense = q.resolvent_contour_value([f, bare], _schurs(mats), lam, cq,
                                               node_offsets=offs)[0]
        assert np.linalg.norm(val - ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.linalg.norm(val - dense) <= 1e-13 * np.linalg.norm(ref)

    def test_nonfinite_factor_rejected(self, case):
        cq, _, _, _ = case
        last = cq.axes[-1].nodes[-1]
        def bad(x):
            return 1.0 / (x != last)

        f = ca.separable_function([[_one] * cq.k, [_one] * (cq.k - 1) + [bad]])
        with np.errstate(divide="ignore"):
            with pytest.raises(q.QuadratureError, match="non-finite"):
                q.tensor_sum(f, cq)

    def test_malformed_terms_rejected(self, case):
        cq, _, _, _ = case
        with pytest.raises(q.QuadratureError, match="factors for"):
            q.tensor_sum(ca.separable_function([[_one] * (cq.k + 1)]), cq)
        with pytest.raises(q.QuadratureError, match="one scalar per node"):
            q.tensor_sum(ca.separable_function([[lambda x: np.ones(1)] * cq.k]), cq)

    def test_rank_zero_sum_is_a_zero_of_the_contraction_shape(self, case):
        cq, _, _, _ = case
        nodes, weights = [ax.nodes for ax in cq.axes], [ax.weights for ax in cq.axes]
        assert q._contract_terms((), nodes, weights)[0] == 0
        assert np.ndim(q._contract_terms((), nodes, weights)[0]) == 0
        stacks = [np.ones((len(x), 3, 3), dtype=complex) for x in nodes]
        val = q._contract_terms((), nodes, weights, stacks)[0]
        assert val.shape == (3, 3) and not val.any()

    def test_factors_cannot_write_into_the_nodes(self, case):
        cq, _, _, _ = case

        def f(x):
            x[0] = 0.0
            return np.ones(len(x))

        with pytest.raises(ValueError, match="read-only"):
            q.tensor_sum(ca.separable_function([[f] * cq.k]), cq)


class TestRichardson:
    def test_geometric_error_sequence(self):
        exact = 0.7
        vals = [exact + 0.3 * 2.0 ** -m + 0.05 * 4.0 ** -m for m in range(6)]
        limit, residual = q.richardson(vals)
        assert abs(limit - exact) <= 1e-10
        assert residual <= 1e-8
