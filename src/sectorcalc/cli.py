"""Batch scenario runner.

``sectorcalc run --scenario NAME --out report.csv`` executes a built-in
verification suite (or a JSON scenario file) and writes a machine-readable
report.  Exit codes: 0 when every row meets its tolerance, 1 when some
row misses it, 2 for bad input (unreadable file, unknown scenario,
inadmissible data), 3 when a computation fails (quadrature or
linear-algebra error).  A scenario whose computation fails becomes one
failed row that carries the message; the other scenarios still run and
the report is still written.
``sectorcalc study`` sweeps a discretization parameter and reports the
observed convergence orders.

Reports are byte-identical across repeated runs with the same
configuration; wall-clock timings go to the report only with
``--timings`` (and always to the diagnostic stream).
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .calculus import (boundary_contour_integral, constant_function,
                       default_eps_grid, default_region, exponential_function,
                       functional_calculus, functional_calculus_hinf,
                       functional_calculus_smirnov, h1_norm, interior_cauchy_value,
                       inverse_square, outer_diagnostic_disk, pointwise_bound_check,
                       product_function, projection_function, resolvent_sup_on_contour,
                       separable_function, spectral_map_check, strongly_outer_check,
                       WitnessSequence)
from .functionals import (Functional, bisector_density, convolve, dirac,
                          exp_poly_function, fb_of_orbit, pair_function, pair_semigroup)
from .geometry import (AdmissibleRegion, ProductSector, complex_pairs, intersect_admissible,
                       make_region)
from .quadrature import ContourQuadrature, QuadratureError, richardson, tensor_sum
from .semigroups import (CommutingTuple, expm, mult_semigroup_gap,
                         mult_semigroup_gap_closed_form, opnorm,
                         quasinilpotent_gap, random_commuting_tuple,
                         random_sectorial_matrix, resolvent_product,
                         resolvent_via_laplace, generator_from_weighted_integrals)

DOMAIN = (-np.pi / 2 + 0.05, np.pi / 2 - 0.05)
SECT = (-np.pi / 4, np.pi / 4)


@dataclass
class ReportRow:
    scenario: str
    case: str
    computed: object
    oracle: object
    tol: float
    check: str = "rel"  # rel | abs | gt | le | error (the computation failed)
    error_estimate: float = 0.0
    wall_time: float = 0.0

    @property
    def abs_err(self):
        try:
            return float(np.max(np.abs(np.asarray(self.computed) - np.asarray(self.oracle))))
        except (TypeError, ValueError):
            return float("nan")

    @property
    def rel_err(self):
        scale = float(np.max(np.abs(np.asarray(self.oracle))))
        return self.abs_err / max(scale, 1e-300)

    @property
    def passed(self):
        if self.check == "error":
            return False
        if self.check == "gt":
            return float(np.real(np.min(np.asarray(self.computed)))) > float(np.real(self.oracle))
        if self.check == "le":
            return float(np.real(np.max(np.asarray(self.computed)))) \
                <= float(np.real(self.oracle)) + self.tol
        if self.check == "abs":
            return self.abs_err <= self.tol
        return self.rel_err <= self.tol


def _fmt_complex(c):
    c = complex(c)
    sign = "+" if c.imag >= 0 else "-"
    return f"{c.real!r}{sign}{abs(c.imag)!r}j"


def _flatten(value):
    arr = np.asarray(value)
    if arr.ndim == 0:
        return _fmt_complex(complex(arr))
    return "[" + ";".join(_fmt_complex(v) for v in arr.ravel()) + "]"


CSV_COLUMNS = ["scenario", "case", "computed", "oracle", "abs_err", "rel_err",
               "error_estimate", "tol", "check", "passed"]


def write_report(rows, path, fmt="csv", timings=False):
    cols = CSV_COLUMNS + (["wall_time"] if timings else [])
    if fmt == "csv":
        lines = [",".join(cols)]
        for r in rows:
            rec = [r.scenario, r.case, _flatten(r.computed), _flatten(r.oracle),
                   repr(r.abs_err), repr(r.rel_err), repr(r.error_estimate),
                   repr(r.tol), r.check, str(r.passed)]
            if timings:
                rec.append(repr(r.wall_time))
            lines.append(",".join(f'"{v}"' if "," in v else v for v in rec))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        def pair(v):
            arr = np.asarray(v, dtype=complex)
            if arr.ndim == 0:
                return [arr.real.item(), arr.imag.item()]
            return [[x.real, x.imag] for x in arr.ravel().tolist()]

        payload = []
        for r in rows:
            rec = {
                "scenario": r.scenario, "case": r.case,
                "computed": pair(r.computed), "oracle": pair(r.oracle),
                "abs_err": r.abs_err, "rel_err": r.rel_err,
                "error_estimate": r.error_estimate, "tol": r.tol,
                "check": r.check, "passed": r.passed,
            }
            if timings:
                rec["wall_time"] = r.wall_time
            payload.append(rec)
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# built-in scenarios (one per acceptance criterion)
# ---------------------------------------------------------------------------


def _clocked(fn):
    """``fn()`` and the seconds it took."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _timed(rows, scenario, case, fn, oracle, tol, check="rel"):
    computed, secs = _clocked(fn)
    rows.append(ReportRow(scenario, case, computed, oracle, tol, check, wall_time=secs))


def sectorial_bank(seed):
    """The shared random bank: 20 diagonalizable matrices with spectrum in
    Re < -0.5, of dimensions 2 to 6."""
    rng = np.random.default_rng(seed)
    return [random_sectorial_matrix(rng, int(rng.integers(2, 7))) for _ in range(20)]


def scenario_resolvent(seed, tol=1e-6):
    rows = []
    rng = np.random.default_rng(seed + 1)
    for i, a in enumerate(sectorial_bank(seed)):
        dim = a.shape[0]
        tup = CommutingTuple([a], [DOMAIN])
        lam = 1.0 + 0.5 * rng.standard_normal()
        oracle = np.linalg.inv(lam * np.eye(dim) - a)
        _timed(rows, "resolvent", f"dim={dim} i={i}",
               lambda t=tup, l=lam: resolvent_via_laplace(t, 0, l, 1.0, tol=1e-9),
               oracle, tol)
    # the transform of the weighted orbit e_z T(lam .) u is a resolvent product
    t2 = random_commuting_tuple(rng, 2, 3, sector=DOMAIN)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    _timed(rows, "resolvent", "orbit transform of a 3x3 pair",
           lambda: fb_of_orbit(t2, [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], u),
           resolvent_product(t2, [1.0, 1.0], [-1.0, -1.0]) @ u, tol)
    return rows


def scenario_generator(seed, tol=1e-6):
    rows = []
    nil = CommutingTuple([np.array([[0.0, 1.0], [0.0, 0.0]])], [DOMAIN])
    _timed(rows, "generator", "nilpotent",
           lambda: generator_from_weighted_integrals(nil, 0, 1.0, tol=1e-12),
           nil.matrices[0], 1e-10)
    for i, a in enumerate(sectorial_bank(seed)):
        tup = CommutingTuple([a], [DOMAIN])
        _timed(rows, "generator", f"dim={a.shape[0]} i={i}",
               lambda t=tup: generator_from_weighted_integrals(t, 0, 1.0, tol=1e-9),
               a, tol)
    return rows


def scenario_fb_cauchy(seed, tol=1e-8):
    from .functionals import cauchy_transform

    rows = []
    rng = np.random.default_rng(seed)
    ps = ProductSector([SECT])
    etas = 0.4 + rng.uniform(0.2, 2.0, 3) * np.exp(1j * rng.uniform(-0.5, 0.5, 3))
    phi = Functional(ps, atoms=[([e], w) for e, w in
                                zip(etas, rng.standard_normal(3) + 0.2)])
    for i in range(20):
        ang = rng.uniform(np.pi / 4 + 0.3, 2 * np.pi - np.pi / 4 - 0.3)
        lam = rng.uniform(0.5, 4.0) * np.exp(1j * ang)
        ref = cauchy_transform(phi, [lam], route="measure")
        _timed(rows, "fb-cauchy", f"lam={lam:.3f}",
               lambda l=lam: cauchy_transform(phi, [l], route="fb", tol=1e-10),
               ref, tol)
    return rows


def _random_functional(rng, ps):
    atoms = []
    for _ in range(int(rng.integers(1, 3))):
        eta = [rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(-0.6, 0.6)
                                              * s.aperture / 2 + 1j * s.bisector_angle)
               for s in ps.sectors]
        atoms.append((eta, complex(rng.standard_normal() + 0.3,
                                   0.3 * rng.standard_normal())))
    densities = []
    if rng.random() < 0.5:
        d = bisector_density(ps, s=[1.0 + rng.uniform(0, 1.5) for _ in ps.sectors],
                             coeffs=[[rng.uniform(0.3, 1.0), rng.uniform(0, 0.5)]
                                     for _ in ps.sectors],
                             weight=rng.standard_normal() + 0.5)
        densities = d.densities
    return Functional(ps, atoms, densities, check_degree=False)


def scenario_convolution(seed, tol=1e-8):
    rows = []
    rng = np.random.default_rng(seed)
    ps = ProductSector([SECT])
    tup = CommutingTuple([random_sectorial_matrix(rng, 3)], [DOMAIN])
    fb_errs = []
    pair_errs = []
    fb_s = pair_s = 0.0
    for i in range(100):
        p1 = _random_functional(rng, ps)
        p2 = _random_functional(rng, ps)
        zs = rng.uniform(0.0, 1.5, (5, 1)) + 1j * rng.uniform(-0.3, 0.3, (5, 1))
        t0 = time.perf_counter()
        conv = convolve(p1, p2)
        fb_errs.append(float(np.max(np.abs(conv.fb(zs) - p1.fb(zs) * p2.fb(zs))
                                    / np.maximum(np.abs(p1.fb(zs) * p2.fb(zs)), 1e-300))))
        t1 = time.perf_counter()
        lhs = pair_semigroup(tup, [1.0], conv, "measure", tol=1e-10)
        rhs = pair_semigroup(tup, [1.0], p1, "measure", tol=1e-10) \
            @ pair_semigroup(tup, [1.0], p2, "measure", tol=1e-10)
        pair_errs.append(opnorm(lhs - rhs) / max(opnorm(rhs), 1e-300))
        fb_s += t1 - t0
        pair_s += time.perf_counter() - t1
    rows.append(ReportRow("convolution", "fb-multiplicativity max over 100 pairs",
                          max(fb_errs), 0.0, tol, "abs", wall_time=fb_s))
    rows.append(ReportRow("convolution", "pairing-multiplicativity max over 100 pairs",
                          max(pair_errs), 0.0, tol, "abs", wall_time=pair_s))
    return rows


def scenario_wn_route(seed, tol=1e-5):
    rows = []
    ps = ProductSector([SECT])
    phi = bisector_density(ps, s=[1.3], coeffs=[[1.0, 0.4]])
    f = exp_poly_function(ps, [1.0], [[0.2, 1.0]])
    ref = pair_function(f, phi, "measure", tol=1e-11)
    _timed(rows, "wn-route", "density phi, exp-poly f",
           lambda: pair_function(f, phi, "wn_limit", tol=1e-9), ref, tol)
    phi2 = dirac(ps, [0.8], 1.0)
    ref2 = pair_function(f, phi2, "measure", tol=1e-11)
    _timed(rows, "wn-route", "atomic phi, exp-poly f",
           lambda: pair_function(f, phi2, "wn_limit", tol=1e-9), ref2, tol)
    return rows


def scenario_calculus_k1(seed, tol=1e-6):
    rows = []
    tup = CommutingTuple([np.array([[-2.0]])], [DOMAIN])
    u1 = make_region([SECT[0]], [SECT[1]], [0.0])
    f = inverse_square(1, [1.0])
    _timed(rows, "calculus-k1", "inverse-square, cone",
           lambda: functional_calculus(f, tup, [1.0], u1, [0.25], tol=1e-9),
           np.array([[1.0 / 9.0]]), tol)
    u2 = make_region([SECT[0]], [SECT[1]], [0.0], kind="cone_minus_disk", radius=0.5)
    v1 = functional_calculus(f, tup, [1.0], u1, [0.25], tol=1e-9)
    _timed(rows, "calculus-k1", "contour independence",
           lambda: functional_calculus(f, tup, [1.0], u2, [0.5 + 0.1j], tol=1e-9),
           v1, 2e-6)
    u3 = make_region([-np.pi / 3], [np.pi / 3], [-0.2], kind="cone_minus_rect", s0=0.4, s1=0.3)
    _timed(rows, "calculus-k1", "contour independence on an intersection",
           lambda: functional_calculus(f, tup, [1.0], intersect_admissible(u2, u3), [0.25],
                                       tol=1e-9),
           v1, 2e-6)
    return rows


def scenario_calculus_k2(seed, tol=1e-6):
    rows = []
    tup = CommutingTuple([np.array([[-2.0]]), np.array([[-3.0]])], [DOMAIN] * 2)
    u = make_region([SECT[0]] * 2, [SECT[1]] * 2, [0.0, 0.0])
    f = inverse_square(2, [1.0, 1.0])
    _timed(rows, "calculus-k2", "separable inverse-square",
           lambda: functional_calculus(f, tup, [1.0, 1.0], u, [0.25, 0.25], tol=5e-9),
           np.array([[1.0 / 144.0]]), tol)
    u2 = make_region([SECT[0]] * 2, [SECT[1]] * 2, [0.0, 0.0],
                     kind="cone_minus_rect", s0=0.4, s1=0.3)
    v1 = functional_calculus(f, tup, [1.0, 1.0], u, [0.25, 0.25], tol=5e-9)
    _timed(rows, "calculus-k2", "contour independence",
           lambda: functional_calculus(f, tup, [1.0, 1.0], u2, [0.3, 0.2], tol=5e-9),
           v1, 2e-6)
    rng = np.random.default_rng(seed)
    t2 = random_commuting_tuple(rng, 2, 3, sector=DOMAIN)
    u3 = default_region(t2, [1.0, 1.0], ProductSector([SECT, SECT]))
    _timed(rows, "calculus-k2", "random 3x3 pair vs eigen oracle",
           lambda: spectral_map_check(f, t2, [1.0, 1.0], u3, tol=5e-9).max_eig_rel_err,
           0.0, tol, "abs")
    return rows


def scenario_calculus_k3(seed, tol=1e-6):
    rows = []
    rng = np.random.default_rng(seed)
    for k in (3, 4):
        for dim in (2, 4, 8):
            t = random_commuting_tuple(rng, k, dim, sector=DOMAIN)
            lam = [1.0] * k
            u = default_region(t, lam, ProductSector([SECT] * k))
            # poles one unit left of the vertex: outside U and its shift
            f = inverse_square(k, 1.0 - u.vertex)
            _timed(rows, "calculus-k3", f"random {dim}x{dim} {k}-tuple vs eigen oracle",
                   lambda f=f, t=t, lam=lam, u=u:
                   spectral_map_check(f, t, lam, u, tol=1e-9).matrix_rel_err,
                   0.0, tol, "abs")
    return rows


def scenario_special_cases(seed, tol=1e-6):
    rows = []
    tup = CommutingTuple([np.array([[-2.0]])], [DOMAIN])
    u = make_region([SECT[0]], [SECT[1]], [0.0])
    nu = 1.0
    fexp = exponential_function(1, nu)
    _timed(rows, "special-cases", "exponential reproduces the semigroup",
           lambda: functional_calculus_hinf(fexp, tup, [1.0], u, tol=1e-9),
           expm(tup.matrices[0], nu * 1.0), tol)
    fproj = projection_function(tup, [1.0], u, 0)
    _timed(rows, "special-cases", "projection reproduces the scaled generator",
           lambda: functional_calculus_smirnov(fproj, tup, [1.0], u, tol=1e-9),
           1.0 * tup.matrices[0], tol)
    rng = np.random.default_rng(seed)
    t3 = CommutingTuple([random_sectorial_matrix(rng, 3)], [DOMAIN])
    u3 = default_region(t3, [1.0], ProductSector([SECT]))
    fproj3 = projection_function(t3, [1.0], u3, 0)
    _timed(rows, "special-cases", "projection on a random 3x3",
           lambda: functional_calculus_smirnov(fproj3, t3, [1.0], u3, tol=1e-9),
           t3.matrices[0], tol)
    c = 2.5 - 1j  # the H^inf calculus is unital
    _timed(rows, "special-cases", "constant reproduces its multiple of the identity",
           lambda: functional_calculus_hinf(constant_function(1, c), t3, [1.0], u3, tol=1e-9),
           c * np.eye(3), tol)
    return rows


def scenario_spectral_mapping(seed, tol=1e-6):
    rows = []
    b = np.array([[0.0, 1.0], [-2.0, -3.0]])
    tup = CommutingTuple([b], [DOMAIN])
    u = default_region(tup, [1.0], ProductSector([SECT]))
    f = inverse_square(1, [1.0])
    _timed(rows, "spectral-mapping", "companion 2x2 eigen errors",
           lambda: spectral_map_check(f, tup, [1.0], u, tol=1e-9).max_eig_rel_err,
           0.0, tol, "abs")
    rng = np.random.default_rng(seed)
    for i in range(3):
        t = random_commuting_tuple(rng, 1, int(rng.integers(2, 6)), sector=DOMAIN)
        ur = default_region(t, [1.0], ProductSector([SECT]))
        _timed(rows, "spectral-mapping", f"random tuple {i}",
               lambda t=t, ur=ur:
               spectral_map_check(f, t, [1.0], ur, tol=1e-9).max_eig_rel_err,
               0.0, tol, "abs")
    return rows


def scenario_hardy(seed, tol=1e-8):
    rows = []
    regions = {
        "cone": make_region([SECT[0]], [SECT[1]], [0.0]),
        "cone_minus_disk": make_region([SECT[0]], [SECT[1]], [0.0],
                                       kind="cone_minus_disk", radius=0.5),
        "cone_minus_rect": make_region([SECT[0]], [SECT[1]], [0.0],
                                       kind="cone_minus_rect", s0=0.4, s1=0.6),
    }
    bank = [inverse_square(1, [1.0]), inverse_square(1, [2.0 + 0.3j])]
    for name, reg in regions.items():
        for f in bank:
            _timed(rows, "hardy", f"zero integral {f.label} on {name}",
                   lambda f=f, reg=reg: boundary_contour_integral(f, reg, [0.3], tol=1e-8),
                   0.0, 1e-7, "abs")
    _timed(rows, "hardy", "interior reproduction",
           lambda: interior_cauchy_value(inverse_square(1, [2.0]), regions["cone"],
                                         [0.5], [1.0], tol=1e-10),
           1.0 / 9.0, tol)
    uh = make_region([0.0], [0.0], [0.0])
    f1 = inverse_square(1, [1.0])
    grid = default_eps_grid(uh) + [np.array([1e-6 + 0j])]
    h1, secs = _clocked(lambda: h1_norm(f1, uh, eps_grid=grid, tol=1e-7))
    rows.append(ReportRow("hardy", "half-plane norm of the inverse square",
                          h1, np.pi, 1e-4, "abs", wall_time=secs))
    _timed(rows, "hardy", "pointwise bound ratio (<= 1 + 1e-3)",
           lambda: pointwise_bound_check(f1, uh, [[1.0], [2.0], [5.0]], norm_lower=h1)[0],
           1.0, 1e-3, "le")
    u1 = regions["cone"]
    _timed(rows, "hardy", "pointwise bound ratio on the cone",
           lambda: pointwise_bound_check(inverse_square(1, [1.0]), u1,
                                         [[1.0], [2.0], [4.0 + 0.5j]], tol=1e-6)[0],
           1.0, 1e-3, "le")
    # ||F(-lam A)|| <= (2 pi)^-1 sup ||R|| ||F||_H1 on a random 3x3
    t = random_commuting_tuple(np.random.default_rng(seed), 1, 3, sector=DOMAIN)
    ut = default_region(t, [1.0], ProductSector([SECT]))
    ft = inverse_square(1, 1.0 - ut.vertex)
    _timed(rows, "hardy", "boundedness estimate ratio (<= 1)",
           lambda: opnorm(functional_calculus(ft, t, [1.0], ut, [0.25], tol=1e-9))
           / ((2 * np.pi) ** -1 * resolvent_sup_on_contour(t, [1.0], ut, [0.25])
              * h1_norm(ft, ut)), 1.0, 1e-3, "le")
    return rows


def scenario_gaps(seed, tol=1e-8):
    rows = []
    _timed(rows, "gaps", "multiplication gap (1,2)",
           lambda: mult_semigroup_gap(1.0, 2.0), 0.25, tol, "abs")
    _timed(rows, "gaps", "multiplication gap (1,3) vs closed form",
           lambda: mult_semigroup_gap(1.0, 3.0),
           mult_semigroup_gap_closed_form(1.0, 3.0), tol, "abs")
    ts = np.round(np.arange(0.01, 0.2001, 0.01), 4)
    _timed(rows, "gaps", "shift gap min over t in [0.01, 0.2] at n=512",
           lambda: min(quasinilpotent_gap(512, float(t)) for t in ts),
           0.25, 0.0, "gt")
    return rows


def scenario_outer(seed, tol=1e-3):
    rows = []
    f = lambda s: (1.0 - s) / 2.0
    wit = WitnessSequence(tuple((lambda s, n=n: (1.0 + 1.0 / n - s) / 2.0)
                                for n in (1, 2, 4, 8, 16, 32, 64, 128, 256)))
    rr, th = np.meshgrid(np.linspace(0.05, 0.95, 12),
                         np.linspace(0.0, 2 * np.pi, 24, endpoint=False))
    grid = (rr * np.exp(1j * th)).ravel()
    bgrid = 0.999 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 128, endpoint=False))
    rep, secs = _clocked(lambda: strongly_outer_check(f, wit, grid, bgrid))
    rows.append(ReportRow("outer", "disk witness: domination",
                          rep.max_domination_violation, 0.0, 1e-12, "abs", wall_time=secs))
    rows.append(ReportRow("outer", "disk witness: quotient converges",
                          1.0 if rep.converges else 0.0, 1.0, 0.0, "abs", wall_time=secs))
    # conformal transport of the disk witnesses to a half-plane factor
    # 1/(zeta e^{i gamma} - m + 1) collapses to F_n = F + 1/(2n)
    fj = lambda p: 1.0 / (p * np.exp(1j * 0.0) - (-1.0) + 1.0)
    witj = WitnessSequence(tuple(
        (lambda p, n=n: fj(p) + 0.5 / n) for n in (1, 2, 4, 8, 16, 32, 64, 128, 256)))
    halfgrid = np.linspace(-0.5, 8.0, 40) + 0.3j
    repj, secs = _clocked(lambda: strongly_outer_check(fj, witj, halfgrid))
    rows.append(ReportRow("outer", "half-plane factor witness: domination",
                          repj.max_domination_violation, 0.0, 1e-9, "abs", wall_time=secs))
    rows.append(ReportRow("outer", "half-plane factor witness: quotient converges",
                          1.0 if repj.converges else 0.0, 1.0, 0.0, "abs", wall_time=secs))
    f_inner = lambda s: np.exp((s + 1.0) / (s - 1.0))
    (means, bmean), secs = _clocked(lambda: outer_diagnostic_disk(f_inner))
    rows.append(ReportRow("outer", "singular slice circle means stay at -1",
                          float(np.max(np.abs(means + 1.0))), 0.0, tol, "abs",
                          wall_time=secs))
    rows.append(ReportRow("outer", "singular slice boundary mean vanishes",
                          abs(bmean), 0.0, 1e-6, "abs", wall_time=secs))
    wit_inner = WitnessSequence(tuple(
        (lambda s, n=n: np.exp((s + 1.0 + 1.0 / n) / (s - 1.0 - 1.0 / n)))
        for n in (1, 2, 4, 8, 16)))
    rep_inner, secs = _clocked(
        lambda: strongly_outer_check(f_inner, wit_inner, np.linspace(0.0, 0.98, 50)))
    rows.append(ReportRow("outer", "singular slice fails the quotient condition",
                          0.0 if rep_inner.converges else 1.0, 1.0, 0.0, "abs",
                          wall_time=secs))
    return rows


def scenario_determinism(seed, tol=0.0):
    (rows1, rows2), secs = _clocked(
        lambda: (scenario_calculus_k1(seed), scenario_calculus_k1(seed)))
    same = all(_flatten(a.computed) == _flatten(b.computed)
               for a, b in zip(rows1, rows2))
    return [ReportRow("determinism", "repeated calculus-k1 runs byte-identical",
                      1.0 if same else 0.0, 1.0, 0.0, "abs", wall_time=secs)]


SCENARIOS = {
    "resolvent": scenario_resolvent,
    "generator": scenario_generator,
    "fb-cauchy": scenario_fb_cauchy,
    "convolution": scenario_convolution,
    "wn-route": scenario_wn_route,
    "calculus-k1": scenario_calculus_k1,
    "calculus-k2": scenario_calculus_k2,
    "calculus-k3": scenario_calculus_k3,
    "special-cases": scenario_special_cases,
    "spectral-mapping": scenario_spectral_mapping,
    "hardy": scenario_hardy,
    "gaps": scenario_gaps,
    "outer": scenario_outer,
    "determinism": scenario_determinism,
}


# ---------------------------------------------------------------------------
# file scenarios
# ---------------------------------------------------------------------------


def run_scenario_file(path, seed):
    with open(path) as fh:
        spec = json.load(fh)
    kind = spec.get("kind")
    name = spec.get("name", os.path.basename(path))
    tol = float(spec.get("tol", 1e-6))
    if kind == "calculus":
        tup = CommutingTuple.from_json(spec["tuple"])
        lam = complex_pairs(spec["lambda"], "lambda", 2)
        region = AdmissibleRegion.from_json(spec["region"])
        fdesc = spec["function"]
        if fdesc["type"] != "inverse_square":
            raise ValueError(f"unsupported function type {fdesc['type']!r}")
        shifts = fdesc["shifts"]
        if not isinstance(shifts, list):
            raise ValueError(f"'shifts' must be a list of one shift per axis, got {shifts!r}")
        f = inverse_square(tup.k, [complex_pairs(s, "shifts", 1) if isinstance(s, list) else s
                                   for s in shifts])
        eps = complex_pairs(spec["eps"], "eps", 2)
        if len(eps) != tup.k:
            raise ValueError(f"'eps' has {len(eps)} entries for {tup.k} axes")
        computed = functional_calculus(f, tup, lam, region, eps,
                                       tol=float(spec.get("quad_tol", 1e-9)))
        oracle = spec.get("oracle")
        if oracle is None:
            u = default_region(tup, lam, region.sectors)
            rep = spectral_map_check(f, tup, lam, u, computed=computed)
            return [ReportRow(name, "vs eigen oracle", rep.max_eig_rel_err, 0.0,
                              tol, "abs")]
        oracle = complex_pairs(oracle, "oracle", 3)
        if oracle.shape != (tup.dim, tup.dim):
            raise ValueError(f"'oracle' has shape {oracle.shape} for a {tup.dim}x{tup.dim} tuple")
        return [ReportRow(name, "vs stated oracle", computed, oracle, tol)]
    if kind == "resolvent":
        tup = CommutingTuple.from_json(spec["tuple"])
        lam = complex(complex_pairs(spec["lambda"], "lambda", 1))
        computed = resolvent_via_laplace(tup, 0, lam, 1.0,
                                         tol=float(spec.get("quad_tol", 1e-9)))
        oracle = np.linalg.inv(lam * np.eye(tup.dim) - tup.matrices[0])
        return [ReportRow(name, "laplace vs direct solve", computed, oracle, tol)]
    raise ValueError(f"unknown scenario kind {kind!r}")


def _rows_or_failure(name, run):
    """``run()``'s rows, or one failed row carrying the message of the
    computation failure that stopped it."""
    try:
        return run()
    except (QuadratureError, np.linalg.LinAlgError) as exc:
        return [ReportRow(name, f"computation failed: {exc}", float("nan"), float("nan"),
                          0.0, "error")]


def collect_rows(scenario, seed, tol_override=None):
    if scenario == "all":
        names = [n for n in SCENARIOS]
    elif scenario in SCENARIOS:
        names = [scenario]
    elif os.path.exists(scenario) or scenario.endswith(".json"):
        return _rows_or_failure(scenario, lambda: run_scenario_file(scenario, seed))
    else:
        raise KeyError(
            f"unknown scenario {scenario!r}; built-ins: {', '.join(SCENARIOS)} or a JSON file")
    rows = []
    for n in names:
        fn = SCENARIOS[n]
        rows.extend(_rows_or_failure(
            n, lambda: fn(seed) if tol_override is None else fn(seed, tol_override)))
    return rows


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def study_nodes():
    """Interior-reproduction error against the node density; the error must
    fall monotonically (with observed-order estimates)."""
    values = [1.0, 2.0, 4.0, 8.0]
    region = make_region([SECT[0]], [SECT[1]], [0.0])
    f = inverse_square(1, [2.0])
    point = np.array([1.0 + 0j])
    exact = f.at(point)
    g = product_function(f, separable_function([[lambda x: 1.0 / (point[0] - x)]]))
    errs = []
    for n in values:
        cq = ContourQuadrature.from_region(region, [0.5], n_per_unit=n)
        val = tensor_sum(g, cq)[0] / (2j * np.pi)
        errs.append(abs(val - exact))
    orders = [float("nan")]
    for a, b in zip(errs[:-1], errs[1:]):
        orders.append(np.log2(max(a, 1e-300) / max(b, 1e-300)))
    return values, errs, orders


def study_eps():
    """Shifted-argument evaluation of an atomic transform against the
    semigroup pairing: the shift-limit extrapolates to the pairing."""
    values = [2.0 ** -m for m in range(6)]
    ps = ProductSector([SECT])
    tup = CommutingTuple([np.array([[-2.0]])], [DOMAIN])
    phi = dirac(ps, [0.7], 1.0)
    ref = pair_semigroup(tup, [1.0], phi, "measure", tol=1e-11)
    vals = [phi.fb_at_tuple(tup, [1.0], [e * np.exp(-0j)]) for e in values]
    errs = [opnorm(v - ref) for v in vals]
    limit, _ = richardson(vals)
    final = opnorm(np.asarray(limit) - ref)
    return values, errs, final


def run_study(args):
    rows = []
    if args.sweep == "nodes":
        values, errs, orders = study_nodes()
        for v, e, o in zip(values, errs, orders):
            rows.append(ReportRow("study-nodes", f"n_per_unit={v} order={o:.2f}",
                                  e, 0.0, np.inf, "abs"))
        monotone = all(b < a for a, b in zip(errs[:-1], errs[1:]))
        rows.append(ReportRow("study-nodes", "errors decrease monotonically",
                              1.0 if monotone else 0.0, 1.0, 0.0, "abs"))
    elif args.sweep == "eps":
        values, errs, final = study_eps()
        for v, e in zip(values, errs):
            rows.append(ReportRow("study-eps", f"eps={v}", e, 0.0, np.inf, "abs"))
        rows.append(ReportRow("study-eps", "extrapolated limit matches the pairing",
                              final, 0.0, 1e-6, "abs"))
    else:
        raise ValueError(f"unknown sweep {args.sweep!r}; choose nodes or eps")
    return rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(prog="sectorcalc",
                                description="contour-calculus scenario runner")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("run", "study"):
        q = sub.add_parser(name)
        q.add_argument("--out", default="-", help="output path ('-' = stdout)")
        q.add_argument("--format", choices=("csv", "json"), default="csv")
        q.add_argument("--timings", action="store_true",
                       help="include wall-clock times in the report "
                            "(breaks byte-identical reruns)")
        if name == "run":
            q.add_argument("--scenario", default="all",
                           help="built-in name, 'all', or a JSON scenario file")
            q.add_argument("--tol-override", type=float, default=None)
            q.add_argument("--seed", type=int, default=42)
        else:
            q.add_argument("--sweep", choices=("nodes", "eps"), default="nodes")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            rows = collect_rows(args.scenario, args.seed, args.tol_override)
        else:
            rows = run_study(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed scenario JSON: {exc.msg} at line {exc.lineno} "
              f"column {exc.colno}", file=sys.stderr)
        return 2
    except (QuadratureError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_report(rows, args.out, args.format, args.timings)
    failures = [r for r in rows if not r.passed]
    for r in rows:
        if r.check == "error":
            print(f"error: {r.scenario}: {r.case}", file=sys.stderr)
            continue
        err = r.rel_err if r.check == "rel" else r.abs_err
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.scenario}: {r.case} "
              f"({r.check}_err={err:.3e}, wall={r.wall_time:.3f}s)", file=sys.stderr)
    if any(r.check == "error" for r in rows):
        return 3
    if failures:
        print(f"{len(failures)} scenario rows failed their tolerances", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
