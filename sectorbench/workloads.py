"""Seeded inputs, timed operations and independent checks of the three
benchmark workloads.

Each workload is built by ``build(name, seed)`` into a :class:`Workload`:
a list of operations (each one library call on inputs fixed at set-up)
and a list of checks.  A check compares the results of one or more
operations against a value computed apart from the method under test (an
eigen-decomposition oracle, ``scipy.linalg.expm``, a direct solve or a
closed form) or against a property the method must have (contour
independence, the convolution homomorphism, Cauchy's theorem).  No check
compares against a stored copy of an earlier output.

Input shapes are fixed per workload and only values are drawn from the
seed, so every seed asks for the same amount of work: the calculus-grid
regions are built with ``default_region(..., margin=2.0)``, which keeps
the scaled spectrum far enough from the contour that every cell converges
in the same number of refinement rounds on every seed (with the default
margin 1.0 the second-round difference straddles the tolerance and the
round count flips between 2 and 3 with the seed, moving a cell's cost by
up to a factor of two).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from sectorcalc import (CommutingTuple, Functional, ProductSector,
                        bisector_density, convolve, default_region,
                        exponential_function, functional_calculus,
                        functional_calculus_hinf, functional_calculus_smirnov,
                        generator_from_weighted_integrals, h1_norm,
                        interior_cauchy_value, inverse_square, make_region,
                        mult_semigroup_gap, mult_semigroup_gap_closed_form,
                        pair_semigroup, pointwise_bound_check,
                        projection_function, quasinilpotent_gap,
                        resolvent_via_laplace)
from sectorcalc.calculus import (boundary_abs_integral,
                                 boundary_contour_integral, default_eps_grid)

DOMAIN = (-np.pi / 2 + 0.05, np.pi / 2 - 0.05)
SECT = (-np.pi / 4, np.pi / 4)
CALC_TOL = 1e-9

# Check limits.  Each is far above the error the method reaches on these
# inputs (about 1e-12 relative for the calculus, 1e-11 for the pairings)
# and far below a wrong answer: the self-test feeds a relative error of
# 1.0 and a pairing perturbed by 1e-6, and both must fail.
CALC_REL = 1e-7
QUOTIENT_REL = 1e-7
PAIR_REL = 1e-8
ORBIT_REL = 1e-8


@dataclass
class Op:
    """One timed library call; ``k`` is its number of axes (0 for the
    gap scenarios) and ``reps`` how often a round repeats it, so short
    operations get more samples."""

    name: str
    k: int
    fn: object
    reps: int = 1


@dataclass
class Check:
    """``fn(*results of ops)`` returns an error that must be finite and at
    most ``limit``."""

    name: str
    ops: tuple
    fn: object
    limit: float


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    warm: dict = field(default_factory=dict)  # warm-up results, by op name

    def op(self, name, k, fn, reps=1):
        self.ops.append(Op(name, k, fn, reps))

    def check(self, name, ops, fn, limit):
        self.checks.append(Check(name, tuple(ops), fn, limit))


def matrix_rel_err(computed, oracle):
    computed = np.asarray(computed, dtype=complex)
    oracle = np.asarray(oracle, dtype=complex)
    return float(np.linalg.norm(computed - oracle, 2)
                 / max(np.linalg.norm(oracle, 2), 1e-300))


def scalar_rel_err(computed, oracle):
    return abs(complex(computed) - complex(oracle)) / max(abs(complex(oracle)), 1e-300)


def transform_defect(conv, phi1, phi2, zs):
    """Relative defect of ``fb(phi1 * phi2) = fb(phi1) fb(phi2)`` at ``zs``,
    from the closed-form transforms."""
    prod = phi1.fb(zs) * phi2.fb(zs)
    return float(np.max(np.abs(conv.fb(zs) - prod)) / max(np.max(np.abs(prod)), 1e-300))


def cauchy_lower_bound(F, region, samples):
    """``max (2 pi)^k |F(p)| prod_j dist(p_j, boundary)`` over interior
    samples: the Cauchy estimate, a lower bound of the H1 norm."""
    best = 0.0
    for p in samples:
        p = np.asarray(p, dtype=complex)
        dist = np.prod([ax.boundary_distance(p[j]) for j, ax in enumerate(region.axes)])
        best = max(best, (2 * np.pi) ** region.k * abs(F.at(p)) * dist)
    return best


def homomorphism_err(p1, p2, p12):
    """Relative defect of ``pairing(phi1 * phi2) = pairing(phi1) pairing(phi2)``."""
    return matrix_rel_err(p12, np.asarray(p1) @ np.asarray(p2))


def evaluate_checks(checks, results):
    """Errors of every check on one round's results: ``{name: (err, ok)}``."""
    out = {}
    for c in checks:
        args = [results[o] for o in c.ops]
        if any(a is None for a in args):
            continue
        err = float(c.fn(*args))
        out[c.name] = (err, bool(np.isfinite(err) and err <= c.limit))
    return out


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------


def _eigen_tuple(rng, k, dim, basis_spread=0.3):
    """Commuting diagonalizable tuple with a known eigenbasis: returns the
    tuple, the basis ``V`` and the per-axis eigenvalues."""
    v = np.eye(dim) + basis_spread * (rng.standard_normal((dim, dim))
                                      + 1j * rng.standard_normal((dim, dim)))
    vinv = np.linalg.inv(v)
    mus = [rng.uniform(-3.0, -0.5, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
           for _ in range(k)]
    tup = CommutingTuple([v @ np.diag(mu) @ vinv for mu in mus], [DOMAIN] * k)
    return tup, v, vinv, mus


def _scalings(rng, k):
    """Scalings ``lam_j = r e^{i theta}`` inside the admissible window."""
    return rng.uniform(0.8, 1.25, k) * np.exp(1j * rng.uniform(-0.2, 0.2, k))


def _eigen_oracle(F, v, vinv, mus, lam):
    """``V diag(F(-lam o mu)) V^{-1}``, from how the tuple was built."""
    pts = np.stack([-lam[j] * mus[j] for j in range(len(mus))], axis=1)
    return v @ np.diag(F(pts)) @ vinv


def _functional(rng, ps, s_range):
    """One atom plus one degree-1 bisector density with exponents drawn
    from ``s_range``, values from ``rng``."""
    k = ps.k
    eta = [rng.uniform(0.2, 2.0) * np.exp(1j * rng.uniform(-0.3, 0.3)) for _ in range(k)]
    atoms = [(eta, complex(rng.standard_normal() + 0.3, 0.3 * rng.standard_normal()))]
    dens = bisector_density(ps, s=[rng.uniform(*s_range) for _ in range(k)],
                            coeffs=[[rng.uniform(0.3, 1.0), rng.uniform(0.0, 0.5)]
                                    for _ in range(k)],
                            weight=rng.standard_normal() + 0.5)
    return Functional(ps, atoms, dens.densities, check_degree=False)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def calculus_grid(seed):
    """``functional_calculus`` at tol 1e-9 over k in {1,2} x dim in {2,4,8},
    the bounded and quotient extensions at k=1, and one contour
    independence cell per k."""
    rng = np.random.default_rng(seed)
    w = Workload("calculus-grid")
    for k in (1, 2):
        ps = ProductSector([SECT] * k)
        for dim in (2, 4, 8):
            tup, v, vinv, mus = _eigen_tuple(rng, k, dim)
            lam = _scalings(rng, k)
            region = default_region(tup, lam, ps, margin=2.0)
            # poles one unit left of the vertex: outside U and U + eps
            F = inverse_square(k, 1.0 - region.vertex)
            eps = np.full(k, 0.25 + 0j)
            name = f"calculus k{k} d{dim}"
            w.op(name, k, lambda F=F, t=tup, l=lam, r=region, e=eps:
                 functional_calculus(F, t, l, r, e, tol=CALC_TOL), reps=3 if k == 1 else 1)
            oracle = _eigen_oracle(F, v, vinv, mus, lam)
            w.check(f"{name} vs eigen oracle", [name],
                    lambda x, o=oracle: matrix_rel_err(x, o), CALC_REL)
            if (k, dim) in ((1, 4), (2, 2)):
                region2 = make_region([SECT[0]] * k, [SECT[1]] * k, region.vertex,
                                      kind="cone_minus_rect", s0=0.4, s1=0.3)
                eps2 = np.full(k, 0.4 * np.exp(0.2j))
                name2 = f"calculus k{k} d{dim} second contour"
                w.op(name2, k, lambda F=F, t=tup, l=lam, r=region2, e=eps2:
                     functional_calculus(F, t, l, r, e, tol=CALC_TOL), reps=3 if k == 1 else 1)
                w.check(f"{name2} vs first contour", [name2, name],
                        lambda x, y: matrix_rel_err(x, y), CALC_REL)
                w.check(f"{name2} vs eigen oracle", [name2],
                        lambda x, o=oracle: matrix_rel_err(x, o), CALC_REL)
            if k == 1:
                nu = rng.uniform(0.5, 1.0)
                fexp = exponential_function(1, nu)
                hname = f"hinf exp k1 d{dim}"
                w.op(hname, 1, lambda f=fexp, t=tup, l=lam, r=region:
                     functional_calculus_hinf(f, t, l, r, tol=CALC_TOL), reps=3)
                expo = scipy.linalg.expm(nu * lam[0] * tup.matrices[0])
                w.check(f"{hname} vs scipy expm", [hname],
                        lambda x, o=expo: matrix_rel_err(x, o), QUOTIENT_REL)
                fproj = projection_function(tup, lam, region, 0)
                sname = f"smirnov projection k1 d{dim}"
                w.op(sname, 1, lambda f=fproj, t=tup, l=lam, r=region:
                     functional_calculus_smirnov(f, t, l, r, tol=CALC_TOL), reps=3)
                w.check(f"{sname} vs lam A", [sname],
                        lambda x, o=lam[0] * tup.matrices[0]: matrix_rel_err(x, o),
                        QUOTIENT_REL)
    return w


def orbit_pairing(seed):
    """Semigroup-side operations: measure-route pairings of random
    functionals and of their convolutions, the Laplace resolvent, generator
    recovery from weighted orbit integrals, and the two gap scenarios."""
    rng = np.random.default_rng(seed)
    w = Workload("orbit-pairing")
    for k, dim, triples in ((1, 3, 6), (2, 3, 2)):
        ps = ProductSector([SECT] * k)
        tup = _eigen_tuple(rng, k, dim)[0]
        lam = [1.0] * k
        for i in range(triples):
            # disjoint exponent ranges: convolve's partial fractions lose
            # accuracy as the two exponents approach each other
            p1, p2 = _functional(rng, ps, (1.25, 1.75)), _functional(rng, ps, (2.0, 2.5))
            tag = f"k{k} triple {i}"
            w.op(f"convolve {tag}", k, lambda a=p1, b=p2: convolve(a, b), reps=5)
            zs = rng.uniform(0.0, 1.5, (5, k)) + 1j * rng.uniform(-0.3, 0.3, (5, k))
            w.check(f"convolve {tag} transform multiplicative", [f"convolve {tag}"],
                    lambda c, a=p1, b=p2, z=zs: transform_defect(c, a, b, z), PAIR_REL)
            conv = convolve(p1, p2)
            for part, phi in (("phi1", p1), ("phi2", p2), ("phi1*phi2", conv)):
                w.op(f"pair {part} {tag}", k, lambda t=tup, l=lam, f=phi:
                     pair_semigroup(t, l, f, "measure", tol=1e-10))
            w.check(f"homomorphism {tag}",
                    [f"pair phi1 {tag}", f"pair phi2 {tag}", f"pair phi1*phi2 {tag}"],
                    homomorphism_err, PAIR_REL)
    for dim in (2, 4, 6):
        tup = _eigen_tuple(rng, 1, dim)[0]
        a = tup.matrices[0]
        lam = rng.uniform(1.5, 2.0)
        rname = f"laplace resolvent d{dim}"
        w.op(rname, 1, lambda t=tup, l=lam: resolvent_via_laplace(t, 0, l, 1.0, tol=1e-9))
        direct = np.linalg.solve(lam * np.eye(dim) - a, np.eye(dim))
        w.check(f"{rname} vs direct solve", [rname],
                lambda x, o=direct: matrix_rel_err(x, o), ORBIT_REL)
        gname = f"generator recovery d{dim}"
        w.op(gname, 1, lambda t=tup: generator_from_weighted_integrals(t, 0, 1.5, tol=1e-9))
        w.check(f"{gname} vs A", [gname], lambda x, o=a: matrix_rel_err(x, o), ORBIT_REL)
    for i in range(2):
        t = rng.uniform(0.5, 1.5)
        s = t + rng.uniform(0.5, 2.0)
        name = f"multiplication gap {i}"
        w.op(name, 0, lambda t=t, s=s: mult_semigroup_gap(t, s), reps=5)
        w.check(f"{name} vs closed form", [name],
                lambda x, o=mult_semigroup_gap_closed_form(t, s): abs(x - o), 1e-8)
    for i in range(2):
        t = float(rng.uniform(0.01, 0.2))
        name = f"shift gap {i}"
        w.op(name, 0, lambda t=t: quasinilpotent_gap(512, t))
        w.check(f"{name} above 1/4", [name], lambda x: 0.25 - x, 0.0)
    return w


def boundary_scalar(seed):
    """Scalar boundary integrals through ``tensor_sum``: H1 norms over the
    default shift grid, Cauchy's theorem, interior reproduction, absolute
    boundary integrals and the pointwise bound."""
    rng = np.random.default_rng(seed)
    w = Workload("boundary-scalar")
    half1 = make_region([0.0], [0.0], [0.0])
    cone1 = make_region([SECT[0]], [SECT[1]], [0.0])
    half2 = make_region([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    cone2 = make_region([SECT[0]] * 2, [SECT[1]] * 2, [0.0, 0.0])

    s = rng.uniform(0.8, 1.25)
    f_half = inverse_square(1, [s])
    grid = default_eps_grid(half1) + [np.array([1e-6 + 0j])]
    w.op("h1 norm halfplane k1", 1, lambda: h1_norm(f_half, half1, eps_grid=grid, tol=1e-7))
    w.check("h1 norm halfplane k1 vs pi/s", ["h1 norm halfplane k1"],
            lambda x: scalar_rel_err(x, np.pi / (s + 1e-6)), 1e-4)
    s_cone = rng.uniform(0.8, 1.25) + 1j * rng.uniform(-0.3, 0.3)
    f_cone = inverse_square(1, [s_cone])
    w.op("h1 norm cone k1", 1, lambda: h1_norm(f_cone, cone1, tol=1e-7))
    samples_half = [[x] for x in rng.uniform(0.2, 5.0, 3) + 1j * rng.uniform(-2.0, 2.0, 3)]
    samples_cone = [[x] for x in rng.uniform(1.0, 4.0, 3) * np.exp(1j * rng.uniform(-0.5, 0.5, 3))]
    w.check("h1 norm cone k1 above the Cauchy estimate", ["h1 norm cone k1"],
            lambda x: cauchy_lower_bound(f_cone, cone1, samples_cone) / x - 1.0, 1e-3)

    # the pointwise bound takes its norm from the untimed warm-up pass
    for tag, F, region, samples, src in (
            ("halfplane", f_half, half1, samples_half, "h1 norm halfplane k1"),
            ("cone", f_cone, cone1, samples_cone, "h1 norm cone k1")):
        name = f"pointwise bound {tag} k1"
        w.op(name, 1, lambda F=F, r=region, p=samples, src=src:
             pointwise_bound_check(F, r, p, norm_lower=w.warm[src])[0], reps=5)
        w.check(f"{name} ratio <= 1 + 1e-3", [name], lambda x: x - 1.0, 1e-3)

    e1 = rng.uniform(0.2, 0.6) * np.exp(1j * rng.uniform(-0.5, 0.5))
    w.op("zero integral cone k1", 1,
         lambda: boundary_contour_integral(f_cone, cone1, [e1], tol=1e-9), reps=5)
    w.check("zero integral cone k1 (Cauchy)", ["zero integral cone k1"], abs, 1e-7)
    point1 = rng.uniform(2.3, 2.7)
    w.op("interior value cone k1", 1,
         lambda: interior_cauchy_value(f_cone, cone1, [0.5], [point1], tol=1e-10), reps=5)
    w.check("interior value cone k1 vs F(point)", ["interior value cone k1"],
            lambda x: scalar_rel_err(x, f_cone.at([point1])), 1e-8)
    e_half = rng.uniform(0.05, 0.5)
    w.op("abs integral halfplane k1", 1,
         lambda: boundary_abs_integral(f_half, half1, [e_half], tol=1e-7), reps=5)
    w.check("abs integral halfplane k1 vs pi/(s+eps)", ["abs integral halfplane k1"],
            lambda x: scalar_rel_err(x, np.pi / (s + e_half)), 1e-5)

    s2 = rng.uniform(0.8, 1.25, 2)
    f2 = inverse_square(2, s2)
    e2 = rng.uniform(0.05, 0.5, 2)
    w.op("abs integral halfplane k2", 2,
         lambda: boundary_abs_integral(f2, half2, e2, tol=1e-7))
    w.check("abs integral halfplane k2 vs closed form", ["abs integral halfplane k2"],
            lambda x: scalar_rel_err(x, np.pi ** 2 / np.prod(s2 + e2)), 1e-5)
    s2c = s2 + 1j * rng.uniform(-0.3, 0.3, 2)
    f2c = inverse_square(2, s2c)
    e2c = rng.uniform(0.2, 0.6, 2) * np.exp(1j * rng.uniform(-0.5, 0.5, 2))
    w.op("zero integral cone k2", 2,
         lambda: boundary_contour_integral(f2c, cone2, e2c, tol=1e-9))
    w.check("zero integral cone k2 (Cauchy)", ["zero integral cone k2"], abs, 1e-7)
    point2 = rng.uniform(2.3, 2.7, 2)
    w.op("interior value cone k2", 2,
         lambda: interior_cauchy_value(f2c, cone2, [0.5, 0.5], point2, tol=1e-9))
    w.check("interior value cone k2 vs F(point)", ["interior value cone k2"],
            lambda x: scalar_rel_err(x, f2c.at(point2)), 1e-7)
    return w


def build(name, seed):
    return {"calculus-grid": calculus_grid,
            "orbit-pairing": orbit_pairing,
            "boundary-scalar": boundary_scalar}[name](seed)


# ---------------------------------------------------------------------------
# self-test of the checks
# ---------------------------------------------------------------------------


def self_test():
    """Feed the checks known-wrong results; every case must be rejected.

    1. The silent wrong value of ``functional_calculus`` when F's pole lies
       inside U: seed 0, k=1, dim 2, ``inverse_square(1, [1.0])``, eps 0.25.
       The eigen oracle is taken from ``numpy.linalg.eig`` here, since the
       library's own tuple generator does not expose its basis.
    2. A pairing perturbed by 1e-6 (relative, in the operator norm) in the
       convolution homomorphism check.

    A third case feeds the unperturbed pairing, which must be accepted.
    Returns a list of ``(case, error, passed)``.
    """
    from sectorcalc.semigroups import random_commuting_tuple

    out = []
    tup = random_commuting_tuple(np.random.default_rng(0), 1, 2, DOMAIN)
    region = default_region(tup, [1.0], ProductSector([SECT]))
    F = inverse_square(1, [1.0])
    try:
        wrong = functional_calculus(F, tup, [1.0], region, [0.25], tol=CALC_TOL)
    except (ValueError, ArithmeticError, RuntimeError):
        wrong = None  # a library that refuses this input leaves nothing silent to feed
    if wrong is not None:
        mu, v = np.linalg.eig(tup.matrices[0])
        oracle = v @ np.diag(F(-mu[:, None])) @ np.linalg.inv(v)
        err = matrix_rel_err(wrong, oracle)
        out.append(("pole inside U, seed 0 k=1 dim 2", err, not err <= CALC_REL))
    ps = ProductSector([SECT])
    rng = np.random.default_rng(1)
    tup = _eigen_tuple(rng, 1, 3)[0]
    p1, p2 = _functional(rng, ps, (1.25, 1.75)), _functional(rng, ps, (2.0, 2.5))
    a = pair_semigroup(tup, [1.0], p1, "measure", tol=1e-10)
    b = pair_semigroup(tup, [1.0], p2, "measure", tol=1e-10)
    c = pair_semigroup(tup, [1.0], convolve(p1, p2), "measure", tol=1e-10)
    c_bad = c + 1e-6 * np.linalg.norm(c, 2) * np.eye(3)
    err = homomorphism_err(a, b, c_bad)
    out.append(("pairing perturbed by 1e-6", err, not err <= PAIR_REL))
    err_ok = homomorphism_err(a, b, c)
    out.append(("unperturbed pairing is accepted", err_ok, err_ok <= PAIR_REL))
    return out
