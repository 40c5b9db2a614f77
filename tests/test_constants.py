"""Discretization constants are not options: no public entry point takes
the round limit, a limit route's starting shift, a tolerance, a sample
count, an anchor or a seed that no caller sets (or that its body never
reads), and the round limit ``_MAX_ROUNDS`` stops every adaptive
quadrature."""

import inspect

import numpy as np
import pytest

import sectorcalc
from sectorcalc import calculus as ca
from sectorcalc import cli
from sectorcalc import functionals as fn
from sectorcalc import geometry as g
from sectorcalc import quadrature as q
from sectorcalc import semigroups as sg
from sectorcalc.geometry import ProductSector

SECT = (-np.pi / 4, np.pi / 4)

# each function with the options it no longer takes
DELETED = [
    (q.refine, {"max_rounds"}),
    (q.adaptive_contour, {"max_rounds"}),
    (q.integrate, {"max_rounds"}),
    (q.ray_integral, {"max_rounds"}),
    (ca.functional_calculus, {"max_rounds"}),
    (ca._calculus_batch, {"max_rounds"}),
    (ca.functional_calculus_hinf, {"max_rounds"}),
    (ca.functional_calculus_smirnov, {"max_rounds"}),
    (ca.boundary_abs_integral, {"max_rounds"}),
    (ca._abs_integrals, {"max_rounds"}),
    (fn._tensor_density_integral, {"max_rounds"}),
    (fn.pair_function, {"eps0", "eta0"}),
    (fn.pair_semigroup, {"eps0", "z"}),
    (sg.mult_semigroup_gap, {"grid", "refine_tol"}),
    (ca.strongly_outer_check, {"slack", "decrease_slack"}),
    (ca.check_admissible_for, {"tol"}),
    (ca.joint_eigensystem, {"tol"}),
    (ca.projection_witness, {"margin"}),
    (fn.Functional.domain_contains, {"margin"}),
    (g.AdmissibleRegion.validate, {"n_offsets"}),
    (g.AxisRegion.sample_boundary, {"per_piece"}),
    (ca._sample_points, {"n_boundary"}),
    (cli._random_functional, {"allow_density"}),
    (cli.sectorial_bank, {"count", "max_dim"}),
    (cli.study_nodes, {"values"}),
    (cli.study_eps, {"values", "seed"}),
    (sg.random_sectorial_matrix, {"im_range"}),
    (sg.random_commuting_tuple, {"re_range"}),
    (sg.n_set_classify, {"tol"}),
    (sg._n_set_class, {"tol"}),
    (g.sup_points, {"tol"}),
    (fn.Functional.from_json, {"sectors"}),
]


@pytest.mark.parametrize("fun, options", DELETED, ids=[f.__qualname__ for f, _ in DELETED])
def test_no_deleted_option_is_accepted(fun, options):
    assert not options & set(inspect.signature(fun).parameters)


def test_the_deleted_options_number_38():
    assert sum(len(options) for _, options in DELETED) == 38


def test_the_wrappers_are_gone():
    for mod in (sectorcalc, sg, fn):
        assert not hasattr(mod, "GrowthProfile") and not hasattr(mod, "FBDomainInfo")


def _counted(fun, calls):
    def wrapped(*args):
        calls.append(1)
        return fun(*args)
    return wrapped


@pytest.fixture
def three_rounds(monkeypatch):
    monkeypatch.setattr(q, "_MAX_ROUNDS", 3)


@pytest.mark.usefixtures("three_rounds")
class TestRoundLimit:
    def test_ray_integral(self):
        calls = []
        with pytest.raises(q.ConvergenceError, match="ray integral .* in 3 rounds"):
            q.ray_integral(_counted(lambda t: 1.0 / (1.0 + t), calls), 0.0, 1.0, tol=1e-12)
        assert len(calls) == 3

    def test_adaptive_contour(self):
        calls = []
        cq = q.ContourQuadrature.from_region(g.make_region([SECT[0]], [SECT[1]], [0.0]), [0.5])
        with pytest.raises(q.ConvergenceError, match="contour integral .* in 3 rounds"):
            q.adaptive_contour(_counted(lambda c: (float(c.n_per_unit), np.inf), calls), cq, 0.5)
        assert len(calls) == 3

    def test_tensor_density_integral(self):
        calls = []
        d = fn.bisector_density(ProductSector([SECT])).densities[0]
        with pytest.raises(q.ConvergenceError, match="tensor density integral .* in 3 rounds"):
            fn._tensor_density_integral(_counted(lambda p: np.exp(0.99 * p[:, 0]), calls),
                                        d, 1e-9)
        assert len(calls) == 3


def test_the_round_limit_is_8():
    assert q._MAX_ROUNDS == 8


def test_atomic_domain_anchors_lie_in_the_domain():
    phi = fn.dirac(ProductSector([SECT] * 2), [1.0, 0.5])
    anchors = phi.domain_anchors()
    assert anchors and all(len(a) == 2 for a in anchors)
    assert all(phi.domain_contains(a) for a in anchors)
