"""Discretization constants are not options: no public entry point takes
the round limit, a limit route's starting shift, a tolerance, a sample
count, an anchor or a seed that no caller sets (or that its body never
reads), and the round limit ``_MAX_ROUNDS`` stops every adaptive
quadrature.  No public function is reached by tests alone: each feeds the
library, a report row or a benchmark workload."""

import ast
import inspect
from pathlib import Path

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
    (q.ray_integral, {"max_rounds", "decay", "start", "direction"}),
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
    (sg._n_set_class, {"tol"}),
    (fn.Functional.from_json, {"sectors"}),
    (fn.Functional.fb, {"check_domain"}),
    (q.richardson, {"ratio"}),
    (fn.fb_of_orbit, {"route"}),
]


@pytest.mark.parametrize("fun, options", DELETED, ids=[f.__qualname__ for f, _ in DELETED])
def test_no_deleted_option_is_accepted(fun, options):
    assert not options & set(inspect.signature(fun).parameters)


def test_the_deleted_options_number_42():
    assert sum(len(options) for _, options in DELETED) == 42


def test_the_wrappers_are_gone():
    for mod in (sectorcalc, sg, fn):
        assert not hasattr(mod, "GrowthProfile") and not hasattr(mod, "FBDomainInfo")


def test_per_axis_points_have_one_checker():
    # the calculus presets read their shifts and angles through geometry.per_axis
    assert not hasattr(ca, "_per_axis") and hasattr(g, "per_axis")


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
            q.ray_integral(_counted(lambda t: 1.0 / (1.0 + t), calls), rate=1.0, tol=1e-12)
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


LIBRARY = ("geometry", "quadrature", "semigroups", "functionals", "calculus")
# kept without a caller: the dense reference quasinilpotent_gap is tested against
TEST_REFERENCES = {"shift_matrix"}


def test_every_public_function_has_a_caller():
    # a top-level public def or class of the library modules must be used,
    # as a name or an attribute, outside its own definition and __init__.py:
    # by library code, a CLI scenario or a sectorbench workload
    src = Path(q.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "sectorbench"
    files = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(bench.glob("*.py"))
    defined, used = {}, set()
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            owner = getattr(stmt, "name", None)
            if path.stem in LIBRARY and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not owner.startswith("_"):
                defined[owner] = path.stem
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and (name != owner or path.stem != defined.get(name)):
                    used.add(name)
    assert bench.is_dir() and len(defined) > 50
    unused = sorted(set(defined) - used - TEST_REFERENCES)
    assert not unused, f"public functions reached by tests alone: {unused}"
