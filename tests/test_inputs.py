"""The two calculus inputs besides F and the tuple, each checked by one owner.

``semigroups._validate_lambda`` is the only place the scalings ``lam``
become an array, and ``quadrature._check_shift`` the only place a contour
shift ``eps`` does.  Every public entry point calls its owner before it
touches the value: a malformed ``lam`` raises ``SectorDomainError``, a
malformed ``eps`` raises ``QuadratureError``, and neither gets as far as
any arithmetic that could warn.
"""

import warnings

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
NAN, INF = float("nan"), float("inf")


def _setup(k):
    """The tuple, region, decaying function and functional of ``k`` axes."""
    tup = sg.random_commuting_tuple(np.random.default_rng(0), k, 2, DOM)
    u = ca.default_region(tup, [1.0] * k, ProductSector([SECT] * k))
    f = ca.inverse_square(k, [3.0] * k)
    phi = fn.bisector_density(ProductSector([SECT] * k))
    proj = ca.projection_function(tup, [1.0] * k, u)
    return tup, u, f, phi, proj


SETUPS = {k: _setup(k) for k in (1, 2)}


def _lambda_calls(k, lam):
    """Every public entry point that takes the scalings ``lam``."""
    tup, u, f, phi, proj = SETUPS[k]
    ps = ProductSector([SECT] * k)
    ones = np.ones(k)
    return {
        "functional_calculus": lambda: ca.functional_calculus(f, tup, lam, u, ca._default_eps(u)),
        "hinf": lambda: ca.functional_calculus_hinf(ca.constant_function(k, 1.0), tup, lam, u),
        "smirnov": lambda: ca.functional_calculus_smirnov(proj, tup, lam, u),
        "spectral_map_check": lambda: ca.spectral_map_check(f, tup, lam, u),
        "projection_function": lambda: ca.projection_function(tup, lam, u),
        "resolvent_sup_on_contour": lambda: ca.resolvent_sup_on_contour(
            tup, lam, u, ca._default_eps(u)),
        "default_region": lambda: ca.default_region(tup, lam, ps),
        "anchor_for": lambda: fn.anchor_for(tup, lam, ps),
        "pair_semigroup": lambda: fn.pair_semigroup(tup, lam, phi, "measure"),
        "fb_of_orbit resolvent": lambda: fn.fb_of_orbit(tup, lam, 0 * ones, 3 * ones, ones),
        "fb_of_orbit integral": lambda: fn.fb_of_orbit(tup, lam, 0 * ones, 3 * ones, ones,
                                                       "integral"),
        "fb_at_tuple": lambda: phi.fb_at_tuple(tup, lam),
        "resolvent_product": lambda: sg.resolvent_product(tup, lam, 3 * ones),
    }


def _shift_calls(k, eps):
    """Every public entry point that takes a contour shift ``eps``."""
    tup, u, f, phi, proj = SETUPS[k]
    lam = [1.0] * k
    return {
        "functional_calculus": lambda: ca.functional_calculus(f, tup, lam, u, eps),
        "hinf": lambda: ca.functional_calculus_hinf(ca.constant_function(k, 1.0), tup, lam, u,
                                                    eps=eps),
        "smirnov": lambda: ca.functional_calculus_smirnov(proj, tup, lam, u, eps=eps),
        "resolvent_sup_on_contour": lambda: ca.resolvent_sup_on_contour(tup, lam, u, eps),
        "boundary_contour_integral": lambda: ca.boundary_contour_integral(f, u, eps),
        "interior_cauchy_value": lambda: ca.interior_cauchy_value(f, u, eps, [1.0] * k),
        "boundary_abs_integral": lambda: ca.boundary_abs_integral(f, u, eps),
        "h1_norm": lambda: ca.h1_norm(f, u, eps_grid=[eps]),
        "from_region": lambda: q.ContourQuadrature.from_region(u, eps),
        "fb_at_tuple": lambda: phi.fb_at_tuple(tup, lam, eps),
    }


def _raises_only(kind, call):
    """``call()`` raises exactly ``kind`` (no subclass), and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as info:
            call()
    assert type(info.value) is kind, f"{type(info.value).__name__}: {info.value}"
    return str(info.value)


class TestTypedRefusals:
    @pytest.mark.parametrize("name", sorted(_lambda_calls(2, None)))
    @pytest.mark.parametrize("lam, message", [
        ([1.0], "one lambda and one sector per axis"),
        ([1.0, 1.0, 1.0], "one lambda and one sector per axis"),
        ([NAN, 1.0], "is not finite"),
        ([1.0, INF], "is not finite"),
    ])
    def test_a_malformed_lambda(self, name, lam, message):
        assert message in _raises_only(sg.SectorDomainError, _lambda_calls(2, lam)[name])

    @pytest.mark.parametrize("name", ["functional_calculus", "hinf", "smirnov",
                                      "spectral_map_check", "projection_function",
                                      "resolvent_sup_on_contour", "default_region",
                                      "anchor_for", "pair_semigroup"])
    def test_a_scaling_outside_the_window(self, name):
        # arg(-1) = pi rotates the sector out of the domain
        msg = _raises_only(sg.SectorDomainError, _lambda_calls(2, [-1.0, 1.0])[name])
        assert "arg(lambda)" in msg

    @pytest.mark.parametrize("name", ["resolvent_product", "fb_at_tuple", "fb_of_orbit resolvent",
                                      "fb_of_orbit integral"])
    def test_matrix_algebra_takes_any_finite_lambda(self, name):
        # no sector product to keep inside the domain: length and finiteness only
        assert np.all(np.isfinite(_lambda_calls(2, [-1.0, 1.0])[name]()))

    def test_a_functional_of_another_k(self):
        # a k=1 functional against a k=2 tuple: the transform refuses it
        # first, as the pairing does, instead of reading axis 0 alone
        tup = SETUPS[2][0]
        phi = fn.dirac(ProductSector([SECT]), [0.5])
        for call in (lambda: phi.fb_at_tuple(tup, [1.0, 1.0]),
                     lambda: fn.pair_semigroup(tup, [1.0, 1.0], phi)):
            _raises_only(sg.SectorDomainError, call)
        assert "1 axes for a tuple of 2" in _raises_only(
            sg.SectorDomainError, lambda: phi.fb_at_tuple(tup, [1.0, 1.0], [0.25]))

    @pytest.mark.parametrize("name", sorted(_shift_calls(2, None)))
    @pytest.mark.parametrize("eps, message", [
        ([[0.25, 0.25]], "one entry per axis"),
        ([[0.25], [0.25]], "one entry per axis"),
        ([0.25], "one entry per axis"),
        ([0.25, 0.25, 0.25], "one entry per axis"),
        ([INF, 0.25], "is not finite"),
        ([0.25, complex(0.0, NAN)], "is not finite"),
        ([0.25, -1.0], "outside the closed dual sector of axis 1"),
    ])
    def test_a_malformed_shift(self, name, eps, message):
        assert message in _raises_only(q.QuadratureError, _shift_calls(2, eps)[name])

    @pytest.mark.parametrize("k", [1, 2])
    def test_an_empty_shift_grid(self, k):
        _, u, f, _, _ = SETUPS[k]
        assert "one entry per axis" in _raises_only(q.QuadratureError,
                                                    lambda: ca.h1_norm(f, u, eps_grid=[]))

    def test_an_infinite_shift_warns_nothing(self):
        # before, cone_signed_distance warned "invalid value" on inf, then refused it
        tup, u, f, _, _ = SETUPS[2]
        for eps in ([INF, 0.25], [0.25, -INF], [complex(INF, INF), 0.25]):
            _raises_only(q.QuadratureError, lambda: ca.functional_calculus(f, tup, [1, 1], u, eps))
            _raises_only(q.QuadratureError, lambda: ca.h1_norm(f, u, [[0.25, 0.25], eps]))


class TestNonFiniteLambda:
    AXES = {
        "degenerate": (sg.CommutingTuple([[[-2.0]]], [(0.0, 0.0)]),
                       g.make_region([0.0], [0.0], [0.0])),
        "sector": (sg.CommutingTuple([[[-2.0]]], [DOM]),
                   g.make_region([SECT[0]], [SECT[1]], [0.0])),
    }

    @pytest.mark.parametrize("axis", sorted(AXES))
    @pytest.mark.parametrize("lam", [NAN, INF, complex(1.0, NAN)])
    def test_is_reported_once_and_refused(self, axis, lam):
        tup, region = self.AXES[axis]
        assert ca.check_admissible_for(region, tup, [1.0]).passed
        rep = ca.check_admissible_for(region, tup, [lam])
        assert not rep.passed and not rep.region_ok and rep.anchor_class == "invalid"
        assert rep.detail.count("is not finite") == 1
        _raises_only(sg.SectorDomainError,
                     lambda: ca.functional_calculus(ca.inverse_square(1, [3.0]), tup, [lam],
                                                    region, [0.25]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k=st.integers(1, 2), data=st.data())
def test_malformed_inputs_raise_only_their_owners_errors(k, data):
    bad = st.sampled_from([NAN, INF, -INF, complex(NAN, 0.0), complex(0.0, INF)])
    good = st.sampled_from([1.0, 0.5, 0.25])

    def non_finite(fill):
        entries = data.draw(st.lists(st.one_of(bad, fill), min_size=k, max_size=k)
                            .filter(lambda xs: not np.all(np.isfinite(xs))))
        return entries

    which = data.draw(st.sampled_from(["lam length", "lam value"]))
    if which == "lam length":
        lam = data.draw(st.lists(good, max_size=4).filter(lambda xs: len(xs) != k))
    else:
        lam = non_finite(good)
    name = data.draw(st.sampled_from(sorted(_lambda_calls(k, lam))))
    _raises_only(sg.SectorDomainError, _lambda_calls(k, lam)[name])

    shape = data.draw(st.sampled_from(["length", "(1, k)", "(k, 1)", "value"]))
    if shape == "length":
        eps = data.draw(st.lists(good, max_size=4).filter(lambda xs: len(xs) != k))
    elif shape == "(1, k)":
        eps = [[0.25] * k]
    elif shape == "(k, 1)":
        eps = [[0.25]] * k
    else:
        eps = non_finite(st.just(0.25))
    name = data.draw(st.sampled_from(sorted(_shift_calls(k, eps))))
    _raises_only(q.QuadratureError, _shift_calls(k, eps)[name])


class TestValidationCount:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        real = sg._validate_lambda

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        for mod in (sg, ca, fn):
            monkeypatch.setattr(mod, "_validate_lambda", counting)
        return calls

    @pytest.mark.parametrize("entry, count", [
        ("functional_calculus", 2), ("hinf", 2), ("smirnov", 2), ("pair_semigroup", 1)])
    def test_lambda_is_validated_at_most_twice_per_call(self, counted, entry, count):
        # the entry point, plus the public admissibility report of the calculus
        call = _lambda_calls(2, [1.0, 1.0])[entry]
        counted.clear()
        call()
        assert len(counted) == count
