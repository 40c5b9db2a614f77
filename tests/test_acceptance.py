"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.

The criteria are implemented by the CLI's built-in scenarios (which pin
the tolerances), so the command-line runner and this module exercise the
same checks; criterion 12 additionally compares report files byte for
byte.
"""

import pytest

from sectorcalc import cli

SEED = 42

# every round accepted on its error estimate is checked against one more round
pytestmark = pytest.mark.usefixtures("audited_refine")


def _run(name, criterion, scenario_fn, *args):
    rows = scenario_fn(SEED, *args) if args else scenario_fn(SEED)
    failed = [r for r in rows if not r.passed]
    status = "PASS" if not failed else "FAIL"
    worst = max((r.rel_err if r.check == "rel" else r.abs_err) for r in rows)
    print(f"[{status}] criterion {criterion}: {name} "
          f"({len(rows)} checks, worst err {worst:.3e})")
    assert not failed, [f"{r.scenario}: {r.case}" for r in failed]


def test_criterion_01_resolvent_formula():
    # 20 random sectorial matrices: transform-side resolvent vs direct solve
    _run("resolvent formula", 1, cli.scenario_resolvent)


def test_criterion_02_generator_recovery():
    # weighted orbit integrals recover the generator; nilpotent case exact
    _run("generator recovery", 2, cli.scenario_generator)


def test_criterion_03_fb_cauchy_duality():
    # measure-side and transform-side Cauchy transforms agree at 20 points
    _run("transform duality", 3, cli.scenario_fb_cauchy)


def test_criterion_04_convolution_homomorphism():
    # transform and pairing multiplicativity over 100 random pairs
    _run("convolution homomorphism", 4, cli.scenario_convolution)


def test_criterion_05_wn_route():
    # squared-rational regularizer route agrees with the measure route
    _run("regularized pairing route", 5, cli.scenario_wn_route)


def test_criterion_06_main_calculus():
    # k=1 and k=2 contour values vs scalar oracles + contour independence
    _run("main calculus k=1", 6, cli.scenario_calculus_k1)
    _run("main calculus k=2", 6, cli.scenario_calculus_k2)


def test_criterion_07_special_cases():
    # exponential reproduces the semigroup, projection the scaled generator
    _run("special cases", 7, cli.scenario_special_cases)


def test_criterion_08_spectral_mapping():
    _run("spectral mapping", 8, cli.scenario_spectral_mapping)


def test_criterion_09_hardy_machinery():
    # zero integrals, interior reproduction, pointwise bound, half-plane norm
    _run("boundary-integral machinery", 9, cli.scenario_hardy)


def test_criterion_10_gap_scenarios():
    _run("semigroup gap scenarios", 10, cli.scenario_gaps)


def test_criterion_11_outer_witnesses():
    _run("outer witnesses and singular-slice diagnostic", 11, cli.scenario_outer)


def test_criterion_12_determinism(tmp_path):
    rows1 = cli.scenario_calculus_k1(SEED) + cli.scenario_fb_cauchy(SEED)
    rows2 = cli.scenario_calculus_k1(SEED) + cli.scenario_fb_cauchy(SEED)
    t1 = cli.write_report(rows1, str(tmp_path / "a.csv"), "csv")
    t2 = cli.write_report(rows2, str(tmp_path / "b.csv"), "csv")
    same = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    print(f"[{'PASS' if same else 'FAIL'}] criterion 12: determinism "
          f"(byte-identical reports, {len(rows1)} rows)")
    assert same and t1 == t2
