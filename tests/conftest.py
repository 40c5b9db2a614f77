"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from sectorcalc import functionals, quadrature


@pytest.fixture
def audited_refine(monkeypatch):
    """:func:`sectorcalc.quadrature.refine`, audited: a call that accepts a
    round on its error estimate evaluates one round more, and every member
    of the returned value must lie within ``tol`` of that round's.  The
    fixture's value lists each audit's largest difference over ``tol``."""
    refine = quadrature.refine
    audits = []

    def audited(value_at, n_per_unit, tol, what="integral"):
        estimates = []

        def recorded(n):
            out = value_at(n)
            estimates.append(np.min(out[2]))
            return out

        res = refine(recorded, n_per_unit, tol, what)
        if min(estimates) < tol:
            value, _, est = value_at(n_per_unit * 2.0 ** res.rounds)
            gap = np.linalg.norm((np.asarray(value) - res.value).reshape(np.size(est), -1),
                                 axis=1).max()
            audits.append(gap / tol)
            assert gap <= tol, f"{what}: the next round moved the accepted value by {gap:.3e}"
        return res

    monkeypatch.setattr(quadrature, "refine", audited)
    monkeypatch.setattr(functionals, "refine", audited)
    return audits
