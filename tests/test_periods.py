from fractions import Fraction

import mpmath
import pytest

from k3quartic.curves import base_elliptic_rhs
from k3quartic.fields import gaussian_field
from k3quartic.periods import (
    Inconclusive,
    IsogenousToE,
    NotDetected,
    acceptance_bound,
    cm_isogeny_check,
    period_ratio_numeric,
    tau_from_cubic,
)
from k3quartic.polynomials import Poly


def test_period_ratio_square_lattice():
    pr = period_ratio_numeric(1, 0, -1, precision_bits=128)
    assert abs(pr.tau - mpmath.mpc(0, 1)) < 1e-12
    assert abs(pr.tau - mpmath.mpc(0, 1)) < pr.error_bound
    assert pr.error_bound == mpmath.mpf(2) ** -120


def test_period_ratio_orders_roots():
    a = period_ratio_numeric(-1, 0, 1, precision_bits=96)
    b = period_ratio_numeric(1, 0, -1, precision_bits=96)
    assert abs(a.tau - b.tau) < 1e-20


def test_period_ratio_rejects_coincident():
    with pytest.raises(ValueError):
        period_ratio_numeric(1, 1, 0)


def test_period_ratio_takes_rationals_only():
    # a field element, even a rational one, is not converted
    one = gaussian_field().one
    with pytest.raises(TypeError):
        period_ratio_numeric(one, 0, -1)
    a = period_ratio_numeric(Fraction(1, 2), 0, Fraction(-1, 2), precision_bits=96)
    b = period_ratio_numeric(1, 0, -1, precision_bits=96)
    assert abs(a.tau - b.tau) < 1e-20


def test_tau_from_cubic():
    x = Poly.x("x")
    pr = tau_from_cubic(x ** 3 - x)
    assert abs(pr.tau - mpmath.mpc(0, 1)) < 1e-12
    # the quotient curve member with beta^4 = 7/9 also has square lattice
    pr2 = tau_from_cubic(base_elliptic_rhs(Fraction(7, 9)))
    assert abs(pr2.tau - mpmath.mpc(0, 1)) < 1e-12
    with pytest.raises(ValueError):
        tau_from_cubic(x ** 3 + x + 1)


def test_cm_detects_square_lattice():
    pr = tau_from_cubic(Poly.x("x") ** 3 - Poly.x("x"))
    res = cm_isogeny_check(pr.tau)
    assert isinstance(res, IsogenousToE)
    assert res.conductor == 1
    assert res.witness == (1, 0, 1)


def test_cm_detects_conductor_two():
    res = cm_isogeny_check(mpmath.mpc(0, 2))
    assert isinstance(res, IsogenousToE)
    assert res.conductor == 2
    assert res.witness == (1, 0, 4)


def test_cm_rejects_other_cm_field():
    with mpmath.mp.workprec(160):
        tau = mpmath.mpc(mpmath.mpf(1) / 2, mpmath.sqrt(3) / 2)
    res = cm_isogeny_check(tau)
    assert isinstance(res, NotDetected)
    assert res.witness == (1, -1, 1)
    assert "-3" in res.reason


def test_cm_inconclusive_on_low_precision_input():
    # a hexagonal-lattice tau carrying only ~53 bits: the true relation's
    # residual lands between the accept and reject thresholds
    tau = mpmath.mpc(0.5, mpmath.sqrt(3) / 2)
    res = cm_isogeny_check(tau)
    assert isinstance(res, Inconclusive)


def test_cm_non_cm_point():
    # a generic-looking tau: no small relation
    tau = mpmath.mpc(mpmath.mpf(1) / 7, mpmath.exp(1) / 2)
    res = cm_isogeny_check(tau, max_conductor=5)
    assert isinstance(res, (NotDetected, Inconclusive))
    assert not isinstance(res, IsogenousToE)


def test_acceptance_bound_halves_the_precision_rounding_down():
    assert acceptance_bound(128) == mpmath.mpf(2) ** -64
    assert acceptance_bound(33) == mpmath.mpf(2) ** -16
    # a residual just under the bound is accepted at an odd precision
    residual = mpmath.mpf(3) * 2 ** -18
    tau = mpmath.mpc(0, 1) + residual / 2
    res = cm_isogeny_check(tau, precision_bits=33)
    assert isinstance(res, IsogenousToE)
    assert mpmath.mpf(2) ** -17 <= res.residual < acceptance_bound(33)


def test_cm_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        cm_isogeny_check(mpmath.mpc(0, -1))
    with pytest.raises(ValueError):
        cm_isogeny_check(mpmath.mpc(0, 1), max_conductor=0)
