from fractions import Fraction

import mpmath
import pytest

from k3quartic.curves import CM_J_INVARIANTS, base_elliptic_rhs, j_invariant
from k3quartic.fields import gaussian_field
from k3quartic.periods import (
    IsogenousToE,
    NotDetected,
    acceptance_bound,
    cm_verdict,
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
    res = cm_verdict(1728, pr.tau)
    assert isinstance(res, IsogenousToE)
    assert res.conductor == 1
    assert res.witness == (1, 0, 1)
    assert res.residual < acceptance_bound(128)


def test_cm_detects_conductor_two():
    # j = 287496 is the order Z[2i]; the witness is oriented by Im tau
    res = cm_verdict(287496, mpmath.mpc(0, 2))
    assert isinstance(res, IsogenousToE)
    assert res.conductor == 2
    assert res.witness == (1, 0, 4)
    assert res.residual == 0
    res = cm_verdict(287496, mpmath.mpc(0, 0.5))
    assert (res.conductor, res.witness, res.residual) == (2, (4, 0, 1), 0)


def test_cm_rejects_other_cm_field():
    with mpmath.mp.workprec(160):
        tau = mpmath.mpc(mpmath.mpf(1) / 2, mpmath.sqrt(3) / 2)
    res = cm_verdict(0, tau)
    assert isinstance(res, NotDetected)
    assert "-3" in res.reason


def test_cm_j_outside_the_table_is_decided_without_tau():
    # even at tau = i exactly, a j that is none of the 13 values has no CM
    res = cm_verdict(Fraction(1729), mpmath.mpc(0, 1))
    assert isinstance(res, NotDetected)
    assert res.reason == "j = 1729 is none of the 13 rational CM j-invariants"


def test_acceptance_bound_halves_the_precision_rounding_down():
    assert acceptance_bound(128) == mpmath.mpf(2) ** -64
    assert acceptance_bound(33) == mpmath.mpf(2) ** -16
    # a residual |tau^2 + 1| = 2 eps + eps^2 just under the bound is
    # accepted at an odd precision
    eps = mpmath.mpf(3) * 2 ** -19
    res = cm_verdict(1728, mpmath.mpc(0, 1 + eps), precision_bits=33)
    assert isinstance(res, IsogenousToE)
    assert mpmath.mpf(2) ** -17 <= res.residual < acceptance_bound(33)


def test_cm_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        cm_verdict(1728, mpmath.mpc(0, -1))


def _split_member_j(sympy, w):
    """j of v^2 = base_elliptic_rhs(1 - w^2/8) as a sympy rational function of w,
    by c4^3 / Delta (Silverman III.1) on the cubic's coefficients, which are
    affine in beta^4."""
    def coeffs(beta4):
        rhs = base_elliptic_rhs(beta4)
        return [sympy.Rational(rhs.coeff(k).numerator, rhs.coeff(k).denominator)
                for k in range(3)]
    c0, c1, c2 = coeffs(0), coeffs(1), coeffs(2)
    assert [2 * y - x for x, y in zip(c0, c1)] == c2
    beta4 = 1 - w ** 2 / 8
    a6, a4, a2 = (x + (y - x) * beta4 for x, y in zip(c0, c1))
    b2, b4, b6, b8 = 4 * a2, 2 * a4, 4 * a6, 4 * a2 * a6 - a4 ** 2
    c4 = b2 ** 2 - 24 * b4
    delta = -b2 ** 2 * b8 - 8 * b4 ** 3 - 27 * b6 ** 2 + 9 * b2 * b4 * b6
    return sympy.cancel(c4 ** 3 / delta)


def test_only_the_square_lattice_split_member_has_a_cm_j():
    # the cubic u(u^2 + 4u + a) splits over Q exactly when beta^4 = 1 - w^2/8
    # for a rational w; of the 13 rational CM j-invariants only 1728 is the j
    # of such a member, at w = +-4/3 (beta^4 = 7/9), so cm_verdict reaches
    # IsogenousToE on the family for that one member alone
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")
    j_of_w = _split_member_j(sympy, w)
    for q in (Fraction(1, 3), Fraction(-5, 2)):
        exact = j_invariant(base_elliptic_rhs(1 - q * q / 8))
        assert j_of_w.subs(w, sympy.Rational(q.numerator, q.denominator)) == \
            sympy.Rational(exact.numerator, exact.denominator)
    solutions = {}
    for j in CM_J_INVARIANTS:
        numerator, _ = sympy.fraction(sympy.cancel(j_of_w - j))
        factors = sympy.Poly(numerator, w, domain=sympy.QQ).factor_list()[1]
        roots = sorted(-f.nth(0) / f.LC() for f, _ in factors if f.degree() == 1)
        if roots:
            solutions[j] = roots
    assert solutions == {1728: [sympy.Rational(-4, 3), sympy.Rational(4, 3)]}
    assert 1 - Fraction(4, 3) ** 2 / 8 == Fraction(7, 9)
