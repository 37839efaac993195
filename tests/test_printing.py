"""Characterization of ``repr`` across the scalar and polynomial classes.

All of them print a sum of terms the same way: a coefficient of 1 or -1
folds into its monomial, a coefficient with an inner sign is parenthesized,
"+ -" reads " - ", and the empty sum is "0".
"""

from fractions import Fraction

from k3quartic.fields import with_imaginary_unit
from k3quartic.multipoly import MultiPoly, QuotientContext, QuotientFraction
from k3quartic.polynomials import Poly, RationalFunction

V = ("x", "y", "z")
s = Poly.x("s")


def test_multipoly_with_negative_and_fraction_coefficients():
    x, y, z = (MultiPoly.gen(V, v) for v in V)
    m = (3 * x ** 2 * y - x * z ** 3 + Fraction(-5, 7) * y + Fraction(2, 3) - z
         - x * y * z * Fraction(1, 2))
    assert repr(m) == "3*x^2*y - 1/2*x*y*z - x*z^3 - 5/7*y - z + 2/3"


def test_two_level_field_element_and_poly_over_it():
    K = with_imaginary_unit("quartic_root", 7)
    t, i = K.gen(1), K.gen(2)
    e = 1 + t - Fraction(3, 2) * t ** 3 + (2 - t ** 2) * i - t * i + Fraction(-1, 4) * i
    assert repr(e) == "1 + q4 - 3/2*q4^3 + (7/4 - q4 - q4^2)*i"
    assert [repr(v) for v in (-i, t * i, -t * i)] == ["-i", "q4*i", "-q4*i"]
    lam = Poly.x("lam")
    p = e * lam ** 3 - lam ** 2 + i * lam + (t - 1)
    assert repr(p) == "(1 + q4 - 3/2*q4^3 + (7/4 - q4 - q4^2)*i)*lam^3 - lam^2 + i*lam - 1 + q4"


def test_poly_over_rational_function_coefficients():
    rf = (s + 1) / (s - 2)

    def const(c):
        return RationalFunction(Poly.constant("s", c))

    p = Poly("lam", {3: rf, 2: RationalFunction(-s), 1: const(-1), 0: const(Fraction(2, 5))})
    assert repr(p) == "((s + 1)/(s - 2))*lam^3 - s*lam^2 - lam + 2/5"
    q = Poly("lam", {2: const(1), 1: RationalFunction(s * s), 0: -rf})
    assert repr(q) == "lam^2 + s^2*lam + (-s - 1)/(s - 2)"
    assert repr(-rf) == "(-s - 1)/(s - 2)"


def test_zero_of_each_class_prints_as_0():
    qctx = QuotientContext(V, [("z", 2, MultiPoly.gen(V, "x"))])
    zeros = (Poly("lam"), MultiPoly.zero(V), with_imaginary_unit("quartic_root", 7).zero,
             RationalFunction(Poly("s")), QuotientFraction(qctx, 0))
    assert [repr(z) for z in zeros] == ["0"] * 5
