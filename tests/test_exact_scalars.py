"""No float reaches an exact result.

Integral rationals are held as ints, so every division of two ints must go
through ``polynomials.qdiv``.  The guard runs the scalar and polynomial
operations on int and Fraction inputs under hypothesis and walks every
coefficient and returned scalar.  The differential tests run each call on
integer inputs twice.  Polynomials in one variable are built from ints and
from the same values as Fractions, which must land in the same integer form,
and the same values as Q(i) elements take the schoolbook loops as the
oracle.  ``MultiPoly`` runs as it is and with ``MultiPoly.__init__``
replaced by the all-Fraction constructor it replaced, kept here as the
oracle; the constructor of the in-place coefficient operations is routed
through it too.
"""

import contextlib
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3quartic import multipoly
from k3quartic.covers import SPLIT_PARAM_SEXTIC, Parametrization, twist_lift
from k3quartic.curves import base_elliptic_rhs, ec_add, j_invariant, on_curve
from k3quartic.fibration import classify_fibers, form_scaling_order, standard_family
from k3quartic.fields import FieldElement, gaussian_field
from k3quartic.moduli import m_inv
from k3quartic.multipoly import MultiPoly, QuotientFraction
from k3quartic.polynomials import (
    Poly,
    RationalFunction,
    poly_gcd,
    qdiv,
    rational_roots,
    squarefree_decompose,
)
from k3quartic.quartic import Unstable, build_quartic, singular_points, stability

_RATIONALS = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)
_NONZERO = _RATIONALS.filter(lambda c: c != 0)


def _polys(var="t", max_degree=4, coeffs=_RATIONALS):
    return st.dictionaries(st.integers(0, max_degree), coeffs,
                           max_size=max_degree + 1).map(lambda d: Poly(var, d))


_NONZERO_POLYS = _polys().filter(bool)
_VARS = ("x", "y")
_MULTIPOLYS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _RATIONALS,
                              max_size=5).map(lambda d: MultiPoly(_VARS, d))


def _scalars(x, depth=0):
    """Every scalar inside x: the coefficients of polynomials, the parts of
    fractions, container entries and the slots of result records."""
    assert depth < 12, "result nests deeper than expected: %r" % (x,)
    if isinstance(x, Poly):
        yield from x.coeffs.values()
    elif isinstance(x, MultiPoly):
        yield from x.terms.values()
    elif isinstance(x, (RationalFunction, QuotientFraction)):
        yield from _scalars(x.num, depth + 1)
        yield from _scalars(x.den, depth + 1)
    elif isinstance(x, FieldElement):
        yield from x.num
        yield x.den
    elif isinstance(x, dict):
        for v in x.values():
            yield from _scalars(v, depth + 1)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _scalars(v, depth + 1)
    elif x is None or isinstance(x, (str, int, float, Fraction)):
        yield x
    else:
        slots = [s for cls in type(x).__mro__ for s in getattr(cls, "__slots__", ())]
        for name in slots or vars(x):
            yield from _scalars(getattr(x, name), depth + 1)


def assert_no_float(*results):
    floats = [s for r in results for s in _scalars(r) if isinstance(s, float)]
    assert not floats, "float leaked: %r" % floats


# -- the guard ---------------------------------------------------------------


@given(_polys(), _NONZERO_POLYS, _NONZERO, st.integers(0, 3))
@settings(max_examples=120, deadline=None)
def test_poly_operations_make_no_float(a, b, c, k):
    assert_no_float(a + b, a - b, a * b, a ** k, divmod(a, b), a / b, b / a if a else 0,
                    a / c, b.monic(), a(c), poly_gcd(a, b),
                    squarefree_decompose(b), rational_roots(b))


@given(_polys(), _NONZERO_POLYS, _polys(), _NONZERO_POLYS, _RATIONALS, st.integers(-2, 2))
@settings(max_examples=80, deadline=None)
def test_rational_function_operations_make_no_float(a, b, c, d, x, k):
    r, s = RationalFunction(a, b), RationalFunction(c, d)
    results = [r + s, r - s, r * s, r * x, r / d, s / b]
    if r:
        results += [s / r, r ** k]
    if b(x) != 0:
        results.append(qdiv(r.num(x), r.den(x)))
    assert_no_float(*results)


@given(_MULTIPOLYS, _MULTIPOLYS.filter(bool), _NONZERO, st.integers(0, 3), _RATIONALS)
@settings(max_examples=80, deadline=None)
def test_multipoly_operations_make_no_float(a, b, c, k, x):
    assert_no_float(a + b, a - b, a * b, a ** k, a / c, (a * b).try_exact_div(b),
                    a.try_exact_div(b), a.derivative("x"), a.evaluate({"x": x, "y": c}))


@given(_RATIONALS, st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=80, deadline=None)
def test_j_invariant_makes_no_float(beta4, a2, a4, a6):
    for rhs in (base_elliptic_rhs(beta4), Poly("u", {3: 1, 2: a2, 1: a4, 0: a6})):
        try:
            assert_no_float(j_invariant(rhs))
        except ValueError as exc:
            assert "singular" in str(exc)


_POINTS = st.tuples(_RATIONALS, _RATIONALS)


@given(_POINTS, _POINTS, _RATIONALS, _RATIONALS, _RATIONALS)
@settings(max_examples=80, deadline=None)
def test_ec_add_makes_no_float(p1, p2, a4, a2, a6):
    # a vertical tangent at a point off the identity has no slope
    assume(not (p1[0] == p2[0] and p1[1] + p2[1] != 0 and p1[1] == 0))
    assert_no_float(ec_add(p1, p2, a4, a2, a6))


@given(_NONZERO)
@settings(max_examples=12, deadline=None)
def test_twist_lift_makes_no_float(a):
    # r -> a r keeps lam = y/x a pure multiple of r^2
    param = SPLIT_PARAM_SEXTIC
    image = Poly(param.var, {1: a})
    moved = Parametrization(*(p(image) for p in (param.x, param.y, param.z)))
    assert_no_float(twist_lift(moved))


@given(_NONZERO)
@settings(max_examples=25, deadline=None)
def test_family_and_singular_points_make_no_float(alpha):
    assume(not isinstance(stability(alpha), Unstable))
    fib = standard_family(alpha=alpha)
    assert_no_float(fib, classify_fibers(fib), singular_points(build_quartic(alpha)))


def test_scaling_order_and_matrix_inverse_stay_exact():
    # (u, v, lam) -> (u, -v, lam) on the integer standard family: s = -1
    s, order = form_scaling_order(1, -1, 1, standard_family(alpha=2))
    assert (s, order) == (-1, 2)
    inv = m_inv(((2, 1), (3, 4)))
    assert inv == ((Fraction(4, 5), Fraction(-1, 5)), (Fraction(-3, 5), Fraction(2, 5)))
    assert_no_float(s, inv)


def test_j_invariant_of_a_singular_member_raises():
    # beta^4 = -1 gives u^3 + 4u^2 = u^2 (u + 4)
    with pytest.raises(ValueError, match="singular"):
        j_invariant(base_elliptic_rhs(Fraction(-1)))


def test_j_invariant_is_exactly_1728():
    j = j_invariant(base_elliptic_rhs(Fraction(7, 9)))
    assert j == 1728
    assert type(j) in (int, Fraction)


def test_ec_add_on_integer_points_with_a_fractional_slope():
    # v^2 = u^3 - 36 u: the chord slope 9/5 and the tangent slope -1/2
    p, q = (-3, 9), (12, 36)
    chord = ec_add(p, q, -36)
    assert chord == (Fraction(-144, 25), Fraction(-504, 125))
    tangent = ec_add(p, p, -36)
    assert tangent == (Fraction(25, 4), Fraction(-35, 8))
    assert on_curve(chord, -36) and on_curve(tangent, -36)
    assert_no_float(chord, tangent)


# -- differential against the all-Fraction representation ---------------------


def _fraction_multipoly_init(self, vars, terms=None):
    """``MultiPoly.__init__`` as it was when every int became a Fraction."""
    self.vars = tuple(vars)
    self.terms = {}
    for exps, c in (terms or {}).items():
        if c == 0:
            continue
        if len(exps) != len(self.vars):
            raise ValueError("exponent vector length mismatch")
        self.terms[tuple(exps)] = Fraction(c) if isinstance(c, int) else c


@contextlib.contextmanager
def _fraction_representation():
    # a coefficient operand builds its result with multipoly._new, which
    # skips __init__; routing it through the patched __init__ puts those
    # results in the all-Fraction form too
    with mock.patch.object(MultiPoly, "__init__", _fraction_multipoly_init), \
            mock.patch.object(multipoly, "_new", MultiPoly):
        yield


def _text(x):
    """Polynomials by repr, containers entrywise, scalars by exact value."""
    if isinstance(x, (Poly, MultiPoly)):
        return repr(x)
    if isinstance(x, (list, tuple)):
        return [_text(y) for y in x]
    return Fraction(x)


def _field_calls(a, b):
    return [a * b, divmod(a * b + a, b), poly_gcd(a * b, b * b + a),
            squarefree_decompose(a * b * b)]


def _poly_calls(a, b):
    return _field_calls(a, b) + [rational_roots(a * b)]


_INT_POLYS = _polys(coeffs=st.integers(-30, 30)).filter(lambda p: p.degree > 0)
_INT_MULTIPOLYS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                  st.integers(-30, 30), max_size=5)


@given(_INT_POLYS, _INT_POLYS)
@settings(max_examples=100, deadline=None)
def test_integer_polys_match_the_fraction_representation(a, b):
    ints = _poly_calls(a, b)
    assert all(type(c) is int for c in _scalars(ints[0]))
    fa, fb = (Poly(p.var, {e: Fraction(c) for e, c in p.coeffs.items()}) for p in (a, b))
    assert (fa.nums, fa.den, fb.nums, fb.den) == (a.nums, 1, b.nums, 1)
    fractions = _poly_calls(fa, fb)
    assert ints == fractions
    assert _text(ints) == _text(fractions)
    # the same values over Q(i) run the schoolbook loops
    ga, gb = (p.map_coeffs(gaussian_field().from_rational) for p in (a, b))
    assert ga.den is None and gb.den is None
    assert _field_calls(ga, gb) == ints[:-1]


@given(_INT_MULTIPOLYS, _INT_MULTIPOLYS.filter(lambda d: any(d.values())))
@settings(max_examples=60, deadline=None)
def test_integer_multipolys_match_the_fraction_representation(a, b):
    def calls(a, b):
        p, q = MultiPoly(_VARS, a), MultiPoly(_VARS, b)
        return [p * q, (p * q).try_exact_div(q), q ** 2 - p,
                # coefficient operands, applied in place
                p * 3, 3 * p, p * Fraction(2, 3), p + Fraction(1, 2), 2 - p, p - 2,
                (p + Fraction(1, 2)) * 2, p.try_exact_div(Fraction(-3, 4)),
                p.try_exact_div(2), p == 1, p - p.terms.get((0, 0), 0) == p]

    ints = calls(a, b)
    assert all(type(c) is int or c.denominator != 1
               for r in ints if isinstance(r, MultiPoly) for c in r.terms.values())
    with _fraction_representation():
        fractions = calls(a, b)
    # every result was built in the all-Fraction form, in place or not
    assert all(type(c) is Fraction
               for r in fractions if isinstance(r, MultiPoly) for c in r.terms.values())
    assert ints == fractions
    assert _text(ints) == _text(fractions)
