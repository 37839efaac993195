"""A coefficient operand is applied in place, and agrees with its lift.

``RationalFunction``, ``QuotientFraction`` and ``MultiPoly`` take a
coefficient c as (num +- c den)/den, (c num)/den, num (1/c)/den, (c den)/num
or a constant-term update and a scaling, with no gcd and no reduction.  The
oracle is the same operation with c lifted explicitly into the container,
``RationalFunction(Poly.constant(v, c))``, ``QuotientFraction(qctx, c)`` or
``MultiPoly.const(vars, c)``, which takes the general path.  Both must give
the same num/den and terms with the same coefficient types, the same zero
divisions, and results that stay reduced.
"""

import operator
import random
from fractions import Fraction

import pytest

from k3quartic.fields import FieldElement, gaussian_field
from k3quartic.multipoly import MultiPoly, QuotientContext, QuotientFraction
from k3quartic.polynomials import Poly, RationalFunction, qdiv

QI = gaussian_field()
V = ("rho", "tau")
ALPHA = RationalFunction(Poly.x("alpha"))


def _form(x):
    """x as nested tuples of plain values, each scalar tagged by its type,
    so that two results compare equal only with equal parts of equal types."""
    if isinstance(x, Poly):
        return ("Poly", x.var, x.den, tuple(sorted((e, _form(c)) for e, c in x.nums.items())))
    if isinstance(x, MultiPoly):
        return ("MultiPoly", x.vars, tuple(sorted((e, _form(c)) for e, c in x.terms.items())))
    if isinstance(x, (RationalFunction, QuotientFraction)):
        # a den equal to 1 has one form, so it is compared with its types
        return (type(x).__name__, _form(x.num), _form(x.den))
    if isinstance(x, FieldElement):
        return ("FieldElement", x.ctx._key, x.num, x.den)
    return (type(x).__name__, x)


# -- seeded operands ---------------------------------------------------------------


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))


def _gaussian(rng):
    return QI.element([_rational(rng), _rational(rng)])


def _alpha_fraction(rng):
    num = Poly("alpha", {e: _rational(rng) for e in range(rng.randint(0, 2))})
    den = Poly("alpha", {e: _rational(rng) for e in range(rng.randint(1, 2))})
    return RationalFunction(num, den if den else Poly.constant("alpha", 1))


def _scalar(rng, kind):
    """A seeded coefficient of the kind: a tenth of them 0."""
    if rng.random() < 0.1:
        return 0
    if kind == "int":
        return rng.randint(-9, 9) or 1
    if kind == "Fraction":
        return Fraction(rng.randint(-9, 9) or 1, rng.choice((2, 3, 7)))
    if kind == "Q(i)":
        return _gaussian(rng)
    return _alpha_fraction(rng)


def _poly(rng, coeff, max_degree=3):
    return Poly("t", {e: coeff(rng) for e in range(rng.randint(0, max_degree) + 1)})


def _multipoly(rng, coeff, vars=V, size=4):
    return MultiPoly(vars, {(rng.randint(0, 3), rng.randint(0, 3)): coeff(rng)
                            for _ in range(rng.randint(0, size))})


# coefficient domain of a container -> (coefficient draw, scalar kinds)
DOMAINS = {
    "Q": (_rational, ("int", "Fraction")),
    "Q(i)": (_gaussian, ("int", "Fraction", "Q(i)")),
    "Q(alpha)": (_alpha_fraction, ("int", "Fraction", "Q(alpha)")),
}


def _context(domain):
    """tau^2 = rho^3 + a rho + 1, with a = 2, i or alpha as the domain has it."""
    rho = MultiPoly.gen(V, "rho")
    a = {"Q": 2, "Q(i)": QI.gen(), "Q(alpha)": ALPHA}[domain]
    return QuotientContext(V, [("tau", 2, rho ** 3 + a * rho + 1)])


def _rational_function(rng, domain):
    coeff = DOMAINS[domain][0]
    den = _poly(rng, coeff)
    while not den:
        den = _poly(rng, coeff)
    if rng.random() < 0.15:  # a constant multiple of the den: c -> 0 under + -c
        return RationalFunction(den * coeff(rng), den)
    return RationalFunction(_poly(rng, coeff), den)


def _quotient_fraction(rng, domain, qctx):
    coeff = DOMAINS[domain][0]
    den = qctx.reduce(_multipoly(rng, coeff))
    while not den:
        den = qctx.reduce(_multipoly(rng, coeff))
    if rng.random() < 0.15:
        return QuotientFraction(qctx, den * coeff(rng), den)
    return QuotientFraction(qctx, _multipoly(rng, coeff, size=5), den)


# -- the comparison -----------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return _form(fn(*args))
    except ZeroDivisionError:
        return ZeroDivisionError


def _check_against_lift(x, c, lifted, ops, reflected_ops=()):
    """Every op on (x, c) and (c, x), and each of `reflected_ops` on (c, x)
    only, against the same op on the lift."""
    results = []
    for op, pairs in [(op, ((x, c), (c, x))) for op in ops] + \
            [(op, ((c, x),)) for op in reflected_ops]:
        for args in pairs:
            oracle = [lifted if a is c else a for a in args]
            assert _outcome(op, *args) == _outcome(op, *oracle), (op.__name__, args)
            try:
                results.append(op(*args))
            except ZeroDivisionError:
                pass
    # equality both ways, against c and against a value x does not take
    assert (x == c) == (x == lifted) and (c == x) == (lifted == x)
    assert (x == c + 1) == (x == lifted + 1)
    return results


_FRACTION_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def _assert_reduced(q):
    for head, exp, _ in q.qctx.relations:
        assert q.num.degree_in(head) < exp and q.den.degree_in(head) < exp, q


SEEDS = range(8)


@pytest.mark.parametrize("domain", ["Q", "Q(i)"])
@pytest.mark.parametrize("seed", SEEDS)
def test_rational_function_coefficients_match_the_lifted_operand(seed, domain):
    rng = random.Random(1000 * seed + len(domain))
    for _ in range(12):
        x = _rational_function(rng, domain)
        for kind in DOMAINS[domain][1]:
            c = _scalar(rng, kind)
            lifted = RationalFunction(Poly.constant("t", c))
            _check_against_lift(x, c, lifted, _FRACTION_OPS)
            assert _form(-x) == _form(RationalFunction(-x.num, x.den))
            # a fraction equal to c compares equal to it
            assert lifted == c and c == lifted and (lifted != c + 1)


@pytest.mark.parametrize("domain", ["Q", "Q(i)", "Q(alpha)"])
@pytest.mark.parametrize("seed", SEEDS)
def test_quotient_fraction_coefficients_match_the_lifted_operand(seed, domain):
    rng = random.Random(2000 * seed + len(domain))
    qctx = _context(domain)
    for _ in range(10):
        x = _quotient_fraction(rng, domain, qctx)
        for kind in DOMAINS[domain][1]:
            c = _scalar(rng, kind)
            lifted = QuotientFraction(qctx, c)
            results = _check_against_lift(x, c, lifted, _FRACTION_OPS[:3], [operator.truediv])
            # the quotient ring has no canonical pair: x / c is num (1/c) / den,
            # the product with the lifted 1/c, and equals x over the lifted c
            if c:
                results.append(x / c)
                assert _form(x / c) == _form(x * QuotientFraction(qctx, qdiv(1, c)))
                assert x / c == x / lifted
            else:
                with pytest.raises(ZeroDivisionError):
                    x / c
            for r in results:
                _assert_reduced(r)
            # negation keeps the pair, with no second reduction
            neg = -x
            assert _form(neg) == _form(QuotientFraction(qctx, -x.num, x.den))
            _assert_reduced(neg)
            assert lifted == c and c == lifted and (lifted != c + 1)


def _exact_div(a, b):
    return a.try_exact_div(b)


@pytest.mark.parametrize("domain", ["Q", "Q(i)", "Q(alpha)"])
@pytest.mark.parametrize("seed", SEEDS)
def test_multipoly_coefficients_match_the_lifted_operand(seed, domain):
    rng = random.Random(3000 * seed + len(domain))
    coeff = DOMAINS[domain][0]
    for _ in range(12):
        x = _multipoly(rng, coeff, size=5)
        for kind in DOMAINS[domain][1]:
            c = _scalar(rng, kind)
            lifted = MultiPoly.const(V, c)
            _check_against_lift(x, c, lifted, (operator.add, operator.sub, operator.mul))
            assert _outcome(_exact_div, x, c) == _outcome(_exact_div, x, lifted)
            assert _outcome(operator.truediv, x, c) == _outcome(_exact_div, x, lifted)
            assert lifted == c and c == lifted and (lifted != c + 1)
            # -c added to a constant c leaves the zero polynomial
            assert (lifted + (-c)).terms == {} and (c - lifted).terms == {}


def test_a_zero_coefficient_resets_the_den():
    qctx = _context("Q")
    rho = MultiPoly.gen(V, "rho")
    x = QuotientFraction(qctx, 3 * rho + 3, rho + 1)
    one = MultiPoly.const(V, 1)
    for zero in (x - 3, 3 - x, x * 0, 0 * x, 0 / x):
        assert zero.is_zero and zero.den.terms == one.terms
    r = RationalFunction(Poly("t", {0: 2, 1: 2}), Poly("t", {0: 1, 1: 1, 2: 1}))
    for zero in (r * 0, 0 * r, 0 / r):
        assert zero.is_zero and zero.den == Poly.constant("t", 1)


def test_division_by_a_zero_coefficient_raises():
    qctx = _context("Q(alpha)")
    x = QuotientFraction.gen(qctx, "tau") / (ALPHA + 1)
    r = RationalFunction(Poly.x("t"), Poly("t", {0: 1, 2: 1}))
    m = MultiPoly.gen(V, "rho")
    for zero in (0, Fraction(0), QI.from_rational(0), RationalFunction(Poly("alpha"))):
        with pytest.raises(ZeroDivisionError):
            x / zero
        with pytest.raises(ZeroDivisionError):
            m.try_exact_div(zero)
        if not isinstance(zero, RationalFunction):
            with pytest.raises(ZeroDivisionError):
                r / zero
    for empty in (QuotientFraction(qctx, 0), RationalFunction(Poly("t"))):
        with pytest.raises(ZeroDivisionError):
            3 / empty


def test_a_den_of_one_holds_the_int_one_over_every_field():
    # a map_coeffs or a monic scaling over Q(i) leaves a den equal to 1,
    # which the constructor stores as the int-1 Poly; so a sum or product
    # and its reflection agree in the den's coefficient type too
    lam = Poly.x("lam")
    one = _form(Poly.constant("lam", 1))
    mapped = RationalFunction(lam).map_coeffs(QI.from_rational)
    scaled = RationalFunction(Poly("lam", {1: QI.one}), Poly.constant("lam", 2 * QI.gen()))
    assert _form(mapped.den) == one and _form(scaled.den) == one
    plain = RationalFunction(Poly("lam", {0: QI.gen(), 2: 1}))
    inverse = RationalFunction(Poly.constant("lam", 1), Poly("lam", {0: QI.gen(), 1: 1}))
    for a in (mapped, scaled):
        for b in (plain, inverse):
            for op in (operator.add, operator.sub, operator.mul):
                assert _form(op(a, b).den) == _form(op(b, a).den), (a, b, op)
            assert _form((a + plain).den) == one and _form((plain + a).den) == one


@pytest.mark.parametrize("seed", range(3))
def test_a_rational_den_has_one_form_in_every_field(seed):
    # x over Q and x with its coefficients in Q(i) share one den: their sum,
    # difference and product take the same typed form in both orders
    rng = random.Random(6000 + seed)
    for _ in range(12):
        x = _rational_function(rng, "Q")
        y = x.map_coeffs(QI.from_rational)
        assert _form(y.den) == _form(x.den), x
        for op in (operator.add, operator.sub, operator.mul):
            assert _form(op(x, y)) == _form(op(y, x)), (x, op)


# -- sums over one denominator --------------------------------------------------------
#
# a/b + c/b is (a + c)/b, with no product of the denominators.  The oracle is
# the cross-multiplied sum (a b + c b)/(b b) through the constructor, which
# cancels (RationalFunction) or reduces (QuotientFraction) it.


def _cross_sum(x, y, sign):
    a, b = x.num * y.den, y.num * x.den
    return x._new(a + b if sign > 0 else a - b, x.den * y.den)


@pytest.mark.parametrize("domain", ["Q", "Q(i)", "Q(alpha)"])
@pytest.mark.parametrize("seed", range(3))
def test_rational_function_sums_over_one_den_match_the_cross_product(seed, domain):
    rng = random.Random(4000 * seed + len(domain))
    coeff = DOMAINS[domain][0]
    shared = 0
    for _ in range(12):
        x = _rational_function(rng, domain)
        # a numerator with a common factor of x.den cancels to a smaller den
        y = RationalFunction(_poly(rng, coeff), x.den)
        ys = [y, x, -x, RationalFunction(x.den * coeff(rng) + x.num, x.den)]
        for y in ys:
            shared += y.den == x.den
            for sign, op in ((1, operator.add), (-1, operator.sub)):
                assert _form(op(x, y)) == _form(_cross_sum(x, y, sign)), (x, y)
    assert shared >= 40


@pytest.mark.parametrize("domain", ["Q", "Q(i)", "Q(alpha)"])
@pytest.mark.parametrize("seed", range(3))
def test_quotient_fraction_sums_over_one_den_keep_equality_and_zero(seed, domain):
    rng = random.Random(5000 * seed + len(domain))
    qctx = _context(domain)
    coeff = DOMAINS[domain][0]
    for _ in range(4):
        x = _quotient_fraction(rng, domain, qctx)
        z = _quotient_fraction(rng, domain, qctx)
        for y in (QuotientFraction(qctx, _multipoly(rng, coeff, size=5), x.den), x, -x):
            # a zero numerator resets its den to 1
            assert y.den == x.den or y.is_zero
            for sign, op in ((1, operator.add), (-1, operator.sub)):
                got, want = op(x, y), _cross_sum(x, y, sign)
                _assert_reduced(got)
                assert got == want and want == got
                assert got.is_zero == want.is_zero
                assert (got == z) == (want == z) and (got == x) == (want == x)
        assert (x - x).is_zero and (x + x).is_zero == x.is_zero


def test_a_sum_over_one_den_forms_no_den_product(monkeypatch):
    products = []
    for cls in (Poly, MultiPoly):
        def counting(self, other, real=cls.__mul__):
            products.append((self, other))
            return real(self, other)
        monkeypatch.setattr(cls, "__mul__", counting)

    def squares(den):
        return sum(type(p) is type(den) and type(q) is type(den) and p == den and q == den
                   for p, q in products)

    t = Poly.x("t")
    b = t * t + 1
    rf = [RationalFunction(t, b), RationalFunction(Poly.constant("t", 3), b)]
    qctx = _context("Q")
    rho, tau = MultiPoly.gen(V, "rho"), MultiPoly.gen(V, "tau")
    d = rho + 2
    qf = [QuotientFraction(qctx, tau, d), QuotientFraction(qctx, rho, d)]
    for (x, y), den in ((rf, b), (qf, d)):
        products.clear()
        x + y, x - y, y + x
        assert squares(den) == 0, den
        # the counter sees the den product of two different dens
        other = x._new(y.num, den + 1)
        products.clear()
        x + other
        assert squares(den) == 0 and (den, other.den) in products, den

