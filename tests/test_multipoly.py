import operator
import random
from fractions import Fraction

import pytest

from k3quartic.fields import gaussian_field
from k3quartic.multipoly import MultiPoly, QuotientContext, QuotientFraction
from k3quartic.polynomials import Poly

V = ("x", "y")
x = MultiPoly.gen(V, "x")
y = MultiPoly.gen(V, "y")


def test_basic_arithmetic():
    p = (x + y) ** 2
    assert p == x ** 2 + 2 * x * y + y ** 2
    assert p.degree_in("x") == 2
    assert p.total_degree() == 2
    assert (p - p).is_zero


def test_evaluate_substitutes_polynomials():
    p = x ** 2 - y
    q = p.evaluate({"x": y + 1, "y": y})
    assert q == y ** 2 + y + 1
    r = p.evaluate({"x": Fraction(3), "y": 2})
    assert r == 7


def test_evaluate_keeps_a_variable_mapped_to_its_generator():
    p = x * y + y ** 2
    q = p.evaluate({"x": x + 1, "y": y})
    assert q == x * y + y + y ** 2


def _substitute_oracle(p, mapping):
    """Reference substitution, term by term with a power cache: variables
    absent from `mapping` stay themselves."""
    vals = {}
    for name, v in mapping.items():
        i = p.vars.index(name)
        if not isinstance(v, MultiPoly):
            v = MultiPoly.const(p.vars, v)
        vals[i] = v
    out = MultiPoly.zero(p.vars)
    powcache = {}
    for e, c in p.terms.items():
        base_exp = list(e)
        factor = MultiPoly.const(p.vars, c)
        for i, v in vals.items():
            k = e[i]
            base_exp[i] = 0
            if k:
                if (i, k) not in powcache:
                    powcache[i, k] = v ** k
                factor = factor * powcache[i, k]
        out = out + factor * MultiPoly(p.vars, {tuple(base_exp): 1})
    return out


def test_evaluate_matches_the_substitution_oracle():
    V3 = ("x", "y", "z")
    gens = {n: MultiPoly.gen(V3, n) for n in V3}
    rng = random.Random(25)

    def scalar():
        return rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 6))])

    def poly(terms, degree):
        return MultiPoly(V3, {tuple(rng.randint(0, degree) for _ in V3): scalar()
                              for _ in range(terms)})

    cases = [MultiPoly.zero(V3), MultiPoly.const(V3, 5), MultiPoly.const(V3, Fraction(-2, 3))]
    cases += [poly(rng.randint(1, 5), 3) for _ in range(297)]
    kinds = set()
    for p in cases:
        mapping = {}
        for n in V3:
            kind = rng.choice(["unmapped", "int", "fraction", "poly"])
            kinds.add(kind)
            if kind == "int":
                mapping[n] = rng.randint(-3, 3)
            elif kind == "fraction":
                mapping[n] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            elif kind == "poly":
                mapping[n] = poly(rng.randint(1, 3), 2)
        got = p.evaluate({n: mapping.get(n, gens[n]) for n in V3})
        assert _substitute_oracle(p, mapping) == got, (p, mapping)
    assert kinds == {"unmapped", "int", "fraction", "poly"}


@pytest.mark.parametrize("c", [0, 5, Fraction(-2, 3)])
def test_evaluate_a_constant_under_every_kind_of_assignment(c):
    # the sum starts from the first term, so the zero polynomial (no term)
    # must still give 0, and a constant its coefficient, whatever x maps to
    ctx = QuotientContext(V, [("x", 2, y + 1)])
    values = [Fraction(3, 7), 2, x + y, QuotientFraction(ctx, x, y)]
    p = MultiPoly.const(V, c)
    for value in values:
        got = p.evaluate({"x": value, "y": value})
        assert got == c and type(got) is type(c)


def test_evaluate_with_field_elements():
    QI = gaussian_field()
    i = QI.gen()
    p = x ** 2 + y ** 2
    assert p.evaluate({"x": i, "y": 1}) == 0


def test_exact_division():
    a = (x + y) * (x ** 2 - y + 3)
    assert a.try_exact_div(x + y) == x ** 2 - y + 3
    assert a.try_exact_div(x - y) is None
    with pytest.raises(ZeroDivisionError):
        a.try_exact_div(MultiPoly.zero(V))


def test_derivative():
    p = x ** 3 * y + 2 * y ** 2
    assert p.derivative("x") == 3 * x ** 2 * y
    assert p.derivative("y") == x ** 3 + 4 * y


CURVE_VARS = ("rho", "tau")
rho = MultiPoly.gen(CURVE_VARS, "rho")
tau = MultiPoly.gen(CURVE_VARS, "tau")


def curve_ctx():
    return QuotientContext(CURVE_VARS, [("tau", 2, rho ** 3 - rho)])


def test_quotient_reduce():
    ctx = curve_ctx()
    assert ctx.reduce(tau ** 2) == rho ** 3 - rho
    assert ctx.reduce(tau ** 3) == (rho ** 3 - rho) * tau
    assert ctx.reduce(tau ** 4) == (rho ** 3 - rho) ** 2
    assert ctx.is_zero(tau ** 2 - rho ** 3 + rho)


def test_quotient_reduce_rejects_head_in_replacement():
    with pytest.raises(ValueError):
        QuotientContext(CURVE_VARS, [("tau", 2, tau + rho)])


def test_quotient_fraction_equality():
    ctx = curve_ctx()
    t = QuotientFraction(ctx, tau)
    r = QuotientFraction(ctx, rho)
    assert t * t == r ** 3 - r
    assert t ** 4 == (r ** 3 - r) ** 2
    # (tau/rho)^2 == (rho^2 - 1)/rho on the curve
    assert (t / r) ** 2 == (r ** 2 - 1) / r
    assert (1 + t) / (1 - t) * ((1 - t) / (1 + t)) == 1


def test_quotient_fraction_zero_denominator():
    ctx = curve_ctx()
    t = QuotientFraction(ctx, tau)
    with pytest.raises(ZeroDivisionError):
        t / (t * t - (rho ** 3 - rho))


def test_quotient_fractions_of_two_rings_never_mix():
    # t^2 = x in c1 and no relation in c2, over one variable tuple: matched
    # by variable names, a == b was False but b == a True, and a - b was
    # t^2 - x while b - a was 0
    V2 = ("x", "t")
    x2, t2 = MultiPoly.gen(V2, "x"), MultiPoly.gen(V2, "t")
    c1 = QuotientContext(V2, [("t", 2, x2)])
    c2 = QuotientContext(V2, [])
    a, b = QuotientFraction(c2, t2 ** 2), QuotientFraction(c1, x2)
    assert not a == b and not b == a
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(a, b)
        with pytest.raises(TypeError):
            op(b, a)


def test_two_relation_context():
    vars3 = ("r", "t", "w")
    r = MultiPoly.gen(vars3, "r")
    t = MultiPoly.gen(vars3, "t")
    w = MultiPoly.gen(vars3, "w")
    ctx = QuotientContext(vars3, [("t", 2, r ** 2 + 1), ("w", 4, r - 1)])
    red = ctx.reduce(t ** 2 * w ** 5)
    assert red == (r ** 2 + 1) * (r - 1) * w
    assert ctx.is_zero((t ** 2 - r ** 2 - 1) * w ** 3)


def test_constant_hashes_like_the_value_it_equals():
    c = MultiPoly.const(V, Fraction(3, 2))
    assert c == Fraction(3, 2) and hash(c) == hash(Fraction(3, 2))
    assert len({c, Fraction(3, 2), Poly.constant("x", Fraction(3, 2))}) == 1
    assert hash(MultiPoly.zero(V)) == hash(0)
    assert len({x + 1, x + 1}) == 1
