import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from k3quartic.fields import (
    FieldContext,
    FieldElement,
    eighth_root_field,
    gaussian_field,
    quartic_root_field,
    sqrt_field,
    with_imaginary_unit,
)
from k3quartic.quartic import ALPHA
from k3quartic import polynomials, zx
from k3quartic.polynomials import (
    Poly,
    RationalFunction,
    _cancel_common,
    certified_factors,
    poly_gcd,
    poly_nth_root,
    qdiv,
    rational_roots,
    scalar_nth_root,
    squarefree_decompose,
)
from k3quartic.zx import _eval_mod, _is_prime, _lifted_roots, _zz_derivative

lam = Poly.x("lam")


def test_construction_and_degree():
    p = 3 * lam ** 2 - lam + Fraction(1, 2)
    assert p.degree == 2
    assert p.coeff(1) == -1
    assert p.coeff(5) == 0
    assert Poly("lam").degree == float("-inf")
    assert p.leading_coefficient() == 3


def test_integral_coeffs_stay_exact():
    p = (2 * lam + 4).monic()
    assert p.coeff(0) == Fraction(2)
    assert type(p.coeff(0)) is int
    q = (2 * lam + 3).monic()
    assert q.coeff(0) == Fraction(3, 2)
    assert type(q.coeff(0)) is Fraction


def test_divmod_exactness():
    a = (lam ** 2 - 1) * (lam + 3) + 7
    q, r = divmod(a, lam ** 2 - 1)
    assert q == lam + 3
    assert r == 7
    assert q * (lam ** 2 - 1) + r == a


def test_true_division_routes_to_fraction():
    out = (lam ** 2 - 1) / (lam - 1)
    assert isinstance(out, Poly)
    assert out == lam + 1
    frac = lam / (lam + 1)
    assert isinstance(frac, RationalFunction)


def test_evaluation_and_composition():
    p = lam ** 3 - 2 * lam + 1
    assert p(Fraction(2)) == 5
    inner = lam + 1
    assert p(inner) == inner ** 3 - 2 * inner + 1


def test_evaluation_with_field_scalars():
    QI = gaussian_field()
    i = QI.gen()
    p = lam ** 2 + 1
    assert p(i) == 0
    assert p(1 + i) == (1 + i) ** 2 + 1


def test_gcd():
    a = (lam - 1) ** 2 * (lam + 4)
    b = (lam - 1) * (lam - 5)
    assert poly_gcd(a, b) == lam - 1
    assert poly_gcd(a, Poly("lam")) == a.monic()


def test_squarefree_decomposition_roundtrip():
    p = 5 * (lam - 1) ** 2 * (lam + 2) ** 3 * (lam ** 2 + 1)
    unit, factors = squarefree_decompose(p)
    assert unit == 5
    assert [(f, m) for f, m in factors] == [
        (lam ** 2 + 1, 1),
        (lam - 1, 2),
        (lam + 2, 3),
    ]
    rebuilt = Poly.constant("lam", unit)
    for f, m in factors:
        rebuilt = rebuilt * f ** m
    assert rebuilt == p


def test_nth_root():
    p = (lam ** 2 + 2) ** 4 * 16
    r = poly_nth_root(p, 4)
    assert r == 2 * (lam ** 2 + 2)
    assert r ** 4 == p
    assert poly_nth_root((lam + 1) ** 2 * (lam + 2) ** 3, 2) is None
    assert poly_nth_root((lam + 1) ** 3 * -8, 3) == -2 * (lam + 1)


def test_scalar_nth_root():
    assert scalar_nth_root(Fraction(16, 81), 4) == Fraction(2, 3)
    assert scalar_nth_root(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert scalar_nth_root(Fraction(-4), 2) is None
    assert scalar_nth_root(Fraction(5), 2) is None
    big = Fraction(10 ** 60)
    assert scalar_nth_root(big, 4) == 10 ** 15
    big = Fraction(7 ** 400)  # above 1e308, where a float guess overflows
    assert scalar_nth_root(big, 2) == 7 ** 200
    assert scalar_nth_root(big, 4) == 7 ** 100
    assert scalar_nth_root(big + 1, 4) is None
    assert scalar_nth_root(big + 1, 2) is None
    assert scalar_nth_root(Fraction(-7 ** 300, 11 ** 3), 3) == Fraction(-7 ** 100, 11)


def test_rational_roots():
    p = (2 * lam - 3) ** 2 * (lam + 5) * (lam ** 2 + 1)
    roots = dict(rational_roots(p))
    assert roots == {Fraction(3, 2): 2, Fraction(-5): 1}
    assert rational_roots(lam ** 3) == [(Fraction(0), 3)]



def _root_order(q):
    # root 0 first, then (|numerator|, denominator), positive before negative
    return abs(q.numerator), q.denominator, q < 0


def _random_rooted_poly(rng, min_degree=1, max_degree=8):
    """A seeded polynomial of degree min_degree to max_degree over Fraction
    mixing rational roots (some with 20- to 60-digit numerators and
    denominators, some repeated, 0 and +/- pairs among them) with
    irreducible quadratic and cubic factors."""
    t = Poly.x("t")
    p = Poly.constant("t", Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)))
    while p.degree < min_degree or rng.random() < 0.6:
        kind = rng.random()
        if kind < 0.35:
            f = t - Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        elif kind < 0.55:
            digits = rng.randint(20, 60)
            f = t - Fraction(rng.choice([-1, 1]) * rng.randint(10 ** (digits - 1), 10 ** digits),
                             rng.randint(10 ** (digits - 1), 10 ** digits))
        elif kind < 0.6:
            f = t
        elif kind < 0.7:
            f = t ** 2 - Fraction(rng.randint(1, 20), rng.randint(1, 6)) ** 2
        elif kind < 0.85:
            f = rng.randint(1, 5) * t ** 2 + rng.randint(-9, 9) * t + rng.choice([1, 2, 3, 5, 7])
        else:
            f = t ** 3 - rng.choice([2, 3, 5, 7, 10])
        m = rng.choice([1, 1, 2, 3])
        if p.degree + m * f.degree <= max_degree:
            p = p * f ** m
    return p


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20240611)
    # degrees 1-8, then 9-40, where the squarefree part goes through the
    # p-adic integer root search rather than the closed forms
    draws = [_random_rooted_poly(rng) for _ in range(320)]
    draws += [_random_rooted_poly(rng, rng.randint(9, 40), 40) for _ in range(24)]
    for p in draws:
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in
                  (p.coeff(e) for e in range(p.degree, -1, -1))]
        oracle = sympy.Poly(coeffs, x, domain=sympy.QQ).ground_roots()
        expected = sorted(((Fraction(int(r.p), int(r.q)), m) for r, m in oracle.items()),
                          key=lambda rm: _root_order(rm[0]))
        assert rational_roots(p) == expected, p


def _int_horner(c, x):
    """c(x) for integer coefficients c, lowest degree first."""
    acc = 0
    for a in reversed(c):
        acc = acc * x + a
    return acc


# The Descartes isolation that the p-adic root search replaced, kept verbatim
# as the oracle (its entry point renamed from _monic_integer_roots): it
# bisects (-B, B) on Descartes' sign-variation count.
def _taylor_shift(c, s):
    """The coefficients of c(x + s), lowest degree first."""
    c = list(c)
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += s * c[j + 1]
    return c


def _descartes_count(c, a, b):
    """Descartes' bound on the roots of c in the open interval (a, b): the
    sign variations of (x + 1)^n c((a + b x) / (x + 1)).  It is exact when
    it reads 0 or 1."""
    w = b - a
    shifted = [ci * w ** i for i, ci in enumerate(_taylor_shift(c, a))]
    signs = [v > 0 for v in _taylor_shift(shifted[::-1], 1) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _integer_root_in(c, a, b):
    """The integer root of c strictly between a and b, or None, when c has
    exactly one (simple) real root there: bisection on the sign of c."""
    lo, hi = a + 1, b - 1
    if lo > hi:
        return None
    s_lo, s_hi = _int_horner(c, lo), _int_horner(c, hi)
    if s_lo == 0:
        return lo
    if s_hi == 0:
        return hi
    if (s_lo > 0) == (s_hi > 0):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = _int_horner(c, mid)
        if v == 0:
            return mid
        if (v > 0) == (s_lo > 0):
            lo = mid
        else:
            hi = mid
    return None


def _descartes_integer_roots(c):
    """The integer roots of a monic integer polynomial with c[0] != 0.

    Every real root lies strictly inside (-B, B) for the power of two B from
    Fujiwara's bound, so Descartes' rule on integer subintervals, bisected
    at integer midpoints, misses none; an interval of width 1 holds no
    integer in its interior and is dropped."""
    n = len(c) - 1
    e = max(-(-abs(ci).bit_length() // (n - i)) for i, ci in enumerate(c[:-1]))
    bound = 1 << (e + 1)
    roots = []
    stack = [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        v = _descartes_count(c, a, b)
        if v == 1:
            r = _integer_root_in(c, a, b)
            if r is not None:
                roots.append(r)
        elif v > 1:
            mid = (a + b) // 2
            if _int_horner(c, mid) == 0:
                roots.append(mid)
            stack.append((a, mid))
            stack.append((mid, b))
    return roots


def _int_product(factors):
    """The product of integer coefficient vectors, lowest degree first."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


# The monic-transform root search that the lift on h itself replaced, kept
# unchanged as the oracle: the integer roots y = lead x of
# lead^(n-1) h(y / lead).
def _monic_integer_roots(c):
    """The integer roots of a squarefree monic integer polynomial with
    c[0] != 0, by p-adic lifting (Loos 1983).

    Every root lies strictly inside (-B, B) for the power of two B from
    Fujiwara's bound.  p is the first prime at which every root of c mod p
    is simple (only primes dividing the discriminant fail); an integer root
    reduces to one of them, whose lift mod q is unique, so Newton's step
    r <- r - c(r) / c'(r) mod q, with q squared each step up to q >= 2B,
    misses none.  The symmetric residues are confirmed by exact evaluation."""
    n = len(c) - 1
    e = max(-(-abs(ci).bit_length() // (n - i)) for i, ci in enumerate(c[:-1]))
    bound = 1 << (e + 1)
    dc = _zz_derivative(c)
    p = 1
    while True:
        p += 1
        if any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
            continue
        roots = [r for r, v in enumerate(_eval_mod(c, range(p), p)) if v == 0]
        if all(_eval_mod(dc, roots, p)):
            break
    q = p
    while roots and q < 2 * bound:
        q *= q
        roots = [(r - v * pow(d, -1, q)) % q for r, v, d in
                 zip(roots, _eval_mod(c, roots, q), _eval_mod(dc, roots, q))]
    roots = [r - q if 2 * r > q else r for r in roots]
    return [r for r in roots if _int_horner(c, r) == 0]


def _monic_transform(h):
    """The coefficients, lowest first, of lead^(n-1) h(y / lead) for the
    integer vector h of degree n >= 1 with leading coefficient lead: h_i
    times lead^(n-1-i), the powers built by one running product from the top
    coefficient down instead of one big power per coefficient."""
    lead = h[-1]
    out, power = [1], 1
    for ci in reversed(h[:-1]):
        out.append(ci * power)
        power *= lead
    out.reverse()
    return out


def _confirmed_lifted_roots(h):
    """The candidates of the lift on the integer vector h that are roots of
    h by exact evaluation, as ``rational_roots`` confirms them."""
    p = Poly("x", dict(enumerate(h)))
    return sorted(x for x in _lifted_roots(h) if p(x) == 0)


def _assert_roots_match_oracle(c, expected):
    assert _confirmed_lifted_roots(c) == sorted(_descartes_integer_roots(c)) == sorted(expected), c


def test_integer_roots_match_descartes_oracle():
    # monic squarefree: distinct nonzero integer roots of up to 14 digits
    # times distinct monic irreducible cofactors without rational roots
    # (x^2 + a, x^2 - a for a nonsquare a, x^3 - (k^3 + 1)), some of whose
    # real roots are irrational
    rng = random.Random(20261018)
    for _ in range(200):
        roots = set()
        for _ in range(rng.randint(0, 7)):
            digits = rng.randint(1, 14)
            roots.add(rng.choice([-1, 1]) * rng.randint(1, 10 ** digits - 1))
        cofactors = set()
        for _ in range(rng.randint(0 if roots else 1, 3)):
            kind, a = rng.randrange(3), rng.randint(1, 10 ** 6)
            if kind == 0:
                cofactors.add((a, 0, 1))
            elif kind == 1 and math.isqrt(a) ** 2 != a:
                cofactors.add((-a, 0, 1))
            else:
                cofactors.add((-(a ** 3 + 1), 0, 0, 1))
        c = _int_product([[-r, 1] for r in roots] + sorted(cofactors))
        _assert_roots_match_oracle(c, roots)


def test_integer_roots_skip_every_prime_with_a_double_root():
    # the roots (-1)^k k for k <= 30 meet mod every prime p <= 30, so each
    # such p leaves a double root and must be skipped
    roots = [(-1) ** k * k for k in range(1, 31)]
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        assert len({r % p for r in roots}) < len(roots)
    _assert_roots_match_oracle(_int_product([[-r, 1] for r in roots]), roots)


def test_integer_roots_with_no_root_mod_the_chosen_prime():
    # (x^4 + 1)(x^2 - 2) has double roots 1 and 0 mod 2 and no root mod 3,
    # the prime the search settles on
    c = _int_product([[1, 0, 0, 0, 1], [-2, 0, 1]])
    assert _int_horner(c, 1) % 2 == _int_horner(_zz_derivative(c), 1) % 2 == 0
    assert all(_int_horner(c, r) % 3 for r in range(3))
    _assert_roots_match_oracle(c, [])


def test_lift_on_h_matches_the_monic_transform_oracle():
    # squarefree, primitive, non-monic: planted roots a/b times a cofactor
    # L x^k + m with no rational root, L a multiple of 30030, so the lift
    # must skip every prime from 2 to 13
    rng = random.Random(20261019)
    for _ in range(400):
        planted = set()
        for _ in range(rng.randint(0, 6)):
            a = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 15) - 1)
            planted.add(Fraction(a, rng.randint(1, 10 ** rng.randint(1, 6) - 1)))
        while True:
            k, lead = rng.randint(2, 6), 30030 * rng.randint(1, 10 ** 4)
            m = rng.choice([-1, 1]) * rng.randint(1, 10 ** 9)
            if math.gcd(m, lead) == 1 and scalar_nth_root(Fraction(-m, lead), k) is None:
                break
        h = _int_product([[-x.numerator, x.denominator] for x in planted]
                         + [[m] + [0] * (k - 1) + [lead]])
        assert all(h[-1] % p == 0 for p in (2, 3, 5, 7, 11, 13))
        oracle = sorted(Fraction(y, h[-1]) for y in _monic_integer_roots(_monic_transform(h)))
        assert _confirmed_lifted_roots(h) == oracle == sorted(planted), h


# The confirmation loop that exact division in Z[x] replaced, kept as the
# oracle: each candidate evaluated by Horner in Fractions, and its linear
# factor divided out by Poly division, as often as it divides.
def _horner_roots_and_cofactor(p):
    ints = p.nums
    lo = min(ints)
    out = []
    if lo > 0:
        out.append((Fraction(0), lo))
        ints = {e - lo: c for e, c in ints.items()}
    work = Poly(p.var, ints)
    if max(ints) == 0:
        return out, work
    v = zx._split_content([ints.get(e, 0) for e in range(max(ints) + 1)])[1]
    cands = sorted(set(zx._root_candidates(v)), key=_root_order)
    for r in cands:
        if work.degree <= 0:
            break
        m = 0
        while work.degree > 0 and work(r) == 0:
            work = work // Poly(p.var, {1: 1, 0: -r})
            m += 1
        if m:
            out.append((r, m))
    return out, work


def test_roots_and_cofactor_match_the_horner_oracle():
    # non-monic: a rational content, x^k, planted roots a/b of multiplicity
    # 1 to 4 and a cofactor L x^j + n without a rational root, L of up to
    # 12 digits
    rng = random.Random(20261021)
    x = Poly.x("x")
    for _ in range(150):
        planted = {}
        for _ in range(rng.randint(0, 4)):
            a = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 12) - 1)
            planted[Fraction(a, rng.randint(1, 10 ** rng.randint(1, 5)))] = rng.randint(1, 4)
        k = rng.choice([0, 0, 1, 3])
        p = Poly.constant("x", _big_content(rng)) * x ** k
        for r, m in planted.items():
            p = p * (r.denominator * x - r.numerator) ** m
        if rng.random() < 0.8:
            while True:
                j, big = rng.randint(2, 5), rng.randint(2, 10 ** 12)
                n = rng.choice([-1, 1]) * rng.randint(1, 10 ** 6)
                if scalar_nth_root(Fraction(-n, big), j) is None:
                    break
            p = p * (big * x ** j + n)
        roots, v = polynomials._roots_and_cofactor(p)
        cofactor = polynomials._from_ints("x", v)
        want_roots, want_cofactor = _horner_roots_and_cofactor(p)
        assert roots == want_roots, p
        assert cofactor.monic() == want_cofactor.monic(), p
        if k:
            planted[Fraction(0)] = k
        assert dict(roots) == planted, p


def test_squarefree_decompose_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20240612)
    for _ in range(120):
        p = _random_rooted_poly(rng)
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in
                  (p.coeff(e) for e in range(p.degree, -1, -1))]
        unit, factors = sympy.Poly(coeffs, x, domain=sympy.QQ).sqf_list()
        expected = [([Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())], m)
                    for f, m in factors]
        got_unit, got = squarefree_decompose(p)
        assert got_unit == Fraction(int(unit.p), int(unit.q))
        assert [([f.coeff(e) for e in range(f.degree + 1)], m) for f, m in got] == expected

def test_certified_factors():
    p = (lam - 2) * (lam ** 2 + 3)
    factors, residual = certified_factors(p)
    assert residual is None
    assert lam - 2 in factors and lam ** 2 + 3 in factors
    # a rootless quartic stays uncertified
    factors, residual = certified_factors((lam ** 2 + 1) * (lam ** 2 + 2))
    assert factors == []
    assert residual == (lam ** 2 + 1) * (lam ** 2 + 2)


REPEATED_ROOT_FACTORS = """\
from k3quartic.polynomials import Poly, certified_factors
from k3quartic.zx import _lifted_roots
lam = Poly.x("lam")
print(certified_factors((lam - 1) ** 2 * (lam ** 2 + 3) * (lam + 5)))
h = ((lam - 1) ** 2 * (lam ** 2 + 3) * (lam ** 2 - lam + 10)).nums
print(sorted(_lifted_roots([h.get(e, 0) for e in range(7)])))
"""


def test_lift_of_a_repeated_root_terminates():
    # 1 is a double root of each polynomial mod every prime, so only its
    # squarefree part has a prime with simple roots; the subprocess bounds
    # the time the search may take
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", REPEATED_ROOT_FACTORS],
                         capture_output=True, text=True, timeout=20, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "([lam - 1, lam - 1, lam + 5, lam^2 + 3], None)", "[Fraction(1, 1)]"]


def test_mixed_variable_arithmetic_rejected():
    # two polynomials, or two rational functions, in different variables
    # meet only as mixed-variable operands; a rational function is a
    # coefficient of a Poly in another variable only
    mu = Poly.x("mu")
    with pytest.raises(TypeError):
        lam + mu
    with pytest.raises(TypeError):
        poly_gcd(lam, mu)
    f, g = RationalFunction(lam, lam + 1), RationalFunction(mu, mu - 1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b in ((f, g), (g, f)):
            with pytest.raises(TypeError, match="mixed variables"):
                op(a, b)


def test_rational_function_normalization():
    f = RationalFunction(2 * lam ** 2 - 2, 4 * lam + 4)
    # the denominator is normalized monic, here all the way to 1
    assert f.is_polynomial
    assert f.num == (lam - 1) / 2
    g = (lam ** 2 - 1) / (lam + 1) ** 2
    assert g == (lam - 1) / (lam + 1)


def substitute(rf, value):
    """rf evaluated at a scalar, polynomial, or rational function."""
    return qdiv(rf.num(value), rf.den(value))


def test_rational_function_arithmetic():
    f = 1 / lam
    g = lam / (lam + 1)
    assert f + g == (lam ** 2 + lam + 1) / (lam ** 2 + lam)
    assert f * g == 1 / (lam + 1)
    assert (f - f).is_zero
    assert f ** -3 == RationalFunction(lam ** 3)
    assert substitute(g, Fraction(1)) == Fraction(1, 2)


def test_rational_function_derivative():
    f = 1 / (lam ** 2 + 1)
    df = f.derivative()
    assert df == RationalFunction(-2 * lam, (lam ** 2 + 1) ** 2)


def test_rational_function_substitute_rational_function():
    f = (lam - 1) / (lam + 1)
    sub = substitute(f, 1 / lam)
    assert sub == (1 - lam) / (1 + lam)


def test_poly_substitute_negative_power_via_rf():
    # reparametrizations like lam -> 1/mu need rational-function composition
    p = lam ** 2 + 3
    mu_inv = 1 / Poly.x("lam")
    assert p(mu_inv) == (1 + 3 * lam ** 2) / lam ** 2


def test_constants_hash_like_the_values_they_equal():
    two = Poly.constant("lam", 2)
    assert two == 2 and hash(two) == hash(2)
    assert len({two, 2}) == 1
    assert hash(Poly("lam")) == hash(0)
    K = gaussian_field()
    i_const = Poly.constant("lam", K.gen())
    assert i_const == K.gen() and hash(i_const) == hash(K.gen())
    p = lam ** 2 + 1
    assert RationalFunction(p) == p and hash(RationalFunction(p)) == hash(p)
    half = RationalFunction(Poly.constant("lam", Fraction(1, 2)))
    assert len({half, Fraction(1, 2), Poly.constant("lam", Fraction(1, 2))}) == 1


# -- the integer gcd kernel ------------------------------------------------------


def _small_factor(rng):
    """A seeded polynomial in t of degree 1-3 with coefficients in [-9, 9]."""
    deg = rng.randint(1, 3)
    coeffs = {e: rng.randint(-9, 9) for e in range(deg)}
    coeffs[deg] = rng.choice([-1, 1]) * rng.randint(1, 9)
    return Poly("t", coeffs)


def _big_content(rng):
    """A nonzero rational with 20- to 60-digit numerator and denominator."""
    digits = rng.randint(20, 60)
    return Fraction(rng.choice([-1, 1]) * rng.randint(10 ** (digits - 1), 10 ** digits),
                    rng.randint(10 ** (digits - 1), 10 ** digits))


def _as_int_dict(p):
    """p built through the constructor from a dict of Python ints."""
    return Poly(p.var, {e: int(c) for e, c in p.coeffs.items()})


def _gcd_cases(rng):
    """Seeded (a, b) pairs: shared factors, some repeated, times coprime
    cofactors, and scaled by large rational contents; plus coprime pairs,
    equal inputs, a zero operand and integer dicts."""
    t = Poly.x("t")
    one = Poly.constant("t", 1)
    cases = []
    for i in range(150):
        shared = one
        for _ in range(rng.randint(0, 3)):
            shared = shared * _small_factor(rng) ** rng.choice([1, 1, 2, 3])
        a = shared * _small_factor(rng)
        b = shared * (_small_factor(rng) if rng.random() < 0.8 else one)
        if i % 3 == 0:
            a, b = a * _big_content(rng), b * _big_content(rng)
        cases.append((a, b))
    for _ in range(20):
        cases.append((_small_factor(rng) * _small_factor(rng), _small_factor(rng)))
        a = _small_factor(rng) ** 2 * _big_content(rng)
        cases.append((a, a))
        cases.append((a, Poly("t")))
        cases.append((Poly("t"), _small_factor(rng)))
        a, b = _small_factor(rng) * (t - 2), _small_factor(rng) * (t - 2) ** 2
        cases.append((_as_int_dict(a), _as_int_dict(b)))
    return cases


def _sympy_poly(sympy, x, p):
    coeffs = [sympy.Rational(int(c.numerator), int(c.denominator))
              for c in (Fraction(p.coeff(e)) for e in range(max(p.degree, 0), -1, -1))]
    return sympy.Poly(coeffs, x, domain=sympy.QQ)


def _coeff_list(sp):
    return [Fraction(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs())]


def test_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261018)
    for a, b in _gcd_cases(rng):
        got = poly_gcd(a, b)
        expected = _sympy_poly(sympy, x, a).gcd(_sympy_poly(sympy, x, b))
        assert [got.coeff(e) for e in range(got.degree + 1)] == _coeff_list(expected), (a, b)
        assert got.leading_coefficient() == 1
        assert all(type(c) in (int, Fraction) for c in got.coeffs.values())


# GCDHEU, the heuristic gcd that the modular gcd replaced, kept as an oracle:
# evaluation at one large point, an integer gcd, and its digits read back.
def _symmetric_digits(n, xi):
    """The integer vector v with v(xi) = n and every |entry| <= xi / 2."""
    v = []
    half = xi // 2
    while n:
        d = n % xi
        if d > half:
            d -= xi
        v.append(d)
        n = (n - d) // xi
    return v


def _heu_gcd(f, g):
    """GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 1989) on primitive
    integer vectors with positive leading entries: (h, f / h, g / h) for h
    = gcd(f, g), or None when it gives up after seven points.  A candidate
    that divides both inputs exactly is their gcd when xi >= 2 min(|f|,
    |g|) + 2 (Geddes, Czapor & Labahn, Algorithms for Computer Algebra,
    thm 7.7)."""
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(7):
        n = math.gcd(_int_horner(f, xi), _int_horner(g, xi))
        h = zx._split_content(_symmetric_digits(n, xi))[1]
        cf = zx._zz_divexact(f, h)
        if cf is not None:
            cg = zx._zz_divexact(g, h)
            if cg is not None:
                return h, cf, cg
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _zz_gcd_cases(rng):
    """Seeded (f, g) integer vectors: a shared factor to multiplicity 1-3
    times random cofactors, up to degree 200 and 1000-bit entries, then
    zero and constant operands and a pair on which GCDHEU retries."""
    def vec(deg, bits):
        v = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(deg)]
        return v + [rng.choice([-1, 1]) * rng.randint(1, 2 ** bits)]
    cases = []
    for i in range(24):
        deg, bits = ((1, 4), (3, 20), (12, 70), (40, 1000))[i % 4]
        h = vec(rng.randint(1, deg), bits)
        f = _int_product([h] * (1 + i % 3) + [vec(rng.randint(0, deg), bits)])
        g = _int_product([h] * rng.randint(1, 2) + [vec(rng.randint(0, deg), bits)])
        cases.append((f, g))
    f = vec(64, 1000)
    cases.extend([(f, []), ([], f), ([-6], f), (f, [5]), ([4], [-6]), ([0, 0, 9], [0, 6])])
    # coprime, and GCDHEU's first point (xi = 43) reads back t + 19
    cases.append(([-5, -1, -1, 7], [9, 7]))
    return cases


def test_zz_gcd_matches_gcdheu_and_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261020)
    cases = _zz_gcd_cases(rng)
    assert max(len(f) for f, _ in cases) > 129
    assert max(abs(c).bit_length() for f, _ in cases for c in f) >= 1000
    for f, g in cases:
        h, cf, cg = zx._zz_gcd(f, g)
        assert (_int_product([h, cf]) if cf else []) == f, (f, g)
        assert (_int_product([h, cg]) if cg else []) == g, (f, g)
        expected = sympy.Poly(f[::-1] or [0], x, domain=sympy.ZZ).gcd(
            sympy.Poly(g[::-1] or [0], x, domain=sympy.ZZ)).primitive()[1]
        expected = [int(c) for c in reversed(expected.all_coeffs())]
        assert h == (expected if expected[-1] > 0 else [-c for c in expected]), (f, g)
        if f and g:
            pf, pg = zx._split_content(f)[1], zx._split_content(g)[1]
            heu = _heu_gcd(pf, pg)
            assert heu is None or heu[0] == h, (f, g)


def test_modular_gcd_skips_a_prime_with_a_common_root():
    # x - a and x - a - P are coprime over Q, but at the first table prime P
    # they share the root a: the degree-1 image there gives x - a, which
    # only the exact division rejects, and the next prime proves coprimality
    P = next(zx._primes())
    f, g = [-12345, 1], [-12345 - P, 1]
    assert len(zx._gf_gcd([c % P for c in f], [c % P for c in g], P)) == 2
    h, cf, cg = zx._zz_gcd(f, g)
    assert h == [1] and cf == f and cg == g
    assert poly_gcd(Poly("t", dict(enumerate(f))), Poly("t", dict(enumerate(g)))) == 1


def test_modular_gcd_skips_a_prime_dividing_a_leading_entry():
    # gcd = P t + 1; mod P both inputs lose their top degree and the images
    # t + 3 and t - 5 would read as coprime
    P = next(zx._primes())
    f = _int_product([[1, P], [3, 1]])
    g = _int_product([[1, P], [-5, 1]])
    h, cf, cg = zx._zz_gcd(f, g)
    assert h == [1, P] and cf == [3, 1] and cg == [-5, 1]


def test_modular_gcd_skips_an_image_of_higher_degree(monkeypatch):
    # gcd t + c with c past the first prime, so one image cannot fix it;
    # the cofactors t - 7 and t - 7 - Q share a root mod the second prime Q,
    # whose image of degree 2 arrives after the first of degree 1
    primes = zx._primes()
    next(primes)
    Q = next(primes)
    c = 2 ** 100 + 3
    f = _int_product([[c, 1], [-7, 1]])
    g = _int_product([[c, 1], [-7 - Q, 1]])
    degrees = []
    real = zx._gf_gcd

    def spy(a, b, p):
        w = real(a, b, p)
        degrees.append(len(w) - 1)
        return w

    monkeypatch.setattr(zx, "_gf_gcd", spy)
    h, cf, cg = zx._zz_gcd(f, g)
    assert degrees[:2] == [1, 2] and 2 not in degrees[2:]
    assert h == [c, 1] and cf == [-7, 1] and cg == [-7 - Q, 1]


def test_modular_gcd_reads_a_small_gcd_off_one_prime(monkeypatch):
    # gcd 3t - 2: the image at the first prime, t - 2/3 there, scaled by
    # b = 3 and read as a symmetric residue, is already the gcd; a candidate
    # that missed either step would never divide, so the spy stops the loop
    calls = []
    real = zx._gf_gcd

    def spy(a, b, p):
        calls.append(p)
        assert len(calls) < 5, "more primes than a gcd of 2-bit entries needs"
        return real(a, b, p)

    monkeypatch.setattr(zx, "_gf_gcd", spy)
    h, cf, cg = zx._zz_gcd(_int_product([[-2, 3], [5, 1]]), _int_product([[-2, 3], [-4, 3]]))
    assert (h, cf, cg) == ([-2, 3], [5, 1], [-4, 3]) and len(calls) == 1


def test_is_prime_is_exact_from_zero_up_and_on_strong_pseudoprimes():
    sieve = [True] * 5000
    sieve[0] = sieve[1] = False
    for i in range(2, 71):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [n for n in range(-5, 5000) if _is_prime(n)] == [n for n in range(5000) if sieve[n]]
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base
    # up to 23, and Carmichael numbers
    for n in (3215031751, 3825123056546413051, 561, 41041, 2 ** 62 - 55):
        assert not _is_prime(n), n
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 62 - 57)
    assert next(zx._primes()) == 2 ** 62 - 57


def test_squarefree_decompose_matches_sympy_on_content_heavy_inputs():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261019)
    for _ in range(80):
        p = Poly.constant("t", _big_content(rng))
        while p.degree < 1 or rng.random() < 0.7:
            f, m = _small_factor(rng) * _big_content(rng), rng.choice([1, 1, 2, 3, 4])
            if p.degree + m * f.degree <= 12:
                p = p * f ** m
        unit, factors = _sympy_poly(sympy, x, p).sqf_list()
        got_unit, got = squarefree_decompose(p)
        assert got_unit == Fraction(int(unit.p), int(unit.q))
        assert [([f.coeff(e) for e in range(f.degree + 1)], m) for f, m in got] == [
            (_coeff_list(f), m) for f, m in factors], p


def _field_gcd_cases():
    """(a, b, monic gcd) over Q(i) and over Q(alpha), the coefficients
    FieldElements and RationalFunctions: one trivial and one nontrivial
    gcd each, the shared factor repeated in b."""
    cases = []
    for c in (gaussian_field().gen(), ALPHA):
        shared = Poly("t", {2: 1, 1: -c, 0: 1})
        a, b = Poly("t", {1: c + 2, 0: -1}), Poly("t", {2: 1, 0: c})
        cases.append((a, b, Poly.constant("t", 1)))
        cases.append((a * shared, shared ** 2 * b * Poly.constant("t", c), shared))
    return cases


# Yun's squarefree decomposition as it ran before the power of x was split
# off, kept as the oracle: its gcds see the whole of p, x^k included.
def _yun_on_the_whole(p):
    unit = p.leading_coefficient()
    if p.degree == 0:
        return unit, []
    form = polynomials._int_form(p)
    if form is not None:
        return unit, [(polynomials._from_ints(p.var, f, qdiv(1, f[-1])), i)
                      for f, i in zx._zz_yun(form[1])]
    p = p.monic()
    _, c, d = polynomials._gcd_cofactors(p, p.derivative())
    d = d - c.derivative()
    out = []
    i = 1
    while c.degree > 0:
        f, c, d = polynomials._gcd_cofactors(c, d)
        if f.degree > 0:
            out.append((f, i))
        d = d - c.derivative()
        i += 1
    return unit, out


def _exact_form(p):
    """p's variable, denominator and typed coefficients: equal only for
    polynomials built alike."""
    return p.var, p.den, {e: (type(c), c) for e, c in p.nums.items()}


@pytest.mark.parametrize("field", ["Q", "Q(i)", "Q(alpha)"])
def test_squarefree_split_of_x_matches_yun_on_the_whole(field):
    # c x^k q with q(0) != 0 and q's multiplicities drawn from 1-3: q = 1
    # (c x^k alone), k = 0, and k below, equal to and above each of them;
    # and the family's t^3 (t^2 + 2 t + alpha)^2, whose leading 1 is an int
    gen = {"Q": Fraction(1, 3), "Q(i)": gaussian_field().gen(), "Q(alpha)": ALPHA}[field]
    rng = random.Random(20261022)
    t = Poly.x("t")
    cases = [t ** 3 * Poly("t", {2: 1, 1: 2, 0: gen}) ** 2]
    for mults in ((), (1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3)):
        for _ in range(3):
            q = Poly.constant("t", 1)
            for m in mults:
                lead = rng.choice([1, 2, -3]) + rng.randint(0, 1) * gen
                low = rng.choice([-1, 1]) * rng.randint(1, 9) + rng.randint(-1, 1) * gen
                f = Poly("t", {1: lead, 0: low})
                if field == "Q" and rng.random() < 0.5:
                    f = f * t + rng.randint(1, 5)
                q = q * f ** m
            c = rng.choice([1, -2, Fraction(5, 7)]) + rng.randint(0, 1) * gen
            cases += [Poly.constant("t", c) * t ** k * q for k in range(max(mults, default=0) + 2)]
    for p in cases:
        unit, factors = squarefree_decompose(p)
        want_unit, want = _yun_on_the_whole(p)
        assert type(unit) is type(want_unit) and unit == want_unit, p
        assert [(_exact_form(f), m) for f, m in factors] == [
            (_exact_form(f), m) for f, m in want], p


def test_cancel_common_cofactors_are_the_quotients():
    rng = random.Random(20261020)
    cases = [(a, b, poly_gcd(a, b)) for a, b in _gcd_cases(rng)]
    for a, b, g in cases + _field_gcd_cases():
        if a.degree <= 0 or b.degree <= 0:
            continue
        assert poly_gcd(a, b) == g
        p, q = _cancel_common(a, b)
        assert (p, q) == (a // g, b // g)
        assert (p * g, q * g) == (a, b)
        if g.degree == 0:
            assert p is a and q is b



# -- differential: Poly over Q against a plain {exponent: Fraction} oracle ------


def _o_clean(d):
    return {e: c for e, c in d.items() if c}


def _o_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return _o_clean(out)


def _o_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return _o_clean(out)


def _o_divmod(a, b):
    rem, quo = dict(a), {}
    m = max(b)
    while rem and max(rem) >= m:
        k = max(rem) - m
        f = quo[k] = rem[k + m] / b[m]
        rem = _o_add(rem, {e + k: f * c for e, c in b.items()}, -1)
    return quo, rem


def _o_monic_gcd(a, b):
    while b:
        a, b = b, _o_divmod(a, b)[1]
    return {e: c / a[max(a)] for e, c in a.items()}


def _random_rational(rng, nonzero=False):
    digits = rng.choice([1, 2, 20])
    while True:
        q = Fraction(rng.randint(-10 ** digits, 10 ** digits),
                     rng.choice([1, rng.randint(1, 10 ** digits)]))
        if q or not nonzero:
            return q


def _random_oracle(rng):
    """Zero, a constant, or a degree 1-6 polynomial whose leading
    coefficient is as often negative as positive."""
    shape = rng.randrange(5)
    if shape == 0:
        return {}
    deg = 0 if shape == 1 else rng.randint(1, 6)
    d = {e: _random_rational(rng) for e in range(deg) if rng.random() < 0.7}
    d[deg] = _random_rational(rng, nonzero=True)
    return _o_clean(d)


def _build(rng, d):
    """The Poly of d, its integral values passed as ints or as Fractions."""
    return Poly("t", {e: int(c) if c.denominator == 1 and rng.random() < 0.5 else c
                      for e, c in d.items()})


def _check_against(p, d):
    d = _o_clean(d)
    assert p.coeffs == d
    assert all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
               for c in p.coeffs.values())
    assert p.den > 0 and all(p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    oracle_hash = (hash(d.get(0, 0)) if max(d, default=0) == 0
                   else hash(("t", tuple(sorted(d.items())))))
    assert hash(p) == oracle_hash
    assert p == Poly("t", d)
    assert repr(p) == polynomials.render_terms(
        (str(d[e]), "" if e == 0 else "t" if e == 1 else "t^%d" % e)
        for e in sorted(d, reverse=True))


def test_rational_polys_match_the_fraction_oracle():
    rng = random.Random(20261019)
    qi = gaussian_field()
    for _ in range(300):
        da, db = _random_oracle(rng), _random_oracle(rng)
        a, b = _build(rng, da), _build(rng, db)
        _check_against(a, da)
        _check_against(a + b, _o_add(da, db))
        _check_against(a - b, _o_add(da, db, -1))
        _check_against(a * b, _o_mul(da, db))
        n = rng.randint(0, 3)
        power = {0: Fraction(1)}
        for _ in range(n):
            power = _o_mul(power, da)
        _check_against(a ** n, power)
        _check_against(a.derivative(), {e - 1: e * c for e, c in da.items() if e})
        c = _random_rational(rng, nonzero=True)
        _check_against(a / c, {e: x / c for e, x in da.items()})
        _check_against(a * c, {e: x * c for e, x in da.items()})
        for v in (_random_rational(rng), rng.randint(-5, 5)):
            assert a(v) == sum(x * Fraction(v) ** e for e, x in da.items())
        assert (a == b) == (da == db)
        if da:
            lead = da[max(da)]
            _check_against(a.monic(), {e: x / lead for e, x in da.items()})
        if db:
            q, r = divmod(a, b)
            oq, orem = _o_divmod(da, db)
            _check_against(q, oq)
            _check_against(r, orem)
            # the reduced pair: coprime, monic denominator, the same value
            rf = RationalFunction(a, b)
            num, den = ({e: Fraction(c) for e, c in p.coeffs.items()}
                        for p in (rf.num, rf.den))
            assert den[max(den)] == 1
            assert _o_monic_gcd(num, den) == {0: 1}
            assert _o_mul(num, db) == _o_mul(den, da)
        # the same values over Q(i) compare and hash alike
        g = a.map_coeffs(qi.from_rational)
        assert g.den is None or not da
        assert g == a and a == g and hash(g) == hash(a)


def test_scalar_product_matches_the_constant_product():
    # a rational scalar rescales nums and den; the product with the constant
    # polynomial takes the one-term path, and both must give the same pair
    rng = random.Random(27)
    scalars = [0, 1, -1, 6, -12, Fraction(0), Fraction(5), Fraction(-3, 4),
               Fraction(7, 10 ** 20 + 39)]
    for _ in range(200):
        a = _build(rng, _random_oracle(rng))
        for c in scalars + [_random_rational(rng), rng.randint(-10 ** 6, 10 ** 6)]:
            want = a * Poly.constant(a.var, c)
            for got in (a * c, c * a):
                assert (got.nums, got.den) == (want.nums, want.den), (a, c)


# -- products over number fields ---------------------------------------------
#
# `_o_mul`, the test's own per-coefficient product loop, is the oracle of
# `Poly.__mul__`'s loop, the one product path over a number field, and of
# its one-term path

# every stock context, and a two-level tower whose minimal polynomials have
# denominators: t1^2 = 3/2 and t2^3 = 5/7
PRODUCT_CONTEXTS = [
    gaussian_field(), sqrt_field(2), sqrt_field(Fraction(-3, 5)), eighth_root_field(),
    quartic_root_field(7), with_imaginary_unit("quartic_root", 7),
    with_imaginary_unit("sqrt", 3),
    FieldContext([(Fraction(-3, 2), 0, 1), (Fraction(-5, 7), 0, 0, 1)], names=("a", "b")),
]


def _random_element(rng, ctx):
    def coord():
        if rng.random() < 0.25:
            return 0
        digits = rng.choice([1, 3, 20])
        return Fraction(rng.randint(-10 ** digits, 10 ** digits), rng.randint(1, 10 ** rng.randint(0, 3)))

    d1 = ctx.dims[0]
    if ctx.height == 1:
        return ctx.element([coord() for _ in range(d1)])
    return ctx.element([[coord() for _ in range(d1)] for _ in range(ctx.dims[1])])


def _random_field_poly(rng, ctx, max_degree=12):
    """A degree 0-12 polynomial over ctx, about a quarter of its coefficients zero."""
    deg = rng.randint(0, max_degree)
    coeffs = {e: _random_element(rng, ctx) for e in range(deg) if rng.random() < 0.75}
    lead = _random_element(rng, ctx)
    coeffs[deg] = lead if lead else ctx.one
    return Poly("x", coeffs)


def _check_field_product(p, q):
    want = _o_mul(p.coeffs, q.coeffs)
    for got in (p * q, q * p):
        assert got.den is None and got.nums == want, (p, q)
        # canonical elements: the same numerators, denominator and context
        assert {e: (c.num, c.den, c.ctx) for e, c in got.nums.items()} == {
            e: (c.num, c.den, c.ctx) for e, c in want.items()}, (p, q)


def test_field_products_match_the_coefficient_loop():
    rng = random.Random(20261031)
    for ctx in PRODUCT_CONTEXTS:
        for _ in range(12):
            p, q = _random_field_poly(rng, ctx), _random_field_poly(rng, ctx)
            _check_field_product(p, q)


def test_field_products_drop_cancelled_coefficients():
    # (x - a)(x + a) = x^2 - a^2 for an irrational a with a^2 rational
    for ctx in PRODUCT_CONTEXTS:
        x = Poly("x", {1: ctx.one})
        for a in (ctx.gen(), ctx.gen(1), ctx.gen() ** 2):
            if not (a * a).is_rational or a.is_rational:
                continue
            got = (x - a) * (x + a)
            assert set(got.nums) == {0, 2} and got.nums[0] == -(a * a), (ctx, a)
            _check_field_product(x - a, x + a)
            _check_field_product(x * x + a * x + a * a, x - a)


def test_field_products_with_zero_operands():
    rng = random.Random(5)
    zero = Poly("x")
    for ctx in PRODUCT_CONTEXTS:
        p = _random_field_poly(rng, ctx)
        for got in (p * zero, zero * p, p * ctx.zero, ctx.zero * p):
            assert got.is_zero and got.nums == {}


def test_field_products_across_key_equal_contexts():
    rng = random.Random(11)
    tower = with_imaginary_unit("quartic_root", 7)
    twins = [
        (gaussian_field(), FieldContext([(1, 0, 1)], names=("i",), conj_images=[[0, -1]])),
        (tower, FieldContext([(-7, 0, 0, 0, 1), (1, 0, 1)], names=("q4", "i"))),
    ]
    for ctx, twin in twins:
        assert twin == ctx and twin is not ctx
        for _ in range(6):
            p = _random_field_poly(rng, ctx)
            q = _random_field_poly(rng, ctx).map_coeffs(lambda c: twin.one * c)
            _check_field_product(p, q)
            # one polynomial holding coefficients of both objects
            mixed = Poly("x", {e: twin.one * c if e % 2 else c for e, c in p.coeffs.items()})
            _check_field_product(mixed, q)


def test_field_products_reject_mixed_contexts():
    # Q(i) and Q(sqrt 2) have the same degree, so only the context check
    # keeps their numerators apart
    qi, r2, z8 = gaussian_field(), sqrt_field(2), eighth_root_field()
    p = Poly("x", {0: qi.gen(), 1: qi.one})
    for other in (r2, z8):
        q = Poly("x", {0: other.gen(), 2: other.one})
        mixed = Poly("x", {0: qi.gen(), 1: qi.one, 3: other.gen()})
        for a, b in ((p, q), (q, p), (p, mixed), (mixed, p)):
            with pytest.raises(TypeError):
                a * b


def _typed(x):
    """x as nested tuples, each scalar tagged by its type, so that two values
    compare equal only with equal parts of equal types."""
    if isinstance(x, dict):
        return tuple(sorted((e, _typed(c)) for e, c in x.items()))
    if isinstance(x, Poly):
        return ("Poly", x.var, x.den, _typed(x.nums))
    if isinstance(x, RationalFunction):
        return ("RationalFunction", _typed(x.num), _typed(x.den))
    if isinstance(x, FieldElement):
        return ("FieldElement", x.ctx._key, x.num, x.den)
    return (type(x).__name__, x)


def _check_coefficient_loop(got, want):
    """got, a Poly, against `want`, the {exponent: coefficient} map of the
    per-coefficient loop, in values and in types: the constructor drops its
    zeros, and reads a map over Q as an int where integral and a Fraction
    otherwise, as `coeffs` does."""
    want = Poly(got.var, want).coeffs
    assert _typed(got.coeffs) == _typed(want), (got, want)


def _check_scaling(p, c):
    """A bare coefficient c in both orders, and the quotients by it and by
    p's leading coefficient, against the per-coefficient loop."""
    for got in (p * c, c * p):
        _check_coefficient_loop(got, {e: x * c for e, x in p.coeffs.items()})
    if c:
        for got in (p._over(c), p / c):
            _check_coefficient_loop(got, {e: qdiv(x, c) for e, x in p.coeffs.items()})
    else:
        with pytest.raises(ZeroDivisionError):
            p._over(c)
    lead = p.leading_coefficient()
    if lead:
        _check_coefficient_loop(p.monic(), {e: qdiv(x, lead) for e, x in p.coeffs.items()})


def test_one_term_products_match_the_coefficient_loop():
    # c x^k times a polynomial, and a bare coefficient c in either order: an
    # exponent shift and one scaling per coefficient, over Q (c = 1 keeps
    # the lowest terms as they are), over every field and over rational
    # functions; a quotient by c and the monic form are the product with
    # one inverse, against a division per coefficient
    rng = random.Random(41)
    x = Poly.x("t")
    for _ in range(150):
        da = _random_oracle(rng)
        a = _build(rng, da)
        k = rng.randint(0, 5)
        c = rng.choice([Fraction(1), Fraction(-1), _random_rational(rng, nonzero=True)])
        m = Poly("t", {k: c})
        for got in (a * m, m * a):
            _check_against(got, _o_mul(da, {k: c}))
        if c == 1:
            _check_against(x ** k * a, _o_mul(da, {k: c}))
        for b in (0, 1, -1, rng.randint(-10 ** 6, 10 ** 6), Fraction(0), Fraction(-1),
                  _random_rational(rng)):
            for got in (a * b, b * a):
                _check_against(got, _o_mul(da, {0: Fraction(b)}))
            if b:
                _check_against(a._over(b), {e: q / b for e, q in da.items()})
        if da:
            _check_against(a.monic(), {e: q / da[max(da)] for e, q in da.items()})
        _check_scaling(a, rng.choice([2, Fraction(-3, 4), _random_rational(rng)]))
    for ctx in PRODUCT_CONTEXTS:
        for _ in range(10):
            p = _random_field_poly(rng, ctx)
            k = rng.randint(0, 5)
            c = _random_element(rng, ctx) or ctx.one
            for m in (Poly("x", {k: c}), Poly("x", {k: 1}), Poly("x", {k: Fraction(-2, 9)})):
                _check_field_product(p, m)
            for b in (0, 1, -1, 7, Fraction(-2, 9), ctx.zero, ctx.one, -ctx.one, c,
                      _random_element(rng, ctx)):
                _check_scaling(p, b)
    lam = RationalFunction(Poly.x("lam"), Poly("lam", {0: 1, 1: 1}))
    alpha = RationalFunction(Poly.x("alpha"))
    p = Poly("x", {0: lam, 3: lam * lam - 1, 4: 1 / lam})
    for m in (Poly("x", {2: lam}), Poly("x", {1: 1}), Poly("x", {0: lam + 3})):
        want = _o_mul(p.coeffs, m.coeffs)
        assert (p * m).coeffs == want and (m * p).coeffs == want
    qi = gaussian_field()
    p_qi = p.map_coeffs(lambda r: r.map_coeffs(qi.from_rational))
    for q in (p, p_qi, Poly("x", {1: alpha - 2, 5: 1 / (alpha ** 2 + 3)})):
        for b in (0, 1, -1, 5, Fraction(-7, 3)):
            _check_scaling(q, b)
        # a rational function in another variable is a coefficient of a
        # Poly: it scales as a bare operand in either order, through a
        # one-term factor and through `_times_term`, and adds as a constant
        r = q.leading_coefficient() + 2
        right = {e: c * r for e, c in q.coeffs.items()}
        left = {e: r * c for e, c in q.coeffs.items()}
        _check_coefficient_loop(q * r, right)
        _check_coefficient_loop(r * q, left)
        _check_coefficient_loop(q / r, {e: qdiv(c, r) for e, c in q.coeffs.items()})
        q0 = q.coeff(0)
        rest = {e: c for e, c in q.coeffs.items() if e}
        _check_coefficient_loop(q + r, {**rest, 0: q0 + r})
        _check_coefficient_loop(r + q, {**rest, 0: r + q0})
        _check_coefficient_loop(q - r, {**rest, 0: q0 - r})
        _check_coefficient_loop(r - q, {**{e: -c for e, c in rest.items()}, 0: r - q0})
        for k in (0, 3):
            right = {e + k: c * r for e, c in q.coeffs.items()}
            left = {e + k: r * c for e, c in q.coeffs.items()}
            _check_coefficient_loop(q._times_term(k, r), right)
            _check_coefficient_loop(q * Poly("x", {k: r}), right)
            _check_coefficient_loop(q._times_term(k, r, True), left)
            _check_coefficient_loop(Poly("x", {k: r}) * q, left)
        _check_coefficient_loop(q._over(r), {e: qdiv(c, r) for e, c in q.coeffs.items()})
    # a polynomial over Q with a denominator, times a coefficient that is not
    # rational (an element of a field, or a rational function over Q in
    # another variable): 1/den folds into the coefficient once, and the
    # numerators scale by it, to the values and types of the loop over the
    # Fraction coefficients
    for ctx in PRODUCT_CONTEXTS + [None]:
        for _ in range(6):
            coeffs = {e: _random_rational(rng) for e in range(rng.randint(0, 8))}
            q = Poly("x", {**coeffs, len(coeffs): Fraction(2 * rng.randint(0, 49) + 1, 6)})
            assert q.den > 1
            if ctx is None:
                r = rng.choice([alpha, alpha + Fraction(1, 3)]) ** rng.randint(1, 3) / (alpha - 2)
            else:
                r = _random_element(rng, ctx)
                r = r if not r.is_rational else ctx.gen() + r
            right = {e: c * r for e, c in q.coeffs.items()}
            left = {e: r * c for e, c in q.coeffs.items()}
            _check_coefficient_loop(q * r, right)
            _check_coefficient_loop(r * q, left)
            for k in (0, 2):
                _check_coefficient_loop(q._times_term(k, r), {e + k: c for e, c in right.items()})
                _check_coefficient_loop(q._times_term(k, r, True), {e + k: c for e, c in left.items()})
