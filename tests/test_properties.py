"""Randomized invariants backing up the frozen examples.

Cheap algebraic laws run under hypothesis.  The end-to-end suites that
rebuild fibrations or factor cover composites use seeded loops instead, so
one run stays fast and reproducible.
"""

import random
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3quartic.covers import (
    CoverSplits,
    Parametrization,
    SPLIT_PARAM_QUARTIC,
    SPLIT_PARAM_SEXTIC,
    fourth_power_test,
)
from k3quartic.curves import EC_INFINITY, ec_add, on_curve
from k3quartic.fibration import classify_fibers, standard_family
from k3quartic.fields import gaussian_field, with_imaginary_unit
from k3quartic.lattices import Obstructed, RealizationVector, tn_gram, tn_search
from k3quartic.moduli import cayley, inverse_cayley, m_adj, m_mul, membership, period_point, su11_samples
from k3quartic.multipoly import MultiPoly, QuotientContext
from k3quartic.polynomials import Poly, RationalFunction, poly_gcd, squarefree_decompose


# -- polynomial factor bookkeeping --------------------------------------------


@st.composite
def _polys(draw, max_degree=3):
    deg = draw(st.integers(0, max_degree))
    coeffs = {deg: Fraction(draw(st.integers(1, 4)))}
    for e in range(deg):
        c = draw(st.integers(-4, 4))
        if c:
            coeffs[e] = Fraction(c)
    return Poly("t", coeffs)


@given(st.lists(st.tuples(_polys(), st.integers(1, 3)), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_squarefree_decomposition_round_trips(factors):
    p = Poly("t", {0: Fraction(1)})
    for f, m in factors:
        p = p * f ** m
    unit, parts = squarefree_decompose(p)
    recomposed = Poly("t", {0: unit})
    for f, m in parts:
        recomposed = recomposed * f ** m
    assert recomposed == p


@given(st.lists(st.tuples(_polys(), st.integers(1, 3)), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_squarefree_parts_are_monic_squarefree_coprime(factors):
    p = Poly("t", {0: Fraction(1)})
    for f, m in factors:
        p = p * f ** m
    _, parts = squarefree_decompose(p)
    mults = [m for _, m in parts]
    assert mults == sorted(mults) and len(set(mults)) == len(mults)
    for f, _ in parts:
        assert f.leading_coefficient() == 1
        assert poly_gcd(f, f.derivative()).degree == 0
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert poly_gcd(parts[i][0], parts[j][0]).degree == 0


def _euclid_gcd(a, b):
    """The monic gcd by the textbook Euclidean algorithm over Q."""
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


@given(_polys(4), _polys(4), _polys(2), st.fractions(min_value=-9, max_value=9))
@settings(max_examples=80, deadline=None)
def test_gcd_matches_the_textbook_euclid(a, b, shared, scale):
    assume(scale != 0)
    a, b = a * shared, b * shared * scale
    assert poly_gcd(a, b) == _euclid_gcd(a, b)


# -- rational-function products, quotients and powers --------------------------

_K = with_imaginary_unit("quartic_root", 7)


@st.composite
def _scalars(draw, field):
    """A small rational, or an element of Q(7^(1/4), i) when field is set."""
    if not field:
        return Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    coords = draw(st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
                           min_size=2, max_size=2))
    return _K.element(coords) * Fraction(1, draw(st.integers(1, 2)))


@st.composite
def _rf_polys(draw, field, max_degree=2, nonzero=False):
    deg = draw(st.integers(0 if nonzero else -1, max_degree))
    lead = _scalars(field).filter(bool) if nonzero else _scalars(field)
    return Poly("t", {e: draw(lead if e == deg else _scalars(field)) for e in range(deg + 1)})


@st.composite
def _rf_operands(draw, field):
    """A rational function, a Poly or a scalar, possibly zero."""
    kind = draw(st.sampled_from(("rf", "rf", "poly", "scalar")))
    if kind == "scalar":
        return draw(_scalars(field))
    num = draw(_rf_polys(field))
    if kind == "poly":
        return num
    den = draw(_rf_polys(field, nonzero=True))
    # a shared factor makes the constructor cancel before the product does
    shared = draw(_rf_polys(field, 1, nonzero=True))
    return RationalFunction(num * shared, den * shared)


def _pair(x):
    """(num, den) of x read as a fraction with denominator 1 if need be."""
    if isinstance(x, RationalFunction):
        return x.num, x.den
    return (x if isinstance(x, Poly) else Poly.constant("t", x)), Poly.constant("t", 1)


def _assert_reduced_equal(got, num, den):
    """got has exactly the pair of the reducing constructor on num/den."""
    want = RationalFunction(num, den)
    assert isinstance(got, RationalFunction)
    assert (got.num, got.den) == (want.num, want.den)
    assert got.den.leading_coefficient() == 1


@given(st.booleans().flatmap(lambda f: st.tuples(_rf_operands(f), _rf_operands(f))))
@settings(max_examples=100, deadline=None)
def test_rf_products_and_quotients_match_the_reducing_constructor(ops):
    a, c = ops
    assume(isinstance(a, RationalFunction) or isinstance(c, RationalFunction))
    (an, ad), (cn, cd) = _pair(a), _pair(c)
    _assert_reduced_equal(a * c, an * cn, ad * cd)
    if cn.is_zero:
        # a scalar divisor is a coefficient, any other a fraction
        kind = "fraction" if isinstance(c, (Poly, RationalFunction)) else "coefficient"
        with pytest.raises(ZeroDivisionError, match="division by a zero " + kind):
            a / c
    else:
        _assert_reduced_equal(a / c, an * cd, ad * cn)


@given(st.booleans().flatmap(_rf_operands), st.integers(-3, 3))
@settings(max_examples=80, deadline=None)
def test_rf_powers_match_the_reducing_constructor(a, n):
    a = RationalFunction(*_pair(a))
    if n < 0 and a.is_zero:
        with pytest.raises(ZeroDivisionError, match="negative power of zero"):
            a ** n
        return
    num, den = (a.num, a.den) if n >= 0 else (a.den, a.num)
    _assert_reduced_equal(a ** n, num ** abs(n), den ** abs(n))


@given(_rf_operands(False))
@settings(max_examples=80, deadline=None)
def test_rf_embedding_needs_no_cancellation(a):
    # a reduced pair over Q stays reduced, with a monic denominator, over the
    # field: map_coeffs skips the gcd that the reducing constructor would take
    a = RationalFunction(*_pair(a))
    emb = _K.from_rational
    got = a.map_coeffs(emb)
    _assert_reduced_equal(got, a.num.map_coeffs(emb), a.den.map_coeffs(emb))


def test_rf_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        RationalFunction(Poly.x("t"), Poly("t"))


@given(_rf_operands(False), _rf_operands(False), st.integers(-2, 2))
@settings(max_examples=50, deadline=None)
def test_rf_arithmetic_matches_sympy_cancel(a, c, n):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def expr(p):
        return sum(sympy.Rational(x.numerator, x.denominator) * t ** e
                   for e, x in p.coeffs.items())

    def coeffs(p):
        return sympy.Poly(expr(p), t, domain=sympy.QQ).all_coeffs()

    def canonical(e):
        # sympy's reduced p/q over Q with q made monic
        p, q = (sympy.Poly(x, t, domain=sympy.QQ) for x in sympy.fraction(sympy.cancel(e)))
        return (p * (1 / q.LC())).all_coeffs(), (q * (1 / q.LC())).all_coeffs()

    assume(isinstance(a, RationalFunction) or isinstance(c, RationalFunction))
    (an, ad), (cn, cd) = _pair(a), _pair(c)
    ea, ec = expr(an) / expr(ad), expr(cn) / expr(cd)
    results = [(a * c, ea * ec)]
    if not cn.is_zero:
        results.append((a / c, ea / ec))
    a = RationalFunction(an, ad)
    if n >= 0 or not a.is_zero:
        results.append((a ** n, ea ** n))
    for got, e in results:
        assert (coeffs(got.num), coeffs(got.den)) == canonical(e)


# -- quotient-ring normalization ----------------------------------------------

_QVARS = ("r", "tau")
_QCTX = QuotientContext(
    _QVARS,
    [("tau", 2, MultiPoly.gen(_QVARS, "r") ** 3 - MultiPoly.gen(_QVARS, "r"))])


@st.composite
def _multipolys(draw):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 6)),
        st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
        min_size=1, max_size=6))
    return MultiPoly(_QVARS, dict(terms))


@given(_multipolys())
@settings(max_examples=80, deadline=None)
def test_quotient_reduce_is_idempotent(mp):
    reduced = _QCTX.reduce(mp)
    assert _QCTX.reduce(reduced) == reduced
    assert reduced.degree_in("tau") <= 1


@given(_multipolys(), _multipolys())
@settings(max_examples=60, deadline=None)
def test_quotient_reduce_respects_products(a, b):
    direct = _QCTX.reduce(a * b)
    staged = _QCTX.reduce(_QCTX.reduce(a) * _QCTX.reduce(b))
    assert direct == staged


# -- fiber classification under fourth-power twists ----------------------------


def test_classification_survives_fourth_power_twists():
    rng = random.Random(41)
    for _ in range(50):
        alpha = Fraction(rng.randint(2, 60), rng.randint(1, 24))
        if alpha == 1:
            alpha += 1
        f = standard_family(alpha).f
        base = classify_fibers(f)
        s4 = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) ** 4
        scaled = classify_fibers(Poly(f.var, {e: c * s4 for e, c in f.coeffs.items()}))
        assert scaled.type_multiset() == base.type_multiset()
        assert scaled.total_euler == base.total_euler == 24



@st.composite
def _tall_alphas(draw):
    """(alpha, 1 - alpha is a square) with 20- to 60-digit numerator and
    denominator; half the draws are members with a square 1 - alpha."""
    digits = draw(st.integers(20, 60))
    sign = draw(st.sampled_from([-1, 1]))
    if draw(st.booleans()):
        half = digits // 2
        r = Fraction(sign * draw(st.integers(10 ** (half - 1), 10 ** half)),
                     draw(st.integers(10 ** (half - 1), 10 ** half)))
        assume(r * r != 1)
        return 1 - r * r, True
    alpha = Fraction(sign * draw(st.integers(10 ** (digits - 1), 10 ** digits)),
                     draw(st.integers(10 ** (digits - 1), 10 ** digits)))
    assume(alpha != 1)
    return alpha, False


@given(_tall_alphas())
@settings(max_examples=40, deadline=timedelta(milliseconds=500))
def test_tall_alphas_classify_in_time(drawn):
    alpha, square = drawn
    cfg = classify_fibers(standard_family(alpha))
    assert cfg.total_euler == 24
    assert cfg.type_multiset() == ["I0*", "I0*", "III", "III*"]
    assert all(fb.certified for fb in cfg.fibers)
    # a square 1 - alpha splits lam^2 + 2 lam + alpha into two rational places
    assert len([fb for fb in cfg.fibers if fb.type == "I0*"]) == (2 if square else 1)

# -- the group law on a rank-one curve ----------------------------------------

_A4 = Fraction(-36)          # v^2 = u^3 - 36 u, generator (-3, 9), 2-torsion (0, 0)


def ec_neg(p):
    return p if p is EC_INFINITY else (p[0], -p[1])


def _point_pool():
    gen = (Fraction(-3), Fraction(9))
    pool = [EC_INFINITY, (Fraction(0), Fraction(0))]
    acc = gen
    for _ in range(5):
        pool.append(acc)
        pool.append(ec_neg(acc))
        acc = ec_add(acc, gen, _A4)
    pool.append(ec_add(pool[1], gen, _A4))
    return pool


_POOL = _point_pool()


def test_pool_points_lie_on_the_curve():
    assert all(on_curve(p, _A4) for p in _POOL)


@given(st.integers(0, len(_POOL) - 1), st.integers(0, len(_POOL) - 1),
       st.integers(0, len(_POOL) - 1))
@settings(max_examples=100, deadline=None)
def test_ec_add_is_associative(i, j, k):
    a, b, c = _POOL[i], _POOL[j], _POOL[k]
    assert ec_add(ec_add(a, b, _A4), c, _A4) == ec_add(a, ec_add(b, c, _A4), _A4)


@given(st.integers(0, len(_POOL) - 1), st.integers(0, len(_POOL) - 1))
@settings(max_examples=60, deadline=None)
def test_ec_add_commutes_and_inverts(i, j):
    a, b = _POOL[i], _POOL[j]
    assert ec_add(a, b, _A4) == ec_add(b, a, _A4)
    assert ec_add(a, ec_neg(a), _A4) is EC_INFINITY
    assert ec_add(a, EC_INFINITY, _A4) == a


# -- splitting verdicts under reparametrization --------------------------------


def _affine_substitute(p, a, b):
    image = Poly(p.var, {1: a, 0: b})
    out = Poly(p.var, {})
    for e, c in p.coeffs.items():
        out = out + c * image ** e
    return out


def _moved(param, a, b):
    return Parametrization(
        _affine_substitute(param.x, a, b),
        _affine_substitute(param.y, a, b),
        _affine_substitute(param.z, a, b),
        name="reparametrized")


def test_splitting_verdict_survives_affine_reparametrization():
    rng = random.Random(43)
    builtins = [SPLIT_PARAM_SEXTIC, SPLIT_PARAM_QUARTIC]
    base_verdicts = [fourth_power_test(p) for p in builtins]
    done = 0
    while done < 50:
        if done < 10:
            param, base = builtins[done % 2], base_verdicts[done % 2]
        else:
            param = Parametrization(
                Poly("r", {0: Fraction(rng.randint(1, 9))}),
                Poly("r", {1: Fraction(rng.randint(1, 5)), 0: Fraction(rng.randint(-4, 4))}),
                Poly("r", {2: Fraction(rng.randint(1, 3)), 0: Fraction(rng.randint(1, 6))}),
                name="random probe")
            base = fourth_power_test(param)
        a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))
        b = Fraction(rng.randint(-5, 5))
        moved = fourth_power_test(_moved(param, a, b))
        assert type(moved) is type(base)
        if isinstance(base, CoverSplits):
            assert tuple(moved.profile) == tuple(base.profile)
            assert moved.degree_mod_4 == base.degree_mod_4
            assert len(moved.places) == len(base.places)
        done += 1


def test_splitting_survives_common_coordinate_rescaling():
    # multiplying all three coordinates by one polynomial scales the
    # composite by its fourth power: the verdict stays Splits and the new
    # factor shows up with multiplicity divisible by 4
    scale = Poly("r", {2: Fraction(1), 0: Fraction(1)})
    base = fourth_power_test(SPLIT_PARAM_QUARTIC)
    moved = fourth_power_test(Parametrization(
        SPLIT_PARAM_QUARTIC.x * scale,
        SPLIT_PARAM_QUARTIC.y * scale,
        SPLIT_PARAM_QUARTIC.z * scale,
        name="rescaled"))
    assert isinstance(moved, CoverSplits)
    assert len(moved.places) == len(base.places) + 1
    extra = [m for p, m in moved.places if p == scale.monic()]
    assert extra and extra[0] % 4 == 0


# -- transcendental sweep bucketing --------------------------------------------


def test_tn_search_buckets_by_residue_mod_4():
    # no search backs the closed-form vectors up, so sweep every n they serve
    for n in range(1, 20000):
        verdict = tn_search(n)
        if n % 4 == 2:
            assert isinstance(verdict, Obstructed)
        else:
            assert isinstance(verdict, RealizationVector)
            assert verdict.n == n and verdict.gcd == 1


@given(st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_tn_gram_is_diagonal(n):
    g = tn_gram(n)
    assert g[0][1] == g[1][0] == 0
    assert g[0][0] == g[1][1] == 2 * n


# -- modular group closure and the unit ball -----------------------------------


def test_integral_samples_form_a_group_under_membership():
    samples = su11_samples(50, seed=7)
    for m in samples:
        assert membership(m, "G0")
        assert membership(m_adj(m), "G0")
    for a, b in zip(samples, samples[1:]):
        assert membership(m_mul(a, b), "G0")


def test_cayley_round_trip_on_fresh_samples():
    for m in su11_samples(50, seed=99):
        assert inverse_cayley(cayley(m)) == m


@given(st.fractions(min_value=-5, max_value=5, max_denominator=6),
       st.fractions(min_value=-5, max_value=5, max_denominator=6),
       st.fractions(min_value=-5, max_value=5, max_denominator=6),
       st.fractions(min_value=-5, max_value=5, max_denominator=6))
@settings(max_examples=80, deadline=None)
def test_period_point_verdict_matches_the_unit_ball(a, b, c, d):
    if a == 0 and b == 0:
        a = Fraction(1)
    G = gaussian_field()
    i = G.gen()
    z2 = G.from_rational(a) + G.from_rational(b) * i
    z4 = G.from_rational(c) + G.from_rational(d) * i
    pt = period_point(z2, z4)
    assert pt.ball_consistent
    gap = (a * a + b * b) - (c * c + d * d)
    expected = "inside" if gap > 0 else ("boundary" if gap == 0 else "outside")
    assert pt.verdict == expected
    assert pt.form_value == 4 * gap
