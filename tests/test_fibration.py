import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from k3quartic import cli, fibration
from k3quartic.fibration import (
    NotTwistMinimalError,
    WeierstrassFibration,
    classify_fibers,
    degeneration_model,
    form_scaling_order,
    multiplicative_order,
    parity_refine,
    shioda_tate_bound,
    standard_beta,
    standard_family,
    twist_minimize,
    verify_reduction_chain,
)
from k3quartic.fields import eighth_root_field, gaussian_field
from k3quartic.polynomials import Poly, certified_factors
from k3quartic.quartic import ALPHA

LAM = Poly.x("lam")
A_SYM = Poly("lam", {2: 1, 1: 2, 0: ALPHA})


def test_reduction_chain_residuals():
    chain = verify_reduction_chain()
    assert chain == {
        "quartic_to_even": True,
        "even_to_scaled_weierstrass": True,
        "scaled_to_weierstrass": True,
        "closed_form_u": True,
        "closed_form_v": True,
    }


def test_weierstrass_reduce_standard_beta():
    assert 4 * standard_beta() == 16 / (LAM * A_SYM ** 2)


def test_standard_family_polynomial_model():
    assert standard_family().f == LAM ** 3 * A_SYM ** 2
    # the 17-digit semiprime alpha is the one of the CI console-script step
    for alpha in (Fraction(81, 49), Fraction(3, 4), Fraction(-1, 3),
                  Fraction(10000004400000259, 10000003799999461)):
        A = Poly("lam", {2: 1, 1: 2, 0: alpha})
        assert standard_family(alpha).f == LAM ** 3 * A ** 2


def test_standard_family_checks_the_twist_not_the_chain(monkeypatch):
    def chain():
        raise RuntimeError("standard_family re-ran the reduction chain")

    monkeypatch.setattr(fibration, "verify_reduction_chain", chain)
    assert standard_family(Fraction(81, 49)).f.degree == 7
    # perturb the check's input: 4*beta off by a factor 2 cannot reach f
    beta = fibration.standard_beta
    monkeypatch.setattr(fibration, "standard_beta", lambda alpha=ALPHA: 2 * beta(alpha))
    with pytest.raises(AssertionError):
        standard_family(Fraction(81, 49))
    with pytest.raises(AssertionError):
        standard_family()


def quartic_twist(f_rf, s):
    """Twist coefficient transport: f -> f / s^4 under (u,v) -> (s^2 u, s^3 v),
    for rational functions f and s; the quotient oracle for the check in
    standard_family."""
    return f_rf / s ** 4


def test_quartic_twist_transport():
    g = 16 / (LAM * A_SYM ** 2)
    s = 2 / (LAM * A_SYM)
    assert quartic_twist(g, s) == LAM ** 3 * A_SYM ** 2


def _alpha_of(digits):
    lo, hi = 10 ** (digits - 1), 10 ** digits - 1
    return st.builds(lambda sign, n, d: Fraction(sign * n, d),
                     st.sampled_from((1, -1)), st.integers(lo, hi), st.integers(lo, hi))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 17).flatmap(_alpha_of),
       st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool))
@example(Fraction(1), Fraction(1))
@example(Fraction(1), Fraction(-1))  # 4 beta / s^4 = -f: a sign is caught too
@example(ALPHA, Fraction(1))
@example(ALPHA, Fraction(1, 2))
def test_standard_family_check_matches_the_quotient_oracle(alpha, c):
    # f is the quotient oracle's twist of 4 beta by s = 2/(lam A); with beta
    # scaled by c, standard_family's check raises exactly when the oracle's
    # twist of 4 c beta misses f, which is when c != 1
    A = Poly("lam", {2: 1, 1: 2, 0: alpha})
    s = 2 / (LAM * A)
    beta = standard_beta(alpha)
    f = standard_family(alpha).f
    assert f == LAM ** 3 * A ** 2 == quartic_twist(4 * beta, s)
    reached = quartic_twist(4 * c * beta, s) == f
    assert reached == (c == 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fibration, "standard_beta", lambda alpha=ALPHA: c * beta)
        if reached:
            assert standard_family(alpha).f == f
        else:
            with pytest.raises(AssertionError):
                standard_family(alpha)


@pytest.mark.parametrize("alpha", [Fraction(81, 49), ALPHA], ids=["81/49", "ALPHA"])
def test_standard_family_multiplies_nothing_above_degree_seven(monkeypatch, alpha):
    # the twist check cancels (lam A)^2: no product reaches the degree 12 of
    # (lam A)^4; the highest is f = lam (lam A)^2 itself
    degrees = []
    mul = Poly.__mul__

    def recording_mul(self, other):
        degrees.append(self.degree + (other.degree if isinstance(other, Poly) else 0))
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", recording_mul)
    monkeypatch.setattr(Poly, "__rmul__", recording_mul)
    A = Poly("lam", {2: 1, 1: 2, 0: alpha})
    assert standard_family(alpha).f == LAM ** 3 * A ** 2
    assert max(degrees) == 7


@pytest.mark.parametrize("alpha", [
    Fraction(5), 0, -2, Fraction(81, 49), Fraction(-7, 3), Fraction(-1, 3),
    Fraction(10000004400000259, 10000003799999461),
])
def test_standard_beta_builds_its_denominator_in_lowest_terms(alpha):
    # the numerators over d^2 equal the Poly scaled by 1/d^2 that the
    # denominator used to be, in the same lowest-terms form
    alpha = Fraction(alpha)
    n, d = alpha.numerator, alpha.denominator
    dd, nd = d * d, n * d
    scaled = Poly("lam", {5: dd, 4: 4 * dd, 3: 4 * dd + 2 * nd, 2: 4 * nd, 1: n * n})
    if dd != 1:
        scaled = scaled * Fraction(1, dd)
    den = standard_beta(alpha).den
    assert (den.nums, den.den) == (scaled.nums, scaled.den)
    assert den == LAM * Poly("lam", {2: 1, 1: 2, 0: alpha}) ** 2


def test_fiber_order_of_a_member_with_a_tie():
    # alpha = 3/4 splits A into two rational I0* places tied on (k, degree)
    cfg = standard_family(Fraction(3, 4)).classify()
    assert [(str(fb.location), fb.type) for fb in cfg.fibers] == [
        ("lam + 1/2", "I0*"), ("lam + 3/2", "I0*"), ("lam", "III*"), ("infinity", "III")]
    cfg = standard_family().classify()
    assert [(str(fb.location), fb.type) for fb in cfg.fibers] == [
        ("lam^2 + 2*lam + alpha", "I0*"), ("lam", "III*"), ("infinity", "III")]


def _count_prints(monkeypatch):
    """A list that grows by one entry on every Poly.__repr__ call."""
    calls = []
    real = Poly.__repr__

    def counted(p):
        calls.append(p.degree)
        return real(p)

    monkeypatch.setattr(Poly, "__repr__", counted)
    return calls


def test_locations_are_printed_only_on_a_tie(monkeypatch):
    generic, split = standard_family(Fraction(81, 49)), standard_family(Fraction(3, 4))
    calls = _count_prints(monkeypatch)
    classify_fibers(generic)
    assert calls == []
    classify_fibers(split)  # lam + 1/2 and lam + 3/2 tie on (2, 1)
    assert calls == [1, 1]


def test_tied_places_of_a_bare_f_keep_the_full_key_order(monkeypatch):
    # linear places tie on (1, 1) and on (2, 1); lam^2 + 1 and lam^2 + 7
    # would tie on (2, 2), but Yun gives them as one factor, and a quartic
    # without a rational root stays one uncertified place, so two quadratic
    # places of one f never tie; lam^2 + 3 and lam tie with nothing
    f = (LAM ** 3 * (LAM ** 2 + 3) * (LAM + 5) * (LAM - 2)
         * ((LAM - 1) * (LAM + 3) * (LAM ** 2 + 7) * (LAM ** 2 + 1)) ** 2)
    calls = _count_prints(monkeypatch)
    cfg = classify_fibers(f)
    assert sorted(calls) == [1, 1, 1, 1]
    finite = cfg.fibers[:-1]
    assert finite == sorted(finite, key=lambda fb: (fb.k, fb.degree, str(fb.location)))
    assert [(str(fb.location), fb.k, fb.certified) for fb in finite] == [
        ("lam + 5", 1, True), ("lam - 2", 1, True), ("lam^2 + 3", 1, True),
        ("lam + 3", 2, True), ("lam - 1", 2, True),
        ("lam^4 + 8*lam^2 + 7", 2, False), ("lam", 3, True)]


# -- the quadratic split over Q against certified_factors and sympy -------------


def _quadratic(kind, digits, randint, monic):
    """A rational quadratic whose primitive integer vector has entries of
    about `digits` digits and a discriminant of the given kind: "square"
    (two rational roots), "one" (exactly 1), "nonsquare" (positive) or
    "negative".  randint(lo, hi) draws the integers."""
    def sign():
        return 2 * randint(0, 1) - 1

    def draw(d=digits):
        return randint(10 ** (d - 1), 10 ** d - 1) * sign()

    if kind == "square":
        half = max(1, digits // 2)
        a, b, c, d = (draw(half) for _ in range(4))
        v = [b * d, a * d + b * c, a * c]  # (a x + b)(c x + d)
    elif kind == "one":
        m = abs(draw())
        v = [m + 1, 2 * m + 1, m]  # (2m + 1)^2 - 4 m (m + 1) = 1
    elif kind == "negative":
        a, c = abs(draw()), abs(draw())
        b, s = math.isqrt(4 * a * c - 1), sign()
        v = [s * c, randint(-b, b), s * a]  # b^2 < 4ac
    else:
        while True:
            v = [draw(), draw(), draw()]
            disc = v[1] ** 2 - 4 * v[0] * v[2]
            if disc > 0 and math.isqrt(disc) ** 2 != disc:
                break
    scale = Fraction(1) if monic else Fraction(draw(), abs(draw()))
    p = Poly("x", {e: scale * c for e, c in enumerate(v)})
    return p.monic() if monic else p


def _pieces(pairs):
    return sorted((tuple(sorted(p.nums.items())), p.den, certified) for p, certified in pairs)


def _certified_factors_pieces(p):
    factors, residual = certified_factors(p)
    assert residual is None
    return _pieces([(f, True) for f in factors])


def _sympy_pieces(p, sympy):
    """The monic irreducible factors over Q of sympy's factor_list, each
    written as int numerators over their least common denominator."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** e for e, c in p.coeffs.items())
    out = []
    for factor, m in sympy.factor_list(expr, x, domain=sympy.QQ)[1]:
        coeffs = sympy.Poly(factor, x, domain=sympy.QQ).monic().all_coeffs()[::-1]
        coeffs = {e: Fraction(int(c.p), int(c.q)) for e, c in enumerate(coeffs) if c}
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        nums = tuple(sorted((e, int(c * den)) for e, c in coeffs.items()))
        out += [(nums, den, True)] * m
    return sorted(out)


def _assert_split_matches(p, sympy):
    got = _pieces(fibration._split_location(p))
    assert got == _certified_factors_pieces(p), p
    assert got == _sympy_pieces(p, sympy), p
    return got


_KINDS = ("square", "one", "nonsquare", "negative")


def test_quadratic_split_matches_certified_factors_and_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(44)
    for digits in range(2, 61):
        for kind in _KINDS:
            for monic in (False, True):
                p = _quadratic(kind, digits, rng.randint, monic)
                assert p.degree == 2
                pieces = _assert_split_matches(p, sympy)
                assert len(pieces) == (2 if kind in ("square", "one") else 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(2, 60), st.booleans(), st.data())
def test_drawn_quadratic_split_matches_certified_factors_and_sympy(kind, digits, monic, data):
    sympy = pytest.importorskip("sympy")
    randint = lambda lo, hi: data.draw(st.integers(lo, hi))
    _assert_split_matches(_quadratic(kind, digits, randint, monic), sympy)


def test_standard_family_classifies_without_yun(monkeypatch):
    # standard_family attaches lam^3 A^2 as f's squarefree decomposition, so
    # classifying its fibration, in the library or a ledger check, runs no Yun
    def yun(f):
        raise RuntimeError("classify_fibers ran Yun's algorithm")

    monkeypatch.setattr(fibration, "squarefree_decompose", yun)
    assert classify_fibers(standard_family(Fraction(81, 49))).total_euler == 24
    assert standard_family().classify().total_euler == 24
    for check in (cli.check_generic_fiber_table, cli.check_generic_euler,
                  cli.check_picard_bounds):
        assert check()[0] is True, check.__name__
    # the controls: the bare f, and a fibration built from it, take Yun's path
    f = standard_family(Fraction(81, 49)).f
    with pytest.raises(RuntimeError, match="Yun"):
        classify_fibers(f)
    with pytest.raises(RuntimeError, match="Yun"):
        WeierstrassFibration(f).classify()


def fiber_at_infinity(cfg):
    for fb in cfg.fibers:
        if fb.location == "infinity":
            return fb
    return None


def test_generic_fiber_table():
    cfg = standard_family().classify()
    assert cfg.total_euler == 24
    assert cfg.type_multiset() == sorted(["III*", "I0*", "I0*", "III"])
    assert fiber_at_infinity(cfg).type == "III"
    quad = [fb for fb in cfg.fibers if fb.degree == 2]
    assert len(quad) == 1
    assert quad[0].type == "I0*"
    assert quad[0].certified  # irreducible over Q(alpha): 1 - alpha not a square
    third = [fb for fb in cfg.fibers if fb.type == "III*"]
    assert len(third) == 1 and third[0].location == LAM


def test_specialized_fiber_tables():
    cfg = standard_family(Fraction(81, 49)).classify()
    assert cfg.total_euler == 24
    assert cfg.type_multiset() == sorted(["III*", "I0*", "I0*", "III"])
    assert all(fb.certified for fb in cfg.fibers)

    # alpha = 3/4 splits the quadratic into two rational I0* places
    cfg2 = standard_family(Fraction(3, 4)).classify()
    assert cfg2.total_euler == 24
    dubs = [fb for fb in cfg2.fibers if fb.type == "I0*"]
    assert sorted(str(fb.location) for fb in dubs) == ["lam + 1/2", "lam + 3/2"]


def test_shioda_tate_and_parity():
    cfg = standard_family().classify()
    assert shioda_tate_bound(cfg) == 18
    assert shioda_tate_bound(cfg, 1) == 19
    assert parity_refine(19) == 20
    assert parity_refine(18) == 18
    assert parity_refine(20) == 20
    with pytest.raises(ValueError):
        parity_refine(21)
    with pytest.raises(ValueError):
        shioda_tate_bound(cfg, -1)


def test_twist_minimize():
    f = LAM ** 5 * (LAM + 2)
    reduced, g = twist_minimize(f)
    assert reduced == LAM * (LAM + 2)
    assert g == LAM
    assert reduced * g ** 4 == f

    f2 = (LAM - 1) ** 8
    reduced2, g2 = twist_minimize(f2)
    assert reduced2 == Poly.constant("lam", 1)
    assert g2 == (LAM - 1) ** 2


def test_classify_requires_twist_minimal():
    with pytest.raises(NotTwistMinimalError):
        classify_fibers(LAM ** 4 * (LAM + 1))


_SMALL_Q = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_FACTOR = st.one_of(
    _SMALL_Q.map(lambda r: LAM - r),
    st.tuples(_SMALL_Q, _SMALL_Q).map(lambda bc: LAM ** 2 + bc[0] * LAM + bc[1]),
)


def _printed_sort_key(fb):
    return (fb.location == "infinity", fb.k, fb.degree, str(fb.location))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_FACTOR, st.integers(1, 3)), min_size=1, max_size=5,
                unique_by=lambda fm: fm[0]),
       _SMALL_Q.filter(bool))
# the split member alpha = 3/4: two I0* places tied on (k, degree)
@example([(LAM + Fraction(3, 2), 2), (LAM, 3), (LAM + Fraction(1, 2), 2)], Fraction(1))
def test_classify_orders_fibers_by_the_printed_key(factors, unit):
    # only a tie on (k, degree) prints a location now; the order must be the
    # one the printed sort key gives
    f = Poly.constant("lam", unit)
    for p, m in factors:
        f = f * p ** m
    try:
        cfg = classify_fibers(f)
    except NotTwistMinimalError:  # a reducible quadratic shared a root
        assume(False)
    assert cfg.fibers == sorted(cfg.fibers, key=_printed_sort_key)


def test_classify_no_fibers_for_constant():
    cfg = classify_fibers(Poly.constant("lam", 3))
    assert cfg.fibers == []
    assert cfg.total_euler == 0


def test_degeneration_at_infinity():
    d = degeneration_model("AtInfinity")
    assert d["chain_residual_zero"]
    member = d["beta_zero_member"]
    assert member.f == LAM ** 3 * (LAM ** 2 + 1) ** 2
    cfg = member.classify()
    assert cfg.total_euler == 24
    assert cfg.type_multiset() == sorted(["III*", "I0*", "I0*", "III"])
    quad = [fb for fb in cfg.fibers if fb.degree == 2][0]
    assert quad.certified
    # the 2-form scales by z8^3, of order 8, on the member itself
    K = eighth_root_field()
    z8 = K.gen()
    assert form_scaling_order(z8 ** 2, z8 ** 3, K.from_rational(-1), member) == (z8 ** 3, 8)
    # the generic member of the degenerate family still totals 24
    assert classify_fibers(d["family"]).total_euler == 24


def test_degeneration_at_zero():
    d = degeneration_model("AtZero")
    assert d["chain_residual_zero"]
    member = d["beta_zero_member"]
    mu = Poly.x("mu")
    assert member.f == mu ** 3 * (mu + 2) ** 2
    cfg = member.classify()
    assert cfg.total_euler == 24
    assert cfg.type_multiset() == sorted(["III*", "III*", "I0*"])
    assert shioda_tate_bound(cfg) == 20
    assert classify_fibers(d["family"]).total_euler == 24


def test_degeneration_rejects_unknown_kind():
    with pytest.raises(ValueError):
        degeneration_model("AtOne")


def test_form_scaling_order_eight():
    K = eighth_root_field()
    z8 = K.gen()
    f0 = LAM ** 3 * (LAM ** 2 + 1) ** 2
    s, order = form_scaling_order(z8 ** 2, z8 ** 3, K.from_rational(-1), f0)
    assert order == 8
    assert s == z8 ** 3
    assert s == -(z8 ** -1)


def test_form_scaling_identity_and_negation():
    G = gaussian_field()
    f0 = LAM ** 3 * (LAM ** 2 + 1) ** 2
    s, order = form_scaling_order(G.one, G.one, G.one, f0)
    assert (s, order) == (1, 1)
    s2, order2 = form_scaling_order(G.one, -G.one, G.one, f0)
    assert order2 == 2
    assert s2 == -1


def test_form_scaling_rejects_non_automorphism():
    G = gaussian_field()
    with pytest.raises(ValueError):
        form_scaling_order(G.one, G.one, -G.one, LAM ** 3)
    with pytest.raises(ValueError):
        form_scaling_order(G.one, G.from_rational(2), G.one, LAM ** 3)


def test_multiplicative_order_cap():
    G = gaussian_field()
    assert multiplicative_order(G.from_rational(1)) == 1
    with pytest.raises(ValueError):
        multiplicative_order(G.from_rational(2), cap=10)
