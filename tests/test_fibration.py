from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from k3quartic import fibration
from k3quartic.fibration import (
    NotTwistMinimalError,
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
from k3quartic.polynomials import Poly
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
