import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from k3quartic import cli, covers
from k3quartic.covers import (
    ContainedInBranch,
    CoverDoesNotSplit,
    CoverSplits,
    Parametrization,
    SPLIT_PARAM_QUARTIC,
    SPLIT_PARAM_SEXTIC,
    STANDARD_ALPHA,
    _fourth_root_in_theta_field,
    _negate_variable_rf,
    _radicand_valuation,
    _rf_fourth_power_data,
    even_descend,
    fourth_power_test,
    quartic_factor_check,
    sextic_factor_check,
    split_fourth_power,
    sum_at_root_choice,
    twist_lift,
    twist_sum,
    verify_cover_map,
)
from k3quartic.curves import EC_INFINITY, ec_add
from k3quartic.fibration import standard_family
from k3quartic.fields import FieldElement, quartic_root_field
from k3quartic.polynomials import Poly, RationalFunction
from k3quartic.quartic import quartic_at


def test_cover_map_identity():
    ok, residual = verify_cover_map()
    assert ok
    assert residual.is_zero


def test_cover_map_needs_the_fourth_root_factor():
    ok, residual = verify_cover_map(perturb=True)
    assert not ok
    assert not residual.is_zero


def test_sextic_curve_splits():
    verdict = fourth_power_test(SPLIT_PARAM_SEXTIC)
    assert isinstance(verdict, CoverSplits)
    assert verdict.profile == [4, 4, 4]
    assert verdict.degree_mod_4 == 0
    r = Poly.x("r")
    expected = {r, r - 1, r ** 2 - Fraction(2, 3) * r + 1}
    assert {p for p, _ in verdict.places} == expected
    assert verdict.constant == -36006768
    # -2^4 3^8 7^3 is not a rational fourth power
    assert verdict.constant_fourth_power is None


def test_quartic_curve_splits():
    verdict = fourth_power_test(SPLIT_PARAM_QUARTIC)
    assert isinstance(verdict, CoverSplits)
    assert verdict.profile == [4, 4, 4]
    r = Poly.x("r")
    assert {p for p, _ in verdict.places} == {r, r + 3, r - 9}
    assert verdict.constant == -(2 ** 8) * 3 ** 8 * 7 ** 3


def test_sextic_factor_display():
    assert all(sextic_factor_check().values())


def test_quartic_factor_display():
    checks = quartic_factor_check()
    assert all(checks.values())
    # the scaled variant really is off by exactly 81
    assert checks["scaled_variant_is_81_times"]


def test_generic_line_does_not_split():
    r = Poly.x("r")
    param = Parametrization(Poly.constant("r", 1), r, Poly.constant("r", 0))
    verdict = fourth_power_test(param)
    assert isinstance(verdict, CoverDoesNotSplit)
    assert any(m % 4 for m in verdict.profile)


def test_curve_on_branch_is_flagged():
    r = Poly.x("r")
    param = Parametrization(Poly.constant("r", 1), Poly.constant("r", 0), r)
    assert isinstance(fourth_power_test(param), ContainedInBranch)


def _display_u(field):
    lam = Poly.x("lam")
    t2 = field.gen(1) ** 2
    p = (27 + 7 * lam) ** 2 * (49 * lam ** 2 + 98 * lam + 81)
    return RationalFunction(
        p.map_coeffs(lambda c: field.from_rational(c * Fraction(1, 38416)) * t2)
    )


def _display_v(field):
    lam = Poly.x("lam")
    t3 = field.gen(1) ** 3
    p = (81 - 7 * lam) * (27 + 7 * lam) * (49 * lam ** 2 + 98 * lam + 81) ** 2
    return RationalFunction(
        p.map_coeffs(lambda c: field.from_rational(c * Fraction(1, 7529536)) * t3)
    )


def _summed_section(root_choice):
    """The root choice's field and the summed sextic two-section over it."""
    twist = twist_lift(SPLIT_PARAM_SEXTIC)
    field, _ = covers._twist_root(twist.s, root_choice)
    return field, sum_at_root_choice(twist_sum(twist), twist.s, root_choice)


def _untwisted_branch(twist, root_choice):
    """One branch (u, v) of the two-section on the standard member over the
    root choice's field, with that field and its w0."""
    field, w0 = covers._twist_root(twist.s, root_choice)
    u, v = covers._untwist((twist.u / twist.s, twist.v / twist.s), w0)
    return field, w0, u, v


def test_section_sum_reproduces_display():
    field, total = _summed_section(2)
    assert total["on_curve"]
    assert total["u"] == _display_u(field)
    assert total["v"] == _display_v(field)
    # on_curve again, against the fibration module's model of the 81/49 member
    f = standard_family(Fraction(81, 49)).f.map_coeffs(field.from_rational)
    u, v = total["u"], total["v"]
    assert (v * v - (u ** 3 - RationalFunction(f) * u)).is_zero


def test_section_sum_root_zero_flips_v():
    field, total = _summed_section(0)
    assert total["on_curve"]
    assert total["u"] == _display_u(field)
    assert total["v"] == -_display_v(field)


def test_odd_root_choice_forces_tower():
    field, total = _summed_section(1)
    assert field.height == 2
    assert total["on_curve"]


def test_two_section_branches_lie_on_the_pulled_back_curve():
    twist = twist_lift(SPLIT_PARAM_SEXTIC)
    field, _, u, v = _untwisted_branch(twist, 0)
    lam = twist.lam_of_r
    f_r = (lam ** 3 * (lam ** 2 + 2 * lam + STANDARD_ALPHA) ** 2).map_coeffs(field.from_rational)
    residual = v ** 2 - u ** 3 + f_r * u
    assert residual.is_zero


def test_lift_rejects_odd_fiber_coordinate():
    with pytest.raises(ValueError):
        twist_lift(SPLIT_PARAM_QUARTIC)


def test_lift_rejects_non_split_curve():
    r = Poly.x("r")
    param = Parametrization(Poly.constant("r", 1), r ** 2, Poly.constant("r", 0))
    with pytest.raises(ValueError):
        twist_lift(param)


def test_split_fourth_power():
    t, s = split_fourth_power(Fraction(16 * 81, 7 ** 5))
    assert (t, s) == (Fraction(6, 49), 343)
    # a 7-free rest that is not a fourth power stays whole in s
    t, s = split_fourth_power(Fraction(-32))
    assert (t, s) == (Fraction(1), -32)
    for c in (Fraction(1), Fraction(-7, 48), Fraction(625, 16)):
        t, s = split_fourth_power(c)
        assert t ** 4 * s == c


def _add_exponents(exps, n, sign, sympy):
    for p, e in sympy.factorint(n).items():
        exps[p] = exps.get(p, 0) + sign * e


def _maximal_split(sign, exps):
    """The split of sign * prod p^e with every exponent of s in 0..3."""
    t, s = Fraction(1), sign
    for p, e in exps.items():
        t *= Fraction(p) ** (e // 4)
        s *= p ** (e % 4)
    return t, s


def test_split_fourth_power_matches_the_factored_split():
    # c = +/- 7^e (a/b)^4 q with q = 1 or a random 7-free ratio; the oracle
    # factors a, b and q with sympy, the split factors nothing
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261019)
    not_a_power = "not \\+/- a power of 7 below 7\\^4"
    for k in range(300):
        sign, e = rng.choice((1, -1)), rng.randint(-9, 9)
        a, b = rng.randint(1, 10 ** 12), rng.randint(1, 10 ** 12)
        n, d = (1, 1) if k % 2 else (rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        n, d = (_radicand_valuation(x)[0] for x in (n, d))
        c = sign * Fraction(7) ** e * Fraction(a, b) ** 4 * Fraction(n, d)
        exps = {7: e} if e else {}
        for x, power in ((a, 4), (b, -4), (n, 1), (d, -1)):
            _add_exponents(exps, x, power, sympy)
        t, s = split_fourth_power(c)
        assert isinstance(s, int) and t ** 4 * s == c, c
        best = _maximal_split(sign, exps)
        if abs(best[1]) in (1, 7, 49, 343):
            # a root choice can use the maximal split: it is the one returned
            assert (t, s) == best, c
        else:
            for split_s in (s, best[1]):
                with pytest.raises(ValueError, match=not_a_power):
                    _fourth_root_in_theta_field(split_s, 0)


def _sympy_poly(sympy, x, p):
    coeffs = [Fraction(p.coeff(e)) for e in range(p.degree, -1, -1)]
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs],
                      x, domain=sympy.QQ)


def test_rf_fourth_power_data_matches_sympy_multiplicities():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    r = Poly.x("r")
    rng = random.Random(20261020)
    seen = set()
    for _ in range(60):
        h = RationalFunction(Poly.constant("r", Fraction(rng.randint(-50, 50) or 1,
                                                        rng.randint(1, 50))))
        for _ in range(rng.randint(0, 4)):
            q = Poly("r", {e: rng.randint(-4, 4) for e in range(rng.randint(0, 2))}) + r ** 2
            m = rng.choice((4, 4, 8, rng.randint(1, 9)))
            h = h * q ** m if rng.random() < 0.6 else h / q ** m
        mults = [m for p in (h.num, h.den)
                 for _, m in _sympy_poly(sympy, x, p).sqf_list()[1]]
        data = _rf_fourth_power_data(h)
        seen.add(data is None)
        if any(m % 4 for m in mults):
            assert data is None, h
            continue
        c, g = data
        assert c * g ** 4 == h, h
        if isinstance(g, Poly):
            g = RationalFunction(g)
        assert g.num.leading_coefficient() == g.den.leading_coefficient() == 1
    assert seen == {True, False}


def test_fourth_root_of_a_power_of_seven():
    for j in range(4):
        field, w0 = _fourth_root_in_theta_field(7 ** j, 0)
        assert w0 ** 4 == field.from_rational(7 ** j)
    for s in (7 ** 4, 7 ** 5, 2 * 7, 49 * 3, 0):
        with pytest.raises(ValueError, match="not \\+/- a power of 7 below 7\\^4"):
            _fourth_root_in_theta_field(s, 0)
    with pytest.raises(ValueError, match="negative"):
        _fourth_root_in_theta_field(-7, 0)


def test_even_descend():
    r = Poly.x("r")
    scale = Fraction(7, 9)
    rf = RationalFunction(r ** 4 + r ** 2, r ** 2 + 1)
    out = even_descend(rf, scale)
    lam = Poly.x("lam")
    assert out == RationalFunction(scale ** 2 * lam ** 2 + scale * lam, scale * lam + 1)
    with pytest.raises(ValueError):
        even_descend(RationalFunction(r ** 3), scale)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the sextic curve reparametrized by r -> m r: m^8 enters the twist constant
RESCALED_LIFT = """\
import json, sys
from k3quartic.covers import (SPLIT_PARAM_SEXTIC as P, Parametrization,
                              displayed_section, sum_at_root_choice, twist_lift,
                              twist_sum)
from k3quartic.polynomials import Poly
mr = int(sys.argv[1]) * Poly.x("r")
twist = twist_lift(Parametrization(P.x(mr), P.y(mr), P.z(mr)))
total = twist_sum(twist)
sums = [sum_at_root_choice(total, twist.s, k) for k in range(4)]
shown = displayed_section()
print(json.dumps({"s": twist.s, "on_curve": [x["on_curve"] for x in sums],
                  "displayed": sums[2]["u"] == shown["u"] and sums[2]["v"] == shown["v"]}))
"""


def test_lift_of_a_rescaled_curve_factors_no_integer():
    # a 21-digit prime m puts m^8 into the twist constant; the subprocess
    # bounds the time the split may take
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run(
        [sys.executable, "-c", RESCALED_LIFT, "100000000000000000039"],
        capture_output=True, text=True, timeout=10, env=env)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {
        "s": 343, "on_curve": [True] * 4, "displayed": True}


# -- the Q-level twist lift against the former field-coefficient lift ----------


def _field_lift(param, root_choice=0):
    """The lift as it was before the quartic-twist factoring, verbatim except
    that it returns a namespace: the whole lift with field coefficients."""
    rvar = param.var
    x_rf = RationalFunction(param.x)
    lam = RationalFunction(param.y) / x_rf
    if lam != _negate_variable_rf(lam):
        raise ValueError("fiber coordinate y/x is not even in the parameter")
    zc = RationalFunction(param.z) / x_rf

    alpha = STANDARD_ALPHA
    a_of = lam ** 2 + 2 * lam + alpha
    z1 = (2 * zc - (lam ** 2 - 2 * lam - alpha)) / a_of
    h = Fraction(1, 4) * lam * a_of ** 2 * (z1 ** 2 - 1)

    # cross-check: H must be -F(1, lam, Z)
    neg_f = -quartic_at(RationalFunction(Poly.constant(rvar, 1)), lam, zc, alpha)
    if h != neg_f:
        raise AssertionError("normalized fiber coordinate does not match the chart")

    data = _rf_fourth_power_data(h)
    if data is None:
        raise ValueError("curve does not split: H is not a fourth power up to constant")
    c, g = data
    t, s = split_fourth_power(c)
    field, w0 = _fourth_root_in_theta_field(s, root_choice)
    w = (t * w0) * g.map_coeffs(field.from_rational)
    if w ** 4 != h.map_coeffs(field.from_rational):
        raise AssertionError("fourth root reconstruction failed")

    lam_f = lam.map_coeffs(field.from_rational)
    a_f = a_of.map_coeffs(field.from_rational)
    z1_f = z1.map_coeffs(field.from_rational)
    u = lam_f ** 2 * a_f ** 2 * (z1_f + 1) / (2 * w ** 2)
    v = lam_f ** 3 * a_f ** 3 * (z1_f + 1) / (2 * w ** 3)

    # lam = (y/x)(r) must be a monomial c r^2 for the descent r^2 -> lam/c
    if not lam.is_polynomial or lam.num.degree != 2 or lam.num.coeff(1) != 0 or lam.num.coeff(0) != 0:
        raise ValueError("descent needs lam(r) to be a pure multiple of r^2")
    r_squared_in_lam = 1 / lam.num.coeff(2)

    return SimpleNamespace(
        param=param, alpha=alpha, root_choice=root_choice, field=field,
        lam_of_r=lam, r_squared_in_lam=r_squared_in_lam,
        z1=z1_f, w=w, u=u, v=v,
    )


def _field_sum(lift):
    """The branch sum as it was before the twist factoring, verbatim."""
    u_p, v_p = lift.u, lift.v
    u_m, v_m = _negate_variable_rf(u_p), _negate_variable_rf(v_p)
    f_r = (lift.lam_of_r ** 3 * (lift.lam_of_r ** 2 + 2 * lift.lam_of_r + lift.alpha) ** 2)
    f_r = f_r.map_coeffs(lift.field.from_rational)
    total = ec_add((u_p, v_p), (u_m, v_m), -f_r)
    if total is EC_INFINITY:
        return {"u": None, "v": None, "on_curve": True, "residual": None}
    su, sv = total
    scale = lift.r_squared_in_lam
    u_lam = even_descend(su, scale)
    v_lam = even_descend(sv, scale)

    lam = Poly.x("lam")
    f_lam = (lam ** 3 * (lam ** 2 + 2 * lam + lift.alpha) ** 2).map_coeffs(
        lift.field.from_rational
    )
    residual = v_lam ** 2 - u_lam ** 3 + f_lam * u_lam
    return {"u": u_lam, "v": v_lam, "on_curve": residual.is_zero,
            "residual": residual}


@pytest.mark.parametrize("root_choice", range(4))
def test_twist_lift_matches_the_field_lift(root_choice):
    old = _field_lift(SPLIT_PARAM_SEXTIC, root_choice)
    twist = twist_lift(SPLIT_PARAM_SEXTIC)
    field, _, u, v = _untwisted_branch(twist, root_choice)
    new = {"field": field, "lam_of_r": twist.lam_of_r,
           "r_squared_in_lam": twist.r_squared_in_lam, "u": u, "v": v}
    for name, b in new.items():
        a = getattr(old, name)
        assert a == b, name
        assert repr(a) == repr(b), name
    old_sum = _field_sum(old)
    new_sum = sum_at_root_choice(twist_sum(twist), twist.s, root_choice)
    for name in ("u", "v"):
        assert old_sum[name] == new_sum[name], name
        assert repr(old_sum[name]) == repr(new_sum[name]), name
    assert old_sum["on_curve"] is new_sum["on_curve"] is True


def test_twist_lift_rejects_what_the_field_lift_rejects():
    r = Poly.x("r")
    non_split = Parametrization(Poly.constant("r", 1), r ** 2, Poly.constant("r", 0))
    for param in (SPLIT_PARAM_QUARTIC, non_split):
        for lift in (_field_lift, lambda p, k=0: twist_lift(p)):
            with pytest.raises(ValueError):
                lift(param)


def test_twist_lift_is_over_q_on_the_twisted_curve():
    twist = twist_lift(SPLIT_PARAM_SEXTIC)
    assert twist.s == 343
    lam = twist.lam_of_r
    f_r = lam ** 3 * (lam ** 2 + 2 * lam + STANDARD_ALPHA) ** 2
    assert (twist.v ** 2 - twist.u ** 3 + twist.s * f_r * twist.u).is_zero
    for rf in (twist.u, twist.v):
        assert all(type(c) in (int, Fraction)
                   for p in (rf.num, rf.den) for c in p.coeffs.values())


def test_root_choice_residual_multiplies_by_no_one(monkeypatch):
    # the residual's sums and powers meet denominators that are the constant
    # 1; the cross products by them are skipped, not formed
    twist = twist_lift(SPLIT_PARAM_SEXTIC)
    total = covers.twist_sum(twist)
    for k in range(4):
        covers.sum_at_root_choice(total, twist.s, k)  # builds the fields once
    mul = FieldElement.__mul__
    by_one = []

    def counting(self, other):
        if self == 1 or other == 1:
            by_one.append((self, other))
        return mul(self, other)

    # __rmul__ is an alias of __mul__, so both names are counted
    monkeypatch.setattr(FieldElement, "__mul__", counting)
    monkeypatch.setattr(FieldElement, "__rmul__", counting)
    for k in range(4):
        assert covers.sum_at_root_choice(total, twist.s, k)["on_curve"]
    assert by_one == []


# -- negative controls: each factored certificate can fail ----------------------


def test_doubled_fourth_root_fails_its_certificate(monkeypatch):
    real = covers._fourth_root_in_theta_field

    def doubled(s, root_choice):
        field, w0 = real(s, root_choice)
        return field, 2 * w0

    twist = twist_lift(SPLIT_PARAM_SEXTIC)
    total = twist_sum(twist)
    monkeypatch.setattr(covers, "_fourth_root_in_theta_field", doubled)
    for k in range(4):
        with pytest.raises(AssertionError, match="fourth root reconstruction failed"):
            sum_at_root_choice(total, twist.s, k)


def test_perturbed_twist_constant_leaves_a_residual(monkeypatch):
    real = covers.twist_sum

    def perturbed(twist):
        return real(twist._replace(s=twist.s + 1))

    monkeypatch.setattr(covers, "twist_sum", perturbed)
    assert cli.check_section_roots() == (
        False, "off-curve at root choices [0, 1, 2, 3]")


# -- the x-cleared chart lift against the lift over reduced fractions ----------


def _fraction_chain_lift(param):
    """`twist_lift` as it was before the chart was cleared of x, verbatim
    but for `covers.quartic_at` and `covers.split_fourth_power`, looked up
    at call time so that a patched one reaches both lifts: every step a
    gcd-reduced `RationalFunction` operation."""
    x_rf = RationalFunction(param.x)
    lam = RationalFunction(param.y) / x_rf
    if not lam.is_polynomial or set(lam.num.coeffs) != {2}:
        raise ValueError("descent needs lam(r) to be a pure multiple of r^2")
    zc = RationalFunction(param.z) / x_rf

    alpha = STANDARD_ALPHA
    a_of = lam ** 2 + 2 * lam + alpha
    z1 = (2 * zc - (lam ** 2 - 2 * lam - alpha)) / a_of
    h = Fraction(1, 4) * lam * a_of ** 2 * (z1 ** 2 - 1)

    neg_f = -covers.quartic_at(RationalFunction(Poly.constant(param.var, 1)), lam, zc, alpha)
    if h != neg_f:
        raise AssertionError("normalized fiber coordinate does not match the chart")

    data = _rf_fourth_power_data(h)
    if data is None:
        raise ValueError("curve does not split: H is not a fourth power up to constant")
    c, g = data
    t, s = covers.split_fourth_power(c)
    tg = t * g
    if tg ** 4 * s != h:
        raise AssertionError("fourth root reconstruction failed")
    u = lam ** 2 * a_of ** 2 * (z1 + 1) / (2 * tg ** 2)
    v = u * lam * a_of / tg
    return covers.TwistLift(lam, covers.qdiv(1, lam.num.coeff(2)), s, u, v)


def _field_residual_at_root_choice(total, s, root_choice):
    """`sum_at_root_choice` as it was before the residual was built from
    rational products: both coordinates embedded, then scaled, and the
    residual formed over the field."""
    field, w0 = covers._twist_root(s, root_choice)
    emb = field.from_rational
    u_lam, v_lam = total[0].map_coeffs(emb) * w0 ** 2, total[1].map_coeffs(emb) * w0
    f_lam = covers._STANDARD_F.map_coeffs(emb)
    residual = v_lam ** 2 - u_lam * (u_lam ** 2 - f_lam)
    return {"u": u_lam, "v": v_lam, "on_curve": residual.is_zero, "residual": residual}


def _typed(x):
    """x as nested tuples with every scalar tagged by its type: equal only
    for equal values held in equal coefficient types."""
    if isinstance(x, RationalFunction):
        return ("RationalFunction", _typed(x.num), _typed(x.den))
    if isinstance(x, Poly):
        return ("Poly", x.var, x.den, tuple(sorted((e, _typed(c)) for e, c in x.nums.items())))
    if isinstance(x, FieldElement):
        return ("FieldElement", x.ctx._key, x.num, x.den)
    return (type(x).__name__, x)


def _assert_same(a, b, name):
    assert a == b, name
    assert _typed(a) == _typed(b), name
    assert repr(a) == repr(b), name


def _rescaled_sextic(m):
    mr = m * Poly.x("r")
    P = SPLIT_PARAM_SEXTIC
    return Parametrization(P.x(mr), P.y(mr), P.z(mr))


SECTION_CURVES = [SPLIT_PARAM_SEXTIC] + [
    _rescaled_sextic(m) for m in (2, 3, 100000000000000000039)]


@pytest.mark.parametrize("param", SECTION_CURVES, ids=["sextic", "m=2", "m=3", "m=21-digit"])
def test_chart_lift_matches_the_fraction_chain(param):
    new, old = twist_lift(param), _fraction_chain_lift(param)
    for name in covers.TwistLift._fields:
        _assert_same(getattr(new, name), getattr(old, name), name)
    total = twist_sum(new)
    for k in range(4):
        got = sum_at_root_choice(total, new.s, k)
        want = _field_residual_at_root_choice(total, new.s, k)
        assert got["on_curve"] is want["on_curve"] is True
        for name in ("u", "v", "residual"):
            _assert_same(got[name], want[name], (k, name))


def test_chart_lift_rejects_what_the_fraction_chain_rejects():
    r = Poly.x("r")
    one = Poly.constant("r", 1)
    non_split = Parametrization(one, r ** 2, Poly.constant("r", 0))
    on_conic = Parametrization(one, r ** 2, r ** 4)  # y^2 = x z: F vanishes
    assert isinstance(fourth_power_test(on_conic), ContainedInBranch)
    for param in (SPLIT_PARAM_QUARTIC, non_split, on_conic):
        errors = []
        for lift in (twist_lift, _fraction_chain_lift):
            with pytest.raises(ValueError) as err:
                lift(param)
            errors.append(str(err.value))
        assert errors[0] == errors[1], param


def test_perturbed_chart_fails_its_certificate(monkeypatch):
    real = covers.quartic_at
    monkeypatch.setattr(covers, "quartic_at",
                        lambda x, y, z, alpha: real(x, y, z, alpha + 1))
    for lift in (twist_lift, _fraction_chain_lift):
        with pytest.raises(AssertionError, match="does not match the chart"):
            lift(SPLIT_PARAM_SEXTIC)


def test_doubled_twist_root_fails_its_certificate(monkeypatch):
    real = covers.split_fourth_power

    def doubled(c):
        t, s = real(c)
        return 2 * t, s

    monkeypatch.setattr(covers, "split_fourth_power", doubled)
    for lift in (twist_lift, _fraction_chain_lift):
        with pytest.raises(AssertionError, match="fourth root reconstruction failed"):
            lift(SPLIT_PARAM_SEXTIC)


def test_perturbed_twist_constant_residual_matches_the_field_residual():
    twist = twist_lift(SPLIT_PARAM_SEXTIC)
    total = twist_sum(twist._replace(s=twist.s + 1))
    for k in range(4):
        got = sum_at_root_choice(total, twist.s, k)
        want = _field_residual_at_root_choice(total, twist.s, k)
        assert got["on_curve"] is want["on_curve"] is False
        assert not got["residual"].is_zero
        _assert_same(got["residual"], want["residual"], k)


def test_root_choice_multiplies_no_two_field_polynomials(monkeypatch):
    # a root choice scales rational polynomials by powers of w0; a product
    # of two polynomials over the field (den None) is what it avoids
    twist = twist_lift(SPLIT_PARAM_SEXTIC)
    total = twist_sum(twist)
    mul = Poly.__mul__
    field_products = []

    def counting(self, other):
        if isinstance(other, Poly) and self.den is None and other.den is None:
            field_products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    monkeypatch.setattr(Poly, "__rmul__", counting)
    for k in range(4):
        assert sum_at_root_choice(total, twist.s, k)["on_curve"]
    assert field_products == []
    _field_residual_at_root_choice(total, twist.s, 0)
    assert field_products  # the counter sees the field residual's products


def _over_a_number_field(p):
    """p has more than one term and every coefficient is a number-field element."""
    return len(p.nums) > 1 and all(type(c) is FieldElement for c in p.nums.values())


def test_no_check_multiplies_two_polynomials_over_a_number_field(monkeypatch):
    # no check multiplies two polynomials of several terms over a number
    # field, so Poly.__mul__'s per-coefficient loop is the one field product
    # path; a check that needs such products has to argue a faster path back
    # in, with a workload that runs it
    mul = Poly.__mul__
    field_products = []

    def counting(self, other):
        if isinstance(other, Poly) and _over_a_number_field(self) and _over_a_number_field(other):
            field_products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    monkeypatch.setattr(Poly, "__rmul__", counting)
    for name, check in cli.CHECKS:
        assert check()[0], name
    assert field_products == []
    twist = twist_lift(SPLIT_PARAM_SEXTIC)
    _field_residual_at_root_choice(twist_sum(twist), twist.s, 0)
    assert field_products  # the counter sees the field residual's products
