from fractions import Fraction

import pytest

from k3quartic.covers import (
    ContainedInBranch,
    CoverDoesNotSplit,
    CoverSplits,
    Parametrization,
    SPLIT_PARAM_QUARTIC,
    SPLIT_PARAM_SEXTIC,
    _fourth_root_in_theta_field,
    even_descend,
    fourth_power_test,
    lift_two_section,
    quartic_factor_check,
    sextic_factor_check,
    split_fourth_power,
    sum_sections,
    verify_cover_map,
)
from k3quartic.fibration import standard_family
from k3quartic.fields import quartic_root_field
from k3quartic.polynomials import Poly, RationalFunction


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


def test_section_sum_reproduces_display():
    lift = lift_two_section(SPLIT_PARAM_SEXTIC, root_choice=2)
    total = sum_sections(lift)
    assert total["on_curve"]
    assert total["u"] == _display_u(lift.field)
    assert total["v"] == _display_v(lift.field)
    # on_curve again, against the fibration module's model of the 81/49 member
    f = standard_family(Fraction(81, 49)).f.map_coeffs(lift.field.from_rational)
    u, v = total["u"], total["v"]
    assert (v * v - (u ** 3 - RationalFunction(f) * u)).is_zero


def test_section_sum_root_zero_flips_v():
    lift = lift_two_section(SPLIT_PARAM_SEXTIC, root_choice=0)
    total = sum_sections(lift)
    assert total["on_curve"]
    assert total["u"] == _display_u(lift.field)
    assert total["v"] == -_display_v(lift.field)


def test_odd_root_choice_forces_tower():
    lift = lift_two_section(SPLIT_PARAM_SEXTIC, root_choice=1)
    assert lift.field.height == 2
    total = sum_sections(lift)
    assert total["on_curve"]


def test_two_section_branches_lie_on_the_pulled_back_curve():
    lift = lift_two_section(SPLIT_PARAM_SEXTIC)
    f_r = lift.lam_of_r ** 3 * (lift.lam_of_r ** 2 + 2 * lift.lam_of_r + lift.alpha) ** 2
    f_r = f_r.map_coeffs(lift.field.from_rational)
    residual = lift.v ** 2 - lift.u ** 3 + f_r * lift.u
    assert residual.is_zero


def test_lift_rejects_odd_fiber_coordinate():
    with pytest.raises(ValueError):
        lift_two_section(SPLIT_PARAM_QUARTIC)


def test_lift_rejects_non_split_curve():
    r = Poly.x("r")
    param = Parametrization(Poly.constant("r", 1), r ** 2, Poly.constant("r", 0))
    with pytest.raises(ValueError):
        lift_two_section(param)


def test_split_fourth_power():
    t, s = split_fourth_power(Fraction(16 * 81, 7 ** 5))
    assert (t, s) == (Fraction(6, 49), 343)
    t, s = split_fourth_power(Fraction(-32))
    assert (t, s) == (Fraction(2), -2)
    for c in (Fraction(1), Fraction(-7, 48), Fraction(625, 16)):
        t, s = split_fourth_power(c)
        assert t ** 4 * s == c



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
