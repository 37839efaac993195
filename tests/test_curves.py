from fractions import Fraction

import pytest

from k3quartic.curves import (
    CM_J_INVARIANTS,
    EC_INFINITY,
    CurveMap,
    CurveModel,
    _as_qf,
    automorphism_order,
    base_elliptic,
    base_elliptic_rhs,
    compose,
    cubic_to_exponent_four,
    ec_add,
    exponent_four_model,
    genus2_curve,
    identity_map,
    j_invariant,
    minus_x_cubic,
    negation_map,
    on_curve,
    order_four_twist,
    quarter_turn,
    quotient_map,
    quotient_negation_check,
    rescale_genus2_check,
    rho_inversion,
    verify_involution,
)
from k3quartic.fields import gaussian_field, imaginary_unit
from k3quartic.multipoly import MultiPoly, QuotientContext, QuotientFraction
from k3quartic.polynomials import Poly, poly_gcd, rational_roots


# the pullback of the invariant differential du/v, used only by these tests
def _total_derivative(qf, head, base):
    """d/d(base) on the curve's function field, with d(head)/d(base) from the
    defining relation head^2 = h: d(head) = h' head / (2h) d(base)."""
    ctx = qf.qctx
    (hd, power, h) = ctx.relations[0]
    if hd != head or power != 2:
        raise ValueError("total derivative needs a head-power-2 model")
    hp = h.derivative(base)
    head_mp = MultiPoly.gen(ctx.vars, head)

    def dpoly(n):
        out = QuotientFraction(ctx, n.derivative(base))
        nh = n.derivative(head)
        if not nh.is_zero:
            out = out + QuotientFraction(ctx, nh * hp * head_mp, 2 * h)
        return out

    n, d = qf.num, qf.den
    dq = dpoly(n) * _as_qf(ctx, d) - _as_qf(ctx, n) * dpoly(d)
    return dq / _as_qf(ctx, d * d)


def pullback_differential(cmap):
    """Pull du/v back along a map from a head-power-2 curve in rho.

    Writes the pullback as P(rho) * d(rho)/head and returns
    {"regular": bool, "coords": (c0, c1, ...), "raw": ...}; coords are the
    coefficients of P when P is a polynomial in rho alone.
    """
    src = cmap.source
    du_img = cmap.images["u"]
    v_img = cmap.images["v"]
    ratio = _total_derivative(du_img, src.head, "rho") / v_img
    s = ratio * src.q(src.head)
    p = s.num.try_exact_div(s.den)
    if p is None or p.degree_in(src.head) > 0:
        return {"regular": False, "coords": None, "raw": s}
    i_base = src.vars.index("rho")
    coords = {}
    for e, c in p.terms.items():
        if any(k and j != i_base for j, k in enumerate(e)):
            return {"regular": False, "coords": None, "raw": p}
        coords[e[i_base]] = c
    top = max(coords) if coords else 0
    return {
        "regular": True,
        "coords": tuple(coords.get(k, 0) for k in range(top + 1)),
        "raw": p,
    }


def hyperelliptic_involution():
    B = genus2_curve()
    return CurveMap(B, B, {"tau": -B.q("tau")})


def hyperelliptic_genus(h):
    """Genus of tau^2 = h(rho) for squarefree h; raises otherwise."""
    if h.degree < 1:
        raise ValueError("h must be nonconstant")
    if poly_gcd(h, h.derivative()).degree != 0:
        raise ValueError("h is not squarefree: the model is singular")
    return int(h.degree - 1) // 2


def pullback_matrix(maps):
    """Rows of pullback coordinates, padded to two, for several maps, plus
    the 2x2 determinant when there are exactly two maps."""
    rows = []
    for m in maps:
        rec = pullback_differential(m)
        if not rec["regular"]:
            raise ValueError("pullback is not regular: %r" % rec["raw"])
        c = rec["coords"]
        rows.append(tuple(c) + (0,) * (2 - len(c)))
    det = None
    if len(rows) == 2:
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return {"rows": rows, "det": det}


def test_quotient_map_verifies():
    ok, residual = quotient_map().verify()
    assert ok
    assert residual.is_zero


def test_perturbed_quotient_map_fails():
    ok, residual = quotient_map(perturb=True).verify()
    assert not ok
    assert not residual.is_zero


def test_rho_inversion_is_involution():
    ok, detail = verify_involution(rho_inversion())
    assert ok
    assert detail["preserves"] and detail["squares_to_identity"]
    assert automorphism_order(rho_inversion()) == 2


def test_order_four_twist():
    ok, detail = verify_involution(order_four_twist())
    assert not ok
    assert detail["preserves"]
    assert not detail["squares_to_identity"]
    assert automorphism_order(order_four_twist()) == 4
    # its square is exactly the hyperelliptic involution
    sq = compose(order_four_twist(), order_four_twist())
    assert sq == hyperelliptic_involution()


def test_quotient_intertwines_negation():
    assert quotient_negation_check()
    # and explicitly: f after iota differs from f (it is [-1] after f)
    f = quotient_map()
    assert compose(f, rho_inversion()) != f


def test_rescale_identity():
    assert rescale_genus2_check()


def test_cubic_to_exponent_four_model():
    ok, residual = cubic_to_exponent_four().verify()
    assert ok
    assert automorphism_order(quarter_turn()) == 4


def test_identity_map_order():
    B = genus2_curve()
    assert automorphism_order(identity_map(B)) == 1
    # maps compare by value, so they are not hashable
    with pytest.raises(TypeError):
        hash(identity_map(B))


def test_power_one_model_is_refused_at_construction():
    V = ("x", "y")
    with pytest.raises(ValueError):
        CurveModel(V, "y", 1, MultiPoly.gen(V, "x"))


def test_a_model_is_its_ring_built_once():
    B = genus2_curve()
    assert isinstance(B, QuotientContext)
    assert B.relations == (("tau", 2, B.rhs),)
    for factory in (genus2_curve, base_elliptic, minus_x_cubic, exponent_four_model):
        assert factory() is factory()
    assert quotient_map().source is rho_inversion().source is B
    assert quotient_map().target is base_elliptic()
    assert cubic_to_exponent_four().target is quarter_turn().source


def test_a_second_copy_of_a_curve_is_another_ring():
    B = genus2_curve()
    copy = CurveModel(B.vars, B.head, B.power, B.rhs)
    assert identity_map(copy) != identity_map(B)
    with pytest.raises(TypeError):
        compose(rho_inversion(), identity_map(copy))
    with pytest.raises(TypeError):
        CurveMap(copy, B, {"rho": B.q("rho")})


def test_j_invariant_values():
    x = Poly.x("x")
    assert j_invariant(x ** 3 - x) == 1728
    assert j_invariant(x ** 3 - 1) == 0
    with pytest.raises(ValueError):
        j_invariant(x ** 3)  # singular
    with pytest.raises(ValueError):
        j_invariant(x ** 2 - 1)
    with pytest.raises(ValueError):
        j_invariant(2 * x ** 3 - 1)


def test_cm_j_table_matches_the_numeric_j():
    # the frozen table against mpmath's Klein j (test-only oracle): j_D is
    # 1728 kleinj(tau) at tau = (D + sqrt(D))/2, the generator of the order
    # of discriminant D, and the 13 discriminants are those of class number one
    import mpmath

    assert sorted(CM_J_INVARIANTS.values(), reverse=True) == [
        -3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67, -163]
    with mpmath.workdps(60):
        for j, disc in CM_J_INVARIANTS.items():
            tau = (disc + mpmath.sqrt(mpmath.mpf(disc))) / 2
            numeric = 1728 * mpmath.kleinj(tau)
            assert abs(numeric.imag) < mpmath.mpf(10) ** -30, disc
            assert abs(numeric.real - j) < mpmath.mpf(10) ** -30, (disc, numeric)


def test_quotient_target_has_j_1728():
    rhs = base_elliptic_rhs(Fraction(7, 9))
    assert j_invariant(rhs) == 1728
    roots = sorted(r for r, m in rational_roots(rhs))
    assert roots == [Fraction(-8, 3), Fraction(-4, 3), 0]
    # equally spaced
    assert roots[1] - roots[0] == roots[2] - roots[1]


def test_hyperelliptic_genus():
    rho = Poly.x("rho")
    h = rho ** 5 + 2 * rho ** 3 + Fraction(81, 49) * rho
    assert hyperelliptic_genus(h) == 2
    assert hyperelliptic_genus(rho ** 3 - rho) == 1
    with pytest.raises(ValueError):
        hyperelliptic_genus(rho * (rho ** 2 + 1) ** 2)
    with pytest.raises(ValueError):
        hyperelliptic_genus(Poly.constant("rho", 1))


def test_ec_add_two_torsion():
    a, b, c = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))
    assert ec_add(a, b, -1) == c
    assert ec_add(b, c, -1) == a
    assert ec_add(a, c, -1) == b
    assert ec_add(a, a, -1) is EC_INFINITY
    assert ec_add(EC_INFINITY, a, -1) == a
    assert ec_add(a, EC_INFINITY, -1) == a


def test_ec_add_doubling():
    # y^2 = x^3 + 1: 2*(2,3) = (0,1)
    q = (Fraction(2), Fraction(3))
    assert on_curve(q, 0, 0, 1)
    qq = ec_add(q, q, 0, 0, 1)
    assert qq == (Fraction(0), Fraction(1))
    assert on_curve(qq, 0, 0, 1)
    assert ec_add(qq, (Fraction(0), Fraction(-1)), 0, 0, 1) is EC_INFINITY


def test_pullback_coordinates():
    f = quotient_map()
    rec = pullback_differential(f)
    assert rec["regular"]
    assert rec["coords"] == (-1, -1)

    g = compose(f, order_four_twist())
    rec2 = pullback_differential(g)
    i = imaginary_unit(gaussian_field())
    assert rec2["regular"]
    assert rec2["coords"] == (-i, i)


def test_pullback_matrix_nondegenerate():
    f = quotient_map()
    g = compose(f, order_four_twist())
    mat = pullback_matrix([f, g])
    i = imaginary_unit(gaussian_field())
    assert mat["rows"] == [(-1, -1), (-i, i)]
    assert mat["det"] == -2 * i
    assert mat["det"] != 0
