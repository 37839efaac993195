"""Degree-4 cyclic covers: the cover map onto the quartic, splitting tests
along rational curves, and lifting split curves to Weierstrass sections.

The cover in question is w^4 = F(x, y, z) with F the component quartic.  A
rational curve P : r -> (x(r), y(r), z(r)) splits the cover when F composed
with P is a fourth power in the function field up to a constant, which is
read off the squarefree decomposition: every multiplicity divisible by 4.
A split curve with even fiber coordinate lam(r) then carries a two-section
of the associated Weierstrass family v^2 = u^3 - f u, f = lam^3 A^2, and
the sum of its two branches descends to a genuine section over the
lam-line.

The two-section is a quartic twist of one defined over Q: with
H = -F(1, lam, Z) = c g^4 and c = t^4 s, s = +/- 7^j with j < 4 whenever c
is +/- a power of 7 times a rational fourth power, the pair (U, V) built
from t g instead of a fourth root of H lies on the twist V^2 = U^3 - s f U
over Q(r), and each fourth root w0 of s in Q(theta), theta^4 = 7, or in
Q(theta, i), gives the isomorphism
(U, V) -> (U / w0^2, V / w0^3) onto the standard curve.  So the lift, the
branch sum and its descent are computed once over Q (`twist_lift`,
`twist_sum`), and a root choice only scales by powers of w0.  Certificates:
the chart identity H == -F(1, lam, Z) over Q, checked on polynomials as
x^2 (4 x^2 H) == -4 F(x, y, z) with the one denominator x cleared by hand;
(t g)^4 s == H over Q; w0^4 == s in the root choice's field; and the exact
Weierstrass residual of the scaled sum over that field, formed as
w0^2 (v^2 + f u) - w0^6 u^3 from products over Q and two scalings, so that
no root choice multiplies two polynomials over the field.
"""

from collections import namedtuple
from fractions import Fraction

from . import curves, fields
from .multipoly import MultiPoly, QuotientContext, QuotientFraction
from .polynomials import (
    Poly,
    RationalFunction,
    certified_factors,
    poly_nth_root,
    qdiv,
    scalar_nth_root,
    squarefree_decompose,
)
from .quartic import quartic_at

# -- the cover map onto the quartic -------------------------------------------


def verify_cover_map(perturb=False):
    """The degree-4 map from the genus-2 x exponent-4 coordinates onto the
    quartic surface: with tau^2 = rho(rho^4 + 2 rho^2 + alpha) and
    w1^4 = z1^2 - 1,

        x = 1,  y = rho^2,
        z = (rho^4 + 2 rho^2 + alpha)/2 * z1 + (rho^4 - 2 rho^2 - alpha)/2,
        w = tau w1 / (1 + i),

    satisfies w^4 = F(x, y, z) identically; the 1/(1+i) supplies the needed
    fourth root of -1/4.  perturb=True drops that factor (negative control).
    Returns (passes, residual).
    """
    alpha = RationalFunction(Poly.x("alpha"))
    V = ("rho", "tau", "z1", "w1")
    rho_m = MultiPoly.gen(V, "rho")
    z1_m = MultiPoly.gen(V, "z1")
    a5 = rho_m ** 5 + 2 * rho_m ** 3 + alpha * rho_m  # rho * (rho^4 + 2 rho^2 + alpha)
    ctx = QuotientContext(V, [("tau", 2, a5), ("w1", 4, z1_m ** 2 - 1)])
    rho = QuotientFraction.gen(ctx, "rho")
    tau = QuotientFraction.gen(ctx, "tau")
    z1 = QuotientFraction.gen(ctx, "z1")
    w1 = QuotientFraction.gen(ctx, "w1")

    half = Fraction(1, 2)
    quartic_part = rho ** 4 + 2 * rho ** 2 + alpha
    x = QuotientFraction(ctx, MultiPoly.const(V, 1))
    y = rho ** 2
    z = half * quartic_part * z1 + half * (rho ** 4 - 2 * rho ** 2 - alpha)
    if perturb:
        w = tau * w1
    else:
        i = fields.imaginary_unit(fields.gaussian_field())
        w = tau * w1 * (1 + i) ** -1

    residual = w ** 4 - quartic_at(x, y, z, alpha)
    return residual.is_zero, residual


# -- rational curves and the splitting test -----------------------------------


class Parametrization:
    """A rational plane curve r -> (x(r) : y(r) : z(r)), coordinates coprime."""

    __slots__ = ("x", "y", "z", "name")

    def __init__(self, x, y, z, name=""):
        if not (x.var == y.var == z.var):
            raise ValueError("coordinates must share one parameter variable")
        self.x = x
        self.y = y
        self.z = z
        self.name = name

    @property
    def var(self):
        return self.x.var

    def compose_quartic(self, alpha):
        """F(x(r), y(r), z(r)) as a polynomial in the parameter."""
        return quartic_at(self.x, self.y, self.z, alpha)

    def __repr__(self):
        return "Parametrization(%s)" % (self.name or "x=%s, y=%s, z=%s"
                                        % (self.x, self.y, self.z))


def _sextic_param():
    r = Poly.x("r")
    return Parametrization(
        49 * (r - 1) ** 2,
        63 * r ** 2 * (r - 1) ** 2,
        3 * r ** 2 * (27 * r ** 4 - 54 * r ** 3 + 75 * r ** 2 - 32 * r + 48),
        name="sextic splitting curve",
    )


def _quartic_param():
    r = Poly.x("r")
    return Parametrization(
        49 * (r - 9) ** 2,
        63 * r * (r - 9) ** 2,
        9 * r ** 2 * (9 * r ** 2 + 94 * r + 729),
        name="quartic splitting curve",
    )


SPLIT_PARAM_SEXTIC = _sextic_param()
SPLIT_PARAM_QUARTIC = _quartic_param()
STANDARD_ALPHA = Fraction(81, 49)


class CoverSplits:
    __slots__ = ("profile", "places", "constant", "constant_fourth_power",
                 "degree_mod_4", "composite")

    def __init__(self, profile, places, constant, constant_fourth_power,
                 degree_mod_4, composite):
        self.profile = profile
        self.places = places
        self.constant = constant
        self.constant_fourth_power = constant_fourth_power
        self.degree_mod_4 = degree_mod_4
        self.composite = composite

    def __repr__(self):
        return ("CoverSplits(profile=%r, constant=%s)"
                % (self.profile, self.constant))


class CoverDoesNotSplit:
    __slots__ = ("profile", "places", "composite")

    def __init__(self, profile, places, composite):
        self.profile = profile
        self.places = places
        self.composite = composite

    def __repr__(self):
        return "CoverDoesNotSplit(profile=%r)" % (self.profile,)


class ContainedInBranch:
    def __repr__(self):
        return "ContainedInBranch"


def fourth_power_test(param, alpha=STANDARD_ALPHA):
    """Does the cover w^4 = F split along the parametrized curve?

    Composes F with the parametrization and inspects the squarefree
    decomposition: split means every multiplicity is divisible by 4 (the
    total degree is then automatically 0 mod 4).  The constant in front and
    whether it is a rational fourth power are reported but do not affect the
    geometric verdict.
    """
    comp = param.compose_quartic(alpha)
    if comp.is_zero:
        return ContainedInBranch()
    unit, factors = squarefree_decompose(comp)
    places = []
    for p, m in factors:
        pieces, residual = certified_factors(p)
        for q in pieces:
            places.append((q, m))
        if residual is not None:
            places.append((residual, m))
    profile = sorted(m for _, m in places)
    if all(m % 4 == 0 for _, m in places):
        c = Fraction(unit)
        root = scalar_nth_root(c, 4)
        return CoverSplits(profile, places, c, root, comp.degree % 4, comp)
    return CoverDoesNotSplit(profile, places, comp)


def sextic_factor_check():
    """The quartic composed with the sextic curve, factor by factor: the
    conic, the line, and the pencil line evaluate to the three displayed
    factors, and their product is the full composition."""
    r = Poly.x("r")
    q = 3 * r ** 2 - 2 * r + 3
    x, y, z = SPLIT_PARAM_SEXTIC.x, SPLIT_PARAM_SEXTIC.y, SPLIT_PARAM_SEXTIC.z
    conic = -2352 * (r - 1) ** 2 * r ** 2 * q
    line = 63 * r ** 2 * (r - 1) ** 2
    pencil = 3 * q ** 3
    return {
        "conic_factor": conic == y * y - x * z,
        "line_factor": line == y,
        "pencil_factor": pencil == STANDARD_ALPHA * x + 2 * y + z,
        "product": (SPLIT_PARAM_SEXTIC.compose_quartic(STANDARD_ALPHA)
                    == conic * line * pencil),
    }


def quartic_factor_check():
    """Same factor-by-factor check along the quartic curve.

    The conic factor here is -112896 r^3 (r - 9)^2; a scaled variant with
    -9144576 = 81 * (-112896) in front does not survive the product
    identity, so the ratio is reported alongside.
    """
    r = Poly.x("r")
    x, y, z = SPLIT_PARAM_QUARTIC.x, SPLIT_PARAM_QUARTIC.y, SPLIT_PARAM_QUARTIC.z
    conic = -112896 * r ** 3 * (r - 9) ** 2
    line = 63 * r * (r - 9) ** 2
    pencil = 81 * (r + 3) ** 4
    comp = SPLIT_PARAM_QUARTIC.compose_quartic(STANDARD_ALPHA)
    scaled = (-9144576 * r ** 3 * (r - 9) ** 2) * line * pencil
    return {
        "conic_factor": conic == y * y - x * z,
        "line_factor": line == y,
        "pencil_factor": pencil == STANDARD_ALPHA * x + 2 * y + z,
        "product": comp == conic * line * pencil,
        "scaled_variant_is_81_times": scaled == 81 * comp,
    }


# -- lifting a split curve to a two-section ------------------------------------


# theta^4 = RADICAND: every root choice adjoins a fourth root of it
RADICAND = 7


def _radicand_valuation(n):
    """(m, v) with n = m * RADICAND^v and m prime to RADICAND, for n >= 1."""
    v = 0
    while n % RADICAND == 0:
        n //= RADICAND
        v += 1
    return n, v


def split_fourth_power(c):
    """c = t^4 * s with t rational and s an integer, without factoring.

    With v the RADICAND-adic valuation of c, s = +/- RADICAND^(v mod 4)
    whenever the RADICAND-free rest of c is a rational fourth power (one
    exact root), the only form a root choice takes a fourth root of.
    Otherwise the rest stays in s, its denominator d moved over as
    1/d = d^3/d^4."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("zero has no useful fourth-power split")
    num, v_num = _radicand_valuation(abs(c.numerator))
    den, v_den = _radicand_valuation(c.denominator)
    v = v_num - v_den
    s = (-1 if c < 0 else 1) * RADICAND ** (v % 4)
    root = scalar_nth_root(Fraction(num, den), 4)
    if root is None:
        root, s = Fraction(1, den), s * num * den ** 3
    return root * Fraction(RADICAND) ** (v // 4), s


def _rf_fourth_power_data(h):
    """Write a rational function as c * g^4 with g a quotient of monic
    polynomials: returns (c, g) or None."""
    if h.is_zero:
        return None
    gn, gd = (poly_nth_root(p.monic(), 4) for p in (h.num, h.den))
    if gn is None or gd is None:
        return None
    return (Fraction(h.num.leading_coefficient())
            / Fraction(h.den.leading_coefficient()), gn / gd)


def _fourth_root_in_theta_field(s, root_choice):
    """An element w0 of Q(theta) (or Q(theta, i) for odd choices) with
    w0^4 = s, for s = +/- RADICAND^j; the root choice rotates by i^k."""
    field = (fields.quartic_root_field(RADICAND) if root_choice % 2 == 0
             else fields.with_imaginary_unit("quartic_root", RADICAND))
    sign = -1 if s < 0 else 1
    rest, j = _radicand_valuation(abs(s)) if s else (0, 0)
    if rest != 1 or j >= 4:
        raise ValueError("constant remainder %r is not +/- a power of %d below %d^4"
                         % (s, RADICAND, RADICAND))
    w0 = field.gen(1) ** j  # the first generator is theta
    if sign < 0:
        # need a fourth root of -1: i^(1/2) does not exist here, but
        # root_choice parity cannot fix it either; report plainly
        raise ValueError("constant remainder is negative: no fourth root in Q(theta, i)")
    if root_choice % 4:
        if root_choice % 2 == 0:
            w0 = w0 * field.from_rational((-1) ** (root_choice // 2 % 2))
        else:
            w0 = w0 * fields.imaginary_unit(field) ** (root_choice % 4)
    return field, w0


class TwistLift(namedtuple("TwistLift", "lam_of_r r_squared_in_lam s u v")):
    """The two-section of a split curve over Q, on the quartic twist
    V^2 = U^3 - s f U of the standard member, f = lam^3 A^2: what
    `twist_sum` reads.

    lam_of_r is lam(r) = c r^2 and r_squared_in_lam is 1/c, s is the twist
    constant with H = (t g)^4 s, and (u, v) = (U, V) are Q(r)-rational.
    Every fourth-root choice w0 of s carries (U, V) to (U / w0^2, V / w0^3)
    on v^2 = u^3 - f u (Silverman, *The Arithmetic of Elliptic Curves*,
    X.5).
    """

    __slots__ = ()


def twist_lift(param):
    """The two-section of a split curve with even fiber coordinate, lifted
    once over Q on the quartic twist of the standard member alpha =
    STANDARD_ALPHA; each root choice only scales it (`sum_at_root_choice`).

    Writes lam(r) = y/x, which must be a pure multiple l(r) of r^2 (so it
    is even in r and descends under r^2 -> lam), and Z(r) = z/x, and
    converts to the normalized fiber coordinate
    z1 = (2Z - (lam^2 - 2 lam - alpha))/A, A = lam^2 + 2 lam + alpha.  The
    one denominator x is cleared by hand: x A z1 = 2z - (l^2 - 2l - alpha) x
    is a polynomial, and so is 4 x^2 H = l ((x A z1)^2 - (A x)^2) for
    H = (1/4) lam A^2 (z1^2 - 1), certified by
    x^2 (4 x^2 H) == -4 F(x, y, z) = -4 x^4 F(1, lam, Z).  Then H = c g^4
    and c = t^4 s (`split_fourth_power`), certified as (t g)^4 s == H, and

        U = lam^2 A^2 (z1 + 1) / (2 (t g)^2) = l^2 A ((alpha + 2l) x + z) / (x (t g)^2),
        V = U lam A / (t g)

    lie on V^2 = U^3 - s lam^3 A^2 U.
    """
    x, z = param.x, param.z
    lam = RationalFunction(param.y) / RationalFunction(x)
    # lam = (y/x)(r) must be a monomial c r^2 for the descent r^2 -> lam/c
    if not lam.is_polynomial or set(lam.num.coeffs) != {2}:
        raise ValueError("descent needs lam(r) to be a pure multiple of r^2")
    l = lam.num

    alpha = STANDARD_ALPHA
    l2 = l * l
    a_of = l2 + 2 * l + alpha
    ax = a_of * x
    xaz1 = 2 * z - (l2 - 2 * l - alpha) * x
    h4x2 = l * (xaz1 * xaz1 - ax * ax)
    # cross-check: H must be -F(1, lam, Z), here times 4 x^4
    if x * x * h4x2 != -4 * quartic_at(x, param.y, z, alpha):
        raise AssertionError("normalized fiber coordinate does not match the chart")
    h = RationalFunction(h4x2, 4 * x * x)

    data = _rf_fourth_power_data(h)
    if data is None:
        raise ValueError("curve does not split: H is not a fourth power up to constant")
    c, g = data
    t, s = split_fourth_power(c)
    tg = t * g
    if tg ** 4 * s != h:
        raise AssertionError("fourth root reconstruction failed")
    u = RationalFunction(l2 * a_of * ((alpha + 2 * l) * x + z), x) / tg ** 2
    v = u * (l * a_of) / tg
    return TwistLift(lam, qdiv(1, l.coeff(2)), s, u, v)


def _twist_root(s, root_choice):
    """The root choice's field and w0, certified w0^4 == s there."""
    field, w0 = _fourth_root_in_theta_field(s, root_choice)
    if w0 ** 4 != s:
        raise AssertionError("fourth root reconstruction failed")
    return field, w0


def _untwist(scaled, w0):
    """(U / w0^2, V / w0^3) over w0's field from (U / s, V / s) over Q: with
    w0^4 = s these are w0^2 U / s and w0 V / s, so w0 is never inverted.
    Each rational numerator is scaled by its power of w0 over the same
    rational denominator; the pairs stay reduced, since a gcd over Q stays
    the gcd over the extension and a nonzero scaling keeps them coprime."""
    return tuple(RationalFunction(x.num * w, x.den, _reduced=True)
                 for x, w in zip(scaled, (w0 * w0, w0)))


def _negate_variable_poly(p):
    return Poly(p.var, {e: (c if e % 2 == 0 else -c) for e, c in p.coeffs.items()})


def _negate_variable_rf(rf):
    return RationalFunction(_negate_variable_poly(rf.num), _negate_variable_poly(rf.den))


def _even_poly_descend(p, scale):
    """p(r) with only even exponents -> q(lam) under r^2 = scale * lam."""
    out = {}
    for e, cf in p.coeffs.items():
        if e % 2:
            raise ValueError("polynomial has an odd term: not Galois-invariant")
        out[e // 2] = cf * scale ** (e // 2)
    return Poly("lam", out)


def even_descend(rf, scale):
    """An r -> -r invariant rational function as a function of lam = r^2/scale.

    Its reduced pair is even on both sides: an odd denominator of an
    invariant fraction would leave r dividing both numerator and
    denominator."""
    return RationalFunction(
        _even_poly_descend(rf.num, scale),
        _even_poly_descend(rf.den, scale),
    )


def _weierstrass_f(lam):
    """f = lam^3 (lam^2 + 2 lam + alpha)^2 of v^2 = u^3 - f u at alpha =
    STANDARD_ALPHA, for lam a Poly or a RationalFunction."""
    return lam ** 3 * (lam ** 2 + 2 * lam + STANDARD_ALPHA) ** 2


# built once; a root choice's residual takes it over Q
_STANDARD_F = _weierstrass_f(Poly.x("lam"))


def twist_sum(twist):
    """The sum of the two branches of the twist's two-section, over Q.

    Adds (U, V) and its r -> -r image on V^2 = U^3 - s f U, descends the
    invariant sum to the lam-line and divides it by s: the standard-curve
    sum over a root choice's field is then (w0^2 u, w0 v) for the returned
    (u, v).  curves.EC_INFINITY when the branches are opposite.
    """
    u_p, v_p = twist.u, twist.v
    u_m, v_m = _negate_variable_rf(u_p), _negate_variable_rf(v_p)
    total = curves.ec_add((u_p, v_p), (u_m, v_m), -twist.s * _weierstrass_f(twist.lam_of_r))
    if total is curves.EC_INFINITY:
        return total
    return tuple(even_descend(x, twist.r_squared_in_lam) / twist.s for x in total)


def sum_at_root_choice(total, s, root_choice):
    """A `twist_sum` result scaled to one root choice's field, with the
    exact Weierstrass residual against v^2 = u^3 - lam^3 (lam^2 + 2 lam +
    alpha)^2 u over that field.  Returns {"u", "v", "on_curve",
    "residual"}."""
    if total is curves.EC_INFINITY:
        return {"u": None, "v": None, "on_curve": True, "residual": None}
    _, w0 = _twist_root(s, root_choice)
    u_lam, v_lam = _untwist(total, w0)
    # v_lam^2 - u_lam (u_lam^2 - f) = w0^2 (v^2 + f u) - w0^6 u^3, and
    # w0^6 = w0^2 s since w0^4 == s: products over Q, then one scaling
    u, v = total
    residual = (v * v + _STANDARD_F * u - s * u ** 3) * (w0 * w0)
    return {"u": u_lam, "v": v_lam, "on_curve": residual.is_zero,
            "residual": residual}


def displayed_section():
    """The closed-form coordinates of the summed two-section over the lam-line:

        u = (27+7 lam)^2 (81+98 lam+49 lam^2) t^2 / 38416
        v = (81-7 lam)(27+7 lam)(81+98 lam+49 lam^2)^2 t^3 / 7529536

    with t the positive real fourth root of 7 (so t^2/38416 = 2^-4 7^-7/2 and
    t^3/7529536 = 2^-6 7^-21/4).  Returns {"u", "v"} as rational functions of
    lam over Q(7^(1/4)).
    """
    field = fields.quartic_root_field(RADICAND)
    t = field.gen()
    lam = Poly.x("lam")
    a = 27 + 7 * lam
    q = Poly("lam", {0: 81, 1: 98, 2: 49})
    b = 81 - 7 * lam
    u = (a * a * q).map_coeffs(
        lambda c: field.from_rational(Fraction(c, 38416)) * t ** 2)
    v = (b * a * q * q).map_coeffs(
        lambda c: field.from_rational(Fraction(c, 7529536)) * t ** 3)
    return {"u": RationalFunction(u), "v": RationalFunction(v)}
