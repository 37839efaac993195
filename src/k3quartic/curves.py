"""Curve models, rational maps between them, and exact map verification.

A curve here is one affine equation head^power = rhs over a named variable
tuple (extra names in the tuple act as free parameters), and a curve model is
its coordinate ring: a ``CurveModel`` is the one-relation ``QuotientContext``
that rewrites head^power to rhs.  Maps are dicts sending each target variable
to a rational expression in the source variables; verification substitutes
the map into the target equation and reduces in the source ring, so a pass is
an exact identity, not a numerical check.  Rings compare by identity, so each
concrete model is built once and every map on it lives in that one ring.

The concrete models: the genus-2 curve tau^2 = rho(rho^4 + 2 beta^4 rho^2 + 1),
its degree-2 quotient v^2 = u^3 + 4u^2 + 2(1+beta^4)u, the j=1728 cubic
y^2 = x^3 - x, and the exponent-4 model w1^4 = z1^2 - 1.
"""

from fractions import Fraction
from functools import lru_cache

from . import fields
from .multipoly import MultiPoly, QuotientContext, QuotientFraction
from .polynomials import Poly, qdiv


def _as_qf(ctx, value):
    if isinstance(value, QuotientFraction):
        if value.qctx is not ctx:
            raise TypeError("expression over another ring")
        return value
    return QuotientFraction(ctx, value)


class CurveModel(QuotientContext):
    """The ring of head^power = rhs over vars; rhs must not involve the head
    variable, and power is at least 2 (both checked by QuotientContext)."""

    __slots__ = ("head", "power", "rhs")

    def __init__(self, vars, head, power, rhs):
        super().__init__(vars, [(head, power, rhs)])
        self.head, self.power, self.rhs = self.relations[0]

    def equation(self):
        return MultiPoly.gen(self.vars, self.head, self.power) - self.rhs

    def q(self, name):
        return QuotientFraction.gen(self, name)

    def __repr__(self):
        return "CurveModel(%s^%d = %s)" % (self.head, self.power, self.rhs)


class CurveMap:
    """A rational map: each target variable gets an expression in source vars.

    Target variables missing from the dict default to the identity when the
    same name exists on the source (the parameter-passthrough case).
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        filled = {}
        for name in target.vars:
            if name in images:
                filled[name] = _as_qf(source, images[name])
            elif name in source.vars:
                filled[name] = source.q(name)
            else:
                raise ValueError("no image for target variable %r" % name)
        self.images = filled

    def verify(self):
        """(passes, residual): the target equation pulled back, fully reduced."""
        residual = _as_qf(self.source, self.target.equation().evaluate(self.images))
        return residual.is_zero, residual

    def __eq__(self, other):
        if not isinstance(other, CurveMap):
            return NotImplemented
        if self.source is not other.source or self.target is not other.target:
            return False
        return all(self.images[n] == other.images[n] for n in self.target.vars)

    def __repr__(self):
        body = ", ".join("%s -> %s" % (n, self.images[n]) for n in self.target.vars
                         if n not in self.source.vars or self.images[n] != self.source.q(n))
        return "CurveMap{%s}" % body


def _substitute_qf(qf, assignment, ring):
    num = qf.num.evaluate(assignment)
    den = qf.den.evaluate(assignment)
    return _as_qf(ring, num) / _as_qf(ring, den)


def compose(outer, inner):
    """outer after inner; inner.target must be outer.source."""
    if inner.target is not outer.source:
        raise TypeError("maps do not chain: %r vs %r" % (inner.target, outer.source))
    images = {
        name: _substitute_qf(img, inner.images, inner.source)
        for name, img in outer.images.items()
    }
    return CurveMap(inner.source, outer.target, images)


def identity_map(curve):
    return CurveMap(curve, curve, {n: curve.q(n) for n in curve.vars})


def verify_involution(m):
    """Check an endomorphism preserves its curve and squares to the identity."""
    preserves, residual = m.verify()
    squares = compose(m, m) == identity_map(m.source)
    return preserves and squares, {"preserves": preserves, "residual": residual,
                                   "squares_to_identity": squares}


def automorphism_order(m):
    """Order of the curve automorphism m, searched up to 12."""
    ok, residual = m.verify()
    if not ok:
        raise ValueError("map does not preserve the curve: residual %r" % residual)
    ident = identity_map(m.source)
    acc = m
    for k in range(1, 13):
        if acc == ident:
            return k
        acc = compose(m, acc)
    raise ValueError("order exceeds cap 12")


# -- the concrete models -----------------------------------------------------

G2_VARS = ("rho", "tau", "beta")
WB_VARS = ("u", "v", "beta")


@lru_cache(maxsize=None)
def genus2_curve():
    """tau^2 = rho(rho^4 + 2 beta^4 rho^2 + 1), beta a free parameter."""
    rho = MultiPoly.gen(G2_VARS, "rho")
    beta = MultiPoly.gen(G2_VARS, "beta")
    rhs = rho * (rho ** 4 + 2 * beta ** 4 * rho ** 2 + 1)
    return CurveModel(G2_VARS, "tau", 2, rhs)


def rescale_genus2_check():
    """alpha = beta^-8 with (rho, tau) -> (beta^-2 rho, beta^-5 tau) lands the
    un-normalized curve on the normalized one; checked as an exact identity."""
    ctx = QuotientContext(G2_VARS, [])
    rho = QuotientFraction.gen(ctx, "rho")
    tau = QuotientFraction.gen(ctx, "tau")
    b = QuotientFraction.gen(ctx, "beta")
    lhs = ((tau / b ** 5) ** 2
           - (rho / b ** 2) * ((rho / b ** 2) ** 4 + 2 * (rho / b ** 2) ** 2 + 1 / b ** 8))
    rhs = tau ** 2 - rho * (rho ** 4 + 2 * b ** 4 * rho ** 2 + 1)
    return (lhs * b ** 10 - rhs).is_zero


@lru_cache(maxsize=None)
def base_elliptic():
    """v^2 = u^3 + 4u^2 + 2(1+beta^4)u, the quotient target."""
    u = MultiPoly.gen(WB_VARS, "u")
    beta = MultiPoly.gen(WB_VARS, "beta")
    rhs = u ** 3 + 4 * u ** 2 + (2 + 2 * beta ** 4) * u
    return CurveModel(WB_VARS, "v", 2, rhs)


def base_elliptic_rhs(beta4):
    """The same cubic with beta^4 specialized, as a univariate polynomial."""
    return Poly("u", {3: 1, 2: 4, 1: 2 * (1 + Fraction(beta4))})


def quotient_map(perturb=False):
    """The degree-2 quotient (u, v) = (c rho/(rho-1)^2, c tau/(rho-1)^3)
    with c = 2(1+beta^4).  perturb=True is a negative control (wrong
    denominator exponent on v)."""
    B = genus2_curve()
    E = base_elliptic()
    rho, tau, beta = B.q("rho"), B.q("tau"), B.q("beta")
    c = 2 + 2 * beta ** 4
    vden = (rho - 1) ** (2 if perturb else 3)
    return CurveMap(B, E, {"u": c * rho / (rho - 1) ** 2, "v": c * tau / vden})


def rho_inversion():
    """(rho, tau) -> (1/rho, tau/rho^3); an involution of the genus-2 curve."""
    B = genus2_curve()
    rho, tau = B.q("rho"), B.q("tau")
    return CurveMap(B, B, {"rho": 1 / rho, "tau": tau / rho ** 3})


def order_four_twist():
    """(rho, tau) -> (-rho, i tau); squares to the hyperelliptic involution."""
    B = genus2_curve()
    rho, tau = B.q("rho"), B.q("tau")
    i = fields.imaginary_unit(fields.gaussian_field())
    return CurveMap(B, B, {"rho": -rho, "tau": i * tau})


def negation_map(curve):
    """(u, v) -> (u, -v) on a head-power-2 model: the elliptic [-1]."""
    return CurveMap(curve, curve, {curve.head: -curve.q(curve.head)})


def quotient_negation_check():
    """The quotient map intertwines rho-inversion with elliptic negation:
    f composed with the involution equals [-1] composed with f."""
    f = quotient_map()
    left = compose(f, rho_inversion())
    right = compose(negation_map(base_elliptic()), f)
    return left == right


@lru_cache(maxsize=None)
def minus_x_cubic():
    """y^2 = x^3 - x."""
    V = ("x", "y")
    x = MultiPoly.gen(V, "x")
    return CurveModel(V, "y", 2, x ** 3 - x)


@lru_cache(maxsize=None)
def exponent_four_model():
    """w1^4 = z1^2 - 1."""
    V = ("z1", "w1")
    z1 = MultiPoly.gen(V, "z1")
    return CurveModel(V, "w1", 4, z1 ** 2 - 1)


def cubic_to_exponent_four():
    """(z1, w1) = ((x + 1/x)/2, y/(sqrt(2) x)): an isomorphism over Q(sqrt 2)."""
    C = minus_x_cubic()
    M = exponent_four_model()
    x, y = C.q("x"), C.q("y")
    s2 = fields.sqrt_field(2).gen()
    return CurveMap(C, M, {"z1": (x + 1 / x) / 2, "w1": (s2 ** -1) * y / x})


def quarter_turn():
    """(z1, w1) -> (z1, i w1) on the exponent-4 model; order 4."""
    M = exponent_four_model()
    i = fields.imaginary_unit(fields.gaussian_field())
    return CurveMap(M, M, {"w1": i * M.q("w1")})


# -- invariants and the group law ---------------------------------------------


# the 13 rational j-invariants of elliptic curves with complex multiplication,
# one per imaginary quadratic order of class number one, by its discriminant;
# a curve over Q has CM exactly when its j is one of them
CM_J_INVARIANTS = {
    0: -3, 1728: -4, -3375: -7, 8000: -8, -32768: -11, 54000: -12, 287496: -16,
    -884736: -19, -12288000: -27, 16581375: -28, -884736000: -43,
    -147197952000: -67, -262537412640768000: -163,
}


def j_invariant(rhs):
    """j of v^2 = rhs(u), rhs a monic cubic; exact in the coefficient domain.

    Shifts out the u^2 term and evaluates 1728 * 4p^3 / (4p^3 + 27 q^2);
    raises on a singular cubic (vanishing discriminant).
    """
    if rhs.degree != 3:
        raise ValueError("rhs must be a cubic")
    if rhs.leading_coefficient() != 1:
        raise ValueError("rhs must be monic")
    a2, a4, a6 = rhs.coeff(2), rhs.coeff(1), rhs.coeff(0)
    p = a4 - qdiv(a2 * a2, 3)
    q = a6 - qdiv(a2 * a4, 3) + qdiv(2 * a2 ** 3, 27)
    denom = 4 * p ** 3 + 27 * q * q
    if denom == 0:
        raise ValueError("singular cubic: discriminant vanishes")
    return qdiv(1728 * 4 * p ** 3, denom)


class _PointAtInfinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "O"


EC_INFINITY = _PointAtInfinity()


def on_curve(p, a4, a2=0, a6=0):
    if p is EC_INFINITY:
        return True
    u, v = p
    return v * v == u ** 3 + a2 * u * u + a4 * u + a6


def ec_add(p1, p2, a4, a2=0, a6=0):
    """Chord-and-tangent addition on v^2 = u^3 + a2 u^2 + a4 u + a6.

    Coordinates are anything with exact field arithmetic.  EC_INFINITY is the
    identity.  No on-curve validation here; use on_curve when unsure.
    """
    if p1 is EC_INFINITY:
        return p2
    if p2 is EC_INFINITY:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if y1 + y2 == 0:
            return EC_INFINITY
        s = qdiv(3 * x1 * x1 + 2 * a2 * x1 + a4, 2 * y1)
    else:
        s = qdiv(y2 - y1, x2 - x1)
    x3 = s * s - a2 - x1 - x2
    y3 = s * (x1 - x3) - y1
    return (x3, y3)
