"""The plane quartic family: a conic and two lines, one moving with alpha.

The curve is the product of three components in P^2,

    conic:  y^2 - x*z
    line1:  y
    line2:  alpha*x + 2*y + z

For generic alpha the components meet pairwise transversally in five nodes.
Three parameter values degenerate the configuration (a coincidence or a
tangency); they are detected from the equations, not hardcoded.

A singular point is certified a node on every call: the 2x2 minors of the
two meeting components' gradients are built once at import, from the same
equations, as polynomials in (x, y, z, alpha), and a member evaluates them at
(point, alpha), cheapest first, until one is nonzero: the constant minor 1
decides line1 cap line2, and 2x + 2y decides a conic cap line2 point unless
it is the tacnode.  alpha may be a Fraction, a FieldElement, or the symbol
ALPHA (a rational function over Q), so the same code paths serve both
symbolic identities and concrete members.
"""

from fractions import Fraction

from .multipoly import MultiPoly
from .polynomials import Poly, RationalFunction, scalar_nth_root

PLANE_VARS = ("x", "y", "z")
PENCIL_VARS = PLANE_VARS + ("alpha",)

# the symbolic parameter: a rational function, usable as a scalar coefficient
ALPHA = RationalFunction(Poly.x("alpha"))


class AlphaInfinity:
    """Distinguished symbol for alpha = infinity (line2 becomes x = 0)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ALPHA_INFINITY"


ALPHA_INFINITY = AlphaInfinity()


def conic_at(x, y, z):
    return y * y - x * z


def line1_at(x, y, z):
    return y


def line2_at(x, y, z, alpha):
    return alpha * x + 2 * y + z


def quartic_at(x, y, z, alpha):
    return conic_at(x, y, z) * line1_at(x, y, z) * line2_at(x, y, z, alpha)


def _pencil_minors():
    """For each pair of components, the nonzero 2x2 minors of their 2x3
    gradient matrix, as polynomials in (x, y, z, alpha), cheapest first: by
    total degree, then number of terms."""
    x, y, z, alpha = (MultiPoly.gen(PENCIL_VARS, v) for v in PENCIL_VARS)
    conic, line1, line2 = (
        tuple(c.derivative(v) for v in PLANE_VARS)
        for c in (conic_at(x, y, z), line1_at(x, y, z), line2_at(x, y, z, alpha)))
    pairs = {("conic", "line1"): (conic, line1),
             ("line1", "line2"): (line1, line2),
             ("conic", "line2"): (conic, line2)}
    out = {}
    for names, (g1, g2) in pairs.items():
        minors = (g1[i] * g2[j] - g1[j] * g2[i] for i, j in ((0, 1), (0, 2), (1, 2)))
        out[names] = tuple(sorted((m for m in minors if not m.is_zero),
                                  key=lambda m: (m.total_degree(), len(m.terms))))
    return out


# built once; a member only evaluates them at (point, alpha)
_PAIR_MINORS = _pencil_minors()


class QuarticFamily:
    """One member (or the symbolic member) of the quartic family."""

    __slots__ = ("alpha",)

    def __init__(self, alpha):
        self.alpha = alpha

    def __repr__(self):
        return "QuarticFamily(alpha=%r)" % (self.alpha,)


def build_quartic(alpha):
    return QuarticFamily(alpha)


def _is_node(components, point, alpha):
    """True when the two named components have non-proportional gradients at
    the point of the member alpha: some 2x2 minor of their gradients is
    nonzero there, and the minors are evaluated until one is.

    The point then is an ordinary node of the product curve: two smooth
    branches crossing transversally.
    """
    at = dict(zip(PENCIL_VARS, point + (alpha,)))
    return any(m.evaluate(at) != 0 for m in _PAIR_MINORS[components])


def singular_points(fam, sqrt_one_minus_alpha=None):
    """Pairwise intersection points of the three components.

    Returns a list of records.  The conic-line2 pair lives over the splitting
    field of t^2 + 2t + alpha (conic parametrized as (1 : t : t^2)); those two
    points are returned explicitly when the caller supplies a square root of
    1 - alpha, and as a quadratic-with-discriminant record otherwise.
    """
    alpha = fam.alpha
    if alpha is ALPHA_INFINITY:
        raise ValueError("singular points at alpha = infinity are degenerate; "
                         "classify stability instead")
    out = []

    for pt in [(1, 0, 0), (0, 0, 1)]:
        out.append({
            "point": pt,
            "components": ("conic", "line1"),
            "node": _is_node(("conic", "line1"), pt, alpha),
        })

    pt = (1, 0, -alpha)
    out.append({
        "point": pt,
        "components": ("line1", "line2"),
        "node": _is_node(("line1", "line2"), pt, alpha),
    })

    # conic cap line2: plug (1 : t : t^2) into line2 -> t^2 + 2t + alpha
    roots = []
    if sqrt_one_minus_alpha is not None:
        s = sqrt_one_minus_alpha
        if s * s != 1 - alpha:
            raise ValueError("supplied square root does not square to 1 - alpha")
        roots = [-1 + s, -1 - s]
    elif isinstance(alpha, (int, Fraction)):
        r = scalar_nth_root(1 - Fraction(alpha), 2)
        if r is not None:
            roots = [-1 + r, -1 - r]
    if roots:
        for t in roots:
            pt = (1, t, t * t)
            out.append({
                "point": pt,
                "components": ("conic", "line2"),
                "node": _is_node(("conic", "line2"), pt, alpha),
            })
    else:
        out.append({
            "quadratic": Poly("t", {2: 1, 1: 2, 0: alpha}),
            "discriminant": 4 * (1 - alpha),
            "components": ("conic", "line2"),
            "degree": 2,
        })
    return out


class Stable:
    def __repr__(self):
        return "Stable"

    def __eq__(self, other):
        return isinstance(other, Stable)

    def __hash__(self):
        return hash("Stable")


class Unstable:
    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return "Unstable(%s)" % self.reason

    def __eq__(self, other):
        return isinstance(other, Unstable) and self.reason == other.reason

    def __hash__(self):
        return hash(("Unstable", self.reason))


def stability(alpha):
    """Classify a member: stable unless a degeneration is detected.

    The three degenerations are found from the equations:
      - line2 tangent to the conic (discriminant of t^2+2t+alpha vanishes),
      - line1 cap line2 landing on the conic (triple point),
      - alpha = infinity: line2 = x is tangent to the conic at (0:0:1).
    """
    if alpha is ALPHA_INFINITY:
        return Unstable("tangent at (0:0:1)")
    disc = 4 * (1 - alpha)
    if disc == 0:
        return Unstable("tacnode at (1:-1:1)")
    # line1 cap line2 = (1:0:-alpha); on the conic iff 0 - 1*(-alpha) = alpha = 0
    if alpha == 0:
        return Unstable("triple point at (1:0:0)")
    return Stable()


def pencil_substitution_check(perturb=False):
    """The chart identity behind the fibration.

    In the chart x = 1 with y = lam, substituting
        z = (A/2) z1 + (lam^2 - 2 lam - alpha)/2,   A = lam^2 + 2 lam + alpha
    turns lam*(z - lam^2)*(z + 2 lam + alpha) into (1/4) lam A^2 (z1^2 - 1).
    Returns (passed, residual).  perturb=True runs the negative control with
    the z1 coefficient changed to A/3.
    """
    vars3 = ("lam", "z1", "alpha")
    lam = MultiPoly.gen(vars3, "lam")
    z1 = MultiPoly.gen(vars3, "z1")
    alpha = MultiPoly.gen(vars3, "alpha")
    A = lam * lam + 2 * lam + alpha
    half = Fraction(1, 3) if perturb else Fraction(1, 2)
    z = half * A * z1 + Fraction(1, 2) * (lam * lam - 2 * lam - alpha)
    lhs = lam * (z - lam * lam) * (z + 2 * lam + alpha)
    rhs = Fraction(1, 4) * lam * A * A * (z1 * z1 - 1)
    residual = lhs - rhs
    return residual.is_zero, residual


def chart_sign_check():
    """In the chart x = 1, y = lam, the quartic equals minus the pencil form.

    Verifies F(1, lam, z) = -lam (z - lam^2)(z + 2 lam + alpha) identically,
    the sign that downstream cover conventions must track.
    """
    vars3 = ("lam", "z", "alpha")
    lam = MultiPoly.gen(vars3, "lam")
    z = MultiPoly.gen(vars3, "z")
    alpha = MultiPoly.gen(vars3, "alpha")
    F = quartic_at(1, lam, z, alpha)
    target = -lam * (z - lam * lam) * (z + 2 * lam + alpha)
    return (F - target).is_zero
