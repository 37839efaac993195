"""Isotrivial j=1728 fibrations y^2 = x^3 - f(lam) x: reduction, fibers, bounds.

Everything here rides on one classification fact: after quartic twisting the
vanishing order k of f at a place can be taken in {0,1,2,3}, and k = 1,2,3
gives Kodaira type III, I0*, III* with Euler numbers 3, 6, 9 and component
counts 2, 5, 8.  The place at infinity carries k = (-deg f) mod 4.

Locations are kept as polynomials over the base field; a degree-d squarefree
location stands for d geometric places of the same type, so Euler numbers and
Shioda-Tate sums are exact without ever adjoining roots.

The standard family's derivation is certified in two places: the coordinate
chain down to v^2 = u^3 - 4 beta u, beta symbolic, by the ledger entry
weierstrass_reduction_chain; the twist to f = lam^3 A^2 by standard_family, on
every call, as one degree-6 polynomial identity: the cross-multiplied identity
between the two fractions 4 beta and s = 2/(lam A), with the common nonzero
factor (lam A)^2 cancelled and no rational-function quotient.

A fiber table is read from the squarefree decomposition of f.  For the
standard family it is known in closed form: lam^3 A^2 is that decomposition
exactly when lam does not divide A (A(0) = alpha != 0) and A is squarefree
(disc A = 4(1 - alpha) != 0), the triple-point and tacnode tests of
quartic.stability, both exact comparisons over Q, Q(i) and Q(alpha).
standard_family certifies the two and attaches [(A, 2), (lam, 3)] to its
fibration, and classify_fibers reads it.  Yun's algorithm still runs on a bare
polynomial and on every fibration with nothing attached: alpha = 0 or 1, the
degeneration members and any user-built f.
"""

from collections import Counter
from fractions import Fraction

from .multipoly import MultiPoly, QuotientContext, QuotientFraction
from .polynomials import (
    Poly,
    RationalFunction,
    _int_form,
    _make,
    _new,
    certified_factors,
    poly_nth_root,
    qdiv,
    scalar_nth_root,
    squarefree_decompose,
)
from .quartic import ALPHA
from .zx import _quadratic_roots

KODAIRA_BY_K = {
    1: ("III", 3, 2),
    2: ("I0*", 6, 5),
    3: ("III*", 9, 8),
}


class NotTwistMinimalError(ValueError):
    """classify_fibers received f with a multiplicity >= 4; run twist_minimize."""


class WeierstrassFibration:
    """The family y^2 = x^3 - f(lam) x over the base line.

    ``_factors`` is f's squarefree decomposition when standard_family
    certified it in closed form, and None otherwise.
    """

    __slots__ = ("f", "_factors")

    def __init__(self, f):
        if f.is_zero:
            raise ValueError("f must be nonzero")
        self.f = f
        self._factors = None

    def classify(self):
        return classify_fibers(self)

    def __repr__(self):
        return "WeierstrassFibration(v^2 = u^3 - (%s)*u)" % (self.f,)


class KodairaFiber:
    __slots__ = ("location", "degree", "k", "type", "euler", "components", "certified")

    def __init__(self, location, degree, k, certified=True):
        self.location = location
        self.degree = degree
        self.k = k
        self.type, self.euler, self.components = KODAIRA_BY_K[k]
        self.certified = certified

    def __repr__(self):
        return "KodairaFiber(%s at %s, deg %d)" % (self.type, self.location, self.degree)


class FiberConfiguration:
    __slots__ = ("f", "fibers", "total_euler")

    def __init__(self, f, fibers):
        self.f = f
        self.fibers = fibers
        self.total_euler = sum(fb.degree * fb.euler for fb in fibers)

    def type_multiset(self):
        """Sorted list of geometric fiber types, with degree-d locations counted d times."""
        out = []
        for fb in self.fibers:
            out.extend([fb.type] * fb.degree)
        return sorted(out)

    def __repr__(self):
        return "FiberConfiguration(%r, euler %d)" % (self.fibers, self.total_euler)


def _is_square_scalar(c):
    """True/False when decidable for a coefficient of a polynomial over a
    field other than Q, None when not certified."""
    if isinstance(c, RationalFunction):
        rn = poly_nth_root(c.num, 2)
        rd = poly_nth_root(c.den, 2)
        return rn is not None and rd is not None
    if getattr(c, "is_rational", False):
        return scalar_nth_root(c.rational(), 2) is not None
    return None


def _split_location(p):
    """Break a squarefree location into certified-irreducible pieces.

    Returns a list of (poly, certified) pairs.  A linear location is
    irreducible.  A quadratic over Q is decided from its primitive integer
    vector (c0, c1, c2) by one integer square root of c1^2 - 4 c0 c2: it is
    irreducible, or it splits into the monic x + (c1 -+ r)/(2 c2), built from
    integers.  From degree 3 on, Q takes certified_factors.  Over any other
    domain a quadratic is certified by a discriminant non-square test when
    the scalar domain supports it; one that splits, or whose discriminant
    the domain cannot decide, is reported uncertified, since no root finder
    serves that domain.
    """
    if p.degree == 1:
        return [(p.monic(), True)]
    if p.den is not None:  # rational coefficients
        if p.degree == 2:
            v = _int_form(p)[1]
            d = 2 * v[2]
            roots = _quadratic_roots(v)
            if not roots:
                return [(p.monic(), True)]
            return [(_make(p.var, {1: d, 0: -n}, d), True) for n in roots]
        factors, residual = certified_factors(p)
        out = [(f, True) for f in factors]
        if residual is not None:
            out.append((residual, False))
        return out
    if p.degree == 2:
        q = p.monic()
        b, c = q.coeff(1), q.coeff(0)
        if _is_square_scalar(b * b - 4 * c) is False:
            return [(q, True)]
    return [(p.monic(), False)]


def twist_minimize(f):
    """Strip 4th-power factors: returns (f_reduced, multiplier g), f = f_red*g^4."""
    if f.is_zero:
        raise ValueError("f must be nonzero")
    unit, factors = squarefree_decompose(f)
    g = Poly.constant(f.var, 1)
    for p, m in factors:
        if m >= 4:
            g = g * p ** (m // 4)
    if g.degree == 0:
        return f, g
    reduced = f // g ** 4
    return reduced, g


def classify_fibers(f):
    """Kodaira configuration of y^2 = x^3 - f x, f twist-minimal.

    f is a Poly or a WeierstrassFibration.  A fibration from standard_family
    carries f's squarefree decomposition, certified in closed form, and that
    is read as it stands; a bare Poly, and a fibration with nothing attached,
    take it from Yun's algorithm (squarefree_decompose).
    """
    factors = None
    if isinstance(f, WeierstrassFibration):
        f, factors = f.f, f._factors
    if f.is_zero:
        raise ValueError("f must be nonzero")
    if factors is None:
        factors = squarefree_decompose(f)[1]
    fibers = []
    for p, m in factors:
        if m >= 4:
            raise NotTwistMinimalError(
                "multiplicity %d at %s; apply twist_minimize first" % (m, p)
            )
        for piece, certified in _split_location(p):
            fibers.append(KodairaFiber(piece, piece.degree, m, certified))
    # deterministic order: finite places by (k, degree, printed location),
    # where a location is printed only when its (k, degree) ties with
    # another place's; infinity last
    ties = Counter((fb.k, fb.degree) for fb in fibers)
    fibers.sort(key=lambda fb: (fb.k, fb.degree, str(fb.location)
                                if ties[fb.k, fb.degree] > 1 else ""))
    k_inf = (-f.degree) % 4
    if k_inf:
        fibers.append(KodairaFiber("infinity", 1, k_inf))
    return FiberConfiguration(f, fibers)


def shioda_tate_bound(cfg, mw_rank=0):
    """2 + sum of (components - 1) over geometric fibers + Mordell-Weil rank."""
    if mw_rank < 0:
        raise ValueError("Mordell-Weil rank must be nonnegative")
    return 2 + sum(fb.degree * (fb.components - 1) for fb in cfg.fibers) + mw_rank


def parity_refine(bound):
    """Round an odd Picard bound up to the next even integer, capped at 20."""
    if not 0 <= bound <= 20:
        raise ValueError("bound out of the K3 range [0, 20]")
    return min(20, bound + (bound % 2))


# -- reduction chain --------------------------------------------------------


def verify_reduction_chain():
    """The coordinate chain from z1^2 = beta w^4 + 1 down to v^2 = u^3 - 4 beta u.

    All identities are checked in the quotient ring with beta symbolic:
      s = 1/w, t = z1/w^2          gives t^2 = s^4 + beta
      x = t + s^2, y = s x         gives 2 y^2 = x^3 - beta x
      u = 2x, v = 4y               gives v^2 = u^3 - 4 beta u
    and the closed forms u = 2(z1+1)/w^2, v = 4(z1+1)/w^3 agree with the
    composition.  Returns a dict of named residual-is-zero booleans.
    """
    V = ("w", "z1", "beta")
    w = MultiPoly.gen(V, "w")
    z1 = MultiPoly.gen(V, "z1")
    beta = MultiPoly.gen(V, "beta")
    ctx = QuotientContext(V, [("z1", 2, beta * w ** 4 + 1)])
    qf = lambda m: QuotientFraction(ctx, m)
    W, Z, B = qf(w), qf(z1), qf(beta)

    s = 1 / W
    t = Z / W ** 2
    x = t + s ** 2
    y = s * x
    u = 2 * x
    v = 4 * y
    u_closed = 2 * (Z + 1) / W ** 2
    v_closed = 4 * (Z + 1) / W ** 3

    return {
        "quartic_to_even": (t ** 2 - s ** 4 - B).is_zero,
        "even_to_scaled_weierstrass": (2 * y ** 2 - x ** 3 + B * x).is_zero,
        "scaled_to_weierstrass": (v ** 2 - u ** 3 + 4 * B * u).is_zero,
        "closed_form_u": (u - u_closed).is_zero,
        "closed_form_v": (v - v_closed).is_zero,
    }


def _pencil_poly(alpha):
    """lam^2 + 2*lam + alpha with alpha living in the coefficient domain."""
    return Poly("lam", {2: 1, 1: 2, 0: alpha})


def standard_beta(alpha=ALPHA):
    """beta with 4*beta = 16/(lam*(lam^2+2*lam+alpha)^2).

    The denominator is written out, not multiplied: for alpha = n/d,
    lam A^2 = (d^2 lam^5 + 4 d^2 lam^4 + (4 d^2 + 2 n d) lam^3 + 4 n d lam^2
    + n^2 lam) / d^2, with n = alpha and d = 1 outside Q, so a rational alpha
    takes integer arithmetic only.  Over Q these numerators over d^2 are
    built as they stand: they are in lowest terms, since gcd(n, d) = 1 and
    n^2 is the lam coefficient.  A constant over this monic denominator is
    already the reduced pair."""
    rational = type(alpha) in (int, Fraction)
    n, d = (alpha.numerator, alpha.denominator) if rational else (alpha, 1)
    dd, nd = d * d, n * d
    nums = {5: dd, 4: 4 * dd, 3: 4 * dd + 2 * nd, 2: 4 * nd, 1: n * n}
    den = _new("lam", {e: c for e, c in nums.items() if c}, dd) if rational else Poly("lam", nums)
    return RationalFunction(Poly.constant("lam", 4), den, _reduced=True)


def standard_family(alpha=ALPHA):
    """The polynomial family v^2 = u^3 - lam^3 (lam^2+2 lam+alpha)^2 u.

    f = lam (lam A)^2 is built directly.  The reduction chain is certified
    by the ledger entry weierstrass_reduction_chain, not here; on every call
    one polynomial identity checks that the quartic twist (u, v) ->
    (s^2 u, s^3 v) by s = 2/(lam A), which sends g = 4*standard_beta(alpha)
    to g / s^4, takes g to f.  As both denominators are nonzero, g / s^4 = f
    exactly when 4 beta.num (lam A)^4 = 2^4 f beta.den, that is when
    beta.num (lam A)^4 = 4 lam (lam A)^2 beta.den.  Both sides share the
    factor (lam A)^2, nonzero in the integral domain of polynomials over the
    coefficient field, so cancelling it gives the equivalent identity
    beta.num (lam A)^2 = 4 lam beta.den, of degree 6 where the uncancelled one
    has degree 12.  No quotient, gcd or division runs.

    The fibration carries [(A, 2), (lam, 3)], f's squarefree decomposition
    as squarefree_decompose gives it, when alpha != 0 (lam does not divide
    A) and disc A = 4(1 - alpha) != 0 (A is squarefree).  At alpha = 0 or 1
    it carries nothing: classify_fibers runs Yun's algorithm, finds a
    multiplicity of at least 4 and raises NotTwistMinimalError.
    """
    lam = Poly.x("lam")
    a = _pencil_poly(alpha)
    lam_a = lam * a
    lam_a2 = lam_a * lam_a
    beta = standard_beta(alpha)
    if beta.num * lam_a2 != 4 * (lam * beta.den):
        raise AssertionError("twist transport failed to reach the standard family")
    fib = WeierstrassFibration(lam * lam_a2)
    if alpha != 0 and alpha != 1:
        # lam over A's coefficient field, as squarefree_decompose builds it
        x = lam if a.den is not None else Poly(lam.var, {1: alpha ** 0})
        fib._factors = [(a, 2), (x, 3)]
    return fib


# -- degenerations ----------------------------------------------------------


def degeneration_model(kind):
    """The two one-parameter limits of the family, with verified rescalings.

    kind "AtInfinity": alpha = beta^-8 with (u,v,lam) -> (beta^-14 u,
    beta^-21 v, beta^-4 lam) lands on v^2 = u^3 - lam^3(lam^2+2 beta^4 lam+1)^2 u.
    kind "AtZero": lam = 1/mu with (u,v) -> (mu^-4 u, mu^-6 v), then
    alpha = beta^4 with (u,v,mu) -> (beta^-6 u, beta^-9 v, beta^-4 mu), lands
    on v^2 = u^3 - mu(beta^4+2 mu+mu^2)^2 u.  Both chains are verified as
    exact identities with beta symbolic; the beta=0 member is returned too.
    """
    V = ("u", "v", "x", "beta")
    ctx = QuotientContext(V, [])
    g = lambda name: QuotientFraction.gen(ctx, name)
    u, v, x, b = g("u"), g("v"), g("x"), g("beta")

    def E(uu, vv, ll, aa):
        A = ll ** 2 + 2 * ll + aa
        return vv ** 2 - uu ** 3 + ll ** 3 * A ** 2 * uu

    if kind == "AtInfinity":
        lhs = E(u / b ** 14, v / b ** 21, x / b ** 4, 1 / b ** 8) * b ** 42
        target_f = lambda ll: ll ** 3 * (ll ** 2 + 2 * b ** 4 * ll + 1) ** 2
        rhs = v ** 2 - u ** 3 + target_f(x) * u
        residual_zero = (lhs - rhs).is_zero
        beta_rf = RationalFunction(Poly.x("beta"))
        lam = Poly.x("lam")
        inner = Poly("lam", {2: 1, 1: 2 * beta_rf ** 4, 0: 1})
        family = lam ** 3 * inner ** 2
        at_zero = lam ** 3 * (lam ** 2 + 1) ** 2
    elif kind == "AtZero":
        # stage 1: lam = 1/mu
        lhs1 = E(u / x ** 4, v / x ** 6, 1 / x, b) * x ** 12
        mid_f = lambda mm, aa: mm * (1 + 2 * mm + aa * mm ** 2) ** 2
        rhs1 = v ** 2 - u ** 3 + mid_f(x, b) * u
        stage1 = (lhs1 - rhs1).is_zero
        # stage 2: alpha = beta^4, mu -> mu/beta^4, (u,v) -> (u/beta^6, v/beta^9)
        E1 = lambda uu, vv, mm, aa: vv ** 2 - uu ** 3 + mid_f(mm, aa) * uu
        lhs2 = E1(u / b ** 6, v / b ** 9, x / b ** 4, b ** 4) * b ** 18
        target_f = lambda mm: mm * (b ** 4 + 2 * mm + mm ** 2) ** 2
        rhs2 = v ** 2 - u ** 3 + target_f(x) * u
        stage2 = (lhs2 - rhs2).is_zero
        residual_zero = stage1 and stage2
        beta_rf = RationalFunction(Poly.x("beta"))
        mu = Poly.x("mu")
        inner = Poly("mu", {2: 1, 1: 2, 0: beta_rf ** 4})
        family = mu * inner ** 2
        at_zero = mu ** 3 * (mu + 2) ** 2
    else:
        raise ValueError("kind must be 'AtInfinity' or 'AtZero'")

    return {
        "kind": kind,
        "chain_residual_zero": residual_zero,
        "family": family,
        "beta_zero_member": WeierstrassFibration(at_zero),
    }


# -- automorphism action on the 2-form ---------------------------------------


def multiplicative_order(s, cap=64):
    acc = s
    for k in range(1, cap + 1):
        if acc == 1:
            return k
        acc = acc * s
    raise ValueError("no order found up to %d" % cap)


def form_scaling_order(c_u, c_v, c_lam, f):
    """Scale factor of dlam ^ du/v under (u,v,lam) -> (c_u u, c_v v, c_lam lam).

    First checks that the substitution preserves v^2 = u^3 - f(lam) u exactly
    (c_v^2 = c_u^3 and f(c_lam lam) = c_u^2 f(lam)), then returns
    (s, order) with s = c_lam c_u / c_v.
    """
    if isinstance(f, WeierstrassFibration):
        f = f.f
    if c_v * c_v != c_u ** 3:
        raise ValueError("v^2 and u^3 coefficients do not match: not an automorphism")
    f_scaled = Poly(f.var, {e: c * c_lam ** e for e, c in f.coeffs.items()})
    target = Poly(f.var, {e: c_u * c_u * c for e, c in f.coeffs.items()})
    if f_scaled != target:
        raise ValueError("f(c_lam * lam) != c_u^2 f(lam): not an automorphism")
    s = qdiv(c_lam * c_u, c_v)
    return s, multiplicative_order(s)
