"""Period-lattice identification.

Exact data goes in, as a triple of rational roots; what comes out is a
period ratio with a stated error bound and, from that, an integer quadratic
relation detected at a threshold (`acceptance_bound`) far above the noise
floor, so a positive identification is never an artifact of rounding.
Everything numeric runs through mpmath at a caller-chosen precision with
guard bits.  mpmath is imported on the first numeric call, not with this
module, so the exact commands never load it.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .polynomials import rational_roots
from .serialize import rat_str

GUARD_BITS = 16


def _frac_to_mp(q):
    import mpmath
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def acceptance_bound(precision_bits):
    """2^-(precision_bits // 2): a relation whose residual at a tau computed
    at precision_bits lies below it is accepted."""
    import mpmath
    return mpmath.mpf(2) ** -(precision_bits // 2)


PeriodRatio = namedtuple("PeriodRatio", ["tau", "error_bound"])


def period_ratio_numeric(e1, e2, e3, precision_bits=128):
    """tau of the lattice of y^2 = (x-e1)(x-e2)(x-e3), distinct rational roots.

    Uses the arithmetic-geometric mean on the root gaps; with the roots sorted
    so e1 > e2 > e3, tau = i agm(a, b)/agm(a, c) for a, b, c the square roots
    of e1-e3, e1-e2, e2-e3.  The returned error bound 2^(8-precision_bits)
    dominates the AGM truncation error at the working precision.
    """
    import mpmath
    with mpmath.mp.workprec(precision_bits + GUARD_BITS):
        r1, r2, r3 = sorted((_frac_to_mp(e) for e in (e1, e2, e3)), reverse=True)
        if r1 == r2 or r2 == r3:
            raise ValueError("roots must be distinct")
        a = mpmath.sqrt(r1 - r3)
        b = mpmath.sqrt(r1 - r2)
        c = mpmath.sqrt(r2 - r3)
        tau = mpmath.mpc(0, 1) * mpmath.agm(a, b) / mpmath.agm(a, c)
    return PeriodRatio(tau, mpmath.mpf(2) ** (8 - precision_bits))


def tau_from_cubic(rhs, precision_bits=128):
    """Period ratio of v^2 = rhs(u) when the monic cubic has 3 rational roots."""
    if rhs.degree != 3 or rhs.leading_coefficient() != 1:
        raise ValueError("rhs must be a monic cubic")
    roots = []
    for r, m in rational_roots(rhs):
        roots.extend([r] * m)
    if len(roots) != 3:
        raise ValueError("the cubic does not split over Q: roots [%s]"
                         % ", ".join(rat_str(r) for r in roots))
    return period_ratio_numeric(*roots, precision_bits=precision_bits)


class IsogenousToE:
    """tau satisfies a primitive integer relation with discriminant -4 m^2."""

    __slots__ = ("conductor", "witness", "residual")

    def __init__(self, conductor, witness, residual):
        self.conductor = conductor
        self.witness = witness
        self.residual = residual

    def __eq__(self, other):
        if isinstance(other, IsogenousToE):
            return self.conductor == other.conductor
        return NotImplemented

    def __repr__(self):
        return "IsogenousToE(conductor=%d, witness=%r)" % (self.conductor, self.witness)


class NotDetected:
    __slots__ = ("reason", "witness")

    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness

    def __repr__(self):
        return "NotDetected(%s)" % self.reason


class Inconclusive:
    __slots__ = ("detail",)

    def __init__(self, detail):
        self.detail = detail

    def __repr__(self):
        return "Inconclusive(%s)" % self.detail


def cm_isogeny_check(tau, max_conductor=10, precision_bits=128):
    """Look for a primitive integer relation a tau^2 + b tau + c = 0, a >= 1.

    The acceptance threshold `acceptance_bound` sits far above the noise floor
    of a tau computed at precision_bits, and far below any spurious residual
    for small coefficients, so a hit below it is structural.  Residuals in the
    band up to 2^(-precision_bits/4) come back Inconclusive rather than as a
    detection.  Discriminant -4 m^2 identifies the conductor-m case.
    """
    if max_conductor < 1:
        raise ValueError("max_conductor must be >= 1")
    import mpmath
    with mpmath.mp.workprec(precision_bits + GUARD_BITS):
        tau = mpmath.mpc(tau)
        if tau.imag <= 0:
            raise ValueError("tau must lie in the upper half plane")
        accept = acceptance_bound(precision_bits)
        margin = mpmath.mpf(2) ** (-(precision_bits // 4))
        best = None
        for a in range(1, max_conductor + 1):
            b = int(mpmath.nint(-2 * a * tau.real))
            c = int(mpmath.nint(a * abs(tau) ** 2))
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            r = abs(a * tau ** 2 + b * tau + c)
            if best is None or r < best[0]:
                best = (r, (a, b, c))
        if best is None:
            return NotDetected("no primitive candidate up to conductor %d" % max_conductor)
        residual, (a, b, c) = best
        if residual >= accept:
            if residual < margin:
                return Inconclusive("best residual %s for %r sits in the margin band"
                                    % (mpmath.nstr(residual, 8), (a, b, c)))
            return NotDetected("no integer relation: best residual %s"
                               % mpmath.nstr(residual, 8), witness=(a, b, c))
        disc = b * b - 4 * a * c
        if disc >= 0:
            return NotDetected("relation has nonnegative discriminant %d" % disc,
                               witness=(a, b, c))
        if disc % 4 == 0:
            m2 = -disc // 4
            m = math.isqrt(m2)
            if m * m == m2:
                return IsogenousToE(m, (a, b, c), float(residual))
        return NotDetected("CM discriminant %d is not -4 m^2" % disc,
                           witness=(a, b, c))
