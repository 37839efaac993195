"""Period ratios, and the CM verdict that the exact j-invariant decides.

A curve over Q has CM exactly when its rational j is one of 13 values, so the
verdict is read from that table, with no numeric search.  The period ratio tau
is numeric, from the AGM on rational roots at a caller-chosen precision with
guard bits; it is displayed, and its one residual against the verdict's
witness cross-checks the exact verdict (`acceptance_bound`).  mpmath is
imported on the first numeric call, so the exact commands never load it.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .curves import CM_J_INVARIANTS
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
    __slots__ = ("reason",)

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return "NotDetected(%s)" % self.reason


def cm_verdict(j, tau, precision_bits=128):
    """Whether the curve with rational j-invariant j is isogenous to C/Z[i].

    j alone decides, from the frozen table `CM_J_INVARIANTS`: j has CM by
    the order of discriminant D, and the order lies in Q(i) exactly when
    D = -4 m^2, with conductor m.  tau, the curve's period ratio computed at
    precision_bits, is then a root of the witness (1, 0, m^2) when
    Im tau >= 1 and of (m^2, 0, 1) otherwise; the residual |a tau^2 + c| is
    returned to cross-check the exact verdict against the numeric tau.
    """
    D = CM_J_INVARIANTS.get(j)
    if D is None:
        return NotDetected("j = %s is none of the 13 rational CM j-invariants"
                           % rat_str(j))
    m = math.isqrt(-D // 4)
    if D != -4 * m * m:
        return NotDetected("CM discriminant %d is not -4 m^2" % D)
    import mpmath
    with mpmath.mp.workprec(precision_bits + GUARD_BITS):
        tau = mpmath.mpc(tau)
        if tau.imag <= 0:
            raise ValueError("tau must lie in the upper half plane")
        a, c = (1, m * m) if tau.imag >= 1 else (m * m, 1)
        return IsogenousToE(m, (a, 0, c), float(abs(a * tau ** 2 + c)))
