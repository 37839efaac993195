"""Sparse univariate polynomials and rational functions over an exact field.

Coefficients are duck-typed: anything with +, -, *, /, ** and == against the
integers 0 and 1 works (Fractions, tower field elements, or rational functions
in another variable).  The zero polynomial has degree -inf so degree
comparisons behave without special-casing.

``RationalFunction`` keeps a reduced num/den pair with a monic denominator,
which makes equality structural.  Division of polynomials that does not come
out even lands there automatically via ``__truediv__``.

As the lowest module, this one also holds what the scalar and polynomial
classes share: ``render_terms`` prints every sum of terms, ``power`` is the
one square-and-multiply loop, and ``FractionArithmetic`` carries the field
operations of ``RationalFunction`` and ``multipoly.QuotientFraction``.
"""

import math
from fractions import Fraction

NEG_INF = float("-inf")

# types that outrank Poly/RationalFunction in binary-operator dispatch;
# multivariate layers register themselves here so `rf * multipoly` defers
_HIGHER = ()


def register_higher(*types):
    global _HIGHER
    _HIGHER = _HIGHER + types


def _is_scalar(x):
    return not isinstance(x, (Poly, RationalFunction))


def render_terms(pairs):
    """A sum printed from (coefficient text, monomial text) pairs in display
    order; the monomial text of a constant term is empty.  A coefficient of 1
    or -1 folds into its monomial, one with an inner sign is parenthesized,
    "+ -" reads " - ", and the empty sum is "0"."""
    parts = []
    for cs, mono in pairs:
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-" + mono)
        else:
            if any(ch in cs[1:] for ch in "+- "):
                cs = "(%s)" % cs
            parts.append("%s*%s" % (cs, mono))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def power(base, n, one):
    """base ** n for an integer n >= 0 by square-and-multiply; `one` is the
    multiplicative identity of base's ring, returned for n = 0 and never
    multiplied."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


class Poly:
    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs=None):
        self.var = var
        cleaned = {}
        if coeffs:
            for e, c in coeffs.items():
                if c == 0:
                    continue
                # ints become Fractions so scalar division stays exact
                cleaned[e] = Fraction(c) if isinstance(c, int) else c
        self.coeffs = cleaned

    # -- constructors --------------------------------------------------------

    @classmethod
    def x(cls, var):
        return cls(var, {1: 1})

    @classmethod
    def constant(cls, var, c):
        return cls(var, {0: c})

    # -- structure -------------------------------------------------------------

    @property
    def degree(self):
        return max(self.coeffs) if self.coeffs else NEG_INF

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, e):
        return self.coeffs.get(e, 0)

    def leading_coefficient(self):
        if not self.coeffs:
            return 0
        return self.coeffs[max(self.coeffs)]

    def monic(self):
        if self.is_zero:
            return self
        lead = self.leading_coefficient()
        if lead == 1:
            return self
        return self.map_coeffs(lambda c: c / lead)

    def map_coeffs(self, fn):
        return Poly(self.var, {e: fn(c) for e, c in self.coeffs.items()})

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other):
        if isinstance(other, Poly):
            if other.var != self.var:
                raise TypeError(
                    "mixed polynomial variables %r and %r" % (self.var, other.var)
                )
            return other
        if isinstance(other, RationalFunction) or isinstance(other, _HIGHER):
            return None  # let the other side handle it
        return Poly.constant(self.var, other)

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in o.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.var, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in o.coeffs.items():
            out[e] = out.get(e, 0) - c
        return Poly(self.var, out)

    def __rsub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in o.coeffs.items():
                e = e1 + e2
                prod = c1 * c2
                if e in out:
                    out[e] = out[e] + prod
                else:
                    out[e] = prod
        return Poly(self.var, out)

    __rmul__ = __mul__

    def __neg__(self):
        return Poly(self.var, {e: -c for e, c in self.coeffs.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return power(self, n, Poly.constant(self.var, 1))

    def __divmod__(self, other):
        o = self._check(other)
        if o is None or o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = dict(self.coeffs)
        db = o.degree
        lead = o.coeffs[db]
        quo = {}
        def deg(d):
            return max(d) if d else NEG_INF
        while deg(rem) >= db:
            e = max(rem)
            c = rem.pop(e)
            if c == 0:
                continue
            f = c / lead
            k = e - db
            quo[k] = quo.get(k, 0) + f
            for eo, co in o.coeffs.items():
                if eo == db:
                    continue
                t = eo + k
                rem[t] = rem.get(t, 0) - f * co
                if rem[t] == 0:
                    del rem[t]
        return Poly(self.var, quo), Poly(self.var, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __truediv__(self, other):
        if _is_scalar(other):
            return self.map_coeffs(lambda c: c / other)
        if isinstance(other, Poly):
            q, r = divmod(self, other)
            if r.is_zero:
                return q
            return RationalFunction(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return RationalFunction(o, self)

    def __call__(self, value):
        """Horner evaluation; works for scalars, polynomials, fractions."""
        if self.is_zero:
            return 0
        exps = sorted(self.coeffs, reverse=True)
        result = self.coeffs[exps[0]]
        prev = exps[0]
        for e in exps[1:]:
            result = result * value ** (prev - e) + self.coeffs[e]
            prev = e
        if prev > 0:
            result = result * value ** prev
        return result

    def derivative(self):
        return Poly(self.var, {e - 1: e * c for e, c in self.coeffs.items() if e >= 1})

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.var == other.var and self.coeffs == other.coeffs
        if isinstance(other, RationalFunction):
            return NotImplemented
        # scalar comparison
        if other == 0:
            return self.is_zero
        return self.degree <= 0 and self.coeff(0) == other

    def __bool__(self):
        return not self.is_zero

    def __hash__(self):
        # a constant equals its scalar, so it must hash like it
        if self.degree <= 0:
            return hash(self.coeff(0))
        return hash((self.var, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        var = self.var
        return render_terms(
            (str(self.coeffs[e]), "" if e == 0 else var if e == 1 else "%s^%d" % (var, e))
            for e in sorted(self.coeffs, reverse=True))


def poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm over a coefficient field."""
    if a.var != b.var:
        raise TypeError("gcd of polynomials in different variables")
    p, q = a, b
    while not q.is_zero:
        r = p % q
        p, q = q, r.monic()
    return p.monic()


def squarefree_decompose(p):
    """Yun's algorithm over characteristic zero.

    Returns (unit, [(monic factor, multiplicity), ...]) with the factors
    squarefree, pairwise coprime, and the product of factor^mult times the
    unit giving back p.  Factors come out in increasing multiplicity order.
    """
    if p.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    unit = p.leading_coefficient()
    if p.degree == 0:
        return unit, []
    p = p.monic()
    dp = p.derivative()
    g = poly_gcd(p, dp)
    out = []
    c = p // g
    d = dp // g - c.derivative()
    i = 1
    while c.degree > 0:
        f = poly_gcd(c, d)
        if f.degree > 0:
            out.append((f, i))
        c2 = c // f
        d = d // f - c2.derivative()
        c = c2
        i += 1
    return unit, out


def _exact_int_root(m, n):
    """The integer n-th root of an integer m >= 1, or None.  floor(m^(1/n))
    comes from integer Newton steps started at 2^ceil(bits/n), which is
    above the root, so no float is involved at any size."""
    if n == 2:
        r = math.isqrt(m)
    else:
        r = 1 << -(-m.bit_length() // n)
        while True:
            s = ((n - 1) * r + m // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r ** n == m else None


def scalar_nth_root(c, n):
    """Exact n-th root of a scalar, or None.

    Fractions get integer root extraction on numerator and denominator;
    anything equal to 0 or 1 is immediate.  Other scalar types are only
    handled through an exact rational value.
    """
    if c == 0:
        return type(c)(0) if isinstance(c, Fraction) else 0
    if c == 1:
        return 1
    q = None
    if isinstance(c, (int, Fraction)):
        q = Fraction(c)
    else:
        rat = getattr(c, "rational", None)
        if rat is not None:
            try:
                q = rat()
            except (ValueError, AttributeError):
                return None
    if q is None:
        return None
    sign = 1
    if q < 0:
        if n % 2 == 0:
            return None
        sign = -1
        q = -q
    rn = _exact_int_root(q.numerator, n)
    rd = _exact_int_root(q.denominator, n)
    if rn is None or rd is None:
        return None
    return Fraction(sign * rn, rd)


def poly_nth_root(p, n):
    """Exact n-th root of a polynomial, or None if there is none."""
    if n <= 0:
        raise ValueError("root index must be positive")
    if n == 1:
        return p
    if p.is_zero:
        return p
    unit, factors = squarefree_decompose(p)
    u = scalar_nth_root(unit, n)
    if u is None:
        return None
    root = Poly.constant(p.var, 1) * u
    for f, m in factors:
        if m % n:
            return None
        root = root * f ** (m // n)
    return root


def factor_int(n):
    """Prime factorization {p: e} of a positive integer by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


def _int_horner(c, x):
    """c(x) for integer coefficients c, lowest degree first."""
    acc = 0
    for a in reversed(c):
        acc = acc * x + a
    return acc


def _taylor_shift(c, s):
    """The coefficients of c(x + s), lowest degree first."""
    c = list(c)
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += s * c[j + 1]
    return c


def _descartes_count(c, a, b):
    """Descartes' bound on the roots of c in the open interval (a, b): the
    sign variations of (x + 1)^n c((a + b x) / (x + 1)).  It is exact when
    it reads 0 or 1."""
    w = b - a
    shifted = [ci * w ** i for i, ci in enumerate(_taylor_shift(c, a))]
    signs = [v > 0 for v in _taylor_shift(shifted[::-1], 1) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _integer_root_in(c, a, b):
    """The integer root of c strictly between a and b, or None, when c has
    exactly one (simple) real root there: bisection on the sign of c."""
    lo, hi = a + 1, b - 1
    if lo > hi:
        return None
    s_lo, s_hi = _int_horner(c, lo), _int_horner(c, hi)
    if s_lo == 0:
        return lo
    if s_hi == 0:
        return hi
    if (s_lo > 0) == (s_hi > 0):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = _int_horner(c, mid)
        if v == 0:
            return mid
        if (v > 0) == (s_lo > 0):
            lo = mid
        else:
            hi = mid
    return None


def _monic_integer_roots(c):
    """The integer roots of a monic integer polynomial with c[0] != 0.

    Every real root lies strictly inside (-B, B) for the power of two B from
    Fujiwara's bound, so Descartes' rule on integer subintervals, bisected
    at integer midpoints, misses none; an interval of width 1 holds no
    integer in its interior and is dropped."""
    n = len(c) - 1
    e = max(-(-abs(ci).bit_length() // (n - i)) for i, ci in enumerate(c[:-1]))
    bound = 1 << (e + 1)
    roots = []
    stack = [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        v = _descartes_count(c, a, b)
        if v == 1:
            r = _integer_root_in(c, a, b)
            if r is not None:
                roots.append(r)
        elif v > 1:
            mid = (a + b) // 2
            if _int_horner(c, mid) == 0:
                roots.append(mid)
            stack.append((a, mid))
            stack.append((mid, b))
    return roots


def _root_candidates(ints):
    """Rational numbers that include every rational root of the integer
    polynomial {exponent: coefficient} whose constant term is nonzero."""
    n = max(ints)
    if n == 1:
        return [Fraction(-ints[0], ints[1])]
    if n == 2:
        a, b, c = ints[2], ints.get(1, 0), ints[0]
        disc = b * b - 4 * a * c
        s = math.isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return []
        return [Fraction(-b + s, 2 * a), Fraction(-b - s, 2 * a)]
    # the squarefree part h has the same roots; a rational root x of h
    # gives the integer root y = h_n x of h_n^(n-1) h(y / h_n)
    f = Poly("x", ints)
    h = f // poly_gcd(f, f.derivative())
    den = 1
    for ci in h.coeffs.values():
        den = den * ci.denominator // math.gcd(den, ci.denominator)
    h = [int(h.coeff(i) * den) for i in range(h.degree + 1)]
    content = math.gcd(*h)
    h = [ci // content for ci in h]
    lead = h[-1]
    monic = [ci * lead ** (len(h) - 2 - i) for i, ci in enumerate(h[:-1])] + [1]
    return [Fraction(y, lead) for y in _monic_integer_roots(monic)]


def rational_roots(p):
    """All rational roots with multiplicities: [(Fraction root, mult)].

    Requires Fraction (or int) coefficients.  No integer is factored, so the
    cost is polynomial in the bit size of the coefficients.  After clearing
    denominators and splitting off the root 0, a linear or quadratic
    polynomial gives its candidates in closed form (``math.isqrt`` of the
    discriminant); a higher degree isolates the integer roots of the monic
    transform of its squarefree part by Descartes' rule of signs.  Each
    candidate is confirmed by exact evaluation and its multiplicity counted
    by exact division.  Roots come out as 0 first, then by (|numerator|,
    denominator), positive before negative.
    """
    if p.is_zero:
        raise ValueError("every rational is a root of the zero polynomial")
    coeffs = {e: Fraction(c) for e, c in p.coeffs.items()}
    # clear denominators
    mult = 1
    for c in coeffs.values():
        den = c.denominator
        mult = mult * den // math.gcd(mult, den)
    ints = {e: int(c * mult) for e, c in coeffs.items()}
    lo = min(ints)
    # factor out x^lo: root 0 with multiplicity lo
    out = []
    if lo > 0:
        out.append((Fraction(0), lo))
        ints = {e - lo: c for e, c in ints.items()}
    if max(ints) == 0:
        return out
    cands = sorted(set(_root_candidates(ints)),
                   key=lambda q: (abs(q.numerator), q.denominator, q < 0))
    work = Poly(p.var, {e: Fraction(c) for e, c in ints.items()})
    for r in cands:
        if work.degree <= 0:
            break
        m = 0
        while work.degree > 0 and work(r) == 0:
            work = work // Poly(p.var, {1: Fraction(1), 0: -r})
            m += 1
        if m:
            out.append((r, m))
    return out


def certified_factors(p):
    """Factor a squarefree rational polynomial as far as cheap certificates go.

    Returns (factors, residual) where factors is a list of monic polynomials
    that are certified irreducible over Q (linear always; quadratic/cubic via
    the no-rational-root test) and residual is None or a monic polynomial of
    degree >= 4 that carries no rational root but is not certified.
    """
    if p.degree <= 0:
        return [], None
    work = p.monic()
    factors = []
    for r, m in rational_roots(work):
        lin = Poly(p.var, {1: Fraction(1), 0: -r})
        for _ in range(m):
            factors.append(lin)
            work = work // lin
    if work.degree <= 0:
        return factors, None
    if work.degree <= 3:
        # no rational root and degree 2 or 3: irreducible over Q
        factors.append(work)
        return factors, None
    return factors, work


class FractionArithmetic:
    """Field operations on a ``num``/``den`` pair, shared by the fraction classes.

    A subclass supplies ``_lift(other)``, the other operand as an instance of
    its own, or None to defer to the other operand, and ``_new(num, den)``, an
    instance built from a numerator and a nonzero denominator.  A subclass
    that keeps its fractions reduced overrides ``_product`` and
    ``_new_coprime`` to skip the cancellation its invariant makes redundant.
    """

    __slots__ = ()

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return not self.is_zero

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._new(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._new(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._product(o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by a zero fraction")
        return self._product(o.den, o.num)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return self._new_coprime(-self.num, self.den)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        num, den = self.num, self.den
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            num, den, n = den, num, -n
        return self._new_coprime(num ** n, den ** n)

    def _product(self, num, den):
        """self * (num/den), where num/den is the pair of an operand of this
        class, swapped for a quotient.  Every product goes through here."""
        return self._new(self.num * num, self.den * den)

    def _new_coprime(self, num, den):
        """An instance from a pair with no common factor, as powers and
        negations of one fraction give."""
        return self._new(num, den)


def _cancel_common(p, q):
    """(p/g, q/g) for g = gcd(p, q); a constant or zero on either side is
    left as it is, at the cost of no division."""
    if p.degree > 0 and q.degree > 0:
        g = poly_gcd(p, q)
        if g.degree > 0:
            return p // g, q // g
    return p, q


class RationalFunction(FractionArithmetic):
    """Quotient of two polynomials in one variable, kept reduced.

    The denominator is monic and coprime to the numerator, so equality is
    literal structural equality of the pairs.

    Arithmetic keeps that invariant without a gcd of the full products.  For
    reduced a/b and c/d the only common factors of ac and bd are
    g1 = gcd(a, d) and g2 = gcd(c, b), so
    (a/b)(c/d) = ((a/g1)(c/g2)) / ((b/g2)(d/g1)) is reduced (Henrici; Knuth,
    TAOCP vol. 2, 4.5.1); a quotient is the product with d/c.  A power or
    negation of a reduced pair is reduced, and a lifted polynomial or scalar
    has denominator 1.  Only the denominator's leading coefficient is then
    scaled out.  Sums still cancel their full gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if isinstance(num, RationalFunction):
            if den is not None:
                raise TypeError("pass polynomials, not fractions")
            num, den = num.num, num.den
        if not isinstance(num, Poly):
            raise TypeError("numerator must be a Poly")
        if den is None:
            den = Poly.constant(num.var, 1)
        elif not isinstance(den, Poly):
            den = Poly.constant(num.var, den)
        if num.var != den.var:
            raise TypeError("numerator and denominator variables differ")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        # _reduced: the caller knows num and den are coprime
        if num.is_zero:
            den = Poly.constant(num.var, 1)
        elif not _reduced:
            num, den = _cancel_common(num, den)
        lead = den.leading_coefficient()
        if lead != 1:
            num = num.map_coeffs(lambda c: c / lead)
            den = den.map_coeffs(lambda c: c / lead)
        self.num = num
        self.den = den

    @property
    def var(self):
        return self.num.var

    @property
    def is_polynomial(self):
        return self.den.degree == 0

    def as_poly(self):
        if not self.is_polynomial:
            raise ValueError("%r is not polynomial" % self)
        return self.num

    def _lift(self, other):
        if isinstance(other, RationalFunction):
            if other.var != self.var:
                raise TypeError("mixed variables %r and %r" % (self.var, other.var))
            return other
        if isinstance(other, Poly):
            if other.var != self.var:
                raise TypeError("mixed variables %r and %r" % (self.var, other.var))
            return RationalFunction(other, _reduced=True)
        if isinstance(other, _HIGHER):
            return None
        return RationalFunction(Poly.constant(self.var, other), _reduced=True)

    def _new(self, num, den):
        return RationalFunction(num, den)

    def _new_coprime(self, num, den):
        return RationalFunction(num, den, _reduced=True)

    def _product(self, c, d):
        a, d = _cancel_common(self.num, d)
        c, b = _cancel_common(c, self.den)
        return RationalFunction(a * c, b * d, _reduced=True)

    def __eq__(self, other):
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a polynomial equals its numerator, so it must hash like it
        if self.is_polynomial:
            return hash(self.num)
        return hash((self.num, self.den))

    def substitute(self, value):
        """Evaluate at a scalar, polynomial, or rational function."""
        return self.num(value) / self.den(value)

    def derivative(self):
        n = self.num.derivative() * self.den - self.num * self.den.derivative()
        return RationalFunction(n, self.den * self.den)

    def map_coeffs(self, fn):
        """The fraction with `fn` applied to every coefficient of num and den.

        `fn` must be an injective ring homomorphism, such as
        `field.from_rational`, so the result needs no gcd: a gcd over Q
        stays the gcd over any extension field, and a monic denominator
        stays monic.  A scalar multiple is `rf * c`, not a map, since `fn`
        also reaches the denominator.
        """
        return RationalFunction(self.num.map_coeffs(fn), self.den.map_coeffs(fn),
                                _reduced=True)

    def __repr__(self):
        if self.is_polynomial:
            return repr(self.num)
        return "(%s)/(%s)" % (self.num, self.den)
