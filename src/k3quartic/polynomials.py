"""Sparse univariate polynomials and rational functions over an exact field.

Coefficients are duck-typed: anything with +, -, *, /, ** and == against the
integers 0 and 1 works (rationals, tower field elements, or rational functions
in another variable).  A ``Poly`` whose coefficients are ints and Fractions
is held as int numerators over one positive common denominator in lowest
terms, as ``fields.FieldElement`` is (Cohen, A Course in Computational
Algebraic Number Theory, 4.2): its sums, products, derivatives and
rescalings run on ints, followed by one gcd of the denominator with the
numerators, which by Gauss's lemma is all that can cancel.  Any other
coefficients keep a plain map and the generic loops, except that a factor
of one term is an exponent shift and a scaling in every domain.
``coeffs`` reads either form as {exponent: coefficient}, a rational
coefficient an ``int`` when it is integral and a ``Fraction`` otherwise.
Long division has one loop for every domain, on ``coeffs``; every division
of coefficients goes through ``qdiv``, which divides two ints exactly, so
no float can arise.  The zero polynomial has degree -inf so degree
comparisons behave without special-casing.

``RationalFunction`` keeps a reduced num/den pair with a monic denominator,
which makes equality structural.  Division of polynomials that does not come
out even lands there automatically via ``__truediv__``.

Over Q the gcd runs in Z[x]: ``_gcd_cofactors``, behind ``poly_gcd``, the
cancellation of ``RationalFunction`` and Yun's loop over other fields, is
the one place that picks the domain.  Over Q it clears denominators and
contents (``_int_form``, undone by ``_from_ints``) and runs the modular gcd
of ``zx``, the integer kernel, which also holds Yun's squarefree
decomposition over Q and the root candidates of ``rational_roots``.  Other
coefficient fields take the Euclidean algorithm.  Over every field,
``squarefree_decompose`` splits p = x^k q with q(0) != 0 first: x is coprime
to q, so Yun's gcds run on q alone and x^k is merged into the result.
``rational_roots`` confirms each candidate by exact division in Z[x].

As the lowest module, this one also holds what the scalar and polynomial
classes share: ``qdiv`` is the one exact scalar division, ``render_terms``
prints every sum of terms, ``power`` is the one square-and-multiply loop, and
``FractionArithmetic`` carries the field operations of ``RationalFunction``
and ``multipoly.QuotientFraction``.
"""

import math
from fractions import Fraction

from .zx import _root_candidates, _split_content, _zz_divexact, _zz_gcd, _zz_yun

NEG_INF = float("-inf")

# types that outrank Poly/RationalFunction in binary-operator dispatch;
# multivariate layers register themselves here so `rf * multipoly` defers
_HIGHER = ()


def register_higher(*types):
    global _HIGHER
    _HIGHER = _HIGHER + types


def qdiv(a, b):
    """a / b, exact: for two ints the quotient is an int when b divides a and
    a Fraction otherwise, never a float; any other pair divides by its own
    ``/``."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


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
    """A sparse polynomial in one variable.

    Over Q, ``nums`` maps each exponent to an int numerator and ``den`` is
    the positive common denominator, in lowest terms; the zero polynomial is
    {} over 1.  Over any other coefficient domain ``den`` is None and
    ``nums`` holds the coefficients themselves.  ``coeffs`` is the
    {exponent: coefficient} view of either.  A bare coefficient, a factor of
    one term and a quotient by a coefficient (the product with its inverse)
    all scale through ``_times_term``.  A rational function in another
    variable is a coefficient too, as a field element is.  A difference is
    a sum: self - other is ``__add__(other, -1)`` and other - self is
    (-self) + other.
    """

    __slots__ = ("var", "nums", "den")

    def __init__(self, var, coeffs=None):
        nums, den, frac = {}, 1, False
        if coeffs:
            for e, c in coeffs.items():
                # by truth value: `c == 0` lifts 0 into a field element's
                # context, and bool agrees with it on every coefficient type
                if not c:
                    continue
                nums[e] = c
                # type tests: isinstance(c, Fraction) on an int takes the ABC path
                if type(c) is not int and den is not None:
                    if type(c) is Fraction:
                        den, frac = math.lcm(den, c.denominator), True
                    else:
                        den = None
            if frac and den is not None:
                nums = {e: c.numerator * (den // c.denominator) for e, c in nums.items()}
        self.var, self.nums, self.den = var, nums, den

    # -- constructors --------------------------------------------------------

    @classmethod
    def x(cls, var):
        return cls(var, {1: 1})

    @classmethod
    def constant(cls, var, c):
        return cls(var, {0: c})

    # -- structure -------------------------------------------------------------

    @property
    def coeffs(self):
        den = self.den
        if den is None or den == 1:
            return self.nums
        return {e: qdiv(n, den) for e, n in self.nums.items()}

    @property
    def degree(self):
        return max(self.nums) if self.nums else NEG_INF

    @property
    def is_zero(self):
        return not self.nums

    def coeff(self, e):
        c = self.nums.get(e, 0)
        return c if self.den is None or self.den == 1 else qdiv(c, self.den)

    def leading_coefficient(self):
        return self.coeff(max(self.nums)) if self.nums else 0

    def monic(self):
        lead = self.leading_coefficient()
        return self if lead == 1 or lead == 0 else self._over(lead)

    def map_coeffs(self, fn):
        return Poly(self.var, {e: fn(c) for e, c in self.coeffs.items()})

    def _over(self, c):
        """self / c for a nonzero coefficient c, by one inversion of c."""
        if not c:
            raise ZeroDivisionError("polynomial division by zero")
        return self._times_term(0, qdiv(1, c))

    # -- arithmetic --------------------------------------------------------------

    def _defers(self, other):
        # whether the other operand takes the operation: a registered higher
        # type or a rational function in this variable; a rational function
        # in another variable is a coefficient, as a field element is
        return isinstance(other, _HIGHER) or (
            isinstance(other, RationalFunction) and other.var == self.var)

    def _check(self, other):
        if isinstance(other, Poly):
            if other.var != self.var:
                raise TypeError(
                    "mixed polynomial variables %r and %r" % (self.var, other.var)
                )
            return other
        if self._defers(other):
            return None  # let the other side handle it
        return Poly.constant(self.var, other)

    def __add__(self, other, sign=1):
        o = self._check(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da is None or db is None:
            a, b = self.coeffs, o.coeffs
        else:  # a / da + b / db over the lcm of the denominators
            g = math.gcd(da, db)
            ma, mb = db // g, da // g
            a = self.nums if ma == 1 else {e: n * ma for e, n in self.nums.items()}
            b = o.nums if mb == 1 else {e: n * mb for e, n in o.nums.items()}
        out = dict(a)
        if sign > 0:
            for e, c in b.items():
                out[e] = out.get(e, 0) + c
        else:
            for e, c in b.items():
                out[e] = out.get(e, 0) - c
        if da is None or db is None:
            return Poly(self.var, out)
        return _make(self.var, out, da * ma)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        # the type test goes first: most products are of two polynomials
        if type(other) is not Poly:
            if self._defers(other):
                return NotImplemented  # let the other side handle it
            return self._times_term(0, other)
        o = self._check(other)
        if len(o.nums) == 1:
            k, = o.nums
            return self._times_term(k, o.coeff(k))
        if len(self.nums) == 1:
            k, = self.nums
            return o._times_term(k, self.coeff(k), True)
        q = self.den is not None and o.den is not None
        a, b = (self.nums, o.nums) if q else (self.coeffs, o.coeffs)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                prod = c1 * c2
                if e in out:
                    out[e] = out[e] + prod
                else:
                    out[e] = prod
        # by Gauss's lemma only the one common denominator can cancel
        return _make(self.var, out, self.den * o.den) if q else Poly(self.var, out)

    __rmul__ = __mul__

    def _times_term(self, k, c, left=False):
        """self * c x^k (c x^k * self when `left`) for a coefficient c: an
        exponent shift and one scaling per coefficient, over Q by a rational
        c of the numerators and the denominator, and by any other c of the
        numerators by c / den."""
        den = self.den
        if den is not None and type(c) in (int, Fraction):
            if c == 1:  # self's lowest terms carry over
                return _new(self.var, {e + k: n for e, n in self.nums.items()}, den)
            n = c.numerator
            return _make(self.var, {e + k: x * n for e, x in self.nums.items()},
                         den * c.denominator)
        if den not in (None, 1):
            c = c * Fraction(1, den)
        return Poly(self.var, {e + k: c * x if left else x * c for e, x in self.nums.items()})

    def __neg__(self):
        return _make(self.var, {e: -c for e, c in self.nums.items()}, self.den)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return power(self, n, Poly.constant(self.var, 1))

    def __divmod__(self, other):
        o = self._check(other)
        if o is None or o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.coeffs, o.coeffs
        m = max(b)
        lead = b[m]
        low = [(j, c) for j, c in b.items() if j != m]
        r = [0] * (max(a, default=-1) + 1)
        for e, c in a.items():
            r[e] = c
        q = {}
        for k in range(len(r) - 1 - m, -1, -1):
            c = r[k + m]
            if c == 0:
                continue
            f = q[k] = qdiv(c, lead)
            for j, bj in low:
                r[k + j] -= f * bj
        return Poly(self.var, q), Poly(self.var, dict(enumerate(r[:m])))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __truediv__(self, other):
        if isinstance(other, Poly):
            q, r = divmod(self, other)
            if r.is_zero:
                return q
            return RationalFunction(self, other)
        if self._defers(other):
            return NotImplemented
        return self._over(other)

    def __rtruediv__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return RationalFunction(o, self)

    def __call__(self, value):
        """Horner evaluation; works for scalars, polynomials, fractions.  Over
        Q it runs on the numerators and divides by den once."""
        if self.is_zero:
            return 0
        c = self.nums
        exps = sorted(c, reverse=True)
        result = c[exps[0]]
        prev = exps[0]
        for e in exps[1:]:
            result = result * value ** (prev - e) + c[e]
            prev = e
        if prev > 0:
            result = result * value ** prev
        return result if self.den is None or self.den == 1 else qdiv(result, self.den)

    def derivative(self):
        return _make(self.var, {e - 1: e * c for e, c in self.nums.items() if e}, self.den)

    def __eq__(self, other):
        if isinstance(other, Poly):
            if (self.den is None) != (other.den is None):  # Q against another domain
                return self.var == other.var and self.coeffs == other.coeffs
            return self.var == other.var and self.den == other.den and self.nums == other.nums
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
        coeffs = self.coeffs
        return render_terms(
            (str(coeffs[e]), "" if e == 0 else var if e == 1 else "%s^%d" % (var, e))
            for e in sorted(coeffs, reverse=True))


def _make(var, nums, den=1):
    """The Poly of nums over den.  Over Q (den an int) zero numerators are
    dropped and the common factor of den and the numerators cancelled; den
    None takes the constructor."""
    if den is None:
        return Poly(var, nums)
    if 0 in nums.values():
        nums = {e: n for e, n in nums.items() if n}
    if den != 1:
        g = math.gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {e: n // g for e, n in nums.items()}
            den //= g
    return _new(var, nums, den)


def _new(var, nums, den):
    """The Poly of nums over den as given: no zero numerators and, over Q
    (den an int), lowest terms."""
    p = object.__new__(Poly)
    p.var, p.nums, p.den = var, nums, den
    return p


# -- the bridge from Q[x] to the integer kernel of ``zx``: p = k * v(x) ------------


def _int_form(p):
    """(k, v) with p = k * v(x) for a Poly over Q, v = [] for zero; None
    over any other coefficient domain."""
    if p.den is None:
        return None
    if not p.nums:
        return 1, []
    v = [0] * (max(p.nums) + 1)
    for e, c in p.nums.items():
        v[e] = c
    content, v = _split_content(v)
    return qdiv(content, p.den), v


def _from_ints(var, v, k=1):
    """The Poly k * v(x) of an integer vector v and a rational k."""
    n = k.numerator
    return _make(var, {e: n * c for e, c in enumerate(v) if c}, k.denominator)


def _euclid_gcd(a, b):
    """Monic gcd by the Euclidean algorithm over a field other than Q."""
    p, q = a, b
    while not q.is_zero:
        r = p % q
        p, q = q, r.monic()
    return p.monic()


def _gcd_cofactors(a, b):
    """(g, a / g, b / g) for g the monic gcd of a and b, or (0, a, b) when
    both are zero; a gcd of degree 0 returns a and b themselves.

    With int or Fraction coefficients, the gcd and its cofactors come from
    the modular gcd ``_zz_gcd`` on the primitive integer vectors.  Any other
    coefficient field takes the Euclidean algorithm and exact division."""
    if not (a or b):
        return a, a, b
    fa = _int_form(a)
    fb = fa and _int_form(b)
    if fb:
        h, ca, cb = _zz_gcd(fa[1], fb[1])
        g = _from_ints(a.var, h, qdiv(1, h[-1]))
        if len(h) == 1:
            return g, a, b
        # a = ka h ca and g = h / lead(h), so a / g = ka lead(h) ca
        return (g, _from_ints(a.var, ca, fa[0] * h[-1]),
                _from_ints(a.var, cb, fb[0] * h[-1]))
    g = _euclid_gcd(a, b)
    if g.degree <= 0:
        return g, a, b
    return g, a // g, b // g


def poly_gcd(a, b):
    """The monic gcd of two polynomials in one variable."""
    if a.var != b.var:
        raise TypeError("gcd of polynomials in different variables")
    return _gcd_cofactors(a, b)[0]


def squarefree_decompose(p):
    """Yun's algorithm over characteristic zero.

    Returns (unit, [(monic factor, multiplicity), ...]) with the factors
    squarefree, pairwise coprime, and the product of factor^mult times the
    unit giving back p.  Factors come out in increasing multiplicity order.

    The power of x is split off first: p = x^k q with k the lowest exponent
    of p, so q(0) != 0 and x is coprime to q.  Yun runs on q alone, and x
    joins q's factor of multiplicity k, or stands alone at its place in the
    multiplicity order.  Rational coefficients run the loop on the primitive
    integer vector of q, with the integer gcd and exact integer division of
    ``_zz_gcd``; any other field runs it on polynomials, with
    ``_gcd_cofactors``.
    """
    if p.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    unit = p.leading_coefficient()
    if p.degree == 0:
        return unit, []
    k = min(p.nums)
    form = _int_form(p)
    if form is not None:
        out = [(_from_ints(p.var, f, qdiv(1, f[-1])), i) for f, i in _zz_yun(form[1][k:])]
        return unit, _merge_power_of_x(out, k, p)
    q = Poly(p.var, {e - k: a for e, a in p.nums.items()}).monic()
    _, c, d = _gcd_cofactors(q, q.derivative())
    d = d - c.derivative()
    out = []
    i = 1
    while c.degree > 0:
        f, c, d = _gcd_cofactors(c, d)
        if f.degree > 0:
            out.append((f, i))
        d = d - c.derivative()
        i += 1
    return unit, _merge_power_of_x(out, k, p)


def _merge_power_of_x(factors, k, p):
    """The squarefree factors of p = x^k q from `factors`, those of q:
    x times q's factor of multiplicity k, or else x alone at its place in
    the multiplicity order.  x is over p's coefficient field, whose 1 is
    read off a coefficient outside Q when p is not over Q."""
    if not k:
        return factors
    i = 0
    while i < len(factors) and factors[i][1] < k:
        i += 1
    if i < len(factors) and factors[i][1] == k:
        f = factors[i][0]
        x_f = _make(p.var, {e + 1: a for e, a in f.nums.items()}, f.den)
        return factors[:i] + [(x_f, k)] + factors[i + 1:]
    one = 1 if p.den is not None else next(
        a for a in p.nums.values() if type(a) not in (int, Fraction)) ** 0
    return factors[:i] + [(Poly(p.var, {1: one}), k)] + factors[i:]


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
    if n == 1 or p.is_zero:
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


def rational_roots(p):
    """All rational roots with multiplicities: [(Fraction root, mult)].

    Requires Fraction (or int) coefficients.  No integer is factored, so the
    cost is polynomial in the bit size of the coefficients.  After clearing
    denominators and splitting off the root 0, a linear or quadratic
    polynomial gives its candidates in closed form (``math.isqrt`` of the
    discriminant); a higher degree lifts its roots mod a small prime to
    candidates (Loos' p-adic method on the polynomial itself, or on its
    squarefree part when small primes keep showing a repeated root).  Only
    here is each candidate confirmed, and its multiplicity counted, by exact
    division in Z[x].  Roots come out as 0 first, then by (|numerator|,
    denominator), positive before negative.
    """
    return _roots_and_cofactor(p)[0]


def _roots_and_cofactor(p):
    """(rational_roots(p), the primitive integer vector, lowest degree
    first, left of p once every root's linear factor is divided out as often
    as it divides).

    By Gauss's lemma a/b in lowest terms is a root of the primitive integer
    vector v exactly when b x - a divides v in Z[x], and the quotient is
    primitive again, so the candidates are confirmed on integer vectors."""
    if p.is_zero:
        raise ValueError("every rational is a root of the zero polynomial")
    if p.den is None:
        raise TypeError("rational roots need int or Fraction coefficients")
    lo = min(p.nums)
    # factor out x^lo: root 0 with multiplicity lo
    out = [(Fraction(0), lo)] if lo else []
    v = _int_form(p)[1][lo:]
    cands = sorted(set(_root_candidates(v)) if len(v) > 1 else (),
                   key=lambda q: (abs(q.numerator), q.denominator, q < 0))
    for r in cands:
        m = 0
        while len(v) > 1:
            w = _zz_divexact(v, [-r.numerator, r.denominator])
            if w is None:
                break
            v, m = w, m + 1
        if m:
            out.append((r, m))
    return out, v


def certified_factors(p):
    """Factor a squarefree rational polynomial as far as cheap certificates go.

    Returns (factors, residual) where factors is a list of monic polynomials
    that are certified irreducible over Q (linear always; quadratic/cubic via
    the no-rational-root test) and residual is None or a monic polynomial of
    degree >= 4 that carries no rational root but is not certified.  The
    roots come from p's own primitive vector and the rest from the same
    exact integer divisions that confirm them.
    """
    if p.degree <= 0:
        return [], None
    roots, v = _roots_and_cofactor(p)
    factors = [Poly(p.var, {1: 1, 0: -r}) for r, m in roots for _ in range(m)]
    if len(v) == 1:
        return factors, None
    # with no root, what is left is p itself
    work = _from_ints(p.var, v, qdiv(1, v[-1])) if roots else p.monic()
    if work.degree <= 3:
        # no rational root and degree 2 or 3: irreducible over Q
        factors.append(work)
        return factors, None
    return factors, work


def _times(a, b):
    """a * b, without the product when either factor is the constant 1, as a
    den of 1 or a coefficient of 1 is."""
    if b == 1:
        return a
    if a == 1:
        return b
    return a * b


class FractionArithmetic:
    """Field operations on a ``num``/``den`` pair, shared by the fraction classes.

    A subclass supplies ``_is_coeff(other)``, whether the other operand is a
    coefficient of its num and den; ``_lift(other)``, any other operand as
    an instance of its own, or None to defer to the other operand; and
    ``_new(num, den)``, an instance built from a numerator and a nonzero
    denominator.  A subclass that keeps its fractions in a normal form
    overrides ``_product``, ``_new_coprime`` and ``_new_normal`` to skip the
    work its invariant makes redundant.  A difference is a sum: self - other
    is ``__add__(other, -1)`` and other - self is (-self) + other.

    A coefficient c is applied in place, never lifted to a fraction: a/b + c
    is (a + c b)/b, (a/b) c is (c a)/b, (a/b)/c is a (1/c)/b and c/(a/b) is
    (c b)/a.  These pairs keep a normal pair's invariant as they stand, since
    gcd(a + c b, b) = gcd(a, b) (Knuth, TAOCP vol. 2, 4.5.1) and a sum or
    coefficient multiple of polynomials reduced by a quotient ring's
    relations is reduced, so they take ``_new_normal`` with no gcd and no
    reduction.  Two fractions over one denominator add over it, as
    (a +- c)/b with no product b b; ``_new`` still cancels or reduces it.
    """

    __slots__ = ()

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return not self.is_zero

    def __add__(self, other, sign=1):
        if self._is_coeff(other):
            c = _times(self.den, other)
            return self._new_normal(self.num + c if sign > 0 else self.num - c, self.den)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            a, b, den = self.num, o.num, self.den
        else:
            a, b, den = _times(self.num, o.den), _times(o.num, self.den), _times(self.den, o.den)
        return self._new(a + b if sign > 0 else a - b, den)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if self._is_coeff(other):
            return self._new_normal(self.num * other, self.den)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._product(o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if self._is_coeff(other):
            if not other:
                raise ZeroDivisionError("division by a zero coefficient")
            return self._new_normal(self.num * qdiv(1, other), self.den)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by a zero fraction")
        return self._product(o.den, o.num)

    def __rtruediv__(self, other):
        if self._is_coeff(other):
            if self.is_zero:
                raise ZeroDivisionError("division by a zero fraction")
            return self._new_normal(self.den * other, self.num)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return self._new_normal(-self.num, self.den)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        num, den = self.num, self.den
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            num, den, n = den, num, -n
        return self._new_coprime(num ** n, den if den == 1 else den ** n)

    def _product(self, num, den):
        """self * (num/den), where num/den is the pair of an operand of this
        class, swapped for a quotient.  Every product of two fractions goes
        through here."""
        return self._new(self.num * num, self.den * den)

    def _new_coprime(self, num, den):
        """An instance from a pair with no common factor, as powers of one
        fraction give."""
        return self._new(num, den)

    def _new_normal(self, num, den):
        """An instance from a pair with no common factor whose parts need no
        reduction, as a negation of one fraction and its coefficient
        operations give; only the den of a zero numerator is reset to 1."""
        return self._new_coprime(num, den)


def _cancel_common(p, q):
    """(p/g, q/g) for g = gcd(p, q); a constant or zero on either side is
    left as it is, at the cost of no division."""
    if p.degree > 0 and q.degree > 0:
        return _gcd_cofactors(p, q)[1:]
    return p, q


class RationalFunction(FractionArithmetic):
    """Quotient of two polynomials in one variable, kept reduced.

    The denominator is monic and coprime to the numerator, and held over Q
    when its coefficients are rational, so equality is literal structural
    equality of the pairs.

    Arithmetic keeps that invariant without a gcd of the full products.  For
    reduced a/b and c/d the only common factors of ac and bd are
    g1 = gcd(a, d) and g2 = gcd(c, b), so
    (a/b)(c/d) = ((a/g1)(c/g2)) / ((b/g2)(d/g1)) is reduced (Henrici; Knuth,
    TAOCP vol. 2, 4.5.1); a quotient is the product with d/c.  A power or
    negation of a reduced pair is reduced, and a lifted polynomial has
    denominator 1.  A coefficient operand is applied in place
    (``FractionArithmetic``): gcd(a + c b, b) = gcd(a, b), so the sum, the
    multiple and the quotient of a reduced pair by a coefficient are reduced
    over the same monic b.  Only the denominator's leading coefficient is
    then scaled out.  Sums of two fractions still cancel their full gcd,
    over their one den when they share it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if den is None and isinstance(num, Poly):
            den = Poly.constant(num.var, 1)
        if not (isinstance(num, Poly) and isinstance(den, Poly)):
            raise TypeError("numerator and denominator must be Polys")
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
            num, den = num._over(lead), den.monic()
        if den.den is None and (den.degree == 0 or all(
                getattr(c, "is_rational", False) for c in den.nums.values())):
            # a rational den has one form, over Q, whatever the field (a den
            # of 1 the int 1), so sums and products agree in both orders
            den = (den.map_coeffs(lambda c: c.rational()) if den.degree
                   else Poly.constant(num.var, 1))
        self.num = num
        self.den = den

    @property
    def var(self):
        return self.num.var

    @property
    def is_polynomial(self):
        return self.den.degree == 0

    def _is_coeff(self, other):
        return not isinstance(other, (Poly, RationalFunction) + _HIGHER)

    def _lift(self, other):
        if isinstance(other, Poly):
            # in another variable, self is a coefficient of the polynomial
            return RationalFunction(other, _reduced=True) if other.var == self.var else None
        if isinstance(other, _HIGHER):
            return None
        if other.var != self.var:
            raise TypeError("mixed variables %r and %r" % (self.var, other.var))
        return other

    def _new(self, num, den):
        return RationalFunction(num, den)

    def _new_coprime(self, num, den):
        return RationalFunction(num, den, _reduced=True)

    def _product(self, c, d):
        a, d = _cancel_common(self.num, d)
        c, b = _cancel_common(c, self.den)
        return RationalFunction(a * c, _times(b, d), _reduced=True)

    def __eq__(self, other):
        if self._is_coeff(other):
            # a reduced pair over a monic den equals a coefficient over 1 only
            return self.den.degree == 0 and self.num == other
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
