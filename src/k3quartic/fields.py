"""Exact arithmetic in small algebraic extension towers over Q.

A ``FieldContext`` fixes a tower Q = K0 < K1 < K2 of at most two simple
extensions, each given by a monic minimal polynomial over Q, of degrees d1
and d2 (d2 = 1 for a single extension).  The top field has the Q-basis
t1^i t2^j (i < d1, j < d2), and an element is stored flat in it, as in
Cohen, *A Course in Computational Algebraic Number Theory* (GTM 138,
section 4.2) and FLINT's ``nf_elem``: a tuple of ``int`` numerators, the
coefficient of t1^i t2^j at index j*d1 + i, over one positive ``int``
denominator, with no common factor.  That form is canonical, so equality,
hashing and truth are tuple comparisons.  All values are immutable;
arithmetic never mutates.

Each context reduces, once, every monomial t1^i t2^j of the product grid
(i <= 2*d1 - 2, j <= 2*d2 - 2) to the basis over one common denominator.
Both minimal polynomials are over Q, so the tower is the tensor product
Q[t1]/(m1) (x) Q[t2]/(m2) and the reduction of t1^i t2^j is the outer
product of t1^i mod m1 and t2^j mod m2, each power one shift-and-subtract
from the last, in integers over a denominator.  A product is one
grid convolution of the numerators followed by one pass over that table; a
product with, or quotient by, an int or Fraction only scales the numerators
and the denominator.  An inverse solves the n x n integer multiplication
matrix (n = d1*d2) by one fraction-free (Bareiss) Gauss-Jordan pass, with
no back-substitution; a quotient by an element is the product with its
inverse.  A sum, product or comparison reads an operand of the same
context as its (numerators, denominator) pair directly, and an int, a
Fraction or an element of an equal-key context through one coercion; each
result takes one lowest-terms pass.  ``coords()`` gives the nested view: a
tuple (length d2) of tuples (length d1) of Fractions, or a tuple of
Fractions for a single extension.

Minimal polynomials are *assumed* irreducible.  The assumption is checked
lazily: when the multiplication matrix of an element is singular, inversion
takes the gcd of the element and the top minimal polynomial over the level
below, and reports it as a ``ReducibilityError`` carrying the discovered
factor, never silently wrong arithmetic.

Contexts may declare the field automorphism induced by complex conjugation
(images of the generators).  Each context finds its i once, from the
generators: the first generator g, or its square g*g, whose square is -1,
in level order.  Conjugation, the real part (x + conj x)/2 and, when there
is an i, the imaginary part (conj x - x) i/2 are each precomputed at
construction as a sparse integer linear map over one denominator, so each
is one sparse matrix-vector product.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .polynomials import Poly, poly_gcd, power, render_terms


class ReducibilityError(ArithmeticError):
    """A declared minimal polynomial turned out to be reducible.

    ``factor`` holds the coefficients (low to high, values one level down)
    of a nontrivial monic divisor discovered during inversion.
    """

    def __init__(self, level, factor):
        self.level = level
        self.factor = factor
        super().__init__(
            "minimal polynomial at level %d is reducible; found factor of degree %d"
            % (level, len(factor) - 1)
        )


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


def _lowest_terms(nums, den):
    """(numerator tuple, positive denominator) with no common factor."""
    if den < 0:
        nums, den = [-c for c in nums], -den
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return tuple(nums), den


def _over_lcm(values):
    """Fractions as (numerator tuple, denominator); already in lowest terms,
    since no prime divides both the lcm of the denominators and every numerator."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _bareiss_solve(rows):
    """Solve M y = b for the augmented integer rows [M | b], fraction-free.

    One Gauss-Jordan pass (Bareiss 1968): each pivot eliminates its column
    from every other row, not only those below, so the last column ends as
    N = delta y for delta the last pivot.  Left of a pivot the pivot row is
    zero, so only the columns right of it change.  Returns (N, delta), or
    None when M is singular; every division is exact.
    """
    n = len(rows)
    prev = 1
    for k in range(n):
        if not rows[k][k]:
            for r in range(k + 1, n):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    break
            else:
                return None
        pivot, top = rows[k][k], rows[k]
        for row in rows:
            if row is not top:
                f = row[k]
                for c in range(k + 1, n + 1):
                    row[c] = (row[c] * pivot - f * top[c]) // prev
        prev = pivot
    return [row[n] for row in rows], prev


def _reduced_powers(m, count):
    """t^k mod m for k < count, as (numerator tuple, denominator) pairs on
    1, t, ..., t^(d-1), for m a monic tuple of rationals of degree d: past
    the identity rows, t v = shift(v) - v[d-1] low(m)."""
    d = len(m) - 1
    low, lden = _over_lcm(m[:d])
    out = [((0,) * k + (1,) + (0,) * (d - 1 - k), 1) for k in range(d)]
    while len(out) < count:
        v, den = out[-1]
        out.append(_lowest_terms([a * lden - v[-1] * b for a, b in zip((0,) + v[:-1], low)],
                                 den * lden))
    return out


def _linear_map(cols):
    """Elements (the images of the basis vectors) as sparse integer columns
    over one common denominator: ((row, numerator) pairs per column, den)."""
    den = lcm(*(g.den for g in cols))
    return tuple(
        tuple((r, c * (den // g.den)) for r, c in enumerate(g.num) if c) for g in cols
    ), den


class FieldContext:
    """A fixed tower of at most two simple extensions of Q."""

    __slots__ = (
        "minpolys",
        "names",
        "label",
        "height",
        "dims",
        "degree",
        "_i",
        "_key",
        "_hash",
        "_zeros",
        "_pos",
        "_grid",
        "_red",
        "_tden",
        "_conj",
        "_re",
        "_im",
    )

    def __init__(self, minpolys, names, label=None, conj_images=None):
        if not 1 <= len(minpolys) <= 2:
            raise ValueError("tower height must be 1 or 2")
        if len(names) != len(minpolys):
            raise ValueError("one generator name per extension")
        self.height = len(minpolys)
        self.names = tuple(names)
        self.label = label or "Q(%s)" % ",".join(names)

        # minpolys[k]: rational coefficients low to high, length deg+1, leading one
        self.minpolys = tuple(tuple(_as_fraction(c) for c in m) for m in minpolys)
        for level, m in enumerate(self.minpolys, 1):
            if len(m) < 3 or m[-1] != 1:
                raise ValueError("level-%d minimal polynomial must be monic of degree >= 2" % level)
        self.dims = [len(m) - 1 for m in self.minpolys]
        self.degree = prod(self.dims)
        self._key = (self.minpolys, self.names)
        self._hash = hash(self._key)
        self._zeros = (0,) * (self.degree - 1)
        self._build_table()

        self._i = self._find_i()
        self._conj = self._re = self._im = None
        if conj_images is not None:
            self._build_conj(conj_images)

    # -- set-up ---------------------------------------------------------------

    def _build_table(self):
        """Reduce every grid monomial t1^i t2^j outside the basis.  Over Q the
        tower is Q[t1]/(m1) (x) Q[t2]/(m2), so the reduction of t1^i t2^j has
        coordinate (t2^j mod m2)[q] (t1^i mod m1)[p] at index q*d1 + p."""
        d1 = self.dims[0]
        d2 = self.dims[1] if self.height == 2 else 1
        width = 2 * d1 - 1
        self._pos = tuple(j * width + i for j in range(d2) for i in range(d1))
        self._grid = width * (2 * d2 - 1)
        r1 = _reduced_powers(self.minpolys[0], width)
        r2 = _reduced_powers(self.minpolys[1], 2 * d2 - 1) if d2 > 1 else [((1,), 1)]
        # a cell over e1*e2 may not be in lowest terms, but the lcm is the
        # same: e1 and e2 are cell denominators themselves, and a prime of
        # both divides neither power's content, so none cancels there
        cells = [(j * width + i, [y * x for y in n2 for x in n1], e1 * e2)
                 for i, (n1, e1) in enumerate(r1) for j, (n2, e2) in enumerate(r2)
                 if i >= d1 or j >= d2]
        tden = self._tden = lcm(*(den for _, _, den in cells))
        self._red = tuple((g, tuple((p, c * (tden // den)) for p, c in enumerate(nums) if c))
                          for g, nums, den in cells)

    def _find_i(self):
        """The first generator, or its square, that squares to -1; else None."""
        for level in range(1, self.height + 1):
            g = self.gen(level)
            for x in (g, g * g):
                if x * x == -1:
                    return x
        return None

    def _build_conj(self, conj_images):
        """Conjugation C, Re and Im as linear maps (`_linear_map`): C sends
        the basis element e_q = t1^i t2^j to g1^i g2^j, for g_k the declared
        image of t_k (rational coordinates in t_k); column q of Re is
        (e_q + C e_q)/2 and, when the context has an i, column q of Im is
        (C e_q - e_q) i/2."""
        images = [self.element(img if level == self.height else [img])
                  for level, img in enumerate(conj_images, 1)]
        cols = []
        g2_j = self.one
        while len(cols) < self.degree:
            g = g2_j
            for _ in range(self.dims[0]):
                cols.append(g)
                g = g * images[0]
            g2_j = g2_j * images[-1]
        units = [FieldElement(self, tuple(int(p == q) for p in range(self.degree)), 1)
                 for q in range(self.degree)]
        self._conj = _linear_map(cols)
        self._re = _linear_map([(e + c) / 2 for e, c in zip(units, cols)])
        if self._i is not None:
            self._im = _linear_map([(c - e) * self._i / 2 for e, c in zip(units, cols)])

    # -- arithmetic on (numerators, denominator) pairs ------------------------

    def _times(self, a, b):
        """Numerators of a*b over the table denominator, for numerator vectors
        a, b: their grid convolution, reduced through the table."""
        pos = self._pos
        conv = [0] * self._grid
        nz = [(pos[q], y) for q, y in enumerate(b) if y]
        for p, x in enumerate(a):
            if x:
                g = pos[p]
                for h, y in nz:
                    conv[g + h] += x * y
        tden = self._tden
        out = [conv[g] for g in pos] if tden == 1 else [conv[g] * tden for g in pos]
        for g, row in self._red:
            c = conv[g]
            if c:
                for p, r in row:
                    out[p] += c * r
        return out

    def _inv(self, a, ad):
        if not any(a):
            raise ZeroDivisionError("division by zero field element")
        if not any(a[1:]):
            return _lowest_terms((ad,) + self._zeros, a[0])
        n = self.degree
        # (a/ad) e_q = column q / (ad * tden); solve (columns) y = e_0
        cols = [self._times(a, (0,) * q + (1,) + (0,) * (n - 1 - q)) for q in range(n)]
        rows = [[cols[q][p] for q in range(n)] + [int(p == 0)] for p in range(n)]
        solved = _bareiss_solve(rows)
        if solved is None:
            self._raise_reducible(a, ad)
        y, delta = solved
        scale = ad * self._tden
        return _lowest_terms([scale * c for c in y], delta)

    def _raise_reducible(self, a, ad):
        """a is a zero divisor: report gcd(a, top minimal polynomial) over the
        level below; a zero divisor met there raises that level's error."""
        level = self.height
        coords = FieldElement(self, a, ad).coords()
        if level == 1:
            lift = unlift = Fraction
        else:
            base = FieldContext(self.minpolys[:1], self.names[:1])
            lift = base.element

            def unlift(c):
                return (base.one * c).coords()

        m = Poly("x", {k: lift(c) for k, c in enumerate(self.minpolys[-1])})
        g = poly_gcd(m, Poly("x", {k: lift(c) for k, c in enumerate(coords)}))
        raise ReducibilityError(level, tuple(unlift(g.coeff(e)) for e in range(g.degree + 1)))

    # -- public construction ------------------------------------------------

    @property
    def zero(self):
        return FieldElement(self, (0,) + self._zeros, 1)

    @property
    def one(self):
        return FieldElement(self, (1,) + self._zeros, 1)

    def from_rational(self, q):
        q = _as_fraction(q)
        return FieldElement(self, (q.numerator,) + self._zeros, q.denominator)

    def gen(self, level=None):
        """Generator of extension `level` (1-based; default: top)."""
        if level is None:
            level = self.height
        if not 1 <= level <= self.height:
            raise ValueError("no generator at level %d" % level)
        index = 1 if level == 1 else self.dims[0]
        nums = tuple(int(p == index) for p in range(self.degree))
        return FieldElement(self, nums, 1)

    def element(self, coords):
        """Build an element from nested coordinate lists (ints/Fractions)."""
        flat = [Fraction(0)] * self.degree

        def place(c, level, index):
            if level == 0:
                flat[index] = _as_fraction(c)
            elif isinstance(c, (int, Fraction)):
                place(c, level - 1, index)
            else:
                c = list(c)
                if len(c) > self.dims[level - 1]:
                    raise ValueError("too many coordinates at level %d" % level)
                stride = 1 if level == 1 else self.dims[0]
                for k, x in enumerate(c):
                    place(x, level - 1, index + k * stride)

        place(coords, self.height, 0)
        return FieldElement(self, *_over_lcm(flat))

    def _apply(self, linear, x):
        """x under a map built by `_linear_map`; None means no conjugation."""
        if linear is None:
            raise ValueError("context %s declares no conjugation" % self.label)
        cols, mden = linear
        out = [0] * self.degree
        for p, c in enumerate(x.num):
            if c:
                for r, v in cols[p]:
                    out[r] += c * v
        den = x.den * mden
        g = gcd(den, *out)
        if g != 1:
            out = [c // g for c in out]
            den //= g
        return FieldElement(self, tuple(out), den)

    def conj(self, x):
        """Complex conjugation, available when the context declares it."""
        return self._apply(self._conj, x)

    def re(self, x):
        """(x + conj x)/2, available when the context declares conjugation."""
        return self._apply(self._re, x)

    def im(self, x):
        """(conj x - x) i/2, available when the context declares conjugation
        and has an i."""
        if self._conj is not None and self._i is None:
            raise ValueError("context %s has no imaginary unit" % self.label)
        return self._apply(self._im, x)

    def __eq__(self, other):
        return isinstance(other, FieldContext) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FieldContext(%s)" % self.label


class FieldElement:
    """An element of a ``FieldContext`` tower; immutable, operator-overloaded.

    ``num`` is the tuple of integer numerators (index j*d1 + i for t1^i t2^j)
    and ``den`` the positive common denominator, in lowest terms.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den):
        self.ctx = ctx
        self.num = num
        self.den = den

    # coercion of an int, a Fraction or an element of an equal-key context:
    # (numerators, denominator) of other, or None
    def _other(self, x):
        if isinstance(x, FieldElement):
            if x.ctx is self.ctx or x.ctx._key == self.ctx._key:
                return x.num, x.den
            return None
        if isinstance(x, (int, Fraction)):
            return (x.numerator,) + self.ctx._zeros, x.denominator
        return None

    def __add__(self, other, sign=1):
        # an element of this very context is read directly
        if isinstance(other, FieldElement) and other.ctx is self.ctx:
            b, bd = other.num, other.den
        else:
            o = self._other(other)
            if o is None:
                return NotImplemented
            b, bd = o
        a, den = self.num, self.den
        if den == bd:
            # numerators over one denominator add with no cross product
            num = ([x + y for x, y in zip(a, b)] if sign > 0
                   else [x - y for x, y in zip(a, b)])
        else:
            num = ([x * bd + y * den for x, y in zip(a, b)] if sign > 0
                   else [x * bd - y * den for x, y in zip(a, b)])
            den *= bd
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        return FieldElement(self.ctx, tuple(num), den)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        # the FieldElement test goes first: isinstance against Fraction (an
        # ABC) costs about a tenth of a product when it fails
        ctx = self.ctx
        if isinstance(other, FieldElement):
            if other.ctx is ctx:
                b, bd = other.num, other.den
            else:
                o = self._other(other)
                if o is None:
                    return NotImplemented
                b, bd = o
            # the grid convolution, reduced through the table
            num = ctx._times(self.num, b)
            den = self.den * bd * ctx._tden
        elif isinstance(other, (int, Fraction)):
            # a rational scales the numerators and the denominator
            k = other.numerator
            num = [c * k for c in self.num]
            den = self.den * other.denominator
        else:
            return NotImplemented
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        return FieldElement(ctx, tuple(num), den)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.ctx, tuple([-c for c in self.num]), self.den)

    def __pos__(self):
        return self

    def inverse(self):
        return FieldElement(self.ctx, *self.ctx._inv(self.num, self.den))

    def __truediv__(self, other):
        if isinstance(other, FieldElement):
            o = self._other(other)
            if o is None:
                return NotImplemented
            return self * FieldElement(self.ctx, *self.ctx._inv(*o))
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero field element")
            return FieldElement(self.ctx, *_lowest_terms(
                [c * other.denominator for c in self.num], self.den * other.numerator))
        return NotImplemented

    def __rtruediv__(self, other):
        # an element of this context divides by its own __truediv__
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return power(self.inverse(), -n, self.ctx.one)
        return power(self, n, self.ctx.one)

    def __eq__(self, other):
        if isinstance(other, FieldElement) and other.ctx is self.ctx:
            return self.den == other.den and self.num == other.num
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self.den == o[1] and self.num == o[0]

    def __hash__(self):
        # a rational element equals its Fraction, so it must hash like it
        if self.is_rational:
            return hash(Fraction(self.num[0], self.den))
        return hash((self.ctx._hash, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    @property
    def is_rational(self):
        return not any(self.num[1:])

    def rational(self):
        """The element as a Fraction; raises if it is not rational."""
        if not self.is_rational:
            raise ValueError("element is not rational: %r" % self)
        return Fraction(self.num[0], self.den)

    def coords(self):
        """Nested coordinates: Fractions of t1^i (one level), or per power of t2
        a tuple of the Fractions of t1^i (two levels)."""
        flat = tuple(Fraction(c, self.den) for c in self.num)
        if self.ctx.height == 1:
            return flat
        d1 = self.ctx.dims[0]
        return tuple(flat[k:k + d1] for k in range(0, len(flat), d1))

    def conj(self):
        return self.ctx.conj(self)

    def re(self):
        return self.ctx.re(self)

    def im(self):
        return self.ctx.im(self)

    def norm_sq(self):
        """x * conj(x)."""
        return self * self.conj()

    def __repr__(self):
        names = self.ctx.names

        def rend(raw, level):
            if level == 0:
                return str(raw)
            name = names[level - 1]
            return render_terms(
                (rend(c, level - 1), "" if e == 0 else name if e == 1 else "%s^%d" % (name, e))
                for e, c in enumerate(raw) if (any(c) if level > 1 else c))

        return rend(self.coords(), self.ctx.height)


def imaginary_unit(ctx):
    """The element i of ctx: its first generator, or the square of one, that
    squares to -1, in level order."""
    if ctx._i is None:
        raise ValueError("context %s has no imaginary unit" % ctx.label)
    return ctx._i


# -- stock contexts ---------------------------------------------------------


@lru_cache(maxsize=None)
def gaussian_field():
    """Q(i), i^2 = -1."""
    return FieldContext(
        [(1, 0, 1)],
        names=("i",),
        label="Q(i)",
        conj_images=[[0, -1]],
    )


def sqrt_field(d):
    """Q(sqrt(d)) for a rational non-square d."""
    return _sqrt_field(Fraction(d))


@lru_cache(maxsize=None)
def _sqrt_field(d):
    conj = [[0, 1]] if d > 0 else [[0, -1]]
    return FieldContext(
        [(-d, 0, 1)],
        names=("s",),
        label="Q(sqrt(%s))" % d,
        conj_images=conj,
    )


@lru_cache(maxsize=None)
def eighth_root_field():
    """Q(zeta8), zeta8^4 = -1; contains i = zeta8^2 and sqrt2 = zeta8 - zeta8^3."""
    return FieldContext(
        [(1, 0, 0, 0, 1)],
        names=("z8",),
        label="Q(zeta8)",
        conj_images=[[0, 0, 0, -1]],
    )


def quartic_root_field(n):
    """Q(n^(1/4)) for a positive rational n, real positive root."""
    n = Fraction(n)
    if n <= 0:
        raise ValueError("radicand must be positive")
    return _quartic_root_field(n)


@lru_cache(maxsize=None)
def _quartic_root_field(n):
    return FieldContext(
        [(-n, 0, 0, 0, 1)],
        names=("q4",),
        label="Q(%s^(1/4))" % n,
        conj_images=[[0, 1]],
    )


def with_imaginary_unit(base_kind, *params):
    """Tower: a real stock context extended by i (two levels total)."""
    return _with_imaginary_unit(base_kind, *(Fraction(p) for p in params))


@lru_cache(maxsize=None)
def _with_imaginary_unit(base_kind, *params):
    if base_kind == "quartic_root":
        base = quartic_root_field(*params)
    elif base_kind == "sqrt":
        base = sqrt_field(*params)
    else:
        raise ValueError("unsupported base kind %r" % base_kind)
    if base.height != 1:
        raise ValueError("tower cap is two extensions")
    return FieldContext(
        [base.minpolys[0], (1, 0, 1)],
        names=(base.names[0], "i"),
        label=base.label[:-1] + ", i)",
        conj_images=[[0, 1], [0, -1]],
    )
