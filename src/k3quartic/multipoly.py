"""Multivariate polynomials and quotient rings by monomial-headed relations.

``MultiPoly`` is a sparse exponent-vector/coefficient map over a fixed
variable tuple.  All operands of a binary operation must share that tuple.
A scalar operand is applied in place, never lifted to a constant
polynomial: a sum or difference updates the constant term alone, a product
or an exact quotient scales each coefficient, and equality reads the
constant term; since the coefficients form an integral domain, a nonzero
scaling leaves no zero coefficient to clean.  ``MultiPoly.evaluate`` is
the one substitution: it maps the variables to scalars, to ``MultiPoly``s or
to ``QuotientFraction``s.
``QuotientContext`` rewrites powers of designated head variables by
lower-order replacements (think tau^2 -> h(rho)), giving enough of a
quotient ring to verify identities on curves and covers exactly.
``QuotientFraction`` adds formal division with equality tested by
cross-multiplication, which is sound because these quotients are integral
domains for the relations we use.  Its num and den are reduced by the
relations; a scalar operand and a negation keep them reduced, since a sum or
scalar multiple of reduced polynomials is reduced, so those results apply no
relation again (``polynomials.FractionArithmetic``).

Rational coefficients follow ``polynomials``: an ``int`` when integral, a
``Fraction`` otherwise, and every coefficient division goes through
``polynomials.qdiv``, so no float can arise.
"""

from fractions import Fraction
from operator import add, sub

from . import polynomials as _polynomials
from .polynomials import FractionArithmetic, _times, power, qdiv, render_terms


def _is_scalar(x):
    return not isinstance(x, (MultiPoly, QuotientFraction))


class MultiPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        cleaned = {}
        if terms:
            for exps, c in terms.items():
                if not c:  # as in Poly: by truth value, which needs no lift of 0
                    continue
                if len(exps) != len(self.vars):
                    raise ValueError("exponent vector length mismatch")
                # integral rationals are ints, so integer products skip
                # Fraction's gcd; division stays exact through qdiv.  A type
                # test: isinstance(c, Fraction) on an int takes the ABC path
                if type(c) is Fraction and c.denominator == 1:
                    c = c.numerator
                cleaned[tuple(exps)] = c
        self.terms = cleaned

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars)

    @classmethod
    def const(cls, vars, c):
        return cls(vars, {(0,) * len(tuple(vars)): c})

    @classmethod
    def gen(cls, vars, name, power=1):
        vars = tuple(vars)
        if name not in vars:
            raise ValueError("%r is not one of %r" % (name, vars))
        e = [0] * len(vars)
        e[vars.index(name)] = power
        return cls(vars, {tuple(e): 1})

    # -- structure --------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def degree_in(self, name):
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def uses(self, name):
        i = self.vars.index(name)
        return any(e[i] for e in self.terms)

    # -- arithmetic ---------------------------------------------------------------

    def _check(self, other):
        """A MultiPoly operand over the same variables, or None for a
        QuotientFraction, which handles the operation."""
        if isinstance(other, QuotientFraction):
            return None
        if other.vars != self.vars:
            raise TypeError("variable tuples differ: %r vs %r" % (self.vars, other.vars))
        return other

    def _shift(self, terms, c):
        """The MultiPoly of clean `terms` with the coefficient c added to the
        constant term: one entry changes, so no other is cleaned again."""
        zero = (0,) * len(self.vars)
        c = terms.get(zero, 0) + c
        if not c:
            terms.pop(zero, None)
        else:
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            terms[zero] = c
        return _new(self.vars, terms)

    def __add__(self, other, sign=1):
        if _is_scalar(other):
            return self._shift(dict(self.terms), other if sign > 0 else -other)
        o = self._check(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        if sign > 0:
            for e, c in o.terms.items():
                out[e] = out.get(e, 0) + c
        else:
            for e, c in o.terms.items():
                out[e] = out.get(e, 0) - c
        return MultiPoly(self.vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        if _is_scalar(other):
            return self._shift({e: -c for e, c in self.terms.items()}, other)
        return NotImplemented  # a MultiPoly operand takes __sub__

    def _scaled(self, c):
        """self * c for a nonzero coefficient c: the coefficients form an
        integral domain, so no product vanishes."""
        out = {}
        for e, v in self.terms.items():
            v = v * c
            if type(v) is Fraction and v.denominator == 1:
                v = v.numerator
            out[e] = v
        return _new(self.vars, out)

    def __mul__(self, other):
        if _is_scalar(other):
            return self._scaled(other) if other else _new(self.vars, {})
        o = self._check(other)
        if o is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(map(add, e1, e2))
                prod = c1 * c2
                if e in out:
                    out[e] = out[e] + prod
                else:
                    out[e] = prod
        return MultiPoly(self.vars, out)

    __rmul__ = __mul__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return power(self, n, MultiPoly.const(self.vars, 1))

    def __truediv__(self, other):
        if _is_scalar(other):
            return self.try_exact_div(other)
        return NotImplemented

    def __eq__(self, other):
        if _is_scalar(other):
            terms = self.terms
            if not terms:
                return not other
            zero = (0,) * len(self.vars)
            return len(terms) == 1 and zero in terms and terms[zero] == other
        try:
            o = self._check(other)
        except TypeError:
            return NotImplemented
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __bool__(self):
        return not self.is_zero

    def __hash__(self):
        # a constant equals its scalar, so it must hash like it
        if self.total_degree() <= 0:
            return hash(self.terms.get((0,) * len(self.vars), 0))
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    # -- substitution and division ---------------------------------------------

    def derivative(self, name):
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if not k:
                continue
            e2 = list(e)
            e2[i] = k - 1
            out[tuple(e2)] = k * c
        return MultiPoly(self.vars, out)

    def try_exact_div(self, divisor):
        """self / divisor when the division is exact, else None.

        Multivariate long division by a single divisor under lex order on
        the variable tuple; exactness means zero remainder.
        """
        if _is_scalar(divisor):
            if not divisor:
                raise ZeroDivisionError("division by zero polynomial")
            return self._scaled(qdiv(1, divisor))
        d = self._check(divisor)
        if d is None or d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        lead = max(d.terms)  # lex-largest exponent vector
        lc = d.terms[lead]
        rem = dict(self.terms)
        quo = {}
        while rem:
            e = max(rem)
            c = rem.pop(e)
            if c == 0:
                continue
            diff = tuple(map(sub, e, lead))
            if any(x < 0 for x in diff):
                return None  # remainder is nonzero
            f = qdiv(c, lc)
            quo[diff] = quo.get(diff, 0) + f
            for ed, cd in d.terms.items():
                if ed == lead:
                    continue
                t = tuple(map(add, diff, ed))
                rem[t] = rem.get(t, 0) - f * cd
                if rem[t] == 0:
                    del rem[t]
        return MultiPoly(self.vars, quo)

    def __floordiv__(self, divisor):
        """Exact division; ValueError when it leaves a remainder."""
        q = self.try_exact_div(divisor)
        if q is None:
            raise ValueError("%r does not divide %r" % (divisor, self))
        return q

    def evaluate(self, assignment):
        """The substitution: each variable the polynomial uses is replaced by
        assignment[name], a scalar, a MultiPoly or a QuotientFraction.  Every
        used variable must be mapped; one that stays fixed maps to its own
        generator.  The zero polynomial evaluates to 0."""
        out = None
        for e, c in self.terms.items():
            term = c
            for name, k in zip(self.vars, e):
                if k:
                    value = assignment[name]
                    term = term * (value if k == 1 else value ** k)
            out = term if out is None else out + term
        return 0 if out is None else out

    def __repr__(self):
        return render_terms(
            (str(self.terms[e]),
             "*".join(v if k == 1 else "%s^%d" % (v, k) for v, k in zip(self.vars, e) if k))
            for e in sorted(self.terms, reverse=True))


def _new(vars, terms):
    """The MultiPoly of a variable tuple and terms as given: no zero
    coefficient, and every integral rational an int."""
    p = object.__new__(MultiPoly)
    p.vars, p.terms = vars, terms
    return p


class QuotientContext:
    """A polynomial ring modulo relations head^exp = replacement.

    Heads must be distinct variables and no replacement may involve any head
    variable, so rewriting strictly eliminates high head powers and a single
    pass per relation normalizes completely.
    """

    __slots__ = ("vars", "relations")

    def __init__(self, vars, relations):
        self.vars = tuple(vars)
        heads = set()
        rels = []
        for head, exp, rhs in relations:
            if head not in self.vars:
                raise ValueError("head %r not a variable" % head)
            if head in heads:
                raise ValueError("duplicate head %r" % head)
            if exp < 2:
                raise ValueError("relation exponent must be >= 2")
            heads.add(head)
            if _is_scalar(rhs):
                rhs = MultiPoly.const(self.vars, rhs)
            if rhs.vars != self.vars:
                raise TypeError("replacement over wrong variables")
            rels.append((head, exp, rhs))
        for _, _, rhs in rels:
            for h in heads:
                if rhs.uses(h):
                    raise ValueError("replacement for a relation mentions head %r" % h)
        self.relations = tuple(rels)

    def reduce(self, mp):
        if _is_scalar(mp):
            return MultiPoly.const(self.vars, mp)
        if mp.vars != self.vars:
            raise TypeError("value over wrong variables")
        for head, exp, rhs in self.relations:
            i = self.vars.index(head)
            if mp.degree_in(head) < exp:
                continue
            powcache = {1: rhs}
            out = {}
            for e, c in mp.terms.items():
                k = e[i]
                if k < exp:
                    out[e] = out.get(e, 0) + c
                    continue
                q, r = divmod(k, exp)
                if q not in powcache:
                    powcache[q] = rhs ** q
                base = list(e)
                base[i] = r
                piece = powcache[q] * MultiPoly(self.vars, {tuple(base): c})
                for e2, c2 in piece.terms.items():
                    out[e2] = out.get(e2, 0) + c2
            mp = MultiPoly(self.vars, out)
        return mp

    def is_zero(self, mp):
        return self.reduce(mp).is_zero

    def __repr__(self):
        rels = ", ".join("%s^%d -> %s" % (h, e, r) for h, e, r in self.relations)
        return "QuotientContext(%s | %s)" % (",".join(self.vars), rels)


class QuotientFraction(FractionArithmetic):
    """num/den in a quotient ring, with equality by cross-multiplication."""

    __slots__ = ("qctx", "num", "den")

    def __init__(self, qctx, num, den=1):
        self.qctx = qctx
        # reduce coerces a scalar to a constant
        num = qctx.reduce(num)
        den = qctx.reduce(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in quotient ring")
        if num.is_zero:
            den = MultiPoly.const(qctx.vars, 1)
        self.num = num
        self.den = den

    @classmethod
    def gen(cls, qctx, name, power=1):
        return cls(qctx, MultiPoly.gen(qctx.vars, name, power))

    _is_coeff = staticmethod(_is_scalar)

    def _lift(self, other):
        if isinstance(other, MultiPoly):
            return QuotientFraction(self.qctx, other)
        if other.qctx is not self.qctx:  # rings compare by identity
            raise TypeError("mixed quotient contexts")
        return other

    def _new(self, num, den):
        return QuotientFraction(self.qctx, num, den)

    def _new_normal(self, num, den):
        # num and den are reduced already: no relation is applied again
        q = object.__new__(QuotientFraction)
        q.qctx = self.qctx
        q.num = num
        q.den = den if num.terms else MultiPoly.const(self.qctx.vars, 1)
        return q

    def __eq__(self, other):
        if _is_scalar(other):
            # num - c den is reduced, so it is zero in the ring only as written
            return self.num == _times(self.den, other)
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return self.qctx.is_zero(self.num * o.den - o.num * self.den)

    def __repr__(self):
        if self.den == 1:
            return repr(self.num)
        return "(%s)/(%s)" % (self.num, self.den)


# Poly/RationalFunction defer binary ops to these types (they may appear as
# coefficients of neither, but multivariate values may carry univariate
# scalars, so dispatch must flow upward)
_polynomials.register_higher(MultiPoly, QuotientFraction)
