from fractions import Fraction
from math import gcd, lcm

import pytest

from k3quartic.fields import (
    FieldContext,
    FieldElement,
    ReducibilityError,
    _over_lcm,
    eighth_root_field,
    gaussian_field,
    imaginary_unit,
    quartic_root_field,
    sqrt_field,
    with_imaginary_unit,
)


def test_gaussian_basics():
    QI = gaussian_field()
    i = QI.gen()
    assert i * i == -1
    assert i ** 4 == 1
    a = QI.element([Fraction(1, 2), 3])
    assert a.conj() == QI.element([Fraction(1, 2), -3])
    assert a * a.conj() == Fraction(37, 4)
    assert a.norm_sq().rational() == Fraction(37, 4)
    assert (1 / a) * a == 1
    assert a.re() == Fraction(1, 2)
    assert a.im() == 3


def test_rational_detection():
    QI = gaussian_field()
    i = QI.gen()
    x = (2 + i) * (2 - i)
    assert x.is_rational
    assert x.rational() == 5
    with pytest.raises(ValueError):
        (1 + i).rational()


def test_eighth_root_structure():
    Z8 = eighth_root_field()
    z = Z8.gen()
    assert z ** 8 == 1
    assert z ** 4 == -1
    i = imaginary_unit(Z8)
    assert i == z * z
    assert i * i == -1
    s2 = z - z ** 3
    assert s2 * s2 == 2
    # zeta8 = (1 + i)/sqrt2
    assert (1 + i) / s2 == z
    assert z.conj() == z ** 7
    assert (z * z.conj()) == 1


def test_sqrt_field_conjugation():
    real = sqrt_field(2)
    s = real.gen()
    assert s * s == 2
    assert s.conj() == s
    imag = sqrt_field(-2)
    t = imag.gen()
    assert t * t == -2
    assert t.conj() == -t
    assert t.norm_sq() == 2


def test_two_level_tower():
    T = with_imaginary_unit("quartic_root", 7)
    t = T.gen(1)
    i = T.gen(2)
    assert T.degree == 8
    assert t ** 4 == 7
    assert i * i == -1
    x = (1 + t * i) ** 3
    # |1 + i*7^(1/4)|^2 = 1 + sqrt7, and (1 + sqrt7)^3 = 22 + 10 sqrt7
    assert x.norm_sq() == 22 + 10 * t ** 2
    assert x.norm_sq().conj() == x.norm_sq()
    assert (x / x) == 1
    assert 1 / (1 + i) == (1 - i) / 2


def test_inverse_roundtrip_many():
    Z8 = eighth_root_field()
    z = Z8.gen()
    vals = [
        1 + z,
        3 - 2 * z + z ** 2,
        Fraction(2, 3) * z ** 3 - z + 5,
        z ** 2 + z ** 3,
    ]
    for v in vals:
        assert v * v.inverse() == 1
        assert (1 / v) == v.inverse()


def test_division_by_zero():
    QI = gaussian_field()
    with pytest.raises(ZeroDivisionError):
        QI.one / QI.zero
    with pytest.raises(ZeroDivisionError):
        QI.zero.inverse()


def test_reducible_minpoly_is_witnessed():
    # x^2 - 4 factors; inverting gen - 2 must surface a witness, not garbage
    bad = FieldContext([(-4, 0, 1)], names=("r",))
    g = bad.gen()
    with pytest.raises(ReducibilityError) as exc:
        (g - 2).inverse()
    factor = exc.value.factor
    assert len(factor) - 1 == 1  # a linear factor of x^2 - 4


def test_cross_context_mixing_is_rejected():
    QI = gaussian_field()
    Z8 = eighth_root_field()
    with pytest.raises(TypeError):
        QI.gen() + Z8.gen()


def test_element_renders_readably():
    QI = gaussian_field()
    a = QI.element([Fraction(1, 2), -3])
    s = repr(a)
    assert "i" in s and "1/2" in s


def test_power_negative_exponent():
    QI = gaussian_field()
    a = 2 + QI.gen()
    assert a ** -2 == 1 / (a * a)
    assert a ** 0 == 1


def test_context_caching_and_equality():
    assert gaussian_field() is gaussian_field()
    c1 = sqrt_field(Fraction(5))
    c2 = sqrt_field(5)
    assert c1 is c2
    # equal-by-structure contexts interoperate
    other = FieldContext([(1, 0, 1)], names=("i",), conj_images=[[0, -1]])
    assert gaussian_field() == other
    assert gaussian_field().gen() + other.gen() == other.gen() * 2


def test_imaginary_unit_is_found_from_the_generators():
    # the first generator, or its square, that squares to -1, in level order
    T = with_imaginary_unit("quartic_root", 7)
    R = with_imaginary_unit("sqrt", -1)  # reducible: the first level already has i
    Z8 = eighth_root_field()
    cases = [
        (gaussian_field(), gaussian_field().gen()),
        (sqrt_field(-1), sqrt_field(-1).gen()),
        (Z8, Z8.gen() ** 2),
        (T, T.gen(2)),
        (R, R.gen(1)),
    ]
    for ctx, want in cases:
        i = imaginary_unit(ctx)
        assert i.ctx is ctx
        assert (i.num, i.den) == (want.num, want.den), ctx
        assert i * i == -1
    # a custom context whose generator squares to -1 has an i too
    bare = FieldContext([(1, 0, 1)], names=("j",))
    assert imaginary_unit(bare) == bare.gen()
    for ctx in (sqrt_field(2), sqrt_field(-2), quartic_root_field(7)):
        with pytest.raises(ValueError):
            imaginary_unit(ctx)


# a tower whose minimal polynomials have denominators and whose second level
# is a cubic: t1^2 = 3/2, t2^3 = 5/7
RATIONAL_TOWER = FieldContext([(Fraction(-3, 2), 0, 1), (Fraction(-5, 7), 0, 0, 1)], names=("a", "b"))


def _random_coords(rng, count):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.8 else Fraction(0)
            for _ in range(count)]


def test_mul_and_inverse_match_sympy():
    sympy = pytest.importorskip("sympy")
    import random

    QQ = sympy.QQ
    z, t, i = sympy.symbols("z t i")
    rng = random.Random(20261018)

    def as_dict(c):
        """coords() as a sympy monomial dict: exponents (of z) or (of t, of i)."""
        if isinstance(c[0], Fraction):
            return {(k,): QQ(x.numerator, x.denominator) for k, x in enumerate(c) if x}
        return {(a, b): QQ(x.numerator, x.denominator)
                for b, row in enumerate(c) for a, x in enumerate(row) if x}

    cases = [
        (eighth_root_field(), lambda: _random_coords(rng, 4), (z,), [z ** 4 + 1]),
        (with_imaginary_unit("quartic_root", 7),
         lambda: [_random_coords(rng, 4), _random_coords(rng, 4)], (t, i), [t ** 4 - 7, i ** 2 + 1]),
        # a non-integral minimal polynomial: the reduction table has a denominator
        (with_imaginary_unit("quartic_root", Fraction(7, 9)),
         lambda: [_random_coords(rng, 4), _random_coords(rng, 4)], (t, i),
         [t ** 4 - sympy.Rational(7, 9), i ** 2 + 1]),
        # a cubic second level: the table reaches t2^4
        (RATIONAL_TOWER, lambda: [_random_coords(rng, 2) for _ in range(3)], (t, i),
         [t ** 2 - sympy.Rational(3, 2), i ** 3 - sympy.Rational(5, 7)]),
    ]
    for ctx, draw, gens, minpolys in cases:
        # each minimal polynomial is monic in its own generator, so a remainder
        # with that generator as the main variable reduces it
        ideal = [(k, sympy.Poly(m, *gens[k:], *gens[:k], domain=QQ)) for k, m in enumerate(minpolys)]

        def oracle(x, y):
            """x*y reduced modulo the minimal polynomials, as a monomial dict."""
            p = sympy.Poly(as_dict(x.coords()), *gens, domain=QQ)
            p = p * sympy.Poly(as_dict(y.coords()), *gens, domain=QQ)
            for k, m in ideal:
                p = p.reorder(*gens[k:], *gens[:k]).rem(m).reorder(*gens)
            return p.as_dict()

        for _ in range(70):
            x, y = ctx.element(draw()), ctx.element(draw())
            assert as_dict((x * y).coords()) == oracle(x, y), (x, y)
            if x:
                assert oracle(x, x.inverse()) == {(0,) * len(gens): 1}, x


def test_equal_values_share_one_canonical_form():
    for ctx in (gaussian_field(), with_imaginary_unit("quartic_root", 7)):
        i = imaginary_unit(ctx)
        x = ctx.element([Fraction(3, 2), -1]) + Fraction(1, 3) * ctx.gen(1)
        pairs = [
            (x / x, ctx.one),
            ((1 + i) ** 2, 2 * i),
            (ctx.from_rational(Fraction(2, 4)), ctx.element([Fraction(1, 2)])),
            (x * x.inverse() - 1, ctx.zero),
        ]
        for a, b in pairs:
            assert a == b
            assert hash(a) == hash(b)
            assert {a: "slot"}[b] == "slot"
            assert len({a, b}) == 1
        assert ctx.one / 2 != ctx.one


def test_rational_element_hashes_like_its_fraction():
    # x == 2 holds, so x must find the dict slot of 2
    for ctx in (gaussian_field(), with_imaginary_unit("quartic_root", 7)):
        for q in (2, Fraction(-3, 4), 0):
            x = ctx.from_rational(q)
            assert x == q and hash(x) == hash(q)
            assert {q: "slot"}[x] == "slot"
            assert len({x, q}) == 1


def test_two_level_reducibility_is_witnessed():
    # over Q(sqrt(-1)), i^2 + 1 has the root sqrt(-1): i - sqrt(-1) is a zero divisor
    T = with_imaginary_unit("sqrt", -1)
    with pytest.raises(ReducibilityError) as exc:
        (T.gen(2) - T.gen(1)).inverse()
    assert exc.value.level == 2
    factor = exc.value.factor
    assert len(factor) - 1 == 1
    assert tuple(factor[-1]) == (1, 0)  # monic over the level below
    base = sqrt_field(-1)
    root = -base.element(list(factor[0]))
    assert root * root == -1
    with pytest.raises(ZeroDivisionError):
        T.zero.inverse()


def test_im_matches_the_quotient_by_two_i():
    # im multiplies by i / 2 instead of dividing by 2i; both give the same element
    import random

    rng = random.Random(20261019)
    cases = [
        (gaussian_field(), lambda: _random_coords(rng, 2)),
        (eighth_root_field(), lambda: _random_coords(rng, 4)),
        (with_imaginary_unit("quartic_root", 7),
         lambda: [_random_coords(rng, 4), _random_coords(rng, 4)]),
    ]
    for ctx, draw in cases:
        i = imaginary_unit(ctx)
        checked = 0
        for _ in range(40):
            x = ctx.element(draw())
            if x.is_rational:
                continue
            assert x.im() == (x - x.conj()) / (2 * i), x
            assert x.re() + i * x.im() == x
            checked += 1
        assert checked >= 25


def test_re_and_im_maps_match_their_formulas_on_every_stock_context():
    # re and im are precomputed linear maps; the oracle is (x + conj x)/2 and
    # (conj x - x) i/2 by field arithmetic, and im raises where there is no i
    import random

    rng = random.Random(20261021)
    cases = [
        (gaussian_field(), lambda: _random_coords(rng, 2)),
        (eighth_root_field(), lambda: _random_coords(rng, 4)),
        (sqrt_field(2), lambda: _random_coords(rng, 2)),
        (sqrt_field(-3), lambda: _random_coords(rng, 2)),
        (quartic_root_field(7), lambda: _random_coords(rng, 4)),
        (with_imaginary_unit("quartic_root", 7),
         lambda: [_random_coords(rng, 4), _random_coords(rng, 4)]),
        (with_imaginary_unit("sqrt", 2),
         lambda: [_random_coords(rng, 2), _random_coords(rng, 2)]),
    ]
    for ctx, draw in cases:
        i = ctx._i
        elements = [ctx.zero, ctx.one, ctx.gen(1), ctx.gen()]
        elements += [ctx.element(draw()) for _ in range(30)]
        for x in elements:
            got, want = x.re(), (x + x.conj()) / 2
            assert (got.num, got.den) == (want.num, want.den), (ctx, x)
            if i is None:
                with pytest.raises(ValueError, match="has no imaginary unit"):
                    x.im()
                continue
            got, want = x.im(), (x.conj() - x) * i / 2
            assert (got.num, got.den) == (want.num, want.den), (ctx, x)
    assert [ctx._i is None for ctx, _ in cases] == [False, False, True, True, True, False, False]


def test_conjugation_errors_keep_their_messages():
    # no conjugation is reported first, whether or not the context has an i
    for bare in (FieldContext([(1, 0, 1)], names=("j",)), FieldContext([(-2, 0, 1)], names=("r",))):
        x = bare.gen() + 1
        for op in (x.conj, x.re, x.im):
            with pytest.raises(ValueError, match="declares no conjugation"):
                op()
    real = sqrt_field(2).gen() + 1
    assert real.re() == real
    with pytest.raises(ValueError, match="has no imaginary unit"):
        real.im()


def test_rational_scaling_matches_the_field_product():
    # x * q and x / q scale the numerators and the denominator; the product
    # and quotient by the field element of q are the oracle
    import random

    rng = random.Random(20261020)
    scalars = [0, 1, -1, 2, -7, True, Fraction(3, 4), Fraction(-5, 12), 10 ** 30 + 7,
               Fraction(2 ** 61 - 1, 3 ** 40)]
    cases = [
        (gaussian_field(), lambda: _random_coords(rng, 2)),
        (eighth_root_field(), lambda: _random_coords(rng, 4)),
        (with_imaginary_unit("quartic_root", 7),
         lambda: [_random_coords(rng, 4), _random_coords(rng, 4)]),
    ]
    for ctx, draw in cases:
        elements = [ctx.zero, ctx.one] + [ctx.element(draw()) for _ in range(25)]
        for x in elements:
            for q in scalars + [Fraction(rng.randint(-99, 99), rng.randint(1, 99))]:
                field_q = ctx.from_rational(q)
                for got, want in ((x * q, x * field_q), (q * x, field_q * x)):
                    assert (got.num, got.den) == (want.num, want.den), (x, q)
                if q:
                    got, want = x / q, x / field_q
                    assert (got.num, got.den) == (want.num, want.den), (x, q)
                else:
                    with pytest.raises(ZeroDivisionError):
                        x / q


# -- the inverse against forward elimination and back-substitution -------------


def _forward_and_back_solve(rows):
    """Solve M y = b for the augmented integer rows [M | b]: fraction-free
    forward elimination (Bareiss 1968), then back-substitution on the upper
    triangle.  (N, delta) with y = N / delta, or None when M is singular."""
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
        for r in range(k + 1, n):
            row = rows[r]
            f = row[k]
            for c in range(k + 1, n + 1):
                row[c] = (row[c] * pivot - f * top[c]) // prev
            row[k] = 0
        prev = pivot
    delta = prev
    out = [0] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        s = delta * row[n] - sum(row[c] * out[c] for c in range(k + 1, n))
        out[k] = s // row[k]
    return out, delta


def _inverse_or_factor(x):
    """(numerators, denominator) of x's inverse, or the factor that the
    ReducibilityError it raises carries."""
    try:
        y = x.inverse()
    except ReducibilityError as exc:
        return "reducible", exc.level, exc.factor
    return y.num, y.den


def test_inverse_matches_forward_elimination_and_back_substitution(monkeypatch):
    # every stock context, Q(sqrt 3, i), a tower whose minimal polynomials
    # have denominators (t1^2 = 3/2, t2^3 = 5/7), and two reducible
    # contexts, in which both solvers must meet the same zero divisors
    import random

    from k3quartic import fields

    rng = random.Random(20261020)
    bad = FieldContext([(-4, 0, 1)], names=("r",))
    bad_tower = with_imaginary_unit("sqrt", -1)
    contexts = [
        gaussian_field(), sqrt_field(2), sqrt_field(Fraction(-3, 5)), eighth_root_field(),
        quartic_root_field(7), quartic_root_field(Fraction(7, 9)),
        with_imaginary_unit("quartic_root", 7), with_imaginary_unit("sqrt", 3),
        RATIONAL_TOWER, bad, bad_tower,
    ]
    singular = {bad: [bad.gen() - 2, bad.gen() + 2],
                bad_tower: [bad_tower.gen(2) - bad_tower.gen(1),
                            3 * (bad_tower.gen(2) + bad_tower.gen(1))]}
    raised = 0
    for ctx in contexts:
        d1 = ctx.dims[0]
        xs = [ctx.element(_random_coords(rng, d1) if ctx.height == 1 else
                          [_random_coords(rng, d1) for _ in range(ctx.dims[1])])
              for _ in range(40)]
        xs += [ctx.gen(level) + k for level in range(1, ctx.height + 1) for k in (0, 1, -3)]
        for x in [x for x in xs if x] + singular.get(ctx, []):
            got = _inverse_or_factor(x)
            with monkeypatch.context() as m:
                m.setattr(fields, "_bareiss_solve", _forward_and_back_solve)
                want = _inverse_or_factor(x)
            assert got == want, (ctx, x)
            if got[0] == "reducible":
                raised += 1
            else:
                assert x * x.inverse() == 1, (ctx, x)
                for q in (1, -2, Fraction(3, 7)):
                    y, z = q / x, ctx.from_rational(q) / x
                    assert (y.num, y.den) == (z.num, z.den), (ctx, x, q)
    assert raised >= 4


# -- the outer-product table against the incremental build -------------------


def _lift_raw(c, d1):
    """c (int/Fraction or length-d1 sequence) as level-1 coordinates."""
    if isinstance(c, (int, Fraction)):
        return (Fraction(c),) + (Fraction(0),) * (d1 - 1)
    return tuple(Fraction(x) for x in c)


def _set_table(self, cells):
    """Install reductions {(i, j): (nums, den)} of t1^i t2^j over one denominator."""
    width = 2 * self.dims[0] - 1
    tden = lcm(*(den for _, den in cells.values()))
    self._red = tuple(
        (j * width + i, tuple((p, c * (tden // den)) for p, c in enumerate(nums) if c))
        for (i, j), (nums, den) in sorted(cells.items())
    )
    self._tden = tden


def _incremental_table(ctx):
    """(_red, _tden, _pos, _grid) of ctx as the table was built before the
    outer product: the second minimal polynomial over the first level, and
    each monomial the product of reduced values through the entries already
    installed, each product through the oracle `_o_mul`."""
    self = object.__new__(FieldContext)
    self.height, self.dims, self.degree = ctx.height, ctx.dims, ctx.degree
    d1 = self.dims[0]
    self.minpolys = ctx.minpolys[:1] + tuple(
        tuple(_lift_raw(c, d1) for c in m) for m in ctx.minpolys[1:])
    n = self.degree
    d2 = self.dims[1] if self.height == 2 else 1
    width = 2 * d1 - 1
    self._pos = tuple(j * width + i for j in range(d2) for i in range(d1))
    self._grid = width * (2 * d2 - 1)

    def unit(p):
        return tuple(int(q == p) for q in range(n)), 1

    # t1^d1 t2^j = -(m1 low) in slot j, then t1^i t2^j = t1 * t1^(i-1) t2^j
    low, den = _over_lcm(self.minpolys[0][:d1])
    cells = {(d1, j): ((0,) * (j * d1) + tuple(-c for c in low) + (0,) * ((d2 - 1 - j) * d1), den)
             for j in range(d2)}
    _set_table(self, cells)
    t1 = unit(1)
    for i in range(d1 + 1, width):
        for j in range(d2):
            cells[i, j] = _o_mul(self, *t1, *cells[i - 1, j])
        _set_table(self, cells)
    if d2 > 1:
        # t1^i t2^d2 = t1^i * -(m2 low); then t2^j = t2 * t2^(j-1)
        top, den = _over_lcm([c for coeff in self.minpolys[1][:d2] for c in coeff])
        top = tuple(-c for c in top)
        for i in range(width):
            t1_i = cells[i, 0] if i >= d1 else unit(i)
            cells[i, d2] = _o_mul(self, *t1_i, top, den)
        _set_table(self, cells)
        t2 = unit(d1)
        for j in range(d2 + 1, 2 * d2 - 1):
            for i in range(width):
                cells[i, j] = _o_mul(self, *t2, *cells[i, j - 1])
            _set_table(self, cells)
    return self._red, self._tden, self._pos, self._grid


def test_outer_product_table_matches_the_incremental_build():
    # every stock context, Q(q4, i) and Q(s, i) over rational radicands, the
    # cubic-over-quadratic tower, and 60 seeded rational towers (d1 in 2..4,
    # d2 in 1..3, denominators up to 9; reducible ones too, since building
    # the table assumes nothing of irreducibility)
    import random

    rng = random.Random(20261022)
    contexts = [
        gaussian_field(), sqrt_field(2), sqrt_field(-3), sqrt_field(Fraction(-3, 5)),
        eighth_root_field(), quartic_root_field(7), quartic_root_field(Fraction(7, 9)),
        with_imaginary_unit("quartic_root", 7), with_imaginary_unit("quartic_root", Fraction(7, 9)),
        with_imaginary_unit("sqrt", 3), with_imaginary_unit("sqrt", Fraction(-2, 7)),
        RATIONAL_TOWER,
    ]

    def minpoly(degree):
        return tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(degree)) + (1,)

    for _ in range(60):
        d1, d2 = rng.randint(2, 4), rng.randint(1, 3)
        minpolys = [minpoly(d1)] + ([minpoly(d2)] if d2 > 1 else [])
        contexts.append(FieldContext(minpolys, names=("a", "b")[:len(minpolys)]))
    shapes = set()
    for ctx in contexts:
        got = (ctx._red, ctx._tden, ctx._pos, ctx._grid)
        assert got == _incremental_table(ctx), ctx.minpolys
        shapes.add((ctx.dims[0], ctx.degree // ctx.dims[0]))
    assert shapes == {(d1, d2) for d1 in (2, 3, 4) for d2 in (1, 2, 3)}


def test_minimal_polynomials_are_monic_over_q():
    # a second level over the first level's coordinates is no longer a form;
    # a non-rational coefficient is a TypeError at either level, and a
    # non-monic or linear polynomial a ValueError
    base = (Fraction(-3, 2), 0, 1)
    with pytest.raises(TypeError, match=r"got \(Fraction\(-1, 3\), -1\)"):
        FieldContext([base, ((Fraction(-1, 3), -1), 0, 1)], names=("a", "b"))
    for bad in ((1.5, 0, 1), ("1", 0, 1)):
        for minpolys in ([bad], [bad, (1, 0, 1)], [base, bad]):
            with pytest.raises(TypeError):
                FieldContext(minpolys, names=("a", "b")[:len(minpolys)])
    for bad in ((1, 0, 2), (1, 1), (1,), (1, 0, 1, 0)):
        for level, minpolys in ((1, [bad]), (1, [bad, (1, 0, 1)]), (2, [base, bad])):
            with pytest.raises(ValueError, match="level-%d minimal polynomial" % level):
                FieldContext(minpolys, names=("a", "b")[:len(minpolys)])
    # the tower's own minimal polynomials are stored as Fractions
    assert RATIONAL_TOWER.minpolys[1] == (Fraction(-5, 7), 0, 0, 1)
    assert all(type(c) is Fraction for m in RATIONAL_TOWER.minpolys for c in m)


# -- the direct kernels against the coercion-helper route ------------------------
#
# Sums, differences, products and equality once took every operand through
# `_other`, and then through module-level `_add` or `FieldContext._mul`, each
# ending in one lowest-terms pass.  That route, verbatim, is the oracle of
# the kernels that read a same-context operand's (num, den) directly, and
# `_o_mul` also builds the incremental table above.


def _o_lowest_terms(nums, den):
    if den < 0:
        nums, den = [-c for c in nums], -den
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return tuple(nums), den


def _o_add(a, ad, b, bd):
    if ad == bd:
        return _o_lowest_terms([x + y for x, y in zip(a, b)], ad)
    return _o_lowest_terms([x * bd + y * ad for x, y in zip(a, b)], ad * bd)


def _o_other(ctx, x):
    if isinstance(x, FieldElement):
        if x.ctx is ctx or x.ctx._key == ctx._key:
            return x.num, x.den
        return None
    return (x.numerator,) + ctx._zeros, x.denominator


def _o_sum(x, y, sign):
    """x + sign*y for x an element, y an element or a rational."""
    b, bd = _o_other(x.ctx, y)
    if sign < 0:
        b = tuple(-c for c in b)
    return _o_add(x.num, x.den, b, bd)


def _o_mul(ctx, a, ad, b, bd):
    return _o_lowest_terms(ctx._times(a, b), ad * bd * ctx._tden)


def _o_product(x, y):
    if isinstance(y, FieldElement):
        return _o_mul(x.ctx, x.num, x.den, *_o_other(x.ctx, y))
    return _o_lowest_terms([c * y.numerator for c in x.num], x.den * y.denominator)


def _typed_pair(x):
    """(num, den) of an element, with every entry tagged by its type."""
    assert type(x) is FieldElement and type(x.num) is tuple
    return tuple((type(c), c) for c in x.num), (type(x.den), x.den)


def _o_typed(pair):
    num, den = pair
    return tuple((int, c) for c in num), (int, den)


def test_direct_kernels_match_the_coercion_route():
    import random

    rng = random.Random(20261020)
    scalars = [0, 1, -3, True, 10 ** 30 + 7, Fraction(3, 4), Fraction(-5, 12)]
    cases = [
        (gaussian_field(), lambda: _random_coords(rng, 2)),
        (sqrt_field(2), lambda: _random_coords(rng, 2)),
        (eighth_root_field(), lambda: _random_coords(rng, 4)),
        (quartic_root_field(7), lambda: _random_coords(rng, 4)),
        (with_imaginary_unit("quartic_root", 7),
         lambda: [_random_coords(rng, 4), _random_coords(rng, 4)]),
    ]
    for ctx, draw in cases:
        # a second context object with the same key takes the `_other` route
        twin = FieldContext(ctx.minpolys, ctx.names)
        assert twin is not ctx and twin._key == ctx._key
        elements = [ctx.zero, ctx.one] + [ctx.element(draw()) for _ in range(20)]
        for x in elements:
            y = rng.choice(elements)
            for z in (y, FieldElement(twin, y.num, y.den)):
                assert _typed_pair(x + z) == _o_typed(_o_sum(x, z, 1)), (x, z)
                assert _typed_pair(z + x) == _o_typed(_o_sum(x, z, 1)), (x, z)
                assert _typed_pair(x - z) == _o_typed(_o_sum(x, z, -1)), (x, z)
                assert _typed_pair(x * z) == _o_typed(_o_product(x, z)), (x, z)
                assert _typed_pair(z * x) == _o_typed(_o_product(x, z)), (x, z)
                assert (x == z) is ((x.num, x.den) == (z.num, z.den))
            for q in scalars + [Fraction(rng.randint(-99, 99), rng.randint(1, 99))]:
                assert _typed_pair(x + q) == _o_typed(_o_sum(x, q, 1)), (x, q)
                assert _typed_pair(q + x) == _o_typed(_o_sum(x, q, 1)), (x, q)
                assert _typed_pair(x - q) == _o_typed(_o_sum(x, q, -1)), (x, q)
                assert _typed_pair(q - x) == _o_typed(_o_sum(-x, q, 1)), (x, q)
                assert _typed_pair(x * q) == _o_typed(_o_product(x, q)), (x, q)
                assert _typed_pair(q * x) == _o_typed(_o_product(x, q)), (x, q)
                assert (x == q) is (_o_other(ctx, q) == (x.num, x.den))
    # a mixed-context operand still fails, in either order
    x, other = gaussian_field().gen(), eighth_root_field().gen()
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b):
        for a, b in ((x, other), (other, x)):
            with pytest.raises(TypeError):
                op(a, b)
    assert x != other and not (x == other)
