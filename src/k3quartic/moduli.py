"""Exact 2x2 matrix groups for the period domain.

The ball model carries the unitary groups over Z[i] (SU(1,1) and its
integral subgroup), the half-plane side carries two congruence subgroups of
SL(2,Z), and the Cayley matrix transfers one side to the other.  Everything
here is decidable arithmetic: entries are Fractions or FieldElements, and
every claimed identity is multiplied out exactly.  Moebius equality is up to
a nonzero scalar, tested through the adjugate.
"""

from fractions import Fraction
import random

from .fields import (
    FieldElement,
    gaussian_field,
    imaginary_unit,
    sqrt_field,
)
from .lattices import AMBIENT_GRAM, BLOCK_J, mat_mul, mat_transpose, mat_vec
from .polynomials import qdiv

# -- generic 2x2 helpers -------------------------------------------------------


def mat2(a, b, c, d):
    return ((a, b), (c, d))


def m_mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def m_det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def m_adj(m):
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def m_inv(m):
    det = m_det(m)
    if not det:
        raise ZeroDivisionError("singular matrix")
    a = m_adj(m)
    if det == 1:
        return a
    return tuple(tuple(qdiv(x, det) for x in row) for row in a)


def m_neg(m):
    return tuple(tuple(-x for x in row) for row in m)


def m_eq(x, y):
    return all(x[i][j] == y[i][j] for i in range(2) for j in range(2))


IDENTITY = mat2(1, 0, 0, 1)


def is_scalar_matrix(m):
    return m[0][1] == 0 and m[1][0] == 0 and m[0][0] == m[1][1] and m[0][0] != 0


def scalar_equivalent(x, y):
    """Moebius equality: x ~ y when x * adj(y) is a nonzero scalar."""
    return is_scalar_matrix(m_mul(x, m_adj(y)))


def _conj_entry(x):
    if isinstance(x, FieldElement):
        return x.conj()
    return x


def m_conj_transpose(m):
    return (
        (_conj_entry(m[0][0]), _conj_entry(m[1][0])),
        (_conj_entry(m[0][1]), _conj_entry(m[1][1])),
    )


def _re_im(x):
    """Exact (Re, Im) as Fractions, or None when x is not Gaussian-rational."""
    if isinstance(x, int):
        return Fraction(x), Fraction(0)
    if isinstance(x, Fraction):
        return x, Fraction(0)
    if isinstance(x, FieldElement):
        if x.is_rational:
            return x.rational(), Fraction(0)
        try:
            r, i = x.re(), x.im()
        except ValueError:
            return None
        if r.is_rational and i.is_rational:
            return r.rational(), i.rational()
        return None
    raise TypeError("matrix entries must be exact: int, Fraction, or FieldElement")


def _gaussian_integer(x):
    ri = _re_im(x)
    return ri is not None and ri[0].denominator == 1 and ri[1].denominator == 1


def _rational_integer(x):
    ri = _re_im(x)
    return ri is not None and ri[1] == 0 and ri[0].denominator == 1


def _as_int(x):
    return int(_re_im(x)[0])


ETA = mat2(1, 0, 0, -1)


# -- group membership ----------------------------------------------------------


class GroupMembershipReport:
    __slots__ = ("group", "verdict", "witness")

    def __init__(self, group, verdict, witness=None):
        self.group = group
        self.verdict = verdict
        self.witness = witness

    def __bool__(self):
        return self.verdict

    def __repr__(self):
        if self.verdict:
            return "GroupMembershipReport(%s: member)" % self.group
        return "GroupMembershipReport(%s: not a member, %s)" % (self.group, self.witness)


def _preserves_eta(m):
    return m_eq(m_mul(m_conj_transpose(m), m_mul(ETA, m)), ETA)


def _check_su11(m):
    # M* eta M = eta says eta M* eta = M^-1, which at det 1 is adj(M), so
    # there it reads d = conj(a) and c = conj(b) with no matrix product
    if m_det(m) != 1:
        if not _preserves_eta(m):
            return "M* diag(1,-1) M differs from diag(1,-1)"
        return "determinant is not 1"
    (a, b), (c, d) = m
    if d != _conj_entry(a) or c != _conj_entry(b):
        return "M* diag(1,-1) M differs from diag(1,-1)"
    return None


def _non_gaussian_entry(m):
    """The witness for the first entry of m that is not a Gaussian integer,
    or None."""
    return next(("entry %r is not a Gaussian integer" % (x,)
                 for row in m for x in row if not _gaussian_integer(x)), None)


def _check_gamma(m):
    witness = _non_gaussian_entry(m)
    if witness is None and not _preserves_eta(m):
        return "M* diag(1,-1) M differs from diag(1,-1)"
    return witness


def _check_g0(m):
    return _non_gaussian_entry(m) or _check_su11(m)


def _check_sl2z(m):
    for row in m:
        for x in row:
            if not _rational_integer(x):
                return "entry %r is not an integer" % (x,)
    if m_det(m) != 1:
        return "determinant is not 1"
    return None


def _check_h0(m):
    base = _check_sl2z(m)
    if base:
        return base
    a, b = _as_int(m[0][0]), _as_int(m[0][1])
    c, d = _as_int(m[1][0]), _as_int(m[1][1])
    if (a + d) % 2:
        return "a + d = %d is odd" % (a + d)
    if (b + c) % 2:
        return "b + c = %d is odd" % (b + c)
    return None


def _check_h2(m):
    base = _check_sl2z(m)
    if base:
        return base
    c = _as_int(m[1][0])
    if c % 2:
        return "c = %d is odd" % c
    return None


_GROUP_CHECKS = {
    "SU11": _check_su11,
    "GAMMA": _check_gamma,
    "G0": _check_g0,
    "SL2Z": _check_sl2z,
    "H0": _check_h0,
    "H2": _check_h2,
}


def membership(m, group):
    """Exact membership verdict with a witness for the violated condition."""
    key = group.upper()
    if key not in _GROUP_CHECKS:
        raise ValueError("unknown group %r" % group)
    witness = _GROUP_CHECKS[key](m)
    return GroupMembershipReport(key, witness is None, witness)


# -- declared generators and distinguished elements ----------------------------


def _gaussian_i():
    return imaginary_unit(gaussian_field())


def h0_generators():
    return (
        mat2(1, 2, 0, 1),
        mat2(1, 0, 2, 1),
        mat2(0, -1, 1, 0),
        mat2(-1, 0, 0, -1),
    )


def h2_generators():
    return (
        mat2(1, 1, 0, 1),
        mat2(1, -1, 2, -1),
        mat2(1, 0, 2, 1),
    )


def g0_generators():
    i = _gaussian_i()
    return (
        mat2(i, 0, 0, -i),
        mat2(1 + i, 1, 1, 1 - i),
        mat2(2 + i, 2, 2, 2 - i),
    )


T_LOWER = mat2(1, 0, 1, 1)


def l_prime():
    """The order-4 unit diag(1, i): in the integral unitary group, but of
    determinant i, so outside SU(1,1)."""
    return mat2(1, 0, 0, _gaussian_i())


def l_square_representative():
    """diag(i, -i): the determinant-1 representative of l_prime squared."""
    i = _gaussian_i()
    return mat2(i, 0, 0, -i)


def fricke_matrix():
    """[[0, -1/sqrt2], [sqrt2, 0]]: squares to -identity."""
    ctx = sqrt_field(2)
    s = ctx.gen()
    zero = ctx.zero
    return mat2(zero, -(s ** -1), s, zero)


def upsilon_matrix(sqrt2=None):
    """(1/sqrt2)[[1,-1],[1,1]].  Defaults to Q(sqrt2); pass an explicit
    square root of 2 (say zeta8 - zeta8^3) to build it in another field."""
    s = sqrt2 if sqrt2 is not None else sqrt_field(2).gen()
    h = s ** -1
    return mat2(h, -h, h, h)


# -- Cayley transfer -----------------------------------------------------------


def _entry_re(x):
    if isinstance(x, FieldElement):
        return x.re()
    return x


def _entry_im(x):
    if isinstance(x, FieldElement):
        return x.im()
    return Fraction(0)


def cayley(m):
    """Transfer an SU(1,1) matrix to the half-plane side:
    [[Re a + Im b, Re b + Im a], [Re b - Im a, Re a - Im b]] for top row (a, b).
    """
    witness = _check_su11(m)
    if witness:
        raise ValueError("matrix is not in SU(1,1): %s" % witness)
    a, b = m[0][0], m[0][1]
    ra, ia = _entry_re(a), _entry_im(a)
    rb, ib = _entry_re(b), _entry_im(b)
    return mat2(ra + ib, rb + ia, rb - ia, ra - ib)


def _imaginary_for(entries):
    for x in entries:
        if isinstance(x, FieldElement):
            return imaginary_unit(x.ctx)
    return _gaussian_i()


def inverse_cayley(n):
    """Rebuild the SU(1,1) matrix from a half-plane one:
    a = ((alpha+delta) + i(beta-gamma))/2, b = ((beta+gamma) + i(alpha-delta))/2.
    """
    alpha, beta = n[0][0], n[0][1]
    gamma, delta = n[1][0], n[1][1]
    i = _imaginary_for((alpha, beta, gamma, delta))
    half = Fraction(1, 2)
    a = (alpha + delta + i * (beta - gamma)) * half
    b = (beta + gamma + i * (alpha - delta)) * half
    return mat2(a, b, _conj_entry(b), _conj_entry(a))


def _gaussian_m_mul(x, y):
    """x y for 2x2 matrices of Gaussian integers held as (re, im) int pairs."""
    return tuple(tuple((a[0] * c[0] - a[1] * c[1] + b[0] * d[0] - b[1] * d[1],
                        a[0] * c[1] + a[1] * c[0] + b[0] * d[1] + b[1] * d[0])
                       for c, d in zip(*y)) for a, b in x)


def su11_samples(count=100, seed=20260819):
    """Deterministic pseudo-random words of length 1 to 6 in the integral
    generators.  Every entry of a word is a Gaussian field element.  The
    words are multiplied as Gaussian-integer (re, im) pairs, and each entry
    is lifted to Q(i) once at the end."""
    gens = g0_generators()
    field = gens[0][0][0].ctx
    alphabet = [tuple(tuple(tuple(map(int, _re_im(x))) for x in row) for row in g)
                for g in list(gens) + [m_adj(g) for g in gens]]  # det 1: adjugate inverts
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        length = rng.randint(1, 6)
        word = rng.choice(alphabet)
        for _ in range(length - 1):
            word = _gaussian_m_mul(word, rng.choice(alphabet))
        out.append(tuple(tuple(FieldElement(field, x, 1) for x in row) for row in word))
    return out


# -- the Fricke-structure identity bundle --------------------------------------


def _all_member(mats, group):
    for m in mats:
        rep = membership(m, group)
        if not rep:
            return "%r: %s" % (m, rep.witness)
    return None


def fricke_checks():
    """Every conjugation identity in the half-plane/ball dictionary, as an
    ordered name -> (passed, witness) map.  All are exact multiplications."""
    checks = {}

    def record(name, witness):
        checks[name] = (witness is None, witness)

    h0 = h0_generators()
    h2 = h2_generators()
    g0 = g0_generators()
    record("h0_generators_in_h0", _all_member(h0, "H0"))
    record("h2_generators_in_h2", _all_member(h2, "H2"))
    record("g0_generators_in_g0", _all_member(g0, "G0"))

    t = T_LOWER
    t_inv = m_adj(t)
    record(
        "t_conjugates_h0_into_h2",
        _all_member([m_mul(t, m_mul(g, t_inv)) for g in h0], "H2"),
    )
    record(
        "t_inverse_conjugates_h2_into_h0",
        _all_member([m_mul(t_inv, m_mul(h, t)) for h in h2], "H0"),
    )

    f = fricke_matrix()
    f2 = m_mul(f, f)
    ok = m_eq(f2, m_neg(IDENTITY)) and scalar_equivalent(f2, IDENTITY)
    record("fricke_squares_to_minus_identity", None if ok else repr(f2))

    f_inv = m_inv(f)
    witness = None
    for h in h2:
        conj = m_mul(f, m_mul(h, f_inv))
        a, b = h[0][0], h[0][1]
        c, d = h[1][0], h[1][1]
        expected = mat2(d, Fraction(-c, 2), -2 * b, a)
        if not m_eq(conj, expected):
            witness = "F %r F^-1 = %r" % (h, conj)
            break
        rep = membership(expected, "H2")
        if not rep:
            witness = "%r: %s" % (expected, rep.witness)
            break
    record("fricke_normalizes_h2", witness)

    ups = upsilon_matrix()
    transfer = m_mul(f_inv, m_mul(t, m_mul(ups, t_inv)))
    expected = mat2(1, 0, -2, 1)
    ok = m_eq(transfer, expected) and membership(expected, "H2").verdict
    record("upsilon_transfer_matches_fricke", None if ok else repr(transfer))

    l2 = l_square_representative()
    lp = l_prime()
    ok = membership(l2, "G0").verdict and scalar_equivalent(m_mul(lp, lp), l2)
    record("quarter_turn_square_in_g0", None if ok else repr(l2))

    lp_inv = ((1, 0), (0, -_gaussian_i()))  # diag(1, -i)
    conjugates = [m_mul(lp_inv, m_mul(g, lp)) for g in g0]
    conjugates += [m_mul(lp, m_mul(g, lp_inv)) for g in g0]
    record("quarter_turn_normalizes_g0", _all_member(conjugates, "G0"))

    return checks


# -- period points and the Gaussian form ---------------------------------------


def _to_gaussian(x):
    if isinstance(x, FieldElement):
        return x
    return gaussian_field().from_rational(Fraction(x))


class PeriodPoint:
    __slots__ = ("w", "verdict", "form_value", "eigenvector_ok", "ball_consistent")

    def __init__(self, w, verdict, form_value, eigenvector_ok, ball_consistent):
        self.w = w
        self.verdict = verdict
        self.form_value = form_value
        self.eigenvector_ok = eigenvector_ok
        self.ball_consistent = ball_consistent

    def __repr__(self):
        return "PeriodPoint(w=%r, %s)" % (self.w, self.verdict)


def period_point(z2, z4):
    """Assemble z = (i z2, z2, i z4, z4), check J z = i z and the form value
    t(z) T conj(z) = 4(|z2|^2 - |z4|^2), and return the ball coordinate
    w = z4/z2 with the positivity verdict."""
    z2 = _to_gaussian(z2)
    z4 = _to_gaussian(z4)
    if not z2:
        raise ValueError("z2 must be nonzero")
    i = imaginary_unit(z2.ctx)
    z = (i * z2, z2, i * z4, z4)
    eigen_ok = mat_vec(BLOCK_J, z) == [i * x for x in z]
    conj = tuple(x.conj() for x in z)
    form = sum(
        z[r] * AMBIENT_GRAM[r][r] * conj[r] for r in range(4)
    ).rational()
    n2 = z2.norm_sq().rational()
    n4 = z4.norm_sq().rational()
    if form != 4 * (n2 - n4):
        raise AssertionError("form value mismatch")
    if n2 > n4:
        verdict = "inside"
    elif n2 == n4:
        verdict = "boundary"
    else:
        verdict = "outside"
    w = z4 / z2
    ball_consistent = (w.norm_sq().rational() < 1) == (verdict == "inside")
    return PeriodPoint(w, verdict, form, eigen_ok, ball_consistent)


def period_examples():
    """The stock period points (1,0), (1,1) and (2,i), as (label, point)."""
    two = gaussian_field().from_rational(2)
    return [(label, period_point(z2, z4)) for z2, z4, label in (
        (1, 0, "1,0"), (1, 1, "1,1"), (two, _gaussian_i(), "2,i"))]


def _real_coords(z, w):
    rz = _re_im(z)
    rw = _re_im(w)
    if rz is None or rw is None:
        raise ValueError("inputs must be Gaussian rationals")
    return (rz[0], rz[1], rw[0], rw[1])


def gaussian_form_check():
    """The Gram diag(2,2,-2,-2) on real coordinates of (z, w) in Z[i]^2 is
    2(|z|^2 - |w|^2), and multiplication by i matches the J matrix."""
    i = _gaussian_i()
    one = gaussian_field().from_rational(1)
    zero = gaussian_field().from_rational(0)
    samples = [
        (one, zero),
        (i, zero),
        (zero, one),
        (one + i, one),
        (one, one),
        (2 * one + i, one - 3 * i),
    ]
    form_ok = True
    i_action_ok = True
    for z, w in samples:
        v = _real_coords(z, w)
        q = sum(v[r] * AMBIENT_GRAM[r][r] * v[r] for r in range(4))
        if q != 2 * (z.norm_sq().rational() - w.norm_sq().rational()):
            form_ok = False
        if mat_vec(BLOCK_J, v) != list(_real_coords(i * z, i * w)):
            i_action_ok = False
    jt_g_j = mat_mul(mat_transpose(BLOCK_J), mat_mul(AMBIENT_GRAM, BLOCK_J))
    return {
        "gram_matches_hermitian_form": form_ok,
        "i_action_matches_j": i_action_ok,
        "j_is_isometry": jt_g_j == AMBIENT_GRAM,
    }
