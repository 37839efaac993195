"""Even integral lattices given by Gram matrices: constructors, exact
invariants, and the rank-two realization search inside diag(2,2,-2,-2).

Every lattice invariant and the rank-4 certificates run on Python ints
only, and the determinants share one Bareiss fraction-free elimination
step.  The same elimination over `MultiPoly` certifies the rank-4 block
determinant identity once, symbolically.  Discriminant data needs no
unimodular transforms: the invariant factors are a Smith form taken mod
|det|, so no entry outgrows |det|, and delta is read off the diagonal of
the inverse Gram from one fraction-free Gauss-Jordan elimination, which
also gives the signature and the determinant.  The realization results are
certified by explicit vectors and minor gcds rather than by citation.

The rank-4 classification reads the block Grams as Hermitian forms over
Z[i], with J as multiplication by i.  The Hermitian determinant
4nm - b^2 - c^2 = -4 gives the signature (2,2) by its sign, and G = 2H with
H unimodular gives the Smith form (2,2,2,2) and delta (1 exactly when H is
odd), with no Smith form or signature taken.  The certificate basis
(x, Jx, y, Jy) onto diag(2,2,-2,-2) is built, not searched for: an
isotropic vector read off the form, completed to a basis and diagonalised
by Euclid in Z[i], so it exists for every integer point, not only inside a
box; J, the Gaussian scalings and the Hermitian products take closed forms
on the four real coordinates.  The rank-two realizations' `j_apply` is
D BLOCK_J D for the isometry D = diag(1, -1, 1, 1) of diag(2,2,-2,-2), so
both complex structures realize the same n.  The rank-4 grid solves m by
one exact division and the t_n evidence looks its candidates up in a table
of sums of two squares.
"""

from itertools import chain
from math import gcd
from operator import mul, ne

# a lazy module: only block_gram_det_identity runs it
from . import multipoly


# -- exact matrix helpers ------------------------------------------------------


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def _int_matrix(a):
    """A copy of `a` with int entries; ValueError on a non-integral entry."""
    m = [list(map(int, row)) for row in a]
    # list rows compare with the input row by row; tuple rows never equal
    # lists, so those are compared entry by entry
    if m != a and any(map(ne, chain.from_iterable(m), chain.from_iterable(a))):
        raise ValueError("matrix entries must be integers")
    return m


def _bareiss_step(m, k, prev, rows):
    """Eliminate column k from `rows` against the pivot m[k][k] in place,
    in the columns right of k, and return the pivot.  If every trailing
    entry of a row below was a k-minor bordering the leading k x k block,
    whose determinant is `prev`, each becomes the (k+1)-minor bordering the
    leading (k+1) x (k+1) block, so the division is exact.  The rows above
    the pivot stay minors in the same way (Gauss-Jordan)."""
    pivot_row = m[k]
    pivot = pivot_row[k]
    cols = range(k + 1, len(pivot_row))
    for row in rows:
        f = row[k]
        for j in cols:
            row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
    return pivot


def mat_det(a):
    """Determinant of an integer matrix by Bareiss elimination, swapping in
    a row with a nonzero entry for a zero pivot."""
    return _bareiss_det(_int_matrix(a))


def _bareiss_det(m):
    """Determinant of the square matrix m, eliminated in place.  Entries are
    ints or exact-division polynomials (`MultiPoly`, whose `//` raises on a
    remainder): Bareiss' divisions are exact over any integral domain."""
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        prev = _bareiss_step(m, k, prev, m[k + 1:])
    return sign * m[n - 1][n - 1] if n else 1


def direct_sum(*grams):
    total = sum(len(g) for g in grams)
    out = [[0] * total for _ in range(total)]
    offset = 0
    for g in grams:
        for i, row in enumerate(g):
            for j, x in enumerate(row):
                out[offset + i][offset + j] = x
        offset += len(g)
    return out


def twist(gram, n):
    return [[n * x for x in row] for row in gram]


# -- stock Gram matrices -------------------------------------------------------

U_GRAM = [[0, 1], [1, 0]]
A1_GRAM = [[2]]

# Bourbaki numbering: the chain 1-3-4-5-6-7 with node 2 hanging off node 4;
# negative definite convention, so +1 on edges
_E7_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4))


def _e7_gram():
    g = [[-2 if i == j else 0 for j in range(7)] for i in range(7)]
    for a, b in _E7_EDGES:
        g[a - 1][b - 1] = 1
        g[b - 1][a - 1] = 1
    return g


E7_GRAM = _e7_gram()


def neron_severi_gram():
    """U + E7 + E7 + [-2] + [-2]: rank 18, signature (1,17)."""
    m2 = twist(A1_GRAM, -1)
    return direct_sum(U_GRAM, E7_GRAM, E7_GRAM, m2, m2)


def transcendental_gram():
    """diag(2,2,-2,-2): signature (2,2), 2-elementary with delta = 1."""
    m2 = twist(A1_GRAM, -1)
    return direct_sum(A1_GRAM, A1_GRAM, m2, m2)


_PRESETS = {
    "U": lambda: [row[:] for row in U_GRAM],
    "A1": lambda: [row[:] for row in A1_GRAM],
    "E7": lambda: [row[:] for row in E7_GRAM],
    "N": neron_severi_gram,
    "T": transcendental_gram,
}


# the K3 lattice has rank 22; through `lattice_invariants` a plain sum of
# nine E7 (rank 63) takes about 0.04 s and a random connected even Gram of
# rank 64 about 0.4 s, growing a little faster than the cube of the rank
# as its determinant grows
MAX_GRAM_RANK = 64


def gram_build(spec):
    """Parse "NAME", "NAME(k)" (twist), or "+"-joined sums of those, of
    total rank at most MAX_GRAM_RANK (checked before the sum is built)."""
    parts = [p.strip() for p in spec.split("+")]
    grams = []
    rank = 0
    for part in parts:
        name, mult = part, 1
        if part.endswith(")") and "(" in part:
            name, arg = part[:-1].split("(", 1)
            try:
                mult = int(arg)
            except ValueError:  # not an integer, or more digits than int() reads
                raise ValueError("the twist of %s must be an integer" % name) from None
        if name not in _PRESETS:
            raise ValueError("unknown lattice preset %r" % name)
        g = _PRESETS[name]()
        rank += len(g)
        if rank > MAX_GRAM_RANK:
            raise ValueError("a Gram spec has rank at most %d" % MAX_GRAM_RANK)
        grams.append(twist(g, mult) if mult != 1 else g)
    return grams[0] if len(grams) == 1 else direct_sum(*grams)


# -- invariants ----------------------------------------------------------------


def _int_gram(gram):
    """A copy of `gram` with int entries; ValueError unless it is a square,
    symmetric matrix of integral values."""
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise ValueError("Gram matrix must be square")
    try:
        m = _int_matrix(gram)
    except ValueError:
        raise ValueError("Gram entries must be integers") from None
    if m != mat_transpose(m):
        raise ValueError("Gram matrix must be symmetric")
    return m


def _congruent_inverse(gram):
    """(signature, det, a) for a Gram G from `_int_gram`, where a is the
    diagonal of det H^-1 for a Gram H = P^T G P, |det P| = 1, of the same
    lattice.

    One fraction-free Gauss-Jordan elimination of [H | I] (Bareiss 1968):
    every row, not only those below, is eliminated against each pivot, so
    the left block ends as det I and the right one as det H^-1.  Pivots
    stay on the diagonal: a zero pivot is swapped (rows and columns) with a
    later nonzero diagonal entry, or, when the trailing diagonal is all
    zero, row and column j are added onto k to make the pivot 2*m[k][j].
    Both are congruences, so each pivot is the leading minor d_k of H, the
    last one is det H = det G, and the sign of d_k / d_(k-1), the k-th
    diagonal entry of the LDL^T form of H, counts toward s_plus or s_minus
    (Sylvester's law of inertia).  Column k of I is appended at step k, as
    the previous pivot in the pivot row: until then every entry of that
    column but the unit one stays 0, and the unit one is scaled to the last
    pivot, so each step touches n columns, not 2n."""
    n = len(gram)
    m = [list(row) for row in gram]
    plus = minus = 0
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if j is not None:
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if j is None:
                    raise ValueError("degenerate lattice")
                m[k] = [x + y for x, y in zip(m[k], m[j])]
                for row in m:
                    row[k] += row[j]
        for row in m:
            row.append(0)
        m[k][-1] = prev
        pivot = _bareiss_step(m, k, prev, m[:k] + m[k + 1:])
        if (pivot > 0) == (prev > 0):
            plus += 1
        else:
            minus += 1
        prev = pivot
    return (plus, minus), prev, [row[n + i] for i, row in enumerate(m)]


def signature(gram):
    """(s_plus, s_minus) of a nonsingular symmetric integer Gram."""
    return _congruent_inverse(_int_gram(gram))[0]


def _xgcd(a, b):
    """(g, s, u) with s*a + u*b = g = gcd(a, b) >= 0."""
    s0, s1, u0, u1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    return (a, s0, u0) if a >= 0 else (-a, -s0, -u0)


class LatticeInvariants:
    __slots__ = ("rank", "signature", "determinant", "invariant_factors",
                 "ell", "two_elementary", "delta")

    def __init__(self, rank, sig, det, factors, ell, two_elementary, delta):
        self.rank = rank
        self.signature = sig
        self.determinant = det
        self.invariant_factors = factors
        self.ell = ell
        self.two_elementary = two_elementary
        self.delta = delta

    def __repr__(self):
        return ("LatticeInvariants(rank=%d, signature=%r, det=%s, factors=%r, "
                "ell=%d, two_elementary=%r, delta=%r)" % (
                    self.rank, self.signature, self.determinant,
                    self.invariant_factors, self.ell, self.two_elementary,
                    self.delta))


def _invariant_factors(gram, r):
    """The invariant factors of a nonsingular integer matrix with |det| = r.

    adj(G) G = det I puts r Z^n inside G Z^n, so [G | r I] has the Smith
    form of G, and the elimination runs on Z/rZ: each entry is kept in
    [0, r), and a pivot p stands for its associate gcd(p, r) (Cohen, *A
    Course in Computational Algebraic Number Theory*, Alg. 2.4.14).  A
    column entry the pivot divides is cleared by a plain row subtraction,
    any other by a 2x2 Bezout step that turns the pivot into their gcd, so
    the pivot shrinks and never cycles.  With the column clear, the pivot
    row is dropped when g = gcd(p, r) divides the rest of it (column steps
    over Z/rZ would clear it and leave the trailing block as it is) and the
    whole trailing block.  Otherwise a column Bezout step shrinks the
    pivot, once a block row that g does not divide has been added onto the
    pivot row.  An all-zero trailing block stands for invariant factors r."""
    n = len(gram)
    m = [[x % r for x in row] for row in gram]
    factors = []
    for t in range(n):
        j = next((j for j in range(t, n) if any(row[j] for row in m[t:])), None)
        if j is None:
            factors += [r] * (n - t)
            break
        for row in m[t:]:
            row[t], row[j] = row[j], row[t]
        # the smallest entry of the first nonzero column is the pivot
        _, i = min((row[t], i) for i, row in enumerate(m[t:], t) if row[t])
        m[t], m[i] = m[i], m[t]
        top = m[t]
        while True:
            for row in m[t + 1:]:
                p, b = top[t], row[t]
                if not b:
                    continue
                if b % p == 0:
                    q = b // p
                    row[t:] = [(y - q * x) % r for x, y in zip(top[t:], row[t:])]
                else:
                    g, s, u = _xgcd(p, b)
                    pairs = list(zip(top[t:], row[t:]))
                    top[t:] = [(s * x + u * y) % r for x, y in pairs]
                    row[t:] = [(p // g * y - b // g * x) % r for x, y in pairs]
            p = top[t]
            g = gcd(p, r)
            if g == 1:
                # 1 divides every entry left
                break
            j = next((j for j in range(t + 1, n) if top[j] % g), None)
            if j is not None:
                w = top[j]
                h, s, u = _xgcd(p, w)
                for row in m[t:]:
                    x, y = row[t], row[j]
                    row[t], row[j] = (s * x + u * y) % r, (p // h * y - w // h * x) % r
                continue
            row = next((row for row in m[t + 1:] if any(x % g for x in row[t + 1:])), None)
            if row is None:
                break
            top[t:] = [(x + y) % r for x, y in zip(top[t:], row[t:])]
        factors.append(g)
    return factors


def lattice_invariants(gram):
    """Rank, signature, determinant, Smith form, ell, 2-elementarity, delta.

    The invariant factors are the Smith form taken mod |det|
    (`_invariant_factors`), so no entry outgrows |det| and no unimodular
    transform is kept.  delta is only meaningful for 2-elementary lattices,
    None otherwise: 0 when the discriminant quadratic form
    q(v) = v^T G^-1 v mod 2Z takes integer values on A_L = G^-1 Z^n / Z^n,
    1 otherwise.  On a 2-elementary lattice 2 G^-1 is integral, so
    q(v + w) - q(v) - q(w) = 2 v^T G^-1 w is an integer, q mod Z is
    additive, and it is integral on all of A_L exactly when it is on the
    basis vectors G^-1 e_i: delta = 0 iff each diagonal entry of G^-1 is
    an integer, in any basis of L, read off one elimination of [H | I]
    (`_congruent_inverse`) that also gives the signature and determinant.
    """
    gram = _int_gram(gram)
    sig, det, scaled = _congruent_inverse(gram)
    factors = tuple(_invariant_factors(gram, abs(det)))
    nontrivial = [x for x in factors if x > 1]
    two_elem = all(x == 2 for x in nontrivial)
    # scaled is the diagonal of det H^-1
    delta = int(any(x % det for x in scaled)) if two_elem else None
    return LatticeInvariants(len(gram), sig, det, factors, len(nontrivial), two_elem, delta)


# -- rank-two realizations inside diag(2,2,-2,-2) ------------------------------


AMBIENT_GRAM = transcendental_gram()


def j_apply(a):
    """The Gaussian-integer structure on the ambient rank-4 lattice."""
    return (a[1], -a[0], -a[3], a[2])


def form_value(a):
    """Half the ambient square: a1^2 + a2^2 - a3^2 - a4^2."""
    return a[0] ** 2 + a[1] ** 2 - a[2] ** 2 - a[3] ** 2


def realization_minors(a):
    """The six 2x2 minors of the stacked pair (a, j_apply(a)), columns
    (0,1), (0,2), (0,3), (1,2), (1,3), (2,3), in closed form.

    With a = (a0, a1, a2, a3) the pair spans the Z[i]-line through
    (u, v) = (a0 - a1 i, a2 + a3 i), on which J acts as multiplication by
    i.  The minors are the Pluecker coordinates of a complex line, so they
    take only four values up to sign: -|u|^2, |v|^2, and, twice each, the
    real and imaginary parts of u conj(v) = d - s i, with
    d = a0 a2 - a1 a3 and s = a0 a3 + a1 a2.  In order they are
    (-|u|^2, -s, d, d, s, |v|^2)."""
    a0, a1, a2, a3 = a
    s = a0 * a3 + a1 * a2
    d = a0 * a2 - a1 * a3
    return (-(a0 * a0 + a1 * a1), -s, d, d, s, a2 * a2 + a3 * a3)


def minor_gcd(a):
    return gcd(*realization_minors(a))


def pair_gram(a):
    """Gram of (a, j_apply(a)) under the ambient form."""
    b = j_apply(a)

    def ip(x, y):
        return sum(x[i] * AMBIENT_GRAM[i][i] * y[i] for i in range(4))

    return [[ip(a, a), ip(a, b)], [ip(b, a), ip(b, b)]]


def tn_gram(n):
    return [[2 * n, 0], [0, 2 * n]]


def kummer_tn(m):
    """Transcendental Gram of the Kummer surface of a product with CM by i
    and isogeny degree m: diag(4m, 4m), i.e. the n = 2m member."""
    if m < 1:
        raise ValueError("degree must be positive")
    return [[4 * m, 0], [0, 4 * m]]


class RealizationVector:
    __slots__ = ("a", "n", "minors", "gcd")

    def __init__(self, a):
        a = tuple(int(x) for x in a)
        n = form_value(a)
        if n <= 0:
            raise ValueError("form value must be positive")
        g = minor_gcd(a)
        if g != 1:
            raise ValueError("vector pair is not primitive (minor gcd %d)" % g)
        self.a = a
        self.n = n
        self.minors = realization_minors(a)
        self.gcd = g

    def gram(self):
        return pair_gram(self.a)

    def __repr__(self):
        return "RealizationVector(a=%r, n=%d)" % (self.a, self.n)


class Obstructed:
    __slots__ = ("n", "transcript", "evidence")

    def __init__(self, n, transcript, evidence=None):
        self.n = n
        self.transcript = transcript
        self.evidence = evidence

    def __repr__(self):
        return "Obstructed(n=%d)" % self.n


_OBSTRUCTION_TRANSCRIPT = (
    "squares are 0 or 1 mod 4, so a1^2+a2^2-a3^2-a4^2 = n = 2 mod 4 forces",
    "(a1^2,a2^2,a3^2,a4^2) = (1,1,0,0) or (0,0,1,1) mod 4",
    "case (1,1,0,0): a1,a2 odd and a3,a4 even, so the minors",
    "  -(a1^2+a2^2) = 2 mod 4, a3^2+a4^2 = 0 mod 4,",
    "  a1*a3-a2*a4 and a1*a4+a2*a3 = odd*even+odd*even = 0 mod 2",
    "are all even; case (0,0,1,1) is symmetric",
    "every candidate pair has minor gcd >= 2: never primitive",
)


def tn_obstruction_evidence(n, bound=12):
    """Exhaustive search report: no primitive vector with form value n and
    coordinates bounded by `bound`.  The pairs (a3, a4) of the box are
    tabled by a3^2 + a4^2, so each (a1, a2) finds its candidates with one
    lookup at a1^2 + a2^2 - n.  The minor gcd of a candidate is
    gcd(g0, s, d), for its minors +-s, +-d (`realization_minors`) and
    g0 = gcd(a1^2 + a2^2, n), taken once per (a1, a2)."""
    if bound < 0:
        raise ValueError("evidence bound must be nonnegative")
    rng = range(-bound, bound + 1)
    by_norm = {}
    for a3 in rng:
        for a4 in rng:
            by_norm.setdefault(a3 * a3 + a4 * a4, []).append((a3, a4))
    candidates = 0
    primitive = 0
    for a1 in rng:
        for a2 in rng:
            norm = a1 * a1 + a2 * a2
            found = by_norm.get(norm - n)
            if found is None:
                continue
            # the minors -|u|^2 and |v|^2 = |u|^2 - n have gcd(|u|^2, n)
            g0 = gcd(norm, n)
            candidates += len(found)
            for a3, a4 in found:
                if gcd(g0, a1 * a4 + a2 * a3, a1 * a3 - a2 * a4) == 1:
                    primitive += 1
    return {"bound": bound, "candidates": candidates,
            "primitive_found": primitive}


def tn_search(n, evidence_bound=0):
    """A primitive realization vector for n != 2 mod 4, or the obstruction.

    Odd n = 2k+1 uses consecutive integers a = (k+1, 0, k, 0); n = 0 mod 4
    uses a = (k+1, 1, k, 0) with the odd k = n/2 - 1.  Both have form value
    n and minor gcd 1: the minors include the coprime (k+1)^2 and k^2 in the
    odd case, and k and (k+1)^2 + 1, with gcd(k, 2) = 1, in the other.  Both
    facts are verified on the spot, and a failure raises AssertionError.
    n = 2 mod 4 returns the residue argument, plus an exhaustive search
    report when evidence_bound > 0; a negative evidence_bound raises
    ValueError.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if evidence_bound < 0:
        raise ValueError("evidence bound must be nonnegative")
    if n % 4 == 2:
        evidence = tn_obstruction_evidence(n, evidence_bound) if evidence_bound else None
        return Obstructed(n, _OBSTRUCTION_TRANSCRIPT, evidence)
    if n % 2 == 1:
        k = (n - 1) // 2
        a = (k + 1, 0, k, 0)
    else:
        k = n // 2 - 1
        a = (k + 1, 1, k, 0)
    if form_value(a) != n or minor_gcd(a) != 1:
        raise AssertionError("closed-form realization %r fails for n=%d" % (a, n))
    return RealizationVector(a)


# -- the rank-4 classification search ------------------------------------------


def gaussian_block_gram(n, m, b, c):
    """Gram of a Z[i]-hermitian rank-2 form in real coordinates: diagonal
    blocks 2n, 2m and off-diagonal block b+ci."""
    return [
        [2 * n, 0, b, c],
        [0, 2 * n, -c, b],
        [b, -c, 2 * m, 0],
        [c, b, 0, 2 * m],
    ]


BLOCK_J = [
    [0, -1, 0, 0],
    [1, 0, 0, 0],
    [0, 0, 0, -1],
    [0, 0, 1, 0],
]


def _block_j(v):
    """BLOCK_J v in closed form: multiplication by i on each Gaussian
    coordinate v0 + v1 i and v2 + v3 i."""
    return [-v[1], v[0], -v[3], v[2]]


def block_gram_det_identity():
    """det(gaussian_block_gram(n, m, b, c)) == (4nm - b^2 - c^2)^2 as
    polynomials in (n, m, b, c): the Bareiss determinant over `MultiPoly`,
    so the identity holds at every integer point, not only in a box."""
    names = ("n", "m", "b", "c")
    n, m, b, c = (multipoly.MultiPoly.gen(names, v) for v in names)
    det = _bareiss_det(gaussian_block_gram(n, m, b, c))
    return det == (4 * n * m - b * b - c * c) ** 2


def _gaussian_quotient(a, b):
    """a / b rounded to the nearest Gaussian integer, exact when b divides a;
    a and b are (re, im) pairs."""
    (ar, ai), (br, bi) = a, b
    norm = br * br + bi * bi
    # a conj(b) = (ar br + ai bi) + (ai br - ar bi) i, rounded part by part
    return ((2 * (ar * br + ai * bi) + norm) // (2 * norm),
            (2 * (ai * br - ar * bi) + norm) // (2 * norm))


def _gaussian_sub_mul(a, q, b):
    """a - q b for Gaussian integers given as (re, im) pairs."""
    return a[0] - q[0] * b[0] + q[1] * b[1], a[1] - q[0] * b[1] - q[1] * b[0]


def _gaussian_xgcd(a, b):
    """(g, s, t) with s a + t b = g, a gcd of the Gaussian integers a and b
    given as (re, im) pairs: Euclid with each quotient rounded to the nearest
    Gaussian integer, so each remainder has at most half the norm of b."""
    s, t, s1, t1 = (1, 0), (0, 0), (0, 0), (1, 0)
    while any(b):
        q = _gaussian_quotient(a, b)
        a, b = b, _gaussian_sub_mul(a, q, b)
        s, s1 = s1, _gaussian_sub_mul(s, q, s1)
        t, t1 = t1, _gaussian_sub_mul(t, q, t1)
    return a, s, t


def certificate_basis(gram):
    """A unimodular basis (x, Jx, y, Jy) with Gram diag(2,2,-2,-2), or None
    exactly when there is none.

    Existence certifies the lattice is the standard one as a Z[i]-module,
    since the new basis intertwines the block J action.  The Gram must have
    integer entries (ValueError otherwise).

    Such a basis commutes with J, so only a J-invariant Gram, which is
    `gaussian_block_gram(n, m, b, c)` read off its own entries, can have
    one.  With v = (x, y) in Z[i]^2 (J is multiplication by i) it is
    v^T G v = 2 h(v) for the Hermitian form h = [[n, g], [conj g, m]],
    g = (b - ci)/2, and the target is h = diag(1, -1): so h must be
    integral, of determinant nm - |g|^2 = -1 and odd (n or m odd), and then
    it is built by Euclid in Z[i], with no search (the classification of
    unimodular Hermitian forms over Z[i]; Elstrodt, Grunewald and Mennicke,
    *Groups Acting on Hyperbolic Space*, Ch. 9):

    - n h(v) = |n x + g y|^2 - |y|^2, so e = (1 - g, n), or (1, 0) when
      n = 0, is isotropic; it is divided by its Gaussian gcd;
    - Gaussian Bezout completes e to a basis (e, f), and h(e, f) = u is a
      unit, since h is unimodular and h(e) = 0;
    - h(f) is odd, as h is, and f + ((1 - h(f)) / 2) u e has h = 1;
    - y = e - h(f, e) f is orthogonal to f, with h(y) = -1.

    The basis is checked in full (|det P| = 1, P^T G P, and its second and
    fourth columns BLOCK_J x and BLOCK_J y, which P^T G P cannot tell from
    -J), and a failure raises AssertionError."""
    gram = _int_matrix(gram)
    if len(gram) != 4 or len(gram[0]) != 4:
        return None
    n, m, b, c = gram[0][0] // 2, gram[3][3] // 2, gram[0][2], gram[0][3]
    if (gram != gaussian_block_gram(n, m, b, c) or b % 2 or c % 2
            or 4 * n * m - b * b - c * c != -4 or not (n % 2 or m % 2)):
        return None

    half_b, half_c = b // 2, c // 2

    def scale(k, v):
        # the Gaussian multiple k v, in real coordinates
        (k0, k1), (v0, v1, v2, v3) = k, v
        return [k0 * v0 - k1 * v1, k0 * v1 + k1 * v0, k0 * v2 - k1 * v3, k0 * v3 + k1 * v2]

    def h(v, w):
        # G w / 2 = (p0, p1, q0, q1) = (n x + g y, conj(g) x + m y) for
        # w = (x, y); then Re h(v, w) = v . (G w / 2) and Im h(v, w) = Jv . (G w / 2)
        v0, v1, v2, v3 = v
        w0, w1, w2, w3 = w
        p0 = n * w0 + half_b * w2 + half_c * w3
        p1 = n * w1 - half_c * w2 + half_b * w3
        q0 = half_b * w0 - half_c * w1 + m * w2
        q1 = half_c * w0 + half_b * w1 + m * w3
        return v0 * p0 + v1 * p1 + v2 * q0 + v3 * q1, v0 * p1 - v1 * p0 + v2 * q1 - v3 * q0

    alpha, beta = ((1 - half_b, half_c), (n, 0)) if n else ((1, 0), (0, 0))
    d, s, t = _gaussian_xgcd(alpha, beta)
    e = _gaussian_quotient(alpha, d) + _gaussian_quotient(beta, d)
    # s alpha + t beta = d, so the Gaussian determinant of (e, f) is 1
    f = [-t[0], -t[1], s[0], s[1]]
    r = (1 - h(f, f)[0]) // 2
    u = h(e, f)
    x = [fi + ki for fi, ki in zip(f, scale((r * u[0], r * u[1]), e))]
    y = [ei - ki for ei, ki in zip(e, scale(h(x, e), x))]
    jx, jy = _block_j(x), _block_j(y)
    p = [[x[i], jx[i], y[i], jy[i]] for i in range(4)]
    if (abs(mat_det(p)) != 1 or mat_mul(mat_transpose(p), mat_mul(gram, p)) != AMBIENT_GRAM
            or mat_vec(BLOCK_J, x) != jx or mat_vec(BLOCK_J, y) != jy):
        raise AssertionError("constructed certificate fails for %r" % (gram,))
    return p


class Rank4Classification:
    __slots__ = ("bound", "survivors", "delta_one", "delta_zero", "canonical",
                 "det_identity", "all_certified")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def __repr__(self):
        return ("Rank4Classification(bound=%d, survivors=%d, delta_one=%d, "
                "delta_zero=%d, canonical=%r)" % (
                    self.bound, len(self.survivors), len(self.delta_one),
                    len(self.delta_zero), self.canonical))


RANK4_BOUND = 4


def rank4_classification_check():
    """Enumerate J-invariant block Grams with |n|,|m|,|b|,|c| <= RANK4_BOUND
    and keep those with |det| = 16 and signature (2,2).

    `det_identity` is the symbolic identity det = (4nm - b^2 - c^2)^2
    (`block_gram_det_identity`).  As a Hermitian form over Z[i] the block
    Gram is [[2n, b + ci], [b - ci, 2m]], with determinant 4nm - b^2 - c^2
    and each complex eigenvalue doubled in real coordinates: a negative
    determinant means one eigenvalue of each sign, real signature (2,2), and
    a positive one a definite form.  So the survivors are exactly
    4nm - b^2 - c^2 = -4: m is solved from it for each (n, b, c), and no
    determinant or signature is taken.

    b^2 + c^2 = 4(nm + 1) forces b and c even, so G = 2H with H the integral
    block Gram of (n, m, b/2, c/2), whose determinant is 16 / 16 = 1 by the
    same identity.  H is unimodular, so every survivor has Smith form
    (2, 2, 2, 2), and its discriminant form q(v / 2) = v^T H^-1 v / 2 is
    integral exactly when H is even: delta = 1 exactly when n or m is odd.
    The delta = 1 survivors each get an explicit change-of-basis certificate
    onto diag(2,2,-2,-2), built by Euclid in Z[i] (`certificate_basis`);
    the delta = 0 ones have an integral discriminant form and are excluded
    from being the transcendental form.  The b = c = 0 survivors are exactly
    nm = -1.
    """
    det_identity = block_gram_det_identity()
    rng = range(-RANK4_BOUND, RANK4_BOUND + 1)
    survivors = []
    for n in rng:
        for b in rng:
            for c in rng:
                # 4nm = rhs: one m for n != 0, every m or none for n = 0
                rhs = b * b + c * c - 4
                if n:
                    m, r = divmod(rhs, 4 * n)
                    if not r and abs(m) <= RANK4_BOUND:
                        survivors.append((n, m, b, c))
                elif not rhs:
                    survivors.extend((n, m, b, c) for m in rng)
    survivors.sort()
    delta_one = []
    delta_zero = []
    all_certified = True
    for tup in survivors:
        n, m, b, c = tup
        if b % 2 or c % 2:
            raise AssertionError("unexpected Smith form for %r" % (tup,))
        if n % 2 or m % 2:
            cert = certificate_basis(gaussian_block_gram(*tup))
            if cert is None:
                all_certified = False
            delta_one.append((tup, cert))
        else:
            delta_zero.append(tup)
    canonical = sorted(
        {(n, m) for (n, m, b, c) in survivors if b == 0 and c == 0}
    )
    return Rank4Classification(
        bound=RANK4_BOUND,
        survivors=survivors,
        delta_one=delta_one,
        delta_zero=delta_zero,
        canonical=canonical,
        det_identity=det_identity,
        all_certified=all_certified,
    )
