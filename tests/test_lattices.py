import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

import pytest

from k3quartic import lattices
from k3quartic.lattices import (
    A1_GRAM,
    AMBIENT_GRAM,
    BLOCK_J,
    E7_GRAM,
    MAX_GRAM_RANK,
    Obstructed,
    RealizationVector,
    U_GRAM,
    _bareiss_det,
    _gaussian_xgcd,
    block_gram_det_identity,
    certificate_basis,
    direct_sum,
    form_value,
    gaussian_block_gram,
    gram_build,
    _int_matrix,
    _xgcd,
    j_apply,
    kummer_tn,
    lattice_invariants,
    mat_det,
    mat_mul,
    mat_transpose,
    mat_vec,
    minor_gcd,
    neron_severi_gram,
    pair_gram,
    rank4_classification_check,
    realization_minors,
    signature,
    tn_gram,
    tn_obstruction_evidence,
    tn_search,
    transcendental_gram,
    twist,
)
from k3quartic.multipoly import MultiPoly


def test_neron_severi_invariants():
    inv = lattice_invariants(neron_severi_gram())
    assert inv.rank == 18
    assert inv.signature == (1, 17)
    assert abs(inv.determinant) == 16
    assert inv.invariant_factors[-4:] == (2, 2, 2, 2)
    assert inv.ell == 4
    assert inv.two_elementary
    assert inv.delta == 1


def test_transcendental_invariants():
    inv = lattice_invariants(transcendental_gram())
    assert inv.rank == 4
    assert inv.signature == (2, 2)
    assert inv.determinant == 16
    assert inv.invariant_factors == (2, 2, 2, 2)
    assert inv.ell == 4
    assert inv.two_elementary
    assert inv.delta == 1


def test_hyperbolic_plane_invariants():
    inv = lattice_invariants(U_GRAM)
    assert inv.signature == (1, 1)
    assert inv.determinant == -1
    assert inv.ell == 0


def test_e7_convention():
    inv = lattice_invariants(E7_GRAM)
    assert inv.signature == (0, 7)
    assert inv.determinant == -2
    assert inv.ell == 1


def test_gram_build():
    assert gram_build("A1(-1)") == [[-2]]
    assert gram_build("U+E7+E7+A1(-1)+A1(-1)") == neron_severi_gram()
    assert gram_build("A1+A1+A1(-1)+A1(-1)") == transcendental_gram()
    assert gram_build("U(2)") == [[0, 2], [2, 0]]
    with pytest.raises(ValueError):
        gram_build("E8")
    assert len(gram_build("+".join(["U"] * (MAX_GRAM_RANK // 2)))) == MAX_GRAM_RANK
    with pytest.raises(ValueError, match="rank at most"):
        gram_build("+".join(["U"] * (MAX_GRAM_RANK // 2)) + "+A1")
    # the cap is met part by part, before any sum is allocated
    with pytest.raises(ValueError, match="rank at most"):
        gram_build("+".join(["N"] * 10 ** 5))


def test_direct_sum_multiplicativity():
    combined = lattice_invariants(direct_sum(U_GRAM, E7_GRAM))
    u, e7 = lattice_invariants(U_GRAM), lattice_invariants(E7_GRAM)
    assert combined.rank == u.rank + e7.rank
    assert combined.signature == (u.signature[0] + e7.signature[0],
                                  u.signature[1] + e7.signature[1])
    assert combined.determinant == u.determinant * e7.determinant


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# The Smith form with unimodular transforms that `lattice_invariants` took
# before it reduced mod |det|, kept verbatim as the oracle.
def smith_normal_form(mat):
    """Returns (d, left, right) with left*mat*right = diag(d), transforms
    unimodular, and d a divisibility chain of nonnegative integers.

    An entry the pivot does not divide is cleared by one 2x2 unimodular
    Bezout step that makes the pivot their gcd, so the pivot shrinks at
    each such step instead of cycling through Euclid swaps; on random 6x6
    to 9x9 matrices with entries up to 9 no entry of the transforms passes
    300 bits."""
    rows = len(mat)
    cols = len(mat[0])
    m = _int_matrix(mat)
    left = identity_matrix(rows)
    right = identity_matrix(cols)

    def row_op(i, j, a, b, c, e):
        # (row i, row j) <- (a*row i + b*row j, c*row i + e*row j)
        for mm in (m, left):
            ri, rj = mm[i], mm[j]
            mm[i] = [a * x + b * y for x, y in zip(ri, rj)]
            mm[j] = [c * x + e * y for x, y in zip(ri, rj)]

    def col_op(i, j, a, b, c, e):
        for mm in (m, right):
            for r in mm:
                x, y = r[i], r[j]
                r[i], r[j] = a * x + b * y, c * x + e * y

    def clear(op, t, k, b):
        # zero the entry b at k against the pivot at t
        p = m[t][t]
        if b % p == 0:
            op(t, k, 1, 0, -(b // p), 1)
        else:
            g, s, u = _xgcd(p, b)
            op(t, k, s, u, -(b // g), p // g)

    size = min(rows, cols)
    for t in range(size):
        # smallest nonzero entry in the trailing submatrix becomes the pivot
        best = min(((abs(m[i][j]), i, j) for i in range(t, rows)
                    for j in range(t, cols) if m[i][j]), default=None)
        if best is None:
            break
        _, i, j = best
        if i != t:
            row_op(t, i, 0, 1, 1, 0)
        if j != t:
            col_op(t, j, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, rows):
                if m[i][t]:
                    clear(row_op, t, i, m[i][t])
            for j in range(t + 1, cols):
                if m[t][j]:
                    clear(col_op, t, j, m[t][j])
            if any(m[i][t] for i in range(t + 1, rows)):
                continue
            # the pivot must divide the rest of the submatrix
            piv = m[t][t]
            fix = next((i for i in range(t + 1, rows)
                        if any(x % piv for x in m[i][t + 1:])), None)
            if fix is None:
                break
            row_op(t, fix, 1, 1, 0, 1)
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            left[t] = [-x for x in left[t]]
    d = [m[i][i] for i in range(size)]
    return d, left, right


def _random_matrices(seed, rows_cols, count):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rows_cols(rng)
        yield [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def _random_rectangular():
    return _random_matrices(3, lambda r: (r.randint(1, 5), r.randint(1, 5)), 120)


def test_smith_normal_form_transforms():
    mats = [U_GRAM, E7_GRAM, transcendental_gram(), [[4, 2], [2, 4]]]
    for mat in mats + list(_random_rectangular()):
        d, left, right = smith_normal_form(mat)
        prod = mat_mul(left, mat_mul(mat, right))
        cols = len(mat[0])
        assert prod == [[d[i] if i == j else 0 for j in range(cols)]
                        for i in range(len(mat))]
        assert abs(mat_det(left)) == 1
        assert abs(mat_det(right)) == 1
        for i in range(len(d) - 1):
            if d[i]:
                assert d[i + 1] % d[i] == 0


def _det_cases():
    """Seeded square matrices of size 1-6, with singular ones, ones whose
    leading pivot is zero and ones whose pivot vanishes mid-elimination."""
    cases = list(_random_matrices(1, lambda r: (r.randint(1, 6),) * 2, 150))
    for m in _random_matrices(2, lambda r: (r.randint(2, 6),) * 2, 90):
        variant = len(cases) % 3
        if variant == 0:
            m[0][0] = 0
        elif variant == 1:
            m[-1] = [a + b for a, b in zip(m[0], m[1])]
        else:
            for row in m:
                row[0] = 0
        cases.append(m)
    cases += [
        [[0]],
        [[0, 1], [1, 0]],
        gaussian_block_gram(0, 0, 2, 1),
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
        [[1, 2, 3], [2, 4, 7], [3, 6, 1]],
    ]
    return cases


def test_mat_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _det_cases():
        det = mat_det(m)
        assert type(det) is int
        assert det == sympy.Matrix(m).det(), m


def _signature_cases():
    """Seeded symmetric matrices of size 1-8, with a diagonal that is kept,
    partly zeroed or all zero, plus the stock Grams and every |det| = 16
    block Gram of the rank-4 search."""
    rng = random.Random(4)
    cases = []
    for size in range(1, 9):
        for variant in range(9):
            m = [[0] * size for _ in range(size)]
            for i in range(size):
                for j in range(i + 1):
                    m[i][j] = m[j][i] = rng.randint(-3, 3)
            for i in range(size):
                if variant % 3 == 2 or (variant % 3 == 1 and rng.random() < 0.5):
                    m[i][i] = 0
            cases.append(m)
    cases += [neron_severi_gram(), transcendental_gram(), E7_GRAM, gram_build("U(2)"),
              [[0, 1, 1], [1, 0, 1], [1, 1, 0]]]
    r = range(-4, 5)
    blocks = [gaussian_block_gram(*t) for t in itertools.product(r, r, r, r)]
    blocks = [g for g in blocks if abs(mat_det(g)) == 16]
    assert len(blocks) == 216
    return cases + blocks


def test_signature_matches_sympy_charpoly():
    sympy = pytest.importorskip("sympy")

    def variations(coeffs):
        signs = [c > 0 for c in coeffs if c]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    degenerate = 0
    for m in _signature_cases():
        # a symmetric matrix has only real eigenvalues, so Descartes' rule of
        # signs counts the positive ones exactly, and p(-x) the negative ones
        coeffs = sympy.Matrix(m).charpoly().all_coeffs()
        if coeffs[-1] == 0:
            degenerate += 1
            with pytest.raises(ValueError, match="degenerate lattice"):
                signature(m)
            continue
        n = len(m)
        flipped = [c * (-1) ** (n - i) for i, c in enumerate(coeffs)]
        assert signature(m) == (variations(coeffs), variations(flipped)), m
    assert degenerate > 5


def test_mat_det_rejects_non_integral_entries():
    assert mat_det([[Fraction(4), 1], [1, 2.0]]) == 7
    with pytest.raises(ValueError):
        mat_det([[Fraction(1, 2)]])
    with pytest.raises(ValueError):
        mat_det([[2, 0], [0, 2.5]])


def _sympy_invariant_factors(m):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    expected = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
    return [abs(expected[i, i]) for i in range(min(len(m), len(m[0])))]


def test_smith_invariant_factors_match_sympy():
    # the oracle on any matrix, and lattice_invariants on nonsingular Grams
    for m in list(_random_rectangular()) + _det_cases()[::7]:
        d, _, _ = smith_normal_form(m)
        assert d == _sympy_invariant_factors(m), m
    grams = [neron_severi_gram(), transcendental_gram(), gaussian_block_gram(-4, -1, -4, -2)]
    grams += [g for g in _signature_cases()[::3] if mat_det(g)]
    for g in grams:
        want = _sympy_invariant_factors(g)
        assert list(lattice_invariants(g).invariant_factors) == want, g
        assert smith_normal_form(g)[0] == want, g


def _unimodular(n, rng):
    """A seeded product of elementary matrices: determinant 1."""
    p = identity_matrix(n)
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for row in p:
            row[j] += c * row[i]
    return p


def _change_basis(gram, rng):
    p = _unimodular(len(gram), rng)
    return mat_mul(mat_transpose(p), mat_mul(gram, p))


def _connected_even_grams():
    """Seeded even Grams of rank 10-24 with every off-diagonal entry drawn,
    some twisted so that the invariant factors share primes, and preset sums
    under a unimodular change of basis, which mixes their blocks."""
    rng = random.Random(22)
    grams = []
    for n in range(10, 25):
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-18, 18)
            g[i][i] = 2 * rng.randint(-9, 9)
        if mat_det(g):
            grams.append(twist(g, rng.choice([1, 1, 2, 6])))
    for spec in ("N", "E7(2)+U(6)+A1(4)", "U+E7(3)+E7(5)", "T+U(2)+A1(-2)+E7"):
        grams.append(_change_basis(gram_build(spec), rng))
    return grams


def test_lattice_invariants_on_connected_grams_match_sympy():
    for g in _connected_even_grams():
        inv = lattice_invariants(g)
        assert list(inv.invariant_factors) == _sympy_invariant_factors(g), g
        assert abs(inv.determinant) == abs(mat_det(g))


def test_degenerate_rejected():
    with pytest.raises(ValueError):
        lattice_invariants([[0, 0], [0, 2]])
    with pytest.raises(ValueError):
        lattice_invariants([[1, 2], [3, 4]])  # not symmetric


@pytest.mark.parametrize("gram,message", [
    ([[2, 1], [1]], "Gram matrix must be square"),
    ([[2, 1, 0], [1, 2, 0]], "Gram matrix must be square"),
    ([[2, Fraction(1, 2)], [Fraction(1, 2), 2]], "Gram entries must be integers"),
    ([[2, 1], [1, 2.5]], "Gram entries must be integers"),
    ([[2, 1], [-1, 2]], "Gram matrix must be symmetric"),
])
def test_gram_checks_name_the_fault(gram, message):
    for fn in (lattice_invariants, signature):
        with pytest.raises(ValueError, match=message):
            fn(gram)


def test_tn_small_cases():
    expected = {1: (1, 0, 0, 0), 3: (2, 0, 1, 0), 4: (2, 1, 1, 0), 7: (4, 0, 3, 0)}
    for n, vec in expected.items():
        r = tn_search(n)
        assert isinstance(r, RealizationVector)
        assert r.a == vec
        assert r.n == n
        assert r.gram() == tn_gram(n)
        assert r.gcd == 1


def test_tn_obstruction():
    r = tn_search(2, evidence_bound=12)
    assert isinstance(r, Obstructed)
    assert any("1,1,0,0" in line for line in r.transcript)
    assert r.evidence == {"bound": 12, "candidates": 756, "primitive_found": 0}
    assert isinstance(tn_search(6), Obstructed)
    assert tn_search(6).evidence is None


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6, 7, 10, 14, 15, -3])
@pytest.mark.parametrize("bound", [0, 1, 4])
def test_tn_obstruction_evidence_matches_brute_force(n, bound):
    rng = range(-bound, bound + 1)
    candidates = primitive = 0
    for a in itertools.product(rng, repeat=4):
        if a[0] ** 2 + a[1] ** 2 - a[2] ** 2 - a[3] ** 2 == n:
            candidates += 1
            primitive += minor_gcd(a) == 1
    assert tn_obstruction_evidence(n, bound) == {
        "bound": bound, "candidates": candidates, "primitive_found": primitive}
    if bound == 4 and n in (1, 3, 7, 15, -3):
        assert primitive > 0


def test_tn_input_validation():
    with pytest.raises(ValueError):
        tn_search(0)
    with pytest.raises(ValueError):
        tn_search(-3)
    # a negative bound searches nothing, so it must not read as an empty search
    with pytest.raises(ValueError, match="evidence bound"):
        tn_obstruction_evidence(2, -1)
    for n in (2, 7):
        with pytest.raises(ValueError, match="evidence bound"):
            tn_search(n, evidence_bound=-3)
    assert tn_obstruction_evidence(2, 0) == {
        "bound": 0, "candidates": 0, "primitive_found": 0}


# The isqrt loop that tn_obstruction_evidence replaced, kept verbatim as the
# oracle: 2B+1 isqrt tries per (a1, a2) where the table makes one lookup.
def _isqrt_tn_obstruction_evidence(n, bound=12):
    """Exhaustive search report: no primitive vector with form value n and
    coordinates bounded by `bound`.  For each (a1, a2, a3) the only
    candidates are a4 = +/- isqrt(a1^2 + a2^2 - a3^2 - n)."""
    candidates = 0
    primitive = 0
    rng = range(-bound, bound + 1)
    for a1 in rng:
        for a2 in rng:
            h = a1 * a1 + a2 * a2 - n
            for a3 in rng:
                sq = h - a3 * a3
                if sq < 0:
                    continue
                a4 = isqrt(sq)
                if a4 * a4 != sq or a4 > bound:
                    continue
                for a in ((a1, a2, a3, a4), (a1, a2, a3, -a4)) if a4 else ((a1, a2, a3, 0),):
                    candidates += 1
                    if minor_gcd(a) == 1:
                        primitive += 1
    return {"bound": bound, "candidates": candidates,
            "primitive_found": primitive}


@pytest.mark.parametrize("n", [2, 6, 10, 14, 7, 8])
def test_tn_obstruction_evidence_matches_isqrt_loop(n):
    expected = _isqrt_tn_obstruction_evidence(n, 12)
    assert tn_obstruction_evidence(n, 12) == expected
    assert (expected["primitive_found"] == 0) == (n % 4 == 2)


def test_minor_gcd_matches_folded_gcd():
    rng = random.Random(14)
    vectors = [(0, 0, 0, 0), (2, 2, 2, 0), (1, 0, 1, 0)]
    vectors += [tuple(rng.randint(-12, 12) for _ in range(4)) for _ in range(300)]
    for a in vectors:
        g = 0
        for m in realization_minors(a):
            g = gcd(g, abs(m))
        assert minor_gcd(a) == g, a


def _stacked_pair_minors(a):
    """Oracle: the 2x2 minors of (a, j_apply(a)) by the generic loop."""
    b = j_apply(a)
    return tuple(a[i] * b[j] - a[j] * b[i] for i in range(4) for j in range(i + 1, 4))


def test_realization_minors_match_the_stacked_pair_loop():
    rng = random.Random(23)
    vectors = [(0, 0, 0, 0), (2, 2, 2, 0)]
    vectors += [tuple(rng.randint(-12, 12) for _ in range(4)) for _ in range(500)]
    big = 10 ** 30
    vectors += [tuple(rng.randint(-big, big) for _ in range(4)) for _ in range(50)]
    for a in vectors:
        assert realization_minors(a) == _stacked_pair_minors(a), a
    assert realization_minors((2, 2, 2, 0)) == (-8, -4, 4, 4, 4, 4)


@pytest.mark.parametrize("n, candidates", [(2, 756), (6, 944), (10, 792), (14, 784)])
def test_tn_obstruction_evidence_counts(n, candidates):
    assert tn_obstruction_evidence(n, 12) == {
        "bound": 12, "candidates": candidates, "primitive_found": 0}


def test_realization_vector_rejects_imprimitive():
    with pytest.raises(ValueError):
        RealizationVector((2, 2, 2, 0))
    with pytest.raises(ValueError):
        RealizationVector((1, 0, 1, 0))  # form value 0


def test_j_structure():
    for a in ((1, 2, 3, 4), (5, 0, -2, 1), (0, 1, 0, 0)):
        assert j_apply(j_apply(a)) == tuple(-x for x in a)
        assert form_value(j_apply(a)) == form_value(a)
        g = pair_gram(a)
        assert g[0][1] == 0 and g[1][0] == 0
        assert g[0][0] == g[1][1] == 2 * form_value(a)


def test_j_apply_is_block_j_conjugated_by_an_isometry():
    # D = diag(1, -1, 1, 1) preserves the ambient form and carries the pair
    # (a, j_apply(a)) to (Da, BLOCK_J Da): both structures realize the same n
    d = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert mat_mul(mat_transpose(d), mat_mul(AMBIENT_GRAM, d)) == AMBIENT_GRAM
    for a in itertools.product(range(-3, 4), repeat=4):
        da = mat_vec(d, a)
        jda = mat_vec(BLOCK_J, da)
        assert list(j_apply(a)) == mat_vec(d, jda), a
        pair = mat_transpose([da, jda])
        assert mat_mul(mat_transpose(pair), mat_mul(AMBIENT_GRAM, pair)) == pair_gram(a), a


def test_kummer_lattices():
    assert kummer_tn(1) == [[4, 0], [0, 4]]
    # diag(4,4) is the n=2 Gram, which the family never realizes
    assert isinstance(tn_search(2), Obstructed)
    assert kummer_tn(2) == tn_gram(4)
    assert isinstance(tn_search(4), RealizationVector)
    assert kummer_tn(3) == tn_gram(6)
    assert isinstance(tn_search(6), Obstructed)
    with pytest.raises(ValueError):
        kummer_tn(0)


def hermitian_det_identity(n, m, b, c):
    """det of the block Gram is (4nm - b^2 - c^2)^2."""
    return mat_det(gaussian_block_gram(n, m, b, c)) == (4 * n * m - b * b - c * c) ** 2


def test_hermitian_det_identity():
    for tup in ((1, -1, 0, 0), (2, 3, 1, -2), (-4, -1, -4, -2), (0, 5, 2, 0)):
        assert hermitian_det_identity(*tup)


def test_block_gram_det_identity_is_symbolic():
    assert block_gram_det_identity()
    # the same Bareiss run separates a perturbed Gram from the identity
    names = ("n", "m", "b", "c")
    n, m, b, c = (MultiPoly.gen(names, v) for v in names)
    gram = gaussian_block_gram(n, m, b, c)
    gram[0][0] = gram[0][0] + 1
    assert _bareiss_det(gram) != (4 * n * m - b * b - c * c) ** 2
    with pytest.raises(ValueError, match="does not divide"):
        n // (n + 1)


def test_rank4_filter_matches_numeric_determinants():
    # the integer filter 4nm - b^2 - c^2 = +/-4, against mat_det on every
    # block Gram of the box, in the same order
    r = range(-4, 5)
    want = [t for t in itertools.product(r, r, r, r)
            if abs(mat_det(gaussian_block_gram(*t))) == 16
            and signature(gaussian_block_gram(*t)) == (2, 2)]
    assert rank4_classification_check().survivors == want


def test_rank4_classification():
    r = rank4_classification_check()
    # the numeric identity on every survivor, independently of the symbolic one
    assert all(hermitian_det_identity(*t) for t in r.survivors)
    assert r.bound == 4
    assert len(r.survivors) == 142
    assert len(r.delta_one) == 90
    assert len(r.delta_zero) == 52
    assert r.det_identity
    assert r.all_certified
    assert r.canonical == [(-1, 1), (1, -1)]
    assert (1, 1, 0, 0) not in r.survivors
    # the determinant constraint forces the off-diagonal block even
    assert all(b % 2 == 0 and c % 2 == 0 for (_, _, b, c) in r.survivors)
    # pins every certificate matrix and the enumeration order, not just counts
    pinned = repr((r.survivors, r.delta_one, r.delta_zero, r.canonical))
    assert hashlib.sha256(pinned.encode()).hexdigest() == (
        "a8db1cd375eedb0b66f3dd1121e17cdb88de14094ca1f4c1b814b7e4c4ee3706")


def test_certificate_basis_exists_exactly_on_delta_one_survivors():
    r = rank4_classification_check()
    for t, p in r.delta_one:
        _assert_certifies(gaussian_block_gram(*t), p)
    # an even Hermitian form is the hyperbolic plane, never diag(1, -1)
    assert all(certificate_basis(gaussian_block_gram(*t)) is None for t in r.delta_zero)
    assert len(r.delta_zero) == 52


def test_certificate_basis_decides_large_conjugates_by_parity():
    # h = [[n, g], [conj g, m]] with nm - |g|^2 = -1 for a large Gaussian g
    # and n | |g|^2 - 1 of either parity: diag(1, -1) exactly when h is odd
    rng = random.Random(20)
    seen = set()
    for _ in range(150):
        g = (rng.randint(-10 ** 40, 10 ** 40), rng.randint(-10 ** 40, 10 ** 40))
        norm1 = g[0] ** 2 + g[1] ** 2 - 1
        for n in (1, -1, 2, -2, 4, norm1, -norm1, norm1 // 2, norm1 // 4):
            if not n or norm1 % n:
                continue
            m = norm1 // n
            gram = gaussian_block_gram(n, m, 2 * g[0], -2 * g[1])
            p = certificate_basis(gram)
            odd = bool(n % 2 or m % 2)
            assert (p is not None) == odd, (n, g)
            if p is not None:
                _assert_certifies(gram, p)
            seen.add((odd, n % 2))
    assert seen == {(True, 1), (True, 0), (False, 0)}


def test_certificate_is_checkable():
    gram = gaussian_block_gram(-4, -1, -4, -2)
    p = certificate_basis(gram)
    assert p is not None
    assert abs(mat_det(p)) == 1
    target = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]
    assert mat_mul(mat_transpose(p), mat_mul(gram, p)) == target


def test_twist_and_build_consistency():
    assert twist(A1_GRAM, -1) == [[-2]]
    assert gram_build("T") == transcendental_gram()
    assert gram_build("N") == neron_severi_gram()


# The full-box search that certificate_basis replaced, kept verbatim as the
# oracle: it lists every norm +-2 vector of the 9^4 box before the first pair.
def _full_box_certificate_basis(gram, coord_bound=4):
    """A unimodular basis (x, Jx, y, Jy) with Gram diag(2,2,-2,-2), or None.

    Existence certifies the lattice is the standard one as a Z[i]-module,
    since the new basis intertwines the block J action.  The vectors are
    tried in lexicographic order, so the first certificate is canonical."""
    rng = range(-coord_bound, coord_bound + 1)
    (g11, g12, g13, g14), (g21, g22, g23, g24), \
        (g31, g32, g33, g34), (g41, g42, g43, g44) = gram
    plus2 = []
    minus2 = []
    # q(v) = v^T G v, one coordinate at a time
    for x1 in rng:
        q1 = g11 * x1 * x1
        for x2 in rng:
            q2 = q1 + ((g12 + g21) * x1 + g22 * x2) * x2
            for x3 in rng:
                q3 = q2 + ((g13 + g31) * x1 + (g23 + g32) * x2 + g33 * x3) * x3
                lin4 = (g14 + g41) * x1 + (g24 + g42) * x2 + (g34 + g43) * x3
                for x4 in rng:
                    q = q3 + (lin4 + g44 * x4) * x4
                    if q == 2:
                        plus2.append((x1, x2, x3, x4))
                    elif q == -2:
                        minus2.append((x1, x2, x3, x4))
    gram_t = mat_transpose(gram)
    for x in plus2:
        jx = mat_vec(BLOCK_J, x)
        # x^T G y and (Jx)^T G y become 4-term dot products with y
        a1, a2, a3, a4 = mat_vec(gram_t, x)
        b1, b2, b3, b4 = mat_vec(gram_t, jx)
        for y in minus2:
            y1, y2, y3, y4 = y
            if a1 * y1 + a2 * y2 + a3 * y3 + a4 * y4:
                continue
            if b1 * y1 + b2 * y2 + b3 * y3 + b4 * y4:
                continue
            jy = mat_vec(BLOCK_J, y)
            p = [[x[i], jx[i], y[i], jy[i]] for i in range(4)]
            if abs(mat_det(p)) != 1:
                continue
            check = mat_mul(mat_transpose(p), mat_mul(gram, p))
            if check == AMBIENT_GRAM:
                return p
    return None


def _assert_certifies(gram, p):
    """p is a unimodular basis (x, Jx, y, Jy) with Gram diag(2,2,-2,-2)."""
    assert abs(mat_det(p)) == 1, gram
    assert mat_mul(mat_transpose(p), mat_mul(gram, p)) == AMBIENT_GRAM, gram
    for k in (0, 2):
        assert [row[k + 1] for row in p] == mat_vec(BLOCK_J, [row[k] for row in p]), gram


def _assert_exists_as_in_full_box(grams, bound=4):
    """certificate_basis finds a certificate exactly where the full-box
    search does, and each one it returns verifies; the number found."""
    found = 0
    for gram in grams:
        p = certificate_basis(gram)
        assert (p is None) == (_full_box_certificate_basis(gram, bound) is None), gram
        if p is not None:
            _assert_certifies(gram, p)
            found += 1
    return found


def test_certificate_basis_matches_full_box_on_block_grams():
    rng = random.Random(12)
    r = range(-6, 7)
    tuples = list(itertools.product(r, r, r, r))
    # |det| 16 and signature (2, 2), as in the rank-4 search, so that many
    # have a certificate; the uniform draws mostly have none
    candidates = [t for t in tuples if abs(mat_det(gaussian_block_gram(*t))) == 16
                  and signature(gaussian_block_gram(*t)) == (2, 2)]
    picked = rng.sample(candidates, 30) + rng.sample(tuples, 30)
    found = _assert_exists_as_in_full_box([gaussian_block_gram(*t) for t in picked])
    assert found == 20


def _general_grams():
    """30 seeded symmetric 4x4 Grams with entries in [-3, 3]."""
    rng = random.Random(13)
    grams = []
    for _ in range(30):
        g = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        grams.append(g)
    return grams


def test_certificate_basis_matches_full_box_on_general_grams():
    _assert_exists_as_in_full_box(_general_grams())


def test_certificate_basis_with_a_zero_second_gaussian_part():
    # n = 0 takes the isotropic vector (1, 0), whose second Gaussian part is
    # zero; g = 1 (b = 2, c = 0) makes the first part 1 - g of (1 - g, n)
    # zero; either way the Gaussian gcd has a zero operand
    tuples = [(0, m, b, c) for m in (-3, 1) for b, c in ((2, 0), (-2, 0), (0, 2), (0, -2))]
    tuples += [(n, 0, 2, 0) for n in (-1, 3)]
    tuples += [(-7, -1, b, c) for b in (-4, 4) for c in (-4, 4)]
    grams = [gaussian_block_gram(*t) for t in tuples]
    assert _assert_exists_as_in_full_box(grams, 2) == len(grams)


def test_certificate_basis_rejects_non_integral_gram():
    gram = [[Fraction(v) for v in row] for row in transcendental_gram()]
    assert certificate_basis(gram) == certificate_basis(transcendental_gram())
    gram[0][0] = Fraction(5, 2)
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        certificate_basis(gram)
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        certificate_basis([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2.5]])


def test_int_matrix_accepts_integral_values_only():
    m = _int_matrix(((1, Fraction(2)), [3, 4]))
    assert m == [[1, 2], [3, 4]]
    assert all(type(v) is int for row in m for v in row)
    for bad in (Fraction(1, 2), 0.5):
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            _int_matrix([[1, 0], [0, bad]])


def _gaussian_pairs():
    """Seeded pairs of Gaussian integers: small ones with zero operands, a
    shared factor times coprime cofactors, and 30-digit parts."""
    rng = random.Random(17)
    pairs = [((0, 0), (0, 0)), ((0, 0), (3, -4)), ((5, 0), (0, 0)), ((1, 1), (2, 0))]
    for _ in range(150):
        pairs.append(tuple((rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(2)))
    for _ in range(60):
        g = (rng.randint(-99, 99), rng.randint(-99, 99))
        a, b = ((rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6))
                for _ in range(2))
        pairs.append(((g[0] * a[0] - g[1] * a[1], g[0] * a[1] + g[1] * a[0]),
                      (g[0] * b[0] - g[1] * b[1], g[0] * b[1] + g[1] * b[0])))
    for _ in range(60):
        pairs.append(tuple((rng.randint(-10 ** 30, 10 ** 30), rng.randint(-10 ** 30, 10 ** 30))
                           for _ in range(2)))
    return pairs


def test_gaussian_gcd_matches_sympy_up_to_a_unit():
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ_I
    for a, b in _gaussian_pairs():
        want = ZZ_I.gcd(ZZ_I(*a), ZZ_I(*b))
        x, y = int(want.x), int(want.y)
        g, s, t = _gaussian_xgcd(a, b)
        assert g in {(x, y), (-y, x), (-x, -y), (y, -x)}, (a, b)
        # the Bezout cofactors: s a + t b = g
        assert ZZ_I(*s) * ZZ_I(*a) + ZZ_I(*t) * ZZ_I(*b) == ZZ_I(*g), (a, b)


def test_rank4_derived_invariants_match_lattice_invariants():
    r = rank4_classification_check()
    derived = [(t, 1) for t, _ in r.delta_one] + [(t, 0) for t in r.delta_zero]
    assert len(derived) == 142
    for t, delta in derived:
        inv = lattice_invariants(gaussian_block_gram(*t))
        assert inv.invariant_factors == (2, 2, 2, 2), t
        assert inv.delta == delta, t
        assert inv.signature == (2, 2) and abs(inv.determinant) == 16, t


def test_rank4_check_takes_no_smith_form_or_signature(monkeypatch):
    want = rank4_classification_check()

    def refuse(*args):
        raise AssertionError("the rank-4 check must not call this")

    for name in ("_invariant_factors", "_congruent_inverse", "signature", "lattice_invariants"):
        monkeypatch.setattr(lattices, name, refuse)
    got = rank4_classification_check()
    for field in lattices.Rank4Classification.__slots__:
        assert getattr(got, field) == getattr(want, field), field


def test_certificate_basis_needs_a_j_invariant_gram():
    # a certificate P commutes with J, so G = P^-T diag(2,2,-2,-2) P^-1 does
    gram = gaussian_block_gram(1, -1, 0, 0)
    assert certificate_basis(gram) is not None
    gram[0][1] = gram[1][0] = 1
    assert mat_mul(gram, BLOCK_J) != mat_mul(BLOCK_J, gram)
    assert certificate_basis(gram) is None is _full_box_certificate_basis(gram)
    # a degenerate J-invariant Gram has Hermitian determinant 0, not -1
    assert certificate_basis(gaussian_block_gram(1, 0, 0, 0)) is None


# The invariants read off one Smith form with transforms over the whole
# matrix, kept verbatim as the oracle.
def _whole_matrix_invariants(gram):
    d, _, right = smith_normal_form(gram)
    nontrivial = [x for x in d if x > 1]
    two_elem = all(x == 2 for x in nontrivial)
    delta = None
    if two_elem:
        delta = 0
        for i, di in enumerate(d):
            if di <= 1:
                continue
            # q(col / di) is integral iff col^T G col = 0 mod di^2
            col = [row[i] for row in right]
            if sum(c * x for c, x in zip(col, mat_vec(gram, col))) % (di * di):
                delta = 1
                break
    return (len(gram), signature(gram), mat_det(gram), tuple(d), len(nontrivial),
            two_elem, delta)


def _direct_sum_specs():
    """Seeded "+"-joined Gram specs of rank at most 28: presets with twists
    that keep two thirds of them near 2-elementary, plus fixed sums whose
    delta is 0 (only U and U(+-2) parts) or 1."""
    rng = random.Random(18)
    specs = ["U(2)+U", "U(2)+U(-2)+U", "U(-2)+U+U(2)+U", "U(2)+A1", "U+U(2)+E7",
             "T+U(2)", "N+U(2)+U(-2)"]
    while len(specs) < 67:
        twists = [1, -1, 2, -2] if len(specs) % 3 else [1, -1, 2, -2, 3, 4, 6]
        parts, rank = [], 0
        for _ in range(rng.randint(1, 5)):
            name = rng.choice(["U", "U", "A1", "E7", "T", "N"])
            size = len(gram_build(name))
            if rank + size > 28:
                break
            t = rng.choice(twists)
            parts.append(name if t == 1 else "%s(%d)" % (name, t))
            rank += size
        if parts:
            specs.append("+".join(parts))
    return specs


def test_lattice_invariants_match_whole_matrix_smith_form():
    rng = random.Random(19)
    grams = []
    for k, spec in enumerate(_direct_sum_specs()):
        gram = gram_build(spec)
        if k % 2:
            # a simultaneous permutation interleaves the blocks' indices
            perm = list(range(len(gram)))
            rng.shuffle(perm)
            gram = [[gram[i][j] for j in perm] for i in perm]
        grams.append(gram)
    # a change of basis, unlike a permutation, mixes the blocks, so these
    # 2-elementary Grams are connected
    deltas = set()
    for spec in ("U(2)", "T", "U(2)+U", "U(2)+U(-2)", "U(2)+A1", "E7+A1", "A1+A1(-1)+U(2)",
                 "U+U(2)+E7") * 3:
        grams.append(_change_basis(gram_build(spec), rng))
        inv = lattice_invariants(grams[-1])
        assert inv.two_elementary, spec
        deltas.add(inv.delta)
    assert deltas == {0, 1}
    for gram in grams:
        inv = lattice_invariants(gram)
        got = (inv.rank, inv.signature, inv.determinant, inv.invariant_factors, inv.ell,
               inv.two_elementary, inv.delta)
        assert got == _whole_matrix_invariants(gram), gram
        deltas.add(inv.delta)
    assert deltas == {None, 0, 1}


# -- the closed forms against the loops they replaced -----------------------------


# The per-candidate loop that tn_obstruction_evidence replaced, kept verbatim
# as the oracle: all six minors and their gcd for every candidate, where the
# closed form takes gcd(a1^2 + a2^2, n) once per (a1, a2).
def _minor_gcd_tn_obstruction_evidence(n, bound=12):
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
            for a3, a4 in by_norm.get(a1 * a1 + a2 * a2 - n, ()):
                candidates += 1
                if minor_gcd((a1, a2, a3, a4)) == 1:
                    primitive += 1
    return {"bound": bound, "candidates": candidates,
            "primitive_found": primitive}


def test_tn_obstruction_evidence_matches_the_minor_gcd_loop():
    for n in range(1, 61):
        for bound in range(13):
            assert tn_obstruction_evidence(n, bound) == \
                _minor_gcd_tn_obstruction_evidence(n, bound), (n, bound)


# The matrix forms that certificate_basis replaced, kept verbatim as the
# oracle: J, the Gaussian scaling and the Hermitian products through
# BLOCK_J and the Gram.
def _matrix_certificate_basis(gram):
    gram = _int_matrix(gram)
    if len(gram) != 4 or len(gram[0]) != 4:
        return None
    n, m, b, c = gram[0][0] // 2, gram[3][3] // 2, gram[0][2], gram[0][3]
    if (gram != gaussian_block_gram(n, m, b, c) or b % 2 or c % 2
            or 4 * n * m - b * b - c * c != -4 or not (n % 2 or m % 2)):
        return None

    def j(v):
        return mat_vec(BLOCK_J, v)

    def scale(k, v):
        # the Gaussian multiple k v, in real coordinates
        return [k[0] * vi + k[1] * jvi for vi, jvi in zip(v, j(v))]

    def h(v, w):
        # v^T G w = 2 Re h(v, w), and v^T G Jw = 2 Re h(v, i w) = -2 Im h(v, w)
        gv = mat_vec(gram, v)
        return sum(map(mul, gv, w)) // 2, -sum(map(mul, gv, j(w))) // 2

    alpha, beta = ((1 - b // 2, c // 2), (n, 0)) if n else ((1, 0), (0, 0))
    d, s, t = _gaussian_xgcd(alpha, beta)
    e = lattices._gaussian_quotient(alpha, d) + lattices._gaussian_quotient(beta, d)
    # s alpha + t beta = d, so the Gaussian determinant of (e, f) is 1
    f = [-t[0], -t[1], s[0], s[1]]
    r = (1 - h(f, f)[0]) // 2
    u = h(e, f)
    x = [fi + ki for fi, ki in zip(f, scale((r * u[0], r * u[1]), e))]
    y = [ei - ki for ei, ki in zip(e, scale(h(x, e), x))]
    jx, jy = j(x), j(y)
    p = [[x[i], jx[i], y[i], jy[i]] for i in range(4)]
    if abs(mat_det(p)) != 1 or mat_mul(mat_transpose(p), mat_mul(gram, p)) != AMBIENT_GRAM:
        raise AssertionError("constructed certificate fails for %r" % (gram,))
    return p


def _block_grams(bound):
    """Every J-invariant block Gram of determinant 16 and signature (2, 2)
    with |n|, |b|, |c| <= bound, m solved from 4nm - b^2 - c^2 = -4."""
    rng = range(-bound, bound + 1)
    out = []
    for n, b, c in itertools.product(rng, rng, rng):
        rhs = b * b + c * c - 4
        if n and rhs % (4 * n) == 0:
            out.append(gaussian_block_gram(n, rhs // (4 * n), b, c))
    return out


def test_certificate_basis_matches_the_matrix_forms():
    r = rank4_classification_check()
    assert len(r.delta_one) == 90
    for t, p in r.delta_one:
        assert p == _matrix_certificate_basis(gaussian_block_gram(*t)), t
    # past the classification box, with its delta-zero Grams and large entries
    rng = random.Random(38)
    grams = _block_grams(12)
    for _ in range(60):
        g = (rng.randint(-10 ** 20, 10 ** 20), rng.randint(-10 ** 20, 10 ** 20))
        norm1 = g[0] ** 2 + g[1] ** 2 - 1
        grams += [gaussian_block_gram(k, norm1 // k, 2 * g[0], -2 * g[1])
                  for k in (1, -1, 2, 4) if norm1 % k == 0]
    found = 0
    for gram in grams:
        p = certificate_basis(gram)
        assert p == _matrix_certificate_basis(gram), gram
        found += p is not None
    assert 0 < found < len(grams)


def test_a_perturbed_j_fails_the_certificate_check(monkeypatch):
    # J with its two Gaussian coordinates swapped: the built columns are no
    # longer Jx and Jy, and the full P^T G P check must see it
    grams = [gaussian_block_gram(*t) for t, _ in rank4_classification_check().delta_one]
    monkeypatch.setattr(lattices, "_block_j", lambda v: [-v[3], v[2], -v[1], v[0]])
    for gram in grams:
        with pytest.raises(AssertionError, match="constructed certificate fails"):
            certificate_basis(gram)


def test_minus_j_fails_the_certificate_check(monkeypatch):
    # (x, -Jx, y, -Jy) has the same Gram as (x, Jx, y, Jy), so only the
    # comparison of the built columns with BLOCK_J x and BLOCK_J y sees -J
    grams = [gaussian_block_gram(*t) for t, _ in rank4_classification_check().delta_one]
    assert len(grams) == 90
    monkeypatch.setattr(lattices, "_block_j", lambda v: [v[1], -v[0], v[3], -v[2]])
    for gram in grams:
        with pytest.raises(AssertionError, match="constructed certificate fails"):
            certificate_basis(gram)
