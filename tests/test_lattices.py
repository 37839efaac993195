import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from k3quartic.lattices import (
    A1_GRAM,
    E7_GRAM,
    Obstructed,
    RealizationVector,
    U_GRAM,
    certificate_basis,
    direct_sum,
    form_value,
    gaussian_block_gram,
    gram_build,
    hermitian_det_identity,
    j_apply,
    kummer_tn,
    lattice_invariants,
    mat_det,
    mat_mul,
    mat_transpose,
    minor_gcd,
    neron_severi_gram,
    pair_gram,
    rank4_classification_check,
    signature,
    smith_normal_form,
    tn_gram,
    tn_obstruction_evidence,
    tn_search,
    transcendental_gram,
    twist,
)


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


def test_direct_sum_multiplicativity():
    combined = lattice_invariants(direct_sum(U_GRAM, E7_GRAM))
    u, e7 = lattice_invariants(U_GRAM), lattice_invariants(E7_GRAM)
    assert combined.rank == u.rank + e7.rank
    assert combined.signature == (u.signature[0] + e7.signature[0],
                                  u.signature[1] + e7.signature[1])
    assert combined.determinant == u.determinant * e7.determinant


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


def test_smith_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    mats = list(_random_rectangular()) + _det_cases()[::7]
    mats += [neron_severi_gram(), transcendental_gram(), gaussian_block_gram(-4, -1, -4, -2)]
    for m in mats:
        d, _, _ = smith_normal_form(m)
        expected = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
        assert d == [abs(expected[i, i]) for i in range(len(d))], m


def test_degenerate_rejected():
    with pytest.raises(ValueError):
        lattice_invariants([[0, 0], [0, 2]])
    with pytest.raises(ValueError):
        lattice_invariants([[1, 2], [3, 4]])  # not symmetric


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


def test_hermitian_det_identity():
    for tup in ((1, -1, 0, 0), (2, 3, 1, -2), (-4, -1, -4, -2), (0, 5, 2, 0)):
        assert hermitian_det_identity(*tup)


def test_rank4_classification():
    r = rank4_classification_check()
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
        "78ae34b614389b52b60b11d87d54a831950f252093cac4402076608c78507679")


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
