from fractions import Fraction
import random

import pytest

from k3quartic.fields import (
    eighth_root_field,
    gaussian_field,
    imaginary_unit,
    sqrt_field,
)
from k3quartic.moduli import (
    IDENTITY,
    _check_su11,
    _preserves_eta,
    T_LOWER,
    cayley,
    fricke_checks,
    fricke_matrix,
    g0_generators,
    gaussian_form_check,
    h0_generators,
    h2_generators,
    inverse_cayley,
    l_prime,
    l_square_representative,
    m_adj,
    m_det,
    m_eq,
    m_inv,
    m_mul,
    mat2,
    membership,
    period_point,
    scalar_equivalent,
    su11_samples,
    upsilon_matrix,
)


def gi():
    return imaginary_unit(gaussian_field())


def zeta8_sqrt2(ctx=None):
    ctx = ctx or eighth_root_field()
    g = ctx.gen()
    return g - g ** 3


def quarter_turn_su11():
    """diag(zeta8^-1, zeta8): the SU(1,1) matrix whose half-plane transfer
    is the Upsilon matrix (1/sqrt2)[[1,-1],[1,1]]."""
    ctx = eighth_root_field()
    z = ctx.gen()
    return mat2(-z ** 3, ctx.zero, ctx.zero, z)


class TestMembership:
    def test_identity_everywhere(self):
        for group in ("SU11", "GAMMA", "G0", "SL2Z", "H0", "H2"):
            assert membership(IDENTITY, group).verdict

    def test_translation_in_h2_not_h0(self):
        t = mat2(1, 1, 0, 1)
        assert membership(t, "H2").verdict
        rep = membership(t, "H0")
        assert not rep.verdict
        assert "odd" in rep.witness

    def test_lower_translation_not_in_h2(self):
        rep = membership(T_LOWER, "H2")
        assert not rep.verdict
        assert "c = 1" in rep.witness
        assert membership(T_LOWER, "SL2Z").verdict

    def test_l_prime_unitary_but_not_special(self):
        lp = l_prime()
        assert membership(lp, "GAMMA").verdict
        rep = membership(lp, "SU11")
        assert not rep.verdict
        assert "determinant" in rep.witness
        assert not membership(lp, "G0").verdict

    def test_half_entries_rejected_from_integral_groups(self):
        m = mat2(Fraction(1, 2), 0, 0, 2)
        assert not membership(m, "SL2Z").verdict
        assert not membership(m, "GAMMA").verdict

    def test_sqrt2_entries_are_not_gaussian(self):
        # decidable False, not an error: 1/sqrt2 has no rational real part
        rep = membership(fricke_matrix(), "GAMMA")
        assert not rep.verdict
        assert "Gaussian" in rep.witness

    def test_su11_over_eighth_root_field(self):
        assert membership(quarter_turn_su11(), "SU11").verdict
        assert not membership(quarter_turn_su11(), "G0").verdict

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            membership(IDENTITY, "E8")

    def test_float_entries_rejected_loudly(self):
        with pytest.raises(TypeError):
            membership(mat2(1.0, 0, 0, 1), "SL2Z")

    def test_generators_certified(self):
        assert all(membership(g, "H0").verdict for g in h0_generators())
        assert all(membership(g, "H2").verdict for g in h2_generators())
        assert all(membership(g, "G0").verdict for g in g0_generators())


class TestMatrixHelpers:
    def test_inverse(self):
        m = mat2(2, 1, 1, 1)
        assert m_eq(m_mul(m, m_inv(m)), IDENTITY)
        with pytest.raises(ZeroDivisionError):
            m_inv(mat2(1, 1, 1, 1))

    def test_adjugate_inverts_det_one(self):
        for g in h0_generators():
            assert m_det(g) == 1
            assert m_eq(m_mul(g, m_adj(g)), IDENTITY)

    def test_scalar_equivalence(self):
        m = mat2(1, 2, 3, 4)
        assert scalar_equivalent(m, mat2(3, 6, 9, 12))
        assert not scalar_equivalent(m, mat2(1, 2, 3, 5))
        assert not scalar_equivalent(m, mat2(0, 0, 0, 0))


class TestFrickeBundle:
    def test_all_checks_pass(self):
        checks = fricke_checks()
        failures = {k: w for k, (ok, w) in checks.items() if not ok}
        assert failures == {}
        assert len(checks) == 10

    def test_fricke_square(self):
        f = fricke_matrix()
        f2 = m_mul(f, f)
        assert f2[0][0] == -1 and f2[1][1] == -1
        assert f2[0][1] == 0 and f2[1][0] == 0

    def test_upsilon_transfer_is_explicit(self):
        f = fricke_matrix()
        t = T_LOWER
        ups = upsilon_matrix()
        transfer = m_mul(m_inv(f), m_mul(t, m_mul(ups, m_adj(t))))
        assert m_eq(transfer, mat2(1, 0, -2, 1))

    def test_normalizer_formula(self):
        f = fricke_matrix()
        h = mat2(1, -1, 2, -1)
        conj = m_mul(f, m_mul(h, m_inv(f)))
        assert m_eq(conj, mat2(-1, -1, 2, 1))
        assert membership(mat2(-1, -1, 2, 1), "H2").verdict

    def test_quarter_turn_square(self):
        lp = l_prime()
        l2 = l_square_representative()
        assert scalar_equivalent(m_mul(lp, lp), l2)
        assert membership(l2, "G0").verdict
        # the scalar relating them is i itself
        i = gi()
        assert m_eq(m_mul(lp, lp), tuple(tuple(-i * x for x in row) for row in l2))


class TestCayleyTransfer:
    def test_quarter_turn_maps_to_upsilon(self):
        ups = upsilon_matrix(zeta8_sqrt2())
        assert m_eq(cayley(quarter_turn_su11()), ups)

    def test_round_trip_on_samples(self):
        for m in su11_samples(25, seed=11):
            assert m_eq(inverse_cayley(cayley(m)), m)

    def test_multiplicative(self):
        s = su11_samples(20, seed=3)
        for a, b in zip(s[:10], s[10:]):
            assert m_eq(cayley(m_mul(a, b)), m_mul(cayley(a), cayley(b)))

    def test_integral_images_land_in_h0(self):
        for m in su11_samples(25, seed=5):
            assert membership(cayley(m), "H0").verdict
        for g in h0_generators():
            assert membership(inverse_cayley(g), "G0").verdict

    def test_rejects_non_su11(self):
        with pytest.raises(ValueError):
            cayley(l_prime())
        with pytest.raises(ValueError):
            cayley(mat2(2, 0, 0, Fraction(1, 2)))

    def test_rational_half_plane_round_trip(self):
        n = mat2(1, 2, 0, 1)
        m = inverse_cayley(n)
        assert membership(m, "G0").verdict
        assert m_eq(cayley(m), n)

    def test_samples_are_deterministic(self):
        assert su11_samples(5, seed=9) == su11_samples(5, seed=9)

    @pytest.mark.parametrize("seed", [20260819, 3, 9, 11])
    def test_samples_match_the_identity_first_words(self, seed):
        # oracle: each word is IDENTITY times its letters, drawn in the same order
        gens = g0_generators()
        alphabet = list(gens) + [m_adj(g) for g in gens]
        rng = random.Random(seed)
        expected = []
        for _ in range(100):
            word = IDENTITY
            for _ in range(rng.randint(1, 6)):
                word = m_mul(word, rng.choice(alphabet))
            expected.append(word)
        got = su11_samples(100, seed)
        assert len(got) == len(expected)
        for m, want in zip(got, expected):
            for row, want_row in zip(m, want):
                for x, y in zip(row, want_row):
                    assert type(x) is type(y) and x == y, (m, want)


class TestPeriodPoints:
    def test_center(self):
        p = period_point(1, 0)
        assert p.verdict == "inside"
        assert p.form_value == 4
        assert p.eigenvector_ok
        assert p.ball_consistent
        assert p.w == 0

    def test_boundary(self):
        p = period_point(1, 1)
        assert p.verdict == "boundary"
        assert p.form_value == 0

    def test_outside(self):
        p = period_point(1, 2)
        assert p.verdict == "outside"
        assert p.form_value == -12

    def test_gaussian_coordinates(self):
        i = gi()
        p = period_point(gaussian_field().from_rational(2), i)
        assert p.verdict == "inside"
        assert p.form_value == 12
        assert p.w == Fraction(1, 2) * i

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            period_point(0, 1)

    def test_eighth_root_coordinates(self):
        ctx = eighth_root_field()
        p = period_point(ctx.from_rational(1), zeta8_sqrt2(ctx) / 2)
        assert p.verdict == "inside"
        assert p.form_value == 2
        assert p.ball_consistent

    def test_form_check_bundle(self):
        results = gaussian_form_check()
        assert results == {
            "gram_matches_hermitian_form": True,
            "i_action_matches_j": True,
            "j_is_isometry": True,
        }


# the check before its closed form, kept as the oracle: the full product
# M* diag(1,-1) M first, then the determinant
def _su11_witness_by_product(m):
    if not _preserves_eta(m):
        return "M* diag(1,-1) M differs from diag(1,-1)"
    if m_det(m) != 1:
        return "determinant is not 1"
    return None


def test_su11_check_matches_the_full_product():
    import random

    rng = random.Random(20261021)
    i = gi()
    QI = gaussian_field()
    K = eighth_root_field()
    z8 = K.gen()

    def gaussian():
        return QI.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                           Fraction(rng.randint(-5, 5), rng.randint(1, 3))])

    mats = [
        IDENTITY, mat2(-1, 0, 0, -1), mat2(i, 0, 0, i), mat2(2, 0, 0, Fraction(1, 2)),
        mat2(i, 0, 0, -i), mat2(1, 1, 0, 1), mat2(0, 0, 0, 0),
        mat2(Fraction(5, 4), Fraction(3, 4), Fraction(3, 4), Fraction(5, 4)),
        mat2(z8, 0, 0, z8.conj()), mat2(z8, 0, 0, z8),
    ]
    for m in su11_samples(40):
        (a, b), (c, d) = m
        e = gaussian()
        mats += [m, m_mul(mat2(i, 0, 0, i), m), m_mul(mat2(e, 0, 0, e), m),
                 mat2(a + e, b, c, d), mat2(a, b, c + e, d), mat2(d, b, c, a)]
    for _ in range(60):
        # det 1 by construction, so only the eta condition can fail
        a, b, c = gaussian(), gaussian(), gaussian()
        if a:
            mats.append(mat2(a, b, c, (1 + b * c) / a))
        mats.append(mat2(gaussian(), gaussian(), gaussian(), gaussian()))
    seen = {}
    for m in mats:
        want = _su11_witness_by_product(m)
        assert _check_su11(m) == want, m
        seen[want] = seen.get(want, 0) + 1
    assert len(seen) == 3 and min(seen.values()) >= 10, seen
