from fractions import Fraction

import pytest

from k3quartic.fields import gaussian_field, sqrt_field
from k3quartic.multipoly import MultiPoly
from k3quartic.quartic import (
    _PAIR_MINORS,
    ALPHA,
    ALPHA_INFINITY,
    PENCIL_VARS,
    PLANE_VARS,
    Stable,
    Unstable,
    build_quartic,
    chart_sign_check,
    conic_at,
    line1_at,
    line2_at,
    pencil_substitution_check,
    singular_points,
    stability,
)


# the components of one member as polynomials in the plane variables, built
# per call: the recovery check divides by them, and the singular-point
# oracle differentiates them
def _plane_gens():
    return [MultiPoly.gen(PLANE_VARS, v) for v in PLANE_VARS]


def conic():
    return conic_at(*_plane_gens())


def line1():
    return line1_at(*_plane_gens())


def line2(alpha):
    return line2_at(*_plane_gens(), alpha)


def component_recovery_check(fam):
    """Exact division of the expanded quartic back into its components."""
    Q, L1, L2 = conic(), line1(), line2(fam.alpha)
    rest = (Q * L1 * L2).try_exact_div(Q)
    if rest is None:
        return False
    rest = rest.try_exact_div(L1)
    if rest is None:
        return False
    return rest == L2


def test_component_recovery_symbolic():
    fam = build_quartic(ALPHA)
    assert component_recovery_check(fam)


def test_component_recovery_specialized():
    fam = build_quartic(Fraction(81, 49))
    assert component_recovery_check(fam)


def test_pencil_substitution_identity():
    passed, residual = pencil_substitution_check()
    assert passed
    assert residual.is_zero


def test_pencil_substitution_negative_control():
    passed, residual = pencil_substitution_check(perturb=True)
    assert not passed
    assert not residual.is_zero


def test_chart_sign():
    assert chart_sign_check()


def test_singular_points_symbolic():
    fam = build_quartic(ALPHA)
    pts = singular_points(fam)
    assert len(pts) == 4
    nodes = [p for p in pts if "point" in p]
    assert len(nodes) == 3
    assert all(p["node"] for p in nodes)
    quad = [p for p in pts if "quadratic" in p][0]
    assert quad["degree"] == 2
    assert quad["discriminant"] == 4 * (1 - ALPHA)


def test_singular_points_with_verified_root():
    # 1 - 81/49 = -32/49, a square root lives in Q(sqrt(-2)): (4/7) sqrt(-2)
    K = sqrt_field(-2)
    s = Fraction(4, 7) * K.gen()
    fam = build_quartic(Fraction(81, 49))
    pts = singular_points(fam, sqrt_one_minus_alpha=s)
    assert len(pts) == 5
    assert all(p["node"] for p in pts)
    conic_line2 = [p for p in pts if p["components"] == ("conic", "line2")]
    assert len(conic_line2) == 2
    for p in conic_line2:
        x, t, t2 = p["point"]
        assert t * t + 2 * t + Fraction(81, 49) == 0


def test_singular_points_rejects_wrong_root():
    K = sqrt_field(-2)
    fam = build_quartic(Fraction(81, 49))
    with pytest.raises(ValueError):
        singular_points(fam, sqrt_one_minus_alpha=K.gen())


def test_singular_points_rational_split():
    # alpha = 3/4: t^2 + 2t + 3/4 = (t + 1/2)(t + 3/2)
    fam = build_quartic(Fraction(3, 4))
    pts = singular_points(fam)
    assert len(pts) == 5
    assert all(p["node"] for p in pts)
    ts = sorted(p["point"][1] for p in pts if p["components"] == ("conic", "line2"))
    assert ts == [Fraction(-3, 2), Fraction(-1, 2)]


def test_stability_classification():
    assert stability(Fraction(81, 49)) == Stable()
    assert stability(Fraction(5)) == Stable()
    assert stability(1) == Unstable("tacnode at (1:-1:1)")
    assert stability(0) == Unstable("triple point at (1:0:0)")
    assert stability(ALPHA_INFINITY) == Unstable("tangent at (0:0:1)")


def test_singular_points_rejects_infinity():
    fam = build_quartic(ALPHA_INFINITY)
    with pytest.raises(ValueError):
        singular_points(fam)


def _node_per_call(components, point, alpha):
    """Whether the two named components, built and differentiated for this
    alpha, meet at the point with non-proportional gradients; both must
    vanish there."""
    comps = {"conic": conic(), "line1": line1(), "line2": line2(alpha)}
    at = dict(zip(PLANE_VARS, point))
    a, b = (comps[name] for name in components)
    assert a.evaluate(at) == 0 and b.evaluate(at) == 0
    g1, g2 = ([c.derivative(v).evaluate(at) for v in PLANE_VARS] for c in (a, b))
    return any(g1[i] * g2[j] - g1[j] * g2[i] != 0 for i, j in ((0, 1), (0, 2), (1, 2)))


K2 = sqrt_field(-2)
K3 = sqrt_field(3)
QI = gaussian_field()


@pytest.mark.parametrize("alpha, root, n_points", [
    (Fraction(3, 4), None, 5),                       # rational sqrt(1 - alpha)
    (Fraction(-3), None, 5),
    (Fraction(1), None, 5),                          # tacnode: a tangent pair
    (Fraction(0), None, 5),                          # triple point
    (Fraction(81, 49), None, 3),                     # no rational sqrt(1 - alpha)
    (Fraction(2), None, 3),
    (Fraction(81, 49), Fraction(4, 7) * K2.gen(), 5),  # a FieldElement root
    (Fraction(-2), K3.gen(), 5),
    (K3.gen(), None, 3),                             # a FieldElement alpha
    (QI.gen(), None, 3),
    (1 - 2 * QI.gen(), 1 + QI.gen(), 5),             # 1 - alpha = 2i = (1 + i)^2
    (QI.from_rational(1), QI.from_rational(0), 5),   # the tacnode over Q(i)
    (ALPHA, None, 3),
], ids=["3/4", "-3", "1", "0", "81/49", "2", "81/49-root", "-2-root", "sqrt3",
        "i", "1-2i-root", "1-in-Q(i)", "ALPHA"])
def test_singular_points_match_per_call_gradients(alpha, root, n_points):
    pts = singular_points(build_quartic(alpha), sqrt_one_minus_alpha=root)
    points = [p for p in pts if "point" in p]
    assert len(points) == n_points
    for p in points:
        assert p["node"] == _node_per_call(p["components"], p["point"], alpha)
    if alpha == 1:  # line2 is tangent to the conic at (1 : -1 : 1)
        assert [p["node"] for p in points] == [True, True, True, False, False]
    else:
        assert all(p["node"] for p in points)


def _construction_minors(components):
    """The nonzero gradient minors of two components in the order (0, 1),
    (0, 2), (1, 2), over the pencil variables, as the node test built them
    before sorting."""
    gens = [MultiPoly.gen(PENCIL_VARS, v) for v in PENCIL_VARS]
    x, y, z, alpha = gens
    comps = {"conic": conic_at(x, y, z), "line1": line1_at(x, y, z),
             "line2": line2_at(x, y, z, alpha)}
    g1, g2 = ([comps[name].derivative(v) for v in PLANE_VARS] for name in components)
    minors = (g1[i] * g2[j] - g1[j] * g2[i] for i, j in ((0, 1), (0, 2), (1, 2)))
    return [m for m in minors if not m.is_zero]


def test_node_minors_are_tried_cheapest_first():
    assert set(_PAIR_MINORS) == {("conic", "line1"), ("line1", "line2"), ("conic", "line2")}
    for components, minors in _PAIR_MINORS.items():
        costs = [(m.total_degree(), len(m.terms)) for m in minors]
        assert costs == sorted(costs), components
        same = [sorted(sorted(m.terms.items()) for m in ms)
                for ms in (minors, _construction_minors(components))]
        assert same[0] == same[1], components
    # line1 cap line2 is decided by the constant 1, conic cap line2 by 2x + 2y
    assert _PAIR_MINORS["line1", "line2"][0] == 1
    x, y = (MultiPoly.gen(PENCIL_VARS, v) for v in "xy")
    assert _PAIR_MINORS["conic", "line2"][0] == 2 * x + 2 * y
    # at the tacnode 2x + 2y vanishes, and so does every later minor
    at = dict(zip(PENCIL_VARS, (1, -1, 1, 1)))
    assert [m.evaluate(at) for m in _PAIR_MINORS["conic", "line2"]] == [0, 0, 0]
