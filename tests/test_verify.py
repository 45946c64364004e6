import numpy as np
import pytest

from corrclust import round_pivot
from corrclust.verify import (
    COMBINED_RATIO_BOUND,
    TRIANGLE_KINDS,
    TrianglePoint,
    case2c_quartic,
    certify_triangle_kind,
    combined_plus_ratio,
    f_plus,
    sample_triangle_point,
    triangle_point_from_events,
    verify_f_constant,
    verify_final_ratio,
    verify_triangle_case,
)


def test_final_ratio_values():
    res = verify_final_ratio(1e-4)
    assert res.ok
    assert res.max_value <= COMBINED_RATIO_BOUND + 1e-6
    assert abs(res.argmax - 0.485) <= 2e-4
    assert abs(res.minus_edge_value - 1.58) < 1e-12
    # endpoint evaluations
    assert combined_plus_ratio(0.485) == pytest.approx(0.84 / 1.485 + 1.16, abs=1e-12)
    assert combined_plus_ratio(1.0) == pytest.approx(1.58, abs=1e-12)
    assert combined_plus_ratio(0.0) == pytest.approx(0.42 * 2 + 0.58 * 1.515, abs=1e-12)
    with pytest.raises(ValueError):
        verify_final_ratio(grid_step=0.01)


def test_ratio_shape():
    # decreasing beyond the kink, convex before it (discrete checks)
    xs = np.linspace(0.485, 1.0, 200)
    vals = combined_plus_ratio(xs)
    assert (np.diff(vals) <= 1e-12).all()
    xs2 = np.linspace(0.0, 0.485, 200)
    v2 = combined_plus_ratio(xs2)
    assert (np.diff(v2, 2) >= -1e-9).all()


def test_f_constant(monkeypatch):
    res = verify_f_constant()
    assert res.ok
    assert res.equality_gap_at_half == 0.0
    assert res.min_gap_near_touch < 0.01  # near-tight inside [0.45, 0.5]
    # spot values
    assert (-1 + 4 * 0.5 - 2 * 0.25) / 0.25 == pytest.approx(2.0, abs=0)
    rhs_0485 = (-1 + 4 * 0.485 - 2 * 0.485**2) / 0.485**2
    assert rhs_0485 == pytest.approx(1.9962, abs=1e-3)
    assert rhs_0485 <= 2.0
    rhs_01 = (-1 + 0.4 - 0.02) / 0.01
    assert rhs_01 < 0 <= f_plus(0.1)
    # a wrong constant is caught, with a witness near the touch point: the
    # certifier reads the constant that pivot_budget charges, at call time
    monkeypatch.setattr(round_pivot, "F_PLUS_CONSTANT", 1.4)
    bad = verify_f_constant()
    assert not bad.ok
    assert 0.4 < bad.witness_x <= 0.5
    assert bad.max_violation > 0.1


def test_quartic_root():
    assert case2c_quartic(0.5) == 0.0
    assert abs(case2c_quartic(0.5)) <= 1e-12
    ys = np.linspace(0.5, 1.0, 500)
    assert (case2c_quartic(ys) >= -1e-12).all()


def test_equality_witnesses():
    lhs, rhs, ok = verify_triangle_case("---", TrianglePoint(1.0, 1.0, 1.0, 1.0))
    assert ok and lhs == rhs == 3.0
    lhs2, rhs2, ok2 = verify_triangle_case("++-", TrianglePoint(0.5, 0.5, 0.0, 0.0))
    assert ok2 and abs(lhs2 - rhs2) <= 1e-12


def test_triangle_point_sampling():
    rng = np.random.default_rng(0)
    for _ in range(12):
        sample_triangle_point(rng).validate()
    # boundary points
    all_split = triangle_point_from_events([0, 0, 0, 0, 1])
    assert all_split.y_ab == all_split.y_ac == all_split.y_bc == 0.0
    together = triangle_point_from_events([1, 0, 0, 0, 0])
    assert together.y_ab == together.y_ac == together.y_bc == 1.0


def test_triangle_point_validation():
    with pytest.raises(ValueError):
        TrianglePoint(1.0, 1.0, 0.0, 0.0).validate()  # a~b, a~c forces b~c
    with pytest.raises(ValueError):
        TrianglePoint(0.2, 0.2, 0.2, 0.5).validate()  # triple above pairs


def test_random_certification_all_kinds():
    rng = np.random.default_rng(7)
    for kind in TRIANGLE_KINDS:
        res = certify_triangle_kind(kind, 20000, rng)
        assert res["failures"] == 0, res
        assert res["worst_margin"] >= -1e-9


def _sides_from_first_principles(kind, p: TrianglePoint):
    """Re-derive both sides of the charging inequality from the pivot-scheme
    semantics: cost_p(u,v) is the probability the pair uv is violated when p
    is the pivot (idealized joints for correlated +pairs, independence
    otherwise); the budget side multiplies each pair's coefficient by the
    probability the pair is decided.  Coefficients follow the strengthened
    forms used by the closed-form checker: every -edge drops to coefficient
    1 in '---', the +edge drops to coefficient 1 in '+--', and f is replaced
    by its lower bound 1.5 in '+++'."""
    y = {"ab": p.y_ab, "ac": p.y_ac, "bc": p.y_bc}
    t = p.y_abc
    # sign conventions of the checker: '++-' has +edges ab, ac; '+--' has
    # its single +edge on bc
    edge_sign = {
        "+++": {"ab": "+", "ac": "+", "bc": "+"},
        "++-": {"ab": "+", "ac": "+", "bc": "-"},
        "+--": {"ab": "-", "ac": "-", "bc": "+"},
        "---": {"ab": "-", "ac": "-", "bc": "-"},
    }[kind]

    def f(x):
        return min(1.515 + x, 2.0)

    def minus_budget_coeff(e):
        # -edge budget: the '---' form is strengthened to coefficient 1;
        # the mixed kinds keep the full coefficient 2
        return (1.0 if kind == "---" else 2.0) * y[e]

    others = {"a": ("ab", "ac", "bc"), "b": ("ab", "bc", "ac"), "c": ("ac", "bc", "ab")}
    lhs = rhs = 0.0
    for pivot, (e1, e2, opposite) in others.items():
        s1, s2 = edge_sign[e1], edge_sign[e2]
        # joint inclusion of the two non-pivot vertices, given the pivot
        both = t if (s1 == "+" and s2 == "+") else y[e1] * y[e2]
        decided = y[e1] + y[e2] - both
        if edge_sign[opposite] == "+":
            lhs += y[e1] + y[e2] - 2 * both  # exactly one joins cuts the +pair
        else:
            lhs += both  # both join internalizes the -pair
        if edge_sign[opposite] == "+":
            xo = 1 - y[opposite]
            coeff = 1.5 * xo if kind == "+++" else (1.0 * xo if kind == "+--" else f(xo) * xo)
        else:
            coeff = minus_budget_coeff(opposite)
        rhs += coeff * decided
    return lhs, rhs


def test_case_sides_match_first_principles():
    # the transcribed closed forms agree with a direct re-derivation from
    # the rounding semantics at random feasible points
    rng = np.random.default_rng(99)
    for kind in TRIANGLE_KINDS:
        for _ in range(200):
            p = sample_triangle_point(rng)
            lhs, rhs, _ = verify_triangle_case(kind, p)
            lhs2, rhs2 = _sides_from_first_principles(kind, p)
            assert lhs == pytest.approx(lhs2, abs=1e-12)
            assert rhs == pytest.approx(rhs2, abs=1e-12)


def test_scalar_case_matches_batch():
    rng = np.random.default_rng(3)
    for kind in TRIANGLE_KINDS:
        p = sample_triangle_point(rng)
        lhs, rhs, ok = verify_triangle_case(kind, p)
        assert ok
        assert np.isfinite(lhs) and np.isfinite(rhs)
