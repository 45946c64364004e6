"""Executable certification of the closed-form analysis.

Certifies numerically, on grids and random feasible points:

* the combined per-edge ratio max_x 0.42 * 2/(1+x) + 0.58 * min(1.515+x, 2)
  stays below 1.7257 (and the -edge combination equals 1.58),
* the per-triangle charging inequality (cost side vs budget side) for each
  sign pattern, over the simplex of triple-clustering events,
* the defining property of the +edge budget constant 1.515:
  min(1.515+x, 2) >= (-1+4x-2x^2)/x^2 on (0, 1/2], with equality at 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import round_pivot

SET_WEIGHT = 0.42
PIVOT_WEIGHT = 0.58
COMBINED_RATIO_BOUND = 1.7257
MINUS_EDGE_RATIO = SET_WEIGHT * 1.0 + PIVOT_WEIGHT * 2.0  # = 1.58

TRIANGLE_KINDS = ("+++", "++-", "+--", "---")
TOL = 1e-9  # slack allowed on every certified inequality
F_GRID_STEP = 1e-5  # grid of the budget-constant check on (0, 1/2]
RATIO_GRID_STEP = 1e-4  # default grid of the combined-ratio scan on [0, 1]


def f_plus(x):
    """min(F_PLUS_CONSTANT + x, 2), with the constant pivot_budget charges."""
    return np.minimum(round_pivot.F_PLUS_CONSTANT + x, 2.0)


# ---------------------------------------------------------------------------
# Triangle points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrianglePoint:
    """Pair/triple lift values on one triangle {a,b,c}.

    The five derived partition-event weights (all together; one vertex split
    off, three ways; all split) must be nonnegative and sum to one.
    """

    y_ab: float
    y_ac: float
    y_bc: float
    y_abc: float

    @property
    def y_ab_c(self) -> float:  # a,b together, c separate
        return self.y_ab - self.y_abc

    @property
    def y_ac_b(self) -> float:
        return self.y_ac - self.y_abc

    @property
    def y_a_bc(self) -> float:
        return self.y_bc - self.y_abc

    @property
    def y_split(self) -> float:  # all three separate
        return 1.0 - (self.y_ab + self.y_ac + self.y_bc) + 2 * self.y_abc

    def events(self) -> tuple[float, float, float, float, float]:
        return (self.y_abc, self.y_ab_c, self.y_ac_b, self.y_a_bc, self.y_split)

    def validate(self) -> None:
        ev = self.events()
        if min(ev) < -TOL:
            raise ValueError(f"negative partition event weight: {ev}")
        if abs(sum(ev) - 1.0) > TOL:
            raise ValueError(f"partition event weights sum to {sum(ev)}")
        for y in (self.y_ab, self.y_ac, self.y_bc):
            if not (-TOL <= y <= 1 + TOL):
                raise ValueError("pair value outside [0,1]")
            if self.y_abc > y + TOL:
                raise ValueError("triple value exceeds a pair value")


def sample_triangle_point(rng: np.random.Generator) -> TrianglePoint:
    """Uniform sample from the simplex of the five partition events, the
    feasible region of every sign pattern."""
    ev = rng.dirichlet(np.ones(5))
    return triangle_point_from_events(ev)


def triangle_point_from_events(ev) -> TrianglePoint:
    abc, ab_c, ac_b, a_bc, _split = (float(t) for t in ev)
    return TrianglePoint(y_ab=abc + ab_c, y_ac=abc + ac_b, y_bc=abc + a_bc, y_abc=abc)


# ---------------------------------------------------------------------------
# Per-triangle charging inequality
# ---------------------------------------------------------------------------


def triangle_case_sides(kind: str, y_ab, y_ac, y_bc, y_abc):
    """(cost side, budget side) of the per-triangle inequality, vectorized.

    Sign conventions: '++-' has +edges ab, ac and -edge bc; '+--' has +edge
    bc and -edges ab, ac.  The '---' and '+--' budget sides use coefficient
    1 for the edges where the full analysis allows it (stronger form); the
    '+++' budget side uses the inherited lower bound 1.5 in place of f.
    """
    y_ab, y_ac = np.asarray(y_ab, dtype=float), np.asarray(y_ac, dtype=float)
    y_bc, y_abc = np.asarray(y_bc, dtype=float), np.asarray(y_abc, dtype=float)
    x_ab, x_ac, x_bc = 1 - y_ab, 1 - y_ac, 1 - y_bc
    if kind == "---":
        lhs = y_ab * y_ac + y_ab * y_bc + y_ac * y_bc
        rhs = (
            (y_ab + y_ac - y_ab * y_ac) * y_bc
            + (y_ab + y_bc - y_ab * y_bc) * y_ac
            + (y_ac + y_bc - y_ac * y_bc) * y_ab
        )
    elif kind == "+--":
        lhs = (2 - x_bc) * (y_ab + y_ac) - 2 * y_ab * y_ac
        rhs = (
            (y_ab + y_ac - y_ab * y_ac) * x_bc
            + 2 * y_ac * (y_ab + y_bc - y_ab * y_bc)
            + 2 * y_ab * (y_ac + y_bc - y_ac * y_bc)
        )
    elif kind == "++-":
        lhs = y_abc + y_ab + y_ac + 2 * y_bc - 2 * (y_ab + y_ac) * y_bc
        rhs = (
            2 * (y_ab + y_ac - y_abc) * y_bc
            + f_plus(x_ac) * (y_ab + y_bc - y_ab * y_bc) * (1 - y_ac)
            + f_plus(x_ab) * (y_ac + y_bc - y_ac * y_bc) * (1 - y_ab)
        )
    elif kind == "+++":
        lhs = 2 * (y_ab + y_ac + y_bc) - 6 * y_abc
        rhs = 1.5 * (
            (1 - y_bc) * (y_ab + y_ac - y_abc)
            + (1 - y_ac) * (y_ab + y_bc - y_abc)
            + (1 - y_ab) * (y_ac + y_bc - y_abc)
        )
    else:
        raise ValueError(f"unknown triangle kind {kind!r}")
    return lhs, rhs


def verify_triangle_case(kind: str, point: TrianglePoint) -> tuple[float, float, bool]:
    """Both sides of the charging inequality at one point; ok iff lhs <= rhs + TOL."""
    point.validate()
    lhs, rhs = triangle_case_sides(kind, point.y_ab, point.y_ac, point.y_bc, point.y_abc)
    return float(lhs), float(rhs), bool(lhs <= rhs + TOL)


def case2c_quartic(y) -> np.ndarray:
    """-4y^4 + 22y^3 - 32y^2 + 19y - 4 (Horner form), the '++-' budget
    margin along the symmetric slice y_ab = y_ac = y, y_bc = y_abc = 2y-1."""
    y = np.asarray(y, dtype=float)
    return (((-4 * y + 22) * y - 32) * y + 19) * y - 4


# ---------------------------------------------------------------------------
# Combined ratio and the budget constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinalRatioResult:
    max_value: float
    argmax: float
    minus_edge_value: float
    ok: bool


def combined_plus_ratio(x):
    """Weighted per-+edge ratio of the two schemes at distance x."""
    x = np.asarray(x, dtype=float)
    return SET_WEIGHT * 2.0 / (1.0 + x) + PIVOT_WEIGHT * f_plus(x)


def verify_final_ratio(grid_step: float = RATIO_GRID_STEP) -> FinalRatioResult:
    """Maximize the combined +edge ratio over [0,1] (grid plus the two
    critical points 0 and 2 - F_PLUS_CONSTANT); report the -edge combination too."""
    if not 0 < grid_step <= 1e-3:
        raise ValueError(f"grid-step {grid_step} outside (0, 1e-3]")
    xs = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    xs = np.append(xs, [0.0, 2.0 - round_pivot.F_PLUS_CONSTANT])
    vals = combined_plus_ratio(xs)
    i = int(np.argmax(vals))
    mx, arg = float(vals[i]), float(xs[i])
    return FinalRatioResult(
        max_value=mx,
        argmax=arg,
        minus_edge_value=MINUS_EDGE_RATIO,
        ok=mx <= COMBINED_RATIO_BOUND + 1e-6,
    )


@dataclass(frozen=True)
class FConstantResult:
    ok: bool
    max_violation: float
    witness_x: float
    equality_gap_at_half: float
    min_gap_near_touch: float


def verify_f_constant() -> FConstantResult:
    """Check f_plus(x) >= (-1+4x-2x^2)/x^2 on (0, 1/2]: pointwise on
    the F_GRID_STEP grid, exact equality at x = 1/2, and near-tightness
    around 0.485."""
    xs = np.arange(F_GRID_STEP, 0.5 + F_GRID_STEP / 2, F_GRID_STEP)
    touch = 2.0 - round_pivot.F_PLUS_CONSTANT  # where the two branches of f meet
    extras = [0.5, touch] if 0.0 < touch <= 0.5 else [0.5]
    xs = np.unique(np.append(xs, extras))
    rhs = (-1.0 + 4.0 * xs - 2.0 * xs**2) / xs**2
    lhs = f_plus(xs)
    gap = lhs - rhs
    i = int(np.argmin(gap))
    window = (xs >= 0.45) & (xs <= 0.5)
    min_gap_near = float(gap[window].min()) if window.any() else float("inf")
    at_half = float(f_plus(0.5) - ((-1.0 + 4.0 * 0.5 - 2.0 * 0.25) / 0.25))
    return FConstantResult(
        ok=bool((gap >= -1e-12).all()),
        max_violation=float(max(0.0, -gap[i])),
        witness_x=float(xs[i]),
        equality_gap_at_half=at_half,
        min_gap_near_touch=min_gap_near,
    )


# ---------------------------------------------------------------------------
# Bulk random certification (used by the acceptance suite and the CLI)
# ---------------------------------------------------------------------------


def certify_triangle_kind(kind: str, samples: int, rng: np.random.Generator) -> dict:
    """Check the charging inequality on uniformly sampled feasible points.
    Returns counts and the worst margin (rhs - lhs)."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    ev = rng.dirichlet(np.ones(5), size=samples)
    y_abc = ev[:, 0]
    y_ab = ev[:, 0] + ev[:, 1]
    y_ac = ev[:, 0] + ev[:, 2]
    y_bc = ev[:, 0] + ev[:, 3]
    lhs, rhs = triangle_case_sides(kind, y_ab, y_ac, y_bc, y_abc)
    margin = rhs - lhs
    failures = int((margin < -TOL).sum())
    i = int(np.argmin(margin))
    return {
        "kind": kind,
        "samples": samples,
        "failures": failures,
        "worst_margin": float(margin[i]),
        "worst_point": [float(y_ab[i]), float(y_ac[i]), float(y_bc[i]), float(y_abc[i])],
    }
