"""LP facade and builders for the three relaxations.

A :class:`LinearProgram` separates constraint coefficients on the decision
variables from coefficients on the *input metric* x (parameter columns).
Feasibility is decided by HiGHS; when a program with parameter columns is
infeasible, the weights of the HiGHS dual ray on the program's rows give a
hyperplane separating the input x from the convex hull of good clusterings.

:func:`solve` hands the model to the HiGHS class that scipy bundles
(``scipy.optimize._highspy._core._Highs``) as arrays, with exactly the
options ``linprog(method="highs-ds")`` sets, and translates the HiGHS model
status once: into an :class:`LPResult` (optimal, or infeasible with its
:class:`SeparationCertificate`), or an :class:`LPError` for every other
outcome.  Every column is boxed, so no program is unbounded.
Rows a builder marks lazy are left out at first.  Each lazy row carries a
label; after each solve, every lazy row that shares a label with a row the
point violates is added, and HiGHS re-runs warm from its last basis, until
the point violates none.  This is sound for any objective: the relaxed
program's feasible set contains the full one's, so a relaxation optimum
that satisfies every row of the full program is an optimum of the full
program (and a vertex of it); and a relaxation that is infeasible proves
the full program infeasible.  Which
rows enter together changes the number of passes and which vertex comes
back, not that argument.  A program without lazy rows gets one pass, on the
model ``linprog`` would build, without linprog's input cleaning and result
packaging.  The HiGHS class is private scipy API: two probes check at
import that it generates rows and reports the ray, and the import fails if
not.

Three builders are provided:

* :func:`build_triangle_lp`   - the plain metric LP over x itself,
* :func:`build_set_lp`        - size-stratified lift y^s_S, used by
                                set-based rounding,
* :func:`build_pivot_lp`      - single-layer lift y_S with triangle
                                constraints, used by pivot-based rounding.

Variables indexed by nonempty sets live in [0,1]; the empty-set variables
count clusters (of a given size, for the stratified lift) and live in [0,n].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy
import scipy.sparse as sp

from .core import (
    ATOMIC,
    NON_ADMISSIBLE,
    Clustering,
    Metric,
    Pair,
    PreclusteredInstance,
    SignedGraph,
    clamp_unit,
)

SOLVER_TOL = 1e-9
_WINDOW_TOL = 1e-9  # cluster-size boundary shared by the pin and the refinement
_HIGHS_OPTS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class LPError(RuntimeError):
    """Solver failure that is not plain infeasibility."""


def _check_finite(*bounds) -> None:
    for bound in bounds:
        if bound is not None and not np.isfinite(np.asarray(bound, dtype=float)).all():
            raise ValueError(f"column bounds must be finite, not {bound!r}")


# ---------------------------------------------------------------------------
# Generic LP container
# ---------------------------------------------------------------------------


class LinearProgram:
    """Sparse LP with optional metric-parameter columns.

    Rows are stored as ``a . vars <sense> rhs0 - p . x`` where x is the input
    metric (fixed at build time, but kept symbolic so infeasibility can be
    projected onto a separating hyperplane in x-space).  Parameter column i
    is ``param_pairs[i]``.  A lifted program records its column ``layout``,
    its sorted vertices: its columns are blocks of set variables from column
    0, each block ranked as in :class:`_SetIndex`; other programs leave it
    ``None``.
    """

    def __init__(self, name: str):
        self.name = name
        self.layout: tuple[int, ...] | None = None
        self.lb = np.zeros(0)
        self.ub = np.zeros(0)
        self._entries: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pentries: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._rhs0: list[np.ndarray] = []  # one array per add_rows call
        self._senses: list[np.ndarray] = []
        self._labels: list[np.ndarray] = []
        self._num_rows = 0
        self.param_pairs: list[Pair] = []
        self.param_values: list[float] = []
        self.objective: tuple[np.ndarray, np.ndarray, float] | None = None
        self._mats: tuple | None = None

    # -- variables ----------------------------------------------------------

    def add_vars(self, count: int, lb: float = 0.0, ub: float = 1.0) -> np.ndarray:
        """Append ``count`` columns with bounds [lb, ub]; a non-finite bound
        raises ``ValueError``, so every program is bounded."""
        _check_finite(lb, ub)
        base = self.num_vars
        self.lb = np.concatenate([self.lb, np.full(count, lb, dtype=float)])
        self.ub = np.concatenate([self.ub, np.full(count, ub, dtype=float)])
        self._mats = None
        return np.arange(base, base + count)

    @property
    def num_vars(self) -> int:
        return len(self.lb)

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def set_bounds(self, cols, lb=None, ub=None) -> None:
        _check_finite(lb, ub)
        cols = np.asarray(cols, dtype=int)
        if lb is not None:
            self.lb[cols] = lb
        if ub is not None:
            self.ub[cols] = ub
        self._mats = None

    def fix_vars(self, cols, values) -> None:
        self.set_bounds(cols, lb=values, ub=values)

    # -- parameter (metric) columns ------------------------------------------

    def set_params(self, pairs: Sequence[Pair], x: Metric) -> None:
        """Parameter column i is ``pairs[i]``, valued at x."""
        self.param_pairs = list(pairs)
        self.param_values = [float(x.x(*p)) for p in pairs]
        self._mats = None

    # -- rows -----------------------------------------------------------------

    def add_rows(
        self,
        count: int,
        sense: str,
        rhs,
        entries: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
        param_entries: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]] = (),
        lazy=-1,
    ) -> None:
        """Append ``count`` rows; local row ids in the entry triplets are
        offset by the current row count.  sense is '<' or '='.  ``lazy``
        holds integer labels (one, or one per row).  -1, the default, marks
        an eager row.  A label >= 0 marks a lazy row, which :func:`solve`
        leaves out until a point violates a row of its label; then every lazy
        row of that label, across the program, enters together.  Lazy rows
        are part of the model all the same.  Bools and integers below -1
        raise ``ValueError``."""
        if sense not in ("<", "="):
            raise ValueError(f"bad sense {sense!r}")
        base = self.num_rows
        self._rhs0.append(np.broadcast_to(np.asarray(rhs, dtype=float), (count,)))
        self._senses.append(np.full(count, sense))
        labels = np.broadcast_to(np.asarray(lazy), (count,))
        # numpy promotes [True, 2] to integers, so look for bools in a list too
        items = lazy if isinstance(lazy, (list, tuple)) else ()
        if (not np.issubdtype(labels.dtype, np.integer) or labels.min(initial=-1) < -1
                or any(isinstance(x, (bool, np.bool_)) for x in items)):
            raise ValueError(f"lazy must be integer labels >= -1, not {lazy!r}")
        self._labels.append(labels.astype(int))
        self._num_rows += count
        for (r, c, v) in entries:
            r = np.asarray(r, dtype=int)
            self._entries.append((r + base, np.asarray(c, dtype=int), np.asarray(v, dtype=float)))
        for (r, c, v) in param_entries:
            r = np.asarray(r, dtype=int)
            self._pentries.append((r + base, np.asarray(c, dtype=int), np.asarray(v, dtype=float)))
        self._mats = None

    def add_row(self, coeffs: Mapping[int, float], sense: str, rhs: float,
                params: Mapping[int, float] | None = None) -> None:
        cols = np.fromiter(coeffs.keys(), dtype=int, count=len(coeffs))
        vals = np.fromiter(coeffs.values(), dtype=float, count=len(coeffs))
        pe = ()
        if params:
            pc = np.fromiter(params.keys(), dtype=int, count=len(params))
            pv = np.fromiter(params.values(), dtype=float, count=len(params))
            pe = [(np.zeros(len(params), dtype=int), pc, pv)]
        self.add_rows(1, sense, [rhs], [(np.zeros(len(coeffs), dtype=int), cols, vals)], pe)

    @property
    def labels(self) -> np.ndarray:
        """Per-row label: -1 for an eager row; lazy rows that share a label
        enter :func:`solve`'s row generation together."""
        return np.concatenate(self._labels) if self._labels else np.zeros(0, dtype=int)

    def set_objective(self, cols, coefs, constant: float = 0.0) -> None:
        self.objective = (np.asarray(cols, dtype=int), np.asarray(coefs, dtype=float), constant)

    # -- matrix assembly -------------------------------------------------------

    def matrices(self):
        """(A, P, rhs0, senses, lb, ub) with A sparse over vars, P over params."""
        if self._mats is None:
            def csr(entries, ncols):
                ri, ci, vi = (np.concatenate([e[k] for e in entries]) if entries else np.zeros(0)
                              for k in range(3))
                return sp.coo_matrix((vi, (ri, ci)), shape=(self.num_rows, ncols)).tocsr()

            self._mats = (
                csr(self._entries, self.num_vars),
                csr(self._pentries, len(self.param_pairs)),
                np.concatenate(self._rhs0) if self._rhs0 else np.zeros(0),
                np.concatenate(self._senses) if self._senses else np.zeros(0, dtype="<U1"),
                self.lb.copy(),
                self.ub.copy(),
            )
        return self._mats

    def effective_rhs(self) -> np.ndarray:
        A, P, rhs0, senses, lb, ub = self.matrices()
        xv = np.asarray(self.param_values, dtype=float)
        return rhs0 - (P @ xv if len(xv) else 0.0)

    def residuals(self, values: np.ndarray) -> np.ndarray:
        """Per-row violation (positive where violated) at a given point."""
        A, P, rhs0, senses, lb, ub = self.matrices()
        return _violation(A @ values - self.effective_rhs(), senses == "<")


def _violation(gap: np.ndarray, ineq: np.ndarray) -> np.ndarray:
    """Per-row violation from ``gap`` = lhs - rhs: the gap itself on an
    inequality row (``ineq``), its absolute value on an equality row."""
    return np.where(ineq, gap, np.abs(gap))


# ---------------------------------------------------------------------------
# Solve results and separation certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationCertificate:
    """Hyperplane (w, b) with w.x' >= b for every metric x' of a good
    clustering, but w.x < b for the rejected input x."""

    w: dict[Pair, float]
    b: float
    provenance: str
    rejected_value: float  # w.x at the rejected point

    def evaluate(self, x: Metric) -> float:
        return sum(coef * x.x(*p) for p, coef in self.w.items())

    def separates(self, x: Metric) -> bool:
        return self.evaluate(x) < self.b - SOLVER_TOL

    def to_dict(self) -> dict:
        """Report form: the offset, the weights sorted by pair, the LP name."""
        return {
            "b": self.b,
            "w": sorted((list(p), c) for p, c in self.w.items()),
            "provenance": self.provenance,
        }


@dataclass
class LPResult:
    """What :func:`solve` returns: an optimal point and its objective, or,
    for an infeasible program, the certificate that separates its x."""

    status: str  # optimal | infeasible
    values: np.ndarray | None = None
    objective: float | None = None
    certificate: SeparationCertificate | None = None  # of an infeasible program, from the dual ray
    iterations: int = 0  # HiGHS simplex iterations


def _probe(objective: float, coefs, rhs) -> LinearProgram:
    """``min objective * u``, ``0 <= u <= 3``, one row and one lazy row."""
    lp = LinearProgram("highs-probe")
    lp.add_vars(1, ub=3.0)
    lp.add_rows(2, "<", rhs, [(np.arange(2), np.zeros(2, dtype=int), np.asarray(coefs, dtype=float))],
                lazy=[-1, 0])
    lp.set_objective([0], [objective])
    return lp


def _load_highs():
    """scipy's bundled HiGHS module, checked to work the way :func:`_run_highs`
    uses it; else ImportError.  Row generation: ``min -u`` with the row
    ``u <= 2`` and the lazy row ``u <= 1`` must return ``u = 1``.  Dual ray:
    ``min 0`` with the row ``u <= 1`` and the lazy row ``-u <= -2`` must come
    back infeasible with the certificate ``0 >= 1``: the program has no
    parameter column, so no x makes it feasible."""
    probe = "row generation"
    try:
        from scipy.optimize._highspy import _core as hc

        res = _run_highs(hc, _probe(-1.0, [1.0, 1.0], [2.0, 1.0]))
        if res.status == "optimal" and res.values.tolist() == [1.0] and res.objective == -1.0:
            probe = "dual ray"
            res = _run_highs(hc, _probe(0.0, [1.0, -1.0], [1.0, -2.0]))
            if res.status == "infeasible" and res.certificate.w == {} and res.certificate.b == 1.0:
                return hc
        problem = f"returned {res}"
    except Exception as exc:  # any change in the private interface fails the check
        problem = repr(exc)
    raise ImportError(f"scipy {scipy.__version__}: its bundled HiGHS interface failed the {probe} probe "
                      f"({problem}); corrclust needs scipy>=1.17")


def _infeasible(lp: LinearProgram, z: np.ndarray, iterations: int) -> LPResult:
    """The infeasible result for signed weights ``z`` over ``lp``'s rows.

    A '<' row takes ``max(z, 0)``.  Wherever the rows hold, so does their
    combination ``r.u <= z.rhs0 - (z.P).x`` with ``r = z.A``, and the column
    bounds give ``r.u >= max(r, 0).lb - max(-r, 0).ub``.  So every x' whose
    program is feasible has ``(z.P).x' <= c``, where
    ``c = z.rhs0 + max(-r, 0).ub - max(r, 0).lb``.  ``z`` is a Farkas witness
    when the input x misses that bound, ``value = c - (z.P).x < 0``; divided
    by ``value``, the bound becomes the certificate ``w.x' >= b``, and
    ``w.x = b - 1``."""
    A, P, rhs0, senses, lb, ub = lp.matrices()
    z = np.where(senses == "<", np.maximum(z, 0.0), z)
    r = A.T @ z
    c = z @ rhs0 + np.maximum(-r, 0.0) @ ub - np.maximum(r, 0.0) @ lb
    zP = P.T @ z
    value = c - zP @ np.asarray(lp.param_values, dtype=float)
    if not value < 0.0:
        raise LPError(f"{lp.name}: reported infeasible but no Farkas witness found")
    w_vec = zP / value
    w = {p: float(w_vec[i]) for i, p in enumerate(lp.param_pairs) if abs(w_vec[i]) > 1e-14}
    cert = SeparationCertificate(
        w=w,
        b=float(c / value),
        provenance=lp.name,
        rejected_value=float(sum(w.get(p, 0.0) * xv for p, xv in zip(lp.param_pairs, lp.param_values))),
    )
    if not cert.rejected_value < cert.b - SOLVER_TOL:
        raise LPError(f"{lp.name}: certificate does not separate the rejected x")
    return LPResult("infeasible", certificate=cert, iterations=iterations)


def _run_highs(hc, lp: LinearProgram) -> LPResult:
    """Solve ``lp`` by row generation.  The first pass solves the eager rows
    as ``linprog(method="highs-ds")`` would: the same column-wise matrix with
    inequality rows first, the same options.  Each further pass adds every
    lazy row whose label a row violated by the last point (by more than the
    primal feasibility tolerance) carries, and re-runs warm from the last
    basis.  The point returned passes linprog's acceptance check on every
    row.

    An infeasible pass proves ``lp`` infeasible.  The negated dual ray, as
    weights over ``lp``'s rows (0 on lazy rows never added), gives the
    certificate.  When the pass leaves no basis of the model (presolve
    found the infeasibility), HiGHS's ``getDualRay`` first solves the model
    again without presolve, and those iterations count too; after a pass
    with a basis it reads the ray straight off it.  ``order`` holds the row
    of ``lp`` behind each HiGHS row.

    Returns the optimal or infeasible :class:`LPResult`, with the simplex
    iterations summed over every run; raises :class:`LPError` for every
    other outcome."""
    A, P, rhs0, senses, lb, ub = lp.matrices()
    b = lp.effective_rhs()
    ineq = senses == "<"
    labels = lp.labels
    lazy = labels != -1
    nv = lp.num_vars
    c, const = np.zeros(nv), 0.0
    if lp.objective is not None:
        cols, coefs, const = lp.objective
        np.add.at(c, cols, coefs)
    ms = hc.HighsModelStatus

    def failure(why: str) -> LPError:
        return LPError(f"{lp.name}: solver failure: {why}")

    eager = ~lazy
    rows = np.concatenate([np.flatnonzero(ineq & eager), np.flatnonzero(~ineq & eager)])
    M = A[rows].tocsc()
    rhs = b[rows]
    lhs = np.where(ineq[rows], -np.inf, rhs)
    h = hc._Highs()
    options = {"presolve": "on", "solver": "simplex", "output_flag": False, "log_to_console": False,
               "simplex_strategy": int(hc.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
               "highs_debug_level": int(hc.HighsDebugLevel.kHighsDebugLevelNone), **_HIGHS_OPTS}
    for option, value in options.items():
        h.setOptionValue(option, value)
    # the array overload of passModel rejects an empty integrality vector
    if h.passModel(nv, len(rhs), M.nnz, hc.MatrixFormat.kColwise, hc.ObjSense.kMinimize, 0.0,
                   c, lb, ub, lhs, rhs, M.indptr.astype(np.int32), M.indices.astype(np.int32),
                   M.data, np.zeros(nv, dtype=np.int32)) == hc.HighsStatus.kError:
        raise failure("HiGHS rejected the model")
    order = [rows]
    lazy_rows = np.flatnonzero(lazy)
    L, bL, ineqL, labelsL = A[lazy], b[lazy], ineq[lazy], labels[lazy]
    nit = 0
    while True:
        h.run()
        status = h.getModelStatus()
        info = h.getInfo()
        message = h.modelStatusToString(status)
        nit += info.simplex_iteration_count
        if status == ms.kOptimal:
            u = np.array(h.getSolution().col_value)
            violated = _violation(L @ u - bL, ineqL) > _HIGHS_OPTS["primal_feasibility_tolerance"]
            if not violated.any():
                break
            add = np.isin(labelsL, labelsL[violated])
        elif status == ms.kInfeasible:  # an infeasible relaxation: so is the full model
            resolves = not h.getBasis().valid
            _, has_ray, ray = h.getDualRay()
            if resolves:
                nit += h.getInfo().simplex_iteration_count
            if not has_ray:
                raise failure(f"{message}, but HiGHS reports no dual ray")
            z = np.zeros(len(b))
            z[np.concatenate(order)] = -np.asarray(ray)
            return _infeasible(lp, z, nit)
        else:
            raise failure(message)
        R = L[add]
        if h.addRows(R.shape[0], np.where(ineqL[add], -np.inf, bL[add]), bL[add], R.nnz,
                     R.indptr[:-1].astype(np.int32), R.indices.astype(np.int32),
                     R.data) == hc.HighsStatus.kError:
            raise failure("HiGHS rejected the added rows")
        order.append(lazy_rows[add])
        keep = ~add
        L, bL, ineqL, labelsL, lazy_rows = L[keep], bL[keep], ineqL[keep], labelsL[keep], lazy_rows[keep]
    fun = info.objective_function_value
    # linprog rejects a reported optimum that misses the constraints by more
    # than sqrt(tol) * 10, with its default tol = 1e-9
    tol = np.sqrt(1e-9) * 10
    if not (np.isfinite(fun) and np.all((u >= lb - tol) & (u <= ub + tol))
            and np.all(_violation(A @ u - b, ineq) <= tol)):
        raise failure(f"{message}, but the point misses the constraints by more than {tol:.2e}")
    return LPResult("optimal", values=u, objective=fun + const, iterations=nit)


_HIGHS = _load_highs()


def solve(lp: LinearProgram) -> LPResult:
    """Solve (or decide feasibility of) the program.

    Returns an optimal point, or for an infeasible program the
    :class:`SeparationCertificate` built from the HiGHS dual ray's weights
    on the program's rows; every other solver outcome raises
    :class:`LPError`.  The point is a vertex of a relaxation that leaves out
    some lazy rows and satisfies every row, hence a vertex of the full
    program.  ``iterations`` sums the simplex iterations of all passes, and
    of the solve that reads the ray.
    """
    A, P, rhs0, senses, lb, ub = lp.matrices()
    b = lp.effective_rhs()
    # HiGHS reports no dual ray for a violated row without coefficients
    # (every row, when there is no column): a unit weight on the worst one
    violation = _violation(-b, senses == "<") * (np.diff(A.indptr) == 0)
    if (violation > SOLVER_TOL).any():
        i, z = int(np.argmax(violation)), np.zeros(len(b))
        z[i] = -np.sign(b[i])
        return _infeasible(lp, z, 0)
    if lp.num_vars == 0:
        return LPResult("optimal", values=np.zeros(0), objective=lp.objective[2] if lp.objective else 0.0)
    return _run_highs(_HIGHS, lp)


# ---------------------------------------------------------------------------
# Triangle LP
# ---------------------------------------------------------------------------


def build_triangle_lp(g: SignedGraph, pre: PreclusteredInstance) -> LinearProgram:
    """Metric LP over x: triangle inequalities, preclustering pins, and the
    disagreement objective."""
    lp = LinearProgram(f"triangle-lp(n={g.n})")
    si = _set_index(g.n)
    cols = lp.add_vars(si.m)  # column = pair rank
    cls = pre.pair_class[si.pa, si.pb]
    lp.fix_vars(cols[cls == ATOMIC], 0.0)
    lp.fix_vars(cols[cls == NON_ADMISSIBLE], 1.0)
    t = si.t
    if t:
        rows = np.arange(3 * t)
        cuv, cuw, cvw = si.tab, si.tac, si.tbc
        # x_uv <= x_uw + x_wv, all three rotations
        long_side = np.concatenate([cuv, cuw, cvw])
        short1 = np.concatenate([cuw, cuv, cuv])
        short2 = np.concatenate([cvw, cvw, cuw])
        lp.add_rows(
            3 * t,
            "<",
            0.0,
            [
                (rows, long_side, np.ones(3 * t)),
                (rows, short1, -np.ones(3 * t)),
                (rows, short2, -np.ones(3 * t)),
            ],
        )
    coefs = np.array([1.0 if p in g.plus else -1.0 for p in si.pairs])
    lp.set_objective(cols, coefs, constant=float(g.num_minus))
    return lp


def solve_triangle_lp(g: SignedGraph, pre: PreclusteredInstance) -> tuple[Metric, float]:
    """Convenience wrapper: optimal fractional metric and its cost."""
    lp = build_triangle_lp(g, pre)
    res = solve(lp)
    if res.status != "optimal":
        raise LPError(f"triangle LP not solvable: {res.status}")
    vals = clamp_unit(res.values)
    metric = Metric(g.n, dict(zip(_set_index(g.n).pairs, vals.tolist())))
    return metric, float(res.objective)


# ---------------------------------------------------------------------------
# Shared combinatorics for the lifted programs
# ---------------------------------------------------------------------------


class _SetIndex:
    """Ranks of subsets of local vertices 0..n-1, sizes 0..3, in one
    contiguous block: the empty set, the singletons, the pairs, then the
    triples, each group in lexicographic order (``rank`` maps a set to its
    rank).  Row k of ``members`` holds the set of rank k in its first
    ``size[k]`` entries, padded by repeating the last member: ``(i, i, i)``,
    ``(a, b, b)``, ``(a, b, c)``, so a test on every member of a set is one
    test on its row, whatever its size; the empty set's row holds no member
    and is skipped or masked.  ``pa, pb`` and ``ta, tb, tc`` are columns of
    the pairs' and triples' rows; ``tab``, ``tac`` and ``tbc`` are the pair
    ranks of each triple's pairs ab, ac and bc.  Also holds the row patterns
    of one lifted layer in these ranks.  Depends only on n; use
    :func:`_set_index`, which shares one instance per n."""

    def __init__(self, n: int):
        self.n = n
        self.pairs = list(combinations(range(n), 2))
        triples = list(combinations(range(n), 3))
        self.m = m = len(self.pairs)
        self.t = t = len(triples)
        self.block = 1 + n + m + t
        self.size = np.repeat([0, 1, 2, 3], [1, n, m, t])
        self.members = np.array([(0, 0, 0), *((i, i, i) for i in range(n)),
                                 *((a, b, b) for a, b in self.pairs), *triples], dtype=int)
        # shared by every LP of this size: keep the arrays read-only
        self.members.flags.writeable = False
        self.rank = {tuple(r[:s]): k for k, (r, s) in enumerate(zip(self.members.tolist(), self.size.tolist()))}
        self.pa, self.pb = self.members[1 + n : 1 + n + m, :2].T
        self.ta, self.tb, self.tc = self.members[1 + n + m :].T
        pr = np.full((n, n), -1, dtype=int)
        pr[self.pa, self.pb] = pr[self.pb, self.pa] = np.arange(m)
        self.tab, self.tac, self.tbc = pr[self.ta, self.tb], pr[self.ta, self.tc], pr[self.tb, self.tc]
        self.box = self._box_rows()
        self.growth = self._growth_entries()
        for arr in (self.size, self.tab, self.tac, self.tbc, *self.box[:3], self.box[4], *self.growth):
            arr.flags.writeable = False

    def _box_rows(self):
        """One layer of inclusion-exclusion box rows, as (rows, ranks, coefs,
        row count, labels), all rows of sense '<= 0'.

        For all disjoint (S, T) with 1 <= |T| and |S u T| <= 3, the two-sided
        constraint sum_{T' <= T} (-1)^{|T'|} y_{S u T'} in [0, y_S], skipping
        sides that reduce to plain sign constraints.  The first n + 4m rows
        hold sets of size at most 2 and are labelled -1; each of the 11 t
        rows after them holds a triple and is labelled by its offset.
        """
        n, m, t = self.n, self.m, self.t
        y0 = np.zeros(n, dtype=int)
        ya = 1 + np.arange(n)
        # S=empty, T={a}, lower side: y_a - y_0 <= 0
        blocks = [[(ya, 1.0), (y0, -1.0)]]
        if m:
            ya, yb, yab, y0 = 1 + self.pa, 1 + self.pb, 1 + n + np.arange(m), np.zeros(m, dtype=int)
            blocks += [
                # S=empty, T={a,b}: 0 <= y0 - ya - yb + yab  and  (...) <= y0
                [(y0, -1.0), (ya, 1.0), (yb, 1.0), (yab, -1.0)],
                [(ya, -1.0), (yb, -1.0), (yab, 1.0)],
                # S={a}, T={b} and S={b}, T={a}, lower sides: monotonicity
                [(yab, 1.0), (ya, -1.0)],
                [(yab, 1.0), (yb, -1.0)],
            ]
        if t:
            ya, yb, yc = 1 + self.ta, 1 + self.tb, 1 + self.tc
            yab, yac, ybc = 1 + n + self.tab, 1 + n + self.tac, 1 + n + self.tbc
            yabc, y0 = 1 + n + m + np.arange(t), np.zeros(t, dtype=int)
            # S=empty, T={a,b,c}: lower and upper
            blocks += [
                [(y0, -1.0), (ya, 1.0), (yb, 1.0), (yc, 1.0), (yab, -1.0), (yac, -1.0), (ybc, -1.0),
                 (yabc, 1.0)],
                [(ya, -1.0), (yb, -1.0), (yc, -1.0), (yab, 1.0), (yac, 1.0), (ybc, 1.0), (yabc, -1.0)],
            ]
            # S={a}, T={b,c} (three rotations): lower and upper
            for (s_, p_, q_) in ((ya, yab, yac), (yb, yab, ybc), (yc, yac, ybc)):
                blocks += [
                    [(s_, -1.0), (p_, 1.0), (q_, 1.0), (yabc, -1.0)],
                    [(p_, -1.0), (q_, -1.0), (yabc, 1.0)],
                ]
            # S=pair, T={third}: monotonicity
            blocks += [[(yabc, 1.0), (p_, -1.0)] for p_ in (yab, yac, ybc)]
        rows, ranks, coefs = [], [], []
        count = 0
        for terms in blocks:
            k = len(terms[0][0])
            for rk, coef in terms:
                rows.append(count + np.arange(k))
                ranks.append(rk)
                coefs.append(np.full(k, coef))
            count += k
        offsets = np.arange(count)
        return (np.concatenate(rows), np.concatenate(ranks), np.concatenate(coefs), count,
                np.where(offsets >= n + 4 * m, offsets, -1))

    def _growth_entries(self):
        """(rows, ranks) of the +1 terms of the size-consistency rows (5):
        the row of S (ranked like S, |S| <= 2) holds y_{S+u} for u not in S."""
        n, m = self.n, self.m
        rows = [np.zeros(n, dtype=int), 1 + self.pa, 1 + self.pb,
                1 + n + self.tbc, 1 + n + self.tac, 1 + n + self.tab]
        pair_ranks = 1 + n + np.arange(m)
        triple_ranks = 1 + n + m + np.arange(self.t)
        ranks = [1 + np.arange(n), pair_ranks, pair_ranks, triple_ranks, triple_ranks, triple_ranks]
        return np.concatenate(rows), np.concatenate(ranks)


@lru_cache(maxsize=64)
def _set_index(n: int) -> _SetIndex:
    return _SetIndex(n)


# ---------------------------------------------------------------------------
# Set LP (size-stratified lift)
# ---------------------------------------------------------------------------


def build_set_lp(
    vprime: Sequence[int],
    pre: PreclusteredInstance,
    x: Metric,
    epsilon: float,
) -> LinearProgram:
    """Size-stratified lifted LP on the remaining vertex set.

    Variables: y_S aggregates and y^s_S per cluster size s, for |S| <= 3
    (lift order r = 3).  The paper's relaxed metric copy xt is substituted
    away by its row (3), xt_uv = 1 - y_uv: row (4) reads y_uv <= 1 - x_uv,
    the atomic pin (6) reads y_uv = 1, and row (7) budgets
    sum (1 - y_uv - x_uv).  Cluster-size windows pin y^s_S = 0 whenever some
    u in S cannot live in a size-s cluster (its atom is kept whole, or the
    size is within the forbidden margin above the atom size).

    Objective: the total slack sum (1 - y_uv - x_uv) over the local pairs,
    x held as a constant, so the optimum is 0 exactly when y_uv = 1 - x_uv
    has a feasible lift.  Set-based rounding needs only a feasible point:
    its budgets are charged on x and its ledger reconciles against ceilings
    computed from x, so every point of this program is sound, and the
    objective only picks one.  Without one, the point would be whichever
    vertex HiGHS's path reaches; this one keeps 1 - y as close to x as the
    lift allows.  Row (7) stays: where the optimum is positive the slack is
    needed for feasibility, and the analysis allows at most
    epsilon * sum d_adm of it.

    Columns (``lp.layout``): one block of set variables (ranked as in
    :class:`_SetIndex`) for y and one per size s = 1..n for y^s.  Rows:
    (1), (4), (7), then (5) for every s, then (9) for every s.  The
    per-layer rows are one pattern tiled over the layers.

    The box rows (9) that hold a triple, 11 per triple and layer, are marked
    lazy: they are most of the rows, and few of them bind at the point
    :func:`solve` returns, so it adds them only when violated.  Each is
    labelled by its offset in the layer pattern, so a violated row enters
    together with its copies in all n layers.  On instances without atoms
    this takes fewer warm passes and iterations than adding only the
    violated rows.
    """
    verts = sorted(vprime)
    n = len(verts)
    if n == 0:
        raise ValueError("empty vertex set")
    si = _set_index(n)
    m, B = si.m, si.block
    lp = LinearProgram(f"set-lp(n'={n},r=3)")

    # variables: y sets, then y^s sets per s
    lp.layout = tuple(verts)
    lp.add_vars(B * (n + 1))
    layers = np.arange(1, n + 1)
    ys_base = B * layers  # first column (the empty set) of each layer
    lp.set_bounds(np.concatenate([[0], ys_base]), ub=float(n))  # empty sets count clusters
    # (2) y_u = 1
    lp.fix_vars(1 + np.arange(n), 1.0)

    # pair classes on V'; a vertex counts as in its own atom
    cls = pre.pair_class[np.ix_(verts, verts)]
    same, non_adm = cls == ATOMIC, cls == NON_ADMISSIBLE
    ypair = 1 + n + np.arange(m)
    # (6) atomic y_uv = 1
    lp.fix_vars(ypair[same[si.pa, si.pb]], 1.0)
    d_adm = [pre.d_adm(v) for v in verts]

    # Size windows.  Vertex i fits a size-s cluster with set S if s is its
    # atom's size and S lies inside that atom, or s is outside the open
    # margin above the atom size (the boundary itself stays allowed: the
    # refinement that justifies this pin only splits clusters strictly
    # inside the margin).  Atoms are equivalence classes, so "S lies inside
    # i's atom" is the same for every i in S.
    a_size = same.sum(axis=1)
    at_size = layers[None, :] == a_size[:, None]
    beyond = ~at_size & (layers[None, :] >= (a_size + epsilon * np.asarray(d_adm) - _WINDOW_TOL)[:, None])
    M = si.members
    # y_S = 0 where a member pair is non-admissible (a padded pair (i, i) is atomic)
    y_pinned = non_adm[M[:, [0, 0, 1]], M[:, [1, 2, 2]]].any(axis=1)
    inside = same[M[:, :1], M].all(axis=1)  # the set lies inside one atom
    fits = (beyond[M] | at_size[M] & inside[:, None, None]).all(axis=1)  # every member fits layer s
    # (set rank, layer); the empty sets count clusters and stay free
    ys_pinned = (~fits | (layers < si.size[:, None]) | y_pinned[:, None]) & (si.size > 0)[:, None]
    lp.fix_vars(np.flatnonzero(y_pinned), 0.0)
    lp.fix_vars(B + np.flatnonzero(ys_pinned.T), 0.0)

    def tiled(rows, row_count, ranks):
        """Rows and columns of one layer's pattern repeated for s = 1..n."""
        return (((layers - 1) * row_count)[:, None] + rows).ravel(), (ys_base[:, None] + ranks).ravel()

    # (1) sum_s y^s_S = y_S, for every S
    rows = np.arange(B)
    lp.add_rows(B, "=", 0.0, [(rows, rows, -np.ones(B)),
                              (np.tile(rows, n), B + np.arange(n * B), np.ones(n * B))])

    # (3) xt_uv = 1 - y_uv is substituted into (4), (6), (7) and the objective
    if m:
        rows = np.arange(m)
        # (4) y_uv <= 1 - x_uv  (parameter rows); parameter column = pair rank
        lp.set_params([(verts[a], verts[b]) for a, b in si.pairs], x)
        lp.add_rows(m, "<", 1.0, [(rows, ypair, np.ones(m))], [(rows, rows, np.ones(m))])
        # (7) the total slack sum (1 - y_uv - x_uv) is budgeted
        zeros = np.zeros(m, dtype=int)
        lp.add_rows(1, "<", epsilon * sum(d_adm) - m, [(zeros, ypair, -np.ones(m))],
                    [(zeros, rows, -np.ones(m))])
        # minimize that slack: -sum y_uv, plus the constant m - sum x_uv
        lp.set_objective(ypair, -np.ones(m), constant=m - sum(lp.param_values))

    # (5) size consistency: sum_{u not in S} y^s_{Su} = (s - |S|) y^s_S, |S| <= 2
    count = 1 + n + m
    own = np.arange(count)
    grow_rows, grow_ranks = si.growth
    r_grow, c_grow = tiled(grow_rows, count, grow_ranks)
    r_own, c_own = tiled(own, count, own)
    lp.add_rows(
        n * count, "=", 0.0,
        [(r_grow, c_grow, np.ones(len(r_grow))),
         (r_own, c_own, (-(layers[:, None] - si.size[own].astype(float))).ravel())],
    )

    # (9) inclusion-exclusion box constraints, one layer per size s; the rows
    # with a triple are lazy, one label per offset across the layers
    box_rows, box_ranks, box_coefs, count, box_labels = si.box
    r_box, c_box = tiled(box_rows, count, box_ranks)
    lp.add_rows(n * count, "<", 0.0, [(r_box, c_box, np.tile(box_coefs, n))], lazy=np.tile(box_labels, n))
    return lp


# ---------------------------------------------------------------------------
# Pivot LP (single-layer lift)
# ---------------------------------------------------------------------------


def build_pivot_lp(g: SignedGraph, pre: PreclusteredInstance, x: Metric) -> LinearProgram:
    """Single-layer lifted feasibility LP over all of V (sets up to triples,
    lift order r = 3), with the pairwise layer pinned to the input metric and
    triangle constraints on triples."""
    n = g.n
    si = _set_index(n)
    lp = LinearProgram(f"pivot-lp(n={n},r=3)")
    lp.layout = tuple(range(n))  # column = set rank
    lp.add_vars(si.block)
    lp.set_bounds([0], lb=0.0, ub=float(n))  # y_empty counts clusters
    lp.fix_vars(1 + np.arange(n), 1.0)
    m = si.m
    rows = np.arange(m)
    ypair = 1 + n + rows
    lp.set_params(si.pairs, x)  # parameter column = pair rank
    # y_uv = 1 - x_uv, kept as parameter rows so infeasibility projects to x
    lp.add_rows(m, "<", 1.0, [(rows, ypair, np.ones(m))], [(rows, rows, np.ones(m))])
    lp.add_rows(m, "<", -1.0, [(rows, ypair, -np.ones(m))], [(rows, rows, -np.ones(m))])
    # box constraints (single layer)
    box_rows, box_ranks, box_coefs, count, _ = si.box
    lp.add_rows(count, "<", 0.0, [(box_rows, box_ranks, box_coefs)])
    # triangle rows: y_ab + y_ac + y_bc - 2 y_abc <= 1
    t = si.t
    if t:
        yab, yac, ybc = 1 + n + si.tab, 1 + n + si.tac, 1 + n + si.tbc
        yabc = 1 + n + m + np.arange(t)
        rows = np.arange(t)
        lp.add_rows(
            t, "<", 1.0,
            [(rows, yab, np.ones(t)), (rows, yac, np.ones(t)), (rows, ybc, np.ones(t)),
             (rows, yabc, -2 * np.ones(t))],
        )
    return lp


# ---------------------------------------------------------------------------
# Lifted solutions
# ---------------------------------------------------------------------------


class LiftedSolution:
    """Point of one of the lifted relaxations: the solver's array, clamped,
    read by set through its program's column ``layout``.

    Variables indexed by nonempty sets are clamped to [0,1]; the
    solver's excursions beyond it are at tolerance level, and larger ones
    raise at extraction.  Empty-set variables count clusters and are only
    floored at 0.
    """

    def __init__(self, values: np.ndarray, verts: tuple[int, ...]):
        self.values = values
        si = _set_index(len(verts))
        self._rank, self._block = si.rank, si.block
        self._local = [-1] * (verts[-1] + 1 if verts else 0)  # vertex -> local index
        for i, v in enumerate(verts):
            self._local[v] = i

    def _rank_of(self, vs: Iterable[int]) -> int:
        return self._rank[tuple(sorted({self._local[v] for v in vs}))]

    @property
    def y0(self) -> float:
        return float(self.values[0])

    def y_of(self, vs: Iterable[int]) -> float:
        return float(self.values[self._rank_of(vs)])

    def ys_of(self, s: int, vs: Iterable[int]) -> float:
        return float(self.values[self._block * s + self._rank_of(vs)])


_LIFT_TOL = 1e-6  # largest excursion outside [0,1] accepted as solver noise


def lifted_from_result(lp: LinearProgram, res: LPResult) -> LiftedSolution:
    if res.status != "optimal" or res.values is None:
        raise ValueError(f"cannot extract a lifted solution from status {res.status}")
    v = np.asarray(res.values, dtype=float)
    empty = np.zeros(len(v), dtype=bool)
    empty[:: _set_index(len(lp.layout)).block] = True
    bad = np.flatnonzero(~(empty | ((v >= -_LIFT_TOL) & (v <= 1 + _LIFT_TOL))))
    if bad.size:
        i = bad[0]
        raise LPError(
            f"{lp.name}: {_column_name(lp, i)} = {v[i]!r} lies outside [0,1] by more than "
            f"{_LIFT_TOL:g} ({bad.size} such values)"
        )
    return LiftedSolution(clamp_unit(v, ~empty), lp.layout)


# ---------------------------------------------------------------------------
# Integral lifts (used by tests and by exactness checks)
# ---------------------------------------------------------------------------


def size_window_refinement(
    clusters: list[set[int]], pre: PreclusteredInstance, epsilon: float
) -> list[set[int]]:
    """Split off atoms stuck in the forbidden size window, to a fixpoint.
    Mirrors the target-clustering surgery that justifies the size pins."""
    out = [set(c) for c in clusters if c]
    changed = True
    while changed:
        changed = False
        for c in out:
            for v in sorted(c):
                k = pre.atom_of(v) & c
                if len(k) < len(c) < epsilon * pre.d_adm(v) + len(k) - _WINDOW_TOL:
                    out.remove(c)
                    out.append(set(k))
                    rest = c - k
                    if rest:
                        out.append(rest)
                    changed = True
                    break
            if changed:
                break
    return out


def _inside_one_cluster(si: _SetIndex, label: np.ndarray) -> np.ndarray:
    """Per set rank of ``si``: whether the set is nonempty and lies inside one
    cluster, for local vertices labelled by cluster."""
    rows = si.members[1:]  # the nonempty sets
    return np.concatenate([[False], (label[rows] == label[rows[:, :1]]).all(axis=1)])


def integral_set_lift(vprime: Iterable[int], clusters: list[set[int]]) -> np.ndarray:
    """Value vector of the indicator lift of a clustering of V' for the set
    LP on V', in :func:`build_set_lp`'s column order: y_S = 1 and y^s_S = 1
    (for s the cluster's size) where S lies inside one cluster, and the
    empty sets count clusters (of size s)."""
    verts = sorted(vprime)
    n = len(verts)
    si = _set_index(n)
    label = np.empty(n, dtype=int)
    for ci, c in enumerate(clusters):
        label[np.searchsorted(verts, sorted(c))] = ci
    sizes = np.array([len(c) for c in clusters], dtype=int)
    inside = _inside_one_cluster(si, label)
    y = inside.astype(float)
    y[0] = len(clusters)
    size = np.where(inside, sizes[label[si.members[:, 0]]], 0)
    ys = (size[None, :] == np.arange(1, n + 1)[:, None]).astype(float)
    ys[:, 0] = np.bincount(sizes, minlength=n + 1)[1 : n + 1]
    return np.concatenate([y, ys.ravel()])


def integral_pivot_lift(c: Clustering) -> np.ndarray:
    """Value vector of the indicator lift of ``c`` for the pivot LP:
    y_S = 1 where S lies inside one cluster, y_empty counts clusters."""
    y = _inside_one_cluster(_set_index(c.n), np.asarray(c.assignment)).astype(float)
    y[0] = c.num_clusters
    return y


# ---------------------------------------------------------------------------
# Debug dump
# ---------------------------------------------------------------------------


def _column_name(lp: LinearProgram, j: int) -> str:
    """``y[S]`` or ``y<s>[S]`` for column j of a lifted program, decoded
    from its layout; ``c<j>`` for a column of any other program."""
    verts = lp.layout
    if verts is None:
        return f"c{j}"
    si = _set_index(len(verts))
    block, rank = divmod(j, si.block)
    return f"y{block or ''}[" + ",".join(str(verts[i]) for i in si.members[rank, : si.size[rank]]) + "]"


def write_lp_text(lp: LinearProgram) -> str:
    """Human-readable inequality dump for debugging."""
    A, P, rhs0, senses, lb, ub = lp.matrices()
    b = lp.effective_rhs()
    lines = [f"# {lp.name}: {lp.num_rows} rows, {lp.num_vars} vars"]
    A = A.tocsr()
    for i in range(lp.num_rows):
        row = A.getrow(i)
        terms = " + ".join(
            f"{row.data[k]:g} {_column_name(lp, row.indices[k])}" for k in range(row.nnz)
        )
        op = "<=" if senses[i] == "<" else "=="
        lines.append(f"{terms} {op} {b[i]:g}")
    for j in range(lp.num_vars):
        if lb[j] == ub[j]:
            lines.append(f"{_column_name(lp, j)} == {lb[j]:g}")
        else:
            lines.append(f"{lb[j]:g} <= {_column_name(lp, j)} <= {ub[j]:g}")
    return "\n".join(lines) + "\n"
