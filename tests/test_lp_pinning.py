"""Pins the LP models and the solver path.

The golden models are the ones recorded before the builders were
vectorized; the digests were re-recorded on those unchanged models once the
objective and the row labels joined the hash, the three set-LP digests
again when the set LP gained its slack objective (the models without it
hash as before), the adversarial set LP's once the triangle-LP metric
stopped carrying -0.0 entries into its parameter values, and the three
set-LP digests once more when the set LP substituted its relaxed metric
copy xt = 1 - y away (the loop-built reference below was rebuilt to the
new model first, and agreed).  The column keys hashed are the ones the
builders once listed, decoded here from the column layout.  Any change to
a model's layout, rows, bounds, parameter columns, objective or lazy-row
labels changes its digest.  The solver tests check that ``solve()``
returns bitwise what ``linprog(method="highs-ds")`` returns on models
without lazy rows.  On the set LPs, whose triple box rows are lazy, the
direct call generates rows; there they check linprog's status and a point
that satisfies the full model.
The import guard must raise, not degrade, when scipy's private HiGHS class
stops generating rows or reporting a dual ray.
"""

import hashlib
from itertools import combinations
from math import comb

import numpy as np
import pytest
from scipy.optimize import linprog

import corrclust.lp as lpmod
from corrclust.core import Metric, PreclusteredInstance, all_pairs, generate_instance
from corrclust.lp import (
    LinearProgram,
    LPError,
    LPResult,
    build_pivot_lp,
    build_set_lp,
    build_triangle_lp,
    lifted_from_result,
    solve,
    solve_triangle_lp,
)
from corrclust.precluster import AgreementParams, precluster

GOLDEN = {
    "set_planted_full": "b0f213854e70dd88b4b5a122336fc2b11d31dc3db4054bd067c38e594d37f455",
    "set_planted_atoms": "8142ca942a2edfe60ad6ae49b3552e1ffe869fe0410da3817e92e68026c37d1a",
    "set_adversarial_atoms": "824b0650591d2831f68d964de29f885b21a8b8d2601d8136affba971a1e053a8",
    "pivot_planted": "537bed92f5b841aac10a9ff4b4afd2cbbfe90a824503f26f118533f5b20e5556",
    "triangle_planted": "a8028a338bf4313e8063c3ec7e15115368940070089eaa152a153d7942296c5d",
}


def _ints(v):
    if isinstance(v, tuple):
        return tuple(_ints(u) for u in v)
    return int(v) if isinstance(v, (int, np.integer)) else v


def _keys(lp) -> list[tuple]:
    """Column keys decoded from the layout: ("y", S) and ("ys", s, S) in a
    lifted program, ("x", pair) in the triangle LP, whose columns are the
    pairs of its n vertices in order."""
    verts = lp.layout
    if verts is None:
        n = next(k for k in range(lp.num_vars + 2) if comb(k, 2) == lp.num_vars)
        return [("x", p) for p in combinations(range(n), 2)]
    sets = [()] + [(v,) for v in verts] + [S for k in (2, 3) for S in combinations(verts, k)]
    blocks = lp.num_vars // len(sets)
    return [("y", S) for S in sets] + [("ys", s, S) for s in range(1, blocks) for S in sets]


def _digest(lp) -> str:
    """SHA-256 over the column keys, parameters, every array HiGHS is built
    from, the objective and the row labels; integers are normalized, floats
    hashed by their bytes (so -0.0 != 0.0)."""
    h = hashlib.sha256()
    h.update(repr([_ints(k) for k in _keys(lp)]).encode())
    h.update(repr([_ints(p) for p in lp.param_pairs]).encode())
    h.update(np.asarray(lp.param_values, dtype=np.float64).tobytes())
    A, P, rhs0, senses, lb, ub = lp.matrices()
    for M in (A, P):
        h.update(repr(M.shape).encode())
        for arr, dtype in ((M.indptr, np.int64), (M.indices, np.int64), (M.data, np.float64)):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    h.update(np.asarray(rhs0, dtype=np.float64).tobytes())
    h.update("".join(senses.tolist()).encode())
    h.update(np.asarray(lb, dtype=np.float64).tobytes())
    h.update(np.asarray(ub, dtype=np.float64).tobytes())
    if lp.objective is None:
        h.update(b"no objective")
    else:
        cols, coefs, constant = lp.objective
        h.update(np.ascontiguousarray(cols, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(coefs, dtype=np.float64).tobytes())
        h.update(np.float64(constant).tobytes())
    h.update(np.ascontiguousarray(lp.labels, dtype=np.int64).tobytes())
    return h.hexdigest()


def _instance(kind, n, sizes):
    g = generate_instance(kind, n, {"sizes": sizes, "noise": 0.02}, 10_000)
    pre = precluster(g, AgreementParams(0.1))
    x, _ = solve_triangle_lp(g, pre)
    return g, pre, x


def _infeasible_set_lp():
    # an atomic pair forced to distance 1 contradicts its zero pin
    g = generate_instance("planted_cliques", 5, {"sizes": [5]}, 0)
    pre = precluster(g, AgreementParams(0.1))
    bad = dict.fromkeys(all_pairs(5), 0.0)
    bad[(0, 1)] = 1.0
    return build_set_lp(range(5), pre, Metric.from_pairs(5, bad), epsilon=0.05)


@pytest.fixture(scope="module")
def fixture_lps():
    gp, prep, xp = _instance("planted_cliques", 12, [4, 4, 4])
    _, prea, xa = _instance("adversarial_mix", 13, [5, 5])
    assert prep.proper_atoms[0] == frozenset(range(4))
    return {
        "set_planted_full": build_set_lp(range(12), prep, xp, 0.05),
        "set_planted_atoms": build_set_lp(sorted(set(range(12)) - prep.proper_atoms[0]), prep, xp, 0.05),
        # every adversarial atom here is a singleton
        "set_adversarial_atoms": build_set_lp(
            sorted(set(range(13)) - prea.atom_of(0) - prea.atom_of(5)), prea, xa, 0.05
        ),
        "pivot_planted": build_pivot_lp(gp, prep, xp),
        "triangle_planted": build_triangle_lp(gp, prep),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_lp_models_match_golden_digests(fixture_lps, name):
    assert _digest(fixture_lps[name]) == GOLDEN[name]


def _loop_box_rows(col, n):
    """Reference box rows (9) of one layer, one row at a time, in builder order."""
    pairs, triples = list(combinations(range(n), 2)), list(combinations(range(n), 3))
    e = col(())
    rows = [{col((a,)): 1.0, e: -1.0} for a in range(n)]
    rows += [{e: -1.0, col((a,)): 1.0, col((b,)): 1.0, col((a, b)): -1.0} for a, b in pairs]
    rows += [{col((a,)): -1.0, col((b,)): -1.0, col((a, b)): 1.0} for a, b in pairs]
    rows += [{col((a, b)): 1.0, col((a,)): -1.0} for a, b in pairs]
    rows += [{col((a, b)): 1.0, col((b,)): -1.0} for a, b in pairs]
    rows += [{e: -1.0, **{col((v,)): 1.0 for v in t}, **{col(q): -1.0 for q in combinations(t, 2)}, col(t): 1.0}
             for t in triples]
    rows += [{**{col((v,)): -1.0 for v in t}, **{col(q): 1.0 for q in combinations(t, 2)}, col(t): -1.0}
             for t in triples]
    for i in range(3):  # S = {t_i}, T = the other two members
        sides = [[col(tuple(sorted((t[i], t[j])))) for j in range(3) if j != i] for t in triples]
        rows += [{col((t[i],)): -1.0, **dict.fromkeys(q, 1.0), col(t): -1.0} for t, q in zip(triples, sides)]
        rows += [{**dict.fromkeys(q, -1.0), col(t): 1.0} for t, q in zip(triples, sides)]
    for k in range(3):  # S = a pair, T = the third member
        rows += [{col(t): 1.0, col(list(combinations(t, 2))[k]): -1.0} for t in triples]
    return rows


def _loop_set_lp(vprime, pre, x, epsilon):
    """Reference set LP, built one set, one layer and one row at a time."""
    verts = sorted(vprime)
    n = len(verts)
    loc = range(n)
    sets = [()] + [(i,) for i in loc] + list(combinations(loc, 2)) + list(combinations(loc, 3))
    pairs = sets[1 + n : 1 + n + n * (n - 1) // 2]
    m, B = len(pairs), len(sets)
    rank = {S: k for k, S in enumerate(sets)}

    def glob(S):
        return tuple(verts[i] for i in S)

    def y(S):
        return rank[S]

    def ys(s, S):
        return B * s + rank[S]

    lp = LinearProgram(f"set-lp(n'={n},r=3)")
    lp.layout = tuple(verts)
    lp.add_vars(B * (n + 1))
    lp.set_bounds([y(())] + [ys(s, ()) for s in range(1, n + 1)], ub=float(n))
    lp.fix_vars([y((i,)) for i in loc], 1.0)
    cls = {p: pre.classify_pair(*glob(p)) for p in pairs}
    lp.fix_vars([y(p) for p in pairs if cls[p] == "atomic"], 1.0)  # (6), xt = 1 - y substituted
    atom = [{j for j in loc if verts[j] in pre.atom_of(verts[i])} for i in loc]
    d = [pre.d_adm(v) for v in verts]
    for S in sets[1:]:
        non_adm = any(cls[q] == "non_admissible" for q in combinations(S, 2))
        if non_adm:
            lp.fix_vars([y(S)], 0.0)
        for s in range(1, n + 1):
            fits = all(
                set(S) <= atom[i] if s == len(atom[i]) else s >= len(atom[i]) + epsilon * d[i] - 1e-9
                for i in S
            )
            if non_adm or s < len(S) or not fits:
                lp.fix_vars([ys(s, S)], 0.0)
    for S in sets:  # (1)
        lp.add_row({y(S): -1.0, **{ys(s, S): 1.0 for s in range(1, n + 1)}}, "=", 0.0)
    lp.set_params([glob(p) for p in pairs], x)
    for k, p in enumerate(pairs):  # (4) y_uv <= 1 - x_uv, parameter column k is pair k
        lp.add_row({y(p): 1.0}, "<", 1.0, {k: 1.0})
    if m:  # (7), and the objective: the total slack sum (1 - y_uv - x_uv)
        lp.add_row({y(p): -1.0 for p in pairs}, "<", epsilon * sum(d) - m, dict.fromkeys(range(m), -1.0))
        lp.set_objective([y(p) for p in pairs], [-1.0] * m, constant=m - sum(lp.param_values))
    for s in range(1, n + 1):  # (5)
        for S in sets[: 1 + n + m]:
            grow = {ys(s, tuple(sorted(S + (u,)))): 1.0 for u in loc if u not in S}
            # float arithmetic, as in the builder: s = |S| gives a stored -0.0
            lp.add_row({**grow, ys(s, S): -(s - float(len(S)))}, "=", 0.0)
    for s in range(1, n + 1):  # (9), lazy from the first triple row on, labelled by offset
        for off, row in enumerate(_loop_box_rows(lambda S: ys(s, S), n)):
            lp.add_rows(1, "<", 0.0, [(np.zeros(len(row), dtype=int), list(row), list(row.values()))],
                        lazy=off if off >= n + 2 * n * (n - 1) else -1)
    return lp


def _sweep():
    """Small instances, vertex subsets that split atoms or not, and epsilons
    that put cluster sizes on and off the size-window boundary."""
    rng = np.random.default_rng(3)
    atoms = PreclusteredInstance(6, (frozenset({0, 1, 2}),), frozenset({(0, 3), (1, 3), (2, 3), (3, 4)}))
    yield atoms, Metric.from_pairs(6, dict.fromkeys(all_pairs(6), 0.5)), [[0, 1, 2, 3, 4, 5], [0, 1, 3], [1, 2, 4, 5], [3]]
    for seed, (kind, n, params) in enumerate([
        ("uniform_random", 1, None), ("uniform_random", 2, None), ("uniform_random", 5, None),
        ("planted_cliques", 7, {"sizes": [3, 4], "noise": 0.05}),
        ("adversarial_mix", 8, {"sizes": [3, 3], "noise": 0.05}),
    ]):
        g = generate_instance(kind, n, params, seed)
        pre = precluster(g, AgreementParams(0.3))
        x = Metric.from_pairs(n, {p: float(rng.choice([0.0, 0.5, 1.0, rng.random()])) for p in all_pairs(n)})
        subsets = [list(range(n))] + [sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
                                      for _ in range(2)]
        yield pre, x, subsets


def test_set_lp_matches_loop_reference():
    for pre, x, subsets in _sweep():
        for vprime in subsets:
            for epsilon in (0.05, 1 / 3, 0.5, 2 / 3, 1.0):
                assert _digest(build_set_lp(vprime, pre, x, epsilon)) == _digest(
                    _loop_set_lp(vprime, pre, x, epsilon)
                ), (vprime, epsilon)


def _reference(lp):
    """The program solved through linprog, as solve() always did before."""
    A, P, rhs0, senses, lb, ub = lp.matrices()
    b = lp.effective_rhs()
    ineq = senses == "<"
    eq = ~ineq
    c = np.zeros(lp.num_vars)
    const = 0.0
    if lp.objective is not None:
        cols, coefs, const = lp.objective
        np.add.at(c, cols, coefs)
    res = linprog(
        c,
        A_ub=A[ineq] if ineq.any() else None,
        b_ub=b[ineq] if ineq.any() else None,
        A_eq=A[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=list(zip(lb, ub)),
        method="highs-ds",
        options=dict(lpmod._HIGHS_OPTS),
    )
    return res, const


def _assert_same_as_linprog(lp, res):
    ref, const = _reference(lp)
    assert {0: "optimal", 2: "infeasible"}[ref.status] == res.status
    if ref.status == 0:
        assert res.values.tobytes() == ref.x.tobytes()
        assert res.objective == ref.fun + const
        assert res.iterations == ref.nit


def _assert_solves_full_model(lp, res):
    """linprog's status and, at an optimum, a point that meets every row of
    the full model, lazy rows included, and every bound (both to 1e-9; the
    solver, through linprog too, leaves excursions near 1e-15)."""
    ref, _ = _reference(lp)
    assert {0: "optimal", 2: "infeasible"}[ref.status] == res.status
    if ref.status == 0:
        assert lp.residuals(res.values).max() <= 1e-9
        assert np.all((res.values >= lp.lb - 1e-9) & (res.values <= lp.ub + 1e-9))
        assert res.iterations > 0


def test_solve_matches_linprog_bitwise(fixture_lps):
    for name, lp in [*fixture_lps.items(), ("set_infeasible", _infeasible_set_lp())]:
        lazy = (lp.labels != -1).any()
        assert lazy == name.startswith("set_")
        check = _assert_solves_full_model if lazy else _assert_same_as_linprog
        check(lp, solve(lp))


def test_highs_guard_raises_on_interface_change(monkeypatch):
    assert lpmod._load_highs() is lpmod._HIGHS

    def changed(*args, **kwargs):
        raise TypeError("incompatible function arguments")

    monkeypatch.setattr(lpmod, "_run_highs", changed)
    with pytest.raises(ImportError, match=r"scipy \S+: .*row generation probe.*incompatible function arguments"):
        lpmod._load_highs()


def test_highs_guard_checks_row_generation(monkeypatch):
    """The first probe needs addRows and a warm re-run: a HiGHS class whose
    addRows fails, or silently adds nothing, fails the import."""
    from scipy.optimize._highspy import _core as hc

    class Failing(hc._Highs):
        def addRows(self, *args):
            raise TypeError("addRows(): incompatible function arguments")

    class Silent(hc._Highs):
        def addRows(self, *args):
            return hc.HighsStatus.kOk

    for cls, problem in ((Failing, "incompatible function arguments"), (Silent, "misses the constraints")):
        monkeypatch.setattr(hc, "_Highs", cls)
        with pytest.raises(ImportError, match=f"row generation probe.*{problem}"):
            lpmod._load_highs()


def test_highs_guard_checks_dual_ray(monkeypatch):
    """The second probe is infeasible only through its lazy row; the ray's
    weights give the certificate 0 >= 1, since it has no parameter."""
    from scipy.optimize._highspy import _core as hc

    lp = lpmod._probe(0.0, [1.0, -1.0], [1.0, -2.0])
    res = solve(lp)
    assert res.status == "infeasible" and res.certificate.w == {} and res.certificate.b == 1.0

    class NoRay(hc._Highs):
        def getDualRay(self):
            status, _, values = super().getDualRay()
            return status, False, values

    monkeypatch.setattr(hc, "_Highs", NoRay)
    with pytest.raises(ImportError, match="dual ray probe.*no dual ray"):
        lpmod._load_highs()


def test_extraction_clamps_and_rejects(fixture_lps):
    lp = fixture_lps["set_planted_atoms"]
    res = solve(lp)
    values = res.values.copy()
    keys = _keys(lp)
    i = keys.index(("y", (4, 5)))
    j = keys.index(("ys", 1, ()))
    values[i] = -0.0
    values[j] = -1e-3  # empty-set variables are only floored at 0
    sol = lifted_from_result(lp, LPResult("optimal", values=values))
    assert sol.y_of((4, 5)) == 0.0 and not np.signbit(sol.y_of((4, 5)))
    assert sol.ys_of(1, ()) == 0.0
    values[i] = 1 + 1e-7
    assert lifted_from_result(lp, LPResult("optimal", values=values)).y_of((4, 5)) == 1.0
    values[i] = 1 + 1e-5
    with pytest.raises(LPError, match=r"set-lp\(n'=8,r=3\).*y\[4,5\]"):
        lifted_from_result(lp, LPResult("optimal", values=values))
    values[i] = np.nan
    with pytest.raises(LPError):
        lifted_from_result(lp, LPResult("optimal", values=values))


@pytest.mark.parametrize("name", [name for name in sorted(GOLDEN) if not name.startswith("triangle")])
def test_accessors_read_the_layout(fixture_lps, name):
    """Every column, named by the key decoded from the layout, reads through
    its accessor as the value at that column."""
    lp = fixture_lps[name]
    sol = lifted_from_result(lp, solve(lp))
    read = {"y": sol.y_of, "ys": sol.ys_of}
    for j, (kind, *key) in enumerate(_keys(lp)):
        assert read[kind](*key) == sol.values[j], (j, kind, key)
