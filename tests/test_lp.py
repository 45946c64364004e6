from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from corrclust.core import (
    Clustering,
    Metric,
    PreclusteredInstance,
    SignedGraph,
    all_pairs,
    generate_instance,
    trivial_preclustering,
)
from corrclust.exact import brute_force_opt_good
from corrclust.lp import (
    SOLVER_TOL,
    LinearProgram,
    _column_name,
    _set_index,
    build_pivot_lp,
    build_set_lp,
    build_triangle_lp,
    integral_pivot_lift,
    integral_set_lift,
    lifted_from_result,
    size_window_refinement,
    solve,
    solve_triangle_lp,
    write_lp_text,
)
from corrclust.precluster import AgreementParams, precluster
from corrclust.verify import TrianglePoint

PPM = SignedGraph(3, frozenset({(0, 1), (0, 2)}))


def test_solve_basics():
    lp = LinearProgram("infeasible")
    lp.add_vars(1)
    lp.add_row({0: -1.0}, "<", -1.0)
    lp.add_row({0: 1.0}, "<", 0.0)
    with pytest.raises(ValueError, match="sense"):
        lp.add_row({0: 1.0}, ">", 1.0)
    res = solve(lp)
    assert res.status == "infeasible"
    assert res.certificate.w == {} and res.certificate.b == pytest.approx(1.0, abs=1e-12)

    lp2 = LinearProgram("min")
    lp2.add_vars(1, ub=5.0)
    lp2.add_row({0: -1.0}, "<", -0.3)
    lp2.set_objective([0], [1.0])
    res2 = solve(lp2)
    assert res2.status == "optimal"
    assert res2.objective == pytest.approx(0.3, abs=1e-9)

    # every column is boxed, so no program is unbounded
    lp3 = LinearProgram("unbounded")
    with pytest.raises(ValueError, match="finite"):
        lp3.add_vars(1, lb=0.0, ub=np.inf)
    lp3.add_vars(1)
    for bounds in ({"ub": np.inf}, {"lb": [-np.inf]}, {"ub": np.nan}):
        with pytest.raises(ValueError, match="finite"):
            lp3.set_bounds([0], **bounds)
    assert lp3.lb.tolist() == [0.0] and lp3.ub.tolist() == [1.0]


def _triangle_grid_opt(g, step=0.05):
    # independent oracle: brute grid scan over the 3-variable metric polytope
    best = np.inf
    vals = np.arange(0.0, 1.0 + step / 2, step)
    for xab, xac, xbc in product(vals, repeat=3):
        if xab > xac + xbc or xac > xab + xbc or xbc > xab + xac:
            continue
        m = Metric.from_pairs(3, {(0, 1): xab, (0, 2): xac, (1, 2): xbc})
        cost = sum(m.x(*p) if p in g.plus else 1 - m.x(*p) for p in all_pairs(3))
        best = min(best, cost)
    return best


def test_triangle_lp():
    pre = trivial_preclustering(3)
    x, cost = solve_triangle_lp(PPM, pre)
    assert cost == pytest.approx(1.0, abs=1e-9)
    assert _triangle_grid_opt(PPM) == pytest.approx(1.0)
    x.validate(pre)

    allp = SignedGraph(4, frozenset(all_pairs(4)))
    _, c0 = solve_triangle_lp(allp, trivial_preclustering(4))
    assert c0 == pytest.approx(0.0, abs=1e-9)

    # HiGHS returns -0.0 entries here; the metric holds 0.0 (the same floor
    # as lifted extraction), so its bytes do not depend on the sign of zero
    g = generate_instance("planted_cliques", 12, {"sizes": [4, 4, 4], "noise": 0.02}, 10001)
    x12, _ = solve_triangle_lp(g, precluster(g, AgreementParams(0.1)))
    assert not np.signbit(x12.table).any()

    # a pinned non-admissible +pair contributes 1 to the optimum
    pre_pin = PreclusteredInstance(3, (), frozenset({(0, 2), (1, 2)}))
    allp3 = SignedGraph(3, frozenset(all_pairs(3)))
    xp, cp = solve_triangle_lp(allp3, pre_pin)
    assert xp.x(0, 1) == pytest.approx(1.0)
    assert cp >= 1.0 - 1e-9


def test_solve_deterministic():
    g = generate_instance("uniform_random", 8, None, 5)
    pre = precluster(g, AgreementParams(0.1))
    a = solve(build_triangle_lp(g, pre))
    b = solve(build_triangle_lp(g, pre))
    assert np.array_equal(a.values, b.values)


def test_member_table_rows_are_the_ranked_sets():
    # row k of the member table, cut to size[k], is the set of rank k in the
    # order combinations gives; the rest of the row repeats its last member
    for n in range(1, 8):
        si = _set_index(n)
        sets = [()] + [S for k in (1, 2, 3) for S in combinations(range(n), k)]
        assert si.members.shape == (si.block, 3) == (len(sets), 3)
        assert not si.members.flags.writeable
        for k, S in enumerate(sets):
            row = si.members[k].tolist()
            assert (si.size[k], tuple(row[: len(S)]), si.rank[S]) == (len(S), S, k)
            if S:
                assert row[len(S) :] == [S[-1]] * (3 - len(S))


def test_column_names_decode_the_layout():
    g = generate_instance("uniform_random", 6, None, 2)
    pre = precluster(g, AgreementParams(0.1))
    x, _ = solve_triangle_lp(g, pre)
    vprime = [0, 2, 3, 5]
    sets = [()] + [S for k in (1, 2, 3) for S in combinations(vprime, k)]
    lp = build_set_lp(vprime, pre, x, 0.05)
    names = [f"y{s or ''}[" + ",".join(map(str, S)) + "]" for s in range(len(vprime) + 1) for S in sets]
    assert [_column_name(lp, j) for j in range(lp.num_vars)] == names
    tri = build_triangle_lp(g, pre)
    assert [_column_name(tri, j) for j in range(tri.num_vars)] == [f"c{j}" for j in range(comb(6, 2))]


def test_set_lp_lazy_rows_are_the_triple_box_rows():
    g = generate_instance("adversarial_mix", 7, {"sizes": [3, 3], "noise": 0.05}, 4)
    pre = precluster(g, AgreementParams(0.1))
    x, _ = solve_triangle_lp(g, pre)
    for vprime in ([0], [0, 1], [0, 1, 2], [1, 2, 4, 6], list(range(7))):
        lp = build_set_lp(vprime, pre, x, 0.05)
        n, lazy = len(vprime), lp.labels != -1
        assert lazy.shape == (lp.num_rows,) and lazy.sum() == n * 11 * comb(n, 3)
        A = lp.matrices()[0]
        si = _set_index(n)
        k = np.arange(lp.num_vars)  # y^s sets start one block in
        triple_col = (k >= si.block) & (si.size[k % si.block] == 3)
        assert all(triple_col[A.indices[A.indptr[i]:A.indptr[i + 1]]].any() for i in np.flatnonzero(lazy))
        # the box rows (9) come last, one pattern per layer; each label sits at
        # one offset of that pattern, once in every layer, and other rows are -1
        labels, count = lp.labels, n + 4 * comb(n, 2) + 11 * comb(n, 3)
        assert np.array_equal(labels >= 0, lazy) and (labels[: lp.num_rows - n * count] == -1).all()
        layers = labels[lp.num_rows - n * count :].reshape(n, count)
        assert (layers == layers[0]).all()
        _, per_layer = np.unique(layers[0][layers[0] >= 0], return_counts=True)
        assert (per_layer == 1).all() and len(per_layer) == 11 * comb(n, 3)


def _lazy_lp(name, lazy_rhs):
    """min -2u - v  s.t.  u + v <= 1.5,  -u <= -0.5,  lazy u <= p,
    0 <= u, v <= 1, where the parameter p = lazy_rhs.  Without the lazy row
    the optimum is u = 1, v = 0.5."""
    lp = LinearProgram(name)
    lp.add_vars(2)
    lp.set_params([(0, 1)], Metric.from_pairs(2, {(0, 1): lazy_rhs}))
    lp.add_row({0: 1.0, 1: 1.0}, "<", 1.5)
    lp.add_row({0: -1.0}, "<", -0.5)
    one = (np.zeros(1, dtype=int), np.zeros(1, dtype=int), np.ones(1))
    lp.add_rows(1, "<", 0.0, [one], [(one[0], one[1], -np.ones(1))], lazy=0)
    lp.set_objective([0, 1], [-2.0, -1.0])
    return lp


def test_solve_adds_violated_lazy_row():
    lp = _lazy_lp("lazy-cut", 0.75)
    assert lp.labels.tolist() == [-1, -1, 0]
    res = solve(lp)
    assert res.status == "optimal"
    assert lp.residuals(res.values).max() <= 1e-9
    assert res.values.tolist() == pytest.approx([0.75, 0.75], abs=1e-9)
    assert res.objective == pytest.approx(-2.25, abs=1e-9)


@pytest.fixture
def highs_log(monkeypatch):
    """Logs "run" for each HiGHS run and the row count of each addRows call."""
    from scipy.optimize._highspy import _core as hc

    log = []

    class Logged(hc._Highs):
        def run(self):
            log.append("run")
            return super().run()

        def addRows(self, count, *args):
            log.append(count)
            return super().addRows(count, *args)

    monkeypatch.setattr(hc, "_Highs", Logged)
    return log


def test_solve_adds_lazy_rows_by_label(highs_log):
    """min -2u - v  s.t.  u + v <= 1.5,  -u <= -0.5,  lazy rows u <= 0.75 and
    v <= 0.6 (label 5) and u + 2v <= 3 (label 2).  The relaxed optimum
    u = 1, v = 0.5 violates only u <= 0.75; v <= 0.6 shares its label and
    enters in the same warm pass, and u + 2v <= 3 never enters."""
    lp = LinearProgram("lazy-labels")
    lp.add_vars(2)
    lp.add_row({0: 1.0, 1: 1.0}, "<", 1.5)
    lp.add_row({0: -1.0}, "<", -0.5)
    lp.add_rows(3, "<", [0.75, 3.0, 0.6], [(np.array([0, 1, 1, 2]), np.array([0, 0, 1, 1]), np.array([1.0, 1, 2, 1]))],
                lazy=[5, 2, 5])
    lp.set_objective([0, 1], [-2.0, -1.0])
    assert lp.labels.tolist() == [-1, -1, 5, 2, 5]
    res = solve(lp)
    assert highs_log == ["run", 2, "run"]
    assert res.status == "optimal" and lp.residuals(res.values).max() <= 1e-9
    assert res.values.tolist() == pytest.approx([0.75, 0.6], abs=1e-9)
    assert res.objective == pytest.approx(-2.1, abs=1e-9)
    # labels are integers only: -1 (the default) is eager and 0 is a label;
    # bools and integers below -1 raise rather than guess
    lp.add_rows(2, "<", 1.0, [])
    lp.add_rows(1, "<", 1.0, [], lazy=0)
    assert lp.labels.tolist() == [-1, -1, 5, 2, 5, -1, -1, 0]
    for bad in (-2, True, [True, False], [True, 2], [2, False], np.array([False, False]), 0.5):
        with pytest.raises(ValueError, match="integer labels >= -1"):
            lp.add_rows(2, "<", 1.0, [], lazy=bad)
    assert lp.num_rows == 8


def test_solve_infeasible_through_lazy_row(monkeypatch):
    from scipy.optimize._highspy import _core as hc

    runs = []

    class Counted(hc._Highs):
        def run(self):
            status = super().run()
            runs.append(self.getInfo().simplex_iteration_count)
            return status

    monkeypatch.setattr(hc, "_Highs", Counted)
    lp = _lazy_lp("lazy-infeasible", 0.25)  # u >= 0.5 and the lazy u <= p = 0.25
    res = solve(lp)
    # the warm pass that adds the lazy row keeps a basis, so HiGHS reads the
    # ray off it without another solve: only the two passes count
    assert res.status == "infeasible" and len(runs) == 2 and res.iterations == sum(runs) and runs[1] > 0
    # the lazy row and the row it contradicts combine to p >= 0.5, scaled so
    # that the rejected p = 0.25 falls short by exactly 1: 4 p >= 2
    cert = res.certificate
    assert cert.provenance == "lazy-infeasible" and list(cert.w) == [(0, 1)]
    assert cert.w[0, 1] == pytest.approx(4.0, abs=1e-9) and cert.b == pytest.approx(2.0, abs=1e-9)
    assert cert.rejected_value == pytest.approx(1.0, abs=1e-9)


@st.composite
def _programs(draw):
    """A small LinearProgram with '<' and '=' rows, some of them lazy (some
    sharing a label), finite bounds and up to two parameter columns; no
    column at all in some."""
    nv = draw(st.integers(0, 4))
    lp = LinearProgram("fuzz")
    lb = draw(st.lists(st.integers(-2, 1), min_size=nv, max_size=nv))
    for lo in lb:
        lp.add_vars(1, lb=float(lo), ub=float(lo + draw(st.integers(0, 3))))
    pairs = [(j, j + 1) for j in range(draw(st.integers(0, 2)))]
    values = {p: draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])) for p in pairs}
    lp.set_params(pairs, Metric.from_pairs(len(pairs) + 1, dict.fromkeys(all_pairs(len(pairs) + 1), 0.0) | values))
    params = range(len(pairs))
    small = st.integers(-3, 3).map(float)
    for _ in range(draw(st.integers(1, 5))):
        coeffs = {j: v for j in range(nv) if (v := draw(small))}
        pcoeffs = {p: v for p in params if (v := draw(small))}
        lp.add_rows(1, draw(st.sampled_from("<=")), [draw(small)],
                    [(np.zeros(len(coeffs), dtype=int), list(coeffs), list(coeffs.values()))],
                    [(np.zeros(len(pcoeffs), dtype=int), list(pcoeffs), list(pcoeffs.values()))],
                    lazy=draw(st.integers(-1, 2)))
    if nv:
        lp.set_objective(np.arange(nv), draw(st.lists(small, min_size=nv, max_size=nv)))
    return lp


def _reference_status(lp):
    """linprog's status (0 optimal, 2 infeasible) on the full program; for a
    program without columns, which linprog rejects, the sign of the rows."""
    A, _, _, senses, lb, ub = lp.matrices()
    b = lp.effective_rhs()
    ineq = senses == "<"
    if lp.num_vars == 0:
        return 2 if (b[ineq] < -SOLVER_TOL).any() or (np.abs(b[~ineq]) > SOLVER_TOL).any() else 0
    c = np.zeros(lp.num_vars)
    if lp.objective is not None:
        c[lp.objective[0]] = lp.objective[1]
    res = linprog(c, A_ub=A[ineq] if ineq.any() else None, b_ub=b[ineq] if ineq.any() else None,
                  A_eq=A[~ineq] if (~ineq).any() else None, b_eq=b[~ineq] if (~ineq).any() else None,
                  bounds=list(zip(lb, ub)), method="highs-ds")
    return res.status


@settings(max_examples=300, deadline=None)
@given(_programs())
def test_farkas_witness_from_dual_ray_fuzz(lp):
    status = _reference_status(lp)
    res = solve(lp)
    if status == 2:
        assert res.status == "infeasible"
        cert = res.certificate
        x = dict(zip(lp.param_pairs, lp.param_values))
        assert cert.rejected_value == pytest.approx(sum(c * x[p] for p, c in cert.w.items()), abs=1e-9)
        # scaled so that the rejected x falls short by exactly 1
        assert cert.rejected_value == pytest.approx(cert.b - 1.0, abs=1e-9)
    else:
        assert status == 0 and res.status == "optimal"


@settings(max_examples=300, deadline=None)
@given(_programs(), st.data())
def test_certificate_holds_wherever_program_is_feasible_fuzz(lp, data):
    """The certificate's defining property, checked by linprog alone: at
    every other parameter vector x' where the program is feasible,
    w.x' >= b."""
    if not lp.param_pairs or _reference_status(lp) != 2:
        return
    cert = solve(lp).certificate
    values = st.lists(st.integers(-6, 6).map(lambda k: k / 2),
                      min_size=len(lp.param_pairs), max_size=len(lp.param_pairs))
    for _ in range(8):
        lp.param_values = data.draw(values)
        if _reference_status(lp) == 0:
            x = dict(zip(lp.param_pairs, lp.param_values))
            assert sum(c * x[p] for p, c in cert.w.items()) >= cert.b - 1e-9


_UNIFORM_CERTIFICATE_B = {(8, 30029): -59.729, (8, 30031): -32.789, (7, 140013): -3.0, (7, 140016): -8.671}


@pytest.mark.parametrize("n, seed", list(_UNIFORM_CERTIFICATE_B))
def test_uniform_set_lp_certificates(n, seed, highs_log):
    """Uniform instances whose triangle-LP metric has no feasible full-V set
    lift: the certificate from the dual ray separates that metric and holds
    at the best good clustering, refined as the size pins assume.  HiGHS
    runs once: the ray is read straight after the infeasible first pass."""
    g = generate_instance("uniform_random", n, None, seed)
    pre = precluster(g, AgreementParams(0.1))
    x, _ = solve_triangle_lp(g, pre)
    highs_log.clear()
    lp = build_set_lp(range(n), pre, x, epsilon=0.05)
    res = solve(lp)
    assert res.status == "infeasible" and highs_log == ["run"]
    cert = res.certificate
    assert cert.separates(x) and cert.b == pytest.approx(_UNIFORM_CERTIFICATE_B[n, seed], abs=5e-4)
    clusters = size_window_refinement([set(c) for c in brute_force_opt_good(g, pre)[0].clusters()], pre, 0.05)
    assert cert.evaluate(Metric.from_clustering(Clustering.from_sets(n, clusters))) >= cert.b - 1e-9


@pytest.mark.parametrize("kind, n, sizes, seed, slack", [
    ("planted_cliques", 12, [4, 4, 4], 10001, 0.0),
    ("adversarial_mix", 13, [5, 5], 10000, 0.5),
])
def test_set_lp_objective_is_the_slack(kind, n, sizes, seed, slack):
    """The full-V set LP minimizes the total slack sum (1 - y_uv - x_uv):
    its objective reads that sum at the returned point, and is never
    negative.  The planted lift needs no slack, so y_uv = 1 - x_uv there;
    this adversarial one needs 0.5 (the optimum value, whichever vertex
    HiGHS returns)."""
    g = generate_instance(kind, n, {"sizes": sizes, "noise": 0.02}, seed)
    pre = precluster(g, AgreementParams(0.1))
    x, _ = solve_triangle_lp(g, pre)
    lp = build_set_lp(range(n), pre, x, epsilon=0.05)
    res = solve(lp)
    assert res.status == "optimal"
    assert lp.layout == tuple(range(n))  # the set blocks from column 0, the pairs at ranks 1+n..n+m
    y, xv = res.values[1 + n : 1 + n + comb(n, 2)], np.array([x.x(*p) for p in combinations(range(n), 2)])
    assert res.objective == pytest.approx(float((1 - y - xv).sum()), abs=1e-9)
    assert res.objective >= -1e-9 and res.objective == pytest.approx(slack, abs=1e-7)
    if slack == 0.0:
        assert 1 - y == pytest.approx(xv, abs=1e-9)


@pytest.mark.parametrize("seed", [1, 2])
def test_adversarial_n16_set_lp_needs_one_pass(seed, highs_log):
    """Row generation without an objective was a cliff above n = 13: these
    full-V set LPs took 3 and 2 passes.  With the slack objective the first
    point violates no lazy row, and no slack is needed."""
    # sizes 8, 8 sum to n: no free region, so these are two noisy planted
    # cliques, the same graphs as planted_cliques at these seeds
    g = generate_instance("adversarial_mix", 16, {"sizes": [8, 8], "noise": 0.02}, seed)
    pre = precluster(g, AgreementParams(0.1))
    x, _ = solve_triangle_lp(g, pre)
    highs_log.clear()
    res = solve(build_set_lp(range(16), pre, x, epsilon=0.05))
    assert res.status == "optimal" and highs_log == ["run"]
    assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_set_lp_solve_deterministic():
    g = generate_instance("adversarial_mix", 9, {"sizes": [4, 4], "noise": 0.02}, 7)
    pre = precluster(g, AgreementParams(0.1))
    x, _ = solve_triangle_lp(g, pre)
    a = solve(build_set_lp(range(9), pre, x, 0.05))
    b = solve(build_set_lp(range(9), pre, x, 0.05))
    assert a.status == b.status == "optimal"
    assert a.values.tobytes() == b.values.tobytes() and a.iterations == b.iterations


def _good_clustering_lift_residual(g, seed):
    pre = precluster(g, AgreementParams(0.1))
    cgood, _ = brute_force_opt_good(g, pre)
    x = Metric.from_clustering(cgood)
    lp = build_set_lp(range(g.n), pre, x, epsilon=0.05)
    clusters = size_window_refinement([set(c) for c in cgood.clusters()], pre, 0.05)
    vec = integral_set_lift(range(g.n), clusters)
    resid = lp.residuals(vec)
    lb, ub = np.asarray(lp.lb), np.asarray(lp.ub)
    assert (vec >= lb - 1e-12).all() and (vec <= ub + 1e-12).all()
    return float(resid.max())


def test_set_lp_integral_roundtrip():
    for seed in range(6):
        g = generate_instance("uniform_random", 6, None, seed)
        assert _good_clustering_lift_residual(g, seed) <= 1e-12
    planted = generate_instance("planted_cliques", 8, {"sizes": [4, 4]}, 0)
    assert _good_clustering_lift_residual(planted, 0) <= 1e-12


def test_pivot_lp_integral_roundtrip():
    for seed in range(6):
        g = generate_instance("uniform_random", 6, None, seed)
        pre = precluster(g, AgreementParams(0.1))
        cgood, _ = brute_force_opt_good(g, pre)
        x = Metric.from_clustering(cgood)
        lp = build_pivot_lp(g, pre, x)
        vec = integral_pivot_lift(cgood)
        assert lp.residuals(vec).max() <= 1e-12


def test_size_window_boundary_cluster_stays_feasible():
    # epsilon * d_adm exactly integral: a good clustering with a cluster of
    # exactly the boundary size must keep a feasible lift (the forbidden
    # margin is open at the top)
    pre = PreclusteredInstance(3, (), frozenset({(0, 1), (0, 2)}))
    c = Clustering.from_sets(3, [[0, 1], [2]])
    x = Metric.from_clustering(c)
    # vertex 0: atom size 1, d_adm = 2, epsilon = 0.5 -> boundary size 2
    lp = build_set_lp(range(3), pre, x, epsilon=0.5)
    clusters = size_window_refinement([set(cl) for cl in c.clusters()], pre, 0.5)
    assert sorted(map(sorted, clusters)) == [[0, 1], [2]]  # no spurious split
    vec = integral_set_lift(range(3), clusters)
    assert lp.residuals(vec).max() <= 1e-12
    assert solve(lp).status == "optimal"


def test_integral_set_lift_needs_a_partition():
    # every vertex of V' lies in exactly one nonempty cluster, or no label
    # is read uninitialised
    assert integral_set_lift([0, 1], [{0}, {1}]).tolist() == integral_set_lift([1, 0], [{1}, {0}]).tolist()
    for vprime, clusters in (
        ([0, 1], [{0}]),  # 1 uncovered
        ([0, 1], [{0, 1}, {1}]),  # 1 repeated
        ([0, 1], [{0, 1, 2}]),  # 2 outside V'
        ([0, 1], [{0, 1}, set()]),  # an empty cluster
    ):
        with pytest.raises(ValueError, match="partition"):
            integral_set_lift(vprime, clusters)
    with pytest.raises(ValueError, match="empty vertex set"):
        integral_set_lift([], [])


def test_set_lp_two_vertex_all_minus():
    g = SignedGraph(2, frozenset())
    pre = precluster(g, AgreementParams(0.1))
    assert pre.classify_pair(0, 1) == "non_admissible"
    x = Metric.from_pairs(2, {(0, 1): 1.0})
    lp = build_set_lp([0, 1], pre, x, epsilon=0.05)
    res = solve(lp)
    assert res.status == "optimal"
    sol = lifted_from_result(lp, res)
    assert sol.ys_of(1, ()) == pytest.approx(2.0, abs=1e-8)
    assert sol.y0 == pytest.approx(2.0, abs=1e-8)


def test_set_lp_pinning_conflict_certificate():
    # an atomic pair forced to distance 1 contradicts its zero pin
    g = generate_instance("planted_cliques", 5, {"sizes": [5]}, 0)
    pre = precluster(g, AgreementParams(0.1))
    bad = dict.fromkeys(all_pairs(5), 0.0)
    bad[(0, 1)] = 1.0
    x = Metric.from_pairs(5, bad)
    lp = build_set_lp(range(5), pre, x, epsilon=0.05)
    res = solve(lp)
    assert res.status == "infeasible"
    cert = res.certificate
    assert cert.separates(x)
    assert cert.rejected_value < cert.b
    # the single good clustering here (the atom is all of V) satisfies the plane
    good = Metric.from_clustering(Clustering.from_assignment([0] * 5))
    assert cert.evaluate(good) >= cert.b - 1e-9


def test_pivot_lp_triangle_violation_certificate():
    g = SignedGraph(3, frozenset(all_pairs(3)))
    pre = trivial_preclustering(3)
    x = Metric.from_pairs(3, {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 1.0})
    lp = build_pivot_lp(g, pre, x)
    res = solve(lp)
    assert res.status == "infeasible"
    cert = res.certificate
    assert cert.separates(x)
    # every good clustering's metric satisfies the plane
    for labels in product(range(3), repeat=3):
        xm = Metric.from_clustering(Clustering.from_assignment(list(labels)))
        assert cert.evaluate(xm) >= cert.b - 1e-9


def test_pivot_lp_half_triangle_interval():
    # x = 1/2 everywhere on a +++ triangle: the triple weight ranges over
    # [1/4, 1/2] (lower end from the all-split constraint, upper from the
    # pair cap); endpoints derived by hand from the small polytope
    g = SignedGraph(3, frozenset(all_pairs(3)))
    pre = trivial_preclustering(3)
    x = Metric.from_pairs(3, dict.fromkeys(all_pairs(3), 0.5))
    lp = build_pivot_lp(g, pre, x)
    i = _set_index(3).rank[0, 1, 2]  # the pivot LP's column = set rank
    lp.set_objective([i], [1.0])
    lo = solve(lp).objective
    lp.set_objective([i], [-1.0])
    hi = -solve(lp).objective
    assert lo == pytest.approx(0.25, abs=1e-8)
    assert hi == pytest.approx(0.5, abs=1e-8)


def test_pivot_lp_triple_interval_on_clustering_mixtures():
    # with the pairs pinned to y = 1 - x, the pivot LP leaves each triple's
    # y_abc exactly the interval [lo, hi] of its pair values p, q, r: lo from
    # the box rows over {a, b, c} and the triangle row, hi from the pair caps.
    # x is a convex mixture of three clustering metrics, so it is fractional
    # and the LP is feasible
    rng = np.random.default_rng(11)
    open_intervals = 0
    for n in (4, 5, 6) * 6:
        parts = [Metric.from_clustering(Clustering.from_assignment(rng.integers(0, 3, n).tolist()))
                 for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        x = Metric.from_pairs(n, {e: float(sum(wi * c.x(*e) for wi, c in zip(w, parts))) for e in all_pairs(n)})
        lp = build_pivot_lp(SignedGraph(n, frozenset()), trivial_preclustering(n), x)
        for a, b, c in combinations(range(n), 3):
            p, q, r = 1 - x.x(a, b), 1 - x.x(a, c), 1 - x.x(b, c)
            lo = max(0.0, p + q - 1, p + r - 1, q + r - 1, (p + q + r - 1) / 2, p + q + r - 3)
            hi = min(p, q, r)
            i = _set_index(n).rank[a, b, c]  # the pivot LP's column = set rank
            lp.set_objective([i], [1.0])
            assert solve(lp).objective == pytest.approx(lo, abs=1e-9), (n, a, b, c)
            lp.set_objective([i], [-1.0])
            assert -solve(lp).objective == pytest.approx(hi, abs=1e-9), (n, a, b, c)
            open_intervals += lo < hi - 1e-6
    assert open_intervals >= 20


def test_lifted_solution_invariants():
    g = generate_instance("uniform_random", 6, None, 3)
    pre = precluster(g, AgreementParams(0.1))
    x, _ = solve_triangle_lp(g, pre)
    lp = build_set_lp(range(6), pre, x, epsilon=0.05)
    res = solve(lp)
    sol = lifted_from_result(lp, res)
    verts = range(6)
    tol = 1e-7
    for v in verts:
        assert sol.y_of((v,)) == pytest.approx(1.0, abs=tol)
    for (u, v) in all_pairs(6):
        assert 1 - sol.y_of((u, v)) >= x.x(u, v) - tol
        total = sum(sol.ys_of(s, (u, v)) for s in range(1, 7))
        assert total == pytest.approx(sol.y_of((u, v)), abs=tol)
    for s in range(1, 7):
        # size consistency at S = empty
        assert sum(sol.ys_of(s, (u,)) for u in verts) == pytest.approx(
            s * sol.ys_of(s, ()), abs=tol
        )
    # on every triple of the pivot point, the five partition events are
    # nonnegative and sum to 1
    lp2 = build_pivot_lp(g, pre, x)
    sol2 = lifted_from_result(lp2, solve(lp2))
    for (a, b, c) in combinations(range(6), 3):
        TrianglePoint(sol2.y_of((a, b)), sol2.y_of((a, c)), sol2.y_of((b, c)), sol2.y_of((a, b, c))).validate()


def test_lp_dump():
    # a program without a lifted layout names its columns by index
    lp = LinearProgram("dump")
    lp.add_vars(2)
    lp.fix_vars([1], 0.5)
    lp.add_row({0: 1.0, 1: -2.0}, "<", 3.0)
    assert write_lp_text(lp) == "# dump: 1 rows, 2 vars\n1 c0 + -2 c1 <= 3\n0 <= c0 <= 1\nc1 == 0.5\n"
    # lifted columns are named by set, decoded from the layout
    g = SignedGraph(3, frozenset({(0, 1)}))
    x = Metric.from_pairs(3, {(0, 1): 0.0, (0, 2): 1.0, (1, 2): 1.0})
    lines = write_lp_text(build_set_lp([0, 2], trivial_preclustering(3), x, 0.05)).splitlines()
    assert lines[5:7] == ["1 y[0,2] <= 0", "-1 y[0,2] <= 0.2"]  # (4) y_uv <= 1 - x_uv, and (7)
    assert lines[-12:-8] == ["0 <= y[] <= 2", "y[0] == 1", "y[2] == 1", "0 <= y[0,2] <= 1"]
    assert lines[-5] == "y1[0,2] == 0" and lines[-1] == "0 <= y2[0,2] <= 1"
    assert write_lp_text(build_pivot_lp(g, trivial_preclustering(3), x)).splitlines()[-1] == "0 <= y[0,1,2] <= 1"

