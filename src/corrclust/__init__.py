"""Desk-scale correlation clustering with preclustering, lifted LP
relaxations, correlated rounding, and executable certification of the
underlying analysis."""

__version__ = "0.1.0"

from .core import (
    Clustering,
    Metric,
    PreclusteredInstance,
    SignedGraph,
    clustering_cost,
    fractional_cost,
    generate_instance,
    is_good_clustering,
    parse_instance,
    write_instance,
)
from .exact import brute_force_opt, brute_force_opt_good, naive_opt
from .precluster import AgreementParams, atomic_preclustering, admissible_edges, in_weak_agreement, precluster
from .lp import (
    LiftedSolution,
    LinearProgram,
    SeparationCertificate,
    build_pivot_lp,
    build_set_lp,
    build_triangle_lp,
    solve,
    solve_triangle_lp,
)
from .correlated import ConditionedMarginals, measure_pairwise_error, rt_sample
from .round_set import BudgetLedger, LedgerError, RoundingParams, RoundingReport, SeparationFound, set_based_cstr_clst, set_based_round
from .round_pivot import cleanup, pivot_based_round, pivot_budget
from .combine import CombinedReport, PipelineConfig, acn_pivot, combined_round, full_pipeline
from .verify import (
    TrianglePoint,
    sample_triangle_point,
    verify_f_constant,
    verify_final_ratio,
    verify_triangle_case,
)
