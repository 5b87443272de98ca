"""satlab: a hybrid SAT-solving laboratory.

CDCL-mined clauses feeding stochastic local search, plus instance
generators, resolvent enrichment, backbone/clause-quality analysis, and
a statistics-aware benchmark harness.
"""

from .cnf import (
    Assignment,
    Clause,
    Formula,
    count_satisfied_literals,
    emit_dimacs,
    eval_clause,
    eval_formula,
    parse_dimacs,
    resolve,
)
from .generators import GenSpec, gen_planted, gen_uniform
from .sls import RunResult, ScoringFunction, SlsState, default_scoring, probsat_run
from .cdcl import (
    CdclSolver,
    LearnedClauseRecord,
    MiningBudget,
    MiningOutcome,
    cdcl_solve_and_mine,
    filter_learned,
)
from .resolution import (
    ResolventPool,
    level1_resolvents,
    level2_resolvents,
    sample_pool,
    ternary_saturate,
)
from .quality import (
    Backbone,
    QualityReport,
    compute_backbone,
    gen_deceptive,
    gen_general,
    quality_report,
)
from .pipeline import SolveResult, Strategy, augment, run_hybrid, select_strategy
from .bench import SolverConfig, TrialRecord, default_flip_timeout, par2, run_suite, summarize
from .stats import cohens_d, paired_t_test, welch_t_test, wilcoxon_signed_rank

__version__ = "0.1.0"
