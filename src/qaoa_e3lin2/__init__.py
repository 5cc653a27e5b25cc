"""Level-1 quantum optimization of bounded-occurrence 3-variable parity
constraints: exact expectation values, worst-case and typical-case bounds,
and dense-statevector simulation, all at desk scale.

The objective is C(z) = (1/2) sum_abc d_abc z_a z_b z_c over spin
assignments z in {-1, +1}^n, where d_abc = +-1 encodes each equation's
right-hand side; the satisfied-equation count is m/2 + C(z). W(gamma)
denotes the objective expectation in the state mixed at angle pi/4 after a
cost phase at angle -gamma (the sign convention under which the analytic
module's formulas hold).
"""

from .analytic import (
    ClauseTerm,
    EvaluationPlan,
    ExpectationReport,
    Neighborhood,
    SupportTooLargeError,
    build_neighborhood,
    clause_term_exact,
    clause_term_mc,
    moment_checks,
    objective_expectation,
)
from .instance import (
    Assignment,
    Clause,
    InfeasibleError,
    Instance,
    ParseError,
    RetryExhaustedError,
    Violation,
    clause_parity,
    clause_sum_blocks,
    code_bits,
    generate_random,
    objective_value,
    parity_grid,
    parse,
    resample_signs,
    satisfied_count,
    serialize,
    term_parity,
    validate,
    with_signs,
)
from .sampler import SampleReport, brute_force_max, recommended_samples, run
from .schedule import (
    AngleSchedule,
    GuaranteeReport,
    NodeCheck,
    ScanResult,
    chebyshev_node_property,
    guarantee,
    hypercontractive_bound,
    make_schedule,
    remainder_bound,
    scan,
)
from .statevector import (
    AngleParams,
    QuantumState,
    expectation,
    prepare,
    sample,
    sample_bits,
    uniform_state,
)
from .typical import (
    EnsembleReport,
    clause_mean_closed_form,
    ensemble_mean_exhaustive,
    ensemble_mean_mc,
    optimal_gamma_typical,
    typical_guarantee,
)

__version__ = "0.1.0"

__all__ = [
    "AngleParams",
    "AngleSchedule",
    "Assignment",
    "Clause",
    "ClauseTerm",
    "EnsembleReport",
    "EvaluationPlan",
    "ExpectationReport",
    "GuaranteeReport",
    "InfeasibleError",
    "Instance",
    "Neighborhood",
    "NodeCheck",
    "ParseError",
    "QuantumState",
    "RetryExhaustedError",
    "SampleReport",
    "ScanResult",
    "SupportTooLargeError",
    "Violation",
    "brute_force_max",
    "build_neighborhood",
    "chebyshev_node_property",
    "clause_mean_closed_form",
    "clause_parity",
    "clause_sum_blocks",
    "clause_term_exact",
    "clause_term_mc",
    "code_bits",
    "ensemble_mean_exhaustive",
    "ensemble_mean_mc",
    "expectation",
    "generate_random",
    "guarantee",
    "hypercontractive_bound",
    "make_schedule",
    "moment_checks",
    "objective_expectation",
    "objective_value",
    "optimal_gamma_typical",
    "parity_grid",
    "parse",
    "prepare",
    "recommended_samples",
    "remainder_bound",
    "resample_signs",
    "run",
    "sample",
    "sample_bits",
    "satisfied_count",
    "scan",
    "serialize",
    "term_parity",
    "typical_guarantee",
    "uniform_state",
    "validate",
    "with_signs",
]
