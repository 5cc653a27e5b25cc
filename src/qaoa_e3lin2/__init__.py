"""Level-1 quantum optimization of bounded-occurrence 3-variable parity
constraints: exact expectation values, worst-case and typical-case bounds,
and dense-statevector simulation, all at desk scale.

The objective is C(z) = (1/2) sum_abc d_abc z_a z_b z_c over spin
assignments z in {-1, +1}^n, where d_abc = +-1 encodes each equation's
right-hand side; the satisfied-equation count is m/2 + C(z). W(gamma)
denotes the objective expectation in the state mixed at angle pi/4 after a
cost phase at angle -gamma (the sign convention under which the analytic
module's formulas hold).

The package imports nothing up front: the first use of an exported name
imports the module that defines it, as listed in ``_EXPORTS``.
"""

import importlib

__version__ = "0.1.0"

#: Every exported name and the module that defines it.
_EXPORTS = {
    "AngleParams": "statevector",
    "AngleSchedule": "schedule",
    "Assignment": "instance",
    "Clause": "instance",
    "ClauseTerm": "analytic",
    "EnsembleReport": "typical",
    "EvaluationPlan": "analytic",
    "ExpectationReport": "analytic",
    "GuaranteeReport": "schedule",
    "InfeasibleError": "instance",
    "Instance": "instance",
    "Neighborhood": "analytic",
    "NodeCheck": "schedule",
    "ParseError": "instance",
    "QuantumState": "statevector",
    "RetryExhaustedError": "instance",
    "SampleReport": "sampler",
    "ScanResult": "schedule",
    "SupportTooLargeError": "analytic",
    "Violation": "instance",
    "brute_force_max": "sampler",
    "build_neighborhood": "analytic",
    "chebyshev_node_property": "schedule",
    "clause_mean_closed_form": "typical",
    "clause_parity": "instance",
    "clause_sum_blocks": "instance",
    "clause_term_exact": "analytic",
    "clause_term_mc": "analytic",
    "code_bits": "instance",
    "ensemble_mean_exhaustive": "typical",
    "ensemble_mean_mc": "typical",
    "expectation": "statevector",
    "generate_random": "instance",
    "guarantee": "schedule",
    "hypercontractive_bound": "schedule",
    "make_schedule": "schedule",
    "moment_checks": "analytic",
    "objective_expectation": "analytic",
    "objective_value": "instance",
    "optimal_gamma_typical": "typical",
    "parity_grid": "instance",
    "parse": "instance",
    "prepare": "statevector",
    "recommended_samples": "sampler",
    "remainder_bound": "schedule",
    "resample_signs": "instance",
    "run": "sampler",
    "sample": "statevector",
    "sample_bits": "statevector",
    "satisfied_count": "instance",
    "scan": "schedule",
    "serialize": "instance",
    "term_parity": "instance",
    "typical_guarantee": "typical",
    "uniform_state": "statevector",
    "validate": "instance",
    "with_signs": "instance",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the module that owns an exported name, and keep the name here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
