"""Matrix-valued holomorphic semicocycles over one-parameter semigroups on
the unit disk: evolution solving, axiom verification, growth analysis, and
power-series linearization with resonance detection."""

from .algebra import (
    SylvesterOutcome,
    ad_matrix,
    log_norm,
    mat_exp,
    mat_inv,
    operator_norm,
    sylvester_resolve,
)
from .cocycle import (
    AxiomCheckReport,
    CocycleGenerator,
    GrowthReport,
    boundedness_classify,
    check_axioms,
    evolve_grid,
    extract_generator,
    extract_generator_auto,
    growth_report,
    make_evolve_oracle,
)
from .demos import DemoEntry, demo_by_name, demo_catalog
from .dynamics import (
    RationalMap,
    SemigroupModel,
    build_model,
    flow_ode,
)
from .linearize import (
    ConditionReport,
    LinearizationOutcome,
    commutative_linearize_interior,
    commutative_linearize_nofix,
    condition_check,
    conjugated_generator,
    linearize,
    reconstruct_error,
    sharpness_witness,
)
from .series import MatrixSeries, ScalarSeries, compose, revert

__all__ = [
    "AxiomCheckReport",
    "CocycleGenerator",
    "ConditionReport",
    "DemoEntry",
    "GrowthReport",
    "LinearizationOutcome",
    "MatrixSeries",
    "RationalMap",
    "ScalarSeries",
    "SemigroupModel",
    "SylvesterOutcome",
    "ad_matrix",
    "boundedness_classify",
    "build_model",
    "check_axioms",
    "commutative_linearize_interior",
    "commutative_linearize_nofix",
    "compose",
    "condition_check",
    "conjugated_generator",
    "demo_by_name",
    "demo_catalog",
    "evolve_grid",
    "extract_generator",
    "extract_generator_auto",
    "flow_ode",
    "growth_report",
    "linearize",
    "log_norm",
    "make_evolve_oracle",
    "mat_exp",
    "mat_inv",
    "operator_norm",
    "reconstruct_error",
    "revert",
    "sylvester_resolve",
]
