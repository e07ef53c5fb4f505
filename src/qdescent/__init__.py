"""Sphere-constrained polynomial descent through a simulated quantum pipeline."""

from .errors import CapacityError, DegenerateStepError, PostselectionError, PurificationError
from .experiment import ExperimentConfig, benchmark_decomposition, objective_theta, overlap, run_case
from .lcu import (
    IterationOutcome,
    IterationRecord,
    PrepareSpec,
    RegisterLayout,
    build_prepare,
    estimate_b,
    optimize,
    run_iteration,
    run_lcu_step,
)
from .mds import (
    ColumnDemoResult,
    Configuration,
    Dissimilarities,
    StressBreakdown,
    Weights,
    b_matrix,
    c_matrix,
    d_matrix,
    distances,
    lcu_column_demo,
    mds_optimize,
    stress,
)
from .poly import (
    CoefficientSet,
    PauliStrings,
    Point,
    TensorDecomposition,
    UnitaryFactor,
    classical_gradient,
    classical_iterate,
    coefficients,
    decomposition_from_dict,
    evaluate_objective,
    expand_coefficients,
    pauli_decompose,
)
from .sim import (
    DensityMatrix,
    QState,
    apply_controlled,
    apply_unitary,
    depolarize,
    fidelity,
    measure_sample,
    postselect,
    purify,
    to_density,
)

__version__ = "0.1.0"
