"""Contraction-based robust tracking with conformal tracking-error tubes."""

from .conformal import (
    CalibrationResult,
    calibrate,
    conformal_index,
    empirical_coverage,
    nonconformity_score,
    two_step_calibrate,
)
from .control import ContractingPolicy, min_norm_feedback, track
from .errors import (
    DegenerateConstraint,
    DimensionMismatch,
    InfeasibleMetric,
    InfeasiblePlan,
    InsufficientCalibrationData,
    InvalidAlpha,
    NonFiniteLoss,
    NonFiniteState,
    PrcitubeError,
    SingularBlock,
)
from .harness import ExperimentConfig, run_pipeline
from .metric import (
    ContractionMetric,
    Geodesic,
    box_grid,
    riemannian_distance,
    synthesize_constant_metric,
    verify_contraction,
)
from .planner import ObstacleEllipse, PlanProblem, PlanResult, end_to_end_run, plan
from .predictor import (
    TrainConfig,
    TrainingDataset,
    UncertaintyPredictor,
    generate_perturbed_dataset,
    generate_reference_dataset,
    make_zero_predictor,
    train,
)
from .systems import (
    DynamicalSystem,
    PiecewiseLinearInput,
    TrajectoryRecord,
    integrate,
    make_benchmark_3d,
    make_benchmark_vtol,
)
from .tube import (
    IEBEnvelope,
    PRCITube,
    containment_experiment,
    envelope_at,
    project_tube_2d,
    tighten_input_box,
    tighten_state_box,
    tube_contains,
)

__version__ = "0.1.0"
