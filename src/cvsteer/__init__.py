"""EPR steering and entanglement of two-mode Gaussian states in noisy channels."""

from .channels import (
    ChannelSide,
    ChannelSpec,
    LaserChannelParams,
    PhaseSensitiveParams,
    apply_laser,
    apply_phase_sensitive,
    thermal_preset,
    v_infinity,
)
from .criteria import (
    ENTROPIC_BOUND,
    REID_BOUND,
    Criterion,
    Quadrature,
    ReidEstimate,
    SteeringDirection,
    entropic_sum,
    is_steerable,
    reid_estimate,
    reid_inferred_variance,
    reid_product,
)
from .measures import (
    SteeringReport,
    ThresholdResult,
    gaussian_steerability,
    inseparability_threshold,
    log_negativity,
    numeric_threshold,
    one_side_thresholds,
    steering_report,
    threshold_table,
    two_way_laser_threshold,
    two_way_thermal_threshold,
)
from .states import (
    CfPoint,
    ModeLabel,
    TwoModeGaussianState,
    cf_eval,
    make_tmsv,
    partial_transpose,
    symplectic_eigenvalues,
    vacuum,
)

__version__ = "0.1.0"
