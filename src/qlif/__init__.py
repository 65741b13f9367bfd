"""Quantum states over superposed classical spacetimes.

The package builds discretized superpositions of (mass configuration,
metric, relative wavefunction) branches, transforms them to the Quantum
Locally Inertial Frame of a probe particle (flat metric at the origin in
every branch, unitarily), integrates branch-wise geodesics, runs the
flat-space translated-superposition stationarity demo, and evaluates the
rival collapse-time estimate t = hbar / E_Delta for comparison.
"""

from .collapse import (
    CONVENTION,
    Gaussian,
    UniformSphere,
    collapse_time,
    delta_self_energy,
    delta_self_energy_monte_carlo,
    separation_sweep,
)
from .dynamics import (
    BranchTrajectory,
    GeodesicState,
    Trajectory,
    branch_centroid,
    evolve_free,
    geodesic_superposition,
    integrate_geodesic,
    local_frame_velocity,
    timelike_velocity,
    translation_covariance_check,
    velocity_norm,
)
from .errors import (
    BadContainer,
    DegenerateMetric,
    GridMismatch,
    InfiniteLifetime,
    OffGridTranslation,
    QlifError,
    QuadratureNonConvergence,
    SingularRegion,
    WrongFrame,
    ZeroNorm,
)
from .qrf import (
    BranchTransformRecord,
    QlifMetricRow,
    QrfTransformReport,
    check_qlif_metric,
    from_qlif,
    to_qlif,
)
from .qstate import (
    Branch,
    Frame,
    GridSpec,
    SuperposedState,
    gaussian_psi,
    inner_product,
    load_state,
    make_state,
    save_state,
    state_norm,
    translate_state,
)
from .spacetime import (
    FourVector,
    MetricField,
    Minkowski,
    Schwarzschild,
    UnitSystem,
    WeakFieldPointMass,
    christoffel,
    metric_from_dict,
)
from .tetrad import build_tetrad, tetrad_arrays

__version__ = "0.1.0"
