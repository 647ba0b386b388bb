"""Dense LP solving with the shadow vertex pivot rule, plus the measurement
machinery around it: brute-force oracles, path-separation statistics, and
near-ball diameter experiments."""

from .errors import (
    CertificateInvalid,
    ConfigError,
    CycleDetected,
    DegenerateShadow,
    DimensionTooSmall,
    NegativeStep,
    NoVertex,
    NonConvexInput,
    NonpositiveRhs,
    NormViolation,
    NotOptimal,
    NumericalStall,
    PivotLimitExceeded,
    RerunRay,
    RestartLimitExceeded,
    ShadowLpError,
    SingularError,
    TooFewRows,
    TooLarge,
    UncoveredCell,
    Unreachable,
    ZeroVertex,
)
from .instance import LPInstance, dump_instance, load_instance
from .linalg import BasisFactorization, factorize, solve as linsolve, solve_transpose
from .rng import (
    RngStream,
    SmoothedInstance,
    exp_ball_sample,
    gaussian_vector,
    random_rotation,
    smoothed_instance,
    uniform_sphere,
)
from .simplex import Basis, ShadowPath, make_basis, run_shadow_path
from .solver import Infeasible, Optimal, SolveStats, Unbounded, solve, verify_outcome

__all__ = [
    "CertificateInvalid", "ConfigError", "CycleDetected",
    "DegenerateShadow", "DimensionTooSmall", "NegativeStep", "NoVertex", "NonConvexInput",
    "NonpositiveRhs", "NormViolation", "NotOptimal",
    "NumericalStall", "PivotLimitExceeded", "RerunRay", "RestartLimitExceeded", "ShadowLpError",
    "SingularError", "TooFewRows", "TooLarge", "UncoveredCell", "Unreachable", "ZeroVertex",
    "LPInstance", "dump_instance", "load_instance",
    "BasisFactorization", "factorize", "linsolve", "solve_transpose",
    "RngStream", "SmoothedInstance", "exp_ball_sample", "gaussian_vector",
    "random_rotation", "smoothed_instance", "uniform_sphere",
    "Basis", "ShadowPath", "make_basis", "run_shadow_path",
    "Infeasible", "Optimal", "SolveStats", "Unbounded", "solve", "verify_outcome",
]

__version__ = "0.1.0"
