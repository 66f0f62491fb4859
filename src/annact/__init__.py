"""Actions, Calabi invariants, rotation numbers and periodic orbits for
exact area-preserving maps of the annulus."""

from .errors import AnnactError, ConfigError, DegenerateGapError, NonConvergentError
from .phase_space import (
    AnnulusPoint,
    CanonicalBeta,
    ExplicitField,
    LiftedPoint,
    OneForm,
    PolylinePath,
    QuadratureSpec,
    ShiftedBeta,
    lift,
    line_integral,
    project,
)
from .maps import (
    Compose,
    Iterate,
    LinearProfile,
    LocalDiskTwist,
    MapExpr,
    PolyBumpProfile,
    PolyBumpRadial,
    RigidRotation,
    TabulatedProfile,
    TabulatedRadial,
    Twist,
    area_defect,
    map_from_config,
    map_from_shorthand,
)
from .action import (
    ActionContext,
    ActionValue,
    MeasureSpec,
    action_function,
    action_function_via_path,
    additivity_defect,
    calabi,
    disk_twist_mean_action,
    measure_action,
    path_independence_defect,
    shifted_action_difference,
)
from .rotation import (
    RotationValue,
    boundary_rotation_number,
    lemma_boundary_identity_defect,
    mean_rotation_area,
    measure_rotation,
    rotation_number_point,
)
from .orbits import (
    PeriodicOrbit,
    SearchConfig,
    find_periodic_orbits,
    grid_scan_orbits,
    orbit_distance,
    orbits_to_csv,
    refine_orbit,
)
from .harness import (
    VerificationReport,
    action_gap,
    candidate_windings,
    example_local_perturbation,
    q_threshold,
    verify_theorem,
)

__version__ = "0.1.0"
