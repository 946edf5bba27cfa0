"""Toolkit for estimating gauge pressure and surface elastic modulus of
inflated deformable objects from point-indentation measurements, with a
forward membrane simulator for synthetic data."""

from .errors import (
    DegenerateFitError,
    IndexRangeError,
    InflatekitError,
    InsufficientDataError,
    InsufficientPatchError,
    NonConvergenceError,
    ParseError,
    RankDeficientError,
    RelaxationTimeoutError,
    SimulationInstabilityError,
    TopologyError,
    ValidationError,
)
from .estimator import (
    Calibration,
    CalibrationRecord,
    Estimate,
    RegressionResult,
    TaggedModulus,
    calibrate_ks,
    estimate_modulus_from_critical_depth,
    estimate_modulus_from_wrinkles,
    estimate_pressure,
    regress_phat,
    run_procedure3,
)
from .geometry import (
    SurfacePatch,
    TriMesh,
    box_mesh,
    enclosed_volume,
    fit_curvature,
    icosphere,
    load_mesh,
    save_mesh,
    select_patch,
)
from .measurement import (
    DropTest,
    IndentationSample,
    IndentationSeries,
    parse_series,
    restitution_coefficient,
    serialize_series,
)
from .shell import (
    ShellParams,
    ShellSolution,
    SolverOptions,
    WrinkleCount,
    cap_profile,
    critical_depth,
    solution_to_csv,
    solve_indentation,
    wrinkle_count,
)
from .simulator import (
    Indenter,
    MaterialSpec,
    Plane,
    ScenarioConfig,
    SimState,
    indent_virtual,
    init_sim,
    run,
    step,
)

__version__ = "0.1.0"
