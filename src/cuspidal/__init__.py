"""Cuspidality analysis of generic 3R serial manipulators."""

from .dh import (
    CrossSectionPoint,
    DhParams,
    JointConfig,
    Pose3,
    cross_section,
    det_jacobian,
    forward_kinematics,
    jacobian,
    length_scale,
    singularity_scale,
    validate_params,
    wrap_angle,
)
from .reduction import (
    ConicClass,
    ConicCoeffs,
    FCoefficients,
    IkSolution,
    IkSolutionSet,
    Quartic,
    QuarticRoots,
    conic_classify,
    conic_coefficients,
    f_coefficients,
    quartic_from_conic,
    solve_ik,
    solve_ik_cross_section,
    solve_quartic,
)
from .critical import (
    CriticalSet,
    CuspPoint,
    GenericityReport,
    JointCurve,
    NodePoint,
    RegionCensus,
    WorkspaceCurve,
    critical_values,
    find_cusps,
    find_nodes,
    genericity_check,
    region_census,
    trace_critical_points,
)
from .topology import (
    AspectMap,
    CuspidalityReport,
    JointPath,
    PseudoSingularitySet,
    ReducedAspectMap,
    TopologyMaps,
    build_topology,
    compute_aspects,
    compute_pseudosingularities,
    compute_reduced_aspects,
    find_nonsingular_path,
    is_cuspidal,
    label_solutions,
    verify_path,
)
from . import errors

__version__ = "0.1.0"
