"""Lindblad simulation and quantumness-of-synchronization analysis."""

from .opalg import (
    DensityMatrix,
    Operator,
    SpaceLayout,
    destroy,
    embed,
    expectation,
    momentum,
    mutual_information,
    partial_trace,
    pauli,
    position,
    trace_distance,
    von_neumann_entropy,
)
from .lindblad import (
    Dissipator,
    ModelSpec,
    StepSizeUnderflowError,
    Tolerances,
    Trajectory,
    TruncationError,
    dense_liouvillian,
    evolve,
    propagate_dense,
    rhs,
)
from .models import (
    MODELS,
    PRESET_NAMES,
    PRESETS,
    CavityQubitParams,
    Preset,
    ReducedQubitParams,
    VdpParams,
    build_cavity_qubit,
    build_reduced_qubit,
    build_vdp,
    cavity_mode_matrix,
    mari_measure,
    moment_catalog,
    pauli_catalog,
)
from .syncmeter import (
    AnalysisThresholds,
    OscillationFit,
    PairVerdict,
    build_sync_report,
    classify_pair,
    degree_of_quantumness,
    fit_oscillation,
    synchronized_set,
)

__version__ = "0.1.0"
