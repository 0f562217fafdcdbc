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
    Trajectory,
    TruncationError,
    dense_liouvillian,
    evolve,
    propagate_dense,
)
from .models import (
    MODELS,
    PRESET_NAMES,
    PRESETS,
    CavityQubitParams,
    ReducedQubitParams,
    Scenario,
    VdpParams,
    build_cavity_qubit,
    build_reduced_qubit,
    build_vdp,
    cavity_mode_matrix,
    mari_measure,
)
from .syncmeter import (
    AnalysisThresholds,
    ConfigError,
    OscillationFit,
    PairVerdict,
    build_sync_report,
    classify_pair,
    degree_of_quantumness,
    fit_oscillation,
    moment_catalog,
    pauli_catalog,
)

__version__ = "0.1.0"
