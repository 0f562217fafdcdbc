"""Builders for the three concrete systems and their preset scenarios.

All three models are expressed in dimensionless units of a reference rate
(cavity decay kappa for the cavity-qubit systems, the first oscillator
frequency omega1 for the coupled van der Pol pair); times are in units of
its inverse.

cavity_qubit
    Two cavities, one qubit each, in the frame rotating at the drive
    frequency: detunings Delta_j (cavities) and delta_j (qubits), coherent
    hopping J between the cavities, qubit-cavity coupling g0 in the
    excitation-exchanging form i*g0*(a^dag sigma_minus - a sigma_plus), and
    a weak drive Omega on qubit 1 only.  Both cavities decay at kappa.
    The total excitation N = n1 + n2 + e1 + e2 is raised only by the weak
    drive (cavity decay lowers it), so the model carries the excitation cap
    Nc - 1, the cavities' top Fock level: `evolve` steps only the basis
    states with N <= cap (the cap raised above the initial state's highest
    shell where needed), and a guard aborts a run whose top shell N == cap
    fills, so raising Nc raises both truncations.  The presets start in
    N <= 2 and keep the top shell N == 3 below 1e-9.  As for every model,
    the block is sampled by the exact per-sample propagator while it holds
    at most `lindblad.EXACT_MAX_COORDINATES` coordinates (625 at Nc = 4),
    and stepped by the adaptive stepper beyond that (1,681 at Nc = 5).

reduced_qubit
    The two-qubit limit of the above when the resonant common cavity mode
    is adiabatically eliminated: a single collective decay channel with
    jump (sigma_minus^1 + sigma_minus^2)/sqrt(2) at rate gamma_eff =
    g0^2/kappa, plus the detuning/drive Hamiltonian.  Its 16 real
    coordinates, well under `lindblad.EXACT_MAX_COORDINATES`, are advanced
    by the exact per-sample propagator, which takes no error tolerances.

vdp
    Two quantum van der Pol oscillators: linear gain (jump a^dag, rate
    Omega_j), two-photon loss (jump a^2, rate kappa_j), and the pair-
    creating coupling i*J*(a1^dag a2^dag - a1 a2).  The model carries the
    excitation cap N - 1, the modes' top Fock level: `evolve` steps its
    projection onto the states with n1 + n2 <= cap (the cap raised above the
    initial state's highest shell where needed).  At the cap N - 1 its one
    guard aborts a run when the top shell n1 + n2 == cap fills; that shell
    holds both modes' top Fock levels.  The stiff corner levels of the
    N x N square are never stepped: fig3 (N = 12) steps 1,604 coordinates
    and keeps its top shell below 1e-9, and up to N = 10 from fig3's state
    (945 coordinates) the exact per-sample propagator samples the block.

Each builder fixes its model's catalog (`ModelSpec.catalog`): 'pauli' for
the two qubit models, 'moments:<N>' at the run's own truncation for vdp.
The catalogs and `syncmeter.resolve_catalog`, the one parser of such specs,
live with the analysis; the builders record the two subsystem embeddings
'<name>_1', '<name>_2' of every member through it.

MODELS maps each model name to its (params class, builder) pair.  A
`Scenario` holds everything a run and its analysis need, for the built-in
PRESETS and for parsed configs alike; `Scenario.build()` is where its model
and initial state are made.  `mari_measure` evaluates the complete-
synchronization figure S_c on a two-mode state, and `s_c_extras` on a
recorded run, from the same relative-quadrature operators that `vdp`
records as the `xminus2`/`pminus2` observables.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import lindblad
from .lindblad import Dissipator, ModelSpec
from .opalg import (
    DensityMatrix,
    Operator,
    SpaceLayout,
    destroy,
    embed,
    expectation,
    momentum,
    pauli,
    position,
)
from .syncmeter import AnalysisThresholds, ConfigError, resolve_catalog


@dataclass(frozen=True)
class CavityQubitParams:
    """Full model parameters, all rates in units of kappa."""

    delta1: float        # cavity 1 detuning
    delta2: float        # cavity 2 detuning
    deltaq1: float       # qubit 1 detuning
    deltaq2: float       # qubit 2 detuning
    g0: float            # qubit-cavity coupling
    J: float             # cavity-cavity hopping
    Omega: float         # drive amplitude on qubit 1
    kappa: float = 1.0   # cavity decay (the reference rate)
    Nc: int = 4          # Fock truncation per cavity

    def __post_init__(self):
        if self.Nc < 3:
            raise ValueError(f"cavity truncation Nc must be >= 3, got {self.Nc}")
        if self.g0 < 0 or self.kappa < 0:
            raise ValueError("g0 and kappa must be >= 0")


@dataclass(frozen=True)
class ReducedQubitParams:
    """Collective-decay two-qubit model parameters, in units of kappa."""

    deltaq1: float
    deltaq2: float
    Omega: float
    gamma_eff: float     # collective decay rate g0^2/kappa

    def __post_init__(self):
        if self.gamma_eff <= 0:
            raise ValueError(f"gamma_eff must be > 0, got {self.gamma_eff}")


@dataclass(frozen=True)
class VdpParams:
    """Coupled van der Pol pair parameters, in units of omega1."""

    omega1: float
    omega2: float
    J: float             # pair-creating coupling
    Omega1: float        # linear gain rates
    Omega2: float
    kappa1: float        # two-photon loss rates
    kappa2: float
    N: int = 12          # Fock truncation per mode

    def __post_init__(self):
        if self.N < 6:
            raise ValueError(f"vdP truncation N must be >= 6, got {self.N}")
        for name in ("omega1", "omega2", "J", "Omega1", "Omega2", "kappa1", "kappa2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def _pair_observables(layout: SpaceLayout, catalog: str) -> list[tuple[str, Operator]]:
    """'<name>_1' and '<name>_2': each catalog member embedded in factors 0 and 1."""
    return [(f"{name}_{k}", embed(op, layout, k - 1))
            for name, op in resolve_catalog(catalog) for k in (1, 2)]


def build_cavity_qubit(p: CavityQubitParams) -> ModelSpec:
    layout = SpaceLayout((2, 2, p.Nc, p.Nc), ("qubit1", "qubit2", "cav1", "cav2"))
    sm = [embed(pauli("minus"), layout, j) for j in (0, 1)]
    sp = [embed(pauli("plus"), layout, j) for j in (0, 1)]
    sz = [embed(pauli("z"), layout, j) for j in (0, 1)]
    a = [embed(destroy(p.Nc), layout, j) for j in (2, 3)]

    h = (
        p.delta1 * (a[0].dag() @ a[0])
        + p.delta2 * (a[1].dag() @ a[1])
        + 0.5 * p.deltaq1 * sz[0]
        + 0.5 * p.deltaq2 * sz[1]
        + p.J * (a[0].dag() @ a[1] + a[0] @ a[1].dag())
        + p.Omega * (sp[0] + sm[0])
    )
    # Same coupling sign on both qubits, so the resonant symmetric cavity
    # mode couples to the symmetric collective lowering operator and the
    # reduced_qubit model below is the correct adiabatic limit.
    for j in (0, 1):
        h = h + 1j * p.g0 * (a[j].dag() @ sm[j] - a[j] @ sp[j])

    dissipators = (Dissipator(p.kappa, a[0]), Dissipator(p.kappa, a[1]))
    return ModelSpec(layout, h, dissipators, _pair_observables(layout, "pauli"), "pauli",
                     excitation_cap=p.Nc - 1)


def build_reduced_qubit(p: ReducedQubitParams) -> ModelSpec:
    layout = SpaceLayout((2, 2), ("qubit1", "qubit2"))
    sm = [embed(pauli("minus"), layout, j) for j in (0, 1)]
    sz = [embed(pauli("z"), layout, j) for j in (0, 1)]
    sx1 = embed(pauli("x"), layout, 0)

    h = 0.5 * p.deltaq1 * sz[0] + 0.5 * p.deltaq2 * sz[1] + p.Omega * sx1
    collective_lower = (sm[0] + sm[1]) / np.sqrt(2.0)
    dissipators = (Dissipator(p.gamma_eff, collective_lower),)
    return ModelSpec(layout, h, dissipators, _pair_observables(layout, "pauli"), "pauli")


def build_vdp(p: VdpParams) -> ModelSpec:
    layout = SpaceLayout((p.N, p.N), ("mode1", "mode2"))
    a1 = embed(destroy(p.N), layout, 0)
    a2 = embed(destroy(p.N), layout, 1)

    h = (
        p.omega1 * (a1.dag() @ a1)
        + p.omega2 * (a2.dag() @ a2)
        + 1j * p.J * (a1.dag() @ a2.dag() - a1 @ a2)
    )
    dissipators = (
        Dissipator(p.Omega1, a1.dag()),
        Dissipator(p.Omega2, a2.dag()),
        Dissipator(p.kappa1, a1 @ a1),
        Dissipator(p.kappa2, a2 @ a2),
    )
    # Joint relative-quadrature second moments feed the complete-
    # synchronization figure of merit S_c = 1/<x_minus^2 + p_minus^2>.
    catalog = f"moments:{p.N}"
    xm2, pm2 = _relative_quadrature_moments(layout)
    observables = (
        *_pair_observables(layout, catalog),
        ("xminus2", xm2),
        ("pminus2", pm2),
    )
    return ModelSpec(layout, h, dissipators, observables, catalog, excitation_cap=p.N - 1)


def _relative_quadrature_moments(layout: SpaceLayout) -> tuple[Operator, Operator]:
    """x_-^2 and p_-^2 for x_- = (x1 - x2)/sqrt(2), p_- = (p1 - p2)/sqrt(2)."""
    x = [embed(position(d), layout, j) for j, d in enumerate(layout.factors)]
    p = [embed(momentum(d), layout, j) for j, d in enumerate(layout.factors)]
    xm = (x[0] - x[1]) / np.sqrt(2.0)
    pm = (p[0] - p[1]) / np.sqrt(2.0)
    return xm @ xm, pm @ pm


def _s_c(variance):
    """S_c = 1/variance for <x_-^2 + p_-^2>, a number or an array; ValueError
    where it is not positive (NaN included), which no state gives."""
    if not np.all(variance > 0):
        raise ValueError("the relative quadrature variance <xminus2 + pminus2> "
                         "must be positive")
    return 1.0 / variance


def s_c_extras(trajectory) -> dict:
    """Final, largest and smallest S_c = 1/<x_-^2 + p_-^2> of a run; {} without those columns.

    ValueError where <x_-^2 + p_-^2> is not positive (see `_s_c`).
    """
    if "xminus2" not in trajectory.names or "pminus2" not in trajectory.names:
        return {}
    s_c = _s_c(trajectory.column("xminus2") + trajectory.column("pminus2"))
    return {
        "s_c_final": float(s_c[-1]),
        "s_c_max": float(np.max(s_c)),
        "s_c_min": float(np.min(s_c)),
    }


def mari_measure(rho: DensityMatrix) -> float:
    """Complete-synchronization figure of merit S_c = 1/<x_-^2 + p_-^2>.

    x_- and p_- are the relative quadratures (x1 - x2)/sqrt(2) and
    (p1 - p2)/sqrt(2) of a two-mode state; the uncertainty relation between
    them bounds S_c <= 1, with equality when the modes track each other at
    the vacuum noise level.
    """
    if rho.layout.nfactors != 2:
        raise ValueError("mari_measure needs a two-mode state")
    xm2, pm2 = _relative_quadrature_moments(rho.layout)
    return _s_c(expectation(rho, xm2 + pm2).real)


def cavity_mode_matrix(p: CavityQubitParams) -> np.ndarray:
    """Quadratic form of the coupled cavities in the rotating frame.

    Its eigenvalues are the normal-mode detunings; for delta1 = delta2 =
    Delta they are Delta +/- J.
    """
    return np.array([[p.delta1, p.J], [p.J, p.delta2]], dtype=float)


MODELS = {
    "cavity_qubit": (CavityQubitParams, build_cavity_qubit),
    "reduced_qubit": (ReducedQubitParams, build_reduced_qubit),
    "vdp": (VdpParams, build_vdp),
}


@dataclass(frozen=True)
class Scenario:
    """One run: model, initial state, run grid and analysis settings.

    `params` holds the model's params-class keyword arguments and `initial`
    each factor label's leading amplitudes, ground first (zero-padded by
    `DensityMatrix.product_state`); `build()` checks both.
    `thresholds.tol_freq` relaxes the lock tolerance where a preset's physics
    requires it (short transient windows limit the attainable
    frequency-estimate precision); the fit gates are `syncmeter` constants,
    the integrator's error tolerances `lindblad` ones, which `echo` records.
    The report records the window, `tol_freq` and every constant, and
    `qsync analyze` re-reads them from it.
    """

    model: str                              # a key of MODELS
    params: dict
    initial: dict
    t_end: float
    sample_dt: float
    window: tuple[float, float] | None = None
    catalog: str | None = None              # where given, must be the model's catalog
    thresholds: AnalysisThresholds = AnalysisThresholds()

    def build(self) -> tuple[ModelSpec, DensityMatrix]:
        """The model and initial state; ConfigError where either does not fit."""
        params_cls, builder = MODELS[self.model]
        try:
            model = builder(params_cls(**self.params))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid parameters for model '{self.model}': {exc}") from None
        if self.catalog is not None and self.catalog != model.catalog:
            raise ConfigError(f"analysis.catalog '{self.catalog}' differs from the "
                              f"catalog '{model.catalog}' that this model records")
        labels = model.layout.labels
        missing = [label for label in labels if label not in self.initial]
        if missing:
            raise ConfigError(
                "missing initial amplitudes for factors: "
                + ", ".join("initial." + label for label in missing)
            )
        extra = [key for key in self.initial if key not in labels]
        if extra:
            raise ConfigError(f"unknown initial-state keys: {', '.join(extra)}")
        try:
            rho0 = DensityMatrix.product_state(model.layout,
                                               [self.initial[label] for label in labels])
        except ValueError as exc:       # its message starts with the factor label
            raise ConfigError(f"initial.{exc}") from None
        return model, rho0

    def echo(self) -> dict:
        """The scenario as report.json records it: every field of the params
        class, defaults included, and the integrator's tolerances."""
        def amp_text(z):
            z = complex(z)
            if z.imag == 0:
                return f"{z.real:.17g}"
            return f"{z.real:.17g}{z.imag:+.17g}j"

        return {
            "model": self.model,
            "params": asdict(MODELS[self.model][0](**self.params)),
            "initial": {label: [amp_text(z) for z in amps]
                        for label, amps in self.initial.items()},
            "run": {
                "t_end": self.t_end,
                "sample_dt": self.sample_dt,
                "rel_tol": lindblad.REL_TOL,
                "abs_tol": lindblad.ABS_TOL,
            },
        }


# Parameters and initial states follow the three synchronization regimes of
# the cavity-qubit system and the van der Pol transient; run windows are
# chosen so that the analysis window contains a few periods of the slowest
# synchronized oscillation while the final state is close to stationary.

_FIG2_INITIAL = {
    "qubit1": (np.sqrt(0.9), np.sqrt(0.1)),
    "qubit2": (np.sqrt(0.7), np.sqrt(0.3)),
    "cav1": (1.0,),
    "cav2": (1.0,),
}
_FIG3_INITIAL = {
    "mode1": (0.5, np.sqrt(0.75)),
    "mode2": (np.sqrt(0.05), np.sqrt(0.95)),
}

PRESETS: dict[str, Scenario] = {
    "fig2a": Scenario(
        "cavity_qubit",
        asdict(CavityQubitParams(delta1=10.0, delta2=10.0, deltaq1=0.0, deltaq2=0.0,
                                 g0=0.5, J=-10.0, Omega=5e-4)),
        _FIG2_INITIAL, t_end=3000.0, sample_dt=2.0,
        window=(300.0, 1100.0),
    ),
    "fig2b": Scenario(
        "cavity_qubit",
        asdict(CavityQubitParams(delta1=10.0, delta2=10.0, deltaq1=0.0, deltaq2=0.0,
                                 g0=0.5, J=-10.0, Omega=0.0)),
        _FIG2_INITIAL, t_end=3000.0, sample_dt=2.0,
        window=(800.0, 2400.0),
    ),
    "fig2c": Scenario(
        "cavity_qubit",
        asdict(CavityQubitParams(delta1=10.0, delta2=22.5, deltaq1=0.08, deltaq2=0.02,
                                 g0=0.5, J=-10.0, Omega=1e-3)),
        _FIG2_INITIAL, t_end=1000.0, sample_dt=0.5,
        # Window covers the lifetime of the inter-qubit excitation-exchange
        # transient (decay time ~160, period ~120).
        window=(20.0, 300.0),
    ),
    "fig3": Scenario(
        "vdp",
        asdict(VdpParams(omega1=1.0, omega2=1.0, J=0.5, Omega1=1e-3, Omega2=1e-3,
                         kappa1=2.0, kappa2=2.0, N=12)),
        _FIG3_INITIAL, t_end=20.0, sample_dt=0.02,
        # ~2 quadrature periods fit in the transient window, which limits
        # per-column frequency estimates to a few percent; the lock
        # tolerance is relaxed accordingly.
        window=(2.0, 12.0),
        thresholds=AnalysisThresholds(tol_freq=0.05),
    ),
}
PRESET_NAMES = tuple(PRESETS)
