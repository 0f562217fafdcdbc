"""Session-scoped preset runs shared by the acceptance tests, and the seams
that the tests take into `evolve`.

Each preset scenario is simulated once per session through the same code
path the CLI uses, so the acceptance criteria all judge genuine end-to-end
artifacts (CSV files plus report.json).  Each fixture returns
(outdir, report).

`dopri5()`, `unguarded()` and `tolerances()` are context managers,
imported by the test modules: inside the first every `evolve` steps with
`_Dopri5`, as no block is small enough for the exact propagator; inside the
second no truncation guard fires; inside the third `_Dopri5` steps to the
given error tolerances.  A sweep's forked workers inherit each.
`small_vdp_model` is a hand-built van der Pol pair small enough for the
dense oracle.

BLAS is pinned to one thread before numpy is first imported: the
generator's sparse matvecs are single-threaded, and a second BLAS thread
only spins in the small dense kernels around them.  An explicit setting in
the environment wins.
"""

import contextlib
import math
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from qsync import lindblad  # noqa: E402
from qsync.cli import run_scenario, scenario_from_preset  # noqa: E402
from qsync.lindblad import Dissipator, ModelSpec  # noqa: E402
from qsync.opalg import SpaceLayout, destroy, embed  # noqa: E402


@contextlib.contextmanager
def dopri5():
    """Every `evolve` inside steps with `_Dopri5`: EXACT_MAX_COORDINATES is 0."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lindblad, "EXACT_MAX_COORDINATES", 0)
        yield


@contextlib.contextmanager
def unguarded():
    """No truncation guard fires inside: GUARD_THRESHOLD is inf."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lindblad, "GUARD_THRESHOLD", math.inf)
        yield


@contextlib.contextmanager
def tolerances(rel_tol: float, abs_tol: float):
    """`_Dopri5` steps inside to these tolerances: REL_TOL and ABS_TOL are patched."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lindblad, "REL_TOL", rel_tol)
        mp.setattr(lindblad, "ABS_TOL", abs_tol)
        yield


def small_vdp_model(n=4):
    # hand-assembled van der Pol pair on a small truncation so the total
    # dimension stays within the dense-oracle cap (the production builder
    # enforces N >= 6, which would exceed it); weak gain and coupling keep
    # the top Fock level inside the truncation guard
    layout = SpaceLayout((n, n), ("mode1", "mode2"))
    a1 = embed(destroy(n), layout, 0)
    a2 = embed(destroy(n), layout, 1)
    h = 1.0 * (a1.dag() @ a1) + 1.1 * (a2.dag() @ a2) + 1j * 0.05 * (
        a1.dag() @ a2.dag() - a1 @ a2
    )
    dissipators = (
        Dissipator(0.01, a1.dag()),
        Dissipator(0.008, a2.dag()),
        Dissipator(0.4, a1 @ a1),
        Dissipator(0.5, a2 @ a2),
    )
    n1 = ("n_1", a1.dag() @ a1)
    n2 = ("n_2", a2.dag() @ a2)
    return ModelSpec(layout, h, dissipators, (n1, n2))


def _run_preset(tmp_path_factory, name: str):
    outdir = tmp_path_factory.mktemp(f"run_{name}")
    return outdir, run_scenario(scenario_from_preset(name), outdir)


@pytest.fixture(scope="session")
def fig2a_run(tmp_path_factory):
    return _run_preset(tmp_path_factory, "fig2a")


@pytest.fixture(scope="session")
def fig2b_run(tmp_path_factory):
    return _run_preset(tmp_path_factory, "fig2b")


@pytest.fixture(scope="session")
def fig2c_run(tmp_path_factory):
    return _run_preset(tmp_path_factory, "fig2c")


@pytest.fixture(scope="session")
def fig3_run(tmp_path_factory):
    return _run_preset(tmp_path_factory, "fig3")
