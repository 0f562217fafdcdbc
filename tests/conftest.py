"""Session-scoped preset runs shared by the acceptance tests.

Each preset scenario is simulated once per session through the same code
path the CLI uses, so the acceptance criteria all judge genuine end-to-end
artifacts (CSV files plus report.json).  Each fixture returns
(outdir, report).
"""

import pytest

from qsync.cli import run_scenario, scenario_from_preset


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
