import pytest

import ouq.solver as solver_mod


@pytest.fixture
def de_reports(monkeypatch):
    """Records, run by run, every nested DE the solver module starts: each
    lockstep run's SolveReport, or the InfeasibleConstrain it failed with."""
    reports = []
    real = solver_mod.de_lockstep

    def recording(*args, **kwargs):
        runs = real(*args, **kwargs)
        reports.extend(runs)
        return runs

    monkeypatch.setattr(solver_mod, "de_lockstep", recording)
    return reports
