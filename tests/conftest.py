import pytest

import ouq.solver as solver_mod


@pytest.fixture
def de_reports(monkeypatch):
    """Records, run by run, the SolveReport of every nested DE the solver
    module starts; a lockstep that raises records none."""
    reports = []
    real = solver_mod.de_lockstep

    def recording(*args, **kwargs):
        runs = real(*args, **kwargs)
        reports.extend(runs)
        return runs

    monkeypatch.setattr(solver_mod, "de_lockstep", recording)
    return reports
