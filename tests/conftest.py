import pytest

import ouq.solver as solver_mod


@pytest.fixture
def de_reports(monkeypatch):
    """Records the report of every `de_solve` call made by the solver module."""
    reports = []
    real = solver_mod.de_solve

    def recording(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(solver_mod, "de_solve", recording)
    return reports
