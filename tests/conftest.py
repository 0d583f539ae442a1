import pytest

from gfl import solver


@pytest.fixture(scope="session")
def oracle():
    """The committed high-precision bound oracle (scripts/bound_oracle.py)."""
    import bound_oracle

    return bound_oracle


@pytest.fixture
def objective_calls(monkeypatch):
    """The argument tuples of every call of ``gfl.solver.objective`` made
    while the test runs."""
    calls = []
    objective = solver.objective

    def counted(*args):
        calls.append(args)
        return objective(*args)

    monkeypatch.setattr(solver, "objective", counted)
    return calls
