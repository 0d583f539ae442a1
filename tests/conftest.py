import importlib.util
import os
import sys

import pytest

from gfl import solver

_SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


@pytest.fixture(scope="session")
def oracle():
    """The committed high-precision bound oracle (scripts/bound_oracle.py)."""
    path = os.path.abspath(os.path.join(_SCRIPTS, "bound_oracle.py"))
    spec = importlib.util.spec_from_file_location("bound_oracle", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules["bound_oracle"] = mod
    spec.loader.exec_module(mod)
    return mod


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
