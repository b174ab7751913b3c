import pytest

from qharness.core import KINDS, kind_record
from qharness.simulate import ProcessKind, sample_ensemble

GRID = (0.25, 0.5, 0.75, 1.0)
SEED = 7
N_PATHS = 100_000


def kind_of(name: str) -> ProcessKind:
    """The kind under test, with its record's default q."""
    return ProcessKind(name, kind_record(name).q_default)


@pytest.fixture(scope="session")
def all_ensembles():
    """One ensemble of every kind in the table, keyed by name."""
    return {name: sample_ensemble(kind_of(name), GRID, N_PATHS, seed=SEED) for name in KINDS}


@pytest.fixture(scope="session")
def wiener_ens(all_ensembles):
    return all_ensembles["wiener"]


@pytest.fixture(scope="session")
def poisson_ens(all_ensembles):
    return all_ensembles["poisson"]


@pytest.fixture(scope="session")
def gamma_ens(all_ensembles):
    return all_ensembles["gamma"]


@pytest.fixture(scope="session")
def pascal_ens(all_ensembles):
    return all_ensembles["pascal"]
