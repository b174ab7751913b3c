import math

import pytest

from qharness.core import KINDS, kind_record
from qharness.moments import MomentVector
from qharness.simulate import ProcessKind, sample_ensemble

GRID = (0.25, 0.5, 0.75, 1.0)
SEED = 7
N_PATHS = 100_000


def kind_of(name: str) -> ProcessKind:
    """The kind under test, with its record's default q."""
    return ProcessKind(name, kind_record(name).q_default)


def levy_moments(kind: ProcessKind, t: float) -> MomentVector:
    """Raw moments of a kind's standardized marginal at t from the cumulants
    of its Levy increments, kappa2 = t and (kappa3, kappa4) below: the oracle
    that ``marginal_moments(known_params(kind), t)`` is checked against."""
    q = kind.q
    if kind.name == "pascal":
        k3, k4 = t * (2.0 - q) / math.sqrt(1.0 - q), t * (6.0 - 6.0 * q + q * q) / (1.0 - q)
    else:
        k3, k4 = {"wiener": (0.0, 0.0), "poisson": (t, t), "gamma": (2.0 * t, 6.0 * t)}[kind.name]
    return MomentVector(1.0, 0.0, t, k3, k4 + 3.0 * t * t)


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
