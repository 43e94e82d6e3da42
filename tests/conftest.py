import pathlib

import numpy as np
import pytest

DATA = pathlib.Path(__file__).parent / "data"


def load_matrix(name: str) -> np.ndarray:
    return np.loadtxt(DATA / name, delimiter=",")


@pytest.fixture(scope="session")
def gamma_exp() -> np.ndarray:
    """Reference sample covariance from the 100-trial bench validation."""
    return load_matrix("gamma_exp.csv")


@pytest.fixture(scope="session")
def gamma_th() -> np.ndarray:
    """Reference predicted covariance at the bench operating point."""
    return load_matrix("gamma_th.csv")


@pytest.fixture(scope="session")
def sigma_th() -> np.ndarray:
    """Quoted Wishart standard errors of gamma_th at N=100.

    Elements (1,3) and (2,4) of the quoted matrix are inconsistent with the
    Wishart formula applied to gamma_th (both look like factor-100 slips), so
    golden checks skip them; see tests that consume this fixture.
    """
    return load_matrix("sigma_th.csv")


def _eigh_verdict(a: np.ndarray) -> np.ndarray:
    """Rank of each matrix of an (m, n, n) stack with positive diagonals, as
    the eigenvalue test decides it: on the correlation form, eigenvalues
    above RANK_TOL times the largest count."""
    from snspec.fisher import RANK_TOL

    d = np.sqrt(np.diagonal(a, axis1=1, axis2=2))
    c = a / (d[:, :, None] * d[:, None, :])
    w = np.linalg.eigh(0.5 * (c + np.swapaxes(c, 1, 2)))[0]
    return np.where(w[:, -1] > 0, np.sum(w > RANK_TOL * w[:, -1:], axis=1), 0)


@pytest.fixture(scope="session")
def eigh_verdict():
    """The eigenvalue rank test, computed apart from snspec.fisher."""
    return _eigh_verdict
