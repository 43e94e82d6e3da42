"""Property tests of the Spectrum type: the grid rule against a plain-Python
oracle, and how averaging and coarse-graining multiply n_eff."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from snspec.synthesis import Spectrum, average_spectra, coarse_grain  # noqa: E402

# fixed example sequence, no example database: the suite stays deterministic
PROPERTY = settings(deadline=None, derandomize=True, database=None)


@st.composite
def grids(draw):
    """Grids whose steps scatter about a nominal step d0 by a relative amount
    of order `spread`: none, around the 1e-9 tolerance, or far beyond it
    (zero and negative steps included). d0 may be zero or negative."""
    start = draw(st.floats(0.0, 1e3))
    d0 = draw(st.floats(-1.0, 1e3))
    spread = draw(st.sampled_from([0.0, 1e-10, 1e-9, 1.0]))
    nu = [start]
    for _ in range(draw(st.integers(1, 10))):
        nu.append(nu[-1] + d0 * (1.0 + spread * draw(st.integers(-30, 30)) / 10))
    return nu


@PROPERTY
@given(grids())
def test_grid_accepted_exactly_when_uniform(nu):
    steps = [b - a for a, b in zip(nu, nu[1:])]
    uniform = all(d > 0.0 for d in steps) and all(
        abs(d - steps[0]) <= 1e-9 * steps[0] for d in steps
    )
    try:
        Spectrum(nu=nu, s_bar=[1.0] * len(nu))
    except ValueError:
        assert not uniform
    else:
        assert uniform


@PROPERTY
@given(
    n_eff=st.integers(1, 10**6),
    count=st.integers(1, 6),
    k=st.integers(1, 8),
    extra=st.integers(0, 7),
)
def test_averaging_and_coarse_graining_multiply_n_eff(n_eff, count, k, extra):
    nu = np.arange(1.0, 1.0 + k + extra)
    xs = [Spectrum(nu=nu, s_bar=np.full(nu.size, float(j)), n_eff=n_eff) for j in range(count)]
    out = coarse_grain(average_spectra(xs), k)
    assert out.n_eff == k * count * n_eff
    assert out.nu.size == nu.size // k
