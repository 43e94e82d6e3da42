"""Property test of the fit: on any valid line, any acquisition (bin width and
average count) and any gamma-route spectrum, mle_fit returns a finite result
and never raises."""

import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from snspec.estimation import mle_fit  # noqa: E402
from snspec.model import SpectralParams  # noqa: E402
from snspec.profiles import REFERENCE_ACQUISITION  # noqa: E402
from snspec.montecarlo import trial_spectrum  # noqa: E402

# fixed example sequence, no example database: the suite stays deterministic
PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=40)
WINDOW = (REFERENCE_ACQUISITION.fit_lo, REFERENCE_ACQUISITION.fit_hi)

levels = st.floats(1e-3, 10.0)


@PROPERTY
@given(
    s_ph=levels,
    s_at=st.just(0.0) | levels,
    nu_l=st.floats(*WINDOW),
    delta_nu=st.floats(30.0, 6e3),
    n_bin=st.sampled_from([5, 50]),
    n_ave=st.sampled_from([1, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_never_raises_and_is_finite(s_ph, s_at, nu_l, delta_nu, n_bin, n_ave, seed):
    v = SpectralParams(s_ph, nu_l, s_at, delta_nu)
    cfg = dataclasses.replace(REFERENCE_ACQUISITION, n_bin=n_bin, n_ave=n_ave)
    r = mle_fit(trial_spectrum(v, cfg, seed, "gamma"), WINDOW)
    assert np.all(np.isfinite(r.v_hat.as_array()))
    assert np.isfinite(r.chi2)
