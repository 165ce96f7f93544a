"""Property-based tests (hypothesis) for the statistics substrate."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.stats import ks_statistic, ks_test, welch_t_test, zscores

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def sample(min_size=2, max_size=40):
    return arrays(np.float64, st.integers(min_size, max_size), elements=finite_floats)


@given(a=sample(), b=sample())
def test_welch_pvalue_in_unit_interval(a, b):
    result = welch_t_test(a, b)
    assert 0.0 <= result.p_value <= 1.0


@given(a=sample(), b=sample())
def test_welch_antisymmetric(a, b):
    ab = welch_t_test(a, b)
    ba = welch_t_test(b, a)
    if math.isnan(ab.statistic):
        assert math.isnan(ba.statistic)
    else:
        assert ab.statistic == -ba.statistic or (
            math.isinf(ab.statistic) and math.isinf(ba.statistic)
        )
    assert ab.p_value == ba.p_value


@given(a=sample())
def test_welch_identical_samples_insignificant(a):
    result = welch_t_test(a, a)
    assert result.p_value > 0.99 or math.isnan(result.statistic)


@given(a=sample(), b=sample())
def test_ks_statistic_bounds_and_symmetry(a, b):
    d = ks_statistic(a, b)
    assert 0.0 <= d <= 1.0
    assert d == ks_statistic(b, a)


@given(a=sample())
def test_ks_identical_is_zero(a):
    assert ks_statistic(a, a) == 0.0


@given(a=sample(), b=sample())
def test_ks_triangle_like_monotonicity(a, b):
    # Shifting b far away drives the statistic to 1.
    far = b + 1e7
    assert ks_statistic(a, far) == 1.0


@given(x=sample(min_size=2, max_size=60))
def test_zscores_shape_and_moments(x):
    z = zscores(x)
    assert z.shape == x.shape
    if np.std(x) > 1e-9 * max(1.0, np.max(np.abs(x))):
        assert abs(z.mean()) < 1e-6
        assert abs(z.std() - 1.0) < 1e-6
    assert np.isfinite(z).all()


@given(x=sample(min_size=3, max_size=30), scale=st.floats(0.1, 100), shift=finite_floats)
def test_zscores_affine_invariant(x, scale, shift):
    assume(np.std(x) > 1e-6 * max(1.0, np.max(np.abs(x))))
    # Conditioning. Forming scale * x + shift rounds each value by up to
    # u = ulp(|shift| + scale * max|x|), and an error of u per value moves
    # a z-score by at most (2 + sqrt(n)) * u / std(scale * x), under 8 u /
    # std for n <= 30, plus a few u from the float64 mean and std. A
    # spread of 1e8 u thus bounds |dz| near 1e-7, an order below atol.
    # Below that no zscores can meet atol: the spread of 0.25 * [1e-5, 0,
    # 0] is only 8.1e4 ulps of 65536, and the shift alone moves z by 8e-6.
    spread = np.std(scale * x)
    assume(spread > 1e8 * np.spacing(abs(shift) + scale * np.max(np.abs(x))))
    a = zscores(x)
    b = zscores(scale * x + shift)
    assert np.allclose(a, b, atol=1e-6)
