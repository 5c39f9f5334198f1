"""The shared finite-difference gradient check."""

import numpy as np
import pytest

from lc2st.nets import grad_check


def _quadratic():
    # loss = 0.5 * sum(c * a^2) over two arrays; its gradient is c * a
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal((3, 4)) + 2.0, rng.standard_normal(5) - 2.0]
    weights = [rng.uniform(0.5, 2.0, a.shape) for a in arrays]

    def loss():
        return float(sum(0.5 * np.sum(c * a * a) for c, a in zip(weights, arrays)))

    return arrays, [c * a for c, a in zip(weights, arrays)], loss


def test_exact_gradient_passes_and_arrays_are_restored():
    arrays, grads, loss = _quadratic()
    before = [a.copy() for a in arrays]
    assert grad_check(arrays, grads, loss) <= 1e-6
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))


@pytest.mark.parametrize("factor, error", [(2.0, 0.5), (-1.0, 2.0)])
def test_wrong_gradient_is_reported(factor, error):
    # |factor*g - g| / |factor*g| is the relative error, up to the 1e-8 floor
    # of the denominator and the finite-difference error
    arrays, grads, loss = _quadratic()
    assert grad_check(arrays, [factor * g for g in grads], loss) == pytest.approx(error, abs=1e-6)
