"""The numpy local-SGD kernels."""

import numpy as np

from fedsim import _kernels


def test_reference_kernels_leave_inputs_untouched():
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal((2, 4))
    w0_copy = w0.copy()
    noise = np.zeros((2, 3, 4))
    _kernels.trig_local_sgd(np.zeros((2, 4)), 1.0, 0.5, w0, 0.1, 3, noise)
    assert np.array_equal(w0, w0_copy)
