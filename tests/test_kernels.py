"""The numpy local-SGD kernels."""

import numpy as np

from fedsim import _kernels


def test_reference_kernels_leave_inputs_untouched():
    # the kernels step in buffers of their own, never in their inputs
    rng = np.random.default_rng(0)
    hessians, centers, w0, noise = (rng.standard_normal(shape) for shape in ((2, 4, 4), (2, 4), (2, 4), (2, 3, 4)))
    inputs = [hessians, centers, w0, noise]
    copies = [array.copy() for array in inputs]
    _kernels.trig_local_sgd(centers, 1.0, 0.5, w0, 0.1, 3, noise)
    _kernels.quad_local_sgd(hessians, centers, w0, 0.1, 3, noise)
    assert all(np.array_equal(array, copy) for array, copy in zip(inputs, copies))
