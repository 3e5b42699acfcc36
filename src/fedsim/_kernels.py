"""The local-SGD inner loop, in numpy.

``local_sgd`` runs K steps w <- w - eta * g_k and returns (sum of the g_k,
final local iterate). The gradient sum is accumulated directly rather than
recovered from the displacement, so small steps never suffer cancellation.
The quadratic and trig kernels add pre-drawn noise to the same gradient
expression as the instance's ``grad``, so an update replays bit for bit.
"""

from __future__ import annotations

import numpy as np

# The name of the one compute path, echoed as ``backend`` in ``_meta.json``.
BACKEND = "python"


def local_sgd(step_grad, w0, eta, n_steps):
    """K local steps from ``w0``, where ``step_grad(w, k)`` is step k's gradient."""
    w = w0.copy()
    total = np.zeros_like(w0)
    for k in range(n_steps):
        g = step_grad(w, k)
        total += g
        w -= eta * g
    return total, w


def quad_local_sgd(hessian, center, w0, eta, n_steps, noise):
    return local_sgd(lambda w, k: hessian @ (w - center) + noise[k], w0, eta, n_steps)


def trig_local_sgd(center, curvature, amplitude, w0, eta, n_steps, noise):
    return local_sgd(lambda w, k: curvature * (w - center) - amplitude * np.sin(w) + noise[k], w0, eta, n_steps)
