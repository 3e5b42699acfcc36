"""The local-SGD inner loop, in numpy, over a block of devices.

``local_sgd`` runs K steps W <- W - eta * G_k on an (A, d) block ``W`` whose
row r is device r's local iterate, and returns (sum of the G_k, final
block); ``eta`` is one step size or the (A, 1) column of each row's. The gradient sum is accumulated directly rather than recovered from
the displacement, so small steps never suffer cancellation.

The quadratic and trig kernels add the (A, K, d) block of pre-drawn noise
to the same gradient expression as the instance's ``grad``, in the same
order of operations, each step into preallocated (A, d) buffers. Every
expression acts row by row: elementwise, or one ``np.matmul`` per row,
which computes each row as the one-device ``H @ v`` does. A row therefore
replays bit for bit, whatever the other rows of its block.
"""

from __future__ import annotations

import numpy as np

# The name of the one compute path, echoed as ``backend`` in ``_meta.json``.
BACKEND = "python"


def local_sgd(step_grad, w0, eta, n_steps):
    """K local steps from the (A, d) block ``w0``, where ``step_grad(W, k)``
    is step k's (A, d) block of gradients at the block ``W``; it may return
    the same buffer every step."""
    w = w0.copy()
    total = np.zeros_like(w0)
    scaled = np.empty_like(w)
    for k in range(n_steps):
        g = step_grad(w, k)
        total += g
        w -= np.multiply(eta, g, out=scaled)
    return total, w


def quad_local_sgd(hessians, centers, w0, eta, n_steps, noise):
    diff, g = np.empty(np.shape(w0)), np.empty(np.shape(w0))

    def grad(w, k):
        np.matmul(hessians, np.subtract(w, centers, out=diff)[:, :, None], out=g[:, :, None])
        return np.add(g, noise[:, k], out=g)

    return local_sgd(grad, w0, eta, n_steps)


def trig_local_sgd(centers, curvature, amplitude, w0, eta, n_steps, noise):
    g, wave = np.empty(np.shape(w0)), np.empty(np.shape(w0))

    def grad(w, k):
        np.multiply(np.subtract(w, centers, out=g), curvature, out=g)
        np.subtract(g, np.multiply(np.sin(w, out=wave), amplitude, out=wave), out=g)
        return np.add(g, noise[:, k], out=g)

    return local_sgd(grad, w0, eta, n_steps)
