"""Input embedding and moving-average trend/seasonal decomposition.

The raw (N, L) series is lifted to (N, L, d) by a shared per-timepoint
affine map. The trend is a centered moving average with edge-replication
padding; the seasonal part is the exact residual, so trend + seasonal
reconstructs the input by construction.
"""

import numpy as np

from .tensor import Tensor, lift, matmul, permute, sub


_AVG_CACHE = {}


def averaging_matrix(length, kernel):
    """(L, L) matrix computing the replicate-padded centered window mean.

    Column t holds weight 1/kernel for each padded window position, with
    out-of-range positions folded onto the clipped edge index, which is
    exactly a mean over the edge-replicated padding.
    """
    validate_kernel(length, kernel)
    key = (length, kernel)
    cached = _AVG_CACHE.get(key)
    if cached is not None:
        return cached
    half = (kernel - 1) // 2
    mat = np.zeros((length, length))
    for t in range(length):
        for s in range(-half, half + 1):
            u = min(max(t + s, 0), length - 1)
            mat[u, t] += 1.0 / kernel
    _AVG_CACHE[key] = mat
    return mat


def validate_kernel(length, kernel):
    if kernel % 2 == 0:
        raise ValueError("kernel must be odd")
    if kernel < 1:
        raise ValueError(f"kernel must be positive, got {kernel}")
    if kernel > 2 * length - 1:
        raise ValueError(f"kernel {kernel} exceeds 2L-1 = {2 * length - 1} (L = {length})")


class Embedding:
    """Shared trainable affine lift of each scalar time point to d dims."""

    def __init__(self, width, rng):
        scale = 1.0
        self.w = Tensor(rng.uniform(-scale, scale, size=(1, width)), requires_grad=True)
        self.b = Tensor(np.zeros(width), requires_grad=True)

    def __call__(self, x):
        """(N, L) -> (N, L, d)."""
        if x.size == 0:
            raise ValueError("embed: empty input")
        return lift(x, self.w, self.b)

    def parameters(self):
        return [("embed.w", self.w), ("embed.b", self.b)]


def moving_average_decompose(x, kernel):
    """Split (N, L, d) into (trend, seasonal) along the time axis."""
    n, length, d = x.shape
    mat = Tensor(averaging_matrix(length, kernel))
    trend = permute(matmul(permute(x, (0, 2, 1)), mat), (0, 2, 1))
    seasonal = sub(x, trend)
    return trend, seasonal


def moving_average_np(values, kernel):
    """Numpy twin of the trend filter for (..., L) arrays (no tape)."""
    length = values.shape[-1]
    return values @ averaging_matrix(length, kernel)
