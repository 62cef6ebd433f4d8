"""Moving-average trend/seasonal decomposition and the input embedding.

The (N, L) windows are split first: the trend is a centered moving
average with edge-replication padding, and the seasonal part is the exact
residual, so trend + seasonal reconstructs the windows by construction.
Each part is then lifted to d channels by a shared per-channel affine map,
written channel-first, as a row-major (N, d, L) array: every op after the
decomposition acts along the time axis of each channel, which is then its
last axis. The average is linear and the lift affine, so the lifted parts
are the split of the lifted windows: each column of the averaging matrix
sums to 1, so the lifted trend takes the embedding's bias and the lifted
seasonal part none.
"""

import numpy as np

from .tensor import Tensor, lift

PARTS = ("trend", "seasonal")


_AVG_CACHE = {}


def averaging_matrix(length, kernel):
    """(L, L) matrix computing the replicate-padded centered window mean.

    Column t holds weight 1/kernel for each padded window position, with
    out-of-range positions folded onto the clipped edge index, which is
    exactly a mean over the edge-replicated padding. The matrix is cached
    per (L, kernel) and read-only: every caller shares it, so a write
    raises ValueError instead of changing later decompositions.
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
    mat.flags.writeable = False
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

    def __call__(self, x, bias=True):
        """(N, L) -> (N, d, L), row-major; without ``bias`` the map is
        linear, as the seasonal part's lift is."""
        if x.size == 0:
            raise ValueError("embed: empty input")
        return lift(x, self.w, self.b if bias else None)

    def parameters(self):
        return [("embed.w", self.w), ("embed.b", self.b)]


def moving_average_decompose(x, kernel):
    """Split the (N, L) windows x into (trend, seasonal), each (N, L) and
    row-major, as data: the split records no tape node. Each row is
    averaged by its own (1, L) @ (L, L) product, so a window's parts do not
    depend on the other rows of its batch, which a whole-batch GEMM would
    round by row count."""
    rows = np.ascontiguousarray(x.data)
    trend = moving_average_np(rows[:, None, :], kernel)[:, 0]
    return Tensor(trend), Tensor(rows - trend)


def moving_average_np(values, kernel):
    """Numpy twin of the trend filter for (..., L) arrays (no tape)."""
    length = values.shape[-1]
    return values @ averaging_matrix(length, kernel)
