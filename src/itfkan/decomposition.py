"""Input embedding and moving-average trend/seasonal decomposition.

The raw (N, L) series is lifted to (N, L, d) by a shared per-timepoint
affine map. The trend is a centered moving average with edge-replication
padding; the seasonal part is the exact residual, so trend + seasonal
reconstructs the input by construction. Both come out channel-first,
as row-major (N, d, L) arrays: every op after the decomposition acts
along the time axis of each channel, which is then their last axis.
Untaped, either part can be built alone from the (N, L) windows, with the
split's bits, without the lifted (N, L, d) array ever existing whole.
"""

import numpy as np

from .tensor import Tensor, is_recording, lift, lift_average, matmul, permute, sub

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

    def __call__(self, x):
        """(N, L) -> (N, L, d)."""
        _check_nonempty(x)
        return lift(x, self.w, self.b)

    def parameters(self):
        return [("embed.w", self.w), ("embed.b", self.b)]


def _check_nonempty(x):
    if x.size == 0:
        raise ValueError("embed: empty input")


def moving_average_decompose(x, kernel, embed=None, part=None):
    """Split (N, L, d) along the time axis into (trend, seasonal), each a
    row-major (N, d, L) array: x is permuted once, and both are computed
    in that layout.

    Given an ``Embedding`` and ``part`` ("trend" or "seasonal"), x is the
    (N, L) windows instead, and only that part of the split of
    ``embed(x)`` is built, untaped and slab by slab
    (``tensor.lift_average``), with the bits the split gives it. So an
    untaped caller holds one part at a time, and never the embedding."""
    if embed is not None:
        if part not in PARTS:
            raise ValueError(f"part must be one of {PARTS}, got {part!r}")
        if is_recording():
            raise RuntimeError("one part of the split is built untaped only")
        _check_nonempty(x)
        avg = averaging_matrix(x.shape[-1], kernel)
        return lift_average(x, embed.w, embed.b, avg, seasonal=part == "seasonal")
    xt = permute(x, (0, 2, 1))
    trend = matmul(xt, Tensor(averaging_matrix(x.shape[1], kernel)))
    return trend, sub(xt, trend)


def moving_average_np(values, kernel):
    """Numpy twin of the trend filter for (..., L) arrays (no tape)."""
    length = values.shape[-1]
    return values @ averaging_matrix(length, kernel)
