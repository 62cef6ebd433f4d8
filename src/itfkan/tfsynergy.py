"""Time-frequency synergy learning over the seasonal component.

The seasonal representation, channel-first (N, d, L) as the decomposition
gives it, is segmented into overlapping patches (with a tail pad that
replicates the final time step), each patch window is compressed to a
d-vector by a shared affine map, a real DFT across the patch axis gives
the one-sided spectrum, and each bin is expanded back over patches into a
real 2-D time-frequency grid. One single-layer KAN per patch then mixes
the frequency axis, and an affine unpatch map restores the original series
length, back in the (N, d, L) layout.

The DFT follows the patch-index convention p = 1..P, so the grid row for
frequency k regains exactly k full periods across the patch axis.

DFT and expansion together are a fixed linear map over the patch axis,
the (K*P, P) ``grid_map``. The forward never holds the grid or the patch
windows whole: ``tensor.patch_compress`` gathers the windows and
``tensor.patch_kans`` builds the grid from the patches slab by slab, and
each backward rebuilds them from its input. ``spectrum_grid`` builds the
whole grid from the same map with tape ops, for calibration; the tests
check it, in value and input gradient, against a naive O(P^2) DFT
expanded bin by bin, and use it as the per-patch KANs' oracle.
"""

import numpy as np

from .taylorkan import TaylorKanLayer
from .tensor import (
    Tensor,
    matmul,
    patch_compress,
    patch_kans,
    permute,
    reshape,
    unpatch,
)


def _check_stride(patch_len, stride):
    if not (1 <= stride <= patch_len):
        raise ValueError(
            f"need 1 <= stride <= patch_len, got stride={stride}, "
            f"patch_len={patch_len}"
        )


def patch_count(length, patch_len, stride):
    """Number of windows: floor((L - P) / S) + 2 (one extra padded window)."""
    _check_stride(patch_len, stride)
    if patch_len > length:
        raise ValueError(f"patch_len {patch_len} exceeds series length {length}")
    return (length - patch_len) // stride + 2


def n_freq_bins(n_patches):
    return n_patches // 2 + 1


class PatchCompressor:
    """Gather padded windows and compress each P*d window to d values."""

    def __init__(self, patch_len, stride, width, rng):
        _check_stride(patch_len, stride)
        self.patch_len = patch_len
        self.stride = stride
        fan_in = patch_len * width
        scale = 1.0 / np.sqrt(fan_in)
        self.w = Tensor(rng.uniform(-scale, scale, (fan_in, width)), requires_grad=True)
        self.b = Tensor(np.zeros(width), requires_grad=True)

    def __call__(self, seasonal):
        """(N, d, L) -> (N, W, d), one compressed vector per window."""
        return patch_compress(seasonal, self.w, self.patch_len, self.stride) + self.b

    def parameters(self, prefix):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]


_GRID_MAPS = {}


def grid_map(n_patches):
    """The (K*P, P) grid map whose row (k, p), column q is
    cos(2*pi*k*(p - q)/P), for k = 0..K-1 and p, q = 1..P. Cached per P and
    read-only, like ``averaging_matrix``."""
    if n_patches not in _GRID_MAPS:
        p_idx = np.arange(1, n_patches + 1)
        k_idx = np.arange(n_freq_bins(n_patches))
        # k*(p - q) reduced mod P exactly in integers before the cosine
        turns = (k_idx[:, None, None] * (p_idx[:, None] - p_idx)) % n_patches
        grid = np.cos(2.0 * np.pi * turns / n_patches).reshape(-1, n_patches)
        grid.flags.writeable = False
        _GRID_MAPS[n_patches] = grid
    return _GRID_MAPS[n_patches]


def spectrum_grid(patches):
    """The (N, K, P, d) time-frequency grid of (N, P, d) patches, as the
    linear map it is.

    Entry (k, p) expands DFT bin X_k = sum_q x_q e^{-2*pi*i*k*q/P} over
    the patches: Re(X_k e^{2*pi*i*k*p/P}) = sum_q x_q cos(2*pi*k*(p - q)/P),
    so the grid is one (K*P, P) matmul over the patch axis. Row 0 is
    constant over patches and row k completes k periods.
    """
    n, n_patches, d = patches.shape
    if n_patches < 2:
        raise ValueError("need at least 2 patches for a spectrum")
    x = permute(patches, (0, 2, 1))  # (N, d, P)
    flat = matmul(x, Tensor(grid_map(n_patches).T))  # (N, d, K*P)
    grid = reshape(flat, (n, d, n_freq_bins(n_patches), n_patches))
    return permute(grid, (0, 2, 3, 1))


class PatchKans:
    """One single-layer KAN per patch, mixing the frequency axis.

    ``layers`` holds each patch's bare ``TaylorKanLayer``, which the model
    names, regularises, prunes and reports through ``kan_layers``; the
    forward pass runs all of them as one fused op over the patches' grid.
    """

    def __init__(self, n_patches, k_bins, rng):
        self.n_patches = n_patches
        self.layers = [TaylorKanLayer(k_bins, k_bins, rng) for _ in range(n_patches)]

    def __call__(self, patches):
        """(N, P, d) patches -> (N, P, d), through their ``spectrum_grid``."""
        params = [(lay.w, lay.a0, lay.a1, lay.a2) for lay in self.layers]
        return patch_kans(patches, grid_map(self.n_patches), params)


class Unpatcher:
    """Shared affine map from the patch axis back to series length L."""

    def __init__(self, n_patches, length, rng):
        scale = 1.0 / np.sqrt(n_patches)
        self.w = Tensor(
            rng.uniform(-scale, scale, (n_patches, length)), requires_grad=True
        )
        self.b = Tensor(np.zeros(length), requires_grad=True)

    def __call__(self, h, residual=None):
        """(N, P, d) -> (N, d, L), plus ``residual`` (N, d, L) if given,
        added into the map's own output (``tensor.unpatch``)."""
        return unpatch(h, self.w, self.b, residual)

    def parameters(self, prefix):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]
