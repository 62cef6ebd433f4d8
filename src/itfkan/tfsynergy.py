"""Time-frequency synergy learning over the seasonal component.

The seasonal representation is segmented into overlapping patches (with a
tail pad that replicates the final time step), each patch window is
compressed to a d-vector by a shared affine map, a real DFT across the
patch axis gives the one-sided spectrum, and each bin is expanded back
over patches into a real 2-D time-frequency grid. One single-layer KAN
per patch then mixes the frequency axis, and an affine unpatch map
restores the original series length.

The DFT follows the patch-index convention p = 1..P, so the grid row for
frequency k regains exactly k full periods across the patch axis.

DFT and expansion together are a fixed linear map over the patch axis, so
the grid is one matmul (``spectrum_grid``). The tests check it, in value
and input gradient, against a naive O(P^2) DFT expanded bin by bin.
"""

from dataclasses import dataclass

import numpy as np

from .taylorkan import TaylorKanLayer
from .tensor import (
    Tensor,
    l2_penalty,
    matmul,
    patch_kans,
    patch_windows,
    permute,
    reshape,
)


@dataclass(frozen=True)
class PatchConfig:
    patch_len: int
    stride: int

    def __post_init__(self):
        if not (1 <= self.stride <= self.patch_len):
            raise ValueError(
                f"need 1 <= stride <= patch_len, got stride={self.stride}, "
                f"patch_len={self.patch_len}"
            )


def patch_count(length, cfg):
    """Number of windows: floor((L - P) / S) + 2 (one extra padded window)."""
    if cfg.patch_len > length:
        raise ValueError(f"patch_len {cfg.patch_len} exceeds series length {length}")
    return (length - cfg.patch_len) // cfg.stride + 2


def n_freq_bins(n_patches):
    return n_patches // 2 + 1


class PatchCompressor:
    """Gather padded windows and compress each P*d window to d values."""

    def __init__(self, cfg, width, rng):
        self.cfg = cfg
        self.width = width
        fan_in = cfg.patch_len * width
        scale = 1.0 / np.sqrt(fan_in)
        self.w = Tensor(rng.uniform(-scale, scale, (fan_in, width)), requires_grad=True)
        self.b = Tensor(np.zeros(width), requires_grad=True)

    def __call__(self, seasonal):
        """(N, L, d) -> (N, W, d), one compressed vector per window."""
        windows = patch_windows(seasonal, self.cfg.patch_len, self.cfg.stride)
        return matmul(windows, self.w) + self.b

    def parameters(self, prefix):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]


_GRID_MAPS = {}


def _grid_map(n_patches):
    """The (K*P, P) grid map whose row (k, p), column q is
    cos(2*pi*k*(p - q)/P), for k = 0..K-1 and p, q = 1..P."""
    if n_patches not in _GRID_MAPS:
        p_idx = np.arange(1, n_patches + 1)
        k_idx = np.arange(n_freq_bins(n_patches))
        # k*(p - q) reduced mod P exactly in integers before the cosine
        turns = (k_idx[:, None, None] * (p_idx[:, None] - p_idx)) % n_patches
        _GRID_MAPS[n_patches] = np.cos(2.0 * np.pi * turns / n_patches).reshape(
            -1, n_patches
        )
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
    grid_map = _grid_map(n_patches)
    x = permute(patches, (0, 2, 1))  # (N, d, P)
    flat = matmul(x, Tensor(grid_map.T))  # (N, d, K*P)
    grid = reshape(flat, (n, d, n_freq_bins(n_patches), n_patches))
    return permute(grid, (0, 2, 3, 1))


class PatchKans:
    """One single-layer KAN per patch, mixing the frequency axis.

    ``layers`` holds each patch's bare ``TaylorKanLayer`` (parameters,
    pruning, reports); the forward pass runs all of them as one fused op
    over the whole grid.
    """

    def __init__(self, n_patches, k_bins, rng):
        self.n_patches = n_patches
        self.k_bins = k_bins
        self.layers = [TaylorKanLayer(k_bins, k_bins, rng) for _ in range(n_patches)]

    def __call__(self, tf):
        """(N, K, P, d) grid -> (N, P, d)."""
        n, k_bins, n_patches, d = tf.shape
        if n_patches != self.n_patches or k_bins != self.k_bins:
            raise ValueError(
                f"grid is {k_bins}x{n_patches}, networks expect "
                f"{self.k_bins}x{self.n_patches}"
            )
        return patch_kans(tf, [(lay.w, lay.a0, lay.a1, lay.a2) for lay in self.layers])

    def reg_loss(self):
        """Sum of every per-patch layer's penalty, as one tape node."""
        return l2_penalty([term for layer in self.layers for term in layer.reg_terms()])

    def edge_total(self):
        return sum(layer.n_total for layer in self.layers)

    def parameters(self, prefix):
        """Each patch's layer under ``{prefix}.p{p}.l0``, the name a one-layer
        network would give it, so checkpoints keep their tensor names."""
        params = []
        for p, layer in enumerate(self.layers):
            params.extend(layer.parameters(f"{prefix}.p{p}.l0"))
        return params


class Unpatcher:
    """Shared affine map from the patch axis back to series length L."""

    def __init__(self, n_patches, length, rng):
        scale = 1.0 / np.sqrt(n_patches)
        self.w = Tensor(
            rng.uniform(-scale, scale, (n_patches, length)), requires_grad=True
        )
        self.b = Tensor(np.zeros(length), requires_grad=True)

    def __call__(self, h):
        out = matmul(permute(h, (0, 2, 1)), self.w) + self.b
        return permute(out, (0, 2, 1))

    def parameters(self, prefix):
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]
