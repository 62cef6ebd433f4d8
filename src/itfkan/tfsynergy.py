"""Time-frequency synergy learning over the seasonal component.

The seasonal representation is segmented into overlapping patches (with a
tail pad that replicates the final time step), each patch window is
compressed to a d-vector by a shared affine map, a real DFT across the
patch axis yields amplitude/phase, and the one-sided spectrum is expanded
back over patches into a real 2-D time-frequency grid. One single-layer
KAN per patch then mixes the frequency axis, and an affine unpatch map
restores the original series length.

The DFT follows the patch-index convention p = 1..P, so the grid row for
frequency k regains exactly k full periods across the patch axis.

DFT and expansion together are a fixed linear map over the patch axis, and
the model computes its grid that way, as one matmul (``spectrum_grid``).
``dft_patches`` and ``tf_expand`` remain the interpretable amplitude/phase
spectrum and the oracle the map is tested against. The two agree to
rounding in value and gradient except at exactly zero amplitude, where the
amplitude/phase chain's sqrt/atan2 guards zero the gradient and the map
gives the true derivative.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .taylorkan import KanNetwork, TaylorKanLayer, merge_range
from .tensor import (
    Tensor,
    atan2,
    cos,
    expand_last,
    matmul,
    patch_kans,
    patch_windows,
    permute,
    pow_int,
    reshape,
    sin,
    sqrt,
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


class SpectrumResult(NamedTuple):
    amplitude: Tensor  # (N, K, d), nonnegative
    phase: Tensor      # (N, K, d), in (-pi, pi]
    n_patches: int


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


_DFT_CACHE = {}


def _dft_tables(n_patches):
    """cos/sin tables over k = 0..K-1 and p = 1..P, and the (K*P, P) grid
    map whose row (k, p), column q is cos(2*pi*k*(p - q)/P)."""
    key = n_patches
    if key not in _DFT_CACHE:
        k_bins = n_freq_bins(n_patches)
        p_idx = np.arange(1, n_patches + 1)
        k_idx = np.arange(k_bins)
        angles = 2.0 * np.pi * np.outer(k_idx, p_idx) / n_patches  # (K, P)
        # k*(p - q) reduced mod P exactly in integers before the cosine
        turns = (k_idx[:, None, None] * (p_idx[:, None] - p_idx)) % n_patches
        grid_map = np.cos(2.0 * np.pi * turns / n_patches).reshape(-1, n_patches)
        _DFT_CACHE[key] = (np.cos(angles), np.sin(angles), grid_map)
    return _DFT_CACHE[key]


def dft_patches(patches):
    """Real DFT along the patch axis of (N, P, d); returns amplitude/phase.

    Amplitude and phase stay inside the differentiable graph (sqrt/atan2
    primitives); bins with exactly zero amplitude take phase 0 with a zero
    gradient.
    """
    n, n_patches, d = patches.shape
    if n_patches < 2:
        raise ValueError("need at least 2 patches for a spectrum")
    cos_t, sin_t, _ = _dft_tables(n_patches)
    x = permute(patches, (0, 2, 1))  # (N, d, P)
    re = matmul(x, Tensor(cos_t.T))        # (N, d, K)
    im = matmul(x, Tensor(-sin_t.T))
    amp = sqrt(pow_int(re, 2) + pow_int(im, 2))
    phase = atan2(im, re)
    return SpectrumResult(
        amplitude=permute(amp, (0, 2, 1)),
        phase=permute(phase, (0, 2, 1)),
        n_patches=n_patches,
    )


def tf_expand(spectrum):
    """Expand the one-sided spectrum to the real (N, K, P, d) grid.

    Entry (k, p) is A_k * cos(phi_k + 2*pi*k*p/P) for p = 1..P: row 0 is
    constant over patches and row k completes k periods.
    """
    amp, phase, n_patches = spectrum
    cos_t, sin_t, _ = _dft_tables(n_patches)
    d = amp.shape[-1]
    u = amp * cos(phase)  # (N, K, d)
    v = amp * sin(phase)
    u4 = permute(expand_last(u, n_patches), (0, 1, 3, 2))  # (N, K, P, d)
    v4 = permute(expand_last(v, n_patches), (0, 1, 3, 2))
    cos_e = expand_last(Tensor(cos_t), d)  # (K, P, d)
    sin_e = expand_last(Tensor(sin_t), d)
    return u4 * cos_e - v4 * sin_e


def spectrum_grid(patches):
    """The (N, K, P, d) time-frequency grid of (N, P, d) patches, as the
    linear map it is.

    Equals ``tf_expand(dft_patches(patches))``: A_k cos(phi_k + 2*pi*k*p/P)
    = Re_k cos(2*pi*k*p/P) - Im_k sin(2*pi*k*p/P)
    = sum_q x_q cos(2*pi*k*(p - q)/P), so the grid is one (K*P, P) matmul
    over the patch axis, with no amplitude or phase in between.
    """
    n, n_patches, d = patches.shape
    if n_patches < 2:
        raise ValueError("need at least 2 patches for a spectrum")
    grid_map = _dft_tables(n_patches)[2]
    x = permute(patches, (0, 2, 1))  # (N, d, P)
    flat = matmul(x, Tensor(grid_map.T))  # (N, d, K*P)
    grid = reshape(flat, (n, d, n_freq_bins(n_patches), n_patches))
    return permute(grid, (0, 2, 3, 1))


class PatchKans:
    """One single-layer KAN per patch, mixing the frequency axis.

    Each patch keeps its own network (parameters, pruning, reports); the
    forward pass runs all of them as one fused op over the whole grid.
    """

    def __init__(self, n_patches, k_bins, rng):
        self.n_patches = n_patches
        self.k_bins = k_bins
        self.nets = [
            KanNetwork([TaylorKanLayer(k_bins, k_bins, rng)])
            for _ in range(n_patches)
        ]

    def __call__(self, tf, probe=None):
        """(N, K, P, d) grid -> (N, P, d); optionally record each patch's
        input ranges into ``probe`` under ("tf.p{p}", 0), for calibration."""
        n, k_bins, n_patches, d = tf.shape
        if n_patches != self.n_patches or k_bins != self.k_bins:
            raise ValueError(
                f"grid is {k_bins}x{n_patches}, networks expect "
                f"{self.k_bins}x{self.n_patches}"
            )
        if probe is not None:
            lo, hi = tf.data.min(axis=(0, 3)), tf.data.max(axis=(0, 3))  # (K, P)
            for p in range(n_patches):
                merge_range(probe, (f"tf.p{p}", 0), lo[:, p], hi[:, p])
        layers = [net.layers[0] for net in self.nets]
        return patch_kans(tf, [(lay.w, lay.a0, lay.a1, lay.a2) for lay in layers])

    def reg_loss(self):
        total = self.nets[0].reg_loss()
        for net in self.nets[1:]:
            total = total + net.reg_loss()
        return total

    def edge_total(self):
        return sum(
            sum(c["total"] for c in net.layer_counts()) for net in self.nets
        )

    def parameters(self, prefix):
        params = []
        for p, net in enumerate(self.nets):
            params.extend(net.parameters(f"{prefix}.p{p}"))
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
