import numpy as np
import pytest

from itfkan.tensor import Tensor, backward, gradient_check
from itfkan.tfsynergy import (
    PatchCompressor,
    PatchConfig,
    PatchKans,
    SpectrumResult,
    Unpatcher,
    dft_patches,
    n_freq_bins,
    patch_count,
    spectrum_grid,
    tf_expand,
)


def naive_dft(series):
    """Independent O(P^2) oracle, patch index running 1..P."""
    n = len(series)
    bins = n // 2 + 1
    out = np.zeros(bins, dtype=complex)
    for k in range(bins):
        for p in range(1, n + 1):
            out[k] += series[p - 1] * np.exp(-2j * np.pi * k * p / n)
    return out


def spectrum_of(series):
    patches = Tensor(np.asarray(series, dtype=float).reshape(1, -1, 1))
    return dft_patches(patches)


# --- patch arithmetic ---------------------------------------------------------

def test_patch_count_reference_config():
    assert patch_count(96, PatchConfig(6, 6)) == 17
    assert n_freq_bins(17) == 9


def test_patch_count_small():
    assert patch_count(8, PatchConfig(4, 2)) == 4


def test_patch_count_degenerate():
    assert patch_count(5, PatchConfig(5, 5)) == 2


def test_patch_rejects_oversized_patch():
    with pytest.raises(ValueError):
        patch_count(4, PatchConfig(6, 2))


def test_patch_config_validation():
    with pytest.raises(ValueError):
        PatchConfig(4, 5)
    with pytest.raises(ValueError):
        PatchConfig(4, 0)


def test_patch_windows_match_manual_slices():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 8, 3))
    cfg = PatchConfig(4, 2)
    comp = PatchCompressor(cfg, 3, np.random.default_rng(1))
    out = comp(Tensor(x))
    assert out.shape == (2, 4, 3)
    padded = np.concatenate([x, np.repeat(x[:, -1:], 2, axis=1)], axis=1)
    for w in range(4):
        window = padded[:, w * 2 : w * 2 + 4].reshape(2, -1)
        expected = window @ comp.w.data + comp.b.data
        np.testing.assert_allclose(out.data[:, w], expected, rtol=1e-12)


# --- spectrum -----------------------------------------------------------------

def test_constant_sequence_is_dc_only():
    spec = spectrum_of([3.0, 3.0, 3.0, 3.0])
    amps = spec.amplitude.data[0, :, 0]
    np.testing.assert_allclose(amps[0], 4 * 3.0, rtol=1e-12)
    np.testing.assert_allclose(amps[1:], 0.0, atol=1e-12)


def test_alternating_sequence_is_nyquist_only():
    spec = spectrum_of([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    amps = spec.amplitude.data[0, :, 0]
    np.testing.assert_allclose(amps[-1], 6.0, rtol=1e-12)
    np.testing.assert_allclose(amps[:-1], 0.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 8, 17, 31])
def test_dft_matches_naive_oracle(n):
    rng = np.random.default_rng(n)
    series = rng.normal(size=n)
    spec = spectrum_of(series)
    ref = naive_dft(series)
    np.testing.assert_allclose(spec.amplitude.data[0, :, 0], np.abs(ref), atol=1e-9)
    mask = np.abs(ref) > 1e-12
    np.testing.assert_allclose(
        spec.phase.data[0, mask, 0], np.angle(ref[mask]), atol=1e-9
    )


def test_parseval_on_patch_axis():
    rng = np.random.default_rng(5)
    series = rng.normal(size=12)
    spec = spectrum_of(series)
    amps = spec.amplitude.data[0, :, 0]
    # expand the one-sided spectrum: interior bins count twice
    weights = np.full_like(amps, 2.0)
    weights[0] = 1.0
    if len(series) % 2 == 0:
        weights[-1] = 1.0
    energy_freq = np.sum(weights * amps**2) / len(series)
    np.testing.assert_allclose(energy_freq, np.sum(series**2), rtol=1e-9)


def test_dft_rejects_single_patch():
    with pytest.raises(ValueError):
        dft_patches(Tensor(np.zeros((1, 1, 2))))


# --- grid expansion --------------------------------------------------------------

def test_zero_amplitude_row_is_zero():
    amp = np.zeros((1, 3, 1))
    amp[0, 1, 0] = 0.0
    phase = np.zeros((1, 3, 1))
    grid = tf_expand(SpectrumResult(Tensor(amp), Tensor(phase), 4))
    np.testing.assert_array_equal(grid.data[0, 1], 0.0)


def test_dc_row_is_patch_invariant():
    rng = np.random.default_rng(7)
    series = rng.normal(size=8)
    grid = tf_expand(spectrum_of(series))
    rows = grid.data[0, 0, :, 0]
    np.testing.assert_allclose(rows, rows[0], rtol=1e-12)


def test_row_k_has_k_periods():
    series = np.random.default_rng(9).normal(size=16)
    grid = tf_expand(spectrum_of(series)).data[0, :, :, 0]
    for k in range(1, 8):
        # count sign changes of the centered row: 2 per period
        row = grid[k] - grid[k].mean()
        flips = np.sum(np.abs(np.diff(np.sign(row))) > 0)
        assert abs(flips - 2 * k) <= 1, (k, flips)


@pytest.mark.parametrize("n", [2, 4, 8, 17])
def test_single_tone_reconstruction(n):
    t = np.arange(1, n + 1)
    tone_bin = max(1, n // 4)
    series = np.sin(2 * np.pi * tone_bin * t / n + 0.3)
    grid = tf_expand(spectrum_of(series)).data[0, :, :, 0]  # (K, P)
    weights = np.full(grid.shape[0], 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    recon = (weights[:, None] * grid).sum(axis=0) / n
    np.testing.assert_allclose(recon, series, atol=1e-9)


# --- the grid as a linear map ------------------------------------------------------

def grid_and_input_grad(fn, x, weights):
    leaf = Tensor(x, requires_grad=True)
    grid = fn(leaf)
    backward((grid * Tensor(weights)).sum())
    return grid.data, leaf.grad


@pytest.mark.parametrize("n", [2, 3, 4, 8, 17])
def test_spectrum_grid_matches_amplitude_phase_chain(n):
    rng = np.random.default_rng(40 + n)
    x = rng.normal(size=(3, n, 4))  # generic: every amplitude non-zero
    weights = rng.normal(size=(3, n_freq_bins(n), n, 4))
    grid, grad = grid_and_input_grad(spectrum_grid, x, weights)
    ref_grid, ref_grad = grid_and_input_grad(
        lambda t: tf_expand(dft_patches(t)), x, weights
    )
    assert np.abs(dft_patches(Tensor(x)).amplitude.data).min() > 1e-6
    assert grid.shape == ref_grid.shape
    np.testing.assert_allclose(grid, ref_grid, rtol=0, atol=1e-12 * np.abs(ref_grid).max())
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12 * np.abs(ref_grad).max())


def test_spectrum_grid_gradient_at_zero_amplitude():
    # at x = 0 every bin has exactly zero amplitude, where the amplitude/phase
    # chain's sqrt/atan2 guards zero the gradient; the linear map keeps the
    # true derivative
    x = Tensor(np.zeros((2, 6, 3)))
    weights = Tensor(np.random.default_rng(48).normal(size=(2, 4, 6, 3)))
    err = gradient_check(lambda t: (spectrum_grid(t) * weights).sum(), x)
    assert err < 1e-8, err


def test_spectrum_grid_rejects_single_patch():
    with pytest.raises(ValueError):
        spectrum_grid(Tensor(np.zeros((1, 1, 2))))


# --- per-patch KANs ----------------------------------------------------------------

def test_edge_total_matches_reference_config():
    kans = PatchKans(17, 9, np.random.default_rng(0))
    assert kans.edge_total() == 1377


def test_edge_total_formula_other_shapes():
    for n_patches, k_bins in [(4, 3), (2, 2), (10, 6)]:
        kans = PatchKans(n_patches, k_bins, np.random.default_rng(1))
        assert kans.edge_total() == n_patches * k_bins * k_bins


def test_zeroed_kans_output_zero():
    kans = PatchKans(3, 2, np.random.default_rng(2))
    for net in kans.nets:
        for layer in net.layers:
            for t in (layer.w, layer.a0, layer.a1, layer.a2):
                t.data[:] = 0.0
    tf = Tensor(np.random.default_rng(3).normal(size=(2, 2, 3, 4)))
    np.testing.assert_array_equal(kans(tf).data, 0.0)


def test_single_patch_single_bin_matches_edge():
    kans = PatchKans(1, 1, np.random.default_rng(4))
    layer = kans.nets[0].layers[0]
    tf = Tensor(np.random.default_rng(5).normal(size=(3, 1, 1, 2)))
    out = kans(tf)
    edge = layer.edge(0, 0)
    np.testing.assert_allclose(out.data[:, 0, :], edge(tf.data[:, 0, 0, :]), rtol=1e-12)


def test_patchkans_records_per_patch_ranges():
    kans = PatchKans(3, 2, np.random.default_rng(16))
    grid = np.random.default_rng(17).normal(size=(4, 2, 3, 5))
    probe = {}
    kans(Tensor(grid), probe=probe)
    kans(Tensor(grid[:1] * 3.0), probe=probe)
    both = np.concatenate([grid, grid[:1] * 3.0])
    assert sorted(probe) == [(f"tf.p{p}", 0) for p in range(3)]
    for p in range(3):
        lo, hi = probe[(f"tf.p{p}", 0)]
        np.testing.assert_array_equal(lo, both[:, :, p, :].min(axis=(0, 2)))
        np.testing.assert_array_equal(hi, both[:, :, p, :].max(axis=(0, 2)))


def test_patchkans_rejects_wrong_grid():
    kans = PatchKans(3, 2, np.random.default_rng(6))
    with pytest.raises(ValueError):
        kans(Tensor(np.zeros((1, 2, 4, 2))))


# --- unpatch -----------------------------------------------------------------------

def test_unpatch_zero_input_gives_bias():
    up = Unpatcher(4, 6, np.random.default_rng(7))
    up.b.data[:] = np.arange(6.0)
    out = up(Tensor(np.zeros((2, 4, 3))))
    np.testing.assert_allclose(out.data, np.broadcast_to(np.arange(6.0)[None, :, None], (2, 6, 3)))


def test_unpatch_identity_map():
    up = Unpatcher(5, 5, np.random.default_rng(8))
    up.w.data[:] = np.eye(5)
    up.b.data[:] = 0.0
    x = np.random.default_rng(9).normal(size=(2, 5, 3))
    np.testing.assert_allclose(up(Tensor(x)).data, x, rtol=1e-12)


def test_unpatch_matches_matrix_oracle():
    up = Unpatcher(3, 7, np.random.default_rng(10))
    x = np.random.default_rng(11).normal(size=(2, 3, 4))
    out = up(Tensor(x)).data
    expected = np.einsum("npd,pl->nld", x, up.w.data) + up.b.data[None, :, None]
    np.testing.assert_allclose(out, expected, rtol=1e-12)


# --- end-to-end gradients -------------------------------------------------------------

def test_gradients_flow_through_full_chain():
    from gradcheck_util import param_fd_errors

    rng = np.random.default_rng(12)
    cfg = PatchConfig(4, 2)
    length, width = 8, 2
    comp = PatchCompressor(cfg, width, rng)
    n_patches = patch_count(length, cfg)
    kans = PatchKans(n_patches, n_freq_bins(n_patches), rng)
    up = Unpatcher(n_patches, length, rng)
    x = Tensor(np.random.default_rng(13).normal(size=(2, length, width)))

    def loss_fn():
        h = comp(x)
        spec = dft_patches(h)
        tf = tf_expand(spec)
        return (up(kans(tf)) ** 2).sum() * 0.1

    params = comp.parameters("patch") + kans.parameters("tf")[:8] + up.parameters("unpatch")
    errors = param_fd_errors(loss_fn, params)
    for name, err in errors.items():
        assert err < 1e-4, f"{name}: {err}"


def test_input_gradient_through_chain():
    rng = np.random.default_rng(14)
    cfg = PatchConfig(3, 3)
    comp = PatchCompressor(cfg, 1, rng)
    n_patches = patch_count(6, cfg)
    kans = PatchKans(n_patches, n_freq_bins(n_patches), rng)
    x = Tensor(np.random.default_rng(15).normal(size=(1, 6, 1)), requires_grad=True)
    loss = (kans(tf_expand(dft_patches(comp(x)))) ** 2).sum()
    backward(loss)
    assert x.grad is not None and np.all(np.isfinite(x.grad))
