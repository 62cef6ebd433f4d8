import numpy as np
import pytest

from gradcheck_util import gradient_check
from itfkan.interpret import calibrate_ranges
from itfkan.model import ForecastModel, ModelConfig
from itfkan.tensor import Tensor, backward, no_grad
from itfkan.tfsynergy import (
    PatchCompressor,
    PatchConfig,
    PatchKans,
    Unpatcher,
    n_freq_bins,
    patch_count,
    spectrum_grid,
)


def naive_dft(series):
    """Independent O(P^2) oracle along axis 0, patch index running 1..P."""
    n = len(series)
    out = np.zeros((n // 2 + 1,) + np.shape(series)[1:], dtype=complex)
    for k in range(len(out)):
        for p in range(1, n + 1):
            out[k] += series[p - 1] * np.exp(-2j * np.pi * k * p / n)
    return out


def naive_grid(series):
    """naive_dft's bins expanded over patches p = 1..P along axis 0: entry
    (k, p) is Re(X_k e^{2 pi i k p / P}) = |X_k| cos(phase_k + 2 pi k p / P),
    the amplitude/phase expansion."""
    n = len(series)
    spectrum = naive_dft(series)
    grid = np.zeros((len(spectrum), n) + spectrum.shape[1:])
    for k in range(len(spectrum)):
        for p in range(1, n + 1):
            grid[k, p - 1] = (spectrum[k] * np.exp(2j * np.pi * k * p / n)).real
    return grid


def grid_of(series):
    """spectrum_grid of one series, as its (K, P) grid."""
    patches = Tensor(np.asarray(series, dtype=float).reshape(1, -1, 1))
    return spectrum_grid(patches).data[0, :, :, 0]


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
    grid = grid_of([3.0, 3.0, 3.0, 3.0])
    np.testing.assert_allclose(grid[0], 4 * 3.0, rtol=1e-12)
    np.testing.assert_allclose(grid[1:], 0.0, atol=1e-12)


def test_alternating_sequence_is_nyquist_only():
    series = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    grid = grid_of(series)
    np.testing.assert_allclose(grid[-1], 6.0 * series, rtol=1e-12)
    np.testing.assert_allclose(grid[:-1], 0.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 8, 17, 31])
def test_dft_matches_naive_oracle(n):
    rng = np.random.default_rng(n)
    series = rng.normal(size=n)
    np.testing.assert_allclose(grid_of(series), naive_grid(series), atol=1e-9)


def test_parseval_on_patch_axis():
    rng = np.random.default_rng(5)
    series = rng.normal(size=12)
    n = len(series)
    # a row's energy over the patches is n |X_k|^2 at DC and Nyquist and
    # n |X_k|^2 / 2 in between, where the one-sided spectrum counts twice
    row_energy = (grid_of(series) ** 2).sum(axis=1)
    weights = np.full_like(row_energy, 4.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    energy_freq = np.sum(weights * row_energy) / n**2
    np.testing.assert_allclose(energy_freq, np.sum(series**2), rtol=1e-9)


# --- grid rows -------------------------------------------------------------------

def test_dc_row_is_patch_invariant():
    rng = np.random.default_rng(7)
    series = rng.normal(size=8)
    rows = grid_of(series)[0]
    np.testing.assert_allclose(rows, rows[0], rtol=1e-12)


def test_row_k_has_k_periods():
    series = np.random.default_rng(9).normal(size=16)
    grid = grid_of(series)
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
    grid = grid_of(series)  # (K, P)
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
    x = rng.normal(size=(3, n, 4))
    weights = rng.normal(size=(3, n_freq_bins(n), n, 4))
    grid, grad = grid_and_input_grad(spectrum_grid, x, weights)
    # (K, P, N, d) -> (N, K, P, d)
    ref_grid = naive_grid(np.moveaxis(x, 1, 0)).transpose(2, 0, 1, 3)
    # the grid is linear in x, and column q of its map is the grid of the
    # unit impulse at patch q
    ref_grad = np.einsum("nkpd,kpq->nqd", weights, naive_grid(np.eye(n)))
    assert grid.shape == ref_grid.shape
    np.testing.assert_allclose(grid, ref_grid, rtol=0, atol=1e-12 * np.abs(ref_grid).max())
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12 * np.abs(ref_grad).max())


def test_spectrum_grid_gradient_at_zero_amplitude():
    # at x = 0 every bin has zero amplitude, where amplitude and phase have
    # no derivative; the linear map has its true one
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
    for layer in kans.layers:
        for t in (layer.w, layer.a0, layer.a1, layer.a2):
            t.data[:] = 0.0
    tf = Tensor(np.random.default_rng(3).normal(size=(2, 2, 3, 4)))
    np.testing.assert_array_equal(kans(tf).data, 0.0)


def test_single_patch_single_bin_matches_edge():
    kans = PatchKans(1, 1, np.random.default_rng(4))
    layer = kans.layers[0]
    tf = Tensor(np.random.default_rng(5).normal(size=(3, 1, 1, 2)))
    out = kans(tf)
    edge = layer.edge(0, 0)
    np.testing.assert_allclose(out.data[:, 0, :], edge(tf.data[:, 0, 0, :]), rtol=1e-12)


def test_calibration_records_per_patch_ranges(monkeypatch):
    """``calibrate_ranges`` gives each patch's KAN the range, per frequency
    bin, of the grid rows the model's forward feeds it, over every batch."""
    cfg = ModelConfig(lookback=8, horizon=2, embed_dim=3, kernel=3, top_k=1,
                      patch_len=4, stride=2, trend_degree=1)
    model = ForecastModel(cfg, [0.5], seed=16)
    windows = np.random.default_rng(17).normal(size=(3, 2, 8))
    grids = []
    real = PatchKans.__call__

    def recording(kans, grid):
        grids.append(grid.data.copy())
        return real(kans, grid)

    monkeypatch.setattr(PatchKans, "__call__", recording)
    with no_grad():
        for start in (0, 2):  # batches of 2 windows and of 1
            model.forward(Tensor(windows[start : start + 2].reshape(-1, 8)))
    monkeypatch.undo()
    both = np.concatenate(grids)
    keys = [(f"tf.p{p}", 0) for p in range(model.n_patches)]
    ranges = calibrate_ranges(model, windows, batch_size=2, layers=keys)
    assert sorted(ranges) == keys
    for p, key in enumerate(keys):
        lo, hi = ranges[key]
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
        return (up(kans(spectrum_grid(comp(x)))) ** 2).sum() * 0.1

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
    loss = (kans(spectrum_grid(comp(x))) ** 2).sum()
    backward(loss)
    assert x.grad is not None and np.all(np.isfinite(x.grad))
