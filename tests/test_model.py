import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from itfkan.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from itfkan.model import (
    EpochStats,
    ForecastModel,
    ModelConfig,
    NonFiniteError,
    evaluate_forecasts,
    prediction_loss,
    total_loss,
    train,
)
from itfkan import data, taylorkan, tensor, tfsynergy
from itfkan.decomposition import moving_average_decompose
from itfkan.interpret import calibrate_ranges
from itfkan.tensor import Tensor, backward, matmul, no_grad, permute, reshape


def tiny_config(**overrides):
    base = dict(
        lookback=8, horizon=4, embed_dim=2, kernel=3, trend_degree=2,
        top_k=2, patch_len=4, stride=2, reg_lambda=0.01, lr=1e-3,
        batch_size=4, epochs=2, patience=1,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_model(seed=0, **overrides):
    return ForecastModel(tiny_config(**overrides), [0.25, 0.5], seed=seed)


def zero_all(model):
    for _, t in model.parameters():
        t.data[:] = 0.0
    return model


def numpy_forward(model, x):
    """Step-by-step recomposition from scalar edge views and explicit loops."""
    cfg = model.config
    n = x.shape[0]
    d = cfg.embed_dim
    e = x[:, :, None] * model.embed.w.data[0][None, None, :] + model.embed.b.data

    half = (cfg.kernel - 1) // 2
    padded = np.concatenate(
        [np.repeat(e[:, :1], half, 1), e, np.repeat(e[:, -1:], half, 1)], axis=1
    )
    trend = np.stack(
        [padded[:, t : t + cfg.kernel].mean(axis=1) for t in range(cfg.lookback)],
        axis=1,
    )
    seasonal = e - trend

    def kan_along_time(net, arr):
        vals = np.moveaxis(arr, 1, 2)  # (N, d, L)
        for layer in net.layers:
            out = np.zeros(vals.shape[:-1] + (layer.out_dim,))
            for j in range(layer.out_dim):
                for i in range(layer.in_dim):
                    out[..., j] += layer.edge(i, j)(vals[..., i])
            vals = out
        return np.moveaxis(vals, 2, 1)

    h_trend = kan_along_time(model.trend_kan, trend)
    h_seasonal = kan_along_time(model.seasonal_kan, seasonal)

    p_len, stride, n_patches = cfg.patch_len, cfg.stride, model.n_patches
    padded_s = np.concatenate([seasonal, np.repeat(seasonal[:, -1:], stride, 1)], 1)
    patches = np.stack(
        [
            padded_s[:, w * stride : w * stride + p_len].reshape(n, -1)
            @ model.patcher.w.data
            + model.patcher.b.data
            for w in range(n_patches)
        ],
        axis=1,
    )

    k_bins = model.k_bins
    spec = np.zeros((n, k_bins, d), dtype=complex)
    for k in range(k_bins):
        for p in range(1, n_patches + 1):
            spec[:, k] += patches[:, p - 1] * np.exp(-2j * np.pi * k * p / n_patches)
    amp, phase = np.abs(spec), np.angle(spec)
    grid = np.zeros((n, k_bins, n_patches, d))
    for p in range(1, n_patches + 1):
        ang = phase + 2.0 * np.pi * np.arange(k_bins)[None, :, None] * p / n_patches
        grid[:, :, p - 1] = amp * np.cos(ang)

    h_tf_patch = np.zeros((n, n_patches, d))
    for p, layer in enumerate(model.tf_kans.layers):
        vals = np.moveaxis(grid[:, :, p, :], 1, 2)  # (N, d, K)
        out = np.zeros(vals.shape[:-1] + (k_bins,))
        for j in range(k_bins):
            for i in range(k_bins):
                out[..., j] += layer.edge(i, j)(vals[..., i])
        h_tf_patch[:, p] = out.mean(axis=-1)
    h_tf = (
        np.einsum("npd,pl->nld", h_tf_patch, model.unpatcher.w.data)
        + model.unpatcher.b.data[None, :, None]
    )

    h = h_trend + h_seasonal + h_tf
    collapsed = (h @ model.head_w1.data)[:, :, 0] + model.head_b1.data[0]
    return collapsed @ model.head_w2.data + model.head_b2.data


# --- forward ---------------------------------------------------------------------

def test_forward_matches_compositional_oracle():
    model = tiny_model(seed=3)
    x = np.random.default_rng(4).normal(size=(3, 8))
    got = model.forward(Tensor(x)).data
    expected = numpy_forward(model, x)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-11)


def test_forecast_sums_the_branches_in_order_bitwise():
    """The taped and no-grad forecasts are head((h_trend + h_seasonal) +
    h_tf) bit for bit, with each branch computed on its own. Another
    grouping of the three sums rounds differently here, so this pins the
    order that keeps the forecast's bits."""
    cfg = ModelConfig(
        lookback=24, horizon=8, embed_dim=3, kernel=5, trend_degree=3,
        top_k=3, patch_len=4, stride=4,
    )
    model = ForecastModel(cfg, [1 / 12, 0.25, 0.5], seed=8)
    x = Tensor(np.random.default_rng(9).normal(size=(5, 24)))

    def head(h):
        """(N, d, L) -> (N, F), as the forward's head."""
        collapsed = reshape(matmul(permute(h, (0, 2, 1)), model.head_w1) + model.head_b1, (5, 24))
        return (matmul(collapsed, model.head_w2) + model.head_b2).data

    with no_grad():
        trend, seasonal = moving_average_decompose(x, cfg.kernel)
        trend, seasonal = model.embed(trend), model.embed(seasonal, bias=False)
        h_trend = model.trend_kan.forward(trend)
        h_seasonal = model.seasonal_kan.forward(seasonal)
        h_tf = model.unpatcher(model.tf_kans(model.patcher(seasonal)))
        expected = head((h_trend + h_seasonal) + h_tf)
        assert not np.array_equal(head(h_trend + (h_seasonal + h_tf)), expected)
        assert not np.array_equal(head((h_trend + h_tf) + h_seasonal), expected)
        plain = model.forward(x)
    taped = model.forward(x)
    assert taped.requires_grad
    np.testing.assert_array_equal(taped.data, expected)
    np.testing.assert_array_equal(plain.data, expected)


# the time-axis ops by the module that binds each name the model calls
TIME_AXIS_OPS = {
    taylorkan: ("poly_inject", "fourier_inject", "taylor_kan"),
    tfsynergy: ("patch_compress",),
}


def test_time_axis_ops_receive_row_major_channel_first_series(monkeypatch):
    """The taped forward, the no-grad forward and calibrate_ranges hand
    each time-axis op a row-major (N, d, L) series: the decomposition's
    layout, kept up to the unpatch map, with no permuted view between."""
    model = tiny_model(seed=40)
    cfg = model.config
    windows = np.random.default_rng(41).normal(size=(2, 3, cfg.lookback))
    x = Tensor(windows.reshape(6, cfg.lookback))
    seen = []
    for module, names in TIME_AXIS_OPS.items():
        for name in names:
            def recording(series, *args, _name=name, _real=getattr(module, name), **kwargs):
                seen.append((_name, series.shape, series.data.flags.c_contiguous))
                return _real(series, *args, **kwargs)

            monkeypatch.setattr(module, name, recording)

    def nograd_forward():
        with no_grad():
            model.forward(x)

    for run in (lambda: model.forward(x), nograd_forward,
                lambda: calibrate_ranges(model, windows, batch_size=2)):
        seen.clear()
        run()
        assert {name for name, _, _ in seen} == {n for ns in TIME_AXIS_OPS.values() for n in ns}
        assert all(call[1:] == ((6, cfg.embed_dim, cfg.lookback), True) for call in seen), seen


def test_seasonal_and_tf_branches_are_batch_invariant():
    """At the reference shape, the seasonal KAN's and the time-frequency
    branch's outputs for the first n rows of a 448-row batch are that
    batch's rows bit for bit. The trend branch is not: its prior's narrow
    whole-batch GEMMs round by row count."""
    n, length, d = 448, 96, 32
    cfg = ModelConfig(lookback=length, horizon=96, embed_dim=d)
    model = ForecastModel(cfg, [2.0 * b / length for b in (4, 8, 12, 16, 24)], seed=42)
    x = np.random.default_rng(43).normal(size=(n, length))

    def branches(rows):
        with no_grad():
            _, seasonal = moving_average_decompose(Tensor(x[:rows]), cfg.kernel)
            seasonal = model.embed(seasonal, bias=False)
            tf = model.unpatcher(model.tf_kans(model.patcher(seasonal)))
            return model.seasonal_kan.forward(seasonal).data, tf.data

    full = branches(n)
    for rows in (1, 7, 64):
        for part, whole in zip(branches(rows), full):
            assert part.tobytes() == whole[:rows].tobytes(), rows


def traced_peak_beyond_start(fn):
    """(fn(), the traced heap's peak during the call beyond what was
    allocated when it began). Run fn once before, so that the per-process
    caches it fills are not read as held."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_forecasts_of_window_views_are_those_of_copies():
    """A batch of make_windows' views reaches the forward as strided rows;
    the split and the embedding write their outputs row-major all the
    same, so the layers after them and their bits do not depend on how the
    input is laid out."""
    values = np.random.default_rng(13).normal(size=(60, 3))
    inputs, targets = data.make_windows(values, 8, 4)
    copies = np.ascontiguousarray(inputs)
    model = tiny_model(seed=14)
    rows = Tensor(inputs[:4].reshape(12, 8))
    assert not rows.data.flags.c_contiguous
    assert model.embed(rows).data.flags.c_contiguous
    np.testing.assert_array_equal(
        evaluate_forecasts(model, inputs, targets, 5),
        evaluate_forecasts(model, copies, targets, 5),
    )


def test_nograd_forward_holds_at_most_two_series_arrays():
    """An untaped forward holds at most two (N, d, L) arrays at once
    beyond its output. The windows are split first, and the trend is
    lifted; its branch holds one more array: the prior's power (x^3 is
    built over x^2); its KAN then writes over the trend. The seasonal part
    is lifted next, beside the trend branch's output; the time-frequency branch
    holds only (N, P, d) arrays; the seasonal KAN writes over the seasonal
    part, and its output is added into the trend branch's. The unpatch map
    adds into its own GEMM output, so it needs two. The forward held three
    (3.5 traced) while it split the whole embedding into both components
    at once and each KAN wrote a new output, and four while x^2 and x^3
    coexisted and while the seasonal component outlived the seasonal KAN
    for the time-frequency branch.

    The slack counts what else can be live at such a point: one slab loop's
    scratch (at most MAX_WORKERS workers of seven slabs, a taylor_kan
    forward's or fourier_inject's three complex buffers and an output slab,
    each slab at most SLAB + d*L values), one (N, P, d) patch array, one
    (N, d, r) prior output, and
    1 MB for the layers' (L, L) products and Python objects. It is under
    one (N, d, L) array, so a third one fails the bound."""
    n, length, d = 448, 96, 32  # the reference step's batch, over many slabs
    cfg = ModelConfig(lookback=length, horizon=96, embed_dim=d)
    model = ForecastModel(cfg, [2.0 * b / length for b in (4, 8, 12, 16, 24)], seed=38)
    x = Tensor(np.random.default_rng(39).normal(size=(n, length)))
    series = n * length * d * 8
    assert len(tensor._slabs((n, d, length))[0]) > 1
    scratch = tensor.MAX_WORKERS * 7 * (tensor.SLAB + d * length) * 8
    patches = n * model.n_patches * d * 8
    prior = n * d * max(cfg.top_k, cfg.trend_degree) * 8
    slack = scratch + patches + prior + 2**20
    assert slack < series
    with no_grad():
        model.forward(x)  # fills the per-process caches before tracing
        out, held = traced_peak_beyond_start(lambda: model.forward(x))
    held -= out.data.nbytes
    assert held <= 2 * series + slack, (held / series, slack)


def test_nograd_forward_leaves_input_and_parameters_unchanged():
    """The untaped forward writes over arrays it built itself, never over
    its input or a parameter: here a read-only batch of make_windows'
    views, and a row-major copy of it, over several slabs."""
    values = np.random.default_rng(15).normal(size=(80, 3))
    values_before = values.copy()
    inputs, _ = data.make_windows(values, 8, 4)
    model = tiny_model(seed=16)
    before = [(name, t.data.copy()) for name, t in model.parameters()]
    views = Tensor(inputs[:20].reshape(60, 8))
    assert not views.data.flags.writeable and not views.data.flags.c_contiguous
    copy = Tensor(np.ascontiguousarray(views.data))
    snapshot = copy.data.copy()
    assert len(tensor._slabs((60, model.config.embed_dim, 8))[0]) == 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "SLAB", 4 * model.config.embed_dim * 8)  # fifteen slabs
        with no_grad():
            plain = model.forward(views)
            np.testing.assert_array_equal(model.forward(copy).data, plain.data)
    np.testing.assert_array_equal(copy.data, snapshot)
    np.testing.assert_array_equal(values, values_before)
    for (name, t), (_, data_before) in zip(model.parameters(), before):
        assert t.data.tobytes() == data_before.tobytes(), name
    np.testing.assert_array_equal(plain.data, model.forward(views).data)


def test_training_step_holds_at_most_five_series_arrays():
    """A taped training step (forward, loss and backward) holds at most
    five (N, d, L) arrays at once beyond what it started with. It peaks in
    the trend prior's backward rule, where five are live: the lifted trend
    and seasonal parts, which rules still read; the branch sum's
    gradient, which the seasonal KAN's rule has yet to read; and two
    gradients of the trend KAN's input, its taylor_kan's and the prior's
    own. A step peaked at 7.7 arrays (84.7 MB) while the time-axis KANs ran
    each layer as its own node, keeping the hidden layer's output whole,
    and the forward's tail held three arrays.

    The slack counts what else can be live at such a point: one slab
    loop's scratch (at most MAX_WORKERS workers of the fourteen slabs of a
    two-layer taylor_kan backward, each at most SLAB + d*L values) and its
    partial-sum slots (_PARTIAL_SLOTS per worker, each two layers' sums),
    two (N, P, d) patch arrays, two (N, d, r) prior arrays, three (N, F)
    loss arrays, the parameters' gradients, and 1 MB for the layers' (L, L)
    products and Python objects."""
    n, length, d = 448, 96, 32  # the reference step's batch, over many slabs
    cfg = ModelConfig(lookback=length, horizon=96, embed_dim=d)
    model = ForecastModel(cfg, [2.0 * b / length for b in (4, 8, 12, 16, 24)], seed=38)
    rng = np.random.default_rng(39)
    x, y = Tensor(rng.normal(size=(n, length))), Tensor(rng.normal(size=(n, cfg.horizon)))
    series = n * length * d * 8
    workers = tensor.MAX_WORKERS
    scratch = workers * 14 * (tensor.SLAB + d * length) * 8
    slots = tensor._PARTIAL_SLOTS * workers * 2 * (3 * length * length + length) * 8
    patches = 2 * n * model.n_patches * d * 8
    priors = 2 * n * d * max(cfg.top_k, cfg.trend_degree) * 8
    loss_arrays = 3 * n * cfg.horizon * 8
    grads = sum(t.data.nbytes for _, t in model.parameters())
    slack = scratch + slots + patches + priors + loss_arrays + grads + 2**20

    def step():
        loss, _ = total_loss(model.forward(x), y, model, cfg.reg_lambda, "long")
        backward(loss)
        for _, t in model.parameters():
            t.grad = None

    step()  # fills the per-process caches before tracing
    _, held = traced_peak_beyond_start(step)
    assert held <= 5 * series + slack, (held / series, slack / series)


def test_backward_runs_the_time_axis_kans_before_the_patch_chain():
    """Backward runs both taylor_kan rules (the time-axis KANs) before the
    time-frequency branch's patch_kans and patch_compress rules. The order
    comes from the tape's parents alone, not from the order the forward
    runs its branches in: it holds although the forward runs the patch
    chain between the two KANs. The other order (the unpatch node's
    residual parent last) peaked 7 MB higher on the reference step."""
    model = tiny_model(seed=5)
    rng = np.random.default_rng(6)
    x, y = Tensor(rng.normal(size=(3, 8))), Tensor(rng.normal(size=(3, 4)))
    loss, _ = total_loss(model.forward(x), y, model, 0.01, "long")
    ops = [node.op for node in reversed(tensor.Graph.from_output(loss).nodes)]
    kans = [i for i, op in enumerate(ops) if op == "taylor_kan"]
    patch_chain = [ops.index("patch_kans"), ops.index("patch_compress")]
    assert len(kans) == 2, ops
    assert max(kans) < min(patch_chain), ops


def test_forward_zero_parameters_zero_output():
    model = zero_all(tiny_model())
    x = np.random.default_rng(0).normal(size=(2, 8))
    np.testing.assert_array_equal(model.forward(Tensor(x)).data, 0.0)


def test_identical_variates_identical_forecasts():
    model = tiny_model(seed=1)
    row = np.random.default_rng(2).normal(size=8)
    out = model.forward(Tensor(np.stack([row, row]))).data
    np.testing.assert_array_equal(out[0], out[1])


def test_variate_permutation_equivariance():
    model = tiny_model(seed=5)
    x = np.random.default_rng(6).normal(size=(4, 8))
    perm = np.array([2, 0, 3, 1])
    base = model.forward(Tensor(x)).data
    permuted = model.forward(Tensor(x[perm])).data
    np.testing.assert_array_equal(permuted, base[perm])


def test_forward_rejects_wrong_lookback():
    with pytest.raises(ValueError):
        tiny_model().forward(Tensor(np.zeros((2, 9))))


def test_forward_deterministic_across_builds():
    x = np.random.default_rng(7).normal(size=(2, 8))
    a = tiny_model(seed=9).forward(Tensor(x)).data
    b = tiny_model(seed=9).forward(Tensor(x)).data
    np.testing.assert_array_equal(a, b)


# --- losses ------------------------------------------------------------------------

def test_loss_zero_for_perfect_prediction():
    model = tiny_model()
    for _, t in model.parameters():
        if t.data.ndim == 2 and "a" not in str(t.data.shape):
            pass
    # zero the shaping coefficients so reg vanishes
    zero_all(model)
    y = Tensor(np.ones((2, 4)))
    total, bd = total_loss(y, Tensor(np.ones((2, 4))), model, 0.01, "long")
    assert total.item() == 0.0 and bd.total == 0.0


def test_loss_lambda_zero_is_pred_only():
    model = tiny_model(seed=2)
    pred = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
    target = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
    total, bd = total_loss(pred, target, model, 0.0, "long")
    assert bd.total == bd.pred
    assert total.item() == bd.pred


def test_mse_hand_example():
    pred = Tensor(np.array([[1.0, 1.0]]))
    target = Tensor(np.array([[0.0, 2.0]]))
    assert prediction_loss(pred, target, "long").item() == 1.0


def test_smape_hand_example():
    pred = Tensor(np.array([[2.0]]))
    target = Tensor(np.array([[1.0]]))
    got = prediction_loss(pred, target, "short").item()
    np.testing.assert_allclose(got, 200.0 / 3.0, rtol=1e-12)


def test_smape_zero_over_zero_is_zero():
    pred = Tensor(np.zeros((1, 3)))
    target = Tensor(np.zeros((1, 3)))
    assert prediction_loss(pred, target, "short").item() == 0.0


def test_unknown_task_rejected():
    with pytest.raises(ValueError):
        prediction_loss(Tensor(np.zeros((1, 1))), Tensor(np.zeros((1, 1))), "medium")


def test_total_is_pred_plus_lambda_reg():
    model = tiny_model(seed=11)
    rng = np.random.default_rng(12)
    lam = 0.01
    pred = Tensor(rng.normal(size=(2, 4)))
    target = Tensor(rng.normal(size=(2, 4)))
    for _ in range(1000):
        for _, t in model.parameters():
            t.data += rng.normal(scale=0.05, size=t.data.shape)
        _, bd = total_loss(pred, target, model, lam, "long")
        recomposed = bd.pred + lam * (bd.reg_trend + bd.reg_seasonal + bd.reg_tf)
        assert abs(bd.total - recomposed) <= 1e-12


# --- gradients ------------------------------------------------------------------------

def test_end_to_end_parameter_gradients():
    from gradcheck_util import param_fd_errors

    model = tiny_model(seed=13)
    x = Tensor(np.random.default_rng(14).normal(size=(2, 8)))
    y = Tensor(np.random.default_rng(15).normal(size=(2, 4)))

    def loss_fn():
        return total_loss(model.forward(x), y, model, 0.01, "long")[0]

    # spot-check one parameter from each group; the acceptance suite
    # sweeps every coordinate of every group
    picks = {}
    for name, t in model.parameters():
        group = name.split(".")[0]
        picks.setdefault(group, (name, t))
    errors = param_fd_errors(loss_fn, picks.values())
    for name, err in errors.items():
        assert err < 1e-4, f"{name}: {err}"


# --- training ----------------------------------------------------------------------------

def make_windows(series, lookback, horizon):
    t = np.arange(len(series))
    windows = []
    targets = []
    for s in range(0, len(series) - lookback - horizon + 1):
        windows.append(series[s : s + lookback])
        targets.append(series[s + lookback : s + lookback + horizon])
    x = np.asarray(windows)[:, None, :]
    y = np.asarray(targets)[:, None, :]
    return x, y


def test_overfit_single_window():
    t = np.arange(12, dtype=float)
    series = np.sin(2 * np.pi * t / 6.0) + 0.1 * t / 8.0
    x, y = make_windows(series, 8, 4)
    x, y = x[:1], y[:1]
    model = tiny_model(seed=16, epochs=800, reg_lambda=0.0, patience=800, lr=5e-3)
    history, _ = train(model, x, y, x, y, task="long", seed=16)
    assert history[-1].train_pred < 1e-2, history[-1]


def test_huge_lambda_crushes_coefficients():
    rng = np.random.default_rng(17)
    series = rng.normal(size=30)
    x, y = make_windows(series, 8, 4)
    model = tiny_model(seed=18, epochs=200, reg_lambda=1e6, patience=200, lr=5e-3)
    train(model, x, y, x, y, task="long", seed=18)
    shaped = []
    for name, t in model.parameters():
        if any(part in name for part in (".a1", ".a2", ".poly1", ".poly2", ".fa1", ".fa2", ".fb")):
            shaped.append(t.data.ravel())
    rms = float(np.sqrt(np.mean(np.concatenate(shaped) ** 2)))
    assert rms < 1e-2, rms


def test_patience_zero_stops_after_first_non_improvement(monkeypatch):
    rng = np.random.default_rng(19)
    series = rng.normal(size=40)
    x, y = make_windows(series, 8, 4)
    val_sequence = iter([1.0, 1.0, 0.5, 0.4])
    monkeypatch.setattr(
        "itfkan.model._batched_pred_loss", lambda *a, **k: next(val_sequence)
    )
    model = tiny_model(seed=20, epochs=6, patience=0)
    history, best = train(model, x, y, x, y, task="long", seed=20)
    assert len(history) == 2  # epoch 1 fails to improve and training stops there
    assert best == 0


def test_patience_one_tolerates_single_stall(monkeypatch):
    rng = np.random.default_rng(19)
    series = rng.normal(size=40)
    x, y = make_windows(series, 8, 4)
    val_sequence = iter([1.0, 1.0, 1.0, 0.9, 1.5, 1.5])
    monkeypatch.setattr(
        "itfkan.model._batched_pred_loss", lambda *a, **k: next(val_sequence)
    )
    model = tiny_model(seed=20, epochs=6, patience=1)
    history, best = train(model, x, y, x, y, task="long", seed=20)
    assert len(history) == 3  # two consecutive stalls exceed patience=1
    assert best == 0


def test_train_rejects_empty_training_set():
    model = tiny_model()
    empty = np.zeros((0, 1, 8))
    with pytest.raises(ValueError):
        train(model, empty, np.zeros((0, 1, 4)), empty, np.zeros((0, 1, 4)))


def test_train_rejects_empty_validation_set():
    x, y = make_windows(np.random.default_rng(21).normal(size=40), 8, 4)
    model = tiny_model()
    before = [t.data.copy() for _, t in model.parameters()]
    with pytest.raises(ValueError, match="^empty validation set$"):
        train(model, x, y, x[:0], y[:0])
    assert all(np.array_equal(b, t.data) for b, (_, t) in zip(before, model.parameters()))


def test_config_at_every_cross_field_bound_builds_and_forecasts():
    """The bounds ModelConfig checks are the layers' own, so a config at
    each of them still builds a model that forecasts."""
    cfg = tiny_config(kernel=15, patch_len=8, stride=8, top_k=4)
    model = ForecastModel(cfg, [0.25, 0.5, 0.75, 1.0], seed=22)
    pred = model.forward(Tensor(np.random.default_rng(23).normal(size=(3, 8))))
    assert pred.shape == (3, 4) and np.all(np.isfinite(pred.data))


def test_train_names_non_finite_parameter():
    rng = np.random.default_rng(30)
    x, y = make_windows(rng.normal(size=40), 8, 4)
    model = tiny_model(seed=31, epochs=2)
    model.seasonal_kan.layers[0].four_a[1].data[0, 0] = np.nan
    with pytest.raises(NonFiniteError, match=r"epoch 0, batch 0: loss nan.*seasonal\.l0\.fa1"):
        train(model, x, y, x, y, task="long", seed=31)


def test_train_names_non_finite_gradient(monkeypatch):
    rng = np.random.default_rng(32)
    x, y = make_windows(rng.normal(size=40), 8, 4)
    model = tiny_model(seed=33, epochs=2, batch_size=4)
    calls = []

    def poisoned_backward(loss):
        backward(loss)
        calls.append(None)
        if len(calls) == 3:
            model.trend_kan.layers[1].a2.grad[0, 0] = np.inf

    monkeypatch.setattr("itfkan.model.backward", poisoned_backward)
    with pytest.raises(NonFiniteError, match=r"epoch 0, batch 2: .*gradient: trend\.l1\.a2"):
        train(model, x, y, x, y, task="long", seed=33)


def test_training_restores_best_snapshot():
    rng = np.random.default_rng(21)
    series = rng.normal(size=40)
    x, y = make_windows(series, 8, 4)
    model = tiny_model(seed=22, epochs=5, patience=5, lr=5e-3)
    history, best_epoch = train(model, x, y, x, y, task="long", seed=22)
    vals = [h.val_pred for h in history]
    assert best_epoch == int(np.argmin(vals))


def test_training_deterministic():
    rng = np.random.default_rng(23)
    series = rng.normal(size=36)
    x, y = make_windows(series, 8, 4)

    def run():
        model = tiny_model(seed=24, epochs=3, patience=3)
        history, _ = train(model, x, y, x, y, task="long", seed=24)
        return history, {name: t.data.copy() for name, t in model.parameters()}

    h1, p1 = run()
    h2, p2 = run()
    assert h1 == h2  # bitwise float equality via exact tuple comparison
    for name in p1:
        np.testing.assert_array_equal(p1[name], p2[name])


def test_train_holds_one_batch_tape_at_a_time():
    """A 4-batch train peaks no higher than a 1-batch one: each batch's tape
    is freed before the next batch's forward (traced heap, not RSS)."""
    cfg = ModelConfig(lookback=96, horizon=24, embed_dim=8, batch_size=16, epochs=1)
    rng = np.random.default_rng(34)
    x, y = rng.normal(size=(64, 3, 96)), rng.normal(size=(64, 3, 24))
    freqs = [2.0 * b / 96 for b in (4, 8, 12, 16, 24)]

    def traced_peak(windows):
        model = ForecastModel(cfg, freqs, seed=35)
        return traced_peak_beyond_start(
            lambda: train(model, x[:windows], y[:windows], x[:1], y[:1])
        )[1]

    one, four = traced_peak(16), traced_peak(64)
    assert four <= 1.05 * one, (one, four)



def test_threaded_train_step_leaves_no_thread(monkeypatch):
    """The fused ops' helper threads are joined before each op returns, so a
    training step on two workers ends with the threads it started with."""
    if not tensor._blas_setters():
        pytest.skip("no OpenBLAS thread control: every slab loop runs on one worker")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    workers = []
    real_workers = tensor._workers
    monkeypatch.setattr(
        tensor, "_workers", lambda count: workers.append(real_workers(count)) or workers[-1]
    )
    cfg = ModelConfig(lookback=96, horizon=24, embed_dim=8, batch_size=16, epochs=1)
    rng = np.random.default_rng(36)
    x, y = rng.normal(size=(16, 3, 96)), rng.normal(size=(16, 3, 24))
    model = ForecastModel(cfg, [2.0 * b / 96 for b in (4, 8, 12, 16, 24)], seed=37)
    before = threading.active_count()
    train(model, x, y, x[:1], y[:1])
    assert threading.active_count() == before
    assert 2 in workers


# --- checkpoints -----------------------------------------------------------------------

def test_kan_layers_cover_each_kan_parameter_once():
    """``kan_layers`` names every trend, seasonal and per-patch KAN
    parameter once, in parameter order, under the names the checkpoint
    uses."""
    model = tiny_model(seed=4)
    listed = [
        name
        for (tag, li), layer in model.kan_layers()
        for name, _ in layer.parameters(f"{tag}.l{li}")
    ]
    kan_names = [
        name for name, _ in model.parameters()
        if name.split(".")[0] in ("trend", "seasonal", "tf")
    ]
    assert listed == kan_names
    assert len(set(listed)) == len(listed)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = tiny_model(seed=25)
    path = tmp_path / "model.itfk"
    model.save(str(path), extra_config=[("task", "long")])
    loaded, raw = ForecastModel.load(str(path))
    assert raw["task"] == "long"
    for (name_a, t_a), (name_b, t_b) in zip(model.parameters(), loaded.parameters()):
        assert name_a == name_b
        np.testing.assert_array_equal(t_a.data, t_b.data)
    np.testing.assert_array_equal(model.frequencies, loaded.frequencies)
    x = np.random.default_rng(26).normal(size=(2, 8))
    np.testing.assert_array_equal(
        model.forward(Tensor(x)).data, loaded.forward(Tensor(x)).data
    )


def test_checkpoint_tensor_names_in_order(tmp_path):
    """The checkpoint's tensor names, in order, for a small model, and the
    tags ``kan_layers`` lists every trend, seasonal and per-patch KAN layer
    under, once each. A checkpoint written under these names straight
    through the file format is byte for byte the model's own save, and it
    loads."""
    cfg = ModelConfig(
        lookback=24, horizon=8, embed_dim=3, kernel=5, trend_degree=3,
        top_k=3, patch_len=4, stride=4,
    )
    model = ForecastModel(cfg, [1 / 12, 0.25, 0.5], seed=8)
    names = [
        "embed.w", "embed.b",
        "trend.l0.w", "trend.l0.a0", "trend.l0.a1", "trend.l0.a2",
        "trend.l0.poly0", "trend.l0.poly1", "trend.l0.poly2", "trend.l0.poly3",
        "trend.l1.w", "trend.l1.a0", "trend.l1.a1", "trend.l1.a2",
        "seasonal.l0.w", "seasonal.l0.a0", "seasonal.l0.a1", "seasonal.l0.a2",
        "seasonal.l0.fa0", "seasonal.l0.fa1", "seasonal.l0.fa2", "seasonal.l0.fa3",
        "seasonal.l0.fb1", "seasonal.l0.fb2", "seasonal.l0.fb3",
        "seasonal.l1.w", "seasonal.l1.a0", "seasonal.l1.a1", "seasonal.l1.a2",
        "patch.w", "patch.b",
        "tf.p0.l0.w", "tf.p0.l0.a0", "tf.p0.l0.a1", "tf.p0.l0.a2",
        "tf.p1.l0.w", "tf.p1.l0.a0", "tf.p1.l0.a1", "tf.p1.l0.a2",
        "tf.p2.l0.w", "tf.p2.l0.a0", "tf.p2.l0.a1", "tf.p2.l0.a2",
        "tf.p3.l0.w", "tf.p3.l0.a0", "tf.p3.l0.a1", "tf.p3.l0.a2",
        "tf.p4.l0.w", "tf.p4.l0.a0", "tf.p4.l0.a1", "tf.p4.l0.a2",
        "tf.p5.l0.w", "tf.p5.l0.a0", "tf.p5.l0.a1", "tf.p5.l0.a2",
        "tf.p6.l0.w", "tf.p6.l0.a0", "tf.p6.l0.a1", "tf.p6.l0.a2",
        "unpatch.w", "unpatch.b",
        "head.w1", "head.b1", "head.w2", "head.b2",
    ]
    assert [name for name, _ in model.parameters()] == names
    tags = [tag for (tag, _), _ in model.kan_layers()]
    assert tags == ["trend"] * 2 + ["seasonal"] * 2 + [f"tf.p{p}" for p in range(model.n_patches)]
    saved, written = tmp_path / "saved.itfk", tmp_path / "written.itfk"
    model.save(str(saved))
    tensors = [("frequencies", model.frequencies)]
    tensors += [(name, t.data) for name, (_, t) in zip(names, model.parameters())]
    save_checkpoint(str(written), model.config_items(), tensors)
    assert list(load_checkpoint(str(saved))[1]) == ["frequencies"] + names
    assert saved.read_bytes() == written.read_bytes()
    loaded, _ = ForecastModel.load(str(written))
    for (_, a), (_, b) in zip(model.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(a.data, b.data)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.itfk"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        ForecastModel.load(str(path))


def test_checkpoint_truncation_names_tensor_and_offset(tmp_path):
    model = tiny_model(seed=27)
    path = tmp_path / "model.itfk"
    model.save(str(path))
    raw = path.read_bytes()
    cut = tmp_path / "cut.itfk"
    cut.write_bytes(raw[:-3])
    with pytest.raises(CheckpointError, match=r"tensor 'head\.b2' data at byte \d+"):
        ForecastModel.load(str(cut))
    for size in range(0, len(raw), 97):
        cut.write_bytes(raw[:size])
        with pytest.raises(CheckpointError):
            ForecastModel.load(str(cut))


def test_checkpoint_frequencies_without_a_common_base_name_the_tensor(tmp_path):
    path = str(tmp_path / "model.itfk")
    tiny_model(seed=29).save(path)
    config, tensors = load_checkpoint(path)
    tensors["frequencies"] = np.array([0.5, 1 / np.pi])
    save_checkpoint(path, list(config.items()), list(tensors.items()))
    with pytest.raises(CheckpointError, match=r"tensor frequencies: frequency 0\.3183"):
        ForecastModel.load(path)


@pytest.mark.parametrize("value, message", [
    ("five", "key 'kernel': cannot parse 'five'"),
    ("4", "kernel must be odd"),
])
def test_checkpoint_bad_config_value_names_file_and_key(tmp_path, value, message):
    path = str(tmp_path / "model.itfk")
    tiny_model(seed=29).save(path)
    config, tensors = load_checkpoint(path)
    config["kernel"] = value
    save_checkpoint(path, list(config.items()), list(tensors.items()))
    with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: {message}')}$"):
        ForecastModel.load(path)


@pytest.mark.parametrize("key", ["lr", "reg_lambda"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_checkpoint_non_finite_config_value_names_file_and_key(tmp_path, key, value):
    path = str(tmp_path / "model.itfk")
    tiny_model(seed=29).save(path)
    config, tensors = load_checkpoint(path)
    config[key] = value
    save_checkpoint(path, list(config.items()), list(tensors.items()))
    message = f"{path}: {key} must be finite, got {float(value)}"
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        ForecastModel.load(path)


def test_checkpoint_frequency_count_other_than_top_k_names_the_tensor(tmp_path):
    path = str(tmp_path / "model.itfk")
    tiny_model(seed=29).save(path)
    config, tensors = load_checkpoint(path)
    tensors["frequencies"] = np.array([0.25])
    save_checkpoint(path, list(config.items()), list(tensors.items()))
    with pytest.raises(
        CheckpointError, match=re.escape(f"{path}: tensor frequencies: expected 2 frequencies, got 1")
    ):
        ForecastModel.load(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_tensor_names_tensor_and_first_index(tmp_path, value):
    path = str(tmp_path / "model.itfk")
    tiny_model(seed=29).save(path)
    config, tensors = load_checkpoint(path)
    w2 = tensors["head.w2"].copy()
    w2[3, 1] = value
    w2[5, 0] = np.nan
    tensors["head.w2"] = w2
    save_checkpoint(path, list(config.items()), list(tensors.items()))
    message = f"{path}: tensor head.w2: non-finite value {value} at index (3, 1)"
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        ForecastModel.load(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    model = tiny_model(seed=28)
    path = tmp_path / "model.itfk"
    model.save(str(path))
    raw = path.read_bytes()
    for tail in (b"\x01", b"\x00" * 8, b"\x00" * 24, b"\xff" * 40):
        path.write_bytes(raw + tail)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(kernel=4)
    with pytest.raises(ValueError):
        tiny_config(lookback=0)
    with pytest.raises(ValueError):
        tiny_config(reg_lambda=-0.5)
    assert tiny_config(patience=0).patience == 0
