"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The full-scale ETTh1 reproduction (criterion 9) needs the dataset
CSV on disk (data/ETTh1.csv or $ITFKAN_ETTH1) and a multi-hour budget; it
is skipped when the file is absent.
"""

import os
import time

import numpy as np
import pytest

from gradcheck_util import param_fd_errors
from itfkan.cli import main
from itfkan.interpret import FAMILIES, FAMILY_ORDER, prune, symbolify_edge
from itfkan.metrics import mase, naive2_rows, owa, smape
from itfkan.model import ForecastModel, ModelConfig, prediction_loss, total_loss
from itfkan.optim import Adam
from itfkan.taylorkan import build_seasonal_kan, build_trend_kan
from itfkan.tensor import Tensor, backward
from itfkan.tfsynergy import PatchKans, spectrum_grid
from itfkan.decomposition import Embedding, moving_average_decompose
from itfkan.data import synthetic_series, write_csv


def _stamp(num, name):
    print(f"\ncriterion {num} ({name}): PASS")


def tiny_config():
    return ModelConfig(
        lookback=8, horizon=4, embed_dim=2, kernel=3, trend_degree=2,
        top_k=2, patch_len=4, stride=2, reg_lambda=0.01, lr=1e-3,
        batch_size=2, epochs=1, patience=1,
    )


def test_c1_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    for seed in range(5):
        model = ForecastModel(tiny_config(), [0.25, 0.5], seed=seed)
        rng = np.random.default_rng(100 + seed)
        x = Tensor(rng.normal(size=(2, 8)))
        y = Tensor(rng.normal(size=(2, 4)))

        def loss_fn():
            return total_loss(model.forward(x), y, model, 0.01, "long")[0]

        errors = param_fd_errors(loss_fn, model.parameters(), eps=1e-5)
        worst = max(worst, max(errors.values()))
    elapsed = time.monotonic() - start
    assert worst < 1e-4, f"max relative error {worst}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _stamp(1, f"gradient correctness, max rel err {worst:.2e} in {elapsed:.1f}s")


def test_c2_structural_parity():
    rng = np.random.default_rng(0)
    trend = build_trend_kan(96, 3, rng)
    counts = trend.layer_counts()
    assert counts[0] == {"total": 9216, "adjustable": 8928, "injected": 288}
    assert counts[1] == {"total": 9216, "adjustable": 9216, "injected": 0}

    freqs = [2.0 * b / 96 for b in (4, 8, 12, 24, 48)]
    seasonal = build_seasonal_kan(96, freqs, rng)
    counts = seasonal.layer_counts()
    assert counts[0] == {"total": 9216, "adjustable": 8736, "injected": 480}
    assert counts[1] == {"total": 9216, "adjustable": 9216, "injected": 0}

    # ETTh1 patching: L=96, P=6, S=6 -> 17 patches of 9 frequency bins
    kans = PatchKans(17, 9, rng)
    assert kans.edge_total() == 1377 == 17 * 9 * 9
    _stamp(2, "structural parity: 9216/8928, 9216, 9216/8736, 9216, 1377")


def test_c3_decomposition_identity():
    start = time.monotonic()
    rng = np.random.default_rng(3)
    emb = Embedding(3, rng)
    worst = 0.0
    for _ in range(1000):
        x = Tensor(rng.normal(size=(2, 12)))
        embedded = emb(x)
        trend, seasonal, _ = moving_average_decompose(embedded, 5)
        gap = np.max(np.abs(trend.data + seasonal.data - embedded.data))
        worst = max(worst, gap)
    elapsed = time.monotonic() - start
    assert worst <= 1e-12, worst
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _stamp(3, f"decomposition identity, worst gap {worst:.2e}")


def _naive_dft(series):
    n = len(series)
    out = np.zeros(n // 2 + 1, dtype=complex)
    for k in range(len(out)):
        for p in range(1, n + 1):
            out[k] += series[p - 1] * np.exp(-2j * np.pi * k * p / n)
    return out


def _grid(series):
    n = len(series)
    return spectrum_grid(Tensor(series.reshape(1, n, 1))).data[0, :, :, 0]


def test_c4_spectral_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    for n in (2, 4, 8, 17):
        series = rng.normal(size=n)
        ref = _naive_dft(series)
        # bin k expanded over patches p = 1..n: Re(X_k e^{2 pi i k p / n})
        turns = np.exp(2j * np.pi * np.outer(np.arange(len(ref)), np.arange(1, n + 1)) / n)
        ref_grid = (ref[:, None] * turns).real
        assert np.max(np.abs(_grid(series) - ref_grid)) < 1e-9

        tone_bin = max(1, n // 4)
        t = np.arange(1, n + 1)
        tone = np.sin(2 * np.pi * tone_bin * t / n + 0.3)
        grid = _grid(tone)
        weights = np.full(grid.shape[0], 2.0)
        weights[0] = 1.0
        if n % 2 == 0:
            weights[-1] = 1.0
        recon = (weights[:, None] * grid).sum(axis=0) / n
        assert np.max(np.abs(recon - tone)) < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _stamp(4, "spectral correctness vs naive DFT and tone reconstruction")


def test_c5_overfit_sanity():
    start = time.monotonic()
    lookback, horizon = 24, 4
    t = np.arange(lookback + horizon + 15, dtype=float)
    series = np.sin(2 * np.pi * t / 24.0) + 0.1 * t / lookback
    xs = np.stack([series[s : s + lookback] for s in range(16)])
    ys = np.stack([series[s + lookback : s + lookback + horizon] for s in range(16)])
    cfg = ModelConfig(
        lookback=lookback, horizon=horizon, embed_dim=2, kernel=25,
        trend_degree=2, top_k=2, patch_len=6, stride=6, reg_lambda=0.0,
        lr=1e-3, batch_size=16, epochs=1, patience=1,
    )
    model = ForecastModel(cfg, [2.0 / 24.0, 0.25], seed=0)
    opt = Adam([p for _, p in model.parameters()], lr=1e-3)
    x_t, y_t = Tensor(xs), Tensor(ys)
    reached = None
    for step in range(1, 2001):
        loss = prediction_loss(model.forward(x_t), y_t, "long")
        if loss.item() < 1e-2:
            reached = step
            break
        backward(loss)
        opt.step()
    elapsed = time.monotonic() - start
    assert reached is not None, "did not reach 1e-2 within 2000 steps"
    assert elapsed < 300.0
    _stamp(5, f"overfit sanity, loss < 1e-2 after {reached} steps")


def test_c6_symbolification_recovery():
    start = time.monotonic()
    rng = np.random.default_rng(6)
    for family in FAMILY_ORDER:
        for _ in range(20):
            a = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            b = rng.uniform(-1.0, 1.0)
            c = rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0])
            d = rng.uniform(-5.0, 5.0)
            if family == "constant":
                fn = lambda x, d=d: np.full_like(np.asarray(x, float), d)
            else:
                f = FAMILIES[family]
                fn = lambda x, f=f, a=a, b=b, c=c, d=d: (
                    c * f(a * np.asarray(x, float) + b) + d
                )
            fit = symbolify_edge(fn, -3.0, 3.0)
            # sin and cos span the same family under a free phase shift, so
            # either name is a correct identification for a trig target
            ok = fit.family == family or {fit.family, family} == {"sin", "cos"}
            assert ok, (family, fit.family, fit.r2)
            assert fit.r2 > 0.99, (family, fit.r2)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _stamp(6, f"symbolification recovery, 9 families x 20 trials in {elapsed:.0f}s")


def test_c7_pruning_properties():
    thresholds = [0.0, 1e-6, 1e-4, 1e-2, np.inf]
    preserved_counts = []
    for tau in thresholds:
        model = ForecastModel(tiny_config(), [0.25, 0.5], seed=7)
        rows = prune(model, tau)
        for r in rows:
            assert r.pruned + r.preserved == r.total
        preserved_counts.append(sum(r.preserved for r in rows))
    assert all(a >= b for a, b in zip(preserved_counts, preserved_counts[1:]))
    totals = sum(
        r.total for r in prune(ForecastModel(tiny_config(), [0.25, 0.5], seed=7), 0.0)
    )
    assert preserved_counts[0] == totals  # tau=0 preserves everything
    assert preserved_counts[-1] == 0      # tau=inf prunes every adjustable edge

    # masked forward == explicit-zero forward, bitwise
    import copy

    model = ForecastModel(tiny_config(), [0.25, 0.5], seed=8)
    explicit = copy.deepcopy(model)
    tau = 1e-3
    for layer in (
        explicit.trend_kan.layers
        + explicit.seasonal_kan.layers
        + explicit.tf_kans.layers
    ):
        drop = layer.taylor_norms() < tau
        for t in (layer.w, layer.a0, layer.a1, layer.a2):
            t.data[drop] = 0.0
    prune(model, tau)
    x = np.random.default_rng(9).normal(size=(3, 8))
    np.testing.assert_array_equal(
        model.forward(Tensor(x)).data, explicit.forward(Tensor(x)).data
    )
    _stamp(7, "pruning monotonicity, bounds, and bitwise masking")


def test_c8_metric_oracles():
    assert f"{smape(np.array([[2.0]]), np.array([[1.0]])):.6f}" == "66.666667"
    assert (
        f"{mase(np.array([[2.0]]), np.array([[1.0]]), np.array([[0.0, 1.0, 0.0, 1.0]]), 1):.6f}"
        == "1.000000"
    )
    rng = np.random.default_rng(8)
    hist = np.abs(rng.normal(size=(5, 48))) + 3.0
    target = np.abs(rng.normal(size=(5, 6))) + 3.0
    ref = naive2_rows(hist, 6, m=4)
    assert owa(ref, target, hist, 4, ref) == 1.0
    _stamp(8, "metric oracles: sMAPE, MASE, OWA(naive2, naive2) == 1")


ETTH1_PATH = os.environ.get(
    "ITFKAN_ETTH1",
    os.path.join(os.path.dirname(__file__), "..", "data", "ETTh1.csv"),
)


@pytest.mark.skipif(
    not os.path.exists(ETTH1_PATH),
    reason=f"ETTh1 dataset not found at {ETTH1_PATH} (set ITFKAN_ETTH1); "
    "desk-scale reproduction needs the real benchmark CSV",
)
def test_c9_etth1_desk_scale(tmp_path):
    start = time.monotonic()
    cfg_path = tmp_path / "etth1.cfg"
    out_dir = tmp_path / "etth1-out"
    cfg_path.write_text(
        f"dataset = {ETTH1_PATH}\n"
        "task = long\nsplit = ett\nfrequency = hourly\n"
        "lookback = 96\nhorizon = 96\nembed_dim = 32\nkernel = 25\n"
        "trend_degree = 3\ntop_k = 5\npatch_len = 6\nstride = 6\n"
        "reg_lambda = 0.01\nlr = 0.0005\nbatch_size = 64\nepochs = 10\n"
        "patience = 3\nseed = 0\n"
        f"out = {out_dir}\n"
    )
    assert main(["train", "--config", str(cfg_path)]) == 0
    metrics = dict(
        line.split("=")
        for line in (out_dir / "metrics.txt").read_text().strip().splitlines()
    )
    elapsed = time.monotonic() - start
    assert float(metrics["mse"]) <= 0.47, metrics
    assert elapsed < 4 * 3600.0
    _stamp(9, f"ETTh1 desk-scale reproduction, test MSE {metrics['mse']}")


def test_c10_determinism(tmp_path):
    data_path = tmp_path / "panel.csv"
    write_csv(str(data_path), synthetic_series(400, 2, seed=10), ["a", "b"])
    payloads = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        cfg_path = tmp_path / f"{run}.cfg"
        cfg_path.write_text(
            f"dataset = {data_path}\nlookback = 16\nhorizon = 8\n"
            "embed_dim = 2\nkernel = 5\ntrend_degree = 2\ntop_k = 2\n"
            "patch_len = 4\nstride = 4\nlr = 0.005\nbatch_size = 8\n"
            "epochs = 2\npatience = 2\nseed = 5\nsplit = ratio\n"
            f"out = {out_dir}\n"
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        payloads.append(
            {
                name: (out_dir / name).read_bytes()
                for name in ("history.tsv", "checkpoint.itfk")
            }
        )
    assert payloads[0]["history.tsv"] == payloads[1]["history.tsv"]
    assert payloads[0]["checkpoint.itfk"] == payloads[1]["checkpoint.itfk"]
    _stamp(10, "byte-identical history and checkpoint across reruns")
