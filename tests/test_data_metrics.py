import re

import numpy as np
import pytest

from itfkan.data import (
    SeriesDataset,
    destandardize,
    ingest_csv,
    make_windows,
    read_stats,
    split_standardize,
    synthetic_series,
    write_csv,
    write_stats,
)
from itfkan.decomposition import moving_average_np
from itfkan.metrics import (
    mase,
    metric_set,
    mse,
    naive2_forecast,
    naive2_rows,
    owa,
    seasonality_test,
    smape,
)
from itfkan.taylorkan import top_k_frequencies


# --- csv ingestion ----------------------------------------------------------------

def test_ingest_shapes(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("date,a,b\n1,1.0,2.0\n2,3.0,4.0\n3,5.0,6.0\n")
    ds = ingest_csv(str(path))
    assert ds.values.shape == (3, 2)
    assert ds.variate_names == ["a", "b"]
    assert ds.name == "small"


def test_ingest_header_only_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("date,a\n")
    with pytest.raises(ValueError, match="no data rows"):
        ingest_csv(str(path))


def test_ingest_non_numeric_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,a,b\n1,1.0,2.0\n2,oops,4.0\n")
    with pytest.raises(ValueError, match=r"row 3.*'a'.*'oops'"):
        ingest_csv(str(path))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "NaN"])
def test_ingest_non_finite_names_row_and_column(tmp_path, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"date,a,b\n1,1.0,2.0\n\n3,4.0,{cell}\n4,5.0,6.0\n")
    with pytest.raises(ValueError, match=r"row 4, column 'b': non-finite"):
        ingest_csv(str(path))


def test_ingest_ragged_row_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("date,a,b\n1,1.0,2.0\n2,3.0\n")
    with pytest.raises(ValueError, match="row 3"):
        ingest_csv(str(path))


def test_csv_roundtrip(tmp_path):
    values = synthetic_series(50, 3, seed=1)
    path = tmp_path / "panel.csv"
    write_csv(str(path), values, ["x", "y", "z"])
    ds = ingest_csv(str(path))
    np.testing.assert_array_equal(ds.values, values)
    assert ds.variate_names == ["x", "y", "z"]


# --- splits and standardization -------------------------------------------------------

def ratio_split(total=200, n=3, seed=0):
    values = synthetic_series(total, n, seed=seed)
    ds = SeriesDataset("panel", values, [f"v{i}" for i in range(n)])
    return ds, split_standardize(ds)


def test_train_split_is_zero_one(tmp_path):
    _, split = ratio_split()
    np.testing.assert_allclose(split.train.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(split.train.std(axis=0), 1.0, atol=1e-9)


def test_splits_disjoint_and_ordered():
    _, split = ratio_split()
    b = split.boundaries
    assert b["train"][1] == b["val"][0] and b["val"][1] == b["test"][0]
    assert b["train"][0] == 0


def test_constant_variate_maps_to_zero():
    values = np.ones((100, 2))
    values[:, 1] = np.arange(100.0)
    ds = SeriesDataset("panel", values, ["c", "ramp"])
    split = split_standardize(ds)
    np.testing.assert_array_equal(split.train[:, 0], 0.0)


def test_destandardize_roundtrip():
    ds, split = ratio_split()
    lo, hi = split.boundaries["test"]
    recovered = destandardize(split.test, split.mean, split.std)
    np.testing.assert_allclose(recovered, ds.values[lo:hi], atol=1e-10)


def test_ett_rule_boundaries():
    month = 30 * 24
    values = synthetic_series(20 * month + 100, 2, seed=2)
    ds = SeriesDataset("ETTh1", values, ["a", "b"])
    split = split_standardize(ds)
    assert split.boundaries["train"] == (0, 12 * month)
    assert split.boundaries["val"] == (12 * month, 16 * month)
    assert split.boundaries["test"] == (16 * month, 20 * month)


def test_ett_rule_requires_enough_rows():
    ds = SeriesDataset("ETTh1", np.zeros((100, 1)), ["a"])
    with pytest.raises(ValueError, match="too short"):
        split_standardize(ds)


def test_split_too_small_for_windows():
    ds = SeriesDataset("panel", np.zeros((20, 1)), ["a"])
    split = split_standardize(ds)
    with pytest.raises(ValueError, match="cannot host"):
        make_windows(split.val, 8, 4)


def test_windows_stride_one_within_split():
    values = np.arange(40, dtype=float).reshape(-1, 2)
    inputs, targets = make_windows(values, 3, 2)
    assert inputs.shape == (16, 2, 3) and targets.shape == (16, 2, 2)
    np.testing.assert_array_equal(inputs[0, 0], [0.0, 2.0, 4.0])
    np.testing.assert_array_equal(targets[0, 0], [6.0, 8.0])
    np.testing.assert_array_equal(inputs[1, 0], [2.0, 4.0, 6.0])


@pytest.mark.parametrize("seed", [3, 20261017])
@pytest.mark.parametrize(
    "rows, variates, horizon", [(2000, 7, 96), (1200, 3, 24)], ids=["ref", "toy"]
)
def test_windows_are_read_only_views_that_keep_the_copies_bits(
    seed, rows, variates, horizon
):
    """make_windows returns views of the split, not copies: they share its
    memory and refuse writes. The values, the trend filter and the top-k
    frequencies extracted from them are bitwise those of contiguous copies
    (at the reference panel's shape and at the toy pipeline's)."""
    names = [f"v{i}" for i in range(variates)]
    ds = SeriesDataset("panel", synthetic_series(rows, variates, seed=seed), names)
    split = split_standardize(ds)
    inputs, targets = make_windows(split.train, 96, horizon)
    for view in (inputs, targets):
        assert np.shares_memory(view, split.train)
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0] = 0.0
    copies = [np.ascontiguousarray(w) for w in (inputs, targets)]
    np.testing.assert_array_equal(inputs, copies[0])
    np.testing.assert_array_equal(targets, copies[1])
    trends = [moving_average_np(w, 25) for w in (inputs, copies[0])]
    np.testing.assert_array_equal(trends[0], trends[1])
    freqs = [top_k_frequencies(w - t, 5) for w, t in zip((inputs, copies[0]), trends)]
    np.testing.assert_array_equal(freqs[0], freqs[1])


def test_stats_sidecar_roundtrip(tmp_path):
    path = tmp_path / "stats.tsv"
    mean = np.array([1.5, -2.25])
    std = np.array([0.5, 3.75])
    write_stats(str(path), ["a", "b"], mean, std)
    names, mean2, std2 = read_stats(str(path))
    assert names == ["a", "b"]
    np.testing.assert_array_equal(mean, mean2)
    np.testing.assert_array_equal(std, std2)


@pytest.mark.parametrize("row", ["b\t0.5", "b\t0.5\t1.0\t2.0", "b\tx\t1.0"])
def test_read_stats_names_malformed_line(tmp_path, row):
    path = tmp_path / "stats.tsv"
    path.write_text(f"a\t0.0\t1.0\n\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: expected name")):
        read_stats(str(path))


@pytest.mark.parametrize("std", ["nan", "inf", "0.0", "-1.5"])
def test_read_stats_rejects_bad_std(tmp_path, std):
    path = tmp_path / "stats.tsv"
    path.write_text(f"a\t0.0\t1.0\nb\t0.5\t{std}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: variate 'b' needs")):
        read_stats(str(path))


def test_season_period_lookup():
    ds = SeriesDataset("x", np.zeros((10, 1)), ["a"], frequency="monthly")
    assert ds.season_period == 12
    ds.frequency = "sometimes"
    with pytest.raises(ValueError):
        ds.season_period


# --- metrics ----------------------------------------------------------------------------

def test_perfect_forecast_all_zero():
    y = np.random.default_rng(0).normal(size=(3, 5))
    hist = np.random.default_rng(1).normal(size=(3, 12))
    result = metric_set(y, y, hist, m=1)
    assert result.mse == result.mae == result.smape == result.mase == 0.0


def test_mse_mae_hand_example():
    from itfkan.metrics import mae

    forecast = np.array([[1.0, 1.0]])
    target = np.array([[0.0, 2.0]])
    assert mse(forecast, target) == 1.0
    assert mae(forecast, target) == 1.0


def test_smape_mase_hand_example():
    forecast = np.array([[2.0]])
    target = np.array([[1.0]])
    history = np.array([[0.0, 1.0, 0.0, 1.0]])
    assert round(smape(forecast, target), 6) == round(200.0 / 3.0, 6)
    assert mase(forecast, target, history, m=1) == 1.0


def test_smape_range_and_zero_convention():
    forecast = np.array([[1.0, 0.0]])
    target = np.array([[-1.0, 0.0]])
    value = smape(forecast, target)
    assert value == 100.0  # one max-disagreement term, one 0/0 term
    rng = np.random.default_rng(5)
    f = rng.normal(size=(10, 4))
    t = rng.normal(size=(10, 4))
    assert 0.0 <= smape(f, t) <= 200.0


def test_mase_constant_history_flagged():
    with pytest.raises(ValueError, match=r"rows \[1\]"):
        mase(
            np.ones((2, 3)),
            np.zeros((2, 3)),
            np.stack([np.arange(6.0), np.ones(6)]),
            m=1,
        )


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(9)
    f = rng.normal(size=(6, 4))
    t = rng.normal(size=(6, 4))
    h = rng.normal(size=(6, 10))
    perm = rng.permutation(6)
    a = metric_set(f, t, h, m=1)
    b = metric_set(f[perm], t[perm], h[perm], m=1)
    assert a.mse == pytest.approx(b.mse, rel=1e-12)
    assert a.smape == pytest.approx(b.smape, rel=1e-12)
    assert a.mase == pytest.approx(b.mase, rel=1e-12)


def test_mse_equals_mae_squared_when_errors_share_magnitude():
    target = np.zeros((2, 3))
    forecast = np.full((2, 3), 0.7)
    from itfkan.metrics import mae

    assert mse(forecast, target) == pytest.approx(mae(forecast, target) ** 2)


def test_owa_of_reference_is_one():
    rng = np.random.default_rng(11)
    hist = np.abs(rng.normal(size=(4, 48))) + 5.0
    target = np.abs(rng.normal(size=(4, 6))) + 5.0
    ref = naive2_rows(hist, 6, m=4)
    assert owa(ref, target, hist, 4, ref) == 1.0


def test_owa_in_metric_set():
    rng = np.random.default_rng(12)
    hist = np.abs(rng.normal(size=(3, 36))) + 2.0
    target = np.abs(rng.normal(size=(3, 4))) + 2.0
    forecast = target + 0.1
    ref = naive2_rows(hist, 4, m=12)
    result = metric_set(forecast, target, hist, m=12, naive2_ref=ref)
    assert result.owa is not None and result.owa > 0.0
    assert metric_set(forecast, target, hist, m=12).owa is None


def test_naive2_plain_when_no_seasonality():
    series = np.arange(30.0)
    np.testing.assert_array_equal(naive2_forecast(series, 4, m=1), np.full(4, 29.0))


def test_naive2_follows_seasonal_pattern():
    t = np.arange(96)
    series = 10.0 + 3.0 * np.sin(2 * np.pi * t / 12.0)
    assert seasonality_test(series, 12)
    forecast = naive2_forecast(series, 12, m=12)
    future = 10.0 + 3.0 * np.sin(2 * np.pi * (96 + np.arange(12)) / 12.0)
    assert np.max(np.abs(forecast - future)) < 1.0


def test_seasonality_test_rejects_noise():
    rng = np.random.default_rng(13)
    assert not seasonality_test(rng.normal(size=200), 24)


def naive2_cases():
    """(history rows, m) covering every branch of naive2_forecast."""
    rng = np.random.default_rng(14)
    t = np.arange(48)
    seasonal = np.stack([
        20.0 + 5.0 * np.sin(2 * np.pi * t / 12 + phase) + rng.normal(scale=0.3, size=48)
        for phase in rng.uniform(0, 2 * np.pi, 5)
    ])
    noise = rng.normal(size=(3, 48)) + 10.0
    constant = np.full((1, 48), 7.0)
    # a period-4 pattern summing to 0 on a dyadic ramp: its centered moving
    # average is exactly 0 at t = 10 and nowhere else
    zero_ma = (np.tile([4.0, -4.0, 8.0, -8.0], 10) + 0.25 * (np.arange(40) - 10))[None]
    return [
        (np.concatenate([seasonal, noise, constant]), 12),
        # nine ratios per phase: numpy sums 8 or more values pairwise
        (np.concatenate([zero_ma, seasonal[:, :40]]), 4),
        (seasonal, 1),
        (seasonal[:, :30], 12),  # n < 3m
        (seasonal, 5),  # odd m
    ]


def test_naive2_rows_bitwise_equals_per_row_forecast():
    for hist, m in naive2_cases():
        expected = np.stack([naive2_forecast(row, 7, m) for row in hist])
        assert np.array_equal(naive2_rows(hist, 7, m), expected), m


def test_naive2_cases_reach_every_branch():
    from itfkan.metrics import _seasonal_indices

    hist, m = naive2_cases()[0]
    tests = [seasonality_test(row, m) for row in hist]
    assert tests[:5] == [True] * 5 and not any(tests[5:])
    hist, m = naive2_cases()[1]
    assert seasonality_test(hist[0], m) and _seasonal_indices(hist[0], m) is None
