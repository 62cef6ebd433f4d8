"""Forecast accuracy metrics and the seasonally-adjusted naive reference.

Row convention: forecasts and targets are (B, H); in-sample history is
(B, L) with one row per forecasted series. sMAPE uses the 0..200 scale
with 0/0 terms defined as 0; MASE scales by the in-sample seasonal-naive
error; OWA averages the sMAPE and MASE ratios against a naive2 reference.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class MetricSet:
    mse: float
    mae: float
    smape: float
    mase: float
    owa: Optional[float] = None


def _pair(forecast, target):
    forecast = np.asarray(forecast, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if forecast.shape != target.shape:
        raise ValueError(f"forecast {forecast.shape} vs target {target.shape}")
    return forecast, target


def mse(forecast, target):
    forecast, target = _pair(forecast, target)
    return float(np.mean((forecast - target) ** 2))


def mae(forecast, target):
    forecast, target = _pair(forecast, target)
    return float(np.mean(np.abs(forecast - target)))


def smape(forecast, target):
    forecast, target = _pair(forecast, target)
    num = np.abs(forecast - target)
    den = np.abs(forecast) + np.abs(target)
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return float(200.0 * np.mean(terms))


def mase(forecast, target, insample, m):
    """Mean absolute scaled error, averaged over series rows."""
    forecast, target = _pair(forecast, target)
    insample = np.atleast_2d(np.asarray(insample, dtype=np.float64))
    if m < 1:
        raise ValueError("seasonal period m must be >= 1")
    if insample.shape[1] <= m:
        raise ValueError(f"in-sample length {insample.shape[1]} too short for m={m}")
    scale = np.mean(np.abs(insample[:, m:] - insample[:, :-m]), axis=1)
    bad = np.flatnonzero(scale == 0.0)
    if bad.size:
        raise ValueError(
            f"MASE undefined: constant in-sample history for series rows {bad.tolist()}"
        )
    per_series = np.mean(np.abs(forecast - target), axis=1) / scale
    return float(np.mean(per_series))


def owa(forecast, target, insample, m, naive2_ref):
    """Overall weighted average of sMAPE and MASE ratios vs the reference."""
    ref_smape = smape(naive2_ref, target)
    ref_mase = mase(naive2_ref, target, insample, m)
    if ref_smape == 0.0 or ref_mase == 0.0:
        raise ValueError("reference forecast has zero error; OWA undefined")
    return 0.5 * (
        smape(forecast, target) / ref_smape
        + mase(forecast, target, insample, m) / ref_mase
    )


def metric_set(forecast, target, insample, m, naive2_ref=None):
    result = MetricSet(
        mse=mse(forecast, target),
        mae=mae(forecast, target),
        smape=smape(forecast, target),
        mase=mase(forecast, target, insample, m),
    )
    if naive2_ref is not None:
        result.owa = owa(forecast, target, insample, m, naive2_ref)
    return result


# --- naive2 reference ---------------------------------------------------------

def seasonality_test(series, m):
    """90% autocorrelation test for a stable seasonal pattern at lag m."""
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    if m <= 1 or n < 3 * m:
        return False
    centered = series - series.mean()
    denom = np.sum(centered**2)
    if denom == 0.0:
        return False

    def acf(lag):
        return float(np.sum(centered[lag:] * centered[:-lag]) / denom)

    limit = 1.645 * np.sqrt((1.0 + 2.0 * sum(acf(i) ** 2 for i in range(1, m))) / n)
    return abs(acf(m)) > limit


def _ma_kernel(m):
    """Weights of the centered moving average over one period m."""
    if m % 2 == 0:
        kernel = np.full(m + 1, 1.0 / m)
        kernel[0] = kernel[-1] = 0.5 / m
    else:
        kernel = np.full(m, 1.0 / m)
    return kernel


def _seasonal_indices(series, m):
    """Multiplicative seasonal indices (mean 1.0) via centered moving average."""
    n = len(series)
    half = m // 2
    ma = np.convolve(series, _ma_kernel(m), mode="valid")
    offset = half
    ratios = [[] for _ in range(m)]
    for idx, value in enumerate(ma):
        t = idx + offset
        if value == 0.0:
            return None
        ratios[t % m].append(series[t] / value)
    if any(not r for r in ratios):
        return None
    indices = np.array([np.mean(r) for r in ratios])
    mean = indices.mean()
    if mean == 0.0:
        return None
    return indices / mean


def naive2_forecast(insample, horizon, m):
    """Seasonally-adjusted naive forecast of the next ``horizon`` points."""
    series = np.asarray(insample, dtype=np.float64)
    n = len(series)
    indices = None
    if seasonality_test(series, m):
        indices = _seasonal_indices(series, m)
    if indices is None:
        return np.full(horizon, series[-1])
    deseasonalized = series / indices[np.arange(n) % m]
    future_phases = (n + np.arange(horizon)) % m
    return deseasonalized[-1] * indices[future_phases]


def naive2_rows(insample_rows, horizon, m):
    """``naive2_forecast`` of every row of a (B, n) history, vectorised over
    rows and bitwise equal to it: each reduction runs per row, over the same
    elements in the same order."""
    rows = np.ascontiguousarray(insample_rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError(f"need a non-empty (B, n) history, got shape {rows.shape}")
    n = rows.shape[1]
    out = np.repeat(rows[:, -1:], horizon, axis=1)
    if m <= 1 or n < 3 * m:
        return out
    # seasonality_test
    centered = rows - rows.mean(axis=1, keepdims=True)
    denom = np.sum(centered**2, axis=1)
    # a constant row: every acf is 0 and the row is not seasonal
    safe = np.where(denom == 0.0, 1.0, denom)
    acf = np.stack(
        [np.sum(centered[:, lag:] * centered[:, :-lag], axis=1) / safe
         for lag in range(1, m + 1)],
        axis=1,
    )
    # the sum of squared acf values in Python floats, as seasonality_test
    # takes it: there ``**`` is libm's pow and ``sum`` is Python's, which
    # numpy's square and add need not match bit for bit
    acf_sq = np.array([sum(a ** 2 for a in row) for row in acf[:, :-1].tolist()])
    limit = 1.645 * np.sqrt((1.0 + 2.0 * acf_sq) / n)
    sel = np.flatnonzero(np.abs(acf[:, -1]) > limit)
    if sel.size == 0:
        return out
    # _seasonal_indices on the seasonal rows
    half = m // 2
    kernel = _ma_kernel(m)
    ma = np.stack([np.convolve(rows[i], kernel, mode="valid") for i in sel])
    ratios = rows[sel, half : half + ma.shape[1]] / np.where(ma == 0.0, 1.0, ma)
    # ratio column c has phase (c + half) % m; each phase's mean reduces a
    # row-major copy, so every row is summed as np.mean sums a 1-D array
    indices = np.stack(
        [np.ascontiguousarray(ratios[:, (j - half) % m :: m]).mean(axis=1)
         for j in range(m)],
        axis=1,
    )
    mean = indices.mean(axis=1)
    keep = ~(ma == 0.0).any(axis=1) & (mean != 0.0)
    sel, indices = sel[keep], indices[keep] / mean[keep, None]
    last = rows[sel, -1] / indices[:, (n - 1) % m]
    out[sel] = last[:, None] * indices[:, (n + np.arange(horizon)) % m]
    return out
