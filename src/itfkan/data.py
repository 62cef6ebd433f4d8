"""Dataset ingestion, chronological splits, standardization, windowing.

CSV files carry a timestamp first column (ignored for modeling) and one
numeric column per variate. Splits are chronological and disjoint: the
fixed 12/4/4-month rule for ETT-style sets, a 0.7/0.1/0.2 ratio split
otherwise. Standardization is a per-variate z-score with train-split
statistics; a 1e-8 floor keeps constant variates at exactly zero.
"""

import csv
from dataclasses import dataclass

import numpy as np

SEASON_PERIOD = {
    "yearly": 1,
    "quarterly": 4,
    "monthly": 12,
    "weekly": 1,
    "daily": 1,
    "hourly": 24,
}

ETT_MONTH_ROWS = {"h": 30 * 24, "m": 30 * 24 * 4}
SPLIT_RATIOS = (0.7, 0.1, 0.2)  # train / val / test of a ratio split
MIN_SPLIT_ROWS = 2
STD_FLOOR = 1e-8


@dataclass
class SeriesDataset:
    name: str
    values: np.ndarray  # (T, N)
    variate_names: list
    frequency: str = "hourly"

    @property
    def season_period(self):
        try:
            return SEASON_PERIOD[self.frequency]
        except KeyError:
            raise ValueError(
                f"unknown frequency {self.frequency!r}; expected one of "
                f"{sorted(SEASON_PERIOD)}"
            ) from None


@dataclass
class SplitData:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    boundaries: dict


def ingest_csv(path, frequency="hourly"):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(header) < 2:
            raise ValueError(f"{path}: need a timestamp column plus variates")
        variate_names = [h.strip() for h in header[1:]]
        rows = []
        linenos = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {lineno} has {len(row)} fields, expected "
                    f"{len(header)}"
                )
            parsed = []
            for col, cell in zip(variate_names, row[1:]):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: row {lineno}, column {col!r}: "
                        f"non-numeric value {cell!r}"
                    ) from None
            rows.append(parsed)
            linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(
            f"{path}: row {linenos[r]}, column {variate_names[c]!r}: "
            f"non-finite value {float(values[r, c])}"
        )
    stem = path.rsplit("/", 1)[-1]
    stem = stem[:-4] if stem.lower().endswith(".csv") else stem
    return SeriesDataset(
        name=stem, values=values, variate_names=variate_names, frequency=frequency
    )


def _ett_boundaries(name, total):
    kind = name.lower()
    month = ETT_MONTH_ROWS["m"] if kind.startswith("ettm") else ETT_MONTH_ROWS["h"]
    if total < 16 * month:
        raise ValueError(
            f"{name}: {total} rows is too short for the fixed 12/4/4-month split"
        )
    train_hi = 12 * month
    val_hi = 16 * month
    test_hi = min(20 * month, total)
    return {"train": (0, train_hi), "val": (train_hi, val_hi), "test": (val_hi, test_hi)}


def _ratio_boundaries(total):
    train_hi = int(total * SPLIT_RATIOS[0])
    val_hi = train_hi + int(total * SPLIT_RATIOS[1])
    return {"train": (0, train_hi), "val": (train_hi, val_hi), "test": (val_hi, total)}


def split_standardize(ds, mode="auto", stats=None):
    """Chronological split plus per-variate z-scoring with the train split's
    statistics, or with ``stats``, a (mean, std) pair, if given."""
    total = len(ds.values)
    if mode == "auto":
        mode = "ett" if ds.name.lower().startswith("ett") else "ratio"
    if mode == "ett":
        bounds = _ett_boundaries(ds.name, total)
    elif mode == "ratio":
        bounds = _ratio_boundaries(total)
    else:
        raise ValueError(f"unknown split mode {mode!r}")
    for split, (lo, hi) in bounds.items():
        if hi - lo < MIN_SPLIT_ROWS:
            raise ValueError(
                f"{split} split has {hi - lo} rows, need at least {MIN_SPLIT_ROWS}"
            )
    if stats is None:
        train_raw = ds.values[slice(*bounds["train"])]
        mean = train_raw.mean(axis=0)
        std = np.maximum(train_raw.std(axis=0), STD_FLOOR)
    else:
        mean, std = stats
    parts = {
        split: (ds.values[slice(*bounds[split])] - mean) / std for split in bounds
    }
    return SplitData(
        train=parts["train"],
        val=parts["val"],
        test=parts["test"],
        mean=mean,
        std=std,
        boundaries=bounds,
    )


def destandardize(values, mean, std):
    return values * std + mean


def make_windows(values, lookback, horizon):
    """Stride-1 windows of a (T, N) split: inputs (W, N, L), targets (W, N, F)."""
    total = len(values)
    count = total - lookback - horizon + 1
    if count < 1:
        raise ValueError(
            f"split of {total} rows cannot host lookback {lookback} + "
            f"horizon {horizon} windows"
        )
    sw = np.lib.stride_tricks.sliding_window_view(values, lookback + horizon, axis=0)
    # sw: (W, N, L+F) with shared memory; copy to keep windows contiguous
    inputs = np.ascontiguousarray(sw[:count, :, :lookback])
    targets = np.ascontiguousarray(sw[:count, :, lookback:])
    return inputs, targets


def write_stats(path, variate_names, mean, std):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for name, mu, sigma in zip(variate_names, mean, std):
            fh.write(f"{name}\t{float(mu)!r}\t{float(sigma)!r}\n")


def read_stats(path):
    """(names, means, stds) from a ``write_stats`` file. A malformed line,
    or a mean or std that is not finite, or a std that is not positive,
    raises ValueError naming the file and line."""
    names, means, stds = [], [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            row = line.rstrip("\n")
            try:
                name, mu, sigma = row.split("\t")
                mu, sigma = float(mu), float(sigma)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: expected name<TAB>mean<TAB>std, "
                    f"got {row!r}"
                ) from None
            if not (np.isfinite(mu) and np.isfinite(sigma) and sigma > 0):
                raise ValueError(
                    f"{path}: line {lineno}: variate {name!r} needs a finite "
                    f"mean and a finite positive std, got {mu!r} and {sigma!r}"
                )
            names.append(name)
            means.append(mu)
            stds.append(sigma)
    return names, np.asarray(means), np.asarray(stds)


def synthetic_series(total, n_variates, seed=0, noise=0.05):
    """Seasonal + trend toy panel for demos and tests."""
    rng = np.random.default_rng(seed)
    t = np.arange(total, dtype=np.float64)
    values = np.empty((total, n_variates))
    for v in range(n_variates):
        period = 24.0 * (1 + v % 3)
        amp = 0.5 + rng.uniform(0.0, 1.0)
        slope = rng.uniform(-0.5, 0.5)
        phase = rng.uniform(0, 2 * np.pi)
        values[:, v] = (
            amp * np.sin(2 * np.pi * t / period + phase)
            + slope * t / total
            + noise * rng.standard_normal(total)
        )
    return values


def write_csv(path, values, variate_names=None):
    total, n = values.shape
    if variate_names is None:
        variate_names = [f"v{i}" for i in range(n)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("date," + ",".join(variate_names) + "\n")
        for t in range(total):
            cells = ",".join(repr(float(x)) for x in values[t])
            fh.write(f"{t},{cells}\n")
