"""Kolmogorov-Arnold layers with quadratic-expansion edge activations.

Every edge carries its own trainable activation w * (silu(x) + a0 + a1*x
+ a2*x^2); nodes just sum incoming edges. A first layer may dedicate its
leading output nodes to fixed-form symbolic edges that encode priors:
polynomial edges for trend monotonicity, Fourier-series edges at extracted
top-K frequencies for seasonality. Injected edges keep trainable
coefficients but a frozen functional form, are exempt from pruning, and
are excluded from the adjustable-edge accounting.

Layers map the temporal axis (size L) to itself; leading axes are batch.
"""

import numpy as np

from .tensor import (
    Tensor,
    fourier_inject,
    harmonic_base,
    l2_penalty,
    poly_inject,
    sigmoid,
    taylor_kan,
)

TAYLOR_ORDER = 2  # quadratic expansion per edge activation


# --- per-edge scalar views (used by interpretability and reports) -----------

class TaylorEdge:
    """Scalar view of one adjustable edge: w * (silu(x) + a0 + a1 x + a2 x^2)."""

    def __init__(self, w, a):
        self.w = float(w)
        self.a = np.asarray(a, dtype=np.float64)

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        poly = self.a[0] + self.a[1] * x + self.a[2] * x * x
        return self.w * (x * sigmoid(x) + poly)

    def l2_norm(self):
        """Importance of the edge: mean square of its non-constant shape
        coefficients a1, a2 (the inject edges' norms are the analogue). The
        constant term shapes nothing and is excluded."""
        return float((self.a[1] ** 2 + self.a[2] ** 2) / TAYLOR_ORDER)


class TrendInjectEdge:
    """Fixed-form polynomial edge m_p x^p + ... + m_1 x + m_0."""

    def __init__(self, m):
        self.m = np.asarray(m, dtype=np.float64)
        self.degree = len(self.m) - 1

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.polyval(self.m[::-1], x)

    def l2_norm(self):
        return float(np.mean(self.m[1:] ** 2))

    def formula(self, decimals=2):
        parts = []
        for k in range(self.degree, -1, -1):
            coeff = round(self.m[k], decimals)
            term = f"{coeff:+.{decimals}f}"
            if k == 1:
                term += "x"
            elif k > 1:
                term += f"x^{k}"
            parts.append(term)
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text


class SeasonalInjectEdge:
    """Fixed-form Fourier edge a0/2 + sum_k a_k cos(f_k pi x) + b_k sin(f_k pi x)."""

    def __init__(self, freqs, a, b):
        self.freqs = np.asarray(freqs, dtype=np.float64)
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.full_like(x, self.a[0] / 2.0)
        for k, f in enumerate(self.freqs):
            ang = f * np.pi * x
            out = out + self.a[k + 1] * np.cos(ang) + self.b[k] * np.sin(ang)
        return out

    def l2_norm(self):
        k = len(self.freqs)
        return float((np.sum(self.a[1:] ** 2) + np.sum(self.b ** 2)) / (2 * k))

    def formula(self, decimals=2):
        parts = [f"{self.a[0] / 2.0:.{decimals}f}"]
        for k, f in enumerate(self.freqs):
            w = f * np.pi
            parts.append(f"{self.a[k + 1]:+.{decimals}f}cos({w:.{decimals}f}x)")
            parts.append(f"{self.b[k]:+.{decimals}f}sin({w:.{decimals}f}x)")
        return "".join(parts)


# --- layers ------------------------------------------------------------------

class TaylorKanLayer:
    """Dense out_dim x in_dim grid of edge activations.

    If an injection is configured, the first ``inject_rows`` output nodes
    receive fixed-form symbolic edges from every input node instead of
    adjustable edges; adjustable rows follow them.
    """

    def __init__(self, in_dim, out_dim, rng, trend_degree=None, fourier_freqs=None):
        if trend_degree is not None and fourier_freqs is not None:
            raise ValueError("a layer holds at most one injection kind")
        self.in_dim = in_dim
        self.out_dim = out_dim
        if trend_degree is not None:
            if trend_degree < 1:
                raise ValueError("trend degree must be >= 1")
            self.inject_kind = "trend"
            self.inject_rows = trend_degree
        elif fourier_freqs is not None:
            freqs = np.asarray(fourier_freqs, dtype=np.float64)
            harmonic_base(freqs)  # fourier_inject's frequency rule, checked now
            self.inject_kind = "fourier"
            self.inject_rows = freqs.size
            self.freqs = freqs
        else:
            self.inject_kind = None
            self.inject_rows = 0
        rows = out_dim - self.inject_rows
        if rows < 1:
            raise ValueError(
                f"out_dim {out_dim} leaves no adjustable rows after "
                f"{self.inject_rows} injected ones"
            )

        # pykan's base-weight init (KAN, arXiv 2404.19756): a node sums
        # in_dim edges, so w of order 1 per edge would compound over two
        # L-wide layers into first forecasts in the thousands
        bound = 1.0 / np.sqrt(in_dim)
        self.w = Tensor(rng.uniform(-bound, bound, (rows, in_dim)), requires_grad=True)
        scale = 0.1 / np.sqrt(in_dim)
        self.a0 = Tensor(rng.uniform(-scale, scale, (rows, in_dim)), requires_grad=True)
        self.a1 = Tensor(rng.uniform(-scale, scale, (rows, in_dim)), requires_grad=True)
        self.a2 = Tensor(rng.uniform(-scale, scale, (rows, in_dim)), requires_grad=True)

        r = self.inject_rows
        if self.inject_kind == "trend":
            self.poly_coeffs = [
                Tensor(rng.uniform(-0.1, 0.1, (in_dim, r)), requires_grad=True)
                for _ in range(trend_degree + 1)
            ]
        elif self.inject_kind == "fourier":
            k = self.freqs.size
            self.four_a = [
                Tensor(rng.uniform(-0.1, 0.1, (in_dim, r)), requires_grad=True)
                for _ in range(k + 1)
            ]
            self.four_b = [
                Tensor(rng.uniform(-0.1, 0.1, (in_dim, r)), requires_grad=True)
                for _ in range(k)
            ]

    # counts used for structural parity and pruning reports
    @property
    def n_total(self):
        return self.out_dim * self.in_dim

    @property
    def n_injected(self):
        return self.inject_rows * self.in_dim

    @property
    def n_adjustable(self):
        return (self.out_dim - self.inject_rows) * self.in_dim

    @property
    def active(self):
        """Mask of the unpruned adjustable edges, shape (rows, in_dim). An
        edge is pruned exactly when w, a0, a1 and a2 are all 0, which is
        what ``apply_prune`` writes and what a checkpoint stores."""
        w, a0, a1, a2 = (t.data != 0.0 for t in (self.w, self.a0, self.a1, self.a2))
        return w | a0 | a1 | a2

    def edges(self):
        """The adjustable edges' (w, a0, a1, a2), as ``taylor_kan`` takes a layer."""
        return self.w, self.a0, self.a1, self.a2

    def prior(self, x):
        """The injected edges' outputs over x, or None without an injection."""
        if x.shape[-1] != self.in_dim:
            raise ValueError(
                f"layer expects last axis {self.in_dim}, got {x.shape[-1]}"
            )
        if self.inject_kind == "trend":
            return poly_inject(x, self.poly_coeffs)
        if self.inject_kind == "fourier":
            return fourier_inject(x, self.freqs, self.four_a, self.four_b)
        return None

    def forward(self, x):
        return taylor_kan(x, [self.edges()], prior=self.prior(x))

    def reg_terms(self):
        """(tensor, scale) pairs whose sum of scale * sum(t**2) is the sum of
        per-edge L2 norms over the whole grid."""
        terms = [(self.a1, 1.0 / TAYLOR_ORDER), (self.a2, 1.0 / TAYLOR_ORDER)]
        if self.inject_kind == "trend":
            terms += [(c, 1.0 / self.inject_rows) for c in self.poly_coeffs[1:]]
        elif self.inject_kind == "fourier":
            scale = 1.0 / (2 * self.freqs.size)
            terms += [(t, scale) for t in self.four_a[1:] + self.four_b]
        return terms

    def taylor_norms(self):
        """Per-edge norms for the adjustable grid, shape (rows, in_dim)."""
        a1, a2 = self.a1.data, self.a2.data
        return (a1 * a1 + a2 * a2) / TAYLOR_ORDER

    def apply_prune(self, keep):
        """Zero the adjustable edges where ``keep`` is False."""
        drop = ~keep
        for t in (self.w, self.a0, self.a1, self.a2):
            t.data[drop] = 0.0

    def edge(self, i, j):
        """Scalar view of edge input-node i -> output-node j."""
        if not (0 <= i < self.in_dim and 0 <= j < self.out_dim):
            raise IndexError(f"edge ({i}, {j}) outside {self.in_dim}x{self.out_dim}")
        r = self.inject_rows
        if j < r:
            if self.inject_kind == "trend":
                m = np.array([c.data[i, j] for c in self.poly_coeffs])
                return TrendInjectEdge(m)
            a = np.array([c.data[i, j] for c in self.four_a])
            b = np.array([c.data[i, j] for c in self.four_b])
            return SeasonalInjectEdge(self.freqs, a, b)
        return TaylorEdge(
            self.w.data[j - r, i],
            [self.a0.data[j - r, i], self.a1.data[j - r, i], self.a2.data[j - r, i]],
        )

    def parameters(self, prefix):
        params = [
            (f"{prefix}.w", self.w),
            (f"{prefix}.a0", self.a0),
            (f"{prefix}.a1", self.a1),
            (f"{prefix}.a2", self.a2),
        ]
        if self.inject_kind == "trend":
            params += [
                (f"{prefix}.poly{k}", t) for k, t in enumerate(self.poly_coeffs)
            ]
        elif self.inject_kind == "fourier":
            params += [(f"{prefix}.fa{k}", t) for k, t in enumerate(self.four_a)]
            params += [(f"{prefix}.fb{k + 1}", t) for k, t in enumerate(self.four_b)]
        return params


def reg_loss(layers):
    """Sum of per-edge L2 norms over every layer in ``layers``, as one tape
    node: the regulariser of one network."""
    return l2_penalty([term for layer in layers for term in layer.reg_terms()])


class KanNetwork:
    """A chain of TaylorKanLayers along the last axis (the trend and seasonal
    KANs), of which only the first may carry injected edges. Naming,
    regularising and counting its layers go through
    ``ForecastModel.kan_layers``; the network only runs them."""

    def __init__(self, layers):
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )
            if nxt.inject_kind is not None:
                raise ValueError("only a network's first layer may carry injected edges")
        self.layers = list(layers)

    def forward(self, x, tag=""):
        """Apply the layer chain as one ``taylor_kan`` node, whose slabs run
        every layer in turn, so that no hidden layer's output is held
        whole. ``tag`` names the branch ("trend", "seasonal"); the forward
        ignores it, but perfbench's span hooks (``_kan_name`` in
        ``perfbench/hooks.py``) read it to time each branch apart."""
        first = self.layers[0]
        return taylor_kan(x, [layer.edges() for layer in self.layers], prior=first.prior(x))


def build_trend_kan(length, degree, rng):
    """Two-layer L -> L -> L network whose first ``degree`` hidden nodes
    receive fixed polynomial edges."""
    return KanNetwork(
        [
            TaylorKanLayer(length, length, rng, trend_degree=degree),
            TaylorKanLayer(length, length, rng),
        ]
    )


def build_seasonal_kan(length, freqs, rng):
    """Two-layer L -> L -> L network whose first K hidden nodes receive
    fixed Fourier edges at the supplied frequencies."""
    return KanNetwork(
        [
            TaylorKanLayer(length, length, rng, fourier_freqs=freqs),
            TaylorKanLayer(length, length, rng),
        ]
    )


def top_k_frequencies(values, k):
    """Top-k frequencies of the (..., L) array by mean amplitude spectrum.

    The spectrum is averaged over all leading axes, the DC bin is excluded,
    and ties break toward the lower bin. Returned as normalized frequencies
    2*bin/L, so an edge fed the ramp t = 0..L-1 completes ``bin`` cycles.
    """
    values = np.asarray(values, dtype=np.float64)
    length = values.shape[-1]
    if length < 2 * k:
        raise ValueError(f"temporal length {length} too short for top-{k}")
    amp = np.abs(np.fft.rfft(values, axis=-1))
    amp = amp.reshape(-1, amp.shape[-1]).mean(axis=0)
    amp = amp[1:]  # drop DC
    if k > amp.size:
        raise ValueError(f"top-{k} requested but only {amp.size} non-DC bins")
    if not np.any(amp > 0):
        raise ValueError("no non-DC spectral energy to rank")
    order = np.argsort(-amp, kind="stable")[:k]
    bins = order + 1
    return 2.0 * bins / length
