import numpy as np
import pytest

from itfkan.taylorkan import (
    KanNetwork,
    SeasonalInjectEdge,
    TaylorEdge,
    TaylorKanLayer,
    TrendInjectEdge,
    build_seasonal_kan,
    build_trend_kan,
    reg_loss,
    top_k_frequencies,
)
from itfkan import tensor as T
from itfkan.tensor import Graph, Tensor, backward


def rng():
    return np.random.default_rng(0)


def zeroed(layer):
    for t in (layer.w, layer.a0, layer.a1, layer.a2):
        t.data[:] = 0.0
    return layer


# --- scalar edge evaluation ---------------------------------------------------

def test_taylor_edge_zero_coeffs_is_silu():
    edge = TaylorEdge(1.0, [0.0, 0.0, 0.0])
    assert edge(0.0) == 0.0
    x = np.linspace(-2, 2, 9)
    sig = 1.0 / (1.0 + np.exp(-x))
    np.testing.assert_allclose(edge(x), x * sig, rtol=1e-12)


def test_taylor_edge_zero_weight():
    edge = TaylorEdge(0.0, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(edge(np.linspace(-5, 5, 11)), 0.0)


def test_taylor_edge_scalar_value():
    edge = TaylorEdge(2.0, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(edge(1.0), 7.4621171573, atol=1e-9)


# --- edge L2 norms --------------------------------------------------------------

def test_taylor_norm_excludes_constant():
    assert TaylorEdge(1.0, [7.0, 3.0, 4.0]).l2_norm() == 12.5
    assert TaylorEdge(1.0, [5.0, 0.0, 0.0]).l2_norm() == 0.0


def test_trend_inject_norm():
    assert TrendInjectEdge([0.0, 2.0, 2.0]).l2_norm() == 4.0


def test_seasonal_inject_norm():
    edge = SeasonalInjectEdge([0.5, 0.25], a=[9.0, 1.0, 2.0], b=[3.0, 4.0])
    np.testing.assert_allclose(edge.l2_norm(), (1 + 4 + 9 + 16) / 4.0)


# --- layer forward ---------------------------------------------------------------

def test_single_edge_layer_is_silu_plus_const():
    layer = zeroed(TaylorKanLayer(1, 1, rng()))
    layer.w.data[:] = 1.0
    layer.a0.data[:] = 0.7
    x = np.linspace(-2, 2, 7).reshape(7, 1)
    out = layer.forward(Tensor(x))
    sig = 1.0 / (1.0 + np.exp(-x))
    np.testing.assert_allclose(out.data, x * sig + 0.7, rtol=1e-12)


def test_identity_polynomial_inject():
    # zero adjustable edges, a single linear inject edge passes node 0 through
    layer = zeroed(TaylorKanLayer(2, 3, rng(), trend_degree=1))
    for c in layer.poly_coeffs:
        c.data[:] = 0.0
    layer.poly_coeffs[1].data[0, 0] = 1.0  # edge (i=0 -> designated j=0): m=(0, 1)
    x = np.random.default_rng(1).normal(size=(5, 2))
    out = layer.forward(Tensor(x))
    np.testing.assert_allclose(out.data[:, 0], x[:, 0], rtol=1e-12)
    np.testing.assert_array_equal(out.data[:, 1:], 0.0)


def test_layer_matches_per_edge_oracle():
    layer = TaylorKanLayer(2, 1, rng())
    x = np.random.default_rng(3).normal(size=(6, 2))
    out = layer.forward(Tensor(x))
    expected = sum(
        layer.edge(i, 0)(x[:, i]) for i in range(2)
    )
    np.testing.assert_allclose(out.data[:, 0], expected, rtol=1e-12)


def test_injected_layer_matches_per_edge_oracle():
    for kind in ("trend", "fourier"):
        kwargs = (
            {"trend_degree": 2}
            if kind == "trend"
            else {"fourier_freqs": [0.5, 0.125]}
        )
        layer = TaylorKanLayer(3, 5, np.random.default_rng(4), **kwargs)
        x = np.random.default_rng(5).normal(size=(7, 3))
        out = layer.forward(Tensor(x))
        for j in range(5):
            expected = sum(layer.edge(i, j)(x[:, i]) for i in range(3))
            np.testing.assert_allclose(out.data[:, j], expected, rtol=1e-10, atol=1e-12)


def test_layer_rejects_wrong_width():
    layer = TaylorKanLayer(3, 3, rng())
    with pytest.raises(ValueError):
        layer.forward(Tensor(np.zeros((2, 4))))


def test_leading_axes_share_the_map():
    layer = TaylorKanLayer(4, 4, rng())
    x = np.random.default_rng(6).normal(size=(2, 3, 4))
    full = layer.forward(Tensor(x)).data
    for n in range(2):
        for c in range(3):
            row = layer.forward(Tensor(x[n, c][None, :])).data[0]
            np.testing.assert_allclose(full[n, c], row, rtol=1e-12)


# --- network structure ------------------------------------------------------------

def edge_counts(layer):
    """A layer's (total, adjustable, injected) edge counts."""
    return layer.n_total, layer.n_adjustable, layer.n_injected


def test_trend_kan_edge_accounting():
    net = build_trend_kan(96, 3, rng())
    assert edge_counts(net.layers[0]) == (9216, 8928, 288)
    assert edge_counts(net.layers[1]) == (9216, 9216, 0)


def test_seasonal_kan_edge_accounting():
    net = build_seasonal_kan(96, [1 / 12, 1 / 24, 1 / 6, 1 / 48, 1 / 3], rng())
    assert edge_counts(net.layers[0]) == (9216, 8736, 480)
    assert edge_counts(net.layers[1]) == (9216, 9216, 0)


def test_degree_one_injects_single_linear_row():
    net = build_trend_kan(8, 1, rng())
    assert net.layers[0].inject_rows == 1
    edge = net.layers[0].edge(2, 0)
    assert isinstance(edge, TrendInjectEdge) and edge.degree == 1


def test_network_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        KanNetwork([TaylorKanLayer(4, 4, rng()), TaylorKanLayer(5, 4, rng())])


def test_network_rejects_injected_edges_after_its_first_layer():
    """A network runs as one taylor_kan node, whose prior is its first
    layer's."""
    with pytest.raises(ValueError, match="only a network's first layer"):
        KanNetwork([TaylorKanLayer(4, 4, rng()), TaylorKanLayer(4, 4, rng(), trend_degree=1)])


def test_network_forward_is_its_layers_in_turn():
    net = build_trend_kan(6, 2, rng())
    x = Tensor(np.random.default_rng(7).normal(size=(3, 4, 6)))
    out = net.forward(x)
    assert out.op == "taylor_kan"
    np.testing.assert_array_equal(out.data, net.layers[1].forward(net.layers[0].forward(x)).data)


def test_fourier_constant_contribution():
    layer = zeroed(TaylorKanLayer(2, 3, rng(), fourier_freqs=[0.5]))
    layer.four_a[0].data[:] = 3.0  # a0 per edge
    layer.four_a[1].data[:] = 0.0
    layer.four_b[0].data[:] = 0.0
    out = layer.forward(Tensor(np.random.default_rng(0).normal(size=(4, 2))))
    # each designated node sums a0/2 over both inputs
    np.testing.assert_allclose(out.data[:, 0], 3.0, rtol=1e-12)


def test_fourier_single_frequency_trig_oracle():
    layer = zeroed(TaylorKanLayer(3, 4, rng(), fourier_freqs=[0.5]))
    layer.four_a[0].data[:] = 0.0
    layer.four_a[1].data[:] = 1.0
    layer.four_b[0].data[:] = 0.0
    x = np.random.default_rng(2).normal(size=(5, 3))
    out = layer.forward(Tensor(x))
    np.testing.assert_allclose(
        out.data[:, 0], np.cos(0.5 * np.pi * x).sum(axis=1), rtol=1e-12
    )


def test_fourier_layer_rejects_frequencies_without_a_common_base():
    with pytest.raises(ValueError, match=f"frequency {1 / np.pi!r} is not a multiple"):
        TaylorKanLayer(3, 4, rng(), fourier_freqs=[0.5, 1 / np.pi])
    with pytest.raises(ValueError, match="above the cap of 512"):
        TaylorKanLayer(3, 4, rng(), fourier_freqs=[1 / 512, 1.5])


# --- regularization -----------------------------------------------------------------

def test_reg_loss_zero_when_zeroed():
    net = build_trend_kan(6, 2, rng())
    for layer in net.layers:
        zeroed(layer)
        if layer.inject_kind == "trend":
            for c in layer.poly_coeffs:
                c.data[:] = 0.0
    assert reg_loss(net.layers).item() == 0.0


def test_reg_loss_additivity():
    layer = zeroed(TaylorKanLayer(2, 2, rng()))
    layer.a1.data[0, 0] = 3.0
    layer.a2.data[0, 0] = 4.0  # norm 12.5
    layer.a1.data[1, 1] = 2.0
    layer.a2.data[1, 1] = 2.0  # norm 4.0
    np.testing.assert_allclose(reg_loss([layer]).item(), 16.5)


def test_reg_loss_matches_per_edge_sum():
    net = build_seasonal_kan(7, [0.5, 0.25], np.random.default_rng(8))
    total = sum(
        layer.edge(i, j).l2_norm()
        for layer in net.layers
        for i in range(layer.in_dim)
        for j in range(layer.out_dim)
    )
    np.testing.assert_allclose(reg_loss(net.layers).item(), total, rtol=1e-10)


def test_reg_loss_scales_quadratically():
    net = build_trend_kan(5, 2, np.random.default_rng(9))
    base = reg_loss(net.layers).item()
    s = 3.0
    for layer in net.layers:
        layer.a1.data *= s
        layer.a2.data *= s
        if layer.inject_kind == "trend":
            for c in layer.poly_coeffs[1:]:
                c.data *= s
    np.testing.assert_allclose(reg_loss(net.layers).item(), s * s * base, rtol=1e-10)


def test_reg_loss_nonnegative_and_zero_iff():
    net = build_trend_kan(4, 1, np.random.default_rng(10))
    assert reg_loss(net.layers).item() > 0.0
    for layer in net.layers:
        layer.a1.data[:] = 0.0
        layer.a2.data[:] = 0.0
        if layer.inject_kind == "trend":
            for c in layer.poly_coeffs[1:]:
                c.data[:] = 0.0
    assert reg_loss(net.layers).item() == 0.0


# --- gradients -----------------------------------------------------------------------

def test_layer_parameter_gradients_match_fd():
    from gradcheck_util import param_fd_errors

    layer = TaylorKanLayer(3, 4, np.random.default_rng(11), trend_degree=2)
    x = Tensor(np.random.default_rng(12).normal(size=(5, 3)))

    def loss_fn():
        out = layer.forward(x)
        return (out * out).sum()

    errors = param_fd_errors(loss_fn, layer.parameters("l"))
    for name, err in errors.items():
        assert err < 1e-4, f"{name}: {err}"


def test_reg_loss_gradients_flow():
    net = build_seasonal_kan(5, [0.4], np.random.default_rng(13))
    loss = reg_loss(net.layers)
    backward(loss)
    assert net.layers[0].a1.grad is not None
    assert net.layers[0].four_b[0].grad is not None


def reg_chain(layer):
    """The mul/sum/add chain a layer's regulariser was before it became one
    ``l2_penalty`` node; kept as its oracle."""
    reg = T.sum_axis(layer.a1 * layer.a1 + layer.a2 * layer.a2) * (1.0 / 2)
    if layer.inject_kind == "trend":
        for c in layer.poly_coeffs[1:]:
            reg = reg + T.sum_axis(c * c) * (1.0 / layer.inject_rows)
    elif layer.inject_kind == "fourier":
        for t in layer.four_a[1:] + layer.four_b:
            reg = reg + T.sum_axis(t * t) * (1.0 / (2 * layer.freqs.size))
    return reg


def chain_total(layers):
    total = reg_chain(layers[0])
    for layer in layers[1:]:
        total = total + reg_chain(layer)
    return total


def reg_case(name, seed):
    """The layers of a network of each kind with random coefficients, and
    their parameters."""
    from itfkan.tfsynergy import PatchKans

    gen = np.random.default_rng(15)
    if name == "tf":
        net = PatchKans(3, 4, gen)
    else:
        build = build_trend_kan if name == "trend" else build_seasonal_kan
        net = build(6, 3 if name == "trend" else [0.5, 0.25], gen)
    layers = net.layers
    params = [t for i, layer in enumerate(layers) for _, t in layer.parameters(f"l{i}")]
    values = np.random.default_rng(seed)
    for t in params:
        t.data[...] = values.normal(size=t.shape)
    return layers, params


@pytest.mark.parametrize("name", ["trend", "seasonal", "tf"])
def test_reg_loss_is_one_node_matching_the_chain(name):
    layers, params = reg_case(name, 16)
    fused = reg_loss(layers)
    assert len(Graph.from_output(fused)) == 1 and fused.op == "l2_penalty"
    backward(fused)
    grads = [None if t.grad is None else t.grad.copy() for t in params]
    for t in params:
        t.grad = None
    chain = chain_total(layers)
    backward(chain)
    assert abs(fused.item() - chain.item()) <= 1e-12 * abs(chain.item())
    for t, g in zip(params, grads):
        if t.grad is None:  # not penalised: w, a0 and the constant terms
            assert g is None
            continue
        np.testing.assert_allclose(g, t.grad, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["trend", "seasonal", "tf"])
def test_reg_loss_gradients_match_fd(name):
    from gradcheck_util import param_fd_errors

    layers, _ = reg_case(name, 17)
    named = [
        (f"l{i}.{k}", t)
        for i, layer in enumerate(layers)
        for k, (t, _) in enumerate(layer.reg_terms())
    ]
    errors = param_fd_errors(lambda: reg_loss(layers), named)
    for pname, err in errors.items():
        assert err < 1e-6, f"{pname}: {err}"


# --- first-layer polynomial property ---------------------------------------------------

def test_trend_first_layer_is_polynomial_when_taylor_zeroed():
    degree = 3
    layer = TaylorKanLayer(1, 5, np.random.default_rng(14), trend_degree=degree)
    zeroed(layer)
    xs = np.linspace(-2.0, 2.0, 41)
    out = layer.forward(Tensor(xs.reshape(-1, 1))).data
    for j in range(degree):
        coeffs = np.polynomial.polynomial.polyfit(xs, out[:, j], degree)
        fit = np.polynomial.polynomial.polyval(xs, coeffs)
        assert np.max(np.abs(fit - out[:, j])) < 1e-10


# --- top-k frequency extraction ----------------------------------------------------------

def test_top_k_pure_tone():
    length = 96
    t = np.arange(length)
    x = np.sin(2 * np.pi * 4 * t / length)
    freqs = top_k_frequencies(x[None, :], 1)
    np.testing.assert_allclose(freqs, [2.0 * 4 / length])
    assert freqs[0] == pytest.approx(1.0 / 12.0)


def test_top_k_orders_by_amplitude():
    length = 64
    t = np.arange(length)
    x = 3.0 * np.sin(2 * np.pi * 5 * t / length) + 1.0 * np.sin(2 * np.pi * 9 * t / length)
    freqs = top_k_frequencies(x[None, :], 2)
    np.testing.assert_allclose(freqs, [2.0 * 5 / length, 2.0 * 9 / length])


def test_top_k_constant_series_rejected():
    with pytest.raises(ValueError):
        top_k_frequencies(np.full((2, 32), 1.7), 3)


def test_top_k_too_many_bins_rejected():
    with pytest.raises(ValueError):
        top_k_frequencies(np.random.default_rng(0).normal(size=(1, 16)), 9)
