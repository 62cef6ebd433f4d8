"""Fused KAN ops against finite differences and the primitive chains they
replace.

The ``*_chain`` functions below are the primitive-op forms the model used
before the fused ops; they stay here as oracles for values and gradients.
"""

import numpy as np
import pytest

from gradcheck_util import param_fd_errors
from itfkan import tensor as T
from itfkan.model import ForecastModel, ModelConfig
from itfkan.tensor import ShapeError, Tensor, backward, gradient_check, no_grad

FD_TOL = 1e-6
PARITY_RTOL = 1e-12


# --- oracles: the primitive chains -------------------------------------------

def taylor_chain(x, w, a0, a1, a2):
    base = T.matmul(T.silu(x), T.transpose2d(w))
    lin = T.matmul(x, T.transpose2d(w * a1))
    quad = T.matmul(T.pow_int(x, 2), T.transpose2d(w * a2))
    const = T.sum_axis(w * a0, axis=1)
    return base + lin + quad + const


def poly_chain(x, coeffs):
    acc = T.matmul(x, coeffs[1])
    for k in range(2, len(coeffs)):
        acc = acc + T.matmul(T.pow_int(x, k), coeffs[k])
    return acc + T.sum_axis(coeffs[0], axis=0)


def fourier_chain(x, freqs, cos_coeffs, sin_coeffs):
    acc = None
    for k, f in enumerate(freqs):
        ang = x * (f * np.pi)
        term = T.matmul(T.cos(ang), cos_coeffs[k + 1]) + T.matmul(
            T.sin(ang), sin_coeffs[k]
        )
        acc = term if acc is None else acc + term
    return acc + T.sum_axis(cos_coeffs[0], axis=0) * 0.5


def patch_chain(grid, params):
    n, k_bins, _, d = grid.shape
    outputs = []
    for p, (w, a0, a1, a2) in enumerate(params):
        rows = T.reshape(grid[:, :, p : p + 1, :], (n, k_bins, d))
        mixed = taylor_chain(T.permute(rows, (0, 2, 1)), w, a0, a1, a2)
        outputs.append(T.reshape(T.mean_axis(mixed, axis=-1), (n, 1, d)))
    return T.concat(outputs, axis=1)


# --- cases -------------------------------------------------------------------

FREQS = [0.25, 0.5, 1.5]


def param(rng, shape, scale=0.5):
    return Tensor(rng.uniform(-scale, scale, shape), requires_grad=True)


def taylor_params(rng, rows, width, prune=True):
    w, a0, a1, a2 = (param(rng, (rows, width)) for _ in range(4))
    if prune:  # a pruned edge has every coefficient zeroed
        for t in (w, a0, a1, a2):
            t.data[0, 1] = 0.0
            t.data[-1, :] = 0.0
    return [w, a0, a1, a2]


def time_axis_input(rng, lead, width):
    """x as the model feeds it: a permuted (…, d, L) view of a (…, L, d)
    array, with exact zeros among the entries."""
    base = rng.normal(size=lead[:-1] + (width, lead[-1]))
    base.reshape(-1)[::7] = 0.0
    return Tensor(base, requires_grad=True).permute(
        tuple(range(len(lead) - 1)) + (len(lead), len(lead) - 1)
    )


def make_case(name, rng):
    """(fused fn, chain fn, input tensor, named parameters) for one op."""
    if name == "taylor_kan":
        x = time_axis_input(rng, (2, 3, 4), 5)
        ps = taylor_params(rng, 4, 5)
        names = ["w", "a0", "a1", "a2"]
        return (
            lambda x_: T.taylor_kan(x_, *ps),
            lambda x_: taylor_chain(x_, *ps),
            x, list(zip(names, ps)),
        )
    if name == "poly_inject":
        x = time_axis_input(rng, (2, 3, 4), 5)
        coeffs = [param(rng, (5, 3)) for _ in range(4)]
        coeffs[2].data[1, :] = 0.0
        return (
            lambda x_: T.poly_inject(x_, coeffs),
            lambda x_: poly_chain(x_, coeffs),
            x, [(f"poly{k}", c) for k, c in enumerate(coeffs)],
        )
    if name == "fourier_inject":
        x = time_axis_input(rng, (2, 3, 4), 5)
        ca = [param(rng, (5, 2)) for _ in range(len(FREQS) + 1)]
        sb = [param(rng, (5, 2)) for _ in range(len(FREQS))]
        ca[1].data[0, :] = 0.0
        return (
            lambda x_: T.fourier_inject(x_, FREQS, ca, sb),
            lambda x_: fourier_chain(x_, FREQS, ca, sb),
            x,
            [(f"fa{k}", t) for k, t in enumerate(ca)]
            + [(f"fb{k + 1}", t) for k, t in enumerate(sb)],
        )
    if name == "patch_kans":
        grid = rng.normal(size=(2, 3, 4, 2))
        grid[:, 1, 2, :] = 0.0
        x = Tensor(grid, requires_grad=True)
        params = [taylor_params(rng, 3, 3, prune=(p % 2 == 0)) for p in range(4)]
        named = [
            (f"p{p}.{n}", t)
            for p, ps in enumerate(params)
            for n, t in zip(["w", "a0", "a1", "a2"], ps)
        ]
        return (
            lambda x_: T.patch_kans(x_, params),
            lambda x_: patch_chain(x_, params),
            x, named,
        )
    raise KeyError(name)


OPS = ["taylor_kan", "poly_inject", "fourier_inject", "patch_kans"]


def weighted_sum(out, seed=99):
    weights = np.random.default_rng(seed).normal(size=out.shape)
    return (out * Tensor(weights)).sum()


# --- finite differences ------------------------------------------------------

@pytest.mark.parametrize("name", OPS)
def test_fused_op_input_gradient_matches_fd(name):
    fused, _, x, _ = make_case(name, np.random.default_rng(1))
    # gradient_check perturbs a contiguous copy of the (possibly permuted) input
    err = gradient_check(lambda x_: weighted_sum(fused(x_)), x)
    assert err < FD_TOL, err


@pytest.mark.parametrize("name", OPS)
def test_fused_op_parameter_gradients_match_fd(name):
    fused, _, x, named = make_case(name, np.random.default_rng(2))
    errors = param_fd_errors(lambda: weighted_sum(fused(x)), named)
    for pname, err in errors.items():
        assert err < FD_TOL, f"{name} {pname}: {err}"


# --- parity with the primitive chains ------------------------------------------

def rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def grads_of(fn, x, named):
    for _, t in named:
        t.grad = None
    x.grad = None
    leaf = x
    while leaf.op is not None:  # the permuted input's leaf
        leaf = leaf.parents[0]
        leaf.grad = None
    out = fn(x)
    backward(weighted_sum(out))
    grads = {n: t.grad.copy() for n, t in named}
    grads["x"] = leaf.grad.copy()
    return out.data.copy(), grads


@pytest.mark.parametrize("name", OPS)
def test_fused_op_matches_primitive_chain(name):
    fused, chain, x, named = make_case(name, np.random.default_rng(3))
    out_f, grads_f = grads_of(fused, x, named)
    out_c, grads_c = grads_of(chain, x, named)
    assert rel_gap(out_f, out_c) < PARITY_RTOL
    for key in grads_c:
        assert rel_gap(grads_f[key], grads_c[key]) < PARITY_RTOL, key


@pytest.mark.parametrize("name", OPS)
def test_fused_op_no_grad_equals_taped(name):
    fused, _, x, _ = make_case(name, np.random.default_rng(4))
    taped = fused(x)
    assert taped.op == name
    with no_grad():
        plain = fused(x)
    assert plain.op is None
    np.testing.assert_array_equal(plain.data, taped.data)


def test_fused_ops_reject_bad_shapes():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 4)))
    w, a0, a1, a2 = (Tensor(rng.normal(size=(3, 5))) for _ in range(4))
    with pytest.raises(ShapeError):
        T.taylor_kan(x, w, a0, a1, a2)
    with pytest.raises(ShapeError):
        T.poly_inject(x, [Tensor(np.zeros((4, 2)))])
    with pytest.raises(ShapeError):
        T.fourier_inject(x, [0.5], [Tensor(np.zeros((4, 2)))] * 2, [])
    grid = Tensor(rng.normal(size=(1, 3, 2, 2)))
    params = [[Tensor(np.zeros((3, 3)))] * 4] * 3
    with pytest.raises(ShapeError):
        T.patch_kans(grid, params)


# --- patch windows -------------------------------------------------------------

def windows_chain(x, patch_len, stride):
    """The slice/concat loop PatchCompressor ran before ``patch_windows``."""
    n, length, d = x.shape
    count = (length - patch_len) // stride + 2
    padded = T.concat([x] + [x[:, length - 1 : length, :]] * stride, axis=1)
    windows = [
        T.reshape(padded[:, w * stride : w * stride + patch_len, :], (n, 1, patch_len * d))
        for w in range(count)
    ]
    return T.concat(windows, axis=1)


# (patch_len, stride) over a 9-step series: tiled and overlapping windows;
# in every case the last window reaches into the tail pad
WINDOW_CASES = [(4, 4), (4, 2), (5, 3), (3, 1)]


@pytest.mark.parametrize("patch_len,stride", WINDOW_CASES)
def test_patch_windows_input_gradient_matches_fd(patch_len, stride):
    x = Tensor(np.random.default_rng(20).normal(size=(2, 9, 3)))
    err = gradient_check(
        lambda x_: weighted_sum(T.patch_windows(x_, patch_len, stride)), x
    )
    assert err < FD_TOL, err


@pytest.mark.parametrize("patch_len,stride", WINDOW_CASES)
def test_patch_windows_matches_slice_chain(patch_len, stride):
    # a permuted (N, L, d) view of an (N, d, L) array, as a strided input
    base = np.random.default_rng(21).normal(size=(2, 3, 9))
    x = Tensor(base, requires_grad=True).permute(0, 2, 1)
    out_w, grads_w = grads_of(lambda x_: T.patch_windows(x_, patch_len, stride), x, [])
    out_c, grads_c = grads_of(lambda x_: windows_chain(x_, patch_len, stride), x, [])
    np.testing.assert_array_equal(out_w, out_c)
    assert out_w.shape == (2, (9 - patch_len) // stride + 2, patch_len * 3)
    assert rel_gap(grads_w["x"], grads_c["x"]) < PARITY_RTOL


def test_patch_windows_no_grad_equals_taped():
    x = Tensor(np.random.default_rng(22).normal(size=(2, 9, 3)), requires_grad=True)
    taped = T.patch_windows(x, 4, 2)
    assert taped.op == "patch_windows"
    with no_grad():
        plain = T.patch_windows(x, 4, 2)
    assert plain.op is None
    np.testing.assert_array_equal(plain.data, taped.data)


def test_patch_windows_rejects_bad_shapes():
    x = Tensor(np.zeros((2, 5, 3)))
    for patch_len, stride in [(6, 2), (0, 1), (3, 0)]:
        with pytest.raises(ShapeError):
            T.patch_windows(x, patch_len, stride)
    with pytest.raises(ShapeError):
        T.patch_windows(Tensor(np.zeros((5, 3))), 2, 2)


# --- copy-on-write backward ------------------------------------------------------

def test_backward_never_writes_a_shared_gradient():
    rng = np.random.default_rng(23)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(3, 4)))
    weights = rng.normal(size=(3, 4))
    m = a * c
    # add hands its one upstream gradient to both parents by reference; the
    # mul node behind m then sends a its second gradient
    s = T.add(a, m)
    backward((s * Tensor(weights)).sum())
    np.testing.assert_array_equal(m.grad, weights)
    np.testing.assert_allclose(a.grad, weights * (1.0 + c.data), rtol=1e-15)
    assert not np.shares_memory(a.grad, m.grad)


def test_leaf_grads_are_owned_writable_and_row_major():
    rng = np.random.default_rng(24)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(3,)), requires_grad=True)
    xt = x.permute(1, 0)
    # x's only gradient is a transposed view of xt's; y's comes from a fan-out
    backward(weighted_sum(xt + y) + weighted_sum(y, seed=98))
    for leaf in (x, y):
        assert leaf.grad.flags.owndata and leaf.grad.flags.writeable
        assert leaf.grad.flags.c_contiguous
    upstream = xt.grad.copy()
    np.testing.assert_array_equal(x.grad, upstream.T)
    x.grad += 1.0  # writing a leaf grad touches no other tensor's grad
    np.testing.assert_array_equal(xt.grad, upstream)


# --- model level ---------------------------------------------------------------

def test_model_no_grad_forward_equals_taped_bitwise():
    cfg = ModelConfig(
        lookback=24, horizon=8, embed_dim=3, kernel=5, trend_degree=3,
        top_k=3, patch_len=4, stride=4,
    )
    model = ForecastModel(cfg, [1 / 12, 0.25, 0.5], seed=6)
    x = np.random.default_rng(7).normal(size=(5, 24))
    taped = model.forward(Tensor(x))
    assert taped.requires_grad
    with no_grad():
        plain = model.forward(Tensor(x))
    np.testing.assert_array_equal(plain.data, taped.data)
