"""Fused KAN ops against finite differences and the primitive chains they
replace.

The ``*_chain`` functions below are the primitive-op forms the model used
before the fused ops; they stay here as oracles for values and gradients.
"""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from gradcheck_util import gradient_check, param_fd_errors
from itfkan import tensor as T
from itfkan.model import ForecastModel, ModelConfig
from itfkan.tensor import ShapeError, Tensor, backward, no_grad

FD_TOL = 1e-6
PARITY_RTOL = 1e-12


# --- oracles: the primitive chains -------------------------------------------

def taylor_chain(x, w, a0, a1, a2):
    base = T.matmul(T.silu(x), T.permute(w, (1, 0)))
    lin = T.matmul(x, T.permute(w * a1, (1, 0)))
    quad = T.matmul(T.pow_int(x, 2), T.permute(w * a2, (1, 0)))
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
    with pytest.raises(ShapeError):  # the prior's leading axes are not x's
        T.taylor_kan(x, *(Tensor(rng.normal(size=(3, 4))) for _ in range(4)),
                     prior=Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        T.poly_inject(x, [Tensor(np.zeros((4, 2)))])
    with pytest.raises(ShapeError):
        T.fourier_inject(x, [0.5], [Tensor(np.zeros((4, 2)))] * 2, [])
    grid = Tensor(rng.normal(size=(1, 3, 2, 2)))
    params = [[Tensor(np.zeros((3, 3)))] * 4] * 3
    with pytest.raises(ShapeError):
        T.patch_kans(grid, params)


# --- the Fourier prior's harmonics ------------------------------------------------

def test_harmonic_base_of_prior_bins():
    base, multiples = T.harmonic_base([2.0 * b / 96 for b in (5, 6, 7, 13, 14)])
    assert base == pytest.approx(1 / 48, rel=1e-15)
    assert multiples.tolist() == [5, 6, 7, 13, 14]
    base, multiples = T.harmonic_base(FREQS)
    assert base == 0.25 and multiples.tolist() == [1, 2, 6]


def test_fourier_harmonics_match_numpy_trig():
    """Every multiple 1..48 of the base 2/96 in one call: column 2j of the
    output is cos(f_j pi x), column 2j + 1 is sin(f_j pi x), through one-hot
    coefficients on a single input, over |x| <= 20 with exact zeros."""
    freqs = [2.0 * m / 96 for m in range(1, 49)]
    rng = np.random.default_rng(50)
    x = np.concatenate([np.linspace(-20.0, 20.0, 4001), rng.uniform(-20.0, 20.0, 4000)])
    assert np.count_nonzero(x == 0.0) == 1
    x[::9] = 0.0
    r = 2 * len(freqs)
    ca = [Tensor(np.zeros((1, r))) for _ in range(len(freqs) + 1)]
    sb = [Tensor(np.zeros((1, r))) for _ in freqs]
    for j in range(len(freqs)):
        ca[j + 1].data[0, 2 * j] = 1.0
        sb[j].data[0, 2 * j + 1] = 1.0
    out = T.fourier_inject(Tensor(x[:, None]), freqs, ca, sb).data
    ang = x[:, None] * (np.array(freqs) * np.pi)
    assert np.max(np.abs(out[:, 0::2] - np.cos(ang))) <= 1e-12
    assert np.max(np.abs(out[:, 1::2] - np.sin(ang))) <= 1e-12


def test_fourier_inject_calls_trig_once_per_slab(monkeypatch):
    calls = {"cos": 0, "sin": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(T.np, name, counted)
    x = time_axis_input(np.random.default_rng(51), (5, 3, 4), 5)
    monkeypatch.setattr(T, "SLAB", 2 * x.size // x.shape[0])
    freqs = [0.25, 0.5, 1.5, 2.0, 3.25]
    ca = [param(np.random.default_rng(52), (5, 2)) for _ in range(len(freqs) + 1)]
    sb = [param(np.random.default_rng(53), (5, 2)) for _ in freqs]
    backward(weighted_sum(T.fourier_inject(x, freqs, ca, sb)))
    assert calls == {"cos": 3, "sin": 3}  # three slabs, backward calls neither


def test_fourier_inject_keeps_only_the_unit_angle():
    """A taped forward keeps e^{i theta}, two values per input, however many
    frequencies; an untaped one keeps nothing beyond its output."""
    rng = np.random.default_rng(54)
    x = time_axis_input(rng, (96, 8), 96)
    assert len(T._slabs(x.shape)[0]) > 1
    freqs = [2.0 * b / 96 for b in (5, 6, 7, 13, 14)]
    ca = [param(rng, (96, 5)) for _ in range(len(freqs) + 1)]
    sb = [param(rng, (96, 5)) for _ in freqs]
    slack = 64 * 1024  # the op's interleaved coefficients and Python objects
    for taped, bound in ((True, 2 * x.data.nbytes + slack), (False, slack)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if taped:
                out = T.fourier_inject(x, freqs, ca, sb)
            else:
                with no_grad():
                    out = T.fourier_inject(x, freqs, ca, sb)
            held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert held <= bound, (taped, held, x.data.nbytes)
        del out


def test_poly_inject_keeps_no_powers():
    """A taped forward keeps nothing beyond its output: backward rebuilds
    the powers slab by slab."""
    rng = np.random.default_rng(55)
    x = time_axis_input(rng, (96, 8), 96)
    coeffs = [param(rng, (96, 3)) for _ in range(4)]
    slack = 64 * 1024
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = T.poly_inject(x, coeffs)
        held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert held <= slack, (held, x.data.nbytes)


@pytest.mark.parametrize(
    "freqs,bad",
    [([0.5, 1 / np.pi], 1 / np.pi), ([0.5, 0.5 * 513 / 512], 0.5 * 513 / 512),
     ([0.5, -0.25], -0.25), ([0.5, np.nan], np.nan)],
)
def test_fourier_inject_rejects_frequencies_without_a_base(freqs, bad):
    x = Tensor(np.zeros((2, 3)))
    ca = [Tensor(np.zeros((3, 2))) for _ in range(len(freqs) + 1)]
    sb = [Tensor(np.zeros((3, 2))) for _ in freqs]
    with pytest.raises(ValueError, match=f"frequency {bad!r} "):
        T.fourier_inject(x, freqs, ca, sb)


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
    c = Tensor(rng.normal(size=(3, 4)))
    weights = rng.normal(size=(3, 4))
    # add(a, b) hands its one upstream gradient to both leaves by reference,
    # and a's other gradient comes through the mul node; the sweep reaches
    # the add's branch first or second as the parents' order has it
    for shared_first in (True, False):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        branches = [T.add(a, b), a * c]
        s = T.add(*(branches if shared_first else branches[::-1]))
        backward((s * Tensor(weights)).sum())
        np.testing.assert_array_equal(b.grad, weights)
        np.testing.assert_array_equal(a.grad, weights + weights * c.data)
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0  # writing one leaf's grad touches no other's
        np.testing.assert_array_equal(b.grad, weights)


def test_leaf_grads_are_owned_writable_and_row_major():
    rng = np.random.default_rng(24)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(3,)), requires_grad=True)
    z = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    xt = x.permute(1, 0)
    # x's only gradient is a transposed view of the add's upstream, which z
    # holds by reference; y's comes from a fan-out
    backward(weighted_sum(xt + y + z) + weighted_sum(y, seed=98))
    upstream = np.random.default_rng(99).normal(size=(4, 3))  # weighted_sum's
    for leaf in (x, y, z):
        assert leaf.grad.flags.owndata and leaf.grad.flags.writeable
        assert leaf.grad.flags.c_contiguous
    np.testing.assert_array_equal(x.grad, upstream.T)
    np.testing.assert_array_equal(z.grad, upstream)
    assert not np.shares_memory(x.grad, z.grad)
    x.grad += 1.0  # writing a leaf grad touches no other tensor's grad
    np.testing.assert_array_equal(z.grad, upstream)


def test_backward_releases_every_interior_gradient():
    cfg = ModelConfig(
        lookback=24, horizon=8, embed_dim=3, kernel=5, trend_degree=3,
        top_k=3, patch_len=4, stride=4,
    )
    model = ForecastModel(cfg, [1 / 12, 0.25, 0.5], seed=8)
    x = Tensor(np.random.default_rng(9).normal(size=(5, 24)))
    pred = model.forward(x)
    loss = (pred * pred).mean() + model.reg_losses()[0]
    nodes = T.Graph.from_output(loss).nodes
    backward(loss)
    assert all(t.grad is None for t in nodes)
    for name, t in model.parameters():
        assert t.grad is not None and t.grad.shape == t.shape, name
    # the graph is intact: a second backward over it gives the same grads
    first = {name: t.grad.copy() for name, t in model.parameters()}
    for _, t in model.parameters():
        t.grad = None
    backward(loss)
    for name, t in model.parameters():
        np.testing.assert_array_equal(t.grad, first[name], err_msg=name)


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


# --- slabs -----------------------------------------------------------------------

def slab_case(name, rng, permuted):
    """(fused fn, chain fn, input tensor, named parameters) with a leading
    axis of 5, the input permuted as the model feeds it or row-major."""
    if name == "patch_kans":
        base = rng.normal(size=(5, 2, 3, 4))  # (N, d, K, P)
        base[:, :, 1, 2] = 0.0
        x = Tensor(base, requires_grad=True).permute(0, 2, 3, 1)
        params = [taylor_params(rng, 3, 3, prune=(p % 2 == 0)) for p in range(4)]
        named = [
            (f"p{p}.{n}", t)
            for p, ps in enumerate(params)
            for n, t in zip(["w", "a0", "a1", "a2"], ps)
        ]
        fused = lambda x_: T.patch_kans(x_, params)  # noqa: E731
        chain = lambda x_: patch_chain(x_, params)  # noqa: E731
    else:
        fused, chain, _, named = make_case(name, rng)
        x = time_axis_input(rng, (5, 3, 4), 5)
    if not permuted:
        x = Tensor(np.ascontiguousarray(x.data), requires_grad=True)
    return fused, chain, x, named


@pytest.fixture
def small_slabs(monkeypatch):
    """Slabs of two leading rows' worth: the 5 leading rows of every slab
    case run as three slabs of 1, 2 and 2."""
    def use(x):
        monkeypatch.setattr(T, "SLAB", 2 * x.size // x.shape[0])
        slices, _ = T._slabs(x.shape)
        assert [s.stop - s.start for s in slices] == [1, 2, 2]

    return use


@pytest.mark.parametrize("permuted", [True, False])
@pytest.mark.parametrize("name", OPS)
def test_fused_op_over_slabs_matches_fd(name, permuted, small_slabs):
    fused, _, x, named = slab_case(name, np.random.default_rng(40), permuted)
    small_slabs(x)
    err = gradient_check(lambda x_: weighted_sum(fused(x_)), x)
    assert err < FD_TOL, err
    errors = param_fd_errors(lambda: weighted_sum(fused(x)), named)
    for pname, err in errors.items():
        assert err < FD_TOL, f"{name} {pname}: {err}"


@pytest.mark.parametrize("permuted", [True, False])
@pytest.mark.parametrize("name", OPS)
def test_fused_op_over_slabs_matches_chain(name, permuted, small_slabs):
    fused, chain, x, named = slab_case(name, np.random.default_rng(41), permuted)
    small_slabs(x)
    out_f, grads_f = grads_of(fused, x, named)
    out_c, grads_c = grads_of(chain, x, named)
    assert rel_gap(out_f, out_c) < PARITY_RTOL
    for key in grads_c:
        assert rel_gap(grads_f[key], grads_c[key]) < PARITY_RTOL, key
    with no_grad():
        plain = fused(x)
    np.testing.assert_array_equal(plain.data, out_f)


@pytest.mark.parametrize("kind", ["trend", "fourier"])
@pytest.mark.parametrize("permuted", [True, False])
def test_taylor_kan_prior_equals_concat_bitwise(kind, permuted, small_slabs):
    """A prior written into taylor_kan's output gives the concatenation of
    the two ops' outputs, and the same gradients, bit for bit."""
    rng = np.random.default_rng(43)
    _, _, x, named = slab_case("taylor_kan", rng, permuted)
    small_slabs(x)
    ps = [t for _, t in named]
    if kind == "trend":
        coeffs = [param(rng, (5, 3)) for _ in range(4)]
        inject = lambda x_: T.poly_inject(x_, coeffs)  # noqa: E731
    else:
        coeffs = [param(rng, (5, 2)) for _ in range(2 * len(FREQS) + 1)]
        inject = lambda x_: T.fourier_inject(  # noqa: E731
            x_, FREQS, coeffs[: len(FREQS) + 1], coeffs[len(FREQS) + 1 :]
        )
    named = named + [(f"c{k}", c) for k, c in enumerate(coeffs)]
    joined = lambda x_: T.taylor_kan(x_, *ps, prior=inject(x_))  # noqa: E731
    concatenated = lambda x_: T.concat([inject(x_), T.taylor_kan(x_, *ps)], -1)  # noqa: E731
    out_j, grads_j = grads_of(joined, x, named)
    out_c, grads_c = grads_of(concatenated, x, named)
    np.testing.assert_array_equal(out_j, out_c)
    for key in grads_c:
        np.testing.assert_array_equal(grads_j[key], grads_c[key], err_msg=key)
    with no_grad():
        plain = joined(x)
    np.testing.assert_array_equal(plain.data, out_c)


# --- slabs on several threads ------------------------------------------------------

def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def slab_threads(monkeypatch):
    """A list with, per slab loop started since the fixture, the set of
    threads that ran its slabs (by ident). A loop on several workers holds
    its first two slabs at a barrier until both are taken, so two threads
    run them at once. Skips where no loop can run on two threads."""
    if not T._blas_setters():
        pytest.skip("no OpenBLAS thread control: every slab loop runs on one worker")
    loops = []
    real_init = T._SlabLoop.__init__

    def init(self, slices, work, totals, scratch, *slots):
        threads = set()
        loops.append(threads)
        barrier = threading.Barrier(2, timeout=30) if len(scratch) > 1 else None
        started = []

        def spied(*args):
            threads.add(threading.get_ident())
            started.append(None)
            if barrier is not None and len(started) <= 2:
                barrier.wait()
            return work(*args)

        real_init(self, slices, spied, totals, scratch, *slots)

    monkeypatch.setattr(T._SlabLoop, "__init__", init)
    return loops


@pytest.mark.parametrize("permuted", [True, False])
@pytest.mark.parametrize("name", OPS)
def test_threaded_slabs_equal_one_worker_bitwise(
    name, permuted, small_slabs, slab_threads, monkeypatch
):
    """Three slabs on two workers give the one-worker run's forward, no-grad
    forward and gradients, bit for bit: partials are summed in slab order."""
    fused, _, x, named = slab_case(name, np.random.default_rng(44), permuted)
    small_slabs(x)
    runs = {}
    for workers in (1, 2):
        cpus(monkeypatch, workers)
        slab_threads.clear()
        out, grads = grads_of(fused, x, named)
        with no_grad():
            plain = fused(x).data
        assert slab_threads and all(len(t) == workers for t in slab_threads)
        runs[workers] = out, plain, grads
    (out_1, plain_1, grads_1), (out_2, plain_2, grads_2) = runs[1], runs[2]
    np.testing.assert_array_equal(out_2, out_1)
    np.testing.assert_array_equal(plain_2, plain_1)
    for key in grads_1:
        np.testing.assert_array_equal(grads_2[key], grads_1[key], err_msg=key)


@pytest.mark.parametrize("name", OPS)
def test_one_slab_starts_no_thread(name, monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    cpus(monkeypatch, 2)
    monkeypatch.setattr(threading, "Thread", no_thread)
    fused, _, x, named = make_case(name, np.random.default_rng(45))
    assert len(T._slabs(x.shape)[0]) == 1
    grads_of(fused, x, named)


def test_slab_sums_follow_slab_order(slab_threads, monkeypatch):
    """Partials that round differently in another order still sum as the
    serial loop does, however the slabs are spread over the workers."""
    cpus(monkeypatch, 2)
    values = np.array([1e16, 1.0, -1e16, 1.0, 3.0, 1e16, -1e16, 1.0] * 4)
    slices = [slice(i, i + 1) for i in range(len(values))]
    serial = np.zeros(1)
    for v in values:
        serial += v
    for _ in range(5):
        total = np.zeros(1)

        def work(sl, bufs, parts):
            parts[0][...] = values[sl]

        T._slab_loop(slices, (), work, totals=(total,))
        assert total[0] == serial[0]
    assert [len(t) for t in slab_threads] == [2] * 5


def test_workers_capped_at_max_workers(slab_threads, monkeypatch):
    """More CPUs than MAX_WORKERS start MAX_WORKERS threads, and never
    more than one per slab."""
    cpus(monkeypatch, 4 * T.MAX_WORKERS)
    assert T._workers(100) == T.MAX_WORKERS
    assert T._workers(1) == 1
    T._slab_loop([slice(i, i + 1) for i in range(100)], (), lambda *args: None)
    assert [len(t) for t in slab_threads] == [T.MAX_WORKERS]


def test_slab_sums_survive_many_workers_and_fast_switching(slab_threads, monkeypatch):
    """Eight workers, more than the cores, switching threads every
    microsecond: every slab is summed once, in slab order."""
    cpus(monkeypatch, 8)
    monkeypatch.setattr(T, "MAX_WORKERS", 8)
    values = np.random.default_rng(46).normal(size=200) * 10.0 ** np.arange(-100, 100)
    serial = np.zeros(1)
    for v in values:
        serial += v
    slices = [slice(i, i + 1) for i in range(len(values))]
    totals, count = np.zeros(1), np.zeros(1)

    def work(sl, bufs, parts):
        parts[0][...] = values[sl]
        parts[1][...] = 1.0

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=T._slab_loop, args=(slices, (), work), kwargs={"totals": (totals, count)}
        )
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert count[0] == len(values)
    assert totals[0] == serial[0]
    assert len(slab_threads) == 1 and len(slab_threads[0]) >= 2


class SlabFailure(Exception):
    pass


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_slab_error_reaches_caller_with_its_type(failing, slab_threads, monkeypatch):
    """A slab that raises on a helper thread, or on the caller while a
    helper's finished slab waits for it to be summed first, fails the loop
    with its own exception, and the loop leaves no thread running."""
    cpus(monkeypatch, 2)
    before = threading.active_count()
    caller = threading.get_ident()

    def work(sl, bufs, parts):
        parts[0][...] = 1.0
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise SlabFailure(f"slab {sl.start}")

    slices = [slice(i, i + 1) for i in range(6)]
    with pytest.raises(SlabFailure, match="slab [01]"):
        T._slab_loop(slices, (), work, totals=(np.zeros(1),))
    assert [len(t) for t in slab_threads] == [2]
    assert threading.active_count() == before


@pytest.mark.parametrize("name", ["taylor_kan", "poly_inject", "fourier_inject"])
def test_fused_op_on_one_row(name):
    fused, chain, x, named = make_case(name, np.random.default_rng(42))
    row = Tensor(np.ascontiguousarray(x.data[0, 0, 0]), requires_grad=True)
    out_f, grads_f = grads_of(fused, row, named)
    out_c, grads_c = grads_of(chain, row, named)
    width = named[0][1].shape[0 if name == "taylor_kan" else 1]
    assert out_f.shape == out_c.shape == (width,)
    assert rel_gap(out_f, out_c) < PARITY_RTOL
    for key in grads_c:
        assert rel_gap(grads_f[key], grads_c[key]) < PARITY_RTOL, key
    assert gradient_check(lambda x_: weighted_sum(fused(x_)), row) < FD_TOL
