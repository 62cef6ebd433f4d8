"""Fused KAN ops against finite differences and the primitive chains they
replace.

The ``*_chain`` functions below are the primitive-op forms the model used
before the fused ops; they stay here as oracles for values and gradients.
"""

import math
import os
import sys
import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from gradcheck_util import gradient_check, param_fd_errors
from itfkan import tensor as T
from itfkan.model import ForecastModel, ModelConfig, total_loss
from itfkan.tensor import ShapeError, Tensor, backward, no_grad
from itfkan.tfsynergy import grid_map, n_freq_bins, spectrum_grid

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


def windows_chain(x, patch_len, stride):
    """The patch windows of an (N, d, L) series by the slice/concat loop
    PatchCompressor ran before the fused ops, over its (N, L, d) view."""
    x = T.permute(x, (0, 2, 1))
    n, length, d = x.shape
    count = (length - patch_len) // stride + 2
    padded = T.concat([x] + [x[:, length - 1 : length, :]] * stride, axis=1)
    windows = [
        T.reshape(padded[:, w * stride : w * stride + patch_len, :], (n, 1, patch_len * d))
        for w in range(count)
    ]
    return T.concat(windows, axis=1)


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


def leaf_input(data):
    """An input maker: returns the same leaf over data on every call."""
    leaf = Tensor(data, requires_grad=True)
    return lambda: leaf


def view_input(data, axes):
    """An input maker: each call records a new permute of one leaf over
    data. backward consumes the graph it sweeps, so every graph builds its
    own view of the leaf."""
    leaf = Tensor(data, requires_grad=True)
    return lambda: leaf.permute(axes)


def time_axis_input(rng, lead, width):
    """An input maker for a time-axis op: a permuted (…, d, L) view of a
    (…, L, d) leaf, with exact zeros among the entries. The model feeds
    these ops row-major (…, d, L) arrays; the strided view checks that an
    op takes any layout."""
    base = rng.normal(size=lead[:-1] + (width, lead[-1]))
    base.reshape(-1)[::7] = 0.0
    return view_input(base, tuple(range(len(lead) - 1)) + (len(lead), len(lead) - 1))


def make_case(name, rng):
    """(fused fn, chain fn, input maker, named parameters) for one op. The
    input maker returns the op's input, a leaf or a view of one built on
    each call (see ``view_input``)."""
    if name == "taylor_kan":
        make_x = time_axis_input(rng, (2, 3, 4), 5)
        ps = taylor_params(rng, 4, 5)
        names = ["w", "a0", "a1", "a2"]
        return (
            lambda x_: T.taylor_kan(x_, [ps]),
            lambda x_: taylor_chain(x_, *ps),
            make_x, list(zip(names, ps)),
        )
    if name == "taylor_kan_chain":
        make_x = time_axis_input(rng, (2, 3, 4), 5)
        coeffs = [param(rng, (5, 2)) for _ in range(3)]
        first, second = taylor_params(rng, 3, 5), taylor_params(rng, 4, 5)
        names = ["w", "a0", "a1", "a2"]
        return (
            lambda x_: T.taylor_kan(x_, [first, second], prior=T.poly_inject(x_, coeffs)),
            lambda x_: taylor_chain(
                T.concat([poly_chain(x_, coeffs), taylor_chain(x_, *first)], -1), *second
            ),
            make_x,
            [(f"l0.{n}", t) for n, t in zip(names, first)]
            + [(f"l1.{n}", t) for n, t in zip(names, second)]
            + [(f"poly{k}", c) for k, c in enumerate(coeffs)],
        )
    if name == "poly_inject":
        make_x = time_axis_input(rng, (2, 3, 4), 5)
        coeffs = [param(rng, (5, 3)) for _ in range(4)]
        coeffs[2].data[1, :] = 0.0
        return (
            lambda x_: T.poly_inject(x_, coeffs),
            lambda x_: poly_chain(x_, coeffs),
            make_x, [(f"poly{k}", c) for k, c in enumerate(coeffs)],
        )
    if name == "fourier_inject":
        make_x = time_axis_input(rng, (2, 3, 4), 5)
        ca = [param(rng, (5, 2)) for _ in range(len(FREQS) + 1)]
        sb = [param(rng, (5, 2)) for _ in range(len(FREQS))]
        ca[1].data[0, :] = 0.0
        return (
            lambda x_: T.fourier_inject(x_, FREQS, ca, sb),
            lambda x_: fourier_chain(x_, FREQS, ca, sb),
            make_x,
            [(f"fa{k}", t) for k, t in enumerate(ca)]
            + [(f"fb{k + 1}", t) for k, t in enumerate(sb)],
        )
    if name == "patch_kans":
        patches = rng.normal(size=(2, 4, 2))  # (N, P, d): a 3 x 4 grid
        patches[:, 2, :] = 0.0
        return patch_kans_case(rng, leaf_input(patches))
    if name == "patch_compress":
        series = rng.normal(size=(2, 3, 9))  # (N, d, L)
        series[:, :, 4] = 0.0
        return patch_compress_case(rng, leaf_input(series))
    raise KeyError(name)


def patch_kans_case(rng, make_x):
    """The patch_kans case over (N, 4, d) patches, whose grid is 3 x 4."""
    params = [taylor_params(rng, 3, 3, prune=(p % 2 == 0)) for p in range(4)]
    named = [
        (f"p{p}.{n}", t)
        for p, ps in enumerate(params)
        for n, t in zip(["w", "a0", "a1", "a2"], ps)
    ]
    return (
        lambda x_: T.patch_kans(x_, grid_map(4), params),
        lambda x_: patch_chain(spectrum_grid(x_), params),
        make_x, named,
    )


def patch_compress_case(rng, make_x):
    """The patch_compress case over an (N, 3, 9) series: overlapping
    windows of 4 steps at stride 2, the last one reaching into the pad."""
    w = param(rng, (12, 3))
    return (
        lambda x_: T.patch_compress(x_, w, 4, 2),
        lambda x_: T.matmul(windows_chain(x_, 4, 2), w),
        make_x, [("w", w)],
    )


OPS = [
    "taylor_kan", "taylor_kan_chain", "poly_inject", "fourier_inject", "patch_kans",
    "patch_compress",
]
# the tape op of each case's output: the chain case's two layers are one
# taylor_kan node, whose prior is a poly_inject node
TAPE_OP = {"taylor_kan_chain": "taylor_kan"}


def slab_shape(name, x):
    """The shape whose first axis the op over x cuts into slabs: patch_kans
    cuts the (N, K, P, d) grid it builds from the (N, P, d) patches."""
    if name == "patch_kans":
        n, n_patches, d = x.shape
        return (n, n_freq_bins(n_patches), n_patches, d)
    return x.shape


def weighted_sum(out, seed=99):
    weights = np.random.default_rng(seed).normal(size=out.shape)
    return (out * Tensor(weights)).sum()


# --- finite differences ------------------------------------------------------

@pytest.mark.parametrize("name", OPS)
def test_fused_op_input_gradient_matches_fd(name):
    fused, _, make_x, _ = make_case(name, np.random.default_rng(1))
    # gradient_check perturbs a contiguous copy of the (possibly permuted) input
    err = gradient_check(lambda x_: weighted_sum(fused(x_)), make_x())
    assert err < FD_TOL, err


@pytest.mark.parametrize("name", OPS)
def test_fused_op_parameter_gradients_match_fd(name):
    fused, _, make_x, named = make_case(name, np.random.default_rng(2))
    errors = param_fd_errors(lambda: weighted_sum(fused(make_x())), named)
    for pname, err in errors.items():
        assert err < FD_TOL, f"{name} {pname}: {err}"


# --- parity with the primitive chains ------------------------------------------

def rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def grads_of(fn, make_x, named):
    """fn's output over the input make_x builds, and the gradients of its
    weighted sum for the named parameters and for the input's leaf."""
    x = make_x()
    leaf = x
    while leaf.op is not None:  # the permuted input's leaf
        leaf = leaf.parents[0]
    for t in [leaf] + [t for _, t in named]:
        t.grad = None
    out = fn(x)
    backward(weighted_sum(out))
    grads = {n: t.grad.copy() for n, t in named}
    grads["x"] = leaf.grad.copy()
    return out.data.copy(), grads


@pytest.mark.parametrize("name", OPS)
def test_fused_op_matches_primitive_chain(name):
    fused, chain, make_x, named = make_case(name, np.random.default_rng(3))
    out_f, grads_f = grads_of(fused, make_x, named)
    out_c, grads_c = grads_of(chain, make_x, named)
    assert rel_gap(out_f, out_c) < PARITY_RTOL
    for key in grads_c:
        assert rel_gap(grads_f[key], grads_c[key]) < PARITY_RTOL, key


@pytest.mark.parametrize("name", OPS)
def test_fused_op_no_grad_equals_taped(name):
    fused, _, make_x, _ = make_case(name, np.random.default_rng(4))
    x = make_x()
    taped = fused(x)
    assert taped.op == TAPE_OP.get(name, name)
    with no_grad():
        plain = fused(x)
    assert plain.op is None
    np.testing.assert_array_equal(plain.data, taped.data)


def test_fused_ops_reject_bad_shapes():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 4)))
    w, a0, a1, a2 = (Tensor(rng.normal(size=(3, 5))) for _ in range(4))
    with pytest.raises(ShapeError):
        T.taylor_kan(x, [(w, a0, a1, a2)])
    with pytest.raises(ShapeError):  # the prior's leading axes are not x's
        T.taylor_kan(x, [[Tensor(rng.normal(size=(3, 4))) for _ in range(4)]],
                     prior=Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        T.poly_inject(x, [Tensor(np.zeros((4, 2)))])
    with pytest.raises(ShapeError):
        T.fourier_inject(x, [0.5], [Tensor(np.zeros((4, 2)))] * 2, [])
    patches = Tensor(rng.normal(size=(1, 3, 2)))
    params = [[Tensor(np.zeros((3, 3)))] * 4] * 3
    with pytest.raises(ShapeError):  # a 3 x 2 grid for 3 x 3 KANs
        T.patch_kans(patches, grid_map(2), params)
    with pytest.raises(ShapeError):  # the map is for 2 patches, not 3
        T.patch_kans(patches, grid_map(2), params[:2])
    with pytest.raises(ShapeError):  # the old call, on a grid
        T.patch_kans(Tensor(rng.normal(size=(1, 2, 3, 2))), grid_map(3), params)


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
    x = time_axis_input(np.random.default_rng(51), (5, 3, 4), 5)()
    monkeypatch.setattr(T, "SLAB", 2 * x.size // x.shape[0])
    freqs = [0.25, 0.5, 1.5, 2.0, 3.25]
    ca = [param(np.random.default_rng(52), (5, 2)) for _ in range(len(freqs) + 1)]
    sb = [param(np.random.default_rng(53), (5, 2)) for _ in freqs]
    out = T.fourier_inject(x, freqs, ca, sb)
    assert calls == {"cos": 3, "sin": 3}  # three slabs
    backward(weighted_sum(out))
    assert calls == {"cos": 6, "sin": 6}  # backward rebuilds each slab's unit angle


def test_fourier_inject_keeps_only_its_output():
    """Neither a taped nor an untaped forward keeps anything beyond its
    output and the op's small per-call constants, however many
    frequencies: backward rebuilds e^{i theta} slab by slab."""
    rng = np.random.default_rng(54)
    x = time_axis_input(rng, (96, 8), 96)()
    assert len(T._slabs(x.shape)[0]) > 1
    freqs = [2.0 * b / 96 for b in (5, 6, 7, 13, 14)]
    ca = [param(rng, (96, 5)) for _ in range(len(freqs) + 1)]
    sb = [param(rng, (96, 5)) for _ in freqs]
    slack = 64 * 1024  # the op's interleaved coefficients and Python objects
    for taped in (True, False):
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
        assert held <= slack, (taped, held, x.data.nbytes)
        del out


def rebuilding_case(name, rng):
    """(taped call of the op, its input) with the input over several slabs."""
    if name == "poly_inject":
        x = time_axis_input(rng, (96, 8), 96)()
        coeffs = [param(rng, (96, 3)) for _ in range(4)]
        return (lambda: T.poly_inject(x, coeffs)), x
    if name == "taylor_kan":
        x = time_axis_input(rng, (96, 8), 96)()
        ps = taylor_params(rng, 8, 96)
        return (lambda: T.taylor_kan(x, [ps])), x
    if name == "taylor_kan_chain":
        x = time_axis_input(rng, (96, 8), 96)()
        prior = T.poly_inject(x, [param(rng, (96, 3)) for _ in range(4)])
        first, second = taylor_params(rng, 93, 96), taylor_params(rng, 8, 96)
        return (lambda: T.taylor_kan(x, [first, second], prior=prior)), x
    if name == "patch_compress":
        x = Tensor(rng.normal(size=(64, 32, 96)), requires_grad=True)
        w = param(rng, (6 * 32, 32))
        return (lambda: T.patch_compress(x, w, 6, 6)), x
    patches = Tensor(rng.normal(size=(64, 8, 32)), requires_grad=True)
    params = [taylor_params(rng, 5, 5) for _ in range(8)]
    maps = grid_map(8)  # built and cached before the measured call
    return (lambda: T.patch_kans(patches, maps, params)), patches


@pytest.mark.parametrize(
    "name", ["poly_inject", "taylor_kan", "taylor_kan_chain", "patch_kans", "patch_compress"]
)
def test_taped_forward_keeps_only_its_output(name):
    """A taped forward keeps nothing beyond its output and the op's small
    per-call constants: backward rebuilds the polynomial powers, the
    sigmoid, a chain's hidden layer (here 96 wide, 590 KB whole), the
    time-frequency grid and the patch windows slab by slab."""
    call, x = rebuilding_case(name, np.random.default_rng(55))
    assert len(T._slabs(slab_shape(name, x))[0]) > 1
    slack = 64 * 1024
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert out.requires_grad
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


# --- patch windows ---------------------------------------------------------------
#
# With an identity map, patch_compress returns the windows it gathers.

def windows_of(x, patch_len, stride):
    return T.patch_compress(x, Tensor(np.eye(patch_len * x.shape[1])), patch_len, stride)


# (patch_len, stride) over a 9-step series: tiled and overlapping windows;
# in every case the last window reaches into the tail pad
WINDOW_CASES = [(4, 4), (4, 2), (5, 3), (3, 1)]


@pytest.mark.parametrize("patch_len,stride", WINDOW_CASES)
def test_patch_windows_input_gradient_matches_fd(patch_len, stride):
    x = Tensor(np.random.default_rng(20).normal(size=(2, 3, 9)))
    err = gradient_check(
        lambda x_: weighted_sum(windows_of(x_, patch_len, stride)), x
    )
    assert err < FD_TOL, err


@pytest.mark.parametrize("patch_len,stride", WINDOW_CASES)
def test_patch_windows_matches_slice_chain(patch_len, stride):
    # a permuted (N, d, L) view of an (N, L, d) array, as a strided input
    make_x = view_input(np.random.default_rng(21).normal(size=(2, 9, 3)), (0, 2, 1))
    out_w, grads_w = grads_of(lambda x_: windows_of(x_, patch_len, stride), make_x, [])
    out_c, grads_c = grads_of(lambda x_: windows_chain(x_, patch_len, stride), make_x, [])
    np.testing.assert_array_equal(out_w, out_c)
    assert out_w.shape == (2, (9 - patch_len) // stride + 2, patch_len * 3)
    assert rel_gap(grads_w["x"], grads_c["x"]) < PARITY_RTOL


def test_patch_windows_no_grad_equals_taped():
    x = Tensor(np.random.default_rng(22).normal(size=(2, 3, 9)), requires_grad=True)
    taped = windows_of(x, 4, 2)
    assert taped.op == "patch_compress"
    with no_grad():
        plain = windows_of(x, 4, 2)
    assert plain.op is None
    np.testing.assert_array_equal(plain.data, taped.data)


def test_patch_windows_rejects_bad_shapes():
    x = Tensor(np.zeros((2, 3, 5)))
    for patch_len, stride in [(6, 2), (0, 1), (3, 0)]:
        with pytest.raises(ShapeError):
            windows_of(x, patch_len, stride)
    with pytest.raises(ShapeError):
        T.patch_compress(Tensor(np.zeros((5, 3))), Tensor(np.eye(6)), 2, 2)
    with pytest.raises(ShapeError):  # w takes windows of 2 steps of 3, not 3 of 3
        T.patch_compress(x, Tensor(np.zeros((6, 3))), 3, 2)


def test_patch_kans_builds_spectrum_grid_bitwise(monkeypatch):
    """The grid slabs patch_kans builds, in forward and in backward, are
    spectrum_grid's grid bit for bit, so calibration's ranges are those of
    the grid the per-patch KANs see."""
    cpus(monkeypatch, 1)  # slabs in order, on the caller
    rng = np.random.default_rng(25)
    patches = Tensor(rng.normal(size=(64, 17, 32)), requires_grad=True)
    params = [taylor_params(rng, 9, 9) for _ in range(17)]
    seen = []
    real = T.sigmoid

    def recording(x, out=None):
        seen.append(x.copy())  # each slab's grid, before its sigmoid
        return real(x, out=out)

    monkeypatch.setattr(T, "sigmoid", recording)
    backward(weighted_sum(T.patch_kans(patches, grid_map(17), params)))
    grid = spectrum_grid(patches).data
    count = len(T._slabs(grid.shape)[0])
    assert count > 1 and len(seen) == 2 * count
    np.testing.assert_array_equal(np.concatenate(seen[:count]), grid)
    np.testing.assert_array_equal(np.concatenate(seen[count:]), grid)


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


def small_model_step():
    """A small model, its forecast of 5 windows and a loss over it that
    reaches every parameter and one regulariser."""
    cfg = ModelConfig(
        lookback=24, horizon=8, embed_dim=3, kernel=5, trend_degree=3,
        top_k=3, patch_len=4, stride=4,
    )
    model = ForecastModel(cfg, [1 / 12, 0.25, 0.5], seed=8)
    x = Tensor(np.random.default_rng(9).normal(size=(5, 24)))
    pred = model.forward(x)
    return model, pred, (pred * pred).mean() + model.reg_losses()[0]


CONSUMED = "was consumed by an earlier backward"


def test_backward_releases_every_interior_gradient():
    model, _, loss = small_model_step()
    nodes = T.Graph.from_output(loss).nodes
    backward(loss)
    assert all(t.grad is None for t in nodes)
    for name, t in model.parameters():
        assert t.grad is not None and t.grad.shape == t.shape, name
    # the graph is consumed: a second backward over it raises before it
    # touches a gradient
    first = {name: t.grad.copy() for name, t in model.parameters()}
    with pytest.raises(RuntimeError, match=f"'add' {CONSUMED}"):
        backward(loss)
    for name, t in model.parameters():
        np.testing.assert_array_equal(t.grad, first[name], err_msg=name)


def test_backward_consumes_the_graph():
    """After backward no node keeps its rule, and a non-leaf of the swept
    graph that feeds a new graph fails that graph's backward by name."""
    model, pred, loss = small_model_step()
    nodes = T.Graph.from_output(loss).nodes
    backward(loss)
    assert nodes and all(node.backward is None for node in nodes)
    first = {name: t.grad.copy() for name, t in model.parameters()}
    with pytest.raises(RuntimeError, match=f"^backward: the graph through 'add' {CONSUMED}"):
        backward(weighted_sum(pred))  # pred is the head's bias add
    for name, t in model.parameters():
        np.testing.assert_array_equal(t.grad, first[name], err_msg=name)
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    h = x.permute(1, 0)
    backward(weighted_sum(h))
    with pytest.raises(RuntimeError, match=f"'permute' {CONSUMED}"):
        backward(weighted_sum(h * 2.0))


def test_backward_frees_a_rules_arrays_before_it_returns():
    """With the forecast and the loss still referenced, an array that only
    backward rules hold is freed by the time backward returns: here the
    trend KAN's input, which its taylor_kan (both layers in one node) and
    its prior keep."""
    model, pred, loss = small_model_step()
    w = model.trend_kan.layers[1].w
    (rule,) = [
        node.backward for node in T.Graph.from_output(loss).nodes
        if node.op == "taylor_kan" and any(p is w for p in node.parents)
    ]
    cells = dict(zip(rule.__code__.co_freevars, rule.__closure__))
    layer_input = weakref.ref(data_owner(cells["xd"].cell_contents))
    del rule, cells
    assert layer_input() is not None
    backward(loss)
    assert layer_input() is None
    assert pred.requires_grad and loss.requires_grad  # both still referenced


def test_backward_frees_a_summed_gradient_before_the_next_rule():
    """A gradient that backward has added into its parent's is freed before
    the next rule runs, so it never lives beside that rule's arrays."""
    x = Tensor(np.random.default_rng(64).normal(size=(4, 3)), requires_grad=True)
    returned, alive = [], []

    def probe(g):
        alive.extend(ref() is not None for ref in returned)
        return (g,)

    h = Tensor._from_op(x.data.copy(), "probe", (x,), probe)
    u, v = h * 2.0, h * 3.0
    for node in (u._node, v._node):
        def recording(g, _rule=node.backward):
            grads = _rule(g)
            returned.append(weakref.ref(grads[0]))
            return grads

        node.backward = recording
    backward((u + v).sum())
    assert alive == [False, False]
    np.testing.assert_array_equal(x.grad, np.full((4, 3), 5.0))


# --- what the tape keeps ---------------------------------------------------------

def tensors_in(value):
    """The tensors in a closure cell's value, inside tuples, lists and dicts too."""
    if isinstance(value, Tensor):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [t for v in value for t in tensors_in(v)]
    return []


def closures_holding_tensors(loss):
    """(op, variable) for each backward closure cell behind loss that holds a tensor."""
    return [
        (node.op, name)
        for node in T.Graph.from_output(loss).nodes
        for name, cell in zip(node.backward.__code__.co_freevars, node.backward.__closure__ or ())
        if tensors_in(cell.cell_contents)
    ]


@pytest.mark.parametrize("task", ["long", "short"])
def test_no_backward_closure_of_the_model_holds_a_tensor(task):
    """Every rule on a training step's tape (forecast, loss, regularisers)
    captures arrays and shapes, never a tensor with its data."""
    cfg = ModelConfig(
        lookback=24, horizon=8, embed_dim=3, kernel=5, trend_degree=3,
        top_k=3, patch_len=4, stride=4,
    )
    model = ForecastModel(cfg, [1 / 12, 0.25, 0.5], seed=8)
    rng = np.random.default_rng(9)
    x, y = Tensor(rng.normal(size=(5, 24))), Tensor(rng.normal(size=(5, 8)))
    loss, _ = total_loss(model.forward(x), y, model, cfg.reg_lambda, task)
    assert len(T.Graph.from_output(loss)) == {"long": 27, "short": 33}[task]
    assert closures_holding_tensors(loss) == []


def arrays_in(value, seen):
    """The arrays a closure cell's value reaches: inside tuples, lists and
    dicts, and in the closures of the functions it holds."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in arrays_in(v, seen)]
    if isinstance(value, types.FunctionType) and id(value) not in seen:
        seen.add(id(value))
        return [a for cell in value.__closure__ or () for a in arrays_in(cell.cell_contents, seen)]
    return []


def test_tape_keeps_neither_the_grid_nor_the_patch_windows():
    """No backward rule of a training step captures an array of the
    (N, K, P, d) time-frequency grid's shape or of the (N, W, patch_len*d)
    patch windows': the fused ops rebuild both slab by slab."""
    cfg = ModelConfig(
        lookback=24, horizon=8, embed_dim=3, kernel=5, trend_degree=3,
        top_k=3, patch_len=4, stride=4,
    )
    model = ForecastModel(cfg, [1 / 12, 0.25, 0.5], seed=8)
    rng = np.random.default_rng(9)
    x, y = Tensor(rng.normal(size=(5, 24))), Tensor(rng.normal(size=(5, 8)))
    loss, _ = total_loss(model.forward(x), y, model, cfg.reg_lambda, "long")
    seen = set()
    shapes = {
        a.shape for node in T.Graph.from_output(loss).nodes for a in arrays_in(node.backward, seen)
    }
    n_patches, d = model.n_patches, cfg.embed_dim
    assert (5, model.k_bins, n_patches, d) not in shapes
    assert (5, n_patches, cfg.patch_len * d) not in shapes
    assert (5, n_patches, d) in shapes  # the patches, which patch_kans keeps


def test_no_backward_closure_of_a_primitive_holds_a_tensor():
    rng = np.random.default_rng(61)
    x = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    h = T.matmul(T.silu(x), w) / (T.sin(x) + 2.0) - T.sin(x) * T.cos(x)
    h = T.concat([T.abs_(h), T.pow_int(h, 3)], axis=2)[:, 1:]
    w2 = Tensor(rng.normal(size=(12, 2)), requires_grad=True)
    h = T.patch_compress(h.permute(0, 2, 1).reshape(2, 6, 5), w2, 2, 2)
    loss = T.sum_axis(h, 1).mean() + T.l2_penalty([(w, 0.5), (x, 2.0)])
    assert {node.op for node in T.Graph.from_output(loss).nodes} == {
        "abs", "add", "concat", "cos", "div", "l2_penalty", "matmul",
        "mean", "mul", "patch_compress", "permute", "pow_int", "reshape",
        "silu", "sin", "slice", "sub", "sum",
    }
    assert closures_holding_tensors(loss) == []


def data_owner(a):
    """The array that owns the buffer of the array a."""
    while a.base is not None:
        a = a.base
    return a


SHAPE_READERS = {
    "add": lambda h: h + Tensor(np.ones(h.shape)),
    "sub": lambda h: Tensor(np.ones(h.shape)) - h,
    "mean": lambda h: h.mean(axis=0),
}


def loss_over_dropped_output(make, reader):
    """weighted_sum(reader(make())) once the op output make() returned is
    dropped, and a weak reference to that output's buffer."""
    out = make()
    owner = weakref.ref(data_owner(out.data))
    return weighted_sum(reader(out)), owner


@pytest.mark.parametrize("reader", SHAPE_READERS)
def test_output_read_only_by_a_shape_rule_is_freed(reader):
    """add, sub and mean read only their operands' shapes, so an op output
    read by nothing else is freed as soon as the caller drops it, while
    its node stays on the tape."""
    rng = np.random.default_rng(62)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    c = Tensor(rng.normal(size=(4, 3)))

    def loss_and_owner():
        return loss_over_dropped_output(lambda: x * c, SHAPE_READERS[reader])

    loss, owner = loss_and_owner()
    assert owner() is None
    assert "mul" in {node.op for node in T.Graph.from_output(loss).nodes}
    errors = param_fd_errors(lambda: loss_and_owner()[0], [("x", x)])
    assert errors["x"] < FD_TOL, errors


@pytest.mark.parametrize("name", OPS)
def test_fused_op_rule_keeps_not_its_own_output(name):
    fused, _, make_x, named = make_case(name, np.random.default_rng(63))

    def loss_and_owner():
        return loss_over_dropped_output(lambda: fused(make_x()), SHAPE_READERS["add"])

    loss, owner = loss_and_owner()
    assert owner() is None
    assert TAPE_OP.get(name, name) in {node.op for node in T.Graph.from_output(loss).nodes}
    errors = param_fd_errors(lambda: loss_and_owner()[0], named)
    for pname, err in errors.items():
        assert err < FD_TOL, f"{name} {pname}: {err}"


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
    """(fused fn, chain fn, input maker, named parameters) with a leading
    axis of 5, the input a permuted view or row-major, as the model feeds
    it."""
    if name == "patch_kans":
        base = rng.normal(size=(5, 2, 4))  # (N, d, P)
        base[:, :, 2] = 0.0
        fused, chain, make_x, named = patch_kans_case(rng, view_input(base, (0, 2, 1)))
    elif name == "patch_compress":
        base = rng.normal(size=(5, 9, 3))  # (N, L, d)
        base[:, 4, :] = 0.0
        fused, chain, make_x, named = patch_compress_case(rng, view_input(base, (0, 2, 1)))
    else:
        fused, chain, _, named = make_case(name, rng)
        make_x = time_axis_input(rng, (5, 3, 4), 5)
    if not permuted:
        make_x = leaf_input(np.ascontiguousarray(make_x().data))
    return fused, chain, make_x, named


@pytest.fixture
def small_slabs(monkeypatch):
    """Slabs of two leading rows' worth of ``shape``: the 5 leading rows of
    every slab case run as three slabs of 1, 2 and 2."""
    def use(shape):
        monkeypatch.setattr(T, "SLAB", 2 * math.prod(shape[1:]))
        slices, _ = T._slabs(shape)
        assert [s.stop - s.start for s in slices] == [1, 2, 2]

    return use


@pytest.mark.parametrize("permuted", [True, False])
@pytest.mark.parametrize("name", OPS)
def test_fused_op_over_slabs_matches_fd(name, permuted, small_slabs):
    fused, _, make_x, named = slab_case(name, np.random.default_rng(40), permuted)
    small_slabs(slab_shape(name, make_x()))
    err = gradient_check(lambda x_: weighted_sum(fused(x_)), make_x())
    assert err < FD_TOL, err
    errors = param_fd_errors(lambda: weighted_sum(fused(make_x())), named)
    for pname, err in errors.items():
        assert err < FD_TOL, f"{name} {pname}: {err}"


@pytest.mark.parametrize("permuted", [True, False])
@pytest.mark.parametrize("name", OPS)
def test_fused_op_over_slabs_matches_chain(name, permuted, small_slabs):
    fused, chain, make_x, named = slab_case(name, np.random.default_rng(41), permuted)
    small_slabs(slab_shape(name, make_x()))
    out_f, grads_f = grads_of(fused, make_x, named)
    out_c, grads_c = grads_of(chain, make_x, named)
    assert rel_gap(out_f, out_c) < PARITY_RTOL
    for key in grads_c:
        assert rel_gap(grads_f[key], grads_c[key]) < PARITY_RTOL, key
    with no_grad():
        plain = fused(make_x())
    np.testing.assert_array_equal(plain.data, out_f)


@pytest.mark.parametrize("kind", ["trend", "fourier"])
@pytest.mark.parametrize("permuted", [True, False])
def test_taylor_kan_prior_equals_concat_bitwise(kind, permuted, small_slabs):
    """A prior written into taylor_kan's output gives the concatenation of
    the two ops' outputs, and the same gradients, bit for bit."""
    rng = np.random.default_rng(43)
    _, _, make_x, named = slab_case("taylor_kan", rng, permuted)
    small_slabs(make_x().shape)
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
    joined = lambda x_: T.taylor_kan(x_, [ps], prior=inject(x_))  # noqa: E731
    concatenated = lambda x_: T.concat([inject(x_), T.taylor_kan(x_, [ps])], -1)  # noqa: E731
    out_j, grads_j = grads_of(joined, make_x, named)
    out_c, grads_c = grads_of(concatenated, make_x, named)
    np.testing.assert_array_equal(out_j, out_c)
    for key in grads_c:
        np.testing.assert_array_equal(grads_j[key], grads_c[key], err_msg=key)
    with no_grad():
        plain = joined(make_x())
    np.testing.assert_array_equal(plain.data, out_c)


# --- chained layers ------------------------------------------------------------------

def prior_of(kind, rng, width):
    """A prior maker over inputs of last axis ``width`` and its coefficients:
    the trend prior's 3 columns, the Fourier prior's 5 or none."""
    if kind == "trend":
        coeffs = [param(rng, (width, 3)) for _ in range(4)]
        return (lambda x_: T.poly_inject(x_, coeffs)), coeffs
    if kind == "fourier":
        freqs = [2.0 * b / 96 for b in (5, 6, 7, 13, 14)]
        coeffs = [param(rng, (width, 5)) for _ in range(2 * len(freqs) + 1)]
        return (
            lambda x_: T.fourier_inject(x_, freqs, coeffs[: len(freqs) + 1], coeffs[len(freqs) + 1 :]),
            coeffs,
        )
    return (lambda x_: None), []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("permuted", [True, False])
@pytest.mark.parametrize("kind", ["trend", "fourier", None])
def test_taylor_kan_chain_equals_one_layer_twice_bitwise(kind, permuted, workers, small_slabs, monkeypatch):
    """Two layers in one node give, over several slabs and on one or two
    workers, the taped and no-grad outputs and every gradient of the
    one-layer op applied twice, bit for bit: the second layer reads the
    first's rows from scratch as it would read them from its whole output."""
    cpus(monkeypatch, workers)
    rng = np.random.default_rng(47)
    make_x = time_axis_input(rng, (5, 3, 4), 8)
    if not permuted:
        make_x = leaf_input(np.ascontiguousarray(make_x().data))
    small_slabs(make_x().shape)
    inject, coeffs = prior_of(kind, rng, 8)
    r = {"trend": 3, "fourier": 5, None: 0}[kind]
    first, second = taylor_params(rng, 8 - r, 8), taylor_params(rng, 4, 8)
    named = [(f"c{k}", c) for k, c in enumerate(coeffs)]
    named += [(f"l{k}.{n}", t) for k, ps in enumerate((first, second)) for n, t in zip("w0123", ps)]

    def chained(x_):
        return T.taylor_kan(x_, [first, second], prior=inject(x_))

    def twice(x_):
        return T.taylor_kan(T.taylor_kan(x_, [first], prior=inject(x_)), [second])

    out_c, grads_c = grads_of(chained, make_x, named)
    out_t, grads_t = grads_of(twice, make_x, named)
    np.testing.assert_array_equal(out_c, out_t)
    for key in grads_t:
        np.testing.assert_array_equal(grads_c[key], grads_t[key], err_msg=key)
    with no_grad():
        plain = chained(make_x())
    np.testing.assert_array_equal(plain.data, out_t)


def test_taylor_kan_three_layers_equal_one_layer_thrice_bitwise(small_slabs):
    """A third layer takes its input gradient in the buffer a second one
    does not use."""
    rng = np.random.default_rng(49)
    make_x = time_axis_input(rng, (5, 3, 4), 8)
    small_slabs(make_x().shape)
    inject, coeffs = prior_of("trend", rng, 8)
    layers = [taylor_params(rng, 5, 8), taylor_params(rng, 8, 8), taylor_params(rng, 4, 8)]
    named = [(f"c{k}", c) for k, c in enumerate(coeffs)]
    named += [(f"l{k}.{n}", t) for k, ps in enumerate(layers) for n, t in zip("w0123", ps)]

    def chained(x_):
        return T.taylor_kan(x_, layers, prior=inject(x_))

    def thrice(x_):
        h = T.taylor_kan(x_, layers[:1], prior=inject(x_))
        return T.taylor_kan(T.taylor_kan(h, layers[1:2]), layers[2:])

    out_c, grads_c = grads_of(chained, make_x, named)
    out_t, grads_t = grads_of(thrice, make_x, named)
    np.testing.assert_array_equal(out_c, out_t)
    for key in grads_t:
        np.testing.assert_array_equal(grads_c[key], grads_t[key], err_msg=key)


def in_place_case(kind, depth, rng):
    """A row-major (5, 3, 4, 8) input, a prior maker of ``kind`` and a
    chain of ``depth`` layers whose output is as wide as the input."""
    base = np.ascontiguousarray(time_axis_input(rng, (5, 3, 4), 8)().data)
    inject, coeffs = prior_of(kind, rng, 8)
    r = {"trend": 3, "fourier": 5, None: 0}[kind]
    layers = [taylor_params(rng, 8 - r, 8)] + [taylor_params(rng, 8, 8) for _ in range(depth - 1)]
    return base, inject, coeffs, layers


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("kind", ["trend", "fourier", None])
def test_taylor_kan_in_place_equals_fresh_output_bitwise(kind, depth, workers, small_slabs, monkeypatch):
    """An untaped chain that may consume its input writes its output over
    the input's array, over several slabs and on one or two workers, with
    the bits of a fresh output: each slab's last layer reads only scratch."""
    cpus(monkeypatch, workers)
    base, inject, _, layers = in_place_case(kind, depth, np.random.default_rng(51))
    small_slabs(base.shape)
    with no_grad():
        fresh = T.taylor_kan(Tensor(base), layers, prior=inject(Tensor(base)))
        x = Tensor(base.copy())
        out = T.taylor_kan(x, layers, prior=inject(x), consume=True)
    assert np.shares_memory(out.data, x.data)
    assert out.data.tobytes() == fresh.data.tobytes()


@pytest.mark.parametrize("case", ["one layer", "narrower output", "strided", "read-only"])
def test_taylor_kan_consumes_only_where_it_is_safe(case, small_slabs):
    """A one-layer call, a chain whose output is narrower than its input,
    and a strided or read-only input all get a new output array, leave the
    input as it was, and give the bits of a call that does not consume."""
    base, inject, _, layers = in_place_case("trend", 2, np.random.default_rng(52))
    small_slabs(base.shape)
    x_data = base.copy()
    if case == "one layer":
        layers = layers[:1]
    elif case == "narrower output":
        layers = [layers[0], taylor_params(np.random.default_rng(53), 4, 8)]
    elif case == "strided":
        x_data = np.asfortranarray(x_data)
    else:
        x_data.flags.writeable = False
    with no_grad():
        fresh = T.taylor_kan(Tensor(base), layers, prior=inject(Tensor(base)))
        x = Tensor(x_data)
        out = T.taylor_kan(x, layers, prior=inject(x), consume=True)
    assert not np.shares_memory(out.data, x.data)
    np.testing.assert_array_equal(x.data, base)
    assert out.data.tobytes() == fresh.data.tobytes()


@pytest.mark.parametrize("kind", ["trend", "fourier", None])
def test_taylor_kan_ignores_consume_while_recording(kind, small_slabs):
    """While recording, a call asked to consume its input keeps it intact,
    as backward reads it, and gives the taped output and every gradient of
    a call that was not asked, bit for bit."""
    base, inject, coeffs, layers = in_place_case(kind, 2, np.random.default_rng(54))
    small_slabs(base.shape)
    make_x = leaf_input(base.copy())
    named = [(f"c{k}", c) for k, c in enumerate(coeffs)]
    named += [(f"l{k}.{n}", t) for k, ps in enumerate(layers) for n, t in zip("w0123", ps)]

    def run(consume):
        return lambda x_: T.taylor_kan(x_, layers, prior=inject(x_), consume=consume)

    out_c, grads_c = grads_of(run(True), make_x, named)
    np.testing.assert_array_equal(make_x().data, base)
    out_f, grads_f = grads_of(run(False), make_x, named)
    assert out_c.tobytes() == out_f.tobytes()
    for key in grads_f:
        assert grads_c[key].tobytes() == grads_f[key].tobytes(), key


def strided_block_forward(x, w, a0, a1, a2, prior):
    """One layer with a prior as taylor_kan ran it before its first layers'
    GEMMs ran at full width: each slab's three GEMMs write the adjustable
    columns, a strided block of the output's rows, after the prior's."""
    xd, wd = x.data, w.data
    lead, n_out, n_in = prior.shape[-1], wd.shape[0], wd.shape[1]
    wa1, wa2, const = wd * a1.data, wd * a2.data, (wd * a0.data).sum(axis=1)
    full = np.empty(xd.shape[:-1] + (lead + n_out,))
    full[..., :lead] = prior.data
    slices, rows = T._slabs(xd.shape)
    xbuf, basis_buf, tbuf = (np.empty(rows * n) for n in (n_in, n_in, n_out))
    for sl in slices:
        xs = T._rows(T._slab(xd, sl, xbuf))
        basis = T.sigmoid(xs, out=T._scratch(basis_buf, xs.shape))
        t = T._scratch(tbuf, (xs.shape[0], n_out))
        o = T._rows(full[sl])[:, lead:]
        np.matmul(np.multiply(basis, xs, out=basis), wd.T, out=o)
        o += np.matmul(xs, wa1.T, out=t)
        o += np.matmul(np.square(xs, out=basis), wa2.T, out=t)
        o += const
    return full


@pytest.mark.parametrize("permuted", [True, False])
@pytest.mark.parametrize("kind", ["trend", "fourier"])
def test_full_width_first_layer_equals_strided_block_bitwise(kind, permuted):
    """A first layer's GEMMs over whole rows, with zero weights in the
    prior's columns, give the 93- and 91-column GEMMs' bits at the
    reference width, over several slabs."""
    rng = np.random.default_rng(48)
    make_x = time_axis_input(rng, (12, 32), 96)
    x = make_x() if permuted else leaf_input(np.ascontiguousarray(make_x().data))()
    assert len(T._slabs(x.shape)[0]) > 1
    inject, _ = prior_of(kind, rng, 96)
    prior = inject(x)
    ps = taylor_params(rng, 96 - prior.shape[-1], 96)
    expected = strided_block_forward(x, *ps, prior)
    np.testing.assert_array_equal(T.taylor_kan(x, [ps], prior=prior).data, expected)
    with no_grad():
        np.testing.assert_array_equal(T.taylor_kan(x, [ps], prior=prior).data, expected)


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
    fused, _, make_x, named = slab_case(name, np.random.default_rng(44), permuted)
    small_slabs(slab_shape(name, make_x()))
    runs = {}
    for workers in (1, 2):
        cpus(monkeypatch, workers)
        slab_threads.clear()
        out, grads = grads_of(fused, make_x, named)
        with no_grad():
            plain = fused(make_x()).data
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
    fused, _, make_x, named = make_case(name, np.random.default_rng(45))
    assert len(T._slabs(slab_shape(name, make_x()))[0]) == 1
    grads_of(fused, make_x, named)


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


def test_poly_inject_sets_blas_threads_before_its_gemms(monkeypatch):
    """poly_inject's whole-batch forward GEMMs, the first GEMMs of a
    no-grad forecast, run only once BLAS is set to one thread where its
    backward's slab loop would set it: over several slabs on two CPUs."""
    cpus(monkeypatch, 2)
    monkeypatch.setattr(T, "SLAB", 64)
    calls, gemms = [], []
    monkeypatch.setattr(T, "_blas_on_one_thread", lambda: calls.append(None) or True)
    real_mm = T._mm
    monkeypatch.setattr(T, "_mm", lambda a, b: gemms.append(len(calls)) or real_mm(a, b))
    rng = np.random.default_rng(46)
    x = Tensor(rng.normal(size=(6, 3, 8)))
    assert len(T._slabs(x.shape)[0]) > 1
    with no_grad():
        T.poly_inject(x, [Tensor(rng.normal(size=(8, 2))) for _ in range(3)])
    assert gemms and gemms[0] >= 1, gemms


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
    fused, chain, make_x, named = make_case(name, np.random.default_rng(42))
    make_row = leaf_input(np.ascontiguousarray(make_x().data[0, 0, 0]))
    out_f, grads_f = grads_of(fused, make_row, named)
    out_c, grads_c = grads_of(chain, make_row, named)
    width = named[0][1].shape[0 if name == "taylor_kan" else 1]
    assert out_f.shape == out_c.shape == (width,)
    assert rel_gap(out_f, out_c) < PARITY_RTOL
    for key in grads_c:
        assert rel_gap(grads_f[key], grads_c[key]) < PARITY_RTOL, key
    assert gradient_check(lambda x_: weighted_sum(fused(x_)), make_row()) < FD_TOL
