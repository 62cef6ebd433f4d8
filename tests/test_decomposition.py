import numpy as np
import pytest

from gradcheck_util import param_fd_errors
from itfkan.decomposition import (
    Embedding,
    averaging_matrix,
    moving_average_decompose,
    moving_average_np,
)
from itfkan.tensor import Tensor, backward, lift, permute, sin


def embed_with(weight, bias, x):
    emb = Embedding(len(weight), np.random.default_rng(0))
    emb.w.data[:] = np.asarray(weight)[None, :]
    emb.b.data[:] = bias
    return emb(Tensor(x))


def test_embed_projection_onto_first_channel():
    x = np.random.default_rng(1).normal(size=(2, 6))
    out = embed_with([1.0, 0.0, 0.0], np.zeros(3), x)
    np.testing.assert_array_equal(out.data[:, 0, :], x)
    np.testing.assert_array_equal(out.data[:, 1:, :], 0.0)


def test_embed_zero_input_gives_bias():
    out = embed_with([0.3, -0.2], np.array([1.5, -2.5]), np.zeros((3, 4)))
    np.testing.assert_allclose(out.data, np.broadcast_to([[1.5], [-2.5]], (3, 2, 4)))


def test_embed_matches_affine_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=4)
    b = rng.normal(size=4)
    out = embed_with(w, b, x)
    expected = x[:, None, :] * w[None, :, None] + b[:, None]
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)


@pytest.mark.parametrize("biased", [True, False])
def test_lift_forward_is_the_broadcast_affine_map_bitwise(biased):
    """lift's output is x[:, None, :] * w[0][:, None] (+ b[:, None]) bit for
    bit, row-major (N, d, L), from row-major and from strided rows."""
    rng = np.random.default_rng(72)
    w, b = Tensor(rng.normal(size=(1, 5))), Tensor(rng.normal(size=5))
    windows = rng.normal(size=(9, 4)).T  # strided rows
    for x in (windows, np.ascontiguousarray(windows)):
        out = lift(Tensor(x), w, b if biased else None).data
        expected = x[:, None, :] * w.data[0][:, None]
        if biased:
            expected = expected + b.data[:, None]
        assert out.shape == (4, 5, 9) and out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("biased", [True, False])
def test_lift_gradients_match_finite_differences(biased):
    rng = np.random.default_rng(73)
    x = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
    w = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    g = Tensor(rng.normal(size=(3, 4, 7)))
    named = [("x", x), ("w", w)] + ([("b", b)] if biased else [])
    errors = param_fd_errors(lambda: (sin(lift(x, w, b if biased else None)) * g).sum(), named)
    for name, err in errors.items():
        assert err < 1e-7, (name, err)


def test_embed_gradients_do_not_depend_on_the_gradient_layout():
    """The embedding's gradient may reach it strided, as the transposed
    view a permute passes on, or row-major. Its gradients are those over a
    row-major copy of it, bit for bit: the sums over rows run in one order
    whatever the layout."""
    rng = np.random.default_rng(71)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    emb = Embedding(3, rng)
    g = rng.normal(size=(4, 3, 6))
    grads = []
    for loss in (
        lambda: (permute(emb(x), (0, 2, 1)) * Tensor(g.transpose(0, 2, 1).copy())).sum(),
        lambda: (emb(x) * Tensor(g)).sum(),
    ):
        backward(loss())
        grads.append([t.grad.tobytes() for t in (x, emb.w, emb.b)])
        x.grad = emb.w.grad = emb.b.grad = None
    assert grads[0] == grads[1]


def test_embed_rejects_empty():
    with pytest.raises(ValueError):
        Embedding(2, np.random.default_rng(0))(Tensor(np.zeros((0, 4))))


def test_constant_series_is_pure_trend():
    x = Tensor(np.full((2, 8), 4.2))
    trend, seasonal = moving_average_decompose(x, 5)
    np.testing.assert_allclose(trend.data, 4.2, rtol=1e-12)
    np.testing.assert_allclose(seasonal.data, 0.0, atol=1e-12)


def test_kernel_one_is_identity():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 6)))
    trend, seasonal = moving_average_decompose(x, 1)
    np.testing.assert_allclose(trend.data, x.data, rtol=1e-12)
    np.testing.assert_allclose(seasonal.data, 0.0, atol=1e-12)


def test_hand_window_oracle():
    x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
    trend, _ = moving_average_decompose(x, 3)
    np.testing.assert_allclose(trend.data[0], [4.0 / 3.0, 2.0, 3.0, 4.0, 14.0 / 3.0], rtol=1e-12)


def test_matches_explicit_pad_then_mean():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(3, 10))
    kernel = 5
    half = (kernel - 1) // 2
    padded = np.concatenate(
        [np.repeat(vals[:, :1], half, axis=1), vals, np.repeat(vals[:, -1:], half, axis=1)],
        axis=1,
    )
    expected = np.stack(
        [padded[:, t : t + kernel].mean(axis=1) for t in range(10)], axis=1
    )
    trend, _ = moving_average_decompose(Tensor(vals), kernel)
    np.testing.assert_allclose(trend.data, expected, rtol=1e-12)


def test_reconstruction_identity():
    """trend + seasonal gives back the (N, L) windows, each part row-major."""
    rng = np.random.default_rng(9)
    for _ in range(1000):
        x = rng.normal(size=(1, 12))
        trend, seasonal = moving_average_decompose(Tensor(x), 5)
        assert trend.data.flags.c_contiguous and seasonal.data.flags.c_contiguous
        np.testing.assert_allclose(trend.data + seasonal.data, x, atol=1e-12)


def test_split_is_data_and_row_by_row():
    """The split records no tape node, and each window's parts are its
    own: the same bits alone as in a batch of 64, and from a strided view
    of the windows as from a row-major copy. A whole-batch (N, L) @ (L, L)
    GEMM rounds a lone row differently."""
    windows = np.random.default_rng(14).normal(size=(96, 64)).T  # strided rows
    x = Tensor(windows, requires_grad=True)
    parts = moving_average_decompose(x, 25)
    assert all(part.op is None and not part.requires_grad for part in parts)
    copies = moving_average_decompose(Tensor(np.ascontiguousarray(windows)), 25)
    for part, copy in zip(parts, copies):
        assert part.data.tobytes() == copy.data.tobytes()
    for rows in (1, 2, 7):
        for part, whole in zip(moving_average_decompose(Tensor(windows[:rows]), 25), parts):
            assert part.data.tobytes() == whole.data[:rows].tobytes(), rows


def test_shift_equivariance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 9))
    c = 3.7
    t0, s0 = moving_average_decompose(Tensor(x), 3)
    t1, s1 = moving_average_decompose(Tensor(x + c), 3)
    np.testing.assert_allclose(t1.data, t0.data + c, atol=1e-10)
    np.testing.assert_allclose(s1.data, s0.data, atol=1e-10)


def test_linear_ramp_interior_exact():
    length, kernel = 12, 5
    half = (kernel - 1) // 2
    ramp = np.arange(length, dtype=float).reshape(1, length)
    trend, _ = moving_average_decompose(Tensor(ramp), kernel)
    interior = slice(half, length - half)
    np.testing.assert_array_equal(trend.data[0, interior], ramp[0, interior])


def test_even_kernel_rejected():
    with pytest.raises(ValueError):
        moving_average_decompose(Tensor(np.zeros((1, 6))), 4)


def test_oversized_kernel_rejected():
    with pytest.raises(ValueError):
        averaging_matrix(4, 9)


def test_cached_averaging_matrix_is_read_only():
    """Every decomposition reads the one cached matrix, so a write into it
    raises instead of changing later decompositions."""
    x = Tensor(np.random.default_rng(9).normal(size=(2, 10)))
    trend, _ = moving_average_decompose(x, 5)
    with pytest.raises(ValueError, match="read-only"):
        averaging_matrix(10, 5)[0, 0] = 1.0
    np.testing.assert_array_equal(moving_average_decompose(x, 5)[0].data, trend.data)


def test_numpy_twin_agrees():
    rng = np.random.default_rng(8)
    vals = rng.normal(size=(3, 4, 10))
    trend_t, _ = moving_average_decompose(Tensor(vals.reshape(12, 10)), 3)
    np.testing.assert_allclose(moving_average_np(vals, 3).reshape(12, 10), trend_t.data, rtol=1e-12)
