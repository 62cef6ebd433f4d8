import os

import numpy as np
import pytest

from itfkan import tensor
from itfkan.decomposition import (
    Embedding,
    averaging_matrix,
    moving_average_decompose,
    moving_average_np,
)
from itfkan.tensor import Tensor, backward, no_grad, permute


def embed_with(weight, bias, x):
    emb = Embedding(len(weight), np.random.default_rng(0))
    emb.w.data[:] = np.asarray(weight)[None, :]
    emb.b.data[:] = bias
    return emb(Tensor(x))


def test_embed_projection_onto_first_channel():
    x = np.random.default_rng(1).normal(size=(2, 6))
    out = embed_with([1.0, 0.0, 0.0], np.zeros(3), x)
    np.testing.assert_array_equal(out.data[:, :, 0], x)
    np.testing.assert_array_equal(out.data[:, :, 1:], 0.0)


def test_embed_zero_input_gives_bias():
    out = embed_with([0.3, -0.2], np.array([1.5, -2.5]), np.zeros((3, 4)))
    np.testing.assert_allclose(out.data, np.broadcast_to([1.5, -2.5], (3, 4, 2)))


def test_embed_matches_affine_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=4)
    b = rng.normal(size=4)
    out = embed_with(w, b, x)
    expected = x[:, :, None] * w[None, None, :] + b
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)


def test_embed_gradients_do_not_depend_on_the_gradient_layout():
    """The embedding's gradient reaches it as the transposed view of the
    decomposition's (N, d, L) gradient. Its gradients are those over a
    row-major copy of that gradient, bit for bit: the bias gradient's sum
    over rows runs in one order whatever the layout."""
    rng = np.random.default_rng(71)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    emb = Embedding(3, rng)
    g = rng.normal(size=(4, 3, 6))
    grads = []
    for loss in (
        lambda: (permute(emb(x), (0, 2, 1)) * Tensor(g)).sum(),
        lambda: (emb(x) * Tensor(g.transpose(0, 2, 1).copy())).sum(),
    ):
        backward(loss())
        grads.append([t.grad.tobytes() for t in (x, emb.w, emb.b)])
        x.grad = emb.w.grad = emb.b.grad = None
    assert grads[0] == grads[1]


def test_embed_rejects_empty():
    with pytest.raises(ValueError):
        Embedding(2, np.random.default_rng(0))(Tensor(np.zeros((0, 4))))


def test_constant_series_is_pure_trend():
    x = Tensor(np.full((2, 8, 3), 4.2))
    trend, seasonal = moving_average_decompose(x, 5)
    np.testing.assert_allclose(trend.data, 4.2, rtol=1e-12)
    np.testing.assert_allclose(seasonal.data, 0.0, atol=1e-12)


def test_kernel_one_is_identity():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 6, 2)))
    trend, seasonal = moving_average_decompose(x, 1)
    np.testing.assert_allclose(trend.data, x.data.transpose(0, 2, 1), rtol=1e-12)
    np.testing.assert_allclose(seasonal.data, 0.0, atol=1e-12)


def test_hand_window_oracle():
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0, 5.0]).reshape(1, 5, 1))
    trend, _ = moving_average_decompose(x, 3)
    np.testing.assert_allclose(
        trend.data[0, 0, :], [4.0 / 3.0, 2.0, 3.0, 4.0, 14.0 / 3.0], rtol=1e-12
    )


def test_matches_explicit_pad_then_mean():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(3, 10, 2))
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
    np.testing.assert_allclose(trend.data, expected.transpose(0, 2, 1), rtol=1e-12)


def test_reconstruction_identity():
    """trend + seasonal gives back the (N, L, d) input, whose channel-first
    (N, d, L) layout both parts take, each row-major."""
    rng = np.random.default_rng(9)
    for _ in range(1000):
        x = rng.normal(size=(1, 12, 2))
        trend, seasonal = moving_average_decompose(Tensor(x), 5)
        assert trend.data.flags.c_contiguous and seasonal.data.flags.c_contiguous
        np.testing.assert_allclose(trend.data + seasonal.data, x.transpose(0, 2, 1), atol=1e-12)


def test_shift_equivariance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 9, 2))
    c = 3.7
    t0, s0 = moving_average_decompose(Tensor(x), 3)
    t1, s1 = moving_average_decompose(Tensor(x + c), 3)
    np.testing.assert_allclose(t1.data, t0.data + c, atol=1e-10)
    np.testing.assert_allclose(s1.data, s0.data, atol=1e-10)


def test_linear_ramp_interior_exact():
    length, kernel = 12, 5
    half = (kernel - 1) // 2
    ramp = np.arange(length, dtype=float).reshape(1, length, 1)
    trend, _ = moving_average_decompose(Tensor(ramp), kernel)
    interior = slice(half, length - half)
    np.testing.assert_array_equal(trend.data[0, 0, interior], ramp[0, interior, 0])


def test_even_kernel_rejected():
    with pytest.raises(ValueError):
        moving_average_decompose(Tensor(np.zeros((1, 6, 1))), 4)


def test_oversized_kernel_rejected():
    with pytest.raises(ValueError):
        averaging_matrix(4, 9)


def test_cached_averaging_matrix_is_read_only():
    """Every decomposition wraps the one cached matrix, so a write into it
    raises instead of changing later decompositions."""
    x = Tensor(np.random.default_rng(9).normal(size=(2, 10, 3)))
    trend, _ = moving_average_decompose(x, 5)
    with pytest.raises(ValueError, match="read-only"):
        averaging_matrix(10, 5)[0, 0] = 1.0
    np.testing.assert_array_equal(moving_average_decompose(x, 5)[0].data, trend.data)


def test_numpy_twin_agrees():
    rng = np.random.default_rng(8)
    vals = rng.normal(size=(3, 4, 10))
    trend_t, _ = moving_average_decompose(
        Tensor(np.moveaxis(vals, -1, 1)), 3
    )
    np.testing.assert_allclose(moving_average_np(vals, 3), trend_t.data, rtol=1e-12)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shape, slab", [((448, 96, 32), None), ((7, 12, 3), 2 * 12 * 3)])
def test_one_part_equals_the_split_bitwise(shape, slab, workers, monkeypatch):
    """Each part built alone from the windows, untaped and slab by slab,
    has the bits of that part of the split of the embedding, at the
    reference shape and over several slabs, from row-major windows and
    from strided ones."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    if slab is not None:
        monkeypatch.setattr(tensor, "SLAB", slab)
    n, length, d = shape
    assert len(tensor._slabs((n, d, length))[0]) > 1
    emb = Embedding(d, np.random.default_rng(10))
    emb.b.data[:] = np.random.default_rng(11).normal(size=d)
    kernel = 25 if length > 25 else 5
    windows = np.random.default_rng(12).normal(size=(length, n)).T  # strided rows
    for x in (Tensor(windows), Tensor(np.ascontiguousarray(windows))):
        with no_grad():
            split = moving_average_decompose(emb(x), kernel)
            for part, whole in zip(("trend", "seasonal"), split):
                alone = moving_average_decompose(x, kernel, embed=emb, part=part).data
                assert alone.flags.c_contiguous and alone.shape == (n, d, length)
                assert alone.tobytes() == whole.data.tobytes(), part


def test_one_part_is_built_untaped_only():
    emb = Embedding(2, np.random.default_rng(13))
    x = Tensor(np.ones((3, 6)))
    with pytest.raises(RuntimeError, match="untaped"):
        moving_average_decompose(x, 3, embed=emb, part="trend")
    with no_grad():
        with pytest.raises(ValueError, match="part"):
            moving_average_decompose(x, 3, embed=emb, part="residual")
        with pytest.raises(ValueError, match="empty"):
            moving_average_decompose(Tensor(np.ones((0, 6))), 3, embed=emb, part="trend")
