import zlib

import numpy as np
import pytest

from gradcheck_util import gradient_check
from itfkan import Adam, Graph, ShapeError, Tensor, backward, no_grad
from itfkan import tensor as T
from itfkan.decomposition import averaging_matrix
from itfkan.optim import adam_update


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# --- forward values ---------------------------------------------------------

def test_matmul_hand_oracle():
    a = t([[1.0, 2.0], [3.0, 4.0]])
    b = t([[5.0, 6.0], [7.0, 8.0]])
    out = T.matmul(a, b)
    np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = t(rng.normal(size=(2, 2)))
    out = T.matmul(a, t(np.eye(2)))
    np.testing.assert_array_equal(out.data, a.data)


def test_silu_at_zero():
    assert T.silu(t([0.0])).data[0] == 0.0


def test_silu_reference_values():
    x = np.array([0.0, 1.0, -1.0, 20.0])
    sig = 1.0 / (1.0 + np.exp(-x))
    np.testing.assert_allclose(T.sigmoid(x), sig, rtol=1e-15)
    np.testing.assert_allclose(T.silu(t(x)).data, x * sig, rtol=1e-15)


def test_values_bit_stable():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))

    def run():
        a = t(x)
        return T.silu(T.matmul(a, t(x.T)) * 0.5 + 1.0).data

    np.testing.assert_array_equal(run(), run())


# --- backward ---------------------------------------------------------------

def test_backward_square():
    x = t([1.0, 2.0, 3.0])
    loss = (x ** 2).sum()
    backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_sin():
    x = t([0.0])
    backward(T.sin(x).sum())
    np.testing.assert_allclose(x.grad, [1.0])


def test_backward_requires_scalar():
    x = t([1.0, 2.0])
    with pytest.raises(ValueError):
        backward(x * 2.0)


def test_fanout_accumulates():
    x = t([3.0])
    y = x * 2.0
    loss = (y + y).sum()
    backward(loss)
    np.testing.assert_allclose(x.grad, [4.0])


def test_graph_visits_each_op_once():
    x = t([1.0, 2.0])
    y = x * 2.0
    z = y + y
    graph = Graph.from_output(z.sum())
    assert len(set(id(n) for n in graph.nodes)) == len(graph.nodes)
    # parents always precede children
    pos = {id(n): i for i, n in enumerate(graph.nodes)}
    for n in graph.nodes:
        for p in n.parents:
            if id(p) in pos:
                assert pos[id(p)] < pos[id(n)]


def test_composite_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(6,)))

    def f(v):
        y = T.sin(v) * T.cos(v * 0.3) + T.silu(v * 0.7)
        return (y * y).sum()

    assert gradient_check(f, x, eps=1e-5) < 1e-4


def test_mean_equals_scaled_sum():
    rng = np.random.default_rng(5)
    x = t(rng.normal(size=(7, 5)))
    m = T.mean_axis(x, 1) * 5.0
    s = T.sum_axis(x, 1)
    np.testing.assert_allclose(m.data, s.data, rtol=1e-12)


# --- broadcasting contract ---------------------------------------------------

def test_leading_broadcast_allowed():
    a = t(np.ones((4, 3, 2)))
    b = t(np.full((2,), 5.0))
    out = a + b
    assert out.shape == (4, 3, 2)
    backward(out.sum())
    np.testing.assert_allclose(b.grad, [12.0, 12.0])


def test_middle_axis_broadcast_rejected():
    a = t(np.ones((4, 3, 2)))
    b = t(np.ones((4, 1, 2)))
    with pytest.raises(ShapeError) as exc:
        a + b
    assert "add" in str(exc.value) and "(4, 3, 2)" in str(exc.value)


def test_matmul_shape_error_names_op():
    with pytest.raises(ShapeError) as exc:
        T.matmul(t(np.ones((2, 3))), t(np.ones((2, 2))))
    assert "matmul" in str(exc.value)


# --- per-primitive gradient checks -------------------------------------------

# The explicit ids are the ones pytest gave each case when the table also
# held the exp and neg ops, so every case keeps its name.
UNARY = [
    # the n = 0 branch of pow_int's backward
    pytest.param("pow0", lambda v: T.pow_int(v, 0), (-2.0, 2.0), id="pow0-<lambda>-rng_range0"),
    pytest.param("sin", T.sin, (-3.0, 3.0), id="sin-sin-rng_range2"),
    pytest.param("cos", T.cos, (-3.0, 3.0), id="cos-cos-rng_range3"),
    pytest.param("silu", T.silu, (-3.0, 3.0), id="silu-silu-rng_range4"),
    pytest.param("abs", T.abs_, (0.3, 3.0), id="abs-abs_-rng_range6"),
    pytest.param("pow3", lambda v: T.pow_int(v, 3), (-2.0, 2.0), id="pow3-<lambda>-rng_range7"),
]


def name_seed(name):
    """A seed fixed per test case; ``hash`` of a str changes per process."""
    return zlib.crc32(name.encode())


@pytest.mark.parametrize("name,op,rng_range", UNARY)
def test_unary_primitive_gradients(name, op, rng_range):
    rng = np.random.default_rng(name_seed(name))
    worst = 0.0
    for _ in range(100):
        x = Tensor(rng.uniform(*rng_range, size=(5,)))
        worst = max(worst, gradient_check(lambda v: op(v).sum(), x))
    assert worst < 1e-4, f"{name}: {worst}"


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div", "matmul"])
def test_binary_primitive_gradients(name):
    rng = np.random.default_rng(name_seed(name))
    other = Tensor(rng.uniform(0.5, 2.0, size=(4, 4)))
    ops = {
        "add": lambda v: (v + other).sum(),
        "sub": lambda v: (v - other).sum(),
        "mul": lambda v: (v * other).sum(),
        "div": lambda v: (v / other).sum(),
        "matmul": lambda v: T.matmul(v, other).sum(),
    }
    worst = 0.0
    for _ in range(100):
        x = Tensor(rng.uniform(0.5, 2.0, size=(4, 4)))
        worst = max(worst, gradient_check(ops[name], x))
    assert worst < 1e-4, f"{name}: {worst}"


def test_matmul_skips_gradient_of_constant_operand():
    from gradcheck_util import param_fd_errors

    rng = np.random.default_rng(31)
    weights = rng.normal(size=(2, 3, 5))
    for grad_a in (True, False):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=grad_a)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=not grad_a)
        out = T.matmul(a, b)
        ga, gb = out._backward(weights)
        const, grad = (gb, ga) if grad_a else (ga, gb)
        assert const is None and grad is not None
        backward((out * Tensor(weights)).sum())
        assert (b if grad_a else a).grad is None
        live = ("a", a) if grad_a else ("b", b)
        loss = lambda: (T.matmul(a, b) * Tensor(weights)).sum()  # noqa: E731
        errors = param_fd_errors(loss, [live])
        assert errors[live[0]] < 1e-6, errors


def test_matmul_input_gradient_is_one_gemm_over_rows():
    """The input gradient of a row-major 3-D gradient is the 2-D GEMM over
    its rows, bit for bit. At the decomposition's shape on pipeline-toy
    (192 rows, d = 8, L = 96) numpy's batched matmul rounds otherwise."""
    rng = np.random.default_rng(70)
    a = Tensor(rng.normal(size=(192, 8, 96)), requires_grad=True)
    b = Tensor(averaging_matrix(96, 25))
    g = rng.normal(size=a.shape)
    backward((T.matmul(a, b) * Tensor(g)).sum())
    expected = (g.reshape(-1, 96) @ b.data.T).reshape(a.shape)
    assert a.grad.tobytes() == expected.tobytes()


def closure_arrays(out):
    """The arrays that the backward rule of ``out``'s op captured."""
    cells = out._backward.__closure__ or ()
    return [c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray)]


@pytest.mark.parametrize("name", ["mul", "div"])
def test_elementwise_op_keeps_no_data_for_a_constant_operand(name):
    """``num * Tensor(mask)``, as the short-task loss masks its terms: the
    rule keeps no copy of num's data and gives the constant no gradient,
    and the leaf gradient is bitwise the one it had when both operands'
    gradients were computed, which the numpy expression below spells out."""
    op = {"mul": T.mul, "div": T.div}[name]
    rng = np.random.default_rng(32)
    pred = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    target = Tensor(rng.normal(size=(4, 6)))
    mask = (rng.uniform(size=(4, 6)) > 0.3) + 1.0 * (name == "div")
    weights = rng.normal(size=(4, 6))
    grads = []
    for mask_grad in (False, True):
        num = T.abs_(pred - target)
        out = op(num, Tensor(mask, requires_grad=mask_grad))
        if not mask_grad:
            assert not any(np.shares_memory(a, num.data) for a in closure_arrays(out))
            assert out._backward(weights)[1] is None
        pred.grad = None
        backward((out * Tensor(weights)).sum())
        grads.append(pred.grad)
    np.testing.assert_array_equal(grads[0], grads[1])
    g_num = weights * mask if name == "mul" else weights / mask
    np.testing.assert_array_equal(grads[0], g_num * np.sign(pred.data - target.data))
    # a constant first operand gets no gradient either
    assert op(Tensor(mask), num)._backward(weights)[0] is None


@pytest.mark.parametrize(
    "name,op",
    [
        ("sum_all", lambda v: v.sum()),
        ("sum_axis", lambda v: T.sum_axis(v, 0).sum()),
        ("mean_axis", lambda v: T.mean_axis(v, 1).sum()),
        ("reshape", lambda v: v.reshape(6, 2).sum()),
        ("permute", lambda v: v.permute(2, 0, 1).sum()),
        ("slice", lambda v: (v[:, 1:3] * 2.0).sum()),
        ("concat", lambda v: T.concat([v, v * 2.0], axis=1).sum()),
    ],
)
def test_shape_op_gradients(name, op):
    rng = np.random.default_rng(name_seed(name))
    worst = 0.0
    for _ in range(20):
        x = Tensor(rng.normal(size=(3, 4, 1)) if name == "permute" else rng.normal(size=(3, 4)))
        worst = max(worst, gradient_check(op, x))
    assert worst < 1e-4, f"{name}: {worst}"


def test_pow_int_rejects_fractional():
    with pytest.raises(TypeError):
        T.pow_int(t([2.0]), 0.5)


# --- the finite-difference checker -------------------------------------------

def test_gradient_check_linear_is_exact():
    x = Tensor(np.random.default_rng(0).normal(size=(5,)))
    assert gradient_check(lambda v: v.sum(), x) < 1e-10


def test_gradient_check_taylor_edge():
    rng = np.random.default_rng(9)
    w, a0, a1, a2 = rng.normal(size=4)

    def f(v):
        return (T.silu(v) * w + (a0 + v * a1 + (v ** 2) * a2) * w).sum()

    x = Tensor(rng.normal(size=(8,)))
    assert gradient_check(f, x) < 1e-4


def test_gradient_check_rejects_zero_eps():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        gradient_check(lambda v: v.sum(), x, eps=0.0)


def test_gradient_check_rejects_nonfinite():
    x = Tensor(np.zeros(2))
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(ValueError):
            gradient_check(lambda v: v.sum() / 0.0, x)


# --- no_grad -----------------------------------------------------------------

def test_no_grad_suppresses_recording():
    x = t([1.0, 2.0])
    with no_grad():
        y = (x * 3.0).sum()
    assert y.op is None and not y.requires_grad


# --- Adam --------------------------------------------------------------------

def test_adam_first_step_magnitude():
    p = t([5.0])
    p.grad = np.array([0.37])
    opt = Adam([p], lr=0.1)
    opt.step()
    # bias-corrected first update is lr * sign(grad) up to eps
    np.testing.assert_allclose(p.data, [5.0 - 0.1], atol=1e-6)


def test_adam_zero_grad_leaves_param():
    p = t([2.5])
    p.grad = np.zeros(1)
    Adam([p], lr=0.1).step()
    np.testing.assert_array_equal(p.data, [2.5])


def test_adam_missing_grad_errors():
    p = t([1.0])
    with pytest.raises(ValueError):
        Adam([p], lr=0.1).step()


def test_adam_matches_scalar_reference():
    # independent scalar implementation of the same update rule
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    x_ref, m_ref, v_ref = 1.0, 0.0, 0.0
    trajectory = []
    for step in range(1, 3):
        g = 2.0 * x_ref
        m_ref = b1 * m_ref + (1 - b1) * g
        v_ref = b2 * v_ref + (1 - b2) * g * g
        mh = m_ref / (1 - b1 ** step)
        vh = v_ref / (1 - b2 ** step)
        x_ref -= lr * mh / (np.sqrt(vh) + eps)
        trajectory.append(x_ref)

    p = t([1.0])
    opt = Adam([p], lr=lr)
    for step in range(2):
        loss = (p ** 2).sum()
        backward(loss)
        opt.step()
        np.testing.assert_allclose(p.data[0], trajectory[step], rtol=1e-12)


def test_adam_updates_in_place():
    p = np.ones(5)
    g = np.full(5, 0.5)
    m, v = np.zeros(5), np.zeros(5)
    ref = p.copy()
    adam_update(p, g, m, v, 1, 0.1, 0.9, 0.999, 1e-8)
    assert not np.array_equal(p, ref)
    assert np.all(m != 0.0) and np.all(v != 0.0)


def test_adam_clears_grads():
    p = t([1.0])
    p.grad = np.ones(1)
    opt = Adam([p], lr=0.01)
    opt.step()
    assert p.grad is None
