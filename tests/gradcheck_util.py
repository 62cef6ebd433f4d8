"""Shared central finite-difference checks of autodiff gradients."""

import numpy as np

from itfkan.tensor import Tensor, backward, no_grad


def param_fd_errors(loss_fn, named_params, eps=1e-5):
    """Max relative error per parameter between the analytic gradient of
    loss_fn() and a central finite difference, relative to max(1, |grad|).

    loss_fn rebuilds the scalar loss from current parameter values, so
    in-place perturbation of ``param.data`` is visible to it. Raises
    ValueError for eps <= 0 or a non-finite loss.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    named_params = list(named_params)
    for _, p in named_params:
        p.grad = None
    loss = loss_fn()
    if not np.isfinite(loss.item()):
        raise ValueError("loss is not finite")
    backward(loss)
    errors = {}
    for name, p in named_params:
        analytic = p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        fd = np.zeros_like(flat)
        with no_grad():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss_fn().item()
                flat[i] = orig - eps
                lo = loss_fn().item()
                flat[i] = orig
                fd[i] = (hi - lo) / (2.0 * eps)
        gap = np.abs(analytic - fd.reshape(p.shape))
        errors[name] = float(np.max(gap / np.maximum(1.0, np.abs(analytic))))
    for _, p in named_params:
        p.grad = None
    return errors


def gradient_check(f, x, eps=1e-5):
    """``param_fd_errors`` of the scalar f(x) with respect to a contiguous
    copy of the input tensor x, so x itself may be a strided view."""
    probe = Tensor(x.data.copy(), requires_grad=True)
    return param_fd_errors(lambda: f(probe), [("x", probe)], eps)["x"]
