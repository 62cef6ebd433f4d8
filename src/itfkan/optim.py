"""Adam with bias correction."""

import numpy as np


def adam_update(param, grad, m, v, step, lr, beta1, beta2, eps):
    """One bias-corrected Adam update of ``param``, in place on param/m/v."""
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    param -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


class Adam:
    """Standard Adam over a list of parameter tensors.

    Moments live per parameter; ``step`` applies one bias-corrected update
    and clears the gradients afterwards.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ValueError(f"parameter {i} has no gradient; run backward first")
        self.step_count += 1
        for p, m, v in zip(self.params, self.m, self.v):
            adam_update(
                p.data, p.grad, m, v, self.step_count,
                self.lr, self.beta1, self.beta2, self.eps,
            )
        self.zero_grad()

    def zero_grad(self):
        for p in self.params:
            p.grad = None
