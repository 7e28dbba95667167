"""
Tape-based autograd in a few lines
==================================

A Tensor wraps a float64 numpy array.  Running ops inside a Tape
records how each output was produced; tape.backward(loss) replays the
tape in reverse and accumulates gradients.  Outside a tape the same ops are
plain numpy, which is what generation uses.
"""

import numpy as np

from dualcap.autograd import Tape, Tensor, cross_entropy, linear

rng = np.random.default_rng(0)

# a tiny linear classifier: logits = x @ w + b, mean cross entropy to targets
x = Tensor(rng.standard_normal((3, 4)))
w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
b = Tensor(np.zeros(2))
targets = [0, 1, 0]


def forward():
    return cross_entropy(linear(x, w, b), targets)


with Tape() as tape:
    loss = forward()
    tape.backward(loss)

print("loss:", loss.item())
print("dL/dw:\n", w.grad)

# the same forward outside a tape records nothing and leaves grads alone
grad = w.grad
w.grad = None
print("forward off-tape gives the same value:", forward().item() == loss.item())
print("and no gradient:", w.grad is None)

# central finite differences agree with the tape
h = 1e-6
fd = np.zeros_like(w.data)
for i in range(w.data.shape[0]):
    for j in range(w.data.shape[1]):
        w.data[i, j] += h
        hi = forward().item()
        w.data[i, j] -= 2 * h
        lo = forward().item()
        w.data[i, j] += h
        fd[i, j] = (hi - lo) / (2 * h)

print("max |tape - finite difference|:", np.abs(grad - fd).max())
