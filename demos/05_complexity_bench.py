"""
Linear versus quadratic attention cost, counted
===============================================

Runs the three attention kernels standalone at P = 64, 128, 256 and 512
patches under the FLOP counter, and asserts each count against its
closed form.  The windowed and grouped kernels grow linearly in P; the
core of full global attention quadruples every time P doubles.
"""

import numpy as np

from dualcap import flops
from dualcap.autograd import Tensor
from dualcap.encoder import channel_group_attention, global_attention, spatial_window_attention

c, p_w, n_g, n_h = 32, 8, 4, 4
c_g, c_h = c // n_g, c // n_h
rng = np.random.default_rng(0)


def weights(*shape):
    return [Tensor(rng.standard_normal(shape)) for _ in range(3)]


print(f"C = {c}, window {p_w} patches, {n_g} channel groups, {n_h} global heads")
print("patches\twindowed\tchannel\tglobal\tglobal core")
global_core = {}
for p in (64, 128, 256, 512):
    x = Tensor(rng.standard_normal((p, c)))
    counters = {}
    for kernel, run in (
        ("windowed", lambda: spatial_window_attention(x, *weights(c, c), p_w)),
        ("channel", lambda: channel_group_attention(x, *weights(n_g, c_g, c_g))),
        ("global", lambda: global_attention(x, *weights(n_h, c_h, c_h))),
    ):
        with flops.count_flops() as counters[kernel]:
            run()
    counted = {kernel: counter.total for kernel, counter in counters.items()}
    global_core[p] = counters["global"].by_scope["global.core"]
    assert counted["windowed"] == 6 * p * c * c + 4 * p * p_w * c
    assert counted["channel"] == 4 * p * c * c_g + 6 * c * c_g * c_g
    assert counted["global"] == 6 * p * c * c_h + 4 * p * p * c
    print(f"{p}\t{counted['windowed']}\t{counted['channel']}\t{counted['global']}\t{global_core[p]}")
for p in (64, 128, 256):
    assert global_core[2 * p] == 4 * global_core[p]
print("every count matches its closed form, and the global core grows 4x per doubling of P")
