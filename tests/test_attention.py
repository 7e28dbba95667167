"""The fused attention op against its per-op composition and central differences."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualcap import flops
from dualcap.autograd import (
    Tape,
    Tensor,
    add,
    attention,
    channel_attention,
    concat,
    mean,
    reshape,
    scale,
    slice_axis,
    take_rows,
)
from dualcap.errors import ContractError, ShapeError
from dualcap.textdec import attention_masks

from composed import matmul, mul, softmax, transpose
from gradcheck import analytic_grads, check_grads


def composed_attention(x, wq, wk, wv, factor, context=None, cached=None, mask=None, windows=None, channels=False):
    """The fused op rebuilt from per-op tape primitives, one head at a time: its oracle.

    Head i of an (n, k, d) weight reads columns [i*k, (i+1)*k) of its
    input, or all of them when k is the input width; a 2-D weight is
    one head.  Windows gather their rows with take_rows and scatter
    them back with the inverse permutation.
    """
    lead, (t, c) = x.shape[:-2], x.shape[-2:]
    source = x if context is None else context
    items = math.prod(lead)
    if windows is not None:
        pw = windows.shape[1]
        order = (np.arange(items)[:, None] * t + windows.reshape(-1)).reshape(-1)
        x = take_rows(reshape(x, (items * t, c)), order.reshape(-1, pw))
        source = x

    def head(inp, w, i):
        w_i = w if w.data.ndim == 2 else reshape(slice_axis(w, 0, i, i + 1), w.shape[1:])
        k = w_i.shape[0]
        if k != inp.shape[-1]:
            inp = slice_axis(inp, inp.data.ndim - 1, i * k, (i + 1) * k)
        return matmul(inp, w_i)

    n = 1 if wq.data.ndim == 2 else wq.shape[0]
    outs = []
    for i in range(n):
        q = head(x, wq, i)
        if wk is None:
            k, v = Tensor(cached[0][i]), Tensor(cached[1][i])
        else:
            k, v = head(source, wk, i), head(source, wv, i)
            if cached is not None:
                axis = k.data.ndim - 2
                k, v = concat([Tensor(cached[0][i]), k], axis), concat([Tensor(cached[1][i]), v], axis)
        if channels:
            p = softmax(scale(matmul(transpose(q), k), factor))
            outs.append(matmul(v, transpose(p)))
        else:
            scores = scale(matmul(q, transpose(k)), factor)
            if mask is not None:
                scores = add(scores, Tensor(np.broadcast_to(mask, scores.shape)))
            outs.append(matmul(softmax(scores), v))
    out = concat(outs, axis=outs[0].data.ndim - 1)
    if windows is not None:
        inverse = np.argsort(order)
        out = reshape(take_rows(reshape(out, (items * t, out.shape[-1])), inverse), lead + (t, out.shape[-1]))
    return out


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def decoder_mask(batch):
    """Causal + PAD masks of a ragged batch of 5-token rows, PAD-padded."""
    ids = np.array([[1, 4, 5, 6, 2], [1, 7, 2, 0, 0]])[:batch]
    return attention_masks(ids).data


def cases(rng):
    """(name, tensors, fused(tensors), composed(tensors)) for every way the model calls the op."""
    b = 2
    x, x8 = rand(rng, b, 5, 4), rand(rng, b, 16, 4)
    heads = [rand(rng, 2, 2, 3) for _ in range(3)]
    single = [rand(rng, 4, 4) for _ in range(3)]
    groups = [rand(rng, 2, 2, 2) for _ in range(3)]
    ctx, wkv = rand(rng, b, 6, 5), [rand(rng, 2, 5, 3) for _ in range(2)]
    group = [rand(rng, 1, 4, 4) for _ in range(3)]  # one group reads every column: the full-head layout
    tiles = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)  # 2 x 2 tiles of a 4 x 4 grid
    runs = np.arange(16).reshape(4, 4)

    def tiled(t):
        """Rows of each item of a (2, 16, w) stack gathered tile by tile, as runs of 4."""
        order = (np.arange(b)[:, None] * 16 + tiles.reshape(-1)).reshape(-1)
        return reshape(take_rows(reshape(t, (b * 16, t.shape[-1])), order), (b, 16, t.shape[-1]))
    mask = decoder_mask(b)
    f = 0.7
    return [
        ("sliced heads", [x, *heads], lambda: attention(x, *heads, f)[0], lambda: composed_attention(x, *heads, f)),
        ("causal and PAD mask", [x, *heads], lambda: attention(x, *heads, f, mask=mask)[0],
         lambda: composed_attention(x, *heads, f, mask=mask)),
        ("one head, 2d windows", [x8, *single], lambda: attention(tiled(x8), *single, f, window=4)[0],
         lambda: tiled(composed_attention(x8, *single, f, windows=tiles))),
        ("one head, 1d windows", [x8, *single], lambda: attention(x8, *single, f, window=4)[0],
         lambda: composed_attention(x8, *single, f, windows=runs)),
        ("channel groups", [x8, *groups], lambda: channel_attention(x8, *groups, f)[0],
         lambda: composed_attention(x8, *groups, f, channels=True)),
        ("one channel group", [x8, *group], lambda: channel_attention(x8, *group, f)[0],
         lambda: composed_attention(x8, *group, f, channels=True)),
        ("cross-attention", [x, heads[0], *wkv, ctx], lambda: attention(x, heads[0], *wkv, f, context=ctx)[0],
         lambda: composed_attention(x, heads[0], *wkv, f, context=ctx)),
    ]


class TestFusedAttention:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_composed_ops_forward_and_backward(self, seed):
        rng = np.random.default_rng(2000 + seed)
        for name, tensors, fused, composed in cases(rng):
            probe = Tensor(rng.standard_normal(fused().shape))
            got = analytic_grads(lambda: mean(mul(fused(), probe)), tensors)
            want = analytic_grads(lambda: mean(mul(composed(), probe)), tensors)
            np.testing.assert_allclose(fused().data, composed().data, atol=1e-12, rtol=0, err_msg=name)
            for t, g, w in zip(tensors, got, want):
                np.testing.assert_allclose(g, w, atol=1e-12, rtol=0, err_msg=f"{name}: gradient of {t.shape}")

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(2100 + seed)
        for name, tensors, fused, _ in cases(rng):
            probe = Tensor(rng.standard_normal(fused().shape))
            check_grads(lambda: mean(mul(fused(), probe)), tensors, tol=1e-6)

    def test_flops_equal_the_composed_ops_but_for_the_gram_form(self):
        """Forward and backward FLOPs are the per-head chain's, but for the channel groups' Gram form.

        Per item, three projections of the P rows and a transposed core
        cost the chain 10*P*C*C_g forward and, as every operand needs a
        gradient, twice that backward; the Gram form's two products over
        the P rows and three C_g x C_g ones cost 4*P*C*C_g + 6*C*C_g^2
        forward, and its ten backward products 6*P*C*C_g + 14*C*C_g^2.
        """
        for name, tensors, fused, composed in cases(np.random.default_rng(2050)):
            counts = []
            for build in (fused, composed):
                with flops.count_flops() as counter, Tape() as tape:
                    tape.backward(mean(build()))
                counts.append((counter.total, counter.backward))
            if "channel" in name:
                (items, p, c), c_g = tensors[0].shape, tensors[1].shape[-1]
                chain = items * 10 * p * c * c_g
                assert counts[1] == (chain, 2 * chain), name
                assert counts[0] == (items * (4 * p * c * c_g + 6 * c * c_g * c_g),
                                     items * (6 * p * c * c_g + 14 * c * c_g * c_g)), name
            else:
                assert counts[0] == counts[1], name

    @pytest.mark.parametrize("seed", range(3))
    def test_cross_attention_prefill_then_cached_steps(self, seed):
        """A prefill projects the context's keys and values; cached steps read them, and no tape records a step."""
        rng = np.random.default_rng(2200 + seed)
        h0, h1, h2 = rand(rng, 2, 3, 4), rand(rng, 2, 1, 4), rand(rng, 2, 1, 4)
        wq, wk, wv, ctx = rand(rng, 2, 2, 3), rand(rng, 2, 5, 3), rand(rng, 2, 5, 3), rand(rng, 2, 6, 5)
        _, _, kv = attention(h0, wq, wk, wv, 0.6, context=ctx)
        assert kv[0].shape == (2, 2, 6, 3)
        for h in (h1, h2):
            out = attention(h, wq, None, None, 0.6, cached=kv)[0]
            expected = composed_attention(h, wq, None, None, 0.6, cached=kv)
            np.testing.assert_allclose(out.data, expected.data, atol=1e-12, rtol=0)
            with Tape(), pytest.raises(ContractError, match="generation-only"):
                attention(h, wq, None, None, 0.6, cached=kv)

    def test_self_attention_cached_step_extends_the_keys(self):
        rng = np.random.default_rng(2300)
        x, wq, wk, wv = rand(rng, 2, 4, 4), rand(rng, 2, 2, 3), rand(rng, 2, 2, 3), rand(rng, 2, 2, 3)
        _, _, kv = attention(Tensor(x.data[:, :3]), wq, wk, wv, 0.5, mask=decoder_mask(2)[:, :3, :3])
        step = Tensor(x.data[:, 3:])
        out, _, (k, v) = attention(step, wq, wk, wv, 0.5, cached=kv)
        assert k.shape == v.shape == (2, 2, 4, 3)
        expected = composed_attention(step, wq, wk, wv, 0.5, cached=kv)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12, rtol=0)
        with Tape() as tape:
            with pytest.raises(ContractError, match="generation-only"):
                attention(step, wq, wk, wv, 0.5, cached=kv)
            constants = [Tensor(t.data) for t in (step, wq, wk, wv)]  # nothing to record: the step runs
            np.testing.assert_array_equal(attention(*constants, 0.5, cached=kv)[0].data, out.data)
        assert len(tape) == 0

    def test_weights_are_row_stochastic_and_masked_keys_get_none(self):
        rng = np.random.default_rng(2400)
        x, heads = rand(rng, 2, 5, 4), [rand(rng, 2, 2, 3) for _ in range(3)]
        mask = decoder_mask(2)
        _, p, _ = attention(x, *heads, 0.5, mask=mask)
        assert p.shape == (2, 2, 5, 5)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12, rtol=0)
        assert np.all(p[:, 1, :, 3:] == 0.0)  # PAD keys of the second row
        assert np.all(np.triu(p, 1) == 0.0)  # no query sees a later key

    def test_rejects_weights_that_do_not_fit(self):
        x = Tensor(np.zeros((2, 5, 4)))
        w = Tensor(np.zeros((2, 2, 3)))
        with pytest.raises(ShapeError, match="does not project rows of width 4"):
            attention(x, Tensor(np.zeros((3, 2, 3))), w, w, 1.0)
        with pytest.raises(ShapeError, match="do not match queries"):
            attention(x, w, Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((2, 2, 2))), 1.0)
        with pytest.raises(ShapeError, match="one map per item"):
            kv = Tensor(np.zeros((2, 5, 3)))
            attention(x, w, kv, kv, 1.0, context=Tensor(np.zeros((3, 6, 5))))
        for window in (2, 0):  # 2 does not divide 5 rows
            with pytest.raises(ShapeError, match="windows do not tile 5 rows"):
                attention(x, Tensor(np.zeros((4, 4))), Tensor(np.zeros((4, 4))), Tensor(np.zeros((4, 4))), 1.0,
                          window=window)

    @pytest.mark.parametrize("cached_shape", [(2, 1, 3, 9), (3, 1, 3, 8), (2, 2, 3, 8)],
                             ids=["width", "heads", "rows"])
    def test_cached_keys_and_values_that_do_not_fit_are_a_shape_error(self, cached_shape):
        x, w = Tensor(np.zeros((1, 1, 16))), Tensor(np.zeros((2, 8, 8)))  # one row, 2 heads of width 8
        cached = (np.zeros(cached_shape), np.zeros(cached_shape))
        named = re.escape(f"cached keys {cached_shape} and values {cached_shape} do not fit queries (2, 1, 1, 8)")
        with pytest.raises(ShapeError, match=named):
            attention(x, w, w, w, 0.5, cached=cached)
        with pytest.raises(ShapeError, match="do not fit queries"):
            attention(x, w, None, None, 0.5, cached=cached)

    @pytest.mark.parametrize("keys", ["none", "wk only", "wv only"])
    def test_key_and_value_weights_come_together_or_cached_replaces_them(self, keys):
        w = Tensor(np.zeros((2, 2, 3)))
        wk, wv = {"none": (None, None), "wk only": (w, None), "wv only": (None, w)}[keys]
        with pytest.raises(ContractError, match="wk and wv together"):
            attention(Tensor(np.zeros((2, 3, 4))), w, wk, wv, 0.5)


class TestChannelAttention:
    """The Gram-form channel op against the composed channel-mode oracle, on any stack, group count and P."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(lead=st.sampled_from([(), (1,), (3,), (2, 2)]), groups=st.sampled_from([1, 2, 4]),
           group_dim=st.integers(1, 3), p=st.integers(1, 9), seed=st.integers(0, 2**16))
    def test_matches_the_composed_ops_forward_and_backward(self, lead, groups, group_dim, p, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, *lead, p, groups * group_dim)
        weights = [rand(rng, groups, group_dim, group_dim) for _ in range(3)]
        tensors, f = [x, *weights], 1.0 / math.sqrt(p)
        out, a = channel_attention(x, *weights, f)
        assert out.shape == x.shape and a.shape == lead + (groups, group_dim, group_dim)
        np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-12, rtol=0)
        np.testing.assert_allclose(out.data, composed_attention(x, *weights, f, channels=True).data, atol=1e-12, rtol=0)
        probe = Tensor(rng.standard_normal(x.shape))
        got = analytic_grads(lambda: mean(mul(channel_attention(x, *weights, f)[0], probe)), tensors)
        want = analytic_grads(lambda: mean(mul(composed_attention(x, *weights, f, channels=True), probe)), tensors)
        for t, g, w in zip(tensors, got, want):
            np.testing.assert_allclose(g, w, atol=1e-12, rtol=0, err_msg=f"gradient of {t.shape}")

    @pytest.mark.parametrize("shapes", [[(4, 4)] * 3, [(3, 2, 2)] * 3, [(2, 2, 2), (2, 2, 2), (2, 2, 1)]])
    def test_rejects_weights_that_are_not_group_stacks_of_the_width(self, shapes):
        with pytest.raises(ShapeError, match="need \\(G, C/G, C/G\\) weights for width 4"):
            channel_attention(Tensor(np.zeros((5, 4))), *(Tensor(np.zeros(s)) for s in shapes), 0.5)
