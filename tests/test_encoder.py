"""Vision encoder: attention oracles, locality, FLOP accounting, heatmaps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualcap import flops
from dualcap.autograd import Tensor, mean
from dualcap.encoder import (
    EncoderConfig,
    block_branches,
    block_tail,
    channel_group_attention,
    embed_patches,
    encode,
    global_attention,
    heatmap,
    heatmap_to_gray,
    init_encoder_params,
    normalize_image,
    patch_order,
    patch_saliency,
    sinusoidal_positions,
    spatial_window_attention,
    split_patches,
)
from dualcap.errors import ConfigError, ContractError, NonFiniteError, ShapeError

from composed import mul
from gradcheck import check_grads


def np_softmax(m):
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def oracle_global(x, heads):
    """Direct numpy transcription of sliced-head attention."""
    c_h = x.shape[1] // len(heads)
    outs = []
    for i, (wq, wk, wv) in enumerate(heads):
        xi = x[:, i * c_h:(i + 1) * c_h]
        q, k, v = xi @ wq, xi @ wk, xi @ wv
        outs.append(np_softmax(q @ k.T / math.sqrt(c_h)) @ v)
    return np.concatenate(outs, axis=1)


def oracle_window(x, wq, wk, wv, index_sets):
    c = x.shape[1]
    out = np.zeros_like(x)
    for idx in index_sets:
        xw = x[np.asarray(idx)]
        q, k, v = xw @ wq, xw @ wk, xw @ wv
        out[np.asarray(idx)] = np_softmax(q @ k.T / math.sqrt(c)) @ v
    return out


def oracle_channel(x, groups):
    p = x.shape[0]
    c_g = x.shape[1] // len(groups)
    outs = []
    for g, (wq, wk, wv) in enumerate(groups):
        xg = x[:, g * c_g:(g + 1) * c_g]
        q, k, v = xg @ wq, xg @ wk, xg @ wv
        attn = np_softmax(q.T @ k / math.sqrt(p))
        outs.append((attn @ v.T).T)
    return np.concatenate(outs, axis=1)


def runs(cfg):
    """The 1d windows of a config: runs of window_patches consecutive patch indices."""
    return np.arange(cfg.patches).reshape(cfg.windows, cfg.window_patches)


def small_cfg(**kw):
    base = dict(image_size=8, patch_size=2, image_channels=1, dim=8, heads=2,
                window_patches=4, groups=2, depth=1)
    base.update(kw)
    return EncoderConfig(**base)


def rand_heads(rng, n, d, requires_grad=False):
    """(wq, wk, wv) stacks of n heads, drawn head by head: (wq, wk, wv) of head 0, then head 1, ..."""
    heads = [[rng.standard_normal((d, d)) for _ in range(3)] for _ in range(n)]
    return tuple(Tensor(np.array([h[j] for h in heads]).reshape(n, d, d), requires_grad=requires_grad)
                 for j in range(3))


def per_head(stacks):
    """[(wq_i, wk_i, wv_i)] numpy arrays of each head of (wq, wk, wv) stacks."""
    return list(zip(*(w.data for w in stacks)))


def one_head(*weights):
    return tuple(Tensor(w.data[None]) for w in weights)


class TestAttentionOracles:
    @pytest.mark.parametrize("seed", range(10))
    def test_global_matches_oracle_and_is_row_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((6, 8)))
        heads = rand_heads(rng, 2, 4)
        out, weights = global_attention(x, *heads)
        expected = oracle_global(x.data, per_head(heads))
        np.testing.assert_allclose(out.data, expected, atol=1e-12, rtol=0)
        assert weights.shape == (2, 6, 6)
        np.testing.assert_allclose(weights.sum(axis=2), np.ones((2, 6)), atol=1e-9, rtol=0)

    @pytest.mark.parametrize("seed", range(10))
    def test_spatial_matches_oracle_and_is_row_stochastic(self, seed):
        rng = np.random.default_rng(100 + seed)
        cfg = small_cfg()
        x = Tensor(rng.standard_normal((cfg.patches, cfg.dim)))
        wq, wk, wv = (Tensor(rng.standard_normal((8, 8))) for _ in range(3))
        out, weights = spatial_window_attention(x, wq, wk, wv, cfg.window_patches)
        expected = oracle_window(x.data, wq.data, wk.data, wv.data, runs(cfg))
        np.testing.assert_allclose(out.data, expected, atol=1e-12, rtol=0)
        assert weights.shape == (cfg.windows, 4, 4)
        np.testing.assert_allclose(weights.sum(axis=2), np.ones((cfg.windows, 4)), atol=1e-9, rtol=0)

    @pytest.mark.parametrize("seed", range(10))
    def test_channel_matches_oracle_and_is_row_stochastic(self, seed):
        rng = np.random.default_rng(200 + seed)
        cfg = small_cfg()
        x = Tensor(rng.standard_normal((cfg.patches, cfg.dim)))
        groups = rand_heads(rng, cfg.groups, cfg.group_dim)
        out, weights = channel_group_attention(x, *groups)
        expected = oracle_channel(x.data, per_head(groups))
        np.testing.assert_allclose(out.data, expected, atol=1e-12, rtol=0)
        assert weights.shape == (cfg.groups, 4, 4)
        np.testing.assert_allclose(weights.sum(axis=2), np.ones((cfg.groups, 4)), atol=1e-9, rtol=0)

    def test_single_patch_attention_weight_is_one(self):
        cfg = EncoderConfig(image_size=2, patch_size=2, image_channels=1, dim=4,
                            heads=1, window_patches=1, groups=1, depth=1)
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 4)))
        wq, wk, wv = (Tensor(rng.standard_normal((4, 4))) for _ in range(3))
        out, weights = spatial_window_attention(x, wq, wk, wv, cfg.window_patches)
        np.testing.assert_array_equal(weights, np.ones((1, 1, 1)))
        np.testing.assert_allclose(out.data, x.data @ wv.data, atol=1e-12, rtol=0)

    def test_one_window_equals_single_head_global_exactly(self):
        rng = np.random.default_rng(7)
        cfg = small_cfg(window_patches=16)  # N_w = 1
        assert cfg.windows == 1
        x = Tensor(rng.standard_normal((16, 8)))
        wq, wk, wv = (Tensor(rng.standard_normal((8, 8))) for _ in range(3))
        windowed, _ = spatial_window_attention(x, wq, wk, wv, cfg.window_patches)
        full, _ = global_attention(x, *one_head(wq, wk, wv))
        np.testing.assert_allclose(windowed.data, full.data, atol=1e-12, rtol=0)


class TestLocality:
    def test_spatial_windows_are_isolated_bitwise(self):
        rng = np.random.default_rng(1)
        cfg = small_cfg()  # 16 patches, windows of 4
        base = rng.standard_normal((16, 8))
        poked = base.copy()
        poked[5] += 10.0  # patch 5 lives in window 1
        wq, wk, wv = (Tensor(rng.standard_normal((8, 8))) for _ in range(3))
        out_a, _ = spatial_window_attention(Tensor(base), wq, wk, wv, cfg.window_patches)
        out_b, _ = spatial_window_attention(Tensor(poked), wq, wk, wv, cfg.window_patches)
        np.testing.assert_array_equal(out_a.data[:4], out_b.data[:4])
        np.testing.assert_array_equal(out_a.data[8:], out_b.data[8:])
        assert not np.array_equal(out_a.data[4:8], out_b.data[4:8])

    def test_channel_groups_are_isolated_bitwise(self):
        rng = np.random.default_rng(2)
        cfg = small_cfg()  # dim 8, two groups of 4
        base = rng.standard_normal((16, 8))
        poked = base.copy()
        poked[:, 6] += 10.0  # column 6 lives in group 1
        groups = rand_heads(rng, 2, 4)
        out_a, _ = channel_group_attention(Tensor(base), *groups)
        out_b, _ = channel_group_attention(Tensor(poked), *groups)
        np.testing.assert_array_equal(out_a.data[:, :4], out_b.data[:, :4])
        assert not np.array_equal(out_a.data[:, 4:], out_b.data[:, 4:])

    def test_2d_windows_tile_the_grid(self):
        cfg = small_cfg(window_layout="2d")  # grid 4x4, 2x2 windows
        assert patch_order(cfg).reshape(cfg.windows, cfg.window_patches).tolist() == [
            [0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]
        ]

    def test_2d_windows_are_isolated_and_match_oracle(self):
        """encode's 2d windows against window attention over grid-order embeddings and explicit tiles."""
        rng = np.random.default_rng(3)
        base = rng.uniform(0, 1, (8, 8, 1))
        poked = base.copy()
        poked[2:4, 0:2] += 10.0  # grid patch 4, in window [0, 1, 4, 5]
        grid_rows = split_patches(Tensor(base), small_cfg())  # the 1d layout keeps grid order
        tiles = [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]]
        untouched = [2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15]
        for pos_encoding in ("sinusoidal", "learned"):
            cfg = small_cfg(window_layout="2d", mode="spatial", pos_encoding=pos_encoding)
            params = init_encoder_params(cfg, rng)
            positions = params["enc.pos"].data if pos_encoding == "learned" else sinusoidal_positions(16, 8).data
            x = grid_rows @ params["enc.patch.w"].data + positions
            expected = oracle_window(x, *(params[f"enc.b0.spatial.{w}"].data for w in ("wq", "wk", "wv")), tiles)
            on_grid = []
            for image in (base, poked):
                features = encode(Tensor(image), cfg, params).features.data[:, :8]
                on_grid.append(np.empty_like(features))
                on_grid[-1][patch_order(cfg)] = features
            np.testing.assert_allclose(on_grid[0], expected, atol=1e-12, rtol=0, err_msg=pos_encoding)
            np.testing.assert_array_equal(on_grid[0][untouched], on_grid[1][untouched])
            assert not np.array_equal(on_grid[0][[0, 1, 4, 5]], on_grid[1][[0, 1, 4, 5]])


@st.composite
def encoder_configs(draw):
    """Valid configs of both window layouts on grids of 1 to 12 patches a side."""
    layout = draw(st.sampled_from(["1d", "2d"]))
    patch_size = draw(st.integers(1, 3))
    if layout == "2d":
        side = draw(st.integers(1, 4))
        grid = side * draw(st.integers(1, 12 // side))
        window = side * side
    else:
        grid = draw(st.integers(1, 12))
        window = draw(st.sampled_from([n for n in range(1, grid * grid + 1) if grid * grid % n == 0]))
    return EncoderConfig(image_size=grid * patch_size, patch_size=patch_size, image_channels=1, dim=2,
                         heads=1, window_patches=window, groups=1, window_layout=layout)


class TestPatchOrder:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(cfg=encoder_configs())
    def test_is_a_permutation_whose_windows_are_the_layout(self, cfg):
        order = patch_order(cfg)
        assert sorted(order.tolist()) == list(range(cfg.patches))
        if cfg.window_layout == "1d":
            np.testing.assert_array_equal(order, np.arange(cfg.patches))
            return
        side, g = math.isqrt(cfg.window_patches), cfg.grid
        for run in order.reshape(cfg.windows, cfg.window_patches):
            rows, cols = np.divmod(run, g)
            assert rows.min() % side == 0 and cols.min() % side == 0  # a tile's corner
            np.testing.assert_array_equal(rows, rows.min() + np.repeat(np.arange(side), side))
            np.testing.assert_array_equal(cols, cols.min() + np.tile(np.arange(side), side))

    @settings(max_examples=50, derandomize=True, database=None, deadline=None)
    @given(cfg=encoder_configs())
    def test_split_patches_emits_the_grid_rows_in_patch_order(self, cfg):
        image = Tensor(np.random.default_rng(cfg.patches).random((2, cfg.image_size, cfg.image_size, 1)))
        grid_rows = split_patches(image, replace(cfg, window_layout="1d"))
        np.testing.assert_array_equal(split_patches(image, cfg), grid_rows[:, patch_order(cfg)])


class TestPatchEmbedding:
    def test_split_patches_flattens_row_major(self):
        cfg = EncoderConfig(image_size=4, patch_size=2, image_channels=1, dim=4,
                            heads=1, window_patches=1, groups=1)
        image = Tensor(np.arange(16, dtype=float).reshape(4, 4, 1))
        rows = split_patches(image, cfg)
        np.testing.assert_array_equal(rows[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(rows[1], [2, 3, 6, 7])
        np.testing.assert_array_equal(rows[2], [8, 9, 12, 13])
        np.testing.assert_array_equal(rows[3], [10, 11, 14, 15])

    def test_zero_image_zero_positions_embed_to_zero(self):
        cfg = small_cfg()
        image = Tensor(np.zeros((8, 8, 1)))
        w = Tensor(np.random.default_rng(0).standard_normal((cfg.patch_len, cfg.dim)))
        embeddings = embed_patches(image, cfg, w, Tensor(np.zeros((cfg.patches, cfg.dim))))
        np.testing.assert_array_equal(embeddings.data, np.zeros((16, 8)))

    def test_sinusoidal_positions_basics(self):
        pos = sinusoidal_positions(16, 8)
        assert pos.shape == (16, 8)
        assert np.all(np.abs(pos.data) <= 1.0)
        np.testing.assert_allclose(pos.data[0], [0, 1, 0, 1, 0, 1, 0, 1], atol=1e-12)
        with pytest.raises(ConfigError):
            sinusoidal_positions(4, 5)

    def test_sinusoidal_positions_from_a_start_are_those_rows_of_the_table_read_only(self):
        rows = sinusoidal_positions(3, 8, start=5)
        table = sinusoidal_positions(8, 8).data.copy()
        np.testing.assert_array_equal(rows.data, table[5:])
        with pytest.raises(ValueError, match="read-only"):
            rows.data[...] = 7.0  # the cached table behind them cannot be written
        np.testing.assert_array_equal(sinusoidal_positions(8, 8).data, table)
        np.testing.assert_array_equal(sinusoidal_positions(3, 8, start=5).data, table[5:])

    @pytest.mark.parametrize("count, start", [(3, -1), (-1, 0), (-2, 5)])
    def test_sinusoidal_positions_refuse_a_negative_count_or_start(self, count, start):
        """Slicing the table from a negative start would return the wrong rows, (1, dim) for (3, start=-1)."""
        with pytest.raises(ContractError, match="count and start >= 0"):
            sinusoidal_positions(count, 4, start=start)

    def test_image_shape_mismatch_is_rejected(self):
        cfg = small_cfg()
        with pytest.raises(ShapeError):
            split_patches(Tensor(np.zeros((8, 8, 3))), cfg)


class TestNormalizeImage:
    def test_standardizes_each_channel(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, (8, 8, 3))
        mean = img.mean(axis=(0, 1))
        std = img.std(axis=(0, 1))
        out = normalize_image(Tensor(img), mean, std)
        np.testing.assert_allclose(out.data.mean(axis=(0, 1)), np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=(0, 1)), np.ones(3), atol=1e-12)

    def test_degenerate_channel_is_rejected(self):
        with pytest.raises(ContractError, match="channel 1"):
            normalize_image(Tensor(np.zeros((4, 4, 3))), [0, 0, 0], [1, 0, 1])

    @pytest.mark.parametrize("mean, std, channel", [
        ([0.5, 0.5, 0.5], [np.nan, 1.0, 1.0], 0),
        ([np.inf, 0.5, 0.5], [1.0, 1.0, 1.0], 0),
        ([0.5, np.nan, 0.5], [1.0, 1.0, 1.0], 1),
        ([0.5, 0.5, 0.5], [1.0, 1.0, np.inf], 2),
        ([0.5, 0.5, -np.inf], [1.0, 1.0, 1.0], 2),
    ])
    def test_non_finite_stats_are_rejected_naming_the_channel(self, mean, std, channel):
        """A NaN std passes a `std <= 0` test and would turn the whole channel into NaN."""
        with pytest.raises(ContractError, match=f"channel {channel} has non-finite stats"):
            normalize_image(Tensor(np.full((4, 4, 3), 0.25)), mean, std)

    @pytest.mark.parametrize("shape", [(5, 6, 1), (5, 6, 3), (1, 5, 6, 3), (4, 5, 6, 1), (4, 5, 6, 3)])
    def test_values_are_bitwise_the_per_channel_formula(self, shape):
        rng = np.random.default_rng(8)
        image = rng.uniform(-1.0, 2.0, shape)
        image.flat[::7] = -0.0
        mean, std = rng.uniform(-0.5, 0.5, shape[-1]), rng.uniform(0.1, 2.0, shape[-1])
        mean[0] = -0.0
        out = normalize_image(Tensor(image), mean, std).data
        expected = np.empty(shape)
        for c in range(shape[-1]):
            expected[..., c] = (image[..., c] - mean[c]) / std[c]
        assert out.shape == shape and out.tobytes() == expected.tobytes()


class TestEncoderBlockAndEncode:
    def test_block_output_shapes_and_weights(self):
        cfg = small_cfg(depth=2)
        rng = np.random.default_rng(5)
        params = init_encoder_params(cfg, rng)
        x = Tensor(rng.standard_normal((16, 8)))
        branches, sw, cw, gw = block_branches(x, params, "enc.b0", cfg)
        out = block_tail(x, branches, params, "enc.b0")
        assert out.shape == (16, 8) and branches.shape == (16, 16)
        assert sw.shape == (4, 4, 4) and cw.shape == (2, 4, 4) and gw is None
        assert np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("mode", ["spatial", "channel", "global"])
    def test_single_branch_modes_duplicate_to_concat_width(self, mode):
        cfg = small_cfg(mode=mode)
        rng = np.random.default_rng(6)
        params = init_encoder_params(cfg, rng)
        x = Tensor(rng.standard_normal((16, 8)))
        branches, sw, cw, gw = block_branches(x, params, "enc.b0", cfg)
        np.testing.assert_array_equal(branches.data[:, :8], branches.data[:, 8:])
        present = {"spatial": sw, "channel": cw, "global": gw}[mode]
        assert present is not None

    def test_features_are_pre_projection_concat(self):
        cfg = small_cfg()
        rng = np.random.default_rng(7)
        params = init_encoder_params(cfg, rng)
        image = Tensor(rng.uniform(0, 1, (8, 8, 1)))
        out = encode(image, cfg, params)
        embeddings = embed_patches(image, cfg, params["enc.patch.w"], sinusoidal_positions(cfg.patches, cfg.dim))
        sp, _ = spatial_window_attention(
            embeddings, params["enc.b0.spatial.wq"], params["enc.b0.spatial.wk"],
            params["enc.b0.spatial.wv"], cfg.window_patches)
        ch, _ = channel_group_attention(
            embeddings, params["enc.b0.channel.wq"], params["enc.b0.channel.wk"], params["enc.b0.channel.wv"])
        np.testing.assert_array_equal(out.features.data, np.concatenate([sp.data, ch.data], axis=1))

    def test_depth_zero_features_are_embeddings(self):
        cfg = small_cfg(depth=0)
        rng = np.random.default_rng(8)
        params = init_encoder_params(cfg, rng)
        image = Tensor(rng.uniform(0, 1, (8, 8, 1)))
        out = encode(image, cfg, params)
        assert out.features.shape == (16, 8)
        embeddings = embed_patches(image, cfg, params["enc.patch.w"], sinusoidal_positions(16, 8))
        np.testing.assert_array_equal(out.features.data, embeddings.data)

    def test_encode_applies_channel_stats_when_present(self):
        cfg = small_cfg()
        rng = np.random.default_rng(9)
        params = init_encoder_params(cfg, rng)
        image = Tensor(rng.uniform(0, 1, (8, 8, 1)))
        plain = encode(image, cfg, params)
        params["norm.mean"] = Tensor(np.array([0.5]))
        params["norm.std"] = Tensor(np.array([0.25]))
        shifted = encode(image, cfg, params)
        manual = encode(normalize_image(image, [0.5], [0.25]), cfg,
                        {k: v for k, v in params.items() if not k.startswith("norm.")})
        np.testing.assert_array_equal(shifted.features.data, manual.features.data)
        assert not np.array_equal(plain.features.data, shifted.features.data)

    def test_depth_two_stacks_blocks(self):
        cfg = small_cfg(depth=2)
        rng = np.random.default_rng(10)
        params = init_encoder_params(cfg, rng)
        image = Tensor(rng.uniform(0, 1, (8, 8, 1)))
        out = encode(image, cfg, params)
        assert len(out.spatial_weights) == 2 and out.features.shape == (16, 16)
        # block 1 reads block 0's tail; nothing reads block 1's, so it has none
        embeddings = embed_patches(image, cfg, params["enc.patch.w"], sinusoidal_positions(16, 8))
        x = block_tail(embeddings, block_branches(embeddings, params, "enc.b0", cfg)[0], params, "enc.b0")
        np.testing.assert_array_equal(out.features.data, block_branches(x, params, "enc.b1", cfg)[0].data)
        tails = ("proj", "ln1", "ffn", "ln2")
        assert all(any(k.startswith(f"enc.b0.{t}.") for k in params) for t in tails)
        assert not any(k.startswith(f"enc.b1.{t}.") for k in params for t in tails)


class TestEncoderGradients:
    def test_block_gradients_match_finite_differences(self):
        cfg = EncoderConfig(image_size=4, patch_size=2, image_channels=1, dim=4,
                            heads=2, window_patches=2, groups=2, depth=2)
        rng = np.random.default_rng(11)
        params = init_encoder_params(cfg, rng)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)

        def build():
            out = block_tail(x, block_branches(x, params, "enc.b0", cfg)[0], params, "enc.b0")
            return mean(mul(out, out))

        block0 = [t for name, t in params.items() if name.startswith("enc.b0.")]
        check_grads(build, [x] + block0, tol=1e-5)

    def test_global_attention_gradients(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        heads = rand_heads(rng, 2, 2, requires_grad=True)

        def build():
            out, _ = global_attention(x, *heads)
            return mean(mul(out, out))

        check_grads(build, [x, *heads], tol=1e-6)


class TestFlopAccounting:
    @pytest.mark.parametrize("p,c,p_w,groups", [(16, 8, 4, 2), (64, 16, 8, 4)])
    def test_attention_core_flops_match_closed_forms(self, p, c, p_w, groups):
        size = int(math.isqrt(p)) * 2
        cfg = EncoderConfig(image_size=size, patch_size=2, image_channels=1, dim=c,
                            heads=2, window_patches=p_w, groups=groups, depth=1)
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((p, c)))
        wq, wk, wv = (Tensor(rng.standard_normal((c, c))) for _ in range(3))
        c_g = cfg.group_dim
        group_w = rand_heads(rng, groups, c_g)
        heads = rand_heads(rng, 2, c // 2)

        with flops.count_flops() as fc:
            spatial_window_attention(x, wq, wk, wv, cfg.window_patches)
        assert fc.by_scope["spatial_window.core"] == 4 * p * p_w * c
        assert fc.total == 6 * p * c * c + 4 * p * p_w * c

        with flops.count_flops() as fc:
            channel_group_attention(x, *group_w)
        assert fc.by_scope["channel_group.core"] == 4 * p * c * c_g
        assert fc.total == 4 * p * c * c_g + 6 * c * c_g * c_g

        with flops.count_flops() as fc:
            global_attention(x, *heads)
        assert fc.by_scope["global.core"] == 4 * p * p * c
        assert fc.total == 6 * p * c * (c // 2) + 4 * p * p * c

    def test_no_counter_means_no_accounting(self):
        x = Tensor(np.zeros((2, 2)))
        with flops.count_flops() as fc:
            pass
        global_attention(x, *one_head(Tensor(np.eye(2)), Tensor(np.eye(2)), Tensor(np.eye(2))))
        assert fc.total == 0


class TestHeatmap:
    def _output(self, seed=14, **kw):
        cfg = small_cfg(**kw)
        rng = np.random.default_rng(seed)
        params = init_encoder_params(cfg, rng)
        return encode(Tensor(rng.uniform(0, 1, (8, 8, 1))), cfg, params)

    def test_saliency_sums_to_patch_count(self):
        out = self._output()
        sal = patch_saliency(out)
        assert sal.shape == (16,)
        np.testing.assert_allclose(sal.sum(), 16.0, atol=1e-9, rtol=0)

    def test_heatmap_range_and_shape(self):
        hm = heatmap(self._output())
        assert hm.shape == (4, 4)
        assert hm.min() >= 0.0 and hm.max() <= 1.0
        assert hm.max() == 1.0 and hm.min() == 0.0  # min-max stretched

    def test_constant_saliency_maps_to_zeros(self):
        out = self._output()
        out.spatial_weights[-1] = np.full((4, 4, 4), 0.25)  # uniform attention
        hm = heatmap(out)
        np.testing.assert_array_equal(hm, np.zeros((4, 4)))

    def test_saliency_requires_spatial_branch(self):
        with pytest.raises(ContractError):
            patch_saliency(self._output(mode="channel"))
        with pytest.raises(ContractError):
            patch_saliency(self._output(depth=0))

    def test_2d_layout_saliency_still_sums_to_patch_count(self):
        sal = patch_saliency(self._output(window_layout="2d"))
        np.testing.assert_allclose(sal.sum(), 16.0, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("layout,window,patch,cell", [
        ("1d", 1, 0, (1, 0)),  # encoder rows 4-7 are grid row 1
        ("2d", 1, 0, (0, 2)),  # encoder rows 4-7 are the tile at grid rows 0-1, columns 2-3
        ("2d", 2, 3, (3, 1)),  # the last patch of the tile at grid rows 2-3, columns 0-1
    ])
    def test_the_heatmap_peaks_at_the_grid_cell_of_the_attended_patch(self, layout, window, patch, cell):
        out = self._output(window_layout=layout)
        weights = np.full((4, 4, 4), 0.25)
        weights[window] = np.eye(4)[[patch] * 4]  # every query of this window attends to one of its patches
        out.spatial_weights[-1] = weights
        hm = heatmap(out)
        assert np.argwhere(hm == 1.0).tolist() == [list(cell)]

    def test_a_batch_gives_one_map_per_image(self):
        cfg = small_cfg(window_layout="2d")
        rng = np.random.default_rng(16)
        params = init_encoder_params(cfg, rng)
        images = rng.uniform(0, 1, (3, 8, 8, 1))
        batch = encode(Tensor(images), cfg, params)
        singles = [encode(Tensor(image), cfg, params) for image in images]
        assert patch_saliency(batch).shape == (3, 16) and heatmap(batch).shape == (3, 4, 4)
        for i, single in enumerate(singles):
            np.testing.assert_allclose(patch_saliency(batch)[i], patch_saliency(single), atol=1e-12, rtol=0)
            np.testing.assert_allclose(heatmap(batch)[i], heatmap(single), atol=1e-12, rtol=0)
            assert heatmap(batch)[i].min() == 0.0 and heatmap(batch)[i].max() == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_saliency_names_the_block_and_the_image_of_a_batch(self, bad):
        """Min-max scaling would map it to all zeros: a map of nothing, not of a model that overflowed."""
        out = self._output()
        out.spatial_weights[0] = out.spatial_weights[0].copy()
        out.spatial_weights[0][2, 1, 3] = bad
        with pytest.raises(NonFiniteError, match=r"^heatmap: block 0 has a non-finite saliency$"):
            heatmap(out, block=0)
        cfg = small_cfg()
        rng = np.random.default_rng(17)
        batch = encode(Tensor(rng.uniform(0, 1, (3, 8, 8, 1))), cfg, init_encoder_params(cfg, rng))
        batch.spatial_weights[-1][1, 0, 0, 0] = bad
        with pytest.raises(NonFiniteError, match=r"^heatmap: block -1, image 1 of the batch has a non-finite saliency"):
            heatmap(batch)

    @pytest.mark.parametrize("block", [1, 3, -2])
    def test_a_block_the_encoder_lacks_is_a_contract_error(self, block):
        with pytest.raises(ContractError, match=f"block {block} is out of range for encoder depth 1"):
            patch_saliency(self._output(), block=block)

    def test_gray_quantization(self):
        hm = np.array([[0.0, 0.5], [0.25, 1.0]])
        np.testing.assert_array_equal(heatmap_to_gray(hm), [[0, 128], [64, 255]])
        with pytest.raises(ContractError):
            heatmap_to_gray(np.array([[1.5]]))


class TestConfigValidation:
    def test_rejects_bad_combinations(self):
        good = dict(image_size=8, patch_size=2, image_channels=1, dim=8, heads=2,
                    window_patches=4, groups=2, depth=1)
        for bad in (
            dict(patch_size=3),
            dict(heads=3),
            dict(groups=3),
            dict(window_patches=5),
            dict(mode="both"),
            dict(window_layout="3d"),
            dict(depth=-1),
            dict(image_channels=2),
            dict(dim=7),
            dict(window_layout="2d", window_patches=8),
        ):
            with pytest.raises(ConfigError):
                EncoderConfig(**{**good, **bad})

    def test_kernels_reject_geometry_that_does_not_fit(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((12, 8)))
        wq, wk, wv = (Tensor(rng.standard_normal((8, 8))) for _ in range(3))
        for window in (5, 0):  # 5 does not divide 12 rows
            with pytest.raises(ShapeError, match="windows do not tile"):
                spatial_window_attention(x, wq, wk, wv, window)
        for groups in (rand_heads(rng, 3, 2), rand_heads(rng, 0, 2)):  # 3 groups do not divide width 8
            with pytest.raises(ShapeError, match="groups do not divide"):
                channel_group_attention(x, *groups)

    def test_derived_quantities(self):
        cfg = EncoderConfig(image_size=16, patch_size=4, dim=32, heads=4,
                            window_patches=4, groups=8, depth=2)
        assert (cfg.grid, cfg.patches, cfg.windows) == (4, 16, 4)
        assert (cfg.head_dim, cfg.group_dim, cfg.patch_len) == (8, 4, 48)
        assert cfg.feature_width == 64
