"""Data handling: netpbm codecs, splits, caption files, synthetic shapes."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from dualcap import data
from dualcap.data import (
    POSITIONS,
    SHAPES,
    CaptionDataset,
    Record,
    combo_caption,
    compute_stats,
    load_dataset,
    make_synthetic,
    netpbm_bytes,
    parse_caption,
    parse_caption_file,
    parse_netpbm,
    read_netpbm,
    render_caption,
    render_combo,
    shape_mask,
    split_by_hash,
    write_dataset,
    write_netpbm,
)
from dualcap.errors import ConfigError, ContractError, DataError


class TestNetpbm:
    @pytest.mark.parametrize("channels", [1, 3])
    def test_round_trip_is_bitwise(self, channels, tmp_path):
        rng = np.random.default_rng(channels)
        pixels = rng.integers(0, 256, size=(5, 7, channels)).astype(np.uint8)
        path = tmp_path / ("img.pgm" if channels == 1 else "img.ppm")
        write_netpbm(path, pixels)
        loaded, maxval = read_netpbm(path)
        np.testing.assert_array_equal(loaded, pixels)
        assert maxval == 255

    def test_2d_input_becomes_single_channel(self):
        gray = np.arange(6, dtype=np.uint8).reshape(2, 3)
        pixels, _ = parse_netpbm(netpbm_bytes(gray))
        np.testing.assert_array_equal(pixels, gray[:, :, None])

    def test_header_comments_and_whitespace(self):
        data = b"P5 # magic\n# a comment line\n  3\t2 # dims\n255\n" + bytes(6)
        pixels, maxval = parse_netpbm(data)
        assert pixels.shape == (2, 3, 1) and maxval == 255

    def test_small_maxval_round_trip(self):
        pixels = np.array([[[3], [7]]], dtype=np.uint8)
        out, maxval = parse_netpbm(netpbm_bytes(pixels, maxval=7))
        np.testing.assert_array_equal(out, pixels)
        assert maxval == 7

    def test_rejects_malformed_files(self):
        good = netpbm_bytes(np.zeros((2, 2, 1), dtype=np.uint8))
        with pytest.raises(DataError, match="magic"):
            parse_netpbm(b"P2\n2 2\n255\n" + bytes(4))  # ascii format unsupported
        with pytest.raises(DataError, match="maxval"):
            parse_netpbm(b"P5\n2 2\n300\n" + bytes(4))
        with pytest.raises(DataError, match="raster"):
            parse_netpbm(good[:-1])
        with pytest.raises(DataError, match="raster"):
            parse_netpbm(good + b"x")
        with pytest.raises(DataError, match="truncated"):
            parse_netpbm(b"P5\n2 2")
        with pytest.raises(DataError, match="exceeds maxval"):
            parse_netpbm(b"P5\n1 1\n10\n" + bytes([11]))
        with pytest.raises(DataError, match="dimensions"):
            parse_netpbm(b"P5\n0 2\n255\n")

    def test_a_raster_must_follow_whitespace(self):
        with pytest.raises(DataError, match="<bytes>: missing whitespace before raster"):
            parse_netpbm(b"P5\n1 1\n255")

    def test_header_value_past_the_int_digit_limit(self):
        with pytest.raises(DataError, match="5000 digits"):
            parse_netpbm(b"P5\n" + b"9" * 5000 + b" 2\n255\n")

    def test_encoder_rejects_bad_arrays(self):
        with pytest.raises(DataError):
            netpbm_bytes(np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(DataError):
            netpbm_bytes(np.zeros((2, 2), dtype=np.float64))
        with pytest.raises(DataError):
            netpbm_bytes(np.full((2, 2), 9, dtype=np.uint8), maxval=8)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_netpbm(tmp_path / "absent.pgm")


class TestSplits:
    def test_exact_largest_remainder_counts(self):
        names = [f"n{i}" for i in range(10)]
        split = split_by_hash(names, (0.8, 0.1, 0.1))
        assert (len(split["train"]), len(split["val"]), len(split["test"])) == (8, 1, 1)
        split = split_by_hash([f"n{i}" for i in range(7)], (0.6, 0.2, 0.2))
        # exact 4.2/1.4/1.4 -> floors 4/1/1, the leftover goes to the earlier tie
        assert (len(split["train"]), len(split["val"]), len(split["test"])) == (4, 2, 1)

    @pytest.mark.parametrize("ratios", [(math.nan, 0.1, 0.1), (math.inf, 0.1, 0.1), (0.8, -0.1, 0.1), (0, 0, 0)])
    def test_ratios_without_a_positive_finite_sum_are_contract_errors(self, ratios):
        with pytest.raises(ContractError, match="ratios must be"):
            split_by_hash([f"n{i}" for i in range(10)], ratios)

    def test_ratios_that_overflow_when_scaled_are_contract_errors(self):
        with pytest.raises(ContractError, match="ratios must be"):
            split_by_hash(["a", "b", "c"], (1e308, 1.0, 0.0))
        split = split_by_hash(["a", "b"], (0.6e308, 0.6e308, 0.0))  # n * total overflows, each n * r does not
        assert (len(split["train"]), len(split["val"]), len(split["test"])) == (1, 1, 0)

    def test_assignment_is_order_independent_and_disjoint(self):
        names = [f"img_{i}.pgm" for i in range(20)]
        a = split_by_hash(names, (0.5, 0.25, 0.25))
        b = split_by_hash(list(reversed(names)), (0.5, 0.25, 0.25))
        assert a == b
        everything = a["train"] + a["val"] + a["test"]
        assert sorted(everything) == sorted(names) and len(set(everything)) == 20

    def test_hash_order_is_md5(self):
        names = ["a", "b", "c", "d"]
        split = split_by_hash(names, (0.5, 0.25, 0.25))
        ordered = sorted(names, key=lambda s: hashlib.md5(s.encode()).hexdigest())
        assert split["train"] == ordered[:2]

    def test_ratio_validation(self):
        with pytest.raises(ContractError):
            split_by_hash(["a"], (1.0, 0.0))
        with pytest.raises(ContractError):
            split_by_hash(["a"], (-1.0, 1.0, 1.0))
        with pytest.raises(ContractError):
            split_by_hash(["a"], (0.0, 0.0, 0.0))


class TestCaptionFile:
    def test_parse_and_grouping(self, tmp_path):
        path = tmp_path / "captions.tsv"
        path.write_text("a.pgm\tfirst caption\nb.pgm\tother one\na.pgm\tsecond caption\n")
        pairs = parse_caption_file(path)
        assert pairs == [("a.pgm", "first caption"), ("b.pgm", "other one"), ("a.pgm", "second caption")]

    def test_errors_name_line_numbers(self, tmp_path):
        path = tmp_path / "captions.tsv"
        path.write_text("a.pgm\tfine\nno tab here\n")
        with pytest.raises(DataError, match=":2: missing tab"):
            parse_caption_file(path)
        path.write_text("a.pgm\tfine\n\tmissing name\n")
        with pytest.raises(DataError, match=":2: empty filename"):
            parse_caption_file(path)
        path.write_text("a.pgm\t?!\n")
        with pytest.raises(DataError, match=":1: caption has no tokens"):
            parse_caption_file(path)
        path.write_text("\n  \n")
        with pytest.raises(DataError, match="no caption lines"):
            parse_caption_file(path)

    def test_a_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "captions.tsv"
        path.write_bytes(b"\xef\xbb\xbfa.pgm\tfirst caption\n")
        assert parse_caption_file(path) == [("a.pgm", "first caption")]

    def test_a_directory_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match=f"cannot read captions {tmp_path}: "):
            parse_caption_file(tmp_path)

    def test_not_utf8_is_a_data_error(self, tmp_path):
        path = tmp_path / "captions.tsv"
        path.write_bytes(b"a.pgm\tfine\nb.pgm\tnot \xff fine\n")
        with pytest.raises(DataError, match="captions.tsv: not UTF-8 text \\(byte 21\\)"):
            parse_caption_file(path)


class TestLoadDataset:
    def test_round_trip_through_disk(self, tmp_path):
        ds = make_synthetic(6, grid=8, seed=1)
        write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path, tmp_path / "captions.tsv", ratios=(1.0, 0.0, 0.0))
        assert len(loaded.records) == 6
        by_name = {r.name: r for r in loaded.records}
        for record in ds.records:
            np.testing.assert_array_equal(by_name[record.name].image, record.image)
            assert by_name[record.name].captions == record.captions

    def test_multiple_captions_group_per_image(self, tmp_path):
        write_netpbm(tmp_path / "x.pgm", np.zeros((2, 2, 1), dtype=np.uint8))
        (tmp_path / "c.tsv").write_text("x.pgm\tone caption\nx.pgm\tanother caption\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ds = load_dataset(tmp_path, tmp_path / "c.tsv", ratios=(1, 0, 0))
        assert len(ds.records) == 1 and len(ds.records[0].captions) == 2

    def test_missing_image_is_a_data_error(self, tmp_path):
        (tmp_path / "c.tsv").write_text("ghost.pgm\ta caption\n")
        with pytest.raises(DataError, match="ghost.pgm"):
            load_dataset(tmp_path, tmp_path / "c.tsv")

    def test_mixed_channels_rejected(self, tmp_path):
        write_netpbm(tmp_path / "a.pgm", np.zeros((2, 2, 1), dtype=np.uint8))
        write_netpbm(tmp_path / "b.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
        (tmp_path / "c.tsv").write_text("a.pgm\tgray one\nb.ppm\tcolor one\n")
        with pytest.raises(DataError, match="mixed channel"):
            load_dataset(tmp_path, tmp_path / "c.tsv")

    def test_mixed_sizes_rejected(self, tmp_path):
        write_netpbm(tmp_path / "a.pgm", np.zeros((2, 2, 1), dtype=np.uint8))
        write_netpbm(tmp_path / "b.pgm", np.zeros((2, 3, 1), dtype=np.uint8))
        (tmp_path / "c.tsv").write_text("a.pgm\tsmall one\nb.pgm\twide one\n")
        with pytest.raises(DataError, match=r"mixed image sizes in dataset: \[\(2, 2\), \(2, 3\)\]"):
            load_dataset(tmp_path, tmp_path / "c.tsv")

    def test_stats_come_from_train_split_only(self, tmp_path):
        ds = make_synthetic(8, grid=8, seed=2)
        write_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path, tmp_path / "captions.tsv", ratios=(0.5, 0.25, 0.25))
        train_images = [r.image for r in loaded.split_records("train")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mean, std = compute_stats(train_images)
        np.testing.assert_array_equal(loaded.mean, mean)
        np.testing.assert_array_equal(loaded.std, std)


class TestStats:
    def test_population_moments(self):
        images = [np.array([[[0.0], [1.0]]]), np.array([[[1.0], [0.0]]])]
        mean, std = compute_stats(images)
        np.testing.assert_allclose(mean, [0.5])
        np.testing.assert_allclose(std, [0.5])  # population, not sample

    def test_zero_variance_channel_warns_and_clamps(self):
        images = [np.full((2, 2, 2), 0.3)]
        images[0][:, :, 1] = np.array([[0.1, 0.9], [0.4, 0.6]])
        with pytest.warns(UserWarning, match="zero variance"):
            mean, std = compute_stats(images)
        assert std[0] == 1.0 and std[1] > 0


class TestSynthetic:
    def test_distinct_captions_up_to_64(self):
        ds = make_synthetic(64, grid=8, seed=3)
        captions = [r.captions[0] for r in ds.records]
        assert len(set(captions)) == 64

    def test_cycles_beyond_64(self):
        ds = make_synthetic(66, grid=8, seed=3)
        captions = [r.captions[0] for r in ds.records]
        assert captions[64] == captions[0] and captions[65] == captions[1]

    def test_caption_render_round_trip_is_bitwise(self):
        ds = make_synthetic(16, grid=16, seed=4)
        for record in ds.records:
            np.testing.assert_array_equal(render_caption(record.captions[0], 16), record.image)

    def test_deterministic_in_seed(self):
        a = make_synthetic(8, grid=8, seed=5)
        b = make_synthetic(8, grid=8, seed=5)
        c = make_synthetic(8, grid=8, seed=6)
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.image, rb.image)
            assert ra.captions == rb.captions
        assert any(x.captions != y.captions for x, y in zip(a.records, c.records))

    def test_everything_lands_in_train(self):
        ds = make_synthetic(5, grid=8, seed=7)
        assert ds.splits["train"] == [0, 1, 2, 3, 4]
        assert ds.splits["val"] == [] and ds.splits["test"] == []
        assert len(ds.caption_pairs("train")) == 5

    def test_shapes_are_distinguishable(self):
        masks = {s: shape_mask(s, 8) for s in SHAPES}
        for a in SHAPES:
            for b in SHAPES:
                if a != b:
                    assert not np.array_equal(masks[a], masks[b])

    def test_positions_move_the_shape(self):
        images = {p: render_combo("red", "square", p, 16) for p in POSITIONS}
        occupied = {p: np.argwhere(img.sum(axis=2) > 0) for p, img in images.items()}
        assert occupied["top left"].max(axis=0).tolist() < [8, 8]
        assert occupied["bottom right"].min(axis=0).tolist() >= [8, 8]

    def test_parse_caption_rejects_garbage(self):
        parse_caption(combo_caption("red", "cross", "bottom left"))
        for bad in ("a red square", "the red square at top left",
                    "a maroon square at top left", "a red blob at top left",
                    "a red square at middle left"):
            with pytest.raises(DataError):
                parse_caption(bad)

    def test_validation(self):
        with pytest.raises(ContractError):
            make_synthetic(1)
        with pytest.raises(ContractError):
            render_combo("red", "square", "top left", 7)

    def test_too_many_images_are_refused_before_any_is_drawn(self, monkeypatch):
        def draw(*args):
            raise AssertionError("an image was drawn")

        monkeypatch.setattr(data, "render_combo", draw)
        with pytest.raises(ConfigError, match=f"make_synthetic: {2**40} images of side 16 cannot be allocated"):
            make_synthetic(2**40)
