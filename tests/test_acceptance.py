"""Acceptance suite: one test per shipped guarantee, at pinned tolerances.

Each test times its own body and fails if it exceeds the stated wall
budget, so a -v run gives one pass/fail line per guarantee:

  1. gradient integrity: primitives and the full pipeline loss agree
     with central finite differences (< 1e-4 / < 1e-3 rel err, 30 s)
  2. attention algebra: row-stochastic weights, bit-exact window and
     group locality, whole-image window == single-head global (10 s)
  3. complexity accounting: FLOP counters match the closed forms
     exactly for P in {64,128,256,512}; global core quadruples (60 s)
  4. contrastive objective: ln B for identical embeddings, brute-force
     oracle within 1e-10, retrieval 1.0 after overfitting (2 min)
  5. overfit and recover: >= 90% loss reduction in 300..1000 steps,
     >= 6/8 verbatim captions, BLEU-1 and ROUGE-L >= 0.75 (10 min)
  6. metric fidelity: 50 random micro-corpora vs brute-force oracles
     within 1e-9; hand-computed values reproduce exactly (30 s)
  7. persistence and determinism: bitwise checkpoint round trip; two
     identical seeded CLI runs give identical logs and captions (5 min)
  8. heatmap contract: values in [0,1], raw saliency sums to P, PGM
     round trip is lossless (10 s)
"""

import math
import time

import numpy as np
import pytest

import dualcap.autograd as ag
from dualcap.autograd import Tensor, contrastive_loss, cross_entropy
from dualcap import flops
from dualcap.checkpoint import load_checkpoint, save_model
from dualcap.cli import main
from dualcap.data import make_synthetic, read_netpbm, write_dataset, write_netpbm
from dualcap.encoder import (
    EncoderConfig,
    channel_group_attention,
    encode,
    global_attention,
    heatmap,
    heatmap_to_gray,
    init_encoder_params,
    patch_saliency,
    spatial_window_attention,
)
from dualcap.metrics import ScoredCorpus, bleu, cider, meteor, rouge_l
from dualcap.model import (
    ModelConfig,
    build_model,
    caption_logits,
    encode_image,
    image_embedding,
    retrieval_accuracy,
    set_channel_stats,
    text_embedding,
)
from dualcap.textdec import DecoderConfig, Vocabulary, encode_caption
from dualcap.train import TrainConfig, caption_records, fit, training_pairs

import composed
from gradcheck import check_grads
from test_encoder import one_head, rand_heads
from test_metrics import (
    corpus_of,
    oracle_bleu,
    oracle_cider,
    oracle_meteor,
    oracle_rouge,
    random_corpus,
)


class Budget:
    """Wall-clock guard; wrap a criterion body in one."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label}: took {elapsed:.1f}s, budget {self.seconds:.0f}s"
            )
        return False


def overfit_model(seed=1, steps=400):
    """The 8-pair overfit protocol shared by the contrastive and recovery tests."""
    ds = make_synthetic(8, grid=16, seed=0)
    vocab = Vocabulary.from_corpus([c for _, c in ds.caption_pairs("train")])
    enc = EncoderConfig(image_size=16, patch_size=4, image_channels=3, dim=16,
                        heads=2, window_patches=4, groups=4, depth=1)
    dec = DecoderConfig(vocab_size=len(vocab), dim=16, heads=2, depth=1,
                        context_width=enc.feature_width)
    model = build_model(ModelConfig(encoder=enc, decoder=dec, joint_dim=8), vocab, seed=seed)
    set_channel_stats(model, ds.mean, ds.std)
    pairs = training_pairs(ds, vocab)
    state, history = fit(model, pairs, TrainConfig(lr=0.003, batch_size=8), steps=steps)
    return ds, vocab, model, pairs, history


@pytest.fixture(scope="module")
def overfit_run():
    start = time.perf_counter()
    result = overfit_model()
    return result + (time.perf_counter() - start,)


def primitive_cases(rng):
    """One finite-difference case per recording autograd op, and per composed oracle op in tests/."""

    def t(*shape, positive=False):
        data = rng.standard_normal(shape)
        if positive:
            data = 0.5 + np.abs(data)
        return Tensor(data, requires_grad=True)

    a, b = t(3, 4), t(3, 4)
    m1, m2 = t(3, 4), t(4, 5)
    bias = t(4)
    pos = t(3, 4, positive=True)
    s = t(1, positive=True)
    gain, beta = t(4), t(4)
    logits = t(4, 6)
    cat1, cat2 = t(2, 4), t(3, 4)
    own = np.random.default_rng(7)  # its own stream, so the draws above and after are unchanged
    wq, wk, wv, heads_probe = (Tensor(own.standard_normal(shape), requires_grad=True)
                               for shape in [(2, 2, 3)] * 3 + [(3, 6)])
    stack, rows_probe, img, txt = (Tensor(own.standard_normal(shape), requires_grad=True)
                                   for shape in [(2, 3, 4), (2, 4), (3, 4), (3, 4)])
    tau = Tensor([0.8], requires_grad=True)
    fused = np.random.default_rng(11)  # the fused layers' own stream, for the same reason
    rows, w1, b1, w2, b2, residual = (Tensor(fused.standard_normal(shape), requires_grad=True)
                                      for shape in [(2, 3, 4), (4, 6), (6,), (6, 4), (4,), (2, 3, 4)])
    wide_probe, rows_probe3 = Tensor(fused.standard_normal((2, 3, 6))), Tensor(fused.standard_normal((2, 3, 4)))
    head = np.random.default_rng(13)  # the conditioned head's own stream
    head_inputs = [Tensor(head.standard_normal(shape), requires_grad=True)
                   for shape in [(2, 3, 4), (2, 3), (4, 3), (3,), (6, 4), (4,), (5, 4)]]
    logits_probe = Tensor(head.standard_normal((2, 3, 5)))
    chan = np.random.default_rng(17)  # the channel-group op's own stream
    chan_x, cq, ck, cv, chan_probe = (Tensor(chan.standard_normal(shape), requires_grad=True)
                                      for shape in [(2, 5, 4), (2, 2, 2), (2, 2, 2), (2, 2, 2), (2, 5, 4)])

    return {
        "add": (lambda: ag.mean(ag.add(a, b)), [a, b]),
        "sub": (lambda: ag.mean(composed.sub(a, b)), [a, b]),
        "mul": (lambda: ag.mean(composed.mul(a, b)), [a, b]),
        "scale": (lambda: ag.mean(ag.scale(a, -1.7)), [a]),
        "scale_by": (lambda: ag.mean(composed.scale_by(a, s)), [a, s]),
        "add_bias": (lambda: ag.mean(ag.add_bias(a, bias)), [a, bias]),
        "exp": (lambda: ag.mean(ag.exp(a)), [a]),
        "reciprocal": (lambda: ag.mean(composed.reciprocal(pos)), [pos]),
        "matmul": (lambda: ag.mean(composed.matmul(m1, m2)), [m1, m2]),
        "linear": (lambda: ag.mean(composed.mul(ag.linear(rows, w1, b1), wide_probe)), [rows, w1, b1]),
        "ffn": (lambda: ag.mean(composed.mul(ag.ffn(rows, w1, b1, w2, b2), rows_probe3)), [rows, w1, b1, w2, b2]),
        "transpose": (lambda: ag.mean(composed.matmul(composed.transpose(m1), a)), [m1, a]),
        "reshape": (lambda: ag.mean(ag.reshape(a, (4, 3))), [a]),
        "concat": (lambda: ag.mean(ag.concat([cat1, cat2], axis=0)), [cat1, cat2]),
        "slice_axis": (lambda: ag.mean(ag.slice_axis(a, 1, 1, 3)), [a]),
        "take_rows": (lambda: ag.mean(ag.take_rows(a, [2, 0, 2])), [a]),
        "mean_axis": (lambda: ag.mean(composed.mean_axis(a, 0)), [a]),
        "mean": (lambda: ag.mean(a), [a]),
        "mean_rows": (lambda: ag.mean(composed.mul(ag.mean_rows(stack, [1, 2]), rows_probe)), [stack]),
        "softmax": (lambda: ag.mean(composed.mul(composed.softmax(a, axis=1), b)), [a]),
        "gelu": (lambda: ag.mean(composed.gelu(a)), [a]),
        "layer_norm": (lambda: ag.mean(composed.layer_norm(a, gain, beta)), [a, gain, beta]),
        "add_norm": (lambda: ag.mean(composed.mul(ag.add_norm(rows, residual, gain, beta), rows_probe3)),
                     [rows, residual, gain, beta]),
        "l2_normalize": (lambda: ag.mean(composed.mul(ag.l2_normalize(a), b)), [a]),
        "cross_entropy": (lambda: cross_entropy(logits, [2, 0, 5, 1]), [logits]),
        "attention": (lambda: ag.mean(composed.mul(ag.attention(a, wq, wk, wv, 0.5)[0], heads_probe)), [a, wq, wk, wv]),
        "channel_attention": (lambda: ag.mean(composed.mul(ag.channel_attention(chan_x, cq, ck, cv, 0.6)[0], chan_probe)),
                              [chan_x, cq, ck, cv]),
        "contrastive_loss": (lambda: ag.contrastive_loss(img, txt, tau), [img, txt, tau]),
        "fused_logits": (lambda: ag.mean(composed.mul(ag.fused_logits(*head_inputs), logits_probe)), head_inputs),
    }


def tiny_caption_model(seed=0):
    vocab = Vocabulary(["red", "dot", "blue", "box"])
    enc = EncoderConfig(image_size=4, patch_size=2, image_channels=3, dim=4,
                        heads=2, window_patches=2, groups=2, depth=1)
    dec = DecoderConfig(vocab_size=len(vocab), dim=4, heads=2, depth=1,
                        context_width=enc.feature_width)
    return build_model(ModelConfig(encoder=enc, decoder=dec, joint_dim=4), vocab, seed=seed)


def test_criterion_1_gradient_integrity():
    with Budget("gradient integrity", 30):
        rng = np.random.default_rng(0)
        for name, (build, tensors) in primitive_cases(rng).items():
            check_grads(build, tensors, tol=1e-4)

        # full pipeline loss: two-pair caption CE plus weighted contrastive
        model = tiny_caption_model()
        images = [Tensor(rng.random((4, 4, 3))) for _ in range(2)]
        seqs = [encode_caption(model.vocab, "red dot"), encode_caption(model.vocab, "blue box")]

        def build_pipeline():
            ce_terms, img_rows, txt_rows = [], [], []
            for image, seq in zip(images, seqs):
                logits, _, img_vec = caption_logits(model, image, seq)
                predictions = ag.slice_axis(logits, 0, 0, seq.length - 1)
                ce_terms.append(cross_entropy(predictions, list(seq.ids[1:seq.length])))
                img_rows.append(ag.reshape(img_vec, (1, 4)))
                txt_rows.append(ag.reshape(text_embedding(model, seq), (1, 4)))
            ce = ag.mean(ag.concat(ce_terms, axis=0))
            closs = contrastive_loss(
                ag.concat(img_rows, axis=0), ag.concat(txt_rows, axis=0),
                ag.exp(model.params["fuse.log_temp"]),
            )
            return ag.add(ce, ag.scale(closs, 0.5))

        check_grads(build_pipeline, list(model.trainable().values()), tol=1e-3)


def test_criterion_2_attention_algebra():
    with Budget("attention algebra", 10):
        rng = np.random.default_rng(1)
        dual = EncoderConfig(image_size=8, patch_size=2, image_channels=3, dim=8,
                             heads=2, window_patches=4, groups=4, depth=1)
        image = Tensor(rng.random((8, 8, 3)))
        out = encode(image, dual, init_encoder_params(dual, rng))
        glob = EncoderConfig(image_size=8, patch_size=2, image_channels=3, dim=8,
                             heads=2, window_patches=4, groups=4, depth=1, mode="global")
        gout = encode(image, glob, init_encoder_params(glob, rng))
        for stack in (out.spatial_weights[0], out.channel_weights[0], gout.global_weights[0]):
            np.testing.assert_allclose(stack.sum(axis=-1), 1.0, atol=1e-9)

        # window locality: perturbing window 1 leaves window 0 bit-exact
        x = Tensor(rng.standard_normal((dual.patches, dual.dim)))
        wq, wk, wv = (Tensor(rng.standard_normal((dual.dim, dual.dim))) for _ in range(3))
        base_out, base_w = spatial_window_attention(x, wq, wk, wv, dual.window_patches)
        idx = np.arange(dual.patches).reshape(dual.windows, dual.window_patches)  # runs of consecutive rows
        bumped = x.data.copy()
        bumped[idx[1]] += 1.0
        pert_out, pert_w = spatial_window_attention(Tensor(bumped), wq, wk, wv, dual.window_patches)
        np.testing.assert_array_equal(base_w[0], pert_w[0])
        np.testing.assert_array_equal(base_out.data[idx[0]], pert_out.data[idx[0]])
        assert not np.array_equal(base_w[1], pert_w[1])

        # group locality: perturbing group 1 columns leaves group 0 bit-exact
        groups = rand_heads(rng, dual.groups, dual.group_dim)
        base_out, base_w = channel_group_attention(x, *groups)
        bumped = x.data.copy()
        bumped[:, dual.group_dim:2 * dual.group_dim] += 1.0
        pert_out, pert_w = channel_group_attention(Tensor(bumped), *groups)
        np.testing.assert_array_equal(base_w[0], pert_w[0])
        np.testing.assert_array_equal(
            base_out.data[:, :dual.group_dim], pert_out.data[:, :dual.group_dim]
        )
        assert not np.array_equal(base_w[1], pert_w[1])

        # one window spanning every patch equals single-head global attention
        whole = EncoderConfig(image_size=8, patch_size=2, image_channels=3, dim=8,
                              heads=1, window_patches=16, groups=4, depth=1)
        win_out, _ = spatial_window_attention(x, wq, wk, wv, whole.window_patches)
        glob_out, _ = global_attention(x, *one_head(wq, wk, wv))
        np.testing.assert_allclose(win_out.data, glob_out.data, atol=1e-12)


def test_criterion_3_complexity_accounting():
    with Budget("complexity accounting", 60):
        rng = np.random.default_rng(2)
        c, p_w, n_g, n_h = 32, 8, 4, 4
        c_g, c_h = c // n_g, c // n_h
        global_core = {}
        for p in (64, 128, 256, 512):
            x = Tensor(rng.standard_normal((p, c)))
            wq, wk, wv = (Tensor(rng.standard_normal((c, c))) for _ in range(3))
            with flops.count_flops() as fc:
                spatial_window_attention(x, wq, wk, wv, p_w)
            assert fc.by_scope["spatial_window.core"] == 4 * p * p_w * c
            assert fc.total == 6 * p * c * c + 4 * p * p_w * c

            groups = rand_heads(rng, n_g, c_g)
            with flops.count_flops() as fc:
                channel_group_attention(x, *groups)
            assert fc.by_scope["channel_group.core"] == 4 * p * c * c_g
            assert fc.total == 4 * p * c * c_g + 6 * c * c_g * c_g

            heads = rand_heads(rng, n_h, c_h)
            with flops.count_flops() as fc:
                global_attention(x, *heads)
            assert fc.total == 6 * p * c * c_h + 4 * p * p * c
            global_core[p] = fc.by_scope["global.core"]
        for p in (64, 128, 256):
            assert global_core[2 * p] == 4 * global_core[p]


def test_criterion_4_contrastive_objective(overfit_run):
    ds, vocab, model, pairs, history, _ = overfit_run
    with Budget("contrastive objective", 120):
        rng = np.random.default_rng(3)
        for b in (2, 4, 8):
            same = Tensor(np.tile(rng.standard_normal(6), (b, 1)))
            assert abs(contrastive_loss(same, same, Tensor([1.0])).item() - math.log(b)) < 1e-12

        # brute-force oracle: both softmax directions of sims / tau
        for seed in range(10):
            r = np.random.default_rng(seed)
            b = int(r.integers(2, 7))
            img = r.standard_normal((b, 5))
            txt = r.standard_normal((b, 5))
            tau = float(r.uniform(0.05, 2.0))
            got = contrastive_loss(Tensor(img), Tensor(txt), Tensor([tau])).item()
            sims = img @ txt.T / tau
            expect = 0.0
            for axis in (1, 0):
                shifted = sims - sims.max(axis=axis, keepdims=True)
                logp = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
                expect += -np.maximum(np.diag(logp), math.log(1e-12)).mean() / 2.0
            assert abs(got - expect) < 1e-10

        img_vecs = np.stack(
            [image_embedding(model, encode_image(model, p.image)).data for p in pairs]
        )
        txt_vecs = np.stack([text_embedding(model, p.tokens).data for p in pairs])
        assert retrieval_accuracy(img_vecs, txt_vecs) == 1.0


def test_criterion_5_overfit_and_recover(overfit_run):
    ds, vocab, model, pairs, history, train_seconds = overfit_run
    with Budget("overfit and recover", 600 - train_seconds):
        assert 300 <= len(history) <= 1000
        assert history[-1].total <= 0.1 * history[0].total
        generated = caption_records(model, ds.split_records("train"), max_len=12)
        verbatim = sum(hyp == refs[0] for hyp, refs in generated.values())
        assert verbatim >= 6
        corpus = ScoredCorpus.from_texts(generated)
        assert bleu(corpus, 1) >= 0.75
        assert rouge_l(corpus) >= 0.75


def test_criterion_6_metric_fidelity():
    with Budget("metric fidelity", 30):
        assert bleu(corpus_of([(["the", "the", "the"], [["the", "cat"]])]), 1) == 1.0 / 3.0
        rouge_pair = corpus_of([(["a", "b", "c", "d", "e"], [["a", "b", "c", "d", "f"]])])
        assert rouge_l(rouge_pair) == 0.8
        assert meteor(corpus_of([(["red", "square"], [["red", "square"]])])) == 0.9375

        for seed in range(50):
            rng = np.random.default_rng(seed)
            entries = random_corpus(rng)
            corpus = corpus_of(entries)
            for n in (1, 2, 3, 4):
                assert abs(bleu(corpus, n) - oracle_bleu(entries, n)) < 1e-9
            assert abs(rouge_l(corpus) - oracle_rouge(entries)) < 1e-9
            assert abs(meteor(corpus) - oracle_meteor(entries)) < 1e-9
            assert abs(cider(corpus) - oracle_cider(entries)) < 1e-9


def test_criterion_7_persistence_and_determinism(tmp_path, capsys):
    with Budget("persistence and determinism", 300):
        # checkpoint round trip is bitwise
        model = tiny_caption_model(seed=4)
        save_model(tmp_path / "a.ckpt", model)
        ckpt = load_checkpoint(tmp_path / "a.ckpt")
        for name, tensor in model.params.items():
            assert ckpt.params[name].tobytes() == tensor.data.tobytes()

        # two identical seeded runs: identical logs, checkpoints, captions
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "synthetic = 8\nimage_size = 16\ndim = 16\ndec_dim = 16\njoint_dim = 8\n"
            "epochs = 30\nbatch_size = 8\nlr = 0.003\nmax_len = 12\nseed = 5\n"
        )
        ds = make_synthetic(8, grid=16, seed=5)
        data_dir = tmp_path / "data"
        write_dataset(ds, data_dir)
        captions = {}
        for run in ("run1", "run2"):
            out = tmp_path / run
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            capsys.readouterr()
            lines = []
            for record in ds.records:
                code = main(["caption", "--config", str(cfg), "--out", str(out),
                             str(out / "epoch-0030.ckpt"), str(data_dir / record.name)])
                assert code == 0
                lines.append(capsys.readouterr().out)
            captions[run] = lines
        assert captions["run1"] == captions["run2"]
        assert (tmp_path / "run1/loss.tsv").read_bytes() == (tmp_path / "run2/loss.tsv").read_bytes()
        assert (
            (tmp_path / "run1/epoch-0030.ckpt").read_bytes()
            == (tmp_path / "run2/epoch-0030.ckpt").read_bytes()
        )


def test_criterion_8_heatmap_contract(tmp_path):
    with Budget("heatmap contract", 10):
        rng = np.random.default_rng(6)
        cfg = EncoderConfig(image_size=16, patch_size=4, image_channels=3, dim=16,
                            heads=2, window_patches=4, groups=4, depth=1)
        out = encode(Tensor(rng.random((16, 16, 3))), cfg, init_encoder_params(cfg, rng))
        saliency = patch_saliency(out)
        assert saliency.sum() == pytest.approx(cfg.patches, abs=1e-9)
        hm = heatmap(out)
        assert hm.min() >= 0.0 and hm.max() <= 1.0
        gray = heatmap_to_gray(hm)
        write_netpbm(tmp_path / "map.pgm", gray)
        pixels, maxval = read_netpbm(tmp_path / "map.pgm")
        assert maxval == 255
        np.testing.assert_array_equal(pixels[:, :, 0], gray)
