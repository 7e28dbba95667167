"""Contrastive fusion: InfoNCE oracle, unit norms, temperature gradient, the conditioned head as one op."""

import math

import numpy as np
import pytest

import dualcap.autograd as ag
from dualcap import flops
from dualcap.autograd import Tape, Tensor, concat, contrastive_loss, exp, reshape
from dualcap.errors import ContractError, ShapeError
from dualcap.model import INITIAL_TEMPERATURE, pool_and_project, retrieval_accuracy

import composed
from gradcheck import check_grads


def oracle_info_nce(img: np.ndarray, txt: np.ndarray, tau: float) -> float:
    """Direct numpy transcription of symmetric InfoNCE.

    Target probabilities are floored at 1e-12 before the log, matching
    the documented cross-entropy clamp.
    """
    s = img @ txt.T / tau

    def ce(m):
        m = m - m.max(axis=1, keepdims=True)
        lp = m - np.log(np.exp(m).sum(axis=1, keepdims=True))
        return -np.mean(np.maximum(np.diag(lp), math.log(1e-12)))

    return 0.5 * (ce(s) + ce(s.T))


def stack_vectors(vectors):
    return concat([reshape(v, (1, v.shape[0])) for v in vectors], axis=0)


class TestPoolAndProject:
    def test_output_is_unit_norm(self):
        rng = np.random.default_rng(0)
        feats = Tensor(rng.standard_normal((6, 8)))
        w = Tensor(rng.standard_normal((8, 4)))
        b = Tensor(rng.standard_normal(4))
        vec = pool_and_project(feats, w, b)
        assert vec.shape == (4,)
        np.testing.assert_allclose(np.linalg.norm(vec.data), 1.0, atol=1e-9)

    def test_rows_limit_excludes_padding(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((5, 8))
        w = Tensor(rng.standard_normal((8, 4)))
        b = Tensor(np.zeros(4))
        limited = pool_and_project(Tensor(feats), w, b, rows=3)
        explicit = pool_and_project(Tensor(feats[:3]), w, b)
        np.testing.assert_array_equal(limited.data, explicit.data)

    def test_invalid_inputs(self):
        w = Tensor(np.zeros((8, 4)))
        b = Tensor(np.zeros(4))
        with pytest.raises(ShapeError):
            pool_and_project(Tensor(np.zeros(8)), w, b)
        with pytest.raises(ShapeError):
            pool_and_project(Tensor(np.zeros((2, 5))), w, b)
        with pytest.raises(ContractError):
            pool_and_project(Tensor(np.zeros((2, 8))), w, b, rows=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        rng = np.random.default_rng(10 + seed)
        feats = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        probe = Tensor(rng.standard_normal(3))

        def build():
            from dualcap.autograd import mean
            v = pool_and_project(feats, w, b)
            return mean(composed.mul(v, probe))

        check_grads(build, [feats, w, b], tol=1e-6)


class TestContrastiveLoss:
    @pytest.mark.parametrize("b", [2, 4, 8])
    def test_identical_vectors_give_log_b(self, b):
        v = np.tile(np.array([0.6, 0.8]), (b, 1))
        loss = contrastive_loss(Tensor(v), Tensor(v), temperature=Tensor([INITIAL_TEMPERATURE]))
        assert abs(loss.item() - math.log(b)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(20 + seed)
        b = int(rng.integers(2, 7))
        img = rng.standard_normal((b, 5))
        txt = rng.standard_normal((b, 5))
        tau = float(rng.uniform(0.05, 2.0))
        loss = contrastive_loss(Tensor(img), Tensor(txt), temperature=Tensor([tau]))
        assert abs(loss.item() - oracle_info_nce(img, txt, tau)) < 1e-10

    def test_swapping_towers_preserves_the_loss(self):
        rng = np.random.default_rng(30)
        img = rng.standard_normal((4, 3))
        txt = rng.standard_normal((4, 3))
        a = contrastive_loss(Tensor(img), Tensor(txt), Tensor([0.5])).item()
        b = contrastive_loss(Tensor(txt), Tensor(img), Tensor([0.5])).item()
        assert abs(a - b) < 1e-12

    def test_well_separated_pairs_drive_loss_to_zero(self):
        eye = np.eye(4)
        loss = contrastive_loss(Tensor(eye), Tensor(eye), temperature=Tensor([0.01]))
        assert loss.item() < 1e-6

    def test_batch_and_temperature_validation(self):
        v = Tensor(np.ones((1, 3)))
        with pytest.raises(ContractError):
            contrastive_loss(v, v, Tensor([0.07]))
        v2 = Tensor(np.ones((2, 3)))
        for bad in ([0.0], [-1.0], [math.nan], [0.07, 0.07]):
            with pytest.raises(ContractError, match="temperature"):
                contrastive_loss(v2, v2, Tensor(bad))
        with pytest.raises(ShapeError):
            contrastive_loss(v2, Tensor(np.ones((3, 3))), Tensor([1.0]))

    @pytest.mark.parametrize("b", [2, 3, 8])
    def test_one_op_is_bitwise_the_composed_loss(self, b):
        """Loss and all three gradients equal the nine-record composition bit for bit."""
        rng = np.random.default_rng(60 + b)
        img, txt = rng.standard_normal((2, b, 5))
        img /= np.linalg.norm(img, axis=1, keepdims=True)
        txt[0], txt[1] = -img[0], img[0]  # image 0 scores its own caption 40 below caption 1
        tau = 0.05
        s = img @ txt.T / tau
        assert s[0, 0] - s[0].max() - np.log(np.exp(s[0] - s[0].max()).sum()) < math.log(1e-12)
        assert contrastive_loss is ag.contrastive_loss
        results = []
        for loss_fn in (contrastive_loss, composed.contrastive_loss):
            inputs = [Tensor(img, requires_grad=True), Tensor(txt, requires_grad=True),
                      Tensor([tau], requires_grad=True)]
            with Tape() as tape:
                loss = loss_fn(*inputs)
            tape.backward(loss)
            results.append([len(tape), loss.data] + [t.grad for t in inputs])
        (records, *fused), (_, *oracle) = results
        assert records == 1
        for got, want in zip(fused, oracle):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_including_learnable_temperature(self, seed):
        rng = np.random.default_rng(40 + seed)
        img = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        txt = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        log_temp = Tensor([math.log(INITIAL_TEMPERATURE)], requires_grad=True)

        def build():
            return contrastive_loss(img, txt, temperature=exp(log_temp))

        check_grads(build, [img, txt, log_temp], tol=1e-6)

    def test_temperature_gradient_direction(self):
        """With hard negatives the loss should fall as temperature shrinks."""
        rng = np.random.default_rng(50)
        img = Tensor(np.eye(3) + 0.1 * rng.standard_normal((3, 3)), requires_grad=True)
        txt = Tensor(np.eye(3) + 0.1 * rng.standard_normal((3, 3)), requires_grad=True)
        log_temp = Tensor([0.0], requires_grad=True)
        with Tape() as tape:
            loss = contrastive_loss(img, txt, temperature=exp(log_temp))
        tape.backward(loss)
        assert log_temp.grad is not None and log_temp.grad.shape == (1,)


class TestFusedLogits:
    """The conditioned tied head as one op against its generic-op chain in tests/composed.py."""

    @pytest.mark.parametrize("lead, t, pooled", [((), 5, False), ((3,), 7, False), ((2,), 9, False),
                                                 ((4,), 1, True), ((2,), 6, True)])
    def test_one_op_is_bitwise_the_composed_chain(self, lead, t, pooled):
        """Logits and every gradient equal the chain's bit for bit; FLOPs lose only the repeat's forward product.

        The backward keeps the repeat's product: the image vector's
        gradient sums over the positions as a product with a row of ones.
        """
        rng = np.random.default_rng(70 + t)
        c, d, v = 6, 3, 11
        shapes = [lead + (t, c), lead + (d,), (c, d), (d,), (2 * d, c), (c,), (v, c)] + [lead + (t, c)] * pooled
        arrays = [rng.standard_normal(shape) for shape in shapes]
        arrays[1] /= np.linalg.norm(arrays[1], axis=-1, keepdims=True)
        probe = Tensor(rng.standard_normal(lead + (t, v)))
        results = []
        for head in (ag.fused_logits, composed.fused_logits):
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            with flops.count_flops() as counter, Tape() as tape:
                logits = head(*inputs)
                tape.backward(ag.mean(composed.mul(logits, probe)))
            results.append((len(tape) - 2, counter.total, counter.backward, logits.data, [x.grad for x in inputs]))
        (records, fused_flops, fused_backward, *fused), (chain_records, chain_flops, chain_backward, *chain) = results
        assert (records, chain_records) == (1, 9 if pooled else 10)
        assert fused_flops == chain_flops - 2 * math.prod(lead) * t * d
        # each product's backward repeats it per operand that needs a gradient: twice, but once for the causal
        # mean's constant matrix; and the row of ones adds 2*T*D per item
        causal = 0 if pooled else 2 * math.prod(lead) * t * t * c
        assert fused_backward == chain_backward == 2 * fused_flops - causal + 2 * math.prod(lead) * t * d
        np.testing.assert_array_equal(fused[0], chain[0])
        for got, want in zip(fused[1], chain[1]):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_mismatched_shapes_are_shape_errors(self):
        c, d, v = 4, 2, 5
        hidden, image, txt_w, txt_b, cond_w, cond_b, emb = (
            Tensor(np.zeros(shape)) for shape in [(3, 5, c), (3, d), (c, d), (d,), (2 * d, c), (c,), (v, c)])
        for bad in ([Tensor(np.zeros(c)), image], [hidden, Tensor(np.zeros((3, 1, d)))],
                    [hidden, Tensor(np.zeros((2, d)))]):
            with pytest.raises(ShapeError, match="fused_logits"):
                ag.fused_logits(*bad, txt_w, txt_b, cond_w, cond_b, emb)
        with pytest.raises(ShapeError, match="fused_logits"):
            ag.fused_logits(hidden, image, txt_w, txt_b, Tensor(np.zeros((2 * d, c + 1))), Tensor(np.zeros(c + 1)), emb)
        with pytest.raises(ShapeError, match="fused_logits"):
            ag.fused_logits(hidden, image, txt_w, txt_b, cond_w, cond_b, Tensor(np.zeros((v, c + 1))))
        with pytest.raises(ShapeError, match="fused_logits"):
            ag.fused_logits(hidden, image, txt_w, txt_b, cond_w, cond_b, emb, Tensor(np.zeros((3, 4, c))))


class TestFuseAndRetrieval:
    def test_retrieval_accuracy_extremes(self):
        eye = np.eye(4)
        assert retrieval_accuracy(eye, eye) == 1.0
        swapped = eye[[1, 0, 3, 2]]
        assert retrieval_accuracy(eye, swapped) == 0.0

    def test_retrieval_accuracy_partial(self):
        img = np.eye(4)
        txt = np.eye(4)
        txt[3] = txt[0]  # caption 3 now matches image 0 best
        acc = retrieval_accuracy(img, txt)
        assert 0.0 < acc < 1.0
