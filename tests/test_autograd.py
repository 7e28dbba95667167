"""Tape-based autograd: finite-difference oracles and structural invariants."""

import ast
import importlib
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import dualcap.autograd as ag
from dualcap import flops
from dualcap.autograd import (
    MASK_VALUE,
    Tape,
    Tensor,
    add,
    add_bias,
    add_norm,
    backward,
    concat,
    cross_entropy,
    exp,
    ffn,
    l2_normalize,
    linear,
    mean,
    mean_rows,
    reshape,
    scale,
    slice_axis,
    take_rows,
    zero_grads,
)
from dualcap.errors import ContractError, ShapeError

from composed import gelu, layer_norm, matmul, mean_axis, mul, scale_by, softmax, sub, transpose
from gradcheck import check_grads, fd_grads, analytic_grads, max_rel_err
from test_acceptance import primitive_cases


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def recording_ops() -> set[str]:
    """The public functions of autograd that put a record on the tape."""
    return {name for name, fn in inspect.getmembers(ag, inspect.isfunction)
            if fn.__module__ == ag.__name__ and not name.startswith("_")
            and "_record(" in inspect.getsource(fn)}


class TestFiniteDifferenceOracles:
    """Analytic gradients of every primitive against central differences."""

    def test_every_recording_op_has_a_criterion_1_case(self):
        recording = recording_ops()
        assert {"add", "linear", "attention", "channel_attention", "contrastive_loss"} <= recording
        assert sorted(recording - primitive_cases(np.random.default_rng(0)).keys()) == []

    def test_every_recording_op_has_a_caller_in_src(self):
        """An op, or a keyword-only mode of one, that no other package module uses belongs in tests."""
        called, passed = set(), set()
        for path in Path(ag.__file__).parent.glob("*.py"):
            module = importlib.import_module("dualcap" if path.stem == "__init__" else f"dualcap.{path.stem}")
            if module is ag:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    fn = getattr(module, node.func.id, None)  # an op re-exported by another module counts too
                    if inspect.isfunction(fn) and fn.__module__ == ag.__name__:
                        called.add(fn.__name__)
                        passed.update((fn.__name__, kw.arg) for kw in node.keywords)
        assert {"attention", "channel_attention"} <= called
        assert sorted(recording_ops() - called) == []
        modes = {(name, p.name) for name in recording_ops()
                 for p in inspect.signature(getattr(ag, name)).parameters.values() if p.kind is p.KEYWORD_ONLY}
        assert ("attention", "window") in modes
        assert sorted(modes - passed) == []

    def test_only_gemm_counts_flops_in_src(self):
        """Every forward product goes through autograd._gemm, the one place in the package that counts FLOPs."""
        owners = []

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if getattr(child, "attr", getattr(child, "id", None)) == flops.add_matmul.__name__:
                    owners.append(owner)
                visit(child, f"{owner}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner)

        for path in sorted(Path(ag.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        assert owners == ["autograd._gemm"]

    def test_every_product_in_autograd_is_a_gemm_call(self):
        """No @, np.matmul, np.dot, np.einsum or np.tensordot in autograd.py outside _gemm, forward or backward."""
        tree = ast.parse(Path(ag.__file__).read_text(encoding="utf-8"))
        gemm = {id(node) for f in tree.body if getattr(f, "name", None) == "_gemm" for node in ast.walk(f)}
        products = {"matmul", "dot", "einsum", "tensordot"}
        bare = [node.lineno for node in ast.walk(tree) if id(node) not in gemm and (
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in products)]
        assert gemm and bare == []

    def test_a_replay_that_fails_ends_the_backward_count(self):
        """Tape.backward marks its replay for the FLOP counter and unmarks it however the replay ends."""
        x = Tensor(np.ones((2, 2)), requires_grad=True)

        def broken(g):
            raise ZeroDivisionError("grad_fn")

        with flops.count_flops() as counter, Tape() as tape:
            root = ag._record(ag._new(np.ones(1)), (x,), broken)
            with pytest.raises(ZeroDivisionError, match="grad_fn"):
                tape.backward(root)
            linear(x, x, Tensor(np.zeros(2)))
        assert not flops.replaying and (counter.total, counter.backward) == (16, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matmul_sum(self, seed):
        rng = np.random.default_rng(seed)
        a = rand(rng, 3, 4)
        b = rand(rng, 4, 5)
        check_grads(lambda: mean(matmul(a, b)), [a, b], tol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_elementwise_ops(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rand(rng, 3, 4)
        y = rand(rng, 3, 4)
        check_grads(lambda: mean(add(x, y)), [x, y], tol=1e-6)
        check_grads(lambda: mean(sub(x, y)), [x, y], tol=1e-6)
        check_grads(lambda: mean(mul(x, y)), [x, y], tol=1e-6)
        check_grads(lambda: mean(scale(x, -1.7)), [x], tol=1e-6)
        check_grads(lambda: mean(exp(scale(x, 0.5))), [x], tol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_bias_and_scale_by(self, seed):
        rng = np.random.default_rng(200 + seed)
        x = rand(rng, 4, 3)
        b = rand(rng, 3)
        s = Tensor([0.7], requires_grad=True)
        check_grads(lambda: mean(add_bias(x, b)), [x, b], tol=1e-6)
        check_grads(lambda: mean(scale_by(x, s)), [x, s], tol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_shape_ops(self, seed):
        rng = np.random.default_rng(300 + seed)
        x = rand(rng, 4, 6)
        check_grads(lambda: mean(transpose(x)), [x], tol=1e-6)
        check_grads(lambda: mean(mul(reshape(x, (3, 8)), reshape(x, (3, 8)))), [x], tol=1e-6)
        check_grads(lambda: mean(slice_axis(x, 0, 1, 3)), [x], tol=1e-6)
        check_grads(lambda: mean(slice_axis(x, 1, 2, 6)), [x], tol=1e-6)
        check_grads(lambda: mean(take_rows(x, [3, 0, 0, 2])), [x], tol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_concat(self, seed):
        rng = np.random.default_rng(400 + seed)
        a = rand(rng, 2, 3)
        b = rand(rng, 2, 3)
        c = rand(rng, 2, 3)
        check_grads(lambda: mean(mul(concat([a, b, c], axis=1), concat([c, a, b], axis=1))), [a, b, c], tol=1e-6)
        check_grads(lambda: mean(mul(concat([a, b], axis=0), concat([b, a], axis=0))), [a, b], tol=1e-6)
        check_grads(lambda: mean(mul(concat([a], axis=1), b)), [a, b], tol=1e-6)  # a single input
        empty = rand(rng, 2, 0)
        check_grads(lambda: mean(mul(concat([a, empty, b], axis=1), concat([b, a], axis=1))), [a, b], tol=1e-6)
        got = analytic_grads(lambda: mean(concat([a, empty, b], axis=1)), [a, empty, b])
        assert [g.shape for g in got] == [(2, 3), (2, 0), (2, 3)]

    @pytest.mark.parametrize("seed", range(10))
    def test_reductions(self, seed):
        rng = np.random.default_rng(500 + seed)
        x = rand(rng, 4, 5)
        check_grads(lambda: mean(x), [x], tol=1e-6)
        check_grads(lambda: mean(mul(mean_axis(x, 0), mean_axis(x, 0))), [x], tol=1e-6)
        check_grads(lambda: mean(mul(mean_axis(x, 1), mean_axis(x, 1))), [x], tol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_nonlinearities(self, seed):
        rng = np.random.default_rng(600 + seed)
        x = rand(rng, 3, 5)
        w = rand(rng, 5)
        check_grads(lambda: mean(gelu(x)), [x], tol=1e-6)
        check_grads(lambda: mean(mul(softmax(x, axis=1), x)), [x], tol=1e-6)
        check_grads(lambda: mean(mul(softmax(x, axis=0), x)), [x], tol=1e-6)
        check_grads(lambda: mean(mul(l2_normalize(x), x)), [x], tol=1e-6)
        check_grads(lambda: mean(mul(l2_normalize(w), w)), [w], tol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_layer_norm(self, seed):
        rng = np.random.default_rng(700 + seed)
        x = rand(rng, 4, 6)
        g = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)
        b = rand(rng, 6)
        check_grads(lambda: mean(mul(layer_norm(x, g, b), x)), [x, g, b], tol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_embedding_lookup(self, seed):
        rng = np.random.default_rng(800 + seed)
        table = rand(rng, 7, 4)
        ids = list(rng.integers(0, 7, size=5))
        check_grads(lambda: mean(mul(take_rows(table, ids), take_rows(table, ids))), [table], tol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_cross_entropy(self, seed):
        rng = np.random.default_rng(900 + seed)
        logits = rand(rng, 4, 6)
        targets = list(rng.integers(0, 6, size=4))
        check_grads(lambda: cross_entropy(logits, targets), [logits], tol=1e-6)
        check_grads(lambda: cross_entropy(logits, [0, 1, targets[2], targets[3]], ignore_id=1), [logits], tol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_composed_chain(self, seed):
        """A small mlp-like chain exercises accumulation through shared weights."""
        rng = np.random.default_rng(1000 + seed)
        x = rand(rng, 3, 4)
        w = rand(rng, 4, 4)
        g = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)

        def build():
            h = gelu(matmul(x, w))
            h = layer_norm(add(h, x), g, b)
            h = matmul(h, w)  # w reused: fan-out accumulation
            return mean(mul(h, h))

        check_grads(build, [x, w, g, b], tol=1e-6)


class TestBatchedOps:
    """Stacks with leading batch axes, against central differences and per-item results."""

    @pytest.mark.parametrize("seed", range(5))
    def test_stacked_matmul(self, seed):
        rng = np.random.default_rng(1100 + seed)
        a, b = rand(rng, 2, 3, 4), rand(rng, 2, 4, 5)
        shared_right, shared_left = rand(rng, 4, 5), rand(rng, 3, 3)
        check_grads(lambda: mean(mul(matmul(a, b), matmul(a, b))), [a, b], tol=1e-6)
        check_grads(lambda: mean(mul(matmul(a, shared_right), matmul(a, shared_right))), [a, shared_right], tol=1e-6)
        check_grads(lambda: mean(mul(matmul(shared_left, a), matmul(shared_left, a))), [shared_left, a], tol=1e-6)
        for i in range(2):
            np.testing.assert_allclose(matmul(a, b).data[i], a.data[i] @ b.data[i], atol=1e-12, rtol=0)
            np.testing.assert_allclose(matmul(a, shared_right).data[i], a.data[i] @ shared_right.data, atol=1e-12, rtol=0)
            np.testing.assert_allclose(matmul(shared_left, a).data[i], shared_left.data @ a.data[i], atol=1e-12, rtol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_bias_softmax_and_layer_norm_on_the_last_axis(self, seed):
        rng = np.random.default_rng(1200 + seed)
        x = rand(rng, 2, 3, 4)
        y = rand(rng, 2, 3, 4)
        bias, table = rand(rng, 4), rand(rng, 3, 4)
        g = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
        b = rand(rng, 4)
        check_grads(lambda: mean(mul(add_bias(x, bias), y)), [x, bias], tol=1e-6)
        check_grads(lambda: mean(mul(add_bias(x, table), y)), [x, table], tol=1e-6)
        check_grads(lambda: mean(mul(softmax(x, axis=2), y)), [x], tol=1e-6)
        check_grads(lambda: mean(mul(layer_norm(x, g, b), y)), [x, g, b], tol=1e-6)
        for i in range(2):
            np.testing.assert_array_equal(softmax(x, axis=2).data[i], softmax(Tensor(x.data[i]), axis=1).data)
            np.testing.assert_array_equal(layer_norm(x, g, b).data[i], layer_norm(Tensor(x.data[i]), g, b).data)

    @pytest.mark.parametrize("seed", range(5))
    def test_stacked_cross_entropy_gives_one_mean_per_item(self, seed):
        rng = np.random.default_rng(1300 + seed)
        logits = rand(rng, 2, 4, 6)
        targets = rng.integers(1, 6, size=(2, 4))
        targets[1, 2:] = 0  # item 1 keeps two rows
        weights = Tensor(rng.standard_normal(2))
        check_grads(lambda: mean(mul(cross_entropy(logits, targets, ignore_id=0), weights)), [logits], tol=1e-6)
        per_item = cross_entropy(logits, targets, ignore_id=0)
        assert per_item.shape == (2,)
        for i in range(2):
            alone = cross_entropy(Tensor(logits.data[i]), targets[i], ignore_id=0).item()
            assert abs(per_item.data[i] - alone) < 1e-12
        targets[1] = 0  # every row of item 1 ignored
        with pytest.raises(ContractError, match="every row"):
            cross_entropy(logits, targets, ignore_id=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_regrouping_ops(self, seed):
        rng = np.random.default_rng(1400 + seed)
        x = rand(rng, 2, 3, 4)
        probe = Tensor(rng.standard_normal((2, 4)))
        check_grads(lambda: mean(mul(mean_rows(x, [1, 3]), probe)), [x], tol=1e-6)
        np.testing.assert_array_equal(mean_rows(x, [1, 3]).data[0], x.data[0, :1].mean(axis=0))

    @pytest.mark.parametrize("counts", ["one", "all", "mixed"])
    def test_mean_rows_is_bitwise_the_per_item_loop(self, counts):
        rng = np.random.default_rng(1500)
        x = Tensor(rng.standard_normal((3, 4, 5, 6)), requires_grad=True)
        n = {"one": np.ones((3, 4), dtype=int), "all": np.full((3, 4), 5),
             "mixed": rng.integers(1, 6, size=(3, 4))}[counts]
        weights = Tensor(rng.standard_normal((3, 4, 6)))
        with Tape():
            out = mean_rows(x, n)
            backward(mean(mul(out, weights)))
        g = np.full(out.shape, 1.0 / out.size) * weights.data  # what mean and mul hand back to mean_rows
        flat = x.data.reshape(-1, 5, 6)
        loop = np.array([np.add.reduce(flat[i, :k], axis=0) / k for i, k in enumerate(n.reshape(-1))])
        loop_grad = np.zeros_like(flat)
        for i, (gi, k) in enumerate(zip(g.reshape(-1, 6), n.reshape(-1))):
            loop_grad[i, :k] = gi / k
        np.testing.assert_array_equal(out.data, loop.reshape(3, 4, 6))
        np.testing.assert_array_equal(x.grad, loop_grad.reshape(x.shape))

    def test_batch_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(2, 4\)"):
            add_bias(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 4))))
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros((3, 2), dtype=int))


class TestTapeMechanics:
    def test_fanout_accumulates_exactly_once_per_record(self):
        """A diamond graph gives grad 2+3=5; a double visit would give 10."""
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape():
            a = scale(x, 2.0)
            b = scale(x, 3.0)
            out = mean(add(a, b))
        backward(out)
        np.testing.assert_allclose(x.grad, np.full((1, 2), 5.0 / 2.0), rtol=0, atol=0)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        for _ in range(2):
            with Tape():
                out = mean(x)
            backward(out)
        np.testing.assert_allclose(x.grad, np.full(3, 2.0 / 3.0))
        zero_grads([x])
        assert x.grad is None

    def test_intermediates_receive_grads(self):
        x = Tensor([1.0, 4.0], requires_grad=True)
        with Tape():
            y = scale(x, 2.0)
            out = mean(y)
        backward(out)
        assert y.requires_grad
        np.testing.assert_allclose(y.grad, [0.5, 0.5])

    def test_no_tape_records_nothing(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = scale(x, 2.0)
        assert y.tape is None and not y.requires_grad
        with pytest.raises(ContractError):
            backward(mean(y))

    def test_non_grad_inputs_record_nothing(self):
        with Tape() as tape:
            a = Tensor([1.0, 2.0])
            b = scale(a, 3.0)
        assert len(tape) == 0 and not b.requires_grad

    def test_backward_requires_scalar_root(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape():
            y = scale(x, 2.0)
        with pytest.raises(ContractError):
            backward(y)

    def test_second_backward_on_the_same_root_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            out = mean(mul(x, x))
        tape.backward(out)
        first = x.grad.copy()
        with pytest.raises(ContractError):
            tape.backward(out)
        with pytest.raises(ContractError):
            backward(out)
        np.testing.assert_array_equal(x.grad, first)
        assert len(tape) == 2  # a spent tape still counts its records

    def test_root_must_be_on_the_given_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape():
            y = mean(x)
        with Tape() as other:
            pass
        with pytest.raises(ContractError):
            other.backward(y)


class TestOpSemantics:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = softmax(Tensor(rng.standard_normal((5, 7)) * 10), axis=1)
            np.testing.assert_allclose(s.data.sum(axis=1), np.ones(5), atol=1e-9, rtol=0)

    def test_softmax_mask_underflows_to_exact_zero(self):
        s = softmax(Tensor([[0.0, MASK_VALUE, 1.0]]), axis=1)
        assert s.data[0, 1] == 0.0
        np.testing.assert_allclose(s.data.sum(), 1.0, atol=0, rtol=0)

    def test_cross_entropy_uniform_logits_is_log_v(self):
        for v in (2, 5, 11):
            logits = Tensor(np.zeros((3, v)))
            loss = cross_entropy(logits, [0, 1, v - 1])
            assert abs(loss.item() - math.log(v)) < 1e-12

    def test_cross_entropy_clamps_vanishing_probability(self):
        logits = Tensor(np.array([[0.0, 0.0, 0.0, -40.0]]), requires_grad=True)
        with Tape():
            loss = cross_entropy(logits, [3])
        assert abs(loss.item() - (-math.log(1e-12))) < 1e-12
        backward(loss)
        np.testing.assert_array_equal(logits.grad, np.zeros((1, 4)))

    def test_cross_entropy_ignore_id_drops_rows(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.standard_normal((4, 5)))
        full = cross_entropy(slice_axis(logits, 0, 2, 4), [2, 3]).item()
        ignored = cross_entropy(logits, [0, 0, 2, 3], ignore_id=0).item()
        assert abs(full - ignored) < 1e-12

    def test_layer_norm_standardizes_rows(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((6, 8)) * 3 + 2)
        out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=1), np.zeros(6), atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=1), np.ones(6), atol=1e-4)

    def test_l2_normalize_unit_norm_and_zero_safety(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((4, 6)))
        out = l2_normalize(x)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), np.ones(4), atol=1e-9)
        zero = l2_normalize(Tensor(np.zeros(3)))
        assert np.all(np.isfinite(zero.data)) and np.all(zero.data == 0.0)

    def test_reshape_round_trip_is_identity(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        with Tape():
            y = reshape(reshape(x, (3, 8)), (4, 6))
            out = mean(mul(y, y))
        np.testing.assert_array_equal(y.data, x.data)
        backward(out)
        np.testing.assert_allclose(x.grad, 2.0 * x.data / x.size)

    def test_embedding_duplicate_ids_sum_gradients(self):
        table = Tensor(np.zeros((4, 2)), requires_grad=True)
        with Tape():
            rows = take_rows(table, [1, 1, 3])
            out = mean(rows)
        backward(out)
        np.testing.assert_allclose(table.grad[1], np.full(2, 2.0 / 6.0))
        np.testing.assert_allclose(table.grad[3], np.full(2, 1.0 / 6.0))
        np.testing.assert_allclose(table.grad[0], np.zeros(2))

    def test_gelu_reference_values(self):
        x = Tensor(np.array([0.0, 10.0, -10.0, 1.0]))
        out = gelu(x)
        assert out.data[0] == 0.0
        np.testing.assert_allclose(out.data[1], 10.0, atol=1e-12)
        np.testing.assert_allclose(out.data[2], 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data[3], 0.5 * (1 + math.erf(1 / math.sqrt(2))), atol=1e-12)

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((5, 8)) * 50)
        chain = softmax(x, axis=1)
        chain = layer_norm(gelu(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        loss = cross_entropy(scale(x, 10.0), [0, 1, 2, 3, 4])
        for t in (chain, loss):
            assert np.all(np.isfinite(t.data))


def fused_layers(rng, x_grad):
    """(name, inputs, the fused op, the chain of ops it stands for) for linear, add_norm and ffn."""
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=x_grad)
    y, w1, b1, w2, b2 = (rand(rng, *shape) for shape in [(2, 3, 4), (4, 6), (6,), (6, 4), (4,)])
    gain = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
    beta = rand(rng, 4)
    return [
        ("linear", [x, w1, b1], lambda: linear(x, w1, b1), lambda: add_bias(matmul(x, w1), b1)),
        ("add_norm", [x, y, gain, beta], lambda: add_norm(x, y, gain, beta),
         lambda: layer_norm(add(x, y), gain, beta)),
        ("ffn", [x, w1, b1, w2, b2], lambda: ffn(x, w1, b1, w2, b2),
         lambda: add_bias(matmul(gelu(add_bias(matmul(x, w1), b1)), w2), b2)),
    ]


class TestFusedLayers:
    """Each fused layer op is bit for bit the chain of generic ops it replaces."""

    @pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-no-grad"])
    @pytest.mark.parametrize("seed", range(3))
    def test_values_and_every_gradient_equal_the_chain(self, seed, x_grad):
        rng = np.random.default_rng(1600 + seed)
        for name, tensors, fused, chain in fused_layers(rng, x_grad):
            probe = Tensor(rng.standard_normal(fused().shape))
            grads = []
            for build in (fused, chain):
                zero_grads(tensors)
                with Tape() as tape:
                    out = build()
                    tape.backward(mean(mul(out, probe)))
                grads.append([t.grad for t in tensors])
            np.testing.assert_array_equal(fused().data, chain().data, err_msg=name)
            assert (grads[0][0] is None) == (grads[1][0] is None) == (not x_grad), name
            for got, want in zip(grads[0], grads[1]):
                if want is not None:
                    np.testing.assert_array_equal(got, want, err_msg=name)

    def test_flops_equal_the_chain(self):
        counts, backward = {}, {}
        for x_grad in (True, False):
            for name, _, fused, chain in fused_layers(np.random.default_rng(1700), x_grad):
                for kind, build in (("fused", fused), ("chain", chain)):
                    with flops.count_flops() as counter, Tape() as tape:
                        tape.backward(mean(build()))
                    counts[name, kind] = counter.total
                    backward[name, kind, x_grad] = counter.backward
        # 6 rows of 4 through (4, 6), and for the FFN on through (6, 4)
        assert counts == {("linear", "fused"): 288, ("linear", "chain"): 288, ("add_norm", "fused"): 0,
                          ("add_norm", "chain"): 0, ("ffn", "fused"): 576, ("ffn", "chain"): 576}
        # dX and dW each repeat a product's forward; without x's gradient the first product skips dX
        want = {"linear": {True: 2 * 288, False: 288}, "add_norm": {True: 0, False: 0},
                "ffn": {True: 2 * 576, False: 2 * 576 - 288}}
        assert backward == {(name, kind, x_grad): want[name][x_grad]
                            for name in want for kind in ("fused", "chain") for x_grad in (True, False)}

    def test_a_linear_bias_may_be_a_table_as_for_add_bias(self):
        """The patch embedding's case: a (P, C) table added to every item of a (B, P, k) stack."""
        rng = np.random.default_rng(1750)
        x, w, table = (rand(rng, *shape) for shape in [(2, 3, 4), (4, 6), (3, 6)])
        probe = Tensor(rng.standard_normal((2, 3, 6)))
        for x_grad in (True, False):  # the patch embedding's pixels need no gradient
            x.requires_grad = x_grad
            results = []
            for build in (lambda: linear(x, w, table), lambda: add_bias(matmul(x, w), table)):
                zero_grads([x, w, table])
                with flops.count_flops() as counter, Tape() as tape:
                    out = build()
                    tape.backward(mean(mul(out, probe)))
                results.append((out.data, counter.total, counter.backward, x.grad, w.grad, table.grad))
            for got, want in zip(*results):
                np.testing.assert_array_equal(got, want)
            # 6 rows of 4 through (4, 6): dW repeats the product, and so does dX when x needs it
            assert results[0][1:3] == (288, 288 * (1 + x_grad)) and (results[0][3] is None) != x_grad
        with pytest.raises(ShapeError, match="linear"):
            linear(x, w, Tensor(np.zeros((2, 6))))

    def test_slicing_a_whole_axis_is_the_input_itself(self):
        x = rand(np.random.default_rng(1800), 2, 3)
        with Tape() as tape:
            assert slice_axis(x, 1, 0, 3) is x
            assert slice_axis(x, 0, 0, 1).shape == (1, 3)
        assert len(tape) == 1

    def test_shape_errors_name_the_op(self):
        x, w, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(4))
        with pytest.raises(ShapeError, match="linear"):
            linear(x, w, Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match="linear"):
            linear(Tensor(np.zeros(3)), w, b)
        with pytest.raises(ShapeError, match="ffn"):
            ffn(x, w, b, Tensor(np.zeros((3, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match="add_norm"):
            add_norm(x, Tensor(np.zeros((3, 2))), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match="add_norm"):
            add_norm(x, x, Tensor(np.ones(4)), Tensor(np.zeros(4)))


class TestShapeErrors:
    def test_matmul_inner_dim_message_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_concat_off_axis_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)

    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeError):
            reshape(Tensor(np.zeros((2, 3))), (7,))

    def test_slice_out_of_range(self):
        with pytest.raises(ShapeError):
            slice_axis(Tensor(np.zeros((2, 3))), 0, 0, 5)

    def test_take_rows_out_of_range(self):
        with pytest.raises(ShapeError):
            take_rows(Tensor(np.zeros((2, 3))), [0, 2])

    def test_cross_entropy_bad_target(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((1, 3))), [3])

    def test_add_bias_requires_matching_width(self):
        with pytest.raises(ShapeError):
            add_bias(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))
