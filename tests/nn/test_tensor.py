"""Autodiff correctness: every op is checked against central differences."""

import numpy as np
import pytest

from repro.nn.tensor import (
    Tensor,
    concat,
    log_softmax,
    no_grad,
    segment_mean,
    segment_softmax,
    segment_sum,
    softmax,
    stack,
)
from tests.nn.gradcheck import check_gradient

rng = np.random.default_rng(42)


class TestForward:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3))
        assert np.allclose((a + b).data, 1 + np.arange(3))

    def test_scalar_ops(self):
        x = Tensor([1.0, 2.0])
        assert np.allclose((x * 3 + 1).data, [4.0, 7.0])
        assert np.allclose((1 - x).data, [0.0, -1.0])
        assert np.allclose((6 / x).data, [6.0, 3.0])

    def test_matmul_2d(self):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        out = Tensor(a) @ Tensor(b)
        assert np.allclose(out.data, a @ b, atol=1e-5)

    def test_matmul_batched(self):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 5))
        out = Tensor(a) @ Tensor(b)
        assert np.allclose(out.data, a @ b, atol=1e-5)

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]) @ Tensor([[1.0], [2.0]])

    def test_softmax_rows_sum_to_one(self):
        p = softmax(Tensor(rng.normal(size=(4, 7))))
        assert np.allclose(p.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_log_softmax_matches_softmax(self):
        x = Tensor(rng.normal(size=(3, 5)))
        assert np.allclose(np.exp(log_softmax(x).data), softmax(x).data, atol=1e-6)

    def test_segment_sum_values(self):
        x = Tensor(np.arange(8, dtype=np.float32).reshape(4, 2))
        out = segment_sum(x, np.array([0, 0, 1, 1]), 2)
        assert np.allclose(out.data, [[2, 4], [10, 12]])

    def test_segment_mean_handles_empty_segment(self):
        x = Tensor(np.ones((2, 3)))
        out = segment_mean(x, np.array([0, 0]), 3)
        assert np.allclose(out.data[0], 1.0)
        assert np.allclose(out.data[2], 0.0)  # empty segment -> zeros

    def test_segment_softmax_normalises_within_segments(self):
        logits = Tensor(rng.normal(size=6))
        seg = np.array([0, 0, 0, 1, 1, 2])
        p = segment_softmax(logits, seg, 3)
        assert np.isclose(p.data[:3].sum(), 1.0, atol=1e-6)
        assert np.isclose(p.data[3:5].sum(), 1.0, atol=1e-6)
        assert np.isclose(p.data[5], 1.0, atol=1e-6)

    def test_segment_softmax_extreme_logits_stable(self):
        logits = Tensor(np.array([1000.0, 999.0, -1000.0]))
        p = segment_softmax(logits, np.array([0, 0, 0]), 1)
        assert np.isfinite(p.data).all()
        assert np.isclose(p.data.sum(), 1.0, atol=1e-6)

    def test_getitem_rows(self):
        x = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        out = x[np.array([2, 0])]
        assert np.allclose(out.data, [[6, 7, 8], [0, 1, 2]])

    def test_concat_and_stack(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3)))
        assert concat([a, b], axis=0).shape == (4, 3)
        assert concat([a, b], axis=1).shape == (2, 6)
        assert stack([a, b], axis=0).shape == (2, 2, 3)

    def test_no_grad_blocks_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_no_grad_overlapping_across_threads_restores_grad(self):
        """Thread A enters, thread B enters, A exits, B exits: once
        both blocks are closed, recording must be back on."""
        import threading

        from repro.nn.tensor import is_grad_enabled

        a_in, b_in, a_out = (threading.Event() for _ in range(3))

        def block_a():
            with no_grad():
                a_in.set()
                b_in.wait(5)
            a_out.set()

        def block_b():
            a_in.wait(5)
            with no_grad():
                b_in.set()
                a_out.wait(5)

        threads = [threading.Thread(target=f) for f in (block_a, block_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert is_grad_enabled()

    def test_masked_fill(self):
        x = Tensor(np.ones((2, 2)))
        mask = np.array([[True, False], [False, True]])
        out = x.masked_fill(mask, -1e9)
        assert out.data[0, 0] == -1e9 and out.data[0, 1] == 1.0


class TestBackwardElementwise:
    @pytest.mark.parametrize(
        "op",
        [
            lambda t: (t * t).sum(),
            lambda t: (t + 2.0).sum(),
            lambda t: (t / 3.0).sum(),
            lambda t: (2.0 / (t + 3.0)).sum(),
            lambda t: (t ** 3).sum(),
            lambda t: t.exp().sum(),
            lambda t: t.tanh().sum(),
            lambda t: t.sigmoid().sum(),
            lambda t: t.gelu().sum(),
            lambda t: (t - t.mean()).sum(),
            lambda t: t.sqrt().sum(),
        ],
    )
    def test_unary_grads(self, op):
        x = rng.uniform(0.5, 2.0, size=(3, 4))
        check_gradient(op, x)

    def test_relu_grad_off_kink(self):
        x = rng.uniform(0.1, 1.0, size=(4,)) * np.array([1, -1, 1, -1])
        check_gradient(lambda t: t.relu().sum(), x)

    def test_abs_grad_off_zero(self):
        x = np.array([1.5, -2.5, 0.5, -0.25])
        check_gradient(lambda t: t.abs().sum(), x)

    def test_mul_both_sides(self):
        a = rng.normal(size=(3, 3))

        def loss(t):
            return (t * t.transpose()).sum()

        check_gradient(loss, a)

    def test_broadcast_add_grad(self):
        x = rng.normal(size=(1, 4))
        check_gradient(lambda t: (t + np.ones((3, 4))).sum(), x)

    def test_broadcast_mul_grad(self):
        x = rng.normal(size=(3, 1))
        check_gradient(lambda t: (t * np.arange(8.0).reshape(1, 8)).sum(), x)


class TestBackwardReductionsAndShapes:
    def test_sum_axis(self):
        x = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), x)

    def test_sum_keepdims(self):
        x = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), x)

    def test_mean_grad(self):
        x = rng.normal(size=(5,))
        check_gradient(lambda t: (t.mean() ** 2).sum(), x)

    def test_max_grad(self):
        x = np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 4.0]])
        check_gradient(lambda t: t.max(axis=1).sum(), x)

    def test_reshape_grad(self):
        x = rng.normal(size=(2, 6))
        check_gradient(lambda t: (t.reshape(3, 4) ** 2).sum(), x)

    def test_transpose_grad(self):
        x = rng.normal(size=(2, 3, 4))
        check_gradient(lambda t: (t.transpose(2, 0, 1) ** 2).sum(), x)

    def test_swapaxes_grad(self):
        x = rng.normal(size=(2, 3, 4))
        check_gradient(lambda t: (t.swapaxes(1, 2) ** 2).sum(), x)

    def test_getitem_grad_with_repeats(self):
        x = rng.normal(size=(4, 3))
        idx = np.array([0, 2, 0, 3])
        check_gradient(lambda t: (t[idx] ** 2).sum(), x)

    def test_slice_grad(self):
        x = rng.normal(size=(4, 4))
        check_gradient(lambda t: (t[1:3, :2] ** 2).sum(), x)


class TestBackwardMatmulSoftmax:
    def test_matmul_grad_lhs_rhs(self):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))

        def loss_a(t):
            return ((t @ Tensor(b)) ** 2).sum()

        check_gradient(loss_a, a)

        def loss_b(t):
            return ((Tensor(a) @ t) ** 2).sum()

        check_gradient(loss_b, b)

    def test_batched_matmul_grad(self):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 3))
        check_gradient(lambda t: ((t @ Tensor(b)) ** 2).sum(), a)

    def test_broadcast_matmul_grad(self):
        a = rng.normal(size=(2, 5, 3, 4))
        b = rng.normal(size=(3 * 4,)).reshape(4, 3)
        check_gradient(lambda t: ((Tensor(a) @ t) ** 2).sum(), b)

    def test_softmax_grad(self):
        x = rng.normal(size=(3, 5))
        check_gradient(lambda t: (softmax(t) * np.arange(5.0)).sum(), x)

    def test_log_softmax_grad(self):
        x = rng.normal(size=(2, 4))
        check_gradient(lambda t: (log_softmax(t) * np.arange(4.0)).sum(), x)


class TestBackwardSegmentOps:
    def test_segment_sum_grad(self):
        x = rng.normal(size=(6, 3))
        seg = np.array([0, 1, 0, 2, 1, 0])
        check_gradient(lambda t: (segment_sum(t, seg, 3) ** 2).sum(), x)

    def test_segment_mean_grad(self):
        x = rng.normal(size=(5, 2))
        seg = np.array([0, 0, 1, 1, 1])
        check_gradient(lambda t: (segment_mean(t, seg, 2) ** 2).sum(), x)

    def test_segment_softmax_grad_1d(self):
        x = rng.normal(size=(7,))
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        weights = np.arange(7.0)
        check_gradient(
            lambda t: (segment_softmax(t, seg, 3) * weights).sum(), x
        )

    def test_segment_softmax_grad_multihead(self):
        x = rng.normal(size=(5, 2))  # (edges, heads)
        seg = np.array([0, 0, 0, 1, 1])
        weights = rng.normal(size=(5, 2))
        check_gradient(
            lambda t: (segment_softmax(t, seg, 2) * weights).sum(), x
        )

    def test_concat_grad(self):
        x = rng.normal(size=(2, 3))

        def loss(t):
            joined = concat([t, t * 2.0], axis=1)
            return (joined ** 2).sum()

        check_gradient(loss, x)


class TestAccumulation:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3 + x * 4  # dy/dx = 7
        y.backward()
        assert np.isclose(x.grad[0], 7.0)

    def test_diamond_graph(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        a = x * 2
        b = x * 3
        out = a * b  # 6x^2 -> d/dx = 12x = 18
        out.backward()
        assert np.isclose(x.grad[0], 18.0)

    def test_backward_twice_accumulates(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2).backward()
        (x * 2).backward()
        assert np.isclose(x.grad[0], 4.0)

    def test_zero_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_detach_stops_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x.detach() * 5
        assert not y.requires_grad
