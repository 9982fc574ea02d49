"""Autodiff kernel: forward values against oracles, gradients against
central finite differences, and the tape's lifetime."""
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (central_difference, conv1d_scalar, cross_entropy_scalar,
                      relative_error)
from wattsplit.autodiff import (Tensor, add, conv1d, cross_entropy_loss, dense,
                                mse_loss, relu, reshape, scale, sigmoid, softmax,
                                window_gather)
from wattsplit.model import combine

FD_TOL = 1e-5


class TestTensor:
    def test_values_are_float64_and_contiguous(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.values.dtype == np.float64
        assert t.values.flags["C_CONTIGUOUS"]
        assert t.shape == (2, 2)

    def test_grad_starts_empty(self):
        assert Tensor([1.0]).grad is None

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            Tensor([1.0, 2.0]).backward()

    def test_grad_accumulates_across_shared_use(self):
        x = Tensor([2.0, 3.0])
        y = add(x, x)  # dy/dx = 2
        loss = mse_loss(y, np.zeros(2))
        loss.backward()
        expected = central_difference(
            lambda v: float(np.mean((v + v) ** 2)), np.array([2.0, 3.0]))
        assert relative_error(x.grad, expected) < FD_TOL


# every operation that records a closure, applied to fresh leaf tensors
RECORDING_OPS = {
    "conv1d": lambda r: conv1d(Tensor(r.normal(size=(2, 3, 10))),
                               Tensor(r.normal(size=(4, 3, 3))),
                               Tensor(r.normal(size=4)), stride=2),
    "window_gather": lambda r: window_gather(Tensor(r.normal(size=(2, 3, 10))),
                                             np.array([0, 1, 1]), np.array([0, 2, 5]), 4),
    "dense": lambda r: dense(Tensor(r.normal(size=(3, 5))), Tensor(r.normal(size=(4, 5))),
                             Tensor(r.normal(size=4))),
    "relu": lambda r: relu(Tensor(r.normal(size=(3, 4)))),
    "sigmoid": lambda r: sigmoid(Tensor(r.normal(size=(3, 4)))),
    "softmax": lambda r: softmax(Tensor(r.normal(size=(3, 4)))),
    "reshape": lambda r: reshape(Tensor(r.normal(size=(3, 4))), (4, 3)),
    "add": lambda r: add(Tensor(r.normal(size=(3, 4))), Tensor(r.normal(size=(3, 4)))),
    "scale": lambda r: scale(Tensor(r.normal(size=(3, 4))), 0.5),
    "mse_loss": lambda r: mse_loss(Tensor(r.normal(size=(3, 4))),
                                   Tensor(r.normal(size=(3, 4)))),
    "cross_entropy_loss": lambda r: cross_entropy_loss(Tensor(np.full((3, 4), 0.25)),
                                                       np.eye(4)[[0, 2, 3]]),
    "combine": lambda r: combine(Tensor(r.normal(size=(2, 3))),
                                 Tensor(np.full((2, 5, 3), 1.0 / 3.0))),
}


class TestTape:
    @pytest.mark.parametrize("op", sorted(RECORDING_OPS))
    def test_dropped_tape_is_freed_without_the_cycle_collector(self, op, rng):
        gc.disable()
        try:
            mid = RECORDING_OPS[op](rng)
            root = scale(mid, 2.0)
            assert mid._backward is not None and root._parents == (mid,)
            alive = weakref.ref(mid.values)
            del mid, root
            assert alive() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("op", sorted(RECORDING_OPS))
    def test_backward_consumes_the_tape(self, op, rng):
        out = RECORDING_OPS[op](rng)
        loss = mse_loss(out, np.zeros(out.shape))
        walked, stack = [], [loss]
        while stack:
            node = stack.pop()
            walked.append(node)
            stack.extend(node._parents)
        leaves = [node for node in walked if not node._parents]
        assert out in walked and out._backward is not None
        loss.backward()
        for node in walked:
            assert node._backward is None and node._parents == ()
        assert all(leaf.grad is not None for leaf in leaves)


class TestConv1d:
    def test_hand_example(self):
        # [1,2,3,4] * kernel [1,0,-1]: 1-3 = -2, 2-4 = -2
        out = conv1d(Tensor([[[1.0, 2.0, 3.0, 4.0]]]),
                     Tensor([[[1.0, 0.0, -1.0]]]), Tensor([0.0]))
        assert out.values.shape == (1, 1, 2)
        np.testing.assert_array_equal(out.values, [[[-2.0, -2.0]]])

    def test_matches_scalar_loop(self, rng):
        x = rng.normal(size=(2, 3, 20))
        k = rng.normal(size=(5, 3, 4))
        b = rng.normal(size=5)
        for stride in (1, 2, 3):
            out = conv1d(Tensor(x), Tensor(k), Tensor(b), stride=stride)
            for i in range(2):
                np.testing.assert_allclose(out.values[i],
                                           conv1d_scalar(x[i], k, b, stride),
                                           rtol=1e-12, atol=1e-12)

    def test_one_hot_kernel_extracts_shifted_slice(self, rng):
        x = rng.normal(size=(1, 1, 12))
        k = np.zeros((1, 1, 3))
        k[0, 0, 2] = 1.0  # picks x[t + 2]
        out = conv1d(Tensor(x), Tensor(k), Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.values[0, 0], x[0, 0, 2:])

    def test_output_length(self, rng):
        x = rng.normal(size=(1, 1, 11))
        k = rng.normal(size=(2, 1, 4))
        out = conv1d(Tensor(x), Tensor(k), Tensor(np.zeros(2)), stride=3)
        assert out.values.shape == (1, 2, (11 - 4) // 3 + 1)

    def test_batched_matches_per_example(self, rng):
        x = rng.normal(size=(4, 2, 15))
        k = rng.normal(size=(3, 2, 5))
        b = rng.normal(size=3)
        batched = conv1d(Tensor(x), Tensor(k), Tensor(b), stride=2)
        for i in range(4):
            one = conv1d(Tensor(x[i : i + 1]), Tensor(k), Tensor(b), stride=2)
            np.testing.assert_allclose(batched.values[i], one.values[0], rtol=1e-13)

    def test_kernel_longer_than_input_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            conv1d(Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 1, 5))),
                   Tensor(np.zeros(1)))

    def test_channel_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError) as err:
            conv1d(Tensor(np.zeros((1, 2, 9))), Tensor(np.zeros((4, 3, 3))),
                   Tensor(np.zeros(4)))
        assert "(1, 2, 9)" in str(err.value) and "(4, 3, 3)" in str(err.value)

    def test_unbatched_input_rejected(self):
        with pytest.raises(ValueError, match=r"3-D.*\(2, 9\)"):
            conv1d(Tensor(np.zeros((2, 9))), Tensor(np.zeros((4, 2, 3))),
                   Tensor(np.zeros(4)))

    def test_gradients_match_finite_differences(self, rng):
        x = rng.normal(size=(2, 2, 10))
        k = rng.normal(size=(3, 2, 3))
        b = rng.normal(size=3)
        weight = rng.normal(size=(2, 3, 8))  # random scalarization

        def run(xv, kv, bv):
            out = conv1d(Tensor(xv), Tensor(kv), Tensor(bv))
            return float(np.sum(out.values * weight))

        xt, kt, bt = Tensor(x), Tensor(k), Tensor(b)
        out = conv1d(xt, kt, bt)
        loss = mse_loss(out, out.values - weight / 2.0)  # grad = weight / size
        loss.backward()
        size = out.values.size
        for tensor, arr, f in (
            (xt, x, lambda v: run(v, k, b)),
            (kt, k, lambda v: run(x, v, b)),
            (bt, b, lambda v: run(x, k, v)),
        ):
            fd = central_difference(f, arr) / size
            assert relative_error(tensor.grad, fd) < FD_TOL

    def test_stride_gradient(self, rng):
        x = rng.normal(size=(2, 2, 13))
        k = rng.normal(size=(2, 2, 4))
        b = rng.normal(size=2)
        xt = Tensor(x)
        out = conv1d(xt, Tensor(k), Tensor(b), stride=3)
        loss = mse_loss(out, np.zeros_like(out.values))
        loss.backward()

        def f(v):
            o = conv1d(Tensor(v), Tensor(k), Tensor(b), stride=3).values
            return float(np.mean(o ** 2))

        assert relative_error(xt.grad, central_difference(f, x)) < FD_TOL


class TestWindowGather:
    def test_matches_slicing_loop(self, rng):
        x = rng.normal(size=(2, 3, 11))
        rows, offsets = np.array([0, 1, 0, 0]), np.array([0, 2, 5, 5])
        out = window_gather(Tensor(x), rows, offsets, 4)
        assert out.shape == (4, 12)
        for b in range(4):
            np.testing.assert_array_equal(
                out.values[b], x[rows[b], :, offsets[b] : offsets[b] + 4].ravel())

    def test_one_window_per_row_is_a_reshape(self, rng):
        x = rng.normal(size=(3, 2, 5))
        out = window_gather(Tensor(x), np.arange(3), np.zeros(3, dtype=int), 5)
        assert out.values.tobytes() == x.reshape(3, 10).tobytes()

    def test_gradients_match_finite_differences(self, rng):
        # overlapping windows on two of three rows, offset 1 of row 0 read
        # twice, and row 2 read by no window (its gradient is zero)
        x = rng.normal(size=(3, 2, 9))
        rows = np.array([0, 0, 1, 0, 1, 0])
        offsets = np.array([1, 3, 0, 1, 4, 5])
        weight = rng.normal(size=(6, 8))

        def f(v):
            return float(np.sum(window_gather(Tensor(v), rows, offsets, 4).values
                                * weight))

        xt = Tensor(x)
        out = window_gather(xt, rows, offsets, 4)
        loss = mse_loss(out, out.values - weight / 2.0)  # grad = weight / size
        loss.backward()
        fd = central_difference(f, x) / out.values.size
        assert relative_error(xt.grad, fd) < FD_TOL
        assert not np.any(xt.grad[2])

    @pytest.mark.parametrize("rows,offsets", [([2], [0]), ([0], [-1]), ([0], [8])])
    def test_window_outside_input_rejected(self, rows, offsets):
        with pytest.raises(ValueError, match=r"outside.*\(2, 1, 11\)"):
            window_gather(Tensor(np.zeros((2, 1, 11))), np.array(rows),
                          np.array(offsets), 4)


class TestDense:
    def test_forward(self, rng):
        x = rng.normal(size=(2, 5))
        w = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        out = dense(Tensor(x), Tensor(w), Tensor(b))
        for i in range(2):
            np.testing.assert_allclose(out.values[i], w @ x[i] + b, rtol=1e-13)

    def test_shape_mismatch_named(self):
        with pytest.raises(ValueError) as err:
            dense(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 5))),
                  Tensor(np.zeros(3)))
        assert "(2, 4)" in str(err.value) and "(3, 5)" in str(err.value)

    def test_unbatched_input_rejected(self):
        with pytest.raises(ValueError, match=r"2-D.*\(5,\)"):
            dense(Tensor(np.zeros(5)), Tensor(np.zeros((3, 5))), Tensor(np.zeros(3)))

    def test_gradients_match_finite_differences(self, rng):
        x = rng.normal(size=(2, 6))
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
        loss = mse_loss(dense(xt, wt, bt), np.zeros((2, 4)))
        loss.backward()
        for tensor, arr, f in (
            (xt, x, lambda v: float(np.mean((v @ w.T + b) ** 2))),
            (wt, w, lambda v: float(np.mean((x @ v.T + b) ** 2))),
            (bt, b, lambda v: float(np.mean((x @ w.T + v) ** 2))),
        ):
            assert relative_error(tensor.grad, central_difference(f, arr)) < FD_TOL


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 0.0, 2.5]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.5])

    def test_sigmoid_values(self, rng):
        x = rng.normal(size=20) * 10
        out = sigmoid(Tensor(x))
        np.testing.assert_allclose(out.values, 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)
        extreme = sigmoid(Tensor([-800.0, 800.0]))
        assert np.all(np.isfinite(extreme.values))

    def test_softmax_rows(self, rng):
        x = rng.normal(size=(6, 4)) * 5
        out = softmax(Tensor(x))
        np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(out.values > 0)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_softmax_row_sums_property(self, row):
        out = softmax(Tensor([row]))
        assert abs(out.values.sum() - 1.0) <= 1e-9
        assert np.all(out.values > 0)

    def test_non_finite_rejected(self):
        for fn in (relu, sigmoid, softmax):
            with pytest.raises(ValueError, match="NaN or Inf"):
                fn(Tensor([np.nan, 1.0]))
            with pytest.raises(ValueError, match="NaN or Inf"):
                fn(Tensor([np.inf, 1.0]))

    def test_gradients_match_finite_differences(self, rng):
        x = rng.normal(size=(3, 5))
        target = rng.normal(size=(3, 5))
        cases = {
            "relu": lambda t: relu(t),
            "sigmoid": lambda t: sigmoid(t),
            "softmax": lambda t: softmax(t),
        }
        for name, fn in cases.items():
            xv = x + (0.1 if name == "relu" else 0.0)  # keep off the kink
            xt = Tensor(xv)
            loss = mse_loss(fn(xt), target)
            loss.backward()
            fd = central_difference(
                lambda v: float(np.mean((fn(Tensor(v)).values - target) ** 2)), xv)
            assert relative_error(xt.grad, fd) < FD_TOL, name


class TestLosses:
    def test_mse_value_and_grad(self, rng):
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))
        pt = Tensor(pred)
        loss = mse_loss(pt, target)
        # scalar-loop oracle
        acc = 0.0
        for i in range(4):
            for j in range(3):
                acc += (target[i, j] - pred[i, j]) ** 2
        assert loss.values == pytest.approx(acc / 12, rel=1e-12)
        loss.backward()
        np.testing.assert_allclose(pt.grad, 2.0 * (pred - target) / 12, rtol=1e-12)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse_loss(Tensor(np.zeros(3)), np.zeros(4))

    def test_cross_entropy_hand_value(self):
        # uniform over 2 classes vs one-hot: -log(0.5) = ln 2
        loss = cross_entropy_loss(Tensor([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
        assert loss.values == pytest.approx(np.log(2.0), rel=1e-12)

    def test_cross_entropy_matches_scalar_loop(self, rng):
        logits = rng.normal(size=(7, 4))
        probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        targets = np.eye(4)[rng.integers(4, size=7)]
        loss = cross_entropy_loss(Tensor(probs), targets)
        assert loss.values == pytest.approx(cross_entropy_scalar(probs, targets),
                                            rel=1e-12)

    def test_cross_entropy_perfect_prediction_near_zero(self):
        rows = np.eye(3)[[0, 2, 1, 1]]
        loss = cross_entropy_loss(Tensor(rows), rows)
        assert abs(float(loss.values)) <= 1e-11

    def test_cross_entropy_row_sum_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            cross_entropy_loss(Tensor([[0.7, 0.7]]), np.array([[1.0, 0.0]]))

    def test_cross_entropy_target_must_be_one_hot(self):
        with pytest.raises(ValueError, match="one-hot"):
            cross_entropy_loss(Tensor([[0.5, 0.5]]), np.array([[0.5, 0.5]]))

    def test_cross_entropy_clip_keeps_loss_finite(self):
        loss = cross_entropy_loss(Tensor([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert np.isfinite(loss.values)
        assert loss.values == pytest.approx(-np.log(1e-12), rel=1e-9)

    def test_cross_entropy_gradient_matches_fd(self, rng):
        logits = rng.normal(size=(5, 3))
        targets = np.eye(3)[rng.integers(3, size=5)]
        lt = Tensor(logits)
        loss = cross_entropy_loss(softmax(lt), targets)
        loss.backward()
        fd = central_difference(
            lambda v: cross_entropy_scalar(
                np.exp(v - v.max(-1, keepdims=True))
                / np.exp(v - v.max(-1, keepdims=True)).sum(-1, keepdims=True),
                targets),
            logits)
        assert relative_error(lt.grad, fd) < FD_TOL


class TestCompositeOps:
    def test_reshape_round_trip_gradient(self, rng):
        x = rng.normal(size=(2, 6))
        xt = Tensor(x)
        loss = mse_loss(reshape(xt, (3, 4)), np.zeros((3, 4)))
        loss.backward()
        np.testing.assert_allclose(xt.grad, 2.0 * x / 12, rtol=1e-12)

    def test_add_and_scale(self, rng):
        a, b = rng.normal(size=4), rng.normal(size=4)
        at, bt = Tensor(a), Tensor(b)
        out = scale(add(at, bt), 3.0)
        np.testing.assert_allclose(out.values, 3.0 * (a + b), rtol=1e-13)
        loss = mse_loss(out, np.zeros(4))
        loss.backward()
        np.testing.assert_allclose(at.grad, bt.grad, rtol=1e-13)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_add_rejects_scalar_and_vector(self):
        with pytest.raises(ValueError, match=r"mismatch \(2,\) vs \(\)"):
            add(Tensor([1.0, 2.0]), Tensor(1.5))

    def test_deep_chain_matches_fd(self, rng):
        """Whole small net worth of ops: conv -> relu -> dense -> softmax -> CE."""
        x = rng.normal(size=(2, 1, 12))
        k = rng.normal(size=(2, 1, 3), scale=0.7)
        w = rng.normal(size=(6, 20), scale=0.5)
        targets = np.eye(3)[[[0, 2], [1, 1]]]

        def f(kv):
            h = conv1d(Tensor(x), Tensor(kv), Tensor(np.zeros(2)))
            h = relu(h)
            h = reshape(h, (2, 20))
            h = dense(h, Tensor(w), Tensor(np.zeros(6)))
            p = softmax(reshape(h, (2, 2, 3)))
            return cross_entropy_loss(p, targets)

        kt = Tensor(k)
        h = conv1d(Tensor(x), kt, Tensor(np.zeros(2)))
        h = relu(h)
        h = reshape(h, (2, 20))
        h = dense(h, Tensor(w), Tensor(np.zeros(6)))
        loss = cross_entropy_loss(softmax(reshape(h, (2, 2, 3))), targets)
        loss.backward()
        fd = central_difference(lambda v: float(f(v).values), k)
        assert relative_error(kt.grad, fd) < FD_TOL

    def test_forward_values_stay_finite(self, rng):
        x = rng.normal(size=(2, 2, 30)) * 3
        out = softmax(dense(relu(reshape(
            conv1d(Tensor(x), Tensor(rng.normal(size=(3, 2, 5))),
                   Tensor(rng.normal(size=3))), (2, 78))),
            Tensor(rng.normal(size=(4, 78)) * 0.1), Tensor(np.zeros(4))))
        assert np.all(np.isfinite(out.values))
