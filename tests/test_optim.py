"""Adam optimizer against an inline scalar reference implementation."""
import numpy as np
import pytest

from wattsplit.autodiff import Tensor, add, dense, mse_loss
from wattsplit.optim import BLOCK, Adam, Parameter


def reference_adam(theta0, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Scalar-loop Adam oracle; returns the trajectory of theta."""
    theta = float(theta0)
    m = v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta -= lr * mhat / (np.sqrt(vhat) + eps)
        out.append(theta)
    return out


def make_param(values, name="p"):
    return Parameter(name, Tensor(np.asarray(values, dtype=np.float64)))


class TestAdam:
    def test_first_step_magnitude_equals_lr(self):
        p = make_param([1.0])
        p.tensor.grad = np.array([0.5])
        Adam(learning_rate=1e-3).step([p])
        # bias-corrected first step is lr * g / (|g| + eps) = ~lr
        assert abs(p.tensor.values[0] - (1.0 - 1e-3)) < 1e-9

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=50)
        p = make_param([0.3])
        opt = Adam(learning_rate=0.01)
        mine = []
        for g in grads:
            p.tensor.grad = np.array([g])
            opt.step([p])
            mine.append(float(p.tensor.values[0]))
        ref = reference_adam(0.3, grads, lr=0.01)
        np.testing.assert_allclose(mine, ref, rtol=1e-12, atol=1e-12)

    def test_quadratic_descent(self):
        # minimize theta^2 from theta0=1 with lr=0.1: 100 steps reach |theta| < 0.1
        p = make_param([1.0])
        opt = Adam(learning_rate=0.1)
        for _ in range(100):
            p.tensor.grad = 2.0 * p.tensor.values
            opt.step([p])
        assert abs(p.tensor.values[0]) < 0.1

    def test_zero_gradient_leaves_values(self):
        p = make_param([1.0, -2.0])
        p.tensor.grad = np.zeros(2)
        opt = Adam()
        opt.step([p])
        np.testing.assert_array_equal(p.tensor.values, [1.0, -2.0])
        assert opt.step_count == 1

    def test_missing_gradient_rejected_with_name(self):
        p = make_param([1.0], name="power/fc/weights")
        with pytest.raises(ValueError, match="power/fc/weights"):
            Adam().step([p])
        # on a later step the parameter has a gradient view, but no gradient
        opt = Adam()
        p.tensor.grad = np.array([1.0])
        opt.step([p])
        assert p.tensor.grad is None and p.tensor.grad_view is not None
        with pytest.raises(ValueError, match="power/fc/weights.*has no gradient"):
            opt.step([p])

    def test_non_trainable_untouched(self):
        frozen = Parameter("frozen", Tensor([5.0]), trainable=False)
        live = make_param([1.0], name="live")
        live.tensor.grad = np.array([1.0])
        Adam().step([frozen, live])
        assert frozen.tensor.values[0] == 5.0
        assert live.tensor.values[0] != 1.0

    def test_frozen_parameter_between_trainable_ones_keeps_its_array(self):
        first, last = make_param([1.0, 2.0], name="first"), make_param([3.0], name="last")
        own = np.array([5.0, 6.0, 7.0])
        frozen = Parameter("frozen", Tensor(own), trainable=False)
        opt = Adam()
        for _ in range(3):
            first.tensor.grad, last.tensor.grad = np.ones(2), np.ones(1)
            opt.step([first, frozen, last])
        assert frozen.tensor.values is own
        np.testing.assert_array_equal(own, [5.0, 6.0, 7.0])
        assert frozen.tensor.grad_view is None
        # the trainable values are adjacent views of one vector
        assert first.tensor.values.base is last.tensor.values.base
        assert not np.shares_memory(own, first.tensor.values.base)

    def test_gradients_cleared_after_step(self):
        p = make_param([1.0])
        p.tensor.grad = np.array([1.0])
        Adam().step([p])
        assert p.tensor.grad is None

    def test_accumulator_shape_mismatch_rejected(self):
        p = make_param([1.0, 2.0])
        p.tensor.grad = np.zeros(2)
        opt = Adam()
        opt.step([p])
        p.tensor.values = np.zeros(3)
        p.tensor.grad = np.zeros(3)
        with pytest.raises(ValueError, match="changed"):
            opt.step([p])
        q = make_param([1.0, 2.0])
        q.tensor.grad = np.zeros(2)
        with pytest.raises(ValueError, match="changed"):
            opt.step([q])
        # same shape, but no longer a view of the optimizer's vector
        p.tensor.values = np.zeros(2)
        p.tensor.grad = np.zeros(2)
        with pytest.raises(ValueError, match="changed"):
            opt.step([p])

    def test_in_place_update_is_bitwise_the_textbook_update(self):
        rng = np.random.default_rng(3)
        # the 160,000 values span three update blocks, the last one partial,
        # and the parameters' boundaries fall inside the first and the last
        shapes = [(4, 3), (5,), (400, 400), (3, 7)]
        assert 2 * BLOCK < 400 * 400 < 3 * BLOCK
        params = [Parameter(f"w{i}", Tensor(rng.normal(size=shape)))
                  for i, shape in enumerate(shapes)]
        theta = [p.tensor.values.copy() for p in params]
        m = [np.zeros(shape) for shape in shapes]
        v = [np.zeros(shape) for shape in shapes]
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        opt = Adam(learning_rate=lr)
        for t in range(1, 21):
            grads = [rng.normal(size=shape) for shape in shapes]
            for p, g in zip(params, grads):
                p.tensor.grad = g.copy()
            opt.step(params)
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * (g * g)
                theta[i] = theta[i] - lr * (m[i] / (1 - b1 ** t)) / (
                    np.sqrt(v[i] / (1 - b2 ** t)) + eps)
            for p, want in zip(params, theta):
                assert p.tensor.values.tobytes() == want.tobytes()

    def test_gradient_of_a_parameter_used_twice_is_bitwise_the_sum(self, rng):
        p = Parameter("w", Tensor(rng.normal(size=(4, 3))))
        p.tensor.grad = np.zeros((4, 3))
        opt = Adam()
        opt.step([p])  # gives the parameter its gradient view
        x1, x2 = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        bias, target = np.zeros(4), rng.normal(size=(5, 4))

        def loss(w1, w2):
            return mse_loss(add(dense(x1, w1, bias), dense(x2, w2, bias)), target)

        loss(p.tensor, p.tensor).backward()
        g1, g2 = Tensor(p.tensor.values.copy()), Tensor(p.tensor.values.copy())
        loss(g1, g2).backward()
        assert p.tensor.grad.tobytes() == (g1.grad + g2.grad).tobytes()
        opt.step([p])
        assert p.tensor.grad is None

    def test_non_contiguous_values_rejected(self):
        p = make_param(np.zeros((3, 2)))
        p.tensor.values = np.zeros((2, 3)).T
        p.tensor.grad = np.ones((3, 2))
        with pytest.raises(ValueError, match="contiguous"):
            Adam().step([p])

    def test_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(42)
            p = Parameter("w", Tensor(rng.normal(size=(4, 3))))
            opt = Adam(learning_rate=0.05)
            for _ in range(20):
                p.tensor.grad = rng.normal(size=(4, 3))
                opt.step([p])
            return p.tensor.values.tobytes()

        assert run() == run()

    def test_step_counter_monotone(self):
        p = make_param([1.0])
        opt = Adam()
        for expected in range(1, 6):
            p.tensor.grad = np.array([0.1])
            opt.step([p])
            assert opt.step_count == expected

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=0.0)
