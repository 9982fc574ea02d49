"""Twin-head network: configuration, forward shapes, combine, and losses."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattsplit import autodiff as ad
from wattsplit.demo import demo_net_config
from wattsplit.model import (
    DEFAULT_CONV_STACK,
    ConvLayerSpec,
    DisaggNet,
    NetConfig,
    combine,
    loss_power,
    total_loss,
)
from wattsplit.presets import window_for
from wattsplit.windows import WindowConfig

from conftest import central_difference, relative_error

ROOT = Path(__file__).resolve().parents[1]


def tiny_config(s=4, w=3, l=3, seed=0) -> NetConfig:
    return NetConfig(
        window=WindowConfig(s=s, w=w),
        state_count=l,
        conv_stack=(ConvLayerSpec(3, 3), ConvLayerSpec(4, 3)),
        hidden=8,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestNetConfig:
    def test_default_conv_stack(self):
        got = [(c.filters, c.kernel, c.stride) for c in DEFAULT_CONV_STACK]
        assert got == [(30, 10, 1), (30, 8, 1), (40, 6, 1), (50, 5, 1), (50, 5, 1)]

    def test_feature_length_matches_hand_arithmetic(self):
        cfg = NetConfig(window=WindowConfig(s=32, w=200), state_count=3)
        # 432 -> 423 -> 416 -> 411 -> 407 -> 403 under the default stack
        length = 432
        for layer in DEFAULT_CONV_STACK:
            length = (length - layer.kernel) // layer.stride + 1
        assert cfg.feature_length() == length == 403

    def test_feature_length_with_stride(self):
        cfg = NetConfig(
            window=WindowConfig(s=4, w=3),
            state_count=2,
            conv_stack=(ConvLayerSpec(2, 3, stride=2),),
            hidden=4,
        )
        assert cfg.feature_length() == (10 - 3) // 2 + 1 == 4

    def test_rejects_single_state(self):
        with pytest.raises(ValueError, match="state_count"):
            NetConfig(window=WindowConfig(s=4, w=3), state_count=1)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError, match="tau"):
            tiny = tiny_config()
            NetConfig(window=tiny.window, state_count=2,
                      conv_stack=tiny.conv_stack, hidden=4, tau=0.0)

    def test_rejects_empty_stack(self):
        with pytest.raises(ValueError, match="conv_stack"):
            NetConfig(window=WindowConfig(s=4, w=3), state_count=2, conv_stack=())

    def test_rejects_stack_wider_than_input(self):
        with pytest.raises(ValueError, match="does not fit"):
            NetConfig(window=WindowConfig(s=2, w=1), state_count=2,
                      conv_stack=(ConvLayerSpec(2, 9),), hidden=4)

    def test_rejects_bad_layer_spec(self):
        with pytest.raises(ValueError, match="conv layer"):
            ConvLayerSpec(0, 3)
        for fields in ((16.7, 9), (16, 9.0), (16, 9, True)):
            with pytest.raises(ValueError, match="integers"):
                ConvLayerSpec(*fields)
        # lists are converted by NetConfig, numpy integers included
        cfg = NetConfig(window=WindowConfig(s=4, w=3), state_count=2,
                        conv_stack=[[3, 3], [np.int64(4), 3, 1]], hidden=4)
        assert cfg.conv_stack == (ConvLayerSpec(3, 3), ConvLayerSpec(4, 3))


# ---------------------------------------------------------------------------
# parameters and initialization
# ---------------------------------------------------------------------------

def explicit_parameters(cfg: NetConfig) -> list[tuple[str, np.ndarray]]:
    """A net's initial parameters written out layer by layer, drawing from
    one seeded generator in build order: the reference for the layout loop."""
    rng = np.random.default_rng(cfg.seed)

    def glorot(shape, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    out = []
    l, s = cfg.state_count, cfg.window.s
    for prefix, head_width in (("power", l), ("state", s * l)):
        cin = 1
        for i, layer in enumerate(cfg.conv_stack):
            out.append((f"{prefix}/conv{i}/kernels",
                        glorot((layer.filters, cin, layer.kernel), cin * layer.kernel,
                               layer.filters * layer.kernel)))
            out.append((f"{prefix}/conv{i}/bias", np.full(layer.filters, 0.01)))
            cin = layer.filters
        flat = cin * cfg.feature_length()
        out.append((f"{prefix}/fc/weights", glorot((cfg.hidden, flat), flat, cfg.hidden)))
        out.append((f"{prefix}/fc/bias", np.full(cfg.hidden, 0.01)))
        out.append((f"{prefix}/head/weights",
                    glorot((head_width, cfg.hidden), cfg.hidden, head_width)))
        out.append((f"{prefix}/head/bias", np.zeros(head_width)))
    return out


class TestParameters:
    def test_parameter_census(self):
        net = DisaggNet(tiny_config())
        names = [p.name for p in net.parameters()]
        assert len(names) == len(set(names))
        # per subnet: kernels+bias per conv layer, fc pair, head pair
        assert len(names) == 2 * (2 * 2 + 4)
        assert "power/conv0/kernels" in names
        assert "state/head/bias" in names

    @pytest.mark.parametrize("stack", [((3, 3), (4, 3)), ((3, 3), (4, 3, 2)),
                                       DEFAULT_CONV_STACK])
    def test_parameter_count_matches_the_built_net(self, stack):
        cfg = NetConfig(window=WindowConfig(s=32, w=40), state_count=3,
                        conv_stack=stack, hidden=6)
        params = DisaggNet(cfg).parameters()
        layout = [(f"{prefix}/{name}", shape)
                  for prefix, width in (("power", 3), ("state", 32 * 3))
                  for name, shape in cfg.parameter_shapes(width)]
        assert [(p.name, p.tensor.values.shape) for p in params] == layout
        assert cfg.parameter_count() == sum(p.tensor.values.size for p in params)

    @pytest.mark.parametrize("cfg", [
        demo_net_config(3, seed=5),
        NetConfig(window=WindowConfig(s=32, w=40), state_count=3,
                  conv_stack=DEFAULT_CONV_STACK, hidden=8, seed=1),
        NetConfig(window=WindowConfig(s=32, w=40), state_count=2,
                  conv_stack=((8, 9), (8, 7, 2)), hidden=16, seed=4),
    ], ids=["demo", "paper-stack", "stride-2"])
    def test_init_matches_the_layer_by_layer_build(self, cfg):
        built = [(p.name, p.tensor.values) for p in DisaggNet(cfg).parameters()]
        expected = explicit_parameters(cfg)
        assert [name for name, _ in built] == [name for name, _ in expected]
        for (name, got), (_, want) in zip(built, expected):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_head_shapes(self):
        cfg = tiny_config()
        net = DisaggNet(cfg)
        by_name = {p.name: p.tensor.values for p in net.parameters()}
        l, s = cfg.state_count, cfg.window.s
        assert by_name["power/head/weights"].shape == (l, cfg.hidden)
        assert by_name["state/head/weights"].shape == (s * l, cfg.hidden)

    def test_bias_initialization(self):
        # hidden-layer biases start slightly positive (no dead relu units,
        # and no exactly-zero pre-activation at the kink); heads start at 0
        net = DisaggNet(tiny_config())
        for p in net.parameters():
            if p.name.endswith("head/bias"):
                assert np.all(p.tensor.values == 0.0), p.name
            elif p.name.endswith("bias"):
                assert np.all(p.tensor.values == 0.01), p.name

    def test_seeded_init_is_deterministic(self):
        a = DisaggNet(tiny_config(seed=11))
        b = DisaggNet(tiny_config(seed=11))
        c = DisaggNet(tiny_config(seed=12))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.tensor.values, pb.tensor.values)
        assert any(
            not np.array_equal(pa.tensor.values, pc.tensor.values)
            for pa, pc in zip(a.parameters(), c.parameters())
        )

    def test_glorot_limits(self):
        cfg = tiny_config()
        net = DisaggNet(cfg)
        by_name = {p.name: p.tensor.values for p in net.parameters()}
        w = by_name["power/fc/weights"]
        flat = 4 * cfg.feature_length()
        limit = np.sqrt(6.0 / (flat + cfg.hidden))
        assert np.all(np.abs(w) <= limit)
        assert w.std() > 0

    def test_fresh_net_bookkeeping(self):
        net = DisaggNet(tiny_config())
        assert net.epochs_seen == 0
        assert net.dataset_tag == ""


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

class TestForward:
    def test_shapes(self, rng):
        cfg = tiny_config()
        net = DisaggNet(cfg)
        x = rng.normal(size=(5, cfg.window.input_length))
        fwd = net.forward_tensors(x)
        s, l = cfg.window.s, cfg.state_count
        assert fwd.ratings.values.shape == (5, l)
        assert fwd.state_logits.values.shape == (5, s, l)
        assert fwd.state_probs.values.shape == (5, s, l)
        assert fwd.combined.values.shape == (5, s)

    def test_state_rows_are_distributions(self, rng):
        cfg = tiny_config()
        net = DisaggNet(cfg)
        x = rng.normal(size=(4, cfg.window.input_length))
        probs = net.forward_tensors(x).state_probs.values
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_predict_matches_tape_forward(self, rng):
        cfg = tiny_config()
        net = DisaggNet(cfg)
        x = rng.normal(size=(3, cfg.window.input_length))
        fwd = net.forward_tensors(x)
        out = net.predict(x)
        assert np.array_equal(out.ratings, fwd.ratings.values)
        assert np.array_equal(out.state_probs, fwd.state_probs.values)
        assert np.array_equal(out.combined, fwd.combined.values)

    def test_predict_leaves_no_reference_cycles(self, rng):
        import gc
        net = DisaggNet(tiny_config())
        x = rng.normal(size=(3, net.config.window.input_length))
        gc.collect()
        gc.disable()
        try:
            net.predict(x)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dropped_tape_leaves_no_reference_cycles(self, rng):
        import gc
        net = DisaggNet(tiny_config())
        x = rng.normal(size=(3, net.config.window.input_length))
        gc.collect()
        gc.disable()
        try:
            fwd = net.forward_tensors(x)
            assert fwd.combined._backward is not None
            del fwd
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("stack", [((3, 3), (4, 3)), ((3, 3, 2), (4, 3))])
    def test_windows_sharing_rows_match_one_row_per_window(self, rng, stack):
        cfg = NetConfig(window=WindowConfig(s=4, w=3), state_count=3,
                        conv_stack=stack, hidden=8)
        net = DisaggNet(cfg)
        n = cfg.window.input_length
        x = rng.normal(size=(2, n + 6))
        rows, offsets = np.array([0, 1, 0, 0, 1]), np.array([0, 2, 6, 2, 4])
        shared = net.forward_tensors(x, rows, offsets)
        single = net.forward_tensors(np.stack([x[r, o : o + n]
                                               for r, o in zip(rows, offsets)]))
        for a, b in ((shared.ratings, single.ratings),
                     (shared.state_probs, single.state_probs),
                     (shared.combined, single.combined)):
            np.testing.assert_allclose(a.values, b.values, rtol=1e-12, atol=1e-14)

    def test_paper_size_stack_matches_the_per_tap_reference(self, rng, monkeypatch):
        # bench/reference.py convolves channel-first, one GEMM per tap, with
        # no code shared with the program's channels-last im2col
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        import reference

        cfg = NetConfig(window=window_for("ukdale"), state_count=3,
                        conv_stack=DEFAULT_CONV_STACK, hidden=16, seed=2)
        net = DisaggNet(cfg)
        x = rng.normal(size=(3, cfg.window.input_length))
        config = {"s": cfg.window.s, "states": cfg.state_count,
                  "stack": [(c.filters, c.kernel, c.stride) for c in cfg.conv_stack]}
        want = reference.forward(config, {p.name: p.tensor.values
                                          for p in net.parameters()}, x)
        out = net.predict(x)
        np.testing.assert_allclose(out.ratings, want["ratings"], rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.state_probs, want["probs"], rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.combined, want["combined"], rtol=1e-12, atol=0)

    def test_tape_leaves_are_the_parameters(self, rng):
        # the mains input is a constant: conv1d puts no tensor of it on the tape
        net = DisaggNet(tiny_config())
        fwd = net.forward_tensors(rng.normal(size=(3, net.config.window.input_length)))
        leaves, seen, stack = set(), set(), [fwd.combined, fwd.state_probs]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if not node._parents:
                leaves.add(id(node))
            stack.extend(node._parents)
        assert leaves == {id(p.tensor) for p in net.parameters()}

    def test_rejects_offset_off_the_conv_stride(self, rng):
        cfg = NetConfig(window=WindowConfig(s=4, w=3), state_count=3,
                        conv_stack=((3, 3), (4, 3, 2)), hidden=8)
        x = rng.normal(size=(1, cfg.window.input_length + 3))
        with pytest.raises(ValueError, match="multiples of .* stride 2"):
            DisaggNet(cfg).forward_tensors(x, np.array([0]), np.array([1]))

    def test_rejects_wrong_batch_shape(self, rng):
        net = DisaggNet(tiny_config())
        with pytest.raises(ValueError, match="expected inputs"):
            net.forward_tensors(rng.normal(size=(3, 11)))
        with pytest.raises(ValueError, match="expected inputs"):
            net.forward_tensors(rng.normal(size=10))

    def test_combined_is_product_of_heads(self, rng):
        cfg = tiny_config()
        net = DisaggNet(cfg)
        x = rng.normal(size=(3, cfg.window.input_length))
        out = net.predict(x)
        expected = np.einsum("bsl,bl->bs", out.state_probs, out.ratings)
        np.testing.assert_allclose(out.combined, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# combine
# ---------------------------------------------------------------------------

class TestCombine:
    def test_one_hot_rows_select_ratings(self):
        ratings = np.array([0.0, 1.5, -2.0])
        idx = np.array([2, 0, 1, 1])
        probs = np.eye(3)[idx]
        got = combine(ratings, probs).values
        np.testing.assert_array_equal(got, ratings[idx])

    def test_linearity_in_ratings(self, rng):
        p = rng.dirichlet(np.ones(3), size=5)
        r1, r2 = rng.normal(size=3), rng.normal(size=3)
        lhs = combine(2.0 * r1 + 3.0 * r2, p).values
        rhs = 2.0 * combine(r1, p).values + 3.0 * combine(r2, p).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_batched_matches_loop(self, rng):
        r = rng.normal(size=(4, 3))
        p = rng.dirichlet(np.ones(3), size=(4, 6))
        got = combine(r, p).values
        for b in range(4):
            np.testing.assert_allclose(got[b], combine(r[b], p[b]).values,
                                       atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="combine"):
            combine(rng.normal(size=4), rng.normal(size=(6, 3)))
        with pytest.raises(ValueError, match="combine"):
            combine(rng.normal(size=(2, 3)), rng.normal(size=(3, 6, 3)))

    def test_gradients_match_finite_differences(self, rng):
        r0 = rng.normal(size=(2, 3))
        p0 = rng.dirichlet(np.ones(3), size=(2, 4))
        target = rng.normal(size=(2, 4))

        def loss_at(rv, pv):
            return ad.mse_loss(combine(rv, pv), target).values.item()

        r = ad.Tensor(r0.copy())
        p = ad.Tensor(p0.copy())
        loss = ad.mse_loss(combine(r, p), target)
        loss.backward()
        fd_r = central_difference(lambda v: loss_at(v, p0), r0.copy())
        fd_p = central_difference(lambda v: loss_at(r0, v), p0.copy())
        assert relative_error(r.grad, fd_r) < 1e-6
        assert relative_error(p.grad, fd_p) < 1e-6

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_output_stays_in_rating_hull(self, seed):
        # rows are convex weights, so each output lies between the extreme
        # ratings of its example
        g = np.random.default_rng(seed)
        r = g.normal(size=(2, 4))
        p = g.dirichlet(np.ones(4), size=(2, 5))
        out = combine(r, p).values
        for b in range(2):
            assert np.all(out[b] >= r[b].min() - 1e-12)
            assert np.all(out[b] <= r[b].max() + 1e-12)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

class TestLosses:
    def _forward(self, rng, cfg=None):
        cfg = cfg or tiny_config()
        net = DisaggNet(cfg)
        x = rng.normal(size=(2, cfg.window.input_length))
        s, l = cfg.window.s, cfg.state_count
        target_power = rng.normal(size=(2, s))
        target_states = np.eye(l)[rng.integers(0, l, size=(2, s))]
        return net, net.forward_tensors(x), target_power, target_states

    def test_total_is_sum_of_terms(self, rng):
        _, fwd, tp, ts = self._forward(rng)
        total, out_term, state_term = total_loss(fwd, tp, ts)
        assert total.values.item() == pytest.approx(
            out_term.values.item() + state_term.values.item(), abs=1e-12)
        assert out_term.values.item() == pytest.approx(
            ad.mse_loss(fwd.combined, tp).values.item(), abs=1e-12)
        assert state_term.values.item() == pytest.approx(
            ad.cross_entropy_loss(fwd.state_probs, ts).values.item(), abs=1e-12)

    def test_power_term_scales_with_lambda(self, rng):
        _, fwd, tp, ts = self._forward(rng)
        centroids = np.array([0.0, 0.4, 0.9])
        base, _, _ = total_loss(fwd, tp, ts)
        lam, _, _ = total_loss(fwd, tp, ts, lambda_power=0.5,
                               centroid_targets=centroids)
        power = loss_power(fwd.ratings, centroids).values.item()
        assert lam.values.item() == pytest.approx(
            base.values.item() + 0.5 * power, abs=1e-12)

    def test_lambda_without_centroids_rejected(self, rng):
        _, fwd, tp, ts = self._forward(rng)
        with pytest.raises(ValueError, match="centroid_targets"):
            total_loss(fwd, tp, ts, lambda_power=0.1)

    def test_loss_power_broadcasts_targets(self, rng):
        ratings = ad.Tensor(rng.normal(size=(4, 3)))
        centroids = np.array([0.0, 0.5, 1.0])
        got = loss_power(ratings, centroids).values.item()
        want = np.mean((ratings.values - centroids) ** 2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_backward_reaches_every_parameter(self, rng):
        net, fwd, tp, ts = self._forward(rng)
        total, _, _ = total_loss(fwd, tp, ts)
        total.backward()
        for p in net.parameters():
            assert p.tensor.grad is not None, p.name
            assert p.tensor.grad.shape == p.tensor.values.shape
            assert np.all(np.isfinite(p.tensor.grad))

    def test_power_head_gradient_needs_lambda_or_output_loss(self, rng):
        # with only the state term, power-subnet params get no gradient signal
        net, fwd, _, ts = self._forward(rng)
        state_term = ad.cross_entropy_loss(fwd.state_probs, ts)
        state_term.backward()
        power_grads = [p.tensor.grad for p in net.power_net.params]
        assert all(g is None for g in power_grads)
